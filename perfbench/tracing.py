"""Layer spans recorded from outside the program.

A :class:`Tracer` replaces public functions and methods of the program
with timing wrappers for the length of a traced run.  Each call becomes
a span ``(id, name, start, end, parent, tag, counts)``: the parent is the
span open on the same thread when the call began, the tag is the
``(stream, frame)`` the call exposes, and the counts are the work it did
(points, symbols, bytes).  Spans stay in memory and are written out when
the run ends; :func:`layer_metrics` turns them into the per-layer table.

Functions are patched in every ``repro`` module that holds them, because
that is where callers look them up: ``repro.core.pipeline`` calls its own
``cluster_approx`` binding, not ``repro.core.clustering``'s.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: Per-layer metrics printed by a traced run: unit and direction.  The
#: names are ``<module>.<metric>``, the module being the program module
#: (or benchmark part) whose calls are timed.  Work counts read "higher"
#: because a run is a fixed time or a fixed set of inputs.
PER_LAYER = {
    "entropy.encode_s": ("s", "lower"),
    "entropy.decode_s": ("s", "lower"),
    "entropy.symbols": ("count", "higher"),
    "entropy.bytes": ("B", "lower"),
    "entropy.ns_per_symbol": ("ns", "lower"),
    "polyline.organize_s": ("s", "lower"),
    "polyline.points": ("count", "higher"),
    "reference.encode_s": ("s", "lower"),
    "reference.decode_s": ("s", "lower"),
    "sparse_codec.encode_self_s": ("s", "lower"),
    "sparse_codec.decode_self_s": ("s", "lower"),
    "clustering.s": ("s", "lower"),
    "clustering.points": ("count", "higher"),
    "octree.encode_s": ("s", "lower"),
    "octree.decode_s": ("s", "lower"),
    "octree.points": ("count", "higher"),
    "outlier.encode_s": ("s", "lower"),
    "outlier.decode_s": ("s", "lower"),
    "outlier.points": ("count", "higher"),
    "container.pack_s": ("s", "lower"),
    "container.unpack_s": ("s", "lower"),
    "pipeline.unattributed_s": ("s", "lower"),
    "pipeline.unattributed_share": ("ratio", "lower"),
    "temporal.delta_encode_s": ("s", "lower"),
    "temporal.decode_s": ("s", "lower"),
    "temporal.delta_bytes_ratio": ("ratio", "lower"),
    "client.send_blocked_s": ("s", "lower"),
    "client.retransmits": ("count", "lower"),
    "client.retransmit_ratio": ("ratio", "lower"),
    "client_process.cpu_s": ("s", "lower"),
    "channel.pace_s": ("s", "lower"),
    "protocol.encode_s": ("s", "lower"),
    "protocol.read_s": ("s", "lower"),
    "protocol.records": ("count", "higher"),
    "protocol.bytes": ("B", "lower"),
    "server.busy_ratio": ("ratio", "lower"),
    "server_process.cpu_s": ("s", "lower"),
    "storage.put_s": ("s", "lower"),
    "storage.puts": ("count", "higher"),
    "storage.bytes": ("B", "lower"),
    "storage.get_s": ("s", "lower"),
    "durability.append_s": ("s", "lower"),
    "durability.appends": ("count", "higher"),
    "loadgen.lag_ms_max": ("ms", "lower"),
    "loadgen.inputs_s": ("s", "lower"),
    "tracing.spans": ("count", "higher"),
    "tracing.overhead_share": ("ratio", "lower"),
}

#: Span names that must fire at least once in each workload's traced
#: run; a wrapper that never fires there means the layer was not
#: exercised (or the patch missed its call site) and fails the run.
REQUIRED_SPANS = {
    "archive-fullres": (
        "entropy.encode", "entropy.decode", "entropy.encode_ints",
        "entropy.decode_ints", "polyline.organize", "reference.encode",
        "reference.decode", "sparse_codec.encode", "sparse_codec.decode",
        "clustering.cluster", "octree.encode", "octree.decode",
        "outlier.encode", "outlier.decode", "container.pack",
        "container.unpack", "pipeline.compress", "pipeline.decompress",
    ),
    "uplink-temporal": (
        "temporal.delta_encode", "temporal.decode", "pipeline.compress",
        "entropy.encode_ints", "entropy.decode_ints", "client.send",
        "channel.pace", "protocol.encode", "protocol.read", "storage.put_cloud",
        "durability.append",
    ),
    "depot-ingest": (
        "client.send", "protocol.encode", "protocol.read", "storage.put_payload",
        "storage.get_payload", "durability.append",
    ),
}


class Tracer:
    """Timing wrappers plus the spans they record."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, func, name: str, note=None):
        """``func`` timed as span ``name``; ``note(args, result)`` gives
        the span's tag (``stream``/``frame`` keys) and counts."""
        layer = name.split(".", 1)[0]

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][1] == layer:
                # A layer calling into itself (encode_ints -> encode)
                # stays one span, so layer totals never count twice.
                return func(*args, **kwargs)
            sid = next(self._ids)
            parent = stack[-1][0] if stack else 0
            stack.append((sid, layer))
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            info = note(args, result) if note is not None else {}
            tag = (info.pop("stream", None), info.pop("frame", None))
            self.spans.append((sid, name, start, end, parent, tag, info))
            return result

        return traced

    def patch_function(self, module: str, attr: str, name: str, note=None) -> None:
        """Wrap ``module.attr`` in every loaded ``repro`` module binding it."""
        original = getattr(importlib.import_module(module), attr)
        wrapper = self.wrap(original, name, note)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, original, wrapper)

    def patch_method(self, module: str, cls: str, attr: str, name: str, note=None) -> None:
        owner = getattr(importlib.import_module(module), cls)
        original = owner.__dict__[attr]
        self._set(owner, attr, original, self.wrap(original, name, note))

    def _set(self, owner, attr: str, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put every original back; raise if one did not stick."""
        patches, self._patches = self._patches, []
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in patches
            if vars(owner).get(attr) is not original
        ]
        if left:
            raise RuntimeError(f"wrappers left installed: {left}")

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total and self seconds, summed counts."""
        child_s: dict[int, float] = defaultdict(float)
        for sid, _, start, end, parent, _, _ in self.spans:
            if parent:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for sid, name, start, end, _, _, info in self.spans:
            entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["s"] += end - start
            entry["self_s"] += end - start - child_s[sid]
            for key, value in info.items():
                entry[key] = entry.get(key, 0) + value
        return out

    def dump(self, path, process: str) -> None:
        """Append this process's spans to ``path`` as JSON lines."""
        with open(path, "a", encoding="utf-8") as handle:
            for sid, name, start, end, parent, tag, info in self.spans:
                handle.write(json.dumps({
                    "process": process, "id": sid, "name": name, "start": start,
                    "end": end, "parent": parent, "stream": tag[0], "frame": tag[1],
                    **info,
                }) + "\n")


def calibrate(n: int = 20000) -> float:
    """Seconds one traced call adds over a direct call (median of 5)."""
    def noop():
        return None

    tracer = Tracer()
    traced = tracer.wrap(noop, "calibrate.noop")
    samples = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(n):
            noop()
        plain = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(n):
            traced()
        samples.append((time.perf_counter() - start - plain) / n)
        tracer.spans.clear()
    return sorted(samples)[2]


def merge(*summaries: dict) -> dict:
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            target = out.setdefault(name, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0) + value
    return out


# -- what is traced --------------------------------------------------------


def _points_in(args, result):
    return {"points": len(args[0])}


def _points_in_method(args, result):
    return {"points": len(args[1])}


def _points_out(args, result):
    return {"points": len(result)}


def _symbols_encode(args, result):
    return {"symbols": len(args[1]), "bytes": len(result)}


def _symbols_decode(args, result):
    return {"symbols": len(result), "bytes": len(args[1])}


def _record_out(args, result):
    return {"frame": args[1], "records": 1, "bytes": len(result)}


def _record_in(args, result):
    # Header, header CRC, payload and (for a payload) its CRC.
    wire = 17 + len(result.payload) + (4 if result.payload else 0)
    return {"frame": result.frame_index, "records": 1, "bytes": wire}


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the program (imports it first)."""
    import repro.core.pipeline  # noqa: F401 - patch targets must be loaded
    import repro.core.temporal  # noqa: F401
    import repro.system.client  # noqa: F401
    import repro.system.server  # noqa: F401

    for cls in ("EntropyBackend", "AdaptiveArithmeticBackend", "RansBackend"):
        owner = getattr(importlib.import_module("repro.entropy.backend"), cls)
        for attr, note in (
            ("encode", _symbols_encode), ("decode", _symbols_decode),
            ("encode_ints", _symbols_encode), ("decode_ints", _symbols_decode),
        ):
            if attr in owner.__dict__:
                tracer.patch_method(
                    "repro.entropy.backend", cls, attr, f"entropy.{attr}", note
                )
    tracer.patch_function(
        "repro.core.polyline", "organize_polylines", "polyline.organize", _points_in
    )
    tracer.patch_function("repro.core.reference", "encode_radial", "reference.encode")
    tracer.patch_function("repro.core.reference", "decode_radial", "reference.decode")
    tracer.patch_function(
        "repro.core.sparse_codec", "encode_sparse_group", "sparse_codec.encode"
    )
    tracer.patch_function(
        "repro.core.sparse_codec", "decode_sparse_group", "sparse_codec.decode"
    )
    tracer.patch_function(
        "repro.core.clustering", "cluster_approx", "clustering.cluster", _points_in
    )
    tracer.patch_method(
        "repro.octree.codec", "OctreeCodec", "encode", "octree.encode", _points_in_method
    )
    tracer.patch_method(
        "repro.octree.codec", "OctreeCodec", "decode", "octree.decode", _points_out
    )
    tracer.patch_function(
        "repro.core.outlier", "encode_outliers", "outlier.encode", _points_in
    )
    tracer.patch_function(
        "repro.core.outlier", "decode_outliers", "outlier.decode", _points_out
    )
    tracer.patch_function("repro.core.container", "pack_container", "container.pack")
    tracer.patch_function("repro.core.container", "unpack_container", "container.unpack")
    tracer.patch_method(
        "repro.core.pipeline", "DBGCCompressor", "compress_detailed", "pipeline.compress"
    )
    tracer.patch_method(
        "repro.core.pipeline", "DBGCDecompressor", "decompress_detailed",
        "pipeline.decompress",
    )
    tracer.patch_function(
        "repro.core.temporal", "compress_delta", "temporal.delta_encode",
        lambda args, result: {"bytes": len(result.payload)},
    )
    tracer.patch_method(
        "repro.core.temporal", "TemporalDecoder", "decode", "temporal.decode",
        lambda args, result: {"bytes": len(args[1])},
    )
    tracer.patch_method(
        "repro.system.client", "DbgcClient", "send_payload", "client.send",
        lambda args, result: {
            "stream": args[0].stream_id, "frame": args[1], "bytes": len(args[2]),
        },
    )
    tracer.patch_method(
        "repro.system.channel", "BandwidthShaper", "pace", "channel.pace",
        lambda args, result: {"bytes": args[1]},
    )
    tracer.patch_function(
        "repro.system.protocol", "encode_record", "protocol.encode", _record_out
    )
    tracer.patch_function(
        "repro.system.protocol", "read_record", "protocol.read", _record_in
    )
    for attr, size in (
        ("put_payload", lambda payload: len(payload)),
        ("put_cloud", lambda cloud: cloud.xyz.nbytes),
    ):
        tracer.patch_method(
            "repro.system.storage", "SqliteFrameStore", attr, f"storage.{attr}",
            lambda args, result, size=size: {"frame": args[1], "bytes": size(args[2])},
        )
    for attr in ("get_payload", "get_cloud"):
        tracer.patch_method(
            "repro.system.storage", "SqliteFrameStore", attr, f"storage.{attr}",
            lambda args, result: {"frame": args[1]},
        )
    tracer.patch_method(
        "repro.system.durability", "ReceiptJournal", "append_frame", "durability.append",
        lambda args, result: {"stream": args[1], "frame": args[2]},
    )


def _get(summary: dict, name: str, key: str = "s") -> float:
    return summary.get(name, {}).get(key, 0)


def layer_metrics(summary: dict, facts: dict) -> dict[str, float]:
    """The :data:`PER_LAYER` table from merged span summaries.

    ``facts`` carries what spans cannot: process CPU seconds, client
    retransmit counts, server BUSY/ACK counts, the generator's lag and
    input time, the workload wall time and the per-span tracing cost.
    """
    s = summary
    enc = _get(s, "entropy.encode") + _get(s, "entropy.encode_ints")
    dec = _get(s, "entropy.decode") + _get(s, "entropy.decode_ints")
    symbols = sum(_get(s, f"entropy.{a}", "symbols") for a in (
        "encode", "decode", "encode_ints", "decode_ints"))
    entropy_bytes = sum(_get(s, f"entropy.{a}", "bytes") for a in (
        "encode", "decode", "encode_ints", "decode_ints"))
    unattributed = _get(s, "pipeline.compress", "self_s") + _get(
        s, "pipeline.decompress", "self_s")
    pipeline_s = _get(s, "pipeline.compress") + _get(s, "pipeline.decompress")
    spans = sum(entry.get("calls", 0) for entry in s.values())
    sent = facts.get("frames_sent", 0)
    acks = facts.get("acks", 0)
    wall = facts.get("wall_s", 0.0)
    metrics = {
        "entropy.encode_s": enc,
        "entropy.decode_s": dec,
        "entropy.symbols": symbols,
        "entropy.bytes": entropy_bytes,
        "entropy.ns_per_symbol": 1e9 * (enc + dec) / symbols if symbols else 0.0,
        "polyline.organize_s": _get(s, "polyline.organize"),
        "polyline.points": _get(s, "polyline.organize", "points"),
        "reference.encode_s": _get(s, "reference.encode"),
        "reference.decode_s": _get(s, "reference.decode"),
        "sparse_codec.encode_self_s": _get(s, "sparse_codec.encode", "self_s"),
        "sparse_codec.decode_self_s": _get(s, "sparse_codec.decode", "self_s"),
        "clustering.s": _get(s, "clustering.cluster"),
        "clustering.points": _get(s, "clustering.cluster", "points"),
        "octree.encode_s": _get(s, "octree.encode"),
        "octree.decode_s": _get(s, "octree.decode"),
        "octree.points": _get(s, "octree.encode", "points")
        + _get(s, "octree.decode", "points"),
        "outlier.encode_s": _get(s, "outlier.encode"),
        "outlier.decode_s": _get(s, "outlier.decode"),
        "outlier.points": _get(s, "outlier.encode", "points")
        + _get(s, "outlier.decode", "points"),
        "container.pack_s": _get(s, "container.pack"),
        "container.unpack_s": _get(s, "container.unpack"),
        "pipeline.unattributed_s": unattributed,
        "pipeline.unattributed_share": unattributed / pipeline_s if pipeline_s else 0.0,
        "temporal.delta_encode_s": _get(s, "temporal.delta_encode"),
        "temporal.decode_s": _get(s, "temporal.decode"),
        "temporal.delta_bytes_ratio": facts.get("delta_bytes_ratio", 0.0),
        "client.send_blocked_s": _get(s, "client.send"),
        "client.retransmits": facts.get("retransmits", 0),
        "client.retransmit_ratio": facts.get("retransmits", 0) / sent if sent else 0.0,
        "client_process.cpu_s": facts.get("client_cpu_s", 0.0),
        "channel.pace_s": _get(s, "channel.pace"),
        "protocol.encode_s": _get(s, "protocol.encode"),
        "protocol.read_s": _get(s, "protocol.read"),
        "protocol.records": _get(s, "protocol.encode", "records")
        + _get(s, "protocol.read", "records"),
        "protocol.bytes": _get(s, "protocol.encode", "bytes")
        + _get(s, "protocol.read", "bytes"),
        "server.busy_ratio": facts.get("busy_hints", 0) / acks if acks else 0.0,
        "server_process.cpu_s": facts.get("server_cpu_s", 0.0),
        "storage.put_s": _get(s, "storage.put_payload") + _get(s, "storage.put_cloud"),
        "storage.puts": _get(s, "storage.put_payload", "calls")
        + _get(s, "storage.put_cloud", "calls"),
        "storage.bytes": _get(s, "storage.put_payload", "bytes")
        + _get(s, "storage.put_cloud", "bytes"),
        "storage.get_s": _get(s, "storage.get_payload") + _get(s, "storage.get_cloud"),
        "durability.append_s": _get(s, "durability.append"),
        "durability.appends": _get(s, "durability.append", "calls"),
        "loadgen.lag_ms_max": facts.get("lag_ms_max", 0.0),
        "loadgen.inputs_s": facts.get("inputs_s", 0.0),
        "tracing.spans": spans,
        "tracing.overhead_share": spans * facts.get("span_cost_s", 0.0) / wall
        if wall else 0.0,
    }
    if set(metrics) != set(PER_LAYER):
        raise RuntimeError(f"layer table out of step: {set(metrics) ^ set(PER_LAYER)}")
    return metrics


def missing_spans(workload: str, summary: dict) -> list[str]:
    return [name for name in REQUIRED_SPANS[workload] if not _get(summary, name, "calls")]
