"""The three workloads, driven from the benchmark's main process.

Each ``run_*`` function takes ``(seed, seconds, trace, ctx)`` and returns
an :class:`Outcome`: the end-to-end metrics of an untraced run, the
facts the per-layer table needs in a traced one, what was attempted and
failed, and a human-readable detail table.

- ``archive-fullres``: closed loop, one thread, one codec process.  Whole
  passes over one full-resolution HDL-64E frame of each fig9 scene, each
  frame compressed then decompressed and checked.
- ``uplink-temporal``: open loop at :data:`UPLINK_RATE_HZ`, one client
  connection.  A temporal ``kitti-road`` drive is compressed frame by
  frame on schedule and streamed over a shaped 4G link to a
  decompress-mode server in its own process.
- ``depot-ingest``: closed loop, two client connections from this
  process, sliding window 32, unshaped loopback, store-mode server in its
  own process.  Back-fill rounds of seeded random payloads; each round
  ends with every frame read back by index.
"""

from __future__ import annotations

import math
import resource
import time
from collections import Counter
from dataclasses import dataclass, field

from perfbench import hostspeed, inputs, tracing
from perfbench.stats import failed_frames, median, open_loop, tail

#: End-to-end metrics: unit and direction.  Every workload reports all
#: of them (see README.md for what each means per workload).
END_TO_END = {
    "setup_s": ("s", "lower"),
    "frames_per_s": ("1/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "cpu_ms_per_frame": ("ms", "lower"),
    "kb_per_frame": ("kB", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPS = 5

#: uplink-temporal: frame rate of the open loop, and the client's window.
UPLINK_RATE_HZ = 1.5
UPLINK_WINDOW = 4
UPLINK_KEYFRAME_INTERVAL = 8
#: The paper's 4G uplink: 8.2 Mbps, plus 25 ms one-way latency.
UPLINK_MBPS = 8.2
UPLINK_LATENCY_S = 0.025

#: depot-ingest: clients (one per core of the reference box), window,
#: and frames each client sends per back-fill round.  At window 8 the
#: fleet waits on thread wake-ups more than on CPU, and its throughput
#: swung 25-40 % from run to run on a shared host while CPU per frame
#: held within 7 %; at window 32 the fleet is CPU-bound.
DEPOT_CLIENTS = 2
DEPOT_WINDOW = 32
DEPOT_FRAMES = 2000

#: Seconds the server may take to see every END after the last send.
END_TIMEOUT_S = 60.0


@dataclass
class Context:
    """What a workload needs from the run: children, files, tracing."""

    supervisor: object
    run_dir: object
    trace_path: object


@dataclass
class Outcome:
    metrics: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    details: list = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    facts: dict = field(default_factory=dict)


def _detail(out: Outcome, name: str, value: float, unit: str, samples: int | str) -> None:
    out.details.append((name, value, unit, samples))


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tail_detail(out: Outcome, label: str, values_ms: list[float]) -> None:
    found = tail(values_ms)
    if found is None:
        _detail(out, f"{label}_tail", float("nan"), "ms", f"{len(values_ms)} (too few)")
    else:
        q, value = found
        _detail(out, f"{label}_p{q:g}", value, "ms", len(values_ms))


# -- archive-fullres -------------------------------------------------------


def run_archive(seed: int, seconds: float, trace: bool, ctx: Context) -> Outcome:
    out = Outcome()
    t0 = time.perf_counter()
    warmup = inputs.warmup_frame(seed)
    frames = inputs.archive_frames(seed)
    out.facts["inputs_s"] = time.perf_counter() - t0

    config = {"warmup": warmup, "trace_path": str(ctx.trace_path)}
    setups = []
    for rep in range(SETUP_REPS):
        last = rep == SETUP_REPS - 1
        scale = hostspeed.measure().wall_index
        child = ctx.supervisor.spawn("codec", {**config, "trace": trace and last})
        setups.append((child.hello["ready"] - child.t_spawn) * scale)
        if not last:
            child.close()
    try:
        reply = child.ask({"cmd": "archive", "frames": frames, "seconds": seconds})
    finally:
        child.close()

    records = reply["records"]
    out.attempted = len(records)
    bad = [r for r in records if not r["ok"]]
    out.failed = len(bad)
    for r in bad:
        out.problems.append(
            f"{r['scene']}: round trip failed (max error {r['max_error']:.5f} m, "
            f"bound {reply['bound']:.5f} m)"
        )
    # Timings at the reference host speed (see hostspeed.py).
    for r in records:
        for part in ("compress", "decompress"):
            probe = r[f"{part}_probe"]
            r[f"{part}_scaled_s"] = r[f"{part}_s"] * probe.wall_index
            r[f"{part}_scaled_cpu_s"] = r[f"{part}_cpu_s"] * probe.cpu_index
    points = sum(r["points"] for r in records)
    enc = sum(r["compress_scaled_s"] for r in records)
    dec = sum(r["decompress_scaled_s"] for r in records)
    frame_ms = [1e3 * (r["compress_scaled_s"] + r["decompress_scaled_s"]) for r in records]
    cpu_s = sum(r["compress_scaled_cpu_s"] + r["decompress_scaled_cpu_s"] for r in records)
    n = len(records)
    out.metrics = {
        "setup_s": median(setups),
        "frames_per_s": n / (enc + dec),
        "latency_ms_p50": median(frame_ms),
        "cpu_ms_per_frame": 1e3 * cpu_s / n,
        "kb_per_frame": sum(r["bytes"] for r in records) / n / 1e3,
        "peak_rss_mb": reply["rss_mb"],
    }
    out.samples = {
        "setup_s": f"{len(setups)} start-ups", "frames_per_s": f"{n} frames",
        "latency_ms_p50": f"{n} frames", "cpu_ms_per_frame": f"{n} frames",
        "kb_per_frame": f"{n} frames", "peak_rss_mb": "1 process",
    }
    _detail(out, "encode_kpts_per_s", points / enc / 1e3, "kpt/s", n)
    _detail(out, "decode_kpts_per_s", points / dec / 1e3, "kpt/s", n)
    _detail(out, "bits_per_point", 8 * sum(r["bytes"] for r in records) / points, "bit", n)
    _detail(out, "host_index_median", median(
        r[f"{part}_probe"].wall_index for r in records for part in ("compress", "decompress")
    ), "ratio", 2 * n)
    raw = [r["compress_s"] + r["decompress_s"] for r in records]
    _detail(out, "raw.frames_per_s", n / sum(raw), "1/s", n)
    _detail(out, "raw.latency_ms_p50", 1e3 * median(raw), "ms", n)
    _detail(out, "max_error_m", max(r["max_error"] for r in records), "m", n)
    for r in records[: len(frames)]:
        _detail(
            out, f"frame.{r['scene']}", 1e3 * (r["compress_scaled_s"] + r["decompress_scaled_s"]),
            "ms", f"{r['points']} pts, raw {r['compress_s']:.2f}+{r['decompress_s']:.2f} s",
        )
    if trace:
        out.summary = reply["summary"]
        out.facts["wall_s"] = enc + dec
        _cross_check(out, reply["summary"], reply["stage_totals"])
    return out


def _cross_check(out: Outcome, summary: dict, stages: dict) -> None:
    """Compare layer totals with the program's own stage spans.

    ``dbgc.den`` wraps only clustering and ``dbgc.out`` only the outlier
    codec, so those must agree closely.  ``dbgc.oct`` also builds the
    octree mapping and ``sparse.*`` split ``encode_sparse_group`` in
    three, so the wrapped layer must fit inside them.
    """
    comp, decomp = stages["compress"], stages["decompress"]

    def s(name):
        return summary.get(name, {}).get("s", 0.0)

    checks = [
        ("clustering vs dbgc.den", s("clustering.cluster"), comp.get("dbgc.den", 0.0), 0.9),
        ("outlier vs dbgc.out", s("outlier.encode") + s("outlier.decode"),
         comp.get("dbgc.out", 0.0) + decomp.get("dbgc.out", 0.0), 0.9),
        ("octree vs dbgc.oct", s("octree.encode") + s("octree.decode"),
         comp.get("dbgc.oct", 0.0) + decomp.get("dbgc.oct", 0.0), 0.5),
        ("sparse_codec.encode vs sparse.cor+org+spa", s("sparse_codec.encode"),
         sum(comp.get(k, 0.0) for k in ("sparse.cor", "sparse.org", "sparse.spa")), 0.9),
        ("sparse_codec.decode vs dbgc.spa", s("sparse_codec.decode"),
         decomp.get("dbgc.spa", 0.0), 0.9),
    ]
    for label, ours, theirs, low in checks:
        ratio = ours / theirs if theirs else 0.0
        _detail(out, f"crosscheck.{label}", ratio, "ratio", "layer s / program span s")
        if not low <= ratio <= 1.02:
            out.problems.append(
                f"cross-check {label}: {ours:.4f} s vs {theirs:.4f} s "
                f"(ratio {ratio:.3f} outside [{low}, 1.02])"
            )


# -- shared by the system workloads ------------------------------------------


def _start_server(ctx: Context, mode: str, tag: str, trace: bool):
    return ctx.supervisor.spawn("server", {
        "mode": mode,
        "journal": str(ctx.run_dir / f"{tag}.receipts.jsonl"),
        "trace": trace,
        "trace_path": str(ctx.trace_path),
    })


def _finish_server(child, streams: list[int], **request) -> dict:
    try:
        return child.ask({"cmd": "finish", "streams": streams, "timeout": END_TIMEOUT_S,
                          **request})
    finally:
        child.close()


# -- uplink-temporal ---------------------------------------------------------


def run_uplink(seed: int, seconds: float, trace: bool, ctx: Context) -> Outcome:
    out = Outcome()
    n = math.ceil(UPLINK_RATE_HZ * seconds)
    t0 = time.perf_counter()
    sensor, frames, egos = inputs.uplink_drive(seed, n)
    out.facts["inputs_s"] = time.perf_counter() - t0

    from repro.core import DBGCCompressor, DBGCParams
    from repro.core.container import container_version
    from repro.core.temporal import TemporalContext, TemporalDecoder
    from repro.system.channel import BandwidthShaper
    from repro.system.client import DbgcClient

    params = DBGCParams(temporal=True, keyframe_interval=UPLINK_KEYFRAME_INTERVAL)
    compressor = DBGCCompressor(params, sensor=sensor)
    compressor.compress_temporal(frames[0], TemporalContext())  # warm-up

    def connect(address):
        return DbgcClient(
            address, stream_id=1, window=UPLINK_WINDOW,
            channel=BandwidthShaper(UPLINK_MBPS, latency_s=UPLINK_LATENCY_S),
        )

    setups = []
    for rep in range(SETUP_REPS - 1):
        scale = hostspeed.measure().wall_index
        child = _start_server(ctx, "decompress", f"setup{rep}", False)
        client = connect(child.hello["address"])
        setups.append((time.perf_counter() - child.t_spawn) * scale)
        client.close()
        _finish_server(child, [1])

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    probe_before = hostspeed.measure()  # no server process is alive here
    child = _start_server(ctx, "decompress", "stream", trace)
    try:
        client = connect(child.hello["address"])
        setups.append((time.perf_counter() - child.t_spawn) * probe_before.wall_index)
        context = TemporalContext()
        payloads = [b""] * n
        compress_s = [0.0] * n

        def produce(i: int) -> None:
            c0 = time.perf_counter()
            result = compressor.compress_temporal(frames[i], context, ego_delta=egos[i])
            compress_s[i] = time.perf_counter() - c0
            payloads[i] = result.payload
            client.send_payload(i, result.payload)

        probes = [(-math.inf, probe_before)]
        probe_cpu = 0.0

        def idle(due: float) -> None:
            # Probe the host only while the whole system is idle: the
            # last frame is ACKed (so stored) and the next is not due yet.
            nonlocal probe_cpu
            traces = client.report.traces
            while traces and traces[-1].status != "stored" and due - time.perf_counter() > 0.15:
                time.sleep(0.005)
            if traces and traces[-1].status == "stored" and due - time.perf_counter() > 0.15:
                c0 = time.process_time()
                probes.append((due, hostspeed.measure(samples=7)))
                probe_cpu += time.process_time() - c0

        cpu0 = time.process_time()
        start = time.perf_counter() + 0.05
        lags = open_loop(
            n, UPLINK_RATE_HZ, start, produce, time.perf_counter, time.sleep, idle
        )
        client.close()
        client_cpu = time.process_time() - cpu0 - probe_cpu
    except BaseException:
        child.close()
        raise
    reply = _finish_server(child, [1])
    if tracer is not None:
        out.summary = tracer.summary()
        tracer.restore()
        tracer.dump(ctx.trace_path, "generator")
    # Timings at the reference host speed (see hostspeed.py): each frame
    # takes the last probe before it was due.
    probes.append((math.inf, hostspeed.measure()))
    due_probe = [
        max((p for p in probes if p[0] <= start + i / UPLINK_RATE_HZ), key=lambda p: p[0])[1]
        for i in range(n)
    ]
    run_probe = hostspeed.median_probe([p for _, p in probes])

    # Correctness: the stored clouds are a serial replay of what was sent.
    decoder = TemporalDecoder()
    mismatched = set()
    for i, payload in enumerate(payloads):
        expected = decoder.decode(payload).xyz.tobytes()
        if reply["clouds"].get(i) != expected:
            mismatched.add(i)
    receipts = reply["receipts"][1]
    statuses = {t.frame_index: t.status for t in client.report.traces}
    failed = failed_frames(n, statuses, Counter(r[0] for r in receipts), mismatched)
    out.attempted, out.failed = n, len(failed)
    if failed:
        out.problems.append(
            f"{len(failed)} frame(s) not stored intact (first {sorted(failed)[:5]}; "
            f"{len(mismatched)} differ from the serial replay, "
            f"{reply['quarantined']} quarantined)"
        )

    stored_at = {r[0]: r[3] for r in receipts}
    kept = [i for i in range(n) if i in stored_at and i not in failed]
    raw_ms = [1e3 * (stored_at[i] - (start + i / UPLINK_RATE_HZ)) for i in kept]
    latencies = [v * due_probe[i].wall_index for v, i in zip(raw_ms, kept)]
    period_ms = 1e3 / UPLINK_RATE_HZ
    on_time = sum(1 for v in raw_ms if v <= 2 * period_ms) / n
    points = sum(len(f) for f in frames)
    total_bytes = sum(len(p) for p in payloads)
    delta = [len(p) for p in payloads if container_version(p) == 3]
    key = [len(p) for p in payloads if container_version(p) != 3]
    out.metrics = {
        "setup_s": median(setups),
        # Set by the schedule unless the system falls behind: not scaled.
        "frames_per_s": len(stored_at) / (max(stored_at.values()) - start),
        "latency_ms_p50": median(latencies),
        "cpu_ms_per_frame": 1e3 * (client_cpu + reply["cpu_s"]) * run_probe.cpu_index / n,
        "kb_per_frame": total_bytes / n / 1e3,
        "peak_rss_mb": reply["rss_mb"],
    }
    out.samples = {
        "setup_s": f"{len(setups)} start-ups", "frames_per_s": f"{len(stored_at)} frames",
        "latency_ms_p50": f"{len(latencies)} frames", "cpu_ms_per_frame": f"{n} frames",
        "kb_per_frame": f"{n} frames", "peak_rss_mb": "1 process",
    }
    _tail_detail(out, "latency_ms", latencies)
    _detail(out, "on_time_ratio", on_time, "ratio", n)
    _detail(out, "host_index_median", run_probe.wall_index, "ratio", len(probes))
    _detail(out, "raw.latency_ms_p50", median(raw_ms), "ms", len(raw_ms))
    _detail(out, "bits_per_point", 8 * total_bytes / points, "bit", n)
    encode_s = sum(c * p.wall_index for c, p in zip(compress_s, due_probe))
    _detail(out, "encode_kpts_per_s", points / encode_s / 1e3, "kpt/s", n)
    _detail(out, "lag_ms_max", 1e3 * max(lags), "ms", n)
    _detail(out, "client_rss_mb", _rss_mb(), "MB", 1)
    out.facts.update({
        "lag_ms_max": 1e3 * max(lags),
        "delta_bytes_ratio": (sum(delta) / len(delta)) / (sum(key) / len(key))
        if delta and key else 0.0,
        "client_cpu_s": client_cpu,
        "server_cpu_s": reply["cpu_s"],
        "frames_sent": n,
        "retransmits": sum(t.retries for t in client.report.traces),
        "busy_hints": reply["busy_hints"],
        "acks": len(receipts) + reply["quarantined"],
        "wall_s": max(stored_at.values()) - start,
    })
    if trace:
        out.summary = tracing.merge(out.summary, reply["summary"])
    return out


# -- depot-ingest ------------------------------------------------------------


def run_depot(seed: int, seconds: float, trace: bool, ctx: Context) -> Outcome:
    from repro.system.client import DbgcClient

    out = Outcome()
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    streams = [c + 1 for c in range(DEPOT_CLIENTS)]
    setups, walls, acks_ms, rss, summaries = [], [], [], [], []
    frames = total_bytes = retransmits = busy = acks = 0
    client_cpu = server_cpu = inputs_s = 0.0
    # Between rounds no server process is alive: the host probe runs there.
    probes = [hostspeed.measure()]
    began = time.perf_counter()
    round_no = 0
    while round_no < SETUP_REPS or time.perf_counter() - began < seconds:
        t0 = time.perf_counter()
        payloads = [
            inputs.depot_payloads(seed, round_no, c, DEPOT_FRAMES) for c in range(DEPOT_CLIENTS)
        ]
        inputs_s += time.perf_counter() - t0
        child = _start_server(ctx, "store", f"round{round_no}", trace)
        try:
            clients = [
                DbgcClient(
                    child.hello["address"], stream_id=sid, window=DEPOT_WINDOW,
                    queue_capacity=DEPOT_FRAMES,
                )
                for sid in streams
            ]
            setups.append(time.perf_counter() - child.t_spawn)
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            # Back-fill: every frame is on hand, so the send queues hold
            # the whole round and only the windows pace the clients.
            for i in range(DEPOT_FRAMES):
                for c, client in enumerate(clients):
                    client.send_payload(c * inputs.INDEX_STRIDE + i, payloads[c][i])
            for client in clients:
                client.close()
            walls.append(time.perf_counter() - t0)
            client_cpu += time.process_time() - cpu0
        except BaseException:
            child.close()
            raise
        reply = _finish_server(child, streams, verify={
            "seed": seed, "round": round_no, "clients": DEPOT_CLIENTS, "frames": DEPOT_FRAMES,
        })
        probes.append(hostspeed.measure())
        server_cpu += reply["cpu_s"]
        rss.append(reply["rss_mb"])
        busy += reply["busy_hints"]
        if trace:
            summaries.append(reply["summary"])
        wrong = set(reply["wrong"])
        for c, client in enumerate(clients):
            base = c * inputs.INDEX_STRIDE
            statuses = {t.frame_index - base: t.status for t in client.report.traces}
            receipts = reply["receipts"][streams[c]]
            counts = Counter(r[0] - base for r in receipts)
            mismatched = {i - base for i in wrong if base <= i < base + DEPOT_FRAMES}
            failed = failed_frames(DEPOT_FRAMES, statuses, counts, mismatched)
            out.attempted += DEPOT_FRAMES
            out.failed += len(failed)
            if failed:
                out.problems.append(
                    f"round {round_no} client {c}: {len(failed)} frame(s) not stored "
                    f"exactly once with the bytes sent (first {sorted(failed)[:5]})"
                )
            acks_ms.extend(1e3 * v for v in client.report.ack_latencies)
            retransmits += sum(t.retries for t in client.report.traces)
            acks += len(receipts)
        if reply["extras"]:
            out.failed += reply["extras"]
            out.problems.append(f"round {round_no}: {reply['extras']} unexpected frame(s)")
        frames += DEPOT_CLIENTS * DEPOT_FRAMES
        total_bytes += sum(len(p) for ps in payloads for p in ps)
        round_no += 1
    if tracer is not None:
        tracer_summary = tracer.summary()
        tracer.restore()
        tracer.dump(ctx.trace_path, "generator")
        out.summary = tracing.merge(tracer_summary, *summaries)

    # Timings at the reference host speed (see hostspeed.py).  Store and
    # socket work is mostly native code, which tracks the probe only on
    # the scale of a run, so one run-wide index is used.
    run_probe = hostspeed.median_probe(probes)
    scale = run_probe.wall_index
    wall = sum(walls)
    out.metrics = {
        "setup_s": median(setups) * scale,
        # Median over rounds: a burst of host contention spoils a round,
        # not the run.
        "frames_per_s": median(DEPOT_CLIENTS * DEPOT_FRAMES / t for t in walls) / scale,
        "latency_ms_p50": median(acks_ms) * scale,
        "cpu_ms_per_frame": 1e3 * (client_cpu + server_cpu) * run_probe.cpu_index / frames,
        "kb_per_frame": total_bytes / frames / 1e3,
        "peak_rss_mb": median(rss),
    }
    out.samples = {
        "setup_s": f"{len(setups)} start-ups", "frames_per_s": f"{round_no} rounds",
        "latency_ms_p50": f"{len(acks_ms)} ACKs", "cpu_ms_per_frame": f"{frames} frames",
        "kb_per_frame": f"{frames} frames", "peak_rss_mb": f"{len(rss)} processes",
    }
    _tail_detail(out, "ack_latency_ms", [v * scale for v in acks_ms])
    _detail(out, "rounds", round_no, "count", f"{DEPOT_CLIENTS}x{DEPOT_FRAMES} frames each")
    _detail(out, "ingest_mb_per_s", total_bytes / (wall * scale) / 1e6, "MB/s", round_no)
    _detail(out, "host_index_median", run_probe.wall_index, "ratio", len(probes))
    _detail(out, "raw.frames_per_s", median(DEPOT_CLIENTS * DEPOT_FRAMES / t for t in walls),
            "1/s", round_no)
    _detail(out, "raw.latency_ms_p50", median(acks_ms), "ms", len(acks_ms))
    _detail(out, "client_rss_mb", _rss_mb(), "MB", 1)
    out.facts.update({
        "inputs_s": inputs_s,
        "client_cpu_s": client_cpu,
        "server_cpu_s": server_cpu,
        "frames_sent": frames,
        "retransmits": retransmits,
        "busy_hints": busy,
        "acks": acks,
        "wall_s": wall,
    })
    return out


WORKLOADS = {
    "archive-fullres": run_archive,
    "uplink-temporal": run_uplink,
    "depot-ingest": run_depot,
}
