"""Child process of the benchmark: the codec process or a DBGC server.

Run by :class:`perfbench.child.Child`, never by hand.  The first message
on stdin picks the role:

- ``codec``: import the codec, build a compressor and a decompressor,
  warm them up on a small frame, report ready, then code the frames it
  is sent for the requested seconds (``archive-fullres``).
- ``server``: open a ``SqliteFrameStore`` and a ``ReceiptJournal``,
  build a ``DbgcServer`` with its public constructor, report ready with
  its address, then wait for the clients' ENDs and read every stored
  frame back (``uplink-temporal``, ``depot-ingest``).

With ``trace`` set, the layer wrappers go in before the codec or server
is built, and the reply carries the span summary.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# The original stdout carries the pipe protocol; anything the program
# prints goes to stderr instead.
_PIPE_OUT = os.fdopen(os.dup(1), "wb")
os.dup2(2, 1)

import contextlib  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

from perfbench import hostspeed, tracing  # noqa: E402
from perfbench.child import recv, send  # noqa: E402
from perfbench.inputs import INDEX_STRIDE, depot_payloads  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def round_trip(cloud, decoded, mapping, bound: float) -> tuple[bool, float]:
    """Is every decoded point within ``bound`` of its source point?

    Points are matched through the compressor's original -> decoded
    mapping, which must be a permutation.
    """
    import numpy as np

    n = len(cloud)
    if len(decoded) != n or not np.array_equal(np.sort(mapping), np.arange(n)):
        return False, math.inf
    error = float(np.linalg.norm(decoded.xyz[mapping] - cloud.xyz, axis=1).max())
    return error <= bound, error


def finish_trace(tracer, cfg: dict, reply: dict, label: str) -> None:
    if tracer is None:
        return
    reply["summary"] = tracer.summary()
    tracer.restore()
    tracer.dump(cfg["trace_path"], label)


def run_codec(cfg: dict, stdin) -> None:
    tracer = tracing.Tracer() if cfg["trace"] else None
    from repro import observability as obs
    from repro.core import DBGCCompressor, DBGCDecompressor, DBGCParams
    from repro.datasets.sensors import SensorModel
    from repro.geometry.points import PointCloud

    if tracer is not None:
        tracing.install(tracer)
    params = DBGCParams()
    compressor = DBGCCompressor(params, sensor=SensorModel.velodyne_hdl64e())
    decompressor = DBGCDecompressor()
    warm = compressor.compress_detailed(PointCloud(cfg["warmup"]))
    decompressor.decompress(warm.payload)
    if tracer is not None:
        tracer.spans.clear()
    send(_PIPE_OUT, {"ready": time.perf_counter()})

    request = recv(stdin)
    if request["cmd"] != "archive":
        return
    frames = [(scene, PointCloud(xyz)) for scene, xyz in request["frames"]]
    # Default (non-strict) DBGC bounds the Euclidean error by sqrt(3) q;
    # only strict_cartesian promises q per axis.
    bound = math.sqrt(3.0) * params.q_xyz * (1 + 1e-6)
    records = []
    recording = obs.recording() if tracer is not None else contextlib.nullcontext()
    with recording as recorder:
        # Whole passes over the scenes, so every run codes the same mix:
        # as many as fit in the requested seconds, and at least one.
        # The host probe runs between frames, where no program code runs.
        probe = hostspeed.measure()
        start = time.perf_counter()
        while True:
            pass_start = time.perf_counter()
            for scene, cloud in frames:
                cpu0 = time.process_time()
                t0 = time.perf_counter()
                result = compressor.compress_detailed(cloud)
                t1 = time.perf_counter()
                cpu1 = time.process_time()
                middle = hostspeed.measure()
                cpu2 = time.process_time()
                t2 = time.perf_counter()
                decoded = decompressor.decompress(result.payload)
                t3 = time.perf_counter()
                cpu3 = time.process_time()
                ok, error = round_trip(cloud, decoded, result.mapping, bound)
                before, probe = probe, hostspeed.measure()
                records.append({
                    "scene": scene, "points": len(cloud), "bytes": len(result.payload),
                    "compress_s": t1 - t0, "decompress_s": t3 - t2,
                    "compress_cpu_s": cpu1 - cpu0, "decompress_cpu_s": cpu3 - cpu2,
                    "ok": ok, "max_error": error,
                    "compress_probe": hostspeed.between(before, middle),
                    "decompress_probe": hostspeed.between(middle, probe),
                })
            now = time.perf_counter()
            if now - start + (now - pass_start) > request["seconds"]:
                break
    reply = {"records": records, "rss_mb": peak_rss_mb(), "bound": bound}
    if tracer is not None:
        report = obs.report_dict(recorder)
        reply["stage_totals"] = {
            "compress": obs.stage_totals(report, "dbgc.compress"),
            "decompress": obs.stage_totals(report, "dbgc.decompress"),
        }
    finish_trace(tracer, cfg, reply, "codec")
    send(_PIPE_OUT, reply)


def verify_depot(store, check: dict) -> tuple[list[int], int]:
    """Read every sent frame back; ``(wrong or missing indices, extras)``."""
    expected = {}
    for client in range(check["clients"]):
        payloads = depot_payloads(check["seed"], check["round"], client, check["frames"])
        for i, payload in enumerate(payloads):
            expected[client * INDEX_STRIDE + i] = payload
    wrong = []
    for index, payload in expected.items():
        try:
            got = store.get_payload(index)
        except KeyError:
            got = None
        if got != payload:
            wrong.append(index)
    extras = len(set(store.frame_indices()) - set(expected))
    return wrong, extras


def run_server(cfg: dict, stdin) -> None:
    tracer = tracing.Tracer() if cfg["trace"] else None
    from repro.system.server import DbgcServer
    from repro.system.storage import SqliteFrameStore

    if tracer is not None:
        tracing.install(tracer)
    store = SqliteFrameStore(":memory:")
    server = DbgcServer(
        store, mode=cfg["mode"], receipt_journal=cfg["journal"], max_receipts=None
    ).start()
    cpu0 = time.process_time()
    send(_PIPE_OUT, {"ready": time.perf_counter(), "address": server.address})

    request = recv(stdin)
    try:
        server.wait_for_streams(len(request["streams"]), timeout=request["timeout"])
        reply = {
            "cpu_s": time.process_time() - cpu0,
            "receipts": {sid: server.receipts_for(sid) for sid in request["streams"]},
            "busy_hints": server.busy_hints,
            "quarantined": len(server.quarantine),
            "stored": len(store),
        }
        if cfg["mode"] == "decompress":
            reply["clouds"] = {
                index: store.get_cloud(index).xyz.tobytes()
                for index in store.frame_indices()
            }
        else:
            reply["wrong"], reply["extras"] = verify_depot(store, request["verify"])
    finally:
        server.close()
        store.close()
    reply["rss_mb"] = peak_rss_mb()
    finish_trace(tracer, cfg, reply, f"server-{os.getpid()}")
    send(_PIPE_OUT, reply)


def main() -> int:
    stdin = sys.stdin.buffer
    try:
        cfg = recv(stdin)
        {"codec": run_codec, "server": run_server}[cfg["role"]](cfg, stdin)
    except EOFError:
        return 0  # the benchmark closed the pipe: nothing more to do
    except Exception:
        send(_PIPE_OUT, {"error": traceback.format_exc()})
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
