"""Perf-regression smoke: vectorized kernels vs their pure-Python oracles.

The PR 5 tentpole rewrote the sparse-pipeline hot loops (polyline
organization, radial reference coding, plain radial deltas) as batched
numpy kernels that must stay byte-identical to the original loop
implementations (kept as ``*_py`` oracles).  This bench asserts the two
properties CI cares about:

- identical outputs, and
- the vectorized kernels actually pay for themselves: >= 2x over the
  oracles on a real organized scene.

The ``entropy`` row does the same for the fused arithmetic-coding kernels
(:mod:`repro.entropy.arithmetic`) on every adaptive-arith stream of the CI
frame: identical bytes and symbols, and >= 1.5x on encode + decode.

The ``temporal-occupancy`` row codes the delta occupancy streams of the
temporal CI drive (``bench_temporal.py``'s scene and seed) with the fused
binary-context kernels and with the per-bit class oracle
(``tests/oracles.py``), models persisting across frames:
identical bytes, leaf codes and model counts, and >= 2x on encode +
decode.

Timing loops are interleaved (fast/oracle alternating, min-of-N) so
CPU-frequency drift cancels instead of biasing one side.
"""

from __future__ import annotations

import time
from unittest import mock

import numpy as np

from benchmarks.bench_temporal import SCENE as TEMPORAL_SCENE
from benchmarks.bench_temporal import SEED as TEMPORAL_SEED
from benchmarks.common import bench_sensor, frame, record_bench
from repro.core import temporal
from repro.core.params import DBGCParams
from repro.core.pipeline import DBGCCompressor
from repro.datasets import SensorModel, generate_frame
from repro.datasets.trajectories import generate_sequence, straight
from repro.core.polyline import organize_polylines, organize_polylines_py
import repro.entropy.backend as entropy_backend
from repro.entropy.arithmetic import (
    arithmetic_decode,
    arithmetic_encode,
    decode_int_sequence,
    encode_int_sequence,
)
from repro.core.reference import (
    decode_radial,
    decode_radial_plain,
    decode_radial_plain_py,
    decode_radial_py,
    encode_radial,
    encode_radial_plain,
    encode_radial_plain_py,
    encode_radial_py,
)
from repro.geometry.spherical import (
    cartesian_to_spherical,
    spherical_error_bounds,
)
from tests.oracles import (
    arithmetic_decode_py,
    arithmetic_encode_py,
    code_occupancy_py,
    decode_int_sequence_py,
    decode_occupancy_py,
    encode_int_sequence_py,
    to_counts,
)

#: Required advantage of the vectorized kernels over the ``*_py`` oracles.
MIN_SPEEDUP = 2.0

#: Required advantage of the fused arithmetic-coding kernels (encode +
#: decode) over their per-symbol ``*_py`` oracles.
MIN_ENTROPY_SPEEDUP = 1.5

#: Required advantage of the fused temporal occupancy kernels (encode +
#: decode) over the per-bit class oracle.
MIN_TEMPORAL_SPEEDUP = 2.0
#: Frames of the temporal drive: one keyframe, then delta frames.
_TEMPORAL_FRAMES = 6

_ROUNDS = 3


def _interleaved_best(fast, oracle):
    """(fast_best_s, oracle_best_s, fast_result, oracle_result)."""
    fast_best = oracle_best = float("inf")
    fast_result = oracle_result = None
    for _ in range(_ROUNDS):
        start = time.perf_counter()
        fast_result = fast()
        fast_best = min(fast_best, time.perf_counter() - start)
        start = time.perf_counter()
        oracle_result = oracle()
        oracle_best = min(oracle_best, time.perf_counter() - start)
    return fast_best, oracle_best, fast_result, oracle_result


def _sparse_group(scene: str = "kitti-city"):
    """The sparse-point input of the scene, as the encoder sees it.

    Always generated at the sensor's full benchmark resolution, whatever
    ``DBGC_BENCH_SENSOR_SCALE`` says: the vectorized kernels amortize
    per-call numpy overhead over realistic point counts, so a toy frame
    would measure overhead, not the kernels.
    """
    sensor = SensorModel.benchmark_default()
    cloud = generate_frame(scene, 0, sensor=sensor)
    params = DBGCParams()
    compressor = DBGCCompressor(params, sensor=sensor)
    dense_mask = compressor._classify(cloud.xyz)
    xyz = cloud.xyz[~dense_mask]
    tpr = cartesian_to_spherical(xyz)
    return (
        tpr[:, 0],
        tpr[:, 1],
        tpr[:, 2],
        xyz,
        params,
        compressor.u_theta,
        compressor.u_phi,
    )


def test_organize_polylines_speedup():
    theta, phi, _r, xyz, _params, u_theta, u_phi = _sparse_group()
    fast_s, py_s, fast_lines, py_lines = _interleaved_best(
        lambda: organize_polylines(theta, phi, xyz, u_theta, u_phi),
        lambda: organize_polylines_py(theta, phi, xyz, u_theta, u_phi),
    )
    assert len(fast_lines) == len(py_lines)
    for a, b in zip(fast_lines, py_lines):
        assert np.array_equal(a, b)
    speedup = py_s / fast_s
    record_bench(
        "kernels",
        wall_times_s={"organize.fast": fast_s, "organize.py": py_s},
        point_counts={"organize.points": len(xyz)},
    )
    assert speedup >= MIN_SPEEDUP, (
        f"organize_polylines only {speedup:.2f}x over the oracle "
        f"(needs >= {MIN_SPEEDUP}x on {len(xyz)} points)"
    )


def _radial_inputs():
    """Quantized sorted polylines, exactly as encode_sparse_group builds them."""
    theta, phi, radius, xyz, params, u_theta, u_phi = _sparse_group()
    lines = [
        line
        for line in organize_polylines(theta, phi, xyz, u_theta, u_phi)
        if len(line) >= 2
    ]
    r_max = max(float(max(radius[line].max() for line in lines)), 1e-9)
    q_theta, q_phi, q_r = spherical_error_bounds(params.q_xyz, r_max)
    d1_all = np.round(theta / (2.0 * q_theta)).astype(np.int64)
    d2_all = np.round(phi / (2.0 * q_phi)).astype(np.int64)
    d3_all = np.round(radius / (2.0 * q_r)).astype(np.int64)
    lines.sort(key=lambda line: (int(d2_all[line[0]]), int(d1_all[line[0]])))
    lines_d1 = [d1_all[line] for line in lines]
    lines_d3 = [d3_all[line] for line in lines]
    line_phis = [int(d2_all[line[0]]) for line in lines]
    th_phi_q = max(int(round(2.0 * u_phi / (2.0 * q_phi))), 0)
    th_r_q = max(int(round(params.th_r / (2.0 * q_r))), 1)
    return lines_d1, lines_d3, line_phis, th_phi_q, th_r_q


def test_radial_coding_speedup():
    lines_d1, lines_d3, line_phis, th_phi_q, th_r_q = _radial_inputs()

    enc_fast_s, enc_py_s, fast_enc, py_enc = _interleaved_best(
        lambda: encode_radial(lines_d1, lines_d3, line_phis, th_phi_q, th_r_q),
        lambda: encode_radial_py(lines_d1, lines_d3, line_phis, th_phi_q, th_r_q),
    )
    nabla, symbols = fast_enc
    assert np.array_equal(nabla, py_enc[0]) and list(symbols) == list(py_enc[1])

    symbols_arr = np.asarray(symbols, dtype=np.int64)
    dec_fast_s, dec_py_s, fast_dec, py_dec = _interleaved_best(
        lambda: decode_radial(
            lines_d1, line_phis, nabla, symbols_arr, th_phi_q, th_r_q
        ),
        lambda: decode_radial_py(
            lines_d1, line_phis, nabla, symbols_arr, th_phi_q, th_r_q
        ),
    )
    for a, b, original in zip(fast_dec, py_dec, lines_d3):
        assert np.array_equal(a, b) and np.array_equal(a, original)

    record_bench(
        "kernels",
        wall_times_s={
            "radial_encode.fast": enc_fast_s,
            "radial_encode.py": enc_py_s,
            "radial_decode.fast": dec_fast_s,
            "radial_decode.py": dec_py_s,
        },
    )
    enc_speedup = enc_py_s / enc_fast_s
    dec_speedup = dec_py_s / dec_fast_s
    assert enc_speedup >= MIN_SPEEDUP, f"encode_radial only {enc_speedup:.2f}x"
    assert dec_speedup >= MIN_SPEEDUP, f"decode_radial only {dec_speedup:.2f}x"


def test_radial_plain_round_trip_matches_oracle():
    _lines_d1, lines_d3, _phis, _thp, _thr = _radial_inputs()
    nabla = encode_radial_plain(lines_d3)
    assert np.array_equal(nabla, encode_radial_plain_py(lines_d3))
    lengths = [len(line) for line in lines_d3]
    decoded = decode_radial_plain(nabla, lengths)
    decoded_py = decode_radial_plain_py(nabla, lengths)
    for a, b, original in zip(decoded, decoded_py, lines_d3):
        assert np.array_equal(a, b) and np.array_equal(a, original)


def test_ci_frame_payload_size():
    """Record the CI frame's payload size; compare.py checks it exactly."""
    cloud = frame("kitti-city")
    result = DBGCCompressor(DBGCParams(), sensor=bench_sensor()).compress_detailed(cloud)
    record_bench(
        "kernels",
        wall_times_s={},
        sizes_bytes={"payload.q0.02": len(result.payload)},
        point_counts={"frame.points": len(cloud)},
    )


def _frame_entropy_streams():
    """Every adaptive-arith stream of the CI frame, as its backend codes it.

    Returns ``(symbol_streams, int_streams)``: ``(symbols, num_symbols)``
    pairs and signed integer arrays.
    """
    with mock.patch.object(
        entropy_backend, "arithmetic_encode", wraps=arithmetic_encode
    ) as symbol_calls, mock.patch.object(
        entropy_backend, "encode_int_sequence", wraps=encode_int_sequence
    ) as int_calls:
        DBGCCompressor(DBGCParams(), sensor=bench_sensor()).compress_detailed(
            frame("kitti-city")
        )
    symbol_streams = [
        (np.asarray(call.args[0], dtype=np.int64), call.args[1])
        for call in symbol_calls.call_args_list
    ]
    int_streams = [np.asarray(call.args[0]) for call in int_calls.call_args_list]
    return symbol_streams, int_streams


def _code_streams(symbol_streams, int_streams, encode, decode, encode_ints, decode_ints):
    """Encode, then decode, every stream: ``(encode_s, decode_s, payloads, decoded)``."""
    start = time.perf_counter()
    payloads = [encode(symbols, n) for symbols, n in symbol_streams]
    payloads += [encode_ints(values) for values in int_streams]
    encode_s = time.perf_counter() - start
    start = time.perf_counter()
    decoded = [
        decode(payload, len(symbols), n)
        for payload, (symbols, n) in zip(payloads, symbol_streams)
    ]
    decoded += [decode_ints(payload) for payload in payloads[len(symbol_streams) :]]
    return encode_s, time.perf_counter() - start, payloads, decoded


def test_entropy_kernel_speedup():
    symbol_streams, int_streams = _frame_entropy_streams()
    assert symbol_streams and int_streams
    fast_enc = fast_dec = py_enc = py_dec = float("inf")
    for _ in range(_ROUNDS):
        enc_s, dec_s, fast_payloads, fast_decoded = _code_streams(
            symbol_streams, int_streams,
            arithmetic_encode, arithmetic_decode,
            encode_int_sequence, decode_int_sequence,
        )
        fast_enc, fast_dec = min(fast_enc, enc_s), min(fast_dec, dec_s)
        enc_s, dec_s, py_payloads, py_decoded = _code_streams(
            symbol_streams, int_streams,
            arithmetic_encode_py, arithmetic_decode_py,
            encode_int_sequence_py, decode_int_sequence_py,
        )
        py_enc, py_dec = min(py_enc, enc_s), min(py_dec, dec_s)
    assert fast_payloads == py_payloads
    originals = [symbols for symbols, _n in symbol_streams] + int_streams
    for fast, oracle, original in zip(fast_decoded, py_decoded, originals):
        assert np.array_equal(fast, oracle) and np.array_equal(fast, original)

    record_bench(
        "kernels",
        wall_times_s={
            "entropy_encode.fast": fast_enc,
            "entropy_encode.py": py_enc,
            "entropy_decode.fast": fast_dec,
            "entropy_decode.py": py_dec,
        },
        sizes_bytes={"entropy.payload": sum(len(p) for p in fast_payloads)},
    )
    speedup = (py_enc + py_dec) / (fast_enc + fast_dec)
    assert speedup >= MIN_ENTROPY_SPEEDUP, (
        f"entropy kernels only {speedup:.2f}x over the oracles "
        f"(needs >= {MIN_ENTROPY_SPEEDUP}x; encode {py_enc / fast_enc:.2f}x, "
        f"decode {py_dec / fast_dec:.2f}x)"
    )


def _delta_occupancy_streams():
    """``(occupancy bytes, predictor maps, depth)`` of every delta frame
    of the temporal CI drive, in coding order."""
    sensor = bench_sensor()
    trajectory = straight(_TEMPORAL_FRAMES)
    frames = generate_sequence(TEMPORAL_SCENE, trajectory, sensor=sensor, seed=TEMPORAL_SEED)
    compressor = DBGCCompressor(DBGCParams(temporal=True), sensor=sensor)
    context = temporal.TemporalContext()
    streams = []
    real = temporal._code_occupancy

    def record(occ, maps, depth, models):
        streams.append((occ, maps, depth))
        return real(occ, maps, depth, models)

    with mock.patch.object(temporal, "_code_occupancy", record):
        prev = trajectory[0]
        for cloud, position in zip(frames, trajectory):
            ego = (position[0] - prev[0], position[1] - prev[1], 0.0)
            compressor.compress_temporal(cloud, context, ego_delta=ego)
            prev = position
    return streams


def _code_occupancy_chain(streams, encode, decode, fresh, counts):
    """Encode, then decode, every stream with models persisting across
    streams: ``(encode_s, decode_s, payloads, leaves, encoder models,
    decoder models)``, models as ``(f0, f1)`` counts."""
    models = fresh()
    start = time.perf_counter()
    payloads = [encode(occ, maps, depth, models) for occ, maps, depth in streams]
    encode_s = time.perf_counter() - start
    decoder_models = fresh()
    start = time.perf_counter()
    leaves = [
        decode(payload, maps, depth, decoder_models, 8 * len(occ))
        for payload, (occ, maps, depth) in zip(payloads, streams)
    ]
    decode_s = time.perf_counter() - start
    return (
        encode_s, decode_s, payloads, leaves, counts(models), counts(decoder_models)
    )


def test_temporal_occupancy_kernel_speedup():
    streams = _delta_occupancy_streams()
    assert streams
    oracle_streams = [(occ.astype(np.int64), maps, depth) for occ, maps, depth in streams]
    fast_enc = fast_dec = py_enc = py_dec = float("inf")
    for _ in range(_ROUNDS):
        enc_s, dec_s, *fast = _code_occupancy_chain(
            streams, temporal._code_occupancy, temporal._decode_occupancy,
            temporal._fresh_models, lambda models: models,
        )
        fast_enc, fast_dec = min(fast_enc, enc_s), min(fast_dec, dec_s)
        enc_s, dec_s, *oracle = _code_occupancy_chain(
            oracle_streams, code_occupancy_py, decode_occupancy_py, dict, to_counts,
        )
        py_enc, py_dec = min(py_enc, enc_s), min(py_dec, dec_s)
    payloads, leaves, enc_models, dec_models = fast
    assert payloads == oracle[0]
    for a, b in zip(leaves, oracle[1]):
        assert np.array_equal(a, b)
    assert enc_models == dec_models == oracle[2] == oracle[3]

    record_bench(
        "kernels",
        wall_times_s={
            "temporal_occupancy_encode.fast": fast_enc,
            "temporal_occupancy_encode.py": py_enc,
            "temporal_occupancy_decode.fast": fast_dec,
            "temporal_occupancy_decode.py": py_dec,
        },
        sizes_bytes={"temporal_occupancy.payload": sum(len(p) for p in payloads)},
        point_counts={"temporal_occupancy.leaves": sum(len(x) for x in leaves)},
    )
    speedup = (py_enc + py_dec) / (fast_enc + fast_dec)
    assert speedup >= MIN_TEMPORAL_SPEEDUP, (
        f"temporal occupancy kernels only {speedup:.2f}x over the oracle "
        f"(needs >= {MIN_TEMPORAL_SPEEDUP}x; encode {py_enc / fast_enc:.2f}x, "
        f"decode {py_dec / fast_dec:.2f}x)"
    )
