"""Fused temporal occupancy kernels against the per-bit class oracle.

The delta dense payload is coded by :func:`binary_context_encode` and
:func:`binary_context_decoder` over flat ``(f0, f1)`` count lists.  The
oracle (``tests/oracles.py``) is the original loop: one
:class:`AdaptiveModel` per context tuple, driven bit by bit.  Bytes,
leaf codes and every context's counts must agree, across frames, at
keyframe resets, through the halving rescale and on corrupt payloads.
Components where delta coding is not applicable fall back to intra
coding and leave the models where they were.
"""

import copy
import time
from unittest import mock

import numpy as np
import pytest

from repro.core import DBGCParams
from repro.core import temporal
from repro.core.container import unpack_container
from repro.core.pipeline import DBGCCompressor
from repro.core.temporal import (
    MODE_DELTA,
    MODE_INTRA,
    TemporalContext,
    TemporalDecoder,
    _decode_dense_delta,
    _decode_occupancy,
    _fresh_models,
)
from repro.datasets import SensorModel
from repro.datasets.trajectories import generate_sequence, straight
from repro.entropy.arithmetic import (
    AdaptiveModel,
    ArithmeticEncoder,
    binary_context_decoder,
    binary_context_encode,
)
from repro.entropy.backend import encode_tagged_ints
from repro.entropy.varint import encode_uvarint
from repro.geometry.points import PointCloud
from tests.oracles import (
    code_occupancy_py,
    context_id,
    decode_occupancy_py,
    to_counts,
)

N_FRAMES = 7
KEYFRAME_INTERVAL = 4  # frames 0 and 4 are keyframes


@pytest.fixture(scope="module")
def sensor():
    return SensorModel.benchmark_default().scaled(0.3)


@pytest.fixture(scope="module")
def drive(sensor):
    """``(frames, ego deltas)`` of a short straight drive."""
    trajectory = straight(N_FRAMES)
    frames = list(generate_sequence("kitti-road", trajectory, sensor=sensor, seed=1))
    egos = [(0.0, 0.0, 0.0)] + [
        (trajectory[i][0] - trajectory[i - 1][0], trajectory[i][1] - trajectory[i - 1][1], 0.0)
        for i in range(1, N_FRAMES)
    ]
    return frames, egos


def _compressor(sensor):
    params = DBGCParams(temporal=True, keyframe_interval=KEYFRAME_INTERVAL)
    return DBGCCompressor(params, sensor=sensor)


@pytest.fixture(scope="module")
def coded(drive, sensor):
    """Encode the drive, recording every occupancy encode.

    Returns ``(payloads, calls, models_after)``: ``calls[i]`` lists frame
    ``i``'s ``(occ, maps, depth, payload)`` occupancy encodes and
    ``models_after[i]`` is ``context.occ_models`` after frame ``i``.
    """
    frames, egos = drive
    real = temporal._code_occupancy
    calls: list[list[tuple]] = []

    def record(occ, maps, depth, models):
        payload = real(occ, maps, depth, models)
        calls[-1].append((occ, maps, depth, payload))
        return payload

    compressor = _compressor(sensor)
    context = TemporalContext()
    payloads, models_after = [], []
    with mock.patch.object(temporal, "_code_occupancy", record):
        for cloud, ego in zip(frames, egos):
            calls.append([])
            payloads.append(
                compressor.compress_temporal(cloud, context, ego_delta=ego).payload
            )
            models_after.append(copy.deepcopy(context.occ_models))
    return payloads, calls, models_after


def _dense_mode(payload):
    header, dense, *_ = unpack_container(payload)
    return dense[0] if header.is_delta else None


def _first_delta_occupancy(coded):
    """``(occ, maps, depth, payload, leaves)`` of frame 1's dense delta."""
    payloads, calls, _ = coded
    assert _dense_mode(payloads[1]) == MODE_DELTA
    occ, maps, depth, payload = calls[1][0]
    leaves = len(_decode_occupancy(payload, maps, depth, _fresh_models(), 1 << 62))
    return occ, maps, depth, payload, leaves


class TestAgainstOracle:
    def test_drive_uses_delta_occupancy(self, coded):
        payloads, calls, _ = coded
        modes = [_dense_mode(p) for p in payloads]
        assert modes[0] is None and modes[KEYFRAME_INTERVAL] is None
        assert sum(mode == MODE_DELTA for mode in modes) >= 3

    def test_multi_frame_persistence_and_keyframe_reset(self, coded):
        # The oracle replays every occupancy encode with its own dict models;
        # each one is a delta frame's dense payload.
        payloads, calls, models_after = coded
        oracle: dict = {}
        for i, payload in enumerate(payloads):
            if _dense_mode(payload) is None:
                oracle = {}
                assert models_after[i] == _fresh_models()
            assert len(calls[i]) == (1 if _dense_mode(payload) == MODE_DELTA else 0)
            for occ, maps, depth, kernel_bytes in calls[i]:
                assert code_occupancy_py(occ, maps, depth, oracle) == kernel_bytes
            assert to_counts(oracle) == models_after[i]
        # Persistence: the last delta before the second keyframe saw
        # counts carried over from earlier deltas.
        assert models_after[KEYFRAME_INTERVAL - 1] != models_after[1]

    def test_decoder_matches_oracle_and_encoder_models(self, coded):
        payloads, calls, models_after = coded
        decoder = TemporalDecoder()
        oracle: dict = {}
        for i, payload in enumerate(payloads):
            before = copy.deepcopy(decoder.context.occ_models)
            decoder.decode(payload)
            assert decoder.context.occ_models == models_after[i]
            if _dense_mode(payload) is None:
                oracle = {}
                continue
            if _dense_mode(payload) != MODE_DELTA:
                continue
            occ, maps, depth, kernel_bytes = calls[i][0]
            kernel = _decode_occupancy(kernel_bytes, maps, depth, before, 1 << 62)
            reference = decode_occupancy_py(kernel_bytes, maps, depth, oracle, 1 << 62)
            assert np.array_equal(kernel, reference)
            assert before == to_counts(oracle) == models_after[i]

    def test_halving_rescale(self, coded):
        # Preload the busiest context just under the rescale threshold on
        # both sides, so this frame drives its total past 65,536.
        occ, maps, depth, _payload, leaves = _first_delta_occupancy(coded)
        probe: dict = {}
        code_occupancy_py(occ, maps, depth, probe)
        key = max(probe, key=lambda k: probe[k].total)
        oracle: dict = {}
        oracle[key] = model = AdaptiveModel(2, increment=temporal._OCC_INCREMENT)
        while model.total + model.increment <= model.max_total:
            model.update(0 if model.total % 3 else 1)
        counts = to_counts(oracle)
        before_total = model.total
        decoder_oracle = copy.deepcopy(oracle)
        decoder_counts = copy.deepcopy(counts)

        payload = temporal._code_occupancy(occ, maps, depth, counts)
        assert code_occupancy_py(occ, maps, depth, oracle) == payload
        assert to_counts(oracle) == counts
        c = context_id(key)
        assert counts[0][c] + counts[1][c] < before_total  # halved at least once

        leaves_kernel = _decode_occupancy(payload, maps, depth, decoder_counts, leaves)
        leaves_oracle = decode_occupancy_py(payload, maps, depth, decoder_oracle, leaves)
        assert np.array_equal(leaves_kernel, leaves_oracle)
        assert decoder_counts == counts == to_counts(decoder_oracle)

    def test_mutated_payloads_match_oracle(self, coded):
        occ, maps, depth, payload, leaves = _first_delta_occupancy(coded)
        rng = np.random.default_rng(13)
        outcomes = set()
        for _ in range(24):
            mutated = bytearray(payload)
            for _ in range(rng.integers(1, 5)):
                mutated[rng.integers(len(mutated))] = rng.integers(256)
            kernel_models = _fresh_models()
            oracle: dict = {}
            try:
                kernel = _decode_occupancy(bytes(mutated), maps, depth, kernel_models, leaves)
            except ValueError as exc:
                kernel = type(exc)
            try:
                reference = decode_occupancy_py(bytes(mutated), maps, depth, oracle, leaves)
            except ValueError as exc:
                reference = type(exc)
            if isinstance(kernel, type):
                assert kernel is reference
                outcomes.add("error")
            else:
                assert np.array_equal(kernel, reference)
                assert kernel_models == to_counts(oracle)
                outcomes.add("decoded")
        assert "error" in outcomes


class TestIntraFallbacks:
    """Delta frames whose components cannot be delta-coded.

    An empty predictor cloud leaves the dense set and every group without
    a predictor; a dense-only keyframe leaves the groups without previous
    sparse points.  Those components are intra-coded (``MODE_INTRA``),
    and the frames still decode bit-exactly in lockstep with the encoder.
    """

    @pytest.mark.parametrize("keyframe", ["empty", "dense-only"])
    def test_round_trip_in_lockstep(self, drive, sensor, keyframe):
        frames, egos = drive
        compressor = _compressor(sensor)
        if keyframe == "empty":
            first = PointCloud(np.empty((0, 3)))
            intra_dense = True
        else:
            first = PointCloud(frames[0].xyz[compressor._classify(frames[0].xyz)])
            intra_dense = False
        context = TemporalContext()
        decoder = TemporalDecoder()
        stream = [(first, (0.0, 0.0, 0.0)), (frames[1], egos[1]), (frames[2], egos[2])]
        for i, (cloud, ego) in enumerate(stream):
            payload = compressor.compress_temporal(cloud, context, ego_delta=ego).payload
            decoded = decoder.decode(payload)
            assert np.array_equal(decoded.xyz, context.prev_cloud)
            assert decoder.context.fingerprint() == context.fingerprint()
            assert decoder.context.occ_models == context.occ_models
            if i == 0:
                assert context.prev_sparse.size == 0
                continue
            header, dense, groups, *_ = unpack_container(payload)
            assert header.is_delta and len(groups) > 0
            # Frame 1 has no previous sparse points; frame 2 has.
            group_mode = MODE_INTRA if i == 1 else MODE_DELTA
            assert [g[0] for g in groups] == [group_mode] * len(groups)
            dense_mode = MODE_INTRA if i == 1 and intra_dense else MODE_DELTA
            assert dense[0] == dense_mode
            if i == 1 and intra_dense:
                assert context.occ_models == _fresh_models()


class TestBinaryContextKernels:
    def test_single_context_stream_matches_per_symbol_coder(self):
        # 6,000 bits in one context halve its counts more than once; a second
        # context interleaves so both code paths of a bit are exercised.
        rng = np.random.default_rng(5)
        bits = (rng.random(6000) < 0.8).astype(np.int64).tolist()
        contexts = [0 if i % 7 else 1 for i in range(len(bits))]
        models = [AdaptiveModel(2, increment=24) for _ in range(2)]
        encoder = ArithmeticEncoder()
        for c, bit in zip(contexts, bits):
            encoder.encode_symbol(models[c], bit)
        f0, f1 = [1, 1], [1, 1]
        assert binary_context_encode(contexts, bits, f0, f1, 24) == encoder.finish()
        assert [f0, f1] == [[m._freq[0] for m in models], [m._freq[1] for m in models]]

    def test_decoder_round_trips_bytes_in_batches(self):
        rng = np.random.default_rng(6)
        data = rng.integers(1, 256, 300)
        bits = (data[:, None] >> np.arange(8)) & 1
        bases = (np.arange(8) * 3)[None, :].repeat(len(data), axis=0)
        prefix = np.minimum(np.cumsum(bits, axis=1) - bits, 2)
        contexts = (bases + prefix).ravel().tolist()
        bits = bits.ravel().tolist()
        f0, f1 = [1] * 24, [1] * 24
        payload = binary_context_encode(contexts, bits, f0, f1, 24)
        g0, g1 = [1] * 24, [1] * 24
        decoder = binary_context_decoder(payload, g0, g1, 24)
        next(decoder)
        out = decoder.send(bases[:100].tolist()) + decoder.send(bases[100:].tolist())
        assert list(out) == data.tolist()
        assert (g0, g1) == (f0, f1)


class TestBoundedDecode:
    """Corrupt delta occupancy must fail fast, not grow the tree forever."""

    @pytest.fixture(scope="class")
    def first_delta(self, coded):
        payloads = coded[0]
        keyframe_decoder = TemporalDecoder()
        keyframe_decoder.decode(payloads[0])
        clean_s = float("inf")
        for _ in range(3):
            decoder = copy.deepcopy(keyframe_decoder)
            start = time.perf_counter()
            decoder.decode(payloads[1])
            clean_s = min(clean_s, time.perf_counter() - start)
        return keyframe_decoder, payloads[1], clean_s

    def test_random_occupancy_payload_fails_fast(self, first_delta):
        keyframe_decoder, delta, clean_s = first_delta
        _header, dense, *_ = unpack_container(delta)
        origin = temporal.dense_payload_origin(dense[1:])
        n_points = 1000
        rng = np.random.default_rng(11)
        for _ in range(6):
            body = bytearray()
            encode_uvarint(n_points, body)
            body += temporal._DENSE_HEADER.pack(*origin, DBGCParams().leaf_side)
            encode_uvarint(11, body)
            encode_uvarint(64, body)
            body += rng.integers(0, 256, 64, dtype=np.uint8).tobytes()
            body += encode_tagged_ints(np.zeros(n_points, dtype=np.int64), "adaptive-arith")
            context = copy.deepcopy(keyframe_decoder.context)
            start = time.perf_counter()
            with pytest.raises(ValueError, match="more octree nodes than leaves"):
                _decode_dense_delta(bytes(body), context, (0.0, 0.0, 0.0))
            assert time.perf_counter() - start < 0.1 + 5 * clean_s

    def test_mutated_first_delta_decodes_in_bounded_time(self, first_delta):
        keyframe_decoder, delta, clean_s = first_delta
        _header, dense, *_ = unpack_container(delta)
        start_at = delta.find(dense)
        rng = np.random.default_rng(7)
        worst = 0.0
        for _ in range(40):
            mutated = bytearray(delta)
            for _ in range(rng.integers(1, 5)):
                mutated[start_at + rng.integers(len(dense))] = rng.integers(256)
            decoder = copy.deepcopy(keyframe_decoder)
            start = time.perf_counter()
            try:
                decoder.decode(bytes(mutated))
            except ValueError:
                pass
            worst = max(worst, time.perf_counter() - start)
        # Without the node cap the worst of these took ~10x a clean decode.
        assert worst < 0.1 + 5 * clean_s, (worst, clean_s)
