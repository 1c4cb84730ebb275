"""Failure injection: corrupt, truncated, and adversarial streams.

A decoder facing a damaged stream must raise a clean Python exception
(ValueError / struct.error / StopIteration wrapped variants) — never hang,
never return silently wrong geometry without complaint, never crash the
interpreter.  These tests flip bits, truncate, and shuffle real payloads.
"""

import struct

import numpy as np
import pytest

from repro.baselines import (
    GpccCompressor,
    KdTreeCompressor,
    OctreeCompressor,
    OctreeICompressor,
)
from repro.core import DBGCCompressor, DBGCDecompressor, DBGCParams
from repro.datasets import generate_frame
from repro.geometry import PointCloud

DECODE_ERRORS = (ValueError, IndexError, KeyError, StopIteration, struct.error, OverflowError)


@pytest.fixture(scope="module")
def cloud():
    return PointCloud(generate_frame("kitti-road", 0).xyz[::10])


@pytest.fixture(scope="module")
def payload(cloud):
    return DBGCCompressor(DBGCParams()).compress(cloud)


def _expect_failure_or_mismatch(decode, data, n_expected):
    """Decoding corrupt data must raise, or at least not lie silently.

    Entropy-coded streams cannot detect every flipped bit; what we require
    is: no hang, no interpreter crash, and when a value *is* returned it is
    a well-formed cloud object.
    """
    try:
        result = decode(data)
    except DECODE_ERRORS:
        return True
    assert result.xyz.shape[1] == 3
    return len(result) != n_expected


class TestDbgcStream:
    def test_truncations_never_hang(self, payload, cloud):
        decoder = DBGCDecompressor()
        for cut in (5, 20, len(payload) // 2, len(payload) - 3):
            _expect_failure_or_mismatch(decoder.decompress, payload[:cut], len(cloud))

    def test_header_bit_flips(self, payload, cloud):
        decoder = DBGCDecompressor()
        for position in range(0, 40, 3):
            corrupted = bytearray(payload)
            corrupted[position] ^= 0xFF
            _expect_failure_or_mismatch(
                decoder.decompress, bytes(corrupted), len(cloud)
            )

    def test_random_bit_flips(self, payload, cloud):
        decoder = DBGCDecompressor()
        rng = np.random.default_rng(0)
        for _ in range(25):
            corrupted = bytearray(payload)
            corrupted[rng.integers(0, len(payload))] ^= 1 << rng.integers(0, 8)
            _expect_failure_or_mismatch(
                decoder.decompress, bytes(corrupted), len(cloud)
            )

    def test_empty_and_garbage(self):
        decoder = DBGCDecompressor()
        with pytest.raises(DECODE_ERRORS):
            decoder.decompress(b"")
        with pytest.raises(DECODE_ERRORS):
            decoder.decompress(b"\x00" * 64)
        with pytest.raises(DECODE_ERRORS):
            decoder.decompress(bytes(range(256)))

    def test_swapped_sections_detected_or_harmless(self, payload, cloud):
        # Duplicate the stream onto itself mid-way: sizes go inconsistent.
        data = payload[: len(payload) // 2] + payload[: len(payload) // 2]
        _expect_failure_or_mismatch(
            DBGCDecompressor().decompress, data, len(cloud)
        )


class TestBaselineStreams:
    @pytest.mark.parametrize(
        "cls", [OctreeCompressor, OctreeICompressor, KdTreeCompressor, GpccCompressor]
    )
    def test_truncation_and_flips(self, cls, cloud):
        codec = cls(0.05)
        payload = codec.compress(cloud)
        for cut in (3, len(payload) // 3, len(payload) - 2):
            _expect_failure_or_mismatch(codec.decompress, payload[:cut], len(cloud))
        rng = np.random.default_rng(1)
        for _ in range(10):
            corrupted = bytearray(payload)
            corrupted[rng.integers(0, len(payload))] ^= 0xFF
            _expect_failure_or_mismatch(
                codec.decompress, bytes(corrupted), len(cloud)
            )


class TestRoundTripUnderhandedInputs:
    """Valid but nasty inputs must round-trip, not just fail gracefully."""

    @pytest.mark.parametrize(
        "xyz",
        [
            np.full((40, 3), 1e-9),                    # everything at the origin
            np.array([[100.0, 100.0, 100.0]] * 17),    # far duplicates
            np.column_stack(                            # a single vertical pole
                [np.zeros(50), np.zeros(50) + 5.0, np.linspace(-2, 10, 50)]
            ),
        ],
        ids=["origin-cluster", "far-duplicates", "vertical-pole"],
    )
    def test_degenerate_geometry(self, xyz):
        params = DBGCParams()
        compressor = DBGCCompressor(params)
        result = compressor.compress_detailed(PointCloud(xyz))
        decoded = DBGCDecompressor().decompress(result.payload)
        assert len(decoded) == len(xyz)
        err = np.linalg.norm(decoded.xyz[result.mapping] - xyz, axis=1)
        assert err.max() <= np.sqrt(3) * params.q_xyz * (1 + 1e-6)

    def test_huge_coordinates(self):
        rng = np.random.default_rng(2)
        xyz = rng.uniform(9000.0, 9100.0, size=(100, 3))
        params = DBGCParams(q_xyz=0.05)
        result = DBGCCompressor(params).compress_detailed(PointCloud(xyz))
        decoded = DBGCDecompressor().decompress(result.payload)
        err = np.linalg.norm(decoded.xyz[result.mapping] - xyz, axis=1)
        assert err.max() <= np.sqrt(3) * params.q_xyz * (1 + 1e-6)


class TestNonFiniteHeaderFloats:
    """A NaN or infinite header float must raise, not decode to a cloud.

    Each field is overwritten in a real keyframe (v2) or delta frame (v3)
    of a 0.3-scale drive, which then goes through the stateful decoder.
    """

    #: ``field -> (frame, section, index of the f64 in its header)``.
    FIELDS = {
        "container.q_xyz": ("key", "container", 0),
        "container.u_theta": ("key", "container", 1),
        "container.u_phi": ("key", "container", 2),
        "container.th_r": ("key", "container", 3),
        "v3.ego_x": ("delta", "ego", 0),
        "v3.ego_y": ("delta", "ego", 1),
        "v3.ego_z": ("delta", "ego", 2),
        "octree.origin_x": ("key", "dense", 0),
        "octree.origin_y": ("key", "dense", 1),
        "octree.origin_z": ("key", "dense", 2),
        "octree.leaf_side": ("key", "dense", 3),
        "dense_delta.origin_x": ("delta", "dense", 0),
        "dense_delta.origin_y": ("delta", "dense", 1),
        "dense_delta.origin_z": ("delta", "dense", 2),
        "dense_delta.leaf_side": ("delta", "dense", 3),
        "dense_payload_origin.x": ("origin", "dense", 0),
        "dense_payload_origin.leaf_side": ("origin", "dense", 3),
        "quadtree.origin_x": ("key", "outlier", 0),
        "quadtree.origin_y": ("key", "outlier", 1),
        "quadtree.leaf_side": ("key", "outlier", 2),
        "sparse.r_max": ("key", "group", 0),
        "sparse_delta.r_max": ("delta", "group", 0),
    }

    @pytest.fixture(scope="class")
    def frames(self):
        from repro.core.temporal import TemporalContext
        from repro.datasets import SensorModel
        from repro.datasets.trajectories import generate_sequence, straight

        sensor = SensorModel.benchmark_default().scaled(0.3)
        clouds = generate_sequence("kitti-road", straight(2), sensor=sensor, seed=1)
        compressor = DBGCCompressor(DBGCParams(temporal=True), sensor=sensor)
        context = TemporalContext()
        return [compressor.compress_temporal(c, context).payload for c in clouds]

    @staticmethod
    def _section_starts(data: bytes) -> dict[str, int]:
        """Byte offsets of the dense, first group and outlier sections."""
        from repro.core.container import _FIXED, _V3_EXT
        from repro.entropy.varint import decode_uvarint

        pos = 7 + _FIXED.size + (_V3_EXT.size if data[4] == 3 else 0)
        starts = {}
        size, pos = decode_uvarint(data, pos)
        starts["dense"], pos = pos, pos + size
        n_groups, pos = decode_uvarint(data, pos)
        for _ in range(n_groups):
            size, pos = decode_uvarint(data, pos)
            starts.setdefault("group", pos)
            pos += size
        _size, starts["outlier"] = decode_uvarint(data, pos)
        return starts

    @classmethod
    def _offset(cls, data: bytes, section: str, index: int) -> int:
        """Byte offset of the ``index``-th header f64 of ``section``."""
        from repro.core.container import _FIXED
        from repro.entropy.varint import decode_uvarint

        if section == "container":
            return 7 + 8 * index
        if section == "ego":
            return 7 + _FIXED.size + 4 + 8 * index
        pos = cls._section_starts(data)[section]
        if section == "outlier":
            _n, pos = decode_uvarint(data, pos + 1)  # outlier mode byte
            _tree_size, pos = decode_uvarint(data, pos)
        elif data[4] == 3:
            pos += 1  # component mode byte
        _n, pos = decode_uvarint(data, pos)
        if section == "group":
            _n_lines, pos = decode_uvarint(data, pos)
        return pos + 8 * index

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", list(FIELDS))
    def test_rejected_with_value_error(self, frames, field, value):
        from repro.core.temporal import TemporalDecoder, dense_payload_origin

        keyframe, delta = frames
        frame, section, index = self.FIELDS[field]
        original = delta if frame == "delta" else keyframe
        data = bytearray(original)
        struct.pack_into("<d", data, self._offset(original, section, index), value)
        decoder = TemporalDecoder()
        with pytest.raises(ValueError):
            if frame == "origin":
                dense_payload_origin(bytes(data[self._section_starts(keyframe)["dense"] :]))
            else:
                if frame == "delta":
                    decoder.decode(keyframe)
                decoder.decode(bytes(data))
