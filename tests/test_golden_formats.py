"""Golden-payload compatibility tests for container formats v1, v2 and v3.

``tests/golden/`` holds committed payloads produced by the v1 (seed) and
v2 encoders on a deterministic analytic scene, plus the exact decoder
output at the time they were recorded.  The v3 golden is a temporal
drive over the same scene: the v2 frame as its keyframe, then four delta
frames (``v3_drive_K.dbgc``) of the scene shifted by a fixed ego step,
so occupancy models persist across deltas.  These pin two promises:

* **Decoder compatibility** — today's decoder reads old payloads
  bit-identically; a v3-capable reader changes nothing about v1/v2.
* **Encoder stability** — re-encoding the same input with default
  parameters reproduces the committed payloads byte-for-byte, so a
  format change can never slip in silently.

The original cloud is regenerated analytically (not loaded) so the test
also guards the recipe that would be needed to re-record the goldens.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.core import DBGCDecompressor, DBGCParams
from repro.core.container import unpack_container
from repro.core.pipeline import DBGCCompressor
from repro.core.temporal import MODE_DELTA, TemporalContext, TemporalDecoder
from repro.datasets import SensorModel
from repro.geometry import PointCloud

GOLDEN = Path(__file__).parent / "golden"

#: Sensor translation per frame of the v3 golden drive (meters).
EGO_STEP = (0.35, 0.05, 0.0)
#: Delta frames recorded after the keyframe.
V3_DELTAS = 4


def golden_cloud() -> tuple[np.ndarray, np.ndarray]:
    """The analytic scene the goldens were recorded from (seeded, exact)."""
    rng = np.random.default_rng(42)
    wall = np.stack(
        [
            4.0 + rng.normal(0.0, 0.004, 900),
            np.tile(np.linspace(-1.5, 1.5, 30), 30),
            np.repeat(np.linspace(-0.9, 0.9, 30), 30),
        ],
        axis=1,
    )
    th = np.linspace(0.0, 2.0 * np.pi, 700, endpoint=False)
    rings = []
    for r, z in ((12.0, -1.2), (18.0, -1.0), (25.0, -0.8)):
        rr = r + rng.normal(0.0, 0.02, 700)
        rings.append(
            np.stack(
                [rr * np.cos(th), rr * np.sin(th), z + rng.normal(0.0, 0.01, 700)],
                axis=1,
            )
        )
    outliers = rng.uniform(-60.0, 60.0, (40, 3))
    outliers[:, 2] = rng.uniform(-2.0, 6.0, 40)
    xyz = np.vstack([wall] + rings + [outliers])
    intensity = rng.random(len(xyz)) * 0.9
    return xyz, intensity


@pytest.mark.parametrize("version", [1, 2])
class TestGoldenDecode:
    def test_version_byte(self, version):
        blob = (GOLDEN / f"v{version}_frame.dbgc").read_bytes()
        assert blob[4] == version

    def test_decodes_bit_identically(self, version):
        blob = (GOLDEN / f"v{version}_frame.dbgc").read_bytes()
        expected = np.load(GOLDEN / f"v{version}_frame_expected.npz")
        cloud, attrs = DBGCDecompressor().decompress_with_attributes(blob)
        assert np.array_equal(cloud.xyz, expected["decoded"])
        assert np.array_equal(attrs["intensity"], expected["intensity"])

    def test_temporal_decoder_reads_intra_unchanged(self, version):
        # The stateful v3-capable reader must treat v1/v2 payloads exactly
        # like the stateless decompressor (they are keyframes).
        blob = (GOLDEN / f"v{version}_frame.dbgc").read_bytes()
        expected = np.load(GOLDEN / f"v{version}_frame_expected.npz")
        cloud = TemporalDecoder().decode(blob)
        assert np.array_equal(cloud.xyz, expected["decoded"])

    def test_recorded_decode_satisfies_error_contract(self, version):
        # The golden isn't just self-consistent: every original point has
        # a reconstruction within the quantization bound, so the committed
        # payload demonstrably honors the codec's error contract.
        expected = np.load(GOLDEN / f"v{version}_frame_expected.npz")
        original = expected["original"]
        decoded = expected["decoded"]
        assert original.shape == decoded.shape
        bound = np.sqrt(3.0) * DBGCParams().q_xyz * 1.0001
        worst = 0.0
        for start in range(0, len(original), 256):
            chunk = original[start : start + 256]
            d2 = ((chunk[:, None, :] - decoded[None, :, :]) ** 2).sum(axis=2)
            worst = max(worst, float(np.sqrt(d2.min(axis=1)).max()))
        assert worst <= bound


class TestGoldenEncode:
    def test_recipe_matches_recorded_original(self):
        xyz, _ = golden_cloud()
        expected = np.load(GOLDEN / "v2_frame_expected.npz")
        assert np.array_equal(xyz, expected["original"])

    def test_v2_reencode_is_byte_stable(self):
        xyz, intensity = golden_cloud()
        compressor = DBGCCompressor(
            DBGCParams(), sensor=SensorModel.benchmark_default().scaled(0.5)
        )
        blob = compressor.compress(
            PointCloud(xyz), attributes={"intensity": intensity}
        )
        assert blob == (GOLDEN / "v2_frame.dbgc").read_bytes()


def golden_drive():
    """``(clouds, ego deltas)`` of the v3 golden drive: the golden scene
    seen from a sensor moving by :data:`EGO_STEP` each frame."""
    xyz, _ = golden_cloud()
    step = np.asarray(EGO_STEP)
    clouds = [PointCloud(xyz - k * step) for k in range(V3_DELTAS + 1)]
    return clouds, [(0.0, 0.0, 0.0)] + [EGO_STEP] * V3_DELTAS


def _v3_blobs() -> list[bytes]:
    return [(GOLDEN / "v2_frame.dbgc").read_bytes()] + [
        (GOLDEN / f"v3_drive_{k}.dbgc").read_bytes() for k in range(1, V3_DELTAS + 1)
    ]


class TestGoldenTemporal:
    def test_deltas_are_v3_with_delta_dense(self):
        for blob in _v3_blobs()[1:]:
            assert blob[4] == 3
            _header, dense, *_ = unpack_container(blob)
            assert dense[0] == MODE_DELTA

    def test_decodes_bit_identically(self):
        expected = np.load(GOLDEN / "v3_drive_expected.npz")
        decoder = TemporalDecoder()
        for k, blob in enumerate(_v3_blobs()):
            cloud, attrs = decoder.decode_with_attributes(blob)
            if k:
                assert np.array_equal(cloud.xyz, expected[f"decoded_{k}"])
                assert np.array_equal(attrs["intensity"], expected[f"intensity_{k}"])

    def test_reencode_is_byte_stable(self):
        _, intensity = golden_cloud()
        compressor = DBGCCompressor(
            DBGCParams(temporal=True),
            sensor=SensorModel.benchmark_default().scaled(0.5),
        )
        context = TemporalContext()
        clouds, egos = golden_drive()
        blobs = [
            compressor.compress_temporal(
                cloud, context, ego_delta=ego, attributes={"intensity": intensity}
            ).payload
            for cloud, ego in zip(clouds, egos)
        ]
        assert blobs == _v3_blobs()
