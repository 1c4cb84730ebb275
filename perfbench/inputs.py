"""Seeded workload inputs.  The same seed always gives the same inputs.

The program only ever sees what these functions return; the seed itself
never reaches it.
"""

from __future__ import annotations

import struct

import numpy as np

#: Client ``c`` of the depot fleet sends frame indices ``c * INDEX_STRIDE
#: + i``.  The stores key frames by index alone (not by stream), so two
#: clients must not share an index; this mirrors ``FleetSpec``'s stride.
INDEX_STRIDE = 1_000_000

#: Depot payload sizes are log-uniform over this range (bytes): the span
#: of real DBGC frames from 0.3-scale to full HDL-64E resolution.
DEPOT_MIN_BYTES = 2_000
DEPOT_MAX_BYTES = 80_000

#: Uplink drive: frame scale of the bench-default (half-resolution)
#: sensor.
UPLINK_SCALE = 0.3

#: Scene layouts are the fig9 ones (layout seed 0) and the sensor unit's
#: calibration is fixed on every run; the run seed moves the sensor (up
#: to this many metres) and redraws its per-ray noise.  The frames differ from seed to seed
#: while the work per frame stays comparable, so the run-to-run spread
#: measures the program rather than the scene generator.
LAYOUT_SEED = 0
CALIBRATION_SEED = 0
MAX_OFFSET_M = 1.0


def _scene_and_offset(name: str, seed: int):
    from repro.datasets.frames import SCENE_BUILDERS

    offset = np.random.default_rng([seed, 7]).uniform(-MAX_OFFSET_M, MAX_OFFSET_M, 2)
    return SCENE_BUILDERS[name](LAYOUT_SEED), offset


def archive_frames(seed: int):
    """One full-resolution HDL-64E frame of each of the six fig9 scenes."""
    from repro.datasets.frames import SCENE_BUILDERS
    from repro.datasets.sensors import SensorModel
    from repro.datasets.simulator import simulate_frame

    sensor = SensorModel.velodyne_hdl64e()
    frames = []
    for name in SCENE_BUILDERS:
        scene, (dx, dy) = _scene_and_offset(name, seed)
        cloud = simulate_frame(
            scene, sensor, seed=seed, sensor_xy=(dx, dy), calibration_seed=CALIBRATION_SEED
        )
        frames.append((name, cloud.xyz))
    return frames


def warmup_frame(seed: int) -> np.ndarray:
    """A small frame for the codec's warm-up call."""
    from repro.datasets.sensors import SensorModel
    from repro.datasets.simulator import simulate_frame

    scene, _ = _scene_and_offset("kitti-city", seed)
    return simulate_frame(scene, SensorModel.velodyne_hdl64e().scaled(0.1), seed=seed).xyz


def uplink_drive(seed: int, n_frames: int):
    """``(sensor, frames, ego_deltas)`` of a straight ``kitti-road`` drive.

    Like :func:`repro.datasets.trajectories.generate_sequence`: one
    calibration for the whole drive, fresh noise per frame.
    """
    from repro.datasets.sensors import SensorModel
    from repro.datasets.simulator import simulate_frame
    from repro.datasets.trajectories import straight

    sensor = SensorModel.benchmark_default().scaled(UPLINK_SCALE)
    scene, (dx, dy) = _scene_and_offset("kitti-road", seed)
    trajectory = straight(n_frames)
    frames = [
        simulate_frame(
            scene, sensor, seed=seed * 100003 + i,
            sensor_xy=(trajectory[i][0] + dx, trajectory[i][1] + dy),
            calibration_seed=CALIBRATION_SEED,
        )
        for i in range(n_frames)
    ]
    egos = [(0.0, 0.0, 0.0)] + [
        (trajectory[i][0] - trajectory[i - 1][0], trajectory[i][1] - trajectory[i - 1][1], 0.0)
        for i in range(1, n_frames)
    ]
    return sensor, frames, egos


def depot_payloads(seed: int, round_no: int, client: int, n_frames: int) -> list[bytes]:
    """Client ``client``'s payloads for back-fill round ``round_no``.

    Each payload starts with its own ``(round, client, frame)`` so no two
    are equal, followed by seeded random bytes (incompressible, like
    entropy-coded frames) of a log-uniform length.
    """
    rng = np.random.default_rng([seed, round_no, client])
    pool = rng.bytes(1 << 20)
    sizes = np.exp(
        rng.uniform(np.log(DEPOT_MIN_BYTES), np.log(DEPOT_MAX_BYTES), n_frames)
    ).astype(np.int64)
    offsets = rng.integers(0, len(pool) - DEPOT_MAX_BYTES, n_frames)
    head = struct.Struct("<III")
    return [
        head.pack(round_no, client, i) + pool[off : off + size - head.size]
        for i, (off, size) in enumerate(zip(offsets.tolist(), sizes.tolist()))
    ]
