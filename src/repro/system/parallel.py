"""Parallel frame compression.

The paper's throughput argument (Section 4.4) assumes the compressor keeps
up with the sensor's 10 fps.  A pure-Python DBGC frame takes ~1 s, so a
single process cannot; frames are independent, though, so a process pool
restores online throughput on multi-core clients.  This is a deployment
aid, not a change to the scheme: payloads are byte-identical to the serial
compressor's.

The pool machinery — worker processes seeded via module-level state, the
bounded in-flight window, ordered streaming — lives in
:class:`~repro.system.pool.StickyWorkerPool`, shared with the server's
decode offload tier.  Frames here carry no cross-frame state, so
submissions round-robin across the slots instead of using sticky keys.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from repro.core.attributes import DEFAULT_ATTRIBUTE_STEP
from repro.core.params import DBGCParams
from repro.core.pipeline import DBGCCompressor
from repro.datasets.sensors import SensorModel
from repro.geometry.points import PointCloud
from repro.system.pool import StickyWorkerPool

__all__ = ["ParallelFrameCompressor"]

#: A work item: a bare frame, or a frame with its per-point attributes.
Frame = PointCloud | tuple[PointCloud, dict[str, np.ndarray]]

# Module-level worker state: built once per worker process.
_WORKER_COMPRESSOR: DBGCCompressor | None = None


def _init_worker(params: DBGCParams, sensor: SensorModel) -> None:
    global _WORKER_COMPRESSOR
    _WORKER_COMPRESSOR = DBGCCompressor(params, sensor=sensor)


def _compress_one(xyz, attributes, attribute_steps) -> bytes:
    assert _WORKER_COMPRESSOR is not None, "worker not initialized"
    return _WORKER_COMPRESSOR.compress(
        PointCloud(xyz), attributes, attribute_steps
    )


class ParallelFrameCompressor:
    """Compress independent frames across a process pool.

    Use as a context manager::

        with ParallelFrameCompressor(params, workers=4) as pool:
            for payload in pool.compress_stream(frames):
                ship(payload)

    Results come back in input order.  Worker processes each hold one
    :class:`DBGCCompressor`, so per-frame overhead is pickling the
    coordinate array in and the payload out.

    ``compress_stream`` pulls frames *lazily*: at most ``2 * workers``
    frames are in flight or buffered at any moment, so an unbounded
    source — a live sensor feed — streams in constant memory instead of
    being drained upfront.  A consumer that stops early (``close()`` on
    the generator, ``break`` plus garbage collection, an exception)
    cancels every not-yet-running frame, so a dropped iterator does not
    leave workers grinding on payloads nobody will read.
    """

    def __init__(
        self,
        params: DBGCParams | None = None,
        sensor: SensorModel | None = None,
        workers: int = 2,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.params = params if params is not None else DBGCParams()
        self.sensor = sensor if sensor is not None else SensorModel.benchmark_default()
        self.workers = workers
        self._pool: StickyWorkerPool | None = None

    def __enter__(self) -> "ParallelFrameCompressor":
        self._pool = StickyWorkerPool(
            self.workers,
            initializer=_init_worker,
            initargs=(self.params, self.sensor),
        )
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    @property
    def in_flight(self) -> int:
        """Frames submitted but not yet finished (0 when idle or closed)."""
        return self._pool.depth() if self._pool is not None else 0

    def compress_stream(
        self,
        frames: Iterable[Frame],
        attribute_steps: dict[str, float] | float = DEFAULT_ATTRIBUTE_STEP,
    ) -> Iterator[bytes]:
        """Yield payloads in frame order, compressing up to ``workers`` at once.

        Each frame is a :class:`PointCloud` or a ``(cloud, attributes)``
        pair; attributes are forwarded to the per-worker compressor, so
        payloads match the serial :meth:`DBGCCompressor.compress` exactly.
        """
        if self._pool is None:
            raise RuntimeError("use ParallelFrameCompressor as a context manager")

        def as_args(item: Frame) -> tuple:
            if isinstance(item, tuple):
                frame, attributes = item
            else:
                frame, attributes = item, None
            return frame.xyz, attributes, attribute_steps

        return self._pool.map_stream(
            _compress_one,
            (as_args(item) for item in frames),
            window=2 * self.workers,
        )

    def compress_all(
        self,
        frames: Iterable[Frame],
        attribute_steps: dict[str, float] | float = DEFAULT_ATTRIBUTE_STEP,
    ) -> list[bytes]:
        """Compress a frame list and return all payloads (input order)."""
        return list(self.compress_stream(frames, attribute_steps))
