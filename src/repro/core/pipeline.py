"""End-to-end DBGC compression and decompression (paper Section 3).

:class:`DBGCCompressor` chains the six client-side components of Figure 2:
density-based clustering (DEN), octree compression of the dense points
(OCT), coordinate conversion (COR), point organization (ORG), coordinate
compression of the sparse points (SPA), and outlier compression (OUT).
:class:`DBGCDecompressor` reverses the three streams and reassembles the
cloud; the container header makes it self-contained.

The decompressed point order is canonical — dense points in octree Morton
order, then each group's polyline points, then the outliers — and
:attr:`CompressionResult.mapping` gives the original-index -> decoded-index
permutation, recomputable at compression time without costing stream bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.attributes import (
    DEFAULT_ATTRIBUTE_STEP,
    decode_attributes,
    encode_attributes,
)
from repro.core.clustering import cluster_approx, cluster_exact, split_by_fraction
from repro.core.container import pack_container, unpack_container
from repro.core.grouping import split_into_groups
from repro.core.outlier import decode_outliers, encode_outliers
from repro.core.params import DBGCParams
from repro.core.sparse_codec import decode_sparse_group, encode_sparse_group
from repro.datasets.sensors import SensorModel
from repro.geometry.points import PointCloud
from repro.octree.codec import OctreeCodec

__all__ = ["CompressionResult", "DBGCCompressor", "DBGCDecompressor"]

@dataclass
class CompressionResult:
    """Everything the evaluation needs about one compression run."""

    payload: bytes
    n_points: int
    n_dense: int
    n_sparse: int
    n_outliers: int
    #: Original-index -> decoded-index permutation.
    mapping: np.ndarray
    #: Stage wall-clock seconds: den, oct, cor, org, spa, out (Figure 13).
    #: Derived from the observability span tree (see docs/OBSERVABILITY.md).
    timings: dict[str, float] = field(default_factory=dict)
    #: Component byte sizes: dense, sparse, outlier, plus per-stream detail.
    stream_sizes: dict[str, int] = field(default_factory=dict)

    @property
    def size(self) -> int:
        return len(self.payload)

    def compression_ratio(self, bits_per_coordinate: int = 32) -> float:
        """Raw size / |B| with the paper's 12-bytes-per-point accounting."""
        raw = self.n_points * 3 * bits_per_coordinate / 8
        return raw / len(self.payload) if self.payload else float("inf")


class DBGCCompressor:
    """The DBGC client-side compression scheme.

    Parameters
    ----------
    params:
        Scheme parameters (defaults are the paper's).
    sensor:
        Sensor whose metadata supplies the angular steps ``u_theta`` and
        ``u_phi`` (Section 3.3).  Defaults to the benchmark HDL-64E model.
    u_theta, u_phi:
        Explicit angular steps; override the sensor metadata when given.
    """

    def __init__(
        self,
        params: DBGCParams | None = None,
        sensor: SensorModel | None = None,
        u_theta: float | None = None,
        u_phi: float | None = None,
    ) -> None:
        self.params = params if params is not None else DBGCParams()
        if sensor is None:
            sensor = SensorModel.benchmark_default()
        self.sensor = sensor
        self.u_theta = float(u_theta) if u_theta is not None else sensor.u_theta
        self.u_phi = float(u_phi) if u_phi is not None else sensor.u_phi

    # -- clustering ----------------------------------------------------------------

    @property
    def min_pts(self) -> int:
        """The clustering threshold, resolved against the sensor metadata."""
        return self.params.min_pts_for_sensor(self.u_theta, self.u_phi)

    def _classify(self, xyz: np.ndarray) -> np.ndarray:
        params = self.params
        if params.dense_fraction is not None:
            return split_by_fraction(xyz, params.dense_fraction)
        if params.clustering == "none":
            return np.zeros(len(xyz), dtype=bool)
        if params.clustering == "all-dense":
            return np.ones(len(xyz), dtype=bool)
        if params.clustering == "exact":
            return cluster_exact(xyz, params.eps, self.min_pts, params.leaf_side)
        return cluster_approx(xyz, params.eps, self.min_pts)

    # -- API -------------------------------------------------------------------------

    def compress(
        self,
        cloud: PointCloud,
        attributes: dict[str, np.ndarray] | None = None,
        attribute_steps: dict[str, float] | float = DEFAULT_ATTRIBUTE_STEP,
    ) -> bytes:
        """Compress a point cloud into the final bit sequence B.

        ``attributes`` optionally carries named per-point scalars (e.g.
        intensity) which are quantized by ``attribute_steps`` and appended
        to the stream in decoded point order.
        """
        return self.compress_detailed(cloud, attributes, attribute_steps).payload

    def compress_temporal(
        self,
        cloud: PointCloud,
        context,
        ego_delta=(0.0, 0.0, 0.0),
        attributes: dict[str, np.ndarray] | None = None,
        attribute_steps: dict[str, float] | float = DEFAULT_ATTRIBUTE_STEP,
    ) -> CompressionResult:
        """Compress one frame of a temporal stream against ``context``.

        ``context`` is a :class:`repro.core.temporal.TemporalContext`
        advanced across calls.  Frame ``i`` is an intra keyframe when
        ``i % keyframe_interval == 0`` (or whenever the context has no
        predictor state yet); other frames are format-v3 delta frames
        coded against the previous frame's decoded geometry.
        ``ego_delta`` is the sensor translation since the previous frame
        (meters); ``(0, 0, 0)`` disables motion compensation but stays
        correct.
        """
        from repro.core import temporal

        keyframe = (
            not context.has_state
            or context.frames_coded % self.params.keyframe_interval == 0
        )
        if keyframe:
            result = self.compress_detailed(cloud, attributes, attribute_steps)
            temporal.observe_intra(context, result.payload)
            return result
        return temporal.compress_delta(
            self, cloud, context, ego_delta, attributes, attribute_steps
        )

    def compress_detailed(
        self,
        cloud: PointCloud,
        attributes: dict[str, np.ndarray] | None = None,
        attribute_steps: dict[str, float] | float = DEFAULT_ATTRIBUTE_STEP,
    ) -> CompressionResult:
        """Compress and report sizes, timings and the point correspondence.

        Stage timings come from the observability span tree: inside an
        :func:`repro.observability.recording` block the spans join the
        process-global report; otherwise a thread-scoped recorder backs
        just this call.  ``timings``/``stream_sizes`` are the span-tree
        query results either way, so the Figure 13 breakdown and the
        ``--metrics`` report can never disagree.
        """
        params = self.params
        xyz = cloud.xyz
        n = len(xyz)
        sizes: dict[str, int] = {}

        with obs.ensure_recorder() as recorder, recorder.span("dbgc.compress") as root:
            recorder.count("compress.frames")
            recorder.count("compress.points_in", n)

            with recorder.span("dbgc.den"):
                dense_mask = self._classify(xyz)

            dense_idx = np.flatnonzero(dense_mask)
            sparse_idx = np.flatnonzero(~dense_mask)
            recorder.count("compress.points_dense", len(dense_idx))

            # Radial grouping of sparse points (Section 3.5, Point Grouping).
            radii = np.linalg.norm(xyz[sparse_idx], axis=1) if len(sparse_idx) else None
            groups = (
                split_into_groups(radii, params.effective_n_groups)
                if len(sparse_idx)
                else []
            )
            group_globals = [sparse_idx[g] for g in groups]

            with recorder.span("dbgc.oct"):
                octree = OctreeCodec(params.leaf_side, backend=params.entropy_backend)
                dense_payload = octree.encode(xyz[dense_idx])
                octree_mapping = (
                    octree.mapping(xyz[dense_idx]) if len(dense_idx) else None
                )
            encodings = [
                encode_sparse_group(xyz[gg], params, self.u_theta, self.u_phi)
                for gg in group_globals
            ]

            mapping = np.empty(n, dtype=np.int64)
            if octree_mapping is not None:
                mapping[dense_idx] = octree_mapping
            sizes["dense"] = len(dense_payload)
            recorder.add_bytes("stream.dense", len(dense_payload))

            outlier_global = [
                gg[enc.outlier_indices]
                for gg, enc in zip(group_globals, encodings)
                if len(enc.outlier_indices)
            ]
            outliers = (
                np.concatenate(outlier_global)
                if outlier_global
                else np.empty(0, dtype=np.int64)
            )

            group_payloads: list[bytes] = []
            offset = len(dense_idx)
            n_sparse_coded = 0
            for group_global, encoding in zip(group_globals, encodings):
                group_payloads.append(encoding.payload)
                for name, size in encoding.stream_sizes.items():
                    sizes[name] = sizes.get(name, 0) + size
                ordered_global = group_global[encoding.order]
                mapping[ordered_global] = offset + np.arange(len(ordered_global))
                offset += len(ordered_global)
                n_sparse_coded += len(ordered_global)
            sizes["sparse"] = sum(len(p) for p in group_payloads)
            recorder.add_bytes("stream.sparse", sizes["sparse"])
            recorder.count("compress.points_sparse", n_sparse_coded)

            with recorder.span("dbgc.out"):
                outlier_payload, outlier_mapping = encode_outliers(xyz[outliers], params)
            if len(outliers):
                mapping[outliers] = offset + outlier_mapping
            sizes["outlier"] = len(outlier_payload)
            recorder.add_bytes("stream.outlier", len(outlier_payload))
            recorder.count("compress.points_outlier", len(outliers))

            attribute_payload = b""
            if attributes:
                with recorder.span("dbgc.attr"):
                    attribute_payload = encode_attributes(
                        attributes, mapping, attribute_steps, backend=params.entropy_backend
                    )
                sizes["attributes"] = len(attribute_payload)
                recorder.add_bytes("stream.attributes", len(attribute_payload))

            payload = pack_container(
                params,
                self.u_theta,
                self.u_phi,
                dense_payload,
                group_payloads,
                outlier_payload,
                attribute_payload,
            )
            recorder.count("compress.payload_bytes", len(payload))

        # The Figure 13 stage breakdown is a query over the span tree.
        timings = {
            "den": root.total("dbgc.den"),
            "oct": root.total("dbgc.oct"),
            "cor": root.total("sparse.cor"),
            "org": root.total("sparse.org"),
            "spa": root.total("sparse.spa"),
            "out": root.total("dbgc.out"),
        }
        recorder.observe("compress.seconds", root.duration)
        return CompressionResult(
            payload=payload,
            n_points=n,
            n_dense=len(dense_idx),
            n_sparse=n_sparse_coded,
            n_outliers=len(outliers),
            mapping=mapping,
            timings=timings,
            stream_sizes=sizes,
        )


class DBGCDecompressor:
    """The DBGC server-side decompression scheme (self-contained)."""

    def decompress(self, data: bytes) -> PointCloud:
        """Decompress B into the canonical-order point cloud."""
        cloud, _ = self.decompress_detailed(data)
        return cloud

    def decompress_with_attributes(
        self, data: bytes
    ) -> tuple[PointCloud, dict[str, np.ndarray]]:
        """Decompress geometry plus the attribute block (decoded order)."""
        cloud, _ = self.decompress_detailed(data)
        header, _, _, _, attribute_payload = unpack_container(data)
        return cloud, decode_attributes(attribute_payload, version=header.version)

    def decompress_detailed(self, data: bytes) -> tuple[PointCloud, dict[str, float]]:
        """Decompress and report per-component wall-clock times.

        Like :meth:`DBGCCompressor.compress_detailed`, the timings are a
        query over the observability span tree.
        """
        with obs.ensure_recorder() as recorder, recorder.span("dbgc.decompress") as root:
            recorder.count("decompress.frames")
            header, dense_payload, group_payloads, outlier_payload, _ = unpack_container(
                data
            )
            if header.is_delta:
                raise ValueError(
                    "cannot decompress a delta frame (format v3) standalone; "
                    "feed the stream through repro.core.temporal.TemporalDecoder"
                )
            params = header.to_params()
            version = header.version

            with recorder.span("dbgc.oct"):
                dense = OctreeCodec(params.leaf_side).decode(
                    dense_payload, version=version
                )

            with recorder.span("dbgc.spa"):
                chunks = [dense]
                for payload in group_payloads:
                    chunks.append(
                        decode_sparse_group(
                            payload, params, header.u_theta, header.u_phi,
                            version=version,
                        )
                    )

            with recorder.span("dbgc.out"):
                chunks.append(decode_outliers(outlier_payload, params, version=version))
            cloud = PointCloud(np.vstack(chunks))
            recorder.count("decompress.points_out", len(cloud))

        timings = {
            "oct": root.total("dbgc.oct"),
            "spa": root.total("dbgc.spa"),
            "out": root.total("dbgc.out"),
        }
        recorder.observe("decompress.seconds", root.duration)
        return cloud, timings
