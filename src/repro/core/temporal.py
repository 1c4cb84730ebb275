"""Inter-frame temporal (delta) coding — container format v3.

LiDAR frames along a trajectory are highly redundant: most of the scene
geometry of frame ``i`` is already present — shifted by the ego motion —
in frame ``i - 1``.  This module exploits that redundancy for *stream*
compression while keeping every frame's per-point error bound and the
byte-exact round-trip guarantee of the intra codec:

* **Dense (octree) delta coding.**  Delta frames quantize the dense set on
  a grid whose origin is *chain-snapped* to the previous frame's grid
  (``origin = prev + floor((lo - prev) / leaf) * leaf``) so predictor
  cells and current cells align.  The occupancy bytes are then coded
  bit-by-bit with adaptive binary models conditioned on three predictors
  derived from the previous decoded cloud: its exact occupancy (**E**),
  a radially dilated version (**D**, absorbing the half-leaf jitter of
  re-quantization), and an ego-motion-compensated dilated version
  (**M**).  Models persist across delta frames and reset at keyframes.
  They are two flat count lists over :data:`N_OCC_CONTEXTS` context ids;
  numpy derives every bit's context per tree level and one fused
  binary-context kernel (:mod:`repro.entropy.arithmetic`) codes the
  stream.  A decoded level with more nodes than the frame has leaves is
  rejected, which bounds the cost of a corrupt payload.

* **Sparse radial (d3) delta coding.**  For each polyline point the
  previous frame's decoded sparse points are matched by quantized ray
  ``(theta, phi)`` — raw and motion-compensated — giving two radial
  predictions in addition to the stream-order baseline (the previous
  ``d3``).  Where the candidates disagree by more than a few steps a
  2-bit selector names the best one; the residual stream replaces the
  intra pipeline's consensus-reference ``∇L_r`` / ``L_ref`` tail.  The
  ``theta`` / ``phi`` / length streams come from the intra encoder's own
  Steps 1–7 front (angle jitter is frame-independent and does not
  predict well).

Every component carries a leading mode byte.  The encoder codes each
component once and emits ``MODE_INTRA`` only where delta coding is not
applicable: a dense set with no predictor cloud or whose grid would
overflow, a group with no previous sparse points or no polyline points,
or the ``-Conversion`` ablation.  Outliers and attributes are always
intra-coded.

Encoder and decoder advance a shared :class:`TemporalContext` in
lockstep; a content CRC of the predictor cloud travels in the v3 header
(:data:`repro.core.container._V3_EXT`) so a decoder that lost state — a
restarted server — detects the mismatch instead of reconstructing wrong
geometry, and resynchronizes at the next keyframe.
"""

from __future__ import annotations

import functools
import struct
import zlib

import numpy as np

from repro.core.attributes import (
    DEFAULT_ATTRIBUTE_STEP,
    decode_attributes,
    encode_attributes,
)
from repro.core.container import (
    container_version,
    pack_container_v3,
    unpack_container,
)
from repro.core.outlier import decode_outliers, encode_outliers
from repro.core.params import DBGCParams
from repro.core.sparse_codec import (
    _Polylines,
    _decode_front,
    _encode_group,
    _quantize,
    _radial_tail,
    _read_stream,
    decode_sparse_group,
)
from repro.entropy.arithmetic import binary_context_decoder, binary_context_encode
from repro.entropy.backend import (
    EntropyBackend,
    decode_tagged_ints,
    decode_tagged_symbols,
    encode_tagged_ints,
    encode_tagged_symbols,
)
from repro.entropy.varint import decode_uvarint, encode_uvarint, require_finite
from repro.geometry.points import PointCloud
from repro.geometry.spherical import cartesian_to_spherical
from repro.octree.codec import OctreeCodec
from repro.octree.morton import MAX_DEPTH_3D, deinterleave3, interleave3
from repro.octree.octree import build_octree_structure, expand_occupancy_level

__all__ = [
    "KEYFRAME_MAX_VERSION",
    "MODE_INTRA",
    "MODE_DELTA",
    "TemporalContext",
    "TemporalDecoder",
    "compress_delta",
    "decompress_delta",
    "observe_intra",
    "dense_payload_origin",
]

#: Component mode bytes inside a v3 container.
MODE_INTRA = 0
MODE_DELTA = 1

#: Highest container version that is a self-contained (key)frame; anything
#: above is a delta frame that needs its predecessor's decoded state.
KEYFRAME_MAX_VERSION = 2

#: Adaptivity of the binary occupancy-bit models (faster than the intra
#: byte model's 32 because each context sees far fewer symbols).
_OCC_INCREMENT = 24
#: Tree levels with their own contexts; deeper levels share the last.
_OCC_LEVELS = 7
#: Occupancy-bit context ids, most significant field first: level (7),
#: E, D and M predictor bits (2 each), bit position (8), dilated
#: popcount capped at 3 (4), popcount of the byte's decoded bits so far
#: capped at 2 (3).
N_OCC_CONTEXTS = _OCC_LEVELS * 2 * 2 * 2 * 8 * 4 * 3
_BIT = np.arange(8)
#: ``[byte, b] -> (byte >> b) & 1``.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)
#: ``min(popcount(byte), 3)``.
_DPOP = np.minimum(_BYTE_BITS.sum(axis=1), 3)
#: ``[byte, b] -> min(popcount(byte & ((1 << b) - 1)), 2)``.
_PREFIX_POP = np.minimum(np.cumsum(_BYTE_BITS, axis=1) - _BYTE_BITS, 2)
#: Candidate spread (in radial quantization steps) above which a selector
#: symbol is spent instead of trusting the motion-compensated match.
_SPREAD_FLAG = 4
#: Same ``(origin, leaf_side)`` header as the intra octree payload.
_DENSE_HEADER = struct.Struct("<4d")


# -- predictor state ---------------------------------------------------------------


class TemporalContext:
    """Predictor state advanced in lockstep by encoder and decoder.

    Holds the previous frame's *decoded* geometry (so both sides agree
    bit-for-bit), the dense grid origin the chain is snapped to, and the
    persistent occupancy-bit models.  ``reset()`` / keyframes clear the
    entropy models; the cloud itself is replaced every frame.
    """

    def __init__(self) -> None:
        self.frames_coded = 0
        self.prev_cloud: np.ndarray | None = None
        self.prev_sparse: np.ndarray | None = None
        self.prev_dense_origin: np.ndarray | None = None
        self.occ_models = _fresh_models()
        self._fingerprint: int | None = None

    @property
    def has_state(self) -> bool:
        return self.prev_cloud is not None

    def reset(self) -> None:
        self.frames_coded = 0
        self.prev_cloud = None
        self.prev_sparse = None
        self.prev_dense_origin = None
        self.occ_models = _fresh_models()
        self._fingerprint = None

    def fingerprint(self) -> int:
        """CRC-32 of the predictor cloud bytes (0 when no state).

        Content-only on purpose: a decoder that lost its state (server
        restart) rebuilds an identical fingerprint from the next keyframe
        onward, so recovery needs no side channel.
        """
        if self.prev_cloud is None:
            return 0
        if self._fingerprint is None:
            data = np.ascontiguousarray(self.prev_cloud, dtype=np.float64)
            self._fingerprint = zlib.crc32(data.tobytes()) & 0xFFFFFFFF
        return self._fingerprint

    def observe(
        self,
        dense: np.ndarray,
        groups: list[np.ndarray],
        outliers: np.ndarray,
        dense_origin: np.ndarray | None,
        keyframe: bool = False,
    ) -> None:
        """Record one decoded frame as the predictor for the next."""
        if keyframe:
            self.occ_models = _fresh_models()
        chunks = [np.asarray(c, dtype=np.float64).reshape(-1, 3) for c in groups]
        dense = np.asarray(dense, dtype=np.float64).reshape(-1, 3)
        outliers = np.asarray(outliers, dtype=np.float64).reshape(-1, 3)
        self.prev_sparse = (
            np.vstack(chunks) if chunks else np.empty((0, 3), dtype=np.float64)
        )
        self.prev_cloud = np.vstack([dense, self.prev_sparse, outliers])
        self.prev_dense_origin = (
            None
            if dense_origin is None
            else np.array(dense_origin, dtype=np.float64, copy=True)
        )
        self.frames_coded += 1
        self._fingerprint = None


#: Occupancy-bit models: per context id, the counts of 0 and of 1 bits
#: (each an ``AdaptiveModel(2, increment=_OCC_INCREMENT)``).
OccModels = tuple[list[int], list[int]]


def _fresh_models() -> OccModels:
    return [1] * N_OCC_CONTEXTS, [1] * N_OCC_CONTEXTS


# -- dense (octree occupancy) delta coding ----------------------------------------


def _level_maps(codes: np.ndarray, depth: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-level ``(sorted node codes, occupancy bytes)`` of a predictor set."""
    maps = []
    child = np.unique(codes)
    for _ in range(depth):
        parents, inverse = np.unique(child >> 3, return_inverse=True)
        occ = np.zeros(len(parents), dtype=np.int64)
        np.bitwise_or.at(occ, inverse, np.int64(1) << (child & 7))
        maps.append((parents, occ))
        child = parents
    maps.reverse()
    return maps


def _predict_level(
    nodes: np.ndarray, level_map: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """Predictor occupancy byte for each current node (0 where absent)."""
    codes, occ = level_map
    if len(codes) == 0:
        return np.zeros(len(nodes), dtype=np.int64)
    idx = np.minimum(np.searchsorted(codes, nodes), len(codes) - 1)
    return np.where(codes[idx] == nodes, occ[idx], 0)


def _grid_codes(
    points: np.ndarray, origin: np.ndarray, leaf_side: float, depth: int
) -> np.ndarray:
    """Morton codes of the predictor points that land inside the grid."""
    cells = np.floor((points - origin) / leaf_side).astype(np.int64)
    inside = np.all((cells >= 0) & (cells < (1 << depth)), axis=1)
    cells = cells[inside]
    return interleave3(cells[:, 0], cells[:, 1], cells[:, 2])


def _predictor_points(
    prev_cloud: np.ndarray, leaf_side: float, ego_delta
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact / dilated / motion-compensated predictor point sets."""
    radius = np.linalg.norm(prev_cloud, axis=1, keepdims=True)
    radius[radius == 0.0] = 1.0
    unit = prev_cloud / radius
    dilated = np.vstack(
        [prev_cloud, prev_cloud + leaf_side * unit, prev_cloud - leaf_side * unit]
    )
    moved = prev_cloud - np.asarray(ego_delta, dtype=np.float64)[None, :]
    mc_dilated = np.vstack([moved, moved + leaf_side * unit, moved - leaf_side * unit])
    return prev_cloud, dilated, mc_dilated


def _pred_maps(
    prev_cloud: np.ndarray,
    origin: np.ndarray,
    leaf_side: float,
    depth: int,
    ego_delta,
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    return [
        _level_maps(_grid_codes(points, origin, leaf_side, depth), depth)
        for points in _predictor_points(prev_cloud, leaf_side, ego_delta)
    ]


def _level_contexts(
    level: int, e: np.ndarray, d: np.ndarray, m: np.ndarray
) -> np.ndarray:
    """Context ids, less the prefix-popcount term, of each node's 8 bits.

    ``e``, ``d`` and ``m`` are the nodes' predictor occupancy bytes;
    returns an ``(n, 8)`` array, bit ``b`` in column ``b``.
    """
    ctx = min(level, _OCC_LEVELS - 1)
    for pred in (e, d, m):
        ctx = ctx * 2 + ((pred[:, None] >> _BIT) & 1)
    return ((ctx * 8 + _BIT) * 4 + _DPOP[d][:, None]) * 3


def _code_occupancy(
    occ: np.ndarray,
    pred_maps: list[list[tuple[np.ndarray, np.ndarray]]],
    depth: int,
    models: OccModels,
) -> bytes:
    """Context-code the occupancy stream; updates ``models`` in place."""
    contexts = []
    bits = []
    nodes = np.zeros(1, dtype=np.int64)
    offset = 0
    for level in range(depth):
        level_occ = occ[offset : offset + len(nodes)]
        e, d, m = (_predict_level(nodes, maps[level]) for maps in pred_maps)
        contexts.append(_level_contexts(level, e, d, m) + _PREFIX_POP[level_occ])
        bits.append(_BYTE_BITS[level_occ])
        offset += len(nodes)
        nodes = expand_occupancy_level(nodes, level_occ)
    return binary_context_encode(
        np.concatenate(contexts).ravel().tolist(),
        np.concatenate(bits).ravel().tolist(),
        *models,
        _OCC_INCREMENT,
    )


def _decode_occupancy(
    payload: bytes,
    pred_maps: list[list[tuple[np.ndarray, np.ndarray]]],
    depth: int,
    models: OccModels,
    max_nodes: int,
) -> np.ndarray:
    """Mirror of :func:`_code_occupancy`; returns the leaf Morton codes.

    Raises ``ValueError`` once a level holds more than ``max_nodes`` nodes,
    so a corrupt payload costs at most ``depth * max_nodes`` bytes' work.
    """
    decoder = binary_context_decoder(payload, *models, _OCC_INCREMENT)
    next(decoder)
    nodes = np.zeros(1, dtype=np.int64)
    for level in range(depth):
        e, d, m = (_predict_level(nodes, maps[level]) for maps in pred_maps)
        # One row of base ids per distinct predictor triple, shared by its
        # nodes: a row per node would hold 8 int objects for each.
        keys, inverse = np.unique((e << 16) | (d << 8) | m, return_inverse=True)
        rows = _level_contexts(level, keys >> 16, (keys >> 8) & 255, keys & 255).tolist()
        level_occ = decoder.send([rows[i] for i in inverse.tolist()])
        nodes = expand_occupancy_level(nodes, np.frombuffer(level_occ, dtype=np.uint8))
        if len(nodes) > max_nodes:
            raise ValueError("corrupt occupancy stream: more octree nodes than leaves")
    return nodes


def _leaf_points(
    leaf_codes: np.ndarray, counts: np.ndarray, origin: np.ndarray, leaf_side: float
) -> np.ndarray:
    """Leaf-center reconstruction (shared so both sides agree bitwise)."""
    ix, iy, iz = deinterleave3(leaf_codes)
    centers = np.column_stack(
        [
            origin[0] + (ix + 0.5) * leaf_side,
            origin[1] + (iy + 0.5) * leaf_side,
            origin[2] + (iz + 0.5) * leaf_side,
        ]
    )
    return np.repeat(centers, counts, axis=0)


def _dense_header(data: bytes, pos: int) -> tuple[np.ndarray, float, int]:
    """``(origin, leaf_side, next_pos)`` of a non-empty dense payload."""
    ox, oy, oz, leaf = _DENSE_HEADER.unpack_from(data, pos)
    require_finite("dense header", ox, oy, oz, positive=(leaf,))
    return np.array([ox, oy, oz], dtype=np.float64), leaf, pos + _DENSE_HEADER.size


def dense_payload_origin(dense_payload: bytes) -> np.ndarray | None:
    """Grid origin of a dense payload (intra and delta share the header)."""
    n_points, pos = decode_uvarint(dense_payload, 0)
    if n_points == 0:
        return None
    return _dense_header(dense_payload, pos)[0]


def _encode_dense_delta(
    xyz: np.ndarray, params: DBGCParams, context: TemporalContext, ego_delta
):
    """Delta-code the dense set on the chain-snapped grid.

    Returns ``(payload, per_point_codes, leaf_codes, leaf_counts, origin)``
    and advances ``context.occ_models``, or returns ``None`` (models
    untouched) when delta coding is not applicable: no points, no
    predictor cloud, or a grid deeper than the Morton codes hold.
    """
    if len(xyz) == 0 or context.prev_cloud is None or len(context.prev_cloud) == 0:
        return None
    leaf = params.leaf_side
    lo = xyz.min(axis=0)
    prev_origin = context.prev_dense_origin
    if prev_origin is None:
        origin = lo
    else:
        origin = prev_origin + np.floor((lo - prev_origin) / leaf) * leaf
    extent = float((xyz.max(axis=0) - origin).max()) + leaf
    depth = max(1, int(np.ceil(np.log2(extent / leaf))))
    if depth > MAX_DEPTH_3D:
        return None
    cells = np.floor((xyz - origin) / leaf).astype(np.int64)
    np.clip(cells, 0, (1 << depth) - 1, out=cells)
    codes = interleave3(cells[:, 0], cells[:, 1], cells[:, 2])
    structure = build_octree_structure(codes, depth)
    occ = structure.occupancy_stream()
    maps = _pred_maps(context.prev_cloud, origin, leaf, depth, ego_delta)
    occ_payload = _code_occupancy(occ, maps, depth, context.occ_models)
    out = bytearray()
    encode_uvarint(len(xyz), out)
    out += _DENSE_HEADER.pack(origin[0], origin[1], origin[2], leaf)
    encode_uvarint(depth, out)
    encode_uvarint(len(occ_payload), out)
    out += occ_payload
    out += encode_tagged_ints(structure.leaf_counts - 1, params.entropy_backend)
    return bytes(out), codes, structure.leaf_codes, structure.leaf_counts, origin


def _decode_dense_delta(
    data: bytes, context: TemporalContext, ego_delta
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverse of :func:`_encode_dense_delta`; returns ``(points, origin)``.

    Commits the occupancy-model updates into ``context.occ_models``.
    """
    n_points, pos = decode_uvarint(data, 0)
    if n_points == 0:
        return np.empty((0, 3), dtype=np.float64), None
    if context.prev_cloud is None:
        raise ValueError("delta frame without predictor state")
    origin, leaf, pos = _dense_header(data, pos)
    depth, pos = decode_uvarint(data, pos)
    if not 1 <= depth <= MAX_DEPTH_3D:
        raise ValueError(f"corrupt dense delta: octree depth {depth}")
    occ_len, pos = decode_uvarint(data, pos)
    occ_payload = data[pos : pos + occ_len]
    pos += occ_len
    counts = decode_tagged_ints(data[pos:]) + 1
    if counts.size == 0 or counts.min() < 1 or int(counts.sum()) != n_points:
        raise ValueError("leaf count stream does not match the point count")
    maps = _pred_maps(context.prev_cloud, origin, leaf, depth, ego_delta)
    # Every node has a leaf below it: no level holds more nodes than leaves.
    leaf_codes = _decode_occupancy(
        occ_payload, maps, depth, context.occ_models, counts.size
    )
    if counts.size != leaf_codes.size:
        raise ValueError("leaf count stream does not match occupancy tree")
    return _leaf_points(leaf_codes, counts, origin, leaf), origin


# -- sparse (radial) delta coding --------------------------------------------------


def _row_match(
    d1: np.ndarray, d2: np.ndarray, prev_d1: np.ndarray, prev_d2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nearest previous point by quantized ray, searching phi rows ±1.

    Returns ``(matched mask, index into the previous arrays)``; score is
    ``|Δtheta| + 1000 · |row offset|`` so the own row always wins when
    populated.
    """
    order = np.lexsort((prev_d1, prev_d2))
    theta_sorted = prev_d1[order]
    phi_sorted = prev_d2[order]
    big = np.int64(1) << 32
    keys = phi_sorted * big + theta_sorted
    no_match = np.int64(1) << 30
    best = np.full(d1.size, no_match)
    best_idx = np.zeros(d1.size, dtype=np.int64)
    for off in (-1, 0, 1):
        query = (d2 + off) * big + d1
        j = np.searchsorted(keys, query)
        for side in (j - 1, j):
            ok = (side >= 0) & (side < keys.size)
            clipped = np.clip(side, 0, keys.size - 1)
            ok &= phi_sorted[clipped] == (d2 + off)
            score = np.abs(theta_sorted[clipped] - d1) + abs(off) * 1000
            better = ok & (score < best)
            best = np.where(better, score, best)
            best_idx = np.where(better, order[clipped], best_idx)
    return best < no_match, best_idx


def _baseline_refs(d3: np.ndarray, lengths: list[int]) -> np.ndarray:
    """Stream-order previous ``d3`` (0 at each line head)."""
    refs = np.empty_like(d3)
    offset = 0
    for length in lengths:
        refs[offset] = 0
        refs[offset + 1 : offset + length] = d3[offset : offset + length - 1]
        offset += length
    return refs


def _ray_candidates(
    d1: np.ndarray,
    d2: np.ndarray,
    prev_sparse: np.ndarray,
    ego_delta,
    q_theta: float,
    q_phi: float,
    q_r: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw and motion-compensated radial predictions per current point.

    Returns ``(matched, r_raw, r_mc)``; ``matched`` requires a hit in
    *both* views so encoder and decoder agree without extra flags.
    """
    prev_sph = cartesian_to_spherical(prev_sparse)
    tq = _quantize(prev_sph[:, 0], 2.0 * q_theta)
    pq = _quantize(prev_sph[:, 1], 2.0 * q_phi)
    rq = _quantize(prev_sph[:, 2], 2.0 * q_r)
    m_raw, idx_raw = _row_match(d1, d2, tq, pq)
    moved = prev_sparse - np.asarray(ego_delta, dtype=np.float64)[None, :]
    mc_sph = cartesian_to_spherical(moved)
    tq_mc = _quantize(mc_sph[:, 0], 2.0 * q_theta)
    pq_mc = _quantize(mc_sph[:, 1], 2.0 * q_phi)
    rq_mc = _quantize(mc_sph[:, 2], 2.0 * q_r)
    m_mc, idx_mc = _row_match(d1, d2, tq_mc, pq_mc)
    return m_raw & m_mc, rq[idx_raw], rq_mc[idx_mc]


def _delta_tail(
    lines: _Polylines,
    params: DBGCParams,
    u_phi: float,
    backend: EntropyBackend,
    context: TemporalContext,
    ego_delta,
) -> list[tuple[str, bytes]]:
    """Temporal radial tail: predictor residuals plus the selector stream."""
    d1 = np.concatenate(lines.d1)
    d2 = np.concatenate(lines.d2)
    d3 = np.concatenate(lines.d3)
    matched, r_raw, r_mc = _ray_candidates(
        d1, d2, context.prev_sparse, ego_delta, *lines.q
    )
    r_baseline = _baseline_refs(d3, lines.lengths)
    candidates = np.stack([r_baseline, r_raw, r_mc], axis=1)
    flagged = matched & ((candidates.max(axis=1) - candidates.min(axis=1)) > _SPREAD_FLAG)
    selectors = np.abs(d3[:, None] - candidates).argmin(axis=1)
    refs = np.where(
        matched,
        np.where(flagged, candidates[np.arange(len(d3)), selectors], r_mc),
        r_baseline,
    )
    sel_payload = bytearray()
    n_flagged = int(flagged.sum())
    encode_uvarint(n_flagged, sel_payload)
    if n_flagged:
        sel_payload += encode_tagged_symbols(selectors[flagged], 3, backend)
    return [("d3", encode_tagged_ints(d3 - refs, backend)), ("l_sel", bytes(sel_payload))]


def encode_group_payload(
    xyz_group: np.ndarray,
    params: DBGCParams,
    u_theta: float,
    u_phi: float,
    context: TemporalContext,
    ego_delta,
) -> tuple[bytes, np.ndarray, np.ndarray, dict[str, int], np.ndarray]:
    """Encode one sparse group for a delta frame (mode byte included).

    The intra encoder's Steps 1–7 front, then the temporal radial tail
    (``MODE_DELTA``).  Where that tail is not applicable — no spherical
    conversion, no previous sparse points, or no polyline points — the
    group is the intra group payload (``MODE_INTRA``).  Returns
    ``(payload, outlier_indices, order, stream_sizes, decoded_points)``.
    """
    applicable = (
        params.spherical_conversion
        and context.prev_sparse is not None
        and len(context.prev_sparse) > 0
    )
    if applicable:
        tail = functools.partial(_delta_tail, context=context, ego_delta=ego_delta)
    else:
        tail = _radial_tail
    enc, lines = _encode_group(xyz_group, params, u_theta, u_phi, tail)
    if lines is None:
        mode, decoded = MODE_INTRA, np.empty((0, 3), dtype=np.float64)
    else:
        mode = MODE_DELTA if applicable else MODE_INTRA
        decoded = lines.points(np.concatenate(lines.d3), params)
    payload = bytes([mode]) + enc.payload
    return payload, enc.outlier_indices, enc.order, enc.stream_sizes, decoded


def decode_sparse_group_delta(
    payload: bytes,
    params: DBGCParams,
    u_theta: float,
    u_phi: float,
    context: TemporalContext,
    ego_delta,
) -> np.ndarray:
    """Decode a temporally-coded group payload (mode byte stripped)."""
    front = _decode_front(payload, params)
    if front is None:
        return np.empty((0, 3), dtype=np.float64)
    if context.prev_sparse is None or len(context.prev_sparse) == 0:
        raise ValueError("temporal group without predictor state")
    lines, pos = front
    n_points = sum(lines.lengths)

    stream, pos = _read_stream(payload, pos)
    residuals = decode_tagged_ints(stream)
    if residuals.size != n_points:
        raise ValueError("corrupt temporal group: residual stream mismatch")
    sel_stream, pos = _read_stream(payload, pos)
    n_flagged, sel_pos = decode_uvarint(sel_stream, 0)
    if n_flagged:
        selectors = decode_tagged_symbols(sel_stream[sel_pos:], n_flagged, 3)
    else:
        selectors = np.empty(0, dtype=np.int64)

    matched, r_raw, r_mc = _ray_candidates(
        np.concatenate(lines.d1),
        np.concatenate(lines.d2),
        context.prev_sparse,
        ego_delta,
        *lines.q,
    )
    # d3 must be reconstructed sequentially: the stream-order baseline (and
    # with it the flag decision) depends on the previous decoded value.
    d3 = np.empty(n_points, dtype=np.int64)
    matched_l = matched.tolist()
    r_raw_l = r_raw.tolist()
    r_mc_l = r_mc.tolist()
    residuals_l = residuals.tolist()
    selectors_l = selectors.tolist()
    sel_i = 0
    idx = 0
    for length in lines.lengths:
        prev_val = 0
        for _ in range(length):
            if matched_l[idx]:
                cands = (prev_val, r_raw_l[idx], r_mc_l[idx])
                if max(cands) - min(cands) > _SPREAD_FLAG:
                    if sel_i >= len(selectors_l):
                        raise ValueError("corrupt temporal group: selector underrun")
                    ref = cands[selectors_l[sel_i]]
                    sel_i += 1
                else:
                    ref = r_mc_l[idx]
            else:
                ref = prev_val
            prev_val = ref + residuals_l[idx]
            d3[idx] = prev_val
            idx += 1
    if sel_i != len(selectors_l):
        raise ValueError("corrupt temporal group: selector stream mismatch")
    return lines.points(d3, params)


# -- frame orchestration -----------------------------------------------------------


def compress_delta(
    compressor,
    cloud: PointCloud,
    context: TemporalContext,
    ego_delta=(0.0, 0.0, 0.0),
    attributes: dict[str, np.ndarray] | None = None,
    attribute_steps=DEFAULT_ATTRIBUTE_STEP,
):
    """Compress one delta frame (format v3) against ``context``.

    ``compressor`` is a :class:`repro.core.pipeline.DBGCCompressor`; the
    frame pipeline mirrors its intra path; each component is delta-coded
    where applicable, else intra-coded.  ``context`` is advanced to this
    frame's decoded geometry.
    """
    from repro.core.pipeline import CompressionResult

    if not context.has_state:
        raise ValueError("delta frame requires predictor state (code a keyframe first)")
    params = compressor.params
    xyz = cloud.xyz
    n = len(xyz)
    ego = tuple(float(v) for v in ego_delta)
    fingerprint = context.fingerprint()
    sizes: dict[str, int] = {}

    dense_mask = compressor._classify(xyz)
    dense_idx = np.flatnonzero(dense_mask)
    sparse_idx = np.flatnonzero(~dense_mask)
    from repro.core.grouping import split_into_groups

    radii = np.linalg.norm(xyz[sparse_idx], axis=1) if len(sparse_idx) else None
    groups = (
        split_into_groups(radii, params.effective_n_groups) if len(sparse_idx) else []
    )
    group_globals = [sparse_idx[g] for g in groups]

    # Dense component: chain-grid delta, intra octree where not applicable.
    delta_result = _encode_dense_delta(xyz[dense_idx], params, context, ego)
    if delta_result is not None:
        payload, codes, leaf_codes, leaf_counts, dense_origin = delta_result
        dense_payload = bytes([MODE_DELTA]) + payload
        dense_decoded = _leaf_points(
            leaf_codes, leaf_counts, dense_origin, params.leaf_side
        )
        order = np.argsort(codes, kind="stable")
        octree_mapping = np.empty(len(codes), dtype=np.int64)
        octree_mapping[order] = np.arange(len(codes))
    else:
        octree = OctreeCodec(params.leaf_side, backend=params.entropy_backend)
        intra_payload = octree.encode(xyz[dense_idx])
        dense_payload = bytes([MODE_INTRA]) + intra_payload
        dense_decoded = octree.decode(intra_payload)
        dense_origin = dense_payload_origin(intra_payload)
        octree_mapping = octree.mapping(xyz[dense_idx]) if len(dense_idx) else None
    sizes["dense"] = len(dense_payload)

    mapping = np.empty(n, dtype=np.int64)
    if octree_mapping is not None:
        mapping[dense_idx] = octree_mapping

    encodings = [
        encode_group_payload(
            xyz[gg], params, compressor.u_theta, compressor.u_phi, context, ego
        )
        for gg in group_globals
    ]
    outlier_global = [
        gg[enc[1]] for gg, enc in zip(group_globals, encodings) if len(enc[1])
    ]
    outliers = (
        np.concatenate(outlier_global) if outlier_global else np.empty(0, dtype=np.int64)
    )
    group_payloads: list[bytes] = []
    groups_decoded: list[np.ndarray] = []
    offset = len(dense_idx)
    n_sparse_coded = 0
    for group_global, (payload, _out_idx, order, enc_sizes, decoded) in zip(
        group_globals, encodings
    ):
        group_payloads.append(payload)
        groups_decoded.append(decoded)
        for name, size in enc_sizes.items():
            sizes[name] = sizes.get(name, 0) + size
        ordered_global = group_global[order]
        mapping[ordered_global] = offset + np.arange(len(ordered_global))
        offset += len(ordered_global)
        n_sparse_coded += len(ordered_global)
    sizes["sparse"] = sum(len(p) for p in group_payloads)

    outlier_payload, outlier_mapping = encode_outliers(xyz[outliers], params)
    if len(outliers):
        mapping[outliers] = offset + outlier_mapping
    sizes["outlier"] = len(outlier_payload)
    outlier_decoded = decode_outliers(outlier_payload, params)

    attribute_payload = b""
    if attributes:
        attribute_payload = encode_attributes(
            attributes, mapping, attribute_steps, backend=params.entropy_backend
        )
        sizes["attributes"] = len(attribute_payload)

    payload = pack_container_v3(
        params,
        compressor.u_theta,
        compressor.u_phi,
        fingerprint,
        ego,
        dense_payload,
        group_payloads,
        outlier_payload,
        attribute_payload,
    )
    context.observe(dense_decoded, groups_decoded, outlier_decoded, dense_origin)
    return CompressionResult(
        payload=payload,
        n_points=n,
        n_dense=len(dense_idx),
        n_sparse=n_sparse_coded,
        n_outliers=len(outliers),
        mapping=mapping,
        timings={},
        stream_sizes=sizes,
    )


def decompress_delta(data: bytes, context: TemporalContext) -> PointCloud:
    """Decompress a v3 delta frame against ``context`` and advance it.

    Raises ``ValueError`` when the context has no predictor state or its
    fingerprint does not match the frame's — the caller (e.g. the ingest
    server) should treat the frame as undecodable and wait for the next
    keyframe.
    """
    header, dense_payload, group_payloads, outlier_payload, _ = unpack_container(data)
    if not header.is_delta:
        raise ValueError("not a delta frame (use observe_intra)")
    if not context.has_state:
        raise ValueError("delta frame without predictor state")
    if header.predictor_fingerprint != context.fingerprint():
        raise ValueError(
            "delta frame predictor fingerprint mismatch "
            f"(frame {header.predictor_fingerprint:#010x}, "
            f"context {context.fingerprint():#010x})"
        )
    params = header.to_params()
    ego = header.ego_delta
    if not dense_payload:
        raise ValueError("truncated DBGC container")
    mode = dense_payload[0]
    body = dense_payload[1:]
    if mode == MODE_DELTA:
        dense, dense_origin = _decode_dense_delta(body, context, ego)
    elif mode == MODE_INTRA:
        dense = OctreeCodec(params.leaf_side).decode(body)
        dense_origin = dense_payload_origin(body)
    else:
        raise ValueError(f"unknown dense mode byte {mode}")
    groups = []
    for group_payload in group_payloads:
        if not group_payload:
            raise ValueError("truncated DBGC container")
        group_mode = group_payload[0]
        group_body = group_payload[1:]
        if group_mode == MODE_DELTA:
            groups.append(
                decode_sparse_group_delta(
                    group_body, params, header.u_theta, header.u_phi, context, ego
                )
            )
        elif group_mode == MODE_INTRA:
            groups.append(
                decode_sparse_group(group_body, params, header.u_theta, header.u_phi)
            )
        else:
            raise ValueError(f"unknown group mode byte {group_mode}")
    outliers = decode_outliers(outlier_payload, params)
    context.observe(dense, groups, outliers, dense_origin)
    return PointCloud(np.vstack([dense, *groups, outliers]))


def observe_intra(context: TemporalContext, data: bytes) -> PointCloud:
    """Decode an intra frame (v1/v2) and make it the predictor state.

    Used by both sides: the writer after coding a keyframe, the stateful
    reader / server for every non-delta frame.
    """
    header, dense_payload, group_payloads, outlier_payload, _ = unpack_container(data)
    if header.is_delta:
        raise ValueError("delta frame passed to observe_intra")
    params = header.to_params()
    version = header.version
    dense = OctreeCodec(params.leaf_side).decode(dense_payload, version=version)
    dense_origin = dense_payload_origin(dense_payload)
    groups = [
        decode_sparse_group(p, params, header.u_theta, header.u_phi, version=version)
        for p in group_payloads
    ]
    outliers = decode_outliers(outlier_payload, params, version=version)
    context.observe(dense, groups, outliers, dense_origin, keyframe=True)
    return PointCloud(np.vstack([dense, *groups, outliers]))


class TemporalDecoder:
    """Stateful frame decoder: feed every frame of a stream in order.

    Intra frames (v1/v2) decode standalone and refresh the predictor
    state; delta frames (v3) decode against it.  Safe for any stream —
    a purely intra stream simply never exercises the delta path.
    """

    def __init__(self) -> None:
        self.context = TemporalContext()

    def decode(self, data: bytes) -> PointCloud:
        if container_version(data) == 3:
            return decompress_delta(data, self.context)
        return observe_intra(self.context, data)

    def decode_with_attributes(
        self, data: bytes
    ) -> tuple[PointCloud, dict[str, np.ndarray]]:
        cloud = self.decode(data)
        header, _, _, _, attribute_payload = unpack_container(data)
        return cloud, decode_attributes(attribute_payload, version=header.version)
