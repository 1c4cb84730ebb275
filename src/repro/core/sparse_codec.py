"""Coordinate compression of sparse points (paper Section 3.5, Figure 6).

Implements the nine-step pipeline for one radial group of sparse points:

1. *Coordinate scaling* — quantize each spherical dimension by twice its
   error bound (``q_theta = q_phi = q_xyz / r_max``, ``q_r = q_xyz``).
2. *Delta encoding* on theta and phi along each polyline.
3. /4. *Reorganization* — heads (original coordinates) and tails (deltas)
   are concatenated into separate streams, polylines back to back.
5. *Lengths* — per-line point counts, arithmetic coded.
6. *Theta streams* — delta-across-heads and within-line deltas, Deflate
   (cross-line repeats make LZ matter here).
7. *Phi streams* — same shape, arithmetic coded (less redundancy).
8. *Radial stream* — radial-distance-optimized delta encoding with the
   consensus reference polyline, plus the ``L_ref`` choice stream.
9. *Output* — length-prefixed stream concatenation.

The ``-Conversion`` ablation keeps the polyline organization but codes
quantized Cartesian ``x, y, z`` instead of ``theta, phi, r`` (see
DESIGN.md §4): the coordinate-system effect on stream entropy is exactly
what the ablation isolates.
"""

from __future__ import annotations

import struct
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro import observability as obs
from repro.core.params import DBGCParams
from repro.entropy.arithmetic import arithmetic_decode, decode_int_sequence
from repro.core.polyline import organize_polylines
from repro.core.reference import (
    decode_radial,
    decode_radial_plain,
    encode_radial,
    encode_radial_plain,
)
from repro.entropy.backend import (
    EntropyBackend,
    decode_tagged_ints,
    decode_tagged_symbols,
    encode_tagged_ints,
    encode_tagged_symbols,
    get_backend,
    resolve_tag,
)
from repro.entropy.deflate import deflate_compress, deflate_decompress
from repro.entropy.varint import (
    decode_uvarint,
    decode_varints,
    encode_uvarint,
    encode_varints,
    require_finite,
)
from repro.geometry.spherical import (
    cartesian_to_spherical,
    spherical_error_bounds,
    spherical_to_cartesian,
)

__all__ = ["GroupEncoding", "encode_sparse_group", "decode_sparse_group"]

_RMAX = struct.Struct("<d")


@dataclass
class GroupEncoding:
    """Result of encoding one sparse group."""

    payload: bytes
    #: Local indices (into the group's input array) of outlier points.
    outlier_indices: np.ndarray
    #: Local indices of polyline points, in stored (decoded) order.
    order: np.ndarray
    #: Stream sizes by name, for the breakdown reporting.
    stream_sizes: dict[str, int] = field(default_factory=dict)
    #: Stage wall-clock times: COR (conversion), ORG (organization),
    #: SPA (stream coding) — the Figure 13 breakdown slots.  Durations of
    #: the ``sparse.cor`` / ``sparse.org`` / ``sparse.spa`` spans; zero
    #: when no observability recorder is active (the pipeline always
    #: installs one around :func:`encode_sparse_group`).
    timings: dict[str, float] = field(default_factory=dict)


def _quantize(values: np.ndarray, step: float) -> np.ndarray:
    return np.round(values / step).astype(np.int64)


def _heads_tails(lines: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Split quantized per-line sequences into head/tail delta streams.

    Heads are delta-coded across lines (first head raw); tails are the
    within-line deltas (Step 2), concatenated line after line (Steps 3/4).
    """
    heads = np.asarray([line[0] for line in lines], dtype=np.int64)
    head_deltas = np.diff(heads, prepend=np.int64(0))
    tail_chunks = [np.diff(line) for line in lines if len(line) > 1]
    tails = (
        np.concatenate(tail_chunks) if tail_chunks else np.empty(0, dtype=np.int64)
    )
    return head_deltas, tails


def _rebuild_lines(
    head_deltas: np.ndarray, tails: np.ndarray, lengths: list[int]
) -> list[np.ndarray]:
    """Inverse of :func:`_heads_tails`."""
    heads = np.cumsum(head_deltas)
    lines = []
    pos = 0
    for i, length in enumerate(lengths):
        deltas = tails[pos : pos + length - 1]
        pos += length - 1
        lines.append(np.concatenate([[heads[i]], heads[i] + np.cumsum(deltas)]))
    return lines


_STREAM_DEFLATE = 0
#: Entropy-backend streams use mode byte ``backend.tag + 1``; the adaptive
#: arithmetic backend (tag 0) therefore keeps the historical mode byte 1.


def _pack_stream(
    values: np.ndarray, backend: str | EntropyBackend = "adaptive-arith"
) -> bytes:
    """Entropy-code an int stream with the better of Deflate / the backend.

    The paper uses Deflate for the azimuthal streams because repeated
    cross-line patterns favor LZ matching (Step 6); on data whose deltas
    are near-constant-with-noise the entropy backend wins instead.  A
    one-byte mode tag records the choice (0 = Deflate, otherwise
    ``backend.tag + 1``), so the codec always takes the smaller encoding
    and the decoder follows the stream, not the configuration.
    """
    b = get_backend(backend)
    deflated = deflate_compress(encode_varints(values, signed=True))
    coded = b.encode_ints(values)
    if len(deflated) < len(coded):
        return bytes([_STREAM_DEFLATE]) + deflated
    return bytes([b.tag + 1]) + coded


def _unpack_stream(
    data: bytes,
    count: int,
    preferred: EntropyBackend | None = None,
    version: int = 2,
) -> np.ndarray:
    """Inverse of :func:`_pack_stream`.

    ``version=1`` reads the legacy layout, where mode byte 1 was a
    checksum-less arithmetic int sequence rather than a backend tag.
    """
    if not data:
        raise ValueError("empty entropy stream")
    mode, payload = data[0], data[1:]
    if mode == _STREAM_DEFLATE:
        return decode_varints(deflate_decompress(payload), count, signed=True)
    if version == 1:
        if mode != 1:
            raise ValueError(f"unknown stream mode byte {mode}")
        values = decode_int_sequence(payload, checksum=False)
        if values.size != count:
            raise ValueError("entropy stream count mismatch")
        return values
    try:
        backend = resolve_tag(mode - 1, preferred)
    except ValueError:
        raise ValueError(f"unknown stream mode byte {mode}") from None
    values = backend.decode_ints(payload)
    if values.size != count:
        raise ValueError("entropy stream count mismatch")
    return values


def _append_stream(out: bytearray, payload: bytes) -> None:
    encode_uvarint(len(payload), out)
    out += payload


def _read_stream(data: bytes, pos: int) -> tuple[bytes, int]:
    size, pos = decode_uvarint(data, pos)
    return data[pos : pos + size], pos + size


#: Payload of a group with no polyline points.
_EMPTY_GROUP = b"\x00"


@dataclass
class _Polylines:
    """One group after the Steps 1–7 front: what its radial tail codes.

    Per-line quantized ``d1`` (theta, or x) and ``d2`` (phi, or y) in
    stored order, the line lengths and the bounds ``(q_theta, q_phi,
    q_r)``.  The encoder also holds the per-line radial values ``d3``.
    """

    d1: list[np.ndarray]
    d2: list[np.ndarray]
    lengths: list[int]
    q: tuple[float, float, float]
    d3: list[np.ndarray] = field(default_factory=list)

    def points(self, d3: np.ndarray, params: DBGCParams) -> np.ndarray:
        """Cartesian points for the stored-order radial values ``d3``.

        The one dequantization expression of encoder and decoder, so
        lockstep temporal predictor clouds agree bitwise.
        """
        d1 = np.concatenate(self.d1).astype(np.float64)
        d2 = np.concatenate(self.d2).astype(np.float64)
        d3 = np.asarray(d3).astype(np.float64)
        if params.spherical_conversion:
            q_theta, q_phi, q_r = self.q
            tpr = np.column_stack([d1 * 2.0 * q_theta, d2 * 2.0 * q_phi, d3 * 2.0 * q_r])
            return spherical_to_cartesian(tpr)
        step = 2.0 * params.q_xyz
        return np.column_stack([d1 * step, d2 * step, d3 * step])


#: Step 8 of one group: ``(polylines, params, u_phi, backend)`` to its
#: named streams, in payload order.
_RadialTail = Callable[
    [_Polylines, DBGCParams, float, EntropyBackend], list[tuple[str, bytes]]
]


def _radial_thresholds(
    params: DBGCParams, u_phi: float, q: tuple[float, float, float]
) -> tuple[int, int]:
    """Quantized ``(th_phi, th_r)`` of the consensus reference search."""
    _q_theta, q_phi, q_r = q
    th_phi_q = max(int(round(2.0 * u_phi / (2.0 * q_phi))), 0)
    th_r_q = max(int(round(params.th_r / (2.0 * q_r))), 1)
    return th_phi_q, th_r_q


def _radial_tail(
    lines: _Polylines, params: DBGCParams, u_phi: float, backend: EntropyBackend
) -> list[tuple[str, bytes]]:
    """Step 8: consensus-reference radial deltas and the ``L_ref`` choices
    (plain per-line deltas under the ablations)."""
    ref_payload = bytearray()
    if params.spherical_conversion and params.radial_reference:
        line_phis = [int(d2[0]) for d2 in lines.d2]
        nabla, symbols = encode_radial(
            lines.d1, lines.d3, line_phis, *_radial_thresholds(params, u_phi, lines.q)
        )
        encode_uvarint(len(symbols), ref_payload)
        if len(symbols):
            ref_payload += encode_tagged_symbols(
                np.asarray(symbols, dtype=np.int64), 4, backend
            )
    else:
        nabla = encode_radial_plain(lines.d3)
        encode_uvarint(0, ref_payload)
    return [("d3", encode_tagged_ints(nabla, backend)), ("l_ref", bytes(ref_payload))]


def _encode_group(
    xyz_group: np.ndarray,
    params: DBGCParams,
    u_theta: float,
    u_phi: float,
    radial_tail: _RadialTail,
) -> tuple[GroupEncoding, _Polylines | None]:
    """Steps 1–7 of one group, then ``radial_tail`` codes Step 8.

    Returns the encoding and the group's polylines (``None`` when it has
    no polyline of length >= 2).
    """
    xyz_group = np.asarray(xyz_group, dtype=np.float64)
    empty = np.empty(0, np.int64)
    if len(xyz_group) == 0:
        return GroupEncoding(_EMPTY_GROUP, empty, empty), None

    with obs.span("sparse.cor") as sp_cor:
        tpr = cartesian_to_spherical(xyz_group)
        theta, phi, radius = tpr[:, 0], tpr[:, 1], tpr[:, 2]

    with obs.span("sparse.org") as sp_org:
        if params.spherical_conversion:
            all_lines = organize_polylines(theta, phi, xyz_group, u_theta, u_phi)
        else:
            # -Conversion ablation: extract polylines in the Cartesian system
            # (x plays the scan axis, y the line-grouping axis).  The window is
            # the typical along-scan spacing at the group's median range; rings
            # are circles in the xy plane, so extraction fragments badly — the
            # effect the ablation quantifies.
            window = max(float(np.median(radius)) * u_theta, 4.0 * params.q_xyz)
            all_lines = organize_polylines(
                xyz_group[:, 0], xyz_group[:, 1], xyz_group, window, window
            )
        lines = [line for line in all_lines if len(line) >= 2]
        outliers = (
            np.concatenate([line for line in all_lines if len(line) < 2])
            if any(len(line) < 2 for line in all_lines)
            else empty
        )
    if not lines:
        timings = {"cor": sp_cor.duration, "org": sp_org.duration, "spa": 0.0}
        return GroupEncoding(_EMPTY_GROUP, outliers, empty, timings=timings), None
    with obs.span("sparse.spa") as sp_spa:
        r_max = float(max(radius[line].max() for line in lines))
        r_max = max(r_max, 1e-9)
        q = spherical_error_bounds(
            params.q_xyz, r_max, strict_cartesian=params.strict_cartesian
        )

        if params.spherical_conversion:
            d1_all = _quantize(theta, 2.0 * q[0])
            d2_all = _quantize(phi, 2.0 * q[1])
            d3_all = _quantize(radius, 2.0 * q[2])
        else:
            step = 2.0 * params.q_xyz
            d1_all = _quantize(xyz_group[:, 0], step)
            d2_all = _quantize(xyz_group[:, 1], step)
            d3_all = _quantize(xyz_group[:, 2], step)

        # Sort polylines by (head polar angle, head azimuth) — paper Line 7.
        # The sort uses quantized values so encoder and decoder agree on the
        # reference-set geometry.
        lines.sort(key=lambda line: (int(d2_all[line[0]]), int(d1_all[line[0]])))
        polylines = _Polylines(
            [d1_all[line] for line in lines],
            [d2_all[line] for line in lines],
            [len(line) for line in lines],
            q,
            [d3_all[line] for line in lines],
        )
        order = np.concatenate(lines)
        backend = get_backend(params.entropy_backend)

        out = bytearray()
        encode_uvarint(int(order.size), out)
        encode_uvarint(len(lines), out)
        out += _RMAX.pack(r_max)
        lengths = np.asarray(polylines.lengths, dtype=np.int64)
        streams = [("lengths", encode_tagged_ints(lengths, backend))]
        for name, series in (("d1", polylines.d1), ("d2", polylines.d2)):
            heads, tails = _heads_tails(series)
            streams.append((name + "_heads", _pack_stream(heads, backend)))
            streams.append((name + "_tails", _pack_stream(tails, backend)))
        streams += radial_tail(polylines, params, u_phi, backend)
        sizes: dict[str, int] = {}
        for name, payload in streams:
            _append_stream(out, payload)
            sizes[name] = len(payload)
            # Per-stream byte accounting (the Figure 13 size breakdown): each
            # named stream lands on the active span and the bytes.* counters.
            obs.add_bytes("sparse." + name, len(payload))

    timings = {"cor": sp_cor.duration, "org": sp_org.duration, "spa": sp_spa.duration}
    return GroupEncoding(bytes(out), outliers, order, sizes, timings), polylines


def encode_sparse_group(
    xyz_group: np.ndarray,
    params: DBGCParams,
    u_theta: float,
    u_phi: float,
) -> GroupEncoding:
    """Encode one radial group of sparse points.

    Returns the group payload plus the outlier indices (points on no
    polyline of length >= 2) and the stored point order for correspondence.
    """
    return _encode_group(xyz_group, params, u_theta, u_phi, _radial_tail)[0]


def _decode_front(
    payload: bytes, params: DBGCParams, version: int = 2
) -> tuple[_Polylines, int] | None:
    """Inverse of the Steps 1–7 front of :func:`_encode_group`.

    Returns the polylines (``d3`` left empty) and the position of the
    radial tail, or ``None`` for a group without polyline points.
    """
    n_points, pos = decode_uvarint(payload, 0)
    if n_points == 0:
        return None
    n_lines, pos = decode_uvarint(payload, pos)
    (r_max,) = _RMAX.unpack_from(payload, pos)
    pos += _RMAX.size
    require_finite("sparse group header", positive=(r_max,))
    q = spherical_error_bounds(
        params.q_xyz, r_max, strict_cartesian=params.strict_cartesian
    )

    stream, pos = _read_stream(payload, pos)
    if version == 1:
        lengths = decode_int_sequence(stream, checksum=False).tolist()
    else:
        lengths = decode_tagged_ints(stream).tolist()
    if len(lengths) != n_lines or sum(lengths) != n_points:
        raise ValueError("corrupt sparse group: length stream mismatch")

    n_tail = n_points - n_lines
    series = []
    for _ in ("d1", "d2"):
        stream, pos = _read_stream(payload, pos)
        heads = _unpack_stream(stream, n_lines, version=version)
        stream, pos = _read_stream(payload, pos)
        tails = _unpack_stream(stream, n_tail, version=version)
        series.append(_rebuild_lines(heads, tails, lengths))
    return _Polylines(series[0], series[1], lengths, q), pos


def decode_sparse_group(
    payload: bytes,
    params: DBGCParams,
    u_theta: float,
    u_phi: float,
    version: int = 2,
) -> np.ndarray:
    """Decode one group payload back to Cartesian coordinates.

    Points come back in stored polyline order (matching
    :attr:`GroupEncoding.order` on the encoder side).  ``version=1``
    selects the legacy stream layouts (checksum-less int sequences, raw
    arithmetic ``L_ref``), so v1 containers decode bit-identically.
    """
    front = _decode_front(payload, params, version)
    if front is None:
        return np.empty((0, 3), dtype=np.float64)
    lines, pos = front

    stream, pos = _read_stream(payload, pos)
    if version == 1:
        nabla = decode_int_sequence(stream, checksum=False)
    else:
        nabla = decode_tagged_ints(stream)
    if nabla.size != sum(lines.lengths):
        raise ValueError("corrupt sparse group: radial stream mismatch")
    ref_stream, pos = _read_stream(payload, pos)
    n_symbols, ref_pos = decode_uvarint(ref_stream, 0)

    if params.spherical_conversion and params.radial_reference:
        if version == 1:
            symbols = arithmetic_decode(ref_stream[ref_pos:], n_symbols, 4)
        elif n_symbols:
            symbols = decode_tagged_symbols(ref_stream[ref_pos:], n_symbols, 4)
        else:
            symbols = np.empty(0, dtype=np.int64)
        line_phis = [int(d2[0]) for d2 in lines.d2]
        lines_d3 = decode_radial(
            lines.d1, line_phis, nabla, symbols, *_radial_thresholds(params, u_phi, lines.q)
        )
    else:
        lines_d3 = decode_radial_plain(nabla, lines.lengths)
    return lines.points(np.concatenate(lines_d3), params)
