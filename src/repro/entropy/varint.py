"""LEB128 varints and zigzag mapping for signed integers.

Delta-encoded coordinate streams are signed and concentrated near zero
(paper Step 2), so zigzag + varint gives a compact byte representation that
the arithmetic/Huffman back-ends can then squeeze further.

:func:`require_finite` is the check every payload header applies to the
floats it reads next to its varints (origins, steps, bounds).
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "encode_uvarint",
    "decode_uvarint",
    "encode_varints",
    "decode_varints",
    "zigzag_encode",
    "zigzag_decode",
    "require_finite",
]


def encode_uvarint(value: int, out: bytearray) -> None:
    """Append one unsigned LEB128 varint to ``out``."""
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def decode_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    """Decode one unsigned varint at ``pos``; return ``(value, next_pos)``."""
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise ValueError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 70:
            raise ValueError("varint too long")


def require_finite(what: str, *values: float, positive: tuple[float, ...] = ()) -> None:
    """Reject a corrupt header float with ``ValueError``.

    Every value must be finite and every ``positive`` one (a step or a
    bound) also > 0: a NaN or infinite origin or step would otherwise
    decode to a silently wrong cloud.
    """
    for value in (*values, *positive):
        if not math.isfinite(value):
            raise ValueError(f"corrupt {what}: non-finite value {value}")
    for value in positive:
        if value <= 0:
            raise ValueError(f"corrupt {what}: non-positive step {value}")


def zigzag_encode(values: np.ndarray) -> np.ndarray:
    """Map signed integers to unsigned: 0,-1,1,-2,2 -> 0,1,2,3,4."""
    v = np.asarray(values, dtype=np.int64)
    return ((v << 1) ^ (v >> 63)).astype(np.uint64)


def zigzag_decode(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_encode`."""
    v = np.asarray(values, dtype=np.uint64)
    return ((v >> np.uint64(1)).astype(np.int64)) ^ -(v & np.uint64(1)).astype(np.int64)


#: ``_LEN_THRESHOLDS[k]`` is the smallest value needing ``k + 2`` bytes.
_LEN_THRESHOLDS = (np.uint64(1) << (np.uint64(7) * np.arange(1, 10, dtype=np.uint64)))


def encode_varints(values: Iterable[int] | np.ndarray, signed: bool = True) -> bytes:
    """Encode an integer sequence as concatenated varints (vectorized).

    ``signed=True`` zigzag-maps first so small negative values stay short.
    """
    arr = np.asarray(list(values) if not isinstance(values, np.ndarray) else values)
    if arr.size == 0:
        return b""
    arr = arr.astype(np.int64)
    u = zigzag_encode(arr) if signed else arr.astype(np.uint64)
    lengths = 1 + (u[:, None] >= _LEN_THRESHOLDS).sum(axis=1)
    total = int(lengths.sum())
    starts = np.zeros(arr.size, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    value_idx = np.repeat(np.arange(arr.size), lengths)
    byte_off = (np.arange(total) - np.repeat(starts, lengths)).astype(np.uint64)
    chunks = ((u[value_idx] >> (np.uint64(7) * byte_off)) & np.uint64(0x7F)).astype(
        np.uint8
    )
    chunks[byte_off < (lengths[value_idx] - 1).astype(np.uint64)] |= 0x80
    return chunks.tobytes()


def decode_varints(data: bytes, count: int, signed: bool = True) -> np.ndarray:
    """Decode ``count`` varints; inverse of :func:`encode_varints` (vectorized)."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    raw = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(raw < 0x80)[:count]
    if len(ends) < count:
        raise ValueError("truncated varint")
    lengths = np.diff(ends, prepend=-1)
    longest = int(lengths.max())
    if longest > 10:
        raise ValueError("varint too long")
    # A 10th byte carries bit 63 only; anything above 1 overflows 64 bits.
    if longest == 10 and int(raw[ends[lengths == 10]].max()) > 1:
        raise ValueError("varint overflows 64 bits")
    # Horner's rule from each terminator back to the varint's first byte,
    # over the still-unfinished varints only.
    values = raw[ends].astype(np.uint64)
    todo = np.flatnonzero(lengths > 1)
    for k in range(1, longest):
        values[todo] = (values[todo] << np.uint64(7)) | (raw[ends[todo] - k] & 0x7F)
        todo = todo[lengths[todo] > k + 1]
    if signed:
        return zigzag_decode(values)
    return values.astype(np.int64)


def varint_byte_stream(values: Sequence[int] | np.ndarray, signed: bool = True) -> bytes:
    """Alias of :func:`encode_varints` named for its role as a byte stream."""
    return encode_varints(values, signed=signed)
