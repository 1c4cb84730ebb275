"""Per-symbol identity oracles of the fused entropy-coding kernels.

The fused kernels of :mod:`repro.entropy.arithmetic` must produce and
accept exactly the bytes of the plain per-symbol coder:
:class:`AdaptiveModel` driven one symbol per call through
:class:`ArithmeticEncoder` / :class:`ArithmeticDecoder`.  These are those
per-symbol versions, kept as the reference:

- ``arithmetic_*_py`` / ``*_int_sequence_py`` for the whole-stream
  adaptive coder;
- ``code_occupancy_py`` / ``decode_occupancy_py``, the original loops of
  :mod:`repro.core.temporal`: one model per context tuple, created on
  first use, driven bit by bit.  The binary-context kernels must also
  leave every context's counts where these leave them.
"""

from __future__ import annotations

import numpy as np

from repro.core.temporal import (
    _OCC_INCREMENT,
    N_OCC_CONTEXTS,
    _predict_level,
)
from repro.entropy.arithmetic import (
    _BYTE_MODEL,
    AdaptiveModel,
    ArithmeticDecoder,
    ArithmeticEncoder,
    _check_count,
    _checked_symbols,
    _int_sequence_checksum,
    _int_sequence_header,
    _int_sequence_parts,
)
from repro.octree.octree import expand_occupancy_level


# -- whole-stream adaptive coder ------------------------------------------------


def arithmetic_encode_py(
    symbols: np.ndarray, num_symbols: int, increment: int = 32, max_total: int = 1 << 16
) -> bytes:
    """Per-symbol oracle for :func:`arithmetic_encode` (identical bytes)."""
    arr = _checked_symbols(symbols, num_symbols)
    model = AdaptiveModel(num_symbols, increment=increment, max_total=max_total)
    encoder = ArithmeticEncoder()
    encode_one = encoder.encode_symbol
    for symbol in arr.tolist():
        encode_one(model, symbol)
    return encoder.finish()


def arithmetic_decode_py(
    data: bytes,
    count: int,
    num_symbols: int,
    increment: int = 32,
    max_total: int = 1 << 16,
) -> np.ndarray:
    """Per-symbol oracle for :func:`arithmetic_decode`."""
    model = AdaptiveModel(num_symbols, increment=increment, max_total=max_total)
    _check_count(count, len(data), num_symbols, increment, max_total)
    decoder = ArithmeticDecoder(data)
    decode_one = decoder.decode_symbol
    out = np.empty(count, dtype=np.int64)
    for i in range(count):
        out[i] = decode_one(model)
    return out




def encode_int_sequence_py(values: np.ndarray) -> bytes:
    """Per-symbol oracle for :func:`encode_int_sequence` (identical bytes)."""
    header, byte_stream = _int_sequence_parts(values)
    if not byte_stream:
        return header
    return header + arithmetic_encode_py(
        np.frombuffer(byte_stream, dtype=np.uint8), *_BYTE_MODEL
    )


def decode_int_sequence_py(data: bytes, checksum: bool = True) -> np.ndarray:
    """Per-symbol oracle for :func:`decode_int_sequence`."""
    count, expected, pos = _int_sequence_header(data, checksum)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    model = AdaptiveModel(*_BYTE_MODEL)
    decoder = ArithmeticDecoder(data[pos:])
    values = np.empty(count, dtype=np.int64)
    done = 0
    current = 0
    shift = 0
    byte_sum = 0
    n_bytes = 0
    while done < count:
        byte = decoder.decode_symbol(model)
        byte_sum += byte
        n_bytes += 1
        current |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
            if shift > 63:
                raise ValueError("corrupt varint in arithmetic stream")
        else:
            if current >> 64:
                raise ValueError("corrupt varint in arithmetic stream")
            # zigzag decode
            values[done] = (current >> 1) ^ -(current & 1)
            done += 1
            current = 0
            shift = 0
    if checksum and _int_sequence_checksum(byte_sum, n_bytes) != expected:
        raise ValueError("truncated or corrupt int sequence (checksum mismatch)")
    return values


# -- temporal occupancy ---------------------------------------------------------


def _bit_context(level: int, e: int, d: int, m: int, b: int, decoded: int, dpop: int):
    return (
        level,
        (e >> b) & 1,
        (d >> b) & 1,
        (m >> b) & 1,
        b,
        min(bin(decoded).count("1"), 2),
        dpop,
    )


def context_id(key: tuple) -> int:
    """Flat id of an oracle context tuple, in the kernels' layout."""
    level, e, d, m, b, prefix, dpop = key
    return (((((level * 2 + e) * 2 + d) * 2 + m) * 8 + b) * 4 + dpop) * 3 + prefix


def to_counts(models: dict[tuple, AdaptiveModel]) -> tuple[list[int], list[int]]:
    """The oracle's models as the kernels' ``(f0, f1)`` count lists."""
    f0 = [1] * N_OCC_CONTEXTS
    f1 = [1] * N_OCC_CONTEXTS
    for key, model in models.items():
        c = context_id(key)
        f0[c], f1[c] = model._freq
    return f0, f1


def code_occupancy_py(
    occ: np.ndarray,
    pred_maps,
    depth: int,
    models: dict[tuple, AdaptiveModel],
) -> bytes:
    encoder = ArithmeticEncoder()
    nodes = np.zeros(1, dtype=np.int64)
    offset = 0
    for level in range(depth):
        n = len(nodes)
        level_occ = occ[offset : offset + n]
        preds = [_predict_level(nodes, maps[level]) for maps in pred_maps]
        level_bounded = min(level, 6)
        pe, pd, pm = (p.tolist() for p in preds)
        for i, byte in enumerate(level_occ.tolist()):
            e, d, m = pe[i], pd[i], pm[i]
            dpop = min(bin(d).count("1"), 3)
            decoded = 0
            for b in range(8):
                bit = (byte >> b) & 1
                ctx = _bit_context(level_bounded, e, d, m, b, decoded, dpop)
                model = models.get(ctx)
                if model is None:
                    model = AdaptiveModel(2, increment=_OCC_INCREMENT)
                    models[ctx] = model
                cum_low, cum_high = model.cum_range(bit)
                encoder.encode(cum_low, cum_high, model.total)
                model.update(bit)
                decoded |= bit << b
        nodes = expand_occupancy_level(nodes, level_occ.astype(np.uint8))
        offset += n
    return encoder.finish()


def decode_occupancy_py(
    payload: bytes,
    pred_maps,
    depth: int,
    models: dict[tuple, AdaptiveModel],
    max_nodes: int,
) -> np.ndarray:
    decoder = ArithmeticDecoder(payload)
    nodes = np.zeros(1, dtype=np.int64)
    for level in range(depth):
        n = len(nodes)
        preds = [_predict_level(nodes, maps[level]) for maps in pred_maps]
        level_bounded = min(level, 6)
        pe, pd, pm = (p.tolist() for p in preds)
        level_occ = np.empty(n, dtype=np.uint8)
        for i in range(n):
            e, d, m = pe[i], pd[i], pm[i]
            dpop = min(bin(d).count("1"), 3)
            decoded = 0
            for b in range(8):
                ctx = _bit_context(level_bounded, e, d, m, b, decoded, dpop)
                model = models.get(ctx)
                if model is None:
                    model = AdaptiveModel(2, increment=_OCC_INCREMENT)
                    models[ctx] = model
                bit = decoder.decode_symbol(model)
                decoded |= bit << b
            level_occ[i] = decoded
        nodes = expand_occupancy_level(nodes, level_occ)
        if len(nodes) > max_nodes:
            raise ValueError("corrupt occupancy stream: more octree nodes than leaves")
    return nodes
