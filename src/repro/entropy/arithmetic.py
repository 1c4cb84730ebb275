"""Adaptive arithmetic coding.

The paper uses an arithmetic coder [58] for the octree occupancy stream,
the polar-angle delta streams, the radial ``∇L_r`` stream and the reference
stream ``L_ref``.  This module implements the classic Witten–Neal–Cleary
integer arithmetic coder with 32-bit registers and an adaptive frequency
model, so both sides stay in lockstep without transmitting the model.

Three implementations share one wire format, bit for bit:

- :class:`AdaptiveModel`, :class:`ArithmeticEncoder` and
  :class:`ArithmeticDecoder` code one symbol per call over a Fenwick-tree
  model.  Callers that switch models per symbol (G-PCC, k-d tree) use
  them directly.
- The whole-stream functions (:func:`arithmetic_encode`,
  :func:`arithmetic_decode`, :func:`encode_int_sequence`,
  :func:`decode_int_sequence`) run one fused loop per stream instead.
  Its model is a two-level table (16-symbol block sums plus per-symbol
  counts, O(1) update), and it renormalises in one shift per symbol.
  The per-symbol oracles they must match live in ``tests/oracles.py``.
- :func:`binary_context_encode` and :func:`binary_context_decoder` code
  bits under many binary models, one per context id, held as two flat
  count lists (the temporal occupancy coder).
"""

from __future__ import annotations

import math
from collections.abc import Generator

import numpy as np

from repro.entropy.bitio import BitReader, BitWriter
from repro.entropy.varint import (
    decode_uvarint,
    decode_varints,
    encode_uvarint,
    encode_varints,
)

__all__ = [
    "AdaptiveModel",
    "ArithmeticEncoder",
    "ArithmeticDecoder",
    "arithmetic_encode",
    "arithmetic_decode",
    "encode_int_sequence",
    "decode_int_sequence",
    "binary_context_encode",
    "binary_context_decoder",
]

_CODE_BITS = 32
_FULL = 1 << _CODE_BITS
_HALF = _FULL >> 1
_QUARTER = _FULL >> 2
_THREE_QUARTERS = _HALF + _QUARTER
_MASK = _FULL - 1


def _check_model(num_symbols: int, increment: int, max_total: int) -> None:
    if num_symbols < 1:
        raise ValueError(f"need at least one symbol, got {num_symbols}")
    if increment < 1:
        raise ValueError(f"increment must be >= 1, got {increment}")
    if max_total < 2 * num_symbols:
        raise ValueError("max_total too small for the alphabet")


def _check_count(
    count: int, n_bytes: int, num_symbols: int, increment: int, max_total: int
) -> None:
    """Reject a symbol count that an ``n_bytes`` payload cannot hold.

    The model total never exceeds ``top = max(max_total, increment +
    num_symbols)``, and every other symbol keeps a count >= 1.  So no
    symbol gets more than ``1 - (num_symbols - 1) / top`` of the interval,
    plus integer rounding under ``2**-30`` at 32-bit precision, and each
    coded symbol costs at least ``-log2`` of that in output bits.  Checking
    this up front bounds the time and memory a corrupt count can cost.
    """
    if count < 0:
        raise ValueError(f"negative symbol count {count}")
    top = max(max_total, increment + num_symbols)
    ratio = 1.0 - (num_symbols - 1) / top + 2.0**-30
    if ratio < 1.0 and count * -math.log2(ratio) > 8 * n_bytes:
        raise ValueError(f"{count} symbols cannot fit in {n_bytes} payload bytes")


class AdaptiveModel:
    """Adaptive frequency model over ``num_symbols`` symbols.

    Every symbol starts with frequency 1 (so anything is encodable) and gains
    ``increment`` on each occurrence.  When the total exceeds ``max_total``
    all frequencies are halved (rounding up), which both bounds coder
    precision requirements and lets the model track non-stationary streams.
    """

    def __init__(self, num_symbols: int, increment: int = 32, max_total: int = 1 << 16):
        _check_model(num_symbols, increment, max_total)
        self.num_symbols = num_symbols
        self.increment = increment
        self.max_total = max_total
        self._freq = [1] * num_symbols
        self.total = num_symbols
        # Fenwick tree (1-based) over the frequencies.
        self._tree = [0] * (num_symbols + 1)
        for i in range(1, num_symbols + 1):
            self._tree[i] += 1
            parent = i + (i & -i)
            if parent <= num_symbols:
                self._tree[parent] += self._tree[i]
        top = 1
        while top * 2 <= num_symbols:
            top *= 2
        self._top = top

    def _tree_add(self, symbol: int, delta: int) -> None:
        i = symbol + 1
        tree = self._tree
        n = self.num_symbols
        while i <= n:
            tree[i] += delta
            i += i & -i

    def cum_range(self, symbol: int) -> tuple[int, int]:
        """Return ``(cum_low, cum_high)`` for ``symbol``."""
        i = symbol
        low = 0
        tree = self._tree
        while i > 0:
            low += tree[i]
            i -= i & -i
        return low, low + self._freq[symbol]

    def find(self, target: int) -> tuple[int, int, int]:
        """Locate the symbol whose cumulative range covers ``target``.

        Returns ``(symbol, cum_low, cum_high)``.
        """
        idx = 0
        remainder = target
        bitmask = self._top
        tree = self._tree
        n = self.num_symbols
        while bitmask:
            nxt = idx + bitmask
            if nxt <= n and tree[nxt] <= remainder:
                idx = nxt
                remainder -= tree[nxt]
            bitmask >>= 1
        cum_low = target - remainder
        return idx, cum_low, cum_low + self._freq[idx]

    def update(self, symbol: int) -> None:
        """Record one occurrence of ``symbol``."""
        self._freq[symbol] += self.increment
        self.total += self.increment
        self._tree_add(symbol, self.increment)
        if self.total > self.max_total:
            self._rescale()

    def _rescale(self) -> None:
        n = self.num_symbols
        freq = self._freq
        total = 0
        for s in range(n):
            freq[s] = (freq[s] + 1) // 2
            total += freq[s]
        self.total = total
        tree = self._tree
        for i in range(1, n + 1):
            tree[i] = 0
        for i in range(1, n + 1):
            tree[i] += freq[i - 1]
            parent = i + (i & -i)
            if parent <= n:
                tree[parent] += tree[i]


class ArithmeticEncoder:
    """32-bit integer arithmetic encoder (Witten–Neal–Cleary)."""

    def __init__(self) -> None:
        self._writer = BitWriter()
        self._low = 0
        self._high = _MASK
        self._pending = 0
        self._finished = False

    def encode(self, cum_low: int, cum_high: int, total: int) -> None:
        """Narrow the interval to ``[cum_low, cum_high) / total``."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        span = self._high - self._low + 1
        self._high = self._low + span * cum_high // total - 1
        self._low = self._low + span * cum_low // total
        low, high, pending = self._low, self._high, self._pending
        writer = self._writer
        while True:
            if high < _HALF:
                writer.write_bit(0)
                if pending:
                    writer.write_bits((1 << pending) - 1, pending)
                    pending = 0
            elif low >= _HALF:
                writer.write_bit(1)
                if pending:
                    writer.write_bits(0, pending)
                    pending = 0
                low -= _HALF
                high -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                pending += 1
                low -= _QUARTER
                high -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
        self._low, self._high, self._pending = low, high, pending

    def encode_symbol(self, model: AdaptiveModel, symbol: int) -> None:
        """Encode ``symbol`` under ``model`` and update the model."""
        cum_low, cum_high = model.cum_range(symbol)
        self.encode(cum_low, cum_high, model.total)
        model.update(symbol)

    def finish(self) -> bytes:
        """Flush the final disambiguating bits and return the byte stream."""
        if self._finished:
            raise RuntimeError("encoder already finished")
        self._finished = True
        self._pending += 1
        writer = self._writer
        if self._low < _QUARTER:
            writer.write_bit(0)
            writer.write_bits((1 << self._pending) - 1, self._pending)
        else:
            writer.write_bit(1)
            writer.write_bits(0, self._pending)
        return writer.getvalue()


class ArithmeticDecoder:
    """Mirror of :class:`ArithmeticEncoder`."""

    def __init__(self, data: bytes) -> None:
        self._reader = BitReader(data)
        self._low = 0
        self._high = _MASK
        self._code = self._reader.read_bits(_CODE_BITS)

    def decode_target(self, total: int) -> int:
        """Return the cumulative-frequency target for the next symbol."""
        span = self._high - self._low + 1
        return ((self._code - self._low + 1) * total - 1) // span

    def consume(self, cum_low: int, cum_high: int, total: int) -> None:
        """Advance past a symbol whose range was ``[cum_low, cum_high)``."""
        span = self._high - self._low + 1
        self._high = self._low + span * cum_high // total - 1
        self._low = self._low + span * cum_low // total
        low, high, code = self._low, self._high, self._code
        reader = self._reader
        while True:
            if high < _HALF:
                pass
            elif low >= _HALF:
                low -= _HALF
                high -= _HALF
                code -= _HALF
            elif low >= _QUARTER and high < _THREE_QUARTERS:
                low -= _QUARTER
                high -= _QUARTER
                code -= _QUARTER
            else:
                break
            low <<= 1
            high = (high << 1) | 1
            code = (code << 1) | reader.read_bit()
        self._low, self._high, self._code = low, high, code

    def decode_symbol(self, model: AdaptiveModel) -> int:
        """Decode one symbol under ``model`` and update the model."""
        symbol, cum_low, cum_high = model.find(self.decode_target(model.total))
        self.consume(cum_low, cum_high, model.total)
        model.update(symbol)
        return symbol


# -- fused whole-stream kernels --------------------------------------------------
#
# Both kernels keep the model as a two-level table: ``freq[s]`` per symbol
# and ``blocks[b]`` summing the 16 symbols ``16b .. 16b + 15``.  An update
# touches one entry of each; a cumulative count is two C-level ``sum``
# calls over at most 16 entries (encoder) or a short scan (decoder).
# Renormalisation emits or consumes every settled leading bit in one
# shift, ``32 - (low ^ high).bit_length()``, the same bits the
# per-symbol E1/E2 loop handles one at a time; E3 follows in a short loop.


def _block_sums(freq: list[int]) -> list[int]:
    return [sum(freq[i : i + 16]) for i in range(0, len(freq), 16)]


def _final_bits(acc: int, nbits: int, pending: int, low: int) -> bytes:
    """The ``nbits`` unflushed bits in ``acc`` plus the terminating ones,
    zero-padded to whole bytes."""
    pending += 1
    last = (1 << pending) - 1 if low < _QUARTER else 1 << pending
    acc = (acc << (pending + 1)) | last
    nbits += pending + 1
    pad = -nbits & 7
    return (acc << pad).to_bytes((nbits + pad) >> 3, "big")


def _encode_fused(
    symbols: list[int], num_symbols: int, increment: int, max_total: int
) -> bytes:
    freq = [1] * num_symbols
    blocks = _block_sums(freq)
    total = num_symbols
    low, high, pending = 0, _MASK, 0
    acc = nbits = 0  # output bits not yet flushed to ``out``
    out = bytearray()
    for s in symbols:
        b = s >> 4
        cum = sum(freq[s & -16 : s])
        if b:
            cum += sum(blocks[:b])
        f = freq[s]
        span = high - low + 1
        high = low + span * (cum + f) // total - 1
        low += span * cum // total
        freq[s] = f + increment
        blocks[b] += increment
        total += increment
        if total > max_total:
            freq = [(c + 1) >> 1 for c in freq]
            blocks = _block_sums(freq)
            total = sum(blocks)
        x = low ^ high
        if x < _HALF:
            k = 32 - x.bit_length()
            bits = low >> (32 - k)
            low = (low << k) & _MASK
            high = ((high << k) & _MASK) | ((1 << k) - 1)
            if pending:
                # The pending E3 bits follow the first settled bit, inverted.
                m = k - 1
                if bits >> m:
                    bits = (1 << (m + pending)) | (bits ^ (1 << m))
                else:
                    bits |= ((1 << pending) - 1) << m
                k += pending
                pending = 0
            acc = (acc << k) | bits
            nbits += k
            if nbits >= 64:
                r = nbits & 7
                out += (acc >> r).to_bytes(nbits >> 3, "big")
                acc &= (1 << r) - 1
                nbits = r
        while low >= _QUARTER and high < _THREE_QUARTERS:
            pending += 1
            low = (low - _QUARTER) << 1
            high = ((high - _QUARTER) << 1) | 1
    return bytes(out + _final_bits(acc, nbits, pending, low))


def _decode_fused(
    data: bytes,
    count: int,
    num_symbols: int,
    increment: int,
    max_total: int,
    stop_mask: int = 0,
) -> bytearray | list[int]:
    """Decode symbols until ``count`` of them have no bit of ``stop_mask`` set.

    With ``stop_mask=0`` that is exactly ``count`` symbols.  With ``0x80``
    the symbols are varint bytes and decoding stops after the ``count``-th
    terminator; ten continuation bytes in a row raise ``ValueError``.
    """
    freq = [1] * num_symbols
    blocks = _block_sums(freq)
    total = num_symbols
    data = bytes(data)
    # Input bits come 64 at a time; past the end they are zeros, as
    # BitReader gives them.
    buf = int.from_bytes(data[:8].ljust(8, b"\0"), "big")
    pos = 8
    avail = 32
    code = buf >> 32
    low, high = 0, _MASK
    # A bytearray holds byte symbols in 1 B each and converts to numpy
    # without a per-element loop.
    out: bytearray | list[int] = bytearray() if num_symbols <= 256 else []
    push = out.append
    done = run = 0
    while done < count:
        span = high - low + 1
        target = ((code - low + 1) * total - 1) // span
        rest = target
        b = 0
        while rest >= blocks[b]:
            rest -= blocks[b]
            b += 1
        s = b << 4
        while rest >= freq[s]:
            rest -= freq[s]
            s += 1
        cum = target - rest
        f = freq[s]
        high = low + span * (cum + f) // total - 1
        low += span * cum // total
        freq[s] = f + increment
        blocks[b] += increment
        total += increment
        if total > max_total:
            freq = [(c + 1) >> 1 for c in freq]
            blocks = _block_sums(freq)
            total = sum(blocks)
        push(s)
        if s & stop_mask:
            run += 1
            if run == 10:
                raise ValueError("corrupt varint in arithmetic stream")
        else:
            done += 1
            run = 0
        x = low ^ high
        if x < _HALF:
            k = 32 - x.bit_length()
            if avail < k:
                buf = ((buf & ((1 << avail) - 1)) << 64) | int.from_bytes(
                    data[pos : pos + 8].ljust(8, b"\0"), "big"
                )
                pos += 8
                avail += 64
            avail -= k
            low = (low << k) & _MASK
            high = ((high << k) & _MASK) | ((1 << k) - 1)
            code = ((code << k) & _MASK) | ((buf >> avail) & ((1 << k) - 1))
        while low >= _QUARTER and high < _THREE_QUARTERS:
            if not avail:
                buf = int.from_bytes(data[pos : pos + 8].ljust(8, b"\0"), "big")
                pos += 8
                avail = 64
            avail -= 1
            low = (low - _QUARTER) << 1
            high = ((high - _QUARTER) << 1) | 1
            code = ((code - _QUARTER) << 1) | ((buf >> avail) & 1)
    return out


# -- binary-context kernels ----------------------------------------------------
#
# Context-modelled binary coding keeps one ``AdaptiveModel(2, increment)``
# per context id ``c`` as two flat count lists: its cumulative ranges are
# ``(0, f0[c])`` for a 0 and ``(f0[c], f0[c] + f1[c])`` for a 1.  One bit
# therefore splits the interval once, at ``low + span * f0 // total`` (the
# decoder's ``target >= f0`` test is the same as ``code >= split``), and a
# total above the model's default ``max_total`` halves both counts,
# rounding up.  Renormalisation is the batched one of the fused kernels
# above.

#: ``AdaptiveModel``'s default ``max_total``, the binary models' too.
_BINARY_MAX_TOTAL = 1 << 16


def binary_context_encode(
    contexts: list[int], bits: list[int], f0: list[int], f1: list[int], increment: int
) -> bytes:
    """Code ``bits[i]`` under context ``contexts[i]``; updates ``f0``/``f1``.

    The bytes equal an :class:`ArithmeticEncoder` run that codes each bit
    with ``encode_symbol`` under its context's binary model.
    """
    low, high, pending = 0, _MASK, 0
    acc = nbits = 0  # output bits not yet flushed to ``out``
    out = bytearray()
    for c, bit in zip(contexts, bits):
        n0 = f0[c]
        n1 = f1[c]
        split = low + (high - low + 1) * n0 // (n0 + n1)
        if bit:
            low = split
            n1 += increment
        else:
            high = split - 1
            n0 += increment
        if n0 + n1 > _BINARY_MAX_TOTAL:
            n0 = (n0 + 1) >> 1
            n1 = (n1 + 1) >> 1
        f0[c] = n0
        f1[c] = n1
        x = low ^ high
        if x < _HALF:
            k = 32 - x.bit_length()
            out_bits = low >> (32 - k)
            low = (low << k) & _MASK
            high = ((high << k) & _MASK) | ((1 << k) - 1)
            if pending:
                m = k - 1
                if out_bits >> m:
                    out_bits = (1 << (m + pending)) | (out_bits ^ (1 << m))
                else:
                    out_bits |= ((1 << pending) - 1) << m
                k += pending
                pending = 0
            acc = (acc << k) | out_bits
            nbits += k
            if nbits >= 64:
                r = nbits & 7
                out += (acc >> r).to_bytes(nbits >> 3, "big")
                acc &= (1 << r) - 1
                nbits = r
        while low >= _QUARTER and high < _THREE_QUARTERS:
            pending += 1
            low = (low - _QUARTER) << 1
            high = ((high - _QUARTER) << 1) | 1
    return bytes(out + _final_bits(acc, nbits, pending, low))


def binary_context_decoder(
    data: bytes, f0: list[int], f1: list[int], increment: int
) -> Generator[bytearray, list[list[int]], None]:
    """Decode a :func:`binary_context_encode` stream in batches.

    Prime the generator with ``next()``, then ``send`` it one batch of
    rows at a time (one octree level, say, so the caller can derive the
    next contexts from what it decoded); it answers one byte per row.
    Bit ``b`` (least significant first) of a row's byte is coded under
    context ``row[b] + min(p, 2)``, ``p`` being the 1 bits already
    decoded in that byte.  Updates ``f0``/``f1`` in place.
    """
    data = bytes(data)
    buf = int.from_bytes(data[:8].ljust(8, b"\0"), "big")
    pos = 8
    avail = 32
    code = buf >> 32
    low, high = 0, _MASK
    out = bytearray()
    while True:
        bases = yield out
        out = bytearray()
        for row in bases:
            byte = 0
            p = 0
            mask = 1
            for c in row:
                c += p
                n0 = f0[c]
                n1 = f1[c]
                split = low + (high - low + 1) * n0 // (n0 + n1)
                if code >= split:
                    low = split
                    n1 += increment
                    byte |= mask
                    if p < 2:
                        p += 1
                else:
                    high = split - 1
                    n0 += increment
                mask <<= 1
                if n0 + n1 > _BINARY_MAX_TOTAL:
                    n0 = (n0 + 1) >> 1
                    n1 = (n1 + 1) >> 1
                f0[c] = n0
                f1[c] = n1
                x = low ^ high
                if x < _HALF:
                    k = 32 - x.bit_length()
                    if avail < k:
                        buf = ((buf & ((1 << avail) - 1)) << 64) | int.from_bytes(
                            data[pos : pos + 8].ljust(8, b"\0"), "big"
                        )
                        pos += 8
                        avail += 64
                    avail -= k
                    low = (low << k) & _MASK
                    high = ((high << k) & _MASK) | ((1 << k) - 1)
                    code = ((code << k) & _MASK) | ((buf >> avail) & ((1 << k) - 1))
                while low >= _QUARTER and high < _THREE_QUARTERS:
                    if not avail:
                        buf = int.from_bytes(data[pos : pos + 8].ljust(8, b"\0"), "big")
                        pos += 8
                        avail = 64
                    avail -= 1
                    low = (low - _QUARTER) << 1
                    high = ((high - _QUARTER) << 1) | 1
                    code = ((code - _QUARTER) << 1) | ((buf >> avail) & 1)
            out.append(byte)


def _checked_symbols(symbols: np.ndarray, num_symbols: int) -> np.ndarray:
    arr = np.asarray(symbols, dtype=np.int64)
    if arr.size and (arr.min() < 0 or arr.max() >= num_symbols):
        raise ValueError("symbol out of alphabet range")
    return arr


def arithmetic_encode(
    symbols: np.ndarray, num_symbols: int, increment: int = 32, max_total: int = 1 << 16
) -> bytes:
    """Adaptively encode a symbol sequence; inverse is :func:`arithmetic_decode`."""
    arr = _checked_symbols(symbols, num_symbols)
    _check_model(num_symbols, increment, max_total)
    return _encode_fused(arr.tolist(), num_symbols, increment, max_total)


def arithmetic_decode(
    data: bytes,
    count: int,
    num_symbols: int,
    increment: int = 32,
    max_total: int = 1 << 16,
) -> np.ndarray:
    """Decode ``count`` symbols produced by :func:`arithmetic_encode`."""
    _check_model(num_symbols, increment, max_total)
    _check_count(count, len(data), num_symbols, increment, max_total)
    symbols = _decode_fused(data, count, num_symbols, increment, max_total)
    return np.array(symbols, dtype=np.int64)


# -- integer sequences -----------------------------------------------------------

#: ``(num_symbols, increment, max_total)`` of the varint-byte model.
_BYTE_MODEL = (256, 32, 1 << 16)


def _int_sequence_checksum(byte_sum: int, n_bytes: int) -> int:
    """One-byte integrity check over the zigzag-varint byte stream."""
    return (byte_sum + n_bytes) & 0xFF


def _int_sequence_parts(values: np.ndarray) -> tuple[bytes, bytes]:
    """``(header, varint byte stream)`` of :func:`encode_int_sequence`."""
    arr = np.asarray(values, dtype=np.int64)
    header = bytearray()
    encode_uvarint(arr.size, header)
    if arr.size == 0:
        return bytes(header), b""
    byte_stream = encode_varints(arr, signed=True)
    header.append(_int_sequence_checksum(sum(byte_stream), len(byte_stream)))
    return bytes(header), byte_stream


def _int_sequence_header(data: bytes, checksum: bool) -> tuple[int, int, int]:
    """``(count, expected checksum, payload offset)``; ``count`` is validated.

    Each value takes at least one symbol, so a count the payload cannot
    hold as symbols is rejected before decoding.
    """
    count, pos = decode_uvarint(data, 0)
    if count == 0:
        return 0, 0, pos
    expected = 0
    if checksum:
        if pos >= len(data):
            raise ValueError("truncated int sequence (missing checksum)")
        expected = data[pos]
        pos += 1
    _check_count(count, len(data) - pos, *_BYTE_MODEL)
    return count, expected, pos


def encode_int_sequence(values: np.ndarray) -> bytes:
    """Compress arbitrary signed integers: zigzag varint bytes + arithmetic.

    Self-contained: the element count is stored in a varint header, followed
    by a one-byte checksum of the varint byte stream, so
    :func:`decode_int_sequence` needs only the byte string and a truncated
    payload raises ``ValueError`` instead of decoding plausible garbage
    (the underlying :class:`~repro.entropy.bitio.BitReader` yields phantom
    zero bits past end-of-stream, so truncation is otherwise silent).
    """
    header, byte_stream = _int_sequence_parts(values)
    if not byte_stream:
        return header
    return header + _encode_fused(list(byte_stream), *_BYTE_MODEL)


def decode_int_sequence(data: bytes, checksum: bool = True) -> np.ndarray:
    """Inverse of :func:`encode_int_sequence`.

    ``checksum=False`` decodes the legacy format-v1 layout, which carried
    no integrity byte between the count header and the arithmetic payload
    (needed to read v1 DBGC containers bit-identically).
    """
    count, expected, pos = _int_sequence_header(data, checksum)
    if count == 0:
        return np.empty(0, dtype=np.int64)
    # Varints are self-delimiting: the kernel stops after `count` terminators.
    raw = _decode_fused(data[pos:], count, *_BYTE_MODEL, stop_mask=0x80)
    values = decode_varints(raw, count, signed=True)
    if checksum and _int_sequence_checksum(sum(raw), len(raw)) != expected:
        raise ValueError("truncated or corrupt int sequence (checksum mismatch)")
    return values
