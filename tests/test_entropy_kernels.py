"""Fused arithmetic-coding kernels vs their per-symbol ``*_py`` oracles.

The whole-stream coder functions run one fused loop per stream; the
original per-symbol implementations are the oracles (``tests/oracles.py``).
These tests pin the contract: identical bytes on encode, and on decode the
oracle's array or the oracle's exception type -- for valid payloads and
for mutated or truncated ones -- within a time bound.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.entropy.arithmetic import (
    ArithmeticEncoder,
    AdaptiveModel,
    arithmetic_decode,
    arithmetic_encode,
    decode_int_sequence,
    encode_int_sequence,
)
from repro.entropy.varint import decode_uvarint, encode_uvarint
from tests.oracles import (
    arithmetic_decode_py,
    arithmetic_encode_py,
    decode_int_sequence_py,
    encode_int_sequence_py,
)

ALPHABETS = [1, 2, 3, 4, 15, 16, 17, 255, 256, 300]
INT64_MIN = np.iinfo(np.int64).min
INT64_MAX = np.iinfo(np.int64).max

#: Wall-time bound for one decode of a small corrupt payload.
DECODE_BOUND_S = 5.0


def _outcome(fn, *args):
    """``("ok", array)`` or ``("raise", exception type)``, timed."""
    start = time.perf_counter()
    try:
        result = ("ok", fn(*args))
    except ValueError as exc:
        result = ("raise", type(exc))
    elapsed = time.perf_counter() - start
    assert elapsed < DECODE_BOUND_S, f"{fn.__name__} took {elapsed:.1f} s"
    return result


def _assert_same_outcome(kernel, oracle):
    assert kernel[0] == oracle[0], (kernel, oracle)
    if kernel[0] == "ok":
        assert np.array_equal(kernel[1], oracle[1])
    else:
        assert kernel[1] is oracle[1]


def _mutations(payload: bytes, seed: int, cases: int):
    """Seeded 1-4 byte overwrites and truncations of ``payload``."""
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        if not payload or rng.random() < 0.25:
            yield payload[: int(rng.integers(0, len(payload) + 1))]
            continue
        mutated = bytearray(payload)
        for pos in rng.integers(0, len(payload), size=int(rng.integers(1, 5))):
            mutated[pos] = int(rng.integers(0, 256))
        yield bytes(mutated)


def _midpoint_stream(n: int, length: int, increment: int):
    """Symbols whose interval always holds the midpoint, and the pending count.

    Such a stream never settles a leading bit (E1/E2), so every
    renormalisation is an E3 step and all its bits stay pending until the
    final flush.
    """
    model = AdaptiveModel(n, increment=increment)
    encoder = ArithmeticEncoder()
    symbols = []
    for _ in range(length):
        span = encoder._high - encoder._low + 1
        target = ((2**31 - encoder._low + 1) * model.total - 1) // span
        symbol = model.find(target)[0]
        encoder.encode_symbol(model, symbol)
        symbols.append(symbol)
    return np.asarray(symbols, dtype=np.int64), encoder._pending


@st.composite
def _streams(draw):
    n = draw(st.sampled_from(ALPHABETS))
    increment = draw(st.sampled_from([1, 7, 32, 255]))
    # A max_total just above the 2n minimum rescales every few symbols.
    max_total = draw(st.sampled_from([2 * n, 2 * n + 3, 4 * n + 64, 1 << 16]))
    hot = draw(st.integers(0, n - 1))
    raw = draw(
        st.lists(st.one_of(st.just(hot), st.integers(0, n - 1)), max_size=600)
    )
    return np.asarray(raw, dtype=np.int64), n, increment, max_total


class TestSymbolKernel:
    @given(_streams())
    @settings(max_examples=300, deadline=None)
    def test_encode_decode_match_oracle(self, stream):
        symbols, n, increment, max_total = stream
        payload = arithmetic_encode(symbols, n, increment, max_total)
        assert payload == arithmetic_encode_py(symbols, n, increment, max_total)
        decoded = arithmetic_decode(payload, len(symbols), n, increment, max_total)
        assert decoded.dtype == np.int64
        assert np.array_equal(decoded, symbols)
        assert np.array_equal(
            decoded, arithmetic_decode_py(payload, len(symbols), n, increment, max_total)
        )

    @pytest.mark.parametrize("n", ALPHABETS)
    def test_empty_stream(self, n):
        empty = np.empty(0, dtype=np.int64)
        payload = arithmetic_encode(empty, n)
        assert payload == arithmetic_encode_py(empty, n)
        assert arithmetic_decode(payload, 0, n).size == 0

    @pytest.mark.parametrize("n, increment", [(2, 1), (4, 1), (17, 1), (256, 32), (300, 7)])
    def test_pending_heavy_stream(self, n, increment):
        symbols, pending = _midpoint_stream(n, 3000, increment)
        assert pending >= 100
        payload = arithmetic_encode(symbols, n, increment)
        assert payload == arithmetic_encode_py(symbols, n, increment)
        assert np.array_equal(arithmetic_decode(payload, 3000, n, increment), symbols)
        assert np.array_equal(arithmetic_decode_py(payload, 3000, n, increment), symbols)

    def test_long_skewed_stream(self):
        rng = np.random.default_rng(3)
        symbols = np.minimum(rng.geometric(0.4, size=20_000) - 1, 299)
        payload = arithmetic_encode(symbols, 300)
        assert payload == arithmetic_encode_py(symbols, 300)
        assert np.array_equal(arithmetic_decode(payload, symbols.size, 300), symbols)

    def test_rejects_what_the_oracle_rejects(self):
        for args in ([np.array([4]), 4], [np.array([-1]), 4], [np.array([0]), 0]):
            with pytest.raises(ValueError):
                arithmetic_encode(*args)
            with pytest.raises(ValueError):
                arithmetic_encode_py(*args)
        for args in ([b"\x00", -1, 4], [b"\x00", 1, 4, 0]):
            with pytest.raises(ValueError):
                arithmetic_decode(*args)
            with pytest.raises(ValueError):
                arithmetic_decode_py(*args)

    def test_count_beyond_payload_capacity_rejected(self):
        """A corrupt count fails fast instead of decoding phantom bits."""
        for fn in (arithmetic_decode, arithmetic_decode_py):
            with pytest.raises(ValueError, match="cannot fit"):
                fn(b"\x12\x34", 1 << 40, 256)
            with pytest.raises(ValueError, match="cannot fit"):
                fn(b"", 1, 2)

    @pytest.mark.parametrize("n", [2, 4, 16, 256])
    def test_mutated_payloads_match_oracle(self, n):
        rng = np.random.default_rng(n)
        symbols = np.minimum(rng.geometric(0.3, size=400) - 1, n - 1)
        payload = arithmetic_encode(symbols, n)
        for data in _mutations(payload, seed=n, cases=120):
            _assert_same_outcome(
                _outcome(arithmetic_decode, data, symbols.size, n),
                _outcome(arithmetic_decode_py, data, symbols.size, n),
            )


def _int_payload(varint_bytes: bytes, count: int, checksum: int | None) -> bytes:
    """A hand-built int sequence around an arbitrary varint byte stream."""
    out = bytearray()
    encode_uvarint(count, out)
    if checksum is not None:
        out.append(checksum)
    symbols = np.frombuffer(varint_bytes, dtype=np.uint8)
    return bytes(out) + arithmetic_encode(symbols, 256)


def _without_checksum(payload: bytes) -> bytes:
    """The format-v1 layout of an int sequence: no checksum byte."""
    _, pos = decode_uvarint(payload, 0)
    return payload[:pos] + payload[pos + 1 :]


class TestIntSequenceKernel:
    @given(
        st.lists(
            st.one_of(
                st.integers(-3, 3),
                st.integers(-(2**20), 2**20),
                st.integers(INT64_MIN, INT64_MAX),
            ),
            max_size=300,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, values):
        arr = np.asarray(values, dtype=np.int64)
        payload = encode_int_sequence(arr)
        assert payload == encode_int_sequence_py(arr)
        assert np.array_equal(decode_int_sequence(payload), arr)
        assert np.array_equal(decode_int_sequence_py(payload), arr)

    def test_int64_extremes(self):
        arr = np.array([INT64_MIN, INT64_MAX, 0, -1, 1, INT64_MIN + 1], dtype=np.int64)
        payload = encode_int_sequence(arr)
        assert payload == encode_int_sequence_py(arr)
        assert np.array_equal(decode_int_sequence(payload), arr)
        assert np.array_equal(decode_int_sequence(_without_checksum(payload), False), arr)

    @pytest.mark.parametrize("checksum", [True, False])
    def test_all_continuation_stream_raises(self, checksum):
        """Ten continuation bytes in a row end the decode with ValueError."""
        data = _int_payload(b"\x80" * 64, 3, 0 if checksum else None)
        for fn in (decode_int_sequence, decode_int_sequence_py):
            _, exc = _outcome(fn, data, checksum)
            assert exc is ValueError

    def test_ten_byte_overflow_raises(self):
        """A 10th varint byte above 1 overflows 64 bits (silent wrap before)."""
        raw = bytes([0xFF] * 9 + [0x7F])
        data = _int_payload(raw, 1, (sum(raw) + len(raw)) & 0xFF)
        for fn in (decode_int_sequence, decode_int_sequence_py):
            with pytest.raises(ValueError):
                fn(data)

    def test_corrupt_count_fails_fast(self):
        payload = bytearray(encode_int_sequence(np.arange(50)))
        huge = bytearray()
        encode_uvarint(1 << 50, huge)
        for fn in (decode_int_sequence, decode_int_sequence_py):
            with pytest.raises(ValueError, match="cannot fit"):
                fn(bytes(huge) + bytes(payload[1:]))

    @pytest.mark.parametrize("checksum", [True, False])
    def test_mutated_payloads_match_oracle(self, checksum):
        rng = np.random.default_rng(7)
        values = np.concatenate(
            [rng.integers(-40, 40, size=150), rng.integers(-(2**40), 2**40, size=10)]
        )
        payload = encode_int_sequence(values)
        if not checksum:
            payload = _without_checksum(payload)
        assert np.array_equal(decode_int_sequence(payload, checksum), values)
        for data in _mutations(payload, seed=11 + checksum, cases=300):
            _assert_same_outcome(
                _outcome(decode_int_sequence, data, checksum),
                _outcome(decode_int_sequence_py, data, checksum),
            )
