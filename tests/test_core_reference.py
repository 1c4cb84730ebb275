"""Tests for radial-distance-optimized delta encoding (Definition 3.3)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.reference import (
    build_consensus,
    decode_radial,
    decode_radial_plain,
    decode_radial_py,
    encode_radial,
    encode_radial_plain,
)


def _lines(spec):
    """Build (theta_arrays, r_arrays) from [(thetas, rs), ...]."""
    thetas = [np.asarray(t, dtype=np.int64) for t, _ in spec]
    rs = [np.asarray(r, dtype=np.int64) for _, r in spec]
    return thetas, rs


class TestConsensus:
    def test_empty(self):
        assert build_consensus([]) == ([], [])

    def test_single_line_copied(self):
        t, r = build_consensus([(np.array([1, 2, 3]), np.array([10, 11, 12]))])
        assert t == [1, 2, 3]
        assert r == [10, 11, 12]

    def test_disjoint_lines_concatenated(self):
        t, r = build_consensus(
            [
                (np.array([1, 2]), np.array([10, 11])),
                (np.array([5, 6]), np.array([20, 21])),
            ]
        )
        assert t == [1, 2, 5, 6]
        assert r == [10, 11, 20, 21]

    def test_overlapping_line_replaces_span(self):
        t, r = build_consensus(
            [
                (np.array([1, 2, 3, 4, 5]), np.array([10, 11, 12, 13, 14])),
                (np.array([2, 3, 4]), np.array([20, 21, 22])),
            ]
        )
        # Points of the first line with theta in (1, 5) are replaced.
        assert t == [1, 2, 3, 4, 5]
        assert r == [10, 20, 21, 22, 14]

    def test_contained_line_inserted(self):
        t, r = build_consensus(
            [
                (np.array([1, 10]), np.array([10, 11])),
                (np.array([4, 5]), np.array([20, 21])),
            ]
        )
        assert t == [1, 4, 5, 10]
        assert r == [10, 20, 21, 11]


class TestRadialRoundtrip:
    def _roundtrip(self, spec, th_phi=2, th_r=50):
        lines_theta, lines_r = _lines(spec)
        line_phis = list(range(len(spec)))
        nabla, symbols = encode_radial(lines_theta, lines_r, line_phis, th_phi, th_r)
        decoded = decode_radial(lines_theta, line_phis, nabla, symbols, th_phi, th_r)
        for got, want in zip(decoded, lines_r):
            assert np.array_equal(got, want)
        return nabla, symbols

    def test_single_line(self):
        self._roundtrip([([1, 2, 3, 4], [100, 101, 99, 100])])

    def test_flat_scene_no_symbols(self):
        # All radial values near each other: situation (2a) everywhere.
        nabla, symbols = self._roundtrip(
            [
                ([1, 2, 3, 4], [100, 101, 100, 99]),
                ([1, 2, 3, 4], [101, 100, 99, 100]),
            ],
            th_r=50,
        )
        assert len(symbols) == 0

    def test_object_boundary_emits_symbols(self):
        # Second line jumps radially where the first did too: the upper
        # reference should win and symbols get recorded.
        nabla, symbols = self._roundtrip(
            [
                ([1, 2, 3, 4, 5], [100, 100, 500, 500, 500]),
                ([1, 2, 3, 4, 5], [100, 100, 500, 500, 500]),
            ],
            th_r=50,
        )
        assert len(symbols) > 0

    def test_reference_beats_plain_delta_on_aligned_jumps(self):
        """The motivating case: vertical object edges shared across lines."""
        spec = []
        for _ in range(10):
            spec.append((list(range(20)), [100] * 10 + [900] * 10))
        lines_theta, lines_r = _lines(spec)
        line_phis = list(range(10))
        nabla_opt, symbols = encode_radial(lines_theta, lines_r, line_phis, 2, 50)
        nabla_plain = encode_radial_plain(lines_r)
        # Optimized: each non-first line copies the jump from above ->
        # near-zero nablas; plain delta pays the 800 jump on every line.
        assert np.abs(nabla_opt[20:]).sum() < np.abs(nabla_plain[20:]).sum() / 10

    def test_empty_lines_list(self):
        nabla, symbols = encode_radial([], [], [], 2, 50)
        assert nabla.size == 0
        assert decode_radial([], [], nabla, symbols, 2, 50) == []

    def test_phi_window_limits_references(self):
        # Lines 0 and 1 are far apart in phi: no reference set, plain-ish.
        lines_theta, lines_r = _lines(
            [([1, 2], [10, 11]), ([1, 2], [500, 501])]
        )
        nabla, symbols = encode_radial(lines_theta, lines_r, [0, 100], th_phi=2, th_r=5)
        decoded = decode_radial(lines_theta, [0, 100], nabla, symbols, 2, 5)
        assert np.array_equal(decoded[1], lines_r[1])

    @given(
        st.lists(
            st.lists(st.integers(0, 3000), min_size=1, max_size=15),
            min_size=1,
            max_size=8,
        ),
        st.integers(1, 10),
        st.integers(1, 200),
    )
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, raw_lines, th_phi, th_r):
        spec = []
        for rs in raw_lines:
            thetas = sorted(set(range(len(rs))))  # strictly increasing
            spec.append((thetas[: len(rs)], rs[: len(thetas)]))
        lines_theta, lines_r = _lines(spec)
        line_phis = sorted(
            np.random.default_rng(0).integers(0, 20, len(spec)).tolist()
        )
        nabla, symbols = encode_radial(lines_theta, lines_r, line_phis, th_phi, th_r)
        decoded = decode_radial(lines_theta, line_phis, nabla, symbols, th_phi, th_r)
        for got, want in zip(decoded, lines_r):
            assert np.array_equal(got, want)


class TestShortSymbolStream:
    """A short L_ref stream is a typed decode error, never a bare StopIteration."""

    def _encoded(self):
        rng = np.random.default_rng(5)
        spec = [(list(range(30)), rng.integers(0, 3000, 30).tolist()) for _ in range(6)]
        lines_theta, lines_r = _lines(spec)
        line_phis = list(range(len(spec)))
        nabla, symbols = encode_radial(lines_theta, lines_r, line_phis, 2, 5)
        assert len(symbols) >= 4
        short = np.asarray(symbols[: len(symbols) // 2], dtype=np.int64)
        return lines_theta, line_phis, nabla, short

    @pytest.mark.parametrize("decode", [decode_radial, decode_radial_py])
    def test_direct_call(self, decode):
        lines_theta, line_phis, nabla, short = self._encoded()
        with pytest.raises(ValueError, match="reference symbol stream too short"):
            decode(lines_theta, line_phis, nabla, short, 2, 5)

    @pytest.mark.parametrize("decode", [decode_radial, decode_radial_py])
    def test_inside_generator(self, decode):
        """PEP 479 would turn a leaked StopIteration into RuntimeError here."""
        lines_theta, line_phis, nabla, short = self._encoded()

        def frames():
            yield decode(lines_theta, line_phis, nabla, short, 2, 5)

        with pytest.raises(ValueError, match="reference symbol stream too short"):
            list(frames())


class TestPlainRadial:
    def test_roundtrip(self):
        lines_r = [np.array([5, 7, 6]), np.array([100]), np.array([50, 40])]
        nabla = encode_radial_plain(lines_r)
        decoded = decode_radial_plain(nabla, [3, 1, 2])
        for got, want in zip(decoded, lines_r):
            assert np.array_equal(got, want)

    def test_first_head_raw(self):
        nabla = encode_radial_plain([np.array([42, 44])])
        assert nabla[0] == 42
        assert nabla[1] == 2

    def test_heads_delta_across_lines(self):
        nabla = encode_radial_plain([np.array([100]), np.array([103])])
        assert nabla.tolist() == [100, 3]
