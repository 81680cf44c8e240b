import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from appowers import poly
from appowers.intkernel import kth_power_t_window
from appowers.poly import Poly, difference_quotient, parse_poly, preimage_range

small_polys = st.lists(st.integers(min_value=-100, max_value=100),
                       min_size=2, max_size=6).filter(lambda c: c[-1] != 0)


class TestPoly:
    def test_normalization(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly(()).degree == -1
        assert Poly((0, 0)).degree == -1

    def test_normalization_is_linear(self):
        # one --poly argument can carry tens of thousands of zeros, so they
        # must be stripped in linear time
        start = time.perf_counter()
        assert Poly((1,) + (0,) * 200_000).coeffs == (1,)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("coeffs,t,want", [
        ((0, 0, 1), 7, 49),            # t^2
        ((0, -1, 0, 1), 2, 6),         # t^3 - t
        ((1, 3, 2), -4, 21),           # 2t^2 + 3t + 1, by hand
    ])
    def test_eval_examples(self, coeffs, t, want):
        assert Poly(coeffs)(t) == want

    def test_monomial(self):
        assert Poly.monomial(3).coeffs == (0, 0, 0, 1)
        assert Poly.monomial(3).is_monic_monomial
        assert not Poly((0, 0, 2)).is_monic_monomial
        assert not Poly((1, 0, 1)).is_monic_monomial
        with pytest.raises(ValueError):
            Poly.monomial(-1)

    def test_parse(self):
        assert parse_poly("1,0,2").coeffs == (1, 0, 2)
        assert parse_poly(" 5 ").coeffs == (5,)
        with pytest.raises(ValueError):
            parse_poly("1,x")
        with pytest.raises(ValueError):
            parse_poly("")


class TestDifferenceQuotient:
    @pytest.mark.parametrize("coeffs,t0,want", [
        ((0, 0, 0, 1), 2, (4, 2, 1)),      # t^3 at 2 -> t^2 + 2t + 4
        ((0, 0, 1), 1, (1, 1)),            # t^2 at 1 -> t + 1
        ((5, -2, 0, 1), -1, (-1, -1, 1)),  # checked: (t+1)(t^2-t-1) = t^3-2t-1
    ])
    def test_examples(self, coeffs, t0, want):
        assert difference_quotient(Poly(coeffs), t0).coeffs == want

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            difference_quotient(Poly((5,)), 0)
        with pytest.raises(ValueError):
            difference_quotient(Poly(()), 0)

    @given(small_polys, st.integers(min_value=-50, max_value=50),
           st.integers(min_value=-50, max_value=50))
    @settings(max_examples=300)
    def test_identity(self, coeffs, t0, t):
        P = Poly(tuple(coeffs))
        Q = difference_quotient(P, t0)
        assert Q.degree == P.degree - 1
        assert P(t) - P(t0) == (t - t0) * Q(t)

    @given(st.lists(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                    min_size=2, max_size=7).filter(lambda c: c[-1] != 0),
           st.integers(min_value=-10 ** 6, max_value=10 ** 6))
    @settings(max_examples=300)
    def test_synthetic_division(self, coeffs, t0):
        # the one tableau both difference_quotient and the sweep's witness
        # check read: P(t0) last, Q's coefficients highest first before it
        P = Poly(tuple(coeffs))
        row = poly._synthetic_division(reversed(P.coeffs), t0)
        assert row[-1] == P(t0) == sum(c * t0 ** i for i, c in enumerate(coeffs))
        assert tuple(row[:-1]) == difference_quotient(P, t0).coeffs[::-1]
        Q = Poly(tuple(reversed(row[:-1])))
        assert P(t0 + 1) - P(t0) == Q(t0 + 1)


def flatten(segments):
    return [t for A, B in segments for t in range(A, B + 1)]


class TestPreimageRange:
    @pytest.mark.parametrize("coeffs,lo,hi,want", [
        ((0, 0, 1), 2, 101, [(-10, -2), (2, 10)]),
        # t^3 inherits the cut of 3t^2 at 0
        ((0, 0, 0, 1), -8, 8, [(-2, 0), (1, 2)]),
        ((1, 2), 1, 9, [(0, 4)]),
    ])
    def test_examples(self, coeffs, lo, hi, want):
        assert preimage_range(Poly(coeffs), lo, hi) == want

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            preimage_range(Poly((7,)), 0, 10)
        with pytest.raises(ValueError):
            preimage_range(Poly.monomial(2), 5, 4)

    @given(small_polys, st.integers(min_value=-2000, max_value=2000),
           st.integers(min_value=0, max_value=4000))
    @settings(max_examples=200)
    def test_matches_brute_force(self, coeffs, lo, width):
        P = Poly(tuple(coeffs))
        if P.degree < 1:
            return
        hi = lo + width
        got = flatten(preimage_range(P, lo, hi))
        want = [t for t in range(-10 ** 4, 10 ** 4 + 1) if lo <= P(t) <= hi]
        assert got == want

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1,
                    max_size=5),
           st.integers(min_value=1, max_value=9), st.booleans(),
           st.integers(min_value=-3000, max_value=3000),
           st.integers(min_value=0, max_value=3000))
    @settings(max_examples=200, deadline=None)
    def test_segment_shape(self, low, lead, negate, lo, width):
        """Ascending, disjoint segments, P strictly monotone on each, that
        flatten to every t with P(t) in [lo, hi]."""
        P = Poly(tuple(low) + (-lead if negate else lead,))
        hi = lo + width
        segments = preimage_range(P, lo, hi)
        assert all(A <= B for A, B in segments)
        assert all(B < A2 for (_, B), (A2, _) in zip(segments, segments[1:]))
        for A, B in segments:
            steps = [P(t + 1) - P(t) for t in range(A, B)]
            assert all(d > 0 for d in steps) or all(d < 0 for d in steps)
        # Cauchy's bound, |t| <= 1 + max|c_i| + max(|lo|, |hi|) with |c_n| >= 1
        limit = 1 + max(map(abs, low)) + max(abs(lo), abs(hi))
        assert flatten(segments) == [t for t in range(-limit, limit + 1)
                                     if lo <= P(t) <= hi]

    @given(small_polys, st.integers(min_value=-10 ** 6, max_value=10 ** 6),
           st.integers(min_value=-10 ** 6, max_value=10 ** 6))
    @settings(max_examples=100, deadline=None)
    def test_within_cauchy_window(self, coeffs, lo, hi):
        """Complete over Cauchy's window 1 + max|c_i / c_n|, never wider."""
        P = Poly(tuple(coeffs))
        lo, hi = min(lo, hi), max(lo, hi)
        lead = abs(P.coeffs[-1])
        tops = [max(abs(P.coeffs[0] - s), *map(abs, P.coeffs[1:-1]), 0)
                for s in (lo, hi)]
        cauchy = 1 + -(-max(tops) // lead)
        assert flatten(preimage_range(P, lo, hi)) == [
            t for t in range(-cauchy, cauchy + 1) if lo <= P(t) <= hi]

    @given(st.lists(st.integers(min_value=-2, max_value=2), min_size=12,
                    max_size=40),
           st.sampled_from([-2, -1, 1, 2]),
           st.integers(min_value=-3, max_value=3),
           st.integers(min_value=0, max_value=4))
    @settings(max_examples=100, deadline=None)
    def test_narrow_bracket_cut_into_integers(self, low, lead, lo, width):
        """A bracket [-B, B] with fewer t than deg P is cut into single t;
        they flatten to the same t as the monotone pieces' segments."""
        P = Poly(tuple(low) + (lead,))
        hi = lo + width
        bound = max(poly._root_bound(P.coeffs, lo),
                    poly._root_bound(P.coeffs, hi))
        assume(2 * bound < P.degree)
        segments = preimage_range(P, lo, hi)
        assert all(A == B for A, B in segments)
        monotone = []
        for x, y in poly._monotone_pieces(P, -bound, bound):
            hits = [t for t in range(x, y + 1) if lo <= P(t) <= hi]
            if hits:  # P is monotone on the piece, so its hits are a run
                assert hits == list(range(hits[0], hits[-1] + 1))
                monotone.append((hits[0], hits[-1]))
        assert flatten(segments) == flatten(monotone)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lo,hi", [
        (0, 0), (0, 10 ** 5), (5, 10 ** 5), (10 ** 4, 10 ** 4 + 50),
        (-10 ** 5, 10 ** 5), (-10 ** 5, -5), (-30, 40),
    ])
    def test_monomial_matches_exact_window(self, k, lo, hi):
        """t**k gets the same t as from its exact kth-root window, which
        for even k holds the t >= 0 and is mirrored here to the t < 0."""
        A, B = kth_power_t_window(k, lo, hi)
        window = list(range(A, B + 1))
        if k % 2 == 0:
            window = [-t for t in reversed(window) if t] + window
        assert flatten(preimage_range(Poly.monomial(k), lo, hi)) == window
