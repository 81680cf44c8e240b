import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appowers.errors import WindowCapError
from appowers.intkernel import kth_power_t_window
from appowers.poly import Poly, difference_quotient, parse_poly, preimage_range

small_polys = st.lists(st.integers(min_value=-100, max_value=100),
                       min_size=2, max_size=6).filter(lambda c: c[-1] != 0)


class TestPoly:
    def test_normalization(self):
        assert Poly((1, 2, 0, 0)).coeffs == (1, 2)
        assert Poly(()).degree == -1
        assert Poly((0, 0)).degree == -1

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


class TestPreimageRange:
    @pytest.mark.parametrize("coeffs,lo,hi,want", [
        ((0, 0, 1), 2, 101, list(range(-10, -1)) + list(range(2, 11))),
        ((0, 0, 0, 1), -8, 8, [-2, -1, 0, 1, 2]),
        ((1, 2), 1, 9, [0, 1, 2, 3, 4]),
    ])
    def test_examples(self, coeffs, lo, hi, want):
        assert preimage_range(Poly(coeffs), lo, hi, 10 ** 6) == want

    def test_cap(self):
        with pytest.raises(WindowCapError):
            preimage_range(Poly((0, 1)), 0, 10 ** 9, 100)
        with pytest.raises(WindowCapError):
            preimage_range(Poly.monomial(2), 0, 10 ** 9, 100)
        # 2t^2 + 1 in [3, 2e7 + 1] is 1 <= |t| <= 3162; the root bound of
        # 2t^2 - 2e7 is 2 * ceil(sqrt(5e6)) = 4474 (Cauchy's is 1e7 + 1).
        P, lo, hi = Poly((1, 0, 2)), 3, 2 * 10 ** 7 + 1
        assert len(preimage_range(P, lo, hi, 4474)) == 6324
        with pytest.raises(WindowCapError) as err:
            preimage_range(P, lo, hi, 4473)
        assert err.value.bound == 4474

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            preimage_range(Poly((7,)), 0, 10, 100)
        with pytest.raises(ValueError):
            preimage_range(Poly.monomial(2), 5, 4, 100)

    @given(small_polys, st.integers(min_value=-2000, max_value=2000),
           st.integers(min_value=0, max_value=4000))
    @settings(max_examples=200)
    def test_matches_brute_force(self, coeffs, lo, width):
        P = Poly(tuple(coeffs))
        if P.degree < 1:
            return
        hi = lo + width
        got = preimage_range(P, lo, hi, 10 ** 4)
        want = [t for t in range(-10 ** 4, 10 ** 4 + 1) if lo <= P(t) <= hi]
        assert got == want

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
        try:
            got = preimage_range(P, lo, hi, 10 ** 4)
        except WindowCapError as err:
            assert err.bound <= cauchy
            return
        assert got == [t for t in range(-cauchy, cauchy + 1)
                       if lo <= P(t) <= hi]

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("lo,hi", [
        (0, 0), (0, 10 ** 5), (5, 10 ** 5), (10 ** 4, 10 ** 4 + 50),
        (-10 ** 5, 10 ** 5), (-10 ** 5, -5), (-30, 40),
    ])
    def test_monomial_matches_exact_window(self, k, lo, hi):
        """t**k gets the same answer as from its exact kth-root window."""
        want = [t for a, b in kth_power_t_window(k, lo, hi)
                for t in range(a, b + 1)]
        assert preimage_range(Poly.monomial(k), lo, hi, 10 ** 7) == want
