import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appowers.intkernel import (divisor_count, factorize, ikth_root_ceil,
                                ikth_root_floor, is_prime, kth_power_t_window)


def trial_division(n):
    """Independent factorization oracle."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


class TestFactorize:
    def test_one_is_empty(self):
        assert factorize(1) == ()

    def test_24(self):
        assert factorize(24) == ((2, 3), (3, 1))

    def test_3599_matches_trial_division(self):
        assert trial_division(3599) == ((59, 1), (61, 1))
        assert factorize(3599) == ((59, 1), (61, 1))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            factorize(0)
        with pytest.raises(ValueError):
            factorize(-24)

    def test_large_semiprime_uses_rho(self):
        n = (10 ** 9 + 7) * (10 ** 9 + 9)
        assert factorize(n) == ((10 ** 9 + 7, 1), (10 ** 9 + 9, 1))

    def test_large_prime(self):
        m61 = 2 ** 61 - 1
        assert factorize(m61) == ((m61, 1),)

    @given(st.integers(min_value=1, max_value=10 ** 6))
    @settings(max_examples=300)
    def test_roundtrip(self, n):
        fac = factorize(n)
        assert fac == trial_division(n)
        assert all(is_prime(p) for p, _ in fac)


class TestDivisors:
    @pytest.mark.parametrize("n,want", [(1, 1), (12, 6), (24, 8)])
    def test_examples(self, n, want):
        assert divisor_count(n) == want

    def test_brute_force_small_range(self):
        for n in range(1, 100_001):
            count = 0
            d = 1
            while d * d <= n:
                if n % d == 0:
                    count += 1 if d * d == n else 2
                d += 1
            assert divisor_count(n) == count, n


class TestRoots:
    @pytest.mark.parametrize("x,k,want", [
        (26, 3, 2), (27, 3, 3), (10 ** 18, 2, 10 ** 9),
    ])
    def test_examples(self, x, k, want):
        assert ikth_root_floor(x, k) == want

    def test_exact_on_grid(self):
        # r**k <= x < (r+1)**k for all x in [0, 10^6], k in [1, 6]
        for k in range(1, 7):
            r = 0
            nxt = 1  # (r+1)**k, maintained incrementally
            for x in range(0, 10 ** 6 + 1):
                if x == nxt:
                    r += 1
                    nxt = (r + 1) ** k
                assert ikth_root_floor(x, k) == r, (x, k)

    def test_huge_values(self):
        x = 7 ** 300 + 12345
        r = ikth_root_floor(x, 5)
        assert r ** 5 <= x < (r + 1) ** 5
        assert ikth_root_floor(7 ** 300, 5) == 7 ** 60

    def test_ceil(self):
        assert ikth_root_ceil(27, 3) == 3
        assert ikth_root_ceil(28, 3) == 4
        assert ikth_root_ceil(0, 4) == 0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ikth_root_floor(-1, 2)
        with pytest.raises(ValueError):
            ikth_root_floor(5, 0)


class TestTWindow:
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=-500, max_value=500),
           st.integers(min_value=0, max_value=300))
    @settings(max_examples=300)
    def test_window_matches_brute_force(self, k, lo, width):
        hi = lo + width
        span = abs(lo) + abs(hi) + 2  # covers the k=1 window entirely
        want = [t for t in range(-span, span + 1) if lo <= t ** k <= hi]
        got = [t for a, b in kth_power_t_window(k, lo, hi)
               for t in range(a, b + 1)]
        assert got == want
