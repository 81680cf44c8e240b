import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appowers import intkernel
from appowers.errors import CellBudgetError
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

    def test_rho_budget(self, monkeypatch):
        n = (10 ** 9 + 7) * (10 ** 9 + 9)
        factorize.cache_clear()
        monkeypatch.setattr(intkernel, "RHO_STEP_BUDGET", 1000)
        with pytest.raises(CellBudgetError, match="Brent-rho steps"):
            factorize(n)
        # the refusal is not cached
        monkeypatch.setattr(intkernel, "RHO_STEP_BUDGET", 10 ** 6)
        assert factorize(n) == ((10 ** 9 + 7, 1), (10 ** 9 + 9, 1))

    @pytest.mark.parametrize("n", [
        4093 ** 2, 4099 ** 2, 4093 * 4099, 999983 * 999979,
        4099 * 999983 * (10 ** 9 + 7), 2 ** 12 * 4093 ** 3 * 4099,
    ])
    def test_prime_table_edge(self, n):
        # 4093 is the last prime of the trial-division table, 4099 the first
        # prime past it; larger factors are left to Brent-rho
        assert factorize(n) == trial_division(n)

    def test_thirteen_digit_prime_is_fast(self):
        factorize.cache_clear()
        start = time.perf_counter()
        assert factorize(10 ** 13 + 37) == ((10 ** 13 + 37, 1),)
        assert time.perf_counter() - start < 0.02

    def test_strong_pseudoprime_to_bases_2_to_37(self):
        # the least strong pseudoprime to the prime bases 2..37 (OEIS A014233)
        n = 318665857834031151167461
        assert not is_prime(n)
        assert factorize(n) == ((399165290221, 1), (798330580441, 1))
        assert 399165290221 * 798330580441 == n

    def test_large_prime(self):
        m61 = 2 ** 61 - 1
        assert factorize(m61) == ((m61, 1),)

    @pytest.mark.parametrize("n,want", [
        ((2 ** 61 - 1) ** 2, ((2 ** 61 - 1, 2),)),
        (7 * (2 ** 40 + 15) ** 3, ((7, 1), (2 ** 40 + 15, 3))),
        ((10 ** 12 + 39) ** 2, ((10 ** 12 + 39, 2),)),
    ])
    def test_perfect_power_of_a_large_prime(self, n, want):
        # Brent-rho would need about sqrt(p) steps, far over its budget;
        # the cofactor is found to be an exact power before rho is tried
        factorize.cache_clear()
        start = time.perf_counter()
        assert factorize(n) == want
        assert time.perf_counter() - start < 0.05
        assert all(is_prime(p) for p, _ in want)

    @given(st.integers(min_value=1, max_value=10 ** 6))
    @settings(max_examples=300)
    def test_roundtrip(self, n):
        fac = factorize(n)
        assert fac == trial_division(n)
        assert all(is_prime(p) for p, _ in fac)


def jacobi_by_factors(a, n):
    """(a/n) as the product of Euler's criterion over n's prime factors."""
    out = 1
    for p, e in trial_division(n):
        r = pow(a % p, (p - 1) // 2, p)
        out *= (-1 if r == p - 1 else r) ** e
    return out


def strong_lucas_by_matrices(n):
    """The strong Lucas test with Selfridge's parameters, by powers of the
    matrix [[P, -Q], [1, 0]] = [[U_2, -Q U_1], [U_1, -Q U_0]] mod n, whose
    kth power holds U_(k+1) and U_k, and V_k = 2 U_(k+1) - P U_k."""
    D = next(D for D in (5 + 2 * i if i % 2 == 0 else -5 - 2 * i
                         for i in range(n)) if jacobi_by_factors(D, n) == -1)
    P, Q = 1, (1 - D) // 4

    def mul(x, y):
        return [[(x[i][0] * y[0][j] + x[i][1] * y[1][j]) % n
                 for j in range(2)] for i in range(2)]

    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    m, power = [[1, 0], [0, 1]], [[P, -Q % n], [1, 0]]
    for bit in bin(d)[:1:-1]:
        if bit == "1":
            m = mul(m, power)
        power = mul(power, power)
    if m[1][0] == 0:
        return True
    for _ in range(s):
        if (2 * m[0][0] - P * m[1][0]) % n == 0:
            return True
        m = mul(m, m)
    return False


class TestBPSW:
    def test_jacobi(self):
        for n in range(1, 400, 2):
            for a in range(-30, 60):
                assert intkernel._jacobi(a, n) == jacobi_by_factors(a, n)

    def test_strong_lucas_pseudoprimes_below_1e5(self):
        prime = set(intkernel._prime_table(10 ** 5))
        squares = {m * m for m in range(317)}
        odd = [n for n in range(3, 10 ** 5, 2) if n not in squares]
        passed = [n for n in odd if intkernel._strong_lucas(n)]
        assert prime - {2} <= set(passed)
        # OEIS A217255, the strong Lucas pseudoprimes, up to 10**5
        assert [n for n in passed if n not in prime] == [
            5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199, 40309,
            58519, 75077, 97439]
        for n in odd[:10 ** 4]:
            assert intkernel._strong_lucas(n) == (
                n in prime or strong_lucas_by_matrices(n)), n

    def test_runs_above_the_exact_limit(self, monkeypatch):
        calls = []

        def spy(n):
            calls.append(n)
            return False

        monkeypatch.setattr(intkernel, "_strong_lucas", spy)
        assert is_prime(2 ** 61 - 1)
        assert not calls
        assert not is_prime(2 ** 89 - 1)
        assert calls == [2 ** 89 - 1]

    @pytest.mark.parametrize("n", [2 ** 89 - 1, 2 ** 127 - 1])
    def test_mersenne_primes(self, n):
        assert n > intkernel._MR_EXACT_LIMIT
        assert is_prime(n)
        assert intkernel._strong_lucas(n)

    @pytest.mark.parametrize("p,q", [
        (10 ** 13 + 37, 10 ** 13 + 51), (9999999999971, 10 ** 13 + 37),
    ])
    def test_products_near_1e13(self, p, q):
        assert is_prime(p) and is_prime(q)
        assert p * q > intkernel._MR_EXACT_LIMIT
        assert not is_prime(p * q)
        assert not intkernel._strong_lucas(p * q)
        assert not is_prime(p * p)


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

    @given(st.integers(min_value=1, max_value=64),
           st.integers(min_value=0, max_value=2 ** 256),
           st.sampled_from([-1, 0, 1]),
           st.integers(min_value=0, max_value=2 ** 4096))
    @settings(max_examples=500, deadline=None)
    def test_floor_root_property(self, k, r, delta, x):
        # next to an exact kth power, and anywhere up to 4,096 bits
        for y in (max(r ** k + delta, 0), x):
            s = ikth_root_floor(y, k)
            assert s ** k <= y < (s + 1) ** k

    def test_huge_k_is_instant(self):
        # x below 2**k has floor root 1 without any 2**(k-1)-sized step
        start = time.perf_counter()
        assert ikth_root_floor(10 ** 21, 10 ** 8) == 1
        assert time.perf_counter() - start < 0.1


class TestTWindow:
    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            kth_power_t_window(2, 5, 4)

    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=-500, max_value=500),
           st.integers(min_value=0, max_value=300))
    @settings(max_examples=300)
    def test_window_matches_brute_force(self, k, lo, width):
        # every t with its value in [lo, hi], for even k only the t >= 0
        hi = lo + width
        span = abs(lo) + abs(hi) + 2  # covers the k=1 window entirely
        want = [t for t in range(-span, span + 1)
                if lo <= t ** k <= hi and (k % 2 or t >= 0)]
        A, B = kth_power_t_window(k, lo, hi)
        assert list(range(A, B + 1)) == want
