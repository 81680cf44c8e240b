import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appowers import modroots
from appowers.errors import CellBudgetError
from appowers.intkernel import is_prime
from appowers.modroots import (kth_roots_mod, kth_roots_mod_prime_power,
                               max_root_counts)
from oracles import max_class_size


def brute_roots(a, k, m):
    return tuple(x for x in range(m) if pow(x, k, m) == a % m)


class TestPrimePower:
    @pytest.mark.parametrize("a,k,p,e,want", [
        (1, 2, 2, 3, (1, 3, 5, 7)),
        (1, 3, 3, 2, (1, 4, 7)),
        (2, 2, 7, 1, (3, 4)),
    ])
    def test_examples(self, a, k, p, e, want):
        assert kth_roots_mod_prime_power(a, k, p, e) == want

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            kth_roots_mod_prime_power(1, 2, 15, 1)

    def test_rejects_nonpositive_k_or_e(self):
        with pytest.raises(ValueError):
            kth_roots_mod_prime_power(1, 0, 7, 1)
        with pytest.raises(ValueError):
            kth_roots_mod_prime_power(1, 2, 7, 0)

    def test_cap(self):
        # no cap on p**e: the four square roots of 1 are +-1 and 2**(e-1) +- 1
        for e in (24, 31, 40):
            half = 2 ** (e - 1)
            assert kth_roots_mod_prime_power(1, 2, 2, e) == \
                (1, half - 1, half + 1, 2 * half - 1)

    def test_root_budget(self):
        # x**2 = 0 (mod 2**62) has 2**31 roots, refused before any is listed
        with pytest.raises(CellBudgetError):
            kth_roots_mod_prime_power(0, 2, 2, 62)
        with pytest.raises(CellBudgetError):
            kth_roots_mod(0, 2, 2 ** 62)
        # p | k lifts by trying p extensions of each root: x**10007 = 1 has
        # 10007 roots mod 10007**2, so 10007**2 candidates a level up
        with pytest.raises(CellBudgetError):
            kth_roots_mod_prime_power(1, 10007, 10007, 3)
        # exactly ROOT_BUDGET = 2**b roots, of x**2 = 0 (mod 2**(2b)), are listed
        b = modroots.ROOT_BUDGET.bit_length() - 1
        assert modroots.ROOT_BUDGET == 2 ** b
        assert len(kth_roots_mod_prime_power(0, 2, 2, 2 * b)) == 2 ** b

    def test_singular_lifting_grid(self):
        # p | k and a = 0 mod p exercise the branching lift paths
        for p, emax in ((2, 6), (3, 4), (5, 3)):
            for e in range(1, emax + 1):
                pe = p ** e
                for k in (2, 3, 4, 6):
                    for a in range(pe):
                        got = kth_roots_mod_prime_power(a, k, p, e)
                        assert got == brute_roots(a, k, pe), (a, k, p, e)


class TestLargePrimes:
    """Roots mod every prime p come from the Sylow subgroups of (Z/p)^*."""

    @given(st.integers(min_value=2, max_value=20000),
           st.integers(min_value=2, max_value=12))
    @settings(max_examples=25, deadline=None)
    def test_against_power_table(self, n, k):
        p = next(m for m in range(n, 2 * n) if is_prime(m))
        table = {}
        for x in range(p):
            table.setdefault(pow(x, k, p), []).append(x)
        for a in range(p):
            assert kth_roots_mod_prime_power(a, k, p, 1) == \
                tuple(table.get(a, ())), (a, k, p)

    def test_deep_sylow_digits_of_every_prime_to_256(self):
        # k up to 256 reaches every digit of the 2- and 3-Sylow subgroups of
        # p such as 193 (p - 1 = 2**6 * 3) and 241 (p - 1 = 2**4 * 3 * 5)
        for p in filter(is_prime, range(257)):
            for k in (*range(2, 13), 16, 24, 32, 48, 64, 96, 128, 192, 256):
                table = {}
                for x in range(p):
                    table.setdefault(pow(x, k, p), []).append(x)
                for a in range(p):
                    assert kth_roots_mod_prime_power(a, k, p, 1) == \
                        tuple(table.get(a, ())), (a, k, p)

    @given(st.integers(min_value=10 ** 12, max_value=10 ** 40),
           st.integers(min_value=2, max_value=12),
           st.integers(min_value=1, max_value=10 ** 6),
           st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_past_1e12_against_euler(self, n, k, a, kth_power):
        p = next(m for m in range(n, 2 * n) if is_prime(m))
        if kth_power:  # else a is a kth power with chance 1/gcd(k, p-1)
            a = pow(a, k, p)
        d = math.gcd(k, p - 1)
        roots = kth_roots_mod_prime_power(a, k, p, 1)
        assert len(roots) == (d if pow(a, (p - 1) // d, p) == 1 else 0)
        assert list(roots) == sorted(set(roots))
        for r in roots:
            assert 0 < r < p and pow(r, k, p) == a

    def test_prime_powers_past_the_table(self):
        # unit roots lift by Newton steps; p | a by the valuation
        for p in (2053, 10007):
            for k in (2, 3, 4, 6):
                for a in (1, 2, 3, 7 ** k, p, p * p, 5 * p ** 2):
                    got = kth_roots_mod_prime_power(a, k, p, 3)
                    assert got == tuple(sorted(set(got)))
                    for r in got:
                        assert pow(r, k, p ** 3) == a % p ** 3
                    if a == 7 ** k:
                        assert len(got) == math.gcd(k, p - 1)
            # x**2 = 0 (mod p**3) iff p**2 | x; x**3 = 0 iff p | x
            assert kth_roots_mod_prime_power(0, 2, p, 3) == \
                tuple(range(0, p ** 3, p ** 2))
            with pytest.raises(CellBudgetError):  # p**2 roots
                kth_roots_mod_prime_power(p ** 3, 3, p, 3)
        # x = 10007*y, y**2 = 2 (mod 10007): the next digit of y is free
        roots = kth_roots_mod_prime_power(2 * 10007 ** 2, 2, 10007, 3)
        assert len(roots) == 2 * 10007


class TestCompositeModulus:
    @pytest.mark.parametrize("a,k,m,want", [
        (1, 2, 24, (1, 5, 7, 11, 13, 17, 19, 23)),
        (0, 2, 4, (0, 2)),
        (3, 2, 4, ()),
    ])
    def test_examples(self, a, k, m, want):
        assert kth_roots_mod(a, k, m) == want

    def test_modulus_one(self):
        assert kth_roots_mod(5, 3, 1) == (0,)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            kth_roots_mod(1, 2, 0)

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            kth_roots_mod(1, 0, 24)

    def test_brute_force_grid(self):
        for m in range(1, 301):
            for k in (2, 3, 4, 5):
                for a in range(m):
                    got = kth_roots_mod(a, k, m)
                    assert got == brute_roots(a, k, m), (a, k, m)

    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=200)
    def test_every_residue_verifies(self, m, k, a):
        roots = kth_roots_mod(a, k, m)
        assert list(roots) == sorted(set(roots))
        for r in roots:
            assert 0 <= r < m
            assert pow(r, k, m) == a % m

    def test_crt_multiplicativity(self):
        for m1, m2 in ((8, 9), (5, 16), (7, 27), (25, 9), (3, 128)):
            assert math.gcd(m1, m2) == 1
            for k in (2, 3, 4):
                for a in range(0, m1 * m2, 7):
                    n = len(kth_roots_mod(a, k, m1 * m2))
                    n1 = len(kth_roots_mod(a, k, m1))
                    n2 = len(kth_roots_mod(a, k, m2))
                    assert n == n1 * n2, (a, k, m1, m2)


class TestRootsCache:
    """One LRU cache, keyed by prime power, serves both entry points."""

    def test_prime_power_call_hits_the_composite_calls_entry(self):
        modroots._roots_mod_cached.cache_clear()
        kth_roots_mod(4, 2, 360)  # 360 = 2**3 * 3**2 * 5
        hits = modroots._roots_mod_cached.cache_info().hits
        assert kth_roots_mod_prime_power(4, 2, 3, 2) == (2, 7)
        assert modroots._roots_mod_cached.cache_info().hits == hits + 1

    def test_root_budget_holds_on_a_warm_cache(self, monkeypatch):
        # 2**16 square roots of 1 mod the product of the first 16 odd primes
        q = math.prod([p for p in range(3, 80) if is_prime(p)][:16])
        assert len(kth_roots_mod(1, 2, q)) == 2 ** 16
        monkeypatch.setattr(modroots, "ROOT_BUDGET", 2 ** 16 - 1)
        with pytest.raises(CellBudgetError):
            kth_roots_mod(1, 2, q)


class TestRootCountBound:
    """root_count, read from the cached classes without listing a root, is
    the exact number of roots, so it never undercounts, and 0 means none."""

    MODULI = (list(range(1, 201)) + [2 ** e for e in range(8, 13)]
              + [3 ** e for e in range(5, 8)] + [5 ** e for e in range(4, 6)])

    @pytest.mark.parametrize("k", range(1, 7))
    def test_never_undercounts(self, k):
        zeros = 0
        for m in self.MODULI:
            for a in range(m):
                n = len(kth_roots_mod(a, k, m))
                assert modroots.root_count(a, k, m) == n, (a, k, m)
                assert modroots.root_count(a - m, k, m) == n, (a, k, m)
                zeros += n == 0
        assert zeros or k == 1  # the early return for a rootless p**e runs

    def test_rootless_part_after_a_huge_one(self):
        # a = 2**41, q = 3 * 2**40: x**2 = 0 (mod 2**40) has 2**20 roots,
        # more than ROOT_BUDGET, but 2 is no square mod 3
        assert kth_roots_mod(2 ** 41, 2, 3 * 2 ** 40) == ()
        assert modroots.root_count(2 ** 41, 2, 3 * 2 ** 40) == 0

    @pytest.mark.parametrize("a,k,m", [(1, -2, 5), (0, 0, 5)])
    def test_rejects_k_below_1(self, a, k, m):
        with pytest.raises(ValueError, match=f"k must be >= 1, got {k}"):
            modroots.root_count(a, k, m)


class TestMaxRootCount:
    """max_root_counts, one sieve over the prime powers up to n, lists the
    largest number of roots that any a has mod each m <= n."""

    PRIME_POWERS = [p ** e for p in range(2, 2049) if is_prime(p)
                    for e in range(1, 12) if p ** e <= 2048]

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_the_largest_class(self, k):
        counts = max_root_counts(k, 2048)
        for m in sorted(set(range(1, 401)) | set(self.PRIME_POWERS)):
            assert counts[m] == max_class_size(k, m), (k, m)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_root_count(self, k):
        counts = max_root_counts(k, 200)
        for m in range(1, 201):
            assert counts[m] == max(
                modroots.root_count(a, k, m) for a in range(m)), (k, m)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_small_tables(self, k):
        # entry 0 stands for no modulus; mod 1 and mod 2 each root is alone
        # in its class, and a table for n is the start of every longer one
        assert max_root_counts(k, 0) == [0]
        assert max_root_counts(k, 1) == [0, 1]
        assert max_root_counts(k, 2) == [0, 1, 1]
        longest = max_root_counts(k, 2048)
        for n in (3, 80, 81, 1999):
            counts = max_root_counts(k, n)
            assert len(counts) == n + 1
            assert counts == longest[:n + 1], (k, n)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_across_the_prime_table(self, k):
        # intkernel._SMALL_PRIMES holds the primes below 2**12; from
        # n = 2**12 on, the sieve takes its primes from _prime_table
        longest = max_root_counts(k, 6000)
        for n in (4095, 4096, 4097, 5000):
            assert max_root_counts(k, n) == longest[:n + 1], (k, n)
        # 4093 is the table's last prime, 4099 the first past it, 4913 =
        # 17**3, and 4097 = 17 * 241, 4104 = 2**3 * 3**3 * 19, 4608 =
        # 2**9 * 3**2, 4900 = 2**2 * 5**2 * 7**2 and 5005 = 5 * 7 * 11 * 13
        for m in (4093, 4096, 4097, 4099, 4104, 4608, 4900, 4913, 5005):
            assert longest[m] == max_class_size(k, m), (k, m)

    def test_count_mod_a_prime(self):
        # a prime above isqrt(n) multiplies its multiples by gcd(k, p - 1)
        # instead of calling the general closed form at e = 1
        for p in range(2, 10 ** 4):
            if is_prime(p):
                for k in range(1, 13):
                    assert (modroots._max_root_count_mod_prime_power(k, p, 1)
                            == math.gcd(k, p - 1)), (k, p)

    @pytest.mark.parametrize("k,n,match", [
        (0, 10, "k must be >= 1, got 0"),
        (-1, 10, "k must be >= 1, got -1"),
        (2, -1, "n must be >= 0, got -1"),
    ])
    def test_rejects_bad_args(self, k, n, match):
        with pytest.raises(ValueError, match=match):
            max_root_counts(k, n)


class TestRootClasses:
    """Each cache entry (ys, step) lists the roots mod p**e as the classes
    mod step, a divisor of p**e, that hold them."""

    # every p**e <= 3**7, and 2**12
    PRIME_POWERS = [(p, e) for p in range(2, 3 ** 7 + 1) if is_prime(p)
                    for e in range(1, 12) if p ** e <= 3 ** 7] + [(2, 12)]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_matches_enumeration(self, k):
        # every x is in the classes of its own a = x**k; the classes of all
        # a hold p**e roots in all, so they hold nothing else
        for p, e in self.PRIME_POWERS:
            pe = p ** e
            entries = [modroots._roots_mod_cached(a, k, p, e)
                       for a in range(pe)]
            for a, (ys, step) in enumerate(entries):
                assert pe % step == 0, (a, k, p, e, step)
                assert list(ys) == sorted(set(ys)), (a, k, p, e)
                assert not ys or 0 <= ys[0] and ys[-1] < step, (a, k, p, e)
            for x in range(pe):
                ys, step = entries[pow(x, k, pe)]
                assert x % step in ys, (x, k, p, e)
            assert sum(len(ys) * (pe // step) for ys, step in entries) == pe
