import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appowers.errors import PrimePowerCapError
from appowers.modroots import (ResidueSet, kth_roots_mod,
                               kth_roots_mod_prime_power)


def brute_roots(a, k, m):
    return tuple(x for x in range(m) if pow(x, k, m) == a % m)


class TestPrimePower:
    @pytest.mark.parametrize("a,k,p,e,want", [
        (1, 2, 2, 3, (1, 3, 5, 7)),
        (1, 3, 3, 2, (1, 4, 7)),
        (2, 2, 7, 1, (3, 4)),
    ])
    def test_examples(self, a, k, p, e, want):
        assert kth_roots_mod_prime_power(a, k, p, e).residues == want

    def test_rejects_composite_p(self):
        with pytest.raises(ValueError):
            kth_roots_mod_prime_power(1, 2, 15, 1)

    def test_cap(self):
        # 2^23 is the largest power of 2 under PRIME_POWER_CAP = 10^7
        assert kth_roots_mod_prime_power(1, 2, 2, 23).residues == \
            (1, 4194303, 4194305, 8388607)
        for e in (24, 40):
            with pytest.raises(PrimePowerCapError):
                kth_roots_mod_prime_power(1, 2, 2, e)

    def test_singular_lifting_grid(self):
        # p | k and a = 0 mod p exercise the branching lift paths
        for p, emax in ((2, 6), (3, 4), (5, 3)):
            for e in range(1, emax + 1):
                pe = p ** e
                for k in (2, 3, 4, 6):
                    for a in range(pe):
                        got = kth_roots_mod_prime_power(a, k, p, e).residues
                        assert got == brute_roots(a, k, pe), (a, k, p, e)


class TestCompositeModulus:
    @pytest.mark.parametrize("a,k,m,want", [
        (1, 2, 24, (1, 5, 7, 11, 13, 17, 19, 23)),
        (0, 2, 4, (0, 2)),
        (3, 2, 4, ()),
    ])
    def test_examples(self, a, k, m, want):
        rs = kth_roots_mod(a, k, m)
        assert rs == ResidueSet(m, want)

    def test_modulus_one(self):
        assert kth_roots_mod(5, 3, 1).residues == (0,)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            kth_roots_mod(1, 2, 0)

    def test_brute_force_grid(self):
        for m in range(1, 301):
            for k in (2, 3, 4, 5):
                for a in range(m):
                    got = kth_roots_mod(a, k, m).residues
                    assert got == brute_roots(a, k, m), (a, k, m)

    @given(st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=6),
           st.integers(min_value=-1000, max_value=1000))
    @settings(max_examples=200)
    def test_every_residue_verifies(self, m, k, a):
        rs = kth_roots_mod(a, k, m)
        assert rs.modulus == m
        assert list(rs.residues) == sorted(set(rs.residues))
        for r in rs.residues:
            assert 0 <= r < m
            assert pow(r, k, m) == a % m

    def test_crt_multiplicativity(self):
        for m1, m2 in ((8, 9), (5, 16), (7, 27), (25, 9), (3, 128)):
            assert math.gcd(m1, m2) == 1
            for k in (2, 3, 4):
                for a in range(0, m1 * m2, 7):
                    n = len(kth_roots_mod(a, k, m1 * m2).residues)
                    n1 = len(kth_roots_mod(a, k, m1).residues)
                    n2 = len(kth_roots_mod(a, k, m2).residues)
                    assert n == n1 * n2, (a, k, m1, m2)
