import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appowers.counting import (CountReport, Progression, count_poly_in_ap,
                               count_powers_in_ap)
from appowers.intkernel import ikth_root_floor
from appowers.poly import Poly
from oracles import brute_report

ALGORITHMS = ("interval", "residue")


class TestProgression:
    def test_bounds(self):
        p = Progression(-23, 24, 5)
        assert (p.lo, p.hi) == (1, 97)
        assert p.index_of(49) == 3
        assert p.index_of(50) is None
        assert p.index_of(97 + 24) is None

    @pytest.mark.parametrize("a,q,N", [(0, 0, 5), (0, -3, 5), (0, 2, 0)])
    def test_rejects_bad_shape(self, a, q, N):
        with pytest.raises(ValueError):
            Progression(a, q, N)


class TestCountPowers:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_squares_up_to_100(self, algorithm):
        rep = count_powers_in_ap(2, Progression(0, 1, 100), algorithm=algorithm)
        assert (rep.count_values, rep.count_t) == (10, 20)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_rudin_shape_cell(self, algorithm):
        rep = count_powers_in_ap(2, Progression(-23, 24, 5), algorithm=algorithm)
        assert (rep.count_values, rep.count_t) == (3, 6)

    def test_cubes_in_multiples_of_7(self):
        prog = Progression(0, 7, 100)
        want = brute_report(3, prog)
        for algorithm in ALGORITHMS:
            rep = count_powers_in_ap(3, prog, algorithm=algorithm)
            assert (rep.count_t, rep.count_values) == want

    def test_empty_residue_class(self):
        rep = count_powers_in_ap(2, Progression(2, 4, 10 ** 6))
        assert rep.count_values == 0 and rep.count_t == 0

    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            count_powers_in_ap(0, Progression(0, 1, 10))

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(ValueError):
            count_powers_in_ap(2, Progression(0, 1, 10), algorithm="scan")

    def test_huge_inputs_take_exact_path(self):
        # far beyond int64: the count is exact in arbitrary precision
        prog = Progression(0, 1, 10 ** 40)
        rep = count_powers_in_ap(2, prog, algorithm="residue")
        assert rep.count_values == 10 ** 20

    def test_algorithm_agreement_grid(self):
        for k in (1, 2, 3, 4):
            for q in (1, 2, 3, 12, 24, 25):
                for a in (-q, -1, 0, 1, q):
                    for N in (1, 10, 100):
                        prog = Progression(a, q, N)
                        reports = [count_powers_in_ap(k, prog, algorithm=alg)
                                   for alg in ALGORITHMS]
                        assert reports[0] == reports[1], (k, q, a, N)
                        assert (reports[0].count_t,
                                reports[0].count_values) == brute_report(k, prog)

    def test_even_k_value_relation(self):
        for q, a, N in ((1, -1, 50), (4, 0, 30), (24, -23, 5), (5, -2, 40)):
            prog = Progression(a, q, N)
            rep = count_powers_in_ap(2, prog, with_solutions=True)
            assert rep.count_values <= rep.count_t
            zero_attained = any(t == 0 for t, _ in rep.solutions)
            assert rep.count_t == 2 * rep.count_values - (1 if zero_attained else 0)

    def test_scaling_symmetry(self):
        # t -> m*t identifies solutions for (q, a) with (m^k q, m^k a)
        for k in (2, 3):
            for m in (2, 3):
                for q in (1, 5, 24):
                    for a in (-q, 0, 3):
                        for N in (1, 10, 100):
                            base = count_powers_in_ap(k, Progression(a, q, N))
                            s = m ** k
                            scaled = count_powers_in_ap(
                                k, Progression(a * s, q * s, N))
                            assert base == scaled, (k, m, q, a, N)

    def test_monotone_in_N(self):
        prev = 0
        for N in range(1, 200):
            ct = count_powers_in_ap(2, Progression(-3, 7, N)).count_t
            assert ct >= prev
            prev = ct

    def test_trivial_progression_lower_bound(self):
        for k in range(2, 7):
            for N in (1, 5, 10, 63, 64, 65, 999, 1000, 2000):
                cv = count_powers_in_ap(k, Progression(0, 1, N)).count_values
                assert cv == ikth_root_floor(N, k), (k, N)


class TestSolutions:
    def test_rudin_cell_solutions(self):
        got = list(count_poly_in_ap(Poly.monomial(2), Progression(-23, 24, 5),
                                    with_solutions=True).solutions)
        assert got == [(-7, 3), (-5, 2), (-1, 1), (1, 1), (5, 2), (7, 3)]

    def test_empty(self):
        assert list(count_poly_in_ap(Poly.monomial(2), Progression(2, 4, 100),
                                     with_solutions=True).solutions) == []

    def test_linear(self):
        got = list(count_poly_in_ap(Poly((1, 2)), Progression(1, 2, 3),
                                    with_solutions=True).solutions)
        assert got == [(1, 1), (2, 2), (3, 3)]

    def test_solution_list_matches_count(self):
        prog = Progression(-11, 12, 500)
        rep = count_powers_in_ap(2, prog, with_solutions=True)
        assert len(rep.solutions) == rep.count_t
        for t, i in rep.solutions:
            assert t * t == prog.a + i * prog.q
            assert 1 <= i <= prog.N


class TestCountPoly:
    def test_monomial_consistency(self):
        prog = Progression(-23, 24, 5)
        for alg in ("interval", "residue", "auto"):
            assert count_poly_in_ap(Poly.monomial(2), prog, algorithm=alg) == \
                count_powers_in_ap(2, prog, algorithm=alg)
        assert count_poly_in_ap(Poly.monomial(2), prog, with_solutions=True) == \
            count_powers_in_ap(2, prog, with_solutions=True)

    def test_shifted_square(self):
        # 2t^2 + 1 among the odd numbers 3..101: t in +-[1, 7]
        rep = count_poly_in_ap(Poly((1, 0, 2)), Progression(1, 2, 50))
        assert rep.count_t == 14

    def test_t_cubed_minus_t(self):
        P = Poly((0, -1, 0, 1))
        prog = Progression(0, 6, 20)
        rep = count_poly_in_ap(P, prog, with_solutions=True)
        want = [(t, (P(t) - prog.a) // prog.q) for t in range(-60, 61)
                if prog.index_of(P(t)) is not None]
        assert list(rep.solutions) == want
        assert rep.count_t == len(want)
        assert rep.count_values == len(set(P(t) for t, _ in want))

    def test_rejects_constant(self):
        with pytest.raises(ValueError):
            count_poly_in_ap(Poly((3,)), Progression(0, 1, 10))


class TestIntervalWalk:
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=50),
           st.integers(min_value=-120, max_value=120),
           st.integers(min_value=1, max_value=300))
    @settings(max_examples=250)
    def test_matches_brute_force(self, k, q, a, N):
        prog = Progression(a, q, N)
        rep = count_powers_in_ap(k, prog, algorithm="interval")
        assert (rep.count_t, rep.count_values) == brute_report(k, prog)
