import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from appowers import counting, intkernel, kernels, modroots
from appowers.cli import main
from appowers.counting import (CountReport, Progression, count_poly_in_ap,
                               count_power_cells, count_powers_in_ap)
from appowers.errors import CellBudgetError, InternalInvariantError
from appowers.intkernel import ikth_root_floor, is_prime, kth_power_t_window
from appowers.poly import Poly, preimage_range
from oracles import brute_poly_report, brute_report, classes_count

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


def _span_of(k, lo, hi):
    """Number of t with lo <= t**k <= hi, both signs, apart from the
    counted window that the chooser reads."""
    return sum(B - A + 1 for A, B in preimage_range(Poly.monomial(k), lo, hi))


def _span(k, prog):
    return _span_of(k, prog.lo, prog.hi)


def _refuse(*args, **kwargs):
    raise AssertionError("auto took the algorithm it should reject")


class TestChooser:
    """auto on windows with 64 < span <= q, where it weighs walk and stride."""

    # (k, a, q, N, the algorithm auto takes).  auto strides when twice
    # the number of roots of t**k = a (mod q), the product of the counts
    # mod each prime power of q, is below the walk, which is span t long
    # (for even k, the t >= 0 of the window).
    CASES = [
        # smooth q: few roots against a long walk (2*128 < 5,402;
        # 2*108 < 1,860), even a short one (2*128 = 256 < 463, which cold
        # takes 0.15 ms strided against 0.11 ms walked)
        (2, 1, 360360, 100, "residue"),
        (3, 8, 360360, 20000, "residue"),
        (4, 1, 2 ** 6 * 3 ** 4 * 5 * 7, 300000, "residue"),
        # at most gcd(k, p - 1) roots mod a prime p, however large
        # (2*4 < 4,930; 2*1 < 526; 2*2 < 3,162; no root, against 511)
        (2, 1, 3 * 100003, 100, "residue"),
        (3, -7, 2 * 100019, 1000, "residue"),
        (2, 5, 10000019, 4, "residue"),
        (2, -195157, 137 * 1789, 3, "residue"),
        # a divisible by high powers of q's primes: roots from the valuation
        # (2*288 < 4,490; 2*576 < 4,471; 2*144 < 9,782; 2*576 < 2,706),
        # unless there are many of them (2*12,800 > 3,819; 2*64,000 > 897)
        (2, 0, 2 ** 10 * 3 ** 5, 100, "residue"),
        (2, 2 ** 8 * 3 ** 4, 2 ** 10 * 3 ** 5, 100, "residue"),
        (2, 3 ** 8, 2 ** 4 * 3 ** 4 * 5 ** 3 * 7 ** 2, 20, "residue"),
        (3, 0, 2 ** 9 * 3 ** 3 * 5, 300000, "residue"),
        (3, 0, 2 ** 14 * 5 ** 3, 30000, "interval"),
        (4, 0, 2 ** 12 * 5 ** 4, 300000, "interval"),
        (2, 5 ** 6, 5 ** 8 * 7, 30, "residue"),  # 2*500 < 7,399
        # 2^24 | q: four odd square roots mod 2^24, two mod 3 (2*8 < 7,094);
        # 2^12 roots of 0 (2*4,096 > 7,094: cold, 1.2 ms walked against
        # 2.3 ms strided); and q > span**2, walked unfactored
        (2, 1, 2 ** 24 * 3, 4, "residue"),
        (2, 0, 2 ** 24 * 3, 4, "interval"),
        (3, -1, 2 ** 24 * 3, 40, "interval"),
    ]

    @pytest.mark.parametrize("k,a,q,N,chosen", CASES)
    def test_auto_matches_both_algorithms_and_oracle(self, monkeypatch,
                                                     k, a, q, N, chosen):
        prog = Progression(a, q, N)
        assert 64 < _span(k, prog) <= q
        want = brute_report(k, prog)
        walked = count_powers_in_ap(k, prog, algorithm="interval")
        assert (walked.count_t, walked.count_values) == want
        assert count_powers_in_ap(k, prog, algorithm="residue") == walked
        if chosen == "residue":
            monkeypatch.setattr(counting.kernels, "interval_walk", _refuse)
        else:
            monkeypatch.setattr(counting, "_residue_stride_counts", _refuse)
        assert count_powers_in_ap(k, prog) == walked

    def test_many_roots_are_walked(self, monkeypatch):
        # 1 has 6**8 sixth roots mod q, more than the 1.2e6 t the walk visits;
        # the stride would build and count them all (4.5 s against 0.9 s)
        q = 7 * 13 * 19 * 31 * 37 * 43 * 61 * 67
        prog = Progression(1 - q, q, (2 * math.isqrt(q)) ** 6 // q)
        monkeypatch.setattr(counting, "_residue_stride_counts", _refuse)
        monkeypatch.setattr(counting.kernels, "interval_walk",
                            lambda *args: 4)  # the walk's real answer
        assert count_powers_in_ap(6, prog) == CountReport(8, 4)

    def test_many_roots_are_listed_by_the_walk(self):
        # the walk that counted the cell lists its solutions too, instead of
        # refusing the 6**8 roots the listing would otherwise build
        q = 7 * 13 * 19 * 31 * 37 * 43 * 61 * 67
        prog = Progression(1 - q, q, (2 * math.isqrt(q)) ** 6 // q)
        rep = count_powers_in_ap(6, prog, with_solutions=True)
        assert (rep.count_t, rep.count_values) == (8, 4)
        assert [t for t, _ in rep.solutions] == sorted(
            -t for t, _ in rep.solutions)
        for t, i in rep.solutions:
            assert t ** 6 == prog.a + i * q and 1 <= i <= prog.N

    def test_hard_step_is_walked_without_factoring(self, monkeypatch):
        # q is a product of two 20-digit primes and the window is ~1000 t
        # wide, so q > span**2 and auto must walk without factoring q.
        p1 = next(n for n in range(10 ** 19 + 1, 10 ** 20, 2) if is_prime(n))
        p2 = next(n for n in range(3 * 10 ** 19 + 1, 10 ** 20, 2) if is_prime(n))
        q = p1 * p2
        t0 = q // 1000
        prog = Progression(t0 * t0 - q, q, 2)  # terms t0**2 and t0**2 + q

        def no_factoring(n):
            raise AssertionError(f"factorize({n}) called")

        monkeypatch.setattr(intkernel, "factorize", no_factoring)
        monkeypatch.setattr(modroots, "factorize", no_factoring)
        assert 900 < _span(2, prog) < 1100
        rep = count_powers_in_ap(2, prog)
        # t0**2 + q = (t0 + d)**2 needs d * (2*t0 + d) = q, so d divides
        # p1 * p2: d = 1 would need q = 2*t0 + 1, and d >= p1 gives more than q
        assert (rep.count_t, rep.count_values) == (2, 1)
        rep = count_powers_in_ap(2, prog, with_solutions=True)
        assert rep.solutions == ((-t0, 1), (t0, 1))

    def test_smooth_step_over_the_walk_budget_is_strided(self, monkeypatch):
        # q is the product of the primes below 60 and the window is ~5e7 t
        # wide: q > span**2, but the walk would be refused, so auto factors
        # q (by trial division) and strides
        q = math.prod(p for p in range(2, 60) if is_prime(p))
        t0 = q // 10 ** 8
        prog = Progression(t0 * t0 - q, q, 2)  # terms t0**2 and t0**2 + q
        assert prog.q > _span(2, prog) ** 2
        assert _span(2, prog) // 2 > counting.WALK_BUDGET
        monkeypatch.setattr(counting.kernels, "interval_walk", _refuse)
        start = time.perf_counter()
        rep = count_powers_in_ap(2, prog)
        assert time.perf_counter() - start < 1.0
        squares = sum(math.isqrt(v) ** 2 == v for v in (t0 * t0, t0 * t0 + q))
        assert (rep.count_t, rep.count_values) == (2 * squares, squares) == (2, 1)

    @pytest.mark.parametrize("N", [1000, 10 ** 30])
    def test_rootless_congruence_is_answered(self, N):
        # a = 2**41, q = 3 * 2**40: the 2**20 roots of x**2 = 0 (mod 2**40)
        # are one class mod 2**20, and 2 is no square mod 3.  N = 1000 is
        # counted by the chooser (its walk, of 5.5e7 t, is over budget),
        # N = 10**30 is strided at once (span > q)
        prog = Progression(2 ** 41, 3 * 2 ** 40, N)
        start = time.perf_counter()
        assert count_powers_in_ap(2, prog) == CountReport(0, 0)
        assert time.perf_counter() - start < 1.0

    def test_unit_roots_over_the_budget_are_walked(self, monkeypatch):
        # y**32 = 1 (mod 2**12) has 64 roots, lifted by trying both
        # extensions of each root a level up; with a budget of 16 the
        # lifting is refused while the chooser counts them, and the 41-t
        # walk counts t = +-1
        monkeypatch.setattr(modroots, "ROOT_BUDGET", 16)
        monkeypatch.setattr(counting, "_residue_stride_counts", _refuse)
        modroots._roots_mod_cached.cache_clear()
        prog = Progression(1 - 2 ** 12, 2 ** 12, 40 ** 32 // 2 ** 12)
        assert count_powers_in_ap(32, prog) == CountReport(2, 1)

    def test_stride_over_the_root_budget_is_walked(self, monkeypatch):
        # t**2 = 0 (mod 2**10) holds for the 32 multiples of 32 below q.
        # The window is t in [32, 607], a walk of 576 t and a span of 1,152
        # > q, so the stride is tried first; over a budget of 16 roots it is
        # refused, and the walk counts t = 32, 64, ..., 576 and their mirrors.
        # With both over budget, the stride's error is raised.
        monkeypatch.setattr(modroots, "ROOT_BUDGET", 16)
        monkeypatch.setattr(counting, "WALK_BUDGET", 5000)
        modroots._roots_mod_cached.cache_clear()
        prog = Progression(0, 2 ** 10, 360)
        assert _span(2, prog) > prog.q
        walked = count_powers_in_ap(2, prog, algorithm="interval")
        assert (walked.count_t, walked.count_values) == brute_report(2, prog)
        monkeypatch.setattr(counting, "_residue_stride_counts", _refuse)
        assert count_powers_in_ap(2, prog) == walked == CountReport(36, 18)
        monkeypatch.setattr(counting, "WALK_BUDGET", 575)
        with pytest.raises(CellBudgetError, match="32 roots exceed budget 16"):
            count_powers_in_ap(2, prog)

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=10),
           st.integers(min_value=0, max_value=6),
           st.sampled_from([p for p in range(2, 100) if is_prime(p)]),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_auto_refuses_only_what_the_walk_cannot_afford(self, k, i, j, p,
                                                           data):
        # q = 2**i * 3**j * p, and a = 0, a multiple of a kth power of one of
        # q's primes, or any residue: with budgets of 16 roots and 5,000
        # walked t, auto answers as the walk does wherever the walk is within
        # budget, and raises CellBudgetError only where it is not.  An answer
        # over the walk budget is checked against a walk of up to 10**5 t.
        q = 2 ** i * 3 ** j * p
        a = data.draw(st.one_of(
            st.just(0),
            st.builds(lambda r, m, u: r ** (k * m) * u,
                      st.sampled_from((2, 3, p)),
                      st.integers(min_value=1, max_value=3),
                      st.integers(min_value=-q, max_value=q)),
            st.integers(min_value=-q, max_value=q)))
        N = data.draw(st.integers(min_value=0, max_value=40).flatmap(
            lambda e: st.integers(min_value=1, max_value=10 ** e)))
        prog = Progression(a, q, N)
        A, B = kth_power_t_window(k, prog.lo, prog.hi)
        walk = max(B - A + 1, 0)
        want = (count_powers_in_ap(k, prog, algorithm="interval")
                if walk <= 10 ** 5 else None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(modroots, "ROOT_BUDGET", 16)
            mp.setattr(counting, "WALK_BUDGET", 5000)
            modroots._roots_mod_cached.cache_clear()
            try:
                got = count_powers_in_ap(k, prog)
            except CellBudgetError:
                assert walk > counting.WALK_BUDGET, (k, a, q, N)
                return
        if want is not None:
            assert got == want, (k, a, q, N)

    @given(st.integers(min_value=1, max_value=7),
           st.integers(min_value=-10 ** 12, max_value=10 ** 12),
           st.integers(min_value=-10 ** 12, max_value=10 ** 12))
    @settings(max_examples=300)
    def test_span_is_the_window_width(self, k, x, y):
        # The chooser reads the window's span off the counted interval
        # alone.  With root_count patched to 0, a window of span S > 64 is
        # strided at q = S*S and walked at q = S*S + 1 (q > span**2), so the
        # two calls pin the chooser's span to S; where that walk is over
        # WALK_BUDGET (k = 1 at large values), both q stride.  A span of at
        # most 64 is walked even at q = 1.
        lo, hi = min(x, y), max(x, y)
        S = _span_of(k, lo, hi)
        A, B = counting.kth_power_t_window(k, lo, hi)
        walk = max(B - A + 1, 0)
        strided = object()

        def choose(q):
            return counting._auto_roots(k, Progression(0, q, 1), A, walk)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(counting, "root_count", lambda *args: 0)
            mp.setattr(counting, "kth_roots_mod", lambda *args: strided)
            if S > 64:
                over = walk > counting.WALK_BUDGET
                assert (choose(S * S), choose(S * S + 1)) == (
                    strided, strided if over else None), (k, lo, hi, S)
            else:
                assert choose(1) is None, (k, lo, hi, S)


class TestBudgets:
    def test_walk_budget_is_exact(self, monkeypatch):
        prog = Progression(0, 1, 10 ** 6)  # 1 <= t**2 <= 10**6: walks t = 1..1000
        monkeypatch.setattr(counting, "WALK_BUDGET", 1000)
        assert count_powers_in_ap(2, prog, algorithm="interval").count_t == 2000
        monkeypatch.setattr(counting, "WALK_BUDGET", 999)
        with pytest.raises(CellBudgetError):
            count_powers_in_ap(2, prog, algorithm="interval")
        # the residue stride has no walk to refuse
        assert count_powers_in_ap(2, prog).count_t == 2000

    def test_long_odd_walk_refused_at_once(self):
        # odd k walks both signs; the even-k hang probe is a CLI test
        prog = Progression(0, 10 ** 40 + 1, 10 ** 60)
        assert _span(3, prog) <= prog.q
        with pytest.raises(CellBudgetError):
            count_powers_in_ap(3, prog, algorithm="interval")
        # auto strides: q = 10**40 + 1 is squarefree, so q | t**3 needs
        # q | t, and (j*q)**3 <= 10**60 * q has no j >= 1
        assert count_powers_in_ap(3, prog) == CountReport(0, 0)

    def test_root_budget(self, monkeypatch):
        # 2**w square roots of 1 mod the product of the first w odd primes
        primes = [p for p in range(3, 80) if is_prime(p)]
        for w, refused in ((16, False), (21, True)):
            q = math.prod(primes[:w])
            prog = Progression(1 - q, q, 10 ** 40)
            if refused:
                with pytest.raises(CellBudgetError):
                    count_powers_in_ap(2, prog)
            else:
                rep = count_powers_in_ap(2, prog)
                assert 0 < rep.count_values <= rep.count_t
                assert len(modroots.kth_roots_mod(1, 2, q)) == 2 ** w
        monkeypatch.setattr(modroots, "ROOT_BUDGET", 2 ** 16 - 1)
        modroots._roots_mod_cached.cache_clear()
        with pytest.raises(CellBudgetError):
            modroots.kth_roots_mod(1, 2, math.prod(primes[:16]))

    def test_solution_cap_is_exact(self, monkeypatch):
        prog = Progression(-23, 24, 5)  # six solutions
        monkeypatch.setattr(counting, "SOLUTION_CAP", 6)
        assert len(count_powers_in_ap(2, prog, with_solutions=True).solutions) == 6
        assert count_poly_in_ap(Poly((1, 2)), Progression(1, 2, 6),
                                with_solutions=True).count_t == 6
        monkeypatch.setattr(counting, "SOLUTION_CAP", 5)
        with pytest.raises(CellBudgetError):
            count_powers_in_ap(2, prog, with_solutions=True)
        with pytest.raises(CellBudgetError):
            count_poly_in_ap(Poly((1, 2)), Progression(1, 2, 6),
                             with_solutions=True)
        # the counts alone are never capped
        assert count_powers_in_ap(2, prog).count_t == 6

    def test_poly_solution_cap_stops_the_walk(self, monkeypatch):
        """The cap is checked as the list grows: 2t + 1 hits every odd term,
        so a walk over 1000 values of t stops at its sixth solution."""
        monkeypatch.setattr(counting, "SOLUTION_CAP", 5)
        evaluated = []
        evaluate = Poly.__call__

        def counted(P, t):
            evaluated.append(t)
            return evaluate(P, t)

        monkeypatch.setattr(Poly, "__call__", counted)
        with pytest.raises(CellBudgetError):
            count_poly_in_ap(Poly((1, 2)), Progression(1, 2, 1000),
                             with_solutions=True)
        assert len(evaluated) < 100


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

    def test_both_algorithms_list_the_oracle_solutions(self):
        for k in range(2, 6):
            monomial = (0,) * k + (1,)
            for q in range(1, 31):
                for a in range(-q, q + 1):
                    for N in (1, 10, 100, 500):
                        prog = Progression(a, q, N)
                        want = tuple(brute_poly_report(monomial, prog)[2])
                        for algorithm in ALGORITHMS:
                            got = count_powers_in_ap(
                                k, prog, with_solutions=True,
                                algorithm=algorithm).solutions
                            assert got == want, (k, q, a, N, algorithm)

    @pytest.mark.parametrize("algorithm", ["residue", "interval"])
    def test_lost_solution_is_an_invariant_failure(self, monkeypatch, capsys,
                                                   algorithm):
        # a listing one pair short of count_t is a bug, so the CLI exits 2
        real = counting._power_solutions
        monkeypatch.setattr(counting, "_power_solutions",
                            lambda *args: real(*args)[:-1])
        with pytest.raises(InternalInvariantError,
                           match="solution list length 5 != count_t 6"):
            count_powers_in_ap(2, Progression(-23, 24, 5), with_solutions=True,
                               algorithm=algorithm)
        assert main(["count", "--k", "2", "--a", "-23", "--q", "24", "--N",
                     "5", "--solutions", "--algorithm", algorithm]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(
            "internal invariant failure: solution list length 5")

    def test_strided_listing_finds_the_roots_once(self, monkeypatch):
        # the stride's roots serve both its count and its solution list
        calls = []

        def spy(*args):
            calls.append(args)
            return modroots.kth_roots_mod(*args)

        monkeypatch.setattr(counting, "kth_roots_mod", spy)
        rep = count_powers_in_ap(2, Progression(-23, 24, 1000),
                                 with_solutions=True, algorithm="residue")
        assert len(rep.solutions) == rep.count_t > 0
        assert len(calls) == 1

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

    def test_degree_past_the_recursion_limit(self):
        # t**1000 + 1 has 999 derivatives, but its bracket [-4, 4] holds
        # fewer t, so it is cut t by t; it lands in [1, 10] only at t = 0
        # (value 1) and t = +-1 (value 2)
        P = Poly((1,) + (0,) * 999 + (1,))
        assert count_poly_in_ap(P, Progression(0, 1, 10)) == CountReport(3, 2)

    # degrees 1-4, each with both signs of the leading coefficient: repeated
    # values (t^2 - t, t^3 - t, t^4 - 5t^2), critical points at integers
    # (2t^3 - 3t^2) and two of them between 0 and 1 (16t^3 - 24t^2 + 9t)
    @pytest.mark.parametrize("coeffs", [
        (1, 2), (4, -3), (1, 0, 2), (0, -1, 1), (-3, 5, -2),
        (0, -1, 0, 1), (0, 0, -3, 2), (0, 9, -24, 16), (2, 7, 0, -1),
        (0, 0, -5, 0, 1), (1, -2, 3, 0, -2),
    ])
    def test_matches_brute_force_grid(self, coeffs):
        """count_t, count_values and solutions over q <= 12, a in [-q, q],
        N in {1, 7, 40}."""
        P = Poly(coeffs)
        for q in range(1, 13):
            for a in range(-q, q + 1):
                for N in (1, 7, 40):
                    prog = Progression(a, q, N)
                    rep = count_poly_in_ap(P, prog, with_solutions=True)
                    ct, cv, sols = brute_poly_report(coeffs, prog)
                    assert (rep.count_t, rep.count_values) == (ct, cv), prog
                    assert list(rep.solutions) == sols, prog


class TestIntervalWalk:
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=1, max_value=50),
           st.integers(min_value=-120, max_value=120),
           st.integers(min_value=1, max_value=300))
    @settings(max_examples=250)
    def test_matches_brute_force(self, k, q, a, N):
        # both algorithms, against the oracle: they share the even-k mirror,
        # so comparing them with each other cannot catch an error in it
        prog = Progression(a, q, N)
        want = brute_report(k, prog)
        for algorithm in ALGORITHMS:
            rep = count_powers_in_ap(k, prog, algorithm=algorithm)
            assert (rep.count_t, rep.count_values) == want, algorithm


# Steps with many kth roots of their kth-power residues: modulo
# 2**5 * 3**3 * 5 * 7 * 11 = 332,640, 1 has 64 square and 576 sixth roots.
ROOT_RICH = (2 ** 5 * 3 ** 3 * 5 * 7 * 11, 2 ** 4 * 3 ** 2 * 5 * 7 * 13,
             2 * 3 * 5 * 7 * 11 * 13, 2 ** 9 * 3 ** 4, 97, 1)


class TestResidueStride:
    """The stride counts each segment by rank among the sorted roots."""

    @given(st.sampled_from(ROOT_RICH), st.integers(min_value=1, max_value=6),
           st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=-10 ** 7, max_value=10 ** 7),
           st.integers(min_value=-10 ** 6, max_value=10 ** 7))
    @settings(max_examples=300)
    def test_rank_count_matches_per_root_sum(self, q, k, s, A, width):
        roots = modroots.kth_roots_mod(s ** k, k, q)
        B = A + width  # a negative width leaves the segment empty
        assert (counting._residue_stride_counts(roots, q, A, B)
                == classes_count(roots, q, A, B))

    @given(st.sampled_from(ROOT_RICH), st.integers(min_value=2, max_value=5),
           st.integers(min_value=0, max_value=10 ** 6),
           st.integers(min_value=-3, max_value=3),
           st.integers(min_value=1, max_value=2000))
    @settings(max_examples=150)
    def test_matches_the_interval_walk(self, q, k, s, shift, N):
        # a kth-power residue, moved so that lo is negative for shift < 0
        a = s ** k % q + shift * q
        prog = Progression(a, q, N)
        roots = modroots.kth_roots_mod(a, k, q)
        A, B = kth_power_t_window(k, prog.lo, prog.hi)
        for A, B in ((A, B), (-B, -A)):  # the window and its mirror
            assert (counting._residue_stride_counts(roots, q, A, B)
                    == kernels.interval_walk(k, a, q, A, B))


class TestPowerTable:
    """One table of x**k mod q lists the roots of every class of q."""

    def test_matches_enumeration(self):
        for q in range(1, 201):
            for k in range(1, 7):
                powers = [x ** k % q for x in range(q)]
                # a window longer than the limit takes the table
                A, B = 3, 2 * q + 7
                table, in_window, _ = counting._power_classes(k, q, A, B, 0)
                assert sorted(table) == sorted(set(powers)), (q, k)
                for a, xs in table.items():
                    assert xs == [x for x in range(q) if powers[x] == a], (q, k)
                    assert in_window(xs) == sum(
                        powers[t % q] == a for t in range(A, B + 1)), (q, k)


def _spy_tables(monkeypatch):
    """Record, for each counting._power_classes call, whether it tables."""
    tabled = []
    real = counting._power_classes

    def spy(k, q, A, B, limit):
        tabled.append(B - A + 1 > limit)
        return real(k, q, A, B, limit)

    monkeypatch.setattr(counting, "_power_classes", spy)
    return tabled


def _grid(q, a_mode, N_set):
    a_values = range(-q, q + 1) if a_mode == "window" else range(q)
    return [(a, N) for a in a_values for N in N_set]


class TestCountPowerCells:
    """One walk per (k, q) against per-cell counts by both algorithms."""

    @pytest.mark.parametrize("k", range(1, 6))
    @pytest.mark.parametrize("a_mode", ["window", "residues"])
    def test_matches_per_cell_counts(self, k, a_mode):
        for q in range(1, 41):
            for N_set, algorithms in (((1,), ALGORITHMS),
                                      ((1, 7, 50), ALGORITHMS),
                                      ((10, 100, 1000), ALGORITHMS),
                                      # walking 10**12 terms is out of reach
                                      ((1, 10 ** 12), ("residue",))):
                cells = _grid(q, a_mode, N_set)
                got = count_power_cells(k, q, cells)
                for algorithm in algorithms:
                    reps = (count_powers_in_ap(k, Progression(a, q, N),
                                               algorithm=algorithm)
                            for a, N in cells)
                    assert got == [(r.count_t, r.count_values)
                                   for r in reps], (q, N_set, algorithm)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_walk_or_table(self, monkeypatch, k):
        per_cell = []
        real = counting.count_powers_in_ap

        def spy(k, prog, **kwargs):
            per_cell.append(prog)
            return real(k, prog, **kwargs)

        monkeypatch.setattr(counting, "count_powers_in_ap", spy)
        tabled = _spy_tables(monkeypatch)
        for q in range(1, 41):
            for N_set in ((1,), (1, 7, 50), (10, 100, 1000)):
                count_power_cells(k, q, _grid(q, "window", N_set))
            assert tabled == [False] * 3
            # a kth-root window of millions of t: one table counts each cell
            count_power_cells(k, q, _grid(q, "window", (1, 10 ** 12)))
            assert tabled[3:] == [True]
            assert per_cell == []
            tabled.clear()

    def test_window_bound_is_exact(self, monkeypatch):
        # k = 2, q = 1, a = 0: the values 1..N have the window [1, isqrt(N)]
        tabled = _spy_tables(monkeypatch)
        longest = (3 * counting.SHARED_WALK_PER_CELL + 1) ** 2 - 1
        for N in (longest, longest + 1):
            assert count_power_cells(2, 1, [(0, N)] * 3) == [
                (2 * math.isqrt(N), math.isqrt(N))] * 3
        assert tabled == [False, True]

    @pytest.mark.parametrize("k", [2, 3])
    def test_table_needs_no_roots(self, monkeypatch, k):
        # N = 10**12: every (k, q) takes the table, which finds the roots of
        # every class without factoring, lifting or the CRT
        def refuse(*args, **kwargs):
            raise AssertionError("count_power_cells left the walk and table")

        grids = [(q, _grid(q, "window", (10, 10 ** 12))) for q in range(1, 41)]
        want = [[(r.count_t, r.count_values)
                 for r in (count_powers_in_ap(k, Progression(a, q, N),
                                              algorithm="residue")
                           for a, N in cells)] for q, cells in grids]
        for module, name in ((counting, "count_powers_in_ap"),
                             (counting, "kth_roots_mod"),
                             (modroots, "kth_roots_mod"),
                             (modroots, "factorize"),
                             (intkernel, "factorize")):
            monkeypatch.setattr(module, name, refuse)
        assert [count_power_cells(k, q, cells) for q, cells in grids] == want

    def test_table_over_the_walk_budget_is_refused(self):
        # the table would take q pow calls, so it is refused before the first
        q = counting.WALK_BUDGET + 1
        start = time.perf_counter()
        with pytest.raises(CellBudgetError):
            count_power_cells(2, q, [(0, 10 ** 30)])
        assert time.perf_counter() - start < 1.0

    def test_even_k_counts_zero_once(self):
        # 0 = 0**4 is one value and one t, in the cells of 0 mod 5 whose
        # lo <= 0; 1 and 16 are the fourth powers of 1 mod 5 up to 16
        got = count_power_cells(4, 5, [(-5, 1), (-5, 130), (0, 130), (-4, 4)])
        assert got == [(1, 1), (3, 2), (2, 1), (4, 2)]

    def test_empty_and_bad_cells(self):
        assert count_power_cells(2, 7, []) == []
        assert count_power_cells(2, 3, [(-10, 2)]) == [(0, 0)]
        for k, q, cells in ((0, 3, [(0, 1)]), (2, 0, [(0, 1)]),
                            (2, 3, [(0, 1), (0, 0)])):
            with pytest.raises(ValueError):
                count_power_cells(k, q, cells)
