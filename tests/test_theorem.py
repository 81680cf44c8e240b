import itertools
import math
from fractions import Fraction

import pytest

from appowers import theorem
from appowers.cli import main
from appowers.counting import (CountReport, Progression, count_poly_in_ap,
                               count_powers_in_ap)
from appowers.errors import CellBudgetError, InternalInvariantError
from appowers.intkernel import divisor_count, ikth_root_ceil
from appowers.poly import Poly, difference_quotient
from appowers.theorem import (CSV_COLUMNS, _split, bound_constant,
                              extract_witness, theorem_bound,
                              verify_bound_sweep)


class TestBound:
    def test_constant(self):
        assert [bound_constant(k) for k in range(1, 6)] == [1, 3, 5, 7, 9]

    @pytest.mark.parametrize("k,q,N,want", [
        (1, 360, 50, 50),
        (2, 24, 100, 240),
        (3, 2, 1000, 200),
    ])
    def test_examples(self, k, q, N, want):
        assert theorem_bound(k, q, N) == want

    def test_monotone_in_divisor_count_and_N(self):
        # ordered by divisor count: d(2)=2, d(4)=3, d(12)=6, d(360)=24
        for k in (2, 3):
            values = [theorem_bound(k, q, 100) for q in (1, 2, 4, 12, 360)]
            assert values == sorted(values)
            by_N = [theorem_bound(k, 24, N) for N in (1, 10, 100, 1000, 10 ** 6)]
            assert by_N == sorted(by_N)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            theorem_bound(0, 1, 1)
        with pytest.raises(ValueError):
            theorem_bound(2, 0, 1)


class TestWitness:
    def test_example_cell_pair_one(self):
        w = extract_witness(Poly.monomial(2), Progression(-23, 24, 5), 5, 1)
        assert (w.q1, w.q2, w.n1, w.n2) == (4, 6, 1, 1)
        assert abs(w.i - w.i0) == 1

    def test_example_cell_pair_two(self):
        w = extract_witness(Poly.monomial(2), Progression(-23, 24, 5), 7, 5)
        assert (w.q1, w.q2, w.n1, w.n2) == (2, 12, 1, 1)

    def test_step_one_collapses_to_factorization(self):
        w = extract_witness(Poly.monomial(2), Progression(0, 1, 100), 10, 9)
        assert (w.q1, w.q2, w.n1, w.n2) == (1, 1, 1, 19)
        assert w.n1 * w.n2 == abs(w.i - w.i0) == 19

    def test_rejects_equal_t(self):
        with pytest.raises(ValueError):
            extract_witness(Poly.monomial(2), Progression(0, 1, 100), 5, 5)

    def test_rejects_outside_progression(self):
        with pytest.raises(ValueError):
            extract_witness(Poly.monomial(2), Progression(-23, 24, 5), 5, 2)

    def test_invariants_on_all_pairs_of_a_cell(self):
        prog = Progression(-23, 24, 30)
        P = Poly.monomial(2)
        sols = count_powers_in_ap(2, prog, with_solutions=True).solutions
        assert len(sols) >= 4
        for (t, i), (t0, i0) in itertools.combinations(sols, 2):
            w = extract_witness(P, prog, t, t0)
            Q = difference_quotient(P, t0)
            assert w.q1 * w.q2 == prog.q
            assert abs(t - t0) == w.n1 * w.q1
            assert abs(Q(t)) == w.n2 * w.q2
            assert w.n1 * w.n2 == abs(i - i0) <= prog.N - 1
            # the multiplicative form of the case split
            assert w.n1 <= ikth_root_ceil(prog.N, 2) or \
                w.n2 <= prog.N // max(w.n1, 1)

    def test_split_matches_extract_witness(self):
        # a = 1 - 500q centres the values on 0, so negative t appear for
        # every k, not only for even k
        pairs = negative = 0
        for k in (2, 3, 4):
            P = Poly.monomial(k)
            for q in (1, 6, 24):
                prog = Progression(1 - 500 * q, q, 1000)
                sols = count_powers_in_ap(k, prog, with_solutions=True).solutions
                for (t, i), (t0, i0) in itertools.combinations(sols, 2):
                    w = extract_witness(P, prog, t, t0)
                    Q = difference_quotient(P, t0).coeffs[::-1]
                    assert _split(Q, q, prog.N, t, t0, i, i0) == \
                        (w.q1, w.q2, w.n1, w.n2)
                    assert (w.i, w.i0) == (i, i0)
                    pairs += 1
                    negative += t < 0
        assert pairs > 0 and negative > 0

    def test_general_polynomial_witness(self):
        P = Poly((1, 0, 2))  # 2t^2 + 1
        prog = Progression(1, 2, 50)
        pairs = count_poly_in_ap(P, prog, with_solutions=True).solutions
        for (t, i), (t0, i0) in itertools.combinations(pairs, 2):
            w = extract_witness(P, prog, t, t0)
            assert w.n1 * w.n2 == abs(i - i0)


class TestSweep:
    def test_linear_case_never_violates(self):
        rep = verify_bound_sweep([1], 50, [10])
        assert rep.violations == 0
        assert rep.cells == sum(2 * q + 1 for q in range(1, 51))
        assert rep.max_ratio <= 1  # count_t <= N for linear

    def test_square_grid_zero_violations(self):
        rep = verify_bound_sweep([2], 100, [100])
        assert rep.violations == 0
        assert rep.max_ratio <= bound_constant(2)
        assert rep.witness_pairs > 0

    def test_single_cell_ratio_diagnostic(self):
        rep = verify_bound_sweep([2], 24, [5], collect_rows=True)
        row = next(r for r in rep.rows if r[:4] == (2, 24, -23, 5))
        assert row[4] == 6  # count_t
        ratio = Fraction(row[7], row[8])
        assert ratio == Fraction(6, 8 * ikth_root_ceil(5, 2)) == Fraction(1, 4)
        bound = row[6]
        assert bound == theorem_bound(2, 24, 5)

    def test_rows_match_grid(self):
        # the closed forms the cell budget is checked against
        for a_mode, per_k_N in (("window", 10 * 12), ("residues", 10 * 11 // 2)):
            rep = verify_bound_sweep([2, 3], 10, [10, 100], a_mode=a_mode,
                                     collect_rows=True)
            assert len(rep.rows) == rep.cells == 2 * 2 * per_k_N
            for k, q, a, N, ct, cv, bound, num, den in rep.rows:
                assert bound == theorem_bound(k, q, N)
                assert ct <= bound
                assert cv <= ct
                assert Fraction(num, den) == Fraction(
                    ct, divisor_count(q) ** (k - 1) * ikth_root_ceil(N, k))
            assert len(CSV_COLUMNS) == len(rep.rows[0])
            assert rep.witness_pairs == sum(
                math.comb(row[4], 2) for row in rep.rows
                if 2 <= row[4] <= theorem.WITNESS_PAIR_CAP)

    def test_one_difference_quotient_per_t0(self, monkeypatch):
        calls = 0
        real = theorem.difference_quotient

        def counting(P, t0):
            nonlocal calls
            calls += 1
            return real(P, t0)

        monkeypatch.setattr(theorem, "difference_quotient", counting)
        rep = verify_bound_sweep([2, 3], 10, [10, 100], collect_rows=True)
        assert calls == sum(row[4] - 1 for row in rep.rows
                            if 2 <= row[4] <= theorem.WITNESS_PAIR_CAP)
        assert calls < rep.witness_pairs

    @pytest.mark.parametrize("fault", [
        lambda sols: sols[:-1] + ((sols[-1][0], sols[-1][1] + 1),),
        lambda sols: sols[:-1] + ((sols[-1][0] + 1, sols[-1][1]),),
        # every |i - i0| is unchanged, so only the membership check sees it
        lambda sols: tuple((t, i + 1) for t, i in sols),
    ], ids=["one_index_off_by_one", "not_a_solution", "every_index_shifted"])
    def test_bad_solution_is_caught(self, monkeypatch, capsys, fault):
        # (2, 24, -23, 5) has the solutions (t, i) = (-7, 3), (-5, 2),
        # (-1, 1), (1, 1), (5, 2), (7, 3)
        real = theorem.count_powers_in_ap

        def spoiled(k, prog, with_solutions=False, **kwargs):
            rep = real(k, prog, with_solutions=with_solutions, **kwargs)
            if with_solutions and (k, prog) == (2, Progression(-23, 24, 5)):
                rep = CountReport(rep.count_t, rep.count_values,
                                  fault(rep.solutions))
            return rep

        monkeypatch.setattr(theorem, "count_powers_in_ap", spoiled)
        with pytest.raises(InternalInvariantError):
            verify_bound_sweep([2], 24, [5])
        assert main(["verify", "--k-set", "2", "--q-max", "24",
                     "--N-set", "5"]) == 2
        assert capsys.readouterr().out == ""

    def test_residue_mode(self):
        rep = verify_bound_sweep([2], 12, [50], a_mode="residues")
        assert rep.cells == sum(range(1, 13))

    def test_budget(self, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the budget check")

        monkeypatch.setattr(theorem, "count_powers_in_ap", no_cell)
        # 1414 * 1416 = 2,002,224 cells, just over the budget of 2,000,000
        with pytest.raises(CellBudgetError, match=" 2002224 cells,"):
            verify_bound_sweep([2], 1414, [10])
        with pytest.raises(CellBudgetError,
                           match=" 1000000002000000000 cells,"):
            verify_bound_sweep([2], 10 ** 9, [10])
        with pytest.raises(CellBudgetError, match=" 2000000002000000000 cells,"):
            verify_bound_sweep([2, 3], 10 ** 9, [10, 100], a_mode="residues")
        with pytest.raises(ValueError, match="unknown a_mode"):
            verify_bound_sweep([2], 10 ** 9, [10], a_mode="cells")

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            verify_bound_sweep([], 10, [10])
        with pytest.raises(ValueError):
            verify_bound_sweep([2], 0, [10])
