import hashlib
import itertools
import json
import math
from fractions import Fraction

import pytest

from appowers import theorem
from appowers.cli import main
from appowers.counting import (CountReport, Progression, count_poly_in_ap,
                               count_powers_in_ap)
from appowers.errors import (BoundViolationError, CellBudgetError,
                             InternalInvariantError)
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
                for j, (t0, i0) in enumerate(sols):
                    Q = difference_quotient(P, t0).coeffs[::-1]
                    for t, i in sols[:j]:
                        w = extract_witness(P, prog, t, t0)
                        assert _split(Q, q, prog.N, t0, i0, [(t, i)]) == \
                            (w.q1, w.q2, w.n1, w.n2)
                        assert (w.i, w.i0) == (i, i0)
                        pairs += 1
                        negative += t < 0
                    if j:  # all partners in one call: the last one's split
                        w = extract_witness(P, prog, sols[j - 1][0], t0)
                        assert _split(Q, q, prog.N, t0, i0, sols[:j]) == \
                            (w.q1, w.q2, w.n1, w.n2)
        assert pairs > 0 and negative > 0

    def test_split_checks_every_partner(self):
        # a bad pair is caught wherever it sits among the partners of t0
        P = Poly.monomial(2)
        prog = Progression(-23, 24, 5)
        sols = count_powers_in_ap(2, prog, with_solutions=True).solutions
        t0, i0 = sols[-1]
        Q = difference_quotient(P, t0).coeffs[::-1]
        assert _split(Q, 24, 5, t0, i0, sols[:-1]) == (2, 12, 1, 1)
        for j in range(len(sols) - 1):
            t, i = sols[j]
            bad = sols[:j] + ((t, i + 1),) + sols[j + 1:-1]
            with pytest.raises(InternalInvariantError):
                _split(Q, 24, 5, t0, i0, bad)
        with pytest.raises(ValueError, match="two distinct"):
            _split(Q, 24, 5, t0, i0, sols[:1] + ((t0, i0),))

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
        calls = []
        real_split = theorem._split

        def spy(Q, q, N, t0, i0, partners):
            # len(Q) == k for t**k
            calls.append((len(Q), q, t0))
            assert tuple(Q) == difference_quotient(
                Poly.monomial(len(Q)), t0).coeffs[::-1]
            return real_split(Q, q, N, t0, i0, partners)

        monkeypatch.setattr(theorem, "_split", spy)
        rep = verify_bound_sweep([2, 3], 10, [10, 100], collect_rows=True)
        # one per (k, q, t0) with t0 the larger t of a pair in some
        # witnessed cell, that is every solution of such a cell but its least
        t0s = set()
        for k, q, a, N, ct, *_ in rep.rows:
            if 2 <= ct <= theorem.WITNESS_PAIR_CAP:
                sols = count_powers_in_ap(k, Progression(a, q, N),
                                          with_solutions=True).solutions
                t0s.update((k, q, t0) for t0, _ in sols[1:])
        assert len(calls) == len(set(calls)) == 464
        assert set(calls) == t0s
        assert len(calls) < sum(row[4] - 1 for row in rep.rows
                                if 2 <= row[4] <= theorem.WITNESS_PAIR_CAP)

    @pytest.mark.parametrize("a_mode", ["window", "residues"])
    def test_each_pair_certified_once(self, monkeypatch, a_mode):
        # pairs recur in (a, N) and (a + q, N) and in (a, N) for larger N
        certified = []
        real_split = theorem._split

        def spy(Q, q, N, t0, i0, partners):
            # len(Q) == k for t**k
            certified.extend((len(Q), q, t, t0) for t, _ in partners)
            return real_split(Q, q, N, t0, i0, partners)

        class_pairs = set()
        real_count = theorem.count_powers_in_ap

        def lists(k, prog, with_solutions=False, **kwargs):
            rep = real_count(k, prog, with_solutions=with_solutions, **kwargs)
            if with_solutions:
                class_pairs.update((k, prog.q, t, t0) for (t, _), (t0, _) in
                                   itertools.combinations(rep.solutions, 2))
            return rep

        monkeypatch.setattr(theorem, "_split", spy)
        monkeypatch.setattr(theorem, "count_powers_in_ap", lists)
        rep = verify_bound_sweep([2, 3], 12, [10, 30, 100], a_mode=a_mode,
                                 collect_rows=True)
        want = set()
        for k, q, a, N, ct, *_ in rep.rows:
            if 2 <= ct <= theorem.WITNESS_PAIR_CAP:
                sols = real_count(k, Progression(a, q, N),
                                  with_solutions=True).solutions
                want.update((k, q, t, t0) for (t, _), (t0, _) in
                            itertools.combinations(sols, 2))
        assert len(certified) == len(set(certified))
        assert want <= set(certified) <= class_pairs
        assert len(want) < rep.witness_pairs

    def test_pair_first_in_a_later_cell_is_certified(self, monkeypatch):
        # class 1 mod 24 has the cells a = -23 (values 1..97) and a = 1
        # (values 25..121); (7, 11), with values 49 and 121, is only in the
        # second, and the one list of the class certifies it once
        certified = []
        real_split = theorem._split

        def spy(Q, q, N, t0, i0, partners):
            certified.extend((q, t, t0) for t, _ in partners)
            return real_split(Q, q, N, t0, i0, partners)

        def sweep():
            rep = theorem.SweepReport(k_set=(2,), q_max=24, a_mode="window",
                                      N_set=(5,))
            theorem._sweep_task(rep, 2, 24)

        monkeypatch.setattr(theorem, "_split", spy)
        sweep()
        assert certified.count((24, 7, 11)) == 1
        assert certified.count((24, 5, 7)) == 1  # in both cells

        def spoiled(Q, q, N, t0, i0, partners):
            if t0 == 11:
                Q = [2 * c for c in Q]
            return real_split(Q, q, N, t0, i0, partners)

        monkeypatch.setattr(theorem, "_split", spoiled)
        with pytest.raises(InternalInvariantError):
            sweep()

    def test_output_pinned(self):
        # sha256 recorded before pairs were certified once per (k, q)
        rep = verify_bound_sweep([2, 3, 4], 12, [10, 100, 1000],
                                 collect_rows=True)
        out = rep.to_jsonable()
        out["rows"] = [list(row) for row in rep.rows]
        text = json.dumps(out, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "2a35a6ab878819fc5f9f244dea0935053577e5eafa9b4214e918fb5337bf5146")
        assert rep.witness_pairs == 87508

    # (2, 24, -23, 5) has the solutions (t, i) = (-7, 3), (-5, 2),
    # (-1, 1), (1, 1), (5, 2), (7, 3).  It shares class 1 mod 24 with the
    # witnessed cell (2, 24, 1, 5), so its solutions come from the one list
    # of that class, Progression(-23, 24, 6), which adds (-11, 6), (11, 6).
    CLASS_CALL = (2, Progression(-23, 24, 6))
    CLASS = r"Progression\(a=-23, q=24, N=6\)"
    CELL = r"Progression\(a=-23, q=24, N=5\)"

    def spoil_class_list(self, monkeypatch, fault):
        """Route the class list of (2, 24, -23, 5) through fault, which maps
        each (t, i) to its replacement, or to None to drop it; return the
        spoiled calls made."""
        real = theorem.count_powers_in_ap
        spoiled_calls = []

        def spoiled(k, prog, with_solutions=False, **kwargs):
            rep = real(k, prog, with_solutions=with_solutions, **kwargs)
            if with_solutions and (k, prog) == self.CLASS_CALL:
                spoiled_calls.append(prog)
                sols = (fault(t, i) for t, i in rep.solutions)
                rep = CountReport(rep.count_t, rep.count_values,
                                  tuple(s for s in sols if s is not None))
            return rep

        monkeypatch.setattr(theorem, "count_powers_in_ap", spoiled)
        return spoiled_calls

    @pytest.mark.parametrize("fault", [
        lambda t, i: (t, i + 1) if t == 7 else (t, i),
        lambda t, i: (t + 1, i) if t == 7 else (t, i),
        # every |i - i0| is unchanged, so only the membership check sees it
        lambda t, i: (t, i + 1),
        # 13**2 = -23 + 8*24 is a term of the class, but past the list's N = 6
        lambda t, i: (13, 8) if t == 11 else (t, i),
    ], ids=["one_index_off_by_one", "not_a_solution", "every_index_shifted",
            "index_past_the_list"])
    def test_bad_solution_is_caught(self, monkeypatch, capsys, fault):
        spoiled_calls = self.spoil_class_list(monkeypatch, fault)
        with pytest.raises(InternalInvariantError, match=self.CLASS):
            verify_bound_sweep([2], 24, [5])
        assert spoiled_calls == [self.CLASS_CALL[1]]
        assert main(["verify", "--k-set", "2", "--q-max", "24",
                     "--N-set", "5"]) == 2
        assert capsys.readouterr().out == ""

    def test_non_member_is_caught_before_split_names_it(self, monkeypatch):
        # (5, 3) is sixth in the class list, after five valid solutions
        # whose pairs may be certified first; no _split call names t = 5,
        # as t0 or as a partner, before its membership check raises
        named = []  # for q = 24
        real_split = theorem._split

        def spy(Q, q, N, t0, i0, partners):
            if q == 24:
                named.append({t0, *(t for t, _ in partners)})
            return real_split(Q, q, N, t0, i0, partners)

        monkeypatch.setattr(theorem, "_split", spy)
        self.spoil_class_list(monkeypatch,
                              lambda t, i: (t, 3) if t == 5 else (t, i))
        with pytest.raises(InternalInvariantError,
                           match=r"P\(5\) is not term 3 of " + self.CLASS):
            verify_bound_sweep([2], 24, [5])
        assert not any(5 in ts for ts in named)

    def test_repeated_solution_is_caught(self, monkeypatch):
        # every (t, i) is a member and each cell has count_t entries in its
        # [1, N], but (7, 3) is missing: pairs with t = 7 would never be
        # certified
        spoiled_calls = self.spoil_class_list(
            monkeypatch, lambda t, i: (5, 2) if t == 7 else (t, i))
        with pytest.raises(InternalInvariantError,
                           match=self.CLASS + " are not strictly increasing"):
            verify_bound_sweep([2], 24, [5])
        assert spoiled_calls == [self.CLASS_CALL[1]]

    def test_lost_solution_is_caught(self, monkeypatch):
        # (7, 3) dropped from the class list leaves the cell one short, and
        # what is left is a valid list
        self.spoil_class_list(monkeypatch,
                              lambda t, i: None if t == 7 else (t, i))
        with pytest.raises(InternalInvariantError,
                           match="5 solutions of " + self.CELL):
            verify_bound_sweep([2], 24, [5])

    @pytest.mark.parametrize("a_mode", ["window", "residues"])
    def test_slices_match_cell_solutions(self, monkeypatch, a_mode):
        # each witnessed cell's index range of its class list, shifted by
        # the cell's offset, is exactly the list its own with_solutions
        # call makes
        lists = {}
        real = theorem.count_powers_in_ap

        def spy(k, prog, with_solutions=False, **kwargs):
            rep = real(k, prog, with_solutions=with_solutions, **kwargs)
            if with_solutions:
                lists[k, prog.q, prog.a % prog.q] = (prog.a, rep.solutions)
            return rep

        monkeypatch.setattr(theorem, "count_powers_in_ap", spy)
        rep = verify_bound_sweep([2, 3, 4], 12, [10, 30, 100], a_mode=a_mode,
                                 collect_rows=True)
        cells = 0
        for k, q, a, N, ct, *_ in rep.rows:
            if 2 <= ct <= theorem.WITNESS_PAIR_CAP:
                a0, sols = lists[k, q, a % q]
                shift = (a - a0) // q
                assert tuple((t, i - shift) for t, i in sols
                             if shift < i <= shift + N) == real(
                    k, Progression(a, q, N), with_solutions=True).solutions
                cells += 1
        assert cells > len(lists)

    def test_one_solution_list_per_class(self, monkeypatch):
        lists = []
        real = theorem.count_powers_in_ap

        def spy(k, prog, with_solutions=False, **kwargs):
            if with_solutions:
                lists.append((k, prog.q, prog.a % prog.q))
            return real(k, prog, with_solutions=with_solutions, **kwargs)

        monkeypatch.setattr(theorem, "count_powers_in_ap", spy)
        rep = verify_bound_sweep([2, 3, 4], 12, [10, 100, 1000],
                                 collect_rows=True)
        witnessed = [(k, q, a % q) for k, q, a, N, ct, *_ in rep.rows
                     if 2 <= ct <= theorem.WITNESS_PAIR_CAP]
        assert len(lists) == len(set(lists)) == 137
        assert set(lists) == set(witnessed)
        assert len(witnessed) == 649

    def test_large_unwitnessed_cells_are_not_listed(self):
        # for k = 2 and q = 1 each N = 10**12 cell has about 2 * 10**6
        # solutions, over counting.SOLUTION_CAP; no such cell is witnessed,
        # so none is listed.
        # sha256 recorded before witnessed cells shared one list per class
        rep = verify_bound_sweep([2, 3, 4], 5, [10, 10 ** 12],
                                 collect_rows=True)
        out = rep.to_jsonable()
        out["rows"] = [list(row) for row in rep.rows]
        text = json.dumps(out, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "4e13f73875340609d880d4d8d032636cedb89908156851181b3f6bf2dd38362c")
        assert rep.witness_pairs == 266

    @pytest.mark.parametrize("a_mode", ["window", "residues"])
    def test_fold_matches_the_rows(self, a_mode):
        # each (k, q) keeps only each N's largest counts and their first a;
        # the rows still hold every cell, so both argmax cells, under the
        # rule that ties go to the least a and then the least N, both exact
        # maxima and both float maxima are recomputed from them.  k = 1
        # ties at ratio 1 on every cell of N = 10**400, past float range.
        N_set = (1, 2, 3, 4, 8, 9, 16, 27, 100, 10 ** 400)
        for k in range(1, 5):
            for q in range(1, 41):
                rep = theorem.SweepReport(k_set=(k,), q_max=q, a_mode=a_mode,
                                          N_set=N_set, rows=[])
                theorem._sweep_task(rep, k, q)
                assert rep.cells == len(rep.rows)
                dk = divisor_count(q) ** (k - 1)
                for got, ratio, d, col in (
                        ((rep.max_ratio, rep.max_ratio_cell,
                          rep.max_ratio_float),
                         lambda r: Fraction(r[7], r[8]), dk, 4),
                        ((rep.max_value_ratio, rep.max_value_ratio_cell,
                          rep.max_value_ratio_float),
                         lambda r: Fraction(r[5], ikth_root_ceil(r[3], k)),
                         1, 5)):
                    top = max(rep.rows, key=lambda r: (ratio(r), -r[2], -r[3]))
                    best = ratio(top)
                    want = (best, top[:4] if best else None, max(
                        theorem._float_ratio(r[col], d, r[3], k)
                        for r in rep.rows))
                    assert got == want, (a_mode, k, q, col)

    def test_bound_violation_names_the_first_cell(self, monkeypatch, capsys):
        # with the constant 2k - 1 cut to 1, the first cell over the bound
        # in (k, q, a, N) order is found from an unpatched run's rows
        grid = ([1, 2, 3], 30, [1, 2, 10, 100])
        rows = verify_bound_sweep(*grid, collect_rows=True).rows
        k, q, a, N, count_t, bound = next(
            r[:5] + (r[6] // bound_constant(r[0]),) for r in rows
            if r[4] > r[6] // bound_constant(r[0]))
        assert (k, q, a, N) == (2, 1, -1, 2)  # not the first cell of its q
        monkeypatch.setattr(theorem, "bound_constant", lambda k: 1)
        with pytest.raises(BoundViolationError) as info:
            verify_bound_sweep(*grid)
        assert str(info.value) == (
            f"count_t={count_t} exceeds bound {bound} at "
            f"cell k={k}, q={q}, a={a}, N={N}")
        assert main(["verify", "--k-set", "1,2,3", "--q-max", "30",
                     "--N-set", "1,2,10,100"]) == 2
        assert capsys.readouterr().out == ""

    def test_residue_mode(self):
        rep = verify_bound_sweep([2], 12, [50], a_mode="residues")
        assert rep.cells == sum(range(1, 13))

    def test_budget(self, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell ran before the budget check")

        monkeypatch.setattr(theorem, "count_power_cells", no_cell)
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
        with pytest.raises(ValueError, match="k_set entries must be >= 1"):
            verify_bound_sweep([0, 2], 10, [10])
        with pytest.raises(ValueError, match="N_set entries must be >= 1"):
            verify_bound_sweep([2], 10, [-5, 10])

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            verify_bound_sweep([], 10, [10])
        with pytest.raises(ValueError):
            verify_bound_sweep([2], 0, [10])
