import hashlib
import json
import math

import pytest

from appowers import counting, intkernel, modroots, search
from appowers.counting import Progression, count_powers_in_ap
from appowers.errors import CellBudgetError
from appowers.intkernel import kth_power_t_window
from appowers.search import extremal_search, rudin_count, rudin_progression
from oracles import brute_report


def rudin_oracle(N):
    """Squares in {24n+1 : 0 <= n <= N-1}: t >= 1 coprime to 6 with
    t^2 <= 24N - 23 (every such t^2 is 1 mod 24)."""
    return sum(1 for t in range(1, math.isqrt(24 * N - 23) + 1)
               if math.gcd(t, 6) == 1)


class TestRudin:
    def test_progression_convention(self):
        prog = rudin_progression(5)
        assert [prog.a + i * prog.q for i in range(1, 6)] == [1, 25, 49, 73, 97]

    @pytest.mark.parametrize("N,want", [(1, 1), (5, 3), (10 ** 6, 1633)])
    def test_counts(self, N, want):
        assert rudin_count(N).count_values == want

    def test_matches_oracle_range(self):
        for N in range(1, 2001):
            assert rudin_count(N).count_values == rudin_oracle(N), N

    def test_beats_trivial_progression(self):
        for N in range(1, 10_001):
            cv = rudin_count(N).count_values
            assert cv >= math.isqrt(N) - 1, N


class TestExtremalSearch:
    def test_single_term(self):
        rec = extremal_search(2, 1, 10)
        assert rec.best_count_values == 1

    def test_trivial_slice(self):
        for N in (1, 10, 100, 1000):
            rec = extremal_search(2, N, 1, a_window=0)
            assert rec.best_count_values == math.isqrt(N)
            assert rec.best_cells == ((1, 0),)

    def test_rudin_cell_found(self):
        rec = extremal_search(2, 5, 30, a_window=1)
        assert rec.best_count_values >= 3
        assert (24, -23) in rec.best_cells

    def test_best_cells_recompute(self):
        rec = extremal_search(2, 50, 25, a_window=1)
        assert rec.best_cells == tuple(sorted(rec.best_cells))
        for q, a in rec.best_cells:
            cv = count_powers_in_ap(2, Progression(a, q, 50)).count_values
            assert cv == rec.best_count_values

    def test_scaling_equivalent_cells_tie(self):
        rec = extremal_search(2, 20, 30, a_window=0)
        counts = {(q, a): count_powers_in_ap(2, Progression(a, q, 20)).count_values
                  for q, a in rec.best_cells}
        for (q, a), cv in counts.items():
            if 4 * q <= 30:
                scaled = count_powers_in_ap(2, Progression(4 * a, 4 * q, 20))
                assert scaled.count_values == cv

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("a_window", [0, 1])
    def test_matches_brute_force_maximum(self, k, a_window):
        for q_max in (1, 5, 12):
            for N in (1, 7, 50):
                cv = {(q, a): brute_report(k, Progression(a, q, N))[1]
                      for q in range(1, q_max + 1) for r in range(q)
                      for a in range(r - a_window * q, r + a_window * q + 1, q)}
                best = max(cv.values())
                rec = extremal_search(k, N, q_max, a_window=a_window)
                assert rec.best_count_values == best
                assert rec.best_cells == tuple(sorted(
                    cell for cell, n in cv.items() if n == best))
                assert rec.cells_evaluated == len(cv)

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    @pytest.mark.parametrize("a_window", [0, 1, 3])
    def test_pruning_is_exact(self, k, a_window):
        # the maximum and every tie of the per-cell counts over each q's
        # whole grid, counted apart from the search's walk and table;
        # N = 10**12 takes the path that does not walk
        for N, q_max in ((1, 40), (2, 40), (7, 40), (50, 40), (1000, 40),
                         (10 ** 12, 12)):
            algorithm = "residue" if N == 10 ** 12 else "auto"
            cv = {(q, a): count_powers_in_ap(k, Progression(a, q, N),
                                             algorithm=algorithm).count_values
                  for q in range(1, q_max + 1) for r in range(q)
                  for a in range(r - a_window * q, r + a_window * q + 1, q)}
            best = max(cv.values())
            rec = extremal_search(k, N, q_max, a_window=a_window)
            assert rec.best_count_values == best, N
            assert rec.best_cells == tuple(sorted(
                cell for cell, n in cv.items() if n == best)), N

    def test_prunes_classes(self, monkeypatch):
        # N = 1000: q takes the table where its hull's window of about
        # (1002 q)**(1/k) t is longer than q, and walks it elsewhere; every
        # cell counted calls the count that comes with its q's classes.  A
        # q whose largest root class cannot reach the best count is never
        # listed: no class of it holds more than max_root_counts(k, 80)[q]
        # members, each with at most (B - A) // q + 1 t in the window [A, B]
        tabled, counted = {}, []

        def spy(k, q, A, B, limit):
            tabled[q] = B - A + 1 > limit
            classes, in_window, count = counting._power_classes(k, q, A, B,
                                                                limit)

            def spy_count(members, lo, hi):
                counted.append((q, lo))
                return count(members, lo, hi)
            return classes, in_window, spy_count

        monkeypatch.setattr(search, "_power_classes", spy)
        for k, last_tabled in ((2, 80), (3, 31)):
            bounds = modroots.max_root_counts(k, 80)
            tabled.clear()
            counted.clear()
            rec = extremal_search(k, 1000, 80, a_window=1)
            assert tabled == {q: q <= last_tabled for q in tabled}, k
            assert 0 < len(tabled) <= 10, k
            assert 0 < len(counted) < rec.cells_evaluated / 100, k
            assert rec.cells_evaluated == 9720
            for q in set(range(1, 81)) - set(tabled):
                A, B = counting.kth_power_t_window(k, 0, 1000 * q + 2 * q - 1)
                assert (bounds[q] * ((B - A) // q + 1)
                        < rec.best_count_values), (k, q)

    def test_bound_takes_no_root_for_a_skipped_q(self, monkeypatch):
        # two windows, of the q = 1 and q = q_max hulls, bound every q's
        # window before its own is taken, so a q that bound skips takes no
        # root; the count includes the cells' windows
        calls, window = [], counting.kth_power_t_window

        def spy(k, lo, hi):
            calls.append((k, lo, hi))
            return window(k, lo, hi)

        monkeypatch.setattr(counting, "kth_power_t_window", spy)
        for k in (2, 3):
            calls.clear()
            extremal_search(k, 1000, 80, a_window=1)
            assert len(calls) < 45, (k, len(calls))

    @pytest.mark.parametrize("a_window", [0, 1, 2, 3])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_windows_lie_in_the_end_hulls(self, k, a_window):
        # q's hull runs from q(1 - w) to q(1 + w + N) - 1: its top rises
        # with q and its bottom rises (w = 0), stays 0 (w = 1) or falls
        # (w >= 2), so the windows of the q = 1 and q = q_max hulls bound
        # every q's window [A, B] between min(A_1, A_qmax) and B_qmax
        w = a_window
        for N in (1, 2, 7, 1000, 10 ** 12):
            for q_max in (1, 2, 40):
                A1, _ = kth_power_t_window(k, 1 - w, w + N)
                Am, Bm = kth_power_t_window(k, q_max * (1 - w),
                                            q_max * (1 + w + N) - 1)
                for q in range(1, q_max + 1):
                    A, B = kth_power_t_window(k, q * (1 - w),
                                              q * (1 + w + N) - 1)
                    assert min(A1, Am) <= A and B <= Bm, (N, q_max, q)
                if q_max == 40:
                    # A follows the hull's bottom: it rises for w = 0, and
                    # for odd k it falls for w >= 2, so A_1 is not the least
                    assert Am > A1 if w == 0 else Am <= A1, N
                    if w >= 2 and k % 2:
                        assert Am < A1, N

    @pytest.mark.parametrize("k", [2, 3])
    def test_table_needs_no_roots(self, monkeypatch, k):
        # N = 10**12: every q's window is longer than q, and its table finds
        # the roots of every class, so no root is lifted or combined by the
        # CRT; the bound on each q's largest class comes from one sieve, so
        # no q is factored
        def refuse(*args, **kwargs):
            raise AssertionError("the search left the table")

        for module, name in ((counting, "count_powers_in_ap"),
                             (search, "count_powers_in_ap"),
                             (counting, "kth_roots_mod"),
                             (modroots, "kth_roots_mod"),
                             (modroots, "root_count"),
                             (modroots, "_roots_mod_cached")):
            monkeypatch.setattr(module, name, refuse)
        factored, factorize = [], intkernel.factorize

        def spy(n):
            factored.append(n)
            return factorize(n)

        for module in (modroots, intkernel):
            monkeypatch.setattr(module, "factorize", spy)
        rec = extremal_search(k, 10 ** 12, 80, a_window=1)
        assert rec.best_count_values == {2: 1632993, 3: 10000}[k]
        assert factored == []

    @pytest.mark.parametrize("k,digest", [
        (2, "1bf06258c8df3a9295beaf8a855e423744b47df6df1c996f099941ec6d2d427b"),
        (3, "c57a0c7d6301ed6e8a7d9a10208d9345cf4ce2b94898267450ed64542ca4c6ef"),
    ])
    def test_output_pinned(self, k, digest):
        # sha256 recorded while every cell was counted on its own
        rec = extremal_search(k, 1000, 80, a_window=1)
        text = json.dumps(rec.to_jsonable(), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("k,digest", [
        (2, "7fa2245584a3a1b9c4ba7c746a70fff242efd83eee199e9d52248c50b8405e0d"),
        (3, "8e8d90d05b87db24ba60bdcf838a9171c55b1c12cabb23c5c19c7086671260fb"),
    ])
    def test_output_pinned_unwalked(self, k, digest):
        # N = 10**12 is too long a walk, so each q's cells are counted from
        # its table of x**k mod q; sha256 recorded while each cell was
        # counted on its own
        rec = extremal_search(k, 10 ** 12, 80, a_window=1)
        text = json.dumps(rec.to_jsonable(), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("args,digest", [
        ((2, 1000, 1999),
         "6c90b13f68ec8cc75dc160bb8c898b3a380bcdb63f20edc24798d7a76b2e7690"),
        ((3, 10 ** 12, 400),
         "94cfefc5306dbeae18bc7e45a55f12b7142c443c93495a11d634a50f99a058cd"),
    ])
    def test_output_pinned_at_budget_scale(self, args, digest):
        # q_max = 1999 is the largest the default cell budget admits at
        # a_window = 0; sha256 recorded while every q was tabled or walked
        rec = extremal_search(*args)
        text = json.dumps(rec.to_jsonable(), sort_keys=True,
                          separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @pytest.mark.parametrize("k,best,cells", [
        (2, 50, tuple((24 * j * j, j * j) for j in range(1, 15))),
        (3, 10, tuple((j ** 3, 0) for j in range(1, 18))),
    ])
    def test_output_pinned_past_the_prime_table(self, k, best, cells):
        # q_max = 5000 is past intkernel._SMALL_PRIMES (the primes below
        # 2**12), so the sieve takes its primes from _prime_table; recorded
        # while the sieve called the general closed form for every prime
        rec = extremal_search(k, 1000, 5000, a_window=0,
                              cell_budget=20_000_000)
        assert rec.best_count_values == best
        assert rec.best_cells == cells
        assert rec.cells_evaluated == 5000 * 5001 // 2

    def test_budget(self, monkeypatch):
        def no_cell(*args, **kwargs):
            raise AssertionError("a cell or the sieve ran before the "
                                 "budget check")

        monkeypatch.setattr(search, "count_powers_in_ap", no_cell)
        monkeypatch.setattr(search, "_power_classes", no_cell)
        monkeypatch.setattr(search, "max_root_counts", no_cell)
        with pytest.raises(CellBudgetError):
            extremal_search(2, 10, 10 ** 5, cell_budget=1000)
        with pytest.raises(CellBudgetError,
                           match=" 500000000000500000000000 cells,"):
            extremal_search(2, 10, 10 ** 12)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            extremal_search(1, 10, 10)
        with pytest.raises(ValueError):
            extremal_search(2, 10, 10, a_window=-1)
