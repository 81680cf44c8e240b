import math

import pytest

from appowers.counting import Progression, count_powers_in_ap
from appowers.errors import CellBudgetError
from appowers.search import extremal_search, rudin_count, rudin_progression


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

    def test_budget(self):
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
