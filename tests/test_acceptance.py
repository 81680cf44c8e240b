"""Acceptance suite: the eight exit criteria, each printing one PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The shared counting grid
is k in {2,3,4}, q in [1,200], a in [-q,q], N in {1,10,100,1000}.
"""
import itertools
import json
import math
from contextlib import contextmanager

import pytest

from appowers import intkernel, modroots
from appowers.counting import Progression, count_powers_in_ap
from appowers.intkernel import divisor_count, ikth_root_ceil, ikth_root_floor
from appowers.modroots import kth_roots_mod
from appowers.poly import Poly
from appowers.search import extremal_search, rudin_count
from appowers.theorem import bound_constant, extract_witness, verify_bound_sweep
from oracles import brute_report

GRID_K = (2, 3, 4)
GRID_Q = range(1, 201)
GRID_N = (1, 10, 100, 1000)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE CRITERION {number} ({title}): FAIL")
        raise
    print(f"\nACCEPTANCE CRITERION {number} ({title}): PASS")


def grid_cells():
    for k in GRID_K:
        for q in GRID_Q:
            for a in range(-q, q + 1):
                for N in GRID_N:
                    yield k, q, a, N


@pytest.fixture(scope="module")
def grid_counts():
    """Residue-stride counts over the whole grid, shared across criteria."""
    return {(k, q, a, N): count_powers_in_ap(k, Progression(a, q, N),
                                             algorithm="residue")
            for k, q, a, N in grid_cells()}


def test_criterion_1_counting_oracle_equivalence(grid_counts):
    with criterion(1, "counting algorithms vs brute force"):
        for (k, q, a, N), rep in grid_counts.items():
            prog = Progression(a, q, N)
            interval = count_powers_in_ap(k, prog, algorithm="interval")
            assert rep == interval, (k, q, a, N)
            assert (rep.count_t, rep.count_values) == brute_report(k, prog), \
                (k, q, a, N)


def test_criterion_2_modular_roots_oracle_equivalence():
    with criterion(2, "kth roots mod m vs enumeration"):
        for m in range(1, 2001):
            for k in (2, 3, 4, 5):
                table = {}
                for x in range(m):
                    table.setdefault(pow(x, k, m), []).append(x)
                for a in range(m):
                    got = kth_roots_mod(a, k, m).residues
                    assert list(got) == table.get(a, []), (a, k, m)


def test_criterion_3_bound_never_violated(grid_counts):
    with criterion(3, "count_t <= (2k-1) d(q)^(k-1) ceil(N^(1/k))"):
        for (k, q, a, N), rep in grid_counts.items():
            bound = bound_constant(k) * divisor_count(q) ** (k - 1) \
                * ikth_root_ceil(N, k)
            assert rep.count_t <= bound, (k, q, a, N, rep.count_t, bound)


def test_criterion_4_witness_validity(grid_counts):
    with criterion(4, "divisor-splitting witnesses exact"):
        from appowers.poly import difference_quotient
        pairs_checked = 0
        for (k, q, a, N), rep in grid_counts.items():
            if not 2 <= rep.count_t <= 64:
                continue
            P = Poly.monomial(k)
            prog = Progression(a, q, N)
            sols = count_powers_in_ap(k, prog, with_solutions=True).solutions
            for (t, i), (t0, i0) in itertools.combinations(sols, 2):
                w = extract_witness(P, prog, t, t0)
                assert w.q1 * w.q2 == q
                assert abs(t - t0) == w.n1 * w.q1
                Qt = difference_quotient(P, t0)(t)
                assert Qt % w.q2 == 0 and abs(Qt) == w.n2 * w.q2
                assert w.n1 * w.n2 == abs(i - i0) <= N - 1
                pairs_checked += 1
        assert pairs_checked > 0


def test_criterion_5_trivial_progression_lower_bound():
    with criterion(5, "count in {1..N} equals floor(N^(1/k))"):
        for k in range(2, 7):
            for N in range(1, 10 ** 4 + 1):
                cv = count_powers_in_ap(k, Progression(0, 1, N)).count_values
                assert cv == ikth_root_floor(N, k), (k, N)


def test_criterion_6_rudin_counts():
    with criterion(6, "{24n+1} square counts"):
        # independent oracle: t >= 1 coprime to 6 with t^2 <= 24N - 23
        def oracle(N):
            return sum(1 for t in range(1, math.isqrt(24 * N - 23) + 1)
                       if math.gcd(t, 6) == 1)

        assert oracle(5) == 3 and oracle(10 ** 6) == 1633
        assert rudin_count(5).count_values == 3
        assert rudin_count(10 ** 6).count_values == 1633


def test_criterion_7_scaling_symmetry(grid_counts):
    with criterion(7, "invariance under (q, a) -> (m^k q, m^k a)"):
        for (k, q, a, N), rep in grid_counts.items():
            for m in (2, 3):
                s = m ** k
                scaled = count_powers_in_ap(k, Progression(a * s, q * s, N),
                                            algorithm="residue")
                assert (scaled.count_t, scaled.count_values) == \
                    (rep.count_t, rep.count_values), (k, q, a, N, m)


def test_criterion_8_determinism_across_caches():
    with criterion(8, "verify/search byte-identical across cold and warm caches"):
        for cached in (intkernel.factorize, modroots._roots_mod_cached,
                       modroots._power_map):
            cached.cache_clear()
        sweeps = set()
        searches = set()
        for _ in range(3):  # the first run is cold, the next two warm
            rep = verify_bound_sweep([2, 3], 30, [10, 100], collect_rows=True)
            payload = rep.to_jsonable()
            payload["rows"] = [list(r) for r in rep.rows]
            sweeps.add(json.dumps(payload, sort_keys=True))
            rec = extremal_search(2, 60, 40, a_window=1)
            searches.add(json.dumps(rec.to_jsonable(), sort_keys=True))
        assert len(sweeps) == 1
        assert len(searches) == 1
