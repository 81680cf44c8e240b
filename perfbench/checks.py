"""Output checks owned by the benchmark.

Each check takes a workload's inputs and the outputs of one pass and
returns a list of problems; an empty list means the outputs are right.
Expected values come from arith.py, never from appowers, and the checks run
after the timed region.  Every workload gets a brute-force recount of a
fixed seeded sample of its cells.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

import arith
import workloads

VERIFY_SAMPLE = 300
SEARCH_SAMPLE = 200      # per k
STREAM_SAMPLE_SHARE = 0.1
STREAM_SAMPLE_MIN = 5    # per class


def _counts_ok(ct, cv, bound=None) -> bool:
    return (isinstance(ct, int) and isinstance(cv, int) and 0 <= cv <= ct
            and (bound is None or ct <= bound))


def _bound(k: int, q: int, N: int) -> int:
    return arith.theorem_bound(k, arith.factor_small(q), N)


def verify_grid(inputs: dict) -> list[tuple[int, int, int, int]]:
    """Every (k, q, a, N) cell of the sweep, in the order appowers reports them."""
    return [(k, q, a, N) for k in sorted(inputs["k_set"])
            for q in range(1, inputs["q_max"] + 1)
            for a in range(-q, q + 1) for N in sorted(inputs["N_set"])]


def check_verify(inputs: dict, outputs: list, seed: int) -> list[str]:
    problems = []
    if len(outputs) != 1 or not isinstance(outputs[0], dict):
        return [f"sweep did not return a report: {outputs}"]
    rep = outputs[0]
    grid = verify_grid(inputs)
    rows = rep["rows"]
    if rep["cells"] != len(grid) or len(rows) != len(grid):
        problems.append(f"cells {rep['cells']} / rows {len(rows)}, expected {len(grid)}")
    if rep["violations"] != 0:
        problems.append(f"{rep['violations']} bound violations")
    if [tuple(r[:4]) for r in rows] != grid:
        problems.append("rows do not cover the sweep grid in order")
    pairs = 0
    best, best_v = Fraction(0), Fraction(0)
    for k, q, a, N, ct, cv, bound, num, den in rows:
        scale = arith.divisor_count(arith.factor_small(q)) ** (k - 1) * arith.iroot_ceil(N, k)
        if bound != (2 * k - 1) * scale or not _counts_ok(ct, cv, bound):
            problems.append(f"cell {(k, q, a, N)}: count_t={ct} count_values={cv} "
                            f"bound={bound}, expected bound {(2 * k - 1) * scale}")
            continue
        if Fraction(num, den) != Fraction(ct, scale):
            problems.append(f"cell {(k, q, a, N)}: ratio {num}/{den} is not {ct}/{scale}")
        if 2 <= ct <= workloads.WITNESS_PAIR_CAP:
            pairs += ct * (ct - 1) // 2
        best = max(best, Fraction(ct, scale))
        best_v = max(best_v, Fraction(cv, arith.iroot_ceil(N, k)))
    if rep["witness_pairs"] != pairs:
        problems.append(f"witness_pairs {rep['witness_pairs']}, expected {pairs}")
    if Fraction(*rep["max_ratio"]) != best:
        problems.append(f"max_ratio {rep['max_ratio']}, expected {best}")
    if Fraction(*rep["max_value_ratio"]) != best_v:
        problems.append(f"max_value_ratio {rep['max_value_ratio']}, expected {best_v}")
    rng = random.Random(f"check/verify_witness/{seed}")
    for k, q, a, N, ct, cv, *_ in rng.sample(rows, min(VERIFY_SAMPLE, len(rows))):
        if (ct, cv) != arith.brute_power_counts(k, a, q, N):
            problems.append(f"cell {(k, q, a, N)}: ({ct}, {cv}) but a scan gives "
                            f"{arith.brute_power_counts(k, a, q, N)}")
    return problems


def search_cells(q_max: int, a_window: int):
    return [(q, r + s * q) for q in range(1, q_max + 1) for r in range(q)
            for s in range(-a_window, a_window + 1)]


def check_search(inputs: dict, outputs: list, seed: int) -> list[str]:
    problems = []
    if len(outputs) != len(inputs["k_set"]):
        return [f"{len(outputs)} search records for {len(inputs['k_set'])} values of k"]
    cells = search_cells(inputs["q_max"], inputs["a_window"])
    rng = random.Random(f"check/search_extremal/{seed}")
    N = inputs["N"]
    for k, rec in zip(inputs["k_set"], outputs):
        if not isinstance(rec, dict):
            problems.append(f"k={k}: search did not return a record: {rec}")
            continue
        echo = (rec["k"], rec["N"], rec["q_max"], rec["a_window"])
        if echo != (k, N, inputs["q_max"], inputs["a_window"]):
            problems.append(f"k={k}: record echoes {echo}")
        if rec["cells_evaluated"] != len(cells):
            problems.append(f"k={k}: cells_evaluated {rec['cells_evaluated']}, "
                            f"expected {len(cells)}")
        best = rec["best_count_values"]
        tied = [tuple(c) for c in rec["best_cells"]]
        if not tied or tied != sorted(set(tied)) or not set(tied) <= set(cells):
            problems.append(f"k={k}: best cells are not a sorted subset of the grid")
            continue
        for q, a in tied:
            if arith.brute_power_counts(k, a, q, N)[1] != best:
                problems.append(f"k={k}: cell {(q, a)} does not attain {best}")
        for q, a in rng.sample(cells, SEARCH_SAMPLE):
            ct, cv = arith.brute_power_counts(k, a, q, N)
            if cv > best or not _counts_ok(ct, cv, _bound(k, q, N)):
                problems.append(f"k={k}: cell {(q, a)} scans to ({ct}, {cv}), "
                                f"best is {best}")
    return problems


def stream_sample(requests: list, seed: int) -> list[int]:
    """Indices of the requests that get an exact recount: a fixed seeded
    share of every class."""
    rng = random.Random(f"check/count_stream/{seed}")
    picked = []
    for cls in workloads.STREAM_SHARES:
        idx = [i for i, r in enumerate(requests) if r["cls"] == cls]
        n = max(STREAM_SAMPLE_MIN, math.ceil(STREAM_SAMPLE_SHARE * len(idx)))
        picked += rng.sample(idx, min(n, len(idx)))
    return sorted(picked)


def expected_count(req: dict) -> tuple[int, int]:
    k, a, q, N = req["k"], req["a"], req["q"], req["N"]
    if req["cls"] == "poly":
        return arith.brute_quadratic_counts(req["coeffs"], a, q, N)
    if req["cls"] in ("interval", "long_walk"):
        return arith.brute_power_counts(k, a, q, N)
    return arith.residue_counts(k, a, q, N, req["q_factors"])


def check_stream(inputs: dict, outputs: list, seed: int) -> list[str]:
    """Every answer must satisfy count_values <= count_t, and monomials the
    bound; a typed refusal is allowed, a wrong answer or an error is not."""
    requests = inputs["requests"]
    if len(outputs) != len(requests):
        return [f"{len(outputs)} outputs for {len(requests)} requests"]
    problems = []
    for i, (req, out) in enumerate(zip(requests, outputs)):
        if out[0] == "refused":
            continue
        if out[0] == "error":
            problems.append(f"request {i} ({req['cls']}) raised {out[1]}: {out[2]}")
            continue
        bound = None
        if req["k"] is not None:
            bound = arith.theorem_bound(req["k"], req["q_factors"], req["N"])
        if not _counts_ok(*out, bound):
            problems.append(f"request {i} ({req['cls']}): {out} breaks "
                            f"count_values <= count_t <= {bound}")
    for i in stream_sample(requests, seed):
        if outputs[i][0] != "refused" and tuple(outputs[i]) != expected_count(requests[i]):
            problems.append(f"request {i} ({requests[i]['cls']}): {outputs[i]}, "
                            f"expected {list(expected_count(requests[i]))}")
    return problems


CHECKS = {"verify_witness": check_verify, "search_extremal": check_search,
          "count_stream": check_stream}
