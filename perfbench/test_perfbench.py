"""Tests of the benchmark itself: inputs, cost ceilings, tracing and checks.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import arith
import checks
import run
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.build(workload, 7) == workloads.build(workload, 7)
        assert len({json.dumps(workloads.build(workload, s)) for s in range(1, 6)}) > 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_stream_classes_at_stated_shares(seed):
    requests = workloads.build("count_stream", seed)["requests"]
    counts = Counter(r["cls"] for r in requests)
    assert len(requests) == workloads.STREAM_SIZE
    assert {cls: counts[cls] / len(requests) for cls in counts} == workloads.STREAM_SHARES


def _within_ceiling(r: dict) -> bool:
    k, a, q, N = r["k"], r["a"], r["q"], r["N"]
    factors = [tuple(f) for f in r["q_factors"]]
    if math.prod(p ** e for p, e in factors) != q:
        return False
    if r["cls"] == "poly":
        c0, c1, c2 = r["coeffs"]
        return (1 <= c2 <= 9 and abs(c1) <= 30 and abs(c0) <= 100
                and max(abs(a + q), abs(a + N * q)) <= workloads.POLY_WINDOW * c2)
    span = arith.span(k, a, q, N)
    if r["cls"] == "residue":
        omega = len(factors)
        return (span > max(64, q) and 10 ** 12 <= N <= 10 ** 40
                and all(p ** e <= workloads.RESIDUE_PRIME_POWER_MAX for p, e in factors)
                and len(arith.roots_mod(a, k, factors)) <= 2 * k * k ** (omega - 1))
    if r["cls"] == "interval":
        return workloads.INTERVAL_SPAN[0] <= span <= min(workloads.INTERVAL_SPAN[1], q)
    if r["cls"] == "cap":
        return (k == 2 and q % 2 ** 31 == 0 and q // 2 ** 31 <= workloads.CAP_ODD_PART_MAX
                and a % 2 == 1 and span > q)
    return k == 2 and workloads.LONG_WALK_SPAN[0] <= span <= min(workloads.LONG_WALK_SPAN[1], q)


def test_no_seed1_request_exceeds_its_class_ceiling():
    requests = workloads.build("count_stream", 1)["requests"]
    over = [r for r in requests if not _within_ceiling(r)]
    assert over == []
    # the walks that do not finish (span >= ~1e6 <= q) are left out
    assert all(arith.span(r["k"], r["a"], r["q"], r["N"]) < 10 ** 6 for r in requests
               if r["k"] and r["cls"] != "residue" and r["cls"] != "cap")


def _is_kth_power(v: int, k: int) -> bool:
    if v < 0:
        return k % 2 == 1 and _is_kth_power(-v, k)
    return arith.iroot_floor(v, k) ** k == v


def test_oracles_agree_on_small_cells():
    for k in (2, 3, 4):
        for q in (1, 6, 8, 12, 30):
            for a in range(-q, q + 1):
                brute = arith.brute_power_counts(k, a, q, 200)
                assert arith.residue_counts(k, a, q, 200, arith.factor_small(q)) == brute
                terms = [a + i * q for i in range(1, 201)]
                assert brute[1] == sum(_is_kth_power(v, k) for v in terms)


def test_tracer_skips_missing_entry_points(monkeypatch):
    monkeypatch.setattr(tracer, "LAYERS", {
        "gone.module": [("appowers.no_such_module", "f")],
        "gone.name": [("appowers.counting", "no_such_function")]})
    monkeypatch.setattr(tracer, "CACHES", {"gone.cache": ("appowers.modroots", "nothing")})
    t = tracer.Tracer()
    t.install()
    assert t.snapshot() == {"layers": {}, "caches": {}}


def test_missing_layers_are_reported_absent(results):
    traced = copy.deepcopy(results["search_extremal"][2])
    del traced["trace"]["layers"]["counting.interval_walk"]
    del traced["trace"]["caches"]["modroots.power_map"]
    m = {"traced": [traced], "untraced": [traced]}
    values, absent = run.per_layer(m)
    assert absent == ["counting.interval_walk.calls", "counting.interval_walk.self_s",
                      "modroots.power_map.hit_ratio"]
    assert set(values) == set(run.PER_LAYER) - set(absent)


# Small versions of the workloads, run by the real worker in a subprocess.
SMALL = {
    "verify_witness": {"k_set": [2, 3], "q_max": 8, "N_set": [10, 100], "a_mode": "window"},
    "search_extremal": {"k_set": [2, 3], "N": 300, "q_max": 30, "a_window": 1,
                        "cell_budget": 2_000_000},
}


def _small_stream() -> dict:
    requests = workloads.build("count_stream", 1)["requests"]
    picked = []
    for cls in workloads.STREAM_SHARES:
        picked += [r for r in requests if r["cls"] == cls][:8]
    return {"requests": picked}


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in workloads.WORKLOADS:
        inputs = SMALL.get(workload) or _small_stream()
        lib = workloads.library_inputs(workload, inputs)
        plain = run.run_pass(workload, lib, 1, False, True)
        traced = run.run_pass(workload, lib, 1, True, True)
        out[workload] = (inputs, plain, traced)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_checks_accept_real_outputs_and_tracing_changes_none(results, workload):
    inputs, plain, traced = results[workload]
    assert checks.CHECKS[workload](inputs, plain["outputs"], 1) == []
    assert plain["digest"] == traced["digest"]


def test_traced_split_of_the_search(results):
    inputs, _, traced = results["search_extremal"]
    k2, k3 = (snap["layers"] for _, snap in traced["phases"])
    cells = len(checks.search_cells(inputs["q_max"], inputs["a_window"]))
    assert k2["counting.count_powers_in_ap"]["calls"] == cells
    assert k2["counting.residue_stride"]["calls"] > 0.95 * cells
    assert k3["counting.interval_walk"]["calls"] - k2["counting.interval_walk"]["calls"] == cells


def _corrupt_verify(rep):
    yield "cells", dict(rep, cells=rep["cells"] + 1)
    yield "violations", dict(rep, violations=1)
    yield "witness_pairs", dict(rep, witness_pairs=rep["witness_pairs"] + 1)
    yield "max_ratio", dict(rep, max_ratio=[rep["max_ratio"][0] + 1, rep["max_ratio"][1]])
    rows = copy.deepcopy(rep["rows"])
    rows[len(rows) // 2][4] += 1
    yield "count_t", dict(rep, rows=rows)
    rows = copy.deepcopy(rep["rows"])
    rows[-1][5] = rows[-1][4] + 1
    yield "count_values", dict(rep, rows=rows)
    yield "rows", dict(rep, rows=rep["rows"][:-1])


def _corrupt_search(recs):
    k2 = recs[0]
    yield "best", [dict(k2, best_count_values=k2["best_count_values"] + 1), recs[1]]
    yield "cells", [dict(k2, cells_evaluated=k2["cells_evaluated"] - 1), recs[1]]
    yield "no best cells", [dict(k2, best_cells=[]), recs[1]]
    extra = sorted(k2["best_cells"] + [[1, -1]]) if [1, -1] not in k2["best_cells"] else None
    if extra:
        yield "extra best cell", [dict(k2, best_cells=extra), recs[1]]
    yield "missing record", recs[:1]


def _corrupt_stream(outputs, requests):
    answered = [i for i in checks.stream_sample(requests, 1) if outputs[i][0] != "refused"]
    i = answered[0]
    bad = copy.deepcopy(outputs)
    bad[i][0] += 1
    yield "count_t", bad
    bad = copy.deepcopy(outputs)
    bad[i][1] = bad[i][0] + 1
    yield "count_values", bad
    bad = copy.deepcopy(outputs)
    bad[i] = ["error", "ValueError", "injected"]
    yield "error", bad
    j = next(n for n, r in enumerate(requests) if r["cls"] == "residue")
    bad = copy.deepcopy(outputs)
    bad[j] = [10 ** 60, 0]
    yield "above bound", bad
    yield "missing", outputs[:-1]


def test_each_check_rejects_a_corrupted_result(results):
    inputs, plain, _ = results["verify_witness"]
    for what, rep in _corrupt_verify(plain["outputs"][0]):
        assert checks.check_verify(inputs, [rep], 1), what
    inputs, plain, _ = results["search_extremal"]
    for what, recs in _corrupt_search(plain["outputs"]):
        assert checks.check_search(inputs, recs, 1), what
    inputs, plain, _ = results["count_stream"]
    for what, outs in _corrupt_stream(plain["outputs"], inputs["requests"]):
        assert checks.check_stream(inputs, outs, 1), what


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "count_stream",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
