#!/usr/bin/env python3
"""End-to-end benchmark of appowers, with a traced per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload count_stream --seed 1 --seconds 40 --trace 0

Each pass of a workload runs in a fresh interpreter (cold caches) that
imports appowers from src/ and issues the workload's requests through the
public API.  Passes repeat until --seconds is spent.  The outputs are
checked against perfbench/checks.py, human-readable lines go to stdout,
and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"} with the end-to-end metrics
(--trace 0) or the per-layer metrics of traced passes (--trace 1).
Exit status 0 means every output was right.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 20           # at least this many import-only interpreters a run
SETUP_PROBES_PER_PASS = 1   # spread over the run, so a burst of load elsewhere
                            # on the machine moves few of them
PASSES_LIMIT_S = 160  # a hung pass is killed in time to report within 180 s

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "cells_per_s": "1/s",
    "request_p50_ms": "ms",
    "request_p99_ms": "ms",
    "answered_ratio": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = (
    "theorem.verify_bound_sweep.self_s",
    "theorem.extract_witness.calls", "theorem.extract_witness.self_s",
    "poly.difference_quotient.calls", "poly.difference_quotient.self_s",
    "counting.power_solutions.calls", "counting.power_solutions.self_s",
    "counting.count_powers_in_ap.calls", "counting.count_powers_in_ap.self_s",
    "intkernel.kth_power_t_window.calls",
    "counting.interval_walk.calls", "counting.interval_walk.self_s",
    "counting.residue_stride.calls", "counting.residue_stride.self_s",
    "modroots.kth_roots_mod.calls", "modroots.kth_roots_mod.self_s",
    "modroots.prime_power.calls", "modroots.prime_power.self_s",
    "modroots.roots_cache.hit_ratio", "modroots.power_map.hit_ratio",
    "intkernel.factorize.calls", "intkernel.factorize.self_s",
    "intkernel.factorize.hit_ratio",
    "counting.count_poly_in_ap.calls", "counting.count_poly_in_ap.self_s",
    "poly.preimage_range.calls", "poly.preimage_range.self_s",
    "search.extremal_search.self_s",
    "parallel.cpu_per_wall",
    "trace.overhead",
)
UNITS = {"calls": "count", "self_s": "s", "hit_ratio": "ratio",
         "cpu_per_wall": "ratio", "overhead": "ratio"}


class BenchError(Exception):
    """A worker process failed or timed out."""


def pool_threads(workload: str) -> int:
    """Threads for the traced run's parallel.cpu_per_wall pass: the CLI
    default, one per usable core, for the workload that drives the pool."""
    return len(os.sched_getaffinity(0)) if workload == "verify_witness" else 1


def _worker(args: list[str], deadline: float | None, stdin: str = "") -> str:
    timeout = None if deadline is None else max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              input=stdin, capture_output=True, text=True, cwd=ROOT,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"worker timed out after {exc.timeout} s") from exc
    if proc.returncode:
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr.strip()}")
    return proc.stdout


def run_pass(workload: str, inputs: dict, threads: int, trace: bool,
             full_output: bool, deadline: float | None = None) -> dict:
    spec = {"workload": workload, "inputs": inputs, "threads": threads,
            "trace": trace, "full_output": full_output}
    started = time.perf_counter()
    result = json.loads(_worker([], deadline, json.dumps(spec)))
    result["process_s"] = time.perf_counter() - started
    return result


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile: a measured value, never an interpolation."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            threads: int) -> dict:
    """Passes until the time is spent, set-up probes between them, then the checks."""
    deadline = time.perf_counter() + PASSES_LIMIT_S
    inputs = workloads.build(workload, seed)
    lib_inputs = workloads.library_inputs(workload, inputs)
    setup, untraced, traced = [], [], []

    def probe(n: int) -> None:
        setup.extend(float(_worker(["--probe"], deadline)) for _ in range(n))

    def one(traced_pass: bool, pass_threads: int) -> dict:
        p = run_pass(workload, lib_inputs, pass_threads, traced_pass,
                     full_output=not (untraced or traced), deadline=deadline)
        (traced if traced_pass else untraced).append(p)
        setup.append(p["setup_s"])  # each pass imports appowers the same way
        probe(SETUP_PROBES_PER_PASS)
        return p

    start = time.perf_counter()
    if trace:
        one(False, pool_threads(workload))  # for parallel.cpu_per_wall
        if pool_threads(workload) != 1:
            one(False, 1)  # the untraced wall time trace.overhead divides by
    while True:
        p = one(trace, 1 if trace else threads)  # the tracer's stack is single-threaded
        if time.perf_counter() - start + p["process_s"] > seconds:
            break
    passes = untraced + traced
    probe(max(0, SETUP_PROBES - SETUP_PROBES_PER_PASS * len(passes)))
    outputs = passes[0]["outputs"]
    problems = checks.CHECKS[workload](inputs, outputs, seed)
    if len({p["digest"] for p in passes}) != 1:
        problems.append("passes over the same inputs returned different outputs")
    return {"workload": workload, "seed": seed, "threads": threads,
            "inputs": inputs, "outputs": outputs, "setup": setup,
            "untraced": untraced, "traced": traced, "problems": problems,
            "elapsed_s": time.perf_counter() - start}


def _status(outputs: list) -> tuple[list[bool], int, int]:
    """(answered flag per request, refused, failed)."""
    kinds = [out[0] if isinstance(out, list) and isinstance(out[0], str) else "ok"
             for out in outputs]
    return ([k == "ok" for k in kinds], kinds.count("refused"), kinds.count("error"))


def best_latencies(m: dict) -> list[float]:
    """Each request's shortest latency over the passes.  The passes repeat
    the same requests from cold caches; the best of them discards the time
    a request lost to other load on the machine."""
    return [min(lats) for lats in zip(*(p["latencies_s"] for p in m["untraced"]))]


def end_to_end(m: dict) -> dict:
    answered, _, _ = _status(m["outputs"])
    best = best_latencies(m)
    latencies = [lat * 1e3 for lat, ok in zip(best, answered) if ok] or [math.inf]
    return {
        "setup_s": statistics.median(m["setup"]),
        "cells_per_s": m["untraced"][0]["cells"] / sum(best),
        "request_p50_ms": percentile(latencies, 50),
        "request_p99_ms": percentile(latencies, 99),
        "answered_ratio": sum(answered) / len(answered),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in m["untraced"]),
    }


def per_layer(m: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics of the traced passes, and the names found absent."""
    traces = [p["trace"] for p in m["traced"]]
    first = traces[0]
    base = m["untraced"][-1]  # threads=1, as the traced passes
    values = {
        "parallel.cpu_per_wall": m["untraced"][0]["cpu_s"] / m["untraced"][0]["wall_s"],
        "trace.overhead": statistics.median(p["wall_s"] for p in m["traced"]) / base["wall_s"],
    }
    for name in PER_LAYER:
        if name in values:
            continue
        layer, _, field = name.rpartition(".")
        if field == "hit_ratio":
            cache = first["caches"].get(layer)
            if cache is not None:
                lookups = cache["hits"] + cache["misses"]
                values[name] = cache["hits"] / lookups if lookups else 0.0
        elif layer in first["layers"]:
            values[name] = (first["layers"][layer]["calls"] if field == "calls" else
                            statistics.median(t["layers"][layer]["self_s"] for t in traces))
    return values, [name for name in PER_LAYER if name not in values]


def _print_end_to_end(m: dict, values: dict) -> None:
    passes = m["untraced"]
    answered, refused, failed = _status(m["outputs"])
    requests = len(answered)
    print(f"# {m['workload']} seed={m['seed']}: {len(passes)} passes in "
          f"{m['elapsed_s']:.1f} s, threads={m['threads']}, closed loop, 1 client, "
          f"{requests} requests and {passes[0]['cells']} cells per pass")
    notes = {
        "setup_s": f"median of {len(m['setup'])} fresh interpreters",
        "cells_per_s": f"cells over the sum of the best latencies of {requests} requests",
        "request_p50_ms": f"over {sum(answered)} answered requests, best of {len(passes)} passes",
        "request_p99_ms": f"over {sum(answered)} answered requests, best of {len(passes)} passes",
        "answered_ratio": f"{sum(answered)} of {requests} requests answered exactly",
        "peak_rss_mb": f"median of {len(passes)} passes",
    }
    for name, unit in END_TO_END.items():
        print(f"{name:16s} {values[name]:14.6g} {unit:6s} {notes[name]}")
    kinds: dict = {}
    for out in m["outputs"]:
        if isinstance(out, list) and out[0] == "refused":
            kinds[out[1]] = kinds.get(out[1], 0) + 1
    print(f"{'error_ratio':16s} {refused / requests:14.6g} {'ratio':6s} "
          f"typed refusals / requests {kinds or ''}")
    print(f"{'failed':16s} {failed:14d} {'count':6s} requests per pass that raised an "
          "untyped error")


def _print_trace(m: dict, values: dict, absent: list[str]) -> None:
    traced = m["traced"]
    wall = traced[0]["wall_s"]  # the table is the first traced pass's
    print(f"# {m['workload']} seed={m['seed']}: {len(traced)} traced passes at "
          f"threads=1; the first took {wall:.3f} s")
    print(f"{'layer':32s} {'calls':>10s} {'total_s':>10s} {'self_s':>10s} {'self%':>6s}")
    layers = traced[0]["trace"]["layers"]
    for layer in sorted(layers, key=lambda n: -layers[n]["self_s"]):
        s = layers[layer]
        print(f"{layer:32s} {s['calls']:10d} {s['total_s']:10.4f} "
              f"{s['self_s']:10.4f} {100 * s['self_s'] / wall:6.1f}")
    previous = {layer: {"calls": 0, "total_s": 0.0} for layer in layers}
    for (label, snap), lat in zip(traced[0]["phases"], traced[0]["latencies_s"]):
        busy = sorted(((s["total_s"] - previous[n]["total_s"], n,
                        s["calls"] - previous[n]["calls"])
                       for n, s in snap["layers"].items()), reverse=True)
        top = ", ".join(f"{n} {calls} calls {100 * t / lat:.0f}%"
                        for t, n, calls in busy[:5] if calls)
        print(f"  {label}: {lat:.3f} s; {top}")
        previous = snap["layers"]
    for name, value in values.items():
        print(f"{name:40s} {value:14.6g} {UNITS[name.rpartition('.')[2]]}")
    if absent:
        print(f"absent (entry point no longer found): {', '.join(absent)}")


def run_workload(args, workload: str) -> tuple[bool, int, int, dict]:
    m = measure(workload, args.seed, args.seconds, bool(args.trace), args.threads)
    _, _, failed = _status(m["outputs"])
    passes = m["untraced"] + m["traced"]
    attempted = len(m["outputs"]) * len(passes)
    if args.trace:
        values, absent = per_layer(m)
        _print_trace(m, values, absent)
        metrics = {name: {"value": v, "unit": UNITS[name.rpartition(".")[2]]}
                   for name, v in values.items()}
    else:
        values = end_to_end(m)
        _print_end_to_end(m, values)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for problem in m["problems"][:20]:
        print(f"CHECK FAILED: {problem}")
    print(f"checks: {len(m['problems'])} problems")
    return not m["problems"], attempted, failed * len(passes), metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=(*workloads.WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=1,
                        help="threads verify_witness and search_extremal ask for")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "appowers" / "__init__.py").is_file():
        print(f"error: no appowers sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    try:
        for workload in names:
            ok, n, bad, values = run_workload(args, workload)
            correct, attempted, failed = correct and ok, attempted + n, failed + bad
            prefix = f"{workload}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in values.items()})
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    correct = correct and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
