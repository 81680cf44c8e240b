"""One pass of one workload, in a fresh interpreter with cold caches.

Reads a JSON spec on stdin, imports appowers from the checkout's src/, issues
the workload's requests through the public API in a closed loop (one client,
the next request after the previous one returns), and writes one JSON object
to stdout: import time, per-request latencies, CPU time, peak memory, the
outputs for run.py to check, and the layer counters of a traced pass.

    python3 perfbench/worker.py --probe    # print the import time only
"""
import os
import sys
import time

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def import_appowers() -> float:
    """Seconds from the start of importing appowers until the CLI's first
    call could be issued; taken first, before anything else is imported."""
    sys.path.insert(0, _SRC)
    start = time.perf_counter()
    import appowers.cli  # noqa: F401
    return time.perf_counter() - start


def _requests(workload: str, inputs: dict, threads: int):
    """(label, call) pairs; call() returns (output, cells).  The arguments
    are those the CLI passes for the matching command line."""
    from appowers import counting, search, theorem
    from appowers.poly import Poly

    if workload == "verify_witness":
        def sweep():  # appowers verify ... --csv out.csv --threads 1
            rep = theorem.verify_bound_sweep(
                inputs["k_set"], inputs["q_max"], inputs["N_set"],
                a_mode=inputs["a_mode"], threads=threads, collect_rows=True)
            out = rep.to_jsonable()
            out["rows"] = [list(row) for row in rep.rows]
            return out, rep.cells
        return [("verify", sweep)]

    if workload == "search_extremal":
        def extremal(k):  # appowers search extremal --k k --N ... --threads 1
            rec = search.extremal_search(
                k, inputs["N"], inputs["q_max"], a_window=inputs["a_window"],
                threads=threads, cell_budget=inputs["cell_budget"])
            return rec.to_jsonable(), rec.cells_evaluated
        return [(f"k={k}", lambda k=k: extremal(k)) for k in inputs["k_set"]]

    def count(k, coeffs, a, q, N):  # appowers count --k/--poly ... --a --q --N
        prog = counting.Progression(a, q, N)
        P = Poly(tuple(coeffs)) if coeffs else Poly.monomial(k)
        if P.is_monic_monomial:
            rep = counting.count_powers_in_ap(P.degree, prog, with_solutions=False,
                                              algorithm="auto")
        else:
            rep = counting.count_poly_in_ap(P, prog, with_solutions=False)
        return [rep.count_t, rep.count_values], 1
    return [("count", lambda r=r: count(*r)) for r in inputs["requests"]]


def peak_rss_mb() -> float:
    """This process's peak resident memory.  getrusage's ru_maxrss is not
    used: across fork and exec it keeps the parent's peak."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # kB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def run_pass(spec: dict, setup_s: float) -> dict:
    import hashlib
    import json
    import resource

    from appowers.errors import CellBudgetError, PrimePowerCapError, WindowCapError
    refusals = (PrimePowerCapError, WindowCapError, CellBudgetError)

    tracer = None
    if spec["trace"]:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    requests = _requests(spec["workload"], spec["inputs"], spec["threads"])
    outputs, latencies, phases = [], [], []
    cells = 0
    clock = time.perf_counter
    before = resource.getrusage(resource.RUSAGE_SELF)
    before_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    wall_start = clock()
    for label, call in requests:
        start = clock()
        try:
            out, n = call()
        except refusals as exc:
            out, n = ["refused", type(exc).__name__], 0
        except Exception as exc:  # reported as a failed request, never hidden
            out, n = ["error", type(exc).__name__, str(exc)], 0
        latencies.append(clock() - start)
        outputs.append(out)
        cells += n
        if tracer and spec["workload"] != "count_stream":
            phases.append([label, tracer.snapshot()])
    wall_s = clock() - wall_start
    after = resource.getrusage(resource.RUSAGE_SELF)
    after_children = resource.getrusage(resource.RUSAGE_CHILDREN)
    peak_mb = peak_rss_mb()
    cpu_s = sum(getattr(b, f) - getattr(a, f)
                for a, b in ((before, after), (before_children, after_children))
                for f in ("ru_utime", "ru_stime"))
    encoded = json.dumps(outputs, sort_keys=True)
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_mb,
        "cells": cells,
        "latencies_s": latencies,
        "digest": hashlib.sha256(encoded.encode()).hexdigest(),
        "outputs": outputs if spec["full_output"] else None,
        "trace": tracer.snapshot() if tracer else None,
        "phases": phases,
    }


def main() -> int:
    setup_s = import_appowers()
    if sys.argv[1:] == ["--probe"]:
        print(repr(setup_s))
        return 0
    import json
    spec = json.load(sys.stdin)
    json.dump(run_pass(spec, setup_s), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
