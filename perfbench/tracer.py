"""Per-layer calls, total time and self time for a traced pass.

The tracer wraps, from outside the library, the module attributes through
which each appowers module calls the layer below it.  A site is looked up
by module and attribute name; a site that no longer exists is skipped, and a
layer none of whose sites exist is left out of the snapshot, so a refactor
that moves or removes an entry point costs that metric, never the run.

Self time is a call's duration minus the time spent in wrapped calls it made.
The call stack is one list, so traced passes run the library single-threaded.
"""
from __future__ import annotations

import functools
import importlib
import time

# layer -> the (module, attribute) sites its callers look it up through
LAYERS = {
    "theorem.verify_bound_sweep": [("appowers.theorem", "verify_bound_sweep")],
    "theorem.extract_witness": [("appowers.theorem", "extract_witness")],
    "poly.difference_quotient": [("appowers.theorem", "difference_quotient")],
    "search.extremal_search": [("appowers.search", "extremal_search")],
    "counting.count_powers_in_ap": [("appowers.theorem", "count_powers_in_ap"),
                                    ("appowers.search", "count_powers_in_ap"),
                                    ("appowers.counting", "count_powers_in_ap")],
    "counting.count_poly_in_ap": [("appowers.counting", "count_poly_in_ap")],
    "counting.power_solutions": [("appowers.counting", "_power_solutions")],
    "counting.interval_walk": [("appowers.kernels", "interval_walk")],
    "counting.residue_stride": [("appowers.counting", "_residue_stride_counts")],
    "intkernel.kth_power_t_window": [("appowers.counting", "kth_power_t_window"),
                                     ("appowers._accel_py", "kth_power_t_window"),
                                     ("appowers.poly", "kth_power_t_window")],
    "modroots.kth_roots_mod": [("appowers.counting", "kth_roots_mod")],
    "modroots.prime_power": [("appowers.modroots", "kth_roots_mod_prime_power")],
    "intkernel.factorize": [("appowers.modroots", "factorize"),
                            ("appowers.intkernel", "factorize")],
    "poly.preimage_range": [("appowers.counting", "preimage_range")],
}

# cache -> the functools.lru_cache object whose cache_info() gives hits
CACHES = {
    "modroots.roots_cache": ("appowers.modroots", "_roots_mod_cached"),
    "modroots.power_map": ("appowers.modroots", "_power_map"),
    "intkernel.factorize": ("appowers.intkernel", "factorize"),
}


def _resolve(module_name: str, attr: str):
    """(module, attribute value), or None when either no longer exists."""
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None
    value = getattr(module, attr, None)
    return (module, value) if callable(value) else None


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}   # layer -> [calls, total_s, self_s]
        self.caches: dict = {}
        self._stack: list[list[float]] = []

    def install(self) -> None:
        for name, site in CACHES.items():  # before wrapping: factorize is both
            found = _resolve(*site)
            if found and hasattr(found[1], "cache_info"):
                self.caches[name] = found[1]
        for layer, sites in LAYERS.items():
            for module_name, attr in sites:
                found = _resolve(module_name, attr)
                if found:
                    module, fn = found
                    setattr(module, attr, self._wrap(layer, fn))

    def _wrap(self, layer: str, fn):
        stat = self.stats.setdefault(layer, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]
        return traced

    def snapshot(self) -> dict:
        """Counters so far: layer totals and cache hits and misses."""
        return {
            "layers": {layer: {"calls": s[0], "total_s": s[1], "self_s": s[2]}
                       for layer, s in self.stats.items()},
            "caches": {name: {"hits": fn.cache_info().hits,
                              "misses": fn.cache_info().misses}
                       for name, fn in self.caches.items()},
        }
