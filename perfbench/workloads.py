"""Seeded inputs for the three benchmark workloads.

The same seed always gives the same inputs.  Nothing here imports appowers:
the library receives only the values built here, and the metadata kept
beside them (request class, factorization of the step) is for the checks.
"""
from __future__ import annotations

import math
import random

import arith

WORKLOADS = ("verify_witness", "search_extremal", "count_stream")

# verify_witness: the witness layer dominates; see README.md.
VERIFY_K_SET = (2, 3, 4)
VERIFY_Q_MAX = 6
WITNESS_PAIR_CAP = 64  # appowers' default, which the CLI does not override

# search_extremal: the serial baseline, half residue stride, half interval walk.
SEARCH_K = (2, 3)
SEARCH_Q_MAX = 80
SEARCH_A_WINDOW = 1
SEARCH_CELL_BUDGET = 2_000_000  # the CLI default of --budget

# count_stream: request classes and their exact shares of the stream.
STREAM_SIZE = 2000
STREAM_SHARES = {
    "residue": 0.60,    # residue-stride monomials, smooth composite q, N up to 1e40
    "interval": 0.20,   # interval-walk monomials, t-span <= 2e4
    "poly": 0.15,       # non-monomial quadratics over small value ranges
    "cap": 0.03,        # k=2 with 2^31 | q: the residue path refuses today
    "long_walk": 0.02,  # interval walks with t-span about 1e5 <= q
}
RESIDUE_PRIMES = tuple(p for p in range(2, 1000)
                       if all(p % d for d in range(2, math.isqrt(p) + 1)))
RESIDUE_PRIME_POWER_MAX = 10 ** 4   # far below appowers' prime-power cap of 1e7
RESIDUE_OMEGA = (2, 5)              # distinct primes in q
RESIDUE_LOG10_N = (12, 40)
INTERVAL_SPAN = (1_000, 20_000)
INTERVAL_Q = (2 * 10 ** 4, 10 ** 7)
POLY_WINDOW = 2_500                 # |values| <= POLY_WINDOW * leading coefficient
CAP_ODD_PART_MAX = 999
LONG_WALK_SPAN = (90_000, 110_000)
LONG_WALK_Q = (2 * 10 ** 5, 10 ** 8)


def stream_counts() -> dict[str, int]:
    """Requests per class; the shares multiply out exactly."""
    return {cls: round(share * STREAM_SIZE) for cls, share in STREAM_SHARES.items()}


def verify_witness_inputs(seed: int) -> dict:
    """One verify sweep.  Each N lies in the first tenth of its decade: the
    witness work grows with N, and this keeps it within a few per cent
    from seed to seed."""
    rng = random.Random(f"verify_witness/{seed}")
    N_set = [10 ** d + rng.randrange(10 ** d // 10 + 1) for d in (1, 2, 3)]
    return {"k_set": list(VERIFY_K_SET), "q_max": VERIFY_Q_MAX,
            "N_set": N_set, "a_mode": "window"}


def search_extremal_inputs(seed: int) -> dict:
    """One extremal search per k at the same seeded N near 1000."""
    rng = random.Random(f"search_extremal/{seed}")
    return {"k_set": list(SEARCH_K), "N": rng.randrange(950, 1051),
            "q_max": SEARCH_Q_MAX, "a_window": SEARCH_A_WINDOW,
            "cell_budget": SEARCH_CELL_BUDGET}


def _log_uniform(rng: random.Random, lo: int, hi: int) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


def _request(cls, k, coeffs, a, q, N, q_factors) -> dict:
    return {"cls": cls, "k": k, "coeffs": coeffs, "a": a, "q": q, "N": N,
            "q_factors": [list(f) for f in q_factors]}


def _residue_request(rng: random.Random) -> dict:
    while True:
        k = rng.choice((2, 3, 4))
        primes = sorted(rng.sample(RESIDUE_PRIMES, rng.randint(*RESIDUE_OMEGA)))
        factors = []
        for p in primes:
            e_max = 1
            while p ** (e_max + 1) <= RESIDUE_PRIME_POWER_MAX:
                e_max += 1
            factors.append((p, rng.randint(1, e_max)))
        q = math.prod(p ** e for p, e in factors)
        N = _log_uniform(rng, 10 ** RESIDUE_LOG10_N[0], 10 ** RESIDUE_LOG10_N[1])
        # a unit residue keeps the root count at most 2k * k**(omega-1)
        t0 = rng.randrange(q)
        while math.gcd(t0, q) != 1:
            t0 = rng.randrange(q)
        a = pow(t0, k, q) - q * rng.randrange(2)
        if arith.span(k, a, q, N) > max(64, q):
            return _request("residue", k, None, a, q, N, factors)


def _interval_request(rng: random.Random) -> dict:
    while True:
        k = rng.choice((2, 3))
        r = rng.randrange(*INTERVAL_SPAN) // 2
        q = _log_uniform(rng, *INTERVAL_Q)
        if k == 2:
            N = max(1, r * r // q)
            a = rng.randrange(-q, q)
        else:
            a = -r ** 3 + rng.randrange(q)
            N = max(1, (r ** 3 - a) // q)
        s = arith.span(k, a, q, N)
        if INTERVAL_SPAN[0] <= s <= INTERVAL_SPAN[1] and s <= q:
            return _request("interval", k, None, a, q, N, arith.factor_small(q))


def _poly_request(rng: random.Random) -> dict:
    coeffs = [0, 0, 1]
    while coeffs == [0, 0, 1]:  # t^2 takes the monomial path, not this class
        coeffs = [rng.randint(-100, 100), rng.randint(-30, 30), rng.randint(1, 9)]
    q = rng.randint(1, 500)
    bound = POLY_WINDOW * coeffs[2]
    a = rng.randrange(-bound, bound // 2) - q  # a+q >= -bound
    N = (bound - a) // q                       # a+N*q <= bound
    return _request("poly", None, coeffs, a, q, N, arith.factor_small(q))


def _cap_request(rng: random.Random) -> dict:
    while True:
        m = rng.randrange(1, CAP_ODD_PART_MAX + 1, 2)
        factors = [(2, 31)] + arith.factor_small(m)
        q = 2 ** 31 * m
        N = q * rng.randint(1, 4)
        a = rng.randrange(-q, q) | 1  # odd a: at most four square roots mod 2^31
        if arith.span(2, a, q, N) > q:
            return _request("cap", 2, None, a, q, N, factors)


def _long_walk_request(rng: random.Random) -> dict:
    while True:
        r = rng.randrange(*LONG_WALK_SPAN) // 2
        q = _log_uniform(rng, *LONG_WALK_Q)
        N = max(1, r * r // q)
        a = rng.randrange(-q, q)
        s = arith.span(2, a, q, N)
        if LONG_WALK_SPAN[0] <= s <= LONG_WALK_SPAN[1] and s <= q:
            return _request("long_walk", 2, None, a, q, N, arith.factor_small(q))


_MAKERS = {"residue": _residue_request, "interval": _interval_request,
           "poly": _poly_request, "cap": _cap_request,
           "long_walk": _long_walk_request}


def count_stream_inputs(seed: int) -> dict:
    """The request stream, classes at their exact shares in seeded order."""
    rng = random.Random(f"count_stream/{seed}")
    requests = [_MAKERS[cls](rng)
                for cls, n in stream_counts().items() for _ in range(n)]
    rng.shuffle(requests)
    return {"requests": requests}


def build(workload: str, seed: int) -> dict:
    return {"verify_witness": verify_witness_inputs,
            "search_extremal": search_extremal_inputs,
            "count_stream": count_stream_inputs}[workload](seed)


def library_inputs(workload: str, inputs: dict) -> dict:
    """What the worker passes to appowers: the stream loses its check metadata."""
    if workload != "count_stream":
        return inputs
    return {"requests": [[r["k"], r["coeffs"], r["a"], r["q"], r["N"]]
                         for r in inputs["requests"]]}
