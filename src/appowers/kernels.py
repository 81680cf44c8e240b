"""The interval walk: one of the two independent monomial counting algorithms.

It visits every t of the counted window [A, B] of the value interval,
``intkernel.kth_power_t_window`` (the t >= 0 side for even k), and keeps
those with t**k = a (mod q), in arbitrary precision;
``counting.count_powers_in_ap`` turns the hits into counts.  The walk costs the width of
[A, B], so ``counting`` takes it when that is below the residue stride's
estimated cost, and refuses a walk over its budget; the tests cross-check
the two.
"""
from __future__ import annotations


def interval_walk(k: int, a: int, q: int, A: int, B: int) -> int:
    """Number of t in [A, B] with t**k = a (mod q).

    [A, B] is kth_power_t_window(k, a+q, a+N*q), so every t walked already
    has its value inside the interval and only the congruence is left.
    """
    hits = 0
    for t in range(A, B + 1):
        if (t ** k - a) % q == 0:
            hits += 1
    return hits
