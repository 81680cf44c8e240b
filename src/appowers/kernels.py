"""The interval walk: one of the two independent monomial counting algorithms.

It visits every t of the exact kth-root window of the value interval and
keeps those with t**k = a (mod q), in arbitrary precision.  Its cost is the
width of the window, so ``counting`` picks it only for narrow windows and
otherwise uses the residue stride; the tests cross-check the two.
"""
from __future__ import annotations


def interval_walk(k: int, a: int, q: int,
                  segments: list[tuple[int, int]]) -> tuple[int, int]:
    """(count_t, count_values) for t**k among a+q, ..., a+N*q.

    segments is kth_power_t_window(k, a+q, a+N*q), so every t walked already
    has its value inside the interval and only the congruence is left.
    """
    ct = cv = 0
    if k % 2 == 0:
        # walk only t >= 0; -t mirrors every solution with the same value
        if segments:
            A, B = segments[-1]
            for t in range(max(A, 0), B + 1):
                if (t ** k - a) % q == 0:
                    cv += 1
                    ct += 2 if t > 0 else 1
    else:
        for A, B in segments:
            for t in range(A, B + 1):
                if (t ** k - a) % q == 0:
                    ct += 1
                    cv += 1
    return ct, cv
