"""Brute-force oracle shared by the tests, independent of both production
counting algorithms (the interval walk and the residue stride)."""
from appowers.intkernel import is_kth_power


def brute_report(k, prog):
    """(count_t, count_values) by testing every term a + i*q for a kth power."""
    ct = cv = 0
    for i in range(1, prog.N + 1):
        v = prog.a + i * prog.q
        if is_kth_power(v, k) is None:
            continue
        cv += 1
        ct += 2 if k % 2 == 0 and v > 0 else 1
    return ct, cv
