"""Brute-force oracle shared by the tests, independent of both production
counting algorithms (the interval walk and the residue stride) and of the
package's integer roots: it imports nothing from appowers."""


def brute_report(k, prog):
    """(count_t, count_values) by testing every term a + i*q for a kth power.

    The kth powers are every t**k with |t**k| <= max(|lo|, |hi|), t of
    either sign, by plain exponentiation.
    """
    limit = max(abs(prog.lo), abs(prog.hi))
    powers = set()
    t = 0
    while t ** k <= limit:
        powers.add(t ** k)
        powers.add((-t) ** k)
        t += 1
    ct = cv = 0
    for i in range(1, prog.N + 1):
        v = prog.a + i * prog.q
        if v not in powers:
            continue
        cv += 1
        ct += 2 if k % 2 == 0 and v > 0 else 1
    return ct, cv
