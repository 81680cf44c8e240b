"""Exact counting of kth powers and integer-polynomial values in arithmetic
progressions, with an explicit divisor-based upper bound, witness extraction,
sweep verification, and bounded extremal search."""

from .counting import (CountReport, Progression, count_poly_in_ap,
                       count_powers_in_ap)
from .intkernel import (divisor_count, factorize, ikth_root_ceil,
                        ikth_root_floor, is_prime)
from .modroots import kth_roots_mod, kth_roots_mod_prime_power
from .poly import Poly, difference_quotient, parse_poly, preimage_range
from .search import (SearchRecord, extremal_search, rudin_count,
                     rudin_progression)
from .theorem import (SweepReport, Witness, bound_constant, extract_witness,
                      theorem_bound, verify_bound_sweep)

__version__ = "0.1.0"

__all__ = [
    "CountReport",
    "Poly",
    "Progression",
    "SearchRecord",
    "SweepReport",
    "Witness",
    "bound_constant",
    "count_poly_in_ap",
    "count_powers_in_ap",
    "difference_quotient",
    "divisor_count",
    "extract_witness",
    "extremal_search",
    "factorize",
    "ikth_root_ceil",
    "ikth_root_floor",
    "is_prime",
    "kth_roots_mod",
    "kth_roots_mod_prime_power",
    "parse_poly",
    "preimage_range",
    "rudin_count",
    "rudin_progression",
    "theorem_bound",
    "verify_bound_sweep",
]
