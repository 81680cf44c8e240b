"""Exception types shared across the package."""


class WindowCapError(ValueError):
    """Formerly raised when the [-B, B] preimage scan exceeded a user-set cap
    on B; nothing raises it now that preimages are bisected into exact
    segments.  Kept because perfbench/worker.py imports it to classify
    refusals."""


class PrimePowerCapError(ValueError):
    """Formerly raised for a prime power over a size cap; nothing raises it
    now that roots mod any prime are found in polylog time.  Kept because
    perfbench/worker.py imports it to classify refusals."""


class CellBudgetError(RuntimeError):
    """A sweep, search, interval walk, solution list, root list or
    factorization would exceed its budget."""


class InternalInvariantError(RuntimeError):
    """A checked internal invariant failed; this is a bug, not bad input."""


class BoundViolationError(InternalInvariantError):
    """A sweep cell exceeded the proven upper bound; counts as a bug."""
