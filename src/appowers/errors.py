"""Exception types shared across the package."""


class WindowCapError(ValueError):
    """The provably-complete search window exceeds the caller's cap."""

    def __init__(self, bound, cap):
        super().__init__(f"search window [-{bound}, {bound}] exceeds cap {cap}")
        self.bound = bound
        self.cap = cap


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
