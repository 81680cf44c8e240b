"""Exception types shared across the package."""


class WindowCapError(ValueError):
    """The provably-complete search window exceeds the caller's cap."""

    def __init__(self, bound, cap):
        super().__init__(f"search window [-{bound}, {bound}] exceeds cap {cap}")
        self.bound = bound
        self.cap = cap


class PrimePowerCapError(ValueError):
    """A prime-power modulus is too large for exhaustive residue enumeration."""


class CellBudgetError(RuntimeError):
    """A sweep, search, interval walk or solution list would exceed its budget."""


class InternalInvariantError(RuntimeError):
    """A checked internal invariant failed; this is a bug, not bad input."""


class BoundViolationError(InternalInvariantError):
    """A sweep cell exceeded the proven upper bound; counts as a bug."""
