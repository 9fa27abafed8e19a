"""Exception types shared across the package."""
import sys


def _approx(count):
    """``count`` to 3 significant digits, also an int beyond float range."""
    if abs(count) > sys.float_info.max:
        from decimal import Decimal  # here, not at import: only huge counts need it

        count = Decimal(count).normalize()
    return f"{count:.3g}"


class AggTreeError(Exception):
    """Base class for model and algorithm failures."""


class TreeStructureError(AggTreeError):
    """Raised for malformed trees, unknown nodes, or invalid model wiring."""


class UnsupportedModelError(AggTreeError):
    """Raised when a routine is asked for a model family it does not cover."""


class GenerationBudgetError(AggTreeError):
    """Raised when the estimated sample-generation count exceeds the budget."""

    def __init__(self, estimate, budget):
        self.estimate = estimate
        self.budget = budget
        super().__init__(
            f"estimated generation count {_approx(estimate)} exceeds budget "
            f"{_approx(budget)}"
        )


class SupportSizeError(AggTreeError):
    """Raised when an exact discrete computation would exceed the support cap."""

    def __init__(self, size, cap):
        self.size = size
        self.cap = cap
        super().__init__(f"joint support size {size} exceeds cap {cap}")


class InfeasibleCorrelationError(AggTreeError):
    """Raised when a requested correlation lies outside the attainable interval."""

    def __init__(self, value, interval, distance):
        self.value = value
        self.interval = interval
        self.distance = distance
        super().__init__(
            f"correlation {value} is outside [{interval[0]:.12g}, {interval[1]:.12g}] "
            f"by {distance:.3g}"
        )
