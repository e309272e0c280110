"""Exception hierarchy shared across the package."""


class SecondPriceError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SecondPriceError):
    """Input data violates a structural invariant.

    Carries the full list of violations so callers can report every
    problem at once instead of fixing them one at a time; ``broken`` holds
    the ``(auction index, rule)`` pair behind each auction-rule message.
    """

    def __init__(self, violations, broken=()):
        if isinstance(violations, str):
            violations = [violations]
        self.violations = list(violations)
        self.broken = list(broken)
        super().__init__("; ".join(self.violations))


class TieError(ValidationError):
    """Ties detected among pooled prices; caller should jitter and retry."""


class NumericalError(SecondPriceError):
    """A numerical procedure failed (non-finite objective, empty
    low-reserve set, uncoverable moment value, ...)."""
