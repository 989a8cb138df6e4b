"""Error types shared across the package."""


class InvariantViolation(ValueError):
    """A state or sample broke one of its documented invariants."""


class DegenerateSpectrumError(ValueError):
    """Analytic projector construction is undefined (g2 or an eigenvalue is ~0 or not finite)."""


class UsageError(ValueError):
    """Bad CLI arguments or config file content."""
