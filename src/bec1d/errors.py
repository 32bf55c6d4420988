"""Exception types shared across the package, and the argument guard that raises them."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of a formula."""


class ConvergenceError(RuntimeError):
    """An iterative solver failed to converge within its iteration cap.

    Carries the final bracket so the caller can inspect how far the
    solver got.
    """

    def __init__(self, message: str, bracket: tuple[float, float] | None = None):
        super().__init__(message)
        self.bracket = bracket


def _require_positive(name: str, value: float):
    """Raise ValueError unless value > 0; NaN fails the comparison."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
