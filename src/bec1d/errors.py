"""Exception types shared across the package, and the two argument guards that raise them.

A real argument of the model (intensity, beta, rho, a length, an energy, a
tolerance) is valid only if it is finite and positive, and a chemical potential
or a separation only if it is finite and below its bound. _require_positive and
_require_below are the only checks of that rule, so NaN and +-inf fail the way
an out-of-range value does.
"""

import math


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


def _require_positive(name: str, value: float, error: type[Exception] = ValueError):
    """Raise `error` unless 0 < value < inf; NaN fails the comparison."""
    if not 0 < value < math.inf:
        raise error(f"{name} must be positive and finite, got {value}")


def _require_below(name: str, value: float, bound: float, inclusive: bool = False,
                   error: type[Exception] = DomainError):
    """Raise `error` unless value is finite and below bound (or at it, if inclusive)."""
    if not (math.isfinite(value) and (value <= bound if inclusive else value < bound)):
        where = "be finite" if bound == math.inf else \
            f"lie {'at or ' if inclusive else ''}below {bound}"
        raise error(f"{name} must {where}, got {value}")
