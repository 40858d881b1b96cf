"""Exception types shared across the package."""


class DimensionError(ValueError):
    """Array or matrix shape violates the operation's contract."""


class DomainError(ValueError):
    """Parameter lies outside the mathematical domain of the routine."""


class ExistenceError(DomainError):
    """No standing wave exists at the requested parameter point."""


class BracketError(ValueError):
    """Root bracket does not enclose a sign change."""


class UsageError(ValueError):
    """Incompatible combination of arguments, e.g. grid topology mismatch."""


class DegenerateProfileError(ValueError):
    """Profile violates a nondegeneracy requirement (e.g. phi''(0) = 0)."""


class BlowUpError(RuntimeError):
    """Time evolution produced a non-finite state."""

    def __init__(self, t, message=None):
        self.t = t
        super().__init__(message or f"state became non-finite at t = {t:.6g}")
