"""Exception types shared across the package."""


class StageError(ValueError):
    """A stage cannot serve its input: a verdict reports it as the failed
    stage, and the CLI exits with status 2.  Apart from a failed LAPACK
    call, any other exception is a programming error and propagates."""


class DimensionError(StageError):
    """Array or matrix shape violates the operation's contract."""


class DomainError(StageError):
    """Parameter lies outside the mathematical domain of the routine."""


class ExistenceError(DomainError):
    """No standing wave exists at the requested parameter point."""


class UsageError(StageError):
    """Incompatible combination of arguments, e.g. grid topology mismatch."""


class DegenerateProfileError(StageError):
    """Profile violates a nondegeneracy requirement (e.g. phi''(0) = 0)."""
