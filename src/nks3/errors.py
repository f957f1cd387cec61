"""Exception types shared across the package, and `allocation`, which
raises one of them, MemoryError, for every array too large to allocate."""

import contextlib


class DomainError(ValueError):
    """An input is outside the mathematical domain of an operation."""


class DegenerateImmersionError(RuntimeError):
    """A chart pushforward lost rank at the requested parameter point."""


class PreconditionError(ValueError):
    """A stated precondition of an operation does not hold at this input."""


@contextlib.contextmanager
def allocation(what: str):
    """Raise MemoryError, naming `what`, where the block's numpy allocation
    raises ValueError.  numpy raises ValueError for an array whose byte
    size it cannot even represent, and MemoryError for one it can represent
    but not allocate; callers then see MemoryError, with a one-line
    message, for both."""
    try:
        yield
    except ValueError as exc:
        raise MemoryError(f"cannot allocate {what}: {exc}") from None
