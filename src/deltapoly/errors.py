"""Exception types shared across the package, and the cell limit with its scoped override."""

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator


class DeltaPolyError(Exception):
    """Base class for all library errors."""


class GroundSetError(DeltaPolyError):
    """Bad ground-set data: duplicate labels, unknown elements, too many elements."""


class ImproperSystemError(DeltaPolyError):
    """An operation that needs a nonempty family was given an empty one."""


class PivotUndefinedError(DeltaPolyError):
    """The principal submatrix is singular, so the pivot does not exist."""


class NotAGraphError(DeltaPolyError):
    """The set system is not the support system of any graph."""


class PreconditionError(DeltaPolyError):
    """A checked hypothesis (delta-matroid, vf-closure, basis membership, ...) failed."""


class SizeGuardError(DeltaPolyError):
    """The instance exceeds the cell limit; run it inside deltapoly.forced() (CLI: --force)."""


# largest table an unforced call builds: 2^n subsets, 3^n pairs Z in X, the
# members an enumeration holds, or the ordered member pairs of an exchange check
MAX_CELLS = 1 << 20

_FORCED: ContextVar[bool] = ContextVar("deltapoly_forced", default=False)


@contextmanager
def forced() -> Iterator[None]:
    """Let every guarded call made inside the block pass the cell limit.

    The override is held in a ContextVar, so it is per thread: a thread
    started inside the block runs in its own context and is not forced.
    """
    token = _FORCED.set(True)
    try:
        yield
    finally:
        _FORCED.reset(token)


def size_guard(cells: int, what: str) -> None:
    """Refuse a table of more than MAX_CELLS cells outside forced()."""
    if cells > MAX_CELLS and not _FORCED.get():
        msg = f"{what} needs {cells:,} cells, over the limit of {MAX_CELLS:,}"
        raise SizeGuardError(f"{msg}; run it inside deltapoly.forced() (CLI: --force)")


class DocumentError(DeltaPolyError):
    """Malformed interchange document."""
