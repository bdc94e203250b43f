"""Exception types shared across the package."""


class DeltaPolyError(Exception):
    """Base class for all library errors."""


class GroundSetError(DeltaPolyError):
    """Bad ground-set data: duplicate labels, unknown elements, too many elements."""


class ImproperSystemError(DeltaPolyError):
    """An operation that needs a nonempty family was given an empty one."""


class CapExceededError(DeltaPolyError):
    """An enumeration grew past its configured cap."""


class PivotUndefinedError(DeltaPolyError):
    """The principal submatrix is singular, so the pivot does not exist."""


class NotAGraphError(DeltaPolyError):
    """The set system is not the support system of any graph."""


class PreconditionError(DeltaPolyError):
    """A checked hypothesis (delta-matroid, vf-closure, basis membership, ...) failed."""


class SizeGuardError(DeltaPolyError):
    """The instance exceeds the cell limit; pass force=True to override."""


MAX_CELLS = 1 << 20  # largest table an unforced call builds: 2^n subsets or 3^n pairs Z in X


def size_guard(cells: int, what: str, force: bool) -> None:
    """Refuse a table of more than MAX_CELLS cells unless forced."""
    if cells > MAX_CELLS and not force:
        msg = f"{what} needs {cells:,} cells, over the limit of {MAX_CELLS:,}"
        raise SizeGuardError(f"{msg}; pass force=True (CLI: --force) to override")


class DocumentError(DeltaPolyError):
    """Malformed interchange document."""
