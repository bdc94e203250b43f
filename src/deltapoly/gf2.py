"""Matrices over GF(2): determinants, nullity, principal pivot transform.

Rows are integer bitmasks; addition is XOR.  Square matrices are indexed
by a labelled ground set so they interoperate with set systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import cube
from .errors import PivotUndefinedError, size_guard
from .setsystem import GroundSet, SetSystem, Subset, pack_bits


def gf2_rank(vectors: Iterable[int]) -> int:
    """Rank of a list of bitmask vectors, elimination on the lowest set bit."""
    basis: list[int] = []
    rank = 0
    for v in vectors:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            basis.append(v)
            rank += 1
    return rank


def gf2_row_reduce(vectors: Iterable[int]) -> list[int]:
    """Independent spanning vectors in reduced form, sorted by pivot bit."""
    basis: list[int] = []
    for v in vectors:
        for b in basis:
            low = b & -b
            if v & low:
                v ^= b
        if v:
            low = v & -v
            for i, b in enumerate(basis):
                if b & low:
                    basis[i] = b ^ v
            basis.append(v)
    return sorted(basis, key=lambda b: b & -b)


def pack_rows(rows: Sequence[Sequence[int]], ncols: int) -> tuple[int, ...]:
    """0/1 entry lists to bitmask rows, entry j at bit j; only the integers 0 and 1 pass."""
    for row in rows:
        if len(row) != ncols:
            raise ValueError(f"row length {len(row)} does not match the {ncols} columns")
        if any(type(v) is not int or v not in (0, 1) for v in row):
            raise ValueError(f"entries must be the integers 0 or 1, got {row!r}")
    return tuple(sum(v << j for j, v in enumerate(row)) for row in rows)


def unpack_rows(rows: Sequence[int], ncols: int) -> list[list[int]]:
    """Inverse of pack_rows."""
    return [[r >> j & 1 for j in range(ncols)] for r in rows]


@dataclass(frozen=True)
class Gf2Matrix:
    """Square GF(2) matrix with rows stored as bitmasks over the ground set."""

    ground: GroundSet
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        n = self.ground.n
        if len(self.rows) != n:
            raise ValueError(f"expected {n} rows, got {len(self.rows)}")
        full = self.ground.full_mask
        for r in self.rows:
            if r & ~full:
                raise ValueError("row has bits outside the ground set")

    @classmethod
    def from_rows(cls, labels: Sequence[str], rows: Sequence[Sequence[int]]) -> "Gf2Matrix":
        ground = GroundSet(tuple(labels))
        return cls(ground, pack_rows(rows, ground.n))

    @classmethod
    def zeros(cls, ground: GroundSet) -> "Gf2Matrix":
        return cls(ground, (0,) * ground.n)

    @classmethod
    def identity(cls, ground: GroundSet) -> "Gf2Matrix":
        return cls(ground, tuple(1 << i for i in range(ground.n)))

    @property
    def n(self) -> int:
        return self.ground.n

    def entry(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def to_lists(self) -> list[list[int]]:
        return unpack_rows(self.rows, self.n)

    @property
    def is_symmetric(self) -> bool:
        n = self.n
        return all(self.entry(i, j) == self.entry(j, i) for i in range(n) for j in range(i + 1, n))

    def with_toggled_diagonal(self, subset: Subset) -> "Gf2Matrix":
        x = self.ground.coerce(subset)
        rows = list(self.rows)
        for i in range(self.n):
            if x >> i & 1:
                rows[i] ^= 1 << i
        return Gf2Matrix(self.ground, tuple(rows))

    def principal(self, subset: Subset) -> "Gf2Matrix":
        """Principal submatrix on the elements of the subset, in ground order."""
        x = self.ground.coerce(subset)
        rows = pack_bits([row for i, row in enumerate(self.rows) if x >> i & 1], x)
        return Gf2Matrix(self.ground.restrict(x), rows)


def det_nullity(matrix: Gf2Matrix, subset: Subset) -> tuple[int, int]:
    """Determinant (0 or 1) and nullity of a principal submatrix.

    The empty submatrix has determinant 1 and nullity 0.
    """
    x = matrix.ground.coerce(subset)
    k = x.bit_count()
    if k == 0:
        return 1, 0
    # the columns outside x are zeroed rather than dropped: the rank is the same
    rank = gf2_rank([row & x for i, row in enumerate(matrix.rows) if x >> i & 1])
    return (1 if rank == k else 0), k - rank


def ppt(matrix: Gf2Matrix, subset: Subset) -> Gf2Matrix:
    """Principal pivot transform on a nonsingular principal submatrix A[X].

    The transform exchanges x_X and y_X in y = Ax (Tsatsomeros,
    "Principal pivot transforms: properties and applications", Linear
    Algebra Appl. 307, 2000): it is the matrix B with B(y_X, x_X') =
    (x_X, y_X'), X' the complement.  Moving the unknowns to the left gives
    L(x_X, y_X') = R(y_X, x_X'), where row j of L is A's row j on X plus
    e_j when j is not in X, and row j of R is e_j when j is in X plus A's
    row j off X.  L is nonsingular exactly when A[X] is, and then B is
    L^-1 R: one Gauss-Jordan reduction of [L | R] reaches [I | B].  Over
    GF(2) there are no signs.
    """
    x = matrix.ground.coerce(subset)
    n, full = matrix.n, matrix.ground.full_mask
    rest = full & ~x
    augmented = []
    for j, row in enumerate(matrix.rows):
        e = 1 << j
        left, right = (row & x) | (e & rest), (e & x) | (row & rest)
        augmented.append(left | right << n)
    reduced = gf2_row_reduce(augmented)
    if [r & full for r in reduced] != [1 << j for j in range(n)]:
        raise PivotUndefinedError("principal submatrix is singular")
    return Gf2Matrix(matrix.ground, tuple(r >> n for r in reduced))


def schur_complement(matrix: Gf2Matrix, subset: Subset) -> Gf2Matrix:
    """The block of the pivot transform living on the complementary elements."""
    x = matrix.ground.coerce(subset)
    return ppt(matrix, x).principal(matrix.ground.full_mask & ~x)


def support_set_system(matrix: Gf2Matrix) -> SetSystem:
    """All index sets whose principal submatrix is nonsingular.

    The empty set always qualifies, so the result is normal.  Symmetric
    matrices yield delta-matroids.

    The family comes from the all-principal-minors recursion of Griffin
    and Tsatsomeros ("Principal minors, Part I", Linear Algebra Appl.
    2006) over GF(2), on the top element i with rest R: the sets without
    i are the support of A[R], and the sets with i are the support of the
    Schur complement S = A[R] + A[R, i] A[i, R], XORed with the support of
    A[R] when A_ii = 0.  The rule holds for any square matrix, symmetric
    or not; ``cube.principal_support`` runs it once per distinct Schur
    complement.  ``det_nullity`` stays the per-minor oracle.
    """
    n = matrix.n
    size_guard(1 << n, f"principal-minor enumeration at n={n}")
    return SetSystem(matrix.ground, cube.members(cube.principal_support(matrix.rows)))
