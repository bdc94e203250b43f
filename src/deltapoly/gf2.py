"""Matrices over GF(2): determinants, nullity, principal pivot transform.

Rows are integer bitmasks; addition is XOR.  Square matrices are indexed
by a labelled ground set so they interoperate with set systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import cube
from .errors import PivotUndefinedError, size_guard
from .setsystem import GroundSet, SetSystem, Subset, pack_bits, scatter_bits


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


def gf2_kernel_basis(rows: Sequence[int], ncols: int) -> list[int]:
    """Basis of {x : every row is orthogonal to x}, vectors over the columns."""
    reduced = gf2_row_reduce(rows)
    pivot_cols = [(b & -b).bit_length() - 1 for b in reduced]
    pivot_set = set(pivot_cols)
    kernel = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = 1 << j
        for b, pc in zip(reduced, pivot_cols):
            if b >> j & 1:
                vec |= 1 << pc
        kernel.append(vec)
    return kernel


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
        packed = []
        for row in rows:
            if len(row) != ground.n:
                raise ValueError("matrix is not square")
            m = 0
            for j, v in enumerate(row):
                if v not in (0, 1):
                    raise ValueError("entries must be 0 or 1")
                if v:
                    m |= 1 << j
            packed.append(m)
        return cls(ground, tuple(packed))

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
        n = self.n
        return [[self.rows[i] >> j & 1 for j in range(n)] for i in range(n)]

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
        rows = tuple(pack_bits(row, x) for i, row in enumerate(self.rows) if x >> i & 1)
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


def _invert(rows: Sequence[int], k: int) -> Optional[list[int]]:
    """Inverse of a k x k bitmask matrix by Gauss-Jordan, or None if singular."""
    aug = [rows[i] | (1 << (k + i)) for i in range(k)]
    pivots: list[int] = []
    for col in range(k):
        bit = 1 << col
        pivot_row = None
        for r in range(len(aug)):
            if r in pivots:
                continue
            if aug[r] & bit:
                pivot_row = r
                break
        if pivot_row is None:
            return None
        pivots.append(pivot_row)
        for r in range(len(aug)):
            if r != pivot_row and aug[r] & bit:
                aug[r] ^= aug[pivot_row]
    inv = [0] * k
    for col, r in enumerate(pivots):
        inv[col] = aug[r] >> k
    return inv


def _matmul(a_rows: Sequence[int], b_rows: Sequence[int]) -> list[int]:
    """Product of bitmask matrices: a is rows over len(b_rows) columns."""
    out = []
    for arow in a_rows:
        acc = 0
        r = arow
        while r:
            low = r & -r
            acc ^= b_rows[low.bit_length() - 1]
            r ^= low
        out.append(acc)
    return out


def ppt(matrix: Gf2Matrix, subset: Subset) -> Gf2Matrix:
    """Principal pivot transform on a nonsingular principal submatrix.

    Over GF(2) the block formula has no signs: the pivoted block is
    inverted, the off-diagonal blocks are multiplied through the inverse,
    and the complementary block becomes its Schur complement.
    """
    x = matrix.ground.coerce(subset)
    if x == 0:
        return matrix
    n = matrix.n
    rest = matrix.ground.full_mask & ~x
    pos = [i for i in range(n) if x >> i & 1]
    others = [i for i in range(n) if rest >> i & 1]
    p_rows = [pack_bits(matrix.rows[i], x) for i in pos]
    p_inv = _invert(p_rows, len(pos))
    if p_inv is None:
        raise PivotUndefinedError("principal submatrix is singular")
    q_rows = [pack_bits(matrix.rows[i], rest) for i in pos]
    r_rows = [pack_bits(matrix.rows[i], x) for i in others]
    s_rows = [pack_bits(matrix.rows[i], rest) for i in others]
    piq = _matmul(p_inv, q_rows)  # pivot rows over rest columns
    rpi = _matmul(r_rows, p_inv)  # rest rows over pivot columns
    rpiq = _matmul(rpi, q_rows)  # rest rows over rest columns
    new_rows = [0] * n
    for idx, i in enumerate(pos):
        new_rows[i] = scatter_bits(p_inv[idx], x) | scatter_bits(piq[idx], rest)
    for idx, i in enumerate(others):
        new_rows[i] = scatter_bits(rpi[idx], x) | scatter_bits(s_rows[idx] ^ rpiq[idx], rest)
    return Gf2Matrix(matrix.ground, tuple(new_rows))


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
