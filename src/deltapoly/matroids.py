"""Matroids by bases, the Tutte polynomial, and its diagonal identities.

A matroid is an equicardinal delta-matroid; the carrier set system keeps
the bases.  The Tutte polynomial is computed both as the rank-nullity
subset sum, read off the rank layers of the hypercube kernel, and by
deletion/contraction, and its diagonal matches the shifted q1 of the
carrier.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Optional, Sequence

from . import cube
from .delta import is_delta_matroid
from .errors import PreconditionError, size_guard
from .gf2 import Gf2Matrix, gf2_kernel_basis, gf2_rank, gf2_row_reduce, pack_rows, unpack_rows
from .graphs import Graph, graph_to_system
from .interlace import SparsePoly, UniPoly, poly_direct
from .recursion import _recurse, q1_multiplicative_step
from .setsystem import GroundSet, Mask, SetSystem, Subset, distance, full_flip_explicit


class BiPoly(SparsePoly):
    """Polynomial in x and y, keyed by the exponent pair (a, b) of x^a y^b."""

    __slots__ = ()
    VARIABLES = ("x", "y")
    CONST_KEY = (0, 0)
    _exponents = staticmethod(tuple)
    _join = staticmethod(lambda p, q: (p[0] + q[0], p[1] + q[1]))

    @classmethod
    def x(cls) -> "BiPoly":
        return cls({(1, 0): 1})

    @classmethod
    def y(cls) -> "BiPoly":
        return cls({(0, 1): 1})

    @classmethod
    def shifted_powers(cls, x_exp: int, y_exp: int) -> "BiPoly":
        """(x - 1) ** x_exp * (y - 1) ** y_exp, expanded exactly."""
        xs = UniPoly.binomial_power(-1, x_exp)._c.items()
        ys = UniPoly.binomial_power(-1, y_exp)._c.items()
        return cls._make({(i, j): ci * cj for i, ci in xs for j, cj in ys})

    def evaluate(self, at_x: int, at_y: int) -> int:
        return sum(v * at_x**a * at_y**b for (a, b), v in self._c.items())

    def diagonal(self) -> UniPoly:
        """Substitute x := y."""
        c: dict[int, int] = {}
        for (a, b), v in self._c.items():
            c[a + b] = c.get(a + b, 0) + v
        return UniPoly._make(c)

    def to_records(self) -> list[dict]:
        return [
            {"x": a, "y": b, "c": self._c[(a, b)]}
            for (a, b) in sorted(self._c)
        ]


@dataclass(frozen=True)
class Representation:
    """Rectangular GF(2) matrix whose columns are labelled matroid elements."""

    columns: GroundSet
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        full = self.columns.full_mask
        for r in self.rows:
            if r & ~full:
                raise ValueError("row has bits outside the column set")

    @classmethod
    def from_rows(cls, column_labels: Sequence[str], rows: Sequence[Sequence[int]]) -> "Representation":
        columns = GroundSet(tuple(column_labels))
        return cls(columns, pack_rows(rows, columns.n))

    @property
    def ncols(self) -> int:
        return self.columns.n

    def column_vector(self, j: int) -> int:
        vec = 0
        for i, row in enumerate(self.rows):
            if row >> j & 1:
                vec |= 1 << i
        return vec

    def rank(self) -> int:
        return gf2_rank(self.rows)

    def to_lists(self) -> list[list[int]]:
        return unpack_rows(self.rows, self.ncols)


@dataclass(frozen=True)
class Matroid:
    """Matroid described by its bases, stored as an equicardinal set system.

    The bases must satisfy the symmetric exchange axiom, which on
    equicardinal families is basis exchange (Bouchet 1987).
    """

    carrier: SetSystem
    representation: Optional[Representation] = None

    def __post_init__(self) -> None:
        if not self.carrier.is_proper:
            raise PreconditionError("a matroid needs at least one basis")
        if not self.carrier.is_equicardinal:
            raise PreconditionError("bases must be equicardinal")
        if not is_delta_matroid(self.carrier):
            raise PreconditionError("bases must satisfy the symmetric exchange axiom")

    @classmethod
    def from_bases(cls, labels: Sequence[str], bases) -> "Matroid":
        return cls(SetSystem.from_sets(labels, bases))

    @property
    def ground(self) -> GroundSet:
        return self.carrier.ground

    @property
    def n(self) -> int:
        return self.carrier.ground.n

    @property
    def rank(self) -> int:
        return self.carrier.family[0].bit_count()

    def bases(self) -> tuple[Mask, ...]:
        return self.carrier.family


def uniform_matroid(rank: int, size: int, labels: Optional[Sequence[str]] = None) -> Matroid:
    if labels is None:
        labels = [str(i + 1) for i in range(size)]
    ground = GroundSet(tuple(labels))
    bases = [sum(1 << i for i in combo) for combo in combinations(range(size), rank)]
    return Matroid(SetSystem(ground, tuple(bases)))


def rank_nullity(matroid: Matroid, subset: Subset) -> tuple[int, int]:
    """Rank and nullity of one subset: nullity is the least part left uncovered by a basis.

    This is the definition, O(|B|) per query; the tests use it as the
    oracle for the rank layers that `tutte` reads.
    """
    x = matroid.ground.coerce(subset)
    nul = min((x & ~b).bit_count() for b in matroid.carrier.family)
    return x.bit_count() - nul, nul


def tutte(matroid: Matroid) -> BiPoly:
    """Rank-nullity subset expansion of the Tutte polynomial.

    T(x, y) sums (x - 1)^(r - r(X)) (y - 1)^(|X| - r(X)) over all subsets
    X, with r the rank function of the matroid (Oxley, Matroid Theory,
    ch. 1).  The hypercube kernel gives the exact rank layers E_k, the
    subsets of rank k, as whole-cube indicators, so the coefficient of
    (x - 1)^(r - k) (y - 1)^(j - k) is the number of j-element subsets in
    E_k.  Refuses 2^n cells over the cell limit outside ``forced()``.
    """
    size_guard(1 << matroid.n, f"tutte at n={matroid.n}")
    r = matroid.rank
    out = BiPoly.zero()
    for k, by_size in enumerate(cube.rank_size_counts(matroid.carrier.family, matroid.n)):
        for j, c in enumerate(by_size):
            if c:
                out = out + BiPoly.shifted_powers(r - k, j - k).scale(c)
    return out


def tutte_dc(matroid: Matroid) -> BiPoly:
    """Deletion/contraction, smallest-index element first, on the recursion driver.

    It is q1's multiplicative step with y and x for y + 1 (Brylawski &
    Oxley 1992): a loop (in no basis) gives a factor y on the deletion, a
    coloop (in every basis) x on the contraction, otherwise the two minors
    are summed; the empty matroid is 1.  The memo keeps every minor and its
    value, but no trace.
    """
    steps = {"loop": (BiPoly.y(), ("\\",)), "coloop": (BiPoly.x(), ("/",)), "additive": (None, ("\\", "/"))}

    def rule(system: SetSystem):
        if system.ground.n == 0:
            return None
        case, _, minors = q1_multiplicative_step(system, 1)
        factor, ops = steps[case]
        label = system.ground.labels[0]
        return label, factor, tuple((op + label, minor) for op, minor in zip(ops, minors))

    return _recurse(matroid.carrier, rule, lambda m: BiPoly.const(1))


def tutte_diagonal_check(matroid: Matroid) -> tuple[UniPoly, UniPoly, bool]:
    """Diagonal of the Tutte polynomial against the shifted q1 of the carrier."""
    via_tutte = tutte(matroid).diagonal()
    via_q1 = poly_direct(matroid.carrier, "q1").shift_variable(-1)
    return via_tutte, via_q1, via_tutte == via_q1


def binary_matroid_from_matrix(rep: Representation) -> Matroid:
    """Column matroid over GF(2): bases are the maximal independent column sets.

    Every r-column set is ranked, so ``size_guard`` counts C(n, r) cells.
    """
    r = rep.rank()
    n = rep.ncols
    size_guard(comb(n, r), f"the {n}-column, rank-{r} representation's column sets")
    columns = [rep.column_vector(j) for j in range(n)]
    bases = []
    for combo in combinations(range(n), r):
        if gf2_rank([columns[j] for j in combo]) == r:
            bases.append(sum(1 << j for j in combo))
    return Matroid(SetSystem(rep.columns, tuple(bases)), representation=rep)


def dual_pivot_min_distance(system: SetSystem) -> int:
    """Minimum member size of the whole-ground dual pivot of the system."""
    return distance(full_flip_explicit(system, "dualpivot"), 0)


def bicycle_dimension(rep: Representation) -> int:
    """Dimension of the intersection of the kernel and the row space.

    Both sit inside the column-indexed vector space; the dimension comes
    from dim C + dim C_perp - dim(C + C_perp).
    """
    n = rep.ncols
    kernel = gf2_kernel_basis(rep.rows, n)
    rowspace = gf2_row_reduce(rep.rows)
    dim_c = len(kernel)
    dim_cp = len(rowspace)
    dim_sum = gf2_rank(list(kernel) + list(rowspace))
    return dim_c + dim_cp - dim_sum


@dataclass(frozen=True)
class TutteEvalReport:
    """Diagonal Tutte evaluation against the signed power-of-two form."""

    point: int
    value: int
    dual_distance: int
    expected_exact: Optional[int]  # set for the exact -1 evaluation
    k: Optional[int]
    divisible: bool
    k_odd: Optional[bool]
    k_congruent: Optional[bool]

    @property
    def exact_match(self) -> Optional[bool]:
        if self.expected_exact is None:
            return None
        return self.value == self.expected_exact


def tutte_evaluations(matroid: Matroid, p: int) -> TutteEvalReport:
    """Evaluate the diagonal at p-1 and factor out the signed power of two.

    p = -1 asks for the exact evaluation t(-1, -1) against
    (-1)^n (-2)^d.  For a non-zero even p the report carries the quotient
    k with its divisibility, parity, and mod-p congruence flags.
    """
    n = matroid.n
    d = dual_pivot_min_distance(matroid.carrier)
    diag = tutte(matroid).diagonal()
    if p == -1:
        value = diag.evaluate(-1)
        expected = (-1) ** n * (-2) ** d
        return TutteEvalReport(-1, value, d, expected, None, value == expected, None, None)
    if p == 0 or p % 2:
        raise ValueError("p must be a non-zero even integer (or -1 for the exact case)")
    value = diag.evaluate(p - 1)
    base = (-2) ** d
    divisible = value % base == 0
    k = value // base if divisible else None
    k_odd = (abs(k) % 2 == 1) if k is not None else None
    k_congruent = ((k - (-1) ** n) % abs(p) == 0) if k is not None else None
    return TutteEvalReport(p, value, d, None, k, divisible, k_odd, k_congruent)


def fundamental_graph(matroid: Matroid, basis: Subset) -> Graph:
    """Bipartite loopless graph joining a basis element to the non-basis
    elements whose fundamental circuit contains it.  A basis element b is
    in the fundamental circuit of e iff the toggle by b and e is a basis.

    The support system of the result, pivoted on the basis, recovers the
    matroid; this is verified on every call.
    """
    b = matroid.ground.coerce(basis)
    bases = set(matroid.carrier.family)
    if b not in bases:
        raise PreconditionError("the chosen subset is not a basis")
    n = matroid.n
    rows = [0] * n
    for j in range(n):
        ebit = 1 << j
        if b & ebit:
            continue
        s = b
        while s:
            low = s & -s
            s ^= low
            if b ^ low ^ ebit in bases:
                rows[low.bit_length() - 1] |= ebit
                rows[j] |= low
    graph = Graph(Gf2Matrix(matroid.ground, tuple(rows)))
    if graph_to_system(graph).pivot(b) != matroid.carrier:
        raise PreconditionError("fundamental graph does not recover the matroid")
    return graph
