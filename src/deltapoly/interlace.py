"""Exact-integer interlace polynomials on set systems.

UniPoly is a sparse univariate polynomial over the integers; it shares
its arithmetic and printer with matroids.BiPoly through SparsePoly.
MultiQPoly tabulates, for every ordered partition (A, B, C) of the ground
set, the minimum-distance exponent of the system pivoted on B and
dual-pivoted on C; the four named polynomials Q1, q1, q2, q3 arise by
substituting 0/1 weights per partition slot.
"""

from __future__ import annotations

import operator
from collections import Counter
from itertools import repeat
from math import comb
from typing import Literal

from . import cube
from .errors import size_guard
from .setsystem import Mask, SetSystem

Which = Literal["Q1", "q1", "q2", "q3"]


class SparsePoly:
    """Sparse polynomial with arbitrary-precision integer coefficients.

    The coefficient dict maps a key to its coefficient and holds no zero.
    A subclass names its variables and says how a key maps to their
    exponents (``_exponents``), how a product adds two keys (``_join``)
    and which key the constant term has (``CONST_KEY``).
    """

    __slots__ = ("_c",)
    VARIABLES: tuple[str, ...]
    CONST_KEY: object

    def __init__(self, coeffs: dict | None = None):
        c = {k: v for k, v in coeffs.items() if v} if coeffs else {}
        if any(min(self._exponents(k)) < 0 for k in c):
            raise ValueError("negative exponent")
        self._c = c

    @classmethod
    def _make(cls, c: dict) -> SparsePoly:
        """Wrap coefficients whose keys are known to be valid, dropping zeros."""
        p = cls.__new__(cls)
        p._c = {k: v for k, v in c.items() if v}
        return p

    @classmethod
    def zero(cls) -> SparsePoly:
        return cls()

    @classmethod
    def const(cls, value: int) -> SparsePoly:
        return cls({cls.CONST_KEY: value})

    def __add__(self, other: SparsePoly) -> SparsePoly:
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c.get(k, 0) + v
        return self._make(c)

    def __sub__(self, other: SparsePoly) -> SparsePoly:
        return self + other.scale(-1)

    def __mul__(self, other: SparsePoly) -> SparsePoly:
        join = self._join
        c: dict = {}
        for k1, v1 in self._c.items():
            for k2, v2 in other._c.items():
                k = join(k1, k2)
                c[k] = c.get(k, 0) + v1 * v2
        return self._make(c)

    def scale(self, k: int) -> SparsePoly:
        return self._make({key: k * v for key, v in self._c.items()})

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()})"

    def text(self) -> str:
        """Terms by descending key; a coefficient of 1 or -1 shows only on the constant."""
        out = ""
        for k in sorted(self._c, reverse=True):
            v = self._c[k]
            powers = "".join(
                name if e == 1 else f"{name}^{e}" for name, e in zip(self.VARIABLES, self._exponents(k)) if e
            )
            sign = ("-" if v < 0 else "") if not out else (" - " if v < 0 else " + ")
            out += sign + ("" if abs(v) == 1 and powers else str(abs(v))) + powers
        return out or "0"


class UniPoly(SparsePoly):
    """Polynomial in y, keyed by the exponent of y."""

    __slots__ = ()
    VARIABLES = ("y",)
    CONST_KEY = 0
    _exponents = staticmethod(lambda d: (d,))
    _join = staticmethod(operator.add)

    @classmethod
    def from_coeffs(cls, ascending: list[int]) -> "UniPoly":
        return cls._make(dict(enumerate(ascending)))

    @classmethod
    def from_packed(cls, value: int, width: int) -> "UniPoly":
        """The polynomial whose value at y = 2^width is value, for coefficients in [0, 2^width).

        The coefficient of y^d is the d-th width-bit slot of value.
        """
        slot = (1 << width) - 1
        ascending = []
        while value:
            ascending.append(value & slot)
            value >>= width
        return cls._make(dict(enumerate(ascending)))

    @classmethod
    def binomial_power(cls, shift: int, exponent: int) -> "UniPoly":
        """(y + shift) ** exponent, expanded exactly."""
        return cls._make({k: comb(exponent, k) * shift ** (exponent - k) for k in range(exponent + 1)})

    @property
    def degree(self) -> int:
        return max(self._c) if self._c else 0

    def coeff_list(self) -> list[int]:
        """Ascending coefficient list; the zero polynomial prints as [0]."""
        if not self._c:
            return [0]
        top = max(self._c)
        return [self._c.get(d, 0) for d in range(top + 1)]

    def evaluate(self, at: int) -> int:
        total = 0
        for d, v in self._c.items():
            total += v * at**d
        return total

    def shift_variable(self, offset: int) -> "UniPoly":
        """Substitute y := y + offset."""
        out = UniPoly.zero()
        for d, v in self._c.items():
            out = out + UniPoly.binomial_power(offset, d).scale(v)
        return out


class MultiQPoly:
    """Exponent table of the multivariate interlace polynomial.

    Keys are (B, C) mask pairs with B and C disjoint; the A part is the
    complement.  The value is the minimum-distance exponent of the system
    pivoted on B and dual-pivoted on C.
    """

    __slots__ = ("ground", "entries")

    def __init__(self, ground, entries: dict[tuple[Mask, Mask], int]):
        full = ground.full_mask
        for b, c in entries:
            if b & c or (b | c) & ~full:
                raise ValueError("monomial keys must be disjoint masks inside the ground set")
        self.ground = ground
        self.entries = dict(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MultiQPoly)
            and self.ground.labels == other.ground.labels
            and self.entries == other.entries
        )

    def specialize(self, which: Which) -> UniPoly:
        """Apply the 0/1 weight substitution and collect surviving monomials.

        Q1 keeps every monomial, q1 those with C empty, q2 those with A
        empty and q3 those with B empty.
        """
        full = self.ground.full_mask
        entries = self.entries
        if which == "Q1":
            kept = entries.values()
        elif which == "q1":
            kept = [d for (b, c), d in entries.items() if not c]
        elif which == "q2":
            kept = [d for (b, c), d in entries.items() if b | c == full]
        elif which == "q3":
            kept = [d for (b, c), d in entries.items() if not b]
        else:
            raise ValueError(f"unknown specialization {which!r}")
        return UniPoly(Counter(kept))

    def to_records(self) -> list[dict]:
        """Serializable monomial list, sorted by (B, C) masks.

        The label list of each mask is built once, so records with equal
        parts share one list.
        """
        ground = self.ground
        full = ground.full_mask
        labels = [list(ground.labels_of(m)) for m in range(full + 1)]
        return [
            {"A": labels[full & ~(b | c)], "B": labels[b], "C": labels[c], "d": d}
            for (b, c), d in sorted(self.entries.items())
        ]


def multivariate_Q(system: SetSystem) -> MultiQPoly:
    """Tabulate all 3^n ordered-partition exponents of a proper system.

    The entry (B, C) is the minimum of |X Δ B| over the members X of
    F~*C, the system dual-pivoted on C.  C runs in Gray-code order, so
    each step dual-pivots the family on one element.  Write R = V ∖ C.
    Since B ⊆ R is disjoint from C, X Δ B is the disjoint union of X ∩ C
    and (X ∖ C) Δ B, so |X Δ B| = |X ∩ C| + |(X ∖ C) Δ B|.  Grouping the
    members by u = X ∖ C, the entry is the minimum over u ⊆ R of
    w(u) + |u Δ B|, where w(u) is the least |X ∩ C| of a member with
    X ∖ C = u, and infinite if there is none.  That minimum is the L1
    distance transform of w on the subcube of R (``_distance_transform``).
    Each C costs |F~*C| for the projection and |R|·2^|R| for the
    transform, O(n·3^n) in all plus the sum of |F~*C|.

    The table shares no code with the indicator kernel of ``cube`` behind
    poly_direct, so its specializations are that kernel's oracle.
    """
    system.require_proper()
    n = system.ground.n
    size_guard(3**n, f"the multivariate table at n={n}")
    full = system.ground.full_mask
    far = n + 1  # above every distance, so it stands for infinity
    entries: dict[tuple[Mask, Mask], int] = {}
    family = set(system.family)  # the members of F~*c
    c = 0
    for g in range(1 << n):
        bit = (g ^ g >> 1) ^ c  # Gray code: consecutive codes differ in one bit
        if bit:
            # the dual pivot on one element e, X toggles for each member X + e, done on
            # a plain set: a SetSystem per step would sort the family each time
            family ^= {m ^ bit for m in family if m & bit}
            c ^= bit
        r = full & ~c
        # the subsets of R in ascending order: bit j of an index is the j-th element of R
        subsets = [0]
        for j in range(n):
            if r >> j & 1:
                subsets += [u | 1 << j for u in subsets]
        best: dict[Mask, int] = {}
        for m in family:
            u, d = m & r, (m & c).bit_count()
            if d < best.get(u, far):
                best[u] = d
        w = [best.get(u, far) for u in subsets]
        _distance_transform(w)
        entries.update(zip(zip(subsets, repeat(c)), w))
    return MultiQPoly(system.ground, entries)


def _distance_transform(w: list[int]) -> None:
    """In place, w[i] := min over j of w[j] + popcount(i ^ j), for len(w) a power of two.

    One min-plus pass per bit: each pair i, i + step that differs in that
    bit brings either value down to the other plus one.
    """
    size = len(w)
    step = 1
    while step < size:
        for base in range(0, size, 2 * step):
            for i in range(base, base + step):
                a, b = w[i], w[i + step]
                if a > b + 1:
                    w[i] = b + 1
                elif b > a + 1:
                    w[i + step] = a + 1
        step *= 2


def permute_Q_under_flip(table: MultiQPoly, kind, subset) -> MultiQPoly:
    """Relabel monomial keys to obtain the table of the flipped system.

    Each flip permutes the partition slots outside its fixed slot: loopc
    swaps within B/C away from A, dual pivot within A/C away from B, and
    pivot within A/B away from C.  Exponents are untouched.
    """
    y = table.ground.coerce(subset)
    full = table.ground.full_mask
    out: dict[tuple[Mask, Mask], int] = {}
    for (b, c), d in table.entries.items():
        a = full & ~(b | c)
        if kind == "loopc":
            yp = y & ~a
            key = (b ^ yp, c ^ yp)
        elif kind == "dualpivot":
            yp = y & ~b
            key = (b, c ^ yp)
        elif kind == "pivot":
            yp = y & ~c
            key = (b ^ yp, c)
        else:
            raise ValueError(f"unknown flip kind {kind!r}")
        out[key] = d
    if len(out) != len(table.entries):
        raise AssertionError("flip relabelling must permute the monomial keys")
    return MultiQPoly(table.ground, out)


_COUNTS = {"q1": cube.q1_counts, "q2": cube.q2_counts, "q3": cube.q3_counts, "Q1": cube.Q1_counts}


def poly_direct(system: SetSystem, which: Which) -> UniPoly:
    """Compute one of Q1, q1, q2, q3 straight from its summation formula.

    q1 sums distances of all subsets; q2 sums, over every loop
    complementation, the distance to the full set, and q3 the distance to
    the complemented subset itself; Q1 sums over subset pairs Z inside X.
    The sums run on the whole-cube indicator kernel of ``cube``: distance
    balls for q1 and Q1, a Gray-code walk of loop complementations for
    q2, q3 and Q1.  No multivariate table is built; agreement with the
    brute-force multivariate_Q(...).specialize(which) is a standing oracle.
    """
    system.require_proper()
    if which not in _COUNTS:
        raise ValueError(f"unknown polynomial name {which!r}")
    n = system.ground.n
    size_guard(3**n if which == "Q1" else 1 << n, f"{which} at n={n}")
    return UniPoly.from_coeffs(_COUNTS[which](system.family, n))
