"""Exact-integer interlace polynomials on set systems.

UniPoly is a sparse univariate polynomial over the integers.  MultiQPoly
tabulates, for every ordered partition (A, B, C) of the ground set, the
minimum-distance exponent of the system pivoted on B and dual-pivoted on
C; the four named polynomials Q1, q1, q2, q3 arise by substituting 0/1
weights per partition slot.
"""

from __future__ import annotations

from math import comb
from typing import Literal

from . import cube
from .errors import size_guard
from .setsystem import Mask, SetSystem, iter_submasks

Which = Literal["Q1", "q1", "q2", "q3"]


class UniPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    __slots__ = ("_c",)

    def __init__(self, coeffs: dict[int, int] | None = None):
        c = {}
        if coeffs:
            for d, v in coeffs.items():
                if v:
                    if d < 0:
                        raise ValueError("negative degree")
                    c[d] = v
        self._c = c

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "UniPoly":
        return cls()

    @classmethod
    def const(cls, value: int) -> "UniPoly":
        return cls({0: value})

    @classmethod
    def from_coeffs(cls, ascending: list[int]) -> "UniPoly":
        return cls({d: v for d, v in enumerate(ascending)})

    @classmethod
    def binomial_power(cls, shift: int, exponent: int) -> "UniPoly":
        """(y + shift) ** exponent, expanded exactly."""
        return cls({k: comb(exponent, k) * shift ** (exponent - k) for k in range(exponent + 1)})

    # -- views ----------------------------------------------------------------

    @property
    def degree(self) -> int:
        return max(self._c) if self._c else 0

    def coeff_list(self) -> list[int]:
        """Ascending coefficient list; the zero polynomial prints as [0]."""
        if not self._c:
            return [0]
        top = max(self._c)
        return [self._c.get(d, 0) for d in range(top + 1)]

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: "UniPoly") -> "UniPoly":
        c = dict(self._c)
        for d, v in other._c.items():
            c[d] = c.get(d, 0) + v
        return UniPoly(c)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        c = dict(self._c)
        for d, v in other._c.items():
            c[d] = c.get(d, 0) - v
        return UniPoly(c)

    def __mul__(self, other: "UniPoly") -> "UniPoly":
        c: dict[int, int] = {}
        for d1, v1 in self._c.items():
            for d2, v2 in other._c.items():
                d = d1 + d2
                c[d] = c.get(d, 0) + v1 * v2
        return UniPoly(c)

    def scale(self, k: int) -> "UniPoly":
        return UniPoly({d: k * v for d, v in self._c.items()})

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self._c == other._c

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._c.items())))

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

    def __repr__(self) -> str:
        return f"UniPoly({self.text()})"

    def text(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for d in sorted(self._c, reverse=True):
            v = self._c[d]
            sign = "-" if v < 0 else "+"
            mag = abs(v)
            if d == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}y" if d == 1 else f"{head}y^{d}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
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

    def a_mask(self, key: tuple[Mask, Mask]) -> Mask:
        b, c = key
        return self.ground.full_mask & ~(b | c)

    def specialize(self, which: Which) -> UniPoly:
        """Apply the 0/1 weight substitution and collect surviving monomials."""
        coeffs: dict[int, int] = {}
        if which == "Q1":
            for d in self.entries.values():
                coeffs[d] = coeffs.get(d, 0) + 1
        elif which == "q1":
            for (b, c), d in self.entries.items():
                if c == 0:
                    coeffs[d] = coeffs.get(d, 0) + 1
        elif which == "q2":
            full = self.ground.full_mask
            for (b, c), d in self.entries.items():
                if (b | c) == full:
                    coeffs[d] = coeffs.get(d, 0) + 1
        elif which == "q3":
            for (b, c), d in self.entries.items():
                if b == 0:
                    coeffs[d] = coeffs.get(d, 0) + 1
        else:
            raise ValueError(f"unknown specialization {which!r}")
        return UniPoly(coeffs)

    def to_records(self) -> list[dict]:
        """Serializable monomial list, sorted by (B, C) masks."""
        out = []
        for (b, c) in sorted(self.entries):
            out.append(
                {
                    "A": list(self.ground.labels_of(self.a_mask((b, c)))),
                    "B": list(self.ground.labels_of(b)),
                    "C": list(self.ground.labels_of(c)),
                    "d": self.entries[(b, c)],
                }
            )
        return out


def multivariate_Q(system: SetSystem) -> MultiQPoly:
    """Tabulate all 3^n ordered-partition exponents of a proper system.

    For each C the dual pivot is applied incrementally (Gray-code order),
    then every disjoint B contributes the pivot-translated minimum
    distance of the transformed system.  The scan is brute force over the
    member tuple on purpose: it shares no code with the indicator kernel
    behind poly_direct, so its specializations are that kernel's oracle.
    """
    system.require_proper()
    n = system.ground.n
    size_guard(3**n, f"the multivariate table at n={n}")
    full = system.ground.full_mask
    entries: dict[tuple[Mask, Mask], int] = {}
    cur = system
    cur_c = 0
    for g in range(1 << n):
        c = g ^ (g >> 1)  # Gray code: consecutive codes differ in one bit
        flip = c ^ cur_c
        if flip:
            cur = cur.dual_pivot(flip)
            cur_c = c
        fam = cur.family
        for b in iter_submasks(full & ~c):
            entries[(b, c)] = min((b ^ m).bit_count() for m in fam)
    return MultiQPoly(system.ground, entries)


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
