"""Set systems over a labelled ground set and the vertex-flip algebra.

A set system is a ground set plus a family of subsets, each subset encoded
as an integer bitmask over the ground-set positions.  The three vertex
flips (pivot, loop complementation, dual pivot) act per element and
generate a group isomorphic to S3 on each element; flips on distinct
elements commute.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, Sequence, Union

from . import cube
from .errors import GroundSetError, ImproperSystemError, size_guard

MAX_GROUND = 62  # subsets must fit a single machine-word-sized bitmask
_INTS = frozenset((int,))

FlipKind = Literal["pivot", "loopc", "dualpivot"]

Mask = int
Subset = Union[int, str, Iterable[str]]


@dataclass(frozen=True)
class GroundSet:
    """Ordered, distinct element labels; position i maps to bit 1 << i."""

    labels: tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        labels = tuple(self.labels)
        object.__setattr__(self, "labels", labels)
        if len(labels) > MAX_GROUND:
            raise GroundSetError(f"ground set has {len(labels)} elements, max is {MAX_GROUND}")
        index = {}
        for i, lab in enumerate(labels):
            if not isinstance(lab, str) or not lab:
                raise GroundSetError(f"labels must be nonempty strings, got {lab!r}")
            if lab in index:
                raise GroundSetError(f"duplicate label {lab!r}")
            index[lab] = i
        object.__setattr__(self, "_index", index)

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> Mask:
        return (1 << len(self.labels)) - 1

    def __len__(self) -> int:
        return len(self.labels)

    def __contains__(self, label: str) -> bool:
        return label in self._index

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GroundSetError(f"element {label!r} not in ground set {self.labels}") from None

    def bit(self, label: str) -> Mask:
        return 1 << self.index(label)

    def mask_of(self, elements: Iterable[str]) -> Mask:
        m = 0
        for lab in elements:
            b = self.bit(lab)
            if m & b:
                raise GroundSetError(f"repeated element {lab!r} in subset")
            m |= b
        return m

    def coerce(self, subset: Subset) -> Mask:
        """Accept a bitmask, a single label, or an iterable of labels."""
        if isinstance(subset, int):
            if subset & ~self.full_mask:
                raise GroundSetError(f"mask {subset:#x} has bits outside the ground set")
            return subset
        if isinstance(subset, str):
            return self.bit(subset)
        return self.mask_of(subset)

    def labels_of(self, mask: Mask) -> tuple[str, ...]:
        return tuple(lab for i, lab in enumerate(self.labels) if mask >> i & 1)

    def restrict(self, mask: Mask) -> "GroundSet":
        """Sub-ground-set keeping only the elements of mask, in original order."""
        return GroundSet(self.labels_of(mask))

    def format_subset(self, mask: Mask) -> str:
        if mask == 0:
            return "{}"
        return "{" + ",".join(self.labels_of(mask)) + "}"


@dataclass(frozen=True)
class SetSystem:
    """Immutable set system: ground set plus canonically sorted family of masks."""

    ground: GroundSet
    family: tuple[Mask, ...]

    def __post_init__(self) -> None:
        fam = self.family
        full = self.ground.full_mask
        if type(fam) is tuple and all(map(operator.lt, fam, fam[1:])) and _INTS.issuperset(map(type, fam)):
            # strictly ascending ints, such as a flip's or cube.members' output, are kept
            # as they are, and the first and last members bound the range check
            if not fam or not (fam[0] | fam[-1]) & ~full:
                return
        else:
            fam = tuple(sorted(set(fam)))
            object.__setattr__(self, "family", fam)
        for m in fam:
            if m & ~full:
                raise GroundSetError(f"member mask {m:#x} has bits outside the ground set")

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_sets(cls, labels: Sequence[str], sets: Iterable[Iterable[str]]) -> "SetSystem":
        ground = GroundSet(tuple(labels))
        return cls(ground, tuple(ground.mask_of(s) for s in sets))

    # -- basic views ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self.ground.n

    def __len__(self) -> int:
        return len(self.family)

    def __contains__(self, mask: Mask) -> bool:
        return mask in self.family

    @property
    def is_proper(self) -> bool:
        return bool(self.family)

    @property
    def is_normal(self) -> bool:
        return bool(self.family) and self.family[0] == 0

    @property
    def is_equicardinal(self) -> bool:
        sizes = {m.bit_count() for m in self.family}
        return len(sizes) <= 1

    def require_proper(self) -> None:
        if not self.family:
            raise ImproperSystemError("operation needs a proper (nonempty) set system")

    def __str__(self) -> str:
        inner = ",".join(self.ground.format_subset(m) for m in self.family)
        return "{" + inner + "}"

    # -- vertex flips ---------------------------------------------------------

    def pivot(self, subset: Subset) -> "SetSystem":
        """Translate every member by the symmetric difference with the subset."""
        x = self.ground.coerce(subset)
        return SetSystem(self.ground, tuple(m ^ x for m in self.family))

    def loopc(self, subset: Subset) -> "SetSystem":
        """Loop complementation: on each element e, X + e toggles for each member X.

        Loop complementations on distinct elements commute.
        """
        return self._toggle(subset, holding=False)

    def dual_pivot(self, subset: Subset) -> "SetSystem":
        """The third involution, loopc pivot loopc: on each element e, X toggles for each member X + e."""
        return self._toggle(subset, holding=True)

    def _toggle(self, subset: Subset, holding: bool) -> "SetSystem":
        """Per element e of the subset, in index order: m ^ e toggles for each member m
        that holds e (holding) or avoids it (not holding)."""
        x = self.ground.coerce(subset)
        fam, members = set(self.family), self.family
        while x:
            bit = x & -x
            want = bit if holding else 0
            fam ^= {m ^ bit for m in members if m & bit == want}
            members = fam
            x ^= bit
        return SetSystem(self.ground, tuple(fam))

    # -- restriction / deletion ----------------------------------------------

    def restrict(self, subset: Subset) -> "SetSystem":
        """Keep members contained in the subset; the ground set becomes the subset."""
        x = self.ground.coerce(subset)
        return SetSystem(self.ground.restrict(x), pack_bits([m for m in self.family if not m & ~x], x))

    def delete(self, subset: Subset) -> "SetSystem":
        x = self.ground.coerce(subset)
        return self.restrict(self.ground.full_mask & ~x)

    def minors(self, element: Subset) -> tuple["SetSystem", "SetSystem"]:
        """The deletion F\\e and the pivot-deletion F*e\\e.

        One pass over the family: the members without e and those with e,
        bit e cut out of each.  Cutting the bit keeps ascending order.  The
        dual-pivot-deletion F~*e\\e is the symmetric difference of the two
        families, so it is proper iff they differ.
        """
        bit = self.ground.coerce(element)
        if bit.bit_count() != 1:
            raise ValueError("minors are taken at a single element")
        low = bit - 1
        high = ~low
        without, with_e = [], []
        for m in self.family:
            (with_e if m & bit else without).append((m & low) | ((m >> 1) & high))
        i = low.bit_length()
        labels = self.ground.labels
        ground = GroundSet(labels[:i] + labels[i + 1 :])
        return SetSystem(ground, tuple(without)), SetSystem(ground, tuple(with_e))


def pack_bits(values: Iterable[Mask], mask: Mask) -> tuple[Mask, ...]:
    """The bits of each value at the positions of mask, moved down to 0, 1, 2, ...

    Each bit outside mask is cut out, highest first, as ``minors`` cuts
    one: the bits below it stay and those above it move down one place.
    """
    out = [v & mask for v in values]
    cut = ((1 << mask.bit_length()) - 1) & ~mask
    while cut:
        low = (1 << (cut.bit_length() - 1)) - 1
        high = ~low
        out = [(v & low) | ((v >> 1) & high) for v in out]
        cut &= low
    return tuple(out)


# -- whole-ground flips by their closed formulas ------------------------------


def full_flip_explicit(system: SetSystem, kind: FlipKind) -> SetSystem:
    """Flip on the whole ground set, computed by the closed membership rules.

    pivot: a set belongs iff its complement belongs to the input.
    loopc: a set belongs iff it contains an odd number of input members.
    dualpivot: a set belongs iff it is contained in an odd number of members.

    The parity rules are the GF(2) subset and superset zeta transforms,
    run as n whole-cube shift/mask steps on the indicator kernel of
    ``cube``.  Must agree with the element-by-element composition; tests
    enforce this.
    """
    full = system.ground.full_mask
    if kind == "pivot":
        return SetSystem(system.ground, tuple(full ^ m for m in system.family))
    if kind not in ("loopc", "dualpivot"):
        raise ValueError(f"unknown flip kind {kind!r}")
    n = system.ground.n
    size_guard(1 << n, f"whole-ground {kind} at n={n}")
    return SetSystem(system.ground, cube.full_flip(system.family, n, kind))


# -- distance ------------------------------------------------------------------


def distance(system: SetSystem, subset: Subset = 0) -> int:
    """Smallest symmetric-difference size between the subset and a member."""
    system.require_proper()
    x = system.ground.coerce(subset)
    return min((x ^ m).bit_count() for m in system.family)


# -- orbits --------------------------------------------------------------------

OrbitGenerators = Literal["fullV-alternation", "all-single-element-flips"]


def vf_orbit(system: SetSystem, generators: OrbitGenerators) -> list[SetSystem]:
    """Closure of a system under the chosen flip generators, canonical dedup.

    fullV-alternation walks +V, *V, +V, ... for six flips: per element
    loopc and pivot generate S3, where their product has order 3, so the
    walk is back at its start.  all-single-element-flips is a BFS closure
    under every single element pivot and loop complementation; the
    members of every family it holds, the input's included, count
    against ``size_guard``.
    """
    system.require_proper()
    if generators == "fullV-alternation":
        orbit = [system]
        cur = system
        for kind in ("loopc", "pivot") * 3:
            cur = full_flip_explicit(cur, kind)
            if cur not in orbit:
                orbit.append(cur)
        return orbit
    if generators == "all-single-element-flips":
        what = f"single-flip orbit at n={system.ground.n}"
        held = len(system.family)
        order: list[SetSystem] = [system]
        visited = {system.family}
        queue = deque([system])
        bits = [1 << i for i in range(system.ground.n)]
        while queue:
            cur = queue.popleft()
            for bit in bits:
                for nxt in (cur.pivot(bit), cur.loopc(bit)):
                    if nxt.family not in visited:
                        held += len(nxt.family)
                        size_guard(held, what)
                        visited.add(nxt.family)
                        order.append(nxt)
                        queue.append(nxt)
        return order
    raise ValueError(f"unknown generator choice {generators!r}")


def iter_submasks(mask: Mask) -> Iterator[Mask]:
    """All submasks of mask, including 0 and mask itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask
