"""Delta-matroid predicates: exchange axiom, evenness, vf-closure, divisibility."""

from __future__ import annotations

from dataclasses import dataclass

from . import errors
from .errors import CapExceededError, NotAGraphError
from .graphs import system_to_graph
from .setsystem import SetSystem, distance


def is_delta_matroid(system: SetSystem) -> bool:
    """Symmetric exchange axiom, brute force over ordered member pairs.

    For members X, Y and every u in X ^ Y, either X ^ {u} is a member or
    some v != u in X ^ Y makes X ^ {u, v} a member.  Improper systems
    fail by definition.
    """
    fam = set(system.family)
    if not fam:
        return False
    members = system.family
    for x in members:
        for y in members:
            diff = x ^ y
            if not diff:
                continue
            d = diff
            while d:
                ubit = d & -d
                d ^= ubit
                if x ^ ubit in fam:
                    continue
                rest = diff ^ ubit
                found = False
                r = rest
                while r:
                    vbit = r & -r
                    r ^= vbit
                    if x ^ ubit ^ vbit in fam:
                        found = True
                        break
                if not found:
                    return False
    return True


def is_even(system: SetSystem) -> bool:
    """All members share cardinality parity."""
    system.require_proper()
    parities = {m.bit_count() & 1 for m in system.family}
    return len(parities) == 1


@dataclass(frozen=True)
class DivisibilityStatus:
    divisible: bool
    strongly_divisible: bool


def divisibility(system: SetSystem, element) -> DivisibilityStatus:
    """Divisibility of the system by one element, via properness of minors.

    Divisible: both the deletion and the pivot-deletion minors are proper,
    i.e. some member contains the element and some member avoids it.
    Strongly divisible: additionally some member's toggle by the element
    is not a member.
    """
    system.require_proper()
    bit = system.ground.coerce(element)
    if bit.bit_count() != 1:
        raise ValueError("divisibility is defined per single element")
    return DivisibilityStatus(divisible_by(system, bit), strongly_divisible_by(system, bit))


def divisible_by(system: SetSystem, bit: int) -> bool:
    """Used by divisibility and the recursion engine; bit must be a single element."""
    has_with = False
    has_without = False
    for m in system.family:
        if m & bit:
            has_with = True
        else:
            has_without = True
        if has_with and has_without:
            return True
    return False


def strongly_divisible_by(system: SetSystem, bit: int) -> bool:
    """Fast path: divisible and some member's toggle is not a member."""
    if not divisible_by(system, bit):
        return False
    fam = set(system.family)
    return any(m ^ bit not in fam for m in system.family)


def is_vf_closed(system: SetSystem, cap: int = 100_000) -> bool:
    """Every image of the system under vertex-flip sequences is a delta-matroid.

    The checks run in this order:

    1. The system must be proper (ImproperSystemError otherwise).
    2. The system itself must satisfy the exchange axiom.
    3. Binary fast path, while 2^n is at most ``MAX_CELLS``: pivot by any
       member to reach normal form; if ``system_to_graph`` reconstructs a
       graph, the system is a twist of a binary delta-matroid.  Binary
       delta-matroids are vf-safe (Brijder & Hoogeboom, "The group
       structure of pivot and loop complementation on graphs and set
       systems", European J. Combin. 2011), so the answer is True after
       one support enumeration.
    4. Otherwise every flip image is enumerated (see
       ``_flip_images_are_delta_matroids``); at most 3^n images, and
       more than ``cap`` distinct ones raise CapExceededError.
    """
    system.require_proper()
    return is_delta_matroid(system) and _vf_closed_delta_matroid(system, cap)


def _vf_closed_delta_matroid(system: SetSystem, cap: int = 100_000) -> bool:
    """Steps 3 and 4 of ``is_vf_closed``, for a proper system already known to be a delta-matroid."""
    if 1 << system.ground.n <= errors.MAX_CELLS:
        try:
            system_to_graph(system.pivot(system.family[0]))
            return True
        except NotAGraphError:
            pass
    return _flip_images_are_delta_matroids(system, cap)


def _flip_images_are_delta_matroids(system: SetSystem, cap: int) -> bool:
    """Exchange check on every vertex-flip image other than the system itself.

    Enumeration is cut down by pivot invariance of the exchange axiom: any
    flip word factors per element into a coset representative in
    {identity, loopc, dual pivot} followed by a pivot, so it suffices to
    check the images under disjoint loopc/dual-pivot element choices
    (at most 3^n systems after dedup).
    """
    seen = {system.family}
    frontier = [system]
    for i in range(system.ground.n):
        bit = 1 << i
        new_frontier = list(frontier)
        for s in frontier:
            for image in (s.loopc(bit), s.dual_pivot(bit)):
                if image.family in seen:
                    continue
                seen.add(image.family)
                if len(seen) > cap:
                    raise CapExceededError(f"vf-closure enumeration exceeded cap {cap}")
                if not is_delta_matroid(image):
                    return False
                new_frontier.append(image)
        frontier = new_frontier
    return True


def distance_triple(system: SetSystem, element) -> tuple[int, int, int]:
    """Minimum member sizes of the system, its pivot, and its dual pivot on one element.

    For delta-matroids the three values are m, m, m+1 in some order; the
    shape is asserted by tests, not here.
    """
    system.require_proper()
    bit = system.ground.coerce(element)
    if bit.bit_count() != 1:
        raise ValueError("distance_triple is defined per single element")
    d_m = distance(system, 0)
    d_pivot = distance(system, bit)
    d_dual = distance(system.dual_pivot(bit), 0)
    return (d_m, d_pivot, d_dual)
