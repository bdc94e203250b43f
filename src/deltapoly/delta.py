"""Delta-matroid predicates: exchange axiom, evenness, vf-closure, divisibility."""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass

from . import cube, errors
from .errors import NotAGraphError, size_guard
from .graphs import system_to_graph
from .setsystem import SetSystem, distance


def _per_system(predicate):
    """Keep a predicate's verdict for each live system, keyed weakly by value.

    ``is_vf_closed`` asks ``is_delta_matroid`` and ``_is_binary`` about its
    input, and ``cmd_verify`` asks both public predicates in turn, so each
    verdict is computed once while the system object is alive.
    """
    verdicts: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(predicate)
    def remembered(system: SetSystem) -> bool:
        verdict = verdicts.get(system)
        if verdict is None:
            verdict = verdicts[system] = predicate(system)
        return verdict

    return remembered


@_per_system
def is_delta_matroid(system: SetSystem) -> bool:
    """Symmetric exchange axiom: for members X, Y and every u in X ^ Y,
    either X ^ {u} is a member or some v != u in X ^ Y makes X ^ {u, v} one.

    Improper systems fail by definition.  While 2^n is at most
    ``MAX_CELLS`` two routes skip the |F|^2 scan of ``_exchange_axiom``:

    - an equicardinal family is a delta-matroid iff it is the basis family
      of a matroid (Bouchet 1987), which ``cube.is_basis_family`` checks;
    - a system that ``_is_binary`` certifies is one.

    Every other input goes to ``_exchange_axiom``, the brute force, which
    the tests keep as the oracle for both routes.  The verdict is kept
    while the system object lives.
    """
    if not system.family:
        return False
    n = system.ground.n
    if system.is_equicardinal and 1 << n <= errors.MAX_CELLS:
        return cube.is_basis_family(system.family, n)
    return _is_binary(system) or _exchange_axiom(system)


@_per_system
def _is_binary(system: SetSystem) -> bool:
    """Whether a proper system is a twist of the support of a symmetric GF(2) matrix.

    The system pivoted by a member contains the empty set; it is such a
    support iff ``system_to_graph`` reconstructs a graph from it.  Such
    supports are delta-matroids (Bouchet, "Representability of
    Δ-matroids", 1987) and vf-safe (Brijder & Hoogeboom, "The group
    structure of pivot and loop complementation on graphs and set
    systems", European J. Combin. 2011), and twists keep both.  Above
    ``MAX_CELLS`` the round trip would not fit, so the answer is False.
    """
    if 1 << system.ground.n > errors.MAX_CELLS:
        return False
    try:
        system_to_graph(system.pivot(system.family[0]))
    except NotAGraphError:
        return False
    return True


def _exchange_axiom(system: SetSystem) -> bool:
    """The exchange axiom by brute force over ordered member pairs, O(|F|^2 n^2).

    The |F|^2 ordered pairs are its table for ``size_guard``.
    """
    members = system.family
    if not members:
        return False
    size_guard(len(members) ** 2, "exchange axiom over ordered member pairs")
    fam = set(members)
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

    Divisible: the deletion and the pivot-deletion minors are proper, i.e.
    some member contains the element and some member avoids it.  Strongly
    divisible: the dual-pivot-deletion minor is proper too, i.e. some
    member's toggle by the element is not a member; that minor is the
    symmetric difference of the other two, so they differ.
    """
    system.require_proper()
    deletion, pivot_deletion = system.minors(element)
    divisible = bool(deletion.family and pivot_deletion.family)
    return DivisibilityStatus(divisible, divisible and deletion.family != pivot_deletion.family)


def is_vf_closed(system: SetSystem) -> bool:
    """Every image of the system under vertex-flip sequences is a delta-matroid.

    The system must be proper (ImproperSystemError otherwise) and is
    itself an image, so it must be a delta-matroid.  A binary one is
    vf-safe (``_is_binary``; on a non-equicardinal input
    ``is_delta_matroid`` has already kept that verdict); for any other,
    every flip image must be a delta-matroid (see
    ``_flip_images_are_delta_matroids``).
    """
    system.require_proper()
    if not is_delta_matroid(system):
        return False
    return _is_binary(system) or _flip_images_are_delta_matroids(system)


def _flip_images_are_delta_matroids(system: SetSystem) -> bool:
    """Exchange check on every vertex-flip image other than the system itself.

    Enumeration is cut down by pivot invariance of the exchange axiom: any
    flip word factors per element into a coset representative in
    {identity, loopc, dual pivot} followed by a pivot, so it suffices to
    check the images under disjoint loopc/dual-pivot element choices
    (at most 3^n systems after dedup).  The running sum of |F|^2 over the
    images checked counts against ``size_guard``: it bounds the pairs the
    exchange checks scan, and with them the members held.
    """
    what = f"vf-closure flip images at n={system.ground.n}"
    pairs = 0
    seen = {system.family}
    frontier = [system]
    for i in range(system.ground.n):
        bit = 1 << i
        new_frontier = list(frontier)
        for s in frontier:
            for image in (s.loopc(bit), s.dual_pivot(bit)):
                if image.family in seen:
                    continue
                pairs += len(image.family) ** 2
                size_guard(pairs, what)
                seen.add(image.family)
                if not _exchange_axiom(image):
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
