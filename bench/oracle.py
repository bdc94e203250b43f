"""Reference computations the benchmark checks command outputs against.

Everything here is written from the definitions and imports nothing from
deltapoly, so a defect in the library cannot hide inside its own check.
Subsets are integer bitmasks over element positions; a family is an
iterable of such masks.
"""

from __future__ import annotations


def gf2_rank(vectors) -> int:
    """Rank over GF(2) of bitmask vectors."""
    pivots: list[tuple[int, int]] = []
    for v in vectors:
        for low, p in pivots:
            if v & low:
                v ^= p
        if v:
            pivots.append((v & -v, v))
    return len(pivots)


def principal_nonsingular(rows, x: int) -> bool:
    """Whether the principal submatrix on the elements of x is invertible."""
    pivots: list[tuple[int, int]] = []
    m = x
    while m:
        b = m & -m
        m ^= b
        v = rows[b.bit_length() - 1] & x
        for low, p in pivots:
            if v & low:
                v ^= p
        if not v:
            return False
        pivots.append((v & -v, v))
    return True


def support_masks(rows, n: int) -> list[int]:
    """Index sets of the nonsingular principal submatrices, ascending."""
    return [x for x in range(1 << n) if principal_nonsingular(rows, x)]


def nullity_histogram(rows, n: int) -> list[int]:
    """Coefficients of q1 of a graph: subsets counted by the nullity of their induced submatrix."""
    counts = [0] * (n + 1)
    for x in range(1 << n):
        sub = []
        m = x
        while m:
            b = m & -m
            m ^= b
            sub.append(rows[b.bit_length() - 1] & x)
        counts[x.bit_count() - gf2_rank(sub)] += 1
    while len(counts) > 1 and counts[-1] == 0:
        counts.pop()
    return counts


def count_bases(columns, rank: int) -> int:
    """Number of column subsets of the given size that are independent."""
    count = 0
    n = len(columns)

    def grow(start: int, chosen: list[int]) -> None:
        nonlocal count
        if len(chosen) == rank:
            count += 1
            return
        for j in range(start, n - (rank - len(chosen)) + 1):
            if gf2_rank(chosen + [columns[j]]) == len(chosen) + 1:
                grow(j + 1, chosen + [columns[j]])

    grow(0, [])
    return count


def is_delta_matroid(family) -> bool:
    """Symmetric exchange axiom on a nonempty family."""
    fam = set(family)
    if not fam:
        return False
    for x in fam:
        for y in fam:
            diff = x ^ y
            d = diff
            while d:
                u = d & -d
                d ^= u
                if x ^ u in fam:
                    continue
                rest = diff ^ u
                ok = False
                while rest:
                    v = rest & -rest
                    rest ^= v
                    if x ^ u ^ v in fam:
                        ok = True
                        break
                if not ok:
                    return False
    return True


# -- single-element flips on a family --------------------------------------------


def pivot(family: frozenset, x: int) -> frozenset:
    return frozenset(m ^ x for m in family)


def loopc(family: frozenset, x: int) -> frozenset:
    """Loop complementation element by element: F ^= {m + u : m in F, u not in m}."""
    out = set(family)
    while x:
        u = x & -x
        x ^= u
        out ^= {m | u for m in out if not m & u}
    return frozenset(out)


def dual_pivot(family: frozenset, x: int) -> frozenset:
    while x:
        u = x & -x
        x ^= u
        family = loopc(pivot(loopc(family, u), u), u)
    return family


FLIPS = {"*": pivot, "+": loopc, "~*": dual_pivot}


def restrict(family, keep: int) -> frozenset:
    """Members inside keep, re-indexed onto the kept positions in order."""
    positions = [i for i in range(keep.bit_length()) if keep >> i & 1]
    out = set()
    for m in family:
        if m & ~keep:
            continue
        out.add(sum(1 << j for j, i in enumerate(positions) if m >> i & 1))
    return frozenset(out)


# -- whole-ground flips on the 2^n-bit indicator of a family -----------------------


def indicator(family) -> int:
    out = 0
    for m in family:
        out |= 1 << m
    return out


def _low_halves(n: int, i: int) -> int:
    """Indicator of the subsets without element i."""
    block = (1 << (1 << i)) - 1
    period = (1 << (2 << i)) - 1
    return block * (((1 << (1 << n)) - 1) // period)


def full_loopc(ind: int, n: int) -> int:
    """Loop complementation on every element: a set belongs iff it contains an odd number of members."""
    for i in range(n):
        ind ^= (ind & _low_halves(n, i)) << (1 << i)
    return ind


def full_pivot(ind: int, n: int) -> int:
    """Pivot on the whole ground set: a set belongs iff its complement does."""
    for i in range(n):
        low = _low_halves(n, i)
        ind = ((ind & low) << (1 << i)) | ((ind >> (1 << i)) & low)
    return ind


def fullv_orbit(family, n: int) -> list[int]:
    """Indicators of the +V, *V, +V, ... walk until it returns to the start."""
    start = indicator(family)
    seen = [start]
    cur = start
    step = 0
    while True:
        cur = full_loopc(cur, n) if step % 2 == 0 else full_pivot(cur, n)
        step += 1
        if cur == start and step % 2 == 0:
            return seen
        if cur not in seen:
            seen.append(cur)


# -- principal pivot transform ---------------------------------------------------


def ppt_relation_holds(rows_a, rows_b, x: int, n: int) -> bool:
    """Whether B is the principal pivot transform of A on x.

    B is the pivot of A on x exactly when, for every pair y = A v, the
    vector v' (v with its x-part replaced by y's) satisfies B v' = y'
    (y with its x-part replaced by v's).  Checking the n unit vectors v
    covers the whole graph of A, because both graphs are n-dimensional.
    """

    def apply(rows, v: int) -> int:
        out = 0
        for i, r in enumerate(rows):
            if (r & v).bit_count() & 1:
                out |= 1 << i
        return out

    for j in range(n):
        v = 1 << j
        y = apply(rows_a, v)
        v2 = (v & ~x) | (y & x)
        y2 = (y & ~x) | (v & x)
        if apply(rows_b, v2) != y2:
            return False
    return True
