"""Families of subsets as one 2^n-bit indicator integer.

Bit x of an indicator is set iff the subset with mask x is a member.
Every vertex flip on element i is then a constant number of whole-cube
shift/mask operations with M_i, the indicator of the cells whose bit i is
clear, and a distance ball grows by one radius with n of them: the GF(2)
zeta/Moebius shift-and-mask step (Yates 1937; Bjoerklund, Husfeldt, Kaski
and Koivisto, "Fourier meets Moebius", STOC 2007).  The support of a
square GF(2) matrix, the sets with a nonsingular principal submatrix,
is built the same way: its low half is the support of a submatrix and
its high half that of a Schur complement, one pair per distinct
subproblem (``principal_support``).

This module is the only one that knows the format.  Masks are built per
call; they cost O(n^2) big-int operations, next to the 2^n-cell work.
"""

from __future__ import annotations

from itertools import combinations, compress
from typing import Iterable, Iterator, Literal, Sequence

CubeFlip = Literal["loopc", "dualpivot"]

_BITS = bytes.maketrans(b"01", b"\x00\x01")


def indicator(family: Iterable[int], n: int) -> int:
    """The 2^n-bit indicator of a family of subset masks over n elements."""
    buf = bytearray(((1 << n) + 7) >> 3)
    for m in family:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def members(ind: int) -> tuple[int, ...]:
    """The subset masks of an indicator, ascending."""
    bits = bin(ind)[:1:-1].encode().translate(_BITS)
    return tuple(compress(range(len(bits)), bits))


def principal_support(rows: Sequence[int]) -> int:
    """Indicator of the X whose principal submatrix A[X] is nonsingular over GF(2).

    rows[j] holds row j of the square matrix A, bit k being A[j, k].  Take
    the top element i, the rest R, c = A[i, R] and b = A[R, i], and let
    S = A[R] + b c^T (row j of A[R], XOR c when A[j, i] = 1).  The sets
    without i are ind(A[R]).  For Y inside R, det A[i+Y] = det S[Y] when
    A_ii = 1 (Schur complement); when A_ii = 0, linearity of det in row i
    adds det A[Y], so the sets with i are ind(S) XOR ind(A[R]).  Neither
    step needs A symmetric.  Equal submatrices recur, so each distinct
    one is solved once per call (Griffin and Tsatsomeros, "Principal
    minors, Part I", Linear Algebra Appl. 2006).

    The matrix is packed into one integer, row j at bits j*n .. j*n+n-1,
    so a step is a few whole-matrix operations and a memo key is one int.
    """
    n = len(rows)
    packed = sum(r << (j * n) for j, r in enumerate(rows))
    starts = [0]  # starts[k]: the first bit of each of rows 0 .. k-1
    for j in range(n):
        starts.append(starts[-1] | (1 << (j * n)))
    memos: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(n)]
    return _principal_support(packed, n, n, starts, memos)


def _principal_support(a: int, k: int, n: int, starts: list[int], memos: list[dict[int, int]]) -> int:
    """Support indicator of a, the packed leading k x k block; memos[k] is keyed by block."""
    ind = memos[k].get(a)
    if ind is None:
        i = k - 1
        low = (1 << i) - 1
        rest = a & (starts[i] * low)
        # b c^T: column i moved to the row starts, times row i
        schur = rest ^ (((a >> i) & starts[i]) * ((a >> (i * n)) & low))
        below = _principal_support(rest, i, n, starts, memos)
        above = _principal_support(schur, i, n, starts, memos)
        if not (a >> (i * n + i)) & 1:
            above ^= below
        ind = memos[k][a] = below | (above << (1 << i))
    return ind


def element_masks(n: int) -> list[int]:
    """M_0 .. M_{n-1}: M_i marks the cells whose bit i is clear."""
    masks = [0] * n
    if n:
        m = (1 << (1 << (n - 1))) - 1
        masks[n - 1] = m
        for i in range(n - 2, -1, -1):
            m ^= m << (1 << i)
            masks[i] = m
    return masks


def layer_masks(n: int) -> list[int]:
    """L_0 .. L_n: L_k marks the cells whose mask has k elements."""
    layers = [1]
    for j in range(n):
        shift = 1 << j
        layers = [lo | (hi << shift) for lo, hi in zip(layers + [0], [0] + layers)]
    return layers


def loopc(s: int, i: int, m: int) -> int:
    """Loop complementation on i: X + i toggles when X (without i) is a member."""
    return s ^ ((s & m) << (1 << i))


def superset_zeta(s: int, i: int, m: int) -> int:
    """Dual of loopc on i: X (without i) toggles when X + i is a member."""
    return s ^ ((s >> (1 << i)) & m)


def full_flip(family: Iterable[int], n: int, kind: CubeFlip) -> tuple[int, ...]:
    """Whole-ground loopc (subset parities) or dual pivot (superset parities)."""
    s = indicator(family, n)
    step = loopc if kind == "loopc" else superset_zeta
    for i, m in enumerate(element_masks(n)):
        s = step(s, i, m)
    return members(s)


def distance_counts(ball: int, masks: list[int], region: int) -> list[int]:
    """counts[k]: cells of region at distance exactly k from the family ball.

    The ball of radius k + 1 is the radius-k ball together with its pivot
    on every element.
    """
    if not ball:
        raise ValueError("an empty family has no distances")
    target = region.bit_count()
    seen = (ball & region).bit_count()
    counts = [seen]
    while seen < target:
        grown = ball
        for i, m in enumerate(masks):
            shift = 1 << i
            grown |= ((ball & m) << shift) | ((ball >> shift) & m)
        ball = grown
        now = (ball & region).bit_count()
        counts.append(now - seen)
        seen = now
    return counts


def rank_layers(bases: Iterable[int], n: int) -> list[int]:
    """E_0 .. E_r: E_k marks the subsets X with max |B & X| over the bases equal to k.

    Down-closing the bases gives the independent sets.  Up-closing the
    independent k-sets gives U_k, the subsets of rank at least k, and
    E_k = U_k & ~U_{k+1}.  The bases must be a nonempty equicardinal family.
    """
    masks = element_masks(n)
    independent = indicator(bases, n)
    for i, m in enumerate(masks):
        independent |= (independent >> (1 << i)) & m
    ups = []
    for layer in layer_masks(n):
        u = independent & layer
        if not u:
            break
        for i, m in enumerate(masks):
            u |= (u & m) << (1 << i)
        ups.append(u)
    return [u & ~above for u, above in zip(ups, ups[1:] + [0])]


def rank_size_counts(bases: Iterable[int], n: int) -> list[list[int]]:
    """counts[k][j]: j-element subsets of rank k (see rank_layers)."""
    sizes = layer_masks(n)
    return [[(e & s).bit_count() for s in sizes] for e in rank_layers(bases, n)]


def is_basis_family(bases: Iterable[int], n: int) -> bool:
    """Whether a nonempty equicardinal family is the basis family of a matroid.

    It is iff its rank is locally submodular (Oxley, Matroid Theory,
    ch. 1): no X and a, b outside X have X, X+a and X+b of rank k but
    X+a+b of rank k+1.  The top layer has no rank above it to reach.
    """
    masks = element_masks(n)
    layers = rank_layers(bases, n)
    for e in layers[:-1]:
        # flat[a]: cells X without a where X and X+a both have rank k
        flat = [e & m & (e >> (1 << a)) for a, m in enumerate(masks)]
        for a, b in combinations(range(n), 2):
            if flat[a] & flat[b] & ~(e >> ((1 << a) | (1 << b))):
                return False
    return True


def _gray_walk(n: int) -> Iterator[tuple[int, bool]]:
    """(element, entering) per step of the reflected Gray code over subsets Z.

    The walk starts after the empty set and visits every other subset once.
    """
    z = 0
    for g in range(1, 1 << n):
        i = (g & -g).bit_length() - 1
        z ^= 1 << i
        yield i, bool(z >> i & 1)


def _add(counts: list[int], more: list[int]) -> None:
    for k, c in enumerate(more):
        counts[k] += c


def q1_counts(family: Iterable[int], n: int) -> list[int]:
    """Histogram of d(X, F) over all subsets X."""
    return distance_counts(indicator(family, n), element_masks(n), (1 << (1 << n)) - 1)


def q2_counts(family: Iterable[int], n: int) -> list[int]:
    """Histogram of d(V, loopc_Z F) over all Z: n minus the top layer met.

    Loop complementation on one element e keeps the members without e and
    toggles X + e for each member X without e.  No member grows by more
    than one, and a top member Y + e that goes leaves Y behind, so the top
    layer moves by at most one per step and is tracked by a pointer.
    """
    masks = element_masks(n)
    layers = layer_masks(n)
    s = indicator(family, n)
    top = max(k for k, layer in enumerate(layers) if s & layer)
    counts = [0] * (n + 1)
    counts[n - top] += 1
    for i, _ in _gray_walk(n):
        s = loopc(s, i, masks[i])
        if top < n and s & layers[top + 1]:
            top += 1
        elif not s & layers[top]:
            top -= 1
        counts[n - top] += 1
    return counts


def q3_counts(family: Iterable[int], n: int) -> list[int]:
    """Histogram of d(Z, loopc_Z F) over all Z.

    T_Z = pivot_Z(loopc_Z F) has d(Z, loopc_Z F) as its lowest layer.  When
    e enters Z, T becomes P_e L_e T; when e leaves, L_e P_e T.  On the
    halves of T without and with e, (lo, hi), L_e is (lo, hi ^ lo) and P_e
    a swap, so entering gives (lo ^ hi, lo) and leaving (hi, lo ^ hi).
    L_e keeps the bottom layer: a member X + e that goes leaves X, which is
    smaller, and the members it adds are larger than the ones they come
    from.  P_e moves each member's size by one.  So the bottom layer moves
    by at most one per step and is tracked by a pointer.
    """
    masks = element_masks(n)
    layers = layer_masks(n)
    t = indicator(family, n)
    bottom = next(k for k, layer in enumerate(layers) if t & layer)
    counts = [0] * (n + 1)
    counts[bottom] += 1
    for i, entering in _gray_walk(n):
        m = masks[i]
        shift = 1 << i
        lo, hi = t & m, (t >> shift) & m
        t = (lo ^ hi) | (lo << shift) if entering else hi | ((lo ^ hi) << shift)
        if bottom and t & layers[bottom - 1]:
            bottom -= 1
        elif not t & layers[bottom]:
            bottom += 1
        counts[bottom] += 1
    return counts


def Q1_counts(family: Iterable[int], n: int) -> list[int]:
    """Histogram of d(X, loopc_Z F) over all pairs Z inside X.

    The region of the supersets of Z loses the cells without e when e
    enters Z, and gains their pivot on e back when e leaves.
    """
    masks = element_masks(n)
    s = indicator(family, n)
    region = (1 << (1 << n)) - 1
    counts = [0] * (n + 1)
    _add(counts, distance_counts(s, masks, region))
    for i, entering in _gray_walk(n):
        m = masks[i]
        s = loopc(s, i, m)
        region = region & ~m if entering else region | ((region >> (1 << i)) & m)
        _add(counts, distance_counts(s, masks, region))
    return counts
