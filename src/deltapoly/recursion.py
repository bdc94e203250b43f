r"""Recursive computation of q1, q2, q3, Q1 with explicit computation trees.

Each step removes one ground element e and sums over some of its three
minors: the deletion F\e and the pivot-deletion F*e\e, which
``SetSystem.minors`` returns, and the dual-pivot-deletion F~*e\e, their
symmetric difference.  One table says which: q1 sums the first two, q2
the last two, q3 the dual-pivot-deletion and the deletion, Q1 all three.
The element is the smallest-index one at which those minors are all
proper (divisibility for q1, divisibility of the transformed system for
q2/q3, strong divisibility for Q1); a node with no such element is a
leaf with a closed-form value.  Under the hypothesis that
``recursion_hypothesis`` states, each recursion agrees with the summation
at any such element.  All of them, and Tutte's deletion/contraction in
``matroids.tutte_dc``, run on one driver that takes the branch rule and
expands each distinct minor once.

On a graph the same recursions run on the adjacency matrix in place of
its support system (``graph_recursive``): the minors become the deleted
matrix, the Schur complement at a looped vertex and the pivot transform
on an edge, each with the vertex deleted.  q2, which reads only the
off-diagonal part, sums Schur complements at a vertex and at an edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Hashable, Literal, Optional

from .delta import is_delta_matroid, is_vf_closed
from .errors import PreconditionError, size_guard
from .graphs import Graph
from .interlace import SparsePoly as Poly, UniPoly, Which, poly_direct
from .setsystem import Mask, SetSystem, full_flip_explicit

CHECK_LIMIT = 8  # checked=True verifies hypotheses up to this ground size


@dataclass(frozen=True)
class RecursionTrace:
    """One node of a computation tree.

    Leaves have no branches and carry a closed-form value; an internal
    node's value is the sum of its children's values, times the factor
    when a multiplicative shortcut was taken.
    """

    system: SetSystem
    value: Poly
    element: Optional[str] = None
    branches: tuple[tuple[str, "RecursionTrace"], ...] = ()
    factor: Optional[Poly] = None

    @property
    def is_leaf(self) -> bool:
        return not self.branches

    def leaf_values(self) -> list[Poly]:
        if self.is_leaf:
            return [self.value]
        out: list[Poly] = []
        for _, child in self.branches:
            out.extend(child.leaf_values())
        return out

    def branch_labels(self) -> list[str]:
        return [label for label, _ in self.branches]

    def render(self, indent: str = "") -> str:
        head = f"{indent}{self.system} = {self.value.text()}"
        if self.factor is not None:
            head += f"  [factor {self.factor.text()}]"
        lines = [head]
        for label, child in self.branches:
            lines.append(f"{indent}  {label}:")
            lines.append(child.render(indent + "    "))
        return "\n".join(lines)


_FLIPPED = {"q2": "dualpivot", "q3": "loopc"}  # q2 and q3 need a delta-matroid after this whole-ground flip
_NEEDS = {  # the message of a failed hypothesis check
    "q1": "a delta-matroid input",
    "q2": "the dualpivot-transformed system to be a delta-matroid",
    "q3": "the loopc-transformed system to be a delta-matroid",
    "Q1": "a vf-closed delta-matroid input",
}


def recursion_hypothesis(system: SetSystem, which: Which) -> bool:
    """Whether the system meets the hypothesis under which the recursion for which holds.

    q1 needs a delta-matroid; q2 and q3 need one after the whole-ground
    dual pivot or loop complementation; Q1 needs a vf-closed
    delta-matroid (arXiv 1010.4678).  Only the cell limit bounds the check.
    """
    system.require_proper()
    if which == "q1":
        return is_delta_matroid(system)
    if which in _FLIPPED:
        return is_delta_matroid(full_flip_explicit(system, _FLIPPED[which]))
    if which == "Q1":
        return is_vf_closed(system)
    raise ValueError(f"unknown polynomial name {which!r}")


# A branch rule maps a state to None (a leaf) or to the branching element's
# label, an optional factor and the (operation label, child state) branches.
Branch = tuple[str, Optional[Any], tuple[tuple[str, Hashable], ...]]
Rule = Callable[[Hashable], Optional[Branch]]


def _node(system: SetSystem, element: str, branches, factor: Optional[Poly] = None) -> RecursionTrace:
    """Internal node whose value is the sum of its children, times the factor."""
    values = [child.value for _, child in branches]
    value = sum(values[1:], values[0])
    if factor is not None:
        value = factor * value
    return RecursionTrace(system, value, element, tuple(branches), factor)


def _recurse(root: Hashable, rule: Rule, leaf: Callable[[Hashable], Any], trace: bool = False):
    """Expand the rule from root down to leaves valued leaf(state): the root's
    value, or with trace its ``RecursionTrace``.

    A state is its own memo key: a set system (its labels and family) or a
    matrix's tuple of rows.  Every distinct state is expanded once; with
    trace a repeated one shares the subtree of its first expansion, which
    the frozen trace makes safe.  Without it the memo holds values only,
    and equal values share one object, which on graphs keeps one value in
    about ten.  A value is anything that adds and multiplies by the rule's
    factors: a polynomial, or in ``graph_recursive`` the integer that packs
    one.  A trace needs polynomials.
    """
    memo: dict = {}
    shared: dict = {}  # one object per distinct value

    def go(state):
        got = memo.get(state)
        if got is None:
            branch = rule(state)
            if branch is None:
                got = leaf(state)
                if trace:
                    got = RecursionTrace(state, got)
            else:
                element, factor, parts = branch
                children = [(op, go(child)) for op, child in parts]
                if trace:
                    got = _node(state, element, children, factor)
                else:
                    got = sum([value for _, value in children[1:]], children[0][1])
                    if factor is not None:
                        got = factor * got
                    got = shared.setdefault(got, got)
            memo[state] = got
        return got

    try:
        return go(root)
    finally:
        if not trace:
            # go's closure is a reference cycle, and no caller holds the memo's
            # states and values: free them now, not at a later collection
            memo.clear()
            shared.clear()


# Operation labels of the deletion, pivot-deletion and dual-pivot-deletion
# minors, and which of them each polynomial sums; an element branches when
# those are all proper.
_OPS = ("\\{0}", "*{0}\\{0}", "~*{0}\\{0}")
_BRANCHES = {"q1": (0, 1), "q2": (1, 2), "q3": (2, 0), "Q1": (0, 1, 2)}


def _minor_rule(which: Which) -> Rule:
    """Branch on the first element whose minors listed for which are all proper.

    The dual-pivot-deletion minor, the symmetric difference of the other
    two, is proper iff they differ; it is built only at the element
    branched on.
    """
    picks = _BRANCHES[which]

    def rule(m: SetSystem) -> Optional[Branch]:
        for i in range(m.ground.n):
            deletion, pivot_deletion = m.minors(1 << i)
            proper = (deletion.family, pivot_deletion.family, deletion.family != pivot_deletion.family)
            if all(proper[k] for k in picks):
                minors = (deletion, pivot_deletion)
                if 2 in picks:
                    third = sorted(set(deletion.family).symmetric_difference(pivot_deletion.family))
                    minors += (SetSystem(deletion.ground, tuple(third)),)
                label = m.ground.labels[i]
                return label, None, tuple((_OPS[k].format(label), minors[k]) for k in picks)
        return None

    return rule


def _label(m: SetSystem, bit: Mask) -> str:
    return m.ground.labels[bit.bit_length() - 1]


def _check(system: SetSystem, which: Which, checked: bool, message: str) -> None:
    """Raise PreconditionError(message) when checked, the ground set is at most
    ``CHECK_LIMIT`` elements and the hypothesis of which fails."""
    if checked and system.ground.n <= CHECK_LIMIT and not recursion_hypothesis(system, which):
        raise PreconditionError(message)


def _run(system: SetSystem, which: Which, checked: bool, rule: Rule) -> tuple[UniPoly, RecursionTrace]:
    """Check the hypothesis of which at the root, then expand the rule down to
    (y+1)^n leaves, or (y+2)^n for Q1."""
    system.require_proper()
    _check(system, which, checked, f"{which} recursion needs {_NEEDS[which]}")
    shift = 2 if which == "Q1" else 1
    trace = _recurse(system, rule, lambda m: UniPoly.binomial_power(shift, m.ground.n), trace=True)
    return trace.value, trace


def q1_recursive(
    system: SetSystem,
    checked: bool = True,
    use_multiplicative: bool = False,
) -> tuple[UniPoly, RecursionTrace]:
    """Two-way deletion / pivot-deletion recursion for q1.

    It agrees with the summation formula on a delta-matroid (see
    ``recursion_hypothesis``); checked verifies that up to ``CHECK_LIMIT``
    elements.  With use_multiplicative the branching element is the first
    one and loops and coloops take the factor y + 1.
    """

    def multiplicative(m: SetSystem) -> Optional[Branch]:
        if m.ground.n == 0 or len(m.family) == 1:
            return None
        label = m.ground.labels[0]
        case, factor, parts = q1_multiplicative_step(m, 1)
        deletion, pivot_deletion = (op.format(label) for op in _OPS[:2])
        ops = {"loop": (deletion,), "coloop": (pivot_deletion,), "additive": (deletion, pivot_deletion)}[case]
        return label, factor, tuple(zip(ops, parts))

    return _run(system, "q1", checked, multiplicative if use_multiplicative else _minor_rule("q1"))


def q1_multiplicative_step(system: SetSystem, element) -> tuple[str, Optional[UniPoly], tuple[SetSystem, ...]]:
    """Classify one q1 step at an element into loop, coloop, or additive.

    loop: the pivot-deletion minor is improper (the element occurs in no
    member), and q1 gains a factor y+1 on the deletion minor.  coloop: the
    deletion minor is improper (the element occurs in every member),
    symmetrically.  Otherwise both minors are proper and the step is the
    two-way sum.
    """
    system.require_proper()
    deletion, pivot_deletion = system.minors(element)
    factor = UniPoly.from_coeffs([1, 1])
    if not pivot_deletion.family:
        return "loop", factor, (deletion,)
    if not deletion.family:
        return "coloop", factor, (pivot_deletion,)
    return "additive", None, (deletion, pivot_deletion)


def q2_q3_recursive(
    system: SetSystem,
    which: Literal["q2", "q3"],
    checked: bool = True,
) -> tuple[UniPoly, RecursionTrace]:
    """Two-way recursion for q2 (pivot/dual-pivot branches) or q3 (dual-pivot/deletion).

    An element branches when both its minors are proper, which is
    divisibility of the transformed system by it.  The hypothesis (see
    ``recursion_hypothesis``) is verified at the root when checked, up to
    ``CHECK_LIMIT`` elements; the recursion preserves it.
    """
    if which not in _FLIPPED:
        raise ValueError("which must be q2 or q3")
    return _run(system, which, checked, _minor_rule(which))


def Q1_recursive(system: SetSystem, checked: bool = True) -> tuple[UniPoly, RecursionTrace]:
    """Three-way recursion for Q1 on vf-closed delta-matroids.

    vf-closure is required for correctness and is verified at the root
    when checked, up to ``CHECK_LIMIT`` elements; unchecked, the result can
    disagree with the summation formula (see recursion_consistency).
    """
    return _run(system, "Q1", checked, _minor_rule("Q1"))


def recursive(system: SetSystem, which: Which, checked: bool = True) -> tuple[UniPoly, RecursionTrace]:
    """The recursion for which: ``q1_recursive``, ``q2_q3_recursive`` or ``Q1_recursive``."""
    if which == "q1":
        return q1_recursive(system, checked)
    if which in _FLIPPED:
        return q2_q3_recursive(system, which, checked)
    if which == "Q1":
        return Q1_recursive(system, checked)
    raise ValueError(f"unknown polynomial name {which!r}")


def _schur(deletion: list[int], nbrs: Mask) -> tuple[int, ...]:
    """G*a-a: the Schur complement at a looped vertex a, given G-a and a's neighbours.

    Entry (i, j) gains A_ia A_aj, so each neighbour's row is toggled by
    the neighbourhood, its diagonal included.
    """
    r = nbrs
    while r:
        low = r & -r
        r ^= low
        deletion[low.bit_length() - 1] ^= nbrs
    return tuple(deletion)


def _edge_pivot(deletion: list[int], nbrs: Mask) -> tuple[int, ...]:
    """G*ab-a: the pivot transform on the edge ab, a unlooped and b its first
    neighbour, with a deleted; given G-a and a's neighbours.

    With β = A_bb the block A[{a,b}] = [[0,1],[1,β]] has inverse
    [[β,1],[1,0]], and the transform (Tsatsomeros 2000, see ``gf2.ppt``)
    restricted off a is: row b is a's neighbourhood N_a with b's diagonal
    0; for i, j outside {a, b}, entry (i, j) gains β A_ia A_aj + A_ia A_bj
    + A_ib A_aj, and entry (i, b) becomes A_ia.  Only the rows of N_a and
    N_b change.
    """
    bit = nbrs & -nbrs
    j = bit.bit_length() - 1
    row_b = deletion[j]
    na = nbrs ^ bit  # N_a without b
    nb = row_b & ~bit  # N_b without b's loop
    gain = nb ^ (na if row_b & bit else 0)  # what a row of N_a gains: A_bj + β A_aj
    r = na | nb
    while r:
        low = r & -r
        r ^= low
        i = low.bit_length() - 1
        row = deletion[i] & ~bit  # entry (i, b) becomes A_ia
        if na & low:
            row ^= gain | bit
        if nb & low:
            row ^= na
        deletion[i] = row
    deletion[j] = na
    return tuple(deletion)


def _matrix_rule(which: Literal["q1", "Q1"], y: int) -> Rule:
    """Branch q1 or Q1 of an adjacency matrix at its first vertex a.

    The state is the tuple of rows; deleting a shifts every row down one
    bit, so states are compact and free of labels.  With F the support
    system, whose members are the index sets of nonsingular principal
    submatrices, ``SetSystem.minors(a)`` gives:

    - F\\a = supp(G-a), the members without a.
    - F*a\\a = {Y : Y+a in F}.  For a looped a, det A[Y+a] = det S[Y] with
      S the Schur complement at a, so F*a\\a = supp(G*a-a).  For an
      unlooped a with a neighbour b, A[{a,b}] is nonsingular and the
      pivot transform B = ppt_ab(A) has supp(B) = F*{a,b}, so
      F*a\\a = supp(B-a)*b.  A pivot leaves q1 and Q1 unchanged, so the
      branch is G*ab-a.
    - F~*a\\a, the symmetric difference of the two, is (F+a)*a\\a, and
      loop complementation at a toggles A_aa.  So it is the second branch
      of G with a's loop toggled: G*ab-a for a looped a, G*a-a for an
      unlooped one.  Neither transform reads A_aa, so Q1 sums G-a, G*a-a
      and G*ab-a whatever a's loop.
    - An isolated a: F*a\\a is empty when a is unlooped, q1's loop step
      (``q1_multiplicative_step``) with the factor y+1 on G-a; it equals
      F\\a when a is looped, a factor 2.  Q1 sums over subsets X and
      diagonal toggles inside X, so each term of G-a comes back three
      times: a left out, a in and looped, and a in and unlooped, which
      adds 1 to the nullity.  That is a factor y+2.

    q1 sums F\\a and F*a\\a and Q1 all three (see ``_BRANCHES``).  At a
    vertex with a neighbour all three are proper, and support systems are
    vf-closed delta-matroids, so both recursions hold there.  q1 is the
    vertex-nullity interlace polynomial of Arratia, Bollobás & Sorkin
    (J. Combin. Theory Ser. B 92, 2004) at y+1, and the matrix form of
    its recursion follows Aigner & van der Holst (Linear Algebra Appl.
    377, 2004).  The factors are values at the variable's value y, as
    ``graph_recursive`` packs them.
    """
    unlooped, looped = (y + 2, y + 2) if which == "Q1" else (y + 1, 2)
    both = which == "Q1"

    def rule(rows: tuple[int, ...]) -> Optional[Branch]:
        if not rows:
            return None
        head = rows[0]
        nbrs = head >> 1
        deletion = [r >> 1 for r in rows[1:]]
        minus_a = ("G-a", tuple(deletion))
        if not nbrs:
            return "a", looped if head & 1 else unlooped, (minus_a,)
        if both:
            schur = ("G*a-a", _schur(deletion[:], nbrs))
            return "a", None, (minus_a, schur, ("G*ab-a", _edge_pivot(deletion, nbrs)))
        if head & 1:
            return "a", None, (minus_a, ("G*a-a", _schur(deletion, nbrs)))
        return "a", None, (minus_a, ("G*ab-a", _edge_pivot(deletion, nbrs)))

    return rule


def _join_off_diagonal(rows: list[int], among: Mask) -> list[int]:
    """Toggle every entry (i, j) with i != j both in among, and return rows."""
    r = among
    while r:
        low = r & -r
        r ^= low
        rows[low.bit_length() - 1] ^= among ^ low
    return rows


def _offdiagonal_minors(deletion: list[int], nbrs: Mask) -> tuple[tuple[int, ...], ...]:
    """q2's three children of a vertex a with neighbours, diagonals cleared;
    given G-a, whose diagonal is clear, and a's neighbours.

    The first is the Schur complement at a on V-a: a row of N_a gains the
    rest of N_a.  With b the first neighbour, the others are the Schur
    complements at {a, b} on V-{a, b} for β = 0 and β = 1: a row of N_a
    gains N_b + β N_a, a row of N_b gains N_a (see ``_q2_rule``), and then
    row and column b go.
    """
    bit = nbrs & -nbrs
    j = bit.bit_length() - 1
    na = nbrs ^ bit
    nb = deletion[j]
    schur = _join_off_diagonal(deletion[:], nbrs)
    pair = deletion
    r = na | nb
    while r:
        low = r & -r
        r ^= low
        i = low.bit_length() - 1
        row = pair[i]
        if na & low:
            row ^= nb
        if nb & low:
            row ^= na
        pair[i] = row & ~low
    del pair[j]
    keep = bit - 1
    pair = [(r & keep) | (r >> 1 & ~keep) for r in pair]  # column b goes
    looped_b = _join_off_diagonal(pair[:], (na & keep) | (na >> 1 & ~keep))
    return tuple(schur), tuple(pair), tuple(looped_b)


def _q2_rule(y: int) -> Rule:
    """Branch q2 of an adjacency matrix at its first vertex a.

    q2 sums y^n(A_D) over the 2^n matrices A_D that are A with its diagonal
    replaced by D: toggling the diagonal by every X, as ``graph_poly`` does,
    reaches each D once.  So q2 reads the off-diagonal part only, and the
    state is the tuple of rows with the diagonal cleared, which merges
    states that differ on the diagonal alone.  Split the sum by D_a; the
    nullity of a matrix equals that of its Schur complement at a
    nonsingular principal block.

    - a isolated: A_D = [D_a] + A_D' as a direct sum, and D_a = 0 adds 1 to
      the nullity.  That is a factor y+1 on G-a.
    - D_a = 1: the Schur complement at a has entry (i, j) equal to
      A_ij + A_ia A_aj.  Its diagonal D_i + A_ia runs over every diagonal
      of V-a as D does, so this half is q2 of its off-diagonal part, the
      off-diagonal part of G*a-a.
    - D_a = 0, b the first neighbour, β = D_b: A[{a,b}] = [[0,1],[1,β]]
      is nonsingular with inverse [[β,1],[1,0]], so the Schur complement
      on V-{a,b} has entry (i, j) equal to A_ij + A_ia A_bj + A_ib A_aj
      + β A_ia A_aj.  Its diagonal D_i + β A_ia again runs over every
      diagonal, so each β gives q2 of that off-diagonal part.

    So a vertex with a neighbour sums three children (``_offdiagonal_minors``)
    on 2^(n-1) + 2^(n-2) + 2^(n-2) diagonals in all.
    """
    isolated = y + 1

    def rule(rows: tuple[int, ...]) -> Optional[Branch]:
        if not rows:
            return None
        nbrs = rows[0] >> 1
        deletion = [r >> 1 for r in rows[1:]]
        if not nbrs:
            return "a", isolated, (("G-a", tuple(deletion)),)
        schur, unlooped_b, looped_b = _offdiagonal_minors(deletion, nbrs)
        return "a", None, (("G*a-a", schur), ("G*ab-ab", unlooped_b), ("G+b*ab-ab", looped_b))

    return rule


def graph_recursive(graph: Graph, which: Which) -> UniPoly:
    """q1, q2, q3 or Q1 of a graph by the recursion on its adjacency matrix.

    q3 is q1 of A+I; q1 and Q1 branch by ``_matrix_rule`` and q2 by
    ``_q2_rule``.  Each distinct matrix is expanded once, and the memo
    holds values only.  A polynomial is carried as one integer, its value
    at y = 2^W with W = 2n + 1, so a node costs a few integer additions:
    every coefficient is nonnegative and at most the polynomial's value at
    y = 1, which on k <= n vertices is 2^k for q1, q2 and q3 and 3^k for
    Q1, below 2^W.  So each coefficient fills its own W-bit slot, and no
    sum or product by an isolated-vertex factor carries from one slot into
    the next.  The root's integer is unpacked once (``UniPoly.from_packed``).

    Each memo node counts as one cell of ``size_guard``, so an unforced
    call stops when the memo outgrows the cell limit.  ``graph_poly`` is
    the nullity-sum oracle.
    """
    if which not in ("q1", "q2", "q3", "Q1"):
        raise ValueError(f"unknown polynomial name {which!r}")
    width = 2 * graph.n + 1
    y = 1 << width
    matrix = graph.matrix
    if which == "q2":
        rows = tuple(r & ~(1 << i) for i, r in enumerate(matrix.rows))
        rule = _q2_rule(y)
    else:
        if which == "q3":
            matrix = matrix.with_toggled_diagonal(matrix.ground.full_mask)
        rows = matrix.rows
        rule = _matrix_rule("Q1" if which == "Q1" else "q1", y)
    what = f"{which} by matrix recursion on {graph.n} vertices, one cell per memo node,"
    nodes = 0

    def counted(rows: tuple[int, ...]) -> Optional[Branch]:
        nonlocal nodes
        nodes += 1
        size_guard(nodes, what)
        return rule(rows)

    return UniPoly.from_packed(_recurse(rows, counted, lambda rows: 1), width)


def q1_normal_step(
    system: SetSystem,
    member,
    element=None,
    checked: bool = True,
) -> tuple[UniPoly, RecursionTrace]:
    """One q1 step that keeps both components normal.

    Requires a normal system, a member X containing the chosen element;
    the components are the deletion and the pivot on all of X followed by
    deletion.  Component values are completed by the plain q1 recursion.
    """
    system.require_proper()
    x = system.ground.coerce(member)
    if x not in system.family:
        raise PreconditionError("the pivot set must be a member of the system")
    if not system.is_normal:
        raise PreconditionError("the normal-step rule needs a normal system")
    if element is None:
        bit = x & -x
    else:
        bit = system.ground.coerce(element)
    if bit.bit_count() != 1 or not bit & x:
        raise PreconditionError("the removed element must lie in the chosen member")
    _check(system, "q1", checked, "the normal-step rule needs a delta-matroid")
    left = system.delete(bit)
    right = system.pivot(x).delete(bit)
    for part in (left, right):
        if not part.is_normal:
            raise PreconditionError("normal-step components must stay normal")
    label = _label(system, bit)
    xs = system.ground.format_subset(x)
    branches = ((f"\\{label}", left), (f"*{xs}\\{label}", right))
    trace = _node(system, label, [(op, q1_recursive(part, checked=False)[1]) for op, part in branches])
    return trace.value, trace


def q2_edge_step(
    system: SetSystem,
    u,
    v,
    checked: bool = True,
) -> tuple[UniPoly, RecursionTrace]:
    """Three-term q2 step for a two-element member whose singletons are absent.

    Under the hypotheses {u, v} in the system and {u}, {v} not in it, q2
    splits into the double pivot, the mixed pivot/dual-pivot, and the
    single dual-pivot components, all normal.
    """
    system.require_proper()
    ub = system.ground.coerce(u)
    vb = system.ground.coerce(v)
    if ub.bit_count() != 1 or vb.bit_count() != 1 or ub == vb:
        raise PreconditionError("the edge step needs two distinct single elements")
    pair = ub | vb
    if pair not in system.family or ub in system.family or vb in system.family:
        raise PreconditionError("edge-step hypothesis: the pair is a member, the singletons are not")
    if not system.is_normal:
        raise PreconditionError("the edge-step rule needs a normal system")
    _check(system, "Q1", checked, "the edge-step rule needs a vf-closed delta-matroid")
    parts = (
        system.pivot(pair).delete(pair),
        system.pivot(ub).dual_pivot(vb).delete(pair),
        system.dual_pivot(ub).delete(ub),
    )
    for part in parts:
        if not part.is_normal:
            raise PreconditionError("edge-step components must stay normal")
    ul = _label(system, ub)
    vl = _label(system, vb)
    labels = (
        f"*{{{ul},{vl}}}\\{{{ul},{vl}}}",
        f"*{ul}~*{vl}\\{{{ul},{vl}}}",
        f"~*{ul}\\{ul}",
    )
    branches = [(op, q2_q3_recursive(part, "q2", checked=False)[1]) for op, part in zip(labels, parts)]
    trace = _node(system, ul, branches)
    return trace.value, trace


@dataclass(frozen=True)
class ConsistencyReport:
    """Recursive-versus-definitional comparison for one polynomial."""

    which: str
    recursive: UniPoly
    direct: UniPoly

    @property
    def equal(self) -> bool:
        return self.recursive == self.direct


def recursion_consistency(system: SetSystem, which: Which) -> ConsistencyReport:
    """Run the recursion without hypothesis checks and compare with the summation.

    A mismatch is the designed diagnostic for inputs that break a
    recursion hypothesis (for example Q1 on a delta-matroid that is not
    vf-closed).
    """
    return ConsistencyReport(which, recursive(system, which, checked=False)[0], poly_direct(system, which))
