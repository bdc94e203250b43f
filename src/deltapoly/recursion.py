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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Callable, Literal, Optional, Union

from .delta import is_delta_matroid, is_vf_closed
from .errors import PreconditionError
from .interlace import UniPoly, Which, poly_direct
from .setsystem import Mask, SetSystem, full_flip_explicit

if TYPE_CHECKING:
    from .matroids import BiPoly

CHECK_LIMIT = 8  # checked=True verifies hypotheses up to this ground size

Poly = Union[UniPoly, "BiPoly"]  # BiPoly only in Tutte's deletion/contraction


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


# A branch rule maps a system to None (a leaf) or to the branching element's
# label, an optional factor and the (operation label, minor) branches.
Branch = tuple[str, Optional[Poly], tuple[tuple[str, SetSystem], ...]]
Rule = Callable[[SetSystem], Optional[Branch]]


def _node(system: SetSystem, element: str, branches, factor: Optional[Poly] = None) -> RecursionTrace:
    """Internal node whose value is the sum of its children, times the factor."""
    values = [child.value for _, child in branches]
    value = sum(values[1:], values[0])
    if factor is not None:
        value = factor * value
    return RecursionTrace(system, value, element, tuple(branches), factor)


def _recurse(system: SetSystem, rule: Rule, leaf: Callable[[int], Poly]) -> tuple[Poly, RecursionTrace]:
    """Expand the rule down to leaves valued leaf(n) on n ground elements.

    Every minor is expanded once: a repeated minor shares the subtree of
    its first expansion, which the frozen trace makes safe.
    """
    memo: dict = {}

    def go(m: SetSystem) -> RecursionTrace:
        key = (m.ground.labels, m.family)
        trace = memo.get(key)
        if trace is None:
            branch = rule(m)
            if branch is None:
                trace = RecursionTrace(m, leaf(m.ground.n))
            else:
                element, factor, parts = branch
                trace = _node(m, element, [(op, go(child)) for op, child in parts], factor)
            memo[key] = trace
        return trace

    trace = go(system)
    return trace.value, trace


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
    return _recurse(system, rule, partial(UniPoly.binomial_power, 2 if which == "Q1" else 1))


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
