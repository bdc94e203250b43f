r"""Recursive computation of q1, q2, q3, Q1 with explicit computation trees.

Each step removes one ground element e and sums over some of its three
minors (``SetSystem.minors``): the deletion F\e, the pivot-deletion
F*e\e and the dual-pivot-deletion F~*e\e.  One table says which: q1
sums the first two, q2 the last two, q3 the dual-pivot-deletion and the
deletion, Q1 all three.  The element is the smallest-index one at which
those minors are all proper (divisibility for q1, divisibility of the
transformed system for q2/q3, strong divisibility for Q1); a node with
no such element is a leaf with a closed-form value.  All of them, and
Tutte's deletion/contraction in ``matroids.tutte_dc``, run on one
driver that takes the branch rule and expands each distinct minor once.
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

CHECK_LIMIT = 8  # hypotheses are verified automatically up to this ground size

Chooser = Literal["min", "max"]
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


def _should_check(system: SetSystem, checked: Optional[bool]) -> bool:
    if checked is None:
        return system.ground.n <= CHECK_LIMIT
    return checked


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


# Operation labels of the minors of SetSystem.minors, in its order, and which
# of them each polynomial sums; an element branches when those are all proper.
_OPS = ("\\{0}", "*{0}\\{0}", "~*{0}\\{0}")
_BRANCHES = {"q1": (0, 1), "q2": (1, 2), "q3": (2, 0), "Q1": (0, 1, 2)}


def _minor_rule(which: Which, chooser: Chooser) -> Rule:
    """Branch on the first (or last) element whose minors listed for which are all proper."""
    picks = _BRANCHES[which]

    def rule(m: SetSystem) -> Optional[Branch]:
        n = m.ground.n
        for i in range(n) if chooser == "min" else reversed(range(n)):
            minors = m.minors(1 << i)
            if all(minors[k].family for k in picks):
                label = m.ground.labels[i]
                return label, None, tuple((_OPS[k].format(label), minors[k]) for k in picks)
        return None

    return rule


def _label(m: SetSystem, bit: Mask) -> str:
    return m.ground.labels[bit.bit_length() - 1]


def q1_recursive(
    system: SetSystem,
    checked: Optional[bool] = None,
    chooser: Chooser = "min",
    use_multiplicative: bool = False,
) -> tuple[UniPoly, RecursionTrace]:
    """Two-way deletion / pivot-deletion recursion for q1.

    The input must be a delta-matroid for the recursion to agree with the
    summation formula; this is verified up to the check limit unless
    overridden.  With use_multiplicative the branching element is the
    first (or last) one and loops and coloops take the factor y + 1.
    """
    system.require_proper()
    if _should_check(system, checked) and not is_delta_matroid(system):
        raise PreconditionError("q1 recursion needs a delta-matroid input")

    def multiplicative(m: SetSystem) -> Optional[Branch]:
        n = m.ground.n
        if n == 0 or len(m.family) == 1:
            return None
        bit = 1 if chooser == "min" else 1 << (n - 1)
        label = _label(m, bit)
        case, factor, parts = q1_multiplicative_step(m, bit)
        deletion, pivot_deletion = (op.format(label) for op in _OPS[:2])
        ops = {"loop": (deletion,), "coloop": (pivot_deletion,), "additive": (deletion, pivot_deletion)}[case]
        return label, factor, tuple(zip(ops, parts))

    rule = multiplicative if use_multiplicative else _minor_rule("q1", chooser)
    return _recurse(system, rule, partial(UniPoly.binomial_power, 1))


def q1_multiplicative_step(system: SetSystem, element) -> tuple[str, Optional[UniPoly], tuple[SetSystem, ...]]:
    """Classify one q1 step at an element into loop, coloop, or additive.

    loop: the pivot-deletion minor is improper (the element occurs in no
    member), and q1 gains a factor y+1 on the deletion minor.  coloop: the
    deletion minor is improper (the element occurs in every member),
    symmetrically.  Otherwise both minors are proper and the step is the
    two-way sum.
    """
    system.require_proper()
    deletion, pivot_deletion, _ = system.minors(element)
    factor = UniPoly.from_coeffs([1, 1])
    if not pivot_deletion.family:
        return "loop", factor, (deletion,)
    if not deletion.family:
        return "coloop", factor, (pivot_deletion,)
    return "additive", None, (deletion, pivot_deletion)


def q2_q3_recursive(
    system: SetSystem,
    which: Literal["q2", "q3"],
    checked: Optional[bool] = None,
    chooser: Chooser = "min",
) -> tuple[UniPoly, RecursionTrace]:
    """Two-way recursion for q2 (pivot/dual-pivot branches) or q3 (dual-pivot/deletion).

    An element branches when both its minors are proper, which is
    divisibility of the transformed system by it.  The delta-matroid
    hypothesis on the transformed system is verified at the root when
    checking is on; the recursion preserves it.
    """
    system.require_proper()
    if which not in ("q2", "q3"):
        raise ValueError("which must be q2 or q3")
    if _should_check(system, checked):
        kind = "dualpivot" if which == "q2" else "loopc"
        transformed = full_flip_explicit(system, kind)
        if not is_delta_matroid(transformed):
            raise PreconditionError(
                f"{which} recursion needs the {kind}-transformed system to be a delta-matroid"
            )
    return _recurse(system, _minor_rule(which, chooser), partial(UniPoly.binomial_power, 1))


def Q1_recursive(
    system: SetSystem,
    checked: Optional[bool] = None,
    chooser: Chooser = "min",
) -> tuple[UniPoly, RecursionTrace]:
    """Three-way recursion for Q1 on vf-closed delta-matroids.

    vf-closure is required for correctness and is verified at the root
    when checking is on; with checking off the result can disagree with
    the summation formula (see recursion_consistency).
    """
    system.require_proper()
    if _should_check(system, checked) and not is_vf_closed(system):
        raise PreconditionError("Q1 recursion needs a vf-closed delta-matroid input")
    return _recurse(system, _minor_rule("Q1", chooser), partial(UniPoly.binomial_power, 2))


def q1_normal_step(
    system: SetSystem,
    member,
    element=None,
    checked: Optional[bool] = None,
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
    if _should_check(system, checked):
        if not is_delta_matroid(system):
            raise PreconditionError("the normal-step rule needs a delta-matroid")
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
    checked: Optional[bool] = None,
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
    if _should_check(system, checked) and not is_vf_closed(system):
        raise PreconditionError("the edge-step rule needs a vf-closed delta-matroid")
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
    if which == "q1":
        rec, _ = q1_recursive(system, checked=False)
    elif which in ("q2", "q3"):
        rec, _ = q2_q3_recursive(system, which, checked=False)
    elif which == "Q1":
        rec, _ = Q1_recursive(system, checked=False)
    else:
        raise ValueError(f"unknown polynomial name {which!r}")
    return ConsistencyReport(which, rec, poly_direct(system, which))
