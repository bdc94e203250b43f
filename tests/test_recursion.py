"""Recursion engine: agreement with the summations, traces, step rules."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoly import (
    GroundSet,
    PreconditionError,
    Q1_recursive,
    SetSystem,
    UniPoly,
    full_flip_explicit,
    graph_to_system,
    is_delta_matroid,
    poly_direct,
    q1_multiplicative_step,
    q1_normal_step,
    q1_recursive,
    q2_edge_step,
    q2_q3_recursive,
    recursion_consistency,
    recursion_hypothesis,
    recursive,
)
from deltapoly.recursion import CHECK_LIMIT
from support import M0, random_graphs


def check_trace(trace):
    if trace.is_leaf:
        return True
    total = UniPoly.zero()
    for _, child in trace.branches:
        if not check_trace(child):
            return False
        total = total + child.value
    if trace.factor is not None:
        total = trace.factor * total
    return total == trace.value


def test_q1_recursive_golden_trace():
    value, trace = q1_recursive(M0)
    assert value.coeff_list() == [5, 3]
    assert trace.branch_labels() == ["\\p", "*p\\p"]
    leaves = sorted(p.coeff_list() for p in trace.leaf_values())
    assert leaves == [[1], [1], [1, 1], [1, 1], [1, 1]]
    assert check_trace(trace)
    children = dict(trace.branches)
    assert children["\\p"].system == SetSystem.from_sets(["q", "r"], [[], ["q", "r"], ["r"]])
    assert children["*p\\p"].system == SetSystem.from_sets(["q", "r"], [[], ["q"]])


def test_q1_base_cases():
    value, trace = q1_recursive(SetSystem.from_sets(["a", "b"], [["a"]]))
    assert value == UniPoly.binomial_power(1, 2)
    assert trace.is_leaf
    # a node is a leaf exactly when the system has one member
    def leaves_have_one_member(tr):
        if tr.is_leaf:
            return len(tr.system) == 1
        return all(leaves_have_one_member(child) for _, child in tr.branches)

    _, tr = q1_recursive(M0)
    assert leaves_have_one_member(tr)


def test_q1_rejects_non_delta_matroid():
    bad = SetSystem.from_sets(["a", "b", "c"], [[], ["a", "b", "c"]])
    with pytest.raises(PreconditionError):
        q1_recursive(bad)
    # unchecked mode runs anyway
    q1_recursive(bad, checked=False)


def test_q1_matroid_example():
    u12 = SetSystem.from_sets(["a", "b"], [["a"], ["b"]])
    value, _ = q1_recursive(u12)
    assert value.coeff_list() == [2, 2]


def test_q1_multiplicative_step_cases():
    case, factor, comps = q1_multiplicative_step(SetSystem.from_sets(["a"], [["a"]]), "a")
    assert case == "coloop" and factor.coeff_list() == [1, 1]
    case, factor, comps = q1_multiplicative_step(SetSystem.from_sets(["a"], [[]]), "a")
    assert case == "loop" and factor.coeff_list() == [1, 1]
    case, factor, comps = q1_multiplicative_step(M0, "p")
    assert case == "additive" and factor is None and len(comps) == 2


def test_q1_variants_agree(delta_corpus):
    for system in delta_corpus[:60]:
        direct = poly_direct(system, "q1")
        plain, trace = q1_recursive(system, checked=False)
        fast, trace2 = q1_recursive(system, checked=False, use_multiplicative=True)
        assert plain == fast == direct
        assert check_trace(trace)
        assert check_trace(trace2)


def test_q2_q3_recursive_golden():
    v2, t2 = q2_q3_recursive(M0, "q2")
    assert v2.coeff_list() == [3, 4, 1]
    v3, t3 = q2_q3_recursive(M0, "q3")
    assert v3.coeff_list() == [6, 2]
    assert check_trace(t2) and check_trace(t3)


def test_q2_q3_base_case():
    # dual pivot of the full ground set of a single-member system stays single
    single = SetSystem.from_sets(["a", "b"], [["a"]])
    value, trace = q2_q3_recursive(single, "q3", checked=False)
    assert trace.is_leaf or value == poly_direct(single, "q3")
    assert value == poly_direct(single, "q3")


def test_q2_q3_recursive_on_hypothesis_instances(delta_corpus, vf_corpus):
    tested = 0
    for system in delta_corpus[:80]:
        for which, kind in (("q2", "dualpivot"), ("q3", "loopc")):
            if is_delta_matroid(full_flip_explicit(system, kind)):
                value, trace = q2_q3_recursive(system, which)
                assert value == poly_direct(system, which)
                assert check_trace(trace)
                tested += 1
    assert tested > 20
    for system in vf_corpus[:40]:
        for which in ("q2", "q3"):
            value, _ = q2_q3_recursive(system, which, checked=False)
            assert value == poly_direct(system, which)


def test_Q1_recursive_golden_trace():
    value, trace = Q1_recursive(M0)
    assert value.coeff_list() == [16, 10, 1]
    assert trace.branch_labels() == ["\\p", "*p\\p", "~*p\\p"]
    from collections import Counter

    leaves = Counter(tuple(p.coeff_list()) for p in trace.leaf_values())
    assert leaves == Counter({(2, 1): 6, (4, 4, 1): 1})
    assert check_trace(trace)
    children = dict(trace.branches)
    assert children["\\p"].system == SetSystem.from_sets(["q", "r"], [[], ["q", "r"], ["r"]])
    assert children["*p\\p"].system == SetSystem.from_sets(["q", "r"], [[], ["q"]])
    assert children["~*p\\p"].system == SetSystem.from_sets(["q", "r"], [["q"], ["r"], ["q", "r"]])


def test_Q1_on_vf_closed_corpus(vf_corpus):
    for system in vf_corpus[:40]:
        value, _ = Q1_recursive(system, checked=False)
        assert value == poly_direct(system, "Q1")


def test_Q1_counterexample_diagnostic():
    labels = ["1", "2", "3"]
    cex = SetSystem.from_sets(
        labels, [list(c) for k in range(1, 4) for c in combinations(labels, k)]
    )
    with pytest.raises(PreconditionError):
        Q1_recursive(cex)
    report = recursion_consistency(cex, "Q1")
    assert not report.equal
    assert report.direct.coeff_list() == [14, 13]
    assert report.recursive.coeff_list() == [14, 11, 2]


def test_Q1_fixture_nine_copies():
    labels = ["q", "r", "s"]
    fix = SetSystem.from_sets(
        labels, [list(c) for k in (1, 2) for c in combinations(labels, k)]
    )
    value, _ = Q1_recursive(fix)
    assert value.coeff_list() == [18, 9]


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_order_independence(delta_corpus, vf_corpus, data):
    """Under its hypothesis a recursion's value does not depend on which element it removes first."""

    def permuted(corpus):
        system = data.draw(st.sampled_from(corpus))
        order = data.draw(st.permutations(system.ground.labels))
        return system, SetSystem.from_sets(order, map(system.ground.labels_of, system.family))

    system, shuffled = permuted(delta_corpus)
    assert q1_recursive(shuffled)[0] == poly_direct(system, "q1")
    for which in ("q2", "q3"):
        if recursion_hypothesis(system, which):
            assert q2_q3_recursive(shuffled, which)[0] == poly_direct(system, which)
    system, shuffled = permuted(vf_corpus)
    for which in ("q2", "q3", "Q1"):
        assert recursive(shuffled, which)[0] == poly_direct(system, which)


@st.composite
def small_proper_systems(draw):
    n = draw(st.integers(1, 4))
    members = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=8, unique=True))
    return SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(members))


@given(small_proper_systems(), st.sampled_from(["q1", "q2", "q3", "Q1"]))
@settings(max_examples=150, deadline=None)
def test_checked_raises_exactly_off_hypothesis(system, which):
    if recursion_hypothesis(system, which):
        recursive(system, which)
    else:
        with pytest.raises(PreconditionError):
            recursive(system, which)
    recursive(system, which, checked=False)


def test_checked_stops_at_the_check_limit():
    n = CHECK_LIMIT + 1
    ends = SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), (0, (1 << n) - 1))
    assert not recursion_hypothesis(ends, "q1")
    value, _ = q1_recursive(ends)  # no check above the limit, so no PreconditionError
    assert value != poly_direct(ends, "q1")  # and off its hypothesis the recursion is wrong


def test_q1_normal_step():
    value, trace = q1_normal_step(M0, ["p"])
    assert value == poly_direct(M0, "q1")
    assert trace.branch_labels() == ["\\p", "*{p}\\p"]
    # a larger member and an inner element
    value, _ = q1_normal_step(M0, ["q", "r"], element="r")
    assert value == poly_direct(M0, "q1")
    with pytest.raises(PreconditionError):
        q1_normal_step(M0, ["q"])  # {q} is not a member
    shifted = M0.pivot("q")  # not normal: {q} is not a member of M0
    assert not shifted.is_normal
    with pytest.raises(PreconditionError):
        q1_normal_step(shifted, ["p"])


def test_q1_normal_step_components_contain_empty(vf_corpus):
    rng = random.Random(40)
    for system in vf_corpus[:40]:
        if not system.is_normal:
            continue
        members = [m for m in system.family if m]
        if not members:
            continue
        x = rng.choice(members)
        value, trace = q1_normal_step(system, x)
        assert value == poly_direct(system, "q1")
        for _, child in trace.branches:
            assert child.system.is_normal


def test_q2_edge_step_on_path():
    path = SetSystem.from_sets(["1", "2", "3"], [[], ["1", "3"], ["2", "3"]])
    value, trace = q2_edge_step(path, "1", "3")
    assert value == poly_direct(path, "q2")
    for _, child in trace.branches:
        assert child.system.is_normal
    with pytest.raises(PreconditionError):
        q2_edge_step(M0, "p", "q")  # {p} is a member, hypothesis fails


def test_q2_edge_step_on_graph_systems():
    for graph in random_graphs(seed=50, count=30, n_max=5):
        system = graph_to_system(graph)
        found = None
        n = system.ground.n
        for i in range(n):
            for j in range(i + 1, n):
                pair = (1 << i) | (1 << j)
                if pair in system.family and (1 << i) not in system.family and (1 << j) not in system.family:
                    found = (1 << i, 1 << j)
                    break
            if found:
                break
        if not found:
            continue
        value, _ = q2_edge_step(system, found[0], found[1], checked=False)
        assert value == poly_direct(system, "q2")
