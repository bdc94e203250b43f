"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line on success (run with -s to see them); the
stated time budgets are asserted.  Criterion 7's modular family is split
out: its exact-evaluation identities pass, while the strong per-even-p
claims (odd quotient, full mod-p congruence) are refuted by small
graph-derived instances, so that test documents the failure precisely
and is expected to stay red.
"""

import random
import time
from collections import Counter
from itertools import combinations

import pytest

from deltapoly import (
    Q1_recursive,
    SetSystem,
    bicycle_dimension,
    distance,
    dual_pivot_min_distance,
    full_flip_explicit,
    fundamental_graph,
    graph_poly,
    graph_to_system,
    is_delta_matroid,
    is_even,
    is_vf_closed,
    multivariate_Q,
    poly_direct,
    ppt,
    q1_recursive,
    q2_q3_recursive,
    recursion_consistency,
    support_set_system,
    system_to_graph,
    tutte,
    tutte_dc,
    tutte_diagonal_check,
    uniform_matroid,
)
from deltapoly.gf2 import det_nullity
from deltapoly.graphs import graph_flip
from support import (
    FIG_ORBIT,
    M0,
    graphic_matroid,
    random_binary_matroids,
    random_graph,
    random_graphs,
    random_symmetric_matrix,
)

K3 = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
C4 = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def _done(n, label, t0, budget):
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"PASS criterion {n}: {label} ({elapsed:.2f}s)")


def test_criterion_01_golden_polynomials():
    t0 = time.perf_counter()
    assert poly_direct(M0, "Q1").coeff_list() == [16, 10, 1]
    assert poly_direct(M0, "q1").coeff_list() == [5, 3]
    assert poly_direct(M0, "q2").coeff_list() == [3, 4, 1]
    assert poly_direct(M0, "q3").coeff_list() == [6, 2]
    _done(1, "golden example polynomials", t0, 1.0)


def test_criterion_02_orbit_figure():
    from deltapoly import vf_orbit

    t0 = time.perf_counter()
    orbit = vf_orbit(M0, "fullV-alternation")
    assert orbit == FIG_ORBIT
    assert orbit[1] == SetSystem.from_sets(
        ["p", "q", "r"],
        [[], ["q"], ["q", "r"], ["p", "q"], ["p", "q", "r"], ["p", "r"]],
    )
    cur = M0
    for i in range(6):
        cur = full_flip_explicit(cur, "loopc" if i % 2 == 0 else "pivot")
    assert cur == M0
    _done(2, "six-system whole-ground orbit", t0, 1.0)


def test_criterion_03_recursion_traces():
    t0 = time.perf_counter()
    value, trace = q1_recursive(M0)
    assert value.coeff_list() == [5, 3]
    assert trace.branch_labels() == ["\\p", "*p\\p"]
    leaves = Counter(tuple(p.coeff_list()) for p in trace.leaf_values())
    assert leaves == Counter({(1,): 2, (1, 1): 3})
    # the deletion branch splits on q, then on r down to two unit leaves
    del_branch = dict(trace.branches)["\\p"]
    assert del_branch.branch_labels() == ["\\q", "*q\\q"]

    value, trace = Q1_recursive(M0)
    assert value.coeff_list() == [16, 10, 1]
    assert trace.branch_labels() == ["\\p", "*p\\p", "~*p\\p"]
    leaves = Counter(tuple(p.coeff_list()) for p in trace.leaf_values())
    # one (y+2)^2 leaf and six y+2 leaves, summing to the golden value
    assert leaves == Counter({(2, 1): 6, (4, 4, 1): 1})
    pivot_child = dict(trace.branches)["*p\\p"]
    assert pivot_child.is_leaf and pivot_child.value.coeff_list() == [4, 4, 1]
    _done(3, "computation trees match the worked figures", t0, 1.0)


def test_criterion_04_non_vf_closed_counterexample():
    t0 = time.perf_counter()
    labels = ["1", "2", "3"]
    cex = SetSystem.from_sets(
        labels, [list(c) for k in range(1, 4) for c in combinations(labels, k)]
    )
    assert is_delta_matroid(cex) and not is_vf_closed(cex)
    report = recursion_consistency(cex, "Q1")
    assert report.direct.coeff_list() == [14, 13]
    assert report.recursive.coeff_list() == [14, 11, 2]
    assert not report.equal  # the engine surfaces the mismatch
    assert report.direct.evaluate(-2) == -12
    _done(4, "three-term recursion mismatch is reported", t0, 1.0)


def test_criterion_05_vf_closure_fixtures():
    t0 = time.perf_counter()
    assert is_vf_closed(uniform_matroid(2, 4).carrier)
    assert not is_vf_closed(uniform_matroid(2, 6).carrier)
    for graph in random_graphs(seed=20240805, count=100, n_max=5):
        assert is_vf_closed(graph_to_system(graph))
    _done(5, "vf-closure fixtures and 100 random graphs", t0, 30.0)


def test_criterion_06_oracle_equivalence(delta_corpus, vf_corpus):
    t0 = time.perf_counter()
    assert len(delta_corpus) >= 200
    assert len(vf_corpus) >= 100
    hypothesis_hits = {"q2": 0, "q3": 0}
    for system in delta_corpus:
        value, _ = q1_recursive(system, checked=False)
        assert value == poly_direct(system, "q1")
        for which, kind in (("q2", "dualpivot"), ("q3", "loopc")):
            if is_delta_matroid(full_flip_explicit(system, kind)):
                hypothesis_hits[which] += 1
                value, _ = q2_q3_recursive(system, which, checked=False)
                assert value == poly_direct(system, which)
    # with the vf-closed corpus below, each of q2/q3 is exercised on > 200 systems
    assert min(hypothesis_hits.values()) >= 150
    for system in vf_corpus:
        value, _ = Q1_recursive(system, checked=False)
        assert value == poly_direct(system, "Q1")
        for which in ("q2", "q3"):
            value, _ = q2_q3_recursive(system, which, checked=False)
            assert value == poly_direct(system, which)
    for system in delta_corpus[:100] + vf_corpus:
        table = multivariate_Q(system)
        for which in ("Q1", "q1", "q2", "q3"):
            assert table.specialize(which) == poly_direct(system, which)
    _done(6, "recursive and definitional routes agree on the corpora", t0, 300.0)


def test_criterion_07_evaluation_identities(delta_corpus, vf_corpus):
    t0 = time.perf_counter()
    for system in delta_corpus:
        n = system.ground.n
        for which in ("q1", "q2", "q3"):
            assert poly_direct(system, which).evaluate(1) == 2**n
        assert poly_direct(system, "Q1").evaluate(1) == 3**n
        assert poly_direct(system, "q1").evaluate(0) == len(system)
        if n > 0 and is_even(system):
            assert poly_direct(system, "q1").evaluate(-1) == 0
    for system in vf_corpus:
        n = system.ground.n
        sign = (-1) ** n
        if n > 0:
            assert poly_direct(system, "Q1").evaluate(-2) == 0
        assert poly_direct(system, "q1").evaluate(-2) == sign * (-2) ** dual_pivot_min_distance(system)
        assert poly_direct(system, "q2").evaluate(-2) == sign * (-2) ** distance(system, 0)
        d_star = distance(system.pivot(system.ground.full_mask), 0)
        assert poly_direct(system, "q3").evaluate(-2) == sign * (-2) ** d_star
    _done(7, "exact evaluation identities", t0, 120.0)


def test_criterion_07_modular_family_as_stated(vf_corpus):
    """Strong modular claims, verbatim: exact divisibility, odd quotient,
    quotient congruent to (-1)^n mod p, for p in {2,-2,4,-4,6}.

    The divisibility always holds, but the parity and full mod-p
    congruence are refutable: for the support system of the star on
    vertices {1,2,3,4} (edges 14, 24, 34), q1 = y^3+4y^2+7y+4 and the
    dual-pivot distance is 1, so at p=2 the quotient is 4/(-2) = -2,
    which is even, and at p=4 the quotient -21 is 3 mod 4, not 1.
    Kept red deliberately; see the weakened forms that do hold in
    test_interlace.test_modular_evaluations_weak_forms.
    """
    t0 = time.perf_counter()
    failures = []
    for idx, system in enumerate(vf_corpus):
        n = system.ground.n
        d = dual_pivot_min_distance(system)
        q1 = poly_direct(system, "q1")
        base = (-2) ** d
        for p in (2, -2, 4, -4, 6):
            value = q1.evaluate(p - 2)
            if value % base != 0:
                failures.append((idx, p, "divisibility", value, d))
                continue
            k = value // base
            if abs(k) % 2 != 1:
                failures.append((idx, p, "k odd", k, d))
            if (k - (-1) ** n) % abs(p) != 0:
                failures.append((idx, p, "k congruence", k, d))
    elapsed = time.perf_counter() - t0
    if failures:
        print(f"FAIL criterion 7 (modular family as stated): {len(failures)} violations")
        pytest.fail(
            f"strong modular claims fail on {len(failures)} (instance, p) pairs, "
            f"first: instance {failures[0][0]}, p={failures[0][1]}, "
            f"violated clause: {failures[0][2]} (witness value {failures[0][3]}, "
            f"dual distance {failures[0][4]}); exact divisibility held everywhere. "
            f"({elapsed:.1f}s)"
        )
    print(f"PASS criterion 7 (modular family) ({elapsed:.2f}s)")


def test_criterion_08_graph_correspondence():
    t0 = time.perf_counter()
    rng = random.Random(20240808)
    for _ in range(100):
        graph = random_graph(rng, rng.randint(1, 7))
        system = graph_to_system(graph)
        for x in range(1 << graph.n):
            assert distance(system, x) == det_nullity(graph.matrix, x)[1]
    # exhaustive round trip for every graph on up to 4 vertices
    from test_graphs import all_graphs

    for n in range(5):
        for graph in all_graphs(n):
            assert system_to_graph(graph_to_system(graph)).matrix == graph.matrix
    # flip commutation on random admissible subsets
    for graph in random_graphs(seed=20240809, count=50, n_max=5):
        system = graph_to_system(graph)
        x = rng.randrange(1 << graph.n)
        assert graph_to_system(graph_flip(graph, "loopc", x)) == system.loopc(x)
        members = [m for m in system.family if m]
        if members:
            x = rng.choice(members)
            assert graph_to_system(graph_flip(graph, "pivot", x)) == system.pivot(x)
    _done(8, "distance/nullity, exhaustive round trip, flip commutation", t0, 60.0)


def test_criterion_09_ppt_laws():
    t0 = time.perf_counter()
    rng = random.Random(20240810)
    done = 0
    while done < 200:
        n = rng.randint(1, 7)
        a = random_symmetric_matrix(rng, n)
        support = support_set_system(a)
        members = [m for m in support.family if m]
        if not members:
            continue
        x = rng.choice(members)
        b = ppt(a, x)
        assert ppt(b, x) == a
        y = rng.randrange(1 << n)
        if det_nullity(b, y)[0]:
            assert ppt(b, y) == ppt(a, x ^ y)
        done += 1
    _done(9, "pivot involution and composition on 200 matrices", t0, 30.0)


def test_criterion_10_tutte():
    t0 = time.perf_counter()
    corpus = [K3, C4]
    for size in range(1, 7):
        for rank in range(size + 1):
            corpus.append(uniform_matroid(rank, size))
    corpus.append(uniform_matroid(3, 8))
    corpus.append(graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    corpus.extend(random_binary_matroids(seed=20240811, count=30, max_cols=8))
    for matroid in corpus:
        assert tutte(matroid) == tutte_dc(matroid)
        _, _, equal = tutte_diagonal_check(matroid)
        assert equal
    assert tutte(K3).evaluate(-1, -1) == -1
    assert tutte(C4).evaluate(-1, -1) == -2
    from deltapoly import Representation

    c4_rep = Representation.from_rows(
        ["1", "2", "3", "4"], [[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
    )
    assert bicycle_dimension(c4_rep) == 1
    for matroid in random_binary_matroids(seed=20240812, count=100, max_cols=8):
        assert bicycle_dimension(matroid.representation) == dual_pivot_min_distance(matroid.carrier)
    for matroid in random_binary_matroids(seed=20240813, count=40, max_cols=7):
        diag = tutte(matroid).diagonal()
        base = diag.evaluate(-1)
        for p in (1, -1, 2):
            value = diag.evaluate(4 * p - 1)
            assert value % base == 0 and abs(value // base) % 2 == 1
    _done(10, "tutte equivalences, diagonal, bicycle space, odd-multiple shape", t0, 180.0)


def test_criterion_11_distance_triple_shape(delta_corpus):
    from deltapoly import distance_triple

    t0 = time.perf_counter()
    assert len(delta_corpus) >= 200
    for system in delta_corpus:
        for i in range(system.ground.n):
            triple = sorted(distance_triple(system, 1 << i))
            assert triple[0] == triple[1] and triple[2] == triple[0] + 1
    _done(11, "two-equal-plus-one distance triples", t0, 60.0)


def test_criterion_12_fundamental_graphs():
    t0 = time.perf_counter()
    for matroid in random_binary_matroids(seed=20240814, count=50, max_cols=7):
        basis = matroid.bases()[0]
        graph = fundamental_graph(matroid, basis)
        assert graph_poly(graph, "q1").shift_variable(-1) == tutte(matroid).diagonal()
    _done(12, "fundamental-graph diagonal identity on 50 binary matroids", t0, 60.0)
