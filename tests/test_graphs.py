"""Graph layer: the support correspondence, matrix-level flips, polynomials."""

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoly import (
    Graph,
    NotAGraphError,
    PivotUndefinedError,
    SetSystem,
    elementary_pivots,
    graph_flip,
    graph_poly,
    graph_recursive,
    graph_to_system,
    is_vf_closed,
    local_complement,
    loopless_local_complement,
    marked_bracket,
    poly_direct,
    system_to_graph,
)
from deltapoly.gf2 import Gf2Matrix, ppt, schur_complement
from deltapoly.interlace import UniPoly
from deltapoly.recursion import _edge_pivot, _offdiagonal_minors, _schur
from deltapoly.setsystem import GroundSet
from support import FIG_ORBIT, M0, TRIANGLE_TWO_LOOPS, random_graph, random_graphs, random_symmetric_matrix


def all_graphs(n):
    labels = tuple("abcdefg"[:n])
    ground = GroundSet(labels)
    slots = [(i, j) for i in range(n) for j in range(i, n)]
    for bits in range(1 << len(slots)):
        rows = [0] * n
        for idx, (i, j) in enumerate(slots):
            if bits >> idx & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield Graph(Gf2Matrix(ground, tuple(rows)))


def test_graph_construction():
    g = Graph.from_edges(["a", "b"], [("a", "b")], loops=["a"])
    assert g.edges() == [("a", "b")]
    assert g.loops() == ["a"]
    with pytest.raises(ValueError):
        Graph.from_edges(["a"], [("a", "a")])


def test_triangle_support_is_golden_system():
    assert graph_to_system(TRIANGLE_TWO_LOOPS) == M0


def test_edgeless_and_path_supports():
    edgeless = Graph.from_edges(["a", "b", "c"])
    assert graph_to_system(edgeless).family == (0,)
    path = Graph.from_edges(["1", "2", "3"], [("1", "3"), ("2", "3")])
    assert graph_to_system(path) == SetSystem.from_sets(["1", "2", "3"], [[], ["1", "3"], ["2", "3"]])


def test_system_to_graph_golden():
    g = system_to_graph(M0)
    assert g.matrix == TRIANGLE_TWO_LOOPS.matrix
    g2 = system_to_graph(FIG_ORBIT[1])
    assert sorted(g2.edges()) == [("p", "q"), ("p", "r"), ("q", "r")]
    assert g2.loops() == ["q"]
    assert system_to_graph(SetSystem.from_sets(["a", "b"], [[]])).edges() == []


def test_system_to_graph_rejects_non_graphs():
    with pytest.raises(NotAGraphError):
        system_to_graph(FIG_ORBIT[4])  # not normal, cannot be a support system
    with pytest.raises(NotAGraphError):
        system_to_graph(SetSystem.from_sets(["a", "b", "c"], [[], ["a", "b", "c"]]))


def test_roundtrip_exhaustive_small():
    for n in range(0, 4):
        for g in all_graphs(n):
            system = graph_to_system(g)
            assert system_to_graph(system).matrix == g.matrix


def test_graph_flip_loopc_matches_figure():
    flipped = graph_flip(TRIANGLE_TWO_LOOPS, "loopc", ["p", "q", "r"])
    assert flipped.loops() == ["q"]
    assert graph_to_system(flipped) == FIG_ORBIT[1]
    assert graph_flip(flipped, "loopc", ["p", "q", "r"]).matrix == TRIANGLE_TWO_LOOPS.matrix


def test_graph_flip_commutes_with_system_flip():
    rng = random.Random(70)
    for graph in random_graphs(seed=71, count=60, n_max=5):
        system = graph_to_system(graph)
        n = graph.n
        x = rng.randrange(1 << n)
        assert graph_to_system(graph_flip(graph, "loopc", x)) == system.loopc(x)
        members = [m for m in system.family if m]
        if members:
            x = rng.choice(members)
            assert graph_to_system(graph_flip(graph, "pivot", x)) == system.pivot(x)
        nonloops = [1 << i for i in range(n) if not graph.matrix.entry(i, i)]
        if nonloops:
            bit = rng.choice(nonloops)
            assert graph_to_system(graph_flip(graph, "dualpivot", bit)) == system.dual_pivot(bit)


def test_graph_pivot_requires_nonsingular():
    with pytest.raises(PivotUndefinedError):
        graph_flip(TRIANGLE_TWO_LOOPS, "pivot", ["q"])
    with pytest.raises(PivotUndefinedError):
        graph_flip(TRIANGLE_TWO_LOOPS, "dualpivot", ["p"])  # p has a loop


def test_local_complement_matches_neighbourhood_description():
    g = TRIANGLE_TWO_LOOPS
    lc = local_complement(g, "p")
    rows = list(g.matrix.rows)
    nb = [i for i in range(3) if g.neighbors("p") >> i & 1]
    for a in nb:
        for b in nb:
            if a < b:
                rows[a] ^= 1 << b
                rows[b] ^= 1 << a
    for a in nb:
        rows[a] ^= 1 << a  # loops inside the neighbourhood toggle too
    assert lc.matrix.rows == tuple(rows)


def test_elementary_pivots_examples():
    pivots = elementary_pivots(TRIANGLE_TWO_LOOPS)
    labels = [TRIANGLE_TWO_LOOPS.ground.labels_of(m) for m in pivots]
    assert labels == [("p",), ("r",)]
    single_edge = Graph.from_edges(["u", "v"], [("u", "v")])
    assert [single_edge.ground.labels_of(m) for m in elementary_pivots(single_edge)] == [("u", "v")]
    assert elementary_pivots(Graph.from_edges(["u", "v"])) == []


def test_elementary_pivots_shape():
    for graph in random_graphs(seed=72, count=40, n_max=5):
        for mask in elementary_pivots(graph):
            if mask.bit_count() == 1:
                i = mask.bit_length() - 1
                assert graph.matrix.entry(i, i) == 1  # loop
            else:
                assert mask.bit_count() == 2
                i = (mask & -mask).bit_length() - 1
                j = (mask ^ (mask & -mask)).bit_length() - 1
                assert graph.matrix.entry(i, j) == 1
                assert graph.matrix.entry(i, i) == 0 and graph.matrix.entry(j, j) == 0


def test_graph_polys_match_system_polys():
    # n = 7..11 takes the set-system kernel past one 64-bit word of cells
    rng = random.Random(85)
    large = [random_graph(rng, n) for n in range(7, 12) for _ in range(2)]
    for graph in random_graphs(seed=73, count=30, n_max=5) + large:
        system = graph_to_system(graph)
        for which in ("q1", "q2", "q3", "Q1"):
            if which == "Q1" and graph.n > 9:
                continue  # the nullity oracle visits 3^n cells
            assert graph_poly(graph, which) == poly_direct(system, which)


def test_graph_poly_examples():
    assert graph_poly(TRIANGLE_TWO_LOOPS, "q1").coeff_list() == [5, 3]
    looped = Graph.from_edges(["u"], loops=["u"])
    q1 = graph_poly(looped, "q1")
    assert q1.coeff_list() == [2]
    assert q1.evaluate(-1) == 2
    for graph in random_graphs(seed=74, count=20, n_max=5):
        stripped = graph_flip(graph, "loopc", graph.loops())
        assert graph_poly(stripped, "q1").evaluate(-1) == 0


def test_graph_recursion_rules():
    rng = random.Random(75)
    for graph in random_graphs(seed=76, count=40, n_max=5):
        system = graph_to_system(graph)
        members = [m for m in system.family if m]
        if not members:
            continue
        x = rng.choice(members)
        bit = x & -x
        u = graph.ground.labels_of(bit)[0]
        left = graph_poly(graph.delete(bit), "q1")
        right = graph_poly(graph_flip(graph, "pivot", x).delete(bit), "q1")
        assert graph_poly(graph, "q1") == left + right
        # dual-pivot rule: any loopless vertex admits the two-way q3 split
        nonloops = [1 << i for i in range(graph.n) if not graph.matrix.entry(i, i)]
        if nonloops:
            b = rng.choice(nonloops)
            dual = graph_flip(graph, "dualpivot", b)
            total = graph_poly(graph.delete(b), "q3") + graph_poly(dual.delete(b), "q3")
            assert graph_poly(graph, "q3") == total


def test_graph_q2_edge_rules():
    for graph in random_graphs(seed=77, count=60, n_max=5):
        pair = None
        for i in range(graph.n):
            for j in range(i + 1, graph.n):
                if (
                    graph.matrix.entry(i, j)
                    and not graph.matrix.entry(i, i)
                    and not graph.matrix.entry(j, j)
                ):
                    pair = (1 << i, 1 << j)
                    break
            if pair:
                break
        if not pair:
            continue
        ub, vb = pair
        both = ub | vb
        q2 = graph_poly(graph, "q2")
        a = graph_poly(graph_flip(graph, "pivot", both).delete(both), "q2")
        b = graph_poly(graph_flip(graph_flip(graph, "dualpivot", vb), "pivot", ub).delete(both), "q2")
        c = graph_poly(graph_flip(graph, "dualpivot", ub).delete(ub), "q2")
        assert q2 == a + b + c
        b2 = graph_poly(
            graph_flip(graph_flip(graph, "pivot", both), "dualpivot", vb).delete(both), "q2"
        )
        assert q2 == a + b2 + c


def test_Q1_flip_invariance_on_graphs():
    rng = random.Random(78)
    for graph in random_graphs(seed=79, count=30, n_max=5):
        system = graph_to_system(graph)
        big = graph_poly(graph, "Q1")
        y = rng.randrange(1 << graph.n)
        assert graph_poly(graph_flip(graph, "loopc", y), "Q1") == big
        members = [m for m in system.family if m]
        if members:
            assert graph_poly(graph_flip(graph, "pivot", rng.choice(members)), "Q1") == big


def test_simple_graph_Q1_recursion():
    for graph in random_graphs(seed=80, count=60, n_max=5):
        # strip loops to get a simple graph
        simple = graph_flip(graph, "loopc", [v for v in graph.vertices() if graph.has_loop(v)])
        pair = None
        for i in range(simple.n):
            for j in range(i + 1, simple.n):
                if simple.matrix.entry(i, j):
                    pair = (1 << i, 1 << j)
                    break
            if pair:
                break
        if not pair:
            continue
        ub, vb = pair
        total = (
            graph_poly(simple.delete(ub), "Q1")
            + graph_poly(loopless_local_complement(simple, ub).delete(ub), "Q1")
            + graph_poly(graph_flip(simple, "pivot", ub | vb).delete(ub), "Q1")
        )
        assert graph_poly(simple, "Q1") == total


def test_graph_supports_are_vf_closed():
    for graph in random_graphs(seed=81, count=15, n_max=4):
        assert is_vf_closed(graph_to_system(graph))


def test_graph_evaluations():
    for graph in random_graphs(seed=82, count=30, n_max=5):
        n = graph.n
        sign = (-1) ** n
        if n > 0:
            assert graph_poly(graph, "Q1").evaluate(-2) == 0
        toggled = graph.matrix.with_toggled_diagonal(graph.ground.full_mask)
        from deltapoly import det_nullity

        d = det_nullity(toggled, graph.ground.full_mask)[1]
        assert graph_poly(graph, "q1").evaluate(-2) == sign * (-2) ** d
        assert graph_poly(graph, "q2").evaluate(-2) == sign


def test_Q1_fixture_is_not_power_multiple():
    labels = ["q", "r", "s"]
    fixture = SetSystem.from_sets(
        labels, [list(c) for k in (1, 2) for c in combinations(labels, k)]
    )
    value = poly_direct(fixture, "Q1").evaluate(2)
    assert value == 36
    assert value % 2**3 != 0


def test_marked_bracket_identities():
    g = TRIANGLE_TWO_LOOPS
    system = graph_to_system(g)
    full = g.ground.full_mask
    assert marked_bracket(g, full) == graph_poly(g, "q2")
    for c in range(1 << g.n):
        assert marked_bracket(g, c) == poly_direct(system.pivot(c), "q3")
    assert marked_bracket(g, 0) == graph_poly(g, "q3")
    assert marked_bracket(g, g.ground.mask_of(["q"])).coeff_list() == [6, 2]


def test_marked_bracket_random_graphs():
    rng = random.Random(83)
    for graph in random_graphs(seed=84, count=25, n_max=5):
        system = graph_to_system(graph)
        c = rng.randrange(1 << graph.n)
        assert marked_bracket(graph, c) == poly_direct(system.pivot(c), "q3")


@st.composite
def graphs_and_polys(draw):
    """A random graph with drawn edge and loop densities, up to 10 vertices for q1, q2 and q3 and 8 for Q1."""
    which = draw(st.sampled_from(["q1", "q2", "q3", "Q1"]))
    n = draw(st.integers(0, 8 if which == "Q1" else 10))
    edge_p, loop_p = draw(st.floats(0, 1)), draw(st.floats(0, 1))
    return random_graph(random.Random(draw(st.integers(0, 2**32))), n, edge_p, loop_p), which


@given(graphs_and_polys())
@settings(max_examples=200, deadline=None)
def test_graph_recursion_matches_nullity_sums(case):
    graph, which = case
    assert graph_recursive(graph, which) == graph_poly(graph, which)


def test_graph_recursion_matches_poly_direct_on_corpora(delta_corpus, vf_corpus):
    supports = 0
    for system in delta_corpus + vf_corpus:
        try:
            graph = system_to_graph(system)
        except NotAGraphError:
            continue
        supports += 1
        for which in ("q1", "q2", "q3", "Q1"):
            assert graph_recursive(graph, which) == poly_direct(system, which), (system, which)
    assert supports >= 150


def test_matrix_steps_match_gf2_pivots():
    # neither step reads A_aa, so each is compared at the loop its gf2 transform needs
    rng = random.Random(26)
    steps = 0
    for _ in range(300):
        matrix = random_symmetric_matrix(rng, rng.randint(2, 8))
        nbrs = matrix.rows[0] >> 1
        if not nbrs:
            continue
        deletion = [r >> 1 for r in matrix.rows[1:]]
        looped_a = matrix.rows[0] & 1
        edge = 1 | (nbrs & -nbrs) << 1
        rest = matrix.ground.full_mask ^ 1
        schur = schur_complement(matrix.with_toggled_diagonal(1 - looped_a), 1)
        assert _schur(deletion[:], nbrs) == schur.rows
        pivoted = ppt(matrix.with_toggled_diagonal(looped_a), edge).principal(rest)
        assert _edge_pivot(deletion, nbrs) == pivoted.rows
        steps += 1
    assert steps > 200


def _cleared(matrix: Gf2Matrix) -> tuple[int, ...]:
    return tuple(r & ~(1 << i) for i, r in enumerate(matrix.rows))


def test_q2_steps_match_gf2_schur_complements():
    # q2's children are the off-diagonal parts of the Schur complements at a
    # with a looped, and at {a, b} with a unlooped and b unlooped or looped
    rng = random.Random(27)
    steps = 0
    for _ in range(300):
        matrix = random_symmetric_matrix(rng, rng.randint(2, 8))
        nbrs = matrix.rows[0] >> 1
        if not nbrs:
            continue
        cleared = matrix.with_toggled_diagonal(sum(r & 1 << i for i, r in enumerate(matrix.rows)))
        deletion = [r >> 1 for r in _cleared(matrix)[1:]]
        b = nbrs & -nbrs
        pair = 1 | b << 1
        expected = (
            _cleared(schur_complement(cleared.with_toggled_diagonal(1), 1)),
            _cleared(schur_complement(cleared, pair)),
            _cleared(schur_complement(cleared.with_toggled_diagonal(b << 1), pair)),
        )
        assert _offdiagonal_minors(deletion, nbrs) == expected
        steps += 1
    assert steps > 200


def test_graph_recursion_examples():
    assert graph_recursive(TRIANGLE_TWO_LOOPS, "q1").coeff_list() == [5, 3]
    assert graph_recursive(TRIANGLE_TWO_LOOPS, "q2") == graph_poly(TRIANGLE_TWO_LOOPS, "q2")
    empty = Graph.from_edges([])
    for which in ("q1", "q2", "q3", "Q1"):
        assert graph_recursive(empty, which).coeff_list() == [1]
    looped, unlooped = Graph.from_edges(["u"], loops=["u"]), Graph.from_edges(["u"])
    assert graph_recursive(looped, "q1").coeff_list() == [2]
    assert graph_recursive(unlooped, "q1").coeff_list() == [1, 1]
    assert graph_recursive(looped, "q3").coeff_list() == [1, 1]
    assert graph_recursive(unlooped, "Q1").coeff_list() == [2, 1]
    assert graph_recursive(looped, "q2").coeff_list() == [1, 1]
    with pytest.raises(ValueError):
        graph_recursive(TRIANGLE_TWO_LOOPS, "Q")


def test_graph_recursion_packs_without_carries():
    # 30 isolated vertices: each factor multiplies once per vertex; the largest
    # coefficient, C(30, 10) 2^20 of (y+2)^30, is about 2^45, in 61-bit slots
    labels = [f"v{i}" for i in range(30)]
    unlooped, looped = Graph.from_edges(labels), Graph.from_edges(labels, loops=labels)
    y1, y2, two = UniPoly.binomial_power(1, 30), UniPoly.binomial_power(2, 30), UniPoly.const(2**30)
    for graph, q1, q3 in ((unlooped, y1, two), (looped, two, y1)):
        assert graph_recursive(graph, "q1") == q1
        assert graph_recursive(graph, "q2") == y1
        assert graph_recursive(graph, "q3") == q3
        assert graph_recursive(graph, "Q1") == y2


def test_graph_recursion_on_24_vertices():
    rng = random.Random(24)
    graph = random_graph(rng, 24, edge_p=0.15)
    q1 = graph_recursive(graph, "q1")
    assert q1.evaluate(1) == 2**24
    shuffled = list(graph.vertices())
    rng.shuffle(shuffled)
    assert graph_recursive(Graph.from_edges(shuffled, graph.edges(), graph.loops()), "q1") == q1
    # a pivot on an edge whose 2x2 block is nonsingular: its ends are not both looped
    u, v = next((u, v) for u, v in graph.edges() if not (graph.has_loop(u) and graph.has_loop(v)))
    assert graph_recursive(graph_flip(graph, "pivot", [u, v]), "q1") == q1


def test_graph_q2_recursion_on_24_dense_vertices():
    # half the pairs joined: graph_poly refuses this size, and the memo stays under the cell limit
    q2 = graph_recursive(random_graph(random.Random(24), 24), "q2")
    assert q2.evaluate(1) == 2**24
