"""Matroids, the Tutte polynomial, bicycle space, fundamental graphs."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltapoly import (
    BiPoly,
    GroundSet,
    Matroid,
    PreconditionError,
    Representation,
    SetSystem,
    SizeGuardError,
    bicycle_dimension,
    binary_matroid_from_matrix,
    dual_pivot_min_distance,
    forced,
    fundamental_graph,
    graph_poly,
    graph_to_system,
    is_vf_closed,
    rank_nullity,
    tutte,
    tutte_dc,
    tutte_diagonal_check,
    tutte_evaluations,
    uniform_matroid,
)
from deltapoly.cube import is_basis_family, members, rank_layers
from deltapoly.delta import _exchange_axiom
from support import (
    LABELS,
    bases_by_ranking,
    graphic_matroid,
    random_binary_matroids,
    random_representation,
    simple_representation,
    uniform_tutte,
)

K3 = graphic_matroid(3, [(0, 1), (1, 2), (2, 0)])
C4 = graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
K3_REP = Representation.from_rows(["1", "2", "3"], [[1, 1, 0], [1, 0, 1], [0, 1, 1]])
C4_REP = Representation.from_rows(
    ["1", "2", "3", "4"], [[1, 0, 0, 1], [1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]]
)


def matroid_corpus(seed=90):
    corpus = [K3, C4, uniform_matroid(0, 1), uniform_matroid(1, 1)]
    for size in range(1, 7):
        for rank in range(size + 1):
            corpus.append(uniform_matroid(rank, size))
    corpus.append(uniform_matroid(2, 7))
    corpus.append(uniform_matroid(4, 8))
    corpus.append(graphic_matroid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    corpus.extend(random_binary_matroids(seed=seed, count=25, max_cols=8))
    return corpus


def test_bipoly_arithmetic():
    x, y = BiPoly.x(), BiPoly.y()
    p = x * x + x + y
    assert p.evaluate(-1, -1) == -1
    assert p.diagonal().coeff_list() == [0, 2, 1]
    assert BiPoly.shifted_powers(1, 1).evaluate(3, 5) == 8
    assert (x + y).text() == "x + y"


def test_matroid_validation(monkeypatch):
    with pytest.raises(PreconditionError):
        Matroid.from_bases(["a", "b"], [["a"], ["a", "b"]])  # not equicardinal
    with pytest.raises(PreconditionError):
        Matroid.from_bases(["a"], [])
    with pytest.raises(PreconditionError, match="symmetric exchange axiom"):
        Matroid.from_bases(
            ["a", "b", "c", "d"], [["a", "b"], ["c", "d"]]
        )  # exchange axiom fails

    # above the 2^n-cell guard the basis check must not build the cube
    def no_cube(*args):
        raise AssertionError("the hypercube basis check ran on 30 elements")

    monkeypatch.setattr("deltapoly.cube.is_basis_family", no_cube)
    labels = [f"e{i}" for i in range(30)]
    matroid = Matroid.from_bases(labels, [["e0", "e1"], ["e0", "e2"]])
    assert matroid.rank == 2 and len(matroid.bases()) == 2
    with pytest.raises(PreconditionError, match="symmetric exchange axiom"):
        Matroid.from_bases(labels, [["e0", "e1"], ["e2", "e3"]])


def _minus_one_basis(rows, n, drop):
    """Bases of the binary matroid of the rows, less the basis at index drop (if any other is left)."""
    rep = Representation(GroundSet(tuple(LABELS[:n])), tuple(rows))
    bases = list(binary_matroid_from_matrix(rep).bases())
    if len(bases) > 1:
        del bases[drop % len(bases)]
    return bases


@st.composite
def equicardinal_families(draw):
    """(n, family): a uniform draw of r-subsets, or a binary matroid with one basis removed."""
    n = draw(st.integers(0, 7))
    if draw(st.booleans()) or n == 0:
        r = draw(st.integers(0, n))
        candidates = [sum(1 << i for i in c) for c in combinations(range(n), r)]
        return n, sorted(draw(st.sets(st.sampled_from(candidates), min_size=1)))
    rows = draw(st.lists(st.integers(0, (1 << n) - 1), min_size=1, max_size=4))
    return n, _minus_one_basis(rows, n, draw(st.integers(0, 1 << 10)))


def _agree(n, family):
    system = SetSystem(GroundSet(tuple(LABELS[:n])), tuple(family))
    verdict = _exchange_axiom(system)
    assert is_basis_family(family, n) == verdict, system
    return verdict


@given(equicardinal_families())
@settings(max_examples=300, deadline=None)
@example((4, [0b0011, 0b1100]))  # {ab, cd}
@example((3, [0b011, 0b101, 0b110]))  # U(2, 3)
@example((0, [0]))
def test_basis_check_matches_exchange_axiom(case):
    _agree(*case)


def test_basis_check_sees_both_outcomes():
    rng = random.Random(98)
    verdicts = {True: 0, False: 0}
    for _ in range(150):
        n = rng.randint(1, 7)
        r = rng.randint(0, n)
        candidates = [sum(1 << i for i in c) for c in combinations(range(n), r)]
        verdicts[_agree(n, rng.sample(candidates, rng.randint(1, len(candidates))))] += 1
        rows = [rng.randrange(1 << n) for _ in range(rng.randint(1, 4))]
        verdicts[_agree(n, _minus_one_basis(rows, n, rng.randrange(1 << 10)))] += 1
    assert verdicts[True] >= 30 and verdicts[False] >= 30, verdicts


def test_rank_layers_match_rank_nullity():
    rng = random.Random(99)
    corpus = matroid_corpus(seed=99) + [uniform_matroid(5, 10), uniform_matroid(3, 9)]
    corpus += [binary_matroid_from_matrix(random_representation(rng, 10, min_cols=9)) for _ in range(4)]
    for matroid in corpus:
        n = matroid.n
        layers = rank_layers(matroid.bases(), n)
        assert len(layers) == matroid.rank + 1
        rank_of = {x: k for k, layer in enumerate(layers) for x in members(layer)}
        assert sum(len(members(layer)) for layer in layers) == len(rank_of) == 1 << n
        for x in range(1 << n):
            assert rank_nullity(matroid, x) == (rank_of[x], x.bit_count() - rank_of[x])


def test_rank_nullity_examples():
    u12 = uniform_matroid(1, 2, ["a", "b"])
    assert rank_nullity(u12, ["a", "b"]) == (1, 1)
    assert rank_nullity(u12, 0) == (0, 0)
    assert rank_nullity(K3, ["1", "2", "3"]) == (2, 1)


def test_tutte_golden_values():
    u12 = uniform_matroid(1, 2, ["a", "b"])
    assert tutte(u12) == BiPoly.x() + BiPoly.y()
    assert tutte(Matroid.from_bases(["a"], [["a"]])) == BiPoly.x()
    assert tutte(Matroid.from_bases(["a"], [[]])) == BiPoly.y()
    assert tutte(K3) == BiPoly.x() * BiPoly.x() + BiPoly.x() + BiPoly.y()
    expected_c4 = BiPoly({(3, 0): 1, (2, 0): 1, (1, 0): 1, (0, 1): 1})
    assert tutte(C4) == expected_c4


def test_tutte_dc_matches_rank_sum():
    rng = random.Random(100)
    corpus = matroid_corpus() + [uniform_matroid(n // 2, n) for n in range(8, 15)]
    corpus += [binary_matroid_from_matrix(random_representation(rng, 12, min_cols=10)) for _ in range(6)]
    corpus.append(binary_matroid_from_matrix(simple_representation(random.Random(16), 16, 8)))
    for matroid in corpus:
        assert tutte(matroid) == tutte_dc(matroid), matroid.carrier


def test_tutte_uniform_closed_form():
    for size in range(17):
        for rank in range(size + 1):
            assert tutte(uniform_matroid(rank, size)) == uniform_tutte(rank, size), (rank, size)


def test_tutte_size_guard():
    u121 = uniform_matroid(1, 21)
    with pytest.raises(SizeGuardError):
        tutte(u121)
    with forced():
        assert tutte(u121) == uniform_tutte(1, 21)
    with pytest.raises(SizeGuardError):
        tutte(u121)


def _first_element_minors(system):
    """The distinct (labels, family) minors with elements left, the input
    included, that deletion and contraction of the first element reach."""
    seen, todo = set(), [system]
    while todo:
        m = todo.pop()
        key = (m.ground.labels, m.family)
        if m.ground.n == 0 or key in seen:
            continue
        seen.add(key)
        with_first = [b for b in m.family if b & 1]
        if len(with_first) < len(m.family):  # not a coloop: delete
            todo.append(m.delete(1))
        if with_first:  # not a loop: contract
            todo.append(m.pivot(1).delete(1))
    return list(seen)


@pytest.mark.parametrize(
    "matroid",
    (uniform_matroid(3, 6), binary_matroid_from_matrix(simple_representation(random.Random(5), 10, 5))),
    ids=("U(3,6)", "binary 10x5"),
)
def test_tutte_dc_expands_each_distinct_minor_once(matroid, monkeypatch):
    calls = []
    minors = SetSystem.minors

    def counted(self, element):
        calls.append((self.ground.labels, self.family))
        return minors(self, element)

    monkeypatch.setattr(SetSystem, "minors", counted)
    value = tutte_dc(matroid)
    monkeypatch.undo()
    # one minors call per distinct minor; U(3,5)/2 and U(2,5)\2 are one
    # minor of U(3,6), which a recursion without a memo expands twice
    assert sorted(calls) == sorted(_first_element_minors(matroid.carrier))
    assert value == tutte(matroid)


def test_tutte_dc_base_case():
    empty = Matroid.from_bases([], [[]])
    assert tutte_dc(empty) == BiPoly.const(1)
    assert tutte(empty) == BiPoly.const(1)


def test_diagonal_identity():
    for matroid in matroid_corpus(seed=91):
        via_t, via_q1, equal = tutte_diagonal_check(matroid)
        assert equal, matroid.carrier
    via_t, via_q1, equal = tutte_diagonal_check(uniform_matroid(1, 2))
    assert via_t.coeff_list() == [0, 2]


def test_diagonal_zero_at_origin():
    for matroid in matroid_corpus(seed=92):
        if matroid.n == 0:
            assert tutte(matroid).evaluate(0, 0) == 1
        else:
            assert tutte(matroid).evaluate(0, 0) == 0


def test_binary_matroid_construction():
    u13 = binary_matroid_from_matrix(Representation.from_rows(["a", "b", "c"], [[1, 1, 1]]))
    assert sorted(u13.ground.labels_of(b) for b in u13.bases()) == [("a",), ("b",), ("c",)]
    from_k3 = binary_matroid_from_matrix(K3_REP)
    assert from_k3.carrier == K3.carrier
    eye = binary_matroid_from_matrix(Representation.from_rows(["1", "2"], [[1, 0], [0, 1]]))
    assert eye.bases() == (3,)
    zero = binary_matroid_from_matrix(Representation.from_rows(["1", "2"], [[0, 0]]))
    assert zero.bases() == (0,)


def _edge_case_representation(rng):
    """Up to 10 columns and 6 rows at a drawn density, then maybe a zero row,
    a zero column or a column repeated."""
    ncols = rng.randint(0, 10)
    density = rng.choice((0.0, 0.2, 0.5, 0.9))
    rows = [[int(rng.random() < density) for _ in range(ncols)] for _ in range(rng.randint(0, 6))]
    if rows and rng.random() < 0.3:
        rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
    if ncols and rng.random() < 0.3:
        j = rng.randrange(ncols)
        for row in rows:
            row[j] = 0
    if ncols > 1 and rng.random() < 0.3:
        src, dst = rng.sample(range(ncols), 2)
        for row in rows:
            row[dst] = row[src]
    return Representation.from_rows([str(j + 1) for j in range(ncols)], rows)


def test_binary_matroid_matches_ranking_oracle():
    rng = random.Random(28)
    seen = set()
    for _ in range(400):
        rep = _edge_case_representation(rng)
        matroid = binary_matroid_from_matrix(rep)
        assert matroid == bases_by_ranking(rep)
        rows, n = rep.to_lists(), rep.ncols
        columns = [tuple(row[j] for row in rows) for j in range(n)]
        seen.add("rank 0" if matroid.rank == 0 else "full rank" if matroid.rank == n else "other")
        if any(not any(row) for row in rows):
            seen.add("zero row")
        if any(not any(col) for col in columns):
            seen.add("zero column")
        if len(set(columns)) < n:
            seen.add("repeated column")
    assert seen == {"rank 0", "full rank", "other", "zero row", "zero column", "repeated column"}
    for ncols, nrows in ((16, 8), (20, 10)):
        rep = simple_representation(random.Random(3), ncols, nrows)
        assert binary_matroid_from_matrix(rep) == bases_by_ranking(rep)


def test_bicycle_dimension_counts_orthogonal_row_space_vectors():
    rng = random.Random(29)
    for _ in range(300):
        rep = _edge_case_representation(rng)
        span = {0}
        for row in rep.rows:
            span |= {v ^ row for v in span}
        orthogonal = sum(all((v & row).bit_count() % 2 == 0 for row in rep.rows) for v in span)
        assert orthogonal == 1 << bicycle_dimension(rep)


def test_binary_matroids_are_vf_closed():
    for matroid in random_binary_matroids(seed=93, count=15, max_cols=5):
        assert is_vf_closed(matroid.carrier)


def test_bicycle_dimension_golden():
    assert bicycle_dimension(K3_REP) == 0
    assert dual_pivot_min_distance(K3.carrier) == 0
    assert bicycle_dimension(C4_REP) == 1
    assert dual_pivot_min_distance(C4.carrier) == 1
    empty = Representation.from_rows([], [])
    assert bicycle_dimension(empty) == 0


def test_bicycle_matches_dual_pivot_distance():
    for matroid in random_binary_matroids(seed=94, count=100, max_cols=8):
        assert bicycle_dimension(matroid.representation) == dual_pivot_min_distance(
            matroid.carrier
        )


def test_tutte_evaluations_exact_minus_one():
    report = tutte_evaluations(K3, -1)
    assert report.value == -1 and report.exact_match
    report = tutte_evaluations(C4, -1)
    assert report.value == -2 and report.exact_match
    for matroid in random_binary_matroids(seed=95, count=40, max_cols=7):
        assert tutte_evaluations(matroid, -1).exact_match


def test_tutte_evaluations_divisibility_shape():
    report = tutte_evaluations(C4, 4)
    assert report.value == 42
    assert report.divisible and report.k == -21 and report.k_odd
    report = tutte_evaluations(C4, 2)
    assert report.value == report.k * (-2) ** report.dual_distance
    with pytest.raises(ValueError):
        tutte_evaluations(C4, 3)
    with pytest.raises(ValueError):
        tutte_evaluations(C4, 0)


def test_diagonal_odd_multiples_at_shifted_points():
    """Diagonal values at 4p-1 are odd multiples of the value at -1."""
    for matroid in random_binary_matroids(seed=96, count=60, max_cols=7):
        diag = tutte(matroid).diagonal()
        base = diag.evaluate(-1)
        for p in (1, -1, 2):
            value = diag.evaluate(4 * p - 1)
            assert value % base == 0
            assert abs(value // base) % 2 == 1


def test_fundamental_graph_golden():
    fg = fundamental_graph(binary_matroid_from_matrix(K3_REP), ["1", "2"])
    assert sorted(fg.edges()) == [("1", "3"), ("2", "3")]
    assert fg.loops() == []
    q1 = graph_poly(fg, "q1")
    assert q1.coeff_list() == [3, 4, 1]
    assert q1.shift_variable(-1) == tutte(K3).diagonal()


def test_fundamental_graph_free_and_u12():
    free = binary_matroid_from_matrix(Representation.from_rows(["1", "2"], [[1, 0], [0, 1]]))
    fg = fundamental_graph(free, ["1", "2"])
    assert fg.edges() == [] and fg.loops() == []
    assert tutte(free).diagonal().coeff_list() == [0, 0, 1]
    u12 = binary_matroid_from_matrix(Representation.from_rows(["a", "b"], [[1, 1]]))
    fg = fundamental_graph(u12, ["a"])
    assert fg.edges() == [("a", "b")]


def test_fundamental_graph_rejects_non_basis():
    with pytest.raises(PreconditionError):
        fundamental_graph(binary_matroid_from_matrix(K3_REP), ["1"])


def test_fundamental_graph_identity_on_random_binary():
    for matroid in random_binary_matroids(seed=97, count=50, max_cols=7):
        basis = matroid.bases()[0]
        graph = fundamental_graph(matroid, basis)
        assert graph.loops() == []
        lhs = graph_poly(graph, "q1").shift_variable(-1)
        assert lhs == tutte(matroid).diagonal()
        # the pivoted support system recovers the matroid and is equicardinal
        recovered = graph_to_system(graph).pivot(basis)
        assert recovered == matroid.carrier
        assert recovered.is_equicardinal


def test_fundamental_graph_without_representation():
    plain = Matroid(K3.carrier)  # no representation attached: basis exchange path
    fg = fundamental_graph(plain, ["1", "2"])
    assert sorted(fg.edges()) == [("1", "3"), ("2", "3")]
