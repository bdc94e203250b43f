"""GF(2) linear algebra: elimination, pivots, support systems."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltapoly import (
    Gf2Matrix,
    GroundSet,
    PivotUndefinedError,
    SetSystem,
    SizeGuardError,
    det_nullity,
    distance,
    ppt,
    schur_complement,
    support_set_system,
)
from deltapoly.gf2 import gf2_rank, gf2_row_reduce
from support import TRIANGLE_TWO_LOOPS, M0, random_symmetric_matrix


@st.composite
def square_matrices(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = tuple(draw(st.integers(0, (1 << n) - 1)) for _ in range(n))
    return Gf2Matrix(GroundSet(tuple(f"v{i}" for i in range(n))), rows)


@st.composite
def symmetric_matrices(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if draw(st.booleans()):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Gf2Matrix(GroundSet(tuple(f"v{i}" for i in range(n))), tuple(rows))


def test_rank_and_reduce():
    assert gf2_rank([0b011, 0b101, 0b110]) == 2
    assert gf2_rank([]) == 0
    basis = gf2_row_reduce([0b011, 0b101, 0b110, 0b000])
    assert len(basis) == 2


def test_det_nullity_examples():
    a = TRIANGLE_TWO_LOOPS.matrix
    assert det_nullity(a, ["p", "q", "r"]) == (0, 1)
    assert det_nullity(a, 0) == (1, 0)
    eye = Gf2Matrix.identity(GroundSet(("a", "b")))
    assert det_nullity(eye, ["a", "b"]) == (1, 0)


def test_matrix_construction_validation():
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows(["a", "b"], [[1, 0]])
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows(["a"], [[2]])
    with pytest.raises(ValueError):
        Gf2Matrix.from_rows(["a"], [[True]])


def test_support_set_system_examples():
    assert support_set_system(TRIANGLE_TWO_LOOPS.matrix) == M0
    ground = GroundSet(("a", "b"))
    assert support_set_system(Gf2Matrix.zeros(ground)) == SetSystem(ground, (0,))
    assert support_set_system(Gf2Matrix.identity(ground)) == SetSystem(ground, (0, 1, 2, 3))
    big = Gf2Matrix.zeros(GroundSet(tuple(f"x{i}" for i in range(21))))
    with pytest.raises(SizeGuardError):
        support_set_system(big)


def minor_oracle(a):
    """The support by one rank per principal minor."""
    return tuple(x for x in range(1 << a.n) if det_nullity(a, x)[0])


@given(st.one_of(symmetric_matrices(), square_matrices()))
@settings(max_examples=200, deadline=None)
def test_support_recursion_matches_minors(a):
    assert support_set_system(a).family == minor_oracle(a)


def test_support_recursion_matches_minors_seeded():
    rng = random.Random(62)
    for n in list(range(13)) * 2:
        square = Gf2Matrix(GroundSet(tuple(f"x{i}" for i in range(n))), tuple(rng.randrange(1 << n) for _ in range(n)))
        for a in (square, random_symmetric_matrix(rng, n)):
            assert support_set_system(a).family == minor_oracle(a)


def test_support_recursion_small_and_non_symmetric():
    empty = Gf2Matrix(GroundSet(()), ())
    assert support_set_system(empty).family == (0,)
    for entry in (0, 1):
        one = Gf2Matrix.from_rows(["a"], [[entry]])
        assert support_set_system(one).family == minor_oracle(one) == ((0, 1) if entry else (0,))
    # upper triangular: every principal minor is the product of its diagonal
    # entries, so the support is the subsets of {a, c}; a recursion that takes
    # the Schur update from column i alone (right only for symmetric A) differs
    upper = Gf2Matrix.from_rows(["a", "b", "c"], [[1, 1, 1], [0, 0, 1], [0, 0, 1]])
    assert support_set_system(upper).family == minor_oracle(upper) == (0b000, 0b001, 0b100, 0b101)
    lower = Gf2Matrix.from_rows(["a", "b", "c"], [[1, 0, 0], [1, 0, 0], [1, 1, 1]])
    assert support_set_system(lower).family == (0b000, 0b001, 0b100, 0b101)


def test_ppt_identity_and_errors():
    a = TRIANGLE_TWO_LOOPS.matrix
    assert ppt(a, 0) == a
    with pytest.raises(PivotUndefinedError):
        ppt(a, ["q"])  # q has no loop: singular 1x1 block


def test_ppt_triangle_example():
    a = TRIANGLE_TWO_LOOPS.matrix
    assert support_set_system(ppt(a, ["p"])) == M0.pivot("p")


@given(symmetric_matrices())
@settings(max_examples=60, deadline=None)
def test_ppt_involution_and_symmetry(a):
    support = support_set_system(a)
    for x in support.family:
        if x == 0:
            continue
        b = ppt(a, x)
        assert b.is_symmetric
        assert ppt(b, x) == a
        break


@given(square_matrices())
@settings(max_examples=60, deadline=None)
def test_ppt_works_on_general_square_matrices(a):
    n = a.n
    for x in range(1, 1 << n):
        if det_nullity(a, x)[0]:
            assert ppt(ppt(a, x), x) == a
            break


@given(square_matrices(max_n=7), st.data())
@settings(max_examples=150, deadline=None)
def test_ppt_exchanges_the_pivoted_coordinates(a, data):
    """With y = Av, ppt(A, X) maps (y_X, v_X') to (v_X, y_X') for every v, X' the complement."""
    x = data.draw(st.integers(0, a.ground.full_mask))
    if not det_nullity(a, x)[0]:
        with pytest.raises(PivotUndefinedError):
            ppt(a, x)
        return
    b = ppt(a, x)
    rest = a.ground.full_mask & ~x

    def times(m, v):  # the product m v over GF(2)
        return sum(((row & v).bit_count() & 1) << i for i, row in enumerate(m.rows))

    for v in range(1 << a.n):
        y = times(a, v)
        assert times(b, (y & x) | (v & rest)) == (v & x) | (y & rest)


def test_ppt_composition_and_support_commutation():
    rng = random.Random(60)
    for _ in range(200):
        n = rng.randint(1, 7)
        a = random_symmetric_matrix(rng, n)
        support = support_set_system(a)
        members = [m for m in support.family if m]
        if not members:
            continue
        x = rng.choice(members)
        b = ppt(a, x)
        assert support_set_system(b) == support.pivot(x)
        y = rng.randrange(1 << n)
        if det_nullity(b, y)[0]:
            assert ppt(b, y) == ppt(a, x ^ y)


def test_nullity_distance_correspondence():
    rng = random.Random(61)
    for _ in range(100):
        n = rng.randint(1, 8)
        a = random_symmetric_matrix(rng, n)
        support = support_set_system(a)
        for x in range(1 << n):
            assert distance(support, x) == det_nullity(a, x)[1]


def test_schur_complement_block():
    a = TRIANGLE_TWO_LOOPS.matrix
    x = a.ground.mask_of(["p"])
    sc = schur_complement(a, x)
    assert sc.ground.labels == ("q", "r")
    full = ppt(a, x)
    for i, gi in enumerate((1, 2)):
        for j, gj in enumerate((1, 2)):
            assert sc.entry(i, j) == full.entry(gi, gj)
