"""Polynomial types and the interlace family: direct sums, the multivariate
table, specializations, flip behaviour, and evaluation identities."""

import inspect
import pathlib
import random

import pytest

import deltapoly
from deltapoly import (
    BiPoly,
    Graph,
    GroundSet,
    ImproperSystemError,
    SetSystem,
    SizeGuardError,
    UniPoly,
    distance,
    dual_pivot_min_distance,
    forced,
    full_flip_explicit,
    fundamental_graph,
    graph_poly,
    graph_to_system,
    is_delta_matroid,
    is_even,
    marked_bracket,
    multivariate_Q,
    permute_Q_under_flip,
    poly_direct,
    recursion_consistency,
    support_set_system,
    tutte,
    tutte_diagonal_check,
    tutte_evaluations,
    uniform_matroid,
)
from deltapoly.errors import size_guard
from support import (
    M0,
    TRIANGLE_TWO_LOOPS,
    multivariate_Q_bruteforce,
    random_set_system,
    twisted_graph_systems,
    wide_set_system,
)


def test_unipoly_arithmetic():
    p = UniPoly.from_coeffs([5, 3])
    q = UniPoly.from_coeffs([1, 1])
    assert (p + q).coeff_list() == [6, 4]
    assert (p * q).coeff_list() == [5, 8, 3]
    assert UniPoly.binomial_power(1, 3).coeff_list() == [1, 3, 3, 1]
    assert UniPoly.binomial_power(2, 2).coeff_list() == [4, 4, 1]
    assert p.evaluate(2) == 11
    assert p.evaluate(-2) == -1
    assert UniPoly.zero().coeff_list() == [0]
    assert p.text() == "3y + 5"


def test_polynomial_printer_golden():
    x, y = BiPoly.x(), BiPoly.y()
    cases = [
        (UniPoly.zero(), "0"),
        (UniPoly.const(-1), "-1"),
        (UniPoly({3: -2, 1: 1, 0: -1}), "-2y^3 + y - 1"),
        (UniPoly.from_coeffs([1, -1]), "-y + 1"),
        (UniPoly.binomial_power(-1, 3), "y^3 - 3y^2 + 3y - 1"),
        (UniPoly.from_coeffs([1, 2, 1]) - UniPoly.from_coeffs([1, 0, 3]), "-2y^2 + 2y"),
        (UniPoly.from_coeffs([0, 1]) - UniPoly.from_coeffs([0, 1]), "0"),
        (BiPoly.zero(), "0"),
        (BiPoly.const(-1), "-1"),
        (BiPoly({(2, 3): -1, (1, 0): 2, (0, 0): -1}), "-x^2y^3 + 2x - 1"),
        (BiPoly({(0, 3): -2, (0, 1): 1, (0, 0): -1}), "-2y^3 + y - 1"),
        (BiPoly.shifted_powers(1, 1), "xy - x - y + 1"),
        (x + y.scale(-1), "x - y"),
        (x * x * y.scale(-3) + x.scale(-1), "-3x^2y - x"),
    ]
    for poly, text in cases:
        assert poly.text() == text
        assert repr(poly) == f"{type(poly).__name__}({text})"


def test_polynomials_refuse_negative_exponents():
    for poly, key in ((BiPoly, (-1, 2)), (BiPoly, (2, -1)), (UniPoly, -1)):
        with pytest.raises(ValueError, match="negative exponent"):
            poly({key: 3})
        assert poly({key: 0}) == poly.zero()  # a zero coefficient is dropped, not checked


def test_unipoly_shift_variable():
    p = UniPoly.from_coeffs([3, 4, 1])  # y^2 + 4y + 3
    shifted = p.shift_variable(-1)
    assert shifted.coeff_list() == [0, 2, 1]  # y^2 + 2y
    assert p.shift_variable(1).shift_variable(-1) == p


def test_golden_polynomials():
    assert poly_direct(M0, "q1").coeff_list() == [5, 3]
    assert poly_direct(M0, "q2").coeff_list() == [3, 4, 1]
    assert poly_direct(M0, "q3").coeff_list() == [6, 2]
    assert poly_direct(M0, "Q1").coeff_list() == [16, 10, 1]


def test_multivariate_table_shape():
    table = multivariate_Q(M0)
    assert len(table) == 27
    assert table.entries[(M0.ground.full_mask, 0)] == 1
    point = SetSystem.from_sets([], [[]])
    tiny = multivariate_Q(point)
    assert len(tiny) == 1
    for which in ("Q1", "q1", "q2", "q3"):
        assert tiny.specialize(which) == UniPoly.const(1)
        assert poly_direct(point, which) == UniPoly.const(1)
    for kind in ("pivot", "loopc", "dualpivot"):
        assert full_flip_explicit(point, kind) == point


def test_single_member_system_q1_is_binomial_power():
    for n, member in [(1, ["a"]), (3, ["a", "c"]), (2, []), (9, ["b", "i"]), (12, ["a", "f", "l"])]:
        labels = list("abcdefghijkl"[:n])
        system = SetSystem.from_sets(labels, [member])
        assert poly_direct(system, "q1") == UniPoly.binomial_power(1, n)


def test_specialize_equals_direct(delta_corpus, vf_corpus):
    for system in delta_corpus[:60] + vf_corpus[:40]:
        table = multivariate_Q(system)
        for which in ("Q1", "q1", "q2", "q3"):
            assert table.specialize(which) == poly_direct(system, which)


def test_multivariate_table_matches_bruteforce(delta_corpus, vf_corpus):
    rng = random.Random(26)
    labels = list("abcdefgh")
    # {∅, {a}} is a delta-matroid whose dual pivot on a is {{a}}, so its entry (∅, {a}) is 1
    point_and_a = SetSystem.from_sets(["a"], [[], ["a"]])
    assert multivariate_Q(point_and_a).entries[(0, 1)] == 1
    edge_cases = [
        SetSystem.from_sets([], [[]]),
        SetSystem.from_sets(labels[:3], [[]]),
        SetSystem.from_sets(labels[:5], [["b", "d"]]),
        SetSystem(GroundSet(tuple(labels[:5])), tuple(range(1 << 5))),
        point_and_a,
    ]
    random_systems = [random_set_system(rng, n) for n in range(1, 9)]
    random_systems += [wide_set_system(rng, n, count=2 * n) for n in (4, 6, 8)]
    twisted = twisted_graph_systems(seed=26, count=4, n_min=5, n_max=8)
    for system in edge_cases + delta_corpus[:60] + vf_corpus[:40] + twisted + random_systems:
        assert multivariate_Q(system).entries == multivariate_Q_bruteforce(system), str(system)


def test_improper_rejected():
    bad = SetSystem.from_sets(["a"], [])
    for which in ("Q1", "q1", "q2", "q3"):
        with pytest.raises(ImproperSystemError):
            poly_direct(bad, which)
    with pytest.raises(ImproperSystemError):
        multivariate_Q(bad)
    # the whole-ground flips are defined on improper systems too
    for kind in ("pivot", "loopc", "dualpivot"):
        assert full_flip_explicit(bad, kind) == bad


def test_size_guard(monkeypatch):
    # at the real limit: 3^12 <= 2^20 < 3^13, so the pair sums stop at n = 12
    big = SetSystem.from_sets([f"x{i}" for i in range(13)], [[]])
    empty_graph = Graph.from_edges(big.ground.labels)
    for refused in (
        lambda: multivariate_Q(big),
        lambda: poly_direct(big, "Q1"),
        lambda: graph_poly(empty_graph, "Q1"),
    ):
        with pytest.raises(SizeGuardError, match="1,594,323 cells"):
            refused()
    assert poly_direct(big, "q1") == UniPoly.binomial_power(1, 13)
    # the 2^n sums stop at n = 20
    assert poly_direct(SetSystem.from_sets([f"x{i}" for i in range(20)], [[]]), "q1").degree == 20
    with pytest.raises(SizeGuardError):
        poly_direct(SetSystem.from_sets([f"x{i}" for i in range(21)], [[]]), "q1")

    # one monkeypatch moves every guard; inside forced() each call returns the unguarded value
    graph = TRIANGLE_TWO_LOOPS
    matroid = uniform_matroid(2, 4)
    triangle = uniform_matroid(2, 3)  # binary, so its fundamental graph recovers it
    calls = {
        "loopc": lambda: full_flip_explicit(M0, "loopc"),
        "dualpivot": lambda: full_flip_explicit(M0, "dualpivot"),
        "support": lambda: support_set_system(graph.matrix),
        "multivariate": lambda: multivariate_Q(M0).entries,
        "tutte": lambda: tutte(matroid),
        "tutte evaluations": lambda: tutte_evaluations(matroid, -1),
        "tutte diagonal": lambda: tutte_diagonal_check(matroid),
        "dual-pivot distance": lambda: dual_pivot_min_distance(M0),
        "fundamental graph": lambda: fundamental_graph(triangle, triangle.bases()[0]),
        "graph to system": lambda: graph_to_system(graph),
        "Q1 consistency": lambda: recursion_consistency(M0, "Q1"),
        "marked bracket": lambda: marked_bracket(graph, "p"),
        # not binary, so the brute force decides; built per call, so no kept verdict answers it
        "exchange axiom": lambda: is_delta_matroid(
            SetSystem.from_sets(["p", "q", "r"], [[], ["p"], ["q"], ["r"], ["p", "q", "r"]])
        ),
    }
    for which in ("Q1", "q1", "q2", "q3"):
        calls[f"direct {which}"] = lambda which=which: poly_direct(M0, which)
        calls[f"graph {which}"] = lambda which=which: graph_poly(graph, which)
    expected = {name: call() for name, call in calls.items()}
    monkeypatch.setattr("deltapoly.errors.MAX_CELLS", 4)
    for name, call in calls.items():
        with pytest.raises(SizeGuardError, match="over the limit of 4;"):
            call()
        with forced():
            assert call() == expected[name], name
        with pytest.raises(SizeGuardError, match="over the limit of 4;"):
            call()


def test_cell_limit_override_is_one_scope():
    # forced() is the only way past the cell limit: no public callable takes a force flag or a cap
    for name in deltapoly.__all__:
        obj = getattr(deltapoly, name)
        for member in [obj, *vars(obj).values()] if inspect.isclass(obj) else [obj]:
            member = getattr(member, "__func__", member)  # unwrap classmethods
            if inspect.isfunction(member):
                parameters = inspect.signature(member).parameters
                assert "force" not in parameters and "cap" not in parameters, (name, member)
    assert list(inspect.signature(size_guard).parameters) == ["cells", "what"]
    package = pathlib.Path(deltapoly.__file__).parent
    raises = [
        path.name
        for path in sorted(package.glob("*.py"))
        for line in path.read_text().splitlines()
        if "raise SizeGuardError" in line
    ]
    assert raises == ["errors.py"]
    # one module decides by the cell limit which route a check takes
    naming = [path.name for path in sorted(package.glob("*.py")) if "MAX_CELLS" in path.read_text()]
    assert naming == ["delta.py", "errors.py"]


def test_permutation_under_flips_matches_recomputation():
    table = multivariate_Q(M0)
    full = M0.ground.full_mask
    assert permute_Q_under_flip(table, "loopc", full) == multivariate_Q(full_flip_explicit(M0, "loopc"))
    assert permute_Q_under_flip(table, "pivot", "p") == multivariate_Q(M0.pivot("p"))
    assert permute_Q_under_flip(table, "dualpivot", ["p", "q"]) == multivariate_Q(M0.dual_pivot(["p", "q"]))
    assert permute_Q_under_flip(table, "loopc", 0) == table


def test_flip_invariances(vf_corpus):
    rng = random.Random(30)
    for system in vf_corpus[:30]:
        n = system.ground.n
        y = rng.randrange(1 << n)
        q1 = poly_direct(system, "q1")
        assert poly_direct(system.pivot(y), "q1") == q1
        q2 = poly_direct(system, "q2")
        assert poly_direct(system.loopc(y), "q2") == q2
        q3 = poly_direct(system, "q3")
        assert poly_direct(system.dual_pivot(y), "q3") == q3
        big = poly_direct(system, "Q1")
        for image in (system.pivot(y), system.loopc(y), system.dual_pivot(y)):
            assert poly_direct(image, "Q1") == big


def test_triangle_relations(delta_corpus):
    for system in delta_corpus[:40]:
        full = system.ground.full_mask
        assert poly_direct(system, "q2") == poly_direct(full_flip_explicit(system, "dualpivot"), "q1")
        assert poly_direct(system, "q3") == poly_direct(full_flip_explicit(system, "loopc"), "q1")
        assert poly_direct(system, "q3") == poly_direct(system.pivot(full), "q2")


def test_normal_decomposition(vf_corpus):
    # the whole-family polynomial decomposes over restrictions for normal inputs
    for system in vf_corpus[:25]:
        if not system.is_normal:
            continue
        total = UniPoly.zero()
        for x in range(1 << system.ground.n):
            total = total + poly_direct(system.restrict(x), "q2")
        assert total == poly_direct(system, "Q1")


def test_value_examples_golden():
    assert poly_direct(M0, "q1").evaluate(1) == 8
    assert poly_direct(M0, "Q1").evaluate(1) == 27
    assert poly_direct(M0, "q1").evaluate(0) == 5


def test_value_identities(delta_corpus):
    for system in delta_corpus[:80]:
        n = system.ground.n
        for which in ("q1", "q2", "q3"):
            assert poly_direct(system, which).evaluate(1) == 2**n
        assert poly_direct(system, "Q1").evaluate(1) == 3**n
        assert poly_direct(system, "q1").evaluate(0) == len(system)


def test_even_evaluation_and_counterexample(delta_corpus):
    for system in delta_corpus[:120]:
        if system.ground.n > 0 and is_even(system):
            assert poly_direct(system, "q1").evaluate(-1) == 0
    # without evenness the value is generally nonzero
    labels = ["a", "b", "c"]
    power = SetSystem(GroundSet(tuple(labels)), tuple(range(8)))
    q1 = poly_direct(power, "q1")
    assert q1 == UniPoly.const(8)
    assert q1.evaluate(-1) == 8


def test_vf_closed_evaluations(vf_corpus):
    for system in vf_corpus[:60]:
        n = system.ground.n
        sign = (-1) ** n
        full = system.ground.full_mask
        if n > 0:
            assert poly_direct(system, "Q1").evaluate(-2) == 0
        d_dual = dual_pivot_min_distance(system)
        assert poly_direct(system, "q1").evaluate(-2) == sign * (-2) ** d_dual
        assert poly_direct(system, "q2").evaluate(-2) == sign * (-2) ** distance(system, 0)
        d_star = distance(system.pivot(full), 0)
        assert poly_direct(system, "q3").evaluate(-2) == sign * (-2) ** d_star


def test_modular_evaluations_weak_forms(vf_corpus):
    """What actually holds for the shifted evaluations at even offsets.

    The quotient by the signed power of two is always an exact integer,
    and it is congruent to (-1)^n modulo p divided by the shared power of
    two.  When p is a multiple of four the quotient is odd and the
    congruence holds modulo p/2.  The stronger claims (odd quotient and
    full mod-p congruence for every even p) fail, e.g. for the support
    system of a four-element star.
    """
    from math import gcd

    for system in vf_corpus[:60]:
        n = system.ground.n
        d = dual_pivot_min_distance(system)
        q1 = poly_direct(system, "q1")
        base = (-2) ** d
        for p in (2, -2, 4, -4, 6, 8):
            value = q1.evaluate(p - 2)
            assert value % base == 0  # exact divisibility
            k = value // base
            weak_mod = abs(p) // gcd(abs(p), 2**d)
            assert (k - (-1) ** n) % weak_mod == 0
            if p % 4 == 0:
                assert abs(k) % 2 == 1
                assert (k - (-1) ** n) % (abs(p) // 2) == 0


def test_star_counterexample_to_strong_modular_claim():
    """The four-element star's support system defeats the strong claims."""
    star = SetSystem.from_sets(
        ["1", "2", "3", "4"], [[], ["1", "4"], ["2", "4"], ["3", "4"]]
    )
    q1 = poly_direct(star, "q1")
    assert q1.coeff_list() == [4, 7, 4, 1]
    d = dual_pivot_min_distance(star)
    assert d == 1
    assert q1.evaluate(-2) == (-1) ** 4 * (-2) ** d  # the exact identity holds
    k = q1.evaluate(0) // (-2) ** d
    assert k == -2  # even quotient: "k odd" cannot hold at p = 2
    k4 = q1.evaluate(2) // (-2) ** d
    assert k4 == -21 and k4 % 4 == 3  # not congruent to (-1)^4 = 1 mod 4
