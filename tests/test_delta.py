"""Delta-matroid predicates, divisibility, vf-closure, distance triples."""

import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltapoly import (
    DivisibilityStatus,
    Gf2Matrix,
    GroundSet,
    ImproperSystemError,
    NotAGraphError,
    SetSystem,
    SizeGuardError,
    distance,
    distance_triple,
    divisibility,
    forced,
    is_delta_matroid,
    is_even,
    is_vf_closed,
    support_set_system,
    system_to_graph,
    uniform_matroid,
    vf_orbit,
)
from deltapoly.delta import _exchange_axiom, _flip_images_are_delta_matroids
from support import M0, random_graphs, random_set_system, twisted_graph_systems
from deltapoly import graph_to_system


def powerset_system(labels, include_empty=True):
    n = len(labels)
    start = 0 if include_empty else 1
    masks = range(start, 1 << n) if not include_empty else range(1 << n)
    return SetSystem(GroundSet(tuple(labels)), tuple(masks))


def test_is_delta_matroid_examples():
    assert is_delta_matroid(M0)
    assert not is_delta_matroid(SetSystem.from_sets(["a", "b", "c"], [[], ["a", "b", "c"]]))
    assert is_delta_matroid(SetSystem.from_sets(["a", "b"], [["a"], ["b"]]))
    assert not is_delta_matroid(SetSystem.from_sets(["a"], []))


LABELS3 = ["1", "2", "3"]
NON_BINARY = [
    uniform_matroid(2, 4).carrier,
    uniform_matroid(2, 6).carrier,
    powerset_system(["1", "2", "3", "4"], include_empty=False),
    # the criterion-04 counterexample: every nonempty subset
    SetSystem.from_sets(LABELS3, [list(c) for k in range(1, 4) for c in combinations(LABELS3, k)]),
]


@st.composite
def exchange_inputs(draw):
    """A twisted graph support system with one to three members toggled, or an equicardinal family."""
    n = draw(st.integers(0, 7))
    ground = GroundSet(tuple(f"e{i}" for i in range(n)))
    if n and draw(st.booleans()):
        rows = [0] * n
        for i in range(n):
            for j in range(i, n):
                if draw(st.booleans()):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        subsets = st.integers(0, (1 << n) - 1)
        twisted = support_set_system(Gf2Matrix(ground, tuple(rows))).pivot(draw(subsets))
        toggles = draw(st.sets(subsets, min_size=1, max_size=3))
        return SetSystem(ground, tuple(set(twisted.family) ^ toggles))
    r = draw(st.integers(0, n))
    candidates = [sum(1 << i for i in c) for c in combinations(range(n), r)]
    return SetSystem(ground, tuple(draw(st.sets(st.sampled_from(candidates), min_size=1))))


@given(exchange_inputs())
@settings(max_examples=300, deadline=None)
@example(NON_BINARY[0])
@example(NON_BINARY[1])
@example(NON_BINARY[2])
@example(NON_BINARY[3])
def test_is_delta_matroid_matches_exchange_axiom(system):
    assert is_delta_matroid(system) == _exchange_axiom(system), system


def test_is_even_examples():
    assert is_even(SetSystem.from_sets(["a", "b"], [[], ["a", "b"]]))
    assert not is_even(M0)
    assert is_even(uniform_matroid(2, 4).carrier)
    with pytest.raises(ImproperSystemError):
        is_even(SetSystem.from_sets(["a"], []))


def test_divisibility_examples():
    status = divisibility(M0, "p")
    assert status.divisible and status.strongly_divisible
    single = SetSystem.from_sets(["a", "b", "c"], [["a", "b"]])
    assert not divisibility(single, "a").divisible
    power = powerset_system(["a", "b", "c"])
    status = divisibility(power, "a")
    assert status.divisible and not status.strongly_divisible
    # a loop of a 2^12-member family: the existential pair scan would visit all 2^24 pairs
    loop = SetSystem(GroundSet(tuple(f"x{i}" for i in range(13))), tuple(range(1 << 12)))
    assert divisibility(loop, "x12") == DivisibilityStatus(False, False)


def test_strong_implies_divisible():
    rng = random.Random(17)
    for _ in range(200):
        system = random_set_system(rng, rng.randint(1, 5))
        for i in range(system.ground.n):
            status = divisibility(system, 1 << i)
            assert status.divisible or not status.strongly_divisible
            # the existential definition: some two members differ in the element
            exists_pair = any((x ^ y) >> i & 1 for x in system.family for y in system.family)
            assert status.divisible == exists_pair
            # members with and members without the element
            bit = 1 << i
            with_e = [m for m in system.family if m & bit]
            assert status.divisible == (0 < len(with_e) < len(system.family))
            # divisible, and some member's toggle by the element is not a member
            toggle_missing = any(m ^ bit not in system.family for m in system.family)
            assert status.strongly_divisible == (status.divisible and toggle_missing)


def test_strong_divisibility_is_flip_invariant():
    rng = random.Random(18)
    for _ in range(200):
        system = random_set_system(rng, rng.randint(1, 4))
        for i in range(system.ground.n):
            bit = 1 << i
            strong = divisibility(system, bit).strongly_divisible
            for image in (system.pivot(bit), system.loopc(bit), system.dual_pivot(bit)):
                assert divisibility(image, bit).strongly_divisible == strong


def test_strong_divisibility_orbit_characterization():
    rng = random.Random(19)
    for _ in range(60):
        system = random_set_system(rng, rng.randint(1, 4))
        strong = any(
            divisibility(system, 1 << i).strongly_divisible for i in range(system.ground.n)
        )
        orbit = vf_orbit(system, "all-single-element-flips")
        assert strong == all(len(s) >= 2 for s in orbit)
        if not strong:
            # some image collapses to the single empty member
            assert any(s.family == (0,) for s in orbit)


def test_vf_closed_fixtures():
    assert is_vf_closed(uniform_matroid(2, 4).carrier)
    assert not is_vf_closed(uniform_matroid(2, 6).carrier)
    assert not is_vf_closed(powerset_system(["1", "2", "3"], include_empty=False))
    for graph in random_graphs(seed=77, count=10, n_max=4):
        assert is_vf_closed(graph_to_system(graph))


def vf_closed_by_orbit(system):
    """Definition-level oracle: every member of the single-flip orbit is a delta-matroid."""
    orbit = vf_orbit(system, "all-single-element-flips")
    return all(is_delta_matroid(s) for s in orbit)


def test_vf_closed_matches_bruteforce_orbit():
    rng = random.Random(21)
    for _ in range(60):
        system = random_set_system(rng, rng.randint(1, 4))
        assert is_vf_closed(system) == vf_closed_by_orbit(system)
    # binary inputs take the fast path; the enumeration must agree on them
    for system in twisted_graph_systems(seed=27, count=6, n_min=4, n_max=5):
        assert is_vf_closed(system) and vf_closed_by_orbit(system)
        assert _flip_images_are_delta_matroids(system)
    # non-binary fixtures: no graph round trip, so the enumeration decides
    labels = ["1", "2", "3"]
    cex = SetSystem.from_sets(labels, [list(c) for k in range(1, 4) for c in combinations(labels, k)])
    u24 = uniform_matroid(2, 4).carrier
    for system, expected in [
        (u24, True),
        (powerset_system(labels, include_empty=False), False),
        (cex, False),
    ]:
        with pytest.raises(NotAGraphError):
            system_to_graph(system.pivot(system.family[0]))
        assert is_vf_closed(system) == vf_closed_by_orbit(system) == expected
    # U(2,6): its full orbit takes seconds, so one failing image stands witness
    u26 = uniform_matroid(2, 6).carrier
    assert not is_vf_closed(u26)
    assert not is_delta_matroid(u26.loopc(u26.ground.coerce(["1", "2", "3", "4"])))


def test_vf_closed_fast_path_matches_enumeration(delta_corpus, vf_corpus):
    for system in delta_corpus + [s for s in vf_corpus if s.n <= 5]:
        exchange = _exchange_axiom(system)
        assert is_delta_matroid(system) == exchange, system
        by_enumeration = exchange and _flip_images_are_delta_matroids(system)
        assert is_vf_closed(system) == by_enumeration


def test_each_verdict_is_computed_once_per_system(monkeypatch):
    # fresh labels: no equal system is alive elsewhere with a kept verdict
    system = powerset_system(["w1", "w2", "w3", "w4"], include_empty=False)
    pivoted = system.pivot(system.family[0])
    runs = {"round trip": 0, "brute force": 0}

    def counting(name, fn, subject):
        def counted(s):
            runs[name] += s == subject
            return fn(s)

        return counted

    monkeypatch.setattr("deltapoly.delta.system_to_graph", counting("round trip", system_to_graph, pivoted))
    monkeypatch.setattr("deltapoly.delta._exchange_axiom", counting("brute force", _exchange_axiom, system))
    closed = is_vf_closed(system)  # non-binary and not equicardinal: both steps run
    assert is_delta_matroid(system) and is_vf_closed(system) == closed
    assert runs == {"round trip": 1, "brute force": 1}
    assert closed == _flip_images_are_delta_matroids(system)


def test_vf_closed_cell_limit(monkeypatch):
    # a binary input enumerates no image; a small MAX_CELLS would switch the certificate off too
    twisted = twisted_graph_systems(seed=10, count=1, n_min=10, n_max=10)[0]
    assert not twisted.is_normal

    def no_images(system):
        raise AssertionError("a binary input enumerated its flip images")

    with monkeypatch.context() as patch:
        patch.setattr("deltapoly.delta._flip_images_are_delta_matroids", no_images)
        assert is_vf_closed(twisted)
    # U(2,4) is not binary: its 80 images of at most 11 members have a sum of |F|^2 of 7,962;
    # the first three, of 9 members each, pass 200 at 243
    u24 = uniform_matroid(2, 4).carrier
    monkeypatch.setattr("deltapoly.errors.MAX_CELLS", 200)
    with pytest.raises(SizeGuardError, match="flip images at n=4 needs 243 cells, over the limit of 200;"):
        is_vf_closed(u24)
    with forced():
        assert is_vf_closed(u24)


def test_delta_matroids_closed_under_pivot_and_deletion(delta_corpus):
    rng = random.Random(22)
    for system in delta_corpus[:60]:
        x = rng.randrange(1 << system.ground.n)
        assert is_delta_matroid(system.pivot(x))
        for i in range(system.ground.n):
            minor = system.delete(1 << i)
            if minor.is_proper:
                assert is_delta_matroid(minor)


def test_distance_invariant_under_proper_restriction(delta_corpus):
    for system in delta_corpus[:80]:
        n = system.ground.n
        for x in range(1 << n):
            part = system.restrict(x)
            if part.is_proper:
                assert distance(part, 0) == distance(system, 0)


def test_distance_triple_examples():
    assert distance_triple(M0, "p") == (0, 0, 1)
    assert distance_triple(SetSystem.from_sets(["a"], [["a"]]), "a") == (1, 0, 0)
    assert distance_triple(SetSystem.from_sets(["a", "b"], [[], ["a", "b"]]), "a") == (0, 1, 0)


def test_distance_triple_shape_on_delta_matroids(delta_corpus):
    for system in delta_corpus[:120]:
        for i in range(system.ground.n):
            triple = sorted(distance_triple(system, 1 << i))
            assert triple[0] == triple[1] and triple[2] == triple[0] + 1


def test_matroid_carriers_are_delta_matroids():
    for rank, size in [(1, 3), (2, 4), (3, 5), (0, 2)]:
        assert is_delta_matroid(uniform_matroid(rank, size).carrier)
