"""Core set-system behaviour: flips, distance, restriction, orbits."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from deltapoly import (
    GroundSet,
    GroundSetError,
    ImproperSystemError,
    SetSystem,
    SizeGuardError,
    distance,
    forced,
    full_flip_explicit,
    graph_to_system,
    vf_orbit,
)
from deltapoly.setsystem import pack_bits
from support import FIG_ORBIT, M0, random_graph


@st.composite
def systems(draw, max_n=5, min_members=0):
    n = draw(st.integers(min_value=0, max_value=max_n))
    limit = 1 << n
    members = draw(
        st.lists(st.integers(0, limit - 1), min_size=min_members, max_size=min(limit, 10), unique=True)
    )
    return SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(members))


@st.composite
def proper_systems_with_element(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    limit = 1 << n
    members = draw(st.lists(st.integers(0, limit - 1), min_size=1, max_size=min(limit, 10), unique=True))
    u = draw(st.integers(0, n - 1))
    return SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(members)), 1 << u


def test_ground_set_validation():
    with pytest.raises(GroundSetError):
        GroundSet(("a", "a"))
    with pytest.raises(GroundSetError):
        GroundSet(tuple(f"x{i}" for i in range(63)))
    g = GroundSet(("p", "q"))
    assert g.index("q") == 1
    with pytest.raises(GroundSetError):
        g.index("z")
    with pytest.raises(GroundSetError):
        g.mask_of(["p", "p"])


def test_family_is_canonical():
    s = SetSystem.from_sets(["a", "b"], [["b"], [], ["b"], ["a", "b"]])
    assert s.family == (0, 2, 3)


def test_member_outside_ground_rejected():
    g = GroundSet(("a",))
    with pytest.raises(GroundSetError):
        SetSystem(g, (2,))


def test_ascending_family_is_kept_and_still_checked():
    g = GroundSet(("a", "b"))
    family = (0, 1, 3)
    assert SetSystem(g, family).family is family
    for ascending in ((0, 4), (-1, 2), (0, 1, 2, 3, 5)):
        with pytest.raises(GroundSetError, match="has bits outside the ground set"):
            SetSystem(g, ascending)
    # a member that is not an int is refused wherever it stands
    for mixed in ((1, "a"), ("a",), (0, "a", 3), (0, 1.5), (0, 0.5, 1)):
        with pytest.raises(TypeError):
            SetSystem(g, mixed)


def test_predicate_examples():
    assert M0.is_proper and M0.is_normal and not M0.is_equicardinal
    empty_ground = SetSystem.from_sets([], [[]])
    assert empty_ground.is_proper and empty_ground.is_normal and empty_ground.is_equicardinal
    assert not SetSystem.from_sets(["a", "b"], []).is_proper


def test_pivot_examples():
    base = SetSystem.from_sets(["a", "b"], [[]])
    assert base.pivot("a") == SetSystem.from_sets(["a", "b"], [["a"]])
    assert M0.pivot(0) == M0


def test_loopc_single_example():
    out = M0.loopc("p")
    expected = SetSystem.from_sets(
        ["p", "q", "r"],
        [[], ["p", "q"], ["q", "r"], ["r"], ["p", "q", "r"], ["p", "r"]],
    )
    assert out == expected


def test_loopc_full_ground_matches_figure():
    assert M0.loopc(["p", "q", "r"]) == FIG_ORBIT[1]


def test_full_flip_explicit_examples():
    assert full_flip_explicit(FIG_ORBIT[1], "pivot") == FIG_ORBIT[2]
    one = SetSystem.from_sets(["a"], [[]])
    assert full_flip_explicit(one, "loopc") == SetSystem.from_sets(["a"], [[], ["a"]])
    # membership of the empty set in the dual flip follows family parity
    dual = full_flip_explicit(M0, "dualpivot")
    assert 0 in dual.family  # M0 has an odd number of members


def _graph_system(n: int) -> SetSystem:
    return graph_to_system(random_graph(random.Random(n), n))


@given(systems(max_n=12))
@settings(max_examples=80)
@example(_graph_system(9))
@example(_graph_system(10))
@example(_graph_system(11))
@example(_graph_system(12))
@example(SetSystem(GroundSet(tuple(f"e{i}" for i in range(10))), ()))
def test_full_flip_explicit_equals_composition(system):
    full = system.ground.full_mask
    assert full_flip_explicit(system, "pivot") == system.pivot(full)
    assert full_flip_explicit(system, "loopc") == system.loopc(full)
    assert full_flip_explicit(system, "dualpivot") == system.dual_pivot(full)


@given(proper_systems_with_element())
@settings(max_examples=80)
def test_flips_are_involutions(case):
    system, bit = case
    for flip in (SetSystem.pivot, SetSystem.loopc, SetSystem.dual_pivot):
        assert flip(flip(system, bit), bit) == system


@given(proper_systems_with_element())
@settings(max_examples=60)
def test_same_element_braid_relation(case):
    system, bit = case
    left = system.loopc(bit).pivot(bit).loopc(bit)
    right = system.pivot(bit).loopc(bit).pivot(bit)
    assert left == right
    assert system.dual_pivot(bit) == left


_WIDE = GroundSet(tuple(f"e{i}" for i in range(62)))


@given(proper_systems_with_element())
@settings(max_examples=80)
@example((M0, 1))
@example((M0, 1 << 2))
@example((SetSystem(_WIDE, (0, 3, 1 << 61, (1 << 61) | 5, _WIDE.full_mask)), 1 << 61))
@example((SetSystem(GroundSet(("a", "b")), ()), 1))
def test_minors_match_the_flip_compositions(case):
    system, bit = case
    minors = system.minors(bit)
    assert minors == (system.delete(bit), system.pivot(bit).delete(bit))
    # the dual-pivot-deletion minor is the symmetric difference of the two
    deletion, pivot_deletion = (set(minor.family) for minor in minors)
    assert deletion ^ pivot_deletion == set(system.dual_pivot(bit).delete(bit).family)
    assert system.minors(system.ground.labels[bit.bit_length() - 1]) == minors


def test_minors_refuse_anything_but_one_element():
    with pytest.raises(ValueError, match="single element"):
        M0.minors(0b11)
    with pytest.raises(GroundSetError):
        M0.minors("z")


def test_single_element_flips_generate_six_maps():
    bit = M0.ground.bit("p")
    words = [(), ("p",), ("l",), ("p", "l"), ("l", "p"), ("l", "p", "l")]
    images = set()
    for word in words:
        cur = M0
        for w in word:
            cur = cur.pivot(bit) if w == "p" else cur.loopc(bit)
        images.add(cur.family)
    assert len(images) == 6


@given(systems(max_n=5), st.randoms(use_true_random=False))
@settings(max_examples=60)
def test_multi_element_flips_are_order_independent(system, rnd):
    n = system.ground.n
    if n == 0:
        return
    x = rnd.randrange(1 << n)
    bits = [1 << i for i in range(n) if x >> i & 1]
    rnd.shuffle(bits)
    for flip in (SetSystem.loopc, SetSystem.dual_pivot):
        shuffled = system
        for bit in bits:
            shuffled = flip(shuffled, bit)
        assert shuffled == flip(system, x)


@given(systems(max_n=5))
@settings(max_examples=60)
def test_distinct_element_flips_commute(system):
    if system.ground.n < 2:
        return
    u, v = 1, 2
    flips = (SetSystem.pivot, SetSystem.loopc, SetSystem.dual_pivot)
    for a in flips:
        for b in flips:
            assert b(a(system, u), v) == a(b(system, v), u)


@given(systems(max_n=5))
@settings(max_examples=60)
def test_flip_and_removal_commute(system):
    if system.ground.n < 2:
        return
    u, v = 1, 2
    assert system.loopc(u).delete(v) == system.delete(v).loopc("e0")
    assert system.pivot(u).delete(v) == system.delete(v).pivot("e0")
    assert system.loopc(u).delete(u) == system.delete(u)


@given(proper_systems_with_element())
@settings(max_examples=60)
def test_distance_under_flips(case):
    system, bit = case
    n = system.ground.n
    for x in range(1 << n):
        z = bit
        assert distance(system.pivot(z), x) == distance(system, x ^ z)
        assert distance(system.loopc(z), 0) == distance(system, 0)


def test_distance_examples():
    assert distance(M0, 0) == 0
    assert distance(M0, ["p", "q", "r"]) == 1
    assert distance(FIG_ORBIT[1], 0) == 0
    with pytest.raises(ImproperSystemError):
        distance(SetSystem.from_sets(["a"], []), 0)


def test_restrict_delete_examples():
    assert M0.delete("p") == SetSystem.from_sets(["q", "r"], [[], ["q", "r"], ["r"]])
    assert M0.pivot("p").delete("p") == SetSystem.from_sets(["q", "r"], [[], ["q"]])
    assert M0.restrict(0) == SetSystem.from_sets([], [[]])
    assert M0.restrict(["q", "r"]) == SetSystem.from_sets(["q", "r"], [[], ["q", "r"], ["r"]])
    # deletion can produce an improper system: that is legal output
    gone = SetSystem.from_sets(["a", "b"], [["a", "b"]]).restrict("a")
    assert not gone.is_proper


@st.composite
def systems_with_subset(draw, max_n=5):
    system = draw(systems(max_n))
    return system, draw(st.integers(0, system.ground.full_mask))


@given(systems_with_subset())
@settings(max_examples=100)
@example((M0, 0))
@example((M0, M0.ground.full_mask))
@example((SetSystem(_WIDE, (0, 3, 1 << 61, (1 << 61) | 5, _WIDE.full_mask)), (1 << 61) | 0b1011))
@example((SetSystem(_WIDE, (0, 3, 1 << 61, (1 << 61) | 5, _WIDE.full_mask)), _WIDE.full_mask))
def test_restrict_matches_pack_bits(case):
    system, x = case

    def pack_one(value, mask):  # the per-bit oracle: bit at the k-th position of mask -> bit k
        packed = 0
        for k, i in enumerate(i for i in range(mask.bit_length()) if mask >> i & 1):
            packed |= (value >> i & 1) << k
        return packed

    kept = [m for m in system.family if not m & ~x]
    assert system.restrict(x).family == tuple(pack_one(m, x) for m in kept)
    assert pack_bits(system.family, x) == tuple(pack_one(m, x) for m in system.family)


def test_pack_bits_examples():
    assert pack_bits([0b1010, 0b0110, 0], 0b1110) == (0b101, 0b011, 0)
    assert pack_bits([0b1111], 0) == (0,)
    assert pack_bits([(1 << 62) - 1, 1 << 61], (1 << 61) | 1) == (0b11, 0b10)
    assert pack_bits([], 0b101) == ()


def test_labels_survive_operations():
    out = M0.delete("q")
    assert out.ground.labels == ("p", "r")
    assert out.pivot("r").ground.labels == ("p", "r")


def test_vertex_flip_word():
    assert M0.loopc(7).pivot(7) == FIG_ORBIT[2]


def test_orbit_full_alternation_matches_figure():
    orbit = vf_orbit(M0, "fullV-alternation")
    assert orbit == FIG_ORBIT
    # six alternating whole-ground flips return to the start
    cur = M0
    for i in range(6):
        cur = full_flip_explicit(cur, "loopc" if i % 2 == 0 else "pivot")
    assert cur == M0


def test_orbit_trivial_and_cell_limit(monkeypatch):
    one = SetSystem.from_sets([], [[]])
    assert vf_orbit(one, "fullV-alternation") == [one]
    orbit = vf_orbit(M0, "all-single-element-flips")
    # 54 systems hold 256 members, the input's 5 included
    assert len(orbit) == 54 and sum(len(s) for s in orbit) == 256
    monkeypatch.setattr("deltapoly.errors.MAX_CELLS", 255)
    with pytest.raises(SizeGuardError, match="orbit at n=3 needs 256 cells, over the limit of 255;"):
        vf_orbit(M0, "all-single-element-flips")
    with forced():
        assert vf_orbit(M0, "all-single-element-flips") == orbit


def test_orbit_single_flips_closed():
    from deltapoly import is_delta_matroid

    orbit = vf_orbit(M0, "all-single-element-flips")
    fams = {s.family for s in orbit}
    for s in orbit:
        for i in range(3):
            assert s.pivot(1 << i).family in fams
            assert s.loopc(1 << i).family in fams
        assert is_delta_matroid(s)  # graph-derived systems stay delta-matroids
