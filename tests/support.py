"""Shared corpus generators for the test suite.

Everything is seeded so the suites are deterministic run to run.
"""

from __future__ import annotations

import random
from itertools import combinations
from math import comb

from deltapoly import (
    BiPoly,
    Gf2Matrix,
    Graph,
    GroundSet,
    Matroid,
    Representation,
    SetSystem,
    binary_matroid_from_matrix,
    graph_to_system,
)
from deltapoly.setsystem import iter_submasks

LABELS = "abcdefghijklmnopqrstuvwxyz"


def random_set_system(rng: random.Random, n: int, max_members: int | None = None) -> SetSystem:
    limit = 1 << n
    if max_members is None:
        max_members = limit
    k = rng.randint(1, min(limit, max_members))
    fam = rng.sample(range(limit), k)
    return SetSystem(GroundSet(tuple(LABELS[:n])), tuple(fam))


def wide_set_system(rng: random.Random, n: int, count: int = 300) -> SetSystem:
    """Empty set, full set, every singleton and up to count random members over e0 .. e{n-1}."""
    fam = {0, (1 << n) - 1, *(1 << i for i in range(n)), *(rng.randrange(1 << n) for _ in range(count))}
    return SetSystem(GroundSet(tuple(f"e{i}" for i in range(n))), tuple(fam))


def random_delta_matroids(seed: int, count: int, n_max: int = 6, n_min: int = 1) -> list[SetSystem]:
    """Rejection sampling: random families kept only if the exchange axiom holds."""
    from deltapoly import is_delta_matroid

    rng = random.Random(seed)
    out: list[SetSystem] = []
    while len(out) < count:
        n = rng.randint(n_min, n_max)
        system = random_set_system(rng, n, max_members=12)
        if is_delta_matroid(system):
            out.append(system)
    return out


def random_graph(rng: random.Random, n: int, edge_p: float = 0.5, loop_p: float = 0.5) -> Graph:
    vs = [LABELS[i] for i in range(n)]
    edges = [(vs[i], vs[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < edge_p]
    loops = [v for v in vs if rng.random() < loop_p]
    return Graph.from_edges(vs, edges, loops)


def random_graphs(seed: int, count: int, n_max: int, n_min: int = 1) -> list[Graph]:
    rng = random.Random(seed)
    return [random_graph(rng, rng.randint(n_min, n_max)) for _ in range(count)]


def random_symmetric_matrix(rng: random.Random, n: int) -> Gf2Matrix:
    rows = [0] * n
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Gf2Matrix(GroundSet(tuple(LABELS[:n])), tuple(rows))


def random_representation(rng: random.Random, max_cols: int, min_cols: int = 1) -> Representation:
    ncols = rng.randint(min_cols, max_cols)
    nrows = rng.randint(1, max(1, min(5, ncols + 1)))
    rows = [[rng.randint(0, 1) for _ in range(ncols)] for _ in range(nrows)]
    return Representation.from_rows([str(j + 1) for j in range(ncols)], rows)


def simple_representation(rng: random.Random, ncols: int, nrows: int) -> Representation:
    """Distinct nonzero columns: the representation of a simple binary matroid."""
    vectors = rng.sample(range(1, 1 << nrows), ncols)
    rows = [[v >> i & 1 for v in vectors] for i in range(nrows)]
    return Representation.from_rows([str(j + 1) for j in range(ncols)], rows)


def uniform_tutte(rank: int, size: int) -> BiPoly:
    """Closed form of the Tutte polynomial of U(rank, size), written without any rank computation."""
    if rank == 0:
        return BiPoly({(0, size): 1})
    if rank == size:
        return BiPoly({(size, 0): 1})
    coeffs = {(i, 0): comb(size - i - 1, rank - i) for i in range(1, rank + 1)}
    coeffs.update({(0, j): comb(size - j - 1, rank - 1) for j in range(1, size - rank + 1)})
    return BiPoly(coeffs)


def random_binary_matroids(seed: int, count: int, max_cols: int) -> list[Matroid]:
    rng = random.Random(seed)
    return [binary_matroid_from_matrix(random_representation(rng, max_cols)) for _ in range(count)]


def graphic_matroid(n_vertices: int, edges: list[tuple[int, int]]) -> Matroid:
    """Matroid of a simple graph on the edge set; bases are the maximal forests."""
    labels = [str(i + 1) for i in range(len(edges))]

    def components(chosen: tuple[int, ...]) -> int:
        parent = list(range(n_vertices))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = n_vertices
        for idx in chosen:
            a, b = edges[idx]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        return comps

    def acyclic(chosen: tuple[int, ...]) -> bool:
        return components(chosen) == n_vertices - len(chosen)

    full_rank = n_vertices - components(tuple(range(len(edges))))
    bases = [
        combo
        for combo in combinations(range(len(edges)), full_rank)
        if acyclic(combo)
    ]
    return Matroid.from_bases(labels, [[labels[i] for i in combo] for combo in bases])


def vf_closed_corpus(seed: int, count: int, n_max: int = 6, with_pivots: bool = True) -> list[SetSystem]:
    """Graph-derived vf-closed delta-matroids, optionally pivoted off normal form."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        g = random_graph(rng, rng.randint(1, n_max))
        system = graph_to_system(g)
        if with_pivots and rng.random() < 0.5:
            system = system.pivot(rng.randrange(1 << system.n))
        out.append(system)
    return out


def twisted_graph_systems(seed: int, count: int, n_min: int, n_max: int) -> list[SetSystem]:
    """Graph support systems pivoted off normal form by a seeded non-member."""
    rng = random.Random(seed)
    out = []
    for graph in random_graphs(seed=seed, count=count, n_max=n_max, n_min=n_min):
        system = graph_to_system(graph)
        members = set(system.family)
        outside = [x for x in range(1 << system.n) if x not in members]
        out.append(system.pivot(rng.choice(outside)))
    return out


M0 = SetSystem.from_sets(["p", "q", "r"], [[], ["p"], ["p", "q"], ["q", "r"], ["r"]])

FIG_ORBIT = [
    M0,
    SetSystem.from_sets(["p", "q", "r"], [[], ["q"], ["q", "r"], ["p", "q"], ["p", "q", "r"], ["p", "r"]]),
    SetSystem.from_sets(["p", "q", "r"], [[], ["q"], ["r"], ["p"], ["p", "q", "r"], ["p", "r"]]),
    SetSystem.from_sets(["p", "q", "r"], [[], ["p", "q"], ["q", "r"]]),
    SetSystem.from_sets(["p", "q", "r"], [["r"], ["p"], ["p", "q", "r"]]),
    SetSystem.from_sets(["p", "q", "r"], [["q", "r"], ["r"], ["p", "q"], ["p"], ["p", "q", "r"]]),
]

TRIANGLE_TWO_LOOPS = Graph.from_edges(
    ["p", "q", "r"], [("p", "q"), ("p", "r"), ("q", "r")], loops=["p", "r"]
)


def multivariate_Q_bruteforce(system: SetSystem) -> dict[tuple[int, int], int]:
    """Oracle for multivariate_Q(...).entries: for each C, in Gray-code order of its dual
    pivots, every B disjoint from C gets the minimum of |X Δ B| over the members X of F~*C."""
    n = system.n
    full = system.ground.full_mask
    entries = {}
    cur, cur_c = system, 0
    for g in range(1 << n):
        c = g ^ (g >> 1)
        if c != cur_c:
            cur, cur_c = cur.dual_pivot(c ^ cur_c), c
        for b in iter_submasks(full & ~c):
            entries[(b, c)] = min((b ^ m).bit_count() for m in cur.family)
    return entries
