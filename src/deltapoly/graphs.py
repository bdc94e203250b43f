"""Graphs as symmetric GF(2) matrices with loops on the diagonal.

The support system of the adjacency matrix embeds graphs into set
systems; pivots become principal pivot transforms and loop
complementation toggles the diagonal.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import NotAGraphError, PivotUndefinedError, size_guard
from .gf2 import Gf2Matrix, det_nullity, ppt, support_set_system
from .interlace import UniPoly, Which
from .setsystem import GroundSet, Mask, SetSystem, Subset, iter_submasks


@dataclass(frozen=True)
class Graph:
    """Undirected graph without parallel edges, loops allowed."""

    matrix: Gf2Matrix

    def __post_init__(self) -> None:
        if not self.matrix.is_symmetric:
            raise ValueError("adjacency matrix must be symmetric")

    @classmethod
    def from_edges(
        cls,
        vertices: Sequence[str],
        edges: Iterable[tuple[str, str]] = (),
        loops: Iterable[str] = (),
    ) -> "Graph":
        ground = GroundSet(tuple(vertices))
        rows = [0] * ground.n
        for u, v in edges:
            i, j = ground.index(u), ground.index(v)
            if i == j:
                raise ValueError(f"edge {u!r}-{v!r} is a loop; list it under loops")
            rows[i] |= 1 << j
            rows[j] |= 1 << i
        for u in loops:
            i = ground.index(u)
            rows[i] |= 1 << i
        return cls(Gf2Matrix(ground, tuple(rows)))

    @property
    def ground(self) -> GroundSet:
        return self.matrix.ground

    @property
    def n(self) -> int:
        return self.matrix.n

    def vertices(self) -> tuple[str, ...]:
        return self.ground.labels

    def edges(self) -> list[tuple[str, str]]:
        out = []
        labels = self.ground.labels
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.matrix.entry(i, j):
                    out.append((labels[i], labels[j]))
        return out

    def loops(self) -> list[str]:
        return [lab for i, lab in enumerate(self.ground.labels) if self.matrix.entry(i, i)]

    def has_loop(self, vertex) -> bool:
        i = (self.ground.coerce(vertex)).bit_length() - 1
        return bool(self.matrix.entry(i, i))

    def neighbors(self, vertex) -> Mask:
        """Neighbourhood mask, the vertex itself excluded."""
        bit = self.ground.coerce(vertex)
        i = bit.bit_length() - 1
        return self.matrix.rows[i] & ~bit

    def induced(self, subset: Subset) -> "Graph":
        return Graph(self.matrix.principal(subset))

    def delete(self, subset: Subset) -> "Graph":
        x = self.ground.coerce(subset)
        return self.induced(self.ground.full_mask & ~x)

    def __str__(self) -> str:
        es = ",".join(f"{u}-{v}" for u, v in self.edges())
        ls = ",".join(self.loops())
        return f"Graph(V={{{','.join(self.vertices())}}}, E={{{es}}}, loops={{{ls}}})"


def graph_to_system(graph: Graph) -> SetSystem:
    """Support system of the adjacency matrix; always a normal vf-closed delta-matroid."""
    return support_set_system(graph.matrix)


def system_to_graph(system: SetSystem) -> Graph:
    """Reconstruct the unique graph whose support system matches, if any.

    Loops are the singleton members; an edge is present iff the pair's
    membership differs from the conjunction of its endpoints' loop flags.
    The round trip is verified and failure raises NotAGraphError.
    """
    graph = _candidate_graph(system)
    if support_set_system(graph.matrix) != system:
        raise NotAGraphError("set system is not the support system of a graph")
    return graph


def _candidate_graph(system: SetSystem) -> Graph:
    """The only graph whose support system can match: read off members of size 1 and 2."""
    ground = system.ground
    n = ground.n
    fam = set(system.family)
    rows = [0] * n
    for i in range(n):
        if (1 << i) in fam:
            rows[i] |= 1 << i
    for i in range(n):
        for j in range(i + 1, n):
            pair_in = ((1 << i) | (1 << j)) in fam
            both_loops = bool(rows[i] & (1 << i)) and bool(rows[j] & (1 << j))
            if pair_in ^ both_loops:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph(Gf2Matrix(ground, tuple(rows)))


def graph_flip(graph: Graph, kind, subset: Subset) -> Graph:
    """Matrix-level vertex flip whose support system tracks the set-system flip.

    Loop complementation toggles the diagonal.  Pivot needs a nonsingular
    principal submatrix.  Dual pivot runs element by element as loopc,
    pivot, loopc; it exists exactly when the element has no loop.
    """
    x = graph.ground.coerce(subset)
    if kind == "loopc":
        return Graph(graph.matrix.with_toggled_diagonal(x))
    if kind == "pivot":
        return Graph(ppt(graph.matrix, x))
    if kind == "dualpivot":
        out = graph
        while x:
            bit = x & -x
            x ^= bit
            out = graph_flip(out, "loopc", bit)
            out = graph_flip(out, "pivot", bit)
            out = graph_flip(out, "loopc", bit)
        return out
    raise ValueError(f"unknown flip kind {kind!r}")


def local_complement(graph: Graph, vertex) -> Graph:
    """Pivot on a looped vertex, the classical local complementation."""
    bit = graph.ground.coerce(vertex)
    if not graph.has_loop(vertex):
        raise PivotUndefinedError("local complementation needs a loop at the vertex")
    return graph_flip(graph, "pivot", bit)


def loopless_local_complement(graph: Graph, vertex) -> Graph:
    """Complement the neighbourhood of a vertex without touching the diagonal."""
    bit = graph.ground.coerce(vertex)
    i = bit.bit_length() - 1
    nb = graph.matrix.rows[i] & ~bit
    rows = list(graph.matrix.rows)
    r = nb
    while r:
        low = r & -r
        r ^= low
        j = low.bit_length() - 1
        rows[j] ^= nb & ~low  # keep the diagonal as it was
    return Graph(Gf2Matrix(graph.ground, tuple(rows)))


def elementary_pivots(graph: Graph) -> list[Mask]:
    """Inclusion-minimal nonempty members of the support system.

    Each is a looped vertex or an edge between two loopless vertices;
    every admissible pivot factors into these.
    """
    members = [m for m in graph_to_system(graph).family if m]
    minimal = []
    for m in members:
        if not any(other != m and other & ~m == 0 for other in members):
            minimal.append(m)
    return minimal


def graph_poly(graph: Graph, which: Which) -> UniPoly:
    """Interlace-family polynomial from induced-subgraph nullities.

    q1 sums nullities of induced subgraphs, q2 of diagonal toggles, q3 of
    induced subgraphs after toggling every diagonal entry, and Q1 runs
    over toggles inside each induced subgraph.  Must match the set-system
    polynomial of the support system.  Refuses the sizes poly_direct
    refuses outside ``forced()``.
    """
    n = graph.n
    full = graph.ground.full_mask
    subsets = range(1 << n)
    pairs = {  # (diagonal toggle, subsets ranked in the toggled matrix)
        "q1": [(0, subsets)],
        "q2": ((x, (full,)) for x in subsets),
        "q3": [(full, subsets)],
        "Q1": ((z, (z | t for t in iter_submasks(full & ~z))) for z in subsets),
    }
    if which not in pairs:
        raise ValueError(f"unknown polynomial name {which!r}")
    size_guard(3**n if which == "Q1" else 1 << n, f"{which} at n={n}")
    return _nullity_histogram(graph.matrix, pairs[which])


def marked_bracket(graph: Graph, marked_complement: Subset) -> UniPoly:
    """Bracket-style sum over diagonal toggles restricted past the unmarked set.

    For each subset X the exponent is the nullity of the toggled graph
    induced on X united with the unmarked vertices; no pivot is ever
    required.  Equals the dual-pivot-family polynomial of the pivoted
    support system, which tests use as the oracle.
    """
    c = graph.ground.coerce(marked_complement)
    size_guard(1 << graph.n, f"marked bracket at n={graph.n}")
    return _nullity_histogram(graph.matrix, ((x, (x | c,)) for x in range(1 << graph.n)))


def _nullity_histogram(matrix: Gf2Matrix, pairs) -> UniPoly:
    """Count principal-minor nullities over (diagonal toggle, subsets) pairs.

    Each toggled matrix is built once and ranked on every subset paired
    with it; the coefficient of y^d is the number of nullity-d minors.
    """
    counts = [0] * (matrix.n + 1)
    for toggle, subsets in pairs:
        toggled = matrix.with_toggled_diagonal(toggle)
        for x in subsets:
            counts[det_nullity(toggled, x)[1]] += 1
    return UniPoly.from_coeffs(counts)
