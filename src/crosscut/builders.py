"""Constructions: expansions, triangle blowups, apex systems, joins,
balanced bipartite graphs, their triangle systems, and the edge-distinct
lower-bound coloring.

Fresh vertices introduced by expansion/blowup follow the base vertices and
are assigned along the lexicographically sorted base edge list, so repeated
runs produce identical certificates.
"""

from __future__ import annotations

import itertools
import math

from .errors import InputError
from .structures import Graph, Triple, TripleSystem, _check_n, _is_int, sorted_triple
from .trees import covering_number


def expansion(base: Graph) -> TripleSystem:
    """3-uniform expansion: one fresh vertex per edge, all fresh distinct."""
    if not base.edges:
        raise InputError("expansion of an edgeless graph is undefined")
    edges = base.edge_list()
    n = base.n + len(edges)
    triples = [(u, v, base.n + i) for i, (u, v) in enumerate(edges)]
    return TripleSystem(n, triples)


def triangle_blowup(base: Graph) -> Graph:
    """Replace each edge uv by a triangle through a fresh vertex w (edges
    uw, vw added; uv kept)."""
    if not base.edges:
        raise InputError("triangle blowup of an edgeless graph is undefined")
    edges = base.edge_list()
    n = base.n + len(edges)
    new_edges = list(base.edges)
    for i, (u, v) in enumerate(edges):
        w = base.n + i
        new_edges.append((u, w))
        new_edges.append((v, w))
    return Graph(n, new_edges)


def triangle_system(graph: Graph) -> TripleSystem:
    """The 3-graph of all vertex triples inducing a triangle."""
    return TripleSystem(graph.n, graph.triangle_list())


def _check_apexes(n: int, t: int) -> None:
    if not 0 <= t <= n:
        raise InputError(f"need 0 <= t <= n, got t={t}, n={n}")


def s_construction(n: int, t: int) -> TripleSystem:
    """All triples of [n] meeting the apex set {0..t-1}, in sorted order:
    each apex a with the pairs above it (no other triple is visited)."""
    _check_n(n)
    _check_apexes(n, t)
    triples = [(a, b, c) for a in range(t) for b, c in itertools.combinations(range(a + 1, n), 2)]
    return TripleSystem(n, triples)


def s_size(n: int, t: int) -> int:
    """Closed form for the apex-system size: C(n,3) - C(n-t,3)."""
    _check_apexes(n, t)
    return math.comb(n, 3) - math.comb(n - t, 3)


def s_contains(n: int, t: int, pattern: Graph) -> bool:
    """Whether S(n, t) contains the pattern's expansion: exactly when
    n >= |V| + |E| and the pattern's covering number is at most t.

    Every triple of a copy meets the apex set L, so the core vertices in L,
    plus one end of each edge whose added vertex is in L, cover the pattern
    with at most t vertices.  Conversely, put a minimum cover on L and every
    other vertex of the copy anywhere else: each triple holds a cover
    vertex.  Isolated vertices count toward |V|, as find_expansion maps
    them too.
    """
    return pattern.n + len(pattern.edges) <= n and covering_number(pattern) <= t


def join(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union plus all cross pairs; g2's vertices are shifted."""
    n = g1.n + g2.n
    edges = list(g1.edges)
    edges += [(u + g1.n, v + g1.n) for u, v in g2.edges]
    edges += [(u, v + g1.n) for u in range(g1.n) for v in range(g2.n)]
    return Graph(n, edges)


def balanced_bipartite(m: int, plus: bool = False) -> Graph:
    """Complete bipartite graph with parts floor(m/2), ceil(m/2) (smaller
    part first); with plus=True one extra edge joins the two lowest ids of
    the smaller part."""
    _check_n(m)
    small = m // 2
    edges = [(u, v) for u in range(small) for v in range(small, m)]
    if plus:
        if small < 2:
            raise InputError("the extra edge needs a part of size >= 2")
        edges.append((0, 1))
    return Graph(m, edges)


def s_graph(n: int, t: int, plus: bool = False) -> Graph:
    """Clique on t apexes joined to a balanced bipartite graph on n-t
    vertices (with the extra edge when plus)."""
    _check_n(n)
    _check_apexes(n, t)
    clique = Graph(t, itertools.combinations(range(t), 2))
    return join(clique, balanced_bipartite(n - t, plus=plus))


def sbi_construction(n: int, t: int, plus: bool = False) -> TripleSystem:
    """Triangle system of the joined construction."""
    return triangle_system(s_graph(n, t, plus=plus))


def sbi_size(n: int, t: int, plus: bool = False) -> int:
    """Closed form validated against the triangle-count oracle in tests:
    C(t,3) + C(t,2)(n-t) + t*floor((n-t)/2)*ceil((n-t)/2), plus
    t + ceil((n-t)/2) when the extra edge is present."""
    _check_apexes(n, t)
    m = n - t
    base = math.comb(t, 3) + math.comb(t, 2) * m + t * (m // 2) * ((m + 1) // 2)
    if plus:
        base += t + (m + 1) // 2
    return base


class Coloring:
    """Total map from all triples of [n] to color ids.

    Every key is a sorted triple that `TripleSystem` accepts, and every
    color an int (not a bool).  `color_count` is the number of distinct
    colors; colorings constructed here are surjective onto
    range(color_count).
    """

    __slots__ = ("n", "color_of", "color_count")

    def __init__(self, n: int, color_of: dict[Triple, int]):
        triples = TripleSystem(n, color_of).edges
        for t, color in color_of.items():
            if t not in triples:
                raise InputError(f"coloring key {t!r} is not a sorted triple")
            if not _is_int(color):
                raise InputError(f"color {color!r} of triple {t} is not an integer")
        missing = math.comb(n, 3) - len(color_of)
        if missing:
            # every key is a distinct triple of [n], so the first missing one
            # turns up within len(color_of) + 1 steps whatever n is
            first = next(
                t for t in itertools.combinations(range(n), 3) if t not in color_of
            )
            raise InputError(f"{missing} triples missing (first {first})")
        self.n = n
        self.color_of = dict(color_of)
        self.color_count = len(set(color_of.values()))

    def color(self, a: int, b: int, c: int) -> int:
        return self.color_of[sorted_triple(a, b, c)]


def constant_coloring(n: int) -> Coloring:
    """One color for every triple."""
    _check_n(n)
    return Coloring(n, {t: 0 for t in itertools.combinations(range(n), 3)})


def lower_bound_coloring(base: TripleSystem) -> Coloring:
    """Each base edge gets its own color (in sorted edge order); every
    non-edge triple shares one surplus color.

    When the base avoids every single-edge deletion of a pattern, any
    rainbow copy of the pattern's expansion would have to place all but one
    of its triples inside the base, so none exists.
    """
    if not base.edges:
        raise InputError("lower-bound coloring needs a nonempty base")
    color_of: dict[Triple, int] = {}
    for i, e in enumerate(base.edge_list()):
        color_of[e] = i
    surplus = len(base.edges)
    for t in itertools.combinations(range(base.n), 3):
        if t not in color_of:
            color_of[t] = surplus
    return Coloring(base.n, color_of)
