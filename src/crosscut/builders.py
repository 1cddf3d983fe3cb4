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
from .structures import (
    Graph,
    Triple,
    TripleSystem,
    _check_n,
    _is_int,
    _mask_vertices,
    sorted_triple,
)
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


def sbi_contains(n: int, t: int, pattern: Graph, plus: bool = False) -> bool:
    """Whether s_graph(n, t, plus) contains the pattern's triangle blowup
    F^△ (core vertices first, then one added vertex w_e per edge e).

    The host is the blowup of a template: L, the t apexes, a clique joined
    to every vertex; A and B, independent parts of sizes floor((n-t)/2) and
    ceil((n-t)/2), joined to each other; with plus, the edge xy inside A.
    Vertices of one type are interchangeable, x and y among A's, so F^△
    embeds exactly when its vertices can be placed on L, A and B within the
    type sizes with no edge inside a side but one on xy.  Take such a
    placement, and let I be its core vertices on L.  A triangle u v w_e
    with e missing I has a vertex on L, so w_e, or it is x y b: with plus,
    one triangle edge may lie on xy, its third vertex on B.  The vertices
    off L then 2-colour with that edge alone inside a side (A), and an
    added vertex of an edge meeting I is pendant or isolated there.  Any
    other vertex on L sits on a spare apex, and so does any vertex taken
    off a side: placing a vertex on L breaks no edge.  So the placement
    exists exactly when, for some I and choice of xy edge, the rest
    2-colours and a subset sum over the orientations of its components
    finds counts whose overflow beyond A and B is at most the spare
    apexes.  The forced w_e leave no room once |I| + e(F - I) exceeds t
    (t + 1 with plus), so no larger I is tried.
    """
    _check_apexes(n, t)
    if plus and (n - t) // 2 < 2:
        raise InputError("the extra edge needs a part of size >= 2")
    if pattern.n + len(pattern.edges) > n:
        return False
    blowup = triangle_blowup(pattern)
    k, edges = pattern.n, pattern.edge_list()
    sides = ((n - t) // 2, (n - t + 1) // 2)
    for apexed in _light_sets(pattern.adj, t + plus):
        forced = 0
        for i, (u, v) in enumerate(edges):
            if not (apexed >> u | apexed >> v) & 1:
                forced |= 1 << (k + i)
        tries = [((), forced)]
        if plus:
            for i, (u, v) in enumerate(edges):
                for p, q in ((u, v), (u, k + i), (v, k + i)):
                    if not (apexed >> p | apexed >> q) & 1:
                        tries.append(((p, q), forced & ~(1 << (k + i))))
        for inner, off in tries:
            spare = t - apexed.bit_count() - off.bit_count()
            if spare >= 0 and _sides_fit(blowup, apexed | off, inner, sides, spare):
                return True
    return False


def _light_sets(adj: tuple[int, ...], cap: int):
    """Every vertex set I (a mask) with |I| + e(G - I) <= cap.  Each vertex
    in turn joins I (cost 1) or is left out (cost its edges to the earlier
    ones left out).  Each edge among the undecided vertices will cost at
    least 1, so a partial choice is cut once its cost plus a matching of
    the undecided vertices exceeds cap."""
    k = len(adj)
    matched = [0] * (k + 1)  # matched[v]: a greedy matching of G[v..k-1]
    for v in range(k):
        free = (1 << k) - (1 << v)
        for u in range(v, k):
            mate = adj[u] & free
            if free >> u & 1 and mate:
                free ^= 1 << u | mate & -mate
                matched[v] += 1
    stack = [(0, 0, 0, 0)]  # (next vertex, I so far, left out so far, cost)
    while stack:
        v, chosen, left, cost = stack.pop()
        if cost + matched[v] > cap:
            continue
        if v == k:
            yield chosen
            continue
        stack.append((v + 1, chosen, left | 1 << v, cost + (adj[v] & left).bit_count()))
        stack.append((v + 1, chosen | 1 << v, left, cost + 1))


def _sides_fit(
    graph: Graph, removed: int, inner: tuple, sides: tuple[int, int], spare: int
) -> bool:
    """Whether graph - removed 2-colours with the pair `inner` (if any) an
    edge inside side A, and some orientation of the components leaves at
    most `spare` vertices beyond the side sizes."""
    same = {inner, inner[::-1]}
    colour: dict[int, int] = {}
    reach = 1  # bit a: some orientation puts a vertices on A
    for s in itertools.chain(inner, range(graph.n)):
        if removed >> s & 1 or s in colour:
            continue
        colour[s] = 0
        count = [0, 0]
        stack = [s]
        while stack:
            v = stack.pop()
            count[colour[v]] += 1
            for w in _mask_vertices(graph.adj[v] & ~removed):
                want = colour[v] ^ ((v, w) not in same)
                if w not in colour:
                    colour[w] = want
                    stack.append(w)
                elif colour[w] != want:
                    return False
        if inner and s == inner[0]:  # A holds inner's side
            reach <<= count[0]
        else:
            reach = reach << count[0] | reach << count[1]
    total = len(colour)
    return any(
        reach >> a & 1 and max(0, a - sides[0]) + max(0, total - a - sides[1]) <= spare
        for a in range(total + 1)
    )


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
    of its triples inside the base, so none exists.  Conversely, when
    n >= |V| + |E|, a copy of a deletion's expansion in the base extends to
    a rainbow copy: the last triple takes any unused vertex, and its color
    (its own if a base edge, else the surplus) repeats none of the others.
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
