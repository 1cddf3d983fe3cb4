"""Graphs, 3-uniform set systems, and their incidence calculus.

Vertices are dense 0-based integers.  Every stored edge or triple is a sorted
tuple, and all structures are immutable after construction: edits produce new
values, so snapshots are cheap and concurrent read-only use is safe.
Adjacency and pair neighborhoods are kept as int bitmasks because the search
modules dominate runtime.
"""

from __future__ import annotations

import itertools
import types
from dataclasses import dataclass
from typing import Iterable

from .errors import InputError, RowError

Pair = tuple[int, int]
Triple = tuple[int, int, int]

# structures keep per-vertex tables and colorings take combinations of range(n)
_MAX_VERTICES = 10**6

# the codegree row of every vertex in no triple: one shared, read-only mapping
_NO_PAIRS = types.MappingProxyType({})


def sorted_pair(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def sorted_triple(a: int, b: int, c: int) -> Triple:
    x, y, z = sorted((a, b, c))
    return (x, y, z)


def _is_int(x: object) -> bool:
    """An int that is not a bool (JSON's true and false load as bools)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _check_n(n: object) -> None:
    if not _is_int(n):
        raise InputError(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    if n > _MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds the limit {_MAX_VERTICES}")


def _bad_edge(edge: object, n: int, arity: int, index: int) -> RowError:
    """The error for row `index`, an edge (arity 2) or triple (arity 3)
    that failed a constructor's one-line check.  The faults are tried in a
    fixed order: not `arity` ids, an id that is not an int (bools and floats
    included), a repeated vertex, an id outside [0, n)."""
    kind = "edge" if arity == 2 else "triple"
    try:
        vs = tuple(edge)
    except TypeError:
        return RowError(index, f"{kind} {edge!r} is not a sequence of vertex ids")
    if len(vs) != arity:
        return RowError(index, f"{kind} {vs} must have {arity} vertices")
    if not all(type(x) is int for x in vs):
        return RowError(index, f"{kind} {vs} has a vertex id that is not an integer")
    if len(set(vs)) != arity:
        if arity == 2:
            return RowError(index, f"loop at vertex {vs[0]}")
        return RowError(index, f"triple {vs} has repeated vertices")
    return RowError(index, f"{kind} {vs} out of range for n={n}")


def _mask_vertices(mask: int) -> list[int]:
    """The set bits of mask in ascending order, one step per set bit."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    The edge-list view (`edges`, a frozenset of sorted pairs) and the
    adjacency view (`adj`, per-vertex bitmasks) are built together and always
    agree.  No loops, no duplicate edges, endpoints < n, and n at most
    10^6: the constructors own that limit, so files, certificates, builders
    and library calls all meet it.
    """

    __slots__ = ("n", "edges", "adj")

    def __init__(self, n: int, edges: Iterable[Iterable[int]] = ()):
        _check_n(n)
        clean: set[Pair] = set()
        for i, e in enumerate(edges):
            try:
                u, v = e
            except (TypeError, ValueError):
                raise _bad_edge(e, n, 2, i) from None
            if not (int is type(u) is type(v) and u != v and 0 <= u < n and 0 <= v < n):
                raise _bad_edge(e, n, 2, i)
            clean.add((u, v) if u < v else (v, u))
        self.n = n
        self.edges = frozenset(clean)
        adj = [0] * n
        for u, v in clean:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.adj = tuple(adj)

    # -- basic views ------------------------------------------------------

    def edge_list(self) -> list[Pair]:
        return sorted(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return sorted_pair(u, v) in self.edges

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        return _mask_vertices(self.adj[v])

    def degrees(self) -> list[int]:
        return [m.bit_count() for m in self.adj]

    def isolated_free_vertices(self) -> list[int]:
        return [v for v in range(self.n) if self.adj[v]]

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"

    # -- derived graphs ----------------------------------------------------

    def delete_edge(self, u: int, v: int) -> "Graph":
        """Remove one edge, keeping both endpoints."""
        e = sorted_pair(u, v)
        if e not in self.edges:
            raise InputError(f"edge {e} not present")
        return Graph(self.n, self.edges - {e})

    def without_vertices(self, drop: Iterable[int]) -> "Graph":
        """Drop the given vertices' incident edges (labels are kept dense)."""
        ds = set(drop)
        return Graph(self.n, [e for e in self.edges if not (e[0] in ds or e[1] in ds)])

    # -- structure queries --------------------------------------------------

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            stack, comp = [s], []
            seen[s] = True
            while stack:
                v = stack.pop()
                comp.append(v)
                for w in _mask_vertices(self.adj[v]):
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) <= 1

    def is_tree(self) -> bool:
        return self.n >= 1 and self.is_connected() and len(self.edges) == self.n - 1

    def bipartition(self) -> tuple[set[int], set[int]] | None:
        """2-coloring classes (union over components), or None if an odd cycle exists."""
        color: dict[int, int] = {}
        for comp in self.components():
            color[comp[0]] = 0
            stack = [comp[0]]
            while stack:
                v = stack.pop()
                for w in _mask_vertices(self.adj[v]):
                    if w not in color:
                        color[w] = 1 - color[v]
                        stack.append(w)
                    elif color[w] == color[v]:
                        return None
        return (
            {v for v, c in color.items() if c == 0},
            {v for v, c in color.items() if c == 1},
        )

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def count_triangles(self) -> int:
        """Number of vertex triples inducing a triangle."""
        total = 0
        for u, v in self.edges:
            above = ~((1 << (v + 1)) - 1)
            total += (self.adj[u] & self.adj[v] & above).bit_count()
        return total

    def triangle_list(self) -> list[Triple]:
        out = []
        for u, v in self.edges:
            common = self.adj[u] & self.adj[v] & ~((1 << (v + 1)) - 1)
            out.extend((u, v, w) for w in _mask_vertices(common))
        return sorted(out)


class TripleSystem:
    """3-uniform set system on vertices 0..n-1.

    `edges` is a frozenset of sorted triples, and n is at most 10^6 as for
    `Graph`.  `rows`, the one codegree index, is built here: rows[u][v] is
    the bitmask of the third vertices of the triples through u and v, in
    both rows of each shadow pair.  One pass over the distinct triples
    sets the six entries of each.  Vertices in no triple share one
    read-only empty row, so it takes O(n + shadow pairs); callers copy it
    before they edit.
    """

    __slots__ = ("n", "edges", "rows")

    def __init__(self, n: int, triples: Iterable[Iterable[int]] = ()):
        _check_n(n)
        clean: set[Triple] = set()
        for i, t in enumerate(triples):
            try:
                a, b, c = t
                if a > b:
                    a, b = b, a
                if b > c:
                    b, c = c, b
                    if a > b:
                        a, b = b, a
            except (TypeError, ValueError):
                raise _bad_edge(t, n, 3, i) from None
            if not (int is type(a) is type(b) is type(c) and 0 <= a < b < c < n):
                raise _bad_edge(t, n, 3, i)
            clean.add((a, b, c))
        self.n = n
        self.edges = frozenset(clean)
        rows: list = [_NO_PAIRS] * n
        for a, b, c in clean:
            ra, rb, rc = rows[a], rows[b], rows[c]
            if ra is _NO_PAIRS:
                ra = rows[a] = {}
            if rb is _NO_PAIRS:
                rb = rows[b] = {}
            if rc is _NO_PAIRS:
                rc = rows[c] = {}
            ra[b] = rb[a] = ra.get(b, 0) | 1 << c
            ra[c] = rc[a] = ra.get(c, 0) | 1 << b
            rb[c] = rc[b] = rb.get(c, 0) | 1 << a
        self.rows = rows

    def edge_list(self) -> list[Triple]:
        return sorted(self.edges)

    def has_triple(self, a: int, b: int, c: int) -> bool:
        return sorted_triple(a, b, c) in self.edges

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TripleSystem)
            and self.n == other.n
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"TripleSystem(n={self.n}, m={len(self.edges)})"

    # -- incidence calculus -------------------------------------------------

    def shadow(self) -> Graph:
        """All pairs covered by some triple, as a graph on the same vertex set."""
        return Graph(self.n, self.shadow_pairs())

    def link(self, v: int) -> Graph:
        """Pairs completing v to a triple; the link's size equals degree(v)."""
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")
        return Graph(
            self.n,
            [
                (a, b) if v == c else ((a, c) if v == b else (b, c))
                for (a, b, c) in self.edges
                if v in (a, b, c)
            ],
        )

    def degree(self, v: int) -> int:
        if not (0 <= v < self.n):
            raise InputError(f"vertex {v} out of range for n={self.n}")
        # each triple through v is one bit in two entries of v's row
        return sum(m.bit_count() for m in self.rows[v].values()) >> 1

    def codegree_mask(self, u: int, v: int) -> int:
        """The third vertices of the triples through u and v, as a bitmask;
        0 for any pair outside the shadow, out-of-range ids included."""
        return self.rows[u].get(v, 0) if 0 <= u < self.n else 0

    def codegree(self, u: int, v: int) -> int:
        """Number of triples through the pair uv."""
        if u == v:
            raise InputError("codegree of a repeated vertex is undefined")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise InputError(f"pair {(u, v)} out of range for n={self.n}")
        return self.codegree_mask(u, v).bit_count()

    def codegree_neighborhood(self, u: int, v: int) -> list[int]:
        """Third vertices completing uv to a triple."""
        return _mask_vertices(self.codegree_mask(u, v)) if self.codegree(u, v) else []

    def shadow_pairs(self) -> list[Pair]:
        return sorted([(u, v) for u, row in enumerate(self.rows) for v in row if u < v])


@dataclass(frozen=True)
class EdgeCodegreeProfile:
    """Min/max codegree over the three pairs of one edge."""

    edge: Triple
    min_codegree: int
    max_codegree: int


def edge_codegree_profile(system: TripleSystem, edge: Iterable[int]) -> EdgeCodegreeProfile:
    e = sorted_triple(*edge)
    if e not in system.edges:
        raise InputError(f"triple {e} is not an edge of the system")
    a, b, c = e
    cods = (system.codegree(a, b), system.codegree(a, c), system.codegree(b, c))
    return EdgeCodegreeProfile(e, min(cods), max(cods))


def is_d_full(system: TripleSystem, d: int) -> bool:
    """Every shadow pair has codegree >= d (vacuously true when empty)."""
    return all(m.bit_count() >= d for row in system.rows for m in row.values())


def is_superfull(system: TripleSystem, d: int, k: int) -> bool:
    """d-full, and every edge has at most one pair of codegree < k."""
    if k <= d:
        raise InputError(f"superfullness requires k > d, got d={d}, k={k}")
    if not is_d_full(system, d):
        return False
    rows = system.rows
    for a, b, c in system.edges:
        ra = rows[a]
        low = (ra[b].bit_count() < k) + (ra[c].bit_count() < k)
        if low + (rows[b][c].bit_count() < k) > 1:
            return False
    return True


# -- structure classifications ----------------------------------------------


@dataclass(frozen=True)
class CommonPair:
    """A pair of vertices contained in every edge of the system."""

    u: int
    v: int


@dataclass(frozen=True)
class SmallSystem:
    """At most four edges, pairwise sharing two vertices, with no common pair."""


@dataclass(frozen=True)
class NotTwoIntersecting:
    """Witness: two edges meeting in at most one vertex."""

    e1: Triple
    e2: Triple


def two_intersecting_structure(
    system: TripleSystem,
) -> CommonPair | SmallSystem | NotTwoIntersecting:
    """Classify a system by its pairwise edge intersections.

    If some two edges meet in <= 1 vertices the system is not 2-intersecting
    and a witness is returned.  Otherwise either a pair lies in every edge,
    or there are at most four edges (the complete system on four vertices
    being the extremal case).
    """
    edges = system.edge_list()
    for e1, e2 in itertools.combinations(edges, 2):
        if len(set(e1) & set(e2)) <= 1:
            return NotTwoIntersecting(e1, e2)
    if edges:
        first = edges[0]
        common = [
            p
            for p in itertools.combinations(first, 2)
            if all(p[0] in e and p[1] in e for e in edges)
        ]
        if common:
            u, v = min(common)
            return CommonPair(u, v)
    if len(edges) > 4:
        raise AssertionError("2-intersecting system with >4 edges must share a pair")
    return SmallSystem()


@dataclass(frozen=True)
class TriangleClass:
    """The edge set is exactly one triangle (plus isolated vertices)."""

    vertices: Triple


@dataclass(frozen=True)
class StarClass:
    """All edges pass through the center vertex."""

    center: int


@dataclass(frozen=True)
class EmptyClass:
    """No edges."""


@dataclass(frozen=True)
class MatchingAtLeastTwo:
    """Witness: two disjoint edges."""

    e1: Pair
    e2: Pair


def matching_le1_structure(
    graph: Graph,
) -> TriangleClass | StarClass | EmptyClass | MatchingAtLeastTwo:
    """Classify a graph by whether it has two disjoint edges.

    Graphs without them are exactly: empty, a star, or one triangle plus
    isolated vertices.
    """
    edges = graph.edge_list()
    for e1, e2 in itertools.combinations(edges, 2):
        if not set(e1) & set(e2):
            return MatchingAtLeastTwo(e1, e2)
    if not edges:
        return EmptyClass()
    support = sorted({v for e in edges for v in e})
    if len(edges) == 3 and len(support) == 3:
        return TriangleClass((support[0], support[1], support[2]))
    centers = [v for v in support if all(v in e for e in edges)]
    if centers:
        return StarClass(min(centers))
    raise AssertionError("pairwise-intersecting edge set must be a star or triangle")
