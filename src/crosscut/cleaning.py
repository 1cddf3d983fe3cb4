"""Iterated shadow-pair removal to a superfull kernel, with replayable
traces, plus full-subgraph and low-intersection subgraph extraction.

The removal process: edges whose maximum pair codegree is at most 3k are
set aside first; then, while the shadow contains a pair that is deficient
(codegree <= t-1), tight-and-coupled (codegree exactly t next to a second
codegree-t pair inside one edge), or intermediate (codegree in [t+1, 3k-1]),
the least such pair of minimum type is removed together with every edge
through it.  Termination leaves a (t, 3k)-superfull system.  Pair types are
kept across removals and only the pairs a removal can affect are
classified again.

Linear extraction is a greedy minimum-degree independent set in the graph
of edges sharing i vertices; it runs in near-linear time from vertex or
pair incidence buckets and a lazy heap of live degrees, without building
that graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import InputError
from .structures import (
    Pair,
    Triple,
    TripleSystem,
    _is_int,
    is_superfull,
    sorted_pair,
)
from .trees import enumerate_trees, cycle_graph
from .embed import find_expansion

TYPE_DEFICIENT = 1
TYPE_COUPLED = 2
TYPE_INTERMEDIATE = 3


@dataclass(frozen=True)
class CleaningTrace:
    """Full record of one removal run.

    snapshot(i) reconstructs the i-th intermediate system exactly;
    final_system equals snapshot(q) and, whenever 3k > t, passes the
    superfull certificate.
    """

    k: int
    t: int
    original: TripleSystem
    sparse_part: TripleSystem  # edges with max pair codegree <= 3k, removed first
    removed_pairs: tuple[tuple[Pair, int], ...]  # (pair, type tag) in order
    final_system: TripleSystem

    @property
    def q(self) -> int:
        return len(self.removed_pairs)

    def start_system(self) -> TripleSystem:
        return TripleSystem(
            self.original.n, self.original.edges - self.sparse_part.edges
        )

    def snapshot(self, i: int) -> TripleSystem:
        if not 0 <= i <= self.q:
            raise InputError(f"snapshot index must lie in [0, {self.q}]")
        edges = set(self.start_system().edges)
        for pair, _tag in self.removed_pairs[:i]:
            edges = {e for e in edges if not (pair[0] in e and pair[1] in e)}
        return TripleSystem(self.original.n, edges)

    def superfull_certificate(self) -> bool | None:
        if 3 * self.k <= self.t:
            return None
        return is_superfull(self.final_system, self.t, 3 * self.k)

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "t": self.t,
            "n": self.original.n,
            "input_edges": [list(e) for e in self.original.edge_list()],
            "sparse_part": [list(e) for e in self.sparse_part.edge_list()],
            "removed_pairs": [
                {"pair": list(p), "type": tag} for p, tag in self.removed_pairs
            ],
            "q": self.q,
            "final_edges": [list(e) for e in self.final_system.edge_list()],
            "superfull": self.superfull_certificate(),
        }


def _classify_pair(
    pair: Pair,
    nbrs: dict[Pair, set[int]],
    t: int,
    k: int,
) -> int | None:
    d = len(nbrs[pair])
    if d <= t - 1:
        return TYPE_DEFICIENT
    if d == t:
        u, v = pair
        for w in nbrs[pair]:
            for other in (sorted_pair(u, w), sorted_pair(v, w)):
                if other != pair and len(nbrs.get(other, ())) == t:
                    return TYPE_COUPLED
        return None
    if t + 1 <= d <= 3 * k - 1:
        return TYPE_INTERMEDIATE
    return None


def _pair_buckets(edges) -> dict[Pair, set[int]]:
    """Each shadow pair of `edges` mapped to the set of its third vertices."""
    nbrs: dict[Pair, set[int]] = {}
    for a, b, c in edges:
        nbrs.setdefault((a, b), set()).add(c)
        nbrs.setdefault((a, c), set()).add(b)
        nbrs.setdefault((b, c), set()).add(a)
    return nbrs


def _remove_pair(pair: Pair, nbrs: dict[Pair, set[int]], edges: set[Triple]) -> set[Pair]:
    """Delete every edge through `pair` from `edges` and from the buckets,
    dropping buckets that empty; returns the pairs whose buckets changed."""
    touched: set[Pair] = set()
    for w in list(nbrs[pair]):
        a, b, c = sorted((pair[0], pair[1], w))
        edges.discard((a, b, c))
        for p, x in (((a, b), c), ((a, c), b), ((b, c), a)):
            bucket = nbrs[p]
            bucket.discard(x)
            if not bucket:
                del nbrs[p]
            touched.add(p)
    return touched


def cleaning_algorithm(system: TripleSystem, k: int, t: int) -> CleaningTrace:
    """Run the removal process on `system` with parameters `k` (pairs of
    codegree up to 3k-1 count as intermediate, and edges whose pairs all
    have codegree at most 3k are set aside first) and `t` (the tight
    codegree); ties among minimum-type pairs break lexicographically, so
    traces are reproducible.

    Pair types are kept in `tag` with a lazy heap of (type, pair) entries.
    A pair's type depends only on its own codegree and on the codegrees of
    the pairs that share a live edge with it, so after a removal only the
    pairs of the removed edges and, for each of those pairs p still present
    and each w completing p, the pairs (p0, w) and (p1, w) are classified
    again.  Every typed pair has an entry matching its current type, so the
    first popped entry that still matches is the least (type, pair) a full
    rescan would find.
    """
    if not (_is_int(k) and _is_int(t) and k >= t >= 0):
        raise InputError(f"need integers k >= t >= 0, got k={k}, t={t}")
    pair_nbr = system.pair_nbr
    sparse = set()
    for e in system.edges:
        a, b, c = e
        dmax = max(
            pair_nbr[(a, b)].bit_count(),
            pair_nbr[(a, c)].bit_count(),
            pair_nbr[(b, c)].bit_count(),
        )
        if dmax <= 3 * k:
            sparse.add(e)
    edges = set(system.edges) - sparse
    nbrs = _pair_buckets(edges)

    tag: dict[Pair, int] = {}
    heap: list[tuple[int, Pair]] = []
    removed: list[tuple[Pair, int]] = []
    dirty = set(nbrs)
    while True:
        for p in dirty:
            kind = _classify_pair(p, nbrs, t, k) if p in nbrs else None
            if kind is None:
                tag.pop(p, None)
            elif tag.get(p) != kind:
                tag[p] = kind
                heapq.heappush(heap, (kind, p))
        while heap and tag.get(heap[0][1]) != heap[0][0]:
            heapq.heappop(heap)
        if not heap:
            break
        kind, pair = heapq.heappop(heap)
        removed.append((pair, kind))
        touched = _remove_pair(pair, nbrs, edges)
        dirty = set(touched)
        for u, v in touched:
            for w in nbrs.get((u, v), ()):
                dirty.add(sorted_pair(u, w))
                dirty.add(sorted_pair(v, w))

    return CleaningTrace(
        k=k,
        t=t,
        original=system,
        sparse_part=TripleSystem(system.n, sparse),
        removed_pairs=tuple(removed),
        final_system=TripleSystem(system.n, edges),
    )


def quantitative_report(trace: CleaningTrace, epsilon: float) -> dict:
    """Report (never assert) the density-conditional step and size bounds.

    When the input satisfies |H| >= t|∂H| - eps*n^2, the removal count and
    final sizes are expected to obey q <= 12k*eps*n^2,
    |H_q| >= |H| - 48k^2*eps*n^2, and |∂H_q| >= |∂H| - 50k^2*eps*n^2;
    both sides are reported either way.
    """
    h = trace.original
    n, k, t = h.n, trace.k, trace.t
    shadow_before = len(h.shadow_pairs())
    shadow_after = len(trace.final_system.shadow_pairs())
    hypothesis = len(h.edges) >= t * shadow_before - epsilon * n * n
    return {
        "epsilon": epsilon,
        "hypothesis_holds": hypothesis,
        "steps": {"value": trace.q, "bound": 12 * k * epsilon * n * n},
        "final_size": {
            "value": len(trace.final_system.edges),
            "bound": len(h.edges) - 48 * k * k * epsilon * n * n,
        },
        "final_shadow": {
            "value": shadow_after,
            "bound": shadow_before - 50 * k * k * epsilon * n * n,
        },
    }


def extract_d_full(system: TripleSystem, d: int) -> TripleSystem:
    """Largest subgraph in which every shadow pair has codegree >= d+1.

    Repeatedly deletes every edge through a pair of codegree <= d; the
    kernel is unique, is a fixed point, and loses at most d edges per
    shadow pair of the input.
    """
    if d < 0:
        raise InputError("d must be nonnegative")
    edges = set(system.edges)
    nbrs = _pair_buckets(edges)
    queue = [p for p, ws in nbrs.items() if len(ws) <= d]
    while queue:
        pair = queue.pop()
        if pair not in nbrs:  # queued twice, or emptied since
            continue
        for p in _remove_pair(pair, nbrs, edges):
            if p in nbrs and len(nbrs[p]) <= d:
                queue.append(p)
    return TripleSystem(system.n, edges)


def max_i_degree(system: TripleSystem, i: int) -> int:
    """Maximum number of edges through an i-subset of vertices."""
    if i == 1:
        return max((system.degree(v) for v in range(system.n)), default=0)
    if i == 2:
        return max((m.bit_count() for m in system.pair_nbr.values()), default=0)
    raise InputError("i must be 1 or 2")


def extract_linear_subgraph(system: TripleSystem, i: int) -> TripleSystem:
    """Subsystem of `system` in which every i-subset (`i` is 1 or 2) lies
    in at most one edge, of size at least |H| / (3 * max i-degree).

    Greedy minimum-degree independent set in the auxiliary graph joining
    edges that share at least i vertices (ties break lexicographically).
    That graph is never built: each edge's neighbours are the union of its
    vertex (i = 1) or pair (i = 2) buckets, which hold live edges only.
    Live degrees sit in a list and picks come from a heap of (degree,
    index); the edge list is sorted, so index order is edge order, and
    degrees only fall, so a stale entry carries a larger key than the live
    one and is skipped when it surfaces.
    """
    if i not in (1, 2):
        raise InputError("i must be 1 or 2")
    if not system.edges:
        raise InputError("linear extraction needs a nonempty system")
    edges = system.edge_list()
    if i == 1:
        keys = edges
    else:
        keys = [((a, b), (a, c), (b, c)) for a, b, c in edges]
    buckets: dict = {}
    for j, ks in enumerate(keys):
        for key in ks:
            buckets.setdefault(key, set()).add(j)

    def neighbours(j: int) -> set[int]:
        out = set().union(*(buckets[key] for key in keys[j]))
        out.discard(j)
        return out

    degree = [len(neighbours(j)) for j in range(len(edges))]
    heap = [(d, j) for j, d in enumerate(degree)]
    heapq.heapify(heap)
    chosen: list[Triple] = []
    while heap:
        d, pick = heapq.heappop(heap)
        if degree[pick] != d:
            continue
        chosen.append(edges[pick])
        dead = neighbours(pick)
        dead.add(pick)
        for j in dead:
            degree[j] = -1
            for key in keys[j]:
                buckets[key].discard(j)
        touched: set[int] = set()
        for j in dead:
            for l in neighbours(j):
                degree[l] -= 1
                touched.add(l)
        for l in touched:
            heapq.heappush(heap, (degree[l], l))
    return TripleSystem(system.n, chosen)


def fullness_embedding_check(system: TripleSystem, k: int) -> dict:
    """For a nonempty 3k-full system: search the expansion of every tree
    with k edges and of the k-cycle; all must be found.

    Returns a report with per-pattern results and an overall flag.
    """
    if k < 3:
        raise InputError("k must be >= 3")
    if not system.edges:
        raise InputError("fullness check needs a nonempty system")
    low = min(m.bit_count() for m in system.pair_nbr.values())
    if low < 3 * k:
        raise InputError(
            f"system is not {3 * k}-full (minimum shadow codegree {low})"
        )
    results = []
    patterns = [("tree", t) for t in enumerate_trees(k + 1)]
    patterns.append(("cycle", cycle_graph(k)))
    for kind, pattern in patterns:
        emb = find_expansion(system, pattern)
        results.append(
            {
                "kind": kind,
                "edges": [list(e) for e in pattern.edge_list()],
                "found": emb is not None,
            }
        )
    return {
        "k": k,
        "patterns": results,
        "all_found": all(r["found"] for r in results),
    }
