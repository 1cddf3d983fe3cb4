"""Iterated shadow-pair removal to a superfull kernel, with replayable
traces, plus full-subgraph and low-intersection subgraph extraction.

The removal process: edges whose maximum pair codegree is at most 3k are
set aside first; then, while the shadow contains a pair that is deficient
(codegree <= t-1), tight-and-coupled (codegree exactly t next to a second
codegree-t pair inside one edge), or intermediate (codegree in [t+1, 3k-1]),
the least such pair of minimum type is removed together with every edge
through it.  Termination leaves a (t, 3k)-superfull system.  Pair types are
kept across removals.  A removal takes one edge from every other pair it
touches, so an untouched pair can change type only next to a touched pair
left at codegree t-1 or t; only these pairs are classified again.

Linear extraction is a greedy minimum-degree independent set in the graph
of edges sharing i vertices; it runs in near-linear time from vertex or
pair incidence buckets and a lazy heap of live degrees, without building
that graph.  Heap entries are the integers degree * m + index (m edges),
which sort as the (degree, index) pairs they encode.  Every live edge holds
a current entry, so the loop stops at the last live edge instead of
draining the stale entries.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .errors import InputError
from .structures import (
    Pair,
    Triple,
    TripleSystem,
    _is_int,
    _mask_vertices,
    is_superfull,
    sorted_pair,
    sorted_triple,
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
        if not (_is_int(i) and 0 <= i <= self.q):
            raise InputError(f"snapshot index {i!r} is not an integer in [0, {self.q}]")
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


def _classify_pair(pair: Pair, rows: list, t: int, k: int) -> int | None:
    """The type of a shadow pair in the codegree rows, None for no type."""
    u, v = pair
    mask = rows[u][v]
    d = mask.bit_count()
    if d <= t - 1:
        return TYPE_DEFICIENT
    if d == t:
        for w in _mask_vertices(mask):
            if rows[u][w].bit_count() == t or rows[v][w].bit_count() == t:
                return TYPE_COUPLED
        return None
    if t + 1 <= d <= 3 * k - 1:
        return TYPE_INTERMEDIATE
    return None


def _drop_edge(rows: list, a: int, b: int, c: int) -> None:
    """Take the edge {a, b, c} out of a `_copy_rows` copy: each of its pairs
    loses the third vertex in both its rows, and an emptied entry goes."""
    for x, y, z in ((a, b, c), (a, c, b), (b, c, a)):
        rx, ry = rows[x], rows[y]
        mask = rx[y] ^ 1 << z
        if mask:
            rx[y] = ry[x] = mask
        else:
            del rx[y], ry[x]


def _remove_pair(pair: Pair, rows: list, edges: set[Triple]) -> set[Pair]:
    """Delete every edge through `pair` from `edges` and from the rows;
    returns the pairs whose masks changed."""
    u, v = pair
    touched: set[Pair] = set()
    for w in _mask_vertices(rows[u][v]):
        a, b, c = e = sorted_triple(u, v, w)
        edges.discard(e)
        _drop_edge(rows, a, b, c)
        touched.update(((a, b), (a, c), (b, c)))
    return touched


def _copy_rows(system: TripleSystem) -> list:
    """An editable copy of the codegree rows (no removal reaches an empty row)."""
    return [dict(row) if row else row for row in system.rows]


def cleaning_algorithm(system: TripleSystem, k: int, t: int) -> CleaningTrace:
    """Run the removal process on `system` with parameters `k` (pairs of
    codegree up to 3k-1 count as intermediate, and edges whose pairs all
    have codegree at most 3k are set aside first) and `t` (the tight
    codegree); ties among minimum-type pairs break lexicographically, so
    traces are reproducible.

    Pair types are kept in `tag` with a lazy heap of (type, pair) entries.
    A pair's type depends only on its own codegree and, at codegree t, on
    whether a pair sharing a live edge with it has codegree t.  Removing
    `pair` deletes the edges {pair[0], pair[1], w}, one per w, so every
    other touched pair (u, v) loses exactly one edge, and its "codegree ==
    t" status can flip only if it is left at codegree t-1 or t.  So the
    touched pairs are classified again, plus (u, w) and (v, w) for each
    touched (u, v) left at t-1 or t and each w completing it.  Every typed
    pair has an entry matching its current type, so the first popped entry
    that still matches is the least (type, pair) a full rescan would find.
    """
    if not (_is_int(k) and _is_int(t) and k >= t >= 0):
        raise InputError(f"need integers k >= t >= 0, got k={k}, t={t}")
    rows = _copy_rows(system)
    sparse = {
        (a, b, c) for a, b, c in system.edges
        if max(rows[a][b].bit_count(), rows[a][c].bit_count(), rows[b][c].bit_count()) <= 3 * k
    }
    for e in sparse:
        _drop_edge(rows, *e)
    edges = set(system.edges) - sparse

    tag: dict[Pair, int] = {}
    heap: list[tuple[int, Pair]] = []
    removed: list[tuple[Pair, int]] = []
    dirty = {(u, v) for u, row in enumerate(rows) for v in row if u < v}
    while True:
        for p in dirty:
            kind = _classify_pair(p, rows, t, k) if p[1] in rows[p[0]] else None
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
        touched = _remove_pair(pair, rows, edges)
        dirty = set(touched)
        for u, v in touched:
            mask = rows[u].get(v, 0)
            if t - 1 <= mask.bit_count() <= t:
                for w in _mask_vertices(mask):
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
    both sides are reported either way.  epsilon must be finite and >= 0,
    and each eps*n^2 term finite, else InputError: JSON has no NaN or
    infinity, so the report could not be written as JSON.
    """
    if not 0 <= epsilon < math.inf:  # NaN fails; an int of any size compares exactly
        raise InputError(f"epsilon must be finite and >= 0, got {epsilon!r}")
    h = trace.original
    n, k, t = h.n, trace.k, trace.t
    try:
        terms = [c * float(epsilon) * n * n for c in (1, 12 * k, 48 * k * k, 50 * k * k)]
    except OverflowError:  # a factor too large for a float
        terms = [math.inf]
    if not all(map(math.isfinite, terms)):
        raise InputError(f"epsilon {epsilon!r} makes the bounds overflow at n={n}, k={k}")
    slack, steps, size_loss, shadow_loss = terms
    shadow_before = len(h.shadow_pairs())
    shadow_after = len(trace.final_system.shadow_pairs())
    return {
        "epsilon": epsilon,
        "hypothesis_holds": len(h.edges) >= t * shadow_before - slack,
        "steps": {"value": trace.q, "bound": steps},
        "final_size": {
            "value": len(trace.final_system.edges),
            "bound": len(h.edges) - size_loss,
        },
        "final_shadow": {
            "value": shadow_after,
            "bound": shadow_before - shadow_loss,
        },
    }


def extract_d_full(system: TripleSystem, d: int) -> TripleSystem:
    """Largest subgraph in which every shadow pair has codegree >= d+1.

    Repeatedly deletes every edge through a pair of codegree <= d; the
    kernel is unique, is a fixed point, and loses at most d edges per
    shadow pair of the input.
    """
    if not (_is_int(d) and d >= 0):
        raise InputError(f"d must be a nonnegative integer, got {d!r}")
    edges = set(system.edges)
    rows = _copy_rows(system)
    queue = [(u, v) for u, v in system.shadow_pairs() if rows[u][v].bit_count() <= d]
    while queue:
        u, v = pair = queue.pop()
        if v not in rows[u]:  # queued twice, or emptied since
            continue
        for x, y in _remove_pair(pair, rows, edges):
            if 0 < rows[x].get(y, 0).bit_count() <= d:
                queue.append((x, y))
    return TripleSystem(system.n, edges)


def max_i_degree(system: TripleSystem, i: int) -> int:
    """Maximum number of edges through an i-subset of vertices."""
    _check_i(i)
    if i == 1:
        return max((system.degree(v) for v in range(system.n)), default=0)
    return max((m.bit_count() for row in system.rows for m in row.values()), default=0)


def _check_i(i: object) -> None:
    if not (_is_int(i) and i in (1, 2)):
        raise InputError(f"i must be 1 or 2, got {i!r}")


def extract_linear_subgraph(system: TripleSystem, i: int) -> TripleSystem:
    """Subsystem of `system` in which every i-subset (`i` is 1 or 2) lies
    in at most one edge, of size at least |H| / (3 * max i-degree).

    Greedy minimum-degree independent set in the auxiliary graph joining
    edges that share at least i vertices (ties break lexicographically).
    That graph is never built: each edge's neighbours are the union of its
    vertex (i = 1) or pair (i = 2) buckets, which hold live edges only;
    `lists[j]` holds edge j's buckets themselves.  Live degrees sit in a
    list and picks come from a heap of the integers d * m + j for edge j
    at degree d, m = |edges|: since 0 <= j < m, divmod(key, m) gives back
    (d, j) and keys sort exactly as those pairs, and only live edges, with
    d >= 0, are pushed.  The edge list is sorted, so index order is edge
    order, and degrees only fall, so a stale entry carries a larger key
    than the live one and is skipped when it surfaces.  Every live edge
    holds such a current entry, so the loop ends when no edge is live:
    every entry still on the heap is stale and would only be skipped.
    """
    _check_i(i)
    if not system.edges:
        raise InputError("linear extraction needs a nonempty system")
    edges = system.edge_list()
    m = len(edges)
    if i == 1:
        keys = edges
    else:
        keys = [((a, b), (a, c), (b, c)) for a, b, c in edges]
    buckets: dict = {}
    for j, ks in enumerate(keys):
        for key in ks:
            buckets.setdefault(key, set()).add(j)
    lists = [[buckets[key] for key in ks] for ks in keys]

    def neighbours(j: int) -> set[int]:
        out = set().union(*lists[j])
        out.discard(j)
        return out

    degree = [len(neighbours(j)) for j in range(m)]
    heap = [d * m + j for j, d in enumerate(degree)]
    heapq.heapify(heap)
    chosen: list[Triple] = []
    live = m
    while live:
        d, pick = divmod(heapq.heappop(heap), m)
        if degree[pick] != d:
            continue
        chosen.append(edges[pick])
        dead = neighbours(pick)
        dead.add(pick)
        live -= len(dead)
        for j in dead:
            degree[j] = -1
            for bucket in lists[j]:
                bucket.discard(j)
        touched: set[int] = set()
        for j in dead:
            for l in neighbours(j):
                degree[l] -= 1
                touched.add(l)
        for l in touched:
            heapq.heappush(heap, degree[l] * m + l)
    return TripleSystem(system.n, chosen)


def fullness_embedding_check(system: TripleSystem, k: int) -> dict:
    """For a nonempty 3k-full system: search the expansion of every tree
    with k edges and of the k-cycle; all must be found.

    Returns a report with per-pattern results and an overall flag.
    """
    if not (_is_int(k) and k >= 3):
        raise InputError(f"k must be an integer >= 3, got {k!r}")
    if not system.edges:
        raise InputError("fullness check needs a nonempty system")
    low = min(m.bit_count() for row in system.rows for m in row.values())
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
