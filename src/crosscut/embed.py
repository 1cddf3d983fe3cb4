"""Exact containment search for expansions and blowups.

A pattern graph F sits inside a 3-graph H as an expansion when F embeds
into the shadow of H and every pattern edge can be completed by its own
fresh host vertex.  The search backtracks over shadow embeddings (pattern
vertices by decreasing degree adjusted for connectivity, host candidates by
increasing id) and assigns completion vertices by a bipartite matching kept
along the DFS, so the decision never depends on greedy slack.  A depth
tries only host vertices the matching can absorb; a slot takes an unheld
vertex at once, and alternating paths run only when all are held.  The
canonical assignment is derived from the matching at the leaf; partial-copy
completion uses the same matcher.  The same DFS, rooted at a host triple,
finds the copies through it.
"""

from __future__ import annotations

import functools
import itertools
import warnings
from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .builders import Coloring, triangle_system
from .config import SearchBudget
from .errors import HypothesisError, InputError
from .structures import Graph, Pair, TripleSystem, _is_int, _mask_vertices, sorted_pair
from .symmetry import key_and_twins
from .trees import crosscut_number, cycle_graph, path_graph


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Embedding:
    """Witness that a pattern's expansion (or blowup) sits in a host.

    core_map[i] is the host image of pattern vertex i; expansion_map pairs
    each sorted pattern edge with its completion vertex.  Core and expansion
    images are jointly injective.
    """

    pattern: Graph
    core_map: tuple[int, ...]
    expansion_map: tuple[tuple[Pair, int], ...]
    host_kind: str  # "3graph" | "graph"

    def violations(self, host: TripleSystem | Graph) -> list[str]:
        """Reasons the embedding fails in the host (empty when it holds).
        A host of the other kind is an InputError, not a violation."""
        host_kind = "3graph" if isinstance(host, TripleSystem) else "graph"
        if host_kind != self.host_kind:
            raise InputError(
                f"a {self.host_kind} embedding cannot be checked against a {host_kind} host"
            )
        out = []
        if len(self.core_map) != self.pattern.n:
            out.append("core map size mismatch")
            return out
        used = list(self.core_map) + [w for _, w in self.expansion_map]
        if len(set(used)) != len(used):
            out.append("core/expansion images are not jointly injective")
        if sorted(e for e, _ in self.expansion_map) != self.pattern.edge_list():
            out.append("expansion map does not cover the pattern edges")
            return out
        if any(not 0 <= x < host.n for x in used):
            out.append("image vertex out of host range")
            return out
        for (u, v), w in self.expansion_map:
            a, b = self.core_map[u], self.core_map[v]
            if self.host_kind == "3graph":
                if not host.has_triple(a, b, w):
                    out.append(f"triple for pattern edge {(u, v)} missing")
            else:
                if not (host.has_edge(a, b) and host.has_edge(a, w) and host.has_edge(b, w)):
                    out.append(f"triangle for pattern edge {(u, v)} missing")
        return out

    def validate(self, host: TripleSystem | Graph) -> bool:
        return not self.violations(host)

    def to_json(self) -> dict:
        return {
            "host_kind": self.host_kind,
            "pattern": {
                "n": self.pattern.n,
                "edges": [list(e) for e in self.pattern.edge_list()],
            },
            "core_map": list(self.core_map),
            "expansion_map": [
                {"edge": list(e), "vertex": w} for e, w in self.expansion_map
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "Embedding":
        """Parse the JSON form; any missing or mistyped field is an InputError."""
        try:
            pattern = Graph(data["pattern"]["n"], data["pattern"]["edges"])
            core_map = _json_ints(data["core_map"])
            expansion_map = tuple(
                (sorted_pair(*_json_ints(item["edge"], 2)), _json_int(item["vertex"]))
                for item in data["expansion_map"]
            )
            host_kind = data["host_kind"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed embedding: {exc!r}") from None
        if host_kind not in ("3graph", "graph"):
            raise InputError(f"unknown host kind {host_kind!r}")
        return Embedding(pattern, core_map, expansion_map, host_kind)


def _json_int(value) -> int:
    if not _is_int(value):
        raise InputError(f"expected an integer, got {value!r}")
    return value


def _json_ints(values, size: int | None = None) -> tuple[int, ...]:
    if not isinstance(values, list) or size not in (None, len(values)):
        raise InputError(f"expected a list of {size or 'some'} integers, got {values!r}")
    return tuple(_json_int(x) for x in values)


@dataclass(frozen=True)
class RainbowCertificate:
    """An embedding whose edge triples all received distinct colors."""

    embedding: Embedding
    colors: tuple[int, ...]


# ---------------------------------------------------------------------------
# completion matching
#
# Slots (pattern edges) are matched to host vertices: masks[s] holds the
# candidates of slot s, match[s] its vertex (-1 while unmatched) and the
# caller's `held` the mask of the matched vertices; the holder of a held
# vertex v is match.index(v), a scan of the few slots.  The expansion search
# keeps one such matching along its DFS, so each step costs at most a few
# alternating-path searches (Hopcroft & Karp 1973) instead of a matching
# computed from scratch, and none when a candidate is free (the cheap
# assignment of Duff, Kaya & Ucar 2011).


def _augment(slot: int, masks: list[int], blocked: int, match: list[int], held: int) -> int:
    """Search an alternating path from the unmatched slot that avoids the
    vertices in `blocked`; `held` must be the mask of the matched vertices.
    On success the path is flipped, so the slot is matched as well, and the
    bit of its end, the vertex newly held, is returned (the caller ORs it
    into `held`); on failure nothing changes and 0 is returned.

    When every other slot is matched, a matching covering all slots exists
    iff such a path exists (Berge), so one call decides feasibility.
    """
    seen = blocked
    stack = [slot]  # stack[j + 1] holds the vertex via[j] that stack[j] wants
    via: list[int] = []
    while stack:
        cand = masks[stack[-1]] & ~seen
        if not cand:
            stack.pop()
            if via:
                via.pop()
            continue
        bit = cand & -cand
        seen |= bit
        v = bit.bit_length() - 1
        if held & bit:
            stack.append(match.index(v))
            via.append(v)
            continue
        for j in range(len(stack) - 1, -1, -1):
            match[stack[j]] = v
            if j:
                v = via[j - 1]
        return bit
    return 0


def _lex_least(
    masks: list[int], blocked: int, match: list[int], held: int, slots: Iterable[int]
) -> list[int]:
    """Lexicographically least assignment of the given slots, in that order,
    derived from a matching that already covers every slot; `held` must be
    the mask of its vertices.

    Each slot in turn is fixed to its least vertex that still admits a
    matching of the unfixed slots: moving it off w onto vertex v displaces
    v's holder, and one alternating-path search from the holder, with v and
    the fixed slots' vertices blocked and w unheld, decides v.  The current
    vertex always qualifies, so only smaller ones are tried.
    """
    fixed = blocked
    out = []
    for s in slots:
        w = match[s]
        cand = masks[s] & ~fixed & ((1 << w) - 1)
        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            if not held & bit:
                match[s] = v
                held ^= bit | 1 << w
                w = v
                break
            holder = match.index(v)
            match[s] = v
            match[holder] = -1
            took = _augment(holder, masks, fixed | bit, match, held ^ 1 << w)
            if took:
                held ^= 1 << w ^ took
                w = v
                break
            match[s] = w
            match[holder] = v
        fixed |= 1 << w
        out.append(w)
    return out


def _lex_least_sdr(masks: list[int]) -> list[int] | None:
    """Lexicographically least system of distinct representatives of the
    masks, or None when there is none."""
    match = [-1] * len(masks)
    held = 0
    for s in range(len(masks)):
        took = _augment(s, masks, 0, match, held)
        if not took:
            return None
        held |= took
    return _lex_least(masks, 0, match, held, range(len(masks)))


# ---------------------------------------------------------------------------
# expansion search


def _embedding_order(pattern: Graph, edge: Pair | None = None) -> list[int]:
    """Decreasing degree with id tie-break, adjusted so each vertex follows
    a placed neighbor whenever the pattern is connected so far; a root
    edge (a, b) puts a and b first."""
    key = lambda v: (-pattern.degree(v), v)
    order: list[int] = list(edge or ())
    placed = set(order)
    remaining = set(range(pattern.n)) - placed
    while remaining:
        adjacent = [
            v
            for v in remaining
            if any(w in placed for w in pattern.neighbors(v))
        ]
        pool = adjacent if adjacent else sorted(remaining)
        v = min(pool, key=key)
        order.append(v)
        placed.add(v)
        remaining.remove(v)
    return order


@functools.lru_cache(maxsize=256)
def _plan(pattern: Graph, edge: Pair | None = None) -> tuple:
    """The DFS's pattern-only set-up, built once per pattern and root edge
    (a Graph is immutable and hashed by value): each vertex's depth in
    `_embedding_order`, back[i] the depths of the placed neighbours of the
    vertex at depth i (the edge to each is completed at depth i and gets
    slot first_slot[i] + j), the sorted pattern edges and their slots.  A
    root edge takes depths 0 and 1 and slot 0."""
    order = _embedding_order(pattern, edge)
    pos = [0] * pattern.n
    for i, v in enumerate(order):
        pos[v] = i
    back = [
        tuple(sorted([pos[w] for w in pattern.neighbors(u) if pos[w] < i]))
        for i, u in enumerate(order)
    ]
    first_slot = list(itertools.accumulate([len(b) for b in back], initial=0))
    pat_edges = pattern.edge_list()
    edge_slot = []
    for a, b in pat_edges:
        i, d = max(pos[a], pos[b]), min(pos[a], pos[b])
        edge_slot.append(first_slot[i] + back[i].index(d))
    # tuples: the plan is shared by every search with this pattern
    return tuple(pos), tuple(back), tuple(first_slot), tuple(pat_edges), tuple(edge_slot)


def find_expansion(
    host: TripleSystem,
    pattern: Graph,
    deterministic: bool = True,
    budget: SearchBudget | None = None,
) -> Embedding | None:
    """Decide whether the pattern's expansion embeds in the host; exact.

    Returns None iff no embedding exists.  The DFS places pattern vertices
    in `_embedding_order`, host candidates by increasing id, and accepts a
    candidate only if the completed pattern edges still have distinct
    completion vertices outside the core.  That matching, one list of
    |E(F)| slots, and `held`, the mask of its vertices (the precondition of
    `_augment` and `_lex_least`), are kept along the DFS and restored on
    backtrack, so no step copies a list of host size.  A slot needing a
    vertex takes its least candidate outside the core and `held`, and runs
    `_augment` only when all are held.  The other slots are matched, so
    this succeeds iff a full matching exists (Berge): acceptance and node
    counts do not depend on the matching held, and
    `_search`'s look-ahead skips only candidates that would fail.  With
    deterministic=True the certificate is canonical: least shadow images in
    the search order, then the lexicographically least completion, which
    `_lex_least` derives from any full matching; otherwise the leaf takes
    the matching it holds.  Package callers keep the default; the
    benchmark's tracer still passes it positionally.  A host that is not a
    TripleSystem, or a pattern that is not a Graph, is an InputError.
    """
    if not isinstance(host, TripleSystem):
        raise InputError(f"host must be a TripleSystem, got {type(host).__name__}")
    if not isinstance(pattern, Graph):
        raise InputError(f"pattern must be a Graph, got {type(pattern).__name__}")
    if not pattern.edges:
        raise InputError("pattern needs at least one edge")
    if pattern.n + len(pattern.edges) > host.n:
        return None
    return _search(host, pattern, _plan(pattern), None, deterministic, budget)


def _absorbable(masks: list[int], match: list[int], k: int, free: int) -> int:
    """The vertices that slots 0..k-1, all matched, can do without: `free`
    (the unheld vertices outside the core) and each held vertex whose
    holder has an alternating path to a free one (Berge)."""
    todo = range(k)
    while todo:
        rest = []
        for s in todo:
            if masks[s] & free:
                free |= 1 << match[s]
            else:
                rest.append(s)
        todo = rest if len(rest) < len(todo) else ()
    return free


def _grouped(row: dict[int, int]) -> tuple:
    """One (mask, zs) pair per distinct mask in the row, zs the vertices z
    with row[z] == mask."""
    by_mask: dict[int, int] = {}
    for z, mask in row.items():
        by_mask[mask] = by_mask.get(mask, 0) | 1 << z
    return tuple(by_mask.items())


def _search(
    host: TripleSystem, pattern: Graph, plan: tuple,
    root: tuple[int, int, int] | None, deterministic: bool = False,
    budget: SearchBudget | None = None,
) -> Embedding | None:
    """find_expansion's DFS along a `_plan` with the host's codegree rows.
    A root (x, y, z) puts the plan's root edge (a, b) on x and y with
    completion z: the DFS starts at depth 1 with the one candidate y and
    stops there, and finds exactly the copies that complete (a, b) by
    {x, y, z}: depth 1's one slot, slot 0, is then given 1 << z alone.
    Later depths read the host's rows unchanged, as y stays in the core
    and no slot or candidate ever takes it.

    Look-ahead: entering a depth with matching M, a candidate h must be in
    `avail` (`_absorbable`), and each new pair (a, h) needs a codegree
    vertex in `avail`.  Both are necessary: if the try succeeds with M',
    each path of M' xor M from h's holder or a new slot ends at a vertex
    unheld in M, outside the core and h, so every vertex on it is in
    `avail`.  So accepted nodes, their order, the matchings held and the
    certificates are those of the unfiltered DFS; a holder always moves,
    and a new slot always has a vertex outside the core and h.

    Link: the new pairs (a, h) have a codegree vertex in `avail` for the h
    in the OR of rows[a][w] over w in `avail`, which by symmetry are the h
    whose rows[a][h] meets `avail`.  A search's first read of a row takes
    the OR; later reads test each `_grouped` class with one AND.  The sets
    are equal, so nodes, matchings and certificates do not change."""
    pos, back, first_slot, pat_edges, edge_slot = plan
    rows = host.rows
    last = pattern.n - 1
    full = (1 << host.n) - 1
    hs = [0] * pattern.n  # host image of order[i]
    cands = [0] * pattern.n  # untried candidates at depth i
    saved: list[list[int]] = [[]] * pattern.n  # match at depth i
    helds = [0] * pattern.n  # held at depth i
    masks = [0] * len(pat_edges)
    match = [-1] * len(pat_edges)
    groups: dict[int, tuple] = {}  # u -> `_grouped(rows[u])`, () once read
    if budget is not None:
        budget.tick()
    i = 0
    core = 0
    held = 0  # vertices some slot holds; never meets the core
    cands[0] = full
    rooted = -1  # the depth whose one slot holds the root's completion
    if root is not None:
        x, y, z = root
        if not host.codegree_mask(x, y) >> z & 1:
            return None  # not a host triple
        hs[0], core, i, rooted = x, 1 << x, 1, 1
        cands[1] = 1 << y
    bottom = i
    saved[i] = match[:]
    while True:
        cand = cands[i]
        if not cand:
            if i == bottom:
                return None
            i -= 1
            core ^= 1 << hs[i]
            match[:] = saved[i]
            held = helds[i]
            continue
        bit = cand & -cand
        cands[i] = cand ^ bit
        h = bit.bit_length() - 1
        inner = core | bit
        if held & bit:
            holder = match.index(h)
            match[holder] = -1
            held ^= bit
            # a free candidate is an augmenting path of length one
            took = masks[holder] & ~inner & ~held
            if took:
                took &= -took
                match[holder] = took.bit_length() - 1
            else:
                took = _augment(holder, masks, inner, match, held)
            held |= took
        s = first_slot[i]
        for d in back[i]:
            masks[s] = took = rows[hs[d]][h]
            took &= ~inner & ~held
            if took:
                took &= -took
                match[s] = took.bit_length() - 1
            else:
                took = _augment(s, masks, inner, match, held)
                if not took:
                    break
            held |= took
            s += 1
        if s < first_slot[i + 1]:  # a new slot found no vertex
            match[:] = saved[i]
            held = helds[i]
            continue
        if i == rooted:
            masks[0], match[0], held = 1 << z, z, 1 << z
        if budget is not None:
            budget.tick()
        hs[i] = h
        if i == last:
            if deterministic:
                assign = _lex_least(masks, inner, match, held, edge_slot)
            else:
                assign = [match[s] for s in edge_slot]
            # tuple() of a list, not of an iterator: the latter allocates a
            # spare-size tuple and shrinks it, and shrunk tuples pile up in
            # CPython's tuple free lists until a full collection
            return Embedding(
                pattern=pattern,
                core_map=tuple([hs[i] for i in pos]),
                expansion_map=tuple(list(zip(pat_edges, assign))),
                host_kind="3graph",
            )
        i += 1
        core = inner
        avail = cand = _absorbable(masks, match, first_slot[i], full & ~core & ~held)
        for d in back[i]:
            u = hs[d]
            link = 0
            row = groups.get(u)
            if row is None:  # first read: scan the row, group it next time
                groups[u] = ()
                for w, mask in rows[u].items():
                    if avail >> w & 1:
                        link |= mask
            else:
                if not row:
                    row = groups[u] = _grouped(rows[u])
                for mask, zs in row:
                    if mask & avail:
                        link |= zs
            cand &= link
        cands[i] = cand
        saved[i] = match[:]
        helds[i] = held


def find_blowup(
    host: Graph, pattern: Graph, budget: SearchBudget | None = None
) -> Embedding | None:
    """Decide whether the pattern's triangle blowup embeds in the host graph
    by searching its triangle system; the certificate (canonical, as
    find_expansion's) is translated back.  A host that is not a Graph is
    an InputError, as is a pattern that find_expansion rejects."""
    if not isinstance(host, Graph):
        raise InputError(f"host must be a Graph, got {type(host).__name__}")
    emb = find_expansion(triangle_system(host), pattern, budget=budget)
    if emb is None:
        return None
    return replace(emb, host_kind="graph")


@functools.lru_cache(maxsize=32)
def _edge_orbits(pattern: Graph) -> tuple:
    """The first edge (a, b) of each orbit of the pattern's twin symmetry
    (edges whose ends have the same sorted twin ids), and whether a and b
    are twins."""
    twin = key_and_twins(pattern.n, pattern.edges)[1]
    firsts = {}
    for a, b in pattern.edge_list():
        firsts.setdefault(tuple(sorted((twin[a], twin[b]))), (a, b, twin[a] == twin[b]))
    return tuple(firsts.values())


def expansion_through(host: TripleSystem, pattern: Graph, triples) -> bool:
    """Whether the pattern's expansion has a copy in the host that completes
    some pattern edge by one of the given triples (so, when the host less
    them is free, whether the host is not).  The DFS is rooted at each
    ordering (x, y, z) of each triple and the first edge (a, b) of each
    edge orbit: twin transpositions generate the symmetric group on each
    twin class, so an automorphism maps (a, b) onto any edge of its orbit,
    and when a and b are twins, (a b) is one, so x < y suffices."""
    if pattern.n + len(pattern.edges) > host.n:
        return False
    for a, b, twins in _edge_orbits(pattern):
        plan = _plan(pattern, (a, b))
        for triple in triples:
            for x, y, z in itertools.permutations(triple):
                if (x < y or not twins) and _search(host, pattern, plan, (x, y, z)):
                    return True
    return False


# ---------------------------------------------------------------------------
# partial completion


def _pattern_from_pairs(pairs: list[Pair]) -> tuple[Graph, list[int]]:
    verts = sorted({x for p in pairs for x in p})
    index = {v: i for i, v in enumerate(verts)}
    pattern = Graph(len(verts), [(index[u], index[v]) for u, v in pairs])
    return pattern, verts


def complete_partial_expansion(
    host: TripleSystem,
    shadow_copy: Iterable[Pair],
    pre_assigned: Mapping[Pair, int] | None = None,
) -> Embedding | None:
    """Extend a shadow copy plus a partial completion to a full expansion.

    The remaining edges get distinct fresh vertices via bipartite matching,
    so success is guaranteed whenever every unassigned pair has enough
    codegree (3m suffices, as does |F| + |V(F)|); None means no system of
    distinct representatives exists for this shadow copy.  Every pair and
    pre-assigned key must be two integer vertex ids (bools excluded), or it
    is an InputError.
    """
    pairs = [_vertex_pair(p) for p in shadow_copy]
    pre = {_vertex_pair(k): w for k, w in (pre_assigned or {}).items()}
    completion = _completion(host, pairs, pre)
    if completion is None:
        return None
    pattern, verts = _pattern_from_pairs(pairs)
    return _certificate(pattern, tuple(verts), completion)


def _vertex_pair(p) -> Pair:
    """p as a sorted pair, when it is two int vertex ids (not bools)."""
    try:
        u, v = p
    except (TypeError, ValueError):
        u = v = None
    if not (_is_int(u) and _is_int(v)):
        raise InputError(f"pair {p!r} is not two integer vertex ids")
    return sorted_pair(u, v)


def _certificate(
    pattern: Graph, core_map: tuple[int, ...], completion: Mapping[Pair, int]
) -> Embedding:
    """The expansion certificate mapping the pattern by core_map, each
    pattern edge completed by the vertex `completion` gives its sorted host
    pair."""
    return Embedding(
        pattern=pattern,
        core_map=core_map,
        expansion_map=tuple([
            ((a, b), completion[sorted_pair(core_map[a], core_map[b])])
            for a, b in pattern.edge_list()
        ]),
        host_kind="3graph",
    )


def _completion(
    host: TripleSystem, pairs: list[Pair], pre: Mapping[Pair, int]
) -> dict[Pair, int] | None:
    """Completion vertex of each pair of a shadow copy given as sorted pairs
    of int ids, some pre-assigned by `pre` (keyed by sorted pairs): the
    pre-assigned vertices, and the lexicographically least distinct fresh
    vertices for the other pairs (None when there are none).  A copy or
    pre-assignment that does not fit the host is an InputError."""
    if len(set(pairs)) != len(pairs) or not pairs:
        raise InputError("shadow copy must be a nonempty list of distinct pairs")
    for p in pairs:
        if host.codegree_mask(*p) == 0:
            raise InputError(f"pair {p} is not in the host shadow")
    core = {x for p in pairs for x in p}
    core_mask = sum(1 << x for x in core)
    for p, w in pre.items():
        if p not in set(pairs):
            raise InputError(f"pre-assigned pair {p} is not in the shadow copy")
        if not _is_int(w) or not 0 <= w < host.n:
            raise InputError(f"pre-assigned vertex {w!r} is not a host vertex")
        if w in core:
            raise InputError(f"pre-assigned vertex {w} lies in the core")
        if not (host.codegree_mask(*p) >> w) & 1:
            raise InputError(f"pre-assigned triple {p} + {w} is not a host edge")
    ws = list(pre.values())
    if len(set(ws)) != len(ws):
        raise InputError("pre-assigned vertices must be distinct")
    pre_mask = sum(1 << w for w in ws)

    unassigned = [p for p in sorted(pairs) if p not in pre]
    masks = [
        host.codegree_mask(*p) & ~core_mask & ~pre_mask for p in unassigned
    ]
    assign = _lex_least_sdr(masks)
    if assign is None:
        return None
    completion = dict(pre)
    completion.update(zip(unassigned, assign))
    return completion


# ---------------------------------------------------------------------------
# guaranteed tree embedding through two apex sets


def embed_tree_two_sets(
    host: TripleSystem,
    tree: Graph,
    s1: Iterable[int],
    s2: Iterable[int],
    v1: Iterable[int],
    v2: Iterable[int],
    g1: Graph,
    g2: Graph,
) -> Embedding | None:
    """Embed a tree's expansion using two apex sets with common-link graphs.

    Structure is validated (typed errors name the violated hypothesis); the
    embedding follows the constructive recipe -- maximum-independent crosscut
    pair, a vertex whose non-leaf neighborhood has size at most one, shared
    anchor in V1 and V2, matching completion -- and falls back to the exact
    search when slack hypotheses (the 3|V(T)| degree bound) are relaxed.
    """
    if not tree.is_tree() or not tree.edges:
        raise HypothesisError("tree", "pattern must be a tree with >= 1 edge")
    sigma, pair = crosscut_number(tree)
    t = sigma - 1
    s1s, s2s = set(s1), set(s2)
    v1s, v2s = set(v1), set(v2)
    if len(s1s) != t or len(s2s) != t:
        raise HypothesisError("apex-size", f"apex sets must have size sigma-1 = {t}")
    if s1s == s2s:
        raise HypothesisError("apex-distinct", "the two apex sets must differ")
    for name, vs in (("S1", s1s), ("S2", s2s), ("V1", v1s), ("V2", v2s)):
        if any(not 0 <= x < host.n for x in vs):
            raise HypothesisError("range", f"{name} contains an out-of-range vertex")
    if (v1s | v2s) & (s1s | s2s):
        raise HypothesisError("disjoint", "V1, V2 must avoid the apex sets")
    if not v1s & v2s:
        raise HypothesisError("overlap", "V1 and V2 must intersect")
    for name, g, vs in (("G1", g1, v1s), ("G2", g2, v2s)):
        if g.n != host.n:
            raise HypothesisError("carrier", f"{name} must live on the host vertex set")
        if any(u not in vs or v not in vs for u, v in g.edges):
            raise HypothesisError("carrier", f"{name} has an edge outside its set")
    for name, g, ss in (("G1", g1, s1s), ("G2", g2, s2s)):
        for x in ss:
            for u, v in g.edges:
                if not host.has_triple(x, u, v):
                    raise HypothesisError(
                        "link", f"{name} is not contained in the link of apex {x}"
                    )

    recipe = _two_set_recipe(host, tree, pair, s1s, s2s, v1s, v2s, g1, g2)
    if recipe is not None and recipe.validate(host):
        return recipe
    return find_expansion(host, tree)


def _two_set_recipe(host, tree, pair, s1s, s2s, v1s, v2s, g1, g2):
    iset = set(pair.independent)
    candidates = [
        v
        for v in sorted(iset)
        if sum(1 for w in tree.neighbors(v) if tree.degree(w) > 1) <= 1
    ]
    if not candidates:
        return None
    v_star = candidates[0]
    non_leaf = [w for w in tree.neighbors(v_star) if tree.degree(w) > 1]
    u_star = non_leaf[0] if non_leaf else min(tree.neighbors(v_star))
    leaf_nbrs = sorted(set(tree.neighbors(v_star)) - {u_star})

    v_prime = min(s2s - s1s)
    shared = [h for h in sorted(v1s & v2s) if g1.adj[h] and g2.adj[h]]
    if not shared:
        return None
    u_prime = shared[0]
    leaf_pool = [h for h in sorted(v2s - {u_prime}) if g2.adj[h]]
    n_images = leaf_pool[: len(leaf_nbrs)]
    if len(n_images) < len(leaf_nbrs):
        return None
    v1_free = sorted(v1s - set(n_images))

    images: dict[int, int] = {v_star: v_prime, u_star: u_prime}
    for leaf, img in zip(leaf_nbrs, n_images):
        images[leaf] = img

    rest_i = sorted(iset - {v_star})
    for x, s in zip(rest_i, sorted(s1s)):
        images[x] = s

    # grow the leftover-edge forest inside G1 restricted to the free part
    free_mask = sum(1 << x for x in v1_free)
    used = set(images.values())
    r_edges = list(pair.leftover)
    r_adj: dict[int, list[int]] = {}
    for a, b in r_edges:
        r_adj.setdefault(a, []).append(b)
        r_adj.setdefault(b, []).append(a)
    done: set[int] = set()
    roots = ([u_star] if u_star in r_adj else []) + sorted(r_adj)
    for root in roots:
        if root in done:
            continue
        if root not in images:
            spot = next(
                (
                    h
                    for h in v1_free
                    if h not in used and g1.adj[h] & free_mask
                ),
                None,
            )
            if spot is None:
                return None
            images[root] = spot
            used.add(spot)
        done.add(root)
        stack = [root]
        while stack:
            a = stack.pop()
            for b in r_adj[a]:
                if b in done:
                    continue
                done.add(b)
                opts = g1.adj[images[a]] & free_mask
                h = next((x for x in _mask_vertices(opts) if x not in used), None)
                if h is None:
                    return None
                images[b] = h
                used.add(h)
                stack.append(b)

    # remaining tree vertices have all their edges into I: park them in V1
    for v in range(tree.n):
        if v in images:
            continue
        spot = next(
            (h for h in v1_free if h not in used and g1.adj[h]), None
        )
        if spot is None:
            return None
        images[v] = spot
        used.add(spot)

    # leftover apexes complete the leftover edges
    leftover_apexes = sorted(s1s - {images[x] for x in rest_i})
    if len(leftover_apexes) != len(r_edges):
        return None
    pre = {}
    for (a, b), s in zip(sorted(r_edges), leftover_apexes):
        pre[sorted_pair(images[a], images[b])] = s

    shadow_pairs = [sorted_pair(images[a], images[b]) for a, b in tree.edge_list()]
    try:
        completion = _completion(host, shadow_pairs, pre)
    except InputError:  # a pair outside the shadow, or a repeated pair
        return None
    if completion is None:
        return None
    return _certificate(tree, tuple(images[v] for v in range(tree.n)), completion)


# ---------------------------------------------------------------------------
# varying the length of an alternating cycle witness


@dataclass(frozen=True)
class AlternatingWitness:
    """Hub walk w[0..] with interleaved vertices x[i] between w[i] and its
    successor, each triple {w[i], x[i], w[i+1]} a host edge.  closed=True
    encodes a cycle witness (the last triple wraps around)."""

    hubs: tuple[int, ...]
    interleaved: tuple[int, ...]
    closed: bool = True


def vary_cycle_length(
    host: TripleSystem, witness: AlternatingWitness
) -> dict[int, Embedding]:
    """Produce an expansion embedding of every cycle (or path) length in
    [t, 2t] from one alternating witness with codegree slack 6t+6.

    Lengths below 3 are clipped for cycle witnesses, with a warning.
    """
    w = witness.hubs
    x = witness.interleaved
    t = len(x)
    if witness.closed:
        if len(w) != t or t < 2:
            raise HypothesisError(
                "shape", "cycle witness needs equal hub and interleave counts >= 2"
            )
    else:
        if len(w) != t + 1 or t < 1:
            raise HypothesisError("shape", "path witness needs one more hub than gaps")
    all_verts = list(w) + list(x)
    if len(set(all_verts)) != len(all_verts):
        raise HypothesisError("distinct", "witness vertices must be distinct")
    gaps = [(w[i], x[i], w[(i + 1) % len(w)]) for i in range(t)]
    need = 6 * t + 6
    for a, mid, b in gaps:
        if not host.has_triple(a, mid, b):
            raise HypothesisError("triples", f"{(a, mid, b)} is not a host edge")
        if min(host.codegree(a, mid), host.codegree(mid, b)) < need:
            raise HypothesisError(
                "codegree", f"pairs through {mid} need codegree >= {need}"
            )

    lengths = list(range(t, 2 * t + 1))
    if witness.closed and lengths and lengths[0] < 3:
        warnings.warn("cycle lengths below 3 clipped from the witness range")
        lengths = [l for l in lengths if l >= 3]

    out: dict[int, Embedding] = {}
    for ell in lengths:
        k = ell - t
        seq = [v for i in range(k) for v in (w[i], x[i])] + list(w[k:])
        pattern = cycle_graph(ell) if witness.closed else path_graph(ell)
        pre = {sorted_pair(w[j], w[(j + 1) % len(w)]): x[j] for j in range(k, t)}
        completion = _completion(
            host, [sorted_pair(seq[a], seq[b]) for a, b in pattern.edge_list()], pre
        )
        if completion is None:
            raise AssertionError(
                "completion is guaranteed under the witness codegree bound"
            )
        emb = _certificate(pattern, tuple(seq), completion)
        if not emb.validate(host):
            raise AssertionError("witness-derived embedding failed validation")
        out[ell] = emb
    return out


# ---------------------------------------------------------------------------
# rainbow search


def find_rainbow_expansion(
    coloring: Coloring,
    pattern: Graph,
    budget: SearchBudget | None = None,
) -> RainbowCertificate | None:
    """Exact search for an expansion of the pattern inside the complete
    3-graph whose edge triples all receive distinct colors.

    Core maps are the injective tuples of host vertices in lexicographic
    order, assigned along `_embedding_order`; each is completed edge by edge
    with fresh vertices.  One budget node is one core map tried or one step
    of a completion.
    """
    if not pattern.edges:
        raise InputError("pattern needs at least one edge")
    if pattern.n + len(pattern.edges) > coloring.n:
        return None
    order = _embedding_order(pattern)
    pat_edges = pattern.edge_list()
    images = [0] * pattern.n
    for core in itertools.permutations(range(coloring.n), pattern.n):
        if budget is not None:
            budget.tick()
        for u, h in zip(order, core):
            images[u] = h
        pairs = [(images[u], images[v]) for u, v in pat_edges]
        used = sum(1 << h for h in core)
        ws = _rainbow_completion(coloring, pairs, used, set(), [], budget)
        if ws is not None:
            emb = Embedding(
                pattern=pattern,
                core_map=tuple(images),
                expansion_map=tuple(zip(pat_edges, ws)),
                host_kind="3graph",
            )
            colors = tuple(coloring.color(a, b, w) for (a, b), w in zip(pairs, ws))
            return RainbowCertificate(emb, colors)
    return None


def _rainbow_completion(
    coloring: Coloring,
    pairs: list[tuple[int, int]],
    used_mask: int,
    used_colors: set[int],
    ws: list[int],
    budget: SearchBudget | None,
) -> list[int] | None:
    """Extend ws, the completion vertices of the first len(ws) pairs, to
    every pair with vertices outside used_mask and colors outside
    used_colors."""
    if budget is not None:
        budget.tick()
    if len(ws) == len(pairs):
        return ws
    a, b = pairs[len(ws)]
    for w in range(coloring.n):
        if (used_mask >> w) & 1:
            continue
        c = coloring.color(a, b, w)
        if c in used_colors:
            continue
        used_colors.add(c)
        ws.append(w)
        got = _rainbow_completion(
            coloring, pairs, used_mask | (1 << w), used_colors, ws, budget
        )
        if got is not None:
            return got
        ws.pop()
        used_colors.remove(c)
    return None
