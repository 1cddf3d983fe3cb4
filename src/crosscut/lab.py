"""Certified extremal computations at small scale: exact Turán maxima by
orderly generation, closeness reports, exact bipartization distance,
anti-Ramsey bound certificates, and batch verification suites.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass, fields
from functools import partial
from pathlib import Path

from .builders import (
    Coloring,
    constant_coloring,
    lower_bound_coloring,
    s_construction,
    s_contains,
    s_graph,
    s_size,
    sbi_size,
    triangle_system,
)
from .config import DEFAULT_MAX_NODES, SearchBudget
from .errors import BudgetExceededError, InputError
from .embed import (
    RainbowCertificate,
    _pattern_from_pairs,
    expansion_through,
    find_blowup,
    find_expansion,
    find_rainbow_expansion,
)
from .structures import (
    Graph,
    TripleSystem,
    _check_n,
    _mask_vertices,
    matching_le1_structure,
    two_intersecting_structure,
    MatchingAtLeastTwo,
    NotTwoIntersecting,
    CommonPair,
    SmallSystem,
    StarClass,
    TriangleClass,
    EmptyClass,
)
from .symmetry import canonical_edge_key, key_and_twins
from .trees import (
    analyze_tree,
    crosscut_value,
    cycle_graph,
    decomposition_witness,
    enumerate_trees,
    LeafNeighborVertex,
    path_graph,
    pendant_critical_edge,
    tree_canonical,
)

WITNESS_CAP = 16
CONSTRUCTION_CHECK_LIMIT = 16  # largest n whose triangle-side construction is searched
EXHAUSTIVE_LIMIT = 7  # largest n of an exhaustive Turán search
RAINBOW_CHECK_LIMIT = 8  # largest n whose certificate coloring is searched for rainbow copies
EXACT_CUT_LIMIT = 24  # largest support whose bipartization distance is computed exactly


# ---------------------------------------------------------------------------
# canonical forms (isomorph rejection, cache keys)


def canonical_graph_key(graph: Graph) -> tuple:
    return (graph.n, canonical_edge_key(graph.n, graph.edges))


# ---------------------------------------------------------------------------
# Turán results


@dataclass(frozen=True)
class TuranResult:
    n: int
    pattern: Graph
    value: int
    exhaustive: bool
    extremal_witnesses: tuple[tuple, ...]  # canonical edge tuples, capped
    lower_bound_construction_value: int | None
    construction_free: bool | None
    matches_construction: bool | None
    nodes: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pattern": [list(e) for e in self.pattern.edge_list()],
            "value": self.value,
            "exhaustive": self.exhaustive,
            "extremal_witnesses": [
                [list(e) for e in w] for w in self.extremal_witnesses
            ],
            "lower_bound_construction_value": self.lower_bound_construction_value,
            "construction_free": self.construction_free,
            "matches_construction": self.matches_construction,
            "nodes": self.nodes,
        }


def _levelwise_max(
    n: int,
    all_items: list[tuple[int, ...]],
    is_free,
    objective,
    seed_value: int,
    budget: SearchBudget,
) -> tuple[int, list[tuple], int]:
    """Orderly generation over downward-closed families: grow one
    representative per isomorphism class level by level, pruning classes
    whose full completion cannot beat the best known objective.

    Each representative carries its parent's addable list, and only the
    items of that list outside it are tested.  The families are downward
    closed: if grown | {x} is free, so is its subset current | {x}, so
    every item addable to grown = current | {it} lies in current's addable
    list.  Filtering that list keeps the order of all_items, so each
    addable list, and with it every child, key and count, is the one a
    test of every item would give.  Siblings share one list.

    Items are tested once per orbit of current's twin symmetry.  Twinship
    is an equivalence, so the twin transpositions generate the symmetric
    group on each twin class; two items with the same signature, the
    sorted twin ids of their vertices, are therefore mapped onto each other
    by an automorphism s of current.  So current | {it} and
    current | {s(it)} are isomorphic: the same freeness verdict and the
    same key.  Only the first item of a signature is keyed, as a later one
    would have met its key in nxt and been skipped.

    is_free(current | {it}, it), which may assume current free, runs once
    per isomorphism class per level.  The first child of each signature is
    keyed before it is searched, and its verdict is shared through one dict
    per level keyed by its canonical key.  The key is a complete invariant
    (equal keys iff isomorphic families), and freeness of F^3 or of F's
    triangle blowup is invariant under isomorphism, so a stored verdict is
    the one is_free would return.  All children of one level have the same
    size, so their keys never meet a later level's and the dict is dropped
    when the level ends.

    Each labelled child is keyed once per level: a second dict maps the
    child's item bitmask (bit i for all_items[i]) to its key and twin ids,
    so a family reached from several parents is not keyed again.  Int masks
    keep the dict smaller than frozensets would.  The empty family, whose
    vertices are all twins, is keyed once.

    Returns (best objective, canonical witness keys, node count).
    """
    bits = {it: 1 << i for i, it in enumerate(all_items)}
    empty: frozenset = frozenset()
    empty_key = canonical_edge_key(n, empty)
    level: dict[tuple, tuple] = {empty_key: (empty, 0, all_items, [0] * n)}
    best = objective(empty)
    witnesses = {empty_key}
    if seed_value > best:
        best = seed_value
        witnesses = set()
    while level:
        nxt: dict[tuple, tuple] = {}
        keys: dict[int, tuple] = {}  # item bitmask -> (canonical key, twin ids), this level
        verdict: dict[tuple, bool] = {}  # canonical key -> freeness, this level
        for current, mask, candidates, twin in level.values():
            budget.tick()
            by_sig: dict[tuple, bool] = {}
            addable = []
            firsts = []  # (child, bitmask, (key, twins)) of each signature's first addable item
            for it in candidates:
                if it not in current:
                    sig = tuple(sorted([twin[v] for v in it]))
                    free = by_sig.get(sig)
                    if free is None:
                        grown = current | {it}
                        grown_mask = mask | bits[it]
                        keyed = keys.get(grown_mask)
                        if keyed is None:
                            keyed = keys[grown_mask] = key_and_twins(n, grown)
                        free = verdict.get(keyed[0])
                        if free is None:
                            free = verdict[keyed[0]] = is_free(grown, it)
                        by_sig[sig] = free
                        if free:
                            firsts.append((grown, grown_mask, keyed))
                    if free:
                        addable.append(it)
            if objective(current.union(addable)) < best:
                continue
            for grown, grown_mask, (key, twins) in firsts:
                if key in nxt:
                    continue
                nxt[key] = (grown, grown_mask, addable, twins)
                val = objective(grown)
                if val > best:
                    best = val
                    witnesses = {key}
                elif val == best and len(witnesses) < WITNESS_CAP:
                    witnesses.add(key)
        level = nxt
    return best, sorted(witnesses), budget.nodes


def _exact_turan(
    n: int,
    pattern: Graph,
    exhaustive: bool,
    budget: SearchBudget | None,
    construction,
    arity: int,
    is_free,
    objective,
) -> TuranResult:
    """Driver shared by the exact Turán entry points.

    construction is None or (t, size, free): for 0 <= t <= n its value is
    size(n, t), and free(n, t) is True, False or None (undecided) for its
    freeness from the pattern.  Lower-bound mode reports the construction
    value alone.  Exhaustive mode (n <= EXHAUSTIVE_LIMIT, checked before
    free is called; budget-checked, 50M nodes when no budget is given) runs
    orderly generation over the arity-subsets of [n], seeded with the
    construction value when the construction was verified free.
    A pattern whose copies have more than n vertices is in no family: from
    n = 3 on, the complete family (its own key) alone has the top value,
    and no search runs.  An edgeless pattern and a negative n are
    InputErrors in both modes.
    """
    if not pattern.edges:
        raise InputError("pattern needs at least one edge")
    if n < 0:
        raise InputError("n must be nonnegative")
    if exhaustive and n > EXHAUSTIVE_LIMIT:
        raise BudgetExceededError(f"exhaustive search supports n <= {EXHAUSTIVE_LIMIT}")
    construction_value = construction_free = None
    if construction is not None:
        t, size, free = construction
        if 0 <= t <= n:
            construction_value = size(n, t)
            construction_free = free(n, t)
    value = construction_value if construction_value is not None else 0
    witness_keys: list[tuple] = []
    nodes = 0
    if exhaustive:
        items = list(itertools.combinations(range(n), arity))
        if pattern.n + len(pattern.edges) > n >= 3:
            value, witness_keys = objective(frozenset(items)), [tuple(items)]
        else:
            seed = value if construction_free else 0
            if budget is None:
                budget = SearchBudget(DEFAULT_MAX_NODES)
            value, witness_keys, nodes = _levelwise_max(
                n, items, is_free, objective, seed, budget
            )
    return TuranResult(
        n=n,
        pattern=pattern,
        value=value,
        exhaustive=exhaustive,
        extremal_witnesses=tuple(witness_keys),
        lower_bound_construction_value=construction_value,
        construction_free=construction_free,
        matches_construction=(
            None
            if not exhaustive or construction_value is None
            else value == construction_value
        ),
        nodes=nodes,
    )


def exact_turan_hypergraph(
    n: int,
    pattern: Graph,
    exhaustive: bool = True,
    budget: SearchBudget | None = None,
) -> TuranResult:
    """Maximum size of an n-vertex 3-graph avoiding the pattern's expansion.

    Exhaustive mode runs orderly generation with exact freeness tests;
    otherwise only the lower bound of the apex construction S(n, σ−1),
    free by s_contains at every n, is reported, for tree patterns."""
    construction = None
    if pattern.is_tree():
        t = crosscut_value(pattern) - 1
        construction = (t, s_size, lambda n, t: not s_contains(n, t, pattern))

    def is_free(triples: frozenset, it) -> bool:
        return not expansion_through(TripleSystem(n, triples), pattern, [it])

    return _exact_turan(n, pattern, exhaustive, budget, construction, 3, is_free, len)


def exact_generalized_turan(
    n: int,
    pattern: Graph,
    exhaustive: bool = True,
    budget: SearchBudget | None = None,
) -> TuranResult:
    """Maximum triangle count of an n-vertex graph avoiding the pattern's
    triangle blowup.  The lower bound is the joined construction, for trees
    and cycles, with the extra edge for even paths and even cycles (the
    trees and cycles of maximum degree 2) when it fits; its freeness is
    searched for n <= CONSTRUCTION_CHECK_LIMIT."""
    edge_count = len(pattern.edges)
    degrees = pattern.degrees()
    is_cycle = (
        pattern.is_connected()
        and edge_count == pattern.n
        and all(d == 2 for d in degrees)
    )
    construction = None
    if pattern.is_tree() or is_cycle:
        t = crosscut_value(pattern) - 1
        plus = edge_count % 2 == 0 and all(d <= 2 for d in degrees)
        if not (plus and (n - t) // 2 < 2):
            def free(n: int, t: int) -> bool | None:
                if n <= CONSTRUCTION_CHECK_LIMIT:
                    return find_blowup(s_graph(n, t, plus=plus), pattern) is None
                return None

            construction = (t, partial(sbi_size, plus=plus), free)

    def is_free(edges: frozenset, it) -> bool:
        graph = Graph(n, edges)
        u, v = it
        new = [(u, v, w) for w in _mask_vertices(graph.adj[u] & graph.adj[v])]
        return not new or not expansion_through(triangle_system(graph), pattern, new)

    def objective(edges: frozenset) -> int:
        return Graph(n, edges).count_triangles()

    return _exact_turan(n, pattern, exhaustive, budget, construction, 2, is_free, objective)


# ---------------------------------------------------------------------------
# result cache


_TURAN_FIELDS = {f.name for f in fields(TuranResult)}


def cached_turan(
    mode: str,
    n: int,
    pattern: Graph,
    cache_dir: Path | None,
    compute,
    exhaustive: bool = True,
) -> dict:
    """Content-addressed JSON cache keyed by (mode, n, canonical pattern),
    plus "lower-only", "covering-number" for lower-bound results: the first
    tag keeps them from an exhaustive request, the second from files
    written while hypergraph construction_free was null for n > 16
    (exhaustive keys are unchanged).  A cache file
    that is not a JSON object with every TuranResult field is recomputed
    and rewritten.  A hit reports the requested pattern's edges, the one
    field that an isomorphic pattern under the same key can change."""
    if cache_dir is None:
        return compute().to_json()
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = [mode, n, canonical_graph_key(pattern)]
    if not exhaustive:
        key += ["lower-only", "covering-number"]
    digest = hashlib.sha256(json.dumps(key).encode()).hexdigest()
    path = cache_dir / f"turan-{digest}.json"
    if path.exists():
        try:
            cached = json.loads(path.read_text())
        except (ValueError, RecursionError):  # corrupted, truncated or not text
            cached = None
        if isinstance(cached, dict) and _TURAN_FIELDS <= cached.keys():
            cached["pattern"] = [list(e) for e in pattern.edge_list()]
            return cached
    result = compute().to_json()
    path.write_text(json.dumps(result, sort_keys=True) + "\n")
    return result


# ---------------------------------------------------------------------------
# closeness reports


@dataclass(frozen=True)
class ClosenessReport:
    removed: tuple[int, ...]
    delta: float
    conditions: dict[str, dict]
    exact_bipartization: bool | None = None

    def to_json(self) -> dict:
        return {
            "removed": list(self.removed),
            "delta": self.delta,
            "conditions": self.conditions,
            "exact_bipartization": self.exact_bipartization,
        }


def _condition(value, bound, holds: bool) -> dict:
    return {"value": value, "bound": bound, "holds": holds}


def _candidate_sets(n: int, t: int, delta: float, degree_of) -> list[tuple[int, ...]]:
    """The t-subsets of [n], highest degree sums first, those inside the
    t + min(ceil(1/delta), n) highest-degree vertices before the rest."""
    if not 0 < delta < 0.5:
        raise InputError("delta must lie in (0, 1/2)")
    if t < 0:
        raise InputError("t must be nonnegative")
    if t > n:
        raise InputError("t exceeds the vertex count")
    ranked = sorted(range(n), key=lambda v: (-degree_of(v), v))
    pool = set(ranked[: t + math.ceil(min(1 / delta, n))])
    return sorted(
        itertools.combinations(range(n), t),
        key=lambda L: (not pool.issuperset(L), -sum(degree_of(v) for v in L), L),
    )


def hypergraph_closeness(
    system: TripleSystem, t: int, delta: float
) -> ClosenessReport | None:
    """First t-set L (highest degree sums first) whose removal leaves at
    most delta*n^2 edges while every vertex of L has degree at least
    (1/2 - delta)*n^2."""
    n = system.n
    for L in _candidate_sets(n, t, delta, system.degree):
        Lset = set(L)
        outside = sum(1 for e in system.edges if not (set(e) & Lset))
        mindeg = min((system.degree(v) for v in L), default=0)
        low = (0.5 - delta) * n * n
        cond = {
            "edges_outside": _condition(outside, delta * n * n, outside <= delta * n * n),
            "member_degree": _condition(
                mindeg if L else None, low, all(system.degree(v) >= low for v in L)
            ),
        }
        if all(c["holds"] for c in cond.values()):
            return ClosenessReport(tuple(L), delta, cond)
    return None


def graph_closeness(graph: Graph, t: int, delta: float) -> ClosenessReport | None:
    """First t-set passing the four near-extremal conditions: high degree on
    L, few triangles off L, at least n^2/4 - delta*n^2 edges off L, and
    near-bipartite remainder."""
    n = graph.n
    for L in _candidate_sets(n, t, delta, graph.degree):
        rest = graph.without_vertices(L)
        triangles = rest.count_triangles()
        edges_outside = len(rest.edges)
        dist, exact = bipartization_distance(rest)
        low, few, many = (1 - delta) * n, delta * n * n, n * n / 4 - delta * n * n
        cond = {
            "member_degree": _condition(
                min((graph.degree(v) for v in L), default=None),
                low,
                all(graph.degree(v) >= low for v in L),
            ),
            "triangles_outside": _condition(triangles, few, triangles <= few),
            "edges_outside": _condition(edges_outside, many, edges_outside >= many),
            "bipartization": _condition(dist, few, dist <= few),
        }
        if all(c["holds"] for c in cond.values()):
            return ClosenessReport(tuple(L), delta, cond, exact_bipartization=exact)
    return None


# ---------------------------------------------------------------------------
# bipartization distance


def bipartization_distance(graph: Graph) -> tuple[int, bool]:
    """(edges to delete to make the graph bipartite, exact?).

    Exact when the edge-bearing support has at most EXACT_CUT_LIMIT vertices
    (bipartition enumeration in Gray-code order with the first support
    vertex pinned); otherwise a local-search upper bound from fixed-seed
    random starts, flagged.
    """
    support = graph.isolated_free_vertices()
    m = len(graph.edges)
    if not support:
        return 0, True
    if graph.is_bipartite():
        return 0, True
    if len(support) <= EXACT_CUT_LIMIT:
        return m - _maxcut_exact(graph, support), True
    return m - _maxcut_local(graph, support), False


def _maxcut_exact(graph: Graph, support: list[int]) -> int:
    free = support[1:]
    side = 0  # bitmask of vertices currently on side 1; support[0] pinned to side 0
    cut = 0
    best = 0
    gray_prev = 0
    for i in range(1, 1 << len(free)):
        gray = i ^ (i >> 1)
        changed = gray ^ gray_prev
        gray_prev = gray
        v = free[changed.bit_length() - 1]
        vbit = 1 << v
        nbrs = graph.adj[v]
        inside = (nbrs & side).bit_count()
        outside = (nbrs & ~side).bit_count()
        if side & vbit:
            cut += inside - outside
            side &= ~vbit
        else:
            cut += outside - inside
            side |= vbit
        if cut > best:
            best = cut
    return best


def _maxcut_local(graph: Graph, support: list[int]) -> int:
    rng = random.Random(0)
    best = 0
    for _ in range(8):
        side = 0
        for v in support:
            if rng.random() < 0.5:
                side |= 1 << v
        improved = True
        while improved:
            improved = False
            for v in support:
                nbrs = graph.adj[v]
                inside = (nbrs & side).bit_count()
                outside = (nbrs & ~side).bit_count()
                on = bool(side & (1 << v))
                gain = (inside - outside) if on else (outside - inside)
                if gain > 0:
                    side ^= 1 << v
                    improved = True
        cut = sum(
            1 for u, v in graph.edges if bool(side >> u & 1) != bool(side >> v & 1)
        )
        best = max(best, cut)
    return best


# ---------------------------------------------------------------------------
# anti-Ramsey bounds


@dataclass(frozen=True)
class AntiRamseyResult:
    n: int
    tree: Graph
    augmentation: Graph
    lower: int
    upper_formula: int
    base_size: int
    deletion_free: tuple[tuple[tuple[int, int], bool], ...]
    base_free_verified: bool
    coloring: Coloring | None
    rainbow_certificate: RainbowCertificate | None
    rainbow_free: bool | None

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "tree": [list(e) for e in self.tree.edge_list()],
            "augmentation": [list(e) for e in self.augmentation.edge_list()],
            "lower": self.lower,
            "upper_formula": self.upper_formula,
            "base_size": self.base_size,
            "deletion_free": [
                {"deleted_edge": list(e), "free": ok} for e, ok in self.deletion_free
            ],
            "base_free_verified": self.base_free_verified,
            "rainbow_free": self.rainbow_free,
            "colors": self.base_size + (math.comb(self.n, 3) > self.base_size),
        }


def is_augmentation_of(candidate: Graph, tree: Graph) -> bool:
    """The candidate is the tree plus one extra edge (possibly through new
    vertices): some single-edge deletion, isolated vertices stripped, is
    isomorphic to the tree."""
    if len(candidate.edges) != len(tree.edges) + 1:
        return False
    target = tree_canonical(tree)[0]
    edges = candidate.edge_list()
    for e in edges:
        remainder, _ = _pattern_from_pairs([f for f in edges if f != e])
        if remainder.is_tree() and tree_canonical(remainder)[0] == target:
            return True
    return False


def anti_ramsey_bounds(
    n: int,
    tree: Graph,
    augmentation: Graph,
) -> AntiRamseyResult:
    """Lower-bound certificate and asserted upper formula for the least
    color count forcing a rainbow expansion of the augmented tree.

    lower = |base| + 2 for the apex base S(n, sigma(tree)-1); freeness of
    every single-edge deletion is decided by s_contains, and for n <=
    RAINBOW_CHECK_LIMIT the certificate coloring is built and checked for
    rainbow copies (None above).  The upper value is the asserted formula
    C(n,3) - C(n-sigma+1,3) + 2, reported, never recomputed.
    """
    if not tree.is_tree():
        raise InputError("first pattern must be a tree")
    if not is_augmentation_of(augmentation, tree):
        raise InputError("second pattern is not the tree plus one edge")
    sigma = crosscut_value(tree)
    t = sigma - 1
    _check_n(n)
    base_size = s_size(n, t)
    deletion_free = []
    for e in augmentation.edge_list():
        reduced = augmentation.delete_edge(*e)
        free = not s_contains(n, t, reduced) if reduced.edges else base_size == 0
        deletion_free.append((e, free))
    coloring = cert = rainbow_free = None
    if n <= RAINBOW_CHECK_LIMIT:
        coloring = lower_bound_coloring(s_construction(n, t)) if base_size else constant_coloring(n)
        cert = find_rainbow_expansion(coloring, augmentation)
        rainbow_free = cert is None
    return AntiRamseyResult(
        n=n,
        tree=tree,
        augmentation=augmentation,
        lower=base_size + 2,
        upper_formula=math.comb(n, 3) - math.comb(n - sigma + 1, 3) + 2,
        base_size=base_size,
        deletion_free=tuple(deletion_free),
        base_free_verified=all(ok for _, ok in deletion_free),
        coloring=coloring,
        rainbow_certificate=cert,
        rainbow_free=rainbow_free,
    )


# ---------------------------------------------------------------------------
# exhaustive domains for the structure facts


def enumerate_two_intersecting_systems(max_vertices: int):
    """Every set system of sorted triples on [max_vertices] whose edges
    pairwise share exactly two vertices (including the empty one)."""
    triples = list(itertools.combinations(range(max_vertices), 3))
    yield from _compatible_families(triples, _share_two, [], 0)


def enumerate_intersecting_edge_families(max_vertices: int):
    """Every edge set on [max_vertices] with no two disjoint edges."""
    pairs = list(itertools.combinations(range(max_vertices), 2))
    yield from _compatible_families(pairs, _meet, [], 0)


def _share_two(a: tuple, b: tuple) -> bool:
    return len(set(a) & set(b)) == 2


def _meet(a: tuple, b: tuple) -> bool:
    return bool(set(a) & set(b))


def _compatible_families(items: list, compatible, chosen: list, start: int):
    """`chosen` and each of its extensions by items from index `start` on
    that stay pairwise compatible, in depth-first order."""
    yield list(chosen)
    for i in range(start, len(items)):
        x = items[i]
        if all(compatible(x, c) for c in chosen):
            chosen.append(x)
            yield from _compatible_families(items, compatible, chosen, i + 1)
            chosen.pop()


# ---------------------------------------------------------------------------
# verification suites


def _check(name: str, ok: bool, details: str = "") -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def _info(name: str, details: str) -> dict:
    return {"name": name, "status": "info", "details": details}


def _facts_suite(max_n: int) -> list[dict]:
    checks = []
    bad = 0
    total = 0
    for system in enumerate_two_intersecting_systems(min(max_n, 6)):
        total += 1
        result = two_intersecting_structure(TripleSystem(min(max_n, 6), system))
        if isinstance(result, NotTwoIntersecting):
            bad += 1
        elif isinstance(result, CommonPair):
            if not all(result.u in e and result.v in e for e in system):
                bad += 1
        elif isinstance(result, SmallSystem):
            if len(system) > 4:
                bad += 1
    checks.append(
        _check(
            "two-intersecting classification",
            bad == 0,
            f"{total} systems on <= {min(max_n, 6)} vertices",
        )
    )
    gbad = 0
    gtotal = 0
    gn = min(max_n + 1, 7)
    for family in enumerate_intersecting_edge_families(gn):
        gtotal += 1
        graph = Graph(gn, family)
        result = matching_le1_structure(graph)
        if isinstance(result, MatchingAtLeastTwo):
            gbad += 1
        elif isinstance(result, TriangleClass):
            a, b, c = result.vertices
            if set(family) != {(a, b), (a, c), (b, c)}:
                gbad += 1
        elif isinstance(result, StarClass):
            if not all(result.center in e for e in family):
                gbad += 1
        elif isinstance(result, EmptyClass):
            if family:
                gbad += 1
    checks.append(
        _check(
            "matching-at-most-one classification",
            gbad == 0,
            f"{gtotal} families on <= {gn} vertices",
        )
    )
    return checks


def _odd_paths_suite(max_n: int) -> list[dict]:
    checks = []
    t = 1
    while 2 * t + 1 <= max_n:
        profile = analyze_tree(path_graph(2 * t + 1))
        checks.append(
            _check(
                f"odd path length {2 * t + 1}: crosscut = t+1",
                profile.sigma == t + 1,
                f"sigma={profile.sigma}",
            )
        )
        checks.append(
            _check(
                f"odd path length {2 * t + 1}: strongly edge-critical",
                profile.strongly_edge_critical,
            )
        )
        t += 1
    return checks


def _even_paths_suite(max_n: int) -> list[dict]:
    checks = []
    t = 2
    while 2 * t <= max_n:
        profile = analyze_tree(path_graph(2 * t))
        checks.append(
            _check(
                f"even path length {2 * t}: crosscut = t",
                profile.sigma == t,
                f"sigma={profile.sigma}",
            )
        )
        checks.append(
            _check(
                f"even path length {2 * t}: no critical edge",
                not profile.critical_edges,
            )
        )
        t += 1
    checks.append(
        _info(
            "even paths",
            "no exact-construction equality is expected for even paths",
        )
    )
    return checks


def _cycles_suite(max_n: int) -> list[dict]:
    checks = []
    for k in range(3, max_n + 1):
        value = crosscut_value(cycle_graph(k))
        checks.append(
            _check(
                f"cycle length {k}: crosscut = floor((k+1)/2)",
                value == (k + 1) // 2,
                f"sigma={value}",
            )
        )
    return checks


def _trees_suite(max_n: int) -> list[dict]:
    checks = []
    order_ok = True
    delete_ok = True
    witness_ok = True
    pendant_ok = True
    free_ok = True
    free_details = []
    count = 0
    for n in range(2, min(max_n, 9) + 1):
        for tree in enumerate_trees(n):
            count += 1
            profile = analyze_tree(tree)
            if not (
                profile.tau <= profile.sigma
                and profile.tau_ind is not None
                and profile.sigma <= profile.tau_ind
            ):
                order_ok = False
            for e in tree.edge_list():
                after = crosscut_value(tree.delete_edge(*e))
                if after > profile.sigma:
                    delete_ok = False
            max_i = max(len(p.independent) for p in profile.crosscut_pairs)
            for pair in profile.crosscut_pairs:
                witness = decomposition_witness(tree, pair)
                if len(pair.independent) == max_i and not isinstance(
                    witness.case, LeafNeighborVertex
                ):
                    witness_ok = False
            if profile.sigma_equals_tau_ind and profile.critical_edges:
                got = pendant_critical_edge(tree)
                if got is None:
                    pendant_ok = False
                else:
                    edge, cover = got
                    leafside = (
                        edge[0] if tree.degree(edge[0]) == 1 else edge[1]
                    )
                    if (
                        edge not in profile.critical_edges
                        or min(tree.degree(edge[0]), tree.degree(edge[1])) != 1
                        or leafside not in cover
                    ):
                        pendant_ok = False
            if profile.strongly_edge_critical:
                span = 2 * n - 1
                for host_n in range(span, min(span + 2, 15)):
                    host = s_construction(host_n, profile.sigma - 1)
                    if find_expansion(host, tree) is not None:
                        free_ok = False
                        free_details.append((n, tree.edge_list(), host_n))
    checks.append(_check("cover <= crosscut <= exact-cover", order_ok, f"{count} trees"))
    checks.append(_check("edge deletion never raises the crosscut number", delete_ok))
    checks.append(
        _check("decomposition witness on every optimal pair", witness_ok)
    )
    checks.append(_check("pendant critical edge under the hypotheses", pendant_ok))
    checks.append(
        _check(
            "apex construction avoids expansions of strongly edge-critical trees",
            free_ok,
            str(free_details) if free_details else "",
        )
    )
    checks.append(
        _info(
            "trees",
            "construction freeness is only claimed for strongly edge-critical trees",
        )
    )
    return checks


_SUITES = {
    "facts": (_facts_suite, 6),
    "odd-paths": (_odd_paths_suite, 9),
    "even-paths": (_even_paths_suite, 10),
    "cycles": (_cycles_suite, 12),
    "trees": (_trees_suite, 9),
}


def verify_theorem_suite(suite: str, max_n: int) -> dict:
    """Run one named verification suite up to max_n; informational entries
    never count as failures."""
    if suite not in _SUITES:
        raise InputError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    runner, cap = _SUITES[suite]
    if max_n > cap:
        raise BudgetExceededError(f"suite {suite} supports max_n <= {cap}")
    if max_n < 1:
        raise InputError("max_n must be positive")
    checks = runner(max_n)
    return {
        "suite": suite,
        "max_n": max_n,
        "checks": checks,
        "all_pass": all(c["status"] != "fail" for c in checks),
    }
