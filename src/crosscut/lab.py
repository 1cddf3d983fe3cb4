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
from pathlib import Path

from .builders import (
    Coloring,
    constant_coloring,
    lower_bound_coloring,
    s_construction,
    s_graph,
    s_size,
    sbi_size,
)
from .config import DEFAULT_MAX_NODES, SearchBudget
from .errors import BudgetExceededError, InputError
from .embed import (
    RainbowCertificate,
    _pattern_from_pairs,
    find_blowup,
    find_expansion,
    find_rainbow_expansion,
)
from .structures import (
    Graph,
    TripleSystem,
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
from .trees import (
    analyze_tree,
    all_crosscut_pairs,
    crosscut_number,
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
RAINBOW_CHECK_LIMIT = 8  # largest n whose certificate coloring is searched for rainbow copies


# ---------------------------------------------------------------------------
# canonical forms (isomorph rejection, cache keys)


def _refined_classes(n: int, edges: list[tuple[int, ...]]) -> list[list[int]]:
    """Vertex classes fixed by any isomorphism: iterated degree-vector
    refinement (colors of co-edge partners)."""
    colors = [0] * n
    for _ in range(n + 1):
        sigs = []
        for v in range(n):
            partner_colors = sorted(
                tuple(sorted(colors[u] for u in e if u != v))
                for e in edges
                if v in e
            )
            sigs.append((colors[v], tuple(partner_colors)))
        table = {s: i for i, s in enumerate(sorted(set(sigs)))}
        nxt = [table[s] for s in sigs]
        if nxt == colors:
            break
        colors = nxt
    classes: dict[int, list[int]] = {}
    for v in range(n):
        classes.setdefault(colors[v], []).append(v)
    return [classes[c] for c in sorted(classes)]


def canonical_edge_key(n: int, edges: frozenset[tuple[int, ...]]) -> tuple:
    """Minimum relabeled sorted edge tuple over all refinement-respecting
    permutations; a true canonical form for graphs and 3-graphs.

    Any isomorphism preserves the refinement signature of a vertex, so
    relabelings that assign label blocks class by class (classes in their
    canonical signature order) suffice.  Vertices outside every edge never
    appear in the key, so only edge-touching classes are permuted.
    """
    items = sorted(tuple(sorted(e)) for e in edges)
    if not items:
        return ()
    touched = {v for e in items for v in e}
    classes = _refined_classes(n, items)
    offsets = []
    slot = 0
    for cls in classes:
        offsets.append(slot)
        slot += len(cls)
    active = [i for i, cls in enumerate(classes) if set(cls) & touched]
    best: tuple | None = None
    # lists, not iterators, for product(): tuples built from iterators are
    # allocated at a spare size and shrunk, and pile up in CPython's tuple
    # free lists until a full collection
    for perm_parts in itertools.product(
        *[list(itertools.permutations(classes[i])) for i in active]
    ):
        relabel: dict[int, int] = {}
        for i, perm in zip(active, perm_parts):
            for j, v in enumerate(perm):
                relabel[v] = offsets[i] + j
        key = tuple(sorted(tuple(sorted(relabel[v] for v in e)) for e in items))
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def canonical_graph_key(graph: Graph) -> tuple:
    return (graph.n, canonical_edge_key(graph.n, graph.edges))


def canonical_triples_key(system: TripleSystem) -> tuple:
    return (system.n, canonical_edge_key(system.n, system.edges))


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

    Returns (best objective, canonical witness keys, node count).
    """
    empty: frozenset = frozenset()
    level: dict[tuple, frozenset] = {canonical_edge_key(n, empty): empty}
    best = objective(empty)
    witnesses: dict[tuple, frozenset] = {canonical_edge_key(n, empty): empty}
    if seed_value > best:
        best = seed_value
        witnesses = {}
    while level:
        nxt: dict[tuple, frozenset] = {}
        for current in level.values():
            budget.tick()
            addable = [
                it for it in all_items if it not in current and is_free(current | {it})
            ]
            completion = current | set(addable)
            if objective(frozenset(completion)) < best:
                continue
            for it in addable:
                grown = current | {it}
                key = canonical_edge_key(n, frozenset(grown))
                if key in nxt:
                    continue
                nxt[key] = frozenset(grown)
                val = objective(grown)
                if val > best:
                    best = val
                    witnesses = {key: frozenset(grown)}
                elif val == best and len(witnesses) < WITNESS_CAP:
                    witnesses.setdefault(key, frozenset(grown))
        level = nxt
    keys = sorted(witnesses)[:WITNESS_CAP]
    return best, keys, budget.nodes


def _exact_turan(
    n: int,
    pattern: Graph,
    exhaustive: bool,
    budget: SearchBudget | None,
    construction_value: int | None,
    construction_free: bool | None,
    arity: int,
    is_free,
    objective,
) -> TuranResult:
    """Driver shared by the exact Turán entry points.

    Lower-bound mode reports the construction value alone.  Exhaustive mode
    (n <= 7, budget-checked; 50M nodes when no budget is given) runs orderly
    generation over the arity-subsets of [n], seeded with the construction
    value when the construction was verified free.  A negative n is an
    InputError in both modes.
    """
    if n < 0:
        raise InputError("n must be nonnegative")
    value = construction_value if construction_value is not None else 0
    witness_keys: list[tuple] = []
    nodes = 0
    if exhaustive:
        if n > 7:
            raise BudgetExceededError("exhaustive search supports n <= 7")
        items = list(itertools.combinations(range(n), arity))
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

    Exhaustive mode (n <= 7, budget-checked) runs orderly generation with
    exact freeness tests; otherwise only the apex-construction lower bound
    is reported.
    """
    if not pattern.edges:
        raise InputError("pattern needs at least one edge")
    construction_value = None
    construction_free = None
    if pattern.is_tree():
        t = crosscut_value(pattern) - 1
        if 0 <= t <= n:
            construction_value = s_size(n, t)
            if n <= 16:
                construction_free = (
                    find_expansion(s_construction(n, t), pattern) is None
                )

    def is_free(triples: frozenset) -> bool:
        return find_expansion(TripleSystem(n, triples), pattern) is None

    return _exact_turan(
        n,
        pattern,
        exhaustive,
        budget,
        construction_value,
        construction_free,
        3,
        is_free,
        len,
    )


def _pattern_construction_for_triangles(n: int, pattern: Graph):
    """Lower-bound construction for the triangle objective: the joined
    construction, with the extra edge for even paths and even cycles."""
    verts = pattern.n
    degs = sorted(pattern.degrees())
    is_path = (
        pattern.is_tree()
        and verts >= 2
        and degs == [1, 1] + [2] * (verts - 2)
    )
    edge_count = len(pattern.edges)
    is_cycle = (
        pattern.is_connected()
        and edge_count == verts
        and all(d == 2 for d in pattern.degrees())
    )
    if not (pattern.is_tree() or is_cycle):
        return None
    sigma = crosscut_value(pattern)
    t = sigma - 1
    plus = (is_path and edge_count % 2 == 0) or (is_cycle and edge_count % 2 == 0)
    if t < 0 or t > n or (plus and (n - t) // 2 < 2):
        return None
    return t, plus


def exact_generalized_turan(
    n: int,
    pattern: Graph,
    exhaustive: bool = True,
    budget: SearchBudget | None = None,
) -> TuranResult:
    """Maximum triangle count of an n-vertex graph avoiding the pattern's
    triangle blowup (exhaustive for n <= 7, budget-checked)."""
    if not pattern.edges:
        raise InputError("pattern needs at least one edge")
    construction_value = None
    construction_free = None
    params = _pattern_construction_for_triangles(n, pattern)
    if params is not None:
        t, plus = params
        construction_value = sbi_size(n, t, plus=plus)
        if n <= 16:
            construction_free = (
                find_blowup(s_graph(n, t, plus=plus), pattern) is None
            )

    def is_free(edges: frozenset) -> bool:
        return find_blowup(Graph(n, edges), pattern) is None

    def objective(edges: frozenset) -> int:
        return Graph(n, edges).count_triangles()

    return _exact_turan(
        n,
        pattern,
        exhaustive,
        budget,
        construction_value,
        construction_free,
        2,
        is_free,
        objective,
    )


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
    plus "lower-only" for lower-bound results, so that those never answer
    an exhaustive request (exhaustive keys are unchanged).  A cache file
    that is not a JSON object with every TuranResult field is recomputed
    and rewritten."""
    if cache_dir is None:
        return compute().to_json()
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    key = [mode, n, canonical_graph_key(pattern)]
    if not exhaustive:
        key.append("lower-only")
    digest = hashlib.sha256(json.dumps(key).encode()).hexdigest()
    path = cache_dir / f"turan-{digest}.json"
    if path.exists():
        try:
            cached = json.loads(path.read_text())
        except (ValueError, RecursionError):  # corrupted, truncated or not text
            cached = None
        if isinstance(cached, dict) and _TURAN_FIELDS <= cached.keys():
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

    def accepted(self) -> bool:
        return all(c["holds"] for c in self.conditions.values())

    def to_json(self) -> dict:
        return {
            "removed": list(self.removed),
            "delta": self.delta,
            "conditions": self.conditions,
            "exact_bipartization": self.exact_bipartization,
        }


def _candidate_sets(n: int, t: int, delta: float, degree_of) -> "itertools.chain":
    """The t-subsets of [n], highest degree sums first, those inside the
    t + ceil(1/delta) highest-degree vertices before the rest."""
    if not 0 < delta < 0.5:
        raise InputError("delta must lie in (0, 1/2)")
    if t < 0:
        raise InputError("t must be nonnegative")
    if t > n:
        raise InputError("t exceeds the vertex count")
    ranked = sorted(range(n), key=lambda v: (-degree_of(v), v))
    pool = ranked[: t + math.ceil(1 / delta)]
    first = sorted(
        itertools.combinations(sorted(pool), t),
        key=lambda L: (-sum(degree_of(v) for v in L), L),
    )
    rest = sorted(
        itertools.combinations(range(n), t),
        key=lambda L: (-sum(degree_of(v) for v in L), L),
    )
    seen = set(first)
    return itertools.chain(first, (L for L in rest if L not in seen))


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
        cond = {
            "edges_outside": {
                "value": outside,
                "bound": delta * n * n,
                "holds": outside <= delta * n * n,
            },
            "member_degree": {
                "value": mindeg if L else None,
                "bound": (0.5 - delta) * n * n,
                "holds": all(
                    system.degree(v) >= (0.5 - delta) * n * n for v in L
                ),
            },
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
        cond = {
            "member_degree": {
                "value": min((graph.degree(v) for v in L), default=None),
                "bound": (1 - delta) * n,
                "holds": all(graph.degree(v) >= (1 - delta) * n for v in L),
            },
            "triangles_outside": {
                "value": triangles,
                "bound": delta * n * n,
                "holds": triangles <= delta * n * n,
            },
            "edges_outside": {
                "value": edges_outside,
                "bound": n * n / 4 - delta * n * n,
                "holds": edges_outside >= n * n / 4 - delta * n * n,
            },
            "bipartization": {
                "value": dist,
                "bound": delta * n * n,
                "holds": dist <= delta * n * n,
            },
        }
        if all(c["holds"] for c in cond.values()):
            return ClosenessReport(tuple(L), delta, cond, exact_bipartization=exact)
    return None


# ---------------------------------------------------------------------------
# bipartization distance


def bipartization_distance(graph: Graph, exact_limit: int = 24) -> tuple[int, bool]:
    """(edges to delete to make the graph bipartite, exact?).

    Exact when the edge-bearing support has at most exact_limit vertices
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
    if len(support) <= exact_limit:
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
    coloring: Coloring
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
            "colors": self.coloring.color_count,
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

    lower = |base| + 2 for the apex base on sigma(tree)-1 apexes; freeness
    of every single-edge deletion is verified by exact search, and for
    n <= RAINBOW_CHECK_LIMIT the certificate coloring is exhaustively
    checked for rainbow copies.  The upper value is the asserted formula
    C(n,3) - C(n-sigma+1,3) + 2, reported, never recomputed.
    """
    if not tree.is_tree():
        raise InputError("first pattern must be a tree")
    if not is_augmentation_of(augmentation, tree):
        raise InputError("second pattern is not the tree plus one edge")
    sigma = crosscut_value(tree)
    t = sigma - 1
    base = s_construction(n, t)
    deletion_free = []
    for e in augmentation.edge_list():
        reduced = augmentation.delete_edge(*e)
        free = find_expansion(base, reduced) is None if reduced.edges else len(base) == 0
        deletion_free.append((e, free))
    coloring = lower_bound_coloring(base) if base.edges else constant_coloring(n)
    cert = None
    rainbow_free = None
    if n <= RAINBOW_CHECK_LIMIT:
        cert = find_rainbow_expansion(coloring, augmentation)
        rainbow_free = cert is None
    return AntiRamseyResult(
        n=n,
        tree=tree,
        augmentation=augmentation,
        lower=len(base.edges) + 2,
        upper_formula=math.comb(n, 3) - math.comb(n - sigma + 1, 3) + 2,
        base_size=len(base.edges),
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
        value, _ = crosscut_number(cycle_graph(k))
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
            pairs, _ = all_crosscut_pairs(tree)
            max_i = max(len(p.independent) for p in pairs)
            for pair in pairs:
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
