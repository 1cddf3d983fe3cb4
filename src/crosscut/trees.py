"""Tree invariants: crosscut number, covering numbers, critical edges,
decomposition witnesses, and isomorph-free enumeration of small trees.

The crosscut number of a graph is min over independent sets I of
|I| + #(edges avoiding I).  One dynamic program over a spanning tree of each
component, with forced-in and forced-out vertex sets, answers every crosscut
question exactly: the value, the canonical pair and the walk over all
optimal pairs.  Components with one cycle (which admits the cycle inputs
some checks need) are also in the domain.  The value is additive over
components, matching the definition applied to forests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .structures import Graph, Pair, _mask_vertices, sorted_pair

PAIR_CAP = 10_000


# ---------------------------------------------------------------------------
# crosscut optimum: one spanning-tree DP with forced-in and forced-out sets

# The DP packs a set's cost and size as cost * _SCALE - size: packed values
# add like pairs, and the least has the least cost, then the largest size.
# None is negative (cost >= size), so any sum holding _INF, the mark of
# unsatisfiable forced sets, is at least _INF.
_SCALE = 1 << 32
_INF = 1 << 96

# (vertex, spanning-tree children) children-first, and the off-tree edge
_Component = tuple[list[tuple[int, list[int]]], Pair | None]


def _cost(packed: int) -> int:
    return -(-packed // _SCALE)  # sizes stay below _SCALE


def _dp_plan(graph: Graph) -> list[_Component]:
    """One traversal per component.  A second off-tree edge in a component
    is a second cycle: outside the domain."""
    parent: dict[int, int] = {}
    plan = []
    for root in range(graph.n):
        if root in parent:
            continue
        parent[root] = -1
        order: list[tuple[int, list[int]]] = [(root, [])]
        off = None
        for v, children in order:  # grows as it goes: breadth-first
            for w in _mask_vertices(graph.adj[v]):
                if w not in parent:
                    parent[w] = v
                    children.append(w)
                    order.append((w, []))
                elif w != parent[v] and v < w:  # met from both ends; keep one
                    if off is not None:
                        raise InputError(
                            "crosscut number is defined here for forests and "
                            "components with at most one cycle"
                        )
                    off = (v, w)
        plan.append((order[::-1], off))
    return plan


def _tree_opt(post: list[tuple[int, list[int]]], forced_in: int, forced_out: int) -> int:
    """Best packed (cost, size) over the sets I independent in one spanning
    tree with forced_in inside I and forced_out outside it (bitmasks)."""
    best: dict[int, tuple[int, int]] = {}
    for v, children in post:
        vin, vout = _SCALE - 1, 0  # {v} alone; nothing
        for c in children:
            cin, cout = best[c]
            vin += cout
            # edge (v, c) is uncovered only when both endpoints stay out
            cout += _SCALE
            vout += cin if cin < cout else cout
        if forced_in >> v & 1:
            vout = _INF
        if forced_out >> v & 1:
            vin = _INF
        best[v] = vin, vout
    return min(vin, vout)  # v is the root


def _component_opt(comp: _Component, forced_in: int, forced_out: int) -> int:
    """Best packed (cost, size) over one component's independent sets I with
    forced_in inside I and forced_out outside it.

    With off-tree edge uw, an independent set either holds u and not w, or
    w and not u, or neither, and then uw costs 1 more than the spanning tree
    counts.  The three cases partition the independent sets, so the best of
    the three forced tree runs is the component's optimum.
    """
    post, off = comp
    if off is None:
        return _tree_opt(post, forced_in, forced_out)
    u, w = 1 << off[0], 1 << off[1]
    return min(
        _tree_opt(post, forced_in | u, forced_out | w),
        _tree_opt(post, forced_in | w, forced_out | u),
        _tree_opt(post, forced_in, forced_out | u | w) + _SCALE,
    )


def _forced_opt(plan: list[_Component], forced_in: int = 0) -> int:
    """Least packed (cost, size) over independent sets holding forced_in;
    at least _INF when there is none."""
    return sum(_component_opt(comp, forced_in, 0) for comp in plan)


def crosscut_value(graph: Graph) -> int:
    """Crosscut number of a forest (or a graph with unicyclic components)."""
    return _cost(_forced_opt(_dp_plan(graph)))


@dataclass(frozen=True)
class CrosscutPair:
    """Optimal pair: independent set I and the edges R avoiding it."""

    independent: tuple[int, ...]
    leftover: tuple[Pair, ...]


def _leftover_edges(graph: Graph, independent: tuple[int, ...]) -> tuple[Pair, ...]:
    iset = set(independent)
    return tuple(
        e for e in sorted(graph.edges) if e[0] not in iset and e[1] not in iset
    )


def crosscut_number(graph: Graph) -> tuple[int, CrosscutPair]:
    """Exact crosscut number plus one optimal pair.

    Ties among optimal independent sets are broken by maximum size, then by
    lexicographically smallest vertex set.
    """
    plan = _dp_plan(graph)
    opt = _forced_opt(plan)
    forced = 0
    for v in range(graph.n):
        if _forced_opt(plan, forced | 1 << v) == opt:
            forced |= 1 << v
    independent = tuple(_mask_vertices(forced))
    return _cost(opt), CrosscutPair(independent, _leftover_edges(graph, independent))


def all_crosscut_pairs(graph: Graph) -> tuple[list[CrosscutPair], bool]:
    """All optimal crosscut pairs, at most PAIR_CAP of them (read at call
    time); second value flags truncation."""
    steps: dict[int, tuple[_Component, int]] = {}
    for comp in _dp_plan(graph):
        best = _cost(_component_opt(comp, 0, 0))
        for v, _ in comp[0]:
            steps[v] = (comp, best)
    found, overflow = _pairs_walk(steps, PAIR_CAP)
    pairs = [CrosscutPair(i, _leftover_edges(graph, i)) for i in found]
    pairs.sort(key=lambda p: (-len(p.independent), p.independent))
    return pairs, overflow


def _pairs_walk(
    steps: dict[int, tuple[_Component, int]], cap: int
) -> tuple[list[tuple[int, ...]], bool]:
    """The optimal independent sets in depth-first order, at most `cap` of
    them, and whether there were more.  steps[v] is v's component and that
    component's least cost.

    Vertices are decided in id order, out before in.  The cost is a sum over
    components, each at least its own least cost, so a set is optimal
    exactly when every component's part is.  A branch is entered only when
    v's component can still reach its least cost, so every branch entered
    holds an optimal set, and when the out branch holds none the in branch
    must.  The leaves reached are therefore those of the walk over all
    independent sets that cost sigma, met in the same order, and the first
    `cap` kept on overflow are the same.
    """
    found: list[tuple[int, ...]] = []
    stack = [(0, 0, 0)]  # (next vertex, forced in, forced out)
    while stack:
        v, forced_in, forced_out = stack.pop()
        if v == len(steps):
            if len(found) >= cap:
                return found, True
            found.append(tuple(_mask_vertices(forced_in)))
            continue
        comp, best = steps[v]
        bit = 1 << v
        out = _cost(_component_opt(comp, forced_in, forced_out | bit)) == best
        if not out or _cost(_component_opt(comp, forced_in | bit, forced_out)) == best:
            stack.append((v + 1, forced_in | bit, forced_out))
        if out:  # popped first
            stack.append((v + 1, forced_in, forced_out | bit))
    return found, False


# ---------------------------------------------------------------------------
# covering numbers


def covering_number(graph: Graph) -> int:
    """Exact minimum vertex cover size (take the neighbour of a leaf, else
    branch on a maximum-degree vertex)."""
    return _cover(graph.adj, (1 << graph.n) - 1)


def _cover(adj: tuple[int, ...], alive: int) -> int:
    """Minimum vertex cover of the subgraph induced by the `alive` mask.

    A cover holds a leaf or its neighbour, and swapping the leaf for the
    neighbour keeps it a cover, so some minimum cover holds the neighbour:
    those are taken without branching.
    """
    taken = 0
    while True:
        best_v, best_d, leaf = -1, 0, -1
        m = alive
        while m:
            v = (m & -m).bit_length() - 1
            m &= m - 1
            d = (adj[v] & alive).bit_count()
            if d > best_d:
                best_d, best_v = d, v
            if d == 1:
                leaf = v
        if leaf < 0:
            break
        taken += 1
        alive &= ~adj[leaf] & ~(1 << leaf)
    if best_d == 0:
        return taken
    v = best_v
    with_v = 1 + _cover(adj, alive & ~(1 << v))
    nbrs = adj[v] & alive
    without_v = nbrs.bit_count() + _cover(adj, alive & ~nbrs & ~(1 << v))
    return taken + min(with_v, without_v)


def independent_covering_number(graph: Graph) -> int | None:
    """Minimum size of a set meeting every edge exactly once, or None.

    Hitting every edge exactly once forces, on each component with edges, one
    of its two 2-coloring classes; non-bipartite components make the value
    undefined.
    """
    classes = graph.bipartition()
    if classes is None:
        return None
    return sum(
        min(len(comp & classes[0]), len(comp - classes[0]))
        for comp in map(set, graph.components())
    )


def minimum_independent_covers(tree: Graph) -> list[tuple[int, ...]]:
    """All minimum independent vertex covers of a tree (its smaller
    2-coloring class, or both classes on a tie), sorted."""
    _require_tree(tree)
    a, b = (tuple(sorted(c)) for c in tree.bipartition())
    return sorted(c for c in (a, b) if len(c) == min(len(a), len(b)))


# ---------------------------------------------------------------------------
# critical edges and profiles


def _require_tree(graph: Graph) -> None:
    if not graph.is_tree():
        raise InputError("expected a tree (connected, acyclic)")


def critical_edges(tree: Graph) -> frozenset[Pair]:
    """Edges whose deletion (keeping endpoints) drops the crosscut number."""
    _require_tree(tree)
    sigma = crosscut_value(tree)
    return frozenset(
        e for e in tree.edges if crosscut_value(tree.delete_edge(*e)) <= sigma - 1
    )


@dataclass(frozen=True)
class TreeProfile:
    """All computed invariants of one tree."""

    tree: Graph
    sigma: int
    tau: int
    tau_ind: int | None
    crosscut_pairs: tuple[CrosscutPair, ...]
    pairs_truncated: bool
    critical_edges: frozenset[Pair]
    strongly_edge_critical: bool
    sigma_equals_tau_ind: bool

    def to_json(self) -> dict:
        return {
            "n": self.tree.n,
            "edges": [list(e) for e in self.tree.edge_list()],
            "sigma": self.sigma,
            "tau": self.tau,
            "tau_ind": self.tau_ind,
            "crosscut_pairs": [
                {
                    "independent": list(p.independent),
                    "leftover": [list(e) for e in p.leftover],
                }
                for p in self.crosscut_pairs
            ],
            "pairs_truncated": self.pairs_truncated,
            "critical_edges": sorted([list(e) for e in self.critical_edges]),
            "strongly_edge_critical": self.strongly_edge_critical,
            "sigma_equals_tau_ind": self.sigma_equals_tau_ind,
        }


def analyze_tree(tree: Graph) -> TreeProfile:
    _require_tree(tree)
    sigma = crosscut_value(tree)
    tau = covering_number(tree)
    tau_ind = independent_covering_number(tree)
    pairs, truncated = all_crosscut_pairs(tree)
    crit = critical_edges(tree)
    return TreeProfile(
        tree=tree,
        sigma=sigma,
        tau=tau,
        tau_ind=tau_ind,
        crosscut_pairs=tuple(pairs),
        pairs_truncated=truncated,
        critical_edges=crit,
        strongly_edge_critical=tau == sigma == tau_ind and bool(crit),
        sigma_equals_tau_ind=sigma == tau_ind,
    )


# ---------------------------------------------------------------------------
# decomposition witnesses


@dataclass(frozen=True)
class LeafNeighborVertex:
    """Vertex of I all but at most one of whose neighbors are leaves."""

    vertex: int


@dataclass(frozen=True)
class PendantEdge:
    """Edge of R with a degree-one endpoint."""

    edge: Pair


@dataclass(frozen=True)
class CrosscutWitness:
    independent: tuple[int, ...]
    leftover: tuple[Pair, ...]
    case: LeafNeighborVertex | PendantEdge


def decomposition_witness(tree: Graph, pair: CrosscutPair) -> CrosscutWitness:
    """Locate the structural feature every optimal crosscut pair must carry:
    either a vertex of I whose neighbors are all leaves except at most one,
    or a pendant edge inside R.  The vertex case is preferred, so it is
    always returned when |I| is maximum among optimal pairs."""
    _require_tree(tree)
    iset = set(pair.independent)
    if len(iset) != len(pair.independent):
        raise InputError("independent part has repeated vertices")
    for v in iset:
        if not 0 <= v < tree.n:
            raise InputError(f"vertex {v} out of range for n={tree.n}")
        if tree.adj[v] & sum(1 << u for u in iset if u != v):
            raise InputError("independent part is not independent")
    independent, leftover = tuple(sorted(iset)), tuple(pair.leftover)
    expected = set(_leftover_edges(tree, independent))
    if set(leftover) != expected or len(leftover) != len(expected):
        raise InputError("leftover edges do not match the independent part")
    if len(independent) + len(leftover) != crosscut_value(tree):
        raise InputError("pair is not optimal for this tree")
    for v in independent:
        non_leaf = sum(1 for w in tree.neighbors(v) if tree.degree(w) > 1)
        if non_leaf <= 1:
            return CrosscutWitness(independent, leftover, LeafNeighborVertex(v))
    for e in leftover:
        if min(tree.degree(e[0]), tree.degree(e[1])) == 1:
            return CrosscutWitness(independent, leftover, PendantEdge(e))
    raise AssertionError("every optimal crosscut pair carries a witness")


def pendant_critical_edge(tree: Graph) -> tuple[Pair, tuple[int, ...]] | None:
    """For a tree whose crosscut number equals its independent covering
    number and which has a critical edge: a pendant critical edge whose leaf
    endpoint lies in a minimum independent vertex cover, with that cover.
    Returns None when the hypotheses fail."""
    _require_tree(tree)
    sigma = crosscut_value(tree)
    tau_ind = independent_covering_number(tree)
    crit = critical_edges(tree)
    if tau_ind != sigma or not crit:
        return None
    for cover in minimum_independent_covers(tree):
        for leaf in cover:
            if tree.degree(leaf) != 1:
                continue
            edge = sorted_pair(leaf, tree.neighbors(leaf)[0])
            if edge in crit:
                return edge, cover
    raise AssertionError(
        "a minimum independent cover of a tree with a critical edge contains a leaf"
    )


# ---------------------------------------------------------------------------
# isomorph-free tree enumeration


def _centers(n: int, adj: list[list[int]]) -> list[int]:
    if n == 1:
        return [0]
    degree = [len(a) for a in adj]
    layer = [v for v in range(n) if degree[v] == 1]
    remaining = n
    while remaining > 2:
        remaining -= len(layer)
        nxt = []
        for v in layer:
            degree[v] = 0
            for w in adj[v]:
                if degree[w] > 0:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    return sorted(layer)


def tree_canonical(graph: Graph) -> tuple[str, Graph]:
    """Canonical code plus a canonically labeled copy of a tree.

    The code is the rooted shape string at the best center; the labeling is
    the preorder walk visiting children in sorted-code order, so isomorphic
    trees produce byte-identical edge lists.
    """
    _require_tree(graph)
    n = graph.n
    adj = [graph.neighbors(v) for v in range(n)]
    code, walk = min(_rooted(adj, c, -1) for c in _centers(n, adj))
    label = {v: i for i, v in enumerate(walk)}
    relabeled = Graph(n, [(label[u], label[v]) for u, v in graph.edges])
    return code, relabeled


def _rooted(adj: list[list[int]], v: int, parent: int) -> tuple[str, list[int]]:
    """The rooted code of the subtree at v and its preorder walk, children
    in sorted-code order; ties fall to the child id that heads each walk."""
    kids = sorted(_rooted(adj, w, v) for w in adj[v] if w != parent)
    return (
        "(" + "".join(code for code, _ in kids) + ")",
        [v] + [u for _, walk in kids for u in walk],
    )


def enumerate_trees(n: int) -> list[Graph]:
    """One canonically labeled representative per isomorphism class of trees
    on n vertices (1 <= n <= 10), in deterministic (code-sorted) order.

    Grown by attaching a leaf to every vertex of every smaller tree and
    deduplicating by canonical code; every tree arises this way because
    deleting a leaf of an n-vertex tree leaves a tree.
    """
    if not 1 <= n <= 10:
        raise InputError("tree enumeration supports 1 <= n <= 10")
    single = Graph(1, [])
    level: dict[str, Graph] = {tree_canonical(single)[0]: single}
    for size in range(2, n + 1):
        nxt: dict[str, Graph] = {}
        for t in level.values():
            for v in range(t.n):
                grown = Graph(size, list(t.edges) + [(v, size - 1)])
                code, canon = tree_canonical(grown)
                if code not in nxt:
                    nxt[code] = canon
        level = nxt
    return [level[code] for code in sorted(level)]


# ---------------------------------------------------------------------------
# tiny pattern constructors shared by suites and tests


def path_graph(length: int) -> Graph:
    """Path with `length` edges on length+1 vertices."""
    if length < 1:
        raise InputError("path length must be >= 1")
    return Graph(length + 1, [(i, i + 1) for i in range(length)])


def cycle_graph(length: int) -> Graph:
    """Cycle with `length` edges."""
    if length < 3:
        raise InputError("cycle length must be >= 3")
    return Graph(length, [(i, (i + 1) % length) for i in range(length)])


def star_graph(leaves: int) -> Graph:
    if leaves < 1:
        raise InputError("star needs at least one leaf")
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))
