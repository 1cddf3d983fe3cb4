"""Tree invariants: crosscut number, covering numbers, critical edges,
decomposition witnesses, and isomorph-free enumeration of small trees.

The crosscut number of a graph is min over independent sets I of
|I| + #(edges avoiding I).  It is computed exactly: by subtree dynamic
programming on forest components and by pruned enumeration on components
with a cycle (which admits the cycle inputs some checks need).  The value
is additive over components, matching the definition applied to forests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import InputError
from .structures import Graph, Pair, _mask_vertices, sorted_pair

_INF = (1 << 30, 0)

PAIR_CAP = 10_000


# ---------------------------------------------------------------------------
# crosscut optimum (cost, -size) machinery


def _component_edges(graph: Graph, comp: list[int]) -> list[Pair]:
    cs = set(comp)
    return [e for e in graph.edges if e[0] in cs]


def _opt_tree_component(
    graph: Graph, comp: list[int], forced_in: set[int]
) -> tuple[int, int]:
    """Best (cost, -size) over independent sets of one tree component."""
    root = comp[0]
    parent = {root: -1}
    order = [root]
    stack = [root]
    while stack:
        v = stack.pop()
        for w in _mask_vertices(graph.adj[v]):
            if w not in parent:
                parent[w] = v
                order.append(w)
                stack.append(w)
    dp_in: dict[int, tuple[int, int]] = {}
    dp_out: dict[int, tuple[int, int]] = {}
    for v in reversed(order):
        children = [w for w in _mask_vertices(graph.adj[v]) if parent.get(w) == v]
        vin = (1, -1)
        vout = (0, 0)
        for c in children:
            cin, cout = dp_in[c], dp_out[c]
            vin = (vin[0] + cout[0], vin[1] + cout[1])
            # edge (v, c) is uncovered only when both endpoints stay out
            pick = min(cin, (cout[0] + 1, cout[1]))
            vout = (vout[0] + pick[0], vout[1] + pick[1])
        if v in forced_in:
            vout = _INF
        dp_in[v], dp_out[v] = vin, vout
    return min(dp_in[root], dp_out[root])


def _opt_cyclic_component(
    graph: Graph, comp: list[int], forced_in: set[int]
) -> tuple[int, int]:
    """Pruned enumeration for a (small) component that contains a cycle."""
    if len(comp) > 26:
        raise InputError("crosscut enumeration limited to components of <= 26 vertices")
    pos = {v: i for i, v in enumerate(comp)}
    # earlier endpoints of the edges completed when index i is decided
    newly: list[list[int]] = [[] for _ in comp]
    for u, w in _component_edges(graph, comp):
        first, second = sorted((u, w), key=pos.__getitem__)
        newly[pos[second]].append(first)
    return _cyclic_walk(graph, comp, newly, forced_in, 0, 0, 0, 0, _INF)


def _cyclic_walk(
    graph: Graph,
    comp: list[int],
    newly: list[list[int]],
    forced_in: set[int],
    idx: int,
    chosen_mask: int,
    size: int,
    uncovered: int,
    best: tuple[int, int],
) -> tuple[int, int]:
    """Best (cost, -size) below one node of the cyclic-component search,
    given the best found so far."""
    partial = size + uncovered
    if partial > best[0]:
        return best
    if idx == len(comp):
        return min(best, (partial, -size))
    v = comp[idx]
    rest = (graph, comp, newly, forced_in, idx + 1)
    if v not in forced_in:
        miss = sum(1 for u in newly[idx] if not (chosen_mask >> u) & 1)
        best = _cyclic_walk(*rest, chosen_mask, size, uncovered + miss, best)
    if not graph.adj[v] & chosen_mask:
        best = _cyclic_walk(*rest, chosen_mask | (1 << v), size + 1, uncovered, best)
    return best


def _crosscut_opt(graph: Graph, forced_in: set[int] = frozenset()) -> tuple[int, int]:
    """(min cost, -max |I| among minimum-cost) over independent sets."""
    for v in forced_in:
        if graph.adj[v] & sum(1 << u for u in forced_in if u != v):
            return _INF
    total = (0, 0)
    for comp in graph.components():
        fi = {v for v in forced_in if v in set(comp)}
        cs = set(comp)
        m = sum(1 for e in graph.edges if e[0] in cs)
        if m == len(comp) - 1:
            part = _opt_tree_component(graph, comp, fi)
        else:
            part = _opt_cyclic_component(graph, comp, fi)
        if part == _INF:
            return _INF
        total = (total[0] + part[0], total[1] + part[1])
    return total


def _validate_crosscut_domain(graph: Graph) -> None:
    for comp in graph.components():
        cs = set(comp)
        m = sum(1 for e in graph.edges if e[0] in cs)
        if m > len(comp):
            raise InputError(
                "crosscut number is defined here for forests and components "
                "with at most one cycle"
            )


def crosscut_value(graph: Graph) -> int:
    """Crosscut number of a forest (or a graph with unicyclic components)."""
    _validate_crosscut_domain(graph)
    return _crosscut_opt(graph)[0]


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
    _validate_crosscut_domain(graph)
    opt = _crosscut_opt(graph)
    forced: set[int] = set()
    for v in range(graph.n):
        if _crosscut_opt(graph, forced | {v}) == opt:
            forced.add(v)
    independent = tuple(sorted(forced))
    return opt[0], CrosscutPair(independent, _leftover_edges(graph, independent))


def all_crosscut_pairs(
    graph: Graph, cap: int = PAIR_CAP
) -> tuple[list[CrosscutPair], bool]:
    """All optimal crosscut pairs (capped); second value flags truncation.

    Enumeration prunes on the partial cost |chosen| + #already-uncovered
    edges, so star-like inputs do not blow up.
    """
    _validate_crosscut_domain(graph)
    sigma = _crosscut_opt(graph)[0]
    later_edges: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        later_edges[max(u, v)].append(min(u, v))
    found: list[tuple[int, ...]] = []
    overflow = _pairs_walk(graph, later_edges, sigma, cap, found, 0, 0, [], 0, 0)
    pairs = [CrosscutPair(i, _leftover_edges(graph, i)) for i in found]
    pairs.sort(key=lambda p: (-len(p.independent), p.independent))
    return pairs, overflow


def _pairs_walk(
    graph: Graph,
    later_edges: list[list[int]],
    sigma: int,
    cap: int,
    found: list[tuple[int, ...]],
    v: int,
    chosen_mask: int,
    chosen: list[int],
    size: int,
    uncovered: int,
) -> bool:
    """Append the optimal independent sets below one node to `found`, in
    depth-first order; True once more than `cap` were met (the walk stops)."""
    if size + uncovered > sigma:
        return False
    if v == graph.n:
        if size + uncovered == sigma:
            if len(found) >= cap:
                return True
            found.append(tuple(chosen))
        return False
    rest = (graph, later_edges, sigma, cap, found, v + 1)
    miss = sum(1 for u in later_edges[v] if not (chosen_mask >> u) & 1)
    if _pairs_walk(*rest, chosen_mask, chosen, size, uncovered + miss):
        return True
    if graph.adj[v] & chosen_mask:
        return False
    chosen.append(v)
    overflow = _pairs_walk(*rest, chosen_mask | (1 << v), chosen, size + 1, uncovered)
    chosen.pop()
    return overflow


# ---------------------------------------------------------------------------
# covering numbers


def covering_number(graph: Graph) -> int:
    """Exact minimum vertex cover size (branch on a maximum-degree vertex)."""
    return _cover(graph.adj, (1 << graph.n) - 1)


def _cover(adj: tuple[int, ...], alive: int) -> int:
    """Minimum vertex cover of the subgraph induced by the `alive` mask."""
    best_v, best_d = -1, 0
    m = alive
    while m:
        v = (m & -m).bit_length() - 1
        m &= m - 1
        d = (adj[v] & alive).bit_count()
        if d > best_d:
            best_d, best_v = d, v
    if best_d == 0:
        return 0
    if best_d == 1:
        deg1 = sum(
            1 for v in _mask_vertices(alive) if (adj[v] & alive).bit_count() == 1
        )
        return deg1 // 2
    v = best_v
    with_v = 1 + _cover(adj, alive & ~(1 << v))
    nbrs = adj[v] & alive
    without_v = nbrs.bit_count() + _cover(adj, alive & ~nbrs & ~(1 << v))
    return min(with_v, without_v)


def independent_covering_number(graph: Graph) -> int | None:
    """Minimum size of a set meeting every edge exactly once, or None.

    Hitting every edge exactly once forces, on each component with edges, one
    of its two 2-coloring classes; non-bipartite components make the value
    undefined.
    """
    total = 0
    for comp in graph.components():
        cs = set(comp)
        if not any(e[0] in cs for e in graph.edges):
            continue
        sub = graph.without_vertices(set(range(graph.n)) - cs)
        classes = sub.bipartition()
        if classes is None:
            return None
        a = {v for v in classes[0] if v in cs and graph.adj[v]}
        b = {v for v in classes[1] if v in cs and graph.adj[v]}
        total += min(len(a), len(b))
    return total


def minimum_independent_covers(tree: Graph) -> list[tuple[int, ...]]:
    """All minimum independent vertex covers of a tree (its smaller
    2-coloring class, or both classes on a tie), sorted."""
    _require_tree(tree)
    if not tree.edges:
        return [()]
    classes = tree.bipartition()
    assert classes is not None
    a = tuple(sorted(classes[0]))
    b = tuple(sorted(classes[1]))
    if len(a) < len(b):
        covers = [a]
    elif len(b) < len(a):
        covers = [b]
    else:
        covers = sorted([a, b])
    return covers


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
    sigma, _ = crosscut_number(tree)
    tau = covering_number(tree)
    tau_ind = independent_covering_number(tree)
    pairs, truncated = all_crosscut_pairs(tree)
    crit = critical_edges(tree)
    strongly = tau == sigma and tau_ind == sigma and bool(crit)
    return TreeProfile(
        tree=tree,
        sigma=sigma,
        tau=tau,
        tau_ind=tau_ind,
        crosscut_pairs=tuple(pairs),
        pairs_truncated=truncated,
        critical_edges=crit,
        strongly_edge_critical=strongly,
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
        if graph_adj_overlap(tree, v, iset):
            raise InputError("independent part is not independent")
    if set(pair.leftover) != set(_leftover_edges(tree, tuple(sorted(iset)))) or len(
        pair.leftover
    ) != len(set(pair.leftover)):
        raise InputError("leftover edges do not match the independent part")
    sigma = crosscut_value(tree)
    if len(pair.independent) + len(pair.leftover) != sigma:
        raise InputError("pair is not optimal for this tree")
    for v in sorted(iset):
        non_leaf = sum(1 for w in tree.neighbors(v) if tree.degree(w) > 1)
        if non_leaf <= 1:
            return CrosscutWitness(
                tuple(sorted(iset)), tuple(pair.leftover), LeafNeighborVertex(v)
            )
    for e in pair.leftover:
        if min(tree.degree(e[0]), tree.degree(e[1])) == 1:
            return CrosscutWitness(
                tuple(sorted(iset)), tuple(pair.leftover), PendantEdge(e)
            )
    raise AssertionError("every optimal crosscut pair carries a witness")


def graph_adj_overlap(graph: Graph, v: int, vs: set[int]) -> bool:
    return bool(graph.adj[v] & sum(1 << u for u in vs if u != v))


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
    centers = _centers(n, adj)
    root = min(centers, key=lambda c: _rooted_code_sub(adj, c, -1))
    label: dict[int, int] = {}
    code = _assign_labels(adj, root, -1, label)
    relabeled = Graph(n, [(label[u], label[v]) for u, v in graph.edges])
    return code, relabeled


def _assign_labels(
    adj: list[list[int]], v: int, parent: int, label: dict[int, int]
) -> str:
    """Label the subtree at v in preorder, children in sorted-code order;
    returns its rooted code."""
    label[v] = len(label)
    kids = sorted((_rooted_code_sub(adj, w, v), w) for w in adj[v] if w != parent)
    return "(" + "".join(_assign_labels(adj, w, v, label) for _, w in kids) + ")"


def _rooted_code_sub(adj: list[list[int]], v: int, parent: int) -> str:
    subs = sorted(_rooted_code_sub(adj, w, v) for w in adj[v] if w != parent)
    return "(" + "".join(subs) + ")"


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
