"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive (full enumeration, no pruning, no
shared code with the search kernels) so the fast implementations can be
checked against it.
"""

from __future__ import annotations

import itertools
import math

from crosscut.errors import InputError
from crosscut.structures import Graph, Pair, TripleSystem, _mask_vertices
from crosscut.trees import PAIR_CAP, CrosscutPair


def contains_expansion_naive(host: TripleSystem, pattern: Graph) -> bool:
    """All injective core maps crossed with all completion assignments."""
    m = len(pattern.edges)
    pat_edges = pattern.edge_list()
    if pattern.n + m > host.n:
        return False
    for phi in itertools.permutations(range(host.n), pattern.n):
        cands = []
        ok = True
        for u, v in pat_edges:
            ws = [
                w
                for w in range(host.n)
                if w not in phi and host.has_triple(phi[u], phi[v], w)
            ]
            if not ws:
                ok = False
                break
            cands.append(ws)
        if not ok:
            continue
        if _sdr_exists(cands, 0, set()):
            return True
    return False


def _sdr_exists(cands: list[list[int]], i: int, used: set[int]) -> bool:
    if i == len(cands):
        return True
    return any(
        w not in used and _sdr_exists(cands, i + 1, used | {w}) for w in cands[i]
    )


def expansion_through_naive(host: TripleSystem, pattern: Graph, triples) -> bool:
    """Some copy completes a pattern edge by one of the given triples: all
    injective core maps crossed with all completion assignments in which
    one edge's completion is pinned to a triple's third vertex."""
    pat_edges = pattern.edge_list()
    if pattern.n + len(pat_edges) > host.n:
        return False
    wanted = {frozenset(t) for t in triples}
    for phi in itertools.permutations(range(host.n), pattern.n):
        cands = [
            [w for w in range(host.n) if w not in phi and host.has_triple(phi[u], phi[v], w)]
            for u, v in pat_edges
        ]
        for i, (u, v) in enumerate(pat_edges):
            for w in cands[i]:
                if frozenset((phi[u], phi[v], w)) in wanted and _sdr_exists(
                    cands[:i] + [[w]] + cands[i + 1 :], 0, set()
                ):
                    return True
    return False


def lex_least_sdr_naive(masks: list[int]) -> list[int] | None:
    """First system of distinct representatives of the bitmasks in
    lexicographic order (plain backtracking over increasing vertices)."""
    chosen: list[int] = []

    def extend(i: int) -> bool:
        if i == len(masks):
            return True
        for w in range(masks[i].bit_length()):
            if (masks[i] >> w) & 1 and w not in chosen:
                chosen.append(w)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    return chosen if extend(0) else None


def contains_subgraph_naive(host: Graph, pattern: Graph) -> bool:
    """Plain backtracking injective homomorphism test (not induced)."""
    if pattern.n > host.n:
        return False
    assignment: dict[int, int] = {}

    def place(v: int) -> bool:
        if v == pattern.n:
            return True
        for h in range(host.n):
            if h in assignment.values():
                continue
            if all(
                host.has_edge(h, assignment[w])
                for w in pattern.neighbors(v)
                if w in assignment
            ):
                assignment[v] = h
                if place(v + 1):
                    return True
                del assignment[v]
        return False

    return place(0)


def sigma_naive(graph: Graph) -> int:
    best = None
    for r in range(graph.n + 1):
        for sub in itertools.combinations(range(graph.n), r):
            s = set(sub)
            if any(u in s and v in s for u, v in graph.edges):
                continue
            cost = r + sum(1 for u, v in graph.edges if u not in s and v not in s)
            best = cost if best is None else min(best, cost)
    return best


def tau_naive(graph: Graph) -> int:
    for r in range(graph.n + 1):
        for sub in itertools.combinations(range(graph.n), r):
            s = set(sub)
            if all(u in s or v in s for u, v in graph.edges):
                return r
    raise AssertionError


def tau_ind_naive(graph: Graph) -> int | None:
    best = None
    for r in range(graph.n + 1):
        for sub in itertools.combinations(range(graph.n), r):
            s = set(sub)
            if all(len(s & {u, v}) == 1 for u, v in graph.edges):
                best = r
                break
        if best is not None:
            break
    return best


def canonical_key_naive(graph: Graph) -> tuple:
    """Minimum edge tuple over all vertex permutations (tiny graphs only)."""
    best = None
    for perm in itertools.permutations(range(graph.n)):
        key = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in graph.edges))
        if best is None or key < best:
            best = key
    return (graph.n, best)


def ahu_code_naive(graph: Graph) -> str:
    """Independent rooted-shape canonical code for a free tree: strip leaf
    layers to the center(s), then take the best sorted-children code."""
    n = graph.n
    if n == 1:
        return "()"
    adj = {v: set(graph.neighbors(v)) for v in range(n)}
    degree = {v: len(adj[v]) for v in range(n)}
    stripped = set()
    layer = [v for v in range(n) if degree[v] == 1]
    while n - len(stripped) > 2:
        nxt = []
        for v in layer:
            stripped.add(v)
            for w in adj[v]:
                if w not in stripped:
                    degree[w] -= 1
                    if degree[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = sorted(v for v in range(n) if v not in stripped)

    def code(v, parent):
        subs = sorted(code(w, v) for w in adj[v] if w != parent)
        return "(" + "".join(subs) + ")"

    return min(code(c, -1) for c in centers)


def trees_by_prufer(n: int) -> set[str]:
    """AHU codes of all trees on n vertices via Prüfer sequences."""
    if n == 1:
        return {ahu_code_naive(Graph(1, []))}
    if n == 2:
        return {ahu_code_naive(Graph(2, [(0, 1)]))}
    keys = set()
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        edges = []
        for v in seq:
            leaf = min(u for u in range(n) if degree[u] == 1)
            edges.append((leaf, v))
            degree[leaf] -= 1
            degree[v] -= 1
        u, v = [x for x in range(n) if degree[x] == 1]
        edges.append((u, v))
        keys.add(ahu_code_naive(Graph(n, edges)))
    return keys


def count_triangles_naive(graph: Graph) -> int:
    return sum(
        1
        for a, b, c in itertools.combinations(range(graph.n), 3)
        if graph.has_edge(a, b) and graph.has_edge(a, c) and graph.has_edge(b, c)
    )


def turan_hypergraph_naive(n: int, pattern: Graph) -> int:
    """Maximum size over all 3-graphs on [n] avoiding the expansion."""
    triples = list(itertools.combinations(range(n), 3))
    best = 0
    for bits in range(1 << len(triples)):
        chosen = [t for i, t in enumerate(triples) if bits >> i & 1]
        if len(chosen) <= best:
            continue
        if not contains_expansion_naive(TripleSystem(n, chosen), pattern):
            best = len(chosen)
    return best


def generalized_turan_naive(n: int, pattern: Graph) -> int:
    """Maximum triangle count over graphs on [n] avoiding the blowup."""
    from crosscut.builders import triangle_blowup

    blowup = triangle_blowup(pattern)
    pairs = list(itertools.combinations(range(n), 2))
    best = 0
    for bits in range(1 << len(pairs)):
        chosen = [p for i, p in enumerate(pairs) if bits >> i & 1]
        g = Graph(n, chosen)
        tri = count_triangles_naive(g)
        if tri <= best:
            continue
        if not contains_subgraph_naive(g, blowup):
            best = tri
    return best


def _typed_placement(total: int, edges: list[tuple[int, ...]], sizes: list[int], allowed) -> bool:
    """Whether vertices 0..total-1 can be given types, type s to at most
    sizes[s] of them, so that allowed(the types of e) holds for every edge
    e: a backtracking search in vertex order, each edge tested once its
    last vertex is typed."""
    closing: list[list[tuple[int, ...]]] = [[] for _ in range(total)]
    for e in edges:
        closing[max(e)].append(e)
    types = [0] * total
    left = list(sizes)

    def place(v: int) -> bool:
        if v == total:
            return True
        for s in range(len(left)):
            if left[s] > 0:
                types[v] = s
                if all(allowed(tuple(types[x] for x in e)) for e in closing[v]):
                    left[s] -= 1
                    if place(v + 1):
                        return True
                    left[s] += 1
        return False

    return place(0)


def s_contains_typed(n: int, t: int, pattern: Graph) -> bool:
    """Whether S(n, t) contains the pattern's expansion, by a typed search:
    S(n, t) is the blowup of the template with types L (the t apexes) and
    R (the other n - t vertices) whose triples are those meeting L, and
    vertices of one type are interchangeable.  Expansion vertex k + i is
    the added vertex of the i-th sorted pattern edge."""
    k, edges = pattern.n, pattern.edge_list()
    triples = [(u, v, k + i) for i, (u, v) in enumerate(edges)]
    return _typed_placement(k + len(edges), triples, [t, n - t], lambda types: 0 in types)


def sbi_contains_typed(n: int, t: int, pattern: Graph, plus: bool = False) -> bool:
    """Whether s_graph(n, t, plus) contains the pattern's triangle blowup,
    by a typed search over its template: L (the t apexes, joined to every
    vertex, each other included), A and B (the smaller and the larger part,
    joined to each other), and with plus x and y, the two vertices of A
    joined by the extra edge, each of size 1 and taken out of A."""
    k, edges = pattern.n, pattern.edge_list()
    pairs = list(edges)
    for i, (u, v) in enumerate(edges):
        pairs += [(u, k + i), (v, k + i)]
    small, large = (n - t) // 2, (n - t + 1) // 2
    sizes = [t, small - 2, large, 1, 1] if plus else [t, small, large]
    # types 0 = L, 1 = A, 2 = B, 3 = x, 4 = y
    joined = {(0, s) for s in range(5)} | {(1, 2), (2, 3), (2, 4), (3, 4)}
    joined |= {(b, a) for a, b in joined}
    return _typed_placement(k + len(edges), pairs, sizes, lambda types: types in joined)


def maxcut_naive(graph: Graph) -> int:
    best = 0
    for bits in range(1 << max(graph.n - 1, 0)):
        side = {v for v in range(graph.n - 1) if bits >> v & 1}
        cut = sum(1 for u, v in graph.edges if (u in side) != (v in side))
        best = max(best, cut)
    return best


def rainbow_naive(coloring, pattern: Graph) -> bool:
    """Exhaustive rainbow-copy search in the complete host."""
    n = coloring.n
    m = len(pattern.edges)
    pat_edges = pattern.edge_list()
    if pattern.n + m > n:
        return False
    for phi in itertools.permutations(range(n), pattern.n):
        rest = [w for w in range(n) if w not in phi]
        for ws in itertools.permutations(rest, m):
            colors = {
                coloring.color(phi[u], phi[v], w)
                for (u, v), w in zip(pat_edges, ws)
            }
            if len(colors) == m:
                return True
    return False


def _classify_pair_naive(pair, nbrs, t, k):
    """Removable type (1 deficient, 2 coupled, 3 intermediate) or None."""
    d = len(nbrs[pair])
    if d <= t - 1:
        return 1
    if d == t:
        u, v = pair
        for w in nbrs[pair]:
            for other in (tuple(sorted((u, w))), tuple(sorted((v, w)))):
                if other != pair and len(nbrs.get(other, ())) == t:
                    return 2
        return None
    if t + 1 <= d <= 3 * k - 1:
        return 3
    return None


def cleaning_naive(system: TripleSystem, k: int, t: int):
    """The removal process with every shadow pair classified again after
    each removal: (sparse part, [(pair, type), ...], final edges)."""
    sparse = set()
    for e in system.edges:
        a, b, c = e
        dmax = max(
            system.codegree(a, b), system.codegree(a, c), system.codegree(b, c)
        )
        if dmax <= 3 * k:
            sparse.add(e)
    edges = set(system.edges) - sparse
    nbrs = {}
    for a, b, c in edges:
        nbrs.setdefault((a, b), set()).add(c)
        nbrs.setdefault((a, c), set()).add(b)
        nbrs.setdefault((b, c), set()).add(a)

    removed = []
    while True:
        best = None
        for pair in nbrs:
            tag = _classify_pair_naive(pair, nbrs, t, k)
            if tag is not None and (best is None or (tag, pair) < best):
                best = (tag, pair)
        if best is None:
            break
        tag, pair = best
        removed.append((pair, tag))
        doomed = [tuple(sorted((pair[0], pair[1], w))) for w in nbrs[pair]]
        for e in doomed:
            a, b, c = e
            edges.discard(e)
            for p, w in (((a, b), c), ((a, c), b), ((b, c), a)):
                bucket = nbrs.get(p)
                if bucket is not None:
                    bucket.discard(w)
                    if not bucket:
                        del nbrs[p]
    return sparse, removed, edges


def linear_subgraph_naive(system: TripleSystem, i: int) -> list:
    """Greedy minimum-degree independent set in the explicit O(m^2)
    conflict graph (edges sharing >= i vertices), least edge first on ties;
    the chosen edges in pick order."""
    edges = system.edge_list()
    adj = [set() for _ in edges]
    for j, e in enumerate(edges):
        for l in range(j + 1, len(edges)):
            if len(set(e) & set(edges[l])) >= i:
                adj[j].add(l)
                adj[l].add(j)
    alive = set(range(len(edges)))
    chosen = []
    while alive:
        pick = min(alive, key=lambda j: (len(adj[j] & alive), edges[j]))
        chosen.append(edges[pick])
        alive -= {pick} | (adj[pick] & alive)
    return chosen


# ---------------------------------------------------------------------------
# reference canonical forms and orderly generation: the earlier, plainer
# implementations of crosscut.lab, kept verbatim so that the faster ones can
# be checked byte for byte


def _refined_classes_reference(n: int, edges: list[tuple[int, ...]]) -> list[list[int]]:
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


def canonical_edge_key_reference(n: int, edges: frozenset[tuple[int, ...]]) -> tuple:
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
    classes = _refined_classes_reference(n, items)
    offsets = []
    slot = 0
    for cls in classes:
        offsets.append(slot)
        slot += len(cls)
    active = [i for i, cls in enumerate(classes) if set(cls) & touched]
    best: tuple | None = None
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


def twin_ids_reference(n: int, edges) -> list[int]:
    """Each vertex's least twin: u and w are twins iff the transposition
    (u w) leaves the edge set unchanged."""
    edge_set = {frozenset(e) for e in edges}

    def swap_fixes(u: int, w: int) -> bool:
        swap = {u: w, w: u}
        return {frozenset(swap.get(x, x) for x in e) for e in edge_set} == edge_set

    return [next(u for u in range(n) if swap_fixes(u, v)) for v in range(n)]


def levelwise_max_reference(
    n: int,
    all_items: list[tuple[int, ...]],
    is_free,
    objective,
    seed_value: int,
    budget,
    canonical_edge_key=canonical_edge_key_reference,
) -> tuple[int, list[tuple], int]:
    """Orderly generation that recomputes every addable set from all of
    `all_items`.  Returns (best objective, canonical witness keys, node
    count) with the given canonical key function."""
    witness_cap = 16
    empty: frozenset = frozenset()
    level: dict[tuple, frozenset] = {canonical_edge_key(n, empty): empty}
    best = objective(empty)
    witnesses = {canonical_edge_key(n, empty)}
    if seed_value > best:
        best = seed_value
        witnesses = set()
    while level:
        nxt: dict[tuple, frozenset] = {}
        for current in level.values():
            budget.tick()
            addable = [
                it for it in all_items if it not in current and is_free(current | {it})
            ]
            if objective(current.union(addable)) < best:
                continue
            for it in addable:
                grown = current | {it}
                key = canonical_edge_key(n, grown)
                if key in nxt:
                    continue
                nxt[key] = grown
                val = objective(grown)
                if val > best:
                    best = val
                    witnesses = {key}
                elif val == best and len(witnesses) < witness_cap:
                    witnesses.add(key)
        level = nxt
    return best, sorted(witnesses), budget.nodes


# ---------------------------------------------------------------------------
# reference crosscut searches: the earlier implementations of
# crosscut.trees (subtree DP on tree components, pruned enumeration on
# components with a cycle, a walk pruned only by partial cost), kept
# verbatim so that the single forced-set DP can be checked byte for byte

_INF = (1 << 30, 0)


def _component_edges_reference(graph: Graph, comp: list[int]) -> list[Pair]:
    cs = set(comp)
    return [e for e in graph.edges if e[0] in cs]


def _opt_tree_component_reference(
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


def _opt_cyclic_component_reference(
    graph: Graph, comp: list[int], forced_in: set[int]
) -> tuple[int, int]:
    """Pruned enumeration for a (small) component that contains a cycle."""
    if len(comp) > 26:
        raise InputError("crosscut enumeration limited to components of <= 26 vertices")
    pos = {v: i for i, v in enumerate(comp)}
    # earlier endpoints of the edges completed when index i is decided
    newly: list[list[int]] = [[] for _ in comp]
    for u, w in _component_edges_reference(graph, comp):
        first, second = sorted((u, w), key=pos.__getitem__)
        newly[pos[second]].append(first)
    return _cyclic_walk_reference(graph, comp, newly, forced_in, 0, 0, 0, 0, _INF)


def _cyclic_walk_reference(
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
        best = _cyclic_walk_reference(*rest, chosen_mask, size, uncovered + miss, best)
    if not graph.adj[v] & chosen_mask:
        best = _cyclic_walk_reference(*rest, chosen_mask | (1 << v), size + 1, uncovered, best)
    return best


def _crosscut_opt_reference(graph: Graph, forced_in: set[int] = frozenset()) -> tuple[int, int]:
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
            part = _opt_tree_component_reference(graph, comp, fi)
        else:
            part = _opt_cyclic_component_reference(graph, comp, fi)
        if part == _INF:
            return _INF
        total = (total[0] + part[0], total[1] + part[1])
    return total


def _validate_crosscut_domain_reference(graph: Graph) -> None:
    for comp in graph.components():
        cs = set(comp)
        m = sum(1 for e in graph.edges if e[0] in cs)
        if m > len(comp):
            raise InputError(
                "crosscut number is defined here for forests and components "
                "with at most one cycle"
            )


def _leftover_edges_reference(graph: Graph, independent: tuple[int, ...]) -> tuple[Pair, ...]:
    iset = set(independent)
    return tuple(
        e for e in sorted(graph.edges) if e[0] not in iset and e[1] not in iset
    )


def crosscut_number_reference(graph: Graph) -> tuple[int, CrosscutPair]:
    """Exact crosscut number plus one optimal pair.

    Ties among optimal independent sets are broken by maximum size, then by
    lexicographically smallest vertex set.
    """
    _validate_crosscut_domain_reference(graph)
    opt = _crosscut_opt_reference(graph)
    forced: set[int] = set()
    for v in range(graph.n):
        if _crosscut_opt_reference(graph, forced | {v}) == opt:
            forced.add(v)
    independent = tuple(sorted(forced))
    return opt[0], CrosscutPair(independent, _leftover_edges_reference(graph, independent))


def all_crosscut_pairs_reference(
    graph: Graph, cap: int = PAIR_CAP
) -> tuple[list[CrosscutPair], bool]:
    """All optimal crosscut pairs (capped); second value flags truncation.

    Enumeration prunes on the partial cost |chosen| + #already-uncovered
    edges, so star-like inputs do not blow up.
    """
    _validate_crosscut_domain_reference(graph)
    sigma = _crosscut_opt_reference(graph)[0]
    later_edges: list[list[int]] = [[] for _ in range(graph.n)]
    for u, v in graph.edges:
        later_edges[max(u, v)].append(min(u, v))
    found: list[tuple[int, ...]] = []
    overflow = _pairs_walk_reference(graph, later_edges, sigma, cap, found, 0, 0, [], 0, 0)
    pairs = [CrosscutPair(i, _leftover_edges_reference(graph, i)) for i in found]
    pairs.sort(key=lambda p: (-len(p.independent), p.independent))
    return pairs, overflow


def _pairs_walk_reference(
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
    if _pairs_walk_reference(*rest, chosen_mask, chosen, size, uncovered + miss):
        return True
    if graph.adj[v] & chosen_mask:
        return False
    chosen.append(v)
    overflow = _pairs_walk_reference(*rest, chosen_mask | (1 << v), chosen, size + 1, uncovered)
    chosen.pop()
    return overflow


def crosscut_reference(
    graph: Graph, cap: int
) -> tuple[int, CrosscutPair, list[CrosscutPair], bool]:
    """(sigma, canonical pair, capped optimal pairs, truncation flag) as the
    reference searches compute them."""
    sigma, pair = crosscut_number_reference(graph)
    pairs, truncated = all_crosscut_pairs_reference(graph, cap)
    return sigma, pair, pairs, truncated


# ---------------------------------------------------------------------------
# reference expansion search: the earlier crosscut.embed.find_expansion, whose
# every completion slot runs an alternating-path search, kept verbatim with
# its matcher and plan so that the held-vertex fast path can be checked
# certificate for certificate and node for node


def _augment_reference(
    slot: int, masks: list[int], blocked: int, match: list[int], owner: list[int]
) -> bool:
    seen = blocked
    stack = [slot]
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
        holder = owner[v]
        if holder >= 0:
            stack.append(holder)
            via.append(v)
            continue
        for j in range(len(stack) - 1, -1, -1):
            s = stack[j]
            match[s] = v
            owner[v] = s
            if j:
                v = via[j - 1]
        return True
    return False


def _lex_least_reference(
    masks: list[int], blocked: int, match: list[int], owner: list[int], slots
) -> list[int]:
    fixed = blocked
    out = []
    for s in slots:
        w = match[s]
        cand = masks[s] & ~fixed & ((1 << w) - 1)
        while cand:
            bit = cand & -cand
            cand ^= bit
            v = bit.bit_length() - 1
            holder = owner[v]
            owner[w] = -1
            match[s] = v
            owner[v] = s
            if holder < 0:
                w = v
                break
            match[holder] = -1
            if _augment_reference(holder, masks, fixed | bit, match, owner):
                w = v
                break
            match[s] = w
            owner[w] = s
            match[holder] = v
            owner[v] = holder
        fixed |= 1 << w
        out.append(w)
    return out


def _embedding_order_reference(pattern: Graph) -> list[int]:
    key = lambda v: (-pattern.degree(v), v)
    placed: set[int] = set()
    remaining = set(range(pattern.n))
    order: list[int] = []
    while remaining:
        adjacent = [v for v in remaining if any(w in placed for w in pattern.neighbors(v))]
        pool = adjacent if adjacent else sorted(remaining)
        v = min(pool, key=key)
        order.append(v)
        placed.add(v)
        remaining.remove(v)
    return order


def find_expansion_reference(host: TripleSystem, pattern: Graph, deterministic=True, budget=None):
    """The shadow DFS with one alternating-path search per slot that needs
    a vertex; same search order, budget ticks and certificates as
    crosscut.embed.find_expansion."""
    from crosscut.embed import Embedding

    if not pattern.edges:
        raise InputError("pattern needs at least one edge")
    m = len(pattern.edges)
    if pattern.n + m > host.n:
        return None
    adj = [0] * host.n
    for a, b in host.shadow_pairs():
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    order = _embedding_order_reference(pattern)
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
    last = pattern.n - 1
    full = (1 << host.n) - 1
    hs = [0] * pattern.n
    cands = [0] * pattern.n
    saved: list = [([], [])] * pattern.n
    masks = [0] * m
    match = [-1] * m
    owner = [-1] * host.n
    if budget is not None:
        budget.tick()
    i = 0
    core = 0
    cands[0] = full
    saved[0] = (match[:], owner[:])
    while True:
        cand = cands[i]
        if not cand:
            if i == 0:
                return None
            i -= 1
            core ^= 1 << hs[i]
            match[:], owner[:] = saved[i]
            continue
        bit = cand & -cand
        cands[i] = cand ^ bit
        h = bit.bit_length() - 1
        inner = core | bit
        ok = True
        holder = owner[h]
        if holder >= 0:
            owner[h] = -1
            match[holder] = -1
            ok = _augment_reference(holder, masks, inner, match, owner)
        if ok:
            s = first_slot[i]
            for d in back[i]:
                a = hs[d]
                masks[s] = host.codegree_mask(a, h)
                if not _augment_reference(s, masks, inner, match, owner):
                    ok = False
                    break
                s += 1
        if not ok:
            match[:], owner[:] = saved[i]
            continue
        if budget is not None:
            budget.tick()
        hs[i] = h
        if i == last:
            if deterministic:
                assign = _lex_least_reference(masks, inner, match, owner, edge_slot)
            else:
                assign = [match[s] for s in edge_slot]
            return Embedding(
                pattern=pattern,
                core_map=tuple([hs[i] for i in pos]),
                expansion_map=tuple(zip(pat_edges, assign)),
                host_kind="3graph",
            )
        i += 1
        core = inner
        cand = full & ~core
        for d in back[i]:
            cand &= adj[hs[d]]
        cands[i] = cand
        saved[i] = (match[:], owner[:])


# ---------------------------------------------------------------------------
# reference closeness scan: the earlier crosscut.lab closeness reports, which
# sort every t-subset and test every condition on each, kept verbatim so that
# the degree-driven scan can be checked report for report


def _candidate_sets_reference(n: int, t: int, delta: float, degree_of) -> list[tuple[int, ...]]:
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


def closeness_reference(host, t: int, delta: float):
    """The first t-set, in candidate order, passing every condition of
    hypergraph_closeness (host a TripleSystem) or graph_closeness (a Graph)."""
    from crosscut.lab import ClosenessReport, bipartization_distance

    def _condition(value, bound, holds):
        return {"value": value, "bound": bound, "holds": holds}

    n = host.n
    if isinstance(host, TripleSystem):
        degree = [host.degree(v) for v in range(n)]
        for L in _candidate_sets_reference(n, t, delta, degree.__getitem__):
            Lset = set(L)
            outside = sum(1 for e in host.edges if not (set(e) & Lset))
            mindeg = min((degree[v] for v in L), default=0)
            low = (0.5 - delta) * n * n
            cond = {
                "edges_outside": _condition(outside, delta * n * n, outside <= delta * n * n),
                "member_degree": _condition(
                    mindeg if L else None, low, all(degree[v] >= low for v in L)
                ),
            }
            if all(c["holds"] for c in cond.values()):
                return ClosenessReport(tuple(L), delta, cond)
        return None
    for L in _candidate_sets_reference(n, t, delta, host.degree):
        rest = host.without_vertices(L)
        triangles = rest.count_triangles()
        edges_outside = len(rest.edges)
        dist, exact = bipartization_distance(rest)
        low, few, many = (1 - delta) * n, delta * n * n, n * n / 4 - delta * n * n
        cond = {
            "member_degree": _condition(
                min((host.degree(v) for v in L), default=None),
                low,
                all(host.degree(v) >= low for v in L),
            ),
            "triangles_outside": _condition(triangles, few, triangles <= few),
            "edges_outside": _condition(edges_outside, many, edges_outside >= many),
            "bipartization": _condition(dist, few, dist <= few),
        }
        if all(c["holds"] for c in cond.values()):
            return ClosenessReport(tuple(L), delta, cond, exact_bipartization=exact)
    return None
