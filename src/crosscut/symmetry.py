"""Vertex symmetry of graphs and 3-graphs: refinement classes, twin groups,
and the twin ids and canonical edge key built from them.

The key serves lab's orderly generation and result cache (lab re-exports
it).  The module imports nothing from the package, so the search modules
below lab can use the same classes and twin groups.
"""

from __future__ import annotations

import itertools


def _refined_classes(n: int, partners: list[list], triples: bool) -> list[list[int]]:
    """Vertex classes fixed by any isomorphism, in signature order: iterated
    refinement by the colors of co-edge partners.

    A vertex's signature is its color and the sorted codes of its edges'
    other vertices: the partner's color c in a graph, or a*n + b for the
    partner colors a <= b in a 3-graph.  Colors stay below n, so the codes
    sort as the sorted color tuples would.  Colors are signature ranks and
    each signature starts with the vertex's color, so every round refines
    the last one in order; a round that adds no class changes no color, and
    refinement stops there (or once every class is a single vertex).
    """
    # the first round from one color ranks the vertices by degree
    degrees = [len(p) for p in partners]
    ranks = {d: i for i, d in enumerate(sorted(set(degrees)))}
    colors = [ranks[d] for d in degrees]
    count = len(ranks)
    while 1 < count < n:
        sigs = []
        for v in range(n):
            if triples:
                codes = []
                for x, y in partners[v]:
                    a = colors[x]
                    b = colors[y]
                    codes.append(a * n + b if a <= b else b * n + a)
            else:
                codes = [colors[u] for u in partners[v]]
            codes.sort()
            sigs.append((colors[v], tuple(codes)))
        ranks = {s: i for i, s in enumerate(sorted(set(sigs)))}
        if len(ranks) == count:
            break
        count = len(ranks)
        colors = [ranks[s] for s in sigs]
    classes: list[list[int]] = [[] for _ in range(count)]
    for v in range(n):
        classes[colors[v]].append(v)
    return classes


def _twin_groups(cls: list[int], partners: list[list], triples: bool) -> list[list[int]]:
    """The class split into twin groups, in order of first vertex: u and w
    are twins when the transposition (u w) maps the edge set onto itself,
    that is when the partners of u that avoid w are those of w that avoid
    u.  Twinship is an equivalence, as (u w) = (u v)(v w)(u v), so each
    vertex is tested against the first member of every group."""
    links = {v: set(partners[v]) for v in cls}

    def avoiding(v: int, w: int) -> set:
        if triples:
            return {p for p in links[v] if w not in p}
        return links[v] - {w}

    groups: list[list[int]] = []
    for v in cls:
        for group in groups:
            u = group[0]
            if avoiding(u, v) == avoiding(v, u):
                group.append(v)
                break
        else:
            groups.append([v])
    return groups


def _partners(n: int, items: list[tuple[int, ...]]) -> tuple[bool, list[list]]:
    """Whether the sorted edges are triples, and each vertex's co-edge
    partners: the other vertex of a pair, or the other two of a triple."""
    triples = bool(items) and len(items[0]) == 3
    partners: list[list] = [[] for _ in range(n)]
    for e in items:
        if triples:
            a, b, c = e
            partners[a].append((b, c))
            partners[b].append((a, c))
            partners[c].append((a, b))
        else:
            a, b = e
            partners[a].append(b)
            partners[b].append(a)
    return triples, partners


def twin_ids(n: int, edges) -> list[int]:
    """Each vertex's twin-class index: u and w share one iff the
    transposition (u w) maps the edge set onto itself.  Vertices outside
    every edge are twins of each other.  Twins share a refinement class, so
    the classes are the twin groups of the refinement classes, numbered in
    class order."""
    triples, partners = _partners(n, [tuple(sorted(e)) for e in edges])
    ids = [0] * n
    count = 0
    for cls in _refined_classes(n, partners, triples):
        for group in _twin_groups(cls, partners, triples) if len(cls) > 1 else [cls]:
            for v in group:
                ids[v] = count
            count += 1
    return ids


def _arrangements(groups: list[list[int]], offset: int) -> list[list[tuple[int, int]]]:
    """One (vertex, label) assignment of the block offset, offset+1, ...
    per distinct arrangement of the twin groups over it: the multiset
    permutations of the group indices in lexicographic order, each group's
    vertices taking its slots in class order."""
    seq = [g for g, group in enumerate(groups) for _ in group]
    last = len(seq) - 1
    out = []
    while True:
        queues = [iter(group) for group in groups]
        out.append([(next(queues[g]), offset + j) for j, g in enumerate(seq)])
        i = last - 1
        while i >= 0 and seq[i] >= seq[i + 1]:
            i -= 1
        if i < 0:
            return out
        j = last
        while seq[j] <= seq[i]:
            j -= 1
        seq[i], seq[j] = seq[j], seq[i]
        seq[i + 1 :] = seq[: i : -1]


def canonical_edge_key(n: int, edges: frozenset[tuple[int, ...]]) -> tuple:
    """Minimum relabeled sorted edge tuple over all refinement-respecting
    permutations; a true canonical form for graphs and 3-graphs (all edges
    of one size, 2 or 3).

    Any isomorphism preserves the refinement signature of a vertex, so
    relabelings that assign label blocks class by class (classes in their
    canonical signature order) suffice.  Vertices outside every edge never
    appear in the key, so only edge-touching classes are permuted.

    Two permutations that differ by exchanging twins give the same key:
    if (u w) is an automorphism, relabeling after it relabels the same edge
    set.  Twins share a refinement class, since refinement is invariant
    under automorphisms, so each class block only takes the distinct
    arrangements of its twin groups, and the minimum over them is the
    minimum over all its permutations.
    """
    items = sorted([tuple(sorted(e)) for e in edges])
    if not items:
        return ()
    triples, partners = _partners(n, items)
    relabel = [0] * n
    choices = []  # arrangement lists of the classes with several twin groups
    offset = 0
    for cls in _refined_classes(n, partners, triples):
        if partners[cls[0]]:
            groups = _twin_groups(cls, partners, triples) if len(cls) > 1 else [cls]
            if len(groups) == 1:
                for j, v in enumerate(cls):
                    relabel[v] = offset + j
            else:
                choices.append(_arrangements(groups, offset))
        offset += len(cls)
    best: list | None = None
    for parts in itertools.product(*choices):
        for part in parts:
            for v, label in part:
                relabel[v] = label
        key = []
        if triples:
            for a, b, c in items:
                key.append(tuple(sorted([relabel[a], relabel[b], relabel[c]])))
        else:
            for a, b in items:
                x = relabel[a]
                y = relabel[b]
                key.append((x, y) if x < y else (y, x))
        key.sort()
        if best is None or key < best:
            best = key
    assert best is not None
    return tuple(best)
