"""Vertex symmetry of graphs and 3-graphs: refinement classes, twin groups,
and the twin ids and canonical edge key built from them.

The key is the least relabelled edge list over the arrangements of the
twin groups in each class, found by a depth-first search that prunes a
partial labelling once a lower bound on its keys reaches the best key
found.  It serves lab's orderly generation and result cache (lab
re-exports it), which takes the twin ids from the same refinement.  The
module imports nothing from the package, so the search modules below lab
can use the same classes and twin groups.
"""

from __future__ import annotations


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


def _edge_codes(items: list, label: list[int], n: int, triples: bool) -> list[int]:
    """The sorted codes of the edges under label: x*n*n + y*n + z for the
    sorted labels (x, y, z) of a triple, x*n + y for a pair."""
    out = []
    if triples:
        square = n * n
        for a, b, c in items:
            x = label[a]
            y = label[b]
            z = label[c]
            if x > y:
                x, y = y, x
            if y > z:
                y, z = z, y
                if x > y:
                    x, y = y, x
            out.append(x * square + y * n + z)
    else:
        for a, b in items:
            x = label[a]
            y = label[b]
            out.append(x * n + y if x < y else y * n + x)
    out.sort()
    return out


def _least_codes(
    items: list,
    label: list[int],
    n: int,
    triples: bool,
    blocks: list[tuple[int, list[list[int]]]],
    b: int,
    j: int,
    best: list[int] | None,
) -> list[int]:
    """The least sorted edge codes over the completions of a labelling
    that has given the first j labels of block b, if below best; else
    best.  Each block's twin groups are stacks of the vertices still
    unlabelled, the next one on top; they and label are restored on
    return."""
    if b == len(blocks):
        key = _edge_codes(items, label, n, triples)
        return key if best is None or key < best else best
    offset, stacks = blocks[b]
    slot = offset + j
    open_stacks = [stack for stack in stacks if stack]
    if len(open_stacks) == 1:
        # one twin group left: the rest of the block is forced
        stack = open_stacks[0]
        rest = stack[::-1]
        stack.clear()
        for k, v in enumerate(rest, slot):
            label[v] = k
        best = _least_codes(items, label, n, triples, blocks, b + 1, 0, best)
        for v in rest:
            label[v] = slot
        stack.extend(reversed(rest))
        return best
    if best is not None and _edge_codes(items, label, n, triples) >= best:
        return best
    for stack in open_stacks:
        for v in stack:
            label[v] = slot + 1
    for stack in open_stacks:
        v = stack.pop()
        label[v] = slot
        best = _least_codes(items, label, n, triples, blocks, b, j + 1, best)
        label[v] = slot + 1
        stack.append(v)
    for stack in open_stacks:
        for v in stack:
            label[v] = slot
    return best


def canonical_edge_key(n: int, edges: frozenset[tuple[int, ...]]) -> tuple:
    """The canonical edge key of `key_and_twins`."""
    return key_and_twins(n, edges)[0]


def key_and_twins(n: int, edges) -> tuple[tuple, list[int]]:
    """The canonical edge key and each vertex's twin id, from one
    refinement.  u and w share a twin id iff the transposition (u w) maps
    the edge set onto itself; vertices outside every edge are twins of each
    other.  The ids number the twin groups of the refinement classes (see
    below) in class order.

    The key is the minimum relabeled sorted edge tuple over all
    refinement-respecting permutations; a true canonical form for graphs
    and 3-graphs (all edges of one size, 2 or 3).

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

    The arrangements are searched depth first (McKay and Piperno,
    Practical Graph Isomorphism II, 2014: drop a partial labelling that
    cannot beat the best one found).  The search fills the label blocks of
    the classes with several twin groups in label order, each step giving
    the block's least free label to the next vertex of one twin group.
    Edges are compared as integer codes: the sorted labels (x, y, z) of a
    triple code as x*n*n + y*n + z and (x, y) of a pair as x*n + y; labels
    stay below n, so the codes sort as the tuples do.

    While the search runs, a vertex not yet labelled is bounded below by
    the least free label of its class block.  The code of a sorted label
    tuple never decreases when one input label grows (sorting keeps
    element-wise order), so each edge's bound code is at most its final
    code in every completion.  Sorting the list of codes keeps that
    element-wise order, and element-wise <= implies lexicographic <=.  So
    no completion of a labelling whose sorted bound codes are >= the best
    key so far is below that key, and the labelling is pruned.  Bounds
    only grow down the search, so where one twin group is left in a block,
    its vertices take the rest of the block at once and the bound is next
    tested at a choice or a complete labelling.  Only the winning codes
    are turned back into tuples.
    """
    items = sorted([tuple(sorted(e)) for e in edges])
    triples, partners = _partners(n, items)
    ids = [0] * n
    count = 0
    label = [0] * n  # the least free label of its block for a vertex not yet labelled
    blocks = []  # (offset, twin groups as stacks) of the classes with several groups
    offset = 0
    for cls in _refined_classes(n, partners, triples):
        touched = partners[cls[0]]
        groups = _twin_groups(cls, partners, triples) if touched and len(cls) > 1 else [cls]
        for group in groups:
            for v in group:
                ids[v] = count
            count += 1
        if len(groups) > 1:
            for v in cls:
                label[v] = offset
            blocks.append((offset, [group[::-1] for group in groups]))
        elif touched:
            for j, v in enumerate(cls):
                label[v] = offset + j
        offset += len(cls)
    if not items:
        return (), ids
    best = _least_codes(items, label, n, triples, blocks, 0, 0, None)
    if triples:
        square = n * n
        return tuple([(c // square, c // n % n, c % n) for c in best]), ids
    return tuple([divmod(c, n) for c in best]), ids
