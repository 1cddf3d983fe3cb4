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
    refinement by the colors (class indices) of co-edge partners.

    The first round ranks the vertices by degree.  Each later round codes a
    vertex by the sorted tuple of its partners' codes: the color c in a
    graph, or a*n + b for the colors a <= b of a 3-graph pair (colors stay
    below n, so these sort as the color pairs would).  It replaces each
    class of several vertices by its members grouped by code, in code
    order; a singleton is never coded.  That ranks all vertices by (color,
    code), as each such signature starts with the old color, so classes
    keep their order; refinement stops at the first round that splits none.
    """
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(len(partners[v]), []).append(v)
    classes = [by_degree[d] for d in sorted(by_degree)]
    colors = [0] * n
    while 1 < len(classes) < n:
        for c, cls in enumerate(classes):
            for v in cls:
                colors[v] = c
        split = []
        for cls in classes:
            if len(cls) == 1:
                split.append(cls)
                continue
            by_code: dict[tuple, list[int]] = {}
            for v in cls:
                codes = []
                if triples:
                    for x, y in partners[v]:
                        a = colors[x]
                        b = colors[y]
                        codes.append(a * n + b if a <= b else b * n + a)
                else:
                    for u in partners[v]:
                        codes.append(colors[u])
                codes.sort()
                by_code.setdefault(tuple(codes), []).append(v)
            if len(by_code) == 1:
                split.append(cls)
            else:
                split += [by_code[c] for c in sorted(by_code)]
        if len(split) == len(classes):
            break
        classes = split
    return classes


def _twin_groups(cls: list[int], partners: list[list], triples: bool, pos: list, t: int) -> list:
    """The class split into twin groups, in order of first vertex: u and w
    are twins when the transposition (u w) maps the edge set onto itself,
    that is when u's partner mask less the bits that meet w equals w's less
    those that meet u (a partner is the bit p = pos[v] < t of a vertex, or
    p*t + q of a pair).  As (u w) = (u v)(v w)(u v), twinship is an
    equivalence, so each vertex is tested against each group's first."""
    links = {}
    meets = {}
    if triples:
        row = (1 << t) - 1
        col = ((1 << t * t) - 1) // row  # bit p*t for every p < t
        for v in cls:
            link = 0
            for x, y in partners[v]:
                link |= 1 << pos[x] * t + pos[y]
            links[v] = link
            meets[v] = row << pos[v] * t | col << pos[v]
    else:
        for v in cls:
            link = 0
            for u in partners[v]:
                link |= 1 << pos[u]
            links[v] = link
            meets[v] = 1 << pos[v]
    groups: list[list[int]] = []
    for v in cls:
        for group in groups:
            u = group[0]
            if links[u] & ~meets[v] == links[v] & ~meets[u]:
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
    items: list, label: list[int], n: int, triples: bool, blocks: list, b: int, j: int, best
) -> list[int]:
    """The least sorted edge codes over the completions of a labelling
    that has given the first j labels of block b, if below best; else
    best.  Each block's twin groups are stacks of the vertices still
    unlabelled, the next one on top; they and label are restored on
    return."""
    offset, stacks = blocks[b]
    slot = offset + j
    open_stacks = [stack for stack in stacks if stack]
    if len(open_stacks) == 1:
        # one twin group left: the rest of the block is forced
        rest = open_stacks[0][::-1]
        for k, v in enumerate(rest, slot):
            label[v] = k
        if b + 1 < len(blocks):
            best = _least_codes(items, label, n, triples, blocks, b + 1, 0, best)
        else:
            key = _edge_codes(items, label, n, triples)
            if best is None or key < best:
                best = key
        for v in rest:
            label[v] = slot
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
    refinement of the edges, which must be sorted tuples (as `Graph.edges`,
    `TripleSystem.edges` and `itertools.combinations` give them).  u and w
    share a twin id iff the transposition (u w) maps the edge set onto
    itself; vertices outside every edge are twins of each other.  The ids
    number the twin groups of the refinement classes in class order.

    The key is the least relabeled sorted edge tuple over the
    refinement-respecting permutations, a canonical form for graphs and
    3-graphs: isomorphisms preserve refinement signatures, so label blocks
    given to the classes in signature order suffice, and only the classes
    of vertices in edges are permuted.  Exchanging twins keeps the key, and
    twins share a class, so each block only takes the distinct arrangements
    of its class's twin groups.

    The arrangements are searched depth first (McKay and Piperno,
    Practical Graph Isomorphism II, 2014: drop a partial labelling that
    cannot beat the best one found), each step giving a block's least free
    label to the next vertex of one twin group.  Edges compare as codes:
    the sorted labels (x, y, z) of a triple as x*n*n + y*n + z, (x, y) of a
    pair as x*n + y, which sort as the tuples do.  An unlabelled vertex is
    bounded below by its block's least free label; a sorted label tuple's
    code never decreases when one label grows, so each edge's bound code,
    and element-wise (hence lexicographically) the sorted list, is at most
    that of every completion: a labelling whose sorted bound codes reach
    the best key is pruned.  Bounds only grow down the search, so where one
    twin group is left in a block, its vertices take the rest at once.
    """
    items = sorted(edges)
    triples, partners = _partners(n, items)
    ids = [0] * n
    count = 0
    label = [0] * n  # the least free label of its block for a vertex not yet labelled
    blocks = []  # (offset, twin groups as stacks) of the classes with several groups
    offset = 0
    pos = [0] * n  # the twin test's bit of each of the t vertices in some edge
    t = 0
    for v in range(n):
        if partners[v]:
            pos[v] = t
            t += 1
    for cls in _refined_classes(n, partners, triples):
        touched = partners[cls[0]]
        groups = _twin_groups(cls, partners, triples, pos, t) if touched and len(cls) > 1 else [cls]
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
    if blocks:
        best = _least_codes(items, label, n, triples, blocks, 0, 0, None)
    else:
        best = _edge_codes(items, label, n, triples)
    if triples:
        square = n * n
        return tuple([(c // square, c // n % n, c % n) for c in best]), ids
    return tuple([divmod(c, n) for c in best]), ids
