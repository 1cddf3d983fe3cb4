"""Correctness oracles of the benchmark.

Nothing here calls into crosscut: certificates, verdicts, tree invariants
and extracted kernels are re-derived from raw vertex and edge lists by
deliberately plain code (full subset enumeration, backtracking, peeling),
so a fault in the search kernels cannot hide behind itself.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from collections import defaultdict


# ---------------------------------------------------------------------------
# tree invariants by full enumeration


def _independent(edges, chosen: set[int]) -> bool:
    return not any(u in chosen and v in chosen for u, v in edges)


def sigma_tau(n: int, edges) -> tuple[int, int]:
    """Crosscut number sigma (min over independent I of |I| plus the edges
    avoiding I) and covering number tau (min vertex cover)."""
    sigma = tau = None
    for r in range(n + 1):
        for sub in itertools.combinations(range(n), r):
            s = set(sub)
            missed = sum(1 for u, v in edges if u not in s and v not in s)
            if _independent(edges, s):
                value = r + missed
                sigma = value if sigma is None else min(sigma, value)
            if missed == 0 and tau is None:
                tau = r
    return sigma, tau


# ---------------------------------------------------------------------------
# expansion certificates and an independent containment oracle


def certificate_problems(host_n, host_triples, pattern_n, pattern_edges, core_map, expansion_map):
    """Re-validate an expansion certificate: every pattern edge uv with its
    completion vertex w forms a host triple, and core plus completion
    images are jointly injective."""
    problems = []
    triples = {tuple(sorted(t)) for t in host_triples}
    if len(core_map) != pattern_n:
        problems.append("core map has the wrong size")
        return problems
    want = sorted(tuple(sorted(e)) for e in pattern_edges)
    got = sorted(tuple(sorted(e)) for e, _ in expansion_map)
    if got != want:
        problems.append("completion map does not cover each pattern edge once")
    images = list(core_map) + [w for _, w in expansion_map]
    if len(set(images)) != len(images):
        problems.append("images are not jointly injective")
    if any(not 0 <= x < host_n for x in images):
        problems.append("image outside the host")
    for (u, v), w in expansion_map:
        if not (0 <= u < pattern_n and 0 <= v < pattern_n):
            problems.append(f"pattern edge {(u, v)} out of range")
            continue
        if tuple(sorted((core_map[u], core_map[v], w))) not in triples:
            problems.append(f"host lacks the triple for pattern edge {(u, v)}")
    return problems


def certificate_digest(core_map, expansion_map) -> str:
    items = sorted([list(e), w] for e, w in expansion_map)
    blob = json.dumps([list(core_map), items], separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _has_sdr(cands: list[set[int]]) -> bool:
    owner: dict[int, int] = {}

    def augment(i: int, seen: set[int]) -> bool:
        for w in cands[i]:
            if w in seen:
                continue
            seen.add(w)
            if w not in owner or augment(owner[w], seen):
                owner[w] = i
                return True
        return False

    return all(augment(i, set()) for i in range(len(cands)))


def expansion_exists(host_n: int, host_triples, pattern_n: int, pattern_edges) -> bool:
    """Plain backtracking over injective shadow maps; after each placement
    the pattern edges placed so far must still have distinct completion
    vertices outside the core (augmenting-path matching)."""
    if pattern_n + len(pattern_edges) > host_n:
        return False
    # Relabel the pattern in breadth-first order so that every vertex after
    # the first of its component has a placed neighbour.
    adj: list[list[int]] = [[] for _ in range(pattern_n)]
    for u, v in pattern_edges:
        adj[u].append(v)
        adj[v].append(u)
    order: list[int] = []
    for root in range(pattern_n):
        if root in order:
            continue
        i = len(order)
        order.append(root)
        while i < len(order):
            order += [w for w in adj[order[i]] if w not in order]
            i += 1
    pos = {v: i for i, v in enumerate(order)}
    edges = [(pos[u], pos[v]) for u, v in pattern_edges]
    thirds: dict[tuple[int, int], set[int]] = defaultdict(set)
    for a, b, c in host_triples:
        thirds[(a, b)].add(c)
        thirds[(b, a)].add(c)
        thirds[(a, c)].add(b)
        thirds[(c, a)].add(b)
        thirds[(b, c)].add(a)
        thirds[(c, b)].add(a)
    nbrs = [[w for e in edges for w in e if v in e and w != v] for v in range(pattern_n)]
    image = [-1] * pattern_n

    def completable(placed: int) -> bool:
        used = set(image[:placed])
        return _has_sdr(
            [thirds[(image[a], image[b])] - used for a, b in edges if a < placed and b < placed]
        )

    def place(v: int) -> bool:
        if v == pattern_n:
            return True
        for h in range(host_n):
            if h in image[:v]:
                continue
            if all(thirds.get((h, image[w])) for w in nbrs[v] if w < v):
                image[v] = h
                if completable(v + 1) and place(v + 1):
                    return True
        image[v] = -1
        return False

    return place(0)


def triangle_triples(n: int, graph_edges) -> list[tuple[int, int, int]]:
    adj = {v: set() for v in range(n)}
    for u, v in graph_edges:
        adj[u].add(v)
        adj[v].add(u)
    return [t for t in itertools.combinations(range(n), 3) if t[1] in adj[t[0]] and t[2] in adj[t[0]] and t[2] in adj[t[1]]]


# ---------------------------------------------------------------------------
# edge-list files and extraction outputs


def parse_triples(text: str) -> tuple[int, set[tuple[int, int, int]]]:
    """Parse the text edge-list format of a 3-graph."""
    n = None
    triples = set()
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("kind="):
            fields = dict(item.split("=", 1) for item in line.split())
            if fields.get("kind") != "3graph":
                raise ValueError("not a 3-graph file")
            n = int(fields["n"])
            continue
        a, b, c = sorted(int(x) for x in line.split())
        triples.add((a, b, c))
    if n is None:
        raise ValueError("missing header")
    return n, triples


def format_triples(n: int, triples) -> str:
    lines = [f"kind=3graph n={n}"] + [f"{a} {b} {c}" for a, b, c in sorted(triples)]
    return "\n".join(lines) + "\n"


def _pair_thirds(triples) -> dict[tuple[int, int], set[int]]:
    out: dict[tuple[int, int], set[int]] = defaultdict(set)
    for a, b, c in triples:
        out[(a, b)].add(c)
        out[(a, c)].add(b)
        out[(b, c)].add(a)
    return out


def full_kernel(triples, d: int) -> set[tuple[int, int, int]]:
    """Largest subsystem whose shadow pairs all have codegree >= d+1, by
    peeling until nothing changes."""
    current = set(triples)
    while True:
        thirds = _pair_thirds(current)
        weak = {p for p, ws in thirds.items() if len(ws) <= d}
        if not weak:
            return current
        current = {
            t for t in current if not ({(t[0], t[1]), (t[0], t[2]), (t[1], t[2])} & weak)
        }


def full_problems(host_triples, out_triples, d: int) -> list[str]:
    problems = []
    low = [p for p, ws in _pair_thirds(out_triples).items() if len(ws) < d + 1]
    if low:
        problems.append(f"{len(low)} shadow pairs have codegree below {d + 1}")
    if out_triples != full_kernel(host_triples, d):
        problems.append("output differs from the maximal full kernel")
    return problems


def _pairs(triple) -> list[tuple[int, int]]:
    a, b, c = triple
    return [(a, b), (a, c), (b, c)]


def _removal_type(pair, thirds, t: int, big: int) -> int | None:
    """Type of a shadow pair in the removal process: 1 deficient (codegree
    at most t-1), 2 coupled (codegree t, and one of its edges has a second
    pair of codegree t), 3 intermediate (codegree t+1 .. big-1); None when
    the pair may stay or is not in the shadow."""
    ws = thirds.get(pair, ())
    d = len(ws)
    if d == 0:
        return None
    if d <= t - 1:
        return 1
    if d == t:
        u, v = pair
        others = [tuple(sorted((x, w))) for w in ws for x in (u, v)]
        return 2 if any(len(thirds.get(p, ())) == t for p in others) else None
    return 3 if d <= big - 1 else None


def cleaning_trace_problems(trace: dict) -> list[str]:
    """Replay a cleaning trace from its own edge lists.

    The set-aside part must be exactly the input edges whose largest pair
    codegree is at most 3k.  Each removed pair must be in the shadow and of
    its recorded removable type when it goes; removing the set-aside part
    and then each pair's edges, in order, must give exactly the final
    edges.  The final system must be t-full, have at most one pair of
    codegree below 3k in each edge, and have no removable pair left."""
    t, big = trace["t"], 3 * trace["k"]
    given = {tuple(sorted(e)) for e in trace["input_edges"]}
    final = {tuple(sorted(e)) for e in trace["final_edges"]}
    problems = []
    if not final <= given:
        problems.append("final edges outside the input")
    thirds = _pair_thirds(given)
    sparse = {e for e in given if max(len(thirds[p]) for p in _pairs(e)) <= big}
    if {tuple(sorted(e)) for e in trace["sparse_part"]} != sparse:
        problems.append(f"set-aside part is not the edges of pair codegree <= {big}")
    current = given - sparse
    thirds = _pair_thirds(current)
    for step in trace["removed_pairs"]:
        pair = tuple(sorted(step["pair"]))
        kind = _removal_type(pair, thirds, t, big)
        if kind is None or kind != step["type"]:
            problems.append(f"pair {pair} removed as type {step['type']}, oracle type {kind}")
            break
        for w in list(thirds[pair]):
            edge = tuple(sorted((*pair, w)))
            current.discard(edge)
            for p, third in zip(_pairs(edge), reversed(edge)):
                thirds[p].discard(third)
                if not thirds[p]:
                    del thirds[p]
    if current != final:
        problems.append("replaying the removed pairs does not give the final edges")
    thirds = _pair_thirds(final)
    if any(len(ws) < t for ws in thirds.values()):
        problems.append(f"final system is not {t}-full")
    if any(sum(len(thirds[p]) < big for p in _pairs(e)) > 1 for e in final):
        problems.append(f"an edge of the final system has two pairs of codegree below {big}")
    if any(_removal_type(p, thirds, t, big) for p in list(thirds)):
        problems.append("the final system still has a removable pair")
    return problems


def _subset_counts(triples, i: int) -> dict[tuple, int]:
    counts: dict[tuple, int] = defaultdict(int)
    for t in triples:
        for s in itertools.combinations(t, i):
            counts[s] += 1
    return counts


def linear_problems(host_triples, out_triples, i: int) -> list[str]:
    """Every i-subset lies in at most one output edge, the output is a
    subsystem, and it keeps at least |H| / (3 * max i-degree) edges."""
    problems = []
    if not out_triples <= set(host_triples):
        problems.append("output has edges outside the input")
    if any(c > 1 for c in _subset_counts(out_triples, i).values()):
        problems.append(f"some {i}-subset lies in two output edges")
    max_deg = max(_subset_counts(host_triples, i).values(), default=0)
    if 3 * max_deg * len(out_triples) < len(host_triples):
        problems.append("output is smaller than |H| / (3 * max i-degree)")
    return problems
