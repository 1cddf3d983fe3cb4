"""Text and JSON formats for graphs, triple systems, and colorings.

Edge-list text format: a header line `kind=graph|3graph n=<N>`, then one
edge per line as space-separated vertex ids.  JSON mirror:
{"kind": "3graph", "n": 12, "edges": [[0, 1, 2], ...]}.  Both parsers
reject out-of-range ids, duplicate edges, and loops; the JSON parser also
rejects a document that is not an object, a count or id that is not an
integer (booleans included), and edges that are not lists.  Coloring files
list `u v w c` for every triple of [n].  Every loader rejects a vertex
count above 10^6 before allocating anything for it.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

from .builders import Coloring
from .errors import InputError
from .structures import Graph, TripleSystem, _is_int, sorted_triple

# graphs and triple systems keep per-vertex tables and the coloring check
# takes combinations of range(n), so a loaded vertex count is bounded
_MAX_VERTICES = 10**6


def _parse_header(line: str, path: str) -> tuple[str, int]:
    fields = dict(
        part.split("=", 1) for part in line.split() if "=" in part
    )
    if set(fields) != {"kind", "n"}:
        raise InputError(f"{path}: header must be 'kind=graph|3graph n=<N>'")
    kind = fields["kind"]
    if kind not in ("graph", "3graph"):
        raise InputError(f"{path}: unknown kind {kind!r}")
    try:
        n = int(fields["n"])
    except ValueError:
        raise InputError(f"{path}: bad vertex count {fields['n']!r}") from None
    _check_vertex_count(n, path)
    return kind, n


def _check_vertex_count(n: int, path: str) -> None:
    if n > _MAX_VERTICES:
        raise InputError(f"{path}: vertex count {n} exceeds the limit {_MAX_VERTICES}")


def loads_edge_text(text: str, path: str = "<text>") -> Graph | TripleSystem:
    lines = [l.strip() for l in text.splitlines()]
    lines = [l for l in lines if l and not l.startswith("#")]
    if not lines:
        raise InputError(f"{path}: empty input")
    kind, n = _parse_header(lines[0], path)
    arity = 2 if kind == "graph" else 3
    edges = []
    seen = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != arity:
            raise InputError(f"{path}:{lineno}: expected {arity} vertex ids")
        try:
            vs = tuple(int(p) for p in parts)
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-integer vertex id") from None
        key = tuple(sorted(vs))
        if len(set(key)) != arity:
            raise InputError(f"{path}:{lineno}: repeated vertex in edge")
        if key in seen:
            raise InputError(f"{path}:{lineno}: duplicate edge {key}")
        seen.add(key)
        edges.append(vs)
    return Graph(n, edges) if kind == "graph" else TripleSystem(n, edges)


def dumps_edge_text(obj: Graph | TripleSystem) -> str:
    if isinstance(obj, Graph):
        head = f"kind=graph n={obj.n}"
        body = [f"{u} {v}" for u, v in obj.edge_list()]
    else:
        head = f"kind=3graph n={obj.n}"
        body = [f"{a} {b} {c}" for a, b, c in obj.edge_list()]
    return "\n".join([head] + body) + "\n"


def loads_edge_json(text: str, path: str = "<json>") -> Graph | TripleSystem:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, digit limit, nesting
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    for key in ("kind", "n", "edges"):
        if key not in data:
            raise InputError(f"{path}: missing key {key!r}")
    kind, n, edges = data["kind"], data["n"], data["edges"]
    if kind not in ("graph", "3graph"):
        raise InputError(f"{path}: unknown kind {kind!r}")
    if not _is_int(n):
        raise InputError(f"{path}: vertex count must be an integer, got {n!r}")
    _check_vertex_count(n, path)
    if not isinstance(edges, list):
        raise InputError(f"{path}: edges must be a list")
    arity = 2 if kind == "graph" else 3
    seen = set()
    for e in edges:
        if not (isinstance(e, list) and all(_is_int(x) for x in e)):
            raise InputError(f"{path}: an edge is a list of integer ids, got {e!r}")
        if len(e) != arity or len(set(e)) != arity:
            raise InputError(f"{path}: bad edge {e}")
        key = tuple(sorted(e))
        if key in seen:
            raise InputError(f"{path}: duplicate edge {e}")
        seen.add(key)
    return Graph(n, edges) if kind == "graph" else TripleSystem(n, edges)


def dumps_edge_json(obj: Graph | TripleSystem) -> str:
    kind = "graph" if isinstance(obj, Graph) else "3graph"
    return json.dumps(
        {"kind": kind, "n": obj.n, "edges": [list(e) for e in obj.edge_list()]},
        sort_keys=True,
    )


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not a text file: {exc}") from None


def load_structure(path: str | Path) -> Graph | TripleSystem:
    text = _read_text(path)
    if text.lstrip().startswith("{"):
        return loads_edge_json(text, str(path))
    return loads_edge_text(text, str(path))


def load_graph(path: str | Path) -> Graph:
    obj = load_structure(path)
    if not isinstance(obj, Graph):
        raise InputError(f"{path}: expected kind=graph")
    return obj


def load_triple_system(path: str | Path) -> TripleSystem:
    obj = load_structure(path)
    if not isinstance(obj, TripleSystem):
        raise InputError(f"{path}: expected kind=3graph")
    return obj


def save_structure(obj: Graph | TripleSystem, path: str | Path, fmt: str = "edgelist"):
    if fmt == "edgelist":
        Path(path).write_text(dumps_edge_text(obj))
    elif fmt == "json":
        Path(path).write_text(dumps_edge_json(obj) + "\n")
    else:
        raise InputError(f"unknown format {fmt!r}")


def loads_coloring(text: str, path: str = "<coloring>") -> Coloring:
    lines = [l.strip() for l in text.splitlines()]
    lines = [l for l in lines if l and not l.startswith("#")]
    if not lines or not lines[0].startswith("n="):
        raise InputError(f"{path}: first line must be n=<N>")
    try:
        n = int(lines[0][2:])
    except ValueError:
        raise InputError(f"{path}: bad n") from None
    if n < 0:
        raise InputError(f"{path}: n must be nonnegative")
    _check_vertex_count(n, path)
    color_of = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split()
        if len(parts) != 4:
            raise InputError(f"{path}:{lineno}: expected 'u v w c'")
        try:
            u, v, w, c = (int(p) for p in parts)
        except ValueError:
            raise InputError(f"{path}:{lineno}: non-integer field") from None
        t = sorted_triple(u, v, w)
        if len(set(t)) != 3 or not all(0 <= x < n for x in t):
            raise InputError(f"{path}:{lineno}: bad triple {t} for n={n}")
        if t in color_of:
            raise InputError(f"{path}:{lineno}: duplicate triple {t}")
        color_of[t] = c
    # every listed triple is a distinct triple of [n], so the first missing
    # one turns up within len(color_of) + 1 steps whatever n is
    missing = math.comb(n, 3) - len(color_of)
    if missing:
        first = next(
            t for t in itertools.combinations(range(n), 3) if t not in color_of
        )
        raise InputError(f"{path}: {missing} triples missing (first {first})")
    return Coloring(n, color_of)


def dumps_coloring(coloring: Coloring) -> str:
    lines = [f"n={coloring.n}"]
    for t in sorted(coloring.color_of):
        lines.append(f"{t[0]} {t[1]} {t[2]} {coloring.color_of[t]}")
    return "\n".join(lines) + "\n"


def load_coloring(path: str | Path) -> Coloring:
    return loads_coloring(_read_text(path), str(path))
