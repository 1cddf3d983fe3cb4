"""Text and JSON formats for graphs, triple systems, and colorings.

Edge-list text format: a header line `kind=graph|3graph n=<N>`, then one
edge per line as space-separated vertex ids, ASCII decimal integers (an
optional minus sign, then digits 0-9) like every count and id in the text
formats.  JSON mirror:
{"kind": "3graph", "n": 12, "edges": [[0, 1, 2], ...]}.  Coloring files
list `u v w c` for every triple of [n].  The loaders check syntax and
repeated edges; `Graph`, `TripleSystem` and `Coloring` reject a bad edge,
triple or color.  A rejected row's error carries its index, and the loader
only maps that index to the file and line or JSON index of its prefix:
`g.edges:4: edge (0, 3) out of range for n=3`.  The constructors also own
the vertex-count limit of 10^6, for files as for certificates, builders and
library calls; a loader checks a count's syntax.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from .builders import Coloring
from .errors import InputError, RowError
from .structures import Graph, TripleSystem, sorted_triple

# ids and counts in text files are ASCII decimal integers; int() alone would
# also take "1_2" (as 12), "+1" and non-ASCII digits such as "١"
_DECIMAL = re.compile(r"-?[0-9]+")
_DECIMAL_ROW = re.compile(r"-?[0-9]+(?:\s+-?[0-9]+)*")
# int() refuses more digits than sys.get_int_max_str_digits() (4,300 by default)
_TOO_LONG = "integer with too many digits"


def _parse_header(line: str, path: str) -> tuple[str, int]:
    parts = line.split()
    fields = dict(part.split("=", 1) for part in parts if "=" in part)
    if len(parts) != 2 or set(fields) != {"kind", "n"}:
        raise InputError(f"{path}: header must be 'kind=graph|3graph n=<N>'")
    kind = fields["kind"]
    if kind not in ("graph", "3graph"):
        raise InputError(f"{path}: unknown kind {kind!r}")
    return kind, _count(fields["n"], path, f"bad vertex count {fields['n']!r}")


def _count(field: str, path: str, bad: str) -> int:
    """A vertex count's syntax; its range is the constructors' to check."""
    if not _DECIMAL.fullmatch(field):
        raise InputError(f"{path}: {bad}")
    try:
        return int(field)
    except ValueError:
        raise InputError(f"{path}: {_TOO_LONG}") from None


def _structure(kind: str, n: int, rows: list, where, path: str) -> Graph | TripleSystem:
    """Build the structure from rows of vertex ids; the constructor decides
    which rows are edges and names the index of the row it rejects.
    where(i) maps that index, or the first row repeating an earlier edge
    (looked for only when there are fewer edges than rows), to its place in
    messages; an error about no row gets the bare path."""
    build = Graph if kind == "graph" else TripleSystem
    try:
        obj = build(n, rows)
    except RowError as exc:
        raise InputError(f"{where(exc.index)}: {exc}") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None
    if len(obj) != len(rows):
        seen = set()
        for i, vs in enumerate(rows):
            key = tuple(sorted(vs))
            if key in seen:
                raise InputError(f"{where(i)}: duplicate edge {key}")
            seen.add(key)
    return obj


def _content_lines(text: str) -> list[tuple[int, str]]:
    """The lines cut at `#` (a comment runs to the end of the line) and
    stripped, blank ones dropped, each with its physical line number."""
    lines = enumerate(text.splitlines(), start=1)
    numbered = [(i, l.split("#", 1)[0].strip()) for i, l in lines]
    return [(i, l) for i, l in numbered if l]


def _text_rows(lines: list[tuple[int, str]], path: str) -> list[tuple[int, ...]]:
    rows = []
    for lineno, line in lines:
        if not _DECIMAL_ROW.fullmatch(line):
            bad = next((p for p in line.split() if not _DECIMAL.fullmatch(p)), line)
            raise InputError(f"{path}:{lineno}: non-integer vertex id {bad!r}")
        try:
            rows.append(tuple(map(int, line.split())))
        except ValueError:
            raise InputError(f"{path}:{lineno}: {_TOO_LONG}") from None
    return rows


def loads_edge_text(text: str, path: str = "<text>") -> Graph | TripleSystem:
    lines = _content_lines(text)
    if not lines:
        raise InputError(f"{path}: empty input")
    kind, n = _parse_header(lines[0][1], path)
    rows = lines[1:]
    where = lambda i: f"{path}:{rows[i][0]}"
    return _structure(kind, n, _text_rows(rows, path), where, path)


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
    if not isinstance(edges, list):
        raise InputError(f"{path}: edges must be a list")
    return _structure(kind, n, edges, lambda i: f"{path}: edges[{i}]", path)


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
    lines = _content_lines(text)
    if not lines or not lines[0][1].startswith("n="):
        raise InputError(f"{path}: first line must be n=<N>")
    n = _count(lines[0][1][2:], path, "bad n")
    color_of = {}
    for lineno, line in lines[1:]:
        parts = line.split()
        if len(parts) != 4:
            raise InputError(f"{path}:{lineno}: expected 'u v w c'")
        if not _DECIMAL_ROW.fullmatch(line):
            raise InputError(f"{path}:{lineno}: non-integer field")
        try:
            u, v, w, c = map(int, parts)
        except ValueError:
            raise InputError(f"{path}:{lineno}: {_TOO_LONG}") from None
        t = sorted_triple(u, v, w)
        if t in color_of:
            raise InputError(f"{path}:{lineno}: duplicate triple {t}")
        color_of[t] = c
    try:  # Coloring hands its keys, in file order, to TripleSystem
        return Coloring(n, color_of)
    except RowError as exc:
        raise InputError(f"{path}:{lines[exc.index + 1][0]}: {exc}") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def dumps_coloring(coloring: Coloring) -> str:
    lines = [f"n={coloring.n}"]
    for t in sorted(coloring.color_of):
        lines.append(f"{t[0]} {t[1]} {t[2]} {coloring.color_of[t]}")
    return "\n".join(lines) + "\n"


def load_coloring(path: str | Path) -> Coloring:
    return loads_coloring(_read_text(path), str(path))
