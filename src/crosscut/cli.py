"""Command-line entry point.

Exit codes: 0 success/found, 3 decided negative (not found / no accepted
set), 2 usage error, 4 resource budget exceeded, 5 input validation error.
Reports are JSON with sorted keys; identical deterministic invocations are
byte-identical apart from the generated_at field.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import cleaning as cleaning_mod
from . import lab
from .builders import (
    expansion,
    lower_bound_coloring,
    s_construction,
    sbi_construction,
    triangle_blowup,
    triangle_system,
)
from .config import RunConfig, parse_config_file
from .embed import Embedding, find_blowup, find_expansion, find_rainbow_expansion
from .errors import BudgetExceededError, InputError, UsageError, digit_limit_as_input_error
from .fileio import (
    dumps_coloring,
    load_coloring,
    load_graph,
    load_structure,
    load_triple_system,
    save_structure,
)
from .structures import TripleSystem, _is_int
from .trees import analyze_tree, enumerate_trees

EXIT_FOUND = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_BUDGET = 4
EXIT_INPUT = 5


def _json_text(value, indent: str = "") -> str:
    """`value` exactly as json.dumps(value, sort_keys=True, indent=2) writes
    it, each line after the first prefixed by `indent`.

    json.dumps with an indent runs the pure-Python encoder; reports are
    mostly nested lists of ints, which this writes with str.join.  Lists,
    tuples and str-keyed dicts are written here, plain ints by int.__repr__
    (as the encoder does); every other value, bool, None, float, str and
    subclasses included, goes to json.dumps, whose lines take the prefix.
    """
    kind = type(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        items = [
            int.__repr__(item) if type(item) is int else _json_text(item, inner)
            for item in value
        ]
    elif kind is dict and all(type(key) is str for key in value):
        if not value:
            return "{}"
        items = [
            f"{encode_basestring_ascii(key)}: {_json_text(value[key], inner)}"
            for key in sorted(value)
        ]
    else:
        return json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n" + indent)
    opener, closer = ("{", "}") if kind is dict else ("[", "]")
    return f"{opener}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closer}"


def _emit(data: dict, out: str | None, rows: list[dict] | None = None, fmt: str = "json") -> None:
    """Write a JSON report (sorted keys, timestamped) or, when rows are
    provided and csv is selected, a flat table for external plotting."""
    with digit_limit_as_input_error():
        if fmt == "csv" and rows is not None:
            header = sorted({k for r in rows for k in r})
            lines = [",".join(header)]
            lines += [",".join(str(r.get(k, "")) for k in header) for r in rows]
            text = "\n".join(lines) + "\n"
        else:
            data = dict(data)
            data["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
            text = _json_text(data) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _config_from_args(args) -> RunConfig:
    """Defaults, overridden by the config file, then the environment, then
    the flags."""
    fields = parse_config_file(args.config) if args.config else {}
    if os.environ.get("CROSSCUT_CACHE_DIR"):
        fields["cache_dir"] = Path(os.environ["CROSSCUT_CACHE_DIR"])
    if args.max_nodes is not None:
        fields["max_nodes"] = args.max_nodes
    if args.cache_dir is not None:
        fields["cache_dir"] = Path(args.cache_dir)
    if args.output_format is not None:
        fields["output_format"] = args.output_format
    return RunConfig(**fields)


def _cmd_tree_stats(args) -> int:
    profile = analyze_tree(load_graph(args.file))
    _emit(profile.to_json(), args.out)
    return EXIT_FOUND


def _cmd_tree_enum(args) -> int:
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    trees = enumerate_trees(args.n)
    for i, t in enumerate(trees):
        save_structure(t, outdir / f"tree_{args.n}_{i:03d}.edges")
    _emit({"n": args.n, "count": len(trees), "dir": str(outdir)}, None)
    return EXIT_FOUND


def _cmd_construct(args) -> int:
    kind = args.kind
    if kind in ("expansion", "blowup", "kg"):
        needs = {"--in": args.infile}
    else:
        needs = {"--n": args.n, "--t": args.t}
    missing = [option for option, value in needs.items() if value is None]
    if missing:
        raise UsageError(f"construct {kind} needs {' and '.join(missing)}")
    if kind == "s":
        obj = s_construction(args.n, args.t)
    elif kind == "sbi":
        obj = sbi_construction(args.n, args.t, plus=False)
    elif kind == "sbi-plus":
        obj = sbi_construction(args.n, args.t, plus=True)
    elif kind == "expansion":
        obj = expansion(load_graph(args.infile))
    elif kind == "blowup":
        obj = triangle_blowup(load_graph(args.infile))
    else:
        obj = triangle_system(load_graph(args.infile))
    save_structure(obj, args.out, fmt=args.format)
    return EXIT_FOUND


def _cmd_coloring(args) -> int:
    base = load_triple_system(args.base)
    coloring = lower_bound_coloring(base)
    Path(args.out).write_text(dumps_coloring(coloring))
    return EXIT_FOUND


def _cmd_contains(args) -> int:
    cfg = args.cfg
    pattern = load_graph(args.pattern)
    budget = cfg.budget()
    if args.pattern_kind == "expansion":
        host = load_triple_system(args.host)
        emb = find_expansion(host, pattern, budget=budget)
    else:
        host = load_graph(args.host)
        emb = find_blowup(host, pattern, budget=budget)
    if emb is None:
        return EXIT_NEGATIVE
    if args.certificate:
        _emit({"kind": "embedding", "embedding": emb.to_json()}, args.certificate)
    return EXIT_FOUND


def _cmd_rainbow(args) -> int:
    coloring = load_coloring(args.coloring)
    pattern = load_graph(args.pattern)
    cert = find_rainbow_expansion(coloring, pattern, args.cfg.budget())
    if cert is None:
        return EXIT_NEGATIVE
    if args.certificate:
        _emit(
            {
                "kind": "rainbow",
                "embedding": cert.embedding.to_json(),
                "colors": list(cert.colors),
            },
            args.certificate,
        )
    return EXIT_FOUND


def _cmd_clean(args) -> int:
    host = load_triple_system(args.infile)
    trace = cleaning_mod.cleaning_algorithm(host, args.k, args.t)
    payload = {"kind": "cleaning-trace", **trace.to_json()}
    if args.epsilon is not None:
        payload["quantitative"] = cleaning_mod.quantitative_report(
            trace, args.epsilon
        )
    _emit(payload, args.trace)
    return EXIT_FOUND


def _cmd_extract(args) -> int:
    host = load_triple_system(args.infile)
    if args.mode == "full":
        out = cleaning_mod.extract_d_full(host, args.param)
    else:
        out = cleaning_mod.extract_linear_subgraph(host, args.param)
    save_structure(out, args.out, fmt=args.format)
    return EXIT_FOUND


def _cmd_turan(args) -> int:
    cfg = args.cfg
    pattern = load_graph(args.pattern)
    exhaustive = not args.lower_only

    def compute():
        if args.mode == "hypergraph":
            return lab.exact_turan_hypergraph(args.n, pattern, exhaustive, cfg.budget())
        return lab.exact_generalized_turan(args.n, pattern, exhaustive, cfg.budget())

    result = lab.cached_turan(
        args.mode, args.n, pattern, cfg.cache_dir, compute, exhaustive
    )
    row = {
        k: result[k]
        for k in (
            "n",
            "value",
            "exhaustive",
            "lower_bound_construction_value",
            "construction_free",
            "matches_construction",
        )
    }
    row["mode"] = args.mode
    _emit(result, args.out, rows=[row], fmt=cfg.output_format)
    return EXIT_FOUND


def _cmd_closeness(args) -> int:
    if args.kind == "3graph":
        host = load_triple_system(args.infile)
        report = lab.hypergraph_closeness(host, args.t, args.delta)
    else:
        host = load_graph(args.infile)
        report = lab.graph_closeness(host, args.t, args.delta)
    if report is None:
        return EXIT_NEGATIVE
    _emit(report.to_json(), args.out)
    return EXIT_FOUND


def _cmd_anti_ramsey(args) -> int:
    tree = load_graph(args.tree)
    aug = load_graph(args.aug)
    result = lab.anti_ramsey_bounds(args.n, tree, aug)
    _emit(result.to_json(), args.out)
    return EXIT_FOUND


def _cmd_verify(args) -> int:
    report = lab.verify_theorem_suite(args.suite, args.max_n)
    _emit(report, args.out, rows=report["checks"], fmt=args.cfg.output_format)
    return EXIT_FOUND if report["all_pass"] else EXIT_NEGATIVE


def _embedding_from(data: dict, path: str) -> Embedding:
    try:
        return Embedding.from_json(data.get("embedding"))
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _cmd_check(args) -> int:
    path = args.certificate
    try:
        data = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:  # also undecodable bytes
        raise InputError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InputError(f"{path}: a certificate is a JSON object")
    kind = data.get("kind")
    if kind == "cleaning-trace":
        host = load_triple_system(args.host)
        trace = cleaning_mod.cleaning_algorithm(host, data.get("k"), data.get("t"))
        expected = {"kind": kind, **trace.to_json()}
        quantitative = data.get("quantitative")
        epsilon = quantitative.get("epsilon") if isinstance(quantitative, dict) else None
        if type(epsilon) in (int, float):  # not a JSON boolean
            expected["quantitative"] = cleaning_mod.quantitative_report(trace, epsilon)
        data.pop("generated_at", None)
        same = data == expected
        _emit({"valid": same}, None)
        return EXIT_FOUND if same else EXIT_NEGATIVE
    if kind not in ("embedding", "rainbow"):
        raise InputError("unknown certificate kind")
    emb = _embedding_from(data, path)
    if kind == "embedding":
        problems = emb.violations(load_structure(args.host))
    else:
        coloring = load_coloring(args.host)
        colors = data.get("colors")
        if not (isinstance(colors, list) and all(_is_int(c) for c in colors)):
            raise InputError(f"{path}: colors must be a list of integers")
        # the colored triples are every triple of [n]: the complete host
        problems = emb.violations(TripleSystem(coloring.n, coloring.color_of))
        if not problems:
            seen_colors = [
                coloring.color(emb.core_map[u], emb.core_map[v], w)
                for (u, v), w in emb.expansion_map
            ]
            if len(set(seen_colors)) != len(seen_colors):
                problems.append("colors repeat")
            if sorted(seen_colors) != sorted(colors):
                problems.append("recorded colors do not match the coloring")
    if problems:
        _emit({"valid": False, "problems": problems}, None)
        return EXIT_NEGATIVE
    _emit({"valid": True}, None)
    return EXIT_FOUND


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on first use and shared by every `main` call:
    parsing leaves it unchanged, no action has a mutable default, and the
    handlers it names look up the loaders and modules they use when called."""
    parser = argparse.ArgumentParser(
        prog="crosscut",
        description="Construct, analyze, and exhaustively verify expansions "
        "of trees and cycles at small scale.",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--max-nodes", type=int, dest="max_nodes")
    parser.add_argument("--cache-dir", dest="cache_dir")
    parser.add_argument(
        "--output-format",
        choices=["json", "csv"],
        dest="output_format",
        help="csv flattens tabular reports (verify, turan) for plotting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tree = sub.add_parser("tree", help="tree invariants and enumeration")
    tree_sub = tree.add_subparsers(dest="tree_cmd", required=True)
    stats = tree_sub.add_parser("stats")
    stats.add_argument("file")
    stats.add_argument("--out")
    stats.set_defaults(func=_cmd_tree_stats)
    enum = tree_sub.add_parser("enum")
    enum.add_argument("--n", type=int, required=True)
    enum.add_argument("--out", required=True)
    enum.set_defaults(func=_cmd_tree_enum)

    construct = sub.add_parser("construct", help="build named objects")
    construct.add_argument(
        "kind", choices=["s", "sbi", "sbi-plus", "expansion", "blowup", "kg"]
    )
    construct.add_argument("--n", type=int)
    construct.add_argument("--t", type=int)
    construct.add_argument("--in", dest="infile")
    construct.add_argument("--out", required=True)
    construct.add_argument(
        "--format", choices=["edgelist", "json"], default="edgelist"
    )
    construct.set_defaults(func=_cmd_construct)

    coloring = sub.add_parser(
        "coloring", help="write the edge-distinct lower-bound coloring"
    )
    coloring.add_argument("--base", required=True)
    coloring.add_argument("--out", required=True)
    coloring.set_defaults(func=_cmd_coloring)

    contains = sub.add_parser("contains", help="decide containment")
    contains.add_argument(
        "--pattern-kind", choices=["expansion", "blowup"], required=True
    )
    contains.add_argument("--pattern", required=True)
    contains.add_argument("--host", required=True)
    contains.add_argument("--certificate")
    contains.set_defaults(func=_cmd_contains)

    rainbow = sub.add_parser("rainbow", help="search rainbow expansions")
    rainbow.add_argument("--coloring", required=True)
    rainbow.add_argument("--pattern", required=True)
    rainbow.add_argument("--certificate")
    rainbow.set_defaults(func=_cmd_rainbow)

    clean = sub.add_parser("clean", help="run the removal process")
    clean.add_argument("--k", type=int, required=True)
    clean.add_argument("--t", type=int, required=True)
    clean.add_argument("--in", dest="infile", required=True)
    clean.add_argument("--trace", required=True)
    clean.add_argument(
        "--epsilon",
        type=float,
        help="also report the density-conditional step/size bounds",
    )
    clean.set_defaults(func=_cmd_clean)

    extract = sub.add_parser("extract", help="full / low-intersection kernels")
    extract.add_argument("--mode", choices=["full", "linear"], required=True)
    extract.add_argument("--param", type=int, required=True)
    extract.add_argument("--in", dest="infile", required=True)
    extract.add_argument("--out", required=True)
    extract.add_argument(
        "--format", choices=["edgelist", "json"], default="edgelist"
    )
    extract.set_defaults(func=_cmd_extract)

    turan = sub.add_parser("turan", help="exact or lower-bound extremal values")
    turan.add_argument("--mode", choices=["hypergraph", "triangles"], required=True)
    turan.add_argument("--n", type=int, required=True)
    turan.add_argument("--pattern", required=True)
    turan.add_argument("--lower-only", dest="lower_only", action="store_true")
    turan.add_argument("--out")
    turan.set_defaults(func=_cmd_turan)

    closeness = sub.add_parser("closeness", help="near-extremal structure reports")
    closeness.add_argument("--kind", choices=["graph", "3graph"], required=True)
    closeness.add_argument("--t", type=int, required=True)
    closeness.add_argument("--delta", type=float, required=True)
    closeness.add_argument("--in", dest="infile", required=True)
    closeness.add_argument("--out")
    closeness.set_defaults(func=_cmd_closeness)

    anti = sub.add_parser("anti-ramsey", help="rainbow bound certificates")
    anti.add_argument("--tree", required=True)
    anti.add_argument("--aug", required=True)
    anti.add_argument("--n", type=int, required=True)
    anti.add_argument("--out")
    anti.set_defaults(func=_cmd_anti_ramsey)

    verify = sub.add_parser("verify", help="batch verification suites")
    verify.add_argument("--suite", choices=sorted(lab._SUITES), required=True)
    verify.add_argument("--max-n", type=int, required=True, dest="max_n")
    verify.add_argument("--out")
    verify.set_defaults(func=_cmd_verify)

    check = sub.add_parser("check", help="replay-validate an emitted certificate")
    check.add_argument("--certificate", required=True)
    check.add_argument("--host", required=True)
    check.set_defaults(func=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        args.cfg = _config_from_args(args)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except MemoryError:
        print("budget exceeded: out of memory", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
