import argparse
import itertools
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import pytest

from crosscut import cli
from crosscut.builders import (
    expansion,
    lower_bound_coloring,
    s_construction,
    s_graph,
    sbi_construction,
    triangle_blowup,
    triangle_system,
)
from crosscut.cleaning import cleaning_algorithm, extract_d_full, extract_linear_subgraph
from crosscut.cli import build_parser, main
from crosscut.config import RunConfig
from crosscut.fileio import (
    dumps_coloring,
    load_coloring,
    load_structure,
    load_triple_system,
    save_structure,
)
from crosscut.structures import Graph, TripleSystem
from crosscut.trees import path_graph


@pytest.fixture()
def files(tmp_path):
    paths = {}
    save_structure(path_graph(3), tmp_path / "p3.edges")
    save_structure(path_graph(5), tmp_path / "p5.edges")
    save_structure(path_graph(2), tmp_path / "p2.edges")
    save_structure(s_construction(10, 2), tmp_path / "s_10_2.edges")
    save_structure(expansion(path_graph(3)), tmp_path / "p3_expansion.edges")
    (tmp_path / "chi.txt").write_text(
        dumps_coloring(lower_bound_coloring(s_construction(8, 1)))
    )
    paths["dir"] = tmp_path
    return tmp_path


def test_python_m_crosscut_runs_the_cli(tmp_path):
    # a checkout runs the CLI without installing: PYTHONPATH=src python -m crosscut
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "crosscut", *argv], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)

    shown = run("--help")
    assert shown.returncode == 0 and shown.stdout.startswith("usage: crosscut")
    wrong = run("no-such-command")
    assert wrong.returncode == 2 and "invalid choice" in wrong.stderr


def test_tree_stats(files, capsys):
    assert main(["tree", "stats", str(files / "p3.edges")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["sigma"] == 2
    assert data["strongly_edge_critical"] is True


def test_tree_stats_on_a_long_path(files, capsys):
    # the covering number takes a leaf's neighbour, so this path finishes
    save_structure(path_graph(60), files / "p60.edges")
    assert main(["tree", "stats", str(files / "p60.edges")]) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["sigma"], data["tau"], data["tau_ind"]) == (30, 30, 30)


def test_tree_enum(files, capsys):
    assert main(["tree", "enum", "--n", "5", "--out", str(files / "trees")]) == 0
    written = sorted((files / "trees").glob("*.edges"))
    assert len(written) == 3


def test_construct_and_contains_negative(files):
    # a long path does not expand into the two-apex system
    code = main(
        [
            "contains",
            "--pattern-kind",
            "expansion",
            "--pattern",
            str(files / "p5.edges"),
            "--host",
            str(files / "s_10_2.edges"),
        ]
    )
    assert code == 3


def test_contains_positive_with_certificate(files, capsys):
    cert = files / "cert.json"
    code = main(
        [
            "contains",
            "--pattern-kind",
            "expansion",
            "--pattern",
            str(files / "p3.edges"),
            "--host",
            str(files / "p3_expansion.edges"),
            "--certificate",
            str(cert),
        ]
    )
    assert code == 0
    check = main(
        ["check", "--certificate", str(cert), "--host", str(files / "p3_expansion.edges")]
    )
    assert check == 0


def test_certificate_check_catches_wrong_host(files):
    cert = files / "cert.json"
    main(
        [
            "contains",
            "--pattern-kind",
            "expansion",
            "--pattern",
            str(files / "p3.edges"),
            "--host",
            str(files / "p3_expansion.edges"),
            "--certificate",
            str(cert),
        ]
    )
    assert (
        main(
            ["check", "--certificate", str(cert), "--host", str(files / "s_10_2.edges")]
        )
        == 3
    )


def test_construct_writes_files(files):
    out = files / "s61.edges"
    assert main(["construct", "s", "--n", "6", "--t", "1", "--out", str(out)]) == 0
    assert out.read_text().startswith("kind=3graph n=6")


@pytest.mark.parametrize(
    "argv, missing",
    [
        (["construct", "s", "--n", "12"], "--t"),
        (["construct", "sbi-plus", "--t", "1"], "--n"),
        (["construct", "sbi"], "--n and --t"),
        (["construct", "expansion"], "--in"),
        (["construct", "kg", "--n", "5", "--t", "1"], "--in"),
    ],
)
def test_construct_missing_option_is_a_usage_error(files, capsys, argv, missing):
    assert main(argv + ["--out", str(files / "x.edges")]) == 2
    assert f"needs {missing}" in capsys.readouterr().err


def test_rainbow_negative(files):
    code = main(
        [
            "rainbow",
            "--coloring",
            str(files / "chi.txt"),
            "--pattern",
            str(files / "p2.edges"),
        ]
    )
    assert code == 0  # a cherry fits rainbow in this coloring
    c4 = files / "c4.edges"
    c4.write_text("kind=graph n=4\n0 1\n1 2\n2 3\n0 3\n")
    assert (
        main(
            [
                "rainbow",
                "--coloring",
                str(files / "chi.txt"),
                "--pattern",
                str(c4),
            ]
        )
        == 3
    )


def test_rainbow_certificate_check(files):
    import itertools

    # an all-distinct coloring on 6 vertices admits a rainbow cherry
    lines = ["n=6"] + [
        f"{a} {b} {c} {i}"
        for i, (a, b, c) in enumerate(itertools.combinations(range(6), 3))
    ]
    chi_path = files / "alldistinct.txt"
    chi_path.write_text("\n".join(lines) + "\n")
    cert = files / "rainbow.json"
    assert (
        main(
            [
                "rainbow",
                "--coloring",
                str(chi_path),
                "--pattern",
                str(files / "p2.edges"),
                "--certificate",
                str(cert),
            ]
        )
        == 0
    )
    assert main(["check", "--certificate", str(cert), "--host", str(chi_path)]) == 0
    # under a constant coloring the recorded colors cannot stay distinct
    constant = files / "constant.txt"
    constant.write_text(
        "\n".join(
            ["n=6"]
            + [f"{a} {b} {c} 0" for a, b, c in itertools.combinations(range(6), 3)]
        )
        + "\n"
    )
    assert main(["check", "--certificate", str(cert), "--host", str(constant)]) == 3


def test_clean_trace_and_check(files, capsys):
    host = files / "s121.edges"
    save_structure(s_construction(12, 1), host)
    trace = files / "trace.json"
    assert main(["clean", "--k", "3", "--t", "1", "--in", str(host), "--trace", str(trace)]) == 0
    data = json.loads(trace.read_text())
    assert data["q"] == 0 and data["superfull"] is True
    assert main(["check", "--certificate", str(trace), "--host", str(host)]) == 0


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.5", "1e308"])
def test_clean_rejects_epsilon_outside_its_domain(files, capsys, epsilon):
    # NaN and infinities are not JSON, and 1e308 * n^2 overflows to one:
    # input error before the trace is written
    host = files / "s121.edges"
    save_structure(s_construction(12, 1), host)
    trace = files / "trace.json"
    argv = ["clean", "--k", "3", "--t", "1", "--in", str(host), "--trace", str(trace)]
    assert main(argv + ["--epsilon", epsilon]) == 5
    assert "epsilon" in capsys.readouterr().err
    assert not trace.exists()
    assert main(argv + ["--epsilon", "0"]) == 0
    assert json.loads(trace.read_text())["quantitative"]["steps"]["bound"] == 0


def _edit_nothing(data):
    pass


def _set_steps_bound(data):
    data["quantitative"]["steps"]["bound"] = -999


def _garble_quantitative(data):
    data["quantitative"] = "garbage"


def _add_top_level_key(data):
    data["extra"] = 1


def _boolean_epsilon(data):
    data["quantitative"]["epsilon"] = True


def _negative_epsilon(data):
    data["quantitative"]["epsilon"] = -0.5


def _huge_epsilon(data):
    data["quantitative"]["epsilon"] = 10**400


@pytest.mark.parametrize(
    "epsilon, edit, code",
    [
        (None, _edit_nothing, 0),
        ("0.1", _edit_nothing, 0),
        ("0", _edit_nothing, 0),
        ("0.1", _set_steps_bound, 3),
        ("0.1", _garble_quantitative, 3),
        ("0.1", _add_top_level_key, 3),
        (None, _add_top_level_key, 3),
        ("0.1", _boolean_epsilon, 3),
        ("0.1", _negative_epsilon, 5),
        ("0.1", _huge_epsilon, 5),
    ],
)
def test_check_compares_the_whole_cleaning_trace(files, capsys, epsilon, edit, code):
    # every field but generated_at is replayed, the quantitative block at its
    # own epsilon; an epsilon that clean --epsilon rejects is an input error
    host = files / "s121.edges"
    save_structure(s_construction(12, 1), host)
    trace = files / "trace.json"
    argv = ["clean", "--k", "3", "--t", "1", "--in", str(host), "--trace", str(trace)]
    assert main(argv + (["--epsilon", epsilon] if epsilon else [])) == 0
    data = json.loads(trace.read_text())
    edit(data)
    trace.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["check", "--certificate", str(trace), "--host", str(host)]) == code
    if code != 5:
        assert json.loads(capsys.readouterr().out)["valid"] is (code == 0)


# the canonical certificate of path_graph(3) in its own expansion
P3_EMBEDDING = (
    '{"kind": "embedding", "embedding": {"host_kind": "3graph", '
    '"pattern": {"n": 4, "edges": [[0, 1], [1, 2], [2, 3]]}, '
    '"core_map": [0, 1, 2, 3], "expansion_map": [{"edge": [0, 1], "vertex": 4}, '
    '{"edge": [1, 2], "vertex": 5}, {"edge": [2, 3], "vertex": 6}]}}'
)

# the trace of k = 1, t = 0 on the expansion of path_graph(3), with k and t
# written as JSON booleans (which Python reads as 1 and 0)
BOOLEAN_TRACE = json.dumps(
    {
        "kind": "cleaning-trace",
        **cleaning_algorithm(expansion(path_graph(3)), 1, 0).to_json(),
        "k": True,
        "t": False,
    }
)


@pytest.mark.parametrize(
    "text, code",
    [
        ('{"kind": "cleaning-trace"}', 5),
        ('{"kind": "embedding", "embedding": {}}', 5),
        ("not json", 5),
        ('{"kind": "cleaning-trace", "k": 3, "t": 1}', 3),
        ("[1, 2]", 5),
        (P3_EMBEDDING.replace('"3graph"', '"graph"'), 5),
        (P3_EMBEDDING.replace('"3graph"', '"4graph"'), 5),
        (P3_EMBEDDING.replace('"core_map": [0', '"core_map": ["0"'), 5),
        (P3_EMBEDDING.replace('"vertex": 4', '"vertex": 4.0'), 5),
        (P3_EMBEDDING.replace('[2, 3]]', '[2, 3, 4]]'), 5),
        (P3_EMBEDDING, 0),
        (BOOLEAN_TRACE, 5),
        (BOOLEAN_TRACE.replace("true", "1").replace("false", "0"), 0),
    ],
)
def test_check_malformed_certificate(files, capsys, text, code):
    cert = files / "bad_cert.json"
    cert.write_text(text)
    host = files / "p3_expansion.edges"
    assert main(["check", "--certificate", str(cert), "--host", str(host)]) == code
    if code == 3:
        assert json.loads(capsys.readouterr().out)["valid"] is False


def test_extract_mistyped_json_host_exits_5(files):
    host = files / "x.edges"
    host.write_text('{"kind":"3graph","n":5,"edges":[[0,1,"2"]]}')
    out = files / "out.edges"
    code = main(["extract", "--mode", "linear", "--param", "2", "--in", str(host), "--out", str(out)])
    assert code == 5


# a rainbow cherry under the lower-bound coloring of S(8, 1) (files["chi.txt"])
CHERRY_RAINBOW = (
    '{"kind": "rainbow", "embedding": {"host_kind": "3graph", '
    '"pattern": {"n": 3, "edges": [[0, 1], [1, 2]]}, "core_map": [1, 0, 2], '
    '"expansion_map": [{"edge": [0, 1], "vertex": 3}, {"edge": [1, 2], "vertex": 4}]}, '
    '"colors": [1, 7]}'
)


@pytest.mark.parametrize(
    "text, code",
    [
        (CHERRY_RAINBOW, 0),
        (CHERRY_RAINBOW.replace("[1, 7]", "null"), 5),
        (CHERRY_RAINBOW.replace("[1, 7]", '[1, "7"]'), 5),
        (CHERRY_RAINBOW.replace(', "colors": [1, 7]', ""), 5),
        (CHERRY_RAINBOW.replace('"3graph"', '"graph"'), 5),
        (CHERRY_RAINBOW.replace("[1, 7]", "[1, 8]"), 3),
        (CHERRY_RAINBOW.replace("[1, 0, 2]", "[1, 0, 1]"), 3),
        (CHERRY_RAINBOW.replace('"vertex": 4', '"vertex": 9'), 3),
        (CHERRY_RAINBOW.replace('"edge": [1, 2]', '"edge": [1, 5]'), 3),
    ],
)
def test_check_malformed_rainbow_certificate(files, text, code):
    cert = files / "bad_rainbow.json"
    cert.write_text(text)
    host = files / "chi.txt"
    assert main(["check", "--certificate", str(cert), "--host", str(host)]) == code


def test_turan_lower_only_is_cached_apart(files, capsys, tmp_path):
    args = [
        "--cache-dir",
        str(tmp_path / "cache"),
        "turan",
        "--mode",
        "hypergraph",
        "--n",
        "5",
        "--pattern",
        str(files / "p2.edges"),
    ]
    assert main(args + ["--lower-only"]) == 0
    assert json.loads(capsys.readouterr().out)["exhaustive"] is False
    assert main(args) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["exhaustive"] is True
    assert result["value"] == 4


def test_turan_cli_and_cache(files, capsys, tmp_path):
    cache = tmp_path / "cache"
    args = [
        "--cache-dir",
        str(cache),
        "turan",
        "--mode",
        "hypergraph",
        "--n",
        "5",
        "--pattern",
        str(files / "p2.edges"),
    ]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    assert first["value"] == 4
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("generated_at")
    second.pop("generated_at")
    assert first == second
    assert list(cache.glob("turan-*.json"))


@pytest.mark.parametrize("mode", ["hypergraph", "triangles"])
def test_turan_cache_hit_reports_the_requested_pattern(tmp_path, capsys, mode):
    """Isomorphic patterns share a cache file, yet each run prints what an
    uncached run prints, its own pattern included."""
    reports = []
    for name, edges in [("p1", [(0, 1), (1, 2)]), ("p2", [(0, 2), (1, 2)])]:
        save_structure(Graph(3, edges), tmp_path / f"{name}.edges")
        for cache in (["--cache-dir", str(tmp_path / "cache")], []):
            args = ["turan", "--mode", mode, "--n", "5", "--pattern", str(tmp_path / f"{name}.edges")]
            assert main(cache + args) == 0
            report = json.loads(capsys.readouterr().out)
            report.pop("generated_at")
            reports.append(report)
    assert reports[0] == reports[1]
    assert reports[2] == reports[3]
    assert reports[2]["pattern"] == [[0, 2], [1, 2]]
    assert len(list((tmp_path / "cache").glob("turan-*.json"))) == 1


@pytest.mark.parametrize("corrupt", [lambda text: text[: len(text) // 2], lambda text: "[]"])
def test_turan_corrupted_cache_is_recomputed(files, capsys, tmp_path, corrupt):
    cache = tmp_path / "cache"
    args = ["--cache-dir", str(cache), "turan", "--mode", "hypergraph", "--n", "5",
            "--pattern", str(files / "p2.edges")]
    assert main(args) == 0
    first = json.loads(capsys.readouterr().out)
    [path] = cache.glob("turan-*.json")
    good = path.read_text()
    path.write_text(corrupt(good))
    assert main(args) == 0
    second = json.loads(capsys.readouterr().out)
    first.pop("generated_at")
    second.pop("generated_at")
    assert first == second
    assert path.read_text() == good


@pytest.mark.parametrize(
    "argv",
    [
        ["closeness", "--kind", "3graph", "--t", "-1", "--delta", "0.1", "--in", "s_10_2.edges"],
        ["closeness", "--kind", "graph", "--t", "-1", "--delta", "0.1", "--in", "p3.edges"],
        ["turan", "--mode", "hypergraph", "--n", "-2", "--pattern", "p3.edges"],
        ["turan", "--mode", "triangles", "--n", "-2", "--pattern", "p3.edges", "--lower-only"],
    ],
)
def test_negative_sizes_exit_5(files, argv):
    argv = [str(files / a) if a.endswith(".edges") else a for a in argv]
    assert main(argv) == 5


def _certificate_with_pattern_n(files, n):
    cert = files / "cert.json"
    main(["contains", "--pattern-kind", "expansion", "--pattern", str(files / "p3.edges"),
          "--host", str(files / "p3_expansion.edges"), "--certificate", str(cert)])
    data = json.loads(cert.read_text())
    data["embedding"]["pattern"]["n"] = n
    cert.write_text(json.dumps(data))
    return cert


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--certificate", "CERT", "--host", "p3_expansion.edges"],
        ["construct", "s", "--n", "BIG", "--t", "1", "--out", "out.edges"],
        ["construct", "sbi", "--n", "BIG", "--t", "1", "--out", "out.edges"],
        ["anti-ramsey", "--tree", "p3.edges", "--aug", "c4.edges", "--n", "BIG"],
    ],
    ids=["check", "construct-s", "construct-sbi", "anti-ramsey"],
)
def test_vertex_counts_past_the_limit_exit_5(files, capsys, argv):
    # every path that builds a structure meets the constructors' limit of 10^6
    (files / "c4.edges").write_text("kind=graph n=4\n0 1\n1 2\n2 3\n0 3\n")
    cert = _certificate_with_pattern_n(files, 2**70)
    names = {"CERT": str(cert), "BIG": str(2**70)}
    argv = [names.get(a, str(files / a) if a.endswith(".edges") else a) for a in argv]
    capsys.readouterr()
    assert main(argv) == 5
    assert capsys.readouterr().err.startswith("input error:")


def test_out_of_memory_exits_4(files, capsys, monkeypatch):
    def exhausted(n, t):
        raise MemoryError

    monkeypatch.setattr(cli, "s_construction", exhausted)
    argv = ["construct", "s", "--n", "100000", "--t", "1", "--out", str(files / "s.edges")]
    assert main(argv) == 4
    assert capsys.readouterr().err == "budget exceeded: out of memory\n"


@pytest.mark.parametrize(
    "mode, value",
    [
        ("hypergraph", math.comb(2**70 - 1, 2)),
        ("triangles", (2**70 - 1) // 2 * (2**70 // 2)),
    ],
)
def test_turan_lower_only_takes_any_vertex_count(files, capsys, mode, value):
    # the lower bound is a closed form, so no structure is built
    argv = ["turan", "--mode", mode, "--n", str(2**70), "--pattern",
            str(files / "p3.edges"), "--lower-only"]
    assert main(argv) == 0
    result = json.loads(capsys.readouterr().out)
    assert (result["n"], result["value"], result["exhaustive"]) == (2**70, value, False)


def test_turan_construction_check_runs_no_search(files, capsys):
    # the triangle side decides its construction by a rule, so a small node
    # budget does not stop a lower-only run
    (files / "t.edges").write_text("kind=graph n=8\n0 1\n0 5\n0 7\n1 2\n1 4\n2 3\n5 6\n")
    argv = ["--max-nodes", "1000", "turan", "--mode", "triangles", "--lower-only",
            "--n", "16", "--pattern", str(files / "t.edges")]
    assert main(argv) == 0
    assert isinstance(json.loads(capsys.readouterr().out)["construction_free"], bool)


@pytest.mark.parametrize("mode", ["hypergraph", "triangles"])
@pytest.mark.parametrize("output", ["json", "csv", "cache"])
def test_turan_value_too_long_to_print_is_an_input_error(files, capsys, tmp_path, mode, output):
    # the value grows like n^2: with 2,100 digits in n it prints, with
    # 2,200 it passes Python's 4,300-digit limit for turning an int into text
    cache = tmp_path / "cache"
    options = {"json": [], "csv": ["--output-format", "csv"], "cache": ["--cache-dir", str(cache)]}
    argv = options[output] + ["turan", "--mode", mode, "--pattern", str(files / "p3.edges"), "--lower-only"]
    assert main(argv + ["--n", "9" * 2100]) == 0
    written = sorted(cache.iterdir()) if cache.exists() else []
    capsys.readouterr()
    assert main(argv + ["--n", "9" * 2200]) == 5
    assert capsys.readouterr().err == (
        f"input error: a value has more than {sys.get_int_max_str_digits()} digits, "
        "the limit for printing an integer\n"
    )
    assert (sorted(cache.iterdir()) if cache.exists() else []) == written


def test_verify_cli(files, capsys):
    assert main(["verify", "--suite", "facts", "--max-n", "6"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_pass"] is True


def test_closeness_cli(files):
    host = files / "s202.edges"
    save_structure(s_construction(20, 2), host)
    assert (
        main(
            [
                "closeness",
                "--kind",
                "3graph",
                "--t",
                "2",
                "--delta",
                "0.1",
                "--in",
                str(host),
            ]
        )
        == 0
    )


def test_closeness_cli_without_an_accepted_set_exits_3(files, capsys):
    host = files / "empty.edges"
    save_structure(TripleSystem(12, []), host)
    argv = ["closeness", "--kind", "3graph", "--t", "1", "--delta", "0.1", "--in", str(host)]
    assert main(argv) == 3
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "mode, param, fmt",
    [("full", 1, "edgelist"), ("linear", 2, "json"), ("linear", 1, "edgelist")],
)
def test_extract_writes_the_library_kernel(files, mode, param, fmt):
    host, out = files / "s81.edges", files / "kernel.out"
    system = s_construction(8, 1)
    save_structure(system, host)
    argv = ["extract", "--mode", mode, "--param", str(param), "--in", str(host), "--out", str(out)]
    assert main(argv + ["--format", fmt]) == 0
    assert out.read_text().lstrip().startswith("{") == (fmt == "json")
    kernel = extract_d_full if mode == "full" else extract_linear_subgraph
    assert load_triple_system(out) == kernel(system, param)


def test_coloring_writes_the_lower_bound_coloring(files):
    base, out = files / "s81.edges", files / "chi.out"
    save_structure(s_construction(8, 1), base)
    assert main(["coloring", "--base", str(base), "--out", str(out)]) == 0
    expected = lower_bound_coloring(s_construction(8, 1))
    written = load_coloring(out)
    assert (written.n, written.color_of) == (expected.n, expected.color_of)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["expansion", "--in", "p3.edges"], lambda: expansion(path_graph(3))),
        (["blowup", "--in", "p3.edges"], lambda: triangle_blowup(path_graph(3))),
        (["kg", "--in", "s91.edges"], lambda: triangle_system(s_graph(9, 1))),
        (["sbi-plus", "--n", "9", "--t", "1"], lambda: sbi_construction(9, 1, plus=True)),
    ],
    ids=["expansion", "blowup", "kg", "sbi-plus"],
)
def test_construct_writes_the_builder_output(files, argv, expected):
    save_structure(s_graph(9, 1), files / "s91.edges")
    argv = [str(files / a) if a.endswith(".edges") else a for a in argv]
    out = files / "built.edges"
    assert main(["construct", *argv, "--out", str(out)]) == 0
    assert load_structure(out) == expected()


def test_contains_blowup_certificate_checks_against_the_graph(files):
    host, cert = files / "s91.edges", files / "blowup.json"
    save_structure(s_graph(9, 1), host)
    argv = ["contains", "--pattern-kind", "blowup", "--host", str(host)]
    assert main(argv + ["--pattern", str(files / "p2.edges"), "--certificate", str(cert)]) == 0
    assert json.loads(cert.read_text())["embedding"]["host_kind"] == "graph"
    assert main(["check", "--certificate", str(cert), "--host", str(host)]) == 0
    # s_graph(9, 1) is the construction that avoids blowups of sigma = 2 trees
    assert main(argv + ["--pattern", str(files / "p3.edges")]) == 3


def test_anti_ramsey_cli(files, capsys):
    c4 = files / "c4.edges"
    c4.write_text("kind=graph n=4\n0 1\n1 2\n2 3\n0 3\n")
    code = main(
        [
            "anti-ramsey",
            "--tree",
            str(files / "p3.edges"),
            "--aug",
            str(c4),
            "--n",
            "8",
        ]
    )
    assert code == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lower"] == 23 and data["upper_formula"] == 23
    argv = ["anti-ramsey", "--tree", str(files / "p3.edges"), "--aug", str(c4), "--n"]
    start = time.perf_counter()
    assert main(argv + ["200"]) == 0
    assert time.perf_counter() - start < 1  # no coloring is built
    data = json.loads(capsys.readouterr().out)
    assert (data["colors"], data["rainbow_free"]) == (19702, True)
    assert main(argv + ["1000001"]) == 5
    assert capsys.readouterr().err == "input error: vertex count 1000001 exceeds the limit 1000000\n"


def test_usage_and_input_errors(files, tmp_path):
    assert main(["contains", "--pattern-kind", "bogus"]) == 2
    bad = tmp_path / "bad.edges"
    bad.write_text("kind=graph n=2\n0 5\n")
    assert main(["tree", "stats", str(bad)]) == 5


@pytest.mark.parametrize(
    "header", ["kind=graph n=3 n=5", "kind=graph n=3 junk", "kind=graph n=3 kind=3graph"]
)
def test_header_is_one_kind_and_one_n(tmp_path, capsys, header):
    bad = tmp_path / "bad.edges"
    bad.write_text(f"{header}\n0 1\n")
    assert main(["tree", "stats", str(bad)]) == 5
    assert "header must be 'kind=graph|3graph n=<N>'" in capsys.readouterr().err


def test_budget_exit_code(files):
    assert (
        main(
            [
                "turan",
                "--mode",
                "hypergraph",
                "--n",
                "9",
                "--pattern",
                str(files / "p2.edges"),
            ]
        )
        == 4
    )


def test_deterministic_outputs_byte_identical(files, capsys):
    argv = ["tree", "stats", str(files / "p3.edges")]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    strip = lambda s: "\n".join(
        l for l in s.splitlines() if '"generated_at"' not in l
    )
    assert strip(first) == strip(second)


def test_config_file(files, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("max_nodes = 1000000\nwall_clock_s = 60\n# comment\n")
    assert main(["--config", str(cfg), "tree", "stats", str(files / "p3.edges")]) == 0
    verify = ["--config", str(cfg), "verify", "--suite", "facts", "--max-n", "4"]
    assert main(verify) == 0
    for line in ("workers = 2", "seed = 7", "deterministic = true", "output_format = edgelist"):
        cfg.write_text(line + "\n")
        assert main(verify) == 5


def test_cache_dir_from_environment_and_flag(files, capsys, tmp_path, monkeypatch):
    args = ["turan", "--mode", "hypergraph", "--n", "5", "--pattern", str(files / "p2.edges")]
    monkeypatch.setenv("CROSSCUT_CACHE_DIR", str(tmp_path / "env"))
    assert main(args) == 0
    assert len(list((tmp_path / "env").glob("turan-*.json"))) == 1
    assert main(["--cache-dir", str(tmp_path / "flag")] + args) == 0
    assert len(list((tmp_path / "flag").glob("turan-*.json"))) == 1
    assert len(list((tmp_path / "env").glob("turan-*.json"))) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags, config, code",
    [
        (["--max-nodes", "-5"], "", 5),
        (["--max-nodes", "0"], "", 5),
        ([], "max_nodes = 0", 5),
        ([], "max_nodes = -3", 5),
        ([], "wall_clock_s = -1", 5),
        ([], "wall_clock_s = 0", 5),
        # a flag is checked even when it overrides a valid config value
        (["--max-nodes", "0"], "max_nodes = 1000", 5),
        (["--max-nodes", "1"], "", 4),
        ([], "max_nodes = none\nwall_clock_s = none", 0),
        (["--max-nodes", "1000000"], "wall_clock_s = 60", 0),
    ],
    ids=[
        "flag-negative", "flag-zero", "file-zero", "file-negative", "file-clock-negative",
        "file-clock-zero", "flag-zero-over-file", "flag-one-runs-out", "file-none", "positive",
    ],
)
def test_budgets_must_be_positive(files, tmp_path, capsys, flags, config, code):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config + "\n")
    argv = ["--config", str(cfg)] + flags + [
        "turan", "--mode", "hypergraph", "--n", "5", "--pattern", str(files / "p2.edges")
    ]
    assert main(argv) == code
    capsys.readouterr()


def test_non_positive_budget_message(files, capsys):
    argv = ["--max-nodes", "-1", "turan", "--mode", "hypergraph", "--n", "5",
            "--pattern", str(files / "p2.edges")]
    assert main(argv) == 5
    assert "max_nodes must be positive, got -1" in capsys.readouterr().err


def test_config_file_is_validated_for_every_subcommand(files, tmp_path):
    cfg = tmp_path / "bad.cfg"
    p2 = str(files / "p2.edges")
    commands = [
        ["tree", "stats", p2],
        ["construct", "s", "--n", "6", "--t", "1", "--out", str(tmp_path / "s.edges")],
        ["clean", "--k", "3", "--t", "1", "--in", str(files / "p3_expansion.edges"),
         "--trace", str(tmp_path / "trace.json")],
        ["anti-ramsey", "--tree", p2, "--aug", p2, "--n", "6"],
    ]
    for line in ("bogus = 1", "max_nodes = many", "wall_clock_s = soon"):
        cfg.write_text(line + "\n")
        for argv in commands:
            assert main(["--config", str(cfg)] + argv) == 5, (line, argv)
    assert main(["--config", str(tmp_path / "missing.cfg"), "tree", "stats", p2]) == 5


def test_csv_output(files, capsys):
    assert (
        main(
            [
                "--output-format",
                "csv",
                "verify",
                "--suite",
                "cycles",
                "--max-n",
                "6",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].split(",") == ["details", "name", "status"]
    assert len(lines) == 5
    assert (
        main(
            [
                "--output-format",
                "csv",
                "turan",
                "--mode",
                "hypergraph",
                "--n",
                "5",
                "--pattern",
                str(files / "p2.edges"),
            ]
        )
        == 0
    )
    table = capsys.readouterr().out.strip().splitlines()
    assert "value" in table[0].split(",")
    assert len(table) == 2


def test_readme_global_options_match_the_parser_and_run_config():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    [paragraph] = re.findall(r"^Global options:.*?(?=\n\n)", readme, re.S | re.M)
    names = set(re.findall(r"`([^`]*)`", paragraph))
    flags = {name.split()[0] for name in names if name.startswith("--")}
    parser_flags = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
        if option.startswith("--") and option != "--help"
    }
    assert flags == parser_flags
    # the other lowercase names are config keys, apart from values and commands
    keys = {n for n in names if re.fullmatch(r"[a-z_]+", n)} - {"json", "csv", "verify", "turan"}
    assert keys == {f.name for f in fields(RunConfig)}


def test_readme_command_lines_parse(capsys):
    # each line of the Command line block, continuations joined and the
    # comment dropped, is accepted by the parser; together they use every command
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    [block] = re.findall(r"^## Command line\n\n```sh\n(.*?)^```", readme, re.S | re.M)
    parser = build_parser()
    commands = set()
    for line in block.replace("\\\n", " ").splitlines():
        argv = shlex.split(line, comments=True)
        assert argv[0] == "crosscut", line
        commands.add(parser.parse_args(argv[1:]).command)
    [subparsers] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert commands == set(subparsers.choices)


def test_readme_library_example_prints_its_comments(capsys):
    # each print's "# value: remark" comment gives the line it prints
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    [block] = re.findall(r"^## Library example\n\n```python\n(.*?)^```", readme, re.S | re.M)
    expected = [
        line.split("#", 1)[1].split(":")[0].strip()
        for line in block.splitlines()
        if line.startswith("print(")
    ]
    assert expected == ["None", "0 True"]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_report_writer_matches_json_dumps_on_every_report_kind(files, tmp_path, capsys, monkeypatch):
    # every _emit call site runs once; each report it writes is the text
    # json.dumps(..., sort_keys=True, indent=2) gives
    write, reports = cli._json_text, []
    monkeypatch.setattr(cli, "_json_text", lambda value, indent="": (
        reports.append(value) if not indent else None) or write(value, indent))
    p2, p3, host = (str(files / name) for name in ("p2.edges", "p3.edges", "s_10_2.edges"))
    (tmp_path / "c4.edges").write_text("kind=graph n=4\n0 1\n1 2\n2 3\n0 3\n")
    save_structure(TripleSystem(10, []), tmp_path / "empty.edges")
    lines = [f"{a} {b} {c} {i}" for i, (a, b, c) in enumerate(itertools.combinations(range(6), 3))]
    (tmp_path / "distinct.txt").write_text("\n".join(["n=6", *lines]) + "\n")
    cert, rainbow, trace = (str(tmp_path / name) for name in ("emb.json", "rb.json", "trace.json"))
    runs = [
        ["tree", "stats", p3],
        ["tree", "enum", "--n", "5", "--out", str(tmp_path / "trees")],
        ["contains", "--pattern-kind", "expansion", "--pattern", p3, "--host", host, "--certificate", cert],
        ["check", "--certificate", cert, "--host", host],
        ["check", "--certificate", cert, "--host", str(tmp_path / "empty.edges")],
        ["rainbow", "--coloring", str(tmp_path / "distinct.txt"), "--pattern", p2, "--certificate", rainbow],
        ["clean", "--k", "3", "--t", "2", "--in", host, "--trace", trace, "--epsilon", "0.01"],
        ["check", "--certificate", trace, "--host", host],
        ["turan", "--mode", "hypergraph", "--n", "5", "--pattern", p3],
        ["closeness", "--kind", "3graph", "--t", "2", "--delta", "0.2", "--in", host],
        ["anti-ramsey", "--tree", p3, "--aug", str(tmp_path / "c4.edges"), "--n", "8"],
        ["verify", "--suite", "facts", "--max-n", "4"],
    ]
    assert [main(argv) for argv in runs] == [0] * 4 + [3] + [0] * 7
    capsys.readouterr()
    assert len(reports) == len(runs)
    for report in reports:
        assert write(report) == json.dumps(report, sort_keys=True, indent=2)
    assert reports[4]["problems"] and "quantitative" in reports[6]


def _random_payload(rng, depth=0):
    scalars = [
        0, -1, 7, 10**40, -(10**25), True, False, None, 0.0, -0.0, 1e-7, 1.5e300, 0.1,
        "", "plain", "é ü 字 \U0001f600", "tab\tnew\nline\x00\x1f\"q\"\\", " ",
    ]
    if depth >= 4 or rng.random() < 0.4:
        return rng.choice(scalars)
    size = rng.choice([0, 0, 1, 2, 3, 5])
    kind = rng.choice(["list", "tuple", "dict", "dict"])
    if kind == "dict":
        keys = rng.sample(["a", "B", "é", "key\n", "\x7f", "10", "2", "", "z z"], min(size, 9))
        return {key: _random_payload(rng, depth + 1) for key in keys}
    items = [_random_payload(rng, depth + 1) for _ in range(size)]
    return items if kind == "list" else tuple(items)


def test_report_writer_matches_json_dumps_on_random_payloads():
    rng = random.Random(36)
    for _ in range(2000):
        payload = _random_payload(rng)
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)
    # non-str keys and containers of a subclass go to json.dumps whole
    for payload in ({1: [2], 0: {}}, {"k": {3: (4,)}}, [{"a": [[]]}, ({},)], [True, [False]]):
        assert cli._json_text(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_parser_is_built_once_per_process(files, capsys):
    build_parser.cache_clear()
    p3 = str(files / "p3.edges")
    for argv in (["tree", "stats", p3], ["no-such-command"], ["--help"], ["tree", "stats", p3]):
        main(argv)
    capsys.readouterr()
    assert build_parser.cache_info().misses == 1
    assert build_parser().parse_args(["tree", "stats", p3]).func is cli._cmd_tree_stats


def test_importing_the_cli_builds_no_parser():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import crosscut.cli as cli; print(cli.build_parser.cache_info().misses)"
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "0\n")
