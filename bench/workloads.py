"""The benchmark's workloads: seeded inputs, operations and their checks.

Each builder receives the freshly imported crosscut modules, the workload
seed and a scratch directory, and returns the list of operations one pass
runs.  An operation calls the program only through module attributes
looked up at call time (``cc.embed.find_expansion``), so the traced run's
wrappers see every call.  Building hosts and patterns is set-up; only
``Op.run`` is timed.  ``Op.check`` compares the output against the oracles
in ``checks.py`` and returns the problems it found.
"""

from __future__ import annotations

import functools
import hashlib
import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks

EXPECTED_FILE = Path(__file__).parent / "expected.json"


@functools.cache
def expected() -> dict:
    """Recorded answers (written by make_expected.py), read on first use."""
    return json.loads(EXPECTED_FILE.read_text())


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


def _relabel_graph(cc, graph, rng: random.Random):
    perm = list(range(graph.n))
    rng.shuffle(perm)
    return cc.structures.Graph(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


# ---------------------------------------------------------------------------
# apex-sweep


def apex_sweep(cc, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """Every tree on at most 6 vertices: one operation profiles the tree
    with analyze_tree and decides its expansion in S(n, sigma-1) and
    S(n, sigma) for n = 2|V|-1 and 2|V|.

    An operation covers one tree, not one call, because most single calls
    take about 0.1 ms, where timings of the same call differ by 30% from
    run to run.  Trees and hosts keep the labels the program's own builders
    give them; the seed only fixes the order of the trees.  Relabelling the
    patterns moves single searches between node counts that differ by up
    to 3x (ties in the embedding order), which at this size makes runs with
    different seeds disagree by more than any useful bound.
    """
    max_vertices = 4 if smoke else 6
    ops: list[Op] = []
    for v in range(2, max_vertices + 1):
        for index, tree in enumerate(cc.trees.enumerate_trees(v)):
            sigma, tau = checks.sigma_tau(tree.n, tree.edge_list())
            hosts = [
                (cc.builders.s_construction(n, t), t == sigma or tau < sigma)
                for n in (2 * v - 1, 2 * v)
                for t in (sigma - 1, sigma)
            ]
            ops.append(
                Op(
                    f"tree T{v}.{index}",
                    lambda tree=tree, hosts=hosts: (
                        cc.trees.analyze_tree(tree),
                        [cc.embed.find_expansion(host, tree) for host, _ in hosts],
                    ),
                    lambda out, tree=tree, hosts=hosts, s=sigma, t=tau: _tree_problems(
                        out, tree, hosts, s, t
                    ),
                )
            )
    random.Random(seed).shuffle(ops)
    return ops


def _tree_problems(out, tree, hosts, sigma: int, tau: int) -> list[str]:
    profile, embeddings = out
    problems = []
    if (profile.sigma, profile.tau) != (sigma, tau):
        problems.append(f"profile gives sigma={profile.sigma} tau={profile.tau}, oracle {sigma} {tau}")
    for emb, (host, expect) in zip(embeddings, hosts):
        problems += _verdict_problems(emb, host, tree, expect)
    return problems


def _verdict_problems(emb, host, pattern, expect: bool) -> list[str]:
    if (emb is not None) != expect:
        return [f"verdict {emb is not None}, oracle {expect}"]
    if emb is None:
        return []
    return checks.certificate_problems(
        host.n, host.edges, pattern.n, pattern.edge_list(), emb.core_map, emb.expansion_map
    )


# ---------------------------------------------------------------------------
# random-hosts

CORPUS_SEED = 2310_01736
CORPUS_HOSTS = 40
CORPUS_SIZES = (12, 15)
CORPUS_DENSITY = (0.05, 0.10)
CORPUS_TREES = (5, 6)
PATTERNS_PER_HOST = 5


def random_corpus(cc, hosts: int = CORPUS_HOSTS):
    """Fixed corpus of random 3-graphs (n 12-15, density 0.05-0.10), each
    paired with 5 patterns drawn from the trees on 5-6 vertices and C4-C6.

    Neither the corpus nor the host labels depend on the run seed.  The
    search cost per host is heavy-tailed: over ten seeds, the total node
    count moves by 24% (interquartile range) when the hosts of a corpus
    like this are relabelled, by 7-36% when fresh corpora are drawn, and by
    2-3% when only the patterns are relabelled.  Trees on 7 vertices would quadruple the pass time.
    """
    rng = random.Random(CORPUS_SEED)
    pool = [t for v in CORPUS_TREES for t in cc.trees.enumerate_trees(v)]
    pool += [cc.trees.cycle_graph(k) for k in (4, 5, 6)]
    corpus = []
    for _ in range(hosts):
        n = rng.randint(*CORPUS_SIZES)
        density = rng.uniform(*CORPUS_DENSITY)
        triples = [t for t in itertools.combinations(range(n), 3) if rng.random() < density]
        host = cc.structures.TripleSystem(n, triples)
        corpus.append((host, [rng.choice(pool) for _ in range(PATTERNS_PER_HOST)]))
    return corpus


def random_inputs(cc, seed: int, smoke: bool = False):
    """The corpus with each pattern relabelled by the seed."""
    rng = random.Random(seed)
    pairs = []
    for host, patterns in random_corpus(cc, 3 if smoke else CORPUS_HOSTS):
        pairs += [(host, _relabel_graph(cc, p, rng)) for p in patterns]
    return pairs


def random_hosts(cc, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """One operation decides one host against its five patterns (single
    calls are mostly too short to time steadily).  Verdicts are checked on
    every seed; certificate digests only on the seeds in expected.json."""
    verdicts = expected()["random-hosts"]["verdicts"]
    digests = expected()["random-hosts"]["digests"].get(str(seed)) or [None] * len(verdicts)
    pairs = random_inputs(cc, seed, smoke)
    ops: list[Op] = []
    for first in range(0, len(pairs), PATTERNS_PER_HOST):
        group = list(range(first, first + PATTERNS_PER_HOST))
        ops.append(
            Op(
                f"host{first // PATTERNS_PER_HOST}",
                lambda group=group: [cc.embed.find_expansion(*pairs[i]) for i in group],
                lambda out, group=group: [
                    problem
                    for emb, i in zip(out, group)
                    for problem in _random_problems(emb, *pairs[i], verdicts[i], digests[i])
                ],
            )
        )
    return ops


def _random_problems(emb, host, pattern, expect: bool, digest) -> list[str]:
    problems = _verdict_problems(emb, host, pattern, expect)
    if emb is not None and digest and not problems:
        if checks.certificate_digest(emb.core_map, emb.expansion_map) != digest:
            problems.append("certificate differs from the recorded canonical one")
    return problems


# ---------------------------------------------------------------------------
# turan

TURAN_PROBLEMS = [
    ("hypergraph", 6, "path2"),
    ("hypergraph", 7, "path2"),
    ("hypergraph", 6, "cycle3"),
    ("triangles", 6, "path2"),
    ("triangles", 6, "cycle3"),
]


def _named_pattern(cc, name: str):
    kind, size = name[:-1], int(name[-1])
    return cc.trees.path_graph(size) if kind == "path" else cc.trees.cycle_graph(size)


def turan_inputs(cc, seed: int, smoke: bool = False):
    rng = random.Random(seed)
    return [
        (f"{mode} {n} {name}", mode, n, _relabel_graph(cc, _named_pattern(cc, name), rng))
        for mode, n, name in (TURAN_PROBLEMS[:1] if smoke else TURAN_PROBLEMS)
    ]


def turan(cc, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """Exact Turán values by orderly generation; the seed relabels the
    patterns, which leaves values and canonical witnesses unchanged, so
    they are checked on every seed."""
    ops: list[Op] = []
    for key, mode, n, pattern in turan_inputs(cc, seed, smoke):
        solve = "exact_turan_hypergraph" if mode == "hypergraph" else "exact_generalized_turan"
        ops.append(
            Op(
                f"turan {key}",
                lambda solve=solve, n=n, pattern=pattern: getattr(cc.lab, solve)(n, pattern),
                lambda out, key=key, mode=mode, n=n, pattern=pattern: turan_problems(
                    out, expected()["turan"][key], mode, n, pattern.n, pattern.edge_list()
                ),
            )
        )
    return ops


def witness_digest(witnesses) -> str:
    return hashlib.sha256(json.dumps(witnesses).encode()).hexdigest()[:16]


def turan_problems(result, answer: dict, mode: str, n: int, pattern_n: int, pattern_edges) -> list[str]:
    """Value and witness list against the recorded answer, and every
    witness re-checked: free of the pattern and of the claimed size."""
    problems = []
    if result.value != answer["value"]:
        problems.append(f"value {result.value}, expected {answer['value']}")
    witnesses = [[list(e) for e in w] for w in result.extremal_witnesses]
    if witness_digest(witnesses) != answer["witnesses"]:
        problems.append("extremal witnesses differ from the recorded ones")
    return problems + _witness_problems(
        mode, n, pattern_n, tuple(pattern_edges), result.extremal_witnesses, result.value
    )


@functools.cache
def _witness_problems(mode, n, pattern_n, pattern_edges, witnesses, value) -> list[str]:
    problems = []
    for w in witnesses:
        triples = list(w) if mode == "hypergraph" else checks.triangle_triples(n, w)
        if len(triples) != value:
            problems.append("a witness does not reach the value")
        if checks.expansion_exists(n, triples, pattern_n, pattern_edges):
            problems.append("a witness contains the pattern")
    return problems


# ---------------------------------------------------------------------------
# clean-cli

CLEAN_SIZES = (28, 32, 36)
# Smallest size at which the planted hosts keep edges after cleaning.
SMOKE_CLEAN_SIZE = 28
CLEAN_T, CLEAN_K, FULL_D, LINEAR_I = 2, 3, 2, 2


def planted_host(n: int, t: int, rng: random.Random) -> set[tuple[int, int, int]]:
    """S(n, t) with exactly 30% of its triples dropped, plus random triples
    amounting to 3% of all triples of [n]."""
    apex = [x for x in itertools.combinations(range(n), 3) if x[0] < t]
    kept = set(rng.sample(apex, len(apex) - round(0.3 * len(apex))))
    others = [x for x in itertools.combinations(range(n), 3) if x[0] >= t]
    total = n * (n - 1) * (n - 2) // 6
    return kept | set(rng.sample(others, round(0.03 * total)))


def clean_cli(cc, seed: int, workdir: Path, smoke: bool = False) -> list[Op]:
    """Each planted host goes through crosscut.cli.main: clean (writes a
    trace), check (replays it), extract --mode full, extract --mode linear."""
    rng = random.Random(seed)
    ops: list[Op] = []
    for n in (SMOKE_CLEAN_SIZE,) if smoke else CLEAN_SIZES:
        triples = planted_host(n, CLEAN_T, rng)
        host = workdir / f"host{n}.edges"
        trace = workdir / f"trace{n}.json"
        full = workdir / f"full{n}.edges"
        linear = workdir / f"linear{n}.edges"
        host_text = checks.format_triples(n, triples)
        host.write_text(host_text)
        steps = [
            ("clean", ["clean", "--k", CLEAN_K, "--t", CLEAN_T, "--in", host, "--trace", trace],
             lambda out, trace=trace, host_text=host_text: _trace_problems(out, trace, host_text)),
            ("check", ["check", "--certificate", trace, "--host", host],
             lambda out: [] if out == (0, {"valid": True}) else [f"check rejected the trace: {out}"]),
            ("extract full", ["extract", "--mode", "full", "--param", FULL_D, "--in", host, "--out", full],
             lambda out, full=full, triples=triples: _exit_problems(out)
             or checks.full_problems(triples, checks.parse_triples(full.read_text())[1], FULL_D)),
            ("extract linear", ["extract", "--mode", "linear", "--param", LINEAR_I, "--in", host, "--out", linear],
             lambda out, linear=linear, triples=triples: _exit_problems(out)
             or checks.linear_problems(triples, checks.parse_triples(linear.read_text())[1], LINEAR_I)),
        ]
        for name, argv, check in steps:
            argv = [str(a) for a in argv]
            ops.append(Op(f"{name} n={n}", lambda argv=argv: _cli(cc, argv), check))
    return ops


def _cli(cc, argv: list[str]):
    """Run crosscut.cli.main with its report captured; returns the exit code
    and the parsed stdout report (None when there is none)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cc.cli.main(argv)
    text = out.getvalue()
    report = json.loads(text) if text.strip() else None
    if isinstance(report, dict):
        report.pop("generated_at", None)
    return code, report


def _exit_problems(out) -> list[str]:
    return [] if out[0] == 0 else [f"exit code {out[0]}"]


_TRACE_CHECKS: dict[tuple[str, str], list[str]] = {}


def _trace_problems(out, trace: Path, host_text: str) -> list[str]:
    """The trace replayed by the oracle, on the host the benchmark wrote.
    A trace differs between passes only in its timestamp, so each host's
    trace is replayed once per run."""
    problems = _exit_problems(out)
    if problems:
        return problems
    data = json.loads(trace.read_text())
    data.pop("generated_at", None)
    key = (json.dumps(data, sort_keys=True), host_text)
    if key not in _TRACE_CHECKS:
        _TRACE_CHECKS[key] = _trace_data_problems(data, host_text)
    return _TRACE_CHECKS[key]


def _trace_data_problems(data: dict, host_text: str) -> list[str]:
    if data.get("kind") != "cleaning-trace" or data.get("superfull") is not True:
        return ["trace is not a superfull cleaning trace"]
    problems = checks.cleaning_trace_problems(data)
    if {tuple(sorted(e)) for e in data["input_edges"]} != checks.parse_triples(host_text)[1]:
        problems.append("trace input differs from the host")
    return problems


WORKLOADS = {
    "apex-sweep": apex_sweep,
    "random-hosts": random_hosts,
    "turan": turan,
    "clean-cli": clean_cli,
}
