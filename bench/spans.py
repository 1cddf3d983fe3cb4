"""Span recording for the traced benchmark run.

Tracing happens entirely outside the program: each wrapper below replaces
a public function on the module attribute its caller looks up (for example
``crosscut.lab.find_expansion``), records one span per call and restores
the original on ``uninstall``.  Spans stay in memory until the run ends.

Search work comes from the program's public counters: every traced
``find_expansion`` call gets a ``SearchBudget`` (an unlimited one when the
caller passed none) whose ``nodes`` field is read after the call, and the
Turán drivers report ``TuranResult.nodes``.
"""

from __future__ import annotations

import os
import time
from collections import Counter

# Span tuple fields: name, start, end, parent index (-1 for none), op id.
NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Span and counter store for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, after=None):
        """Wrapper recording one span per call; after(result, args) may
        update counters once the call returned."""

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(result, args)
            return result

        return traced

    # -- installation ---------------------------------------------------------

    def patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self, cc) -> None:
        """Install every wrapper on the crosscut modules in namespace cc."""
        counts = self.counts
        budget_cls = cc.config.SearchBudget
        orig_expansion = cc.embed.find_expansion

        def find_expansion(host, pattern, deterministic=True, budget=None):
            own = budget if budget is not None else budget_cls()
            before = own.nodes
            idx = self.begin("embed.find_expansion")
            try:
                result = orig_expansion(host, pattern, deterministic, own)
            finally:
                self.end(idx)
            counts["embed.calls"] += 1
            counts["embed.nodes"] += own.nodes - before
            counts["embed.found"] += result is not None
            return result

        blowup = self.wrap("embed.find_blowup", cc.embed.find_blowup)
        for mod in (cc.embed, cc.lab, cc.cli, cc.cleaning):
            self.patch(mod, "find_expansion", find_expansion)
        for mod in (cc.embed, cc.lab, cc.cli):
            self.patch(mod, "find_blowup", blowup)

        def canon_done(result, args):
            counts["lab.canon_calls"] += 1

        def turan_done(result, args):
            counts["lab.orderly_nodes"] += result.nodes

        self.patch(
            cc.lab,
            "canonical_edge_key",
            self.wrap("lab.canonical_edge_key", cc.lab.canonical_edge_key, canon_done),
        )
        for attr in ("exact_turan_hypergraph", "exact_generalized_turan"):
            self.patch(cc.lab, attr, self.wrap("lab." + attr, getattr(cc.lab, attr), turan_done))

        def tree_done(result, args):
            counts["trees.calls"] += 1

        analyze = self.wrap("trees.analyze_tree", cc.trees.analyze_tree, tree_done)
        for mod in (cc.trees, cc.lab, cc.cli):
            self.patch(mod, "analyze_tree", analyze)
        self.patch(
            cc.lab,
            "crosscut_value",
            self.wrap("trees.crosscut_value", cc.lab.crosscut_value, tree_done),
        )

        def clean_done(result, args):
            counts["cleaning.removed_pairs"] += result.q

        def linear_done(result, args):
            counts["cleaning.linear_edges_in"] += len(args[0].edges)

        for attr, after in (
            ("cleaning_algorithm", clean_done),
            ("extract_d_full", None),
            ("extract_linear_subgraph", linear_done),
        ):
            self.patch(cc.cleaning, attr, self.wrap("cleaning." + attr, getattr(cc.cleaning, attr), after))

        def read_done(result, args):
            counts["fileio.bytes"] += os.path.getsize(args[0])

        def write_done(result, args):
            counts["fileio.bytes"] += os.path.getsize(args[1])

        for attr in ("load_structure", "load_graph", "load_triple_system"):
            self.patch(cc.cli, attr, self.wrap("fileio." + attr, getattr(cc.cli, attr), read_done))
        self.patch(
            cc.cli,
            "save_structure",
            self.wrap("fileio.save_structure", cc.cli.save_structure, write_done),
        )

        def cli_done(result, args):
            argv = args[0]
            if argv and argv[0] == "clean":
                counts["cli.trace_bytes"] += os.path.getsize(argv[argv.index("--trace") + 1])

        self.patch(cc.cli, "main", self.wrap("cli.main", cc.cli.main, cli_done))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans: list[list]) -> dict[str, float]:
    """Busy and self seconds from recorded spans.

    span:<name> sums the spans of that name; self:<name> sums their
    durations minus those of their child spans; busy:<layer> sums the spans
    of a layer that no span of the same layer encloses.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child_time[s[PARENT]] += s[END] - s[START]
    out: Counter = Counter()
    for i, s in enumerate(spans):
        name = s[NAME]
        layer = layer_of(name)
        dur = s[END] - s[START]
        own = dur - child_time[i]
        out["span:" + name] += dur
        out["self:" + name] += own
        parent = s[PARENT]
        if parent < 0 or layer_of(spans[parent][NAME]) != layer:
            out["busy:" + layer] += dur
    return dict(out)
