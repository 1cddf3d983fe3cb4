"""crosscut benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload apex-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
One process, one thread, one operation at a time: the operations of the
workload run in order as one pass, and passes repeat until the next one
would end after ``--seconds``.  Every output is checked (``checks.py``);
an operation that raises or fails its check counts as failed.

Timings.  On a shared host the speed of the processor drifts: other
tenants slow every instruction by up to 1.75x for stretches of seconds to
minutes, so the same pass can take 1.8 s or 3.1 s.  Each timing is
therefore divided by the current speed factor, the time of a fixed
pure-Python reference loop (``reference_work``, no crosscut code) over its
nominal time ``REF_SECONDS``.  Samples are taken between operations at
least every ``SAMPLE_EVERY`` seconds and around every set-up; a timing is
divided by the mean of the samples just before and just after it.  Timings are reported in these reference-normalised seconds
(unit ``s``); the raw pass times are printed alongside.  Each operation's
latency is the median over the passes of its normalised time; ``wall_s``
sums them (time to finish every operation once).  The quantiles
``op_p50_ms`` and ``op_p90_ms`` over the operations are printed but not
part of the result line.  ``setup_s`` is the median
over 21 set-ups, each importing crosscut afresh and building the
workload's inputs.

Memory.  ``peak_rss_mb`` is the process's maximum resident set size.  Most
of it is the interpreter and the harness, so ``rss_growth_mb`` reports how
far the peak rose above the one measured just before the first set-up,
after the harness and expected.json were loaded: the part the program, its
inputs and the checks of its outputs take.

``--trace 1`` alternates untraced and traced passes.  Traced passes run
with the wrappers of ``spans.py`` installed and give the per-layer
metrics; ``trace.overhead_pct`` compares their wall time with that of the
untraced passes of the same run.

The last line of stdout is one JSON object: correct, attempted, failed and
the metrics (end-to-end ones with ``--trace 0``, per-layer ones with
``--trace 1``).  Human-readable lines come before it; failures go to
stderr.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 21
# Nominal duration of one reference_work() call; its value only fixes the
# scale of the normalised timings.
REF_SECONDS = 0.0025
# Least time between two speed samples within a pass.
SAMPLE_EVERY = 0.05
MODULES = ("builders", "cleaning", "cli", "config", "embed", "lab", "structures", "trees")

END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "rss_growth_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
    "embed.calls": "count",
    "embed.nodes": "count",
    "embed.nodes_per_s": "1/s",
    "embed.found_pct": "%",
    "embed.busy_pct": "%",
    "lab.canon_calls": "count",
    "lab.canon_busy_pct": "%",
    "lab.orderly_nodes": "count",
    "lab.self_pct": "%",
    "trees.calls": "count",
    "trees.busy_pct": "%",
    "cleaning.clean_busy_pct": "%",
    "cleaning.removed_pairs": "count",
    "cleaning.dfull_busy_pct": "%",
    "cleaning.linear_busy_pct": "%",
    "cleaning.linear_edges_in": "count",
    "fileio.busy_pct": "%",
    "fileio.bytes": "bytes",
    "cli.self_pct": "%",
    "cli.trace_bytes": "bytes",
}

# Per-layer busy/self times, as span-summary keys; reported in seconds in
# the human-readable table and as a share of traced operation time.
LAYER_TIMES = {
    "embed.busy_pct": ("busy:embed",),
    "lab.canon_busy_pct": ("span:lab.canonical_edge_key",),
    "lab.self_pct": ("self:lab.exact_turan_hypergraph", "self:lab.exact_generalized_turan"),
    "trees.busy_pct": ("busy:trees",),
    "cleaning.clean_busy_pct": ("span:cleaning.cleaning_algorithm",),
    "cleaning.dfull_busy_pct": ("span:cleaning.extract_d_full",),
    "cleaning.linear_busy_pct": ("span:cleaning.extract_linear_subgraph",),
    "fileio.busy_pct": ("busy:fileio",),
    "cli.self_pct": ("self:cli.main",),
}

COUNTS = (
    "embed.calls",
    "embed.nodes",
    "lab.canon_calls",
    "lab.orderly_nodes",
    "trees.calls",
    "cleaning.removed_pairs",
    "cleaning.linear_edges_in",
    "fileio.bytes",
    "cli.trace_bytes",
)


class ProgramMissing(Exception):
    pass


def import_program() -> SimpleNamespace:
    """Import crosscut from this checkout's src/, dropping any copy already
    imported, so that each call pays the full import cost."""
    src = ROOT / "src"
    if not (src / "crosscut" / "__init__.py").is_file():
        raise ProgramMissing(f"no crosscut package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m == "crosscut" or m.startswith("crosscut.")]:
        del sys.modules[name]
    package = importlib.import_module("crosscut")
    if not Path(package.__file__).resolve().is_relative_to(src.resolve()):
        raise ProgramMissing(f"crosscut was imported from {package.__file__}, not {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"crosscut.{m}") for m in MODULES})


def reference_work() -> int:
    """Fixed pure-Python work (recursion, big-integer bit operations, a dict
    and a set), sized to take about REF_SECONDS."""
    table = {}
    acc = 0

    def walk(depth: int, mask: int) -> int:
        if depth == 0:
            return mask
        low = mask & -mask
        return walk(depth - 1, (mask ^ low) | (low << 3))

    for k in range(1, 1001):
        m = walk(12, (k * 2654435761) & ((1 << 40) - 1) | 1)
        table[k] = m.bit_count()
        acc ^= m
    return acc + len({v % 97 for v in table.values()})


class Speed:
    """Speed-factor samples: reference_work's time over REF_SECONDS."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.last = 0.0
        self.sample()

    def sample(self) -> None:
        """The faster of two back-to-back reference runs, so that one
        interrupt does not skew the operations on either side."""
        times = []
        for _ in range(2):
            start = time.perf_counter()
            reference_work()
            self.last = time.perf_counter()
            times.append(self.last - start)
        self.samples.append(min(times) / REF_SECONDS)

    def due(self) -> int:
        """Sample when SAMPLE_EVERY has passed; returns the latest index."""
        if time.perf_counter() - self.last >= SAMPLE_EVERY:
            self.sample()
        return len(self.samples) - 1

    def around(self, index: int) -> float:
        """Mean of the samples just before and just after an interval that
        started after sample index."""
        return (self.samples[index] + self.samples[index + 1]) / 2


def set_up(workload: str, seed: int, workdir: Path, reps: int = SETUP_REPS, smoke: bool = False):
    """Import the program and build the inputs reps times; the run uses
    the last set-up's modules and inputs.  Returns the normalised set-up
    times."""
    speed = Speed()
    times = []
    for _ in range(reps):
        # The previous set-up's modules and inputs hold reference cycles;
        # freeing them, untimed, keeps the peak RSS that of one set-up.
        cc = ops = None
        gc.collect()
        index = len(speed.samples) - 1
        start = time.perf_counter()
        cc = import_program()
        ops = workloads.WORKLOADS[workload](cc, seed, workdir, smoke)
        took = time.perf_counter() - start
        speed.sample()
        times.append(took / speed.around(index))
    return cc, ops, times


def run_pass(ops, speed: Speed, tracer=None):
    """Run every operation once; returns (raw latencies, speed factors,
    failures)."""
    latencies = []
    indices = []
    failures = []
    for i, op in enumerate(ops):
        indices.append(speed.due())
        if tracer is not None:
            tracer.op_id = i
            span = tracer.begin("op")
        start = time.perf_counter()
        try:
            out = op.run()
            error = None
        except Exception as exc:  # counted as a failed operation
            out, error = None, exc
        latencies.append(time.perf_counter() - start)
        if tracer is not None:
            tracer.end(span)
        if error is None:
            try:
                problems = op.check(out)
            except Exception as exc:  # an unreadable output fails its check
                problems = [f"check raised {type(exc).__name__}: {exc}"]
        else:
            problems = [f"raised {type(error).__name__}: {error}"]
        if problems:
            failures.append((op.name, problems))
    speed.sample()
    return latencies, [speed.around(k) for k in indices], failures


def measure(cc, ops, seconds: float, trace: bool):
    """Closed loop of passes until the next pass would overrun the window.
    With trace, passes alternate untraced / traced, starting untraced.

    Returns passes[traced] as a list of (raw latencies, speed factors)."""
    tracer = spans.Tracer() if trace else None
    passes = {False: [], True: []}
    failures = []
    deadline = time.perf_counter() + seconds
    traced = False
    speed = Speed()
    while True:
        start = time.perf_counter()
        if traced:
            tracer.install(cc)
        try:
            latencies, factors, failed = run_pass(ops, speed, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes[traced].append((latencies, factors))
        failures.extend(failed)
        took = time.perf_counter() - start
        done = all(passes[k] for k in ((False, True) if trace else (False,)))
        if done and time.perf_counter() + took > deadline:
            break
        if trace:
            traced = not traced
    return passes, failures, tracer


def op_latencies(passes) -> list[float]:
    """Per operation, the median over passes of its normalised latency."""
    columns = zip(*[[t / f for t, f in zip(latencies, factors)] for latencies, factors in passes])
    return [statistics.median(column) for column in columns]


def quantile(values: list[float], q: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(passes, setup_times, rss_before: float) -> dict[str, float]:
    """rss_before is peak_rss_mb() just before the first set-up."""
    peak = peak_rss_mb()
    return {
        "wall_s": sum(op_latencies(passes[False])),
        "peak_rss_mb": peak,
        "rss_growth_mb": peak - rss_before,
        "setup_s": statistics.median(setup_times),
    }


def op_quantiles(passes) -> dict[str, tuple[float, str]]:
    """Latency quantiles over the operations.  Printed, not gated: on a
    shared host single operations are too noisy for a bound of 25%."""
    latencies = op_latencies(passes[False])
    return {
        "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
        "op_p90_ms": (quantile(latencies, 0.9) * 1e3, "ms"),
    }


def per_layer(passes, tracer) -> tuple[dict[str, float], dict[str, tuple[float, str]]]:
    """Per-layer metrics, and for the printed table each layer's time in
    seconds per traced pass and the median find_expansion call time."""
    traced_passes = len(passes[True])
    wall = sum(op_latencies(passes[False]))
    traced_wall = sum(op_latencies(passes[True]))
    summary = spans.summarize(tracer.spans)
    op_time = summary["span:op"]
    counts = {k: tracer.counts[k] / traced_passes for k in COUNTS}
    # Span times are raw; the mean speed factor of the traced passes
    # normalises the absolute ones (nodes per second, seconds per pass).
    factor = statistics.mean(f for _, factors in passes[True] for f in factors)
    seconds = {k: sum(summary.get(key, 0.0) for key in keys) / factor for k, keys in LAYER_TIMES.items()}
    metrics = {
        "trace.wall_s": traced_wall,
        "trace.overhead_pct": 100 * (traced_wall - wall) / wall,
        "embed.nodes_per_s": (
            tracer.counts["embed.nodes"] / seconds["embed.busy_pct"] if seconds["embed.busy_pct"] else 0.0
        ),
        "embed.found_pct": (
            100 * tracer.counts["embed.found"] / tracer.counts["embed.calls"] if tracer.counts["embed.calls"] else 0.0
        ),
    }
    metrics.update(counts)
    metrics.update({k: 100 * v * factor / op_time for k, v in seconds.items()})
    per_pass = {k.replace("_pct", "_s"): (v / traced_passes, "s") for k, v in seconds.items()}
    calls = [s[spans.END] - s[spans.START] for s in tracer.spans if s[spans.NAME] == "embed.find_expansion"]
    if calls:
        per_pass["embed.call_p50_ms"] = (statistics.median(calls) / factor * 1e3, "ms")
    return {k: metrics[k] for k in PER_LAYER_UNITS}, per_pass


def report(workload, seed, ops, passes, failures, setup_times, metrics, units, details) -> int:
    """Print the human-readable summary; returns the operations attempted."""
    attempted = sum(len(p) for p in passes.values()) * len(ops)
    print(
        f"workload={workload} seed={seed} ops_per_pass={len(ops)} "
        f"untraced_passes={len(passes[False])} traced_passes={len(passes[True])} "
        f"setups={len(setup_times)}"
    )
    print(f"ops={attempted} failed={len(failures)} failed_frac={len(failures) / attempted:.6g}")
    for traced, runs in passes.items():
        if runs:
            kind = "traced" if traced else "untraced"
            print(f"{kind} pass raw seconds: " + ", ".join(f"{sum(lat):.3f}" for lat, _ in runs))
            print(f"{kind} pass speed factors: " + ", ".join(f"{statistics.mean(f):.3f}" for _, f in runs))
    for name, value in metrics.items():
        print(f"  {name:28s} {value:16.6f} {units[name]}")
    print(f"  not in the result line ({len(ops)} operations, {len(passes[False])} untraced passes):")
    for name, (value, unit) in details.items():
        print(f"  {name:28s} {value:16.6f} {unit}")
    for name, problems in failures[:20]:
        print(f"FAILED {name}: {'; '.join(problems)}", file=sys.stderr)
    return attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workdir = ROOT / ".bench_run" / str(os.getpid())
    try:
        workdir.mkdir(parents=True)
        workloads.expected()
        rss_before = peak_rss_mb()
        cc, ops, setup_times = set_up(args.workload, args.seed, workdir)
        passes, failures, tracer = measure(cc, ops, args.seconds, bool(args.trace))
        if args.trace:
            metrics, details = per_layer(passes, tracer)
            units = PER_LAYER_UNITS
        else:
            metrics, details = end_to_end(passes, setup_times, rss_before), op_quantiles(passes)
            units = END_TO_END_UNITS
        attempted = report(args.workload, args.seed, ops, passes, failures, setup_times, metrics, units, details)
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
