"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Runs a smoke-sized version of every workload, untraced and traced, and
checks that each metric named in BENCHMARK.json comes out with its unit;
feeds a corrupted certificate, a wrong Turán value, two corrupted cleaning
traces and a raising operation through the correctness gate and checks
that each counts as one failed operation; and checks that the benchmark refuses to run, without printing
a result, in a directory that holds only the benchmark.  Exits 0 when
every test passes.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKDIR = run.ROOT / ".bench_run" / "selftest"

# Counters each workload must move in a traced smoke run.
LAYER_COUNTS = {
    "apex-sweep": ("embed.calls", "embed.nodes", "trees.calls"),
    "random-hosts": ("embed.calls", "embed.nodes"),
    "turan": ("embed.calls", "lab.canon_calls", "lab.orderly_nodes", "trees.calls"),
    "clean-cli": ("cleaning.linear_edges_in", "fileio.bytes", "cli.trace_bytes"),
}


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def smoke(name: str):
    return run.set_up(name, 1, WORKDIR, reps=1, smoke=True)


def test_spec_matches_harness() -> None:
    expect({w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS), "workload names differ")
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    expect(e2e == run.END_TO_END_UNITS, f"end-to-end metrics differ: {e2e}")
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    expect(layer == run.PER_LAYER_UNITS, f"per-layer metrics differ: {layer}")


def test_smoke_runs_report_every_metric() -> None:
    for name in workloads.WORKLOADS:
        cc, ops, setup_times = smoke(name)
        passes, failures, _ = run.measure(cc, ops, 0.0, False)
        expect(not failures, f"{name}: {failures}")
        metrics = run.end_to_end(passes, setup_times, 0.0)
        expect(list(metrics) == list(run.END_TO_END_UNITS), f"{name}: {sorted(metrics)}")
        expect(all(v > 0 and math.isfinite(v) for v in metrics.values()), f"{name}: {metrics}")
        quantiles = run.op_quantiles(passes)
        expect(all(v > 0 and u == "ms" for v, u in quantiles.values()), f"{name}: {quantiles}")

        passes, failures, tracer = run.measure(cc, ops, 0.0, True)
        expect(not failures, f"{name} traced: {failures}")
        layer, _ = run.per_layer(passes, tracer)
        expect(list(layer) == list(run.PER_LAYER_UNITS), f"{name}: {sorted(layer)}")
        expect(all(math.isfinite(v) for v in layer.values()), f"{name}: {layer}")
        for counter in LAYER_COUNTS[name]:
            expect(layer[counter] > 0, f"{name}: {counter} is 0")
        expect(tracer._saved == [], f"{name}: wrappers left installed")


def gate_failures(op) -> int:
    _, _, failures = run.run_pass([op], run.Speed())
    return len(failures)


def test_gate_counts_a_corrupted_certificate() -> None:
    _, ops, _ = smoke("apex-sweep")
    op = next(o for o in ops if any(e is not None for e in o.run()[1]))
    expect(gate_failures(op) == 0, "the unmodified operation fails")

    def corrupted():
        profile, embeddings = op.run()
        i = next(k for k, e in enumerate(embeddings) if e is not None)
        emb = embeddings[i]
        (edge, _), *rest = emb.expansion_map
        bad = dataclasses.replace(emb, expansion_map=((edge, emb.core_map[0]), *rest))
        return profile, embeddings[:i] + [bad] + embeddings[i + 1:]

    expect(gate_failures(dataclasses.replace(op, run=corrupted)) == 1, "corrupted certificate passed")


def test_gate_counts_a_wrong_turan_value() -> None:
    _, ops, _ = smoke("turan")
    op = ops[0]
    expect(gate_failures(op) == 0, "the unmodified operation fails")

    def off_by_one():
        result = op.run()
        return dataclasses.replace(result, value=result.value + 1)

    expect(gate_failures(dataclasses.replace(op, run=off_by_one)) == 1, "wrong Turán value passed")


def _corrupted_clean(edit):
    """The smoke clean-cli clean operation, with edit(trace) applied to the
    trace file it writes."""
    _, ops, _ = smoke("clean-cli")
    op = next(o for o in ops if o.name.startswith("clean "))
    expect(gate_failures(op) == 0, "the unmodified clean operation fails")
    trace = WORKDIR / f"trace{workloads.SMOKE_CLEAN_SIZE}.json"
    expect(json.loads(trace.read_text())["final_edges"], "the smoke host cleans to nothing")

    def run_and_edit():
        out = op.run()
        data = json.loads(trace.read_text())
        edit(data)
        trace.write_text(json.dumps(data))
        return out

    return dataclasses.replace(op, run=run_and_edit)


def test_gate_counts_a_trace_that_removes_too_much() -> None:
    def remove_one_more(data):
        final = [tuple(e) for e in data["final_edges"]]
        a, b, _ = final[0]
        data["removed_pairs"].append({"pair": [a, b], "type": 3})
        data["final_edges"] = [list(e) for e in final if not (a in e and b in e)]

    expect(gate_failures(_corrupted_clean(remove_one_more)) == 1, "over-removing trace passed")


def test_gate_counts_a_trace_that_empties_the_host() -> None:
    def empty(data):
        data["final_edges"] = []

    expect(gate_failures(_corrupted_clean(empty)) == 1, "emptying trace passed")


def test_gate_counts_a_raising_operation() -> None:
    def boom():
        raise ValueError("boom")

    expect(gate_failures(workloads.Op("raises", boom, lambda out: [])) == 1, "exception not counted")


def test_refuses_to_run_without_the_program() -> None:
    bare = WORKDIR / "bare"
    shutil.copytree(run.ROOT / "bench", bare / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "turan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare,
        capture_output=True,
        text=True,
        timeout=120,
    )
    expect(proc.returncode != 0, "exit code 0 without the program")
    expect('"correct"' not in proc.stdout, "printed a result without the program")


def main() -> int:
    tests = [v for k, v in globals().items() if k.startswith("test_")]
    failed = 0
    for test in tests:
        WORKDIR.mkdir(parents=True, exist_ok=True)
        try:
            test()
            print(f"PASS {test.__name__}")
        except Exception as exc:  # report every test, then fail overall
            failed += 1
            print(f"FAIL {test.__name__}: {type(exc).__name__}: {exc}")
        finally:
            shutil.rmtree(WORKDIR, ignore_errors=True)
    try:
        WORKDIR.parent.rmdir()
    except OSError:  # missing, or holds a concurrent run's directory
        pass
    print(f"{len(tests) - failed} of {len(tests)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
