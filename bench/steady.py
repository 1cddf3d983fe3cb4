"""Steadiness report: repeat each workload over several seeds and summarise.

    python3 bench/steady.py                      # seeds 1-10
    python3 bench/steady.py --seeds 3,5,8
    python3 bench/steady.py --out base.json      # keep the raw values
    python3 bench/steady.py --compare base.json  # medians against a saved set

Every workload of BENCHMARK.json runs once per seed for its run_seconds.
For each, this prints every end-to-end metric's median, quartiles and
spread (interquartile range over the median) next to its bound, the
operations attempted and failed, and then the per-layer table of one
traced run with the tracing overhead.  Each run is a separate
``bench/run.py`` process started from the checkout root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    sys.stderr.write(proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """Median, first and third quartile, and IQR as a share of the median."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", help="write the raw values of every run as JSON")
    parser.add_argument("--compare", help="JSON written by --out to compare medians against")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    base = json.loads(Path(args.compare).read_text()) if args.compare else {}
    saved: dict = {}
    ok = True
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [run_once(workload, seed, 0) for seed in seeds]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        ok &= failed == 0 and all(r["correct"] for r in runs)
        print(f"\n== {workload}: {len(runs)} runs, seeds {args.seeds}, {SPEC['run_seconds']} s each")
        print(f"   ops={attempted} failed={failed} failed_frac={failed / attempted:.6g}")
        print(f"   {'metric':14s} {'unit':5s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  verdict")
        saved[workload] = {}
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            saved[workload][name] = values
            med, q1, q3, rel = spread(values)
            verdict = "steady" if rel <= metric["bound"] else "TOO NOISY"
            ok &= rel <= metric["bound"]
            if workload in base:
                old = statistics.median(base[workload][name])
                change = (med - old) / old if metric["better"] == "lower" else (old - med) / old
                verdict += f"; {100 * change:+.1f}% vs saved" + (" WORSE" if change > metric["bound"] else "")
                ok &= change <= metric["bound"]
            print(f"   {name:14s} {metric['unit']:5s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:7.3f} {metric['bound']:6.2f}  {verdict}")
        traced = run_once(workload, seeds[0], 1)
        ok &= traced["correct"]
        print(f"   per-layer metrics (traced run, seed {seeds[0]}):")
        for metric in SPEC["per_layer"]:
            m = traced["metrics"][metric["name"]]
            print(f"     {metric['name']:28s} {m['value']:16.6f} {m['unit']}")
    if args.out:
        Path(args.out).write_text(json.dumps(saved, indent=1) + "\n")
    print("\nall runs correct and steady" if ok else "\nSOME RUNS FAILED, WERE NOISY OR GOT WORSE")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
