"""Write bench/expected.json, the recorded answers the benchmark checks.

    python3 bench/make_expected.py

random-hosts verdicts come from the independent oracle in checks.py and
must agree with the program; they hold for every seed, because the seed
only relabels.  Certificate digests depend on the labels, so they are
recorded for the shipped seeds only.  Turán values and canonical witness
lists do not depend on how the pattern is labelled; the script checks that
on every shipped seed.  Rerun it only when an answer is meant to change.
"""

from __future__ import annotations

import json
import sys

import checks
import workloads
from run import import_program

SHIPPED_SEEDS = [1, 2, 3, 4, 5]
HELD_OUT_SEED = 7919


def main() -> int:
    cc = import_program()
    verdicts = []
    for host, patterns in workloads.random_corpus(cc):
        for pattern in patterns:
            found = checks.expansion_exists(host.n, host.edges, pattern.n, pattern.edge_list())
            if found != (cc.embed.find_expansion(host, pattern) is not None):
                print(f"oracle and program disagree on {host} / {pattern}", file=sys.stderr)
                return 1
            verdicts.append(found)
    digests = {}
    for seed in SHIPPED_SEEDS:
        row = []
        for host, pattern in workloads.random_inputs(cc, seed):
            emb = cc.embed.find_expansion(host, pattern)
            row.append(None if emb is None else checks.certificate_digest(emb.core_map, emb.expansion_map))
        digests[str(seed)] = row

    turan = {}
    for seed in SHIPPED_SEEDS:
        for key, mode, n, pattern in workloads.turan_inputs(cc, seed):
            solve = cc.lab.exact_turan_hypergraph if mode == "hypergraph" else cc.lab.exact_generalized_turan
            result = solve(n, pattern)
            answer = {
                "value": result.value,
                "witnesses": workloads.witness_digest([[list(e) for e in w] for w in result.extremal_witnesses]),
            }
            if turan.setdefault(key, answer) != answer:
                print(f"turan {key} depends on the pattern labels", file=sys.stderr)
                return 1
            problems = workloads.turan_problems(result, answer, mode, n, pattern.n, pattern.edge_list())
            if problems:
                print(f"turan {key}: {problems}", file=sys.stderr)
                return 1

    data = {
        "shipped_seeds": SHIPPED_SEEDS,
        "held_out_seed": HELD_OUT_SEED,
        "random-hosts": {"verdicts": verdicts, "digests": digests},
        "turan": turan,
    }
    workloads.EXPECTED_FILE.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {workloads.EXPECTED_FILE}: {sum(verdicts)} of {len(verdicts)} random-host pairs positive")
    return 0


if __name__ == "__main__":
    sys.exit(main())
