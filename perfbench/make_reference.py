"""Regenerate the reference rows that run.py checks every repetition against.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs one untraced repetition of every input set of each named workload (all
workloads by default) and writes `reference/<workload>.json`, mapping each
input-set index to its config list and the rows each config reported.  The
program at the commit that made a reference is the one later commits are
held to, so regenerate only when a change of rows is intended.
"""
from __future__ import annotations

import json
import sys

from run import REFERENCE, RUN_LIMIT_S, Run, _now, read_rows
from workloads import INPUT_SETS, WORKLOADS


def main(names) -> int:
    REFERENCE.mkdir(exist_ok=True)
    for name in names or sorted(WORKLOADS):
        sets = {}
        for k in range(INPUT_SETS):
            configs = WORKLOADS[name].configs(k)
            run = Run(name, configs, 1, _now() + RUN_LIMIT_S)
            try:
                result = run.worker(1)
                rep = result["repetitions"][0]
                paths = run.outputs(rep)
                if not result["ok"] or None in paths:
                    raise RuntimeError(f"{name} input set {k}: exit codes {rep['exit_codes']}")
                sets[str(k)] = {"configs": configs, "rows": [read_rows(p) for p in paths]}
            finally:
                run.close()
            n_failed = sum(not r[2] for rows in sets[str(k)]["rows"] for r in rows)
            print(f"{name} input set {k}: {rep['wall_s']:.2f} s, {n_failed} failed rows", flush=True)
        (REFERENCE / f"{name}.json").write_text(json.dumps(sets, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
