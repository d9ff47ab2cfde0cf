"""The benchmark's workloads: each is a list of `mflab run` configs made from
an input-set index.

`--seed n` selects input set `n % INPUT_SETS`; the benchmark stores the
reference rows of every input set under `reference/`, so any seed can be
checked row by row.  The seed changes the experiments' random streams and,
for quantum-flow, the coherent-state centre; sizes stay fixed so that every
input set costs the same work.
"""
from __future__ import annotations

import random
from typing import Callable, NamedTuple

INPUT_SETS = 8

GAUSSIAN = {"family": "gaussian", "amplitude": 1.0, "width": 1.0}


def classical_meanfield(k: int) -> list:
    # Pair-force kernel, ensemble churn, assignment-route OT, Vlasov grid
    # field and Monte-Carlo quadrature; no FFT evolution, no large LP.
    return [
        {
            "experiment": "classical-dobrushin",
            "seed": k,
            "potential": GAUSSIAN,
            "N": [16, 64, 256],
            "samples": 32,
        },
        {"experiment": "combineq", "seed": k, "potential": GAUSSIAN, "mc_samples": 10_000},
        {"experiment": "vlasov-moments", "seed": k, "potential": GAUSSIAN},
        {"experiment": "ot-selftest", "seed": k},
    ]


def quantum_flow(k: int) -> list:
    # Production shape: 64 points per axis, N = 2, a doubled 64^4 state.
    # 4-D split-step FFTs and memory dominate; four steps at three sample times.
    rng = random.Random(k)
    center = [round(rng.uniform(-0.3, 0.3), 3), round(rng.uniform(-0.3, 0.3), 3)]
    return [
        {
            "experiment": "quantum-dobrushin",
            "seed": k,
            "potential": GAUSSIAN,
            "epsilon": [0.25],
            "grid_points": 64,
            "n_particles": 2,
            "dt": 0.02,
            "t_final": 0.08,
            "n_times": 3,
            "center": center,
        }
    ]


def husimi_bracket(k: int) -> list:
    # LP-heavy transport (dense HiGHS on Husimi lattices) with no time
    # evolution: the bypass workload for quantum-dynamics changes.
    return [
        {"experiment": "mk-bracket", "seed": k, "epsilon": [0.5, 0.25, 0.1], "pairs": 6},
        {"experiment": "toeplitz-identities", "seed": k},
    ]


class Workload(NamedTuple):
    configs: Callable[[int], list]
    # planning cost of one repetition, in seconds, from repetitions timed on
    # a 2-core x86 VM (numpy 2.4, scipy 1.17); a run makes as many
    # repetitions as fit in --seconds at this cost, so the count depends on
    # --seconds only, never on timing
    rep_s: float


WORKLOADS = {
    "classical-meanfield": Workload(classical_meanfield, 15.0),
    "quantum-flow": Workload(quantum_flow, 17.0),
    "husimi-bracket": Workload(husimi_bracket, 12.5),
}
