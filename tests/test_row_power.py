"""Row power of the transport layer: planted faults and the rows that catch them.

Each fault monkeypatches one function of `mflab.transport`, and each config
is a small run of one experiment.  The table records what every config does
under every fault: the ids of the rows that fail, RAISES when
`kantorovich_gap` rejects the solver's duals and so ends the run, or no
failing row.  A row that stops catching a fault changes its entry and fails
this test, and so does a fault that some row newly catches.

`_cost_matrix` builds the cost blocks of the LP route's pricing and of
`kantorovich_gap`'s dual check; the assignment route writes its cost
matrix with `cdist` in `assignment_cost`'s own workspace, so the fault
without the square does not reach it.

The empty entries are blind spots.  With pricing patched out
(`_violated_pairs` returning no pair) every runner row still passes, because
the Husimi lattice LPs of mk-bracket and quantum-dobrushin certify in one
round; only ot-selftest's own dual-feasibility scan in `kantorovich_gap`
sees it.  An assignment cost read from the column-shifted matrix the
warm-started solve works on moves no row either.  Only the N = [8, 128]
classical-dobrushin config solves assignments of WARM_START_ATOMS atoms or
more; there the fault moves the N = 128 `marginal-transport-convergence` lhs
from 0.022 to 0.031, inside its allowance of three standard errors (0.032)
over the rhs (0.013).  test_transport's warm-start tests, which compare the
cost with a plain `linear_sum_assignment` of the cost matrix, catch it.
"""
import traceback

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from mflab import transport
from mflab.experiments import build_config, run_experiment

# ot-selftest at seed 3 with 10 clouds, and the four configs of the CI step
# "Output independent of core count" that queue transport solves
CLASSICAL = {
    "experiment": "classical-dobrushin",
    "seed": 4,
    "N": [8, 32],
    "samples": 32,
    "reference_size": 256,
    "times": [0.25],
    "repeats": 24,
}
CONFIGS = {
    "ot-selftest": {"experiment": "ot-selftest", "seed": 3, "n_clouds": 10},
    "classical-dobrushin": CLASSICAL,
    "classical-dobrushin-warm-start": dict(CLASSICAL, N=[8, 128]),
    "mk-bracket": {"experiment": "mk-bracket", "seed": 4, "epsilon": [0.5, 0.25], "pairs": 4},
    "quantum-dobrushin": {
        "experiment": "quantum-dobrushin",
        "seed": 4,
        "grid_points": 64,
        "t_final": 0.04,
        "n_times": 3,
    },
}

_edge_costs = transport._edge_costs


def _assignment_shifting_its_input(C, shifted):
    """`transport._assignment` with C - v written over C instead of into
    the scratch `shifted`, so that the caller reads the cost from the
    shifted matrix: off by the mean of v."""
    if C.shape[0] >= transport.WARM_START_ATOMS:
        C -= transport._sinkhorn_column_potential(C, shifted)
    return linear_sum_assignment(C)


# fault name -> (transport function, its replacement)
FAULTS = {
    "clean": None,
    "cost matrix without the square": (
        "_cost_matrix",
        lambda mu, nu, rows=slice(None): cdist(mu.points[rows], nu.points),
    ),
    "edge costs doubled": ("_edge_costs", lambda mu, nu, edges: 2.0 * _edge_costs(mu, nu, edges)),
    "pricing finds no violated pair": (
        "_violated_pairs",
        lambda mu, nu, a, b: np.empty(0, dtype=np.int64),
    ),
    "assignment cost read from the shifted matrix": ("_assignment", _assignment_shifting_its_input),
}

RAISES = "kantorovich_gap raises"
NONE = ()

# fault name -> config name -> outcome
OUTCOMES = {
    "clean": dict.fromkeys(CONFIGS, NONE),
    "cost matrix without the square": {
        "ot-selftest": RAISES,
        "classical-dobrushin": NONE,
        "classical-dobrushin-warm-start": NONE,
        "mk-bracket": NONE,
        "quantum-dobrushin": NONE,
    },
    "edge costs doubled": {
        "ot-selftest": RAISES,
        "classical-dobrushin": NONE,
        "classical-dobrushin-warm-start": NONE,
        "mk-bracket": ("husimi-lower-vs-coupling-cost",),
        "quantum-dobrushin": NONE,
    },
    "pricing finds no violated pair": {
        "ot-selftest": RAISES,
        "classical-dobrushin": NONE,
        "classical-dobrushin-warm-start": NONE,
        "mk-bracket": NONE,
        "quantum-dobrushin": NONE,
    },
    "assignment cost read from the shifted matrix": dict.fromkeys(CONFIGS, NONE),
}


def _outcome(raw: dict):
    """The sorted ids of the rows that fail, or RAISES."""
    try:
        rows = run_experiment(build_config(raw))
    except ValueError as err:
        # only the dual check of kantorovich_gap may end a run
        assert traceback.extract_tb(err.__traceback__)[-1].name == "kantorovich_gap", err
        return RAISES
    return tuple(sorted({r.inequality_id for r in rows if not r.passed}))


@pytest.mark.parametrize("fault", list(FAULTS))
def test_transport_fault_table(monkeypatch, fault):
    if FAULTS[fault] is not None:
        monkeypatch.setattr(transport, *FAULTS[fault])
    got = {name: _outcome(raw) for name, raw in CONFIGS.items()}
    assert got == OUTCOMES[fault]
