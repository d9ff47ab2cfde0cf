"""Experiment-runner and CLI tests on deliberately small configurations.

Every runner is exercised once end-to-end; the CLI tests cover the exit-code
contract (0 ok / 2 failed bound / 4 diagnostics / 64 unusable input) and the
byte-level determinism of the JSONL output for a fixed (config, seed) pair.
"""
import json
import math
import re
import subprocess
import sys
import threading
import tracemalloc
import time
import warnings
import weakref
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from mflab import bounds, classical, experiments
from mflab.bounds import write_reports_jsonl
from mflab.cli import main
from mflab.errors import ResourceCapError
from mflab.experiments import (
    MAX_PAIR_WORK,
    MAX_STEP_WORK,
    PARAMS,
    POTENTIALS,
    ExperimentConfig,
    _empirical_chaos_sq,
    _SolvePool,
    _submit_chaos_repeats,
    build_config,
    make_potential,
    run_experiment,
    time_schedule,
    validate_config,
)
from mflab.quantum import FactoredCoupling, GridSpec, coherent_state, guard_band_mass, metrics
from mflab.quantum.grids import load_state
from mflab import transport
from mflab.transport import SUPPORT_CAP

OT_TINY = {"experiment": "ot-selftest", "seed": 3, "n_clouds": 4, "max_support": 5, "dims": [2]}

#: The two runners that queue their Husimi lattice solves on a pool: 4 and
#: 2 * 3 solves over two sweep points.
HUSIMI_PIPELINES = {
    "mk-bracket": {"experiment": "mk-bracket", "seed": 4, "epsilon": [0.5, 0.25], "pairs": 4},
    "quantum-dobrushin": {
        "experiment": "quantum-dobrushin",
        "seed": 4,
        "t_final": 0.04,
        "n_times": 3,
    },
}

CLASSICAL_FREE = {
    "experiment": "classical-dobrushin",
    "potential": {"family": "gaussian", "amplitude": 0.0, "width": 1.0},
    "seed": 1,
    "N": [8],
    "samples": 64,
    "reference_size": 256,
    "dt": 0.05,
    "times": [0.2],
    "repeats": 64,
}


# ---------------------------------------------------------------- potentials


def test_make_potential_gaussian_fields():
    V = make_potential({"family": "gaussian", "amplitude": 0.7, "width": 1.3, "dim": 2})
    assert V.dim == 2
    assert V.eval(np.zeros((1, 2)))[0] == pytest.approx(0.7)


def test_make_potential_cosine():
    V = make_potential({"family": "cosine", "amplitude": 0.5, "wavevector": [2.0]})
    assert V.sup_grad == pytest.approx(0.5 * 2.0)


def test_make_potential_unknown_family():
    with pytest.raises(ValueError):
        make_potential({"family": "coulomb"})


# ---------------------------------------------------------------- validation


def test_validate_clean_config():
    assert validate_config(dict(OT_TINY)) == []


def test_validate_rejects_non_object():
    assert validate_config([1, 2]) == ["config must be a JSON object"]


def test_validate_unknown_experiment():
    diags = validate_config({"experiment": "frobnicate"})
    assert any("unknown id" in d for d in diags)


def test_validate_bad_seed_and_dt():
    diags = validate_config({"experiment": "ot-selftest", "seed": -4, "dt": 0.0})
    assert any(d.startswith("seed:") for d in diags)
    assert any(d.startswith("dt:") for d in diags)


def test_validate_empty_sweep_list():
    diags = validate_config({"experiment": "combineq", "N": []})
    assert any(d.startswith("N:") for d in diags)


def test_validate_quantum_memory_estimate(monkeypatch):
    raw = {"experiment": "quantum-dobrushin", "grid_points": 128, "n_particles": 2, "dt": 0.01}
    # the run holds the 16*128^2-byte Y factor, and a checkpoint saves the
    # factors, so neither is near the cap (dt 0.01 keeps the Nyquist phase
    # below pi)
    assert validate_config(raw) == []
    assert validate_config(dict(raw, checkpoint="state")) == []
    # under a cap below even one grid line, validation still reports, not raises
    monkeypatch.setenv("MFLAB_MEMORY_CAP_BYTES", "1000")
    diags = validate_config({"experiment": "quantum-dobrushin"})
    assert len(diags) == 1 and "over the memory cap 1000" in diags[0]
    # the other grid runners report their own largest array against it
    assert validate_config({"experiment": "toeplitz-identities"}) == [
        "grid_points: n x n density matrix needs 16*256^2 = 1048576 bytes, "
        "over the memory cap 1000"
    ]
    assert validate_config({"experiment": "mk-bracket"}) == [
        "grid_points: grid line needs 16*256^1 = 4096 bytes, over the memory cap 1000"
    ]


def test_bad_memory_cap_is_a_diagnostic(tmp_path, capsys, monkeypatch):
    for cap in ("abc", "-5", "0"):
        monkeypatch.setenv("MFLAB_MEMORY_CAP_BYTES", cap)
        for experiment in ("quantum-dobrushin", "mk-bracket", "toeplitz-identities"):
            path = _write_cfg(tmp_path, {"experiment": experiment})
            assert main(["validate", path]) == 4, (cap, experiment)
            out = capsys.readouterr().out
            assert out == f"MFLAB_MEMORY_CAP_BYTES: {cap!r} must be a positive byte count\n"
            assert main(["run", path]) == 64, (cap, experiment)
            assert "config error: MFLAB_MEMORY_CAP_BYTES:" in capsys.readouterr().err


def test_validate_mk_bracket_centre_scale_is_the_runner_rule(tmp_path):
    # each coherent factor of a pair is single-particle: at epsilon 0.5 on the
    # default grid the corner (2.41, 2.41) has a one-axis tail of about 7e-13,
    # inside the 1e-12 rule, while (2.45, 2.45) is outside it
    grid = GridSpec(1, 1, 256, 6.0, 0.5)
    raw = {"experiment": "mk-bracket", "epsilon": [0.5], "pairs": 2}
    for scale in (2.41, 2.45):
        try:
            placed = coherent_state(grid, scale, scale) is not None
        except ValueError:
            placed = False
        assert (validate_config(dict(raw, center_scale=scale)) == []) == placed, scale
    path = _write_cfg(tmp_path, dict(raw, center_scale=2.41))
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out", str(tmp_path)]) == 0


def test_a_density_matrix_over_the_memory_cap_is_refused_before_it_is_built(monkeypatch):
    # toeplitz-identities at 512 points holds a 4 MiB density matrix; a
    # 1 MiB cap, which holds its grid, fails it at validation.  Should the
    # cap drop to 1 MiB after validation, the run stops at the first matrix,
    # state_density_matrix's, having allocated little
    raw = {"experiment": "toeplitz-identities", "grid_points": 512}
    cfg = build_config(raw)
    monkeypatch.setenv("MFLAB_MEMORY_CAP_BYTES", str(2**20))
    assert validate_config(raw) == [
        "grid_points: n x n density matrix needs 16*512^2 = 4194304 bytes, "
        "over the memory cap 1048576"
    ]
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match=r"density matrix needs 4194304 bytes > cap"):
            run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"traced peak {peak} bytes"


def test_validate_quantum_grid_power_of_two():
    diags = validate_config({"experiment": "quantum-dobrushin", "grid_points": 96})
    assert any("power of two" in d for d in diags)


def test_validate_quantum_momentum_edge():
    raw = {
        "experiment": "quantum-dobrushin",
        "grid_points": 64,
        "n_particles": 1,
        "box": 8.0,
        "epsilon": [0.05],
    }
    diags = validate_config(raw)
    assert any("momentum edge" in d for d in diags)


def test_validate_quantum_kinetic_cfl(tmp_path, capsys):
    raw = {"experiment": "quantum-dobrushin", "n_particles": 1, "epsilon": [0.25], "dt": 0.2}
    assert any("Nyquist" in d and "epsilon=0.25" in d for d in validate_config(raw))
    assert main(["run", _write_cfg(tmp_path, raw)]) == 64
    assert "Nyquist" in capsys.readouterr().err
    # the limit is checked for every epsilon in the sweep
    raw = {"experiment": "quantum-dobrushin", "epsilon": [0.25, 1.0], "dt": 0.1}
    diags = [d for d in validate_config(raw) if "Nyquist" in d]
    assert len(diags) == 1 and "epsilon=1.0" in diags[0]


def test_validate_quantum_sample_times_multiple_of_dt():
    base = {"experiment": "quantum-dobrushin", "dt": 0.02}
    diags = validate_config(dict(base, t_final=0.1, n_times=4))
    assert any("integer multiple of dt" in d for d in diags)
    assert validate_config(dict(base, t_final=0.1, n_times=6)) == []
    assert validate_config(dict(base, t_final=0.5, n_times=6)) == []
    assert any(d.startswith("n_times:") for d in validate_config(dict(base, n_times=1)))
    # more sample intervals than steps is reported without listing the times
    diags = validate_config(dict(base, n_times=10**9))
    assert len(diags) == 1 and "n_times - 1 is more than t_final/dt = 25.0" in diags[0]


def test_validate_quantum_epsilon_must_be_positive(tmp_path, capsys):
    for eps in ([0], [-0.25], [0.25, "abc"]):
        path = _write_cfg(tmp_path, {"experiment": "quantum-dobrushin", "epsilon": eps})
        assert main(["validate", path]) == 4
        assert main(["run", path]) == 64
        assert "epsilon: entry" in capsys.readouterr().err


def test_validate_rejects_an_initial_state_outside_the_guard_band(tmp_path, capsys):
    # at epsilon 0.5 the coherent state at the default centre keeps only
    # 0.99995 of its mass inside half of a 4.5 box: the runner's guard band
    # would trip at t = 0, so validation reports it on the centre
    raw = {
        "experiment": "quantum-dobrushin",
        "grid_points": 32,
        "box": 4.5,
        "epsilon": [0.5],
        "t_final": 0.04,
        "n_times": 3,
    }
    path = _write_cfg(tmp_path, raw)
    assert main(["validate", path]) == 4
    diags = capsys.readouterr().out.splitlines()
    assert len(diags) == 1 and diags[0].startswith("center: [0.3, -0.2]")
    assert "guard band" in diags[0] and "epsilon=0.5" in diags[0]
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 64
    assert "config error: center:" in capsys.readouterr().err
    assert not out.exists()
    # the coupled state holds 2N copies of the coherent state, so the rule
    # is on its mass to the power 2N: here N = 1 passes and N = 2 does not
    one = guard_band_mass(coherent_state(GridSpec(1, 1, 64, 5.0, 0.25), 0.3, 0.0))
    assert one**2 >= 1 - 1e-10 > one**4
    raw = {"experiment": "quantum-dobrushin", "box": 5.0, "epsilon": [0.25], "center": [0.3, 0.0]}
    assert validate_config(dict(raw, n_particles=1)) == []
    diags = validate_config(dict(raw, n_particles=2))
    assert len(diags) == 1 and diags[0].startswith("center: [0.3, 0.0]")


def test_guard_band_abort_exits_3_at_the_integrated_time(tmp_path, capsys):
    # a coherent state inside the guard band at t = 0, moving outward at
    # speed 2, leaks past it by the second sample time
    raw = {
        "experiment": "quantum-dobrushin",
        "n_particles": 1,
        "grid_points": 64,
        "box": 5.0,
        "epsilon": [0.25],
        "dt": 0.02,
        "t_final": 1.0,
        "n_times": 3,
        "center": [0.0, 2.0],
    }
    path = _write_cfg(tmp_path, raw)
    assert main(["validate", path]) == 0
    capsys.readouterr()
    out = tmp_path / "out"
    assert main(["run", path, "--out", str(out)]) == 3
    assert "guard band tripped at t=0.5" in capsys.readouterr().err
    jsonl = (out / "quantum-dobrushin.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in jsonl]
    assert [r["inequality_id"] for r in rows] == [
        "coupling-cost-growth",
        "husimi-lower-chain",
        "guard-band-interior-mass",
        "doubled-evolution-unitarity",
    ]
    assert rows[2]["time"] == 0.5
    assert rows[3]["time"] == 0.5 and rows[3]["constants"]["steps"] == 25
    assert len((out / "quantum-dobrushin.csv").read_text().splitlines()) == 5


def test_quantum_dobrushin_holds_few_copies_of_the_y_factor():
    # N = 3 at 64 points, a 4 MiB Y factor: the coupling alone holds the
    # initial factor, each step copies it once, and the guard band and the
    # coherent state mask and normalize in place, so the traced peak is
    # about 2.6 factors; each spare copy adds up to one more
    cfg = build_config(
        {
            "experiment": "quantum-dobrushin",
            "seed": 0,
            "n_particles": 3,
            "grid_points": 64,
            "epsilon": [0.25],
            "t_final": 0.04,
            "n_times": 3,
        }
    )
    y_bytes = 16 * 64**3
    run_experiment(cfg)  # warm the FFT plan cache
    tracemalloc.start()
    try:
        rows = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(r.passed for r in rows)
    assert peak <= 3.0 * y_bytes, f"traced peak {peak / y_bytes:.2f} Y factors"


def test_coupled_run_with_a_cost_only_measure_reproduces_the_growth_rows():
    # quantum-dobrushin's loop with a measure that records D alone: the same
    # Toeplitz-lifted datum gives the growth rows' lhs bit for bit, and the
    # same unitarity drift at the same time
    cfg = build_config(
        {"experiment": "quantum-dobrushin", "epsilon": [0.5], "t_final": 0.08, "n_times": 3}
    )
    rows = run_experiment(cfg)
    params, eps = cfg.params, 0.5
    N, (q0, p0) = params["n_particles"], params["center"]
    base = GridSpec(1, 1, params["grid_points"], params["box"], eps)
    lift = metrics.coupling_to_factored_mixture(
        base, N, transport.DiscreteMeasure(np.repeat([q0, p0], 2 * N)[None, :], np.ones(1))
    )
    costs = []

    def measure(t, mixture):
        costs.append(metrics.qp_cost_trace(mixture) / N)
        return []

    schedule = time_schedule(experiments._sample_times(params), params["dt"])
    with _SolvePool(1) as solves:
        own, _ = experiments._coupled_run(
            lift,
            coherent_state(base, q0, p0),
            make_potential(cfg.potential),
            schedule,
            params["dt"],
            solves,
            {"eps": eps},
            measure,
        )
    growth = [r.lhs_measured for r in rows if r.inequality_id == "coupling-cost-growth"]
    assert len(growth) == 3 and [c.hex() for c in costs] == [g.hex() for g in growth]
    [unitarity] = own
    assert unitarity.inequality_id == rows[-1].inequality_id == "doubled-evolution-unitarity"
    assert (unitarity.time, unitarity.lhs_measured) == (rows[-1].time, rows[-1].lhs_measured)


@pytest.mark.parametrize("experiment", ["classical-dobrushin", "vlasov-moments"])
def test_validate_classical_schedule(tmp_path, experiment):
    base = {"experiment": experiment, "dt": 0.05}
    assert validate_config({"experiment": experiment}) == []
    assert validate_config(dict(base, times=[0.1, 0.25])) == []
    for times in ([0.25, 0.1], [0.1, 0.1], [0.0, 0.1], [-0.1]):
        diags = validate_config(dict(base, times=times))
        assert any("strictly increasing" in d for d in diags), times
    diags = validate_config(dict(base, times=[0.1, 0.26]))
    assert any("[0.26] are not integer multiples of dt=0.05" in d for d in diags)
    assert any(d.startswith("times:") for d in validate_config(dict(base, times=["x"])))
    # the bug this guards: a row labelled t = 0.1 for a state integrated to 0.25
    path = _write_cfg(tmp_path, {"experiment": experiment, "times": [0.25, 0.1]})
    assert main(["validate", path]) == 4
    assert main(["run", path]) == 64
    # a misspelt schedule key would otherwise run the default schedule
    path = _write_cfg(tmp_path, {"experiment": experiment, "time": [0.1]})
    assert validate_config({"experiment": experiment, "time": [0.1]}) == [
        f"time: not a parameter of {experiment}"
    ]
    assert main(["validate", path]) == 4
    assert main(["run", path]) == 64


def test_time_schedule_counts_whole_steps():
    # a leading t = 0 takes no step; each later time the steps since the last
    assert time_schedule([0.0, 0.1, 0.25], 0.05) == [(0.0, 0), (0.1, 2), (0.25, 3)]
    assert time_schedule([0.25, 0.5, 1.0], 0.025) == [(0.25, 10), (0.5, 10), (1.0, 20)]
    times = np.linspace(0.0, 0.5, 6)
    assert [n for _, n in time_schedule(times, 0.02)] == [0, 5, 5, 5, 5, 5]
    with pytest.raises(ValueError, match=r"\[0.26\] are not integer multiples of dt=0.05"):
        time_schedule([0.1, 0.26], 0.05)
    # every time whose integrated time differs is named, not only the first
    with pytest.raises(ValueError, match=r"\[0.12, 0.27\]"):
        time_schedule([0.12, 0.27], 0.05)
    for times in ([0.1, 0.1], [0.1, 0.0], [0.0, 0.0]):
        with pytest.raises(ValueError):
            time_schedule(times, 0.05)


def test_validate_particle_counts(tmp_path):
    for N in ([0], [16, -2], [2.5], [True]):
        diags = validate_config({"experiment": "classical-dobrushin", "N": N})
        assert any(d.startswith("N: entry") and "positive integer" in d for d in diags), N
    path = _write_cfg(tmp_path, {"experiment": "classical-dobrushin", "N": [0]})
    assert main(["run", path]) == 64
    big = {"experiment": "classical-dobrushin", "N": [16, SUPPORT_CAP + 1]}
    assert any("support cap" in d for d in validate_config(big))
    assert validate_config(dict(big, N=[SUPPORT_CAP])) == []
    # the cap is the classical runner's transport cap, not a combineq limit
    assert validate_config({"experiment": "combineq", "N": [SUPPORT_CAP + 1]}) == []


def test_validate_bad_potential_family_and_width():
    diags = validate_config({"experiment": "ot-selftest", "potential": {"family": "morse"}})
    assert any("unknown family" in d for d in diags)
    diags = validate_config(
        {"experiment": "ot-selftest", "potential": {"family": "gaussian", "width": -1}}
    )
    assert any("width" in d for d in diags)
    diags = validate_config(
        {"experiment": "ot-selftest", "potential": {"family": "gaussian", "widht": 3.0}}
    )
    assert diags == ["potential.widht: not a field of the gaussian potential"]
    # like every parameter diagnostic, the amplitude and width ones name the value
    for pot, diag in (
        ({"width": -1}, "potential.width: -1 must be a positive number"),
        ({"amplitude": "1"}, "potential.amplitude: '1' must be a number"),
    ):
        assert validate_config({"experiment": "ot-selftest", "potential": pot}) == [diag]


def test_potential_defaults_pass_their_own_checks():
    for family, spec in POTENTIALS.items():
        for key, (default, accepts, _) in spec.items():
            assert accepts(default), (family, key)
        assert validate_config({"experiment": "ot-selftest", "potential": {"family": family}}) == []


def test_validate_potential_field_types(tmp_path, capsys):
    for pot in (
        {"family": "gaussian", "width": "abc"},
        {"family": "gaussian", "width": None},
        {"family": "gaussian", "amplitude": "1"},
        {"family": "gaussian", "dim": "2"},
        {"family": "gaussian", "dim": 0},
        {"family": "cosine", "wavevector": 2.0},
        {"family": "cosine", "wavevector": ["x"]},
        {"family": "cosine", "dim": 2, "wavevector": [1.0]},
        {"family": ["gaussian"]},
        {"family": "gaussian", "widht": 3.0},
        {"family": "gaussian", "wavevector": [1.0]},
        {"family": "cosine", "width": 2.0},
    ):
        path = _write_cfg(tmp_path, {"experiment": "ot-selftest", "potential": pot})
        assert main(["validate", path]) == 4, pot
        assert main(["run", path]) == 64, pot
        assert "config error: potential." in capsys.readouterr().err, pot
    for pot in (
        {"family": "gaussian", "amplitude": -0.5, "width": 2, "dim": 3},
        {"family": "cosine", "amplitude": 1, "dim": 2, "wavevector": [1.0, 0.5]},
        {"family": "cosine", "dim": 3},
    ):
        assert validate_config({"experiment": "ot-selftest", "potential": pot}) == [], pot


def test_validate_combineq_needs_a_one_dimensional_potential(tmp_path, capsys):
    # run_combineq samples one scalar per point; a 2-D force cannot take it
    raw = {
        "experiment": "combineq",
        "potential": {"family": "cosine", "amplitude": 0.5, "dim": 2},
        "mc_samples": 2000,
        "N": [4, 8],
    }
    path = _write_cfg(tmp_path, raw)
    assert main(["validate", path]) == 4
    assert capsys.readouterr().out.startswith("potential.dim: 2 must be 1 for combineq")
    assert main(["run", path]) == 64
    assert "config error: potential.dim:" in capsys.readouterr().err
    assert validate_config(dict(raw, potential={"family": "cosine", "dim": 1})) == []


@pytest.mark.parametrize("experiment", ["classical-dobrushin", "quantum-dobrushin"])
def test_validate_dobrushin_runners_need_a_one_dimensional_potential(tmp_path, capsys, experiment):
    # both runners build 1-D particle clouds or grids; rows claiming d = 2
    # would describe a flow that never ran
    for pot in ({"dim": 2}, {"family": "cosine", "dim": 3, "wavevector": [1.0, 1.0, 1.0]}):
        path = _write_cfg(tmp_path, {"experiment": experiment, "potential": pot})
        assert main(["validate", path]) == 4, pot
        out = capsys.readouterr().out
        assert out.startswith(f"potential.dim: {pot['dim']} must be 1 for {experiment}"), out
        assert main(["run", path]) == 64, pot
        assert "config error: potential.dim:" in capsys.readouterr().err, pot
    assert validate_config({"experiment": experiment, "potential": {"dim": 1}}) == []


@pytest.mark.parametrize("experiment", ["mk-bracket", "toeplitz-identities", "quantum-dobrushin"])
def test_validate_grid_points_power_of_two(tmp_path, capsys, experiment):
    for n_pts in (100, 0, 1, "x", 64.0, True):
        path = _write_cfg(tmp_path, {"experiment": experiment, "grid_points": n_pts})
        assert main(["validate", path]) == 4, n_pts
        assert main(["run", path]) == 64, n_pts
        assert "config error: grid_points:" in capsys.readouterr().err, n_pts
    assert validate_config({"experiment": experiment}) == []
    diags = validate_config({"experiment": experiment, "grid_points": 64})
    if experiment == "mk-bracket":
        # 64 points cannot resolve its |p| = 1 corners at epsilon = 0.1
        assert len(diags) == 1 and diags[0].startswith("center_scale: 1.0 must be clear")
        assert "epsilon=0.1," in diags[0]
        diags = validate_config({"experiment": experiment, "grid_points": 128})
    assert diags == []


# parameters each runner would use, with values it cannot use; a third
# entry is the diagnostic expected in place of "<key>: <value> must be".  A
# tuple of keys sets each to its value in the tuple of values
BAD_KNOBS = {
    "ot-selftest": [
        ("n_clouds", "x"),
        ("max_support", 1),
        ("max_support", 14),
        ("dims", ["x"]),
        ("dims", [10**20]),
        ("dims", [2, 11586], "dims: the LP seed's pair of 11586 x 11586 covariances needs 16*11586^2"),
        ("p", 2.0, "p: not a parameter of ot-selftest"),
        ("seed", True, "seed: must be a nonnegative integer"),
        ("out", 5, "out: must be a string or null"),
    ],
    "combineq": [
        ("mc_samples", "x"),
        ("mc_samples", 0),
        ("p", 0.5),
        ("p", 5, "p: 5 must be a number from 1 to 3: past 3 the N-rate fit over N = 4, 16, 64"),
        ("N", [4, 2**63], "N: [4, 9223372036854775808] plans 100000 samples of sum N ="),
        ("slope_tolerance", 0.15, "slope_tolerance: not a parameter of combineq"),
    ],
    "classical-dobrushin": [
        ("samples", "x"),
        ("samples", 1),
        ("reference_size", "x"),
        ("repeats", "x"),
        ("repeats", 1),
        ("w2_tolerance", 2e-3, "w2_tolerance: not a parameter of classical-dobrushin"),
        ("reference_size", 10),
        ("sample", 32, "sample: not a parameter of classical-dobrushin"),
        (("dt", "times"), (1e-9, [0.25]), "dt: 1e-09 plans 250000000 steps, more work"),
        ("dt", 1e-5, "dt: 1e-05 plans 100000 steps of 2000 samples, 13977600000000 pair terms"),
    ],
    "vlasov-moments": [
        ("cloud_size", "x"),
        ("cloud_size", 2.0),
        ("p", "x"),
        (("dt", "times"), (1e-9, [0.25]), "dt: 1e-09 plans 250000000 steps, more work"),
    ],
    "mk-bracket": [
        ("box", "x"),
        ("box", 0),
        ("pairs", "x"),
        ("center_scale", "x"),
        ("center_scale", 5.0),
    ],
    "toeplitz-identities": [
        ("symbols", "x"),
        ("epsilon", [0.25]),
        ("box", "x"),
        ("box", 1.0, "the fixed coherent centre (0.3, -0.2) must be clear of the box edge"),
    ],
    "quantum-dobrushin": [
        ("n_particles", "x"),
        ("n_particles", 1.5),
        ("box", "x"),
        ("center", [0.3]),
        ("center", [0.3, 3.0]),
        ("center", [7.9, 0.0]),
        ("checkpoint", 3),
        ("center_scale", 0.35, "center_scale: not a parameter of quantum-dobrushin"),
        (
            ("dt", "t_final", "n_times"),
            (1e-9, 0.04, 3),
            "dt: 1e-09 plans 40000000 steps on 64 grid points, more work",
        ),
    ],
}


@pytest.mark.parametrize("experiment", sorted(BAD_KNOBS))
def test_validate_numeric_knobs(tmp_path, capsys, experiment):
    for key, value, *said in BAD_KNOBS[experiment]:
        knobs = dict(zip(key, value)) if isinstance(key, tuple) else {key: value}
        path = _write_cfg(tmp_path, {"experiment": experiment, **knobs})
        assert main(["validate", path]) == 4, (key, value)
        assert main(["run", path]) == 64, (key, value)
        want = said[0] if said else f"{key}: {value!r} must be"
        assert f"config error: {want}" in capsys.readouterr().err, (key, value)
    assert validate_config({"experiment": experiment}) == []


def test_validate_work_bound_boundary():
    # the bound counts steps to the last sample time, times grid_points for
    # the quantum runner, and admits a plan of exactly MAX_STEP_WORK
    at = {"experiment": "vlasov-moments", "times": [1.0], "dt": 1.0 / MAX_STEP_WORK}
    assert validate_config(at) == []
    over = validate_config(dict(at, dt=1.0 / (MAX_STEP_WORK + 1)))
    assert len(over) == 1 and f"plans {MAX_STEP_WORK + 1} steps, more work" in over[0]
    quantum = {"experiment": "quantum-dobrushin", "grid_points": 64, "t_final": 1.0, "n_times": 2}
    assert 1000 * 64 <= MAX_STEP_WORK < 2000 * 64
    assert validate_config(dict(quantum, dt=1e-3)) == []
    over = validate_config(dict(quantum, dt=5e-4))
    assert len(over) == 1 and "plans 2000 steps on 64 grid points, more work" in over[0]


def test_validate_pair_work_bound_boundary():
    # classical-dobrushin's steps also count samples times sum N^2 pair
    # terms, and a plan of exactly MAX_PAIR_WORK is admitted
    at = {"experiment": "classical-dobrushin", "N": [100], "times": [1.0], "dt": 1e-3}
    assert 1000 * 100**2 * 10**5 == MAX_PAIR_WORK
    assert validate_config(dict(at, samples=10**5)) == []
    over = validate_config(dict(at, samples=10**5 + 1))
    assert len(over) == 1 and "plans 1000 steps of 100001 samples, 1000010000000 pair" in over[0]
    # the same plan split over two N of equal sum N^2
    split = dict(at, N=[60, 80], samples=10**5)
    assert validate_config(split) == []
    assert len(validate_config(dict(split, dt=1.0 / 1001))) == 1


def test_validate_exact_field_pair_work_bound_boundary():
    # a Verlet step evaluates a cloud's mean field twice; a 2-D cloud sums it
    # exactly, so 50 steps of 10^5 points plan exactly MAX_PAIR_WORK terms
    at = {"experiment": "vlasov-moments", "potential": {"dim": 2}, "times": [1.0], "dt": 0.02}
    assert 2 * 50 * (10**5) ** 2 == MAX_PAIR_WORK
    assert validate_config(dict(at, cloud_size=10**5)) == []
    assert validate_config(dict(at, cloud_size=10**5 + 1)) == [
        "cloud_size: 100001 plans 50 steps of an exact mean-field sum in d = 2, "
        "1000020000100 pair terms, more work than the bound of 1000000000000 pair terms"
    ]
    # the default dim-2 config plans 20 * 2 * 4096^2 = 6.7e8 terms
    assert validate_config({"experiment": "vlasov-moments", "potential": {"dim": 2}}) == []
    # a 1-D cloud of 1024 points or more is tabulated, so it has no such bound
    assert validate_config({"experiment": "vlasov-moments", "cloud_size": 200000}) == []


def test_validate_bounds_classical_dobrushins_exact_reference_field():
    # below classical.sums_field_exactly's threshold the reference field is
    # summed exactly at the reference and at every mean-field particle
    raw = {"experiment": "classical-dobrushin", "N": [8], "samples": 10**7}
    assert classical.sums_field_exactly(1023, 1) and not classical.sums_field_exactly(1024, 1)
    diags = validate_config(dict(raw, reference_size=1023))
    assert len(diags) == 1 and diags[0].startswith("reference_size: 1023 plans 40 steps")
    assert validate_config(dict(raw, reference_size=1024)) == []


def test_validate_step_work_message_names_grid_points_only_with_a_grid():
    raw = {"experiment": "vlasov-moments", "dt": 1e-9, "times": [0.25]}
    assert validate_config(raw) == [
        "dt: 1e-09 plans 250000000 steps, more work than the bound of 100000 steps"
    ]
    raw = {"experiment": "quantum-dobrushin", "dt": 1e-9, "t_final": 0.04, "n_times": 3}
    assert validate_config(raw) == [
        "dt: 1e-09 plans 40000000 steps on 64 grid points, more work than the bound of "
        "100000 steps times grid points"
    ]


@pytest.mark.parametrize(
    "raw",
    [
        {"experiment": "quantum-dobrushin", "n_particles": 2400},
        {"experiment": "quantum-dobrushin", "n_particles": 2300},
        {"experiment": "quantum-dobrushin", "n_particles": 10**9},
        {"experiment": "mk-bracket", "grid_points": 2**1024},
        {"experiment": "toeplitz-identities", "grid_points": 2**1024},
    ],
)
def test_huge_grids_and_particle_counts_are_schema_diagnostics(tmp_path, capsys, raw):
    # no state size is computed for them: 16*64^2400 has more digits than
    # Python prints, and pi * 2^1024 overflows
    path = _write_cfg(tmp_path, raw)
    assert main(["validate", path]) == 4
    assert main(["run", path]) == 64
    captured = capsys.readouterr()
    key = "n_particles" if "n_particles" in raw else "grid_points"
    assert captured.out.startswith(f"{key}: ") and len(captured.out.splitlines()) == 1
    assert f"config error: {key}: " in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "raw, key",
    [
        (
            {"experiment": "ot-selftest", "potential": {"family": "cosine", "dim": 10**400}},
            "potential.dim",
        ),
        ({"experiment": "vlasov-moments", "potential": {"dim": 2**63}}, "potential.dim"),
        ({"experiment": "vlasov-moments", "cloud_size": 10**21}, "cloud_size"),
        (
            {
                "experiment": "classical-dobrushin",
                "reference_size": 10**21,
                "samples": 2,
                "N": [2],
                "times": [0.025],
            },
            "reference_size",
        ),
    ],
)
def test_sizes_past_their_schema_bound_are_diagnostics(tmp_path, capsys, raw, key):
    # a dim of 10^400 overflowed the cosine potential's list of ones, and a
    # dim of 2^63 or a cloud of 10^21 points is past numpy's largest array
    # dimension: validation, or the run that drew the cloud, ended in a
    # traceback.  Each is rejected by the schema before anything is built
    path = _write_cfg(tmp_path, raw)
    assert main(["validate", path]) == 4
    assert main(["run", path, "--out", str(tmp_path / "out")]) == 64
    captured = capsys.readouterr()
    assert captured.out.startswith(f"{key}: ") and len(captured.out.splitlines()) == 1
    assert f"config error: {key}: " in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "raw, said",
    [
        (
            {"experiment": "mk-bracket", "grid_points": 268435456},
            "grid_points: grid line needs 16*268435456^1 = 4294967296 bytes, "
            "over the memory cap 2147483648",
        ),
        (
            {"experiment": "toeplitz-identities", "grid_points": 16384},
            "grid_points: n x n density matrix needs 16*16384^2 = 4294967296 bytes, "
            "over the memory cap 2147483648",
        ),
    ],
)
def test_a_runners_largest_array_over_the_cap_is_a_diagnostic(tmp_path, capsys, raw, said):
    # at the default cap both held their grid as a schema value and then
    # stopped the run with exit 3 at the first array the cap refused
    path = _write_cfg(tmp_path, raw)
    assert main(["validate", path]) == 4
    assert capsys.readouterr().out == said + "\n"
    assert main(["run", path, "--out", str(tmp_path)]) == 64
    assert capsys.readouterr().err == f"config error: {said}\n"
    # the largest size under the cap validates without a memory diagnostic
    smaller = dict(raw, grid_points=raw["grid_points"] // 2)
    assert not any("memory cap" in d for d in validate_config(smaller))


@pytest.mark.parametrize(
    "raw, key, number",
    [
        (
            {"experiment": "quantum-dobrushin", "grid_points": 2**30, "n_particles": 30},
            "grid_points",
            "= 2^904 bytes",
        ),
        ({"experiment": "mk-bracket", "grid_points": 2**1024}, "grid_points", "2^1024"),
        ({"experiment": "mk-bracket", "grid_points": 3**600}, "grid_points", "(287 digits)"),
        ({"experiment": "combineq", "N": [4, -(3**600)]}, "N", "-187392770388... (287 digits)"),
        ({"experiment": "quantum-dobrushin", "center": [2**100, 0.5]}, "center", "[2^100, 0.5]"),
        ({"experiment": "mk-bracket", "center_scale": 3**70}, "center_scale", "(34 digits)"),
    ],
)
def test_diagnostics_print_huge_integers_compactly(raw, key, number):
    # a 2^904-byte state and grid sizes of 2^1024 and 3^600 print as a power
    # of two or as leading digits and a digit count, after the key
    said = validate_config(raw)[0]
    assert said.startswith(f"{key}: ") and number in said, said
    assert not re.search(r"\d{31}", said), said


def test_compact_numbers_print_as_repr_up_to_30_digits():
    for value in (10**30 - 1, -(10**30) + 1, 2**64, 1.5e300, "x" * 40, [1, 2.5, None], True):
        assert experiments._compact(value) == repr(value)
    assert experiments._compact(10**30) == "100000000000... (31 digits)"


@pytest.mark.parametrize(
    "raw, key, top",
    [
        ({"experiment": "quantum-dobrushin", "grid_points": 2}, "n_particles", 30),
        ({"experiment": "quantum-dobrushin", "n_particles": 1}, "grid_points", 2**30),
        ({"experiment": "mk-bracket"}, "grid_points", 2**30),
    ],
)
def test_schema_bounds_of_grids_and_particle_counts(raw, key, top):
    # the bounds sit past what the default cap admits: at the bound a state
    # is left to the memory checks, past it the schema reports the value
    diags = validate_config(dict(raw, **{key: top}))
    assert not any(d.startswith(f"{key}: {top} must be") for d in diags), diags
    over = top + 1 if key == "n_particles" else 2 * top
    assert validate_config(dict(raw, **{key: over})) == [
        f"{key}: {over} must be {PARAMS[raw['experiment']][key][2]}"
    ]


def test_cli_rejects_an_integer_python_cannot_read(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"experiment": "quantum-dobrushin", "n_particles": ' + "1" * 5000 + "}")
    for command in ("validate", "run"):
        assert main([command, str(path)]) == 64
        assert "config is not valid JSON: " in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["abc", "100"])
def test_validate_checks_the_kinetic_phase_whatever_the_epsilon_order(monkeypatch, cap):
    # the centre checks need a usable cap that holds a grid line; the
    # kinetic phase does not, so it is checked at every epsilon
    monkeypatch.setenv("MFLAB_MEMORY_CAP_BYTES", cap)
    raw = {"experiment": "quantum-dobrushin", "dt": 0.1}
    ascending = validate_config(dict(raw, epsilon=[0.25, 1.0]))
    descending = validate_config(dict(raw, epsilon=[1.0, 0.25]))
    assert sorted(ascending) == sorted(descending) and len(ascending) == 2
    assert any(d.startswith("dt=0.1: kinetic phase") and "epsilon=1.0," in d for d in ascending)


def test_validate_orders_the_diagnostics_of_each_check():
    # the schedule, then each epsilon's Nyquist phase, centre and guard band
    raw = {
        "experiment": "quantum-dobrushin",
        "dt": 0.2,
        "epsilon": [0.25, 1.0],
        "t_final": 0.5,
        "n_times": 4,
        "center": [3.9, 0.0],
    }
    at = "box=8.0, grid_points=64"
    assert validate_config(raw) == [
        "n_times: sample times must be an integer multiple of dt apart; "
        "[0.16666666666666666, 0.3333333333333333, 0.5] are not integer multiples of dt=0.2",
        f"dt=0.2: kinetic phase at the Nyquist mode exceeds pi for epsilon=0.25, {at}",
        "center: [3.9, 0.0] leaves mass 0.303503301119272 of the initial state inside half "
        f"the box, below the guard band's 1 - 1e-10, at epsilon=0.25, {at}",
        f"dt=0.2: kinetic phase at the Nyquist mode exceeds pi for epsilon=1.0, {at}",
        "center: [3.9, 0.0] must be clear of the box edge and the momentum edge at "
        f"epsilon=1.0, {at} (coherent center q=[3.9 3.9], p=[0. 0.] too near the grid "
        "boundary (tail mass 1.340e-08 > 1e-12))",
    ]
    # the support cap, the reference size, then the pair work; a reference
    # too small to subsample has no work check of its own
    raw = {"experiment": "classical-dobrushin", "N": [8, 4096], "reference_size": 100, "dt": 1e-5}
    assert validate_config(raw) == [
        f"N: entry 4096 exceeds the transport support cap {SUPPORT_CAP}",
        "reference_size: 100 must be at least 2*max(N) = 8192: each repeat draws two "
        "N-point subsamples of the reference cloud without replacement",
        "dt: 1e-05 plans 100000 steps of 2000 samples, 3355456000000000 pair terms, more "
        "work than the bound of 1000000000000 steps times samples times sum N^2",
    ]


def test_every_experiment_has_a_runner_and_a_check_function():
    assert set(experiments.EXPERIMENTS) == set(PARAMS) == set(experiments.EXPERIMENT_RUNNERS)
    for experiment, (runner, check) in experiments.EXPERIMENTS.items():
        assert experiments.EXPERIMENT_RUNNERS[experiment] is runner
        assert callable(runner) and callable(check), experiment


#: Each count parameter and its work bound.
COUNT_BOUNDS = [
    ("mk-bracket", "pairs", 10**4),
    ("toeplitz-identities", "symbols", 10**4),
    ("ot-selftest", "n_clouds", 10**4),
    ("classical-dobrushin", "repeats", 10**5),
    ("combineq", "mc_samples", 10**8),
]


@pytest.mark.parametrize("experiment, key, bound", COUNT_BOUNDS)
def test_count_parameters_have_a_work_bound(tmp_path, capsys, experiment, key, bound):
    # every default, test, demo, CI step and workload uses at most the default;
    # the values at and past the bound are only validated, never run
    default, _, what = PARAMS[experiment][key]
    assert bound >= 100 * default and what.endswith(f"to {bound}, the work bound")
    assert validate_config({"experiment": experiment, key: bound}) == []
    over = validate_config({"experiment": experiment, key: bound + 1})
    assert over == [f"{key}: {bound + 1} must be {what}"]
    path = _write_cfg(tmp_path, {"experiment": experiment, key: 10**12})
    assert main(["validate", path]) == 4
    assert main(["run", path]) == 64
    assert f"config error: {key}: {10**12} must be {what}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "raw, epsilons",
    [
        ({"experiment": "quantum-dobrushin", "epsilon": 5e-324}, 1),
        ({"experiment": "toeplitz-identities", "epsilon": 5e-324}, 1),
        ({"experiment": "mk-bracket", "box": 1e308}, 3),
        ({"experiment": "mk-bracket", "center_scale": 1e308}, 3),
    ],
)
def test_center_check_warns_of_no_overflow(raw, epsilons):
    # the tail arguments overflow to inf on Python floats, silently: the
    # diagnostics, one per epsilon, are the only output
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        diags = validate_config(raw)
    assert len(diags) == epsilons
    assert all("must be clear of the box edge and the momentum edge" in d for d in diags)


def test_validate_classical_dobrushin_needs_two_repeats():
    # one repeat has no spread, so its marginal row would have stderr 0
    assert validate_config({"experiment": "classical-dobrushin", "repeats": 2}) == []


def _rejected(tmp_path, capsys, raw, said):
    path = _write_cfg(tmp_path, raw)
    assert main(["validate", path]) == 4
    assert main(["run", path]) == 64
    assert f"config error: potential: {said}" in capsys.readouterr().err


def test_validate_rejects_a_width_whose_lipschitz_constant_is_not_finite(tmp_path, capsys):
    raw = {"experiment": "classical-dobrushin", "potential": {"width": 1e-300}}
    _rejected(tmp_path, capsys, raw, "certified constants of the gaussian potential")


def test_validate_rejects_an_amplitude_whose_growth_rate_overflows(tmp_path, capsys):
    raw = {"experiment": "quantum-dobrushin", "potential": {"amplitude": 1e300}}
    _rejected(tmp_path, capsys, raw, "Lambda = 3 + 4 Lip(grad V)^2 is not finite")


def test_validate_rejects_an_exponent_whose_growth_rate_overflows(tmp_path, capsys):
    raw = {"experiment": "classical-dobrushin", "p": 1e6}
    _rejected(tmp_path, capsys, raw, "Lambda_p = 2 K_p (1 + 2^(p-1) Lip(grad V)^p) at p=1000000.0")


@pytest.mark.parametrize(
    "raw, said",
    [
        # finite rates whose bounds overflow: e^(Lambda_p t), (2 sup_grad)^p and
        # the moment growth factor
        ({"experiment": "classical-dobrushin", "p": 1000}, "the coupling bound at p=1000"),
        # (combineq's p stops at 3, so its constant overflows on the force)
        (
            {"experiment": "combineq", "p": 3, "potential": {"amplitude": 1e120}},
            "the general constant at p=3, N=4",
        ),
        ({"experiment": "vlasov-moments", "p": 1e4}, "the moment growth factor"),
    ],
)
def test_validate_rejects_a_bound_that_overflows(tmp_path, capsys, raw, said):
    _rejected(tmp_path, capsys, raw, said)
    assert validate_config(dict(raw, p=2.0)) == []


def test_validate_rejects_a_moment_bound_that_overflows_on_the_runners_cloud(tmp_path, capsys):
    # at p = 200 the growth factor is e^597 and the runner's own initial
    # cloud has M0 = e^263.8, so their product overflows; p = 150 still runs
    raw = {"experiment": "vlasov-moments", "p": 200}
    _rejected(tmp_path, capsys, raw, "the moment bound M0 e^((p-1)(1 + 2 Lip(grad V)) t) at p=200")
    assert validate_config(dict(raw, p=150)) == []


@pytest.mark.parametrize(
    "raw",
    [
        # a step count (t - t_prev)/dt that overflows, from finite t_final and dt
        {"experiment": "quantum-dobrushin", "t_final": 1e300, "dt": 1e-300},
        # a grid spacing too small for a finite Nyquist wavenumber, or its square
        {"experiment": "mk-bracket", "box": 5e-324},
        {"experiment": "toeplitz-identities", "box": 1e-300},
        # NaN and Infinity, which Python's json reads as floats
        {"experiment": "classical-dobrushin", "times": math.inf},
        {"experiment": "classical-dobrushin", "dt": math.nan},
        {"experiment": "vlasov-moments", "times": [0.25, math.inf]},
        {"experiment": "quantum-dobrushin", "center": [0.3, math.nan]},
        {"experiment": "mk-bracket", "center_scale": math.inf},
        {"experiment": "toeplitz-identities", "epsilon": math.inf},
        {"experiment": "combineq", "p": math.inf},
        {"experiment": "ot-selftest", "potential": {"amplitude": math.nan}},
    ],
)
def test_validate_rejects_non_finite_numbers_and_overflowing_steps(tmp_path, capsys, raw):
    path = _write_cfg(tmp_path, raw)
    assert main(["validate", path]) == 4
    assert main(["run", path]) == 64
    captured = capsys.readouterr()
    assert "config error: " in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_validate_a_gaussian_width_whose_square_overflows():
    # V is flat to round-off: Lip(grad V) = 0, and every bound is finite
    raw = {"experiment": "combineq", "potential": {"width": 1e300}}
    assert validate_config(raw) == []
    assert make_potential(raw["potential"]).lip_grad == 0.0


def test_validate_checks_the_marginal_rows_p2_bound():
    # at p = 1 the growth bound is finite, but the marginal rows' MK2 bound
    # at p = 2 overflows: e^(Lambda_2 t) with Lambda_2 = 2 (1 + 2 * 20^2)
    raw = {"experiment": "classical-dobrushin", "p": 1, "potential": {"amplitude": 20.0}}
    diags = validate_config(raw)
    assert len(diags) == 1 and "the coupling bound at p=2.0, N=16, t=1.0 is not finite" in diags[0]
    assert validate_config(dict(raw, potential={"amplitude": 1.0})) == []


def test_validate_ot_selftest_max_support_upper_end():
    # the top of the range the permutation oracle can enumerate
    assert validate_config({"experiment": "ot-selftest", "max_support": 9}) == []


def test_classical_dobrushin_jsonl_independent_of_jobs(tmp_path, monkeypatch):
    raw = dict(
        CLASSICAL_FREE,
        potential={"family": "gaussian"},
        N=[4, 8, 4],
        samples=8,
        repeats=8,
        times=[0.1, 0.2],
    )
    path = _write_cfg(tmp_path, raw)
    blobs = []
    # 1 to 3 usable CPUs give 1 to 3 solve threads under --jobs 1, and 1 or
    # 2 sweep threads sharing them under --jobs 2
    for cpus in (1, 2, 3):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        for jobs in ("1", "2", "1"):
            out = tmp_path / f"cpus{cpus}-jobs{jobs}-{len(blobs)}"
            assert main(["run", path, "--jobs", jobs, "--out", str(out)]) in (0, 2)
            blobs.append((out / "classical-dobrushin.jsonl").read_bytes())
    assert len(set(blobs)) == 1
    rows = [json.loads(line) for line in blobs[0].decode().splitlines()]
    slope = [r for r in rows if r["inequality_id"] == "coupling-distance-scaling-slope"]
    growth = [r["lhs_measured"] for r in rows if r["inequality_id"] == "dobrushin-functional-growth"]
    # one growth row per N and sample time; the slope is fit on the last
    # of each N, and N = 4 twice draws twice
    finals = growth[1::2]
    assert len(slope) == 1 and len(growth) == 6 and finals[0] != finals[2]
    fit = np.polyfit(np.log([4, 8, 4]), 0.5 * np.log(finals), 1)[0]
    assert slope[0]["constants"]["slope"] == fit


@pytest.mark.parametrize(
    "raw, rate_id",
    [
        (
            {
                "experiment": "classical-dobrushin",
                "seed": 1,
                "N": [8, 8],
                "samples": 32,
                "reference_size": 256,
                "times": [0.25],
                "repeats": 8,
            },
            "coupling-distance-scaling-slope",
        ),
        (
            {"experiment": "combineq", "seed": 1, "N": [16, 16], "mc_samples": 2000},
            "consistency-scaling-slope",
        ),
    ],
    ids=["classical-dobrushin", "combineq"],
)
def test_repeated_particle_counts_write_no_rate_row(raw, rate_id):
    # a fit over log N needs two distinct N: over one repeated N, np.polyfit
    # warns and fits noise, so no N-rate row is written
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_experiment(build_config(raw))
    assert rows and rate_id not in {r.inequality_id for r in rows}
    rows = run_experiment(build_config(dict(raw, N=[8, 16])))
    assert [r.inequality_id for r in rows].count(rate_id) == 1


@pytest.mark.parametrize("N", [[4, 16], [4]])
def test_combineq_with_a_zero_potential_writes_no_rate_row(tmp_path, N):
    # every mean is 0, so log(mean) is -inf and a fit over it is nan, which
    # the JSON writer refuses: no N-rate row is written, and the run exits 0
    raw = {
        "experiment": "combineq",
        "seed": 1,
        "mc_samples": 200,
        "N": N,
        "potential": {"amplitude": 0},
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_experiment(build_config(raw))
        assert rows and all(r.lhs_measured == 0.0 for r in rows)
        assert "consistency-scaling-slope" not in {r.inequality_id for r in rows}
        assert main(["run", _write_cfg(tmp_path, raw), "--out", str(tmp_path)]) == 0
    assert "consistency-scaling-slope" not in (tmp_path / "combineq.jsonl").read_text()


def test_classical_dobrushin_with_a_zero_potential_writes_no_rate_row(tmp_path):
    # identical free flows: every final D_N^p is 0 and has no finite log, so
    # no N-rate is fit on them, and every row the run writes passes
    raw = dict(CLASSICAL_FREE, N=[8, 32], samples=16, repeats=8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = run_experiment(build_config(raw))
        growth = [r.lhs_measured for r in rows if r.inequality_id == "dobrushin-functional-growth"]
        assert growth == [0.0, 0.0]
        assert "coupling-distance-scaling-slope" not in {r.inequality_id for r in rows}
        assert main(["run", _write_cfg(tmp_path, raw), "--out", str(tmp_path)]) == 0
    assert "coupling-distance-scaling-slope" not in (tmp_path / "classical-dobrushin.jsonl").read_text()


def test_empirical_chaos_sq_independent_of_workers():
    # 7 repeats, one queued solve each, on 1 to 3 pool threads; each repeat
    # has its own seed child, so the mean, standard error and floor are
    # bit-identical
    rng = np.random.default_rng(0)
    Y, H = rng.standard_normal((2, 5, 6, 1))
    pool = rng.standard_normal((40, 2))
    triples = []
    for workers in (1, 2, 3):
        with _SolvePool(workers) as solves:
            pairs = _submit_chaos_repeats(solves, Y, H, pool, 7, np.random.SeedSequence(9))
        triples.append(_empirical_chaos_sq(pairs))
    assert triples[0] == triples[1] == triples[2]
    assert triples[0][1] > 0.0


def test_a_queued_chaos_repeat_holds_at_most_512_bytes():
    # a pool with no thread runs nothing before it closes, so what 2048
    # queued repeats hold is traced while they wait: the queue holds bare
    # callables, with no future and no seed object per repeat
    rng = np.random.default_rng(0)
    Y, H = rng.standard_normal((2, 5, 6, 1))
    pool = rng.standard_normal((40, 2))
    repeats = 2048
    with _SolvePool(0) as solves:
        tracemalloc.start()
        try:
            pairs = _submit_chaos_repeats(solves, Y, H, pool, repeats, np.random.SeedSequence(9))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
    solves.check()
    assert held / repeats <= 512, held / repeats
    assert np.isfinite(pairs).all()


def _solve_threads(raw: dict, cpus: int, jobs: int, threads: int) -> set:
    """Run `raw` under `jobs` on `cpus` usable CPUs; the ids of the threads
    its exact-transport solves ran on, the closing thread (the caller) among
    them if it ran one.  Each new pool thread waits until `threads` pool
    threads have started, so a run whose solves cannot run on that many pool
    threads at once fails; the closing thread waits for them too before its
    first solve, so it cannot run every solve before they start."""
    ids = set()
    lock = threading.Lock()
    closing = threading.get_ident()
    all_started = threading.Event()
    started = threading.Barrier(max(1, threads), action=all_started.set)

    def recording(solver):
        def solve(*args, **kwargs):
            me = threading.get_ident()
            with lock:
                new = me not in ids
                ids.add(me)
            if new and me != closing:
                started.wait(timeout=30)
            elif new and threads:
                assert all_started.wait(timeout=30)
            return solver(*args, **kwargs)

        return solve

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(experiments, "_usable_cpus", lambda: cpus)
        for name in ("assignment_cost", "lattice_lower"):
            patch.setattr(experiments, name, recording(getattr(experiments, name)))
        run_experiment(build_config(raw), jobs=jobs)
    return ids


#: One config per runner that queues solves, with its sweep's point count:
#: the Husimi pipelines sweep two epsilons, while classical-dobrushin
#: advances every N together, so its sweep is one point whatever N holds.
SOLVE_SWEEPS = {
    **{exp: (raw, 2) for exp, raw in HUSIMI_PIPELINES.items()},
    "classical-dobrushin": (dict(CLASSICAL_FREE, N=[4, 8], repeats=8), 1),
}


@pytest.mark.parametrize("experiment", sorted(SOLVE_SWEEPS))
def test_solve_threads_share_the_cores_the_sweep_leaves_free(experiment):
    # 1 to 4 usable CPUs, less one for each of the 1 or 2 sweep threads: the
    # pool has a thread for each core left, none on one core, where the
    # closing thread runs every solve
    raw, points = SOLVE_SWEEPS[experiment]
    closing = threading.get_ident()
    for cpus in (1, 2, 3, 4):
        for jobs in (1, 2):
            threads = max(0, cpus - min(jobs, points))
            ids = _solve_threads(raw, cpus, jobs, threads)
            assert len(ids - {closing}) == threads, (cpus, jobs)
            if not threads:
                assert ids == {closing}, (cpus, jobs)


def test_solve_workers_use_the_cores_a_short_sweep_leaves_free(monkeypatch):
    # --jobs 2 on one epsilon runs one sweep thread, so the pool gets every
    # core but that one
    closing = threading.get_ident()
    for eps, jobs, threads in (
        ([0.5], 2, 3),
        ([0.5], 1, 3),
        ([0.5, 0.25], 2, 2),
        ([0.5, 0.25, 0.5], 2, 2),
        ([0.5, 0.25, 0.5], 4, 1),
    ):
        raw = dict(HUSIMI_PIPELINES["mk-bracket"], epsilon=eps, pairs=4 * len(eps))
        assert len(_solve_threads(raw, 4, jobs, threads) - {closing}) == threads
    # classical-dobrushin's sweep is one point, so every N list gets every
    # core but the sweep's
    for N in ([8], [4, 8, 4]):
        ids = _solve_threads(dict(CLASSICAL_FREE, N=N, repeats=8), 4, 4, 3)
        assert len(ids - {closing}) == 3
    # a pool of three threads starts one for a run's only solve, and a pool
    # on one core none: the closing thread runs it
    solve = experiments.lattice_lower
    before = threading.active_count()
    raw = {"experiment": "mk-bracket", "seed": 4, "epsilon": [0.5], "pairs": 1}
    for cpus, threads in ((4, 1), (1, 0)):
        counts = []

        def counting(*args, **kwargs):
            counts.append((threading.active_count(), threading.get_ident() == closing))
            return solve(*args, **kwargs)

        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(experiments, "lattice_lower", counting)
        assert len(run_experiment(build_config(raw))) == 3
        assert len(counts) == 1 and counts[0][0] == before + threads
        if not threads:
            assert counts == [(before, True)]


def test_resource_error_in_a_solve_block_exits_3(tmp_path, monkeypatch):
    # the solves run on two pool threads beside the sweep thread and then on
    # the closing thread; their error must still reach main, and the first
    # error stops the run: no thread starts another solve, and the solves
    # still queued and the later segments never call the solver
    calls = []

    def capped(*args, **kwargs):
        calls.append(threading.get_ident())
        raise ResourceCapError("support exceeds cap")

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(experiments, "assignment_cost", capped)
    raw = dict(CLASSICAL_FREE, N=[8, 8], times=[0.05, 0.1, 0.15, 0.2])
    assert main(["run", _write_cfg(tmp_path, raw), "--out", str(tmp_path)]) == 3
    assert 1 <= len(calls) <= 3 and len(set(calls)) == len(calls)
    assert len(set(calls) - {threading.get_ident()}) <= 2


def test_a_failing_sweep_point_stops_its_siblings_under_jobs_2(tmp_path, monkeypatch):
    # epsilon = 0.5 runs out of memory in its first segment once epsilon =
    # 0.25 has begun its own; 0.25 stops at its next check, not after all
    # six segments
    started = threading.Event()
    segments = []
    advance = experiments.factored_coupled_advance

    def failing(coupling, ref, *args, **kwargs):
        if ref.grid.epsilon == 0.5:
            assert started.wait(timeout=30)
            raise MemoryError("segment")
        segments.append(1)
        started.set()
        return advance(coupling, ref, *args, **kwargs)

    monkeypatch.setattr(experiments, "factored_coupled_advance", failing)
    raw = dict(HUSIMI_PIPELINES["quantum-dobrushin"], epsilon=[0.5, 0.25], t_final=0.12, n_times=7)
    assert main(["run", _write_cfg(tmp_path, raw), "--jobs", "2", "--out", str(tmp_path)]) == 3
    assert 1 <= len(segments) <= 2


@pytest.mark.parametrize("experiment", sorted(HUSIMI_PIPELINES))
def test_husimi_pipeline_jsonl_independent_of_cores(tmp_path, monkeypatch, experiment):
    path = _write_cfg(tmp_path, HUSIMI_PIPELINES[experiment])
    blobs = []
    for cpus, jobs in ((1, "1"), (4, "1"), (1, "2"), (4, "2")):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        out = tmp_path / f"cpus{cpus}-jobs{jobs}"
        assert main(["run", path, "--jobs", jobs, "--out", str(out)]) == 0
        blobs.append((out / f"{experiment}.jsonl").read_bytes())
    assert len(set(blobs)) == 1


@pytest.mark.parametrize(
    "raw",
    [OT_TINY, {"experiment": "combineq", "seed": 3, "mc_samples": 2000}],
    ids=lambda raw: raw["experiment"],
)
def test_sweeps_that_queue_no_solve_start_no_pool_thread(tmp_path, monkeypatch, raw):
    # the same rows on 1 or 4 usable CPUs under --jobs 1 or 2; no thread but
    # the sweep's own runs, and no pool hands a heap back
    before = threading.active_count()
    counts, trims = [], []
    make_report = bounds.make_report

    def counting(*args, **kwargs):
        counts.append(threading.active_count())
        return make_report(*args, **kwargs)

    monkeypatch.setattr(bounds, "make_report", counting)
    monkeypatch.setattr(experiments, "_MALLOC_TRIM", trims.append)
    path = _write_cfg(tmp_path, raw)
    blobs = []
    for cpus, jobs in ((1, 1), (4, 1), (1, 2), (4, 2)):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        counts.clear()
        out = tmp_path / f"cpus{cpus}-jobs{jobs}"
        assert main(["run", path, "--jobs", str(jobs), "--out", str(out)]) in (0, 2)
        blobs.append((out / f"{raw['experiment']}.jsonl").read_bytes())
        # --jobs 1 sweeps on the calling thread, --jobs 2 on two threads
        assert counts and max(counts) <= before + (jobs if jobs > 1 else 0)
    assert len(set(blobs)) == 1 and trims == []


@pytest.mark.parametrize("experiment", sorted(HUSIMI_PIPELINES))
def test_resource_error_in_a_queued_lattice_solve_exits_3(tmp_path, monkeypatch, experiment):
    # one core, so no pool thread: the closing thread takes the first solve
    # once the sweep has queued every solve, it fails, and the solves queued
    # behind it never reach the solver
    calls = []
    swept = threading.Event()

    class Closing(_SolvePool):
        def __exit__(self, *exc):
            swept.set()  # the pool closes once the sweep is done
            return super().__exit__(*exc)

    def capped(*args, **kwargs):
        calls.append(threading.get_ident())
        assert swept.is_set()
        raise ResourceCapError("support exceeds cap")

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(experiments, "_SolvePool", Closing)
    monkeypatch.setattr(metrics, "wasserstein_exact", capped)
    path = _write_cfg(tmp_path, HUSIMI_PIPELINES[experiment])
    assert main(["run", path, "--out", str(tmp_path)]) == 3
    assert calls == [threading.get_ident()]


def test_solve_pool_trims_the_heap_once_its_threads_have_joined(monkeypatch):
    # the trim sees only the threads that were there before the pool, on
    # success and when a block raised; a pool of no thread starts none, and
    # its closing thread runs the solves in submit order before the trim
    before = threading.active_count()
    trims = []

    def trim(pad):
        assert pad == 0
        trims.append(threading.active_count())

    monkeypatch.setattr(experiments, "_MALLOC_TRIM", trim)
    done = [None] * 3
    with _SolvePool(2) as solves:
        for k in range(3):
            solves.submit(partial(done.__setitem__, k, k))
    solves.check()
    assert done == [0, 1, 2]
    assert trims == [before]

    def capped():
        raise ResourceCapError("support exceeds cap")

    with pytest.raises(ResourceCapError):
        with _SolvePool(2) as solves:
            solves.submit(capped)
            for _ in range(10**4):  # the block raises once a pool thread has run it
                solves.check()
                time.sleep(1e-3)
    assert trims == [before, before]

    def where(k):
        ran.append((k, threading.get_ident(), threading.active_count(), len(trims)))

    ran = []
    with _SolvePool(0) as solves:
        for k in range(3):
            solves.submit(partial(where, k))
        assert ran == []
    closing = threading.get_ident()
    assert ran == [(k, closing, before, 2) for k in range(3)]
    assert trims == [before] * 3


def test_pool_threads_take_their_assignment_workspace_with_them(monkeypatch):
    # each thread that solves, the closing thread among them, solves in its
    # own buffers; once the pool has closed, before the heap is trimmed, no
    # buffer of theirs is left, and the closing thread holds none.  With no
    # pool thread the closing thread runs every solve
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(2, 128, 2))
    held, freed_at_trim = [], []

    def solve():
        transport.assignment_cost(x, y)
        held.extend(weakref.ref(buffer) for buffer in transport._workspace.buffers)

    def trim(pad):
        freed_at_trim.append(all(ref() is None for ref in held))

    monkeypatch.setattr(experiments, "_MALLOC_TRIM", trim)
    for workers in (2, 0):
        held.clear()
        transport.assignment_cost(x, y)  # the closing thread's own workspace
        held.extend(weakref.ref(buffer) for buffer in transport._workspace.buffers)
        with _SolvePool(workers) as solves:
            for _ in range(4):
                solves.submit(solve)
        assert len(held) == 10 and not hasattr(transport._workspace, "buffers")
    assert freed_at_trim == [True, True]


@pytest.mark.parametrize("experiment", sorted(SOLVE_SWEEPS))
def test_sweep_and_solve_threads_never_outnumber_the_cores(monkeypatch, experiment):
    # every sweep point and solve runs through the pool's `run`: at no moment
    # do more threads run in it than the usable CPUs, unless --jobs itself
    # asks for more sweep threads than that
    raw, points = SOLVE_SWEEPS[experiment]
    lock = threading.Lock()
    running, most = [0], [0]

    class Counting(_SolvePool):
        def run(self, task):
            with lock:
                running[0] += 1
                most[0] = max(most[0], running[0])
            try:
                time.sleep(1e-3)  # long enough for the others to overlap it
                return super().run(task)
            finally:
                with lock:
                    running[0] -= 1

    monkeypatch.setattr(experiments, "_SolvePool", Counting)
    for cpus in (1, 2, 3, 4):
        monkeypatch.setattr(experiments, "_usable_cpus", lambda: cpus)
        for jobs in (1, 2):
            most[0] = 0
            run_experiment(build_config(raw), jobs=jobs)
            assert 1 <= most[0] <= max(cpus, min(jobs, points)), (cpus, jobs, most[0])


def _joined(target, timeout=60.0):
    """target() on a thread of its own, joined within `timeout` seconds:
    its result, or the error it raised."""
    out = {}

    def call():
        try:
            out["result"] = target()
        except Exception as err:
            out["error"] = err

    thread = threading.Thread(target=call)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the sweep did not end within the timeout"
    return out


def test_solve_queue_under_thread_churn(monkeypatch):
    # eight usable CPUs, so seven pool threads beside the sweep thread, on
    # fewer cores, switching every microsecond: each of 2000 queued solves
    # runs exactly once, the rows come back in submit order, every join ends
    # within its timeout and no pool thread outlives its pool
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 8)
    count = 2000
    ran = []

    def solve(k):
        ran.append(k)  # list.append is atomic: a solve run twice shows twice
        return k

    def sweep(_, solves):
        rows = [None] * count

        def queued(k):
            rows[k] = solve(k)

        for k in range(count):
            solves.submit(partial(queued, k))
        return [partial(rows.__getitem__, k) for k in range(count)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = _joined(lambda: experiments._run_sweep(sweep, 1, 1))
        assert out == {"result": list(range(count))}
        assert sorted(ran) == list(range(count))
        assert not [t for t in threading.enumerate() if t.name.startswith("mflab-solve-")]

        # one failing solve: the solves the pool threads had taken before its
        # error was recorded finish, and no solve still queued starts
        started, finished = [], []
        release = threading.Event()

        def blocked(k):
            started.append(k)
            if k == 0:
                raise ResourceCapError("support exceeds cap")
            assert release.wait(timeout=30)
            finished.append(k)

        def failing_sweep(_, solves):
            for k in range(count):
                solves.submit(partial(blocked, k))
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                try:
                    solves.check()
                except ResourceCapError:
                    break
                time.sleep(1e-3)
            release.set()  # the error is recorded: let the taken solves end
            return []

        out = _joined(lambda: experiments._run_sweep(failing_sweep, 1, 1))
        assert isinstance(out.get("error"), ResourceCapError)
    finally:
        sys.setswitchinterval(interval)
    # each pool thread holds at most one solve while the error is recorded,
    # every solve taken before it finishes, and no solve queued behind it starts
    assert 0 in started and len(started) <= 7 and len(set(started)) == len(started)
    assert sorted(finished) == sorted(k for k in started if k)


def test_solve_pool_raises_each_time_with_the_recorded_traceback():
    # a check re-raises the first error from the traceback recorded with
    # it, so the thousandth check's traceback is as long as the first's
    def failing():
        raise MemoryError("solve")

    def depth(tb):
        n = 0
        while tb is not None:
            n, tb = n + 1, tb.tb_next
        return n

    lengths = []
    with _SolvePool(1) as solves:
        with pytest.raises(MemoryError):
            solves.run(failing)
        for _ in range(1000):
            with pytest.raises(MemoryError) as info:
                solves.check()
            lengths.append(depth(info.value.__traceback__))
    assert lengths[-1] == lengths[0]


@pytest.mark.parametrize(
    "libc",
    [pytest.param(None, id="no-c-library"), pytest.param(SimpleNamespace(), id="no-malloc-trim")],
)
def test_runs_complete_where_libc_has_no_malloc_trim(tmp_path, monkeypatch, libc):
    path = _write_cfg(tmp_path, HUSIMI_PIPELINES["mk-bracket"])
    assert main(["run", path, "--out", str(tmp_path / "trimmed")]) == 0

    def cdll(name):
        if libc is None:
            raise OSError("no C library")
        return libc

    monkeypatch.setattr(experiments.ctypes, "CDLL", cdll)
    monkeypatch.setattr(experiments, "_MALLOC_TRIM", experiments._find_malloc_trim())
    assert experiments._MALLOC_TRIM is None
    assert main(["run", path, "--out", str(tmp_path / "untrimmed")]) == 0
    jsonl = [(tmp_path / out / "mk-bracket.jsonl").read_bytes() for out in ("trimmed", "untrimmed")]
    assert jsonl[0] == jsonl[1]


@pytest.mark.parametrize("N", [[8], [8, 16, 32]])
def test_classical_run_builds_one_field_per_step(monkeypatch, N):
    # every N's ensemble steps under the run's one Vlasov reference, so a
    # run of 10 steps builds its frozen field 10 times whatever N holds
    calls = []
    frozen = classical._frozen_field

    def counting(*args, **kwargs):
        calls.append(1)
        return frozen(*args, **kwargs)

    monkeypatch.setattr(classical, "_frozen_field", counting)
    raw = dict(CLASSICAL_FREE, N=N, samples=8, times=[0.25, 0.5], repeats=4)
    run_experiment(build_config(raw))
    assert len(calls) == 10


def test_error_in_a_trajectory_segment_exits_3(tmp_path, monkeypatch):
    # a segment that runs out of memory ends the run with the resource code
    # once the solves it already queued are cancelled or done
    segments = []
    advance = experiments.run_coupled_trajectory

    def failing(*args, **kwargs):
        segments.append(1)
        if len(segments) == 3:
            raise MemoryError("segment")
        return advance(*args, **kwargs)

    monkeypatch.setattr(experiments, "run_coupled_trajectory", failing)
    raw = dict(CLASSICAL_FREE, N=[8, 8], times=[0.05, 0.1, 0.15, 0.2])
    assert main(["run", _write_cfg(tmp_path, raw), "--out", str(tmp_path)]) == 3
    assert len(segments) == 3


def test_build_config_rejects_diagnostics():
    with pytest.raises(ValueError):
        build_config({"experiment": "frobnicate"})


def test_build_config_overrides_and_params():
    cfg = build_config(dict(OT_TINY, seed=42, out="/tmp/somewhere"))
    assert cfg.seed == 42
    assert cfg.out == "/tmp/somewhere"
    assert cfg.params["n_clouds"] == 4
    assert "experiment" not in cfg.params
    # every parameter a runner reads is filled in, and nothing else
    assert cfg.params["max_support"] == 5 and "p" not in cfg.params
    for experiment, spec in PARAMS.items():
        params = build_config({"experiment": experiment}).params
        assert params == {key: default for key, (default, _, _) in spec.items()}, experiment


def test_run_experiment_unknown_id():
    cfg = ExperimentConfig(experiment="nope", potential={}, seed=0)
    with pytest.raises(ValueError):
        run_experiment(cfg)


# ---------------------------------------------------------------- runners


def test_ot_selftest_rows_pass_and_are_deterministic(tmp_path):
    cfg = build_config(dict(OT_TINY))
    rows_a = run_experiment(cfg)
    rows_b = run_experiment(cfg)
    assert len(rows_a) == 2 * OT_TINY["n_clouds"]
    assert all(r.passed for r in rows_a)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    write_reports_jsonl(rows_a, pa)
    write_reports_jsonl(rows_b, pb)
    assert pa.read_bytes() == pb.read_bytes()


def test_classical_dobrushin_free_dynamics_passes():
    rows = run_experiment(build_config(dict(CLASSICAL_FREE)))
    by_id = {r.inequality_id: r for r in rows}
    growth = by_id["dobrushin-functional-growth"]
    # identical free flows on both sides: the functional is exactly zero
    assert growth.lhs_measured == 0.0
    assert growth.rhs == 0.0
    assert all(r.passed for r in rows)


def test_classical_dobrushin_marginal_rows_carry_the_mk2_bound():
    # the chaos repeats solve MK2 whatever p the growth rows use, so at p = 3
    # the marginal rows take the p = 2 bound and constants
    raw = dict(
        CLASSICAL_FREE,
        potential={"family": "gaussian"},
        p=3,
        N=[8, 16],
        samples=8,
        reference_size=64,
        times=[0.25],
        repeats=4,
    )
    rows = run_experiment(build_config(raw))
    V = make_potential(raw["potential"])
    growth = [r for r in rows if r.inequality_id == "dobrushin-functional-growth"]
    marginal = [r for r in rows if r.inequality_id == "marginal-transport-convergence"]
    slope = [r for r in rows if r.inequality_id == "coupling-distance-scaling-slope"]
    assert len(growth) == len(marginal) == 2 and len(slope) == 1
    for N, g, m in zip(raw["N"], growth, marginal):
        assert g.rhs == bounds.classical_rhs(V, 3.0, N, 1, 0.25)
        assert g.constants["p"] == 3.0 and g.constants["K_p"] == 2.0
        assert m.rhs == bounds.classical_rhs(V, 2.0, N, 1, 0.25) < g.rhs
        assert m.constants["p"] == 2.0 and m.constants["K_p"] == 1.0
        assert m.constants["Lambda_p"] == bounds.lambda_p_constant(2.0, V.lip_grad)
        assert m.tolerance == experiments.W2_TOLERANCE
    assert slope[0].tolerance == experiments.SLOPE_TOLERANCE


def test_classical_dobrushin_draws_its_reference_once(monkeypatch):
    # every N starts from the one reference cloud of the run
    draws = []
    sample = experiments.sample_gaussian_cloud

    def counted(*args, **kwargs):
        draws.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample_gaussian_cloud", counted)
    run_experiment(build_config(dict(CLASSICAL_FREE, N=[8, 16], repeats=8)), jobs=2)
    assert len(draws) == 1


def test_combineq_tiny_sweep_passes():
    cfg = build_config(
        {
            "experiment": "combineq",
            "seed": 2,
            "potential": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
            "N": [4, 16],
            "mc_samples": 4000,
        }
    )
    rows = run_experiment(cfg)
    assert all(r.passed for r in rows)
    ids = {r.inequality_id for r in rows}
    assert "consistency-scaling-slope" in ids


@pytest.mark.parametrize("p, fit", [(1.0, -0.4548), (3.0, -1.4285)])
def test_combineq_predicts_slope_minus_p_over_2(p, fit):
    # E|F*mu_N - F*rho|^p falls like N^(-p/2): a prediction of -1 at every p
    # failed these rows on correct code, with lhs 0.545 and 0.428
    cfg = build_config({"experiment": "combineq", "seed": 0, "p": p, "mc_samples": 500})
    [row] = [r for r in run_experiment(cfg) if r.inequality_id == "consistency-scaling-slope"]
    assert row.constants["slope"] == pytest.approx(fit, abs=1e-4)
    assert row.lhs_measured == pytest.approx(abs(fit + p / 2), abs=1e-4) and row.passed


def test_vlasov_moments_tiny_passes():
    cfg = build_config(
        {
            "experiment": "vlasov-moments",
            "seed": 5,
            "potential": {"family": "gaussian", "amplitude": 0.8, "width": 1.2},
            "cloud_size": 512,
            "dt": 0.05,
            "times": [0.2, 0.4],
        }
    )
    rows = run_experiment(cfg)
    assert [r.time for r in rows] == [0.2, 0.4]
    assert all(r.passed for r in rows)


def test_mk_bracket_tiny_passes():
    cfg = build_config(
        {
            "experiment": "mk-bracket",
            "seed": 7,
            "epsilon": [0.5],
            "pairs": 2,
            "grid_points": 128,
            "box": 6.0,
            "center_scale": 0.6,
        }
    )
    rows = run_experiment(cfg)
    assert all(r.passed for r in rows)
    floors = [r for r in rows if r.inequality_id == "coupling-cost-floor"]
    assert floors and all(f.lhs_measured == pytest.approx(1.0) for f in floors)


def test_quantum_dobrushin_tiny_with_checkpoint(tmp_path):
    ckpt = tmp_path / "qd"
    cfg = build_config(
        {
            "experiment": "quantum-dobrushin",
            "potential": {"family": "gaussian", "amplitude": 0.4, "width": 1.0},
            "seed": 0,
            "epsilon": [0.5],
            "n_particles": 1,
            "grid_points": 64,
            "box": 8.0,
            "dt": 0.02,
            "t_final": 0.04,
            "n_times": 2,
            "center": [0.3, -0.2],
            "checkpoint": str(ckpt),
        }
    )
    rows = run_experiment(cfg)
    assert all(r.passed for r in rows)
    ids = [r.inequality_id for r in rows]
    assert ids.count("coupling-cost-growth") == 2
    assert "doubled-evolution-unitarity" in ids
    # the t = 0 coupling cost sits on the Heisenberg floor 2*d*N*eps / N
    t0 = next(r for r in rows if r.inequality_id == "coupling-cost-growth")
    assert t0.lhs_measured == pytest.approx(1.0, abs=1e-9)
    state = load_state(f"{ckpt}.eps0.5.mflabst")
    assert isinstance(state, FactoredCoupling)
    assert state.norm() == pytest.approx(1.0, abs=1e-10)


def test_toeplitz_identities_small_grid_passes():
    cfg = build_config(
        {"experiment": "toeplitz-identities", "seed": 11, "grid_points": 128, "symbols": 4}
    )
    rows = run_experiment(cfg)
    assert all(r.passed for r in rows)


def test_toeplitz_identities_frees_each_part_before_the_next():
    # at the defaults (256 grid points, a 128 x 128 Husimi lattice) the traced
    # peak was 8.8 MiB while the Wigner check's arrays and the Toeplitz
    # mixture lived on through the Husimi part; it is 4.2 MiB when each part
    # frees its n x n arrays and the transforms build their scratch in place
    budget = 6 * 2**20
    cfg = build_config({"experiment": "toeplitz-identities"})
    tracemalloc.start()
    try:
        rows = run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB"
    assert all(r.passed for r in rows)


# ---------------------------------------------------------------- CLI


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_validate_ok(tmp_path, capsys):
    code = main(["validate", _write_cfg(tmp_path, OT_TINY)])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_cli_validate_reports_diagnostics(tmp_path, capsys):
    code = main(["validate", _write_cfg(tmp_path, {"experiment": "frobnicate"})])
    assert code == 4
    assert "unknown id" in capsys.readouterr().out


def test_cli_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "results"
    code = main(["run", _write_cfg(tmp_path, OT_TINY), "--out", str(out)])
    assert code == 0
    summary = capsys.readouterr().out
    assert "ot-selftest: 8 checks, 0 failed" in summary
    jsonl = (out / "ot-selftest.jsonl").read_text().splitlines()
    assert len(jsonl) == 8
    row = json.loads(jsonl[0])
    assert row["pass"] is True
    assert row["inequality_id"] == "exact-vs-permutation-oracle"
    header = (out / "ot-selftest.csv").read_text().splitlines()[0]
    assert header == "t,lhs,rhs,margin"


def test_cli_run_byte_identical_reruns(tmp_path):
    cfg_path = _write_cfg(tmp_path, OT_TINY)
    assert main(["run", cfg_path, "--out", str(tmp_path / "r1")]) == 0
    assert main(["run", cfg_path, "--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "ot-selftest.jsonl").read_bytes()
    b2 = (tmp_path / "r2" / "ot-selftest.jsonl").read_bytes()
    assert b1 == b2


def test_cli_seed_override_changes_data(tmp_path):
    cfg_path = _write_cfg(tmp_path, OT_TINY)
    assert main(["run", cfg_path, "--out", str(tmp_path / "r1")]) == 0
    assert main(["run", cfg_path, "--seed", "99", "--out", str(tmp_path / "r3")]) == 0
    b1 = (tmp_path / "r1" / "ot-selftest.jsonl").read_bytes()
    b3 = (tmp_path / "r3" / "ot-selftest.jsonl").read_bytes()
    assert b1 != b3


def test_cli_run_rejects_unusable_seed_and_out_overrides(tmp_path, capsys, monkeypatch):
    cfg_path = _write_cfg(tmp_path, OT_TINY)
    assert main(["run", cfg_path, "--seed", "-1", "--out", str(tmp_path / "r")]) == 64
    assert "config error: seed: must be a nonnegative integer" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    # the output directory is made before the experiment, which never starts
    (tmp_path / "afile").write_text("")

    def never_run(*args, **kwargs):
        raise AssertionError("the experiment ran before its output directory was made")

    monkeypatch.setattr("mflab.cli.run_experiment", never_run)
    assert main(["run", cfg_path, "--out", str(tmp_path / "afile" / "sub")]) == 64
    assert "cannot create output directory" in capsys.readouterr().err


def test_cli_run_rejects_jobs_below_one(tmp_path, capsys, monkeypatch):
    cfg_path = _write_cfg(tmp_path, OT_TINY)

    def never_run(*args, **kwargs):
        raise AssertionError("the experiment ran with an unusable --jobs")

    monkeypatch.setattr("mflab.cli.run_experiment", never_run)
    for jobs in ("0", "-3"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["run", cfg_path, "--jobs", jobs, "--out", str(out)]) == 64, jobs
        assert f"--jobs must be at least 1, not {jobs}" in capsys.readouterr().err
        assert not out.exists()


def test_cli_run_makes_the_checkpoint_directory_before_the_run(tmp_path, capsys, monkeypatch):
    raw = {
        "experiment": "quantum-dobrushin",
        "grid_points": 64,
        "t_final": 0.04,
        "n_times": 3,
        "epsilon": [0.5],
        "checkpoint": str(tmp_path / "no" / "such" / "dir" / "ck"),
    }
    path = _write_cfg(tmp_path, raw)
    assert main(["run", path, "--out", str(tmp_path / "r")]) == 0
    assert (tmp_path / "no" / "such" / "dir" / "ck.eps0.5.mflabst").is_file()
    # a directory that cannot be made ends the run before the experiment starts
    (tmp_path / "afile").write_text("")
    path = _write_cfg(tmp_path, dict(raw, checkpoint=str(tmp_path / "afile" / "dir" / "ck")))
    assert main(["validate", path]) == 0

    def never_run(*args, **kwargs):
        raise AssertionError("the experiment ran before its checkpoint directory was made")

    monkeypatch.setattr("mflab.cli.run_experiment", never_run)
    capsys.readouterr()
    assert main(["run", path, "--out", str(tmp_path / "r2")]) == 64
    assert "cannot create checkpoint directory" in capsys.readouterr().err
    assert not (tmp_path / "r2" / "quantum-dobrushin.jsonl").exists()


def test_cli_run_exits_64_on_an_output_file_it_cannot_write(tmp_path, capsys):
    out = tmp_path / "r"
    (out / "ot-selftest.jsonl").mkdir(parents=True)
    assert main(["run", _write_cfg(tmp_path, OT_TINY), "--out", str(out)]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot write output: ")
    assert "ot-selftest.jsonl" in err[0]


def test_cli_run_exits_64_on_a_checkpoint_file_it_cannot_write(tmp_path, capsys, monkeypatch):
    # every checkpoint path is checked before any epsilon is integrated,
    # and the check leaves no file behind
    raw = {
        "experiment": "quantum-dobrushin",
        "grid_points": 64,
        "t_final": 0.04,
        "n_times": 3,
        "epsilon": [0.5, 0.25],
        "checkpoint": str(tmp_path / "ck"),
    }
    (tmp_path / "ck.eps0.25.mflabst").mkdir()

    def never_advance(*args, **kwargs):
        raise AssertionError("an epsilon was integrated before its checkpoint path was checked")

    monkeypatch.setattr(experiments, "factored_coupled_advance", never_advance)
    assert main(["run", _write_cfg(tmp_path, raw), "--out", str(tmp_path / "r")]) == 64
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cannot write output: ")
    assert "ck.eps0.25.mflabst" in err[0]
    assert not (tmp_path / "r" / "quantum-dobrushin.jsonl").exists()
    assert not (tmp_path / "ck.eps0.5.mflabst").exists()


def test_cli_missing_config_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 64
    assert "cannot read config" in capsys.readouterr().err


def test_cli_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", str(bad)]) == 64
    assert "not valid JSON" in capsys.readouterr().err


def test_cli_run_rejects_bad_config(tmp_path, capsys):
    cfg_path = _write_cfg(tmp_path, {"experiment": "frobnicate"})
    assert main(["run", cfg_path]) == 64
    assert "config error" in capsys.readouterr().err


def test_cli_no_arguments_is_usage_error():
    assert main([]) == 64


def test_import_loads_no_heavy_scipy_subpackages():
    # the convolutions use scipy.fft and combineq its own normal law, so the
    # package and its command line start without these subpackages: each
    # would add 20-510 ms to every run's start, so a function that needs
    # one (say scipy.integrate.solve_ivp) imports it in its own body
    heavy = [["scipy", sub] for sub in ("stats", "signal", "integrate", "interpolate", "ndimage")]
    code = (
        "import sys, mflab, mflab.cli, mflab.experiments; "
        f"print(sorted(m for m in sys.modules if m.split('.')[:2] in {heavy!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    # a name left in __all__ after its binding is deleted breaks star imports
    import mflab
    from mflab import bounds, quantum

    for module in (mflab, quantum, bounds):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert missing == [], (module.__name__, missing)
    exec("from mflab import *", {})


def test_cli_module_entry_point(tmp_path):
    cfg_path = _write_cfg(tmp_path, OT_TINY)
    proc = subprocess.run(
        [sys.executable, "-m", "mflab.cli", "validate", cfg_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
