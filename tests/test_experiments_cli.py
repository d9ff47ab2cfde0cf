"""Experiment-runner and CLI tests on deliberately small configurations.

Every runner is exercised once end-to-end; the CLI tests cover the exit-code
contract (0 ok / 2 failed bound / 4 diagnostics / 64 unusable input) and the
byte-level determinism of the JSONL output for a fixed (config, seed) pair.
"""
import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from mflab import experiments
from mflab.bounds import write_reports_jsonl
from mflab.cli import main
from mflab.errors import ResourceCapError
from mflab.experiments import (
    PARAMS,
    ExperimentConfig,
    _empirical_chaos_sq,
    _SolvePool,
    _solve_workers,
    _submit_chaos_repeats,
    build_config,
    make_potential,
    run_experiment,
    time_schedule,
    validate_config,
)
from mflab.quantum import GridSpec, coherent_state, metrics
from mflab.quantum.grids import load_state
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
    raw = {"experiment": "quantum-dobrushin", "grid_points": 128, "n_particles": 2}
    # only a checkpoint builds the doubled state; the run itself holds the
    # 16*128^2-byte Y factor (dt 0.01 keeps the Nyquist phase below pi)
    diags = validate_config(dict(raw, checkpoint="state"))
    assert any(str(16 * 128**4) in d for d in diags)
    assert validate_config(dict(raw, dt=0.01)) == []
    # under a cap below even one grid line, validation still reports, not raises
    monkeypatch.setenv("MFLAB_MEMORY_CAP_BYTES", "1000")
    diags = validate_config({"experiment": "quantum-dobrushin"})
    assert len(diags) == 1 and "over the memory cap 1000" in diags[0]
    assert validate_config({"experiment": "toeplitz-identities"}) == []


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


def test_guard_band_abort_exits_3_at_the_integrated_time(tmp_path, capsys):
    # a coherent state of width sqrt(eps) on a box of half-width 4 leaks past
    # the guard band before the first step
    raw = {
        "experiment": "quantum-dobrushin",
        "n_particles": 1,
        "grid_points": 32,
        "box": 4.0,
        "epsilon": [0.5],
        "dt": 0.02,
        "t_final": 0.1,
        "n_times": 2,
    }
    out = tmp_path / "out"
    assert main(["run", _write_cfg(tmp_path, raw), "--out", str(out)]) == 3
    assert "guard band tripped at t=0.0" in capsys.readouterr().err
    jsonl = (out / "quantum-dobrushin.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in jsonl]
    assert [r["inequality_id"] for r in rows] == [
        "guard-band-interior-mass",
        "doubled-evolution-unitarity",
    ]
    assert rows[1]["time"] == 0.0 and rows[1]["constants"]["steps"] == 0
    assert len((out / "quantum-dobrushin.csv").read_text().splitlines()) == 3


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
# entry is the diagnostic expected in place of "<key>: <value> must be"
BAD_KNOBS = {
    "ot-selftest": [
        ("n_clouds", "x"),
        ("max_support", 1),
        ("dims", ["x"]),
        ("p", "2"),
        ("seed", True, "seed: must be a nonnegative integer"),
        ("out", 5, "out: must be a string or null"),
    ],
    "combineq": [("mc_samples", "x"), ("mc_samples", 0), ("p", 0.5), ("slope_tolerance", "x")],
    "classical-dobrushin": [
        ("samples", "x"),
        ("samples", 1),
        ("reference_size", "x"),
        ("repeats", "x"),
        ("w2_tolerance", None),
        ("reference_size", 10),
        ("sample", 32, "sample: not a parameter of classical-dobrushin"),
    ],
    "vlasov-moments": [("cloud_size", "x"), ("cloud_size", 2.0), ("p", "x")],
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
    ],
}


@pytest.mark.parametrize("experiment", sorted(BAD_KNOBS))
def test_validate_numeric_knobs(tmp_path, capsys, experiment):
    for key, value, *said in BAD_KNOBS[experiment]:
        path = _write_cfg(tmp_path, {"experiment": experiment, key: value})
        assert main(["validate", path]) == 4, (key, value)
        assert main(["run", path]) == 64, (key, value)
        want = said[0] if said else f"{key}: {value!r} must be"
        assert f"config error: {want}" in capsys.readouterr().err, (key, value)
    assert validate_config({"experiment": experiment}) == []


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


def test_empirical_chaos_sq_independent_of_workers():
    # 7 repeats split unevenly over 2 and 3 blocks; each repeat has its own
    # seed child, so the mean, standard error and floor are bit-identical
    rng = np.random.default_rng(0)
    Y, H = rng.standard_normal((2, 5, 6, 1))
    pool = rng.standard_normal((40, 2))
    triples = []
    for workers in (1, 2, 3):
        with _SolvePool(workers) as solves:
            blocks = _submit_chaos_repeats(solves, Y, H, pool, 7, np.random.SeedSequence(9))
            assert len(blocks) == workers
            triples.append(_empirical_chaos_sq(blocks))
    assert triples[0] == triples[1] == triples[2]
    assert triples[0][1] > 0.0


def _record_solve_workers(monkeypatch) -> list:
    """Patch the solve pool to log the thread count of each run."""
    seen = []

    class Recording(_SolvePool):
        def __init__(self, workers):
            seen.append(workers)
            super().__init__(workers)

    monkeypatch.setattr(experiments, "_SolvePool", Recording)
    return seen


def test_solve_workers_use_the_cores_a_short_sweep_leaves_free(monkeypatch):
    # --jobs 2 on one N runs one sweep thread, so the solves get every core
    seen = _record_solve_workers(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    for N, jobs in (([8], 2), ([8], 1), ([4, 8], 2), ([4, 8, 4], 2), ([4, 8, 4], 4)):
        run_experiment(build_config(dict(CLASSICAL_FREE, N=N, repeats=8)), jobs=jobs)
    assert seen == [4, 4, 2, 2, 1]


def test_resource_error_in_a_solve_block_exits_3(tmp_path, monkeypatch):
    # the solve blocks run on pool threads; their error must still reach
    # main, and the first error stops the run: the blocks still queued and
    # the later segments never call the solver
    calls = []

    def capped(*args, **kwargs):
        calls.append(1)
        raise ResourceCapError("support exceeds cap")

    seen = _record_solve_workers(monkeypatch)
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(experiments, "wasserstein_exact", capped)
    raw = dict(CLASSICAL_FREE, N=[8, 8], times=[0.05, 0.1, 0.15, 0.2])
    assert main(["run", _write_cfg(tmp_path, raw), "--out", str(tmp_path)]) == 3
    assert seen == [3] and 1 <= len(calls) <= 3


def test_solve_workers_share_the_cores_the_sweep_leaves_free(monkeypatch):
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    assert [_solve_workers(8, jobs, 3) for jobs in (1, 2, 4)] == [1, 1, 1]
    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 4)
    # --jobs above the sweep length runs one thread per sweep point
    assert [_solve_workers(8, jobs, 2) for jobs in (1, 2, 3, 8)] == [4, 2, 2, 2]
    assert _solve_workers(8, 8, 1) == 4
    # no thread without a task to run
    assert [_solve_workers(tasks, 1, 2) for tasks in (1, 2, 3)] == [1, 2, 3]


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


@pytest.mark.parametrize("experiment", sorted(HUSIMI_PIPELINES))
def test_resource_error_in_a_queued_lattice_solve_exits_3(tmp_path, monkeypatch, experiment):
    # one pool thread: the first solve fails once the sweep has queued every
    # solve, and the solves queued behind it never reach the solver
    calls = []
    swept = threading.Event()
    resolved = experiments._resolved

    def after_the_sweep(entries):
        swept.set()
        return resolved(entries)

    def capped(*args, **kwargs):
        calls.append(1)
        assert swept.wait(timeout=30)
        raise ResourceCapError("support exceeds cap")

    monkeypatch.setattr(experiments, "_usable_cpus", lambda: 1)
    monkeypatch.setattr(experiments, "_resolved", after_the_sweep)
    monkeypatch.setattr(metrics, "wasserstein_exact", capped)
    path = _write_cfg(tmp_path, HUSIMI_PIPELINES[experiment])
    assert main(["run", path, "--out", str(tmp_path)]) == 3
    assert len(calls) == 1


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
    assert cfg.params["max_support"] == 5 and cfg.params["p"] == PARAMS["ot-selftest"]["p"][0]
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
    psi = load_state(f"{ckpt}.eps0.5.mflabst")
    assert psi.grid.doubled
    assert psi.norm() == pytest.approx(1.0, abs=1e-10)


def test_toeplitz_identities_small_grid_passes():
    cfg = build_config(
        {"experiment": "toeplitz-identities", "seed": 11, "grid_points": 128, "symbols": 4}
    )
    rows = run_experiment(cfg)
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
    # command line starts without scipy.signal, scipy.stats or scipy.interpolate
    code = (
        "import sys, mflab.cli, mflab.experiments; "
        "print(sorted(m for m in sys.modules if m.split('.')[:2] in "
        "(['scipy', 'signal'], ['scipy', 'stats'], ['scipy', 'interpolate'])))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_module_entry_point(tmp_path):
    cfg_path = _write_cfg(tmp_path, OT_TINY)
    proc = subprocess.run(
        [sys.executable, "-m", "mflab.cli", "validate", cfg_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
