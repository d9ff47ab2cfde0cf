"""Experiment-runner and CLI tests on deliberately small configurations.

Every runner is exercised once end-to-end; the CLI tests cover the exit-code
contract (0 ok / 2 failed bound / 4 diagnostics / 64 unusable input) and the
byte-level determinism of the JSONL output for a fixed (config, seed) pair.
"""
import json
import subprocess
import sys

import numpy as np
import pytest

from mflab.bounds import write_reports_jsonl
from mflab.cli import main
from mflab.experiments import (
    ExperimentConfig,
    build_config,
    make_potential,
    run_experiment,
    validate_config,
)
from mflab.quantum.grids import load_state

OT_TINY = {"experiment": "ot-selftest", "seed": 3, "n_clouds": 4, "max_support": 5, "dims": [2]}

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


def test_validate_quantum_memory_estimate():
    raw = {"experiment": "quantum-dobrushin", "grid_points": 128, "n_particles": 2}
    diags = validate_config(raw)
    assert any(str(16 * 128**4) in d for d in diags)


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


def test_validate_bad_potential_family_and_width():
    diags = validate_config({"experiment": "ot-selftest", "potential": {"family": "morse"}})
    assert any("unknown family" in d for d in diags)
    diags = validate_config(
        {"experiment": "ot-selftest", "potential": {"family": "gaussian", "width": -1}}
    )
    assert any("width" in d for d in diags)


def test_build_config_rejects_diagnostics():
    with pytest.raises(ValueError):
        build_config({"experiment": "frobnicate"})


def test_build_config_overrides_and_params():
    cfg = build_config(dict(OT_TINY), seed=42, out="/tmp/somewhere")
    assert cfg.seed == 42
    assert cfg.out == "/tmp/somewhere"
    assert cfg.params["n_clouds"] == 4
    assert "experiment" not in cfg.params


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


def test_cli_module_entry_point(tmp_path):
    cfg_path = _write_cfg(tmp_path, OT_TINY)
    proc = subprocess.run(
        [sys.executable, "-m", "mflab.cli", "validate", cfg_path],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
