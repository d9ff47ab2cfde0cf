"""Acceptance gate: one test per advertised capability, each printing a
single PASS/FAIL verdict line straight to the terminal (capture is bypassed
so the verdicts survive into piped/tee'd logs).

Criteria marry fixed-instance bound verification (experiment runners at their
default, documented parameters) with direct oracle checks where the claim is
about a solver rather than an inequality.  Tolerances and runtime budgets are
part of the contract and are asserted, not just measured.
"""
import json
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

from mflab.bounds import count_S_Np, count_S_Np_enumerate, write_reports_jsonl
from mflab.classical import PhaseState, verlet_step
from mflab.experiments import build_config, run_experiment
from mflab.potentials import make_gaussian_potential
from mflab.quantum import GridSpec, WaveFunction, coherent_state, hartree_step, split_step_linear

FIXTURE_DIR = Path(__file__).parent / "fixtures"
GAUSS = make_gaussian_potential(1.0, 1.0, 1)


_CAPSYS = None


@pytest.fixture(autouse=True)
def _expose_capsys(capsys):
    # pytest captures at the file-descriptor level, so even sys.__stdout__
    # writes are swallowed; capsys.disabled() is the supported escape hatch.
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _verdict(num: int, label: str, ok: bool) -> None:
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    print(line)
    assert ok, line


def _run(raw: dict):
    t0 = time.time()
    rows = run_experiment(build_config(raw))
    return rows, time.time() - t0


def test_criterion_01_ot_oracle_equivalence():
    rows, elapsed = _run({"experiment": "ot-selftest", "seed": 0})
    ok = (
        len(rows) == 100
        and all(r.passed for r in rows)
        and all(
            r.lhs_measured == 0.0
            for r in rows
            if r.inequality_id == "exact-vs-permutation-oracle"
        )
        and elapsed < 10.0
    )
    _verdict(1, "exact transport equals permutation oracle", ok)


def test_criterion_02_consistency_inequality():
    rows, elapsed = _run(
        {
            "experiment": "combineq",
            "seed": 0,
            "potential": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
        }
    )
    slope_rows = [r for r in rows if r.inequality_id == "consistency-scaling-slope"]
    ok = (
        all(r.passed for r in rows)
        and len(slope_rows) == 1
        and abs(slope_rows[0].constants["slope"] + 1.0) <= 0.15
        and elapsed < 30.0
    )
    _verdict(
        2,
        f"empirical-force consistency bound and 1/N scaling ({elapsed:.1f} s of 30 s)",
        ok,
    )


def test_criterion_03_index_counting():
    ok = all(
        count_S_Np(N, p) == count_S_Np_enumerate(N, p)
        for N in range(1, 6)
        for p in (2, 4)
    )
    _verdict(3, "index-set count matches exhaustive enumeration", ok)


def test_criterion_04_classical_mean_field_convergence():
    rows, elapsed = _run(
        {
            "experiment": "classical-dobrushin",
            "seed": 0,
            "potential": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
        }
    )
    slope_rows = [r for r in rows if r.inequality_id == "coupling-distance-scaling-slope"]
    ok = (
        all(r.passed for r in rows)
        and len(slope_rows) == 1
        and abs(slope_rows[0].constants["slope"] + 0.5) <= 0.15
        and elapsed < 300.0
    )
    _verdict(
        4,
        f"coupled-flow functional and marginal transport bounds ({elapsed:.1f} s of 300 s)",
        ok,
    )


def test_criterion_05_phase_space_identities():
    rows, elapsed = _run({"experiment": "toeplitz-identities", "seed": 0})
    by_id = {}
    for r in rows:
        by_id.setdefault(r.inequality_id, []).append(r)
    ok = (
        all(r.passed for r in rows)
        and by_id["wigner-coherent-closed-form"][0].tolerance == 1e-6
        and len(by_id["toeplitz-trace-identity"]) == 10
        and by_id["quadratic-symbol-expectation"][0].tolerance == 1e-4
        and elapsed < 30.0
    )
    _verdict(5, "Wigner closed form, Toeplitz trace and quadratic symbol", ok)


def test_criterion_06_coupling_cost_bracket():
    rows, elapsed = _run({"experiment": "mk-bracket", "seed": 0})
    n_instances = len([r for r in rows if r.inequality_id == "product-coupling-cost-identity"])
    ok = all(r.passed for r in rows) and n_instances >= 20 and elapsed < 60.0
    _verdict(
        6,
        "coherent coupling cost identity and squared-distance bracket "
        f"({elapsed:.1f} s of 60 s)",
        ok,
    )


def test_criterion_07_quantum_mean_field_bound():
    rows, elapsed = _run(
        {
            "experiment": "quantum-dobrushin",
            "seed": 0,
            "potential": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
        }
    )
    growth = [r for r in rows if r.inequality_id == "coupling-cost-growth"]
    chain = [r for r in rows if r.inequality_id == "husimi-lower-chain"]
    unit = [r for r in rows if r.inequality_id == "doubled-evolution-unitarity"]
    series = [
        [r.time, r.lhs_measured]
        for r in growth
        if r.constants.get("eps") == 0.25
    ]
    # the frozen series is part of the contract: a missing fixture fails
    # instead of re-freezing whatever this run produced
    fixture = FIXTURE_DIR / "quantum_dobrushin_eps025.json"
    frozen = json.loads(fixture.read_text()) if fixture.exists() else None
    regression_ok = (
        frozen is not None
        and len(frozen) == len(series)
        and all(
            f[0] == s[0] and s[1] == pytest.approx(f[1], rel=1e-9)
            for f, s in zip(frozen, series)
        )
    )
    ok = (
        all(r.passed for r in rows)
        and len(growth) == 12  # 6 sample times x 2 epsilon values
        and len(chain) == 12
        and all(u.lhs_measured <= 1e-10 for u in unit)
        and regression_ok
        and elapsed < 600.0
    )
    _verdict(7, "factorized quantum bound over the coupled flow", ok)


def test_criterion_08_solver_self_checks():
    # (a) split-step vs dense matrix exponential: third-order local error
    grid = GridSpec(1, 1, 32, 4.0, 0.25)
    x = grid.axis_points()
    rng = np.random.default_rng(1)
    vals = np.exp(-(x**2)) * (1 + 0.3 * np.cos(x)) * (1 + 0.05 * rng.standard_normal(32))
    vals = vals.astype(complex)
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * grid.h)
    psi = WaveFunction(grid, vals)
    U_tab = GAUSS(x[:, None])
    F = np.fft.fft(np.eye(32), axis=0)
    H = (
        np.fft.ifft(np.eye(32), axis=0)
        @ np.diag(grid.epsilon**2 * grid.wavenumbers() ** 2 / 2.0)
        @ F
        + np.diag(U_tab)
    )
    dts = np.array([4e-2, 2e-2, 1e-2, 5e-3])
    errs = []
    for dt in dts:
        approx = split_step_linear(psi, U_tab, dt).values
        exact = (scipy.linalg.expm(-1j * dt / grid.epsilon * H) @ psi.values).ravel()
        errs.append(np.linalg.norm(approx - exact) * np.sqrt(grid.h))
    A = np.vstack([np.log(dts), np.ones(len(dts))]).T
    slope = float(np.linalg.lstsq(A, np.log(errs), rcond=None)[0][0])
    split_ok = abs(slope - 3.0) <= 0.3

    # (b) Verlet energy drift over t=1 quarters when dt halves
    def drift(dt):
        s = PhaseState(np.array([[1.0]]), np.array([[0.0]]), 0.0)
        e0 = 0.5 * (s.positions[0, 0] ** 2 + s.momenta[0, 0] ** 2)
        worst = 0.0
        for _ in range(round(1.0 / dt)):
            s = verlet_step(s, lambda q: -q, dt)
            e = 0.5 * (s.positions[0, 0] ** 2 + s.momenta[0, 0] ** 2)
            worst = max(worst, abs(e - e0) / e0)
        return worst

    ratio = drift(0.01) / drift(0.005)
    verlet_ok = abs(ratio - 4.0) <= 0.2 * 4.0

    # (c) Hartree mass conservation over 10^3 steps
    hgrid = GridSpec(1, 1, 64, 6.0, 0.25)
    phi = coherent_state(hgrid, 0.3, 0.2)
    for _ in range(1000):
        phi = hartree_step(phi, GAUSS, 0.01)
    mass_ok = abs(phi.norm() - 1.0) <= 1e-12

    _verdict(8, "split-step order, Verlet drift scaling, Hartree mass", split_ok and verlet_ok and mass_ok)


def test_criterion_09_moment_growth():
    rows, elapsed = _run(
        {
            "experiment": "vlasov-moments",
            "seed": 0,
            "potential": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
        }
    )
    ok = (
        all(r.passed for r in rows)
        and [r.time for r in rows] == [0.25, 0.5, 0.75, 1.0]
        and elapsed < 60.0
    )
    _verdict(9, "phase-space moment growth under the exponential envelope", ok)


def test_criterion_10_byte_identical_reruns(tmp_path):
    configs = [
        {"experiment": "ot-selftest", "seed": 7, "n_clouds": 6, "max_support": 5},
        {"experiment": "toeplitz-identities", "seed": 7, "grid_points": 128, "symbols": 3},
    ]
    ok = True
    for i, raw in enumerate(configs):
        blobs = []
        for rep in range(2):
            rows = run_experiment(build_config(dict(raw)))
            path = tmp_path / f"{i}-{rep}.jsonl"
            write_reports_jsonl(rows, path)
            blobs.append(path.read_bytes())
        ok = ok and blobs[0] == blobs[1] and len(blobs[0]) > 0
    _verdict(10, "identical config and seed reproduce byte-identical output", ok)
