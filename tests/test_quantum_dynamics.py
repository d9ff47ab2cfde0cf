"""Propagators against dense matrix-exponential and closed-form oracles."""
import os
import struct
import tracemalloc
from dataclasses import replace

import doubled_oracle as oracle
import numpy as np
import pytest
import scipy.linalg

from mflab import experiments
from mflab.experiments import build_config, run_experiment
from mflab.potentials import make_gaussian_potential
from mflab.quantum import (
    FactoredCoupling,
    GridSpec,
    GuardBandError,
    WaveFunction,
    check_guard_band,
    coherent_state,
    coupling_to_factored_mixture,
    factored_coupled_advance,
    guard_band_mass,
    hartree_potential,
    hartree_step,
    load_state,
    partial_trace,
    qp_cost_trace,
    reduced_density,
    save_state,
    split_step_linear,
    state_density_matrix,
)
from mflab.quantum import dynamics
from mflab.quantum.dynamics import _density_potential, _nbody_step, coupled_quantum_advance
from mflab.quantum.grids import ResourceCapError
from mflab.transport import DiscreteMeasure

GAUSS = make_gaussian_potential(1.0, 1.0, 1)
FLAT = make_gaussian_potential(0.0, 1.0, 1)


def hartree_energy(psi: WaveFunction, V) -> float:
    """(eps^2/2) <|grad psi|^2> + (1/2) * double convolution energy; conserved
    by the continuum Hartree flow, drifts O(dt^2) under splitting."""
    grid = psi.grid
    eps = grid.epsilon
    kappa = grid.wavenumbers()
    psi_hat = np.fft.fft(psi.values)
    kinetic = float(
        np.sum(0.5 * eps**2 * kappa**2 * np.abs(psi_hat) ** 2)
        * grid.h
        / grid.points_per_axis
    )
    density = np.abs(psi.values) ** 2 * grid.h
    potential = 0.5 * float(density @ _density_potential(density, grid, V))
    return kinetic + potential


def _random_state(grid, seed=0, momentum=0.0):
    """Normalized band-limited test state; bypasses coherent-center guards."""
    rng = np.random.default_rng(seed)
    mesh = np.meshgrid(*[grid.axis_points()] * grid.n_axes, indexing="ij")
    vals = np.ones(grid.shape(), dtype=complex)
    for x in mesh:
        vals = vals * np.exp(-(x**2) + 1j * momentum * x) * (1 + 0.3 * np.cos(x))
    vals = vals * (1 + 0.05 * rng.standard_normal(grid.shape()))
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * grid.h**grid.n_axes)
    return WaveFunction(grid, vals)


def _dense_hamiltonian_1p(grid, potential_values):
    n = grid.points_per_axis
    F = np.fft.fft(np.eye(n), axis=0)
    Finv = np.fft.ifft(np.eye(n), axis=0)
    K = Finv @ np.diag(grid.epsilon**2 * grid.wavenumbers() ** 2 / 2.0) @ F
    return K + np.diag(potential_values)


def _expm_step(H, psi_values, dt, eps):
    U = scipy.linalg.expm(-1j * dt / eps * H)
    return (U @ psi_values.ravel()).reshape(psi_values.shape)


def _richardson_slope(errors, dts):
    A = np.vstack([np.log(dts), np.ones(len(dts))]).T
    slope, _ = np.linalg.lstsq(A, np.log(errors), rcond=None)[0]
    return slope


def test_split_step_linear_matches_expm_to_third_order():
    grid = GridSpec(1, 1, 32, 4.0, 0.25)
    psi = _random_state(grid, seed=1)
    U_tab = GAUSS(grid.axis_points()[:, None])
    H = _dense_hamiltonian_1p(grid, U_tab)
    dts = np.array([4e-2, 2e-2, 1e-2, 5e-3])
    errs = []
    for dt in dts:
        approx = split_step_linear(psi, U_tab, dt).values
        exact = _expm_step(H, psi.values, dt, grid.epsilon)
        errs.append(np.linalg.norm(approx - exact) * np.sqrt(grid.h))
    slope = _richardson_slope(np.array(errs), dts)
    assert slope == pytest.approx(3.0, abs=0.3)


def test_nbody_step_matches_expm_two_particles():
    grid = GridSpec(1, 2, 16, 4.0, 0.5)
    psi = _random_state(grid, seed=2)
    x = grid.axis_points()
    pair = GAUSS(x[:, None, None] - x[None, :, None]) / 2.0  # (1/N) V(x1-x2)
    n = grid.points_per_axis
    K1 = _dense_hamiltonian_1p(GridSpec(1, 1, n, 4.0, 0.5), np.zeros(n))
    eye = np.eye(n)
    H = np.kron(K1, eye) + np.kron(eye, K1) + np.diag(pair.ravel())
    dts = np.array([4e-2, 2e-2, 1e-2])
    errs = []
    for dt in dts:
        approx = _nbody_step(grid, GAUSS, dt)(psi).values
        exact = _expm_step(H, psi.values, dt, grid.epsilon)
        errs.append(np.linalg.norm((approx - exact).ravel()) * grid.h)
    slope = _richardson_slope(np.array(errs), dts)
    assert slope == pytest.approx(3.0, abs=0.3)


def test_free_coherent_evolution_closed_form():
    # numerical free flow vs the spreading-Gaussian solution, to 1e-6
    grid = GridSpec(1, 1, 128, 8.0, 0.25)
    q, p = 0.3, 0.4
    psi = coherent_state(grid, q, p)
    dt, n_steps = 0.01, 50
    step = _nbody_step(grid, FLAT, dt)
    for _ in range(n_steps):
        psi = step(psi)
    t = dt * n_steps
    eps = grid.epsilon
    x = grid.axis_points()
    z = 1.0 + 1j * t
    exact = (
        (np.pi * eps) ** (-0.25)
        / np.sqrt(z)
        * np.exp(1j * (p * x - 0.5 * p**2 * t) / eps)
        * np.exp(-((x - q - p * t) ** 2) / (2 * eps * z))
    )
    assert psi.time == pytest.approx(t)
    assert np.max(np.abs(psi.values - exact)) < 1e-6
    # center and spread follow the transport/spreading laws
    prob = np.abs(psi.values) ** 2 * grid.h
    mean = float(x @ prob)
    var = float((x - mean) ** 2 @ prob)
    assert mean == pytest.approx(q + p * t, abs=1e-9)
    assert var == pytest.approx(0.5 * eps * (1 + t**2), rel=1e-9)


def test_unitarity_over_thousand_steps():
    grid = GridSpec(1, 1, 64, 6.0, 0.25)
    psi = coherent_state(grid, 0.2, -0.3)
    step = _nbody_step(grid, GAUSS, 0.005)
    for _ in range(1000):
        psi = step(psi)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_hartree_potential_matches_direct_sum():
    grid = GridSpec(1, 1, 64, 6.0, 0.25)
    psi = coherent_state(grid, 0.4, 0.1)
    v = hartree_potential(psi, GAUSS)
    x = grid.axis_points()
    dens = np.abs(psi.values) ** 2 * grid.h
    direct = GAUSS(x[:, None, None] - x[None, :, None]) @ dens
    np.testing.assert_allclose(v, direct, atol=1e-12)


def test_hartree_mass_conserved_and_free_limit():
    grid = GridSpec(1, 1, 64, 6.0, 0.25)
    psi = coherent_state(grid, 0.3, -0.2)
    free = _nbody_step(grid, FLAT, 0.01)(psi)
    hart = hartree_step(psi, FLAT, 0.01)
    np.testing.assert_array_equal(free.values, hart.values)  # V=0: same flow
    for _ in range(1000):
        psi = hartree_step(psi, GAUSS, 0.005)
    assert abs(psi.norm() - 1.0) < 1e-12


def test_hartree_energy_drift_is_second_order():
    grid = GridSpec(1, 1, 64, 6.0, 0.25)

    def drift(dt):
        psi = coherent_state(grid, 0.3, -0.2)
        e0 = hartree_energy(psi, GAUSS)
        worst = 0.0
        for _ in range(round(0.4 / dt)):
            psi = hartree_step(psi, GAUSS, dt)
            worst = max(worst, abs(hartree_energy(psi, GAUSS) - e0))
        return worst

    assert drift(0.02) / drift(0.01) == pytest.approx(4.0, rel=0.2)


def test_partial_trace_product_state():
    grid = GridSpec(1, 2, 32, 5.0, 0.5)
    psi = coherent_state(grid, [0.3, 0.3], [-0.2, -0.2])
    rho1 = partial_trace(psi, 1)
    phi = coherent_state(GridSpec(1, 1, 32, 5.0, 0.5), 0.3, -0.2)
    expected = state_density_matrix(phi)
    assert np.max(np.abs(rho1.matrix - expected.matrix)) < 1e-10
    assert rho1.trace() == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_bell_like_eigenvalues():
    # (phi_a x phi_b + phi_b x phi_a)/sqrt(2): marginal eigenvalues (1/2, 1/2)
    # up to the coherent overlap e^{-|dz|^2/(4 eps)}
    grid = GridSpec(1, 2, 32, 5.0, 0.5)
    a = coherent_state(grid, [1.2, -1.2], [0.0, 0.0])
    b = coherent_state(grid, [-1.2, 1.2], [0.0, 0.0])
    vals = a.values + b.values
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * grid.h**2)
    rho1 = partial_trace(WaveFunction(grid, vals), 1)
    eigs = np.sort(np.linalg.eigvalsh(rho1.matrix))[::-1] * rho1.quad_weight
    overlap = np.exp(-(2.4**2) / (4 * grid.epsilon))
    assert eigs[0] == pytest.approx(0.5, abs=5 * overlap + 1e-10)
    assert eigs[1] == pytest.approx(0.5, abs=5 * overlap + 1e-10)
    assert np.all(np.abs(eigs[2:]) < 5 * overlap + 1e-10)


def test_partial_trace_memory_cap(monkeypatch):
    grid = GridSpec(1, 2, 32, 5.0, 0.5)
    psi = coherent_state(grid, [0.0, 0.0], [0.0, 0.0])
    monkeypatch.setenv("MFLAB_MEMORY_CAP_BYTES", "4096")
    with pytest.raises(ResourceCapError):
        partial_trace(psi, 1)


def test_permute_particles_product_structure():
    grid = GridSpec(1, 2, 32, 5.0, 0.5)
    ab = coherent_state(grid, [0.8, -0.5], [0.1, 0.3])
    ba = coherent_state(grid, [-0.5, 0.8], [0.3, 0.1])
    swapped = oracle.permute_particles(ab, [1, 0])
    np.testing.assert_allclose(swapped.values, ba.values, atol=1e-13)
    back = oracle.permute_particles(swapped, [1, 0])
    np.testing.assert_array_equal(back.values, ab.values)


def _coupled_pair(base, atom, V, n_steps, dt=0.02):
    """The coherent coupling of one atom, advanced n_steps on both routes:
    (factored coupling, doubled oracle state, reference state)."""
    N = len(atom) // 4
    mixture = coupling_to_factored_mixture(base, N, DiscreteMeasure(atom[None, :], np.ones(1)))
    phi = coherent_state(oracle.doubled(base, N), atom[: 2 * N], atom[2 * N :])
    ref = ref_d = coherent_state(base, atom[0], atom[len(atom) // 2])
    mixture, ref = factored_coupled_advance(mixture, ref, V, dt, n_steps)
    for _ in range(n_steps):
        phi, ref_d = coupled_quantum_advance(phi, ref_d, V, dt)
    np.testing.assert_array_equal(ref.values, ref_d.values)
    return mixture, phi, ref


def test_coupled_advance_marginal_matches_hartree_tensor_power():
    # the mean-field half of the coupled flow factorizes exactly, so the
    # single-particle X-marginal reproduces an independent Hartree run
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    z0 = (0.3, -0.2)
    atom = np.array([z0[0], z0[0], z0[0], z0[0], z0[1], z0[1], z0[1], z0[1]])
    dt = 0.02
    coupling, phi, ref = _coupled_pair(base, atom, GAUSS, 5, dt)
    psi_h = coherent_state(base, *z0)
    for _ in range(5):
        psi_h = hartree_step(psi_h, GAUSS, dt)
    np.testing.assert_array_equal(ref.values, psi_h.values)  # lockstep reference
    expected = state_density_matrix(psi_h)
    for rho_x in (reduced_density(coupling, 0), partial_trace(phi, 1)):
        assert np.max(np.abs(rho_x.matrix - expected.matrix)) < 1e-10
    assert abs(coupling[0][1].norm() - 1.0) < 1e-12
    assert abs(phi.norm() - 1.0) < 1e-12


def test_coupled_advance_free_flow_keeps_marginals_matched():
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    atom = np.array([0.2, 0.2, 0.2, 0.2, -0.1, -0.1, -0.1, -0.1])
    coupling, phi, _ = _coupled_pair(base, atom, FLAT, 5)
    rho_x, rho_y = reduced_density(coupling, 0), reduced_density(coupling, 2)
    assert np.max(np.abs(rho_x.matrix - rho_y.matrix)) < 1e-12
    rho_x = partial_trace(phi, 1)
    y_first = oracle.permute_particles(phi, [2, 3, 0, 1])
    rho_y = partial_trace(y_first, 1)
    assert np.max(np.abs(rho_x.matrix - rho_y.matrix)) < 1e-12


def _two_atom_coupling():
    """Two coherent N = 2 atoms (layout q_x, q_y, p_x, p_y) whose X centres
    differ from the reference state's, so the mean-field phases are not
    symmetric."""
    atoms = np.array(
        [
            [0.4, -0.3, 0.1, 0.2, -0.2, 0.3, 0.05, -0.1],
            [-0.5, 0.2, 0.0, -0.3, 0.1, -0.2, 0.2, 0.15],
        ]
    )
    return DiscreteMeasure(atoms, np.array([0.3, 0.7]))


def test_factored_coupling_matches_doubled_oracle():
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    N = 2
    coupling = _two_atom_coupling()
    factored = coupling_to_factored_mixture(base, N, coupling)
    doubled = oracle.coupling_to_state_mixture(oracle.doubled(base, N), coupling)
    ref0 = coherent_state(base, 0.0, 0.1)
    # the whole mixture in one call, under one reference
    factored, ref_f = factored_coupled_advance(factored, ref0, GAUSS, 0.02, 25)
    for i, ((w, state), (_, psi)) in enumerate(zip(factored, doubled)):
        ref_d = ref0
        for _ in range(25):
            psi, ref_d = coupled_quantum_advance(psi, ref_d, GAUSS, 0.02)
        doubled[i] = (w, psi)
        np.testing.assert_array_equal(ref_f.values, ref_d.values)
        product = oracle.doubled_state(state)
        assert product.grid == psi.grid and product.time == pytest.approx(psi.time)
        assert np.max(np.abs(product.values - psi.values)) <= 1e-12
        assert state.guard_band_mass() == pytest.approx(guard_band_mass(psi), abs=1e-12)
        assert state.norm() == pytest.approx(psi.norm(), abs=1e-12)
        # this coarse box leaks past its guard band, and both routes say so
        with pytest.raises(GuardBandError):
            state.check_guard_band()
        with pytest.raises(GuardBandError):
            check_guard_band(psi)

    assert qp_cost_trace(factored) == pytest.approx(oracle.cost(doubled), abs=1e-12)
    for slot in (0, N):
        got = reduced_density(factored, slot).matrix
        want = oracle.reduced_density(doubled, slot).matrix
        assert np.max(np.abs(got - want)) <= 1e-12

    # factor norms off 1 (inside the density-matrix trace check) must weigh
    # each reduced kernel by the other factors' squared norms
    (x0, x1), y = state.xs, state.y
    grow = 1.0 + 2e-9
    tilted = FactoredCoupling(
        (x0, WaveFunction(x1.grid, x1.values * grow)), WaveFunction(y.grid, y.values * grow)
    )
    for slot in (0, N):
        got = reduced_density([(1.0, tilted)], slot).matrix
        want = oracle.reduced_density(oracle.doubled_state(tilted), slot).matrix
        assert np.max(np.abs(got - want)) <= 1e-12


def test_mixture_shares_one_hartree_reference(monkeypatch):
    # one call over the whole mixture under one reference equals each
    # component advanced alone with its own copy of the reference, bit for bit
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    mixture = coupling_to_factored_mixture(base, 2, _two_atom_coupling())
    ref0 = coherent_state(base, 0.0, 0.1)
    n_steps = 7
    together, ref = factored_coupled_advance(mixture, ref0, GAUSS, 0.02, n_steps)
    assert [w for w, _ in together] == [w for w, _ in mixture]
    for component, (_, got) in zip(mixture, together):
        [(_, alone)], own_ref = factored_coupled_advance([component], ref0, GAUSS, 0.02, n_steps)
        np.testing.assert_array_equal(own_ref.values, ref.values)
        assert own_ref.time == ref.time
        for a, b in zip(alone.factors, got.factors):
            assert a.grid == b.grid and a.time == b.time
            np.testing.assert_array_equal(a.values, b.values)

    # the reference advances once per step from the potential the advance
    # holds, and each step's end potential starts the next: 2n + 1
    # convolutions whatever the component count; the pair factor is built
    # once per call for every Y factor
    calls = {"_density_potential": 0, "_pair_phases": 0}

    def counted(name):
        inner = getattr(dynamics, name)

        def wrapper(*args):
            calls[name] += 1
            return inner(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(dynamics, name, counted(name))
    for coupling in (mixture[:1], mixture):
        for n in (0, 1, n_steps):
            calls.update(dict.fromkeys(calls, 0))
            factored_coupled_advance(coupling, ref0, GAUSS, 0.02, n)
            want = {"_density_potential": 2 * n + 1 if n else 0, "_pair_phases": min(n, 1)}
            assert calls == want, (n, coupling is mixture)


def test_aliased_x_factors_step_like_distinct_copies():
    # a coupling holding one object as every X factor, (ref,) * N, steps to
    # the bytes of distinct copies stepped one by one
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    N, n_steps = 3, 4
    ref0 = coherent_state(base, 0.1, -0.2)
    y = coherent_state(GridSpec(1, N, 32, 5.0, 0.5), [0.1] * N, [-0.2] * N)
    copies = tuple(WaveFunction(base, ref0.values.copy()) for _ in range(N))
    [(_, aliased)], ref_a = factored_coupled_advance(
        [(1.0, FactoredCoupling((ref0,) * N, y))], ref0, GAUSS, 0.02, n_steps
    )
    [(_, distinct)], ref_d = factored_coupled_advance(
        [(1.0, FactoredCoupling(copies, y))], ref0, GAUSS, 0.02, n_steps
    )
    assert ref_a.values.tobytes() == ref_d.values.tobytes()
    for a, b in zip(aliased.factors, distinct.factors):
        assert a.grid == b.grid and a.time == b.time
        assert a.values.tobytes() == b.values.tobytes()


def test_factored_advance_rejects_y_factors_on_two_grids():
    # one pair factor serves every Y factor of a call, so a mixture whose
    # components hold different particle counts is refused
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    two = coupling_to_factored_mixture(base, 2, _two_atom_coupling())
    [(_, three)] = coupling_to_factored_mixture(
        base, 3, DiscreteMeasure(np.zeros((1, 12)), np.ones(1))
    )
    ref0 = coherent_state(base, 0.0, 0.1)
    for n in (0, 1):
        with pytest.raises(ValueError, match="one grid"):
            factored_coupled_advance([two[0], (0.5, three)], ref0, GAUSS, 0.02, n)


def _propagator_states():
    """A one-particle and a two-particle coherent state on a 32-point grid."""
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    pair = coherent_state(oracle.doubled(base, 1), [0.1, 0.1], [-0.2, -0.2])
    return coherent_state(base, 0.1, -0.2), pair


def _propagator_calls(psi, pair):
    """Each propagator as a function of dt, stepping psi, pair or both."""
    mix = [(1.0, FactoredCoupling((psi,), psi))]
    table = GAUSS(psi.grid.axis_points()[:, None])
    return {
        "split_step_linear": lambda dt: split_step_linear(psi, table, dt),
        "_nbody_step": lambda dt: _nbody_step(pair.grid, GAUSS, dt)(pair),
        "hartree_step": lambda dt: hartree_step(psi, GAUSS, dt),
        "factored_coupled_advance": lambda dt: factored_coupled_advance(mix, psi, GAUSS, dt, 1),
        "coupled_quantum_advance": lambda dt: coupled_quantum_advance(pair, psi, GAUSS, dt),
    }


@pytest.mark.parametrize("name", sorted(_propagator_calls(*_propagator_states())))
def test_every_propagator_rejects_bad_dt(name):
    step = _propagator_calls(*_propagator_states())[name]
    step(0.01)
    # 32 points on [-5, 5) at eps 0.5: the kinetic phase at the Nyquist mode
    # reaches pi at dt = 2 h^2 / (pi eps), about 0.124
    for dt in (0.0, -0.01, 0.125, 1.0):
        with pytest.raises(ValueError):
            step(dt)


@pytest.mark.parametrize("name", sorted(_propagator_calls(*_propagator_states())))
def test_every_propagator_leaves_the_states_it_steps_as_they_are(name):
    # _strang_step copies a state's values once and both phases and both
    # FFTs work in place on that copy, so the caller's arrays keep their bits
    states = _propagator_states()
    before = [state.values.tobytes() for state in states]
    _propagator_calls(*states)[name](0.01)
    assert [state.values.tobytes() for state in states] == before


def test_one_advance_step_holds_one_working_copy_of_the_y_factor():
    # N = 3 at 64 points: the step's one working copy of the Y factor plus
    # the norm check's |values|^2 is 1.5 factors; a second copy, in a phase
    # or as the forward FFT's output, makes it 2
    base = GridSpec(1, 1, 64, 8.0, 0.25)
    ref = coherent_state(base, 0.3, -0.2)
    y = coherent_state(replace(base, n_particles=3), [0.3] * 3, [-0.2] * 3)
    coupling = [(1.0, FactoredCoupling((ref,) * 3, y))]
    factored_coupled_advance(coupling, ref, GAUSS, 0.01, 1)  # warm the FFT plan cache
    tracemalloc.start()
    try:
        factored_coupled_advance(coupling, ref, GAUSS, 0.01, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * y.values.nbytes, f"traced peak {peak / y.values.nbytes:.2f} Y factors"


def test_factored_runner_checkpoint_holds_the_final_factors(tmp_path, monkeypatch):
    ckpt = tmp_path / "qd"
    # at 32 points only a centred state passes both the centre check and the
    # guard band
    N, n, box, q0, p0, dt = 2, 32, 6.5, 0.0, 0.0, 0.02
    saved = []

    def record(path, state):
        saved.append(state)
        save_state(path, state)

    monkeypatch.setattr(experiments, "save_state", record)
    cfg = build_config(
        {
            "experiment": "quantum-dobrushin",
            "potential": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
            "epsilon": [0.5],
            "n_particles": N,
            "grid_points": n,
            "box": box,
            "dt": dt,
            "t_final": 0.06,
            "n_times": 2,
            "center": [q0, p0],
            "checkpoint": str(ckpt),
        }
    )
    assert all(r.passed for r in run_experiment(cfg))
    path = f"{ckpt}.eps0.5.mflabst"
    loaded = load_state(path)

    # the runner's final factors, bit for bit
    [final] = saved
    assert len(loaded.factors) == len(final.factors) == N + 1
    for got, want in zip(loaded.factors, final.factors):
        assert got.grid == want.grid and got.time == want.time
        np.testing.assert_array_equal(got.values, want.values)

    # their product is the state the one-array coupled flow reaches
    base = GridSpec(1, 1, n, box, 0.5)
    psi = coherent_state(oracle.doubled(base, N), [q0] * 2 * N, [p0] * 2 * N)
    ref = coherent_state(base, q0, p0)
    for _ in range(3):
        psi, ref = coupled_quantum_advance(psi, ref, GAUSS, dt)
    product = oracle.doubled_state(loaded)
    assert product.grid == psi.grid
    assert product.time == pytest.approx(psi.time)
    assert np.max(np.abs(product.values - psi.values)) <= 1e-12

    # 16 bytes a value: N X factors of n values and one Y factor of n^N
    with open(path, "rb") as fh:
        fh.seek(8)
        (header_len,) = struct.unpack("<Q", fh.read(8))
    assert os.path.getsize(path) == 16 * (N * n + n**N) + 16 + header_len
