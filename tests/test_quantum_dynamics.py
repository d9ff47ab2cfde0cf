"""Propagators against dense matrix-exponential and closed-form oracles."""
import doubled_oracle as oracle
import numpy as np
import pytest
import scipy.linalg

from mflab.experiments import build_config, run_experiment
from mflab.potentials import make_gaussian_potential
from mflab.quantum import (
    FactoredCoupling,
    GridSpec,
    GuardBandError,
    WaveFunction,
    check_guard_band,
    coherent_product_state,
    coherent_state,
    coupling_to_factored_mixture,
    dobrushin_quantum_functional,
    factored_coupled_advance,
    guard_band_mass,
    hartree_energy,
    hartree_potential,
    hartree_step,
    load_state,
    partial_trace,
    qp_cost_trace,
    reduced_density,
    split_step_linear,
    split_step_nbody,
    state_density_matrix,
)
from mflab.quantum.dynamics import coupled_quantum_advance
from mflab.quantum.grids import ResourceCapError
from mflab.transport import DiscreteMeasure

GAUSS = make_gaussian_potential(1.0, 1.0, 1)
FLAT = make_gaussian_potential(0.0, 1.0, 1)


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


def test_split_step_nbody_matches_expm_two_particles():
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
        approx = split_step_nbody(psi, GAUSS, dt).values
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
    for _ in range(n_steps):
        psi = split_step_nbody(psi, FLAT, dt)
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
    for _ in range(1000):
        psi = split_step_nbody(psi, GAUSS, 0.005)
    assert abs(psi.norm() - 1.0) < 1e-10


def test_kinetic_resolution_guard():
    grid = GridSpec(1, 1, 64, 6.0, 0.25)
    psi = coherent_state(grid, 0.0, 0.0)
    with pytest.raises(ValueError):
        split_step_nbody(psi, GAUSS, 0.5)
    with pytest.raises(ValueError):
        split_step_nbody(psi, GAUSS, -0.01)


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
    free = split_step_nbody(psi, FLAT, 0.01)
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
    atom = np.array([0.3, 0.3, -0.2, -0.2])  # (q1, q2, p1, p2)
    psi = coherent_product_state(grid, atom)
    rho1 = partial_trace(psi, 1)
    phi = coherent_state(GridSpec(1, 1, 32, 5.0, 0.5), 0.3, -0.2)
    expected = state_density_matrix(phi)
    assert np.max(np.abs(rho1.matrix - expected.matrix)) < 1e-10
    assert rho1.trace() == pytest.approx(1.0, abs=1e-10)


def test_partial_trace_bell_like_eigenvalues():
    # (phi_a x phi_b + phi_b x phi_a)/sqrt(2): marginal eigenvalues (1/2, 1/2)
    # up to the coherent overlap e^{-|dz|^2/(4 eps)}
    grid = GridSpec(1, 2, 32, 5.0, 0.5)
    a = coherent_product_state(grid, np.array([1.2, -1.2, 0.0, 0.0]))
    b = coherent_product_state(grid, np.array([-1.2, 1.2, 0.0, 0.0]))
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
    psi = coherent_product_state(grid, np.array([0.0, 0.0, 0.0, 0.0]))
    monkeypatch.setenv("MFLAB_MEMORY_CAP_BYTES", "4096")
    with pytest.raises(ResourceCapError):
        partial_trace(psi, 1)


def test_permute_particles_product_structure():
    grid = GridSpec(1, 2, 32, 5.0, 0.5)
    ab = coherent_product_state(grid, np.array([0.8, -0.5, 0.1, 0.3]))
    ba = coherent_product_state(grid, np.array([-0.5, 0.8, 0.3, 0.1]))
    swapped = oracle.permute_particles(ab, [1, 0])
    np.testing.assert_allclose(swapped.values, ba.values, atol=1e-13)
    back = oracle.permute_particles(swapped, [1, 0])
    np.testing.assert_array_equal(back.values, ab.values)


def _coupled_pair(base, atom, V, n_steps, dt=0.02):
    """The coherent coupling of one atom, advanced n_steps on both routes:
    (factored state, doubled oracle state, reference state)."""
    N = len(atom) // 4
    [(_, state)] = coupling_to_factored_mixture(base, N, DiscreteMeasure(atom[None, :], np.ones(1)))
    phi = coherent_product_state(oracle.doubled(base, N), atom)
    ref = ref_d = coherent_state(base, atom[0], atom[len(atom) // 2])
    for _ in range(n_steps):
        state, ref = factored_coupled_advance(state, ref, V, dt)
        phi, ref_d = coupled_quantum_advance(phi, ref_d, V, dt)
    np.testing.assert_array_equal(ref.values, ref_d.values)
    return state, phi, ref


def test_coupled_advance_marginal_matches_hartree_tensor_power():
    # the mean-field half of the coupled flow factorizes exactly, so the
    # single-particle X-marginal reproduces an independent Hartree run
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    z0 = (0.3, -0.2)
    atom = np.array([z0[0], z0[0], z0[0], z0[0], z0[1], z0[1], z0[1], z0[1]])
    dt = 0.02
    state, phi, ref = _coupled_pair(base, atom, GAUSS, 5, dt)
    psi_h = coherent_state(base, *z0)
    for _ in range(5):
        psi_h = hartree_step(psi_h, GAUSS, dt)
    np.testing.assert_array_equal(ref.values, psi_h.values)  # lockstep reference
    expected = state_density_matrix(psi_h)
    for rho_x in (reduced_density(state, [0]), partial_trace(phi, 1)):
        assert np.max(np.abs(rho_x.matrix - expected.matrix)) < 1e-10
    assert abs(state.norm() - 1.0) < 1e-12
    assert abs(phi.norm() - 1.0) < 1e-12


def test_coupled_advance_free_flow_keeps_marginals_matched():
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    atom = np.array([0.2, 0.2, 0.2, 0.2, -0.1, -0.1, -0.1, -0.1])
    state, phi, _ = _coupled_pair(base, atom, FLAT, 5)
    rho_x, rho_y = reduced_density(state, [0]), reduced_density(state, [2])
    assert np.max(np.abs(rho_x.matrix - rho_y.matrix)) < 1e-12
    rho_x = partial_trace(phi, 1)
    y_first = oracle.permute_particles(phi, [2, 3, 0, 1])
    rho_y = partial_trace(y_first, 1)
    assert np.max(np.abs(rho_x.matrix - rho_y.matrix)) < 1e-12


def test_factored_coupling_matches_doubled_oracle():
    # two coherent atoms (layout q_x, q_y, p_x, p_y) whose X centres differ
    # from the reference state's, so the mean-field phases are not symmetric
    base = GridSpec(1, 1, 32, 5.0, 0.5)
    N = 2
    atoms = np.array(
        [
            [0.4, -0.3, 0.1, 0.2, -0.2, 0.3, 0.05, -0.1],
            [-0.5, 0.2, 0.0, -0.3, 0.1, -0.2, 0.2, 0.15],
        ]
    )
    coupling = DiscreteMeasure(atoms, np.array([0.3, 0.7]))
    factored = coupling_to_factored_mixture(base, N, coupling)
    doubled = oracle.coupling_to_state_mixture(oracle.doubled(base, N), coupling)
    ref0 = coherent_state(base, 0.0, 0.1)
    for i, ((w, state), (_, psi)) in enumerate(zip(factored, doubled)):
        ref_f = ref_d = ref0
        for _ in range(25):
            state, ref_f = factored_coupled_advance(state, ref_f, GAUSS, 0.02)
            psi, ref_d = coupled_quantum_advance(psi, ref_d, GAUSS, 0.02)
        factored[i], doubled[i] = (w, state), (w, psi)
        np.testing.assert_array_equal(ref_f.values, ref_d.values)
        product = state.doubled()
        assert product.grid == psi.grid and product.time == pytest.approx(psi.time)
        assert np.max(np.abs(product.values - psi.values)) <= 1e-12
        assert state.guard_band_mass() == pytest.approx(guard_band_mass(psi), abs=1e-12)
        assert state.norm() == pytest.approx(psi.norm(), abs=1e-12)
        # this coarse box leaks past its guard band, and both routes say so
        with pytest.raises(GuardBandError):
            state.check_guard_band()
        with pytest.raises(GuardBandError):
            check_guard_band(psi)

    eps = base.epsilon
    assert qp_cost_trace(factored, eps) == pytest.approx(oracle.cost(doubled), abs=1e-12)
    assert dobrushin_quantum_functional(factored, eps) == pytest.approx(
        oracle.cost(doubled) / N, abs=1e-12
    )
    for slot in (0, N):
        got = reduced_density(factored, [slot]).matrix
        want = oracle.reduced_density(doubled, [slot]).matrix
        assert np.max(np.abs(got - want)) <= 1e-12

    # factor norms off 1 (inside the density-matrix trace check) must weigh
    # each reduced kernel by the other factors' squared norms
    (x0, x1), y = state.xs, state.y
    grow = 1.0 + 2e-9
    tilted = FactoredCoupling(
        (x0, WaveFunction(x1.grid, x1.values * grow)), WaveFunction(y.grid, y.values * grow)
    )
    for slot in (0, N):
        got = reduced_density(tilted, [slot]).matrix
        want = oracle.reduced_density(tilted.doubled(), [slot]).matrix
        assert np.max(np.abs(got - want)) <= 1e-12


def test_factored_runner_checkpoint_is_the_doubled_state(tmp_path):
    ckpt = tmp_path / "qd"
    q0, p0, dt = 0.3, -0.2, 0.02
    cfg = build_config(
        {
            "experiment": "quantum-dobrushin",
            "potential": {"family": "gaussian", "amplitude": 1.0, "width": 1.0},
            "epsilon": [0.5],
            "n_particles": 1,
            "grid_points": 64,
            "box": 8.0,
            "dt": dt,
            "t_final": 0.06,
            "n_times": 2,
            "center": [q0, p0],
            "checkpoint": str(ckpt),
        }
    )
    assert all(r.passed for r in run_experiment(cfg))
    loaded = load_state(f"{ckpt}.eps0.5.mflabst")

    base = GridSpec(1, 1, 64, 8.0, 0.5)
    psi = coherent_product_state(oracle.doubled(base, 1), np.array([q0, q0, p0, p0]))
    ref = coherent_state(base, q0, p0)
    for _ in range(3):
        psi, ref = coupled_quantum_advance(psi, ref, GAUSS, dt)
    assert loaded.grid == psi.grid
    assert loaded.time == pytest.approx(psi.time)
    assert np.max(np.abs(loaded.values - psi.values)) <= 1e-12
