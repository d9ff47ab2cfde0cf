"""Phase-space toolkit tests: coherent states, Wigner/Husimi transforms,
Toeplitz lifts, and the trace identities connecting the two routes.

Oracles are closed forms for Gaussian states: overlap |<z1|z2>|^2 =
exp(-|dz|^2/(2 eps)), Wigner W(x,xi) = (pi eps)^{-1} exp(-((x-q)^2 +
(xi-p)^2)/eps), Husimi H(z) = (2 pi eps)^{-1} exp(-|z-z0|^2/(2 eps)).
"""
import tracemalloc

import numpy as np
import pytest

from mflab.quantum.grids import DensityMatrix, GridSpec, WaveFunction
from mflab.quantum.metrics import state_density_matrix
from mflab.quantum.phase_space import (
    PhaseSpaceFunction,
    SymbolMeasure,
    coherent_state,
    husimi_transform,
    husimi_values,
    toeplitz_operator,
    toeplitz_trace_against,
    wigner_transform,
)

EPS = 0.25
GRID = GridSpec(d=1, n_particles=1, points_per_axis=128, box_half_width=6.0, epsilon=EPS)


def smooth_wigner_to(
    W: PhaseSpaceFunction, x_nodes: np.ndarray, xi_nodes: np.ndarray
) -> PhaseSpaceFunction:
    """Gaussian smoothing G_{eps/2} * W evaluated on a target lattice.

    The independent cross-check route for the Husimi transform: quadrature of
    the convolution integral with the heat kernel of variance eps/2 per axis.
    """
    eps = W.epsilon
    x_nodes = np.asarray(x_nodes, dtype=float)
    xi_nodes = np.asarray(xi_nodes, dtype=float)
    Gx = np.exp(-((x_nodes[:, None] - W.x_nodes[None, :]) ** 2) / eps) / np.sqrt(
        np.pi * eps
    )
    Gxi = np.exp(-((xi_nodes[:, None] - W.xi_nodes[None, :]) ** 2) / eps) / np.sqrt(
        np.pi * eps
    )
    vals = (Gx * W.dx) @ W.values @ (Gxi * W.dxi).T
    return PhaseSpaceFunction(x_nodes, xi_nodes, vals, eps)


def _overlap_sq(z1, z2, eps):
    dz = np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float)
    return float(np.exp(-np.sum(dz**2) / (2 * eps)))


# ---------------------------------------------------------------- coherent states


def test_coherent_state_position_moments():
    q0, p0 = 0.8, -0.4
    psi = coherent_state(GRID, q0, p0)
    x = GRID.axis_points()
    dens = np.abs(psi.values) ** 2 * GRID.h
    assert np.sum(dens) == pytest.approx(1.0, abs=1e-12)
    assert np.sum(x * dens) == pytest.approx(q0, abs=1e-10)
    assert np.sum((x - q0) ** 2 * dens) == pytest.approx(EPS / 2, abs=1e-10)


def test_coherent_state_momentum_moment():
    q0, p0 = -0.3, 0.6
    psi = coherent_state(GRID, q0, p0)
    kappa = GRID.wavenumbers()
    psi_hat = np.fft.fft(psi.values)
    w = np.abs(psi_hat) ** 2
    w /= w.sum()
    # momentum variable is eps * kappa
    assert EPS * np.sum(kappa * w) == pytest.approx(p0, abs=1e-10)
    assert EPS**2 * np.sum((kappa - p0 / EPS) ** 2 * w) == pytest.approx(
        EPS / 2, abs=1e-10
    )


def test_coherent_overlap_closed_form():
    z1 = (0.5, 0.3)
    z2 = (-0.4, -0.2)
    psi1 = coherent_state(GRID, z1[0], z1[1])
    psi2 = coherent_state(GRID, z2[0], z2[1])
    ov = np.vdot(psi1.values, psi2.values) * GRID.h
    assert abs(ov) ** 2 == pytest.approx(_overlap_sq(z1, z2, EPS), abs=1e-12)


def test_coherent_product_state_single_factor_matches():
    # on a one-axis grid a scalar centre is the one-entry list
    psi = coherent_state(GRID, 0.5, -0.1)
    phi = coherent_state(GRID, [0.5], [-0.1])
    np.testing.assert_array_equal(psi.values, phi.values)
    grid2 = GridSpec(d=1, n_particles=2, points_per_axis=32, box_half_width=5.0, epsilon=0.5)
    with pytest.raises(ValueError):
        coherent_state(grid2, 0.5, -0.1)  # one entry per axis


def test_coherent_product_state_two_factors():
    grid2 = GridSpec(d=1, n_particles=2, points_per_axis=32, box_half_width=5.0, epsilon=0.5)
    phi = coherent_state(grid2, [0.4, -0.3], [0.1, 0.2])
    g1 = GridSpec(d=1, n_particles=1, points_per_axis=32, box_half_width=5.0, epsilon=0.5)
    a = coherent_state(g1, 0.4, 0.1).values
    b = coherent_state(g1, -0.3, 0.2).values
    assert np.allclose(phi.values, np.outer(a, b), atol=1e-12)


def test_coherent_state_normalizes_in_place():
    # N = 3 at 64 points: the product array plus the norm check's |values|^2
    # is 1.5 times the state; a normalized copy of the product makes it 2
    grid3 = GridSpec(d=1, n_particles=3, points_per_axis=64, box_half_width=8.0, epsilon=EPS)
    coherent_state(grid3, [0.3] * 3, [-0.2] * 3)
    tracemalloc.start()
    try:
        psi = coherent_state(grid3, [0.3] * 3, [-0.2] * 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * psi.values.nbytes, f"traced peak {peak / psi.values.nbytes:.2f} states"


# ---------------------------------------------------------------- Wigner transform


def test_wigner_coherent_closed_form_max_norm():
    # 256-point grid at eps = 0.25: lattice Wigner vs the exact Gaussian
    grid = GridSpec(d=1, n_particles=1, points_per_axis=256, box_half_width=6.0, epsilon=EPS)
    q0, p0 = 0.7, -0.5
    rho = state_density_matrix(coherent_state(grid, q0, p0))
    W = wigner_transform(rho)
    X, XI = np.meshgrid(W.x_nodes, W.xi_nodes, indexing="ij")
    exact = np.exp(-((X - q0) ** 2 + (XI - p0) ** 2) / EPS) / (np.pi * EPS)
    assert np.max(np.abs(W.values - exact)) < 1e-6


def test_wigner_integral_equals_trace():
    rho = state_density_matrix(coherent_state(GRID, 0.3, 0.2))
    W = wigner_transform(rho)
    assert W.integral() == pytest.approx(1.0, abs=1e-12)


def test_wigner_x_marginal_is_position_density():
    psi = coherent_state(GRID, -0.6, 0.4)
    rho = state_density_matrix(psi)
    W = wigner_transform(rho)
    marginal = W.values.sum(axis=1) * W.dxi
    assert np.allclose(marginal, np.abs(psi.values) ** 2, atol=1e-12)


def test_wigner_mixture_closed_form():
    grid = GridSpec(d=1, n_particles=1, points_per_axis=256, box_half_width=6.0, epsilon=EPS)
    z1, z2 = (-0.8, 0.3), (0.9, -0.4)
    r1 = state_density_matrix(coherent_state(grid, *z1)).matrix
    r2 = state_density_matrix(coherent_state(grid, *z2)).matrix
    rho = DensityMatrix(grid, 0.5 * r1 + 0.5 * r2)
    W = wigner_transform(rho)
    X, XI = np.meshgrid(W.x_nodes, W.xi_nodes, indexing="ij")
    exact = 0.5 * np.exp(-((X - z1[0]) ** 2 + (XI - z1[1]) ** 2) / EPS) + 0.5 * np.exp(
        -((X - z2[0]) ** 2 + (XI - z2[1]) ** 2) / EPS
    )
    exact /= np.pi * EPS
    assert np.max(np.abs(W.values - exact)) < 1e-6


def test_wigner_superposition_goes_negative():
    # interference fringes push the Wigner function well below zero
    a = coherent_state(GRID, -1.0, 0.0).values
    b = coherent_state(GRID, 1.0, 0.0).values
    vals = a + b
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * GRID.h)
    W = wigner_transform(state_density_matrix(WaveFunction(GRID, vals, 0.0)))
    assert W.values.min() < -0.1
    assert W.integral() == pytest.approx(1.0, abs=1e-12)


def test_wigner_rejects_multiparticle():
    grid2 = GridSpec(d=1, n_particles=2, points_per_axis=32, box_half_width=5.0, epsilon=0.5)
    phi = coherent_state(grid2, [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(NotImplementedError):
        wigner_transform(state_density_matrix(phi))


# ---------------------------------------------------------------- Husimi transform


def test_husimi_values_coherent_closed_form():
    z0 = np.array([0.4, -0.3])
    rho = state_density_matrix(coherent_state(GRID, z0[0], z0[1]))
    qs, ps = np.array([0.4, 0.0, 1.0, -0.7]), np.array([-0.3, 0.0, 0.5])
    got = husimi_values(rho, qs, ps)
    want = np.array([[_overlap_sq((q, p), z0, EPS) for p in ps] for q in qs])
    assert np.allclose(got, want / (2 * np.pi * EPS), rtol=1e-10, atol=1e-14)


def _husimi_oracle(state, z):
    """Brute-force route: one grid-normalized coherent vector per point, then
    <phi| rho |phi> / (2 pi eps) by a matrix-vector product each."""
    rho = state_density_matrix(state) if isinstance(state, WaveFunction) else state
    grid = rho.grid
    x = grid.axis_points()
    eps = grid.epsilon
    z = np.atleast_2d(np.asarray(z, dtype=float))
    phi = (np.pi * eps) ** (-0.25) * np.exp(
        -((x[:, None] - z[None, :, 0]) ** 2) / (2 * eps)
        + 1j * z[None, :, 1] * x[:, None] / eps
    )
    phi /= np.sqrt(np.sum(np.abs(phi) ** 2, axis=0) * grid.h)[None, :]
    vals = np.real(np.einsum("im,im->m", phi.conj(), rho.matrix @ phi)) * grid.h**2
    return vals / (2 * np.pi * eps)


def _rough_states(n, seed):
    """The `husimi_values` oracle inputs, built from rough (white-noise in a
    Gaussian envelope) pure states, with no structure for either route to
    lean on: a mixture of three, then one pure state as a WaveFunction (the
    Bargmann route) and as its density matrix (the midpoint route)."""
    grid = GridSpec(d=1, n_particles=1, points_per_axis=n, box_half_width=6.0, epsilon=EPS)
    rng = np.random.default_rng(seed)
    x = grid.axis_points()

    def rough(center):
        v = np.exp(-((x - center) ** 2) / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        return v / np.sqrt(np.sum(np.abs(v) ** 2) * grid.h)

    matrix = np.zeros((n, n), dtype=complex)
    for w, center in zip(rng.dirichlet(np.ones(3)), rng.uniform(-1.0, 1.0, 3)):
        v = rough(center)
        matrix += w * np.outer(v, v.conj())
    psi = WaveFunction(grid, rough(0.3))
    return [DensityMatrix(grid, matrix), psi, state_density_matrix(psi)]


def _lattice(xs, ps):
    X, P = np.meshgrid(xs, ps, indexing="ij")
    return np.column_stack([X.ravel(), P.ravel()])


# x_half = 7.5 puts lattice nodes past the box edge at 6
@pytest.mark.parametrize("n, x_half", [(64, 4.0), (128, 4.0), (512, 4.0), (128, 7.5)])
def test_husimi_values_match_coherent_vector_oracle(n, x_half):
    states = _rough_states(n, seed=n)
    xi_max = EPS * np.pi / states[0].grid.h
    xs, ps = np.linspace(-x_half, x_half, 23), np.linspace(-xi_max, xi_max, 29)
    for state in states:
        want = _husimi_oracle(state, _lattice(xs, ps)).reshape(xs.size, ps.size)
        assert np.max(np.abs(husimi_values(state, xs, ps) - want)) <= 1e-13 * want.max()


def test_husimi_values_oracle_on_scattered_and_single_points():
    # lattices on unsorted, unevenly spaced axes drawn at random, and a 1 x 1 one
    rng = np.random.default_rng(11)
    qs, ps = rng.uniform(-3.0, 3.0, 17), rng.uniform(-2.0, 2.0, 13)
    for state in _rough_states(128, seed=9):
        want = _husimi_oracle(state, _lattice(qs, ps)).reshape(qs.size, ps.size)
        got = husimi_values(state, qs, ps)
        assert got.shape == (17, 13)
        assert np.max(np.abs(got - want)) <= 1e-13 * want.max()
        one = husimi_values(state, qs[7:8], ps[3:4])
        assert one.shape == (1, 1)
        assert abs(one[0, 0] - want[7, 3]) <= 1e-13 * want.max()
        # far outside the box the unnormalized coherent vector underflows,
        # but the grid-normalized one is still defined
        far = husimi_values(state, [30.0, -40.0], [0.5, 1.0])
        assert np.all(np.isfinite(far)) and far.min() >= -1e-13 * want.max()


def test_husimi_transform_nonnegative_and_normalized():
    a = coherent_state(GRID, -0.7, 0.5).values
    b = coherent_state(GRID, 0.8, -0.2).values
    vals = a + 0.6 * b
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * GRID.h)
    rho = state_density_matrix(WaveFunction(GRID, vals, 0.0))
    H = husimi_transform(rho, nx=96, nxi=96, x_window=(-4.0, 4.0), xi_window=(-3.0, 3.0))
    assert H.values.min() >= -1e-12
    assert H.integral() == pytest.approx(1.0, abs=1e-5)


def test_husimi_matches_smoothed_wigner():
    # dual route: direct coherent expectations vs G_{eps/2} * W quadrature
    a = coherent_state(GRID, -0.7, 0.5).values
    b = coherent_state(GRID, 0.8, -0.2).values
    vals = a + b
    vals /= np.sqrt(np.sum(np.abs(vals) ** 2) * GRID.h)
    rho = state_density_matrix(WaveFunction(GRID, vals, 0.0))
    H = husimi_transform(rho, nx=40, nxi=40, x_window=(-2.5, 2.5), xi_window=(-2.0, 2.0))
    S = smooth_wigner_to(wigner_transform(rho), H.x_nodes, H.xi_nodes)
    assert np.max(np.abs(H.values - S.values)) < 1e-8


def test_quadratic_symbol_expectation_identity():
    # integral of q^2 against the Husimi density = trace(x^2 rho) + eps/2
    z1, z2 = (-0.5, 0.2), (0.6, -0.3)
    r1 = state_density_matrix(coherent_state(GRID, *z1)).matrix
    r2 = state_density_matrix(coherent_state(GRID, *z2)).matrix
    rho = DensityMatrix(GRID, 0.3 * r1 + 0.7 * r2)
    H = husimi_transform(rho, nx=128, nxi=128, x_window=(-4.5, 4.5), xi_window=(-3.5, 3.5))
    got = float((H.values * H.x_nodes[:, None] ** 2).sum() * H.dx * H.dxi)
    x = GRID.axis_points()
    trace_x2 = float(np.real(np.sum(x**2 * np.diagonal(rho.matrix))) * GRID.h)
    assert got == pytest.approx(trace_x2 + EPS / 2, abs=1e-4)


# ---------------------------------------------------------------- Toeplitz lifts


def _symbol(atoms, weights=None):
    atoms = np.asarray(atoms, dtype=float)
    if weights is None:
        return SymbolMeasure.equal_weights(atoms)
    return SymbolMeasure(atoms, np.asarray(weights, dtype=float))


def test_toeplitz_single_atom_is_coherent_projector():
    sym = _symbol([[0.5, -0.2]])
    op = toeplitz_operator(GRID, sym)
    psi = coherent_state(GRID, 0.5, -0.2)
    proj = state_density_matrix(psi)
    assert np.max(np.abs(op.matrix - proj.matrix)) < 1e-12


def test_toeplitz_operator_is_trace_one_psd():
    rng = np.random.default_rng(7)
    atoms = np.column_stack([rng.uniform(-0.8, 0.8, 5), rng.uniform(-0.5, 0.5, 5)])
    w = rng.uniform(0.2, 1.0, 5)
    op = toeplitz_operator(GRID, _symbol(atoms, w / w.sum()))
    evals = np.linalg.eigvalsh(op.matrix) * GRID.h
    assert evals.min() >= -1e-12
    assert evals.sum() == pytest.approx(1.0, abs=1e-10)


def test_toeplitz_operator_matches_per_atom_oracle():
    # oracle: one weighted outer product per atom, summed
    rng = np.random.default_rng(23)
    for grid, k in ((GRID, 6), (GridSpec(1, 2, 32, 4.0, 0.5), 3)):
        atoms = rng.uniform(-0.6, 0.6, (k, 2 * grid.n_axes))
        w = rng.dirichlet(np.ones(k))
        oracle = np.zeros((grid.points_per_axis**grid.n_axes,) * 2, dtype=complex)
        for wm, atom in zip(w, atoms):
            phi = coherent_state(grid, atom[: grid.n_axes], atom[grid.n_axes :]).values.ravel()
            oracle += wm * np.outer(phi, phi.conj())
        got = toeplitz_operator(grid, _symbol(atoms, w)).matrix
        assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))


def test_toeplitz_trace_identity_dual_route():
    # trace(OP_T(symbol) rho) via matrix assembly vs atom-by-atom expectations
    rng = np.random.default_rng(21)
    atoms = np.column_stack([rng.uniform(-0.8, 0.8, 4), rng.uniform(-0.5, 0.5, 4)])
    w = rng.uniform(0.1, 1.0, 4)
    sym = _symbol(atoms, w / w.sum())
    z1, z2 = (-0.4, 0.3), (0.6, 0.1)
    r1 = state_density_matrix(coherent_state(GRID, *z1)).matrix
    r2 = state_density_matrix(coherent_state(GRID, *z2)).matrix
    rho = DensityMatrix(GRID, 0.45 * r1 + 0.55 * r2)
    lhs = toeplitz_trace_against(sym, rho)
    op = toeplitz_operator(GRID, sym)
    rhs = float(np.real(np.trace(op.matrix @ rho.matrix)) * GRID.h**2)
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_toeplitz_trace_against_overlap_oracle():
    z1 = (0.3, -0.4)
    z2 = (-0.5, 0.2)
    rho = state_density_matrix(coherent_state(GRID, *z2))
    got = toeplitz_trace_against(_symbol([list(z1)]), rho)
    assert got == pytest.approx(_overlap_sq(z1, z2, EPS), abs=1e-12)


def test_toeplitz_symbol_dimension_mismatch():
    sym = _symbol([[0.1, 0.0, 0.0, 0.0]])  # R^4 symbol on a 1-axis grid
    with pytest.raises(ValueError):
        toeplitz_operator(GRID, sym)


# ---------------------------------------------------------------- container


def test_phase_space_function_shape_validation():
    with pytest.raises(ValueError):
        PhaseSpaceFunction(np.arange(3.0), np.arange(4.0), np.zeros((4, 3)), 0.5)
