"""Phase-space toolkit tests: coherent states, Wigner/Husimi transforms,
Toeplitz lifts, and the trace identities connecting the two routes.

Oracles are closed forms for Gaussian states: overlap |<z1|z2>|^2 =
exp(-|dz|^2/(2 eps)), Wigner W(x,xi) = (pi eps)^{-1} exp(-((x-q)^2 +
(xi-p)^2)/eps), Husimi H(z) = (2 pi eps)^{-1} exp(-|z-z0|^2/(2 eps)).
"""
import numpy as np
import pytest

from mflab.quantum.grids import DensityMatrix, GridSpec, WaveFunction
from mflab.quantum.metrics import state_density_matrix
from mflab.quantum.phase_space import (
    PhaseSpaceFunction,
    SymbolMeasure,
    coherent_product_state,
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
    psi = coherent_state(GRID, 0.5, -0.1)
    phi = coherent_product_state(GRID, np.array([0.5, -0.1]))
    assert np.allclose(psi.values, phi.values, atol=1e-14)


def test_coherent_product_state_two_factors():
    grid2 = GridSpec(d=1, n_particles=2, points_per_axis=32, box_half_width=5.0, epsilon=0.5)
    atom = np.array([0.4, -0.3, 0.1, 0.2])  # (q1, q2, p1, p2)
    phi = coherent_product_state(grid2, atom)
    g1 = GridSpec(d=1, n_particles=1, points_per_axis=32, box_half_width=5.0, epsilon=0.5)
    a = coherent_state(g1, 0.4, 0.1).values
    b = coherent_state(g1, -0.3, 0.2).values
    assert np.allclose(phi.values, np.outer(a, b), atol=1e-12)


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
    phi = coherent_product_state(grid2, np.array([0.0, 0.0, 0.0, 0.0]))
    with pytest.raises(NotImplementedError):
        wigner_transform(state_density_matrix(phi))


# ---------------------------------------------------------------- Husimi transform


def test_husimi_values_coherent_closed_form():
    z0 = np.array([0.4, -0.3])
    rho = state_density_matrix(coherent_state(GRID, z0[0], z0[1]))
    pts = np.array([[0.4, -0.3], [0.0, 0.0], [1.0, 0.5], [-0.7, 0.2]])
    got = husimi_values(rho, pts)
    want = np.array([_overlap_sq(z, z0, EPS) for z in pts]) / (2 * np.pi * EPS)
    assert np.allclose(got, want, rtol=1e-10, atol=1e-14)


def _husimi_oracle(rho, z):
    """Brute-force route: one grid-normalized coherent vector per point, then
    <phi| rho |phi> / (2 pi eps) by a matrix-vector product each."""
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


def _rank3_state(n, seed):
    """Mixture of three rough (white-noise in a Gaussian envelope) pure
    states: no structure for the midpoint factorisation to lean on."""
    grid = GridSpec(d=1, n_particles=1, points_per_axis=n, box_half_width=6.0, epsilon=EPS)
    rng = np.random.default_rng(seed)
    x = grid.axis_points()
    matrix = np.zeros((n, n), dtype=complex)
    for w, center in zip(rng.dirichlet(np.ones(3)), rng.uniform(-1.0, 1.0, 3)):
        v = np.exp(-((x - center) ** 2) / 2) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        v /= np.sqrt(np.sum(np.abs(v) ** 2) * grid.h)
        matrix += w * np.outer(v, v.conj())
    return DensityMatrix(grid, matrix)


def _lattice(xs, ps):
    X, P = np.meshgrid(xs, ps, indexing="ij")
    return np.column_stack([X.ravel(), P.ravel()])


# x_half = 7.5 puts lattice nodes past the box edge at 6
@pytest.mark.parametrize("n, x_half", [(64, 4.0), (128, 4.0), (512, 4.0), (128, 7.5)])
def test_husimi_values_match_coherent_vector_oracle(n, x_half):
    rho = _rank3_state(n, seed=n)
    xi_max = EPS * np.pi / rho.grid.h
    z = _lattice(np.linspace(-x_half, x_half, 23), np.linspace(-xi_max, xi_max, 29))
    want = _husimi_oracle(rho, z)
    assert np.max(np.abs(husimi_values(rho, z) - want)) <= 1e-13 * want.max()


def test_husimi_values_oracle_on_scattered_and_single_points():
    rho = _rank3_state(128, seed=9)
    rng = np.random.default_rng(11)
    z = np.column_stack([rng.uniform(-3.0, 3.0, 300), rng.uniform(-2.0, 2.0, 300)])
    want = _husimi_oracle(rho, z)
    got = husimi_values(rho, z)
    assert got.shape == (300,)
    assert np.max(np.abs(got - want)) <= 1e-13 * want.max()
    one = husimi_values(rho, z[7])
    assert one.shape == (1,)
    assert abs(one[0] - want[7]) <= 1e-13 * want.max()
    # far outside the box the unnormalized coherent vector underflows, but
    # the grid-normalized one is still defined
    far = husimi_values(rho, [[30.0, 0.5], [-40.0, 1.0]])
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
            phi = coherent_product_state(grid, atom).values.ravel()
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
