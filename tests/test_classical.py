"""Particle dynamics: Verlet oracles, forces, coupled flow, functionals."""
import math

import numpy as np
import pytest

from mflab.classical import (
    PAIR_BLOCK,
    CoupledEnsemble,
    PhaseState,
    VlasovCloud,
    _exact_field,
    _frozen_field,
    _grid_field_1d,
    _nbody_force_batch,
    _verlet_arrays,
    coupled_advance,
    diagonal_ensemble,
    dobrushin_functional,
    moment_p,
    run_coupled_trajectory,
    sample_gaussian_cloud,
    verlet_step,
    vlasov_advance,
)
from mflab.potentials import make_cosine_potential, make_gaussian_potential
from mflab.transport import DiscreteMeasure

GAUSS = make_gaussian_potential(1.0, 1.0, 1)
FLAT = make_gaussian_potential(0.0, 1.0, 1)


def _harmonic(x):
    return -x


def nbody_energy(V, state: PhaseState) -> float:
    """H_N = (1/2) sum |xi_k|^2 + (1/2N) sum_{k,l} V(x_k - x_l); conserved by
    the isolated N-body flow up to O(dt^2)."""
    X = state.positions
    diff = X[:, None, :] - X[None, :, :]
    return float(
        0.5 * np.sum(state.momenta**2) + np.sum(V.eval(diff)) / (2 * X.shape[0])
    )


def test_verlet_matches_harmonic_closed_form():
    # x(t) = cos t, xi(t) = -sin t starting from (1, 0); global error O(dt^2)
    dt, n_steps = 1e-3, 1000
    s = PhaseState(np.array([[1.0]]), np.array([[0.0]]), 0.0)
    for _ in range(n_steps):
        s = verlet_step(s, _harmonic, dt)
    t = n_steps * dt
    assert s.time == pytest.approx(t, abs=1e-12)
    assert s.positions[0, 0] == pytest.approx(math.cos(t), abs=5 * dt**2)
    assert s.momenta[0, 0] == pytest.approx(-math.sin(t), abs=5 * dt**2)


def test_verlet_second_order_global_error():
    def run(dt):
        s = PhaseState(np.array([[1.0]]), np.array([[0.0]]), 0.0)
        for _ in range(round(1.0 / dt)):
            s = verlet_step(s, _harmonic, dt)
        return abs(s.positions[0, 0] - math.cos(1.0))

    e1, e2 = run(0.01), run(0.005)
    assert e1 / e2 == pytest.approx(4.0, rel=0.05)


def test_verlet_time_reversible():
    rng = np.random.default_rng(0)
    s0 = PhaseState(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), 0.0)
    field = lambda x: -x + 0.1 * x**2
    s = s0
    for _ in range(50):
        s = verlet_step(s, field, 0.01)
    for _ in range(50):
        s = verlet_step(s, field, -0.01)
    np.testing.assert_allclose(s.positions, s0.positions, atol=1e-12)
    np.testing.assert_allclose(s.momenta, s0.momenta, atol=1e-12)
    assert s.time == pytest.approx(0.0, abs=1e-12)


def test_verlet_energy_drift_law():
    # relative harmonic-energy oscillation peaks at dt^2/4 (so the window must
    # cover a full phase), and is quartered when dt halves
    def drift(dt, t_final):
        s = PhaseState(np.array([[1.0]]), np.array([[0.0]]), 0.0)
        e0 = 0.5 * (s.positions[0, 0] ** 2 + s.momenta[0, 0] ** 2)
        worst = 0.0
        for _ in range(round(t_final / dt)):
            s = verlet_step(s, _harmonic, dt)
            e = 0.5 * (s.positions[0, 0] ** 2 + s.momenta[0, 0] ** 2)
            worst = max(worst, abs(e - e0) / e0)
        return worst

    assert drift(0.01, 4.0) == pytest.approx(0.01**2 / 4, rel=0.01)
    d1, d2 = drift(0.01, 1.0), drift(0.005, 1.0)
    assert d1 / d2 == pytest.approx(4.0, rel=0.2)


def test_verlet_rejects_zero_dt():
    s = PhaseState(np.zeros((1, 1)), np.zeros((1, 1)), 0.0)
    with pytest.raises(ValueError):
        verlet_step(s, _harmonic, 0.0)


def test_nbody_force_two_particle_value():
    # unit Gaussian bump, x = (0, 1): F_1 = -(1/2) grad V(-1) = -(1/2) e^{-1/2}
    X = np.array([[0.0], [1.0]])
    F = _nbody_force_batch(GAUSS, X[None])[0]
    f = 0.5 * math.exp(-0.5)
    assert F[0, 0] == pytest.approx(-f, rel=1e-14)
    assert F[1, 0] == pytest.approx(f, rel=1e-14)


def test_nbody_force_newton_third_law_and_translation():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(7, 2))
    V = make_gaussian_potential(0.8, 1.3, 2)
    F = _nbody_force_batch(V, X[None])[0]
    np.testing.assert_allclose(F.sum(axis=0), 0.0, atol=1e-14)
    np.testing.assert_allclose(_nbody_force_batch(V, X[None] + 3.7)[0], F, atol=1e-14)


def _potential(family, d):
    if family == "gaussian":
        return make_gaussian_potential(-1.3, 0.8, d)
    return make_cosine_potential(0.7, np.linspace(1.1, -0.4, d), d)


@pytest.mark.parametrize("family", ["gaussian", "cosine"])
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("M, N", [(150, 64), (3, 600)])
def test_nbody_force_blocks_match_unblocked_oracle(family, d, M, N):
    if N * N <= PAIR_BLOCK:  # whole samples per block, and a short last block
        assert M % (PAIR_BLOCK // (N * N))
    else:  # row blocks within each sample, and a short last one
        assert N % (PAIR_BLOCK // N)
    V = _potential(family, d)
    X = np.random.default_rng(21).normal(scale=1.5, size=(M, N, d))
    diff = X[:, :, None, :] - X[:, None, :, :]
    np.testing.assert_array_equal(_nbody_force_batch(V, X), -V.grad(diff).mean(axis=2))


@pytest.mark.parametrize("family", ["gaussian", "cosine"])
@pytest.mark.parametrize("d", [1, 2])
def test_exact_field_blocks_match_unblocked_oracle(family, d):
    # 5000 sources give blocks of 52 queries, which 130 queries do not fill
    rng = np.random.default_rng(22)
    V = _potential(family, d)
    y, q = rng.normal(size=(5000, d)), rng.normal(scale=2.0, size=(130, d))
    w = rng.dirichlet(np.ones(len(y)))
    assert len(q) % (PAIR_BLOCK // len(y))
    oracle = -np.sum(w[:, None] * V.grad(q[:, None, :] - y[None, :, :]), axis=1)
    np.testing.assert_array_equal(_exact_field(V, y, w)(q), oracle)


def test_mean_field_force_single_point_cloud():
    F = _exact_field(GAUSS, np.array([[1.0]]), np.ones(1))(np.array([[0.0]]))
    assert F[0, 0] == pytest.approx(-math.exp(-0.5), rel=1e-14)


def test_mean_field_force_grid_matches_exact():
    # the tabulated field, and one step under it, differ from exact summation
    # by the interpolation error (~1e-7), far below the cloud's MC noise
    cloud = sample_gaussian_cloud(2048, 1, seed=2)
    y, w = cloud.x, cloud.points.weights
    grid, exact = _grid_field_1d(GAUSS, y, w), _exact_field(GAUSS, y, w)
    np.testing.assert_allclose(grid(y), exact(y), atol=1e-6)
    x_grid, xi_grid, _ = _verlet_arrays(cloud.x, cloud.xi, grid, 0.05)
    x_exact, xi_exact, _ = _verlet_arrays(cloud.x, cloud.xi, exact, 0.05)
    np.testing.assert_allclose(xi_grid, xi_exact, atol=1e-6)
    np.testing.assert_allclose(x_grid, x_exact, atol=1e-7)


@pytest.mark.parametrize("size, d, gridded", [(1024, 1, True), (1023, 1, False), (1024, 2, False)])
def test_frozen_field_grids_only_large_one_dimensional_clouds(size, d, gridded):
    V = make_gaussian_potential(1.0, 1.0, d)
    cloud = sample_gaussian_cloud(size, d, seed=23)
    y, w = cloud.x, cloud.points.weights
    q = np.random.default_rng(24).normal(size=(50, d))
    want = _grid_field_1d(V, y, w) if gridded else _exact_field(V, y, w)
    np.testing.assert_array_equal(_frozen_field(V, cloud)(q), want(q))
    if d == 1:  # the two routes differ in the last bits, so the check tells them apart
        assert not np.array_equal(_grid_field_1d(V, y, w)(q), _exact_field(V, y, w)(q))


def test_vlasov_free_streaming_is_exact():
    cloud = sample_gaussian_cloud(64, 2, seed=3)
    out = vlasov_advance(cloud, make_gaussian_potential(0.0, 1.0, 2), 0.05, 10)
    np.testing.assert_allclose(out.x, cloud.x + 0.5 * cloud.xi, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(out.xi, cloud.xi, rtol=0, atol=0)
    assert out.time == pytest.approx(0.5)


def test_nbody_energy_and_momentum_conserved():
    rng = np.random.default_rng(4)
    s = PhaseState(rng.normal(size=(6, 1)), rng.normal(size=(6, 1)), 0.0)
    e0 = nbody_energy(GAUSS, s)
    ptot = s.momenta.sum()
    field = lambda x: _nbody_force_batch(GAUSS, x[None])[0]
    for _ in range(200):
        s = verlet_step(s, field, 0.005)
    assert nbody_energy(GAUSS, s) == pytest.approx(e0, abs=5 * 0.005**2)
    assert s.momenta.sum() == pytest.approx(ptot, abs=1e-12)


def test_diagonal_ensemble_starts_at_zero_dobrushin():
    ref = sample_gaussian_cloud(128, 1, seed=5)
    ens = diagonal_ensemble(16, 8, ref, seed=6)
    assert ens.n_samples == 16
    assert ens.n_particles == 8
    assert dobrushin_functional(ens, 2.0) == 0.0


def test_coupled_flow_zero_potential_stays_diagonal():
    ref = sample_gaussian_cloud(128, 1, seed=7)
    ens = diagonal_ensemble(8, 4, ref, seed=8)
    ens, ref2, times, dvals = run_coupled_trajectory(ens, ref, FLAT, 0.05, 10)
    np.testing.assert_allclose(dvals, 0.0, atol=0.0)
    assert times[-1] == pytest.approx(0.5)


def test_coupled_flow_time_alignment_guard():
    ref = sample_gaussian_cloud(64, 1, seed=9)
    ens = diagonal_ensemble(4, 2, ref, seed=10)
    stale = VlasovCloud(ref.points, time=1.0)
    with pytest.raises(RuntimeError):
        coupled_advance(ens, stale, GAUSS, 0.05)


def test_dobrushin_functional_hand_value():
    X, Xi = np.array([[[0.0], [1.0]]]), np.array([[[0.0], [0.0]]])
    Y, H = np.array([[[1.0], [1.0]]]), np.array([[[0.0], [2.0]]])
    ref = sample_gaussian_cloud(8, 1, seed=11)
    ens = CoupledEnsemble(X, Xi, Y, H, ref.points, 0)
    # (1/2)(|0-1|^2 + |1-1|^2) + (1/2)(|0-0|^2 + |0-2|^2) = 1/2 + 2
    assert dobrushin_functional(ens, 2.0) == pytest.approx(2.5, rel=1e-14)


def test_moment_p_hand_value():
    from mflab.transport import DiscreteMeasure

    pts = np.array([[2.0, 0.0], [0.0, 3.0]])  # (x, xi) pairs in d = 1
    cloud = VlasovCloud(DiscreteMeasure.equal_weights(pts), 0.0)
    assert moment_p(cloud, 2.0) == pytest.approx(0.5 * 4.0 + 0.5 * 9.0, rel=1e-14)


def test_samplers_deterministic_and_shaped():
    a = sample_gaussian_cloud(32, 2, seed=12)
    b = sample_gaussian_cloud(32, 2, seed=12)
    np.testing.assert_array_equal(a.points.points, b.points.points)
    assert a.size == 32 and a.d == 2
    # x, then xi: each a block of standard normals from the seed's stream
    rng = np.random.default_rng(12)
    np.testing.assert_array_equal(a.x, rng.standard_normal((32, 2)))
    np.testing.assert_array_equal(a.xi, rng.standard_normal((32, 2)))


def test_coupled_trajectory_seeds_reproducible():
    ref = sample_gaussian_cloud(256, 1, seed=14)
    out = []
    for _ in range(2):
        ens = diagonal_ensemble(8, 4, ref, seed=15)
        _, _, _, dvals = run_coupled_trajectory(ens, ref, GAUSS, 0.05, 6)
        out.append(dvals)
    np.testing.assert_array_equal(out[0], out[1])
    assert out[0][-1] > 0  # interacting flow actually separates the sides


def _advance_without_reuse(ens, ref, V, dt):
    # oracle: the coupled step with both N-body half-kicks evaluated afresh
    field = _frozen_field(V, ref)

    def step(x, xi, f):
        xi_half = xi + 0.5 * dt * f(x)
        x_new = x + dt * xi_half
        return x_new, xi_half + 0.5 * dt * f(x_new)

    X, Xi = step(ens.X, ens.Xi, field)
    Y, H = step(ens.Y, ens.H, lambda pos: _nbody_force_batch(V, pos))
    rx, rxi = step(ref.x, ref.xi, field)
    ref_meas = DiscreteMeasure(np.hstack([rx, rxi]), ref.points.weights)
    return CoupledEnsemble(X, Xi, Y, H, ref_meas, ens.rng_seed, ens.time + dt)


@pytest.mark.parametrize("N, d", [(5, 1), (3, 2)])
def test_coupled_force_reuse_matches_fresh_force_oracle(N, d):
    V = make_gaussian_potential(1.0, 0.8, d)
    ref0 = sample_gaussian_cloud(64, d, seed=16)
    ens = oracle = diagonal_ensemble(6, N, ref0, seed=17)
    ref = ref_o = ref0
    for _ in range(12):
        ens = coupled_advance(ens, ref, V, 0.05)
        oracle = _advance_without_reuse(oracle, ref_o, V, 0.05)
        ref, ref_o = ens.reference_as_cloud(), oracle.reference_as_cloud()
        for a in ("X", "Xi", "Y", "H"):
            np.testing.assert_array_equal(getattr(ens, a), getattr(oracle, a))
        np.testing.assert_array_equal(ens.force, _nbody_force_batch(V, ens.Y))
        assert ens.force_potential is V
    np.testing.assert_array_equal(ref.points.points, ref_o.points.points)
    assert dobrushin_functional(ens, 2.0) > 0  # the sides did separate


def test_coupled_force_is_recomputed_for_another_potential():
    weak, strong = make_gaussian_potential(0.1, 1.0, 1), make_gaussian_potential(2.0, 0.5, 1)
    ref = sample_gaussian_cloud(64, 1, seed=18)
    ens = coupled_advance(diagonal_ensemble(4, 5, ref, seed=19), ref, weak, 0.05)
    ref = ens.reference_as_cloud()
    out = coupled_advance(ens, ref, strong, 0.05)
    expected = _advance_without_reuse(ens, ref, strong, 0.05)
    np.testing.assert_array_equal(out.H, expected.H)
    np.testing.assert_array_equal(out.Y, expected.Y)
    assert out.force_potential is strong


def test_coupled_ensemble_rejects_bad_arrays():
    ref = sample_gaussian_cloud(8, 1, seed=20)
    z = np.zeros((2, 3, 1))
    with pytest.raises(ValueError):
        CoupledEnsemble(z, z, z, np.zeros((2, 4, 1)), ref.points, 0)
    with pytest.raises(ValueError):
        CoupledEnsemble(z[0], z[0], z[0], z[0], ref.points, 0)
    with pytest.raises(ValueError):
        CoupledEnsemble(z, z, z + np.nan, z, ref.points, 0)
