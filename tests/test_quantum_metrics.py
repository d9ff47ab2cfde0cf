"""Coupling-cost tests: the (Q*Q + P*P) trace cost against coherent closed
forms, the moment table it reads against the full-array FFT route, the
squared-distance bracket, the Toeplitz lift of coupling symbols, and the
coupled flow's cost against the harmonic closed form of `harmonic_oracle`.

Coherent oracle: a product coupling of coherent factors centered at z_x, z_y
costs |q_x - q_y|^2 + |p_x - p_y|^2 + 2*(dN)*eps -- the squared center
displacement plus one Heisenberg floor per coupled axis pair.
"""
import tracemalloc
import types
from dataclasses import replace

import doubled_oracle as oracle
import numpy as np
import pytest
from harmonic_oracle import harmonic_potential, n_delta
from scipy import fft as sfft

from mflab.potentials import make_gaussian_potential
from mflab.quantum import metrics
from mflab.quantum.dynamics import factored_coupled_advance
from mflab.quantum.grids import FactoredCoupling, GridSpec, WaveFunction
from mflab.quantum.metrics import (
    coupling_to_factored_mixture,
    factor_moments,
    husimi_lattices,
    lattice_lower,
    mk_eps_lower,
    mk_eps_upper,
    qp_cost_trace,
    reduced_density,
    state_density_matrix,
)
from mflab.quantum.phase_space import SymbolMeasure, coherent_state, toeplitz_operator

BASE = GridSpec(d=1, n_particles=1, points_per_axis=32, box_half_width=5.0, epsilon=0.5)
EPS = BASE.epsilon
Z0 = (-0.3, 0.3)


def _pair_coupling(z1, z2, base=BASE):
    return FactoredCoupling((coherent_state(base, *z1),), coherent_state(base, *z2))


def _superposition(grid, z1, z2):
    vals = coherent_state(grid, *z1).values + coherent_state(grid, *z2).values
    return WaveFunction(grid, vals / np.sqrt(np.sum(np.abs(vals) ** 2) * grid.h))


def _coherent_cost(z1, z2, eps=EPS):
    dz = np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float)
    return float(np.sum(dz**2)) + 2 * eps


# ------------------------------------------------------------- trace cost routes


def test_pure_coupling_cost_closed_form():
    z1, z2 = (0.4, 0.5), (-0.3, 0.2)
    state, want = _pair_coupling(z1, z2), _coherent_cost(z1, z2)
    assert qp_cost_trace([(1.0, state)]) == pytest.approx(want, abs=1e-9)
    assert oracle.cost(oracle.doubled_state(state)) == pytest.approx(want, abs=1e-9)


def test_matrix_route_matches_pure_route():
    z1, z2 = (0.5, -0.2), (-0.1, 0.3)
    state = _pair_coupling(z1, z2)
    rho = state_density_matrix(oracle.doubled_state(state))
    assert oracle.cost(rho) == pytest.approx(qp_cost_trace([(1.0, state)]), abs=1e-10)


def test_mixture_route_is_weighted_sum():
    psi_a = _pair_coupling((0.4, 0.1), (0.4, 0.1))
    psi_b = _pair_coupling((-0.3, 0.2), (0.5, -0.4))
    ca, cb = qp_cost_trace([(1.0, psi_a)]), qp_cost_trace([(1.0, psi_b)])
    got = qp_cost_trace([(0.3, psi_a), (0.7, psi_b)])
    assert got == pytest.approx(0.3 * ca + 0.7 * cb, abs=1e-12)


def test_cost_requires_a_factored_coupling():
    # a coupling is a list of (weight, FactoredCoupling), even for one product
    psi = coherent_state(BASE, 0.2, 0.1)
    state = _pair_coupling((0.2, 0.1), (0.2, 0.1))
    for R in (psi, [(1.0, psi)], oracle.doubled_state(state), state):
        with pytest.raises(TypeError):
            qp_cost_trace(R)
        with pytest.raises(TypeError):
            reduced_density(R, 0)


def test_two_particle_cost_and_per_particle_average():
    qx, qy = np.array([0.3, -0.2]), np.array([0.1, 0.1])
    px, py = np.array([0.2, 0.0]), np.array([-0.1, 0.2])
    atom = np.concatenate([qx, qy, px, py])
    [(_, state)] = coupling_to_factored_mixture(BASE, 2, SymbolMeasure(atom[None, :], np.ones(1)))
    want = float(np.sum((qx - qy) ** 2 + (px - py) ** 2)) + 4 * EPS
    assert qp_cost_trace([(1.0, state)]) == pytest.approx(want, abs=1e-9)
    assert oracle.cost(oracle.doubled_state(state)) == pytest.approx(want, abs=1e-9)


def test_diagonal_coupling_sits_on_heisenberg_floor():
    z0 = (0.3, -0.2)
    D = qp_cost_trace([(1.0, _pair_coupling(z0, z0))])
    assert D == pytest.approx(2 * EPS, abs=1e-9)
    assert D >= 2 * EPS - 1e-12


# ------------------------------------------------------------- moment table


def _fftn_moments(psi: WaveFunction) -> np.ndarray:
    """The moment table from the full n^N arrays |psi|^2 and |fftn psi|^2."""
    grid = psi.grid
    table = np.zeros((psi.values.ndim, 4))
    for col, (coords, prob) in enumerate(
        (
            (grid.axis_points(), np.abs(psi.values) ** 2),
            (grid.epsilon * grid.wavenumbers(), np.abs(sfft.fftn(psi.values)) ** 2),
        )
    ):
        for ax in range(prob.ndim):
            marg = prob.sum(axis=tuple(i for i in range(prob.ndim) if i != ax))
            table[ax, 2 * col : 2 * col + 2] = coords @ marg, coords**2 @ marg
        table[:, 2 * col : 2 * col + 2] /= prob.sum()
    return table


def _interacting_y(N: int, base=BASE, steps: int = 5):
    """The Y factor of a coherent product after `steps` coupled steps: no
    longer a product state."""
    ref = coherent_state(base, *Z0)
    y = coherent_state(replace(base, n_particles=N), np.full(N, Z0[0]), np.full(N, Z0[1]))
    V = make_gaussian_potential(1.0, 1.0, 1)
    coupling = [(1.0, FactoredCoupling((ref,) * N, y))]
    [(_, state)], _ = factored_coupled_advance(coupling, ref, V, 0.05, steps)
    return state.y


@pytest.mark.parametrize(
    "psi",
    [
        coherent_state(BASE, 0.4, -0.3),
        _superposition(GridSpec(1, 1, 128, 6.0, 0.25), (-1.0, 0.5), (1.2, -0.3)),
    ],
)
def test_wavefunction_moments_match_its_density_matrix(psi):
    table = factor_moments(psi)
    assert table.shape == (1, 4)
    np.testing.assert_allclose(table, factor_moments(state_density_matrix(psi)), rtol=0, atol=1e-12)


@pytest.mark.parametrize("block", [None, 100])
def test_slab_moments_match_the_fftn_route(monkeypatch, block):
    # N = 2 at 32 points is one slab at PAIR_BLOCK; a block of 100 entries
    # splits it into 10 uneven slabs along the other axis
    if block is not None:
        monkeypatch.setattr(metrics, "PAIR_BLOCK", block)
    y = _interacting_y(2)
    table = factor_moments(y)
    assert table.shape == (2, 4)
    np.testing.assert_allclose(table, _fftn_moments(y), rtol=1e-13, atol=0)


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(lambda: coherent_state(BASE, 0.4, -0.3), id="one-axis wave function"),
        pytest.param(lambda: _interacting_y(2), id="two-axis wave function"),
        pytest.param(lambda: state_density_matrix(coherent_state(BASE, 0.4, -0.3)), id="density matrix"),
    ],
)
def test_factor_moments_are_scipys_fft_bit_for_bit(monkeypatch, state):
    # numpy's FFT gives scipy.fft's bits on every transform the table takes
    state = state()
    table = factor_moments(state)
    scipys = types.SimpleNamespace(fft=sfft.fft, ifft=sfft.ifft, fftfreq=np.fft.fftfreq)
    monkeypatch.setattr(np, "fft", scipys)
    assert np.array_equal(table, factor_moments(state))


def test_factor_moments_of_a_multi_axis_density_matrix_is_refused():
    with pytest.raises(ValueError):
        factor_moments(state_density_matrix(_interacting_y(2, steps=1)))


def test_cost_reads_no_n_to_the_N_copy():
    # N = 3 at 64 points: slabs of PAIR_BLOCK entries, not |fftn y|^2
    base = GridSpec(d=1, n_particles=1, points_per_axis=64, box_half_width=8.0, epsilon=0.25)
    y = _interacting_y(3, base, steps=2)
    coupling = [(1.0, FactoredCoupling((coherent_state(base, *Z0),) * 3, y))]
    qp_cost_trace(coupling)  # warm the FFT plan cache
    tracemalloc.start()
    try:
        qp_cost_trace(coupling)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.6 * y.values.nbytes


# ------------------------------------------------------------- bracket bounds


def test_mk_eps_upper_point_symbols():
    z1, z2 = (0.4, -0.1), (-0.2, 0.3)
    s1 = SymbolMeasure.equal_weights(np.array([z1]))
    s2 = SymbolMeasure.equal_weights(np.array([z2]))
    want = (z1[0] - z2[0]) ** 2 + (z1[1] - z2[1]) ** 2 + 2 * EPS
    assert mk_eps_upper(s1, s2, EPS) == pytest.approx(want, abs=1e-10)


def test_mk_eps_upper_identical_symbols_floor():
    pts = np.array([[0.2, 0.1, -0.3, 0.0], [-0.1, 0.4, 0.2, -0.2]])  # R^4: dN = 2
    sym = SymbolMeasure.equal_weights(pts)
    assert mk_eps_upper(sym, sym, EPS) == pytest.approx(4 * EPS, abs=1e-10)


def test_mk_eps_upper_dimension_mismatch():
    s1 = SymbolMeasure.equal_weights(np.array([[0.1, 0.0]]))
    s2 = SymbolMeasure.equal_weights(np.array([[0.1, 0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError):
        mk_eps_upper(s1, s2, EPS)


def test_mk_eps_lower_identical_states():
    rho = state_density_matrix(coherent_state(BASE, 0.3, -0.1))
    assert mk_eps_lower(rho, rho) == pytest.approx(-2 * EPS, abs=1e-9)


def test_bracket_sandwich_on_coherent_pair():
    z1, z2 = (0.5, -0.2), (-0.3, 0.3)
    rho1 = state_density_matrix(coherent_state(BASE, *z1))
    rho2 = state_density_matrix(coherent_state(BASE, *z2))
    lower = mk_eps_lower(rho1, rho2)
    s1 = SymbolMeasure.equal_weights(np.array([z1]))
    s2 = SymbolMeasure.equal_weights(np.array([z2]))
    upper = mk_eps_upper(s1, s2, EPS)
    cost = qp_cost_trace([(1.0, _pair_coupling(z1, z2))])
    dz2 = (z1[0] - z2[0]) ** 2 + (z1[1] - z2[1]) ** 2
    # Husimi distance between equal-covariance Gaussians: |dz|^2 up to lattice error
    assert lower == pytest.approx(dz2 - 2 * EPS, abs=0.02)
    assert lower <= cost + 1e-9
    assert cost == pytest.approx(upper, abs=1e-9)


def _density_route(state):
    return state_density_matrix(state) if isinstance(state, WaveFunction) else state


def _assert_lattices_match_density_route(state1, state2):
    """husimi_lattices as given against the same states as density matrices,
    whose lattices `husimi_values` fills by its midpoint route."""
    eps = state1.grid.epsilon
    got = husimi_lattices(state1, state2)
    want = husimi_lattices(_density_route(state1), _density_route(state2))
    for mu, nu in zip(got, want):
        assert mu.size == nu.size
        np.testing.assert_allclose(mu.points, nu.points, rtol=0, atol=1e-12)
        np.testing.assert_allclose(mu.weights, nu.weights, rtol=0, atol=1e-12)
    assert lattice_lower(*got, eps) == pytest.approx(lattice_lower(*want, eps), abs=1e-12)


@pytest.mark.parametrize(
    "grid",
    [
        GridSpec(1, 1, 64, 5.0, 0.25),
        GridSpec(1, 1, 256, 6.0, 0.1),
    ],
)
def test_wavefunction_lattices_match_density_route_on_coherent_pairs(grid):
    psi1 = coherent_state(grid, 0.4, -0.3)
    psi2 = coherent_state(grid, -0.5, 0.6)
    _assert_lattices_match_density_route(psi1, psi2)


def test_wavefunction_lattices_match_density_route_on_a_superposition():
    # a cat state: two coherent bumps and interference fringes, not a Gaussian
    grid = GridSpec(1, 1, 128, 6.0, 0.25)
    cat = _superposition(grid, (-1.0, 0.5), (1.2, -0.3))
    _assert_lattices_match_density_route(cat, coherent_state(grid, 0.2, 0.1))


def test_wavefunction_lattices_match_density_route_far_off_the_grid():
    # bumps near both box edges widen the 4.2-sigma position window far past
    # the box: on its first lattice row the unscaled Gaussian underflows
    # everywhere on the grid, so only row scaling keeps the values finite
    grid = GridSpec(1, 1, 256, 8.0, 0.05)
    cat = _superposition(grid, (-5.5, 0.0), (5.5, 0.3))
    x = grid.axis_points()
    dens = np.abs(cat.values) ** 2 / np.sum(np.abs(cat.values) ** 2)
    mean = x @ dens
    q_lo = mean - 4.2 * np.sqrt((x - mean) ** 2 @ dens)
    assert not np.any(np.exp(-((x - q_lo) ** 2) / (2 * grid.epsilon)))
    _assert_lattices_match_density_route(cat, coherent_state(grid, 0.0, 0.0))


def test_pure_and_mixed_states_pair_in_husimi_lattices():
    mixed = toeplitz_operator(
        BASE, SymbolMeasure(np.array([[0.5, -0.2], [-0.4, 0.3]]), np.array([0.3, 0.7]))
    )
    psi = coherent_state(BASE, 0.2, 0.1)
    _assert_lattices_match_density_route(psi, mixed)
    _assert_lattices_match_density_route(mixed, psi)
    assert mk_eps_lower(psi, mixed) == pytest.approx(mk_eps_lower(mixed, psi), abs=1e-12)


def test_mk_eps_lower_validations():
    rho = state_density_matrix(coherent_state(BASE, 0.0, 0.0))
    other = state_density_matrix(
        coherent_state(
            GridSpec(d=1, n_particles=1, points_per_axis=64, box_half_width=6.0, epsilon=0.25),
            0.0,
            0.0,
        )
    )
    with pytest.raises(ValueError):
        mk_eps_lower(rho, other)
    coupling = _pair_coupling((0.0, 0.0), (0.0, 0.0))
    psi2 = oracle.doubled_state(coupling)
    dbl = state_density_matrix(psi2)
    for pair in ((dbl, dbl), (rho, dbl), (coherent_state(BASE, 0.0, 0.0), psi2)):
        with pytest.raises(ValueError):
            mk_eps_lower(*pair)
    with pytest.raises(TypeError):
        mk_eps_lower(coupling, rho)


# ------------------------------------------------------------- lifts and marginals


def test_coupling_to_factored_mixture_matches_doubled_lift():
    atoms = np.array([[0.3, -0.2, 0.1, 0.0], [-0.1, 0.4, 0.0, -0.2]])
    coup = SymbolMeasure(atoms, np.array([0.25, 0.75]))
    comps = coupling_to_factored_mixture(BASE, 1, coup)
    assert [w for w, _ in comps] == [0.25, 0.75]
    for (_, state), (_, psi) in zip(comps, oracle.coupling_to_state_mixture(oracle.doubled(BASE, 1), coup)):
        product = oracle.doubled_state(state)
        assert product.grid == psi.grid
        assert np.allclose(product.values, psi.values, atol=1e-14)
    with pytest.raises(ValueError):
        coupling_to_factored_mixture(BASE, 2, coup)


@pytest.mark.parametrize(
    "N, zx, zy", [(1, Z0, Z0), (2, Z0, Z0), (3, Z0, Z0), (1, (0.4, -0.1), (-0.2, 0.3))]
)
def test_direct_coherent_product_matches_lift_of_its_symbol(N, zx, zy):
    # the runners build their initial coupling directly: one X factor for
    # every slot (quantum-dobrushin, zx = zy) or a coherent pair (mk-bracket);
    # the Toeplitz lift of its one-atom coupling symbol, laid out
    # (q_x.., q_y.., p_x.., p_y..), is the same product bit for bit
    x = coherent_state(BASE, *zx)
    y = coherent_state(replace(BASE, n_particles=N), np.full(N, zy[0]), np.full(N, zy[1]))
    atom = np.repeat([zx[0], zy[0], zx[1], zy[1]], N)
    [(w, lift)] = coupling_to_factored_mixture(BASE, N, SymbolMeasure(atom[None, :], np.ones(1)))
    assert w == 1.0
    for f, g in zip(FactoredCoupling((x,) * N, y).factors, lift.factors, strict=True):
        assert f.grid == g.grid and f.time == g.time
        assert f.values.tobytes() == g.values.tobytes()


def test_reduced_density_of_aliased_x_factors():
    # X factors that are one object count once per slot: each copy's squared
    # grid norm (1 + 4e-16 here, not 1) multiplies every other slot's block
    base = GridSpec(d=1, n_particles=1, points_per_axis=64, box_half_width=8.0, epsilon=0.5)
    N = 2
    ref = coherent_state(base, *Z0)
    assert ref.norm() != 1.0
    y = coherent_state(replace(base, n_particles=N), np.full(N, Z0[0]), np.full(N, Z0[1]))
    aliased = [(1.0, FactoredCoupling((ref,) * N, y))]
    distinct = [(1.0, FactoredCoupling([coherent_state(base, *Z0) for _ in range(N)], y))]
    for slot in range(2 * N):
        got = reduced_density(aliased, slot).matrix
        assert got.tobytes() == reduced_density(distinct, slot).matrix.tobytes()


def test_reduced_density_of_product_coupling():
    z1, z2 = (0.4, -0.1), (-0.2, 0.3)
    state = _pair_coupling(z1, z2)
    rho_x = reduced_density([(1.0, state)], 0)
    rho_y = reduced_density([(1.0, state)], 1)
    want_x = state_density_matrix(coherent_state(BASE, *z1))
    want_y = state_density_matrix(coherent_state(BASE, *z2))
    assert np.max(np.abs(rho_x.matrix - want_x.matrix)) < 1e-10
    assert np.max(np.abs(rho_y.matrix - want_y.matrix)) < 1e-10
    assert rho_x.trace() == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        reduced_density([(1.0, state)], 2)


def test_reduced_density_of_mixture_is_convex():
    psi_a = _pair_coupling((0.4, 0.1), (0.0, 0.0))
    psi_b = _pair_coupling((-0.3, 0.2), (0.0, 0.0))
    mix = [(0.6, psi_a), (0.4, psi_b)]
    rho = reduced_density(mix, 0)
    ra = state_density_matrix(coherent_state(BASE, 0.4, 0.1)).matrix
    rb = state_density_matrix(coherent_state(BASE, -0.3, 0.2)).matrix
    assert np.max(np.abs(rho.matrix - (0.6 * ra + 0.4 * rb))) < 1e-10


# ------------------------------------------------------------- free-flow law


def test_free_flow_coupling_cost_law():
    # V = 0: the momentum part of the cost is conserved exactly, while the
    # position part spreads ballistically, D(t) = 2*eps + eps*t^2.
    base = GridSpec(d=1, n_particles=1, points_per_axis=64, box_half_width=6.0, epsilon=0.25)
    eps = base.epsilon
    z0 = (0.3, 0.4)
    coupling = [(1.0, _pair_coupling(z0, z0, base))]
    ref = coherent_state(base, *z0)
    V0 = make_gaussian_potential(0.0, 1.0, 1)
    dt = 0.02
    x = base.axis_points()
    diff2 = (x[:, None] - x[None, :]) ** 2
    for leg in range(4):
        coupling, ref = factored_coupled_advance(coupling, ref, V0, dt, 10)
        t = (leg + 1) * 10 * dt
        D = qp_cost_trace(coupling)
        assert D == pytest.approx(2 * eps + eps * t**2, abs=1e-8)
        pos_prob = np.abs(oracle.doubled_state(coupling[0][1]).values) ** 2
        pos_part = float(np.sum(pos_prob * diff2) / np.sum(pos_prob))
        assert D - pos_part == pytest.approx(eps, abs=1e-9)
    # the cost visibly grows: constancy would need a transported coupling
    assert qp_cost_trace(coupling) - 2 * eps == pytest.approx(
        eps * 0.8**2, abs=1e-8
    )


# ------------------------------------------------------------- harmonic oracle


def _harmonic_n_delta(kappa, eps, N, dt, t=0.4):
    """N * (D_N - D_H) at time t by the grid route: the per-slot cost of the
    coupled flow from a coherent product, less one X factor's cost against
    the Hartree reference."""
    base = GridSpec(d=1, n_particles=1, points_per_axis=64, box_half_width=8.0, epsilon=eps)
    q0, p0 = 0.3, -0.2
    ref = coherent_state(base, q0, p0)
    y = coherent_state(replace(base, n_particles=N), np.full(N, q0), np.full(N, p0))
    V = harmonic_potential(kappa, base.box_half_width)
    coupling, ref = factored_coupled_advance(
        [(1.0, FactoredCoupling((ref,) * N, y))], ref, V, dt, round(t / dt)
    )
    D_N = qp_cost_trace(coupling) / N
    D_H = qp_cost_trace([(1.0, FactoredCoupling((coupling[0][1].xs[0],), ref))])
    return N * (D_N - D_H)


@pytest.mark.parametrize("N", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.5, 0.25])
def test_harmonic_excess_matches_closed_form(N, eps):
    # kappa = 1: the closed form is eps * t^2 / 2 (0.04 and 0.02 at t = 0.4)
    assert _harmonic_n_delta(1.0, eps, N, 0.02) == pytest.approx(n_delta(1.0, eps, 0.4), abs=1e-9)


def test_harmonic_excess_converges_at_second_order():
    # kappa = 4: Strang's error in dt shows, and halving dt quarters it
    want = n_delta(4.0, 0.25, 0.4)
    coarse = abs(_harmonic_n_delta(4.0, 0.25, 2, 0.02) - want)
    fine = abs(_harmonic_n_delta(4.0, 0.25, 2, 0.01) - want)
    assert coarse < 1e-4
    assert 3.5 < coarse / fine < 4.5


def test_inverted_harmonic_closed_form_is_the_complex_continuation():
    # kappa = -1: the real branch is the kappa > 0 form at omega = i, and
    # the closed form is continuous through kappa = 0, where it vanishes
    w = np.sqrt(-1.0 + 0j)
    c2, s2 = np.cos(w * 0.4) ** 2, np.sin(w * 0.4) ** 2
    continued = 0.5 * ((1.0 + 0.16 - c2 + s2) + (1.0 - c2 + s2))
    assert abs(continued.imag) < 1e-15
    for eps in (1.0, 0.25):
        assert n_delta(-1.0, eps, 0.4) == pytest.approx(-0.2574349 * eps, abs=1e-7)
        assert n_delta(-1.0, eps, 0.4) == pytest.approx(continued.real * eps, abs=1e-12)
    assert n_delta(0.0, 1.0, 0.4) == 0.0
    for kappa in (1e-8, -1e-8):
        assert abs(n_delta(kappa, 1.0, 0.4)) < 1e-8


@pytest.mark.parametrize("N", [2, 3])
def test_inverted_harmonic_excess_matches_closed_form(N):
    # kappa = -1 (the default Gaussian's V''(0)): the N-body flow keeps its
    # pair phase, and Strang's error in dt is second order
    want = n_delta(-1.0, 0.25, 0.4)
    coarse = abs(_harmonic_n_delta(-1.0, 0.25, N, 0.02) - want)
    fine = abs(_harmonic_n_delta(-1.0, 0.25, N, 0.01) - want)
    assert coarse < 1e-5
    assert 3.5 < coarse / fine < 4.5
