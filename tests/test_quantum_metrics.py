"""Coupling-cost tests: the (Q*Q + P*P) trace cost against coherent closed
forms, the squared-distance bracket, and the symbol-level coupling machinery.

Coherent oracle: a product coupling of coherent factors centered at z_x, z_y
costs |q_x - q_y|^2 + |p_x - p_y|^2 + 2*(dN)*eps -- the squared center
displacement plus one Heisenberg floor per coupled axis pair.
"""
import doubled_oracle as oracle
import numpy as np
import pytest

from mflab.potentials import make_gaussian_potential
from mflab.quantum.dynamics import factored_coupled_advance
from mflab.quantum.grids import FactoredCoupling, GridSpec
from mflab.quantum.metrics import (
    coupling_to_factored_mixture,
    dobrushin_quantum_functional,
    mk_eps_lower,
    mk_eps_upper,
    product_coupling_symbol,
    qp_cost_trace,
    reduced_density,
    state_density_matrix,
    symbol_dobrushin_cost,
    symmetrize_initial_coupling,
)
from mflab.quantum.phase_space import SymbolMeasure, coherent_state
from mflab.transport import wasserstein_exact

BASE = GridSpec(d=1, n_particles=1, points_per_axis=32, box_half_width=5.0, epsilon=0.5)
EPS = BASE.epsilon


def _pair_coupling(z1, z2, base=BASE):
    return FactoredCoupling((coherent_state(base, *z1),), coherent_state(base, *z2))


def _coherent_cost(z1, z2, eps=EPS):
    dz = np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float)
    return float(np.sum(dz**2)) + 2 * eps


# ------------------------------------------------------------- trace cost routes


def test_pure_coupling_cost_closed_form():
    z1, z2 = (0.4, 0.5), (-0.3, 0.2)
    state = _pair_coupling(z1, z2)
    assert qp_cost_trace(state) == pytest.approx(_coherent_cost(z1, z2), abs=1e-9)
    assert oracle.cost(state.doubled()) == pytest.approx(_coherent_cost(z1, z2), abs=1e-9)


def test_matrix_route_matches_pure_route():
    z1, z2 = (0.5, -0.2), (-0.1, 0.3)
    state = _pair_coupling(z1, z2)
    rho = state_density_matrix(state.doubled())
    assert oracle.cost(rho) == pytest.approx(qp_cost_trace(state), abs=1e-10)


def test_mixture_route_is_weighted_sum():
    psi_a = _pair_coupling((0.4, 0.1), (0.4, 0.1))
    psi_b = _pair_coupling((-0.3, 0.2), (0.5, -0.4))
    ca, cb = qp_cost_trace(psi_a), qp_cost_trace(psi_b)
    got = qp_cost_trace([(0.3, psi_a), (0.7, psi_b)])
    assert got == pytest.approx(0.3 * ca + 0.7 * cb, abs=1e-12)


def test_cost_requires_a_factored_coupling():
    psi = coherent_state(BASE, 0.2, 0.1)
    for R in (psi, [(1.0, psi)], _pair_coupling((0.2, 0.1), (0.2, 0.1)).doubled()):
        with pytest.raises(TypeError):
            qp_cost_trace(R)
        with pytest.raises(TypeError):
            reduced_density(R, [0])


def test_cost_eps_mismatch_rejected():
    state = _pair_coupling((0.2, 0.0), (0.0, 0.1))
    with pytest.raises(ValueError):
        qp_cost_trace(state, eps=0.25)
    with pytest.raises(ValueError):
        dobrushin_quantum_functional([(1.0, state)], eps=0.25)


def test_two_particle_cost_and_per_particle_average():
    qx, qy = np.array([0.3, -0.2]), np.array([0.1, 0.1])
    px, py = np.array([0.2, 0.0]), np.array([-0.1, 0.2])
    atom = np.concatenate([qx, qy, px, py])
    [(_, state)] = coupling_to_factored_mixture(BASE, 2, SymbolMeasure(atom[None, :], np.ones(1)))
    want = float(np.sum((qx - qy) ** 2 + (px - py) ** 2)) + 4 * EPS
    assert qp_cost_trace(state) == pytest.approx(want, abs=1e-9)
    assert oracle.cost(state.doubled()) == pytest.approx(want, abs=1e-9)
    assert dobrushin_quantum_functional(state, n_particles=2) == pytest.approx(
        want / 2, abs=1e-9
    )
    with pytest.raises(ValueError):
        dobrushin_quantum_functional(state, n_particles=1)


def test_diagonal_coupling_sits_on_heisenberg_floor():
    z0 = (0.3, -0.2)
    state = _pair_coupling(z0, z0)
    D = dobrushin_quantum_functional(state)
    assert D == pytest.approx(2 * EPS, abs=1e-9)
    assert D >= 2 * EPS - 1e-12


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
    cost = qp_cost_trace(_pair_coupling(z1, z2))
    dz2 = (z1[0] - z2[0]) ** 2 + (z1[1] - z2[1]) ** 2
    # Husimi distance between equal-covariance Gaussians: |dz|^2 up to lattice error
    assert lower == pytest.approx(dz2 - 2 * EPS, abs=0.02)
    assert lower <= cost + 1e-9
    assert cost == pytest.approx(upper, abs=1e-9)


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
    with pytest.raises(ValueError):
        mk_eps_lower(rho, rho, eps=0.25)
    dbl = state_density_matrix(_pair_coupling((0.0, 0.0), (0.0, 0.0)).doubled())
    with pytest.raises(ValueError):
        mk_eps_lower(dbl, dbl)


# ------------------------------------------------------------- coupling symbols


def _plan_between(pts1, pts2):
    s1 = SymbolMeasure.equal_weights(np.asarray(pts1, dtype=float))
    s2 = SymbolMeasure.equal_weights(np.asarray(pts2, dtype=float))
    _, plan = wasserstein_exact(s1, s2, p=2.0)
    return plan, s1, s2


def test_product_coupling_single_pair_layout():
    # one atom per side on R^4 (N = 2, d = 1): coupling atom is (qx, qy, px, py)
    plan, s1, s2 = _plan_between(
        [[0.3, -0.2, 0.1, 0.0]], [[0.1, 0.2, -0.1, 0.3]]
    )
    coup = product_coupling_symbol(plan, s1, s2, n_particles=2)
    assert coup.points.shape == (1, 8)
    want = np.concatenate(
        [[0.3, -0.2], [0.1, 0.2], [0.1, 0.0], [-0.1, 0.3]]
    )
    assert np.allclose(coup.points[0], want)
    cost = symbol_dobrushin_cost(coup, 2)
    hand = ((0.3 - 0.1) ** 2 + (-0.2 - 0.2) ** 2 + (0.1 + 0.1) ** 2 + (0.0 - 0.3) ** 2) / 2
    assert cost == pytest.approx(hand, abs=1e-12)


def test_symmetrize_two_particles_averages_relabelings():
    plan, s1, s2 = _plan_between(
        [[0.3, -0.2, 0.1, 0.0]], [[0.1, 0.2, -0.1, 0.3]]
    )
    prod = product_coupling_symbol(plan, s1, s2, n_particles=2)
    sym = symmetrize_initial_coupling(plan, s1, s2, n_particles=2)
    assert sym.points.shape == (2, 8)
    assert np.allclose(sym.weights, 0.5)
    # joint relabeling of both blocks maps the atom set to itself
    def swap(atom):
        a = atom.reshape(4, 2)[:, ::-1]
        return a.ravel()

    swapped = np.array([swap(row) for row in sym.points])
    assert np.allclose(np.sort(swapped, axis=0), np.sort(sym.points, axis=0))
    # per-particle transport cost is unchanged by symmetrization
    assert symbol_dobrushin_cost(sym, 2) == pytest.approx(
        symbol_dobrushin_cost(prod, 2), abs=1e-12
    )


def test_symmetrize_single_particle_is_identity():
    plan, s1, s2 = _plan_between([[0.2, 0.1]], [[-0.3, 0.0]])
    prod = product_coupling_symbol(plan, s1, s2, n_particles=1)
    sym = symmetrize_initial_coupling(plan, s1, s2, n_particles=1)
    assert np.array_equal(prod.points, sym.points)
    assert np.array_equal(prod.weights, sym.weights)


def test_symmetrize_merges_symmetric_atoms():
    # both particles identical on both sides: the two relabelings coincide
    plan, s1, s2 = _plan_between(
        [[0.2, 0.2, -0.1, -0.1]], [[0.0, 0.0, 0.1, 0.1]]
    )
    sym = symmetrize_initial_coupling(plan, s1, s2, n_particles=2)
    assert sym.points.shape == (1, 8)
    assert sym.weights[0] == pytest.approx(1.0)


def test_symmetrize_factorial_cap():
    pts = np.zeros((1, 14))
    plan, s1, s2 = _plan_between(pts, pts)
    with pytest.raises(ValueError):
        symmetrize_initial_coupling(plan, s1, s2, n_particles=7)


def test_symbol_dobrushin_cost_dimension_check():
    coup = SymbolMeasure.equal_weights(np.zeros((2, 8)))
    with pytest.raises(ValueError):
        symbol_dobrushin_cost(coup, 3)


# ------------------------------------------------------------- lifts and marginals


def test_coupling_to_factored_mixture_matches_doubled_lift():
    atoms = np.array([[0.3, -0.2, 0.1, 0.0], [-0.1, 0.4, 0.0, -0.2]])
    coup = SymbolMeasure(atoms, np.array([0.25, 0.75]))
    comps = coupling_to_factored_mixture(BASE, 1, coup)
    assert [w for w, _ in comps] == [0.25, 0.75]
    for (_, state), (_, psi) in zip(comps, oracle.coupling_to_state_mixture(oracle.doubled(BASE, 1), coup)):
        product = state.doubled()
        assert product.grid == psi.grid
        assert np.allclose(product.values, psi.values, atol=1e-14)
    with pytest.raises(ValueError):
        coupling_to_factored_mixture(BASE, 2, coup)


def test_reduced_density_of_product_coupling():
    z1, z2 = (0.4, -0.1), (-0.2, 0.3)
    state = _pair_coupling(z1, z2)
    rho_x = reduced_density(state, [0])
    rho_y = reduced_density(state, [1])
    want_x = state_density_matrix(coherent_state(BASE, *z1))
    want_y = state_density_matrix(coherent_state(BASE, *z2))
    assert np.max(np.abs(rho_x.matrix - want_x.matrix)) < 1e-10
    assert np.max(np.abs(rho_y.matrix - want_y.matrix)) < 1e-10
    assert rho_x.trace() == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(NotImplementedError):
        reduced_density(state, [0, 1])
    with pytest.raises(ValueError):
        reduced_density(state, [2])


def test_reduced_density_of_mixture_is_convex():
    psi_a = _pair_coupling((0.4, 0.1), (0.0, 0.0))
    psi_b = _pair_coupling((-0.3, 0.2), (0.0, 0.0))
    mix = [(0.6, psi_a), (0.4, psi_b)]
    rho = reduced_density(mix, [0])
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
    state = _pair_coupling(z0, z0, base)
    ref = coherent_state(base, *z0)
    V0 = make_gaussian_potential(0.0, 1.0, 1)
    dt = 0.02
    x = base.axis_points()
    diff2 = (x[:, None] - x[None, :]) ** 2
    for step in range(40):
        state, ref = factored_coupled_advance(state, ref, V0, dt)
        if (step + 1) % 10 == 0:
            t = (step + 1) * dt
            D = dobrushin_quantum_functional(state)
            assert D == pytest.approx(2 * eps + eps * t**2, abs=1e-8)
            pos_prob = np.abs(state.doubled().values) ** 2
            pos_part = float(np.sum(pos_prob * diff2) / np.sum(pos_prob))
            assert D - pos_part == pytest.approx(eps, abs=1e-9)
    # the cost visibly grows: constancy would need a transported coupling
    assert dobrushin_quantum_functional(state) - 2 * eps == pytest.approx(
        eps * 0.8**2, abs=1e-8
    )
