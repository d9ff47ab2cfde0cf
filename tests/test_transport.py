"""Optimal transport: exact solver vs independent oracles, duals, Sinkhorn."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.optimize import linprog

from mflab import transport
from mflab.errors import ResourceCapError
from mflab.quantum import GridSpec, coherent_state, husimi_lattices, state_density_matrix
from mflab.transport import (
    SUPPORT_CAP,
    DiscreteMeasure,
    TransportPlan,
    _cost_matrix,
    _solve_transport_lp,
    dual_potentials,
    kantorovich_gap,
    subsample_distance,
    wasserstein_exact,
    wasserstein_sinkhorn,
)


def _max_marginal_error(plan: TransportPlan, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Largest gap between the plan's row and column sums and the weights of
    mu and nu; the marginal oracle for every solver route."""
    row = np.bincount(plan.source_index, weights=plan.mass, minlength=mu.size)
    col = np.bincount(plan.target_index, weights=plan.mass, minlength=nu.size)
    return float(max(np.max(np.abs(row - mu.weights)), np.max(np.abs(col - nu.weights))))


def _brute_force_cost(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Exhaustive equal-weight matching minimum; oracle for small clouds."""
    m = mu.size
    C = np.linalg.norm(mu.points[:, None, :] - nu.points[None, :, :], axis=-1) ** p
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, C[np.arange(m), perm].sum() / m)
    return best


def _dense_lp_cost(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> float:
    """Transportation LP over all m*n pairs; oracle for the sparse solver."""
    C = _cost_matrix(mu, nu, p)
    m, n = C.shape
    A = sparse.vstack(
        [
            sparse.kron(sparse.eye(m, format="csr"), np.ones((1, n))),
            sparse.kron(np.ones((1, m)), sparse.eye(n, format="csr")),
        ]
    ).tocsc()[:-1]
    b = np.concatenate([mu.weights, nu.weights])[:-1]
    res = linprog(C.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert res.status == 0
    return float(res.fun)


def _assert_matches_dense_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> int:
    """Sparse LP against the dense oracle; returns the restricted solves used."""
    lp = _solve_transport_lp(mu, nu, _cost_matrix(mu, nu, 2.0))
    _, plan = wasserstein_exact(mu, nu, 2.0)
    a, b = dual_potentials(mu, nu, 2.0)
    dense = _dense_lp_cost(mu, nu, 2.0)
    assert lp.cost == pytest.approx(dense, rel=1e-12, abs=1e-15)
    assert plan.cost_value == lp.cost
    assert _max_marginal_error(plan, mu, nu) < 1e-12
    assert kantorovich_gap(mu, nu, 2.0, plan, a, b) <= 1e-9
    return lp.rounds


def _unequal_clouds(seed: int, m: int, n: int, modes: int):
    # nu splits into `modes` clusters around mu's single blob; Dirichlet
    # weights on both sides keep every instance on the LP route
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=3.0, size=(modes, 2))
    x = rng.normal(size=(m, 2))
    y = 0.5 * rng.normal(size=(n, 2)) + centres[rng.integers(modes, size=n)]
    return (
        DiscreteMeasure(x, rng.dirichlet(np.ones(m))),
        DiscreteMeasure(y, rng.dirichlet(np.ones(n))),
    )


def test_sparse_lp_matches_dense_oracle():
    rounds = [
        _assert_matches_dense_oracle(*_unequal_clouds(seed, m, n, modes))
        for seed, (m, n) in enumerate([(40, 50), (60, 30), (3, 25), (70, 70)])
        for modes in (1, 2, 3)
    ]
    # the first candidate set misses pairs of the optimum, so pricing must
    # have added edges and solved again
    assert max(rounds) >= 2


def test_sparse_lp_single_candidate_still_exact(monkeypatch):
    # one nearest partner per atom cannot carry Dirichlet weights on its own:
    # the first LP is feasible only through the north-west staircase, and
    # pricing has to find most of the optimal support
    monkeypatch.setattr(transport, "CANDIDATES_PER_ATOM", 1)
    for seed in range(4):
        _assert_matches_dense_oracle(*_unequal_clouds(seed, 30, 20, 2))


def test_sparse_lp_matches_dense_oracle_on_husimi_lattices():
    grid = GridSpec(1, 1, 256, 6.0, 0.25)
    rho1 = state_density_matrix(coherent_state(grid, 0.4, -0.3))
    rho2 = state_density_matrix(coherent_state(grid, -0.5, 0.6))
    mu, nu = husimi_lattices(rho1, rho2, 0.25)
    assert min(mu.size, nu.size) > 100 and not mu.has_equal_weights()
    _assert_matches_dense_oracle(mu, nu)


def test_exact_matches_permutation_oracle_2d():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.integers(2, 7)
        mu = DiscreteMeasure.equal_weights(rng.normal(size=(m, 2)))
        nu = DiscreteMeasure.equal_weights(rng.normal(size=(m, 2)))
        dist, plan = wasserstein_exact(mu, nu, p=2.0)
        assert dist**2 == pytest.approx(_brute_force_cost(mu, nu, 2.0), abs=1e-12)
        assert _max_marginal_error(plan, mu, nu) < 1e-12


def test_lp_route_agrees_with_assignment_route():
    # Equal weights passed as explicit non-uniform-looking arrays hit the LP;
    # the assignment fast path must give the same optimum.
    rng = np.random.default_rng(4)
    pts_a, pts_b = rng.normal(size=(2, 5, 3))
    mu = DiscreteMeasure.equal_weights(pts_a)
    nu = DiscreteMeasure(pts_b, np.full(5, 0.2))
    w = np.full(5, 0.2)
    w[0] += 1e-13  # break the equal-weight detection, keep the optimum
    nu_lp = DiscreteMeasure(pts_b, w / w.sum())
    d_fast, _ = wasserstein_exact(mu, nu, 2.0)
    d_lp, plan = wasserstein_exact(mu, nu_lp, 2.0)
    assert d_lp == pytest.approx(d_fast, abs=1e-9)
    assert _max_marginal_error(plan, mu, nu_lp) < 1e-12


def test_1d_sorted_quantile_oracle():
    # In one dimension the optimal equal-weight matching is the sorted one.
    rng = np.random.default_rng(5)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    mu = DiscreteMeasure.equal_weights(x[:, None])
    nu = DiscreteMeasure.equal_weights(y[:, None])
    dist, _ = wasserstein_exact(mu, nu, 2.0)
    oracle = np.mean((np.sort(x) - np.sort(y)) ** 2)
    assert dist**2 == pytest.approx(oracle, rel=1e-12)


def test_unbalanced_support_lp():
    # 2-vs-3 support sizes force the LP; the optimum is known by hand.
    mu = DiscreteMeasure.equal_weights(np.array([[0.0], [1.0]]))
    nu = DiscreteMeasure.equal_weights(np.array([[0.0], [0.5], [1.0]]))
    dist, plan = wasserstein_exact(mu, nu, 2.0)
    # mass 1/3 at matching endpoints is free; the middle 1/3 splits to the
    # nearer endpoint at cost (1/2)^2 * 1/3 in total.
    assert dist**2 == pytest.approx((0.5**2) * (1.0 / 3.0), rel=1e-9)
    assert _max_marginal_error(plan, mu, nu) < 1e-10


def test_duality_gap_certifies_optimality():
    rng = np.random.default_rng(6)
    mu = DiscreteMeasure.equal_weights(rng.normal(size=(6, 2)))
    nu = DiscreteMeasure.equal_weights(rng.normal(size=(6, 2)))
    dist, plan = wasserstein_exact(mu, nu, 2.0)
    a, b = dual_potentials(mu, nu, 2.0)
    assert kantorovich_gap(mu, nu, 2.0, plan, a, b) <= 1e-9


def test_kantorovich_gap_rejects_infeasible_dual():
    mu = DiscreteMeasure.equal_weights(np.array([[0.0], [1.0]]))
    nu = DiscreteMeasure.equal_weights(np.array([[0.0], [1.0]]))
    _, plan = wasserstein_exact(mu, nu, 2.0)
    with pytest.raises(ValueError):
        kantorovich_gap(mu, nu, 2.0, plan, np.array([10.0, 10.0]), np.array([10.0, 10.0]))


def test_sinkhorn_upper_bounds_exact_and_is_feasible():
    rng = np.random.default_rng(7)
    mu = DiscreteMeasure.equal_weights(rng.normal(size=(12, 2)))
    nu = DiscreteMeasure.equal_weights(rng.normal(size=(12, 2)) + 0.5)
    d_exact, _ = wasserstein_exact(mu, nu, 2.0)
    res = wasserstein_sinkhorn(mu, nu, 2.0, reg=0.1)
    assert res.converged
    assert _max_marginal_error(res.plan, mu, nu) < 1e-12
    assert d_exact - 1e-12 <= res.dist <= d_exact * 1.02
    # tighter reg may stall before the marginal tolerance, but the rounded
    # plan stays feasible, so the value is still a certified upper bound
    tight = wasserstein_sinkhorn(mu, nu, 2.0, reg=5e-3)
    assert _max_marginal_error(tight.plan, mu, nu) < 1e-12
    assert d_exact - 1e-12 <= tight.dist <= res.dist + 1e-12
    assert tight.marginal_gap > 0


def test_support_cap_enforced():
    pts = np.zeros((SUPPORT_CAP + 1, 1))
    big = DiscreteMeasure.equal_weights(pts)
    small = DiscreteMeasure.equal_weights(np.zeros((2, 1)))
    with pytest.raises(ResourceCapError):
        wasserstein_exact(big, small)


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((2, 1)), np.array([0.7, 0.7]))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.zeros((0, 1)), np.zeros(0))
    with pytest.raises(ValueError):
        DiscreteMeasure(np.array([[np.inf]]), np.array([1.0]))
    with pytest.raises(ValueError):
        wasserstein_exact(
            DiscreteMeasure.equal_weights(np.zeros((2, 1))),
            DiscreteMeasure.equal_weights(np.zeros((2, 2))),
        )


def test_subsample_distance_deterministic_and_baseline_positive():
    rng = np.random.default_rng(8)
    a = DiscreteMeasure.equal_weights(rng.normal(size=(200, 2)))
    b = DiscreteMeasure.equal_weights(rng.normal(size=(200, 2)))
    m1, s1 = subsample_distance(a, b, 2.0, subsample_size=32, repeats=6, seed=42)
    m2, s2 = subsample_distance(a, b, 2.0, subsample_size=32, repeats=6, seed=42)
    assert (m1, s1) == (m2, s2)
    # same-law baseline is strictly positive: the estimator is biased by design
    base, _ = subsample_distance(a, a, 2.0, subsample_size=32, repeats=6, seed=43)
    assert base > 0


finite_cloud = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 5), st.just(2)),
    elements=st.floats(-10, 10, allow_nan=False),
)


@settings(max_examples=30, deadline=None)
@given(finite_cloud)
def test_distance_to_self_is_zero(pts):
    mu = DiscreteMeasure.equal_weights(pts)
    dist, _ = wasserstein_exact(mu, mu, 2.0)
    assert dist == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_triangle_inequality_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (
        DiscreteMeasure.equal_weights(rng.normal(size=(4, 2))) for _ in range(3)
    )
    dab, _ = wasserstein_exact(a, b, 2.0)
    dba, _ = wasserstein_exact(b, a, 2.0)
    dbc, _ = wasserstein_exact(b, c, 2.0)
    dac, _ = wasserstein_exact(a, c, 2.0)
    assert dab == pytest.approx(dba, abs=1e-10)
    assert dac <= dab + dbc + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0))
def test_distance_scales_linearly(seed, scale):
    rng = np.random.default_rng(seed)
    pts_a, pts_b = rng.normal(size=(2, 4, 2))
    d1, _ = wasserstein_exact(
        DiscreteMeasure.equal_weights(pts_a), DiscreteMeasure.equal_weights(pts_b), 2.0
    )
    d2, _ = wasserstein_exact(
        DiscreteMeasure.equal_weights(scale * pts_a),
        DiscreteMeasure.equal_weights(scale * pts_b),
        2.0,
    )
    assert d2 == pytest.approx(scale * d1, rel=1e-9, abs=1e-12)
