"""Optimal transport: exact solver vs independent oracles, duals."""
import inspect
import itertools
import subprocess
import sys
import textwrap
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.optimize._highspy._core import HighsModelStatus, HighsStatus
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from mflab import transport
from mflab.errors import ResourceCapError
from mflab.potentials import PAIR_BLOCK, make_gaussian_potential
from mflab.quantum import (
    FactoredCoupling,
    GridSpec,
    coherent_state,
    factored_coupled_advance,
    husimi_lattices,
    reduced_density,
    state_density_matrix,
)
from mflab.transport import (
    CANDIDATES_PER_ATOM,
    DUAL_SLACK,
    SUPPORT_CAP,
    DiscreteMeasure,
    TransportPlan,
    _candidate_edges,
    _cost_matrix,
    _edge_costs,
    _reduced_cost_blocks,
    _restricted_lp,
    _solve_transport_lp,
    _staircase_edges,
    _violated_pairs,
    assignment_cost,
    dual_potentials,
    kantorovich_gap,
    wasserstein_exact,
)


def _max_marginal_error(plan: TransportPlan, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Largest gap between the plan's row and column sums and the weights of
    mu and nu; the marginal oracle for every solver route."""
    row = np.bincount(plan.source_index, weights=plan.mass, minlength=mu.size)
    col = np.bincount(plan.target_index, weights=plan.mass, minlength=nu.size)
    return float(max(np.max(np.abs(row - mu.weights)), np.max(np.abs(col - nu.weights))))


def _brute_force_cost(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Exhaustive equal-weight matching minimum; oracle for small clouds."""
    m = mu.size
    C = np.linalg.norm(mu.points[:, None, :] - nu.points[None, :, :], axis=-1) ** 2
    best = np.inf
    for perm in itertools.permutations(range(m)):
        best = min(best, C[np.arange(m), perm].sum() / m)
    return best


def _dense_lp_cost(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """Transportation LP over all m*n pairs; oracle for the sparse solver."""
    C = _cost_matrix(mu, nu)
    m, n = C.shape
    A = sparse.vstack(
        [
            sparse.kron(sparse.eye(m, format="csr"), np.ones((1, n))),
            sparse.kron(np.ones((1, m)), sparse.eye(n, format="csr")),
        ]
    ).tocsc()[:-1]
    b = np.concatenate([mu.weights, nu.weights])[:-1]
    # at HiGHS's absolute 1e-7 default the oracle's own cost is off by ~1e-8
    tight = {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(C.ravel(), A_eq=A, b_eq=b, bounds=(0, None), method="highs", options=tight)
    assert res.status == 0
    return float(res.fun)


def _assert_matches_dense_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure) -> int:
    """Sparse LP against the dense oracle; returns the restricted solves used."""
    lp = _solve_transport_lp(mu, nu)
    _, plan = wasserstein_exact(mu, nu)
    a, b = dual_potentials(mu, nu)
    dense = _dense_lp_cost(mu, nu)
    assert lp.cost == pytest.approx(dense, rel=1e-12, abs=1e-15)
    assert plan.cost_value == lp.cost
    assert _max_marginal_error(plan, mu, nu) < 1e-12
    assert kantorovich_gap(mu, nu, plan, a, b) <= 1e-9
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


def _spy_on_the_repair(monkeypatch):
    """Patch the solver's restricted LP and staircase with recorders: the
    first list gets each restricted LP's verdict (True when feasible), the
    second the number of verdicts so far at each staircase call."""
    verdicts, repairs = [], []
    restricted_lp, staircase = transport._restricted_lp, transport._staircase_edges

    def spy_lp(*args):
        solved = restricted_lp(*args)
        verdicts.append(solved is not None)
        return solved

    def spy_staircase(mu, nu):
        repairs.append(len(verdicts))
        return staircase(mu, nu)

    monkeypatch.setattr(transport, "_restricted_lp", spy_lp)
    monkeypatch.setattr(transport, "_staircase_edges", spy_staircase)
    return verdicts, repairs


def test_sparse_lp_single_candidate_still_exact(monkeypatch):
    # one nearest partner per atom cannot carry Dirichlet weights on its own:
    # the first restricted LP is infeasible, the north-west staircase joins
    # once, and pricing has to find most of the optimal support
    monkeypatch.setattr(transport, "CANDIDATES_PER_ATOM", 1)
    verdicts, repairs = _spy_on_the_repair(monkeypatch)
    for seed in range(4):
        mu, nu = _unequal_clouds(seed, 30, 20, 2)
        verdicts.clear()
        repairs.clear()
        lp = _solve_transport_lp(mu, nu)
        assert verdicts[0] is False and all(verdicts[1:])
        assert repairs == [1]
        assert lp.rounds == len(verdicts) >= 2  # the infeasible solve counts
        _assert_matches_dense_oracle(mu, nu)


def test_lp_still_infeasible_after_the_repair_raises(monkeypatch):
    # a staircase that adds no edge leaves the first LP's infeasible set:
    # the solver raises after its second solve instead of repairing again
    monkeypatch.setattr(transport, "CANDIDATES_PER_ATOM", 1)
    verdicts, repairs = _spy_on_the_repair(monkeypatch)

    def no_staircase(mu, nu):
        repairs.append(len(verdicts))
        return np.empty(0, dtype=np.int64)

    monkeypatch.setattr(transport, "_staircase_edges", no_staircase)
    with pytest.raises(RuntimeError, match="infeasible"):
        _solve_transport_lp(*_unequal_clouds(0, 30, 20, 2))
    assert verdicts == [False, False] and repairs == [1]


def _linprog_restricted_lp(cost, w, v, edges):
    """The restricted LP of `_restricted_lp` through scipy's
    linprog(method="highs-ds") with the settings of `transport._HIGHS_OPTIONS`;
    the reference for the HiGHS model `_restricted_lp` passes directly."""
    m, n = w.size, v.size
    rows, cols = np.divmod(edges, n)
    var = np.arange(edges.size)
    keep = cols < n - 1
    A = sparse.csc_matrix(
        (
            np.ones(edges.size + int(keep.sum())),
            (np.concatenate([rows, m + cols[keep]]), np.concatenate([var, var[keep]])),
        ),
        shape=(m + n - 1, edges.size),
    )
    options = {"presolve": False, "simplex_dual_edge_weight_strategy": "devex"}
    options |= {"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10}
    res = linprog(
        cost,
        A_eq=A,
        b_eq=np.concatenate([w, v[:-1]]),
        bounds=(0, None),
        method="highs-ds",
        options=options,
    )
    if res.status == 2:
        return None
    assert res.status == 0, res.message
    y = np.asarray(res.eqlin.marginals, dtype=float)
    return float(res.fun), res.x, y[:m], np.concatenate([y[m:], [0.0]])


def _husimi_lattice_pairs():
    grid = GridSpec(1, 1, 256, 6.0, 0.25)
    rho1 = state_density_matrix(coherent_state(grid, 0.4, -0.3))
    rho2 = state_density_matrix(coherent_state(grid, -0.5, 0.6))
    return [husimi_lattices(rho1, rho2)]


def _ot_selftest_pairs():
    # the runner's shapes: equal-weight normal clouds of 2 to 6 atoms in 2-D
    # and 4-D, whose duals dual_potentials reads from the LP
    rng = np.random.default_rng(7)
    return [
        tuple(DiscreteMeasure.equal_weights(rng.standard_normal((m, k))) for _ in range(2))
        for m in range(2, 7)
        for k in (2, 4)
    ]


def _equal_cost_pairs():
    # every pair costs exactly 1, so every coupling is optimal: the LP's
    # solution is whichever vertex the simplex stops at
    rng = np.random.default_rng(8)
    square = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    return [
        (
            DiscreteMeasure(square, rng.dirichlet(np.ones(4))),
            DiscreteMeasure(np.zeros((n, 2)), rng.dirichlet(np.ones(n))),
        )
        for n in (2, 3, 5)
    ]


@pytest.mark.parametrize(
    "pairs",
    [_husimi_lattice_pairs, _ot_selftest_pairs, _equal_cost_pairs],
    ids=lambda f: f.__name__,
)
def test_restricted_lp_is_linprog_bit_for_bit(monkeypatch, pairs):
    # the direct HiGHS model and options are the ones linprog builds, so
    # every restricted LP the solver makes returns the same bits both ways
    restricted_lp, calls = transport._restricted_lp, []

    def spy(*args):
        calls.append(args)
        return restricted_lp(*args)

    monkeypatch.setattr(transport, "_restricted_lp", spy)
    for mu, nu in pairs():
        _solve_transport_lp(mu, nu)
    assert calls
    for args in calls:
        got, want = restricted_lp(*args), _linprog_restricted_lp(*args)
        assert got is not None and want is not None
        assert type(got[0]) is float and got[0] == want[0]
        for x, y in zip(got[1:], want[1:]):
            np.testing.assert_array_equal(x, y)


def test_restricted_lp_is_infeasible_on_both_routes(monkeypatch):
    # one nearest partner per atom cannot carry Dirichlet weights
    monkeypatch.setattr(transport, "CANDIDATES_PER_ATOM", 1)
    mu, nu = _unequal_clouds(0, 30, 20, 2)
    edges = _candidate_edges(mu, nu)
    args = (_edge_costs(mu, nu, edges), mu.weights, nu.weights, edges)
    assert _restricted_lp(*args) is None
    assert _linprog_restricted_lp(*args) is None


@pytest.mark.parametrize(
    "run, status, said",
    [
        (HighsStatus.kOk, HighsModelStatus.kTimeLimit, "Time limit reached"),
        (HighsStatus.kError, HighsModelStatus.kInfeasible, "Infeasible"),
    ],
)
def test_restricted_lp_raises_on_any_other_highs_outcome(monkeypatch, run, status, said):
    # a HiGHS instance that stops at a time limit, or whose run fails, has no
    # optimum to read, and only a clean infeasible verdict means None
    class FakeHighs(transport._Highs):
        def run(self):
            return run

        def getModelStatus(self):
            return status

    monkeypatch.setattr(transport, "_Highs", FakeHighs)
    mu, nu = _unequal_clouds(0, 30, 20, 2)
    edges = _candidate_edges(mu, nu)
    with pytest.raises(RuntimeError, match=f"HiGHS status {said}"):
        _restricted_lp(_edge_costs(mu, nu, edges), mu.weights, nu.weights, edges)


def test_sparse_lp_matches_dense_oracle_on_husimi_lattices():
    grid = GridSpec(1, 1, 256, 6.0, 0.25)
    rho1 = state_density_matrix(coherent_state(grid, 0.4, -0.3))
    rho2 = state_density_matrix(coherent_state(grid, -0.5, 0.6))
    mu, nu = husimi_lattices(rho1, rho2)
    assert min(mu.size, nu.size) > 100 and not mu.has_equal_weights()
    _assert_matches_dense_oracle(mu, nu)


def _gaussian_line(size: int, centre: float, width: float) -> DiscreteMeasure:
    # size points on [-4, 4] under a Gaussian of the given centre and width
    x = np.linspace(-4.0, 4.0, size)
    w = np.exp(-0.5 * ((x - centre) / width) ** 2)
    return DiscreteMeasure(x[:, None], w / w.sum())


def _monotone_cost(mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W2^2 of two measures on increasing points of a line: the monotone
    coupling pairs their step quantile functions over the merged steps of
    the two cumulative weights; oracle at any size."""
    cw, cv = np.cumsum(mu.weights), np.cumsum(nu.weights)
    cuts = np.concatenate([[0.0], np.union1d(cw[:-1], cv[:-1]), [1.0]])
    mid = 0.5 * (cuts[1:] + cuts[:-1])
    i = np.minimum(np.searchsorted(cw, mid), mu.size - 1)
    j = np.minimum(np.searchsorted(cv, mid), nu.size - 1)
    return float(np.diff(cuts) @ (mu.points[i, 0] - nu.points[j, 0]) ** 2)


def test_sparse_lp_prices_marginals_of_different_widths_in_one_round(monkeypatch):
    # shifting nu onto mu's mean does not line up marginals of different
    # widths; at HiGHS's default feasibility tolerances the duals of the
    # first feasible LP then priced out pairs the optimum needs, and the
    # 1500-point pair took 8 restricted solves and missed the optimum by
    # ~7e-7.  The affine moment map misses the monotone coupling in the
    # truncated tails, so the nearest partners alone cannot carry the
    # marginals: one infeasible solve, then the staircase of the index order
    # (the monotone order here), then one feasible LP that pricing certifies
    verdicts, repairs = _spy_on_the_repair(monkeypatch)
    mu, nu = _gaussian_line(1500, 0.3, 1.0), _gaussian_line(1501, -0.4, 0.8)
    lp = _solve_transport_lp(mu, nu)
    assert verdicts == [False, True] and repairs == [1]
    assert lp.rounds == 2
    assert lp.cost == pytest.approx(_monotone_cost(mu, nu), rel=0, abs=1e-12)
    # and W2^2 within 1e-12 relative of the dense LP at a size it can take
    small = _gaussian_line(150, 0.3, 1.0), _gaussian_line(151, -0.4, 0.8)
    assert _assert_matches_dense_oracle(*small) == 2


def _smallest_per_line(M: np.ndarray, k: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Flat indices i*n + j of the k smallest entries of M in each row of
    `rows` and in each column of `cols`; the dense selection oracle."""
    m, n = M.shape
    in_row = np.argpartition(M[rows], min(k, n) - 1, axis=1)[:, :k]
    in_col = np.argpartition(M[:, cols], min(k, m) - 1, axis=0)[:k, :]
    return np.concatenate(
        [(rows[:, None] * n + in_row).ravel(), (in_col * n + cols[None, :]).ravel()]
    )


def _dense_violated_pairs(mu, nu, a, b) -> np.ndarray:
    """The pricing step on the whole m x n reduced-cost matrix."""
    R = _cost_matrix(mu, nu) - a[:, None] - b[None, :]
    bad = R < -DUAL_SLACK
    worst = _smallest_per_line(
        np.where(bad, R, 0.0),
        CANDIDATES_PER_ATOM,
        np.flatnonzero(bad.any(axis=1)),
        np.flatnonzero(bad.any(axis=0)),
    )
    return np.unique(worst[bad.ravel()[worst]])


# row blocks of one row, of 7 rows, and the package's own (one block here)
@pytest.mark.parametrize("rows_per_block", [1, 7, None])
def test_blocked_pricing_adds_the_dense_selection(monkeypatch, rows_per_block):
    rounds = []
    for seed, (m, n) in enumerate([(40, 50), (60, 30), (70, 70)]):
        for modes in (2, 3):
            mu, nu = _unequal_clouds(seed, m, n, modes)
            if rows_per_block is not None:
                monkeypatch.setattr(transport, "PAIR_BLOCK", rows_per_block * n)
            edges = _candidate_edges(mu, nu)
            for rnd in itertools.count(1):
                costs = _edge_costs(mu, nu, edges)
                solved = _restricted_lp(costs, mu.weights, nu.weights, edges)
                if solved is None:
                    # the solver's feasibility repair, as in _solve_transport_lp
                    edges = np.union1d(edges, _staircase_edges(mu, nu))
                    continue
                _, _, a, b = solved
                blocked = _violated_pairs(mu, nu, a, b)
                np.testing.assert_array_equal(
                    np.unique(blocked), _dense_violated_pairs(mu, nu, a, b)
                )
                new = np.setdiff1d(blocked, edges)
                if new.size == 0:
                    break
                edges = np.union1d(edges, new)
            rounds.append(rnd)
            # the whole solve does not depend on the blocking
            lp = _solve_transport_lp(mu, nu)
            monkeypatch.undo()
            ref = _solve_transport_lp(mu, nu)
            assert lp.cost == ref.cost and lp.rounds == ref.rounds == rnd
            np.testing.assert_array_equal(lp.edges, ref.edges)
            np.testing.assert_array_equal(lp.mass, ref.mass)
    assert max(rounds) >= 3


def _weighted_moments(points: np.ndarray, weights: np.ndarray):
    mean = weights @ points
    centred = points - mean
    return mean, (weights[:, None] * centred).T @ centred


def _moment_map_oracle(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """T(x) = m_nu + A (x - m_mu) with A = S^-1 (S cov_nu S)^(1/2) S^-1,
    S = cov_mu^(1/2), by scipy's general matrix square root."""
    m_mu, c_mu = _weighted_moments(mu.points, mu.weights)
    m_nu, c_nu = _weighted_moments(nu.points, nu.weights)
    root = np.real(scipy.linalg.sqrtm(c_mu))
    inv = np.linalg.inv(root)
    A = inv @ np.real(scipy.linalg.sqrtm(root @ c_nu @ root)) @ inv
    return lambda x: m_nu + (x - m_mu) @ A.T


def _assert_candidates_are_nearest_partners(mu, nu, image) -> None:
    # the blocked scan picks the same partners as partial sorts of the dense
    # squared distances |T(x_i) - y_j|^2 (continuous data: no ties)
    S = _cost_matrix(DiscreteMeasure(image, mu.weights), nu)
    near = _smallest_per_line(S, CANDIDATES_PER_ATOM, np.arange(mu.size), np.arange(nu.size))
    np.testing.assert_array_equal(_candidate_edges(mu, nu), np.unique(near))


def test_candidate_edges_match_dense_nearest_partners():
    for seed, (m, n) in enumerate([(40, 50), (3, 25), (25, 3), (70, 70)]):
        mu, nu = _unequal_clouds(seed, m, n, 2)
        _assert_candidates_are_nearest_partners(mu, nu, _moment_map_oracle(mu, nu)(mu.points))


def _k_d_tree_candidates(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """The flat candidate indices of scipy's k-d tree queries of the
    CANDIDATES_PER_ATOM nearest partners, in both directions."""
    m, n = mu.size, nu.size
    tx = transport._moment_image(mu, nu)
    _, in_row = cKDTree(nu.points).query(tx, k=min(CANDIDATES_PER_ATOM, n))
    _, in_col = cKDTree(tx).query(nu.points, k=min(CANDIDATES_PER_ATOM, m))
    # a query for one neighbour returns a vector, not an (atoms, 1) array
    rows = np.arange(m)[:, None] * n + in_row.reshape(m, -1)
    cols = in_col.reshape(n, -1) * n + np.arange(n)[:, None]
    return np.unique(np.concatenate([rows.ravel(), cols.ravel()]))


# blocks of one row, of at most 100 pairs, and the package's own (several
# blocks at 300 x 200)
@pytest.mark.parametrize("pair_block", [1, 100, None])
def test_candidate_edges_match_a_k_d_tree_oracle(monkeypatch, pair_block):
    # continuous clouds have no distance ties, so the blocked argmin scan
    # picks the partners the k-d tree does, with fewer atoms on a side than
    # CANDIDATES_PER_ATOM too
    if pair_block is not None:
        monkeypatch.setattr(transport, "PAIR_BLOCK", pair_block)
    for seed, (m, n) in enumerate([(40, 50), (3, 25), (25, 3), (1, 9), (9, 1), (300, 200)]):
        mu, nu = _unequal_clouds(seed, m, n, 2)
        np.testing.assert_array_equal(_candidate_edges(mu, nu), _k_d_tree_candidates(mu, nu))
    rng = np.random.default_rng(23)
    mu = DiscreteMeasure(rng.normal(size=(60, 5)), rng.dirichlet(np.ones(60)))
    nu = DiscreteMeasure(rng.standard_t(4, size=(45, 5)), rng.dirichlet(np.ones(45)))
    np.testing.assert_array_equal(_candidate_edges(mu, nu), _k_d_tree_candidates(mu, nu))


def test_candidate_ties_on_a_husimi_lattice_keep_the_dense_cost():
    # two coherent states a lattice shift apart: the moment image lands on
    # the target lattice, so partners tie at the CANDIDATES_PER_ATOM-th
    # distance in both directions, and which of them the scan keeps must not
    # change the optimum
    grid = GridSpec(1, 1, 64, 6.0, 0.25)
    mu, nu = husimi_lattices(coherent_state(grid, 0.0, 0.0), coherent_state(grid, 0.5, 0.0))
    S = _cost_matrix(DiscreteMeasure(transport._moment_image(mu, nu), mu.weights), nu)
    k = CANDIDATES_PER_ATOM
    by_row, by_col = np.sort(S, axis=1), np.sort(S, axis=0)
    assert np.any(by_row[:, k - 1] == by_row[:, k]) and np.any(by_col[k - 1] == by_col[k])
    _assert_matches_dense_oracle(mu, nu)


def test_moment_map_carries_mean_and_covariance():
    rng = np.random.default_rng(21)
    for k, (m, n) in [(1, (30, 40)), (2, (40, 50)), (3, (60, 35)), (4, (50, 80))]:
        mix = rng.normal(size=(k, k))
        mu = DiscreteMeasure(rng.normal(size=(m, k)) @ mix, rng.dirichlet(np.ones(m)))
        nu = DiscreteMeasure(
            1.5 + rng.standard_t(5, size=(n, k)) @ rng.normal(size=(k, k)),
            rng.dirichlet(np.ones(n)),
        )
        image = transport._moment_image(mu, nu)
        got_mean, got_cov = _weighted_moments(image, mu.weights)
        want_mean, want_cov = _weighted_moments(nu.points, nu.weights)
        np.testing.assert_allclose(got_mean, want_mean, rtol=0, atol=1e-10)
        np.testing.assert_allclose(got_cov, want_cov, rtol=0, atol=1e-10)
        A = transport._gaussian_brenier_matrix(
            _weighted_moments(mu.points, mu.weights)[1], want_cov
        )
        np.testing.assert_array_equal(A, A.T)
        assert np.linalg.eigvalsh(A).min() > 0
        np.testing.assert_allclose(image, _moment_map_oracle(mu, nu)(mu.points), atol=1e-10)


def test_moment_map_falls_back_to_the_mean_shift_on_singular_covariances():
    rng = np.random.default_rng(22)
    direction = rng.normal(size=2)
    cases = {
        "one atom": (rng.normal(size=(1, 2)), rng.normal(size=(30, 2))),
        "collinear atoms": (rng.normal(size=(20, 1)) * direction, rng.normal(size=(30, 2))),
        "collinear targets": (rng.normal(size=(30, 2)), rng.normal(size=(20, 1)) * direction),
        "3 atoms in 4-D": (rng.normal(size=(3, 4)), rng.normal(size=(25, 4))),
    }
    for name, (x, y) in cases.items():
        mu = DiscreteMeasure(x, rng.dirichlet(np.ones(len(x))))
        nu = DiscreteMeasure(y, rng.dirichlet(np.ones(len(y))))
        c_mu = _weighted_moments(x, mu.weights)[1]
        c_nu = _weighted_moments(y, nu.weights)[1]
        assert transport._gaussian_brenier_matrix(c_mu, c_nu) is None, name
        shifted = x + (nu.weights @ y - mu.weights @ x)
        np.testing.assert_allclose(transport._moment_image(mu, nu), shifted, atol=1e-14)
        _assert_candidates_are_nearest_partners(mu, nu, shifted)
        _assert_matches_dense_oracle(mu, nu)


def _runner_lattices():
    """The Husimi lattice pairs of the runners' LP rows: mk-bracket's
    coherent pairs at its three epsilons, and quantum-dobrushin's reduced
    X and Y densities at t = 0.08 (64 points, N = 2, eps 0.25, dt 0.02)."""
    rng = np.random.default_rng(0)
    for eps in (0.5, 0.25, 0.1):
        grid = GridSpec(1, 1, 256, 6.0, eps)
        z1, z2 = rng.uniform(-1.0, 1.0, (2, 2))
        yield f"mk-bracket eps {eps}", coherent_state(grid, *z1), coherent_state(grid, *z2)
    N, (q0, p0) = 2, (0.3, -0.2)
    base = GridSpec(1, 1, 64, 8.0, 0.25)
    ref = coherent_state(base, q0, p0)
    y = coherent_state(GridSpec(1, N, 64, 8.0, 0.25), [q0] * N, [p0] * N)
    V = make_gaussian_potential(1.0, 1.0, 1)
    mixture, _ = factored_coupled_advance([(1.0, FactoredCoupling((ref,) * N, y))], ref, V, 0.02, 4)
    yield "quantum-dobrushin", reduced_density(mixture, 0), reduced_density(mixture, N)


@pytest.mark.parametrize(
    "state1, state2", [pytest.param(s1, s2, id=name) for name, s1, s2 in _runner_lattices()]
)
def test_runner_lattice_lps_solve_in_one_round(state1, state2):
    # the moment-matched candidates hold the whole optimal support of every
    # Husimi lattice LP the runners solve, so pricing adds no pair
    mu, nu = husimi_lattices(state1, state2)
    assert min(mu.size, nu.size) > 100 and not mu.has_equal_weights()
    lp = _solve_transport_lp(mu, nu)
    assert lp.rounds == 1
    assert lp.cost == pytest.approx(_dense_lp_cost(mu, nu), rel=1e-12, abs=1e-15)


# row blocks of one row, of 3 rows, and the package's own (one block here)
@pytest.mark.parametrize("rows_per_block", [1, 3, None])
def test_edge_costs_are_the_dense_costs_bit_for_bit(monkeypatch, rows_per_block):
    rng = np.random.default_rng(12)
    mu, nu = _unequal_clouds(12, 41, 29, 2)
    if rows_per_block is not None:
        monkeypatch.setattr(transport, "PAIR_BLOCK", rows_per_block * nu.size)
    C = _cost_matrix(mu, nu)
    np.testing.assert_array_equal(C, cdist(mu.points, nu.points, "sqeuclidean"))
    # the pricing scan's row blocks at zero duals tile C to the bit
    blocks = list(_reduced_cost_blocks(mu, nu, np.zeros(mu.size), np.zeros(nu.size)))
    assert len(blocks) == (1 if rows_per_block is None else -(-mu.size // rows_per_block))
    np.testing.assert_array_equal(np.concatenate([r for r, _ in blocks]), np.arange(mu.size))
    np.testing.assert_array_equal(np.vstack([R for _, R in blocks]), C)
    for edges in (
        np.arange(C.size),
        np.sort(rng.choice(C.size, size=200, replace=False)),
        np.array([C.size - 1]),
    ):
        np.testing.assert_array_equal(_edge_costs(mu, nu, edges), C.ravel()[edges])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_edge_costs_match_the_dense_costs_in_any_order(k):
    # per-edge sums of squared coordinate differences, in any edge order and
    # with repeats, give cdist's "sqeuclidean" entries to the bit; a sum over
    # the last axis of the differences squared does not from k = 8
    rng = np.random.default_rng(40 + k)
    mu = DiscreteMeasure.equal_weights(3.0 * rng.normal(size=(37, k)))
    nu = DiscreteMeasure.equal_weights(rng.normal(size=(23, k)) - 1.0)
    C = cdist(mu.points, nu.points, "sqeuclidean")
    np.testing.assert_array_equal(_cost_matrix(mu, nu), C)
    for edges in (
        rng.permutation(C.size),
        rng.integers(C.size, size=3 * C.size),
        np.arange(C.size)[::-1],
    ):
        np.testing.assert_array_equal(_edge_costs(mu, nu, edges), C.ravel()[edges])


def test_kantorovich_gap_takes_the_plan_pairs_in_any_order(monkeypatch):
    # integer points and masses 1/8: every cost, product and partial sum is
    # exact, so the gap is the same to the bit whatever order the plan lists
    # its pairs in, and with zero duals it is the plan's cost.  Row blocks
    # of one row
    rng = np.random.default_rng(41)
    mu = DiscreteMeasure.equal_weights(rng.integers(-9, 10, size=(8, 3)))
    nu = DiscreteMeasure.equal_weights(rng.integers(-9, 10, size=(8, 3)))
    monkeypatch.setattr(transport, "PAIR_BLOCK", nu.size)
    _, plan = wasserstein_exact(mu, nu)
    zero_a, zero_b = np.zeros(8), np.zeros(8)
    flip = TransportPlan(
        plan.source_index[::-1], plan.target_index[::-1], plan.mass[::-1], plan.cost_value
    )
    gap = kantorovich_gap(mu, nu, plan, zero_a, zero_b)
    assert gap == plan.cost_value > 0
    assert kantorovich_gap(mu, nu, flip, zero_a, zero_b) == gap
    a, b = dual_potentials(mu, nu)
    assert kantorovich_gap(mu, nu, flip, a, b) == kantorovich_gap(mu, nu, plan, a, b) <= 1e-9
    # still rejects a dual pair that overshoots one cost
    C = _cost_matrix(mu, nu)
    a = np.zeros(8)
    a[3] = C[3].min() + 1e-6
    with pytest.raises(ValueError, match="infeasible dual pair"):
        kantorovich_gap(mu, nu, flip, a, zero_b)


def _gaussian_lattice(side: int, centre, offset) -> DiscreteMeasure:
    # side^2 points of a square lattice of spacing 6/side, shifted by
    # `offset` spacings, under a unit Gaussian centred at `centre`
    h = 6.0 / side
    g = (np.arange(side) - (side - 1) / 2) * h
    pts = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    pts = pts + h * np.asarray(offset)
    w = np.exp(-0.5 * np.sum((pts - np.asarray(centre)) ** 2, axis=1))
    return DiscreteMeasure(pts, w / w.sum())


def test_lp_route_builds_no_dense_scratch():
    # 1024 atoms a side: one m x n float64 array is 8 MiB, and the dense
    # route held C and the shifted S at once, four times the budget
    budget = 4 * 2**20
    mu = _gaussian_lattice(32, (0.3, -0.2), (0.0, 0.0))
    nu = _gaussian_lattice(32, (0.3, -0.2), (0.5, 0.25))
    assert 4 * budget <= 2 * 8 * mu.size * nu.size
    assert not mu.has_equal_weights()
    tracemalloc.start()
    try:
        _, plan = wasserstein_exact(mu, nu)
        a, b = dual_potentials(mu, nu)
        gap = kantorovich_gap(mu, nu, plan, a, b)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < budget, f"traced peak {peak / 2**20:.2f} MiB"
    # weights near 1e-6: HiGHS's feasibility tolerances must sit far below them
    assert gap <= 1e-9
    assert _max_marginal_error(plan, mu, nu) < 1e-12


def test_exact_matches_permutation_oracle_2d():
    rng = np.random.default_rng(11)
    for _ in range(20):
        m = rng.integers(2, 7)
        mu = DiscreteMeasure.equal_weights(rng.normal(size=(m, 2)))
        nu = DiscreteMeasure.equal_weights(rng.normal(size=(m, 2)))
        dist, plan = wasserstein_exact(mu, nu)
        assert dist**2 == pytest.approx(_brute_force_cost(mu, nu), abs=1e-12)
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
    d_fast, _ = wasserstein_exact(mu, nu)
    d_lp, plan = wasserstein_exact(mu, nu_lp)
    assert d_lp == pytest.approx(d_fast, abs=1e-9)
    assert _max_marginal_error(plan, mu, nu_lp) < 1e-12


def _assert_warm_start_matches_plain_solve(monkeypatch, mu, nu, same_permutation: bool):
    """wasserstein_exact with the warm start forced on against a plain
    linear_sum_assignment of the cost matrix C: the same permutation and
    the cost bit for bit when the optimum is unique, else the same cost
    within 1e-12.  Returns the plan."""
    monkeypatch.setattr(transport, "WARM_START_ATOMS", 0)
    C = _cost_matrix(mu, nu)
    row, col = linear_sum_assignment(C)
    plain = float(C[row, col] @ np.full(mu.size, 1.0 / mu.size))
    _, plan = wasserstein_exact(mu, nu)
    assert np.array_equal(plan.source_index, row)
    if same_permutation:
        assert np.array_equal(plan.target_index, col)
        assert plan.cost_value == plain
    else:
        assert plan.cost_value == pytest.approx(plain, rel=1e-12, abs=1e-12)
    assert np.array_equal(np.sort(plan.target_index), np.arange(nu.size))
    return plan


@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
@pytest.mark.parametrize("k", [2, 4])
@pytest.mark.parametrize("n", [64, 128, 256, 512])
def test_warm_started_assignment_is_the_plain_assignment(monkeypatch, n, k, scale):
    # subtracting a column potential v shifts every permutation's cost by
    # sum(v), so on random clouds, whose optimum is unique, the solve on
    # C - v finds C's permutation, and the cost read from C keeps its bits
    rng = np.random.default_rng(n + k)
    mu = DiscreteMeasure.equal_weights(scale * rng.normal(size=(n, k)))
    nu = DiscreteMeasure.equal_weights(scale * (1.3 * rng.normal(size=(n, k)) + 0.2))
    C = _cost_matrix(mu, nu)
    v = transport._sinkhorn_column_potential(C, np.empty_like(C))
    # a live warm start, not the zero fallback, and eta scales with C, so v
    # does too
    assert np.all(np.isfinite(v)) and np.ptp(v) > 0.0
    unit = transport._sinkhorn_column_potential(C / scale**2, np.empty_like(C))
    assert v == pytest.approx(scale**2 * unit, rel=1e-6, abs=1e-6 * scale**2 * np.ptp(unit))
    _assert_warm_start_matches_plain_solve(monkeypatch, mu, nu, same_permutation=True)


def _lattice(side: int) -> np.ndarray:
    g = np.arange(side, dtype=float)
    return np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)


def _tied_and_underflowing_inputs():
    rng = np.random.default_rng(21)
    twice = np.repeat(rng.normal(size=(64, 2)), 2, axis=0)
    far = rng.normal(size=(128, 2))
    far[0] = (1e4, 0.0)
    return {
        "duplicated atoms": (twice, rng.normal(size=(128, 2))),
        "lattice against its half-spacing shift": (_lattice(12), _lattice(12) + (0.5, 0.0)),
        "lattice against itself permuted": (_lattice(10), rng.permutation(_lattice(10))),
        "one far atom": (far, rng.normal(size=(128, 2))),
    }


TIED_AND_UNDERFLOWING = _tied_and_underflowing_inputs()


@pytest.mark.parametrize("case", list(TIED_AND_UNDERFLOWING))
def test_warm_started_assignment_cost_on_ties_and_underflow(monkeypatch, case):
    # ties resolve on C - v, so the permutation may differ from the plain
    # solve's, but not the optimal cost; a far atom underflows its kernel
    # row, and the zero potential it falls back to is still exact
    x, y = TIED_AND_UNDERFLOWING[case]
    mu, nu = DiscreteMeasure.equal_weights(x), DiscreteMeasure.equal_weights(y)
    C = _cost_matrix(mu, nu)
    v = transport._sinkhorn_column_potential(C, np.empty_like(C))
    assert np.all(np.isfinite(v))
    if case == "one far atom":
        assert not np.any(v)
    _assert_warm_start_matches_plain_solve(monkeypatch, mu, nu, same_permutation=False)


@pytest.mark.parametrize("n, k", [(128, 2), (256, 2), (128, 4)])
def test_warm_started_assignment_matches_the_lp_route(monkeypatch, n, k):
    # the second route: the certified sparse LP on the same clouds
    rng = np.random.default_rng(100 + n + k)
    mu = DiscreteMeasure.equal_weights(rng.normal(size=(n, k)))
    nu = DiscreteMeasure.equal_weights(0.7 * rng.normal(size=(n, k)) - 0.4)
    plan = _assert_warm_start_matches_plain_solve(monkeypatch, mu, nu, same_permutation=True)
    assert plan.cost_value == pytest.approx(_solve_transport_lp(mu, nu).cost, rel=1e-12)


def _point_pair(n: int, seed: int, k: int = 4):
    """Two (n, k) clouds, the second scaled and shifted: random atoms, so
    the optimal assignment is unique."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(n, k)), 1.3 * rng.normal(size=(n, k)) + 0.2


def _plain_assignment(x, y):
    """(cost, col) of a plain linear_sum_assignment of the dense cost
    matrix, with the cost read from it in row order."""
    C = cdist(x, y, "sqeuclidean")
    row, col = linear_sum_assignment(C)
    return float(C[row, col] @ np.full(len(x), 1.0 / len(x))), col


def _assert_same_solve(got, want):
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1])


ASSIGNMENT_SIZES = [2, 16, 95, 96, 256]


@pytest.mark.parametrize("n", ASSIGNMENT_SIZES)
def test_assignment_cost_is_the_plain_assignment_and_wasserstein_exact(n):
    # below and from WARM_START_ATOMS up: the cost and permutation of a plain
    # solve and of the measure-level route, bit for bit
    assert transport.WARM_START_ATOMS in ASSIGNMENT_SIZES
    x, y = _point_pair(n, n)
    cost, col = assignment_cost(x, y)
    _assert_same_solve((cost, col), _plain_assignment(x, y))
    _, plan = wasserstein_exact(DiscreteMeasure.equal_weights(x), DiscreteMeasure.equal_weights(y))
    assert plan.cost_value == cost
    assert np.array_equal(plan.source_index, np.arange(n))
    assert np.array_equal(plan.target_index, col)


def test_assignment_cost_across_size_changes_on_one_thread():
    # the workspace is made anew whenever n changes and reused while it
    # does not, so alternating sizes keep every solve's bits
    problems = {n: _point_pair(n, 7 * n) for n in (16, 256)}
    want = {n: _plain_assignment(*problems[n]) for n in problems}
    for n in (16, 256, 256, 16, 16, 256):
        _assert_same_solve(assignment_cost(*problems[n]), want[n])


def test_assignment_cost_reuses_its_workspace():
    # a repeat solve of one size allocates no n x n array; the first one
    # on a thread, or one after a size change, allocates the two buffers
    n = 256
    matrix = 8 * n * n
    problems = {m: _point_pair(m, m) for m in (16, n)}
    peaks = []

    def solve_traced(m):
        tracemalloc.start()
        try:
            assignment_cost(*problems[m])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()

    # a fresh thread starts with no workspace
    worker = threading.Thread(target=lambda: [solve_traced(m) for m in (n, n, 16, n)])
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive()
    first, repeat, _, after_change = peaks
    assert first >= 2 * matrix and after_change >= 2 * matrix
    assert repeat < matrix / 4, f"a repeat solve allocated {repeat / 2**10:.0f} KiB"


@pytest.mark.parametrize("second", ["reversed", "same order"])
def test_concurrent_assignment_solves_keep_the_serial_bits(second):
    # two threads, each solving sizes 96 and 256 in turn, the second in
    # reverse order (different sizes at once) or in the same order (one
    # size at once); the solver releases the GIL, so their solves overlap,
    # and each thread's C must stay its own; a short switch interval makes
    # the threads trade the GIL between numpy calls
    sizes = [96, 256] * 6
    problems = [_point_pair(n, 1000 + i) for i, n in enumerate(sizes)]
    want = [_plain_assignment(x, y) for x, y in problems]
    got = [[None] * len(problems) for _ in range(2)]
    start = threading.Barrier(2)

    def solve_all(t, order):
        start.wait(timeout=30)
        for i in order:
            got[t][i] = assignment_cost(*problems[i])

    forward = range(len(problems))
    orders = [forward, forward[::-1] if second == "reversed" else forward]
    threads = [threading.Thread(target=solve_all, args=(t, orders[t])) for t in (0, 1)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t in (0, 1):
        for i in range(len(problems)):
            _assert_same_solve(got[t][i], want[i])


def test_assignment_cost_checks_its_inputs():
    x, y = _point_pair(4, 0, k=2)
    big = np.zeros((SUPPORT_CAP + 1, 2))
    with pytest.raises(ResourceCapError):
        assignment_cost(big, big)
    for bad in (np.nan, np.inf, -np.inf):
        z = y.copy()
        z[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            assignment_cost(x, z)
        with pytest.raises(ValueError, match="finite"):
            assignment_cost(z, x)
    for a, b in ((x, y[:3]), (x, y[:, :1]), (x[:, 0], y[:, 0])):
        with pytest.raises(ValueError, match="one shape"):
            assignment_cost(a, b)
    with pytest.raises(ValueError, match="empty support"):
        assignment_cost(np.zeros((0, 2)), np.zeros((0, 2)))
    with pytest.raises(ValueError, match="measures live on different-dimensional spaces"):
        wasserstein_exact(DiscreteMeasure.equal_weights(x), DiscreteMeasure.equal_weights(y[:, :1]))


def test_loaded_kernels_are_scipys_own():
    # transport.py loads its three compiled kernels without the __init__ of
    # scipy.optimize or scipy.spatial; a later import of either reuses the
    # very objects, its front end still works, and the sqeuclidean kernel
    # gives cdist's bits on any memory layout and on integer points
    code = textwrap.dedent(
        """
        import sys
        import numpy as np
        from mflab import transport
        assert "scipy.optimize" not in sys.modules and "scipy.spatial" not in sys.modules
        import scipy.optimize, scipy.spatial
        from scipy.optimize._highspy import _core
        from scipy.spatial import _distance_pybind
        from scipy.spatial.distance import cdist

        assert transport.linear_sum_assignment is scipy.optimize.linear_sum_assignment
        for name in ("_Highs", "HighsLp", "HighsOptions", "HighsStatus", "HighsModelStatus"):
            assert getattr(transport, name) is getattr(_core, name), name
        assert transport.cdist_sqeuclidean is _distance_pybind.cdist_sqeuclidean

        rng = np.random.default_rng(5)
        x, y = rng.standard_normal((40, 3)), rng.standard_normal((30, 3))
        wide = rng.standard_normal((90, 7))
        cases = {
            "C order": (x, y),
            "Fortran order": (np.asfortranarray(x), np.asfortranarray(y)),
            "strided": (wide[::2, 1:4], wide[1::3, 2:5]),
            "integer": (rng.integers(-50, 50, (40, 3)), rng.integers(-50, 50, (30, 3))),
        }
        for name, (a, b) in cases.items():
            mu, nu = (transport.DiscreteMeasure.equal_weights(z) for z in (a, b))
            assert a.dtype.kind == "i" or mu.points is a, name  # the layout reaches the kernel
            C = transport._cost_matrix(mu, nu)
            assert np.array_equal(C, cdist(a, b, "sqeuclidean")), name
            assert np.array_equal(C, cdist(mu.points, nu.points, "sqeuclidean")), name

        res = scipy.optimize.linprog(
            [1.0, 2.0, 2.0, 1.0],
            A_eq=[[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0]],
            b_eq=[0.5, 0.5, 0.5],
            bounds=(0, None),
            method="highs-ds",
        )
        assert res.status == 0 and res.fun == 1.0 and res.x.tolist() == [0.5, 0.0, 0.0, 0.5], res
        print("ok")
        """
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_a_missing_scipy_kernel_names_itself_and_the_scipy_version():
    import scipy

    said = rf"scipy\.optimize\._no_such_kernel not found in scipy {scipy.__version__}"
    with pytest.raises(ImportError, match=said):
        transport._scipy_extension("scipy.optimize", "_no_such_kernel")


def test_1d_sorted_quantile_oracle():
    # In one dimension the optimal equal-weight matching is the sorted one.
    rng = np.random.default_rng(5)
    x = rng.normal(size=40)
    y = rng.normal(size=40)
    mu = DiscreteMeasure.equal_weights(x[:, None])
    nu = DiscreteMeasure.equal_weights(y[:, None])
    dist, _ = wasserstein_exact(mu, nu)
    oracle = np.mean((np.sort(x) - np.sort(y)) ** 2)
    assert dist**2 == pytest.approx(oracle, rel=1e-12)


def test_unbalanced_support_lp():
    # 2-vs-3 support sizes force the LP; the optimum is known by hand.
    mu = DiscreteMeasure.equal_weights(np.array([[0.0], [1.0]]))
    nu = DiscreteMeasure.equal_weights(np.array([[0.0], [0.5], [1.0]]))
    dist, plan = wasserstein_exact(mu, nu)
    # mass 1/3 at matching endpoints is free; the middle 1/3 splits to the
    # nearer endpoint at cost (1/2)^2 * 1/3 in total.
    assert dist**2 == pytest.approx((0.5**2) * (1.0 / 3.0), rel=1e-9)
    assert _max_marginal_error(plan, mu, nu) < 1e-10


def test_duality_gap_certifies_optimality():
    rng = np.random.default_rng(6)
    mu = DiscreteMeasure.equal_weights(rng.normal(size=(6, 2)))
    nu = DiscreteMeasure.equal_weights(rng.normal(size=(6, 2)))
    dist, plan = wasserstein_exact(mu, nu)
    a, b = dual_potentials(mu, nu)
    assert kantorovich_gap(mu, nu, plan, a, b) <= 1e-9


def test_measures_whose_sums_differ_within_the_measure_tolerance_solve():
    # each weight sum is within DiscreteMeasure's 1e-12 of one, so the two
    # differ by 1.8e-12; both routes take the pair, and the plan certifies
    mu = DiscreteMeasure(np.array([[0.0], [1.0], [2.0]]), np.array([0.3 + 0.9e-12, 0.3, 0.4]))
    nu = DiscreteMeasure(np.array([[0.5], [1.5]]), np.array([0.5 - 0.9e-12, 0.5]))
    dist, plan = wasserstein_exact(mu, nu)
    assert dist == pytest.approx(0.5, rel=1e-9)  # every unit of mass moves 1/2
    assert kantorovich_gap(mu, nu, plan, *dual_potentials(mu, nu)) <= 1e-9


def test_transport_takes_no_exponent():
    # every problem is MK2: cost |x - y|^2, distance its square root
    assert list(inspect.signature(wasserstein_exact).parameters) == ["mu", "nu"]
    assert list(inspect.signature(dual_potentials).parameters) == ["mu", "nu"]
    assert list(inspect.signature(kantorovich_gap).parameters) == ["mu", "nu", "plan", "a", "b"]


def test_kantorovich_gap_rejects_infeasible_dual():
    mu = DiscreteMeasure.equal_weights(np.array([[0.0], [1.0]]))
    nu = DiscreteMeasure.equal_weights(np.array([[0.0], [1.0]]))
    _, plan = wasserstein_exact(mu, nu)
    with pytest.raises(ValueError):
        kantorovich_gap(mu, nu, plan, np.array([10.0, 10.0]), np.array([10.0, 10.0]))


def test_kantorovich_gap_checks_the_last_short_row_block():
    # 300 columns give row blocks of PAIR_BLOCK // 300 = 109 rows, so rows
    # 218..249 form a short last block; its last row holds the one pair
    # that a + b overshoots
    mu, nu = _unequal_clouds(5, 250, 300, 1)
    rows = PAIR_BLOCK // nu.size
    assert mu.size % rows and mu.size - 1 >= (mu.size // rows) * rows
    _, plan = wasserstein_exact(mu, nu)
    C = _cost_matrix(mu, nu)
    a, b = np.zeros(mu.size), np.zeros(nu.size)
    nearest = np.sort(C[-1])[:2]
    assert nearest[1] - nearest[0] > 1e-6
    a[-1] = nearest[0] - 1e-6
    assert kantorovich_gap(mu, nu, plan, a, b) > 0
    a[-1] = nearest[0] + 1e-6
    R = C - a[:, None] - b[None, :]
    assert np.argwhere(R < -DUAL_SLACK).tolist() == [[mu.size - 1, int(np.argmin(C[-1]))]]
    with pytest.raises(ValueError, match="infeasible dual pair"):
        kantorovich_gap(mu, nu, plan, a, b)


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


finite_cloud = arrays(
    dtype=float,
    shape=st.tuples(st.integers(2, 5), st.just(2)),
    elements=st.floats(-10, 10, allow_nan=False),
)


@settings(max_examples=30, deadline=None)
@given(finite_cloud)
def test_distance_to_self_is_zero(pts):
    mu = DiscreteMeasure.equal_weights(pts)
    dist, _ = wasserstein_exact(mu, mu)
    assert dist == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_triangle_inequality_and_symmetry(seed):
    rng = np.random.default_rng(seed)
    a, b, c = (
        DiscreteMeasure.equal_weights(rng.normal(size=(4, 2))) for _ in range(3)
    )
    dab, _ = wasserstein_exact(a, b)
    dba, _ = wasserstein_exact(b, a)
    dbc, _ = wasserstein_exact(b, c)
    dac, _ = wasserstein_exact(a, c)
    assert dab == pytest.approx(dba, abs=1e-10)
    assert dac <= dab + dbc + 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.1, 5.0))
def test_distance_scales_linearly(seed, scale):
    rng = np.random.default_rng(seed)
    pts_a, pts_b = rng.normal(size=(2, 4, 2))
    d1, _ = wasserstein_exact(
        DiscreteMeasure.equal_weights(pts_a), DiscreteMeasure.equal_weights(pts_b)
    )
    d2, _ = wasserstein_exact(
        DiscreteMeasure.equal_weights(scale * pts_a), DiscreteMeasure.equal_weights(scale * pts_b)
    )
    assert d2 == pytest.approx(scale * d1, rel=1e-9, abs=1e-12)
