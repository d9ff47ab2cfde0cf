"""Discrete optimal transport on weighted point clouds.

Exact Monge-Kantorovich distances (assignment fast path for equal-weight
clouds, otherwise a HiGHS linear program on a sparse candidate set of pairs,
grown until its duals are feasible on all pairs, so its optimum is the dense
one), a log-domain Sinkhorn with feasibility rounding (so its value is a
certified upper bound), Kantorovich dual certificates, and the subsample
estimator used on large empirical measures.  Ground cost is |x-y|^p with the
Euclidean norm on the concatenated phase coordinates; reported distances are
p-th roots of the plan cost.

HiGHS is set up for transportation LPs: it runs its dual simplex with devex
pricing and without presolve, which finds nothing to remove from a system of
marginal equalities.  It releases the GIL while it solves, so exact solves
queued on threads run in parallel.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.spatial.distance import cdist
from scipy.special import logsumexp

from .errors import ResourceCapError

#: Largest support allowed in the exact solver; desk-scale guard, not a limit
#: of the algorithm.
SUPPORT_CAP = 2048
#: Nearest partners each atom brings into the first restricted LP, and most
#: violated pairs each violated row or column brings into the next one.
CANDIDATES_PER_ATOM = 8
#: Most negative reduced cost C - a - b a dual pair may have and still count
#: as feasible, here and in kantorovich_gap.
DUAL_SLACK = 1e-9


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted point cloud on R^k with weights summing to one."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        w = np.asarray(self.weights, dtype=float)
        if pts.ndim != 2 or w.ndim != 1 or pts.shape[0] != w.shape[0]:
            raise ValueError("points must be (m, k) with matching weights (m,)")
        if pts.shape[0] == 0:
            raise ValueError("empty support")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(w))):
            raise ValueError("points and weights must be finite")
        if np.any(w < -1e-15):
            raise ValueError("weights must be nonnegative")
        if abs(float(w.sum()) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {w.sum():.16g}")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", np.maximum(w, 0.0))

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @property
    def k(self) -> int:
        return self.points.shape[1]

    @classmethod
    def equal_weights(cls, points) -> "DiscreteMeasure":
        points = np.asarray(points, dtype=float)
        m = points.shape[0]
        return cls(points, np.full(m, 1.0 / m))

    def has_equal_weights(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.abs(self.weights - 1.0 / self.size) <= tol))


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling as (source, target, mass) triples plus its cost."""

    source_index: np.ndarray
    target_index: np.ndarray
    mass: np.ndarray
    cost_value: float
    exponent: float


class SinkhornResult(NamedTuple):
    dist: float
    plan: TransportPlan
    converged: bool
    marginal_gap: float
    iterations: int


def _cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float) -> np.ndarray:
    if mu.k != nu.k:
        raise ValueError("measures live on different-dimensional spaces")
    return cdist(mu.points, nu.points) ** p


def _smallest_per_line(M: np.ndarray, k: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Flat indices i*n + j of the k smallest entries of M in each row of
    `rows` and in each column of `cols`."""
    m, n = M.shape
    in_row = np.argpartition(M[rows], min(k, n) - 1, axis=1)[:, :k]
    in_col = np.argpartition(M[:, cols], min(k, m) - 1, axis=0)[:k, :]
    return np.concatenate(
        [(rows[:, None] * n + in_row).ravel(), (in_col * n + cols[None, :]).ravel()]
    )


def _candidate_edges(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Flat indices i*n + j of the pairs the first restricted LP may use.

    Each atom keeps its CANDIDATES_PER_ATOM nearest atoms on the other side
    after nu is shifted onto mu's mean (for p = 2 the shift changes the cost
    only by a + b terms, so it moves no optimal plan), plus the north-west
    corner staircase of the index order, which makes the restricted LP
    feasible whatever else it holds.
    """
    m, n = mu.size, nu.size
    shift = mu.weights @ mu.points - nu.weights @ nu.points
    S = cdist(mu.points, nu.points + shift, "sqeuclidean")
    near = _smallest_per_line(S, CANDIDATES_PER_ATOM, np.arange(m), np.arange(n))
    cw = np.cumsum(mu.weights)
    cv = np.cumsum(nu.weights)
    starts = np.union1d([0.0], np.union1d(cw[:-1], cv[:-1]))
    nw_row = np.minimum(np.searchsorted(cw, starts, side="right"), m - 1)
    nw_col = np.minimum(np.searchsorted(cv, starts, side="right"), n - 1)
    return np.unique(np.concatenate([near, nw_row * n + nw_col]))


#: HiGHS set up for transportation LPs: presolve finds nothing to remove from
#: a marginal system, and devex dual pricing beats the default on them.
_HIGHS_OPTIONS = {"presolve": False, "simplex_dual_edge_weight_strategy": "devex"}


def _restricted_lp(C: np.ndarray, w: np.ndarray, v: np.ndarray, edges: np.ndarray):
    """min <C, gamma> over couplings supported on `edges`, via HiGHS's dual
    simplex with `_HIGHS_OPTIONS`.

    The m+n marginal equalities are linearly dependent (both blocks sum to
    total mass); HiGHS mislabels the full system as infeasible on some
    instances, so the last column constraint is dropped and its dual pinned
    to zero.
    """
    m, n = C.shape
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
    res = linprog(
        C.ravel()[edges],
        A_eq=A,
        b_eq=np.concatenate([w, v[:-1]]),
        bounds=(0, None),
        method="highs-ds",
        options=_HIGHS_OPTIONS,
    )
    if res.status != 0:
        raise RuntimeError(f"transport LP did not solve: {res.message}")
    y = np.asarray(res.eqlin.marginals, dtype=float)
    return float(res.fun), res.x, y[:m], np.concatenate([y[m:], [0.0]])


class _LPSolution(NamedTuple):
    cost: float
    edges: np.ndarray  # flat indices i*n + j of the final candidate set
    mass: np.ndarray  # plan mass on `edges`
    a: np.ndarray
    b: np.ndarray
    rounds: int  # restricted solves, the first one included


def _solve_transport_lp(mu: DiscreteMeasure, nu: DiscreteMeasure, C: np.ndarray) -> _LPSolution:
    """Transportation LP solved on a candidate edge set and certified on all pairs.

    The LP is solved on `_candidate_edges` only; its duals are then priced
    against every pair.  While some reduced cost C - a - b is below
    -DUAL_SLACK, the CANDIDATES_PER_ATOM most violated pairs of each violated
    row and column join the set and the LP is solved again.  On exit (a, b)
    is feasible for the full problem within the slack kantorovich_gap allows,
    so the restricted optimum is the full optimum (Schmitzer's sparse OT
    certificate).  The loop also stops if every violated pair is already a
    candidate: the LP then holds every pair the duals reject, as the dense LP
    would, and the violation is HiGHS round-off.
    """
    edges = _candidate_edges(mu, nu)
    rounds = 0
    while True:
        cost, mass, a, b = _restricted_lp(C, mu.weights, nu.weights, edges)
        rounds += 1
        R = C - a[:, None] - b[None, :]
        bad = R < -DUAL_SLACK
        if not bad.any():
            break
        worst = _smallest_per_line(
            np.where(bad, R, 0.0),
            CANDIDATES_PER_ATOM,
            np.flatnonzero(bad.any(axis=1)),
            np.flatnonzero(bad.any(axis=0)),
        )
        new = np.setdiff1d(worst[bad.ravel()[worst]], edges)
        if new.size == 0:
            break
        edges = np.union1d(edges, new)
    return _LPSolution(cost, edges, mass, a, b, rounds)


def wasserstein_exact(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 2.0):
    """Exact MK distance and optimal plan; returns (dist, plan), dist^p = cost.

    Equal-size equal-weight inputs are solved as an assignment problem
    (deterministic; cost ties resolve to the solver's fixed pivot order),
    everything else as the certified sparse transportation LP.
    """
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    if abs(float(mu.weights.sum()) - float(nu.weights.sum())) > 1e-12:
        raise ValueError("weight-sum mismatch between measures")
    if mu.size > SUPPORT_CAP or nu.size > SUPPORT_CAP:
        raise ResourceCapError(f"support exceeds cap {SUPPORT_CAP}")
    C = _cost_matrix(mu, nu, p)
    if mu.size == nu.size and mu.has_equal_weights() and nu.has_equal_weights():
        row, col = linear_sum_assignment(C)
        mass = np.full(mu.size, 1.0 / mu.size)
        cost = float(C[row, col] @ mass)
        plan = TransportPlan(
            np.asarray(row, dtype=np.int64),
            np.asarray(col, dtype=np.int64),
            mass,
            cost,
            float(p),
        )
    else:
        lp = _solve_transport_lp(mu, nu, C)
        cost = lp.cost
        used = lp.mass > 1e-15
        src, tgt = np.divmod(lp.edges[used], nu.size)
        plan = TransportPlan(src, tgt, lp.mass[used], cost, float(p))
    return max(cost, 0.0) ** (1.0 / p), plan


def dual_potentials(mu: DiscreteMeasure, nu: DiscreteMeasure, p: float = 2.0):
    """Optimal Kantorovich potentials (a, b) with a_i + b_j <= |x_i - y_j|^p.

    Solves the transportation LP even when the assignment fast path applies,
    because the duals come from the LP solver; they are checked against every
    pair of atoms, not only the LP's candidate pairs.
    """
    lp = _solve_transport_lp(mu, nu, _cost_matrix(mu, nu, p))
    return lp.a, lp.b


def kantorovich_gap(mu, nu, p, plan: TransportPlan, a, b) -> float:
    """Primal cost of `plan` minus the dual value of (a, b).

    The pair must satisfy a(x) + b(y) <= |x-y|^p on all support pairs (checked
    with 1e-9 slack); a gap <= 1e-9 certifies optimality of the plan.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (mu.size,) or b.shape != (nu.size,):
        raise ValueError("potentials must be defined on the supports")
    C = _cost_matrix(mu, nu, p)
    if float(np.min(C - a[:, None] - b[None, :])) < -DUAL_SLACK:
        raise ValueError("infeasible dual pair: a(x) + b(y) > |x-y|^p somewhere")
    primal = float(np.sum(plan.mass * C[plan.source_index, plan.target_index]))
    dual = float(a @ mu.weights + b @ nu.weights)
    return max(primal - dual, 0.0)


def _round_to_feasible(pi: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Altschuler-Niles-Weed-Rigollet rounding: scale rows then columns down to
    # their targets, then patch the remaining deficit with a rank-one plan.
    r = pi.sum(axis=1)
    pi = pi * np.minimum(1.0, w / np.maximum(r, 1e-300))[:, None]
    c = pi.sum(axis=0)
    pi = pi * np.minimum(1.0, v / np.maximum(c, 1e-300))[None, :]
    err_r = np.maximum(w - pi.sum(axis=1), 0.0)
    err_c = np.maximum(v - pi.sum(axis=0), 0.0)
    total = err_r.sum()
    if total > 1e-300:
        pi = pi + np.outer(err_r, err_c) / err_c.sum()
    return pi


def wasserstein_sinkhorn(
    mu: DiscreteMeasure,
    nu: DiscreteMeasure,
    p: float = 2.0,
    reg: float = 1e-2,
    max_iter: int = 20000,
    tol: float = 1e-9,
) -> SinkhornResult:
    """Entropic OT in the log domain, rounded to an exactly feasible plan.

    Because the returned plan is feasible, its cost upper-bounds the true
    optimum regardless of reg; `marginal_gap` is the L1 marginal violation
    before rounding, and non-convergence is reported through `converged`
    rather than raised.
    """
    if reg <= 0:
        raise ValueError("reg must be positive")
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    C = _cost_matrix(mu, nu, p)
    logw = np.log(np.maximum(mu.weights, 1e-300))
    logv = np.log(np.maximum(nu.weights, 1e-300))
    f = np.zeros(mu.size)
    g = np.zeros(nu.size)
    gap = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        f = -reg * logsumexp((g[None, :] - C) / reg + logv[None, :], axis=1)
        g = -reg * logsumexp((f[:, None] - C) / reg + logw[:, None], axis=0)
        if it % 10 == 0 or it == max_iter:
            pi = np.exp((f[:, None] + g[None, :] - C) / reg + logw[:, None] + logv[None, :])
            gap = float(
                np.abs(pi.sum(axis=1) - mu.weights).sum()
                + np.abs(pi.sum(axis=0) - nu.weights).sum()
            )
            if gap <= tol:
                break
    pi = np.exp((f[:, None] + g[None, :] - C) / reg + logw[:, None] + logv[None, :])
    pi = _round_to_feasible(pi, mu.weights, nu.weights)
    cost = float(np.sum(pi * C))
    src, tgt = np.nonzero(pi > 1e-15)
    plan = TransportPlan(
        src.astype(np.int64), tgt.astype(np.int64), pi[src, tgt], cost, float(p)
    )
    return SinkhornResult(max(cost, 0.0) ** (1.0 / p), plan, gap <= tol, gap, it)


def subsample_distance(
    cloud_a: DiscreteMeasure,
    cloud_b: DiscreteMeasure,
    p: float,
    subsample_size: int,
    repeats: int,
    seed: int,
):
    """Mean exact distance over equal-weight subsample pairs, with stderr.

    The estimator is biased (a same-law pair does not give zero); callers are
    expected to run the same-law baseline and report it, not subtract it
    silently.  Repeats use independent child streams of `seed`, so the result
    does not depend on execution order.
    """
    if not (cloud_a.has_equal_weights() and cloud_b.has_equal_weights()):
        raise ValueError("subsample estimator requires equal-weight clouds")
    m = int(subsample_size)
    if m < 1 or m > min(cloud_a.size, cloud_b.size):
        raise ValueError("subsample size out of range")
    vals = np.empty(repeats)
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(repeats)):
        rng = np.random.default_rng(child)
        ia = rng.choice(cloud_a.size, size=m, replace=False)
        ib = rng.choice(cloud_b.size, size=m, replace=False)
        d, _ = wasserstein_exact(
            DiscreteMeasure.equal_weights(cloud_a.points[ia]),
            DiscreteMeasure.equal_weights(cloud_b.points[ib]),
            p,
        )
        vals[i] = d
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / np.sqrt(repeats)) if repeats > 1 else 0.0
    return mean, stderr
