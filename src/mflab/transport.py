"""Discrete optimal transport on weighted point clouds.

Exact Monge-Kantorovich distances (assignment fast path for equal-weight
clouds, otherwise a HiGHS linear program on a sparse candidate set of pairs,
grown until the LP is feasible and its duals are feasible on all pairs, so
its optimum is the dense one) and Kantorovich dual certificates.  Every
problem is the quadratic Monge-Kantorovich one, MK2: the ground cost is
|x-y|^2 with the Euclidean norm on the concatenated phase coordinates,
computed directly as a squared distance, and the reported distance is the
square root of the plan cost.

The LP route never builds the m x n cost matrix: its first candidates are
only the nearest partners of each atom's image under the affine map that
matches the two measures' means and covariances, and their costs are
computed pair by pair, equal to the dense entries to the bit.  Should those
pairs not carry the marginals (HiGHS reports the restricted LP infeasible),
the north-west corner staircase of the index order, which always does,
joins them once as a feasibility repair.  The partner search, the pricing
and the dual check in kantorovich_gap scan every pair, in row blocks of at
most PAIR_BLOCK pairs.  Only the assignment route works on the dense
matrix.

The assignment route is one array-level kernel, assignment_cost, on two
(n, k) point arrays; wasserstein_exact's equal-weight branch calls it, and
callers that hold plain arrays call it directly.  It writes C and C - v
into a reused per-thread workspace: two n x n float64 buffers
(2 * 8 * n^2 bytes, 1 MiB at 256 atoms) that each thread allocates once
and again only when n changes, so repeated solves of one size touch no new
memory.  The buffers live as long as their thread, or until the thread
calls release_workspace.

From WARM_START_ATOMS atoms up the assignment solver (scipy's shortest
augmenting path, Crouse 2016) is warm-started: it solves C - v, where the
column potential v comes from a few Sinkhorn sweeps on exp(-C/eta) (Cuturi
2013) and lands near the optimal duals, which shortens the solver's
augmenting paths.  Subtracting v_j from column j changes every permutation's
cost by the same sum of v, so the optimum is C's; a unique optimum is the
same permutation, and the cost, read from C, keeps its bits.  Cost ties
resolve on C - v.

Each restricted LP goes to HiGHS directly: `_restricted_lp` fills one
column-wise HighsLp by hand and solves it on a fresh instance of scipy's
HiGHS binding (scipy.optimize._highspy._core, scipy >= 1.15), with one
HighsOptions built at import.  The model and the options are the ones
scipy's "highs-ds" method would build for this LP with the same settings,
so the solve returns the same bits, without that front end's per-call
option checks, input cleaning, sparse conversion and bound-marginal loop.
HiGHS is set up for transportation LPs: it runs its dual simplex with devex
pricing and without presolve, which finds nothing to remove from a system of
marginal equalities.  It holds the GIL while it solves (scipy 1.17.1), so
the HiGHS solves of LPs queued on threads run one at a time; the assignment
solver releases it, so assignment solves queued on threads run in parallel.

The module calls three compiled scipy kernels and no Python front end:
linear_sum_assignment (scipy.optimize._lsap), the HiGHS binding and
cdist_sqeuclidean (scipy.spatial._distance_pybind), the kernel
cdist(x, y, "sqeuclidean") calls, which computes each entry as a squared
distance.  `_scipy_extension` loads each one from its package's directory
without running the package's __init__, so importing this module loads
neither scipy.optimize's front end (minimize, shgo, ...) nor scipy.spatial's
(Delaunay, Rotation, ...) nor the scipy.linalg both import.  The nearest
partners come from that squared-distance kernel too, not from scipy's k-d
tree, whose extension imports scipy.sparse and scipy's array-API layer
(array_api_compat, numpy.f2py, numpy.testing, ...).  A later import of
either package reuses the loaded modules, so its names are these very
objects.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy

from .errors import ResourceCapError
from .potentials import PAIR_BLOCK


def _scipy_extension(package: str, name: str):
    """scipy's compiled module `package`.`name` (`name` may be dotted, as
    "_highspy._core"), loaded from `package`'s directory without running the
    `__init__` of `package` or of any package between them, registered in
    sys.modules under its full name and returned.

    Only `scipy` itself is imported to find the directory.  A later import
    of `package` finds the module in sys.modules and reuses it, so its names
    are the very objects scipy's front end exports, but the package does not
    get the module as an attribute.  A module that is already in sys.modules
    is returned as it is.  A module missing from this scipy raises
    ImportError naming it and scipy's version; one shipped as a .py file
    loads too, and a relative import in it runs the package's `__init__`."""
    full = f"{package}.{name}"
    module = sys.modules.get(full)
    if module is not None:
        return module
    *subpackages, _ = name.split(".")
    search = [
        os.path.join(path, *subpackages)
        for path in importlib.util.find_spec(package).submodule_search_locations
    ]
    spec = importlib.machinery.PathFinder.find_spec(full, search)
    if spec is None:
        raise ImportError(f"{full} not found in scipy {scipy.__version__}", name=full)
    module = importlib.util.module_from_spec(spec)
    sys.modules[full] = module
    try:
        spec.loader.exec_module(module)
    except BaseException:
        del sys.modules[full]
        raise
    return module


#: The three compiled scipy kernels this module calls, without the Python
#: front ends of scipy.optimize and scipy.spatial (see the module docstring).
linear_sum_assignment = _scipy_extension("scipy.optimize", "_lsap").linear_sum_assignment
_highspy = _scipy_extension("scipy.optimize", "_highspy._core")
HighsDebugLevel = _highspy.HighsDebugLevel
HighsLp = _highspy.HighsLp
HighsModelStatus = _highspy.HighsModelStatus
HighsOptions = _highspy.HighsOptions
HighsStatus = _highspy.HighsStatus
MatrixFormat = _highspy.MatrixFormat
_Highs = _highspy._Highs
kHighsInf = _highspy.kHighsInf
simplex_constants = _highspy.simplex_constants
cdist_sqeuclidean = _scipy_extension("scipy.spatial", "_distance_pybind").cdist_sqeuclidean


#: Largest support allowed in the exact solver; desk-scale guard, not a limit
#: of the algorithm.
SUPPORT_CAP = 2048
#: Nearest partners each atom brings into the first restricted LP, and most
#: violated pairs each violated row or column brings into the next one.
CANDIDATES_PER_ATOM = 3
#: Most negative reduced cost C - a - b a dual pair may have and still count
#: as feasible, here and in kantorovich_gap.
DUAL_SLACK = 1e-9
#: Equal-weight solves of at least this many atoms start the assignment
#: solver from a Sinkhorn column potential (`_assignment`).  Below it the
#: sweeps cost about what they save.  Thread CPU per solve, plain against
#: warm, on classical-dobrushin's chaos-repeat clouds (2-core x86 VM, one
#: BLAS thread): 0.087 against 0.089 ms at 48 atoms, 0.16-0.23 against
#: 0.14-0.23 ms at 64 over two sessions, 0.38 against 0.28 ms at 96 and
#: 0.76 against 0.48 ms at 128.
WARM_START_ATOMS = 96
#: The Sinkhorn schedule of `_sinkhorn_column_potential`: eta starts at
#: mean(C) / SINKHORN_ETA_DIVISOR and halves between SINKHORN_STAGES stages
#: of SINKHORN_SWEEPS sweeps, ending at mean(C) / 80.  On 308 N = 256
#: chaos-repeat solves (input sets 2 and 5, same machine) it took 1.97 ms of
#: thread CPU a solve, potential included, against 3.55 ms plain and 2.29 ms
#: for one stage of 16 sweeps at mean(C) / 20; four stages took 2.20 ms,
#: six 1.96 ms, and four sweeps a stage 1.96 ms.
SINKHORN_ETA_DIVISOR = 5.0
SINKHORN_STAGES = 5
SINKHORN_SWEEPS = 3


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

    def has_equal_weights(self) -> bool:
        return bool(np.all(np.abs(self.weights - 1.0 / self.size) <= 1e-12))


@dataclass(frozen=True)
class TransportPlan:
    """Sparse coupling as (source, target, mass) triples plus its cost."""

    source_index: np.ndarray
    target_index: np.ndarray
    mass: np.ndarray
    cost_value: float


def _cost_matrix(mu: DiscreteMeasure, nu: DiscreteMeasure, rows=slice(None)) -> np.ndarray:
    """The rows `rows` of the cost matrix C_ij = |x_i - y_j|^2, each entry
    computed directly as a squared distance and on its own, so a row block
    is bitwise the same rows of C."""
    if mu.k != nu.k:
        raise ValueError("measures live on different-dimensional spaces")
    return cdist_sqeuclidean(mu.points[rows], nu.points)


def _reduced_cost_blocks(mu: DiscreteMeasure, nu: DiscreteMeasure, a, b):
    """(r, C[r] - a[r] - b) for consecutive runs r of all row indices, each
    block at most PAIR_BLOCK pairs (one row if a row is longer)."""
    step = max(1, PAIR_BLOCK // nu.size)
    for start in range(0, mu.size, step):
        r = np.arange(start, min(start + step, mu.size))
        R = _cost_matrix(mu, nu, r)
        R -= a[r, None]
        R -= b[None, :]
        yield r, R


def _edge_costs(mu: DiscreteMeasure, nu: DiscreteMeasure, edges: np.ndarray) -> np.ndarray:
    """C.ravel()[edges] for flat indices i*n + j in any order, computed per
    edge: the squared coordinate differences summed coordinate by
    coordinate, the order in which `_cost_matrix` adds them, so each cost is
    the dense entry to the bit.  Scratch is O(len(edges))."""
    rows, cols = np.divmod(edges, nu.size)
    out = np.zeros(edges.size)
    for x, y in zip(mu.points.T, nu.points.T):
        d = x[rows] - y[cols]
        out += d * d
    return out


def _moments(measure: DiscreteMeasure):
    """Weighted mean and covariance of a measure's atoms."""
    mean = measure.weights @ measure.points
    centred = measure.points - mean
    return mean, (centred * measure.weights[:, None]).T @ centred


def _gaussian_brenier_matrix(s_mu: np.ndarray, s_nu: np.ndarray):
    """A = S_mu^(-1/2) (S_mu^(1/2) S_nu S_mu^(1/2))^(1/2) S_mu^(-1/2), the
    symmetric positive definite linear part of the W2-optimal map between
    Gaussians of covariances s_mu and s_nu (Givens-Shortt), so that
    A s_mu A = s_nu; None when either covariance is singular to round-off."""
    lam, u = np.linalg.eigh(s_mu)
    lam_nu = np.linalg.eigvalsh(s_nu)
    tol = 1e-12 * s_mu.shape[0]
    if lam[0] <= tol * lam[-1] or lam_nu[0] <= tol * lam_nu[-1]:
        return None
    root = (u * np.sqrt(lam)) @ u.T
    inv_root = (u / np.sqrt(lam)) @ u.T
    mid, v = np.linalg.eigh(root @ s_nu @ root)
    A = inv_root @ ((v * np.sqrt(np.maximum(mid, 0.0))) @ v.T) @ inv_root
    return 0.5 * (A + A.T)


def _moment_image(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """T(x_i) for the atoms x_i of mu, where T(x) = m_nu + A (x - m_mu) with
    A from `_gaussian_brenier_matrix` of the two weighted covariances, so
    that T carries mu's mean and covariance onto nu's; T is the shift
    x + m_nu - m_mu when either covariance is singular (one atom, collinear
    atoms, fewer atoms than dimensions)."""
    m_mu, s_mu = _moments(mu)
    m_nu, s_nu = _moments(nu)
    A = _gaussian_brenier_matrix(s_mu, s_nu)
    if A is None:
        return mu.points + (m_nu - m_mu)
    return m_nu + (mu.points - m_mu) @ A


def _candidate_edges(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Flat indices i*n + j of the pairs the first restricted LP may use.

    Each atom keeps its CANDIDATES_PER_ATOM nearest atoms on the other side
    in the distances |T(x_i) - y_j| of `_moment_image`, found by `_nearest`
    in both directions, and nothing else: these pairs need not carry
    the marginals, and when they do not, `_solve_transport_lp` adds
    `_staircase_edges`.  T only picks the candidates: pricing checks every
    pair against the true cost, so the optimum does not depend on it.
    Memory is O((m + n) * CANDIDATES_PER_ATOM) plus one PAIR_BLOCK block;
    no m x n array.
    """
    m, n = mu.size, nu.size
    tx = _moment_image(mu, nu)
    in_row = _nearest(tx, nu.points, CANDIDATES_PER_ATOM)
    in_col = _nearest(nu.points, tx, CANDIDATES_PER_ATOM)
    near = np.concatenate(
        [
            (np.arange(m)[:, None] * n + in_row).ravel(),
            (in_col * n + np.arange(n)[:, None]).ravel(),
        ]
    )
    return np.unique(near)


def _nearest(a: np.ndarray, b: np.ndarray, k: int) -> np.ndarray:
    """(len(a), min(k, len(b))) indices of the points of `b` nearest to each
    row of `a`, nearest first, in squared distances from `cdist_sqeuclidean`
    on row blocks of at most PAIR_BLOCK pairs (one row if a row is longer).
    Each of the k rounds takes every row's argmin, which breaks a tie to the
    lower index, and writes inf over it; argpartition is about 2x slower at
    these k."""
    k = min(k, len(b))
    out = np.empty((len(a), k), dtype=np.intp)
    step = max(1, PAIR_BLOCK // len(b))
    for start in range(0, len(a), step):
        D = cdist_sqeuclidean(a[start : start + step], b)
        rows = np.arange(len(D))
        for c in range(k):
            pick = D.argmin(axis=1)
            out[start : start + step, c] = pick
            D[rows, pick] = np.inf
    return out


def _staircase_edges(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Flat indices i*n + j of the north-west corner staircase of the index
    order, at most m + n - 1 indices: the support of the coupling that pairs
    the two cumulative weights, so a restricted LP holding them is feasible
    whatever else it holds."""
    m, n = mu.size, nu.size
    cw = np.cumsum(mu.weights)
    cv = np.cumsum(nu.weights)
    starts = np.union1d([0.0], np.union1d(cw[:-1], cv[:-1]))
    nw_row = np.minimum(np.searchsorted(cw, starts, side="right"), m - 1)
    nw_col = np.minimum(np.searchsorted(cv, starts, side="right"), n - 1)
    return nw_row * n + nw_col


def _violated_pairs(mu: DiscreteMeasure, nu: DiscreteMeasure, a, b) -> np.ndarray:
    """Flat indices i*n + j of the CANDIDATES_PER_ATOM most violated pairs
    (reduced cost C - a - b below -DUAL_SLACK) of each violated row and of
    each violated column; empty when (a, b) is feasible on all pairs.

    C - a - b is priced in row blocks of `_reduced_cost_blocks`: a row's
    picks come from its block, a column's are merged across blocks, so the
    scratch is one block plus O(n * CANDIDATES_PER_ATOM).
    """
    n = nu.size
    k = CANDIDATES_PER_ATOM
    picks = []
    col_val = np.zeros((k, n))  # each column's k smallest so far; 0 is feasible
    col_row = np.zeros((k, n), dtype=np.int64)
    for r, R in _reduced_cost_blocks(mu, nu, a, b):
        bad = R < -DUAL_SLACK
        if not bad.any():
            continue
        # a violated pair ranks below every feasible one, so partial sorts of
        # R itself pick the same violated pairs as sorts of the violations
        rows = np.flatnonzero(bad.any(axis=1))
        in_row = np.argpartition(R[rows], min(k, n) - 1, axis=1)[:, :k]
        hit = bad[rows[:, None], in_row]
        picks.append((r[rows, None] * n + in_row)[hit])
        cols = np.flatnonzero(bad.any(axis=0))
        val = np.concatenate([col_val[:, cols], R[:, cols]])
        row = np.concatenate([col_row[:, cols], np.broadcast_to(r[:, None], (r.size, cols.size))])
        keep = np.argpartition(val, k - 1, axis=0)[:k]
        col_val[:, cols] = np.take_along_axis(val, keep, axis=0)
        col_row[:, cols] = np.take_along_axis(row, keep, axis=0)
    hit = col_val < -DUAL_SLACK
    picks.append((col_row * n + np.arange(n))[hit])
    return np.concatenate(picks)


#: HiGHS set up for transportation LPs, as scipy's "highs-ds" method sets it
#: up with these settings: dual simplex without presolve, which finds nothing
#: to remove from a marginal system, devex dual pricing, which beats the
#: default on them, absolute feasibility tolerances of 1e-10, not 1e-7,
#: against atom weights near 1e-6 (at 1e-7 marginals miss by ~1e-7 and
#: pricing rounds multiply), and no output.
_HIGHS_OPTIONS = HighsOptions()
_HIGHS_OPTIONS.presolve = "off"
_HIGHS_OPTIONS.solver = "simplex"
_HIGHS_OPTIONS.simplex_strategy = simplex_constants.SimplexStrategy.kSimplexStrategyDual
_HIGHS_OPTIONS.simplex_dual_edge_weight_strategy = (
    simplex_constants.SimplexEdgeWeightStrategy.kSimplexEdgeWeightStrategyDevex
)
_HIGHS_OPTIONS.primal_feasibility_tolerance = 1e-10
_HIGHS_OPTIONS.dual_feasibility_tolerance = 1e-10
_HIGHS_OPTIONS.highs_debug_level = HighsDebugLevel.kHighsDebugLevelNone
_HIGHS_OPTIONS.output_flag = False
_HIGHS_OPTIONS.log_to_console = False


def _restricted_lp(cost: np.ndarray, w: np.ndarray, v: np.ndarray, edges: np.ndarray):
    """min sum cost * gamma over couplings supported on `edges` (flat indices
    i*n + j, with `cost` their costs), via HiGHS's dual simplex with
    `_HIGHS_OPTIONS`: (cost, mass on `edges`, a, b), or None when HiGHS
    reports the LP infeasible, that is when the edges cannot carry the
    marginals.  Any other outcome raises RuntimeError naming HiGHS's model
    status.

    The model goes to a fresh HiGHS instance as one column-wise HighsLp:
    edge (i, j) is a column with a 1 in row i and, for j < n - 1, a 1 in
    row m + j.  The m+n marginal equalities are linearly dependent (both
    blocks sum to total mass); HiGHS mislabels the full system as infeasible
    on some instances, so the last column constraint is dropped and its dual
    pinned to zero.
    """
    m, n = w.size, v.size
    rows, cols = np.divmod(edges, n)
    keep = cols < n - 1
    start = np.zeros(edges.size + 1, dtype=np.int32)
    np.cumsum(1 + keep, out=start[1:])
    index = np.empty(start[-1], dtype=np.int32)
    index[start[:-1]] = rows
    index[start[:-1][keep] + 1] = m + cols[keep]
    b = np.concatenate([w, v[:-1]])
    lp = HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = edges.size
    lp.num_row_ = lp.a_matrix_.num_row_ = m + n - 1
    lp.col_cost_ = cost
    lp.col_lower_ = np.zeros(edges.size)
    lp.col_upper_ = np.full(edges.size, kHighsInf)
    lp.row_lower_ = lp.row_upper_ = b
    lp.a_matrix_.format_ = MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = np.ones(index.size)
    highs = _Highs()
    loaded = (
        highs.passOptions(_HIGHS_OPTIONS) != HighsStatus.kError
        and highs.passModel(lp) != HighsStatus.kError
        and highs.run() != HighsStatus.kError
    )
    status = highs.getModelStatus()
    if loaded and status == HighsModelStatus.kInfeasible:
        return None
    if not loaded or status != HighsModelStatus.kOptimal:
        said = highs.modelStatusToString(status)
        raise RuntimeError(f"transport LP did not solve: HiGHS status {said}")
    solution = highs.getSolution()
    y = np.asarray(solution.row_dual, dtype=float)
    x = np.asarray(solution.col_value, dtype=float)
    return highs.getInfo().objective_function_value, x, y[:m], np.concatenate([y[m:], [0.0]])


class _LPSolution(NamedTuple):
    cost: float
    edges: np.ndarray  # flat indices i*n + j of the final candidate set
    mass: np.ndarray  # plan mass on `edges`
    a: np.ndarray
    b: np.ndarray
    rounds: int  # restricted solves, the first and any infeasible one included


def _solve_transport_lp(mu: DiscreteMeasure, nu: DiscreteMeasure) -> _LPSolution:
    """Transportation LP for cost |x - y|^2, solved on a candidate edge set
    and certified on all pairs.

    The LP is solved on `_candidate_edges` only, with costs from
    `_edge_costs`, and the set grows until the restricted LP is feasible and
    its duals are feasible on every pair.  If HiGHS reports the restricted
    LP infeasible, the nearest partners cannot carry the marginals, and
    `_staircase_edges` joins the set; that repair is made once, and a
    restricted LP still infeasible with the staircase in raises
    RuntimeError.  A feasible LP's duals are priced against every pair by
    `_violated_pairs`: while some reduced cost C - a - b is below
    -DUAL_SLACK, the CANDIDATES_PER_ATOM most violated pairs of each
    violated row and column join the set and the LP is solved again.  On
    exit (a, b) is feasible for the full problem within the slack
    kantorovich_gap allows, so the restricted optimum is the full optimum
    (Schmitzer's sparse OT certificate), whatever the first set held.  The
    loop also stops if every violated pair is already a candidate: the LP
    then holds every pair the duals reject, as the dense LP would, and the
    violation is HiGHS round-off.  No m x n array is built: memory is
    O((m + n) * CANDIDATES_PER_ATOM) plus one PAIR_BLOCK block.
    """
    if mu.k != nu.k:
        raise ValueError("measures live on different-dimensional spaces")
    edges = _candidate_edges(mu, nu)
    repaired = False
    rounds = 0
    while True:
        solved = _restricted_lp(_edge_costs(mu, nu, edges), mu.weights, nu.weights, edges)
        rounds += 1
        if solved is None:
            if repaired:
                raise RuntimeError("transport LP is infeasible with the north-west staircase in")
            new, repaired = _staircase_edges(mu, nu), True
        else:
            cost, mass, a, b = solved
            new = np.setdiff1d(_violated_pairs(mu, nu, a, b), edges)
            if new.size == 0:
                return _LPSolution(cost, edges, mass, a, b, rounds)
        edges = np.union1d(edges, new)


def _sinkhorn_column_potential(C: np.ndarray, K: np.ndarray) -> np.ndarray:
    """A column potential v near the optimal assignment duals of the n x n
    cost C, from Sinkhorn sweeps on the kernel exp(-C/eta) written into the
    n x n scratch K (Cuturi's entropic OT).

    eta starts at mean(C) / SINKHORN_ETA_DIVISOR, which scales with C, and
    halves SINKHORN_STAGES - 1 times; halving eta squares the kernel and the
    column scaling, so no stage evaluates exp again.  Each stage runs
    SINKHORN_SWEEPS sweeps.  v is eta log of the column scaling, or zero
    when that is not finite (a kernel row or column that underflowed, a
    scaling that overflowed), so any C gets a finite v."""
    n = C.shape[0]
    eta = float(C.mean()) / SINKHORN_ETA_DIVISOR
    if not eta > 0.0:
        return np.zeros(n)
    b = np.ones(n)
    u = np.empty(n)
    with np.errstate(all="ignore"):
        np.multiply(C, -1.0 / eta, out=K)
        np.exp(K, out=K)
        for stage in range(SINKHORN_STAGES):
            if stage:
                K *= K
                b *= b
                eta /= 2.0
            for _ in range(SINKHORN_SWEEPS):
                np.reciprocal(np.dot(K, b, out=u), out=u)
                np.reciprocal(np.dot(u, K, out=b), out=b)
        v = eta * np.log(b)
    return v if np.isfinite(v).all() else np.zeros(n)


def _assignment(C: np.ndarray, shifted: np.ndarray):
    """(row, col) of an optimal assignment of the n x n cost C, rows in
    order.  From WARM_START_ATOMS atoms up the solver runs on C - v, v from
    `_sinkhorn_column_potential`, written into the n x n scratch `shifted`,
    which has C's optimum (see the module docstring); the caller reads the
    cost from C."""
    if C.shape[0] < WARM_START_ATOMS:
        return linear_sum_assignment(C)
    v = _sinkhorn_column_potential(C, shifted)
    return linear_sum_assignment(np.subtract(C, v, out=shifted))


_workspace = threading.local()


def _workspace_buffers(n: int):
    """The calling thread's two n x n float64 buffers, C and C - v; made
    anew only when n differs from the last call's on this thread."""
    buffers = getattr(_workspace, "buffers", None)
    if buffers is None or buffers[0].shape[0] != n:
        buffers = _workspace.buffers = (np.empty((n, n)), np.empty((n, n)))
    return buffers


def release_workspace() -> None:
    """Drop the calling thread's workspace buffers, if it has any; its next
    solve makes them anew.  A thread that ends drops its own with it."""
    vars(_workspace).pop("buffers", None)


def assignment_cost(x, y):
    """Exact equal-weight MK2 assignment of two (n, k) point arrays: returns
    (cost, col), the mean of |x_i - y_col[i]|^2 over i and the optimal
    permutation col.

    The points must be finite and the arrays of one shape, with at most
    SUPPORT_CAP rows (ResourceCapError past it).  C is written by
    `cdist_sqeuclidean` into the calling thread's workspace
    (`_workspace_buffers`) and solved by `_assignment` there, so a solve
    allocates no n x n array unless n changed; the cost is read from C in
    row order.  The assignment is deterministic: cost ties resolve to the
    solver's fixed pivot order on the matrix it solves, C below
    WARM_START_ATOMS atoms and C minus a Sinkhorn column potential, which
    has C's optimum, from there up.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape != y.shape:
        raise ValueError(f"point arrays must be (n, k) of one shape, got {x.shape} and {y.shape}")
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty support")
    if n > SUPPORT_CAP:
        raise ResourceCapError(f"support exceeds cap {SUPPORT_CAP}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("points must be finite")
    C, shifted = _workspace_buffers(n)
    cdist_sqeuclidean(x, y, out=C)
    row, col = _assignment(C, shifted)
    return float(C[row, col] @ np.full(n, 1.0 / n)), np.asarray(col, dtype=np.int64)


def wasserstein_exact(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Exact MK2 distance and optimal plan; returns (dist, plan), dist^2 = cost.

    Equal-size equal-weight inputs are solved as an assignment problem by
    `assignment_cost`, in its reused per-thread workspace of
    2 * 8 * n^2 bytes (C and its shifted copy); everything else as the
    certified sparse transportation LP, which builds no m x n array.
    """
    if mu.size > SUPPORT_CAP or nu.size > SUPPORT_CAP:
        raise ResourceCapError(f"support exceeds cap {SUPPORT_CAP}")
    if mu.k != nu.k:
        raise ValueError("measures live on different-dimensional spaces")
    if mu.size == nu.size and mu.has_equal_weights() and nu.has_equal_weights():
        cost, col = assignment_cost(mu.points, nu.points)
        plan = TransportPlan(np.arange(mu.size), col, np.full(mu.size, 1.0 / mu.size), cost)
    else:
        lp = _solve_transport_lp(mu, nu)
        cost = lp.cost
        used = lp.mass > 1e-15
        src, tgt = np.divmod(lp.edges[used], nu.size)
        plan = TransportPlan(src, tgt, lp.mass[used], cost)
    return max(cost, 0.0) ** 0.5, plan


def dual_potentials(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Optimal Kantorovich potentials (a, b) with a_i + b_j <= |x_i - y_j|^2.

    Solves the transportation LP even when the assignment fast path applies,
    because the duals come from the LP solver; they are checked against every
    pair of atoms, not only the LP's candidate pairs.
    """
    lp = _solve_transport_lp(mu, nu)
    return lp.a, lp.b


def kantorovich_gap(mu, nu, plan: TransportPlan, a, b) -> float:
    """Primal cost of `plan` minus the dual value of (a, b).

    The pair must satisfy a(x) + b(y) <= |x-y|^2 on all support pairs
    (checked with 1e-9 slack by this function's own scan of every pair, in
    row blocks of `_reduced_cost_blocks`); a gap <= 1e-9 certifies
    optimality of the plan.  The plan's costs come from `_edge_costs`, per
    pair and in the plan's own order, so no m x n array is built.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != (mu.size,) or b.shape != (nu.size,):
        raise ValueError("potentials must be defined on the supports")
    for _, R in _reduced_cost_blocks(mu, nu, a, b):
        if float(np.min(R)) < -DUAL_SLACK:
            raise ValueError("infeasible dual pair: a(x) + b(y) > |x-y|^2 somewhere")
    cost = _edge_costs(mu, nu, plan.source_index * nu.size + plan.target_index)
    primal = float(np.sum(plan.mass * cost))
    dual = float(a @ mu.weights + b @ nu.weights)
    return max(primal - dual, 0.0)
