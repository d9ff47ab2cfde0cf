"""Classical particle dynamics for the mean-field comparison experiments.

Implements the N-body Newton flow with force -(1/N) sum_l grad V(x_k - x_l),
the self-consistent Vlasov particle method (mean-field characteristics over a
reference cloud), the coupled product flow whose first marginal follows the
mean-field dynamics and second marginal the N-body dynamics, and the
functionals measured on them: the p-Dobrushin coupling functional and phase
moments.  All integrators are velocity Verlet with the force field frozen
within each step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convolution import offset_convolution
from .potentials import Potential
from .transport import DiscreteMeasure

Array = np.ndarray

# Pair terms per block of the pair-sum kernels below: 2 MiB per float64
# temporary in d = 1, so the temporaries stay in cache and the allocator
# reuses them instead of mapping and zeroing fresh pages on every call.
PAIR_BLOCK = 1 << 18


@dataclass(frozen=True)
class PhaseState:
    """One system of N particles: positions X (N, d), momenta Xi (N, d)."""

    positions: Array
    momenta: Array
    time: float = 0.0

    def __post_init__(self):
        x = np.asarray(self.positions, dtype=float)
        xi = np.asarray(self.momenta, dtype=float)
        if x.ndim != 2 or x.shape != xi.shape or x.shape[0] < 1:
            raise ValueError("positions and momenta must both be (N, d), N >= 1")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(xi))):
            raise ValueError("phase state entries must be finite")
        object.__setattr__(self, "positions", x)
        object.__setattr__(self, "momenta", xi)


@dataclass(frozen=True)
class VlasovCloud:
    """Equal-weight particle approximation of a phase-space density f(t).

    Points live on R^{2d}: the first d columns are positions, the last d
    momenta.
    """

    points: DiscreteMeasure
    time: float = 0.0

    def __post_init__(self):
        if self.points.k % 2 != 0:
            raise ValueError("phase cloud must have an even number of columns")
        if not self.points.has_equal_weights():
            raise ValueError("Vlasov cloud must carry equal weights")

    @property
    def d(self) -> int:
        return self.points.k // 2

    @property
    def x(self) -> Array:
        return self.points.points[:, : self.d]

    @property
    def xi(self) -> Array:
        return self.points.points[:, self.d :]

    @property
    def size(self) -> int:
        return self.points.size


@dataclass(frozen=True, eq=False)
class CoupledEnsemble:
    """Monte-Carlo sample of the coupled mean-field/N-body flow.

    Each of the M sample pairs carries a mean-field system (X, Xi), driven
    slot-by-slot by the reference cloud, and an N-body system (Y, H) evolving
    under its own pairwise forces; each of the four is an (M, N, d) array.
    `force`, when set, is the N-body force at Y under `force_potential`: the
    force that ended the last Verlet step, which starts the next one.
    """

    X: Array
    Xi: Array
    Y: Array
    H: Array
    reference_cloud: DiscreteMeasure
    rng_seed: int
    time: float = 0.0
    force: Array | None = None
    force_potential: Potential | None = None

    def __post_init__(self):
        arrays = [np.asarray(a, dtype=float) for a in (self.X, self.Xi, self.Y, self.H)]
        shape = arrays[0].shape
        if len(shape) != 3 or min(shape) < 1 or any(a.shape != shape for a in arrays):
            raise ValueError("sides must be nonempty (M, N, d) arrays of one shape")
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValueError("phase state entries must be finite")
        for name, a in zip(("X", "Xi", "Y", "H"), arrays):
            object.__setattr__(self, name, a)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_particles(self) -> int:
        return self.X.shape[1]

    @property
    def d(self) -> int:
        return self.X.shape[2]

    def reference_as_cloud(self) -> VlasovCloud:
        return VlasovCloud(self.reference_cloud, self.time)


# ---------------------------------------------------------------------------
# forces


def _nbody_force_batch(V: Potential, X: Array) -> Array:
    """N-body force F_k = -(1/N) sum_l grad V(x_k - x_l) (the l = k term
    vanishes by evenness) for a batch (M, N, d), in blocks of at most
    PAIR_BLOCK pairs: whole samples while N^2 fits, else row blocks of one
    sample.  Each row k still sums over every l at once, so blocking leaves
    the round-off as is."""
    M, N, _ = X.shape
    out = np.empty_like(X)
    samples = max(1, PAIR_BLOCK // max(N * N, 1))
    rows = max(1, PAIR_BLOCK // max(N, 1))
    for s in range(0, M, samples):
        block = X[s : s + samples]
        for r in range(0, N, rows):
            diff = block[:, r : r + rows, None, :] - block[:, None, :, :]
            out[s : s + samples, r : r + rows] = -V.grad(diff).mean(axis=2)
    return out


def _exact_field(V: Potential, y: Array, w: Array) -> Callable[[Array], Array]:
    """Mean-field force -sum_m w_m grad V(q - y_m) of the weighted points y,
    by exact summation at each query point q (..., d)."""
    def field(q: Array) -> Array:
        q2 = q.reshape(-1, q.shape[-1])
        out = np.empty_like(q2)
        chunk = max(1, PAIR_BLOCK // max(len(y), 1))
        for s in range(0, len(q2), chunk):
            diff = q2[s : s + chunk, None, :] - y[None, :, :]
            out[s : s + chunk] = -np.sum(w[:, None] * V.grad(diff), axis=1)
        return out.reshape(q.shape)

    return field


def _grid_field_1d(
    V: Potential, y: Array, w: Array, n_grid: int = 8192
) -> Callable[[Array], Array]:
    """Tabulated 1-D mean-field force: CIC deposit + discrete convolution.

    Error is O(h^2) in the table spacing (~1e-6 at desk scale), far below the
    Monte-Carlo noise of the experiments that use it.  Queries outside the
    table fall back to the exact sum.
    """
    y1 = y[:, 0]
    lo, hi = float(y1.min()), float(y1.max())
    pad = 0.05 * (hi - lo) + 1.0
    lo, hi = lo - pad, hi + pad
    grid = np.linspace(lo, hi, n_grid)
    h = grid[1] - grid[0]

    # cloud-in-cell deposit of the weights onto the grid
    pos = (y1 - lo) / h
    idx = np.clip(pos.astype(int), 0, n_grid - 2)
    frac = pos - idx
    dep = np.bincount(idx, weights=w * (1 - frac), minlength=n_grid)
    dep += np.bincount(idx + 1, weights=w * frac, minlength=n_grid)

    offsets = (np.arange(2 * n_grid - 1) - (n_grid - 1)) * h
    kernel = V.grad(offsets[:, None])[:, 0]
    table = -offset_convolution(dep, kernel)

    exact = _exact_field(V, y, w)

    def field(q: Array) -> Array:
        q1 = q.reshape(-1)
        out = np.interp(q1, grid, table)
        outside = (q1 < lo) | (q1 > hi)
        if np.any(outside):
            out[outside] = exact(q1[outside, None])[:, 0]
        return out.reshape(q.shape)

    return field


def _frozen_field(V: Potential, cloud: VlasovCloud) -> Callable[[Array], Array]:
    """Force field generated by the cloud, frozen for one integrator step:
    tabulated for a 1-D cloud of at least 1024 points, else summed exactly."""
    y, w = cloud.x, cloud.points.weights
    if cloud.d == 1 and cloud.size >= 1024:
        return _grid_field_1d(V, y, w)
    return _exact_field(V, y, w)


# ---------------------------------------------------------------------------
# integrators


def verlet_step(state: PhaseState, force_field, dt: float) -> PhaseState:
    """One velocity-Verlet step (mass 1).  dt may be negative; the backward
    step undoes the forward one to round-off."""
    if dt == 0:
        raise ValueError("dt must be nonzero")
    x_new, xi_new, _ = _verlet_arrays(state.positions, state.momenta, force_field, dt)
    return PhaseState(x_new, xi_new, state.time + dt)


def _verlet_arrays(x: Array, xi: Array, field, dt: float, f0: Array | None = None):
    """One Verlet step; `f0` is field(x) when the caller already has it.
    Returns (x_new, xi_new, field(x_new))."""
    xi_half = xi + 0.5 * dt * (field(x) if f0 is None else f0)
    x_new = x + dt * xi_half
    f1 = field(x_new)
    return x_new, xi_half + 0.5 * dt * f1, f1


def vlasov_advance(cloud: VlasovCloud, V: Potential, dt: float, n_steps: int) -> VlasovCloud:
    """Self-consistent particle method: each step freezes the cloud, builds
    its mean-field force field, and Verlet-advances every particle in it."""
    if dt == 0:
        raise ValueError("dt must be nonzero")
    x, xi = cloud.x.copy(), cloud.xi.copy()
    w = cloud.points.weights
    t = cloud.time
    for _ in range(n_steps):
        field = _frozen_field(V, VlasovCloud(DiscreteMeasure(np.hstack([x, xi]), w), t))
        x, xi, _ = _verlet_arrays(x, xi, field, dt)
        t += dt
    return VlasovCloud(DiscreteMeasure(np.hstack([x, xi]), w), t)


def coupled_advance(
    ens: CoupledEnsemble, ref: VlasovCloud, V: Potential, dt: float
) -> CoupledEnsemble:
    """One step of the coupled product flow.

    The mean-field side feels the force generated by `ref` at each of its N
    slots independently; the N-body side feels its own pairwise forces; `ref`
    itself advances one Vlasov step in lockstep.  The advanced reference is
    returned inside the new ensemble (`reference_as_cloud()`).

    The N-body force that ends the step is kept in the returned ensemble and
    starts the next step under the same `V`, so each step evaluates it once;
    under any other potential it is recomputed.
    """
    if dt == 0:
        raise ValueError("dt must be nonzero")
    if abs(ens.time - ref.time) > abs(dt) / 2:
        raise RuntimeError(
            f"ensemble time {ens.time} and reference time {ref.time} misaligned"
        )
    field = _frozen_field(V, ref)
    X, Xi, _ = _verlet_arrays(ens.X, ens.Xi, field, dt)
    f0 = ens.force if ens.force_potential is V else None
    Y, H, force = _verlet_arrays(
        ens.Y, ens.H, lambda pos: _nbody_force_batch(V, pos), dt, f0
    )
    rx, rxi, _ = _verlet_arrays(ref.x, ref.xi, field, dt)
    ref_meas = DiscreteMeasure(np.hstack([rx, rxi]), ref.points.weights)
    return CoupledEnsemble(X, Xi, Y, H, ref_meas, ens.rng_seed, ens.time + dt, force, V)


def run_coupled_trajectory(
    ens: CoupledEnsemble,
    ref: VlasovCloud,
    V: Potential,
    dt: float,
    n_steps: int,
    p: float = 2.0,
    record_every: int = 1,
):
    """Advance the coupled flow, recording t |-> D_N^p; returns
    (ensemble, reference, times, dvals)."""
    times = [ens.time]
    dvals = [dobrushin_functional(ens, p)]
    for step in range(1, n_steps + 1):
        ens = coupled_advance(ens, ref, V, dt)
        ref = ens.reference_as_cloud()
        if step % record_every == 0 or step == n_steps:
            times.append(ens.time)
            dvals.append(dobrushin_functional(ens, p))
    return ens, ref, np.asarray(times), np.asarray(dvals)


# ---------------------------------------------------------------------------
# functionals


def dobrushin_per_sample(ens: CoupledEnsemble, p: float) -> Array:
    """(1/N) sum_j (|x_j-y_j|^p + |xi_j-eta_j|^p) for each of the M samples."""
    if p < 1:
        raise ValueError("p must be >= 1")
    dx = np.linalg.norm(ens.X - ens.Y, axis=-1)
    dxi = np.linalg.norm(ens.Xi - ens.H, axis=-1)
    return (dx**p + dxi**p).mean(axis=1)


def dobrushin_functional(ens: CoupledEnsemble, p: float) -> float:
    """Monte-Carlo value of (1/N) sum_j (|x_j-y_j|^p + |xi_j-eta_j|^p)."""
    return float(dobrushin_per_sample(ens, p).mean())


def point_moments(cloud: VlasovCloud, p: float) -> np.ndarray:
    """|x|^p + |xi|^p at each point of the cloud."""
    return np.linalg.norm(cloud.x, axis=1) ** p + np.linalg.norm(cloud.xi, axis=1) ** p


def moment_p(cloud: VlasovCloud, p: float) -> float:
    """Weighted sum of |x|^p + |xi|^p over the cloud."""
    if p < 1:
        raise ValueError("p must be >= 1")
    return float(cloud.points.weights @ point_moments(cloud, p))


# ---------------------------------------------------------------------------
# initial data


def sample_gaussian_cloud(m: int, d: int, seed: int) -> VlasovCloud:
    """m iid standard-normal phase points (x, xi) in d dimensions."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, d))
    xi = rng.standard_normal((m, d))
    return VlasovCloud(DiscreteMeasure.equal_weights(np.hstack([x, xi])), 0.0)


def diagonal_ensemble(
    n_samples: int, n_particles: int, reference: VlasovCloud, seed: int
) -> CoupledEnsemble:
    """Diagonal initial coupling: both sides start from the same iid draw of
    N particles per sample, so every Dobrushin functional starts at zero."""
    draws = [
        sample_gaussian_cloud(n_particles, reference.d, child)
        for child in np.random.SeedSequence(seed).spawn(n_samples)
    ]
    X = np.stack([sub.x for sub in draws])
    Xi = np.stack([sub.xi for sub in draws])
    return CoupledEnsemble(X, Xi, X.copy(), Xi.copy(), reference.points, seed, reference.time)
