"""Classical particle dynamics for the mean-field comparison experiments.

Implements the N-body Newton flow with force -(1/N) sum_l grad V(x_k - x_l),
the self-consistent Vlasov particle method (mean-field characteristics over a
reference cloud), the coupled product flow whose first marginal follows the
mean-field dynamics and second marginal the N-body dynamics, and the
functionals measured on them: the p-Dobrushin functional per sample
(`dobrushin_per_sample`, whose mean is D_N^p) and phase moments.
`coupled_advance` takes one coupled step of a list of ensembles and the one
Vlasov reference cloud that drives them all; `vlasov_advance` and
`run_coupled_trajectory` take n_steps and return the advanced state.  One
phase-point type, `PhaseState`, holds either one N-particle system or an
equal-weight Vlasov cloud, such as that reference.  All integrators are
velocity Verlet, force field frozen per step.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convolution import kernel_table, table_lookup
from .potentials import PAIR_BLOCK, Potential

Array = np.ndarray


@dataclass(frozen=True)
class PhaseState:
    """Phase points at one time: positions X (M, d), momenta Xi (M, d).

    Either one system of M particles or an equal-weight Vlasov cloud of M
    points, each of mass 1/M.
    """

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

    @property
    def size(self) -> int:
        return self.positions.shape[0]

    @property
    def d(self) -> int:
        return self.positions.shape[1]


@dataclass(frozen=True, eq=False)
class CoupledEnsemble:
    """Monte-Carlo sample of the coupled mean-field/N-body flow.

    Each of the M sample pairs carries a mean-field system (X, Xi), driven
    slot-by-slot by a Vlasov reference cloud that `coupled_advance` holds
    beside it, and an N-body system (Y, H) evolving under its own pairwise
    forces; each of the four is an (M, N, d) array.  `force`, when set, is
    the N-body force at Y under `force_potential`: the force that ended the
    last Verlet step, which starts the next one.
    """

    X: Array
    Xi: Array
    Y: Array
    H: Array
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


#: Table nodes of `_grid_field_1d`'s force table.
FIELD_TABLE_POINTS = 8192


def _grid_field_1d(V: Potential, y: Array, w: Array) -> Callable[[Array], Array]:
    """Tabulated 1-D mean-field force: CIC deposit on FIELD_TABLE_POINTS
    nodes, then `kernel_table` of -grad V, read back by `table_lookup`.

    Error is O(h^2) in the table spacing (~1e-6 at desk scale), far below the
    Monte-Carlo noise of the experiments that use it.  Queries outside the
    table fall back to the exact sum.
    """
    y1 = y[:, 0]
    lo, hi = float(y1.min()), float(y1.max())
    pad = 0.05 * (hi - lo) + 1.0
    lo, hi = lo - pad, hi + pad
    grid = np.linspace(lo, hi, FIELD_TABLE_POINTS)
    h = grid[1] - grid[0]

    # cloud-in-cell deposit of the weights onto the grid
    pos = (y1 - lo) / h
    idx = np.clip(pos.astype(int), 0, FIELD_TABLE_POINTS - 2)
    frac = pos - idx
    dep = np.bincount(idx, weights=w * (1 - frac), minlength=FIELD_TABLE_POINTS)
    dep += np.bincount(idx + 1, weights=w * frac, minlength=FIELD_TABLE_POINTS)

    table = -kernel_table(dep, lambda z: V.grad(z[:, None])[:, 0], h)
    exact = _exact_field(V, y, w)
    return table_lookup(grid, table, lambda q: exact(q[:, None])[:, 0])


def sums_field_exactly(size: int, d: int) -> bool:
    """Whether `_frozen_field` sums the field of a cloud of `size` points in
    d dimensions exactly: it tabulates only 1-D clouds of at least 1024."""
    return d != 1 or size < 1024


def _frozen_field(V: Potential, y: Array) -> Callable[[Array], Array]:
    """Force field generated by the equal-weight cloud at positions y (M, d),
    frozen for one integrator step: summed exactly or tabulated, as
    `sums_field_exactly` says."""
    M, d = y.shape
    w = np.full(M, 1.0 / M)
    if sums_field_exactly(M, d):
        return _exact_field(V, y, w)
    return _grid_field_1d(V, y, w)


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


def vlasov_advance(cloud: PhaseState, V: Potential, dt: float, n_steps: int) -> PhaseState:
    """Self-consistent particle method: each step freezes the cloud, builds
    its mean-field force field, and Verlet-advances every particle in it."""
    for _ in range(n_steps):
        cloud = verlet_step(cloud, _frozen_field(V, cloud.positions), dt)
    return cloud


def coupled_advance(ensembles, reference: PhaseState, V: Potential, dt: float):
    """One step of the coupled product flow for every ensemble in the list
    `ensembles`, under one Vlasov `reference`; returns both, advanced.

    The reference's force field is built once and frozen for the step: the
    mean-field side of every ensemble feels it at each of its N slots
    independently, and the reference itself takes one Vlasov step under it.
    Each N-body side feels its own pairwise forces.

    The N-body force that ends the step is kept in the returned ensemble and
    starts the next step under the same `V`, so each step evaluates it once;
    under any other potential it is recomputed.
    """
    field = _frozen_field(V, reference.positions)
    nbody = lambda pos: _nbody_force_batch(V, pos)
    stepped = []
    for ens in ensembles:
        X, Xi, _ = _verlet_arrays(ens.X, ens.Xi, field, dt)
        f0 = ens.force if ens.force_potential is V else None
        Y, H, force = _verlet_arrays(ens.Y, ens.H, nbody, dt, f0)
        stepped.append(CoupledEnsemble(X, Xi, Y, H, force, V))
    return stepped, verlet_step(reference, field, dt)


def run_coupled_trajectory(
    ensembles, reference: PhaseState, V: Potential, dt: float, n_steps: int
):
    """n_steps steps of the coupled flow (coupled_advance)."""
    for _ in range(n_steps):
        ensembles, reference = coupled_advance(ensembles, reference, V, dt)
    return ensembles, reference


# ---------------------------------------------------------------------------
# functionals


def dobrushin_per_sample(ens: CoupledEnsemble, p: float) -> Array:
    """(1/N) sum_j (|x_j-y_j|^p + |xi_j-eta_j|^p) for each of the M samples."""
    if p < 1:
        raise ValueError("p must be >= 1")
    dx = np.linalg.norm(ens.X - ens.Y, axis=-1)
    dxi = np.linalg.norm(ens.Xi - ens.H, axis=-1)
    return (dx**p + dxi**p).mean(axis=1)


def point_moments(cloud: PhaseState, p: float) -> np.ndarray:
    """|x|^p + |xi|^p at each point of the cloud."""
    return (
        np.linalg.norm(cloud.positions, axis=1) ** p
        + np.linalg.norm(cloud.momenta, axis=1) ** p
    )


# ---------------------------------------------------------------------------
# initial data


def sample_gaussian_cloud(m: int, d: int, seed: int) -> PhaseState:
    """m iid standard-normal phase points (x, xi) in d dimensions."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, d))
    xi = rng.standard_normal((m, d))
    return PhaseState(x, xi)


def diagonal_ensemble(n_samples: int, n_particles: int, d: int, seed: int) -> CoupledEnsemble:
    """Diagonal initial coupling: both sides start from the same iid draw of
    N particles in d dimensions per sample, so every Dobrushin functional
    starts at zero."""
    draws = [
        sample_gaussian_cloud(n_particles, d, child)
        for child in np.random.SeedSequence(seed).spawn(n_samples)
    ]
    X = np.stack([sub.positions for sub in draws])
    Xi = np.stack([sub.momenta for sub in draws])
    return CoupledEnsemble(X, Xi, X.copy(), Xi.copy())
