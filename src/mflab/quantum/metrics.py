"""Quantum coupling costs: the (Q*Q + P*P) trace cost, the squared-distance
bracket it certifies, and the Toeplitz lift of a coupling symbol.

A coupling of two N-particle states is a list of (weight, FactoredCoupling)
pairs, each product holding N single-particle X factors and one N-particle
Y factor.  The trace cost of a product pairs X factor j with y's particle j:

    sum_j <|x_j - y_j|^2> + <|p_j - p_j'|^2>,   p = eps * kappa,

with both expectations read off densities (position density directly,
momentum density through the FFT), so no operator matrices are ever formed.
The pair densities are products, so each expectation is
m2_x - 2 m1_x m1_y + m2_y from the factors' own marginal moments.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import fft as sfft

from ..transport import SUPPORT_CAP, DiscreteMeasure, wasserstein_exact
from .dynamics import partial_trace
from .grids import (
    DensityMatrix,
    FactoredCoupling,
    GridSpec,
    ResourceCapError,
    WaveFunction,
)
from .phase_space import SymbolMeasure, coherent_state, husimi_values


def _axis_moments(prob: np.ndarray, coords: np.ndarray) -> list:
    """(E[u], E[u^2]) of every axis's marginal of the (unnormalized) density."""
    total = prob.sum()
    moments = []
    for ax in range(prob.ndim):
        marg = prob.sum(axis=tuple(i for i in range(prob.ndim) if i != ax))
        moments.append((coords @ marg / total, coords**2 @ marg / total))
    return moments


def _factored_cost(state: FactoredCoupling) -> float:
    grid = state.y.grid
    total = 0.0
    for coords, density in (
        (grid.axis_points(), lambda f: np.abs(f.values) ** 2),
        (grid.epsilon * grid.wavenumbers(), lambda f: np.abs(sfft.fftn(f.values)) ** 2),
    ):
        # X factor j's axis c pairs with y's axis j*d + c
        x_moments = [m for f in state.xs for m in _axis_moments(density(f), coords)]
        y_moments = _axis_moments(density(state.y), coords)
        for (m1x, m2x), (m1y, m2y) in zip(x_moments, y_moments):
            total += float(m2x - 2.0 * m1x * m1y + m2y)
    return total


def _products(coupling):
    """The (weight, FactoredCoupling) pairs of a coupling, checked."""
    for w, state in coupling:
        if not isinstance(state, FactoredCoupling):
            raise TypeError("a coupling is a list of (weight, FactoredCoupling) pairs")
        yield w, state


def qp_cost_trace(R) -> float:
    """trace((Q*Q + P*P) R) for a coupling R: a finite convex combination of
    product couplings, as (weight, FactoredCoupling) pairs."""
    return sum(w * _factored_cost(state) for w, state in _products(R))


def mk_eps_upper(symbol1: SymbolMeasure, symbol2: SymbolMeasure, eps: float) -> float:
    """Squared-distance upper bound dist_2(mu1, mu2)^2 + 2*(dN)*eps from the
    Toeplitz product coupling of the optimal symbol transport plan."""
    if symbol1.k != symbol2.k:
        raise ValueError("symbols live on different phase spaces")
    axes = symbol1.k // 2
    dist, _ = wasserstein_exact(symbol1, symbol2)
    return dist**2 + 2.0 * axes * eps


def _marginal_densities(state):
    """Position and momentum densities of a WaveFunction or DensityMatrix,
    each up to a constant factor, the momenta in `wavenumbers()` order."""
    if isinstance(state, WaveFunction):
        return np.abs(state.values) ** 2, np.abs(sfft.fft(state.values)) ** 2
    tilde = sfft.ifft(sfft.fft(state.matrix, axis=0), axis=1)
    return (
        np.clip(np.real(state.matrix.diagonal()), 0.0, None),
        np.clip(np.real(tilde.diagonal()), 0.0, None),
    )


def _marginal_window(state, n_sigma: float = 4.2):
    x = state.grid.axis_points()
    p = state.grid.epsilon * state.grid.wavenumbers()
    windows = []
    for coords, dens in zip((x, p), _marginal_densities(state)):
        total = dens.sum()
        mean = float(coords @ dens / total)
        std = float(np.sqrt(np.clip((coords - mean) ** 2 @ dens / total, 0.0, None)))
        windows.append((mean - n_sigma * std, mean + n_sigma * std))
    return windows  # [(x_lo, x_hi), (p_lo, p_hi)]


def _lattice_cloud(state, xs: np.ndarray, ps: np.ndarray, prune: float):
    w = np.clip(husimi_values(state, xs, ps).ravel(), 0.0, None)
    w = w * (xs[1] - xs[0]) * (ps[1] - ps[0])
    keep = w > prune * w.sum()
    w = w[keep]
    i, j = np.divmod(np.flatnonzero(keep), ps.size)
    return DiscreteMeasure(np.column_stack([xs[i], ps[j]]), w / w.sum())


def husimi_lattices(state1, state2):
    """Both Husimi functions discretized on one shared phase-space lattice,
    as the pair of pruned DiscreteMeasures `lattice_lower` solves between.

    Each state is a single-particle d = 1 WaveFunction (a pure state) or
    DensityMatrix; the two may differ in type but share the eps of their
    grids.  The lattice has spacing ~ 0.35*sqrt(eps) over the union of the
    two 4.2-sigma marginal boxes; atoms below 1e-4 of the mass are pruned,
    which trims the square lattice to a disk.  It is coarsened by 1.5x steps
    while either support would exceed the solver cap, and ResourceCapError
    is raised after four tries.

    `husimi_values` fills each lattice by the route of its state's type.
    For n grid points, a WaveFunction's marginals are |psi|^2 and
    |FFT psi|^2 (O(n log n)); a DensityMatrix's momentum marginal takes two
    n x n FFTs (O(n^2 log n)).  Either way the transport solve, not the
    Husimi values, dominates the cost of the bound.
    """
    for state in (state1, state2):
        if not isinstance(state, (WaveFunction, DensityMatrix)):
            raise TypeError("Husimi lattices need WaveFunction or DensityMatrix states")
        if state.grid.d != 1 or state.grid.n_particles != 1:
            raise ValueError("Husimi lattices need single-particle d = 1 states")
    if abs(state1.grid.epsilon - state2.grid.epsilon) > 1e-12:
        raise ValueError("states have different epsilon")
    eps = state1.grid.epsilon

    w1 = _marginal_window(state1)
    w2 = _marginal_window(state2)
    x_lo, x_hi = min(w1[0][0], w2[0][0]), max(w1[0][1], w2[0][1])
    p_lo, p_hi = min(w1[1][0], w2[1][0]), max(w1[1][1], w2[1][1])

    spacing = 0.35 * np.sqrt(eps)
    for _ in range(4):
        xs = np.linspace(x_lo, x_hi, max(int(np.ceil((x_hi - x_lo) / spacing)) + 1, 2))
        ps = np.linspace(p_lo, p_hi, max(int(np.ceil((p_hi - p_lo) / spacing)) + 1, 2))
        mu1 = _lattice_cloud(state1, xs, ps, prune=1e-4)
        mu2 = _lattice_cloud(state2, xs, ps, prune=1e-4)
        if max(mu1.size, mu2.size) <= SUPPORT_CAP:
            return mu1, mu2
        spacing *= 1.5
    raise ResourceCapError("Husimi lattice would exceed the transport support cap")


def lattice_lower(mu1: DiscreteMeasure, mu2: DiscreteMeasure, eps: float) -> float:
    """dist_2(mu1, mu2)^2 - 2*d*eps on the lattices of `husimi_lattices`.

    The two lattices carry unequal weights, so the distance comes from the
    certified sparse LP of `wasserstein_exact`.  May be negative.
    """
    dist, _ = wasserstein_exact(mu1, mu2)
    return dist**2 - 2.0 * eps


def mk_eps_lower(state1, state2) -> float:
    """Squared-distance lower bound dist_2(Husimi_1, Husimi_2)^2 - 2*d*eps:
    `lattice_lower` on the `husimi_lattices` of the two states, each a
    single-particle WaveFunction or DensityMatrix (see `husimi_values` for
    the cost of each route).

    The lattice and pruning errors are below ~5e-3, far inside the 4*d*eps
    slack of the bracket checks this feeds.  May be negative.
    """
    mu1, mu2 = husimi_lattices(state1, state2)
    return lattice_lower(mu1, mu2, state1.grid.epsilon)


def state_density_matrix(psi: WaveFunction) -> DensityMatrix:
    """|psi><psi| as a grid matrix (for single-particle diagnostics)."""
    vec = psi.values.ravel()
    return DensityMatrix(psi.grid, np.outer(vec, vec.conj()))


def coupling_to_factored_mixture(
    base: GridSpec, n_particles: int, coupling: SymbolMeasure
) -> list:
    """Toeplitz lift of a coupling symbol as [(weight, FactoredCoupling), ...]:
    per atom, one coherent state on `base` for each X particle and one
    N-particle coherent product for the Y block."""
    ygrid = replace(base, n_particles=n_particles)
    dN = base.d * n_particles
    if coupling.k != 4 * dN:
        raise ValueError(f"coupling lives on R^{coupling.k}, expected R^{4 * dN}")
    mixture = []
    for w, atom in zip(coupling.weights, coupling.points):
        q, p = atom[: 2 * dN], atom[2 * dN :]
        xs = tuple(
            coherent_state(base, q[j : j + base.d], p[j : j + base.d])
            for j in range(0, dN, base.d)
        )
        y = coherent_state(ygrid, q[dN:], p[dN:])
        mixture.append((float(w), FactoredCoupling(xs, y)))
    return mixture


def _factored_block(state: FactoredCoupling, slot: int) -> tuple:
    """(kernel, grid) of one slot of a product coupling: the slot's own factor
    reduced to that slot, times the other factors' squared norms."""
    N = len(state.xs)
    if not 0 <= slot < 2 * N:
        raise ValueError(f"slot {slot} out of range 0..{2 * N - 1}")
    own = state.xs[slot] if slot < N else state.y
    if own.grid.n_particles == 1:
        reduced = state_density_matrix(own)
    else:
        # partial_trace keeps the leading slot: move this slot's axes to the front
        d = own.grid.d
        k = slot - N
        values = np.moveaxis(own.values, range(k * d, (k + 1) * d), range(d))
        reduced = partial_trace(WaveFunction(own.grid, values, own.time), 1)
    block = reduced.matrix
    # skip the slot's factor by its index: X factors may be one object
    for i, f in enumerate(state.factors):
        if i != min(slot, N):
            block = block * f.norm() ** 2
    return block, reduced.grid


def reduced_density(coupling, slot: int) -> DensityMatrix:
    """Reduced density matrix of one particle slot of a coupling, a list of
    (weight, FactoredCoupling); slots count the X factors first, then y's
    particles."""
    acc = None
    for w, state in _products(coupling):
        matrix, grid = _factored_block(state, slot)
        acc = w * matrix if acc is None else acc + w * matrix
    return DensityMatrix(grid, acc)
