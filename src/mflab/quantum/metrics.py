"""Quantum coupling costs: the (Q*Q + P*P) trace cost, the squared-distance
bracket it certifies, and the symbol-level machinery for symmetrized initial
couplings.

A coupling of two N-particle states is a FactoredCoupling: N single-particle
X factors and one N-particle Y factor, whose product is the coupling state.
The trace cost pairs X factor j with y's particle j:

    sum_j <|x_j - y_j|^2> + <|p_j - p_j'|^2>,   p = eps * kappa,

with both expectations read off densities (position density directly,
momentum density through the FFT), so no operator matrices are ever formed.
The pair densities are products, so each expectation is
m2_x - 2 m1_x m1_y + m2_y from the factors' own marginal moments.
"""
from __future__ import annotations

from dataclasses import replace
from itertools import permutations

import numpy as np
from scipy import fft as sfft

from ..transport import SUPPORT_CAP, DiscreteMeasure, TransportPlan, wasserstein_exact
from .dynamics import partial_trace
from .grids import DensityMatrix, FactoredCoupling, GridSpec, ResourceCapError, WaveFunction
from .phase_space import SymbolMeasure, coherent_product_state, husimi_values


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


def _components(R) -> list:
    """A FactoredCoupling, or a list of (weight, FactoredCoupling), as the list."""
    components = [(1.0, R)] if isinstance(R, FactoredCoupling) else list(R)
    if not all(isinstance(state, FactoredCoupling) for _, state in components):
        raise TypeError("a coupling is a FactoredCoupling or a list of (weight, FactoredCoupling)")
    return components


def qp_cost_trace(R, eps: float | None = None) -> float:
    """trace((Q*Q + P*P) R) for a product coupling (a FactoredCoupling) or a
    finite convex combination of them, given as (weight, FactoredCoupling)
    pairs."""
    total = 0.0
    for w, state in _components(R):
        if eps is not None and abs(eps - state.y.grid.epsilon) > 1e-12:
            raise ValueError("eps disagrees with the state's grid")
        total += w * _factored_cost(state)
    return total


def mk_eps_upper(symbol1: SymbolMeasure, symbol2: SymbolMeasure, eps: float) -> float:
    """Squared-distance upper bound dist_2(mu1, mu2)^2 + 2*(dN)*eps from the
    Toeplitz product coupling of the optimal symbol transport plan."""
    if symbol1.k != symbol2.k:
        raise ValueError("symbols live on different phase spaces")
    axes = symbol1.k // 2
    dist, _ = wasserstein_exact(symbol1, symbol2, p=2.0)
    return dist**2 + 2.0 * axes * eps


def _position_density(rho: DensityMatrix) -> np.ndarray:
    return np.clip(np.real(rho.matrix.diagonal()), 0.0, None)


def _momentum_density(rho: DensityMatrix) -> np.ndarray:
    tilde = sfft.ifft(sfft.fft(rho.matrix, axis=0), axis=1)
    return np.clip(np.real(tilde.diagonal()), 0.0, None)


def _marginal_window(rho: DensityMatrix, n_sigma: float = 4.2):
    x = rho.grid.axis_points()
    p = rho.grid.epsilon * rho.grid.wavenumbers()
    windows = []
    for coords, dens in (
        (x, _position_density(rho)),
        (p, _momentum_density(rho)),
    ):
        total = dens.sum()
        mean = float(coords @ dens / total)
        std = float(np.sqrt(np.clip((coords - mean) ** 2 @ dens / total, 0.0, None)))
        windows.append((mean - n_sigma * std, mean + n_sigma * std))
    return windows  # [(x_lo, x_hi), (p_lo, p_hi)]


def _lattice_cloud(rho: DensityMatrix, xs: np.ndarray, ps: np.ndarray, prune: float):
    X, P = np.meshgrid(xs, ps, indexing="ij")
    z = np.column_stack([X.ravel(), P.ravel()])
    vals = husimi_values(rho, z)
    w = np.clip(vals, 0.0, None) * (xs[1] - xs[0]) * (ps[1] - ps[0])
    keep = w > prune * w.sum()
    w = w[keep]
    return DiscreteMeasure(z[keep], w / w.sum())


def husimi_lattices(rho1: DensityMatrix, rho2: DensityMatrix, eps: float | None = None):
    """Both Husimi functions discretized on one shared phase-space lattice,
    as the pair of pruned DiscreteMeasures `lattice_lower` solves between.

    The lattice has spacing ~ 0.35*sqrt(eps) over the union of the two
    4.2-sigma marginal boxes; atoms below 1e-4 of the mass are pruned, which
    trims the square lattice to a disk.  It is coarsened by 1.5x steps while
    either support would exceed the solver cap, and ResourceCapError is
    raised after four tries.  `husimi_values` fills each lattice with a few
    matrix products (exact Gaussian midpoint factorisation), so the
    transport solve, not the Husimi values, dominates the cost of the bound.
    """
    if rho1.grid.d != 1 or rho1.grid.n_particles != 1 or rho1.grid.doubled:
        raise ValueError("Husimi lattices need single-particle d = 1 states")
    if abs(rho1.grid.epsilon - rho2.grid.epsilon) > 1e-12:
        raise ValueError("states have different epsilon")
    if eps is None:
        eps = rho1.grid.epsilon
    elif abs(eps - rho1.grid.epsilon) > 1e-12:
        raise ValueError("eps disagrees with the states' grids")

    w1 = _marginal_window(rho1)
    w2 = _marginal_window(rho2)
    x_lo, x_hi = min(w1[0][0], w2[0][0]), max(w1[0][1], w2[0][1])
    p_lo, p_hi = min(w1[1][0], w2[1][0]), max(w1[1][1], w2[1][1])

    spacing = 0.35 * np.sqrt(eps)
    for _ in range(4):
        xs = np.linspace(x_lo, x_hi, max(int(np.ceil((x_hi - x_lo) / spacing)) + 1, 2))
        ps = np.linspace(p_lo, p_hi, max(int(np.ceil((p_hi - p_lo) / spacing)) + 1, 2))
        mu1 = _lattice_cloud(rho1, xs, ps, prune=1e-4)
        mu2 = _lattice_cloud(rho2, xs, ps, prune=1e-4)
        if max(mu1.size, mu2.size) <= SUPPORT_CAP:
            return mu1, mu2
        spacing *= 1.5
    raise ResourceCapError("Husimi lattice would exceed the transport support cap")


def lattice_lower(mu1: DiscreteMeasure, mu2: DiscreteMeasure, eps: float) -> float:
    """dist_2(mu1, mu2)^2 - 2*d*eps on the lattices of `husimi_lattices`.

    The two lattices carry unequal weights, so the distance comes from the
    certified sparse LP of `wasserstein_exact`.  May be negative.
    """
    dist, _ = wasserstein_exact(mu1, mu2, p=2.0)
    return dist**2 - 2.0 * eps


def mk_eps_lower(rho1: DensityMatrix, rho2: DensityMatrix, eps: float | None = None) -> float:
    """Squared-distance lower bound dist_2(Husimi_1, Husimi_2)^2 - 2*d*eps:
    `lattice_lower` on the `husimi_lattices` of the two states.

    The lattice and pruning errors are below ~5e-3, far inside the 4*d*eps
    slack of the bracket checks this feeds.  May be negative.
    """
    mu1, mu2 = husimi_lattices(rho1, rho2, eps)
    return lattice_lower(mu1, mu2, rho1.grid.epsilon if eps is None else eps)


def state_density_matrix(psi: WaveFunction) -> DensityMatrix:
    """|psi><psi| as a grid matrix (for single-particle diagnostics)."""
    vec = psi.values.ravel()
    return DensityMatrix(psi.grid, np.outer(vec, vec.conj()))


def _coupling_atoms(
    plan: TransportPlan,
    symbol1: SymbolMeasure,
    symbol2: SymbolMeasure,
    n_particles: int,
    perms,
):
    dN = symbol1.k // 2
    if symbol2.k != symbol1.k:
        raise ValueError("symbols live on different phase spaces")
    if dN % n_particles:
        raise ValueError("symbol dimension is not a multiple of the particle count")
    d = dN // n_particles
    rows = []
    weights = []
    scale = 1.0 / len(perms)
    for i, j, w in zip(plan.source_index, plan.target_index, plan.mass):
        qx, px = symbol1.points[i, :dN], symbol1.points[i, dN:]
        qy, py = symbol2.points[j, :dN], symbol2.points[j, dN:]
        for sigma in perms:
            idx = np.asarray(sigma)
            blocks = [
                arr.reshape(n_particles, d)[idx].ravel() for arr in (qx, qy, px, py)
            ]
            rows.append(np.concatenate(blocks))
            weights.append(w * scale)
    pts = np.asarray(rows)
    wts = np.asarray(weights)
    # merge exact duplicates so symmetric inputs come back unchanged
    uniq, inverse = np.unique(pts, axis=0, return_inverse=True)
    wts = np.bincount(inverse, weights=wts, minlength=uniq.shape[0])
    return DiscreteMeasure(uniq, wts / wts.sum())


def symmetrize_initial_coupling(
    plan: TransportPlan, symbol1: SymbolMeasure, symbol2: SymbolMeasure, n_particles: int
) -> SymbolMeasure:
    """Average of jointly particle-permuted product couplings (1/N!) sum_sigma.

    The resulting symbol is exchange-symmetric under joint relabeling of the
    x- and y-blocks, and its per-particle transport cost is unchanged."""
    if n_particles > 6:
        raise ValueError("N! enumeration limited to N <= 6")
    return _coupling_atoms(
        plan, symbol1, symbol2, n_particles, list(permutations(range(n_particles)))
    )


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
            coherent_product_state(base, np.concatenate([q[j : j + base.d], p[j : j + base.d]]))
            for j in range(0, dN, base.d)
        )
        y = coherent_product_state(ygrid, np.concatenate([q[dN:], p[dN:]]))
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
    for f in state.factors:
        if f is not own:
            block = block * f.norm() ** 2
    return block, reduced.grid


def reduced_density(components, keep_slots) -> DensityMatrix:
    """Reduced density matrix of one particle slot of a product coupling or of
    a list of (weight, FactoredCoupling); slots count the X factors first,
    then y's particles."""
    keep = list(keep_slots)
    if len(keep) != 1:
        raise NotImplementedError("factored couplings reduce to one slot")
    acc = None
    for w, state in _components(components):
        matrix, grid = _factored_block(state, keep[0])
        acc = w * matrix if acc is None else acc + w * matrix
    return DensityMatrix(grid, acc)
