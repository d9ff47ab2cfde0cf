"""Quantum coupling costs: the (Q*Q + P*P) trace cost, the squared-distance
bracket it certifies, and the symbol-level machinery for symmetrized initial
couplings.

A coupling of two single-particle states lives on the doubled grid with slot
layout (x_1..x_N, y_1..y_N); the trace cost pairs slot j with slot N+j:

    sum_j <|x_j - y_j|^2> + <|p_j - p_j'|^2>,   p = eps * kappa,

with both expectations read off joint densities (position density directly,
momentum density through the FFT), so no operator matrices are ever formed.
For a FactoredCoupling the pair densities are products, so each expectation
is m2_x - 2 m1_x m1_y + m2_y from the factors' own marginal moments.
"""
from __future__ import annotations

from dataclasses import replace
from itertools import permutations

import numpy as np
from scipy import fft as sfft

from ..transport import SUPPORT_CAP, DiscreteMeasure, TransportPlan, wasserstein_exact
from .dynamics import partial_trace, permute_particles
from .grids import DensityMatrix, FactoredCoupling, GridSpec, ResourceCapError, WaveFunction
from .phase_space import SymbolMeasure, coherent_product_state, husimi_values


def _slot_pairs(grid: GridSpec) -> list:
    if not grid.doubled:
        raise ValueError("coupling costs need a doubled-grid state")
    N, d = grid.n_particles, grid.d
    return [(j * d + c, (N + j) * d + c) for j in range(N) for c in range(d)]


def _pair_mean_square(prob: np.ndarray, coords: np.ndarray, pair: tuple) -> float:
    """E[(u_a - u_b)^2] under the (unnormalized) joint density `prob`."""
    a, b = pair
    other = tuple(i for i in range(prob.ndim) if i != a and i != b)
    marg = prob.sum(axis=other)
    diff2 = (coords[:, None] - coords[None, :]) ** 2
    return float(np.sum(marg * diff2) / np.sum(marg))


def _pure_cost(psi: WaveFunction) -> float:
    grid = psi.grid
    pairs = _slot_pairs(grid)
    x = grid.axis_points()
    p = grid.epsilon * grid.wavenumbers()
    pos_prob = np.abs(psi.values) ** 2
    mom_prob = np.abs(sfft.fftn(psi.values)) ** 2
    total = 0.0
    for pair in pairs:
        total += _pair_mean_square(pos_prob, x, pair)
        total += _pair_mean_square(mom_prob, p, pair)
    return total


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
        # X factor j's axis c pairs with y's axis j*d + c, as on the doubled grid
        x_moments = [m for f in state.xs for m in _axis_moments(density(f), coords)]
        y_moments = _axis_moments(density(state.y), coords)
        for (m1x, m2x), (m1y, m2y) in zip(x_moments, y_moments):
            total += float(m2x - 2.0 * m1x * m1y + m2y)
    return total


def _matrix_cost(rho: DensityMatrix) -> float:
    grid = rho.grid
    pairs = _slot_pairs(grid)
    shape = grid.shape()
    x = grid.axis_points()
    p = grid.epsilon * grid.wavenumbers()
    pos_prob = np.clip(np.real(rho.matrix.diagonal()).reshape(shape), 0.0, None)
    T = rho.matrix.reshape(shape + shape)
    T = sfft.fftn(T, axes=tuple(range(grid.n_axes)))
    T = sfft.ifftn(T, axes=tuple(range(grid.n_axes, 2 * grid.n_axes)))
    dim = grid.points_per_axis**grid.n_axes
    mom_prob = np.clip(np.real(T.reshape(dim, dim).diagonal()).reshape(shape), 0.0, None)
    total = 0.0
    for pair in pairs:
        total += _pair_mean_square(pos_prob, x, pair)
        total += _pair_mean_square(mom_prob, p, pair)
    return total


def qp_cost_trace(R, eps: float | None = None) -> float:
    """trace((Q*Q + P*P) R) for a coupling state on the doubled grid.

    `R` may be a pure coupling (a doubled-grid WaveFunction or a
    FactoredCoupling), a DensityMatrix, or a list of (weight, pure coupling)
    pairs for finite convex combinations.
    """
    if isinstance(R, (WaveFunction, FactoredCoupling)):
        components = [(1.0, R)]
    elif isinstance(R, DensityMatrix):
        if eps is not None and abs(eps - R.grid.epsilon) > 1e-12:
            raise ValueError("eps disagrees with the state's grid")
        return _matrix_cost(R)
    else:
        components = list(R)
    total = 0.0
    for w, psi in components:
        factored = isinstance(psi, FactoredCoupling)
        grid = psi.y.grid if factored else psi.grid
        if eps is not None and abs(eps - grid.epsilon) > 1e-12:
            raise ValueError("eps disagrees with the state's grid")
        total += w * (_factored_cost(psi) if factored else _pure_cost(psi))
    return total


def dobrushin_quantum_functional(R_state, eps: float | None = None, n_particles: int | None = None) -> float:
    """(1/N) sum_j trace((Q*_j Q_j + P*_j P_j) R): the per-particle coupling cost."""
    if isinstance(R_state, (WaveFunction, DensityMatrix, FactoredCoupling)):
        first = R_state
    else:
        first = R_state[0][1]
    N = (first.y.grid if isinstance(first, FactoredCoupling) else first.grid).n_particles
    if n_particles is not None and n_particles != N:
        raise ValueError(f"state couples {N} particles per side, not {n_particles}")
    return qp_cost_trace(R_state, eps) / N


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


def mk_eps_lower(rho1: DensityMatrix, rho2: DensityMatrix, eps: float | None = None) -> float:
    """Squared-distance lower bound dist_2(Husimi_1, Husimi_2)^2 - 2*d*eps.

    Both Husimi functions are discretized on one shared phase-space lattice
    (spacing ~ 0.35*sqrt(eps), window = union of 4.2-sigma marginal boxes,
    atoms below 1e-4 of the mass pruned, which trims the square lattice to a
    disk); the lattice is coarsened by 1.5x steps if either support would
    exceed the solver cap.  `husimi_values` fills each lattice with a few
    matrix products (exact Gaussian midpoint factorisation), so the
    transport solve, not the Husimi values, dominates the cost.  The two
    lattices carry unequal weights, so the distance comes from the certified
    sparse LP of `wasserstein_exact`.  The lattice and pruning errors are
    below ~5e-3, far inside the 4*d*eps slack of the bracket checks this
    feeds.  May be negative.
    """
    if rho1.grid.d != 1 or rho1.grid.n_particles != 1 or rho1.grid.doubled:
        raise ValueError("mk_eps_lower expects single-particle d = 1 states")
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
            dist, _ = wasserstein_exact(mu1, mu2, p=2.0)
            return dist**2 - 2.0 * eps
        spacing *= 1.5
    raise ResourceCapError("Husimi lattice would exceed the transport support cap")


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


def product_coupling_symbol(
    plan: TransportPlan, symbol1: SymbolMeasure, symbol2: SymbolMeasure, n_particles: int
) -> SymbolMeasure:
    """Coupling symbol on R^{4dN} (doubled layout q_x, q_y, p_x, p_y) whose
    Toeplitz lift is the product coupling of the plan."""
    return _coupling_atoms(plan, symbol1, symbol2, n_particles, [tuple(range(n_particles))])


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


def symbol_dobrushin_cost(coupling: SymbolMeasure, n_particles: int) -> float:
    """(1/N) sum_j (|q_xj - q_yj|^2 + |p_xj - p_yj|^2) averaged over atoms."""
    if coupling.k % (4 * n_particles):
        raise ValueError("coupling must live on R^{4dN}")
    dN = coupling.k // 4
    qx = coupling.points[:, :dN]
    qy = coupling.points[:, dN : 2 * dN]
    px = coupling.points[:, 2 * dN : 3 * dN]
    py = coupling.points[:, 3 * dN :]
    per_atom = np.sum((qx - qy) ** 2 + (px - py) ** 2, axis=1) / n_particles
    return float(coupling.weights @ per_atom)


def coupling_to_state_mixture(grid: GridSpec, coupling: SymbolMeasure) -> list:
    """Toeplitz lift of a coupling symbol as [(weight, pure product state), ...]
    with each component one doubled-grid array of 16 n^(2dN) bytes.

    The oracle twin of coupling_to_factored_mixture, which holds the same
    components as their factors."""
    if not grid.doubled:
        raise ValueError("coupling lifts live on doubled grids")
    return [
        (float(w), coherent_product_state(grid, atom))
        for w, atom in zip(coupling.weights, coupling.points)
    ]


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
        k = slot - N
        rest = [s for s in range(N) if s != k]
        reduced = partial_trace(permute_particles(own, [k] + rest), 1)
    block = reduced.matrix
    for f in state.factors:
        if f is not own:
            block = block * f.norm() ** 2
    return block, reduced.grid


def reduced_density(components, keep_slots) -> DensityMatrix:
    """Reduced density matrix of the named particle slots of a pure-state
    mixture; slots count across both blocks of a doubled grid (X block first).
    FactoredCoupling components are reduced factor by factor and take a
    single slot."""
    if isinstance(components, (WaveFunction, FactoredCoupling)):
        components = [(1.0, components)]
    keep = list(keep_slots)
    acc = None
    grid = None
    for w, psi in components:
        if isinstance(psi, FactoredCoupling):
            if len(keep) != 1:
                raise NotImplementedError("factored couplings reduce to one slot")
            matrix, grid = _factored_block(psi, keep[0])
        else:
            d = psi.grid.d
            total = psi.grid.n_axes // d
            rest = [s for s in range(total) if s not in keep]
            block = partial_trace(permute_particles(psi, keep + rest), len(keep))
            matrix, grid = block.matrix, block.grid
        acc = w * matrix if acc is None else acc + w * matrix
    return DensityMatrix(grid, acc)
