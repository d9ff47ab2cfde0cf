"""Quantum coupling costs: the (Q*Q + P*P) trace cost, the squared-distance
bracket it certifies, and the Toeplitz lift of a coupling symbol.

A coupling of two N-particle states is a list of (weight, FactoredCoupling)
pairs, each product holding N single-particle X factors and one N-particle
Y factor.  The trace cost of a product pairs X factor j with y's particle j:

    sum_j <|x_j - y_j|^2> + <|p_j - p_j'|^2>,   p = eps * kappa,

and the pair densities are products, so each expectation is
m2_x - 2 m1_x m1_y + m2_y from the factors' own marginal moments.  Those
come from one table, `factor_moments`, which also sets the Husimi lattice
windows; it reads momenta by 1-D FFTs, slab by slab, with no n^N copy.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import fft as sfft

from ..potentials import PAIR_BLOCK
from ..transport import SUPPORT_CAP, DiscreteMeasure, wasserstein_exact
from .dynamics import partial_trace
from .grids import (
    DensityMatrix,
    FactoredCoupling,
    GridSpec,
    ResourceCapError,
    WaveFunction,
    check_matrix_bytes,
)
from .phase_space import SymbolMeasure, coherent_state, husimi_values


def factor_moments(state) -> np.ndarray:
    """(n_axes, 4) table of <q>, <q^2>, <p>, <p^2>, p = eps * kappa, one row per
    grid axis of a WaveFunction or a single-particle DensityMatrix (one axis).

    A WaveFunction's momentum marginal on axis a is the sum over the other
    axes of |FFT_a psi|^2 (Parseval), read in slabs of about PAIR_BLOCK
    entries split along another axis.  Each marginal is normalized by its mass.
    """
    grid = state.grid
    coords = (grid.axis_points(), grid.epsilon * grid.wavenumbers())
    if isinstance(state, DensityMatrix):
        if grid.n_axes != 1:
            raise ValueError("factor_moments needs a DensityMatrix on a one-axis grid")
        tilde = sfft.ifft(sfft.fft(state.matrix, axis=0), axis=1)
        marginals = np.real([[state.matrix.diagonal(), tilde.diagonal()]]).clip(0.0, None)
    else:
        values = state.values
        marginals = np.zeros((values.ndim, 2, grid.points_per_axis))
        for a in range(values.ndim):
            rest = tuple(i for i in range(values.ndim) if i != a)
            b = rest[0] if rest else a  # a one-axis state is one slab
            sections = min(values.shape[b], values.size // PAIR_BLOCK) if rest else 1
            for slab in np.array_split(values, max(1, sections), axis=b):
                marginals[a, 0] += np.sum(np.abs(slab) ** 2, axis=rest)
                marginals[a, 1] += np.sum(np.abs(sfft.fft(slab, axis=a)) ** 2, axis=rest)
    return np.array(
        [[c @ m / m.sum() for m, u in zip(row, coords) for c in (u, u**2)] for row in marginals]
    )


def _factored_cost(state: FactoredCoupling) -> float:
    # X factor j's axis c pairs with y's axis j*d + c; columns q, q^2, p, p^2
    x = np.concatenate([factor_moments(f) for f in state.xs])
    y = factor_moments(state.y)
    return float(np.sum(x[:, 1::2] - 2.0 * x[:, ::2] * y[:, ::2] + y[:, 1::2]))


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

    The marginal boxes come from `factor_moments`, and `husimi_values`
    fills each lattice by the route of its state's type.  For n grid
    points, a WaveFunction's moments take one n-point FFT (O(n log n)); a
    DensityMatrix's momentum marginal takes two n x n FFTs (O(n^2 log n)).
    Either way the transport solve, not the Husimi values, dominates the
    cost of the bound.
    """
    for state in (state1, state2):
        if not isinstance(state, (WaveFunction, DensityMatrix)):
            raise TypeError("Husimi lattices need WaveFunction or DensityMatrix states")
        if state.grid.d != 1 or state.grid.n_particles != 1:
            raise ValueError("Husimi lattices need single-particle d = 1 states")
    if abs(state1.grid.epsilon - state2.grid.epsilon) > 1e-12:
        raise ValueError("states have different epsilon")
    eps = state1.grid.epsilon

    # the union of the two mean +- 4.2 sigma boxes, columns q, q^2, p, p^2
    m = np.concatenate([factor_moments(state1), factor_moments(state2)])
    spread = 4.2 * np.sqrt(np.clip(m[:, 1::2] - m[:, ::2] ** 2, 0.0, None))
    (x_lo, p_lo), (x_hi, p_hi) = (m[:, ::2] - spread).min(0), (m[:, ::2] + spread).max(0)

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
    check_matrix_bytes(vec.size, "density matrix")
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
