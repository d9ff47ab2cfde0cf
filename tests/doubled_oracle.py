"""Doubled-grid oracle for the factored coupling routes.

The package holds a coupling of two N-particle states as a FactoredCoupling
and never builds the n^(2dN) doubled-grid array it stands for.  This module
keeps that array's brute-force routes, at test sizes only: the trace cost
read off joint densities (pure state and density matrix), the Toeplitz lift
of a coupling symbol as one doubled array per atom, and the particle-slot
relabeling behind the reduced densities.  The doubled-grid propagator stays
in the package as `mflab.quantum.dynamics.coupled_quantum_advance`.
"""
from dataclasses import replace

import numpy as np
from scipy import fft as sfft

from mflab.quantum.dynamics import partial_trace
from mflab.quantum.grids import DensityMatrix, GridSpec, WaveFunction
from mflab.quantum.phase_space import SymbolMeasure, coherent_product_state


def doubled(base: GridSpec, n_particles: int) -> GridSpec:
    """Grid of the coupled (X_N, Y_N) system on `base`'s axes."""
    return replace(base, n_particles=n_particles, doubled=True)


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


def cost(R) -> float:
    """trace((Q*Q + P*P) R) of a doubled-grid WaveFunction, a DensityMatrix,
    or a list of (weight, WaveFunction)."""
    if isinstance(R, WaveFunction):
        return _pure_cost(R)
    if isinstance(R, DensityMatrix):
        return _matrix_cost(R)
    return sum(w * _pure_cost(psi) for w, psi in R)


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


def permute_particles(psi: WaveFunction, perm) -> WaveFunction:
    """Relabel particle slots (doubled states expose 2N slots, X block first)."""
    grid = psi.grid
    d = grid.d
    total = grid.n_axes // d
    perm = list(perm)
    if sorted(perm) != list(range(total)):
        raise ValueError(f"perm must be a permutation of 0..{total - 1}")
    axes = []
    for slot in perm:
        axes.extend(range(slot * d, slot * d + d))
    return WaveFunction(grid, np.ascontiguousarray(np.transpose(psi.values, axes)), psi.time)


def reduced_density(components, keep_slots) -> DensityMatrix:
    """Reduced density matrix of the named slots of a doubled-grid
    WaveFunction or a list of (weight, WaveFunction); slots count across both
    blocks (X block first)."""
    if isinstance(components, WaveFunction):
        components = [(1.0, components)]
    keep = list(keep_slots)
    acc = None
    for w, psi in components:
        total = psi.grid.n_axes // psi.grid.d
        rest = [s for s in range(total) if s not in keep]
        block = partial_trace(permute_particles(psi, keep + rest), len(keep))
        acc = w * block.matrix if acc is None else acc + w * block.matrix
    return DensityMatrix(block.grid, acc)
