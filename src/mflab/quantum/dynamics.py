"""Split-step spectral propagators: N-body, Hartree, and the coupled flow.

Conventions: the evolution is i*eps*d_t psi = H psi, so every factor applies
exp(-i*dt*(.)/eps).  Kinetic symbol (eps^2/2)|kappa|^2 acts as the per-axis
Fourier phase exp(-i*dt*eps*kappa^2/2); the N-body potential is
(1/2N) sum_{k != l} V(x_k - x_l) (the k = l constant is dropped -- a global
phase); the Hartree potential is V_rho = V * |psi|^2, recomputed from the
post-kinetic density for the second half step, which keeps Strang order
because the final phase factor does not change the density.
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import fft as sfft

from ..convolution import offset_convolution
from ..potentials import Potential
from .grids import FactoredCoupling, GridSpec, ResourceCapError, WaveFunction, memory_cap_bytes


def _check_kinetic_resolution(grid: GridSpec, dt: float) -> None:
    k_max = np.pi / grid.h
    if dt * grid.epsilon * k_max**2 / 2.0 >= np.pi:
        raise ValueError(
            f"dt = {dt} too large: kinetic phase at the Nyquist mode exceeds pi"
        )


def _apply_kinetic(values: np.ndarray, grid: GridSpec, dt: float) -> np.ndarray:
    kappa = grid.wavenumbers()
    phase = np.exp(-0.5j * dt * grid.epsilon * kappa**2)
    out = sfft.fftn(values)
    for ax in range(grid.n_axes):
        shape = [1] * grid.n_axes
        shape[ax] = kappa.size
        out *= phase.reshape(shape)
    return sfft.ifftn(out, overwrite_x=True)


def _pair_phase_matrix(grid: GridSpec, V: Potential, coef: float) -> np.ndarray:
    """exp(-1j * coef * V(x_a - x_b)) as an (n, n) factor (d = 1)."""
    x = grid.axis_points()
    Vd = V.eval((x[:, None] - x[None, :])[..., None])
    return np.exp(-1j * coef * Vd)


def _multiply_on_axes(values: np.ndarray, factor: np.ndarray, axes: tuple) -> None:
    shape = [1] * values.ndim
    for ax, size in zip(axes, factor.shape):
        shape[ax] = size
    values *= factor.reshape(shape)


def split_step_nbody(psi: WaveFunction, V: Potential, dt: float) -> WaveFunction:
    """One Strang step of the N-body flow (d = 1): half pair-potential phase,
    full kinetic step, half pair-potential phase.  Exactly unitary up to
    round-off."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = psi.grid
    if grid.d != 1:
        raise NotImplementedError("quantum propagators are implemented for d = 1")
    _check_kinetic_resolution(grid, dt)
    N = grid.n_particles
    vals = psi.values.copy()
    if N >= 2 and V.sup_abs > 0.0:
        P = _pair_phase_matrix(grid, V, dt / (2.0 * N * grid.epsilon))
        for a in range(N):
            for b in range(a + 1, N):
                _multiply_on_axes(vals, P, (a, b))
        vals = _apply_kinetic(vals, grid, dt)
        for a in range(N):
            for b in range(a + 1, N):
                _multiply_on_axes(vals, P, (a, b))
    else:
        vals = _apply_kinetic(vals, grid, dt)
    return WaveFunction(grid, vals, psi.time + dt)


def split_step_linear(psi: WaveFunction, potential_values: np.ndarray, dt: float) -> WaveFunction:
    """One Strang step under a fixed potential table W on the state's grid:
    exp(-i dt W/2eps) . kinetic . exp(-i dt W/2eps).

    The frozen-potential building block of every propagator here; its local
    error against the exact flow exp(-i dt H/eps) is O(dt^3)."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = psi.grid
    _check_kinetic_resolution(grid, dt)
    W = np.asarray(potential_values, dtype=float)
    if W.shape != psi.values.shape:
        raise ValueError("potential table must match the grid shape")
    half = np.exp(-0.5j * dt * W / grid.epsilon)
    vals = psi.values * half
    vals = _apply_kinetic(vals, grid, dt)
    vals *= half
    return WaveFunction(grid, vals, psi.time + dt)


def hartree_potential(psi: WaveFunction, V: Potential) -> np.ndarray:
    """V_rho(x) = sum_z V(x - z) |psi(z)|^2 h on the grid, by linear
    convolution (no periodic wrap)."""
    grid = psi.grid
    if grid.n_particles != 1 or grid.d != 1:
        raise ValueError("hartree_potential expects a single-particle d = 1 state")
    return _density_potential(np.abs(psi.values) ** 2 * grid.h, grid, V)


def _density_potential(density: np.ndarray, grid: GridSpec, V: Potential) -> np.ndarray:
    n = grid.points_per_axis
    offsets = (np.arange(2 * n - 1) - (n - 1)) * grid.h
    kernel = V.eval(offsets[:, None])
    return offset_convolution(density, kernel)


def hartree_step(psi: WaveFunction, V: Potential, dt: float) -> WaveFunction:
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = psi.grid
    if grid.n_particles != 1 or grid.d != 1:
        raise ValueError("hartree_step expects a single-particle d = 1 state")
    _check_kinetic_resolution(grid, dt)
    eps = grid.epsilon
    v0 = hartree_potential(psi, V)
    vals = psi.values * np.exp(-0.5j * dt * v0 / eps)
    vals = _apply_kinetic(vals, grid, dt)
    v1 = _density_potential(np.abs(vals) ** 2 * grid.h, grid, V)
    vals *= np.exp(-0.5j * dt * v1 / eps)
    return WaveFunction(grid, vals, psi.time + dt)


def _check_same_axes(a: GridSpec, b: GridSpec) -> None:
    if (a.d, a.points_per_axis, a.box_half_width, a.epsilon) != (
        b.d,
        b.points_per_axis,
        b.box_half_width,
        b.epsilon,
    ):
        raise ValueError("grids do not share axis geometry / epsilon")


def coupled_quantum_advance(
    R_state: WaveFunction, hartree_ref: WaveFunction, V: Potential, dt: float
):
    """One Strang step of the coupled flow on the coupled state as one array;
    returns (R_state, hartree_ref) both advanced.  R_state lives on the
    2N-particle grid GridSpec(d, 2N, ...), X slots first.

    The X block feels the Hartree potential of `hartree_ref` (start-of-step
    density for the first half phase, end-of-step density for the second);
    the Y block feels its own pairwise potential; the kinetic phase acts on
    all 2N axes.  The propagator therefore factorizes exactly as (Hartree
    tensor power on X) x (N-body on Y), which factored_coupled_advance
    exploits.  The package never calls this n^(2N) route: it is the tests'
    oracle for factored_coupled_advance, and it stays here only because
    perfbench/tracing.py binds `experiments.coupled_quantum_advance` by name.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = R_state.grid
    if grid.n_particles % 2:
        raise ValueError("R_state must hold N X slots and N Y slots: an even particle count")
    if grid.d != 1:
        raise NotImplementedError("quantum propagators are implemented for d = 1")
    N = grid.n_particles // 2
    if N * grid.d > 2:
        raise ResourceCapError("coupled systems are limited to N*d <= 2")
    _check_same_axes(grid, hartree_ref.grid)
    _check_kinetic_resolution(grid, dt)

    v_now = hartree_potential(hartree_ref, V)
    ref_next = hartree_step(hartree_ref, V, dt)
    v_next = hartree_potential(ref_next, V)

    vals = R_state.values.copy()
    _apply_coupled_half_potential(vals, grid, V, v_now, dt / 2.0)
    vals = _apply_kinetic(vals, grid, dt)
    _apply_coupled_half_potential(vals, grid, V, v_next, dt / 2.0)
    return WaveFunction(grid, vals, R_state.time + dt), ref_next


def factored_coupled_advance(
    state: FactoredCoupling, hartree_ref: WaveFunction, V: Potential, dt: float
):
    """One Strang step of the coupled flow on a product coupling, factor by
    factor; returns (state, hartree_ref) both advanced.

    Each X factor takes the mean-field phases of `hartree_ref` (start-of-step
    potential, then end-of-step potential) around a kinetic step; the Y factor
    takes split_step_nbody, whose pair coefficient dt/(2N eps) is the one-array
    route's.  No array larger than the Y factor's n^N is formed."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    base = state.xs[0].grid
    _check_same_axes(base, hartree_ref.grid)
    _check_kinetic_resolution(base, dt)
    eps = base.epsilon

    v_now = hartree_potential(hartree_ref, V)
    ref_next = hartree_step(hartree_ref, V, dt)
    v_next = hartree_potential(ref_next, V)

    first = np.exp(-1j * (dt / 2.0) * v_now / eps)
    second = np.exp(-1j * (dt / 2.0) * v_next / eps)
    xs = tuple(
        WaveFunction(base, _apply_kinetic(x.values * first, base, dt) * second, x.time + dt)
        for x in state.xs
    )
    return FactoredCoupling(xs, split_step_nbody(state.y, V, dt)), ref_next


def _apply_coupled_half_potential(
    vals: np.ndarray, grid: GridSpec, V: Potential, v_mf: np.ndarray, dt_half: float
) -> None:
    """Half-step potential phases of the coupled flow on one array, in place:
    mean field on the X axes, pair potential on the Y axes.  Used by the
    oracle route only."""
    N = grid.n_particles // 2
    eps = grid.epsilon
    mf_phase = np.exp(-1j * dt_half * v_mf / eps)
    for k in range(N):
        _multiply_on_axes(vals, mf_phase, (k,))
    if N >= 2 and V.sup_abs > 0.0:
        P = _pair_phase_matrix(grid, V, dt_half / (N * eps))
        for a in range(N):
            for b in range(a + 1, N):
                _multiply_on_axes(vals, P, (N + a, N + b))


def partial_trace(psi: WaveFunction, n: int):
    """Reduced density matrix of the first n particle slots:
    rho^n(x, y) = integral psi(x, z) conj(psi(y, z)) dz."""
    from .grids import DensityMatrix  # local import to avoid cycle at module load

    grid = psi.grid
    d = grid.d
    total = grid.n_axes // d
    if not 1 <= n < total:
        raise ValueError(f"marginal order {n} out of range 1..{total - 1}")
    dim_keep = grid.points_per_axis ** (d * n)
    if 16 * dim_keep * dim_keep > memory_cap_bytes():
        raise ResourceCapError(
            f"reduced matrix needs {16 * dim_keep * dim_keep} bytes > cap"
        )
    A = psi.values.reshape(dim_keep, -1)
    rho = (A @ A.conj().T) * grid.h ** (d * (total - n))
    return DensityMatrix(replace(grid, n_particles=n), rho)
