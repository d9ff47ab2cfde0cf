"""Split-step spectral propagators: N-body, Hartree, and the coupled flow.

Conventions: the evolution is i*eps*d_t psi = H psi, so every factor applies
exp(-i*dt*(.)/eps).  Every propagator is one `_strang_step` (half potential
phase, kinetic step, half potential phase; Lubich, Math. Comp. 77 (2008) for
Hartree), which alone checks dt and alone copies the state: each propagator
supplies only its phases, which, like the FFTs, work in place on that copy.
Kinetic symbol (eps^2/2)|kappa|^2 acts as the per-axis Fourier phase
exp(-i*dt*eps*kappa^2/2); the N-body potential is (1/2N) sum_{k != l}
V(x_k - x_l) (the k = l constant is dropped -- a global phase); the Hartree
potential is V_rho = V * |psi|^2, recomputed from the post-kinetic density
for the second half step, which keeps Strang order because the final phase
factor does not change the density.  The coupled flow runs the tensor power
of one Hartree solution on X and the N-body flow on Y, so a run steps every
(weight, FactoredCoupling) component of its coupling under one shared
reference (factored_coupled_advance).  The advances reuse what they hold:
the Hartree step starts from the potential the previous step ended on
(_hartree_step_from), and the N-body step builds its n x n pair factor once
for every Y factor of a call (_nbody_step).
"""
from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import fft as sfft

from ..convolution import kernel_table
from ..potentials import Potential
from .grids import DensityMatrix, FactoredCoupling, GridSpec, ResourceCapError, WaveFunction
from .grids import check_matrix_bytes


def _check_kinetic_resolution(grid: GridSpec, dt: float) -> None:
    k_max = np.pi / grid.h
    if dt * grid.epsilon * k_max**2 / 2.0 >= np.pi:
        raise ValueError(
            f"dt = {dt} too large: kinetic phase at the Nyquist mode exceeds pi"
        )


def _apply_kinetic(values: np.ndarray, grid: GridSpec, dt: float) -> np.ndarray:
    kappa = grid.wavenumbers()
    phase = np.exp(-0.5j * dt * grid.epsilon * kappa**2)
    out = sfft.fftn(values, overwrite_x=True)
    for ax in range(grid.n_axes):
        _multiply_on_axes(out, phase, (ax,))
    return sfft.ifftn(out, overwrite_x=True)


def _strang_step(psi: WaveFunction, dt: float, first, second) -> WaveFunction:
    """second(kinetic(first(copy of psi.values))) at time psi.time + dt.
    The copy is the step's one working array: both phases and both FFTs
    work in place on it, and psi's values are left as they are."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    grid = psi.grid
    _check_kinetic_resolution(grid, dt)
    vals = _apply_kinetic(first(psi.values.copy()), grid, dt)
    return WaveFunction(grid, second(vals), psi.time + dt)


def _times(factor: np.ndarray):
    return lambda values: np.multiply(values, factor, out=values)


def _multiply_on_axes(values: np.ndarray, factor: np.ndarray, axes: tuple) -> None:
    shape = [1] * values.ndim
    for ax, size in zip(axes, factor.shape):
        shape[ax] = size
    values *= factor.reshape(shape)


def _pair_phases(grid: GridSpec, V: Potential, dt: float, axes: range):
    """In-place half pair-potential phase exp(-i dt V(x_a - x_b) / (2 N eps))
    on every pair a < b of `axes` (d = 1), N = len(axes); the identity when
    there is no pair or V vanishes.  The n x n factor is built here, once,
    for every array the returned function is applied to."""
    N = len(axes)
    if N < 2 or not V.sup_abs > 0.0:
        return lambda values: values
    coef = dt / (2.0 * N * grid.epsilon)
    x = grid.axis_points()
    P = np.exp(-1j * coef * V.eval((x[:, None] - x[None, :])[..., None]))

    def apply(values):
        for i, a in enumerate(axes):
            for b in axes[i + 1 :]:
                _multiply_on_axes(values, P, (a, b))
        return values

    return apply


def _nbody_step(grid: GridSpec, V: Potential, dt: float):
    """One Strang step of the N-body flow on `grid` (d = 1), as a function
    of the state, with half pair-potential phases whose factor is built
    once for every state it steps."""
    if grid.d != 1:
        raise NotImplementedError("quantum propagators are implemented for d = 1")
    pairs = _pair_phases(grid, V, dt, range(grid.n_particles))
    return lambda psi: _strang_step(psi, dt, pairs, pairs)


def split_step_linear(psi: WaveFunction, potential_values: np.ndarray, dt: float) -> WaveFunction:
    """One Strang step under a fixed potential table W on the state's grid:
    exp(-i dt W/2eps) . kinetic . exp(-i dt W/2eps).

    The frozen-potential building block of every propagator here; its local
    error against the exact flow exp(-i dt H/eps) is O(dt^3)."""
    W = np.asarray(potential_values, dtype=float)
    if W.shape != psi.values.shape:
        raise ValueError("potential table must match the grid shape")
    half = np.exp(-0.5j * dt * W / psi.grid.epsilon)
    return _strang_step(psi, dt, _times(half), _times(half))


def hartree_potential(psi: WaveFunction, V: Potential) -> np.ndarray:
    """V_rho(x) = sum_z V(x - z) |psi(z)|^2 h on the grid, by linear
    convolution (no periodic wrap)."""
    grid = psi.grid
    if grid.n_particles != 1 or grid.d != 1:
        raise ValueError("hartree_potential expects a single-particle d = 1 state")
    return _density_potential(np.abs(psi.values) ** 2 * grid.h, grid, V)


def _density_potential(density: np.ndarray, grid: GridSpec, V: Potential) -> np.ndarray:
    return kernel_table(density, lambda z: V.eval(z[:, None]), grid.h)


def _hartree_step_from(psi: WaveFunction, V: Potential, dt: float, v0: np.ndarray):
    """One Strang step of the Hartree flow from v0, the potential of psi's
    density: the first half phase takes v0, the second the potential of
    the post-kinetic density."""
    grid = psi.grid
    eps = grid.epsilon

    def second(vals):
        v1 = _density_potential(np.abs(vals) ** 2 * grid.h, grid, V)
        vals *= np.exp(-0.5j * dt * v1 / eps)
        return vals

    return _strang_step(psi, dt, _times(np.exp(-0.5j * dt * v0 / eps)), second)


def hartree_step(psi: WaveFunction, V: Potential, dt: float) -> WaveFunction:
    """One Strang step of the Hartree flow: the first half phase takes the
    potential of psi's density, the second that of the post-kinetic one."""
    return _hartree_step_from(psi, V, dt, hartree_potential(psi, V))


def coupled_quantum_advance(
    R_state: WaveFunction, hartree_ref: WaveFunction, V: Potential, dt: float
):
    """One Strang step of the coupled flow on the coupled state as one array
    on GridSpec(d, 2N, ...), X slots first; returns (R_state, hartree_ref)
    both advanced.  The X axes take the mean-field phases of `hartree_ref`
    (start-of-step, then end-of-step density), the Y axes their pair phases,
    so the step factorizes exactly as (Hartree tensor power on X) x (N-body
    on Y).

    The package never calls this n^(2N) route: it is the tests' oracle for
    factored_coupled_advance, and it stays here only because
    perfbench/tracing.py binds `experiments.coupled_quantum_advance` by name.
    """
    grid = R_state.grid
    if grid.n_particles % 2:
        raise ValueError("R_state must hold N X slots and N Y slots: an even particle count")
    if grid.d != 1:
        raise NotImplementedError("quantum propagators are implemented for d = 1")
    N = grid.n_particles // 2
    if N * grid.d > 2:
        raise ResourceCapError("coupled systems are limited to N*d <= 2")
    if hartree_ref.grid != replace(grid, n_particles=1):
        raise ValueError("hartree_ref must be a single-particle state on R_state's axes")
    eps = grid.epsilon
    pairs = _pair_phases(grid, V, dt, range(N, 2 * N))

    def phases(vals, v_mf):
        mf_phase = np.exp(-1j * (dt / 2.0) * v_mf / eps)
        for k in range(N):
            _multiply_on_axes(vals, mf_phase, (k,))
        return pairs(vals)

    v_now = hartree_potential(hartree_ref, V)
    ref_next = _hartree_step_from(hartree_ref, V, dt, v_now)
    v_next = hartree_potential(ref_next, V)
    first, second = lambda vals: phases(vals, v_now), lambda vals: phases(vals, v_next)
    return _strang_step(R_state, dt, first, second), ref_next


def factored_coupled_advance(
    coupling, hartree_ref: WaveFunction, V: Potential, dt: float, n_steps: int
):
    """n_steps Strang steps of the coupled flow, factor by factor, under one
    Hartree reference.  `coupling` is a list of (weight, FactoredCoupling),
    as qp_cost_trace takes; returns it and the reference, both advanced.

    The reference takes the Hartree step from the potential the advance
    holds; every X factor takes its mean-field phases (start-of-step, then
    end-of-step potential); every Y factor takes the N-body step, whose pair
    factor is built once per call, so the Y factors must share one grid.  A
    step's end potential starts the next, so n >= 1 steps evaluate
    `_density_potential` 2n + 1 times whatever the component count, and 0
    steps evaluate nothing.  No array larger than a Y factor's n^N is formed."""
    coupling = list(coupling)
    if any(x.grid != hartree_ref.grid for _, state in coupling for x in state.xs):
        raise ValueError("X factors must be single-particle states on hartree_ref's grid")
    y_grids = {state.y.grid for _, state in coupling}
    if len(y_grids) > 1:
        raise ValueError("Y factors must share one grid: one particle count, one pair factor")
    eps = hartree_ref.grid.epsilon
    if n_steps > 0:
        v_now = hartree_potential(hartree_ref, V)
        y_step = _nbody_step(*y_grids, V, dt) if y_grids else None
    for _ in range(n_steps):
        hartree_ref = _hartree_step_from(hartree_ref, V, dt, v_now)
        v_next = hartree_potential(hartree_ref, V)
        first = _times(np.exp(-1j * (dt / 2.0) * v_now / eps))
        second = _times(np.exp(-1j * (dt / 2.0) * v_next / eps))
        for i, (w, state) in enumerate(coupling):
            xs = [_strang_step(x, dt, first, second) for x in state.xs]
            coupling[i] = (w, FactoredCoupling(xs, y_step(state.y)))
        v_now = v_next
    return coupling, hartree_ref


def partial_trace(psi: WaveFunction, n: int):
    """Reduced density matrix of the first n particle slots:
    rho^n(x, y) = integral psi(x, z) conj(psi(y, z)) dz."""
    grid = psi.grid
    d = grid.d
    total = grid.n_axes // d
    if not 1 <= n < total:
        raise ValueError(f"marginal order {n} out of range 1..{total - 1}")
    dim_keep = grid.points_per_axis ** (d * n)
    check_matrix_bytes(dim_keep, "reduced matrix")
    A = psi.values.reshape(dim_keep, -1)
    rho = (A @ A.conj().T) * grid.h ** (d * (total - n))
    return DensityMatrix(replace(grid, n_particles=n), rho)
