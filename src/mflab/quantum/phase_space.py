"""Phase-space toolkit: coherent states, Toeplitz lifts, Wigner and Husimi
transforms, and the trace identities connecting them.

Symbol measures are plain DiscreteMeasure objects on phase space R^{2dN} with
atom layout (q_1..q_N, p_1..p_N); the measure is the Toeplitz symbol divided
by (2 pi eps)^{dN}, so probability weights lift to trace-one operators.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from ..transport import DiscreteMeasure
from .grids import DensityMatrix, GridSpec, WaveFunction, check_matrix_bytes

#: A Toeplitz symbol: DiscreteMeasure on R^{2dN}, layout (q_1..q_N, p_1..p_N).
SymbolMeasure = DiscreteMeasure

BOUNDARY_TAIL_TOL = 1e-12


@dataclass(frozen=True)
class PhaseSpaceFunction:
    """Real function on a uniform (x, xi) lattice (d = 1)."""

    x_nodes: np.ndarray
    xi_nodes: np.ndarray
    values: np.ndarray
    epsilon: float

    def __post_init__(self):
        x = np.asarray(self.x_nodes, dtype=float)
        xi = np.asarray(self.xi_nodes, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if v.shape != (x.size, xi.size):
            raise ValueError("values must be (len(x_nodes), len(xi_nodes))")
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "xi_nodes", xi)
        object.__setattr__(self, "values", v)

    @property
    def dx(self) -> float:
        return float(self.x_nodes[1] - self.x_nodes[0])

    @property
    def dxi(self) -> float:
        return float(self.xi_nodes[1] - self.xi_nodes[0])

    def integral(self) -> float:
        return float(self.values.sum() * self.dx * self.dxi)


def _check_center_inside(grid: GridSpec, q, p) -> None:
    eps = grid.epsilon
    L = grid.box_half_width
    root = math.sqrt(eps)
    k_max = math.pi / grid.h
    # per axis on Python floats, which overflow to inf silently where numpy
    # would print a warning; erfc is 0 at +inf and 2 at -inf
    # position tail beyond the box edge (X ~ N(q, eps/2))
    pos_tail = sum(float(erfc((L - abs(a)) / root)) for a in np.ravel(q).tolist())
    # wavenumber tail beyond the Nyquist edge (K ~ N(p/eps, 1/(2 eps)))
    mom_tail = sum(float(erfc((k_max - abs(b) / eps) * root)) for b in np.ravel(p).tolist())
    if pos_tail > BOUNDARY_TAIL_TOL or mom_tail > BOUNDARY_TAIL_TOL:
        raise ValueError(
            f"coherent center q={q}, p={p} too near the grid boundary "
            f"(tail mass {max(pos_tail, mom_tail):.3e} > {BOUNDARY_TAIL_TOL})"
        )


def _coherent_axis_values(x: np.ndarray, eps: float, q: float, p: float) -> np.ndarray:
    return (np.pi * eps) ** (-0.25) * np.exp(
        -((x - q) ** 2) / (2.0 * eps) + 1j * p * x / eps
    )


def _coherent_array(grid: GridSpec, centers: np.ndarray) -> np.ndarray:
    """Product coherent array over all axes, normalized on the grid;
    centers is (n_axes, 2) rows (q, p)."""
    x = grid.axis_points()
    out = np.ones((), dtype=complex)
    for q, p in centers:
        out = np.multiply.outer(out, _coherent_axis_values(x, grid.epsilon, q, p))
    return np.divide(out, np.sqrt(np.sum(np.abs(out) ** 2) * grid.h**grid.n_axes), out=out)


def coherent_state(grid: GridSpec, q, p) -> WaveFunction:
    """Product of Gaussian coherent factors, one per grid axis:
    (pi eps)^{-1/4} e^{-(x-q_a)^2/2eps} e^{ip_a x/eps} on axis a, renormalized
    on the discrete grid.  q and p hold one coordinate per axis (scalars on
    a one-axis grid).  A coupled state of two N-particle systems is a state
    on a 2N-particle grid, X slots first.

    Rejects centers whose Gaussian tail outside the box (or outside the
    resolvable wavenumber band) exceeds 1e-12.
    """
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if q.shape != (grid.n_axes,) or p.shape != (grid.n_axes,):
        raise ValueError(f"q and p must have shape ({grid.n_axes},), one entry per axis")
    _check_center_inside(grid, q, p)
    return WaveFunction(grid, _coherent_array(grid, np.column_stack([q, p])), 0.0)


def _split_symbol_atoms(grid: GridSpec, symbol: SymbolMeasure) -> np.ndarray:
    """Symbol atoms (m, 2dN) -> per-axis centers (m, dN, 2) as (q, p) rows."""
    n_axes = grid.n_axes
    if symbol.k != 2 * n_axes:
        raise ValueError(
            f"symbol lives on R^{symbol.k}, expected R^{2 * n_axes} for this grid"
        )
    qs = symbol.points[:, :n_axes]
    ps = symbol.points[:, n_axes:]
    return np.stack([qs, ps], axis=-1)


def toeplitz_operator(grid: GridSpec, symbol: SymbolMeasure) -> DensityMatrix:
    """Toeplitz lift sum_m w_m |z_m, eps><z_m, eps| as a grid matrix (trace 1)."""
    centers = _split_symbol_atoms(grid, symbol)
    check_matrix_bytes(grid.points_per_axis**grid.n_axes, "Toeplitz matrix")
    for atom_centers in centers:
        _check_center_inside(grid, atom_centers[:, 0], atom_centers[:, 1])
    # one row per atom: sum_m w_m phi_m phi_m^* is a single weighted product
    Phi = np.stack([_coherent_array(grid, atom_centers).ravel() for atom_centers in centers])
    return DensityMatrix(grid, (Phi.T * symbol.weights) @ Phi.conj())


def toeplitz_trace_against(symbol: SymbolMeasure, rho: DensityMatrix) -> float:
    """trace(OP_T(symbol) rho) evaluated atom-by-atom as sum w_m <z_m|rho|z_m>.

    Independent of the matrix-assembly route in toeplitz_operator; the pair is
    the two sides of the Toeplitz trace identity.
    """
    grid = rho.grid
    centers = _split_symbol_atoms(grid, symbol)
    quad = grid.h**grid.n_axes
    total = 0.0
    for w, atom_centers in zip(symbol.weights, centers):
        phi = _coherent_array(grid, atom_centers).ravel()
        total += w * float(np.real(phi.conj() @ (rho.matrix @ phi))) * quad * quad
    return total


def _folded_diagonals(matrix: np.ndarray, r: int) -> np.ndarray:
    """`husimi_values`' S for the parity r of l = i + j: row a is l = 2a + r
    and column b is m = j - i = 2b + r, so S[a, b] = matrix[i, j] +
    conj(matrix[j, i]) at i = a - b, j = a + b + r, and zero where i or j is
    off the grid.  Column b is thus the folded m-th diagonal, from row b on."""
    n = matrix.shape[0]
    S = np.zeros((n - r, n // 2), dtype=complex)
    for b in range(n // 2):
        m = 2 * b + r
        S[b : b + n - m, b] = matrix.diagonal(m) + matrix.diagonal(-m).conj()
    return S


def husimi_values(state, qs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """<z, eps| rho |z, eps> / (2 pi eps)^d on the lattice z = (q, p), q in
    qs, p in ps, as the (len(qs), len(ps)) table; d = 1, for a DensityMatrix
    rho or a WaveFunction psi, rho = |psi><psi|.

    |z, eps> is the coherent vector of `coherent_state`, normalized on the
    grid, but it is never built.  A WaveFunction's table comes from
    `_bargmann_table`; for a DensityMatrix, on nodes x_i = x_0 + i h,

        (x_i - q)^2 + (x_j - q)^2 = 2 (s_l - q)^2 + (m h)^2 / 2,

    with the midpoint s_l = x_0 + l h / 2 on the half-step grid, l = i + j
    and m = j - i.  Hence, exactly,

        Q(q, p) = h / (2 pi eps N(q)) Re sum_m w_m e^{i p m h / eps} D(q, m),
        D(q, m) = sum_l H[q, l] S[l, m],   H[q, l] = e^{-(s_l - q)^2 / eps},

    where S[l, m] = rho[i, j], w_m = e^{-(m h)^2 / (4 eps)} and
    N(q) = sum_i H[q, 2i] is the squared grid norm of the unnormalized
    vector, up to constant factors.  Folding conj(rho[j, i]) onto rho[i, j]
    keeps m >= 0 without changing the real part (Hermitian or not), and l
    has the parity of m, so D is one real-times-complex matrix product per
    parity.  Each row of H is scaled by its largest entry, which cancels in
    D / N and keeps far-off q from underflowing.

    Cost for n grid points, n_q positions and n_p momenta: O(n_q n^2 +
    n_q n n_p) multiply-adds for a DensityMatrix, O(n_q n n_p) for a
    WaveFunction, and O(n (n_q + n_p)) exponentials: n per lattice point
    plus n^2 per row for a matrix, against n^2 per point for one
    matrix-vector product each.
    """
    grid = state.grid
    if grid.d != 1 or grid.n_particles != 1:
        raise NotImplementedError("Husimi values implemented for d = 1, single particle")
    qs = np.asarray(qs, dtype=float)
    ps = np.asarray(ps, dtype=float)
    eps, h, n = grid.epsilon, grid.h, grid.points_per_axis
    if isinstance(state, WaveFunction):
        return _bargmann_table(state, qs, ps)
    s = grid.axis_points()[0] + 0.5 * h * np.arange(2 * n - 1)
    d2 = (s[None, :] - qs[:, None]) ** 2
    H = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / eps)
    del d2  # as large as H: free it before the products below
    D = np.empty((qs.size, n), dtype=complex)
    for r in (0, 1):
        D[:, r::2] = (H[:, r::2] @ _folded_diagonals(state.matrix, r).view(float)).view(complex)
    m = np.arange(n)
    w = np.exp(-((m * h) ** 2) / (4 * eps))
    w[0] = 0.5  # the fold counted the diagonal twice
    phases = w[:, None] * np.exp(1j * (h / eps) * np.outer(m, ps))
    norm = H[:, ::2].sum(axis=1)
    return np.real(D @ phases) * (h / (2 * np.pi * eps)) / norm[:, None]


def _bargmann_table(psi: WaveFunction, qs: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """`husimi_values` of a pure state on the lattice qs x ps, as
    |h sum_x conj(phi_{q,p}(x)) psi(x)|^2 / (2 pi eps): the amplitudes are
    one (n_q x n) (n x n_p) product.  Each Gaussian row is scaled by its
    largest entry, which cancels against the row's grid norm and keeps q
    far off the grid from underflowing."""
    grid = psi.grid
    eps, x = grid.epsilon, grid.axis_points()
    d2 = (x[None, :] - qs[:, None]) ** 2
    G = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / (2.0 * eps))
    amp = (G * psi.values) @ np.exp(-1j / eps * np.outer(x, ps))
    scale = grid.h / (2 * np.pi * eps) / np.sum(G**2, axis=1)
    return (amp.real**2 + amp.imag**2) * scale[:, None]


def husimi_transform(
    rho: DensityMatrix,
    nx: int | None = None,
    nxi: int | None = None,
    x_window: tuple | None = None,
    xi_window: tuple | None = None,
) -> PhaseSpaceFunction:
    """Husimi function on a uniform lattice, by coherent expectations
    (`husimi_values`, a few matrix products for the whole lattice).

    The values are diagonal expectations of a PSD operator, so they are
    nonnegative in exact arithmetic and down to round-off (about 1e-16 of
    the peak) in floating point.  The default lattice covers half the box in
    x and half the resolvable momentum band in xi, enough for
    guard-band-respecting states.
    """
    grid = rho.grid
    L = grid.box_half_width
    eps = grid.epsilon
    n = grid.points_per_axis
    nx = nx or min(n, 96)
    nxi = nxi or min(n, 96)
    xi_max = eps * np.pi / (2 * grid.h)
    x_lo, x_hi = x_window if x_window else (-L / 2, L / 2)
    xi_lo, xi_hi = xi_window if xi_window else (-xi_max, xi_max)
    xs = np.linspace(x_lo, x_hi, nx)
    xis = np.linspace(xi_lo, xi_hi, nxi)
    return PhaseSpaceFunction(xs, xis, husimi_values(rho, xs, xis), eps)


def _wigner_shear(matrix: np.ndarray) -> np.ndarray:
    """shear[j, k] = matrix[j + m, j - m] for the signed offset m of column k
    in FFT order, and zero where j + m or j - m is off the grid: column k is
    the (-2m)-th diagonal, from row |m| on."""
    n = matrix.shape[0]
    shear = np.zeros((n, n), dtype=complex)
    for k in range(n):
        m = (k + n // 2) % n - n // 2
        shear[abs(m) : n - abs(m), k] = matrix.diagonal(-2 * m)
    return shear


def wigner_transform(rho: DensityMatrix) -> PhaseSpaceFunction:
    """Wigner function by the even-shear sampling rule (d = 1).

    W(x_j, xi_k) = (h / (pi eps)) sum_m e^{-2 pi i k m / n} rho[j+m, j-m],
    with the offset m signed (FFT ordering) and samples falling outside the
    box set to zero.  Wrapping the offsets periodically instead would plant a
    (-1)^k replica of the state half a period away; zero padding keeps the
    truncation error exponentially small under the guard band.  The xi
    spacing is eps*pi/(2L), no interpolation enters, and the k-sum touches
    only the m = 0 diagonal, so the function still sums to the trace exactly.
    """
    grid = rho.grid
    if grid.d != 1 or grid.n_particles != 1:
        raise NotImplementedError("Wigner transform implemented for d = 1, single particle")
    n = grid.points_per_axis
    eps = grid.epsilon
    W = np.real(np.fft.fft(_wigner_shear(rho.matrix), axis=1)) * (grid.h / (np.pi * eps))
    W = np.fft.fftshift(W, axes=1)
    xi = eps * np.pi / (2 * grid.box_half_width) * (np.arange(n) - n // 2)
    return PhaseSpaceFunction(grid.axis_points(), xi, W, eps)
