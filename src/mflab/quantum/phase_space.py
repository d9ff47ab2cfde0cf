"""Phase-space toolkit: coherent states, Toeplitz lifts, Wigner and Husimi
transforms, and the trace identities connecting them.

Symbol measures are plain DiscreteMeasure objects on phase space R^{2dN} with
atom layout (q_1..q_N, p_1..p_N); the measure is the Toeplitz symbol divided
by (2 pi eps)^{dN}, so probability weights lift to trace-one operators.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from ..transport import DiscreteMeasure
from .grids import DensityMatrix, GridSpec, ResourceCapError, WaveFunction, memory_cap_bytes

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

    def to_measure(self, prune: float = 0.0) -> DiscreteMeasure:
        """Nonnegative lattice function as a weighted cloud on R^2 (renormalized)."""
        X, XI = np.meshgrid(self.x_nodes, self.xi_nodes, indexing="ij")
        w = self.values.ravel() * self.dx * self.dxi
        keep = w > prune
        w = w[keep]
        return DiscreteMeasure(
            np.column_stack([X.ravel()[keep], XI.ravel()[keep]]), w / w.sum()
        )


def _check_center_inside(grid: GridSpec, q: np.ndarray, p: np.ndarray) -> None:
    eps = grid.epsilon
    L = grid.box_half_width
    # position tail beyond the box edge, per axis (X ~ N(q, eps/2))
    pos_tail = float(np.sum(erfc((L - np.abs(q)) / np.sqrt(eps))))
    # wavenumber tail beyond the Nyquist edge (K ~ N(p/eps, 1/(2 eps)))
    k_max = np.pi / grid.h
    mom_tail = float(np.sum(erfc((k_max - np.abs(p) / eps) * np.sqrt(eps))))
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
    return out / np.sqrt(np.sum(np.abs(out) ** 2) * grid.h**grid.n_axes)


def coherent_state(grid: GridSpec, q, p) -> WaveFunction:
    """Gaussian coherent state (pi eps)^{-d/4} e^{-(x-q)^2/2eps} e^{ip.x/eps},
    renormalized on the discrete grid.

    Rejects centers whose Gaussian tail outside the box (or outside the
    resolvable wavenumber band) exceeds 1e-12.
    """
    if grid.n_particles != 1 or grid.doubled:
        raise ValueError("coherent_state expects a single-particle grid")
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    if q.shape != (grid.d,) or p.shape != (grid.d,):
        raise ValueError(f"q and p must have shape ({grid.d},)")
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


def coherent_product_state(grid: GridSpec, atom: np.ndarray) -> WaveFunction:
    """Pure product of coherent factors for one symbol atom (q_1..q_N, p_1..p_N)."""
    n_axes = grid.n_axes
    atom = np.asarray(atom, dtype=float)
    if atom.shape != (2 * n_axes,):
        raise ValueError(f"atom must have {2 * n_axes} coordinates")
    centers = np.column_stack([atom[:n_axes], atom[n_axes:]])
    _check_center_inside(grid, centers[:, 0], centers[:, 1])
    return WaveFunction(grid, _coherent_array(grid, centers), 0.0)


def toeplitz_operator(grid: GridSpec, symbol: SymbolMeasure) -> DensityMatrix:
    """Toeplitz lift sum_m w_m |z_m, eps><z_m, eps| as a grid matrix (trace 1)."""
    centers = _split_symbol_atoms(grid, symbol)
    dim = grid.points_per_axis**grid.n_axes
    if 16 * dim * dim > memory_cap_bytes():
        raise ResourceCapError(
            f"Toeplitz matrix needs {16 * dim * dim} bytes > cap {memory_cap_bytes()}"
        )
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


def husimi_values(rho: DensityMatrix, z: np.ndarray) -> np.ndarray:
    """<z, eps| rho |z, eps> / (2 pi eps)^d at phase points z (m, 2d); d = 1.

    |z, eps> is the coherent vector of `coherent_state`, normalized on the
    grid, but it is never built.  On nodes x_i = x_0 + i h,

        (x_i - q)^2 + (x_j - q)^2 = 2 (s_l - q)^2 + (m h)^2 / 2,

    with the midpoint s_l = x_0 + l h / 2 on the half-step grid, l = i + j
    and m = j - i.  Hence, exactly,

        Q(q, p) = h / (2 pi eps N(q)) Re sum_m w_m e^{i p m h / eps} D(q, m),
        D(q, m) = sum_l H[q, l] S[l, m],   H[q, l] = e^{-(s_l - q)^2 / eps},

    where S[l, m] = rho[i, j], w_m = e^{-(m h)^2 / (4 eps)} and
    N(q) = sum_i H[q, 2i] is the squared grid norm of the unnormalized
    vector, up to constant factors.  Folding conj(rho[j, i]) onto rho[i, j] keeps m >= 0 without changing the
    real part (Hermitian or not), and l has the parity of m, so D is one
    real-times-complex matrix product per parity.  D is built once per
    distinct q of z, the phase table once per distinct p; their product is
    gathered back to the points.  Each row of H is scaled by its largest
    entry, which cancels in D / N and keeps far-off q from underflowing.

    Cost for n grid points, n_q distinct positions and n_p distinct momenta:
    O(n_q n^2 + n_q n n_p) multiply-adds and O(n (n_q + n_p)) exponentials.
    On a full n_q x n_p lattice that is n per point plus n^2 per row,
    against n^2 per point for one matrix-vector product each.  Scattered
    points stay exact, but P of them make n_q = n_p = P: P^2 n work and a
    P x P table.
    """
    grid = rho.grid
    if grid.d != 1 or grid.n_particles != 1:
        raise NotImplementedError("Husimi values implemented for d = 1, single particle")
    z = np.atleast_2d(np.asarray(z, dtype=float))
    eps, h, n = grid.epsilon, grid.h, grid.points_per_axis
    qs, iq = np.unique(z[:, 0], return_inverse=True)
    ps, ip = np.unique(z[:, 1], return_inverse=True)
    s = grid.axis_points()[0] + 0.5 * h * np.arange(2 * n - 1)
    d2 = (s[None, :] - qs[:, None]) ** 2
    H = np.exp(-(d2 - d2.min(axis=1, keepdims=True)) / eps)
    # parity r: row a is l = 2a + r, column b is m = 2b + r, so i = a - b and
    # j = a + b + r; entries with i or j off the grid are zero
    D = np.empty((qs.size, n), dtype=complex)
    b = np.arange(n // 2)
    for r in (0, 1):
        a = np.arange(n - r)[:, None]
        i, j = a - b, a + b + r
        on_grid = (i >= 0) & (j < n)
        i, j = np.where(on_grid, i, 0), np.where(on_grid, j, 0)
        S = np.where(on_grid, rho.matrix[i, j] + rho.matrix[j, i].conj(), 0.0)
        D[:, r::2] = (H[:, r::2] @ S.view(float)).view(complex)
    m = np.arange(n)
    w = np.exp(-((m * h) ** 2) / (4 * eps))
    w[0] = 0.5  # the fold counted the diagonal twice
    phases = w[:, None] * np.exp(1j * (h / eps) * np.outer(m, ps))
    norm = H[:, ::2].sum(axis=1)
    table = np.real(D @ phases) * (h / (2 * np.pi * eps)) / norm[:, None]
    return table[iq, ip]


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
    X, XI = np.meshgrid(xs, xis, indexing="ij")
    vals = husimi_values(rho, np.column_stack([X.ravel(), XI.ravel()]))
    return PhaseSpaceFunction(xs, xis, vals.reshape(nx, nxi), eps)


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
    idx = np.arange(n)
    ms = (idx + n // 2) % n - n // 2
    rows = idx[:, None] + ms[None, :]
    cols = idx[:, None] - ms[None, :]
    valid = (rows >= 0) & (rows < n) & (cols >= 0) & (cols < n)
    shear = np.where(valid, rho.matrix[rows.clip(0, n - 1), cols.clip(0, n - 1)], 0.0)
    W = np.real(np.fft.fft(shear, axis=1)) * (grid.h / (np.pi * eps))
    W = np.fft.fftshift(W, axes=1)
    xi = eps * np.pi / (2 * grid.box_half_width) * (np.arange(n) - n // 2)
    return PhaseSpaceFunction(grid.axis_points(), xi, W, eps)


def smooth_wigner_to(
    W: PhaseSpaceFunction, x_nodes: np.ndarray, xi_nodes: np.ndarray
) -> PhaseSpaceFunction:
    """Gaussian smoothing G_{eps/2} * W evaluated on a target lattice.

    The independent cross-check route for the Husimi transform: quadrature of
    the convolution integral with the heat kernel of variance eps/2 per axis.
    """
    eps = W.epsilon
    x_nodes = np.asarray(x_nodes, dtype=float)
    xi_nodes = np.asarray(xi_nodes, dtype=float)
    Gx = np.exp(-((x_nodes[:, None] - W.x_nodes[None, :]) ** 2) / eps) / np.sqrt(
        np.pi * eps
    )
    Gxi = np.exp(-((xi_nodes[:, None] - W.xi_nodes[None, :]) ** 2) / eps) / np.sqrt(
        np.pi * eps
    )
    vals = (Gx * W.dx) @ W.values @ (Gxi * W.dxi).T
    return PhaseSpaceFunction(x_nodes, xi_nodes, vals, eps)


def write_phase_space_csv(f: PhaseSpaceFunction, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "xi", "value"])
        for i, x in enumerate(f.x_nodes):
            for j, xi in enumerate(f.xi_nodes):
                writer.writerow([f"{x:.17g}", f"{xi:.17g}", f"{f.values[i, j]:.17g}"])
