"""Spectral-grid state containers, memory caps, and the binary checkpoint.

All quantum objects live on periodic uniform grids x_j = -L + j*h, h = 2L/n,
with a guard band: states are required to keep mass >= 1 - 1e-10 inside half
the box, so the periodic wrap never sees appreciable amplitude.  Wavefunction
values are continuum-normalized (sum |psi|^2 h^axes = 1), density matrices are
continuum kernels (trace = h^axes * sum of the diagonal).
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import dataclass, replace

import numpy as np

from ..errors import ResourceCapError

MAGIC = b"MFLABST1"
DEFAULT_MEMORY_CAP = 2 * 1024**3
MEMORY_CAP_ENV = "MFLAB_MEMORY_CAP_BYTES"
GUARD_BAND_TOL = 1e-10


class GuardBandError(RuntimeError):
    """A state leaked more than the allowed mass outside half the box."""


def memory_cap_bytes() -> int:
    raw = os.environ.get(MEMORY_CAP_ENV)
    if raw is None:
        return DEFAULT_MEMORY_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap <= 0:
        raise ValueError(f"{MEMORY_CAP_ENV}: {raw!r} must be a positive byte count")
    return cap


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a periodic spectral grid.

    `doubled` marks coupled two-copy systems (X_N, Y_N), which square the
    state size.  The semiclassical parameter epsilon rides along because every
    transform and propagator needs it.
    """

    d: int
    n_particles: int
    points_per_axis: int
    box_half_width: float
    epsilon: float
    doubled: bool = False

    def __post_init__(self):
        n = self.points_per_axis
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError("points_per_axis must be a power of two >= 2")
        if self.d < 1 or self.n_particles < 1:
            raise ValueError("d and n_particles must be positive")
        if self.box_half_width <= 0 or self.epsilon <= 0:
            raise ValueError("box_half_width and epsilon must be positive")
        if self.state_bytes() > memory_cap_bytes():
            raise ResourceCapError(
                f"grid needs {self.state_bytes()} bytes "
                f"(16*{n}^{self.n_axes}) > cap {memory_cap_bytes()}"
            )

    @property
    def n_axes(self) -> int:
        return self.d * self.n_particles * (2 if self.doubled else 1)

    @property
    def h(self) -> float:
        return 2.0 * self.box_half_width / self.points_per_axis

    def state_bytes(self) -> int:
        return 16 * self.points_per_axis**self.n_axes

    def axis_points(self) -> np.ndarray:
        n = self.points_per_axis
        return -self.box_half_width + self.h * np.arange(n)

    def wavenumbers(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.points_per_axis, d=self.h)

    def shape(self) -> tuple:
        return (self.points_per_axis,) * self.n_axes


@dataclass(frozen=True)
class WaveFunction:
    grid: GridSpec
    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex)
        if v.shape != self.grid.shape():
            raise ValueError(f"values shape {v.shape} != grid shape {self.grid.shape()}")
        object.__setattr__(self, "values", v)
        nrm = self.norm()
        if abs(nrm - 1.0) > 1e-6:
            raise ValueError(f"wavefunction norm {nrm} is not 1")

    def norm(self) -> float:
        quad = self.grid.h**self.grid.n_axes
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * quad))


@dataclass(frozen=True)
class FactoredCoupling:
    """Pure coupling state x_1 (x) ... (x) x_N (x) y of two N-particle
    systems, held as its factors: N single-particle X factors and one
    N-particle Y factor.  It is the only coupling state the package builds,
    evolves, measures and reduces.

    The coupled flow keeps a product a product (see factored_coupled_advance),
    so the n^(2N) doubled-grid array is only built on request by `doubled()`,
    which checkpoints write.  Slots count X factors first, then y's particles.
    """

    xs: tuple
    y: WaveFunction

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(self.xs))
        yg = self.y.grid
        if yg.doubled or yg.n_particles != len(self.xs):
            raise ValueError("y must be a plain grid with one particle per X factor")
        if any(x.grid != replace(yg, n_particles=1) for x in self.xs):
            raise ValueError("X factors must be single-particle states on y's axes")

    @property
    def factors(self) -> tuple:
        return (*self.xs, self.y)

    def norm(self) -> float:
        return math.prod(f.norm() for f in self.factors)

    def guard_band_mass(self) -> float:
        """guard_band_mass of the doubled state: the product of the factors'."""
        return math.prod(guard_band_mass(f) for f in self.factors)

    def check_guard_band(self) -> float:
        return _require_guard_band(self.guard_band_mass())

    def doubled(self) -> WaveFunction:
        """The doubled-grid state as one array (16 n^(2dN) bytes)."""
        values = np.ones((), dtype=complex)
        for f in self.factors:
            values = np.multiply.outer(values, f.values)
        return WaveFunction(replace(self.y.grid, doubled=True), values, self.y.time)


@dataclass(frozen=True)
class DensityMatrix:
    """Continuum kernel rho(x, y) on the flattened grid (single- or
    few-particle reduced objects only)."""

    grid: GridSpec
    matrix: np.ndarray

    def __post_init__(self):
        m = np.ascontiguousarray(self.matrix, dtype=complex)
        dim = self.grid.points_per_axis**self.grid.n_axes
        if m.shape != (dim, dim):
            raise ValueError(f"matrix shape {m.shape} != ({dim}, {dim})")
        scale = max(float(np.max(np.abs(m))), 1e-300)
        if float(np.max(np.abs(m - m.conj().T))) > 1e-10 * scale:
            raise ValueError("density matrix is not Hermitian")
        object.__setattr__(self, "matrix", m)
        tr = self.trace()
        if abs(tr - 1.0) > 1e-8:
            raise ValueError(f"density matrix trace {tr} is not 1")

    @property
    def quad_weight(self) -> float:
        return self.grid.h**self.grid.n_axes

    def trace(self) -> float:
        return float(np.real(np.trace(self.matrix)) * self.quad_weight)

    def rayleigh_psd_check(self, n_vectors: int = 16, seed: int = 0) -> float:
        """Smallest Rayleigh quotient over random vectors; spot check for
        positive semidefiniteness (>= -1e-8 expected)."""
        rng = np.random.default_rng(seed)
        dim = self.matrix.shape[0]
        worst = np.inf
        for _ in range(n_vectors):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            v /= np.linalg.norm(v)
            worst = min(worst, float(np.real(v.conj() @ (self.matrix @ v))))
        return worst * self.quad_weight


def trace_product(a: DensityMatrix, b: DensityMatrix) -> float:
    """Continuum trace(A B) of two kernels on the same grid."""
    if a.grid != b.grid:
        raise ValueError("operators live on different grids")
    return float(np.real(np.trace(a.matrix @ b.matrix))) * a.quad_weight**2


def guard_band_mass(psi: WaveFunction) -> float:
    """Mass inside the region where every coordinate satisfies |x| <= L/2."""
    grid = psi.grid
    inside_axis = np.abs(grid.axis_points()) <= grid.box_half_width / 2.0
    prob = np.abs(psi.values) ** 2
    for ax in range(grid.n_axes):
        shape = [1] * grid.n_axes
        shape[ax] = grid.points_per_axis
        prob = prob * inside_axis.reshape(shape)
    return float(prob.sum() * grid.h**grid.n_axes)


def check_guard_band(psi: WaveFunction) -> float:
    return _require_guard_band(guard_band_mass(psi))


def _require_guard_band(mass: float) -> float:
    if mass < 1.0 - GUARD_BAND_TOL:
        raise GuardBandError(
            f"guard band tripped: mass inside half box = {mass:.15f} < 1 - {GUARD_BAND_TOL}"
        )
    return mass


# ---------------------------------------------------------------------------
# binary checkpoint container: MAGIC | uint64 LE header length | JSON header
# (utf-8) | raw payload, little-endian complex, C order (slowest axis first).


def save_state(path, psi: WaveFunction, dtype: str = "complex128") -> None:
    np_dtype = {"complex128": "<c16", "complex64": "<c8"}.get(dtype)
    if np_dtype is None:
        raise ValueError("dtype must be complex128 or complex64")
    g = psi.grid
    header = {
        "kind": "wavefunction",
        "dtype": np_dtype,
        "shape": list(psi.values.shape),
        "order": "C",
        "axis_order": "row-major, slowest axis first: x_1 .. x_{dN}"
        + (" then y_1 .. y_{dN}" if g.doubled else ""),
        "grid": {
            "d": g.d,
            "n_particles": g.n_particles,
            "points_per_axis": g.points_per_axis,
            "box_half_width": g.box_half_width,
            "epsilon": g.epsilon,
            "doubled": g.doubled,
        },
        "time": psi.time,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        fh.write(np.ascontiguousarray(psi.values).astype(np_dtype).tobytes(order="C"))


def load_state(path) -> WaveFunction:
    with open(path, "rb") as fh:
        if fh.read(8) != MAGIC:
            raise ValueError("not an mflab state container")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payload = fh.read()
    values = np.frombuffer(payload, dtype=header["dtype"]).reshape(header["shape"])
    grid = GridSpec(**header["grid"])
    return WaveFunction(grid, values.astype(complex), header["time"])
