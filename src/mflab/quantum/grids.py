"""Spectral-grid state containers, memory caps, and the binary checkpoint.

All quantum objects live on periodic uniform grids x_j = -L + j*h, h = 2L/n,
with a guard band: states are required to keep mass >= 1 - 1e-10 inside half
the box, so the periodic wrap never sees appreciable amplitude.  Wavefunction
values are continuum-normalized (sum |psi|^2 h^axes = 1), density matrices are
continuum kernels (trace = h^axes * sum of the diagonal).

A coupling of two N-particle systems is a list of (weight, FactoredCoupling)
pairs; each product is held as its factors, and the array it stands for, a
state on a 2N-particle grid, X slots first, is never built.
"""
from __future__ import annotations

import json
import math
import os
import struct
from dataclasses import asdict, dataclass, replace

import numpy as np

from ..errors import ResourceCapError
from ..potentials import PAIR_BLOCK

MAGIC = b"MFLABST2"
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


def check_matrix_bytes(dim: int, what: str) -> None:
    """Raise ResourceCapError, before it is allocated, if `what`, a dim x dim
    complex matrix, is over the memory cap."""
    need, cap = 16 * dim * dim, memory_cap_bytes()
    if need > cap:
        raise ResourceCapError(f"{what} needs {need} bytes > cap {cap}")


@dataclass(frozen=True)
class GridSpec:
    """Geometry of a periodic spectral grid of n_particles particles in d
    dimensions.  The semiclassical parameter epsilon rides along because
    every transform and propagator needs it.
    """

    d: int
    n_particles: int
    points_per_axis: int
    box_half_width: float
    epsilon: float

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
        return self.d * self.n_particles

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
    N-particle Y factor.  A coupling is a list of (weight, FactoredCoupling)
    pairs, one pair for a product; it is the only coupling the package
    builds, evolves, measures and reduces.

    The coupled flow keeps a product a product (see factored_coupled_advance,
    which advances a coupling under one Hartree reference), so the n^(2N)
    array on the 2N-particle grid is never built; checkpoints save the
    factors.  Slots count X factors first, then y's particles.
    """

    xs: tuple
    y: WaveFunction

    def __post_init__(self):
        object.__setattr__(self, "xs", tuple(self.xs))
        yg = self.y.grid
        if yg.n_particles != len(self.xs):
            raise ValueError("y must hold one particle per X factor")
        if any(x.grid != replace(yg, n_particles=1) for x in self.xs):
            raise ValueError("X factors must be single-particle states on y's axes")

    @property
    def factors(self) -> tuple:
        return (*self.xs, self.y)

    def norm(self) -> float:
        return math.prod(f.norm() for f in self.factors)

    def guard_band_mass(self) -> float:
        """guard_band_mass of the coupled state: the product of the factors'."""
        return math.prod(guard_band_mass(f) for f in self.factors)

    def check_guard_band(self) -> float:
        return _require_guard_band(self.guard_band_mass())


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
        # max|m| and max|m - m^H| over row blocks of PAIR_BLOCK entries, so
        # the check's scratch is one complex and one float block, reused (dim
        # and PAIR_BLOCK are powers of two, so every block is full)
        scale, skew = 1e-300, 0.0
        step = max(1, PAIR_BLOCK // dim)
        diff = np.empty((min(step, dim), dim), dtype=complex)
        mag = np.empty(diff.shape)
        for i in range(0, dim, step):
            rows = m[i : i + step]
            np.abs(rows, out=mag)
            scale = max(scale, float(mag.max()))
            np.conjugate(m[:, i : i + step].T, out=diff)
            np.subtract(rows, diff, out=diff)
            np.abs(diff, out=mag)
            skew = max(skew, float(mag.max()))
        if skew > 1e-10 * scale:
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


def trace_product(a: DensityMatrix, b: DensityMatrix) -> float:
    """Continuum trace(A B) of two kernels on the same grid, as
    Re sum_ij A_ij B_ji: O(n^2), without forming the product."""
    if a.grid != b.grid:
        raise ValueError("operators live on different grids")
    return float(np.real(np.einsum("ij,ji->", a.matrix, b.matrix))) * a.quad_weight**2


def guard_band_mass(psi: WaveFunction) -> float:
    """Mass inside the region where every coordinate satisfies |x| <= L/2."""
    grid = psi.grid
    inside_axis = np.abs(grid.axis_points()) <= grid.box_half_width / 2.0
    prob = np.abs(psi.values) ** 2
    for ax in range(grid.n_axes):
        shape = [1] * grid.n_axes
        shape[ax] = grid.points_per_axis
        prob *= inside_axis.reshape(shape)
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
# binary checkpoint container, version 2: MAGIC | uint64 LE header length |
# JSON header (utf-8) | payload.  The payload is the coupling's factors in
# slot order, X factors x_1 .. x_N then the Y factor, each little-endian
# complex128 in C order (slowest axis first).


def save_state(path, state: FactoredCoupling) -> None:
    header = {
        "kind": "factored-coupling",
        "dtype": "<c16",
        "order": "C",
        "slots": "x_1 .. x_N (one particle each), then y's particles y_1 .. y_N",
        "grid": asdict(state.y.grid),
        "time": state.y.time,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<Q", len(blob)))
        fh.write(blob)
        for f in state.factors:
            fh.write(f.values.astype("<c16").tobytes(order="C"))


def load_state(path) -> FactoredCoupling:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic == b"MFLABST1":
            raise ValueError("checkpoint is container version 1 (MFLABST1); this reads version 2")
        if magic != MAGIC:
            raise ValueError("not an mflab state container")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        payload = np.frombuffer(fh.read(), dtype="<c16").astype(complex)
    yg, t = GridSpec(**header["grid"]), header["time"]
    xg = replace(yg, n_particles=1)
    # N X factors, then the Y factor; a payload of the wrong length fails a reshape
    parts = np.split(payload, xg.points_per_axis**xg.n_axes * np.arange(1, yg.n_particles + 1))
    xs = [WaveFunction(xg, v.reshape(xg.shape()), t) for v in parts[:-1]]
    return FactoredCoupling(xs, WaveFunction(yg, parts[-1].reshape(yg.shape()), t))
