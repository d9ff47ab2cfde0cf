"""Interaction potentials with certified derivative constants.

Every potential is a closed-form family (Gaussian bump, plane cosine), so the
two numbers the bound evaluators consume -- sup|grad V| and Lip(grad V) -- are
analytic, not fitted.  Constants are stored at construction and audited, never
recomputed per call, so inequality right-hand sides are deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class Potential:
    """Even potential V on R^d together with its certified constants.

    ``eval`` maps (..., d) -> (...,) and ``grad`` maps (..., d) -> (..., d),
    both vectorized over leading axes.  ``sup_grad`` bounds |grad V|,
    ``lip_grad`` bounds the spectral norm of the Hessian, ``sup_abs``
    bounds |V|.  Instances are immutable and safe to share across workers.
    """

    name: str
    dim: int
    eval: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    sup_grad: float
    lip_grad: float
    sup_abs: float

    def __call__(self, z):
        return self.eval(np.asarray(z, dtype=float))

    def gradient(self, z):
        return self.grad(np.asarray(z, dtype=float))


@dataclass(frozen=True)
class ScalingInput:
    """Physical scales (hbar, m, L, T, N) for the dimensionless reduction."""

    hbar: float
    mass: float
    length_L: float
    time_T: float
    n_particles: int

    def __post_init__(self):
        for field in ("hbar", "mass", "length_L", "time_T", "n_particles"):
            if getattr(self, field) <= 0:
                raise ValueError(f"scaling input {field} must be positive")


@dataclass(frozen=True)
class ConstantsReport:
    observed_sup_grad: float
    observed_lip_grad: float
    declared_sup_grad: float
    declared_lip_grad: float
    violation: bool


def make_gaussian_potential(amplitude: float, width: float, d: int) -> Potential:
    """Gaussian bump V(z) = amplitude * exp(-|z|^2 / (2 width^2)).

    Analytic constants: |grad V| peaks at |z| = width with value
    |amplitude| e^{-1/2} / width; the Hessian spectral norm peaks at the
    origin with value |amplitude| / width^2.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if d < 1:
        raise ValueError("dimension must be >= 1")
    amplitude = float(amplitude)
    w2 = float(width) ** 2

    def _eval(z, _a=amplitude, _w2=w2):
        z = np.asarray(z, dtype=float)
        return _a * np.exp(-np.sum(z * z, axis=-1) / (2.0 * _w2))

    def _grad(z, _a=amplitude, _w2=w2):
        z = np.asarray(z, dtype=float)
        # a sum over one component is that component: skip the reduce in d = 1
        sq = z * z if z.shape[-1] == 1 else np.sum(z * z, axis=-1, keepdims=True)
        phase = np.exp(-sq / (2.0 * _w2))
        return (-_a / _w2) * z * phase

    a = abs(amplitude)
    return Potential(
        name="gaussian",
        dim=d,
        eval=_eval,
        grad=_grad,
        sup_grad=a * float(np.exp(-0.5)) / float(width),
        lip_grad=a / w2,
        sup_abs=a,
    )


def make_cosine_potential(amplitude: float, wavevector, d: int) -> Potential:
    """Plane cosine V(z) = amplitude * cos(k . z), even and C^infty bounded.

    sup|grad V| = |amplitude| |k|, Lip(grad V) = |amplitude| |k|^2 (rank-one
    Hessian -a cos(k.z) k k^T attains |a||k|^2 at z = 0).
    """
    k = np.atleast_1d(np.asarray(wavevector, dtype=float))
    if k.shape != (d,):
        raise ValueError(f"wavevector must have shape ({d},)")
    amplitude = float(amplitude)

    def _eval(z, _a=amplitude, _k=k):
        z = np.asarray(z, dtype=float)
        return _a * np.cos(z @ _k)

    def _grad(z, _a=amplitude, _k=k):
        z = np.asarray(z, dtype=float)
        return (-_a * np.sin(z @ _k))[..., None] * _k

    a = abs(amplitude)
    knorm = float(np.linalg.norm(k))
    return Potential(
        name="cosine",
        dim=d,
        eval=_eval,
        grad=_grad,
        sup_grad=a * knorm,
        lip_grad=a * knorm**2,
        sup_abs=a,
    )


def rescale(s: ScalingInput, V_phys: Potential):
    """Dimensionless reduction: returns (epsilon, V_hat).

    epsilon = hbar T / (m L^2) and V_hat(z) = (N T^2 / (m L^2)) V_phys(L z).
    The certified constants transform as sup_abs -> c*sup_abs,
    sup_grad -> c*L*sup_grad, lip_grad -> c*L^2*lip_grad with
    c = N T^2 / (m L^2).
    """
    eps = s.hbar * s.time_T / (s.mass * s.length_L**2)
    c = s.n_particles * s.time_T**2 / (s.mass * s.length_L**2)
    L = s.length_L

    def _eval(z, _f=V_phys.eval, _c=c, _L=L):
        return _c * _f(_L * np.asarray(z, dtype=float))

    def _grad(z, _g=V_phys.grad, _c=c, _L=L):
        return (_c * _L) * _g(_L * np.asarray(z, dtype=float))

    V_hat = Potential(
        name=V_phys.name + "-rescaled",
        dim=V_phys.dim,
        eval=_eval,
        grad=_grad,
        sup_grad=c * L * V_phys.sup_grad,
        lip_grad=c * L**2 * V_phys.lip_grad,
        sup_abs=c * V_phys.sup_abs,
    )
    return eps, V_hat


def verify_constants(V: Potential, n_samples: int, box: float, seed: int) -> ConstantsReport:
    """Audit the declared constants by dense random sampling in [-box, box]^d.

    Reports the largest observed |grad V| and the largest difference quotient
    |grad V(z) - grad V(z')| / |z - z'| over sampled pairs (half of them
    short-range, where the quotient approaches the Hessian norm).  A report is
    flagged as a violation when an observation exceeds the declared constant
    by more than 1e-9 relative.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-box, box, size=(n_samples, V.dim))
    g = V.grad(z)
    obs_sup = float(np.max(np.linalg.norm(g, axis=-1), initial=0.0))

    # Far pairs: shuffle against itself.  Near pairs: offsets of length ~1e-3,
    # whose quotients converge to the local Hessian norm.
    perm = rng.permutation(n_samples)
    z_far = z[perm]
    step = rng.normal(size=(n_samples, V.dim))
    step /= np.maximum(np.linalg.norm(step, axis=-1, keepdims=True), 1e-300)
    z_near = z + 1e-3 * step

    obs_lip = 0.0
    for z2 in (z_far, z_near):
        dz = np.linalg.norm(z - z2, axis=-1)
        keep = dz > 1e-12
        if not np.any(keep):
            continue
        dg = np.linalg.norm(g[keep] - V.grad(z2[keep]), axis=-1)
        obs_lip = max(obs_lip, float(np.max(dg / dz[keep])))

    violation = (obs_sup > V.sup_grad * (1.0 + 1e-9)) or (
        obs_lip > V.lip_grad * (1.0 + 1e-9)
    )
    return ConstantsReport(
        observed_sup_grad=obs_sup,
        observed_lip_grad=obs_lip,
        declared_sup_grad=V.sup_grad,
        declared_lip_grad=V.lip_grad,
        violation=violation,
    )
