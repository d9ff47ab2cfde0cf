"""Interaction potentials with certified derivative constants.

Every potential is a closed-form family (Gaussian bump, plane cosine), so the
two numbers the bound evaluators consume -- sup|grad V| and Lip(grad V) -- are
analytic, not fitted.  Constants are stored at construction, never recomputed
per call, so inequality right-hand sides are deterministic; the test suite
audits them against dense random sampling of the gradient.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

Array = np.ndarray

# Pair terms per block of the pair-sum kernels that call `Potential.grad`
# (the N-body force, the exact mean field, the Monte-Carlo consistency sum):
# 256 KiB per float64 temporary in d = 1.  Such a kernel holds three or four
# of them at once, which together fit the 2 MiB L2 cache of one core of the
# 2-core x86 VM this was sized on, and the allocator hands the same blocks
# back from its heap on every call.  Measured there, one N-body force at
# M = 32, N = 256 took 12.5 ms and no minor page faults at 2^15 pairs; at
# 2^16 and up every call mapped its temporaries afresh (7,296 faults at
# 2^16, 8,448 and 29.4 ms at 2^18), and 2^14 or fewer only added loop trips.
PAIR_BLOCK = 1 << 15


@dataclass(frozen=True)
class Potential:
    """Even potential V on R^d together with its certified constants.

    ``eval`` maps (..., d) -> (...,) and ``grad`` maps (..., d) -> (..., d),
    both vectorized over leading axes.  ``sup_grad`` bounds |grad V|,
    ``lip_grad`` bounds the spectral norm of the Hessian, ``sup_abs``
    bounds |V|; all three must be finite.  Instances are immutable and safe
    to share across workers.
    """

    name: str
    dim: int
    eval: Callable[[Array], Array]
    grad: Callable[[Array], Array]
    sup_grad: float
    lip_grad: float
    sup_abs: float

    def __post_init__(self):
        bad = [
            key
            for key in ("sup_grad", "lip_grad", "sup_abs")
            if not math.isfinite(getattr(self, key))
        ]
        if bad:
            raise ValueError(
                f"certified constants of the {self.name} potential are not finite: "
                + ", ".join(f"{key} = {getattr(self, key)}" for key in bad)
            )

    def __call__(self, z):
        return self.eval(np.asarray(z, dtype=float))


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
    try:
        w2 = float(width) ** 2
    except OverflowError:  # width^2 past the float range: V is flat to round-off
        w2 = math.inf

    def _eval(z, _a=amplitude, _w2=w2):
        z = np.asarray(z, dtype=float)
        return _a * np.exp(-np.sum(z * z, axis=-1) / (2.0 * _w2))

    def _grad(z, _a=amplitude, _w2=w2):
        z = np.asarray(z, dtype=float)
        # (-a/w^2) z exp(-|z|^2 / (2w^2)) in two arrays, the result `out` and
        # the scratch `phase`; each step is the ufunc the plain expression
        # would call, so the values are the same to the bit
        if z.shape[-1] == 1:  # a sum over one component is that component
            out, phase = np.empty_like(z), np.multiply(z, z)
        else:
            out = np.multiply(z, z)
            phase = np.sum(out, axis=-1, keepdims=True)
        np.negative(phase, out=phase)
        np.divide(phase, 2.0 * _w2, out=phase)
        np.exp(phase, out=phase)
        np.multiply(-_a / _w2, z, out=out)
        return np.multiply(out, phase, out=out)

    a = abs(amplitude)
    return Potential(
        name="gaussian",
        dim=d,
        eval=_eval,
        grad=_grad,
        sup_grad=a * float(np.exp(-0.5)) / float(width),
        lip_grad=a / w2 if w2 else math.inf,  # width^2 underflows to 0
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
        # -a sin(k.z) k in two arrays: the scratch k.z (an array even for
        # a single point, where @ gives a scalar) and the result
        phase = np.asarray(z @ _k)
        np.sin(phase, out=phase)
        np.multiply(-_a, phase, out=phase)
        return np.multiply(phase[..., None], _k)

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
