"""Harmonic pair interaction V(z) = kappa z^2 / 2: an exact oracle for the
coupled quantum flow at every particle count.

Under this V the N-body and Hartree flows are linear, so a coherent product
stays Gaussian and the coupling cost's excess over its Hartree baseline has
a closed form.  The package has no harmonic family: sup|grad V| is infinite,
so no certified bound applies, and `Potential` takes finite constants only.
The constants here are placeholders on the box [-L, L] (sup|grad V| read as
|kappa| * 2L); the grid propagators read none of them but whether sup|V| is
positive, so they are taken from |kappa| and the inverted oscillator
(kappa < 0) keeps its pair phase.
"""
import numpy as np

from mflab.potentials import Potential


def harmonic_potential(kappa: float, box: float) -> Potential:
    """V(z) = kappa |z|^2 / 2 in d = 1, with placeholder constants on [-box, box]."""

    def _eval(z):
        z = np.asarray(z, dtype=float)
        return 0.5 * kappa * np.sum(z * z, axis=-1)

    def _grad(z):
        return kappa * np.asarray(z, dtype=float)

    return Potential(
        name="harmonic",
        dim=1,
        eval=_eval,
        grad=_grad,
        sup_grad=abs(kappa) * 2.0 * box,
        lip_grad=abs(kappa),
        sup_abs=0.5 * abs(kappa) * (2.0 * box) ** 2,
    )


def n_delta(kappa: float, eps: float, t: float) -> float:
    """N * delta_N(t) from a coherent product at t = 0, for every N >= 1.

    delta_N = D_N - D_H: the per-slot coupling cost of the N-body coupling
    less that of one X factor against the Hartree reference.  The means of
    the two flows agree, so it is the excess of the N-body particle's
    variances over the Hartree particle's, q part then p part, with
    omega = sqrt(kappa) the Hartree trap frequency.  For kappa < 0 the trap
    is inverted, cos(omega t) becomes cosh(lambda t) and sin(omega t)^2
    becomes -sinh(lambda t)^2, lambda = sqrt(-kappa); at kappa = 0 both flows
    are free and the excess is 0.
    """
    if kappa == 0:
        return 0.0
    if kappa > 0:
        w = np.sqrt(kappa)
        c2, s2 = np.cos(w * t) ** 2, np.sin(w * t) ** 2
    else:
        lam = np.sqrt(-kappa)
        c2, s2 = np.cosh(lam * t) ** 2, -np.sinh(lam * t) ** 2
    return 0.5 * eps * ((1.0 + t * t - c2 - s2 / kappa) + (1.0 - c2 - kappa * s2))
