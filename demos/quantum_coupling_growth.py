"""Quantum coupling cost under the semiclassical Gronwall envelope.

Evolves a coupling of two single-particle states.  The coupled flow is the
Hartree flow of a reference state on the X factor times the N-body flow on
the Y factor (for one particle, the free flow), so a product coupling stays
a product: it is evolved and measured as its factors.  The same coupling on
the doubled grid, evolved as one array, is the oracle the factors are
checked against.  The trace coupling cost D_eps(t) starts at the Heisenberg
floor 2*eps (diagonal coherent coupling) and may grow at most like

    (2 eps + 4 ||grad V||^2 (1 - e^{-Lambda t}) / Lambda) e^{Lambda t}.

The Husimi picture gives an independent lower rail: W2(Husimi marginals)^2
- 2 eps can never exceed the trace cost.
"""
from dataclasses import replace

import numpy as np

from mflab import make_gaussian_potential
from mflab.bounds import quantum_rhs
from mflab.quantum import (
    FactoredCoupling,
    GridSpec,
    coherent_product_state,
    coherent_state,
    factored_coupled_advance,
    mk_eps_lower,
    qp_cost_trace,
    reduced_density,
)
from mflab.quantum.dynamics import coupled_quantum_advance

eps = 0.25
V = make_gaussian_potential(1.0, 1.0, 1)
base = GridSpec(1, 1, 64, 8.0, eps)
dbl = replace(base, doubled=True)

q0, p0 = 0.3, -0.2
state = FactoredCoupling((coherent_state(base, q0, p0),), coherent_state(base, q0, p0))
psi = coherent_product_state(dbl, [q0, q0, p0, p0])  # the same diagonal coupling
ref = ref_oracle = coherent_state(base, q0, p0)
dt, legs, steps_per_leg = 0.02, 5, 5

print(f"eps = {eps}   initial cost (Heisenberg floor 2*eps) = {qp_cost_trace(state, eps):.6f}")
t = 0.0
for _ in range(legs):
    for _ in range(steps_per_leg):
        state, ref = factored_coupled_advance(state, ref, V, dt)
        psi, ref_oracle = coupled_quantum_advance(psi, ref_oracle, V, dt)
    t += dt * steps_per_leg
    D = qp_cost_trace(state, eps)
    env = quantum_rhs("factorized", V, eps, 1, 1, t)
    rail = mk_eps_lower(reduced_density(state, [0]), reduced_density(state, [1]), eps)
    gap = np.max(np.abs(state.doubled().values - psi.values))
    print(
        f"t={t:4.2f}   D={D:.6f}   envelope={env:.6f}   husimi rail={rail:+.6f}   "
        f"oracle gap={gap:.1e}   {'ok' if rail <= D <= env and gap < 1e-12 else 'VIOLATION'}"
    )
print(f"norm drift after {legs * steps_per_leg} steps: {abs(state.norm() - 1.0):.2e}")
