"""Quantum coupling cost under the semiclassical Gronwall envelope.

Evolves a coupling of two single-particle states.  The coupled flow is the
Hartree flow of a reference state on the X factor times the N-body flow on
the Y factor (for one particle, the free flow), so a product coupling stays
a product: it is evolved and measured as its factors.  The same coupling as
one array on a two-particle grid (X slot, then Y slot), evolved whole, is
the oracle the product of the factors is checked against.  The trace
coupling cost D_eps(t) starts at the Heisenberg floor 2*eps (diagonal
coherent coupling) and may grow at most like

    (2 eps + 8 ||grad V||^2 (1 - e^{-Lambda t}) / Lambda) e^{Lambda t},

the factorized bound at N = 1.  The Husimi picture gives an independent
lower rail: W2(Husimi marginals)^2 - 2 eps can never exceed the trace cost.
Exits 1 after any VIOLATION line.
"""
import sys
from dataclasses import replace

import numpy as np

from mflab import make_gaussian_potential
from mflab.bounds import quantum_rhs
from mflab.quantum import (
    FactoredCoupling,
    GridSpec,
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
pair = replace(base, n_particles=2)

q0, p0 = 0.3, -0.2
coupling = [(1.0, FactoredCoupling((coherent_state(base, q0, p0),), coherent_state(base, q0, p0)))]
psi = coherent_state(pair, [q0, q0], [p0, p0])  # the same diagonal coupling
ref = ref_oracle = coherent_state(base, q0, p0)
dt, legs, steps_per_leg = 0.02, 5, 5

print(f"eps = {eps}   initial cost (Heisenberg floor 2*eps) = {qp_cost_trace(coupling):.6f}")
t = 0.0
violations = 0
for _ in range(legs):
    coupling, ref = factored_coupled_advance(coupling, ref, V, dt, steps_per_leg)
    [(_, state)] = coupling
    for _ in range(steps_per_leg):
        psi, ref_oracle = coupled_quantum_advance(psi, ref_oracle, V, dt)
    t += dt * steps_per_leg
    D = qp_cost_trace(coupling)
    env = quantum_rhs("factorized", V, eps, 1, 1, t)
    rail = mk_eps_lower(reduced_density(coupling, 0), reduced_density(coupling, 1))
    product = np.multiply.outer(state.xs[0].values, state.y.values)
    gap = np.max(np.abs(product - psi.values))
    ok = rail <= D <= env and gap < 1e-12
    violations += not ok
    print(
        f"t={t:4.2f}   D={D:.6f}   envelope={env:.6f}   husimi rail={rail:+.6f}   "
        f"oracle gap={gap:.1e}   {'ok' if ok else 'VIOLATION'}"
    )
print(f"norm drift after {legs * steps_per_leg} steps: {abs(state.norm() - 1.0):.2e}")
sys.exit(1 if violations else 0)
