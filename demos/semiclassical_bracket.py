"""The coupling-cost bracket between classical transport and the trace cost.

For a product Toeplitz coupling of two coherent states at phase-space points
z1, z2 the trace cost has the closed form |z1 - z2|^2 + 2*d*eps: classical
squared distance plus a Heisenberg floor per coupled axis pair.  Sandwiching
it from below runs entirely through measured objects -- the Husimi functions
of the two marginals and an exact transport solve -- and from above through
the symbol coupling.  The floor never deflates: even the diagonal coupling
costs 2*d*eps.
"""
import numpy as np

from mflab import DiscreteMeasure, wasserstein_exact
from mflab.quantum import (
    FactoredCoupling,
    GridSpec,
    coherent_state,
    mk_eps_lower,
    mk_eps_upper,
    qp_cost_trace,
)

rng = np.random.default_rng(2)
z1 = rng.normal(size=2)
z2 = rng.normal(size=2)
gap2 = float(((z1 - z2) ** 2).sum())
print(f"z1 = ({z1[0]:+.3f}, {z1[1]:+.3f})   z2 = ({z2[0]:+.3f}, {z2[1]:+.3f})   |z1-z2|^2 = {gap2:.6f}")
print(f"{'eps':>6} {'husimi lower':>14} {'trace cost':>12} {'symbol upper':>14} {'closed form':>13}")
for eps in (0.5, 0.25, 0.1):
    grid = GridSpec(1, 1, 256, 6.0, eps)
    x, y = coherent_state(grid, z1[0], z1[1]), coherent_state(grid, z2[0], z2[1])
    cost = qp_cost_trace([(1.0, FactoredCoupling((x,), y))])
    lower = mk_eps_lower(x, y)
    s1 = DiscreteMeasure(z1[None, :], np.array([1.0]))
    s2 = DiscreteMeasure(z2[None, :], np.array([1.0]))
    upper = mk_eps_upper(s1, s2, eps)
    closed = gap2 + 2.0 * eps
    assert lower <= cost <= upper + 1e-9
    print(f"{eps:6.2f} {lower:14.6f} {cost:12.6f} {upper:14.6f} {closed:13.6f}")

# the diagonal coupling shows the floor exactly: no transport is needed, yet
# the trace cost cannot drop below 2*d*eps
eps = 0.25
grid = GridSpec(1, 1, 128, 5.0, eps)
z0 = coherent_state(grid, 0.4, -0.3)
diag = [(1.0, FactoredCoupling((z0,), z0))]
print(f"diagonal coupling at eps={eps}: cost = {qp_cost_trace(diag):.9f}  floor = {2 * eps}")
