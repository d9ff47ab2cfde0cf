"""Exact transport on small clouds, with its two independent certificates.

The exact solver earns trust two ways: on equal-weight clouds it must agree
with the brute-force permutation minimum, and every instance admits a feasible
dual pair whose Kantorovich gap certifies optimality.
"""
import itertools

import numpy as np

from mflab import DiscreteMeasure, kantorovich_gap, wasserstein_exact
from mflab.transport import dual_potentials

rng = np.random.default_rng(0)

print("== exact cost vs permutation oracle (equal weights, n <= 6, R^2)")
for _ in range(5):
    n = int(rng.integers(3, 7))
    mu = DiscreteMeasure.equal_weights(rng.normal(size=(n, 2)))
    nu = DiscreteMeasure.equal_weights(rng.normal(size=(n, 2)))
    dist, plan = wasserstein_exact(mu, nu)
    C = ((mu.points[:, None, :] - nu.points[None, :, :]) ** 2).sum(-1)
    rows = np.arange(n)
    brute = min(float(C[rows, list(s)].mean()) for s in itertools.permutations(range(n)))
    print(f"   n={n}  cost={plan.cost_value:.12f}  oracle={brute:.12f}  diff={plan.cost_value - brute:.1e}")

print("== duality-gap certificate on an unequal-weight instance")
mu = DiscreteMeasure(rng.normal(size=(7, 2)), np.array([0.3, 0.2, 0.1, 0.1, 0.1, 0.1, 0.1]))
nu = DiscreteMeasure.equal_weights(rng.normal(size=(5, 2)))
dist, plan = wasserstein_exact(mu, nu)
a, b = dual_potentials(mu, nu)
print(f"   W2 = {dist:.6f}   gap = {kantorovich_gap(mu, nu, plan, a, b):.2e}")
