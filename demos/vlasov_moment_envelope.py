"""Vlasov particle flow: phase-space moments under the exponential envelope.

The p-th moment M_p(t) = E[|x|^p + |xi|^p] of the mean-field flow can grow at
most like M_p(0) e^{(p-1)(1 + 2 Lip(grad V)) t}.  A particle discretisation of
the Vlasov dynamics makes that one-line check concrete.
"""
import numpy as np

from mflab import make_gaussian_potential, moment_rhs
from mflab.classical import point_moments, sample_gaussian_cloud, vlasov_advance

V = make_gaussian_potential(1.0, 1.0, 1)
p = 2.0
cloud = sample_gaussian_cloud(8192, 1, seed=3)
m0 = point_moments(cloud, p).mean()
print(f"M_{p:g}(0) = {m0:.4f}  (standard normal in x and xi: exact value 2)")

dt, n_per_leg = 0.05, 5
for leg in range(1, 5):
    cloud = vlasov_advance(cloud, V, dt, n_per_leg)
    t = leg * dt * n_per_leg
    mt = point_moments(cloud, p).mean()
    env = moment_rhs(m0, p, V.lip_grad, t)
    print(f"t={t:4.2f}   M_p={mt:.4f}   envelope={env:.4f}   ratio={mt / env:.3f}")

# the envelope is a worst-case Gronwall constant; for this potential the
# measured moments stay far below it while still growing monotonically
