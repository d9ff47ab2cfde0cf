"""Coupled N-body / mean-field flows and the 1/sqrt(N) coupling rate.

Runs M independent copies of the coupled system for each N (same initial
draws, one side feeling the empirical pairwise force, the other the frozen
mean-field force of a Vlasov reference cloud).  Every N's ensemble steps
under the one reference: run_coupled_trajectory advances the list of
ensembles and the reference 8 steps at a time and returns both;
dobrushin_per_sample(...).mean() reads the per-particle coupling functional
D^2_N(t) off each ensemble, which is checked against the closed-form
Gronwall envelope (8/N) ||grad V||^2 (e^{Lambda t} - 1)/Lambda.  The fitted
log-log slope of the coupling distance sqrt(D^2_N) should sit near -1/2.
Exits 1 after any VIOLATION line.
"""
import sys

import numpy as np

from mflab import classical_rhs, make_gaussian_potential
from mflab.classical import diagonal_ensemble, dobrushin_per_sample, run_coupled_trajectory, sample_gaussian_cloud

V = make_gaussian_potential(1.0, 1.0, 1)
M, dt, t_end = 400, 0.025, 1.0
N_list = [8, 32, 128]
n_steps, every = int(t_end / dt), 8

violations = 0
reference = sample_gaussian_cloud(2048, 1, seed=7)
ensembles = [diagonal_ensemble(M, N, 1, seed=100 + N) for N in N_list]
lines = {N: [] for N in N_list}
for done in range(0, n_steps + 1, every):
    if done:
        ensembles, reference = run_coupled_trajectory(ensembles, reference, V, dt, every)
    t = reference.time
    finals = [dobrushin_per_sample(ens, 2.0).mean() for ens in ensembles]
    for N, d in zip(N_list, finals):
        envelope = classical_rhs(V, 2.0, N, 1, t)
        violations += d > envelope
        flag = "ok" if d <= envelope else "VIOLATION"
        lines[N].append(f"   t={t:5.2f}   D^2={d:.3e}   envelope={envelope:.3e}   {flag}")

for N in N_list:
    print(f"== N = {N}")
    print("\n".join(lines[N]))
slope = np.polyfit(np.log(N_list), 0.5 * np.log(finals), 1)[0]
print(f"== coupling-distance slope vs N: {slope:+.3f}   (mean-field rate: -0.5)")
sys.exit(1 if violations else 0)
