"""mflab: a numerical laboratory for mean-field and semiclassical limits.

Verifies, at desk scale, the quantitative convergence inequalities relating
N-body dynamics to their mean-field and classical limits: exact optimal
transport with certified duality gaps, coupled classical particle flows and
their Dobrushin-type functionals, spectral Schrodinger/Hartree propagators on
guarded grids, coherent-state (Toeplitz/Husimi/Wigner) phase-space calculus,
and closed-form Gronwall bounds with Monte-Carlo consistency estimates.
"""
from . import bounds, classical, potentials, quantum, transport
from .bounds import (
    BoundReport,
    classical_rhs,
    combineq_mc,
    combineq_rhs,
    combineq_rhs_even,
    count_S_Np,
    make_report,
    moment_rhs,
    quantum_rhs,
)
from .experiments import (
    ExperimentConfig,
    build_config,
    make_potential,
    run_experiment,
    validate_config,
)
from .potentials import Potential, make_cosine_potential, make_gaussian_potential
from .transport import (
    DiscreteMeasure,
    TransportPlan,
    kantorovich_gap,
    wasserstein_exact,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "DiscreteMeasure",
    "ExperimentConfig",
    "Potential",
    "TransportPlan",
    "bounds",
    "build_config",
    "classical",
    "classical_rhs",
    "combineq_mc",
    "combineq_rhs",
    "combineq_rhs_even",
    "count_S_Np",
    "kantorovich_gap",
    "make_cosine_potential",
    "make_gaussian_potential",
    "make_potential",
    "make_report",
    "moment_rhs",
    "potentials",
    "quantum",
    "quantum_rhs",
    "run_experiment",
    "transport",
    "validate_config",
    "wasserstein_exact",
]
