"""Experiment drivers: every runnable study as a pure function from a config
to a list of BoundReport rows.

Each driver spawns all of its random streams from the config seed up front
and emits rows in sweep order, so a given (config, seed) pair produces
byte-identical output no matter how many worker threads execute the sweep.
"""
from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np
from scipy import stats

from . import bounds
from .classical import (
    diagonal_ensemble,
    dobrushin_per_sample,
    moment_p,
    run_coupled_trajectory,
    sample_gaussian_cloud,
    vlasov_advance,
)
from .potentials import Potential, make_cosine_potential, make_gaussian_potential
# check_guard_band and coupled_quantum_advance are not called here, but
# perfbench/tracing.py wraps them by name on this module
from .quantum import (
    GridSpec,
    GuardBandError,
    check_guard_band,
    coherent_state,
    coupled_quantum_advance,
    coupling_to_factored_mixture,
    coupling_to_state_mixture,
    doubled_grid,
    factored_coupled_advance,
    husimi_transform,
    mk_eps_lower,
    qp_cost_trace,
    reduced_density,
    save_state,
    state_density_matrix,
    symmetrize_initial_coupling,
    toeplitz_operator,
    toeplitz_trace_against,
    trace_product,
    wigner_transform,
)
from .transport import (
    SUPPORT_CAP,
    DiscreteMeasure,
    dual_potentials,
    kantorovich_gap,
    wasserstein_exact,
)

KNOWN_EXPERIMENTS = (
    "classical-dobrushin",
    "quantum-dobrushin",
    "mk-bracket",
    "toeplitz-identities",
    "combineq",
    "ot-selftest",
    "vlasov-moments",
)

#: Default (dt, sample times) of the classical runners; validate_config checks
#: the schedule the runner will integrate.
CLASSICAL_SCHEDULES = {
    "classical-dobrushin": (0.025, [0.25, 0.5, 1.0]),
    "vlasov-moments": (0.05, [0.25, 0.5, 0.75, 1.0]),
}

#: Default `grid_points` of the runners that build a GridSpec; validate_config
#: checks the size the runner will use.
GRID_POINTS_DEFAULTS = {"quantum-dobrushin": 64, "mk-bracket": 256, "toeplitz-identities": 256}

#: Row of classical-dobrushin that carries D^p_N at each sample time.
GROWTH_ROW = "dobrushin-functional-growth"

#: Row a quantum run emits when its guard band trips; the CLI maps it to the
#: resource exit code.
GUARD_BAND_ROW = "guard-band-interior-mass"


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment request: id, interaction, numeric knobs, seed."""

    experiment: str
    potential: dict
    seed: int
    out: str | None = None
    params: dict = field(default_factory=dict)

    def get(self, key, default):
        return self.params.get(key, default)


def make_potential(spec: dict) -> Potential:
    family = spec.get("family", "gaussian")
    d = int(spec.get("dim", 1))
    if family == "gaussian":
        return make_gaussian_potential(
            float(spec.get("amplitude", 1.0)), float(spec.get("width", 1.0)), d
        )
    if family == "cosine":
        return make_cosine_potential(
            float(spec.get("amplitude", 1.0)), spec.get("wavevector", [1.0] * d), d
        )
    raise ValueError(f"unknown potential family {family!r}")


def _potential_diagnostics(pot) -> list:
    """The fields `make_potential` reads, checked for type and range."""
    if not isinstance(pot, dict):
        return ["potential: must be an object"]
    fam = pot.get("family", "gaussian")
    if fam not in ("gaussian", "cosine"):
        return [f"potential.family: unknown family {fam!r}"]
    diags = []
    d = pot.get("dim", 1)
    if not (_is_int(d) and d >= 1):
        diags.append(f"potential.dim: {d!r} must be a positive integer")
        d = None
    if not _is_number(pot.get("amplitude", 1.0)):
        diags.append("potential.amplitude: must be a number")
    if fam == "gaussian" and not _positive(pot.get("width", 1.0)):
        diags.append("potential.width: must be a positive number")
    if fam == "cosine" and "wavevector" in pot:
        k = pot["wavevector"]
        if not (
            isinstance(k, list)
            and all(_is_number(c) for c in k)
            and (d is None or len(k) == d)
        ):
            diags.append(f"potential.wavevector: {k!r} must be a list of dim numbers")
    return diags


def _power_of_two(n) -> bool:
    """The grid sizes `GridSpec` accepts: integer powers of two >= 2."""
    return _is_int(n) and n >= 2 and n & (n - 1) == 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _positive(x) -> bool:
    return _is_number(x) and x > 0


def _int_at_least(lo: int):
    return (lambda x: _is_int(x) and x >= lo), f"an integer >= {lo}"


def _number_at_least(lo: float):
    return (lambda x: _is_number(x) and x >= lo), f"a number >= {lo}"


_POSITIVE = (_positive, "a positive number")
_EXPONENT = _number_at_least(1)

#: Knobs each runner reads with int()/float() beside the shared ones
#: (N, epsilon, dt, times, grid_points), as (accepts, description);
#: validate_config reports a given value the runner cannot use.
KNOBS = {
    "ot-selftest": {
        "n_clouds": _int_at_least(1),
        "max_support": _int_at_least(2),
        "dims": (
            lambda x: bool(_as_list(x)) and all(_is_int(k) and k >= 1 for k in _as_list(x)),
            "a positive integer or a nonempty list of them",
        ),
        "p": _EXPONENT,
    },
    "combineq": {
        "p": _EXPONENT,
        "mc_samples": _int_at_least(1),
        "slope_tolerance": _number_at_least(0),
    },
    "classical-dobrushin": {
        "p": _EXPONENT,
        "samples": _int_at_least(2),
        "reference_size": _int_at_least(2),
        "repeats": _int_at_least(1),
        "w2_tolerance": _number_at_least(0),
        "slope_tolerance": _number_at_least(0),
    },
    "vlasov-moments": {"p": _EXPONENT, "cloud_size": _int_at_least(2)},
    "mk-bracket": {
        "pairs": _int_at_least(1),
        "box": _POSITIVE,
        "center_scale": _number_at_least(0),
    },
    "toeplitz-identities": {"epsilon": _POSITIVE, "box": _POSITIVE, "symbols": _int_at_least(0)},
    "quantum-dobrushin": {
        "n_particles": _int_at_least(1),
        "box": _POSITIVE,
        "center_scale": _number_at_least(0),
        "center": (
            lambda x: isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)),
            "a list of two numbers [q, p]",
        ),
    },
}


def _whole_steps(span: float, dt: float) -> bool:
    """Whether `span` is a whole number (>= 1) of `dt` steps, to 1e-9 relative."""
    steps = span / dt
    return round(steps) >= 1 and abs(steps - round(steps)) <= 1e-9 * steps


def _schedule_diagnostics(raw: dict, dt_default: float, times_default: list) -> list:
    """Sample times must increase strictly from 0 in whole dt steps, so each
    row is labelled with the time its state was integrated to."""
    dt = raw.get("dt", dt_default)
    times = _as_list(raw.get("times", times_default))
    if not all(_is_number(t) for t in times):
        return ["times: entries must be numbers"]
    diags = []
    if any(b <= a for a, b in zip([0.0] + times, times)):
        diags.append(f"times: {times} must be positive and strictly increasing")
    if _positive(dt):
        off = [t for t in times if t > 0 and not _whole_steps(t, dt)]
        if off:
            diags.append(f"times: {off} are not integer multiples of dt={dt}")
    return diags


def validate_config(raw: dict) -> list:
    """Schema and cross-field checks; returns human-readable diagnostics."""
    diags = []
    if not isinstance(raw, dict):
        return ["config must be a JSON object"]
    exp = raw.get("experiment")
    if exp not in KNOWN_EXPERIMENTS:
        diags.append(
            f"experiment: unknown id {exp!r}; expected one of {', '.join(KNOWN_EXPERIMENTS)}"
        )
    diags += _potential_diagnostics(raw.get("potential", {}))
    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or seed < 0:
        diags.append("seed: must be a nonnegative integer")
    for key in ("dt", "t_final"):
        if key in raw and not (isinstance(raw[key], (int, float)) and raw[key] > 0):
            diags.append(f"{key}: must be a positive number")
    for key in ("N", "epsilon", "times"):
        if key in raw and isinstance(raw[key], list) and len(raw[key]) == 0:
            diags.append(f"{key}: list must be nonempty")
    for n in _as_list(raw.get("N", [])):
        if not _is_int(n) or n < 1:
            diags.append(f"N: entry {n!r} must be a positive integer")
        elif exp == "classical-dobrushin" and n > SUPPORT_CAP:
            diags.append(f"N: entry {n} exceeds the transport support cap {SUPPORT_CAP}")
    knobs = KNOBS.get(exp, {})
    bad = {key for key, (ok, _) in knobs.items() if key in raw and not ok(raw[key])}
    for key in sorted(bad):
        diags.append(f"{key}: {raw[key]!r} must be {knobs[key][1]}")
    if exp in CLASSICAL_SCHEDULES:
        diags += _schedule_diagnostics(raw, *CLASSICAL_SCHEDULES[exp])
    if exp in ("quantum-dobrushin", "mk-bracket"):
        for eps in _as_list(raw.get("epsilon", [])):
            if not _positive(eps):
                diags.append(f"epsilon: entry {eps!r} must be a positive number")
    n_pts = raw.get("grid_points", GRID_POINTS_DEFAULTS.get(exp))
    if exp in GRID_POINTS_DEFAULTS and not _power_of_two(n_pts):
        diags.append(f"grid_points: {n_pts!r} must be an integer power of two >= 2")
    if exp == "quantum-dobrushin":
        # the memory, momentum-edge and CFL checks need a valid grid size
        grid_ok = _power_of_two(n_pts)
        n_part = raw.get("n_particles", 2)
        state_bytes = 16 * n_pts ** (2 * n_part) if grid_ok and "n_particles" not in bad else 0
        from .quantum.grids import memory_cap_bytes

        if state_bytes > memory_cap_bytes():
            diags.append(
                f"grid_points: doubled state needs 16*{n_pts}^{2 * n_part} = "
                f"{state_bytes} bytes, over the memory cap {memory_cap_bytes()}"
            )
        box = raw.get("box", 8.0)
        scale = raw.get("center_scale", 0.35)
        dt = raw.get("dt", 0.02)
        dt_ok = _positive(dt)
        eps_ok = grid_ok and "box" not in bad
        eps_list = _as_list(raw.get("epsilon", [0.5, 0.25])) if eps_ok else []
        for eps in filter(_positive, eps_list):
            k_max = math.pi * n_pts / (2 * box)
            if "center_scale" not in bad and (k_max - scale / eps) * math.sqrt(eps) < 5.2:
                diags.append(
                    f"epsilon={eps}: coherent centers up to |p|={scale} sit too "
                    f"close to the resolvable momentum edge for box={box}, "
                    f"grid_points={n_pts}"
                )
            if dt_ok and dt * eps * k_max**2 / 2.0 >= math.pi:
                diags.append(
                    f"dt={dt}: kinetic phase at the Nyquist mode exceeds pi for "
                    f"epsilon={eps}, box={box}, grid_points={n_pts}"
                )
        n_times = raw.get("n_times", 6)
        t_final = raw.get("t_final", 0.5)
        if not isinstance(n_times, int) or n_times < 2:
            diags.append("n_times: must be an integer >= 2")
        elif dt_ok and _positive(t_final):
            # every sample interval must be a whole number of steps, so each
            # row is evaluated at the time the state was integrated to
            if not _whole_steps(t_final / (n_times - 1), dt):
                diags.append(
                    f"t_final/(n_times-1) = {t_final / (n_times - 1)}: sample "
                    f"interval is not an integer multiple of dt={dt}"
                )
    return diags


def build_config(raw: dict, seed=None, out=None) -> ExperimentConfig:
    diags = validate_config(raw)
    if diags:
        raise ValueError("invalid config: " + "; ".join(diags))
    params = {
        k: v for k, v in raw.items() if k not in ("experiment", "potential", "seed", "out")
    }
    return ExperimentConfig(
        experiment=raw["experiment"],
        potential=dict(raw.get("potential", {})),
        seed=int(raw.get("seed", 0) if seed is None else seed),
        out=raw.get("out") if out is None else out,
        params=params,
    )


def _as_list(v):
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _run_sweep(tasks, jobs: int):
    """Execute sweep tasks (callables returning report lists) preserving
    sweep order in the output regardless of completion order."""
    if jobs <= 1 or len(tasks) <= 1:
        chunks = [t() for t in tasks]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(t) for t in tasks]
            chunks = [f.result() for f in futures]
    return [r for chunk in chunks for r in chunk]


def _potential_constants(V: Potential, **extra) -> dict:
    base = {"sup_grad": V.sup_grad, "lip_grad": V.lip_grad, "d": V.dim}
    base.update(extra)
    return base


# ---------------------------------------------------------------------------
# ot-selftest


def _brute_assignment_cost(C: np.ndarray) -> float:
    m = C.shape[0]
    mass = np.full(m, 1.0 / m)
    rows = np.arange(m)
    return min(float(C[rows, perm] @ mass) for perm in permutations(range(m)))


def run_ot_selftest(cfg: ExperimentConfig, jobs: int = 1) -> list:
    n_clouds = int(cfg.get("n_clouds", 50))
    max_support = int(cfg.get("max_support", 6))
    dims = [int(k) for k in cfg.get("dims", [2, 4])]
    p = float(cfg.get("p", 2.0))
    children = np.random.SeedSequence(cfg.seed).spawn(n_clouds)

    def one(i):
        def task():
            rng = np.random.default_rng(children[i])
            k = dims[i % len(dims)]
            m = int(rng.integers(2, max_support + 1))
            mu = DiscreteMeasure.equal_weights(rng.standard_normal((m, k)))
            nu = DiscreteMeasure.equal_weights(rng.standard_normal((m, k)))
            dist, plan = wasserstein_exact(mu, nu, p)
            from scipy.spatial.distance import cdist

            brute = _brute_assignment_cost(cdist(mu.points, nu.points) ** p)
            a, b = dual_potentials(mu, nu, p)
            gap = kantorovich_gap(mu, nu, p, plan, a, b)
            consts = {"p": p, "d": k, "support": m, "instance": i}
            # plan.cost_value and the oracle evaluate the same dot product, so
            # the comparison is exact; dist**p would reintroduce root roundoff
            return [
                bounds.make_report(
                    "exact-vs-permutation-oracle",
                    float(i),
                    abs(plan.cost_value - brute),
                    0.0,
                    tolerance=0.0,
                    constants=consts,
                ),
                bounds.make_report(
                    "kantorovich-duality-gap",
                    float(i),
                    gap,
                    0.0,
                    tolerance=1e-9,
                    constants=consts,
                ),
            ]

        return task

    return _run_sweep([one(i) for i in range(n_clouds)], jobs)


# ---------------------------------------------------------------------------
# combineq


def run_combineq(cfg: ExperimentConfig, jobs: int = 1) -> list:
    V = make_potential(cfg.potential)
    p = float(cfg.get("p", 2.0))
    N_list = [int(N) for N in _as_list(cfg.get("N", [4, 16, 64]))]
    n_mc = int(cfg.get("mc_samples", 100_000))
    children = np.random.SeedSequence(cfg.seed).spawn(len(N_list))
    dist = stats.norm()

    def f_scalar(z):
        return V.grad(np.asarray(z, dtype=float)[:, None])[:, 0]

    def one(idx):
        def task():
            N = N_list[idx]
            mean, se = bounds.combineq_mc(
                f_scalar, dist, p, N, n_mc, int(children[idx].generate_state(1)[0])
            )
            consts = _potential_constants(V, p=p, N=N, mc_samples=n_mc)
            rows = [
                bounds.make_report(
                    "consistency-vs-even-constant",
                    float(N),
                    mean,
                    bounds.combineq_rhs_even(V.sup_grad, p, N)
                    if p == int(p) and int(p) % 2 == 0
                    else bounds.combineq_rhs(V.sup_grad, p, N),
                    lhs_stderr=se,
                    constants=consts,
                ),
                bounds.make_report(
                    "consistency-vs-general-constant",
                    float(N),
                    mean,
                    bounds.combineq_rhs(V.sup_grad, p, N),
                    lhs_stderr=se,
                    constants=consts,
                ),
            ]
            return rows

        return task

    reports = _run_sweep([one(i) for i in range(len(N_list))], jobs)
    if len(N_list) >= 2:
        means = [r.lhs_measured for r in reports if r.inequality_id == "consistency-vs-even-constant"]
        slope = float(np.polyfit(np.log(N_list), np.log(means), 1)[0])
        reports.append(
            bounds.make_report(
                "consistency-scaling-slope",
                0.0,
                abs(slope - (-1.0)),
                0.0,
                tolerance=float(cfg.get("slope_tolerance", 0.15)),
                constants={"slope": slope, "p": p},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# classical-dobrushin


def _empirical_chaos_sq(Y, H, ref_pool: np.ndarray, repeats: int, seed_seq):
    """Baseline-corrected mean W2^2 between per-configuration empirical
    clouds (N-body positions Y and momenta H, each (M, N, d)) and same-size
    reference subsamples.

    Each repeat matches one N-body configuration against a fresh N-point
    subsample of the reference flow and subtracts the reference-vs-reference
    floor measured against the *same* anchor subsample, so the finite-sample
    floor cancels in expectation and is strongly variance-reduced.  What is
    left is the chaos deviation of the empirical marginal.
    """
    n_samples, n_points, _ = Y.shape
    diffs = np.empty(repeats)
    bases = np.empty(repeats)
    for r, child in enumerate(seed_seq.spawn(repeats)):
        rng = np.random.default_rng(child)
        i = rng.integers(n_samples)
        cloud = np.hstack([Y[i], H[i]])
        idx = rng.choice(ref_pool.shape[0], size=2 * n_points, replace=False)
        anchor = DiscreteMeasure.equal_weights(ref_pool[idx[:n_points]])
        control = DiscreteMeasure.equal_weights(ref_pool[idx[n_points:]])
        d_nb, _ = wasserstein_exact(DiscreteMeasure.equal_weights(cloud), anchor, p=2.0)
        d_ff, _ = wasserstein_exact(control, anchor, p=2.0)
        bases[r] = d_ff**2
        diffs[r] = d_nb**2 - d_ff**2
    se = float(diffs.std(ddof=1) / math.sqrt(repeats)) if repeats > 1 else 0.0
    return float(diffs.mean()), se, float(bases.mean())


def run_classical_dobrushin(cfg: ExperimentConfig, jobs: int = 1) -> list:
    V = make_potential(cfg.potential)
    p = float(cfg.get("p", 2.0))
    N_list = [int(N) for N in _as_list(cfg.get("N", [16, 64, 256]))]
    M = int(cfg.get("samples", 2000))
    ref_size = int(cfg.get("reference_size", 4096))
    dt_default, times_default = CLASSICAL_SCHEDULES["classical-dobrushin"]
    dt = float(cfg.get("dt", dt_default))
    times = [float(t) for t in _as_list(cfg.get("times", times_default))]
    repeats = int(cfg.get("repeats", 256))

    root = np.random.SeedSequence(cfg.seed)
    ref_seed, *per_n = root.spawn(1 + len(N_list))

    def one(idx):
        def task():
            N = N_list[idx]
            ens_seed, sub_seed = per_n[idx].spawn(2)
            reference = sample_gaussian_cloud(ref_size, 1, ref_seed)
            ens = diagonal_ensemble(M, N, reference, int(ens_seed.generate_state(1)[0]))
            rows = []
            t_prev = 0.0
            sub_children = sub_seed.spawn(len(times))
            for j, t in enumerate(times):
                n_steps = int(round((t - t_prev) / dt))
                ens, reference, _, _ = run_coupled_trajectory(
                    ens, reference, V, dt, n_steps, p=p, record_every=max(n_steps, 1)
                )
                t_prev = t
                consts = _potential_constants(
                    V,
                    p=p,
                    N=N,
                    n=1,
                    samples=M,
                    dt=dt,
                    Lambda_p=bounds.lambda_p_constant(p, V.lip_grad),
                    K_p=bounds.k_constant(p),
                )
                per = dobrushin_per_sample(ens, p)
                rows.append(
                    bounds.make_report(
                        GROWTH_ROW,
                        t,
                        float(per.mean()),
                        bounds.classical_rhs(V, p, N, 1, t),
                        lhs_stderr=float(per.std(ddof=1) / math.sqrt(M)),
                        constants=consts,
                    )
                )
                f_pool = ens.reference_as_cloud().points.points
                debiased, deb_se, floor = _empirical_chaos_sq(
                    ens.Y, ens.H, f_pool, repeats, sub_children[j]
                )
                rows.append(
                    bounds.make_report(
                        "marginal-transport-convergence",
                        t,
                        debiased,
                        bounds.classical_rhs(V, p, N, 1, t),
                        lhs_stderr=deb_se,
                        tolerance=float(cfg.get("w2_tolerance", 2e-3)),
                        constants=dict(consts, repeats=repeats, baseline=floor),
                    )
                )
            return rows

        return task

    reports = _run_sweep([one(i) for i in range(len(N_list))], jobs)
    if len(N_list) >= 2:
        # The N-rate is fit on the directly measured coupling distance
        # (D^p_N)^(1/p): its Monte-Carlo error is ~1e-5 while the subsample-W2
        # excess over the finite-sample floor is indistinguishable from zero
        # at desk scale, so only the former can carry a log-log fit.  Each N
        # emits one growth row per sample time; the last is the final D^p_N.
        growth = [r.lhs_measured for r in reports if r.inequality_id == GROWTH_ROW]
        finals = np.array([max(d, 1e-300) for d in growth[len(times) - 1 :: len(times)]])
        slope = float(np.polyfit(np.log(N_list), np.log(finals) / p, 1)[0])
        reports.append(
            bounds.make_report(
                "coupling-distance-scaling-slope",
                times[-1],
                abs(slope - (-0.5)),
                0.0,
                tolerance=float(cfg.get("slope_tolerance", 0.15)),
                constants={"slope": slope, "p": p},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# vlasov-moments


def run_vlasov_moments(cfg: ExperimentConfig, jobs: int = 1) -> list:
    V = make_potential(cfg.potential)
    p = float(cfg.get("p", 2.0))
    M = int(cfg.get("cloud_size", 4096))
    dt_default, times_default = CLASSICAL_SCHEDULES["vlasov-moments"]
    dt = float(cfg.get("dt", dt_default))
    times = [float(t) for t in _as_list(cfg.get("times", times_default))]

    cloud = sample_gaussian_cloud(M, int(cfg.potential.get("dim", 1)), cfg.seed)

    def moment_stats(c):
        r = np.linalg.norm(c.x, axis=1) ** p + np.linalg.norm(c.xi, axis=1) ** p
        return float(r.mean()), float(r.std(ddof=1) / math.sqrt(r.size))

    m0, se0 = moment_stats(cloud)
    rows = []
    t_prev = 0.0
    for t in times:
        n_steps = int(round((t - t_prev) / dt))
        cloud = vlasov_advance(cloud, V, dt, n_steps)
        t_prev = t
        mt, se_t = moment_stats(cloud)
        rhs = bounds.moment_rhs(m0, p, V.lip_grad, t)
        rows.append(
            bounds.make_report(
                "phase-moment-growth",
                t,
                mt,
                rhs,
                lhs_stderr=se_t,
                tolerance=3.0 * (se0 / m0) * rhs,
                constants=_potential_constants(V, p=p, cloud_size=M, M0=m0, dt=dt),
            )
        )
    return rows


# ---------------------------------------------------------------------------
# mk-bracket


def run_mk_bracket(cfg: ExperimentConfig, jobs: int = 1) -> list:
    eps_list = [float(e) for e in _as_list(cfg.get("epsilon", [0.5, 0.25, 0.1]))]
    n_pairs = int(cfg.get("pairs", 20))
    per_eps = max(1, -(-n_pairs // len(eps_list)))  # ceil division
    n_pts = int(cfg.get("grid_points", GRID_POINTS_DEFAULTS["mk-bracket"]))
    box = float(cfg.get("box", 6.0))
    scale = float(cfg.get("center_scale", 1.0))
    children = np.random.SeedSequence(cfg.seed).spawn(len(eps_list))

    def one(idx):
        def task():
            eps = eps_list[idx]
            rng = np.random.default_rng(children[idx])
            sgrid = GridSpec(1, 1, n_pts, box, eps)
            dgrid = doubled_grid(sgrid, 1)
            rows = []
            for k in range(per_eps):
                z1 = rng.uniform(-scale, scale, 2)
                z2 = rng.uniform(-scale, scale, 2)
                s1 = DiscreteMeasure(z1[None, :], np.array([1.0]))
                s2 = DiscreteMeasure(z2[None, :], np.array([1.0]))
                _, plan = wasserstein_exact(s1, s2, p=2.0)
                coupling = symmetrize_initial_coupling(plan, s1, s2, 1)
                mixture = coupling_to_state_mixture(dgrid, coupling)
                qp = qp_cost_trace(mixture, eps)
                expected = float(np.sum((z1 - z2) ** 2)) + 2.0 * eps
                rho1 = state_density_matrix(coherent_state(sgrid, z1[0], z1[1]))
                rho2 = state_density_matrix(coherent_state(sgrid, z2[0], z2[1]))
                lower = mk_eps_lower(rho1, rho2, eps)
                consts = {"eps": eps, "d": 1, "instance": k, "expected": expected}
                t_tag = float(idx * per_eps + k)
                rows += [
                    bounds.make_report(
                        "product-coupling-cost-identity",
                        t_tag,
                        abs(qp - expected),
                        0.0,
                        tolerance=1e-3 * expected,
                        constants=consts,
                    ),
                    bounds.make_report(
                        "husimi-lower-vs-coupling-cost",
                        t_tag,
                        lower,
                        qp,
                        tolerance=1e-3,
                        constants=consts,
                    ),
                    bounds.make_report(
                        "coupling-cost-floor",
                        t_tag,
                        2.0 * eps,
                        qp,
                        tolerance=1e-6,
                        constants=consts,
                    ),
                ]
            return rows

        return task

    return _run_sweep([one(i) for i in range(len(eps_list))], jobs)


# ---------------------------------------------------------------------------
# toeplitz-identities


def run_toeplitz_identities(cfg: ExperimentConfig, jobs: int = 1) -> list:
    eps = float(cfg.get("epsilon", 0.25))
    n_pts = int(cfg.get("grid_points", GRID_POINTS_DEFAULTS["toeplitz-identities"]))
    box = float(cfg.get("box", 6.0))
    n_symbols = int(cfg.get("symbols", 10))
    grid = GridSpec(1, 1, n_pts, box, eps)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    rows = []

    # (a) Wigner of a coherent state against its closed form
    q0, p0 = 0.3, -0.2
    rho_c = state_density_matrix(coherent_state(grid, q0, p0))
    W = wigner_transform(rho_c)
    X, XI = np.meshgrid(W.x_nodes, W.xi_nodes, indexing="ij")
    exact = np.exp(-((X - q0) ** 2 + (XI - p0) ** 2) / eps) / (np.pi * eps)
    consts = {"eps": eps, "d": 1, "grid_points": n_pts}
    rows.append(
        bounds.make_report(
            "wigner-coherent-closed-form",
            0.0,
            float(np.max(np.abs(W.values - exact))),
            0.0,
            tolerance=1e-6,
            constants=consts,
        )
    )
    rows.append(
        bounds.make_report(
            "wigner-normalization",
            0.0,
            abs(W.integral() - 1.0),
            0.0,
            tolerance=1e-6,
            constants=consts,
        )
    )

    # (b) Toeplitz trace identity, matrix route vs atom route
    mixed_symbol = DiscreteMeasure(
        rng.uniform(-1.0, 1.0, (3, 2)), np.full(3, 1.0 / 3.0)
    )
    rho_mixed = toeplitz_operator(grid, mixed_symbol)
    for i in range(n_symbols):
        k = int(rng.integers(1, 7))
        pts = rng.uniform(-1.5, 1.5, (k, 2))
        w = rng.dirichlet(np.ones(k))
        symbol = DiscreteMeasure(pts, w)
        rho = rho_c if i % 2 == 0 else rho_mixed
        atom_route = toeplitz_trace_against(symbol, rho)
        matrix_route = trace_product(toeplitz_operator(grid, symbol), rho)
        rows.append(
            bounds.make_report(
                "toeplitz-trace-identity",
                float(i),
                abs(atom_route - matrix_route),
                0.0,
                tolerance=1e-6 * abs(matrix_route),
                constants=dict(consts, atoms=k),
            )
        )

    # (c) quadratic-symbol expectation: integral of q^2 against the Husimi
    # function, minus the eps/2 quantization shift, recovers <x^2> = q0^2+eps/2
    H = husimi_transform(rho_c, nx=128, nxi=128)
    XH, _ = np.meshgrid(H.x_nodes, H.xi_nodes, indexing="ij")
    lift_expectation = float(np.sum(XH**2 * H.values) * H.dx * H.dxi)
    rows.append(
        bounds.make_report(
            "quadratic-symbol-expectation",
            0.0,
            abs((lift_expectation - eps / 2.0) - (q0**2 + eps / 2.0)),
            0.0,
            tolerance=1e-4,
            constants=dict(consts, q0=q0),
        )
    )
    rows.append(
        bounds.make_report(
            "husimi-nonnegativity",
            0.0,
            max(-float(H.values.min()), 0.0),
            0.0,
            tolerance=1e-12,
            constants=consts,
        )
    )
    return rows


# ---------------------------------------------------------------------------
# quantum-dobrushin


def run_quantum_dobrushin(cfg: ExperimentConfig, jobs: int = 1) -> list:
    V = make_potential(cfg.potential)
    eps_list = [float(e) for e in _as_list(cfg.get("epsilon", [0.5, 0.25]))]
    N = int(cfg.get("n_particles", 2))
    n_pts = int(cfg.get("grid_points", GRID_POINTS_DEFAULTS["quantum-dobrushin"]))
    box = float(cfg.get("box", 8.0))
    dt = float(cfg.get("dt", 0.02))
    t_final = float(cfg.get("t_final", 0.5))
    n_times = int(cfg.get("n_times", 6))
    q0, p0 = (float(v) for v in cfg.get("center", [0.3, -0.2]))
    checkpoint = cfg.get("checkpoint", None)
    sample_times = np.linspace(0.0, t_final, n_times)

    def one(idx):
        def task():
            eps = eps_list[idx]
            base = GridSpec(1, 1, n_pts, box, eps)
            # product symbol with every particle at z0; its diagonal coupling
            # is symmetric, so the symmetrized Toeplitz lift is a single pure
            # coherent product, which the coupled flow keeps a product: it is
            # evolved and measured as its factors, never as the doubled grid
            atom = np.concatenate([np.full(N, q0), np.full(N, p0)])
            symbol = DiscreteMeasure(atom[None, :], np.array([1.0]))
            _, plan = wasserstein_exact(symbol, symbol, p=2.0)
            coupling = symmetrize_initial_coupling(plan, symbol, symbol, N)
            components = [
                (w, state, coherent_state(base, q0, p0))
                for w, state in coupling_to_factored_mixture(base, N, coupling)
            ]
            rows = []
            drift_max = 0.0
            t_prev = 0.0
            steps_taken = 0
            for t in sample_times:
                n_steps = int(round((t - t_prev) / dt))
                advanced = []
                for w, state, ref in components:
                    for _ in range(n_steps):
                        state, ref = factored_coupled_advance(state, ref, V, dt)
                    advanced.append((w, state, ref))
                components = advanced
                t_prev = t
                steps_taken += n_steps
                consts = _potential_constants(
                    V,
                    eps=eps,
                    N=N,
                    n=1,
                    dt=dt,
                    Lambda=bounds.lambda_constant(V.lip_grad),
                    grid_points=n_pts,
                )
                try:
                    for w, state, _ in components:
                        state.check_guard_band()
                        drift_max = max(drift_max, abs(state.norm() - 1.0))
                except GuardBandError as err:
                    # abort policy: a bound evaluated on a leaking state is
                    # meaningless, so mark the row failed and stop the sweep
                    rows.append(
                        bounds.make_report(
                            GUARD_BAND_ROW,
                            t,
                            1.0,
                            0.0,
                            tolerance=0.0,
                            constants=consts,
                        )
                    )
                    print(f"guard band tripped at t={t}: {err}", file=sys.stderr)
                    break
                mixture = [(w, state) for w, state, _ in components]
                D = qp_cost_trace(mixture, eps) / N
                rhs = bounds.quantum_rhs("factorized", V, eps, N, 1, t)
                rows.append(
                    bounds.make_report(
                        "coupling-cost-growth",
                        t,
                        D,
                        rhs,
                        tolerance=1e-2 * rhs,
                        constants=consts,
                    )
                )
                rho_x = reduced_density(mixture, [0])
                rho_y = reduced_density(mixture, [N])
                rows.append(
                    bounds.make_report(
                        "husimi-lower-chain",
                        t,
                        mk_eps_lower(rho_x, rho_y, eps),
                        D,
                        tolerance=1e-2,
                        constants=consts,
                    )
                )
            # labelled with the time actually integrated: an abort stops short
            rows.append(
                bounds.make_report(
                    "doubled-evolution-unitarity",
                    float(t_prev),
                    drift_max,
                    0.0,
                    tolerance=1e-10,
                    constants={"eps": eps, "dt": dt, "steps": steps_taken},
                )
            )
            if checkpoint:
                save_state(f"{checkpoint}.eps{eps}.mflabst", components[0][1].doubled())
            return rows

        return task

    return _run_sweep([one(i) for i in range(len(eps_list))], jobs)


# ---------------------------------------------------------------------------


EXPERIMENT_RUNNERS = {
    "ot-selftest": run_ot_selftest,
    "combineq": run_combineq,
    "classical-dobrushin": run_classical_dobrushin,
    "vlasov-moments": run_vlasov_moments,
    "mk-bracket": run_mk_bracket,
    "toeplitz-identities": run_toeplitz_identities,
    "quantum-dobrushin": run_quantum_dobrushin,
}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list:
    try:
        runner = EXPERIMENT_RUNNERS[cfg.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {cfg.experiment!r}") from None
    return runner(cfg, jobs=jobs)
