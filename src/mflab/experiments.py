"""Experiment drivers: every runnable study as a pure function from a config
to a list of BoundReport rows.

Each driver spawns all of its random streams from the config seed up front
and emits rows in sweep order, so a given (config, seed) pair produces
byte-identical output no matter how many worker threads execute the sweep.
"""
from __future__ import annotations

import math
import os
import sys
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations

import numpy as np
from scipy.spatial.distance import cdist

from . import bounds
from .classical import (
    diagonal_ensemble,
    dobrushin_per_sample,
    point_moments,
    run_coupled_trajectory,
    sample_gaussian_cloud,
    vlasov_advance,
)
from .potentials import Potential, make_cosine_potential, make_gaussian_potential
from .quantum import (
    GridSpec,
    GuardBandError,
    check_guard_band,
    coherent_state,
    coupling_to_factored_mixture,
    factored_coupled_advance,
    husimi_lattices,
    husimi_transform,
    lattice_lower,
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
# check_guard_band, coupled_quantum_advance and mk_eps_lower are not called
# here, but perfbench/tracing.py wraps them by name on this module; they leave
# the imports when the benchmark's spans are re-pointed
from .quantum.dynamics import coupled_quantum_advance
from .quantum.grids import memory_cap_bytes
from .quantum.metrics import mk_eps_lower
from .quantum.phase_space import _check_center_inside
from .transport import (
    SUPPORT_CAP,
    DiscreteMeasure,
    dual_potentials,
    kantorovich_gap,
    wasserstein_exact,
)

#: Row of classical-dobrushin that carries D^p_N at each sample time.
GROWTH_ROW = "dobrushin-functional-growth"

#: Row a quantum run emits when its guard band trips; the CLI maps it to the
#: resource exit code.
GUARD_BAND_ROW = "guard-band-interior-mass"

#: toeplitz-identities' fixed coherent centre (q, p), and the half-widths of the
#: phase-space squares its mixed state's and test symbols' atoms are drawn from.
TOEPLITZ_CENTER = (0.3, -0.2)
TOEPLITZ_ATOM_RANGES = (1.0, 1.5)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment request: id, interaction, parameters, seed."""

    experiment: str
    potential: dict
    seed: int
    out: str | None = None
    params: dict = field(default_factory=dict)


#: The potential's fields and their defaults; a cosine `wavevector` defaults
#: to ones in each of `dim` components.
POTENTIAL_DEFAULTS = {"family": "gaussian", "dim": 1, "amplitude": 1.0, "width": 1.0}

#: The fields each potential family reads.
_POTENTIAL_FIELDS = {
    "gaussian": ("family", "dim", "amplitude", "width"),
    "cosine": ("family", "dim", "amplitude", "wavevector"),
}


def make_potential(spec: dict) -> Potential:
    pot = {**POTENTIAL_DEFAULTS, **spec}
    family = pot["family"]
    d = int(pot["dim"])
    if family == "gaussian":
        return make_gaussian_potential(float(pot["amplitude"]), float(pot["width"]), d)
    if family == "cosine":
        return make_cosine_potential(float(pot["amplitude"]), pot.get("wavevector", [1.0] * d), d)
    raise ValueError(f"unknown potential family {family!r}")


#: The experiments whose runners are one-dimensional, and why: a potential of
#: another `dim` would run the 1-D flow under rows that claim its `d`.
_ONE_DIMENSIONAL = {
    "combineq": "which samples a scalar law",
    "classical-dobrushin": "whose particle clouds are one-dimensional",
    "quantum-dobrushin": "whose grids are one-dimensional",
}


def _potential_diagnostics(pot, exp) -> list:
    """The fields `make_potential` reads, checked for type and range, and
    the dimension experiment `exp` can run."""
    if not isinstance(pot, dict):
        return ["potential: must be an object"]
    fam = pot.get("family", POTENTIAL_DEFAULTS["family"])
    if not isinstance(fam, str) or fam not in _POTENTIAL_FIELDS:
        return [f"potential.family: unknown family {fam!r}"]
    diags = [
        f"potential.{key}: not a field of the {fam} potential"
        for key in pot
        if key not in _POTENTIAL_FIELDS[fam]
    ]
    pot = {**POTENTIAL_DEFAULTS, **pot}
    d = pot["dim"]
    if not (_is_int(d) and d >= 1):
        diags.append(f"potential.dim: {d!r} must be a positive integer")
        d = None
    elif exp in _ONE_DIMENSIONAL and d != 1:
        diags.append(f"potential.dim: {d!r} must be 1 for {exp}, {_ONE_DIMENSIONAL[exp]}")
    if not _is_number(pot["amplitude"]):
        diags.append("potential.amplitude: must be a number")
    if fam == "gaussian" and not _positive(pot["width"]):
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


def _increasing_times(x) -> bool:
    times = _as_list(x)
    return (
        bool(times)
        and all(_is_number(t) for t in times)
        and all(b > a for a, b in zip([0.0] + times, times))
    )


def _int_at_least(lo: int):
    return (lambda x: _is_int(x) and x >= lo), f"an integer >= {lo}"


def _number_at_least(lo: float):
    return (lambda x: _is_number(x) and x >= lo), f"a number >= {lo}"


@dataclass(frozen=True)
class _Each:
    """`accepts` of a sweep key: one value or a nonempty list of them, each
    entry checked on its own."""

    ok: object


_POSITIVE = (_positive, "a positive number")
_EXPONENT = _number_at_least(1)
_GRID_POINTS = (_power_of_two, "an integer power of two >= 2")
_PARTICLE_COUNTS = (_Each(lambda n: _is_int(n) and n >= 1), "a positive integer")
_EPSILONS = (_Each(_positive), "a positive number")
_SAMPLE_TIMES = (_increasing_times, "a positive number or a strictly increasing list of them")
_DIMS = (
    lambda x: bool(_as_list(x)) and all(_is_int(k) and k >= 1 for k in _as_list(x)),
    "a positive integer or a nonempty list of them",
)
_CENTER = (
    lambda x: isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)),
    "a list of two numbers [q, p]",
)

#: Every parameter each runner reads, as key: (default, accepts, description).
#: `build_config` fills in the defaults, so a runner reads `cfg.params[key]`;
#: `validate_config` reports a value its runner cannot use as
#: "<key>: <value> must be <description>", and any other key as unknown.
PARAMS = {
    "classical-dobrushin": {
        "p": (2.0, *_EXPONENT),
        "N": ([16, 64, 256], *_PARTICLE_COUNTS),
        "samples": (2000, *_int_at_least(2)),
        "reference_size": (4096, *_int_at_least(2)),
        "dt": (0.025, *_POSITIVE),
        "times": ([0.25, 0.5, 1.0], *_SAMPLE_TIMES),
        "repeats": (256, *_int_at_least(1)),
        "w2_tolerance": (2e-3, *_number_at_least(0)),
        "slope_tolerance": (0.15, *_number_at_least(0)),
    },
    "quantum-dobrushin": {
        "epsilon": ([0.5, 0.25], *_EPSILONS),
        "n_particles": (2, *_int_at_least(1)),
        "grid_points": (64, *_GRID_POINTS),
        "box": (8.0, *_POSITIVE),
        "dt": (0.02, *_POSITIVE),
        "t_final": (0.5, *_POSITIVE),
        "n_times": (6, *_int_at_least(2)),
        "center": ([0.3, -0.2], *_CENTER),
        "checkpoint": (None, lambda x: x is None or isinstance(x, str), "a path prefix or null"),
    },
    "mk-bracket": {
        "epsilon": ([0.5, 0.25, 0.1], *_EPSILONS),
        "pairs": (20, *_int_at_least(1)),
        "grid_points": (256, *_GRID_POINTS),
        "box": (6.0, *_POSITIVE),
        "center_scale": (1.0, *_number_at_least(0)),
    },
    "toeplitz-identities": {
        "epsilon": (0.25, *_POSITIVE),
        "grid_points": (256, *_GRID_POINTS),
        "box": (6.0, *_POSITIVE),
        "symbols": (10, *_int_at_least(0)),
    },
    "combineq": {
        "p": (2.0, *_EXPONENT),
        "N": ([4, 16, 64], *_PARTICLE_COUNTS),
        "mc_samples": (100_000, *_int_at_least(1)),
        "slope_tolerance": (0.15, *_number_at_least(0)),
    },
    "ot-selftest": {
        "n_clouds": (50, *_int_at_least(1)),
        "max_support": (6, *_int_at_least(2)),
        "dims": ([2, 4], *_DIMS),
        "p": (2.0, *_EXPONENT),
    },
    "vlasov-moments": {
        "p": (2.0, *_EXPONENT),
        "cloud_size": (4096, *_int_at_least(2)),
        "dt": (0.05, *_POSITIVE),
        "times": ([0.25, 0.5, 0.75, 1.0], *_SAMPLE_TIMES),
    },
}

def time_schedule(times, dt: float) -> list:
    """(t, n_steps) for each sample time t: n_steps = round((t - t_prev)/dt)
    steps take the state from the previous sample time (0 at first) to t.

    Raises ValueError naming every t, bar a leading t = 0, that no step reaches
    or that is more than 1e-9 relative off dt times the steps taken so far.
    """
    schedule, off = [], []
    t_prev, taken = 0.0, 0
    for t in times:
        n_steps = int(round((t - t_prev) / dt))
        taken += n_steps
        if (n_steps < 1 and (schedule or t != 0)) or abs(t - taken * dt) > 1e-9 * t:
            off.append(float(t))
        schedule.append((t, n_steps))
        t_prev = t
    if off:
        raise ValueError(f"{off} are not integer multiples of dt={dt}")
    return schedule


def _sample_times(params: dict) -> list:
    """A runner's sample times: its `times`, or `n_times` even steps from 0
    to `t_final`."""
    if "times" in params:
        return [float(t) for t in _as_list(params["times"])]
    return np.linspace(0.0, float(params["t_final"]), int(params["n_times"]))


def _value_diagnostics(key: str, value, accepts, what: str) -> list:
    if not isinstance(accepts, _Each):
        return [] if accepts(value) else [f"{key}: {value!r} must be {what}"]
    entries = _as_list(value)
    if not entries:
        return [f"{key}: list must be nonempty"]
    return [f"{key}: entry {v!r} must be {what}" for v in entries if not accepts.ok(v)]


def _coherent_centres(exp: str, params: dict, ok) -> list:
    """(label, q, p) of the coherent centres a grid runner will place, with
    q and p stacked the way its largest coherent product holds them."""
    if exp == "quantum-dobrushin" and ok("center", "n_particles"):
        # the Y factor holds n_particles copies of the centre
        copies = np.ones(params["n_particles"])
        q0, p0 = params["center"]
        return [(f"center: {params['center']!r}", q0 * copies, p0 * copies)]
    if exp == "mk-bracket" and ok("center_scale"):
        # each coherent factor of a pair (z1, z2) is single-particle; the
        # worst sits at the corner (s, s)
        s = params["center_scale"]
        return [(f"center_scale: {s!r}", s, s)]
    if exp == "toeplitz-identities":
        # the fixed centre, and the corners of the squares atoms are drawn from
        centres = [TOEPLITZ_CENTER, *((r, r) for r in TOEPLITZ_ATOM_RANGES)]
        return [(f"the fixed coherent centre ({q}, {p})", q, p) for q, p in centres]
    return []


def _cross_field_diagnostics(exp: str, params: dict, bad: set) -> list:
    """Checks that tie resolved parameters together; each skips when one of
    its inputs is already reported."""

    def ok(*keys):
        return bad.isdisjoint(keys)

    diags = []
    cap = None
    if "grid_points" in params:
        try:
            cap = memory_cap_bytes()
        except ValueError as err:
            diags.append(str(err))  # no check that needs the cap, no grid built
    if exp == "quantum-dobrushin" and cap is not None and ok("grid_points", "n_particles"):
        # the runner holds N one-particle X factors and one n^N Y factor; only
        # a checkpoint builds the doubled n^(2N) state, to save it
        n_pts, n_part = params["grid_points"], params["n_particles"]
        key, what, axes = "grid_points", "N-body Y factor", n_part
        if params["checkpoint"] and ok("checkpoint"):
            key, what, axes = "checkpoint", "the doubled state it saves", 2 * n_part
        state_bytes = 16 * n_pts**axes
        if state_bytes > cap:
            bad.add("n_particles")  # no centre check on a state that cannot be built
            diags.append(
                f"{key}: {what} needs 16*{n_pts}^{axes} = "
                f"{state_bytes} bytes, over the memory cap {cap}"
            )
    if exp == "classical-dobrushin" and ok("N"):
        for n in _as_list(params["N"]):
            if n > SUPPORT_CAP:
                diags.append(f"N: entry {n} exceeds the transport support cap {SUPPORT_CAP}")
        need = 2 * max(_as_list(params["N"]))
        if ok("reference_size") and params["reference_size"] < need:
            diags.append(
                f"reference_size: {params['reference_size']!r} must be at least "
                f"2*max(N) = {need}: each repeat draws two N-point subsamples of "
                "the reference cloud without replacement"
            )
    if "dt" in params and ok("dt", "times", "t_final", "n_times"):
        dt = float(params["dt"])
        try:
            # more intervals than steps cannot all be whole: no need to list them
            if "n_times" in params and params["n_times"] - 1 > params["t_final"] / dt + 0.5:
                raise ValueError(f"n_times - 1 is more than t_final/dt = {params['t_final'] / dt}")
            time_schedule(_sample_times(params), dt)
        except ValueError as err:
            diags.append(
                f"times: {err}"
                if "times" in params
                else f"n_times: sample times must be an integer multiple of dt apart; {err}"
            )
    if "grid_points" in params and ok("grid_points", "box"):
        n_pts, box = params["grid_points"], params["box"]
        at = f"box={box}, grid_points={n_pts}"
        for eps in filter(_positive, _as_list(params["epsilon"])):
            k_max = math.pi * n_pts / (2 * box)
            step = params["dt"] if exp == "quantum-dobrushin" and ok("dt") else 0.0
            if step * eps * k_max**2 / 2.0 >= math.pi:
                diags.append(
                    f"dt={step}: kinetic phase at the Nyquist mode exceeds pi "
                    f"for epsilon={eps}, {at}"
                )
            if cap is None or 16 * n_pts > cap:
                break  # no usable cap, or the runner's own grid is over it
            grid = GridSpec(1, 1, n_pts, float(box), float(eps))
            # the rule coherent_state applies, on the runner's grid
            for label, q, p in _coherent_centres(exp, params, ok):
                try:
                    _check_center_inside(grid, q, p)
                except ValueError as err:
                    diags.append(
                        f"{label} must be clear of the box edge and the momentum edge "
                        f"at epsilon={eps}, {at} ({err})"
                    )
                    break
    return diags


def _resolve(raw: dict, spec: dict) -> dict:
    """Each parameter of `spec`, from `raw` where it is given, else its default."""
    return {key: raw[key] if key in raw else default for key, (default, _, _) in spec.items()}


def validate_config(raw: dict) -> list:
    """Schema and cross-field checks; returns human-readable diagnostics."""
    if not isinstance(raw, dict):
        return ["config must be a JSON object"]
    diags = []
    exp = raw.get("experiment")
    if exp not in PARAMS:
        diags.append(
            f"experiment: unknown id {exp!r}; expected one of {', '.join(PARAMS)}"
        )
    diags += _potential_diagnostics(raw.get("potential", {}), exp)
    if "seed" in raw and not (_is_int(raw["seed"]) and raw["seed"] >= 0):
        diags.append("seed: must be a nonnegative integer")
    if "out" in raw and not (raw["out"] is None or isinstance(raw["out"], str)):
        diags.append("out: must be a string or null")
    if exp not in PARAMS:
        return diags
    spec = PARAMS[exp]
    top_level = ("experiment", "potential", "seed", "out")
    diags += [f"{key}: not a parameter of {exp}" for key in raw if key not in (*spec, *top_level)]
    params = _resolve(raw, spec)
    found = {key: _value_diagnostics(key, params[key], *spec[key][1:]) for key in spec}
    diags += [d for key_diags in found.values() for d in key_diags]
    return diags + _cross_field_diagnostics(exp, params, {key for key in spec if found[key]})


def build_config(raw: dict) -> ExperimentConfig:
    diags = validate_config(raw)
    if diags:
        raise ValueError("invalid config: " + "; ".join(diags))
    return ExperimentConfig(
        experiment=raw["experiment"],
        potential=dict(raw.get("potential", {})),
        seed=raw.get("seed", 0),
        out=raw.get("out"),
        params=_resolve(raw, PARAMS[raw["experiment"]]),
    )


def _as_list(v):
    return list(v) if isinstance(v, (list, tuple)) else [v]


def _run_sweep(one, n: int, jobs: int) -> list:
    """The entries of one(0), ..., one(n - 1), concatenated in sweep order
    whatever order the `jobs` worker threads finish in."""
    if jobs <= 1 or n <= 1:
        chunks = map(one, range(n))
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(one, range(n)))
    return [r for chunk in chunks for r in chunk]


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class _SolvePool:
    """`workers` threads that run solve blocks while the threads that submit
    them go on with their sweep.

    The first error stops the run early: `check` raises the first error a
    block raised or the `with` block exited with, and the pool calls it
    before it starts each block, as the sweep does before each segment and a
    block of several solves before each solve.  Leaving the `with` block
    cancels the blocks still queued (on success none are) and waits for the
    running ones.
    """

    def __init__(self, workers: int):
        self.workers = workers
        self._pool = ThreadPoolExecutor(max_workers=workers)
        self._errors = []  # list.append is atomic: the first error stays first

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self._errors.append(exc)  # running blocks stop at their next solve
        self._pool.shutdown(cancel_futures=True)

    def submit(self, block):
        return self._pool.submit(self._run, block)

    def _run(self, block):
        self.check()  # a block still queued when an error comes never starts
        try:
            return block()
        except Exception as err:
            self._errors.append(err)
            raise

    def check(self) -> None:
        if self._errors:
            raise self._errors[0]


def _solve_workers(tasks: int, jobs: int, sweep: int) -> int:
    """Threads of a run's `_SolvePool`: the cores its sweep threads leave
    free, at least one, and no more than the `tasks` the run queues.  A
    sweep of `sweep` points runs on min(jobs, sweep) threads."""
    return min(tasks, max(1, _usable_cpus() // min(jobs, sweep)))


def _resolved(entries: list) -> list:
    """The rows of a pipelined sweep, in sweep order: each entry is a row, or
    the future of one queued on a `_SolvePool`."""
    return [e.result() if isinstance(e, Future) else e for e in entries]


def _queue_husimi_lower_row(
    solves: _SolvePool, rho1, rho2, eps: float, row_id: str, t: float, rhs: float, **row
):
    """Future of the row comparing mk_eps_lower(rho1, rho2, eps) with `rhs`.

    The Husimi lattices are built here, on the sweep thread, and only their
    transport solve goes on `solves`: the density matrices stay off the
    queue, so the sweep frees them as it goes on.
    """
    mu1, mu2 = husimi_lattices(rho1, rho2, eps)
    return solves.submit(
        lambda: bounds.make_report(row_id, t, lattice_lower(mu1, mu2, eps), rhs, **row)
    )


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
    params = cfg.params
    n_clouds = int(params["n_clouds"])
    max_support = int(params["max_support"])
    dims = [int(k) for k in _as_list(params["dims"])]
    p = float(params["p"])
    children = np.random.SeedSequence(cfg.seed).spawn(n_clouds)

    def one(i):
        rng = np.random.default_rng(children[i])
        k = dims[i % len(dims)]
        m = int(rng.integers(2, max_support + 1))
        mu = DiscreteMeasure.equal_weights(rng.standard_normal((m, k)))
        nu = DiscreteMeasure.equal_weights(rng.standard_normal((m, k)))
        dist, plan = wasserstein_exact(mu, nu, p)
        # plan.cost_value and the oracle evaluate the same dot product, so
        # the comparison is exact; dist**p would reintroduce root roundoff
        err = abs(plan.cost_value - _brute_assignment_cost(cdist(mu.points, nu.points) ** p))
        a, b = dual_potentials(mu, nu, p)
        gap = kantorovich_gap(mu, nu, p, plan, a, b)
        consts = {"p": p, "d": k, "support": m, "instance": i}
        return [
            bounds.make_report(
                "exact-vs-permutation-oracle", float(i), err, 0.0, tolerance=0.0, constants=consts
            ),
            bounds.make_report(
                "kantorovich-duality-gap", float(i), gap, 0.0, tolerance=1e-9, constants=consts
            ),
        ]

    return _run_sweep(one, n_clouds, jobs)


# ---------------------------------------------------------------------------
# combineq


def run_combineq(cfg: ExperimentConfig, jobs: int = 1) -> list:
    V = make_potential(cfg.potential)
    params = cfg.params
    p = float(params["p"])
    N_list = [int(N) for N in _as_list(params["N"])]
    n_mc = int(params["mc_samples"])
    children = np.random.SeedSequence(cfg.seed).spawn(len(N_list))
    dist = bounds.StandardNormal()

    def f_scalar(z):
        return V.grad(np.asarray(z, dtype=float)[:, None])[:, 0]

    def one(idx):
        N = N_list[idx]
        mean, se = bounds.combineq_mc(
            f_scalar, dist, p, N, n_mc, int(children[idx].generate_state(1)[0])
        )
        consts = _potential_constants(V, p=p, N=N, mc_samples=n_mc)
        return [
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

    reports = _run_sweep(one, len(N_list), jobs)
    if len(N_list) >= 2:
        means = [r.lhs_measured for r in reports if r.inequality_id == "consistency-vs-even-constant"]
        slope = float(np.polyfit(np.log(N_list), np.log(means), 1)[0])
        reports.append(
            bounds.make_report(
                "consistency-scaling-slope",
                0.0,
                abs(slope - (-1.0)),
                0.0,
                tolerance=float(params["slope_tolerance"]),
                constants={"slope": slope, "p": p},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# classical-dobrushin


def _submit_chaos_repeats(solves: _SolvePool, Y, H, ref_pool, repeats: int, seed_seq) -> list:
    """Queue on `solves` the repeats of the baseline-corrected mean W2^2
    between per-configuration empirical clouds (N-body positions Y and
    momenta H, each (M, N, d)) and same-size reference subsamples; returns
    the futures `_empirical_chaos_sq` reduces.

    Each repeat matches one N-body configuration against a fresh N-point
    subsample of the reference flow and subtracts the reference-vs-reference
    floor measured against the *same* anchor subsample, so the finite-sample
    floor cancels in expectation and is strongly variance-reduced.  What is
    left is the chaos deviation of the empirical marginal.

    The repeats run in `solves.workers` contiguous blocks (the assignment
    solver releases the GIL).  Repeat r draws only from its own child of
    `seed_seq`, and the futures are listed in repeat order, so the reduced
    (mean, standard error, floor) is bit-identical for every worker count.
    The arrays are only read, so the caller may advance its ensemble while
    the blocks run.
    """
    n_samples, n_points, _ = Y.shape
    children = seed_seq.spawn(repeats)

    def repeat(r):
        rng = np.random.default_rng(children[r])
        i = rng.integers(n_samples)
        cloud = np.hstack([Y[i], H[i]])
        idx = rng.choice(ref_pool.shape[0], size=2 * n_points, replace=False)
        anchor = DiscreteMeasure.equal_weights(ref_pool[idx[:n_points]])
        control = DiscreteMeasure.equal_weights(ref_pool[idx[n_points:]])
        d_nb, _ = wasserstein_exact(DiscreteMeasure.equal_weights(cloud), anchor, p=2.0)
        d_ff, _ = wasserstein_exact(control, anchor, p=2.0)
        return d_nb**2 - d_ff**2, d_ff**2

    def block(lo, hi):
        # one task per block, not per repeat: a small solve costs less than a future
        out = []
        for r in range(lo, hi):
            solves.check()
            out.append(repeat(r))
        return out

    blocks = solves.workers
    return [
        solves.submit(partial(block, b * repeats // blocks, (b + 1) * repeats // blocks))
        for b in range(blocks)
    ]


def _empirical_chaos_sq(futures: list):
    """(mean, standard error, floor) of the repeats `_submit_chaos_repeats`
    queued, read back in repeat order."""
    diffs, bases = np.array([pair for f in futures for pair in f.result()]).T
    se = float(diffs.std(ddof=1) / math.sqrt(diffs.size)) if diffs.size > 1 else 0.0
    return float(diffs.mean()), se, float(bases.mean())


def run_classical_dobrushin(cfg: ExperimentConfig, jobs: int = 1) -> list:
    """Growth and marginal-transport rows per N and sample time, then the
    N-rate fit.

    The run is a pipeline: after integrating a sample time, the sweep queues
    that time's subsample solves on one pool and goes straight on to the
    next segment and the next N; the marginal rows are built from the solves
    once the sweep is done, in sweep order.
    """
    V = make_potential(cfg.potential)
    params = cfg.params
    p = float(params["p"])
    N_list = [int(N) for N in _as_list(params["N"])]
    M = int(params["samples"])
    ref_size = int(params["reference_size"])
    dt = float(params["dt"])
    schedule = time_schedule(_sample_times(params), dt)
    repeats = int(params["repeats"])

    root = np.random.SeedSequence(cfg.seed)
    ref_seed, *per_n = root.spawn(1 + len(N_list))

    lambda_p = bounds.lambda_p_constant(p, V.lip_grad)

    def one(idx):
        N = N_list[idx]
        ens_seed, sub_seed = per_n[idx].spawn(2)
        reference = sample_gaussian_cloud(ref_size, 1, ref_seed)
        ens = diagonal_ensemble(M, N, reference, int(ens_seed.generate_state(1)[0]))
        consts = _potential_constants(
            V, p=p, N=N, n=1, samples=M, dt=dt, Lambda_p=lambda_p, K_p=bounds.k_constant(p)
        )
        segments = []
        sub_children = sub_seed.spawn(len(schedule))
        for j, (t, n_steps) in enumerate(schedule):
            solves.check()
            ens, reference, _, _ = run_coupled_trajectory(
                ens, reference, V, dt, n_steps, p=p, record_every=max(n_steps, 1)
            )
            per = dobrushin_per_sample(ens, p)
            growth = bounds.make_report(
                GROWTH_ROW,
                t,
                float(per.mean()),
                bounds.classical_rhs(V, p, N, 1, t),
                lhs_stderr=float(per.std(ddof=1) / math.sqrt(M)),
                constants=consts,
            )
            # each Verlet step makes fresh arrays, so the solves need no copy
            f_pool = ens.reference_as_cloud().points.points
            blocks = _submit_chaos_repeats(solves, ens.Y, ens.H, f_pool, repeats, sub_children[j])
            segments.append((growth, blocks))
        return segments

    reports = []
    with _SolvePool(_solve_workers(repeats, jobs, len(N_list))) as solves:
        for growth, blocks in _run_sweep(one, len(N_list), jobs):
            debiased, deb_se, floor = _empirical_chaos_sq(blocks)
            reports.append(growth)
            reports.append(
                bounds.make_report(
                    "marginal-transport-convergence",
                    growth.time,
                    debiased,
                    growth.rhs,
                    lhs_stderr=deb_se,
                    tolerance=float(params["w2_tolerance"]),
                    constants=dict(growth.constants, repeats=repeats, baseline=floor),
                )
            )
    if len(N_list) >= 2:
        # The N-rate is fit on the directly measured coupling distance
        # (D^p_N)^(1/p): its Monte-Carlo error is ~1e-5 while the subsample-W2
        # excess over the finite-sample floor is indistinguishable from zero
        # at desk scale, so only the former can carry a log-log fit.  Each N
        # emits one growth row per sample time; the last is the final D^p_N.
        growth = [r.lhs_measured for r in reports if r.inequality_id == GROWTH_ROW]
        finals = np.array([max(d, 1e-300) for d in growth[len(schedule) - 1 :: len(schedule)]])
        slope = float(np.polyfit(np.log(N_list), np.log(finals) / p, 1)[0])
        reports.append(
            bounds.make_report(
                "coupling-distance-scaling-slope",
                schedule[-1][0],
                abs(slope - (-0.5)),
                0.0,
                tolerance=float(params["slope_tolerance"]),
                constants={"slope": slope, "p": p},
            )
        )
    return reports


# ---------------------------------------------------------------------------
# vlasov-moments


def run_vlasov_moments(cfg: ExperimentConfig, jobs: int = 1) -> list:
    V = make_potential(cfg.potential)
    params = cfg.params
    p = float(params["p"])
    M = int(params["cloud_size"])
    dt = float(params["dt"])
    cloud = sample_gaussian_cloud(M, V.dim, cfg.seed)

    def moment_stats(c):
        r = point_moments(c, p)
        return float(r.mean()), float(r.std(ddof=1) / math.sqrt(r.size))

    m0, se0 = moment_stats(cloud)
    rows = []
    for t, n_steps in time_schedule(_sample_times(params), dt):
        cloud = vlasov_advance(cloud, V, dt, n_steps)
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
    """Three rows per random coherent pair: the product-coupling cost
    identity, the Husimi lower bound against that cost, and the cost floor.

    Each pair's Husimi lattices are built on the sweep thread and their
    transport solve is queued on one pool; the sweep goes straight on to
    the next pair, and the rows are read back in sweep order at the end.
    """
    params = cfg.params
    eps_list = [float(e) for e in _as_list(params["epsilon"])]
    n_pairs = int(params["pairs"])
    per_eps = max(1, -(-n_pairs // len(eps_list)))  # ceil division
    n_pts = int(params["grid_points"])
    box = float(params["box"])
    scale = float(params["center_scale"])
    children = np.random.SeedSequence(cfg.seed).spawn(len(eps_list))

    def one(idx):
        eps = eps_list[idx]
        rng = np.random.default_rng(children[idx])
        sgrid = GridSpec(1, 1, n_pts, box, eps)
        rows = []
        for k in range(per_eps):
            solves.check()
            z1 = rng.uniform(-scale, scale, 2)
            z2 = rng.uniform(-scale, scale, 2)
            s1 = DiscreteMeasure(z1[None, :], np.array([1.0]))
            s2 = DiscreteMeasure(z2[None, :], np.array([1.0]))
            _, plan = wasserstein_exact(s1, s2, p=2.0)
            coupling = symmetrize_initial_coupling(plan, s1, s2, 1)
            mixture = coupling_to_factored_mixture(sgrid, 1, coupling)
            qp = qp_cost_trace(mixture, eps)
            expected = float(np.sum((z1 - z2) ** 2)) + 2.0 * eps
            rho1 = state_density_matrix(coherent_state(sgrid, z1[0], z1[1]))
            rho2 = state_density_matrix(coherent_state(sgrid, z2[0], z2[1]))
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
                _queue_husimi_lower_row(
                    solves,
                    rho1,
                    rho2,
                    eps,
                    "husimi-lower-vs-coupling-cost",
                    t_tag,
                    qp,
                    tolerance=1e-3,
                    constants=consts,
                ),
                bounds.make_report(
                    "coupling-cost-floor", t_tag, 2.0 * eps, qp, tolerance=1e-6, constants=consts
                ),
            ]
        return rows

    with _SolvePool(_solve_workers(len(eps_list) * per_eps, jobs, len(eps_list))) as solves:
        return _resolved(_run_sweep(one, len(eps_list), jobs))


# ---------------------------------------------------------------------------
# toeplitz-identities


def run_toeplitz_identities(cfg: ExperimentConfig, jobs: int = 1) -> list:
    params = cfg.params
    eps = float(params["epsilon"])
    n_pts = int(params["grid_points"])
    box = float(params["box"])
    n_symbols = int(params["symbols"])
    grid = GridSpec(1, 1, n_pts, box, eps)
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed))
    rows = []

    # (a) Wigner of a coherent state against its closed form
    q0, p0 = TOEPLITZ_CENTER
    mixed_range, symbol_range = TOEPLITZ_ATOM_RANGES
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
    norm_err = abs(W.integral() - 1.0)
    rows.append(
        bounds.make_report(
            "wigner-normalization", 0.0, norm_err, 0.0, tolerance=1e-6, constants=consts
        )
    )

    # (b) Toeplitz trace identity, matrix route vs atom route
    mixed_symbol = DiscreteMeasure(
        rng.uniform(-mixed_range, mixed_range, (3, 2)), np.full(3, 1.0 / 3.0)
    )
    rho_mixed = toeplitz_operator(grid, mixed_symbol)
    for i in range(n_symbols):
        k = int(rng.integers(1, 7))
        pts = rng.uniform(-symbol_range, symbol_range, (k, 2))
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
    """Coupling-cost growth and Husimi lower-chain rows per epsilon and
    sample time, then the unitarity row of the coupled evolution.

    The lower chain's lattices are built on the sweep thread at each sample
    time and their transport solve is queued on one pool while the
    evolution goes on; the rows are read back in sweep order at the end.
    """
    V = make_potential(cfg.potential)
    params = cfg.params
    eps_list = [float(e) for e in _as_list(params["epsilon"])]
    N = int(params["n_particles"])
    n_pts = int(params["grid_points"])
    box = float(params["box"])
    dt = float(params["dt"])
    q0, p0 = (float(v) for v in params["center"])
    checkpoint = params["checkpoint"]
    schedule = time_schedule(_sample_times(params), dt)
    lam = bounds.lambda_constant(V.lip_grad)

    def one(idx):
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
        consts = _potential_constants(V, eps=eps, N=N, n=1, dt=dt, Lambda=lam, grid_points=n_pts)
        rows = []
        drift_max = 0.0
        t_reached = 0.0
        steps_taken = 0
        for t, n_steps in schedule:
            solves.check()
            advanced = []
            for w, state, ref in components:
                for _ in range(n_steps):
                    state, ref = factored_coupled_advance(state, ref, V, dt)
                advanced.append((w, state, ref))
            components = advanced
            t_reached = t
            steps_taken += n_steps
            try:
                for w, state, _ in components:
                    state.check_guard_band()
                    drift_max = max(drift_max, abs(state.norm() - 1.0))
            except GuardBandError as err:
                # abort policy: a bound evaluated on a leaking state is
                # meaningless, so mark the row failed and stop the sweep
                rows.append(
                    bounds.make_report(GUARD_BAND_ROW, t, 1.0, 0.0, tolerance=0.0, constants=consts)
                )
                print(f"guard band tripped at t={t}: {err}", file=sys.stderr)
                break
            mixture = [(w, state) for w, state, _ in components]
            D = qp_cost_trace(mixture, eps) / N
            rhs = bounds.quantum_rhs("factorized", V, eps, N, 1, t)
            rows.append(
                bounds.make_report(
                    "coupling-cost-growth", t, D, rhs, tolerance=1e-2 * rhs, constants=consts
                )
            )
            rows.append(
                _queue_husimi_lower_row(
                    solves,
                    reduced_density(mixture, [0]),
                    reduced_density(mixture, [N]),
                    eps,
                    "husimi-lower-chain",
                    t,
                    D,
                    tolerance=1e-2,
                    constants=consts,
                )
            )
        # labelled with the time actually integrated: an abort stops short
        rows.append(
            bounds.make_report(
                "doubled-evolution-unitarity",
                float(t_reached),
                drift_max,
                0.0,
                tolerance=1e-10,
                constants={"eps": eps, "dt": dt, "steps": steps_taken},
            )
        )
        if checkpoint:
            save_state(f"{checkpoint}.eps{eps}.mflabst", components[0][1].doubled())
        return rows

    tasks = len(eps_list) * len(schedule)
    with _SolvePool(_solve_workers(tasks, jobs, len(eps_list))) as solves:
        return _resolved(_run_sweep(one, len(eps_list), jobs))


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
