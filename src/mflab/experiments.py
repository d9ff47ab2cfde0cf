"""Experiment drivers: every runnable study as a pure function from a config
to a list of BoundReport rows.

Each driver spawns all of its random streams from the config seed up front
and emits rows in sweep order, so a given (config, seed) pair produces
byte-identical output no matter how many worker threads execute the sweep.
"""
from __future__ import annotations

import ctypes
import math
import os
import sys
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from itertools import permutations

import numpy as np

from . import bounds
from .classical import (
    diagonal_ensemble,
    dobrushin_per_sample,
    field_block_rows,
    point_moments,
    run_coupled_trajectory,
    sample_gaussian_cloud,
    sums_field_exactly,
    vlasov_advance,
)
from .potentials import Potential, make_cosine_potential, make_gaussian_potential
from .quantum import (
    FactoredCoupling,
    GridSpec,
    GuardBandError,
    check_guard_band,
    coherent_state,
    coupling_to_factored_mixture,
    factored_coupled_advance,
    guard_band_mass,
    husimi_lattices,
    husimi_transform,
    lattice_lower,
    qp_cost_trace,
    reduced_density,
    save_state,
    state_density_matrix,
    toeplitz_operator,
    toeplitz_trace_against,
    trace_product,
    wigner_transform,
)
# check_guard_band, coupled_quantum_advance and mk_eps_lower are not called
# here, but perfbench/tracing.py wraps them by name on this module; they leave
# the imports when the benchmark's spans are re-pointed
from .quantum.dynamics import coupled_quantum_advance
from .quantum.grids import GUARD_BAND_TOL, memory_cap_bytes
from .quantum.metrics import mk_eps_lower
from .quantum.phase_space import _check_center_inside
from .transport import (
    SUPPORT_CAP,
    DiscreteMeasure,
    _cost_matrix,
    assignment_cost,
    dual_potentials,
    kantorovich_gap,
    release_workspace,
    wasserstein_exact,
)

#: Row of classical-dobrushin that carries D^p_N at each sample time.
GROWTH_ROW = "dobrushin-functional-growth"

#: Tolerance of classical-dobrushin's marginal-transport-convergence rows, on
#: the debiased mean W2^2.
W2_TOLERANCE = 2e-3
#: Tolerance of the N-rate rows, on |fitted slope - predicted slope|.
SLOPE_TOLERANCE = 0.15

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


def make_potential(spec: dict) -> Potential:
    family = spec.get("family", "gaussian")
    if not isinstance(family, str) or family not in POTENTIALS:
        raise ValueError(f"unknown potential family {family!r}")
    pot = _resolve(spec, POTENTIALS[family])
    d = int(pot["dim"])
    if family == "gaussian":
        return make_gaussian_potential(float(pot["amplitude"]), float(pot["width"]), d)
    k = pot["wavevector"]
    return make_cosine_potential(float(pot["amplitude"]), [1.0] * d if k is None else k, d)


#: The experiments whose runners are one-dimensional, and why: a potential of
#: another `dim` would run the 1-D flow under rows that claim its `d`.
_ONE_DIMENSIONAL = {
    "combineq": "which samples a scalar law",
    "classical-dobrushin": "whose particle clouds are one-dimensional",
    "quantum-dobrushin": "whose grids are one-dimensional",
}


def _potential_diagnostics(pot, exp) -> list:
    """The fields `make_potential` reads, checked against `POTENTIALS`, and
    the two rules that tie them: the dimension experiment `exp` can run,
    and a `wavevector` with `dim` entries."""
    if not isinstance(pot, dict):
        return ["potential: must be an object"]
    fam = pot.get("family", "gaussian")
    if not isinstance(fam, str) or fam not in POTENTIALS:
        return [f"potential.family: unknown family {fam!r}"]
    spec = POTENTIALS[fam]
    diags = [
        f"potential.{key}: not a field of the {fam} potential"
        for key in pot
        if key not in ("family", *spec)
    ]
    pot = _resolve(pot, spec)
    found = {key: _value_diagnostics(f"potential.{key}", pot[key], *spec[key][1:]) for key in spec}
    d, k = pot["dim"], pot.get("wavevector")
    if not found["dim"]:
        if exp in _ONE_DIMENSIONAL and d != 1:
            why = _ONE_DIMENSIONAL[exp]
            found["dim"].append(f"potential.dim: {d!r} must be 1 for {exp}, {why}")
        if k is not None and not found["wavevector"] and len(k) != d:
            found["wavevector"].append(f"potential.wavevector: {k!r} must be a list of dim numbers")
    return diags + [msg for key_diags in found.values() for msg in key_diags]


def _power_of_two(n) -> bool:
    """The grid sizes `GridSpec` accepts: integer powers of two >= 2."""
    return _is_int(n) and n >= 2 and n & (n - 1) == 0


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite int or float: Python's json reads NaN and Infinity as floats."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


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


def _count(lo: int, hi: int):
    """A count of repeated work: an integer from lo to hi, where hi is the
    work bound, at least 100 times the default and every value in use."""
    return (lambda x: _is_int(x) and lo <= x <= hi), f"an integer from {lo} to {hi}, the work bound"


def _number_at_least(lo: float):
    return (lambda x: _is_number(x) and x >= lo), f"a number >= {lo}"


@dataclass(frozen=True)
class _Each:
    """`accepts` of a sweep key: one value or a nonempty list of them, each
    entry checked on its own."""

    ok: object


_POSITIVE = (_positive, "a positive number")
_EXPONENT = _number_at_least(1)
# grid_points and n_particles stop where the smallest state they allow, 2^30
# points of one particle or 30 particles on 2 points, takes 16 GiB, 8 times
# the default memory cap, so no state size is computed past them
_GRID_POINTS = (lambda n: _power_of_two(n) and n <= 2**30, "an integer power of two from 2 to 2^30")
_PARTICLE_COUNTS = (_Each(lambda n: _is_int(n) and n >= 1), "a positive integer")
_EPSILONS = (_Each(_positive), "a positive number")
_SAMPLE_TIMES = (_increasing_times, "a positive number or a strictly increasing list of them")
_CENTER = (
    lambda x: isinstance(x, list) and len(x) == 2 and all(map(_is_number, x)),
    "a list of two numbers [q, p]",
)
# dim stops at 2^20, where the list of ones a cosine potential without a
# wavevector is built from takes 8 MiB: validation builds the potential, and a
# dim past numpy's largest array dimension cannot even draw a one-point cloud
_DIM = (lambda d: _is_int(d) and 1 <= d <= 2**20, "an integer from 1 to 2^20")
# ot-selftest's dims stop there too, so no covariance size is computed past
# them; the memory cap stops them far below (`_check_ot_selftest`)
_DIMS = (
    lambda x: bool(_as_list(x)) and all(map(_DIM[0], _as_list(x))),
    "an integer from 1 to 2^20 or a nonempty list of them",
)

# combineq's p stops at 3: its consistency-scaling-slope row fits the
# N^(-p/2) law over N = 4, 16, 64 by default, which past p = 3 is still
# preasymptotic, and the row fails on correct code (seeds 0-4 at the default
# mc_samples: lhs 0.137-0.149 at p = 4 and 0.181-0.198 at p = 5, against a
# tolerance of 0.15; 0.096-0.106 at p = 3)
_COMBINEQ_EXPONENT = (
    lambda p: _is_number(p) and 1 <= p <= 3,
    "a number from 1 to 3: past 3 the N-rate fit over N = 4, 16, 64 is preasymptotic",
)

#: Every field of each potential family but `family` itself (which defaults
#: to gaussian), in `PARAMS`' format; `make_potential` fills in the defaults,
#: and a cosine `wavevector` of None is ones in each of `dim` components.
POTENTIALS = {
    "gaussian": {
        "dim": (1, *_DIM),
        "amplitude": (1.0, _is_number, "a number"),
        "width": (1.0, *_POSITIVE),
    },
    "cosine": {
        "dim": (1, *_DIM),
        "amplitude": (1.0, _is_number, "a number"),
        "wavevector": (
            None,
            lambda k: k is None or (isinstance(k, list) and all(map(_is_number, k))),
            "a list of dim numbers",
        ),
    },
}

#: Every parameter each runner reads, as key: (default, accepts, description).
#: `build_config` fills in the defaults, so a runner reads `cfg.params[key]`;
#: `validate_config` reports a value its runner cannot use as
#: "<key>: <value> must be <description>", and any other key as unknown.
PARAMS = {
    "classical-dobrushin": {
        "p": (2.0, *_EXPONENT),
        "N": ([16, 64, 256], *_PARTICLE_COUNTS),
        "samples": (2000, *_int_at_least(2)),
        "reference_size": (4096, *_count(2, 10**6)),
        "dt": (0.025, *_POSITIVE),
        "times": ([0.25, 0.5, 1.0], *_SAMPLE_TIMES),
        "repeats": (256, *_count(2, 10**5)),
    },
    "quantum-dobrushin": {
        "epsilon": ([0.5, 0.25], *_EPSILONS),
        "n_particles": (2, lambda n: _is_int(n) and 1 <= n <= 30, "an integer from 1 to 30"),
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
        "pairs": (20, *_count(1, 10**4)),
        "grid_points": (256, *_GRID_POINTS),
        "box": (6.0, *_POSITIVE),
        "center_scale": (1.0, *_number_at_least(0)),
    },
    "toeplitz-identities": {
        "epsilon": (0.25, *_POSITIVE),
        "grid_points": (256, *_GRID_POINTS),
        "box": (6.0, *_POSITIVE),
        "symbols": (10, *_count(0, 10**4)),
    },
    "combineq": {
        "p": (2.0, *_COMBINEQ_EXPONENT),
        "N": ([4, 16, 64], *_PARTICLE_COUNTS),
        "mc_samples": (100_000, *_count(1, 10**8)),
    },
    "ot-selftest": {
        "n_clouds": (50, *_count(1, 10**4)),
        "max_support": (
            6,
            lambda x: _is_int(x) and 2 <= x <= 9,
            "an integer from 2 to 9 (the brute-force oracle enumerates m! permutations)",
        ),
        "dims": ([2, 4], *_DIMS),
    },
    "vlasov-moments": {
        "p": (2.0, *_EXPONENT),
        "cloud_size": (4096, *_count(2, 10**6)),
        "dt": (0.05, *_POSITIVE),
        "times": ([0.25, 0.5, 0.75, 1.0], *_SAMPLE_TIMES),
    },
}

#: Most time-step work a config may plan: the steps `time_schedule` takes to
#: its last sample time, times grid_points for quantum-dobrushin.  It stops a
#: runaway dt (1e-9 plans 10^7 to 10^8 steps, hours of work) at validation;
#: the defaults plan at most 40 classical steps and 25 * 64 quantum ones.
MAX_STEP_WORK = 10**5

#: Most pair-force work a config may plan, in each of two sums.  A
#: classical-dobrushin step evaluates all N^2 pairs of each N in every
#: sample: steps times `samples` times sum N^2 pair terms.  The defaults plan
#: 5.6e9, which take about 19 s on a 2-core VM; N = SUPPORT_CAP at the
#: defaults plans 3.4e11, and dt = 1e-5 plans 1.4e13, half a day.  And each
#: Verlet step evaluates a cloud's mean field twice, summed exactly over its
#: points unless `sums_field_exactly` says it is tabulated: vlasov-moments'
#: cloud and classical-dobrushin's reference.  The default dim-2
#: vlasov-moments plans 6.7e8 such terms, and 200000 points plan 1.6e12.
#: A combineq sample sums the field over its N points: `mc_samples` times
#: sum N terms, 8.4e6 at the defaults.
MAX_PAIR_WORK = 10**12

#: Most LP-seed work an ot-selftest config may plan.  Each cloud's
#: `dual_potentials` seeds its LP from eigendecompositions of k x k
#: covariances, k its `dims` entry, each of about k^3 flops: the config plans
#: the sum of k^3 over its n_clouds clouds.  Two clouds at k = 1024 (2.1e9)
#: took 0.78 s and at k = 2048 (1.7e10) 4.4 s on a 2-core x86 VM with one
#: BLAS thread, so the bound stops near half a minute; the defaults plan
#: 1800, and k = 11585, which the default memory cap allows, plans 7.8e13
#: at the default 50 clouds, hours of work.
MAX_EIGH_WORK = 10**11


def time_schedule(times, dt: float) -> list:
    """(t, n_steps) for each sample time t: n_steps = round((t - t_prev)/dt)
    steps take the state from the previous sample time (0 at first) to t.

    Raises ValueError naming every t, bar a leading t = 0, that no step reaches
    or that is more than 1e-9 relative off dt times the steps taken so far, or
    the first t whose step count overflows.
    """
    schedule, off = [], []
    t_prev, taken = 0.0, 0
    for t in times:
        steps = (float(t) - float(t_prev)) / dt  # Python floats overflow to inf, silently
        if not math.isfinite(steps):
            raise ValueError(f"({float(t)} - {float(t_prev)})/dt is not a finite step count")
        n_steps = int(round(steps))
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


def _compact(value) -> str:
    """repr(value) for a diagnostic that echoes a config value or a byte
    count, but an integer of more than 30 digits, also inside a list, reads
    2^k when it is a power of two and otherwise its leading digits and its
    digit count, so no number takes more than about 30 characters."""
    if isinstance(value, list):
        return "[" + ", ".join(map(_compact, value)) + "]"
    if not _is_int(value) or abs(value) < 10**30:
        return repr(value)
    sign, mag = "-" * (value < 0), abs(value)
    if mag & (mag - 1) == 0:
        return f"{sign}2^{mag.bit_length() - 1}"
    digits = str(mag)
    return f"{sign}{digits[:12]}... ({len(digits)} digits)"


def _value_diagnostics(key: str, value, accepts, what: str) -> list:
    if not isinstance(accepts, _Each):
        return [] if accepts(value) else [f"{key}: {_compact(value)} must be {what}"]
    entries = _as_list(value)
    if not entries:
        return [f"{key}: list must be nonempty"]
    return [f"{key}: entry {_compact(v)} must be {what}" for v in entries if not accepts.ok(v)]


def _schedule_steps(params: dict, ok, points: int = 1) -> tuple:
    """(diagnostics, steps to the last sample time or None): at most
    MAX_STEP_WORK steps times `points`, 1 with no grid, 0 where it is reported."""
    if not ok("dt", "times", "t_final", "n_times"):
        return [], None
    dt = float(params["dt"])
    try:
        # more intervals than steps cannot all be whole: no need to list them
        if "n_times" in params and params["n_times"] - 1 > params["t_final"] / dt + 0.5:
            raise ValueError(f"n_times - 1 is more than t_final/dt = {params['t_final'] / dt}")
        steps = sum(n for _, n in time_schedule(_sample_times(params), dt))
    except ValueError as err:
        if "times" in params:
            return [f"times: {err}"], None
        return [f"n_times: sample times must be an integer multiple of dt apart; {err}"], None
    if steps * points <= MAX_STEP_WORK:
        return [], steps
    on, bound = (f" on {points} grid points", " times grid points") if points > 1 else ("", "")
    plan = f"dt: {dt!r} plans {steps} steps{on}"
    return [f"{plan}, more work than the bound of {MAX_STEP_WORK} steps{bound}"], None


def _over_cap(what: str, n_pts: int, axes: int, cap, key: str = "grid_points") -> list:
    """The diagnostic of `key` for a runner's largest array, `what`, of
    n_pts^axes complex entries, when its 16 * n_pts^axes bytes (GridSpec's
    rule for a state, and check_matrix_bytes' for an n x n matrix at
    axes = 2) are over the memory cap `cap`; [] under it or when cap is None."""
    need = 16 * n_pts**axes
    if cap is None or need <= cap:
        return []
    formula = f"16*{n_pts}^{axes} = {_compact(need)} bytes"
    return [f"{key}: {what} needs {formula}, over the memory cap {cap}"]


def _grid_diagnostics(params: dict, ok, cap, centres=(), dt=0.0, guard=None) -> list:
    """At each positive epsilon: the kinetic phase of a `dt` step at the
    Nyquist mode, coherent_state's rule on each (label, q, p) of `centres`,
    then the t = 0 guard band of `copies` coherent states at (q0, p0), for a
    `guard` (label, q0, p0, copies).  The last two need a usable `cap`."""
    if not ok("grid_points", "box"):
        return []
    n_pts, box = params["grid_points"], params["box"]
    at = f"box={_compact(box)}, grid_points={n_pts}"
    k_max = math.pi * n_pts / (2 * box)  # Python floats overflow to inf, silently
    if not math.isfinite(k_max):
        return [f"box: {box!r} leaves a grid spacing with no finite Nyquist wavenumber"]
    diags = []
    for eps in filter(_positive, _as_list(params["epsilon"])):
        if dt * eps * k_max * k_max / 2.0 >= math.pi:
            phase = f"dt={dt}: kinetic phase at the Nyquist mode exceeds pi"
            diags.append(f"{phase} for epsilon={eps}, {at}")
        if cap is None or 16 * n_pts > cap:
            continue
        grid = GridSpec(1, 1, n_pts, float(box), float(eps))
        for label, q, p in centres:
            try:
                _check_center_inside(grid, q, p)
            except ValueError as err:
                edges = "must be clear of the box edge and the momentum edge"
                diags.append(f"{label} {edges} at epsilon={eps}, {at} ({err})")
                break
        else:
            if guard is None:
                continue
            label, q0, p0, copies = guard
            mass = guard_band_mass(coherent_state(grid, q0, p0)) ** copies
            if mass < 1.0 - GUARD_BAND_TOL:
                diags.append(
                    f"{label} leaves mass {mass:.15f} of the initial state inside half the box, "
                    f"below the guard band's 1 - {GUARD_BAND_TOL}, at epsilon={grid.epsilon}, {at}"
                )
    return diags


def _exact_field_work(key: str, size: int, d: int, queries: int, steps: int) -> list:
    """The pair terms of `steps` Verlet steps under the mean field of the
    cloud of `size` points in d dimensions, each evaluating it twice at
    `queries` points, bounded by MAX_PAIR_WORK where it is summed exactly."""
    terms = 2 * steps * size * queries
    if not sums_field_exactly(size, d) or terms <= MAX_PAIR_WORK:
        return []
    return [
        f"{key}: {size!r} plans {steps} steps of an exact mean-field sum in d = {d}, "
        f"{terms} pair terms, more work than the bound of {MAX_PAIR_WORK} pair terms"
    ]


def _finite_constants(V: Potential, *checks) -> list:
    """The first of `checks`, (what, function, *its arguments), whose value
    is not finite: a constant that overflows certifies nothing, and the run
    would end in an arithmetic error or a row that cannot be written."""
    for what, value, *args in checks:
        try:
            value = value(*args)
        except OverflowError:
            value = math.inf
        except MemoryError:
            continue  # a cloud too large to draw: the run ends in exit 3 on it
        if not math.isfinite(value):
            why = f"with sup_grad = {V.sup_grad} and lip_grad = {V.lip_grad}"
            return [f"potential: {what} is not finite, {why}"]
    return []


def _resolve(raw: dict, spec: dict) -> dict:
    """Each parameter of `spec`, from `raw` where it is given, else its default."""
    return {key: raw[key] if key in raw else default for key, (default, _, _) in spec.items()}


def validate_config(raw: dict) -> list:
    """Schema checks, then the experiment's check function in `EXPERIMENTS`,
    check(params, ok, V, cap, seed): ok(*keys) holds unless a key ("potential"
    and "seed" among them) is already reported, and cap is the memory cap, None
    without a grid or a usable cap.  Returns human-readable diagnostics."""
    if not isinstance(raw, dict):
        return ["config must be a JSON object"]
    diags = []
    exp = raw.get("experiment")
    if exp not in PARAMS:
        diags.append(
            f"experiment: unknown id {exp!r}; expected one of {', '.join(PARAMS)}"
        )
    pot_diags = _potential_diagnostics(raw.get("potential", {}), exp)
    diags += pot_diags
    seed = raw.get("seed", 0)
    seed_ok = _is_int(seed) and seed >= 0
    if not seed_ok:
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
    V, pot_error = None, []
    try:
        V = None if pot_diags else make_potential(raw.get("potential", {}))
    except ValueError as err:
        pot_error = [f"potential: {err}"]
    bad = {key for key in spec if found[key]}
    bad.update(k for k, fine in (("potential", V is not None), ("seed", seed_ok)) if not fine)
    cap = None
    if {"grid_points", "dims", "cloud_size"} & spec.keys():  # keys that size an array
        try:
            cap = memory_cap_bytes()
        except ValueError as err:
            diags.append(str(err))  # no check that needs the cap, no grid built
    diags += EXPERIMENTS[exp][1](params, lambda *keys: bad.isdisjoint(keys), V, cap, seed)
    return diags + pot_error


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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _find_malloc_trim():
    """The C library's `malloc_trim`, or None where it has none (any libc
    but glibc, or no C library ctypes can open).

    glibc hands threads malloc arenas of their own, so what a `_SolvePool`
    thread frees stays in its arena, out of the main thread's reach, until
    `malloc_trim(0)` hands every arena's free heap back.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    return trim


_MALLOC_TRIM = _find_malloc_trim()


class _SolvePool:
    """Up to `workers` threads that run queued solves while the sweep that
    queued them goes on, and the thread that closes the pool, which runs the
    solves still queued once the sweep is done.  `_run_sweep` counts its
    sweep threads among the cores, so on one core the pool has no thread
    and the closing thread runs every solve.  A thread starts only when a
    solve waits and no thread is idle, so a run that queues nothing starts
    none.

    A solve is a bare zero-argument callable: the queue holds it and
    nothing else, and what it returns is dropped, so a solve writes its
    result where its caller reads it, once the pool has closed and `check`
    has passed (before that, a pool with no thread has run none).

    The first error stops the run early: `check` raises the first error a
    solve or sweep point raised or the `with` block exited with, each time
    with the traceback recorded with it, so repeated checks do not lengthen
    it.  No thread takes a queued solve once an error has come, and `run`
    calls `check` before each solve and sweep point, as the sweep does
    before each segment.
    Leaving the `with` block runs the queued solves on the closing thread
    until none is left (none once an error has come), waits for the pool's
    threads, drops the solves an error left queued, drops the closing
    thread's assignment workspace (`release_workspace`; the pool's threads
    take theirs with them) and, once a solve has been queued, hands the heap
    the pool's threads freed back to the system (`_MALLOC_TRIM`).
    """

    def __init__(self, workers: int):
        self._workers = workers
        self._threads = []
        self._queue = deque()  # solves no thread has taken
        self._ready = threading.Condition()  # guards the queue, the threads and the counts
        self._idle = 0  # threads waiting for a solve that no submit has woken yet
        self._closing = False
        self._queued = False
        self._errors = []  # (error, traceback); list.append is atomic: the first stays first

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is not None:
            self._errors.append((exc, tb))  # later solves and sweep points stop at their check
        try:
            while (solve := self._take(wait=False)) is not None:
                self._solve(solve)
        finally:
            with self._ready:
                self._closing = True
                self._ready.notify_all()
            for thread in self._threads:
                thread.join()
            self._queue.clear()  # what an error left queued
            release_workspace()
        if self._queued and _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)

    def submit(self, solve) -> None:
        with self._ready:
            self._queued = True
            self._queue.append(solve)
            if self._idle:
                self._idle -= 1
                self._ready.notify()
            elif len(self._threads) < self._workers:
                name = f"mflab-solve-{len(self._threads)}"
                thread = threading.Thread(target=self._work, name=name)
                thread.start()
                self._threads.append(thread)

    def _take(self, wait: bool):
        """The next queued solve; None once an error has come, or when none
        is queued and the caller does not `wait` or the pool is closing."""
        with self._ready:
            while not self._errors:
                if self._queue:
                    return self._queue.popleft()
                if self._closing or not wait:
                    break
                self._idle += 1
                self._ready.wait()
        return None

    def _work(self):
        while (solve := self._take(wait=True)) is not None:
            self._solve(solve)

    def _solve(self, solve) -> None:
        try:
            self.run(solve)
        except Exception:
            pass  # `run` recorded it: `check` raises it, and no solve is taken after it

    def run(self, task):
        """task(), on the calling thread, unless an error came first; an
        error it raises stops the rest of the run."""
        self.check()
        try:
            return task()
        except BaseException as err:
            self._errors.append((err, err.__traceback__))
            raise

    def check(self) -> None:
        if self._errors:
            err, tb = self._errors[0]
            raise err.with_traceback(tb)


def _run_sweep(one, n: int, jobs: int) -> list:
    """The rows of one(0, solves), ..., one(n - 1, solves), in sweep order
    whatever order the `jobs` sweep threads finish in.

    `solves` is the run's one `_SolvePool`, with a thread for each core the
    min(jobs, n) sweep threads leave free, so sweep and pool threads never
    outnumber the usable CPUs (on one core the pool has none).  The thread
    that called `_run_sweep` closes the pool once the sweep is done and runs
    the solves still queued on the core the sweep has left.  Each entry a
    sweep point returns is a row, or a zero-argument function that gives the
    row once the pool has closed and every solve it queued is done.  A sweep
    point runs under the pool's error rule: the first error of any sweep
    point or solve stops the others at their next check.
    """
    with _SolvePool(max(0, _usable_cpus() - min(jobs, n))) as solves:

        def point(i):
            return solves.run(partial(one, i, solves))

        if jobs <= 1 or n <= 1:
            chunks = map(point, range(n))
        else:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                chunks = list(pool.map(point, range(n)))
        entries = [e for chunk in chunks for e in chunk]
    solves.check()  # a solve may fail after the sweep is done
    return [e() if callable(e) else e for e in entries]


def _queue_husimi_lower_row(
    solves: _SolvePool, state1, state2, row_id: str, t: float, rhs: float, **row
):
    """The row comparing mk_eps_lower(state1, state2) with `rhs`, deferred:
    a zero-argument function that reads the row the solve queued on `solves`
    writes into its one-element slot.  `_run_sweep` calls it only once
    `solves` has closed and `check` has passed, so the solve has run.

    The Husimi lattices are built here, on the sweep thread, and only their
    transport solve goes on `solves`: the states (wave functions or density
    matrices) stay off the queue, so the sweep frees them as it goes on.
    """
    mu1, mu2 = husimi_lattices(state1, state2)
    eps = state1.grid.epsilon
    slot = []
    solves.submit(
        lambda: slot.append(
            bounds.make_report(row_id, t, lattice_lower(mu1, mu2, eps), rhs, **row)
        )
    )
    return lambda: slot[0]


def _rate_rows(
    row_id: str, t: float, N_list, values, exponent: float, slope: float, p: float
) -> list:
    """The N-rate row: the slope of log(values) / exponent fitted over log N
    against the predicted `slope`, within SLOPE_TOLERANCE.  There is none
    unless N holds two distinct values, the least a fit over log N needs,
    and every value is positive, so that its log is finite."""
    if len(set(N_list)) < 2 or not all(v > 0 for v in values):
        return []
    fit = float(np.polyfit(np.log(N_list), np.log(values) / exponent, 1)[0])
    consts = {"slope": fit, "p": p}
    return [
        bounds.make_report(
            row_id, t, abs(fit - slope), 0.0, tolerance=SLOPE_TOLERANCE, constants=consts
        )
    ]


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


def _check_ot_selftest(params: dict, ok, V, cap, seed) -> list:
    # dual_potentials seeds its LP through the two clouds' k x k covariances,
    # 2 * 8 * k^2 bytes, and an eigh of each; it evaluates no bound
    if not ok("dims"):
        return []
    dims = _as_list(params["dims"])
    k = max(dims)
    diags = _over_cap(f"the LP seed's pair of {k} x {k} covariances", k, 2, cap, key="dims")
    if not ok("n_clouds"):
        return diags
    n_clouds = params["n_clouds"]
    work = sum(dims[i % len(dims)] ** 3 for i in range(n_clouds))  # cloud i runs dims[i % len]
    if work > MAX_EIGH_WORK:
        diags.append(
            f"dims: {_compact(params['dims'])} over {n_clouds} clouds plans sum k^3 = {work} for "
            f"the LP seeds' covariance eigendecompositions, more work than the bound of "
            f"{MAX_EIGH_WORK}"
        )
    return diags


def run_ot_selftest(cfg: ExperimentConfig, jobs: int = 1) -> list:
    params = cfg.params
    n_clouds = int(params["n_clouds"])
    max_support = int(params["max_support"])
    dims = [int(k) for k in _as_list(params["dims"])]
    children = np.random.SeedSequence(cfg.seed).spawn(n_clouds)

    def one(i, solves):
        rng = np.random.default_rng(children[i])
        k = dims[i % len(dims)]
        m = int(rng.integers(2, max_support + 1))
        mu = DiscreteMeasure.equal_weights(rng.standard_normal((m, k)))
        nu = DiscreteMeasure.equal_weights(rng.standard_normal((m, k)))
        dist, plan = wasserstein_exact(mu, nu)
        # plan.cost_value and the oracle evaluate the same dot product, so
        # the comparison is exact; dist**2 would reintroduce root roundoff
        C = _cost_matrix(mu, nu)
        err = abs(plan.cost_value - _brute_assignment_cost(C))
        a, b = dual_potentials(mu, nu)
        gap = kantorovich_gap(mu, nu, plan, a, b)
        consts = {"p": 2.0, "d": k, "support": m, "instance": i}
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


def _check_combineq(params: dict, ok, V, cap, seed) -> list:
    if ok("N", "mc_samples"):
        samples, sum_n = params["mc_samples"], sum(_as_list(params["N"]))
        if samples * sum_n > MAX_PAIR_WORK:
            return [
                f"N: {_compact(params['N'])} plans {samples} samples of sum N = "
                f"{_compact(sum_n)} field terms, {_compact(samples * sum_n)} in all, "
                f"more work than the bound of {MAX_PAIR_WORK} pair terms"
            ]
    if not ok("potential", "p", "N"):
        return []
    p, N = params["p"], min(_as_list(params["N"]))
    what = f"the general constant at p={p}, N={N}"
    return _finite_constants(V, (what, bounds.combineq_rhs, V.sup_grad, p, N))


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

    def one(idx, solves):
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
    means = [r.lhs_measured for r in reports if r.inequality_id == "consistency-vs-even-constant"]
    # F*mu_N - F*rho is a mean of N centred terms, of size N^(-1/2), so its
    # p-th moment falls like N^(-p/2)
    return reports + _rate_rows("consistency-scaling-slope", 0.0, N_list, means, 1.0, -p / 2, p)


# ---------------------------------------------------------------------------
# classical-dobrushin


def _submit_chaos_repeats(solves: _SolvePool, Y, H, ref_pool, repeats: int, seed_seq):
    """Queue on `solves` the repeats of the baseline-corrected mean W2^2
    between per-configuration empirical clouds (N-body positions Y and
    momenta H, each (M, N, d)) and same-size reference subsamples; returns
    the (repeats, 2) array of (excess, floor) pairs they fill in, for
    `_empirical_chaos_sq` to reduce once `solves` has closed.

    Each repeat matches one N-body configuration against a fresh N-point
    subsample of the reference flow and subtracts the reference-vs-reference
    floor measured against the *same* anchor subsample, so the finite-sample
    floor cancels in expectation and is strongly variance-reduced.  What is
    left is the chaos deviation of the empirical marginal.  This is the
    package's only subsample estimator: a plain mean over subsample pairs
    would keep that floor, which never reaches zero.

    Each repeat is one task on `solves` holding two solves of
    `transport.assignment_cost` on the point arrays themselves, with no
    measure or plan objects: the assignment solver releases the GIL, and
    the solves of one size reuse the solving thread's workspace
    (2 * 8 * N^2 bytes a thread), so every thread that solves takes the
    next repeat as it comes free and allocates no cost matrix for it.
    Repeat r draws only from its own child of `seed_seq` (the one
    `seed_seq.spawn(repeats)[r]` would give a fresh `seed_seq`), built
    where the repeat runs, and fills row r, so the reduced (mean, standard
    error, floor) is bit-identical for every pool size.  A queued
    repeat is one bare callable on the pool's queue (no future, no seed
    object), and a done one holds its 16 bytes of `pairs`.  Y, H and
    `ref_pool` are only read, so the caller may advance its ensemble while
    the repeats run.
    """
    n_samples, n_points, _ = Y.shape
    pairs = np.empty((repeats, 2))

    def w2_sq(x, y):
        # the square of the distance sqrt(cost), not the cost itself, so
        # the rows keep the bits wasserstein_exact's distance gave them
        return (assignment_cost(x, y)[0] ** 0.5) ** 2

    def repeat(r):
        child = np.random.SeedSequence(
            seed_seq.entropy, spawn_key=seed_seq.spawn_key + (r,), pool_size=seed_seq.pool_size
        )
        rng = np.random.default_rng(child)
        i = rng.integers(n_samples)
        idx = rng.choice(ref_pool.shape[0], size=2 * n_points, replace=False)
        anchor = ref_pool[idx[:n_points]]
        nb = w2_sq(np.hstack([Y[i], H[i]]), anchor)
        ff = w2_sq(ref_pool[idx[n_points:]], anchor)
        pairs[r] = nb - ff, ff

    for r in range(repeats):
        solves.submit(partial(repeat, r))
    return pairs


def _empirical_chaos_sq(pairs: np.ndarray):
    """(mean, standard error, floor) of the (excess, floor) pairs
    `_submit_chaos_repeats` filled in."""
    diffs, bases = pairs.T
    se = float(diffs.std(ddof=1) / math.sqrt(diffs.size)) if diffs.size > 1 else 0.0
    return float(diffs.mean()), se, float(bases.mean())


def _check_classical_dobrushin(params: dict, ok, V, cap, seed) -> list:
    diags = []
    ref_ok = ok("reference_size", "samples", "N")
    if ok("N"):
        for n in _as_list(params["N"]):
            if n > SUPPORT_CAP:
                diags.append(f"N: entry {n} exceeds the transport support cap {SUPPORT_CAP}")
        need = 2 * max(_as_list(params["N"]))
        if ok("reference_size") and params["reference_size"] < need:
            ref_ok = False  # no work check on a reference the run cannot subsample
            diags.append(
                f"reference_size: {params['reference_size']!r} must be at least "
                f"2*max(N) = {need}: each repeat draws two N-point subsamples of "
                "the reference cloud without replacement"
            )
    found, steps = _schedule_steps(params, ok)
    diags += found
    if steps is not None and ok("samples", "N"):
        samples = params["samples"]
        terms = steps * samples * sum(n * n for n in _as_list(params["N"]))
        if terms > MAX_PAIR_WORK:
            diags.append(
                f"dt: {float(params['dt'])!r} plans {steps} steps of {samples} samples, "
                f"{terms} pair terms, more work than the bound of {MAX_PAIR_WORK} steps "
                "times samples times sum N^2"
            )
    if steps is not None and ref_ok:
        # the reference's own Vlasov step and every mean-field particle query
        # its field: the reference is one-dimensional, like every cloud here
        size = params["reference_size"]
        queries = size + params["samples"] * sum(_as_list(params["N"]))
        diags += _exact_field_work("reference_size", size, 1, queries, steps)
    if not ok("potential", "p", "N", "times"):
        return diags
    N, t = min(_as_list(params["N"])), _sample_times(params)[-1]
    rate = "Lambda_p = 2 K_p (1 + 2^(p-1) Lip(grad V)^p)"
    checks = []
    # the growth rows' p, then p = 2 for the marginal rows' MK2
    for p in dict.fromkeys([params["p"], 2.0]):
        checks += [
            (f"{rate} at p={p}", bounds.lambda_p_constant, p, V.lip_grad),
            (f"the coupling bound at p={p}, N={N}, t={t}", bounds.classical_rhs, V, p, N, 1, t),
        ]
    return diags + _finite_constants(V, *checks)


def run_classical_dobrushin(cfg: ExperimentConfig, jobs: int = 1) -> list:
    """Growth and marginal-transport rows per N and sample time, then the
    N-rate fit.

    The sweep is one point: every N's ensemble advances together under the
    run's one Vlasov reference, one segment at a time.  After integrating a
    sample time, the run queues each N's subsample solves on its pool and
    goes straight on to the next segment; each marginal row is built from
    its solves once they are all done, and the rows come out N by N.
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

    def constants(q: float, N: int) -> dict:
        lam, k = bounds.lambda_p_constant(q, V.lip_grad), bounds.k_constant(q)
        return _potential_constants(V, p=q, N=N, n=1, samples=M, dt=dt, Lambda_p=lam, K_p=k)

    def marginal_row(pairs: np.ndarray, t: float, N: int):
        debiased, deb_se, floor = _empirical_chaos_sq(pairs)
        # the chaos repeats solve MK2, so the marginal row takes the p = 2
        # bound and constants whatever p the growth row uses
        return bounds.make_report(
            "marginal-transport-convergence",
            t,
            debiased,
            bounds.classical_rhs(V, 2.0, N, 1, t),
            lhs_stderr=deb_se,
            tolerance=W2_TOLERANCE,
            constants=dict(constants(2.0, N), repeats=repeats, baseline=floor),
        )

    def sweep(_, solves):
        # one reference cloud drives every N, so each step builds one field
        reference = sample_gaussian_cloud(ref_size, 1, ref_seed)
        seeds = [s.spawn(2) for s in per_n]
        ensembles = [
            diagonal_ensemble(M, N, 1, int(ens_seed.generate_state(1)[0]))
            for N, (ens_seed, _) in zip(N_list, seeds)
        ]
        sub_children = [sub_seed.spawn(len(schedule)) for _, sub_seed in seeds]
        rows = [[] for _ in N_list]
        for j, (t, n_steps) in enumerate(schedule):
            solves.check()
            ensembles, reference = run_coupled_trajectory(ensembles, reference, V, dt, n_steps)
            # each Verlet step makes fresh arrays, so the solves need no copy
            f_pool = np.hstack([reference.positions, reference.momenta])
            for i, (N, ens) in enumerate(zip(N_list, ensembles)):
                per = dobrushin_per_sample(ens, p)
                rows[i].append(
                    bounds.make_report(
                        GROWTH_ROW,
                        t,
                        float(per.mean()),
                        bounds.classical_rhs(V, p, N, 1, t),
                        lhs_stderr=float(per.std(ddof=1) / math.sqrt(M)),
                        constants=constants(p, N),
                    )
                )
                pairs = _submit_chaos_repeats(
                    solves, ens.Y, ens.H, f_pool, repeats, sub_children[i][j]
                )
                rows[i].append(partial(marginal_row, pairs, t, N))
        return [row for per_N in rows for row in per_N]

    reports = _run_sweep(sweep, 1, jobs)
    # The N-rate is fit on the directly measured coupling distance
    # (D^p_N)^(1/p): its Monte-Carlo error is ~1e-5 while the subsample-W2
    # excess over the finite-sample floor is indistinguishable from zero at
    # desk scale, so only the former can carry a log-log fit.  Each N emits
    # one growth row per sample time; the last is the final D^p_N.
    growth = [r.lhs_measured for r in reports if r.inequality_id == GROWTH_ROW]
    finals = np.array(growth[len(schedule) - 1 :: len(schedule)])
    return reports + _rate_rows(
        "coupling-distance-scaling-slope", schedule[-1][0], N_list, finals, p, -0.5, p
    )


# ---------------------------------------------------------------------------
# vlasov-moments


def _check_vlasov_moments(params: dict, ok, V, cap, seed) -> list:
    diags, steps = _schedule_steps(params, ok)
    if ok("potential", "cloud_size"):
        size, d = params["cloud_size"], V.dim
        if steps is not None:
            diags += _exact_field_work("cloud_size", size, d, size, steps)
        # the cloud's positions and momenta, and one block of the exact
        # mean field's pair differences, weighed before either is drawn
        cloud, block = 16 * size * d, 8 * field_block_rows(size, d) * size * d
        if cap is not None and cloud + block > cap:
            return diags + [
                f"cloud_size: {size} points in d = {d} need {cloud} bytes of positions and "
                f"momenta and {block} for one exact mean-field block, over the memory cap {cap}"
            ]
    if not ok("potential", "seed", "p", "times", "cloud_size"):
        return diags
    p, t = params["p"], _sample_times(params)[-1]

    def moment_bound():  # M0 of the runner's own deterministic initial cloud
        cloud = sample_gaussian_cloud(int(params["cloud_size"]), V.dim, seed)
        with np.errstate(over="ignore"):
            return bounds.moment_rhs(float(point_moments(cloud, float(p)).mean()), p, V.lip_grad, t)

    rate = f"e^((p-1)(1 + 2 Lip(grad V)) t) at p={p}, t={t}"
    return diags + _finite_constants(
        V,
        (f"the moment growth factor {rate}", bounds.moment_rhs, 1.0, p, V.lip_grad, t),
        (f"the moment bound M0 {rate}, M0 from the runner's initial cloud", moment_bound),
    )


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


def _check_mk_bracket(params: dict, ok, V, cap, seed) -> list:
    # each coherent factor of a pair (z1, z2) is single-particle; the worst
    # sits at the corner (s, s), in floats as the runner draws it
    s = params["center_scale"]
    centres = [(f"center_scale: {_compact(s)}", float(s), float(s))] if ok("center_scale") else []
    diags = _over_cap("grid line", params["grid_points"], 1, cap) if ok("grid_points") else []
    return diags + _grid_diagnostics(params, ok, None if diags else cap, centres)


def run_mk_bracket(cfg: ExperimentConfig, jobs: int = 1) -> list:
    """Three rows per random coherent pair: the product-coupling cost
    identity, the Husimi lower bound against that cost, and the cost floor.

    Each pair's Husimi lattices are built on the sweep thread and their
    transport solve is queued on the run's pool; the sweep goes straight on
    to the next pair, and the rows are read back in sweep order at the end.
    """
    params = cfg.params
    eps_list = [float(e) for e in _as_list(params["epsilon"])]
    n_pairs = int(params["pairs"])
    per_eps = max(1, -(-n_pairs // len(eps_list)))  # ceil division
    n_pts = int(params["grid_points"])
    box = float(params["box"])
    scale = float(params["center_scale"])
    children = np.random.SeedSequence(cfg.seed).spawn(len(eps_list))

    def one(idx, solves):
        eps = eps_list[idx]
        rng = np.random.default_rng(children[idx])
        sgrid = GridSpec(1, 1, n_pts, box, eps)
        rows = []
        for k in range(per_eps):
            solves.check()
            z1 = rng.uniform(-scale, scale, 2)
            z2 = rng.uniform(-scale, scale, 2)
            # one pure product: its factors are the coherent states at z1, z2
            x, y = coherent_state(sgrid, *z1), coherent_state(sgrid, *z2)
            qp = qp_cost_trace([(1.0, FactoredCoupling((x,), y))])
            expected = float(np.sum((z1 - z2) ** 2)) + 2.0 * eps
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
                    x,
                    y,
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

    return _run_sweep(one, len(eps_list), jobs)


# ---------------------------------------------------------------------------
# toeplitz-identities


def _toeplitz_trace_rows(grid: GridSpec, rho_c, rng, n_symbols: int, consts: dict) -> list:
    """toeplitz-identities' part (b): the Toeplitz trace identity, matrix
    route vs atom route, for random symbols against the coherent state
    `rho_c` and a three-atom Toeplitz mixture, in turn.  The mixture is
    freed on return, before part (c) builds its Husimi lattice."""
    mixed_range, symbol_range = TOEPLITZ_ATOM_RANGES
    mixed_symbol = DiscreteMeasure(
        rng.uniform(-mixed_range, mixed_range, (3, 2)), np.full(3, 1.0 / 3.0)
    )
    rho_mixed = toeplitz_operator(grid, mixed_symbol)
    rows = []
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
    return rows


def _check_toeplitz_identities(params: dict, ok, V, cap, seed) -> list:
    # the fixed centre, and the corners of the squares atoms are drawn from
    centres = [TOEPLITZ_CENTER, *((r, r) for r in TOEPLITZ_ATOM_RANGES)]
    labelled = [(f"the fixed coherent centre ({q}, {p})", q, p) for q, p in centres]
    # its largest arrays are n x n: the density matrices and Toeplitz operators
    matrix = "n x n density matrix"
    diags = _over_cap(matrix, params["grid_points"], 2, cap) if ok("grid_points") else []
    return diags + _grid_diagnostics(params, ok, None if diags else cap, labelled)


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
    rho_c = state_density_matrix(coherent_state(grid, q0, p0))
    W = wigner_transform(rho_c)
    X, XI = W.x_nodes[:, None], W.xi_nodes[None, :]
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
    del W, exact  # (b) and (c) build n x n arrays of their own
    rows.append(
        bounds.make_report(
            "wigner-normalization", 0.0, norm_err, 0.0, tolerance=1e-6, constants=consts
        )
    )

    rows += _toeplitz_trace_rows(grid, rho_c, rng, n_symbols, consts)

    # (c) quadratic-symbol expectation: integral of q^2 against the Husimi
    # function, minus the eps/2 quantization shift, recovers <x^2> = q0^2+eps/2
    H = husimi_transform(rho_c, nx=128, nxi=128)
    lift_expectation = float(np.sum(H.x_nodes[:, None] ** 2 * H.values) * H.dx * H.dxi)
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


def _check_quantum_dobrushin(params: dict, ok, V, cap, seed) -> list:
    diags = []
    if ok("grid_points", "n_particles"):
        # the runner holds N one-particle X factors and one n^N Y factor, the
        # largest array it builds; a checkpoint saves the same factors
        n_pts, n_part = params["grid_points"], params["n_particles"]
        diags = _over_cap("N-body Y factor", n_pts, n_part, cap)
    cap = None if diags else cap  # no centre check on a state that cannot be built
    diags += _schedule_steps(params, ok, params["grid_points"] if ok("grid_points") else 0)[0]
    centres, guard = [], None
    if cap is not None and ok("center", "n_particles"):
        # the Y factor holds n_particles copies of the centre, and the coupled
        # state 2 * n_particles copies of the coherent state there
        copies = np.ones(params["n_particles"])
        q0, p0 = params["center"]
        label = f"center: {_compact(params['center'])}"
        centres = [(label, q0 * copies, p0 * copies)]
        guard = (label, q0, p0, 2 * params["n_particles"])
    diags += _grid_diagnostics(params, ok, cap, centres, params["dt"] if ok("dt") else 0.0, guard)
    if not ok("potential", "epsilon", "n_particles", "t_final"):
        return diags
    eps, N, t = max(_as_list(params["epsilon"])), params["n_particles"], params["t_final"]
    bound = f"the factorized bound at epsilon={eps}, t={t}"
    return diags + _finite_constants(
        V,
        ("Lambda = 3 + 4 Lip(grad V)^2", bounds.lambda_constant, V.lip_grad),
        (bound, bounds.quantum_rhs, "factorized", V, eps, N, 1, t),
    )


def _coupled_run(mixture, ref, V, schedule, dt, solves, consts, measure) -> tuple:
    """(rows, mixture): `mixture` advanced under the Hartree reference `ref`
    through `schedule`, the rows measure(t, mixture) yields at each sample
    time, then the unitarity row at the time reached.  A guard-band leak ends
    the run with a failed GUARD_BAND_ROW: a leaking state certifies no bound."""
    rows = []
    drift_max = 0.0
    t = 0.0  # after the loop, the time actually reached: an abort stops short
    steps_taken = 0
    for t, n_steps in schedule:
        solves.check()
        mixture, ref = factored_coupled_advance(mixture, ref, V, dt, n_steps)
        steps_taken += n_steps
        try:
            for _, state in mixture:
                state.check_guard_band()
                drift_max = max(drift_max, abs(state.norm() - 1.0))
        except GuardBandError as err:
            rows.append(
                bounds.make_report(GUARD_BAND_ROW, t, 1.0, 0.0, tolerance=0.0, constants=consts)
            )
            print(f"guard band tripped at t={t}: {err}", file=sys.stderr)
            break
        rows += measure(t, mixture)
    rows.append(
        bounds.make_report(
            "doubled-evolution-unitarity",
            float(t),
            drift_max,
            0.0,
            tolerance=1e-10,
            constants={"eps": consts["eps"], "dt": dt, "steps": steps_taken},
        )
    )
    return rows, mixture


def run_quantum_dobrushin(cfg: ExperimentConfig, jobs: int = 1) -> list:
    """Coupling-cost growth and Husimi lower-chain rows per epsilon and
    sample time, then the unitarity row of the coupled evolution.

    A husimi-lower-chain row checks the chain's consistency, not the
    mean-field error: its lhs is the Husimi W2^2 of the two one-particle
    marginals minus 2 d eps, and that W2^2 is far below 2 d eps, so the lhs
    is about -2 d eps at every sample time and sits under any coupling cost.

    The lower chain's lattices are built on the sweep thread at each sample
    time and their transport solve is queued on the run's pool while the
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
    # every checkpoint file is opened before any epsilon is integrated, so one
    # that cannot be written ends the run first; a file only the probe made is removed
    saves = [f"{checkpoint}.eps{eps}.mflabst" for eps in eps_list] if checkpoint else []
    for path in saves:
        existed = os.path.lexists(path)
        open(path, "ab").close()
        if not existed:
            os.remove(path)

    def one(idx, solves):
        eps = eps_list[idx]
        base = GridSpec(1, 1, n_pts, box, eps)
        consts = _potential_constants(V, eps=eps, N=N, n=1, dt=dt, Lambda=lam, grid_points=n_pts)

        def measure(t, mixture):
            D = qp_cost_trace(mixture) / N
            rhs = bounds.quantum_rhs("factorized", V, eps, N, 1, t)
            yield bounds.make_report(
                "coupling-cost-growth", t, D, rhs, tolerance=1e-2 * rhs, constants=consts
            )
            yield _queue_husimi_lower_row(
                solves,
                reduced_density(mixture, 0),
                reduced_density(mixture, N),
                "husimi-lower-chain",
                t,
                D,
                tolerance=1e-2,
                constants=consts,
            )

        # the coupling is the Toeplitz lift of one atom, q0 at every X and Y slot,
        # then p0 at every slot; passed, not named, so the first step frees its Y factor
        atom = np.repeat([q0, p0], 2 * N)
        rows, mixture = _coupled_run(
            coupling_to_factored_mixture(base, N, DiscreteMeasure(atom[None, :], np.ones(1))),
            coherent_state(base, q0, p0),
            V,
            schedule,
            dt,
            solves,
            consts,
            measure,
        )
        if saves:
            save_state(saves[idx], mixture[0][1])
        return rows

    return _run_sweep(one, len(eps_list), jobs)


# ---------------------------------------------------------------------------


#: Each experiment's runner and check function (see `validate_config`).
EXPERIMENTS = {
    "ot-selftest": (run_ot_selftest, _check_ot_selftest),
    "combineq": (run_combineq, _check_combineq),
    "classical-dobrushin": (run_classical_dobrushin, _check_classical_dobrushin),
    "vlasov-moments": (run_vlasov_moments, _check_vlasov_moments),
    "mk-bracket": (run_mk_bracket, _check_mk_bracket),
    "toeplitz-identities": (run_toeplitz_identities, _check_toeplitz_identities),
    "quantum-dobrushin": (run_quantum_dobrushin, _check_quantum_dobrushin),
}
#: The runners alone: the table `run_experiment` reads and perfbench/tracing.py wraps.
EXPERIMENT_RUNNERS = {exp: runner for exp, (runner, _) in EXPERIMENTS.items()}


def run_experiment(cfg: ExperimentConfig, jobs: int = 1) -> list:
    try:
        runner = EXPERIMENT_RUNNERS[cfg.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {cfg.experiment!r}") from None
    return runner(cfg, jobs=jobs)
