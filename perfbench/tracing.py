"""Layer spans for traced benchmark runs, recorded from outside the package.

Each traced function is replaced at the name through which its callers reach
it: a module global of the calling module, or an entry of the experiment
runner table.  A function that `experiments` imported by name is therefore
wrapped in `experiments`, not only in the module that defines it.  A span is
`[name, start, end, parent index, counts]`; spans stay in memory and are
written out when the run ends.  Tracing assumes the single-threaded sweep
(`--jobs 1`), so spans nest strictly.

Counts come from argument shapes, never from timing, so they repeat exactly
for a given input set; `COMPUTED` names the per-layer metrics derived that way.
"""
from __future__ import annotations

import math
import time
from collections import defaultdict
from dataclasses import replace

import numpy as np

EXPERIMENTS = (
    "classical-dobrushin",
    "combineq",
    "vlasov-moments",
    "ot-selftest",
    "quantum-dobrushin",
    "mk-bracket",
    "toeplitz-identities",
)

COMPUTED = (
    "potentials.grad.points",
    "bounds.combineq_mc.samples",
    "transport.exact.lp.vars",
    "transport.exact.lp.support_max",
    "quantum.dynamics.grid_point_steps",
    "quantum.dynamics.fft_mb",
    "quantum.grids.state_mb",
    "quantum.phase_space.husimi_values.points",
)

MIB = 2.0**20


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn, counts=None):
        """`fn` recording one span per call; `name` may be a function of the
        call's (args, kwargs), and `counts` maps them to a dict of counts."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, counts(args, kwargs) if counts else None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


def _points(args, kwargs):
    z = np.asarray(args[0])
    return {"points": z.size // z.shape[-1] if z.ndim else 1}


def _exact_route(args, kwargs):
    # the route rule of wasserstein_exact: equal sizes and equal weights
    # go to the assignment solver, everything else to the LP
    mu, nu = _arg(args, kwargs, 0, "mu"), _arg(args, kwargs, 1, "nu")
    same = mu.size == nu.size and mu.has_equal_weights() and nu.has_equal_weights()
    return "transport.exact.assignment" if same else "transport.exact.lp"


def _exact_counts(args, kwargs):
    mu, nu = _arg(args, kwargs, 0, "mu"), _arg(args, kwargs, 1, "nu")
    return {"vars": mu.size * nu.size, "support": max(mu.size, nu.size)}


def _combineq_counts(args, kwargs):
    return {"samples": int(_arg(args, kwargs, 4, "n_mc")) * int(_arg(args, kwargs, 3, "N"))}


def _advance_counts(args, kwargs):
    values = _arg(args, kwargs, 0, "R_state").values
    # one forward and one inverse n-D FFT of the doubled state per step
    return {"points": values.size, "fft_mb": 2.0 * values.nbytes / MIB}


def _state_counts(args, kwargs):
    return {"state_mb": _arg(args, kwargs, 0, "psi").values.nbytes / MIB}


def _husimi_counts(args, kwargs):
    return {"points": np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "z"))).shape[0]}


def install(tracer: Tracer):
    """Wrap every traced layer function at its call sites; returns a function
    that puts the original bindings back."""
    from mflab import bounds, classical, cli, experiments
    from mflab.quantum import dynamics, metrics, phase_space

    sites = [
        (cli, "write_reports_jsonl", "bounds.write_reports_jsonl", None),
        (experiments, "run_coupled_trajectory", "classical.run_coupled_trajectory", None),
        (classical, "coupled_advance", "classical.coupled_advance", None),
        (experiments, "vlasov_advance", "classical.vlasov_advance", None),
        (experiments, "diagonal_ensemble", "classical.diagonal_ensemble", None),
        (bounds, "combineq_mc", "bounds.combineq_mc", _combineq_counts),
        (experiments, "wasserstein_exact", _exact_route, _exact_counts),
        (metrics, "wasserstein_exact", _exact_route, _exact_counts),
        (experiments, "dual_potentials", "transport.dual_potentials", None),
        (experiments, "kantorovich_gap", "transport.kantorovich_gap", None),
        (
            experiments,
            "coupled_quantum_advance",
            "quantum.dynamics.coupled_quantum_advance",
            _advance_counts,
        ),
        (dynamics, "hartree_step", "quantum.dynamics.hartree_step", None),
        (dynamics, "hartree_potential", "quantum.dynamics.hartree_potential", None),
        (experiments, "check_guard_band", "quantum.grids.check_guard_band", _state_counts),
        (experiments, "qp_cost_trace", "quantum.metrics.qp_cost_trace", None),
        (experiments, "reduced_density", "quantum.metrics.reduced_density", None),
        (experiments, "mk_eps_lower", "quantum.metrics.mk_eps_lower", None),
        (metrics, "husimi_values", "quantum.phase_space.husimi_values", _husimi_counts),
        (phase_space, "husimi_values", "quantum.phase_space.husimi_values", _husimi_counts),
        (experiments, "toeplitz_operator", "quantum.phase_space.toeplitz_operator", None),
        (experiments, "husimi_transform", "quantum.phase_space.husimi_transform", None),
        (experiments, "wigner_transform", "quantum.phase_space.wigner_transform", None),
    ]
    originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in sites]
    originals.append((experiments, "make_potential", experiments.make_potential))
    runners = experiments.EXPERIMENT_RUNNERS
    saved_runners = dict(runners)

    for module, attr, name, counts in sites:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), counts))
    for exp, runner in saved_runners.items():
        runners[exp] = tracer.wrap(f"experiments.{exp}", runner)

    make_potential = experiments.make_potential

    def traced_make_potential(*args, **kwargs):
        V = make_potential(*args, **kwargs)
        return replace(
            V,
            grad=tracer.wrap("potentials.grad", V.grad, _points),
            eval=tracer.wrap("potentials.eval", V.eval, _points),
        )

    experiments.make_potential = traced_make_potential

    def restore():
        for module, attr, fn in originals:
            setattr(module, attr, fn)
        runners.update(saved_runners)

    return restore


class _Stat:
    def __init__(self):
        self.durations = []
        self.self_s = 0.0
        self.sums = defaultdict(float)
        self.maxes = defaultdict(float)

    @property
    def calls(self) -> int:
        return len(self.durations)

    @property
    def s(self) -> float:
        return math.fsum(self.durations)


def _quantile_ms(durations, q: float) -> float:
    """Nearest-rank quantile in milliseconds; 0 when there are no calls."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return 1e3 * ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans, wall_s: float) -> dict:
    """Per-layer metrics of one traced repetition whose config list took
    `wall_s` seconds."""
    stats = defaultdict(_Stat)
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    lattice_calls = 0
    for (name, start, end, parent, counts), child_s in zip(spans, covered):
        st = stats[name]
        st.durations.append(end - start)
        st.self_s += end - start - child_s
        for key, value in (counts or {}).items():
            st.sums[key] += value
            st.maxes[key] = max(st.maxes[key], value)
        if name == "quantum.phase_space.husimi_values" and parent >= 0:
            lattice_calls += spans[parent][0] == "quantum.metrics.mk_eps_lower"

    def get(name) -> _Stat:
        return stats[name] if name in stats else _Stat()

    m = {f"experiments.{exp}.s": get(f"experiments.{exp}").s for exp in EXPERIMENTS}
    for name in (
        "cli.main",
        "classical.run_coupled_trajectory",
        "classical.coupled_advance",
        "classical.vlasov_advance",
        "classical.diagonal_ensemble",
        "potentials.grad",
        "potentials.eval",
        "bounds.combineq_mc",
        "bounds.write_reports_jsonl",
        "transport.exact.assignment",
        "transport.exact.lp",
        "transport.dual_potentials",
        "transport.kantorovich_gap",
        "quantum.dynamics.coupled_quantum_advance",
        "quantum.dynamics.hartree_step",
        "quantum.dynamics.hartree_potential",
        "quantum.grids.check_guard_band",
        "quantum.metrics.qp_cost_trace",
        "quantum.metrics.reduced_density",
        "quantum.metrics.mk_eps_lower",
        "quantum.phase_space.husimi_values",
        "quantum.phase_space.toeplitz_operator",
        "quantum.phase_space.husimi_transform",
        "quantum.phase_space.wigner_transform",
    ):
        m[f"{name}.s"] = get(name).s
    for name in (
        "cli.main",
        "classical.run_coupled_trajectory",
        "quantum.metrics.mk_eps_lower",
    ):
        m[f"{name}.self_s"] = get(name).self_s
    for name in (
        "potentials.grad",
        "transport.exact.assignment",
        "transport.exact.lp",
        "quantum.dynamics.coupled_quantum_advance",
        "quantum.metrics.mk_eps_lower",
        "quantum.phase_space.husimi_values",
    ):
        m[f"{name}.calls"] = get(name).calls

    exact = get("transport.exact.assignment").durations + get("transport.exact.lp").durations
    lp = get("transport.exact.lp")
    advance = get("quantum.dynamics.coupled_quantum_advance")
    mk_calls = get("quantum.metrics.mk_eps_lower").calls
    m.update(
        {
            "potentials.grad.points": get("potentials.grad").sums["points"],
            "bounds.combineq_mc.samples": get("bounds.combineq_mc").sums["samples"],
            "transport.exact.calls": len(exact),
            "transport.exact.p50_ms": _quantile_ms(exact, 0.50),
            "transport.exact.p99_ms": _quantile_ms(exact, 0.99),
            "transport.exact.lp.vars": lp.sums["vars"],
            "transport.exact.lp.support_max": lp.maxes["support"],
            "quantum.dynamics.coupled_quantum_advance.p50_ms": _quantile_ms(advance.durations, 0.50),
            "quantum.dynamics.grid_point_steps": advance.sums["points"],
            "quantum.dynamics.fft_mb": advance.sums["fft_mb"],
            "quantum.grids.state_mb": get("quantum.grids.check_guard_band").maxes["state_mb"],
            "quantum.metrics.mk_eps_lower.lattice_attempts": (
                lattice_calls / (2.0 * mk_calls) if mk_calls else 0.0
            ),
            "quantum.phase_space.husimi_values.points": get(
                "quantum.phase_space.husimi_values"
            ).sums["points"],
            "trace.wall_s": wall_s,
            # every span's self time summed equals the root spans' time, so
            # this is the share of the traced wall the spans account for
            "trace.self_coverage": math.fsum(st.self_s for st in stats.values()) / wall_s,
        }
    )
    return m
