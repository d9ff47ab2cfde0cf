"""Closed-form right-hand sides of the convergence inequalities, the
Monte-Carlo consistency estimator they control, and the BoundReport record
that ties a measured quantity to its bound.

Every formula here is a direct transcription; nothing is fitted.  Each RHS
has a 50-digit twin (suffix `_hp`) in tests/test_bounds.py, so transcription
errors cannot hide behind floating-point agreement.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from itertools import product as iter_product

import numpy as np

from .convolution import kernel_table, table_lookup
from .potentials import PAIR_BLOCK, Potential

__all__ = [
    "BoundReport",
    "classical_rhs",
    "combineq_mc",
    "combineq_rhs",
    "combineq_rhs_even",
    "count_S_Np",
    "count_S_Np_enumerate",
    "k_constant",
    "lambda_constant",
    "lambda_p_constant",
    "make_report",
    "moment_rhs",
    "quantum_rhs",
    "read_reports_jsonl",
    "write_reports_jsonl",
]


# ---------------------------------------------------------------------------
# growth-rate constants


def k_constant(p: float) -> float:
    """K_p = max(1, p-1)."""
    return max(1.0, p - 1.0)


def lambda_p_constant(p: float, lip_grad: float) -> float:
    """Lambda_p = 2 K_p (1 + 2^{p-1} Lip(grad V)^p)."""
    return 2.0 * k_constant(p) * (1.0 + 2.0 ** (p - 1.0) * lip_grad**p)


def lambda_constant(lip_grad: float) -> float:
    """Lambda = 3 + 4 Lip(grad V)^2 (the squared-cost growth rate)."""
    return 3.0 + 4.0 * lip_grad**2


def _expm1_over(x: float) -> float:
    """(e^x - 1)/x, continuous at 0."""
    if x == 0.0:
        return 1.0
    return math.expm1(x) / x


# ---------------------------------------------------------------------------
# classical mean-field bound


def classical_rhs(V: Potential, p: float, N: int, n: int, t: float) -> float:
    """Bound on dist_p(marginal pair)^p:

        n * 2^p K_p ||grad V||_inf^p ([p/2]+1) / N^{min(p/2,1)}
          * (e^{Lambda_p t} - 1)/Lambda_p.
    """
    if p < 1:
        raise ValueError("exponent p must be >= 1")
    if not 1 <= n <= N:
        raise ValueError("need 1 <= n <= N")
    if t < 0:
        raise ValueError("t must be >= 0")
    lam = lambda_p_constant(p, V.lip_grad)
    return (
        n
        * 2.0**p
        * k_constant(p)
        * V.sup_grad**p
        * (math.floor(p / 2) + 1)
        / N ** min(p / 2.0, 1.0)
        * t
        * _expm1_over(lam * t)
    )


# ---------------------------------------------------------------------------
# quantum mean-field bounds (squared-cost functional, three variants)

QUANTUM_VARIANTS = ("general", "toeplitz", "factorized")


def quantum_rhs(
    variant: str,
    V: Potential,
    eps: float,
    N: int,
    n: int,
    t: float,
    init_term: float = 0.0,
) -> float:
    """Bound on the n-particle squared coupling cost.

    variant 'general':    n[(8/N)||grad V||^2 (e^{Lt}-1)/L + (e^{Lt}/N) init]
    variant 'toeplitz':   n[(2 d eps + init/N) e^{Lt} + (8n/N)||grad V||^2 (e^{Lt}-1)/L]
    variant 'factorized': n (2 d eps + (8/N)||grad V||^2 (1-e^{-Lt})/L) e^{Lt}

    with L = 3 + 4 Lip(grad V)^2; `init_term` is the squared initial coupling
    cost ('general'), the squared symbol distance ('toeplitz'), and unused for
    'factorized' (product coherent data start at exactly 2 d eps).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if not 1 <= n <= N:
        raise ValueError("need 1 <= n <= N")
    d = V.dim
    sup2 = V.sup_grad**2
    lam = lambda_constant(V.lip_grad)
    growth = math.exp(lam * t)
    if variant == "general":
        return n * ((8.0 / N) * sup2 * t * _expm1_over(lam * t) + growth / N * init_term)
    if variant == "toeplitz":
        return n * (
            (2.0 * d * eps + init_term / N) * growth
            + (8.0 * n / N) * sup2 * t * _expm1_over(lam * t)
        )
    if variant == "factorized":
        decay = -math.expm1(-lam * t) / lam  # lam >= 3, so never 0 / 0
        return n * (2.0 * d * eps + (8.0 / N) * sup2 * decay) * growth
    raise ValueError(f"unknown variant {variant!r}; expected one of {QUANTUM_VARIANTS}")


# ---------------------------------------------------------------------------
# consistency estimate (empirical mean-field force vs convolved force)


def combineq_rhs(F_sup: float, p: float, N: int) -> float:
    """General constant (2 [p/2] + 2) / N^{min(p/2,1)} * (2 F_sup)^p."""
    if F_sup < 0:
        raise ValueError("F_sup must be >= 0")
    return (2.0 * math.floor(p / 2) + 2.0) / N ** min(p / 2.0, 1.0) * (2.0 * F_sup) ** p


def combineq_rhs_even(F_sup: float, p: float, N: int) -> float:
    """Sharper even-exponent constant p/N * (2 F_sup)^p (p a positive even
    integer); p = 2 gives the 8 ||grad V||^2 / N used by the squared-cost
    differential inequality."""
    if not (p == int(p) and int(p) % 2 == 0 and p > 0):
        raise ValueError("even-exponent constant needs positive even integer p")
    return p / N * (2.0 * F_sup) ** p


#: `combineq_mc`'s trapezoid rule for F*rho: QUAD_POINTS nodes on
#: [-QUAD_SPAN, QUAD_SPAN], tabulated TABLE_REFINE nodes per quadrature step.
QUAD_SPAN = 12.0
QUAD_POINTS = 4097
TABLE_REFINE = 8


class StandardNormal:
    """The law N(0, 1) as `combineq_mc` reads it: `pdf` and `rvs` compute what
    `scipy.stats.norm()` computes, bit for bit, without importing scipy.stats."""

    @staticmethod
    def pdf(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-(x**2) / 2.0) / math.sqrt(2.0 * math.pi)

    @staticmethod
    def rvs(size=None, random_state=None):
        return random_state.standard_normal(size)


def combineq_mc(field, dist, p: float, N: int, n_mc: int, seed: int):
    """Monte-Carlo mean of |F*rho(x_1) - (1/N) sum_k F(x_1 - x_k)|^p with
    x_1..x_N i.i.d. ~ rho; returns (mean, stderr).

    `field` maps a 1-D array of offsets to field values; `dist` is a frozen
    one-dimensional distribution exposing .pdf and .rvs (scipy.stats style).
    The convolution F*rho is the trapezoid sum over QUAD_POINTS nodes y_j
    on [-QUAD_SPAN, QUAD_SPAN].  `kernel_table` tabulates that sum once, on
    nodes TABLE_REFINE times finer than the quadrature step h, with one FFT
    convolution of quadrature length per residue modulo TABLE_REFINE, so
    each node holds the sum exactly (to round-off).  Linear interpolation
    between nodes (`table_lookup`) adds an error of at most
    (h / TABLE_REFINE)^2 / 8 * sup|(F*rho)''|, below 1e-7 here and far below
    the Monte-Carlo stderr.  Samples x_1 outside the table get the same
    trapezoid sum directly, in blocks of at most PAIR_BLOCK pairs.  The
    estimate is chunked with independent child streams, so results do not
    depend on chunk scheduling.  Each chunk draws its samples
    max(1, PAIR_BLOCK // N) at a time from its stream, the same draws as one
    (4096, N) array, and takes a block's empirical sums (one reduction per
    sample) and F*rho values before it draws the next block.
    """
    conv = _tabulated_convolution(field, dist)
    children = np.random.SeedSequence(seed).spawn(max(1, (n_mc + 4095) // 4096))
    rows = max(1, PAIR_BLOCK // N)  # samples per block drawn
    values = np.empty(n_mc)
    done = 0
    for ss in children:
        size = min(4096, n_mc - done)
        rng = np.random.default_rng(ss)
        for r in range(done, done + size, rows):
            X = dist.rvs(size=(min(rows, done + size - r), N), random_state=rng)
            emp = field((X[:, :1] - X).ravel()).reshape(-1, N).mean(axis=1)
            values[r : r + len(X)] = np.abs(conv(X[:, 0]) - emp) ** p
        done += size
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(n_mc)) if n_mc > 1 else 0.0
    return mean, stderr


def _tabulated_convolution(field, dist):
    """x -> sum_j field(x - y_j) rho(y_j) w_j, the trapezoid sum over the
    nodes y_j of [-QUAD_SPAN, QUAD_SPAN]: read off a table inside the span,
    summed directly outside it (see `combineq_mc`)."""
    y = np.linspace(-QUAD_SPAN, QUAD_SPAN, QUAD_POINTS)
    dy = y[1] - y[0]
    quad_w = np.full(QUAD_POINTS, dy)
    quad_w[0] = quad_w[-1] = dy / 2.0
    rho_w = dist.pdf(y) * quad_w
    h = dy / TABLE_REFINE
    table = kernel_table(rho_w, field, h, TABLE_REFINE)

    def direct(x: np.ndarray) -> np.ndarray:
        out = np.empty(x.size)
        chunk = max(1, PAIR_BLOCK // QUAD_POINTS)
        for s in range(0, x.size, chunk):
            q = x[s : s + chunk]
            kernel_q = field((q[:, None] - y[None, :]).ravel()).reshape(q.size, -1)
            out[s : s + chunk] = kernel_q @ rho_w
        return out

    return table_lookup(-QUAD_SPAN + h * np.arange(table.size), table, direct)


def count_S_Np(N: int, p: int) -> int:
    """(N-1)^p: the number of index maps g: {1..p} -> {1..N} whose value at
    the first slot is >= 2 and is hit exactly once."""
    if N < 1 or p < 1:
        raise ValueError("need N >= 1 and p >= 1")
    return (N - 1) ** p


def count_S_Np_enumerate(N: int, p: int) -> int:
    """Exhaustive oracle for count_S_Np (N^p <= 10^7)."""
    if N**p > 10**7:
        raise ValueError("enumeration capped at N^p <= 10^7")
    count = 0
    for g in iter_product(range(1, N + 1), repeat=p):
        if g[0] >= 2 and g.count(g[0]) == 1:
            count += 1
    return count


# ---------------------------------------------------------------------------
# moment growth


def moment_rhs(M0: float, p: float, lip: float, t: float) -> float:
    """M0 * e^{(p-1)(1 + 2 lip) t}."""
    if p < 1 or t < 0 or M0 < 0 or lip < 0:
        raise ValueError("need p >= 1, t >= 0, M0 >= 0, lip >= 0")
    return M0 * math.exp((p - 1.0) * (1.0 + 2.0 * lip) * t)


# ---------------------------------------------------------------------------
# reports


@dataclass(frozen=True)
class BoundReport:
    """One measured quantity against one bound at one time.

    The row holds only what was measured; `margin` and `passed` are computed
    from it: passed <=> lhs_measured <= rhs + 3 * lhs_stderr + tolerance,
    and margin is the slack of that comparison (negative means failure by
    that much)."""

    inequality_id: str
    time: float
    lhs_measured: float
    lhs_stderr: float
    rhs: float
    tolerance: float
    constants: dict = field(default_factory=dict)

    @property
    def margin(self) -> float:
        return self.rhs + 3.0 * self.lhs_stderr + self.tolerance - self.lhs_measured

    @property
    def passed(self) -> bool:
        return bool(self.margin >= 0.0)

    def to_json(self) -> str:
        payload = {**vars(self), "pass": self.passed, "margin": self.margin}
        return json.dumps(payload, sort_keys=True, allow_nan=False)


def make_report(
    inequality_id: str,
    time: float,
    lhs_measured: float,
    rhs: float,
    lhs_stderr: float = 0.0,
    tolerance: float = 0.0,
    constants: dict | None = None,
) -> BoundReport:
    return BoundReport(
        inequality_id,
        *map(float, (time, lhs_measured, lhs_stderr, rhs, tolerance)),
        dict(constants or {}),
    )


def write_reports_jsonl(reports, path) -> None:
    with open(path, "w") as fh:
        for r in reports:
            fh.write(r.to_json() + "\n")


def read_reports_jsonl(path) -> list:
    """The rows `write_reports_jsonl` wrote to `path`; `pass` and `margin`
    are computed again from each row's numbers, not read."""
    names = [f.name for f in fields(BoundReport)]
    with open(path) as fh:
        rows = [json.loads(line) for line in fh if line.strip()]
    return [BoundReport(**{name: d[name] for name in names}) for d in rows]
