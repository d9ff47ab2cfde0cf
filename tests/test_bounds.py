"""Right-hand-side evaluators: frozen values, 50-digit twins, MC estimator."""
import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from mflab.bounds import (
    BoundReport,
    StandardNormal,
    classical_rhs,
    combineq_mc,
    combineq_rhs,
    combineq_rhs_even,
    count_S_Np,
    count_S_Np_enumerate,
    k_constant,
    lambda_constant,
    lambda_p_constant,
    make_report,
    moment_rhs,
    quantum_rhs,
    read_reports_jsonl,
    write_reports_jsonl,
)
from mflab.convolution import offset_convolution
from mflab.potentials import PAIR_BLOCK, make_cosine_potential, make_gaussian_potential

GAUSS = make_gaussian_potential(1.0, 1.0, 1)  # sup_grad = e^{-1/2}, lip_grad = 1


# ---------------------------------------------------------------------------
# 50-digit twins of the right-hand sides, transcribed from the formulas
# independently of mflab.bounds


def classical_rhs_hp(sup_grad, lip_grad, p, N, n, t) -> float:
    """50-digit transcription check of classical_rhs (raw constants in)."""
    with mp.workdps(50):
        p_, s, l, t_ = mpf(p), mpf(sup_grad), mpf(lip_grad), mpf(t)
        kp = max(mpf(1), p_ - 1)
        lam = 2 * kp * (1 + 2 ** (p_ - 1) * l**p_)
        val = (
            mpf(n)
            * 2**p_
            * kp
            * s**p_
            * (math.floor(p / 2) + 1)
            / mpf(N) ** min(p / 2.0, 1.0)
            * (mp.e ** (lam * t_) - 1)
            / lam
        )
        return float(val)


def quantum_rhs_hp(variant, sup_grad, lip_grad, d, eps, N, n, t, init_term=0.0) -> float:
    """50-digit transcription check of quantum_rhs (raw constants in)."""
    with mp.workdps(50):
        s2 = mpf(sup_grad) ** 2
        lam = 3 + 4 * mpf(lip_grad) ** 2
        t_ = mpf(t)
        growth = mp.e ** (lam * t_)
        if variant == "general":
            val = n * ((8 * s2 / N) * (growth - 1) / lam + growth / N * mpf(init_term))
        elif variant == "toeplitz":
            val = n * (
                (2 * d * mpf(eps) + mpf(init_term) / N) * growth
                + (8 * n * s2 / N) * (growth - 1) / lam
            )
        elif variant == "factorized":
            val = n * (2 * d * mpf(eps) + (8 * s2 / N) * (1 - mp.e ** (-lam * t_)) / lam) * growth
        else:
            raise ValueError(f"unknown variant {variant!r}")
        return float(val)


def combineq_rhs_hp(F_sup, p, N) -> float:
    with mp.workdps(50):
        return float(
            (2 * math.floor(p / 2) + 2) / mpf(N) ** min(p / 2.0, 1.0) * (2 * mpf(F_sup)) ** p
        )


def moment_rhs_hp(M0, p, lip, t) -> float:
    with mp.workdps(50):
        return float(mpf(M0) * mp.e ** ((mpf(p) - 1) * (1 + 2 * mpf(lip)) * mpf(t)))


def test_growth_constants():
    assert k_constant(2.0) == 1.0
    assert k_constant(4.0) == 3.0
    assert k_constant(1.0) == 1.0
    assert lambda_p_constant(2.0, 1.0) == 6.0
    assert lambda_p_constant(4.0, 0.5) == pytest.approx(6.0 * (1 + 8 * 0.0625))
    assert lambda_constant(1.0) == 7.0
    assert lambda_constant(0.0) == 3.0


def test_classical_rhs_frozen_value():
    # p=2, Gaussian amplitude/width 1, N=64, n=1, t=1:
    # 4 * e^{-1} * 2/64 * (e^6 - 1)/6, with Lambda_2 = 2(1 + 2*1) = 6.
    val = classical_rhs(GAUSS, p=2.0, N=64, n=1, t=1.0)
    expected = 4.0 * math.exp(-1.0) * 2.0 / 64.0 * (math.exp(6.0) - 1.0) / 6.0
    assert val == pytest.approx(expected, rel=1e-14)
    assert val == pytest.approx(3.0842766596126077, rel=1e-15)


def test_classical_rhs_zero_time_and_scaling():
    assert classical_rhs(GAUSS, 2.0, 16, 1, 0.0) == 0.0
    v1 = classical_rhs(GAUSS, 2.0, 16, 1, 0.7)
    v3 = classical_rhs(GAUSS, 2.0, 16, 3, 0.7)
    assert v3 == pytest.approx(3 * v1, rel=1e-14)
    # squared-cost regime decays like 1/N
    v64 = classical_rhs(GAUSS, 2.0, 64, 1, 0.7)
    assert v64 == pytest.approx(v1 * 16 / 64, rel=1e-14)


def test_classical_rhs_validation():
    with pytest.raises(ValueError):
        classical_rhs(GAUSS, 0.5, 16, 1, 1.0)
    with pytest.raises(ValueError):
        classical_rhs(GAUSS, 2.0, 4, 5, 1.0)
    with pytest.raises(ValueError):
        classical_rhs(GAUSS, 2.0, 4, 1, -0.1)


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 4.0])
@pytest.mark.parametrize("t", [0.0, 0.3, 1.0, 2.5])
def test_classical_rhs_hp_twin(p, t):
    N, n = 32, 2
    lo = classical_rhs(GAUSS, p, N, n, t)
    hi = classical_rhs_hp(GAUSS.sup_grad, GAUSS.lip_grad, p, N, n, t)
    assert lo == pytest.approx(hi, rel=1e-12, abs=1e-300)


def test_quantum_rhs_variants_at_zero_time():
    eps, N = 0.25, 4
    assert quantum_rhs("factorized", GAUSS, eps, N, 1, 0.0) == pytest.approx(2 * eps)
    assert quantum_rhs("general", GAUSS, eps, N, 1, 0.0, init_term=0.8) == pytest.approx(
        0.8 / N
    )
    assert quantum_rhs("toeplitz", GAUSS, eps, N, 2, 0.0, init_term=0.8) == pytest.approx(
        2 * (2 * eps + 0.8 / N)
    )


def test_quantum_rhs_frozen_factorized_value():
    # (2 eps + (8/N)||grad V||^2 (1 - e^{-Lt})/L) e^{Lt}, L = 3 + 4 = 7
    eps, N, t = 0.5, 2, 0.5
    sup2 = math.exp(-1.0)
    expected = (2 * eps + (8.0 / N) * sup2 * (1 - math.exp(-3.5)) / 7.0) * math.exp(3.5)
    assert quantum_rhs("factorized", GAUSS, eps, N, 1, t) == pytest.approx(
        expected, rel=1e-14
    )


def test_quantum_rhs_rejects_unknown_variant():
    with pytest.raises(ValueError):
        quantum_rhs("sharp", GAUSS, 0.25, 2, 1, 0.1)


@pytest.mark.parametrize("variant", ["general", "toeplitz", "factorized"])
@pytest.mark.parametrize("t", [0.0, 0.2, 1.0])
def test_quantum_rhs_hp_twin(variant, t):
    eps, N, n = 0.25, 8, 1
    lo = quantum_rhs(variant, GAUSS, eps, N, n, t, init_term=0.1)
    hi = quantum_rhs_hp(
        variant, GAUSS.sup_grad, GAUSS.lip_grad, GAUSS.dim, eps, N, n, t, init_term=0.1
    )
    assert lo == pytest.approx(hi, rel=1e-12)


def test_combineq_constants():
    F = 0.7
    assert combineq_rhs(F, 2.0, 10) == pytest.approx(4.0 / 10 * (2 * F) ** 2, rel=1e-14)
    assert combineq_rhs(F, 4.0, 10) == pytest.approx(6.0 / 10 * (2 * F) ** 4, rel=1e-14)
    assert combineq_rhs_even(F, 2, 10) == pytest.approx(2.0 / 10 * (2 * F) ** 2, rel=1e-14)
    assert combineq_rhs_even(F, 4, 10) == pytest.approx(4.0 / 10 * (2 * F) ** 4, rel=1e-14)
    # the even-exponent constant is the sharper of the two
    for p in (2, 4, 6):
        assert combineq_rhs_even(F, p, 5) <= combineq_rhs(F, p, 5)
    assert combineq_rhs(F, 2.0, 10) == pytest.approx(combineq_rhs_hp(F, 2.0, 10), rel=1e-12)


def test_combineq_even_requires_even_integer():
    for bad in (3, 2.5, 0, -2, 1):
        with pytest.raises(ValueError):
            combineq_rhs_even(1.0, bad, 4)


def test_count_S_Np_examples_and_oracle():
    assert count_S_Np(2, 2) == 1
    assert count_S_Np(3, 2) == 4
    assert count_S_Np(1, 3) == 0
    for N in range(1, 6):
        for p in (2, 4):
            assert count_S_Np(N, p) == count_S_Np_enumerate(N, p)
    with pytest.raises(ValueError):
        count_S_Np(0, 2)
    with pytest.raises(ValueError):
        count_S_Np_enumerate(100, 5)


def test_combineq_mc_single_particle_quadrature_oracle():
    # N=1: the empirical force is F(0) = 0, so the MC mean is E|F*rho(x)|^2,
    # which a dense quadrature evaluates independently.
    field = lambda z: GAUSS.grad(np.asarray(z)[:, None])[:, 0]
    dist = scipy.stats.norm()
    mean, stderr = combineq_mc(field, dist, p=2.0, N=1, n_mc=60_000, seed=123)
    y = np.linspace(-12, 12, 4001)
    conv = np.array([np.trapezoid(field(x - y) * dist.pdf(y), y) for x in y])
    oracle = np.trapezoid(conv**2 * dist.pdf(y), y)
    assert mean == pytest.approx(oracle, abs=5 * stderr)
    assert stderr > 0
    # estimate respects the closed-form constant
    assert mean <= combineq_rhs_even(GAUSS.sup_grad, 2, 1) + 3 * stderr


def test_combineq_mc_deterministic():
    field = lambda z: GAUSS.grad(np.asarray(z)[:, None])[:, 0]
    dist = scipy.stats.norm()
    a = combineq_mc(field, dist, 2.0, 4, 5000, seed=7)
    b = combineq_mc(field, dist, 2.0, 4, 5000, seed=7)
    assert a == b


def test_combineq_mc_row_blocks_match_the_unblocked_sum():
    # N = 48 gives blocks of 682 samples: the first 4096-sample chunk ends in
    # a block of 4, and the second chunk of 904 samples in one of 222
    from mflab.bounds import _tabulated_convolution

    field, dist, N, n_mc, seed = _field_of(GAUSS), StandardNormal(), 48, 5000, 17
    rows = PAIR_BLOCK // N
    assert rows < 4096 and 4096 % rows and (n_mc - 4096) % rows
    conv = _tabulated_convolution(field, dist)
    values = []
    for ss in np.random.SeedSequence(seed).spawn(2):
        size = min(4096, n_mc - len(values))
        X = dist.rvs(size=(size, N), random_state=np.random.default_rng(ss))
        emp = field((X[:, :1] - X).ravel()).reshape(size, N).mean(axis=1)
        values.extend(np.abs(conv(X[:, 0]) - emp) ** 2.0)
    values = np.array(values)
    oracle = (float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_mc)))
    assert combineq_mc(field, dist, 2.0, N, n_mc, seed) == oracle


def _brute_convolution(field, dist, x, quad_span, quad_points):
    # oracle: the trapezoid sum for F*rho evaluated in full at every point
    y = np.linspace(-quad_span, quad_span, quad_points)
    dy = y[1] - y[0]
    quad_w = np.full(quad_points, dy)
    quad_w[0] = quad_w[-1] = dy / 2.0
    return field((x[:, None] - y[None, :]).ravel()).reshape(x.size, -1) @ (dist.pdf(y) * quad_w)


def _combineq_brute(field, dist, p, N, n_mc, seed, quad_span, quad_points):
    children = np.random.SeedSequence(seed).spawn(max(1, (n_mc + 4095) // 4096))
    values, x1, done = np.empty(n_mc), np.empty(n_mc), 0
    for ss in children:
        size = min(4096, n_mc - done)
        X = dist.rvs(size=(size, N), random_state=np.random.default_rng(ss))
        emp = field((X[:, :1] - X).ravel()).reshape(size, N).mean(axis=1)
        conv = _brute_convolution(field, dist, X[:, 0], quad_span, quad_points)
        values[done : done + size] = np.abs(conv - emp) ** p
        x1[done : done + size] = X[:, 0]
        done += size
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_mc)), x1


def test_standard_normal_is_scipy_norm_bit_for_bit():
    # run_combineq's law: the same pdf values and the same draws per stream
    x = np.concatenate([np.linspace(-12.0, 12.0, 4097), [0.0, -40.0, 40.0]])
    assert np.array_equal(StandardNormal().pdf(x), scipy.stats.norm().pdf(x))
    for size in ((4096, 8), (5, 1), 3):
        ours = StandardNormal().rvs(size=size, random_state=np.random.default_rng(11))
        ref = scipy.stats.norm().rvs(size=size, random_state=np.random.default_rng(11))
        assert np.array_equal(ours, ref)
    assert combineq_mc(_field_of(GAUSS), StandardNormal(), 2.0, 4, 5000, 7) == combineq_mc(
        _field_of(GAUSS), scipy.stats.norm(), 2.0, 4, 5000, 7
    )


def _field_of(V):
    return lambda z: V.grad(np.asarray(z, dtype=float)[:, None])[:, 0]


TABULATED_CASES = [
    (_field_of(GAUSS), scipy.stats.norm(), 12.0, 4097),
    (_field_of(make_cosine_potential(0.7, [1.3], 1)), scipy.stats.norm(0.3, 1.2), 12.0, 4097),
    # a wide law against a short span: about 1 sample in 9 falls outside
    (_field_of(make_gaussian_potential(1.5, 0.6, 1)), scipy.stats.norm(scale=3.8), 6.0, 1025),
]


def _set_quadrature(monkeypatch, span, points):
    from mflab import bounds

    monkeypatch.setattr(bounds, "QUAD_SPAN", span)
    monkeypatch.setattr(bounds, "QUAD_POINTS", points)
    return bounds


@pytest.mark.parametrize("field, dist, span, points", TABULATED_CASES)
def test_combineq_mc_tabulated_matches_brute_quadrature(monkeypatch, field, dist, span, points):
    bounds = _set_quadrature(monkeypatch, span, points)
    n_mc, seed = 6000, 31
    mean, stderr = combineq_mc(field, dist, 2.0, 8, n_mc, seed)
    mean_o, stderr_o, x1 = _combineq_brute(field, dist, 2.0, 8, n_mc, seed, span, points)
    assert abs(mean - mean_o) <= 1e-7 and abs(stderr - stderr_o) <= 1e-7
    # per sample, plus the span's ends and points past them
    x = np.concatenate([x1, [-1.5 * span, -span, span, 1.01 * span]])
    conv = bounds._tabulated_convolution(field, dist)(x)
    brute = _brute_convolution(field, dist, x, span, points)
    assert np.max(np.abs(conv - brute)) <= 1e-7
    if span == 6.0:
        assert np.mean(np.abs(x1) > span) > 0.05


def _zero_stuffed_table(field, dist, quad_span, quad_points, refine):
    # oracle: the whole table as one convolution of the weights, stuffed with
    # refine - 1 zeros between quadrature nodes, with F at every table offset
    y = np.linspace(-quad_span, quad_span, quad_points)
    dy = y[1] - y[0]
    quad_w = np.full(quad_points, dy)
    quad_w[0] = quad_w[-1] = dy / 2.0
    n_table = refine * (quad_points - 1) + 1
    h = dy / refine
    stuffed = np.zeros(n_table)
    stuffed[::refine] = dist.pdf(y) * quad_w
    table = offset_convolution(stuffed, field(h * np.arange(1 - n_table, n_table)))
    return -quad_span + h * np.arange(n_table), table


@pytest.mark.parametrize("refine", [1, 3, 8])
@pytest.mark.parametrize("field, dist, span, points", TABULATED_CASES)
def test_tabulated_convolution_matches_the_zero_stuffed_table(
    monkeypatch, field, dist, span, points, refine
):
    # one residue (1), an odd residue count (3) and the default (8); at a
    # table node the interpolation returns the node's value
    bounds = _set_quadrature(monkeypatch, span, points)
    monkeypatch.setattr(bounds, "TABLE_REFINE", refine)
    nodes, table = _zero_stuffed_table(field, dist, span, points, refine)
    assert np.all(np.abs(nodes) <= span)
    conv = bounds._tabulated_convolution(field, dist)(nodes)
    assert np.max(np.abs(conv - table)) <= 1e-15
    if refine == 1:
        assert np.array_equal(conv, table)


def test_combineq_mc_allocates_under_2_mib_at_64_particles():
    # the samples are drawn block by block, so no (4096, N) array (2 MiB at
    # N = 64) is held, and the table takes short convolutions, not one over
    # the zero-stuffed table; the first call warms up what a run loads once
    field, dist = _field_of(GAUSS), StandardNormal()
    combineq_mc(field, dist, 2.0, 64, 10_000, 0)
    tracemalloc.start()
    try:
        combineq_mc(field, dist, 2.0, 64, 10_000, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, f"traced peak {peak / 2**20:.2f} MiB"


def test_moment_rhs_and_twin():
    assert moment_rhs(2.0, 2.0, 1.0, 0.5) == pytest.approx(2.0 * math.exp(1.5), rel=1e-14)
    assert moment_rhs(5.0, 1.0, 3.0, 2.0) == 5.0  # p = 1 is growth-free
    assert moment_rhs(2.0, 2.0, 1.0, 0.5) == pytest.approx(
        moment_rhs_hp(2.0, 2.0, 1.0, 0.5), rel=1e-12
    )
    with pytest.raises(ValueError):
        moment_rhs(-1.0, 2.0, 1.0, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(1.0, 4.0),
    st.integers(2, 512),
    st.floats(0.0, 2.0),
    st.floats(0.0, 2.0),
)
def test_classical_rhs_monotone_in_time(p, N, t1, dt):
    a = classical_rhs(GAUSS, p, N, 1, t1)
    b = classical_rhs(GAUSS, p, N, 1, t1 + dt)
    assert b >= a * (1 - 1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 256), st.floats(0.0, 1.5))
def test_quantum_rhs_decreasing_in_N(N, t):
    eps = 0.25
    a = quantum_rhs("factorized", GAUSS, eps, N, 1, t)
    b = quantum_rhs("factorized", GAUSS, eps, 2 * N, 1, t)
    assert b <= a * (1 + 1e-12)


def test_make_report_pass_boundary():
    r = make_report("x", 0.0, lhs_measured=1.0 + 0.3 + 0.01, rhs=1.0, lhs_stderr=0.1, tolerance=0.01)
    assert r.passed and r.margin == pytest.approx(0.0, abs=1e-15)
    r2 = make_report("x", 0.0, lhs_measured=1.32, rhs=1.0, lhs_stderr=0.1, tolerance=0.01)
    assert not r2.passed
    assert r2.margin == pytest.approx(-0.01, abs=1e-12)


def test_report_json_shape_and_round_trip(tmp_path):
    r = make_report(
        "growth", 0.5, 0.4, 0.9, lhs_stderr=0.02, tolerance=1e-3,
        constants={"Lambda": 6.0, "N": 64},
    )
    text = r.to_json()
    assert '"pass": true' in text
    assert text == r.to_json()  # byte-stable
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl([r, make_report("other", 1.0, 2.0, 1.0)], path)
    back = read_reports_jsonl(path)
    assert back[0] == r
    assert back[1].passed is False
    # every line, `pass` and `margin` included, is the row read back, written again
    lines = path.read_text().splitlines()
    assert len(lines) == len(back) == 2
    assert all(line == row.to_json() for line, row in zip(lines, back))
    assert '"margin": -1.0' in lines[1] and '"pass": false' in lines[1]


def test_a_directly_built_report_computes_its_verdict():
    # not through make_report: passed and margin follow the row's own numbers
    r = BoundReport("direct", 0.0, lhs_measured=1.25, lhs_stderr=0.125, rhs=1.0, tolerance=0.0)
    assert r.passed and r.margin == 0.125
    r = BoundReport("direct", 0.0, lhs_measured=2.0, lhs_stderr=0.0, rhs=1.0, tolerance=0.5)
    assert not r.passed and r.margin == -0.5
    assert '"margin": -0.5' in r.to_json() and '"pass": false' in r.to_json()


def test_report_rejects_non_finite():
    r = make_report("bad", 0.0, float("inf"), 1.0)
    with pytest.raises(ValueError):
        r.to_json()
