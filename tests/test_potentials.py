"""Potential families: closed-form values, certified constants, rescaling."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.potentials import (
    ScalingInput,
    make_cosine_potential,
    make_gaussian_potential,
    rescale,
    verify_constants,
)


def _fd_gradient(V, z, h=1e-6):
    z = np.asarray(z, dtype=float)
    g = np.empty_like(z)
    for i in range(z.shape[-1]):
        e = np.zeros_like(z)
        e[..., i] = h
        g[..., i] = (V.eval(z + e) - V.eval(z - e)) / (2 * h)
    return g


def test_gaussian_values_match_formula():
    V = make_gaussian_potential(amplitude=1.5, width=0.7, d=2)
    z = np.array([[0.0, 0.0], [0.3, -0.4], [1.0, 2.0]])
    expected = 1.5 * np.exp(-np.sum(z**2, axis=1) / (2 * 0.49))
    np.testing.assert_allclose(V(z), expected, rtol=1e-14)


def test_gaussian_gradient_matches_finite_differences():
    V = make_gaussian_potential(amplitude=-2.0, width=1.3, d=3)
    rng = np.random.default_rng(0)
    z = rng.normal(size=(20, 3))
    np.testing.assert_allclose(V.gradient(z), _fd_gradient(V, z), atol=1e-8)


def test_gaussian_gradient_d1_path_is_bit_identical():
    # d = 1 skips the reduce over the last axis; the general formula is the oracle
    a, w2 = -1.7, 0.9**2
    V = make_gaussian_potential(a, 0.9, 1)
    z = np.random.default_rng(2).normal(scale=3.0, size=(7, 5, 1))
    z[0, 0, 0] = 0.0
    general = (-a / w2) * z * np.exp(-np.sum(z * z, axis=-1, keepdims=True) / (2.0 * w2))
    np.testing.assert_array_equal(V.grad(z), general)
    np.testing.assert_array_equal(V.grad(z[..., 0].ravel()[:, None]), general.reshape(-1, 1))


def test_gaussian_constants_attained_on_dense_scan():
    # |grad V| peaks at |z| = width; Hessian norm peaks at the origin.
    a, w = 0.8, 1.1
    V = make_gaussian_potential(a, w, 1)
    r = np.linspace(-6, 6, 20001)[:, None]
    g = np.abs(V.gradient(r)[:, 0])
    assert g.max() <= V.sup_grad * (1 + 1e-12)
    assert g.max() == pytest.approx(V.sup_grad, rel=1e-6)
    hess = np.gradient(V.gradient(r)[:, 0], r[:, 0])
    assert np.abs(hess).max() <= V.lip_grad * (1 + 1e-6)
    assert np.abs(hess).max() == pytest.approx(V.lip_grad, rel=1e-6)
    assert V.sup_grad == pytest.approx(a * np.exp(-0.5) / w, rel=1e-14)
    assert V.lip_grad == pytest.approx(a / w**2, rel=1e-14)


def test_cosine_values_and_constants():
    k = np.array([2.0, -1.0])
    V = make_cosine_potential(0.5, k, d=2)
    z = np.array([[0.1, 0.2], [-1.0, 0.5]])
    np.testing.assert_allclose(V(z), 0.5 * np.cos(z @ k), rtol=1e-14)
    np.testing.assert_allclose(V.gradient(z), _fd_gradient(V, z), atol=1e-8)
    assert V.sup_grad == pytest.approx(0.5 * np.sqrt(5.0), rel=1e-14)
    assert V.lip_grad == pytest.approx(0.5 * 5.0, rel=1e-14)


def test_potentials_are_even():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(50, 2))
    for V in (
        make_gaussian_potential(1.0, 0.9, 2),
        make_cosine_potential(0.7, [1.0, 2.0], 2),
    ):
        np.testing.assert_allclose(V(z), V(-z), rtol=1e-14)
        np.testing.assert_allclose(V.gradient(z), -V.gradient(-z), rtol=1e-12, atol=1e-15)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(-3, 3),
    st.floats(0.3, 3),
    st.floats(-5, 5),
    st.floats(-5, 5),
)
def test_gradient_never_exceeds_declared_sup(amplitude, width, z0, z1):
    V = make_gaussian_potential(amplitude, width, 2)
    # hypot instead of linalg.norm: squaring components of a ~1e-160
    # amplitude gradient underflows to subnormals and corrupts the norm.
    g = float(np.hypot(*V.gradient(np.array([z0, z1]))))
    assert g <= V.sup_grad * (1 + 1e-12) + 1e-300


def test_rescale_epsilon_and_constants():
    s = ScalingInput(hbar=0.5, mass=2.0, length_L=3.0, time_T=1.5, n_particles=10)
    V = make_gaussian_potential(1.0, 1.0, 1)
    eps, V_hat = rescale(s, V)
    assert eps == pytest.approx(0.5 * 1.5 / (2.0 * 9.0), rel=1e-14)
    c = 10 * 1.5**2 / (2.0 * 9.0)
    assert V_hat.sup_abs == pytest.approx(c * V.sup_abs, rel=1e-14)
    assert V_hat.sup_grad == pytest.approx(c * 3.0 * V.sup_grad, rel=1e-14)
    assert V_hat.lip_grad == pytest.approx(c * 9.0 * V.lip_grad, rel=1e-14)
    # values consistent with the definition V_hat(z) = c V(L z)
    z = np.array([[0.2], [-0.1]])
    np.testing.assert_allclose(V_hat(z), c * V(3.0 * z), rtol=1e-14)
    np.testing.assert_allclose(V_hat.gradient(z), c * 3.0 * V.gradient(3.0 * z), rtol=1e-14)


def test_rescale_rejects_nonpositive_scales():
    with pytest.raises(ValueError):
        ScalingInput(hbar=0.0, mass=1.0, length_L=1.0, time_T=1.0, n_particles=1)
    with pytest.raises(ValueError):
        ScalingInput(hbar=1.0, mass=1.0, length_L=-2.0, time_T=1.0, n_particles=1)


def test_verify_constants_passes_honest_declaration():
    V = make_gaussian_potential(1.0, 1.0, 2)
    report = verify_constants(V, n_samples=4000, box=4.0, seed=7)
    assert not report.violation
    assert report.observed_sup_grad <= report.declared_sup_grad * (1 + 1e-9)
    assert report.observed_lip_grad <= report.declared_lip_grad * (1 + 1e-9)
    # the sampled extrema should come close to the analytic ones
    assert report.observed_sup_grad > 0.8 * report.declared_sup_grad


def test_verify_constants_flags_understated_declaration():
    from dataclasses import replace

    V = make_gaussian_potential(1.0, 1.0, 2)
    lying = replace(V, sup_grad=V.sup_grad / 2)
    assert verify_constants(lying, n_samples=2000, box=3.0, seed=1).violation


def test_constructor_rejections():
    with pytest.raises(ValueError):
        make_gaussian_potential(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        make_gaussian_potential(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        make_cosine_potential(1.0, [1.0, 0.0], d=1)
