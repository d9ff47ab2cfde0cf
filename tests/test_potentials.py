"""Potential families: closed-form values and certified constants."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mflab.potentials import make_cosine_potential, make_gaussian_potential


def verify_constants(V, n_samples: int, box: float, seed: int):
    """Audit the declared constants by dense random sampling in [-box, box]^d.

    Returns the largest observed |grad V| and the largest difference quotient
    |grad V(z) - grad V(z')| / |z - z'| over sampled pairs (half of them
    short-range, where the quotient approaches the Hessian norm).
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    z = rng.uniform(-box, box, size=(n_samples, V.dim))
    g = V.grad(z)
    obs_sup = float(np.max(np.linalg.norm(g, axis=-1), initial=0.0))

    # Far pairs: shuffle against itself.  Near pairs: offsets of length ~1e-3,
    # whose quotients converge to the local Hessian norm.
    perm = rng.permutation(n_samples)
    z_far = z[perm]
    step = rng.normal(size=(n_samples, V.dim))
    step /= np.maximum(np.linalg.norm(step, axis=-1, keepdims=True), 1e-300)
    z_near = z + 1e-3 * step

    obs_lip = 0.0
    for z2 in (z_far, z_near):
        dz = np.linalg.norm(z - z2, axis=-1)
        keep = dz > 1e-12
        if not np.any(keep):
            continue
        dg = np.linalg.norm(g[keep] - V.grad(z2[keep]), axis=-1)
        obs_lip = max(obs_lip, float(np.max(dg / dz[keep])))
    return obs_sup, obs_lip


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
    np.testing.assert_allclose(V.grad(z), _fd_gradient(V, z), atol=1e-8)


def test_gaussian_gradient_d1_path_is_bit_identical():
    # the in-place gradients against their closed forms, evaluated plainly;
    # d = 1 also skips the Gaussian's reduce over the last axis
    a, w2 = -1.7, 0.9**2
    rng = np.random.default_rng(2)
    for d in (1, 2):
        V = make_gaussian_potential(a, 0.9, d)
        z = rng.normal(scale=3.0, size=(7, 5, d))
        z[0, 0] = 0.0
        general = (-a / w2) * z * np.exp(-np.sum(z * z, axis=-1, keepdims=True) / (2.0 * w2))
        np.testing.assert_array_equal(V.grad(z), general)
        np.testing.assert_array_equal(V.grad(z.reshape(-1, d)), general.reshape(-1, d))
        k = np.linspace(1.3, -0.6, d)
        np.testing.assert_array_equal(
            make_cosine_potential(a, k, d).grad(z), (-a * np.sin(z @ k))[..., None] * k
        )


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("family", ["gaussian", "cosine"])
def test_gradient_leaves_its_argument_alone(family, d):
    if family == "gaussian":
        V = make_gaussian_potential(0.9, 1.2, d)
    else:
        V = make_cosine_potential(0.9, np.linspace(0.8, 2.0, d), d)
    z = np.random.default_rng(3).normal(size=(4, 6, d))
    before = z.copy()
    g = V.grad(z)
    np.testing.assert_array_equal(z, before)
    assert not np.shares_memory(g, z)
    assert g.shape == z.shape


def test_gaussian_constants_attained_on_dense_scan():
    # |grad V| peaks at |z| = width; Hessian norm peaks at the origin.
    a, w = 0.8, 1.1
    V = make_gaussian_potential(a, w, 1)
    r = np.linspace(-6, 6, 20001)[:, None]
    g = np.abs(V.grad(r)[:, 0])
    assert g.max() <= V.sup_grad * (1 + 1e-12)
    assert g.max() == pytest.approx(V.sup_grad, rel=1e-6)
    hess = np.gradient(V.grad(r)[:, 0], r[:, 0])
    assert np.abs(hess).max() <= V.lip_grad * (1 + 1e-6)
    assert np.abs(hess).max() == pytest.approx(V.lip_grad, rel=1e-6)
    assert V.sup_grad == pytest.approx(a * np.exp(-0.5) / w, rel=1e-14)
    assert V.lip_grad == pytest.approx(a / w**2, rel=1e-14)


def test_cosine_values_and_constants():
    k = np.array([2.0, -1.0])
    V = make_cosine_potential(0.5, k, d=2)
    z = np.array([[0.1, 0.2], [-1.0, 0.5]])
    np.testing.assert_allclose(V(z), 0.5 * np.cos(z @ k), rtol=1e-14)
    np.testing.assert_allclose(V.grad(z), _fd_gradient(V, z), atol=1e-8)
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
        np.testing.assert_allclose(V.grad(z), -V.grad(-z), rtol=1e-12, atol=1e-15)


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
    g = float(np.hypot(*V.grad(np.array([z0, z1]))))
    assert g <= V.sup_grad * (1 + 1e-12) + 1e-300


def test_verify_constants_passes_honest_declaration():
    V = make_gaussian_potential(1.0, 1.0, 2)
    obs_sup, obs_lip = verify_constants(V, n_samples=4000, box=4.0, seed=7)
    assert obs_sup <= V.sup_grad * (1 + 1e-9)
    assert obs_lip <= V.lip_grad * (1 + 1e-9)
    # the sampled extrema should come close to the analytic ones
    assert obs_sup > 0.8 * V.sup_grad


def test_verify_constants_flags_understated_declaration():
    from dataclasses import replace

    V = make_gaussian_potential(1.0, 1.0, 2)
    lying = replace(V, sup_grad=V.sup_grad / 2)
    obs_sup, _ = verify_constants(lying, n_samples=2000, box=3.0, seed=1)
    assert obs_sup > lying.sup_grad * (1 + 1e-9)


def test_constructor_rejections():
    with pytest.raises(ValueError):
        make_gaussian_potential(1.0, 0.0, 1)
    with pytest.raises(ValueError):
        make_gaussian_potential(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        make_cosine_potential(1.0, [1.0, 0.0], d=1)
    # certified constants that are not finite certify nothing
    with pytest.raises(ValueError, match="lip_grad = inf"):
        make_gaussian_potential(1.0, 1e-300, 1)  # width^2 underflows to 0
    with pytest.raises(ValueError, match="sup_grad = inf, lip_grad = inf"):
        make_gaussian_potential(1e300, 1e-10, 1)
    with pytest.raises(ValueError, match="sup_abs = inf"):
        make_cosine_potential(float("inf"), [0.0], d=1)
