"""The shared grid convolution against scipy.signal.fftconvolve."""
import numpy as np
import pytest
from scipy.signal import fftconvolve

from mflab.convolution import offset_convolution


@pytest.mark.parametrize("n", [1, 2, 17, 100, 257, 4097, 32769])
def test_offset_convolution_is_fftconvolve_bit_for_bit(n):
    # the call sites' shape: n values against a kernel at 2n - 1 offsets,
    # sizes from tiny to the largest table the runners build
    rng = np.random.default_rng(n)
    values, kernel = rng.standard_normal(n), rng.standard_normal(2 * n - 1)
    out = offset_convolution(values, kernel)
    assert out.shape == (n,)
    assert np.array_equal(out, fftconvolve(values, kernel)[n - 1 : 2 * n - 1])


def test_offset_convolution_matches_the_direct_sum():
    rng = np.random.default_rng(5)
    n = 9
    values, kernel = rng.standard_normal(n), rng.standard_normal(2 * n - 1)
    direct = [sum(values[j] * kernel[i - j + n - 1] for j in range(n)) for i in range(n)]
    assert np.allclose(offset_convolution(values, kernel), direct, rtol=0, atol=1e-13)
