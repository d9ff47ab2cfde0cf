"""The shared grid convolution against scipy.signal.fftconvolve, and the
kernel table and lookup built on it against direct sums."""
import numpy as np
import pytest
from scipy.fft import next_fast_len
from scipy.signal import fftconvolve

from mflab.convolution import _next_fast_len, kernel_table, offset_convolution, table_lookup


@pytest.mark.parametrize("n", [1, 2, 17, 100, 257, 4097, 32769])
def test_offset_convolution_is_fftconvolve_bit_for_bit(n):
    # the call sites' shape: n values against a kernel at 2n - 1 offsets,
    # sizes from tiny to the largest table the runners build
    rng = np.random.default_rng(n)
    values, kernel = rng.standard_normal(n), rng.standard_normal(2 * n - 1)
    out = offset_convolution(values, kernel)
    assert out.shape == (n,)
    assert np.array_equal(out, fftconvolve(values, kernel)[n - 1 : 2 * n - 1])


def test_next_fast_len_is_scipys_real_transform_length():
    # fftconvolve pads to scipy's next_fast_len(size, True); the same length
    # is what makes offset_convolution its bits
    sizes = range(1, 200_000)
    assert [_next_fast_len(n) for n in sizes] == [next_fast_len(n, True) for n in sizes]


def test_offset_convolution_matches_the_direct_sum():
    rng = np.random.default_rng(5)
    n = 9
    values, kernel = rng.standard_normal(n), rng.standard_normal(2 * n - 1)
    direct = [sum(values[j] * kernel[i - j + n - 1] for j in range(n)) for i in range(n)]
    assert np.allclose(offset_convolution(values, kernel), direct, rtol=0, atol=1e-13)


def _kernel(z):
    return np.exp(-0.3 * z * z) * np.cos(1.7 * z) + 0.05 * z


@pytest.mark.parametrize("n", [1, 2, 17, 257])
def test_kernel_table_at_refine_1_is_offset_convolution_bit_for_bit(n):
    # the Hartree and Vlasov shape: one residue, the kernel at the 2n - 1
    # offsets of the grid
    weights = np.random.default_rng(n).standard_normal(n)
    h = 0.37
    want = offset_convolution(weights, _kernel(np.arange(1 - n, n) * h))
    table = kernel_table(weights, _kernel, h)
    assert table.shape == (n,)
    assert np.array_equal(table, want)


@pytest.mark.parametrize("refine", [3, 8])
@pytest.mark.parametrize("n", [1, 2, 9, 40])
def test_kernel_table_matches_the_direct_sum(n, refine):
    weights = np.random.default_rng(10 * n + refine).standard_normal(n)
    h = 0.21
    k = np.arange(refine * (n - 1) + 1)
    direct = [sum(weights[j] * _kernel(h * (i - refine * j)) for j in range(n)) for i in k]
    table = kernel_table(weights, _kernel, h, refine)
    assert table.shape == k.shape
    assert np.allclose(table, direct, rtol=0, atol=1e-13)


def _lookup_with_log(nodes, table):
    sent = []

    def exact(x):
        sent.append(x.copy())
        return np.full(x.shape, 99.0)

    return table_lookup(nodes, table, exact), sent


def test_table_lookup_interpolates_between_nodes():
    nodes = np.linspace(-1.0, 2.0, 7)
    table = np.array([3.0, -1.0, 0.5, 4.0, 2.0, 2.0, -6.0])
    lookup, sent = _lookup_with_log(nodes, table)
    assert np.array_equal(lookup(nodes), table)
    mid = 0.5 * (nodes[:-1] + nodes[1:])
    assert np.allclose(lookup(mid), 0.5 * (table[:-1] + table[1:]), rtol=0, atol=1e-15)
    quarter = nodes[2] + 0.25 * (nodes[3] - nodes[2])
    assert lookup(np.array([quarter]))[0] == pytest.approx(0.75 * table[2] + 0.25 * table[3])
    # any shape in, the same shape out
    assert lookup(nodes.reshape(7, 1)).shape == (7, 1)
    assert sent == []


def test_table_lookup_sends_only_points_past_the_end_nodes_to_the_exact_sum():
    nodes = np.linspace(-1.0, 2.0, 7)
    table = np.arange(7.0)
    lookup, sent = _lookup_with_log(nodes, table)
    below, above = np.nextafter(-1.0, -np.inf), np.nextafter(2.0, np.inf)
    x = np.array([[below], [-1.0], [0.3], [2.0], [above], [50.0]])
    out = lookup(x)
    assert out.shape == x.shape
    assert np.array_equal(out[[0, 4, 5], 0], [99.0] * 3)
    assert out[1, 0] == table[0] and out[3, 0] == table[-1]
    assert len(sent) == 1 and np.array_equal(sent[0], [below, above, 50.0])
