"""Kernel sums on a uniform grid by real FFT, and their table lookup.

Three layers sum a grid function against a kernel: the Hartree potential
V * |psi|^2 (`quantum.dynamics._density_potential`), the gridded Vlasov force
field (`classical._grid_field_1d`) and the tabulated F*rho of the consistency
estimator (`bounds._tabulated_convolution`).  All three build their table
with `kernel_table`, the only caller of `offset_convolution`; the last two
read it back through `table_lookup`.  The transforms are numpy's, which
run the same pocketfft code as `scipy.fft` and give its bits, so importing
the package loads neither `scipy.signal` nor `scipy.fft`.
"""
from __future__ import annotations

import numpy as np


def _next_fast_len(n: int) -> int:
    """The least 5-smooth number (2^a 3^b 5^c) >= n >= 1:
    `scipy.fft.next_fast_len(n, True)`, the length fftconvolve pads to."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            p2 = 1 << (-(-n // p35) - 1).bit_length()
            best = min(best, p2 * p35)
            p35 *= 3
        p5 *= 5
    return best


def offset_convolution(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[i] = sum_j values[j] * kernel[i - j + n - 1] for i < n = len(values),
    where `kernel` (length 2n - 1) holds the kernel at offsets -(n-1)..(n-1).

    This is entries n-1 .. 2n-2 of the full linear convolution, with no
    periodic wrap.  It runs the same transforms at the same padded length as
    `scipy.signal.fftconvolve`, so it agrees with
    `fftconvolve(values, kernel)[n - 1 : 2 * n - 1]` bit for bit.
    """
    n = len(values)
    size = len(values) + len(kernel) - 1
    fast = _next_fast_len(size)
    full = np.fft.irfft(np.fft.rfft(values, fast) * np.fft.rfft(kernel, fast), fast)
    return full[n - 1 : 2 * n - 1].copy()


def kernel_table(weights: np.ndarray, kernel, h: float, refine: int = 1) -> np.ndarray:
    """table[k] = sum_j weights[j] * kernel(h (k - refine j)), k <= refine (n - 1):
    the kernel sum at the nodes of a grid of step h whose node refine j holds
    weight j < n = len(weights); `kernel` maps a 1-D array of offsets to
    values.  Node refine i + r takes the kernel at h (refine (i - j) + r), so
    each residue r is one `offset_convolution` of the weights with the kernel
    at the 2n - 1 offsets h (refine s + r), |s| < n."""
    n = len(weights)
    table = np.empty(refine * (n - 1) + 1)
    steps = refine * np.arange(1 - n, n)
    for r in range(refine):
        residue = table[r::refine]
        residue[:] = offset_convolution(weights, kernel(h * (steps + r)))[: residue.size]
    return table


def table_lookup(nodes: np.ndarray, table: np.ndarray, exact):
    """x -> `table` linearly interpolated on `nodes` at x, of any shape.
    Points strictly outside [nodes[0], nodes[-1]] go to `exact`, which maps
    a 1-D array of points to their values; an end node stays on the table."""
    lo, hi = nodes[0], nodes[-1]

    def lookup(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1)
        out = np.interp(flat, nodes, table)
        outside = (flat < lo) | (flat > hi)
        if np.any(outside):
            out[outside] = exact(flat[outside])
        return out.reshape(x.shape)

    return lookup
