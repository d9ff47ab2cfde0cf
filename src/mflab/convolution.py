"""Linear convolution on a uniform grid by real FFT.

Three layers sum a grid function against a kernel sampled at the grid's
offsets: the Hartree potential V * |psi|^2, the gridded Vlasov force field
and the tabulated F*rho of the consistency estimator.  They share this one
routine, which takes `scipy.fft` only, so importing the package does not pull
in `scipy.signal`.
"""
from __future__ import annotations

import numpy as np
from scipy import fft as sfft


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
    fast = sfft.next_fast_len(size, True)
    full = sfft.irfft(sfft.rfft(values, fast) * sfft.rfft(kernel, fast), fast)
    return full[n - 1 : 2 * n - 1].copy()
