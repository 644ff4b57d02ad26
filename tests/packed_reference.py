"""The packed half-step transform as first written, the bit reference of the
library's transform: alpha_1..alpha_ceil(p/2) of each real row of y, shape
(..., p), from freshly allocated arrays."""

import numpy as np


def packed_formula(y):
    # even p = 2h: y_hi * -1j + y_lo, twiddled, one allocating FFT, then the
    # conjugate mirror into the spent input; odd p by Z_2p = Z_2 x Z_p,
    # alpha_n = conj(A[(p+1)/2-n]) with A the length-p real FFT of (-1)^k y_k / p
    p = y.shape[-1]
    if p % 2:
        return np.fft.rfft(y * (-1.0) ** np.arange(p), norm="forward")[..., ::-1].conj()
    h = p // 2
    z = y[..., h:] * -1j
    z += y[..., :h]
    z *= np.exp(-1j * np.pi * np.arange(h) / p) / p
    odd = np.fft.fft(z)
    q = (h + 1) // 2
    z[..., 0::2] = odd[..., :q]
    np.conjugate(odd[..., q:][..., ::-1], out=z[..., 1::2])
    return z
