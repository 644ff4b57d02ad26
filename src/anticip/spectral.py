"""Spectral differences and the half-step amplitudes they generate.

The normalized spectral difference yhat stores p*y per residue class
(periodic) or 2*pi*y per cell (piecewise constant on M cells of [0, 2*pi)),
so components always lie in [-1, 1] and a constant difference y has total
half-step probability y^2.

Half-step amplitudes use half-integer frequencies:

    periodic:    alpha_n = p^-1 sum_k yhat_k exp(-2*pi*i*(n-1/2)*k/p)
    continuous:  alpha_n = (2*pi)^-1 integral yhat(kappa) exp(-i*(n-1/2)*kappa) dkappa

For real yhat the periodic amplitudes are conjugate-symmetric,
alpha_{p+1-n} = conj(alpha_n), so only ceil(p/2) of them are computed: all
from one FFT of half the doubled length (`half_step_bins`, whose bins give all
p by copies and conjugations), or a few from one real matrix product with
`half_step_phase_matrix`. Even p = 2h packs each row into a length-h complex
FFT. Odd p uses the index map Z_2p = Z_2 x Z_p (Good-Thomas): the odd
frequency 2n-1 is 2g+p mod 2p with g = n-(p+1)/2, so alpha_n =
conj(A[(p+1)/2-n]) for A the length-p real FFT of (-1)^k yhat_k / p. That
matrix and the O(p^2) `exact-sum` oracle read exp(-i*pi*(2n-1)*k/p) from one
table of the 2p-th roots of unity at the exact integer index (2n-1)*k mod 2p;
the oracle reads it once for each pair k, p-k, whose phases are w and
-conj(w). On M cells alpha_n is `line_factor` times the period-M alpha_n:
each cell's integral in closed form, with no quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import _frozen

_BOUND_SLACK = 1e-12
_TAIL_TOL = 1e-6  # the tail estimate that sets `truncation_window`

AMPLITUDE_MODES = ("fast-transform", "exact-sum")


@dataclass(frozen=True)
class _SpectralDifference:
    """One component per residue class or cell, each in [-1, 1]."""

    values: np.ndarray

    def __post_init__(self):
        arr = _frozen(self.values, float)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError(self._too_small)
        if not np.all(np.abs(arr) <= 1.0 + _BOUND_SLACK):
            raise ValueError("normalized spectral difference must be finite and lie in [-1, 1]")
        object.__setattr__(self, "values", arr)


@dataclass(frozen=True)
class SpectralDifferencePeriodic(_SpectralDifference):
    """yhat_0..yhat_{p-1}, one component per residue class, each in [-1, 1]."""

    _too_small = "period must be at least 2"

    @property
    def period(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class SpectralDifferenceContinuous(_SpectralDifference):
    """yhat_0..yhat_{M-1}, cell j covering kappa in [2*pi*j/M, 2*pi*(j+1)/M)."""

    _too_small = "cell count must be at least 2"

    @property
    def cells(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class AmplitudeSeries:
    """Amplitudes over a contiguous index range."""

    n_start: int
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, complex))


@dataclass(frozen=True)
class ProbabilitySeries:
    """Detection probabilities |alpha_n|^2 plus their total over the range."""

    n_start: int
    values: np.ndarray
    p_tot: float

    def __post_init__(self):
        arr = _frozen(self.values, float)
        if arr.size and (float(arr.min()) < -1e-15 or float(arr.max()) > 1.0 + 1e-9):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.p_tot > 1.0 + 1e-9:
            raise ValueError("total probability exceeds 1")
        object.__setattr__(self, "values", arr)


def half_step_roots(p: int, count: int | None = None) -> np.ndarray:
    """exp(-i*pi*j/p) for j < count, by default all 2p of them, where the phase
    of (2n-1)*k sits at j = (2n-1)*k mod 2p; `count` = p/2 gives the FFT twiddle."""
    return np.exp(-1j * np.pi * np.arange(2 * p if count is None else count) / p)


def half_step_bins(y: np.ndarray, z: np.ndarray, twiddle: np.ndarray) -> np.ndarray:
    """The ceil(p/2) half bins of each real row of y, shape (..., p), computed
    in the complex array z of shape (..., ceil(p/2)) and returned in transform
    order.

    Even p = 2h returns alpha_1, alpha_3, ..., alpha_{p-1}: it packs the two
    halves of a row into z_j = (yhat_j - i*yhat_{j+h}) * exp(-i*pi*j/p) / p
    (`twiddle`) and takes the in-place length-h DFT. Odd p negates the odd-k
    components of y in place (exact) and returns A, the length-p real FFT of
    (-1)^k yhat_k / p, with alpha_n = conj(A[(p+1)/2-n]); `twiddle` is unused.
    """
    p = y.shape[-1]
    if p % 2:
        np.negative(y[..., 1::2], out=y[..., 1::2])
        return np.fft.rfft(y, norm="forward", out=z)
    h = p // 2
    # the same bits, signed zeros included, as y[..., h:] * -1j + y[..., :h]
    np.add(y[..., :h], 0.0, out=z.real)
    np.subtract(0.0, y[..., h:], out=z.imag)
    if h == 1:
        # the twiddle is 1/2: each part is scaled in real arithmetic, so one row
        # and a batch round alike; numpy's complex product takes one row through
        # its scalar loop and a batch through its vector loop, and the two round
        # subnormal products to zeros of opposite sign
        z.real *= twiddle.real
        z.imag *= twiddle.real
    else:
        z *= twiddle
    return np.fft.fft(z, out=z)


def half_step_phase_matrix(p: int, bins) -> np.ndarray:
    """Real (p, 2K) W with y @ W = [Re alpha_n | Im alpha_n] for the K half bins
    n_j in `bins`: W[k, j] + i*W[k, K+j] = exp(-i*pi*(2n_j-1)*k/p) / p, each
    read from `half_step_roots` at the exact index (2n_j-1)*k mod 2p."""
    odd = 2 * np.asarray(bins, dtype=np.int64) - 1
    phase = half_step_roots(p)[np.outer(np.arange(p), odd) % (2 * p)] / p
    return np.concatenate((phase.real, phase.imag), axis=1)


def line_factor(cells: int, n) -> np.ndarray:
    """sinc(pi*w/M) * exp(-i*pi*w/M), w = n-1/2: alpha_n on M cells over alpha_n of period M.
    Both parts come from `half_step_roots(2M)`: the phase at j = (2n-1) mod 4M, sin(pi*w/M) as
    -Im at the first-quadrant index min(k, 2M-k), k = j mod 2M, negated for j >= 2M."""
    n = np.asarray(n, dtype=np.int64)
    roots, j = half_step_roots(2 * cells), (2 * n - 1) % (4 * cells)
    k = j % (2 * cells)
    sin = roots[np.minimum(k, 2 * cells - k)].imag * np.where(j < 2 * cells, -1.0, 1.0)
    return roots[j] * (sin * cells / (np.pi * (n - 0.5)))


def amplitudes_periodic(
    sd: SpectralDifferencePeriodic, mode: str = "fast-transform"
) -> AmplitudeSeries:
    """Amplitudes for n = 1..p.

    `fast-transform` takes the ceil(p/2) bins of one `half_step_bins` call and
    fills the rest by alpha_{p+1-n} = conj(alpha_n), so the symmetry holds
    exactly; `exact-sum` is the O(p^2) direct sum over all p indices, no
    transform and no mirror, with each phase w read from the table of 2p-th
    roots at the exact index (2n-1)*k mod 2p, so no float phase exceeds 2*pi;
    k and p-k share w up to -conj, so k = 1..(p-1)/2 carry (y_k - y_{p-k}) Re w
    and (y_k + y_{p-k}) Im w. The two agree to ~1e-17.
    """
    p = sd.period
    if mode == "fast-transform":
        y, K = sd.values.copy(), (p + 1) // 2  # a copy: odd p flips signs in place
        bins = half_step_bins(y, np.empty(K, complex), half_step_roots(p, p // 2) / p)
        amps = np.empty(p, complex)
        if p % 2:  # alpha_n = conj(A[K-n]), so alpha_{K+j} = conj(alpha_{K-j}) = A[j]
            np.conjugate(bins[::-1], out=amps[:K])
            amps[K:] = bins[1:]
        else:  # alpha_{2m+1} = b_m, alpha_{2m} = conj(alpha_{p+1-2m}) = conj(b_{h-m})
            amps[0::2] = bins
            np.conjugate(bins[::-1], out=amps[1::2])
    elif mode == "exact-sum":
        y, two_p, block, h = sd.values, 2 * p, 8, (p - 1) // 2
        roots, k, odd = half_step_roots(p), np.arange(1, h + 1), 2 * np.arange(1, p + 1) - 1
        diff, total = y[1 : h + 1] - y[: -h - 1 : -1], y[1 : h + 1] + y[: -h - 1 : -1]  # y_k -/+ y_{p-k}
        amps = np.full(p, y[0], dtype=complex)
        if p % 2 == 0:  # k = p/2 pairs with itself
            amps += y[p // 2] * roots[odd * (p // 2) % two_p]
        idx = np.outer(odd[:block], k) % two_p  # rows n = 1..block, columns k = 1..h
        u, step = idx.view(np.uint64), (2 * block * k % two_p).astype(np.uint64)
        for lo in range(0, p, block):
            amps.real[lo : lo + block] += roots.real[idx[: p - lo]] @ diff
            amps.imag[lo : lo + block] += roots.imag[idx[: p - lo]] @ total
            u += step  # rows n + block; now u < 4p, and u - 2p wraps past 2^63 if u < 2p,
            np.minimum(u, u - np.uint64(two_p), out=u)  # so this is u mod 2p
        amps /= p
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {AMPLITUDE_MODES}")
    return AmplitudeSeries(n_start=1, values=amps)


def amplitudes_continuous(
    sd: SpectralDifferenceContinuous, n_min: int, n_max: int
) -> AmplitudeSeries:
    """Amplitudes for n = n_min..n_max: `line_factor` times the fast-transform
    period-M amplitude alpha_{((n-1) mod M)+1} of the same components."""
    if n_min > n_max:
        raise ValueError("n_min must not exceed n_max")
    indices = np.arange(n_min, n_max + 1)
    period = amplitudes_periodic(SpectralDifferencePeriodic(sd.values)).values
    amps = line_factor(sd.cells, indices) * period[(indices - 1) % sd.cells]
    return AmplitudeSeries(n_start=n_min, values=amps)


def probabilities(amps: AmplitudeSeries) -> ProbabilitySeries:
    """p_n = |alpha_n|^2, with p_tot summed over the series range."""
    vals = np.abs(amps.values) ** 2
    return ProbabilitySeries(
        n_start=amps.n_start,
        values=vals,
        p_tot=float(vals.sum()),
    )


def truncation_window(sd: SpectralDifferenceContinuous) -> int:
    """Default symmetric window bound: smallest n_max whose tail estimate
    2*max(yhat^2)/(pi^2*(n_max-1/2)) falls below _TAIL_TOL = 1e-6.

    The estimate is tight for smooth (constant-like) differences; rapidly
    alternating cells carry tails up to a factor M larger.
    """
    peak = float(np.max(sd.values**2))
    if peak == 0.0:
        return 1
    return int(np.ceil(0.5 + 2.0 * peak / (np.pi**2 * _TAIL_TOL)))


def folded_index(n, p: int) -> np.ndarray:
    """Folded index distance tilde(n) of each n: |n| mod p reflected into
    0..ceil(p/2)."""
    m = np.abs(np.asarray(n)) % p
    return np.where(2 * m <= p + 1, m, p + 1 - m)

