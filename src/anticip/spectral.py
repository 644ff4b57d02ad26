"""Spectral differences and the half-step amplitudes they generate.

The normalized spectral difference yhat stores p*y per residue class
(periodic) or 2*pi*y per cell (piecewise constant on M cells of [0, 2*pi)),
so components always lie in [-1, 1] and a constant difference y has total
half-step probability y^2.

Half-step amplitudes use half-integer frequencies:

    periodic:    alpha_n = p^-1 sum_k yhat_k exp(-2*pi*i*(n-1/2)*k/p)
    continuous:  alpha_n = (2*pi)^-1 integral yhat(kappa) exp(-i*(n-1/2)*kappa) dkappa

For real yhat the periodic amplitudes are conjugate-symmetric,
alpha_{p+1-n} = conj(alpha_n), so only alpha_1..alpha_ceil(p/2) are computed:
all from one FFT of half the doubled length (`half_step_bins`), or a few of
them from one real matrix product with `half_step_phase_matrix`. Even p = 2h
packs each row into a length-h complex FFT. Odd p uses the index map
Z_2p = Z_2 x Z_p (Good-Thomas): the odd frequency 2n-1 is 2g+p mod 2p with
g = n-(p+1)/2, so alpha_n = conj(A[(p+1)/2-n]) for A the length-p real FFT of
(-1)^k yhat_k / p. That matrix and the O(p^2) `exact-sum` oracle read
exp(-i*pi*(2n-1)*k/p) from one table of the 2p-th roots of unity at the exact
integer index (2n-1)*k mod 2p. On M cells alpha_n is `line_factor` times the
period-M alpha_n: each cell's integral in closed form, with no quadrature.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import DiscreteMeasure, _frozen, grid_indices

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
    """Amplitudes over a contiguous index range; p-periodic when period is set."""

    n_start: int
    values: np.ndarray
    period: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", _frozen(self.values, complex))

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_start, self.n_start + self.values.size)


@dataclass(frozen=True)
class ProbabilitySeries:
    """Detection probabilities |alpha_n|^2 plus their total over the range."""

    n_start: int
    values: np.ndarray
    p_tot: float
    period: int | None = None

    def __post_init__(self):
        arr = _frozen(self.values, float)
        if arr.size and (float(arr.min()) < -1e-15 or float(arr.max()) > 1.0 + 1e-9):
            raise ValueError("probabilities must lie in [0, 1]")
        if self.p_tot > 1.0 + 1e-9:
            raise ValueError("total probability exceeds 1")
        object.__setattr__(self, "values", arr)

    @property
    def indices(self) -> np.ndarray:
        return np.arange(self.n_start, self.n_start + self.values.size)


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


def half_step_amplitudes(y: np.ndarray) -> np.ndarray:
    """alpha_1..alpha_ceil(p/2) of each real row of y, shape (..., p), from
    `half_step_bins` on a copy of y. Even p = 2h puts alpha_{2m+1} in place
    and mirrors the rest, alpha_{2m+2} = conj(alpha_{2(h-1-m)+1}); odd p
    reverses and conjugates all bins. Every row is transformed on its own, so
    a batched call returns each row's single-row result bit for bit.
    """
    y = np.array(y, dtype=float)  # a copy: odd p flips signs in place
    p = y.shape[-1]
    bins = half_step_bins(y, np.empty(y.shape[:-1] + ((p + 1) // 2,), complex),
                          half_step_roots(p, p // 2) / p)
    half = np.empty_like(bins)
    if p % 2:
        return np.conjugate(bins[..., ::-1], out=half)
    q = (p // 2 + 1) // 2
    half[..., 0::2] = bins[..., :q]
    np.conjugate(bins[..., q:][..., ::-1], out=half[..., 1::2])
    return half


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

    `fast-transform` computes alpha_1..alpha_ceil(p/2) with
    `half_step_amplitudes` and mirrors them, alpha_{p+1-n} = conj(alpha_n),
    so the symmetry holds exactly; `exact-sum` is the O(p^2) direct sum over
    all p indices, no transform and no mirror, with each phase read from the
    table of 2p-th roots at the exact index (2n-1)*k mod 2p, so no float phase
    exceeds 2*pi. The two agree to about 1e-17.
    """
    p = sd.period
    if mode == "fast-transform":
        half = half_step_amplitudes(sd.values)
        amps = np.concatenate([half, half[: p // 2][::-1].conj()])
    elif mode == "exact-sum":
        two_p, block, k = 2 * p, 8, np.arange(p)
        roots = half_step_roots(p)
        idx = np.outer(2 * np.arange(1, block + 1) - 1, k) % two_p  # rows n = 1..block
        u, step = idx.view(np.uint64), (2 * block * k % two_p).astype(np.uint64)
        amps = np.empty(p, dtype=complex)
        for lo in range(0, p, block):
            amps[lo : lo + block] = roots[idx[: p - lo]] @ sd.values / p
            u += step  # rows n + block; now u < 4p, and u - 2p wraps past 2^63 if u < 2p,
            np.minimum(u, u - np.uint64(two_p), out=u)  # so this is u mod 2p
    else:
        raise ValueError(f"unknown mode {mode!r}; expected one of {AMPLITUDE_MODES}")
    return AmplitudeSeries(n_start=1, values=amps, period=p)


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
    return AmplitudeSeries(n_start=n_min, values=amps, period=None)


def probabilities(amps: AmplitudeSeries) -> ProbabilitySeries:
    """p_n = |alpha_n|^2, with p_tot summed over the series range."""
    vals = np.abs(amps.values) ** 2
    return ProbabilitySeries(
        n_start=amps.n_start,
        values=vals,
        p_tot=float(vals.sum()),
        period=amps.period,
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


def cumulative_probability(probs: ProbabilitySeries, N: int) -> float:
    """Tail probability p_N: the mass outside the near window n = 1-N..N.

    Periodic series need the full period n = 1..p and N < p/2, and the window
    wraps, leaving n = N+1 .. p-N; a continuous series sums its window indices
    n < 1-N and n > N. Both are the p_N that `sampling` estimates.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    offset = probs.indices - (1 - N)  # 0..2N-1 inside the near window
    if probs.period is not None:
        p = probs.period
        if probs.n_start != 1 or probs.values.size != p:
            raise ValueError("periodic tail sums need the full-period series n = 1..p")
        if N >= p / 2:
            raise ValueError(f"N must be below p/2 = {p / 2} (got {N})")
        offset %= p
    return float(probs.values[(offset < 0) | (offset >= 2 * N)].sum())


def spectral_difference_from_measure(
    measure: DiscreteMeasure, p: int
) -> SpectralDifferencePeriodic:
    """Fold a measure modulo 4*pi into the per-class normalized difference.

    Points must sit on the grid 2*pi*(n + k/p) and every residue class must
    carry total mass 1/p within 1e-9 (the uniform-reduction constraint,
    checked by `bounds.grid_indices`, which raises OrthogonalityError); the
    class difference is then p * (even-shift mass - odd-shift mass).
    """
    if p < 2:
        raise ValueError("period must be at least 2")
    flat = grid_indices(measure, p)
    classes = flat % p
    odd = flat // p % 2 == 1
    w = measure.weights
    # even- and odd-shift masses are summed apart; one signed sum rounds differently
    even_mass = np.bincount(classes[~odd], weights=w[~odd], minlength=p)
    odd_mass = np.bincount(classes[odd], weights=w[odd], minlength=p)
    # class masses were verified to 1e-9, so any unit-band overshoot is fuzz
    yhat = np.clip(p * (even_mass - odd_mass), -1.0, 1.0)
    return SpectralDifferencePeriodic(yhat)
