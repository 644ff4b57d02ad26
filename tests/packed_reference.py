"""Allocating references for the engine's bits: the packed half-step transform as
first written, alpha_1..alpha_ceil(p/2) of each real row of y, shape (..., p),
and the per-trial statistics, both from freshly allocated arrays; and the
engine's own per-trial rows of a run of chunks, to compare with them."""

import numpy as np

from anticip.closed_form import _half_bin
from anticip.sampling import CHUNK, _Plan


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


def chunk_sizes(trials):
    """The trials of each chunk: CHUNK each, the last one the rest."""
    return [min(CHUNK, trials - c) for c in range(0, trials, CHUNK)]


def trial_stats(cfg, y, ptot, pn, weights, bins):
    """Per-trial statistics from freshly allocated arrays, by key: pn holds p_n over
    the half `bins`, weighted by the plan's `weights` on the line; p_N is p_tot less
    twice the near window (a period's bins 1..N, the line's weights); a moment is pn @ w;
    the near-zero count is #{k : |y_k| < epsilon}."""
    out = {("p_tot", None): ptot}
    line = cfg.period is None
    for n in cfg.n_list:
        col = pn[:, list(bins).index(int(_half_bin(cfg.size, n)))]
        out[("p_n", float(n))] = weights[("p_n", float(n))] * col if line else col
    for N in cfg.N_list:
        key = ("p_N", float(N))
        out[key] = ptot - 2.0 * (pn @ weights[key] if line else pn[:, :N].sum(axis=1))
    for r in cfg.r_list:
        out[("moment", float(r))] = pn @ weights[("moment", float(r))]
    if cfg.epsilon is not None:
        out[("near_zero_count", float(cfg.epsilon))] = (np.abs(y) < cfg.epsilon).sum(axis=1)
    return out


def engine_rows(cfg, run=None):
    """The engine's per-trial statistic rows, by key, of the (ordinal, n_trials) chunks
    of `run`, by default chunk 0 holding every trial."""
    plan = _Plan(cfg)
    for stats, _, hi in plan.stages(run or [(0, cfg.trials)]):
        pass
    return {key: row[:hi].copy() for key, row in zip(plan.preds, stats)}
