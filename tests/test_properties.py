"""Property-based checks of the transform identities and the moment reduction."""

import math

import numpy as np
import pytest

try:
    from hypothesis import example, given, settings
    from hypothesis import strategies as st
except ModuleNotFoundError:  # pragma: no cover
    pytest.skip("hypothesis is required for property-based tests", allow_module_level=True)

from anticip import (
    MomentAccumulator,
    MonteCarloConfig,
    SamplingDistribution,
    SpectralDifferenceContinuous,
    SpectralDifferencePeriodic,
    amplitudes_continuous,
    amplitudes_periodic,
    folded_index,
    probabilities,
)
from anticip.sampling import _batch_moments, _chunks, _rows, _spectrum_bins, _trial_stats
from anticip.spectral import half_step_bins, half_step_phase_matrix, half_step_roots, line_factor

component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
periodic_values = st.lists(component, min_size=2, max_size=48)
continuous_values = st.lists(component, min_size=2, max_size=24)


@given(values=periodic_values)
def test_parseval_periodic(values):
    sd = SpectralDifferencePeriodic(values)
    pr = probabilities(amplitudes_periodic(sd))
    assert pr.p_tot == pytest.approx(float(np.mean(sd.values**2)), rel=1e-12, abs=1e-12)


@given(values=periodic_values)
def test_symmetry_periodic(values):
    sd = SpectralDifferencePeriodic(values)
    p = sd.period
    pr = probabilities(amplitudes_periodic(sd))
    for n in range(1, p + 1):
        partner = (p + 1 - n - 1) % p
        assert pr.values[n - 1] == pytest.approx(pr.values[partner], abs=1e-12)


@given(values=periodic_values)
def test_transform_modes_agree(values):
    sd = SpectralDifferencePeriodic(values)
    fast = amplitudes_periodic(sd, "fast-transform").values
    exact = amplitudes_periodic(sd, "exact-sum").values
    assert np.max(np.abs(fast - exact)) <= 1e-12


@given(values=periodic_values)
def test_half_step_amplitudes_match_exact_sum_and_mirror(values):
    sd = SpectralDifferencePeriodic(values)
    full = amplitudes_periodic(sd).values
    exact = amplitudes_periodic(sd, "exact-sum").values
    assert full.shape == (sd.period,)
    assert np.max(np.abs(full - exact)) <= 1e-12
    assert np.array_equal(full[::-1], full.conj())  # alpha_{p+1-n} = conj(alpha_n)


def _bins(y):
    """`half_step_bins` of a copy of y, in a fresh output array."""
    y = np.array(y, dtype=float)
    p = y.shape[-1]
    return half_step_bins(y, np.empty(y.shape[:-1] + ((p + 1) // 2,), complex), half_step_roots(p, p // 2) / p)


@given(rows=st.integers(min_value=2, max_value=48).flatmap(
    lambda p: st.lists(st.lists(component, min_size=p, max_size=p), min_size=1, max_size=6)))
@example(rows=[[0.0, 0.0], [-5e-324, 1.0]])  # a subnormal product that rounds to zero
def test_half_step_amplitudes_batched_rows_bit_identical(rows):
    # the engine transforms a chunk's rows in one batch; each row's bins are its single-row bins
    batch = _bins(rows)
    for row, out in zip(rows, batch):
        assert _bins(row).tobytes() == out.tobytes()


class _Rows:
    """A stand-in component law whose draws are the given rows."""

    def __init__(self, rows):
        self.rows = rows

    def sample(self, rng, shape, out):
        out[:] = self.rows
        return out


@settings(max_examples=60, deadline=None)
@given(case=st.integers(min_value=2, max_value=64).flatmap(lambda p: st.tuples(
    st.lists(component, min_size=p, max_size=p),
    st.lists(st.integers(1, p), min_size=1, max_size=p, unique=True))))
@example(case=([(-1) ** k * k / 64 for k in range(64)], list(range(1, 33))))
@example(case=([k / 33 for k in range(33)], [17, 1, 2, 3, 4]))
def test_phase_matrix_probabilities_match_exact_sum_and_fsum(case):
    values, bins = case
    p, K, y = len(values), len(bins), np.array(values)
    a = y @ half_step_phase_matrix(p, bins)
    pn = a[:K] ** 2 + a[K:] ** 2
    exact = np.abs(amplitudes_periodic(SpectralDifferencePeriodic(y), "exact-sum").values) ** 2
    assert np.max(np.abs(pn - exact[np.array(bins) - 1])) <= 1e-15
    # the engine's FFT chunk, both parities: p_n for the half bins n = 1..ceil(p/2), one block
    [(_, _, ptot, fft_pn)] = _chunks(_Rows(y), p, 1, W=None)(None, 1)
    assert np.max(np.abs(fft_pn[0] - exact[: (p + 1) // 2])) <= 1e-15
    assert ptot[0] == float(np.mean(y * y))
    for n, got in zip(bins, pn):  # each phase reduced in Python integers, each part summed exactly
        angles = [math.pi * ((2 * n - 1) * k % (2 * p)) / p for k in range(p)]
        re = math.fsum(v * math.cos(t) for v, t in zip(values, angles)) / p
        im = math.fsum(v * math.sin(t) for v, t in zip(values, angles)) / p
        assert abs(got - (re * re + im * im)) <= 1e-15, (p, n)
    # p_N for every N < p/2 from the matrix chunk (at most 31 bins, no moment) and the
    # FFT chunk (a moment): the exact-sum mass of n = N+1..p-N, nonincreasing in N
    Ns = tuple(range((p + 1) // 2))
    for moments in ((), (0.0,)):
        stats = _engine_rows([y], period=p, N_list=Ns, r_list=moments)
        tails = [stats[("p_N", float(N))][0] for N in Ns]
        assert tails[0] == ptot[0]
        for N, tail in zip(Ns, tails):
            assert abs(tail - math.fsum(exact[N : p - N])) <= 1e-15, (p, N, moments)
        assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))


@given(values=periodic_values)
def test_probabilities_in_unit_interval(values):
    pr = probabilities(amplitudes_periodic(SpectralDifferencePeriodic(values)))
    assert pr.values.min() >= 0.0
    assert pr.values.max() <= 1.0 + 1e-12
    assert pr.p_tot <= 1.0 + 1e-9


@settings(deadline=None)
@given(values=periodic_values)
def test_tails_nonincreasing(values):
    # the engine's p_N = sum of p_n over n = N+1..p-N starts at p_tot and never grows with N
    p = len(values)
    Ns = tuple(range((p - 1) // 2 + 1))
    stats = _engine_rows([values], period=p, N_list=Ns)
    tails = [stats[("p_N", float(N))][0] for N in Ns]
    assert tails[0] == pytest.approx(float(np.mean(np.square(values))), rel=1e-12, abs=1e-15)
    assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))


@settings(max_examples=40)
@given(values=continuous_values, half=st.integers(min_value=2, max_value=40))
def test_continuous_symmetry_and_band(values, half):
    sd = SpectralDifferenceContinuous(values)
    pr = probabilities(amplitudes_continuous(sd, 1 - half, half))
    flipped = pr.values[::-1]
    assert np.max(np.abs(pr.values - flipped)) <= 1e-12
    assert pr.p_tot <= float(np.mean(sd.values**2)) + 1e-12


@settings(max_examples=60, deadline=None)
@given(values=st.integers(min_value=2, max_value=64).flatmap(
           lambda M: st.lists(component, min_size=M, max_size=M)),
       n_min=st.integers(min_value=-10**7, max_value=10**7 - 40),
       width=st.integers(min_value=0, max_value=40))
@example(values=[1.0, -1.0] * 32, n_min=-10**7, width=40)
@example(values=[1.0] * 64, n_min=-20, width=40)  # |alpha| near 1 around n = 0 and 1
def test_line_amplitudes_are_the_factor_times_the_exact_period(values, n_min, width):
    # alpha_n on the line of M cells is line_factor(M, n) times the period-M
    # amplitude alpha_{((n-1) mod M)+1}, here from the O(M^2) exact sum
    sd = SpectralDifferenceContinuous(values)
    M, n = sd.cells, np.arange(n_min, n_min + width + 1)
    exact = amplitudes_periodic(SpectralDifferencePeriodic(values), "exact-sum").values
    amps = amplitudes_continuous(sd, n_min, n_min + width).values
    assert np.max(np.abs(amps - line_factor(M, n) * exact[(n - 1) % M])) <= 1e-15


def _engine_rows(rows, **size_and_stats):
    """Per-trial statistics of the engine's chunk and reduction for the given rows."""
    cfg = MonteCarloConfig(dist=SamplingDistribution.uniform(), trials=len(rows), seed=0, **size_and_stats)
    bins, W = _spectrum_bins(cfg)
    [(_, *drawn)] = _chunks(_Rows(np.array(rows)), cfg.size, len(rows), W)(None, len(rows))
    return _trial_stats(cfg, *drawn, _rows(cfg, bins)[0], bins)


@settings(max_examples=60, deadline=None)
@given(case=st.integers(min_value=2, max_value=64).flatmap(lambda M: st.tuples(
           st.lists(st.lists(component, min_size=M, max_size=M), min_size=1, max_size=4),
           st.lists(st.integers(-10**7, 10**7), min_size=1, max_size=4, unique=True))))
@example(case=([[1.0, -1.0] * 32], [1, 0, 33, -10**7]))
@example(case=([[1.0] * 64, [(-1) ** k * k / 64 for k in range(64)]], [1, 2, 64, 10**7]))
def test_line_rows_are_the_weight_times_the_period_rows(case):
    # the engine's line p_n of the drawn rows is |line_factor(M, n)|^2 times the p_c,
    # c = (n-1) mod M + 1, of its period-M run of the same rows, and so within
    # 1e-15 * w_n of the exact-sum p_c
    rows, ns = case
    M = len(rows[0])
    cs = [(n - 1) % M + 1 for n in ns]
    line = _engine_rows(rows, cells=M, n_list=tuple(ns))
    period = _engine_rows(rows, period=M, n_list=tuple(sorted(set(cs))))
    exact = np.abs([amplitudes_periodic(SpectralDifferencePeriodic(row), "exact-sum").values for row in rows]) ** 2
    for n, c, w in zip(ns, cs, np.abs(line_factor(M, ns)) ** 2):
        got, want = line[("p_n", float(n))], w * period[("p_n", float(c))]
        assert np.all(np.abs(got - want) <= 1e-15 * want), (M, n)
        assert np.max(np.abs(got - w * exact[:, c - 1])) <= 1e-15 * w, (M, n)


@given(n=st.integers(min_value=-10_000, max_value=10_000),
       p=st.integers(min_value=2, max_value=200))
def test_tilde_properties(n, p):
    folded = int(folded_index(n, p))
    assert 0 <= folded <= -(-p // 2)
    assert folded == int(folded_index(-n, p))
    if n >= 0:  # the fold applies |n| before the residue, so only n >= 0 wraps
        assert folded == int(folded_index(n + p, p))
    assert int(folded_index(n, 2 * abs(n) + 2)) == abs(n)  # no fold below half a period


moment_value = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)


def _moment_row(n):
    return st.one_of(
        moment_value.map(lambda v: [v] * n),  # constant row
        st.lists(moment_value, min_size=n, max_size=n),
        st.lists(st.one_of(moment_value, st.just(float("nan"))), min_size=n, max_size=n),
    )


def _scalar_moments(x):
    """The one-statistic-at-a-time reduction the batched kernel replaced."""
    if np.all(x == x[0]):
        return float(x[0]), 0.0, 0.0, 0.0
    mean = float(x.mean())
    d = x - mean
    d2 = d * d
    return mean, float(d2.sum()), float((d2 * d).sum()), float((d2 * d2).sum())


@given(rows=st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.lists(_moment_row(n), min_size=1, max_size=5)))
@example(rows=[[0.25]])
@example(rows=[[float("nan")], [-0.0]])
@example(rows=[[0.1] * 256, [0.1, 0.2] * 128, [float("nan")] + [1.0] * 255])
def test_batch_moments_rows_equal_single_row_reductions(rows):
    x = np.array(rows, dtype=float)
    out = _batch_moments(x)
    assert out.shape == (len(rows), 4)
    for row, got in zip(x, out):
        acc = MomentAccumulator()
        acc.add_batch(row)
        assert acc.count == row.size
        assert got.tobytes() == np.array([acc.mean, acc.m2, acc.m3, acc.m4]).tobytes()
        assert got.tobytes() == np.array(_scalar_moments(row)).tobytes()
