"""Property-based checks of the transform identities and the moment reduction."""

import json
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
    stream,
    MonteCarloConfig,
    SamplingDistribution,
    SpectralDifferenceContinuous,
    SpectralDifferencePeriodic,
    amplitudes_continuous,
    amplitudes_periodic,
    folded_index,
    probabilities,
    run_monte_carlo,
)
from anticip.sampling import CHUNK, _batch_moments
from anticip.spectral import half_step_bins, half_step_phase_matrix, half_step_roots, line_factor
from packed_reference import engine_rows

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

    moments = SamplingDistribution.uniform().moments  # for the predictions the engine pairs

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
    # the engine's FFT chunk (a moment), both parities: p_n for the half bins n = 1..ceil(p/2)
    half = range(1, (p + 1) // 2 + 1)
    stats = _engine_rows([y], period=p, n_list=tuple(half), r_list=(0.0,))
    fft_pn = np.array([stats[("p_n", float(n))][0] for n in half])
    assert np.max(np.abs(fft_pn - exact[: (p + 1) // 2])) <= 1e-15
    assert stats[("p_tot", None)][0] == float(np.mean(y * y))
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
        assert tails[0] == stats[("p_tot", None)][0]
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
    """The engine's per-trial statistic rows for the given rows, drawn as one chunk."""
    return engine_rows(MonteCarloConfig(dist=_Rows(np.array(rows)), trials=len(rows), seed=0, **size_and_stats))


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


_uint64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


@settings(max_examples=60, deadline=None)
@given(seed=_uint64, index=_uint64, prefix=st.lists(st.tuples(st.sampled_from(["random", "integers"]),
                                                              st.integers(1, 9)), max_size=4),
       old=st.tuples(_uint64, _uint64))
@example(seed=0, index=0, prefix=[("random", 1)], old=(0, 1))
@example(seed=(1 << 64) - 1, index=(1 << 64) - 1, prefix=[("integers", 3)], old=((1 << 64) - 1, 0))
def test_rekeyed_stream_draws_a_fresh_stream(seed, index, prefix, old):
    # the key and counter are a Philox stream's whole state: a generator re-keyed after
    # any draws, buffered 32-bit halves included, draws what a fresh stream draws
    gen = stream(*old)
    for method, n in prefix:
        gen.random(n) if method == "random" else gen.integers(0, 1 << 31, n, dtype=np.int32)
    assert stream(seed, index, reuse=gen) is gen
    assert np.array_equal(gen.random(1000), stream(seed, index).random(1000))
    with pytest.raises(ValueError, match="seed must lie in"):
        stream(1 << 64, index, reuse=gen)


_mass = st.floats(min_value=1e-3, max_value=1.0)


@st.composite
def _table_laws(draw):
    # 1..8 distinct atoms in [-1, 1] at masses summing to 1
    points = draw(st.lists(component, min_size=1, max_size=8, unique=True))
    weights = draw(st.lists(_mass, min_size=len(points), max_size=len(points)))
    total = math.fsum(weights)
    return points, [w / total for w in weights]


@st.composite
def _mirrored_laws(draw):
    # atoms x and -x at equal masses, and maybe 0, in any order
    xs = draw(st.lists(st.floats(min_value=0.0, max_value=1.0, exclude_min=True), min_size=1, max_size=3,
                       unique=True))
    weights = draw(st.lists(_mass, min_size=len(xs), max_size=len(xs)))
    zero = draw(st.lists(_mass, max_size=1))
    points, weights = [-x for x in xs] + xs + [0.0] * len(zero), weights * 2 + zero
    order = draw(st.permutations(range(len(points))))
    total = math.fsum(weights)
    return [points[i] for i in order], [weights[i] / total for i in order]


def _assert_even_moments_are_the_fsums(law):
    atoms = list(zip(law.points.tolist(), law.masses.tolist()))
    for moment, r in ((law.moments.m2, 2), (law.moments.m4, 4)):
        assert abs(moment - math.fsum(m * x**r for x, m in atoms)) <= 1e-15


@settings(max_examples=200, deadline=None)
@given(law=_mirrored_laws())
def test_mirrored_table_has_exactly_zero_odd_moments(law):
    table = SamplingDistribution.table(*law)
    assert (table.moments.m1, table.moments.m3) == (0.0, 0.0)
    _assert_even_moments_are_the_fsums(table)


@settings(max_examples=200, deadline=None)
@given(law=_table_laws())
def test_table_even_moments_are_the_fsums_over_the_atoms(law):
    _assert_even_moments_are_the_fsums(SamplingDistribution.table(*law))


@pytest.mark.parametrize("y0", [0.0, 0.5, 0.7, 1.0])
def test_two_point_draws_are_the_two_atom_table_draws(y0):
    two, table = SamplingDistribution.two_point(y0), SamplingDistribution.table([-y0, y0], [0.5, 0.5])
    assert two.moments.m2 == table.moments.m2
    draws = [law.sample(stream(5, 3), (300, 17)) for law in (two, table)]
    assert draws[0].tobytes() == draws[1].tobytes()


@st.composite
def _sample_args(draw):
    # a random small `sample` configuration on a period or a line, over the built-in laws
    periodic, size = draw(st.booleans()), draw(st.integers(2, 40))
    args = ["--period" if periodic else "--cells", str(size), "--trials", str(draw(st.integers(1, 300))),
            "--seed", str(draw(_uint64)),
            "--dist", draw(st.sampled_from(["uniform", "two-point:0", "two-point:0.5", "two-point:1"]))]
    if periodic:
        ns, Ns = st.integers(1, size), st.integers(0, (size - 1) // 2)
        epsilon = draw(st.lists(st.floats(min_value=0.01, max_value=0.99), max_size=1))
        args += [f"--epsilon={e!r}" for e in epsilon]
    else:
        ns, Ns = st.integers(-100, 100), st.integers(0, 100)
    for flag, values in (("--n", ns), ("--N", Ns), ("--r", st.sampled_from([0.0, 1.0, 2.5]))):
        chosen = draw(st.lists(values, max_size=3))
        args += [f"{flag}={','.join(map(str, chosen))}"] if chosen else []
    return args


@settings(max_examples=40, deadline=None)
@given(args=_sample_args())
def test_sample_json_is_strict_json(args):
    from click.testing import CliRunner

    from anticip.cli import main

    def reject(constant):
        raise ValueError(f"non-RFC 8259 constant {constant}")

    res = CliRunner().invoke(main, ["sample", *args, "--format", "json"])
    assert res.exit_code in (0, 1), res.output
    results = json.loads(res.output, parse_constant=reject)["results"]
    assert results and all(row["trials"] == int(args[3]) for row in results)


@st.composite
def _engine_cases(draw):
    # a small run on a period or a line of up to 6 chunks, so threads 2 and 3 take the
    # pool path when it has more than one run, and a cut into two chunk ranges
    periodic, size = draw(st.booleans()), draw(st.integers(2, 40))
    if periodic:
        ns, Ns, epsilon = st.integers(1, size), st.integers(0, (size - 1) // 2), st.floats(0.01, 0.99)
    else:
        ns, Ns, epsilon = st.integers(-100, 100), st.integers(0, 100), st.nothing()
    trials = draw(st.integers(1, 1300))
    config = MonteCarloConfig(
        dist=draw(st.sampled_from([SamplingDistribution.uniform(), SamplingDistribution.two_point(0.5)])),
        trials=trials, seed=draw(_uint64), **{"period" if periodic else "cells": size},
        n_list=tuple(draw(st.lists(ns, max_size=3))), N_list=tuple(draw(st.lists(Ns, max_size=3))),
        r_list=tuple(draw(st.lists(st.sampled_from([0.0, 1.0, 2.5]), max_size=2))),
        epsilon=draw(st.none() | epsilon))
    return config, draw(st.integers(0, -(-trials // CHUNK)))


def _acc_bits(report):
    return [(r.key, r.acc.count, np.array([r.acc.mean, r.acc.m2, r.acc.m3, r.acc.m4]).tobytes())
            for r in report.rows]


@settings(max_examples=60, deadline=None)
@given(case=_engine_cases())
@example(case=(MonteCarloConfig(dist=SamplingDistribution.uniform(), trials=1300, seed=3, period=16,
                                n_list=(1, 8), N_list=(0, 3), r_list=(1.0,), epsilon=0.2), 2))
def test_thread_counts_and_chunk_ranges_keep_the_report(case):
    config, cut = case
    one, *pooled = (run_monte_carlo(config, threads=t) for t in (1, 2, 3))
    for report in pooled:
        assert _acc_bits(report) == _acc_bits(one)
        assert (report.histogram is None) == (one.histogram is None)
        assert one.histogram is None or np.array_equal(report.histogram, one.histogram)
    merged = run_monte_carlo(config, chunk_range=(0, cut)).merge(
        run_monte_carlo(config, chunk_range=(cut, -(-config.trials // CHUNK))))
    assert merged.trials == one.trials == config.trials
    for a, b in zip(one.rows, merged.rows, strict=True):
        assert a.key == b.key
        assert math.isclose(a.acc.mean, b.acc.mean, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(a.acc.variance, b.acc.variance, rel_tol=1e-12, abs_tol=1e-12)
    assert one.histogram is None or np.array_equal(merged.histogram, one.histogram)
