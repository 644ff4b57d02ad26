"""Sampling distributions, streaming accumulators and the Monte Carlo engine."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from anticip import (
    EstimateReport,
    MomentAccumulator,
    MonteCarloConfig,
    SamplingDistribution,
    SpectralDifferenceContinuous,
    SpectralDifferencePeriodic,
    amplitudes_periodic,
    build_orthogonal_measure,
    folded_index,
    merge_accumulators,
    near_zero_statistics,
    run_monte_carlo,
    stream,
    tail_exceedance,
)
from anticip.sampling import (
    CHUNK,
    RUN,
    StatRow,
    _chunk_sizes,
    _chunks,
    _batch_moments,
    _rows,
    _spectrum_bins,
    _trial_stats,
    resolve_threads,
)
from anticip.spectral import half_step_bins, half_step_phase_matrix, half_step_roots, line_factor
from packed_reference import packed_formula

UNIFORM = SamplingDistribution.uniform()


def _complex_kernel(cells: int, indices) -> np.ndarray:
    """Row n, column j: the integral of exp(-i*(n-1/2)*kappa) / (2*pi) over cell j,
    (exp(-i*w*a) - exp(-i*w*b)) / (2*pi*i*w) for the cell's edges a < b: the
    direct per-cell integration the line's amplitudes are checked against."""
    edges = 2.0 * np.pi * np.arange(cells + 1) / cells
    omega = np.asarray(indices, dtype=float) - 0.5
    lo = np.exp(-1j * np.outer(omega, edges[:-1]))
    hi = np.exp(-1j * np.outer(omega, edges[1:]))
    return (lo - hi) / (2j * np.pi * omega[:, None])


def _folded_line_weights(cfg, bins) -> dict:
    """The line's row weights over the p_n columns of the half `bins`, built index
    by index: w_n = |line_factor(M, n)|^2 per p_n row, and per p_N row the sum of
    w_n over n = 1..N, per moment row of (n^r + (n-1)^r) w_n over n = 1..32, each
    term added from the last index down into the period-M half bin min(c, M+1-c),
    c = (n-1) mod M + 1."""
    M = cfg.cells

    def fold(stop, coef):
        n = np.arange(stop, 0, -1)
        g = np.zeros((M + 1) // 2)
        for k, term in zip(n.tolist(), (coef(n) * np.abs(line_factor(M, n)) ** 2).tolist()):
            c = (k - 1) % M + 1
            g[min(c, M + 1 - c) - 1] += term
        return g

    cols = np.array(bins, dtype=np.intp) - 1
    w = np.abs(line_factor(M, np.array(cfg.n_list, dtype=np.int64))) ** 2
    weights = {("p_n", float(n)): wn for n, wn in zip(cfg.n_list, w.tolist())}
    weights.update({("p_N", float(N)): fold(N, lambda n: 1.0)[cols] for N in cfg.N_list})
    weights.update({("moment", float(r)): fold(32, lambda n: n**r + (n - 1.0) ** r) for r in cfg.r_list})
    return weights


class TestDistributions:
    def test_two_point_support(self):
        dist = SamplingDistribution.two_point(1.0)
        draws = dist.sample(stream(0, 0), 1000)
        assert set(np.unique(draws)) <= {-1.0, 1.0}

    def test_uniform_moments_empirical(self):
        draws = UNIFORM.sample(stream(42, 0), 100_000)
        se1 = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 4 * se1
        sq = draws**2
        se2 = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - 1 / 3) <= 4 * se2

    def test_symmetric_law_odd_moments_empirical(self):
        for dist in (UNIFORM, SamplingDistribution.two_point(0.7)):
            draws = dist.sample(stream(3, 0), 50_000)
            for power in (1, 3):
                vals = draws**power
                se = vals.std(ddof=1) / math.sqrt(vals.size)
                assert abs(vals.mean()) <= 4 * se

    def test_stream_determinism(self):
        a = UNIFORM.sample(stream(42, 5), 64)
        b = UNIFORM.sample(stream(42, 5), 64)
        assert np.array_equal(a, b)
        c = UNIFORM.sample(stream(42, 6), 64)
        assert not np.array_equal(a, c)

    def test_seed_outside_64_bits_rejected(self):
        # a seed masked to 64 bits would make -1 draw what 2^64 - 1 draws
        for seed in (-1, 1 << 64):
            with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\^64\)"):
                stream(seed, 0)
        top = UNIFORM.sample(stream((1 << 64) - 1, 0), 8)
        assert not np.array_equal(top, UNIFORM.sample(stream(0, 0), 8))

    def test_component_independence(self):
        # lag-1 sample correlation across components vanishes at SE scale
        draws = UNIFORM.sample(stream(12, 0), (5000, 16))
        x, y = draws[:, :-1].ravel(), draws[:, 1:].ravel()
        corr = np.corrcoef(x, y)[0, 1]
        assert abs(corr) <= 4 / math.sqrt(x.size)
        # and across stream indices
        other = UNIFORM.sample(stream(12, 1), (5000, 16))
        corr2 = np.corrcoef(draws.ravel(), other.ravel())[0, 1]
        assert abs(corr2) <= 4 / math.sqrt(draws.size)

    def test_parse_distribution(self):
        from anticip import parse_distribution

        assert parse_distribution("uniform").label == "uniform"
        two = parse_distribution("two-point:0.5")
        assert two.moments.m2 == pytest.approx(0.25)
        with pytest.raises(ValueError):
            parse_distribution("gaussian")

    def test_table_moments_and_validation(self):
        dist = SamplingDistribution.table([0.0, 1.0], [0.5, 0.5])
        assert dist.moments.m1 == pytest.approx(0.5)
        assert dist.moments.m2 == pytest.approx(0.5)
        assert dist.moments.sigma2 == pytest.approx(0.25)
        with pytest.raises(ValueError):
            SamplingDistribution.table([0.0, 2.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            SamplingDistribution.table([0.0, 1.0], [0.9, 0.3])
        with pytest.raises(ValueError):
            SamplingDistribution.table([0.0, 1.0], [0.5, 0.5], symmetric=True)

    @pytest.mark.parametrize("points, masses", [
        ([-0.9, -0.2, 0.2, 0.9], [0.25] * 4),  # float sums give m1 = -2.8e-17
        ([-0.5022385584334831, 0.5022385584334831], [0.5, 0.5]),  # (-x)**3 one ulp off -(x**3)
    ])
    def test_mirrored_table_declared_symmetric_has_zero_odd_moments(self, points, masses):
        plain = SamplingDistribution.table(points, masses)
        assert (plain.moments.m1, plain.moments.m3) != (0.0, 0.0)  # undeclared: the float sums stand
        sym = SamplingDistribution.table(points[::-1], masses, symmetric=True)
        assert (sym.moments.m1, sym.moments.m3) == (0.0, 0.0)
        assert (sym.moments.m2, sym.moments.m4) == (plain.moments.m2, plain.moments.m4)
        uneven = np.arange(1.0, len(points) + 1)
        with pytest.raises(ValueError, match="m1 = m3 = 0"):  # mirrored points, unequal masses
            SamplingDistribution.table(points, uneven / uneven.sum(), symmetric=True)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_table_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SamplingDistribution.table([0.0, 1.0], [bad, 0.5])
        with pytest.raises(ValueError, match="finite"):
            SamplingDistribution.table([bad, 1.0], [0.5, 0.5])

    def test_mass_within(self):
        assert UNIFORM.mass_within(0.1) == pytest.approx(0.1)
        assert SamplingDistribution.two_point(1.0).mass_within(0.5) == 0.0
        assert SamplingDistribution.two_point(0.2).mass_within(0.5) == 1.0

    def test_draws_make_spectral_differences(self):
        sd = SpectralDifferencePeriodic(UNIFORM.sample(stream(1, 0), 16))
        assert sd.period == 16
        sdc = SpectralDifferenceContinuous(UNIFORM.sample(stream(1, 0), 8))
        assert sdc.cells == 8
        assert np.array_equal(sd.values[:8], sdc.values)

    def test_table_draws_match_searchsorted(self):
        class FixedUniforms:
            def __init__(self, u):
                self.u = u

            def random(self, shape):
                return self.u.reshape(shape)

        tenths = SamplingDistribution.table(np.linspace(-0.9, 0.9, 10), [0.1] * 10)
        assert tenths._cum[-1] < 1.0  # the cumulative mass rounds below 1
        laws = [
            SamplingDistribution.two_point(0.5),
            tenths,
            SamplingDistribution.table([-1.0, -0.3, 0.0, 0.5, 1.0], [0.1, 0.2, 0.3, 0.15, 0.25]),
            SamplingDistribution.table([0.0, 0.5, 1.0], [0.5, 0.0, 0.5]),  # repeated cum
            SamplingDistribution.table([0.0, 0.5], [0.0, 1.0]),  # cum[0] = 0
        ]
        for law in laws:
            cum = law._cum
            # at each cumulative mass, just above it, and past a cum[-1] below 1
            edges = np.concatenate([[0.0], cum, np.nextafter(cum, 2.0), [np.nextafter(1.0, 0.0)]])
            edges = edges[edges < 1.0]
            streamed = stream(3, 1).random((300, 17))
            for u, draws in ((edges, law.sample(FixedUniforms(edges), edges.shape)),
                             (streamed, law.sample(stream(3, 1), (300, 17)))):
                idx = np.minimum(np.searchsorted(cum, u, side="right"), law.points.size - 1)
                assert np.array_equal(draws, law.points[idx])


    @pytest.mark.parametrize("dist", [
        UNIFORM,
        SamplingDistribution.two_point(0.0),
        SamplingDistribution.table([-0.5, 0.0, 0.8], [0.3, 0.4, 0.3]),
    ], ids=lambda d: d.label)
    def test_draws_into_out_are_the_allocated_draws(self, dist):
        for shape in ((256, 64), (17, 5), (3,)):
            fresh = dist.sample(stream(9, 2), shape)
            buf = np.full(shape, np.nan)
            assert dist.sample(stream(9, 2), shape, out=buf) is buf
            assert np.array_equal(buf.view(np.uint64), fresh.view(np.uint64))
            # the formulas the draws were first written with
            if dist.family == "uniform":
                first = stream(9, 2).uniform(-1.0, 1.0, shape)
            else:
                u = stream(9, 2).random(shape)
                first = dist.points[np.minimum(np.searchsorted(dist._cum, u, side="right"),
                                               dist.points.size - 1)]
            assert np.array_equal(fresh.view(np.uint64), first.view(np.uint64))

    @pytest.mark.parametrize("atom", [1.0, 0.3, -1.0, 0.0, -0.0])
    def test_point_mass_draws_read_no_random_numbers(self, atom):
        law = SamplingDistribution.table([atom], [1.0])
        for shape in ((256, 64), (17, 5), (3,)):
            gen = stream(9, 2)
            fresh = law.sample(gen, shape)
            buf = np.full(shape, np.nan)
            assert law.sample(gen, shape, out=buf) is buf
            # the stream still starts where a fresh one does
            assert np.array_equal(gen.random(8), stream(9, 2).random(8))
            # the take path every table law ran before
            idx = np.zeros(shape, dtype=np.intp)
            old = np.take(law.points, idx, mode="clip")
            assert fresh.shape == shape and fresh.dtype == np.float64
            for got in (fresh, buf):
                assert np.array_equal(got.view(np.uint64), old.view(np.uint64))


class TestAccumulator:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10_000)
        acc = MomentAccumulator()
        acc.add_batch(x)
        assert acc.mean == pytest.approx(x.mean(), rel=1e-12)
        assert acc.variance == pytest.approx(x.var(ddof=1), rel=1e-12)
        mu4 = ((x - x.mean()) ** 4).mean()
        assert acc.m4 / acc.count == pytest.approx(mu4, rel=1e-10)

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=5000)
        whole = MomentAccumulator()
        whole.add_batch(x)
        left, right = MomentAccumulator(), MomentAccumulator()
        left.add_batch(x[:1234])
        right.add_batch(x[1234:])
        merged = merge_accumulators(left, right)
        assert merged.count == whole.count
        assert merged.mean == pytest.approx(whole.mean, rel=1e-13, abs=1e-13)
        assert merged.variance == pytest.approx(whole.variance, rel=1e-12)
        assert merged.m4 == pytest.approx(whole.m4, rel=1e-10)

    def test_merge_with_empty(self):
        acc = MomentAccumulator()
        acc.add_batch(np.arange(5.0))
        merged = merge_accumulators(MomentAccumulator(), acc)
        assert merged.mean == acc.mean and merged.count == acc.count


class TestEngine:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            MonteCarloConfig(dist=UNIFORM, trials=10, seed=0)
        with pytest.raises(ValueError):
            MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, period=8, cells=8)
        with pytest.raises(ValueError):
            MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, period=8, n_list=(9,))
        with pytest.raises(ValueError):
            MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, period=8, N_list=(4,))
        with pytest.raises(ValueError):
            MonteCarloConfig(dist=UNIFORM, trials=0, seed=0, period=8)

    @pytest.mark.parametrize("stats", [{"n_list": (1 << 62,)}, {"n_list": (-(1 << 62),)},
                                       {"n_list": (10**20,)}, {"N_list": (1 << 62,)}, {"N_list": (10**20,)},
                                       {"n_list": ((1 << 53) + 1, 1 << 53)}, {"n_list": (-(1 << 53) - 1,)},
                                       {"N_list": ((1 << 53) + 1,)}])
    def test_line_indices_stay_inside_int64(self, stats):
        # rows are keyed by float(n): 2^53 + 1 would share 2^53's row; this bound also keeps
        # line_factor's 2n - 1 inside int64, which wraps at n = -2^62
        with pytest.raises(ValueError, match=r"outside \|n\| <= 2\^53"):
            MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, cells=3, **stats)

    def test_line_weights_hold_at_the_index_limit(self):
        # w_n (n - 1/2)^2 = (M/pi)^2 sin^2(pi (n - 1/2)/M) depends only on n mod M: a line run
        # reaches |n| = 2^53 = 2 mod 3, and `model` reaches line_factor at 2^62 - 1 = 3 mod 3
        top = 1 << 53
        cfg = MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, cells=3, n_list=(top, 1 - top, 2))
        weights = _rows(cfg, _spectrum_bins(cfg)[0])[0]
        scaled = [weights[("p_n", float(n))] * (n - 0.5) ** 2 for n in (top, 1 - top)]
        assert scaled == pytest.approx([weights[("p_n", 2.0)] * 1.5**2] * 2, rel=1e-14)
        top = (1 << 62) - 1
        w = np.abs(line_factor(3, [top, 1 - top, 3])) ** 2
        assert [w[0] * (top - 0.5) ** 2, w[1] * (0.5 - top) ** 2] == pytest.approx([w[2] * 2.5**2] * 2, rel=1e-14)

    @pytest.mark.parametrize("r", [math.nan, math.inf, -math.inf, -1.0])
    @pytest.mark.parametrize("mode", [{"period": 8}, {"cells": 8}])
    def test_moment_orders_must_be_finite_and_nonnegative(self, r, mode):
        with pytest.raises(ValueError, match="moment orders must be finite and nonnegative"):
            MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, r_list=(1.0, r), **mode)

    def test_determinism(self):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=2000, seed=11, period=16,
                               n_list=(1, 8), N_list=(0, 4), r_list=(1.0,))
        r1, r2 = run_monte_carlo(cfg), run_monte_carlo(cfg)
        for a, b in zip(r1.rows, r2.rows):
            assert a.acc.mean == b.acc.mean
            assert a.acc.m2 == b.acc.m2

    def test_partition_merge_and_threads(self):
        for epsilon in (None, 0.2):
            cfg = MonteCarloConfig(dist=UNIFORM, trials=2048, seed=4, period=32,
                                   n_list=(1,), N_list=(0, 8), epsilon=epsilon)
            whole = run_monte_carlo(cfg)
            merged = run_monte_carlo(cfg, chunk_range=(0, 3)).merge(
                run_monte_carlo(cfg, chunk_range=(3, 8)))
            threaded = run_monte_carlo(cfg, threads=3)
            assert merged.trials == whole.trials == threaded.trials == 2048
            for a, b, c in zip(whole.rows, merged.rows, threaded.rows):
                assert math.isclose(a.acc.mean, b.acc.mean, rel_tol=1e-12, abs_tol=1e-12)
                assert math.isclose(a.acc.variance, b.acc.variance, rel_tol=1e-12, abs_tol=1e-12)
                assert a.acc.mean == c.acc.mean and a.acc.m2 == c.acc.m2
            if epsilon is None:
                assert whole.histogram is merged.histogram is threaded.histogram is None
                continue
            # the count row is among the rows compared above
            assert whole.rows[-1].key == ("near_zero_count", 0.2)
            assert whole.histogram.sum() == 2048
            assert np.array_equal(whole.histogram, merged.histogram)
            assert np.array_equal(whole.histogram, threaded.histogram)
            assert whole.chi_square(0.2) == merged.chi_square(0.2) == threaded.chi_square(0.2)

    def test_chunks_are_folded_as_they_arrive(self):
        from anticip.sampling import _run_chunked

        calls = []
        def worker(run):
            calls.extend(c for c, _, _ in run)
            return [(c, n) for c, _, n in run]

        expected = [(c, 256) for c in range(RUN + 3)] + [(RUN + 3, 5)]
        results = _run_chunked(worker, (RUN + 3) * 256 + 5, 0, 1, None)
        # the whole first run is yielded before any chunk of the second is computed
        assert [next(results) for _ in range(RUN)] == expected[:RUN]
        assert calls == [*range(RUN)]
        assert list(results) == expected[RUN:] and calls == [*range(RUN + 4)]
        threaded = _run_chunked(worker, (RUN + 3) * 256 + 5, 0, 2, (1, RUN + 4))
        assert list(threaded) == expected[1:]

    def test_thread_env_variable(self, monkeypatch):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=1024, seed=6, period=16)
        base = run_monte_carlo(cfg)
        monkeypatch.setenv("ANTICIP_THREADS", "4")
        from_env = run_monte_carlo(cfg)
        assert base.row("p_tot").acc.mean == from_env.row("p_tot").acc.mean
        assert base.row("p_tot").acc.m2 == from_env.row("p_tot").acc.m2

    def test_bad_thread_env_variable_is_named(self, monkeypatch):
        monkeypatch.setenv("ANTICIP_THREADS", "abc")
        with pytest.raises(ValueError, match="ANTICIP_THREADS"):
            resolve_threads(None)
        assert resolve_threads(2) == 2

    @pytest.mark.parametrize("bad", [0, -3])
    def test_thread_count_below_one_rejected(self, monkeypatch, bad):
        with pytest.raises(ValueError, match="threads must be at least 1"):
            resolve_threads(bad)
        monkeypatch.setenv("ANTICIP_THREADS", str(bad))
        with pytest.raises(ValueError, match="ANTICIP_THREADS must be at least 1"):
            resolve_threads(None)
        cfg = MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, period=8)
        with pytest.raises(ValueError, match="ANTICIP_THREADS"):
            run_monte_carlo(cfg)

    @pytest.mark.parametrize("cfg", [
        MonteCarloConfig(dist=UNIFORM, trials=3 * 256 + 17, seed=5, period=64, n_list=(1, 7, 32),
                         N_list=(0, 4), r_list=(1.0, 2.0), epsilon=0.1),
        MonteCarloConfig(dist=SamplingDistribution.two_point(1.0), trials=600, seed=1, period=16,
                         n_list=(1,), N_list=(0, 3), r_list=(1.0,), epsilon=0.5),
        MonteCarloConfig(dist=UNIFORM, trials=300, seed=2, cells=24, n_list=(1, 3),
                         N_list=(0, 2), r_list=(1.0,)),
        # a moment puts the line on the FFT: n <= 0, N >= M/2, several chunks
        MonteCarloConfig(dist=UNIFORM, trials=3 * 256 + 17, seed=67, cells=64, n_list=(0, 1, -5, 9),
                         N_list=(0, 4, 40), r_list=(1.0, 2.5)),
        MonteCarloConfig(dist=SamplingDistribution.table([-0.5, 0.0, 0.8], [0.3, 0.4, 0.3]), trials=300,
                         seed=27, cells=24, n_list=(1, 3, -2), N_list=(0, 2), r_list=(0.0, 1.0)),
        MonteCarloConfig(dist=UNIFORM, trials=600, seed=3, cells=256, n_list=(0, 1, 9), N_list=(0, 8),
                         r_list=(1.0,)),  # the CI command's rows
    ], ids=["p64-partial-chunk", "two-point-constant-rows", "continuous", "line-M64-moments",
            "line-M24-table", "line-M256-ci"])
    def test_rows_equal_per_statistic_reduction(self, cfg):
        # one add_batch per statistic per chunk, folded in ordinal order; p_n from the
        # allocating period-size transform, squared, with the index-by-index line weights
        rep = run_monte_carlo(cfg)
        keys = [row.key for row in rep.rows]
        totals = {key: MomentAccumulator() for key in keys}
        histogram = np.zeros(cfg.size + 1, dtype=np.int64)
        bins, W = _spectrum_bins(cfg)  # a moment: all ceil(size/2) half bins, from the FFT
        assert W is None and bins == range(1, (cfg.size + 1) // 2 + 1)
        weights = _rows(cfg, bins)[0] if cfg.mode == "periodic" else _folded_line_weights(cfg, bins)
        for c, n_trials in enumerate(_chunk_sizes(cfg.trials)):
            y = cfg.dist.sample(stream(cfg.seed, c), (n_trials, cfg.size))
            half = packed_formula(y)
            stats = _trial_stats(cfg, y, (y * y).mean(axis=1), half.real**2 + half.imag**2, weights, bins)
            for key in keys:
                chunk = MomentAccumulator()
                chunk.add_batch(stats[key])
                totals[key] = merge_accumulators(totals[key], chunk)
            if cfg.epsilon is not None:
                histogram += np.bincount(stats[keys[-1]], minlength=cfg.size + 1)
        for row in rep.rows:
            a, b = row.acc, totals[row.key]
            assert (a.count, a.mean, a.m2, a.m3, a.m4) == (b.count, b.mean, b.m2, b.m3, b.m4)
        if cfg.epsilon is None:
            assert rep.histogram is None
        else:
            assert np.array_equal(rep.histogram, histogram)
        if cfg.dist.family == "two-point":
            assert rep.row("p_tot").acc.m2 == 0.0  # the constant-row rule

    @pytest.mark.parametrize("p", [7, 8])
    def test_statistics_match_exact_sum_recomputation(self, p):
        seed, trials = 13, 3
        cfg = MonteCarloConfig(dist=UNIFORM, trials=trials, seed=seed, period=p,
                               n_list=tuple(range(1, p + 1)),
                               N_list=tuple(range((p + 1) // 2)), r_list=(0.0, 1.0, 2.5))
        rep = run_monte_carlo(cfg)
        y = UNIFORM.sample(stream(seed, 0), (trials, p))
        pn = np.array([np.abs(amplitudes_periodic(SpectralDifferencePeriodic(row), "exact-sum").values) ** 2
                       for row in y])
        ptot = (y * y).mean(axis=1)
        folded = np.array([int(folded_index(n, p)) for n in range(1, p + 1)], dtype=float)
        expected = {("p_n", float(n)): pn[:, n - 1] for n in cfg.n_list}
        expected.update({("p_N", float(N)): ptot - pn[:, :N].sum(axis=1) - pn[:, p - N:].sum(axis=1)
                         for N in cfg.N_list})
        expected.update({("moment", r): pn @ folded**r for r in cfg.r_list})
        for (stat, index), values in expected.items():
            acc = rep.row(stat, index).acc
            assert acc.count == trials
            assert abs(acc.mean - values.mean()) <= 1e-12
            assert abs(acc.variance - values.var(ddof=1)) <= 1e-12

    def test_nan_z_score_fails_the_gate(self):
        ok = StatRow("p_tot", None, MomentAccumulator(count=10, mean=0.3, m2=0.1),
                     pred_mean=0.3, pred_var=None, exact_pred=True)
        bad = StatRow("p_n", 1.0, MomentAccumulator(count=10, mean=0.5, m2=1.0),
                      pred_mean=math.nan, exact_pred=True)
        assert math.isnan(bad.z_mean)
        for rows in ([ok, bad], [bad, ok]):
            rep = EstimateReport("periodic", 8, "uniform", 0, 10, rows)
            assert not rep.max_abs_z() <= 5.0
        assert EstimateReport("periodic", 8, "uniform", 0, 10, [ok]).max_abs_z() == 0.0

    def test_std_error_definition(self):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=500, seed=2, period=8)
        row = run_monte_carlo(cfg).row("p_tot")
        assert row.acc.std_error == math.sqrt(row.acc.variance / row.acc.count)

    @pytest.mark.parametrize("p", [16, 64, 256])
    @pytest.mark.parametrize("dist", [UNIFORM, SamplingDistribution.two_point(1.0)],
                             ids=["uniform", "two-point"])
    def test_formula_vs_oracle(self, p, dist):
        cfg = MonteCarloConfig(dist=dist, trials=20_000, seed=101, period=p,
                               n_list=(1, p // 2), N_list=(0, p // 4))
        rep = run_monte_carlo(cfg)
        for row in rep.rows:
            if row.statistic == "moment":
                continue
            assert abs(row.acc.mean - row.pred_mean) <= 4 * row.acc.std_error + 1e-15
            assert (abs(row.acc.variance - row.pred_var)
                    <= 5 * row.acc.variance_std_error + 1e-15)

    def test_formula_vs_oracle_special_index(self):
        # odd p with 2n-1 a multiple of p exercises the T-kernel branch of
        # the variance polynomial
        for dist in (UNIFORM, SamplingDistribution.table([0.0, 1.0], [0.5, 0.5])):
            cfg = MonteCarloConfig(dist=dist, trials=40_000, seed=77, period=9,
                                   n_list=(5,), N_list=(0, 3))
            rep = run_monte_carlo(cfg)
            for row in rep.rows:
                assert abs(row.acc.mean - row.pred_mean) <= 4 * row.acc.std_error + 1e-15
                assert (abs(row.acc.variance - row.pred_var)
                        <= 5 * row.acc.variance_std_error + 1e-15)

    def test_zero_variance_rows_exact(self):
        dist = SamplingDistribution.two_point(1.0)
        cfg = MonteCarloConfig(dist=dist, trials=5000, seed=0, period=16, N_list=(0,))
        rep = run_monte_carlo(cfg)
        tot = rep.row("p_tot")
        assert tot.acc.mean == 1.0
        assert tot.acc.variance == 0.0
        assert rep.row("p_N", 0.0).acc.variance == 0.0
        assert rep.max_abs_z() <= 5.0

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_tail_exceedance_rejects_non_finite_delta(self, delta):
        with pytest.raises(ValueError, match="delta"):
            tail_exceedance(UNIFORM, 8, 1, delta, 100, 0)

    @pytest.mark.parametrize("trials", [0, -5])
    def test_tail_exceedance_rejects_trials_below_one(self, trials):
        with pytest.raises(ValueError, match="trials"):
            tail_exceedance(UNIFORM, 8, 1, 0.2, trials, 0)

    def test_chebyshev_tail_fractions(self):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=20_000, seed=3, period=64)
        rep = run_monte_carlo(cfg)
        mean = rep.row("p_tot").acc.mean
        sd = math.sqrt(rep.row("p_tot").acc.variance)
        # re-draw the same trials to measure exceedance fractions directly
        for delta in (2.0, 3.0):
            frac = tail_exceedance(UNIFORM, 64, 0, mean + delta * sd, 20_000, 3) \
                 + (1.0 - tail_exceedance(UNIFORM, 64, 0, mean - delta * sd, 20_000, 3))
            assert frac <= 1.0 / delta**2 + 0.01

    def test_continuous_mode(self):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=4000, seed=8, cells=32,
                               n_list=(1, 5), N_list=(0, 4))
        rep = run_monte_carlo(cfg)
        tot = rep.row("p_tot")
        assert abs(tot.acc.mean - 1 / 3) <= 4 * tot.acc.std_error
        # total never below the tail
        assert rep.row("p_N", 4.0).acc.mean < tot.acc.mean
        # line p_n is sinc^2 times the period-M p_n of the same draws: an exact
        # pairing, so every p_n and p_N row carries a z-score
        for key in (("p_n", 1.0), ("p_n", 5.0), ("p_N", 0.0), ("p_N", 4.0)):
            row = rep.row(*key)
            assert row.exact_pred and row.z_mean is not None and abs(row.z_mean) <= 5, key

    def test_continuous_p0_is_ptot(self):
        # the near window of N = 0 is empty on the line too
        cfg = MonteCarloConfig(dist=UNIFORM, trials=3000, seed=4, cells=32, N_list=(0, 4))
        rep = run_monte_carlo(cfg)
        assert np.array_equal(_bits(rep.row("p_N", 0.0).acc), _bits(rep.row("p_tot").acc))

    @pytest.mark.parametrize("key, alone, extra", [
        (("p_N", 8.0), {"N_list": (8,)}, {"n_list": (9,)}),
        (("p_N", 8.0), {"N_list": (8,)}, {"r_list": (1.0,)}),
        (("moment", 1.0), {"r_list": (1.0,)}, {"N_list": (40,)}),
    ], ids=["p_8-with-n", "p_8-with-r", "moment-with-N"])
    def test_continuous_rows_do_not_depend_on_other_rows(self, key, alone, extra):
        base = dict(dist=UNIFORM, trials=2000, seed=1, cells=64)
        a = run_monte_carlo(MonteCarloConfig(**base, **alone)).row(*key).acc
        b = run_monte_carlo(MonteCarloConfig(**base, **alone, **extra)).row(*key).acc
        assert math.isclose(a.mean, b.mean, rel_tol=1e-12)
        assert math.isclose(a.variance, b.variance, rel_tol=1e-12)

    @pytest.mark.parametrize("cells, dist", [
        (64, UNIFORM), (256, SamplingDistribution.table([0.0, 1.0], [0.5, 0.5])), (5, UNIFORM),
    ], ids=["M64-uniform", "M256-biased", "M5-uniform"])
    def test_continuous_rows_match_complex_kernel_recomputation(self, cells, dist):
        # the same draws through the complex kernel over the symmetric window
        # n = 1-K..K, with no use of the conjugate symmetry
        cfg = MonteCarloConfig(dist=dist, trials=700, seed=12, cells=cells, n_list=(-4, 0, 1, 7),
                               N_list=(0, 3, 40), r_list=(0.0, 1.0, 2.0))
        rep = run_monte_carlo(cfg)
        y = np.concatenate([dist.sample(stream(cfg.seed, c), (n, cells))
                            for c, n in enumerate(_chunk_sizes(cfg.trials))])
        window = np.arange(1 - 40, 40 + 1)
        pn = np.abs(y @ _complex_kernel(cells, window).T) ** 2
        ptot = (y * y).mean(axis=1)
        expected = {("p_tot", None): ptot}
        expected.update({("p_n", float(n)): pn[:, window == n][:, 0] for n in cfg.n_list})
        expected.update({("p_N", float(N)): ptot - pn[:, np.abs(window - 0.5) < N].sum(axis=1)
                         for N in cfg.N_list})
        moment_window = np.abs(window - 0.5) < 32  # n = -31..32
        expected.update({("moment", r): pn[:, moment_window] @ np.abs(window[moment_window]) ** r
                         for r in cfg.r_list})
        assert [row.key for row in rep.rows] == [*expected]
        for key, values in expected.items():
            acc = rep.row(*key).acc
            # p_N is p_tot less the near window: both sides round on the scale of p_tot
            tol = 1e-14 * (ptot.mean() / values.mean() if key[0] == "p_N" else 1.0)
            assert math.isclose(acc.mean, values.mean(), rel_tol=tol), key
            assert math.isclose(acc.variance, values.var(ddof=1), rel_tol=tol), key


class TestNearZero:
    def test_uniform_counts(self):
        rep = near_zero_statistics(UNIFORM, 100, 0.1, 5000, 0)
        row = rep.row("near_zero_count", 0.1)
        assert row.pred_mean == pytest.approx(10.0) and row.pred_var == pytest.approx(9.0)
        assert row.note == "epsilon=0.1 q=0.10000000000000001"
        assert abs(row.acc.mean - 10.0) <= 4 * row.acc.std_error
        assert abs(row.acc.variance - 9.0) <= 5 * row.acc.variance_std_error
        assert rep.histogram.sum() == 5000
        chi_square, dof = rep.chi_square(0.1)
        assert dof > 0
        # loose sanity on the fit statistic
        assert chi_square <= dof + 6 * math.sqrt(2 * dof)

    def test_two_point_counts_zero(self):
        rep = near_zero_statistics(SamplingDistribution.two_point(1.0), 20, 0.5, 500, 0)
        row = rep.row("near_zero_count", 0.5)
        assert row.acc.mean == 0.0
        assert rep.histogram[0] == 500
        assert row.z_mean == 0.0

    def test_epsilon_near_one_captures_all(self):
        rep = near_zero_statistics(UNIFORM, 20, 1.0 - 1e-12, 500, 7)
        assert rep.row("near_zero_count", 1.0 - 1e-12).acc.mean == 20.0
        assert rep.histogram[20] == 500

    def test_epsilon_validation(self):
        with pytest.raises(ValueError):
            near_zero_statistics(UNIFORM, 10, 0.0, 10, 0)
        with pytest.raises(ValueError):
            near_zero_statistics(UNIFORM, 10, 1.0, 10, 0)
        with pytest.raises(ValueError, match="period"):
            MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, cells=10, epsilon=0.1)

    def test_near_zero_alone_needs_no_transform(self, monkeypatch):
        import anticip.sampling as sampling

        def refuse(name, fn):
            def call(*args):
                if name == "FFT" or len(args[1]):  # no bin: a (p, 0) matrix, an empty product
                    raise AssertionError(f"{name} transform computed")
                return fn(*args)
            return call

        monkeypatch.setattr(sampling, "half_step_bins", refuse("FFT", None))
        monkeypatch.setattr(sampling, "half_step_phase_matrix", refuse("matrix", half_step_phase_matrix))
        rep = near_zero_statistics(UNIFORM, 16, 0.2, 300, 1)
        assert rep.histogram.sum() == 300
        # p_0 = p_tot - 2 * (sum of no bins) needs no transform either
        rep = run_monte_carlo(MonteCarloConfig(dist=UNIFORM, trials=300, seed=1, period=16, N_list=(0,)))
        p0, ptot = rep.row("p_N", 0.0).acc, rep.row("p_tot").acc
        assert np.array_equal(_bits(p0), _bits(ptot))
        for spectral, path in (({"n_list": (1,)}, "matrix"), ({"r_list": (1.0,)}, "FFT")):
            cfg = MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, period=16, **spectral)
            with pytest.raises(AssertionError, match=f"{path} transform computed"):
                run_monte_carlo(cfg)

    def test_counts_come_from_the_engine_draws(self):
        seed, trials, p, eps = 2, 200, 8, 0.3
        cfg = MonteCarloConfig(dist=UNIFORM, trials=trials, seed=seed, period=p,
                               n_list=(1,), epsilon=eps)
        rep = run_monte_carlo(cfg)
        assert [r.statistic for r in rep.rows] == ["p_tot", "p_n", "near_zero_count"]
        y = UNIFORM.sample(stream(seed, 0), (trials, p))
        counts = (np.abs(y) < eps).sum(axis=1)
        assert np.array_equal(rep.histogram, np.bincount(counts, minlength=p + 1))
        assert rep.row("near_zero_count", eps).acc.mean == pytest.approx(counts.mean(), abs=1e-12)
        assert rep.row("p_tot").acc.mean == pytest.approx((y * y).mean(), abs=1e-12)


def test_measure_route_matches_direct_sampling():
    # the half-step amplitudes of a built measure are its autocorrelation at
    # t = n - 1/2, so their total gives the same p_tot statistics as sampling
    # the induced component law directly
    p, trials = 16, 3000
    gen = stream(21, 0)
    half_steps = np.arange(1, p + 1) - 0.5
    totals = []
    for _ in range(trials):
        m = build_orthogonal_measure(UNIFORM.sample(gen, (p,)))
        alpha = np.exp(-1j * np.outer(half_steps, m.points)) @ m.weights
        totals.append(float(np.sum(np.abs(alpha) ** 2)))
    totals = np.asarray(totals)

    cfg = MonteCarloConfig(dist=UNIFORM, trials=trials, seed=22, period=p)
    direct = run_monte_carlo(cfg).row("p_tot")
    se = math.sqrt(totals.var(ddof=1) / trials + direct.acc.std_error**2)
    assert abs(totals.mean() - direct.acc.mean) <= 4 * se


def _bits(acc: MomentAccumulator) -> np.ndarray:
    return np.array([acc.mean, acc.m2, acc.m3, acc.m4]).view(np.uint64)


class TestChunkBuffers:
    """The engine's buffered chunk pipeline gives the bits of the allocating
    path: the packed formula, squared, and (y*y).mean(axis=1)."""

    TABLE = SamplingDistribution.table([-0.5, 0.0, 0.8], [0.3, 0.4, 0.3])

    @staticmethod
    def _config(dist, p, trials):
        return MonteCarloConfig(dist=dist, trials=trials, seed=p + 7, period=p,
                                n_list=tuple(sorted({1, min(2, p), (p + 1) // 2, p})),
                                N_list=tuple(sorted({0, (p - 1) // 2})), r_list=(1.0, 2.0),
                                epsilon=0.3)

    @staticmethod
    def _allocating(cfg, chunks):
        """Accumulators and histogram of the given chunk ordinals, each chunk's
        statistics from freshly allocated arrays, folded in ordinal order."""
        bins = range(1, (cfg.period + 1) // 2 + 1)
        weights, preds = _rows(cfg, bins)
        keys = [*preds]
        totals = {key: MomentAccumulator() for key in keys}
        histogram = np.zeros(cfg.period + 1, dtype=np.int64)
        sizes = _chunk_sizes(cfg.trials)
        for c in chunks:
            y = cfg.dist.sample(stream(cfg.seed, c), (sizes[c], cfg.period))
            half = packed_formula(y)
            stats = _trial_stats(cfg, y, (y * y).mean(axis=1),
                                 half.real**2 + half.imag**2, weights, bins)
            block = np.array([stats[key] for key in keys], dtype=float)
            for key, moments in zip(keys, _batch_moments(block).tolist()):
                totals[key] = merge_accumulators(totals[key], MomentAccumulator(sizes[c], *moments))
            histogram += np.bincount(stats[keys[-1]], minlength=cfg.period + 1)
        return totals, histogram

    def _assert_bits(self, rep, cfg, chunks):
        totals, histogram = self._allocating(cfg, chunks)
        assert [row.key for row in rep.rows] == [*totals]
        for row in rep.rows:
            assert row.acc.count == totals[row.key].count
            assert np.array_equal(_bits(row.acc), _bits(totals[row.key])), row.key
        assert np.array_equal(rep.histogram, histogram)

    @pytest.mark.parametrize("p, trials", [
        (2, 513), (3, 300), (4, 257), (5, 300), (6, 300), (8, 600), (33, 300), (64, 3 * 256 + 17),
        (4096, 300),
        (64, (2 * RUN + 3) * 256 + 17),  # several runs, a partial last run and chunk
    ])
    @pytest.mark.parametrize("dist", [UNIFORM, SamplingDistribution.two_point(0.0), TABLE],
                             ids=lambda d: d.label)
    def test_engine_rows_equal_the_allocating_path(self, p, trials, dist):
        cfg = self._config(dist, p, trials)
        chunks = range(len(_chunk_sizes(trials)))
        for threads in (1, 2, 4):
            self._assert_bits(run_monte_carlo(cfg, threads=threads), cfg, chunks)
        self._assert_bits(run_monte_carlo(cfg, chunk_range=(1, len(chunks))), cfg, chunks[1:])
        inner = chunks[len(chunks) // 3 : -1]  # for several runs, both ends inside a run
        self._assert_bits(run_monte_carlo(cfg, chunk_range=(inner[0], inner[-1] + 1), threads=2),
                          cfg, inner)

    @pytest.mark.parametrize("dist, p, N, delta, trials, seed, threads, exceeded", [
        (UNIFORM, 64, 4, 0.3, 1000, 0, None, 421),
        (UNIFORM, 33, 3, 0.3, 700, 1, None, 214),
        (UNIFORM, 4096, 1024, 0.16, 300, 2, None, 280),
        (TABLE, 16, 2, 0.2, 600, 3, 2, 273),
        (SamplingDistribution.two_point(0.5), 8, 1, 0.2, 513, 4, None, 274),
        (UNIFORM, 2, 0, 0.2, 257, 5, 2, 176),
        (UNIFORM, 64, 4, 0.3, 35 * 256 + 17, 6, 3, 3661),  # several runs
    ])
    def test_tail_exceedance_fractions_are_unchanged(self, dist, p, N, delta, trials, seed,
                                                     threads, exceeded):
        # counts recorded from the allocating pipeline for these seeds
        assert tail_exceedance(dist, p, N, delta, trials, seed, threads=threads) == exceeded / trials

    @pytest.mark.parametrize("p", [8, 9, 4096])
    def test_chunks_reuse_their_thread_buffers(self, p):
        chunk, rows = _chunks(UNIFORM, p, 3 * 256, W=None), 256 if p < 683 else 32

        def blocks(c):  # each block's start, arrays and copies taken before the next block
            return [(i, arrays, [a.copy() for a in arrays]) for i, *arrays in chunk(stream(0, c), 256)]

        first, second = blocks(0), blocks(1)
        assert [i for i, _, _ in first] == [*range(0, 256, rows)]
        (y0, ptot0, pn0), (y1, ptot1, pn1) = first[0][1], second[-1][1]
        assert np.shares_memory(y0, y1)  # every block of every chunk
        assert np.shares_memory(pn0, pn1)
        assert not np.shares_memory(ptot0, ptot1)  # reduced statistics are fresh arrays
        assert not np.array_equal(first[0][2][0], y1)  # the last block overwrote the first
        other = []
        worker = threading.Thread(target=lambda: other.extend(blocks(0)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert not any(np.shares_memory(a, b) for a, b in zip(other[-1][1], (y1, ptot1, pn1)))
        for (_, _, mine), (_, _, theirs) in zip(first, other, strict=True):
            for a, b in zip(mine, theirs):  # another thread, its own buffers, the same bits
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))

    @staticmethod
    def _whole_chunk(dist, p, rng, n):
        """The FFT chunk as one n-row block in fresh arrays: draw, row mean of
        y*y, transform, squares and the parity's bin order."""
        y = dist.sample(rng, (n, p))
        ptot = (y * y).mean(axis=1)
        amps = half_step_bins(y, np.empty((n, (p + 1) // 2), complex), half_step_roots(p, p // 2) / p)
        po = amps.real * amps.real + amps.imag * amps.imag
        pn = np.empty_like(po)
        if p % 2:
            pn[:] = po[:, ::-1]
        else:
            q = (p // 2 + 1) // 2
            pn[:, 0::2], pn[:, 1::2] = po[:, :q], po[:, q:][:, ::-1]
        return y, ptot, pn

    @pytest.mark.parametrize("p", [4095, 4096, 8192])
    @pytest.mark.parametrize("trials", [777, 801, 808])  # last chunks of 9, 33 and 40 rows
    def test_fft_blocks_equal_a_whole_chunk(self, p, trials):
        cfg = self._config(UNIFORM, p, trials)
        bins, W = _spectrum_bins(cfg)
        weights, chunk = _rows(cfg, bins)[0], _chunks(cfg.dist, p, trials, W)
        for c, n in enumerate(_chunk_sizes(trials)):
            blocks = [(i, [a.copy() for a in arrays]) for i, *arrays in chunk(stream(cfg.seed, c), n)]
            starts = [*range(0, n, 32)]  # 24 * p * 64 rows pass 4 MiB
            if n == 33:  # no 1-row block, whose moment numpy takes by dot: 28 + 5 rows
                starts[-1] = 28
            assert [i for i, _ in blocks] == starts
            whole = self._whole_chunk(cfg.dist, p, stream(cfg.seed, c), n)
            for k, want in enumerate(whole):  # y, p_tot and p_n
                got = np.concatenate([arrays[k] for _, arrays in blocks])
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (c, k)
            # statistics per block, the moment dgemv included, against the whole chunk's
            stats = [_trial_stats(cfg, *arrays, weights, bins) for _, arrays in blocks]
            for key, want in _trial_stats(cfg, *whole, weights, bins).items():
                got = np.concatenate([s[key] for s in stats])
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (c, key)
        self._assert_bits(run_monte_carlo(cfg), cfg, range(len(_chunk_sizes(trials))))

    @pytest.mark.parametrize("p, rows", [
        (4096, 32), (65536, 32), (682, 256), (683, 128), (2730, 64), (2731, 32), (8, 256),
    ])
    def test_fft_buffers_are_bounded_in_p(self, p, rows):
        chunk = _chunks(UNIFORM, p, 3 * 256, W=None)
        [*_chunks(UNIFORM, p, 1, W=None)(stream(1, 0), 1)]  # FFT plans and twiddles, untraced
        tracemalloc.start()
        try:
            blocks = chunk(stream(0, 0), 256)
            _, y, _, pn = next(blocks)  # the first block only: no 256-row chunk at p = 65536
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        blocks.close()
        assert y.base.shape == (rows, p)  # the thread's buffers, of which y and p_n are views
        assert pn.base.shape == (rows, (p + 1) // 2)
        assert held <= max(4 << 20, 24 * p * 32) + (64 << 10)  # y, z, |A|^2 and p_n: 24 B a component

    def test_threads_keep_the_bits_under_frequent_switches(self):
        # more workers than cores, switching every microsecond: a buffer shared
        # between threads would mix one chunk's draws into another's statistics
        cfg = self._config(UNIFORM, 64, 40 * 256 + 3)
        base = run_monte_carlo(cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = run_monte_carlo(cfg, threads=4)
        finally:
            sys.setswitchinterval(interval)
        for a, b in zip(base.rows, threaded.rows):
            assert np.array_equal(_bits(a.acc), _bits(b.acc)), a.key
        assert np.array_equal(base.histogram, threaded.histogram)


class TestPhaseMatrixPath:
    """Periodic runs that read at most 32 half bins and no moment, and every
    continuous run, take p_n from one product y @ W with the phase matrix of
    the half bins they read."""

    TABLE = SamplingDistribution.table([-0.5, 0.0, 0.8], [0.3, 0.4, 0.3])

    @staticmethod
    def _matrix_fold(cfg, chunks):
        """Accumulators and histogram of the given chunk ordinals, each chunk
        drawn afresh from stream(seed, c) with p_n from an allocating y @ W,
        folded in ordinal order. W is the phase matrix of period `size`, on the
        line too, whose rows take the index-by-index `_folded_line_weights`."""
        bins = _spectrum_bins(cfg)[0]
        W, K = half_step_phase_matrix(cfg.size, bins), len(bins)
        weights, preds = _rows(cfg, bins)
        if cfg.mode == "continuous":
            weights = _folded_line_weights(cfg, bins)
        keys = [*preds]
        totals = {key: MomentAccumulator() for key in keys}
        histogram = np.zeros(cfg.size + 1, dtype=np.int64)
        sizes = _chunk_sizes(cfg.trials)
        for c in chunks:
            y = cfg.dist.sample(stream(cfg.seed, c), (sizes[c], cfg.size))
            a = y @ W
            stats = _trial_stats(cfg, y, (y * y).mean(axis=1),
                                 a[:, :K] ** 2 + a[:, K:] ** 2, weights, bins)
            block = np.array([stats[key] for key in keys], dtype=float)
            for key, moments in zip(keys, _batch_moments(block).tolist()):
                totals[key] = merge_accumulators(totals[key], MomentAccumulator(sizes[c], *moments))
            if cfg.epsilon is not None:
                histogram += np.bincount(stats[keys[-1]], minlength=cfg.size + 1)
        return totals, histogram

    def _assert_bits(self, rep, cfg, chunks):
        totals, histogram = self._matrix_fold(cfg, chunks)
        assert [row.key for row in rep.rows] == [*totals]
        for row in rep.rows:
            assert row.acc.count == totals[row.key].count
            assert np.array_equal(_bits(row.acc), _bits(totals[row.key])), row.key
        if cfg.epsilon is not None:
            assert np.array_equal(rep.histogram, histogram)

    # the trailing fields: moment orders, and whether `size` counts cells on
    # the line instead of a period
    @pytest.mark.parametrize("dist, size, trials, n_list, N_list, epsilon, r_list, line", [
        (UNIFORM, 64, 3 * 256 + 17, (1, 32), (0, 4), 0.1, (), False),  # the bins of `sample --n 1,32 --N 0,4`
        (UNIFORM, 33, 600, (1, 17), (0, 4), 0.1, (), False),
        (TABLE, 80, 513, (33, 2), (31,), None, (), False),  # 32 bins, the most the matrix path takes
        (SamplingDistribution.two_point(1.0), 16, 300, (1, 8, 16), (0, 3), 0.5, (), False),
        (TABLE, 4096, 300, (1, 2048), (0, 16), 0.3, (), False),
        (UNIFORM, 2, 257, (1, 2), (0,), None, (), False),
        # the line, on the bins of period M: n <= 0 shares the half bin of 1-n, n > M and
        # N >= M/2 fold by residue, partial last chunks (a moment takes the FFT; see
        # `test_rows_equal_per_statistic_reduction`)
        (UNIFORM, 64, 3 * 256 + 17, (0, 1, -5, 9, 67), (0, 4, 40), None, (), True),
        (TABLE, 24, 300, (1, 3, -2), (0, 2, 1000), None, (), True),
        (SamplingDistribution.two_point(1.0), 16, 513, (-7,), (12,), None, (), True),
        (UNIFORM, 256, 600, (0, 1, 9), (0, 8), None, (), True),  # the CI command's bins
        (UNIFORM, 2, 257, (), (0,), None, (), True),  # no bin: p_0 alone
        # several runs, a partial last run and chunk, on a period and on the line
        (UNIFORM, 64, (2 * RUN + 3) * 256 + 17, (1, 32), (0, 4), 0.1, (), False),
        (TABLE, 32, (2 * RUN + 3) * 256 + 17, (0, 5), (0, 3), None, (), True),
    ])
    def test_engine_rows_equal_a_matrix_fold(self, dist, size, trials, n_list, N_list, epsilon,
                                             r_list, line):
        cfg = MonteCarloConfig(dist=dist, trials=trials, seed=size + 3, n_list=n_list,
                               N_list=N_list, r_list=r_list, epsilon=epsilon,
                               **{"cells" if line else "period": size})
        assert _spectrum_bins(cfg)[1] is not None
        chunks = range(len(_chunk_sizes(trials)))
        for threads in (1, 2, 4):
            self._assert_bits(run_monte_carlo(cfg, threads=threads), cfg, chunks)
        self._assert_bits(run_monte_carlo(cfg, chunk_range=(0, 1)), cfg, chunks[:1])
        self._assert_bits(run_monte_carlo(cfg, chunk_range=(1, len(chunks)), threads=2), cfg, chunks[1:])
        inner = chunks[len(chunks) // 3 : -1]  # for several runs, both ends inside a run
        for threads in (1, 4):
            self._assert_bits(run_monte_carlo(cfg, chunk_range=(inner[0], inner[-1] + 1),
                                              threads=threads), cfg, inner)

    @pytest.mark.parametrize("trials, n_list, N_list, seed", [(808, (1,), (), 3), (552, (1, 3), (0, 2), 4)])
    def test_few_bin_commands_keep_one_gemm_per_chunk(self, trials, n_list, N_list, seed):
        # `sample --period 4096 --trials 808 --n 1 --seed 3` and `--trials 552 --n 1,3
        # --N 0,2 --seed 4`: 8- and 16-row products of these moved bits in a small-matrix dgemm
        cfg = MonteCarloConfig(dist=UNIFORM, trials=trials, seed=seed, period=4096,
                               n_list=n_list, N_list=N_list)
        chunk = _chunks(UNIFORM, 4096, trials, _spectrum_bins(cfg)[1])
        [(i, y, _, _)] = chunk(stream(seed, 0), 256)
        assert (i, y.shape) == (0, (256, 4096))
        for threads in (1, 2):
            self._assert_bits(run_monte_carlo(cfg, threads=threads), cfg, range(len(_chunk_sizes(trials))))

    def test_bins_follow_the_statistics(self):
        def bins(n_list=(), N_list=(), r_list=(), **size):
            cfg = MonteCarloConfig(dist=UNIFORM, trials=1, seed=0, n_list=n_list, N_list=N_list,
                                   r_list=r_list, **size)
            bins, W = _spectrum_bins(cfg)
            if W is None:  # the FFT returns every half bin
                assert bins == range(1, (cfg.size + 1) // 2 + 1)
                return "FFT"
            assert np.array_equal(W, half_step_phase_matrix(cfg.size, bins))  # (size, 0) for no bin
            return bins

        assert bins((1, 32), (0, 4), period=64) == [1, 2, 3, 4, 32]
        assert bins((1, 17, 33), (2,), period=33) == [1, 2, 17]  # n and p+1-n share a bin
        assert bins((), (0,), period=16) == []
        assert bins((1,), (), (0.0,), period=64) == "FFT"
        # the line reads the bins of period M: n and 1-n share a bin, n folds by residue,
        # N stops at ceil(M/2), and a moment or over 32 bins takes the FFT
        assert bins((0, -3, 9, 1), (2,), cells=64) == [1, 2, 4, 9]
        assert bins((67, 70, -31), (30,), cells=64) == [*range(1, 31), 32]
        assert bins((9, -7), (), cells=8) == [1]
        assert bins((), (100,), cells=8) == [1, 2, 3, 4]
        assert bins((), (10**9,), cells=9) == [1, 2, 3, 4, 5]
        assert bins((40,), (), (1.0,), cells=8) == "FFT"
        assert bins((), (33,), cells=1024) == "FFT"

    @pytest.mark.parametrize("n_list, N_list, r_list", [
        ((), (), ()), ((), (0,), ()), ((1,), (), ()), ((0, 1, -5, 9), (4,), ()), ((40,), (), (1.0,)),
        ((-31, 33), (), (2.0,)), ((7, -6), (100,), (1.0,)), ((), (20,), (1.0,)),
        ((), (150000,), ()),
    ])
    def test_line_matrix_is_bounded_by_arithmetic(self, monkeypatch, n_list, N_list, r_list):
        # a line run reads the half bins of period M: K <= min(32, ceil(M/2)) on the matrix
        # path, a 16*M*K-byte W, whatever N is; the FFT's half spectrum otherwise. W is only
        # named here: at 2^20 cells it would take up to 512 MiB
        import anticip.sampling as sampling

        monkeypatch.setattr(sampling, "half_step_phase_matrix", lambda p, bins: ("W", p, bins))
        for cells in (2, 3, 8, 64, 1023, 1 << 20):
            bins, W = _spectrum_bins(MonteCarloConfig(dist=UNIFORM, trials=300, seed=0, cells=cells,
                                                      n_list=n_list, N_list=N_list, r_list=r_list))
            if W is None:
                assert r_list or min(max(N_list, default=0), (cells + 1) // 2) > 32
                assert bins == range(1, (cells + 1) // 2 + 1)
                continue
            assert W == ("W", cells, bins)
            assert len(bins) <= min(32, (cells + 1) // 2)
            assert set(bins) <= set(range(1, (cells + 1) // 2 + 1))
            if max(N_list, default=0) < cells / 2:  # the period-M run of the same rows reads them too
                assert bins == _spectrum_bins(MonteCarloConfig(
                    dist=UNIFORM, trials=300, seed=0, period=cells, N_list=N_list,
                    n_list=tuple((n - 1) % cells + 1 for n in n_list)))[0]

    @pytest.mark.parametrize("p, stats, path", [
        (64, {"n_list": (32,), "N_list": (31,)}, "matrix"),  # K = 32
        (81, {"n_list": (33,), "N_list": (31,)}, "matrix"),  # K = 32, odd p
        (80, {"n_list": (33,), "N_list": (32,)}, "FFT"),  # K = 33
        (81, {"n_list": (33,), "N_list": (32,)}, "FFT"),  # K = 33, odd p
        (64, {"n_list": (1,), "r_list": (0.0,)}, "FFT"),  # any moment
        (8, {"r_list": (1.0,)}, "FFT"),
        (64, {"N_list": (0,)}, None),  # K = 0
        (63, {}, None),
    ])
    def test_path_choice(self, monkeypatch, p, stats, path):
        called = self._record_paths(monkeypatch)
        run_monte_carlo(MonteCarloConfig(dist=UNIFORM, trials=10, seed=0, period=p, **stats))
        assert called == ({path} if path else set())

    @pytest.mark.parametrize("p, N, path", [
        (80, 0, None), (80, 32, "matrix"), (80, 33, "FFT"), (81, 32, "matrix"), (81, 33, "FFT"),
    ])
    def test_tail_exceedance_path_choice(self, monkeypatch, p, N, path):
        called = self._record_paths(monkeypatch)
        tail_exceedance(UNIFORM, p, N, 0.2, 10, 0)
        assert called == ({path} if path else set())

    @staticmethod
    def _record_paths(monkeypatch) -> set:
        """Wrap the engine's transforms so that each call adds its path to the set; a
        phase matrix of no bins, (p, 0), leaves an empty product and adds nothing."""
        import anticip.sampling as sampling

        called = set()
        for name, attr in (("FFT", "half_step_bins"), ("matrix", "half_step_phase_matrix")):
            def call(*args, fn=getattr(sampling, attr), name=name):
                if name == "FFT" or len(args[1]):
                    called.add(name)
                return fn(*args)
            monkeypatch.setattr(sampling, attr, call)
        return called
