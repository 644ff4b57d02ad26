"""Sampling distributions, streaming accumulators and the Monte Carlo engine."""

import math
import os
import sys
import threading
import tracemalloc
from dataclasses import replace
from unittest import mock

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
from anticip import rng as rng_mod
from anticip.sampling import (
    CHUNK,
    RUN,
    StatRow,
    _Plan,
    _run_chunked,
    resolve_threads,
)
from anticip.spectral import half_step_bins, half_step_phase_matrix, half_step_roots, line_factor
from packed_reference import chunk_sizes, engine_rows, packed_formula, trial_stats

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

    @pytest.mark.parametrize("points, masses", [
        ([-0.9, -0.2, 0.2, 0.9], [0.25] * 4),  # float sums give m1 = -2.8e-17
        ([-0.9, -0.2, 0.2, 0.9], [0.1, 0.4, 0.4, 0.1]),  # float sums give m1 = -1.4e-17
        ([-0.5022385584334831, 0.5022385584334831], [0.5, 0.5]),  # (-x)**3 one ulp off -(x**3)
    ])
    def test_mirrored_table_has_zero_odd_moments(self, points, masses):
        law = SamplingDistribution.table(points, masses)
        assert (law.moments.m1, law.moments.m3) == (0.0, 0.0)
        assert law.moments == SamplingDistribution.table(points[::-1], masses[::-1]).moments
        uneven = np.arange(1.0, len(points) + 1)  # mirrored points, unequal masses: the sums stand
        skewed = SamplingDistribution.table(points, uneven / uneven.sum()).moments
        assert skewed.m1 > 0.0 and skewed.m3 > 0.0

    def test_repeated_points_are_one_atom(self):
        # -0.2 listed twice: once m1 = -2.78e-17, now the law of the four distinct atoms
        repeated = SamplingDistribution.table([-0.9, -0.2, -0.2, 0.2, 0.9], [0.25, 0.125, 0.125, 0.25, 0.25])
        distinct = SamplingDistribution.table([-0.9, -0.2, 0.2, 0.9], [0.25] * 4)
        assert repeated.moments == distinct.moments and repeated.moments.m1 == repeated.moments.m3 == 0.0
        assert repeated.points.tolist() == distinct.points.tolist() == [-0.9, -0.2, 0.2, 0.9]
        assert repeated.masses.tolist() == distinct.masses.tolist() == [0.25] * 4
        draws = [law.sample(stream(7, 2), (300, 17)) for law in (repeated, distinct)]
        assert draws[0].tobytes() == draws[1].tobytes()

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
            if dist.points is None:
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
        weights = _Plan(cfg).weights
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

    @pytest.mark.parametrize("field, fields", [
        ("n_list", {"period": 8, "n_list": (1, 1.5)}),  # once a p_n row at 1.5: p_1's estimate, n = 1.5's kernel
        ("n_list", {"cells": 8, "n_list": (np.float64(2.0),)}),
        ("N_list", {"period": 8, "N_list": (1.5,)}),
        ("N_list", {"cells": 8, "N_list": (2.0,)}),
        ("trials", {"period": 8, "trials": 300.5}),
        ("period", {"period": 8.0}),
        ("cells", {"cells": 8.5}),
        ("trials", {"period": 8, "trials": True}),  # once an unnamed TypeError in the worker
        ("n_list", {"period": 8, "n_list": (True,)}),  # once run as p_1
        ("N_list", {"period": 8, "N_list": (False,)}),
        ("N_list", {"cells": 8, "N_list": (2, True)}),
        ("period", {"period": True}),
        ("cells", {"cells": False}),
    ])
    def test_non_integral_sizes_and_indices_rejected(self, field, fields):
        with pytest.raises(ValueError, match=f"^{field}: .* is not an integer$"):
            MonteCarloConfig(dist=UNIFORM, **{"trials": 10, "seed": 0, **fields})

    def test_numpy_integers_are_sizes_and_indices(self):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=np.int64(300), seed=np.uint64(4), period=np.int32(8),
                               n_list=(np.int64(1),), N_list=(np.uint8(2),))
        want = run_monte_carlo(MonteCarloConfig(dist=UNIFORM, trials=300, seed=4, period=8, n_list=(1,),
                                                N_list=(2,)))
        for a, b in zip(run_monte_carlo(cfg, threads=np.int64(2)).rows, want.rows, strict=True):
            assert a.key == b.key and np.array_equal(_bits(a.acc), _bits(b.acc)), a.key

    @pytest.mark.parametrize("threads", [2.5, 2.0, "2"])
    def test_non_integral_thread_counts_rejected(self, threads):
        with pytest.raises(ValueError, match="^threads: .* is not an integer$"):
            resolve_threads(threads)

    def test_non_integral_seed_rejected(self):
        with pytest.raises(ValueError, match="^seed: 1.5 is not an integer$"):
            run_monte_carlo(MonteCarloConfig(dist=UNIFORM, trials=10, seed=1.5, period=8))

    def test_bool_thread_count_and_seed_rejected(self):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=600, seed=0, period=8)
        with pytest.raises(ValueError, match="^threads: True is not an integer$"):
            run_monte_carlo(cfg, threads=True)  # once run on one thread
        with pytest.raises(ValueError, match="^seed: True is not an integer$"):
            run_monte_carlo(replace(cfg, seed=True))  # once run as seed 1
        with pytest.raises(ValueError, match="^seed of C1: False is not an integer$"):
            rng_mod.check_seed(False, "seed of C1")
        with pytest.raises(ValueError, match=r"^chunk_range: False is not an integer$"):
            run_monte_carlo(cfg, chunk_range=(False, True))  # once run as chunk 0
        with pytest.raises(ValueError, match="^r_list: True is not a number$"):
            replace(cfg, r_list=(True,))  # once a ('moment', 1.0) row

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
            whole = run_monte_carlo(cfg, threads=1)
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
        calls = []
        def worker(run):
            calls.append(run)
            return run

        expected = [(c, 256) for c in range(RUN + 3)] + [(RUN + 3, 5)]
        results = _run_chunked(worker, (RUN + 3) * 256 + 5, 1, None)
        # one result per run; the second run is not computed before the first result is taken
        assert next(results) == expected[:RUN] and calls == [expected[:RUN]]
        assert list(results) == [expected[RUN:]] and calls == [expected[:RUN], expected[RUN:]]
        threaded = _run_chunked(worker, (RUN + 3) * 256 + 5, 2, (1, RUN + 4))
        assert [c for run in threaded for c in run] == expected[1:]
        # on a pool, at most 2*threads runs are submitted ahead of the fold
        calls.clear()
        count, threads = 40 * RUN, 2
        results = _run_chunked(worker, count * 256, threads, None)
        for taken in range(1, count // RUN + 1):
            assert next(results) == [(c, 256) for c in range((taken - 1) * RUN, taken * RUN)]
            assert len(calls) <= taken + 2 * threads
        assert next(results, None) is None and len(calls) == count // RUN

    @pytest.mark.parametrize("threads, count, lengths", [
        (1, 40, [16, 16, 8]), (2, 40, [10] * 4), (2, 33, [9, 9, 9, 6]), (2, 64, [16] * 4), (2, 3, [2, 1]),
        (3, 40, [14, 14, 12]), (4, 16, [4] * 4),  # C12's threaded run
    ])
    def test_pool_runs_are_cut_evenly(self, threads, count, lengths):
        # the fewest rounds of one run per thread, each run of at most RUN chunks
        assert [*_run_chunked(len, count * 256, threads, None)] == lengths

    @pytest.mark.parametrize("threads", [1, 2])
    def test_runs_are_made_on_demand(self, threads):
        # the 2^32 chunks of 2^40 trials: no list of every run, nor a future per run
        tracemalloc.start()
        try:
            results = _run_chunked(lambda run: run[0], 1 << 40, threads, None)
            first = next(results)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        results.close()
        assert first == (0, 256)
        assert held < 64 << 10

    @pytest.mark.parametrize("size, stats, rows", [
        ({"period": 64}, {"n_list": (1, 32), "N_list": (0, 4), "epsilon": 0.1}, 16 * 256),  # matrix, K = 5
        ({"period": 64}, {"n_list": (1,), "r_list": (1.0,)}, 16 * 256),  # the FFT with a moment, K = 32
        ({"cells": 24}, {"n_list": (1, -5), "N_list": (0, 3, 12, 1000)}, 16 * 256),  # a line run
        ({"period": 80}, {"N_list": (31,), "n_list": (33,)}, 16 * 256),  # matrix, K = 32
        ({"period": 128}, {"r_list": (1.0,)}, 8 * 256),  # K = 64: eight chunks' p_n take 1 MiB
        ({"period": 4096}, {"r_list": (1.0,)}, 16),  # the FFT cuts blocks below a chunk, to the floor
        ({"period": 4096}, {"n_list": (1,)}, 16),  # and so does the matrix path, K = 1
    ])
    def test_stages_span_whole_chunks_within_their_bytes(self, size, stats, rows):
        # a stage holds whole chunks up to the run while 8 bytes per p_n column fit
        # _BLOCK_BYTES, the blocks' own budget, or one block where blocks are cut below a chunk
        cfg = MonteCarloConfig(dist=UNIFORM, trials=16 * 256 + 1, seed=1, **size, **stats)
        plan = _Plan(cfg)
        assert plan.stage == rows
        stages = plan.stages
        spans = [(lo, hi) for _, lo, hi in stages([(c, 256) for c in range(RUN)])]
        assert spans == [(lo, lo + rows) for lo in range(0, RUN * 256, rows)]
        assert [(lo, hi) for _, lo, hi in stages([(RUN, 1)])] == [(0, 1)]

    @pytest.mark.parametrize("size, stats", [
        ({"period": 64}, {"n_list": (1, 32), "N_list": (0, 4), "epsilon": 0.1}),  # the matrix path
        ({"period": 63}, {"n_list": (1,), "N_list": (0, 4), "r_list": (1.0,), "epsilon": 0.1}),  # the FFT
        ({"cells": 24}, {"n_list": (1, -5), "N_list": (0, 3, 12, 1000)}),  # a line on the matrix path
        ({"cells": 24}, {"n_list": (1, -5), "N_list": (0, 3, 1000), "r_list": (1.0,)}),  # a line on the FFT
    ], ids=["p64-matrix", "p63-fft", "line-matrix", "line-fft"])
    def test_plan_depends_only_on_the_config(self, size, stats):
        # seed, trials and the thread count leave the plan alone, and one plan shared by three
        # threads gives the bytes of one: each run owns its buffers and its generator
        import anticip.sampling as sampling

        def facts(plan):
            W = None if plan.W is None else plan.W.view(np.uint64).tolist()
            dots = [(k, w.view(np.uint64).tolist()) for k, w in plan.dots]
            return [*plan.preds], [*plan.bins], W, plan.rows, plan.stage, plan.picks, dots, plan.tails

        cfg = MonteCarloConfig(dist=UNIFORM, trials=600, seed=1, **size, **stats)
        plans = [_Plan(replace(cfg, seed=9)), _Plan(replace(cfg, trials=16 * 256 + 1))]
        with mock.patch.object(sampling, "_Plan", lambda c: plans.append(_Plan(c)) or plans[-1]):
            for threads in (1, 2):
                run_monte_carlo(cfg, threads=threads)
        want = facts(_Plan(cfg))
        assert len(plans) == 4 and all(facts(plan) == want for plan in plans)

        plan, runs = _Plan(cfg), [[(c, 256) for c in range(r, r + 8)] for r in (0, 8, 16)]
        start = threading.Barrier(len(runs))

        def rows_of(run, out, wait=False):
            if wait:  # the threads start drawing together
                start.wait(timeout=60)
            out.extend(stats[:, lo:hi].copy() for stats, lo, hi in plan.stages(run))

        alone, shared = [[] for _ in runs], [[] for _ in runs]
        for run, out in zip(runs, alone):
            rows_of(run, out)
        workers = [threading.Thread(target=rows_of, args=(*args, True)) for args in zip(runs, shared)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        for one, out in zip(alone, shared):
            assert len(out) == len(one)
            assert all(np.array_equal(a.view(np.uint64), b.view(np.uint64)) for a, b in zip(one, out))

    def test_two_chunks_of_a_huge_run_allocate_for_two(self):
        # chunk sizes come by arithmetic: a list over the 2^32 chunks of 2^40 trials
        # would take about 34 GB before the first draw
        cfg = MonteCarloConfig(dist=UNIFORM, trials=1 << 40, seed=3, period=64, n_list=(1, 32),
                               N_list=(0, 4), epsilon=0.1)
        run_monte_carlo(replace(cfg, trials=512))  # plans and imports, untraced
        tracemalloc.start()
        try:
            rep = run_monte_carlo(cfg, chunk_range=(0, 2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.trials == 512 and rep.histogram.sum() == 512
        assert peak < 2 << 20
        whole = run_monte_carlo(replace(cfg, trials=512))  # the same two chunks, the same bits
        for a, b in zip(rep.rows, whole.rows):
            assert np.array_equal(_bits(a.acc), _bits(b.acc)), a.key

    def test_thread_env_variable(self, monkeypatch):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=1024, seed=6, period=16)
        base = run_monte_carlo(cfg, threads=1)
        monkeypatch.setenv("ANTICIP_THREADS", "4")
        from_env = run_monte_carlo(cfg)
        assert base.row("p_tot").acc.mean == from_env.row("p_tot").acc.mean
        assert base.row("p_tot").acc.m2 == from_env.row("p_tot").acc.m2

    def test_default_threads_are_the_usable_cpus(self, monkeypatch):
        # with no count given, one worker per CPU the process may run on; small patched
        # counts only, and no run starts a thread
        monkeypatch.delenv("ANTICIP_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert resolve_threads(None) == 3
        monkeypatch.setenv("ANTICIP_THREADS", " ")
        assert resolve_threads(None) == 3
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert resolve_threads(None) == 5
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_threads(None) == 1
        monkeypatch.setenv("ANTICIP_THREADS", "2")
        assert resolve_threads(None) == 2 and resolve_threads(1) == 1

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
        # stages spanning chunks: a run of 16 and a 1-row last chunk, on a period and the line
        MonteCarloConfig(dist=UNIFORM, trials=16 * 256 + 1, seed=8, period=64, n_list=(1, 32),
                         N_list=(0, 4), r_list=(1.0,), epsilon=0.1),
        MonteCarloConfig(dist=UNIFORM, trials=16 * 256 + 1, seed=5, cells=24, n_list=(1, -5),
                         N_list=(0, 3, 12, 1000), r_list=(1.0,)),
    ], ids=["p64-partial-chunk", "two-point-constant-rows", "continuous", "line-M64-moments",
            "line-M24-table", "line-M256-ci", "p64-one-row-last-chunk", "line-M24-one-row-last-chunk"])
    def test_rows_equal_per_statistic_reduction(self, cfg):
        # one add_batch per statistic per chunk; p_n from the allocating period-size
        # transform, squared, with the index-by-index line weights
        plan = _Plan(cfg)
        bins = plan.bins  # a moment: all ceil(size/2) half bins, from the FFT
        assert plan.W is None and bins == range(1, (cfg.size + 1) // 2 + 1)
        weights = plan.weights if cfg.mode == "periodic" else _folded_line_weights(cfg, bins)
        reference = _chunk_reference(cfg, _packed_pn, weights, bins)
        for threads in (1, 3):
            _assert_chunk_bits(cfg, reference, threads=threads)
        if cfg.dist.label.startswith("two-point"):
            assert run_monte_carlo(cfg).row("p_tot").acc.m2 == 0.0  # the constant-row rule

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
            rep = EstimateReport("periodic", 8, "uniform", 0, rows)
            assert rep.trials == 10 and not rep.max_abs_z() <= 5.0
        assert EstimateReport("periodic", 8, "uniform", 0, [ok]).max_abs_z() == 0.0

    def test_score_has_no_z_below_two_trials(self):
        one = run_monte_carlo(MonteCarloConfig(dist=UNIFORM, trials=1, seed=0, period=8, n_list=(1,)))
        for row in one.rows:
            assert row.score() == (row.acc.mean, row.pred_mean, 0.0, None)
            assert row.score(var=True) == (0.0, row.pred_var, 0.0, None)
        assert one.trials == 1 and one.max_abs_z() == 0.0
        # from two trials on SE 0 compares exactly: a point mass meets its predictions
        point = SamplingDistribution.table([1.0], [1.0])
        two = run_monte_carlo(MonteCarloConfig(dist=point, trials=2, seed=0, period=8, n_list=(1,),
                                               N_list=(2,)))
        assert all(row.score(var)[2:] == (0.0, 0.0) for row in two.rows for var in (False, True))
        miss = replace(two.row("p_n", 1.0), pred_mean=two.row("p_n", 1.0).pred_mean + 1e-6)
        assert miss.score() == (miss.acc.mean, miss.pred_mean, 0.0, math.inf)
        row = run_monte_carlo(MonteCarloConfig(dist=UNIFORM, trials=300, seed=1, period=8)).row("p_tot")
        assert row.score() == (row.acc.mean, row.pred_mean, row.acc.std_error, row.z_mean)
        assert row.score(var=True) == (row.acc.variance, row.pred_var, row.acc.variance_std_error, row.z_var)

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
                            for c, n in enumerate(chunk_sizes(cfg.trials))])
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


def _packed_pn(y):
    """p_n of the half bins 1..ceil(p/2) by the allocating packed formula."""
    half = packed_formula(y)
    return half.real**2 + half.imag**2


def _block_rows(row_bytes):
    """Rows of a transform block: 256, halved while row_bytes per row pass 1 MiB, never
    below 16; row_bytes is 24 per component on the FFT, and on the matrix path 8 per
    component and 24 per half bin (a row of y, of [Re|Im] and of p_n)."""
    rows = 256
    while rows > 16 and row_bytes * rows > 1 << 20:
        rows //= 2
    return rows


def _block_starts(n, rows):
    """The first rows of the blocks of an n-row chunk: every `rows` rows, with a last
    start at n - 1 moved back by 4, so no block has one row unless the chunk has one and
    every block starts at a multiple of 4 (numpy takes a 1-row product by dot, and
    OpenBLAS dgemv_t groups rows by 4)."""
    return [i - 4 * (i == n - 1 > 0) for i in range(0, n, rows)]


def _by_blocks(x, rows, f):
    """f of each block of the rows of x, cut as `_block_starts` cuts a chunk, stacked."""
    starts = _block_starts(len(x), rows)
    return np.concatenate([f(x[i:j]) for i, j in zip(starts, starts[1:] + [len(x)])])


def _blocked_gemm_pn(W, rows):
    """p_n of the half bins of W, shape (p, 2K), from one y @ W per block of `rows`-row
    blocks, as the matrix path cuts a chunk."""
    K = W.shape[1] // 2

    def pn_of(y):
        a = _by_blocks(y, rows, lambda b: b @ W)
        return a[:, :K] ** 2 + a[:, K:] ** 2

    return pn_of


def _blocked_moments(cfg, stats, pn, weights, rows):
    """`stats` with each moment's dgemv taken over the `rows`-row blocks of the engine's
    plan, not over the whole chunk, whose dgemv OpenBLAS splits over its threads."""
    for r in cfg.r_list:
        stats[("moment", float(r))] = _by_blocks(pn, rows, lambda b, w=weights[("moment", float(r))]: b @ w)
    return stats


def _chunk_reference(cfg, pn_of, weights, bins, rows=None):
    """Per-chunk accumulators, one {key: acc} per chunk in ordinal order, and per-chunk
    near-zero histograms: chunk c drawn afresh from stream(seed, c), p_n = pn_of(y) over
    the half `bins`, `trial_stats` with `weights`, its moments by `rows`-row blocks when
    `rows` is given, and one add_batch per statistic."""
    accs, hists = [], []
    for c, n in enumerate(chunk_sizes(cfg.trials)):
        y = cfg.dist.sample(stream(cfg.seed, c), (n, cfg.size))
        pn = pn_of(y)
        stats = trial_stats(cfg, y, (y * y).mean(axis=1), pn, weights, bins)
        if rows is not None:
            _blocked_moments(cfg, stats, pn, weights, rows)
        accs.append({key: MomentAccumulator() for key in stats})
        for key, row in stats.items():
            accs[-1][key].add_batch(row)
        if cfg.epsilon is not None:
            hists.append(np.bincount(stats[("near_zero_count", float(cfg.epsilon))], minlength=cfg.size + 1))
    return accs, hists


def _engine_chunks(cfg, **kwargs):
    """The report of run_monte_carlo(cfg, **kwargs) and the per-chunk accumulators
    that its fold merges, one {key: acc} per chunk in ordinal order."""
    import anticip.sampling as sampling

    merged = []

    def record(a, b):
        merged.append(b)
        return merge_accumulators(a, b)

    with mock.patch.object(sampling, "merge_accumulators", record):
        rep = run_monte_carlo(cfg, **kwargs)
    keys = [row.key for row in rep.rows]
    return rep, [dict(zip(keys, merged[i:i + len(keys)])) for i in range(0, len(merged), len(keys))]


def _assert_chunk_bits(cfg, reference, chunk_range=None, threads=None):
    """Each chunk's accumulators from the engine have the bits of the `_chunk_reference`
    chunk's; the report's rows are their fold in ordinal order, its histogram their sum."""
    rep, accs = _engine_chunks(cfg, chunk_range=chunk_range, threads=threads)
    lo, hi = chunk_range or (0, len(reference[0]))
    assert len(accs) == hi - lo
    for c, got in zip(range(lo, hi), accs):
        want = reference[0][c]
        assert [*got] == [*want]
        for key, acc in want.items():
            assert got[key].count == acc.count and np.array_equal(_bits(got[key]), _bits(acc)), (c, key)
    for row in rep.rows:
        total = MomentAccumulator()
        for chunk in reference[0][lo:hi]:
            total = merge_accumulators(total, chunk[row.key])
        assert row.acc.count == total.count and np.array_equal(_bits(row.acc), _bits(total)), row.key
    if cfg.epsilon is None:
        assert rep.histogram is None
    else:
        assert np.array_equal(rep.histogram, sum(reference[1][lo:hi]))


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
    def _reference(cfg):
        bins = range(1, (cfg.period + 1) // 2 + 1)
        return _chunk_reference(cfg, _packed_pn, _Plan(cfg).weights, bins)

    @pytest.mark.parametrize("p, trials", [
        (2, 513), (3, 300), (4, 257), (5, 300), (6, 300), (8, 600), (33, 300), (64, 3 * 256 + 17),
        (4096, 300),
        (64, 16 * 256 + 1),  # a stage of a whole run, then a 1-row last chunk
        (64, (2 * RUN + 3) * 256 + 17),  # several runs, a partial last run and chunk
    ])
    @pytest.mark.parametrize("dist", [UNIFORM, SamplingDistribution.two_point(0.0), TABLE],
                             ids=lambda d: d.label)
    def test_engine_rows_equal_the_allocating_path(self, p, trials, dist):
        cfg = self._config(dist, p, trials)
        reference, count = self._reference(cfg), len(chunk_sizes(trials))
        for threads in (1, 2, 4):
            _assert_chunk_bits(cfg, reference, threads=threads)
        _assert_chunk_bits(cfg, reference, chunk_range=(1, count))
        inner = range(count // 3, count - 1)  # for several runs, both ends inside a run
        _assert_chunk_bits(cfg, reference, chunk_range=(inner[0], inner[-1] + 1), threads=2)

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
                                                     threads, exceeded, monkeypatch):
        # counts recorded from the allocating pipeline for these seeds
        if threads is not None:
            monkeypatch.setenv("ANTICIP_THREADS", str(threads))
        assert tail_exceedance(dist, p, N, delta, trials, seed) == exceeded / trials

    @pytest.mark.parametrize("p", [8, 9, 4096])
    def test_chunks_reuse_their_thread_buffers(self, p):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=3 * 256, seed=0, period=p, n_list=(1,), r_list=(1.0,),
                               epsilon=0.3)
        plan, rows = _Plan(cfg), _block_rows(24 * p)
        assert plan.rows == rows
        stages = plan.stages

        def run(c):  # per stage: its rows, the block, and a copy of its rows taken before the next stage
            return [(lo, hi, stats, stats[:, lo:hi].copy()) for stats, lo, hi in stages([(c, 256)])]

        first, second = run(0), run(1)
        assert [(lo, hi) for lo, hi, *_ in first] == [(i, i + rows) for i in range(0, 256, rows)]
        block = first[0][2]
        assert all(stats is block for _, _, stats, _ in first)  # a run's stages share one block
        assert not np.shares_memory(second[0][2], block)  # no two runs share memory
        for lo, hi, _, rows0 in first:  # the second run left the first's rows alone
            assert np.array_equal(rows0, block[:, lo:hi])
        other = []
        worker = threading.Thread(target=lambda: other.extend(run(0)))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert not np.shares_memory(other[-1][2], block)
        for mine, theirs in zip(first, other, strict=True):  # another thread, its own buffers, the same bits
            assert np.array_equal(mine[3].view(np.uint64), theirs[3].view(np.uint64))

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

    @pytest.mark.parametrize("p", [1024, 4095, 4096, 8192])
    @pytest.mark.parametrize("trials", [481, 777, 801, 808])  # last chunks of 225, 9, 33 and 40 rows
    def test_fft_blocks_equal_a_whole_chunk(self, p, trials):
        cfg = self._config(UNIFORM, p, trials)
        plan, rows = _Plan(cfg), _block_rows(24 * p)
        bins, weights, stages = plan.bins, plan.weights, plan.stages
        assert plan.W is None and plan.rows == rows
        for c, n in enumerate(chunk_sizes(trials)):
            # a stage is one block: 32 rows at p = 1024, 16 from p = 1366; no 1-row block,
            # whose moment numpy takes by dot, so 33 rows go as 16 + 12 + 5 at p = 4096
            starts = _block_starts(n, rows)
            assert [lo for _, lo, _ in stages([(c, n)])] == starts
            # the statistics of the blocks against the whole chunk's, but for the moment
            # dgemv's, taken over the blocks of the plan: a whole chunk's dgemv splits its
            # rows over OpenBLAS threads, and at 225 rows takes its last row apart
            got = engine_rows(cfg, [(c, n)])
            whole = self._whole_chunk(cfg.dist, p, stream(cfg.seed, c), n)
            want = _blocked_moments(cfg, trial_stats(cfg, *whole, weights, bins), whole[2], weights, rows)
            for key, row in want.items():
                assert np.array_equal(got[key].view(np.uint64), np.asarray(row, float).view(np.uint64)), (c, key)
        _assert_chunk_bits(cfg, _chunk_reference(cfg, _packed_pn, weights, bins, rows))

    @pytest.mark.parametrize("p, rows", [
        (4096, 16), (65536, 16), (170, 256), (171, 128), (341, 128), (342, 64), (682, 64), (683, 32),
        (1365, 32), (1366, 16), (2731, 16), (8, 256),
    ])
    def test_fft_buffers_are_bounded_in_p(self, p, rows):
        cfg = MonteCarloConfig(dist=UNIFORM, trials=3 * 256, seed=0, period=p, r_list=(1.0,))
        [*_Plan(replace(cfg, trials=1)).stages([(0, 1)])]  # FFT plans and twiddles, untraced
        plan = _Plan(cfg)
        assert plan.rows == rows and (plan.stage == rows or rows == 256)  # whole chunks only at 256 rows
        stages = plan.stages
        tracemalloc.start()
        try:
            run = stages([(0, 256)])
            _, lo, hi = next(run)  # the first stage only: no 256-row chunk at p = 65536
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        run.close()
        assert (lo, hi) == (0, rows)  # one FFT block, the stage where blocks are cut below a chunk
        assert held <= max(1 << 20, 24 * p * 16) + (64 << 10)  # y, z and the stage's p_n: 20 B a component

    @pytest.mark.parametrize("p, stats, rows", [
        (64, {"n_list": (1, 32), "N_list": (0, 4), "epsilon": 0.1}, 256), (416, {"N_list": (32,)}, 256),
        (417, {"N_list": (32,)}, 128), (512, {"N_list": (0,)}, 256), (513, {"N_list": (0,)}, 128),
        (2048, {"N_list": (32,)}, 32), (4096, {"N_list": (0,)}, 32), (4096, {"n_list": (1,)}, 16),
        (65536, {"n_list": (1,), "epsilon": 0.1}, 16),
    ])
    def test_few_bin_buffers_are_bounded_in_p(self, p, stats, rows):
        # the matrix path blocks by the FFT's rule, at 8 bytes per component and 24 per bin
        cfg = MonteCarloConfig(dist=UNIFORM, trials=3 * 256, seed=0, period=p, **stats)
        [*_Plan(replace(cfg, trials=1)).stages([(0, 1)])]  # first calls, untraced
        plan = _Plan(cfg)  # W is the plan's, made here, untraced
        stages, K = plan.stages, len(plan.bins)
        assert plan.W is not None and plan.rows == rows and plan.stage == (rows if rows < 256 else 16 * 256)
        tracemalloc.start()
        try:
            run = stages([(0, 256)])
            _, lo, hi = next(run)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        run.close()
        assert (lo, hi) == (0, rows) and rows == _block_rows(8 * p + 24 * K)
        mask = p * rows if cfg.epsilon is not None else 0  # the near-zero count's, one block's rows
        assert held <= max(1 << 20, (8 * p + 24 * K) * 16) + mask + (64 << 10)

    @pytest.mark.parametrize("path", ["fft", "matrix"])
    def test_blocks_at_the_floor_keep_the_short_tail_rule(self, path):
        # p = 4096 blocks by 16 rows on both paths. Chunks of 1 (mod 16) rows would end in a
        # 1-row block; that block starts 4 rows early, so blocks start at multiples of 4 and
        # the last holds 5 rows, inside the 16-row buffer (a 4-row floor would overflow it).
        # The reference is the whole chunk, but for the moment dgemv's, taken over the
        # 32-row blocks the FFT had before: a whole chunk's dgemv splits its rows over
        # OpenBLAS threads, off the groups of 4 at 225 rows on two threads
        p = 4096
        if path == "fft":
            cfg = self._config(UNIFORM, p, 256)
        else:
            cfg = MonteCarloConfig(dist=UNIFORM, trials=256, seed=11, period=p, n_list=(1, 2048),
                                   N_list=(0, 4), epsilon=0.3)
        plan = _Plan(cfg)
        bins, W, weights, stages = plan.bins, plan.W, plan.weights, plan.stages
        row_bytes = 24 * p if path == "fft" else 8 * p + 24 * len(bins)
        assert (W is None) == (path == "fft") and _block_rows(row_bytes) == 16 == plan.rows == plan.stage
        for n in sorted({*range(1, 257, 16), 5, 17}):
            spans = [(lo, hi) for _, lo, hi in stages([(0, n)])]
            assert [lo for lo, _ in spans] == _block_starts(n, 16)
            assert all(lo % 4 == 0 and 1 < hi - lo <= 16 or n == 1 for lo, hi in spans), n
            assert [hi for _, hi in spans] == [lo for lo, _ in spans[1:]] + [n]
            got = engine_rows(cfg, [(0, n)])
            if W is None:
                whole = self._whole_chunk(cfg.dist, p, stream(cfg.seed, 0), n)
            else:
                y = cfg.dist.sample(stream(cfg.seed, 0), (n, p))
                whole = y, (y * y).mean(axis=1), _blocked_gemm_pn(W, 16)(y)
            want = _blocked_moments(cfg, trial_stats(cfg, *whole, weights, bins), whole[2], weights, 32)
            for key, row in want.items():
                assert np.array_equal(got[key].view(np.uint64), np.asarray(row, float).view(np.uint64)), (n, key)

    def test_threads_keep_the_bits_under_frequent_switches(self):
        # more workers than cores, switching every microsecond: a buffer shared
        # between threads would mix one chunk's draws into another's statistics
        cfg = self._config(UNIFORM, 64, 40 * 256 + 3)
        base = run_monte_carlo(cfg, threads=1)
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
    continuous run, take p_n from one product y @ W per block with the phase
    matrix of the half bins they read."""

    TABLE = SamplingDistribution.table([-0.5, 0.0, 0.8], [0.3, 0.4, 0.3])

    @staticmethod
    def _reference(cfg):
        """The `_chunk_reference` with p_n from an allocating y @ W, W the phase matrix
        of period `size`, on the line too, whose rows take `_folded_line_weights`."""
        plan = _Plan(cfg)
        bins = plan.bins
        W, K = half_step_phase_matrix(cfg.size, bins), len(bins)
        weights = plan.weights if cfg.mode == "periodic" else _folded_line_weights(cfg, bins)
        return _chunk_reference(cfg, _blocked_gemm_pn(W, _block_rows(8 * cfg.size + 24 * K)), weights, bins)

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
        # a run of 16 chunks as one stage, then a 1-row last chunk, on a period and on the line
        (UNIFORM, 64, 16 * 256 + 1, (1, 32), (0, 4), 0.1, (), False),
        (UNIFORM, 24, 16 * 256 + 1, (1, -5), (0, 3, 12, 1000), None, (), True),
        # y @ W in blocks below a chunk: 64 rows at p = 1024, K = 6; 16 on a line of 4,096
        # cells, whose p_N dgemv's go per block too
        (UNIFORM, 1024, 3 * 256 + 17, (1, 7), (0, 5), 0.1, (), False),
        (TABLE, 4096, 3 * 256 + 17, (0, 1, -5), (0, 12), None, (), True),
    ])
    def test_engine_rows_equal_a_matrix_fold(self, dist, size, trials, n_list, N_list, epsilon,
                                             r_list, line):
        cfg = MonteCarloConfig(dist=dist, trials=trials, seed=size + 3, n_list=n_list,
                               N_list=N_list, r_list=r_list, epsilon=epsilon,
                               **{"cells" if line else "period": size})
        assert _Plan(cfg).W is not None
        reference, count = self._reference(cfg), len(chunk_sizes(trials))
        for threads in (1, 2, 4):
            _assert_chunk_bits(cfg, reference, threads=threads)
        _assert_chunk_bits(cfg, reference, chunk_range=(0, 1))
        _assert_chunk_bits(cfg, reference, chunk_range=(1, count), threads=2)
        inner = range(count // 3, count - 1)  # for several runs, both ends inside a run
        for threads in (1, 4):
            _assert_chunk_bits(cfg, reference, chunk_range=(inner[0], inner[-1] + 1), threads=threads)

    @pytest.mark.parametrize("trials, n_list, N_list, seed", [(808, (1,), (), 3), (552, (1, 3), (0, 2), 4)])
    def test_few_bin_commands_take_one_gemm_per_block(self, trials, n_list, N_list, seed):
        # `sample --period 4096 --trials 808 --n 1 --seed 3` and `--trials 552 --n 1,3
        # --N 0,2 --seed 4`: 8- and 16-row products of these take OpenBLAS's small-matrix
        # dgemm, which rounds otherwise than one 256-row product per chunk
        cfg = MonteCarloConfig(dist=UNIFORM, trials=trials, seed=seed, period=4096,
                               n_list=n_list, N_list=N_list)
        # 8*p + 24*K bytes a row pass 1 MiB at 32 rows: each stage is one 16-row block
        plan = _Plan(cfg)
        assert [(lo, hi) for _, lo, hi in plan.stages([(0, 256), (1, 256)])] == \
            [(lo, lo + 16) for lo in range(0, 512, 16)]
        assert plan.rows == plan.stage == 16
        reference = self._reference(cfg)
        for threads in (1, 2):
            _assert_chunk_bits(cfg, reference, threads=threads)
        # against one 256-row product per chunk, the rows' means and variances move by rounding only
        whole = _chunk_reference(cfg, _blocked_gemm_pn(plan.W, 256), plan.weights, plan.bins)[0]
        for row in run_monte_carlo(cfg).rows:
            total = MomentAccumulator()
            for chunk in whole:
                total = merge_accumulators(total, chunk[row.key])
            assert row.acc.mean == pytest.approx(total.mean, rel=1e-14, abs=0), row.key
            assert row.acc.variance == pytest.approx(total.variance, rel=1e-14, abs=0), row.key

    @pytest.mark.parametrize("p", [513, 1024, 4095, 4096, 16384])
    def test_blocked_rows_match_exact_sum(self, p):
        # p_n of each trial from y @ W in blocks of 128, 64 or 16 rows, against the O(p^2)
        # direct sum of the same draws, 1e-15 apart, at K = 1, 5 and 32 half bins; the trials
        # on each side of the first cut, and the last, of a chunk with a short last block
        rows = _block_rows(8 * p + 24)
        trials, exact = rows + 9, {}
        y = UNIFORM.sample(stream(p, 0), (trials, p))
        for t in (rows - 1, rows, trials - 1):
            exact[t] = np.abs(amplitudes_periodic(SpectralDifferencePeriodic(y[t]), "exact-sum").values) ** 2
        for K in (1, 5, 32):
            n_list = tuple(int(n) for n in np.linspace(1, (p + 1) // 2, K))
            cfg = MonteCarloConfig(dist=UNIFORM, trials=trials, seed=p, period=p, n_list=n_list)
            plan = _Plan(cfg)
            assert plan.W is not None and len(plan.bins) == K and _block_rows(8 * p + 24 * K) == rows < 256
            assert [lo for _, lo, _ in plan.stages([(0, trials)])] == [0, rows] and plan.rows == rows
            got = engine_rows(cfg)
            for t, pn in exact.items():
                for n in n_list:
                    assert abs(got[("p_n", float(n))][t] - pn[n - 1]) <= 1e-15, (K, t, n)

    def test_bins_follow_the_statistics(self):
        def bins(n_list=(), N_list=(), r_list=(), **size):
            cfg = MonteCarloConfig(dist=UNIFORM, trials=1, seed=0, n_list=n_list, N_list=N_list,
                                   r_list=r_list, **size)
            plan = _Plan(cfg)
            bins, W = plan.bins, plan.W
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
            plan = _Plan(MonteCarloConfig(dist=UNIFORM, trials=300, seed=0, cells=cells,
                                          n_list=n_list, N_list=N_list, r_list=r_list))
            bins, W = plan.bins, plan.W
            if W is None:
                assert r_list or min(max(N_list, default=0), (cells + 1) // 2) > 32
                assert bins == range(1, (cells + 1) // 2 + 1)
                continue
            assert W == ("W", cells, bins)
            assert len(bins) <= min(32, (cells + 1) // 2)
            assert set(bins) <= set(range(1, (cells + 1) // 2 + 1))
            if max(N_list, default=0) < cells / 2:  # the period-M run of the same rows reads them too
                assert bins == _Plan(MonteCarloConfig(
                    dist=UNIFORM, trials=300, seed=0, period=cells, N_list=N_list,
                    n_list=tuple((n - 1) % cells + 1 for n in n_list))).bins

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
