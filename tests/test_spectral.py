"""Spectral differences, half-step amplitudes and derived probabilities."""

import math
import tracemalloc

import numpy as np
import pytest

from anticip import (
    DiscreteMeasure,
    MonteCarloConfig,
    OrthogonalityError,
    SamplingDistribution,
    SpectralDifferenceContinuous,
    SpectralDifferencePeriodic,
    amplitudes_continuous,
    amplitudes_periodic,
    probabilities,
    run_monte_carlo,
    stream,
    truncation_window,
)
from anticip import spectral
from anticip.bounds import grid_residues
from anticip.spectral import folded_index, line_factor
from packed_reference import engine_rows, packed_formula

PI = np.pi


class TestTypes:
    def test_periodic_requires_unit_band(self):
        with pytest.raises(ValueError):
            SpectralDifferencePeriodic([1.5, 0.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_components_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            SpectralDifferencePeriodic([bad, 0.0])
        with pytest.raises(ValueError, match="finite"):
            SpectralDifferenceContinuous([0.0, bad])

    def test_periodic_requires_period_two(self):
        with pytest.raises(ValueError):
            SpectralDifferencePeriodic([1.0])

    def test_continuous_requires_two_cells(self):
        with pytest.raises(ValueError):
            SpectralDifferenceContinuous([0.5])

    def test_values_frozen(self):
        sd = SpectralDifferencePeriodic([0.5, -0.5])
        with pytest.raises(ValueError):
            sd.values[0] = 0.0


class TestAmplitudesPeriodic:
    def test_p2_constant(self):
        amps = amplitudes_periodic(SpectralDifferencePeriodic([1.0, 1.0]))
        alpha_0 = complex(amps.values[(0 - 1) % 2])  # alpha_0 = alpha_2
        assert alpha_0 == pytest.approx((1 + 1j) / 2, abs=1e-15)
        assert abs(alpha_0) ** 2 == pytest.approx(0.5, abs=1e-15)

    def test_zero_difference_vanishes(self):
        amps = amplitudes_periodic(SpectralDifferencePeriodic(np.zeros(8)))
        assert np.all(amps.values == 0)

    def test_p4_constant_values(self):
        pr = probabilities(amplitudes_periodic(SpectralDifferencePeriodic(np.ones(4))))
        expected = [0.426777, 0.073223, 0.073223, 0.426777]
        assert pr.values == pytest.approx(expected, abs=5e-7)
        assert pr.p_tot == pytest.approx(1.0, abs=1e-12)

    def test_modes_agree_to_rounding(self):
        rng = np.random.default_rng(1)
        for p in (2, 3, 5, 33, 64, 255, 4095, 2**14):
            sd = SpectralDifferencePeriodic(rng.uniform(-1, 1, p))
            fast = amplitudes_periodic(sd, "fast-transform")
            exact = amplitudes_periodic(sd, "exact-sum")
            assert np.max(np.abs(fast.values - exact.values)) <= 1e-15, p
            assert np.max(np.abs(probabilities(fast).values - probabilities(exact).values)) <= 1e-15, p

    def test_exact_sum_matches_reduced_angle_fsum(self):
        # alpha_n = p^-1 sum_k yhat_k exp(-i*pi*j/p), j = (2n-1)k mod 2p reduced
        # in Python integers and each part summed exactly by math.fsum; every
        # row up to p = 33, and at p = 64..1025 the rows beside the middle
        # (where k = p/2 pairs with itself at even p) and the ends, plus 4 more
        rng = np.random.default_rng(3)
        for p in [*range(2, 34), 64, 65, 1024, 1025]:
            y = [float(v) for v in rng.uniform(-1, 1, p)]
            exact = amplitudes_periodic(SpectralDifferencePeriodic(y), "exact-sum").values
            rows = range(1, p + 1) if p < 34 else {
                1, 2, p // 2, p // 2 + 1, p - 1, p, *(int(n) for n in rng.integers(1, p + 1, 4))}
            for n in rows:
                angles = [math.pi * ((2 * n - 1) * k % (2 * p)) / p for k in range(p)]
                re = math.fsum(v * math.cos(a) for v, a in zip(y, angles)) / p
                im = -math.fsum(v * math.sin(a) for v, a in zip(y, angles)) / p
                assert abs(exact[n - 1] - complex(re, im)) <= 1e-15, (p, n)

    @pytest.mark.parametrize("p", [2, 3, 8, 9])
    def test_exact_sum_calls_no_transform(self, monkeypatch, p):
        sd = SpectralDifferencePeriodic(np.random.default_rng(p).uniform(-1, 1, p))
        before = amplitudes_periodic(sd, "exact-sum").values

        def refuse(*args, **kwargs):
            raise AssertionError("the exact-sum oracle called a transform")

        monkeypatch.setattr(np.fft, "fft", refuse)
        monkeypatch.setattr(np.fft, "rfft", refuse)
        monkeypatch.setattr(spectral, "half_step_bins", refuse)
        with pytest.raises(AssertionError):  # the patches reach the fast transform
            amplitudes_periodic(sd, "fast-transform")
        assert np.array_equal(amplitudes_periodic(sd, "exact-sum").values, before)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            amplitudes_periodic(SpectralDifferencePeriodic([1.0, 0.0]), "magic")

    @pytest.mark.parametrize("p", [*range(2, 19), 33, 64, 4095, 4096])
    def test_half_step_bits_match_the_packed_formula(self, p):
        # all p amplitudes: the packed formula's ceil(p/2) and their conjugate mirror
        rng = np.random.default_rng(p)
        y = rng.uniform(-1, 1, (5, p))
        y[0] = 0.0
        y[1] = -0.0
        y[2, ::2] = -0.0  # signed zeros among nonzero components
        y[3, 1::3] = 0.0
        before = y.copy()
        for row in y:
            sd = SpectralDifferencePeriodic(row)
            got = amplitudes_periodic(sd).values
            assert np.array_equal(sd.values.view(np.uint64), row.view(np.uint64))  # odd p flips a copy
            half = packed_formula(row)
            want = np.concatenate([half, half[: p // 2][::-1].conj()])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        assert np.array_equal(y.view(np.uint64), before.view(np.uint64))

    def test_periodicity_exact(self):
        rng = np.random.default_rng(2)
        sd = SpectralDifferencePeriodic(rng.uniform(-1, 1, 12))
        amps = amplitudes_periodic(sd)
        k = np.arange(12)
        for n in (1, 5, 12):
            # alpha_{n+-p} sits at the offset of alpha_n, as the definition gives it
            for m in (n + 12, n - 12):
                direct = np.exp(-2j * PI * (m - 0.5) * k / 12) @ sd.values / 12
                assert amps.values[(m - 1) % 12] == amps.values[n - 1]
                assert amps.values[(m - 1) % 12] == pytest.approx(direct, abs=1e-14)


class TestAmplitudesContinuous:
    def test_constant_first_index(self):
        amps = amplitudes_continuous(SpectralDifferenceContinuous([1.0, 1.0]), 1, 1)
        assert amps.values[0] == pytest.approx(-2j / PI, abs=1e-14)
        assert abs(amps.values[0]) ** 2 == pytest.approx(4 / PI**2, abs=1e-14)

    def test_constant_second_index(self):
        amps = amplitudes_continuous(SpectralDifferenceContinuous([1.0, 1.0]), 2, 2)
        assert abs(amps.values[0]) ** 2 == pytest.approx(1 / (PI * 1.5) ** 2, abs=1e-14)

    def test_alternating_m4(self):
        sd = SpectralDifferenceContinuous([1.0, -1.0, 1.0, -1.0])
        amps = amplitudes_continuous(sd, 2, 2)
        assert abs(amps.values[0]) ** 2 == pytest.approx(
            (np.tan(3 * PI / 8) / (1.5 * PI)) ** 2, abs=1e-14
        )

    def test_bad_range(self):
        with pytest.raises(ValueError):
            amplitudes_continuous(SpectralDifferenceContinuous([1.0, 0.0]), 3, 1)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        sd = SpectralDifferenceContinuous(rng.uniform(-1, 1, 6))
        pr = probabilities(amplitudes_continuous(sd, -8, 9))
        idx = {int(n): v for n, v in zip(np.arange(-8, 10), pr.values)}
        for n in range(-7, 9):
            assert idx[n] == pytest.approx(idx[1 - n], abs=1e-12)

    @pytest.mark.parametrize("cells", [2, 3, 8, 64, 4096])
    def test_line_factor_is_the_shifted_sinc(self, cells):
        # sinc(pi*w/M) * exp(-i*pi*w/M), w = n - 1/2, by numpy's sinc and exp for
        # |w/M| <= 1/2, where their arguments stay small
        n = np.arange(1 - cells // 2, cells // 2 + 1)
        w = (n - 0.5) / cells
        direct = np.sinc(w) * np.exp(-1j * np.pi * w)
        assert np.max(np.abs(line_factor(cells, n) - direct) / np.abs(direct)) <= 2e-15
        # (n - 1/2) times the factor is M sin(x) exp(-i*x) / pi, x = pi*w/M, of period
        # M in n; relative digits hold where sin(x) is small, next to x = 0 and pi
        n = np.arange(-2 * cells, 2 * cells + 1)
        numer = (n - 0.5) * line_factor(cells, n)
        for k in (1, 3, 10**6):
            shifted = (n + k * cells - 0.5) * line_factor(cells, n + k * cells)
            assert np.max(np.abs(shifted - numer) / np.abs(numer)) <= 2e-15, k
        mirror = np.conj(line_factor(cells, 1 - n))  # w -> -w conjugates the factor
        assert np.max(np.abs(mirror - line_factor(cells, n)) / np.abs(mirror)) <= 2e-15

    def test_line_amplitudes_stay_small_over_a_long_window(self):
        # 4,096 cells over the default window of a unit difference, n = 1..202,643: a few
        # window-length vectors, where a cells x window table would take 13 GB
        sd = SpectralDifferenceContinuous(np.where(np.arange(4096) % 2, -1.0, 1.0))
        tracemalloc.start()
        try:
            amps = amplitudes_continuous(sd, 1, 202_643)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert amps.values.size == 202_643
        assert peak < 32 << 20


class TestParseval:
    def test_periodic_identity(self):
        rng = np.random.default_rng(4)
        for p in (2, 7, 64, 513):
            sd = SpectralDifferencePeriodic(rng.uniform(-1, 1, p))
            pr = probabilities(amplitudes_periodic(sd))
            assert pr.p_tot == pytest.approx(float(np.mean(sd.values**2)), rel=1e-12)

    def test_continuous_truncation_with_tail_bound(self):
        # constant difference: the default-window tail estimate is tight
        sd = SpectralDifferenceContinuous([0.8, 0.8])
        n_max = truncation_window(sd)
        pr = probabilities(amplitudes_continuous(sd, 1 - n_max, n_max))
        gap = float(np.mean(sd.values**2)) - pr.p_tot
        assert -1e-12 <= gap <= 1e-6

    def test_continuous_convergence_generic(self):
        rng = np.random.default_rng(5)
        sd = SpectralDifferenceContinuous(rng.uniform(-1, 1, 8))
        total = float(np.mean(sd.values**2))
        gaps = []
        for half in (64, 256, 1024):
            pr = probabilities(amplitudes_continuous(sd, 1 - half, half))
            gaps.append(total - pr.p_tot)
        assert all(g >= -1e-12 for g in gaps)
        assert gaps[2] < gaps[1] < gaps[0]


def _chunk_stats(cfg):
    """Per-trial statistics of the engine's first chunk, for trials that fit one chunk."""
    return engine_rows(cfg)


class TestCumulative:
    """p_N, the mass outside n = 1-N..N, as the engine computes it per trial."""

    def test_full_window_is_total(self):
        cfg = MonteCarloConfig(dist=SamplingDistribution.uniform(), trials=5, seed=6, period=10,
                               N_list=(0,))
        stats = _chunk_stats(cfg)
        assert np.array_equal(stats[("p_N", 0.0)], stats[("p_tot", None)])

    def test_p4_constant_tail(self):
        # a one-atom table law draws yhat = (1, 1, 1, 1) in every trial: p_1 = p_4 =
        # (2 + sqrt 2)/8, so p_N at N = 1 is p_2 + p_3 = (2 - sqrt 2)/4
        law = SamplingDistribution.table([1.0], [1.0])
        rep = run_monte_carlo(MonteCarloConfig(dist=law, trials=3, seed=0, period=4, N_list=(1,)))
        assert rep.row("p_N", 1.0).acc.mean == pytest.approx(0.14644660940672619, abs=1e-14)

    def test_nonincreasing(self):
        cfg = MonteCarloConfig(dist=SamplingDistribution.uniform(), trials=5, seed=7, period=32,
                               N_list=tuple(range(16)))
        stats = _chunk_stats(cfg)
        for a, b in zip(cfg.N_list, cfg.N_list[1:]):
            assert np.all(stats[("p_N", float(b))] <= stats[("p_N", float(a))] + 1e-15)

    def test_domain_error(self):
        with pytest.raises(ValueError, match="outside"):
            MonteCarloConfig(dist=SamplingDistribution.uniform(), trials=5, seed=0, period=4,
                             N_list=(2,))

    def test_continuous_window_tail(self):
        # on the line the window is n = 1-N..N, so p_{-N} is in the tail: raising
        # N by one moves p_{-N} and p_{N+1} from the tail into the window
        cfg = MonteCarloConfig(dist=SamplingDistribution.uniform(), trials=1, seed=3, cells=32,
                               N_list=(0, 1, 2, 3, 4, 5))
        stats = _chunk_stats(cfg)
        tails = [stats[("p_N", float(N))][0] for N in cfg.N_list]
        assert tails[0] == stats[("p_tot", None)][0]
        sd = SpectralDifferenceContinuous(cfg.dist.sample(stream(cfg.seed, 0), 32))
        pn = dict(zip(range(-5, 7), probabilities(amplitudes_continuous(sd, -5, 6)).values))
        for N in cfg.N_list[:-1]:
            assert tails[N] - tails[N + 1] == pytest.approx(pn[-N] + pn[N + 1], abs=1e-15)
        assert pn[-4] == pytest.approx(0.0015611, abs=1e-7)  # |n| > N would leave it out


class TestTilde:
    def test_examples(self):
        assert int(folded_index(5, 8)) == 4
        assert int(folded_index(3, 8)) == 3
        assert int(folded_index(-7, 64)) == 7  # |n| below half a period

    def test_range(self):
        for p in (2, 3, 8, 11):
            folded = [int(folded_index(n, p)) for n in range(-2 * p, 2 * p + 1)]
            assert min(folded) == 0
            assert max(folded) <= (p + 1) // 2 + (p % 2 == 0)
            assert max(folded) == -(-p // 2)  # ceil(p/2)


class TestMomentObservable:
    """The engine's per-trial folded moment sum_n tilde(n)^r p_n, from the FFT
    chunk, against the same sum of exact-sum probabilities."""

    R_LIST = (0.0, 1.0, 2.5)

    @classmethod
    def _moments(cls, p):
        cfg = MonteCarloConfig(dist=SamplingDistribution.uniform(), trials=5, seed=p, period=p,
                               r_list=cls.R_LIST)
        y = cfg.dist.sample(stream(cfg.seed, 0), (cfg.trials, p))
        exact = np.array([probabilities(amplitudes_periodic(SpectralDifferencePeriodic(row),
                                                            "exact-sum")).values for row in y])
        stats = _chunk_stats(cfg)  # a moment: the FFT
        return {r: stats[("moment", r)] for r in cls.R_LIST}, exact, stats[("p_tot", None)]

    def test_r0_is_total(self):
        for p in (8, 9):
            moments, _, ptot = self._moments(p)
            assert np.max(np.abs(moments[0.0] - ptot)) <= 1e-15, p

    def test_periodic_fold_matches_per_element_tilde(self):
        for p in (8, 9):
            moments, exact, _ = self._moments(p)
            folded = folded_index(np.arange(1, p + 1), p).astype(float)
            assert np.array_equal(folded, [int(folded_index(n, p)) for n in range(1, p + 1)])
            for r in self.R_LIST:
                assert np.max(np.abs(moments[r] - exact @ folded**r)) <= 1e-14, (p, r)

    def test_log_growth_constant_model(self):
        # <tilde n> grows like (2/pi^2) ln p for the constant difference;
        # the centered residual is flat across doublings
        residuals = []
        for k in range(6, 15):
            p = 2**k
            pr = probabilities(amplitudes_periodic(SpectralDifferencePeriodic(np.ones(p))))
            val = float(folded_index(np.arange(1, p + 1), p) @ pr.values)
            residuals.append(val - (2 / PI**2) * np.log(p))
        assert max(residuals) - min(residuals) < 0.05
        assert all(abs(r) < 1.0 for r in residuals)


class TestFromMeasure:
    def test_non_uniform_reduction_rejected(self):
        # on the grid, but residue class 0 of period 2 carries 0.75, not 1/2
        m = DiscreteMeasure([0.0, PI], [0.75, 0.25])
        with pytest.raises(OrthogonalityError, match="residue class"):
            grid_residues(m, 2)
