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
    cumulative_probability,
    half_step_amplitudes,
    probabilities,
    spectral_difference_from_measure,
    stream,
    truncation_window,
)
from anticip.sampling import _chunks, _rows, _spectrum_bins, _trial_stats
from anticip.spectral import folded_index, line_factor

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
        # in Python integers and each part summed exactly by math.fsum
        rng = np.random.default_rng(3)
        for p in range(2, 34):
            y = [float(v) for v in rng.uniform(-1, 1, p)]
            exact = amplitudes_periodic(SpectralDifferencePeriodic(y), "exact-sum").values
            for n in range(1, p + 1):
                angles = [math.pi * ((2 * n - 1) * k % (2 * p)) / p for k in range(p)]
                re = math.fsum(v * math.cos(a) for v, a in zip(y, angles)) / p
                im = -math.fsum(v * math.sin(a) for v, a in zip(y, angles)) / p
                assert abs(exact[n - 1] - complex(re, im)) <= 1e-15, (p, n)

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            amplitudes_periodic(SpectralDifferencePeriodic([1.0, 0.0]), "magic")

    @staticmethod
    def _packed_formula(y):
        # the packing as first written: y_hi * -1j + y_lo, twiddled, one
        # allocating FFT, then the conjugate mirror into the spent input; odd p
        # by Z_2p = Z_2 x Z_p, alpha_n = conj(A[(p+1)/2-n]) with A the length-p
        # real FFT of (-1)^k y_k / p
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

    @pytest.mark.parametrize("p", [*range(2, 19), 33, 64, 4095, 4096])
    def test_half_step_bits_match_the_packed_formula(self, p):
        rng = np.random.default_rng(p)
        y = rng.uniform(-1, 1, (5, p))
        y[0] = 0.0
        y[1] = -0.0
        y[2, ::2] = -0.0  # signed zeros among nonzero components
        y[3, 1::3] = 0.0
        before = y.copy()
        for rows in (y, y[4]):  # batched and one 1-d row
            got = half_step_amplitudes(rows)
            assert np.array_equal(y.view(np.uint64), before.view(np.uint64))  # odd p flips a copy
            assert got.shape == rows.shape[:-1] + ((p + 1) // 2,)
            assert np.array_equal(got.view(np.uint64), self._packed_formula(rows).view(np.uint64))

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
        idx = {int(n): v for n, v in zip(pr.indices, pr.values)}
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


class TestCumulative:
    def test_full_window_is_total(self):
        rng = np.random.default_rng(6)
        sd = SpectralDifferencePeriodic(rng.uniform(-1, 1, 10))
        pr = probabilities(amplitudes_periodic(sd))
        assert cumulative_probability(pr, 0) == pr.p_tot

    def test_p4_constant_tail(self):
        pr = probabilities(amplitudes_periodic(SpectralDifferencePeriodic(np.ones(4))))
        assert cumulative_probability(pr, 1) == pytest.approx(0.14644660940672619, abs=1e-14)

    def test_nonincreasing(self):
        rng = np.random.default_rng(7)
        sd = SpectralDifferencePeriodic(rng.uniform(-1, 1, 32))
        pr = probabilities(amplitudes_periodic(sd))
        tails = [cumulative_probability(pr, N) for N in range(16)]
        assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))

    def test_domain_error(self):
        pr = probabilities(amplitudes_periodic(SpectralDifferencePeriodic(np.ones(4))))
        with pytest.raises(ValueError):
            cumulative_probability(pr, 2)

    def test_continuous_window_tail(self):
        # the mass outside n = 1-N..N, the engine's p_N: p_{-N} is in the tail
        sd = SpectralDifferenceContinuous(SamplingDistribution.uniform().sample(stream(3, 0), 32))
        amps = amplitudes_continuous(sd, -200, 201)
        pr = probabilities(amps)
        for N in (0, 2, 4, 200):
            expect = sum(abs(v) ** 2 for n, v in zip(pr.indices, amps.values) if not 1 - N <= n <= N)
            assert cumulative_probability(pr, N) == pytest.approx(expect, rel=1e-12)
        # |n| > N would leave out p_{-4} = 0.0015611 and give 0.2999869
        assert cumulative_probability(pr, 4) == pytest.approx(0.3015480, abs=1e-7)
        assert cumulative_probability(pr, 0) == pr.p_tot
        assert cumulative_probability(pr, 201) == 0.0


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
        bins, W = _spectrum_bins(cfg)  # a moment: the FFT, W None
        chunk = _chunks(cfg.dist, p, cfg.trials, W)
        [(_, *drawn)] = chunk(stream(cfg.seed, 0), cfg.trials)  # 5 rows: one block
        stats = _trial_stats(cfg, *drawn, _rows(cfg, bins)[0], bins)
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
            val = float(folded_index(pr.indices, p) @ pr.values)
            residuals.append(val - (2 / PI**2) * np.log(p))
        assert max(residuals) - min(residuals) < 0.05
        assert all(abs(r) < 1.0 for r in residuals)


class TestFromMeasure:
    def test_two_point_measure(self):
        m = DiscreteMeasure([0.0, PI], [0.5, 0.5])
        sd = spectral_difference_from_measure(m, 2)
        assert sd.values == pytest.approx([1.0, 1.0])

    def test_split_shift_measure(self):
        m = DiscreteMeasure([0.0, PI, 2 * PI], [0.25, 0.5, 0.25])
        sd = spectral_difference_from_measure(m, 2)
        assert sd.values == pytest.approx([0.0, 1.0])

    def test_odd_shift_measure(self):
        m = DiscreteMeasure([0.0, 3 * PI], [0.5, 0.5])
        sd = spectral_difference_from_measure(m, 2)
        assert sd.values == pytest.approx([1.0, -1.0])

    def test_non_uniform_reduction_rejected(self):
        m = DiscreteMeasure([0.0, PI], [0.75, 0.25])
        with pytest.raises(OrthogonalityError, match="residue class"):
            spectral_difference_from_measure(m, 2)

    def test_off_grid_rejected(self):
        m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
        with pytest.raises(OrthogonalityError, match="grid"):
            spectral_difference_from_measure(m, 2)
