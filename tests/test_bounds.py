"""Measure-level moment, median and frequency-bound checks."""

import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from anticip import bounds
from anticip import (
    DiscreteMeasure,
    OrthogonalityError,
    SamplingDistribution,
    abs_moment,
    autocorrelation,
    build_orthogonal_measure,
    check_bounds,
    median_minimizer,
    spectral_difference_from_measure,
    stream,
)

PI = np.pi


def test_measure_validation():
    with pytest.raises(ValueError):
        DiscreteMeasure([1.0, 0.0], [0.5, 0.5])  # not ascending
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0, 1.0], [0.6, 0.6])  # mass 1.2
    with pytest.raises(ValueError):
        DiscreteMeasure([0.0, 1.0], [1.5, -0.5])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_measure_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure([0.0, 1.0], [bad, 1.0])
    with pytest.raises(ValueError, match="finite"):
        DiscreteMeasure([0.0, bad], [0.5, 0.5])


def test_abs_moment_examples():
    assert abs_moment(DiscreteMeasure([0.0], [1.0]), 0.0) == 0.0
    m = DiscreteMeasure([0.0, PI], [0.5, 0.5])
    assert abs_moment(m, PI / 2) == pytest.approx(PI / 2)


def test_abs_moment_zero_iff_point_mass_at_center():
    assert abs_moment(DiscreteMeasure([2.0], [1.0]), 2.0) == 0.0
    assert abs_moment(DiscreteMeasure([2.0], [1.0]), 1.5) > 0.0
    spread = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
    grid = np.linspace(-2, 3, 501)
    assert min(abs_moment(spread, g) for g in grid) > 0.0


def test_abs_moment_translation_invariance():
    rng = np.random.default_rng(0)
    pts = np.sort(rng.normal(size=6))
    wts = rng.random(6)
    wts /= wts.sum()
    m = DiscreteMeasure(pts, wts)
    shifted = DiscreteMeasure(pts + 2.5, wts)
    for lam in (-1.0, 0.3, 2.0):
        assert abs_moment(shifted, lam + 2.5) == pytest.approx(abs_moment(m, lam))


def test_median_examples():
    m = DiscreteMeasure([0.0, PI], [0.5, 0.5])
    lam, val = median_minimizer(m)
    assert lam == pytest.approx(PI / 2)
    assert val == pytest.approx(PI / 2)

    m4 = DiscreteMeasure([0.0, PI / 2, PI, 3 * PI / 2], [0.25] * 4)
    _, val4 = median_minimizer(m4)
    assert val4 == pytest.approx(PI / 2)

    lam1, val1 = median_minimizer(DiscreteMeasure([3.0], [1.0]))
    assert (lam1, val1) == (3.0, 0.0)


def test_median_is_grid_minimum():
    rng = np.random.default_rng(1)
    for _ in range(20):
        pts = np.sort(rng.uniform(-5, 5, 5))
        pts += np.arange(5) * 1e-6  # keep strictly ascending
        wts = rng.random(5)
        wts /= wts.sum()
        m = DiscreteMeasure(pts, wts)
        lam, val = median_minimizer(m)
        grid = np.linspace(pts[0] - 1, pts[-1] + 1, 2001)
        grid_vals = [abs_moment(m, g) for g in grid]
        assert val <= min(grid_vals) + 1e-9
        # convexity of the grid restriction
        second = np.diff(grid_vals, 2)
        assert second.min() >= -1e-9


def test_autocorrelation_examples():
    m = DiscreteMeasure([0.0, PI], [0.5, 0.5])
    assert autocorrelation(m, 0.0) == pytest.approx(1.0)
    assert autocorrelation(m, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert autocorrelation(m, 2.0) == pytest.approx(1.0)
    assert abs(autocorrelation(m, 0.37)) <= 1.0 + 1e-15


def test_check_bounds_p2_equality():
    m = DiscreteMeasure([0.0, PI], [0.5, 0.5])
    [rep] = check_bounds([m], 2)
    assert rep.min_abs_moment == pytest.approx(PI / 2, abs=1e-12)
    assert rep.corollary2_slack == pytest.approx(0.0, abs=1e-12)
    assert rep.passage_slack > 0
    assert rep.autocorr_slack_min >= -1e-9
    assert rep.orthogonality_dev <= 1e-12
    assert rep.ok
    _assert_reports_are_reference([m], 2)


def test_check_bounds_p4_equality():
    m = DiscreteMeasure([0.0, PI / 2, PI, 3 * PI / 2], [0.25] * 4)
    [rep] = check_bounds([m], 4)
    assert rep.corollary2_slack == pytest.approx(0.0, abs=1e-12)
    # with a measure on other points of period 4, m multiplies a column gather
    _assert_reports_are_reference([m, build_orthogonal_measure([0.5, -0.25, 1.0, -1.0])], 4)


def test_check_bounds_rejects_non_orthogonal():
    m = DiscreteMeasure([0.0, PI], [0.7, 0.3])
    with pytest.raises(OrthogonalityError):
        check_bounds([build_orthogonal_measure(np.ones(2)), m], 2)


def test_evenly_spread_slack_at_every_period():
    # the evenly spread measure meets the pi/2 floor exactly at even p, but at
    # odd p its minimum is (pi/2)(1 - 1/p^2), so Corollary 2's slack is negative
    for p in range(2, 10):
        [rep] = check_bounds([build_orthogonal_measure(np.ones(p))], p)
        expected = 0.0 if p % 2 == 0 else -PI / (2 * p * p)
        assert abs(rep.corollary2_slack - expected) <= 1e-12
        assert rep.ok == (p % 2 == 0)


def test_build_orthogonal_single_shift():
    m = build_orthogonal_measure(np.ones(2))
    assert m.points == pytest.approx([0.0, PI])
    assert m.weights == pytest.approx([0.5, 0.5])


def test_build_orthogonal_odd_shift_class():
    m = build_orthogonal_measure([1.0, -1.0])
    assert m.points == pytest.approx([0.0, 3 * PI])
    sd = spectral_difference_from_measure(m, 2)
    assert sd.values == pytest.approx([1.0, -1.0])


def test_build_orthogonal_autocorrelation_is_delta():
    dist = SamplingDistribution.uniform()
    gen = stream(5, 0)
    for p in (2, 3, 8):
        m = build_orthogonal_measure(dist.sample(gen, (p,)))
        n = np.arange(0, 2 * p + 1, dtype=float)
        target = (np.arange(0, 2 * p + 1) % p == 0).astype(float)
        assert np.max(np.abs(autocorrelation(m, n) - target)) <= 1e-9


def _per_class_measure(yhat):
    # class by class: mass (1 +- yhat_k)/2 at shift 0 / 1 as weight mass/p at
    # 2*pi*(shift + k/p), masses <= 1e-15 dropped, then sorted
    p = len(yhat)
    atoms = [(2.0 * np.pi * (shift + k / p), mass / p)
             for k, y in enumerate(yhat)
             for shift, mass in ((0, (1.0 + y) / 2.0), (1, (1.0 - y) / 2.0))
             if mass > 1e-15]
    return np.array(sorted(atoms)).T


ROUND_TRIP_LAWS = {
    "uniform": SamplingDistribution.uniform(),
    "two-point:1": SamplingDistribution.two_point(1.0),
    "table-pm1": SamplingDistribution.table([-1.0, 0.25, 1.0], [0.25, 0.5, 0.25]),
}


@pytest.mark.parametrize("law", sorted(ROUND_TRIP_LAWS))
@pytest.mark.parametrize("p", [2, 3, 8, 33])
def test_round_trip_recovers_drawn_difference(p, law):
    # yhat -> measure -> yhat; atoms at +-1 leave zero masses, which are dropped
    drawn = ROUND_TRIP_LAWS[law].sample(stream(9, p), (p,))
    m = build_orthogonal_measure(drawn)
    points, weights = _per_class_measure(drawn)
    assert np.array_equal(m.points, points) and np.array_equal(m.weights, weights)
    sd = spectral_difference_from_measure(m, p)
    assert sd.values == pytest.approx(drawn, abs=1e-12)


@pytest.mark.parametrize("bad, match", [
    ([0.0, np.nan], "finite"), ([0.0, 1.5], "finite"), (np.zeros((2, 2)), "1-d"), ([0.5], "1-d"),
], ids=["nan", "above-one", "2-d", "size-1"])
def test_build_orthogonal_rejects_bad_difference(bad, match):
    with pytest.raises(ValueError, match=match):
        build_orthogonal_measure(bad)


def _reference_report(m, p):
    # one measure alone, with whole phase matrices: the per-measure body the
    # batched check_bounds must reproduce bit for bit
    lam0, mam = median_minimizer(m)
    t = np.arange(0.0, bounds.GRID_T_MAX + 0.5 * bounds.GRID_T_STEP, bounds.GRID_T_STEP)
    ac_t = np.exp(-1j * np.outer(t, m.points)) @ m.weights
    slack = np.real(np.exp(1j * lam0 * t) * ac_t) - (1.0 - mam * t)
    n = np.arange(0, 2 * p + 1, dtype=float)
    target = (np.arange(0, 2 * p + 1) % p == 0).astype(float)
    ac_n = np.exp(-1j * np.outer(n, m.points)) @ m.weights
    return (p, lam0, mam, mam - PI / 2.0, mam - 1.0, float(slack.min()),
            float(np.max(np.abs(ac_n - target))))


def _assert_reports_are_reference(measures, p):
    reports = check_bounds(measures, p)
    assert len(reports) == len(measures)
    for m, rep in zip(measures, reports):
        got = tuple(float(v).hex() for v in astuple(rep))
        assert got == tuple(float(v).hex() for v in _reference_report(m, p))


@pytest.mark.parametrize("law", sorted(ROUND_TRIP_LAWS))
@pytest.mark.parametrize("p", [2, 3, 8, 33, 64, 700])
def test_check_bounds_is_the_per_measure_reference(p, law):
    # the evenly spread measure sits on p of the union's points, and a two-point:1
    # or +-1 table draw on p as well, so those multiply a gather of the table's columns
    gen = stream(4, p)
    measures = [build_orthogonal_measure(np.ones(p))]
    measures += [build_orthogonal_measure(ROUND_TRIP_LAWS[law].sample(gen, (p,)))
                 for _ in range(2 if p > 64 else 6)]
    _assert_reports_are_reference(measures, p)


def test_check_bounds_last_row_block_keeps_its_tail():
    # at the default budget, p = 1024 puts the 2049 n rows in blocks of 128 (a
    # union of 2p points) or 256 rows (the evenly spread measure alone), whose
    # last one would be row 2048 alone; it runs as rows 2044..2048 instead
    p = 1024
    even = build_orthogonal_measure(np.ones(p))
    assert bounds._TABLE_BYTES // (16 * 2 * p) == 128
    _assert_reports_are_reference([even], p)
    _assert_reports_are_reference(
        [even, build_orthogonal_measure(SamplingDistribution.uniform().sample(stream(2, p), (p,)))], p)


@pytest.mark.parametrize("p", [3, 8, 33])
@pytest.mark.parametrize("rows", [8, 12, 20])
def test_check_bounds_small_row_blocks_are_the_reference(p, rows, monkeypatch):
    # blocks of 8-20 rows put many boundaries in both grids, a tail of 2001 % rows
    # or (2p + 1) % rows rows, and at rows = 8 a t-grid last block that would be one row
    monkeypatch.setattr(bounds, "_TABLE_BYTES", 16 * 2 * p * rows)
    gen = stream(6, p)
    measures = [build_orthogonal_measure(np.ones(p))]
    measures += [build_orthogonal_measure(law.sample(gen, (p,)))
                 for law in ROUND_TRIP_LAWS.values()]
    _assert_reports_are_reference(measures, p)


def test_check_bounds_memory_is_bounded_by_the_block_budget():
    # whole phase matrices at p = 1024 held several tables of about 33 MB at once;
    # one reused row block and a column gather of it stay within two budgets
    even = build_orthogonal_measure(np.ones(1024))
    tracemalloc.start()
    try:
        check_bounds([even], 1024)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * bounds._TABLE_BYTES
