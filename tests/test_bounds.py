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
    build_orthogonal_measure,
    check_bounds,
    median_minimizer,
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
    # orthogonality_dev is max |sum_l w_l exp(-i lambda_l n) - delta_{n mod p}| over
    # n = 0..2p: this measure's autocorrelation is 1, 0, 1, 0, 1 at n = 0..4
    m = DiscreteMeasure([0.0, PI], [0.5, 0.5])
    [rep] = check_bounds([m], 2)
    assert rep.orthogonality_dev <= 1e-15


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
    # alone and in a batch with a measure on other points of period 4
    _assert_reports_are_reference([m, build_orthogonal_measure([0.5, -0.25, 1.0, -1.0])], 4)


def test_check_bounds_rejects_non_orthogonal():
    m = DiscreteMeasure([0.0, PI], [0.7, 0.3])
    with pytest.raises(OrthogonalityError, match="residue class"):
        check_bounds([build_orthogonal_measure(np.ones(2)), m], 2)


def test_check_bounds_rejects_off_grid():
    m = DiscreteMeasure([0.0, 1.0], [0.5, 0.5])
    with pytest.raises(OrthogonalityError, match="grid"):
        check_bounds([m], 2)


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
    assert m.weights == pytest.approx([0.5, 0.5])


def test_build_orthogonal_split_shift_class():
    m = build_orthogonal_measure([0.0, 1.0])
    assert m.points == pytest.approx([0.0, PI, 2 * PI])
    assert m.weights == pytest.approx([0.25, 0.5, 0.25])


def test_build_orthogonal_autocorrelation_is_delta():
    dist = SamplingDistribution.uniform()
    gen = stream(5, 0)
    for p in (2, 3, 8):
        [rep] = check_bounds([build_orthogonal_measure(dist.sample(gen, (p,)))], p)
        assert rep.orthogonality_dev <= 1e-9


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
    # fold back: yhat_k = p * (shift-0 mass - shift-1 mass) of residue class k
    j = bounds.grid_residues(m, p)[0]
    yhat = p * np.bincount(j % p, weights=np.where(j // p % 2, -m.weights, m.weights), minlength=p)
    assert yhat == pytest.approx(drawn, abs=1e-12)


@pytest.mark.parametrize("bad, match", [
    ([0.0, np.nan], "finite"), ([0.0, 1.5], "finite"), (np.zeros((2, 2)), "1-d"), ([0.5], "1-d"),
], ids=["nan", "above-one", "2-d", "size-1"])
def test_build_orthogonal_rejects_bad_difference(bad, match):
    with pytest.raises(ValueError, match=match):
        build_orthogonal_measure(bad)


def _reference_report(m, p, moment=None):
    # one measure alone, by direct sums over its points: the t-grid from the
    # phase matrix exp(-i t lambda), the integers n = 0..2p from phases reduced
    # in integers, 2*pi*(j*n mod p)/p; check_bounds must agree within 1e-13
    lam0, mam = median_minimizer(m)
    mam = mam if moment is None else moment
    t = np.arange(0.0, bounds.GRID_T_MAX + 0.5 * bounds.GRID_T_STEP, bounds.GRID_T_STEP)
    ac_t = np.exp(-1j * np.outer(t, m.points)) @ m.weights
    slack = np.real(np.exp(1j * lam0 * t) * ac_t) - (1.0 - mam * t)
    n = np.arange(0, 2 * p + 1)
    ac_n = np.exp(-2j * PI / p * (np.outer(n, bounds.grid_residues(m, p)[0]) % p)) @ m.weights
    return (p, lam0, mam, mam - PI / 2.0, mam - 1.0, float(slack.min()),
            float(np.max(np.abs(ac_n - (n % p == 0)))))


def _transform_report(m, p, moment=None):
    # one measure alone, in plain per-measure code: the formula check_bounds must
    # reproduce bit for bit. mu^(n) is the FFT of the residue-class masses; the
    # recentred Re(exp(i lambda0 t) mu^(t)) is sum_l w_l cos(pi u_l t/p), u = |2j - h|,
    # lambda0 = pi h/p, one Bluestein chirp-z per q = u // 4p, summed in ascending q
    lam0, mam = median_minimizer(m)
    mam = mam if moment is None else moment
    j = bounds.grid_residues(m, p)[0]
    ac_n = np.fft.fft(np.bincount(j % p, weights=m.weights, minlength=p))
    ac_n[0] -= 1.0
    steps, top = 1000, 2000
    size = 1 << (4 * p + top - 1).bit_length()
    d = np.arange(max(4 * p, top + 1))
    chirp = np.exp(-1j * PI / (2 * steps * p) * (d * d % (4 * steps * p)))
    kernel = np.zeros(size, complex)
    kernel[:top + 1] = chirp[:top + 1].conj()
    kernel[size - 4 * p + 1:] = chirp[4 * p - 1:0:-1].conj()
    kernel = np.fft.fft(kernel)
    k = np.arange(top + 1)
    turn = np.exp(-2j * PI / steps * np.arange(steps))
    u = np.abs(2 * j - round(lam0 * p / PI))
    curve = np.zeros(top + 1)
    for q in np.unique(u // (4 * p)):
        x = np.zeros(size, complex)
        on = u // (4 * p) == q
        x[:4 * p] = np.bincount(u[on] % (4 * p), m.weights[on], 4 * p) * chirp[:4 * p]
        row = np.fft.ifft(np.fft.fft(x) * kernel)[:top + 1] * chirp[:top + 1]
        if q:
            row = row * turn[2 * q * k % steps]
        curve += row.real
    t = np.arange(0.0, bounds.GRID_T_MAX + 0.5 * bounds.GRID_T_STEP, bounds.GRID_T_STEP)
    return (p, lam0, mam, mam - PI / 2.0, mam - 1.0, float((curve - (1.0 - mam * t)).min()),
            float(np.abs(ac_n).max()))


def _bits(reports):
    return [tuple(float(v).hex() for v in astuple(rep)) for rep in reports]


def _assert_reports_are_reference(measures, p):
    # the measured moment puts most minima at t = 0; a moment of 0 puts each at the
    # lowest point of Re(exp(i lambda0 t) mu^(t)), which every grid point can be
    for moment in (None, 0.0):
        with pytest.MonkeyPatch.context() as patch:
            if moment is not None:
                patch.setattr(bounds, "median_minimizer", lambda m: (median_minimizer(m)[0], 0.0))
            reports = check_bounds(measures, p)
        assert len(reports) == len(measures)
        for m, rep in zip(measures, reports):
            assert _bits([rep])[0] == tuple(
                float(v).hex() for v in _transform_report(m, p, moment))
            assert astuple(rep) == pytest.approx(_reference_report(m, p, moment), rel=0, abs=1e-13)


def _shifted_measure(p, seed):
    # a library measure off the build_orthogonal_measure layout: class k splits its
    # mass between two distinct shifts s in -3..16, at 2*pi*(k + p*s)/p, so its
    # indices span about -3p..17p and its recentred u take several values of q
    rng = np.random.default_rng(seed)
    y = rng.uniform(-1.0, 1.0, p)
    atoms = {}
    for k in range(p):
        s0, s1 = rng.choice(np.arange(-3, 17), 2, replace=False)
        atoms[k + p * s0], atoms[k + p * s1] = (1.0 + y[k]) / (2 * p), (1.0 - y[k]) / (2 * p)
    j = np.array(sorted(atoms))
    return DiscreteMeasure(2.0 * PI * j / p, [atoms[i] for i in j])


@pytest.mark.parametrize("law", sorted(ROUND_TRIP_LAWS))
@pytest.mark.parametrize("p", [2, 3, 8, 33, 64, 700])
def test_check_bounds_is_the_per_measure_reference(p, law):
    # each measure's bits, alone and in a batch with the evenly spread measure and
    # a library measure of several values of q, are its per-measure formula's
    gen = stream(4, p)
    measures = [build_orthogonal_measure(np.ones(p)), _shifted_measure(p, 4)]
    measures += [build_orthogonal_measure(ROUND_TRIP_LAWS[law].sample(gen, (p,)))
                 for _ in range(2 if p > 64 else 6)]
    _assert_reports_are_reference(measures, p)
    assert _bits(check_bounds([m], p)[0] for m in measures) == _bits(check_bounds(measures, p))


@pytest.mark.parametrize("p", [3, 8, 33])
@pytest.mark.parametrize("rows", [8, 12, 20])
def test_check_bounds_small_row_blocks_are_the_reference(p, rows, monkeypatch):
    # blocks of 8-20 measures; 1..rows-1 leading copies of the evenly spread measure
    # move each measure through every position of a block and every block split,
    # with the library measures' 2-6 values of q beside measures of one
    size = 1 << (4 * p + 1999).bit_length()
    monkeypatch.setattr(bounds, "_BLOCK_BYTES", 16 * size * rows)
    gen = stream(6, p)
    even = build_orthogonal_measure(np.ones(p))
    measures = [even, _shifted_measure(p, 1)]
    measures += [build_orthogonal_measure(law.sample(gen, (p,)))
                 for law in ROUND_TRIP_LAWS.values()]
    measures += [_shifted_measure(p, 2), _shifted_measure(p, 3)]
    _assert_reports_are_reference(measures, p)
    expected = _bits(check_bounds(measures, p))
    for lead in range(1, rows):
        assert _bits(check_bounds([even] * lead + measures, p)[lead:]) == expected


def test_check_bounds_memory_is_bounded_by_the_block_budget():
    # the transforms hold O(p): a few arrays of the chirp-z length, under 8p + 4000
    for p in (1024, 4096):
        even = build_orthogonal_measure(np.ones(p))
        check_bounds([even], p)
        tracemalloc.start()
        try:
            check_bounds([even], p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1024 * p


def test_off_grid_points_are_read_at_the_grid(monkeypatch):
    # points up to 1e-9 off 2*pi*j/p, and so lambda0 off pi*h/p, are read at the
    # grid, which moves Re(exp(i lambda0 t) mu^(t)) by at most 2e-9 * t; a moment
    # of -5 puts the slack's minimum at t = 2, where that shift is largest
    p = 16
    exact = build_orthogonal_measure(SamplingDistribution.uniform().sample(stream(8, p), (p,)))
    off = np.random.default_rng(8).uniform(-9e-10, 9e-10, exact.points.size)
    moved = DiscreteMeasure(exact.points + off, exact.weights)
    [dev] = {rep.orthogonality_dev for rep in check_bounds([exact, moved], p)}
    t = np.arange(0.0, bounds.GRID_T_MAX + 0.5 * bounds.GRID_T_STEP, bounds.GRID_T_STEP)
    monkeypatch.setattr(bounds, "median_minimizer", lambda m: (median_minimizer(m)[0], -5.0))
    for m, tol in ((exact, 1e-13), (moved, 4e-9)):
        lam0, _ = median_minimizer(m)
        curve = np.real(np.exp(1j * lam0 * t) * (np.exp(-1j * np.outer(t, m.points)) @ m.weights))
        [rep] = check_bounds([m], p)
        assert abs(rep.autocorr_slack_min - (curve - (1.0 + 5.0 * t)).min()) <= tol
