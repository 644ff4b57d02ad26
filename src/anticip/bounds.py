"""Measure-level toolkit: absolute energy moment, median minimizer, the
frequency bounds obeyed by orthogonal evolutions, and the orthogonal measure
of a spectral difference (`build_orthogonal_measure`).

Everything is in the standard scale (step size over hbar equal to one), where
one evolution step multiplies the spectral component at lambda by
exp(-i*lambda). A period-p orthogonal evolution folds to the uniform measure
on the p-th roots of unity; points then sit on the grid 2*pi*(n + k/p), so
`check_bounds` reads a measure's autocorrelation by FFT and chirp-z transforms.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID_T_MAX = 2.0
GRID_T_STEP = 1e-3
_TOL = 1e-9
_STEPS = round(1 / GRID_T_STEP)  # t-grid points per unit t: t_k = k / _STEPS
_BLOCK_BYTES = 1 << 17  # most bytes of a block of chirp-z rows, 16 per entry


class OrthogonalityError(ValueError):
    """Measure does not fold to the uniform distribution on {2*pi*k/p}."""


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finite spectral measure: strictly ascending points, unit total mass."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = _frozen(self.points)
        wts = _frozen(self.weights)
        if pts.ndim != 1 or pts.shape != wts.shape or pts.size == 0:
            raise ValueError("points and weights must be matching 1-d sequences")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(wts))):
            raise ValueError("points and weights must be finite")
        if np.any(np.diff(pts) <= 0):
            raise ValueError("points must be strictly ascending and distinct")
        if np.any(wts < 0):
            raise ValueError("weights must be nonnegative")
        total = float(wts.sum())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 (got {total!r})")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)


def abs_moment(measure: DiscreteMeasure, lambda0: float) -> float:
    """Mean absolute energy deviation around lambda0; convex in lambda0."""
    return float(np.sum(measure.weights * np.abs(measure.points - lambda0)))


def median_minimizer(measure: DiscreteMeasure) -> tuple[float, float]:
    """Location minimizing the absolute moment, and the minimum value.

    The minimizer set is the weighted-median interval; the whole interval is
    flat when the cumulative mass hits 1/2 exactly, in which case the midpoint
    is returned for determinism.
    """
    cum = np.cumsum(measure.weights)
    i = int(np.searchsorted(cum, 0.5 - 1e-15))
    if abs(float(cum[i]) - 0.5) <= 1e-12 and i + 1 < measure.points.size:
        lam = 0.5 * float(measure.points[i] + measure.points[i + 1])
    else:
        lam = float(measure.points[i])
    return lam, abs_moment(measure, lam)


def grid_residues(measure: DiscreteMeasure, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Integer index j of each point lambda = 2*pi*j/p on the grid, and the mass of
    each residue class j mod p.

    Raises OrthogonalityError unless the measure folds uniformly onto
    {2*pi*k/p}: every point within 1e-9 of the grid and every residue class
    carrying mass 1/p within 1e-9.
    """
    step = 2.0 * np.pi / p
    grid = np.rint(measure.points / step)
    off = np.abs(measure.points - grid * step)
    if off.size and float(off.max()) > _TOL:
        j = int(off.argmax())
        raise OrthogonalityError(
            f"point {measure.points[j]!r} is {off[j]:.3e} away from the 2*pi/{p} grid"
        )
    flat = grid.astype(int)
    mass = np.bincount(flat % p, weights=measure.weights, minlength=p)
    dev = np.abs(mass - 1.0 / p)
    if float(dev.max()) > _TOL:
        k = int(dev.argmax())
        raise OrthogonalityError(
            f"residue class {k} carries mass {mass[k]!r}, expected {1.0 / p!r}"
        )
    return flat, mass


@dataclass(frozen=True)
class BoundReport:
    """Slacks of the step-size and frequency inequalities for one measure.

    All slacks are (measured - bound); nonnegative within tolerance means the
    inequality holds. `autocorr_slack_min` is the worst grid point of
    Re(exp(i*lambda0*t) * mu^(t)) - (1 - min_abs_moment * t), the short-time
    overlap bound applied to the recentered Hamiltonian.
    """

    period: int
    lambda0: float
    min_abs_moment: float
    corollary2_slack: float
    passage_slack: float
    autocorr_slack_min: float
    orthogonality_dev: float

    @property
    def ok(self) -> bool:
        return (
            self.autocorr_slack_min >= -_TOL
            and self.corollary2_slack >= -_TOL
            and self.passage_slack >= -_TOL
        )


def check_bounds(measures, p: int) -> list[BoundReport]:
    """One BoundReport per measure of period p, the same bits alone or in any batch:
    the overlap inequality on the grid t_k = k/_STEPS <= GRID_T_MAX and the frequency
    floors, each to within 1e-9. Raises OrthogonalityError unless every measure folds
    uniformly onto {2*pi*k/p}. Points and lambda0 are read at the grids 2*pi*j/p and
    pi*h/p; points up to 1e-9 off them move the overlap by at most 2e-9*t <= 4e-9.

    mu^(n) is F_{n mod p}, F the FFT of the residue-class masses. With lambda0 =
    pi*h/p, Re(exp(i*lambda0*t) mu^(t)) = sum_l w_l cos(pi*u_l*t/p), u = |2j - h|:
    per (measure, q = u // 4p), the Bluestein chirp-z transform (Rabiner, Schafer &
    Rader 1969) sum_m x_m W^(m*k), W = exp(-i*pi/(_STEPS*p)), of the weights at
    m = u mod 4p, times exp(-4*pi*i*q*t), angles reduced in integers, summed in
    ascending q. Measures go in blocks whose transforms fill at most _BLOCK_BYTES.
    """
    if p < 2:
        raise ValueError("period must be at least 2")
    grid = [grid_residues(m, p) for m in measures]  # (j, residue-class masses) per measure
    centers = [median_minimizer(m) for m in measures]
    four_p, top = 4 * p, round(GRID_T_MAX * _STEPS)
    size = 1 << (four_p + top - 1).bit_length()  # a power of two >= 4p + top
    d = np.arange(max(four_p, top + 1))
    chirp = np.exp(-1j * np.pi / (2 * _STEPS * p) * (d * d % (4 * _STEPS * p)))  # W^(d^2/2)
    kernel = np.fft.fft(np.concatenate(  # W^(-d^2/2) at d = 1-4p..top, circularly
        [chirp[:top + 1], np.zeros(size - four_p - top), chirp[four_p - 1:0:-1]]).conj())
    t = np.arange(0.0, GRID_T_MAX + 0.5 * GRID_T_STEP, GRID_T_STEP)
    lam0, moment = np.array(centers).reshape(-1, 2).T
    us = [np.abs(2 * j - h) for (j, _), h in zip(grid, np.rint(lam0 * p / np.pi).astype(int))]
    slack = np.empty(len(grid))
    block = max(1, _BLOCK_BYTES // (16 * size))  # measures, so at most as many rows per q
    for part in (slice(b, b + block) for b in range(0, len(grid), block)):
        owner = np.repeat(np.arange(len(us[part])), [u.size for u in us[part]])
        u, w = np.concatenate(us[part]), np.concatenate([m.weights for m in measures[part]])
        acc = np.zeros((len(us[part]), top + 1))
        for q in np.unique(u // four_p):
            on = u // four_p == q
            rows, row = np.unique(owner[on], return_inverse=True)
            x = np.bincount(row * four_p + u[on] % four_p, w[on], rows.size * four_p)
            x = np.fft.fft(x.reshape(-1, four_p) * chirp[:four_p], size) * kernel  # zero-padded
            z = np.fft.ifft(x)[:, :top + 1] * chirp[:top + 1]
            if q:
                z *= np.exp(-2j * np.pi / _STEPS * (2 * q * np.arange(top + 1) % _STEPS))
            acc[rows] += z.real  # each measure's rows summed in ascending q
        slack[part] = (acc - (1.0 - moment[part, None] * t)).min(axis=1)
    devs = (np.abs(np.fft.fft(mass) - (np.arange(p) == 0)).max() for _, mass in grid)
    return [BoundReport(p, lam, mam, mam - np.pi / 2.0, mam - 1.0, float(s), float(dev))
            for (lam, mam), s, dev in zip(centers, slack, devs)]


def build_orthogonal_measure(yhat) -> DiscreteMeasure:
    """Orthogonal-evolution measure of the spectral difference yhat, p = yhat.size.

    Class k puts mass (1+yhat_k)/2 at shift 0 and (1-yhat_k)/2 at shift 1, as
    weight mass/p at lambda = 2*pi*(shift + k/p); masses <= 1e-15 are dropped.
    The folded measure is exactly uniform by construction, so its
    autocorrelation at integer n is delta_{n mod p}.
    """
    yhat = np.asarray(yhat, dtype=float)
    if yhat.ndim != 1 or yhat.size < 2:
        raise ValueError("yhat must be 1-d with at least 2 components")
    if not np.all(np.abs(yhat) <= 1.0):  # also false on NaN
        raise ValueError("yhat must be finite and lie within [-1, 1]")
    p = yhat.size
    k = np.arange(p) / p
    # shift-0 points lie below 2*pi and shift-1 points from 2*pi on, so the
    # concatenation is already ascending
    points = 2.0 * np.pi * np.concatenate([k, 1.0 + k])
    masses = np.concatenate([(1.0 + yhat) / 2.0, (1.0 - yhat) / 2.0])
    keep = masses > 1e-15
    return DiscreteMeasure(points[keep], masses[keep] / p)
