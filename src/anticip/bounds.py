"""Measure-level toolkit: absolute energy moment, median minimizer, the
frequency bounds obeyed by orthogonal evolutions, and the orthogonal measure
of a spectral difference (`build_orthogonal_measure`).

Everything is in the standard scale (step size over hbar equal to one), where
one evolution step multiplies the spectral component at lambda by
exp(-i*lambda). A period-p orthogonal evolution folds to the uniform measure
on the p-th roots of unity; points then sit on the grid 2*pi*(n + k/p).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GRID_T_MAX = 2.0
GRID_T_STEP = 1e-3
_TOL = 1e-9
_TABLE_BYTES = 4 << 20  # most bytes of a phase table row block, 16 per entry


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


def grid_indices(measure: DiscreteMeasure, p: int) -> np.ndarray:
    """Integer index j of each point lambda = 2*pi*j/p on the grid.

    Raises OrthogonalityError unless the measure folds uniformly onto
    {2*pi*k/p}: every point within 1e-9 of the grid and every residue class
    j mod p carrying mass 1/p within 1e-9.
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
    return flat


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


def _phase_products(measures, x: np.ndarray):
    """(k, x[i:j], exp(-1j*outer(x[i:j], points_k)) @ weights_k) for each measure k
    of every row block i:j of x: the autocorrelation sum_l w_l exp(-i lambda_l x),
    the bits of that product over all of x at once.

    One table exp(-1j*outer(x[i:j], union)) over the sorted union of the points
    serves every measure: a measure on all of the union multiplies it, any other a
    C-contiguous gather of its columns (a strided view takes another BLAS path and
    moves bits). Blocks share one buffer of at most _TABLE_BYTES (at least 8 rows),
    start at multiples of 4 rows and are never one row long, so the zgemv row kernel
    and numpy's vector loops group each row as in the whole product.
    """
    union = np.unique(np.concatenate([m.points for m in measures]))
    cols = [np.searchsorted(union, m.points) for m in measures]
    rows = max(8, _TABLE_BYTES // (16 * union.size) // 4 * 4)
    starts = [i - 4 * (i == x.size - 1 > 0) for i in range(0, x.size, rows)]
    buf = np.empty(min(rows, x.size) * union.size, complex)
    for i, j in zip(starts, starts[1:] + [x.size]):
        table = buf[:(j - i) * union.size].reshape(j - i, union.size)
        np.exp(np.multiply(-1j, np.outer(x[i:j], union), out=table), out=table)
        for k, (m, c) in enumerate(zip(measures, cols)):
            yield k, x[i:j], (table if c.size == union.size else table.take(c, axis=1)) @ m.weights


def check_bounds(measures, p: int) -> list[BoundReport]:
    """One BoundReport per measure of period p: the overlap inequality on the
    t-grid 0..GRID_T_MAX (step GRID_T_STEP) plus the frequency floors, each to
    within 1e-9, with memory bounded in p by row blocks of `_phase_products`.

    Requires every measure to fold uniformly onto {2*pi*k/p} (orthogonal
    evolution at step 1); raises OrthogonalityError otherwise.
    """
    if p < 2:
        raise ValueError("period must be at least 2")
    for m in measures:
        grid_indices(m, p)
    centers = [median_minimizer(m) for m in measures]
    slack_mins, dev_maxes = [[] for _ in measures], [[] for _ in measures]

    t = np.arange(0.0, GRID_T_MAX + 0.5 * GRID_T_STEP, GRID_T_STEP)
    for k, tb, ac in _phase_products(measures, t):
        lam0, mam = centers[k]
        lhs = np.real(np.exp(1j * lam0 * tb) * ac)
        slack_mins[k].append((lhs - (1.0 - mam * tb)).min())
    for k, nb, ac in _phase_products(measures, np.arange(0, 2 * p + 1, dtype=float)):
        dev_maxes[k].append(np.abs(ac - (nb % p == 0)).max())

    return [BoundReport(period=p, lambda0=lam0, min_abs_moment=mam,
                        corollary2_slack=mam - np.pi / 2.0, passage_slack=mam - 1.0,
                        autocorr_slack_min=float(np.min(slack)),
                        orthogonality_dev=float(np.max(dev)))
            for (lam0, mam), slack, dev in zip(centers, slack_mins, dev_maxes)]


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
