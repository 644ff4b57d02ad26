"""Random spectral differences and streaming Monte Carlo estimation.

Components yhat_k are drawn i.i.d. from a law on [-1, 1]. Trials are grouped
into fixed-size chunks; chunk c draws from the counter-based stream (seed, c),
so the drawn values depend only on the seed, never on how chunks are
partitioned across workers or where in memory they land. One pass over the
chunks computes every configured statistic from the same draws: p_n, p_N,
p_tot, the folded-index moments and, when epsilon is set, the near-zero count
with its histogram. A line of M cells runs as period M: its p_n is w_n =
|line_factor|^2 times the period-M p_c of the same draws, c = (n-1) mod M + 1,
so its p_N (outside n = 1-N..N) and moment (n = -31..32) are fixed weights over
period-M half bins. Both modes read the half bins 1..min(max N, ceil(size/2))
and those of the n's by one real product with their phase matrix (of no columns
for no bin), or all ceil(size/2) by the FFT, for any moment or over 32 bins, in
row blocks of <= 1 MiB or 16 rows. Chunks go to the worker threads in runs of
up to RUN consecutive ordinals, made on demand, one result each; a run owns its
buffers and one Philox generator, re-keyed per chunk, so no state is kept per
thread. A run's rows pass in stages: whole chunks up to the run while their p_n
fit the blocks' 1 MiB, or one block. Each block writes p_tot and the near-zero
count, through a mask of its rows, into a (statistic, row) block and its p_n
columns into the stage, from which the other per-row statistics join the block
once per stage. BLAS rounds a row by the row count of its product, so products
keep their rows: y @ W and the moment and line p_N dgemv's are one product per
block, and the configuration alone fixes the blocks. One call reduces a run's
rows to each chunk's mean and central moments up to order four; the per-chunk
accumulators merge associatively, in ordinal order, which makes chunked,
threaded and single-pass runs agree to rounding.
"""
from __future__ import annotations

import math
import numbers
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rng_mod
from . import closed_form as cf
from .closed_form import MomentTuple
from .spectral import folded_index, half_step_bins, half_step_phase_matrix, half_step_roots, line_factor

CHUNK = 256  # trials per RNG stream; fixed so partitioning never moves a draw
RUN = 16  # most consecutive chunks per worker task; a run's statistics are reduced in one call

THREADS_ENV = "ANTICIP_THREADS"

# zero-variance statistics (degenerate laws) compare exactly, to this slack
_EXACT_SLACK = 1e-12


@dataclass(frozen=True)
class SamplingDistribution:
    """A component law on [-1, 1] with analytic moments m1..m4: `uniform` on [-1, 1]
    when it has no atoms, else the discrete law of its `points` and `masses`, of which
    `two-point` at +-y0 is one. Atoms that mirror (x and -x at equal masses) give
    m1 = m3 = 0 exactly."""

    label: str
    moments: MomentTuple
    points: np.ndarray | None = None
    masses: np.ndarray | None = None
    _cum: np.ndarray | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        if self.masses is not None:
            object.__setattr__(self, "_cum", np.cumsum(np.asarray(self.masses, dtype=float)))
        for name in ("points", "masses", "_cum"):
            arr = getattr(self, name)
            if arr is not None:
                arr = np.asarray(arr, dtype=float)
                arr.setflags(write=False)
                object.__setattr__(self, name, arr)

    @classmethod
    def uniform(cls) -> "SamplingDistribution":
        return cls("uniform", MomentTuple(0.0, 1.0 / 3.0, 0.0, 1.0 / 5.0))

    @classmethod
    def two_point(cls, y0: float) -> "SamplingDistribution":
        if not 0.0 <= y0 <= 1.0:
            raise ValueError("two-point amplitude must lie in [0, 1]")
        law = cls.table([-y0, y0], [0.5, 0.5], label=f"two-point:{y0:g}")
        # the Python powers: the table's sum of pts**4 can differ in the last bit
        return replace(law, moments=MomentTuple(0.0, y0**2, 0.0, y0**4))

    @classmethod
    def table(cls, points, masses, label: str | None = None) -> "SamplingDistribution":
        pts = np.asarray(points, dtype=float)
        ms = np.asarray(masses, dtype=float)
        if pts.ndim != 1 or pts.shape != ms.shape or pts.size == 0:
            raise ValueError("table needs matching 1-d points and masses")
        if not (np.all(np.isfinite(pts)) and np.all(np.isfinite(ms))):
            raise ValueError("table points and masses must be finite")
        if float(np.abs(pts).max()) > 1.0:
            raise ValueError("table support must lie within [-1, 1]")
        if np.any(ms < 0) or abs(float(ms.sum()) - 1.0) > 1e-9:
            raise ValueError("table masses must be nonnegative and sum to 1")
        ms = ms / ms.sum()
        order = np.argsort(pts)
        pts, ms = pts[order], ms[order]
        mom = MomentTuple(*(float((ms * pts**r).sum()) for r in (1, 2, 3, 4)))
        if np.array_equal(pts, -pts[::-1]) and np.array_equal(ms, ms[::-1]):
            mom = replace(mom, m1=0.0, m3=0.0)  # mirrored atoms: exact zeros the float sums can miss
        return cls(label or "table", mom, pts, ms)

    def sample(self, rng: np.random.Generator, shape, out: np.ndarray | None = None) -> np.ndarray:
        """Draws of the given shape, written into `out` when it is given; a one-atom
        law fills it with the atom and reads no random numbers."""
        if self.points is not None and self.points.size == 1:
            y = np.empty(shape) if out is None else out
            y.fill(self.points[0])
            return y
        y = rng.random(shape) if out is None else rng.random(out=out)
        if self.points is None:  # uniform: -1 + 2u is exact, rng.uniform(-1, 1)'s bits
            return np.subtract(np.multiply(y, 2.0, out=y), 1.0, out=y)
        # index = #{j < last : cum[j] <= u}, so u past a cum[-1] rounded below 1
        # still lands on the last atom
        idx = np.zeros(y.shape, dtype=np.intp)
        for c in self._cum[:-1]:
            idx += y >= c
        return np.take(self.points, idx, out=out, mode="clip")  # idx in range: "clip" skips a copy

    def mass_within(self, epsilon: float) -> float:
        """P(|yhat| < epsilon), analytic: epsilon for uniform (to 1), else the atoms' mass."""
        if not 0.0 < epsilon:
            raise ValueError("epsilon must be positive")
        if self.points is None:
            return min(epsilon, 1.0)
        return float(self.masses[np.abs(self.points) < epsilon].sum())


def parse_distribution(text: str) -> SamplingDistribution:
    """Parse 'uniform' | 'two-point:<y0>' | 'table:<json path>'; a table file's keys
    other than 'points' and 'masses' are ignored."""
    if text == "uniform":
        return SamplingDistribution.uniform()
    if text.startswith("two-point:"):
        return SamplingDistribution.two_point(float(text.split(":", 1)[1]))
    if text.startswith("table:"):
        import json

        path = text.split(":", 1)[1]
        with open(path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
        if not (isinstance(spec, dict) and all(isinstance(spec.get(k), list) for k in ("points", "masses"))):
            raise ValueError(f"{path} must hold a JSON object with lists 'points' and 'masses'")
        for key in ("points", "masses"):  # a JSON true is a Python int, but not a JSON number
            if not all(type(v) in (int, float) for v in spec[key]):
                raise ValueError(f"{path}: every entry of '{key}' must be a JSON number")
        return SamplingDistribution.table(spec["points"], spec["masses"], label=text)
    raise ValueError(f"unknown distribution {text!r}")


# -- streaming accumulation --------------------------------------------------

@dataclass
class MomentAccumulator:
    """Count, mean and central sums M2..M4; merges associatively (Pebay)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0
    m3: float = 0.0
    m4: float = 0.0

    def add_batch(self, x: np.ndarray) -> None:
        x = np.asarray(x, dtype=float).ravel()
        if x.size == 0:
            return
        mean, m2, m3, m4 = _batch_moments(x[np.newaxis]).tolist()[0]
        merged = merge_accumulators(self, MomentAccumulator(x.size, mean, m2, m3, m4))
        self.count, self.mean = merged.count, merged.mean
        self.m2, self.m3, self.m4 = merged.m2, merged.m3, merged.m4

    @property
    def variance(self) -> float:
        return self.m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def std_error(self) -> float:
        return math.sqrt(self.variance / self.count) if self.count else 0.0

    @property
    def variance_std_error(self) -> float:
        """Standard error of the sample variance, from the empirical fourth
        central moment: Var(s^2) ~ (mu4 - s^4 (n-3)/(n-1)) / n."""
        n = self.count
        if n < 2:
            return 0.0
        mu4 = self.m4 / n
        s2 = self.variance
        return math.sqrt(max(mu4 - s2 * s2 * (n - 3) / (n - 1), 0.0) / n)


def _batch_moments(x: np.ndarray) -> np.ndarray:
    """Mean and central sums M2, M3, M4 along the last axis of x, stacked on a new
    last axis. Every sum is a pairwise sum along a contiguous row, so a row gives
    the same bits alone or stacked with others."""
    mean = x.mean(axis=-1)
    # constant rows carry exactly zero central moments; computing them through
    # the rounded row mean would leave ~eps^2 residue
    const = (x == x[..., :1]).all(axis=-1)
    first = x[..., 0][const]
    d = x - mean[..., np.newaxis]
    d2 = d * d
    m2 = d2.sum(axis=-1)
    d *= d2
    m3 = d.sum(axis=-1)
    d2 *= d2
    out = np.stack((mean, m2, m3, d2.sum(axis=-1)), axis=-1)
    out[const] = 0.0
    out[const, 0] = first
    return out


def merge_accumulators(a: MomentAccumulator, b: MomentAccumulator) -> MomentAccumulator:
    if a.count == 0:
        return MomentAccumulator(b.count, b.mean, b.m2, b.m3, b.m4)
    if b.count == 0:
        return MomentAccumulator(a.count, a.mean, a.m2, a.m3, a.m4)
    na, nb = a.count, b.count
    n = na + nb
    d = b.mean - a.mean
    mean = a.mean + d * nb / n
    m2 = a.m2 + b.m2 + d * d * na * nb / n
    m3 = (
        a.m3
        + b.m3
        + d**3 * na * nb * (na - nb) / n**2
        + 3.0 * d * (na * b.m2 - nb * a.m2) / n
    )
    m4 = (
        a.m4
        + b.m4
        + d**4 * na * nb * (na * na - na * nb + nb * nb) / n**3
        + 6.0 * d * d * (na * na * b.m2 + nb * nb * a.m2) / n**2
        + 4.0 * d * (na * b.m3 - nb * a.m3) / n
    )
    return MomentAccumulator(n, mean, m2, m3, m4)


# -- configuration and report -------------------------------------------------

def _check_integers(name: str, *values) -> None:
    """ValueError naming the field `name` unless every value is a Python or numpy
    integer: a float size or index would be truncated or key a row of its own."""
    for v in values:
        if not isinstance(v, numbers.Integral):
            raise ValueError(f"{name}: {v!r} is not an integer")


@dataclass(frozen=True)
class MonteCarloConfig:
    """What to estimate: p_n for n in n_list, p_N for N in N_list, p_tot
    always, windowed tilde(n)^r for r in r_list, and (periodic mode) the
    near-zero count #{k : |yhat_k| < epsilon} when epsilon is set. On the line,
    p_N is the mass outside n = 1-N..N, and a moment sums |n|^r p_n over
    n = -31..32, whatever other rows are set; a line run reads at most
    ceil(M/2) half bins whatever N is."""

    dist: SamplingDistribution
    trials: int
    seed: int
    period: int | None = None
    cells: int | None = None
    n_list: tuple[int, ...] = ()
    N_list: tuple[int, ...] = ()
    r_list: tuple[float, ...] = ()
    epsilon: float | None = None

    def __post_init__(self):
        if (self.period is None) == (self.cells is None):
            raise ValueError("exactly one of period and cells must be given")
        _check_integers("trials", self.trials)
        _check_integers("period" if self.cells is None else "cells", self.size)
        _check_integers("n_list", *self.n_list)
        _check_integers("N_list", *self.N_list)
        if self.trials < 1:
            raise ValueError("trials must be at least 1")
        if self.size < 2:
            raise ValueError("size must be at least 2")
        if self.period is not None:
            for n in self.n_list:
                if not 1 <= n <= self.period:
                    raise ValueError(f"n = {n} outside 1..{self.period}")
            for N in self.N_list:
                if not 0 <= N < self.period / 2:
                    raise ValueError(f"N = {N} outside 0..<{self.period / 2}")
        else:
            for N in self.N_list:
                if N < 0:
                    raise ValueError("N must be nonnegative")
            for n in (*self.n_list, *self.N_list):  # rows are keyed by float(n), exact to 2^53
                if abs(n) > 1 << 53:
                    raise ValueError(f"line index {n} outside |n| <= 2^53")
        for r in self.r_list:
            if not (math.isfinite(r) and r >= 0):
                raise ValueError(f"moment orders must be finite and nonnegative (got {r})")
        if self.epsilon is not None:
            if self.period is None:
                raise ValueError("near-zero counts need a period (periodic mode)")
            if not 0.0 < self.epsilon < 1.0:
                raise ValueError("epsilon must lie in (0, 1)")

    @property
    def mode(self) -> str:
        return "periodic" if self.period is not None else "continuous"

    @property
    def size(self) -> int:
        return self.period if self.period is not None else self.cells


@dataclass
class StatRow:
    """One estimated statistic with its closed-form pairing, when available.

    `exact_pred` marks predictions that are exact at this size; asymptotic
    pairings keep their note but carry no z-score.
    """

    statistic: str
    index: float | None
    acc: MomentAccumulator
    pred_mean: float | None = None
    pred_var: float | None = None
    note: str | None = None
    exact_pred: bool = False

    @property
    def key(self) -> tuple:
        return (self.statistic, self.index)

    def score(self, var: bool = False) -> tuple[float, float | None, float, float | None]:
        """(measured, predicted, SE, z) of the mean, or of the variance with `var`. z is
        None without an exact prediction or below two trials, where no SE is measured;
        at SE 0 (a degenerate law) it is 0 when the value is met exactly, else inf."""
        acc = self.acc
        if var:
            measured, predicted, se = acc.variance, self.pred_var, acc.variance_std_error
        else:
            measured, predicted, se = acc.mean, self.pred_mean, acc.std_error
        if predicted is None or not self.exact_pred or acc.count < 2:
            z = None
        elif se == 0.0:
            z = 0.0 if abs(measured - predicted) <= _EXACT_SLACK else math.inf
        else:
            z = (measured - predicted) / se
        return measured, predicted, se, z

    @property
    def z_mean(self) -> float | None:
        return self.score()[3]

    @property
    def z_var(self) -> float | None:
        return self.score(var=True)[3]


@dataclass
class EstimateReport:
    """Rows of one run; `histogram[c]` counts the trials with c near-zero
    components when the configuration sets epsilon."""

    mode: str
    size: int
    dist_label: str
    seed: int
    rows: list[StatRow]
    histogram: np.ndarray | None = None

    @property
    def trials(self) -> int:
        return self.rows[0].acc.count

    def row(self, statistic: str, index: float | None = None) -> StatRow:
        for r in self.rows:
            if r.key == (statistic, index):
                return r
        raise KeyError(f"no row for {(statistic, index)!r}")

    def merge(self, other: "EstimateReport") -> "EstimateReport":
        """Combine two disjoint trial partitions of the same configuration."""
        if (self.mode, self.size, self.dist_label, self.seed) != (
            other.mode,
            other.size,
            other.dist_label,
            other.seed,
        ):
            raise ValueError("reports to merge must share their configuration")
        if [r.key for r in self.rows] != [r.key for r in other.rows]:
            raise ValueError("reports to merge must carry the same statistics")
        rows = [
            replace(a, acc=merge_accumulators(a.acc, b.acc))
            for a, b in zip(self.rows, other.rows)
        ]
        return EstimateReport(
            mode=self.mode,
            size=self.size,
            dist_label=self.dist_label,
            seed=self.seed,
            rows=rows,
            histogram=None if self.histogram is None else self.histogram + other.histogram,
        )

    def chi_square(self, q: float) -> tuple[float, int]:
        """Pearson statistic of the near-zero histogram against
        Binomial(size, q), with its degrees of freedom."""
        expected = self.trials * _binomial_pmf(self.size, q)
        return _chi_square(self.histogram.astype(float), expected)

    def max_abs_z(self) -> float:
        """Largest |z| over the rows; NaN when any z-score is NaN, so a
        `<= limit` gate fails on it."""
        zs = [abs(z) for r in self.rows for z in (r.z_mean, r.z_var) if z is not None]
        return float(np.max(zs, initial=0.0))


def resolve_threads(threads: int | None) -> int:
    """Worker count: `threads` when given, else ANTICIP_THREADS, else the CPUs this
    process may run on. The count never changes a result: each chunk draws its own
    stream and the chunks' accumulators merge in ordinal order."""
    if threads is not None:
        _check_integers("threads", threads)
        n, source = int(threads), "threads"
    else:
        env = os.environ.get(THREADS_ENV, "")
        if not env.strip():
            if hasattr(os, "sched_getaffinity"):
                return len(os.sched_getaffinity(0))
            return os.cpu_count() or 1
        try:
            n, source = int(env), THREADS_ENV
        except ValueError:
            raise ValueError(f"{THREADS_ENV} must be an integer (got {env!r})") from None
    if n < 1:
        raise ValueError(f"{source} must be at least 1 (got {n})")
    return n


def _run_chunked(worker, trials: int, threads: int | None, chunk_range):
    """Hand worker(run) the selected chunks in runs of up to RUN consecutive
    (ordinal, n_trials) pairs, and yield its one result per run in ordinal order,
    to fold as it comes. On a pool the runs are cut evenly into the fewest rounds
    of one run per thread, so no thread idles through another's long last run:
    40 chunks on 2 threads go as four runs of 10, not 16, 16 and 8. Runs are made
    on demand: chunk c holds min(CHUNK, trials - c*CHUNK) trials, by arithmetic,
    and a pool holds at most 2*threads runs submitted, so memory is O(threads) at
    any trials."""
    count = -(-trials // CHUNK)
    lo, hi = (0, count) if chunk_range is None else chunk_range
    if not 0 <= lo <= hi <= count:
        raise ValueError(f"chunk range {(lo, hi)} outside 0..{count}")
    n_threads = resolve_threads(threads)
    rounds = max(1, -(-(hi - lo) // (n_threads * RUN)))
    step = RUN if n_threads == 1 else max(1, -(-(hi - lo) // (n_threads * rounds)))
    runs = ([(c, min(CHUNK, trials - c * CHUNK)) for c in range(r, min(r + step, hi))]
            for r in range(lo, hi, step))
    if n_threads == 1 or hi - lo <= step:
        yield from map(worker, runs)
        return
    with ThreadPoolExecutor(max_workers=n_threads) as pool:
        pending = deque()
        for run in runs:
            pending.append(pool.submit(worker, run))
            if len(pending) == 2 * n_threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


# Most half bins a periodic run takes from the phase matrix, not the FFT: per
# 256-row chunk, one BLAS thread, 2-vCPU x86-64, it was 1.3x faster at K = 32 for
# p = 64, 1.7-2.6x for p = 256..4096, and broke even near K = 64.
_MATRIX_BINS = 32
_MOMENT_TOP = 32  # a moment on the line sums |n|^r p_n over n = -31..32
_BLOCK_BYTES = 1 << 20  # a block halves its rows while its bytes pass this, to 16; a stage's p_n fits it
_FOLD_BLOCK = 1 << 16  # indices per block of `_fold`


def _spectrum_bins(config: MonteCarloConfig):
    """(bins, W): the sorted half bins whose p_n a chunk returns, 1..min(max N,
    ceil(size/2)) and those of the n's, with W their `half_step_phase_matrix`; for
    a moment or over `_MATRIX_BINS` bins, all ceil(size/2) of them and W None (the FFT)."""
    top = min(max(config.N_list, default=0), (config.size + 1) // 2)
    bins = sorted({*range(1, top + 1), *(int(cf._half_bin(config.size, n)) for n in config.n_list)})
    if config.r_list or len(bins) > _MATRIX_BINS:
        return range(1, (config.size + 1) // 2 + 1), None
    return bins, half_step_phase_matrix(config.size, bins)


def _fold(size: int, stop: int, term) -> np.ndarray:
    """Weights over the half bins 1..ceil(size/2): term(n) added into the half bin
    of n for n = stop down to 1 (the line's terms, ~1/n^2, smallest first), in
    blocks of _FOLD_BLOCK indices: O(size + block) memory at any stop."""
    g = np.zeros((size + 1) // 2)
    for top in range(stop, 0, -_FOLD_BLOCK):
        n = np.arange(top, max(top - _FOLD_BLOCK, 0), -1)
        g += np.bincount(cf._half_bin(size, n) - 1, term(n), g.size)
    return g


def _rows(config: MonteCarloConfig, bins) -> tuple[dict, dict]:
    """Fixed weights over the p_n columns of the half `bins`, and the closed-form
    pairings (mean, var, note, exact), by key in row order: p_tot, p_n, p_N, moment,
    near-zero count. A moment folds tilde(n)^r over a period, on the line (n^r +
    (n-1)^r) w_n over n = 1.._MOMENT_TOP (p_{1-n} = p_n); a line p_n row takes w_n
    = |line_factor|^2, a p_N row g_N, the fold of w_n over n = 1..N."""
    size, m = config.size, config.dist.moments
    preds = {("p_tot", None): (cf.expected_ptot(m), cf.var_pN(size, 0, m), None, True)}
    if config.period is not None:
        weights = {("moment", float(r)): _fold(size, size, lambda n: folded_index(n, size).astype(float) ** r)
                   for r in config.r_list}
        for n in config.n_list:
            preds[("p_n", float(n))] = (cf.expected_pn(size, n, m), cf.var_pn(size, n, m), None, True)
        for N in config.N_list:
            preds[("p_N", float(N))] = (cf.expected_pN(size, N, m), cf.var_pN(size, N, m), None, True)
        for r in config.r_list:
            lead = cf.expected_moment_observable(size, r, m)
            preds[("moment", float(r))] = (lead.value, None, f"leading order, error {lead.error_order}", False)
    else:
        def w(n):
            return np.abs(line_factor(size, n)) ** 2

        # p_n = w_n p_c and p_N = p_tot - 2 p_half @ g_N, so E(p_N) = m2 - 2 g_N @ E(p_half)
        weights = {}
        for n, wn, mn in zip(config.n_list, w(config.n_list).tolist(),
                             cf.expected_pn(size, np.array(config.n_list, np.int64), m).tolist()):
            weights[("p_n", float(n))] = wn
            preds[("p_n", float(n))] = (wn * mn, wn * wn * cf.var_pn(size, n, m), None, True)
        half = cf.expected_pn(size, np.array(bins, np.int64), m)
        for N in config.N_list:  # no variance prediction until an oracle checks one
            key = ("p_N", float(N))
            weights[key] = _fold(size, N, w)[np.array(bins, dtype=np.intp) - 1]
            preds[key] = (m.m2 - 2.0 * float(weights[key] @ half), None, None, True)
        for r in config.r_list:
            weights[("moment", float(r))] = _fold(size, _MOMENT_TOP, lambda n: (n**r + (n - 1.0) ** r) * w(n))
            preds[("moment", float(r))] = (None, None, "window partial sum of a divergent series", False)
    if config.epsilon is not None:
        q = config.dist.mass_within(config.epsilon)
        note = f"epsilon={config.epsilon:g} q={q:.17g}"
        preds[("near_zero_count", float(config.epsilon))] = (size * q, size * q * (1.0 - q), note, True)
    return weights, preds


def _stages(config: MonteCarloConfig):
    """(stages, preds): the `_rows` pairings by key, and `stages(run)`, which writes the
    per-trial statistics of a run of (ordinal, n_trials) chunks into the run's own (key, row)
    block, p_tot first and the near-zero count last, yielding (block, lo, hi) per stage of
    rows lo..hi-1. The run allocates its buffers and one generator, which chunk c re-keys
    to stream (seed, c). A block writes p_tot and the count from its spent draws, with no
    temporary of their size, its squared p_n columns into the stage (odd p reverses A's
    bins, p_n = |A[(p+1)/2-n]|^2; even p interleaves the odd bins with the mirrored rest)
    and its moment and line p_N dgemv's; each stage adds the p_n picks and p_N = p_tot - 2*sum."""
    bins, W = _spectrum_bins(config)
    weights, preds = _rows(config, bins)
    keys, size, eps, line = [*preds], config.size, config.epsilon, config.period is None
    rows, K = CHUNK, len(bins)
    row_bytes = 24 * size if W is None else 8 * size + 24 * K  # matrix: a row of y, of [Re|Im] and of p_n
    while rows > 16 and row_bytes * rows > _BLOCK_BYTES:
        rows //= 2
    stage = rows if rows < CHUNK else CHUNK * max(1, min(RUN, _BLOCK_BYTES // (8 * max(K, 1) * CHUNK)))
    q, twiddle = (size // 2 + 1) // 2, half_step_roots(size, size // 2) / size if W is None else None
    # the plan, by row: each statistic's p_n column and weight, or its near window
    col = {b: j for j, b in enumerate(bins)}
    picks = [(k, col[int(cf._half_bin(size, int(key[1])))], weights.get(key, 1.0))
             for k, key in enumerate(keys) if key[0] == "p_n"]
    dots = [(k, weights[key]) for k, key in enumerate(keys) if key[0] == "moment" or line and key[0] == "p_N"]
    tails = [(k, int(key[1])) for k, key in enumerate(keys) if key[0] == "p_N"]
    sums = [] if line else tails  # bins start 1..N

    def block(y, z, pn, stats, mask):  # the block's draws, transform, stage p_n rows and statistic columns
        v = (half_step_bins(y, z, twiddle) if W is None else np.matmul(y, W, out=z)).view(float)
        if eps is not None:  # the transform has read y: |y|, then y*y = |y|^2, in place
            np.less(np.abs(y, out=y), eps, out=mask[:len(y)]).sum(axis=1, out=stats[-1])
        ptot = np.add.reduce(np.multiply(y, y, out=y), axis=1, out=stats[0])
        ptot /= size  # the bits of .mean(axis=1)
        v *= v  # the squares in one contiguous pass; conjugation flips none
        re, im = (v[:, 0::2], v[:, 1::2]) if W is None else (v[:, :K], v[:, K:])
        if W is not None:
            np.add(re, im, out=pn)
        elif size % 2:
            np.add(re[:, ::-1], im[:, ::-1], out=pn)
        else:  # p_{2m+2} = p_{2(h-1-m)+1}
            np.add(re[:, :q], im[:, :q], out=pn[:, 0::2])
            np.add(re[:, q:][:, ::-1], im[:, q:][:, ::-1], out=pn[:, 1::2])
        for k, w in dots:
            np.matmul(pn, w, out=stats[k])

    def finish(pn, stats):  # the stage's p_n rows and statistic columns
        for k, j, w in picks:
            np.multiply(pn[:, j], w, out=stats[k])
        for k, N in sums:
            pn[:, :N].sum(axis=1, out=stats[k])
        for k, _ in tails:  # the row holds the near window's sum, or the line's product
            np.subtract(stats[0], np.multiply(stats[k], 2.0, out=stats[k]), out=stats[k])

    def stages(run):  # the run owns its buffers and its one generator
        lo, at, end, gen = 0, 0, sum(n for _, n in run), None
        m = min(rows, end)
        y, pn, stats = np.empty((m, size)), np.empty((min(stage, end), K)), np.empty((len(keys), end))
        z = np.empty((m, 2 * K)) if W is not None else np.empty((m, (size + 1) // 2), complex)
        mask = None if eps is None else np.empty((m, size), bool)  # one block's rows
        for c, n in run:
            gen = rng_mod.stream(config.seed, c, reuse=gen)
            # no 1-row last block: numpy takes a 1-row moment product by dot, not dgemv's row kernel
            starts = [i - 4 * (i == n - 1 > 0) for i in range(0, n, rows)]
            for i, j in zip(starts, starts[1:] + [n]):
                block(config.dist.sample(gen, (j - i, size), out=y[:j - i]), z[:j - i],
                      pn[at - lo:at - lo + j - i], stats[:, at:at + j - i], mask)
                at += j - i
                if at - lo + rows > stage or at == end:
                    finish(pn[:at - lo], stats[:, lo:at])
                    yield stats, lo, at
                    lo = at

    return stages, preds


def run_monte_carlo(
    config: MonteCarloConfig,
    *,
    threads: int | None = None,
    chunk_range: tuple[int, int] | None = None,
) -> EstimateReport:
    """Estimate the configured statistics over i.i.d. spectral differences.

    `chunk_range` restricts the run to chunk ordinals [lo, hi); partial
    reports over disjoint ranges merge back to the single-pass report.
    """
    stages, preds = _stages(config)
    keys, width, hist_size = list(preds), min(CHUNK, config.trials), config.size + 1

    def worker(run):  # the run's accumulators, chunk by chunk, and its one near-zero histogram
        hist = None if config.epsilon is None else np.zeros(hist_size, dtype=np.int64)
        for stats, lo, hi in stages(run):
            if hist is not None:
                hist += np.bincount(stats[-1, lo:hi].astype(np.intp), minlength=hist_size)
        n_last = run[-1][1]  # only the last chunk of all can be partial; it is reduced on its own
        full = len(run) - (n_last < width)
        moments = np.concatenate([_batch_moments(stats[:, i * width:i * width + (j - i) * n].reshape(-1, j - i, n))
                                  for i, j, n in ((0, full, width), (full, len(run), n_last)) if i < j], axis=1)
        return [[MomentAccumulator(n, *m) for m in chunk] for (_, n), chunk
                in zip(run, moments.transpose(1, 0, 2).tolist())], hist

    totals = {key: MomentAccumulator() for key in keys}
    histogram = None if config.epsilon is None else np.zeros(hist_size, dtype=np.int64)
    for chunks, hist in _run_chunked(worker, config.trials, threads, chunk_range):
        for accs in chunks:
            for key, acc in zip(keys, accs):
                totals[key] = merge_accumulators(totals[key], acc)
        if hist is not None:
            histogram += hist

    # preds[key] is (pred_mean, pred_var, note, exact_pred), in StatRow's field order
    rows = [StatRow(*key, totals[key], *preds[key]) for key in keys]
    return EstimateReport(
        mode=config.mode,
        size=config.size,
        dist_label=config.dist.label,
        seed=config.seed,
        rows=rows,
        histogram=histogram,
    )


def tail_exceedance(
    dist: SamplingDistribution,
    p: int,
    N: int,
    delta: float,
    trials: int,
    seed: int,
) -> float:
    """Fraction of trials whose tail probability p_N exceeds delta."""
    config = MonteCarloConfig(dist=dist, trials=trials, seed=seed, period=p, N_list=(N,))
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite (got {delta})")
    stages = _stages(config)[0]

    def worker(run):  # the run's count, summed over its stages; row 1 is p_N
        return sum(int(np.count_nonzero(stats[1, lo:hi] > delta)) for stats, lo, hi in stages(run))

    return sum(_run_chunked(worker, trials, None, None)) / trials


def _binomial_pmf(p: int, q: float) -> np.ndarray:
    if q <= 0.0:
        out = np.zeros(p + 1)
        out[0] = 1.0
        return out
    if q >= 1.0:
        out = np.zeros(p + 1)
        out[p] = 1.0
        return out
    k = np.arange(p + 1)
    logc = (
        math.lgamma(p + 1)
        - np.array([math.lgamma(v + 1) + math.lgamma(p - v + 1) for v in k])
    )
    return np.exp(logc + k * math.log(q) + (p - k) * math.log1p(-q))


def _chi_square(hist: np.ndarray, expected: np.ndarray) -> tuple[float, int]:
    """Pearson statistic after pooling adjacent cells to expected count >= 5."""
    obs_bins, exp_bins = [], []
    o_acc = e_acc = 0.0
    for o, e in zip(hist, expected):
        o_acc += o
        e_acc += e
        if e_acc >= 5.0:
            obs_bins.append(o_acc)
            exp_bins.append(e_acc)
            o_acc = e_acc = 0.0
    if e_acc > 0.0 or o_acc > 0.0:
        if exp_bins:
            obs_bins[-1] += o_acc
            exp_bins[-1] += e_acc
        else:
            obs_bins, exp_bins = [o_acc], [e_acc]
    obs = np.asarray(obs_bins)
    exp = np.asarray(exp_bins)
    ok = exp > 0
    if not np.all(ok):
        if np.any(obs[~ok] > 0):
            return math.inf, max(len(obs_bins) - 1, 0)
        obs, exp = obs[ok], exp[ok]
    stat = float(((obs - exp) ** 2 / exp).sum())
    return stat, max(obs.size - 1, 0)


def near_zero_statistics(
    dist: SamplingDistribution,
    p: int,
    epsilon: float,
    trials: int,
    seed: int,
) -> EstimateReport:
    """Distribution of #{k : |yhat_k| < epsilon}, checked against
    Binomial(p, q) with q = P(|yhat| < epsilon): the `near_zero_count` row
    and histogram of a run that sets only epsilon."""
    config = MonteCarloConfig(dist=dist, trials=trials, seed=seed, period=p, epsilon=epsilon)
    return run_monte_carlo(config)
