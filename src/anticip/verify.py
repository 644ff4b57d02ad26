"""Named verification criteria behind the `verify` command and the test suite.

Each criterion returns a CriterionResult with one line per check; a criterion
passes when every line does. Seeds are explicit so repeated runs are
byte-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import closed_form as cf
from . import bounds as fb
from . import rng as rng_mod
from .models import ModelSpec, make_model, closed_form_pn
from .sampling import (
    CHUNK,
    MonteCarloConfig,
    SamplingDistribution,
    near_zero_statistics,
    run_monte_carlo,
    tail_exceedance,
)
from .spectral import amplitudes_continuous, amplitudes_periodic, probabilities


@dataclass
class CheckLine:
    label: str
    measured: float
    expected: float
    tolerance: str
    ok: bool


@dataclass
class CriterionResult:
    cid: str
    name: str
    lines: list[CheckLine]

    @property
    def passed(self) -> bool:
        return all(line.ok for line in self.lines)

    def worst(self) -> CheckLine | None:
        bad = [l for l in self.lines if not l.ok]
        return bad[0] if bad else None


def _line(label, measured, expected, tolerance, ok) -> CheckLine:
    return CheckLine(label, float(measured), float(expected), tolerance, bool(ok))


def _z_gate(label, row, mult, var=False) -> CheckLine:
    """|z| <= mult on the row's own z_mean, or z_var with `var`; a NaN z fails."""
    acc = row.acc
    if var:
        measured, expected, se, z = acc.variance, row.pred_var, acc.variance_std_error, row.z_var
    else:
        measured, expected, se, z = acc.mean, row.pred_mean, acc.std_error, row.z_mean
    return _line(label, measured, expected, f"{mult}*SE={mult * se:.3g}", abs(z) <= mult)


def unit_kernel_mass(seed: int = 0) -> CriterionResult:
    """Sum of |S_n|^2 over one period equals 1."""
    lines = []
    for p in (2, 3, 5, 8, 16, 101, 1024):
        err = abs(cf.lemma_unit_sum(p) - 1.0)
        lines.append(_line(f"p={p}", err, 0.0, "1e-12", err <= 1e-12))
    return CriterionResult("C1", "unit kernel mass identity", lines)


def _model_window(spec: ModelSpec):
    if spec.periodic:
        return np.arange(1, spec.size + 1)
    return np.arange(1 - 2 * spec.size, 2 * spec.size + 1)


def model_oracle_equivalence(seed: int = 0) -> CriterionResult:
    """Transform pipeline versus closed forms, plus total probability y^2."""
    lines = []
    y = 1.0
    cases = [("const-periodic", (2, 4, 16, 256, 1024)), ("alt-periodic", (2, 4, 16, 256, 1024)),
             ("const-continuous", (2, 4, 16, 256)), ("alt-continuous", (2, 4, 16, 256))]
    for kind, sizes in cases:
        for size in sizes:
            spec = ModelSpec(kind, size, y)
            sd = make_model(spec)
            ns = _model_window(spec)
            if spec.periodic:
                probs = probabilities(amplitudes_periodic(sd))
            else:
                probs = probabilities(amplitudes_continuous(sd, int(ns[0]), int(ns[-1])))
            closed = closed_form_pn(spec, ns)
            rel = float(np.max(np.abs(probs.values - closed) / closed))
            lines.append(_line(f"{kind} size={size} pipeline vs closed form (rel)",
                               rel, 0.0, "1e-10", rel <= 1e-10))
            if spec.periodic:
                err = abs(probs.p_tot - y * y)
                lines.append(_line(f"{kind} size={size} p_tot vs y^2",
                                   err, 0.0, "1e-10", err <= 1e-10))
            else:
                gap = y * y - probs.p_tot
                # alternating tails are ~M times fatter than smooth ones
                factor = 1.0 if kind == "const-continuous" else size * size
                bound = 2.0 * factor / (np.pi**2 * (2 * size - 0.5))
                lines.append(_line(f"{kind} size={size} p_tot tail gap",
                                   gap, 0.0, f"[-1e-12, {bound:.3g}]",
                                   -1e-12 <= gap <= bound))
    return CriterionResult("C2", "model-state oracle equivalence", lines)


def mean_statistics(seed: int = 42) -> CriterionResult:
    """Uniform law at p=64: per-index means and the total match closed forms."""
    cfg = MonteCarloConfig(
        dist=SamplingDistribution.uniform(), trials=100_000, seed=seed,
        period=64, n_list=(1, 16, 32),
    )
    rep = run_monte_carlo(cfg)
    lines = []
    for n in (1, 16, 32):  # each row pairs its mean with 1/192, p_tot with 1/3
        lines.append(_z_gate(f"mean p_{n} vs 1/192", rep.row("p_n", float(n)), 4))
    lines.append(_z_gate("mean p_tot vs 1/3", rep.row("p_tot"), 4))
    return CriterionResult("C3", "sampled means vs closed forms", lines)


def variance_statistics(seed: int = 7) -> CriterionResult:
    """Sample variances at p=64 versus the closed-form variance polynomials."""
    p, lines = 64, []
    laws = [SamplingDistribution.uniform(), SamplingDistribution.two_point(1.0)]
    for dist in laws:
        cfg = MonteCarloConfig(dist=dist, trials=100_000, seed=seed, period=p,
                               n_list=(1, 32), N_list=(0, 8, 16))
        rep = run_monte_carlo(cfg)
        for stat, idx in [("p_n", 1), ("p_n", 32), ("p_N", 0), ("p_N", 8), ("p_N", 16)]:
            lines.append(_z_gate(f"{dist.label} var {stat}[{idx}]", rep.row(stat, float(idx)),
                                 5, var=True))
    point = SamplingDistribution.table([1.0], [1.0], label="point-mass:1")
    cfg = MonteCarloConfig(dist=point, trials=100_000, seed=seed, period=p,
                           n_list=(1, 32), N_list=(0, 8, 16))
    rep = run_monte_carlo(cfg)
    for row in rep.rows:
        lines.append(_line(f"point-mass var {row.statistic}[{row.index}] exactly 0",
                           row.acc.variance, 0.0, "exact", row.acc.variance == 0.0))
        lines.append(_line(f"point-mass formula {row.statistic}[{row.index}]",
                           abs(row.pred_var), 0.0, "1e-15", abs(row.pred_var) <= 1e-15))
    return CriterionResult("C4", "sampled variances vs variance polynomials", lines)


def tail_concentration(seed: int = 0) -> CriterionResult:
    """Fraction of trials with p_N > sigma^2/2 at N = p/4, over growing p.

    At N = p/4 the threshold equals E(p_N) = (1 - 2N/p) sigma^2 exactly, so
    by the central limit theorem the fraction tends to 1/2, not 1, and this
    criterion reports FAIL. The 0.99 target is kept as transcribed: the
    repository holds no paper text that says whether the claim is for a
    cut-off N held fixed as p grows or for a threshold below the mean.
    """
    dist = SamplingDistribution.uniform()
    delta = dist.moments.sigma2 / 2.0
    fracs = [tail_exceedance(dist, p, p // 4, delta, 10_000, seed)
             for p in (64, 256, 1024)]
    lines = [
        _line("fraction nondecreasing over p=64,256,1024",
              min(b - a for a, b in zip(fracs, fracs[1:])), 0.0, ">= 0",
              all(a <= b for a, b in zip(fracs, fracs[1:]))),
        _line("fraction at p=1024", fracs[-1], 0.99, ">= 0.99", fracs[-1] >= 0.99),
    ]
    return CriterionResult("C5", "tail exceedance concentration", lines)


def continuous_limit(seed: int = 0) -> CriterionResult:
    """Biased table law: scaled mean identity plus O(p^-2) kernel convergence."""
    m = SamplingDistribution.table([0.0, 1.0], [0.5, 0.5]).moments
    ps = [64, 128, 256, 512, 1024, 2048, 4096]
    lines = []
    # np.max and np.min, unlike Python's max and min, do not skip a NaN
    worst = np.max([abs(p * cf.expected_pn(p, n, m) - (m.sigma2 + p * m.m1**2 * cf.abs_s_squared(p, n)))
                    for p in ps for n in (1, 2, 3)])
    lines.append(_line("p*E(p_n) = sigma^2 + p*m1^2|S_n|^2 identically",
                       worst, 0.0, "exact", worst == 0.0))
    for n in (1, 2, 3):
        scaled = []
        for p in ps:
            err = abs(m.m1**2 * cf.abs_s_squared(p, n) - cf.continuous_expected_pn(n, m))
            scaled.append(err * p * p)
        ratio = np.max(scaled) / np.min(scaled)
        lines.append(_line(f"n={n}: p^2-scaled kernel error stable (max/min)",
                           ratio, 1.0, "<= 1.5", ratio <= 1.5))
        errs = [s / (p * p) for s, p in zip(scaled, ps)]
        lines.append(_line(f"n={n}: kernel error decreasing in p",
                           errs[-1], errs[0], "strictly decreasing",
                           all(b < a for a, b in zip(errs, errs[1:]))))
    return CriterionResult("C6", "continuous-limit correspondence", lines)


def mass_escape(seed: int = 5) -> CriterionResult:
    """Unbiased law at M=256: near-window mean mass far below the total."""
    dist = SamplingDistribution.uniform()
    m2 = dist.moments.m2
    cfg = MonteCarloConfig(dist=dist, trials=10_000, seed=seed, cells=256, N_list=(8,))
    rep = run_monte_carlo(cfg)
    tot = rep.row("p_tot")
    tail = rep.row("p_N", 8.0)
    window_mean = tot.acc.mean - tail.acc.mean
    lines = [
        _line("mean sum over |n| <= 8", window_mean, m2 / 10.0, "< m2/10",
              window_mean < m2 / 10.0),
        _z_gate("mean p_tot vs m2", tot, 4),
    ]
    return CriterionResult("C7", "mass escape to large indices", lines)


def tail_variance_decay(seed: int = 9) -> CriterionResult:
    """Sample variance of p_N (N=4) strictly decreasing in the cell count."""
    dist = SamplingDistribution.uniform()
    variances = []
    for M in (16, 64, 256):
        cfg = MonteCarloConfig(dist=dist, trials=10_000, seed=seed, cells=M, N_list=(4,))
        rep = run_monte_carlo(cfg)
        variances.append(rep.row("p_N", 4.0).acc.variance)
    ok = all(b < a for a, b in zip(variances, variances[1:]))
    lines = [_line("var p_N(N=4) strictly decreasing over M=16,64,256",
                   min(a - b for a, b in zip(variances, variances[1:])), 0.0, "> 0", ok)]
    return CriterionResult("C8", "tail variance decay with cell refinement", lines)


def frequency_bounds(seed: int = 1) -> CriterionResult:
    """Overlap inequality on the grid plus the pi/2 frequency floor."""
    dist = SamplingDistribution.uniform()
    lines = []
    for p in (2, 4, 8):
        gen = rng_mod.stream(seed, p)
        measures = [fb.build_orthogonal_measure(np.ones(p))]
        measures += [fb.build_orthogonal_measure(dist.sample(gen, (p,))) for _ in range(100)]
        even, *reports = fb.check_bounds(measures, p)
        lines.append(_line(f"p={p} evenly-spread |min<|H-l0|> - pi/2|",
                           abs(even.min_abs_moment - np.pi / 2), 0.0, "1e-9",
                           abs(even.min_abs_moment - np.pi / 2) <= 1e-9))
        worst_grid = np.min([rep.autocorr_slack_min for rep in reports])
        floors = [rep.corollary2_slack for rep in reports]
        i = int(np.argmin(floors))  # the first NaN, if any
        worst_floor, worst = floors[i], measures[1 + i]
        lines.append(_line(f"p={p} grid inequality min slack over 100 measures",
                           worst_grid, 0.0, ">= -1e-9", worst_grid >= -1e-9))
        floor_label = f"p={p} frequency floor min slack over 100 measures"
        if not worst_floor >= -1e-9:
            # a floor violation would be a substantive finding; name it in full
            floor_label += (f" [counterexample points={worst.points.tolist()}"
                            f" weights={worst.weights.tolist()}]")
        lines.append(_line(floor_label, worst_floor, 0.0, ">= -1e-9",
                           worst_floor >= -1e-9))
    return CriterionResult("C9", "frequency bounds on random orthogonal measures", lines)


def near_zero_binomial(seed: int = 3) -> CriterionResult:
    """Near-zero component counts follow Binomial(p, q)."""
    row = near_zero_statistics(SamplingDistribution.uniform(), 100, 0.1, 10_000,
                               seed).row("near_zero_count", 0.1)
    lines = [
        _z_gate("count mean vs p*q", row, 4),
        _z_gate("count variance vs p*q*(1-q)", row, 5, var=True),
    ]
    return CriterionResult("C10", "near-zero count binomial statistic", lines)


def moment_observable_scaling(seed: int = 11) -> CriterionResult:
    """Windowed index moments match the leading-order prediction within 10%."""
    cfg = MonteCarloConfig(dist=SamplingDistribution.uniform(), trials=10_000,
                           seed=seed, period=1024, r_list=(1.0, 2.0))
    rep = run_monte_carlo(cfg)
    lines = []
    for r in (1.0, 2.0):
        row = rep.row("moment", r)
        rel = abs(row.acc.mean - row.pred_mean) / row.pred_mean
        lines.append(_line(f"r={r:g}: relative error vs (p/2)^r m2/(r+1)",
                           rel, 0.0, "<= 0.10", rel <= 0.10))
    return CriterionResult("C11", "folded-index moment scaling", lines)


def determinism_and_merge(seed: int = 13) -> CriterionResult:
    """Bit-identical repeats; chunked partitions merge to the single pass."""
    cfg = MonteCarloConfig(dist=SamplingDistribution.uniform(), trials=4096,
                           seed=seed, period=64, n_list=(1, 32), N_list=(0, 16),
                           r_list=(1.0,))

    def fields(rep):
        return [(r.acc.count, r.acc.mean, r.acc.m2, r.acc.m3, r.acc.m4) for r in rep.rows]

    rep1 = run_monte_carlo(cfg)
    identical = fields(rep1) == fields(run_monte_carlo(cfg))
    lines = [_line("repeated run bit-identical", 0.0 if identical else 1.0, 0.0,
                   "exact", identical)]

    chunks = len(range(0, cfg.trials, CHUNK))
    merged = run_monte_carlo(cfg, chunk_range=(0, chunks // 2)).merge(
        run_monte_carlo(cfg, chunk_range=(chunks // 2, chunks))
    )
    worst = np.max([abs(x - y) for a, b in zip(rep1.rows, merged.rows)
                    for x, y in ((a.acc.mean, b.acc.mean), (a.acc.variance, b.acc.variance))
                    if not math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)], initial=0.0)
    lines.append(_line("merged partitions vs single pass", worst, 0.0, "1e-12",
                       worst == 0.0 or worst <= 1e-12))
    same = fields(rep1) == fields(run_monte_carlo(cfg, threads=4))
    lines.append(_line("threaded run bit-identical", 0.0 if same else 1.0, 0.0,
                       "exact", same))
    return CriterionResult("C12", "determinism and partition invariance", lines)


CRITERIA = {
    "C1": unit_kernel_mass,
    "C2": model_oracle_equivalence,
    "C3": mean_statistics,
    "C4": variance_statistics,
    "C5": tail_concentration,
    "C6": continuous_limit,
    "C7": mass_escape,
    "C8": tail_variance_decay,
    "C9": frequency_bounds,
    "C10": near_zero_binomial,
    "C11": moment_observable_scaling,
    "C12": determinism_and_merge,
}

SUITES = {
    "identities": ("C1", "C2", "C6", "C12"),
    "statistics": ("C3", "C4", "C5", "C7", "C8", "C10", "C11"),
    "bounds": ("C9",),
    "all": tuple(CRITERIA),
}


def suite_seeds(suite: str, seed: int = 0) -> dict[str, int]:
    """Seed of each criterion of a named suite: its base seed offset by
    `seed`, which must stay in [0, 2^64) (ValueError otherwise)."""
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; expected one of {tuple(SUITES)}")
    bases = {cid: (CRITERIA[cid].__defaults__ or (0,))[0] for cid in SUITES[suite]}
    return {cid: rng_mod.check_seed(base + seed, f"seed of {cid}") for cid, base in bases.items()}


def run_suite(suite: str, seed: int = 0) -> list[CriterionResult]:
    """Run a named suite; `seed` offsets every criterion's base seed."""
    return [CRITERIA[cid](s) for cid, s in suite_seeds(suite, seed).items()]
