"""Command-line surface: model tables, Monte Carlo runs, verification suites
and frequency-bound checks, with byte-stable CSV/JSON output."""
from __future__ import annotations

import contextlib
import itertools
import json
import sys

import click

from . import __version__
from . import bounds as fb
from . import rng as rng_mod
from .models import ModelSpec, closed_form_pn, make_model
from .sampling import (
    MonteCarloConfig,
    SamplingDistribution,
    parse_distribution,
    resolve_threads,
    run_monte_carlo,
)
from .spectral import (
    amplitudes_continuous,
    amplitudes_periodic,
    folded_index,
    probabilities,
    truncation_window,
)
from .verify import SUITES, run_suite, suite_seeds

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
# click maps UsageError to exit code 2


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    text = str(value)
    if any(ch in text for ch in ',"\n'):
        text = '"' + text.replace('"', '""') + '"'
    return text


def _emit(rows, header: list[str], config: dict, fmt: str, out: str) -> None:
    """Write the row dicts, any iterable, to `out` (- for stdout): CSV lines as
    the rows are formatted, in writes of up to 4,096 lines, or one JSON document."""
    with (contextlib.nullcontext(click.get_text_stream("stdout")) if out == "-"
          else open(out, "w", encoding="utf-8", newline="\n")) as fh:
        if fmt == "json":
            fh.write(json.dumps({"config": config, "results": list(rows)}, indent=2) + "\n")
            return
        lines = (",".join(_fmt(row.get(col)) for col in header) + "\n" for row in rows)
        fh.write(",".join(header) + "\n")
        for block in iter(lambda: "".join(itertools.islice(lines, 4096)), ""):
            fh.write(block)


def _parse_list(text: str | None, kind=int) -> tuple:
    if not text:
        return ()
    try:
        return tuple(kind(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise click.UsageError(f"bad list {text!r}: {exc}") from exc


format_option = click.option(
    "--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
    show_default=True, help="Output format.",
)
out_option = click.option(
    "--out", default="-", show_default=True, help="Output path, or - for stdout."
)
seed_option = click.option(
    "--seed", type=click.IntRange(0, (1 << 64) - 1), default=0, show_default=True,
    help="Base RNG seed, in [0, 2^64).",
)


@click.group()
@click.version_option(version=__version__, prog_name="anticip")
def main():
    """Anticipation statistics of orthogonally evolving quantum states."""
    try:
        resolve_threads(None)  # a malformed ANTICIP_THREADS is a usage error
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


@main.command()
@click.option("--kind", required=True,
              type=click.Choice(["const-periodic", "alt-periodic",
                                 "const-continuous", "alt-continuous"]))
@click.option("--period", type=int, default=None, help="Size for periodic kinds.")
@click.option("--cells", type=int, default=None, help="Size for continuous kinds.")
@click.option("--y", "amplitude", type=float, required=True, help="Difference amplitude in [-1, 1].")
@click.option("--n-min", type=int, default=None, help="First index; defaults to 1.")
@click.option("--n-max", type=int, default=None,
              help="Last index; defaults to the period, or to the tail-bound window for continuous kinds.")
@format_option
@out_option
def model(kind, period, cells, amplitude, n_min, n_max, fmt, out):
    """Tabulate one model state against its closed form."""
    periodic = kind.endswith("-periodic")
    size = period if periodic else cells
    if size is None:
        # constant continuous differences are cell-count independent
        if kind == "const-continuous":
            size = 2
        else:
            raise click.UsageError(
                f"--{'period' if periodic else 'cells'} is required for {kind}"
            )
    try:
        spec = ModelSpec(kind, size, amplitude)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc

    sd = make_model(spec)
    lo = 1 if n_min is None else n_min
    hi = n_max if n_max is not None else (size if periodic else truncation_window(sd))
    if lo > hi:
        raise click.UsageError("--n-min must not exceed --n-max")
    if not periodic and max(-lo, hi) >= 1 << 62:  # line_factor forms 2n - 1 in int64
        raise click.UsageError(f"line indices {lo}..{hi} outside |n| < 2^62")
    ns = range(lo, hi + 1)
    if periodic:  # alpha_{n+p} = alpha_n; Python's complex abs, not numpy's, keeps p_n's bits
        alpha = amplitudes_periodic(sd).values[[(n - 1) % size for n in ns]].tolist()
        pn = [abs(a) ** 2 for a in alpha]
    else:
        amps = amplitudes_continuous(sd, lo, hi)
        alpha, pn = amps.values.tolist(), probabilities(amps).values.tolist()

    closed = closed_form_pn(spec, ns).tolist()
    errs = [abs(prob - c) for prob, c in zip(pn, closed)]
    worst = max([0.0, *errs])
    rows = ({
        "n": n,
        "tilde_n": int(folded_index(n, size)) if periodic else abs(n),
        "re_alpha": a.real,
        "im_alpha": a.imag,
        "p_n": prob,
        "closed_form_p_n": c,
        "abs_err": err,
    } for n, a, prob, c, err in zip(ns, alpha, pn, closed, errs))
    config = {"command": "model", "kind": kind, "size": size, "y": amplitude,
              "n_min": lo, "n_max": hi, "max_abs_err": worst}
    header = ["n", "tilde_n", "re_alpha", "im_alpha", "p_n", "closed_form_p_n", "abs_err"]
    _emit(rows, header, config, fmt, out)
    sys.exit(EXIT_OK if worst <= 1e-10 else EXIT_CHECK_FAILED)


# near-zero rows keep these keys first in their JSON objects
_NEAR_ZERO_LEAD = ("mode", "size", "trials", "seed", "note")


def _sample_rows(report, q: float | None = None) -> list[dict]:
    """One row per statistic; a near-zero count row is followed by the
    chi-square fit of the report's histogram to Binomial(size, q)."""
    rows = []
    for r in report.rows:
        row = {
            "mode": report.mode,
            "size": report.size,
            "statistic": r.statistic,
            "index": None if r.index is None else r.index,
            "trials": r.acc.count,
            "seed": report.seed,
            "mean": r.acc.mean,
            "variance": r.acc.variance,
            "std_error": r.acc.std_error,
            "pred_mean": r.pred_mean,
            "z_mean": r.z_mean,
            "pred_var": r.pred_var,
            "z_var": r.z_var,
            "note": r.note,
        }
        if r.statistic != "near_zero_count":
            rows.append(row)
            continue
        row = {key: row[key] for key in _NEAR_ZERO_LEAD} | row
        stat, dof = report.chi_square(q)
        rows += [row, dict(row, statistic="near_zero_chi_square", mean=stat,
                           variance=None, std_error=None, pred_mean=float(dof),
                           z_mean=None, pred_var=None, z_var=None,
                           note=f"{r.note} dof={dof}")]
    return rows


SAMPLE_HEADER = ["mode", "size", "statistic", "index", "trials", "seed", "mean",
                 "variance", "std_error", "pred_mean", "z_mean", "pred_var",
                 "z_var", "note"]


def _run_sample(period, cells, dist_text, trials, seed, ns, Ns, rs, epsilon, threads):
    try:
        dist = parse_distribution(dist_text)
        cfg = MonteCarloConfig(
            dist=dist, trials=trials, seed=seed, period=period, cells=cells,
            n_list=_parse_list(ns), N_list=_parse_list(Ns),
            r_list=_parse_list(rs, float), epsilon=epsilon,
        )
    except (ValueError, OSError, KeyError) as exc:
        raise click.UsageError(str(exc)) from exc
    report = run_monte_carlo(cfg, threads=threads)
    q = None if epsilon is None else dist.mass_within(epsilon)
    rows = _sample_rows(report, q)
    config = {"command": "sample", "mode": report.mode, "size": report.size,
              "dist": dist.label, "trials": trials, "seed": seed,
              "n": list(cfg.n_list), "N": list(cfg.N_list), "r": list(cfg.r_list),
              "epsilon": epsilon}
    return rows, config, report.max_abs_z()


@main.command()
@click.option("--period", type=int, default=None, help="Period p (periodic mode).")
@click.option("--cells", type=int, default=None, help="Cell count M (continuous mode).")
@click.option("--dist", "dist_text", default="uniform", show_default=True,
              help="uniform | two-point:<y0> | table:<json path>")
@click.option("--trials", type=int, default=10_000, show_default=True)
@seed_option
@click.option("--n", "ns", default=None, help="Comma-separated step indices.")
@click.option("--N", "Ns", default=None, help="Comma-separated tail cut-offs.")
@click.option("--r", "rs", default=None, help="Comma-separated moment orders.")
@click.option("--epsilon", type=float, default=None, help="Near-zero count threshold.")
@click.option("--threads", type=click.IntRange(min=1), default=None,
              help="Worker threads; defaults to ANTICIP_THREADS or 1. Never changes results.")
@format_option
@out_option
def sample(period, cells, dist_text, trials, seed, ns, Ns, rs, epsilon, threads, fmt, out):
    """Monte Carlo estimates paired with closed-form predictions."""
    rows, config, worst = _run_sample(period, cells, dist_text, trials, seed,
                                      ns, Ns, rs, epsilon, threads)
    _emit(rows, SAMPLE_HEADER, config, fmt, out)
    sys.exit(EXIT_OK if worst <= 5.0 else EXIT_CHECK_FAILED)


@main.command()
@click.option("--periods", required=True, help="Comma-separated list of periods.")
@click.option("--dist", "dist_text", default="uniform", show_default=True)
@click.option("--trials", type=int, default=10_000, show_default=True)
@seed_option
@click.option("--n", "ns", default=None, help="Comma-separated step indices.")
@click.option("--N", "Ns", default=None, help="Comma-separated tail cut-offs.")
@click.option("--r", "rs", default=None, help="Comma-separated moment orders.")
@click.option("--threads", type=click.IntRange(min=1), default=None)
@format_option
@out_option
def sweep(periods, dist_text, trials, seed, ns, Ns, rs, threads, fmt, out):
    """Repeat `sample` over several periods; one row per (period, statistic)."""
    rows, worsts = [], []
    plist = _parse_list(periods)
    if not plist:
        raise click.UsageError("--periods must name at least one period")
    for p in plist:
        prows, _, w = _run_sample(p, None, dist_text, trials, seed, ns, Ns, rs,
                                  None, threads)
        rows.extend(prows)
        worsts.append(w)
    config = {"command": "sweep", "periods": list(plist), "dist": dist_text,
              "trials": trials, "seed": seed}
    _emit(rows, SAMPLE_HEADER, config, fmt, out)
    sys.exit(EXIT_OK if all(w <= 5.0 for w in worsts) else EXIT_CHECK_FAILED)


@main.command()
@click.option("--suite", type=click.Choice(sorted(SUITES)), default="all",
              show_default=True)
@seed_option
@format_option
@out_option
def verify(suite, seed, fmt, out):
    """Run a verification suite; one PASS/FAIL row per criterion."""
    try:
        suite_seeds(suite, seed)
    except ValueError as exc:  # a criterion's offset seed left [0, 2^64)
        raise click.UsageError(f"--seed {seed}: {exc}") from exc
    results = run_suite(suite, seed)
    rows = []
    for res in results:
        worst = res.worst()
        rows.append({
            "criterion": res.cid,
            "name": res.name,
            "seed": seed,
            "checks": len(res.lines),
            "status": "PASS" if res.passed else "FAIL",
            "detail": "" if worst is None else
                      f"{worst.label}: measured {worst.measured:.6g} "
                      f"expected {worst.expected:.6g} tol {worst.tolerance}",
        })
    config = {"command": "verify", "suite": suite, "seed": seed}
    _emit(rows, ["criterion", "name", "seed", "checks", "status", "detail"], config, fmt, out)
    sys.exit(EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED)


@main.command()
@click.option("--period", type=int, required=True, help="Orthogonal-evolution period.")
@click.option("--count", type=click.IntRange(min=1), default=100, show_default=True,
              help="Number of random measures (plus the evenly-spread one).")
@seed_option
@format_option
@out_option
def bound(period, count, seed, fmt, out):
    """Frequency-bound checks over random orthogonal measures."""
    if period < 2:
        raise click.UsageError("--period must be at least 2")
    dist = SamplingDistribution.uniform()
    rows = []
    gen = rng_mod.stream(seed, 1)
    measures = [("evenly-spread", fb.build_orthogonal_measure([1.0] * period))]
    measures += [(f"random-{i}", fb.build_orthogonal_measure(dist.sample(gen, (period,))))
                 for i in range(count)]
    reports = fb.check_bounds([meas for _, meas in measures], period)
    for (label, _), rep in zip(measures, reports):
        rows.append({
            "period": period,
            "measure": label,
            "seed": seed,
            "lambda0": rep.lambda0,
            "min_abs_moment": rep.min_abs_moment,
            "corollary2_slack": rep.corollary2_slack,
            "passage_slack": rep.passage_slack,
            "grid_slack_min": rep.autocorr_slack_min,
            "orthogonality_dev": rep.orthogonality_dev,
            "status": "PASS" if rep.ok else "FAIL",
        })
    config = {"command": "bound", "period": period, "count": count, "seed": seed,
              "t_max": fb.GRID_T_MAX, "t_step": fb.GRID_T_STEP}
    header = ["period", "measure", "seed", "lambda0", "min_abs_moment",
              "corollary2_slack", "passage_slack", "grid_slack_min",
              "orthogonality_dev", "status"]
    _emit(rows, header, config, fmt, out)
    sys.exit(EXIT_OK if all(r.ok for r in reports) else EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
