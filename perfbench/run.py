"""Benchmark for anticip: named workloads run as fresh `python` processes.

Usage, from the root of a checkout (the package need not be installed):

    python3 perfbench/run.py --workload mc-small-p --seed 1 --seconds 28 --trace 0

`--trace 0` times the workload end to end, untraced, as often as fits in
`--seconds`, each run between two runs of the fixed `perfbench/reference.py`,
and reports `wall_vs_ref`, `setup_s` and `peak_rss_mb`. `--trace 1`
alternates untraced runs with runs under `perfbench/traced.py` and reports the
per-layer metrics, with one more run under `traced.py --memory` for the
engine's memory peak. Every run's output is checked; the last line of stdout is
one JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
See perfbench/README.md for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED = "perfbench/traced.py"
REFERENCE = "perfbench/reference.py"

# The package is run from source, never from an installed copy, with nothing
# inherited from the caller's environment but PATH; in particular
# ANTICIP_THREADS does not reach the program. BLAS runs on one thread: every
# child then keeps one core busy, so host steal on the other vCPU does not stall
# it, and it sees the machine as the single-threaded reference does. (On two
# vCPUs, OpenBLAS on two threads gave exact-oracle no shorter wall time.)
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_ENV = {"PATH": os.environ.get("PATH", os.defpath), "PYTHONPATH": "src",
             "PYTHONHASHSEED": "0", **{var: "1" for var in BLAS_THREAD_VARS}}

SETUP_ARGV = ["-c", "import anticip.cli"]
SETUP_PER_ROUND = 2    # fresh `import anticip.cli` processes timed per workload run
# Typical wall time of reference.py on a shared 2-vCPU machine (Python 3.11.7,
# NumPy 2.4.6). setup_s is reported in seconds of a machine that runs the
# reference in this time, so that a slow or fast phase of a shared host does
# not read as a change of the set-up time. Never change it between two
# commits that are compared.
REFERENCE_S = 0.45
MIN_RUNS = 3           # untraced workload runs per benchmark run, at least
CHILD_TIMEOUT_S = 40   # a run that takes longer is killed and fails; 3 such end in 180 s

SAMPLE_HEADER = ("mode,size,statistic,index,trials,seed,mean,variance,std_error,"
                 "pred_mean,z_mean,pred_var,z_var,note")
VERIFY_HEADER = "criterion,name,seed,checks,status,detail"
# C5 fails by construction (README, ROADMAP "Standing facts"): exit 1 with
# exactly this status table is the correct result of `verify --suite all`.
VERIFY_EXPECTED = {f"C{k}": "FAIL" if k == 5 else "PASS" for k in range(1, 13)}
Z_GATE = 5.0
ORACLE_TOLERANCE = 1e-12

# unit of a per-layer metric by the last part of its name; all others are seconds
LAYER_UNITS = {"calls": "count", "rows_drawn": "count", "macs": "count",
               "useful_draw_ratio": "ratio", "chunk_bytes": "B"}


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine from the first line of
    /proc/stat, or None where it cannot be read. Steal is time the hypervisor
    ran other guests on this machine's virtual CPUs."""
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        # user nice system idle iowait irq softirq steal; guest is inside user
        ticks = [int(x) for x in fields[1:9]]
    except (OSError, ValueError):
        return None
    if fields[0] != "cpu" or len(ticks) != 8:
        return None
    return ticks[7], sum(ticks)


def steal_share(before: tuple[int, int] | None,
                after: tuple[int, int] | None) -> float | None:
    """Share of the machine's CPU time taken as steal between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    code: int
    out: bytes
    err: bytes
    steal: float | None   # host steal share while the child ran


def spawn(argv: list[str]) -> Outcome:
    """Run `python <argv>` from the checkout root; time it from spawn to exit
    and read its own rusage with wait4, never RUSAGE_CHILDREN, which is the
    maximum over every child reaped so far."""
    ticks = cpu_ticks()
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=CHILD_ENV,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        reader.join()
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                   proc.returncode, out, err[0] if err else b"",
                   steal_share(ticks, cpu_ticks()))


# -- workloads and their correctness checks ----------------------------------

def _csv_rows(out: bytes, header: str) -> list[dict]:
    text = out.decode("utf-8")
    first = text.split("\n", 1)[0]
    if first != header:
        raise ValueError(f"header {first!r}")
    return list(csv.DictReader(io.StringIO(text)))


def check_sample(trials: int, n_rows: int):
    def check(outcome: Outcome) -> None:
        if outcome.code != 0:
            raise ValueError(f"exit {outcome.code}")
        rows = _csv_rows(outcome.out, SAMPLE_HEADER)
        if len(rows) != n_rows:
            raise ValueError(f"{len(rows)} rows, expected {n_rows}")
        for row in rows:
            if int(row["trials"]) != trials:
                raise ValueError(f"{row['statistic']}: {row['trials']} trials")
            for col in ("z_mean", "z_var"):
                # the program's own gate; a NaN z-score fails it as well
                if row["statistic"] in ("p_tot", "p_n", "p_N") and row[col] != "" \
                        and not abs(float(row[col])) <= Z_GATE:
                    raise ValueError(f"{row['statistic']}[{row['index']}] {col}={row[col]}")
    return check


def check_verify(outcome: Outcome) -> None:
    if outcome.code != 1:
        raise ValueError(f"exit {outcome.code}, expected 1 (C5 fails by construction)")
    status = {row["criterion"]: row["status"]
              for row in _csv_rows(outcome.out, VERIFY_HEADER)}
    if status != VERIFY_EXPECTED:
        raise ValueError(f"statuses {status}")


def check_oracle(outcome: Outcome) -> None:
    if outcome.code != 0:
        raise ValueError(f"exit {outcome.code}")
    fields = dict(part.split("=", 1) for part in outcome.out.decode().split())
    if not float(fields["max_abs_diff"]) <= ORACLE_TOLERANCE:
        raise ValueError(f"max |exact-sum - fast-transform| = {fields['max_abs_diff']}")


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple[str, ...]   # `python` arguments; the seed is appended
    check: Callable[[Outcome], None]  # raises ValueError on a wrong result

    def argv(self, seed: int) -> list[str]:
        # the program sees only this derived seed, never the benchmark's own
        cli_seed = random.Random(f"{self.name}:{seed}").randrange(2**31)
        return [*self.args, "--seed", str(cli_seed)]


WORKLOADS = {w.name: w for w in (
    # 1,563 chunks of 256 trials, each drawn twice (--epsilon re-reads every
    # stream): per-chunk overhead dominates, and 10 of 64 bins are needed.
    # The sampling workloads run on one thread: two threads that take turns
    # at the GIL stall whenever the host steals the holder's vCPU
    Workload("mc-small-p",
             ("-m", "anticip", "sample", "--period", "64", "--trials", "400000",
              "--n", "1,32", "--N", "0,4", "--epsilon", "0.1", "--threads", "1"),
             check_sample(400000, 7)),
    # few large chunks; --r needs the full spectrum, so the batched FFT and
    # the draws dominate; sets the per-chunk memory peak
    Workload("mc-large-p",
             ("-m", "anticip", "sample", "--period", "4096", "--trials", "20000",
              "--n", "1,2048", "--N", "0,1024", "--r", "1,2", "--threads", "1"),
             check_sample(20000, 7)),
    # the mix users run; the only workload reaching bounds and the
    # continuous kernel
    Workload("verify-all", ("-m", "anticip", "verify", "--suite", "all"), check_verify),
    # the O(p^2) exact-sum oracle at p = 8192, nothing else runs it
    Workload("exact-oracle", ("perfbench/oracle.py",), check_oracle),
)}


class Checker:
    """Counts runs and failures of one workload; a run fails on a wrong
    result or on stdout that differs from the first run's (determinism)."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.reference: bytes | None = None
        self.attempted = self.failed = 0
        self.steal: list[float] = []   # of every checked run, where readable

    def __call__(self, outcome: Outcome, label: str, also=None) -> None:
        self.attempted += 1
        if outcome.steal is not None:
            self.steal.append(outcome.steal)
        try:
            self.workload.check(outcome)
            if also is not None:
                also(outcome)
            if self.reference is None:
                self.reference = outcome.out
            elif outcome.out != self.reference:
                raise ValueError("stdout differs from the first run")
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            self.failed += 1
            tail = outcome.err.decode(errors="replace").strip().splitlines()[-3:]
            print(f"FAILED {self.workload.name} ({label}): {exc} {tail}", file=sys.stderr)


# -- measurement ------------------------------------------------------------

def check_import() -> None:
    """Fail unless the children import anticip from this checkout's src/.
    The run also fills the bytecode caches before anything is timed."""
    probe = spawn(["-c", "import anticip, anticip.cli; print(anticip.__file__)"])
    where = Path(probe.out.decode(errors="replace").strip() or ".")
    if probe.code != 0 or ROOT / "src" not in where.resolve().parents:
        raise RuntimeError(f"cannot import anticip from {ROOT / 'src'}: "
                           f"{probe.err.decode(errors='replace').strip()[-500:]}")


class Reference:
    """Runs of `perfbench/reference.py`, which does not import anticip: its
    wall time follows the speed of the machine alone."""

    def __init__(self):
        self.output: bytes | None = None
        self.walls: list[float] = []

    def run(self) -> None:
        outcome = spawn([REFERENCE])
        if outcome.code != 0 or self.output not in (None, outcome.out):
            raise RuntimeError(f"reference run: exit {outcome.code}, stdout "
                               f"{outcome.out[:80]!r}, stderr "
                               f"{outcome.err.decode(errors='replace').strip()[-300:]}")
        self.output = outcome.out
        self.walls.append(outcome.wall_s)


def more(done: list[float], start: float, seconds: float) -> bool:
    """Whether to start another round: the round, if it takes as long as the
    median one so far, must end less than half a round past the deadline."""
    elapsed = time.perf_counter() - start
    return elapsed + 0.5 * statistics.median(done) < seconds


def end_to_end(workload: Workload, seed: int, seconds: float,
               checker: Checker) -> tuple[dict, int, list[str]]:
    """Rounds of: SETUP_PER_ROUND setup processes, the workload, and a
    reference run. Each round thus lies between two reference runs (the first
    one comes before the first round), and every workload and setup time is
    divided by the mean of those two."""
    argv = workload.argv(seed)
    reference = Reference()
    runs, setups, rounds = [], [], []
    start = time.perf_counter()
    reference.run()
    while len(runs) < MIN_RUNS or more(rounds, start, seconds):
        began = time.perf_counter()
        setups.append([spawn(SETUP_ARGV).wall_s for _ in range(SETUP_PER_ROUND)])
        runs.append(spawn(argv))
        checker(runs[-1], "untraced")
        reference.run()
        rounds.append(time.perf_counter() - began)
    refs = reference.walls
    around = [0.5 * (before + after) for before, after in zip(refs, refs[1:])]
    ratios = [run.wall_s / ref for run, ref in zip(runs, around)]
    setup_ratios = [wall / ref for walls, ref in zip(setups, around) for wall in walls]
    notes = [f"wall_s (median) {statistics.median(r.wall_s for r in runs):.6g} s; "
             f"setup (median, uncalibrated) "
             f"{statistics.median(w for walls in setups for w in walls):.6g} s; "
             f"reference.py (median) {statistics.median(refs):.6g} s over {len(refs)} runs"]
    return {
        "wall_vs_ref": (statistics.median(ratios), "ratio"),
        "setup_s": (statistics.median(setup_ratios) * REFERENCE_S, "s"),
        "peak_rss_mb": (statistics.median(r.maxrss_kb for r in runs) / 1024.0, "MB"),
    }, len(runs), notes


def per_layer(workload: Workload, seed: int, seconds: float,
              checker: Checker) -> tuple[dict, int, list[str]]:
    argv = workload.argv(seed)
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    # one run for the engine's memory peak: tracemalloc is too slow to share
    # a run with the span times
    memory = spawn([TRACED, "--memory", *argv])
    checker(memory, "memory-traced", also=lambda outcome: layers.append(
        json.loads(outcome.err.decode().strip().splitlines()[-1])["metrics"]))
    chunk_bytes = layers.pop()["sampling.chunk_bytes"] if layers else 0.0
    while not traced or more([a.wall_s + b.wall_s for a, b in zip(plain, traced)],
                             start, seconds):
        plain.append(spawn(argv))
        checker(plain[-1], "untraced")
        traced.append(spawn([TRACED, *argv]))
        # the span summary is the last line of the traced run's stderr
        checker(traced[-1], "traced", also=lambda outcome: layers.append(
            json.loads(outcome.err.decode().strip().splitlines()[-1])["metrics"]))
    metrics = {}
    for name in (layers[0] if layers else {}):
        unit = LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")
        metrics[name] = (statistics.median(layer[name] for layer in layers), unit)
    metrics["sampling.chunk_bytes"] = (chunk_bytes, "B")
    metrics["process.wall_s"] = (statistics.median(r.wall_s for r in plain), "s")
    metrics["process.cpu_s"] = (statistics.median(r.cpu_s for r in plain), "s")
    metrics["trace.overhead_s"] = (statistics.median(r.wall_s for r in traced)
                                   - statistics.median(r.wall_s for r in plain), "s")
    return metrics, len(plain), []


def environment(steal: float | None) -> dict:
    """What the numbers depend on, recorded next to them."""
    versions = {}
    for dist in ("numpy", "click"):
        try:
            versions[dist] = metadata.version(dist)
        except metadata.PackageNotFoundError:
            versions[dist] = "missing"
    try:
        import numpy
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        blas = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": sys.version.split()[0],
        **versions,
        "blas": blas,
        "blas_threads": "1 (" + ", ".join(BLAS_THREAD_VARS)
                        + " in the child environment)",
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit,
        "child_env": CHILD_ENV,
        "host_steal_share": steal,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    checker = Checker(workload)
    measure = per_layer if args.trace else end_to_end
    ticks = cpu_ticks()
    try:
        check_import()
        metrics, runs, notes = measure(workload, args.seed, args.seconds, checker)
    except RuntimeError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    steal = steal_share(ticks, cpu_ticks())
    if args.trace:
        # 0 where /proc/stat cannot be read; the env line then says null
        metrics["host.steal_share"] = (steal or 0.0, "ratio")

    print("env " + json.dumps(environment(steal), sort_keys=True))
    print(f"workload {workload.name}: python {' '.join(workload.argv(args.seed))}")
    print(f"  untraced runs {runs}; values are medians over runs")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:.6g} {unit}")
    if checker.steal:
        print(f"  {'host steal share per checked run':<36} "
              f"{' '.join(f'{x:.3f}' for x in checker.steal)}")
    print(f"  {'error_rate':<36} {checker.failed / checker.attempted:.6g} "
          f"({checker.failed} failed / {checker.attempted} attempted)")
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
