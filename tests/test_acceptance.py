"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them all. Criterion C5 reports FAIL by construction: with N = p/4 the
tail mean E(p_N) equals its threshold sigma^2/2 exactly, so the exceedance
fraction converges to 1/2 rather than 1 (see the failure detail it prints).
`test_c05_tail_concentration` therefore checks C5's measurement against that
central-limit value, and the concentration of p_N at thresholds either side
of E(p_N), rather than C5's verdict.
"""

import math

import pytest

from anticip import closed_form as cf
from anticip import verify
from anticip.sampling import (MomentAccumulator, MonteCarloConfig, SamplingDistribution, StatRow,
                              run_monte_carlo, tail_exceedance)


def _run(cid: str) -> verify.CriterionResult:
    result = verify.CRITERIA[cid]()
    status = "PASS" if result.passed else "FAIL"
    print(f"{status}: {result.cid} {result.name} ({len(result.lines)} checks)")
    for line in result.lines:
        if not line.ok:
            print(f"    FAIL {line.label}: measured {line.measured:.6g} "
                  f"expected {line.expected:.6g} tol {line.tolerance}")
    return result


def _assert_passed(result: verify.CriterionResult) -> None:
    worst = result.worst()
    assert result.passed, (
        f"{result.cid} failed at '{worst.label}': measured {worst.measured:.6g}, "
        f"expected {worst.expected:.6g}, tolerance {worst.tolerance}"
    )


def test_c01_unit_kernel_mass():
    _assert_passed(_run("C1"))


def test_c02_model_oracle_equivalence():
    _assert_passed(_run("C2"))


def test_c03_sampled_means():
    _assert_passed(_run("C3"))


def test_c04_sampled_variances():
    _assert_passed(_run("C4"))


def test_c05_tail_concentration():
    trials = 10_000
    dist = SamplingDistribution.uniform()
    m = dist.moments
    # C5's threshold is the tail mean itself, so its fraction tends to 1/2
    assert math.isclose(cf.expected_pN(1024, 256, m), m.sigma2 / 2.0)
    lines = {line.label: line for line in _run("C5").lines}
    assert lines["fraction nondecreasing over p=64,256,1024"].ok
    frac = lines["fraction at p=1024"].measured
    assert abs(frac - 0.5) <= 4 * math.sqrt(0.25 / trials), frac

    # Var(p_N) shrinks like 1/p, so p_N concentrates around E(p_N): the
    # fraction above (1 - 1/5) E(p_N) rises to 1 and above (1 + 1/5) E(p_N)
    # falls to 0 (at p = 1024 both margins are about 3.8 standard deviations)
    above_low, above_high = [], []
    for p in (64, 256, 1024):
        mean = cf.expected_pN(p, p // 4, m)
        above_low.append(tail_exceedance(dist, p, p // 4, 0.8 * mean, trials, 0))
        above_high.append(tail_exceedance(dist, p, p // 4, 1.2 * mean, trials, 0))
    assert all(a <= b for a, b in zip(above_low, above_low[1:])), above_low
    assert above_low[-1] >= 0.99, above_low
    assert all(a >= b for a, b in zip(above_high, above_high[1:])), above_high
    assert above_high[-1] <= 0.01, above_high


def test_c06_continuous_limit():
    _assert_passed(_run("C6"))


def test_c07_mass_escape():
    _assert_passed(_run("C7"))


def test_c08_tail_variance_decay():
    _assert_passed(_run("C8"))


def test_c09_frequency_bounds():
    _assert_passed(_run("C9"))


def test_c10_near_zero_binomial():
    _assert_passed(_run("C10"))


def test_c11_moment_scaling():
    _assert_passed(_run("C11"))


def test_c12_determinism_and_merge():
    _assert_passed(_run("C12"))


@pytest.mark.parametrize("field", ["count", "m3", "m4"])
def test_c12_threaded_line_compares_every_field(monkeypatch, field):
    # a threaded run that moves one field the mean and m2 do not show fails C12's third line
    real = verify.run_monte_carlo

    def run(cfg, threads=None, **kwargs):
        rep = real(cfg, threads=threads, **kwargs)
        if threads == 4:
            for row in rep.rows:
                value = getattr(row.acc, field)
                setattr(row.acc, field, value + 1 if field == "count" else math.nextafter(value, math.inf))
        return rep

    monkeypatch.setattr(verify, "run_monte_carlo", run)
    assert [line.ok for line in verify.CRITERIA["C12"]().lines] == [True, True, False]


def test_suite_map_covers_all_criteria():
    assert set(verify.SUITES["all"]) == set(verify.CRITERIA)
    spread = set()
    for name in ("identities", "statistics", "bounds"):
        spread |= set(verify.SUITES[name])
    assert spread == set(verify.CRITERIA)


def test_z_gates_read_the_literal_values():
    # C3, C4, C7 and C10 gate each row on its own z-score: the values their labels
    # name are the rows' predictions, bit for bit
    uniform = SamplingDistribution.uniform()
    rep = run_monte_carlo(MonteCarloConfig(dist=uniform, trials=1, seed=0, period=64, n_list=(1, 16, 32)))
    assert [rep.row("p_n", float(n)).pred_mean for n in (1, 16, 32)] == [1.0 / 192.0] * 3
    assert rep.row("p_tot").pred_mean == 1.0 / 3.0
    line = run_monte_carlo(MonteCarloConfig(dist=uniform, trials=1, seed=0, cells=256, N_list=(8,)))
    assert line.row("p_tot").pred_mean == uniform.moments.m2


def test_z_gate_fails_on_nan():
    row = StatRow("p_n", 1.0, MomentAccumulator(count=10, mean=0.5, m2=1.0), pred_mean=math.nan,
                  pred_var=math.nan, exact_pred=True)
    assert not verify._z_gate("mean", row, 4).ok
    assert not verify._z_gate("variance", row, 5, var=True).ok
