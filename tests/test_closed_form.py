"""Kernels and closed-form statistic formulas."""

import math

import numpy as np
import pytest

from anticip import (
    MomentTuple,
    SamplingDistribution,
    abs_s_squared,
    continuous_expected_pn,
    expected_moment_observable,
    expected_pN,
    expected_pn,
    expected_pn_sq,
    expected_ptot,
    lemma_unit_sum,
    var_pN,
    var_pn,
)
from anticip.closed_form import kernel_t, kernel_u, pi_tail

UNIFORM = MomentTuple(0.0, 1 / 3, 0.0, 1 / 5)
POINT = MomentTuple(1.0, 1.0, 1.0, 1.0)
BIASED = SamplingDistribution.table([0.0, 1.0], [0.5, 0.5]).moments


def test_moment_tuple_validation():
    with pytest.raises(ValueError):
        MomentTuple(0.9, 0.5, 0.0, 0.5)
    with pytest.raises(ValueError):
        MomentTuple(0.0, 0.8, 0.0, 0.3)
    assert UNIFORM.sigma2 == pytest.approx(1 / 3)


def test_lemma_unit_sum():
    for p in (2, 3, 5, 8, 16, 101, 1024):
        assert abs(lemma_unit_sum(p) - 1.0) <= 1e-12


@pytest.mark.parametrize("p", [2, 3, 7, 64, 1023, 1024, 4095, 4096])
def test_abs_s_squared_is_mirror_symmetric_bit_for_bit(p):
    # |S_n|^2 = |S_{p+1-n}|^2 = |S_{1-n}|^2 = |S_{n+p}|^2: each reads the sine at one
    # first-quadrant angle, so they agree to the bit
    n = np.arange(1, p + 1)
    s2 = abs_s_squared(p, n)
    assert np.array_equal(s2, s2[::-1])
    assert np.array_equal(abs_s_squared(p, n + 3 * p), s2) and np.array_equal(abs_s_squared(p, 1 - n), s2)
    assert abs_s_squared(p, 1) == s2[0]


def test_kernel_t_examples():
    assert kernel_t(4, 4) == 0.25
    assert kernel_t(4, 3) == 0.0
    assert kernel_t(4, 8) == 0.25


def test_kernel_u_zero_window():
    for p in (2, 3, 5, 8, 16, 101, 1024):
        assert kernel_u(p, 0) == pytest.approx(1.0, abs=1e-12)


def test_kernel_u_range_and_monotonic():
    for p in (5, 16, 101):
        values = [kernel_u(p, N) for N in range((p - 1) // 2 + 1)]
        assert all(0.0 <= u <= 1.0 + 1e-12 for u in values)
        assert all(b <= a for a, b in zip(values, values[1:]))


def test_kernels_bundle_and_ranges():
    assert pi_tail(8, 2) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        kernel_u(8, 4)


def test_expected_pn_examples():
    assert expected_pn(64, 5, UNIFORM) == pytest.approx(1 / 192, rel=1e-12)
    # degenerate law reproduces the constant model
    assert expected_pn(64, 3, POINT) == pytest.approx(abs_s_squared(64, 3), rel=1e-14)
    val = expected_pn(64, 1, MomentTuple(1.0, 1.0, 1.0, 1.0))
    assert val == pytest.approx(1 / (64 * math.sin(math.pi / 128)) ** 2, rel=1e-12)
    assert 0.40 < val < 0.41


def test_expected_pn_floor():
    for n in range(1, 17):
        assert expected_pn(16, n, BIASED) >= BIASED.sigma2 / 16


def test_var_pn_point_mass_zero():
    for p in (4, 16, 101):
        for n in (1, 2, p // 2, p):
            assert abs(var_pn(p, n, POINT)) <= 1e-15
            half = MomentTuple(0.5, 0.25, 0.125, 0.0625)
            assert abs(var_pn(p, n, half)) <= 1e-15


def test_var_pn_consistency_with_second_moment():
    for p in (8, 64):
        for n in (1, 3, p // 2):
            e2 = expected_pn_sq(p, n, BIASED)
            e1 = expected_pn(p, n, BIASED)
            assert var_pn(p, n, BIASED) == pytest.approx(e2 - e1 * e1, rel=1e-10)


def test_var_pn_omega_scaling():
    # p^2 Var(p_n) stays bounded at bulk indices away from 2n-1 = p
    vals = [p**2 * var_pn(p, p // 2, UNIFORM) for p in (64, 256, 1024)]
    assert max(vals) / min(vals) < 4.0


def test_expected_pN_edges():
    for m in (UNIFORM, BIASED):
        assert expected_pN(64, 0, m) == pytest.approx(m.m2, rel=1e-12)
    assert expected_pN(64, 16, UNIFORM) == pytest.approx(1 / 6, rel=1e-12)


def test_var_pN_point_mass_zero_and_total():
    for p, N in [(8, 0), (8, 3), (64, 16)]:
        assert abs(var_pN(p, N, POINT)) <= 1e-15
    # at N = 0 the tail is the exact total: Var = (m4 - m2^2)/p
    for m in (UNIFORM, BIASED):
        assert var_pN(64, 0, m) == pytest.approx((m.m4 - m.m2**2) / 64, rel=1e-12)


def test_variance_nonnegativity_grid():
    laws = [UNIFORM, BIASED, MomentTuple(0.0, 1.0, 0.0, 1.0)]
    for m in laws:
        for p in (4, 16, 64, 101):
            ns = np.arange(1, p + 1)
            vn = np.array([var_pn(p, int(n), m) for n in ns])
            assert vn.min() >= -1e-12
            Ns = np.arange(0, (p - 1) // 2 + 1)
            vN = np.array([var_pN(p, int(N), m) for N in Ns])
            assert vN.min() >= -1e-12


def test_expected_ptot_and_moment_orders():
    assert expected_ptot(UNIFORM) == pytest.approx(1 / 3)
    lead = expected_moment_observable(1024, 1.0, UNIFORM)
    assert lead.value == pytest.approx(512 / 3 / 2, rel=1e-12)
    assert lead.error_order == "O(p^0)"
    assert expected_moment_observable(64, 0.0, UNIFORM).value == pytest.approx(1 / 3)


def test_continuous_expectations():
    assert continuous_expected_pn(1, MomentTuple(0.0, 1 / 3, 0.0, 1 / 5)) == 0.0
    assert continuous_expected_pn(1, BIASED) == pytest.approx(
        0.25 / (np.pi / 2) ** 2, rel=1e-12
    )

    def line_pN(N):  # E(p_N) on the line: m2 less the near window n = 1-N..N
        return BIASED.m2 - sum(continuous_expected_pn(n, BIASED) for n in range(1 - N, N + 1))

    # the escaped mass m2 - m1^2 stays in the tail for every N
    for N in (0, 2, 16, 128):
        assert line_pN(N) > BIASED.sigma2
    assert line_pN(10_000) == pytest.approx(BIASED.sigma2, abs=1e-4)
    # the periodic window n = 1..N, p+1-N..p tends to the line's 1-N..N
    for N in (0, 3):
        assert expected_pN(2**15, N, BIASED) == pytest.approx(line_pN(N), abs=1e-4)


def test_pi_tail_range():
    assert pi_tail(8, 0) == 1.0
    assert pi_tail(8, 2) == 0.5
    with pytest.raises(ValueError):
        pi_tail(8, 4)
