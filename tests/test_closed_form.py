"""Kernels and closed-form statistic formulas."""

import itertools
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
    expected_ptot,
    lemma_unit_sum,
    var_pN,
    var_pn,
)
from anticip.closed_form import kernel_t, kernel_u, pi_tail
from anticip.models import ModelSpec, closed_form_pn
from anticip.spectral import half_step_roots, line_factor

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


# Laws of two and three atoms whose (m4, m1*m3, m2^2, m1^2*m2, m1^4) vectors have rank 5.
# Every mean and variance of a p_n or p_N is linear in these five monomials, as the closed
# forms are, so agreeing on these laws proves the closed forms for every law at that p.
ENUMERATED_LAWS = [
    SamplingDistribution.table([0.0, 1.0], [0.5, 0.5]),
    SamplingDistribution.table([-1.0, 0.5], [0.25, 0.75]),
    SamplingDistribution.table([-0.25, 1.0], [0.5, 0.5]),
    SamplingDistribution.table([-1.0, 0.0, 1.0], [0.25, 0.5, 0.25]),
    SamplingDistribution.table([-0.5, 0.0, 0.75], [0.25, 0.25, 0.5]),
    SamplingDistribution.table([-0.2, 0.5, 1.0], [0.5, 0.25, 0.25]),
]


def _enumerated_moments(dist, p):
    """Exact mean and variance of p_n for n = 1..p, then of p_N for N = 0..(p-1)//2, over
    all atoms^p configurations of the law, each weighted by its probability: p_n =
    |p^-1 sum_k y_k exp(-2*pi*i*(n-1/2)*k/p)|^2 and p_N the sum of p_n over n = N+1..p-N.
    The weighted sums are correctly rounded (fsum): a BLAS product adds the 3^9 terms
    in sequence and strayed 1.5e-13 relative."""
    idx = np.array(list(itertools.product(range(dist.points.size), repeat=p)))
    y, weight = dist.points[idx], dist.masses[idx].prod(axis=1)
    pn = np.abs(y @ np.exp(-2j * np.pi * np.outer(np.arange(p), np.arange(1, p + 1) - 0.5) / p) / p) ** 2
    stats = np.vstack([pn.T, *(pn[:, N:p - N].sum(axis=1) for N in range((p - 1) // 2 + 1))])
    mean = np.array([math.fsum(row) for row in weight * stats])
    return mean, [math.fsum(row) for row in weight * (stats - mean[:, None]) ** 2]


def test_moments_equal_exact_enumeration():
    monomials = [[m.m4, m.m1 * m.m3, m.m2**2, m.m1**2 * m.m2, m.m1**4]
                 for m in (dist.moments for dist in ENUMERATED_LAWS)]
    assert np.linalg.matrix_rank(monomials) == 5
    for dist, p in itertools.product(ENUMERATED_LAWS, range(2, 10)):
        m, Ns = dist.moments, range((p - 1) // 2 + 1)
        mean, var = _enumerated_moments(dist, p)
        want_mean = [*(expected_pn(p, n, m) for n in range(1, p + 1)), *(expected_pN(p, N, m) for N in Ns)]
        want_var = [*(var_pn(p, n, m) for n in range(1, p + 1)), *(var_pN(p, N, m) for N in Ns)]
        np.testing.assert_allclose(mean, want_mean, rtol=1e-13, atol=0, err_msg=f"{dist.label} p={p}")
        np.testing.assert_allclose(var, want_var, rtol=1e-13, atol=0, err_msg=f"{dist.label} p={p}")


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


# The fold expressions that `_half_bin` replaced, kept as the bits' reference
def _reference_abs_s_squared(p, n):
    m = (n - 1) % p + 1
    return 1.0 / (p * np.sin(np.pi * np.minimum(m - 0.5, p - m + 0.5) / p)) ** 2


def _reference_closed_form_pn(kind, p, y, n):
    n = (n % p - 1) % p + 1
    omega = n.astype(float) - 0.5
    if kind == "alt-periodic":
        return (y / (p * np.sin(np.pi * np.abs(p / 2 - omega) / p))) ** 2
    vals = (y / (p * np.sin(np.pi * np.minimum(omega, p - omega) / p))) ** 2
    return np.where((2 * n - 1) % p == 0, (y / p) ** 2, vals)


def _reference_line_factor(cells, n):
    roots, j = half_step_roots(2 * cells), (2 * n - 1) % (4 * cells)
    k = j % (2 * cells)
    sin = roots[np.minimum(k, 2 * cells - k)].imag * np.where(j < 2 * cells, -1.0, 1.0)
    return roots[j] * (sin * cells / (np.pi * (n - 0.5)))


@pytest.mark.parametrize("periods", [range(2, 300), (1023, 1024), (4095, 4096), (65535,), (65536,)], ids=str)
def test_half_bin_readers_keep_their_bits(periods):
    # n = -2p..2p and the far ends a line or a model may ask for; var_pn is held to its
    # value at the cell c = (n-1) mod p + 1 that the line's predictions used to pass, at
    # every n up to p = 4096 and at the far ends, n = -2..2 and each multiple of p/2 +-2
    # beyond, as its 8 us per call would take 4 s over the 2^18 n's of p = 65536
    def same(a, b):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.uint64), b.view(np.uint64)), p

    far = [2**53, -(2**53), 2**62 - 1, 1 - 2**62]
    for p in periods:
        n = np.array([*range(-2 * p, 2 * p + 1), *far], dtype=np.int64)
        same(abs_s_squared(p, n), _reference_abs_s_squared(p, n))
        for kind in ("const-periodic", "alt-periodic")[: 2 - p % 2]:
            same(closed_form_pn(ModelSpec(kind, p, 0.3), n), _reference_closed_form_pn(kind, p, 0.3, n))
        same(line_factor(p, n), _reference_line_factor(p, n))
        edges = {k * p // 2 + d for k in range(-4, 5) for d in range(-2, 3)} if p > 4096 else n.tolist()
        for k in sorted({*edges, *far}):
            assert var_pn(p, k, BIASED) == var_pn(p, (k - 1) % p + 1, BIASED), (p, k)
