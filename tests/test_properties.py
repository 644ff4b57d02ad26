"""Property-based checks of the transform identities."""

import numpy as np
import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ModuleNotFoundError:  # pragma: no cover
    pytest.skip("hypothesis is required for property-based tests", allow_module_level=True)

from anticip import (
    SpectralDifferenceContinuous,
    SpectralDifferencePeriodic,
    amplitudes_continuous,
    amplitudes_periodic,
    cumulative_probability,
    half_step_amplitudes,
    parseval_total,
    probabilities,
    tilde_index,
)

component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)
periodic_values = st.lists(component, min_size=2, max_size=48)
continuous_values = st.lists(component, min_size=2, max_size=24)


@given(values=periodic_values)
def test_parseval_periodic(values):
    sd = SpectralDifferencePeriodic(values)
    pr = probabilities(amplitudes_periodic(sd))
    assert pr.p_tot == pytest.approx(parseval_total(sd), rel=1e-12, abs=1e-12)


@given(values=periodic_values)
def test_symmetry_periodic(values):
    sd = SpectralDifferencePeriodic(values)
    p = sd.period
    pr = probabilities(amplitudes_periodic(sd))
    for n in range(1, p + 1):
        partner = (p + 1 - n - 1) % p
        assert pr.values[n - 1] == pytest.approx(pr.values[partner], abs=1e-12)


@given(values=periodic_values)
def test_transform_modes_agree(values):
    sd = SpectralDifferencePeriodic(values)
    fast = amplitudes_periodic(sd, "fast-transform").values
    exact = amplitudes_periodic(sd, "exact-sum").values
    assert np.max(np.abs(fast - exact)) <= 1e-12


@given(values=periodic_values)
def test_half_step_amplitudes_match_exact_sum_and_mirror(values):
    sd = SpectralDifferencePeriodic(values)
    half = half_step_amplitudes(sd.values)
    exact = amplitudes_periodic(sd, "exact-sum").values
    assert half.shape == ((sd.period + 1) // 2,)
    assert np.max(np.abs(half - exact[: half.size])) <= 1e-12
    full = amplitudes_periodic(sd).values
    assert np.array_equal(full[::-1], full.conj())  # alpha_{p+1-n} = conj(alpha_n)


@given(rows=st.integers(min_value=2, max_value=48).flatmap(
    lambda p: st.lists(st.lists(component, min_size=p, max_size=p), min_size=1, max_size=6)))
def test_half_step_amplitudes_batched_rows_bit_identical(rows):
    batch = half_step_amplitudes(np.array(rows))
    for row, out in zip(rows, batch):
        assert half_step_amplitudes(np.array(row)).tobytes() == out.tobytes()


@given(values=periodic_values)
def test_probabilities_in_unit_interval(values):
    pr = probabilities(amplitudes_periodic(SpectralDifferencePeriodic(values)))
    assert pr.values.min() >= 0.0
    assert pr.values.max() <= 1.0 + 1e-12
    assert pr.p_tot <= 1.0 + 1e-9


@given(values=periodic_values)
def test_tails_nonincreasing(values):
    sd = SpectralDifferencePeriodic(values)
    pr = probabilities(amplitudes_periodic(sd))
    tails = [cumulative_probability(pr, N) for N in range((sd.period - 1) // 2 + 1)]
    assert all(b <= a + 1e-15 for a, b in zip(tails, tails[1:]))


@settings(max_examples=40)
@given(values=continuous_values, half=st.integers(min_value=2, max_value=40))
def test_continuous_symmetry_and_band(values, half):
    sd = SpectralDifferenceContinuous(values)
    pr = probabilities(amplitudes_continuous(sd, 1 - half, half))
    flipped = pr.values[::-1]
    assert np.max(np.abs(pr.values - flipped)) <= 1e-12
    assert pr.p_tot <= parseval_total(sd) + 1e-12


@given(n=st.integers(min_value=-10_000, max_value=10_000),
       p=st.integers(min_value=2, max_value=200))
def test_tilde_properties(n, p):
    folded = tilde_index(n, p)
    assert 0 <= folded <= -(-p // 2)
    assert folded == tilde_index(-n, p)
    if n >= 0:  # the fold applies |n| before the residue, so only n >= 0 wraps
        assert folded == tilde_index(n + p, p)
    assert tilde_index(n) == abs(n)
