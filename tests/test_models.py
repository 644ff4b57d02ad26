"""Model states and their closed-form oracles."""

import numpy as np
import pytest

from anticip import (
    DegenerateModelError,
    ModelSpec,
    closed_form_pn,
    cumulative_probability,
    make_model,
    amplitudes_continuous,
    amplitudes_periodic,
    folded_index,
    probabilities,
)


def test_make_model_constant():
    sd = make_model(ModelSpec("const-periodic", 4, 1.0))
    assert np.array_equal(sd.values, np.ones(4))


def test_make_model_alternating():
    sd = make_model(ModelSpec("alt-periodic", 4, 0.5))
    assert np.array_equal(sd.values, [0.5, -0.5, 0.5, -0.5])


def test_odd_alternating_degenerates():
    with pytest.raises(DegenerateModelError, match="orthogonal evolution"):
        ModelSpec("alt-periodic", 5, 1.0)
    with pytest.raises(DegenerateModelError):
        ModelSpec("alt-continuous", 7, 0.3)


def test_bad_kind_and_amplitude():
    with pytest.raises(ValueError):
        ModelSpec("diagonal", 4, 1.0)
    with pytest.raises(ValueError):
        ModelSpec("const-periodic", 4, 1.5)


def test_closed_form_examples():
    assert closed_form_pn(ModelSpec("const-periodic", 2, 1.0), 1) == pytest.approx(0.5)
    assert closed_form_pn(ModelSpec("const-continuous", 2, 1.0), 1) == pytest.approx(
        4 / np.pi**2
    )
    assert closed_form_pn(ModelSpec("alt-continuous", 4, 1.0), 2) == pytest.approx(
        0.2624636155788407, abs=1e-14
    )


def test_special_index_case_analysis():
    # 2n-1 = p: the constant model takes exactly (y/p)^2 there
    spec = ModelSpec("const-periodic", 5, 0.8)
    assert closed_form_pn(spec, 3) == (0.8 / 5) ** 2


@pytest.mark.parametrize("kind", ["const-periodic", "alt-periodic"])
@pytest.mark.parametrize("size", [2, 4, 16, 256, 4096])
def test_periodic_oracle_equivalence(kind, size):
    spec = ModelSpec(kind, size, 0.9)
    pr = probabilities(amplitudes_periodic(make_model(spec)))
    ns = np.arange(1, size + 1)
    closed = closed_form_pn(spec, ns)
    assert np.max(np.abs(pr.values - closed) / closed) <= 1e-10
    assert pr.p_tot == pytest.approx(0.81, abs=1e-10)


@pytest.mark.parametrize("kind", ["const-continuous", "alt-continuous"])
@pytest.mark.parametrize("size", [2, 4, 64, 1024])
def test_continuous_oracle_equivalence(kind, size):
    spec = ModelSpec(kind, size, 0.7)
    sd = make_model(spec)
    ns = np.arange(1 - 2 * size, 2 * size + 1)
    pr = probabilities(amplitudes_continuous(sd, int(ns[0]), int(ns[-1])))
    closed = closed_form_pn(spec, ns)
    # the alternating model passes near tan roots where p_n falls to rounding
    # noise (~1e-14 at M = 1024); there only the absolute floor is meaningful
    assert np.max(np.abs(pr.values - closed) - (1e-10 * closed + 1e-13)) <= 0.0


def test_constant_extremes():
    p = 64
    spec = ModelSpec("const-periodic", p, 1.0)
    pr = probabilities(amplitudes_periodic(make_model(spec)))
    folded = folded_index(pr.indices, p)
    assert folded[int(np.argmax(pr.values))] in (0, 1)
    assert folded[int(np.argmin(pr.values))] == -(-p // 2)


def test_alternating_extremes_reversed():
    p = 64
    spec = ModelSpec("alt-periodic", p, 1.0)
    pr = probabilities(amplitudes_periodic(make_model(spec)))
    folded = folded_index(pr.indices, p)
    assert folded[int(np.argmax(pr.values))] == -(-p // 2)
    assert folded[int(np.argmin(pr.values))] in (0, 1)


def test_constant_tail_decay():
    # N * p_N stays bounded over N in [1, p/4] for the constant model
    p = 256
    pr = probabilities(amplitudes_periodic(make_model(ModelSpec("const-periodic", p, 1.0))))
    values = [N * cumulative_probability(pr, N) for N in range(1, p // 4 + 1)]
    assert max(values) < 1.0


def test_alternating_continuous_peak_location():
    for M in (4, 16, 64):
        spec = ModelSpec("alt-continuous", M, 1.0)
        ns = np.arange(1, 2 * M + 1)
        vals = closed_form_pn(spec, ns)
        assert int(ns[np.argmax(vals)]) == M // 2
