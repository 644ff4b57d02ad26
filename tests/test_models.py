"""Model states and their closed-form oracles."""

from decimal import Decimal, localcontext

import numpy as np
import pytest

from anticip import (
    DegenerateModelError,
    ModelSpec,
    closed_form_pn,
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


_PI40 = Decimal("3.141592653589793238462643383279502884197169")


def _periodic_pn40(kind, p, y, n):
    """p_n of a periodic model to 40 digits: the sine's Taylor series at
    pi*min(w, p-w)/p, or at pi*|p/2-w|/p for the alternating model's cosine,
    w = n-1/2 and n in 1..p."""
    w = Decimal(n) - Decimal("0.5")
    with localcontext() as ctx:
        ctx.prec = 50
        x = _PI40 * (min(w, p - w) if kind == "const-periodic" else abs(p / Decimal(2) - w)) / p
        term = total = x
        for k in range(1, 40):
            term *= -x * x / ((2 * k) * (2 * k + 1))
            total += term
        return (Decimal(y) / (p * total)) ** 2


@pytest.mark.parametrize("kind", ["const-periodic", "alt-periodic"])
def test_periodic_closed_forms_read_the_reduced_angle(kind):
    # n and p+1-n read one first-quadrant angle, so they give the same bits; next to
    # pi an unreduced sine erred 3.7e-13 relative at p = 1024
    for p in (2, 4, 8, 64, 1024, 4096):
        vals = closed_form_pn(ModelSpec(kind, p, 0.7), np.arange(1, p + 1))
        assert np.array_equal(vals, vals[::-1]), p
    for p in (4, 64, 1024, 4096, 65536):
        spec = ModelSpec(kind, p, 0.7)
        ns = sorted({1, 2, p // 4, p // 2 - 1, p // 2, p // 2 + 1, p // 2 + 2, p - 1, p})
        for n, got in zip(ns, closed_form_pn(spec, np.array(ns)).tolist()):
            want = _periodic_pn40(kind, p, 0.7, n)
            assert abs(Decimal(got) - want) <= Decimal("1e-15") * want, (p, n)


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
    folded = folded_index(np.arange(1, p + 1), p)
    assert folded[int(np.argmax(pr.values))] in (0, 1)
    assert folded[int(np.argmin(pr.values))] == -(-p // 2)


def test_alternating_extremes_reversed():
    p = 64
    spec = ModelSpec("alt-periodic", p, 1.0)
    pr = probabilities(amplitudes_periodic(make_model(spec)))
    folded = folded_index(np.arange(1, p + 1), p)
    assert folded[int(np.argmax(pr.values))] == -(-p // 2)
    assert folded[int(np.argmin(pr.values))] in (0, 1)


def test_constant_tail_decay():
    # N * p_N stays bounded over N in [1, p/4] for the constant model
    p = 256
    pr = probabilities(amplitudes_periodic(make_model(ModelSpec("const-periodic", p, 1.0))))
    values = [N * pr.values[N : p - N].sum() for N in range(1, p // 4 + 1)]  # n = N+1..p-N
    assert max(values) < 1.0


def test_alternating_continuous_peak_location():
    for M in (4, 16, 64):
        spec = ModelSpec("alt-continuous", M, 1.0)
        ns = np.arange(1, 2 * M + 1)
        vals = closed_form_pn(spec, ns)
        assert int(ns[np.argmax(vals)]) == M // 2
