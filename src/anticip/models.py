"""Extremal model states and their closed-form probabilities.

Constant differences minimize anticipation; alternating ones maximize it.
Both have closed forms that serve as oracles for the transform pipeline;
the periodic ones reduce n mod p in integers first, so they hold at any n.
Alternating models need an even size: an odd alternating difference
degenerates to an orthogonal evolution at half the step size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import SpectralDifferenceContinuous, SpectralDifferencePeriodic

MODEL_KINDS = ("const-periodic", "alt-periodic", "const-continuous", "alt-continuous")


class DegenerateModelError(ValueError):
    """Alternating model with odd size."""


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    size: int
    amplitude: float

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}; expected one of {MODEL_KINDS}")
        if self.size < 2:
            raise ValueError("model size must be at least 2")
        if not -1.0 <= self.amplitude <= 1.0:
            raise ValueError("model amplitude must lie in [-1, 1]")
        if self.kind.startswith("alt-") and self.size % 2 != 0:
            raise DegenerateModelError(
                f"alternating difference with odd size {self.size} degenerates to an "
                "orthogonal evolution with step size T/2; use an even size"
            )

    @property
    def periodic(self) -> bool:
        return self.kind.endswith("-periodic")


def make_model(spec: ModelSpec):
    """Build the normalized spectral difference of the model state."""
    k = np.arange(spec.size)
    if spec.kind.startswith("const-"):
        vals = np.full(spec.size, spec.amplitude, dtype=float)
    else:
        vals = spec.amplitude * np.where(k % 2 == 0, 1.0, -1.0)
    if spec.periodic:
        return SpectralDifferencePeriodic(vals)
    return SpectralDifferenceContinuous(vals)


def closed_form_pn(spec: ModelSpec, n):
    """Closed-form p_n for the model; n may be an integer or an array.

    The periodic constant model takes (y/p)^2 wherever p divides 2n-1, by case
    analysis rather than as a limit of the sine formula. Both periodic forms
    have period p in n: n is reduced to ((n-1) mod p) + 1 in integers first.
    """
    y = spec.amplitude
    size = spec.size
    n_arr = np.asarray(n)
    scalar = n_arr.ndim == 0
    n_arr = np.atleast_1d(n_arr)
    if spec.periodic:  # ((n-1) mod p) + 1 in integers; n % p first, so int64 n never wraps
        n_arr = (n_arr % size - 1) % size + 1
    omega = n_arr.astype(float) - 0.5

    if spec.kind == "const-periodic":
        vals = (y / (size * np.sin(np.pi * omega / size))) ** 2
        special = (2 * n_arr.astype(int) - 1) % size == 0
        vals = np.where(special, (y / size) ** 2, vals)
    elif spec.kind == "alt-periodic":
        # even size keeps the cosine away from zero at half-odd arguments
        vals = (y / (size * np.cos(np.pi * omega / size))) ** 2
    elif spec.kind == "const-continuous":
        vals = (y / (np.pi * omega)) ** 2
    else:
        vals = (y * np.tan(np.pi * omega / size) / (np.pi * omega)) ** 2

    return float(vals[0]) if scalar else vals
