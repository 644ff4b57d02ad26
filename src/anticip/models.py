"""Extremal model states and their closed-form probabilities.

Constant differences minimize anticipation; alternating ones maximize it.
Both have closed forms that serve as oracles for the transform pipeline;
the periodic ones read n by its half bin, in integers, so they hold at any n.
Alternating models need an even size: an odd alternating difference
degenerates to an orthogonal evolution at half the step size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .closed_form import _half_bin
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

    Periodic forms read n by its half bin b (n % p first: no int64 n wraps) and a
    sine at w = b-1/2, pi*w/p or pi*|p/2-w|/p, in the first quadrant, so n and p+1-n
    give the same bits; where p divides 2n-1 the sine reads exactly 1.0 at pi/2.
    """
    y = spec.amplitude
    size = spec.size
    n_arr = np.asarray(n)
    omega = (_half_bin(size, n_arr % size) if spec.periodic else n_arr).astype(float) - 0.5

    if spec.kind == "const-periodic":
        vals = (y / (size * np.sin(np.pi * omega / size))) ** 2
    elif spec.kind == "alt-periodic":
        # cos(pi w/p) = sin(pi (p/2 - w)/p); even size keeps it away from zero
        vals = (y / (size * np.sin(np.pi * np.abs(size / 2 - omega) / size))) ** 2
    elif spec.kind == "const-continuous":
        vals = (y / (np.pi * omega)) ** 2
    else:
        vals = (y * np.tan(np.pi * omega / size) / (np.pi * omega)) ** 2

    return float(vals) if n_arr.ndim == 0 else vals
