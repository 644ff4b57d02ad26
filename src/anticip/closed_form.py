"""Closed-form anticipation statistics under i.i.d. spectral differences.

The component law lives on [-1, 1] with raw moments m1..m4. Means and
variances of the per-step probability p_n, the tail probability p_N, the
total p_tot and the folded-index observable are polynomial in the kernels

    S_n = p^-1 sum_k exp(-2*pi*i*(n-1/2)*k/p)   (geometric, never singular)
    T_n = p^-1 [n == 0 mod p]
    U_N = sum_{n=N+1}^{p-N} |S_n|^2             (window complement weight)
    pi_N = 1 - 2*N/p

The variance polynomials are transcribed as printed in their source, and proved
for every law at p <= 9 by exact enumeration (tests); they vanish identically
for degenerate (point-mass) laws. Periodic statistics read n by `_half_bin`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


@dataclass(frozen=True)
class MomentTuple:
    """Raw moments m1..m4 of a component law supported in [-1, 1]."""

    m1: float
    m2: float
    m3: float
    m4: float

    def __post_init__(self):
        if self.m2 < self.m1**2 - 1e-12:
            raise ValueError("m2 < m1^2: not a valid moment sequence")
        if self.m4 < self.m2**2 - 1e-12:
            raise ValueError("m4 < m2^2: not a valid moment sequence")

    @property
    def sigma2(self) -> float:
        return self.m2 - self.m1 * self.m1


class LeadingOrder(NamedTuple):
    """A leading-order value plus the order tag of its neglected error term."""

    value: float
    error_order: str


def _half_bin(p: int, n):
    """The half bin min(c, p+1-c) of an int or array n, c = (n-1) mod p + 1: p_{p+1-n}
    = p_n for real spectral differences, so periodic statistics read n through it."""
    c = (n - 1) % p + 1
    return np.minimum(c, p + 1 - c)


def abs_s_squared(p: int, n):
    """|S_n|^2 = 1/(p sin(pi(n-1/2)/p))^2; n may be an array.

    The sine is read at pi*(b-1/2)/p for the half bin b of n, in (0, pi/2], so n
    and p+1-n give the same bits and the sine never vanishes.
    """
    b = _half_bin(p, np.asarray(n))
    val = 1.0 / (p * np.sin(np.pi * (b - 0.5) / p)) ** 2
    return float(val) if b.ndim == 0 else val


def kernel_t(p: int, n: int) -> float:
    """T_n: 1/p when n is a multiple of p, else 0 (exact case analysis)."""
    return 1.0 / p if n % p == 0 else 0.0


def _check_window(p: int, N: int) -> None:
    if not 0 <= N < p / 2:
        raise ValueError(f"N must lie in 0..{(p - 1) // 2} for period {p} (got {N})")


def kernel_u(p: int, N: int) -> float:
    """U_N over the tail window n = N+1 .. p-N; U_0 = 1 (unit kernel mass)."""
    _check_window(p, N)
    n = np.arange(N + 1, p - N + 1)
    return float(abs_s_squared(p, n).sum())


def pi_tail(p: int, N: int) -> float:
    """pi_N = 1 - 2*N/p (N already folded in the admitted range)."""
    _check_window(p, N)
    return 1.0 - 2.0 * N / p


def expected_pn(p: int, n: int, m: MomentTuple) -> float:
    """E(p_n) = sigma^2/p + m1^2 |S_n|^2; at least sigma^2/p for every n."""
    return m.sigma2 / p + m.m1**2 * abs_s_squared(p, n)


def var_pn(p: int, n: int, m: MomentTuple) -> float:
    """Var(p_n), transcribed as printed; identically 0 when m_k = m1^k."""
    S2 = abs_s_squared(p, n)
    T = kernel_t(p, 2 * n - 1)
    return (
        m.m4 / p**3
        + 4.0 / p**2 * (S2 - 1.0 / p) * m.m1 * m.m3
        + (T * T + 1.0 / p**2 - 3.0 / p**3) * m.m2**2
        + ((2 * T + 2.0 / p - 12.0 / p**2) * S2 + 12.0 / p**3 - 2.0 / p**2 - 2 * T * T)
        * m.m1**2
        * m.m2
        + ((8.0 / p**2 - 2 * T - 2.0 / p) * S2 + T * T - 6.0 / p**3 + 1.0 / p**2)
        * m.m1**4
    )


def expected_pN(p: int, N: int, m: MomentTuple) -> float:
    """E(p_N) = pi_N sigma^2 + m1^2 U_N; equals m2 at N = 0."""
    return pi_tail(p, N) * m.sigma2 + m.m1**2 * kernel_u(p, N)


def var_pN(p: int, N: int, m: MomentTuple) -> float:
    """Var(p_N), transcribed as printed; identically 0 when m_k = m1^k.

    At N = 0 it reduces to (m4 - m2^2)/p, the exact variance of the total
    probability p^-1 sum yhat_k^2.
    """
    piN = pi_tail(p, N)
    U = kernel_u(p, N)
    return (
        piN**2 * m.m4 / p
        + 4.0 / p * piN * (U - piN) * m.m1 * m.m3
        + piN * (2.0 - 3.0 * piN) / p * m.m2**2
        + 4.0 / p * (1.0 - 3.0 * piN) * (U - piN) * m.m1**2 * m.m2
        + 2.0 / p * (2.0 * U * (2.0 * piN - 1.0) + piN * (1.0 - 3.0 * piN)) * m.m1**4
    )


def expected_ptot(m: MomentTuple) -> float:
    """E(p_tot) = m2, every period."""
    return m.m2


def expected_moment_observable(p: int, r: float, m: MomentTuple) -> LeadingOrder:
    """Leading order of E<tilde(n)^r>: (p/2)^r m2/(r+1), error O(p^(r-1)).

    The order term is a tag, never added numerically.
    """
    if r < 0:
        raise ValueError("moment order must be nonnegative")
    value = (p / 2.0) ** r * m.m2 / (r + 1.0)
    return LeadingOrder(value, f"O(p^{r - 1:g})")


# -- continuous spectrum (p = infinity) ------------------------------------

def continuous_expected_pn(n: int, m: MomentTuple) -> float:
    """E(p_n) = m1^2 / (pi^2 (n-1/2)^2); the sigma^2/p floor has escaped."""
    return m.m1**2 / (np.pi * (n - 0.5)) ** 2


def lemma_unit_sum(p: int) -> float:
    """sum over one period of |S_n|^2; equals 1 exactly."""
    n = np.arange(1, p + 1)
    return float(math.fsum(abs_s_squared(p, n)))
