"""Classical (untwisted) elliptic and modular functions.

Eisenstein series E_n, the Weierstrass-type family P_k, the elliptic prime
form K(z, tau) = exp(-P_0), Jacobi theta functions with real characteristics,
and the Dedekind eta function.

Conventions: q_z = exp(z) and q = exp(2*pi*i*tau), so the two periods are
2*pi*i and 2*pi*i*tau (not 1 and tau); comparisons against tables using unit
periods must rescale z by 2*pi*i.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DomainError, NotConverged
from .numeric import (
    DEFAULT_CONFIG,
    TruncationConfig,
    bernoulli_over_factorial,
    binomial,
)

_TWO_PI = 2.0 * math.pi

# Hard cap on the z-power carried by the disk (Laurent) series.
_DISK_SERIES_MAX_ORDER = 800


class ThetaChar(NamedTuple):
    """Real theta characteristics; no canonical reduction is applied."""

    a: float
    b: float


def require_upper_half(tau: complex) -> complex:
    """Validate a finite tau with Im(tau) > 0 (so |q| < 1) and return it as complex."""
    tau = complex(tau)
    if not (tau.imag > 0 and cmath.isfinite(tau)):
        raise DomainError(f"tau must be a finite point of the upper half-plane, got {tau}")
    return tau


@lru_cache(maxsize=100_000)
def eisenstein(n: int, tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Eisenstein series E_n(tau); exactly 0 for odd n.

    E_n = -B_n(0)/n! + (2/(n-1)!) sum_{r>=1} r^{n-1} q^r / (1 - q^r),
    summed until terms drop below cfg.tol or r exceeds cfg.q_order.
    """
    if n < 2:
        raise ValueError("eisenstein requires n >= 2")
    tau = require_upper_half(tau)
    if n % 2 == 1:
        return 0.0 + 0.0j
    q = cmath.exp(2j * math.pi * tau)
    acc = 0.0 + 0.0j
    converged = False
    for r in range(1, cfg.q_order + 1):
        qr = q**r
        term = r ** (n - 1) * qr / (1.0 - qr)
        acc += term
        if abs(term) < cfg.tol:
            converged = True
            break
    if not converged:
        raise NotConverged(f"E_{n} q-series not below tol within q_order={cfg.q_order}")
    return -bernoulli_over_factorial(n) + 2.0 / math.factorial(n - 1) * acc


def weierstrass_pk(k: int, z: complex, tau: complex,
                   cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Untwisted P_k(z, tau), evaluated through the twisted q-series.

    P_k equals the trivially twisted function minus the constant 1/2 at k=1.
    Domain: |q| < |q_z| < 1, i.e. -2*pi*Im(tau) < Re(z) < 0.
    """
    from .twisted import TwistPair, twisted_pk

    val = twisted_pk(k, TwistPair.trivial(), z, tau, cfg)
    if k == 1:
        val -= 0.5
    return val


def weierstrass_pk_laurent(k: int, z: complex, tau: complex,
                           cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Untwisted P_k by its Laurent series about z = 0.

    P_k = 1/z^k + (-1)^k sum_{n>=k} C(n-1, k-1) E_n(tau) z^{n-k}; only even n
    contribute. Converges on the disk 0 < |z| < 2*pi, so unlike the q-series
    it does not care about the sign of Re(z); kept as an independent oracle.
    """
    if k < 1:
        raise ValueError("weierstrass_pk_laurent requires k >= 1")
    tau = require_upper_half(tau)
    z = complex(z)
    if not 0 < abs(z) < _TWO_PI:
        raise DomainError(f"Laurent series needs 0 < |z| < 2*pi, got |z| = {abs(z):.4g}")
    acc = 0.0 + 0.0j
    small = 0
    n = k if k % 2 == 0 else k + 1
    while n <= _DISK_SERIES_MAX_ORDER:
        term = binomial(n - 1, k - 1) * eisenstein(n, tau, cfg) * z ** (n - k)
        acc += term
        small = small + 1 if abs(term) < cfg.tol else 0
        if small >= 2:
            return z ** (-k) + (-1.0) ** k * acc
        n += 2
    raise NotConverged(f"P_{k} Laurent series stalled at |z| = {abs(z):.4g}")


def p0(z: complex, tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """P_0(z, tau) = -log z + sum_{k>=2} E_k(tau) z^k / k, principal log.

    Defined on 0 < |z| < 2*pi (radius set by the nearest lattice point).
    """
    tau = require_upper_half(tau)
    z = complex(z)
    if not 0 < abs(z) < _TWO_PI:
        raise DomainError(f"p0 needs 0 < |z| < 2*pi, got |z| = {abs(z):.4g}")
    acc = 0.0 + 0.0j
    small = 0
    k = 2
    while k <= _DISK_SERIES_MAX_ORDER:
        term = eisenstein(k, tau, cfg) * z**k / k
        acc += term
        small = small + 1 if abs(term) < cfg.tol else 0
        if small >= 2:
            return -cmath.log(z) + acc
        k += 2
    raise NotConverged(f"p0 series stalled at |z| = {abs(z):.4g}")


def prime_form(z: complex, tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Elliptic prime form K(z, tau) = exp(-P_0(z, tau)).

    Has a simple zero at z = 0 with unit derivative, and agrees with the
    half-integral theta expression (-i/eta^3) * theta[1/2;1/2](z, tau).
    """
    return cmath.exp(-p0(z, tau, cfg))


def theta_char(a: float, b: float, z: complex, tau: complex,
               cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Jacobi theta function with characteristics a, b.

    theta[a;b](z, tau) = sum_n exp[i*pi*(n+a)^2*tau + (n+a)*(z + 2*pi*i*b)].
    The window starts at cfg.theta_range and doubles until the boundary term
    falls below cfg.tol (Gaussian decay makes this cheap); hard cap at
    16*cfg.theta_range.
    """
    _, terms = _theta_terms(a, b, z, tau, cfg)
    return complex(terms.sum())


def _theta_terms(a: float, b: float, z: complex, tau: complex,
                 cfg: TruncationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Summation indices n + a and terms of theta[a;b](z, tau) over its window."""
    tau = require_upper_half(tau)
    z = complex(z)
    if not cmath.isfinite(z):
        raise DomainError(f"theta needs a finite z, got {z}")
    window = cfg.theta_range
    shift = z + 2j * math.pi * b
    while window <= 16 * cfg.theta_range:
        ns = np.arange(-window, window + 1, dtype=float) + a
        terms = np.exp(1j * math.pi * ns**2 * tau + ns * shift)
        if abs(terms[0]) < cfg.tol and abs(terms[-1]) < cfg.tol:
            return ns, terms
        window *= 2
    raise NotConverged(f"theta window exceeded 16*theta_range at tau = {tau}")


@lru_cache(maxsize=100_000)
def dedekind_eta(tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Dedekind eta function q^{1/24} prod_{n>=1} (1 - q^n).

    The prefactor is exp(2*pi*i*tau/24), fixing the 24th root branch-free.
    """
    tau = require_upper_half(tau)
    q = cmath.exp(2j * math.pi * tau)
    acc = 1.0 + 0.0j
    converged = False
    for n in range(1, cfg.q_order + 1):
        qn = q**n
        acc *= 1.0 - qn
        if abs(qn) < cfg.tol:
            converged = True
            break
    if not converged:
        raise NotConverged(f"eta product not below tol within q_order={cfg.q_order}")
    return cmath.exp(2j * math.pi * tau / 24.0) * acc
