"""Numeric kernels shared by every module.

Bernoulli numbers and polynomials, binomial coefficients, branch-free
exponentials, complex Pfaffians and determinants, plus the truncation
policy object that makes every evaluation reproducible.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import DomainError, NotAntisymmetric, NotConverged, OddDimension


# highest retained q-power index of the E_n q-series and the eta and partition products:
# they refuse past it, having no rounding bound that would make more terms safe
Q_ORDER = 120


@dataclass(frozen=True)
class TruncationConfig:
    """The target absolute accuracy tol of a single evaluation, in (0, 1); the
    reproducibility contract.

    Every window (theta, lattice oracles, q-series up to Q_ORDER) is sized from its
    inputs and tol.
    """

    tol: float = 1e-12

    def __post_init__(self):
        if not 0 < self.tol < 1:
            # q-series windows are sized by -log(tol), which must be positive
            raise ValueError("tol must lie in (0, 1)")
        # every lru_cache lookup hashes the config: do it once, outside the fields
        object.__setattr__(self, "_hash", hash(tuple(self.asdict().values())))

    def __hash__(self) -> int:
        return self._hash

    def asdict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


DEFAULT_CONFIG = TruncationConfig()


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); zero when k > n."""
    if n < 0 or k < 0:
        raise ValueError("binomial requires n, k >= 0")
    if k > n:
        return 0
    return math.comb(n, k)


@lru_cache(maxsize=None)
def bernoulli_fraction(n: int) -> Fraction:
    """Exact n-th Bernoulli number, B_1 = -1/2 convention."""
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1
    acc = Fraction(0)
    for k in range(n):
        acc += math.comb(n + 1, k) * bernoulli_fraction(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def bernoulli_over_factorial(n: int) -> float:
    """B_n(0)/n! as a float; stays representable for large n."""
    return float(bernoulli_fraction(n) / math.factorial(n))


@lru_cache(maxsize=None)
def _bernoulli_floats(n: int) -> tuple[float, ...]:
    """B_0, ..., B_n as floats, n < 260."""
    return tuple(float(bernoulli_fraction(k)) for k in range(n + 1))


def bernoulli_poly(n: int, lam: float) -> float:
    """Bernoulli polynomial B_n(lam).

    Defined through q_z^lam/(q_z - 1) = 1/z + sum_{n>=1} B_n(lam)/n! z^{n-1};
    equivalently the classical polynomials with B_1(lam) = lam - 1/2.
    Evaluated by the finite sum over Bernoulli numbers. NotConverged when a
    term or the sum leaves the float range (from n = 259 on for lam in [0, 1)),
    at once from n = 260 on, where the sum needs B_260 as a float.
    """
    if n < 0:
        raise ValueError("bernoulli_poly requires n >= 0")
    if n == 0:
        return 1.0
    if n < 260:      # B_260 is the first Bernoulli number past the float range
        acc = 0.0
        try:
            for k, b in enumerate(_bernoulli_floats(n)):
                acc += math.comb(n, k) * b * lam ** (n - k)
            if math.isfinite(acc):
                return acc
        except OverflowError:
            pass
    raise NotConverged(f"B_{n}({lam:.6g}) leaves the float range")


def q_exp(z: complex, s: complex) -> complex:
    """Branch-free power q_z^s := exp(s*z).

    Every non-integer power of q_z in this library is defined this way, so
    no branch cut is ever consulted. DomainError for a non-finite z or s;
    NotConverged when s*z or the power leaves the float range.
    """
    z, s = complex(z), complex(s)
    if not (cmath.isfinite(z) and cmath.isfinite(s)):
        raise DomainError(f"q_exp needs a finite z and s, got z = {z}, s = {s}")
    try:
        w = s * z
        if cmath.isfinite(w):
            return cmath.exp(w)
    except OverflowError:
        pass
    raise NotConverged(f"q_z^s = exp(s*z) leaves the float range at z = {z}, s = {s}")


def as_square_matrix(entries) -> np.ndarray:
    """Coerce to a square complex ndarray, validating the shape."""
    a = np.asarray(entries, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def antisymmetry_defect(m: np.ndarray) -> float:
    """Max-entry norm of M + M^T (zero for an exactly skew matrix); inf when
    an entry is not finite."""
    if m.shape[0] == 0:
        return 0.0
    if not np.isfinite(m).all():
        return math.inf
    return float(np.abs(m + m.T).max())


def determinant(m) -> complex:
    """Determinant of a complex square matrix (LU with partial pivoting)."""
    return complex(np.linalg.det(as_square_matrix(m)))


def pfaffian_pair_sum(m) -> complex:
    """Pfaffian by literal summation over pair partitions.

    Pf(M) = sum over partitions {(i1,j1),...,(im,jm)} of {1..2m} with
    i_k < j_k and i_1 < i_2 < ... of the signed product of entries.
    Exponential cost; kept as the independent oracle for `pfaffian`.
    """
    a = as_square_matrix(m)
    n = a.shape[0]
    if n % 2:
        raise OddDimension(f"pfaffian needs even dimension, got {n}")

    def rec(indices):
        if not indices:
            yield 1.0 + 0.0j
            return
        i = indices[0]
        for pos in range(1, len(indices)):
            j = indices[pos]
            rest = indices[1:pos] + indices[pos + 1:]
            sign = -1.0 if (pos - 1) % 2 else 1.0
            for tail in rec(rest):
                yield sign * a[i, j] * tail

    return complex(sum(rec(tuple(range(n)))))


def _pfaffian_parlett_reid(a: np.ndarray) -> complex:
    """Skew-symmetric Gaussian elimination, O(n^3), destroys its argument."""
    n = a.shape[0]
    pf = 1.0 + 0.0j
    for k in range(0, n - 1, 2):
        kp = k + 1 + int(np.abs(a[k + 1:, k]).argmax())
        if kp != k + 1:
            # step k reads only a[k:, k:]: swap k + 1 and kp there, one view each way
            pair = slice(k + 1, kp + 1, kp - k - 1)
            a[pair, k:] = a[pair, k:][::-1]
            a[k:, pair] = a[k:, pair][:, ::-1]
            pf = -pf
        if a[k + 1, k] == 0:
            return 0.0 + 0.0j
        pf *= a[k, k + 1]
        if k + 2 < n:
            tau = a[k, k + 2:] / a[k, k + 1]
            col = a[k + 2:, k + 1]
            a[k + 2:, k + 2:] += np.multiply.outer(tau, col) - np.multiply.outer(col, tau)
    return complex(pf)


def pfaffian(m, cfg: TruncationConfig | None = None) -> complex:
    """Pfaffian of an even-dimensional antisymmetric complex matrix.

    Satisfies Pf(M)^2 = det(M). The antisymmetry defect must stay below
    10*cfg.tol (inputs are themselves series-truncated); a non-finite entry
    fails that test. Every size uses Parlett-Reid skew elimination.

    Raises OddDimension or NotAntisymmetric.
    """
    cfg = cfg or DEFAULT_CONFIG
    a = as_square_matrix(m)
    n = a.shape[0]
    if n % 2:
        raise OddDimension(f"pfaffian needs even dimension, got {n}")
    defect = antisymmetry_defect(a)
    if not defect <= 10 * cfg.tol:
        raise NotAntisymmetric(defect)
    return _pfaffian_parlett_reid(a.copy())
