"""Classical (untwisted) elliptic and modular functions.

Eisenstein series E_n, the Weierstrass-type family P_k, the elliptic prime
form K(z, tau) = theta[1/2;1/2](z, tau) / theta'[1/2;1/2](0, tau) and
P_0 = -log K, Jacobi theta functions with real characteristics, and the
Dedekind eta function. theta_char, the prime form and the P_k kernel
(twisted.twisted_pk_batch) share one theta summation, _theta_table: each
point reduced next to 0 by the periods first, one window about n = 0 for every
point and characteristic row, Taylor columns in z, the terms n and -1-n of
theta[1/2;1/2] taken together near 0, a rounding bound on every column.

Conventions: q_z = exp(z) and q = exp(2*pi*i*tau), so the two periods are
2*pi*i and 2*pi*i*tau (not 1 and tau); comparisons against tables using unit
periods must rescale z by 2*pi*i.
"""

from __future__ import annotations

import cmath
import math
import sys
from functools import lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import (
    DomainError,
    NearPole,
    NotConverged,
    TwistellError,
    _outcome,
    _refuse,
    _refused,
    _settle,
)
from .numeric import (
    DEFAULT_CONFIG,
    Q_ORDER,
    TruncationConfig,
    bernoulli_over_factorial,
    bernoulli_poly,
)

_TWO_PI = 2.0 * math.pi
# 2 pi - _TWO_PI, the part of 2 pi that a float misses
_TWO_PI_TAIL = 2.4492935982947064e-16
_POLE_EPS = 1e-12

# Hard cap on the terms either side of n = 0 in the theta window, and the n of the widest
# window, which every table slices
_THETA_MAX_HALF_WIDTH = 512
_NS = np.arange(-_THETA_MAX_HALF_WIDTH, _THETA_MAX_HALF_WIDTH + 1.0)[:, None, None]
# the theta window drops terms below e^-_THETA_TAIL of the largest one, past any tol a
# float can meet, so a rounding bound covers the truncation too
_THETA_TAIL = 50.0
# theta[1/2;1/2] takes its terms n and -1-n together at the points w with |w| below this,
# where they cancel; past it they cancel to at most about 2/|w| of theta
_PAIR_RADIUS = 0.0625
# the test 0 < |w| < _PAIR_RADIUS in numpy, bits(|w|) - 1 < bits(_PAIR_RADIUS) - 1 as
# uint64s, and the table size from which it costs less than a Python comprehension
_ONE_BIT = np.uint64(1)
_PAIR_BITS = np.float64(_PAIR_RADIUS).view(np.uint64) - _ONE_BIT
_PAIR_SCAN = 40
# Veltkamp's splitter 2^27 + 1, and the bound on a quasi-period shift m below which the
# products of m by 26-bit parts are exact
_SPLITTER = 134217729.0
_SHIFT_MAX = 2.0 ** 26
_EPS = sys.float_info.epsilon
_FLOAT_MAX = sys.float_info.max
_FLOAT_MIN = sys.float_info.min


_UPPER_HALF = "tau must be a finite point of the upper half-plane, got {}"


def require_upper_half(tau: complex) -> complex:
    """Validate a finite tau with Im(tau) > 0 (so |q| < 1) and return it as complex."""
    tau = complex(tau)
    if not (tau.imag > 0 and cmath.isfinite(tau)):
        raise DomainError(_UPPER_HALF.format(tau))
    return tau


def _eisenstein_prefactors(n: int, lam: float, trivial: bool) -> tuple[float, float]:
    """(B_n(lam)/n!, (n-1)!) as floats, the constant and the divisor of the E_n
    q-series; NotConverged when a factorial leaves the float range."""
    try:
        fac = float(math.factorial(n - 1))
        const = (bernoulli_over_factorial(n) if trivial
                 else bernoulli_poly(n, lam) / math.factorial(n))
    except OverflowError:
        raise NotConverged(f"E_{n} prefactors 1/(n-1)! and B_n(lam)/n! need factorials "
                           f"as floats, which overflow past 170!") from None
    return const, fac


def _eisenstein_series(n: int, lam: float, mu: float, tau: complex,
                       cfg: TruncationConfig) -> complex:
    """E_n[theta; phi](tau) for the twist of phases (mu, lam): the one E_n q-series.

    -B_n(lam)/n! plus two q-expansions over r + lam (from r = 0) and r - lam
    (from r = 1), summed until both terms drop below cfg.tol; NotConverged when r
    passes Q_ORDER first. At the trivial twist the r = 0 term is omitted exactly, the
    two streams are bitwise equal and one is summed for both, and the
    constant is B_n(0)/n! as one float.
    A float overflow of (r +- lam)^(n-1), (n-1)! or the constant, or of the
    exponent 2 pi i tau r (at |Re tau| past about 3e306), is NotConverged.
    tau must already be checked by require_upper_half.
    """
    trivial = lam == 0.0 and mu == 0.0
    qtau = 2j * math.pi * tau
    # theta^-1 and theta; 1 at the trivial twist
    th_inv, th = ((1.0, 1.0) if trivial
                  else (cmath.exp(2j * math.pi * mu), cmath.exp(-2j * math.pi * mu)))
    exp, tol, eps, power = cmath.exp, cfg.tol, _POLE_EPS, n - 1
    plus = minus = 0.0 + 0.0j
    try:
        for r in range(1 if trivial else 0, Q_ORDER + 1):
            x = r + lam
            w = th_inv * exp(qtau * x)
            den = 1.0 - w
            if abs(den) < eps:
                raise NearPole(f"E_{n} plus-stream denominator degenerate at r = {r}")
            t = x ** power * w / den
            plus += t
            biggest = abs(t)
            if r and not trivial:
                x = r - lam
                v = th * exp(qtau * x)
                den = 1.0 - v
                if abs(den) < eps:
                    raise NearPole(f"E_{n} minus-stream denominator degenerate at r = {r}")
                t = x ** power * v / den
                minus += t
                if abs(t) > biggest:
                    biggest = abs(t)
            if r and biggest < tol:
                break
        else:
            raise NotConverged(f"E_{n} q-series not below tol within Q_ORDER = {Q_ORDER} terms")
    except OverflowError:
        raise NotConverged(f"E_{n} q-series term r^{n - 1} overflows a float at r = {r}") \
            from None
    except ValueError:
        # cmath.exp of an infinite 2 pi i tau r, once |Re tau| r passes about 3e307
        raise NotConverged(f"E_{n} q-series exponent 2 pi i tau r leaves the float range at "
                           f"r = {r}, tau = {tau}") from None
    if trivial:
        minus = plus
    return _eisenstein_total(n, plus, minus, _eisenstein_prefactors(n, lam, trivial))


def _eisenstein_total(n: int, plus: complex, minus: complex,
                      prefactors: tuple[float, float]) -> complex:
    """E_n from the sums of its two q-series streams and its prefactors."""
    const, fac = prefactors
    return -const + plus / fac + (-1.0) ** n * minus / fac


# elements of one (orders x tau x r) table of terms at the widest window, r <= Q_ORDER in
# both streams, about 3 MB of arrays at its peak: _eisenstein_grid sums its taus in blocks
# of that size
_GRID_CHUNK = 1 << 15


def _eisenstein_grid(ns: Sequence[int], lam: float, mu: float, taus: Sequence[complex],
                     cfg: TruncationConfig, fails: dict) -> np.ndarray:
    """_eisenstein_series(n, lam, mu, tau, cfg) for every n in ns and tau in taus, bit for
    bit, shape (len(ns), len(taus)); the taus must already be checked by require_upper_half.

    The taus are taken in input order, in blocks whose (orders x tau x r) table fits
    _GRID_CHUNK at the widest window (2 Q_ORDER + 1 columns; one tau at least), r
    running up to the window of the block's smallest Im tau (_grid_window). One numpy
    pass per block (_eisenstein_grid_sums) builds the exponentials and denominators
    once for all orders and each power (r +- lam)^(n-1) once for all tau; each (n, tau)
    keeps the loop's own stop and sums its terms in order of r up to it. An entry whose
    terms meet a pole, a float overflow, a NaN or no stop by Q_ORDER is summed by the
    loop instead, and so is every entry of an order whose prefactors leave the float
    range: so each entry is refused exactly where a loop call would refuse it, with the
    loop's error. fails maps the columns of refused taus (stand-ins in taus) to the
    error each of their entries takes. A refused grid raises, with its outcome, the
    first refused tau's error; else, in row order, the first order's prefactor error or
    its first refused entry's.
    """
    trivial = lam == 0.0 and mu == 0.0
    prefactors: dict[int, tuple[float, float] | NotConverged] = {}
    for n in ns:
        if n not in prefactors:
            try:
                prefactors[n] = _eisenstein_prefactors(n, lam, trivial)
            except NotConverged as exc:
                prefactors[n] = exc
    orders = [n for n, pre in prefactors.items() if not isinstance(pre, NotConverged)]
    sums: list[list] = [[None] * len(taus) for _ in orders]
    size = _GRID_CHUNK // (max(len(orders), 1) * (2 * Q_ORDER + 1)) or 1
    for lo in range(0, len(taus) if orders else 0, size):
        block = taus[lo:lo + size]
        last = _grid_window(max(orders) - 1, _TWO_PI * min(t.imag for t in block), cfg)
        block_sums = _eisenstein_grid_sums(orders, lam, mu, block, last, cfg)
        for row, part in zip(sums, block_sums):
            row[lo:lo + size] = part
    refused: dict = {}                  # (order, tau) -> error

    def loop(i, j, n, tau):
        """Entry (i, j) by the loop, or 0 with its error recorded."""
        try:
            return _eisenstein_series(n, lam, mu, tau, cfg)
        except TwistellError as exc:
            refused[i, j] = exc
            return 0j

    out = np.empty((len(ns), len(taus)), dtype=complex)
    for i, n in enumerate(ns):
        pre = prefactors[n]
        row_sums = repeat(None) if isinstance(pre, NotConverged) else sums[orders.index(n)]
        out[i] = [0j if j in fails else _eisenstein_total(n, *s, pre) if s is not None
                  else loop(i, j, n, tau)
                  for j, (tau, s) in enumerate(zip(taus, row_sums))]
    if not refused:
        return _settle(out, fails)
    # the first refused tau's error; else, in row order, the first refused entry's, or the
    # prefactors' error of its order, every entry of which is refused
    i, j = min(refused)
    pre = prefactors[ns[i]]
    first = (fails[min(fails)] if fails else pre if isinstance(pre, NotConverged)
             else refused[i, j])
    _settle(out, fails, refused, first)


def _grid_window(p: int, h: float, cfg: TruncationConfig) -> int:
    """The last r the grid sums at Im tau = h/(2 pi) for orders up to p + 1: the first r
    past those at which (r+1)^p e^(-h(r-1)) / (1 - e^-h), a bound on the r-th terms, is
    tol or more; those run from r = 1, where the bound is at least 1, as it is
    log-concave in r. At most Q_ORDER, where the loop stops."""
    r = np.arange(1, Q_ORDER + 1)
    live = p * np.log(r + 1.0) - h * (r - 1.0) >= math.log(cfg.tol) + math.log(-math.expm1(-h))
    return min(np.count_nonzero(live) + 1, Q_ORDER)


def _eisenstein_grid_sums(orders: list[int], lam: float, mu: float, taus: Sequence[complex],
                          last: int, cfg: TruncationConfig) -> list[list]:
    """For each order and tau, the sums (plus, minus) of the two streams of the E_n[tw]
    q-series, each summed in order of r from 0.0 + 0.0j up to the loop's stop, where
    they are the loop's, and None where the loop decides.

    The table of terms (_eisenstein_terms) runs over r <= last, the window of the
    smallest Im tau; a larger Im tau h/(2 pi) takes the exp of r - 1 <= (last - 1)
    h_min/h + 1 only (where the same bound meets tol, (r - 1) h falls as h grows),
    and NaN past it. abs(t) < tol is decided as abs decides it, by hypot where
    max(|re|, |im|) leaves it open. An entry is None when it has no stop in its
    window, when its sums are not finite (a term overflowed or met a NaN), when a
    term near the float range or a near-pole denominator shows in its row, or when
    q_tau * r leaves the float range.
    """
    trivial = lam == 0.0 and mu == 0.0
    qtaus = np.array([2j * math.pi * tau for tau in taus])[:, None]
    if not math.isfinite(float(np.abs(qtaus).max()) * float(last + 1)):  # q_tau * (r +- lam)
        return [[None] * len(taus) for _ in orders]
    h = -qtaus.real                                             # 2 pi Im tau
    # the plus stream, r + lam from r = 0 (1 at the trivial twist), then the minus
    # stream, r - lam from r = 1, side by side in one table, each (first r, first
    # column); one stream when trivial
    if trivial:
        streams = [(1, 0)]
        rs = np.arange(1, last + 1)
        x = rs + lam
        phase = np.ones(last)
    else:
        streams = [(0, 0), (1, last + 1)]
        rs = np.concatenate((np.arange(last + 1), np.arange(1, last + 1)))
        x = np.concatenate((rs[:last + 1] + lam, rs[last + 1:] - lam))
        phase = np.full(x.size, cmath.exp(2j * math.pi * mu))
        phase[last + 1:] = cmath.exp(-2j * math.pi * mu)
    inside = rs <= (last - 1) * h.min() / h + 2.0
    with np.errstate(all="ignore"):         # terms past a stop may overflow; the loop raises
        t, near_pole = _eisenstein_terms(_powers(x, orders)[:, None, :], qtaus * x, phase,
                                         inside)
        big = np.abs(t.real)
        np.maximum(big, np.abs(t.imag), out=big)        # abs(t) is in [big, sqrt(2) big]
        # abs of a term near the float range may raise OverflowError
        huge = (big > 0.5 * _FLOAT_MAX).any(axis=-1)
        # abs(t) < tol, by hypot where big leaves it open
        np.hypot(t.real, t.imag, out=big, where=(big >= 0.5 * cfg.tol) & (big < cfg.tol))
        below = big < cfg.tol
        small = below if trivial else below[..., 1:last + 1] & below[..., last + 1:]
        stop = small.argmax(axis=-1) + 1                            # r of the stop
        rows, cols = np.arange(len(orders))[:, None], np.arange(len(taus))
        sums = []
        for start, lo in streams:
            t[..., lo] += 0.0                                       # 0.0 + 0.0j + first term
            sums.append(np.add.accumulate(t[..., lo:lo + stop.max() - start + 1], axis=-1)
                        [rows, cols, stop - start])
        ok = (small.any(axis=-1) & np.isfinite(sums[0]) & np.isfinite(sums[-1])
              & ~near_pole & ~huge)
    return [[(p, m) if good else None for p, m, good in zip(*row)]
            for row in zip(sums[0].tolist(), sums[-1].tolist(), ok.tolist())]


def _eisenstein_terms(pw: np.ndarray, arg: np.ndarray, phase: np.ndarray,
                      inside: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The terms x^(n-1) w / (1 - w), w = phase * exp(q_tau * x), of the E_n q-series
    as _eisenstein_series computes them, from the powers pw (orders x 1 x r) and the
    exponents arg = q_tau * x (tau x r), exp taken where inside and NaN elsewhere;
    with, for each tau, whether max(|re|, |im|) of some denominator, which its abs
    is at least, is below _POLE_EPS.

    CPython's complex products are written out in real operations, numpy's complex
    multiply and divide differing in the last bit, and _Py_c_quot's two branches
    as num / den = ((num.re c1 + num.im c2) / denom, (num.im c1 - num.re c2) /
    denom): c1 = 1 and c2 = ratio where |den.re| >= |den.im|, c1 = ratio and c2 = 1
    elsewhere, a factor 1.0 being exact. The real part of q_tau * x differs from
    CPython's only in the sign of a zero, which exp does not see.
    """
    e = np.exp(arg, out=np.full_like(arg, np.nan), where=inside)
    er, ei = e.real, e.imag
    wr = phase.real * er - phase.imag * ei                          # w = phase * e
    wi = phase.real * ei + phase.imag * er
    dr, di = 1.0 - wr, 0.0 - wi                                     # den = 1.0 - w
    adr, adi = np.abs(dr), np.abs(di)
    near_pole = (np.maximum(adr, adi) < _POLE_EPS).any(axis=-1)
    by_real = adr >= adi
    ratio = np.where(by_real, di / dr, dr / di)
    denom = np.where(by_real, dr + di * ratio, dr * ratio + di)
    c1, c2 = np.where(by_real, 1.0, ratio), np.where(by_real, ratio, 1.0)
    nr = pw * wr - 0.0 * wi                                         # num = x^(n-1) * w
    ni = pw * wi + 0.0 * wr
    t = np.empty(ni.shape, dtype=complex)                           # num / den
    np.divide(nr * c1 + ni * c2, denom, out=t.real)
    np.divide(ni * c1 - nr * c2, denom, out=t.imag)
    return t, near_pole


def _powers(x: np.ndarray, orders: list[int]) -> np.ndarray:
    """x ** (n - 1) for each n in orders and each x, shape (len(orders), x.size), by the
    C pow that Python's float power calls (numpy's power differs in the last bit); inf
    where it overflows."""
    xs = x.tolist()
    out = np.empty((len(orders), len(xs)))
    for k, n in enumerate(orders):
        if n == 1:
            out[k] = 1.0                                    # pow(x, 0) is 1 for every x
            continue
        try:
            out[k] = np.fromiter(map(math.pow, xs, repeat(float(n - 1))), float, len(xs))
        except OverflowError:
            for j, v in enumerate(xs):
                try:
                    out[k, j] = v ** (n - 1)
                except OverflowError:
                    out[k, j] = math.inf
    return out


@lru_cache(maxsize=100_000)
def eisenstein(n: int, tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Eisenstein series E_n(tau); exactly 0 for odd n.

    E_n = -B_n(0)/n! + (2/(n-1)!) sum_{r>=1} r^{n-1} q^r / (1 - q^r): the
    trivial twist of the E_n[tw] q-series _eisenstein_series, which
    twisted_eisenstein evaluates at every twist.
    """
    if n < 2:
        raise ValueError("eisenstein requires n >= 2")
    tau = require_upper_half(tau)
    if n % 2 == 1:
        return 0.0 + 0.0j
    return _eisenstein_series(n, 0.0, 0.0, tau, cfg)


def weierstrass_pk(k: int, z: complex, tau: complex,
                   cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Untwisted P_k(z, tau): the one-point call of _weierstrass_pks.

    Domain: the whole plane off the period lattice 2*pi*i*(Z*tau + Z).
    """
    return complex(_weierstrass_pks(k, [z], tau, cfg)[0])


def _weierstrass_pks(k: int, zs: Sequence[complex], tau: complex,
                     cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Untwisted P_k(z, tau) at every z of zs, by one call of the twisted theta quotient:
    the trivially twisted P_k minus the constant 1/2 at k = 1. Errors as twisted_pk_batch,
    the outcome holding these values."""
    from .twisted import TwistPair, twisted_pk_batch

    vals, statuses = _outcome(twisted_pk_batch, [k], TwistPair.trivial(), zs, tau, cfg)
    vals = vals[0] - 0.5 if k == 1 else vals[0]
    return vals if statuses is None else _refused(vals, statuses[0])


def _turn(num: int, den: int) -> float:
    """2 pi (num/den mod 1) for integers num and den > 0, the reduction exact."""
    return _TWO_PI * (num % den / den)


def _split(x):
    """The leading 26 bits of a float or float array x (Veltkamp): their product by an
    integer below 2^27 is exact, and x less them is exact and has 26 bits too."""
    f = _SPLITTER * x
    return f - (f - x)


_TWO_PI_HI = _split(_TWO_PI)
_TWO_PI_LO = (_TWO_PI - _TWO_PI_HI) + _TWO_PI_TAIL


def _period_parts(tau):
    """The leading 26-bit parts of (Re 2 pi i tau, Im -2 pi i), by which the shifts (m, k)
    multiply exactly, and the rest of 2 pi i tau as (real, imaginary part): 2 pi t is
    Dekker's exact product of _TWO_PI and t plus _TWO_PI_TAIL t (Cody and Waite). Shape
    (2,) for one tau, (points, 2) for an array of them."""
    parts = []
    for t in (-tau.imag, tau.real):
        hi, t1 = _TWO_PI * t, _split(t)
        lo = ((((_TWO_PI_HI * t1 - hi) + _TWO_PI_HI * (t - t1)
                + (_TWO_PI - _TWO_PI_HI) * t1) + (_TWO_PI - _TWO_PI_HI) * (t - t1))
              + _TWO_PI_TAIL * t)
        parts.append((_split(hi), hi - _split(hi) + lo))
    (r1, r2), (i1, i2) = parts
    if isinstance(tau, np.ndarray):
        return (np.stack((r1, np.full_like(r1, -_TWO_PI_HI)), axis=1),
                np.stack((r2, i1 + i2), axis=1))
    return np.array([r1, -_TWO_PI_HI]), np.array([r2, i1 + i2])


def _sum_over_n(terms: np.ndarray) -> np.ndarray:
    """A table's sum over its leading axis n, in order of n, so that each column's sum
    depends only on that column: add.reduce adds whole rows of a C-ordered table in
    order while a row holds more than one element, and may sum a lone column, or a
    column contiguous in memory, pairwise."""
    if terms[0].size > 1:
        # from -0, not the default +0: the bits of adding from the first term
        return np.add.reduce(terms, axis=0, initial=-0j if terms.dtype == complex else -0.0)
    return np.add.accumulate(terms, axis=0)[-1]


def _turns(b, m):
    """2 pi (b m mod 1) to a few eps for floats b and integer-valued floats m, |m| < 2^26,
    scalars or arrays: with b1 = _split(b), b1 m and so its mod 1 are exact."""
    b1 = _split(b)
    return _TWO_PI * ((b1 * m) % 1.0 + (b - b1) * m)


def _window(tau: complex) -> int | NotConverged:
    """Half-width N of theta's window at tau, pi Im(tau) (N - 1)^2 >= _THETA_TAIL; or the
    NotConverged refusal past _THETA_MAX_HALF_WIDTH or where pi Im tau leaves the float
    range."""
    pi_im = math.pi * tau.imag
    span = math.sqrt(_THETA_TAIL / pi_im + 0.25)
    if span + 1.0 > _THETA_MAX_HALF_WIDTH:        # also when span is inf
        return NotConverged(f"theta window needs more than {_THETA_MAX_HALF_WIDTH} terms "
                            f"either side of 0 at tau = {tau}")
    if pi_im > _FLOAT_MAX:
        return NotConverged(f"theta's exponents pi Im(tau) n^2 leave the float range at "
                            f"tau = {tau}")
    return math.ceil(span) + 1


def _last(x, at):
    """x at the points at along its last axis, C-ordered as _sum_over_n asks, or x itself
    when that axis broadcasts."""
    return np.take(x, at, axis=-1) if x.shape[-1] > 1 else x


def _theta_table(chars: Sequence[tuple], zs: np.ndarray, tau, order: int, fails: dict
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Taylor columns of theta at every point of zs and characteristic row of chars: the
    one theta summation behind theta_char, the prime form and the P_k kernel.

    A column is one (row, point) pair. A row's characteristic (a, b) is a pair of floats;
    the first row's may be a pair of numpy arrays of one value per point instead. tau is
    one complex, or a numpy array of one per point, the rows of a point sharing it. Each
    z is first moved next to 0, to w = z' + 2 pi i tau m, z' = z - 2 pi i k, k = round(Im
    z / 2 pi) and m = round(Re z / (2 pi Im tau)), the periods split so that w is good to
    a few eps |w| however far out z lies (_period_parts). The terms of every row then
    peak at |n| <= 1, and one window |n| <= N, pi Im(tau) (N - 1)^2 >= _THETA_TAIL
    (_window), serves every row of a point: past it the terms are below e^-_THETA_TAIL of
    the largest, which the rounding bound covers. A row (a, b), |a| <= 1/2, sums
        S[a;b](w) = sum_n e^{i pi tau n(n + 2a) + x (w + 2 pi i b)},  x = n + a,
    and theta[a;b](z) = e^{i pi tau a^2 + 2 pi i (a k + b m) + m (z' + w) / 2} S[a;b](w).
    Returns, laid out (j, row, point) for j < order, the columns S^(j)(w) / (j! e^L) and
    their rounding bounds, each point's log-scale L (the largest real part of an
    exponent at the point, so that no column leaves the float range), its shifts (m, k)
    and w (z itself where nothing moves); _scales gives the multiplier's log-scale and
    phase, _turns each row's phase. Each column is summed in order of n, so each value
    depends only on its own point: where the points' windows differ, the table spans the
    widest, and a point's terms outside its own window are exact zeros (-0, which leave
    a sum's bits as they are) that its log-scale and bound leave out. At a column of
    (1/2, 1/2) the terms n and -1-n are taken together where 0 < |w| < _PAIR_RADIUS, as
    2 i (-1)^n e^{i pi tau n(n+1)} x^j sinh(x w) at even j (odd j do not cancel), so
    theta[1/2;1/2] and K stay relatively accurate as w -> 0.

    Column j's bound is u = eps/2 times the sum over its terms of |x^j/j! term| times
        3 c + 3 + (7 pi |tau| + 1) n(n + 2a) + |x| (8 |w| + 40 |b|) + L - Re E,
    c = max(j + 1, 2), or 1 in a table of order 1, E the exponent (the rounding of exp,
    of the column's own x^j/j!, of i pi tau n(n + 2a), of w, 2 pi b, x and
    x (w + 2 pi i b), and of L - Re E), plus (N + 1) |column|: the partial sums are at
    most the sum of |t| up to n < 0, and |column| plus the rest from n = 0 on. So a
    column's bound, like its value, is the same in every table of order 2 or more.
    A column is refused, in this order, with NotConverged when its window passes
    _THETA_MAX_HALF_WIDTH terms either side (Im tau below about 6e-5) or pi Im tau leaves
    the float range, with DomainError for a non-finite z, and with NotConverged when |m|
    or |k| reaches 2^26, where theta's largest term is far past the float range and z
    keeps no digit once reduced. fails holds the columns refused so far (the per-point
    layer's map) and takes the table's own refusals; a refused column is summed as a
    stand-in (_stand_ins), so it widens no window. tau must already be checked by
    require_upper_half. Its shifts and exponents overflow where |Re z| or |tau| is within
    a few decades of the largest float: callers run it under np.errstate, and refuse
    those points by the finiteness of what it returns.
    """
    zs, tau = _stand_ins(fails, np.asarray(zs, dtype=complex), tau)
    # each point's window |n| <= width, the table's |n| <= most, and the factors of the
    # shifts (m, k)
    per_tau = isinstance(tau, np.ndarray)
    if per_tau:
        pi_im = math.pi * tau.imag
        span = np.sqrt(_THETA_TAIL / pi_im + 0.25)
        bad = (span + 1.0 > _THETA_MAX_HALF_WIDTH) | (pi_im > _FLOAT_MAX)
        if bad.any():
            _refuse(fails, bad, lambda j: _window(complex(tau[j])))
            zs, tau = _stand_ins(fails, zs, tau)
            span = np.sqrt(_THETA_TAIL / (math.pi * tau.imag) + 0.25)
        width = np.ceil(span) + 1.0
        most = int(width.max())
        inv = np.empty((zs.size, 2))
        inv[:, 0] = 1.0 / (_TWO_PI * tau.imag)
        inv[:, 1] = 1.0 / _TWO_PI
    else:
        width = most = _window(tau)
        if not isinstance(most, int):       # every column refused: stand-ins at tau = i
            _refuse(fails, range(zs.size), most)
            zs, tau = _stand_ins(fails, zs, 1j)
            width = most = _window(tau)
        inv = np.array([1.0 / (_TWO_PI * tau.imag), 1.0 / _TWO_PI])
    # the shifts (m, k) of every point side by side, NaN or inf at a non-finite z
    shifts = np.rint(zs.view(float).reshape(-1, 2) * inv)
    far = shifts.any() and np.abs(shifts).max()
    if far and not far < _SHIFT_MAX:
        _refuse(fails, ~np.isfinite(zs),
                lambda j: DomainError(f"theta needs a finite z, got z = {zs[j]}"))
        _refuse(fails, ~(np.abs(shifts).max(axis=1) < _SHIFT_MAX), lambda j: NotConverged(
            f"theta's largest term would leave the float range at z = {zs[j]:.6g}, tau = "
            f"{_tau_at(tau, j)}: the shift of z by {shifts[j, 0]:.6g} and {shifts[j, 1]:.6g} "
            f"periods keeps none of its digits"))
        zs, tau = _stand_ins(fails, zs, tau)
        shifts = np.rint(zs.view(float).reshape(-1, 2) * inv)
        far = np.abs(shifts).max(initial=0.0)
    w = zs
    if far:
        m, k = shifts[:, 0], shifts[:, 1]
        # the leading parts' products and sums are exact, each sum being at most half a
        # period (Sterbenz); the rest rounds at |w|
        lead, rest = _period_parts(tau)
        w = zs.view(float).reshape(-1, 2) + shifts * lead
        w += m[:, None] * rest
        if np.count_nonzero(k):
            w[:, 1] -= _TWO_PI_LO * k
        w = w.view(complex).reshape(-1)
    # the characteristics (row, point or 1), w + 2 pi i b and 8 |w| + 40 |b| at each
    # column, and the rows that hold (1/2, 1/2), with the points where they do when the
    # row varies by point
    aw = np.abs(w)
    per_char = isinstance(chars[0][0], np.ndarray)
    halves = ([(chars.index((0.5, 0.5), per_char), None)]
              if (0.5, 0.5) in (chars[1:] if per_char else chars) else [])
    if per_char:
        a, b = np.empty((2, len(chars), zs.size))
        for r, (ca, cb) in enumerate(chars):
            a[r], b[r] = ca, cb
        odd = (a[0] == 0.5) & (b[0] == 0.5)
        if odd.any():
            halves.insert(0, (0, odd))
        turned, weight = 2j * math.pi * b + w, 40.0 * np.abs(b) + 8.0 * aw
    else:
        rows = np.array([(ca, 2j * math.pi * cb, 40.0 * abs(cb)) for ca, cb in chars])[:, :, None]
        a = rows[:, 0].real
        turned = rows[:, 1] + w
        weight = rows[:, 2].real + 8.0 * aw
    ns = _NS[_THETA_MAX_HALF_WIDTH - most:_THETA_MAX_HALF_WIDTH + most + 1]
    xs = ns + a
    ax = np.abs(xs)
    sq = ns * (xs + a)                                      # x^2 - a^2 >= 0, as |a| <= 1/2
    # exponents laid out (n, row, point), less each point's log-scale
    quad = sq * (1j * math.pi * tau)
    expo = xs * turned
    expo += quad
    real = expo.real
    # the terms of each point's own window, where the windows differ
    if per_tau and width.min() < most:
        inside = np.abs(ns) <= width
        top = real.max(axis=(0, 1), where=inside, initial=-math.inf)
    else:
        inside = None
        top = real.max(axis=(0, 1))
    real -= top
    # each term's relative rounding in units of u, |n| <= n(n + 2a) + 1 with it
    slack = ax * weight
    slack -= real
    # |tau| by Python's abs, whose last bit numpy's does not always match
    rate = 7.0 * math.pi * (np.array([abs(t) for t in tau.tolist()]) if per_tau
                            else abs(tau)) + 1.0
    # laid out (n, column or 1, row, point): column j charges the rounding of its own
    # x^j / j! alone, 3 j + 7 as the top column of a table of order j + 1 (10 at j < 2)
    const = (np.maximum(np.arange(7.0, 3.0 * order + 5.0, 3.0), 10.0)[:, None, None]
             if order > 2 else 3.0 * order + 4.0)
    slack = slack[:, None] + (const + (rate * sq)[:, None])
    terms = np.exp(expo)[:, None]
    mags = np.exp(real)[:, None] * slack
    if order > 1:
        # pw[:, j] = x^j / j!, the running product of x / i over i <= j
        pw = np.empty((ns.size, order) + xs.shape[1:])
        pw[:, 0] = 1.0
        np.divide(xs[:, None], np.arange(1.0, order)[:, None, None], out=pw[:, 1:])
        if order > 2:
            pw = np.multiply.accumulate(pw, axis=1)
        terms = pw * terms
        mags = np.abs(pw) * mags
    if inside is not None:
        np.copyto(terms, -0j, where=~inside[:, None])
        np.copyto(mags, 0.0, where=~inside[:, None])
    cols = _sum_over_n(terms)
    bounds = (0.5 * _EPS) * (_sum_over_n(mags) + (width + 1.0) * np.abs(cols))
    if halves:
        # the points with 0 < |w| < _PAIR_RADIUS
        if aw.size > _PAIR_SCAN:
            near = (np.subtract(aw.view(np.uint64), _ONE_BIT) < _PAIR_BITS).nonzero()[0]
        else:
            near = [j for j, v in enumerate(aw.tolist()) if 0.0 < v < _PAIR_RADIUS]
        for h, mask in halves:
            at = near if mask is None else np.asarray(near, dtype=int)[mask[near]]
            if not len(at):
                continue
            # the terms n >= 0 and -1-n together, x = n + 1/2: (n, point), then (n, j, point)
            sign = np.where(ns[most:, 0] % 2.0, -2j, 2j)
            terms = (np.exp(_last(quad[most:, h], at) - top[at]) * sign
                     * np.sinh(_last(xs[most:, h], at) * w[at]))
            pe = _last(pw[most:, 0::2, h], at) if order > 1 else np.ones((1, 1, 1))
            mags = np.abs(pe) * (np.abs(terms)[:, None] * _last(slack[most:, 0::2, h], at))
            terms = pe * terms[:, None]
            span = width[at] if per_tau else width
            if inside is not None:
                np.copyto(terms, -0j, where=ns[most:] > span)
                np.copyto(mags, 0.0, where=ns[most:] > span)
            cols[0::2, h, at] = paired = _sum_over_n(terms)
            bounds[0::2, h, at] = (0.5 * _EPS) * (_sum_over_n(mags)
                                                  + (span + 1.0) * np.abs(paired))
    return cols, bounds, top, shifts, w


def _scales(top, m, w, tau: complex):
    """The log-scale plus i times the phase of theta's multiplier at a point that the table
    shifted by m quasi-periods to w: top + m (z' + w) / 2 = top + m w - i pi tau m^2."""
    return top + (m * w - (1j * math.pi * tau) * (m * m))


# the types of one tau, a or b; anything else is a sequence of one value per point
_SCALARS = (complex, float, int, np.number)


# the per-point layer of the batch forms: fails maps each refused point (or table column)
# to its error (errors._refuse); later stages skip it, and it takes a stand-in z and tau
# that widen no window

def _by_point(x, n: int, what: str) -> bool:
    """Whether x gives one value per point (anything but a number), its length checked."""
    if isinstance(x, _SCALARS):
        return False
    if len(x) != n:
        raise ValueError(f"{what} has {len(x)} values for {n} points")
    return True


def _point_taus(tau, n: int, fails: dict):
    """tau checked by require_upper_half: one complex, or a complex array of the n values
    of a per-point sequence. A refused tau refuses its point, or every point when it is
    one value (an empty batch raises), and is replaced by 1j."""
    if isinstance(tau, _SCALARS) or not _by_point(tau, n, "tau"):
        try:
            return require_upper_half(tau)
        except DomainError as exc:
            if not n:
                raise
            _refuse(fails, range(n), exc)
            return 1j
    taus = np.array(tau, dtype=complex).reshape(-1)
    good = (taus.imag > 0) & np.isfinite(taus)
    if not good.all():
        _refuse(fails, ~good, lambda j: DomainError(_UPPER_HALF.format(complex(taus[j]))))
        taus[~good] = 1j
    return taus


def _tau_at(tau, j: int) -> complex:
    """Point j's tau: tau itself when it is one complex, else its j-th value."""
    return complex(tau[j] if isinstance(tau, np.ndarray) else tau)


def _stand_ins(fails: dict, zs: np.ndarray, tau):
    """zs and tau with each refused point's z at 0 and its tau that of the first passing
    point (1j when none passes), so that a refused point leaves the sizing alone."""
    if not fails:
        return zs, tau
    out = np.fromiter(fails, dtype=np.intp, count=len(fails))
    zs = zs.copy()
    zs[out] = 0.0
    if isinstance(tau, np.ndarray):
        live = np.ones(tau.size, dtype=bool)
        live[out] = False
        tau = np.where(live, tau, tau[live.argmax()] if live.any() else 1j)
    return zs, tau


def _prime_forms(zs: Sequence[complex], tau, cfg: TruncationConfig = DEFAULT_CONFIG
                 ) -> np.ndarray:
    """K(z) = theta[1/2;1/2](z)/theta'[1/2;1/2](0) at every z of zs, each to cfg.tol
    relative to |K|, from one _theta_table call with z = 0 as one more point per distinct
    tau; tau is one complex or a sequence of one per point. Each value depends only on
    its own z and tau, and equals the one-point call bit for bit; a refused batch raises
    its first refused point's error, with the batch's outcome (_settle). A batch of no
    points is empty.

    Every use of K in this library takes its log or divides by it, so K has the
    domain of the kernels P_k: NearPole where |K| < 1e-11, within about 1e-11 of
    a lattice point; NotConverged where K leaves the float range (e.g. z = 100,
    tau = i) or where the rounding bound, carried through the quotient, passes
    cfg.tol |K| (close to the lattice points 2 pi i n, n != 0, and at small Im tau,
    where both sums cancel); otherwise errors as _theta_table.
    """
    zs = np.array(zs, dtype=complex).reshape(-1)
    npts = zs.size
    fails: dict = {}
    taus = _point_taus(tau, npts, fails)
    if not npts:
        return np.zeros(0, dtype=complex)
    per_tau = isinstance(taus, np.ndarray)
    pts_z, pts_tau = _stand_ins(fails, zs, taus)
    if per_tau:
        # S'(0) at each distinct tau, in column zero[j] for point j
        distinct, zero = np.unique(pts_tau, return_inverse=True)
        col_tau, nzero, zero = np.concatenate((pts_tau, distinct)), distinct.size, zero + npts
    else:
        col_tau, nzero, zero = taus, 1, npts
    # S(z) at every z, and S'(0) at z = 0 as the last points
    pts = np.zeros(npts + nzero, dtype=complex)
    pts[:npts] = pts_z
    # theta's exponents may overflow at a far z or tau, which the checks below refuse
    with np.errstate(all="ignore"):
        cols, bounds, scale, shifts, w = _theta_table([(0.5, 0.5)], pts, col_tau, 2, fails)
        for c in range(npts, pts.size):
            fails.pop(c, None)
        m = shifts[:, 0]
        moved = np.count_nonzero(m)
        if moved:
            # the multiplier's log-scale and phase at every column; a point that stays keeps
            # the real log-scale alone, as it has alone
            shifted = _scales(scale, m, w, col_tau)
        if per_tau:
            den = cols[1, 0, zero]
            absden = np.array([abs(d) for d in cols[1, 0, npts:].tolist()])[zero - npts]
        else:
            den = complex(cols[1, 0, -1])
            absden = abs(den)
        # the multiplier of theta[1/2;1/2] is e^{scale} (-1)^(m + k)
        odd = shifts[:npts].sum(axis=1) % 2.0 == 1.0
        grow = np.exp(scale[:npts] - scale[zero])
        np.negative(grow, out=grow, where=odd)
        if moved:
            scale = shifted
            far = np.exp(scale[:npts] - scale[zero])
            np.negative(far, out=far, where=odd)
            grow = np.where(m[:npts] != 0.0, far, grow)
        ratio = cols[0, 0, :npts] / den
        ks = ratio * grow
        aks = np.abs(ks)
        bounds = (np.abs(grow) * (bounds[0, 0, :npts]
                                  + np.abs(ratio) * bounds[1, 0, zero]) / absden
                  + (3.0 + 3.0 * np.abs(scale[:npts])) * _EPS * aks)
        bad = ~np.isfinite(ks)
        tiny = aks < 10 * _POLE_EPS
        ok = bounds <= cfg.tol * aks
    if bad.any():
        _refuse(fails, bad, lambda j: NotConverged(
            f"prime form at z = {zs[j]:.6g}, tau = {_tau_at(taus, j)}: theta's largest "
            f"term would leave the float range"))
    if tiny.any():
        _refuse(fails, tiny, lambda j: NearPole(
            f"z = {zs[j]:.6g} is within {10 * _POLE_EPS} of a zero of the prime form at "
            f"tau = {_tau_at(taus, j)}"))
    if np.count_nonzero(ok) < ok.size:
        _refuse(fails, ~ok, lambda j: NotConverged(
            f"prime form at z = {zs[j]:.6g}, tau = {_tau_at(taus, j)}: rounding bound "
            f"{bounds[j] / aks[j]:.3g} over tol {cfg.tol:.3g}"))
    return _settle(ks, fails)


def p0_batch(zs: Sequence[complex], tau: complex,
             cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """P_0(z, tau) = -log K(z, tau) for every z of zs, on the branch -Log z - Log(K/z).

    Log is the principal logarithm. The branch is the one continuous from -log z
    near 0, the sum -log z + sum_{k>=2} E_k(tau) z^k / k of the Laurent series on
    the disk |z| < 2 pi min|m tau + n| over (m, n) != (0, 0); past the disk it is
    cut where K/z crosses the negative real axis. K comes from _prime_forms, so
    each value depends only on its own z, and its errors are p0's.
    """
    zs = np.array(zs, dtype=complex).reshape(-1)
    ks, statuses = _outcome(_prime_forms, zs, tau, cfg)
    if statuses is None:
        return -np.log(zs) - np.log(ks / zs)
    with np.errstate(all="ignore"):
        _refused(-np.log(zs) - np.log(ks / zs), statuses)


def p0(z: complex, tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """P_0(z, tau): the one-point call of p0_batch, on the same branch."""
    return complex(p0_batch([z], tau, cfg)[0])


def prime_form(z: complex, tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Elliptic prime form K(z, tau) = theta[1/2;1/2](z, tau) / theta'[1/2;1/2](0, tau).

    Entire in z, with a simple zero at every lattice point, of unit derivative
    at z = 0; K(z + 2 pi i) = -K(z), K(z + 2 pi i tau) = -e^{-z - i pi tau} K(z),
    and K = exp(-P_0). The one-point call of _prime_forms, with its errors:
    NearPole within about 1e-11 of a lattice point, where |K| < 1e-11;
    NotConverged where K is not good to cfg.tol relative (at small Im tau, e.g.
    0.02i, where the theta sums cancel), where it leaves the float range, or
    when theta's window passes 512 terms either side (Im tau below about 6e-5).
    """
    return complex(_prime_forms([z], tau, cfg)[0])


def theta_char(a: float, b: float, z: complex, tau: complex,
               cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Jacobi theta function with characteristics a, b.

    theta[a;b](z, tau) = sum_n exp[i*pi*(n+a)^2*tau + (n+a)*(z + 2*pi*i*b)],
    for every real a, b and finite z: the one-point call of _theta_chars. a is
    taken mod 1, since theta[a+1; b] = theta[a; b] exactly, and b by the shift
    law theta[a; b+k] = e^{2 pi i a k} theta[a; b], its phase a k mod 1 exact, so
    a large b keeps its digits. z is moved next to the imaginary axis by the
    quasi-period first (_theta_table), so one window about n = 0 serves any z. At
    a, b = 1/2 mod 1 the terms n and -1-n are taken together near z = 0:
    theta[1/2;1/2] is exactly 0 at z = 0 and relatively accurate near it, where
    those terms cancel.
    The value carries a rounding bound, and the rule is the prime form's: it is
    returned where the bound is within cfg.tol |theta|, and an exact 0 is 0.
    DomainError for a non-finite a, b or z. NotConverged where the bound passes
    cfg.tol |theta| (close to a zero of theta[a;b], and where the terms cancel
    at small Im tau); where theta leaves the float range (e.g. z = 100,
    tau = i), or falls below its normal range (e.g. a = 0.3 at Im tau past
    about 2500); or when the window passes 512 terms either side of n = 0
    (Im tau below about 6e-5).
    """
    return complex(_theta_chars(a, b, [z], tau, cfg)[0])


def _theta_chars(a, b, zs: Sequence[complex], tau,
                 cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """theta_char(a, b, z, tau, cfg) at every z of zs, from one _theta_table call: e^{i
    pi tau a^2 + scale} c_0(w) times the phases of b's shift and of the quasi-period,
    with a taken to [-1/2, 1/2] and b to [-1/2, 1/2] exactly. a, b and tau are each one
    number or a sequence of one per point. Each value depends only on its own point and
    equals the one-point call bit for bit; a refused batch raises its first refused
    point's error, with the batch's outcome (_settle). A batch of no points is empty."""
    zs = np.array(zs, dtype=complex).reshape(-1)
    npts = zs.size
    fails: dict = {}
    taus = _point_taus(tau, npts, fails)
    per_a = _by_point(a, npts, "a")
    per_b = _by_point(b, npts, "b")
    if not npts:
        return np.zeros(0, dtype=complex)
    if per_a or per_b:
        chars = [_reduced_char(ca, cb, fails, j) for j, (ca, cb) in enumerate(
            zip(a if per_a else repeat(a), b if per_b else repeat(b)))]
        row = (np.array([c[0] for c in chars]), np.array([c[1] for c in chars]))
    else:
        chars = repeat(_reduced_char(a, b, fails, range(npts)))
        row = next(chars)[:2]
    per_tau = isinstance(taus, np.ndarray)
    with np.errstate(all="ignore"):       # a far z or tau: the checks below refuse
        cols, bounds, top, shifts, w = _theta_table([row], zs, taus, 1, fails)
    vals = []
    for j, (z, col, bound, s, (m, kz), wz, (ra, rb, turn, sign, odd), t) in enumerate(zip(
            zs.tolist(), cols[0, 0].tolist(), bounds[0, 0].tolist(), top.tolist(),
            shifts.tolist(), w.tolist(), chars, taus.tolist() if per_tau else repeat(taus))):
        if j in fails or odd and not z:
            vals.append(0j)                       # refused, or theta[1/2;1/2](0), odd
            continue
        # the phases, each to 3 eps 2 pi (_turns)
        lead = 1j * math.pi * t * (ra * ra)
        phase, slack = turn, 4.0 + abs(lead)
        if m:
            s = _scales(s, m, wz, t)
            phase, slack = phase + _turns(rb, m), slack + 10.0
        if kz:
            phase, slack = phase + _turns(ra, kz), slack + 10.0
        try:
            factor = cmath.exp(s + lead + 1j * phase) * sign
        except OverflowError:
            factor = complex(math.inf)
        val = factor * col
        vals.append(val)
        if not cmath.isfinite(val):
            fails[j] = NotConverged(
                f"theta's largest term would leave the float range at z = {z:.6g}, tau = {t}")
        elif abs(factor) < _FLOAT_MIN and col:
            fails[j] = NotConverged(
                f"theta falls below the normal float range at z = {z:.6g}, tau = {t}")
        else:
            bound = abs(factor) * bound + (slack + 3.0 * abs(s)) * _EPS * abs(val)
            if not bound <= cfg.tol * abs(val):
                fails[j] = NotConverged(f"theta[{ra:.6g};{rb:.6g}] at z = {z:.6g}, tau = {t}: "
                                        f"rounding bound {bound / abs(val):.3g} over tol "
                                        f"{cfg.tol:.3g}")
    return _settle(np.array(vals, dtype=complex), fails)


def _reduced_char(a: float, b: float, fails: dict, at
                  ) -> tuple[float, float, float, float, bool]:
    """(a', b', turn, sign, odd) for theta[a;b]: a and b taken to a', b' in [-1/2, 1/2]
    exactly, theta[a;b] = e^{i turn} sign theta[a';b'], and odd at [1/2;1/2], the odd
    theta. A non-finite a or b refuses the points at (an index or a range) in fails with
    DomainError, and stands in as a = b = 0."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        _refuse(fails, [at] if isinstance(at, int) else at,
                DomainError(f"theta needs finite a and b, got a = {a}, b = {b}"))
        a = b = 0.0
    a -= round(a)
    k = round(b)
    b -= k
    if abs(a) == 0.5 and abs(b) == 0.5:
        # theta[-1/2; b] = theta[1/2; b], and b = -1/2 is 1/2 with k - 1: the multiplier
        # e^{i pi k} is the exact sign (-1)^k
        k -= b < 0
        return 0.5, 0.5, 0.0, 1.0 - 2.0 * (k % 2), True
    num, den = a.as_integer_ratio()
    return a, b, _turn(num * k, den), 1.0, False


@lru_cache(maxsize=100_000)
def dedekind_eta(tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Dedekind eta function q^{1/24} prod_{n>=1} (1 - q^n).

    The prefactor is exp(2*pi*i*tau/24), fixing the 24th root branch-free.
    NotConverged when |q|^n is not below tol by n = Q_ORDER (Im tau below about
    0.037 at tol 1e-12), or once |eta| underflows to a subnormal float (Im tau
    past ~2700).
    """
    tau = require_upper_half(tau)
    q = cmath.exp(2j * math.pi * tau)
    acc = 1.0 + 0.0j
    converged = False
    for n in range(1, Q_ORDER + 1):
        qn = q**n
        acc *= 1.0 - qn
        if abs(qn) < cfg.tol:
            converged = True
            break
    if not converged:
        raise NotConverged(f"eta product not below tol within Q_ORDER = {Q_ORDER} factors")
    val = cmath.exp(2j * math.pi * tau / 24.0) * acc
    if abs(val) < _FLOAT_MIN:
        # subnormal or 0: every eta quotient would lose its digits or divide by 0
        raise NotConverged(f"eta underflows the float range at tau = {tau}")
    return val
