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
import sys
from functools import lru_cache
from itertools import repeat
from typing import Sequence

import numpy as np

from .errors import DomainError, NearPole, NotConverged
from .numeric import (
    DEFAULT_CONFIG,
    TruncationConfig,
    bernoulli_over_factorial,
    bernoulli_poly,
    binomial,
)

_TWO_PI = 2.0 * math.pi
_POLE_EPS = 1e-12

# Hard cap on the z-power carried by the disk (Laurent) series.
_DISK_SERIES_MAX_ORDER = 800
# Hard cap on the terms either side of the centre of a theta window.
_THETA_MAX_HALF_WIDTH = 512
_FLOAT_MAX = sys.float_info.max
_LOG_FLOAT_MAX = math.log(_FLOAT_MAX)


def require_upper_half(tau: complex) -> complex:
    """Validate a finite tau with Im(tau) > 0 (so |q| < 1) and return it as complex."""
    tau = complex(tau)
    if not (tau.imag > 0 and cmath.isfinite(tau)):
        raise DomainError(f"tau must be a finite point of the upper half-plane, got {tau}")
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
                       cfg: TruncationConfig,
                       prefactors: tuple[float, float] | None = None) -> complex:
    """E_n[theta; phi](tau) for the twist of phases (mu, lam): the one E_n q-series.

    -B_n(lam)/n! plus two q-expansions over r + lam (from r = 0) and r - lam
    (from r = 1), summed until both terms drop below cfg.tol or r exceeds
    cfg.q_order. At the trivial twist the r = 0 term is omitted exactly, the
    two streams are bitwise equal and one is summed for both, and the
    constant is B_n(0)/n! as one float.
    prefactors, when given, is _eisenstein_prefactors(n, lam, trivial), so a
    caller at many tau computes it once per order.
    A float overflow of (r +- lam)^(n-1), (n-1)! or the constant is NotConverged.
    tau must already be checked by require_upper_half.
    """
    trivial = lam == 0.0 and mu == 0.0
    qtau = 2j * math.pi * tau
    # theta^-1 and theta; 1 at the trivial twist
    th_inv, th = ((1.0, 1.0) if trivial
                  else (cmath.exp(2j * math.pi * mu), cmath.exp(-2j * math.pi * mu)))
    exp, tol, eps, power = cmath.exp, cfg.tol, _POLE_EPS, n - 1
    plus = 0.0 + 0.0j
    minus = 0.0 + 0.0j
    try:
        for r in range(1 if trivial else 0, cfg.q_order + 1):
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
            raise NotConverged(f"E_{n} q-series not below tol within q_order={cfg.q_order}")
    except OverflowError:
        raise NotConverged(f"E_{n} q-series term r^{n - 1} overflows a float at r = {r}") \
            from None
    if trivial:
        minus = plus
    return _eisenstein_total(n, plus, minus, prefactors if prefactors is not None else
                             _eisenstein_prefactors(n, lam, trivial))


def _eisenstein_total(n: int, plus: complex, minus: complex,
                      prefactors: tuple[float, float]) -> complex:
    """E_n from the sums of its two q-series streams and its prefactors."""
    const, fac = prefactors
    return -const + plus / fac + (-1.0) ** n * minus / fac


# elements of one (orders x tau x r) table of terms, about 0.4 MB of arrays at its peak:
# _eisenstein_grid sums the taus in chunks that fit, and a tau whose table alone does
# not by the loop
_GRID_CHUNK = 1 << 12


def _eisenstein_grid(ns: Sequence[int], lam: float, mu: float, taus: Sequence[complex],
                     cfg: TruncationConfig) -> np.ndarray:
    """_eisenstein_series(n, lam, mu, tau, cfg) for every n in ns and tau in taus, bit for
    bit, shape (len(ns), len(taus)); the taus must already be checked by require_upper_half.

    The taus are taken by Im tau, smallest first, in chunks whose (orders x tau x r)
    table fits _GRID_CHUNK, r running up to the window of the chunk's first tau
    (_grid_window). One numpy pass per chunk (_eisenstein_grid_sums) builds the
    exponentials and denominators once for all orders and each power (r +- lam)^(n-1)
    once for all tau; each (n, tau) keeps the loop's own stop and sums its terms in
    order of r up to it. An entry whose terms meet a pole, a float overflow, a NaN
    or the q_order cap before its stop is summed by the loop instead, so the grid
    raises exactly where a loop call would: the first such entry in row order
    decides the error, each order's prefactors being computed before its row.
    """
    trivial = lam == 0.0 and mu == 0.0
    prefactors: dict[int, tuple[float, float] | NotConverged] = {}
    for n in ns:
        if n not in prefactors:
            try:
                prefactors[n] = _eisenstein_prefactors(n, lam, trivial)
            except NotConverged as exc:
                prefactors[n] = exc
                break
    orders = [n for n, pre in prefactors.items() if not isinstance(pre, NotConverged)]
    sums: list[list] = [[None] * len(taus) for _ in orders]
    by_im = sorted(range(len(taus)), key=lambda j: taus[j].imag)
    while orders and by_im:
        last = _grid_window(max(orders) - 1, _TWO_PI * taus[by_im[0]].imag, cfg)
        size = _GRID_CHUNK // (len(orders) * (2 * last + 1))
        chunk, by_im = by_im[:max(size, 1)], by_im[max(size, 1):]
        if size:
            rows = _eisenstein_grid_sums(orders, lam, mu, [taus[j] for j in chunk], last, cfg)
            for k, row in enumerate(rows):
                for j, s in zip(chunk, row):
                    sums[k][j] = s
    out = np.empty((len(ns), len(taus)), dtype=complex)
    for i, n in enumerate(ns):
        pre = prefactors[n]
        if isinstance(pre, NotConverged):
            raise pre
        out[i] = [_eisenstein_series(n, lam, mu, tau, cfg, pre) if s is None
                  else _eisenstein_total(n, *s, pre)
                  for tau, s in zip(taus, sums[orders.index(n)])]
    return out


def _grid_window(p: int, h: float, cfg: TruncationConfig) -> int:
    """The last r the grid sums at Im tau = h/(2 pi) for orders up to p + 1: the first r
    past those at which (r+1)^p e^(-h(r-1)) / (1 - e^-h), a bound on the r-th terms, is
    tol or more; those run from r = 1, where the bound is at least 1, as it is
    log-concave in r. At most q_order, and past _GRID_CHUNK no chunk fits anyway."""
    r = np.arange(1, min(cfg.q_order, _GRID_CHUNK) + 1)
    live = p * np.log(r + 1.0) - h * (r - 1.0) >= math.log(cfg.tol) + math.log(-math.expm1(-h))
    return min(np.count_nonzero(live) + 1, cfg.q_order)


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
    if not np.isfinite(np.abs(qtaus).max() * (last + 1)):            # q_tau * (r +- lam)
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
    """Untwisted P_k(z, tau), evaluated through the twisted theta quotient twisted_pk.

    P_k equals the trivially twisted function minus the constant 1/2 at k=1.
    Domain: the whole plane off the period lattice 2*pi*i*(Z*tau + Z).
    """
    from .twisted import TwistPair, twisted_pk

    val = twisted_pk(k, TwistPair.trivial(), z, tau, cfg)
    if k == 1:
        val -= 0.5
    return val


def _disk_radius(tau: complex) -> float:
    """Radius R = 2*pi*min |m*tau + n| over integers (m, n) != (0, 0) of the disk series.

    R is the distance from 0 to the nearest other point of the period lattice
    2*pi*i*(Z*tau + Z), found by Lagrange-Gauss reduction of the basis (1, tau);
    it is below 2*pi whenever some |m*tau + n| < 1, e.g. when |tau| < 1.
    """
    u, v = 1.0 + 0.0j, require_upper_half(tau)
    while True:
        v -= round((v / u).real) * u
        if abs(v) >= abs(u):
            return _TWO_PI * abs(u)
        u, v = v, u


def _disk_points(zs, tau: complex, what: str) -> tuple[np.ndarray, float]:
    """zs as a 1-D complex array, checked to lie in the disk 0 < |z| < R, and max |z|."""
    zs = np.asarray(zs, dtype=complex).reshape(-1)
    if not zs.size:
        return zs, 0.0
    radius = _disk_radius(tau)
    r = np.abs(zs)
    reach = float(r.max())
    if not (r.min() > 0 and reach < radius):      # NaN fails both
        bad = r[~((r > 0) & (r < radius))][0]
        raise DomainError(f"{what} needs 0 < |z| < R = 2*pi*min|m*tau + n| = {radius:.4g}, "
                          f"got |z| = {bad:.4g}")
    return zs, reach


def _disk_series(coeff, start: int, shift: int, zs: np.ndarray, reach: float, tol: float,
                 what: str) -> np.ndarray:
    """Sum coeff(n) * z**(n - shift) over even n >= start, for every z of zs at once.

    Each point stops after its first two successive terms below tol. Terms
    grow with |z|, so the point of largest |z| (reach) stops last: the window
    of orders ends where its term bound has twice fallen below tol, with a
    1e-9 relative margin for the table's rounding. So coeff(n) is read once
    per order for the whole batch and never past the last stop. The terms
    form one (orders x points) table; each column is summed in order up to
    its own stop, so a value depends only on its own z, and the batch raises
    when one of its points would alone.
    """
    if not zs.size:
        return zs
    ns = range(start + start % 2, _DISK_SERIES_MAX_ORDER + 1, 2)
    bound = tol / (1.0 + 1e-9)
    coeffs: list[complex] = []
    small = 0
    for n in ns:
        coeffs.append(coeff(n))
        small = small + 1 if abs(coeffs[-1]) * reach ** (n - shift) < bound else 0
        if small == 2:
            break
    else:
        raise NotConverged(f"{what} stalled at |z| = {reach:.4g}")
    powers = zs ** np.arange(ns.start - shift, n - shift + 1, 2)[:, None]
    terms = np.array(coeffs)[:, None] * powers
    below = np.abs(terms) < tol
    stops = (below[1:] & below[:-1]).argmax(axis=0)      # row before each column's stop
    return np.add.accumulate(terms)[1:][stops, np.arange(zs.size)]


def weierstrass_pk_laurent_batch(k: int, zs: Sequence[complex], tau: complex,
                                 cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Untwisted P_k by its Laurent series about z = 0, for every z of zs.

    P_k = 1/z^k + (-1)^k sum_{n>=k} C(n-1, k-1) E_n(tau) z^{n-k}; only even n
    contribute. Converges on the disk 0 < |z| < R = 2*pi*min|m*tau + n| over
    (m, n) != (0, 0), so unlike the q-series it does not care about the sign of
    Re(z); kept as an independent oracle. Each value depends only on its own z.
    """
    if k < 1:
        raise ValueError("weierstrass_pk_laurent requires k >= 1")
    tau = require_upper_half(tau)
    zs, reach = _disk_points(zs, tau, "Laurent series")
    acc = _disk_series(lambda n: binomial(n - 1, k - 1) * eisenstein(n, tau, cfg), k, k, zs,
                       reach, cfg.tol, f"P_{k} Laurent series")
    return zs ** -k + (-1.0) ** k * acc


def weierstrass_pk_laurent(k: int, z: complex, tau: complex,
                           cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Untwisted P_k by its Laurent series: the one-point call of weierstrass_pk_laurent_batch."""
    return complex(weierstrass_pk_laurent_batch(k, [z], tau, cfg)[0])


def p0_batch(zs: Sequence[complex], tau: complex,
             cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """P_0(z, tau) = -log z + sum_{k>=2} E_k(tau) z^k / k for every z of zs, principal log.

    Defined on the disk 0 < |z| < R = 2*pi*min|m*tau + n| over (m, n) != (0, 0),
    the distance to the nearest other lattice point; DomainError outside. One
    disk-series table serves the whole batch, and each value depends only
    on its own z.
    """
    tau = require_upper_half(tau)
    zs, reach = _disk_points(zs, tau, "p0")
    return _disk_series(lambda n: eisenstein(n, tau, cfg) / n, 2, 0, zs, reach, cfg.tol,
                        "p0 series") - np.log(zs)


def p0(z: complex, tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """P_0(z, tau): the one-point call of p0_batch, on the same disk 0 < |z| < R."""
    return complex(p0_batch([z], tau, cfg)[0])


def prime_form(z: complex, tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Elliptic prime form K(z, tau) = exp(-P_0(z, tau)), on the disk of p0.

    Has a simple zero at z = 0 with unit derivative, and agrees with the
    half-integral theta expression (-i/eta^3) * theta[1/2;1/2](z, tau).
    """
    return cmath.exp(-p0(z, tau, cfg))


def theta_char(a: float, b: float, z: complex, tau: complex,
               cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Jacobi theta function with characteristics a, b.

    theta[a;b](z, tau) = sum_n exp[i*pi*(n+a)^2*tau + (n+a)*(z + 2*pi*i*b)],
    for every real a, b and finite z. a is taken mod 1, since
    theta[a+1; b] = theta[a; b] exactly. The terms peak at
    n + a ~ x* = Re z / (2*pi*Im tau), at exp(pi*Im(tau)*x*^2); the window is
    centred there and as wide as it takes for its outermost terms, and every
    omitted term, to be below cfg.tol. DomainError for a non-finite a, b or
    z. NotConverged, before any exp, when the peak term times 1 + 1/sqrt(Im
    tau) (a bound on the sum over it) leaves the float range, e.g. at z = 100,
    tau = i; or when the window passes 512 terms either side of its centre,
    e.g. at Im tau = 1e-5.
    """
    _, terms = _theta_terms(a, b, z, tau, cfg)
    return complex(terms.sum())


def _theta_terms(a: float, b: float, z: complex, tau: complex,
                 cfg: TruncationConfig) -> tuple[np.ndarray, np.ndarray]:
    """Summation indices n + a (a mod 1) and terms of theta[a;b](z, tau) over its window."""
    tau = require_upper_half(tau)
    z = complex(z)
    if not (math.isfinite(a) and math.isfinite(b) and cmath.isfinite(z)):
        raise DomainError(f"theta needs finite a, b and z, got a = {a}, b = {b}, z = {z}")
    a %= 1.0
    # log |term| = spread * (peak^2 - (n + a - peak)^2)
    spread = math.pi * tau.imag
    peak = z.real / (2.0 * spread)
    top = spread * peak * peak
    if top + math.log1p(1.0 / math.sqrt(tau.imag)) > _LOG_FLOAT_MAX:
        raise NotConverged(f"theta's largest term exp(pi*Im(tau)*x*^2), x* = {peak:.4g}, "
                           f"leaves the float range at z = {z}, tau = {tau}")
    # every term with |n + a - peak| >= reach is below tol; the centre n + a lies within
    # 1/2 of the peak, so the window's outermost terms are, as is every term past them
    reach = math.sqrt((top - math.log(cfg.tol)) / spread)
    if reach + 0.5 > _THETA_MAX_HALF_WIDTH:      # also when reach is inf
        raise NotConverged(f"theta window needs more than {_THETA_MAX_HALF_WIDTH} terms "
                           f"either side of its centre at tau = {tau}")
    half = math.ceil(reach + 0.5)
    centre = round(peak - a)
    ns = np.arange(centre - half, centre + half + 1, dtype=float) + a
    return ns, np.exp(1j * math.pi * ns**2 * tau + ns * (z + 2j * math.pi * b))


@lru_cache(maxsize=100_000)
def dedekind_eta(tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Dedekind eta function q^{1/24} prod_{n>=1} (1 - q^n).

    The prefactor is exp(2*pi*i*tau/24), fixing the 24th root branch-free.
    NotConverged once |eta| underflows to a subnormal float (Im tau past ~2700).
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
    val = cmath.exp(2j * math.pi * tau / 24.0) * acc
    if abs(val) < sys.float_info.min:
        # subnormal or 0: every eta quotient would lose its digits or divide by 0
        raise NotConverged(f"eta underflows the float range at tau = {tau}")
    return val
