"""Classical (untwisted) elliptic and modular functions.

Eisenstein series E_n, the Weierstrass-type family P_k, the elliptic prime
form K(z, tau) = theta[1/2;1/2](z, tau) / theta'[1/2;1/2](0, tau) and
P_0 = -log K, Jacobi theta functions with real characteristics, and the
Dedekind eta function.

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
)

_TWO_PI = 2.0 * math.pi
_POLE_EPS = 1e-12

# Hard cap on the terms either side of the centre of a theta window.
_THETA_MAX_HALF_WIDTH = 512
# a theta window drops terms below e^-_THETA_TAIL of the largest one, past any tol a
# float can meet, so a rounding bound covers the truncation too
_THETA_TAIL = 50.0
_EPS = sys.float_info.epsilon
_ZERO = np.zeros(1)
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
    except ValueError:
        # cmath.exp of an infinite 2 pi i tau r, once |Re tau| r passes about 3e307
        raise NotConverged(f"E_{n} q-series exponent 2 pi i tau r leaves the float range at "
                           f"r = {r}, tau = {tau}") from None
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
    the trivially twisted P_k minus the constant 1/2 at k = 1. Errors as twisted_pk_batch."""
    from .twisted import TwistPair, twisted_pk_batch

    vals = twisted_pk_batch([k], TwistPair.trivial(), zs, tau, cfg)[0]
    return vals - 0.5 if k == 1 else vals


def _odd_theta(zs: Sequence[complex], tau: complex) -> tuple[np.ndarray, np.ndarray]:
    """theta[1/2;1/2] by its terms n and -1-n taken together, at every z of zs.

    With x = n + 1/2, s = pi Im tau and c_n = (-1)^n e^{i pi Re(tau) n(n+1)},
        theta[1/2;1/2](z) = i e^{i pi tau/4} S(z),
        S(z) = sum_{n>=0} c_n e^{-s n(n+1)} 2 sinh(xz),
    and S'(0) = sum_{n>=0} c_n e^{-s n(n+1)} 2x. Returns S at every z and, as one
    more entry, S'(0); with bounds on their rounding errors in units of eps.

    S is odd: a point with z < 0 (Re z < 0, or Re z = 0 > Im z) is evaluated at
    -z. With xz = u + i phi, u >= 0, e^{-s n(n+1)} 2 sinh(xz) = e^E ((1 - e^{-2u})
    cos phi + i (1 + e^{-2u}) sin phi), E = u - s n(n+1), 1 - e^{-2u} by expm1:
    so S keeps its relative accuracy as z -> 0, is exactly 0 at z = 0, and no
    factor leaves the float range unless a term does. The Gaussian e^E peaks at
    x* = Re z / (2 s); each point sums the terms from max(0, c - N) to c + N,
    c = round(x* - 1/2), s (N - 1/2)^2 >= _THETA_TAIL, which cover every term
    within e^-_THETA_TAIL of the largest. One (points x window) table serves
    every point and, as one more row, z = 0, whose terms c_n e^{-s n(n+1)} 2x
    give S'(0); a row is padded with -0.0 past its own terms and summed in
    order of n, so each value depends only on its own z.

    A bound is the sum over a point's terms of (4 + W + 2 pi|tau| n(n+1))
    (|re| + |im|) + 4 e^E |xz|, W their number: the rounding of the arguments,
    of the functions and of the sum. The window does not depend on a tol.
    DomainError for a non-finite z; NotConverged when the window passes 512
    terms (Im tau below about 6e-5) or a term, summed over the window, would
    leave the float range.
    """
    tau = require_upper_half(tau)
    zs = np.array(zs, dtype=complex).reshape(-1)
    finite = np.isfinite(zs)
    if np.count_nonzero(finite) < zs.size:
        raise DomainError(f"theta[1/2;1/2] needs a finite z, got z = {zs[~finite][0]}")
    spread = math.pi * tau.imag
    reach = math.sqrt(_THETA_TAIL / spread) + 0.5
    if reach > _THETA_MAX_HALF_WIDTH:      # also when reach is inf
        raise NotConverged(f"theta window needs more than {_THETA_MAX_HALF_WIDTH} terms "
                           f"either side of its centre at tau = {tau}")
    half = math.ceil(reach)
    flip = zs < 0
    ws = np.concatenate((np.where(flip, -zs, zs), _ZERO))      # z = 0 last
    peak = ws.real / (2.0 * spread)
    j = int(peak.argmax())
    pk = float(peak[j])
    # the largest E: s (x*^2 + 1/4) at x = x* >= 1/2, s x* at x = 1/2 below
    top = spread * (pk * pk + 0.25) if pk >= 0.5 else spread * pk
    if top + math.log(4.0 * half + 2.0) > _LOG_FLOAT_MAX:
        raise NotConverged(f"theta[1/2;1/2]'s largest term would leave the float range at "
                           f"z = {zs[j]:.6g}, tau = {tau}")
    centre = np.rint(peak - 0.5)
    first = np.maximum(centre - half, 0.0)
    ns = first[:, None] + np.arange((centre - first).max() + half + 1.0)
    pad = ns > (centre + half)[:, None]
    xs = ns + 0.5
    sq = ns * (ns + 1.0)
    u = xs * ws.real[:, None]
    phi = xs * ws.imag[:, None]
    scale = np.exp(u - spread * sq)                             # e^E
    em = np.expm1(-2.0 * u)
    re = scale * -em * np.cos(phi)
    im = scale * (2.0 + em) * np.sin(phi)
    re[-1], im[-1] = 2.0 * xs[-1] * scale[-1], 0.0
    # c_n over every n of the table
    n_all = np.arange(ns[:, -1].max() + 1.0)
    c = np.exp((1j * math.pi * tau.real) * (n_all * (n_all + 1.0)))
    c[1::2] *= -1.0
    cn = c[ns.astype(np.intp)]
    terms = np.empty(re.shape, dtype=complex)
    terms.real = cn.real * re - cn.imag * im
    terms.imag = cn.real * im + cn.imag * re
    terms[pad] = complex(-0.0, -0.0)        # x + -0.0 is x, for every x
    sums = np.add.accumulate(terms, axis=1)[:, -1]
    slack = (5.0 + half + centre - first)[:, None] + (2.0 * math.pi * abs(tau)) * sq
    err = slack * (np.abs(re) + np.abs(im)) + (4.0 * scale) * (u + np.abs(phi))
    err[pad] = 0.0
    errs = np.add.accumulate(err, axis=1)[:, -1]
    np.negative(sums[:-1], out=sums[:-1], where=flip)
    return sums, errs


def _prime_forms(zs: Sequence[complex], tau: complex,
                 cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """K(z) = theta[1/2;1/2](z)/theta'[1/2;1/2](0) = S(z)/S'(0) at every z of zs, each
    to cfg.tol relative to |K|, from one _odd_theta table; each value depends only
    on its own z.

    Every use of K in this library takes its log or divides by it, so K has the
    domain of the kernels P_k: NearPole where |K| < 1e-11, within about 1e-11 of
    a lattice point; NotConverged where the rounding bound, carried through the
    quotient, passes cfg.tol |K| (close to the lattice points other than 0,
    and at small Im tau, where both sums cancel); otherwise errors as
    _odd_theta.
    """
    sums, errs = _odd_theta(zs, tau)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ks = sums[:-1] / sums[-1]
        aks = np.abs(ks)
        bounds = _EPS * ((errs[:-1] + aks * errs[-1]) / abs(sums[-1]) + 2.0 * aks)
    zero = aks < 10 * _POLE_EPS
    if zero.any():
        j = int(zero.argmax())
        raise NearPole(f"z = {complex(np.ravel(zs)[j]):.6g} is within {10 * _POLE_EPS} of a "
                       f"zero of the prime form at tau = {tau}")
    ok = bounds <= cfg.tol * aks
    if np.count_nonzero(ok) < ok.size:
        j = int(np.argmin(ok))
        raise NotConverged(f"prime form at z = {complex(np.ravel(zs)[j]):.6g}, tau = {tau}: "
                           f"rounding bound {bounds[j] / aks[j]:.3g} over tol {cfg.tol:.3g}")
    return ks


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
    ks = _prime_forms(zs, tau, cfg)
    return -np.log(zs) - np.log(ks / zs)


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
    0.02i, where the theta sums cancel) or its terms leave the float range.
    """
    return complex(_prime_forms([z], tau, cfg)[0])


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
    theta[1/2;1/2], and theta[a;b] = +-theta[1/2;1/2] at a, b = 1/2 mod 1, is
    i e^{i pi tau/4} S(z) of _odd_theta, the prime form's numerator: exactly 0
    at z = 0 and relatively accurate near it, where the terms n and -1-n cancel.
    """
    if a % 1.0 == 0.5 and b % 1.0 == 0.5:
        tau = require_upper_half(tau)
        sign = 1.0 if b % 2.0 == 0.5 else -1.0                  # theta[a;b+1] = -theta[a;b]
        return sign * 1j * cmath.exp(0.25j * math.pi * tau) * complex(_odd_theta([z], tau)[0][0])
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
