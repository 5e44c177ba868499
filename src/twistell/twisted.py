"""Twisted Weierstrass functions and twisted Eisenstein series.

A twist pair (theta, phi) in U(1) x U(1) is stored by canonical phases,
theta = exp(-2*pi*i*mu) and phi = exp(2*pi*i*lam) with mu, lam in [0, 1).
P_k[tw] is evaluated as a theta quotient on the whole plane off the period
lattice (twisted_pk_batch), its thetas summed by classical._theta_table, the
summation behind theta_char and the prime form too. E_n[tw] is the
q-expansion it shares with the classical E_n (classical._eisenstein_series).
The oracles that stay independent of both are one twisted lattice double sum
(_lattice_sums, every sample of a batch in one pass), its inner sum collapsed to
derivatives of e^{a x}/(e^x - 1): P_k[tw] itself, and E_n[tw] from it at z = 0.
Modular group actions on points and twists round out the module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import Sequence

import numpy as np

from .classical import (
    _EPS,
    _POLE_EPS,
    _SCALARS,
    _by_point,
    _eisenstein_grid,
    _eisenstein_series,
    _point_taus,
    _stand_ins,
    _tau_at,
    _theta_table,
    _turns,
    require_upper_half,
)
from .errors import DomainError, NearPole, NotConverged, RouteUnavailable, _refuse, _settle
from .numeric import DEFAULT_CONFIG, TruncationConfig, bernoulli_poly, binomial

_TWO_PI = 2.0 * math.pi
_NEG_RE = np.array([-1.0, 1.0])      # (im, re) -> (-im, re)

def _reduce_phase(x: float) -> float:
    x = float(x) % 1.0
    # collapse mod-1 float dust so the trivial pair is detected exactly
    if x < 1e-15 or 1.0 - x < 1e-15:
        x = 0.0
    return x


@dataclass(frozen=True)
class TwistPair:
    """Point of U(1) x U(1) by canonical phases mu, lam in [0, 1).

    theta = exp(-2*pi*i*mu) multiplies along the 2*pi*i*tau cycle,
    phi = exp(2*pi*i*lam) along the 2*pi*i cycle. DomainError unless both
    are finite.
    """

    mu: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.lam)):
            raise DomainError(f"twist phases must be finite, got {self}")
        object.__setattr__(self, "mu", _reduce_phase(self.mu))
        object.__setattr__(self, "lam", _reduce_phase(self.lam))

    @classmethod
    def trivial(cls) -> "TwistPair":
        return cls(0.0, 0.0)

    @classmethod
    def from_theta_phi(cls, theta: complex, phi: complex) -> "TwistPair":
        for name, w in (("theta", theta), ("phi", phi)):
            if abs(abs(complex(w)) - 1.0) > 1e-9:
                raise ValueError(f"{name} must have modulus one, got {w}")
        return cls(-cmath.phase(complex(theta)) / _TWO_PI,
                   cmath.phase(complex(phi)) / _TWO_PI)

    @property
    def theta(self) -> complex:
        return cmath.exp(-2j * math.pi * self.mu)

    @property
    def phi(self) -> complex:
        return cmath.exp(2j * math.pi * self.lam)

    @property
    def is_trivial(self) -> bool:
        return self.mu == 0.0 and self.lam == 0.0

    def inverse(self) -> "TwistPair":
        """The pair (-mu, -lam) mod 1, linked back to this one, so that
        tw.inverse().inverse() is tw even where 1 - mu or 1 - lam rounds."""
        inv = self.__dict__.get("_inverse")
        if inv is None:
            inv = TwistPair(-self.mu, -self.lam)
            object.__setattr__(inv, "_inverse", self)
            object.__setattr__(self, "_inverse", inv)
        return inv

    def isclose(self, other: "TwistPair", tol: float = 1e-12) -> bool:
        def circ(x, y):
            d = abs(x - y) % 1.0
            return min(d, 1.0 - d)

        return circ(self.mu, other.mu) <= tol and circ(self.lam, other.lam) <= tol

    def __str__(self):
        return f"(mu={self.mu:.6g}, lam={self.lam:.6g})"


@dataclass(frozen=True)
class GroupElement:
    """Element of SL(2, Z)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant must be 1, got {self}")

    @classmethod
    def identity(cls) -> "GroupElement":
        return cls(1, 0, 0, 1)

    @classmethod
    def S(cls) -> "GroupElement":
        return cls(0, 1, -1, 0)

    @classmethod
    def T(cls, n: int = 1) -> "GroupElement":
        return cls(1, n, 0, 1)

    def __matmul__(self, o: "GroupElement") -> "GroupElement":
        return GroupElement(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                            self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def inverse(self) -> "GroupElement":
        return GroupElement(self.d, -self.b, -self.c, self.a)

    def automorphy(self, tau: complex) -> complex:
        return self.c * complex(tau) + self.d

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def gamma_act_point(gamma: GroupElement, z: complex, tau: complex) -> tuple[complex, complex]:
    """Standard left action: (z, tau) -> (z/(c*tau+d), (a*tau+b)/(c*tau+d))."""
    den = gamma.automorphy(tau)
    return complex(z) / den, (gamma.a * complex(tau) + gamma.b) / den


def gamma_act_twist(gamma: GroupElement, tw: TwistPair) -> TwistPair:
    """Left action (theta, phi) -> (theta^a phi^b, theta^c phi^d) on phases.

    On (mu, lam) this reads (a*mu - b*lam, d*lam - c*mu) mod 1; the
    multiplicative definition is the source of truth and the phase formula
    is pinned by a unit test against it.
    """
    return TwistPair(gamma.a * tw.mu - gamma.b * tw.lam,
                     gamma.d * tw.lam - gamma.c * tw.mu)


def lattice_distance(z: complex, tau: complex) -> float:
    """Euclidean distance from z to the period lattice 2*pi*i*(m*tau + n); NotConverged
    when the lattice row of z, Im(z/(2*pi*i))/Im(tau), leaves the float range (Im tau
    subnormal), or z less that row's m tau does (|m tau| past the largest float)."""
    tau = complex(tau)
    w = complex(z) / (2j * math.pi)
    u = w.imag / tau.imag
    if not math.isfinite(u):
        raise NotConverged(f"lattice row of z = {z} at tau = {tau} leaves the float range")
    best = math.inf
    for m in (math.floor(u), math.floor(u) + 1):
        r = w - m * tau
        if not cmath.isfinite(r):
            raise NotConverged(f"lattice row {m:.6g} of z = {z} at tau = {tau}: m tau "
                               f"leaves the float range")
        n = round(r.real)
        best = min(best, _TWO_PI * abs(r - n))
    return best


def _window_size(rate: float, tol: float) -> int:
    """Smallest N with exp(-rate*N) below tol, padded by 8; 2^62 when N is that large or
    infinite (rate <= 0, or so small that -log(tol)/rate overflows)."""
    size = -math.log(tol) / rate if rate > 0 else math.inf
    return int(size) + 8 if size < 1 << 62 else 1 << 62


def twisted_pk_batch(ks: Sequence[int], tw, zs: Sequence[complex], tau,
                     cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """Twisted Weierstrass functions P_k[theta; phi](z, tau) for every k in ks, z in zs.

    tw is one TwistPair or a sequence of one per point, and tau one complex or
    a sequence of one per point, so one call evaluates samples at distinct
    (tw, tau) too. Returns the array of shape (len(ks), len(zs)) of the theta
    quotient
    P_1[tw](z) = theta'[1/2;1/2](0) theta[lam+1/2; mu+1/2](z)
                 / (theta[lam+1/2; mu+1/2](0) theta[1/2;1/2](z)),
    or 1/2 + theta'[1/2;1/2](z)/theta[1/2;1/2](z) at the trivial twist, and
    P_{j+1}[tw](z) = (-1)^j f^(j)(z)/j! of f = P_1[tw]. Points with Re z > 0
    (or Re z = 0 < Im z) are evaluated at -z through the parity
    P_k[tw](z) = (-1)^k P_k[tw^-1](-z) (1 - P_1[1;1](-z) for the trivial P_1),
    so that relation holds bit for bit, tw^-1 inverting back to tw itself, and
    with it the exact antisymmetry of the correlators' Pfaffian matrices. One
    _p1_taylor table serves every point of the batch, whatever its twist,
    flipped points included: each point takes the numerator characteristic of
    its own twist, or of its inverse, and the Taylor columns of both thetas;
    power-series division of the columns gives the f^(j)/j!. Each point is
    moved next to 0 by the periods first (the multiplier theta^-m phi^k of the
    shift is exact), and the window is sized a priori from the Gaussian tail,
    so every value depends only on its own z, tw and tau and on nothing else in
    the batch, and equals the one-point call bit for bit.

    Domain: the whole plane off the period lattice 2 pi i (Z tau + Z).
    DomainError for a non-finite z; NearPole within 1e-11 of a lattice
    point, or when the twist is within 1e-12 of trivial (P_k[tw] has a pole
    there); NotConverged when the rounding bound -- eps times the sum of
    |term| over |theta|, weighted by each term's exponent at the reduced
    point, carried through the division -- passes cfg.tol relative to
    max(1, |P_k|): near lattice points, and at small Im tau (e.g. 0.05i),
    where the theta sums cancel; and past 2^26 periods from 0, where the
    reduction keeps no digit of z. So z = -3141.6+0.4i at tau = i, 500
    quasi-periods out, is summed at w = -0.0073+0.4i. Every stage records, per
    point, the first check the point fails (the bound per entry, which depends
    only on the entry's own order and point), and a refused point takes no
    part in the later stages' sizing; a refused batch raises its first refused
    point's error with the outcome, each entry refused as it would be alone.
    twisted_pk_oracle is the lattice-sum oracle at a nontrivial twist.
    """
    ks = list(ks)
    if ks and min(ks) < 1:
        raise ValueError("twisted_pk requires k >= 1")
    zs = np.array(zs, dtype=complex).reshape(-1)
    if not isinstance(tw, TwistPair):
        _by_point(tw, zs.size, "tw")
    fails: dict = {}
    taus = _point_taus(tau, zs.size, fails)
    if not (ks and zs.size):
        return np.zeros((len(ks), zs.size), dtype=complex)
    order = max(ks)
    with np.errstate(all="ignore"):
        # complex order is lexicographic: z > 0 means Re z > 0, or Re z = 0 < Im z; a
        # non-finite z is the table's DomainError
        flip = zs > 0
        flipped = np.count_nonzero(flip)
        # P_k = (-1)^(k-1) f_(k-1), and at a flipped point -f_(k-1) of tw^-1 at w = -z; tw^-1
        # is tw at the half-integer twists, and the only twist when all points flip. twists
        # lists the numerator twists, which[j] point j's (None: the one twist); trivial is
        # whether they are trivial, one bool, or one per point where both kinds are present
        if isinstance(tw, TwistPair):
            twists, which, trivial = [tw], None, tw.is_trivial
            if flipped:
                inv = _flipped(tw, flip, fails)
                if flipped == zs.size:
                    twists = [inv]
                elif inv != tw:
                    twists, which = [tw, inv], flip.view(np.int8)
        else:
            index: dict[TwistPair, int] = {}
            which = np.array([index.setdefault(_flipped(t, [j], fails) if f else t, len(index))
                              for j, (t, f) in enumerate(zip(tw, flip.tolist()))])
            twists, trivial = list(index), np.array([t.is_trivial for t in tw])
            trivial = trivial if 0 < trivial.sum() < trivial.size else bool(trivial[0])
        vals, err = _p1_taylor(twists, which, trivial, np.where(flip, -zs, zs) if flipped else zs,
                               taus, order, cfg, fails, flip if flipped else None)
        sign = (-1.0) ** np.arange(order)[:, None] if order > 1 else 1.0   # (-1)^(k-1)
        if flipped:
            # the trivial P_1's 1 - P_1(-z), at the points of the trivial twist
            if trivial is not False:
                vals[0] -= flip & trivial
            vals = vals * np.where(flip, -1.0, sign)
        elif order > 1:
            vals = vals * sign
        if ks != list(range(1, order + 1)):
            rows = np.array(ks) - 1
            vals, err = vals[rows], err[rows]
        # inf and NaN values carry an inf or NaN bound, and fail
        rel = err / np.maximum(1.0, np.abs(vals))
    if not fails and rel.max() <= cfg.tol:
        return vals
    # the entries the bound refuses at the points that pass, raised in point order
    return _settle(vals, fails, {(i, j): NotConverged(
        f"P_{ks[i]}[tw] theta quotient at z = {zs[j]:.6g}, tau = {_tau_at(taus, j)}: " + (
            f"rounding bound {rel[i, j]:.3g} over tol {cfg.tol:.3g}"
            if np.isfinite(vals[i, j]) else "its value leaves the float range"))
        for i, j in np.argwhere(~(rel <= cfg.tol)).tolist() if j not in fails})


def _flipped(tw: TwistPair, at, fails: dict) -> TwistPair:
    """The numerator twist tw^-1 of the points at (a mask or indexes), evaluated at -z.
    Where tw^-1 rounds to the trivial twist and tw does not (a component of tw within
    about 1.1e-15 of 0), the pole test of P_k[tw] at the trivial twist would read tw^-1:
    the points are refused with NearPole, as at -z's own side, and keep tw in its place."""
    inv = tw.inverse()
    if inv.is_trivial and not tw.is_trivial:
        _refuse(fails, at, NearPole(
            f"twist {tw} is within {_POLE_EPS} of trivial, where P_k[tw] has a pole"))
        return tw
    return inv


def _p1_taylor(twists: list[TwistPair], which: np.ndarray | None, trivial, ws: np.ndarray,
               tau, order: int, cfg: TruncationConfig, fails: dict, flip: np.ndarray | None
               ) -> tuple[np.ndarray, np.ndarray]:
    """f^(j)(w)/j!, j < order, of f = P_1[t] at every w of ws, t point j's numerator
    twist twists[which[j]] (twists[0] when which is None), with their rounding bounds;
    trivial is True or False when every t is trivial or none is, else one bool per
    point, and tau one complex or one per point. fails holds the points
    refused so far, which take stand-ins, and takes the refusals of the table and of the
    pole tests: NearPole at a twist within 1e-12 of trivial, named as the point's own
    (the inverse of its numerator twist where flip, the points evaluated at -z, is
    set), and within 1e-11 of a lattice point.

    One classical._theta_table call holds every point, whatever its twist, and, as one
    more column per distinct (numerator twist, tau) of the points, w = 0. Its rows are
    the numerator theta[lam+1/2; mu+1/2], summed as theta[lam-1/2; mu-1/2] (a in
    [-1/2, 1/2) as the table asks, |b| <= 1/2): one row, of the one twist's
    characteristic or, for several twists, of each column's twist's (theta[1/2;1/2]
    at the trivial twist); then theta[1/2;1/2] (alone when every twist is trivial),
    which sets every column's log-scale either way. Each row has its Taylor columns
    c_j, j < order, and at order 1 one more, j = 1, for theta'[1/2;1/2](0) (j <= order
    when a twist is trivial; a column is the same in any table of order 2 or more):
    a sum of that one column at w = 0 alone costs a one-point call more than the
    column costs a 256-point one. A point of a nontrivial twist then divides its
    numerator row by theta[1/2;1/2]'s, normalised for its twist and tau; the table's
    shifts m and k leave the multiplier theta^-m phi^k = e^{2 pi i (mu m + lam k)} of
    the quotient, its phases taken exactly (_turns). A point of the trivial twist
    takes 1/2 + theta'/theta, m itself added. The table's log-scales cancel from the
    quotients, and _divide carries the columns' bounds through them; a batch of both
    kinds forms both quotients at every point, and each point keeps its own kind's.
    """
    npts = ws.size
    if len(twists) == 1:
        which = None
    ws, tau = _stand_ins(fails, ws, tau)
    # the normalisation columns, one per distinct (twist, tau): combo[j] is point j's, and
    # ctw, col_tau their twists and the taus of all columns
    if isinstance(tau, np.ndarray):
        index: dict[tuple, int] = {}
        combo = np.array([index.setdefault(key, len(index)) for key in zip(
            repeat(0) if which is None else which.tolist(), tau.tolist())])
        ctw = [t for t, _ in index]
        col_tau = np.concatenate((tau, [c for _, c in index]))
    else:
        combo, ctw, col_tau = which, range(len(twists)), tau
    pts = np.zeros(npts + len(ctw), dtype=complex)
    pts[:npts] = ws
    # theta[lam+1/2; mu+1/2] = e^{2 pi i a} theta[a; mu-1/2] for a = lam - 1/2 in [-1/2,
    # 1/2), the constant cancelling from the normalisation: one row, its characteristic
    # varying by column where there are several twists, theta[1/2;1/2] at a trivial one
    chars = [(0.5, 0.5)]
    if trivial is not True:
        nums = [(0.5, 0.5) if t.is_trivial else (t.lam - 0.5, t.mu - 0.5) for t in twists]
        chars[:0] = (nums if len(twists) == 1 else
                     [tuple(np.array(nums)[np.concatenate((which, ctw))].T)])
    cols, bounds, _, shifts, w = _theta_table(
        chars, pts, col_tau, order + 1 if trivial is not False else max(order, 2), fails)
    for c in range(npts, pts.size):
        fails.pop(c, None)
    # per normalisation column: the pole threshold (theta[1/2;1/2](w) ~ theta'[1/2;1/2](0)
    # d at distance d from the lattice), and the normalisation theta'(0) / theta[a;b](0),
    # its inverse modulus, mu, lam and the normalisation's relative bound (zeros, unread,
    # at the trivial twist)
    per_combo = []
    at_0 = cols[:2, :, npts:].tolist()
    err_0 = bounds[:2, :, npts:].tolist()
    for c, t in enumerate(ctw):
        den1 = at_0[1][-1][c]
        per_combo.append([10 * _POLE_EPS * abs(den1), 0.0, 0.0, 0.0, 0.0, 0.0])
        if not twists[t].is_trivial:
            num0 = at_0[0][0][c]
            if abs(num0) < _POLE_EPS * abs(den1):
                _refuse(fails, range(npts) if combo is None else combo == c,
                        lambda j, t=twists[t]: NearPole(
                            f"twist {t.inverse() if flip is not None and flip[j] else t} is "
                            f"within {_POLE_EPS} of trivial, where P_k[tw] has a pole"))
                num0 = den1 = 1.0               # stand-ins: the combination's points are refused
            norm = den1 / num0
            per_combo[c][1:] = [norm, 1.0 / abs(norm), twists[t].mu, twists[t].lam,
                                err_0[0][0][c] / abs(num0) + err_0[1][-1][c] / abs(den1)
                                + 4.0 * _EPS]
    # each point's normalisation values
    per = per_combo[0] if combo is None else np.array(per_combo)[combo].T
    absden = np.abs(cols[:order, -1, :npts])
    near = absden[0] < per[0].real
    if np.count_nonzero(near):
        _refuse(fails, near, lambda j: NearPole(
            f"z = {ws[j]:.6g} (or its negative) is within {10 * _POLE_EPS} of a pole of "
            f"P_k[tw] at tau = {_tau_at(tau, j)}"))
    shifts = shifts[:npts]
    num, num_err = cols[:order, 0, :npts], bounds[:order, 0, :npts]
    if trivial is not False:
        # f = 1/2 + theta'/theta: theta'(w + t) has columns (j+1) c_{j+1}
        j1 = np.arange(1.0, order + 1.0)[:, None]
        f, err = _divide(j1 * cols[1:, 0, :npts], j1 * bounds[1:, 0, :npts],
                         num, num_err, absden, 4.0 * _EPS)
        f[0] += 0.5 + shifts[:, 0]
        err[0] += _EPS * np.abs(f[0])
        if trivial is True:
            return f, err
    # f = theta[a;b] / (theta[1/2;1/2] / norm): the normalisation and the multipliers
    # e^{2 pi i (mu m + lam k)} of the shifts divide the denominator
    norm, scale, mu, lam, rel = per[1], per[2].real, per[3].real, per[4].real, per[5].real
    den = cols[:order, -1, :npts] / norm
    if w is not pts:                                # some point was shifted
        for base, shift in ((mu, shifts[:, 0]), (lam, shifts[:, 1])):
            moved = np.count_nonzero(shift)
            if moved:
                den /= np.exp(1j * _turns(base, shift))
                # the phase to 3 eps 2 pi, its exp to eps, at the points it moves
                step = (1.0 + 6.0 * math.pi) * _EPS
                rel = rel + (step if moved == npts else step * (shift != 0.0))
    q, q_err = _divide(num, num_err, den, bounds[:order, -1, :npts] * scale, absden * scale, rel)
    if trivial is False:
        return q, q_err
    # twists of both kinds: each point takes its own kind's quotient
    return np.where(trivial, f, q), np.where(trivial, err, q_err)


def _divide(num: np.ndarray, num_err: np.ndarray, den: np.ndarray, den_err: np.ndarray,
            absden: np.ndarray, rel: float | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Taylor coefficients of num/den by power-series division, with rounding bounds.

    q_j = (num_j - sum_{i=1..j} den_i q_{j-i}) / den_0, row by row, the sum
    still taken in order of i: one reduction over the rows of products, from
    -0 (numpy adds whole rows in order when it reduces a leading axis over
    more than one column), so O(order) numpy calls. Each product is formed
    from real products and sums: numpy's complex multiply fuses them, which
    would change the bits. absden is |den|. The first-order bound carries the
    columns' bounds through the recurrence, adds the recurrence's own
    rounding, eps times its sum of magnitudes, and rel times |q_j|.
    """
    n = num.shape[0]
    q = num / den[0]
    if n > 1:
        # den_i q = re(q) (re, im) + im(q) (-im, re) of den_i, on (re, im) float views
        ri = np.ascontiguousarray(den).view(float).reshape(n, -1, 2)
        ir = ri[..., ::-1] * _NEG_RE
        qq = q.view(float).reshape(n, -1, 2)
        for j in range(1, n):
            prods = ri[1:j + 1] * qq[j - 1::-1, :, :1] + ir[1:j + 1] * qq[j - 1::-1, :, 1:]
            np.subtract(num[j], np.add.reduce(prods, initial=-0.0).view(complex)[:, 0], out=q[j])
            np.divide(q[j], den[0], out=q[j])
    aq = np.abs(q)
    e = (num_err + den_err[0] * aq) / absden[0] + rel * aq
    if n > 1:
        # |den_i q_(j-i)| bounds each product, which rounds by eps and sums by eps more: e_j
        # gains sum_(i=1..j) (slack_i |q_(j-i)| + |den_i| e_(j-i)) / |den_0|, one sum over
        # the (weight, term) pairs of wt and ve, e_j itself at weight 1, written back in place
        ve = np.empty((n, 2) + q.shape[1:])
        ve[:, 0] = aq
        ve[:, 1] = e
        e = ve[:, 1]
        wt = np.empty(ve.shape)
        wt[0, 0] = 0.0
        wt[0, 1] = 1.0
        np.divide(den_err[1:] + 4.0 * _EPS * absden[1:], absden[0], out=wt[1:, 0])
        np.divide(absden[1:], absden[0], out=wt[1:, 1])
        for j in range(1, n):
            np.add.reduce((wt[:j + 1] * ve[j::-1]).reshape((-1,) + e.shape[1:]), out=e[j])
    return q, e


def twisted_pk(k: int, tw: TwistPair, z: complex, tau: complex,
               cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Twisted Weierstrass function P_k[theta; phi](z, tau) by its theta quotient.

    The one-point call of twisted_pk_batch, with its domain: the whole plane
    off the period lattice. NearPole on a lattice point or at a twist within
    1e-12 of trivial; NotConverged when the rounding bound passes cfg.tol.
    """
    return complex(twisted_pk_batch([k], tw, [z], tau, cfg)[0, 0])


def _exp_frac_derivatives(alpha: float, order: int) -> list[float]:
    """The c_b, b = 1..order+1, of d^order/dx^order e^{alpha x}/(e^x - 1) =
    sum_b c_b e^{(alpha+b-1) x}/(e^x - 1)^b; the form is closed under d/dx."""
    coefs = [1.0]
    for _ in range(order):
        coefs = [(alpha + b) * c - b * prev
                 for b, (c, prev) in enumerate(zip(coefs + [0.0], [0.0] + coefs))]
    return coefs


# Hard cap on the terms either side of m = 0 in a lattice-oracle window.
_LATTICE_MAX_HALF_WIDTH = 1536


def _lattice_sums(k: int, tws: Sequence[TwistPair], zs: Sequence[complex],
                  taus: Sequence[complex], cfg: TruncationConfig, fails: dict,
                  skip_zero: bool = False) -> np.ndarray:
    """The twisted lattice double sum of P_k[tw](z, tau) at every (tw, z, tau) of tws, zs
    and taus (Python complex z and tau), its inner sum collapsed to
    S_k(x; a) = sum_j e^{2 pi i a j}/(x - 2 pi i j)^k, (-1)^(k-1)/(k-1)! times the
    (k-1)-th derivative of e^{a x}/(e^x - 1), on the route the twist admits:
      phi != 1:   sum_m e^{-2 pi i mu m} S_k(z - 2 pi i m tau; lam),
      theta != 1: tau^-k sum_n e^{2 pi i lam n} S_k((z - 2 pi i n)/tau; 1 - mu).
    A window's rows are evaluated at once, S_k as e^{a x}/(e^x - 1) times a polynomial in
    e^x/(e^x - 1), both divided through by e^x where Re x > 0 so that no exponent grows,
    e^x - 1 by expm1 so that rows next to the pole x = 0 keep their digits; skip_zero
    drops row 0 unevaluated. Each side starts where its tail bound exp(-rate m) passes
    cfg.tol; both double until the three outermost terms either side are below it.

    One pass evaluates the windows of every sample still open, side by side in one flat
    array with no padding; a sample whose edges pass is summed, the others double their
    windows and go again. Each sample sums its own contiguous segment and divides by
    div^k on Python scalars, so its value depends on its own (tw, z, tau) alone and
    equals its one-sample call bit for bit. fails holds the samples refused so far,
    which are skipped, and takes each sample's first refusal, in this order:
    RouteUnavailable at the trivial twist; NotConverged when (k-1)! leaves the float
    range, when the row where the terms peak (Re x = 0) lies outside the starting window
    about row 0 (its edge terms could pass that test with the peak still ahead), past
    _LATTICE_MAX_HALF_WIDTH rows a side, when the sum, or tau^k on the theta != 1
    route, leaves the float range, or when its rounding bound, 4 eps times the sum of
    |term| (the polynomial's moduli summed alongside it) over |div|^k, passes cfg.tol
    max(1, |value|), as the cancelling terms of high orders make it. A refused sample's
    value is 0.
    """
    out = np.zeros(len(zs), dtype=complex)
    try:
        scale = (-1.0) ** (k - 1) / math.factorial(k - 1)
    except OverflowError:
        scale = None
    exceeded = f"lattice window exceeded {_LATTICE_MAX_HALF_WIDTH} terms"
    # per open sample: [index, m_dn, m_up, div], and its row constants in consts: z, div,
    # 2 pi i step, 2 pi i phase, alpha and the polynomial's coefficients, each real one as a
    # complex of imaginary part +0, which numpy's complex operations read as they read a float
    open_, consts = [], []
    for j, (tw, z, tau) in enumerate(zip(tws, zs, taus)):
        if j in fails:
            continue
        h = _TWO_PI * tau.imag
        if tw.lam != 0.0:
            alpha, phase, step, div = tw.lam, -tw.mu, tau, 1.0
            rates, row = ((1.0 - tw.lam) * h, tw.lam * h), -z.real / h
        elif tw.mu != 0.0:
            hp = (2j * math.pi / tau).real            # Re x falls by hp a row
            alpha, phase, step, div = 1.0 - tw.mu, tw.lam, 1.0, tau
            rates, row = ((1.0 - tw.mu) * hp, tw.mu * hp), (z * tau.conjugate()).real / h
        else:
            fails[j] = RouteUnavailable("lattice oracle needs theta != 1 or phi != 1")
            continue
        if scale is None:
            fails[j] = NotConverged(f"lattice oracle of order {k} needs {k - 1}! as a float, "
                                    f"which overflows past 170!")
            continue
        m_up, m_dn = (_window_size(rate, cfg.tol) for rate in rates)
        if not -m_dn <= row <= m_up:
            fails[j] = NotConverged(f"lattice row {row:.6g} lies outside the window "
                                    f"[{-m_dn}, {m_up}] about 0")
            continue
        if max(m_up, m_dn) > _LATTICE_MAX_HALF_WIDTH:
            fails[j] = NotConverged(exceeded)
            continue
        open_.append([j, m_dn, m_up, div])
        consts.append([z, div, 2j * math.pi * step, 2j * math.pi * phase, alpha,
                       *(scale * c for c in reversed(_exp_frac_derivatives(alpha, k - 1)))])
    consts = np.array(consts, dtype=complex)
    with np.errstate(all="ignore"):
        while open_:
            # every open sample's window rows side by side, sample i's at bounds[i]:bounds[i+1],
            # each row with its sample's constants and its number m
            sizes = [s[1] + s[2] + (not skip_zero) for s in open_]
            bounds = [0, *accumulate(sizes)]
            z, div, c_step, c_phase, alpha, *coefs = consts.T.repeat(sizes, axis=1)
            ms = np.concatenate([np.arange(-s[1], s[2] + 1) for s in open_])
            if skip_zero:
                ms = ms[ms != 0]
            x = (z - c_step * ms) / div
            pos = x.real > 0.0
            den = np.expm1(np.where(pos, -x, x))
            np.negative(den, out=den, where=pos)        # e^x - 1, or 1 - e^-x where Re x > 0
            # the polynomial and, alongside, the same polynomial of the moduli (the
            # coefficients are real)
            poly, mag = coefs[0], np.abs(coefs[0].real)
            if k > 1:
                g = np.exp(np.where(pos, 0.0, x)) / den     # e^x/(e^x - 1)
                ag = np.abs(g)
                for c in coefs[1:]:
                    poly = poly * g + c
                    mag = mag * ag + np.abs(c.real)
            e = np.exp(alpha * x - np.where(pos, x, 0.0))
            terms = poly * e / den * np.exp(c_phase * ms)
            small = (np.abs(terms) < cfg.tol).tolist()
            # each sample's sum of |term|
            mags = np.add.reduceat(mag * np.abs(e / den), bounds[:-1]).tolist()
            again = []
            for i, (s, lo, hi) in enumerate(zip(open_, bounds, bounds[1:])):
                # the three outermost terms either side below cfg.tol, or a window twice as wide
                if not all(small[lo:lo + 3] + small[hi - 3:hi]):
                    s[1], s[2] = 2 * s[1], 2 * s[2]
                    if max(s[1], s[2]) > _LATTICE_MAX_HALF_WIDTH:
                        fails[s[0]] = NotConverged(exceeded)
                    else:
                        again.append(i)
                    continue
                try:
                    total = complex(terms[lo:hi].sum()) / s[3]**k
                    # the rounding bound, 4 eps times the sum of |term| over |div|^k
                    rel = 4.0 * _EPS * mags[i] / abs(s[3])**k / max(1.0, abs(total))
                except (ZeroDivisionError, OverflowError):      # tau^k out of the float range
                    total = math.inf
                finite = cmath.isfinite(total)
                if finite and rel <= cfg.tol:
                    out[s[0]] = total
                else:
                    fails[s[0]] = NotConverged(
                        f"lattice sum of order {k} at z = {zs[s[0]]:.6g}, tau = {taus[s[0]]}"
                        + (f": rounding bound {rel:.3g} over tol {cfg.tol:.3g}" if finite
                           else " leaves the float range"))
            if not again:
                break
            open_, consts = [open_[i] for i in again], consts[again]
    return out


def twisted_pk_oracle_batch(k: int, tw, zs: Sequence[complex], tau,
                            cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """twisted_pk_oracle at every z of zs, from one _lattice_sums pass: tw one TwistPair
    or a sequence of one per point, tau one complex or a sequence of one per point. Each
    value and each refusal equals the one-point call's, bit for bit; a refused batch
    raises its first refused point's error with the batch's outcome (_settle). A point
    is refused, in this order, by its tau, a non-finite z, NearPole on a lattice point
    (NotConverged where its lattice row leaves the float range), then by _lattice_sums.
    """
    if k < 1:
        raise ValueError("twisted_pk_oracle requires k >= 1")
    zs = [complex(z) for z in zs]
    n = len(zs)
    tws = list(tw) if not isinstance(tw, TwistPair) and _by_point(tw, n, "tw") else [tw] * n
    fails: dict = {}
    taus = _point_taus(tau, n, fails)
    taus = taus.tolist() if isinstance(taus, np.ndarray) else [taus] * n
    for j, (z, t) in enumerate(zip(zs, taus)):
        if j in fails:
            continue
        if not cmath.isfinite(z):
            fails[j] = DomainError(f"lattice oracle needs a finite z, got z = {z}")
            continue
        try:
            if lattice_distance(z, t) < 10 * _POLE_EPS:
                fails[j] = NearPole(f"z = {z:.6g} is a lattice translate of a pole")
        except NotConverged as exc:
            fails[j] = exc
    return _settle(_lattice_sums(k, tws, zs, taus, cfg, fails), fails)


def twisted_pk_oracle(k: int, tw: TwistPair, z: complex, tau: complex,
                      cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Slow closed-form oracle for P_k[tw], the twisted lattice double sum
    sum_m theta^m S_k(z - 2 pi i m tau; lam) where phi != 1, else
    tau^-k sum_n phi^n S_k((z - 2 pi i n)/tau; 1 - mu) (RouteUnavailable at the trivial
    twist), every k summed directly. Valid off the period lattice wherever the lattice
    row of z, where the terms peak, lies in the starting window about row 0 (8 rows or
    more either side, more as tol or the decay rates fall); NotConverged where it does
    not, and where the sum's rounding bound passes tol (from k = 12 or so, where its
    terms cancel). The one-point call of twisted_pk_oracle_batch.
    """
    return complex(twisted_pk_oracle_batch(k, tw, [z], tau, cfg)[0])


def twisted_eisenstein(n: int, tw: TwistPair, tau: complex,
                       cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Twisted Eisenstein series E_n[theta; phi](tau), by the E_n q-series that
    classical.eisenstein evaluates at the trivial twist (_eisenstein_series).

    -B_n(lam)/n! plus two q-expansions over r + lam and r - lam; the r = 0
    term is omitted exactly for the trivial twist. Reduces to the classical
    E_n at the trivial twist for even n, and to 1/2*delta_{n,1} for odd n.
    """
    if n < 1:
        raise ValueError("twisted_eisenstein requires n >= 1")
    return _eisenstein_series(n, tw.lam, tw.mu, require_upper_half(tau), cfg)


def twisted_eisenstein_batch(ns: Sequence[int], tw: TwistPair, taus: Sequence[complex],
                             cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """E_n[tw](tau) for every n in ns and tau in taus, shape (len(ns), len(taus)).

    Summed by numpy passes over (orders x tau x r) tables, one per block of taus in
    input order (classical._eisenstein_grid): the exponentials and denominators of the
    q-series are built once for all orders, the powers (r +- lam)^(n-1) once for
    all tau, and each (n, tau) sums its terms in order of r up to its own stop.
    Each entry equals twisted_eisenstein's value bit for bit: a pass performs the
    scalar loop's float operations as CPython does (complex products and
    quotients written out in real operations), and an entry that meets a pole, an
    overflow or no stop by Q_ORDER goes to the loop. So the batch raises where
    twisted_eisenstein would at some (n, tau), the first such entry in row order
    deciding the error, or when B_n(lam)/n! and (n-1)! of an order in ns leave
    the float range; a tau outside the upper half-plane refuses its column, the
    first such raising first. The error carries the outcome, each entry refused
    as twisted_eisenstein would refuse it. For a single (n, tau) the loop
    (twisted_eisenstein) is cheaper: the fixed cost of a pass, a few dozen numpy
    calls, is 6 to 12 times the loop's time for one value.
    """
    if any(n < 1 for n in ns):
        raise ValueError("twisted_eisenstein requires n >= 1")
    fails: dict = {}
    taus = _point_taus(list(taus), len(taus), fails).tolist()
    return _eisenstein_grid(list(ns), tw.lam, tw.mu, taus, cfg, fails)


def twisted_eisenstein_oracle_batch(n: int, tw, tau,
                                    cfg: TruncationConfig = DEFAULT_CONFIG) -> np.ndarray:
    """twisted_eisenstein_oracle at every point, from one _lattice_sums pass: tw one
    TwistPair or a sequence of one per point, tau one complex or a sequence of one per
    point; one point when both are one value. Each value and each refusal equals the
    one-point call's, bit for bit; a refused batch raises its first refused point's error
    with the batch's outcome (_settle). A point is refused, in this order, by its tau,
    by _lattice_sums, then by B_n (bernoulli_poly).
    """
    if n < 1:
        raise ValueError("twisted_eisenstein_oracle requires n >= 1")
    per_tw = not isinstance(tw, TwistPair)
    npts = len(tw) if per_tw else 1 if isinstance(tau, _SCALARS) else len(tau)
    tws = list(tw) if per_tw else [tw] * npts
    fails: dict = {}
    taus = _point_taus(tau, npts, fails)
    taus = taus.tolist() if isinstance(taus, np.ndarray) else [taus] * npts
    # S_n(-x; 1 - a) = (-1)^n S_n(x; a): E_n[tw] - c is (-1)^n times the sum at z = 0
    tails = _lattice_sums(n, tws, [0j] * npts, taus, cfg, fails, skip_zero=True).tolist()
    out = np.zeros(npts, dtype=complex)
    for j, (t, tau_j, tail) in enumerate(zip(tws, taus, tails)):
        if j in fails:
            continue
        tail = (-1) ** n * tail
        try:
            if t.lam != 0.0:
                out[j] = tail - bernoulli_poly(n, t.lam) / math.factorial(n)
            else:
                out[j] = tail - bernoulli_poly(n, 1.0 - t.mu) / math.factorial(n) / tau_j**n
        except NotConverged as exc:
            fails[j] = exc
    return _settle(out, fails)


def twisted_eisenstein_oracle(n: int, tw: TwistPair, tau: complex,
                              cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Lattice-sum oracle for E_n[tw], the z^(n-1) coefficient of P_1[tw] - 1/z.

    By S_n(-x; 1 - a) = (-1)^n S_n(x; a), E_n[tw] = c + (-1)^n times the lattice sum of
    twisted_pk_oracle at z = 0 with its pole row 0 dropped, c = -B_n(lam)/n! on the
    phi != 1 route and -B_n(1 - mu)/(n! tau^n) on the theta != 1 route.
    RouteUnavailable at the trivial twist; NotConverged where the lattice sum's rounding
    bound passes tol (e.g. n = 30 at tau = i). The one-point call of
    twisted_eisenstein_oracle_batch.
    """
    return complex(twisted_eisenstein_oracle_batch(n, tw, tau, cfg)[0])


def _cd_factor(sign: int, k: int, l: int) -> float:
    """(-1)^sign * C(k+l-2, k-1), the factor of C[tw](k, l) (sign l) and of
    D[tw](k, l, z) (sign k + 1); NotConverged when the binomial leaves the float range."""
    try:
        return (-1.0) ** sign * binomial(k + l - 2, k - 1)
    except OverflowError:
        raise NotConverged(f"C/D coefficient ({k}, {l}): the binomial C({k + l - 2}, {k - 1}) "
                           f"leaves the float range") from None


def coeff_C(k: int, l: int, tw: TwistPair, tau: complex,
            cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Expansion coefficient C[tw](k, l) = (-1)^l C(k+l-2, k-1) E_{k+l-1}[tw].

    These are the coefficients of z1^{k-1} z2^{l-1} in P_1[tw](z1 - z2) - 1/(z1 - z2),
    and satisfy C[tw](k, l) = -C[tw^-1](l, k).
    """
    if k < 1 or l < 1:
        raise ValueError("coeff_C requires k, l >= 1")
    return _cd_factor(l, k, l) * twisted_eisenstein(k + l - 1, tw, tau, cfg)


def coeff_D(k: int, l: int, tw: TwistPair, z: complex, tau: complex,
            cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Expansion coefficient D[tw](k, l, z) = (-1)^{k+1} C(k+l-2, k-1) P_{k+l-1}[tw](z).

    Coefficients of z1^{k-1} z2^{l-1} in P_1[tw](z + z1 - z2); antisymmetric
    partner of coeff_C: D[tw](k, l, z) = -D[tw^-1](l, k, -z). Inherits the
    domain of twisted_pk: the whole plane off the period lattice. From order
    k + l - 1 = 29 P_k's rounding bound can pass tol: coeff_D(15, 15,
    TwistPair(0.31, 0.77), -0.3+0.2j, 1j) refuses with NotConverged at 1.03e-12.
    """
    if k < 1 or l < 1:
        raise ValueError("coeff_D requires k, l >= 1")
    return _cd_factor(k + 1, k, l) * twisted_pk(k + l - 1, tw, z, tau, cfg)
