"""Twisted Weierstrass functions and twisted Eisenstein series.

A twist pair (theta, phi) in U(1) x U(1) is stored by canonical phases,
theta = exp(-2*pi*i*mu) and phi = exp(2*pi*i*lam) with mu, lam in [0, 1).
The q-series evaluators converge on the annulus |q| < |q_z| < 1; the
lattice-sum oracles (double sums with the inner sum collapsed to
S(x, phi) = 1/2*delta + q_x^lam/(q_x - 1)) converge for every z off the
period lattice and serve as the independent cross-checks. Modular group
actions on points and twists round out the module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .classical import _theta_terms, prime_form, require_upper_half, theta_char
from .errors import (
    DegenerateTheta,
    DomainError,
    NearPole,
    NotConverged,
    RouteUnavailable,
)
from .numeric import DEFAULT_CONFIG, TruncationConfig, bernoulli_poly, binomial

_TWO_PI = 2.0 * math.pi
_POLE_EPS = 1e-12


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
    phi = exp(2*pi*i*lam) along the 2*pi*i cycle.
    """

    mu: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
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
        return TwistPair(-self.mu, -self.lam)

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


def in_annulus(z: complex, tau: complex) -> bool:
    """True when |q| < |q_z| < 1, i.e. -2*pi*Im(tau) < Re(z) < 0."""
    return -_TWO_PI * complex(tau).imag < complex(z).real < 0.0


def lattice_distance(z: complex, tau: complex) -> float:
    """Euclidean distance from z to the period lattice 2*pi*i*(m*tau + n)."""
    tau = complex(tau)
    w = complex(z) / (2j * math.pi)
    u = w.imag / tau.imag
    best = math.inf
    for m in (math.floor(u), math.floor(u) + 1):
        r = w - m * tau
        n = round(r.real)
        best = min(best, _TWO_PI * abs(r - n))
    return best


def _window_size(rate: float, tol: float, pad: int = 16) -> int:
    """Smallest N with exp(-rate*N) below tol, padded; inf-safe."""
    if rate <= 0:
        return 1 << 62
    return int(-math.log(tol) / rate) + pad


def twisted_pk(k: int, tw: TwistPair, z: complex, tau: complex,
               cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Twisted Weierstrass function P_k[theta; phi](z, tau) by its q-series.

    ((-1)^k/(k-1)!) * sum over n in Z + lam of n^{k-1} q_z^n / (1 - theta^-1 q^n),
    omitting n = 0 exactly when the twist is trivial. Converges on the
    annulus |q| < |q_z| < 1 only; DomainError outside, NearPole when a
    denominator degenerates.
    """
    if k < 1:
        raise ValueError("twisted_pk requires k >= 1")
    tau = require_upper_half(tau)
    z = complex(z)
    h = _TWO_PI * tau.imag
    x = z.real
    if not (-h < x < 0.0 and cmath.isfinite(z)):
        raise DomainError(
            f"q-series needs a finite z with -2*pi*Im(tau) < Re(z) < 0, got z = {z:.4g}, "
            f"width {h:.4g}")
    lam, mu = tw.lam, tw.mu
    cap = 64 * cfg.q_order
    n_up = _window_size(-x, cfg.tol)
    n_dn = _window_size(h + x, cfg.tol)
    th_inv = cmath.exp(2j * math.pi * mu)   # theta^{-1}
    th = cmath.exp(-2j * math.pi * mu)
    while True:
        if max(n_up, n_dn) > cap:
            raise NotConverged(f"P_{k} window exceeded {cap} terms near the annulus boundary")
        rs = np.arange(-n_dn, n_up + 1, dtype=float)
        if tw.is_trivial:
            rs = rs[rs != 0.0]
        ns = rs + lam
        pos = ns >= 0.0
        terms = np.empty(ns.shape, dtype=complex)
        np_ = ns[pos]
        den_p = 1.0 - th_inv * np.exp(2j * math.pi * tau * np_)
        nm = ns[~pos]
        den_m = 1.0 - th * np.exp(-2j * math.pi * tau * nm)
        if (den_p.size and np.abs(den_p).min() < _POLE_EPS) or \
           (den_m.size and np.abs(den_m).min() < _POLE_EPS):
            raise NearPole(f"P_{k} denominator within {_POLE_EPS} of zero at tau = {tau}")
        terms[pos] = np_ ** (k - 1) * np.exp(np_ * z) / den_p
        # for n < 0 multiply through by -theta*q^{-n} to keep magnitudes tame
        terms[~pos] = -th * nm ** (k - 1) * np.exp(nm * (z - 2j * math.pi * tau)) / den_m
        mags = np.abs(terms)
        if mags.size >= 6 and mags[:3].max() < cfg.tol and mags[-3:].max() < cfg.tol:
            total = complex(terms.sum())
            return (-1.0) ** k / math.factorial(k - 1) * total
        n_up *= 2
        n_dn *= 2


def twisted_pk_reflected(k: int, tw: TwistPair, z: complex, tau: complex,
                         cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """P_k[tw](z) on either half of the annulus pair 0 < |Re(z)| < 2*pi*Im(tau).

    Re(z) < 0 evaluates the q-series directly; Re(z) > 0 goes through the
    reflection P_k[tw](z) = (-1)^k P_k[tw^-1](-z). The trivially twisted
    k = 1 function is off-center by its constant 1/2, so there the
    reflection reads P_1[1;1](z) = 1 - P_1[1;1](-z).
    """
    z = complex(z)
    if z.real < 0.0:
        return twisted_pk(k, tw, z, tau, cfg)
    val = (-1.0) ** k * twisted_pk(k, tw.inverse(), -z, tau, cfg)
    if tw.is_trivial and k == 1:
        val += 1.0
    return val


def twisted_pk_continued(k: int, tw: TwistPair, z: complex, tau: complex,
                         cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """P_k[tw] for any Re(z) off the pole circles, via quasi-periodic reduction.

    Shifts z by integer multiples of 2*pi*i*tau into the base annulus and
    undoes the multiplier theta^m (the trivial twist instead picks up the
    additive -delta_{k,1} per shift); then evaluates the q-series.
    """
    tau = require_upper_half(tau)
    z = complex(z)
    h = _TWO_PI * tau.imag
    w = -z.real / h
    m = math.floor(w)
    if w == m:
        raise DomainError(f"|q_z| sits exactly on a lattice circle (Re(z) = {z.real:.4g})")
    z_base = z - 2j * math.pi * tau * m
    base = twisted_pk(k, tw, z_base, tau, cfg)
    if tw.is_trivial:
        return base - (m if k == 1 else 0)
    return cmath.exp(-2j * math.pi * tw.mu * m) * base


def _exp_frac_derivatives(alpha: float, order: int):
    """Term lists for d^j/dx^j of e^{alpha*x}/(e^x - 1), j = 0..order.

    Each term list holds (coef, s, b) triples meaning coef * e^{s*x} / (e^x - 1)^b;
    the algebra is closed under differentiation so the result is exact.
    """
    terms = {(alpha, 1): 1.0}
    out = [list(terms.items())]
    for _ in range(order):
        new: dict = {}
        for (s, b), c in terms.items():
            new[(s, b)] = new.get((s, b), 0.0) + c * s
            new[(s + 1.0, b + 1)] = new.get((s + 1.0, b + 1), 0.0) - c * b
        terms = {sb: c for sb, c in new.items() if c != 0.0}
        out.append(list(terms.items()))
    return out


def _eval_exp_frac_terms(terms, x: complex) -> complex:
    """Evaluate a (coef, s, b) term list stably on either side of Re(x) = 0."""
    acc = 0.0 + 0.0j
    if x.real > 0.0:
        em = cmath.exp(-x)
        for (s, b), c in terms:
            acc += c * cmath.exp((s - b) * x) / (1.0 - em) ** b
    else:
        den = cmath.exp(x) - 1.0
        for (s, b), c in terms:
            acc += c * cmath.exp(s * x) / den**b
    return acc


def _collapsed_inner_sum(alpha: float, order: int):
    """S_n(x) = sum_j psi^j/(x - 2*pi*i*j)^n for psi = e^{2*pi*i*alpha}, n = order + 1."""
    terms = _exp_frac_derivatives(alpha, order)[order]
    scale = (-1.0) ** order / math.factorial(order)

    def s_n(x: complex) -> complex:
        return scale * _eval_exp_frac_terms(terms, x)

    return s_n


def _adaptive_lattice_sum(term, rate_up: float, rate_dn: float,
                          cfg: TruncationConfig) -> complex:
    """Sum term(m) over m in Z with geometric tails; grows the window as needed."""
    cap = 64 * cfg.lattice_range
    m_up = max(cfg.lattice_range, _window_size(rate_up, cfg.tol, pad=8))
    m_dn = max(cfg.lattice_range, _window_size(rate_dn, cfg.tol, pad=8))
    while True:
        if max(m_up, m_dn) > cap:
            raise NotConverged(f"lattice window exceeded {cap} terms")
        vals = [term(m) for m in range(-m_dn, m_up + 1)]
        lo = max(abs(v) for v in vals[:3])
        hi = max(abs(v) for v in vals[-3:])
        if lo < cfg.tol and hi < cfg.tol:
            return complex(sum(vals))
        m_up *= 2
        m_dn *= 2


def twisted_pk_oracle(k: int, tw: TwistPair, z: complex, tau: complex,
                      cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Slow closed-form oracle for P_k[tw] from the collapsed double sums.

    Uses whichever lattice route the twist admits (phi != 1 or theta != 1;
    RouteUnavailable otherwise), with the inner sum collapsed to the k-th
    closed form S_k, so every k is summed directly. Valid for every z off
    the period lattice, not just the annulus.
    """
    if k < 1:
        raise ValueError("twisted_pk_oracle requires k >= 1")
    tau = require_upper_half(tau)
    z = complex(z)
    if lattice_distance(z, tau) < 10 * _POLE_EPS:
        raise NearPole(f"z = {z:.6g} is a lattice translate of a pole")
    h = _TWO_PI * tau.imag
    if tw.lam != 0.0:
        # collapse the inner n-sum: P_k = sum_m theta^m S_k(z - 2*pi*i*m*tau, phi)
        s_fun = _collapsed_inner_sum(tw.lam, k - 1)

        def term(m: int) -> complex:
            return cmath.exp(-2j * math.pi * tw.mu * m) * s_fun(z - 2j * math.pi * tau * m)

        return _adaptive_lattice_sum(term, (1.0 - tw.lam) * h, tw.lam * h, cfg)
    if tw.mu != 0.0:
        # swapped summation order: P_k = tau^-k sum_n phi^n S_k((z - 2*pi*i*n)/tau, theta^-1)
        g_fun = _collapsed_inner_sum(1.0 - tw.mu, k - 1)
        hp = h / abs(tau) ** 2

        def term(n: int) -> complex:
            return cmath.exp(2j * math.pi * tw.lam * n) * g_fun((z - 2j * math.pi * n) / tau)

        return _adaptive_lattice_sum(term, (1.0 - tw.mu) * hp, tw.mu * hp, cfg) / tau**k
    raise RouteUnavailable("lattice oracle needs theta != 1 or phi != 1")


def twisted_eisenstein(n: int, tw: TwistPair, tau: complex,
                       cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Twisted Eisenstein series E_n[theta; phi](tau).

    -B_n(lam)/n! plus two q-expansions over r + lam and r - lam; the r = 0
    term is omitted exactly for the trivial twist. Reduces to the classical
    E_n at the trivial twist for even n, and to 1/2*delta_{n,1} for odd n.
    """
    if n < 1:
        raise ValueError("twisted_eisenstein requires n >= 1")
    tau = require_upper_half(tau)
    lam, mu = tw.lam, tw.mu
    qtau = 2j * math.pi * tau
    th_inv = cmath.exp(2j * math.pi * mu)
    th = cmath.exp(-2j * math.pi * mu)
    plus = 0.0 + 0.0j
    minus = 0.0 + 0.0j
    converged = False
    for r in range(cfg.q_order + 1):
        biggest = 0.0
        if not (r == 0 and tw.is_trivial):
            w = th_inv * cmath.exp(qtau * (r + lam))
            if abs(1.0 - w) < _POLE_EPS:
                raise NearPole(f"E_{n} plus-stream denominator degenerate at r = {r}")
            t = (r + lam) ** (n - 1) * w / (1.0 - w)
            plus += t
            biggest = max(biggest, abs(t))
        if r >= 1:
            v = th * cmath.exp(qtau * (r - lam))
            if abs(1.0 - v) < _POLE_EPS:
                raise NearPole(f"E_{n} minus-stream denominator degenerate at r = {r}")
            t = (r - lam) ** (n - 1) * v / (1.0 - v)
            minus += t
            biggest = max(biggest, abs(t))
        if r >= 1 and biggest < cfg.tol:
            converged = True
            break
    if not converged:
        raise NotConverged(f"E_{n}[tw] q-series not below tol within q_order={cfg.q_order}")
    fac = math.factorial(n - 1)
    return (-bernoulli_poly(n, lam) / math.factorial(n)
            + plus / fac + (-1.0) ** n * minus / fac)


def twisted_eisenstein_oracle(n: int, tw: TwistPair, tau: complex,
                              cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Lattice-sum oracle for E_n[tw], inner sum collapsed in closed form.

    phi != 1 route:   -B_n(lam)/n!   + sum_{m != 0} theta^m S_n(2*pi*i*m*tau)
    theta != 1 route: tau^-n * [ -B_n(1-mu)/n! + sum_{j != 0} phi^j S_n(2*pi*i*j/tau) ]
    where S_n is the n-th collapsed inner sum; the (2*pi*i)^-n prefactor has
    been absorbed. RouteUnavailable at the trivial twist.
    """
    if n < 1:
        raise ValueError("twisted_eisenstein_oracle requires n >= 1")
    tau = require_upper_half(tau)
    h = _TWO_PI * tau.imag
    if tw.lam != 0.0:
        s_fun = _collapsed_inner_sum(1.0 - tw.lam, n - 1)

        def term(m: int) -> complex:
            if m == 0:
                return 0.0 + 0.0j
            return cmath.exp(-2j * math.pi * tw.mu * m) * s_fun(2j * math.pi * m * tau)

        tail = _adaptive_lattice_sum(term, (1.0 - tw.lam) * h, tw.lam * h, cfg)
        return -bernoulli_poly(n, tw.lam) / math.factorial(n) + tail
    if tw.mu != 0.0:
        s_fun = _collapsed_inner_sum(tw.mu, n - 1)
        hp = h / abs(tau) ** 2

        def term(j: int) -> complex:
            if j == 0:
                return 0.0 + 0.0j
            return cmath.exp(2j * math.pi * tw.lam * j) * s_fun(2j * math.pi * j / tau)

        tail = _adaptive_lattice_sum(term, (1.0 - tw.mu) * hp, tw.mu * hp, cfg)
        return (-bernoulli_poly(n, 1.0 - tw.mu) / math.factorial(n) + tail) / tau**n
    raise RouteUnavailable("lattice oracle needs theta != 1 or phi != 1")


def coeff_C(k: int, l: int, tw: TwistPair, tau: complex,
            cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Expansion coefficient C[tw](k, l) = (-1)^l C(k+l-2, k-1) E_{k+l-1}[tw].

    These are the coefficients of z1^{k-1} z2^{l-1} in P_1[tw](z1 - z2) - 1/(z1 - z2),
    and satisfy C[tw](k, l) = -C[tw^-1](l, k).
    """
    if k < 1 or l < 1:
        raise ValueError("coeff_C requires k, l >= 1")
    return (-1.0) ** l * binomial(k + l - 2, k - 1) * twisted_eisenstein(k + l - 1, tw, tau, cfg)


def coeff_D(k: int, l: int, tw: TwistPair, z: complex, tau: complex,
            cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Expansion coefficient D[tw](k, l, z) = (-1)^{k+1} C(k+l-2, k-1) P_{k+l-1}[tw](z).

    Coefficients of z1^{k-1} z2^{l-1} in P_1[tw](z + z1 - z2); antisymmetric
    partner of coeff_C: D[tw](k, l, z) = -D[tw^-1](l, k, -z). Inherits the
    annulus domain of twisted_pk.
    """
    if k < 1 or l < 1:
        raise ValueError("coeff_D requires k, l >= 1")
    return (-1.0) ** (k + 1) * binomial(k + l - 2, k - 1) * twisted_pk(k + l - 1, tw, z, tau, cfg)


def twisted_p1_theta_form(tw: TwistPair, z: complex, tau: complex,
                          cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """P_1[tw](z) through theta functions and the prime form.

    Nontrivial twist:  theta[lam+1/2; mu+1/2](z) / theta[lam+1/2; mu+1/2](0) / K(z).
    Trivial twist:     1/2 + theta'[1/2;1/2](z) / theta'[1/2;1/2](0) / K(z), with
    theta' summed term by term as sum_n (n+1/2) * term_n over theta's own
    window (the ratio is exactly K'/K = P_1, so the trivially twisted
    function needs its constant 1/2 restored on top).

    Raises DegenerateTheta when the denominator theta value is below cfg.tol.
    Valid wherever the prime form is (0 < |z| < 2*pi).
    """
    tau = require_upper_half(tau)
    z = complex(z)
    if tw.is_trivial:
        def dtheta(w: complex) -> complex:
            ns, terms = _theta_terms(0.5, 0.5, w, tau, cfg)
            return complex((ns * terms).sum())

        den = dtheta(0.0)
        if abs(den) < cfg.tol:
            raise DegenerateTheta(f"theta'[1/2;1/2](0) ~ 0 at tau = {tau}")
        return 0.5 + dtheta(z) / den / prime_form(z, tau, cfg)
    a, b = tw.lam + 0.5, tw.mu + 0.5
    den = theta_char(a, b, 0.0, tau, cfg)
    if abs(den) < cfg.tol:
        raise DegenerateTheta(f"theta[{a};{b}](0) ~ 0 at tau = {tau}")
    return theta_char(a, b, z, tau, cfg) / den / prime_form(z, tau, cfg)
