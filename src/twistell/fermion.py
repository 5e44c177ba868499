"""Closed-form torus correlators for rank-one and rank-two free fermions.

Rank one: Pfaffian formulas driven by P_1[theta; -1] for the untwisted and
parity-twisted traces, plus the parity-twisted-module generator built on
P_1[-1; 1]. Rank two: determinant formulas for the continuous-orbifold
sectors parameterized by a real pair (alpha, beta), their bosonized
theta/prime-form expressions, general lattice correlators, and the modular
multiplier system of the partition function.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .classical import dedekind_eta, prime_form, require_upper_half, theta_char
from .errors import BalanceError, DomainError, NotConverged, UnsupportedTwist
from .numeric import DEFAULT_CONFIG, TruncationConfig, binomial, determinant, pfaffian
from .twisted import (
    TwistPair,
    GroupElement,
    _reduce_phase,
    twisted_eisenstein,
    twisted_pk_reflected,
)
# perfbench's tracer test patches and checks this binding of twisted_pk
from .twisted import twisted_pk  # noqa: F401


class GSelector(Enum):
    """Insertion-trace choice for rank-one correlators: plain trace or parity-twisted."""

    IDENTITY = "identity"
    SIGMA = "sigma"

    def twist(self) -> TwistPair:
        # phi = -1 is fixed by the half-integer fermion weight; theta = +-1 by g.
        return TwistPair(0.0 if self is GSelector.IDENTITY else 0.5, 0.5)


@dataclass(frozen=True)
class FockLabelRank1:
    """Strictly increasing positive mode indices naming a rank-one Fock insertion."""

    ks: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "ks", tuple(int(k) for k in self.ks))
        if any(k < 1 for k in self.ks):
            raise ValueError(f"mode indices must be >= 1, got {self.ks}")
        if any(a >= b for a, b in zip(self.ks, self.ks[1:])):
            raise ValueError(f"mode indices must be strictly increasing, got {self.ks}")


@dataclass(frozen=True)
class FockLabelRank2:
    """Mode-index lists (ks for psi+, ls for psi-) of a rank-two Fock insertion."""

    ks: tuple[int, ...]
    ls: tuple[int, ...]

    def __post_init__(self):
        for name, seq in (("ks", self.ks), ("ls", self.ls)):
            seq = tuple(int(k) for k in seq)
            object.__setattr__(self, name, seq)
            if any(k < 1 for k in seq):
                raise ValueError(f"{name} must be >= 1, got {seq}")
            if any(a >= b for a, b in zip(seq, seq[1:])):
                raise ValueError(f"{name} must be strictly increasing, got {seq}")


@dataclass(frozen=True)
class OrbifoldParams:
    """Real pair (alpha, beta) fixing the rank-two orbifold sector.

    Derived data: kappa = beta + 1/2, theta = exp(-2*pi*i*alpha),
    phi = exp(-2*pi*i*beta). alpha and beta are kept as given (the q-power
    prefactor depends on beta itself, not beta mod 1); only the twist-pair
    reduction happens mod 1.
    """

    alpha: float
    beta: float

    @property
    def kappa(self) -> float:
        return self.beta + 0.5

    @property
    def theta(self) -> complex:
        return cmath.exp(-2j * math.pi * self.alpha)

    @property
    def phi(self) -> complex:
        return cmath.exp(-2j * math.pi * self.beta)

    @property
    def is_trivial_twist(self) -> bool:
        return _reduce_phase(self.alpha) == 0.0 and _reduce_phase(self.beta) == 0.0

    def twist(self) -> TwistPair:
        return TwistPair(self.alpha, -self.beta)

    def __str__(self):
        return f"(alpha={self.alpha:.6g}, beta={self.beta:.6g})"


def _cd_matrix(tw: TwistPair, row_modes: Sequence[Sequence[int]], xs: Sequence[complex],
               col_modes: Sequence[Sequence[int]], ys: Sequence[complex] | None,
               tau: complex, cfg: TruncationConfig, diag: complex | None = None) -> np.ndarray:
    """C/D block matrix of the expansion coefficients of P_1[tw].

    Row block a holds the modes k_i of row_modes[a] at xs[a]; column block b
    the modes l_j of col_modes[b] at ys[b]. With ys None the columns sit at
    the row points, and block a == b holds C[tw](k_i, l_j), or the constant
    diag when one is given. Every other entry is D[tw](k_i, l_j, xs[a] - ys[b]),
    taken through the parity reflection where Re > 0, since the matrix needs
    D at both z_ab and z_ba. Each E_m[tw] and each (a, b, m), m = k + l - 1,
    is evaluated once.
    """
    shared = ys is None
    ys = xs if shared else ys
    cols = [(b, l) for b, ls in enumerate(col_modes) for l in ls]
    factors: dict = {}
    values: dict = {}
    rows = []
    for a, ks in enumerate(row_modes):
        for k in ks:
            row = []
            for b, l in cols:
                c_entry = shared and a == b
                if c_entry and diag is not None:
                    row.append(diag)
                    continue
                m = k + l - 1
                key = m if c_entry else (a, b, m)
                val = values.get(key)
                if val is None:
                    val = values[key] = (twisted_eisenstein(m, tw, tau, cfg) if c_entry else
                                         twisted_pk_reflected(m, tw, xs[a] - ys[b], tau, cfg))
                fac = factors.get((k, l, c_entry))
                if fac is None:
                    # C = (-1)^l C(k+l-2, k-1) E_m and D = (-1)^(k+1) C(k+l-2, k-1) P_m
                    fac = factors[k, l, c_entry] = ((-1.0) ** (l if c_entry else k + 1)
                                                    * binomial(m - 1, k - 1))
                row.append(fac * val)
            rows.append(row)
    return np.array(rows, dtype=complex).reshape(len(rows), len(cols))


def p1_difference_matrix(tw: TwistPair, zs: Sequence[complex], tau: complex,
                         cfg: TruncationConfig = DEFAULT_CONFIG,
                         diag: complex = 0.0) -> np.ndarray:
    """Matrix P_1[tw](z_i - z_j) with a prescribed diagonal value."""
    zs = [complex(z) for z in zs]
    one_mode = [(1,)] * len(zs)
    return _cd_matrix(tw, one_mode, zs, one_mode, None, tau, cfg, diag=diag)


def _require_distinct(points: Sequence[complex], what: str) -> None:
    pts = [complex(p) for p in points]
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if pts[i] == pts[j]:
                raise DomainError(f"{what} must be pairwise distinct; "
                                  f"entries {i} and {j} coincide at {pts[i]}")


# ---------------------------------------------------------------------------
# rank one
# ---------------------------------------------------------------------------

def rank1_partition(g: GSelector, tau: complex,
                    cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Rank-one partition function as an eta quotient.

    Plain trace: eta(tau/2)/eta(tau); parity-twisted trace:
    eta(tau)^2/(eta(2*tau)*eta(tau/2)). Both equal the q-products
    q^{-1/48} prod_{n>=0} (1 -+ q^{n+1/2}).
    """
    tau = require_upper_half(tau)
    if g is GSelector.IDENTITY:
        return dedekind_eta(tau / 2.0, cfg) / dedekind_eta(tau, cfg)
    return dedekind_eta(tau, cfg) ** 2 / (dedekind_eta(2.0 * tau, cfg)
                                          * dedekind_eta(tau / 2.0, cfg))


def sigma_module_partition(tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Parity-twisted trace over the parity-twisted module: eta(2*tau)/eta(tau).

    The plain trace over that module vanishes identically.
    """
    tau = require_upper_half(tau)
    return dedekind_eta(2.0 * tau, cfg) / dedekind_eta(tau, cfg)


def rank1_generating(g: GSelector, zs: Sequence[complex], tau: complex,
                     cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """All-fermion insertion correlator; 0 for odd n, else Pf(P) * Z(g).

    P(i, j) = P_1[theta; -1](z_i - z_j) with theta fixed by the selector.
    Totally antisymmetric in the insertion points.
    """
    zs = [complex(z) for z in zs]
    if len(zs) % 2:
        return 0.0 + 0.0j
    _require_distinct(zs, "insertion points")
    mat = p1_difference_matrix(g.twist(), zs, tau, cfg)
    return pfaffian(mat, cfg) * rank1_partition(g, tau, cfg)


def rank1_sigma_twisted_generating(zs: Sequence[complex], tau: complex,
                                   cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Generator of parity-twisted-module correlators; 0 for odd n.

    For even n: Pf(P_1[-1; 1](z_i - z_j)) * eta(2*tau)/eta(tau).
    """
    zs = [complex(z) for z in zs]
    if len(zs) % 2:
        return 0.0 + 0.0j
    _require_distinct(zs, "insertion points")
    mat = p1_difference_matrix(TwistPair(0.5, 0.0), zs, tau, cfg)
    return pfaffian(mat, cfg) * sigma_module_partition(tau, cfg)


def _as_rank1_labels(labels) -> list[FockLabelRank1]:
    return [lab if isinstance(lab, FockLabelRank1) else FockLabelRank1(tuple(lab))
            for lab in labels]


def rank1_fock_npoint(labels, zs: Sequence[complex], g: GSelector, tau: complex,
                      cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """n-point function of rank-one Fock insertions: Pf of a C/D block matrix.

    Vanishes when the total mode count is odd. Diagonal blocks hold
    C[theta;-1](k_i, k_j); off-diagonal blocks D[theta;-1](k_i, k_j, z_a - z_b).
    The diagonal entries C(k, k) vanish identically at theta = +-1, phi = -1,
    and the Pfaffian never reads them.
    """
    labels = _as_rank1_labels(labels)
    zs = [complex(z) for z in zs]
    if len(labels) != len(zs):
        raise ValueError("labels and insertion points must pair up")
    if sum(len(lab.ks) for lab in labels) % 2:
        return 0.0 + 0.0j
    _require_distinct(zs, "insertion points")
    modes = [lab.ks for lab in labels]
    mat = _cd_matrix(g.twist(), modes, zs, modes, None, tau, cfg)
    return pfaffian(mat, cfg) * rank1_partition(g, tau, cfg)


# ---------------------------------------------------------------------------
# rank two
# ---------------------------------------------------------------------------

def rank2_partition(p: OrbifoldParams, tau: complex,
                    cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Rank-two orbifold partition function as an infinite q-product.

    q^{kappa^2/2 - 1/24} prod_{l>=1} (1 - theta^-1 q^{l-1/2-kappa})
    (1 - theta q^{l-1/2+kappa}); half-integer q-powers are evaluated as
    exp(2*pi*i*tau*s), so no roots are extracted. Exactly 0 for the trivial
    twist.
    """
    tau = require_upper_half(tau)
    if p.is_trivial_twist:
        return 0.0 + 0.0j
    kappa = p.kappa
    qlog = 2j * math.pi * tau
    th_inv = cmath.exp(2j * math.pi * p.alpha)
    th = cmath.exp(-2j * math.pi * p.alpha)
    acc = cmath.exp(qlog * (kappa**2 / 2.0 - 1.0 / 24.0))
    for l in range(1, cfg.q_order + 1):
        e1 = l - 0.5 - kappa
        e2 = l - 0.5 + kappa
        acc *= (1.0 - th_inv * cmath.exp(qlog * e1)) * (1.0 - th * cmath.exp(qlog * e2))
        if min(e1, e2) > 0 and abs(cmath.exp(qlog * min(e1, e2))) < cfg.tol:
            return acc
    raise NotConverged(f"partition product not below tol within q_order={cfg.q_order}")


def rank2_partition_theta(p: OrbifoldParams, tau: complex,
                          cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Partition function as a theta quotient (Jacobi-triple-product form).

    exp(2*pi*i*(alpha+1/2)*(beta+1/2)) / eta(tau) * theta[-beta+1/2; alpha+1/2](0, tau).
    """
    tau = require_upper_half(tau)
    pref = cmath.exp(2j * math.pi * (p.alpha + 0.5) * (p.beta + 0.5))
    return pref / dedekind_eta(tau, cfg) * theta_char(-p.beta + 0.5, p.alpha + 0.5,
                                                      0.0, tau, cfg)


def _check_annulus_diffs(xs, ys, tau):
    h = 2.0 * math.pi * complex(tau).imag
    for x in xs:
        for y in ys:
            re = (complex(x) - complex(y)).real
            if not -h < re < 0.0:
                raise DomainError(
                    f"x - y = {complex(x) - complex(y):.6g} outside the annulus "
                    f"(-{h:.4g} < Re < 0 required)")


def rank2_generating(p: OrbifoldParams, xs: Sequence[complex], ys: Sequence[complex],
                     tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Generating correlator of n psi+ at xs and n psi- at ys.

    Nontrivial twist: det(P_1[theta; phi](x_i - y_j)) * Z(p). Trivial twist:
    det(Q) * eta(tau)^2 with Q the (n+1) x (n+1) untwisted-P_1 matrix bordered
    by a ones column/row and a zero corner; the trivially twisted P_1 used
    here exceeds it by the constant 1/2, which the ones border cancels from
    the determinant. Requires every x_i - y_j in the annulus.
    """
    tau = require_upper_half(tau)
    xs = [complex(x) for x in xs]
    ys = [complex(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("need equally many psi+ and psi- insertions")
    n = len(xs)
    if n == 0:
        return rank2_partition(p, tau, cfg)
    _require_distinct(xs, "psi+ points")
    _require_distinct(ys, "psi- points")
    _check_annulus_diffs(xs, ys, tau)
    one_mode = [(1,)] * n
    mat = _cd_matrix(p.twist(), one_mode, xs, one_mode, ys, tau, cfg)
    if p.is_trivial_twist:
        q = np.ones((n + 1, n + 1), dtype=complex)
        q[:n, :n] = mat
        q[n, n] = 0.0
        return determinant(q) * dedekind_eta(tau, cfg) ** 2
    return determinant(mat) * rank2_partition(p, tau, cfg)


def alternating_sign(s_counts: Sequence[int], t_counts: Sequence[int]) -> int:
    """Sign of the shuffle taking grouped psi+/psi- modes to alternating order.

    The insertion list carries, per vector, its psi+ modes then its psi-
    modes; the generating function is defined with the alternating order
    psi+, psi-, psi+, ... All modes are odd, so the sign is the permutation
    parity of that reordering.
    """
    seq: list[int] = []
    for s_a, t_a in zip(s_counts, t_counts):
        seq += [0] * s_a + [1] * t_a
    plus_seen = minus_seen = 0
    targets = []
    for kind in seq:
        if kind == 0:
            targets.append(2 * plus_seen)
            plus_seen += 1
        else:
            targets.append(2 * minus_seen + 1)
            minus_seen += 1
    inversions = sum(1 for i in range(len(targets)) for j in range(i + 1, len(targets))
                     if targets[i] > targets[j])
    return -1 if inversions % 2 else 1


def _as_rank2_labels(labels) -> list[FockLabelRank2]:
    out = []
    for lab in labels:
        if isinstance(lab, FockLabelRank2):
            out.append(lab)
        else:
            ks, ls = lab
            out.append(FockLabelRank2(tuple(ks), tuple(ls)))
    return out


def rank2_fock_npoint(labels, zs: Sequence[complex], p: OrbifoldParams, tau: complex,
                      cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """n-point function of rank-two Fock insertions: signed C/D block determinant.

    Vanishes unless the psi+ and psi- mode counts balance. Only nontrivial
    twists have this closed form; the trivial sector raises UnsupportedTwist.
    """
    if p.is_trivial_twist:
        raise UnsupportedTwist("rank-two Fock correlators are closed-form only for "
                               "nontrivial twists")
    labels = _as_rank2_labels(labels)
    zs = [complex(z) for z in zs]
    if len(labels) != len(zs):
        raise ValueError("labels and insertion points must pair up")
    s_counts = [len(lab.ks) for lab in labels]
    t_counts = [len(lab.ls) for lab in labels]
    if sum(s_counts) != sum(t_counts):
        return 0.0 + 0.0j
    _require_distinct(zs, "insertion points")
    mat = _cd_matrix(p.twist(), [lab.ks for lab in labels], zs,
                     [lab.ls for lab in labels], None, tau, cfg)
    eps = alternating_sign(s_counts, t_counts)
    return eps * determinant(mat) * rank2_partition(p, tau, cfg)


def rank2_generating_boson(p: OrbifoldParams, xs: Sequence[complex],
                           ys: Sequence[complex], tau: complex,
                           cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Bosonized generating correlator via theta functions and prime forms.

    pref/eta * theta[-beta+1/2; alpha+1/2](sum(x_i - y_i))
    * prod_{i<j} K(x_i-x_j) K(y_j-y_i) / prod_{i,j} K(x_i-y_j),
    with pref = exp(2*pi*i*(alpha+1/2)*(beta+1/2)). The K(y_j - y_i)
    ordering carries the sign (-1)^{n(n-1)/2} of shuffling the grouped
    charge insertions into the alternating order that defines the
    generating correlator; with it this expression equals rank2_generating
    on the overlap domain (the trisecant identity). Valid for both trivial
    and nontrivial twists; all pairwise differences must stay inside the
    prime-form disk.
    """
    tau = require_upper_half(tau)
    xs = [complex(x) for x in xs]
    ys = [complex(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("need equally many psi+ and psi- insertions")
    _require_distinct(xs, "psi+ points")
    _require_distinct(ys, "psi- points")
    pref = cmath.exp(2j * math.pi * (p.alpha + 0.5) * (p.beta + 0.5))
    total = sum(xs) - sum(ys)
    num = pref / dedekind_eta(tau, cfg) * theta_char(-p.beta + 0.5, p.alpha + 0.5,
                                                     total, tau, cfg)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            num *= prime_form(xs[i] - xs[j], tau, cfg) * prime_form(ys[j] - ys[i], tau, cfg)
    for x in xs:
        for y in ys:
            num /= prime_form(x - y, tau, cfg)
    return num


def lattice_npoint(p: OrbifoldParams, ms: Sequence[int], xs: Sequence[complex],
                   ns: Sequence[int], ys: Sequence[complex], tau: complex,
                   cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """General lattice-vector correlator (charges ms at xs, -ns at ys).

    pref/eta * theta[-beta+1/2; alpha+1/2](sum m_i x_i - sum n_j y_j)
    * prod K(x_i-x_k)^{m_i m_k} prod K(y_j-y_l)^{n_j n_l}
    / prod K(x_i-y_j)^{m_i n_j}. Raises BalanceError unless sum(ms) == sum(ns).
    """
    tau = require_upper_half(tau)
    ms = [int(m) for m in ms]
    ns = [int(n) for n in ns]
    xs = [complex(x) for x in xs]
    ys = [complex(y) for y in ys]
    if len(ms) != len(xs) or len(ns) != len(ys):
        raise ValueError("charges and points must pair up")
    if any(m < 1 for m in ms) or any(n < 1 for n in ns):
        raise ValueError("lattice charges must be positive integers")
    if sum(ms) != sum(ns):
        raise BalanceError(f"charges must balance: sum(ms)={sum(ms)} != sum(ns)={sum(ns)}")
    _require_distinct(xs, "x points")
    _require_distinct(ys, "y points")
    pref = cmath.exp(2j * math.pi * (p.alpha + 0.5) * (p.beta + 0.5))
    arg = sum(m * x for m, x in zip(ms, xs)) - sum(n * y for n, y in zip(ns, ys))
    val = pref / dedekind_eta(tau, cfg) * theta_char(-p.beta + 0.5, p.alpha + 0.5,
                                                     arg, tau, cfg)
    for i in range(len(xs)):
        for k in range(i + 1, len(xs)):
            val *= prime_form(xs[i] - xs[k], tau, cfg) ** (ms[i] * ms[k])
    for j in range(len(ys)):
        for l in range(j + 1, len(ys)):
            val *= prime_form(ys[j] - ys[l], tau, cfg) ** (ns[j] * ns[l])
    for i in range(len(xs)):
        for j in range(len(ys)):
            val /= prime_form(xs[i] - ys[j], tau, cfg) ** (ms[i] * ns[j])
    return val


# ---------------------------------------------------------------------------
# modular multiplier system
# ---------------------------------------------------------------------------

def epsilon_S(p: OrbifoldParams) -> complex:
    """Partition-function multiplier of S: exp(2*pi*i*(1/2+beta)*(1/2-alpha))."""
    return cmath.exp(2j * math.pi * (0.5 + p.beta) * (0.5 - p.alpha))


def epsilon_T(p: OrbifoldParams) -> complex:
    """Partition-function multiplier of T: exp(pi*i*(beta*(beta+1) + 1/6))."""
    return cmath.exp(1j * math.pi * (p.beta * (p.beta + 1.0) + 1.0 / 6.0))


def generator_word(gamma: GroupElement) -> list[tuple]:
    """Decompose gamma as a left-to-right product of S and T^q factors.

    Returns [("T", q1), ("S",), ("T", q2), ("S",), ...] whose ordered matrix
    product reproduces gamma; word length is O(log max|entry|) by the
    Euclidean reduction on the bottom row.
    """
    word: list[tuple] = []
    a, b, c, d = gamma.a, gamma.b, gamma.c, gamma.d
    while c != 0:
        q = round(a / c)
        # gamma = T^q S gamma' with gamma' = S^-1 T^-q gamma
        word.append(("T", q))
        word.append(("S",))
        a, b, c, d = -c, -d, a - q * c, b - q * d
    if a == 1:
        if b != 0:
            word.append(("T", b))
    else:  # a == d == -1: leftover is -T^{-b} = S^2 T^{-b}... with -I = S^2
        word.append(("S",))
        word.append(("S",))
        if b != 0:
            word.append(("T", -b))
    return [w for w in word if w != ("T", 0)]


def modular_multiplier(gamma: GroupElement, p: OrbifoldParams) -> tuple[complex, OrbifoldParams]:
    """Multiplier eps_gamma and transformed parameters for the partition function.

    gamma is decomposed into S and T^q factors; the word is consumed from the
    right, multiplying the generator value evaluated at the current (alpha,
    beta) before updating (alpha, beta) <- generator . (alpha, beta). The
    returned parameters equal (a*alpha + b*beta, c*alpha + d*beta).
    """
    eps = 1.0 + 0.0j
    cur = p
    for gen in reversed(generator_word(gamma)):
        if gen[0] == "S":
            eps *= epsilon_S(cur)
            cur = OrbifoldParams(cur.beta, -cur.alpha)
        else:
            q = gen[1]
            eps *= cmath.exp(1j * math.pi * q * (cur.beta * (cur.beta + 1.0) + 1.0 / 6.0))
            cur = OrbifoldParams(cur.alpha + q * cur.beta, cur.beta)
    return eps, cur
