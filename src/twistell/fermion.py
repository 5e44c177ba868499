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
import itertools
import math
import sys
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .classical import (
    _prime_forms,
    _theta_chars,
    _turn,
    dedekind_eta,
    require_upper_half,
)
from .errors import (
    BalanceError,
    DomainError,
    NotConverged,
    TwistellError,
    UnsupportedTwist,
    _outcome,
    _settle,
    _take_refusals,
)
from .numeric import DEFAULT_CONFIG, Q_ORDER, TruncationConfig, pfaffian
from .twisted import (
    TwistPair,
    GroupElement,
    _cd_factor,
    _reduce_phase,
    twisted_eisenstein,
    twisted_pk_batch,
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
    reduction happens mod 1. DomainError unless both are finite.
    """

    alpha: float
    beta: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise DomainError(f"orbifold parameters must be finite, got {self}")

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


def _cd_stacks(samples: Sequence[tuple], cfg: TruncationConfig, fails: dict) -> list[tuple]:
    """The C/D block matrices of the expansion coefficients of P_1[tw] at every sample
    record (tw, row_modes, xs, col_modes, ys, tau, diag) of samples, as (members, stack)
    per layout, stack[j] the matrix of sample members[j]. A sample that is None, or that
    fails already holds, takes no part; a refused sample's error goes to fails and its
    slot of the stack is undefined; a layout may have no stack when all of its samples
    are refused.

    Row block a holds the modes k_i of row_modes[a] at xs[a]; column block b the modes
    l_j of col_modes[b] at ys[b]. With ys None the columns sit at the row points, and
    block a == b holds C[tw](k_i, l_j), or the constant diag when one is given; each
    E_m[tw] is evaluated once a sample. Every other entry is D[tw](k_i, l_j, xs[a] -
    ys[b]), m = k_i + l_j - 1, from the kernel at every m at every difference of two
    blocks, row major.

    A layout, (row_modes, col_modes, shared or not, diag given or not) with the modes as
    tuples or ranges, fixes the cells (k, l), the orders, their factors and the gather
    index, each built once. Its samples' differences come from one stacked subtraction,
    and its matrices from one take of a table with a row per distinct (k, l), then a
    column per sample, then a slot per block pair (a, b), row major: a matrix row gives
    the offset of its k's rows plus a * blocks, a column that of its l plus b, and an
    entry's index is their sum plus its sample's offset.

    The D entries come from one twisted_pk_batch call per distinct tuple of orders m
    (_grouped), as the kernel sums one table of orders for all the points of a call. Each
    matrix equals its one-sample call bit for bit. A sample is refused by a diag that is
    not finite (DomainError), else by the first refused entry of its points in the
    kernel's outcome (point order, then order), else by its layout's factors
    (_cd_factor), else by its E_m.
    """
    groups: dict = {}
    for i, sample in enumerate(samples):
        if sample is None or i in fails:
            continue
        if sample[6] is not None and not cmath.isfinite(sample[6]):
            fails[i] = DomainError(f"diagonal value must be finite, got {sample[6]}")
            continue
        groups.setdefault((tuple(sample[1]), tuple(sample[3]), sample[4] is None,
                           sample[6] is None), []).append(i)
    with np.errstate(over="ignore", invalid="ignore"):     # inf and nan silently, as in Python
        layouts, diffs, calls = [], [], {}     # calls: the layouts of each tuple of orders
        for (row_modes, col_modes, shared, _), members in groups.items():
            g, nr, nb = len(members), len(row_modes), len(col_modes)
            ks = list({k for modes in row_modes for k in modes})    # set order: it picks
            ls = list({l for modes in col_modes for l in modes})    # the binomial that a
            cells = [(k, l) for k in ks for l in ls]                # NotConverged names
            xs = np.array([samples[i][2] for i in members], dtype=complex)     # (g, nr)
            if shared:
                k_in = {k: {a for a, modes in enumerate(row_modes) if k in modes} for k in ks}
                l_in = {l: {b for b, modes in enumerate(col_modes) if l in modes} for l in ls}
                ms = tuple(sorted({k + l - 1 for k, l in cells if len(k_in[k] | l_in[l]) > 1}))
                on = {(k, l) for k, l in cells if k_in[k] & l_in[l]}
                zs = (xs[:, :, None] - xs[:, None, :]).reshape(g, nr * nb)
                zs = zs[:, 1:].reshape(g, -1, nb + 1)[:, :, :-1]     # the a != b of the grid
            else:
                ms = tuple(sorted({k + l - 1 for k, l in cells}))
                on = None
                zs = xs[:, :, None] - np.array([samples[i][4] for i in members],
                                               dtype=complex)[:, None, :]
            if zs.size:
                calls.setdefault(ms, []).append(len(layouts))
            layouts.append((members, row_modes, col_modes, ks, ls, cells, ms, on))
            diffs.append(zs.reshape(g, -1))
        blocks = [None] * len(layouts)
        for ms, parts in calls.items():
            got = _grouped(lambda zs, tws, taus: twisted_pk_batch(ms, tws, zs, taus, cfg),
                           [(layouts[j][0], diffs[j]) for j in parts], fails,
                           lambda i: (samples[i][0], samples[i][5]))
            for j, block in zip(parts, got):
                blocks[j] = block
        stacks = []
        for (members, row_modes, col_modes, ks, ls, cells, ms, on), block in zip(layouts, blocks):
            g, nr, nb = len(members), len(row_modes), len(col_modes)
            # C = (-1)^l C(k+l-2, k-1) E_m and D = (-1)^(k+1) C(k+l-2, k-1) P_m
            d_fac = _refusing(fails, members, lambda: np.array([[_cd_factor(k + 1, k, l)]
                                                                for k, l in cells]))
            if d_fac is None:
                continue
            if ms:
                row_of = {m: i for i, m in enumerate(ms)}
                d = d_fac * block.take([row_of.get(k + l - 1, 0) for k, l in cells], axis=0)
            if on is None:
                table = d if ms else np.empty((len(cells), g * nr * nb), dtype=complex)
            else:
                table = np.empty((len(cells), g, nr * nb), dtype=complex)
                if ms:   # the slots a != b, as in zs
                    table[:, :, 1:].reshape(len(cells), g, nb - 1, nb + 1)[..., :-1] = \
                        d.reshape(len(cells), g, nb - 1, nb)
                table[:, :, ::nb + 1] = _cd_diagonals(samples, members, cells, on, fails, cfg)
            t = g * nr * nb     # a cell's stride in the table
            at = np.add.outer([(ks.index(k) * len(ls) * t + a * nb)
                               for a, modes in enumerate(row_modes) for k in modes],
                              [ls.index(l) * t + b for b, lb in enumerate(col_modes) for l in lb]
                              ).astype(np.intp, copy=False)     # an empty side comes as float
            at = at + (nr * nb * np.arange(g))[:, None, None] if g > 1 else at[None]
            stacks.append((members, table.take(at)))
    return stacks


def _grouped(call, groups: list, fails: dict, columns_of) -> list:
    """call(points, *columns) at the points of every (members, zs) of groups in one call,
    zs holding a row of points per member: points all the rows in order, and each column
    a value per point, member i's columns_of(i) repeated over its points, or its values
    themselves where one sample takes part. Each member takes the first error among
    its points into fails (_take_refusals). Returns each group's block of the values,
    along their last axis."""
    members = [i for group, _ in groups for i in group]
    sizes = [zs.shape[1] for group, zs in groups for _ in group]
    columns = [columns_of(i) for i in members]
    columns = columns[0] if len(members) == 1 else [
        [v for v, n in zip(column, sizes) for _ in range(n)] for column in zip(*columns)]
    points = [zs.reshape(-1) for _, zs in groups]
    values, statuses = _outcome(call, points[0] if len(points) == 1 else np.concatenate(points),
                                *columns)
    _take_refusals(fails, members, statuses, sizes)
    if len(points) == 1:
        return [values]
    ends = [0, *itertools.accumulate(map(len, points))]
    return [values[..., lo:hi] for lo, hi in zip(ends, ends[1:])]


def _refusing(fails: dict, at, make, refused=None):
    """make(), or refused where it raises a TwistellError, which goes to fails for each
    sample of at that fails holds none for yet."""
    try:
        return make()
    except TwistellError as exc:
        for i in at:
            fails.setdefault(i, exc)
        return refused


def _cd_diagonals(samples: Sequence[tuple], members: list, cells: list, on: set, fails: dict,
                  cfg: TruncationConfig) -> np.ndarray:
    """The diagonal-block entries of a shared _cd_stacks layout, broadcast to (cells,
    members, 1): each sample's diag, or its C[tw](k, l) where (k, l) meets on a diagonal
    block and 0 off it, E_m[tw] once per m and sample (twisted_eisenstein). A sample
    refused before, or by an E_m, has 0 there. The C factors cannot fail where the D
    factors passed: both are the binomial C(k+l-2, k-1)."""
    if samples[members[0]][6] is not None:
        return np.array([[samples[i][6]] for i in members], dtype=complex)
    e_ms = {k + l - 1 for k, l in on}
    c_fac = [_cd_factor(l, k, l) if (k, l) in on else None for k, l in cells]
    diags = []
    for i in members:
        tw, tau = samples[i][0], samples[i][5]
        eis = None if i in fails else _refusing(fails, (i,), lambda: {
            m: twisted_eisenstein(m, tw, tau, cfg) for m in e_ms})
        diags.append([0j if f is None or eis is None else f * eis[k + l - 1]
                      for f, (k, l) in zip(c_fac, cells)])
    return np.array(diags, dtype=complex).reshape(len(members), len(cells)).T[:, :, None]


def _unstack(stacks: list[tuple], count: int, fails: dict) -> list:
    """Each sample's entry of the (members, stack) pairs of stacks, in sample order: its
    matrix, or its determinant where stack is a list of them; None where fails holds it
    or no stack has it."""
    out = [None] * count
    for members, stack in stacks:
        for i, entry in zip(members, stack):
            if i not in fails:
                out[i] = entry
    return out


def _cd_matrices(samples: Sequence[tuple], cfg: TruncationConfig) -> list[np.ndarray]:
    """The C/D block matrix of every (tw, row_modes, xs, col_modes, ys, tau, diag) of
    samples (_cd_stacks), each a view into its layout's stack. A refused batch raises its
    first refused sample's error with the batch's outcome (_settle)."""
    fails: dict = {}
    stacks = _cd_stacks(samples, cfg, fails)
    return _settle(_unstack(stacks, len(samples), fails), fails)


def _cd_determinants(samples: Sequence[tuple], cfg: TruncationConfig
                     ) -> tuple[list[np.ndarray], list[complex]]:
    """The matrices of _cd_matrices at samples and their determinants, one np.linalg.det
    call per layout stack; numpy factors each matrix of a stack as it does one matrix
    alone, so each determinant equals numeric.determinant of its matrix bit for bit."""
    fails: dict = {}
    stacks = _cd_stacks(samples, cfg, fails)
    mats = _settle(_unstack(stacks, len(samples), fails), fails)
    return mats, _unstack([(members, np.linalg.det(stack).tolist()) for members, stack in stacks],
                          len(samples), fails)


def p1_difference_matrix(tw: TwistPair, zs: Sequence[complex], tau: complex,
                         cfg: TruncationConfig = DEFAULT_CONFIG,
                         diag: complex = 0.0) -> np.ndarray:
    """Matrix P_1[tw](z_i - z_j) with a prescribed diagonal value: the one-sample call of
    _cd_matrices, whose samples _p1_sample builds."""
    return _cd_matrices([_p1_sample(tw, zs, tau, diag)], cfg)[0]


def _p1_sample(tw: TwistPair, zs: Sequence[complex], tau: complex,
               diag: complex | None = 0.0) -> tuple:
    """The _cd_matrices sample of the matrix P_1[tw](z_i - z_j) with diagonal diag."""
    zs = [complex(z) for z in zs]
    one_mode = [(1,)] * len(zs)
    return tw, one_mode, zs, one_mode, None, tau, diag


def _require_distinct(points: Sequence[complex], what: str) -> None:
    pts = [complex(p) for p in points]
    if len(set(pts)) < len(pts):        # only then look for the first pair that coincides
        for i, p in enumerate(pts):
            for j in range(i + 1, len(pts)):
                if p == pts[j]:
                    raise DomainError(f"{what} must be pairwise distinct; "
                                      f"entries {i} and {j} coincide at {p}")


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


def _rank1_pfaffians(samples: Sequence[tuple], cfg: TruncationConfig) -> list[complex]:
    """Pf of the _cd_stacks matrix of record times partition(tau, cfg), at every (record,
    partition) of samples, record a shared layout's (tw, modes, zs, modes, None, tau,
    diag); 0 when the total mode count is odd. The matrices come from one _cd_stacks
    call; each value equals its one-sample call bit for bit. A sample is refused, in
    this order, by _require_distinct, by its matrix and by the Pfaffian or the partition
    function; a refused batch raises its first refused sample's error (_settle)."""
    fails: dict = {}
    records = [None if sum(map(len, record[1])) % 2 else record for record, _ in samples]
    for i, record in enumerate(records):
        if record is not None:
            _refusing(fails, (i,), lambda: _require_distinct(record[2], "insertion points"))
    mats = _unstack(_cd_stacks(records, cfg, fails), len(samples), fails)
    return _settle([0j if mat is None else _refusing(
        fails, (i,), lambda: pfaffian(mat, cfg) * partition(record[5], cfg), 0j)
        for i, ((record, partition), mat) in enumerate(zip(samples, mats))], fails)


def rank1_generating(g: GSelector, zs: Sequence[complex], tau: complex,
                     cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """All-fermion insertion correlator; 0 for odd n, else Pf(P) * Z(g).

    P(i, j) = P_1[theta; -1](z_i - z_j) with theta fixed by the selector.
    Totally antisymmetric in the insertion points.
    """
    return _rank1_pfaffians([_rank1_generating_sample(g, zs, tau)], cfg)[0]


def _rank1_generating_sample(g: GSelector, zs: Sequence[complex], tau: complex) -> tuple:
    """The _rank1_pfaffians sample of rank1_generating(g, zs, tau)."""
    return _p1_sample(g.twist(), zs, tau), lambda t, c: rank1_partition(g, t, c)


def rank1_sigma_twisted_generating(zs: Sequence[complex], tau: complex,
                                   cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Generator of parity-twisted-module correlators; 0 for odd n.

    For even n: Pf(P_1[-1; 1](z_i - z_j)) * eta(2*tau)/eta(tau).
    """
    return _rank1_pfaffians([_sigma_twisted_sample(zs, tau)], cfg)[0]


def _sigma_twisted_sample(zs: Sequence[complex], tau: complex) -> tuple:
    """The _rank1_pfaffians sample of rank1_sigma_twisted_generating(zs, tau)."""
    return _p1_sample(TwistPair(0.5, 0.0), zs, tau), sigma_module_partition


def rank1_fock_npoint(labels, zs: Sequence[complex], g: GSelector, tau: complex,
                      cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """n-point function of rank-one Fock insertions: Pf of a C/D block matrix.

    Vanishes when the total mode count is odd. Diagonal blocks hold
    C[theta;-1](k_i, k_j); off-diagonal blocks D[theta;-1](k_i, k_j, z_a - z_b).
    The diagonal entries C(k, k) vanish identically at theta = +-1, phi = -1,
    and the Pfaffian never reads them.
    """
    labels = [lab if isinstance(lab, FockLabelRank1) else FockLabelRank1(tuple(lab))
              for lab in labels]
    zs = [complex(z) for z in zs]
    if len(labels) != len(zs):
        raise ValueError("labels and insertion points must pair up")
    modes = [lab.ks for lab in labels]
    return _rank1_pfaffians([((g.twist(), modes, zs, modes, None, tau, None),
                              lambda t, c: rank1_partition(g, t, c))], cfg)[0]


# ---------------------------------------------------------------------------
# rank two
# ---------------------------------------------------------------------------

def rank2_partition(p: OrbifoldParams, tau: complex,
                    cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Rank-two orbifold partition function as an infinite q-product.

    q^{kappa^2/2 - 1/24} prod_{l>=1} (1 - theta^-1 q^{l-1/2-kappa})
    (1 - theta q^{l-1/2+kappa}); half-integer q-powers are evaluated as
    exp(2*pi*i*tau*s), so no roots are extracted. The product is taken at
    beta - n, n = round(beta), times (-e^{2 pi i alpha})^n = e^{2 pi i n (alpha + 1/2)}
    (the shift law Z(beta + n) = (-e^{2 pi i alpha})^n Z(beta)), its phase
    n (alpha + 1/2) reduced mod 1 exactly, so every beta keeps the factors in
    range. At kappa > 1/2 the l = 1 factor with the negative exponent 1/2 -
    kappa gives its power of q to the prefactor, q^{(kappa-1)^2/2 - 1/24}.
    Exactly 0 for the trivial twist. NotConverged when the prefactor
    underflows to a subnormal float, or a factor or the product leaves the
    float range (large Im tau).
    """
    tau = require_upper_half(tau)
    if p.is_trivial_twist:
        return 0.0 + 0.0j
    shift = round(p.beta)
    kappa = p.beta - shift + 0.5
    qlog = 2j * math.pi * tau
    th_inv = cmath.exp(2j * math.pi * p.alpha)
    th = cmath.exp(-2j * math.pi * p.alpha)
    try:
        lead, power = 1.0, kappa**2 / 2.0 - 1.0 / 24.0
        if kappa > 0.5:
            # the l = 1 factor 1 - theta^-1 q^e1, e1 = 1/2 - kappa < 0, is -theta^-1 q^e1
            # (1 - theta q^-e1): q^e1 joins the prefactor, so neither leaves the float range
            # alone (e^-766 and e^754 at kappa = 0.7, Im tau = 600)
            lead, power = -th_inv, power + 0.5 - kappa
        acc = lead * cmath.exp(qlog * power)
        # a subnormal prefactor has lost its digits, and the product with them
        normal = abs(acc) >= sys.float_info.min
        for l in range(1, Q_ORDER + 1):
            # kappa is in [0, 1], so e1 <= e2: the stop test reads q^e1 of the first factor
            e1 = l - 0.5 - kappa
            e2 = l - 0.5 + kappa
            if e1 < 0:
                acc *= (1.0 - th * cmath.exp(-qlog * e1)) * (1.0 - th * cmath.exp(qlog * e2))
                continue
            q1 = cmath.exp(qlog * e1)
            acc *= (1.0 - th_inv * q1) * (1.0 - th * cmath.exp(qlog * e2))
            if e1 > 0 and abs(q1) < cfg.tol:
                break
        else:
            raise NotConverged(f"partition product not below tol within Q_ORDER = {Q_ORDER} "
                               f"factors")
    except OverflowError:
        normal = False
    if normal and shift:
        num, den = p.alpha.as_integer_ratio()
        # n (alpha + 1/2) mod 1, exactly
        acc *= cmath.exp(1j * _turn(shift * (2 * num + den), 2 * den))
    if normal and cmath.isfinite(acc):
        return acc
    raise NotConverged(f"partition product for {p} leaves the float range at tau = {tau}")


def _form_char(p: OrbifoldParams) -> tuple[float, float, float]:
    """(a, b, turn) with exp(2 pi i (alpha+1/2)(beta+1/2)) theta[-beta+1/2; alpha+1/2] =
    e^{i turn} theta[a; b], all reduced exactly: the characteristics and phase of the
    theta forms of _bosonized.

    The theta is taken as theta[a; b] with a = 1/2 - (beta mod 1) and b = (alpha mod 1)
    + 1/2, by theta[a+1; b] = theta[a; b] and theta[a; b+k] = e^{2 pi i a k} theta[a; b],
    k = floor(alpha); the phase (alpha+1/2)(beta+1/2) + a k is reduced mod 1 exactly,
    so a large alpha or beta keeps its digits (and beta = 1e300 its 1/2).
    """
    a, b = 0.5 - p.beta % 1.0, p.alpha % 1.0 + 0.5
    # (alpha + 1/2)(beta + 1/2) + a floor(alpha) over the common denominator 4 q1 q2 q3
    (p1, q1), (p2, q2), (p3, q3) = (x.as_integer_ratio() for x in (p.alpha, p.beta, a))
    num = (2 * p1 + q1) * (2 * p2 + q2) * q3 + 4 * q1 * q2 * p3 * math.floor(p.alpha)
    return a, b, _turn(num, 4 * q1 * q2 * q3)


def rank2_partition_theta(p: OrbifoldParams, tau: complex,
                          cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Partition function as a theta quotient (Jacobi-triple-product form).

    exp(2*pi*i*(alpha+1/2)*(beta+1/2)) / eta(tau) * theta[-beta+1/2; alpha+1/2](0, tau),
    with the phase and the characteristics reduced exactly (_form_char): the
    one-sample call of _bosonized, its form _partition_form.
    """
    return _bosonized([(_partition_form, p, tau)], cfg)[0]


def rank2_generating(p: OrbifoldParams, xs: Sequence[complex], ys: Sequence[complex],
                     tau: complex, cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """Generating correlator of n psi+ at xs and n psi- at ys.

    Nontrivial twist: det(P_1[theta; phi](x_i - y_j)) * Z(p). Trivial twist:
    det(Q) * eta(tau)^2 with Q the (n+1) x (n+1) untwisted-P_1 matrix bordered
    by a ones column/row and a zero corner; the trivially twisted P_1 used
    here exceeds it by the constant 1/2, which the ones border cancels from
    the determinant. Every x_i - y_j may lie anywhere off the period lattice,
    the domain of the twisted_pk_batch kernel behind the matrix. The one-sample
    call of _rank2_generatings.
    """
    return _rank2_generatings([(p, xs, ys, tau)], cfg)[0]


def _rank2_generatings(samples: Sequence[tuple], cfg: TruncationConfig) -> list[complex]:
    """rank2_generating at every (p, xs, ys, tau) of samples, the matrices from one
    _cd_stacks call and the determinants of each stack's nontrivial twists, and of its
    trivial twists' bordered matrices, from one np.linalg.det call each; each value
    equals its one-sample call bit for bit. A sample is refused, in this order, by its
    points (_rank2_points), its matrix, and eta or the partition function; a refused
    batch raises its first refused sample's error (_settle), and a malformed sample's
    ValueError before anything is evaluated."""
    fails: dict = {}
    records = []
    for i, (p, xs, ys, tau) in enumerate(samples):
        xs, ys, tau = _refusing(fails, (i,), lambda: _rank2_points(xs, ys, tau), ([], [], tau))
        one_mode = ((1,),) * len(xs)
        records.append((p.twist(), one_mode, xs, one_mode, ys, tau, None) if xs else None)
    dets = {}
    for members, stack in _cd_stacks(records, cfg, fails):
        n = stack.shape[1]
        plain, bordered = [], []
        for j, i in enumerate(members):
            if i not in fails:
                (bordered if samples[i][0].is_trivial_twist else plain).append((j, i))
        if plain:
            picked = stack if len(plain) == len(members) else stack[[j for j, _ in plain]]
            dets.update(zip([i for _, i in plain], np.linalg.det(picked).tolist()))
        if bordered:
            # det Q: the trivially twisted matrix bordered by ones, with a zero corner
            q = np.ones((len(bordered), n + 1, n + 1), dtype=complex)
            q[:, :n, :n] = stack[[j for j, _ in bordered]]
            q[:, n, n] = 0.0
            dets.update(zip([i for _, i in bordered], np.linalg.det(q).tolist()))
    return _settle([0j if i in fails else _refusing(fails, (i,), lambda: (
        rank2_partition(p, tau, cfg) if record is None
        else dets[i] * dedekind_eta(tau, cfg) ** 2 if p.is_trivial_twist
        else dets[i] * rank2_partition(p, tau, cfg)), 0j)
        for i, ((p, _, _, tau), record) in enumerate(zip(samples, records))], fails)


def _rank2_points(xs: Sequence[complex], ys: Sequence[complex],
                  tau: complex) -> tuple[list[complex], list[complex], complex]:
    """xs, ys and tau of a rank-two generating correlator, checked: tau in the upper
    half-plane, as many psi+ points xs as psi- points ys, each group pairwise distinct."""
    tau = require_upper_half(tau)
    xs = [complex(x) for x in xs]
    ys = [complex(y) for y in ys]
    if len(xs) != len(ys):
        raise ValueError("need equally many psi+ and psi- insertions")
    _require_distinct(xs, "psi+ points")
    _require_distinct(ys, "psi- points")
    return xs, ys, tau


def alternating_sign(s_counts: Sequence[int], t_counts: Sequence[int]) -> int:
    """Sign of the shuffle taking grouped psi+/psi- modes to alternating order.

    The insertion list carries, per vector, its psi+ modes then its psi-
    modes; the generating function is defined with the alternating order
    psi+, psi-, psi+, ... All modes are odd, so the sign is the permutation
    parity of that reordering.
    """
    # the i-th psi+ goes to place 2i, the i-th psi- to place 2i + 1
    places = (itertools.count(0, 2), itertools.count(1, 2))
    targets = [next(places[kind]) for s_a, t_a in zip(s_counts, t_counts)
               for kind in [0] * s_a + [1] * t_a]
    inversions = sum(t > u for i, t in enumerate(targets) for u in targets[i + 1:])
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
    _, (det,) = _cd_determinants([(p.twist(), [lab.ks for lab in labels], zs,
                                   [lab.ls for lab in labels], None, tau, None)], cfg)
    return alternating_sign(s_counts, t_counts) * det * rank2_partition(p, tau, cfg)


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
    and nontrivial twists, at any points whose pairwise differences stay off
    the period lattice. The one-sample call of _bosonized, its form _boson_form.
    """
    return _bosonized([(_boson_form, p, xs, ys, tau)], cfg)[0]


def lattice_npoint(p: OrbifoldParams, ms: Sequence[int], xs: Sequence[complex],
                   ns: Sequence[int], ys: Sequence[complex], tau: complex,
                   cfg: TruncationConfig = DEFAULT_CONFIG) -> complex:
    """General lattice-vector correlator (charges ms at xs, -ns at ys).

    pref/eta * theta[-beta+1/2; alpha+1/2](sum m_i x_i - sum n_j y_j)
    * prod K(x_i-x_k)^{m_i m_k} prod K(y_j-y_l)^{n_j n_l}
    / prod K(x_i-y_j)^{m_i n_j}, at any points whose pairwise differences stay
    off the period lattice. Raises BalanceError unless sum(ms) == sum(ns). The
    one-sample call of _bosonized, its form _lattice_form.
    """
    return _bosonized([(_lattice_form, p, ms, xs, ns, ys, tau)], cfg)[0]


def _partition_form(p: OrbifoldParams, tau: complex) -> tuple:
    """The _bosonized form of rank2_partition_theta: theta at 0 and no prime forms."""
    return p, (), None, require_upper_half(tau)


def _boson_form(p: OrbifoldParams, xs: Sequence[complex], ys: Sequence[complex],
                tau: complex) -> tuple:
    """The _bosonized form of rank2_generating_boson, its arguments checked."""
    xs, ys, tau = _rank2_points(xs, ys, tau)
    # K(y_j - y_i) for i < j is K(y'_i - y'_j) of the reversed y's: lattice charges one
    return p, [1] * len(xs) + [-1] * len(ys), xs + ys[::-1], tau


def _lattice_form(p: OrbifoldParams, ms: Sequence[int], xs: Sequence[complex],
                  ns: Sequence[int], ys: Sequence[complex], tau: complex) -> tuple:
    """The _bosonized form of lattice_npoint, its arguments checked: the points xs + ys
    with the charges ms, -ns."""
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
    return p, ms + [-n for n in ns], xs + ys, tau


def _bosonized(samples: Sequence[tuple], cfg: TruncationConfig) -> list[complex]:
    """e^{i turn}/eta * theta[a;b](sum_a q_a u_a) * prod_{a<b} K(u_a - u_b)^{q_a q_b}, with
    (a, b, turn) = _form_char(p), at every sample (form, *args) of samples, form(*args)
    giving the sample's (p, qs, us, tau): _boson_form, _lattice_form or _partition_form,
    the last with us None, which leaves the product out.

    All thetas come from one _theta_chars call, and the K of every sample with points
    from one _prime_forms call (_grouped), each point at its sample's tau (one value
    when one sample takes part). The samples
    of one charge list qs form a group: the pairs a < b, row major, index the group's
    stacked u_a - u_b and q_a q_b, and the K are raised to their integer powers, so no
    branch of log is chosen, and multiplied out row by row in one pass over the group.
    NotConverged also where a product leaves the float range. Each value equals its
    one-sample call bit for bit. A sample is refused, in this order, by its form, by eta,
    by its theta, by its first refused prime form and by the product; a refused batch
    raises its first refused sample's error (_settle), and a malformed sample's
    ValueError before anything is evaluated.
    """
    fails: dict = {}

    def head(form, *params):
        p, qs, us, tau = form(*params)
        a, b, turn = _form_char(p)
        return a, b, qs, us, tau, cmath.exp(1j * turn) / dedekind_eta(tau, cfg)

    # per sample that its form and eta pass: its theta's a and b, its charges, points and
    # tau, and e^{i turn}/eta
    heads = {j: made for j, sample in enumerate(samples)
             if (made := _refusing(fails, (j,), lambda: head(*sample))) is not None}
    vals = [0j] * len(samples)
    if heads:
        a_s, b_s, qss, uss, taus, prefs = zip(*heads.values())
        one = len(heads) == 1
        thetas, statuses = _outcome(_theta_chars, a_s[0] if one else a_s, b_s[0] if one else b_s,
                                    [sum(q * u for q, u in zip(qs, us)) if us else 0
                                     for qs, us in zip(qss, uss)], taus[0] if one else taus, cfg)
        _take_refusals(fails, list(heads), statuses)
        for j, pref, theta in zip(heads, prefs, thetas.tolist()):
            vals[j] = pref * theta
    groups = {}     # the samples with points that pass so far, by charge list
    for j, (_, _, qs, us, _, _) in heads.items():
        if us is not None and j not in fails:
            groups.setdefault(tuple(qs), []).append(j)
    if groups:
        # a refused sample's K may be 0 or not finite; its product is never read
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            # samples of one charge list share their pairs a < b, row major, and the powers
            # q_a q_b; their differences come from one stacked subtraction, their products
            # from one pass
            parts = []
            for qs, members in groups.items():
                index = np.arange(len(qs))
                a, b = np.nonzero(index[:, None] < index)
                u = np.array([heads[j][3] for j in members], dtype=complex)
                q = np.array(qs, dtype=int)
                parts.append((members, u.take(a, axis=1) - u.take(b, axis=1), q[a] * q[b]))
            ks = _grouped(lambda zs, taus: _prime_forms(zs, taus, cfg),
                          [(members, diffs) for members, diffs, _ in parts], fails,
                          lambda j: (heads[j][4],))
            for (members, diffs, powers), k in zip(parts, ks):
                prods = (k.reshape(diffs.shape) ** powers).prod(axis=1).tolist()
                for j, prod in zip(members, prods):
                    if j not in fails:
                        vals[j] *= prod
                        if not cmath.isfinite(vals[j]):
                            fails[j] = NotConverged("product of prime forms leaves the float "
                                                    "range")
    return _settle(vals, fails)


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
        q = round(Fraction(a, c))
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
    NotConverged where a phase or the transformed parameters leave the float
    range.
    """
    eps = 1.0 + 0.0j
    cur = p
    try:
        for gen in reversed(generator_word(gamma)):
            if gen[0] == "S":
                eps *= epsilon_S(cur)
                cur = OrbifoldParams(cur.beta, -cur.alpha)
            else:
                q = gen[1]
                eps *= cmath.exp(1j * math.pi * q * (cur.beta * (cur.beta + 1.0) + 1.0 / 6.0))
                cur = OrbifoldParams(cur.alpha + q * cur.beta, cur.beta)
    except (OverflowError, ValueError, DomainError):    # DomainError: a parameter is inf
        eps = math.nan
    if not cmath.isfinite(eps):
        raise NotConverged(f"modular multiplier of {gamma} at {p}: a phase or a transformed "
                           f"parameter leaves the float range")
    return eps, cur
