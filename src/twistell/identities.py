"""Executable catalog of the identity suite.

Every check draws its own seeded samples inside the declared convergence
domains, evaluates both sides of one identity through independent routes,
and returns an IdentityReport with per-sample residuals. Residuals are
relative in the near-zero-safe sense |lhs - rhs| / max(1, |lhs|, |rhs|).
Identical (seed, plan, cfg) always reproduce bit-identical reports.
"""

from __future__ import annotations

import cmath
import math
import operator
import random
from dataclasses import dataclass, replace

import numpy as np

from .classical import (
    _prime_forms,
    _theta_chars,
    _weierstrass_pks,
    dedekind_eta,
    eisenstein,
)
from .errors import RouteUnavailable, TwistellError, _outcome
from .fermion import (
    GSelector,
    OrbifoldParams,
    _boson_form,
    _bosonized,
    _cd_determinants,
    _cd_matrices,
    _lattice_form,
    _p1_sample,
    _partition_form,
    _rank1_generating_sample,
    _rank1_pfaffians,
    _rank2_generatings,
    _sigma_twisted_sample,
    modular_multiplier,
    rank1_partition,
    rank2_partition,
    sigma_module_partition,
)
from .numeric import DEFAULT_CONFIG, TruncationConfig, determinant, pfaffian, pfaffian_pair_sum
from .twisted import (
    GroupElement,
    TwistPair,
    gamma_act_point,
    gamma_act_twist,
    lattice_distance,
    twisted_eisenstein,
    twisted_eisenstein_oracle_batch,
    twisted_pk_batch,
    twisted_pk_oracle_batch,
)

_TWO_PI = 2.0 * math.pi

# the sampling domains: the tau box, and the least distance of a sampled point or
# difference from the period lattice
_TAU_RE = (-0.4, 0.4)
_TAU_IM = (0.8, 2.0)
_MIN_SEPARATION = 0.05
# the circle laurent_coefficients samples: 64 points on |z| = 0.25 at half-offset angles,
# and the phases e^{-ik angle}, k = 0..4, of its Fourier sums
_LAURENT_RADIUS = 0.25
_LAURENT_ANGLES = [2.0 * math.pi * (j + 0.5) / 64 for j in range(64)]
_LAURENT_ZS = [_LAURENT_RADIUS * cmath.exp(1j * ang) for ang in _LAURENT_ANGLES]
_LAURENT_PHASES = [[cmath.exp(-1j * k * ang) for ang in _LAURENT_ANGLES] for k in range(5)]


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling policy: the seed and the samples per check.

    The domains are fixed: tau is drawn from the box [-0.4, 0.4] x [0.8, 2] i;
    points z uniformly from |Re z| < 2 pi Im tau, |Im z| < pi, both sides of the
    imaginary axis; a draw with a point or a difference of two points within 0.05
    of the period lattice (0.2 or 0.3 where a check asks) is redrawn.
    """

    seed: int = 7
    count: int = 25

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass
class SampleRecord:
    input: str
    lhs: complex
    rhs: complex
    residual: float
    status: str = "ok"  # ok | skipped | info
    note: str = ""


@dataclass
class IdentityReport:
    identity_name: str
    samples: list[SampleRecord]
    max_residual: float
    tolerance: float
    passed: bool
    cfg_used: TruncationConfig
    seed: int

    def to_dict(self) -> dict:
        return {
            "identity_name": self.identity_name,
            "tolerance": self.tolerance,
            "max_residual": self.max_residual,
            "passed": self.passed,
            "seed": self.seed,
            "cfg": self.cfg_used.asdict(),
            "samples": [
                {
                    "input": s.input,
                    "lhs": {"re": s.lhs.real, "im": s.lhs.imag},
                    "rhs": {"re": s.rhs.real, "im": s.rhs.imag},
                    "residual": s.residual,
                    "status": s.status,
                    "note": s.note,
                }
                for s in self.samples
            ],
        }

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"{verdict}  {self.identity_name:<28s} samples={len(self.samples):<4d} "
                f"max_residual={self.max_residual:.3e}  tol={self.tolerance:.1e}")


def residual(lhs: complex, rhs: complex) -> float:
    """|lhs - rhs| / max(1, |lhs|, |rhs|); behaves at near-zero values."""
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))


def _c(z: complex) -> str:
    z = complex(z)
    return f"{z.real:.6g}{z.imag:+.6g}i"


class _Sampler:
    """Deterministic per-check sampler; seeds derive from (plan.seed, name). Points
    come from two fundamental domains, one either side of the imaginary axis."""

    def __init__(self, plan: SamplePlan, name: str):
        self.rng = random.Random(f"{plan.seed}:{name}")
        # the draws below inline Random.uniform(a, b), a + (b - a) * random()
        self.uniform, self.random = self.rng.uniform, self.rng.random

    def tau(self, im_max: float | None = None) -> complex:
        (a, b), c, d = _TAU_RE, _TAU_IM[0], im_max or _TAU_IM[1]
        return complex(a + (b - a) * self.random(), c + (d - c) * self.random())

    def phase(self, lo: float = 0.06, hi: float = 0.94) -> float:
        return lo + (hi - lo) * self.random()

    def twist(self, mode: int = 0) -> TwistPair:
        """Nontrivial twist; mode 0 = both components, 1 = phi only, 2 = theta only."""
        if mode == 1:
            return TwistPair(0.0, self.phase())
        if mode == 2:
            return TwistPair(self.phase(), 0.0)
        return TwistPair(self.phase(), self.phase())

    def points(self, tau: complex, n: int, min_sep: float = _MIN_SEPARATION) -> list[complex]:
        """n points with |Re z| < 2 pi Im tau and |Im z| < pi, each point and each
        pairwise difference at least min_sep from the period lattice."""
        h, rand = _TWO_PI * tau.imag, self.random
        for _ in range(100):
            pts = [complex(-h + (h - -h) * rand(), -math.pi + (math.pi - -math.pi) * rand())
                   for _ in range(n)]
            diffs = [a - b for i, a in enumerate(pts) for b in pts[i + 1:]]
            if all(lattice_distance(d, tau) >= min_sep for d in pts + diffs):
                return pts
        raise RuntimeError("point sampling failed to clear the minimum separation")

    def xy_clusters(self, tau: complex, n_x: int, n_y: int) -> tuple[list[complex], list[complex]]:
        """psi+ points with Re x in (-2.2, -0.8), psi- points with Re y in (-0.5, -0.01),
        all with |Im| < 0.9, the points of each group at least _MIN_SEPARATION apart.
        Re(x - y) in (-2.19, -0.3) keeps every x - y off the lattice at every tau of the
        sampled box. The checks pass with points(tau, n_x + n_y) too, at every suite
        seed below 400, and since the correlator checks evaluate each side in one batched
        call, its differences, spread over both sides of the imaginary axis and past the
        quasi-periods, cost a whole-suite pass 0-3% more (in process, on a shared 2-CPU
        Linux host); the boxes stay so that the suite's reports keep their bits."""
        for _ in range(100):
            xs = [complex(self.uniform(-2.2, -0.8), self.uniform(-0.9, 0.9))
                  for _ in range(n_x)]
            ys = [complex(self.uniform(-0.5, -0.01), self.uniform(-0.9, 0.9))
                  for _ in range(n_y)]
            if all(abs(a - b) >= _MIN_SEPARATION
                   for group in (xs, ys) for i, a in enumerate(group) for b in group[i + 1:]):
                return xs, ys
        raise RuntimeError("cluster sampling failed to clear the minimum separation")


def _finish(name: str, records: list[SampleRecord], tol: float, cfg: TruncationConfig,
            seed: int) -> IdentityReport:
    live = [r.residual for r in records if r.status == "ok"]
    max_res = max(live) if live else math.inf
    return IdentityReport(
        identity_name=name,
        samples=records,
        max_residual=max_res,
        tolerance=tol,
        passed=bool(live) and max_res <= tol,
        cfg_used=cfg,
        seed=seed,
    )


def _each(batch, *args) -> list:
    """Each point's or sample's value of the batch form call batch(*args), or its error
    where the batch refuses it (errors._outcome). A check reads them in its record loop
    through _got, so a refused sample raises its error where its one-sample call did."""
    values, statuses = _outcome(batch, *args)
    if isinstance(values, np.ndarray):
        values = values.reshape(-1).tolist()
    if statuses is None:
        return list(values)
    return [v if r is None else r for v, r in zip(values, statuses.reshape(-1).tolist())]


def _got(result):
    """A value of _each, or its error raised."""
    if isinstance(result, TwistellError):
        raise result
    return result


# ---------------------------------------------------------------------------
# twisted-function checks
# ---------------------------------------------------------------------------

def check_doublesum(k: int, plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                    tolerance: float = 1e-9) -> IdentityReport:
    """Theta-quotient kernel versus collapsed double-sum oracle for P_k[tw]."""
    name = f"doublesum_k{k}"
    s = _Sampler(plan, name)
    records = []
    # draw every sample first, then the kernel at all of them in one call, and the oracle
    # at all of them and, last, at the trivial twist, where it has no route, in another
    draws = []
    for i in range(plan.count):
        tw = s.twist(mode=i % 3)
        tau = s.tau()
        draws.append((tw, s.points(tau, 1)[0], tau))
    kernel = twisted_pk_batch((k,), *zip(*draws), cfg)[0].tolist()
    *oracle, trivial = _each(twisted_pk_oracle_batch, k, *zip(
        *draws, (TwistPair.trivial(), complex(-1.0, 0.3), complex(0.1, 1.1))), cfg)
    for (tw, z, tau), lhs, rhs in zip(draws, kernel, oracle):
        rhs = _got(rhs)
        records.append(SampleRecord(f"tw={tw} z={_c(z)} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
    if not isinstance(trivial, TwistellError):
        records.append(SampleRecord("tw=trivial", 0j, 0j, math.inf, "ok",
                                    "trivial twist unexpectedly accepted"))
    elif isinstance(trivial, RouteUnavailable):
        records.append(SampleRecord("tw=trivial", 0j, 0j, 0.0, "skipped",
                                    "RouteUnavailable: no lattice route at trivial twist"))
    else:
        raise trivial
    return _finish(name, records, tolerance, cfg, plan.seed)


def check_eisenstein_lattice(n: int, plan: SamplePlan,
                             cfg: TruncationConfig = DEFAULT_CONFIG,
                             tolerance: float = 1e-9) -> IdentityReport:
    """q-expansion versus collapsed lattice sum for E_n[tw], plus trivial limits."""
    name = f"eisenstein_lattice_n{n}"
    s = _Sampler(plan, name)
    records = []
    # draw every sample first, then the oracle at all of them in one call
    draws = [(s.twist(mode=i % 3), s.tau()) for i in range(plan.count)]
    oracle = _each(twisted_eisenstein_oracle_batch, n, *zip(*draws), cfg)
    for (tw, tau), rhs in zip(draws, oracle):
        lhs = twisted_eisenstein(n, tw, tau, cfg)
        rhs = _got(rhs)
        records.append(SampleRecord(f"tw={tw} tau={_c(tau)}", lhs, rhs, residual(lhs, rhs)))
    tau = s.tau()
    triv = TwistPair.trivial()
    lhs = twisted_eisenstein(n, triv, tau, cfg)
    rhs = eisenstein(n, tau, cfg) if n % 2 == 0 else (0.5 if n == 1 else 0.0) + 0j
    records.append(SampleRecord(f"tw=trivial tau={_c(tau)}", lhs, rhs, residual(lhs, rhs),
                                note="classical limit"))
    return _finish(name, records, tolerance, cfg, plan.seed)


def laurent_coefficients(tw: TwistPair, tau: complex, cfg: TruncationConfig) -> list[complex]:
    """The first five Taylor coefficients of P_1[tw](z) - 1/z by Fourier inversion.

    Samples 64 points on the circle |z| = 0.25 at half-offset angles, all of
    them in one kernel call, and sums each coefficient's Fourier series in point order.
    """
    zs = _LAURENT_ZS
    vals = [v - 1.0 / z for v, z in zip(twisted_pk_batch((1,), tw, zs, tau, cfg)[0].tolist(), zs)]
    return [sum(map(operator.mul, vals, phases)) / len(zs) / _LAURENT_RADIUS**k
            for k, phases in enumerate(_LAURENT_PHASES)]


def check_laurent(plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                  tolerance: float = 1e-6) -> IdentityReport:
    """Extracted Taylor coefficients of P_1[tw] - 1/z against -E_{1..5}[tw]."""
    name = "laurent"
    s = _Sampler(plan, name)
    records = []
    for i in range(plan.count):
        tw = s.twist(mode=i % 3)
        tau = s.tau(im_max=1.6)
        coeffs = laurent_coefficients(tw, tau, cfg)
        for j, c in enumerate(coeffs):
            rhs = -twisted_eisenstein(j + 1, tw, tau, cfg)
            records.append(SampleRecord(f"tw={tw} tau={_c(tau)} coeff z^{j}",
                                        c, rhs, residual(c, rhs)))
        if i == 0:
            # parity reflection ties the coefficients of tw and tw^-1
            inv_coeffs = laurent_coefficients(tw.inverse(), tau, cfg)
            for j, (c, ci) in enumerate(zip(coeffs, inv_coeffs)):
                rhs = (-1.0) ** (j + 1) * c
                records.append(SampleRecord(
                    f"reflection tw={tw} coeff z^{j}", ci, rhs, residual(ci, rhs)))
    # trivial twist carries the constant +1/2 instead of -E_1[1;1] = -1/2
    tau = s.tau(im_max=1.6)
    coeffs = laurent_coefficients(TwistPair.trivial(), tau, cfg)
    records.append(SampleRecord(f"tw=trivial tau={_c(tau)} coeff z^0", coeffs[0], 0.5 + 0j,
                                residual(coeffs[0], 0.5 + 0j), note="constant term +1/2"))
    for j in range(1, 5):
        rhs = -eisenstein(j + 1, tau, cfg)
        records.append(SampleRecord(f"tw=trivial tau={_c(tau)} coeff z^{j}",
                                    coeffs[j], rhs, residual(coeffs[j], rhs)))
    return _finish(name, records, tolerance, cfg, plan.seed)


def check_periodicity(plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                      tolerance: float = 1e-9) -> IdentityReport:
    """Quasi-periodicity of P_k[tw], untwisted P_k, theta, and the prime form."""
    name = "periodicity"
    s = _Sampler(plan, name)
    # draw every sample first, then evaluate each function at all of them in one kernel
    # call (P_k[tw] and P_k one per order k) and the oracle in one more, each point as
    # (arguments..., tau)
    draws, pk_at, wp_at, th_at, kf_at, oracle_at = [], {}, {}, [], [], []
    for i in range(plan.count):
        tau = s.tau()
        tw = s.twist(mode=0 if i % 2 else 1)  # keep phi != 1 so the oracle applies
        z = s.points(tau, 1)[0]
        k = 1 + i % 3
        # P_1 and P_k[tw] at z + 2 pi i and z
        pk_at.setdefault(k, []).extend([(tw, z + 2j * math.pi, tau), (tw, z, tau)])
        oracle_at.append((tw, z + 2j * math.pi * tau, tau))
        # the untwisted family and the prime form at the same four points
        tau2 = complex(s.uniform(-0.15, 0.15), s.uniform(0.8, 0.95))
        w = complex(s.uniform(-0.5, 0.5), s.uniform(-0.5, 0.5))
        z2 = w - 1j * math.pi
        z3 = w - 1j * math.pi * tau2
        four = [(p, tau2) for p in (z2 + 2j * math.pi, z2, z3 + 2j * math.pi * tau2, z3)]
        wp_at.setdefault(k, []).extend(four)
        kf_at.extend(four)
        # theta characteristics: entire, so any argument works
        a, b = s.uniform(-1.5, 1.5), s.uniform(-1.5, 1.5)
        zt = complex(s.uniform(-2.0, 2.0), s.uniform(-2.0, 2.0))
        th_at.extend((a, b, p, tau) for p in (zt + 2j * math.pi, zt, zt + 2j * math.pi * tau))
        draws.append((k, tau, tw, z, tau2, z2, z3, a, b, zt))
    pk = {k: iter(twisted_pk_batch((1, k), *zip(*at), cfg).T.tolist())
          for k, at in pk_at.items()}
    wp = {k: iter(_weierstrass_pks(k, *zip(*at), cfg).tolist()) for k, at in wp_at.items()}
    th = iter(_theta_chars(*zip(*th_at), cfg).tolist())
    kf = iter(_prime_forms(*zip(*kf_at), cfg).tolist())
    oracle = iter(_each(twisted_pk_oracle_batch, 1, *zip(*oracle_at), cfg))
    records = []
    for k, tau, tw, z, tau2, z2, z3, a, b, zt in draws:
        # [P_1, P_k] at z + 2 pi i and at z
        (_, lhs), (p1, pz) = next(pk[k]), next(pk[k])
        rhs = tw.phi * pz
        records.append(SampleRecord(f"P_{k}[tw] z+2pi*i, tw={tw} z={_c(z)} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
        lhs = _got(next(oracle))
        rhs = tw.theta * p1
        records.append(SampleRecord(f"P_1[tw] z+2pi*i*tau, tw={tw} z={_c(z)} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))

        pk2, pk3 = [next(wp[k]) for _ in range(2)], [next(wp[k]) for _ in range(2)]
        records.append(SampleRecord(f"P_{k} z+2pi*i, z={_c(z2)} tau={_c(tau2)}",
                                    pk2[0], pk2[1], residual(pk2[0], pk2[1])))
        rhs = pk3[1] - (1.0 if k == 1 else 0.0)
        records.append(SampleRecord(f"P_{k} z+2pi*i*tau, z={_c(z3)} tau={_c(tau2)}",
                                    pk3[0], rhs, residual(pk3[0], rhs)))

        shift, here, shift_tau = next(th), next(th), next(th)
        rhs = cmath.exp(2j * math.pi * a) * here
        records.append(SampleRecord(f"theta z+2pi*i, a={a:.4g} b={b:.4g} tau={_c(tau)}",
                                    shift, rhs, residual(shift, rhs)))
        rhs = (cmath.exp(-2j * math.pi * b) * cmath.exp(-zt) * cmath.exp(-1j * math.pi * tau)
               * here)
        records.append(SampleRecord(f"theta z+2pi*i*tau, a={a:.4g} b={b:.4g} tau={_c(tau)}",
                                    shift_tau, rhs, residual(shift_tau, rhs)))

        kf2, kf3 = [next(kf) for _ in range(2)], [next(kf) for _ in range(2)]
        records.append(SampleRecord(f"K z+2pi*i, z={_c(z2)} tau={_c(tau2)}",
                                    kf2[0], -kf2[1], residual(kf2[0], -kf2[1])))
        rhs = -cmath.exp(-z3) * cmath.exp(-1j * math.pi * tau2) * kf3[1]
        records.append(SampleRecord(f"K z+2pi*i*tau, z={_c(z3)} tau={_c(tau2)}",
                                    kf3[0], rhs, residual(kf3[0], rhs)))
    return _finish(name, records, tolerance, cfg, plan.seed)


_GAMMAS = {
    "S": GroupElement.S(),
    "T": GroupElement.T(),
    "TS": GroupElement.T() @ GroupElement.S(),
}


def check_modular_twisted(plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                          tolerance: float = 1e-8) -> IdentityReport:
    """Weight-k covariance of P_k[tw] and E_k[tw] under S, T, TS; E_2 anomaly law."""
    name = "modular_twisted"
    s = _Sampler(plan, name)
    records = []
    gamma_names = list(_GAMMAS)
    # draw every sample first; P_1..P_3 at (gtw, gamma z, gamma tau) and at (tw, z, tau)
    # of each in one kernel call
    draws, points = [], []
    for i in range(plan.count):
        glabel = gamma_names[i % 3]
        gamma = _GAMMAS[glabel]
        tau = s.tau()
        tw = s.twist()
        gtw = gamma_act_twist(gamma, tw)
        z = s.points(tau, 1)[0]
        gz, gtau = gamma_act_point(gamma, z, tau)
        points += [(gtw, gz, gtau), (tw, z, tau)]
        draws.append((glabel, tau, tw, gtw, z, gtau))
    pk = iter(twisted_pk_batch((1, 2, 3), *zip(*points), cfg).T.tolist() if points else ())
    for glabel, tau, tw, gtw, z, gtau in draws:
        gamma = _GAMMAS[glabel]
        aut = gamma.automorphy(tau)
        gpk, zpk = next(pk), next(pk)
        for k in (1, 2, 3):
            lhs = gpk[k - 1]
            rhs = aut**k * zpk[k - 1]
            records.append(SampleRecord(
                f"P_{k} under {glabel}, tw={tw} z={_c(z)} tau={_c(tau)}",
                lhs, rhs, residual(lhs, rhs)))
            lhs = twisted_eisenstein(k, gtw, gtau, cfg)
            rhs = aut**k * twisted_eisenstein(k, tw, tau, cfg)
            records.append(SampleRecord(
                f"E_{k} under {glabel}, tw={tw} tau={_c(tau)}",
                lhs, rhs, residual(lhs, rhs)))
        # quasi-modular anomaly of the classical E_2
        lhs = eisenstein(2, gtau, cfg)
        rhs = (aut**2 * eisenstein(2, tau, cfg)
               - gamma.c * aut / (2j * math.pi))
        records.append(SampleRecord(f"E_2 anomaly under {glabel}, tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
    # group sanity: (ST)^3 acts as the identity on (z, tau, tw)
    st = _GAMMAS["S"] @ _GAMMAS["T"]
    cubed = st @ st @ st
    tau = s.tau()
    tw = s.twist()
    z = s.points(tau, 1)[0]
    gz, gtau = gamma_act_point(cubed, z, tau)
    gtw = gamma_act_twist(cubed, tw)
    dev = abs(gz - z) + abs(gtau - tau) + (0.0 if gtw.isclose(tw) else 1.0)
    records.append(SampleRecord("(ST)^3 = identity action", complex(dev), 0j, dev,
                                note="combined deviation of (z, tau, tw)"))
    return _finish(name, records, tolerance, cfg, plan.seed)


# ---------------------------------------------------------------------------
# partition-function and correlator checks
# ---------------------------------------------------------------------------

def check_jacobi_triple_product(plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                                tolerance: float = 1e-10) -> IdentityReport:
    """Infinite-product partition function against its theta-quotient form."""
    name = "jacobi_triple_product"
    s = _Sampler(plan, name)
    records = []
    # draw every sample first, then the theta quotients of all of them in one call
    draws = []
    for _ in range(plan.count):
        p = OrbifoldParams(s.uniform(0.0, 1.0), s.uniform(0.0, 1.0))
        draws.append((p, s.tau()))
    thetas = _bosonized([(_partition_form, p, tau) for p, tau in draws], cfg)
    for (p, tau), rhs in zip(draws, thetas):
        lhs = rank2_partition(p, tau, cfg)
        records.append(SampleRecord(f"p={p} tau={_c(tau)}", lhs, rhs, residual(lhs, rhs)))
    tau = s.tau()
    lhs = rank2_partition(OrbifoldParams(0.0, 0.0), tau, cfg)
    records.append(SampleRecord(f"p=(0,0) tau={_c(tau)}", lhs, 0j, residual(lhs, 0j),
                                note="trivial twist vanishes"))
    # beta -> beta + 1 changes Z by an alpha-dependent constant; measured, not asserted
    p = OrbifoldParams(s.uniform(0.1, 0.9), s.uniform(0.1, 0.9))
    z0 = rank2_partition(p, tau, cfg)
    z1 = rank2_partition(OrbifoldParams(p.alpha, p.beta + 1.0), tau, cfg)
    ratio = z1 / z0
    records.append(SampleRecord(
        f"beta-shift p={p} tau={_c(tau)}", z1, z0, abs(abs(ratio) - 1.0), "info",
        f"Z(beta+1)/Z(beta) = {_c(ratio)} (expected constant -exp(2*pi*i*alpha) "
        f"= {_c(-cmath.exp(2j * math.pi * p.alpha))})"))
    return _finish(name, records, tolerance, cfg, plan.seed)


def check_fay_trisecant(n: int, plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                        tolerance: float | None = None) -> IdentityReport:
    """Determinant generating function against its bosonized theta/prime-form."""
    name = f"fay_trisecant_n{n}"
    tol = tolerance if tolerance is not None else (1e-8 if n <= 2 else 1e-7)
    s = _Sampler(plan, name)
    # draw every sample first, then each side at all of them in one call
    draws = []
    for i in range(plan.count):
        p = OrbifoldParams(s.phase(0.08, 0.92), s.phase(0.08, 0.92))
        tau = s.tau()
        m = 1 if (n == 2 and i == 0) else n  # one n=1 reduction sample
        draws.append((p, *s.xy_clusters(tau, m, m), tau))
    records = [SampleRecord(f"n={len(xs)} p={p} tau={_c(tau)}", lhs, rhs, residual(lhs, rhs))
               for (p, xs, _, tau), lhs, rhs in zip(
                   draws, _rank2_generatings(draws, cfg),
                   _bosonized([(_boson_form, *draw) for draw in draws], cfg))]
    return _finish(name, records, tol, cfg, plan.seed)


def check_k_secant(n: int, plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                   tolerance: float = 1e-8) -> IdentityReport:
    """Trivial-twist bordered determinant against the prime-form ratio."""
    name = f"k_secant_n{n}"
    s = _Sampler(plan, name)
    triv = OrbifoldParams(0.0, 0.0)
    # draw every sample first, then each side at all of them in one call; the
    # determinants of the n = 1 and translation samples join the first
    draws = []
    for _ in range(plan.count):
        tau = s.tau()
        draws.append((triv, *s.xy_clusters(tau, n, n), tau))
    tau = s.tau()
    exact = (triv, *s.xy_clusters(tau, 1, 1), tau)
    # translation invariance: only differences enter the determinant side
    xs, ys = s.xy_clusters(tau, n, n)
    c = complex(0.0, s.uniform(-0.5, 0.5))
    moved = (triv, [x + c for x in xs], [y + c for y in ys], tau)
    *lhs_all, one, shifted, unshifted = _rank2_generatings(
        draws + [exact, moved, (triv, xs, ys, tau)], cfg)
    rhs_all = _bosonized([(_boson_form, *draw) for draw in draws], cfg)
    records = [SampleRecord(f"n={n} tau={_c(t)}", lhs, rhs, residual(lhs, rhs))
               for (*_, t), lhs, rhs in zip(draws, lhs_all, rhs_all)]
    rhs = -dedekind_eta(tau, cfg) ** 2
    records.append(SampleRecord(f"n=1 exact tau={_c(tau)}", one, rhs, residual(one, rhs),
                                note="det Q = -1 exactly at n = 1"))
    records.append(SampleRecord(f"translation c={_c(c)} tau={_c(tau)}",
                                shifted, unshifted, residual(shifted, unshifted)))
    return _finish(name, records, tolerance, cfg, plan.seed)


def check_generalized_trisecant(ms, ns, plan: SamplePlan,
                                cfg: TruncationConfig = DEFAULT_CONFIG,
                                tolerance: float = 1e-7) -> IdentityReport:
    """Block determinant of expansion coefficients against the lattice correlator.

    det of the block matrix with D[tw](i, j, x_a - y_b) blocks of shape
    m_a x n_b equals theta(sum m_i x_i - sum n_j y_j)/theta(0) times the
    prime-form power ratio, up to the fermionic ordering sign
    (-1)^{N(N-1)/2 + sum_a C(m_a,2) + sum_b C(n_b,2)} with N = sum m_a
    (grouped-to-alternating shuffle plus the descending mode order inside
    each charge-N vector). The right side is evaluated as
    sign * lattice_npoint / partition.
    """
    ms = tuple(int(m) for m in ms)
    ns = tuple(int(n) for n in ns)
    name = f"generalized_trisecant_{''.join(map(str, ms))}_{''.join(map(str, ns))}"
    s = _Sampler(plan, name)
    # draw every sample first, then each side at all of them in one call: the matrices
    # in one, the lattice correlators and the partition functions in another
    draws = []
    for i in range(plan.count):
        p = OrbifoldParams(s.phase(0.08, 0.92), s.phase(0.08, 0.92))
        tau = s.tau()
        use_ms, use_ns = ((1,), (1,)) if i == 0 else (ms, ns)  # n=1 reduction sample
        draws.append((p, use_ms, *s.xy_clusters(tau, len(use_ms), len(use_ns)), use_ns, tau))
    _, dets = _cd_determinants([(p.twist(), [range(1, m + 1) for m in use_ms], xs,
                                 [range(1, n + 1) for n in use_ns], ys, tau, None)
                                for p, use_ms, xs, ys, use_ns, tau in draws], cfg)
    lattice = iter(_bosonized([form for p, use_ms, xs, ys, use_ns, tau in draws
                               for form in ((_lattice_form, p, use_ms, xs, use_ns, ys, tau),
                                            (_partition_form, p, tau))], cfg))
    records = []
    for (p, use_ms, _, _, use_ns, tau), lhs in zip(draws, dets):
        big_n = sum(use_ms)
        exponent = (big_n * (big_n - 1) // 2
                    + sum(m * (m - 1) // 2 for m in use_ms)
                    + sum(n * (n - 1) // 2 for n in use_ns))
        sign = -1.0 if exponent % 2 else 1.0
        rhs = sign * next(lattice) / next(lattice)
        records.append(SampleRecord(f"m={use_ms} n={use_ns} p={p} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
    return _finish(name, records, tolerance, cfg, plan.seed)


def check_rank1_square(plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                       tolerance: float = 1e-9) -> IdentityReport:
    """Rank-two determinant at half-integer twists against squared rank-one Pfaffians.

    At (theta, phi) = (-1, -1) the determinant of the 0-diagonal P_1 matrix
    is the square of the parity-inserted rank-one Pfaffian; at (-1, 1) of
    the parity-twisted-module Pfaffian. Odd sizes give det = 0 and the
    diagonal Eisenstein entries vanish for theta, phi in {+-1}.
    """
    name = "rank1_square"
    s = _Sampler(plan, name)
    records = []
    pairings = [
        ("(theta,phi)=(-1,-1)", TwistPair(0.5, 0.5)),
        ("(theta,phi)=(-1,+1)", TwistPair(0.5, 0.0)),
    ]
    # draw every sample first, then every P_1 matrix in one call: per sample the matrix
    # with the diagonal -E_1 and the one with 0, and with -E_1 at n = 3 for the first four
    draws = []
    for i in range(plan.count):
        label, tw = pairings[i % 2]
        tau = s.tau()
        zs = s.points(tau, 2, min_sep=0.3)
        draws.append((label, tw, tau, zs, s.points(tau, 3, min_sep=0.3) if i < 4 else None))
    # the cross-check against the named rank-one correlators themselves, in one more call
    tau = s.tau()
    zs = s.points(tau, 2, min_sep=0.3)
    e1s = [twisted_eisenstein(1, tw, t, cfg) for _, tw, t, _, _ in draws]
    samples = []
    for (_, tw, t, z2, z3), e1 in zip(draws, e1s):
        samples += [_p1_sample(tw, z2, t, -e1), _p1_sample(tw, z2, t)]
        if z3 is not None:
            samples.append(_p1_sample(tw, z3, t, -e1))
    samples += [_p1_sample(TwistPair(0.5, 0.5), zs, tau), _p1_sample(TwistPair(0.5, 0.0), zs, tau)]
    built = iter(zip(*_cd_determinants(samples, cfg)))     # (matrix, determinant)
    named = _rank1_pfaffians([_rank1_generating_sample(GSelector.SIGMA, zs, tau),
                              _sigma_twisted_sample(zs, tau)], cfg)
    records = []
    for (label, _, t, _, z3), e1 in zip(draws, e1s):
        _, lhs = next(built)
        pf = pfaffian(next(built)[0], cfg)
        rhs = pf**2
        note = ""
        if residual(lhs, rhs) > tolerance and abs(rhs) > 0:
            note = f"offset ratio det/Pf^2 = {_c(lhs / rhs)}"
        records.append(SampleRecord(f"{label} n=2 tau={_c(t)}", lhs, rhs,
                                    residual(lhs, rhs), note=note))
        if z3 is not None:
            _, det3 = next(built)
            records.append(SampleRecord(f"{label} n=3 det tau={_c(t)}", det3, 0j,
                                        residual(det3, 0j), note="odd size vanishes"))
            records.append(SampleRecord(f"{label} E_1 diagonal tau={_c(t)}", e1, 0j,
                                        residual(e1, 0j), note="diagonal term vanishes"))
    _, det_m = next(built)
    g = named[0] / rank1_partition(GSelector.SIGMA, tau, cfg)
    records.append(SampleRecord(f"vs rank-one sigma-trace generator tau={_c(tau)}",
                                det_m, g**2, residual(det_m, g**2)))
    _, det_m = next(built)
    g = named[1] / sigma_module_partition(tau, cfg)
    records.append(SampleRecord(f"vs parity-twisted-module generator tau={_c(tau)}",
                                det_m, g**2, residual(det_m, g**2)))
    return _finish(name, records, tolerance, cfg, plan.seed)


def check_modular_correlators(plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                              tolerance: float = 1e-8) -> IdentityReport:
    """Covariance of partition and generating correlators under S and T."""
    name = "modular_correlators"
    s = _Sampler(plan, name)
    # draw every sample first, then evaluate P_1[gamma tw](gamma z, gamma tau) at all of
    # them in one call, the generating correlators in one, and every P_1 entry of the
    # trivially twisted det Q, at gamma z and gamma tau and at z and tau, in one
    draws, pk_at, pairs, q_at = [], [], [], []
    for i in range(plan.count):
        glabel = "S" if i % 2 == 0 else "T"
        gamma = _GAMMAS[glabel]
        p = OrbifoldParams(s.phase(0.08, 0.92), s.phase(0.08, 0.92))
        tau = s.tau()
        gtau = gamma_act_point(gamma, 0.0, tau)[1]
        aut = gamma.automorphy(tau)
        xs, ys = s.xy_clusters(tau, 1, 1)
        gtw = gamma_act_twist(gamma, p.twist())
        pk_at.append((gtw, (xs[0] - ys[0]) / aut, gtau))
        pairs.append((p, xs, ys, tau))
        if i % 4 == 0:
            xs, ys = s.xy_clusters(tau, 2, 2)
            gxs = [gamma_act_point(gamma, x, tau)[0] for x in xs]
            gys = [gamma_act_point(gamma, y, tau)[0] for y in ys]
            q_at += [(x - y, gtau) for x in gxs for y in gys] + [(x - y, tau) for x in xs
                                                                   for y in ys]
        draws.append((glabel, gamma, p, tau, gtau, aut, gtw, i % 4 == 0))
    pk = _each(twisted_pk_batch, (1,), *zip(*pk_at), cfg)
    generating = _each(_rank2_generatings, pairs, cfg)
    q_entries = _each(_weierstrass_pks, 1, *zip(*q_at), cfg)
    # the bordered matrices of every four P_1 entries, a refused entry's 0 never read
    q = np.ones((len(q_at) // 4, 3, 3), dtype=complex)
    q[:, 2, 2] = 0.0
    q[:, :2, :2] = np.reshape([0j if isinstance(e, TwistellError) else e for e in q_entries],
                              (-1, 2, 2))
    q_dets, q_entries = iter(np.linalg.det(q).tolist()), iter(q_entries)

    def _detq():
        # the bordered determinant of the next four P_1 entries, or the first refused
        # entry's error
        for _ in range(4):
            _got(next(q_entries))
        return next(q_dets)

    records = []
    for (glabel, gamma, p, tau, gtau, aut, gtw, quad), p1, g2 in zip(draws, pk, generating):
        eps, gp = modular_multiplier(gamma, p)
        lhs = rank2_partition(gp, gtau, cfg)
        rhs = eps * rank2_partition(p, tau, cfg)
        records.append(SampleRecord(f"Z under {glabel}, p={p} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
        # one-pair generating correlator: weight 1 with the same multiplier
        lhs = _got(p1) * rank2_partition(gp, gtau, cfg)
        rhs = aut * eps * _got(g2)
        records.append(SampleRecord(f"G_2 under {glabel}, p={p} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
        # integer-weight one-point insertion transforms with weight 1
        lhs = (-twisted_eisenstein(1, gtw, gtau, cfg)) * rank2_partition(gp, gtau, cfg)
        rhs = aut * eps * (-twisted_eisenstein(1, p.twist(), tau, cfg)) \
            * rank2_partition(p, tau, cfg)
        records.append(SampleRecord(f"weight-1 insertion under {glabel}, p={p}",
                                    lhs, rhs, residual(lhs, rhs)))
        # trivially twisted bordered determinant: weight n - 1, no multiplier
        if quad:
            lhs = _detq()
            rhs = aut * _detq()
            records.append(SampleRecord(f"det Q under {glabel}, tau={_c(tau)}",
                                        lhs, rhs, residual(lhs, rhs)))
    # multiplier words: (ST)^3 = 1 and S^2 = -I against direct covariance
    p = OrbifoldParams(s.phase(), s.phase())
    tau = s.tau()
    st3 = (_GAMMAS["S"] @ _GAMMAS["T"])
    st3 = st3 @ st3 @ st3
    eps, gp = modular_multiplier(st3, p)
    records.append(SampleRecord(f"(ST)^3 multiplier p={p}", eps, 1.0 + 0j,
                                residual(eps, 1.0 + 0j),
                                note=f"final params {gp}"))
    s2 = _GAMMAS["S"] @ _GAMMAS["S"]
    eps, gp = modular_multiplier(s2, p)
    lhs = rank2_partition(gp, tau, cfg)
    rhs = eps * rank2_partition(p, tau, cfg)
    records.append(SampleRecord(f"S^2 covariance p={p} tau={_c(tau)}",
                                lhs, rhs, residual(lhs, rhs)))
    return _finish(name, records, tolerance, cfg, plan.seed)


def check_correlator_structure(plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                               tolerance: float = 1e-10) -> IdentityReport:
    """Pfaffian structure: Pf^2 = det, antisymmetry, parity vanishing, cofactor recursion."""
    name = "correlator_structure"
    s = _Sampler(plan, name)
    records = []
    for i in range(plan.count):
        dim = (6, 8, 10, 12)[i % 4]
        raw = np.array([[complex(s.uniform(-1, 1), s.uniform(-1, 1))
                         for _ in range(dim)] for _ in range(dim)])
        skew = raw - raw.T
        pf = pfaffian(skew, cfg)
        det = determinant(skew)
        records.append(SampleRecord(f"Pf^2=det dim={dim}", pf**2, det,
                                    abs(pf**2 - det) / max(1.0, abs(det))))
    # draw the points first, then the three rank-one generators in one call and the two
    # cofactor matrices in another
    tau = s.tau()
    g = GSelector.IDENTITY
    zs = s.points(tau, 4, min_sep=0.2)
    cofactor_zs = [s.points(tau, n, min_sep=0.2) for n in (4, 6)]
    base, swapped, odd = _rank1_pfaffians([_rank1_generating_sample(g, z, tau) for z in (
        zs, [zs[1], zs[0], zs[2], zs[3]], zs[:3])], cfg)
    records.append(SampleRecord("antisymmetry swap z1<->z2 (n=4)", swapped, -base,
                                residual(swapped, -base)))
    records.append(SampleRecord("odd n vanishing (n=3)", odd, 0j, abs(odd)))
    # cofactor expansion along the first row reproduces the n -> n-2 recursion
    mats = _cd_matrices([_p1_sample(g.twist(), z, tau) for z in cofactor_zs], cfg)
    for zs, mat in zip(cofactor_zs, mats):
        n = len(zs)
        pf = pfaffian_pair_sum(mat)
        acc = 0j
        for r in range(1, n):
            keep = [t for t in range(n) if t not in (0, r)]
            minor = mat[np.ix_(keep, keep)]
            acc += (-1.0) ** (r + 1) * mat[0, r] * pfaffian_pair_sum(minor)
        records.append(SampleRecord(f"cofactor recursion n={n}", pf, acc,
                                    abs(pf - acc) / max(1.0, abs(pf))))
    return _finish(name, records, tolerance, cfg, plan.seed)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# name -> (constructor, acceptance-pinned sample count)
SUITE = {
    "doublesum_k1": (lambda plan, cfg: check_doublesum(1, plan, cfg), 50),
    "doublesum_k2": (lambda plan, cfg: check_doublesum(2, plan, cfg), 20),
    "eisenstein_lattice_n1": (lambda plan, cfg: check_eisenstein_lattice(1, plan, cfg), 50),
    "eisenstein_lattice_n2": (lambda plan, cfg: check_eisenstein_lattice(2, plan, cfg), 50),
    "eisenstein_lattice_n3": (lambda plan, cfg: check_eisenstein_lattice(3, plan, cfg), 50),
    "laurent": (check_laurent, 10),
    "periodicity": (check_periodicity, 15),
    "modular_twisted": (check_modular_twisted, 12),
    "jacobi_triple_product": (check_jacobi_triple_product, 100),
    "fay_trisecant_n2": (lambda plan, cfg: check_fay_trisecant(2, plan, cfg), 25),
    "fay_trisecant_n3": (lambda plan, cfg: check_fay_trisecant(3, plan, cfg), 25),
    "k_secant_n2": (lambda plan, cfg: check_k_secant(2, plan, cfg), 25),
    "generalized_trisecant_2_2": (
        lambda plan, cfg: check_generalized_trisecant((2,), (2,), plan, cfg), 10),
    "generalized_trisecant_21_12": (
        lambda plan, cfg: check_generalized_trisecant((2, 1), (1, 2), plan, cfg), 10),
    "rank1_square": (check_rank1_square, 16),
    "modular_correlators": (check_modular_correlators, 12),
    "correlator_structure": (check_correlator_structure, 16),
}


def run_all(plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
            names: list[str] | None = None,
            use_pinned_counts: bool = True) -> list[IdentityReport]:
    """Run the selected checks (all by default) in fixed registry order."""
    selected = list(SUITE) if names is None else list(names)
    unknown = [n for n in selected if n not in SUITE]
    if unknown:
        raise KeyError(f"unknown suite name(s): {', '.join(unknown)}")
    reports = []
    for nm in SUITE:
        if nm not in selected:
            continue
        fn, pinned = SUITE[nm]
        local = replace(plan, count=pinned) if use_pinned_counts else plan
        reports.append(fn(local, cfg))
    return reports
