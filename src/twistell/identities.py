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
import random
from dataclasses import dataclass, replace

import numpy as np

from .classical import (
    dedekind_eta,
    eisenstein,
    prime_form,
    theta_char,
    weierstrass_pk_laurent,
)
from .errors import RouteUnavailable
from .fermion import (
    GSelector,
    OrbifoldParams,
    _cd_matrix,
    lattice_npoint,
    modular_multiplier,
    p1_difference_matrix,
    rank1_generating,
    rank1_partition,
    rank1_sigma_twisted_generating,
    rank2_generating,
    rank2_generating_boson,
    rank2_partition,
    rank2_partition_theta,
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
    twisted_eisenstein_oracle,
    twisted_pk,
    twisted_pk_continued,
    twisted_pk_oracle,
    twisted_pk_reflected,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SamplePlan:
    """Seeded sampling policy, encoding the convergence domains.

    tau is drawn from the box [tau_re_min, tau_re_max] x [tau_im_min,
    tau_im_max] i; |q_z| is drawn log-uniformly strictly inside (|q|, 1)
    with relative margin annulus_margin; points landing within
    min_separation of a lattice translate of 0 are rejected and redrawn.
    """

    seed: int = 7
    count: int = 25
    tau_re_min: float = -0.4
    tau_re_max: float = 0.4
    tau_im_min: float = 0.8
    tau_im_max: float = 2.0
    annulus_margin: float = 0.15
    min_separation: float = 0.05

    def __post_init__(self):
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 < self.annulus_margin < 1:
            raise ValueError("annulus_margin must lie in (0, 1)")
        if not self.tau_im_min > 0:
            raise ValueError("tau box must stay in the upper half-plane")


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
    """Deterministic per-check sampler; seeds derive from (plan.seed, name)."""

    def __init__(self, plan: SamplePlan, name: str):
        self.plan = plan
        self.rng = random.Random(f"{plan.seed}:{name}")

    def uniform(self, a: float, b: float) -> float:
        return self.rng.uniform(a, b)

    def tau(self, im_max: float | None = None) -> complex:
        p = self.plan
        return complex(self.uniform(p.tau_re_min, p.tau_re_max),
                       self.uniform(p.tau_im_min, im_max or p.tau_im_max))

    def phase(self, lo: float = 0.06, hi: float = 0.94) -> float:
        return self.uniform(lo, hi)

    def twist(self, mode: int = 0) -> TwistPair:
        """Nontrivial twist; mode 0 = both components, 1 = phi only, 2 = theta only."""
        if mode == 1:
            return TwistPair(0.0, self.phase())
        if mode == 2:
            return TwistPair(self.phase(), 0.0)
        return TwistPair(self.phase(), self.phase())

    def annulus_z(self, tau: complex, lo: float | None = None,
                  hi: float | None = None) -> complex:
        """z with |q_z| log-uniform strictly inside (|q|, 1), off the lattice."""
        h = _TWO_PI * tau.imag
        m = self.plan.annulus_margin
        lo = m if lo is None else lo
        hi = 1.0 - m if hi is None else hi
        for _ in range(100):
            z = complex(-self.uniform(lo, hi) * h, self.uniform(-math.pi, math.pi))
            if lattice_distance(z, tau) >= self.plan.min_separation:
                assert -h < z.real < 0.0
                return z
        raise RuntimeError("annulus sampling failed to clear min_separation")

    def spread_points(self, tau: complex, n: int, re_lo: float, re_hi: float,
                      min_sep: float | None = None) -> list[complex]:
        """n points with Re in (re_lo, re_hi), pairwise differences off the lattice
        and with nondegenerate real parts."""
        sep = min_sep if min_sep is not None else self.plan.min_separation
        for _ in range(100):
            pts = [complex(self.uniform(re_lo, re_hi), self.uniform(-1.0, 1.0))
                   for _ in range(n)]
            ok = True
            for i in range(n):
                for j in range(i + 1, n):
                    d = pts[i] - pts[j]
                    if abs(d.real) < 0.04 or lattice_distance(d, tau) < sep:
                        ok = False
            if ok:
                return pts
        raise RuntimeError("point-cluster sampling failed to clear min_separation")

    def xy_clusters(self, tau: complex, n_x: int, n_y: int,
                    min_sep: float | None = None) -> tuple[list[complex], list[complex]]:
        """psi+ points and psi- points with every x - y strictly inside the annulus
        and every pairwise difference inside the prime-form disk."""
        sep = min_sep if min_sep is not None else self.plan.min_separation
        for _ in range(100):
            xs = [complex(self.uniform(-2.2, -0.8), self.uniform(-0.9, 0.9))
                  for _ in range(n_x)]
            ys = [complex(self.uniform(-0.5, -0.01), self.uniform(-0.9, 0.9))
                  for _ in range(n_y)]
            ok = True
            for group in (xs, ys):
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        if abs(group[i] - group[j]) < sep:
                            ok = False
            for x in xs:
                for y in ys:
                    d = x - y
                    if lattice_distance(d, tau) < sep or not -_TWO_PI * tau.imag < d.real < 0:
                        ok = False
            if ok:
                return xs, ys
        raise RuntimeError("cluster sampling failed to clear min_separation")


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


# ---------------------------------------------------------------------------
# twisted-function checks
# ---------------------------------------------------------------------------

def check_doublesum(k: int, plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                    tolerance: float = 1e-9) -> IdentityReport:
    """q-series versus collapsed double-sum oracle for P_k[tw]."""
    name = f"doublesum_k{k}"
    s = _Sampler(plan, name)
    records = []
    for i in range(plan.count):
        tw = s.twist(mode=i % 3)
        tau = s.tau()
        z = s.annulus_z(tau)
        lhs = twisted_pk(k, tw, z, tau, cfg)
        rhs = twisted_pk_oracle(k, tw, z, tau, cfg)
        records.append(SampleRecord(f"tw={tw} z={_c(z)} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
    try:
        twisted_pk_oracle(k, TwistPair.trivial(), complex(-1.0, 0.3), complex(0.1, 1.1), cfg)
        records.append(SampleRecord("tw=trivial", 0j, 0j, math.inf, "ok",
                                    "trivial twist unexpectedly accepted"))
    except RouteUnavailable:
        records.append(SampleRecord("tw=trivial", 0j, 0j, 0.0, "skipped",
                                    "RouteUnavailable: no lattice route at trivial twist"))
    return _finish(name, records, tolerance, cfg, plan.seed)


def check_eisenstein_lattice(n: int, plan: SamplePlan,
                             cfg: TruncationConfig = DEFAULT_CONFIG,
                             tolerance: float = 1e-9) -> IdentityReport:
    """q-expansion versus collapsed lattice sum for E_n[tw], plus trivial limits."""
    name = f"eisenstein_lattice_n{n}"
    s = _Sampler(plan, name)
    records = []
    for i in range(plan.count):
        tw = s.twist(mode=i % 3)
        tau = s.tau()
        lhs = twisted_eisenstein(n, tw, tau, cfg)
        rhs = twisted_eisenstein_oracle(n, tw, tau, cfg)
        records.append(SampleRecord(f"tw={tw} tau={_c(tau)}", lhs, rhs, residual(lhs, rhs)))
    tau = s.tau()
    triv = TwistPair.trivial()
    lhs = twisted_eisenstein(n, triv, tau, cfg)
    rhs = eisenstein(n, tau, cfg) if n % 2 == 0 else (0.5 if n == 1 else 0.0) + 0j
    records.append(SampleRecord(f"tw=trivial tau={_c(tau)}", lhs, rhs, residual(lhs, rhs),
                                note="classical limit"))
    return _finish(name, records, tolerance, cfg, plan.seed)


def laurent_coefficients(tw: TwistPair, tau: complex, cfg: TruncationConfig,
                         n_coeffs: int = 5, n_points: int = 64) -> list[complex]:
    """Taylor coefficients of P_1[tw](z) - 1/z by Fourier inversion.

    Samples on the circle |z| = cfg.series_radius at half-offset angles (no
    point hits the divergent Re(z) = 0 axis exactly); Re(z) > 0 points are
    reached through the parity reflection.
    """
    r = cfg.series_radius
    vals = []
    angles = [2.0 * math.pi * (j + 0.5) / n_points for j in range(n_points)]
    for ang in angles:
        z = r * cmath.exp(1j * ang)
        vals.append(twisted_pk_reflected(1, tw, z, tau, cfg) - 1.0 / z)
    coeffs = []
    for k in range(n_coeffs):
        acc = sum(v * cmath.exp(-1j * k * ang) for v, ang in zip(vals, angles))
        coeffs.append(acc / n_points / r**k)
    return coeffs


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
    records = []
    for i in range(plan.count):
        tau = s.tau()
        tw = s.twist(mode=0 if i % 2 else 1)  # keep phi != 1 so the oracle applies
        z = s.annulus_z(tau)
        k = 1 + i % 3
        lhs = twisted_pk(k, tw, z + 2j * math.pi, tau, cfg)
        rhs = tw.phi * twisted_pk(k, tw, z, tau, cfg)
        records.append(SampleRecord(f"P_{k}[tw] z+2pi*i, tw={tw} z={_c(z)} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
        lhs = twisted_pk_oracle(1, tw, z + 2j * math.pi * tau, tau, cfg)
        rhs = tw.theta * twisted_pk(1, tw, z, tau, cfg)
        records.append(SampleRecord(f"P_1[tw] z+2pi*i*tau, tw={tw} z={_c(z)} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))

        # untwisted family on the disk evaluator: small tau keeps both points inside
        tau2 = complex(s.uniform(-0.15, 0.15), s.uniform(0.8, 0.95))
        w = complex(s.uniform(-0.5, 0.5), s.uniform(-0.5, 0.5))
        z2 = w - 1j * math.pi
        lhs = weierstrass_pk_laurent(k, z2 + 2j * math.pi, tau2, cfg)
        rhs = weierstrass_pk_laurent(k, z2, tau2, cfg)
        records.append(SampleRecord(f"P_{k} z+2pi*i, z={_c(z2)} tau={_c(tau2)}",
                                    lhs, rhs, residual(lhs, rhs)))
        z3 = w - 1j * math.pi * tau2
        lhs = weierstrass_pk_laurent(k, z3 + 2j * math.pi * tau2, tau2, cfg)
        rhs = weierstrass_pk_laurent(k, z3, tau2, cfg) - (1.0 if k == 1 else 0.0)
        records.append(SampleRecord(f"P_{k} z+2pi*i*tau, z={_c(z3)} tau={_c(tau2)}",
                                    lhs, rhs, residual(lhs, rhs)))

        # theta characteristics: entire, so any argument works
        a, b = s.uniform(-1.5, 1.5), s.uniform(-1.5, 1.5)
        zt = complex(s.uniform(-2.0, 2.0), s.uniform(-2.0, 2.0))
        lhs = theta_char(a, b, zt + 2j * math.pi, tau, cfg)
        rhs = cmath.exp(2j * math.pi * a) * theta_char(a, b, zt, tau, cfg)
        records.append(SampleRecord(f"theta z+2pi*i, a={a:.4g} b={b:.4g} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
        lhs = theta_char(a, b, zt + 2j * math.pi * tau, tau, cfg)
        rhs = (cmath.exp(-2j * math.pi * b) * cmath.exp(-zt) * cmath.exp(-1j * math.pi * tau)
               * theta_char(a, b, zt, tau, cfg))
        records.append(SampleRecord(f"theta z+2pi*i*tau, a={a:.4g} b={b:.4g} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))

        # prime form: restrict so both points stay in the disk 0 < |z| < 2*pi
        lhs = prime_form(z2 + 2j * math.pi, tau2, cfg)
        rhs = -prime_form(z2, tau2, cfg)
        records.append(SampleRecord(f"K z+2pi*i, z={_c(z2)} tau={_c(tau2)}",
                                    lhs, rhs, residual(lhs, rhs)))
        lhs = prime_form(z3 + 2j * math.pi * tau2, tau2, cfg)
        rhs = (-cmath.exp(-z3) * cmath.exp(-1j * math.pi * tau2)
               * prime_form(z3, tau2, cfg))
        records.append(SampleRecord(f"K z+2pi*i*tau, z={_c(z3)} tau={_c(tau2)}",
                                    lhs, rhs, residual(lhs, rhs)))
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
    for i in range(plan.count):
        gamma = _GAMMAS[gamma_names[i % 3]]
        glabel = gamma_names[i % 3]
        tau = s.tau()
        tw = s.twist()
        gtw = gamma_act_twist(gamma, tw)
        if gtw.is_trivial:
            records.append(SampleRecord(f"{glabel} tw={tw}", 0j, 0j, 0.0, "skipped",
                                        "transformed twist degenerated to trivial"))
            continue
        z = s.annulus_z(tau, lo=0.2, hi=0.8)
        gz, gtau = gamma_act_point(gamma, z, tau)
        aut = gamma.automorphy(tau)
        for k in (1, 2, 3):
            lhs = twisted_pk_continued(k, gtw, gz, gtau, cfg)
            rhs = aut**k * twisted_pk(k, tw, z, tau, cfg)
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
    z = s.annulus_z(tau)
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
    for _ in range(plan.count):
        p = OrbifoldParams(s.uniform(0.0, 1.0), s.uniform(0.0, 1.0))
        tau = s.tau()
        lhs = rank2_partition(p, tau, cfg)
        rhs = rank2_partition_theta(p, tau, cfg)
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
    records = []
    for i in range(plan.count):
        p = OrbifoldParams(s.phase(0.08, 0.92), s.phase(0.08, 0.92))
        tau = s.tau()
        m = 1 if (n == 2 and i == 0) else n  # one n=1 reduction sample
        xs, ys = s.xy_clusters(tau, m, m)
        lhs = rank2_generating(p, xs, ys, tau, cfg)
        rhs = rank2_generating_boson(p, xs, ys, tau, cfg)
        records.append(SampleRecord(f"n={m} p={p} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
    return _finish(name, records, tol, cfg, plan.seed)


def check_k_secant(n: int, plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                   tolerance: float = 1e-8) -> IdentityReport:
    """Trivial-twist bordered determinant against the prime-form ratio."""
    name = f"k_secant_n{n}"
    s = _Sampler(plan, name)
    triv = OrbifoldParams(0.0, 0.0)
    records = []
    for _ in range(plan.count):
        tau = s.tau()
        xs, ys = s.xy_clusters(tau, n, n)
        lhs = rank2_generating(triv, xs, ys, tau, cfg)
        rhs = rank2_generating_boson(triv, xs, ys, tau, cfg)
        records.append(SampleRecord(f"n={n} tau={_c(tau)}", lhs, rhs, residual(lhs, rhs)))
    tau = s.tau()
    xs, ys = s.xy_clusters(tau, 1, 1)
    lhs = rank2_generating(triv, xs, ys, tau, cfg)
    rhs = -dedekind_eta(tau, cfg) ** 2
    records.append(SampleRecord(f"n=1 exact tau={_c(tau)}", lhs, rhs, residual(lhs, rhs),
                                note="det Q = -1 exactly at n = 1"))
    # translation invariance: only differences enter the determinant side
    xs, ys = s.xy_clusters(tau, n, n)
    c = complex(0.0, s.uniform(-0.5, 0.5))
    lhs = rank2_generating(triv, [x + c for x in xs], [y + c for y in ys], tau, cfg)
    rhs = rank2_generating(triv, xs, ys, tau, cfg)
    records.append(SampleRecord(f"translation c={_c(c)} tau={_c(tau)}",
                                lhs, rhs, residual(lhs, rhs)))
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
    records = []
    for i in range(plan.count):
        p = OrbifoldParams(s.phase(0.08, 0.92), s.phase(0.08, 0.92))
        tau = s.tau()
        use_ms, use_ns = ((1,), (1,)) if i == 0 else (ms, ns)  # n=1 reduction sample
        xs, ys = s.xy_clusters(tau, len(use_ms), len(use_ns))
        mat = _cd_matrix(p.twist(), [range(1, m + 1) for m in use_ms], xs,
                         [range(1, n + 1) for n in use_ns], ys, tau, cfg)
        lhs = determinant(mat)
        big_n = sum(use_ms)
        exponent = (big_n * (big_n - 1) // 2
                    + sum(m * (m - 1) // 2 for m in use_ms)
                    + sum(n * (n - 1) // 2 for n in use_ns))
        sign = -1.0 if exponent % 2 else 1.0
        rhs = (sign * lattice_npoint(p, use_ms, xs, use_ns, ys, tau, cfg)
               / rank2_partition_theta(p, tau, cfg))
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
    for i in range(plan.count):
        label, tw = pairings[i % 2]
        tau = s.tau()
        zs = s.spread_points(tau, 2, -2.4, -0.4, min_sep=0.3)
        e1 = twisted_eisenstein(1, tw, tau, cfg)
        mat = p1_difference_matrix(tw, zs, tau, cfg, diag=-e1)
        lhs = determinant(mat)
        pf = pfaffian(p1_difference_matrix(tw, zs, tau, cfg), cfg)
        rhs = pf**2
        note = ""
        if residual(lhs, rhs) > tolerance and abs(rhs) > 0:
            note = f"offset ratio det/Pf^2 = {_c(lhs / rhs)}"
        records.append(SampleRecord(f"{label} n=2 tau={_c(tau)}", lhs, rhs,
                                    residual(lhs, rhs), note=note))
        if i < 4:
            zs3 = s.spread_points(tau, 3, -2.7, -0.4, min_sep=0.3)
            det3 = determinant(p1_difference_matrix(tw, zs3, tau, cfg, diag=-e1))
            records.append(SampleRecord(f"{label} n=3 det tau={_c(tau)}", det3, 0j,
                                        residual(det3, 0j), note="odd size vanishes"))
            records.append(SampleRecord(f"{label} E_1 diagonal tau={_c(tau)}", e1, 0j,
                                        residual(e1, 0j), note="diagonal term vanishes"))
    # cross-check against the named rank-one correlators themselves
    tau = s.tau()
    zs = s.spread_points(tau, 2, -2.4, -0.4, min_sep=0.3)
    det_m = determinant(p1_difference_matrix(TwistPair(0.5, 0.5), zs, tau, cfg))
    g = rank1_generating(GSelector.SIGMA, zs, tau, cfg) / rank1_partition(
        GSelector.SIGMA, tau, cfg)
    records.append(SampleRecord(f"vs rank-one sigma-trace generator tau={_c(tau)}",
                                det_m, g**2, residual(det_m, g**2)))
    det_m = determinant(p1_difference_matrix(TwistPair(0.5, 0.0), zs, tau, cfg))
    g = rank1_sigma_twisted_generating(zs, tau, cfg) / sigma_module_partition(tau, cfg)
    records.append(SampleRecord(f"vs parity-twisted-module generator tau={_c(tau)}",
                                det_m, g**2, residual(det_m, g**2)))
    return _finish(name, records, tolerance, cfg, plan.seed)


def check_modular_correlators(plan: SamplePlan, cfg: TruncationConfig = DEFAULT_CONFIG,
                              tolerance: float = 1e-8) -> IdentityReport:
    """Covariance of partition and generating correlators under S and T."""
    name = "modular_correlators"
    s = _Sampler(plan, name)
    records = []
    for i in range(plan.count):
        glabel = "S" if i % 2 == 0 else "T"
        gamma = _GAMMAS[glabel]
        p = OrbifoldParams(s.phase(0.08, 0.92), s.phase(0.08, 0.92))
        tau = s.tau()
        eps, gp = modular_multiplier(gamma, p)
        gtau = gamma_act_point(gamma, 0.0, tau)[1]
        aut = gamma.automorphy(tau)
        lhs = rank2_partition(gp, gtau, cfg)
        rhs = eps * rank2_partition(p, tau, cfg)
        records.append(SampleRecord(f"Z under {glabel}, p={p} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
        # one-pair generating correlator: weight 1 with the same multiplier
        xs, ys = s.xy_clusters(tau, 1, 1)
        gz = (xs[0] - ys[0]) / aut
        gtw = gamma_act_twist(gamma, p.twist())
        lhs = (twisted_pk_continued(1, gtw, gz, gtau, cfg)
               * rank2_partition(gp, gtau, cfg))
        rhs = aut * eps * rank2_generating(p, xs, ys, tau, cfg)
        records.append(SampleRecord(f"G_2 under {glabel}, p={p} tau={_c(tau)}",
                                    lhs, rhs, residual(lhs, rhs)))
        # integer-weight one-point insertion transforms with weight 1
        lhs = (-twisted_eisenstein(1, gtw, gtau, cfg)) * rank2_partition(gp, gtau, cfg)
        rhs = aut * eps * (-twisted_eisenstein(1, p.twist(), tau, cfg)) \
            * rank2_partition(p, tau, cfg)
        records.append(SampleRecord(f"weight-1 insertion under {glabel}, p={p}",
                                    lhs, rhs, residual(lhs, rhs)))
        # trivially twisted bordered determinant: weight n - 1, no multiplier
        if i % 4 == 0:
            xs, ys = s.xy_clusters(tau, 2, 2)
            def _detq(xx, yy, tt):
                q = np.zeros((3, 3), dtype=complex)
                for a in range(2):
                    for b in range(2):
                        q[a, b] = weierstrass_pk_laurent(1, xx[a] - yy[b], tt, cfg)
                    q[a, 2] = 1.0
                    q[2, a] = 1.0
                return determinant(q)

            gxs = [gamma_act_point(gamma, x, tau)[0] for x in xs]
            gys = [gamma_act_point(gamma, y, tau)[0] for y in ys]
            lhs = _detq(gxs, gys, gtau)
            rhs = aut * _detq(xs, ys, tau)
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
    tau = s.tau()
    g = GSelector.IDENTITY
    zs = s.spread_points(tau, 4, -2.6, -0.4, min_sep=0.2)
    base = rank1_generating(g, zs, tau, cfg)
    swapped = rank1_generating(g, [zs[1], zs[0], zs[2], zs[3]], tau, cfg)
    records.append(SampleRecord("antisymmetry swap z1<->z2 (n=4)", swapped, -base,
                                residual(swapped, -base)))
    odd = rank1_generating(g, zs[:3], tau, cfg)
    records.append(SampleRecord("odd n vanishing (n=3)", odd, 0j, abs(odd)))
    # cofactor expansion along the first row reproduces the n -> n-2 recursion
    for n in (4, 6):
        zs = s.spread_points(tau, n, -2.8, -0.3, min_sep=0.2)
        mat = p1_difference_matrix(g.twist(), zs, tau, cfg)
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
