"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here; nothing is deferred to later calibration.
"""

import dataclasses
import math
import random
import time

import numpy as np
import pytest

from twistell import (
    DEFAULT_CONFIG,
    GSelector,
    GroupElement,
    OrbifoldParams,
    SamplePlan,
    TwistPair,
    determinant,
    eisenstein,
    epsilon_S,
    epsilon_T,
    gamma_act_point,
    gamma_act_twist,
    modular_multiplier,
    p1_difference_matrix,
    pfaffian,
    pfaffian_pair_sum,
    rank1_generating,
    rank1_partition,
    rank1_sigma_twisted_generating,
    rank2_generating,
    rank2_partition,
    run_all,
    sigma_module_partition,
    twisted_eisenstein,
    twisted_pk,
)
from twistell.cli import main
from twistell.identities import (
    check_doublesum,
    check_eisenstein_lattice,
    check_fay_trisecant,
    check_generalized_trisecant,
    check_jacobi_triple_product,
    check_k_secant,
    laurent_coefficients,
    residual,
)

CFG = DEFAULT_CONFIG


def verdict(num, name, ok, detail):
    line = f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_c01_doublesum_equivalence():
    plan = SamplePlan(seed=7, count=50)
    t0 = time.perf_counter()
    report = check_doublesum(1, plan, CFG, tolerance=1e-9)
    elapsed = time.perf_counter() - t0
    ok = report.passed and elapsed < 10.0
    verdict(1, "double-sum equivalence",
            ok, f"max_residual={report.max_residual:.2e} <= 1e-9, {elapsed:.2f}s < 10s")


def test_c02_twisted_eisenstein_lattice():
    worst = 0.0
    for n in (1, 2, 3):
        plan = SamplePlan(seed=7, count=50)
        report = check_eisenstein_lattice(n, plan, CFG, tolerance=1e-9)
        worst = max(worst, report.max_residual)
        assert report.passed
    verdict(2, "twisted Eisenstein lattice forms", worst <= 1e-9,
            f"max_residual={worst:.2e} <= 1e-9 for n=1,2,3")


def test_c03_laurent_coefficients():
    rng = random.Random(7)
    worst = 0.0
    for _ in range(10):
        tw = TwistPair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 1.6))
        coeffs = laurent_coefficients(tw, tau, CFG)
        for j, c in enumerate(coeffs):
            target = -twisted_eisenstein(j + 1, tw, tau, CFG)
            worst = max(worst, abs(c - target) / max(1.0, abs(target)))
    verdict(3, "Laurent expansion", worst <= 1e-6,
            f"max relative error {worst:.2e} <= 1e-6 over 10 twists x 5 coefficients")


def test_c04_jacobi_triple_product():
    plan = SamplePlan(seed=7, count=100)
    report = check_jacobi_triple_product(plan, CFG, tolerance=1e-10)
    verdict(4, "Jacobi triple product", report.passed,
            f"max_residual={report.max_residual:.2e} <= 1e-10 over 100 samples")


def test_c05_fay_trisecant():
    worst = 0.0
    for n in (2, 3):
        report = check_fay_trisecant(n, SamplePlan(seed=7, count=25), CFG,
                                     tolerance=1e-7)
        worst = max(worst, report.max_residual)
        assert report.passed
    ksec = check_k_secant(2, SamplePlan(seed=7, count=25), CFG, tolerance=1e-8)
    assert ksec.passed
    verdict(5, "Fay generalized trisecant", worst <= 1e-7 and ksec.passed,
            f"n=2,3 max_residual={worst:.2e} <= 1e-7; "
            f"trivial-twist analogue {ksec.max_residual:.2e} <= 1e-8")


def test_c06_new_generalized_trisecant():
    worst = 0.0
    for ms, ns in (((2,), (2,)), ((2, 1), (1, 2))):
        report = check_generalized_trisecant(ms, ns, SamplePlan(seed=7, count=10),
                                             CFG, tolerance=1e-7)
        worst = max(worst, report.max_residual)
        assert report.passed
    verdict(6, "block generalized trisecant", worst <= 1e-7,
            f"max_residual={worst:.2e} <= 1e-7 for m=(2),n=(2) and m=(2,1),n=(1,2)")


def test_c07_modular_covariance():
    rng = random.Random(7)
    gammas = [GroupElement.S(), GroupElement.T()]
    worst_pk = worst_ek = worst_e2 = worst_z = worst_g2 = 0.0
    for i in range(8):
        gamma = gammas[i % 2]
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 2.0))
        tw = TwistPair(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        gtw = gamma_act_twist(gamma, tw)
        h = 2 * math.pi * tau.imag
        z = complex(-rng.uniform(0.25, 0.75) * h, rng.uniform(-1, 1))
        gz, gtau = gamma_act_point(gamma, z, tau)
        aut = gamma.automorphy(tau)
        for k in (1, 2, 3):
            lhs = twisted_pk(k, gtw, gz, gtau, CFG)
            rhs = aut**k * twisted_pk(k, tw, z, tau, CFG)
            worst_pk = max(worst_pk, residual(lhs, rhs))
            le = twisted_eisenstein(k, gtw, gtau, CFG)
            worst_ek = max(worst_ek, residual(le, aut**k * twisted_eisenstein(
                k, tw, tau, CFG)))
        # exceptional weight-2 law
        lhs = eisenstein(2, gtau, CFG)
        rhs = aut**2 * eisenstein(2, tau, CFG) - gamma.c * aut / (2j * math.pi)
        worst_e2 = max(worst_e2, residual(lhs, rhs))
        # partition covariance with the generator multipliers
        p = OrbifoldParams(rng.uniform(0.1, 0.9), rng.uniform(0.1, 0.9))
        eps, gp = modular_multiplier(gamma, p)
        expect = epsilon_S(p) if gamma.c else epsilon_T(p)
        assert eps == pytest.approx(expect, rel=1e-14)
        worst_z = max(worst_z, residual(rank2_partition(gp, gtau, CFG),
                                        eps * rank2_partition(p, tau, CFG)))
        # weight-1 covariance of the one-pair generating correlator
        x, y = -1.5 + 0.3j, -0.3 - 0.2j
        gtwp = gamma_act_twist(gamma, p.twist())
        lhs = (twisted_pk(1, gtwp, (x - y) / aut, gtau, CFG)
               * rank2_partition(gp, gtau, CFG))
        rhs = aut * eps * rank2_generating(p, [x], [y], tau, CFG)
        worst_g2 = max(worst_g2, residual(lhs, rhs))
    ok = (worst_pk <= 1e-8 and worst_ek <= 1e-8 and worst_e2 <= 1e-9
          and worst_z <= 1e-9 and worst_g2 <= 1e-8)
    verdict(7, "modular covariance", ok,
            f"P_k {worst_pk:.2e}<=1e-8, E_k {worst_ek:.2e}<=1e-8, "
            f"E_2 law {worst_e2:.2e}<=1e-9, Z {worst_z:.2e}<=1e-9, "
            f"G_2 {worst_g2:.2e}<=1e-8")


def test_c08_correlator_structure():
    rng = random.Random(7)
    worst_sq = 0.0
    for dim in (2, 4, 6, 8, 10, 12):
        raw = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                         for _ in range(dim)] for _ in range(dim)])
        skew = raw - raw.T
        pf = pfaffian(skew, CFG)
        det = determinant(skew)
        worst_sq = max(worst_sq, abs(pf**2 - det) / max(1.0, abs(det)))
    tau = 0.12 + 1.1j
    zs = [-2.6 + 0.4j, -1.9 - 0.5j, -1.1 + 0.15j, -0.4 - 0.3j]
    base = rank1_generating(GSelector.IDENTITY, zs, tau, CFG)
    swap = rank1_generating(GSelector.IDENTITY, [zs[1], zs[0], zs[2], zs[3]], tau, CFG)
    anti = abs(swap + base) / abs(base)
    odd = abs(rank1_generating(GSelector.IDENTITY, zs[:3], tau, CFG))
    worst_rec = 0.0
    for n in (4, 6):
        pts = [complex(-0.35 - 0.45 * i, 0.3 * ((-1) ** i)) for i in range(n)]
        mat = p1_difference_matrix(GSelector.IDENTITY.twist(), pts, tau, CFG)
        pf = pfaffian_pair_sum(mat)
        acc = 0j
        for r in range(1, n):
            keep = [t for t in range(n) if t not in (0, r)]
            acc += (-1.0) ** (r + 1) * mat[0, r] * pfaffian_pair_sum(
                mat[np.ix_(keep, keep)])
        worst_rec = max(worst_rec, abs(pf - acc) / max(1.0, abs(pf)))
    ok = worst_sq <= 1e-10 and anti <= 1e-12 and odd == 0.0 and worst_rec <= 1e-12
    verdict(8, "correlator structure", ok,
            f"Pf^2=det {worst_sq:.2e}<=1e-10, antisymmetry {anti:.2e}<=1e-12, "
            f"odd-n exactly {odd}, cofactor recursion {worst_rec:.2e}<=1e-12")


def test_c09_rank_degeneration():
    tau = 0.12 + 1.1j
    worst = 0.0
    for pairing in (TwistPair(0.5, 0.5), TwistPair(0.5, 0.0)):
        zs = [-1.9 + 0.35j, -0.5 - 0.3j]
        e1 = twisted_eisenstein(1, pairing, tau, CFG)
        det = determinant(p1_difference_matrix(pairing, zs, tau, CFG, diag=-e1))
        pf = pfaffian(p1_difference_matrix(pairing, zs, tau, CFG), CFG)
        worst = max(worst, residual(det, pf**2))
    # the two stated rank-one pairings
    zs = [-1.9 + 0.35j, -0.5 - 0.3j]
    det = determinant(p1_difference_matrix(TwistPair(0.5, 0.5), zs, tau, CFG))
    g = rank1_generating(GSelector.SIGMA, zs, tau, CFG) / rank1_partition(
        GSelector.SIGMA, tau, CFG)
    worst = max(worst, residual(det, g**2))
    det = determinant(p1_difference_matrix(TwistPair(0.5, 0.0), zs, tau, CFG))
    g = rank1_sigma_twisted_generating(zs, tau, CFG) / sigma_module_partition(tau, CFG)
    worst = max(worst, residual(det, g**2))
    odd = 0.0
    for pairing in (TwistPair(0.5, 0.5), TwistPair(0.5, 0.0)):
        pts = [-2.4 + 0.4j, -1.5 - 0.45j, -0.6 + 0.2j]
        odd = max(odd, abs(determinant(p1_difference_matrix(pairing, pts, tau, CFG))))
    ok = worst <= 1e-9 and odd <= 1e-12
    verdict(9, "rank-one/rank-two degeneration", ok,
            f"det=Pf^2 residual {worst:.2e}<=1e-9, odd-n det {odd:.2e}<=1e-12")


def test_c10_determinism_and_runtime(tmp_path, capsys):
    t0 = time.perf_counter()
    f1, f2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = main(["verify", "--suite", "all", "--seed", "7", "--out", str(f1)])
    code2 = main(["verify", "--suite", "all", "--seed", "7", "--out", str(f2)])
    elapsed = time.perf_counter() - t0
    capsys.readouterr()  # swallow the two summary tables
    identical = f1.read_bytes() == f2.read_bytes()
    ok = code1 == 0 and code2 == 0 and identical and elapsed < 120.0
    verdict(10, "determinism and runtime", ok,
            f"exit codes {code1},{code2}; byte-identical={identical}; "
            f"two full runs in {elapsed:.1f}s < 120s")
