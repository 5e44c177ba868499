"""Identity-suite reports: determinism, domains, bookkeeping, verdicts."""

import dataclasses
import itertools
import math

import pytest

from twistell import DEFAULT_CONFIG, SUITE, SamplePlan, run_all
from twistell.identities import (
    check_correlator_structure,
    check_doublesum,
    check_eisenstein_lattice,
    check_fay_trisecant,
    check_generalized_trisecant,
    check_jacobi_triple_product,
    check_k_secant,
    check_laurent,
    check_modular_correlators,
    check_modular_twisted,
    check_periodicity,
    check_rank1_square,
    residual,
)

PLAN = SamplePlan(seed=7, count=4)


class TestPlan:
    def test_invariants(self):
        with pytest.raises(ValueError):
            SamplePlan(count=0)
        # the sampling domains are constants, not settable fields
        assert [f.name for f in dataclasses.fields(SamplePlan)] == ["seed", "count"]

    def test_residual_definition(self):
        assert residual(0, 0) == 0
        assert residual(2 + 0j, 1 + 0j) == pytest.approx(0.5)
        assert residual(1e-20, 0.0) == pytest.approx(1e-20)


@pytest.mark.parametrize("maker", [
    lambda: check_doublesum(1, PLAN),
    lambda: check_doublesum(2, PLAN),
    lambda: check_eisenstein_lattice(1, PLAN),
    lambda: check_eisenstein_lattice(2, PLAN),
    lambda: check_laurent(dataclasses.replace(PLAN, count=2)),
    lambda: check_periodicity(PLAN),
    lambda: check_modular_twisted(PLAN),
    lambda: check_jacobi_triple_product(PLAN),
    lambda: check_fay_trisecant(2, PLAN),
    lambda: check_fay_trisecant(3, PLAN),
    lambda: check_k_secant(2, PLAN),
    lambda: check_generalized_trisecant((2,), (2,), PLAN),
    lambda: check_generalized_trisecant((2, 1), (1, 2), PLAN),
    lambda: check_rank1_square(PLAN),
    lambda: check_modular_correlators(PLAN),
])
def test_check_passes(maker):
    report = maker()
    assert report.passed, report.summary_line()
    assert report.samples
    assert report.max_residual <= report.tolerance


class TestBookkeeping:
    def test_skipped_route_recorded(self):
        report = check_doublesum(1, PLAN)
        skipped = [s for s in report.samples if s.status == "skipped"]
        assert skipped and "RouteUnavailable" in skipped[0].note
        # skipped samples never count toward the verdict
        assert all(s.residual == 0.0 for s in skipped)

    def test_beta_shift_reported_not_asserted(self):
        report = check_jacobi_triple_product(PLAN)
        info = [s for s in report.samples if s.status == "info"]
        assert info and "beta" in info[0].input

    def test_report_shape(self):
        report = check_doublesum(1, PLAN)
        d = report.to_dict()
        assert set(d) == {"identity_name", "tolerance", "max_residual", "passed",
                          "seed", "cfg", "samples"}
        assert all({"input", "lhs", "rhs", "residual"} <= set(s) for s in d["samples"])


class TestRunAll:
    def test_registry_order_and_determinism(self):
        plan = SamplePlan(seed=11, count=3)
        a = run_all(plan, DEFAULT_CONFIG, use_pinned_counts=False)
        b = run_all(plan, DEFAULT_CONFIG, use_pinned_counts=False)
        assert [r.identity_name for r in a] == list(SUITE)
        assert [r.to_dict() for r in a] == [r.to_dict() for r in b]

    def test_seed_changes_samples(self):
        p1 = SamplePlan(seed=1, count=3)
        p2 = SamplePlan(seed=2, count=3)
        a = run_all(p1, DEFAULT_CONFIG, names=["doublesum_k1"],
                    use_pinned_counts=False)[0]
        b = run_all(p2, DEFAULT_CONFIG, names=["doublesum_k1"],
                    use_pinned_counts=False)[0]
        assert a.samples[0].input != b.samples[0].input

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            run_all(PLAN, DEFAULT_CONFIG, names=["no_such_check"])

    def test_samples_inside_declared_domains(self):
        # doublesum draws z from |Re z| < 2 pi Im tau, |Im z| < pi, off the lattice:
        # both sides of the imaginary axis, and past the kernel's quasi-period shift
        # (|Re z| > pi Im tau); the recorded inputs parse back into that box
        report = check_doublesum(1, dataclasses.replace(PLAN, count=25))
        zs = []
        for s in report.samples:
            if s.status != "ok":
                continue
            z_part = [tok for tok in s.input.split() if tok.startswith("z=")][0]
            tau_part = [tok for tok in s.input.split() if tok.startswith("tau=")][0]
            z = complex(z_part[2:].replace("i", "j"))
            tau = complex(tau_part[4:].replace("i", "j"))
            assert abs(z.real) < 2 * math.pi * tau.imag and abs(z.imag) < math.pi
            zs.append((z, tau))
        assert len(zs) == 25
        assert any(z.real > 0 for z, _ in zs) and any(z.real < 0 for z, _ in zs)
        assert any(abs(z.real) > math.pi * tau.imag for z, tau in zs)

    def test_points_clear_the_lattice(self):
        from twistell.identities import _Sampler
        from twistell.twisted import lattice_distance

        sampler = _Sampler(PLAN, "points")
        for i in range(40):
            tau = sampler.tau()
            min_sep = (0.05, 0.2, 0.3)[i % 3]
            pts = sampler.points(tau, 1 + i % 6, min_sep=min_sep)
            assert len(pts) == 1 + i % 6
            for a in pts:
                assert abs(a.real) < 2 * math.pi * tau.imag and abs(a.imag) < math.pi
                assert lattice_distance(a, tau) >= min_sep
            for a, b in itertools.combinations(pts, 2):
                assert lattice_distance(a - b, tau) >= min_sep


BOSONIZED = ["fay_trisecant_n2", "fay_trisecant_n3", "k_secant_n2",
             "generalized_trisecant_2_2", "generalized_trisecant_21_12"]


@pytest.mark.parametrize("seed", [39, 42, 52, 65, 70, 81, 95, 162, 164, 258, 293, 297, 371])
def test_bosonized_checks_pass_at_large_theta_arguments(monkeypatch, seed):
    # psi+ and psi- points drawn from the whole sampling box put the bosonized side's
    # theta at |z| up to about 40; at these seeds theta_char once refused right values
    # there, its bound charging eps |x z| at the unreduced point
    from twistell import identities

    def whole_box(sampler, tau, n_x, n_y):
        pts = sampler.points(tau, n_x + n_y)
        return pts[:n_x], pts[n_x:]

    monkeypatch.setattr(identities._Sampler, "xy_clusters", whole_box)
    for report in run_all(SamplePlan(seed=seed), DEFAULT_CONFIG, names=BOSONIZED):
        assert report.passed, (seed, report.identity_name, report.max_residual)


def test_laurent_circle_is_one_kernel_call(monkeypatch):
    from twistell import identities
    from twistell.twisted import TwistPair

    calls = []
    batch = identities.twisted_pk_batch

    def counted(ks, tw, zs, tau, cfg):
        calls.append(len(zs))
        return batch(ks, tw, zs, tau, cfg)

    monkeypatch.setattr(identities, "twisted_pk_batch", counted)
    coeffs = identities.laurent_coefficients(TwistPair(0.31, 0.77), 0.12 + 1.1j, DEFAULT_CONFIG)
    assert calls == [64] and len(coeffs) == 5


def test_one_point_checks_make_one_kernel_call_per_function(monkeypatch):
    # every check but laurent draws every sample first and evaluates each function at all
    # of them in one call: P_k and P_k[tw] one per list of orders, each lattice oracle one
    # per order, the correlator builders one each, their P_1 kernel one per order set of
    # their matrices, and their bosonized side one theta and one prime-form call (the
    # correlators' own calls, in the fermion module, counted with the suite's)
    from twistell import fermion, identities

    calls = []

    def counting(module, name):
        fn = getattr(module, name)

        def counted(*args):
            order = args[0] if isinstance(args[0], int) else tuple(args[0])
            calls.append((name, order) if name.endswith("_batch") else name)
            return fn(*args)
        monkeypatch.setattr(module, name, counted)

    for name in ("twisted_pk_batch", "twisted_pk_oracle_batch", "twisted_eisenstein_oracle_batch",
                 "_weierstrass_pks", "_theta_chars", "_prime_forms", "_cd_matrices",
                 "_cd_determinants", "_rank1_pfaffians", "_rank2_generatings"):
        counting(identities, name)
    for name in ("twisted_pk_batch", "_theta_chars", "_prime_forms"):
        counting(fermion, name)
    plan = SamplePlan(seed=7, count=6)
    p1 = ("twisted_pk_batch", (1,))
    bosonized = [p1, "_rank2_generatings", "_theta_chars", "_prime_forms"]
    # the generalized trisecant's n = 1 sample needs P_1, the others P_1..P_3
    blocks = [p1, ("twisted_pk_batch", (1, 2, 3)), "_cd_determinants", "_theta_chars",
              "_prime_forms"]
    for check, expected in [
            (lambda: check_doublesum(1, plan), [p1, ("twisted_pk_oracle_batch", 1)]),
            (lambda: check_doublesum(2, plan),
             [("twisted_pk_batch", (2,)), ("twisted_pk_oracle_batch", 2)]),
            *[(lambda n=n: check_eisenstein_lattice(n, plan),
               [("twisted_eisenstein_oracle_batch", n)]) for n in (1, 2, 3)],
            (lambda: check_modular_twisted(plan), [("twisted_pk_batch", (1, 2, 3))]),
            (lambda: check_jacobi_triple_product(plan), ["_theta_chars"]),
            (lambda: check_periodicity(plan),
             [("twisted_pk_batch", (1, k)) for k in (1, 2, 3)] + ["_weierstrass_pks"] * 3
             + ["_theta_chars", "_prime_forms", ("twisted_pk_oracle_batch", 1)]),
            (lambda: check_fay_trisecant(2, plan), bosonized),
            (lambda: check_fay_trisecant(3, plan), bosonized),
            (lambda: check_k_secant(2, plan), bosonized),
            (lambda: check_generalized_trisecant((2,), (2,), plan), blocks),
            (lambda: check_generalized_trisecant((2, 1), (1, 2), plan), blocks),
            # the check's P_1 matrices, then the named rank-one generators'
            (lambda: check_rank1_square(plan),
             [p1, p1, "_cd_determinants", "_rank1_pfaffians"]),
            # P_1[tw] at the transformed points, the generating correlators' matrices, and
            # every entry of det Q
            (lambda: check_modular_correlators(plan),
             [p1, p1, "_rank2_generatings", "_weierstrass_pks"]),
            # the three rank-one generators' matrices, then the two cofactor matrices
            (lambda: check_correlator_structure(plan),
             [p1, p1, "_rank1_pfaffians", "_cd_matrices"])]:
        calls.clear()
        assert check().passed
        assert sorted(calls, key=str) == sorted(expected, key=str)
