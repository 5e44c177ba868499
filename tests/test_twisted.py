"""Twisted Weierstrass/Eisenstein functions, expansion coefficients, actions."""

import cmath
import math
import random

import pytest

from twistell import (
    DegenerateTheta,
    DomainError,
    GroupElement,
    GSelector,
    NearPole,
    NotAntisymmetric,
    NotConverged,
    RouteUnavailable,
    TwistPair,
    coeff_C,
    coeff_D,
    eisenstein,
    gamma_act_point,
    gamma_act_twist,
    pfaffian,
    prime_form,
    rank1_generating,
    theta_char,
    twisted_eisenstein,
    twisted_eisenstein_oracle,
    twisted_p1_theta_form,
    twisted_pk,
    twisted_pk_continued,
    twisted_pk_oracle,
    twisted_pk_reflected,
    weierstrass_pk,
)

TAU = 0.12 + 1.1j
Z = -1.3 + 0.4j
NAN = float("nan")
INF = float("inf")


class TestTwistPair:
    def test_phase_reduction(self):
        tw = TwistPair(1.3, -0.25)
        assert tw.mu == pytest.approx(0.3)
        assert tw.lam == pytest.approx(0.75)

    def test_trivial_detection(self):
        assert TwistPair(1.0, 2.0).is_trivial
        assert TwistPair.trivial().is_trivial
        assert not TwistPair(0.5, 0.0).is_trivial

    def test_from_theta_phi_round_trip(self):
        tw = TwistPair(0.31, 0.77)
        back = TwistPair.from_theta_phi(tw.theta, tw.phi)
        assert back.isclose(tw)

    def test_inverse(self):
        tw = TwistPair(0.31, 0.77)
        inv = tw.inverse()
        assert inv.theta == pytest.approx(1 / tw.theta)
        assert inv.phi == pytest.approx(1 / tw.phi)

    def test_modulus_validated(self):
        with pytest.raises(ValueError):
            TwistPair.from_theta_phi(2.0, 1.0)


class TestGammaActions:
    def test_point_action_s_and_t(self):
        s = GroupElement.S()
        z, tau = 0.3 + 0.1j, 1j
        gz, gtau = gamma_act_point(s, z, tau)
        assert gz == pytest.approx(-z / tau)
        assert gtau == pytest.approx(-1 / tau)
        gz, gtau = gamma_act_point(GroupElement.T(), z, tau)
        assert (gz, gtau) == (z, tau + 1)

    def test_point_action_composition(self):
        rng = random.Random(12)
        g1 = GroupElement.T(2) @ GroupElement.S()
        g2 = GroupElement.S() @ GroupElement.T(-1)
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.5))
        one = gamma_act_point(g1 @ g2, z, tau)
        z2, tau2 = gamma_act_point(g2, z, tau)
        two = gamma_act_point(g1, z2, tau2)
        assert one[0] == pytest.approx(two[0])
        assert one[1] == pytest.approx(two[1])

    def test_twist_action_matches_multiplicative_definition(self):
        # the phase-level formula is pinned against (theta, phi) ->
        # (theta^a phi^b, theta^c phi^d)
        rng = random.Random(21)
        gens = [GroupElement.S(), GroupElement.T(), GroupElement.T(-3),
                GroupElement.S() @ GroupElement.T(2),
                GroupElement.T(1) @ GroupElement.S() @ GroupElement.T(-2)]
        for gamma in gens:
            for _ in range(5):
                tw = TwistPair(rng.uniform(0, 1), rng.uniform(0, 1))
                out = gamma_act_twist(gamma, tw)
                theta_want = tw.theta**gamma.a * tw.phi**gamma.b
                phi_want = tw.theta**gamma.c * tw.phi**gamma.d
                assert out.theta == pytest.approx(theta_want, abs=1e-10)
                assert out.phi == pytest.approx(phi_want, abs=1e-10)

    def test_identity_and_negation(self):
        tw = TwistPair(0.2, 0.6)
        assert gamma_act_twist(GroupElement.identity(), tw).isclose(tw)
        minus = GroupElement(-1, 0, 0, -1)
        assert gamma_act_twist(minus, tw).isclose(tw.inverse())

    def test_twist_action_is_left_action(self):
        g1 = GroupElement.S() @ GroupElement.T(2)
        g2 = GroupElement.T(-1) @ GroupElement.S()
        tw = TwistPair(0.23, 0.58)
        assert gamma_act_twist(g1 @ g2, tw).isclose(
            gamma_act_twist(g1, gamma_act_twist(g2, tw)), tol=1e-10)


class TestTwistedPk:
    def test_trivial_is_half_plus_untwisted(self):
        val = twisted_pk(1, TwistPair.trivial(), Z, TAU)
        assert val == pytest.approx(0.5 + weierstrass_pk(1, Z, TAU), rel=1e-13)

    def test_reflection(self):
        # P_1[tw](z) = -P_1[tw^-1](-z); the reflected evaluator realizes it
        tw = TwistPair(0.31, 0.77)
        lhs = twisted_pk(1, tw.inverse(), Z, TAU)
        assert twisted_pk_reflected(1, tw, -Z, TAU) == pytest.approx(-lhs, rel=1e-12)

    def test_trivial_reflection_carries_constant(self):
        triv = TwistPair.trivial()
        lhs = twisted_pk_reflected(1, triv, -Z, TAU)
        assert lhs == pytest.approx(1.0 - twisted_pk(1, triv, Z, TAU), rel=1e-12)

    @pytest.mark.parametrize("mu,lam", [(0.31, 0.77), (0.0, 0.4), (0.62, 0.0)])
    def test_oracle_agreement_k1(self, mu, lam):
        tw = TwistPair(mu, lam)
        rng = random.Random(int(mu * 100 + lam * 10))
        for _ in range(5):
            tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 2.0))
            z = complex(-rng.uniform(0.2, 0.8) * 2 * math.pi * tau.imag,
                        rng.uniform(-2, 2))
            assert twisted_pk(1, tw, z, tau) == pytest.approx(
                twisted_pk_oracle(1, tw, z, tau), rel=1e-10, abs=1e-10)

    def test_oracle_agreement_k2(self):
        tw = TwistPair(0.31, 0.77)
        assert twisted_pk(2, tw, Z, TAU) == pytest.approx(
            twisted_pk_oracle(2, tw, Z, TAU), rel=1e-11)

    @pytest.mark.parametrize("k", [3, 4])
    @pytest.mark.parametrize("mu,lam", [(0.0, 0.4), (0.62, 0.0)])
    def test_oracle_agreement_higher_k(self, k, mu, lam):
        # both lattice routes; the theta-only one rescales by tau^-k
        tw = TwistPair(mu, lam)
        assert twisted_pk(k, tw, Z, TAU) == pytest.approx(
            twisted_pk_oracle(k, tw, Z, TAU), rel=1e-11)

    def test_oracle_route_unavailable(self):
        with pytest.raises(RouteUnavailable):
            twisted_pk_oracle(1, TwistPair.trivial(), Z, TAU)

    def test_oracle_window_insensitive(self):
        from twistell import DEFAULT_CONFIG
        import dataclasses

        tw = TwistPair(0.31, 0.77)
        wide = dataclasses.replace(DEFAULT_CONFIG, lattice_range=96)
        assert twisted_pk_oracle(1, tw, Z, TAU) == pytest.approx(
            twisted_pk_oracle(1, tw, Z, TAU, wide), rel=1e-12)

    def test_derivative_ladder(self):
        tw = TwistPair(0.31, 0.77)
        h = 1e-3
        vals = [twisted_pk(1, tw, Z + s * h, TAU) for s in (2, 1, -1, -2)]
        deriv = (-vals[0] + 8 * vals[1] - 8 * vals[2] + vals[3]) / (12 * h)
        assert twisted_pk(2, tw, Z, TAU) == pytest.approx(-deriv, rel=1e-6)

    def test_parity_reflection_k2(self):
        tw = TwistPair(0.31, 0.77)
        lhs = twisted_pk(2, tw, Z, TAU)
        rhs = twisted_pk_reflected(2, tw.inverse(), -Z, TAU)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            twisted_pk(1, TwistPair(0.3, 0.3), 0.5 + 0.1j, TAU)

    def test_near_pole(self):
        with pytest.raises(NearPole):
            twisted_pk(1, TwistPair(1.5e-13, 0.0), Z, TAU)

    def test_not_converged_near_boundary(self):
        with pytest.raises(NotConverged):
            twisted_pk(1, TwistPair(0.3, 0.3), -1e-10 + 0.4j, TAU)

    def test_continued_matches_in_annulus(self):
        tw = TwistPair(0.31, 0.77)
        assert twisted_pk_continued(1, tw, Z, TAU) == pytest.approx(
            twisted_pk(1, tw, Z, TAU), rel=1e-14)

    def test_continued_matches_oracle_outside(self):
        tw = TwistPair(0.31, 0.77)
        for shift in (1, -2):
            z = Z + 2j * math.pi * TAU * shift
            assert twisted_pk_continued(1, tw, z, TAU) == pytest.approx(
                twisted_pk_oracle(1, tw, z, TAU), rel=1e-9)


class TestTwistedEisenstein:
    def test_trivial_odd(self):
        assert twisted_eisenstein(1, TwistPair.trivial(), TAU) == pytest.approx(0.5)
        assert twisted_eisenstein(3, TwistPair.trivial(), TAU) == pytest.approx(
            0.0, abs=1e-14)

    def test_trivial_even_matches_classical(self):
        for n in (2, 4, 6):
            assert twisted_eisenstein(n, TwistPair.trivial(), TAU) == pytest.approx(
                eisenstein(n, TAU), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_lattice_oracle_phi_route(self, n):
        tw = TwistPair(0.31, 0.77)
        assert twisted_eisenstein(n, tw, TAU) == pytest.approx(
            twisted_eisenstein_oracle(n, tw, TAU), rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lattice_oracle_pinned_twist(self, n):
        # theta = e^{-2 pi i 0.3}, phi = e^{2 pi i 0.7}
        tw = TwistPair(0.3, 0.7)
        assert twisted_eisenstein(n, tw, TAU) == pytest.approx(
            twisted_eisenstein_oracle(n, tw, TAU), rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_lattice_oracle_theta_route(self, n):
        tw = TwistPair(0.62, 0.0)
        assert twisted_eisenstein(n, tw, TAU) == pytest.approx(
            twisted_eisenstein_oracle(n, tw, TAU), rel=1e-10, abs=1e-11)

    def test_parity(self):
        tw = TwistPair(0.31, 0.77)
        for n in (1, 2, 3, 4):
            lhs = twisted_eisenstein(n, tw.inverse(), TAU)
            assert lhs == pytest.approx((-1.0) ** n * twisted_eisenstein(n, tw, TAU),
                                        rel=1e-12, abs=1e-13)


def fit_c_grid(tw, tau, kmax=3, n=12, r1=0.2, r2=0.13):
    """Bivariate Fourier fit of P_1[tw](z1 - z2) - 1/(z1 - z2).

    Uses the theta/prime-form route, which needs no annulus, as the
    independent evaluator.
    """
    grid = {}
    vals = []
    angs = [2 * math.pi * (j + 0.5) / n for j in range(n)]
    for aa in angs:
        row = []
        for bb in angs:
            z1 = r1 * cmath.exp(1j * aa)
            z2 = r2 * cmath.exp(1j * bb)
            row.append(twisted_p1_theta_form(tw, z1 - z2, tau) - 1 / (z1 - z2))
        vals.append(row)
    for k in range(1, kmax + 1):
        for l in range(1, kmax + 1):
            acc = 0j
            for ia, aa in enumerate(angs):
                for ib, bb in enumerate(angs):
                    acc += vals[ia][ib] * cmath.exp(-1j * ((k - 1) * aa + (l - 1) * bb))
            grid[(k, l)] = acc / n**2 / r1 ** (k - 1) / r2 ** (l - 1)
    return grid


class TestCoefficients:
    def test_c11_is_minus_e1(self):
        tw = TwistPair(0.31, 0.77)
        assert coeff_C(1, 1, tw, TAU) == pytest.approx(
            -twisted_eisenstein(1, tw, TAU), rel=1e-13)

    def test_c_antisymmetry(self):
        tw = TwistPair(0.31, 0.77)
        for (k, l) in [(1, 2), (2, 3), (1, 3)]:
            assert coeff_C(k, l, tw, TAU) == pytest.approx(
                -coeff_C(l, k, tw.inverse(), TAU), rel=1e-12, abs=1e-13)

    def test_c_grid_against_taylor_fit(self):
        tw = TwistPair(0.31, 0.77)
        fit = fit_c_grid(tw, TAU)
        for (k, l), val in fit.items():
            assert coeff_C(k, l, tw, TAU) == pytest.approx(val, rel=1e-6, abs=1e-8)

    def test_c21_sign_is_minus_e2(self):
        # the Taylor fit pins the sign: C(2,1) = -E_2[tw]
        tw = TwistPair(0.31, 0.77)
        fit = fit_c_grid(tw, TAU, kmax=2)
        e2 = twisted_eisenstein(2, tw, TAU)
        assert fit[(2, 1)] == pytest.approx(-e2, rel=1e-6)
        assert coeff_C(2, 1, tw, TAU) == pytest.approx(-e2, rel=1e-13)

    def test_d11_is_p1(self):
        tw = TwistPair(0.31, 0.77)
        assert coeff_D(1, 1, tw, Z, TAU) == pytest.approx(
            twisted_pk(1, tw, Z, TAU), rel=1e-13)

    def test_d_antisymmetry(self):
        tw = TwistPair(0.31, 0.77)
        for (k, l) in [(1, 2), (2, 2), (1, 3)]:
            lhs = coeff_D(k, l, tw, Z, TAU)
            rhs = -twisted_pk_reflected(k + l - 1, tw.inverse(), -Z, TAU) \
                * (-1.0) ** (l + 1) * math.comb(k + l - 2, l - 1)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_d_grid_against_taylor_fit(self):
        # P_1[tw](z + z1 - z2) = sum D(k,l,z) z1^{k-1} z2^{l-1}
        tw = TwistPair(0.31, 0.77)
        n, r1, r2 = 12, 0.16, 0.11
        angs = [2 * math.pi * (j + 0.5) / n for j in range(n)]
        vals = [[twisted_pk(1, tw, Z + r1 * cmath.exp(1j * aa) - r2 * cmath.exp(1j * bb),
                            TAU) for bb in angs] for aa in angs]
        for (k, l) in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            acc = 0j
            for ia, aa in enumerate(angs):
                for ib, bb in enumerate(angs):
                    acc += vals[ia][ib] * cmath.exp(-1j * ((k - 1) * aa + (l - 1) * bb))
            fit = acc / n**2 / r1 ** (k - 1) / r2 ** (l - 1)
            assert coeff_D(k, l, tw, Z, TAU) == pytest.approx(fit, rel=1e-6)


class TestThetaForm:
    def test_matches_q_series(self):
        rng = random.Random(31)
        for _ in range(3):
            tw = TwistPair(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
            tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.6))
            z = complex(-rng.uniform(0.5, 3.0), rng.uniform(-1, 1))
            assert twisted_p1_theta_form(tw, z, tau) == pytest.approx(
                twisted_pk(1, tw, z, tau), rel=1e-11)

    def test_trivial_matches_half_plus_p1(self):
        assert twisted_p1_theta_form(TwistPair.trivial(), Z, TAU) == pytest.approx(
            0.5 + weierstrass_pk(1, Z, TAU), rel=1e-11)

    def test_two_pi_i_multiplier(self):
        tw = TwistPair(0.31, 0.77)
        z = -1.1 - 2.5j
        lhs = twisted_p1_theta_form(tw, z + 2j * math.pi, TAU)
        assert lhs == pytest.approx(tw.phi * twisted_p1_theta_form(tw, z, TAU),
                                    rel=1e-11)

    def test_degenerate_theta(self):
        with pytest.raises(DegenerateTheta):
            twisted_p1_theta_form(TwistPair(1.2e-13, 1.2e-13), Z, TAU)


class TestModularCovariance:
    @pytest.mark.parametrize("gname", ["S", "T", "TS", "ST"])
    def test_pk_and_ek(self, gname):
        gammas = {"S": GroupElement.S(), "T": GroupElement.T(),
                  "TS": GroupElement.T() @ GroupElement.S(),
                  "ST": GroupElement.S() @ GroupElement.T()}
        gamma = gammas[gname]
        tw = TwistPair(0.31, 0.77)
        gtw = gamma_act_twist(gamma, tw)
        gz, gtau = gamma_act_point(gamma, Z, TAU)
        aut = gamma.c * TAU + gamma.d
        for k in (1, 2, 3):
            lhs = twisted_pk_continued(k, gtw, gz, gtau)
            rhs = aut**k * twisted_pk(k, tw, Z, TAU)
            assert lhs == pytest.approx(rhs, rel=1e-9)
            le = twisted_eisenstein(k, gtw, gtau)
            assert le == pytest.approx(aut**k * twisted_eisenstein(k, tw, TAU),
                                       rel=1e-10, abs=1e-11)

    def test_e2_exceptional_law(self):
        lhs = eisenstein(2, -1 / TAU)
        rhs = TAU**2 * eisenstein(2, TAU) + TAU / (2j * math.pi) * (-1.0)
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,error", [
    (lambda: pfaffian([[0.0, NAN], [NAN, 0.0]]), NotAntisymmetric),
    (lambda: pfaffian([[0.0, INF], [-INF, 0.0]]), NotAntisymmetric),
    (lambda: twisted_pk(1, TwistPair(0.3, 0.6), Z, complex(0.1, INF)), DomainError),
    (lambda: twisted_pk(1, TwistPair(0.3, 0.6), complex(-1.0, INF), TAU), DomainError),
    (lambda: twisted_pk(1, TwistPair(0.3, 0.6), complex(-1.0, NAN), TAU), DomainError),
    (lambda: twisted_eisenstein(2, TwistPair(0.3, 0.6), complex(0.1, INF)), DomainError),
    (lambda: prime_form(complex(NAN, 0.0), TAU), DomainError),
    (lambda: theta_char(0.5, 0.5, complex(INF, 0.0), TAU), DomainError),
    (lambda: rank1_generating(GSelector.IDENTITY, [complex(-1.0, NAN), -0.5], TAU),
     DomainError),
], ids=["pfaffian-nan", "pfaffian-inf", "pk-tau-inf", "pk-z-inf", "pk-z-nan",
        "eisenstein-tau-inf", "prime-form-nan", "theta-inf", "rank1-nan"])
def test_non_finite_input_raises(call, error):
    with pytest.raises(error):
        call()
