"""Twisted Weierstrass/Eisenstein functions, expansion coefficients, actions."""

import cmath
import math
import random
import warnings

import numpy as np
import pytest

from twistell import (
    DomainError,
    GroupElement,
    GSelector,
    NearPole,
    NotAntisymmetric,
    NotConverged,
    OrbifoldParams,
    RouteUnavailable,
    TwistPair,
    bernoulli_poly,
    coeff_C,
    coeff_D,
    dedekind_eta,
    eisenstein,
    gamma_act_point,
    gamma_act_twist,
    lattice_distance,
    p0,
    pfaffian,
    prime_form,
    rank1_generating,
    rank2_generating,
    rank2_generating_boson,
    rank2_partition,
    rank2_partition_theta,
    theta_char,
    twisted_eisenstein,
    twisted_eisenstein_batch,
    twisted_eisenstein_oracle,
    twisted_pk,
    twisted_pk_batch,
    twisted_pk_oracle,
    weierstrass_pk,
)
from twistell import classical, twisted
from twistell.classical import _eisenstein_prefactors
from twistell.errors import TwistellError
from twistell.numeric import bernoulli_over_factorial

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

    def test_inverse_is_an_involution(self):
        # 1 - 0.31 rounds, so (-mu, -lam) of the inverse is not 0.31 again: the inverse
        # links back to its pair
        rng = random.Random(5)
        for tw in [TwistPair(0.31, 0.77)] + [TwistPair(rng.random(), rng.random())
                                             for _ in range(50)]:
            assert tw.inverse().inverse() == tw

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
        # P_1[tw](z) = -P_1[tw^-1](-z), with -z across Re z = 0 from z
        tw = TwistPair(0.31, 0.77)
        lhs = twisted_pk(1, tw.inverse(), Z, TAU)
        assert twisted_pk(1, tw, -Z, TAU) == pytest.approx(-lhs, rel=1e-12)

    def test_trivial_reflection_carries_constant(self):
        triv = TwistPair.trivial()
        lhs = twisted_pk(1, triv, -Z, TAU)
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

    def test_oracle_large_order_is_not_converged(self):
        # the collapsed inner sum scales by 1/(k-1)!, beyond the float range from k = 172
        for k in (172, 400):
            with pytest.raises(NotConverged, match=f"order {k} needs {k - 1}!"):
                twisted_pk_oracle(k, TwistPair(0.3, 0.3), Z, TAU)

    def test_oracle_window_insensitive(self):
        from twistell import DEFAULT_CONFIG
        import dataclasses

        tw = TwistPair(0.31, 0.77)
        # a tighter tol starts wider windows
        wide = dataclasses.replace(DEFAULT_CONFIG, tol=1e-15)
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
        rhs = twisted_pk(2, tw.inverse(), -Z, TAU)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_near_pole(self):
        with pytest.raises(NearPole):
            twisted_pk(1, TwistPair(1.5e-13, 0.0), Z, TAU)

    def test_not_converged_near_boundary(self):
        with pytest.raises(NotConverged, match="exceeded 1536 terms"):
            twisted_eisenstein_oracle(2, TwistPair(0.3, 0.3), 5e-324j)
        # the lattice row Im(z/(2 pi i))/Im tau of the pole check is inf
        with pytest.raises(NotConverged, match="lattice row"):
            twisted_pk_oracle(1, TwistPair(0.3, 0.3), -0.1 + 0.1j, 5e-324j)

    @pytest.mark.parametrize("call", [
        lambda: twisted_eisenstein_oracle(2, TwistPair(0.3, 0.0), 1e-170 + 1e-170j),
        lambda: twisted_pk_oracle(2, TwistPair(0.3, 0.0), 0.3j, 1e-300 + 5e-324j)])
    def test_oracle_refuses_tau_to_the_k_out_of_the_float_range(self, call):
        # on the theta != 1 route the sum is divided by tau^k, here 0 after underflow: a
        # refusal, not Python's ZeroDivisionError
        with pytest.raises(NotConverged, match="leaves the float range"):
            call()

    @pytest.mark.parametrize("tw,z,tau", [
        (TwistPair(0.3, 0.7), 1e4 + 2j, 10j),        # row -159, window [-8, 9]: was exactly 0j
        (TwistPair(0.3, 0.0), -1 + 1000j, 1j),       # swapped route, row 159: was 1.75e-119
        (TwistPair(0.3, 0.7), -3141.6 + 0.4j, 1j),   # row 500: was 0j
    ])
    def test_oracle_refuses_a_row_outside_its_window(self, tw, z, tau):
        # the window starts about row 0; past it the edge terms fell below tol at once and
        # the sum stopped without the terms of the row of z
        with pytest.raises(NotConverged, match="lattice row .* lies outside the window"):
            twisted_pk_oracle(1, tw, z, tau)

    def test_kernel_sums_large_z(self):
        # the kernel reduces z by the quasi-period first, exactly enough that eps |w| of the
        # reduced point, not eps |z|, enters the bound: once refused; the oracle's swapped
        # route sums this point (its row is 0.32); -3141.6+0.4i at tau = i, where the
        # oracle refuses, is checked against mpmath in test_theta_references
        tw, z, tau = TwistPair(0.3, 0.0), 1e4 + 2j, 10j
        ref = twisted_pk_oracle(1, tw, z, tau)
        assert ref == pytest.approx(-0.5000435 - 0.3632312j, abs=1e-6)
        assert abs(twisted_pk(1, tw, z, tau) - ref) <= 1e-12 * abs(ref)
        vals = twisted_pk_batch([1, 2], tw, [Z, z], tau)
        assert vals[0, 1] == twisted_pk(1, tw, z, tau)

    def test_p1_near_zero_matches_the_oracle(self):
        # theta[1/2;1/2]'s terms n and -1-n are taken together near w = 0, so P_1 ~ 1/z
        # keeps its digits: refused once with a bound of 1.6e-9 on |P_1| ~ 1e3. The oracle
        # keeps its digits there too by forming e^x - 1 with expm1; exp(x) - 1 would put it
        # 1.5e-11 off at -3e-6i and 2e-8 off at -1e-9+1e-9i
        tw = TwistPair(0.31, 0.77)
        for z in (-1e-3, 2e-4 - 1e-4j, -3e-6j, -1e-9 + 1e-9j):
            for k in (1, 2, 3):
                ref = twisted_pk_oracle(k, tw, z, TAU)
                assert abs(twisted_pk(k, tw, z, TAU) - ref) <= 1e-12 * abs(ref), (k, z)

    @pytest.mark.parametrize("call,error", [
        (lambda: twisted_eisenstein_oracle(2, TwistPair(0.3, 0.3), 5e-324j), NotConverged),
        (lambda: twisted_eisenstein_oracle(2, TwistPair(0.3, 0.0), 5e-324j), NotConverged),
        (lambda: twisted_pk_oracle(1, TwistPair(0.3, 0.3), -0.1 + 0.1j, 5e-324j),
         NotConverged),
        (lambda: twisted_pk_oracle(172, TwistPair(0.3, 0.3), Z, TAU), NotConverged),
        (lambda: twisted_eisenstein_oracle(172, TwistPair(0.3, 0.0), TAU), NotConverged),
        (lambda: twisted_pk_oracle(1, TwistPair(0.3, 0.7), 1e4 + 2j, 10j), NotConverged),
        (lambda: twisted_pk_oracle(1, TwistPair(0.3, 0.7), 2j * math.pi * TAU, TAU), NearPole),
        (lambda: twisted_pk_oracle(1, TwistPair.trivial(), Z, TAU), RouteUnavailable),
        (lambda: twisted_pk_oracle(40, TwistPair(0.3, 0.0), -1e-9 + 1e-9j, TAU), NotConverged),
        (lambda: twisted_pk_oracle(3, TwistPair(0.31, 0.77), -1e-9 + 1e-9j, TAU), None),
    ], ids=["en-im-tau-5e-324", "en-theta-route-im-tau-5e-324", "pk-im-tau-5e-324",
            "pk-order-172", "en-order-172", "row-outside-window", "lattice-point",
            "trivial-twist", "order-40-past-the-float-range", "near-pole-value"])
    def test_oracles_leak_no_warning(self, call, error):
        # numpy sums the rows: its overflow and invalid-value warnings stay inside, and a
        # sum that leaves the float range (order 40 next to the pole) is refused
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if error is None:
                assert cmath.isfinite(call())
            else:
                with pytest.raises(error):
                    call()

    def test_oracle_rows_inside_the_window_are_summed(self):
        # a few periods out, the row still lies in the starting window
        tw = TwistPair(0.31, 0.77)
        for shift in (4, -5):
            z = Z + 2j * math.pi * TAU * shift
            assert twisted_pk(1, tw, z, TAU) == pytest.approx(
                twisted_pk_oracle(1, tw, z, TAU), rel=1e-9)

    def test_continued_matches_oracle_outside(self):
        tw = TwistPair(0.31, 0.77)
        for shift in (1, -2):
            z = Z + 2j * math.pi * TAU * shift
            assert twisted_pk(1, tw, z, TAU) == pytest.approx(
                twisted_pk_oracle(1, tw, z, TAU), rel=1e-9)


def qseries_pk(k, tw, z, tau, tol=1e-12, q_order=120):
    """P_k[tw](z, tau) by its q-series on the annulus |q| < |q_z| < 1, the reference loop:
    ((-1)^k/(k-1)!) sum over n in Z + lam of n^{k-1} q_z^n / (1 - theta^-1 q^n), n = 0
    omitted at the trivial twist, over a window doubled until the three outermost terms
    on each side fall below tol. Near the annulus edges the long windows lose digits."""
    h = 2 * math.pi * tau.imag
    x = z.real
    if not (-h < x < 0.0 and cmath.isfinite(z)):
        raise DomainError("outside the annulus")
    cap = 64 * q_order
    n_up = int(-math.log(tol) / -x) + 16
    n_dn = int(-math.log(tol) / (h + x)) + 16
    th_inv = cmath.exp(2j * math.pi * tw.mu)
    th = cmath.exp(-2j * math.pi * tw.mu)
    while True:
        if max(n_up, n_dn) > cap:
            raise NotConverged("window cap")
        rs = np.arange(-n_dn, n_up + 1, dtype=float)
        if tw.is_trivial:
            rs = rs[rs != 0.0]
        ns = rs + tw.lam
        pos = ns >= 0.0
        terms = np.empty(ns.shape, dtype=complex)
        np_ = ns[pos]
        den_p = 1.0 - th_inv * np.exp(2j * math.pi * tau * np_)
        nm = ns[~pos]
        den_m = 1.0 - th * np.exp(-2j * math.pi * tau * nm)
        if (den_p.size and np.abs(den_p).min() < 1e-12) or \
           (den_m.size and np.abs(den_m).min() < 1e-12):
            raise NearPole("denominator")
        terms[pos] = np_ ** (k - 1) * np.exp(np_ * z) / den_p
        terms[~pos] = -th * nm ** (k - 1) * np.exp(nm * (z - 2j * math.pi * tau)) / den_m
        mags = np.abs(terms)
        if mags.size >= 6 and mags[:3].max() < tol and mags[-3:].max() < tol:
            return (-1.0) ** k / math.factorial(k - 1) * complex(terms.sum())
        n_up *= 2
        n_dn *= 2


def qseries_pks(ks, tw, zs, tau):
    """qseries_pk for every k of ks and z of zs, shape (len(ks), len(zs))."""
    return np.array([[qseries_pk(k, tw, z, tau) for z in zs] for k in ks])


class TestBatchKernel:
    def test_near_pole_and_invalid_order(self):
        with pytest.raises(NearPole):
            twisted_pk_batch([1], TwistPair(1.5e-13, 0.0), [Z, Z - 0.5], TAU)
        with pytest.raises(ValueError):
            twisted_pk_batch([1, 0], TwistPair(0.3, 0.3), [Z], TAU)

    def test_empty_batch(self):
        tw = TwistPair(0.31, 0.77)
        assert twisted_pk_batch([1, 2], tw, [], TAU).shape == (2, 0)
        assert twisted_pk_batch([], tw, [Z], TAU).shape == (0, 1)


class TestThetaKernel:
    """twisted_pk_batch, the theta-quotient kernel, on the whole plane off the lattice."""

    TAUS = [1j, 0.4 + 0.6j, 0.12 + 1.1j]
    ORACLE_TWISTS = [TwistPair(0.31, 0.77), TwistPair(0.0, 0.4), TwistPair(0.62, 0.0),
                     TwistPair(0.5, 0.5)]
    KS = [1, 2, 3, 4, 5]

    def check_oracle(self, fracs):
        """Kernel against the lattice oracle at Re(z) = -frac * 2*pi*Im(tau), 1e-12 relative."""
        rng = random.Random(f"theta:{fracs}")
        for tw in self.ORACLE_TWISTS:
            for tau in self.TAUS:
                zs = [complex(-f * 2 * math.pi * tau.imag, rng.uniform(-3, 3)) for f in fracs]
                out = twisted_pk_batch(self.KS, tw, zs, tau)
                for i, k in enumerate(self.KS):
                    for j, z in enumerate(zs):
                        assert out[i, j] == pytest.approx(twisted_pk_oracle(k, tw, z, tau),
                                                          rel=1e-12, abs=0)

    def test_matches_oracle_near_both_edges(self):
        self.check_oracle([1e-4, 1e-3, 1e-2, 1 - 1e-2, 1 - 1e-3, 1 - 1e-4])

    def test_matches_oracle_outside_the_annulus(self):
        self.check_oracle([-0.3, -1.7, 1.2, 2.6])

    @pytest.mark.parametrize("tw", [TwistPair(0.31, 0.77), TwistPair.trivial(),
                                    TwistPair(0.5, 0.0), TwistPair(0.0, 0.5)], ids=str)
    def test_matches_qseries_mid_annulus(self, tw):
        rng = random.Random(f"mid:{tw}")
        for tau in self.TAUS:
            zs = [complex(-rng.uniform(0.2, 0.8) * 2 * math.pi * tau.imag, rng.uniform(-3, 3))
                  for _ in range(6)]
            out = twisted_pk_batch(self.KS, tw, zs, tau)
            ref = qseries_pks(self.KS, tw, zs, tau)
            assert (np.abs(out - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()

    @pytest.mark.parametrize("tau", [0.3 + 40j, 0.3 + 80j, 1000j])
    def test_matches_qseries_at_large_im_tau(self, tau):
        # each point's largest term is taken out of the exponents as its log-scale; at
        # lam < 1/2 the characteristic lam - 1/2 keeps theta[1/2;1/2](0)'s column in range
        zs = [-0.3 + 0.4j, -1.1 - 0.2j, -2.0 + 1.0j]
        for tw in (TwistPair(0.31, 0.77), TwistPair.trivial(), TwistPair(0.3, 0.3),
                   TwistPair(0.7, 0.2)):
            out = twisted_pk_batch(self.KS, tw, zs, tau)
            ref = qseries_pks(self.KS, tw, zs, tau)
            assert (np.abs(out - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref))).all()

    @pytest.mark.parametrize("tw", [TwistPair(0.31, 0.77), TwistPair.trivial(),
                                    TwistPair(0.5, 0.5)], ids=str)
    def test_values_do_not_depend_on_the_batch(self, tw):
        rng = random.Random(f"invariance:{tw}")
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.5, 2.0))
        zs = [complex(rng.uniform(-15, 15), rng.uniform(-6, 6)) for _ in range(23)]
        ks = list(range(1, 8))
        out = twisted_pk_batch(ks, tw, zs, tau)
        assert np.array_equal(twisted_pk_batch(ks, tw, zs[::-1], tau), out[:, ::-1])
        twice = twisted_pk_batch(ks, tw, zs + zs[:3], tau)
        assert np.array_equal(twice, np.hstack([out, out[:, :3]]))
        assert np.array_equal(twisted_pk_batch(ks[::-1], tw, zs, tau), out[::-1])
        single = [twisted_pk(k, tw, z, tau) for k in ks for z in zs]
        assert np.array_equal(np.reshape(single, out.shape), out)

    def test_mixed_parity_batch_is_one_table_pass(self, monkeypatch):
        # z and -z at a twist that is not its own inverse: the flipped points take tw^-1's
        # numerator row of the same table, and every entry equals its one-point call
        tw = TwistPair(0.31, 0.77)
        rng = random.Random("mixed-parity")
        zs = [complex(rng.uniform(-2.5, -0.1), rng.uniform(-2, 2)) for _ in range(5)]
        zs += [-z for z in zs] + [complex(0.0, 1.3), complex(-0.0, -0.7)]
        ks = list(range(1, 8))
        calls = []
        taylor = twisted._p1_taylor
        monkeypatch.setattr(twisted, "_p1_taylor", lambda *a: calls.append(a) or taylor(*a))
        out = twisted_pk_batch(ks, tw, zs, TAU)
        assert len(calls) == 1 and calls[0][2] is not None
        single = [twisted_pk(k, tw, z, TAU) for k in ks for z in zs]
        assert len(calls) == 1 + len(single)
        assert np.array_equal(np.reshape(single, out.shape), out)

    @pytest.mark.parametrize("tw", [TwistPair(0.31, 0.77), TwistPair(0.75, 0.625),
                                    TwistPair(0.5, 0.5), TwistPair(0.5, 0.0),
                                    TwistPair(0.0, 0.5), TwistPair.trivial()], ids=str)
    def test_parity_holds_bit_for_bit(self, tw):
        # P_k[tw](z) = (-1)^k P_k[tw^-1](-z) exactly, tw^-1 inverting back to tw itself (at
        # 0.31, 1 - 0.31 rounds); at the trivial twist P_1 at the flipped one of z, -z is
        # 1 - P_1 at the other
        assert tw.inverse().inverse() == tw
        ks = np.arange(1, 8)
        zs = np.array([-1.3 + 0.4j, -0.2 - 2.1j, -4.0 + 1.0j, 2.2 + 0.3j, 9.5 - 1.2j])
        out = twisted_pk_batch(ks, tw, zs, TAU)
        partner = twisted_pk_batch(ks, tw.inverse(), -zs, TAU) * (-1.0) ** ks[:, None]
        if tw.is_trivial:
            flipped = zs.real > 0
            at_z, at_minus_z = out[0], -partner[0]
            assert np.array_equal(np.where(flipped, at_z, at_minus_z),
                                  1.0 - np.where(flipped, at_minus_z, at_z))
            out, partner = out[1:], partner[1:]
        assert np.array_equal(out, partner)

    def test_near_pole(self):
        tw = TwistPair(0.31, 0.77)
        lattice = 2j * math.pi * (2 * TAU - 1)
        for bad in (lattice, lattice + 1e-12j):
            with pytest.raises(NearPole):
                twisted_pk(3, tw, bad, TAU)
            with pytest.raises(NearPole):
                twisted_pk_batch([1, 3], tw, [Z, bad], TAU)
        with pytest.raises(NearPole):
            twisted_pk(1, TwistPair(1.5e-13, 0.0), Z, TAU)

    @pytest.mark.parametrize("tw", [TwistPair(0.0, 1e-15), TwistPair(1e-15, 0.0),
                                    TwistPair(1e-15, 1e-15), TwistPair(0.0, 1.2e-15)])
    def test_near_trivial_twist_refuses_on_both_sides(self, tw):
        # the inverse of a twist within about 1.1e-15 of trivial rounds to the trivial
        # twist: a point with Re z > 0, evaluated at -z through tw^-1, refuses as its
        # mirror image does rather than return the trivial kernel's value; both sides
        # name the point's own twist, also where tw^-1 does not round (1.2e-15)
        for z in (1j, -1j, 0.3 + 1j, -0.3 + 1j, 0.3 - 1j, -0.3 - 1j):
            with pytest.raises(NearPole, match=r"^twist .* is within 1e-12 of trivial") as info:
                twisted_pk(1, tw, z, 1j)
            assert str(info.value).startswith(f"twist {tw} is")
        # a batch raises its first point's refusal, flipped or not
        for zs in ([0.3 + 1j, -0.3 + 1j], [-0.3 + 1j, 0.3 + 1j]):
            with pytest.raises(NearPole, match=r"^twist"):
                twisted_pk_batch([1, 2], tw, zs, 1j)

    @pytest.mark.parametrize("bad", [complex(NAN, 0.1), complex(-1.0, INF)], ids=["nan", "inf"])
    def test_non_finite_z_is_a_domain_error(self, bad):
        with pytest.raises(DomainError):
            twisted_pk_batch([1], TwistPair(0.31, 0.77), [Z, bad], TAU)

    @pytest.mark.parametrize("k,message", [
        (30, r"P_30\[tw\] .*: rounding bound 1\.08e-12 over tol 1e-12$"),
        (700, r"P_700\[tw\] .*: its value leaves the float range$")], ids=["k30", "k700"])
    def test_bound_refusal_prints_the_relative_bound(self, k, message):
        # the test is err / max(1, |P_k|) <= tol, and the message prints that ratio; a
        # value past the float range has no bound to print
        with pytest.raises(NotConverged, match=message):
            twisted_pk(k, TwistPair(0.31, 0.77), -0.3 + 0.2j, 1j)

    def test_high_order_bound_is_its_own_columns(self):
        # P_15 here once printed a bound of 1.11e-12, every Taylor column charged the
        # rounding of the table's top x^j / j!; its own columns' bound passes
        tw, z = TwistPair(0.31, 0.77), -0.3 + 0.2j
        assert twisted_pk(15, tw, z, 1j) == pytest.approx(twisted_pk_oracle(15, tw, z, 1j),
                                                          rel=1e-13)

    def test_small_im_tau_is_not_converged(self):
        # the theta sums cancel to eta^3 ~ 3e-15 here: refused, not silently wrong
        with pytest.raises(NotConverged):
            twisted_pk(1, TwistPair(0.31, 0.77), -0.05 + 0.4j, 0.02j)
        with pytest.raises(NotConverged):
            twisted_pk(2, TwistPair.trivial(), -0.05 + 0.4j, 0.02j)
        # at the least float Im tau the window size itself is inf
        with pytest.raises(NotConverged, match="more than 512 terms"):
            twisted_pk(1, TwistPair(0.31, 0.77), -0.05 + 0.4j, 5e-324j)

    def test_fock_entry_the_qseries_got_wrong(self):
        # a P_7 entry of a rank-one Fock matrix in the correlators benchmark pool,
        # where the q-series was off by 1.4e-9 relative
        tw, z = TwistPair(0.5, 0.5), -0.32317448642732893 + 2.751871444876066j
        tau = -0.10620291850078084 + 1.2509418650958841j
        assert twisted_pk(7, tw, z, tau) == pytest.approx(twisted_pk_oracle(7, tw, z, tau),
                                                          rel=1e-12, abs=0)


class TestTwistedEisenstein:
    def test_series_past_the_q_order_cap_is_not_converged(self):
        # at Im tau 0.01 the terms are not below tol by r = Q_ORDER; the series has no
        # rounding bound that would make more terms safe (summed to its stop, past
        # 120 terms, E_6 is 5.6e-10 relative off a 50-digit sum at tol 1e-12)
        with pytest.raises(NotConverged, match="within Q_ORDER = 120"):
            twisted_eisenstein(6, TwistPair(0.3, 0.7), 0.3 + 0.01j)

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

    @pytest.mark.parametrize("n", range(1, 11))
    def test_lattice_oracle_pinned_twist(self, n):
        # theta = e^{-2 pi i 0.3}, phi = e^{2 pi i 0.7}
        tw = TwistPair(0.3, 0.7)
        assert twisted_eisenstein(n, tw, TAU) == pytest.approx(
            twisted_eisenstein_oracle(n, tw, TAU), rel=1e-11, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_lattice_oracle_theta_route(self, n):
        tw = TwistPair(0.62, 0.0)
        assert twisted_eisenstein(n, tw, TAU) == pytest.approx(
            twisted_eisenstein_oracle(n, tw, TAU), rel=1e-10, abs=1e-11)

    def test_oracle_large_order_is_not_converged(self):
        # the collapsed inner sum scales by 1/(n-1)!, beyond the float range from n = 172
        for tw in (TwistPair(0.3, 0.3), TwistPair(0.3, 0.0)):
            with pytest.raises(NotConverged, match="order 172 needs 171!"):
                twisted_eisenstein_oracle(172, tw, TAU)

    def test_oracle_refuses_where_its_rounding_passes_tol(self):
        # E_100[tw](i) is about -1.9e-80, and the lattice sum's terms cancel from about 1:
        # its float sum, 0.0099+0.0207i, keeps no digit
        with pytest.raises(NotConverged, match="order 100 at z = 0.*rounding bound .* over tol"):
            twisted_eisenstein_oracle(100, TwistPair(0.3, 0.7), 1j)

    def test_minus_stream_pole_is_near_pole(self):
        # lam within 1e-13 of 1: the minus stream's r = 1 denominator 1 - e^{...(1 - lam)}
        # vanishes at every tau, in the loop and in the grid alike
        tw = TwistPair(1e-13, 1 - 1e-13)
        message = "E_2 minus-stream denominator degenerate at r = 1"
        with pytest.raises(NearPole, match=message):
            twisted_eisenstein(2, tw, 1j)
        with pytest.raises(NearPole, match=message) as info:
            twisted_eisenstein_batch([2], tw, [1j])
        assert [str(e) for e in info.value.outcome[1].ravel()] == [message]

    def test_parity(self):
        tw = TwistPair(0.31, 0.77)
        for n in (1, 2, 3, 4):
            lhs = twisted_eisenstein(n, tw.inverse(), TAU)
            assert lhs == pytest.approx((-1.0) ** n * twisted_eisenstein(n, tw, TAU),
                                        rel=1e-12, abs=1e-13)


def seed_eisenstein(n, tau, tol=1e-12, q_order=120):
    """The classical E_n q-series loop the shared series replaced, kept as its reference."""
    q = cmath.exp(2j * math.pi * tau)
    acc = 0.0 + 0.0j
    for r in range(1, q_order + 1):
        qr = q**r
        try:
            term = r ** (n - 1) * qr / (1.0 - qr)
        except OverflowError:
            raise NotConverged(f"E_{n} term overflows at r = {r}") from None
        acc += term
        if abs(term) < tol:
            break
    else:
        raise NotConverged(f"E_{n} not below tol within q_order")
    try:
        scale = 2.0 / math.factorial(n - 1)
    except OverflowError:
        raise NotConverged(f"E_{n} needs (n-1)! as a float") from None
    return -bernoulli_over_factorial(n) + scale * acc


def seed_twisted_eisenstein(n, tw, tau, tol=1e-12, q_order=120):
    """The two-stream E_n[tw] loop the shared series took over, kept as its reference;
    a float overflow raises OverflowError, as it did there."""
    lam, mu = tw.lam, tw.mu
    qtau = 2j * math.pi * tau
    th_inv = cmath.exp(2j * math.pi * mu)
    th = cmath.exp(-2j * math.pi * mu)
    plus = 0.0 + 0.0j
    minus = 0.0 + 0.0j
    for r in range(q_order + 1):
        biggest = 0.0
        if not (r == 0 and tw.is_trivial):
            w = th_inv * cmath.exp(qtau * (r + lam))
            if abs(1.0 - w) < 1e-12:
                raise NearPole(f"E_{n} plus-stream denominator degenerate at r = {r}")
            t = (r + lam) ** (n - 1) * w / (1.0 - w)
            plus += t
            biggest = max(biggest, abs(t))
        if r >= 1:
            v = th * cmath.exp(qtau * (r - lam))
            if abs(1.0 - v) < 1e-12:
                raise NearPole(f"E_{n} minus-stream denominator degenerate at r = {r}")
            t = (r - lam) ** (n - 1) * v / (1.0 - v)
            minus += t
            biggest = max(biggest, abs(t))
        if r >= 1 and biggest < tol:
            break
    else:
        raise NotConverged(f"E_{n}[tw] not below tol within q_order")
    fac = math.factorial(n - 1)
    return (-bernoulli_poly(n, lam) / math.factorial(n)
            + plus / fac + (-1.0) ** n * minus / fac)


def loop_eisenstein_batch(ns, tw, taus):
    """twisted_eisenstein over every (n, tau) in row order, each order's prefactors
    checked before its row: what twisted_eisenstein_batch returns or raises."""
    rows = []
    for n in ns:
        _eisenstein_prefactors(n, tw.lam, tw.is_trivial)
        rows.append([twisted_eisenstein(n, tw, tau) for tau in taus])
    return rows


def outcome(fn, *args):
    """("ok", value) or (error type and message, None)."""
    try:
        return "ok", fn(*args)
    except TwistellError as exc:
        return f"{type(exc).__name__}: {exc}", None


def verdict(fn, *args):
    """fn's value, or "refused" when it raises NotConverged (OverflowError in a seed loop)."""
    try:
        return fn(*args)
    except (NotConverged, OverflowError):
        return "refused"


def series_scale(n, tau):
    """|B_n/n!| + 2/(n-1)! * sum_r |r^(n-1) q^r/(1 - q^r)|: the size float rounding
    in the E_n q-series acts on, which exceeds |E_n| where the terms cancel."""
    q = cmath.exp(2j * math.pi * tau)
    acc = 0.0
    for r in range(1, 121):
        qr = q**r
        term = abs(r ** (n - 1) * qr / (1.0 - qr))
        acc += term
        if term < 1e-12:
            break
    return abs(bernoulli_over_factorial(n)) + 2.0 / math.factorial(n - 1) * acc


def sample_tau(rng):
    """tau with Re in [-0.5, 0.5] and Im log-uniform in [0.06, 3]."""
    return complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(0.06), math.log(3))))


class TestEisensteinSeries:
    """eisenstein and twisted_eisenstein share one q-series; the two loops it
    replaced stay here as references."""

    def test_nontrivial_twists_bit_for_bit(self):
        rng = random.Random(71)
        refused = 0
        for _ in range(400):
            mu, lam = rng.choice([(rng.random(), rng.random()), (rng.random(), 0.0),
                                  (0.0, rng.random())])
            tw = TwistPair(mu, lam)
            n = rng.choice([rng.randint(1, 12), rng.randint(13, 171)])
            tau = sample_tau(rng)
            new = verdict(twisted_eisenstein, n, tw, tau)
            assert new == verdict(seed_twisted_eisenstein, n, tw, tau), (n, tw, tau)
            refused += new == "refused"
        assert 0 < refused < 400

    def test_trivial_twist_matches_classical_and_both_seeds(self):
        # relative to the size of the summed terms, since near Re tau = 1/2 they
        # cancel to an E_n far below them (|E_40| = 1.4e-22 from a scale of 1e-10
        # at tau = 0.49 + 0.29i, where the two loops differ by 3e-4 of |E_40|)
        rng = random.Random(72)
        triv = TwistPair.trivial()
        values = 0
        for _ in range(400):
            n = 2 * rng.randint(1, 85)
            tau = sample_tau(rng)
            new = verdict(eisenstein, n, tau)
            assert verdict(twisted_eisenstein, n, triv, tau) == new
            old, old_tw = verdict(seed_eisenstein, n, tau), \
                verdict(seed_twisted_eisenstein, n, triv, tau)
            assert (old == "refused") == (new == "refused"), (n, tau)
            assert (old_tw == "refused") == (new == "refused"), (n, tau)
            if new != "refused":
                values += 1
                scale = series_scale(n, tau)
                assert abs(new - old) <= 1e-14 * scale, (n, tau)
                assert abs(new - old_tw) <= 1e-14 * scale, (n, tau)
        assert 0 < values < 400

    def test_batch_is_the_scalar_bit_for_bit(self, monkeypatch):
        # 25-tau lines down to Im tau 0.02, where low orders refuse at the Q_ORDER cap,
        # orders up to 171, where (r +- lam)^(n-1) and 171! overflow, a repeated order,
        # every kind of twist, and a near-trivial one at the r = 0 pole
        rng = random.Random(73)
        loop_calls = []
        series = classical._eisenstein_series
        monkeypatch.setattr(classical, "_eisenstein_series",
                            lambda *args: loop_calls.append(args) or series(*args))
        outcomes = []
        for i in range(64):
            tw = [TwistPair.trivial(), TwistPair(rng.random(), rng.random()),
                  TwistPair(0.0, rng.random()), TwistPair(rng.random(), 0.0)][i % 4]
            ns = rng.sample(range(1, 172), 3) if i % 3 == 0 else rng.sample(range(1, 13), 3)
            if i == 61:
                ns = [2, 5, 2]
            if i == 62:
                ns = [3, 171, 2]
            if i == 63:
                tw, ns = TwistPair(1e-13, 0.0), [2, 1, 3]
            lo = math.exp(rng.uniform(math.log(0.02), math.log(1.5)))
            taus = [complex(rng.uniform(-0.5, 0.5), lo * math.exp(rng.uniform(0, 1.5)))
                    for _ in range(25)]
            want = outcome(loop_eisenstein_batch, ns, tw, taus)
            loop_calls.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = outcome(twisted_eisenstein_batch, ns, tw, taus)
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            if want[0] == "ok":
                assert got[0] == "ok" and got[1].shape == (3, 25), (ns, tw, taus)
                # every bit, the signs of zeros included; all from the numpy pass
                assert np.array_equal(np.array(want[1]).view(np.int64), got[1].view(np.int64))
                assert not loop_calls
            else:
                assert got == want, (ns, tw, taus)
            outcomes.append(want[0])
        assert 20 < outcomes.count("ok") < 44
        for kind in ("NearPole", "within Q_ORDER", "term r^", "past 170!"):
            assert any(kind in out for out in outcomes), kind
        # 200-tau lines, Im tau 0.02 to 2 in random order, span several of the grid's
        # blocks: each entry is the loop's value bit for bit or its refusal, and the
        # grid raises the loop's first error
        kinds = []
        for tw, ns in ((TwistPair(rng.random(), rng.random()), [1, 2, 3]),
                       (TwistPair.trivial(), [1, 2, 3]), (TwistPair.trivial(), [3, 171, 2]),
                       (TwistPair(0.0, rng.random()), [3, 171, 2])):
            taus = [complex(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(0.02),
                                                                         math.log(2))))
                    for _ in range(200)]
            assert (outcome(twisted_eisenstein_batch, ns, tw, taus)[0]
                    == outcome(loop_eisenstein_batch, ns, tw, taus)[0])
            try:
                got, statuses = twisted_eisenstein_batch(ns, tw, taus), None
            except TwistellError as exc:
                got, statuses = exc.outcome
            for i, n in enumerate(ns):
                for j, tau in enumerate(taus):
                    kind, value = outcome(twisted_eisenstein, n, tw, tau)
                    status = None if statuses is None else statuses[i, j]
                    if kind == "ok":
                        assert status is None, (n, tau)
                        assert (np.array([got[i, j]]).view(np.int64).tolist()
                                == np.array([value]).view(np.int64).tolist()), (n, tau)
                    else:
                        assert f"{type(status).__name__}: {status}" == kind, (n, tau)
                    kinds.append(kind)
        assert kinds.count("ok") > len(kinds) // 2
        for kind in ("within Q_ORDER", "term r^"):
            assert any(kind in k for k in kinds), kind

    def test_batch_domain(self):
        tw = TwistPair(0.3, 0.7)
        assert twisted_eisenstein_batch([1, 2], tw, []).shape == (2, 0)
        assert twisted_eisenstein_batch([], tw, [1j]).shape == (0, 1)
        with pytest.raises(ValueError, match="n >= 1"):
            twisted_eisenstein_batch([1, 0], tw, [1j])
        with pytest.raises(DomainError):
            twisted_eisenstein_batch([1], tw, [1j, -1j])

    def test_overflow_is_not_converged(self):
        tw = TwistPair(0.3, 0.3)
        with pytest.raises(NotConverged, match=r"E_150 q-series term r\^149 overflows"):
            twisted_eisenstein(150, tw, 1j)
        with pytest.raises(NotConverged, match="E_171"):
            twisted_eisenstein(171, tw, 5j)
        with pytest.raises(NotConverged, match="E_343"):
            coeff_C(172, 172, tw, 1j)
        # the binomial C(1198, 599) leaves the float range before E_1199 or P_1199 is summed
        with pytest.raises(NotConverged, match=r"C\(1198, 599\)"):
            coeff_C(600, 600, tw, 1j)
        with pytest.raises(NotConverged, match=r"C\(1198, 599\)"):
            coeff_D(600, 600, tw, -1 + 0.2j, 1j)

    @pytest.mark.parametrize("call", [
        lambda tau: eisenstein(2, tau),
        lambda tau: twisted_eisenstein(2, TwistPair(0.3, 0.3), tau),
        lambda tau: twisted_eisenstein_batch([1, 2], TwistPair(0.3, 0.3), [1j, tau]),
    ], ids=["eisenstein", "twisted_eisenstein", "batch"])
    def test_exponent_past_the_float_range_is_not_converged(self, call):
        # 2 pi i tau r is infinite from r = 3 at Re tau = 1e307: cmath.exp raised a raw
        # ValueError there; the grid hands such a tau to the loop
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotConverged, match="exponent 2 pi i tau r"):
                call(1e307 + 1j)


def fit_c_grid(tw, tau, kmax=3, n=12, r1=0.2, r2=0.13):
    """Bivariate Fourier fit of P_1[tw](z1 - z2) - 1/(z1 - z2).

    Uses the lattice oracle, which shares nothing with the theta kernel, as the
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
            row.append(twisted_pk_oracle(1, tw, z1 - z2, tau) - 1 / (z1 - z2))
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
            rhs = -twisted_pk(k + l - 1, tw.inverse(), -Z, TAU) \
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
            lhs = twisted_pk(k, gtw, gz, gtau)
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
    (lambda: TwistPair(NAN, 0.3), DomainError),
    (lambda: TwistPair(0.3, INF), DomainError),
], ids=["pfaffian-nan", "pfaffian-inf", "pk-tau-inf", "pk-z-inf", "pk-z-nan",
        "eisenstein-tau-inf", "prime-form-nan", "theta-inf", "rank1-nan", "twist-nan",
        "twist-inf"])
def test_non_finite_input_raises(call, error):
    with pytest.raises(error):
        call()


_P = OrbifoldParams(0.2, 0.3)
_TW = TwistPair(0.31, 0.77)


@pytest.mark.parametrize("call", [
    lambda z, tau: theta_char(0.3, 0.2, z, tau),
    lambda z, tau: theta_char(0.5, 0.5, z, tau),
    prime_form,
    p0,
    lambda z, tau: twisted_pk(2, _TW, z, tau),
    lambda z, tau: weierstrass_pk(2, z, tau),
    lambda z, tau: coeff_D(1, 2, _TW, z, tau),
    lambda z, tau: twisted_pk_oracle(2, _TW, z, tau),
    lambda z, tau: twisted_eisenstein(2, _TW, tau),
    lambda z, tau: twisted_eisenstein_oracle(2, _TW, tau),
    lambda z, tau: eisenstein(4, tau),
    lambda z, tau: dedekind_eta(tau),
    lambda z, tau: rank2_partition(_P, tau),
    lambda z, tau: rank2_partition_theta(_P, tau),
    lambda z, tau: rank1_generating(GSelector.IDENTITY, [z, 0.1j], tau),
    lambda z, tau: rank2_generating(_P, [z], [0.1j], tau),
    lambda z, tau: rank2_generating_boson(_P, [z], [0.1j], tau),
], ids=["theta_char", "theta_char-odd", "prime_form", "p0", "twisted_pk", "weierstrass_pk",
        "coeff_D", "twisted_pk_oracle", "twisted_eisenstein", "twisted_eisenstein_oracle",
        "eisenstein", "dedekind_eta", "rank2_partition", "rank2_partition_theta",
        "rank1_generating", "rank2_generating", "rank2_generating_boson"])
def test_extreme_inputs_refuse_cleanly(call):
    # z and tau at the edges of the float range, Im tau tiny and huge: a finite value or
    # a TwistellError, and no numpy warning or raw OverflowError on the way
    zs = [1e308, -1e308, complex(-1e308, -1e308), 1e300j, -1.0, 0.3j]
    taus = [3e306 + 1j, 0.5 + 0.03j, 1e-5j, 1e5j, 1j]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for z in zs:
            for tau in taus:
                try:
                    assert cmath.isfinite(call(z, tau)), (z, tau)
                except TwistellError:
                    pass


def test_lattice_distance_past_the_float_range_is_not_converged():
    # m tau of z's lattice row overflows: round() of its infinite real part raised
    with pytest.raises(NotConverged, match="m tau leaves the float range"):
        lattice_distance(-1e308, 3e306 + 1j)
    with pytest.raises(NotConverged, match="m tau leaves the float range"):
        twisted_pk_oracle(2, _TW, -1e308, 3e306 + 1j)
