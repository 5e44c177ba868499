"""Rank-one Pfaffian and rank-two determinant correlators, multipliers."""

import cmath
import math
import random
import zlib

import numpy as np
import pytest

from twistell import (
    DEFAULT_CONFIG,
    BalanceError,
    DomainError,
    FockLabelRank1,
    FockLabelRank2,
    GroupElement,
    GSelector,
    NearPole,
    NotConverged,
    OrbifoldParams,
    TwistPair,
    UnsupportedTwist,
    alternating_sign,
    binomial,
    coeff_C,
    coeff_D,
    dedekind_eta,
    determinant,
    epsilon_S,
    epsilon_T,
    generator_word,
    lattice_npoint,
    modular_multiplier,
    p1_difference_matrix,
    pfaffian,
    prime_form,
    rank1_fock_npoint,
    rank1_generating,
    rank1_partition,
    rank1_sigma_twisted_generating,
    rank2_fock_npoint,
    rank2_generating,
    rank2_generating_boson,
    rank2_partition,
    rank2_partition_theta,
    sigma_module_partition,
    theta_char,
    twisted_eisenstein,
    twisted_pk,
    twisted_pk_oracle,
    weierstrass_pk,
)
from twistell import classical, fermion

TAU = 0.12 + 1.1j
Q = cmath.exp(2j * math.pi * TAU)


def q_pow(s):
    return cmath.exp(2j * math.pi * TAU * s)


class TestRank1Partition:
    def test_identity_vs_product(self):
        prod = q_pow(-1.0 / 48.0)
        for n in range(0, 200):
            prod *= 1 - q_pow(n + 0.5)
        assert rank1_partition(GSelector.IDENTITY, TAU) == pytest.approx(prod, rel=1e-12)

    def test_sigma_vs_product(self):
        prod = q_pow(-1.0 / 48.0)
        for n in range(0, 200):
            prod *= 1 + q_pow(n + 0.5)
        assert rank1_partition(GSelector.SIGMA, TAU) == pytest.approx(prod, rel=1e-12)

    def test_leading_term(self):
        tau = 50j
        val = rank1_partition(GSelector.IDENTITY, tau)
        assert val * cmath.exp(2j * math.pi * tau / 48) == pytest.approx(1.0, abs=1e-12)

    def test_sigma_module_vs_product(self):
        prod = q_pow(1.0 / 24.0)
        for n in range(1, 200):
            prod *= 1 + q_pow(n)
        assert sigma_module_partition(TAU) == pytest.approx(prod, rel=1e-12)


class TestRank1Generating:
    def test_one_point_vanishes(self):
        assert rank1_generating(GSelector.IDENTITY, [-1.0 + 0.2j], TAU) == 0

    def test_two_point_value(self):
        zs = [-1.1 + 0.3j, -0.4 - 0.2j]
        for g, tw in [(GSelector.IDENTITY, TwistPair(0.0, 0.5)),
                      (GSelector.SIGMA, TwistPair(0.5, 0.5))]:
            lhs = rank1_generating(g, zs, TAU)
            rhs = twisted_pk(1, tw, zs[0] - zs[1], TAU) * rank1_partition(g, TAU)
            assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_four_point_antisymmetry(self):
        zs = [-2.2 + 0.4j, -1.6 - 0.5j, -1.0 + 0.1j, -0.3 - 0.15j]
        base = rank1_generating(GSelector.IDENTITY, zs, TAU)
        swap = rank1_generating(GSelector.IDENTITY,
                                [zs[1], zs[0], zs[2], zs[3]], TAU)
        assert swap == pytest.approx(-base, rel=1e-12)

    def test_coincident_points_rejected(self):
        with pytest.raises(DomainError):
            rank1_generating(GSelector.IDENTITY, [-1.0, -1.0], TAU)

    def test_non_finite_point_is_a_domain_error(self):
        # the differences are taken in numpy: inf - inf is nan there too, without a warning
        inf = complex(math.inf, 0.0)
        with pytest.raises(DomainError, match="finite"):
            rank1_generating(GSelector.SIGMA, [inf, -1.0], TAU)
        with pytest.raises(DomainError, match="finite"):
            rank2_generating(OrbifoldParams(0.27, 0.63), [inf], [inf], TAU)

    def test_coincidence_names_the_first_pair(self):
        # (0, 4) comes before (1, 3) in row-major pair order
        zs = [-1.0, -0.5 + 0.2j, -0.2, -0.5 + 0.2j, -1.0, 0.3]
        with pytest.raises(DomainError, match=r"^insertion points must be pairwise distinct; "
                                              r"entries 0 and 4 coincide at \(-1\+0j\)$"):
            rank1_generating(GSelector.IDENTITY, zs, TAU)
        with pytest.raises(DomainError, match=r"^psi- points .* entries 0 and 2 coincide"):
            rank2_generating(OrbifoldParams(0.27, 0.63), [-1.0, -0.5, -0.2],
                             [-0.3j, 0.1, -0.3j], TAU)


def extract_coeff_2d(fn, z1, z2, orders, n=16, r1=0.22, r2=0.15):
    """Fourier-extract the coefficient x^orders[0] y^orders[1] of fn(z1+x, z2+y)."""
    angs = [2 * math.pi * (j + 0.5) / n for j in range(n)]
    acc = 0j
    for aa in angs:
        for bb in angs:
            x = r1 * cmath.exp(1j * aa)
            y = r2 * cmath.exp(1j * bb)
            acc += fn(z1 + x, z2 + y) * cmath.exp(-1j * (orders[0] * aa + orders[1] * bb))
    return acc / n**2 / r1 ** orders[0] / r2 ** orders[1]


class TestRank1Fock:
    def test_single_label_pair(self):
        z = -1.0 + 0.2j
        lhs = rank1_fock_npoint([FockLabelRank1((1, 2))], [z], GSelector.IDENTITY, TAU)
        rhs = coeff_C(1, 2, TwistPair(0.0, 0.5), TAU) * rank1_partition(
            GSelector.IDENTITY, TAU)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_two_single_modes_reproduce_generating(self):
        zs = [-1.1 + 0.3j, -0.4 - 0.2j]
        lhs = rank1_fock_npoint([(1,), (1,)], zs, GSelector.IDENTITY, TAU)
        assert lhs == pytest.approx(rank1_generating(GSelector.IDENTITY, zs, TAU),
                                    rel=1e-13)

    def test_odd_mode_count_vanishes(self):
        zs = [-1.1 + 0.3j, -0.4 - 0.2j]
        assert rank1_fock_npoint([(1,), (1, 2)], zs, GSelector.IDENTITY, TAU) == 0

    def test_against_generating_coefficient(self):
        # labels ((1,), (2,)): coefficient x^0 y^1 of G_2(x + z1, y + z2)
        g = GSelector.IDENTITY
        z1, z2 = -1.5 + 0.25j, -0.35 - 0.2j
        lhs = rank1_fock_npoint([(1,), (2,)], [z1, z2], g, TAU)
        rhs = extract_coeff_2d(
            lambda a, b: rank1_generating(g, [a, b], TAU), z1, z2, (0, 1))
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_binomial_past_the_float_range_is_not_converged(self):
        # C(599, 600) needs the binomial C(1198, 599), past the float range
        with pytest.raises(NotConverged, match=r"C\(1198, 599\)"):
            rank1_fock_npoint([(599, 600)], [-1.0 + 0.2j], GSelector.SIGMA, TAU)

    def test_label_validation(self):
        with pytest.raises(ValueError):
            FockLabelRank1((2, 1))
        with pytest.raises(ValueError):
            FockLabelRank1((0, 1))


class TestSigmaTwistedModule:
    def test_odd_vanishes(self):
        assert rank1_sigma_twisted_generating([-1.0 + 0.1j], TAU) == 0

    def test_two_point_value(self):
        zs = [-1.1 + 0.3j, -0.4 - 0.2j]
        lhs = rank1_sigma_twisted_generating(zs, TAU)
        rhs = twisted_pk(1, TwistPair(0.5, 0.0), zs[0] - zs[1], TAU) \
            * sigma_module_partition(TAU)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_periodicity_multiplier_minus_one(self):
        # shifting z12 by 2*pi*i*tau multiplies the kernel by theta = -1
        z12 = -0.7 + 0.5j
        tw = TwistPair(0.5, 0.0)
        lhs = twisted_pk_oracle(1, tw, z12 + 2j * math.pi * TAU, TAU)
        assert lhs == pytest.approx(-twisted_pk(1, tw, z12, TAU), rel=1e-10)


class TestRank2Partition:
    def test_trivial_twist_vanishes(self):
        assert rank2_partition(OrbifoldParams(0.0, 0.0), TAU) == 0
        assert rank2_partition(OrbifoldParams(1.0, -1.0), TAU) == 0

    @pytest.mark.parametrize("alpha,beta", [(0.3, 0.2), (0.5, 0.5), (0.1, 0.9)])
    def test_theta_form(self, alpha, beta):
        p = OrbifoldParams(alpha, beta)
        assert rank2_partition(p, TAU) == pytest.approx(
            rank2_partition_theta(p, TAU), rel=1e-12)

    def test_half_zero_is_twice_squared_eta_ratio(self):
        # (alpha, beta) = (1/2, 0): the product collapses to
        # 2 q^{1/12} prod (1+q^n)^2 = 2 (eta(2 tau)/eta(tau))^2
        p = OrbifoldParams(0.5, 0.0)
        direct = q_pow(1.0 / 8.0 - 1.0 / 24.0)
        for l in range(1, 300):
            direct *= (1 + q_pow(l - 1.0)) * (1 + q_pow(float(l)))
        assert rank2_partition(p, TAU) == pytest.approx(direct, rel=1e-12)
        ratio = dedekind_eta(2 * TAU) / dedekind_eta(TAU)
        assert rank2_partition(p, TAU) == pytest.approx(2 * ratio**2, rel=1e-12)

    def test_far_beta_agrees_with_the_theta_form(self):
        p = OrbifoldParams(0.3, 14.0)
        assert abs(rank2_partition(p, 1j) - rank2_partition_theta(p, 1j)) <= 1e-10

    @pytest.mark.parametrize("beta,tau", [(14.8, 1j), (14.9, 1j), (15.0, 1j),
                                          (0.7, 0.1 + 165j)])
    def test_product_at_large_beta_matches_the_theta_form(self, beta, tau):
        # the product at beta - round(beta) keeps its prefactor and factors in range
        p = OrbifoldParams(0.3, beta)
        rhs = rank2_partition_theta(p, tau)
        assert abs(rank2_partition(p, tau) - rhs) <= 1e-12 * abs(rhs)

    def test_product_past_the_float_range_is_not_converged(self):
        # kappa = 0.7 at Im tau = 600: the prefactor e^-766 would underflow and the l = 1
        # factor e^754 overflow; taken together they are e^-12.6, and Z is in range
        p, tau = OrbifoldParams(0.3, 0.2), 0.1 + 600j
        rhs = rank2_partition_theta(p, tau)
        assert abs(rank2_partition(p, tau) - rhs) <= 1e-12 * abs(rhs)
        # kappa = 0.2 at Im tau = 6000: |Z| ~ e^818 itself leaves the float range
        with pytest.raises(NotConverged, match="leaves the float range"):
            rank2_partition(OrbifoldParams(0.3, 0.7), 0.1 + 6000j)

    @pytest.mark.parametrize("alpha,beta,tau", [
        (0.3, 0.2, 0.1 + 1.1j), (0.71, 0.45, -0.2 + 0.9j), (0.3, -0.6, 0.3 + 80j),
        (0.55, 2.1, 0.1 + 300j)])
    def test_kappa_above_one_half_matches_the_theta_form(self, alpha, beta, tau):
        # the l = 1 factor's negative power of q taken into the prefactor
        p = OrbifoldParams(alpha, beta)
        rhs = rank2_partition_theta(p, tau)
        assert abs(rank2_partition(p, tau) - rhs) <= 1e-12 * abs(rhs)

    def test_reduced_beta_keeps_an_exact_phase(self):
        # (-e^{2 pi i alpha})^n = e^{2 pi i n 7/8} is exactly 1 at alpha = 3/8, n = 2^60
        tau = 0.2 + 0.9j
        assert rank2_partition(OrbifoldParams(0.375, 2.0**60), tau) == \
            rank2_partition(OrbifoldParams(0.375, 0.0), tau)

    @pytest.mark.parametrize("tau", [1j, 0.2 + 0.9j])
    @pytest.mark.parametrize("n", [15, 36, 60])
    def test_theta_form_beta_shift(self, n, tau):
        # Z(beta + n) = (-e^{2 pi i alpha})^n Z(beta) at every real beta
        lhs = rank2_partition_theta(OrbifoldParams(0.3, 0.3 + n), tau)
        rhs = (-cmath.exp(0.6j * math.pi)) ** n * rank2_partition_theta(
            OrbifoldParams(0.3, 0.3), tau)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    @pytest.mark.parametrize("beta", [0.25 + 1e9, -3.7e6 + 0.125, 1e300])
    def test_theta_form_keeps_the_phase_of_a_large_beta(self, beta):
        # the prefactor's phase (alpha+1/2)(beta+1/2) is reduced mod 1 exactly, and the
        # characteristic -beta+1/2 is taken as 1/2 - (beta mod 1), so 1e300 keeps its 1/2
        p = OrbifoldParams(0.3, beta)
        ref = rank2_partition(p, 1j)
        assert abs(rank2_partition_theta(p, 1j) - ref) <= 1e-12 * abs(ref)

    def test_kappa_uses_raw_beta(self):
        # |Z| is periodic in beta; the phase is an alpha-dependent constant
        p0 = OrbifoldParams(0.3, 0.2)
        p1 = OrbifoldParams(0.3, 1.2)
        z0 = rank2_partition(p0, TAU)
        z1 = rank2_partition(p1, TAU)
        assert abs(z1) == pytest.approx(abs(z0), rel=1e-12)
        assert z1 / z0 == pytest.approx(-cmath.exp(2j * math.pi * 0.3), rel=1e-12)


class TestRank2Generating:
    def test_trivial_one_pair_is_minus_eta_squared(self):
        p = OrbifoldParams(0.0, 0.0)
        val = rank2_generating(p, [-1.0 + 0.1j], [-0.2 - 0.1j], TAU)
        assert val == pytest.approx(-dedekind_eta(TAU) ** 2, rel=1e-14)

    def test_nontrivial_one_pair(self):
        p = OrbifoldParams(0.27, 0.63)
        x, y = -1.0 + 0.1j, -0.2 - 0.1j
        lhs = rank2_generating(p, [x], [y], TAU)
        rhs = twisted_pk(1, p.twist(), x - y, TAU) * rank2_partition(p, TAU)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_difference_outside_the_annulus(self):
        # x - y = 0.5 + 0.3i has Re > 0, outside the q-series annulus; the bosonized
        # form covers it too
        p = OrbifoldParams(0.27, 0.63)
        x, y = 0.5 + 0.1j, -0.2j
        lhs = rank2_generating(p, [x], [y], TAU)
        rhs = twisted_pk(1, p.twist(), x - y, TAU) * rank2_partition(p, TAU)
        assert lhs == pytest.approx(rhs, rel=1e-13)
        assert lhs == pytest.approx(rank2_generating_boson(p, [x], [y], TAU), rel=1e-12)

    def test_antisymmetric_in_like_insertions(self):
        p = OrbifoldParams(0.27, 0.63)
        xs = [-1.9 + 0.3j, -1.2 - 0.4j]
        ys = [-0.3 + 0.2j, -0.45 - 0.25j]
        base = rank2_generating(p, xs, ys, TAU)
        assert rank2_generating(p, xs[::-1], ys, TAU) == pytest.approx(-base, rel=1e-12)
        assert rank2_generating(p, xs, ys[::-1], TAU) == pytest.approx(-base, rel=1e-12)

    def test_half_integer_twist_squares_rank_one(self):
        # a-state insertions at (theta, phi) = (-1, -1): the determinant over n
        # points is the square of the parity-trace rank-one Pfaffian there,
        # and at (-1, +1) of the parity-twisted-module Pfaffian
        zs = [-1.9 + 0.3j, -0.45 - 0.25j]
        p = OrbifoldParams(0.5, 0.5)
        lhs = rank2_fock_npoint([((1,), (1,))] * 2, zs, p, TAU) / rank2_partition(p, TAU)
        g = rank1_generating(GSelector.SIGMA, zs, TAU) / rank1_partition(
            GSelector.SIGMA, TAU)
        assert lhs == pytest.approx(g**2, rel=1e-11)
        p = OrbifoldParams(0.5, 0.0)
        lhs = rank2_fock_npoint([((1,), (1,))] * 2, zs, p, TAU) / rank2_partition(p, TAU)
        g = rank1_sigma_twisted_generating(zs, TAU) / sigma_module_partition(TAU)
        assert lhs == pytest.approx(g**2, rel=1e-11)


class TestRank2Fock:
    P = OrbifoldParams(0.27, 0.63)

    def test_one_point_a_state(self):
        z = -1.0 + 0.2j
        lhs = rank2_fock_npoint([((1,), (1,))], [z], self.P, TAU)
        rhs = -twisted_eisenstein(1, self.P.twist(), TAU) * rank2_partition(self.P, TAU)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_two_point_a_state_matrix(self):
        zs = [-1.4 + 0.3j, -0.4 - 0.2j]
        pair = self.P.twist()
        lhs = rank2_fock_npoint([((1,), (1,)), ((1,), (1,))], zs, self.P, TAU)
        e1 = twisted_eisenstein(1, pair, TAU)
        p12 = twisted_pk(1, pair, zs[0] - zs[1], TAU)
        p21 = twisted_pk(1, pair, zs[1] - zs[0], TAU)
        rhs = (e1 * e1 - p12 * p21) * rank2_partition(self.P, TAU)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_three_point_a_state_half_twist_vanishes(self):
        zs = [-2.0 + 0.4j, -1.2 - 0.5j, -0.5 + 0.1j]
        p = OrbifoldParams(0.5, 0.5)
        val = rank2_fock_npoint([((1,), (1,))] * 3, zs, p, TAU)
        assert abs(val) < 1e-12

    def test_charge_imbalance_vanishes(self):
        zs = [-1.4 + 0.3j, -0.4 - 0.2j]
        assert rank2_fock_npoint([((1, 2), (1,)), ((1,), (1,))], zs, self.P, TAU) == 0

    def test_trivial_twist_unsupported(self):
        with pytest.raises(UnsupportedTwist):
            rank2_fock_npoint([((1,), (1,))], [-1.0], OrbifoldParams(0.0, 0.0), TAU)

    def test_epsilon_against_contour_oracle(self):
        # vec1 = psi+ modes (1,2), vec2 = psi- modes (1,2): grouped order
        # [+,+,-,-] needs one adjacent swap into the alternating order
        z1, z2 = -1.6 + 0.25j, -0.35 - 0.2j
        lhs = rank2_fock_npoint([((1, 2), ()), ((), (1, 2))], [z1, z2], self.P, TAU)
        pair = self.P.twist()
        n, r = 6, 0.18
        angs = [2 * math.pi * (j + 0.5) / n for j in range(n)]
        acc = 0j
        for ia in range(n):
            for ib in range(n):
                for ic in range(n):
                    for idx in range(n):
                        xs = [z1 + r * cmath.exp(1j * angs[ia]),
                              z1 + r * cmath.exp(1j * angs[ib])]
                        ys = [z2 + r * cmath.exp(1j * angs[ic]),
                              z2 + r * cmath.exp(1j * angs[idx])]
                        m = [[twisted_pk(1, pair, x - y, TAU) for y in ys]
                             for x in xs]
                        det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
                        w = cmath.exp(-1j * (angs[ib] + angs[idx]))
                        acc += det * w
        coef = acc / n**4 / r**2
        rhs = -coef * rank2_partition(self.P, TAU)  # eps = -1 for [+,+,-,-]
        assert lhs == pytest.approx(rhs, rel=1e-3)

    def test_alternating_sign_cases(self):
        assert alternating_sign([1, 1], [1, 1]) == 1      # already alternating
        assert alternating_sign([2, 0], [0, 2]) == -1     # [+,+,-,-]
        assert alternating_sign([1], [1]) == 1
        assert alternating_sign([3, 0], [0, 3]) == -1     # N=3: sign (-1)^3

    def test_label_validation(self):
        with pytest.raises(ValueError):
            FockLabelRank2((1, 1), (2,))


class TestBosonized:
    P = OrbifoldParams(0.27, 0.63)

    def test_one_pair_theta_over_prime_form(self):
        x, y = -1.0 + 0.1j, -0.2 - 0.1j
        pref = cmath.exp(2j * math.pi * (self.P.alpha + 0.5) * (self.P.beta + 0.5))
        rhs = pref / dedekind_eta(TAU) * theta_char(
            -self.P.beta + 0.5, self.P.alpha + 0.5, x - y, TAU) / prime_form(x - y, TAU)
        assert rank2_generating_boson(self.P, [x], [y], TAU) == pytest.approx(
            rhs, rel=1e-13)

    def test_trivial_one_pair(self):
        val = rank2_generating_boson(OrbifoldParams(0.0, 0.0),
                                     [-1.0 + 0.1j], [-0.2 - 0.1j], TAU)
        assert val == pytest.approx(-dedekind_eta(TAU) ** 2, rel=1e-12)

    def test_matches_determinant_form(self):
        rng = random.Random(77)
        for _ in range(3):
            xs = [complex(rng.uniform(-2.2, -0.8), rng.uniform(-0.8, 0.8))
                  for _ in range(2)]
            ys = [complex(rng.uniform(-0.5, -0.05), rng.uniform(-0.8, 0.8))
                  for _ in range(2)]
            lhs = rank2_generating(self.P, xs, ys, TAU)
            rhs = rank2_generating_boson(self.P, xs, ys, TAU)
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestLattice:
    P = OrbifoldParams(0.27, 0.63)

    def test_unit_charges_reduce_to_boson_generator(self):
        x, y = -1.0 + 0.1j, -0.2 - 0.1j
        assert lattice_npoint(self.P, [1], [x], [1], [y], TAU) == pytest.approx(
            rank2_generating_boson(self.P, [x], [y], TAU), rel=1e-13)

    def test_charge_two_formula(self):
        x, y = -1.0 + 0.1j, -0.2 - 0.1j
        pref = cmath.exp(2j * math.pi * (self.P.alpha + 0.5) * (self.P.beta + 0.5))
        rhs = pref / dedekind_eta(TAU) * theta_char(
            -self.P.beta + 0.5, self.P.alpha + 0.5, 2 * (x - y), TAU) \
            / prime_form(x - y, TAU) ** 4
        assert lattice_npoint(self.P, [2], [x], [2], [y], TAU) == pytest.approx(
            rhs, rel=1e-12)

    def test_balance_enforced(self):
        with pytest.raises(BalanceError):
            lattice_npoint(self.P, [2], [-1.0], [1], [-0.2], TAU)


# ---------------------------------------------------------------------------
# the bosonized forms against the pairwise prime-form loops they replaced
# ---------------------------------------------------------------------------

def boson_prefactor(p, arg, tau):
    pref = cmath.exp(2j * math.pi * (p.alpha + 0.5) * (p.beta + 0.5))
    return pref / dedekind_eta(tau) * theta_char(-p.beta + 0.5, p.alpha + 0.5, arg, tau)


def loop_generating_boson(p, xs, ys, tau):
    num = boson_prefactor(p, sum(xs) - sum(ys), tau)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            num *= prime_form(xs[i] - xs[j], tau) * prime_form(ys[j] - ys[i], tau)
    for x in xs:
        for y in ys:
            num /= prime_form(x - y, tau)
    return num


def loop_lattice_npoint(p, ms, xs, ns, ys, tau):
    arg = sum(m * x for m, x in zip(ms, xs)) - sum(n * y for n, y in zip(ns, ys))
    val = boson_prefactor(p, arg, tau)
    for i in range(len(xs)):
        for k in range(i + 1, len(xs)):
            val *= prime_form(xs[i] - xs[k], tau) ** (ms[i] * ms[k])
    for j in range(len(ys)):
        for l in range(j + 1, len(ys)):
            val *= prime_form(ys[j] - ys[l], tau) ** (ns[j] * ns[l])
    for i in range(len(xs)):
        for j in range(len(ys)):
            val /= prime_form(xs[i] - ys[j], tau) ** (ms[i] * ns[j])
    return val


def boson_points(rng, n):
    """psi+ points in Re [-2.2, -0.8] and psi- points in Re [-0.5, -0.01]."""
    xs = [complex(rng.uniform(-2.2, -0.8), rng.uniform(-0.9, 0.9)) for _ in range(n)]
    ys = [complex(rng.uniform(-0.5, -0.01), rng.uniform(-0.9, 0.9)) for _ in range(n)]
    return xs, ys


class TestBosonizedBatch:
    TAUS = [TAU, 0.3 + 0.8j, -0.35 + 1.6j]

    def test_generating_boson_matches_loop(self):
        rng = random.Random(51)
        for trial in range(30):
            n = (0, 1, 2, 3, 5, 8, 16)[trial % 7]
            tau = self.TAUS[trial % 3]
            p = OrbifoldParams(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
            xs, ys = boson_points(rng, n)
            ref = loop_generating_boson(p, xs, ys, tau)
            assert rank2_generating_boson(p, xs, ys, tau) == pytest.approx(ref, rel=1e-13)

    def test_lattice_matches_loop(self):
        rng = random.Random(52)
        for trial in range(30):
            tau = self.TAUS[trial % 3]
            p = OrbifoldParams(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
            ms = [rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            ns = list(ms)
            rng.shuffle(ns)
            xs, ys = boson_points(rng, len(ms))
            ref = loop_lattice_npoint(p, ms, xs, ns, ys, tau)
            assert lattice_npoint(p, ms, xs, ns, ys, tau) == pytest.approx(ref, rel=1e-13)

    def test_zero_and_one_pair(self):
        p = OrbifoldParams(0.27, 0.63)
        assert rank2_generating_boson(p, [], [], TAU) == pytest.approx(
            boson_prefactor(p, 0.0, TAU), rel=1e-15)
        x, y = -1.0 + 0.1j, -0.2 - 0.1j
        assert rank2_generating_boson(p, [x], [y], TAU) == pytest.approx(
            boson_prefactor(p, x - y, TAU) / prime_form(x - y, TAU), rel=1e-14)

    def test_one_prime_form_table_per_request(self, monkeypatch):
        calls = []
        table = fermion._prime_forms

        def counted(zs, tau, cfg):
            calls.append(len(zs))
            return table(zs, tau, cfg)

        def scalar(*args, **kwargs):
            raise AssertionError("scalar prime form called")

        monkeypatch.setattr(fermion, "_prime_forms", counted)
        monkeypatch.setattr(classical, "p0", scalar)
        monkeypatch.setattr(classical, "prime_form", scalar)
        p = OrbifoldParams(0.27, 0.63)
        for n in (0, 1, 4, 16):
            xs, ys = boson_points(random.Random(n), n)
            calls.clear()
            rank2_generating_boson(p, xs, ys, TAU)
            assert calls == [n * n + n * (n - 1)]
        calls.clear()
        lattice_npoint(p, [2, 1], [-1.9 + 0.2j, -1.1 - 0.3j], [1, 2], [-0.4j, -0.2 + 0.3j], TAU)
        assert calls == [6]

    def test_overflowing_product_is_not_converged(self):
        # charges 20 and -20 at points 1e-10 apart: 1/K(x - y)^400 leaves the float range
        p = OrbifoldParams(0.27, 0.63)
        with pytest.raises(NotConverged, match="float range"):
            lattice_npoint(p, [20], [-1.0 + 1e-10j], [20], [-1.0], TAU)

    def test_difference_on_the_lattice_is_near_pole(self):
        # as for the determinant form, whose kernel refuses within 1e-11 of the lattice
        p = OrbifoldParams(0.27, 0.63)
        for x in (-1.0 + 1e-300j, -1.0 + 2j * math.pi, -1.0 + 2j * math.pi * TAU + 1e-13):
            with pytest.raises(NearPole):
                lattice_npoint(p, [2], [x], [2], [-1.0], TAU)
            with pytest.raises(NearPole):
                rank2_generating(p, [x], [-1.0], TAU)
            with pytest.raises(NearPole):
                rank2_generating_boson(p, [x], [-1.0], TAU)

    @pytest.mark.parametrize("tau", [0.3 + 0.8j, TAU, 0.05 + 0.4j])
    def test_matches_the_determinant_past_the_old_disk(self, tau):
        # |x - y| beyond R = 2 pi min|m tau + n|, where the disk series refused
        rng = random.Random(f"past-disk:{tau}")
        for n in (1, 2, 3):
            xs = [complex(rng.uniform(-6.5, -4.5), rng.uniform(-1.5, 1.5)) for _ in range(n)]
            ys = [complex(rng.uniform(-0.6, 0.6), rng.uniform(-1.5, 1.5)) for _ in range(n)]
            p = OrbifoldParams(rng.uniform(0.06, 0.94), rng.uniform(0.06, 0.94))
            lhs = rank2_generating(p, xs, ys, tau)
            rhs = rank2_generating_boson(p, xs, ys, tau)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)), (n, xs, ys)


class TestModularMultiplier:
    def test_generator_values(self):
        p = OrbifoldParams(0.31, 0.22)
        eps, out = modular_multiplier(GroupElement.T(), p)
        assert eps == pytest.approx(epsilon_T(p))
        assert (out.alpha, out.beta) == pytest.approx((p.alpha + p.beta, p.beta))
        eps, out = modular_multiplier(GroupElement.S(), p)
        assert eps == pytest.approx(epsilon_S(p))
        assert (out.alpha, out.beta) == pytest.approx((p.beta, -p.alpha))

    def test_identity(self):
        p = OrbifoldParams(0.31, 0.22)
        eps, out = modular_multiplier(GroupElement.identity(), p)
        assert eps == 1
        assert (out.alpha, out.beta) == (p.alpha, p.beta)

    def test_word_reconstruction(self):
        rng = random.Random(3)
        gens = [GroupElement.S(), GroupElement.T(1), GroupElement.T(-2)]
        for _ in range(10):
            gamma = GroupElement.identity()
            for _ in range(rng.randint(1, 6)):
                gamma = gamma @ rng.choice(gens)
            prod = GroupElement.identity()
            for item in generator_word(gamma):
                prod = prod @ (GroupElement.S() if item[0] == "S"
                               else GroupElement.T(item[1]))
            assert prod == gamma

    def test_entries_past_the_float_range(self):
        # the word's quotients are exact past 2^1024, where a / c overflows a float; the
        # transformed beta = 10^309 alpha + beta is then past the float range
        gamma = GroupElement(1, 0, 10 ** 309, 1)
        prod = GroupElement.identity()
        for item in generator_word(gamma):
            prod = prod @ (GroupElement.S() if item[0] == "S" else GroupElement.T(item[1]))
        assert prod == gamma
        with pytest.raises(NotConverged, match="leaves the float range"):
            modular_multiplier(gamma, OrbifoldParams(0.2, 0.3))
        # so is a T phase pi q beta (beta + 1) past it
        with pytest.raises(NotConverged, match="leaves the float range"):
            modular_multiplier(GroupElement.T(10 ** 20), OrbifoldParams(0.2, 1e300))
        # and so is a transformed parameter or a T phase q (beta (beta + 1) + 1/6) that
        # reaches 2^53, a float still: the transformed beta = 1e21 alpha + beta, and at
        # beta = 3 the phase 12.17 q at q = 2^50 (alpha' = 3 q + alpha is below 2^53); at
        # q = 2^49 both keep their bits
        with pytest.raises(NotConverged, match="reaches 2\\^53"):
            modular_multiplier(GroupElement(1, 0, 10 ** 21, 1), OrbifoldParams(0.2, 0.3))
        with pytest.raises(NotConverged, match="reaches 2\\^53"):
            modular_multiplier(GroupElement.T(2 ** 50), OrbifoldParams(0.2, 3.0))
        eps, out = modular_multiplier(GroupElement.T(2 ** 49), OrbifoldParams(0.2, 3.0))
        assert eps == cmath.exp(1j * math.pi * 2 ** 49 * (3.0 * 4.0 + 1.0 / 6.0))
        assert (out.alpha, out.beta) == (0.2 + 2 ** 49 * 3.0, 3.0)

    def test_st_cubed_is_trivial(self):
        p = OrbifoldParams(0.31, 0.22)
        st = GroupElement.S() @ GroupElement.T()
        eps, out = modular_multiplier(st @ st @ st, p)
        assert eps == pytest.approx(1.0)
        assert (out.alpha, out.beta) == pytest.approx((p.alpha, p.beta))

    @pytest.mark.parametrize("word", ["S", "T", "TS", "ST", "STSTT", "SS"])
    def test_against_partition_covariance(self, word):
        gamma = GroupElement.identity()
        for ch in word:
            gamma = gamma @ (GroupElement.S() if ch == "S" else GroupElement.T())
        p = OrbifoldParams(0.31, 0.22)
        eps, gp = modular_multiplier(gamma, p)
        assert gp.alpha == pytest.approx(gamma.a * p.alpha + gamma.b * p.beta)
        assert gp.beta == pytest.approx(gamma.c * p.alpha + gamma.d * p.beta)
        gtau = (gamma.a * TAU + gamma.b) / (gamma.c * TAU + gamma.d)
        lhs = rank2_partition(gp, gtau)
        rhs = eps * rank2_partition(p, TAU)
        assert lhs == pytest.approx(rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# the C/D block-matrix builder against the per-entry loops it replaced
# ---------------------------------------------------------------------------

def loop_p1_difference_matrix(tw, zs, tau, diag=0.0):
    n = len(zs)
    mat = np.full((n, n), complex(diag), dtype=complex)
    for i in range(n):
        for j in range(n):
            if i != j:
                mat[i, j] = twisted_pk(1, tw, zs[i] - zs[j], tau)
    return mat


def loop_fock_matrix(tw, row_modes, col_modes, zs, tau):
    """C blocks on the diagonal, reflected D blocks elsewhere, entry by entry."""
    row_offs = np.concatenate([[0], np.cumsum([len(ks) for ks in row_modes])])
    col_offs = np.concatenate([[0], np.cumsum([len(ls) for ls in col_modes])])
    mat = np.zeros((row_offs[-1], col_offs[-1]), dtype=complex)
    for a, ks in enumerate(row_modes):
        for b, ls in enumerate(col_modes):
            for i, k in enumerate(ks):
                for j, l in enumerate(ls):
                    r, c = row_offs[a] + i, col_offs[b] + j
                    if a == b:
                        mat[r, c] = coeff_C(k, l, tw, tau)
                    else:
                        mat[r, c] = ((-1.0) ** (k + 1) * binomial(k + l - 2, k - 1)
                                     * twisted_pk(k + l - 1, tw, zs[a] - zs[b], tau))
    return mat


def loop_trisecant_matrix(tw, ms, ns, xs, ys, tau):
    mat = np.zeros((sum(ms), sum(ns)), dtype=complex)
    ro = np.concatenate([[0], np.cumsum(ms)])
    co = np.concatenate([[0], np.cumsum(ns)])
    for a in range(len(ms)):
        for b in range(len(ns)):
            for ii in range(ms[a]):
                for jj in range(ns[b]):
                    mat[ro[a] + ii, co[b] + jj] = coeff_D(ii + 1, jj + 1, tw, xs[a] - ys[b], tau)
    return mat


class TestBlockMatrixBuilder:
    ZS = [-2.3 + 0.4j, -1.5 - 0.6j, -0.9 + 0.2j, -0.3 - 0.1j]
    XS = [-1.9 + 0.3j, -1.2 - 0.4j, -1.6 + 0.8j]
    YS = [-0.3 + 0.2j, -0.45 - 0.25j, -0.1 + 0.6j]

    @pytest.mark.parametrize("diag", [0.0, 0.37 - 0.2j])
    def test_p1_difference_matrix(self, diag):
        tw = TwistPair(0.5, 0.5)
        assert np.array_equal(p1_difference_matrix(tw, self.ZS, TAU, diag=diag),
                              loop_p1_difference_matrix(tw, self.ZS, TAU, diag))

    @pytest.mark.parametrize("diag", [math.nan, math.inf, complex(1.0, math.inf)])
    def test_p1_difference_matrix_refuses_a_diag_that_is_not_finite(self, diag):
        with pytest.raises(DomainError, match="diagonal value must be finite"):
            p1_difference_matrix(TwistPair(0.27, 0.4), [-1, -2], 0.1 + 1.1j, diag=diag)

    def test_p1_difference_matrix_is_antisymmetric(self):
        # z_i - z_j and z_j - z_i share one w = -(z_i - z_j) at the half-integer twist
        rng = random.Random("antisymmetry")
        zs = [complex(rng.uniform(-3, 3), rng.uniform(-2, 2)) for _ in range(9)]
        mat = p1_difference_matrix(TwistPair(0.5, 0.5), zs, TAU)
        assert np.all(mat == -mat.T)

    def test_rank1_fock(self):
        g = GSelector.SIGMA
        for modes in ([(1, 2), (1,), (2, 3), (1, 3, 4)], [(1, 2), (), (2, 3, 4), (1,)]):
            ref = loop_fock_matrix(g.twist(), modes, modes, self.ZS, TAU)
            assert np.array_equal(
                fermion._cd_matrices([(g.twist(), modes, self.ZS, modes, None, TAU, None)],
                                     DEFAULT_CONFIG)[0], ref)
            assert rank1_fock_npoint(modes, self.ZS, g, TAU) == \
                pfaffian(ref) * rank1_partition(g, TAU)

    def test_rank2_fock(self):
        p = OrbifoldParams(0.27, 0.63)
        for labels in ([((1, 2), (1,)), ((1,), (2, 3)), ((3,), (1,))],
                       [((1, 2), ()), ((), (2, 3)), ((3,), (1,))]):
            ks, ls = [ks for ks, _ in labels], [ls for _, ls in labels]
            ref = loop_fock_matrix(p.twist(), ks, ls, self.ZS[:3], TAU)
            assert np.array_equal(
                fermion._cd_matrices([(p.twist(), ks, self.ZS[:3], ls, None, TAU, None)],
                                     DEFAULT_CONFIG)[0], ref)
            eps = alternating_sign([len(k) for k in ks], [len(l) for l in ls])
            assert rank2_fock_npoint(labels, self.ZS[:3], p, TAU) == \
                eps * determinant(ref) * rank2_partition(p, TAU)

    def test_rank2_generating_nontrivial(self):
        p = OrbifoldParams(0.27, 0.63)
        ref = np.array([[twisted_pk(1, p.twist(), x - y, TAU) for y in self.YS]
                        for x in self.XS])
        assert rank2_generating(p, self.XS, self.YS, TAU) == \
            determinant(ref) * rank2_partition(p, TAU)

    def test_rank2_generating_trivial(self):
        # untwisted P_1 with the ones border, as summed before the builder
        n = len(self.XS)
        q = np.zeros((n + 1, n + 1), dtype=complex)
        for i in range(n):
            for j in range(n):
                q[i, j] = weierstrass_pk(1, self.XS[i] - self.YS[j], TAU)
            q[i, n] = q[n, i] = 1.0
        ref = determinant(q) * dedekind_eta(TAU) ** 2
        val = rank2_generating(OrbifoldParams(0.0, 0.0), self.XS, self.YS, TAU)
        assert val == pytest.approx(ref, rel=1e-13)

    def test_generalized_trisecant_block(self):
        # (2, 3): two column blocks against three row blocks, a 6 x 5 matrix
        tw = OrbifoldParams(0.27, 0.63).twist()
        ms = (2, 1, 3)
        for ns in ((1, 3, 2), (2, 3)):
            ys = self.YS[:len(ns)]
            mat = fermion._cd_matrices([(tw, [range(1, m + 1) for m in ms], self.XS,
                                         [range(1, n + 1) for n in ns], ys, TAU, None)],
                                       DEFAULT_CONFIG)[0]
            assert np.array_equal(mat, loop_trisecant_matrix(tw, ms, ns, self.XS, ys, TAU))

    def _count_kernel(self, monkeypatch):
        """Record each kernel call as the list of its evaluated (twist, z, m)."""
        calls, e_calls = [], []
        batch, ek = fermion.twisted_pk_batch, fermion.twisted_eisenstein

        def count_batch(ks, tw, zs, tau, cfg):
            calls.append([(tw, z, k) for k in ks for z in zs])
            return batch(ks, tw, zs, tau, cfg)

        def count_e(n, tw, tau, cfg):
            e_calls.append(n)
            return ek(n, tw, tau, cfg)

        monkeypatch.setattr(fermion, "twisted_pk_batch", count_batch)
        monkeypatch.setattr(fermion, "twisted_eisenstein", count_e)
        return calls, e_calls

    def test_one_evaluation_per_distinct_entry(self, monkeypatch):
        # rank one: one kernel call at every ordered difference, each (z, m) once
        calls, e_calls = self._count_kernel(monkeypatch)
        modes = [(1, 2), (1,), (2, 3), (1, 3, 4)]
        g = GSelector.IDENTITY
        rank1_fock_npoint(modes, self.ZS, g, TAU)
        pairs = [(a, b) for a in range(4) for b in range(4) if a != b]
        want = {(g.twist(), self.ZS[a] - self.ZS[b], k + l - 1)
                for a, b in pairs for k in modes[a] for l in modes[b]}
        [evaluated] = calls
        assert len(evaluated) == len(set(evaluated)) and want <= set(evaluated)
        assert {z for _, z, _ in evaluated} == {self.ZS[a] - self.ZS[b] for a, b in pairs}
        assert {m for _, _, m in evaluated} == {m for _, _, m in want}
        # every E_m[tw] of the sample once
        on = {k + l - 1 for ks in modes for k in ks for l in ks}
        assert sorted(e_calls) == sorted(on)

    def test_rank2_matrix_takes_one_kernel_call(self, monkeypatch):
        # generic twist: one call with tw itself, at every ordered difference
        calls, _ = self._count_kernel(monkeypatch)
        p = OrbifoldParams(0.27, 0.63)
        labels = [((1, 2), (1,)), ((1,), (2, 3)), ((3,), (1,))]
        rank2_fock_npoint(labels, self.ZS[:3], p, TAU)
        [evaluated] = calls
        assert {tw for tw, _, _ in evaluated} == {p.twist()}
        assert len(evaluated) == len(set(evaluated))
        assert {z for _, z, _ in evaluated} == {self.ZS[a] - self.ZS[b]
                                                for a in range(3) for b in range(3) if a != b}
        calls.clear()
        rank2_generating(p, self.XS, self.YS, TAU)
        assert len(calls) == 1 and len(calls[0]) == len(self.XS) * len(self.YS)


def _seeded_request_digest() -> tuple[int, int, int]:
    """(CRC32 of every output's float.hex, or its refusal's type and message; requests;
    refused) over a seeded set of the five correlator request kinds at n = 2..16, both
    Fock forms, and one request refused at small Im tau."""
    rng = random.Random(2024)
    lines, refused = [], 0

    def pts(n, lo, hi):
        return [complex(lo + (i + 0.2 + 0.6 * rng.random()) * (hi - lo) / n,
                        rng.uniform(-0.9, 0.9)) for i in range(n)]

    requests = []
    for n in (2, 3, 4, 6, 8, 12, 16):
        tau = complex(rng.uniform(-0.4, 0.4), rng.uniform(0.8, 2.0))
        p = OrbifoldParams(rng.uniform(0.06, 0.94), rng.uniform(0.06, 0.94))
        xs, ys = pts(n, -2.2, -0.8), pts(n, -0.5, -0.01)
        g = (GSelector.IDENTITY, GSelector.SIGMA)[n % 2]
        requests += [(rank2_generating, p, xs, ys, tau), (rank2_generating_boson, p, xs, ys, tau),
                     (rank1_generating, g, pts(n, -2.6, -0.4), tau)]
        if n <= 4:
            labels1 = [tuple(sorted(rng.sample(range(1, 5), 3))) for _ in range(n)]
            labels2 = [(tuple(sorted(rng.sample(range(1, 4), 2))),
                        tuple(sorted(rng.sample(range(1, 4), 2)))) for _ in range(n)]
            requests += [(rank1_fock_npoint, labels1, pts(n, -2.6, -0.4), g, tau),
                         (rank2_fock_npoint, labels2, pts(n, -2.6, -0.4), p, tau)]
    requests.append((rank1_generating, GSelector.SIGMA, pts(4, -2.6, -0.4), 0.05j))
    for fn, *args in requests:
        try:
            out = complex(fn(*args))
            lines.append(f"{out.real.hex()} {out.imag.hex()}")
        except NotConverged as exc:
            refused += 1
            lines.append(f"{type(exc).__name__}: {exc}")
    return zlib.crc32("\n".join(lines).encode()), len(requests), refused


def test_seeded_correlator_requests_keep_their_bits():
    # pinned on the values of the earlier kernel and builders: a change to any
    # correlator's arithmetic, its order of float operations or a refusal shows here
    assert _seeded_request_digest() == (0xd0ad7e19, 28, 1)
