"""Rank-one Pfaffian and rank-two determinant correlators, multipliers."""

import cmath
import math
import random

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
    twisted_pk_reflected,
    weierstrass_pk,
)
from twistell import fermion, twisted

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

    def test_annulus_enforced(self):
        p = OrbifoldParams(0.27, 0.63)
        with pytest.raises(DomainError):
            rank2_generating(p, [0.5 + 0.1j], [-0.2j], TAU)

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
        p21 = twisted_pk_reflected(1, pair, zs[1] - zs[0], TAU)
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
                        m = [[twisted_pk_reflected(1, pair, x - y, TAU) for y in ys]
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
                mat[i, j] = twisted_pk_reflected(1, tw, zs[i] - zs[j], tau)
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
                                     * twisted_pk_reflected(k + l - 1, tw, zs[a] - zs[b], tau))
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

    def test_rank1_fock(self):
        g = GSelector.SIGMA
        modes = [(1, 2), (1,), (2, 3), (1, 3, 4)]
        ref = loop_fock_matrix(g.twist(), modes, modes, self.ZS, TAU)
        assert np.array_equal(
            fermion._cd_matrix(g.twist(), modes, self.ZS, modes, None, TAU,
                               DEFAULT_CONFIG), ref)
        assert rank1_fock_npoint(modes, self.ZS, g, TAU) == \
            pfaffian(ref) * rank1_partition(g, TAU)

    def test_rank2_fock(self):
        p = OrbifoldParams(0.27, 0.63)
        labels = [((1, 2), (1,)), ((1,), (2, 3)), ((3,), (1,))]
        ref = loop_fock_matrix(p.twist(), [ks for ks, _ in labels],
                               [ls for _, ls in labels], self.ZS[:3], TAU)
        eps = alternating_sign([2, 1, 1], [1, 2, 1])
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
        tw = OrbifoldParams(0.27, 0.63).twist()
        ms, ns = (2, 1, 3), (1, 3, 2)
        mat = fermion._cd_matrix(tw, [range(1, m + 1) for m in ms], self.XS,
                                 [range(1, n + 1) for n in ns], self.YS, TAU,
                                 DEFAULT_CONFIG)
        assert np.array_equal(mat, loop_trisecant_matrix(tw, ms, ns, self.XS, self.YS, TAU))

    def test_one_evaluation_per_distinct_entry(self, monkeypatch):
        pk_calls, e_calls = [], []
        pk, ek = twisted.twisted_pk, fermion.twisted_eisenstein

        def count_pk(k, tw, z, tau, cfg):
            pk_calls.append(k)
            return pk(k, tw, z, tau, cfg)

        def count_e(n, tw, tau, cfg):
            e_calls.append(n)
            return ek(n, tw, tau, cfg)

        monkeypatch.setattr(twisted, "twisted_pk", count_pk)
        monkeypatch.setattr(fermion, "twisted_eisenstein", count_e)
        modes = [(1, 2), (1,), (2, 3), (1, 3, 4)]
        rank1_fock_npoint(modes, self.ZS, GSelector.IDENTITY, TAU)
        off = {(a, b, k + l - 1) for a, ks in enumerate(modes) for b, ls in enumerate(modes)
               if a != b for k in ks for l in ls}
        on = {k + l - 1 for ks in modes for k in ks for l in ks}
        assert len(pk_calls) == len(off) < sum(map(len, modes)) ** 2
        assert sorted(e_calls) == sorted(on)
