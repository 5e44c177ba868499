"""Bernoulli data, binomials, branch-free powers, Pfaffians, determinants."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from twistell import (
    DomainError,
    NotAntisymmetric,
    NotConverged,
    OddDimension,
    TruncationConfig,
    bernoulli_poly,
    binomial,
    determinant,
    pfaffian,
    pfaffian_pair_sum,
    q_exp,
)
from twistell.numeric import bernoulli_fraction


def taylor_coeffs_exp_frac(lam: Fraction, order: int) -> list[Fraction]:
    """Brute-force oracle: coefficients of z*e^{lam*z}/(e^z - 1) by series division.

    Returns the exact coefficients of z^0..z^order, i.e. B_n(lam)/n!.
    """
    # denominator (e^z - 1)/z and numerator e^{lam z}
    den = [Fraction(1, math.factorial(k + 1)) for k in range(order + 1)]
    num = [lam**k / math.factorial(k) for k in range(order + 1)]
    out: list[Fraction] = []
    for n in range(order + 1):
        acc = num[n]
        for k in range(1, n + 1):
            acc -= den[k] * out[n - k]
        out.append(acc / den[0])
    return out


class TestBernoulli:
    def test_b1_quarter(self):
        assert bernoulli_poly(1, 0.25) == pytest.approx(-0.25, abs=1e-15)

    def test_b1_midpoint_zero(self):
        assert bernoulli_poly(1, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_b2_at_zero_vs_series_division(self):
        coeffs = taylor_coeffs_exp_frac(Fraction(0), 4)
        expected = coeffs[2] * 2  # B_2 = 2! * [z^2] coefficient
        assert expected == Fraction(1, 6)
        assert bernoulli_poly(2, 0.0) == pytest.approx(float(expected), abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_generating_function_oracle(self, n):
        lam = Fraction(3, 7)
        coeffs = taylor_coeffs_exp_frac(lam, n)
        assert bernoulli_poly(n, float(lam)) == pytest.approx(
            float(coeffs[n] * math.factorial(n)), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_difference_recurrence(self, n):
        rng = random.Random(5)
        for _ in range(5):
            lam = rng.uniform(-2, 2)
            lhs = bernoulli_poly(n, lam + 1.0) - bernoulli_poly(n, lam)
            assert lhs == pytest.approx(n * lam ** (n - 1), rel=1e-10, abs=1e-10)

    def test_n_zero(self):
        assert bernoulli_poly(0, 0.77) == 1.0

    def test_float_range_is_not_converged(self):
        # B_258(0.3) is finite; the sum for B_259 meets inf - inf, B_260 overflows a float
        assert math.isfinite(bernoulli_poly(258, 0.3))
        for n in (259, 260, 400):
            with pytest.raises(NotConverged, match=rf"B_{n}\(0.3\) leaves the float range"):
                bernoulli_poly(n, 0.3)

    def test_past_b260_refuses_before_building_the_numbers(self):
        bernoulli_fraction.cache_clear()
        with pytest.raises(NotConverged, match=r"B_600\(0.3\) leaves the float range"):
            bernoulli_poly(600, 0.3)
        assert bernoulli_fraction.cache_info().currsize == 0


class TestBinomial:
    def test_values(self):
        assert binomial(4, 2) == 6
        assert binomial(7, 0) == 1
        assert binomial(5, 7) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            binomial(-1, 0)


class TestQExp:
    def test_zero(self):
        assert q_exp(0.0, 0.37) == pytest.approx(1.0)

    def test_two_pi_i(self):
        assert q_exp(2j * math.pi, 1.0) == pytest.approx(1.0, abs=1e-14)

    def test_exponent_additivity(self):
        rng = random.Random(11)
        for _ in range(20):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            s, t = rng.uniform(-3, 3), rng.uniform(-3, 3)
            assert q_exp(z, s + t) == pytest.approx(q_exp(z, s) * q_exp(z, t), rel=1e-12)

    def test_refusals(self):
        with pytest.raises(DomainError):
            q_exp(complex(math.nan, 0.0), 1.0)
        with pytest.raises(DomainError):
            q_exp(1.0, math.inf)
        for z, s in ((1e300, 1.0), (1e300, 1e300)):
            with pytest.raises(NotConverged, match="leaves the float range"):
                q_exp(z, s)


def random_skew(rng, n):
    raw = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                     for _ in range(n)] for _ in range(n)])
    return raw - raw.T


def det_cofactor(m: np.ndarray) -> complex:
    """Determinant by first-row cofactor expansion (exponential oracle)."""
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0.0j
    if n == 1:
        return complex(m[0, 0])
    acc = 0j
    cols = list(range(n))
    for j in range(n):
        minor = m[1:, [c for c in cols if c != j]]
        acc += (-1.0) ** j * m[0, j] * det_cofactor(minor)
    return acc


class TestPfaffian:
    def test_two_by_two(self):
        a = 3.0 + 1.5j
        assert pfaffian([[0, a], [-a, 0]]) == pytest.approx(a)

    def test_four_by_four_pair_partition_formula(self):
        rng = random.Random(3)
        m = random_skew(rng, 4)
        expected = m[0, 1] * m[2, 3] - m[0, 2] * m[1, 3] + m[0, 3] * m[1, 2]
        assert pfaffian(m) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_square_is_determinant(self, n):
        rng = random.Random(n)
        m = random_skew(rng, n)
        pf = pfaffian(m)
        det = determinant(m)
        assert abs(pf**2 - det) <= 1e-10 * max(1.0, abs(det))

    def test_pair_sum_matches_elimination(self):
        rng = random.Random(17)
        for n in (2, 4, 6, 8, 10):
            m = random_skew(rng, n)
            assert pfaffian(m) == pytest.approx(pfaffian_pair_sum(m), rel=1e-11)

    def test_alternating_under_swap(self):
        rng = random.Random(8)
        m = random_skew(rng, 6)
        sw = m.copy()
        sw[[1, 3], :] = sw[[3, 1], :]
        sw[:, [1, 3]] = sw[:, [3, 1]]
        assert pfaffian(sw) == pytest.approx(-pfaffian(m), rel=1e-11)

    def test_odd_dimension_rejected(self):
        with pytest.raises(OddDimension):
            pfaffian(np.zeros((3, 3)))

    def test_not_antisymmetric_rejected(self):
        m = np.array([[0.0, 1.0], [-1.0 + 1e-6, 0.0]])
        with pytest.raises(NotAntisymmetric) as err:
            pfaffian(m)
        assert err.value.defect == pytest.approx(1e-6)

    def test_empty_matrix(self):
        assert pfaffian(np.zeros((0, 0))) == 1.0

    def test_zero_pivot_column_is_zero(self):
        # a zero first column leaves elimination no pivot: Pf is 0, as the pair sum says
        m = random_skew(random.Random(5), 4)
        m[0, :] = m[:, 0] = 0.0
        assert pfaffian(m) == 0.0 == pfaffian_pair_sum(m)


class TestDeterminant:
    def test_identity(self):
        assert determinant(np.eye(3)) == pytest.approx(1.0)

    def test_swap(self):
        assert determinant([[0, 1], [1, 0]]) == pytest.approx(-1.0)

    def test_against_cofactor_oracle(self):
        rng = random.Random(23)
        m = np.array([[complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for _ in range(5)] for _ in range(5)])
        assert determinant(m) == pytest.approx(det_cofactor(m), rel=1e-12)


class TestTruncationConfig:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TruncationConfig(tol=0.0)
        with pytest.raises(ValueError):
            TruncationConfig(tol=1e40)
        # every window is sized from its inputs, not set here
        assert [f.name for f in dataclasses.fields(TruncationConfig)] == ["tol"]
        with pytest.raises(TypeError):
            TruncationConfig(q_order=64)

    def test_hash_is_computed_once_from_the_fields(self):
        cfg = TruncationConfig(tol=1e-10)
        assert hash(cfg) == hash(TruncationConfig(tol=1e-10))
        assert hash(cfg) == hash(tuple(cfg.asdict().values()))
        assert cfg.asdict() == {"tol": 1e-10}
        looser = dataclasses.replace(cfg, tol=1e-8)
        assert looser != cfg and hash(looser) == hash(TruncationConfig(tol=1e-8))
        assert hash(dataclasses.replace(looser, tol=1e-10)) == hash(cfg)

    def test_distinct_equal_config_hits_the_cache(self):
        from twistell import DEFAULT_CONFIG, eisenstein

        tau = 0.23 + 1.37j
        eisenstein(4, tau, DEFAULT_CONFIG)
        hits = eisenstein.cache_info().hits
        twin = TruncationConfig()
        assert twin is not DEFAULT_CONFIG
        assert eisenstein(4, tau, twin) == eisenstein(4, tau, DEFAULT_CONFIG)
        assert eisenstein.cache_info().hits == hits + 2

