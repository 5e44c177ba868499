"""Classical Eisenstein series, P_k family, prime form, theta, eta."""

import cmath
import math
import random

import numpy as np
import pytest

from twistell import (
    DomainError,
    NearPole,
    NotConverged,
    bernoulli_poly,
    binomial,
    dedekind_eta,
    eisenstein,
    p0,
    p0_batch,
    prime_form,
    theta_char,
    weierstrass_pk,
    weierstrass_pk_laurent,
    weierstrass_pk_laurent_batch,
)
from twistell.classical import _disk_radius

TAU = 0.12 + 1.1j


def dz(f, z, h=1e-3):
    """Fourth-order central difference."""
    return (-f(z + 2 * h) + 8 * f(z + h) - 8 * f(z - h) + f(z - 2 * h)) / (12 * h)


class TestEisenstein:
    def test_odd_is_zero(self):
        for tau in (TAU, 0.5 + 0.9j, 2j):
            assert eisenstein(3, tau) == 0
            assert eisenstein(7, tau) == 0

    def test_q_to_zero_limit_is_bernoulli(self):
        # -B_2(0)/2! = -1/12 from the Bernoulli oracle
        expected = -bernoulli_poly(2, 0.0) / 2.0
        assert eisenstein(2, 40j) == pytest.approx(expected, abs=1e-14)
        assert expected == pytest.approx(-1.0 / 12.0)

    @pytest.mark.parametrize("n", [4, 6])
    def test_modular_form_s_transform(self, n):
        for tau in (1j, TAU):
            lhs = eisenstein(n, -1 / tau)
            rhs = tau**n * eisenstein(n, tau)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_not_converged_for_tiny_imag(self):
        with pytest.raises(NotConverged):
            eisenstein(4, 1e-4j)


class TestWeierstrassPk:
    def test_small_z_expansion(self):
        # P_1(z) = 1/z - E_2 z + O(z^3)
        z = -0.01 + 0.004j
        val = weierstrass_pk(1, z, TAU)
        assert abs(val - (1 / z - eisenstein(2, TAU) * z)) < 5e-5 * abs(z)

    def test_periodic_in_two_pi_i(self):
        rng = random.Random(4)
        for k in (1, 2, 3):
            z = complex(-rng.uniform(0.5, 4.0), rng.uniform(-1, 1))
            assert weierstrass_pk(k, z + 2j * math.pi, TAU) == pytest.approx(
                weierstrass_pk(k, z, TAU), rel=1e-10, abs=1e-12)

    def test_quasi_period_in_two_pi_i_tau(self):
        # evaluated on the disk series, whose domain holds both points
        tau = 0.05 + 0.85j
        z = 0.3 - 1j * math.pi * tau + 0.2j
        for k in (1, 2):
            lhs = weierstrass_pk_laurent(k, z + 2j * math.pi * tau, tau)
            rhs = weierstrass_pk_laurent(k, z, tau) - (1.0 if k == 1 else 0.0)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)

    def test_disk_series_matches_q_series(self):
        for k in (1, 2, 3):
            z = -1.2 + 0.7j
            assert weierstrass_pk(k, z, TAU) == pytest.approx(
                weierstrass_pk_laurent(k, z, TAU), rel=1e-11)

    def test_p2_is_minus_dp1(self):
        z = -1.1 + 0.3j
        approx = -dz(lambda w: weierstrass_pk(1, w, TAU), z)
        assert weierstrass_pk(2, z, TAU) == pytest.approx(approx, rel=1e-8)

    def test_domain_is_the_plane_off_the_lattice(self):
        # z = 0.5 lies outside the q-series annulus; the theta quotient still holds there
        assert weierstrass_pk(1, 0.5, TAU) == pytest.approx(
            weierstrass_pk_laurent(1, 0.5, TAU), rel=1e-12)
        with pytest.raises(NearPole):
            weierstrass_pk(1, 2j * math.pi * TAU, TAU)
        with pytest.raises(DomainError):
            weierstrass_pk(1, complex(math.nan, 0.0), TAU)


class TestP0PrimeForm:
    def test_dz_p0_is_minus_p1(self):
        z = -1.0 + 0.4j
        approx = dz(lambda w: p0(w, TAU), z)
        assert approx == pytest.approx(-weierstrass_pk(1, z, TAU), rel=1e-9)

    def test_prime_form_is_exp_minus_p0(self):
        z = -0.8 - 0.5j
        assert prime_form(z, TAU) == pytest.approx(cmath.exp(-p0(z, TAU)), rel=1e-14)

    def test_unit_derivative_at_zero(self):
        z = 1e-4 + 3e-5j
        assert prime_form(z, TAU) / z == pytest.approx(1.0, abs=1e-6)

    def test_quasi_periods(self):
        tau = 0.05 + 0.85j
        z = 0.3 - 1j * math.pi
        assert prime_form(z + 2j * math.pi, tau) == pytest.approx(
            -prime_form(z, tau), rel=1e-10)
        z = 0.3 - 1j * math.pi * tau + 0.2j
        lhs = prime_form(z + 2j * math.pi * tau, tau)
        rhs = -cmath.exp(-z) * cmath.exp(-1j * math.pi * tau) * prime_form(z, tau)
        assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_theta_expression(self):
        # K = (-i/eta^3) theta[1/2;1/2](z, tau) on 0 < |z| < 1
        rng = random.Random(9)
        for tau in (TAU, 0.3 + 1.7j):
            for _ in range(3):
                z = cmath.rect(rng.uniform(0.1, 0.99), rng.uniform(0, 2 * math.pi))
                lhs = prime_form(z, tau)
                rhs = -1j / dedekind_eta(tau) ** 3 * theta_char(0.5, 0.5, z, tau)
                assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_float_overflow_is_not_converged(self):
        # inside the disk, but the series reaches orders where r^(n-1) overflows a float
        with pytest.raises(NotConverged, match=r"E_\d+ q-series term r\^\d+ overflows"):
            prime_form(-6 + 0.1j, 1j)
        with pytest.raises(NotConverged, match="E_400"):
            eisenstein(400, 1j)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            p0(0.0, TAU)
        with pytest.raises(DomainError):
            p0(7.0, TAU)

    def test_disk_radius_is_nearest_lattice_point(self):
        # R = 2*pi*min|m*tau + n| over (m, n) != (0, 0), against a brute-force scan
        rng = random.Random(5)
        for tau in [1j, 0.3 + 0.8j, 0.5 + 0.2j, -0.5 + 0.87j, 3.4 + 0.1j] + [
                complex(rng.uniform(-2, 2), rng.uniform(0.05, 2)) for _ in range(20)]:
            brute = min(abs(m * tau + n) for m in range(-40, 41) for n in range(-90, 91)
                        if (m, n) != (0, 0))
            assert _disk_radius(tau) == pytest.approx(2 * math.pi * brute, rel=1e-12)

    def test_domain_is_the_true_disk(self):
        # |tau| < 1 puts the lattice point 2*pi*i*tau inside |z| < 2*pi
        tau = 0.3 + 0.8j
        radius = _disk_radius(tau)
        assert radius == pytest.approx(2 * math.pi * abs(tau))
        assert abs(-5.2 + 2j) > radius
        with pytest.raises(DomainError, match="R = "):
            prime_form(-5.2 + 2j, tau)
        with pytest.raises(DomainError):
            weierstrass_pk_laurent(1, -5.2 + 2j, tau)
        # inside R the series still agrees with the theta expression
        z = -4 + 1.5j
        rhs = -1j / dedekind_eta(tau) ** 3 * theta_char(0.5, 0.5, z, tau)
        assert prime_form(z, tau) == pytest.approx(rhs, rel=1e-9)

    def test_large_orders_are_not_converged(self):
        # E_n for n > 171 needs (n-1)! beyond the float range: refused, not a raw OverflowError
        with pytest.raises(NotConverged, match="E_172"):
            eisenstein(172, 5j)
        with pytest.raises(NotConverged):
            p0(-6 + 0.1j, 5j)


def seed_disk_series(term, start, tol=1e-12):
    """The scalar disk-series loop the batched kernel replaced, kept as its reference."""
    acc = 0.0 + 0.0j
    small = 0
    for n in range(start + start % 2, 801, 2):
        t = term(n)
        acc += t
        small = small + 1 if abs(t) < tol else 0
        if small >= 2:
            return acc
    raise NotConverged("stalled")


def seed_p0(z, tau):
    return -cmath.log(z) + seed_disk_series(lambda k: eisenstein(k, tau) * z**k / k, 2)


def seed_laurent(k, z, tau):
    acc = seed_disk_series(
        lambda n: binomial(n - 1, k - 1) * eisenstein(n, tau) * z ** (n - k), k)
    return z ** (-k) + (-1.0) ** k * acc


def disk_batch(rng, tau, size, reach=0.95):
    """size points spread over the disk out to reach * R, area-uniform."""
    radius = _disk_radius(tau)
    return [cmath.rect(radius * reach * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
            for _ in range(size)]


def split_by_reference(ref, zs):
    """(points the reference evaluates with their values, points it refuses)."""
    good, refused = [], []
    for z in zs:
        try:
            good.append((z, ref(z)))
        except NotConverged:
            refused.append(z)
    return good, refused


KERNEL_TAUS = [TAU, 1j, 0.3 + 0.8j, -0.45 + 0.9j, 0.2 + 2.5j, 0.5 + 0.45j]


class TestDiskSeriesBatch:
    def test_p0_matches_scalar_loop(self):
        rng = random.Random(31)
        evaluated = refused = 0
        for trial in range(24):
            tau = KERNEL_TAUS[trial % len(KERNEL_TAUS)]
            good, bad = split_by_reference(lambda z: seed_p0(z, tau),
                                           disk_batch(rng, tau, rng.randint(1, 40)))
            evaluated += len(good)
            refused += len(bad)
            if good:
                vals = p0_batch([z for z, _ in good], tau)
                for (z, ref), val in zip(good, vals):
                    assert abs(val - ref) <= 1e-14 * abs(ref), (z, tau)
            for z in bad:
                with pytest.raises(NotConverged):
                    p0(z, tau)
        assert evaluated > 300 and refused > 10

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_laurent_matches_scalar_loop(self, k):
        rng = random.Random(40 + k)
        evaluated = 0
        for trial in range(12):
            tau = KERNEL_TAUS[trial % len(KERNEL_TAUS)]
            good, bad = split_by_reference(lambda z: seed_laurent(k, z, tau),
                                           disk_batch(rng, tau, rng.randint(1, 40)))
            evaluated += len(good)
            if good:
                vals = weierstrass_pk_laurent_batch(k, [z for z, _ in good], tau)
                for (z, ref), val in zip(good, vals):
                    assert abs(val - ref) <= 1e-14 * abs(ref), (z, tau)
            for z in bad:
                with pytest.raises(NotConverged):
                    weierstrass_pk_laurent(k, z, tau)
        assert evaluated > 100

    def test_batch_invariance(self):
        # reordering and duplicating a batch, or calling one point alone, changes no bit
        rng = random.Random(12)
        for tau in KERNEL_TAUS:
            zs = disk_batch(rng, tau, 25, reach=0.6)
            base = p0_batch(zs, tau)
            order = list(range(len(zs)))
            rng.shuffle(order)
            shuffled = p0_batch([zs[i] for i in order] + zs[:7], tau)
            assert np.array_equal(shuffled[:len(zs)], base[order])
            assert np.array_equal(shuffled[len(zs):], base[:7])
            for i in (0, 9, 24):
                assert p0(zs[i], tau) == base[i]
                assert p0_batch(zs[i:i + 1], tau)[0] == base[i]
            lau = weierstrass_pk_laurent_batch(2, zs, tau)
            assert np.array_equal(weierstrass_pk_laurent_batch(2, zs[::-1], tau), lau[::-1])
            assert weierstrass_pk_laurent(2, zs[5], tau) == lau[5]

    def test_batch_raises_as_its_failing_point_alone(self):
        tau = 0.3 + 0.8j
        radius = _disk_radius(tau)
        fine = [-1.0 + 0.2j, 0.5 - 0.7j, 1.4j]
        for bad, error in [(0.99 * radius, NotConverged), (1.01 * radius * 1j, DomainError),
                           (0.0, DomainError), (complex(math.nan, 0.0), DomainError),
                           (complex(math.inf, 1.0), DomainError)]:
            with pytest.raises(error):
                p0(bad, tau)
            with pytest.raises(error):
                p0_batch(fine[:1] + [bad] + fine[1:], tau)
            with pytest.raises(error):
                weierstrass_pk_laurent_batch(3, fine + [bad], tau)
        assert np.all(np.isfinite(p0_batch(fine, tau)))

    def test_empty_batches(self):
        for out in (p0_batch([], TAU), weierstrass_pk_laurent_batch(2, [], TAU)):
            assert out.shape == (0,) and out.dtype == complex
        with pytest.raises(DomainError):
            p0_batch([], 0.5)


class TestThetaChar:
    def test_odd_characteristic_vanishes(self):
        for tau in (1j, TAU):
            assert abs(theta_char(0.5, 0.5, 0.0, tau)) < 1e-14

    def test_periodicities(self):
        rng = random.Random(2)
        for _ in range(5):
            a, b = rng.uniform(-1, 1), rng.uniform(-1, 1)
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            t1 = theta_char(a, b, z + 2j * math.pi, TAU)
            assert t1 == pytest.approx(cmath.exp(2j * math.pi * a)
                                       * theta_char(a, b, z, TAU), rel=1e-11)
            t2 = theta_char(a, b, z + 2j * math.pi * TAU, TAU)
            factor = (cmath.exp(-2j * math.pi * b) * cmath.exp(-z)
                      * cmath.exp(-1j * math.pi * TAU))
            assert t2 == pytest.approx(factor * theta_char(a, b, z, TAU), rel=1e-10)

    def test_s_transform(self):
        # theta[a;b](-z/tau, -1/tau) = (-i tau)^{1/2} e^{2 pi i a b}
        #                              e^{-i z^2/(4 pi tau)} theta[-b;a](z, tau)
        rng = random.Random(6)
        for _ in range(4):
            a, b = rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8)
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            tau = complex(rng.uniform(-0.3, 0.3), rng.uniform(0.9, 1.6))
            lhs = theta_char(a, b, -z / tau, -1 / tau)
            rhs = (cmath.sqrt(-1j * tau) * cmath.exp(2j * math.pi * a * b)
                   * cmath.exp(-1j * z**2 / (4 * math.pi * tau))
                   * theta_char(-b, a, z, tau))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_tau_plus_one(self):
        # theta[a;b](z, tau+1) = e^{-i pi a(a+1)} theta[a; b+a+1/2](z, tau)
        a, b, z = 0.3, -0.4, 0.7 + 0.2j
        lhs = theta_char(a, b, z, TAU + 1)
        rhs = cmath.exp(-1j * math.pi * a * (a + 1)) * theta_char(a, b + a + 0.5, z, TAU)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_not_converged_tiny_imag(self):
        # at 5e-324i the window arithmetic overflows
        for tau in (1e-5j, 5e-324j):
            with pytest.raises(NotConverged):
                theta_char(0.3, 0.1, 0.5, tau)

    def test_window_follows_the_characteristic(self):
        # theta[a+1; b] = theta[a; b]
        assert abs(theta_char(40, 0.5, 0, 1j) - theta_char(0, 0.5, 0, 1j)) <= 1e-14

    def test_refusals(self):
        for a, b, z in ((math.nan, 0.5, 0.0), (0.5, math.inf, 0.0),
                        (0.5, 0.5, complex(0.0, math.nan))):
            with pytest.raises(DomainError):
                theta_char(a, b, z, 1j)
        # the largest term, at n + a = 100/(2 pi), is exp(100^2/(4 pi)) > 1.8e308
        for z in (100.0, -1e300):
            with pytest.raises(NotConverged, match="largest term"):
                theta_char(0.5, 0.5, z, 1j)


class TestDedekindEta:
    def test_leading_term(self):
        tau = 60j
        assert dedekind_eta(tau) / cmath.exp(2j * math.pi * tau / 24) == pytest.approx(1.0)

    def test_tau_i_real_positive(self):
        val = dedekind_eta(1j)
        assert abs(val.imag) < 1e-15
        assert val.real > 0

    def test_cube_vs_theta_derivative(self):
        # eta^3 = theta'[1/2;1/2](0)/i, derivative by central differences
        for tau in (TAU, 1j):
            approx = dz(lambda w: theta_char(0.5, 0.5, w, tau), 0.0)
            assert dedekind_eta(tau) ** 3 == pytest.approx(approx / 1j, rel=1e-10)

    def test_underflow_is_not_converged(self):
        # |eta(2800i)| = exp(-2800 pi/12) is subnormal
        with pytest.raises(NotConverged, match="underflows"):
            dedekind_eta(2800j)

    def test_s_transform(self):
        for tau in (TAU, 0.4 + 1.3j):
            lhs = dedekind_eta(-1 / tau)
            rhs = cmath.sqrt(-1j * tau) * dedekind_eta(tau)
            assert lhs == pytest.approx(rhs, rel=1e-12)
