"""Classical Eisenstein series, P_k family, prime form, theta, eta."""

import cmath
import math
import random
from fractions import Fraction

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
)
from twistell.classical import _theta_chars, _theta_table
from twistell.identities import _TAU_IM, _TAU_RE

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


def seed_disk_series(term, start, tol=1e-14):
    """Sum term(n) over even n >= start until two successive terms fall below tol."""
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
    """P_0 = -log z + sum_{k>=2} E_k z^k / k, the Laurent series on the disk |z| < R."""
    return -cmath.log(z) + seed_disk_series(lambda k: eisenstein(k, tau) * z**k / k, 2)


def seed_laurent(k, z, tau):
    """Untwisted P_k = 1/z^k + (-1)^k sum_{n>=k} C(n-1, k-1) E_n z^(n-k) on |z| < R: the
    reference for weierstrass_pk, which no lattice oracle covers at the trivial twist."""
    acc = seed_disk_series(
        lambda n: binomial(n - 1, k - 1) * eisenstein(n, tau) * z ** (n - k), k)
    return z ** (-k) + (-1.0) ** k * acc


def disk_radius(tau):
    """R = 2*pi*min |m*tau + n| over (m, n) != (0, 0), by Lagrange-Gauss reduction: the
    radius of the disk where the Laurent series converge."""
    u, v = 1.0 + 0.0j, complex(tau)
    while True:
        v -= round((v / u).real) * u
        if abs(v) >= abs(u):
            return 2 * math.pi * abs(u)
        u, v = v, u


def disk_batch(rng, tau, size, reach=0.95):
    """size points spread over the disk out to reach * R, area-uniform."""
    radius = disk_radius(tau)
    return [cmath.rect(radius * reach * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))
            for _ in range(size)]


def mp_prime_form(z, tau):
    """K(z) = 2i theta_1(-iz/2, q) / theta_1'(0, q), q = e^{i pi tau}, by mpmath at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        q = mp.exp(1j * mp.pi * mp.mpc(tau))
        return complex(2j * mp.jtheta(1, -1j * mp.mpc(z) / 2, q) / mp.jtheta(1, 0, q, 1))


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
        tau = 0.05 + 0.85j
        z = 0.3 - 1j * math.pi * tau + 0.2j
        for k in (1, 2):
            lhs = weierstrass_pk(k, z + 2j * math.pi * tau, tau)
            rhs = weierstrass_pk(k, z, tau) - (1.0 if k == 1 else 0.0)
            assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-10)

    def test_matches_the_laurent_series(self):
        for k in (1, 2, 3):
            z = -1.2 + 0.7j
            assert weierstrass_pk(k, z, TAU) == pytest.approx(seed_laurent(k, z, TAU),
                                                              rel=1e-11)

    def test_p2_is_minus_dp1(self):
        z = -1.1 + 0.3j
        approx = -dz(lambda w: weierstrass_pk(1, w, TAU), z)
        assert weierstrass_pk(2, z, TAU) == pytest.approx(approx, rel=1e-8)

    def test_domain_is_the_plane_off_the_lattice(self):
        # z = 0.5 lies outside the q-series annulus; the theta quotient still holds there
        assert weierstrass_pk(1, 0.5, TAU) == pytest.approx(seed_laurent(1, 0.5, TAU),
                                                            rel=1e-12)
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
        # K = (-i/eta^3) theta[1/2;1/2](z, tau), on the old disk and far past it
        rng = random.Random(9)
        for tau in (TAU, 0.3 + 1.7j, 0.3 + 0.8j):
            for radius in (0.5, 3.0, 9.0):
                z = cmath.rect(radius * rng.uniform(0.1, 0.99), rng.uniform(0, 2 * math.pi))
                lhs = prime_form(z, tau)
                rhs = -1j / dedekind_eta(tau) ** 3 * theta_char(0.5, 0.5, z, tau)
                assert lhs == pytest.approx(rhs, rel=1e-11)

    @pytest.mark.parametrize("z,tau", [
        # once refused: the disk series needed E_150 there, whose term overflows
        (-6 + 0.1j, 1j), (-6 + 0.1j, 5j),
        # once refused: beyond the disk radius R = 2*pi*|tau| = 5.37
        (-5.2 + 2j, 0.3 + 0.8j),
        (1e-8 + 1e-9j, TAU), (1e-4 + 3e-5j, TAU), (0.3 - 2.1j, 0.45 + 0.07j)])
    def test_matches_mpmath(self, z, tau):
        ref = mp_prime_form(z, tau)
        assert abs(prime_form(z, tau) - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("z", [2e-11, 3e-11 - 1e-11j, 1e-7j, -2e-5 + 1e-5j])
    def test_relative_accuracy_near_zero(self, z):
        # terms n and -1-n taken together as a sinh: no cancellation as z -> 0
        assert prime_form(z, TAU) == pytest.approx(z, rel=1e-12)
        assert prime_form(-z, TAU) == -prime_form(z, TAU)

    @pytest.mark.parametrize("tau", [300j, 1000j, 0.4 + 1000j])
    def test_large_im_tau_is_twice_sinh(self, tau):
        # K -> 2 sinh(z/2) as q -> 0; no ZeroDivisionError once e^{i pi tau/4} is out
        for z in (0.3 - 0.2j, -4 + 2.5j, 12.0 + 1j):
            ref = 2 * cmath.sinh(z / 2)
            assert abs(prime_form(z, tau) - ref) <= 1e-12 * abs(ref)

    def test_float_overflow_is_not_converged(self):
        with pytest.raises(NotConverged, match="leave the float range"):
            prime_form(100.0, 1j)
        with pytest.raises(NotConverged, match="leave the float range"):
            p0_batch([1.0, 1e300], 1j)
        # E_n for n > 171 needs (n-1)! beyond the float range: refused, not a raw OverflowError
        with pytest.raises(NotConverged, match="E_172"):
            eisenstein(172, 5j)
        with pytest.raises(NotConverged, match="E_400"):
            eisenstein(400, 1j)

    def test_small_im_tau_is_not_converged(self):
        # the theta sums cancel to eta^3 ~ 3e-15 here: refused, not silently wrong
        with pytest.raises(NotConverged, match="rounding bound"):
            prime_form(0.1 + 0.05j, 0.02j)
        with pytest.raises(NotConverged, match="rounding bound"):
            p0(0.1 + 0.05j, 0.02j)
        with pytest.raises(NotConverged, match="more than 512 terms"):
            prime_form(0.1, 5e-324j)

    def test_zeros(self):
        # every use of K divides by it or takes its log: within 1e-11 of a lattice
        # point K and P_0 = -log K are NearPole, as the kernels P_k are
        for z in (0.0, 5e-12, 1e-300, 2j * math.pi, 2j * math.pi * TAU + 1e-13):
            with pytest.raises(NearPole):
                prime_form(z, TAU)
            with pytest.raises(NearPole):
                p0(z, TAU)
        assert p0(2e-11, TAU) == pytest.approx(-cmath.log(2e-11), rel=1e-15)
        with pytest.raises(DomainError):
            p0(complex(math.nan, 0.0), TAU)

    @pytest.mark.parametrize("z,tau", [
        # once NotConverged: the disk series' last orders overflowed
        (-0.95 * 2 * math.pi, 1j), (0.99 * disk_radius(0.3 + 0.8j), 0.3 + 0.8j),
        # once a DomainError: beyond the disk radius
        (7.0, TAU)])
    def test_refusals_past_the_disk_became_values(self, z, tau):
        assert cmath.exp(-p0(z, tau)) == pytest.approx(mp_prime_form(z, tau), rel=1e-12)

    def test_branch(self):
        # -Log z - Log(K/z): principal logs; K/z stays off the negative axis out to R
        rng = random.Random(13)
        for _ in range(40):
            tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.06, 3.0))
            zs = disk_batch(rng, tau, 25, reach=0.999)
            vals = p0_batch(zs, tau)
            for z, v in zip(zs, vals):
                assert abs((v + cmath.log(z)).imag) < 2.6


class TestP0Batch:
    def test_matches_the_laurent_series_on_the_disk(self):
        # seeded points out to 0.85 R, Im tau in [0.06, 3]; where the reference answers,
        # p0 answers and agrees within tol
        rng = random.Random(31)
        evaluated = 0
        for _ in range(24):
            tau = complex(rng.uniform(-0.5, 0.5), 0.06 * 50 ** rng.random())
            for z in disk_batch(rng, tau, rng.randint(1, 30), reach=0.85):
                try:
                    ref = seed_p0(z, tau)
                except NotConverged:
                    continue
                evaluated += 1
                assert abs(p0_batch([z], tau)[0] - ref) <= 1e-12 * max(1.0, abs(ref)), (z, tau)
        assert evaluated > 150

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_weierstrass_pk_matches_the_laurent_series(self, k):
        rng = random.Random(40 + k)
        evaluated = 0
        for _ in range(24):
            tau = complex(rng.uniform(-0.5, 0.5), 0.06 * 50 ** rng.random())
            for z in disk_batch(rng, tau, rng.randint(1, 20), reach=0.85):
                try:
                    ref = seed_laurent(k, z, tau)
                    val = weierstrass_pk(k, z, tau)
                except NotConverged:
                    continue
                evaluated += 1
                assert abs(val - ref) <= 1e-12 * max(1.0, abs(ref)), (z, tau)
        assert evaluated > 40

    def test_batch_invariance(self):
        # reordering and duplicating a batch, or calling one point alone, changes no bit
        rng = random.Random(12)
        for tau in [TAU, 1j, 0.3 + 0.8j, -0.45 + 0.9j, 0.2 + 2.5j, 0.5 + 0.45j]:
            zs = disk_batch(rng, tau, 25, reach=3.0)
            base = p0_batch(zs, tau)
            assert np.array_equal(p0_batch(zs, tau), base)
            order = list(range(len(zs)))
            rng.shuffle(order)
            shuffled = p0_batch([zs[i] for i in order] + zs[:7], tau)
            assert np.array_equal(shuffled[:len(zs)], base[order])
            assert np.array_equal(shuffled[len(zs):], base[:7])
            for i in (0, 9, 24):
                assert p0(zs[i], tau) == base[i]
                assert p0_batch(zs[i:i + 1], tau)[0] == base[i]

    def test_prime_form_table_depends_only_on_its_own_z(self):
        # columns to the sign of a zero, bounds, log-scales and shifts, whatever else the
        # table holds: at the prime form's characteristic, at a general one and at both,
        # with points near 0 (paired), at 0 and past the quasi-period
        rng = random.Random(14)
        for tau in [TAU, 0.3 + 0.8j, 1j, 0.3 + 40j, 0.1 + 0.07j]:
            zs = [complex(rng.uniform(-9, 9), rng.uniform(-6, 6)) for _ in range(30)]
            zs += [complex(rng.uniform(-3, 3), 0.0) for _ in range(5)] + [0.0, -0.0, 3j]
            zs += [complex(rng.uniform(-0.2, 0.2), rng.uniform(-0.1, 0.1)) for _ in range(4)]
            for chars in ([(0.5, 0.5)], [(0.31 - 0.5, 0.77 - 0.5)],
                          [(0.31 - 0.5, 0.77 + 0.5), (0.5, 0.5)]):
                for order in (1, 3):
                    cols, bounds, top, shifts, w = _theta_table(chars, np.array(zs + [0.0]),
                                                                tau, order, {})
                    for i, z in enumerate(zs):
                        one = _theta_table(chars, np.array([z, 0.0]), tau, order, {})
                        at = [i, -1]
                        whole = (cols[..., at], bounds[..., at], top[at], shifts[at])
                        for part, same in zip(one, whole):
                            assert part.tobytes() == same.tobytes(), z
                        # the reduced points, but for the sign of a zero
                        assert np.array_equal(one[4], w[at]), z

    def test_batch_raises_as_its_failing_point_alone(self):
        tau = 0.3 + 0.8j
        fine = [-1.0 + 0.2j, 0.5 - 0.7j, 1.4j, 0.99 * disk_radius(tau)]
        for bad, error in [(0.0, NearPole), (2j * math.pi * tau, NearPole),
                           (complex(math.nan, 0.0), DomainError),
                           (complex(math.inf, 1.0), DomainError)]:
            with pytest.raises(error):
                p0(bad, tau)
            with pytest.raises(error):
                p0_batch(fine[:1] + [bad] + fine[1:], tau)
        assert np.all(np.isfinite(p0_batch(fine, tau)))

    def test_empty_batches(self):
        out = p0_batch([], TAU)
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

    def test_per_point_tau_refuses_its_own_window(self):
        # a tau of one point whose window passes 512 terms refuses that point alone; the
        # other keeps the bits of its one-point call
        message = "theta window needs more than 512 terms either side of 0 at tau = 1e-05j"
        with pytest.raises(NotConverged, match=message) as info:
            _theta_chars(0.2, 0.3, [0.1j, 0.2j], [1j, 1e-5j])
        values, statuses = info.value.outcome
        assert statuses[0] is None and str(statuses[1]) == message
        assert values[0] == theta_char(0.2, 0.3, 0.1j, 1j)

    @pytest.mark.parametrize("a,b,tau", [(0.3, 0.2, TAU), (0.5, 0.5, TAU),
                                         (-1.2, 2.7, 0.3 + 0.8j), (0.5, -1.5, 1j)])
    def test_batch_values_do_not_depend_on_the_batch(self, a, b, tau):
        # reordering and duplicating a batch, or calling one point alone, changes no bit
        rng = random.Random(f"theta:{a}:{b}")
        zs = [complex(rng.uniform(-9, 9), rng.uniform(-6, 6)) for _ in range(20)]
        zs += [complex(rng.uniform(-3, 3), 0.0) for _ in range(3)] + [0.0, -0.0, 2j, 1e-9]
        base = _theta_chars(a, b, zs, tau)
        assert np.array_equal(_theta_chars(a, b, zs[::-1], tau), base[::-1])
        twice = _theta_chars(a, b, zs + zs[:5], tau)
        assert np.array_equal(twice, np.concatenate([base, base[:5]]))
        assert np.array_equal(np.array([theta_char(a, b, z, tau) for z in zs]), base)

    @pytest.mark.parametrize("b", [1e9 + 0.1, -2.5e7 - 0.3, 2.0**52 + 1.0])
    def test_large_b_keeps_its_phase(self, b):
        # theta[a; b] = e^{2 pi i a k} theta[a; b - k], k = round(b), a k mod 1 exact
        a, z, k = 0.3, 0.4 + 0.1j, round(b)
        ref = cmath.exp(2j * math.pi * float(Fraction(a) * k % 1)) * theta_char(a, b - k, z, TAU)
        assert abs(theta_char(a, b, z, TAU) - ref) <= 1e-12 * abs(ref)

    def test_window_follows_the_characteristic(self):
        # theta[a+1; b] = theta[a; b]
        assert abs(theta_char(40, 0.5, 0, 1j) - theta_char(0, 0.5, 0, 1j)) <= 1e-14

    @pytest.mark.parametrize("z", [1e-300, 1e-8 + 1e-9j, 1e-4 + 3e-5j, -2.5 + 0.7j])
    def test_odd_characteristic_is_relatively_accurate_near_zero(self, z):
        # theta[1/2;1/2] = i eta^3 K, its terms n and -1-n taken together as a sinh
        ref = 1j * dedekind_eta(TAU) ** 3 * mp_prime_form(z, TAU)
        assert abs(theta_char(0.5, 0.5, z, TAU) - ref) <= 1e-13 * abs(ref)
        assert theta_char(-0.5, 1.5, z, TAU) == -theta_char(0.5, 0.5, z, TAU)

    def test_refusals(self):
        for a, b, z in ((math.nan, 0.5, 0.0), (0.5, math.inf, 0.0),
                        (0.5, 0.5, complex(0.0, math.nan))):
            with pytest.raises(DomainError):
                theta_char(a, b, z, 1j)
        # the largest term, at n + a = 100/(2 pi), is exp(100^2/(4 pi)) > 1.8e308
        for z in (100.0, -1e300):
            with pytest.raises(NotConverged, match="largest term"):
                theta_char(0.5, 0.5, z, 1j)
        # pi Im tau n^2 past the float range
        with pytest.raises(NotConverged, match="pi Im\\(tau\\) n\\^2 leave the float range"):
            theta_char(0.2, 0.3, 0.1, 1e308j)


class TestDedekindEta:
    def test_leading_term(self):
        tau = 60j
        assert dedekind_eta(tau) / cmath.exp(2j * math.pi * tau / 24) == pytest.approx(1.0)

    def test_tau_i_real_positive(self):
        val = dedekind_eta(1j)
        assert abs(val.imag) < 1e-15
        assert val.real > 0

    def test_theta_constant(self):
        # Euler's pentagonal theorem: eta(tau) = e^{-pi i/6} theta[1/6; 1/2](0, 3 tau), on
        # the identity suite's tau box
        rng = random.Random("eta theta")
        for _ in range(200):
            tau = complex(rng.uniform(*_TAU_RE), rng.uniform(*_TAU_IM))
            rhs = cmath.exp(-1j * math.pi / 6) * theta_char(1 / 6, 0.5, 0, 3 * tau)
            assert dedekind_eta(tau) == pytest.approx(rhs, rel=1e-14, abs=0)

    def test_cube_vs_theta_derivative(self):
        # eta^3 = theta'[1/2;1/2](0)/i, derivative by central differences
        for tau in (TAU, 1j):
            approx = dz(lambda w: theta_char(0.5, 0.5, w, tau), 0.0)
            assert dedekind_eta(tau) ** 3 == pytest.approx(approx / 1j, rel=1e-10)

    def test_underflow_is_not_converged(self):
        # |eta(2800i)| = exp(-2800 pi/12) is subnormal
        with pytest.raises(NotConverged, match="underflows"):
            dedekind_eta(2800j)

    def test_product_past_the_q_order_cap_is_not_converged(self):
        # |q|^120 = e^-15 at Im tau 0.02: the product would need more factors than
        # Q_ORDER, and without a rounding bound taking more is not safe (taken to its
        # stop the product is 7.4e-12 relative off mpmath's at tol 1e-12)
        with pytest.raises(NotConverged, match="within Q_ORDER = 120"):
            dedekind_eta(0.02j)

    def test_s_transform(self):
        for tau in (TAU, 0.4 + 1.3j):
            lhs = dedekind_eta(-1 / tau)
            rhs = cmath.sqrt(-1j * tau) * dedekind_eta(tau)
            assert lhs == pytest.approx(rhs, rel=1e-12)
