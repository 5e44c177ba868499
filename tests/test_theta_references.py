"""theta_char, the prime form and P_k[tw] against 30-digit direct sums by mpmath.

The references sum theta[a;b](z, tau) = sum_n exp(i pi (n+a)^2 tau + (n+a)(z + 2 pi i b))
term by term at 40 digits over a window wide enough for 30, with a, b, z and tau taken
exactly as the floats given, and P_1[tw] as their quotient. They share nothing with the
library's theta table, which theta_char, the prime form and the P_k kernel all sum, so
they check it independently. P_k[tw] up to k = 30 is checked against the twisted lattice
sum, taken at 50 digits on the lattice oracle's route.
"""

import cmath
import math

import pytest

from twistell import (
    DEFAULT_CONFIG,
    NotConverged,
    TwistellError,
    TwistPair,
    prime_form,
    theta_char,
    twisted_pk,
    twisted_pk_oracle,
)

mp = pytest.importorskip("mpmath")

TOL = DEFAULT_CONFIG.tol


def mp_theta(a, b, z, tau, digits=30, j=0):
    """theta[a;b](z, tau), or its j-th z-derivative, by its direct sum, every term within
    10^-(digits + 10) of the largest."""
    with mp.workdps(digits + 10):
        a, b, z, tau = mp.mpf(a), mp.mpf(b), mp.mpc(z), mp.mpc(tau)
        spread = mp.pi * tau.imag
        centre = int(mp.nint(z.real / (2 * spread) - a))
        half = int(mp.sqrt((digits + 10) * mp.log(10) / spread)) + 2
        total = mp.mpc(0)
        for n in range(centre - half, centre + half + 1):
            x = n + a
            total += x ** j * mp.exp(1j * mp.pi * x * x * tau + x * (z + 2j * mp.pi * b))
        return total


def mp_prime_form(z, tau):
    """K(z) = theta[1/2;1/2](z) / theta'[1/2;1/2](0), the derivative by its own sum."""
    with mp.workdps(40):
        tau = mp.mpc(tau)
        spread = mp.pi * tau.imag
        half = int(mp.sqrt(40 * mp.log(10) / spread)) + 2
        dtheta = mp.mpc(0)
        for n in range(-half - 1, half + 1):
            x = n + mp.mpf(0.5)
            dtheta += x * mp.exp(1j * mp.pi * x * x * tau + x * 1j * mp.pi)
        return mp_theta(0.5, 0.5, z, tau) / dtheta


def mp_p1(tw, z, tau):
    """P_1[tw](z) = theta'[1/2;1/2](0) theta[lam+1/2; mu+1/2](z)
    / (theta[lam+1/2; mu+1/2](0) theta[1/2;1/2](z)), the characteristics exact."""
    with mp.workdps(40):
        half = mp.mpf(1) / 2
        a, b = mp.mpf(tw.lam) + half, mp.mpf(tw.mu) + half
        return (mp_theta(half, half, 0, tau, j=1) * mp_theta(a, b, z, tau)
                / (mp_theta(a, b, 0, tau) * mp_theta(half, half, z, tau)))


def mp_pk(k, tw, z, tau, digits=40):
    """P_k[tw](z, tau) by the twisted lattice sum on twisted_pk_oracle's route, every row
    within 10^-(digits + 10) of the peak: sum_m e^{2 pi i phase m} S_k(x_m; alpha), x_m
    = (z - 2 pi i step m) / div, over div^k, S_k = (-1)^(k-1)/(k-1)! times the (k-1)-th
    derivative of e^{alpha x}/(e^x - 1), sum_b c_b e^{(alpha+b-1) x}/(e^x - 1)^b by the
    oracle's recurrence for its c_b."""
    with mp.workdps(digits + 10):
        mu, lam, z, tau = mp.mpf(tw.mu), mp.mpf(tw.lam), mp.mpc(z), mp.mpc(tau)
        if lam:
            alpha, step, phase, div = lam, tau, -mu, 1
        else:
            alpha, step, phase, div = 1 - mu, 1, lam, tau
        coefs = [mp.mpf(1)]
        for _ in range(k - 1):
            coefs = [(alpha + b) * c - b * prev
                     for b, (c, prev) in enumerate(zip(coefs + [0], [0] + coefs))]
        # the rows decay as e^{-(1 - alpha) h m} and e^{-alpha h |m|}, Re x falling by h a row
        h = abs((2j * mp.pi * step / div).real)
        half = int((digits + 10) * mp.log(10) / (min(alpha, 1 - alpha) * h)) + 10
        total = mp.mpc(0)
        for m in range(-half, half + 1):
            x = (z - 2j * mp.pi * step * m) / div
            ex = mp.exp(x)
            g, poly = ex / (ex - 1), mp.mpf(0)
            for c in reversed(coefs):
                poly = poly * g + c
            total += mp.exp(2j * mp.pi * phase * m + alpha * x) / (ex - 1) * poly
        return (-1) ** (k - 1) / mp.factorial(k - 1) * total / div ** k


def close(value, ref):
    """value agrees with the 30-digit ref within tol relative, as theta_char states."""
    return abs(value - complex(ref)) <= TOL * float(abs(ref)) * (1.0 + 1e-6)


THETA_GOLDENS = [
    # general characteristics
    (0.3, 0.2, 0.4 + 0.1j, 0.12 + 1.1j),
    (-2.7, 1.45, -1.3 + 2.2j, 0.3 + 0.8j),
    (1.9, -0.35, 0.8 - 3.1j, -0.4 + 1.7j),
    # large Re z: the largest term is far from n = 0
    (0.3, 0.1, 40.0 + 1.0j, 1j),
    (0.5, 0.5, -35.0 + 0.3j, 0.12 + 1.1j),
    (-0.2, 0.7, -60.0 - 2.0j, 0.2 + 2.5j),
    # Im tau at 0.06, the smallest the table workload reaches
    (0.0, 0.0, 0.3, 0.06j),
    (0.25, 0.0, 0.1 + 0.2j, 0.1 + 0.06j),
    # Im tau at 1000: e^{i pi tau a^2} near 1e-123
    (0.3, 0.2, 0.4 + 0.1j, 1000j),
    (1.0, 0.3, 2.0 + 1.0j, 0.4 + 1000j),
    # large Re tau
    (0.3, 0.2, 0.4 + 0.1j, 123.45 + 1.1j),
    (-0.45, 2.2, -1.0 + 0.5j, -77.7 + 0.9j),
    # |z| from 7 to 30, at the bosonized side's theta argument: once refused, the bound
    # charging eps |x z| of the unreduced point; the third cancels, sum |term| / |theta|
    # being 380
    (-0.0894107, 0.612741, -23.2005 + 0.336017j, -0.314615 + 1.421713j),
    (0.5, 0.5, 21.7704 + 2.94526j, 0.261253 + 1.735631j),
    (-0.401298, 1.2924, -7.02244 - 3.51744j, 0.257125 + 1.239983j),
    (0.211148, 0.854951, -30.4105 - 1.5888j, 0.021839 + 0.907821j),
    # large Im z, reduced by 2 pi i first
    (0.257887, 0.732147, -1.55841 + 11.5824j, 0.312239 + 1.036584j),
]


@pytest.mark.parametrize("a,b,z,tau", THETA_GOLDENS)
def test_theta_char_matches_the_direct_sum(a, b, z, tau):
    assert close(theta_char(a, b, z, tau), mp_theta(a, b, z, tau))


@pytest.mark.parametrize("z,tau", [(1e-9 + 2e-10j, 0.12 + 1.1j), (3e-6j, 0.3 + 0.8j),
                                   (-2e-4 + 1e-4j, 0.1 + 0.5j), (5e-3 - 7e-3j, 2j)])
def test_prime_form_near_zero_matches_the_direct_sum(z, tau):
    ref = mp_prime_form(z, tau)
    assert abs(prime_form(z, tau) - complex(ref)) <= TOL * float(abs(ref))


P1_POINTS = [
    # a seeded spread over the plane, both sides of the imaginary axis and past the
    # quasi-period
    (TwistPair(0.31, 0.77), complex(-9.1, 2.3), 0.12 + 1.1j),
    (TwistPair(0.31, 0.77), complex(14.2, -5.0), 0.12 + 1.1j),
    (TwistPair(0.62, 0.05), complex(-2.2, 7.9), -0.3 + 0.8j),
    (TwistPair(0.5, 0.5), complex(4.4, 0.7), 0.2 + 2.5j),
    (TwistPair(0.07, 0.93), complex(-0.6, -3.3), 0.45 + 0.6j),
    # 500 quasi-periods out: once refused, the rounding eps |x z| of the unreduced point
    # passing tol; the lattice oracle's window does not reach its row
    (TwistPair(0.3, 0.7), complex(-3141.6, 0.4), 1j),
    # next to the pole at 0, where theta[1/2;1/2]'s terms cancel
    (TwistPair(0.31, 0.77), complex(0.0, -3e-6), 0.12 + 1.1j),
]


@pytest.mark.parametrize("tw,z,tau", P1_POINTS)
def test_p1_matches_the_theta_quotient(tw, z, tau):
    ref = mp_p1(tw, z, tau)
    assert close(twisted_pk(1, tw, z, tau), ref)


PK_POINTS = [
    # where the rounding bound once refused k >= 15, charging every Taylor column the
    # rounding of the table's top x^j / j!
    (15, TwistPair(0.31, 0.77), -0.3 + 0.2j, 1j),
    (20, TwistPair(0.31, 0.77), -0.3 + 0.2j, 1j),
    (28, TwistPair(0.31, 0.77), -0.3 + 0.2j, 1j),
    # once refused too, and where the float lattice oracle is 1.8e-12 to 8.5e-10 off
    (25, TwistPair(0.9636330153006151, 0.8099963055539944),
     0.9761820447203207 - 0.23143284682309684j, 0.43525077647893196 + 0.27496908295668093j),
    (27, TwistPair(0.1885348672602667, 0.4304517142685267),
     1.1165297655072512 + 0.09230006828042381j, -0.036625310558097035 + 0.7433754048364559j),
    (26, TwistPair(0.3924347511548607, 0.8197528761491403),
     -3.822553129978983 + 1.768436986339184j, 0.342713821732997 + 0.7871258195978872j),
    (30, TwistPair(0.8569044881894118, 0.37217928959100277),
     -5.004370998972358 + 1.013110865699903j, 0.30511937534351974 + 0.8935729407686389j),
    (26, TwistPair(0.032247110912016264, 0.43215181377112377),
     -2.579113449692601 - 0.6506388429311283j, -0.2637270839733845 + 0.44671028686671327j),
    (29, TwistPair(0.26367965177971975, 0.7197142715062754),
     0.13856048265763699 - 1.1942919093690103j, -0.2976256478917857 + 0.3210677143857262j),
]


@pytest.mark.parametrize("k,tw,z,tau", PK_POINTS)
def test_pk_matches_the_lattice_sum(k, tw, z, tau):
    # the kernel matches; the float lattice oracle matches or refuses by its rounding
    # bound (its sums are 1.8e-12 to 8.9e-10 off at the last six points)
    ref = mp_pk(k, tw, z, tau)
    assert abs(twisted_pk(k, tw, z, tau) - complex(ref)) <= TOL * max(1.0, float(abs(ref)))
    try:
        value = twisted_pk_oracle(k, tw, z, tau)
    except NotConverged as exc:
        assert "rounding bound" in str(exc)
    else:
        assert abs(value - complex(ref)) <= TOL * max(1.0, float(abs(ref)))


def test_theta_char_is_right_or_refused():
    """Over a, b in [-3, 3], |Re z|, |Im z| <= 8 and Im tau in [0.06, 5], theta_char
    either matches the direct sum within tol relative or raises a TwistellError."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    unit = st.floats(-3.0, 3.0, allow_nan=False)
    coord = st.floats(-8.0, 8.0, allow_nan=False)

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(a=unit, b=unit, x=coord, y=coord, re_tau=st.floats(-0.5, 0.5),
                      im_tau=st.floats(0.06, 5.0))
    def check(a, b, x, y, re_tau, im_tau):
        z, tau = complex(x, y), complex(re_tau, im_tau)
        try:
            value = theta_char(a, b, z, tau)
        except TwistellError:
            return
        assert cmath.isfinite(value)
        assert close(value, mp_theta(a, b, z, tau)), (a, b, z, tau, value)

    check()


def test_refusals_are_documented_errors():
    # theta[0;1/2](0, 0.02i) ~ 1e-16 is what is left of terms near 1: the rounding bound
    # passes tol; at 4e-5i the window passes 512 terms (the sum was rounding noise, 3e-13,
    # where the value is below 1e-300); theta[1/2;1/2] at Im tau = 1000 is below 1e-340
    for args in ((0.0, 0.5, 0.0, 0.02j), (0.3, 0.1, 0.0, 4e-5j), (0.5, 0.5, 1.0, 1000j)):
        with pytest.raises(TwistellError):
            theta_char(*args)
    assert math.isfinite(abs(theta_char(0.3, 0.1, 0.0, 0.5j)))
