"""Batches of samples at distinct (tau, twist) or (tau, characteristic) against one-point
calls.

twisted_pk_batch, classical._theta_chars and classical._prime_forms take tau, and the
twist or the characteristic, per point. Each value of such a batch equals its one-point
call bit for bit, and a batch raises what its first failing point, in point order,
would raise alone. The draws put Im tau between 0.1 and 5, so the points' theta windows
differ in width, and mix points inside the box, points past a quasi-period, points
with Re z > 0 (the kernel's parity flip) and points within _PAIR_RADIUS of 0.
"""

import math

import numpy as np
import pytest

from twistell.classical import _PAIR_RADIUS, _prime_forms, _theta_chars, prime_form, theta_char
from twistell.errors import TwistellError
from twistell.twisted import TwistPair, twisted_pk_batch

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                               database=None)


@st.composite
def point(draw):
    """(z, tau): tau with Im tau in [0.1, 5], z of one of four kinds."""
    tau = complex(draw(st.floats(-0.5, 0.5)), draw(st.floats(0.1, 5.0)))
    h = math.pi * tau.imag
    kind = draw(st.sampled_from(["box", "shifted", "flipped", "near"]))
    if kind == "box":
        z = complex(draw(st.floats(-h, 0.0)), draw(st.floats(-math.pi, math.pi)))
    elif kind == "shifted":
        # |Re z| > pi Im tau or |Im z| > pi: moved by a period before it is summed
        z = complex(draw(st.floats(-6.0 * h, 6.0 * h)), draw(st.floats(-12.0, 12.0)))
    elif kind == "flipped":
        z = complex(draw(st.floats(1e-3, h)), draw(st.floats(-math.pi, math.pi)))
    else:
        r = _PAIR_RADIUS / 1.5
        z = complex(draw(st.floats(-r, r)), draw(st.floats(-r, r)))
    return z, tau


phase = st.floats(0.0, 1.0, exclude_max=True)
twist = st.one_of(st.sampled_from([(0.0, 0.0), (0.5, 0.5), (0.5, 0.0), (0.0, 0.5)]),
                  st.tuples(phase, phase), st.tuples(st.just(0.0), phase))
char = st.one_of(st.sampled_from([(0.5, 0.5), (-0.5, 0.5), (1.5, -2.5), (0.0, 0.5)]),
                 st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)))


def outcome(fn):
    """The bytes of fn's value, or the type and message of its refusal."""
    try:
        return np.ascontiguousarray(fn()).tobytes()
    except TwistellError as exc:
        return type(exc), str(exc)


def check_batch(batch, alone):
    """A batch against its points' one-point outcomes, in point order."""
    refusals = [one for one in alone if isinstance(one, tuple)]
    if refusals:
        with pytest.raises(TwistellError) as info:
            batch()
        assert (type(info.value), str(info.value)) == refusals[0]
        return
    values = batch()
    for j, one in enumerate(alone):
        assert np.ascontiguousarray(values[..., j]).tobytes() == one, j


@SETTINGS
@hypothesis.given(samples=st.lists(st.tuples(point(), twist), min_size=1, max_size=6),
                  ks=st.sampled_from([(1,), (2,), (3,), (1, 2, 3), (3, 1), (2, 2)]))
def test_pk_batch_matches_one_point_calls(samples, ks):
    zs = [z for (z, _), _ in samples]
    taus = [tau for (_, tau), _ in samples]
    tws = [TwistPair(*tw) for _, tw in samples]
    alone = [outcome(lambda z=z, tw=tw, tau=tau: twisted_pk_batch(ks, tw, [z], tau)[:, 0])
             for z, tw, tau in zip(zs, tws, taus)]
    check_batch(lambda: twisted_pk_batch(ks, tws, zs, taus), alone)


@SETTINGS
@hypothesis.given(samples=st.lists(st.tuples(point(), char), min_size=1, max_size=6))
def test_theta_char_batch_matches_one_point_calls(samples):
    zs = [z for (z, _), _ in samples]
    taus = [tau for (_, tau), _ in samples]
    chars = [ab for _, ab in samples]
    alone = [outcome(lambda z=z, ab=ab, tau=tau: theta_char(*ab, z, tau))
             for z, ab, tau in zip(zs, chars, taus)]
    check_batch(lambda: _theta_chars([a for a, _ in chars], [b for _, b in chars], zs, taus),
                alone)


@SETTINGS
@hypothesis.given(samples=st.lists(point(), min_size=1, max_size=6))
def test_prime_form_batch_matches_one_point_calls(samples):
    zs = [z for z, _ in samples]
    taus = [tau for _, tau in samples]
    alone = [outcome(lambda z=z, tau=tau: prime_form(z, tau)) for z, tau in samples]
    check_batch(lambda: _prime_forms(zs, taus), alone)


def test_one_twist_and_tau_spread_over_the_points():
    # a TwistPair and a tau given per point, all equal, give the one-twist batch's bits
    tau, tw = 0.12 + 1.1j, TwistPair(0.31, 0.77)
    zs = [-1.2 + 0.3j, 0.4 - 0.2j, 0.01 + 0.02j, 9.0 + 4.0j]
    one = twisted_pk_batch((1, 2, 3), tw, zs, tau)
    per = twisted_pk_batch((1, 2, 3), [tw] * len(zs), zs, [tau] * len(zs))
    assert one.tobytes() == per.tobytes()
    assert _prime_forms(zs, tau).tobytes() == _prime_forms(zs, [tau] * len(zs)).tobytes()
    assert (_theta_chars(0.3, 0.2, zs, tau).tobytes()
            == _theta_chars([0.3] * 4, [0.2] * 4, zs, [tau] * 4).tobytes())


def test_per_point_arguments_need_one_value_per_point():
    with pytest.raises(ValueError):
        twisted_pk_batch((1,), TwistPair(0.3, 0.4), [-1.0, -0.5], [1j])
    with pytest.raises(ValueError):
        twisted_pk_batch((1,), [TwistPair(0.3, 0.4)], [-1.0, -0.5], 1j)
    with pytest.raises(ValueError):
        _theta_chars([0.1, 0.2, 0.3], 0.2, [0.1, 0.2], 1j)
    with pytest.raises(ValueError):
        _prime_forms([-1.0], [1j, 2j])


def test_points_with_different_windows():
    # Im tau 0.15 needs a wider theta window than Im tau 4: the narrower points' terms
    # past their own windows are exact zeros, and every value keeps its one-point bits
    taus = [0.1 + 0.15j, -0.2 + 4.0j, 0.3 + 1.0j, 0.1 + 0.15j]
    zs = [-0.3 + 0.2j, 0.01 - 0.02j, 2.5 + 1.0j, 0.02 + 0.01j]
    tws = [TwistPair(0.3, 0.6), TwistPair(0.5, 0.5), TwistPair(), TwistPair(0.3, 0.6)]
    batch = twisted_pk_batch((1, 2), tws, zs, taus)
    for j, (tw, z, tau) in enumerate(zip(tws, zs, taus)):
        assert (np.ascontiguousarray(batch[:, j]).tobytes()
                == twisted_pk_batch((1, 2), tw, [z], tau).tobytes())
    for j, (z, tau) in enumerate(zip(zs, taus)):
        assert _prime_forms(zs, taus)[j] == prime_form(z, tau)
        assert _theta_chars(0.5, 0.5, zs, taus)[j] == theta_char(0.5, 0.5, z, tau)
