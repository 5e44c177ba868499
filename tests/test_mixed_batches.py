"""Batches of samples at distinct (tau, twist) or (tau, characteristic) against one-point
calls.

twisted_pk_batch, classical._theta_chars and classical._prime_forms take tau, and the
twist or the characteristic, per point. Each value of such a batch equals its one-point
call bit for bit, and a batch raises what its first failing point, in point order,
would raise alone; its error's outcome holds every point's status, the type of the
point's one-point refusal, and the passing points' values. The draws put Im tau between
0.1 and 5, so the points' theta windows differ in width, and mix points inside the box,
points past a quasi-period, points with Re z > 0 (the kernel's parity flip) and points
within _PAIR_RADIUS of 0.

The lattice oracles' batch forms, twisted_pk_oracle_batch and
twisted_eisenstein_oracle_batch, take tw and tau per point too; their draws mix passing
points with points refused at each stage of the one-point call.

The correlator builders batch whole samples the same way: fermion._cd_matrices (the
C/D matrices, p1_difference_matrix among them), fermion._rank2_generatings (the
rank-two determinant) and fermion._bosonized (rank2_generating_boson, lattice_npoint
and rank2_partition_theta), each sample of mixed size at its own tau and twist. The C/D
builder stacks the samples of one layout, so its draws mix layouts and refused samples
in one batch.
"""

import contextlib
import gc
import io
import math

import numpy as np
import pytest

from twistell import cli, fermion
from twistell.classical import _PAIR_RADIUS, _prime_forms, _theta_chars, prime_form, theta_char
from twistell.errors import DomainError, TwistellError
from twistell.fermion import (
    OrbifoldParams,
    lattice_npoint,
    p1_difference_matrix,
    rank2_fock_npoint,
    rank2_generating,
    rank2_generating_boson,
    rank2_partition_theta,
)
from twistell.numeric import DEFAULT_CONFIG, determinant
from twistell.twisted import (
    TwistPair,
    twisted_eisenstein_oracle,
    twisted_eisenstein_oracle_batch,
    twisted_pk,
    twisted_pk_batch,
    twisted_pk_oracle,
    twisted_pk_oracle_batch,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

SETTINGS = hypothesis.settings(max_examples=120, deadline=None, derandomize=True,
                               database=None)


taus = st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.1, 5.0))


@st.composite
def point(draw):
    """(z, tau): tau with Im tau in [0.1, 5], z of one of four kinds."""
    tau = draw(taus)
    return draw(z_at(tau)), tau


@st.composite
def z_at(draw, tau):
    """A point at tau: inside the box, past a quasi-period, with Re z > 0, or near 0."""
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
    return z


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
    """A batch against its points' one-point outcomes, in point order: the first refusal
    raised, then each point's status (its first refused entry's type) and each passing
    point's value in the error's outcome."""
    refusals = [one for one in alone if isinstance(one, tuple)]
    if refusals:
        with pytest.raises(TwistellError) as info:
            batch()
        assert (type(info.value), str(info.value)) == refusals[0]
        values, statuses = info.value.outcome
        by_point = statuses.reshape(-1, statuses.shape[-1]).T
        kinds = [next((type(e) for e in entries if e is not None), None) for entries in by_point]
        assert kinds == [one[0] if isinstance(one, tuple) else None for one in alone]
    else:
        values = batch()
    for j, one in enumerate(alone):
        if not isinstance(one, tuple):
            value = values[j] if isinstance(values, list) else values[..., j]
            assert np.ascontiguousarray(value).tobytes() == one, j


@SETTINGS
@hypothesis.given(samples=st.lists(st.tuples(point(), twist), min_size=1, max_size=6),
                  ks=st.sampled_from([(1,), (2,), (3,), (1, 2, 3), (3, 1), (2, 2), (1, 16),
                                      (2, 7, 25)]))
def test_pk_batch_matches_one_point_calls(samples, ks):
    # every entry, (k, point), against its own one-order one-point call: its bits, or its
    # refusal's type and message, whatever orders the batch holds besides
    zs = [z for (z, _), _ in samples]
    taus = [tau for (_, tau), _ in samples]
    tws = [TwistPair(*tw) for _, tw in samples]
    entries = [[outcome(lambda k=k, z=z, tw=tw, tau=tau: twisted_pk_batch([k], tw, [z], tau)[0, 0])
                for k in ks] for z, tw, tau in zip(zs, tws, taus)]
    refusals = [one for point in entries for one in point if isinstance(one, tuple)]
    statuses = None
    try:
        values = twisted_pk_batch(ks, tws, zs, taus)
    except TwistellError as exc:
        # the first refused entry in point order, then row order
        assert refusals and (type(exc), str(exc)) == refusals[0]
        values, statuses = exc.outcome
    assert bool(refusals) == (statuses is not None)
    for j, point in enumerate(entries):
        for i, one in enumerate(point):
            status = None if statuses is None else statuses[i, j]
            if isinstance(one, tuple):
                assert status is not None and (type(status), str(status)) == one
            else:
                assert status is None and values[i, j].tobytes() == one, (i, j)


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


@st.composite
def oracle_point(draw):
    """(tw, z, tau) of a lattice oracle: most pass, the others are refused at one stage each,
    in the one-point call's order: tau, a non-finite z, a lattice point (or, at a subnormal
    Im tau, a lattice row out of the float range), the trivial twist, then, in the sum, a
    row outside the starting window and a window past its cap (Im tau 0.002)."""
    tau = draw(st.builds(complex, st.floats(-0.5, 0.5), st.floats(0.3, 3.0)))
    h = 2.0 * math.pi * tau.imag
    tw = TwistPair(*draw(st.one_of(st.tuples(phase, phase), st.tuples(st.just(0.0), phase),
                                   st.tuples(phase, st.just(0.0)))))
    z = complex(draw(st.floats(-h, h)), draw(st.floats(-math.pi, math.pi)))
    kind = draw(st.sampled_from(["pass"] * 6 + ["tau", "finite", "pole", "subnormal",
                                                "trivial", "row", "cap"]))
    if kind == "tau":
        tau = complex(tau.real, -tau.imag)
    elif kind == "finite":
        z = complex(draw(st.sampled_from([math.inf, -math.inf, math.nan])), z.imag)
    elif kind == "pole":
        z = 2j * math.pi * (draw(st.integers(-2, 2)) * tau + draw(st.integers(-2, 2)))
    elif kind == "subnormal":
        tau = complex(tau.real, 5e-324)
    elif kind == "trivial":
        tw = TwistPair()
    elif kind == "row":
        z = complex(-draw(st.floats(60.0, 200.0)) * h, z.imag)
    elif kind == "cap":
        tau = complex(tau.real, 0.002)
    return tw, z, tau


@SETTINGS
@hypothesis.given(samples=st.lists(oracle_point(), min_size=1, max_size=8),
                  k=st.sampled_from([1, 2, 3, 172]))
def test_pk_oracle_batch_matches_one_point_calls(samples, k):
    # k = 172 refuses every point that passes the checks before (k-1)!
    alone = [outcome(lambda s=s: twisted_pk_oracle(k, *s)) for s in samples]
    check_batch(lambda: twisted_pk_oracle_batch(k, *zip(*samples)), alone)


@SETTINGS
@hypothesis.given(samples=st.lists(oracle_point(), min_size=1, max_size=8),
                  n=st.sampled_from([1, 2, 3, 172]))
def test_eisenstein_oracle_batch_matches_one_point_calls(samples, n):
    # the oracle at z = 0, its pole row dropped: the points' own z take no part
    alone = [outcome(lambda tw=tw, tau=tau: twisted_eisenstein_oracle(n, tw, tau))
             for tw, _, tau in samples]
    check_batch(lambda: twisted_eisenstein_oracle_batch(
        n, [tw for tw, _, _ in samples], [tau for *_, tau in samples]), alone)


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
    # points either side of the imaginary axis read tw and tw^-1 from one numerator row,
    # its characteristic per column: every entry is its one-point call's, k = 1..5
    five = twisted_pk_batch(range(1, 6), tw, zs, tau)
    for j, z in enumerate(zs):
        assert [five[k - 1, j] for k in range(1, 6)] == [twisted_pk(k, tw, z, tau)
                                                         for k in range(1, 6)]
        assert (np.ascontiguousarray(five[:, j]).tobytes()
                == twisted_pk_batch(range(1, 6), tw, [z], tau).tobytes())


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


# the correlator batches: samples of mixed sizes, each at its own tau and twist

@st.composite
def cluster(draw, tau, n, lo, hi):
    """n points: most in the check's cluster, Re z in (lo, hi) and |Im z| < 0.9, some of
    any kind of z_at."""
    return [draw(st.one_of(st.builds(complex, st.floats(lo, hi), st.floats(-0.9, 0.9)),
                           z_at(tau))) for _ in range(n)]


orbifold = twist.map(lambda ab: OrbifoldParams(*ab))


@st.composite
def rank2_sample(draw):
    """(p, xs, ys, tau) with 0 to 3 points a side."""
    tau = draw(taus)
    n = draw(st.integers(0, 3))
    return (draw(orbifold), draw(cluster(tau, n, -2.2, -0.8)), draw(cluster(tau, n, -0.5, -0.01)),
            tau)


@st.composite
def lattice_sample(draw):
    """(p, ms, xs, ns, ys, tau): charges of 1 to 3 at up to three points a side, balanced but
    for a few draws (BalanceError)."""
    tau = draw(taus)
    ms = draw(st.lists(st.integers(1, 3), min_size=0, max_size=3))
    ns = draw(st.one_of(st.permutations(ms), st.just(list(reversed(ms))),
                        st.lists(st.integers(1, 3), max_size=3)))
    return (draw(orbifold), ms, draw(cluster(tau, len(ms), -2.2, -0.8)), ns,
            draw(cluster(tau, len(ns), -0.5, -0.01)), tau)


@SETTINGS
@hypothesis.given(samples=st.lists(rank2_sample(), min_size=1, max_size=5))
def test_rank2_generating_batch_matches_one_sample_calls(samples):
    # nontrivial twists take det(P_1[tw]) Z, the trivial one the bordered det(Q) eta^2
    alone = [outcome(lambda s=s: rank2_generating(*s)) for s in samples]
    check_batch(lambda: np.array(fermion._rank2_generatings(samples, DEFAULT_CONFIG)), alone)


@SETTINGS
@hypothesis.given(samples=st.lists(st.one_of(
    rank2_sample().map(lambda s: (fermion._boson_form, *s)),
    lattice_sample().map(lambda s: (fermion._lattice_form, *s)),
    st.tuples(st.just(fermion._partition_form), orbifold, taus)), min_size=1, max_size=5))
def test_bosonized_batch_matches_one_sample_calls(samples):
    one_sample = {fermion._boson_form: rank2_generating_boson,
                  fermion._lattice_form: lattice_npoint,
                  fermion._partition_form: rank2_partition_theta}
    alone = [outcome(lambda form=form, args=args: one_sample[form](*args))
             for form, *args in samples]
    check_batch(lambda: np.array(fermion._bosonized(samples, DEFAULT_CONFIG)), alone)


@st.composite
def matrix_sample(draw):
    """A _cd_matrices sample and its one-sample call: P_1[tw](z_i - z_j) with a diagonal,
    or the generalized trisecant's blocks, of the orders P_1..P_3."""
    tau = draw(taus)
    tw = TwistPair(*draw(twist))
    if draw(st.booleans()):
        zs = draw(cluster(tau, draw(st.integers(0, 4)), -2.6, -0.4))
        diag = draw(st.sampled_from([0.0, 0.37 - 0.2j, -1.5j]))
        return (fermion._p1_sample(tw, zs, tau, diag),
                lambda: p1_difference_matrix(tw, zs, tau, diag=diag))
    ms = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    ns = draw(st.permutations(ms))
    xs = draw(cluster(tau, len(ms), -2.2, -0.8))
    ys = draw(cluster(tau, len(ns), -0.5, -0.01))
    rows, cols = [range(1, m + 1) for m in ms], [range(1, n + 1) for n in ns]
    return ((tw, rows, xs, cols, ys, tau, None),
            lambda: fermion._cd_matrices([(tw, rows, xs, cols, ys, tau, None)],
                                         DEFAULT_CONFIG)[0])


@SETTINGS
@hypothesis.given(samples=st.lists(matrix_sample(), min_size=1, max_size=5))
def test_cd_matrix_batch_matches_one_sample_calls(samples):
    # one kernel call per order set: P_1 matrices, the (1,)-(1,) blocks and the P_1..P_3
    # blocks share calls by their orders
    alone = [outcome(one) for _, one in samples]
    check_batch(lambda: fermion._cd_matrices([sample for sample, _ in samples], DEFAULT_CONFIG),
                alone)


def test_cd_matrix_batch_calls_the_kernel_once_per_order_set(monkeypatch):
    calls = []
    kernel = fermion.twisted_pk_batch

    def counted(ks, tw, zs, tau, cfg):
        calls.append((tuple(ks), len(zs)))
        return kernel(ks, tw, zs, tau, cfg)

    monkeypatch.setattr(fermion, "twisted_pk_batch", counted)
    tw, tau = TwistPair(0.3, 0.6), 0.1 + 1.2j
    xs, ys = [-1.9 + 0.2j, -1.1 - 0.4j], [-0.3 + 0.5j, -0.1 - 0.2j]
    samples = [fermion._p1_sample(tw, xs + ys, tau),
               (tw, [range(1, 3)], xs[:1], [range(1, 3)], ys[:1], 0.2 + 0.9j, None),
               fermion._p1_sample(TwistPair(0.5, 0.5), xs, 0.3 + 2.0j, 0.5),
               (tw, [(1,)], xs[:1], [(1,)], ys[:1], tau, None)]
    mats = fermion._cd_matrices(samples, DEFAULT_CONFIG)
    assert sorted(calls) == [((1,), 12 + 2 + 1), ((1, 2, 3), 1)]
    assert [m.shape for m in mats] == [(4, 4), (2, 2), (2, 2), (1, 1)]


# the C/D builder's layouts: samples of one layout (row modes, column modes, shared or
# not, diagonal given or not) are gathered, factored and multiplied as one stack

@st.composite
def layout_sample(draw):
    """A _cd_matrices sample and its one-sample call, of one of five layouts: shared P_1
    with a diagonal, shared mode blocks with their C blocks (no diagonal), unshared P_1 and
    unshared mode blocks, 0 to 3 points a side; or a refused one: duplicate points, a
    non-finite z, a diagonal that is not finite, or a single block whose binomial
    C(1198, 599) leaves the float range."""
    tau = draw(taus)
    tw = TwistPair(*draw(twist))
    kind = draw(st.sampled_from(["p1", "p1", "c", "c", "xy", "xy", "blocks", "duplicate",
                                 "finite", "diag", "factor"]))
    n = draw(st.integers(0, 3))
    zs = draw(cluster(tau, n, -2.6, -0.4))
    modes = draw(st.lists(st.sampled_from([(1,), (2,), (1, 2), (1, 3), ()]), min_size=n,
                          max_size=n))
    if kind in ("duplicate", "finite"):
        zs = [-1.3 + 0.2j, -0.7 - 0.4j] + zs[:1]
        zs[-1] = zs[0] if kind == "duplicate" else complex(math.inf, 0.1)
        kind = "p1"
    if kind == "factor":
        zs, modes, kind = zs[:1] or [-1.0 + 0.0j], [(600,)], draw(st.sampled_from(["c", "d"]))
    if kind in ("p1", "diag"):
        diag = draw(st.sampled_from([0.0, 0.37 - 0.2j, -1.5j] if kind == "p1" else
                                    [math.nan, math.inf, complex(1.0, -math.inf)]))
        return (fermion._p1_sample(tw, zs, tau, diag),
                lambda: p1_difference_matrix(tw, zs, tau, diag=diag))
    if kind in ("c", "d"):
        diag = None if kind == "c" else 0.5j
        return ((tw, modes, zs, modes, None, tau, diag),
                lambda: fermion._cd_matrices([(tw, modes, zs, modes, None, tau, diag)],
                                             DEFAULT_CONFIG)[0])
    ys = draw(cluster(tau, n, -0.5, -0.01))
    rows = [(1,)] * n if kind == "xy" else modes
    cols = [(1,)] * n if kind == "xy" else draw(st.permutations(modes))
    return ((tw, rows, zs, cols, ys, tau, None),
            lambda: fermion._cd_matrices([(tw, rows, zs, cols, ys, tau, None)],
                                         DEFAULT_CONFIG)[0])


@SETTINGS
@hypothesis.given(samples=st.lists(layout_sample(), min_size=1, max_size=8))
def test_cd_stacks_of_mixed_layouts_match_one_sample_calls(samples):
    alone = [outcome(one) for _, one in samples]
    batch = [sample for sample, _ in samples]
    check_batch(lambda: fermion._cd_matrices(batch, DEFAULT_CONFIG), alone)
    if not any(isinstance(one, tuple) for one in alone):
        mats, dets = fermion._cd_determinants(batch, DEFAULT_CONFIG)
        for (_, one), mat, det in zip(samples, mats, dets):
            assert mat.shape == one().shape
            assert np.array_equal(det, determinant(mat))


def test_refused_calls_leave_no_error_alive():
    # numpy's object arrays hide their items from the cycle collector: an error that
    # carried the statuses holding it, or a frame holding them on the traceback of one it
    # raised, would never be freed
    def live():
        for _ in range(3):
            gc.collect()
        return sum(isinstance(o, TwistellError) for o in gc.get_objects())

    calls = [lambda: _theta_chars(0.2, 0.3, [0.1j, 0.2j], [1j, 1e-5j]),
             lambda: twisted_pk(1, TwistPair(0.3, 0.7), 0j, 1j),
             lambda: twisted_pk_oracle_batch(1, [TwistPair(), TwistPair(0.3, 0.7)], [-1, -1], 1j),
             lambda: rank2_generating(OrbifoldParams(0.3, 0.4), [0.1, 0.1], [0.2, 0.3], 1j)]
    before = live()
    for call in calls:
        try:
            call()
        except TwistellError:
            pass
    with contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(["table", "--function", "twisted_pk_oracle", "k=1", "mu=0", "lam=0",
                         "z=-1:-0.5:3", "tau=1i"]) == 1
    assert live() == before


def test_cd_stacks_skip_none_and_refused_samples(monkeypatch):
    # None, a sample that fails holds already and a sample refused for its diagonal take
    # no part: the kernel sees none of their points, and the other samples keep the bits
    # of their one-sample calls
    tw, tau = TwistPair(0.3, 0.6), 0.1 + 1.2j
    xs, ys = [-1.9 + 0.2j, -1.1 - 0.4j, -0.6 + 0.9j], [-0.3 + 0.5j]
    far = [-40.0 + 1.0j, -60.0 + 2.0j]
    samples = [fermion._p1_sample(tw, xs, tau), None, fermion._p1_sample(tw, far, tau),
               (tw, [(1, 2)], xs[:1], [(1, 2)], ys, tau, None),
               fermion._p1_sample(tw, far, tau, math.nan)]
    alone = {i: fermion._cd_matrices([samples[i]], DEFAULT_CONFIG)[0] for i in (0, 3)}
    seen = []
    kernel = fermion.twisted_pk_batch

    def counted(ks, tws, zs, taus, cfg):
        seen.extend(np.asarray(zs).tolist())
        return kernel(ks, tws, zs, taus, cfg)

    monkeypatch.setattr(fermion, "twisted_pk_batch", counted)
    before = DomainError("refused before")
    fails = {2: before}
    stacks = fermion._cd_stacks(samples, DEFAULT_CONFIG, fails)
    assert sorted(i for members, _ in stacks for i in members) == [0, 3]
    assert fails.keys() == {2, 4} and fails[2] is before
    assert (type(fails[4]), str(fails[4])) == (
        DomainError, "diagonal value must be finite, got nan")
    assert len(seen) == 3 * 2 + 1 and max(map(abs, seen)) < 2.0
    for members, stack in stacks:
        for i, mat in zip(members, stack):
            assert mat.tobytes() == alone[i].tobytes()


@st.composite
def rank2_layout_samples(draw):
    """(p, xs, ys, tau) samples of 1 or 2 points a side, so that most share a layout,
    their twists mixing trivial and nontrivial, some refused: duplicate points or a
    non-finite point."""
    out = []
    for _ in range(draw(st.integers(1, 8))):
        tau = draw(taus)
        n = draw(st.integers(1, 2))
        p = OrbifoldParams(*draw(st.one_of(st.just((0.0, 0.0)), st.tuples(phase, phase))))
        xs = draw(cluster(tau, n, -2.2, -0.8))
        ys = draw(cluster(tau, n, -0.5, -0.01))
        bad = draw(st.sampled_from([None] * 6 + ["duplicate", "finite"]))
        if bad == "duplicate":
            xs = [xs[0]] * 2
            ys = ys + ys[:1] if n == 1 else ys
        elif bad == "finite":
            ys = [complex(math.nan, 0.2)] + ys[1:]
        out.append((p, xs, ys, tau))
    return out


@SETTINGS
@hypothesis.given(samples=rank2_layout_samples())
def test_rank2_generating_stacks_match_one_sample_calls(samples):
    # trivial twists take the bordered det(Q) of their layout's stack, the others det(P_1)
    alone = [outcome(lambda s=s: rank2_generating(*s)) for s in samples]
    check_batch(lambda: np.array(fermion._rank2_generatings(samples, DEFAULT_CONFIG)), alone)


def test_cd_matrices_gather_once_per_layout_and_rank2_takes_one_det_per_stack(monkeypatch):
    tw, tau = TwistPair(0.3, 0.6), 0.1 + 1.2j
    xs, ys = [-1.9 + 0.2j, -1.1 - 0.4j], [-0.3 + 0.5j, -0.1 - 0.2j]
    samples = [fermion._p1_sample(tw, xs + ys, tau),
               (tw, [range(1, 3)], xs[:1], [range(1, 3)], ys[:1], 0.2 + 0.9j, None),
               fermion._p1_sample(TwistPair(0.5, 0.5), xs + ys, 0.3 + 2.0j, 0.5),
               (tw, [(1, 2), (1,)], xs, [(1, 2), (1,)], None, tau, None),
               (TwistPair(0.1, 0.2), [range(1, 3)], xs[1:], [range(1, 3)], ys[1:], tau, None),
               fermion._p1_sample(tw, xs, tau)]
    stacks = fermion._cd_stacks(samples, DEFAULT_CONFIG, {})
    # four layouts: P_1 with a diagonal at 4 and at 2 points, the (1, 2) blocks, the C blocks
    assert sorted((members, stack.shape) for members, stack in stacks) == [
        ([0, 2], (2, 4, 4)), ([1, 4], (2, 2, 2)), ([3], (1, 3, 3)), ([5], (1, 2, 2))]
    mats = fermion._cd_matrices(samples, DEFAULT_CONFIG)
    assert len({id(mat.base) for mat in mats}) == 4
    assert mats[0].base is mats[2].base and mats[1].base is mats[4].base

    dets = []
    det = np.linalg.det

    def counted(a):
        dets.append(a.shape)
        return det(a)

    monkeypatch.setattr(np.linalg, "det", counted)
    p, triv = OrbifoldParams(0.27, 0.63), OrbifoldParams(0.0, 0.0)
    draws = [(p, xs, ys, tau), (triv, xs, ys, 0.2 + 0.9j), (p, xs[:1], ys[:1], tau),
             (OrbifoldParams(0.4, 0.1), xs, ys, 0.3 + 1.1j), (triv, xs[:1], ys[:1], tau),
             (triv, xs, ys, tau), (p, [], [], tau)]
    fermion._rank2_generatings(draws, DEFAULT_CONFIG)
    # per layout one det of its nontrivial twists and one of its trivial twists' det Q
    assert sorted(dets) == [(1, 1, 1), (1, 2, 2), (2, 2, 2), (2, 3, 3)]
    # a Fock determinant comes from its one-sample stack too
    dets.clear()
    rank2_fock_npoint([((1, 2), (1,)), ((1,), (2, 3)), ((3,), (1,))], xs + ys[:1], p, tau)
    assert dets == [(1, 4, 4)]
