"""Layer timings of the Pfaffian and the determinant (L0), the E_n q-series, theta, the
prime form K and P_0 = -log K (L1), the P_k theta-quotient kernel, E_n[tw] and their
lattice oracles (L2), the correlators built on them (L3), and `twistell table` grids
through cli.main in this process (L4), one of them a grid of binomials that times the
table's text path alone, and `twistell verify --suite all --seed 7` in a fresh process
(L4.verify.cold). The *_many rows time samples at distinct tau, as the identity
suite draws them, as a loop of one-point (one-sample) calls and as one call with
per-point (per-sample) arguments.

Run from the repository root:

    python3 bench/layers.py                   # times the library in src/
    python3 bench/layers.py --src OTHER/src   # times another checkout, e.g. a parent commit
    python3 bench/layers.py --ab OTHER/src    # times src/ and OTHER/src side by side

Each figure is the min and the median over repeats, in microseconds per call (per
evaluation for the E_n rows, per grid for the E_n[tw] grid and table rows), with the E_n
and eta caches emptied before every repeat. Prints one JSON object, with src_lines, the
line count of the timed checkout's twistell/*.py, beside the timings; needs nothing
beyond the library itself and time.perf_counter.

With --ab, both twistell packages are copied into a temporary directory under two names
and imported side by side in this one process; each row's repeats alternate between
them, so that both meet the same host load, and a row reports both minima and their
ratio, OTHER's over src's.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ORDERS = (1, 2, 3)


def once(fn, clear, inner: int = 1, calls: int = 1) -> float:
    """Seconds per call of one repeat, the caches emptied first: fn runs inner times, and
    each run makes `calls` calls of the timed function."""
    clear()
    start = time.perf_counter()
    for _ in range(inner):
        fn()
    return (time.perf_counter() - start) / (inner * calls)


def timed(fn, clear, repeats: int, inner: int = 1, calls: int = 1) -> dict:
    """Min and median over repeats of the time per call (once)."""
    per_call = [once(fn, clear, inner, calls) for _ in range(repeats)]
    return {"min_us": round(min(per_call) * 1e6, 2),
            "median_us": round(statistics.median(per_call) * 1e6, 2)}


def src_lines(src) -> int:
    """The line count of the twistell/*.py under src."""
    return sum(len(path.read_text().splitlines())
               for path in (Path(src) / "twistell").glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the twistell package")
    parser.add_argument("--ab", metavar="OTHER", default=None,
                        help="directory holding a second twistell package, timed beside --src")
    parser.add_argument("--repeats", type=int, default=30)
    parser.add_argument("--seed", type=int, default=4)
    args = parser.parse_args(argv)
    import numpy as np
    report = {"src": os.path.abspath(args.src), "src_lines": src_lines(args.src)}
    if args.ab is None:
        sys.path.insert(0, args.src)
        import twistell
        table, clear = rows(twistell, args.seed)
        out = {}
        for name, (fn, inner, calls) in table.items():
            out[name] = timed(fn, clear, args.repeats, inner, calls)
            print(f"{name:32s} min {out[name]['min_us']:>11.2f} us  "
                  f"median {out[name]['median_us']:>11.2f} us", file=sys.stderr)
    else:
        report.update(other=os.path.abspath(args.ab), other_src_lines=src_lines(args.ab))
        out = ab_timings(args.src, args.ab, args.repeats, args.seed)
    print(json.dumps({**report, "python": platform.python_version(), "numpy": np.__version__,
                      "cpus": os.cpu_count(), "repeats": args.repeats, "seed": args.seed,
                      "timings": out}, indent=1))
    return 0


def ab_timings(src, other, repeats: int, seed: int) -> dict:
    """Each row's minimum against the twistell packages under src and other, imported side
    by side from copies named twistell_src and twistell_other, their repeats alternating,
    with the ratio of other's minimum over src's."""
    names = ("twistell_src", "twistell_other")
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, root in zip(names, (src, other)):
            shutil.copytree(Path(root) / "twistell", Path(tmp) / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        # the packages import lazily too, so the copies stay until the last row
        sys.path.insert(0, tmp)
        try:
            (mine, clear_mine), (theirs, clear_theirs) = (
                rows(importlib.import_module(name), seed) for name in names)

            def clear():
                clear_mine()
                clear_theirs()

            for name in [name for name in mine if name in theirs]:
                (fn, inner, calls), other_fn = mine[name], theirs[name][0]
                sides = [[fn, math.inf], [other_fn, math.inf]]
                for r in range(repeats):
                    for side in sides[::-1] if r % 2 else sides:
                        side[1] = min(side[1], once(side[0], clear, inner, calls))
                (_, a), (_, b) = sides
                out[name] = {"min_us": round(a * 1e6, 2), "other_min_us": round(b * 1e6, 2),
                             "ratio": round(b / a, 4)}
                print(f"{name:32s} min {a * 1e6:>11.2f} us  other {b * 1e6:>11.2f} us  "
                      f"ratio {b / a:7.4f}", file=sys.stderr)
        finally:
            sys.path.remove(tmp)
            for name in [m for m in sys.modules if m.partition(".")[0] in names]:
                del sys.modules[name]
    return out


def rows(twistell, seed: int):
    """Every row against the twistell package given, built from seed: ({name: (fn, inner,
    calls)}, clear), clear emptying the package's E_n and eta caches."""
    import numpy as np

    cli = importlib.import_module(f"{twistell.__name__}.cli")
    TwistellError = twistell.TwistellError
    (GSelector, OrbifoldParams, TwistPair, dedekind_eta, determinant, eisenstein, p0, pfaffian,
     prime_form, rank1_fock_npoint, rank1_generating, rank2_fock_npoint, rank2_generating,
     rank2_generating_boson, theta_char, twisted_eisenstein, twisted_eisenstein_oracle,
     twisted_pk, twisted_pk_oracle) = (getattr(twistell, name) for name in (
        "GSelector OrbifoldParams TwistPair dedekind_eta determinant eisenstein p0 pfaffian "
        "prime_form rank1_fock_npoint rank1_generating rank2_fock_npoint rank2_generating "
        "rank2_generating_boson theta_char twisted_eisenstein twisted_eisenstein_oracle "
        "twisted_pk twisted_pk_oracle").split())

    def clear():
        eisenstein.cache_clear()
        dedekind_eta.cache_clear()

    batch, p0_batch = twistell.twisted_pk_batch, twistell.p0_batch
    fermion, twisted = twistell.fermion, twistell.twisted
    rng = random.Random(seed)
    tau = 0.12 + 1.1j
    tw = TwistPair(0.31, 0.77)
    width = 2 * math.pi * tau.imag
    points = [complex(-width * rng.uniform(0.05, 0.95), rng.uniform(-3, 3)) for _ in range(256)]
    out: dict = {}

    def run(name, fn, inner=1, calls=1):
        out[name] = fn, inner, calls

    # L0: Pfaffian and determinant of seeded antisymmetric complex matrices; their own
    # stream keeps the points of earlier runs
    mat_rng = np.random.default_rng(seed)
    for d in (4, 8, 12, 16, 32):
        a = mat_rng.standard_normal((d, d)) + 1j * mat_rng.standard_normal((d, d))
        a = a - a.T
        run(f"L0.pfaffian.d{d}", lambda a=a: pfaffian(a), inner=20)
        if d != 12:
            run(f"L0.determinant.d{d}", lambda a=a: determinant(a), inner=20)
    # L1: cold E_n, even n = 2..60 at 8 tau of the periodicity check's box, per evaluation;
    # its own stream keeps the points of earlier runs
    eis_rng = random.Random(f"eisenstein:{seed}")
    eis_taus = [complex(eis_rng.uniform(-0.15, 0.15), eis_rng.uniform(0.8, 0.95))
                for _ in range(8)]
    eis_calls = [(n, t) for t in eis_taus for n in range(2, 61, 2)]
    run("L1.eisenstein.cold", lambda: [eisenstein(n, t) for n, t in eis_calls],
        calls=len(eis_calls))
    # L1: one theta value at a characteristic near 0 and one near 40, where the window
    # follows the characteristic (a checkout that keeps its window at n = 0 misses there),
    # at [1/2;1/2], whose terms n and -1-n cancel near z = 0, and far from 0, at z = 30+1i,
    # five quasi-periods out
    for label, a, b, z in (("a0", 0.3, 0.2, 0.4 + 0.1j), ("a40", 40.3, 0.2, 0.4 + 0.1j),
                           ("half", 0.5, 0.5, 0.4 + 0.1j), ("far", 0.3, 0.2, 30 + 1j)):
        run(f"L1.theta_char.{label}", lambda a=a, b=b, z=z: theta_char(a, b, z, tau),
            inner=50)
    # L1: the theta engine alone, theta[1/2;1/2] and its first derivative at 1 point and at
    # the 256 L2 points and 0: its fixed cost and its cost per column
    for n, zs in ((1, np.array([0.4 + 0.1j])), (257, np.array(points + [0j]))):
        run(f"L1.theta_table.n{n}",
            lambda zs=zs: twistell.classical._theta_table([(0.5, 0.5)], zs, tau, 2, {}))
    # L1: one prime form value, the quotient of theta[1/2;1/2] at z and its derivative at 0
    run("L1.prime_form.one", lambda: prime_form(-1.2 + 0.3j, tau), inner=50)
    # L1: cold eta at the 8 tau of the E_n row, per evaluation
    run("L1.eta", lambda: [dedekind_eta(t) for t in eis_taus], calls=len(eis_taus))
    # L1, L2: samples at distinct tau and characteristic or twist, drawn as the identity
    # suite draws them (tau in its box; P_1 at z with |Re z| < 2 pi Im tau, |Im z| < pi,
    # theta at z with |Re z|, |Im z| < 2), where the one-point calls return values:
    # one-point calls in a loop (.loop), against one call taking tau and the
    # characteristic or twist per point
    many_rng = random.Random(f"many:{seed}")
    many = []
    while len(many) < 100:
        s = complex(many_rng.uniform(-0.4, 0.4), many_rng.uniform(0.8, 2.0))
        h = 2 * math.pi * s.imag
        sample = (s, complex(many_rng.uniform(-h, h), many_rng.uniform(-math.pi, math.pi)),
                  TwistPair(many_rng.uniform(0.06, 0.94), many_rng.uniform(0.06, 0.94)),
                  complex(many_rng.uniform(-2, 2), many_rng.uniform(-2, 2)),
                  many_rng.uniform(-1.5, 1.5), many_rng.uniform(-1.5, 1.5))
        try:
            twisted_pk(1, sample[2], sample[1], s)
            theta_char(sample[4], sample[5], sample[3], s)
        except TwistellError:
            continue
        many.append(sample)
    m_taus, m_zs, m_tws, m_zt, m_a, m_b = (list(c) for c in zip(*many))
    run("L1.theta_many.n100.loop",
        lambda: [theta_char(*s) for s in zip(m_a, m_b, m_zt, m_taus)])
    run("L1.theta_many.n100",
        lambda: twistell.classical._theta_chars(m_a, m_b, m_zt, m_taus))
    run("L2.pk_many.n50.loop",
        lambda: [twisted_pk(1, *s) for s in zip(m_tws[:50], m_zs[:50], m_taus[:50])])
    run("L2.pk_many.n50", lambda: batch((1,), m_tws[:50], m_zs[:50], m_taus[:50]))
    # L2: the same points, every third at the trivial twist, P_1..P_3: one table holds both
    # kinds of twist, each kind's points taking their own quotient
    kinds = [TwistPair() if i % 3 == 0 else t for i, t in enumerate(m_tws[:50])]
    run("L2.pk_many.kinds.n50", lambda: batch(ORDERS, kinds, m_zs[:50], m_taus[:50]))
    # L2: the lattice oracles at the same samples, P_1 at z and E_2 at tau
    run("L2.pk_oracle_many.n50.loop",
        lambda: [twisted_pk_oracle(1, *s) for s in zip(m_tws[:50], m_zs[:50], m_taus[:50])])
    run("L2.eisenstein_oracle_many.n50.loop",
        lambda: [twisted_eisenstein_oracle(2, *s) for s in zip(m_tws[:50], m_taus[:50])])
    run("L2.pk_oracle_many.n50",
        lambda: twisted.twisted_pk_oracle_batch(1, m_tws[:50], m_zs[:50], m_taus[:50]))
    run("L2.eisenstein_oracle_many.n50",
        lambda: twisted.twisted_eisenstein_oracle_batch(2, m_tws[:50], m_taus[:50]))
    # L1: P_0 at n points with |z| < 2.5, inside the radius R = 2*pi of its Laurent series,
    # one call per z against one batched call; a separate stream keeps the L2/L3 points of
    # earlier runs
    disk_rng = random.Random(f"disk:{seed}")
    disk = [complex(disk_rng.uniform(-2.0, -0.1), disk_rng.uniform(-1.5, 1.5))
            for _ in range(256)]
    for n in (1, 16, 256):
        zs = disk[:n]
        run(f"L1.p0_loop.n{n}", lambda zs=zs: [p0(z, tau) for z in zs])
        run(f"L1.p0_batch.n{n}", lambda zs=zs: p0_batch(zs, tau))
    # L2: one-point calls, mid-annulus and 0.25% of the width from the |q_z| = 1 edge
    for label, frac in (("mid", 0.5), ("edge", 0.0025)):
        z = complex(-width * frac, 0.4)
        for k in (1, 3):
            run(f"L2.pk_one.{label}.k{k}", lambda k=k, z=z: twisted_pk(k, tw, z, tau), inner=20)
    # L2: E_n[tw], n = 1..3, per evaluation, at the table's smallest Im tau and at Im tau = 1
    for label, t in (("im0.06", 0.12 + 0.06j), ("im1", 0.12 + 1j)):
        run(f"L2.twisted_eisenstein.{label}",
            lambda t=t: [twisted_eisenstein(n, tw, t) for n in ORDERS], calls=len(ORDERS))
    # L2: the lattice oracles, one call each, on the route of phi != 1 (tw) and on the
    # route of theta != 1 (phi = 1), the point mid-annulus
    z = complex(-width * 0.5, 0.4)
    for route, t in (("phi", tw), ("theta", TwistPair(tw.mu, 0.0))):
        for k in (1, 3):
            run(f"L2.pk_oracle.{route}.k{k}",
                lambda k=k, t=t: twisted_pk_oracle(k, t, z, tau), inner=20)
        run(f"L2.eisenstein_oracle.{route}.n2",
            lambda t=t: twisted_eisenstein_oracle(2, t, tau), inner=20)
    # L2: E_n[tw], n = 1..3, on a 25-point tau line from Im tau 0.06 to 2, the shape of a
    # table grid, in one batched call, per grid
    line = [complex(0.12, 0.06 + (2.0 - 0.06) * i / 24) for i in range(25)]
    run("L2.twisted_eisenstein_batch.grid",
        lambda: twistell.twisted_eisenstein_batch(ORDERS, tw, line))
    # L2: P_1..P_3 at n points, one call per (k, z) against one batched call
    for n in (1, 16, 256):
        zs = points[:n]
        run(f"L2.pk_loop.n{n}", lambda zs=zs: [twisted_pk(k, tw, z, tau)
                                                for k in ORDERS for z in zs])
        run(f"L2.pk_batch.n{n}", lambda zs=zs: batch(ORDERS, tw, zs, tau))
    # L2: 16 points 1e-3 of the width from the |q_z| = 1 edge, one call each: P_1, and
    # P_1..P_3; their own stream keeps the L3 points of earlier runs
    edge_rng = random.Random(f"edge:{seed}")
    edge = [complex(-width * 1e-3, edge_rng.uniform(-3, 3)) for _ in range(16)]
    # the fixed cost of a call with no points
    run("L2.pk_batch.empty", lambda: batch(ORDERS, tw, [], tau), inner=50)
    run("L2.pk_batch.edge.k1", lambda: batch((1,), tw, edge, tau))
    run("L2.pk_batch.edge", lambda: batch(ORDERS, tw, edge, tau))
    # L2: the rank-two Fock shape, P_1..P_5 at the 6 differences of 3 insertion points, of
    # both parities at a twist that is not its own inverse; its own stream, as above
    fock_rng = random.Random(f"fock:{seed}")
    fock = [complex(fock_rng.uniform(-2.6, -0.4), fock_rng.uniform(-2.0, 2.0)) for _ in range(3)]
    mixed = [x - y for x in fock for y in fock if x != y]
    run("L2.pk_batch.mixed", lambda: batch((1, 2, 3, 4, 5), tw, mixed, tau))
    # L3: determinant correlators on a jittered grid with every x - y in the annulus
    p = OrbifoldParams(0.27, 0.63)
    for n in (2, 4, 8, 16):
        xs = [complex(-3.2 + 0.9 * rng.random(), 6.0 * (i + rng.random()) / n - 3.0)
              for i in range(n)]
        ys = [complex(-0.9 + 0.7 * rng.random(), 6.0 * (i + rng.random()) / n - 3.0)
              for i in range(n)]
        run(f"L3.rank2_generating.n{n}", lambda xs=xs, ys=ys: rank2_generating(p, xs, ys, tau))
    # L3: rank-one Pfaffian correlators, n points spread over the box of the L2 points
    for n in (4, 8, 12):
        zs = points[256 - n:]
        run(f"L3.rank1_generating.n{n}", lambda zs=zs: rank1_generating(GSelector.SIGMA, zs, tau))
    # L3: the bosonized form, n^2 + n(n-1) prime forms, on two clusters whose pairwise
    # differences all stay below 2.6 in modulus
    for n in (2, 4, 8, 16):
        xs = [complex(disk_rng.uniform(-2.2, -0.8), disk_rng.uniform(-0.9, 0.9)) for _ in range(n)]
        ys = [complex(disk_rng.uniform(-0.5, -0.01), disk_rng.uniform(-0.9, 0.9))
              for _ in range(n)]
        run(f"L3.rank2_generating_boson.n{n}",
            lambda xs=xs, ys=ys: rank2_generating_boson(p, xs, ys, tau))
    # L3: 25 n = 2 samples at distinct (p, tau), drawn as the Fay check draws them (p's
    # phases in [0.08, 0.92], tau in its box, the psi+/psi- clusters with each group's
    # points 0.05 apart), as a loop of one-sample calls (.loop) against one batched call
    fay_rng = random.Random(f"fay:{seed}")
    fay = []
    while len(fay) < 25:
        fp = OrbifoldParams(fay_rng.uniform(0.08, 0.92), fay_rng.uniform(0.08, 0.92))
        ft = complex(fay_rng.uniform(-0.4, 0.4), fay_rng.uniform(0.8, 2.0))
        xs = [complex(fay_rng.uniform(-2.2, -0.8), fay_rng.uniform(-0.9, 0.9)) for _ in range(2)]
        ys = [complex(fay_rng.uniform(-0.5, -0.01), fay_rng.uniform(-0.9, 0.9))
              for _ in range(2)]
        if abs(xs[0] - xs[1]) >= 0.05 and abs(ys[0] - ys[1]) >= 0.05:
            fay.append((fp, xs, ys, ft))
    run("L3.rank2_many.n25.loop", lambda: [rank2_generating(*s) for s in fay])
    run("L3.boson_many.n25.loop", lambda: [rank2_generating_boson(*s) for s in fay])
    run("L3.rank2_many.n25", lambda: fermion._rank2_generatings(fay, twistell.DEFAULT_CONFIG))
    run("L3.boson_many.n25", lambda: fermion._bosonized(
        [(fermion._boson_form, *s) for s in fay], twistell.DEFAULT_CONFIG))
    # L3: 25 P_1[tw](z_i - z_j) matrices of 4 shared points with a given diagonal, at
    # distinct (tw, tau) drawn as above and points drawn as the rank-one square check
    # draws them (four points in the Fay clusters' strip, 0.05 apart), as a loop of
    # one-sample calls (.loop) against one call
    cd_rng = random.Random(f"cd:{seed}")
    cd = []
    while len(cd) < 25:
        ct = complex(cd_rng.uniform(-0.4, 0.4), cd_rng.uniform(0.8, 2.0))
        ctw = TwistPair(cd_rng.uniform(0.06, 0.94), cd_rng.uniform(0.06, 0.94))
        zs = [complex(cd_rng.uniform(-2.6, -0.4), cd_rng.uniform(-0.9, 0.9)) for _ in range(4)]
        if all(abs(a - b) >= 0.05 for i, a in enumerate(zs) for b in zs[i + 1:]):
            cd.append((ctw, zs, ct, -0.3 + 0.1j))
    p1_matrix = twistell.p1_difference_matrix
    run("L3.cd_many.n25.loop", lambda: [p1_matrix(ctw, zs, ct, diag=dg) for ctw, zs, ct, dg in cd])
    run("L3.cd_many.n25", lambda: fermion._cd_matrices(
        [fermion._p1_sample(*s) for s in cd], twistell.DEFAULT_CONFIG))
    # L3: a 12 x 12 block Pfaffian, 4 labels of 3 modes
    labels = [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    zs = [-2.6 + 0.3j, -1.9 - 0.8j, -1.1 + 0.9j, -0.4 - 0.2j]
    run("L3.rank1_fock_npoint.4x3",
        lambda: rank1_fock_npoint(labels, zs, GSelector.SIGMA, tau))
    # L3: a 6 x 6 block determinant, 3 labels of (2, 2) modes at the L2 mixed rows' points
    labels2 = [((1, 2), (1, 3)), ((2, 3), (1, 2)), ((1, 3), (2, 3))]
    run("L3.rank2_fock_npoint.3x22", lambda: rank2_fock_npoint(labels2, fock, p, tau))
    # L3: one set of 15 correlator requests as the perfbench correlators workload draws
    # them at one tau: rank-two determinants and their bosonized twins at n = 2, 4, 8, 16,
    # rank-one Pfaffians at n = 4, 8, 10, 12, a 4 x 3-mode rank-one and two 3 x (2, 2)-mode
    # rank-two Fock functions; its own stream, as above
    set_rng = random.Random(f"set:{seed}")

    def spread(n, lo, hi, im):
        return [complex(lo + (i + 0.2 + 0.6 * set_rng.random()) * (hi - lo) / n,
                        set_rng.uniform(-im, im)) for i in range(n)]

    requests = []
    for n in (2, 4, 8, 16):
        xs, ys = spread(n, -2.2, -0.8, 0.9), spread(n, -0.5, -0.01, 0.9)
        requests += [lambda xs=xs, ys=ys: rank2_generating(p, xs, ys, tau),
                     lambda xs=xs, ys=ys: rank2_generating_boson(p, xs, ys, tau)]
    for n in (4, 8, 10, 12):
        requests.append(lambda zs=spread(n, -2.6, -0.4, 2.0):
                        rank1_generating(GSelector.IDENTITY, zs, tau))
    requests += [lambda zs=spread(4, -2.6, -0.4, 2.0): rank1_fock_npoint(labels, zs,
                                                                          GSelector.SIGMA, tau)]
    requests += [lambda zs=spread(3, -2.6, -0.4, 2.0): rank2_fock_npoint(labels2, zs, p, tau)
                 for _ in range(2)]
    run("L3.request_set", lambda: [request() for request in requests])
    # L4: the argument parser, and table grids shaped like the benchmark's (25 points x
    # 3 orders): P_k on a z line across the annulus and on one ending on the pole z = 0,
    # whose last row is refused, E_n[tw] on a tau line
    def table(*tokens):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["table", "--function", *tokens]) == 0

    run("L4.cli.build_parser", cli.build_parser, inner=20)
    twist = (f"mu={tw.mu!r}", f"lam={tw.lam!r}")
    run("L4.table.pk_grid", lambda: table(
        "twisted_pk", "k=1..3", *twist, f"z={-0.01 * width}+1.5i:{-0.99 * width}+3.5i:25",
        "tau=0.12+1.1i"), inner=5)
    run("L4.table.pk_grid_refused", lambda: table(
        "twisted_pk", "k=1..3", *twist, "z=-3+0.5i:0:25", "tau=0.12+1.1i"), inner=5)
    run("L4.table.en_grid", lambda: table(
        "twisted_eisenstein", "n=1..3", *twist, "tau=0.12+0.3i:0.12+1.5i:25"), inner=5)
    # L4: a 25 x 3 grid of binomials, evaluated one row at a time at next to no cost: the
    # table's text path (argument parsing, grid cells, output) apart from the kernels
    run("L4.table.text", lambda: table("binomial", "n=0..24", "k=0..2"), inner=5)
    # L4: the whole identity suite from a cold start, interpreter, imports and report
    # included, as `python3 -m twistell.cli verify` runs it
    path = [str(Path(twistell.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    verify = [sys.executable, "-m", f"{twistell.__name__}.cli", "verify", "--suite", "all",
              "--seed", "7"]
    run("L4.verify.cold", lambda: subprocess.run(verify, env=env, check=True,
                                                 stdout=subprocess.DEVNULL))
    return out, clear


if __name__ == "__main__":
    sys.exit(main())
