"""The three benchmark workloads: seeded inputs, one call per item, output checks.

Each workload is a fixed pool of items, built from the seed before any
timing. The runner calls the pool in order, one call at a time (a closed
loop with one caller), once per round, emptying the library's caches at the
start of every round so each round repeats the same work from the same
state. Every round must then reproduce the first round's outputs bit for bit.

Inputs come from this module's own `random.Random(seed)`, never from the
library's samplers, so a change to the library cannot change what is
measured. Errors are plain relative errors |a - b| / |b|.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
import zlib
from dataclasses import dataclass

import numpy as np

from twistell import cli, classical, fermion, identities, twisted
from twistell.errors import TwistellError
from twistell.fermion import FockLabelRank1, FockLabelRank2, GSelector, OrbifoldParams
from twistell.twisted import TwistPair

TWO_PI = 2.0 * math.pi

# table grids: points per line and the k (or n) range tabulated at each point
GRID_POINTS = 25
GRID_ORDERS = 3
TABLE_POOL = 100           # grids per pool, alternating z lines and tau lines
TABLE_SAMPLED_ROWS = 4     # rows per grid compared with a lattice oracle

# verify: suite seeds per pool, drawn from the suite seeds below 400 on which
# every check passes; the ones left out refuse one check today (see EDGE_PROBE)
VERIFY_SUITES = 6
REFUSED_SUITE_CHECKS = (
    (38, "modular_correlators"), (54, "modular_correlators"), (137, "modular_correlators"),
    (155, "modular_twisted"), (158, "modular_correlators"), (159, "modular_correlators"),
    (167, "modular_correlators"), (179, "modular_twisted"), (216, "modular_twisted"),
    (238, "modular_correlators"), (241, "modular_twisted"), (244, "modular_correlators"),
    (266, "modular_correlators"), (277, "modular_twisted"), (288, "modular_correlators"),
    (295, "modular_correlators"), (303, "modular_correlators"), (348, "modular_twisted"),
    (356, "modular_correlators"), (381, "modular_twisted"), (386, "modular_twisted"),
)
SUITE_SEEDS = tuple(sorted(set(range(400)) - {s for s, _ in REFUSED_SUITE_CHECKS}))

# table: how close the lines come to where the library refuses today. P_k
# (k <= 3) gives up once |Re z| < 0.008 from an annulus edge, E_n[tw]
# (n <= 3) once Im tau < 0.05; the workload keeps a margin from both.
EDGE_MIN = 2.5e-3          # relative distance, of 2*pi*Im(tau) >= 2*pi*0.8
IM_TAU_MIN = 0.06

# correlators: tau pool and the request sets built on it
TAU_POOL = 4
CORRELATOR_SETS = 16
RANK2_SIZES = (2, 4, 8, 16)
RANK1_SIZES = (4, 8, 10, 12)

# floor of every correlator check; determinant forms get 1e-15 * cond(M) on top
CHECK_FLOOR = 1e-9
COND_SLOPE = 1e-15


@dataclass
class Check:
    """Verdict on one item: failed units, whether a value was wrong, its error."""

    failed: int = 0
    wrong: bool = False
    err: float | None = None
    note: str = ""


def rel_err(a: complex, b: complex) -> float:
    """|a - b| / |b|; infinite when b is zero and a is not."""
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b != 0 else math.inf


def raised(exc: Exception, units: int) -> Check:
    """Verdict on an item whose call raised: a documented refusal (a
    TwistellError) fails its units; any other exception is also a defect."""
    return Check(failed=units, wrong=not isinstance(exc, TwistellError),
                 note=f"raised {exc!r}")


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


def _design(rng: random.Random, n: int, dims: int) -> list[tuple[float, ...]]:
    """n points of [0, 1)^dims, each coordinate one per slice of [0, 1).

    Point i sits in slice (i * step) mod n of every coordinate, with a fixed
    step per coordinate, jittered at random inside the slice, and the points
    come out shuffled. Every seed then holds the same mix of cheap and costly
    inputs in every combination, so the figures vary little between seeds.
    """
    steps = [step for step in (1, 7, 11, 13, 17, 19) if math.gcd(step, n) == 1][:dims]
    points = [tuple(((i * step) % n + rng.random()) / n for step in steps) for i in range(n)]
    rng.shuffle(points)
    return points


def _log_uniform(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def _c(z: complex) -> str:
    """A complex number in the CLI's a+bi syntax, exact to the last bit."""
    return f"{z.real:.17g}{z.imag:+.17g}i"


# ---------------------------------------------------------------------------
# verify: the identity suite, one check per item
# ---------------------------------------------------------------------------

class Verify:
    """`identities.run_all` one check at a time, pinned counts, in registry
    order, over suite seeds drawn from SUITE_SEEDS."""

    name = "verify"

    def __init__(self, seed: int):
        suites = random.Random(f"verify:{seed}").sample(SUITE_SEEDS, VERIFY_SUITES)
        self.pool = [(check, suite) for suite in suites for check in identities.SUITE]

    @staticmethod
    def units(item) -> int:
        return 1

    @staticmethod
    def execute(item):
        check, suite_seed = item
        plan = identities.SamplePlan(seed=suite_seed)
        return identities.run_all(plan, names=[check])[0]

    @staticmethod
    def digest(out) -> int:
        return zlib.crc32(cli.dumps(out.to_dict()).encode())

    @staticmethod
    def check(items, outputs) -> list[Check]:
        return [raised(rep, 1) if isinstance(rep, Exception) else
                Check(failed=int(not rep.passed), wrong=not rep.passed, err=rep.max_residual,
                      note=f"{rep.identity_name}: max_residual {rep.max_residual:.3g} "
                           f"over {rep.tolerance:.3g}")
                for rep in outputs]


# ---------------------------------------------------------------------------
# table: `twistell table` grids through the CLI, CSV captured in memory
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Grid:
    kind: str               # "twisted_pk" over a z line or "twisted_eisenstein" over a tau line
    mu: float
    lam: float
    argv: tuple[str, ...]
    tau: complex | None     # fixed tau of a z line
    sample_seed: int        # picks the rows compared with the oracle


def _z_line(rng, tau: complex, d0: float, d1: float) -> tuple[complex, complex]:
    """Ends of a z line across the annulus -2*pi*Im(tau) < Re(z) < 0.

    The line starts d0 * 2*pi*Im(tau) inside the |q_z| = 1 circle and ends
    d1 * 2*pi*Im(tau) inside the |q_z| = |q| circle. Im(z) at each end keeps
    at least 1 away from the lattice poles on that circle.
    """
    h = TWO_PI * tau.imag
    start = complex(-d0 * h, rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.5))
    end = complex(-(1.0 - d1) * h, TWO_PI * tau.real + math.pi + rng.uniform(-1.5, 1.5))
    return start, end


class Table:
    """`cli.main(["table", ...])` over z lines for P_k and tau lines for E_n."""

    name = "table"

    def __init__(self, seed: int):
        rng = random.Random(f"table:{seed}")
        half = TABLE_POOL // 2
        grids = []
        for (u_tau, u_start, u_end), (u_lo, u_span) in zip(_design(rng, half, 3),
                                                            _design(rng, half, 2)):
            tau = complex(rng.uniform(-0.4, 0.4), 0.8 + 1.2 * u_tau)
            mu, lam = rng.uniform(0.06, 0.94), rng.uniform(0.06, 0.94)
            z0, z1 = _z_line(rng, tau, _log_uniform(EDGE_MIN, 1e-1, u_start),
                             _log_uniform(EDGE_MIN, 1e-1, u_end))
            argv = ("table", "--function", "twisted_pk", f"k=1..{GRID_ORDERS}",
                    f"mu={mu!r}", f"lam={lam!r}",
                    f"z={_c(z0)}:{_c(z1)}:{GRID_POINTS}", f"tau={_c(tau)}")
            grids.append(Grid("twisted_pk", mu, lam, argv, tau, rng.getrandbits(32)))

            # Im(tau) runs from lo, log-uniform in [IM_TAU_MIN, 2], to hi, log-uniform in [lo, 2]
            lo = _log_uniform(IM_TAU_MIN, 2.0, u_lo)
            hi = _log_uniform(lo, 2.0, u_span)
            re = rng.uniform(-0.4, 0.4)
            mu, lam = rng.uniform(0.06, 0.94), rng.uniform(0.06, 0.94)
            argv = ("table", "--function", "twisted_eisenstein", f"n=1..{GRID_ORDERS}",
                    f"mu={mu!r}", f"lam={lam!r}",
                    f"tau={_c(complex(re, lo))}:{_c(complex(re, hi))}:{GRID_POINTS}")
            grids.append(Grid("twisted_eisenstein", mu, lam, argv, None, rng.getrandbits(32)))
        self.pool = grids

    @staticmethod
    def units(item) -> int:
        return GRID_POINTS * GRID_ORDERS

    @staticmethod
    def execute(item: Grid) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(item.argv))
        return code, buf.getvalue()

    @staticmethod
    def digest(out) -> int:
        return zlib.crc32(f"{out[0]}\n{out[1]}".encode())

    @staticmethod
    def check(items, outputs) -> list[Check]:
        return [Table.check_grid(g, out) for g, out in zip(items, outputs)]

    @staticmethod
    def check_grid(grid: Grid, out: tuple[int, str]) -> Check:
        """Every row must be `ok`; sampled rows must match the lattice oracle.

        Tolerances are the identity suite's for the same function: 1e-9 for
        P_1 and E_n[tw], 1e-6 for P_k with k >= 2.
        """
        size = GRID_POINTS * GRID_ORDERS
        if isinstance(out, Exception):
            return raised(out, size)
        code, text = out
        rows = list(csv.reader(io.StringIO(text)))[1:]
        if code != 0 or len(rows) != size:
            return Check(failed=size, wrong=True, note=f"exit {code}, {len(rows)} rows")
        refused = sum(row[-1] != "ok" for row in rows)
        values = [complex(float(row[-3]), float(row[-2])) for row in rows]
        bad = sum(row[-1] == "ok" and not _finite(v) for row, v in zip(rows, values))
        tw = TwistPair(grid.mu, grid.lam)
        err = 0.0
        wrong_rows = unchecked = 0
        for idx in random.Random(grid.sample_seed).sample(range(size), TABLE_SAMPLED_ROWS):
            row, value = rows[idx], values[idx]
            if row[-1] != "ok":
                continue
            order = int(row[0])
            point = cli.parse_complex(row[1])
            try:
                if grid.kind == "twisted_pk":
                    ref = twisted.twisted_pk_oracle(order, tw, point, grid.tau)
                    tol = 1e-9 if order == 1 else 1e-6
                else:
                    ref = twisted.twisted_eisenstein_oracle(order, tw, point)
                    tol = 1e-9
            except TwistellError:
                # the oracle's own window can give out first at small Im(tau)
                unchecked += 1
                continue
            e = rel_err(value, ref)
            err = max(err, e)
            wrong_rows += not e <= tol
        return Check(failed=refused + bad + wrong_rows, wrong=bad + wrong_rows > 0, err=err,
                     note=f"{grid.kind} grid: {bad} non-finite, {wrong_rows} off the oracle, "
                          f"{unchecked} sampled rows the oracle could not reach")


# ---------------------------------------------------------------------------
# correlators: a request stream at a small pool of tau values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    kind: str
    tau: complex
    args: tuple
    partner: int = -1       # index of the bosonized twin of a determinant request


def _spread(rng, n: int, re_lo: float, re_hi: float, im: float) -> list[complex]:
    """n points with Re(z) one per slice of (re_lo, re_hi), so every pairwise
    Re difference is at least 0.4 of a slice; Im(z) uniform in [-im, im]."""
    width = (re_hi - re_lo) / n
    res = [re_lo + (i + 0.2 + 0.6 * rng.random()) * width for i in range(n)]
    rng.shuffle(res)
    return [complex(r, rng.uniform(-im, im)) for r in res]


def _grid_points(rng, n: int, re_lo: float, re_hi: float, im: float) -> list[complex]:
    """n points, one in each cell of a jittered grid over [re_lo, re_hi] x [-im, im].

    Up to four columns; the jitter keeps each point in the middle 60% of
    its cell, so points never crowd.
    """
    cols = min(n, 4)
    rows = -(-n // cols)
    cells = [(r, c) for r in range(rows) for c in range(cols)]
    rng.shuffle(cells)
    width, height = (re_hi - re_lo) / cols, 2.0 * im / rows
    return [complex(re_lo + (c + 0.2 + 0.6 * rng.random()) * width,
                    -im + (r + 0.2 + 0.6 * rng.random()) * height) for r, c in cells[:n]]


def _clusters(rng, n: int) -> tuple[list[complex], list[complex]]:
    """psi+ points in Re [-2.2, -0.8] and psi- points in Re [-0.5, -0.01], Im in [-0.9, 0.9].

    Every x - y then has -2.2 < Re < -0.3, inside the annulus for
    Im(tau) >= 0.8 and inside the prime-form disk. Independent uniform
    points instead would make about one n = 16 matrix in fifteen
    numerically singular (cond >= 1e17), where the determinant form keeps
    no digit and no check can judge it.
    """
    return _grid_points(rng, n, -2.2, -0.8, 0.9), _grid_points(rng, n, -0.5, -0.01, 0.9)


class Correlators:
    """Correlator requests: rank-two generating functions with their bosonized
    twins, rank-one Pfaffians across the pair-sum/elimination switch, and
    multi-mode Fock n-point functions."""

    name = "correlators"

    def __init__(self, seed: int):
        rng = random.Random(f"correlators:{seed}")
        taus = [complex(rng.uniform(-0.4, 0.4), 0.8 + 1.2 * u)
                for (u,) in _design(rng, TAU_POOL, 1)]
        pool: list[Request] = []
        for s in range(CORRELATOR_SETS):
            tau = taus[s % TAU_POOL]
            p = OrbifoldParams(rng.uniform(0.06, 0.94), rng.uniform(0.06, 0.94))
            g = GSelector.IDENTITY if s % 2 == 0 else GSelector.SIGMA
            for n in RANK2_SIZES:
                xs, ys = _clusters(rng, n)
                pool.append(Request("rank2_generating", tau, (p, xs, ys), len(pool) + 1))
                pool.append(Request("rank2_generating_boson", tau, (p, xs, ys)))
            for n in RANK1_SIZES:
                pool.append(Request("rank1_generating", tau, (g, _spread(rng, n, -2.6, -0.4, 2.0))))
            labels1 = [FockLabelRank1(tuple(sorted(rng.sample(range(1, 5), 3))))
                       for _ in range(4)]
            pool.append(Request("rank1_fock_npoint", tau,
                                (labels1, _spread(rng, 4, -2.6, -0.4, 2.0), g)))
            # two rank-two Fock requests per set put the median inside one request kind
            for _ in range(2):
                labels2 = [FockLabelRank2(tuple(sorted(rng.sample(range(1, 4), 2))),
                                          tuple(sorted(rng.sample(range(1, 4), 2))))
                           for _ in range(3)]
                pool.append(Request("rank2_fock_npoint", tau,
                                    (labels2, _spread(rng, 3, -2.6, -0.4, 2.0), p)))
        self.pool = pool

    @staticmethod
    def units(item) -> int:
        return 1

    @staticmethod
    def execute(req: Request):
        a = req.args
        if req.kind in ("rank2_generating", "rank2_generating_boson"):
            return getattr(fermion, req.kind)(a[0], a[1], a[2], req.tau)
        if req.kind == "rank1_generating":
            return fermion.rank1_generating(a[0], a[1], req.tau)
        if req.kind == "rank1_fock_npoint":
            return fermion.rank1_fock_npoint(a[0], a[1], a[2], req.tau)
        return fermion.rank2_fock_npoint(a[0], a[1], a[2], req.tau)

    @staticmethod
    def digest(out) -> tuple[float, float]:
        return out.real, out.imag

    @staticmethod
    def check(items, outputs) -> list[Check]:
        return [Correlators.check_request(items, outputs, i) for i in range(len(items))]

    @staticmethod
    def check_request(items, outputs, i: int) -> Check:
        req, out = items[i], outputs[i]
        if isinstance(out, Exception):
            return raised(out, 1)
        out = complex(out)
        if not _finite(out):
            return Check(failed=1, wrong=True, note=f"{req.kind}: non-finite value")
        a = req.args
        if req.kind == "rank2_generating_boson":
            return Check()      # checked together with its determinant twin
        if req.kind == "rank2_generating":
            p, xs, ys = a
            twin = outputs[req.partner]
            if isinstance(twin, Exception) or not _finite(complex(twin)):
                return Check(failed=1, note="bosonized twin unavailable")
            mat = np.array([[twisted.twisted_pk(1, p.twist(), x - y, req.tau) for y in ys]
                            for x in xs])
            err = rel_err(out, complex(twin))
            bound = max(CHECK_FLOOR, COND_SLOPE * np.linalg.cond(mat))
        elif req.kind == "rank1_generating":
            g, zs = a
            mat = fermion.p1_difference_matrix(g.twist(), zs, req.tau)
            pf = out / fermion.rank1_partition(g, req.tau)
            det = complex(np.linalg.det(mat))
            err = rel_err(pf * pf, det)
            bound = max(CHECK_FLOOR, COND_SLOPE * np.linalg.cond(mat))
        else:
            # exchanging adjacent insertions a and b multiplies by (-1)^{n_a n_b}
            labels, zs, sector = a
            order = [1, 0] + list(range(2, len(zs)))
            swapped = Request(req.kind, req.tau, ([labels[j] for j in order],
                                                  [zs[j] for j in order], sector))
            try:
                other = Correlators.execute(swapped)
            except Exception as exc:  # the exchanged twin is part of this item's check
                return raised(exc, 1)
            modes = [len(lab.ks) + len(getattr(lab, "ls", ())) for lab in labels[:2]]
            sign = -1.0 if modes[0] * modes[1] % 2 else 1.0
            err = rel_err(complex(other), sign * out)
            bound = CHECK_FLOOR
        ok = err <= bound
        return Check(failed=int(not ok), wrong=not ok, err=err,
                     note=f"{req.kind}: relative gap {err:.3g} over its bound {bound:.3g}")


WORKLOADS = {w.name: w for w in (Verify, Table, Correlators)}


def clear_caches() -> None:
    """Empty the library's lru caches, so a pass starts as a fresh process would."""
    classical.eisenstein.cache_clear()
    classical.dedekind_eta.cache_clear()


# ---------------------------------------------------------------------------
# edge probe: fixed inputs past the workloads' domain
# ---------------------------------------------------------------------------

def edge_probe() -> dict[str, tuple[int, int]]:
    """Refused calls, out of all, on fixed inputs where the library refuses today.

    The workloads stop short of these inputs, because no benchmark item may
    fail; this probe keeps the refusals counted until the domain widens
    (ROADMAP item 4). Twisted layer: P_k, k = 1..3, at relative distances
    1e-4 .. EDGE_MIN from both annulus edges, and E_n[tw], n = 1..3, at
    Im(tau) 0.02 .. IM_TAU_MIN. Identities layer: the checks of
    REFUSED_SUITE_CHECKS at their suite seeds.
    """
    tw = TwistPair(0.3, 0.7)
    calls = []
    for i in range(8):
        d = _log_uniform(1e-4, EDGE_MIN, i / 7)
        for im in (0.8, 1.4, 2.0):
            tau = complex(0.1, im)
            h = TWO_PI * im
            for z in (complex(-d * h, 1.5), complex(-(1.0 - d) * h, TWO_PI * 0.1 + math.pi)):
                calls += [(twisted.twisted_pk, (k, tw, z, tau)) for k in (1, 2, 3)]
        tau = complex(0.1, _log_uniform(0.02, IM_TAU_MIN, i / 7))
        calls += [(twisted.twisted_eisenstein, (n, tw, tau)) for n in (1, 2, 3)]
    refused = 0
    for fn, args in calls:
        try:
            fn(*args)
        except Exception:  # a refusal, or a raw exception: either way no value
            refused += 1
    suite_refused = 0
    for suite_seed, check in REFUSED_SUITE_CHECKS:
        try:
            rep = identities.run_all(identities.SamplePlan(seed=suite_seed), names=[check])[0]
            suite_refused += not rep.passed
        except Exception:
            suite_refused += 1
    return {"twisted.edge_refused": (refused, len(calls)),
            "identities.edge_refused": (suite_refused, len(REFUSED_SUITE_CHECKS))}
