"""twistell benchmark: one workload per run, result as JSON on the last line.

Usage, from the repository root:

    python3 perfbench/run.py --workload {verify,table,correlators} \
        --seed N --seconds S --trace {0,1}

--trace 0 measures the end-to-end metrics: set-up time over cold starts,
then rounds over the workload's item pool for S seconds, then the output
checks. --trace 1 alternates an untraced and a traced round for S seconds
and reports per-layer metrics from the spans (see spans.py).
Lines before the last one are a human-readable report; the last line is
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import os

# one BLAS/OpenMP thread, fixed before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

COLD_STARTS = 9
COLD_START_PROBES = 25
END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
clock = time.perf_counter


def unit_of(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith((".calls", ".failed", ".edge_refused")):
        return "count"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(".calls_per_item"):
        return "calls/item"
    return "ratio"


class Tally:
    """Attempted and failed items, wrong values and the worst checked error."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.checked = 0
        self.err_max = 0.0
        self.notes: list[str] = []

    def add(self, units: int, check, same: bool = True) -> None:
        self.attempted += units
        self.failed += check.failed if same else units
        if check.wrong or not same:
            self.wrong += 1
            if len(self.notes) < 5:
                self.notes.append(check.note if same else "output differs from the first round's")

    def add_err(self, check) -> None:
        if check.err is not None:
            self.checked += 1
            self.err_max = max(self.err_max, check.err)


def run_pass(wl, deadline: float | None = None, tracer=None, probe: bool = False):
    """One round: empty the library caches, then call every pool item in
    order (until the deadline), inside spans if a tracer is given.

    Returns outputs, per-call latencies and, with probe, the mean host-speed
    probe time just before and just after each call (else zeros).
    """
    import workloads

    workloads.clear_caches()
    outputs, latencies, probes = [], [], []
    if tracer:
        tracer.install()
    try:
        for i, item in enumerate(wl.pool):
            before = hostspeed.probe() if probe else 0.0
            t0 = clock()
            try:
                out = tracer.item(i, lambda: wl.execute(item)) if tracer else wl.execute(item)
            except Exception as exc:  # counted by the checks as a failed item
                out = exc
            t1 = clock()
            after = hostspeed.probe() if probe else 0.0
            outputs.append(out)
            latencies.append(t1 - t0)
            probes.append((before + after) / 2)
            if deadline is not None and t1 >= deadline:
                break
    finally:
        if tracer:
            tracer.uninstall()
    return outputs, latencies, probes


def digest(wl, out):
    return repr(out) if isinstance(out, Exception) else wl.digest(out)


class Reference:
    """The first round's outputs, checked in full; later rounds must match them."""

    def __init__(self, wl, outputs, tally: Tally):
        self.checks = wl.check(wl.pool, outputs)
        self.digests = [digest(wl, o) for o in outputs]
        for check in self.checks:
            tally.add_err(check)

    def compare(self, wl, tally: Tally, outputs) -> None:
        for i, out in enumerate(outputs):
            tally.add(wl.units(wl.pool[i]), self.checks[i], digest(wl, out) == self.digests[i])


def cold_start(name: str, seed: int) -> tuple[float, float]:
    """Wall time of one cold start, and the mean host-speed probe time around it."""
    before = statistics.median(hostspeed.probe() for _ in range(COLD_START_PROBES))
    t0 = clock()
    proc = subprocess.run([sys.executable, str(HERE / "coldstart.py"), name, str(seed)],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                          timeout=120, check=False)
    elapsed = clock() - t0
    after = statistics.median(hostspeed.probe() for _ in range(COLD_START_PROBES))
    if proc.returncode != 0:
        raise RuntimeError(f"cold start failed with exit {proc.returncode}:\n{proc.stderr}")
    return elapsed, (before + after) / 2


def verify_report_is_deterministic(seed: int) -> bool:
    """Write the `twistell verify` JSON report of one suite seed twice; compare
    the exit codes and the bytes (a seed whose suite stops early writes none)."""
    from twistell import cli

    runs = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        for i in range(2):
            path = Path(tmp) / f"report{i}.json"
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["verify", "--seed", str(seed), "--out", str(path)])
            runs.append((code, path.read_bytes() if path.exists() else None))
    return runs[0] == runs[1]


def measure(wl, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload, untraced.

    Every pool item runs once per round. Its latency is the median over the
    rounds of its time scaled to reference host speed (see hostspeed.py);
    the percentiles and the throughput are taken over those per-item
    latencies. Set-up time is the median of the scaled cold starts.
    """
    starts = [cold_start(wl.name, seed) for _ in range(COLD_STARTS)]

    tally = Tally()
    ref = Reference(wl, run_pass(wl)[0], tally)          # warm-up round, untimed
    scaled: list[list[float]] = [[] for _ in wl.pool]
    probe_times: list[float] = []
    rounds = 0
    deadline = clock() + seconds
    while clock() < deadline:
        outputs, latencies, probes = run_pass(wl, deadline, probe=True)
        for row, call_s, probe_s in zip(scaled, latencies, probes):
            row.append(hostspeed.scaled(call_s, probe_s))
        probe_times += probes
        ref.compare(wl, tally, outputs)
        rounds += len(outputs) == len(wl.pool)

    deterministic = wl.name != "verify" or verify_report_is_deterministic(wl.pool[0][1])
    if not deterministic:
        tally.notes.append("verify report bytes differ between two runs")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timed = [(statistics.median(row), wl.units(item)) for row, item in zip(scaled, wl.pool)
             if row]
    calls = [t for t, _ in timed]
    metrics = {
        "setup_s": statistics.median(hostspeed.scaled(*start) for start in starts),
        "items_per_s": sum(u for _, u in timed) / sum(calls),
        "call_p50_ms": 1e3 * statistics.median(calls),
        "call_p90_ms": 1e3 * statistics.quantiles(calls, n=10, method="inclusive")[8],
        "peak_rss_mb": rss_mb,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
    }
    per_call = f"{len(calls)} calls, median of {rounds} full rounds"
    counts = {"setup_s": f"{len(starts)} cold starts",
              "items_per_s": f"{sum(u for _, u in timed)} items in {per_call}",
              "call_p50_ms": per_call,
              "call_p90_ms": per_call,
              "peak_rss_mb": "1 process",
              "ok_frac": f"{tally.attempted} items"}
    host = (f"probe median {1e6 * statistics.median(probe_times):.1f} us, reference "
            f"{1e6 * hostspeed.REFERENCE_S:.1f} us; unscaled set-up median "
            f"{statistics.median(s for s, _ in starts):.4f} s")
    return {"metrics": metrics, "counts": counts, "tally": tally, "host": host,
            "correct": tally.wrong == 0 and deterministic}


def cache_infos() -> dict[str, tuple[int, int]]:
    from twistell import classical

    return {f"classical.{f.__name__}": (f.cache_info().hits, f.cache_info().misses)
            for f in (classical.eisenstein, classical.dedekind_eta)}


def timed_pass(wl, tracer=None):
    """One round from a collected heap; outputs, latencies and wall time."""
    gc.collect()
    t0 = clock()
    outputs, latencies, _ = run_pass(wl, tracer=tracer)
    return outputs, latencies, clock() - t0


def measure_traced(wl, seconds: float) -> dict:
    """Per-layer metrics: pairs of an untraced and a traced round, for S seconds,
    then the edge probe's refusals (see workloads.edge_probe)."""
    import workloads
    from twistell import identities

    tally = Tally()
    units = sum(wl.units(item) for item in wl.pool)
    ref = None
    pairs: list[dict[str, float]] = []
    identical = True
    deadline = clock() + seconds
    while not pairs or clock() < deadline:
        plain, latencies, plain_s = timed_pass(wl)
        tracer = Tracer()
        traced, _, traced_s = timed_pass(wl, tracer)
        row = layer_metrics(tracer, units, cache_infos(), traced_s)
        # spans left alive would slow the next rounds' garbage collections
        del tracer
        identical &= [digest(wl, o) for o in plain] == [digest(wl, o) for o in traced]
        del traced
        if ref is None:
            ref = Reference(wl, plain, tally)
        ref.compare(wl, tally, plain)
        for name in identities.SUITE:
            times = [t for item, t in zip(wl.pool, latencies)
                     if wl.name == "verify" and item[0] == name]
            row[f"identities.check.{name}.s"] = statistics.mean(times) if times else 0.0
        row["trace.overhead_frac"] = traced_s / plain_s - 1.0
        pairs.append(row)

    if not identical:
        tally.notes.append("traced outputs differ from untraced outputs")
    # counts are those of the first pair; times are medians over all pairs
    metrics = {name: (statistics.median(p[name] for p in pairs)
                      if unit_of(name) == "s" or name.endswith("_frac")
                      else value)
               for name, value in pairs[0].items()}
    counts = {name: f"{len(pairs)} round pairs" for name in metrics}
    for name, (refused, calls) in workloads.edge_probe().items():
        metrics[name] = refused
        counts[name] = f"of {calls} fixed edge inputs"
    return {"metrics": metrics, "counts": counts, "tally": tally,
            "correct": tally.wrong == 0 and identical}


def report_lines(name: str, seed: int, seconds: float, trace: int, result: dict) -> list[str]:
    import numpy

    tally = result["tally"]
    lines = [f"# workload={name} seed={seed} seconds={seconds:g} trace={trace} "
             f"python={platform.python_version()} numpy={numpy.__version__} "
             f"nproc={os.cpu_count()}"]
    rows = dict(result["metrics"])
    counts = dict(result["counts"])
    rows["failed_frac"] = tally.failed / tally.attempted
    counts["failed_frac"] = f"{tally.failed} of {tally.attempted} items"
    rows["err_max"] = tally.err_max
    counts["err_max"] = f"{tally.checked} checked items"
    for metric, value in rows.items():
        lines.append(f"#   {metric:<44s} {value:>14.6g} {unit_of(metric):<10s} n={counts[metric]}")
    if "host" in result:
        lines.append(f"#   host speed: {result['host']}")
    lines.append(f"#   correct={result['correct']} wrong={tally.wrong}")
    lines += [f"#   note: {note}" for note in tally.notes]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "table", "correlators"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "twistell" / "__init__.py").is_file():
        print(f"perfbench: no twistell sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    if args.trace:
        result = measure_traced(wl, args.seconds)
    else:
        result = measure(wl, args.seed, args.seconds)
    for line in report_lines(args.workload, args.seed, args.seconds, args.trace, result):
        print(line)
    tally = result["tally"]
    metrics = {name: {"value": value, "unit": unit_of(name)}
               for name, value in result["metrics"].items()}
    print(json.dumps({"correct": result["correct"], "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
