"""Smoke-size tests of the benchmark.

Run from the repository root with `python3 -m pytest perfbench`.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from twistell.errors import NotConverged  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _result(*argv: str) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(list(argv)) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported_with_its_unit(workload, trace):
    res = _result("--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace))
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({name: m["unit"] for name, m in res["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    assert res["correct"] is True
    assert 1 <= res["attempted"] and 0 <= res["failed"] <= res["attempted"]
    if not trace:
        assert all(m["value"] > 0 for m in res["metrics"].values())


def test_wrong_correlator_value_counts_as_failed():
    wl = workloads.Correlators(3)
    items = wl.pool[:2]            # rank2_generating at n = 2 and its bosonized twin
    assert items[0].partner == 1
    outputs = [wl.execute(it) for it in items]
    assert [c.failed for c in wl.check(items, outputs)] == [0, 0]
    outputs[0] *= 1 + 1e-6
    check = wl.check(items, outputs)[0]
    assert check.failed == 1 and check.wrong


def test_wrong_table_value_counts_as_failed():
    wl = workloads.Table(3)
    grid = wl.pool[0]
    code, text = wl.execute(grid)
    good = wl.check_grid(grid, (code, text))
    assert not good.wrong
    header, *rows = text.splitlines()
    bent = []
    for row in rows:
        cells = row.split(",")
        cells[-3] = repr(float(cells[-3]) * (1 + 1e-5))
        bent.append(",".join(cells))
    bad = wl.check_grid(grid, (code, "\n".join([header] + bent) + "\n"))
    assert bad.wrong and bad.failed > good.failed


def test_failed_check_refusal_and_changed_repeat_are_counted():
    report = SimpleNamespace(identity_name="laurent", passed=False, max_residual=1.0,
                             tolerance=1e-6)
    [failing] = workloads.Verify.check(None, [report])
    assert failing.failed == 1 and failing.wrong
    refusal = workloads.raised(NotConverged("window cap"), 300)
    assert refusal.failed == 300 and not refusal.wrong
    assert workloads.raised(OverflowError("r ** n"), 1).wrong
    tally = run.Tally()
    tally.add(300, workloads.Check(), same=False)
    assert tally.failed == 300 and tally.wrong == 1


def test_inputs_depend_on_the_seed_only():
    assert workloads.Table(5).pool == workloads.Table(5).pool
    assert workloads.Table(5).pool != workloads.Table(6).pool
    assert workloads.Correlators(5).pool == workloads.Correlators(5).pool


def test_verify_avoids_refused_suite_seeds_and_the_edge_probe_counts_them():
    refused = {s for s, _ in workloads.REFUSED_SUITE_CHECKS}
    for seed in range(20):
        assert not refused & {suite for _, suite in workloads.Verify(seed).pool}
    probe = workloads.edge_probe()
    assert probe["identities.edge_refused"][1] == len(workloads.REFUSED_SUITE_CHECKS)
    assert all(0 <= refused <= calls for refused, calls in probe.values())


def test_tracer_wraps_every_binding_and_restores_it():
    import twistell
    from twistell import fermion, twisted

    original = twisted.twisted_pk
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert twisted.twisted_pk is not original
        assert twisted.twisted_pk is fermion.twisted_pk is twistell.twisted_pk
    finally:
        tracer.uninstall()
    assert twisted.twisted_pk is fermion.twisted_pk is twistell.twisted_pk is original


def test_self_times_subtract_children():
    # root 0..10 with children 1..4 and 5..9; the second child has a child 6..7
    toy = [[0, 0.0, 10.0, -1, 0, False], [1, 1.0, 4.0, 0, 0, False],
           [1, 5.0, 9.0, 0, 0, False], [2, 6.0, 7.0, 2, 0, False]]
    assert spans.self_times(toy) == [3.0, 3.0, 3.0, 1.0]


def test_refuses_to_run_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
