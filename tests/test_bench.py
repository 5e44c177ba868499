"""Smoke test of the layer bench script, so it keeps running against the library."""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_layers_script_runs_every_row(capsys):
    spec = importlib.util.spec_from_file_location("bench_layers", BENCH)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.main(["--repeats", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"src", "python", "numpy", "cpus", "repeats", "seed", "timings"} <= set(report)
    rows = report["timings"]
    for n in (1, 16, 256):
        assert {f"L1.p0_loop.n{n}", f"L1.p0_batch.n{n}", f"L2.pk_loop.n{n}",
                f"L2.pk_batch.n{n}"} <= set(rows)
    assert {"L2.pk_batch.edge", "L2.pk_batch.edge.k1", "L2.pk_batch.mixed"} <= set(rows)
    for n in (2, 4, 8, 16):
        assert {f"L3.rank2_generating.n{n}", f"L3.rank2_generating_boson.n{n}"} <= set(rows)
    assert {"L3.rank1_fock_npoint.4x3", "L3.rank2_fock_npoint.3x22"} <= set(rows)
    assert {"L1.eisenstein.cold", "L1.theta_char.a0", "L1.theta_char.a40",
            "L1.theta_char.half",
            "L2.twisted_eisenstein.im0.06",
            "L2.twisted_eisenstein.im1", "L2.twisted_eisenstein_batch.grid"} <= set(rows)
    assert {"L4.cli.build_parser", "L4.table.pk_grid", "L4.table.en_grid",
            "L4.table.text"} <= set(rows)
    for row in rows.values():
        assert set(row) == {"min_us", "median_us"} and 0 < row["min_us"] <= row["median_us"]
