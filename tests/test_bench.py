"""Smoke tests of the bench scripts, so they keep running against the library."""

import dataclasses
import importlib.util
import json
import shutil
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_script_runs_every_row(capsys):
    assert _load("layers").main(["--repeats", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert {"src", "src_lines", "python", "numpy", "cpus", "repeats", "seed",
            "timings"} <= set(report)
    # as wc -l counts them: every source file ends in a newline
    src = Path(report["src"]) / "twistell"
    assert report["src_lines"] == sum(path.read_bytes().count(b"\n")
                                      for path in src.glob("*.py")) > 0
    rows = report["timings"]
    for n in (1, 16, 256):
        assert {f"L1.p0_loop.n{n}", f"L1.p0_batch.n{n}", f"L2.pk_loop.n{n}",
                f"L2.pk_batch.n{n}"} <= set(rows)
    assert {"L2.pk_batch.edge", "L2.pk_batch.edge.k1", "L2.pk_batch.mixed"} <= set(rows)
    for route in ("phi", "theta"):
        assert {f"L2.pk_oracle.{route}.k1", f"L2.pk_oracle.{route}.k3",
                f"L2.eisenstein_oracle.{route}.n2"} <= set(rows)
    for n in (2, 4, 8, 16):
        assert {f"L3.rank2_generating.n{n}", f"L3.rank2_generating_boson.n{n}"} <= set(rows)
    assert {"L3.rank1_fock_npoint.4x3", "L3.rank2_fock_npoint.3x22"} <= set(rows)
    assert {f"L3.rank1_generating.n{n}" for n in (4, 8, 12)} <= set(rows)
    assert {f"L0.pfaffian.d{d}" for d in (4, 8, 12, 16, 32)} <= set(rows)
    assert {f"L0.determinant.d{d}" for d in (4, 8, 16, 32)} <= set(rows)
    assert {"L1.eta", "L1.theta_many.n100", "L1.theta_many.n100.loop", "L2.pk_many.n50",
            "L2.pk_many.n50.loop", "L2.pk_batch.empty"} <= set(rows)
    assert {"L2.pk_oracle_many.n50", "L2.pk_oracle_many.n50.loop",
            "L2.eisenstein_oracle_many.n50", "L2.eisenstein_oracle_many.n50.loop"} <= set(rows)
    assert {"L3.rank2_many.n25", "L3.rank2_many.n25.loop", "L3.boson_many.n25",
            "L3.boson_many.n25.loop", "L3.cd_many.n25", "L3.cd_many.n25.loop"} <= set(rows)
    assert {"L1.theta_table.n1", "L1.theta_table.n257", "L3.request_set"} <= set(rows)
    assert {"L1.eisenstein.cold", "L1.theta_char.a0", "L1.theta_char.a40",
            "L1.theta_char.half", "L1.theta_char.far", "L1.prime_form.one",
            "L2.twisted_eisenstein.im0.06",
            "L2.twisted_eisenstein.im1", "L2.twisted_eisenstein_batch.grid"} <= set(rows)
    assert {"L4.cli.build_parser", "L4.table.pk_grid", "L4.table.pk_grid_refused",
            "L4.table.en_grid", "L4.table.text", "L4.verify.cold"} <= set(rows)
    for row in rows.values():
        assert set(row) == {"min_us", "median_us"} and 0 < row["min_us"] <= row["median_us"]


def test_layers_script_times_two_packages_side_by_side(capsys, tmp_path):
    # two copies of src/: every row against both, with both minima and their ratio
    src = Path(__file__).resolve().parents[1] / "src"
    for name in ("one", "two"):
        shutil.copytree(src / "twistell", tmp_path / name / "twistell",
                        ignore=shutil.ignore_patterns("__pycache__"))
    one, two = str(tmp_path / "one"), str(tmp_path / "two")
    assert _load("layers").main(["--repeats", "2", "--src", one, "--ab", two]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["src"], report["other"]) == (one, two)
    assert report["src_lines"] == report["other_src_lines"] > 0
    rows = report["timings"]
    assert {"L1.theta_table.n1", "L2.pk_batch.mixed", "L3.request_set",
            "L4.table.pk_grid", "L4.verify.cold"} <= set(rows)
    for row in rows.values():
        assert set(row) == {"min_us", "other_min_us", "ratio"}
        assert row["min_us"] > 0 and row["other_min_us"] > 0
        assert row["ratio"] == pytest.approx(row["other_min_us"] / row["min_us"], rel=1e-2)


def test_seeds_script_passes_a_seed(capsys):
    assert _load("seeds").main(["0", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "0 failing of 17 (seed, check) pairs, seeds 0..0"]


def test_seeds_script_digests_every_report(capsys):
    # one CRC32 line per (seed, check), of the bytes cli.dumps writes for its report
    import zlib

    from twistell.cli import dumps
    from twistell.identities import SUITE, SamplePlan, run_all

    assert _load("seeds").main(["2", "3", "--digest"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "0 failing of 17 (seed, check) pairs, seeds 2..2"
    assert len(out) == len(SUITE) + 1
    for line, name in zip(out, SUITE):
        report, = run_all(SamplePlan(seed=2), names=[name])
        crc = zlib.crc32(dumps(report.to_dict()).encode())
        assert line == f"seed=2 check={name} crc32={crc:08x}"


def test_seeds_script_lists_refusals_and_misses(capsys, monkeypatch):
    from twistell import identities
    from twistell.errors import NotConverged

    def refuses(plan, cfg):
        raise NotConverged("no value")

    def misses(plan, cfg):
        report = identities.check_laurent(plan, cfg)
        return dataclasses.replace(report, passed=False)

    seeds = _load("seeds")
    monkeypatch.setattr(identities, "SUITE", {"refuses": (refuses, 1), "misses": (misses, 1)})
    monkeypatch.setattr(seeds, "SUITE", identities.SUITE)
    assert seeds.main(["3", "5"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "seed=3 check=refuses refused NotConverged: no value"
    assert out[1].startswith("seed=3 check=misses max_residual=")
    assert out[-1] == "4 failing of 4 (seed, check) pairs, seeds 3..4"
