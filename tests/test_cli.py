"""CLI contract: parsing, exit codes, report round-trips, tables."""

import csv
import io
import itertools
import json
import math
import warnings

import pytest

from twistell import classical, cli, fermion, twisted
from twistell.cli import (
    EXIT_CONVERGENCE,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_VERIFY,
    REGISTRY,
    dumps,
    main,
    parse_complex,
)
from twistell.fermion import GSelector, OrbifoldParams
from twistell.numeric import bernoulli_poly, binomial, q_exp
from twistell.twisted import GroupElement, TwistPair


class TestParseComplex:
    @pytest.mark.parametrize("text,value", [
        ("1.5", 1.5),
        ("i", 1j),
        ("-i", -1j),
        ("2i", 2j),
        ("1+2i", 1 + 2j),
        ("0.5-0.25i", 0.5 - 0.25j),
        ("-1e-3+2e-4i", -1e-3 + 2e-4j),
        ("3j", 3j),
        ("1.2+0.8j", 1.2 + 0.8j),
    ])
    def test_accepted(self, text, value):
        assert parse_complex(text) == pytest.approx(value)

    def test_rejected(self):
        from twistell.cli import ParseError
        with pytest.raises(ParseError):
            parse_complex("nope")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_theta_odd_characteristic(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "theta_char",
                               "a=0.5", "b=0.5", "z=0", "tau=i")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["re"]) < 1e-12 and abs(payload["im"]) < 1e-12
        assert payload["cfg"] == {"tol": 1e-12}
        assert payload["warnings"] == []

    def test_trivial_partition_is_zero(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "rank2_partition",
                               "alpha=0", "beta=0", "tau=i")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["re"] == 0 and payload["im"] == 0

    def test_bernoulli_example(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "bernoulli_poly", "n=1", "lam=0.25")
        assert code == EXIT_OK
        assert json.loads(out)["re"] == pytest.approx(-0.25)

    def test_unicode_keys(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "bernoulli_poly", "n=1", "λ=0.25")
        assert code == EXIT_OK

    def test_function_flag_form(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--function", "binomial", "n=4", "k=2")
        assert code == EXIT_OK
        assert json.loads(out)["re"] == 6

    def test_domain_error_exit(self, capsys):
        # tau = 0.5 lies on the real axis, outside the upper half-plane
        code, out, err = run_cli(capsys, "eval", "weierstrass_pk", "k=1", "z=7", "tau=0.5")
        assert code == EXIT_DOMAIN
        assert out == ""
        assert json.loads(err)["error"] == "domain"

    @pytest.mark.parametrize("tokens", [
        ["twisted_pk", "k=1", "mu=nan", "lam=0.3", "z=-0.5+0.2i", "tau=i"],
        ["coeff_C", "k=1", "l=1", "mu=inf", "lam=0.2", "tau=i"]], ids=["nan", "inf"])
    def test_non_finite_twist_is_a_domain_error(self, capsys, tokens):
        # once a NaN twist, reported as a convergence error
        code, out, err = run_cli(capsys, "eval", *tokens)
        assert code == EXIT_DOMAIN and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "domain"

    def test_gamma_past_the_float_range_is_a_convergence_error(self, capsys):
        # once a raw OverflowError from the word's float quotient a / c
        code, out, err = run_cli(capsys, "eval", "modular_multiplier",
                                 f"gamma=1,0,{10 ** 309},1", "alpha=0.2", "beta=0.3")
        assert code == EXIT_CONVERGENCE and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "convergence"

    def test_convergence_exit(self, capsys):
        code, _, err = run_cli(capsys, "eval", "eisenstein", "n=4", "tau=0.0001i")
        assert code == EXIT_CONVERGENCE
        assert json.loads(err)["error"] == "convergence"

    def test_huge_re_tau_is_a_convergence_error(self, capsys):
        # once a raw ValueError from cmath.exp, reported as a parse error
        code, out, err = run_cli(capsys, "eval", "eisenstein", "n=2", "tau=1e307+1i")
        assert code == EXIT_CONVERGENCE and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "convergence"

    def test_theta_past_the_float_range_is_a_convergence_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "theta_char", "a=0.5", "b=0.5", "z=100",
                                 "tau=i")
        assert code == EXIT_CONVERGENCE and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "convergence"

    def test_subnormal_im_tau_in_the_lattice_oracle_is_a_convergence_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "twisted_pk_oracle", "k=1", "mu=0.3",
                                 "lam=0.3", "z=-0.1+0.1i", "tau=5e-324i")
        assert code == EXIT_CONVERGENCE and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "convergence"

    def test_float_overflow_is_a_convergence_error(self, capsys):
        code, out, err = run_cli(capsys, "eval", "prime_form", "z=100", "tau=i")
        assert code == EXIT_CONVERGENCE
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "convergence" and "float range" in payload["message"]

    @pytest.mark.parametrize("z,tau", [("-6+0.1i", "i"), ("-5.2+2i", "0.3+0.8i")])
    def test_prime_form_past_the_old_disk_is_a_value(self, capsys, z, tau):
        # once refused: the E_150 term of the disk series overflowed at z = -6+0.1i, and
        # |z| = 5.57 lies beyond that series' radius R = 2*pi*|tau| = 5.37
        code, out, err = run_cli(capsys, "eval", "prime_form", f"z={z}", f"tau={tau}")
        assert code == EXIT_OK, err
        value = json.loads(out)
        assert complex(value["re"], value["im"]) == classical.prime_form(
            parse_complex(z), parse_complex(tau))

    def test_parse_errors(self, capsys):
        assert run_cli(capsys, "eval", "no_such", "x=1")[0] == EXIT_PARSE
        assert run_cli(capsys, "eval", "binomial", "n=4")[0] == EXIT_PARSE
        assert run_cli(capsys, "eval", "binomial", "n=4", "k=2", "j=9")[0] == EXIT_PARSE

    def test_cfg_override(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "dedekind_eta", "tau=i", "--tol", "1e-10")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["cfg"] == {"tol": pytest.approx(1e-10)}

    @pytest.mark.parametrize("argv", [
        ("eval", "dedekind_eta", "tau=i", "--q-order", "64"),
        ("verify", "--suite", "laurent", "--q-order", "64"),
        ("table", "--function", "dedekind_eta", "tau=i", "--q-order", "64"),
    ])
    def test_q_order_is_not_a_flag(self, capsys, argv):
        # the q-series cap is the library's constant, not a knob: --tol is the only flag
        assert run_cli(capsys, *argv)[0] == EXIT_PARSE

    def test_no_cfg_flag_is_the_default_config(self):
        args = cli.build_parser().parse_args(["table", "--function", "p0", "--tol", "1e-10"])
        assert cli._cfg_from_args(args) == cli.TruncationConfig(tol=1e-10)
        args.tol = None
        assert cli._cfg_from_args(args) is cli.DEFAULT_CONFIG

    @pytest.mark.parametrize("flag,value", [("--theta-range", "32"), ("--lattice-range", "24"),
                                            ("--series-radius", "0.25")])
    def test_window_sizes_are_not_flags(self, capsys, flag, value):
        assert run_cli(capsys, "verify", flag, value)[0] == EXIT_PARSE


class TestVerify:
    def test_single_suite_pass_and_roundtrip(self, capsys, tmp_path):
        out_file = tmp_path / "rep.json"
        code, out, _ = run_cli(capsys, "verify", "--suite", "doublesum_k1",
                               "--seed", "7", "--count", "4",
                               "--out", str(out_file))
        assert code == EXIT_OK
        assert "PASS" in out and "doublesum_k1" in out
        data = json.loads(out_file.read_text())
        assert data[0]["identity_name"] == "doublesum_k1"
        assert data[0]["passed"] is True
        # re-reading reproduces the verdict
        code2, out2, _ = run_cli(capsys, "report", str(out_file))
        assert code2 == EXIT_OK
        assert "PASS" in out2

    def test_report_reads_infinite_residual(self, capsys, tmp_path):
        out_file = tmp_path / "rep.json"
        run_cli(capsys, "verify", "--suite", "doublesum_k1", "--count", "2",
                "--out", str(out_file))
        data = json.loads(out_file.read_text())
        data[0]["max_residual"] = float("inf")
        out_file.write_text(dumps(data))
        assert '"max_residual":"inf"' in out_file.read_text()
        code, out, _ = run_cli(capsys, "report", str(out_file))
        assert code == EXIT_VERIFY
        assert "FAIL" in out and "max_residual=inf" in out

    @pytest.mark.parametrize("content", [
        "{}", "[1]", '"report"', '[{"identity_name": "x", "samples": [], "tolerance": 1e-9}]',
    ])
    def test_malformed_report_is_parse_error(self, capsys, tmp_path, content):
        path = tmp_path / "rep.json"
        path.write_text(content)
        code, out, err = run_cli(capsys, "report", str(path))
        assert code == EXIT_PARSE
        assert out == ""
        assert json.loads(err)["error"] == "parse"

    def test_unknown_suite_rejected(self, capsys):
        assert run_cli(capsys, "verify", "--suite", "bogus")[0] == EXIT_PARSE

    def test_zero_count_rejected(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--suite", "all", "--count", "0")
        assert code == EXIT_PARSE
        assert json.loads(err)["error"] == "parse"

    def test_csv_format(self, capsys, tmp_path):
        out_file = tmp_path / "rep.csv"
        code, _, _ = run_cli(capsys, "verify", "--suite", "doublesum_k1",
                             "--count", "3", "--format", "csv",
                             "--out", str(out_file))
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out_file.read_text())))
        assert rows[0][0] == "identity_name"
        assert len(rows) > 3

    def test_deterministic_reports(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        run_cli(capsys, "verify", "--suite", "laurent", "--seed", "7",
                "--count", "2", "--out", str(f1))
        run_cli(capsys, "verify", "--suite", "laurent", "--seed", "7",
                "--count", "2", "--out", str(f2))
        assert f1.read_bytes() == f2.read_bytes()

    def test_io_error_exit(self, capsys, tmp_path):
        from twistell.cli import EXIT_IO
        target = tmp_path / "no" / "such" / "dir" / "out.json"
        code, _, err = run_cli(capsys, "verify", "--suite", "doublesum_k1",
                               "--count", "2", "--out", str(target))
        assert code == EXIT_IO
        assert json.loads(err)["error"] == "io"


class TestTable:
    def test_integer_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--function", "twisted_eisenstein",
                               "n=1..5", "mu=0.3", "lam=0.7", "tau=i")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:1] == ["n"]
        assert len(rows) == 6  # header + 5 rows
        assert all(row[-1] == "ok" for row in rows[1:])

    def test_domain_error_rows_flagged(self, capsys):
        # the tau line crosses the real axis: its first two points are not in the upper
        # half-plane
        code, out, _ = run_cli(capsys, "table", "--function", "eisenstein",
                               "n=2", "tau=0.1-0.5i:0.1+1.5i:5")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        statuses = [row[-1] for row in rows[1:]]
        assert "ok" in statuses and "domain_error" in statuses

    def test_empty_grid_rejected(self, capsys):
        code, _, err = run_cli(capsys, "table", "--function", "eisenstein",
                               "n=5..4", "tau=i")
        assert code == EXIT_PARSE
        assert json.loads(err)["error"] == "parse"

    def test_two_varying_parameters(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--function", "twisted_eisenstein",
                               "n=1..2", "mu=0.1:0.3:3", "lam=0.7", "tau=i")
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        assert len(rows) == 7  # header + 2*3

    def test_three_varying_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "table", "--function", "twisted_eisenstein",
                             "n=1..2", "mu=0.1:0.3:3", "lam=0.1:0.2:2", "tau=i")
        assert code == EXIT_PARSE

    @pytest.mark.parametrize("argv", [
        ("twisted_eisenstein", "n=1:3:5", "mu=0.3", "lam=0.7", "tau=i"),
        ("rank1_partition", "g=1..2", "tau=i"),
        ("twisted_eisenstein", "n=1", "mu=0.3", "lam=0.1:0.2i:3", "tau=i"),
        ("rank1_generating", "g=sigma", "zs=-1:-2:3", "tau=i"),
        ("eisenstein", "n=2..3", "n=4", "tau=i"),
    ])
    def test_grid_values_must_fit_the_parameter(self, capsys, argv):
        code, out, err = run_cli(capsys, "table", "--function", *argv)
        assert code == EXIT_PARSE
        assert out == ""
        assert json.loads(err)["error"] == "parse"

    def test_integral_linspace_grid(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--function", "twisted_eisenstein",
                               "n=1:3:3", "mu=0.3", "lam=0.7", "tau=i")
        assert code == EXIT_OK
        assert [row[0] for row in csv.reader(io.StringIO(out))] == ["n", "1", "2", "3"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--function", "eisenstein",
                               "n=2..4", "tau=i", "--format", "json")
        assert code == EXIT_OK
        data = json.loads(out)
        assert len(data) == 3 and data[0]["status"] == "ok"


class TestTableBatchForms:
    """Grids of rows with a batch form: one batch call, the same bytes as eval."""

    GRIDS = [
        # a row on the lattice (z = 0) is near_pole, every other row ok
        ("twisted_pk", ["k=1..3", "mu=0.31", "lam=0.77", "z=-2+1i:2-1i:5",
                        "tau=0.12+1.1i"]),
        # the last row, z = 0, is near_pole, every other row ok, the first two past the
        # radius 2*pi of the disk where P_0's Laurent series converges
        ("p0", ["z=-8+0.5i:0:9", "tau=i"]),
        ("prime_form", ["z=-8+0.5i:0:9", "tau=i"]),
        # a, b past 1/2 and z far from the imaginary axis: the multiplier of b - round(b)
        # and windows off n = 0; every row ok
        ("theta_char", ["a=1.3", "b=-2.7", "z=-9+0.5i:9-2i:13", "tau=0.12+1.1i"]),
        # tau before n: the batch axes (n, tau) are transposed into row order; the
        # Im tau = 0.02 rows are not_converged, every other row ok
        ("twisted_eisenstein", ["tau=0.1+0.02i:0.1+1i:5", "n=1..3", "mu=0.31", "lam=0.77"]),
        # the lattice oracles: a z line ending on the pole z = 0, its last row near_pole, and a
        # tau line starting on the real axis, its first row domain_error
        ("twisted_pk_oracle", ["k=2", "mu=0.31", "lam=0.77", "z=-3+0.5i:0:7",
                               "tau=0.12+1.1i"]),
        ("twisted_eisenstein_oracle", ["n=2", "mu=0.31", "lam=0.77", "tau=0.1:0.1+1i:5"]),
    ]
    # a refused row in the middle of a grid: the prime form's zero at z = 0, and the zero
    # of theta[0;0] at z = -pi + pi i, tau = i, where the rounding bound fails
    MIDDLE_REFUSED = [
        ("prime_form", ["z=-1:1:5", "tau=i"]),
        ("theta_char", ["a=0", "b=0", f"z=-5+{math.pi!r}i:{5 - 2 * math.pi!r}+{math.pi!r}i:3",
                        "tau=i"]),
    ]
    # k = 1 passes and k = 2 and 3 are refused (found among 3000 draws at small Im tau,
    # where the bound of the call up to k = 3 once refused k = 1 too)
    ORDER_DEPENDENT = ["k=1..3", "mu=0.8570167391377412", "lam=0.796584380552441",
                       "z=-0.0064325510852901342-2.7788758273291272i",
                       "tau=-0.0055590549091550923+0.079553597222646183i"]
    # a refused row's status -> its eval exit code and error kind
    REFUSALS = {"domain_error": (EXIT_DOMAIN, "domain"), "near_pole": (EXIT_DOMAIN, "near_pole"),
                "not_converged": (EXIT_CONVERGENCE, "convergence")}

    @staticmethod
    def count_calls(monkeypatch, module, name):
        calls = []
        real = getattr(module, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, name, counted)
        return calls

    def test_twisted_pk_grid_is_one_kernel_call(self, capsys, monkeypatch):
        calls = self.count_calls(monkeypatch, twisted, "twisted_pk_batch")
        for top, zs, statuses in [
                (3, "-6+1i:6-2i:25", ["ok"] * 75),
                # a row on the lattice: its refusal comes from the same one call
                (2, "-2+1i:2-1i:5", ["ok", "ok", "near_pole", "ok", "ok"] * 2)]:
            calls.clear()
            code, out, _ = run_cli(capsys, "table", "--function", "twisted_pk", f"k=1..{top}",
                                   "mu=0.31", "lam=0.77", f"z={zs}", "tau=0.12+1.1i")
            assert code == EXIT_OK and len(calls) == 1
            called_ks, _, called_zs, _, _ = calls[0]
            assert list(called_ks) == list(range(1, top + 1))
            assert len(called_zs) == len(statuses) // top
            assert [row[-1] for row in list(csv.reader(io.StringIO(out)))[1:]] == statuses

    def test_order_dependent_refusal_keeps_each_rows_own_status(self, capsys, monkeypatch):
        # each entry's bound is its own order's, whatever else the call holds: one kernel
        # call gives every row its verdict
        calls = self.count_calls(monkeypatch, twisted, "twisted_pk_batch")
        code, out, _ = run_cli(capsys, "table", "--function", "twisted_pk",
                               *self.ORDER_DEPENDENT)
        assert code == EXIT_OK
        assert [row[-1] for row in list(csv.reader(io.StringIO(out)))[1:]] == \
            ["ok", "not_converged", "not_converged"]
        assert [(list(ks), len(zs)) for ks, _, zs, _, _ in calls] == [([1, 2, 3], 1)]

    def test_refusal_that_is_no_row_status_aborts_the_table(self, capsys):
        # the oracle's RouteUnavailable at the trivial twist flags no row: the table exits
        # with its code and prints the error alone
        code, out, err = run_cli(capsys, "table", "--function", "twisted_pk_oracle", "k=1",
                                 "mu=0", "lam=0", "z=-1:-0.5:3", "tau=1i")
        assert (code, out) == (EXIT_PARSE, "")
        assert json.loads(err) == {"error": "parse",
                                   "message": "lattice oracle needs theta != 1 or phi != 1"}

    @pytest.mark.parametrize("function,tokens", MIDDLE_REFUSED, ids=["prime_form", "theta_char"])
    def test_refused_middle_row_is_one_batch_call(self, capsys, monkeypatch, function, tokens):
        calls = self.count_calls(monkeypatch, classical, f"_{function}s")
        code, out, _ = run_cli(capsys, "table", "--function", function, *tokens)
        assert code == EXIT_OK and len(calls) == 1
        statuses = [row[-1] for row in list(csv.reader(io.StringIO(out)))[1:]]
        middle = len(statuses) // 2
        assert statuses[middle] != "ok"
        assert statuses[:middle] + statuses[middle + 1:] == ["ok"] * (len(statuses) - 1)

    @pytest.mark.parametrize("function,batch,fixed", [("p0", "p0_batch", []),
                                                      ("prime_form", "_prime_forms", []),
                                                      ("theta_char", "_theta_chars",
                                                       ["a=0.3", "b=0.2"])])
    def test_z_grid_is_one_batch_call(self, capsys, monkeypatch, function, batch, fixed):
        calls = self.count_calls(monkeypatch, classical, batch)
        code, _, _ = run_cli(capsys, "table", "--function", function, *fixed,
                             "z=-2+0.5i:2+0.5i:9", "tau=i")
        assert code == EXIT_OK and len(calls) == 1 and len(calls[0][len(fixed)]) == 9

    @pytest.mark.parametrize("function,tokens,statuses", [
        (GRIDS[-2][0], GRIDS[-2][1], ["ok"] * 6 + ["near_pole"]),
        (GRIDS[-1][0], GRIDS[-1][1], ["domain_error"] + ["ok"] * 4)])
    def test_oracle_grid_is_one_batch_call(self, capsys, monkeypatch, function, tokens, statuses):
        calls = self.count_calls(monkeypatch, twisted, f"{function}_batch")
        code, out, _ = run_cli(capsys, "table", "--function", function, *tokens)
        assert code == EXIT_OK and len(calls) == 1 and len(calls[0][2]) == len(statuses)
        assert [row[-1] for row in list(csv.reader(io.StringIO(out)))[1:]] == statuses

    @pytest.mark.parametrize("function,tokens",
                             GRIDS + MIDDLE_REFUSED + [("twisted_pk", ORDER_DEPENDENT)],
                             ids=[g[0] for g in GRIDS] + ["prime_form_middle", "theta_char_middle",
                                                          "twisted_pk_order"])
    def test_rows_print_the_bytes_of_eval(self, capsys, function, tokens):
        code, out, _ = run_cli(capsys, "table", "--function", function, *tokens)
        assert code == EXIT_OK
        rows = list(csv.reader(io.StringIO(out)))
        header, rows = rows[0], rows[1:]
        assert {row[-1] for row in rows} >= {"ok"}
        for row in rows:
            assignments = [f"{key}={cell}" for key, cell in zip(header[:-3], row)]
            code, out, err = run_cli(capsys, "eval", function, *assignments)
            if row[-1] == "ok":
                assert code == EXIT_OK
                text = out.split('"re":', 1)[1]
                assert text.startswith(f"{row[-3]},\"im\":{row[-2]},")
            else:
                assert (code, json.loads(err)["error"]) == self.REFUSALS[row[-1]]

    @pytest.mark.parametrize("low,statuses", [(0.06, ["ok"] * 3), (0.02, ["not_converged"] * 3)])
    def test_twisted_eisenstein_grid_is_one_batch_call(self, capsys, monkeypatch, low, statuses):
        # a refused row takes its status from the batch's outcome: no scalar call a row
        batch = self.count_calls(monkeypatch, twisted, "twisted_eisenstein_batch")
        scalar = self.count_calls(monkeypatch, twisted, "twisted_eisenstein")
        code, out, _ = run_cli(capsys, "table", "--function", "twisted_eisenstein", "n=1..3",
                               "mu=0.31", "lam=0.77", f"tau=0.1+{low}i:0.1+1i:25")
        assert code == EXIT_OK and len(batch) == 1
        ns, _, taus, _ = batch[0]
        assert list(ns) == [1, 2, 3] and len(taus) == 25
        rows = list(csv.reader(io.StringIO(out)))[1:]
        assert [row[-1] for row in rows[::25]] == statuses
        assert {row[-1] for row in rows[1:25] + rows[26:50] + rows[51:]} == {"ok"}
        assert not scalar

    def test_csv_bytes_with_fixed_list_cells(self, capsys):
        # xs and ys print with commas, so csv quotes them
        xs, ys = [-1.4 - 0.2j, -1.65 + 0.1j], [-0.2 + 0.15j, -0.31 - 0.1j]
        code, out, _ = run_cli(capsys, "table", "--function", "rank2_generating", "alpha=0.27",
                               "beta=0.63", "xs=-1.4-0.2i,-1.65+0.1i", "ys=-0.2+0.15i,-0.31-0.1i",
                               "tau=0.12+1i:0.12+1.5i:4")
        assert code == EXIT_OK
        taus = [line.split(",", 1)[0] for line in out.splitlines()[1:]]
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["tau", "alpha", "beta", "xs", "ys", "re", "im", "status"])
        for cell in taus:
            value = fermion.rank2_generating(_P, xs, ys, parse_complex(cell))
            writer.writerow([cell, 0.27, 0.63, str(xs), str(ys), format(value.real, ".17g"),
                             format(value.imag, ".17g"), "ok"])
        assert len(taus) == 4 and out == buf.getvalue()

    def test_grid_keeps_each_rows_status(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--function", "twisted_pk", "k=1..2",
                               "mu=0.31", "lam=0.77", "z=-2+1i:2-1i:5", "tau=0.12+1.1i")
        assert code == EXIT_OK
        statuses = [row[-1] for row in list(csv.reader(io.StringIO(out)))[1:]]
        assert statuses == ["ok", "ok", "near_pole", "ok", "ok"] * 2


def readback(kind, text):
    """Test-only reference for a grid's (cell, argument) pairs: each argument parsed back
    from its printed cell, the rule that the table's rules on the numbers replace."""
    return [(cell, cli._PARSERS[kind](cell)) for cell in map(cli._cell, cli._parse_range(text))]


def same_argument(a, b) -> bool:
    """Equal in type and value, zeros of the same sign; a NaN equals a NaN, whose sign no
    output shows."""
    if type(a) is not type(b):
        return False
    pairs = [(a.real, b.real), (a.imag, b.imag)] if isinstance(a, complex) else [(a, b)]
    return all((x == y and math.copysign(1, x) == math.copysign(1, y)) or (x != x and y != y)
               for x, y in pairs)


def reference_table(function, tokens, fmt):
    """Test-only reference for `twistell table` output: grid arguments read back from their
    cells, every row evaluated alone, every number formatted on its own, every CSV row
    written by csv.writer and every JSON row a dict through dumps."""
    spec, evaluate, _ = REGISTRY[function]
    kinds = dict(spec)
    grids, fixed = {}, {}
    for key, _, text in (tok.partition("=") for tok in tokens):
        if ".." in text or text.count(":") == 2:
            grids[key] = readback(kinds[key], text)
        else:
            fixed[key] = cli._PARSERS[kinds[key]](text)
    header = [*grids, *sorted(fixed), "re", "im", "status"]
    rows = []
    for combo in itertools.product(*grids.values()):
        args = {**fixed, **{key: arg for key, (_, arg) in zip(grids, combo)}}
        try:
            value, status = complex(evaluate(args, cli.DEFAULT_CONFIG)[0]), "ok"
        except cli._ROW_ERRORS as exc:
            value, status = 0j, cli._error_row(exc)[3]
        rows.append([*(cell for cell, _ in combo), *(cli._cell(fixed[k]) for k in sorted(fixed)),
                     format(value.real, ".17g"), format(value.imag, ".17g"), status])
    if fmt == "json":
        return dumps([dict(zip(header, row)) for row in rows]) + "\n"
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    return buf.getvalue()


class TestTableGridRules:
    """Grid arguments and table bytes against the readback reference above."""

    RULE_CASES = [
        ("int", "1..5"), ("int", "1:3:3"), ("int", "1:3:5"), ("int", "-0:0:1"),
        ("int", "1+1i:2:2"), ("int", "0.5i:1:1"),
        # integral up to the largest float below 1e17, then across 1e17
        ("int", "99999999999999840:99999999999999984:10"),
        ("int", "99999999999999936:100000000000000064:3"),
        ("float", "0.1:0.3:3"), ("float", "1..3"), ("float", "-0:5:1"), ("float", "0.1:0.2i:3"),
        ("complex", "-1-0i:2:1"), ("complex", "-0-0i:0:1"), ("complex", "-2+1i:2-1i:5"),
        ("complex", "0.1-0.5i:0.1+1.5i:5"), ("complex", "1e-300:1e300i:4"),
        # an overflowing linspace (NaN values), and one-point grids at infinity
        ("complex", "-1e308:1e308:3"), ("float", "-1e308:1e308:3"), ("int", "-1e308:1e308:3"),
        ("complex", "inf:0:1"), ("complex", "1-infi:0:1"), ("float", "-inf:0:1"),
        ("int", "inf:0:1"),
    ]

    @pytest.mark.parametrize("kind,text", RULE_CASES)
    def test_arguments_match_the_readback_of_their_cells(self, kind, text):
        try:
            expected = readback(kind, text)
        except cli.ParseError as exc:
            with pytest.raises(cli.ParseError) as info:
                cli._parse_table_value("x", kind, text)
            assert str(info.value) == str(exc)
            return
        got = cli._parse_table_value("x", kind, text)
        assert [cell for cell, _ in got] == [cell for cell, _ in expected]
        assert all(same_argument(a, b) for (_, a), (_, b) in zip(got, expected)), (got, expected)

    BYTE_CASES = [
        ("twisted_eisenstein", ["n=1:3:3", "mu=0.3", "lam=0.7", "tau=i"]),
        ("twisted_eisenstein", ["n=1:3:5", "mu=0.3", "lam=0.7", "tau=i"]),
        ("twisted_eisenstein", ["n=1", "mu=0.1:0.2i:3", "lam=0.7", "tau=i"]),
        ("binomial", ["n=99999999999999936:100000000000000064:3", "k=0"]),
        # batch forms: one call; a near_pole row, and refused Im tau = 0.02 rows, send the
        # grid back to one row at a time; n after tau transposes the batch axes
        ("twisted_pk", ["k=1..3", "mu=0.31", "lam=0.77", "z=-6+1i:6-2i:25", "tau=0.12+1.1i"]),
        ("twisted_pk", ["k=1..3", "mu=0.31", "lam=0.77", "z=-2+1i:2-1i:5", "tau=0.12+1.1i"]),
        ("twisted_eisenstein", ["tau=0.1+0.02i:0.1+1i:5", "n=1..3", "mu=0.31", "lam=0.77"]),
        ("p0", ["z=-1-0i:2:1", "tau=i"]),
        ("theta_char", ["a=0.3", "b=0.2", "z=-1e308:1e308:3", "tau=i"]),
        ("twisted_pk", ["k=1", "mu=0.31", "lam=0.77", "z=inf:0:1", "tau=i"]),
        # no batch form: the eisenstein tau line crossing the real axis, and a 2-D grid
        # varying a parameter the batch form does not list
        ("eisenstein", ["n=2", "tau=0.1-0.5i:0.1+1.5i:5"]),
        ("twisted_eisenstein", ["n=1..2", "mu=0.1:0.3:3", "lam=0.7", "tau=i"]),
        # fixed cells holding commas
        ("rank2_generating", ["alpha=0.27", "beta=0.63", "xs=-1.4-0.2i,-1.65+0.1i",
                              "ys=-0.2+0.15i,-0.31-0.1i", "tau=0.12+1i:0.12+1.5i:4"]),
        ("rank1_fock_npoint", ["labels=1;2", "zs=-1.2+0.3i,-0.4-0.2i", "g=identity",
                               "tau=0.12+1.1i:0.12+1.3i:3"]),
    ]

    def check_bytes(self, capsys, function, tokens, fmt):
        try:
            expected = reference_table(function, tokens, fmt)
        except cli.ParseError as exc:
            code, out, err = run_cli(capsys, "table", "--function", function, *tokens,
                                     "--format", fmt)
            assert (code, out, json.loads(err)) == (EXIT_PARSE, "", {"error": "parse",
                                                                     "message": str(exc)})
            return
        code, out, _ = run_cli(capsys, "table", "--function", function, *tokens,
                               "--format", fmt)
        assert code == EXIT_OK and out == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("function,tokens", BYTE_CASES)
    def test_bytes_match_the_reference(self, capsys, function, tokens, fmt):
        self.check_bytes(capsys, function, tokens, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_fixed_cells_with_quotes_and_percent_signs(self, capsys, monkeypatch, fmt):
        # no registry row prints a quote or a % sign, so a test row takes a text parameter
        monkeypatch.setitem(cli._PARSERS, "text", str)
        monkeypatch.setitem(REGISTRY, "echo", cli._entry(
            "echo", lambda note, n: (complex(n, -n), []), "note:text n:int"))
        self.check_bytes(capsys, "echo", ['note=50%, "%s" %% %(n)d', "n=-1..2"], fmt)


class TestParserReuse:
    def test_two_calls_build_the_parser_once(self, capsys, monkeypatch):
        builds = []
        real = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or real())
        cli._parser.cache_clear()
        for _ in range(2):
            code, _, _ = run_cli(capsys, "eval", "binomial", "n=7", "k=3")
            assert code == EXIT_OK
        assert builds == [1]

    def test_a_command_rebound_after_the_first_call_runs(self, capsys, monkeypatch):
        assert run_cli(capsys, "table", "--function", "p0", "z=-1:1:3", "tau=i")[0] == EXIT_OK
        calls = []
        monkeypatch.setattr(cli, "cmd_table", lambda args: calls.append(args.function) or 7)
        assert main(["table", "--function", "p0", "z=-1:1:3", "tau=i"]) == 7
        assert calls == ["p0"]


class TestWholePlane:
    def test_twisted_pk_outside_the_annulus(self, capsys):
        code, out, err = run_cli(capsys, "eval", "twisted_pk", "k=1", "mu=0.31", "lam=0.77",
                                 "z=0.5+0.1i", "tau=0.12+1.1i")
        assert code == EXIT_OK, err
        value = json.loads(out)
        assert complex(value["re"], value["im"]) == twisted.twisted_pk(
            1, _TW, 0.5 + 0.1j, _TAU)

    @pytest.mark.parametrize("seed", [38, 54])
    def test_formerly_refused_suite_seeds_pass(self, capsys, seed):
        code, out, _ = run_cli(capsys, "verify", "--seed", str(seed))
        assert code == EXIT_OK
        assert out.splitlines()[-1] == "17/17 checks passed"


# every registry row with an int order parameter (n, k, l), other parameters fixed by kind
ORDER_ROWS = [name for name, (spec, _, _) in REGISTRY.items()
              if any(kind == "int" for _, kind in spec)]
_SWEEP_VALUES = {"float": "0.3", "complex": "-1+0.2i"}


class TestOrderSweep:
    def test_rows_with_orders(self):
        assert {"bernoulli_poly", "eisenstein", "twisted_eisenstein", "coeff_C", "coeff_D",
                "twisted_pk_oracle", "twisted_eisenstein_oracle"} <= set(ORDER_ROWS)

    @pytest.mark.parametrize("order", [172, 400, 600])
    @pytest.mark.parametrize("function", ORDER_ROWS)
    def test_large_order_is_a_value_or_a_documented_error(self, capsys, function, order):
        spec = REGISTRY[function][0]
        tokens = [f"{key}={order}" if kind == "int"
                  else f"{key}={'i' if key == 'tau' else _SWEEP_VALUES[kind]}"
                  for key, kind in spec]
        code, out, err = run_cli(capsys, "eval", function, *tokens)
        assert code in (EXIT_OK, EXIT_DOMAIN, EXIT_CONVERGENCE), err
        if code == EXIT_OK:
            value = json.loads(out)
            assert math.isfinite(value["re"]) and math.isfinite(value["im"])
        else:
            assert out == "" and "Traceback" not in err
            assert len(err.splitlines()) == 1 and "error" in json.loads(err)

    def test_bernoulli_poly_past_the_float_range(self, capsys):
        code, out, err = run_cli(capsys, "eval", "bernoulli_poly", "n=400", "lam=0.3")
        assert code == EXIT_CONVERGENCE and out == ""
        payload = json.loads(err)
        assert payload["error"] == "convergence" and "B_400" in payload["message"]

    @pytest.mark.parametrize("function,tokens", [
        ("coeff_C", []), ("coeff_D", ["z=-1+0.2i"])])
    def test_cd_binomial_past_the_float_range(self, capsys, function, tokens):
        code, out, err = run_cli(capsys, "eval", function, "k=600", "l=600", "mu=0.3",
                                 "lam=0.3", *tokens, "tau=i")
        assert code == EXIT_CONVERGENCE and out == "" and len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "convergence" and "C(1198, 599)" in payload["message"]

    def test_twisted_eisenstein_overflow(self, capsys):
        code, out, err = run_cli(capsys, "eval", "twisted_eisenstein", "n=150", "mu=0.3",
                                 "lam=0.3", "tau=i")
        assert code == EXIT_CONVERGENCE and out == ""
        payload = json.loads(err)
        assert payload["error"] == "convergence" and "E_150" in payload["message"]


# every float or complex parameter of every registry row, one at a time
VALUE_PARAMS = [(name, key) for name, (spec, _, _) in REGISTRY.items()
                for key, kind in spec if kind in ("float", "complex")]


class TestValueSweep:
    @pytest.mark.parametrize("value", ["nan", "inf", "1e300", "-1e300", "1e300i"])
    @pytest.mark.parametrize("function,key", VALUE_PARAMS)
    def test_extreme_value_is_a_value_or_a_documented_error(self, capsys, function, key,
                                                            value):
        # the other arguments are the registry parity case's
        tokens = [f"{key}={value}" if tok.partition("=")[0] == key else tok
                  for tok in PARITY_CASES[function][0]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run_cli(capsys, "eval", function, *tokens)
        assert not caught, [str(w.message) for w in caught]
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_DOMAIN, EXIT_CONVERGENCE), err
        if code == EXIT_OK:
            value = json.loads(out)
            assert math.isfinite(value["re"]) and math.isfinite(value["im"]), out
        else:
            assert out == "" and "Traceback" not in err
            assert len(err.splitlines()) == 1 and "error" in json.loads(err)


# registry name -> (eval key=value tokens, the same call made directly)
_TW, _P, _TAU = TwistPair(0.31, 0.77), OrbifoldParams(0.27, 0.63), 0.12 + 1.1j
PARITY_CASES = {
    "bernoulli_poly": (["n=3", "lam=0.25"], lambda: bernoulli_poly(3, 0.25)),
    "binomial": (["n=7", "k=3"], lambda: binomial(7, 3)),
    "q_exp": (["z=0.3-0.2i", "s=1.5+0.5i"], lambda: q_exp(0.3 - 0.2j, 1.5 + 0.5j)),
    "eisenstein": (["n=4", "tau=0.12+1.1i"], lambda: classical.eisenstein(4, _TAU)),
    "weierstrass_pk": (["k=2", "z=-1.3+0.4i", "tau=0.12+1.1i"],
                       lambda: classical.weierstrass_pk(2, -1.3 + 0.4j, _TAU)),
    "p0": (["z=0.7-0.4i", "tau=0.12+1.1i"], lambda: classical.p0(0.7 - 0.4j, _TAU)),
    "prime_form": (["z=0.7-0.4i", "tau=0.12+1.1i"],
                   lambda: classical.prime_form(0.7 - 0.4j, _TAU)),
    "theta_char": (["a=0.25", "b=0.1", "z=0.3+0.2i", "tau=0.12+1.1i"],
                   lambda: classical.theta_char(0.25, 0.1, 0.3 + 0.2j, _TAU)),
    "dedekind_eta": (["tau=0.12+1.1i"], lambda: classical.dedekind_eta(_TAU)),
    "twisted_pk": (["k=2", "mu=0.31", "lam=0.77", "z=-1.3+0.4i", "tau=0.12+1.1i"],
                   lambda: twisted.twisted_pk(2, _TW, -1.3 + 0.4j, _TAU)),
    "twisted_pk_oracle": (["k=1", "mu=0.31", "lam=0.77", "z=-1.3+0.4i", "tau=0.12+1.1i"],
                          lambda: twisted.twisted_pk_oracle(1, _TW, -1.3 + 0.4j, _TAU)),
    "twisted_eisenstein": (["n=3", "mu=0.31", "lam=0.77", "tau=0.12+1.1i"],
                           lambda: twisted.twisted_eisenstein(3, _TW, _TAU)),
    "twisted_eisenstein_oracle": (["n=2", "mu=0.31", "lam=0.77", "tau=0.12+1.1i"],
                                  lambda: twisted.twisted_eisenstein_oracle(2, _TW, _TAU)),
    "coeff_C": (["k=1", "l=2", "mu=0.31", "lam=0.77", "tau=0.12+1.1i"],
                lambda: twisted.coeff_C(1, 2, _TW, _TAU)),
    "coeff_D": (["k=2", "l=1", "mu=0.31", "lam=0.77", "z=-1.3+0.4i", "tau=0.12+1.1i"],
                lambda: twisted.coeff_D(2, 1, _TW, -1.3 + 0.4j, _TAU)),
    "rank1_partition": (["g=sigma", "tau=0.12+1.1i"],
                        lambda: fermion.rank1_partition(GSelector.SIGMA, _TAU)),
    "rank1_generating": (["g=identity", "zs=-1.2+0.3i,-0.4-0.2i", "tau=0.12+1.1i"],
                         lambda: fermion.rank1_generating(
                             GSelector.IDENTITY, [-1.2 + 0.3j, -0.4 - 0.2j], _TAU)),
    "rank1_fock_npoint": (["labels=1;2", "zs=-1.2+0.3i,-0.4-0.2i", "g=identity",
                           "tau=0.12+1.1i"],
                          lambda: fermion.rank1_fock_npoint(
                              [(1,), (2,)], [-1.2 + 0.3j, -0.4 - 0.2j], GSelector.IDENTITY,
                              _TAU)),
    "rank1_sigma_twisted_generating": (
        ["zs=-1.2+0.3i,-0.4-0.2i", "tau=0.12+1.1i"],
        lambda: fermion.rank1_sigma_twisted_generating([-1.2 + 0.3j, -0.4 - 0.2j], _TAU)),
    "sigma_module_partition": (["tau=0.12+1.1i"],
                               lambda: fermion.sigma_module_partition(_TAU)),
    "rank2_partition": (["alpha=0.27", "beta=0.63", "tau=0.12+1.1i"],
                        lambda: fermion.rank2_partition(_P, _TAU)),
    "rank2_partition_theta": (["alpha=0.27", "beta=0.63", "tau=0.12+1.1i"],
                              lambda: fermion.rank2_partition_theta(_P, _TAU)),
    "rank2_generating": (["alpha=0.27", "beta=0.63", "xs=-1.4-0.2i,-1.65+0.1i",
                          "ys=-0.2+0.15i,-0.31-0.1i", "tau=0.12+1.1i"],
                         lambda: fermion.rank2_generating(
                             _P, [-1.4 - 0.2j, -1.65 + 0.1j], [-0.2 + 0.15j, -0.31 - 0.1j],
                             _TAU)),
    "rank2_fock_npoint": (["plus=1;", "minus=;1", "zs=-1.2+0.3i,-0.4-0.2i", "alpha=0.27",
                           "beta=0.63", "tau=0.12+1.1i"],
                          lambda: fermion.rank2_fock_npoint(
                              [((1,), ()), ((), (1,))], [-1.2 + 0.3j, -0.4 - 0.2j], _P, _TAU)),
    "rank2_generating_boson": (["alpha=0.27", "beta=0.63", "xs=-1.4-0.2i,-1.65+0.1i",
                                "ys=-0.2+0.15i,-0.31-0.1i", "tau=0.12+1.1i"],
                               lambda: fermion.rank2_generating_boson(
                                   _P, [-1.4 - 0.2j, -1.65 + 0.1j],
                                   [-0.2 + 0.15j, -0.31 - 0.1j], _TAU)),
    "lattice_npoint": (["alpha=0.27", "beta=0.63", "ms=1", "xs=-1.4-0.2i", "ns=1",
                        "ys=-0.2+0.15i", "tau=0.12+1.1i"],
                       lambda: fermion.lattice_npoint(_P, [1], [-1.4 - 0.2j], [1],
                                                      [-0.2 + 0.15j], _TAU)),
    "modular_multiplier": (["gamma=0,-1,1,0", "alpha=0.27", "beta=0.63"],
                           lambda: fermion.modular_multiplier(GroupElement(0, -1, 1, 0), _P)[0]),
}


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_registry_matches_library_call(capsys, name):
    tokens, direct = PARITY_CASES[name]
    code, out, err = run_cli(capsys, "eval", name, *tokens)
    assert code == EXIT_OK, err
    payload = json.loads(out)
    value = complex(direct())
    assert (payload["re"], payload["im"]) == (value.real, value.imag)
