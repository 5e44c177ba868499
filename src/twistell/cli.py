"""Command-line front end: evaluate registry functions, run the identity
suite, and emit machine-readable tables.

Exit codes: 0 ok, 1 parse error, 2 domain error, 3 non-convergence,
4 verification failure, 5 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from functools import cache
from itertools import product
from types import ModuleType

from . import classical, fermion, numeric, twisted
from .errors import DomainError, NearPole, NotConverged, TwistellError, _outcome
from .identities import SUITE, SamplePlan, run_all
from .numeric import DEFAULT_CONFIG, TruncationConfig
from .twisted import GroupElement, TwistPair

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_CONVERGENCE = 3
EXIT_VERIFY = 4
EXIT_IO = 5


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# scalar and structured argument parsing
# ---------------------------------------------------------------------------

def parse_complex(text: str) -> complex:
    """Parse 'a+bi' complex literals; accepts 'i', '2i', '1.5', '1-0.5i', 'j'."""
    t = text.strip().replace(" ", "").replace("J", "j").replace("I", "i")
    t = t.replace("j", "i")
    if not t:
        raise ParseError("empty number")
    try:
        if not t.endswith("i"):
            return complex(float(t), 0.0)
        body = t[:-1]
        split = 0
        for pos in range(len(body) - 1, 0, -1):
            if body[pos] in "+-" and body[pos - 1] not in "eE":
                split = pos
                break
        re_part, im_part = body[:split], body[split:]
        if im_part in ("", "+"):
            im = 1.0
        elif im_part == "-":
            im = -1.0
        else:
            im = float(im_part)
        return complex(float(re_part) if re_part else 0.0, im)
    except ValueError as exc:
        raise ParseError(f"cannot parse complex number {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"cannot parse integer {text!r}") from exc


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"cannot parse real number {text!r}") from exc


def _parse_complex_list(text: str) -> list[complex]:
    return [parse_complex(tok) for tok in text.split(",") if tok != ""]


def _parse_int_list(text: str) -> list[int]:
    return [_parse_int(tok) for tok in text.split(",") if tok != ""]


def _parse_label_groups(text: str) -> list[tuple[int, ...]]:
    return [tuple(_parse_int_list(group)) for group in text.split(";")]


def _parse_g(text: str) -> fermion.GSelector:
    try:
        return fermion.GSelector(text.strip().lower())
    except ValueError as exc:
        raise ParseError("g must be 'identity' or 'sigma'") from exc


def _parse_gamma(text: str) -> GroupElement:
    vals = _parse_int_list(text)
    if len(vals) != 4:
        raise ParseError("gamma needs four integers a,b,c,d")
    return GroupElement(*vals)


_PARSERS = {
    "int": _parse_int,
    "float": _parse_float,
    "complex": parse_complex,
    "clist": _parse_complex_list,
    "ilist": _parse_int_list,
    "labels": _parse_label_groups,
    "g": _parse_g,
    "gamma": _parse_gamma,
}

_ALIASES = {
    "λ": "lam", "lambda": "lam", "τ": "tau", "μ": "mu",
    "α": "alpha", "β": "beta", "θ": "mu", "φ": "lam",
}

# parameter-string groups: token -> (type, the float parameters passed to it in order)
_GROUPS = {"tw": (TwistPair, ("mu", "lam")), "p": (fermion.OrbifoldParams, ("alpha", "beta"))}


def _rank2_fock_npoint(plus, minus, zs, p, tau, cfg):
    return fermion.rank2_fock_npoint(list(zip(plus, minus)), zs, p, tau, cfg), []


def _modular_multiplier(gamma, p):
    eps, params = fermion.modular_multiplier(gamma, p)
    return eps, [f"transformed params: alpha={params.alpha:.17g} beta={params.beta:.17g}"]


# function name -> (owner, parameters in call order[, batch form]). The owner is the module
# defining a function of that name, or an adapter returning (value, warnings). Parameter
# tokens: "name:kind" is parsed by _PARSERS[kind], "tw" and "p" expand through _GROUPS, and
# "cfg" passes the truncation config. A batch form "fn a b" names the owner's function
# taking the same parameters with a and b as lists, and returning one array axis per list.
_SIGNATURES = {
    "bernoulli_poly": (numeric, "n:int lam:float"),
    "binomial": (numeric, "n:int k:int"),
    "q_exp": (numeric, "z:complex s:complex"),
    "eisenstein": (classical, "n:int tau:complex cfg"),
    "weierstrass_pk": (classical, "k:int z:complex tau:complex cfg"),
    "p0": (classical, "z:complex tau:complex cfg", "p0_batch z"),
    "prime_form": (classical, "z:complex tau:complex cfg", "_prime_forms z"),
    "theta_char": (classical, "a:float b:float z:complex tau:complex cfg", "_theta_chars z"),
    "dedekind_eta": (classical, "tau:complex cfg"),
    "twisted_pk": (twisted, "k:int tw z:complex tau:complex cfg", "twisted_pk_batch k z"),
    "twisted_pk_oracle": (twisted, "k:int tw z:complex tau:complex cfg",
                          "twisted_pk_oracle_batch z"),
    "twisted_eisenstein": (twisted, "n:int tw tau:complex cfg", "twisted_eisenstein_batch n tau"),
    "twisted_eisenstein_oracle": (twisted, "n:int tw tau:complex cfg",
                                  "twisted_eisenstein_oracle_batch tau"),
    "coeff_C": (twisted, "k:int l:int tw tau:complex cfg"),
    "coeff_D": (twisted, "k:int l:int tw z:complex tau:complex cfg"),
    "rank1_partition": (fermion, "g:g tau:complex cfg"),
    "rank1_generating": (fermion, "g:g zs:clist tau:complex cfg"),
    "rank1_fock_npoint": (fermion, "labels:labels zs:clist g:g tau:complex cfg"),
    "rank1_sigma_twisted_generating": (fermion, "zs:clist tau:complex cfg"),
    "sigma_module_partition": (fermion, "tau:complex cfg"),
    "rank2_partition": (fermion, "p tau:complex cfg"),
    "rank2_partition_theta": (fermion, "p tau:complex cfg"),
    "rank2_generating": (fermion, "p xs:clist ys:clist tau:complex cfg"),
    "rank2_fock_npoint": (_rank2_fock_npoint,
                          "plus:labels minus:labels zs:clist p tau:complex cfg"),
    "rank2_generating_boson": (fermion, "p xs:clist ys:clist tau:complex cfg"),
    "lattice_npoint": (fermion, "p ms:ilist xs:clist ns:ilist ys:clist tau:complex cfg"),
    "modular_multiplier": (_modular_multiplier, "gamma:gamma p"),
}


def _entry(name: str, owner, params: str, batch: str = ""):
    """The (ordered (param, kind) spec, evaluator(args, cfg), batch) triple of one registry row.

    batch is None, or (the listed parameters, evaluator(args, cfg) -> array) of
    the row's batch form. A module's function is looked up when called, so
    rebinding it (as a tracer or a test double does) takes effect here too.
    """
    spec, getters = [], []
    for tok in params.split():
        if tok == "cfg":
            getters.append(lambda a, cfg: cfg)
        elif tok in _GROUPS:
            cls, keys = _GROUPS[tok]
            spec += [(key, "float") for key in keys]
            getters.append(lambda a, cfg, cls=cls, keys=keys: cls(*(a[key] for key in keys)))
        else:
            key, _, kind = tok.partition(":")
            spec.append((key, kind))
            getters.append(lambda a, cfg, key=key: a[key])

    def call(fn_name, a, cfg):
        return getattr(owner, fn_name)(*[get(a, cfg) for get in getters])

    def evaluate(a, cfg):
        if isinstance(owner, ModuleType):
            return call(name, a, cfg), []
        return owner(*[get(a, cfg) for get in getters])

    if not batch:
        return spec, evaluate, None
    batch_name, *listed = batch.split()
    return spec, evaluate, (tuple(listed), lambda a, cfg: call(batch_name, a, cfg))


# function name -> (ordered (param, kind) spec, evaluator(args, cfg) -> (value, warnings),
# batch form or None)
REGISTRY: dict = {name: _entry(name, *row) for name, row in _SIGNATURES.items()}


# ---------------------------------------------------------------------------
# deterministic JSON with 17-significant-digit floats
# ---------------------------------------------------------------------------

def _fmt_number(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if x != x:  # nan
        return '"nan"'
    if x in (float("inf"), float("-inf")):
        return f'"{x}"'
    return format(x, ".17g")


def dumps(obj) -> str:
    """Deterministic JSON with floats printed to 17 significant digits."""
    if isinstance(obj, dict):
        inner = ",".join(f"{json.dumps(str(k))}:{dumps(v)}" for k, v in obj.items())
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(dumps(v) for v in obj) + "]"
    if isinstance(obj, str):
        return json.dumps(obj)
    if obj is None:
        return "null"
    return _fmt_number(obj)


def _emit_error(kind: str, message: str) -> None:
    sys.stderr.write(dumps({"error": kind, "message": message}) + "\n")


# exception -> (error kind, exit code, table row status); the first matching row wins.
# A row status of None aborts a table instead of flagging the row.
_ERRORS = (
    (ParseError, "parse", EXIT_PARSE, None),
    (NearPole, "near_pole", EXIT_DOMAIN, "near_pole"),
    (DomainError, "domain", EXIT_DOMAIN, "domain_error"),
    (NotConverged, "convergence", EXIT_CONVERGENCE, "not_converged"),
    (OSError, "io", EXIT_IO, None),
    (ValueError, "parse", EXIT_PARSE, None),
    (KeyError, "parse", EXIT_PARSE, None),
    (TwistellError, "parse", EXIT_PARSE, None),
)
_HANDLED = tuple(exc for exc, _, _, _ in _ERRORS)
_ROW_ERRORS = tuple(exc for exc, _, _, status in _ERRORS if status)


def _error_row(exc: Exception) -> tuple:
    """The _ERRORS row of an exception."""
    return next(row for row in _ERRORS if isinstance(exc, row[0]))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cfg_from_args(args) -> TruncationConfig:
    return DEFAULT_CONFIG if args.tol is None else TruncationConfig(tol=args.tol)


def _lookup(function: str):
    if function not in REGISTRY:
        raise ParseError(f"unknown function {function!r}; known: "
                         f"{', '.join(sorted(REGISTRY))}")
    return REGISTRY[function]


def _parse_value(key: str, kind: str, text: str):
    return _PARSERS[kind](text)


def _parse_assignments(tokens, spec, parse=_parse_value) -> dict:
    """Map key=value tokens onto spec, resolving aliases; each parameter exactly once.

    parse(key, kind, text) turns one value into its argument.
    """
    wanted = dict(spec)
    got: dict = {}
    for tok in tokens:
        if "=" not in tok:
            raise ParseError(f"expected key=value, got {tok!r}")
        key, _, val = tok.partition("=")
        key = _ALIASES.get(key.strip(), key.strip())
        if key not in wanted:
            raise ParseError(f"unknown parameter {key!r}; expected "
                             f"{', '.join(n for n, _ in spec)}")
        if key in got:
            raise ParseError(f"duplicate parameter {key!r}")
        got[key] = parse(key, wanted[key], val)
    missing = [n for n, _ in spec if n not in got]
    if missing:
        raise ParseError(f"missing parameter(s): {', '.join(missing)}")
    return got


def cmd_eval(args) -> int:
    if args.function_flag:
        if args.function is not None:
            args.assignments = [args.function] + args.assignments
        args.function = args.function_flag
    if args.function is None:
        raise ParseError("eval needs a function name")
    spec, fn, _ = _lookup(args.function)
    cfg = _cfg_from_args(args)
    parsed = _parse_assignments(args.assignments, spec)
    value, warnings = fn(parsed, cfg)
    value = complex(value)
    payload = {"re": value.real, "im": value.imag, "cfg": cfg.asdict(),
               "warnings": warnings}
    sys.stdout.write(dumps(payload) + "\n")
    return EXIT_OK


def _report_rows(reports):
    for rep in reports:
        d = rep.to_dict()
        for sample in d["samples"]:
            yield [d["identity_name"], sample["input"],
                   format(sample["lhs"]["re"], ".17g"), format(sample["lhs"]["im"], ".17g"),
                   format(sample["rhs"]["re"], ".17g"), format(sample["rhs"]["im"], ".17g"),
                   format(sample["residual"], ".17g"), sample["status"],
                   format(d["tolerance"], ".17g"), str(d["passed"]), str(d["seed"])]


def cmd_verify(args) -> int:
    cfg = _cfg_from_args(args)
    if args.count is not None and args.count < 1:
        raise ParseError("count must be >= 1")
    plan = SamplePlan(seed=args.seed, count=args.count or 25)
    if args.suite == "all":
        names = None
    else:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        unknown = [n for n in names if n not in SUITE]
        if unknown:
            raise ParseError(f"unknown suite name(s) {', '.join(unknown)}; known: "
                             f"{', '.join(SUITE)} or 'all'")
    reports = run_all(plan, cfg, names=names, use_pinned_counts=args.count is None)
    for rep in reports:
        print(rep.summary_line())
    n_fail = sum(not rep.passed for rep in reports)
    print(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    if args.out:
        if args.format == "json":
            text = dumps([rep.to_dict() for rep in reports]) + "\n"
        else:
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["identity_name", "input", "lhs_re", "lhs_im", "rhs_re",
                             "rhs_im", "residual", "status", "tolerance", "passed",
                             "seed"])
            writer.writerows(_report_rows(reports))
            text = buf.getvalue()
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def cmd_report(args) -> int:
    """Re-read a JSON report file and reproduce the summary verdict."""
    with open(args.path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"not a JSON report: {exc}") from exc
    if not isinstance(data, list):
        raise ParseError("not a JSON report: expected a list of checks")
    checks = []
    for rep in data:
        try:
            # float() also decodes the "inf" and "nan" strings that dumps writes
            residual, tol = float(rep["max_residual"]), float(rep["tolerance"])
            line = (f"{rep['identity_name']:<28s} samples={len(rep['samples']):<4d} "
                    f"max_residual={residual:.3e}  tol={tol:.1e}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed report entry: {exc!r}") from exc
        checks.append((residual <= tol, line))
    for passed, line in checks:
        print(f"{'PASS' if passed else 'FAIL'}  {line}")
    n_fail = sum(not passed for passed, _ in checks)
    print(f"{len(data) - n_fail}/{len(data)} checks passed")
    return EXIT_OK if n_fail == 0 else EXIT_VERIFY


def _parse_range(val: str) -> list[complex]:
    """Grid token: 'a..b' (integer, inclusive) or 'start:stop:count' (linspace)."""
    if ".." in val:
        lo, _, hi = val.partition("..")
        return [complex(v) for v in range(_parse_int(lo), _parse_int(hi) + 1)]
    parts = val.split(":")
    if len(parts) == 3:
        start, stop = parse_complex(parts[0]), parse_complex(parts[1])
        count = _parse_int(parts[2])
        if count < 1:
            return []
        if count == 1:
            return [start]
        step = (stop - start) / (count - 1)
        return [start + i * step for i in range(count)]
    raise ParseError(f"not a range: {val!r}")


def _cell(v) -> str:
    if isinstance(v, complex):
        return format(v.real, ".17g") if v.imag == 0 else \
            f"{format(v.real, '.17g')}{'+' if v.imag >= 0 else '-'}{format(abs(v.imag), '.17g')}i"
    return str(v)


class _Grid(list):
    """(printed cell, argument) pairs of one varying table parameter."""


def _parse_table_value(key: str, kind: str, text: str):
    """A fixed argument, or a _Grid of (cell, argument) pairs, each argument what its printed
    cell parses to, taken from the number (.17g round-trips every float): a complex value,
    a zero imaginary part as +0.0; a real value; int of an integral real value below 1e17
    in modulus, past which .17g prints an exponent. Any other value raises the ParseError
    its cell would."""
    if ".." not in text and text.count(":") != 2:
        return _PARSERS[kind](text)
    if kind not in ("int", "float", "complex"):
        raise ParseError(f"parameter {key!r} cannot vary")
    grid = _Grid()
    for v in _parse_range(text):
        cell = _cell(v)
        if kind == "complex":
            grid.append((cell, complex(v.real, v.imag if v.imag else 0.0)))
        elif not v.imag and (kind == "float" or v.real.is_integer() and abs(v.real) < 1e17):
            grid.append((cell, v.real if kind == "float" else int(v.real)))
        else:
            noun = "real number" if kind == "float" else "integer"
            raise ParseError(f"cannot parse {noun} {cell!r}")
    return grid


def _batch_values(batch, varying, fixed: dict, cfg) -> tuple[list, list, list] | None:
    """The re, im and status lists of the rows, in row order, from one batch form call:
    a refused row's status from its entry's error in the batch's outcome, the one it
    would meet in a batch of its own, its value 0.

    None when there is no batch form, or when the grid varies a parameter the batch
    form does not list: the rows are then evaluated one by one.
    """
    if batch is None:
        return None
    listed, fn = batch
    grids = dict(varying)
    if not set(grids) <= set(listed):
        return None
    call = dict(fixed)
    call.update({k: [arg for _, arg in grids[k]] if k in grids else [fixed[k]] for k in listed})
    out, statuses = _outcome(fn, call, cfg)
    # the varying axes first, in row order, then the length-1 axes of fixed listed parameters
    axes = [listed.index(k) for k in grids] + [i for i, k in enumerate(listed) if k not in grids]
    out = out.transpose(axes).ravel()
    re, im, status = out.real.tolist(), out.imag.tolist(), ["ok"] * out.size
    if statuses is not None:
        # a list, which the cycle collector sees into: an error raised from it refers to
        # this frame, and numpy's object arrays hide their items from the collector
        statuses = statuses.transpose(axes).ravel().tolist()
        for row, exc in enumerate(statuses):
            if exc is not None:
                status[row] = _error_row(exc)[3]
                if status[row] is None:       # not a row error: it aborts the table
                    raise exc
                re[row] = im[row] = 0.0
    return re, im, status


def _row_values(fn, names, rows, fixed: dict, cfg):
    """(re, im, status) of every row of arguments, each row evaluated alone."""
    call = dict(fixed)          # the grid's argument template: each row sets its names
    for args in rows:
        call.update(zip(names, args))
        try:
            value, status = complex(fn(call, cfg)[0]), "ok"
        except _ROW_ERRORS as exc:
            value, status = 0j, _error_row(exc)[3]
        yield value.real, value.imag, status


def _csv_cells(cells) -> str:
    """cells joined as csv.writer writes them in one row, without the line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()[:-1]


def cmd_table(args) -> int:
    """Tabulate a function over one or two grids: a row holds its grid cells, the fixed
    cells, re and im at 17 significant digits, and its status. CSV is one % format of a
    row template over the grid, JSON one object per row, its numbers as strings."""
    spec, fn, batch = _lookup(args.function)
    cfg = _cfg_from_args(args)
    parsed = _parse_assignments(args.assignments, spec, _parse_table_value)
    varying = [(k, v) for k, v in parsed.items() if isinstance(v, _Grid)]
    if not 1 <= len(varying) <= 2:
        raise ParseError("table needs one or two varying parameters")
    if any(len(grid) == 0 for _, grid in varying):
        raise ParseError("empty grid")
    names = [k for k, _ in varying]
    fixed = {k: v for k, v in parsed.items() if k not in names}
    fixed_cells = [_cell(fixed[k]) for k in sorted(fixed)]

    rows = product(*([arg for _, arg in grid] for _, grid in varying))
    values = (_batch_values(batch, varying, fixed, cfg)
              or list(zip(*_row_values(fn, names, rows, fixed, cfg))))
    # the cells of each varying parameter, then re, im and status: one list per column
    columns = [*zip(*product(*([c for c, _ in grid] for _, grid in varying))), *values]
    header = names + sorted(fixed) + ["re", "im", "status"]
    if args.format == "json":
        text = dumps([dict(zip(header, [*cells, *fixed_cells, "%.17g" % re, "%.17g" % im, st]))
                      for *cells, re, im, st in zip(*columns)]) + "\n"
    else:
        flat = [None] * (len(columns) * len(values[0]))
        for i, column in enumerate(columns):
            flat[i::len(columns)] = column
        # the varying cells print numbers, which csv never quotes; the fixed ones are
        # quoted once for the grid, their % escaped for the row template
        fixed_text = ("," + _csv_cells(fixed_cells)).replace("%", "%%") if fixed_cells else ""
        row = ",".join(["%s"] * len(names)) + fixed_text + ",%.17g,%.17g,%s\n"
        text = _csv_cells(header) + "\n" + (row * len(values[0])) % tuple(flat)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _add_cfg_flags(sub):
    sub.add_argument("--tol", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    """The twistell argument parser. A subcommand's `run` default names its cmd_*
    function, which main looks up when it runs."""
    parser = argparse.ArgumentParser(prog="twistell",
                                     description=__doc__.splitlines()[0])
    subs = parser.add_subparsers(dest="command", required=True)

    p_eval = subs.add_parser("eval", help="evaluate a registry function at key=value args")
    p_eval.add_argument("--function", dest="function_flag", default=None)
    p_eval.add_argument("function", nargs="?", default=None)
    p_eval.add_argument("assignments", nargs="*")
    _add_cfg_flags(p_eval)
    p_eval.set_defaults(run="cmd_eval")

    p_verify = subs.add_parser("verify", help="run identity-suite checks")
    p_verify.add_argument("--suite", default="all")
    p_verify.add_argument("--seed", type=int, default=7)
    p_verify.add_argument("--count", type=int, default=None)
    p_verify.add_argument("--format", choices=("json", "csv"), default="json")
    p_verify.add_argument("--out", default=None)
    _add_cfg_flags(p_verify)
    p_verify.set_defaults(run="cmd_verify")

    p_table = subs.add_parser("table", help="tabulate a function over a parameter grid")
    p_table.add_argument("--function", required=True)
    p_table.add_argument("assignments", nargs="*")
    p_table.add_argument("--format", choices=("json", "csv"), default="csv")
    p_table.add_argument("--out", default=None)
    _add_cfg_flags(p_table)
    p_table.set_defaults(run="cmd_table")

    p_report = subs.add_parser("report", help="re-read a JSON report and print its verdict")
    p_report.add_argument("path")
    p_report.set_defaults(run="cmd_report")

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main call of the process."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else EXIT_OK
    try:
        # looked up by name at call time, so a rebound cmd_* (a tracer, a test double) runs
        return globals()[args.run](args)
    except _HANDLED as exc:
        _, kind, code, _ = _error_row(exc)
        _emit_error(kind, str(exc))
        return code


if __name__ == "__main__":
    sys.exit(main())
