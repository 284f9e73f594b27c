"""Command-line surface: polynomials, transform values, zero reports,
verification suites, machine-readable tables.

Exit codes: 0 success / all suite cases pass, 1 at least one suite case
failed, 2 usage or domain error.  Reports are deterministic for a fixed
(argv, seed): timings are emitted as 0 unless --timing is given.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import mpmath as mp

from .criticality import critical_line_report
from .errors import ConvergenceError, DivergenceError, DomainError, PoleError
from .fracpart import frac_general
from .mellin import genfun, mellin_closed, poly_factor
from .mpcore import DEFAULT_PRECISION, MIN_PRECISION, GaussianRational, as_rational
from .suites import (
    SUITE_NAMES,
    OutputFormat,
    RunConfig,
    VerifySuiteResult,
    _digits,
    _fmt,
    run_suite,
)

PRECISION_ENV_VAR = "LEGMELLIN_PRECISION_BITS"


# ---------------------------------------------------------------------------
# argument parsing helpers

def _imag_split(body: str) -> int:
    # rightmost sign that is not an exponent sign
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            return idx
    return -1


def _parse_exact(text: str):
    """Rational like 3/2 or 0.75 as a Fraction, or complex like 2+3i with
    rational parts as a GaussianRational."""
    cleaned = text.strip().replace(" ", "")
    if not cleaned:
        raise DomainError("empty numeric argument")
    if cleaned[-1] not in "ij":
        return as_rational(cleaned)
    body = cleaned[:-1]
    cut = _imag_split(body)
    if cut < 0:
        re_part, im_part = "0", body or "1"
    else:
        re_part, im_part = body[:cut], body[cut:]
    if im_part in ("+", "-"):
        im_part += "1"
    return GaussianRational(re_part, im_part)


def _parse_scalar(text: str, precision_bits: int):
    """_parse_exact, with a complex value rounded to precision_bits."""
    value = _parse_exact(text)
    if isinstance(value, GaussianRational):
        return value.to_hpcomplex(precision_bits)
    return value


def _resolve_precision(value: Optional[int]) -> int:
    if value is None:
        env = os.environ.get(PRECISION_ENV_VAR)
        if env is not None:
            try:
                value = int(env)
            except ValueError:
                raise DomainError(
                    f"{PRECISION_ENV_VAR} must be an integer, got {env!r}") from None
    if value is None:
        value = DEFAULT_PRECISION
    if value < MIN_PRECISION:
        raise DomainError(f"precision must be >= {MIN_PRECISION} bits, got {value}")
    return value


def _sci(x) -> str:
    if not isinstance(x, mp.mpf):
        x = mp.mpf(x)
    return mp.nstr(x, 8)


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write report to {out_path}: {exc}") from exc


def _dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# subcommand handlers

def _cmd_poly(args: argparse.Namespace) -> int:
    closed = poly_factor(args.n, args.m)
    payload = {
        "n": args.n,
        "m": args.m,
        "coeffs": [str(c) for c in closed.poly.coefficients],
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_zeros(args: argparse.Namespace) -> int:
    prec = _resolve_precision(args.precision)
    report = critical_line_report(args.n, args.m, prec)
    digits = _digits(prec)
    payload = {
        "n": report.n,
        "m": report.m,
        "precision_bits": report.precision_bits,
        "roots": [_fmt(r, digits) for r in report.roots],
        "newton_residuals": [_sci(r) for r in report.residuals],
        "max_deviation": _sci(report.max_deviation),
        "shift_deviation": _sci(report.shift_deviation),
        "certificate_tolerance": _sci(report.certificate_tolerance),
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_mellin(args: argparse.Namespace) -> int:
    prec = _resolve_precision(args.precision)
    s = _parse_scalar(args.s, prec)
    value = mellin_closed(args.n, args.m, s, prec)
    payload = {
        "n": args.n,
        "m": args.m,
        "s": args.s,
        "precision_bits": prec,
        "value": _fmt(value, _digits(prec)),
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_genfun(args: argparse.Namespace) -> int:
    prec = _resolve_precision(args.precision)
    # t stays exact, so that genfun decides its domain exactly
    t = _parse_exact(args.t)
    s = _parse_scalar(args.s, prec)
    comparison = genfun(t, s, args.terms, prec)
    digits = _digits(prec)
    diff = (comparison.partial_sum - comparison.closed_form).abs_value()
    payload = {
        "t": args.t,
        "s": args.s,
        "terms": args.terms,
        "precision_bits": prec,
        "partial_sum": _fmt(comparison.partial_sum, digits),
        "closed_form": _fmt(comparison.closed_form, digits),
        "difference": _sci(diff),
        "tail_bound": _sci(comparison.tail_bound),
        "even_difference": _sci(
            (comparison.partial_even - comparison.closed_even).abs_value()),
        "odd_difference": _sci(
            (comparison.partial_odd - comparison.closed_odd).abs_value()),
    }
    _emit(_dumps(payload), args.out)
    return 0


def _cmd_fracpart(args: argparse.Namespace) -> int:
    prec = _resolve_precision(args.precision)
    s = _parse_scalar(args.s, prec)
    b = as_rational(args.b)
    alpha = as_rational(args.alpha)
    value = frac_general(s, b, alpha, prec)
    payload = {
        "s": args.s,
        "b": args.b,
        "alpha": args.alpha,
        "precision_bits": prec,
        "value": _fmt(value, _digits(prec)),
    }
    _emit(_dumps(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify

def _report_json(result: VerifySuiteResult, config: RunConfig, timing: bool) -> str:
    payload = {
        "suite": result.suite,
        "config": {
            "precision_bits": config.precision_bits,
            "tolerance_exponent": config.tolerance_exponent,
            "seed": config.seed,
        },
        "cases": [
            {
                "id": case.case_id,
                "inputs": dict(case.inputs),
                "expected": case.expected,
                "got": case.got,
                "abs_err": _sci(case.abs_err),
                "tol": _sci(case.tolerance),
                "pass": case.passed,
            }
            for case in result.details
        ],
        "summary": {
            "run": result.cases_run,
            "passed": result.cases_passed,
            "worst_residual": _sci(result.worst_residual),
            "elapsed_ms": result.elapsed_ms if timing else 0,
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def _flat_inputs(inputs: Dict[str, str]) -> str:
    return ";".join(f"{k}={v}" for k, v in inputs.items())


def _report_csv(result: VerifySuiteResult, config: RunConfig, timing: bool) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["suite", "id", "inputs", "expected", "got",
                     "abs_err", "tol", "pass"])
    for case in result.details:
        writer.writerow([
            result.suite, case.case_id, _flat_inputs(case.inputs),
            case.expected, case.got, _sci(case.abs_err),
            _sci(case.tolerance), str(case.passed).lower(),
        ])
    writer.writerow(["#summary", f"run={result.cases_run}",
                     f"passed={result.cases_passed}",
                     f"worst_residual={_sci(result.worst_residual)}",
                     f"elapsed_ms={result.elapsed_ms if timing else 0}",
                     "", "", ""])
    return buffer.getvalue()


def _report_text(result: VerifySuiteResult, config: RunConfig, timing: bool) -> str:
    lines: List[str] = []
    for case in result.details:
        status = "PASS" if case.passed else "FAIL"
        lines.append(f"{status} {case.case_id} err={_sci(case.abs_err)}"
                     f" tol={_sci(case.tolerance)}")
    lines.append(
        f"suite={result.suite} run={result.cases_run}"
        f" passed={result.cases_passed}"
        f" worst_residual={_sci(result.worst_residual)}"
        f" elapsed_ms={result.elapsed_ms if timing else 0}")
    return "\n".join(lines) + "\n"


_REPORTERS = {
    OutputFormat.JSON: _report_json,
    OutputFormat.CSV: _report_csv,
    OutputFormat.TEXT: _report_text,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    prec = _resolve_precision(args.precision)
    config = RunConfig(
        precision_bits=prec,
        tolerance_exponent=args.tolerance_exponent,
        max_n=args.max_n,
        output_format=OutputFormat(args.format),
        seed=args.seed,
    )
    result = run_suite(args.suite, config)
    text = _REPORTERS[config.output_format](result, config, args.timing)
    _emit(text, args.out)
    return 0 if result.all_passed else 1


# ---------------------------------------------------------------------------
# table

def _factor_rows(args: argparse.Namespace, low: int) -> range:
    """n from max(start, m + low) to stop: the rows where p_n^m exists
    (low = 0) or has roots (low = 2, its degree being (n - m) // 2).  A
    negative m is refused as poly_factor refuses it."""
    poly_factor(args.m, args.m)
    return range(max(args.start, args.m + low), args.stop + 1)


def _table_polys(args: argparse.Namespace, prec: int) -> List[Dict[str, object]]:
    return [
        {"n": n, "m": args.m,
         "coeffs": [str(c) for c in poly_factor(n, args.m).poly.coefficients]}
        for n in _factor_rows(args, 0)
    ]


def _table_zeros(args: argparse.Namespace, prec: int) -> List[Dict[str, object]]:
    digits = _digits(prec)
    rows: List[Dict[str, object]] = []
    half = Fraction(1, 2)
    for n in _factor_rows(args, 2):
        report = critical_line_report(n, args.m, prec)
        for root, residual in zip(report.roots, report.residuals):
            with mp.workprec(prec):
                deviation = abs(root.real - mp.mpf(half.numerator) / half.denominator)
            rows.append({
                "n": n, "m": args.m,
                "root": _fmt(root, digits),
                "newton_residual": _sci(residual),
                "deviation": _sci(deviation),
            })
    return rows


def _table_transforms(args: argparse.Namespace, prec: int) -> List[Dict[str, object]]:
    digits = _digits(prec)
    s = _parse_scalar(args.s, prec)
    return [
        {"n": n, "m": args.m, "s": args.s,
         "value": _fmt(mellin_closed(n, args.m, s, prec), digits)}
        for n in range(args.start, args.stop + 1)
    ]


_TABLES = {
    "polys": _table_polys,
    "zeros": _table_zeros,
    "transforms": _table_transforms,
}


def _rows_csv(rows: List[Dict[str, object]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    if rows:
        header = list(rows[0].keys())
        writer.writerow(header)
        for row in rows:
            writer.writerow([";".join(v) if isinstance(v, list) else v
                             for v in (row[k] for k in header)])
    return buffer.getvalue()


def _cmd_table(args: argparse.Namespace) -> int:
    if args.start < 0 or args.stop < args.start:
        raise DomainError("need 0 <= start <= stop")
    prec = _resolve_precision(args.precision)
    rows = _TABLES[args.what](args, prec)
    if args.format == "json":
        text = json.dumps(rows, separators=(",", ":")) + "\n"
    else:
        text = _rows_csv(rows)
    _emit(text, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common(parser: argparse.ArgumentParser, *, out: bool = True) -> None:
    parser.add_argument("--precision", type=int, default=None,
                        help=f"working precision in bits (default: "
                             f"${PRECISION_ENV_VAR} or {DEFAULT_PRECISION})")
    if out:
        parser.add_argument("--out", default=None, metavar="PATH",
                            help="write the report to PATH instead of stdout")


# built on the first run_command and reused: parse_args keeps no state
# between calls, and the precision default is read per call
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legmellin",
        description="Legendre-Mellin transform toolkit: polynomial factors, "
                    "critical-line zero reports, verification suites.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_poly = sub.add_parser("poly", help="exact polynomial factor coefficients")
    p_poly.add_argument("--n", type=int, required=True)
    p_poly.add_argument("--m", type=int, default=0)
    _add_common(p_poly)
    p_poly.set_defaults(handler=_cmd_poly)

    p_zeros = sub.add_parser("zeros", help="roots of the polynomial factor "
                                           "with critical-line deviations")
    p_zeros.add_argument("--n", type=int, required=True)
    p_zeros.add_argument("--m", type=int, default=0)
    _add_common(p_zeros)
    p_zeros.set_defaults(handler=_cmd_zeros)

    p_mellin = sub.add_parser("mellin", help="closed-form transform value")
    p_mellin.add_argument("--n", type=int, required=True)
    p_mellin.add_argument("--m", type=int, default=0)
    p_mellin.add_argument("--s", required=True,
                          help="evaluation point, rational (3/2) or complex (2+3i)")
    _add_common(p_mellin)
    p_mellin.set_defaults(handler=_cmd_mellin)

    p_genfun = sub.add_parser("genfun", help="generating-series partial sum "
                                             "against the closed form")
    p_genfun.add_argument("--t", required=True, help="|t| < 1 and |4t^2/(1+t^2)^2| < 1 "
                          "(every real |t| < 1), e.g. 1/10")
    p_genfun.add_argument("--s", required=True)
    p_genfun.add_argument("--terms", type=int, default=60, metavar="N")
    _add_common(p_genfun)
    p_genfun.set_defaults(handler=_cmd_genfun)

    p_frac = sub.add_parser("fracpart", help="weighted fractional-part "
                                             "transform value")
    p_frac.add_argument("--s", required=True, help="Re s > 1")
    p_frac.add_argument("--b", default="1")
    p_frac.add_argument("--alpha", default="0",
                        help="weight exponent, alpha=0 is the plain transform")
    _add_common(p_frac)
    p_frac.set_defaults(handler=_cmd_fracpart)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("--suite", required=True,
                          choices=list(SUITE_NAMES) + ["all"])
    p_verify.add_argument("--max-n", type=int, default=40, dest="max_n")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--tolerance-exponent", type=int, default=20,
                          dest="tolerance_exponent")
    p_verify.add_argument("--format", choices=["text", "json", "csv"],
                          default="text")
    p_verify.add_argument("--timing", action="store_true",
                          help="report real elapsed_ms (breaks byte-for-byte "
                               "reproducibility)")
    _add_common(p_verify)
    p_verify.set_defaults(handler=_cmd_verify)

    p_table = sub.add_parser("table", help="emit a machine-readable table")
    p_table.add_argument("--what", required=True,
                         choices=sorted(_TABLES))
    p_table.add_argument("--start", type=int, default=0)
    p_table.add_argument("--stop", type=int, required=True)
    p_table.add_argument("--m", type=int, default=0)
    p_table.add_argument("--s", default="1",
                         help="evaluation point for transforms tables")
    p_table.add_argument("--format", choices=["csv", "json"], default="csv")
    _add_common(p_table)
    p_table.set_defaults(handler=_cmd_table)

    return parser


def run_command(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has already printed the usage text
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except DomainError as exc:
        print(f"legmellin: domain error: {exc}", file=sys.stderr)
        return 2
    except (PoleError, DivergenceError, ConvergenceError) as exc:
        print(f"legmellin: computation failed: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"legmellin: io error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
