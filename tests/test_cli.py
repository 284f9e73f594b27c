"""Command line surface: byte-level output contracts, exit codes, report
schemas, and precision resolution."""

import argparse
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import legmellin
from legmellin import cli, criticality, mellin, suites
from legmellin.cli import PRECISION_ENV_VAR, run_command
from legmellin.mpcore import DEFAULT_PRECISION
from legmellin.mellin import (mellin_recursion_reference, order_one_exact,
                             order_one_reference, poly_factor)


def _run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# scalar subcommands

def test_poly_is_byte_exact(capsys):
    code, out, err = _run(capsys, ["poly", "--n", "4"])
    assert code == 0
    assert out == '{"n":4,"m":0,"coeffs":["9/2","-4","4"]}\n'
    assert err == ""


def test_package_runs_as_a_module():
    src = str(Path(legmellin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "legmellin", "poly", "--n", "4"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout == '{"n":4,"m":0,"coeffs":["9/2","-4","4"]}\n'
    assert done.stderr == ""


def test_poly_with_order(capsys):
    code, out, _ = _run(capsys, ["poly", "--n", "4", "--m", "2"])
    assert code == 0
    assert json.loads(out)["coeffs"] == ["-45", "90"]


def test_mellin_value(capsys):
    code, out, _ = _run(capsys, ["mellin", "--n", "2", "--s", "1",
                                 "--precision", "128"])
    assert code == 0
    payload = json.loads(out)
    with mp.workprec(192):
        assert abs(mp.mpf(payload["value"]) - mp.pi / 8) < mp.mpf(10) ** -30


def test_mellin_complex_argument(capsys):
    code, out, _ = _run(capsys, ["mellin", "--n", "3", "--s", "2+3i",
                                 "--precision", "128"])
    assert code == 0
    payload = json.loads(out)
    assert payload["s"] == "2+3i"
    assert "i" in payload["value"]


def test_mellin_high_degree_odd_order(capsys):
    # more degrees than the default recursion limit has frames
    code, out, err = _run(capsys, ["mellin", "--n", "1001", "--m", "1",
                                   "--s", "5/2", "--precision", "128"])
    assert code == 0, err
    exact = order_one_exact(1001, Fraction(5, 2))
    with mp.workprec(256):
        got = mp.mpmathify(json.loads(out)["value"])
        want = mp.mpf(exact.numerator) / exact.denominator
        assert abs(got - want) / abs(want) < mp.mpf(2) ** -108


def test_mellin_high_degree_odd_order_complex_argument(capsys):
    # n^2/4 walk steps at 1.5 n extra bits: a wall-clock cliff when each
    # step was a multiprecision complex operation
    code, out, err = _run(capsys, ["mellin", "--n", "2001", "--m", "1", "--s", "2+3i"])
    assert code == 0, err
    payload = json.loads(out)
    prec = payload["precision_bits"]
    with mp.workprec(prec + 64):
        got = _complex_value(payload["value"])
        want = order_one_reference(2001, mp.mpc(2, 3), prec + 64).to_mpc()
        assert abs(got - want) / abs(want) < mp.mpf(2) ** -(prec - 20)


def _complex_value(text):
    """The mpc a printed value a+bi reads as, at the ambient precision."""
    body = text.removesuffix("i")
    cut = max(i for i, c in enumerate(body)
              if c in "+-" and i > 0 and body[i - 1] not in "eE")
    return mp.mpc(body[:cut], body[cut:])


def _closed_form_gap(capsys, n, m, s, prec):
    """Relative distance of `mellin` at (n, m, s, prec) from the value
    recursion, run 64 + 3n/2 bits wider, as its docstring asks."""
    code, out, err = _run(capsys, ["mellin", "--n", str(n), "--m", str(m), f"--s={s}",
                                   "--precision", str(prec)])
    assert (code, err) == (0, "")
    wide = prec + 64 + (3 * n) // 2
    with mp.workprec(wide):
        got = _complex_value(json.loads(out)["value"])
        want = mellin_recursion_reference(n, m, cli._parse_exact(s), wide).to_mpc()
        return abs(got - want) / abs(want)


def test_mellin_is_right_to_the_bits_it_prints_at_large_imaginary_part(capsys):
    # Horner in floating point lost 137 bits here and printed
    # 0.6044748717822...+0.1398538704665...i for 0.001351240501892...+0.000234383051733...i
    gap = _closed_form_gap(capsys, 800, 0, "3+500i", 128)
    assert gap <= mp.mpf(2) ** -(128 - 2), gap


def test_mellin_large_imaginary_part_panel(capsys):
    # where the monomial sum cancels by up to about 160 bits
    for n in (200, 400, 800):
        for m in (0, 10):
            for s in ("3+500i", "1/2+50i"):
                for prec in (64, 128, 256):
                    gap = _closed_form_gap(capsys, n, m, s, prec)
                    assert gap <= mp.mpf(2) ** -(prec - 2), (n, m, s, prec, gap)


def test_zeros_payload(capsys):
    code, out, _ = _run(capsys, ["zeros", "--n", "4", "--precision", "128"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"n", "m", "precision_bits", "roots",
                            "newton_residuals", "max_deviation",
                            "shift_deviation", "certificate_tolerance"}
    assert len(payload["roots"]) == 2
    assert all(r.startswith("0.5") for r in payload["roots"])
    assert float(payload["max_deviation"]) < 1e-25


def test_genfun_payload(capsys):
    code, out, _ = _run(capsys, ["genfun", "--t", "1/10", "--s", "2",
                                 "--terms", "60", "--precision", "128"])
    assert code == 0
    payload = json.loads(out)
    assert float(payload["difference"]) <= float(payload["tail_bound"])
    assert float(payload["even_difference"]) < 1e-25
    assert float(payload["odd_difference"]) < 1e-25


def test_fracpart_payload(capsys):
    code, out, _ = _run(capsys, ["fracpart", "--s", "2", "--precision", "128"])
    assert code == 0
    payload = json.loads(out)
    with mp.workprec(192):
        want = 1 - mp.zeta(2) / 2
        assert abs(mp.mpf(payload["value"]) - want) < mp.mpf(10) ** -30


# ---------------------------------------------------------------------------
# exit codes

def test_usage_error_exits_two(capsys):
    assert run_command(["poly"]) == 2
    capsys.readouterr()


def test_domain_error_exits_two(capsys):
    code, _, err = _run(capsys, ["mellin", "--n", "2", "--s", "-3"])
    assert code == 2
    assert "domain error" in err


@pytest.mark.parametrize("b", ["0", "-1"])
def test_fracpart_refuses_nonpositive_b_at_alpha_zero(capsys, b):
    code, out, err = _run(capsys, ["fracpart", "--s", "2", "--b", b])
    assert code == 2
    assert out == ""
    assert "b must be a positive real" in err


def _fractions(numerators, denominators):
    return st.builds(Fraction, numerators, denominators)


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=40, deadline=2000)
@given(n=st.integers(-2, 60), m=st.integers(-1, 12),
       re_s=_fractions(st.integers(-4, 12), st.integers(1, 4)),
       im_s=_fractions(st.integers(-6, 6), st.integers(1, 2)),
       prec=st.integers(64, 256))
def test_mellin_ends_in_a_value_or_exit_two(n, m, re_s, im_s, prec):
    s = f"{re_s}{'+' if im_s >= 0 else ''}{im_s}i" if im_s else str(re_s)
    code, out, err = _run_quietly(["mellin", "--n", str(n), "--m", str(m),
                                   f"--s={s}", "--precision", str(prec)])
    if n >= 0 and m >= 0 and re_s > 0:
        assert code == 0, err
        assert json.loads(out)["value"]
    else:
        assert code == 2
        assert err.startswith("legmellin: domain error")


# positive b stays >= 1/4: a small b makes the zeta series long
@settings(max_examples=25, deadline=2000)
@given(re_s=_fractions(st.integers(-8, 16), st.integers(1, 4)),
       im_s=st.integers(-4, 4),
       b=_fractions(st.integers(-4, 12), st.sampled_from([1, 2, 4])),
       alpha=_fractions(st.integers(-4, 8), st.integers(1, 5)))
def test_fracpart_ends_in_a_value_or_exit_two(re_s, im_s, b, alpha):
    s = f"{re_s}{im_s:+d}i" if im_s else str(re_s)
    argv = ["fracpart", "--s", s, "--b", str(b), "--alpha", str(alpha),
            "--precision", "64"]
    code, _, _ = _run_quietly(argv)
    inside = re_s > 1 and b > 0 and 0 <= alpha < 1
    assert code == (0 if inside else 2)


def _assert_typed_refusal(code, err):
    assert code == 2, err
    assert err.startswith("legmellin: domain error"), err


@settings(max_examples=40, deadline=2000)
@given(n=st.integers(-2, 30), m=st.integers(-1, 12))
def test_poly_ends_in_a_value_or_exit_two(n, m):
    code, out, err = _run_quietly(["poly", f"--n={n}", f"--m={m}"])
    if 0 <= m <= n and m % 2 == 0:
        assert code == 0, err
        assert len(json.loads(out)["coeffs"]) == (n - m) // 2 + 1
    else:
        _assert_typed_refusal(code, err)


# n - m <= 17 keeps the degree (n - m) // 2 at most 8
@settings(max_examples=30, deadline=2000)
@given(m=st.integers(-1, 12), excess=st.integers(-3, 17), prec=st.integers(64, 192))
def test_zeros_ends_in_a_value_or_exit_two(m, excess, prec):
    n = m + excess
    code, out, err = _run_quietly(["zeros", f"--n={n}", f"--m={m}",
                                   "--precision", str(prec)])
    if n >= 0 and m >= 0 and m % 2 == 0 and excess >= 2:
        assert code == 0, err
        assert len(json.loads(out)["roots"]) == excess // 2
    else:
        _assert_typed_refusal(code, err)


def _complex_text(re, im):
    return f"{re}{'+' if im >= 0 else ''}{im}i" if im else str(re)


# t = (a + bi)/d with |a|, |b| <= 6: wherever |t| < 1 and the closed form's
# zz = 4t^2/(1+t^2)^2 has |zz| < 1, |zz| <= 0.952 (at t = 4/5).  The grid holds
# t = i/2 (zz = -16/9) and t = 1/5 + 2/5 i, where |zz| = 1 exactly.
@settings(max_examples=40, deadline=2000)
@given(d=st.sampled_from([1, 2, 5, 10]), a=st.integers(-6, 6), b=st.integers(-6, 6),
       re_s=_fractions(st.integers(-4, 12), st.integers(1, 4)),
       im_s=_fractions(st.integers(-6, 6), st.integers(1, 2)),
       terms=st.integers(-1, 30), prec=st.integers(64, 192))
def test_genfun_ends_in_a_value_or_exit_two(d, a, b, re_s, im_s, terms, prec):
    re_t, im_t = Fraction(a, d), Fraction(b, d)
    code, out, err = _run_quietly([
        "genfun", f"--t={_complex_text(re_t, im_t)}", f"--s={_complex_text(re_s, im_s)}",
        f"--terms={terms}", "--precision", str(prec)])
    # |zz| < 1 iff 16 |t^2|^2 < |1 + t^2|^4
    sq_re, sq_im = re_t ** 2 - im_t ** 2, 2 * re_t * im_t
    closed_form_converges = 16 * (sq_re ** 2 + sq_im ** 2) < ((1 + sq_re) ** 2 + sq_im ** 2) ** 2
    if re_t ** 2 + im_t ** 2 < 1 and closed_form_converges and re_s > 0 and terms >= 0:
        assert code == 0, err
        assert json.loads(out)["closed_form"]
    else:
        _assert_typed_refusal(code, err)


@settings(max_examples=40, deadline=2000)
@given(what=st.sampled_from(["polys", "zeros", "transforms"]),
       start=st.integers(-1, 20), stop=st.integers(-1, 20), m=st.integers(-1, 12),
       re_s=_fractions(st.integers(-4, 12), st.integers(1, 4)),
       im_s=_fractions(st.integers(-6, 6), st.integers(1, 2)),
       fmt=st.sampled_from(["csv", "json"]), prec=st.integers(64, 192))
def test_table_ends_in_a_value_or_exit_two(what, start, stop, m, re_s, im_s, fmt, prec):
    code, out, err = _run_quietly([
        "table", f"--what={what}", f"--start={start}", f"--stop={stop}", f"--m={m}",
        f"--s={_complex_text(re_s, im_s)}", f"--format={fmt}", "--precision", str(prec)])
    # polys and zeros need an even m and print the rows n >= m where p_n^m
    # exists, or n >= m + 2 where its degree (n - m) // 2 gives it roots;
    # transforms need Re s > 0 (rows with m > n are exact zeros)
    valid = 0 <= start <= stop and m >= 0 and (re_s > 0 if what == "transforms"
                                               else m % 2 == 0)
    if not valid:
        _assert_typed_refusal(code, err)
        return
    assert code == 0, err
    rows = json.loads(out) if fmt == "json" else list(csv.DictReader(io.StringIO(out)))
    if what == "zeros":
        assert len(rows) == sum((n - m) // 2 for n in range(max(start, m + 2), stop + 1))
    else:
        first = max(start, m) if what == "polys" else start
        assert [int(row["n"]) for row in rows] == list(range(first, stop + 1))


def test_verify_pass_exits_zero(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "hahn",
                                 "--precision", "128", "--max-n", "4"])
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_failure_exits_one(capsys, monkeypatch):
    # every shipped case passes, so plant one whose error exceeds its tolerance
    reps = suites._RUNNERS["reps"]

    def reps_with_a_failure(config):
        return reps(config) + [suites._num_case(
            "planted", {"n": "0"}, "0", "1", mp.mpf(1), mp.mpf(10) ** -20)]

    monkeypatch.setitem(suites._RUNNERS, "reps", reps_with_a_failure)
    code, out, _ = _run(capsys, ["verify", "--suite", "reps",
                                 "--precision", "96", "--max-n", "4"])
    assert code == 1
    assert "FAIL" in out
    assert "FAIL reps/planted " in out



def test_refused_zero_proof_fails_its_row(capsys, monkeypatch):
    # a sign proof forced to fail for one half-polynomial degree fails the
    # rows of exactly that degree, names them, and the suite still ends
    proves = criticality._sign_alternation_proves

    def refuse_degree_two(r, ys, k):
        return r.degree != 2 and proves(r, ys, k)

    monkeypatch.setattr(criticality, "_sign_alternation_proves", refuse_degree_two)
    code, out, err = _run(capsys, ["verify", "--suite", "zeros", "--max-n", "12",
                                   "--precision", "128", "--format", "json"])
    assert (code, err) == (1, "")
    cases = json.loads(out)["cases"]
    failed = {c["id"] for c in cases if not c["pass"]}
    rows = [(n, 0) for n in range(2, 13)] + [(n, m) for m in (2, 4)
                                              for n in range(m + 2, 13, m)]
    want = {f"zeros/n={n:03d},m={m:02d}" for n, m in rows
            if poly_factor(n, m).poly.degree // 2 == 2}
    assert failed == want and "zeros/n=008,m=00" in failed
    for case in cases:
        if case["id"] in failed:
            assert case["got"] == ("proof refused: the exact sign proof failed: "
                                   "a root off Re s = 1/2 or a multiple root")
            assert case["abs_err"] == "1.0"


GOLDEN = Path(__file__).parent / "golden"


def test_verify_fracpart_matches_its_golden_transcript(capsys, monkeypatch):
    # the default report, byte for byte: the oracles may change how they
    # compute, never what they print
    monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
    code, out, err = _run(capsys, ["verify", "--suite", "fracpart"])
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "verify_fracpart.txt").read_bytes().decode("utf-8")


def test_verify_zeros_matches_its_golden_transcript(capsys, monkeypatch):
    monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
    code, out, err = _run(capsys, ["verify", "--suite", "zeros"])
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / "verify_zeros.txt").read_bytes().decode("utf-8")


def _transcript(capsys, commands):
    """Each command line and its output, as the golden panels hold them."""
    parts = []
    for args in commands:
        code, out, err = _run(capsys, args)
        assert (code, err) == (0, "")
        parts.append("$ legmellin " + " ".join(args) + "\n" + out)
    return "".join(parts)


ZEROS_PANEL = (["--n", "24", "--precision", "512"], ["--n", "40", "--m", "4"],
               ["--n", "60"], ["--n", "120", "--precision", "256"],
               ["--n", "59", "--m", "10", "--precision", "192"])


def test_zeros_panel_matches_its_golden_transcript(capsys, monkeypatch):
    # each report's roots, residuals and deviations, byte for byte, up to
    # degree 60 and 512 bits
    monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
    out = _transcript(capsys, [["zeros", *args] for args in ZEROS_PANEL])
    assert out == (GOLDEN / "zeros_panel.txt").read_bytes().decode("utf-8")


HIGH_DEGREE_ZEROS = (["--n", "200"], ["--n", "400", "--precision", "256"],
                     ["--n", "401", "--m", "2", "--precision", "128"])


def test_high_degree_zeros_match_their_golden_transcript(capsys, monkeypatch):
    # half-polynomials R of degree 50 to 100, where the sign proof meets
    # R's worst cancellation, byte for byte
    monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
    out = _transcript(capsys, [["zeros", *args] for args in HIGH_DEGREE_ZEROS])
    assert out == (GOLDEN / "zeros_high_degree.txt").read_bytes().decode("utf-8")


MELLIN_PANEL = [["mellin", "--n", str(n), "--m", str(m), "--s", s, "--precision", "128"]
                for n in (0, 20, 57, 290) for m in (0, 6)
                for s in ("3/4", "5/2", "2+3i", "3/2-2i")]
MELLIN_PANEL.append(["table", "--what", "transforms", "--stop", "30", "--s", "2+3i"])


def test_mellin_panel_matches_its_golden_transcript(capsys, monkeypatch):
    # the closed form sqrt(pi) 2^t p_n^m(s) Gamma((s+eps)/2) / Gamma((s+n+1)/2),
    # byte for byte, up to degree 290 and at complex s
    monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
    out = _transcript(capsys, MELLIN_PANEL)
    assert out == (GOLDEN / "mellin_closed_form.txt").read_bytes().decode("utf-8")


GENFUN_PANEL = [["genfun", f"--t={t}", f"--s={s}", "--terms", str(terms), "--precision", "128"]
                for t in ("1/10", "-1/4", "1/3") for s in ("2", "3/2+1i", "5/2")
                for terms in (25, 75, 114)]


def test_genfun_panel_matches_its_golden_transcript(capsys, monkeypatch):
    # partial sums, closed forms and their differences, byte for byte
    monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
    out = _transcript(capsys, GENFUN_PANEL)
    assert out == (GOLDEN / "genfun.txt").read_bytes().decode("utf-8")


@pytest.mark.parametrize("suite, max_n", [("recursion", "12"), ("reps", "6"),
                                          ("hahn", None), ("funceq", "12"),
                                          ("appendix", None)])
def test_verify_suite_matches_its_golden_transcript(capsys, monkeypatch, suite, max_n):
    # the degree walk, the order-one check, the catalog's order guard, the
    # exact Hahn bridge, the reflection rows and the appendix identities
    # (A1 through the terms hyp_pfq raises with), byte for byte
    monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
    argv = ["verify", "--suite", suite] + (["--max-n", max_n] if max_n else [])
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / f"verify_{suite}.txt").read_bytes().decode("utf-8")


ODD_ORDER_PANEL = [["mellin", "--n", str(n), "--m", str(m), "--s", s, "--precision", "128"]
                   for m in (1, 3, 5) for n in (1, 20, 57, 150)
                   for s in ("3/4", "7/3", "2+3i", "3/2-2i")]


def test_odd_order_mellin_panel_matches_its_golden_transcript(capsys, monkeypatch):
    # odd m: the exact rational walk at rational s, the seeded float walk
    # at complex s, byte for byte up to degree 150
    monkeypatch.delenv(PRECISION_ENV_VAR, raising=False)
    out = _transcript(capsys, ODD_ORDER_PANEL)
    assert out == (GOLDEN / "mellin_odd_order.txt").read_bytes().decode("utf-8")


def test_a_perturbed_walk_value_fails_the_order_one_row(capsys, monkeypatch):
    # one exact M_n^1 off by 2^-40 at one point of the check
    walk = mellin.mellin_odd_order_exact

    def perturbed(n, m, s):
        value = walk(n, m, s)
        return value + Fraction(1, 2 ** 40) if (n, s) == (2, Fraction(7, 2)) else value

    monkeypatch.setattr(mellin, "mellin_odd_order_exact", perturbed)
    assert not mellin.order_one_rationality_check(2)
    assert mellin.order_one_rationality_check(3)
    code, out, _ = _run(capsys, ["verify", "--suite", "recursion", "--max-n", "3",
                                 "--format", "json"])
    assert code == 1
    failed = {c["id"]: c["got"] for c in json.loads(out)["cases"] if not c["pass"]}
    assert failed == {"recursion/order-one/n=002": "exact forms differ"}


def test_unknown_suite_exits_two(capsys):
    code, _, err = _run(capsys, ["verify", "--suite", "bogus"])
    assert code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# report formats

def test_verify_json_schema_and_determinism(capsys):
    argv = ["verify", "--suite", "diffeq", "--precision", "96",
            "--max-n", "4", "--format", "json"]
    code, first, _ = _run(capsys, argv)
    assert code == 0
    payload = json.loads(first)
    assert set(payload) == {"suite", "config", "cases", "summary"}
    assert set(payload["config"]) == {"precision_bits", "tolerance_exponent",
                                      "seed"}
    assert set(payload["summary"]) == {"run", "passed", "worst_residual",
                                       "elapsed_ms"}
    assert payload["summary"]["elapsed_ms"] == 0
    for case in payload["cases"]:
        assert set(case) == {"id", "inputs", "expected", "got", "abs_err",
                             "tol", "pass"}
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_verify_csv_layout(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "hahn",
                                 "--precision", "96", "--max-n", "4",
                                 "--format", "csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["suite", "id", "inputs", "expected", "got",
                       "abs_err", "tol", "pass"]
    assert rows[-1][0] == "#summary"
    body = rows[1:-1]
    assert body and all(r[0] == "hahn" for r in body)


def test_timing_flag_fills_elapsed(capsys):
    code, out, _ = _run(capsys, ["verify", "--suite", "hahn",
                                 "--precision", "128", "--max-n", "6",
                                 "--format", "json", "--timing"])
    assert code == 0
    assert json.loads(out)["summary"]["elapsed_ms"] > 0


# ---------------------------------------------------------------------------
# precision resolution

def test_env_var_sets_precision(capsys, monkeypatch):
    monkeypatch.setenv(PRECISION_ENV_VAR, "96")
    _, out, _ = _run(capsys, ["mellin", "--n", "2", "--s", "1"])
    assert json.loads(out)["precision_bits"] == 96


def test_flag_beats_env_var(capsys, monkeypatch):
    monkeypatch.setenv(PRECISION_ENV_VAR, "96")
    _, out, _ = _run(capsys, ["mellin", "--n", "2", "--s", "1",
                              "--precision", "160"])
    assert json.loads(out)["precision_bits"] == 160


def test_bad_env_var_exits_two(capsys, monkeypatch):
    monkeypatch.setenv(PRECISION_ENV_VAR, "potato")
    code, _, err = _run(capsys, ["mellin", "--n", "2", "--s", "1"])
    assert code == 2
    assert "domain error" in err


# ---------------------------------------------------------------------------
# tables and file output

def test_table_polys_json(capsys):
    code, out, _ = _run(capsys, ["table", "--what", "polys", "--stop", "4",
                                 "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert rows[2] == {"n": 2, "m": 0, "coeffs": ["-1", "2"]}
    assert rows[4]["coeffs"] == ["9/2", "-4", "4"]


def test_table_zeros_deviations(capsys):
    code, out, _ = _run(capsys, ["table", "--what", "zeros", "--start", "2",
                                 "--stop", "8", "--format", "json",
                                 "--precision", "128"])
    assert code == 0
    for row in json.loads(out):
        assert float(row["deviation"]) < 1e-25
        assert float(row["newton_residual"]) < 1e-25


def test_table_transforms_csv(capsys):
    code, out, _ = _run(capsys, ["table", "--what", "transforms", "--start",
                                 "0", "--stop", "2", "--s", "1",
                                 "--precision", "96"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["n", "m", "s", "value"]
    with mp.workprec(160):
        assert abs(mp.mpf(rows[1][3]) - mp.pi / 2) < mp.mpf(10) ** -20
        assert abs(mp.mpf(rows[2][3]) - 1) < mp.mpf(10) ** -20
        assert abs(mp.mpf(rows[3][3]) - mp.pi / 8) < mp.mpf(10) ** -20


def test_table_zeros_starts_at_the_first_factor_with_roots(capsys):
    # n = 0, 1 have constant factors and so no rows; the default start
    # reaches them
    code, out, err = _run(capsys, ["table", "--what", "zeros", "--stop", "4"])
    assert (code, err) == (0, "")
    _, later, _ = _run(capsys, ["table", "--what", "zeros", "--start", "2", "--stop", "4"])
    assert out == later
    assert [row["n"] for row in csv.DictReader(io.StringIO(out))] == ["2", "3", "4", "4"]


def test_table_polys_starts_at_the_order(capsys):
    code, out, err = _run(capsys, ["table", "--what", "polys", "--m", "2", "--stop", "6",
                                   "--format", "json"])
    assert (code, err) == (0, "")
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [2, 3, 4, 5, 6]
    assert rows[0] == {"n": 2, "m": 2, "coeffs": ["3"]}


def test_table_range_validation(capsys):
    code, _, err = _run(capsys, ["table", "--what", "polys", "--start", "5",
                                 "--stop", "2"])
    assert code == 2
    assert "start" in err


def test_out_file_matches_stdout(capsys, tmp_path):
    _, streamed, _ = _run(capsys, ["poly", "--n", "6"])
    target = tmp_path / "poly.json"
    code, out, _ = _run(capsys, ["poly", "--n", "6", "--out", str(target)])
    assert code == 0
    assert out == ""
    assert target.read_text() == streamed


def test_out_io_error_names_path(capsys, tmp_path):
    target = tmp_path / "missing" / "poly.json"
    code, _, err = _run(capsys, ["poly", "--n", "6", "--out", str(target)])
    assert code == 2
    assert str(target) in err


# ---------------------------------------------------------------------------
# the parser is built once per process and reused

@pytest.fixture
def fresh_parser():
    cli._build_parser.cache_clear()
    yield
    cli._build_parser.cache_clear()


def test_parser_is_built_once_over_many_calls(capsys, monkeypatch, fresh_parser):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    for _ in range(3):
        code, _, _ = _run(capsys, ["poly", "--n", "4"])
        assert code == 0
    # the subcommand parsers are built with it, as ArgumentParsers too
    assert progs.count("legmellin") == 1


def test_usage_error_leaves_no_trace_on_the_next_call(capsys, fresh_parser):
    argv = ["zeros", "--n", "12", "--precision", "128"]
    alone = _run(capsys, argv)
    cli._build_parser.cache_clear()
    code, _, err = _run(capsys, ["zeros", "--n", "twelve", "--precision", "96"])
    assert code == 2 and "invalid int value" in err
    assert _run(capsys, argv) == alone
    assert alone[0] == 0 and alone[2] == ""


def test_precision_is_resolved_per_call(capsys, monkeypatch, fresh_parser):
    def precision(argv):
        code, out, _ = _run(capsys, ["mellin", "--n", "2", "--s", "1", *argv])
        assert code == 0
        return json.loads(out)["precision_bits"]

    monkeypatch.setenv(PRECISION_ENV_VAR, "96")
    assert precision([]) == 96
    monkeypatch.setenv(PRECISION_ENV_VAR, "160")
    assert precision([]) == 160
    # a flag given on one call does not become the next call's default
    assert precision(["--precision", "192"]) == 192
    assert precision([]) == 160
    monkeypatch.delenv(PRECISION_ENV_VAR)
    assert precision([]) == DEFAULT_PRECISION


def test_importing_the_cli_builds_no_parser():
    src = str(Path(legmellin.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = ("import argparse\n"
             "built = []\n"
             "init = argparse.ArgumentParser.__init__\n"
             "def counting(self, *a, **k):\n"
             "    built.append(k.get('prog'))\n"
             "    init(self, *a, **k)\n"
             "argparse.ArgumentParser.__init__ = counting\n"
             "import legmellin.cli\n"
             "print(len(built), legmellin.cli._build_parser.cache_info().currsize)\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "0 0\n"
