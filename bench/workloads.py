"""Seeded verification workloads.

Each workload turns a seed into a fixed list of cases.  A case is one
check that a test suite or acceptance criterion performs, timed as a
whole: the call into the program plus the comparison against a known
answer.  Case lists are stratified so that every seed asks for about the
same amount of work: the seed picks concrete inputs inside fixed strata
(degree, band of n, cost class), never how many heavy inputs there are.

Building a case list touches no program code; the package is imported
when the first case runs.

Known defects are listed by rule, not hidden: a case that matches
``Case.known_defect`` may fail without making the run incorrect, and it
still counts as failed.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

import mpmath as mp

Verdict = Tuple[bool, str]

WORKLOADS = ("zeros", "catalog", "oracles", "eval")


@dataclass(frozen=True)
class Case:
    case_id: str
    run: Callable[[], Verdict]
    known_defect: str = ""      # why this case may fail, empty if it may not


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def spread(rng: random.Random, lo: int, hi: int, k: int) -> List[int]:
    """k integers from [lo, hi], one from each of k near-equal contiguous
    slices, in random order: the draw varies, the total cost barely does."""
    size = hi - lo + 1
    edges = [lo + (size * i) // k for i in range(k + 1)]
    picks = [rng.randint(edges[i], edges[i + 1] - 1) for i in range(k)]
    rng.shuffle(picks)
    return picks


def cli(argv: Sequence[str]) -> Tuple[int, str]:
    """Run one `legmellin` command in this process; (exit code, stdout)."""
    from legmellin import cli as lm_cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lm_cli.run_command(list(argv))
    return code, out.getvalue() or err.getvalue()


def _complex_text(text: str) -> mp.mpc:
    """Parse the CLI's `re+imi` / `re-imi` / plain real rendering."""
    if not text.endswith("i"):
        return mp.mpc(mp.mpf(text))
    body = text[:-1]
    for idx in range(len(body) - 1, 0, -1):
        if body[idx] in "+-" and body[idx - 1] not in "eE":
            return mp.mpc(mp.mpf(body[:idx]), mp.mpf(body[idx:]))
    return mp.mpc(0, mp.mpf(body))


def _gaussian_parts(label: str) -> Tuple[Fraction, Fraction]:
    """Exact parts of an s label such as `3/2-2i` or `2`."""
    if not label.endswith("i"):
        return Fraction(label), Fraction(0)
    body = label[:-1]
    cut = max(body.rfind("+"), body.rfind("-"))
    if cut <= 0:
        return Fraction(0), Fraction(body or "1")
    return Fraction(body[:cut]), Fraction(body[cut:])


def _s_value(label: str, precision_bits: int):
    """An s label as the library argument the CLI would build from it."""
    from legmellin import GaussianRational

    re, im = _gaussian_parts(label)
    if not label.endswith("i"):
        return re
    return GaussianRational(re, im).to_hpcomplex(precision_bits)


# ---------------------------------------------------------------------------
# zeros: `legmellin zeros` over acceptance criterion 2's pairs

def criterion2_pairs() -> List[Tuple[int, int]]:
    pairs = [(n, 0) for n in range(2, 61)]
    pairs += [(n, m) for m in range(2, 41, 2) for n in range(m + 2, 41)]
    return pairs


# A zero report's cost follows the degree (n - m) // 2 and, at one degree,
# grows with n.  The ladder takes pairs with m in {0, 2}: one per degree
# 1..11 and six of degree 12, so the tail percentile falls inside one
# group of equal cost.  The block takes eight pairs of each low degree
# 1..6, which dominate the pair list, one from each eighth of that
# degree's m range.  Every eighth position runs at 512 bits.
ZEROS_LADDER = tuple(range(1, 12)) + (12,) * 6
ZEROS_BLOCK = tuple(range(1, 7))
ZEROS_BLOCK_REPEATS = 8
ZEROS_SIZE = len(ZEROS_LADDER) + len(ZEROS_BLOCK) * ZEROS_BLOCK_REPEATS
ZEROS_WIDE = frozenset(range(3, ZEROS_SIZE, 8))


def _zeros_case(index: int, n: int, m: int, bits: int) -> Case:
    def run() -> Verdict:
        code, out = cli(["zeros", "--n", str(n), "--m", str(m),
                         "--precision", str(bits)])
        if code != 0:
            return False, f"exit {code}: {out.strip()[:200]}"
        report = json.loads(out)
        cert = mp.mpf(report["certificate_tolerance"])
        bound = mp.mpf(10) ** (-60 if bits >= 512 else -25)
        want = (n - m) // 2
        if len(report["roots"]) != want:
            return False, f"{len(report['roots'])} roots, want {want}"
        if not mp.mpf(report["max_deviation"]) <= bound:
            return False, f"max_deviation {report['max_deviation']}"
        worst = max([mp.mpf(r) for r in report["newton_residuals"]]
                    + [mp.mpf(report["shift_deviation"])])
        if not worst <= cert:
            return False, f"residual {mp.nstr(worst, 5)} above {report['certificate_tolerance']}"
        return True, f"max_deviation {report['max_deviation']}"

    return Case(f"zeros/{index:02d}/n={n},m={m},bits={bits}", run)


def zeros_cases(seed: int) -> List[Case]:
    rng = _rng("zeros", seed)
    by_degree = {}
    for n, m in criterion2_pairs():
        by_degree.setdefault((n - m) // 2, {}).setdefault(m, []).append(n)
    picks = []
    for degree in ZEROS_LADDER:
        m = rng.choice([m for m in (0, 2) if m in by_degree[degree]])
        picks.append((rng.choice(by_degree[degree][m]), m))
    for degree in ZEROS_BLOCK:
        orders = sorted(by_degree[degree])
        for index in spread(rng, 0, len(orders) - 1, ZEROS_BLOCK_REPEATS):
            m = orders[index]
            picks.append((rng.choice(by_degree[degree][m]), m))
    plan = [(n, m, 512 if pos in ZEROS_WIDE else 256)
            for pos, (n, m) in enumerate(picks)]
    rng.shuffle(plan)
    return [_zeros_case(i, n, m, bits) for i, (n, m, bits) in enumerate(plan)]


# ---------------------------------------------------------------------------
# catalog: acceptance criterion 4's representation grid

CATALOG_VARIANTS = ("L2a", "L2b", "L2c", "L2d", "L2e", "L3a", "L3b", "L3c",
                    "P1", "P3", "L8", "COS_QUAD", "TANH_QUAD")
CATALOG_POINTS = ("3/4", "3/2", "5/2", "2+3i")
CATALOG_BANDS = ((0, 10), (11, 20))
CATALOG_PRECISION = 160


def catalog_refuses(variant: str, n: int) -> bool:
    """The variants' parity rules for m = 0: which rows must refuse."""
    if variant in ("L2a", "L2d"):
        return n % 2 == 0
    if variant in ("L2b", "L2c", "L2e"):
        return n % 2 == 1
    return False


def _catalog_case(variant_name: str, n: int, label: str) -> Case:
    prec = CATALOG_PRECISION

    def run() -> Verdict:
        from legmellin import DomainError, mellin

        variant = mellin.RepVariant(variant_name)
        s = _s_value(label, prec)
        reference = mellin.mellin_closed(n, 0, s, prec)
        refuses = catalog_refuses(variant_name, n)
        try:
            got = mellin.mellin_rep(variant, n, 0, s, prec)
        except DomainError as exc:
            return refuses, f"refused: {exc}"
        if refuses:
            return False, "returned a value where the parity rule refuses"
        bound = mp.mpf(10) ** (-15 if mellin.variant_is_quadrature(variant) else -20)
        with mp.workprec(prec + 64):
            diff = abs(got.to_mpc() - reference.to_mpc())
        return diff <= bound, f"off by {mp.nstr(diff, 4)}"

    defect = ("L2e keeps its catalogued coefficients, wrong for even n >= 2"
              if variant_name == "L2e" and n % 2 == 0 and n >= 2 else "")
    return Case(f"catalog/{variant_name}/n={n},s={label}", run, defect)


def catalog_cases(seed: int) -> List[Case]:
    rng = _rng("catalog", seed)
    cases = []
    for variant in CATALOG_VARIANTS:
        for lo, hi in CATALOG_BANDS:
            for n, label in zip(spread(rng, lo, hi, len(CATALOG_POINTS)),
                                CATALOG_POINTS):
                cases.append(_catalog_case(variant, n, label))
    return cases


# ---------------------------------------------------------------------------
# oracles: the fractional-part family against its independent oracles

def _oracle_tolerance(error_bound) -> mp.mpf:
    return max(mp.mpf(10) ** -12, 8 * mp.mpf(error_bound))


def _pair_case(s: int, bits: int) -> Case:
    def run() -> Verdict:
        from legmellin import fracpart

        report = fracpart.pair_integral_report(s, bits)
        tol = _oracle_tolerance(report.quadrature_error_bound)
        return (report.difference <= tol,
                f"closed vs quadrature {mp.nstr(report.difference, 4)}")

    return Case(f"oracles/pair/s={s},bits={bits}", run)


def _moment_case(alpha: int, beta: int, s: Fraction, bits: int) -> Case:
    def run() -> Verdict:
        from legmellin import fracpart

        spec = fracpart.FracIntegralSpec(alpha, beta, s)
        closed = fracpart.frac_int_moments(spec, bits)
        oracle = fracpart.numeric_fracpart_oracle(spec, precision_bits=bits)
        with mp.workprec(bits + 64):
            diff = abs(closed.to_mpc() - oracle.value.to_mpc())
        return (diff <= _oracle_tolerance(oracle.error_bound),
                f"closed vs k-sum oracle {mp.nstr(diff, 4)}")

    return Case(f"oracles/moment/alpha={alpha},beta={beta},s={s},bits={bits}", run)


def _sandwich_case(alpha: Fraction, beta: int, s: Fraction) -> Case:
    def run() -> Verdict:
        from legmellin import fracpart

        spec = fracpart.FracIntegralSpec(alpha, beta, s)
        oracle = fracpart.numeric_fracpart_oracle(spec, precision_bits=96)
        value = oracle.value.to_mpc().real
        ok = (oracle.lower is not None and oracle.upper is not None
              and oracle.lower <= value <= oracle.upper
              and oracle.error_bound <= mp.mpf(10) ** -12)
        return ok, f"value {mp.nstr(value, 8)} in [{oracle.lower}, {oracle.upper}]"

    return Case(f"oracles/sandwich/alpha={alpha},beta={beta},s={s}", run)


def _weight_case(s: Fraction, b: int, alpha: Fraction) -> Case:
    def run() -> Verdict:
        from legmellin import fracpart

        closed = fracpart.frac_general(s, b, alpha, 128)
        oracle = fracpart.frac_weight_quadrature(s, b, alpha, precision_bits=64)
        with mp.workprec(192):
            diff = abs(closed.to_mpc() - oracle.value.to_mpc())
        return (diff <= _oracle_tolerance(oracle.error_bound),
                f"series vs weighted quadrature {mp.nstr(diff, 4)}")

    return Case(f"oracles/weight/s={s},b={b},alpha={alpha}", run)


def _transform_case(j: int, kind: str, s: Fraction) -> Case:
    def run() -> Verdict:
        from legmellin import fracpart

        result = fracpart.fermi_bose_transform(
            j, fracpart.TransformKind(kind), s, 128)
        return (result.difference <= mp.mpf(10) ** -20,
                f"series vs closed {mp.nstr(result.difference, 4)}")

    return Case(f"oracles/transform/{kind}/j={j},s={s}", run)


def _pinned_case(name: str, bits: int) -> Case:
    def run() -> Verdict:
        from legmellin import fracpart

        with mp.workprec(bits + 64):
            if name == "2euler-1":
                got = fracpart.frac_pair_integral(1, bits).to_mpc()
                want = 2 * mp.euler - 1
            elif name == "euler":
                got = fracpart.alpha_one_limit(2, 1, bits).to_mpc()
                want = +mp.euler
            elif name == "(zeta2-1)/2":
                spec = fracpart.FracIntegralSpec(1, 1, Fraction(2))
                got = fracpart.frac_int_moments(spec, bits).to_mpc()
                want = (mp.zeta(2) - 1) / 2
            else:
                got = fracpart.fermi_bose_transform(
                    1, fracpart.TransformKind.BOSE, 2, bits).closed_value.to_mpc()
                want = 2 * mp.zeta(3)
            diff = abs(got - want)
        return diff <= mp.mpf(10) ** -25, f"off by {mp.nstr(diff, 4)}"

    return Case(f"oracles/pinned/{name},bits={bits}", run)


def oracles_cases(seed: int) -> List[Case]:
    rng = _rng("oracles", seed)
    # every input class is present in every draw and the seed moves inputs
    # only where that leaves the cost alone; s = 1 of the paired integral
    # is the pinned 2*euler - 1 below
    cases = [_pair_case(2, 64), _pair_case(3, 64)]
    for alpha in (1, 2):
        for beta in (1, 2, 3):
            s = beta + 1 + Fraction(rng.randint(2, 3), 4)
            cases.append(_moment_case(alpha, beta, s, 128))
    cases.append(_sandwich_case(rng.choice((Fraction(1, 3), Fraction(2, 3))),
                                1, Fraction(9, 2)))
    cases.append(_weight_case(Fraction(rng.choice((3, 4))), 3,
                              rng.choice((Fraction(1, 4), Fraction(1, 3)))))
    cases.append(_transform_case(2, "fermi", rng.choice(
        (Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3)))))
    cases.append(_transform_case(3, "fermi", rng.choice(
        (Fraction(13, 4), Fraction(7, 2), Fraction(4)))))
    cases.append(_transform_case(1, "bose", Fraction(rng.choice((2, 3)))))
    cases.append(_transform_case(2, "bose", Fraction(rng.choice((3, 4)))))
    for name in ("2euler-1", "euler", "(zeta2-1)/2", "2zeta3"):
        cases.append(_pinned_case(name, 160))
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# eval: `legmellin mellin` and `legmellin genfun`, plus three fixed probes

EVAL_PRECISION = 128
# (m, n, kind of s) skeleton: every m in two low bands and a high band of
# n, rational and Gaussian s alternating; the seed moves each n by at most
# EVAL_JITTER.  s is fixed per slot because its value alone moves a case's
# cost by up to 40%.
EVAL_SLOTS = (
    tuple((m, 20 + 10 * m, m % 2) for m in range(7))
    + tuple((m, 50 + 10 * m, 1 - m % 2) for m in range(7))
    + ((0, 290, 1), (1, 150, 0), (2, 180, 1), (3, 170, 0), (4, 160, 1),
       (5, 190, 0), (6, 140, 1)))
EVAL_JITTER = 5
EVAL_TERMS = (30, 70, 110)
EVAL_RATIONAL = ("3/4", "3/2", "5/2", "7/3", "11/4")
EVAL_GAUSSIAN = ("2+3i", "1/2+1i", "3/2-2i", "5/2+1/2i")


def reference_bits(n: int, precision_bits: int) -> int:
    """Working width for the value-recursion reference.

    The degree recursion on transform values loses about 1.2 bits per
    degree; 64 guard bits alone leave the reference wrong beyond n ~ 100,
    so the guard grows with n."""
    return precision_bits + 64 + (3 * n) // 2


def _mellin_case(n: int, m: int, label: str) -> Case:
    prec = EVAL_PRECISION

    def run() -> Verdict:
        from legmellin import mellin

        code, out = cli(["mellin", "--n", str(n), "--m", str(m), f"--s={label}",
                         "--precision", str(prec)])
        if code != 0:
            return False, f"exit {code}: {out.strip()[:200]}"
        wide = reference_bits(n, prec)
        with mp.workprec(wide):
            got = _complex_text(json.loads(out)["value"])
            ref = mellin.mellin_recursion_reference(
                n, m, _s_value(label, wide), wide).to_mpc()
            rel = abs(got - ref) / max(abs(got), 1)
        return (rel <= mp.mpf(2) ** -(prec - 20),
                f"relative gap to the value recursion {mp.nstr(rel, 4)}")

    defect = ("odd m at non-real s runs the float degree recursion at 24 guard "
              "bits and loses about a bit per degree"
              if m % 2 == 1 and label.endswith("i") and n > 30 else "")
    return Case(f"eval/mellin/n={n},m={m},s={label}", run, defect)


def _genfun_case(terms: int, t: str, label: str) -> Case:
    prec = EVAL_PRECISION

    def run() -> Verdict:
        code, out = cli(["genfun", f"--t={t}", f"--s={label}",
                         "--terms", str(terms), "--precision", str(prec)])
        if code != 0:
            return False, f"exit {code}: {out.strip()[:200]}"
        report = json.loads(out)
        with mp.workprec(prec + 64):
            floor = mp.mpf(2) ** -(prec - 20) * max(
                1, abs(_complex_text(report["closed_form"])))
            allowed = mp.mpf(report["tail_bound"]) + floor
            worst = max(mp.mpf(report[k]) for k in
                        ("difference", "even_difference", "odd_difference"))
        return worst <= allowed, f"difference {mp.nstr(worst, 4)}"

    return Case(f"eval/genfun/terms={terms},t={t},s={label}", run)


def eval_cases(seed: int) -> List[Case]:
    rng = _rng("eval", seed)
    cases = []
    for slot, (m, n, gaussian) in enumerate(EVAL_SLOTS):
        n = min(300, max(m, n + rng.randint(-EVAL_JITTER, EVAL_JITTER)))
        pool = EVAL_GAUSSIAN if gaussian else EVAL_RATIONAL
        cases.append(_mellin_case(n, m, pool[slot % len(pool)]))
    for slot, terms in enumerate(EVAL_TERMS):
        terms += rng.randint(-EVAL_JITTER, EVAL_JITTER)
        cases.append(_genfun_case(terms, rng.choice(("1/10", "1/5", "-1/4", "1/3")),
                                  ("2", "3/2+1i", "5/2")[slot]))
    return cases


def _probe_cli(n: int, m: int, label: str) -> Case:
    def run() -> Verdict:
        from legmellin import mellin

        code, out = cli(["mellin", "--n", str(n), "--m", str(m), f"--s={label}"])
        if code != 0:
            return False, f"exit {code}: {out.strip()[:200]}"
        prec = json.loads(out)["precision_bits"]
        with mp.workprec(prec + 64):
            got = _complex_text(json.loads(out)["value"])
            if label.endswith("i"):
                want = mellin.order_one_reference(
                    n, _s_value(label, prec + 64), prec + 64).to_mpc()
            else:
                exact = mellin.order_one_exact(n, Fraction(label))
                want = mp.mpf(exact.numerator) / exact.denominator
            rel = abs(got - want) / max(abs(want), 1)
        return (rel <= mp.mpf(2) ** -(prec - 20),
                f"relative gap to the order-one form {mp.nstr(rel, 4)}")

    return Case(f"eval/probe/mellin/n={n},m={m},s={label}", run,
                "degree recursion deeper than the interpreter's recursion limit")


def _probe_reference() -> Case:
    n, prec = 1500, 128

    def run() -> Verdict:
        from legmellin import mellin

        got = mellin.mellin_recursion_reference(n, 0, 1, prec).to_mpc()
        want = mellin.special_value_at_1(n, prec + 64).to_mpc()
        with mp.workprec(prec + 64):
            rel = abs(got - want) / max(abs(want), 1)
        return (rel <= mp.mpf(2) ** -(prec - 20),
                f"relative gap to M_n(1) {mp.nstr(rel, 4)}")

    return Case(f"eval/probe/mellin_recursion_reference/n={n},m=0,s=1", run,
                "degree recursion deeper than the interpreter's recursion limit")


def eval_probes() -> List[Case]:
    """Fixed inputs that crash at the parent commit; run outside the timed
    case list, because a fix turns a crash into real work."""
    return [_probe_cli(1001, 1, "5/2"), _probe_cli(2001, 1, "2+3i"),
            _probe_reference()]


BUILDERS = {
    "zeros": zeros_cases,
    "catalog": catalog_cases,
    "oracles": oracles_cases,
    "eval": eval_cases,
}

# layers every pass of a workload must reach; the traced run fails otherwise
REQUIRED_LAYERS = {
    "zeros": ("cli.run_command", "criticality.critical_line_report",
              "criticality.find_roots", "mellin.poly_factor"),
    "catalog": ("mellin.mellin_rep", "mellin.mellin_closed",
                "mellin.mellin_quadrature", "quadrature.tanh_sinh",
                "specfun.hyp_pfq.terminating", "specfun.hyp_pfq.unit",
                "specfun.hyp_pfq.minus_one", "specfun.ferrers",
                "mpcore.RationalPolynomial.eval_mpc"),
    "oracles": ("fracpart.numeric_fracpart_oracle",
                "fracpart.pair_integral_quadrature",
                "fracpart.frac_weight_quadrature",
                "fracpart.fermi_bose_transform", "fracpart.frac_pair_integral",
                "fracpart.frac_int_moments", "quadrature.tanh_sinh"),
    "eval": ("cli.run_command", "mellin.mellin_closed",
             "mellin.mellin_recursion_reference", "mellin.genfun",
             "mellin.poly_factor", "mpcore.RationalPolynomial.eval_mpc",
             "specfun.hyp_pfq.disk"),
}
