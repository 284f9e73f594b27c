"""Verification suites behind `legmellin verify`.

Each suite replays one block of library invariants and returns a
machine-renderable result.  Runners are deterministic: randomized inputs
come from a seeded generator, case lists are sorted by id, and nothing
depends on wall-clock state except the elapsed_ms field (which the CLI
zeroes unless timing was requested).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import mpmath as mp

from .errors import ConvergenceError, DomainError
from .mpcore import DEFAULT_PRECISION, GUARD_BITS, HPComplex, RationalPolynomial
from . import criticality
from . import fracpart
from . import mellin
from . import specfun


class OutputFormat(Enum):
    JSON = "json"
    CSV = "csv"
    TEXT = "text"


@dataclass(frozen=True)
class RunConfig:
    """Knobs shared by every suite run.

    max_n caps the n loops; the shipped defaults keep `verify --suite all`
    within a few minutes.  Identical (seed, config) always reproduce the
    same cases.
    """

    precision_bits: int = DEFAULT_PRECISION
    tolerance_exponent: int = 20
    max_n: int = 40
    output_format: OutputFormat = OutputFormat.TEXT
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.precision_bits, int) or self.precision_bits < 64:
            raise DomainError("precision_bits must be an integer >= 64")
        if not isinstance(self.tolerance_exponent, int) or self.tolerance_exponent < 1:
            raise DomainError("tolerance_exponent must be a positive integer")
        if not isinstance(self.max_n, int) or self.max_n < 2:
            raise DomainError("max_n must be an integer >= 2")
        if not isinstance(self.output_format, OutputFormat):
            raise DomainError("output_format must be an OutputFormat")
        if not isinstance(self.seed, int):
            raise DomainError("seed must be an integer")

    @property
    def base_tolerance(self) -> mp.mpf:
        return mp.mpf(10) ** (-self.tolerance_exponent)


@dataclass(frozen=True)
class CaseResult:
    case_id: str
    inputs: Dict[str, str]
    expected: str
    got: str
    abs_err: mp.mpf
    tolerance: mp.mpf
    passed: bool


@dataclass(frozen=True)
class VerifySuiteResult:
    suite: str
    cases_run: int
    cases_passed: int
    worst_residual: mp.mpf
    elapsed_ms: int
    details: Tuple[CaseResult, ...]

    @property
    def all_passed(self) -> bool:
        return self.cases_passed == self.cases_run


def _digits(precision_bits: int) -> int:
    return max(17, int(precision_bits * 0.30103) + 2)


def _fmt(value, digits: int = 24) -> str:
    """Render a number as text; complex values come out as re+imi / re-imi."""
    if isinstance(value, HPComplex):
        value = value.to_mpc()
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, (int, float)):
        value = mp.mpf(value)
    if isinstance(value, mp.mpc) and value.imag == 0:
        value = value.real
    if isinstance(value, mp.mpc):
        # abs()/neg on mpf round at the ambient context; strip the sign as text
        re = mp.nstr(value.real, digits)
        im = mp.nstr(value.imag, digits)
        sign = "-" if im.startswith("-") else "+"
        return f"{re}{sign}{im.lstrip('-')}i"
    if not isinstance(value, mp.mpf):
        value = mp.mpf(value)
    return mp.nstr(value, digits)


def _num_case(case_id: str, inputs: Dict[str, str], expected: str, got,
              abs_err, tolerance) -> CaseResult:
    # existing mpfs pass through unrounded (mp.mpf would clip to ambient)
    err = abs_err if isinstance(abs_err, mp.mpf) else mp.mpf(abs_err)
    tol = tolerance if isinstance(tolerance, mp.mpf) else mp.mpf(tolerance)
    return CaseResult(
        case_id=case_id, inputs=inputs, expected=expected,
        got=got if isinstance(got, str) else _fmt(got),
        abs_err=err, tolerance=tol, passed=bool(err <= tol),
    )


def _exact_case(case_id: str, inputs: Dict[str, str], expected: str,
                ok: bool) -> CaseResult:
    return CaseResult(
        case_id=case_id, inputs=inputs, expected=expected,
        got="holds" if ok else "fails",
        abs_err=mp.mpf(0 if ok else 1), tolerance=mp.mpf(0), passed=bool(ok),
    )


def _summary(suite: str, details: Tuple[CaseResult, ...], started: float) -> VerifySuiteResult:
    return VerifySuiteResult(
        suite=suite,
        cases_run=len(details),
        cases_passed=sum(1 for c in details if c.passed),
        # a NaN residual never displaces the running maximum
        worst_residual=max([mp.mpf(0), *(c.abs_err for c in details)]),
        elapsed_ms=int((time.monotonic() - started) * 1000),
        details=details,
    )


def _assemble(suite: str, cases: Sequence[CaseResult], started: float) -> VerifySuiteResult:
    return _summary(suite, tuple(
        CaseResult(f"{suite}/{c.case_id}", c.inputs, c.expected, c.got,
                   c.abs_err, c.tolerance, c.passed)
        for c in sorted(cases, key=lambda c: c.case_id)
    ), started)


# ---------------------------------------------------------------------------
# recursion: closed polynomial route against independent value routes

def _suite_recursion(config: RunConfig) -> List[CaseResult]:
    prec = config.precision_bits
    cases: List[CaseResult] = []
    tight = mp.mpf(2) ** (-(prec - 20))

    with mp.workprec(prec + GUARD_BITS):
        worst = mp.mpf(0)
        for k in range(20):
            s = Fraction(1, 4) + Fraction(3 * k, 20)
            a = mellin.mellin_closed(1, 0, s, prec).to_mpc()
            b = mellin.mellin_closed(0, 0, s + 1, prec).to_mpc()
            worst = max(worst, abs(a - b))
        cases.append(_num_case(
            "degenerate-step/grid", {"points": "20"},
            "first transform equals zeroth at s+1", _fmt(worst), worst, tight))

    for n, m in ((0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (5, 8)):
        v = mellin.mellin_closed(n, m, 2, prec)
        cases.append(_exact_case(
            f"vanishing/n={n:03d},m={m:02d}", {"n": str(n), "m": str(m)},
            "exact zero for m > n", v == 0))

    rng = random.Random(config.seed * 9973 + 11)
    draws = [mp.mpc(rng.uniform(0.05, 4.95), rng.uniform(-3.0, 3.0))
             for _ in range(10)]
    with mp.workprec(prec + 64):
        for m in range(0, config.max_n + 1, 2):
            for n in range(m, config.max_n + 1):
                closed = mellin.poly_factor(n, m)
                worst = mp.mpf(0)
                for z in draws:
                    lhs = closed.evaluate(z, prec).to_mpc()
                    # reference runs with extra guard so its own recursion
                    # loss stays far below the comparison tolerance; the
                    # error is scaled because the transform magnitude grows
                    # with m through the seed's double factorial
                    ref = mellin.mellin_recursion_reference(n, m, z, prec + 64).to_mpc()
                    worst = max(worst, abs(lhs - ref) / max(abs(lhs), mp.mpf(1)))
                cases.append(_num_case(
                    f"factorization/n={n:03d},m={m:02d}",
                    {"n": str(n), "m": str(m), "samples": "10"},
                    "prefactor times polynomial matches value recursion",
                    _fmt(worst), worst, tight))

    for n in range(0, config.max_n + 1):
        p = mellin.poly_factor(n, 0).poly
        ok = (p.degree == n // 2
              and p.leading_coefficient == Fraction(2) ** (n // 2))
        cases.append(_exact_case(
            f"leading/n={n:03d}", {"n": str(n)},
            "degree floor(n/2), leading coefficient 2^floor(n/2)", ok))

    for n in range(1, min(20, config.max_n) + 1):
        ok = mellin.order_one_rationality_check(n)
        worst = mp.mpf(0)
        with mp.workprec(prec + GUARD_BITS):
            for s in (Fraction(3, 2), Fraction(2), Fraction(7, 2)):
                a = mellin.mellin_closed(n, 1, s, prec).to_mpc()
                b = mellin.order_one_reference(n, s, prec).to_mpc()
                worst = max(worst, abs(a - b))
        cases.append(_num_case(
            f"order-one/n={n:03d}", {"n": str(n)},
            "rational structure certified and gamma-ratio form matched",
            "certified" if ok else "exact forms differ",
            worst if ok else mp.mpf(1), tight))
    return cases


# ---------------------------------------------------------------------------
# funceq: exact reflection identity

def _suite_funceq(config: RunConfig) -> List[CaseResult]:
    cases: List[CaseResult] = []
    for m in range(0, config.max_n + 1, 2):
        for n in range(m, config.max_n + 1):
            ok = criticality.functional_equation_check(n, m)
            cases.append(_exact_case(
                f"n={n:03d},m={m:02d}", {"n": str(n), "m": str(m)},
                "p(1-s) = sign * p(s) exactly", ok))
    return cases


# ---------------------------------------------------------------------------
# zeros: certified critical-line location

def _line_tolerance(precision_bits: int) -> mp.mpf:
    if precision_bits >= 128:
        return mp.mpf(10) ** -25
    return mp.mpf(2) ** (-(precision_bits // 2))


def _zero_cases(n: int, m: int, config: RunConfig) -> CaseResult:
    try:
        report = criticality.critical_line_report(n, m, config.precision_bits)
    except ConvergenceError as exc:
        got, err = f"proof refused: {exc}", mp.mpf(1)
    else:
        cert = report.certificate_tolerance
        if all(r <= cert for r in report.residuals) and report.shift_deviation <= cert:
            got, err = f"max deviation {_fmt(report.max_deviation)}", report.max_deviation
        else:
            got, err = "certificate or shift cross-check failed", mp.mpf(1)
    return _num_case(
        f"n={n:03d},m={m:02d}", {"n": str(n), "m": str(m),
                                 "precision_bits": str(config.precision_bits)},
        "all roots on Re s = 1/2 proven by exact sign alternation",
        got, err, _line_tolerance(config.precision_bits))


def _suite_zeros(config: RunConfig) -> List[CaseResult]:
    cases = [_zero_cases(n, 0, config) for n in range(2, config.max_n + 1)]
    for m in (2, 4):
        for n in range(m + 2, config.max_n + 1, m):
            cases.append(_zero_cases(n, m, config))
    # precision-scaling spot check at doubled precision
    n_cap = min(config.max_n, 24)
    doubled = criticality.critical_line_report(n_cap, 0, 2 * config.precision_bits)
    cases.append(_num_case(
        f"scaling/n={n_cap:03d}",
        {"n": str(n_cap), "m": "0", "precision_bits": str(2 * config.precision_bits)},
        "doubled precision pushes max deviation below 1e-60",
        _fmt(doubled.max_deviation), doubled.max_deviation, mp.mpf(10) ** -60))
    return cases


# ---------------------------------------------------------------------------
# reps: every alternative representation against the closed route

_REP_POINTS = (Fraction(3, 4), Fraction(3, 2), Fraction(5, 2), "2+3i")


def _rep_point(label) -> object:
    if label == "2+3i":
        return HPComplex(2, 3)
    return label


def _suite_reps(config: RunConfig) -> List[CaseResult]:
    cases: List[CaseResult] = []
    n_cap = min(20, config.max_n)
    analytic_tol = config.base_tolerance
    quad_tol = mp.mpf(10) ** (-(config.tolerance_exponent - 5))
    for variant in mellin.RepVariant:
        if variant is mellin.RepVariant.GENFUN:
            continue
        quad = mellin.variant_is_quadrature(variant)
        prec = 110 if quad else config.precision_bits
        tol = quad_tol if quad else analytic_tol
        for n in range(0, n_cap + 1):
            for label in _REP_POINTS:
                s = _rep_point(label)
                try:
                    got = mellin.mellin_rep(variant, n, 0, s, prec)
                except DomainError:
                    continue  # variant not legal at this (n, s)
                want = mellin.mellin_closed(n, 0, s, prec)
                with mp.workprec(prec + GUARD_BITS):
                    err = abs(got.to_mpc() - want.to_mpc())
                cases.append(_num_case(
                    f"{variant.value}/n={n:03d},s={label}",
                    {"variant": variant.value, "n": str(n), "s": str(label)},
                    _fmt(want), _fmt(got), err, tol))
    return cases


# ---------------------------------------------------------------------------
# diffeq: three-term contiguous relation, numeric and symbolic

_DIFFEQ_POINTS = (Fraction(5, 2), Fraction(3), Fraction(7, 2), "3+1i", "4+2i")


def _diffeq_point(label):
    if label == "3+1i":
        return HPComplex(3, 1)
    if label == "4+2i":
        return HPComplex(4, 2)
    return label


def _suite_diffeq(config: RunConfig) -> List[CaseResult]:
    prec = config.precision_bits
    cases: List[CaseResult] = []
    rel_tol = mp.mpf(2) ** (-(prec - 24))
    n_cap = min(20, config.max_n)
    for m in (0, 2):
        for n in range(max(m, 2), n_cap + 1):
            worst = mp.mpf(0)
            with mp.workprec(prec + GUARD_BITS):
                for label in _DIFFEQ_POINTS:
                    s = _diffeq_point(label)
                    t1, t2, t3 = criticality.difference_equation_terms(n, s, m, prec)
                    scale = max(abs(t1.to_mpc()), abs(t2.to_mpc()),
                                abs(t3.to_mpc()), mp.mpf(1))
                    worst = max(worst, abs((t1 + t2 + t3).to_mpc()) / scale)
            cases.append(_num_case(
                f"numeric/n={n:03d},m={m:02d}",
                {"n": str(n), "m": str(m), "points": "5"},
                "residual small relative to largest term",
                _fmt(worst), worst, rel_tol))
    for n in range(2, min(30, config.max_n) + 1):
        residual = criticality.difference_equation_symbolic(n, 0)
        cases.append(_exact_case(
            f"symbolic/n={n:03d}", {"n": str(n), "m": "0"},
            "cleared identity is the zero polynomial", residual.is_zero))
    return cases


# ---------------------------------------------------------------------------
# hahn: proportionality bridge

_HAHN_SAMPLES = (Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3),
                 Fraction(9, 4))


def _suite_hahn(config: RunConfig) -> List[CaseResult]:
    prec = config.precision_bits
    cases: List[CaseResult] = []
    rel_tol = mp.mpf(2) ** (-(prec - 20))
    for n in range(1, min(10, config.max_n) + 1):
        spread = criticality.hahn_proportionality(n, _HAHN_SAMPLES, prec)
        constant = criticality.hahn_constant(n)
        with mp.workprec(prec + GUARD_BITS):
            scale = abs(constant.to_mpc(prec + GUARD_BITS))
            rel = spread / scale if scale > 0 else mp.mpf("inf")
        cases.append(_num_case(
            f"n={n:03d}", {"n": str(n), "samples": "5"},
            "ratio spread vanishes relative to the constant",
            _fmt(rel), rel, rel_tol))
    return cases


# ---------------------------------------------------------------------------
# fracpart: closed forms against oracles, plus the symbolic identities

def _moment_case(alpha: int, beta: int, s, label: str, config: RunConfig,
                 expected: Optional[str] = None) -> CaseResult:
    prec = min(config.precision_bits, 256)
    spec = fracpart.FracIntegralSpec(alpha=alpha, beta=beta, s=s)
    closed = fracpart.frac_int_moments(spec, prec)
    oracle = fracpart.numeric_fracpart_oracle(spec, precision_bits=min(prec, 192))
    with mp.workprec(prec + GUARD_BITS):
        err = abs(closed.to_mpc() - oracle.value.to_mpc())
        tol = max(config.base_tolerance, 8 * oracle.error_bound)
    return _num_case(
        f"moment/alpha={alpha},beta={beta},s={label}",
        {"alpha": str(alpha), "beta": str(beta), "s": label},
        expected or _fmt(oracle.value), _fmt(closed), err, tol)


def _suite_fracpart(config: RunConfig) -> List[CaseResult]:
    prec = min(config.precision_bits, 256)
    base = config.base_tolerance
    tight = mp.mpf(2) ** (-(prec - 16))
    cases: List[CaseResult] = []

    grid = [
        (1, 1, Fraction(2), "2"), (1, 1, Fraction(3), "3"),
        (1, 2, Fraction(7, 2), "7/2"), (1, 3, Fraction(5), "5"),
        (2, 1, Fraction(4), "4"), (2, 2, Fraction(9, 2), "9/2"),
        (2, 1, Fraction(13, 4), "13/4"),
    ]
    for alpha, beta, s, label in grid:
        cases.append(_moment_case(alpha, beta, s, label, config))

    # the stated linear-map value at s = 2
    with mp.workprec(prec + GUARD_BITS):
        want = (mp.zeta(2) - 1) / 2
        got = fracpart.frac_int_moments(
            fracpart.FracIntegralSpec(alpha=1, beta=1, s=2), prec)
        err = abs(got.to_mpc() - want)
    cases.append(_num_case(
        "moment/pinned-s2", {"alpha": "1", "beta": "1", "s": "2"},
        "(zeta(2)-1)/2", _fmt(got), err, base))

    for s, label in ((Fraction(5, 2), "5/2"), (HPComplex(3, 1), "3+1i")):
        a = fracpart.frac_general(s, 1, 0, prec)
        b = fracpart.frac_basic(s, prec)
        cases.append(_exact_case(
            f"general-alpha0/s={label}", {"s": label, "b": "1", "alpha": "0"},
            "weighted transform at alpha = 0 collapses to the basic one",
            a == b))

    combo = fracpart.moment_combination(1, 1)
    printed_ok = (
        combo.coefficient(0) == RationalPolynomial((-1, 1))
        and combo.coefficient(1) == RationalPolynomial((2, -1))
        and combo.denominator == RationalPolynomial((0, -1, 1))
        and combo.rational_numerator.is_zero
    )
    cases.append(_exact_case(
        "symbolic/first-moment-map", {"alpha": "1", "beta": "1"},
        "derived coefficients match the stated linear map", printed_ok))

    for order in range(1, 7):
        for u, ulabel in ((Fraction(0), "0"), (Fraction(1, 2), "1/2"),
                          (Fraction(1), "1")):
            with mp.workprec(prec + GUARD_BITS):
                sn = fracpart.sublemma_sum(
                    fracpart.SublemmaState(order, u), prec).to_mpc()
                if order == 1:
                    err = mp.mpf(0)  # order 1 is its own base case
                else:
                    prev = fracpart.sublemma_sum(
                        fracpart.SublemmaState(order - 1, u), prec).to_mpc()
                    recur = prev - mp.zeta(
                        order + 1, mp.mpf(u.numerator) / u.denominator + 2)
                    err = abs(sn - recur)
            cases.append(_num_case(
                f"sublemma/recurrence/n={order},u={ulabel}",
                {"order": str(order), "u": ulabel},
                "S_n = S_(n-1) - zeta(n+1, u+2)", _fmt(sn), err, tight))

    with mp.workprec(prec + GUARD_BITS):
        state = fracpart.SublemmaState(3, Fraction(1, 2))
        series = fracpart.sublemma_sum_series(state, prec).to_mpc()
        closed = fracpart.sublemma_sum(state, prec).to_mpc()
        err = abs(series - closed)
    cases.append(_num_case(
        "sublemma/series-route/n=3,u=1/2", {"order": "3", "u": "1/2"},
        "head plus folded tail equals telescoped form", _fmt(series), err, tight))

    for n in (1, 2, 3):
        with mp.workprec(prec + GUARD_BITS):
            stated = fracpart.moment_boundary_value(1, n, prec).to_mpc()
            rule = fracpart.moment_combination(1, n).evaluate(n + 1, prec).to_mpc()
            samples = [
                fracpart.moment_combination(1, n).evaluate(
                    Fraction(n + 1) + Fraction(1, 2 ** k), prec + 32)
                for k in range(4, 19)
            ]
            limit = fracpart.richardson_extrapolate(samples, prec)
            err = max(abs(stated - rule), abs(stated - limit))
        cases.append(_num_case(
            f"boundary/alpha=1,beta={n}",
            {"alpha": "1", "beta": str(n), "s": str(n + 1)},
            "stated limit, pole-cancellation rule, and extrapolation agree",
            _fmt(stated), err, mp.mpf(10) ** -28))
    with mp.workprec(prec + GUARD_BITS):
        stated = fracpart.moment_boundary_value(2, 2, prec).to_mpc()
        rule = fracpart.moment_combination(2, 2).evaluate(4, prec).to_mpc()
        err = abs(stated - rule)
    cases.append(_num_case(
        "boundary/alpha=2,beta=2", {"alpha": "2", "beta": "2", "s": "4"},
        "quadratic boundary value matches the rule", _fmt(stated), err, tight))

    with mp.workprec(prec + GUARD_BITS):
        gamma_limit = fracpart.alpha_one_limit(2, 1, prec).to_mpc()
        err = abs(gamma_limit - mp.euler)
    cases.append(_num_case(
        "alpha-to-one/euler", {"s": "2", "b": "1"},
        "Euler's constant", _fmt(gamma_limit), err, base))

    for s in (1, 2):
        report = fracpart.pair_integral_report(s, precision_bits=96)
        tol = max(mp.mpf(10) ** -12, 8 * report.quadrature_error_bound)
        cases.append(_num_case(
            f"pair/quadrature/s={s}", {"s": str(s)},
            "closed assembly matches direct quadrature",
            _fmt(report.closed), report.difference, tol))
    with mp.workprec(prec + GUARD_BITS):
        v1 = fracpart.frac_pair_integral(1, prec).to_mpc()
        err1 = abs(v1 - (2 * mp.euler - 1))
        v2 = fracpart.frac_pair_integral(2, prec).to_mpc()
        err2 = abs(v2 - (mp.euler - mp.mpf(1) / 2))
    cases.append(_num_case(
        "pair/pinned/s=1", {"s": "1"}, "2*euler - 1", _fmt(v1), err1, base))
    cases.append(_num_case(
        "pair/pinned/s=2", {"s": "2"}, "euler - 1/2", _fmt(v2), err2, base))

    weighted = fracpart.frac_general(3, 2, Fraction(1, 4), prec)
    oracle = fracpart.frac_weight_quadrature(3, 2, Fraction(1, 4), precision_bits=96)
    with mp.workprec(prec + GUARD_BITS):
        err = abs(weighted.to_mpc() - oracle.value.to_mpc())
    cases.append(_num_case(
        "general-weighted/s=3,b=2,alpha=1/4",
        {"s": "3", "b": "2", "alpha": "1/4"},
        "series route matches the weighted quadrature oracle",
        _fmt(weighted), err, max(mp.mpf(10) ** -15, 8 * oracle.error_bound)))

    duals = [
        (2, fracpart.TransformKind.FERMI, Fraction(2), "2"),
        (3, fracpart.TransformKind.FERMI, Fraction(13, 4), "13/4"),
        (2, fracpart.TransformKind.BOSE, Fraction(5, 2), "5/2"),
    ]
    for j, kind, s, label in duals:
        result = fracpart.fermi_bose_transform(j, kind, s, prec)
        cases.append(_num_case(
            f"transform/{kind.value}/j={j},s={label}",
            {"j": str(j), "kind": kind.value, "s": label},
            "series route equals closed zeta combination",
            _fmt(result.closed_value), result.difference, base))
    with mp.workprec(prec + GUARD_BITS):
        j1 = fracpart.fermi_bose_transform(
            1, fracpart.TransformKind.BOSE, 2, prec)
        err = abs(j1.closed_value.to_mpc() - 2 * mp.zeta(3))
    cases.append(_num_case(
        "transform/bose/pinned/j=1,s=2", {"j": "1", "kind": "bose", "s": "2"},
        "2*zeta(3)", _fmt(j1.closed_value), err, mp.mpf(10) ** -25))

    sandwich = fracpart.numeric_fracpart_oracle(
        fracpart.FracIntegralSpec(alpha=1, beta=1, s=3), precision_bits=min(prec, 192))
    ok = (sandwich.lower is not None and sandwich.upper is not None
          and sandwich.lower <= sandwich.value.to_mpc().real <= sandwich.upper)
    cases.append(_exact_case(
        "sandwich/alpha=1,beta=1,s=3", {"alpha": "1", "beta": "1", "s": "3"},
        "oracle value sits between its comparison bounds", ok))
    return cases


# ---------------------------------------------------------------------------
# appendix: gamma identities, Kummer family, transformation catalog

def appendix_parameter_tuples(transform: specfun.TransformId, seed: int,
                              count: int) -> List[Tuple]:
    """Deterministic parameter tuples for one cataloged transformation.

    Every draw makes the first numerator parameter a nonpositive integer.
    That terminates each series the check evaluates, because the one
    companion series without that parameter carries it in a reciprocal
    gamma prefactor and is silenced exactly.  The left-side convergence
    excess is drawn from [1/2, 3]; draws whose prefactors would hit a
    gamma pole or whose finite sums would divide by zero are filtered out
    arithmetically and redrawn.
    """
    salt = {"A1": 1, "A2": 2, "A3": 3}[transform.value]
    rng = random.Random(seed * 7919 + salt)
    out: List[Tuple] = []
    attempts = 0

    def nonpos_int(x: Fraction) -> bool:
        return x.denominator == 1 and x <= 0

    def bad_den(x: Fraction, depth: int) -> bool:
        return x.denominator == 1 and -depth < x <= 0

    while len(out) < count:
        attempts += 1
        if attempts > 400 * count:
            raise ConvergenceError("parameter stream kept hitting poles")
        a = Fraction(-rng.randint(1, 6))
        depth = int(-a) + 1
        b = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
        c = Fraction(rng.randint(1, 12), rng.choice((1, 2, 3, 4)))
        excess = Fraction(rng.randint(2, 12), 4)
        d = Fraction(rng.randint(1, 12), rng.choice((1, 2, 4)))
        e = excess + a + b + c - d
        if d <= 0 or e <= 0:
            continue
        if transform is specfun.TransformId.A1:
            if nonpos_int(e - a - b) or bad_den(1 + a + b - e, depth):
                continue
        elif transform is specfun.TransformId.A2:
            if (nonpos_int(1 + a - d) or nonpos_int(1 + c - d)
                    or bad_den(1 + a + c - d, depth)):
                continue
        else:
            if (nonpos_int(1 + a - d) or nonpos_int(1 + b - d)
                    or nonpos_int(1 + c - d) or nonpos_int(e)
                    or bad_den(1 + a + b - d, depth)
                    or bad_den(1 + a + c - d, depth)):
                continue
        out.append((a, b, c, d, e))
    return out


def _suite_appendix(config: RunConfig) -> List[CaseResult]:
    prec = config.precision_bits
    cases: List[CaseResult] = []
    ulp8 = 8 * mp.mpf(2) ** (-prec)
    tight = mp.mpf(2) ** (-(prec - 16))

    with mp.workprec(prec + GUARD_BITS):
        worst = mp.mpf(0)
        for j in range(10):
            for k in range(10):
                z = mp.mpc(-4.3 + 1.01 * j, -4.6 + 1.03 * k)
                lhs = specfun.gamma(z + 1, prec).to_mpc()
                rhs = z * specfun.gamma(z, prec).to_mpc()
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
        cases.append(_num_case(
            "gamma/recurrence", {"points": "100"},
            "Gamma(z+1) = z Gamma(z) to 8 ulp", _fmt(worst), worst, ulp8))

        worst = mp.mpf(0)
        for k in range(20):
            z = mp.mpc(0.3 + 0.37 * k, 0.4 - 0.11 * k)
            lhs = specfun.gamma(z / 2, prec).to_mpc() \
                * specfun.gamma((z + 1) / 2, prec).to_mpc()
            rhs = mp.sqrt(mp.pi) * mp.power(2, 1 - z) \
                * specfun.gamma(z, prec).to_mpc()
            worst = max(worst, abs(lhs - rhs) / abs(lhs))
        cases.append(_num_case(
            "gamma/duplication", {"points": "20"},
            "half-argument product form to 8 ulp", _fmt(worst), worst, ulp8))

        worst = mp.mpf(0)
        for k in range(20):
            z = mp.mpc(0.28 + 0.2 * k, -1.9 + 0.19 * k)
            lhs = specfun.gamma(z, prec).to_mpc() \
                * specfun.gamma(1 - z, prec).to_mpc() * mp.sin(mp.pi * z)
            worst = max(worst, abs(lhs - mp.pi) / mp.pi)
        cases.append(_num_case(
            "gamma/reflection", {"points": "20"},
            "sine reflection product to 8 ulp", _fmt(worst), worst, ulp8))

        worst = mp.mpf(0)
        for s, a in ((Fraction(5, 2), Fraction(3, 2)), (3, 2), (4, Fraction(7, 3)),
                     (Fraction(7, 2), 1), (2, Fraction(1, 2))):
            lhs = specfun.hurwitz_zeta(s, a, prec).to_mpc() \
                - specfun.hurwitz_zeta(s, Fraction(a) + 1, prec).to_mpc()
            af, sf = Fraction(a), Fraction(s)
            rhs = mp.power(mp.mpf(af.numerator) / af.denominator,
                           -mp.mpf(sf.numerator) / sf.denominator)
            worst = max(worst, abs(lhs - rhs))
        cases.append(_num_case(
            "hurwitz/shift", {"points": "5"},
            "zeta(s,a) - zeta(s,a+1) = a^-s", _fmt(worst), worst, tight))

    for which in ("a", "b", "c"):
        worst = mp.mpf(0)
        with mp.workprec(prec + GUARD_BITS):
            for k in range(20):
                s = Fraction(1, 4) + Fraction(k, 20) * Fraction(23, 4)
                r = specfun.kummer_2f1_residual(which, s, prec)
                worst = max(worst, abs(r.to_mpc()))
        cases.append(_num_case(
            f"kummer/{which}", {"points": "20", "identity": which},
            "argument -1 value equals its gamma closed form",
            _fmt(worst), worst, tight))

    terminating = (
        specfun.HypergeometricSpec((-3, Fraction(1, 2)), (Fraction(2),), 1),
        specfun.HypergeometricSpec((-4, Fraction(1, 3), 2),
                                   (Fraction(5, 2), Fraction(7, 3)), 1),
        specfun.HypergeometricSpec((-5, Fraction(3, 4)), (Fraction(7, 2),),
                                   Fraction(-1, 2)),
    )
    with mp.workprec(prec + GUARD_BITS):
        for i, spec in enumerate(terminating):
            exact = specfun.hyp_terminating_exact(spec)
            floated = specfun.hyp_pfq(spec, prec)
            err = abs(exact.to_mpc(prec + GUARD_BITS) - floated.to_mpc())
            cases.append(_num_case(
                f"terminating/{i}", {"spec": str(i)},
                "exact rational path equals float path",
                _fmt(floated), err, mp.mpf(2) ** (-(prec - 8))))

    for transform in specfun.TransformId:
        tuples = appendix_parameter_tuples(transform, config.seed, 50)
        worst = mp.mpf(0)
        with mp.workprec(prec + GUARD_BITS):
            for tup in tuples:
                r = specfun.threeF2_transform_check(transform, *tup, precision_bits=prec)
                worst = max(worst, abs(r.to_mpc()))
        cases.append(_num_case(
            f"transform/{transform.value}",
            {"tuples": "50", "seed": str(config.seed)},
            "both sides agree on seeded terminating tuples",
            _fmt(worst), worst, mp.mpf(10) ** -18))
    return cases


# ---------------------------------------------------------------------------
# registry

SUITE_NAMES = ("recursion", "funceq", "zeros", "reps", "diffeq", "hahn",
               "fracpart", "appendix")

_RUNNERS = {
    "recursion": _suite_recursion,
    "funceq": _suite_funceq,
    "zeros": _suite_zeros,
    "reps": _suite_reps,
    "diffeq": _suite_diffeq,
    "hahn": _suite_hahn,
    "fracpart": _suite_fracpart,
    "appendix": _suite_appendix,
}


def run_suite(name: str, config: Optional[RunConfig] = None) -> VerifySuiteResult:
    """Run one named suite (or 'all') and return its sorted result."""
    config = config or RunConfig()
    started = time.monotonic()
    if name == "all":
        merged: List[CaseResult] = []
        for sub in SUITE_NAMES:
            merged.extend(_assemble(sub, _RUNNERS[sub](config), started).details)
        return _summary("all", tuple(merged), started)
    if name not in _RUNNERS:
        raise DomainError(
            f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)} or all")
    return _assemble(name, _RUNNERS[name](config), started)
