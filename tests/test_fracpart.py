"""Fractional-part transforms: zeta combinations, boundary limits, the
paired integral, and the alternating/direct series transforms."""

import itertools
import math
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legmellin import fracpart
from legmellin.errors import ConvergenceError, DomainError, PoleError
from legmellin.fracpart import (
    FracIntegralSpec,
    SublemmaState,
    TransformKind,
    _zeta_moment_integral,
    alpha_one_limit,
    fermi_bose_transform,
    frac_basic,
    frac_general,
    frac_int_moments,
    frac_pair_integral,
    frac_weight_quadrature,
    moment_boundary_value,
    moment_combination,
    numeric_fracpart_oracle,
    pair_integral_quadrature,
    pair_integral_report,
    richardson_extrapolate,
    sublemma_sum,
    sublemma_sum_series,
)
from legmellin.mpcore import GUARD_BITS, GaussianRational, HPComplex, RationalPolynomial, to_mpc
from legmellin.quadrature import tanh_sinh


def _near(value: HPComplex, want, prec, slack=40) -> bool:
    with mp.workprec(prec + 64):
        return abs(value.to_mpc() - want) < mp.mpf(2) ** (-(prec - slack))


# ---------------------------------------------------------------------------
# plain transform

def test_basic_transform_value():
    got = frac_basic(Fraction(2), 256)
    with mp.workprec(320):
        assert _near(got, 1 - mp.zeta(2) / 2, 256)


def test_basic_transform_domain():
    with pytest.raises(DomainError):
        frac_basic(Fraction(1))
    with pytest.raises(DomainError):
        frac_basic(Fraction(1, 2))


def test_basic_transform_reads_gaussian_rationals():
    assert frac_basic(GaussianRational(2, 1), 128) == frac_basic(HPComplex(2, 1), 128)


# ---------------------------------------------------------------------------
# moment combinations

def test_first_moment_map_is_frozen():
    combo = moment_combination(1, 1)
    assert combo.coefficient(0) == RationalPolynomial([-1, 1])      # (s-1) zeta(s)
    assert combo.coefficient(1) == RationalPolynomial([2, -1])      # (2-s) zeta(s-1)
    assert combo.denominator == RationalPolynomial([0, -1, 1])      # s(s-1)
    assert combo.rational_numerator.is_zero


def test_second_moment_map_is_frozen():
    combo = moment_combination(1, 2)
    assert combo.coefficient(2) == RationalPolynomial([3, -1])
    assert combo.coefficient(1) == RationalPolynomial([-3, 2])
    assert combo.coefficient(0) == RationalPolynomial([1, -1])
    assert combo.denominator == RationalPolynomial([0, -1, 1])


def test_moment_combination_domain():
    with pytest.raises(DomainError):
        moment_combination(3, 1)
    with pytest.raises(DomainError):
        moment_combination(2, 0)


def test_pinned_boundary_value_at_two():
    # first mixed moment at its zeta(1) boundary
    got = frac_int_moments(FracIntegralSpec(1, 1, Fraction(2)), 256)
    with mp.workprec(320):
        assert _near(got, (mp.zeta(2) - 1) / 2, 256)


def test_zeta_pole_rule_applies_only_when_coefficient_vanishes():
    combo = moment_combination(1, 2)
    with pytest.raises(PoleError):
        combo.evaluate(Fraction(2), 128)  # zeta(s-1) coefficient (-3+2s) != 0


def test_moments_match_oracle():
    for alpha, beta, s in ((1, 1, Fraction(3)), (2, 1, Fraction(4)),
                           (1, 2, Fraction(7, 2))):
        spec = FracIntegralSpec(alpha, beta, s)
        got = frac_int_moments(spec, 192)
        oracle = numeric_fracpart_oracle(spec, precision_bits=192)
        with mp.workprec(256):
            diff = abs(got.to_mpc() - oracle.value.to_mpc())
            assert diff <= max(8 * oracle.error_bound, mp.mpf(10) ** -40)


def test_oracle_bound_counts_each_series_remainder(monkeypatch):
    # non-integer alpha takes the inner integrals as series; the bound must
    # carry each one's stated remainder times |P_k| and its weight k^beta
    planted = mp.mpf(10) ** -10
    prefactors = []
    inner_series = fracpart._inner_series

    def plant(*args):
        values = inner_series(*args)
        prefactors.extend(prefactor for _, prefactor, _ in values)
        return [(value, prefactor, planted) for value, prefactor, _ in values]

    monkeypatch.setattr(fracpart, "_inner_series", plant)
    oracle = numeric_fracpart_oracle(
        FracIntegralSpec(Fraction(1, 3), 2, Fraction(9, 2)), precision_bits=96)
    assert len(prefactors) == 40  # the 40-term k-sum
    with mp.workprec(160):
        carried = sum(k ** 2 * abs(p) * planted for k, p in enumerate(prefactors, 1))
        assert abs(oracle.error_bound - carried) <= mp.mpf(2) ** -80


def test_fractional_alpha_takes_no_quadrature(monkeypatch):
    calls = []
    monkeypatch.setattr(fracpart, "tanh_sinh", lambda *args, **kwargs: calls.append(args))
    numeric_fracpart_oracle(
        FracIntegralSpec(Fraction(2, 3), 1, GaussianRational(Fraction(9, 4), 1)), 96)
    assert calls == []


def test_inner_series_refuses_past_its_budget(monkeypatch):
    monkeypatch.setattr(fracpart, "_SERIES_BUDGET", 8)
    with pytest.raises(ConvergenceError, match="inner series"):
        numeric_fracpart_oracle(FracIntegralSpec(Fraction(1, 3), 1, Fraction(9, 2)), 96)
    monkeypatch.undo()
    # the k = 1 series runs past |a+1-s| terms, so this is refused at once
    with pytest.raises(ConvergenceError, match="inner series"):
        numeric_fracpart_oracle(FracIntegralSpec(Fraction(1, 3), 0, 10 ** 6), 96)


def _reference_oracle(spec, precision_bits):
    """numeric_fracpart_oracle written without any reuse: every Hurwitz
    zeta, series coefficient and inner power is computed where it is used.

    Its constants are the oracle's: a 40-term k-sum, each inner series
    stopped at tolerance / (8 * 40), and a tail of Hurwitz zetas at shift
    40 + 2.
    """
    workprec = precision_bits + 2 * GUARD_BITS
    beta = spec.beta
    with mp.workprec(workprec):
        z = to_mpc(spec.s, workprec)
        aa = to_mpc(spec.alpha, workprec)
        tol = fracpart._default_tolerance(precision_bits)
        exact_alpha = spec.alpha if spec.alpha in (1, 2) else None

        def inner_exact(k):
            kk = mp.mpf(k)
            if exact_alpha == 1:
                return -(kk + 1) ** (-z) / z + (
                    (kk + 1) ** (1 - z) - kk ** (1 - z)) / (z * (1 - z))
            g = -((kk + 1) ** (1 - z)) / (z - 1) + (
                (kk + 1) ** (2 - z) - kk ** (2 - z)) / ((z - 1) * (2 - z))
            return -((kk + 1) ** (-z)) / z + 2 * g / z

        def inner_series(k):
            sumprec = workprec + fracpart._series_guard(aa, z)
            with mp.workprec(sumprec):
                kk = mp.mpf(k + 1)
                prefactor = mp.mpf(k) ** (aa - z) * kk ** (-(aa + 1))
                rising = mp.mpc(1)
                power = mp.mpf(1)
                total = mp.mpc(0)
                spread = mp.mpf(0)
                j = 0
                while True:
                    c = rising / (aa + 1 + j)
                    ratio = max(1, (abs(aa + 1 - z) + j) / (j + 1)) / kk
                    if ratio < 1:
                        remainder = abs(c) * power / (1 - ratio)
                        if abs(prefactor) * remainder < tol / 320:
                            rounding = 8 * (j + 1) * mp.ldexp(1, -sumprec) * spread
                            return prefactor * total, prefactor, remainder + rounding
                    total += c * power
                    spread += abs(c) * power
                    rising *= (aa + 1 - z + j) / (j + 1)
                    power /= kk
                    j += 1

        total = mp.mpc(0)
        series_error = mp.mpf(0)
        for k in range(1, 41):
            weight = mp.mpf(k) ** beta
            if exact_alpha is not None:
                inner = inner_exact(k)
            else:
                inner, prefactor, remainder = inner_series(k)
                series_error += weight * abs(prefactor) * remainder
            total += weight * inner
        rf = mp.mpc(1)
        i = 0
        while True:
            zeta_sum = mp.mpc(0)
            for r in range(beta + 1):
                zeta_sum += (math.comb(beta, r) * (-1) ** (beta - r)
                             * mp.zeta(z + 1 + i - r, 42))
            term = rf * mp.beta(aa + 1, i + 1) * zeta_sum
            total += term
            if i > 3 and abs(term) < tol / 10:
                tail_bound = 2 * abs(term)
                break
            rf *= (z + 1 + i) / (i + 1)
            i += 1
        lower = upper = None
        if z.imag == 0 and aa.imag == 0:
            lo = mp.mpf(0)
            for r in range(beta + 1):
                lo += math.comb(beta, r) * (-1) ** (beta - r) * (mp.zeta(z.real + 1 - r) - 1)
            lower = lo / (aa.real + 1)
            upper = mp.zeta(z.real + 1 - beta) / (aa.real + 1)
        rounding = abs(total) * mp.ldexp(1, -precision_bits)
        return (HPComplex.from_value(total, precision_bits),
                mp.mpf(tail_bound + series_error + rounding), lower, upper, 40 + i + 1)


def _bits(x):
    return None if x is None else x._mpf_


# non-dyadic s (7/3, 10/3, 16/3) makes s + 1 + i round differently as i
# grows, so equal i - r need not mean equal zeta arguments there
_ORACLE_PANEL = [
    (1, 0, Fraction(7, 3), 192),
    (1, 2, GaussianRational(Fraction(13, 4), 2), 128),
    (1, 4, Fraction(16, 3), 96),
    (2, 0, Fraction(5, 2), 96),
    (2, 1, Fraction(10, 3), 128),
    (2, 3, GaussianRational(Fraction(23, 4), Fraction(-3, 2)), 192),
    (Fraction(1, 3), 0, GaussianRational(Fraction(9, 4), 1), 128),
    (Fraction(1, 3), 1, Fraction(10, 3), 96),
    (Fraction(1, 3), 2, Fraction(19, 4), 192),
    (Fraction(-1, 2), 1, Fraction(10, 3), 128),
    (Fraction(-1, 2), 3, Fraction(13, 3), 192),
    (Fraction(-1, 2), 4, GaussianRational(Fraction(29, 4), Fraction(1, 2)), 96),
]


@pytest.mark.parametrize("alpha,beta,s,bits", _ORACLE_PANEL, ids=str)
def test_oracle_equals_the_loop_without_reuse(alpha, beta, s, bits):
    spec = FracIntegralSpec(alpha, beta, s)
    got = numeric_fracpart_oracle(spec, precision_bits=bits)
    value, error_bound, lower, upper, terms_used = _reference_oracle(spec, bits)
    assert got.value.precision_bits == value.precision_bits
    assert (got.value.real._mpf_, got.value.imag._mpf_) == (value.real._mpf_, value.imag._mpf_)
    assert got.error_bound._mpf_ == error_bound._mpf_
    assert (_bits(got.lower), _bits(got.upper)) == (_bits(lower), _bits(upper))
    assert got.terms_used == terms_used


# the first row is the sandwich case whose inner quadrature at k = 3 once
# stopped with an estimate of 2.2e-30 against a true error of 2.0e-26; at
# the last row the value's rounding to 96 bits (8.2e-33) is most of the
# bound, where the truncation and tail bounds alone come to 9.8e-37
_FRACTIONAL_PANEL = [
    (Fraction(1, 3), 1, Fraction(9, 2)),
    (Fraction(2, 3), 3, Fraction(13, 3)),
    (Fraction(-1, 2), 2, GaussianRational(Fraction(9, 4), 1)),
    (Fraction(1, 3), 0, GaussianRational(Fraction(9, 4), 1)),
    (Fraction(1, 3), 0, 150),
]


@pytest.mark.parametrize("alpha,beta,s", _FRACTIONAL_PANEL, ids=str)
def test_fractional_oracle_keeps_its_bound(alpha, beta, s):
    spec = FracIntegralSpec(alpha, beta, s)
    oracle = numeric_fracpart_oracle(spec, precision_bits=96)
    wide = numeric_fracpart_oracle(spec, precision_bits=320)
    with mp.workprec(400):
        assert abs(oracle.value.to_mpc() - wide.value.to_mpc()) <= oracle.error_bound
    if oracle.lower is not None:
        assert oracle.lower <= oracle.value.to_mpc().real <= oracle.upper


@settings(max_examples=40, deadline=None)
@given(alpha=st.fractions(-1, 3, max_denominator=12).filter(lambda a: -1 < a < 3),
       beta=st.integers(0, 3),
       excess=st.fractions(Fraction(1, 8), 6, max_denominator=8),
       im=st.fractions(-3, 3, max_denominator=8),
       k=st.integers(1, 40),
       bits=st.sampled_from([64, 96, 160]))
def test_inner_series_matches_hyp2f1(alpha, beta, excess, im, k, bits):
    _check_inner_series(alpha, GaussianRational(beta + max(0, alpha - 1) + excess, im), k, bits)


# at large |a+1-s| the terms grow 66 (s = 3+100i) to 78 (s = 150) bits
# above the sum before they cancel, past the oracle's guard bits
@pytest.mark.parametrize("alpha,s,k,bits", [
    (Fraction(1, 3), Fraction(150), 1, 96),
    (Fraction(1, 3), Fraction(150), 2, 96),
    (Fraction(1, 3), GaussianRational(3, 100), 1, 96),
    (Fraction(-1, 2), GaussianRational(3, 100), 2, 64),
    (Fraction(2, 3), GaussianRational(Fraction(9, 2), -60), 1, 160),
], ids=str)
def test_inner_series_keeps_its_bound_at_large_s(alpha, s, k, bits):
    _check_inner_series(alpha, s, k, bits)


def _check_inner_series(alpha, s, k, bits):
    # int_0^1 u^a (u+k)^-(s+1) du = k^-(s+1)/(a+1) 2F1(s+1, a+1; a+2; -1/k)
    workprec = bits + 2 * GUARD_BITS
    tol = fracpart._default_tolerance(bits) / 320
    with mp.workprec(workprec):
        z, aa = to_mpc(s, workprec), to_mpc(alpha, workprec)
        value, prefactor, remainder = fracpart._inner_series(aa, k, z, workprec, tol)[-1]
        assert abs(prefactor) * remainder < tol
    with mp.workprec(2 * workprec):
        z, aa = to_mpc(s, 2 * workprec), to_mpc(alpha, 2 * workprec)
        want = mp.mpf(k) ** (-(z + 1)) / (aa + 1) * mp.hyp2f1(z + 1, aa + 1, aa + 2, -mp.mpf(1) / k)
        rounding = mp.mpf(2) ** -(bits + GUARD_BITS)
        assert abs(value - want) <= abs(prefactor) * remainder + rounding


@pytest.mark.parametrize("s", [Fraction(19, 4), GaussianRational(Fraction(19, 4), 2)], ids=str)
def test_oracle_tail_computes_each_hurwitz_zeta_once(monkeypatch, s):
    hurwitz = []
    zeta = mp.zeta

    def counting(sigma, a=1, *args, **kwargs):
        if a != 1:
            hurwitz.append(sigma)
        return zeta(sigma, a, *args, **kwargs)

    monkeypatch.setattr(fracpart.mp, "zeta", counting)
    beta = 3
    oracle = numeric_fracpart_oracle(FracIntegralSpec(1, beta, s), precision_bits=128)
    tail_terms = oracle.terms_used - 40
    assert len(hurwitz) <= tail_terms + beta  # without reuse: (beta + 1) * tail_terms
    assert len(set(hurwitz)) == len(hurwitz)


def test_oracle_sandwich_brackets_value():
    spec = FracIntegralSpec(1, 1, Fraction(3))
    oracle = numeric_fracpart_oracle(spec, precision_bits=128)
    closed = frac_int_moments(spec, 128)
    assert oracle.lower is not None and oracle.upper is not None
    assert oracle.lower <= closed.to_mpc().real <= oracle.upper


def test_boundary_formula_matches_pole_rule():
    for alpha in (1, 2):
        for n in range(1, 7):
            via_formula = moment_boundary_value(alpha, n, 192)
            via_rule = frac_int_moments(
                FracIntegralSpec(alpha, n, Fraction(n + alpha)), 192)
            assert _near(via_formula, via_rule.to_mpc(), 192, slack=30)


def test_boundary_matches_richardson_limit():
    n, alpha = 2, 1
    s0 = Fraction(n + alpha)
    samples = [
        frac_int_moments(FracIntegralSpec(alpha, n, s0 + Fraction(1, 2 ** k)), 160)
        for k in range(4, 16)
    ]
    limit = richardson_extrapolate(samples, 160)
    boundary = moment_boundary_value(alpha, n, 160)
    with mp.workprec(200):
        assert abs(limit - boundary.to_mpc()) < mp.mpf(10) ** -25


def test_richardson_on_synthetic_expansion():
    with mp.workprec(200):
        samples = [mp.pi + 3 * mp.mpf(2) ** -k + mp.mpf(2) ** (-2 * k)
                   for k in range(12)]
    got = richardson_extrapolate(samples, 160)
    with mp.workprec(200):
        assert abs(got - mp.pi) < mp.mpf(10) ** -30


def test_spec_validation():
    with pytest.raises(DomainError):
        FracIntegralSpec(1, -1, Fraction(3))
    with pytest.raises(DomainError):
        FracIntegralSpec(1, 2, Fraction(3, 2))  # Re s <= beta


# ---------------------------------------------------------------------------
# weighted transform and its endpoint limit

def test_weight_zero_collapses_to_basic():
    a = frac_general(Fraction(5, 2), 1, 0, 192)
    b = frac_basic(Fraction(5, 2), 192)
    assert a == b


@pytest.mark.parametrize("b", [0, -1, GaussianRational(1, 1)])
def test_weight_zero_still_reads_b(b):
    with pytest.raises(DomainError, match="b must be a positive real"):
        frac_general(Fraction(2), b, 0, 64)


def test_weighted_transform_against_quadrature():
    got = frac_general(Fraction(3), Fraction(2), Fraction(1, 4), 96)
    quad = frac_weight_quadrature(Fraction(3), Fraction(2), Fraction(1, 4), 96)
    with mp.workprec(160):
        diff = abs(got.to_mpc() - quad.value.to_mpc())
        assert diff <= max(8 * quad.error_bound, mp.mpf(10) ** -15)


_TAIL_SIGMAS = [3, 4, 7, 20, 40, mp.mpc(3, 2), mp.mpc(mp.mpf(9) / 2, mp.mpf(1) / 3)]


@pytest.mark.parametrize("shift", [12, 20])
@pytest.mark.parametrize("sigma", _TAIL_SIGMAS, ids=str)
def test_exact_tail_integral_matches_quadrature(sigma, shift):
    # the fold's int_0^1 t zeta(sigma, 2 + t) dt against quadrature of its
    # pieces t (a + t)^-sigma for 2 <= a < shift plus t zeta(sigma, shift + t).
    # Absolute, not relative: at integer sigma mpmath's Hurwitz zeta has an
    # absolute but not a relative error near 2^-prec
    prec = 88
    got = _zeta_moment_integral(sigma, prec)
    with mp.workprec(2 * prec):
        want = mp.quad(lambda t: t * mp.zeta(sigma, shift + t), [0, 1])
        want += sum(mp.quad(lambda t: t * (a + t) ** -sigma, [0, 1]) for a in range(2, shift))
        assert abs(got - want) <= mp.mpf(2) ** -prec


@pytest.mark.parametrize("s", [6, 12])
def test_oracle_tails_take_no_quadrature(monkeypatch, s):
    # every unit-fraction segment past x = 1/2 is folded into Hurwitz zetas;
    # only the weight's singular segment [1/2, 1] is integrated
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return tanh_sinh(*args, **kwargs)

    monkeypatch.setattr(fracpart, "tanh_sinh", counting)
    for order in (1, 2, 3, s):
        pair_integral_quadrature(order, 64)
    assert calls == []
    frac_weight_quadrature(Fraction(s), 3, Fraction(1, 4), 64)
    assert [call[1:3] for call in calls] == [(mp.mpf(1) / 2, 1)]


@pytest.mark.parametrize("s", [80, 200])
def test_pair_oracle_keeps_its_bound_at_large_s(s):
    # the binomial sum of the right weight cancels by (3/2)^(s-2): summed at
    # the working precision alone, s = 200 was off by 1.7e-7
    oracle = pair_integral_quadrature(s, 96)
    wide = pair_integral_quadrature(s, 256)
    with mp.workprec(400):
        assert abs(oracle.value.to_mpc() - wide.value.to_mpc()) <= oracle.error_bound


@pytest.mark.parametrize("b", [Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)], ids=str)
def test_folded_tail_remainder_bounds_the_rest(b):
    # the weight's fold at the 64-bit tolerance against the same fold run far
    # past its stop; r = 2^-b max(1, (|alpha| + m)/(m + 1)) is above 2/3 here
    prec = 88
    with mp.workprec(prec):
        bb = mp.mpf(b.numerator) / b.denominator
        alpha, z = mp.mpf(3) / 4, mp.mpc(mp.mpf(3) / 2, 5)

        def terms():
            coeff = mp.mpc(1)
            for m in itertools.count():
                yield coeff, z + 1 + bb * m, mp.mpf(2) ** -bb * max(1, (alpha + m) / (m + 1))
                coeff *= (alpha + m) / (m + 1)

        value, bound = fracpart._folded_tail(
            terms(), mp.mpc(0), mp.mpf(0), prec, fracpart._default_tolerance(64))
        rest, _ = fracpart._folded_tail(terms(), mp.mpc(0), mp.mpf(0), prec, mp.mpf(2) ** -80)
        assert abs(rest - value) <= bound
        assert bound <= 2 ** 10 * abs(rest - value)  # a bound, not a blanket


def test_weight_oracle_keeps_its_bound_past_an_early_stop():
    # the eleven-segment oracle stopped segment [1/3, 1/2] on an estimate of
    # 6.7e-29 against a true error of 3.8e-28, above its stated 1.85e-28
    s, b, alpha = Fraction(5, 2), 1, Fraction(2, 3)
    oracle = frac_weight_quadrature(s, b, alpha, 96)
    with mp.workprec(300):
        err = abs(oracle.value.to_mpc() - frac_general(s, b, alpha, 224).to_mpc())
        assert err <= oracle.error_bound


@settings(max_examples=20, deadline=None)
@given(b=st.fractions(Fraction(1, 10), 3, max_denominator=10),
       alpha=st.fractions(0, Fraction(11, 12), max_denominator=12),
       re=st.fractions(Fraction(17, 16), 5, max_denominator=16),
       im=st.fractions(-10, 10, max_denominator=4),
       bits=st.sampled_from([64, 96]))
def test_weight_oracle_keeps_its_bound(b, alpha, re, im, bits):
    s = GaussianRational(re, im)
    oracle = frac_weight_quadrature(s, b, alpha, bits)
    with mp.workprec(2 * bits + 64):
        err = abs(oracle.value.to_mpc() - frac_general(s, b, alpha, bits + 32).to_mpc())
        assert err <= oracle.error_bound


def test_alpha_to_one_limit_is_euler_gamma():
    got = alpha_one_limit(Fraction(2), 1, 256)
    with mp.workprec(320):
        assert _near(got, mp.euler, 256)


# ---------------------------------------------------------------------------
# sublemma sums

def test_sublemma_series_matches_closed():
    state = SublemmaState(3, Fraction(1, 2))
    closed = sublemma_sum(state, 192)
    series = sublemma_sum_series(state, 192)
    with mp.workprec(256):
        assert abs(closed.to_mpc() - series.to_mpc()) < mp.mpf(2) ** -150


def test_sublemma_order_recurrence():
    # S_n(u) = S_{n-1}(u) - zeta(n+1, u+2)
    u = Fraction(1, 3)
    for n in range(2, 6):
        lhs = sublemma_sum(SublemmaState(n, u), 192)
        rhs = sublemma_sum(SublemmaState(n - 1, u), 192)
        with mp.workprec(256):
            step = mp.zeta(n + 1, mp.mpf(u.numerator) / u.denominator + 2)
            assert abs(lhs.to_mpc() - (rhs.to_mpc() - step)) < mp.mpf(2) ** -160


def test_sublemma_state_validation():
    with pytest.raises(DomainError):
        SublemmaState(0, Fraction(1, 2))
    with pytest.raises(DomainError):
        SublemmaState(2, Fraction(-2))


# ---------------------------------------------------------------------------
# paired integral

def test_pair_integral_closed_values():
    got1 = frac_pair_integral(1, 256)
    got2 = frac_pair_integral(2, 256)
    with mp.workprec(320):
        assert _near(got1, 2 * mp.euler - 1, 256)
        assert _near(got2, mp.euler - mp.mpf(1) / 2, 256)


@pytest.mark.parametrize("s", [3, 40, 100, 150, 300])
def test_pair_integral_keeps_its_bits_at_large_s(s):
    # the binomial piece cancels by about (3/2)^(s-2) against its terms
    got = frac_pair_integral(s, 96).to_mpc()
    want = frac_pair_integral(s, 256 + s).to_mpc()
    with mp.workprec(256 + s):
        assert abs(got - want) <= mp.ldexp(abs(want), -94)


@pytest.mark.parametrize("p", [64, 96, 256])
def test_pair_integral_at_one_is_within_its_last_bit(p):
    got = frac_pair_integral(1, p).to_mpc()
    with mp.workprec(p + 64):
        want = 2 * mp.euler - 1
        assert abs(got - want) <= mp.ldexp(abs(want), -p)


def test_pair_integral_report_consistency():
    for s in (1, 2, 3):
        report = pair_integral_report(s, 96)
        assert report.difference <= max(8 * report.quadrature_error_bound,
                                        mp.mpf(10) ** -12)


# ---------------------------------------------------------------------------
# alternating / direct transforms

@pytest.mark.parametrize("s", [Fraction(3, 2), Fraction(2), Fraction(13, 4)])
@pytest.mark.parametrize("j", [2, 3])
def test_fermi_closed_vs_series(j, s):
    result = fermi_bose_transform(j, TransformKind.FERMI, s, 256)
    assert result.difference < mp.mpf(10) ** -20


def test_bose_j1_is_two_zeta_three():
    result = fermi_bose_transform(1, TransformKind.BOSE, Fraction(2), 256)
    assert result.difference < mp.mpf(10) ** -25
    with mp.workprec(320):
        assert _near(result.closed_value, 2 * mp.zeta(3), 256)


def test_bose_fractional_s():
    result = fermi_bose_transform(2, TransformKind.BOSE, Fraction(5, 2), 256)
    assert result.difference < mp.mpf(10) ** -20


def test_fermi_complex_argument():
    result = fermi_bose_transform(2, TransformKind.FERMI, HPComplex(2, 1, 128), 128)
    assert result.difference < mp.mpf(10) ** -30


def _series_equals_closed(result, prec):
    with mp.workprec(prec + 64):
        closed = result.closed_value.to_mpc()
        return abs(result.series_value.to_mpc() - closed) <= mp.mpf(2) ** (8 - prec) * abs(closed)


def test_fermi_j2_at_s_one_takes_its_removable_value():
    result = fermi_bose_transform(2, TransformKind.FERMI, 1, 128)
    with mp.workprec(192):
        assert _near(result.closed_value, mp.zeta(2) / 2 - mp.log(2), 128, slack=8)
    assert _series_equals_closed(result, 128)


def test_general_alternating_route_at_sigma_one(monkeypatch):
    # j = 4, s = 3 puts sigma = s + 1 - q at 1 for q = 3, where the two
    # Hurwitz poles of the alternating sum cancel into digamma values
    calls = []
    digamma = fracpart.mp.digamma
    monkeypatch.setattr(fracpart.mp, "digamma", lambda x: calls.append(x) or digamma(x))
    result = fermi_bose_transform(4, TransformKind.FERMI, 3, 128)
    assert len(calls) == 2
    assert _series_equals_closed(result, 128)


def test_transform_domains():
    with pytest.raises(DomainError):
        fermi_bose_transform(3, TransformKind.FERMI, Fraction(1, 2), 128)
    with pytest.raises(DomainError):
        fermi_bose_transform(2, TransformKind.BOSE, Fraction(1, 2), 128)
    with pytest.raises(DomainError):
        fermi_bose_transform(0, TransformKind.FERMI, Fraction(2), 128)
    with pytest.raises(DomainError):
        fermi_bose_transform(2, "fermi", Fraction(2), 128)


def _panel_arguments(j):
    """An integer, a fractional, a complex and a far-complex s for j; each
    has Re s > j - 1, the direct kind's half-plane."""
    return (j + 1, Fraction(2 * j + 1, 2), GaussianRational(j + 1, 2),
            GaussianRational(Fraction(2 * j - 1, 2), -45), GaussianRational(j + 2, 40))


@pytest.mark.parametrize("prec", [128, 256])
@pytest.mark.parametrize("kind", list(TransformKind), ids=lambda k: k.value)
@pytest.mark.parametrize("j", [1, 2, 3, 4])
def test_transform_panel_series_equals_closed(j, kind, prec):
    for s in _panel_arguments(j):
        result = fermi_bose_transform(j, kind, s, prec)
        with mp.workprec(prec + 64):
            closed = result.closed_value.to_mpc()
            err = abs(result.series_value.to_mpc() - closed)
            assert err <= mp.mpf(2) ** (8 - prec) * abs(closed), (s, err)


def test_transforms_do_not_call_nsum(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("mp.nsum called")

    monkeypatch.setattr(mp.mp, "nsum", refuse)
    for kind in TransformKind:
        for s in (Fraction(7, 2), GaussianRational(3, 2), GaussianRational(3, 40)):
            result = fermi_bose_transform(2, kind, s, 128)
            assert result.difference <= mp.mpf(2) ** -120 * abs(result.closed_value.to_mpc())


def test_transform_refusals_are_typed(monkeypatch):
    # a height past the term budget is refused before any summing, and so is
    # a direct sum whose stated remainder misses the tolerance
    for kind in TransformKind:
        with pytest.raises(ConvergenceError):
            fermi_bose_transform(1, kind, GaussianRational(3, 300_000), 128)
    monkeypatch.setattr(fracpart, "_euler_maclaurin_tail",
                        lambda *args: (mp.mpc(0), mp.mpf(2) ** -100))
    with pytest.raises(ConvergenceError):
        fermi_bose_transform(1, TransformKind.BOSE, 3, 128)


@pytest.mark.parametrize("j, sigma, start, order", [
    (1, 3, 4, 3),
    (2, mp.mpf(7) / 2, 20, 8),
    (3, mp.mpc(5, 2), 40, 6),
    (4, mp.mpf(9) / 2, 25, 8),
    (4, mp.mpc(6, -40), 40, 10),
    (2, mp.mpc(3, 1), 12, 10),
])
def test_euler_maclaurin_remainder_bounds_the_error(j, sigma, start, order):
    # the tail sum_{y >= start} of sum_q c_q y^(q - sigma) at 128 bits,
    # against the same tail as Hurwitz zetas at twice the precision
    def coeffs():
        return [mp.mpf(e) / math.factorial(j - 1) for e in fracpart._rising_factorial_coeffs(j)]

    with mp.workprec(128):
        value, bound = fracpart._euler_maclaurin_tail(coeffs(), mp.mpc(sigma), start, order)
    with mp.workprec(256):
        exact = mp.fsum(c * mp.zeta(mp.mpc(sigma) - q, start) for q, c in enumerate(coeffs()))
        err = abs(value - exact)
        assert mp.mpf(2) ** -100 < bound
        assert err <= bound
        assert bound <= 2 ** 6 * err  # a bound, not a blanket
