"""Zero localization, exact functional equation, the three-term difference
equation, and the continuous-Hahn bridge."""

from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legmellin import criticality, mpcore
from legmellin.criticality import (
    HahnParams,
    critical_line_report,
    difference_equation_residual,
    difference_equation_symbolic,
    difference_equation_terms,
    find_roots,
    functional_equation_check,
    functional_equation_sign,
    hahn_constant,
    hahn_eval,
    hahn_eval_exact,
    hahn_proportionality,
)
from legmellin.errors import ConvergenceError, DomainError
from legmellin.mellin import poly_factor
from legmellin.mpcore import (
    GaussianRational,
    HPComplex,
    RationalPolynomial,
    poly_affine_substitute,
)


# ---------------------------------------------------------------------------
# root finding

def test_quadratic_roots_explicit():
    report = critical_line_report(4, 0, 256)
    assert len(report.roots) == 2
    lo, hi = sorted((r.to_mpc() for r in report.roots), key=lambda z: z.imag)
    with mp.workprec(320):
        imag = mp.sqrt(14) / 4
        half = mp.mpf(1) / 2
        assert abs(lo - (half - mp.mpc(0, 1) * imag)) < mp.mpf(2) ** -240
        assert abs(hi - (half + mp.mpc(0, 1) * imag)) < mp.mpf(2) ** -240


def test_single_root_is_exactly_half():
    report = critical_line_report(2, 0, 128)
    assert report.roots[0] == Fraction(1, 2)
    assert report.max_deviation == 0


def test_certificates_and_deviation():
    for n in (6, 11, 20, 200):
        report = critical_line_report(n, 0, 256)
        assert report.max_deviation <= mp.mpf(10) ** -25
        assert report.shift_deviation <= report.certificate_tolerance
        assert all(r <= report.certificate_tolerance for r in report.residuals)


def test_higher_precision_tightens_roots():
    report = critical_line_report(24, 0, 512)
    assert report.max_deviation < mp.mpf(10) ** -60


def test_nonzero_order_zeros():
    report = critical_line_report(10, 4, 256)
    assert report.max_deviation <= mp.mpf(10) ** -25


def test_constant_factor_rejected():
    with pytest.raises(DomainError):
        critical_line_report(1, 0, 128)


def test_find_roots_on_plain_polynomial():
    # (s - 1/2)(s - 3/2) expanded: p(1 - s) is not +-p(s)
    p = RationalPolynomial([Fraction(3, 4), -2, 1])
    with pytest.raises(DomainError):
        find_roots(p, 192)


def test_line_route_matches_polyroots():
    # mpmath's polyroots (Durand-Kerner) is an oracle independent of the
    # line route; it runs 64 bits above the precision asked for
    for bits in (256, 512):
        for m in (0, 2, 4):
            for n in range(m + 2, 41):
                p = poly_factor(n, m).poly
                proved = find_roots(p, bits)
                with mp.workprec(bits + 64):
                    want = sorted(mp.polyroots(
                        [mp.mpf(c.numerator) / c.denominator for c in reversed(p.coefficients)],
                        maxsteps=200, extraprec=bits), key=lambda z: mp.im(z))
                    assert len(want) == len(proved), (n, m, bits)
                    for got, oracle in zip(proved, want):
                        z = got.to_mpc()
                        assert abs(z - oracle) <= mp.mpf(2) ** (2 - bits) * abs(z), (n, m, bits)


def test_report_makes_one_root_solve(monkeypatch):
    calls = []
    solve = criticality.find_roots

    def counted(p, precision_bits):
        calls.append(p.degree)
        return solve(p, precision_bits)

    monkeypatch.setattr(criticality, "find_roots", counted)
    report = critical_line_report(13, 0, 256)
    assert calls == [6]
    assert report.shift_deviation == 0


def test_report_raises_when_the_cross_check_does_not_settle(monkeypatch):
    # the roots are proven first; only the real Newton re-polish on R fails
    solve = criticality.find_roots

    def solve_then_break_newton(p, precision_bits):
        roots = solve(p, precision_bits)
        monkeypatch.setattr(criticality, "_newton_maehly", lambda *args: None)
        return roots

    monkeypatch.setattr(criticality, "find_roots", solve_then_break_newton)
    with pytest.raises(ConvergenceError):
        critical_line_report(13, 0, 256)


def test_symmetric_roots_off_the_line_fall_back():
    # (s - 2)(s + 1) = s^2 - s - 2 satisfies p(1 - s) = p(s), but its roots
    # are real: R(y) = -y - 9/4 has no positive root
    p = RationalPolynomial([-2, -1, 1])
    with pytest.raises(ConvergenceError):
        find_roots(p, 192)
    # p(1/2 + x) = (x^2 + 9)^2 + 1/1000: R(y) = (y - 9)^2 + 1/1000 has no
    # real root, though the locator returns two positive values for it; the
    # sign proof rejects them, as every root sits about 0.0053 off the line
    p = poly_affine_substitute(
        RationalPolynomial([Fraction(81001, 1000), 0, 18, 0, 1]), 1, Fraction(-1, 2))
    with pytest.raises(ConvergenceError):
        find_roots(p, 192)


def test_double_root_on_the_line_refused():
    # (s - 1/2)^2 (s^2 - s + 5/4)
    p = RationalPolynomial([Fraction(1, 4), -1, 1]) * RationalPolynomial([Fraction(5, 4), -1, 1])
    with pytest.raises(ConvergenceError):
        find_roots(p, 256)
    with pytest.raises(ConvergenceError):
        find_roots(p, 512)


@pytest.mark.parametrize("located, proves", [
    ([2, 5], True),        # checked at 0, 7/2 and 10: signs +, -, +
    ([1, 3], False),       # the midpoint 2 is a root, where the sign is 0
    ([6, 7], False),       # 0, 13/2 and 14 give +, +, +
])
def test_sign_proof_needs_nonzero_alternating_signs(located, proves):
    # the located roots are integers at 2^-k, at the unit scale and below it
    r = RationalPolynomial([-2, 1]) * RationalPolynomial([-5, 1])
    for k in (0, 40):
        assert criticality._sign_alternation_proves(r, [y << k for y in located], k) is proves


def test_planted_exact_zero_is_refused_within_two_passes(monkeypatch):
    # R of degree 50 with a root at rho, a dyadic with a 1,001-bit
    # fraction, and located roots whose first midpoint is rho: a widened
    # pass truncates that exact zero to a few units at every width, so
    # the proof must go straight to the exact pass
    k = 1000
    rho = 1 + Fraction(3 ** 600, 2 ** (k + 1))
    r = RationalPolynomial([-rho, 1])
    for i in range(1, 50):
        r = r.times_linear(1, -(Fraction(i, 3) + Fraction(1, 7)))
    mid = rho.numerator
    ys = [mid // 2 - (1 << (k - 4))]
    ys += [mid - ys[0]] + [(j + 5) << k for j in range(48)]
    passes = []
    horner = mpcore.fixed_point_horner

    def counted(coeffs_re, coeffs_im, x, *rest, **kwargs):
        passes.append(x)
        return horner(coeffs_re, coeffs_im, x, *rest, **kwargs)

    monkeypatch.setattr(mpcore, "fixed_point_horner", counted)
    assert r.degree == 50 and len(ys) == 50
    assert criticality._sign_alternation_proves(r, ys, k) is False
    assert 1 <= passes.count(mid) <= 2


@pytest.mark.parametrize("bits", [128, 192, 256])
@pytest.mark.parametrize("p,error", [
    # (s - 1/2)^2 (s^2 - s + 5/4): symmetric, so only the exact proof can refuse it
    (RationalPolynomial([Fraction(1, 4), -1, 1]) * RationalPolynomial([Fraction(5, 4), -1, 1]),
     ConvergenceError),
    # (s - 2)^2 (s + 3): no symmetry, outside the domain
    (RationalPolynomial([-2, 1]) * RationalPolynomial([-2, 1]) * RationalPolynomial([3, 1]),
     DomainError),
], ids=["on-the-line", "real"])
def test_find_roots_refuses_a_double_root(p, error, bits):
    with pytest.raises(error):
        find_roots(p, bits)


@given(st.lists(st.fractions(min_value=Fraction(1, 16), max_value=64, max_denominator=16),
                min_size=1, max_size=6, unique=True),
       st.booleans(), st.sampled_from([128, 256]))
@settings(max_examples=40, deadline=None)
def test_line_roots_of_planted_heights(heights, centre, bits):
    # prod ((s - 1/2)^2 + y) = prod (s^2 - s + 1/4 + y), times (s - 1/2)
    p = RationalPolynomial([Fraction(-1, 2), 1]) if centre else RationalPolynomial.one()
    for y in heights:
        p = p * RationalPolynomial([Fraction(1, 4) + y, -1, 1])
    roots = find_roots(p, bits)
    assert len(roots) == p.degree
    assert all(r.real == Fraction(1, 2) for r in roots)
    with mp.workprec(bits + 64):
        want = sorted(sgn * mp.sqrt(mp.mpf(y.numerator) / y.denominator)
                      for y in heights for sgn in (-1, 1))
        if centre:
            want = sorted(want + [mp.mpf(0)])
        for r, t in zip(roots, want):
            assert abs(r.imag - t) <= mp.mpf(2) ** (16 - bits) * abs(r.to_mpc())


@pytest.mark.parametrize("bits", [128, 256])
@pytest.mark.parametrize("centre", [False, True])
@pytest.mark.parametrize("heights", [
    [Fraction(3, 5 * 2 ** 19), Fraction(5, 7), Fraction(2 ** 40 + 3)],
    [Fraction(3, 7 * 2 ** 159), Fraction(2), Fraction(9 * 2 ** 17)],
], ids=["2^-20", "2^-160"])
def test_line_roots_of_planted_heights_far_apart(heights, centre, bits):
    # R has roots near 2^-20 and 2^40, or near 2^-160 and 2^20.  The locator
    # runs at one absolute scale 2^-k, and k grows by -log2 of R's smallest
    # root (at least -N_0/N_1), so a tiny root keeps its relative bits
    p = RationalPolynomial([Fraction(-1, 2), 1]) if centre else RationalPolynomial.one()
    for y in heights:
        p = p * RationalPolynomial([Fraction(1, 4) + y, -1, 1])
    roots = find_roots(p, bits)
    assert len(roots) == p.degree
    with mp.workprec(bits + 64):
        want = sorted(sgn * mp.sqrt(mp.mpf(y.numerator) / y.denominator)
                      for y in heights for sgn in (-1, 1))
        if centre:
            want = sorted(want + [mp.mpf(0)])
        for r, t in zip(roots, want):
            assert r.real == Fraction(1, 2)
            assert abs(r.imag - t) <= mp.mpf(2) ** (16 - bits) * abs(t)


def test_heights_of_p400_are_correctly_rounded():
    # deg R = 100 and a monomial-basis condition of about 2^77: the locator
    # keeps every 256-bit height correctly rounded (against a 512-bit run),
    # and the cross-check on R moves none of them
    report = critical_line_report(400, 0, 256)
    reference = find_roots(poly_factor(400, 0).poly, 512)
    assert report.shift_deviation == 0
    with mp.workprec(256):
        assert [r.imag for r in report.roots] == [+r.imag for r in reference]


def test_report_builds_the_half_polynomial_once(monkeypatch):
    calls = []
    shift = criticality.poly_affine_substitute

    def counted(*args):
        calls.append(args)
        return shift(*args)

    monkeypatch.setattr(criticality, "poly_affine_substitute", counted)
    criticality._half_polynomial.cache_clear()
    critical_line_report(13, 0, 256)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# functional equation

def test_sign_depends_on_reduced_degree():
    assert functional_equation_sign(4, 0) == 1
    assert functional_equation_sign(2, 0) == -1
    assert functional_equation_sign(5, 0) == 1
    # m = 2 mod 4 flips relative to the n-only reading
    assert functional_equation_sign(4, 2) == -1
    assert functional_equation_sign(6, 2) == 1


def test_sign_domain():
    with pytest.raises(DomainError):
        functional_equation_sign(4, 1)
    with pytest.raises(DomainError):
        functional_equation_sign(2, 4)


@given(st.integers(min_value=0, max_value=120))
@settings(max_examples=40, deadline=None)
def test_reflection_identity_m0(n):
    assert functional_equation_check(n, 0)


@pytest.mark.parametrize("n,m", [(2, 2), (4, 2), (6, 2), (8, 4), (10, 6), (12, 12)])
def test_reflection_identity_even_m(n, m):
    assert functional_equation_check(n, m)


# ---------------------------------------------------------------------------
# difference equation

@pytest.mark.parametrize("s", [Fraction(5, 2), Fraction(3), HPComplex(3, 1, 256)])
@pytest.mark.parametrize("n,m", [(2, 0), (7, 0), (12, 2)])
def test_difference_equation_numeric(n, m, s):
    terms = difference_equation_terms(n, s, m, 256)
    residual = difference_equation_residual(n, s, m, 256)
    scale = max(max(t.abs_value() for t in terms), mp.mpf(1))
    with mp.workprec(320):
        assert residual.abs_value() / scale < mp.mpf(10) ** -20


def test_difference_equation_domain():
    with pytest.raises(DomainError):
        difference_equation_terms(4, Fraction(3, 2), 0, 128)


def test_difference_equation_symbolic_zero():
    for n in range(2, 31):
        assert difference_equation_symbolic(n, 0).is_zero
    assert difference_equation_symbolic(12, 2).is_zero


# ---------------------------------------------------------------------------
# continuous Hahn bridge

def test_hahn_exact_spread_is_zero():
    samples = [Fraction(2), Fraction(3), Fraction(5, 2), Fraction(7, 3), Fraction(9, 4)]
    for n in range(1, 8):
        assert hahn_proportionality(n, samples, 256) == 0


def test_hahn_constant_powers_of_minus_four_i():
    want = GaussianRational(1)
    minus_four_i = GaussianRational(0, -4)
    for n in range(1, 8):
        want = want * minus_four_i
        assert hahn_constant(n) == want


def test_hahn_eval_exact_matches_float():
    params = HahnParams(Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(1, 2) - 3)
    x = GaussianRational(0, Fraction(-5, 4))
    exact = hahn_eval_exact(3, x, params).to_hpcomplex(192)
    floated = hahn_eval(3, HPComplex.from_value(mp.mpc(0, -1.25), 192), params, 192)
    with mp.workprec(256):
        assert abs(exact.to_mpc() - floated.to_mpc()) < mp.mpf(2) ** -150


def test_hahn_domain_checks():
    with pytest.raises(DomainError):
        hahn_proportionality(0, [Fraction(2), Fraction(3)])
    with pytest.raises(DomainError):
        hahn_proportionality(2, [Fraction(2)])


def test_hahn_eval_refuses_an_unreadable_string():
    params = HahnParams(Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(1, 2) - 3)
    with pytest.raises(DomainError):
        hahn_eval(3, "2+3i", params)


def test_hahn_eval_refuses_a_negative_degree_at_an_inexact_point():
    # an inexact x takes the hypergeometric route, where n < 0 is a gamma pole
    params = HahnParams(Fraction(-3), Fraction(0), Fraction(1, 2), Fraction(1, 2) - 3)
    with pytest.raises(DomainError, match="n >= 0"):
        hahn_eval(-1, HPComplex.from_value(mp.mpc(0, -1.25), 128), params, 128)


def test_hahn_spread_reads_mixed_exact_and_float_samples():
    assert hahn_proportionality(3, [Fraction(2), 2.5]) == hahn_proportionality(3, [2.0, 2.5])
