"""Core numeric types: exact rationals, high-precision complex, polynomials."""

from fractions import Fraction
from math import lcm

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legmellin.errors import DomainError
from legmellin.mpcore import (
    DEFAULT_PRECISION,
    GaussianRational,
    HPComplex,
    RationalPolynomial,
    _fixed_parts,
    as_rational,
    exact_or_none,
    fixed_point_horner,
    poly_affine_substitute,
    rational_to_mpf,
    to_mpc,
)
from legmellin.criticality import find_roots
from legmellin.mellin import poly_factor

rationals = st.fractions(
    min_value=Fraction(-50), max_value=Fraction(50), max_denominator=64)


def test_as_rational_accepts_strings_and_ints():
    assert as_rational("3/4") == Fraction(3, 4)
    assert as_rational(7) == Fraction(7)
    assert as_rational(Fraction(-2, 6)) == Fraction(-1, 3)


def test_rational_to_mpf_is_ambient_independent():
    # conversion must honor the requested width, not mp.prec
    x = rational_to_mpf(Fraction(1, 3), 256)
    with mp.workprec(300):
        err = abs(x - mp.mpf(1) / 3)
    assert err < mp.mpf(2) ** -250


@settings(max_examples=300, deadline=None)
@given(num=st.one_of(st.integers(-2 ** 40, 2 ** 40), st.integers(-2 ** 700, 2 ** 700)),
       den=st.one_of(st.integers(1, 2 ** 40), st.integers(1, 2 ** 700)),
       precision_bits=st.integers(10, 500), ambient=st.integers(10, 500))
def test_rational_to_mpf_rounds_like_a_workprec_quotient(num, den, precision_bits, ambient):
    # the reference is the quotient of two mpf integers under workprec
    x = Fraction(num, den)
    with mp.workprec(precision_bits):
        want = mp.mpf(x.numerator) / mp.mpf(x.denominator)
    with mp.workprec(ambient):
        got = rational_to_mpf(x, precision_bits)
    assert got._mpf_ == want._mpf_


def test_hpcomplex_rejects_low_precision():
    with pytest.raises(DomainError):
        HPComplex(1, 0, 32)


def test_hpcomplex_roundtrip_keeps_bits():
    with mp.workprec(320):
        third = mp.mpf(1) / 3
    z = HPComplex(third, 0, 256)
    back = z.to_mpc()
    # mantissa must not collapse to the 53-bit ambient default
    assert back.real._mpf_[3] > 200


def test_hpcomplex_arithmetic_uses_max_precision():
    a = HPComplex(1, 2, 128)
    b = HPComplex(Fraction(1, 3), 0, 256)
    assert (a + b).precision_bits == 256
    assert (a * b).precision_bits == 256


def test_hpcomplex_equality_by_value():
    a = HPComplex(Fraction(1, 2), 0, 128)
    assert a == Fraction(1, 2)
    assert a == HPComplex(Fraction(1, 2), 0, 256)
    assert a != HPComplex(Fraction(1, 2), 1, 128)


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=60, deadline=None)
def test_gaussian_rational_mul_matches_complex(ar, ai, br, bi):
    a = GaussianRational(ar, ai)
    b = GaussianRational(br, bi)
    prod = a * b
    assert prod.re == ar * br - ai * bi
    assert prod.im == ar * bi + ai * br


def _general(op, a, b):
    # the full complex formulas on (re, im) pairs of Fractions
    (ar, ai), (br, bi) = a, b
    if op == "+":
        return ar + br, ai + bi
    if op == "-":
        return ar - br, ai - bi
    if op == "*":
        return ar * br - ai * bi, ar * bi + ai * br
    d = br * br + bi * bi
    return (ar * br + ai * bi) / d, (ai * br - ar * bi) / d


_OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
        "*": lambda x, y: x * y, "/": lambda x, y: x / y}


@given(rationals, rationals, st.one_of(st.integers(-50, 50), rationals),
       st.sampled_from(["int/Fraction", "real Gaussian", "complex Gaussian"]),
       st.sampled_from(sorted(_OPS)))
@settings(max_examples=200, deadline=None)
def test_gaussian_rational_mixed_operands_match_general_formula(ar, ai, x, kind, op):
    a = GaussianRational(ar, ai)
    if kind == "int/Fraction":
        other, parts = x, (Fraction(x), Fraction(0))
    elif kind == "real Gaussian":
        other, parts = GaussianRational(x), (Fraction(x), Fraction(0))
    else:
        other, parts = GaussianRational(x, ar + 1), (Fraction(x), ar + 1)
    for left, right, lparts, rparts in ((a, other, (ar, ai), parts),
                                        (other, a, parts, (ar, ai))):
        if op == "/" and rparts == (0, 0):
            with pytest.raises(ZeroDivisionError):
                _OPS[op](left, right)
            continue
        got = _OPS[op](left, right)
        assert isinstance(got, GaussianRational)
        assert (got.re, got.im) == _general(op, lparts, rparts)
        assert type(got.re) is Fraction and type(got.im) is Fraction


def test_gaussian_i_powers_cycle():
    assert GaussianRational.i_power(0) == GaussianRational(1)
    assert GaussianRational.i_power(1) == GaussianRational(0, 1)
    assert GaussianRational.i_power(5) == GaussianRational(0, 1)
    assert GaussianRational.i_power(-1) == GaussianRational(0, -1)


def test_polynomial_normalizes_trailing_zeros():
    p = RationalPolynomial([1, 2, 0, 0])
    assert p.degree == 1
    assert p.coefficients == (Fraction(1), Fraction(2))


def test_polynomial_zero_degree_convention():
    z = RationalPolynomial([0, 0])
    assert z.is_zero
    assert z.degree == -1


@given(st.lists(rationals, min_size=1, max_size=5),
       st.lists(rationals, min_size=1, max_size=5),
       rationals)
@settings(max_examples=60, deadline=None)
def test_polynomial_product_evaluates_pointwise(ca, cb, x):
    p, q = RationalPolynomial(ca), RationalPolynomial(cb)
    assert (p * q).eval_rational(x) == p.eval_rational(x) * q.eval_rational(x)


def test_affine_substitute_shifts_argument():
    p = RationalPolynomial([Fraction(9, 2), -4, 4])
    shifted = poly_affine_substitute(p, Fraction(1), Fraction(1))  # s -> s+1
    for x in (Fraction(0), Fraction(3, 2), Fraction(-2)):
        assert shifted.eval_rational(x) == p.eval_rational(x + 1)


def test_affine_substitute_reflection():
    p = RationalPolynomial([-1, 2])  # 2s - 1
    reflected = poly_affine_substitute(p, Fraction(-1), Fraction(1))  # s -> 1-s
    assert reflected.coefficients == (Fraction(1), Fraction(-2))


def test_affine_substitute_with_zero_slope_is_the_constant():
    p = RationalPolynomial([Fraction(9, 2), -4, 4])
    for b in (Fraction(0), Fraction(3, 2), Fraction(-7, 3)):
        assert poly_affine_substitute(p, 0, b) == RationalPolynomial([p.eval_rational(b)])
    assert poly_affine_substitute(RationalPolynomial([]), 0, 1).is_zero



# The Fraction loops the integer routines replaced, kept as the reference:
# Fractions are canonical, so the two must agree exactly.

def _fraction_substitute(p, a, b):
    a, b = as_rational(a), as_rational(b)
    acc = RationalPolynomial.zero()
    for c in reversed(p.coefficients):
        acc = acc.times_linear(a, b) + RationalPolynomial((c,))
    return acc


def _fraction_eval(p, x):
    x = as_rational(x)
    acc = Fraction(0)
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc


_REFERENCE_POLYS = [RationalPolynomial.zero(), RationalPolynomial([Fraction(-7, 3)])] + [
    poly_factor(n, m).poly for n, m in ((2, 0), (9, 0), (24, 2), (59, 10), (120, 0),
                                        (201, 4), (300, 0))]
_AFFINE_MAPS = [(1, Fraction(1, 2)), (-1, 1), (1, 2), (1, -2),
                (Fraction(3, 7), Fraction(-5, 3)), (0, Fraction(2, 3))]
_EVAL_POINTS = [0, -3, Fraction(-7, 3), Fraction(5, 11), Fraction(3, 2 ** 200),
                Fraction(-1, 2 ** 61),
                Fraction(12345678901234567, 98765432109876543) ** 3]


@pytest.mark.parametrize("p", _REFERENCE_POLYS, ids=lambda p: f"deg{p.degree}")
@pytest.mark.parametrize("a, b", _AFFINE_MAPS)
def test_affine_substitute_matches_the_fraction_loop(p, a, b):
    assert poly_affine_substitute(p, a, b).coefficients == \
        _fraction_substitute(p, a, b).coefficients


@pytest.mark.parametrize("p", _REFERENCE_POLYS, ids=lambda p: f"deg{p.degree}")
def test_eval_rational_matches_the_fraction_loop(p):
    for x in _EVAL_POINTS:
        got = p.eval_rational(x)
        assert type(got) is Fraction and got == _fraction_eval(p, x)


@given(st.lists(rationals, max_size=8), rationals, rationals, rationals)
@settings(max_examples=80, deadline=None)
def test_integer_routines_match_the_fraction_loops(coeffs, a, b, x):
    p = RationalPolynomial(coeffs)
    assert poly_affine_substitute(p, a, b) == _fraction_substitute(p, a, b)
    assert p.eval_rational(x) == _fraction_eval(p, x)


def test_structural_equality_distinguishes_padding():
    # equality compares the normalized coefficients: trailing zeros drop
    assert RationalPolynomial([1, 1]) == RationalPolynomial([1, 1, 0])
    assert RationalPolynomial([1, 1]) != RationalPolynomial([1, 2])


# ---------------------------------------------------------------------------
# the shared scalar readers

THIRD = rational_to_mpf(Fraction(1, 3), 256)
with mp.workprec(300):
    WIDE_THIRD = mp.mpf(1) / 3
    WIDE_COMPLEX = mp.mpc(WIDE_THIRD, -1)

TO_MPC_CASES = [
    (3, (3, 0)),
    (Fraction(1, 3), (THIRD, 0)),
    ("1/3", (THIRD, 0)),
    (GaussianRational(1, Fraction(1, 3)), (1, THIRD)),
    (0.1, (0.1, 0)),
    (complex(0.5, -2), (0.5, -2)),
    (WIDE_THIRD, (THIRD, 0)),
    (WIDE_COMPLEX, (THIRD, -1)),
    (HPComplex(Fraction(1, 3), 2, 256), (THIRD, 2)),
]


@pytest.mark.parametrize("value, parts", TO_MPC_CASES,
                         ids=lambda v: type(v).__name__)
def test_to_mpc_ignores_the_ambient_precision(value, parts):
    with mp.workprec(53):
        narrow = to_mpc(value, 256)
    with mp.workprec(256):
        wide = to_mpc(value, 256)
        want = mp.mpc(*parts)
    assert narrow == wide == want


def _rounded_read(value, precision_bits):
    # mpmath's own read of a value at precision_bits
    with mp.workprec(precision_bits):
        z = mp.mpc(value)
    if not mp.isfinite(z):
        raise DomainError("not finite")
    return z


@st.composite
def _mp_values(draw):
    """(value, precision_bits): an mpf or mpc whose parts have mantissas
    of about precision_bits bits, often exactly at the boundary."""
    precision_bits = draw(st.integers(53, 400))

    def part():
        if draw(st.integers(0, 5)) == 0:
            return mp.mpf(0)
        bits = max(1, precision_bits + draw(st.one_of(
            st.integers(-2, 2), st.integers(-precision_bits, 40))))
        man = draw(st.integers(2 ** (bits - 1), 2 ** bits - 1)) | 1
        with mp.workprec(bits):
            return mp.mpf((draw(st.sampled_from([1, -1])) * man,
                           draw(st.integers(-700, 700))))

    real = part()
    if draw(st.booleans()):
        return real, precision_bits
    imag = part()
    with mp.workprec(precision_bits + 64):
        return mp.mpc(real, imag), precision_bits


@settings(max_examples=300, deadline=None)
@given(case=_mp_values(), ambient=st.integers(10, 500))
def test_to_mpc_rounds_mp_values_like_a_workprec_read(case, ambient):
    value, precision_bits = case
    with mp.workprec(ambient):
        got = to_mpc(value, precision_bits)
    assert got._mpc_ == _rounded_read(value, precision_bits)._mpc_


EXACT_CASES = [
    (3, GaussianRational(3)),
    (Fraction(1, 3), GaussianRational(Fraction(1, 3))),
    ("-5/2", GaussianRational(Fraction(-5, 2))),
    (GaussianRational(1, 2), GaussianRational(1, 2)),
    (2.0, GaussianRational(2)),
    (2.5, None),
    (complex(2, 0), GaussianRational(2)),
    (complex(2, 1), None),
    (mp.mpf(-4), GaussianRational(-4)),
    (mp.mpf(0.5), None),
    (mp.mpc(3, 0), GaussianRational(3)),
    (mp.mpc(3, 1), None),
    (HPComplex(4, 0, 128), GaussianRational(4)),
    (HPComplex(Fraction(1, 3), 0, 128), None),
]


@pytest.mark.parametrize("value, want", EXACT_CASES,
                         ids=lambda v: type(v).__name__)
def test_exact_or_none_reads_each_accepted_type(value, want):
    assert exact_or_none(value) == want


@pytest.mark.parametrize("bad", [
    float("inf"), float("nan"), mp.inf, mp.nan, complex(1, float("inf")),
    mp.mpc(mp.nan, 0), HPComplex(mp.inf, 0, 128), "2+3i",
], ids=str)
def test_readers_refuse_non_finite_and_unreadable_scalars(bad):
    with pytest.raises(DomainError):
        to_mpc(bad, 128)
    with pytest.raises(DomainError):
        exact_or_none(bad)


@pytest.mark.parametrize("n, m", [(0, 0), (9, 0), (40, 4), (121, 10)])
def test_equality_and_hash_agree_across_construction_routes(n, m):
    # poly_factor builds from integers; the same polynomial read from its
    # Fractions, or from unreduced integers over a negative denominator,
    # is equal and hashes alike
    built = poly_factor(n, m).poly
    coeffs = built.coefficients
    assert built.coefficients is coeffs
    den = 6 * max(c.denominator for c in coeffs)
    nums = [c.numerator * den // c.denominator for c in coeffs] + [0, 0]
    for other in (RationalPolynomial(coeffs),
                  RationalPolynomial.from_integers([-v for v in nums], -den)):
        assert other == built and hash(other) == hash(built)
        assert other.coefficients == coeffs


# The fixed-point kernel behind eval_mpc, against exact values at dyadic
# points; mpf.man_exp drops the sign, so points are read from _mpf_.

def _gaussian(z):
    return GaussianRational(*(Fraction(*mp.libmp.to_rational(part._mpf_))
                              for part in (z.real, z.imag)))


_KERNEL_POINTS = [(3, 500), (Fraction(1, 2), 50), (Fraction(5, 4), 0), (-7, Fraction(3, 8)),
                  ("1/3", "1/7"), ("-2/3", 0), ("0.01", "-31.7"), ("1e-9", 0), (0, 0)]


@pytest.mark.parametrize("n, m, prec", [(12, 0, 64), (12, 0, 128), (61, 4, 64), (61, 4, 128),
                                        (120, 10, 64), (120, 10, 128), (800, 0, 64)])
def test_eval_mpc_is_within_its_bound_at_dyadic_points(n, m, prec):
    # degree up to 400; short mantissas and full ones of w = prec + 16 bits;
    # an accepted pass is within 2^-w before each part is rounded to w bits
    p = poly_factor(n, m).poly
    w = prec + 16
    for re, im in _KERNEL_POINTS:
        z = mp.make_mpc(tuple(rational_to_mpf(as_rational(v), w)._mpf_ for v in (re, im)))
        exact = p.eval_gaussian(_gaussian(z))
        got = p.eval_mpc(z, prec)
        with mp.workprec(w + 64):
            want = exact.to_mpc(w + 64)
            assert abs(got - want) <= mp.mpf(2) ** -(w - 2) * abs(want), (re, im)


def test_eval_mpc_widens_where_the_sum_cancels():
    # near a root p(z) is a tiny share of its terms: the first pass falls
    # short of the bound and reruns wider, up to the exact width d k
    cubic = RationalPolynomial([-1, 3]) * RationalPolynomial([-1, 3]) * RationalPolynomial([-1, 3])
    p = poly_factor(40, 0).poly
    w = 128 + 16
    third = rational_to_mpf(Fraction(1, 3), 300)._mpf_
    cases = [(cubic.times_linear(1, 2), mp.make_mpc((third, mp.mpf(0)._mpf_)))]
    cases += [(p, root.to_mpc()) for root in find_roots(p, 256)[-3:]]
    for poly, z in cases:
        exact = poly.eval_gaussian(_gaussian(to_mpc(z, w)))
        got = poly.eval_mpc(z, 128)
        with mp.workprec(w + 64):
            want = exact.to_mpc(w + 64)
            assert want != 0 and abs(got - want) <= mp.mpf(2) ** -(w - 2) * abs(want), z


@settings(max_examples=60, deadline=None)
@given(coeffs=st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=1, max_size=40),
       parts=st.tuples(st.integers(-2 ** 90, 2 ** 90), st.integers(-2 ** 90, 2 ** 90)),
       k=st.integers(0, 120), shift=st.integers(0, 200))
def test_fixed_point_horner_is_within_its_truncation_bound(coeffs, parts, k, shift):
    # |result - sum_j N_j 2^shift w^j| < sqrt(2) sum_{j<d} |w|^j units
    x, y = parts
    w = GaussianRational(Fraction(x, 2 ** k), Fraction(y, 2 ** k))
    got = fixed_point_horner([c << shift for c in coeffs], [0] * len(coeffs), x, y, k)
    exact = RationalPolynomial(coeffs).eval_gaussian(w) * 2 ** shift
    with mp.workprec(4000):
        err = abs(mp.mpc(*got) - exact.to_mpc(4000))
        modulus = abs(w.to_mpc(4000))
        assert err <= mp.sqrt(2) * mp.fsum(modulus ** j for j in range(len(coeffs) - 1))


def _integer_numerators(p):
    den = lcm(*(c.denominator for c in p.coefficients))
    return [int(c * den) for c in p.coefficients]


def _exact_error(got_re, got_im, want):
    # |got - want| for integer parts against an exact GaussianRational
    return abs((GaussianRational(got_re, got_im) - want).to_mpc(256))


@settings(max_examples=30, deadline=None)
@given(data=st.data(), nm=st.sampled_from([(2, 0), (12, 0), (61, 4), (120, 10), (800, 0)]),
       bits=st.sampled_from([6, 64, 272]), real=st.booleans(), shift=st.integers(0, 64))
def test_fixed_point_horner_derivative_is_within_its_truncation_bound(data, nm, bits, real, shift):
    # p and p' from one pass against exact eval_gaussian of p and of
    # p.derivative(): degree 1 to 400, real and complex dyadic w with short
    # and full-width mantissas, |w| within 2^4 of 1 either way
    nums = _integer_numerators(poly_factor(*nm).poly)
    d = len(nums) - 1
    if d == 400 and not real:
        bits = min(bits, 64)  # an exact complex Horner of degree 400 is slow beyond
    mantissa = st.integers(2 ** (bits - 1), 2 ** bits - 1).flatmap(
        lambda v: st.sampled_from([v, -v]))
    x, y = data.draw(mantissa), 0 if real else data.draw(mantissa)
    k = data.draw(st.integers(bits - 4, bits + 4))
    w = GaussianRational(Fraction(x, 2 ** k), Fraction(y, 2 ** k))
    vr, vi, dr, di = fixed_point_horner([c << shift for c in nums], [0] * len(nums), x, y, k,
                                        derivative=True)
    p = RationalPolynomial(nums)
    with mp.workprec(256):
        modulus = abs(w.to_mpc(256))
        assert _exact_error(vr, vi, p.eval_gaussian(w) * 2 ** shift) \
            <= mp.sqrt(2) * mp.fsum(modulus ** j for j in range(d))
        assert _exact_error(dr, di, p.derivative().eval_gaussian(w) * 2 ** shift) \
            <= mp.sqrt(2) * mp.fsum((j + 2) * modulus ** j for j in range(d - 1))


@pytest.mark.parametrize("n, m", [(12, 0), (61, 4), (200, 0)])
def test_fixed_eval_ratio_is_within_its_bound(n, m):
    # widened, p/p' = 2^e V / V' to 2^-(width-1) relative, also at the
    # rounded roots, where p cancels by about the precision
    p = poly_factor(n, m).poly
    points = [r.to_mpc() for r in find_roots(p, 128)[::7]]
    points += [mp.mpc(3, 50), mp.mpc(0.5, 2 ** -10)]
    width = 64
    for z in points:
        g = _gaussian(z)
        want = p.eval_gaussian(g) / p.derivative().eval_gaussian(g)
        (vr, vi, dr, di), _, e = p.fixed_eval(*_fixed_parts(*z._mpc_), width, True)
        with mp.workprec(256):
            got = mp.mpc(vr, vi) / mp.mpc(dr, di) * mp.mpf(2) ** e
            assert abs(got - want.to_mpc(256)) <= mp.mpf(2) ** -(width - 1) * abs(got), z


def _fixed_sign(p, q):
    """The sign of the sign proof's reading of p at the real mpf q."""
    x, _, k = _fixed_parts(q._mpf_, mp.mpf(0)._mpf_)
    value = p.fixed_eval(x, 0, k, 64)[0][0]
    return (value > 0) - (value < 0)


def test_fixed_eval_reads_the_exact_sign_and_zero():
    # (y - 1/2)(y - 3/4)(y + 5) has dyadic roots, where a widened value
    # stays within its bound and only the exact pass reads the sign 0
    assert _fixed_sign(RationalPolynomial.zero(), mp.mpf(1)) == 0
    cubic = RationalPolynomial([Fraction(-1, 2), 1]).times_linear(1, Fraction(-3, 4)) \
        .times_linear(1, 5)
    for p in (cubic, poly_factor(120, 0).poly):
        for x in (0, 0.5, 0.75, -5, 0.6, 1, -1e-30, 2 ** -200, 3e50, 1.0 / 3):
            q = mp.mpf(x)
            want = p.eval_rational(Fraction(*mp.libmp.to_rational(q._mpf_)))
            assert _fixed_sign(p, q) == (want > 0) - (want < 0), x
