"""Closed forms, polynomial factors, representation catalog, generating
series."""

import contextlib
import hashlib
import signal
import sys
from fractions import Fraction
from math import comb, factorial

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legmellin import mellin
from legmellin.criticality import functional_equation_check
from legmellin.errors import DomainError
from legmellin.mpcore import (
    GUARD_BITS,
    GaussianRational,
    HPComplex,
    RationalPolynomial,
    exact_or_none,
    to_mpc,
)
from legmellin.quadrature import tanh_sinh
from legmellin.specfun import (
    HypergeometricSpec,
    double_factorial,
    hyp_pfq,
    terminating_coefficients,
)
from legmellin.mellin import (
    RepVariant,
    genfun,
    mellin_closed,
    mellin_odd_order_exact,
    mellin_quadrature,
    mellin_recursion_reference,
    mellin_rep,
    order_one_exact,
    order_one_rationality_check,
    order_one_reference,
    poly_factor,
    special_value_at_1,
    special_value_at_1_rational,
    variant_is_quadrature,
)

S_POINTS = (Fraction(3, 4), Fraction(3, 2), Fraction(5, 2))


def _close(a: HPComplex, b, prec: int, slack: int = 20) -> bool:
    with mp.workprec(prec + 64):
        return abs(a.to_mpc() - (b.to_mpc() if isinstance(b, HPComplex) else b)) \
            < mp.mpf(2) ** (-(prec - slack))


# ---------------------------------------------------------------------------
# polynomial factors

FROZEN_POLYS = {
    (0, 0): (Fraction(1),),
    (1, 0): (Fraction(1),),
    (2, 0): (Fraction(-1), Fraction(2)),
    (3, 0): (Fraction(-1), Fraction(2)),
    (4, 0): (Fraction(9, 2), Fraction(-4), Fraction(4)),
    (5, 0): (Fraction(29, 2), Fraction(-4), Fraction(4)),
    (4, 2): (Fraction(-45), Fraction(90)),
}


@pytest.mark.parametrize("key", sorted(FROZEN_POLYS))
def test_frozen_polynomial_factors(key):
    n, m = key
    assert poly_factor(n, m).poly.coefficients == FROZEN_POLYS[key]


def test_poly_leading_coefficient_and_degree():
    for n in range(201):
        p = poly_factor(n, 0).poly
        assert p.degree == n // 2
        assert p.leading_coefficient == 2 ** (n // 2)


# SHA-256 of str(coefficients), pinned from builds by the two-branch degree
# recursion (monomial and falling-factorial bases) that the one-degree L8
# build replaced: the exact rationals must not move
POLY_DIGESTS = {
    (100, 0): "530335021623724a1b0ba59b37b0e42b47d5986d537f8b6572b27c9296fd7776",
    (200, 0): "c24b22ee11323d7d26a4572e0f2300dc2fe8ee557500e992b4d000015d9ac20b",
    (300, 0): "237704fd9a157c7dc9d71cf9f4db2ae0bd9e06bc847f9b95650045e17ea17c95",
    (150, 2): "0d279a321f233eba3613806784bf686fa0074acc72f631e8715842e124f5b713",
    (201, 10): "0055527c84b12707a966c3212aa2ba077051054a2f47621f7946d6cdfba34321",
    (800, 0): "70ee1b39ecbda4764f74c00d7dc7eb349fef844257f56ecdc3d14dce41891166",
    (1200, 0): "1c3de117d2f0733b4ebbea94016c0eb814b129afca3e96cf0c834a2b300f3fa2",
    (601, 20): "d2526dfb7a073c7edd134c369d3f5a888e2a3d47d9abfc43c63afac32bc19c3b",
}


@pytest.mark.parametrize("key", sorted(POLY_DIGESTS))
def test_high_degree_polynomial_digests(key):
    coeffs = poly_factor(*key).poly.coefficients
    assert hashlib.sha256(str(coeffs).encode()).hexdigest() == POLY_DIGESTS[key]


@pytest.mark.parametrize("n, m", [(300, 0), (201, 10)])
def test_reflection_identity_at_high_degree(n, m):
    # p_n(s) = (-1)^floor(n/2) p_n(1-s), proved over the rationals
    assert functional_equation_check(n, m)


def test_poly_factor_rejects_bad_orders():
    with pytest.raises(DomainError):
        poly_factor(-1, 0)
    with pytest.raises(DomainError):
        poly_factor(3, -2)


# ---------------------------------------------------------------------------
# closed-form anchors (classical Beta-integral values)

ANCHORS = [
    (0, 0, Fraction(1), lambda: mp.pi / 2),
    (1, 0, Fraction(1), lambda: mp.mpf(1)),
    (2, 0, Fraction(1), lambda: mp.pi / 8),
    (4, 0, Fraction(1), lambda: 9 * mp.pi / 128),
    (2, 0, Fraction(3), lambda: 5 * mp.pi / 32),
    (4, 0, Fraction(3), lambda: 19 * mp.pi / 256),
    (4, 2, Fraction(1), lambda: 45 * mp.pi / 32),
]


@pytest.mark.parametrize("n,m,s,want", ANCHORS)
def test_closed_form_anchors(n, m, s, want):
    got = mellin_closed(n, m, s, 256)
    with mp.workprec(320):
        assert abs(got.to_mpc() - want()) < mp.mpf(2) ** -240


def test_degree_one_is_shifted_degree_zero():
    # P_1(x) = x, so M_1(s) = M_0(s+1)
    for s in S_POINTS:
        assert _close(mellin_closed(1, 0, s, 256),
                      mellin_closed(0, 0, s + 1, 256), 256)


def test_order_above_degree_vanishes():
    assert mellin_closed(5, 7, Fraction(1), 128) == 0


def test_left_half_plane_refused():
    with pytest.raises(DomainError):
        mellin_closed(2, 0, Fraction(-1, 2), 128)
    with pytest.raises(DomainError):
        mellin_closed(2, 0, 0, 128)


def test_odd_order_rational_value():
    # M_1^1(s) = -1/s exactly
    assert mellin_odd_order_exact(1, 1, Fraction(3, 2)) == Fraction(-2, 3)
    assert mellin_odd_order_exact(1, 1, Fraction(5)) == Fraction(-1, 5)
    assert mellin_odd_order_exact(3, 5, Fraction(2)) == 0
    with pytest.raises(DomainError):
        mellin_odd_order_exact(2, 2, Fraction(2))


# each entry point refuses what mellin_closed refuses before it computes:
# n < 0, m < 0, and s outside the right half plane even where m > n makes
# the value an exact zero

def test_recursion_reference_refuses_s_outside_the_domain_above_the_diagonal():
    with pytest.raises(DomainError, match="Re s > 0"):
        mellin_recursion_reference(1, 3, -5)


@pytest.mark.parametrize("n, m, s", [(-3, 1, 2), (1, 3, -2), (2, -1, 2)])
def test_odd_order_exact_refuses_what_mellin_closed_refuses(n, m, s):
    with pytest.raises(DomainError):
        mellin_closed(n, m, s)
    with pytest.raises(DomainError):
        mellin_odd_order_exact(n, m, s)


def test_order_one_exact_refuses_a_negative_degree():
    with pytest.raises(DomainError, match="n >= 0"):
        order_one_exact(-1, 2)


# a real integral float such as 2.0 reads as the integer 2; a non-real or
# inexact s has no exact value and is refused

def test_odd_order_exact_reads_an_integral_float():
    assert mellin_odd_order_exact(1, 1, 2.0) == Fraction(-1, 2)


def test_order_one_exact_reads_an_integral_float():
    assert order_one_exact(2, 2.0) == order_one_exact(2, 2) == -1


@pytest.mark.parametrize("s", [GaussianRational(2, 3), 2.5])
def test_order_one_exact_refuses_a_non_real_or_inexact_s(s):
    with pytest.raises(DomainError, match="exact rational s > 0"):
        order_one_exact(2, s)


def test_order_one_reference_refuses_a_negative_degree():
    with pytest.raises(DomainError, match="n >= 0"):
        order_one_reference(-3, 2)


def test_order_one_rationality_check_refuses_a_negative_degree():
    with pytest.raises(DomainError, match="n >= 0"):
        order_one_rationality_check(-2)


def test_odd_order_closed_matches_exact():
    for n, m in ((1, 1), (3, 1), (5, 3), (6, 3)):
        exact = mellin_odd_order_exact(n, m, Fraction(7, 3))
        got = mellin_closed(n, m, Fraction(7, 3), 192)
        with mp.workprec(256):
            want = mp.mpf(exact.numerator) / exact.denominator
            assert abs(got.to_mpc() - want) < mp.mpf(2) ** -170


def _plain_odd_order_walk(top: int, m: int, s: Fraction) -> list:
    """[M_n^m(s) for n = 0..top] by the three-term degree recursion on
    Fractions, every shift kept, one division per step."""
    half = (m + 1) // 2
    lead = (-1) ** m * factorial(2 * m) // (2 ** m * factorial(m)) \
        * Fraction(factorial(half - 1), 2)

    def seed(t):
        # M_m^m(s+t) = lead * Gamma(a) / Gamma(a + half), a = (s+t)/2
        rising = Fraction(1)
        for j in range(half):
            rising *= (s + t) / 2 + j
        return lead / rising

    values = [Fraction(0)] * m
    prev, row = [Fraction(0)] * (top - m + 2), [seed(t) for t in range(top - m + 1)]
    values.append(row[0])
    for k in range(m + 1, top + 1):
        prev, row = row, [((2 * k - 1) * row[t + 1] - (k + m - 1) * prev[t]) / (k - m)
                          for t in range(top - k + 1)]
        values.append(row[0])
    return values


@pytest.mark.parametrize("m", [1, 3, 5, 7, 9])
@pytest.mark.parametrize("s", [Fraction(1, 3), Fraction(5, 2), Fraction(7)])
def test_odd_order_exact_equals_plain_fraction_walk(m, s):
    want = _plain_odd_order_walk(40, m, s)
    assert [mellin_odd_order_exact(n, m, s) for n in range(41)] == want


def test_odd_order_exact_at_high_degree_equals_order_one_form():
    s = Fraction(5, 2)
    assert mellin_odd_order_exact(1001, 1, s) == order_one_exact(1001, s)


def test_special_value_formula_even_n():
    assert special_value_at_1_rational(0) == Fraction(1, 2)
    assert special_value_at_1_rational(2) == Fraction(1, 8)
    assert special_value_at_1_rational(4) == Fraction(9, 128)
    for n in (0, 2, 4, 6, 8):
        assert _close(special_value_at_1(n, 256),
                      mellin_closed(n, 0, Fraction(1), 256), 256)


def test_special_value_refuses_odd_n():
    with pytest.raises(DomainError):
        special_value_at_1(3)
    with pytest.raises(DomainError):
        special_value_at_1_rational(1)


# ---------------------------------------------------------------------------
# independent value recursion

@pytest.mark.parametrize("n,m", [(7, 0), (10, 4), (12, 2), (9, 9), (11, 3)])
@pytest.mark.parametrize("s", [Fraction(5, 2), HPComplex(2, 3, 320)])
def test_value_recursion_matches_closed_form(n, m, s):
    ref = mellin_recursion_reference(n, m, s, 320)
    got = mellin_closed(n, m, s, 256)
    with mp.workprec(384):
        rel = abs(got.to_mpc() - ref.to_mpc()) / max(abs(ref.to_mpc()), mp.mpf(1))
        assert rel < mp.mpf(10) ** -60


def _rel_error(got: HPComplex, want: HPComplex) -> mp.mpf:
    with mp.workprec(1024):
        return abs(got.to_mpc() - want.to_mpc()) / abs(want.to_mpc())


def test_odd_order_float_holds_precision_at_high_degree():
    # the float walk loses about a bit per degree, so its working precision
    # has to grow with n; at a fixed guard the n = 200 row is garbage
    s = HPComplex(2, 3, 320)
    got = mellin_closed(200, 1, s, 128)
    want = order_one_reference(200, s, 256)
    assert _rel_error(got, want) < mp.mpf(2) ** -108
    for n, m in ((70, 3), (71, 5)):
        got = mellin_closed(n, m, s, 128)
        want = mellin_recursion_reference(n, m, s, 128 + 64 + (3 * n) // 2)
        assert _rel_error(got, want) < mp.mpf(2) ** -108


@settings(max_examples=20, deadline=None)
@given(n=st.integers(0, 800), half_m=st.integers(0, 5),
       re=st.fractions(Fraction(1, 64), 10, max_denominator=64),
       im=st.integers(-10 ** 4, 10 ** 4), prec=st.sampled_from([64, 128, 256]))
def test_closed_form_is_right_to_its_precision(n, half_m, re, im, prec):
    # even m over the whole domain, against the walk at the width that
    # holds its precision (its loss grows about 1.25 bits per degree)
    m = 2 * half_m
    s = GaussianRational(re, im)
    got = mellin_closed(n, m, s, prec)
    want = mellin_recursion_reference(n, m, s, prec + 64 + (3 * n) // 2)
    if m > n:
        assert got == want == 0
    else:
        assert _rel_error(got, want) <= mp.mpf(2) ** -(prec - 2)


def _stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_value_recursion_needs_no_stack_depth():
    # the walk must not take a Python frame per degree
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 250)
    try:
        got = mellin_recursion_reference(300, 0, 1, 128 + 64 + 450)
    finally:
        sys.setrecursionlimit(limit)
    assert _rel_error(got, special_value_at_1(300, 256)) < mp.mpf(2) ** -108


@pytest.mark.parametrize("n,m,s", [
    # seeds spread over tens of binades: small Re s, large Im s, high order
    (200, 10, GaussianRational(Fraction(1, 16), 5)),
    (200, 11, GaussianRational(Fraction(1, 16), 5)),
    (200, 0, Fraction(1, 16)),
    # no step, and a single step
    (12, 12, GaussianRational(2, 3)),
    (9, 9, Fraction(1, 3)),
    (13, 12, GaussianRational(Fraction(1, 16), 5)),
    (10, 9, Fraction(5, 2)),
])
def test_fixed_point_walk_holds_its_precision(n, m, s):
    b = 128
    bits = b + 64 + (3 * n) // 2
    got = mellin_recursion_reference(n, m, s, bits)
    want = mellin_recursion_reference(n, m, s, 2 * bits)
    assert _rel_error(got, want) < mp.mpf(2) ** -(b - 8)


def _recursion_factors(m: int, top: int) -> dict:
    """p_n^m for m <= n <= top as monomial Fraction lists, by the paper's
    two-branch degree recursion from p_m^m = (2m-1)!! (m-1)!! (m even),

        p_k = (2/(k-m)) [(2k-1) s p_{k-1}(s+1) - (k+m-1)(s+k-1) p_{k-2}(s)],  k-m even,
        p_k = (1/(k-m)) [(2k-1) p_{k-1}(s+1) - 2(k+m-1)(s+k-1) p_{k-2}(s)],  k-m odd.
    """
    def shift(p):  # p(s + 1)
        return [sum(comb(i, j) * p[i] for i in range(j, len(p))) for j in range(len(p))]

    def times_linear(p, c):  # (s + c) p(s)
        return [c * a + b for a, b in zip(p + [0], [0] + p)]

    def combine(x, y, a, b):  # a x - b y
        width = max(len(x), len(y))
        x, y = x + [0] * (width - len(x)), y + [0] * (width - len(y))
        out = [a * u - b * v for u, v in zip(x, y)]
        while out and out[-1] == 0:
            out.pop()
        return out

    base = Fraction(double_factorial(2 * m - 1) * double_factorial(m - 1))
    polys = {m: [base], m + 1: [(2 * m + 1) * base]}
    for k in range(m + 2, top + 1):
        up, down = shift(polys[k - 1]), times_linear(polys[k - 2], k - 1)
        if (k - m) % 2 == 0:
            polys[k] = combine(times_linear(up, 0), down,
                               Fraction(2 * (2 * k - 1), k - m), Fraction(2 * (k + m - 1), k - m))
        else:
            polys[k] = combine(up, down,
                               Fraction(2 * k - 1, k - m), Fraction(2 * (k + m - 1), k - m))
    return polys


@pytest.mark.parametrize("m", range(0, 11, 2))
def test_l8_build_matches_the_degree_recursion(m):
    for n, want in _recursion_factors(m, 60).items():
        assert list(poly_factor(n, m).poly.coefficients) == want, (n, m)


# ---------------------------------------------------------------------------
# quadrature route

def test_quadrature_matches_closed_form():
    res = mellin_quadrature(2, 0, Fraction(1), 128, tolerance=mp.mpf(10) ** -30,
                            min_level=10)
    assert res.levels_used >= 10
    assert res.nodes_used > 0
    with mp.workprec(200):
        assert abs(res.value.to_mpc() - mp.pi / 8) < mp.mpf(10) ** -28


def test_quadrature_handles_order():
    res = mellin_quadrature(4, 2, Fraction(1), 110)
    with mp.workprec(160):
        assert abs(res.value.to_mpc() - 45 * mp.pi / 32) < mp.mpf(10) ** -15


# ---------------------------------------------------------------------------
# representation catalog

def test_analytic_variants_close_over_parities():
    checked = set()
    for variant in RepVariant:
        if variant is RepVariant.GENFUN:
            continue
        if variant_is_quadrature(variant):
            continue
        for n in (5, 6):
            try:
                got = mellin_rep(variant, n, 0, Fraction(3, 2), 256)
            except DomainError:
                continue
            want = mellin_closed(n, 0, Fraction(3, 2), 256)
            assert _close(got, want, 256, slack=90), (variant, n)
            checked.add(variant)
    assert checked >= {RepVariant.L2A, RepVariant.L2B, RepVariant.L2C,
                       RepVariant.L2D, RepVariant.L2E, RepVariant.L3A,
                       RepVariant.L3B, RepVariant.L3C, RepVariant.P3,
                       RepVariant.L8}


@pytest.mark.parametrize("variant", [v for v in RepVariant if v not in (
    RepVariant.L8, RepVariant.COS_QUAD, RepVariant.TANH_QUAD, RepVariant.GENFUN)],
    ids=lambda v: v.value)
def test_order_zero_variants_refuse_a_nonzero_order(variant):
    # the order is checked before the variant's own parity rule
    for n in (4, 5):
        with pytest.raises(DomainError) as refused:
            mellin_rep(variant, n, 2, Fraction(5, 2), 64)
        assert str(refused.value) == f"{variant.value} represents the m = 0 transform only"


@pytest.mark.parametrize("variant", [RepVariant.COS_QUAD, RepVariant.TANH_QUAD],
                         ids=lambda v: v.value)
def test_quadrature_variants_accept_a_nonzero_order(variant):
    # L8's nonzero order is test_l8_supports_nonzero_order
    got = mellin_rep(variant, 4, 2, Fraction(5, 2), 64)
    want = mellin_closed(4, 2, Fraction(5, 2), 64)
    with mp.workprec(128):
        assert abs(got.to_mpc() - want.to_mpc()) < mp.mpf(10) ** -9


def test_l8_supports_nonzero_order():
    got = mellin_rep(RepVariant.L8, 6, 2, Fraction(5, 2), 256)
    want = mellin_closed(6, 2, Fraction(5, 2), 256)
    assert _close(got, want, 256, slack=90)


def test_quadrature_variants_close():
    for variant in (RepVariant.P1, RepVariant.COS_QUAD, RepVariant.TANH_QUAD):
        got = mellin_rep(variant, 3, 0, Fraction(3, 2), 110)
        want = mellin_closed(3, 0, Fraction(3, 2), 110)
        with mp.workprec(160):
            assert abs(got.to_mpc() - want.to_mpc()) < mp.mpf(10) ** -15, variant


def _p1_per_node(n, s, prec):
    """P1 with its 2F1 evaluated by hyp_pfq at every quadrature node: the
    straightforward form that mellin_rep must reproduce bit for bit."""
    workprec = prec + GUARD_BITS
    with mp.workprec(workprec):
        z = to_mpc(s, workprec)
        sq = exact_or_none(s)
        if sq is None:
            sq = z
        pref = (mp.rgamma(mp.mpf(1) / 2) * mp.gamma((n + z) / 2)
                * mp.rgamma((n + z + 1) / 2))
        nums, dens = (Fraction(1 - n, 2), Fraction(-n, 2)), (1 - (sq + n) / 2,)

        def integrand(phi, dist_a, dist_b):
            return hyp_pfq(HypergeometricSpec(nums, dens, mp.cos(phi) ** 2),
                           prec).to_mpc()

        quad = tanh_sinh(integrand, 0, mp.pi / 2, prec,
                         tolerance=mp.mpf(2) ** (-(prec // 2 + 8)))
        value = pref * quad.value
    return HPComplex.from_value(value, prec)


@pytest.mark.parametrize("n", [0, 1, 7, 18])
def test_p1_equals_per_node_hypergeometric_bitwise(n):
    for s in (Fraction(3, 4), Fraction(5, 2), HPComplex(2, 3, 128)):
        got = mellin_rep(RepVariant.P1, n, 0, s, 128)
        want = _p1_per_node(n, s, 128)
        assert got.real == want.real and got.imag == want.imag, s


@settings(max_examples=60, deadline=None)
@given(n=st.integers(0, 24), prec=st.sampled_from([64, 110, 160, 256]),
       s=st.sampled_from([Fraction(3, 4), Fraction(5, 2), Fraction(1, 100), 2,
                          HPComplex(2, 3, 128), HPComplex("0.3", "0.7", 128)]),
       nodes=st.lists(st.floats(0, 1), min_size=1, max_size=4))
def test_p1_horner_equals_terminating_series(n, prec, s, nodes):
    # P1's integrand polynomial on fixed-point integers, against the
    # terminating series it replaces, at x = cos^2 of random angles
    workprec = prec + GUARD_BITS
    sq = exact_or_none(s) or to_mpc(s, workprec)
    nums, dens = (Fraction(1 - n, 2), Fraction(-n, 2)), (1 - (sq + n) / 2,)
    with mp.workprec(workprec):
        poly = mellin._fixed_point_poly(terminating_coefficients(nums, dens, prec))
        for t in nodes:
            x = mp.cos(mp.mpf(t) * mp.pi / 2) ** 2
            got = poly(x)
            want = hyp_pfq(HypergeometricSpec(nums, dens, x), prec).to_mpc()
            assert abs(got - want) <= mp.mpf(2) ** (-(prec - 8)) * (1 + abs(want)), x


@pytest.mark.parametrize("n", [60, 80])
@pytest.mark.parametrize("s", [Fraction(1, 100), Fraction(7, 3),
                               GaussianRational(Fraction(1, 50), -7)],
                         ids=["1/100", "7/3", "1/50-7i"])
def test_p3_holds_its_precision_at_high_degree(n, s):
    got = mellin_rep(RepVariant.P3, n, 0, s, 160).to_mpc()
    want = mellin_closed(n, 0, s, 320).to_mpc()
    with mp.workprec(320):
        assert abs(got - want) <= mp.mpf(10) ** -30 * abs(want)


def test_p3_sums_only_its_two_top_series(monkeypatch):
    # the other n - 1 values come from the contiguous recurrence
    calls = []

    def counted(spec, precision_bits):
        calls.append(spec)
        return hyp_pfq(spec, precision_bits)

    monkeypatch.setattr(mellin, "hyp_pfq", counted)
    got = mellin_rep(RepVariant.P3, 12, 0, Fraction(3, 4), 160)
    assert len(calls) <= 2
    assert _close(got, mellin_closed(12, 0, Fraction(3, 4), 160), 160)


@contextlib.contextmanager
def _deadline(seconds):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n", [0, 2, 4])
def test_p1_at_s_two_keeps_its_terminating_pair(n):
    # at s = 2 the 2F1's denominator 1 - (s + n)/2 equals its numerator -n/2
    with _deadline(10):
        got = mellin_rep(RepVariant.P1, n, 0, 2, 160)
    want = mellin_closed(n, 0, 2, 160)
    with mp.workprec(200):
        assert abs(got.to_mpc() - want.to_mpc()) < mp.mpf(10) ** -15


def test_defective_variant_pinned():
    # by hand, int_0^1 x^2 (3x^2 - 1)/2 (1 - x^2)^(-1/2) dx = 5 pi/32
    got = mellin_rep(RepVariant.L2E, 2, 0, Fraction(3), 256)
    with mp.workprec(320):
        assert abs(got.to_mpc() - 5 * mp.pi / 32) < mp.mpf(2) ** -200
    # (s - n + 1)/2 = 0 here: a pole of the catalogued 3F2 form
    got = mellin_rep(RepVariant.L2E, 4, 0, Fraction(3), 256)
    want = mellin_closed(4, 0, Fraction(3), 256)
    assert _close(got, want, 256, slack=90)


def test_defective_variant_agrees_at_n_zero():
    got = mellin_rep(RepVariant.L2E, 0, 0, Fraction(3, 2), 256)
    want = mellin_closed(0, 0, Fraction(3, 2), 256)
    assert _close(got, want, 256, slack=90)


def test_defective_variant_refuses_odd_n():
    with pytest.raises(DomainError):
        mellin_rep(RepVariant.L2E, 3, 0, Fraction(3, 2), 128)


def test_genfun_variant_is_a_refusal():
    with pytest.raises(DomainError):
        mellin_rep(RepVariant.GENFUN, 2, 0, Fraction(3, 2), 128)


def test_rep_results_keep_full_width():
    # regression: the final wrap once rounded at the ambient 53-bit context
    got = mellin_rep(RepVariant.L2A, 7, 0, Fraction(3, 2), 256)
    want = mellin_closed(7, 0, Fraction(3, 2), 256)
    with mp.workprec(320):
        assert abs(got.to_mpc() - want.to_mpc()) < mp.mpf(10) ** -25


# ---------------------------------------------------------------------------
# generating series

def test_genfun_partial_vs_closed():
    cmp_ = genfun(Fraction(1, 10), Fraction(2), 60, 256)
    diff = (cmp_.partial_sum - cmp_.closed_form).abs_value()
    assert diff <= cmp_.tail_bound
    assert diff < mp.mpf(10) ** -25


def test_genfun_parity_split():
    cmp_ = genfun(Fraction(1, 10), Fraction(2), 60, 256)
    even_diff = (cmp_.partial_even - cmp_.closed_even).abs_value()
    odd_diff = (cmp_.partial_odd - cmp_.closed_odd).abs_value()
    assert even_diff < mp.mpf(10) ** -25
    assert odd_diff < mp.mpf(10) ** -25
    total = cmp_.closed_even + cmp_.closed_odd - cmp_.closed_form
    assert total.abs_value() < mp.mpf(10) ** -60


@pytest.mark.parametrize("t, s", [
    (Fraction(1, 3), GaussianRational(Fraction(3, 2), 1)),
    (Fraction(-1, 4), GaussianRational(Fraction(5, 2), Fraction(-7, 2))),
    (Fraction(2, 5), HPComplex("0.7", "12.25", 160)),
])
def test_genfun_partial_sum_is_the_sum_of_closed_terms(t, s):
    # the stepped prefactors and powers of t against one mellin_closed call
    # per term, summed 64 bits wider
    prec, terms = 128, 150
    got = genfun(t, s, terms, prec).partial_sum.to_mpc()
    with mp.workprec(prec + 64):
        want = mp.fsum(mellin_closed(k, 0, s, prec + 32).to_mpc()
                       * mp.mpf(t.numerator) ** k / mp.mpf(t.denominator) ** k
                       for k in range(terms + 1))
        assert abs(got - want) <= mp.mpf(2) ** -(prec - 4) * abs(want)


def test_genfun_domain_checks():
    with pytest.raises(DomainError):
        genfun(Fraction(3, 2), Fraction(2), 10, 128)
    with pytest.raises(DomainError):
        genfun(Fraction(1, 10), Fraction(2), -1, 128)


@pytest.mark.parametrize("t", [
    GaussianRational(0, Fraction(1, 2)),                  # zz = -16/9
    GaussianRational(Fraction(1, 5), Fraction(2, 5)),     # |zz| = 1 exactly
    mp.mpc(0, 0.5),                                       # inexact, decided in mp
])
def test_genfun_refuses_t_outside_the_closed_form_disk(t):
    # |t| < 1 in every case; zz = 4t^2/(1+t^2)^2 has |zz| >= 1.  At 70 bits
    # the rounded 1/5 + 2/5 i has |zz| just below 1, where the closed form's
    # series would run to its term budget, so the test on exact t is exact.
    for bits in (64, 70, 128):
        with pytest.raises(DomainError, match="closed form"):
            genfun(t, Fraction(2), 30, bits)


# ---------------------------------------------------------------------------
# order-one rational structure

def test_order_one_rationality():
    for n in range(1, 21):
        assert order_one_rationality_check(n)


def test_order_one_exact_matches_reference():
    for n in (1, 2, 5, 8):
        exact = order_one_exact(n, Fraction(7, 4))
        ref = order_one_reference(n, Fraction(7, 4), 192)
        with mp.workprec(256):
            want = mp.mpf(exact.numerator) / exact.denominator
            assert abs(ref.to_mpc() - want) < mp.mpf(2) ** -170
