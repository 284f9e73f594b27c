"""Gamma/zeta wrappers, Ferrers evaluation, the hypergeometric engine, and
the 3F2(1) transformation catalog."""

import contextlib
import signal
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from legmellin import specfun
from legmellin.errors import DivergenceError, DomainError, PoleError
from legmellin.mpcore import GUARD_BITS, GaussianRational, HPComplex, to_mpc
from legmellin.specfun import (
    HypergeometricSpec,
    TransformId,
    double_factorial,
    ferrers,
    gamma,
    hurwitz_zeta,
    hyp2f1,
    hyp3f2,
    hyp_pfq,
    hyp_terminating_exact,
    is_nonpositive_integer,
    kummer_2f1_residual,
    pochhammer_rational,
    polygamma,
    reciprocal_gamma,
    riemann_zeta,
    terminating_coefficients,
    threeF2_transform_check,
)


def _small(value, prec, slack=16) -> bool:
    with mp.workprec(prec + 32):
        return abs(value.to_mpc() if isinstance(value, HPComplex) else value) \
            <= mp.mpf(2) ** (-(prec - slack))


# ---------------------------------------------------------------------------
# gamma / zeta family

def test_gamma_half_is_sqrt_pi():
    got = gamma(Fraction(1, 2), 256)
    with mp.workprec(300):
        assert abs(got.to_mpc() - mp.sqrt(mp.pi)) < mp.mpf(2) ** -240


def test_gamma_pole_raises():
    with pytest.raises(PoleError):
        gamma(0)
    with pytest.raises(PoleError):
        gamma(-3)


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


@pytest.mark.parametrize("bad", [float("inf"), float("nan"), mp.inf, mp.nan],
                         ids=["inf", "nan", "mp.inf", "mp.nan"])
def test_non_finite_scalars_are_refused_up_front(bad):
    # unchecked, a nan parameter runs the |z| < 1 series toward its term budget
    with _deadline(5):
        with pytest.raises(DomainError):
            gamma(bad)
        with pytest.raises(DomainError):
            hyp2f1(bad, Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))
        with pytest.raises(DomainError):
            hyp2f1(Fraction(1, 2), Fraction(1, 2), Fraction(3, 2), bad)


def test_reciprocal_gamma_is_zero_at_poles():
    assert reciprocal_gamma(-5, 128) == 0
    assert reciprocal_gamma(0, 128) == 0


def test_riemann_zeta_at_two():
    got = riemann_zeta(2, 256)
    with mp.workprec(300):
        assert abs(got.to_mpc() - mp.pi ** 2 / 6) < mp.mpf(2) ** -240


def test_zeta_pole_and_domain_errors():
    with pytest.raises(PoleError):
        riemann_zeta(1)
    with pytest.raises(PoleError):
        hurwitz_zeta(1, Fraction(1, 4))
    with pytest.raises(DomainError):
        hurwitz_zeta(2, -1)
    with pytest.raises(DomainError):
        polygamma(Fraction(1, 2), 1)


def test_polygamma_one_at_one():
    got = polygamma(1, 1, 192)
    with mp.workprec(240):
        assert abs(got.to_mpc() - mp.pi ** 2 / 6) < mp.mpf(2) ** -180


def test_is_nonpositive_integer_readings():
    assert is_nonpositive_integer(0)
    assert is_nonpositive_integer(Fraction(-4))
    assert is_nonpositive_integer(GaussianRational(-2))
    assert not is_nonpositive_integer(Fraction(-1, 2))
    assert not is_nonpositive_integer(GaussianRational(-2, 1))
    assert not is_nonpositive_integer(3)
    assert not is_nonpositive_integer(_near_pole())


def _near_pole():
    """-2 + 2^-300, which no 256-bit reading can tell from the pole at -2."""
    with mp.workprec(600):
        return mp.mpf(-2) + mp.mpf(2) ** -300


def test_gamma_just_off_a_pole_is_not_rounded_onto_it():
    x = _near_pole()
    got = gamma(x, 512)
    with mp.workprec(1200):
        want = mp.gamma(x)
        assert abs(got.to_mpc() - want) <= abs(want) * mp.mpf(2) ** -500
    # at 128 bits x rounds onto the pole: a typed refusal, not mpmath's error
    with pytest.raises(PoleError):
        gamma(x, 128)


# ---------------------------------------------------------------------------
# Ferrers functions

def test_ferrers_legendre_cubic():
    # evaluates at the ambient working precision
    with mp.workprec(200):
        x = mp.mpf(3) / 10
        want = (5 * x ** 3 - 3 * x) / 2
        assert abs(ferrers(3, 0, x) - want) < mp.mpf(10) ** -40


def test_ferrers_condon_shortley_phase():
    # P_1^1 carries the (-1)^m phase, P_2^2 does not show it (m even)
    with mp.workprec(200):
        x = mp.mpf(1) / 2
        assert abs(ferrers(1, 1, x) + mp.sqrt(1 - x * x)) < mp.mpf(10) ** -40
        assert abs(ferrers(2, 2, x) - 3 * (1 - x * x)) < mp.mpf(10) ** -40


def test_ferrers_above_degree_vanishes():
    assert ferrers(1, 2, mp.mpf("0.7")) == 0


def test_ferrers_rejects_negative_orders():
    with pytest.raises(DomainError):
        ferrers(-1, 0, 0)
    with pytest.raises(DomainError):
        ferrers(2, -1, 0)


@pytest.mark.parametrize("n, m, x", [
    (3, 0, "abc"),
    (2, 0, float("nan")),
    (2, 1, 1.5),
    (2, 1, mp.mpf(-1) - mp.mpf(2) ** -40),
    (2, 0, complex(0.5, 0.5)),
    (2, 0, mp.mpc(0.5, 1)),
], ids=["string", "nan", "above-one", "below-minus-one", "complex", "mpc"])
def test_ferrers_rejects_x_off_the_interval(n, m, x):
    with pytest.raises(DomainError):
        ferrers(n, m, x)


def _ferrers_mpf_rows(n, m, x):
    """P_m^m(x) .. P_n^m(x) by the plain mpf recurrence at the ambient
    precision, one division per step."""
    pmm = mp.mpf(1)
    somx2 = mp.sqrt((1 - x) * (1 + x))
    for j in range(m):
        pmm *= -(2 * j + 1) * somx2
    rows = [pmm, x * (2 * m + 1) * pmm]
    for ll in range(m + 2, n + 1):
        rows.append((x * (2 * ll - 1) * rows[-1] - (ll + m - 1) * rows[-2]) / (ll - m))
    return rows[:n - m + 1]


_FERRERS_POINTS = st.one_of(
    st.sampled_from(["0", "1", "-1", "2^-400", "-2^-400", "1-2^-200"]),
    st.floats(-1, 1))


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 80), m=st.integers(0, 20), point=_FERRERS_POINTS,
       prec=st.sampled_from([53, 64, 113, 160, 184, 256]))
def test_fixed_point_ferrers_matches_mpf_recurrence(n, m, point, prec):
    m = min(m, n)
    with mp.workprec(prec):
        x = {"0": mp.mpf(0), "1": mp.mpf(1), "-1": mp.mpf(-1),
             "2^-400": mp.ldexp(1, -400), "-2^-400": -mp.ldexp(1, -400),
             "1-2^-200": 1 - mp.ldexp(1, -200)}.get(point, point)
        x = mp.mpf(x)
        got = ferrers(n, m, x)
    with mp.workprec(2 * prec):
        rows = _ferrers_mpf_rows(n, m, x)
        bound = mp.ldexp(max(abs(v) for v in rows), -(prec - 8))
        assert abs(got - rows[-1]) <= bound


def test_double_factorial_conventions():
    assert double_factorial(-1) == 1
    assert double_factorial(0) == 1
    assert double_factorial(7) == 105
    assert double_factorial(8) == 384
    with pytest.raises(DomainError):
        double_factorial(-2)


def test_pochhammer_rational():
    assert pochhammer_rational(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer_rational(Fraction(-2), 3) == 0
    assert pochhammer_rational(Fraction(5), 0) == 1


# ---------------------------------------------------------------------------
# hypergeometric engine

def test_terminating_series_exact_value():
    # 2F1(-3, 1/2; 2; 1/3) summed by hand with Fractions
    spec = HypergeometricSpec((-3, Fraction(1, 2)), (2,), Fraction(1, 3))
    want = Fraction(0)
    for k in range(4):
        term = (pochhammer_rational(Fraction(-3), k)
                * pochhammer_rational(Fraction(1, 2), k))
        term /= (pochhammer_rational(Fraction(2), k)
                 * Fraction(1) * pochhammer_rational(Fraction(1), k))
        want += term * Fraction(1, 3) ** k
    got = hyp_terminating_exact(spec)
    assert got == GaussianRational(want)


def test_terminating_path_matches_float_path():
    spec = HypergeometricSpec((-4, Fraction(3, 2), Fraction(1, 4)),
                              (Fraction(7, 3), 2), Fraction(1))
    exact = hyp_terminating_exact(spec).to_hpcomplex(256)
    floated = hyp_pfq(spec, 256)
    assert _small(exact.to_mpc() - floated.to_mpc(), 256)


def test_disk_series_matches_mpmath():
    spec = HypergeometricSpec((Fraction(1, 3), Fraction(1, 5)),
                              (Fraction(9, 7),), Fraction(2, 5))
    got = hyp_pfq(spec, 192)
    with mp.workprec(260):
        want = mp.hyper([mp.mpf(1) / 3, mp.mpf(1) / 5], [mp.mpf(9) / 7],
                        mp.mpf(2) / 5)
        assert abs(got.to_mpc() - want) < mp.mpf(2) ** -176


def test_parameter_just_off_a_pole_does_not_terminate_the_series():
    x = _near_pole()
    got = hyp_pfq(HypergeometricSpec((x, Fraction(1, 3)), (Fraction(7, 5),),
                                     Fraction(1, 2)), 512)
    with mp.workprec(1500):
        want = mp.hyp2f1(x, mp.mpf(1) / 3, mp.mpf(7) / 5, mp.mpf(1) / 2)
        assert abs(got.to_mpc() - want) <= abs(want) * mp.mpf(2) ** -500


def test_hyp_pfq_reads_each_scalar_once(monkeypatch):
    reads = []
    exact_or_none = specfun.exact_or_none

    def counted(value):
        reads.append(value)
        return exact_or_none(value)

    monkeypatch.setattr(specfun, "exact_or_none", counted)
    # p + q + 1 = 4 scalars, none cancelling
    spec = HypergeometricSpec((Fraction(1, 3), Fraction(1, 5)),
                              (Fraction(9, 7),), Fraction(2, 5))
    hyp_pfq(spec, 128)
    assert len(reads) <= 4


def test_nonpositive_integer_pair_still_terminates():
    # F(-2, 1/3; -2; 1/2) = 1 + 1/6 + 1/18; cancelling the -2/-2 pair would
    # sum (1 - z)^(-1/3) instead
    spec = HypergeometricSpec((-2, Fraction(1, 3)), (-2,), Fraction(1, 2))
    assert hyp_terminating_exact(spec) == GaussianRational(Fraction(11, 9))
    assert hyp_pfq(spec, 128) == GaussianRational(Fraction(11, 9)).to_hpcomplex(128)


def test_nonpositive_integer_pair_with_a_float_parameter():
    with mp.workprec(152):
        third = mp.mpf(1) / 3
    got = hyp_pfq(HypergeometricSpec((-2, third), (-2,), Fraction(1, 2)), 128)
    with mp.workprec(200):
        want = mp.hyp2f1(-2, third, -2, mp.mpf(1) / 2)
        assert abs(got.to_mpc() - want) < mp.mpf(2) ** -60


_SERIES_PARAMS = [
    ((-5, Fraction(1, 3)), (Fraction(7, 4),)),
    # a cancelling pair and a -N/-N pair that must stay
    ((-4, Fraction(1, 2), Fraction(2, 3)), (Fraction(2, 3), -4)),
    ((-6, mp.mpc("0.3", "0.2")), (mp.mpc("1.7", "-0.4"),)),
]


def _series_points():
    with mp.workprec(152):
        cos2 = mp.cos(mp.mpf("0.7")) ** 2
    return [0, 1, Fraction(1, 3), cos2, mp.mpc("0.25", "-0.5")]


@pytest.mark.parametrize("nums, dens", _SERIES_PARAMS, ids=["2F1", "3F2", "mpc"])
def test_terminating_coefficients_sum_to_hyp_pfq(nums, dens):
    # one coefficient per term up to the first numerator -N, which the
    # kept -4/-4 pair of the 3F2 still supplies
    coeffs = terminating_coefficients(nums, dens, 128)
    assert len(coeffs) == 1 - nums[0] and coeffs[0] == 1
    workprec = 128 + GUARD_BITS
    with mp.workprec(workprec):
        for z in _series_points():
            got = mp.polyval(coeffs[::-1], to_mpc(z, workprec))
            want = hyp_pfq(HypergeometricSpec(nums, dens, z), 128).to_mpc()
            assert abs(got - want) <= mp.mpf(2) ** -120 * (1 + abs(want)), z


def test_terminating_series_refuses_what_it_cannot_sum():
    with pytest.raises(DomainError):
        terminating_coefficients((Fraction(1, 3),), (2,), 128)
    with pytest.raises(PoleError):
        terminating_coefficients((-3, Fraction(1, 3)), (-2,), 128)


_small_rational = st.builds(Fraction, st.integers(-12, 12), st.integers(2, 5))
_positive_rational = st.builds(Fraction, st.integers(1, 12), st.integers(1, 5))


@st.composite
def _terminating_requests(draw):
    n = draw(st.integers(0, 6))
    nums = [-n] + draw(st.lists(_small_rational.filter(lambda a: a.denominator > 1),
                                max_size=2))
    dens = draw(st.lists(_positive_rational, max_size=1 if draw(st.booleans()) else 2))
    if draw(st.booleans()):
        dens = [-n] + dens[:1]
    z = draw(st.builds(Fraction, st.integers(-8, 8), st.just(8)))
    return nums, dens, z


@settings(max_examples=50, deadline=2000)
@given(_terminating_requests())
def test_terminating_pfq_matches_mpmath(request):
    nums, dens, z = request
    prec = 128
    with mp.workprec(prec + 64):
        # zeroprec lets mpmath return an exact zero, e.g. 2F1(-1, 1/2; 1/4; 1/2),
        # where it would otherwise raise chasing relative accuracy
        want = mp.hyper([mp.mpf(a.numerator) / a.denominator for a in map(Fraction, nums)],
                        [mp.mpf(b.numerator) / b.denominator for b in map(Fraction, dens)],
                        mp.mpf(z.numerator) / z.denominator, zeroprec=prec + 64)
        bound = mp.mpf(2) ** -(prec - 8) * max(1, abs(want))
    with mp.workprec(prec + GUARD_BITS):
        zf = mp.mpf(z.numerator) / z.denominator
    # the exact path, and the float path through an inexact argument
    for arg in (z, zf):
        got = hyp_pfq(HypergeometricSpec(nums, dens, arg), prec)
        with mp.workprec(prec + 64):
            assert abs(got.to_mpc() - want) <= bound, arg


def test_gauss_value_at_unit_argument():
    a, b, c = Fraction(1, 3), Fraction(1, 4), Fraction(2)
    got = hyp2f1(a, b, c, 1, 192)
    with mp.workprec(260):
        want = (mp.gamma(2) * mp.gamma(2 - mp.mpf(7) / 12)
                / (mp.gamma(2 - mp.mpf(1) / 3) * mp.gamma(2 - mp.mpf(1) / 4)))
        assert abs(got.to_mpc() - want) < mp.mpf(2) ** -176


def test_divergent_unit_series_refused():
    # excess d+e-a-b-c = 0
    with pytest.raises(DivergenceError):
        hyp3f2(1, 1, 1, Fraction(3, 2), Fraction(3, 2), 1)


def test_pfaff_reflection_crosscheck():
    # 2F1(a,b;c;z) = (1-z)^(-a) 2F1(a, c-b; c; z/(z-1)) on the real slit
    a, b, c = Fraction(1, 3), Fraction(2, 5), Fraction(5, 4)
    z = Fraction(-2, 3)
    lhs = hyp2f1(a, b, c, z, 192).to_mpc()
    with mp.workprec(260):
        rhs = (1 - mp.mpf(z.numerator) / z.denominator) ** (-mp.mpf(1) / 3)
        rhs *= hyp2f1(a, c - b, c, Fraction(2, 5), 192).to_mpc()
        assert abs(lhs - rhs) < mp.mpf(2) ** -176


# ---------------------------------------------------------------------------
# Kummer family at argument -1

@pytest.mark.parametrize("which", ["a", "b", "c"])
@pytest.mark.parametrize("s", [Fraction(1, 2), Fraction(2), Fraction(7, 2)])
def test_kummer_residuals_vanish(which, s):
    res = kummer_2f1_residual(which, s, 256)
    assert _small(res, 256)


def test_kummer_rejects_unknown_tag():
    with pytest.raises(DomainError):
        kummer_2f1_residual("d", Fraction(2))


# ---------------------------------------------------------------------------
# 3F2(1) transformation catalog

TERMINATING_TUPLES = {
    TransformId.A1: (Fraction(-3), Fraction(1, 2), Fraction(5, 4),
                     Fraction(7, 8), Fraction(13, 8)),
    TransformId.A2: (Fraction(-2), Fraction(2, 3), Fraction(5, 4),
                     Fraction(3, 4), Fraction(7, 6)),
    TransformId.A3: (Fraction(-4), Fraction(1, 3), Fraction(3, 2),
                     Fraction(4, 5), Fraction(9, 10)),
}


@pytest.mark.parametrize("transform", list(TransformId))
def test_catalog_terminating_tuples(transform):
    a, b, c, d, e = TERMINATING_TUPLES[transform]
    res = threeF2_transform_check(transform, a, b, c, d, e, 256)
    assert _small(res, 256, slack=40)


def test_catalog_a1_generic_nonterminating():
    # both right-hand terms active; pins the sign between them
    res = threeF2_transform_check(
        TransformId.A1, Fraction(1, 3), Fraction(1, 4), Fraction(5, 4),
        Fraction(7, 8), Fraction(3, 2), 128)
    assert _small(res, 128, slack=24)


@pytest.mark.parametrize("transform", [TransformId.A2, TransformId.A3])
def test_catalog_a2_a3_generic_nonterminating(transform):
    res = threeF2_transform_check(
        transform, Fraction(1, 3), Fraction(1, 2), Fraction(2, 3),
        Fraction(3, 4), Fraction(27, 20), 96)
    assert _small(res, 96, slack=24)
