"""Mellin transforms of Legendre and Ferrers functions on (0, 1).

M_n^m(s) factors as 2^t * p_n^m(s) * Gamma((s+eps)/2) / Gamma((s+n+1)/2),
times sqrt(pi) for even m, with eps = (n-m) mod 2 and an exact rational
polynomial p_n^m built at the one degree asked from the finite Beta sum L8.
The three-term recursion in n with gamma-ratio seeds is kept as an
independent reference.  Everything else here is an alternative route to
the same numbers: hypergeometric representations, finite Beta sums,
direct quadrature, and the generating function.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from math import comb, factorial

import mpmath as mp

from .errors import DomainError
from .mpcore import (
    DEFAULT_PRECISION,
    FIXED_GUARD_BITS,
    GUARD_BITS,
    HPComplex,
    RationalPolynomial,
    exact_or_none,
    fixed_point_horner,
    rational_or_none,
    to_mpc,
)
from .quadrature import tanh_sinh
from .specfun import (
    HypergeometricSpec,
    double_factorial,
    ferrers,
    hyp_pfq,
    pochhammer_rational,
    terminating_coefficients,
)


def _require_right_half_plane(s, workprec: int) -> mp.mpc:
    z = to_mpc(s, workprec)
    if not z.real > 0:
        raise DomainError(f"transform defined for Re s > 0, got {z}")
    return z


# ---------------------------------------------------------------------------
# exact polynomial factors

@dataclass(frozen=True)
class MellinClosedForm:
    """p_n^m with its prefactor 2^t Gamma((s+eps)/2) / Gamma((s+n+1)/2),
    times sqrt(pi) for even m, where t = _two_power(n, m) and
    eps = (n-m) mod 2.  For odd m the gamma ratio is 1/((s+eps)/2)_K with
    K = (n+1-eps)/2, so p_n^m(s) times it is a rational function of s."""

    poly: RationalPolynomial
    n: int
    m: int

    def evaluate(self, s, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
        prefactor_bits = precision_bits + 8
        with mp.workprec(prefactor_bits + GUARD_BITS):
            pref = _prefactor(self.n, self.m, to_mpc(s, prefactor_bits + GUARD_BITS))
        sval = HPComplex.from_value(pref, prefactor_bits).to_mpc()
        with mp.workprec(precision_bits + GUARD_BITS):
            z = to_mpc(s, precision_bits + GUARD_BITS)
            value = sval * self.poly.eval_mpc(z, precision_bits + 8)
        return HPComplex.from_value(value, precision_bits)


def _l8_integers(n: int, m: int) -> tuple[list, int]:
    """(monomial numerators, power-of-two denominator) of p_n^m from the
    catalog's row L8 at this one degree.

    L8 sums c_l B((n+s-l)/2, (l+1)/2) over l = m, m+2, ..., times (n+1)_m,
    with c_l = (-1)^((m+l)/2) C(n, l) C(l, (l-m)/2) / 2^(l+1).  Divided by
    the gamma ratio Gamma((s+eps)/2) / Gamma((s+n+1)/2), eps = (n-m) mod 2,
    and by 2^t, t = _two_power(n, m), this is

        p_n^m(s) = (n+1)_m 2^-t sum_l c_l Gamma((l+1)/2) ((s+eps)/2)_j,

    j = (n-l-eps)/2, with Gamma((l+1)/2) = (l-1)!! 2^(-l/2) sqrt(pi) for
    even l (the sqrt(pi) goes to the prefactor) and (l-1)!! 2^((1-l)/2) for
    odd l.  Both parities come to one step: Horner in that rising basis,
    from j = (n-m)//2 down, takes acc <- (s + eps + 2j) acc
    + c_l (l-1)!! 2^(l+1) 4^j on integers, over the shared denominator
    2^((n-eps+m)/2).
    """
    eps = (n - m) % 2
    acc, odd = [0], double_factorial(m - 1)  # odd = (l-1)!! for l = m first
    for j in range((n - m) // 2, -1, -1):
        ell = n - eps - 2 * j
        c = eps + 2 * j
        acc = [c * x + y for x, y in zip(acc, [0] + acc)] + acc[-1:]
        acc[0] += ((-1) ** ((m + ell) // 2) * comb(n, ell) * comb(ell, (ell - m) // 2)
                   * odd) << (2 * j)
        odd *= ell + 1
    rising = factorial(n + m) // factorial(n)
    return [rising * x for x in acc], 2 ** ((n - eps + m) // 2)


def _two_power(n: int, m: int) -> int:
    return -(m // 2 + 1 + 2 * ((n - m) // 2))


def _prefactor(n: int, m: int, z: mp.mpc) -> mp.mpc:
    """2^t Gamma((z+eps)/2) / Gamma((z+n+1)/2), times sqrt(pi) for even m,
    at the ambient precision, t = _two_power(n, m) and eps = (n-m) mod 2."""
    value = (mp.power(2, _two_power(n, m))
             * mp.gamma((z + (n - m) % 2) / 2) * mp.rgamma((z + (n + 1)) / 2))
    return value * mp.sqrt(mp.pi) if m % 2 == 0 else value


def poly_factor(n: int, m: int = 0) -> MellinClosedForm:
    """Exact polynomial factor and gamma prefactor of M_n^m.

    The two-power in the prefactor is a normalisation: it makes the base
    case p_m^m = (-1)^m (2m-1)!! (m-1)!! and reproduces every special-value
    anchor (pi/2, pi/8, 9pi/128, ...).  The L8 sum then fixes p_n^m exactly.
    """
    if n < 0 or m < 0:
        raise DomainError("poly_factor requires n >= 0 and m >= 0")
    if m > n:
        raise DomainError(f"order m = {m} exceeds degree n = {n}")
    return _closed_form(n, m)


@cache
def _closed_form(n: int, m: int) -> MellinClosedForm:
    """poly_factor(n, m), built from _l8_integers once per process."""
    return MellinClosedForm(RationalPolynomial.from_integers(*_l8_integers(n, m)), n, m)


# ---------------------------------------------------------------------------
# the transforms themselves

def _degree_walk(n: int, m: int, row: list) -> int:
    """(n-m)! M_n^m(s), times the seeds' common scale, by the degree recursion
    (k-m) M_k(s) = (2k-1) M_{k-1}(s+1) - (k+m-1) M_{k-2}(s) on integers.

    row[i] is the integer seed M_m^m(s + n-m-2i) times the scale, for
    i = 0..(n-m)//2.  Row k holds N_k[i] = (k-m)! M_k^m(s + n-k-2i) times the
    scale; scaling by (k-m)! makes every step division-free and exact,

        N_k[i] = (2k-1) N_{k-1}[i] - (k+m-1)(k-m-1) N_{k-2}[i+1],

    from k = m + 1 on, with N_{m-1} = 0 because P_{m-1}^m vanishes.  So the
    only roundings are those of the seeds and of the final division.
    """
    prev = [0] * ((n - m + 1) // 2 + 1)
    for k in range(m + 1, n + 1):
        a, c = 2 * k - 1, (k + m - 1) * (k - m - 1)
        prev, row = row, [a * x - c * y for x, y in zip(row, prev[1:])]
    return row[0]


def _seeded_walk(n: int, m: int, s: mp.mpc) -> mp.mpc:
    """M_n^m(s) at the ambient precision by the degree walk from M_m^m(s')
    at a = s'/2, s' = s + (n-m) mod 2: a Beta-integral gamma ratio for even
    m, a Pochhammer ratio for odd m.  Every seed is a constant times
    Gamma(a)/Gamma(a + (m+1)/2), so the others follow from the exact ratio
    seed(a+1) = seed(a) a/(a + (m+1)/2).  Their real and imaginary parts are
    walked separately as integers at 2^S, the headroom S putting
    FIXED_GUARD_BITS bits beyond the working precision below the smallest
    seed: the integers carry the working precision plus the seeds' binade
    range plus the guard.
    """
    a = (s + (n - m) % 2) / 2
    h = mp.mpf(m + 1) / 2
    if m % 2 == 1:
        first = (-1) ** m * double_factorial(2 * m - 1) * double_factorial(m - 1) \
            / mp.power(2, (m + 1) // 2)
        for j in range((m + 1) // 2):
            first /= a + j
    else:
        first = double_factorial(2 * m - 1) * double_factorial(m - 1) \
            * mp.sqrt(mp.pi) / mp.power(2, m // 2 + 1) * mp.gamma(a) * mp.rgamma(a + h)
    seeds = [first]
    for _ in range((n - m) // 2):
        seeds.append(seeds[-1] * a / (a + h))
        a += 1
    seeds.reverse()
    shift = mp.mp.prec + FIXED_GUARD_BITS - min(mp.mag(x) for x in seeds)
    re, im = (_degree_walk(n, m, [int(mp.ldexp(part(x), shift)) for x in seeds])
              for part in (mp.re, mp.im))
    return mp.mpc(re, im) / mp.ldexp(factorial(n - m), shift)


def mellin_recursion_reference(n: int, m: int, s,
                               precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """M_n^m(s) built purely from the degree recursion on transform values.

    Both parities walk from one seed (_seeded_walk) on integers, scaled by
    2^S and by (k-m)! at degree k as in _degree_walk.  The polynomial
    factor never enters, so this is an independent check on poly_factor.

    The value recursion loses up to about 1.25 bits per degree, and only
    the usual guard bits are added here: a caller that needs the result
    good to b bits must pass precision_bits of about b + 1.25 (n - m).
    """
    if n < 0 or m < 0:
        raise DomainError("requires n >= 0 and m >= 0")
    workprec = precision_bits + GUARD_BITS
    z = _require_right_half_plane(s, workprec)
    if m > n:
        return HPComplex(0, 0, precision_bits)
    with mp.workprec(workprec):
        return HPComplex.from_value(_seeded_walk(n, m, z), precision_bits)


def mellin_closed(n: int, m: int, s, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """M_n^m(s) by the closed route, the exact polynomial factor times its
    gamma prefactor; exact 0 for m > n."""
    if n < 0 or m < 0:
        raise DomainError("mellin_closed requires n >= 0 and m >= 0")
    _require_right_half_plane(s, precision_bits + GUARD_BITS)
    if m > n:
        return HPComplex(0, 0, precision_bits)
    return poly_factor(n, m).evaluate(s, precision_bits)


def mellin_odd_order_exact(n: int, m: int, s) -> Fraction:
    """Exact rational M_n^m(s) for odd m and rational s > 0: the closed form
    2^t p_n^m(s) / ((s+eps)/2)_K with eps = (n-m) mod 2, K = (n+1-eps)/2."""
    if n < 0 or m < 0:
        raise DomainError("mellin_odd_order_exact requires n >= 0 and m >= 0")
    if m % 2 != 1:
        raise DomainError("exact rational route exists for odd m only")
    sq = rational_or_none(s)
    if sq is None or sq <= 0:
        raise DomainError(f"transform defined for exact rational s > 0, got {s!r}")
    if m > n:
        return Fraction(0)
    eps = (n - m) % 2
    value = poly_factor(n, m).poly.eval_rational(sq) \
        / pochhammer_rational((sq + eps) / 2, (n + 1 - eps) // 2)
    return value * Fraction(2) ** _two_power(n, m)


def special_value_at_1(n: int, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """M_n(1) for even n: pi times an explicit rational.

    The published formula gives 0 at odd n while M_1(1) = 1, so odd n is
    refused rather than exposed wrong.
    """
    if n < 0 or n % 2 != 0:
        raise DomainError("special value formula is valid for even n only")
    coeff = special_value_at_1_rational(n)
    with mp.workprec(precision_bits + GUARD_BITS):
        value = mp.pi * mp.mpf(coeff.numerator) / coeff.denominator
    return HPComplex.from_value(value, precision_bits)


def special_value_at_1_rational(n: int) -> Fraction:
    """The rational r with M_n(1) = r * pi, n even.

    (-1)^n pi^2 / (2 Gamma((1-n)/2)^2 Gamma(n/2+1)^2) with
    Gamma(1/2 - k) = (-4)^k k! sqrt(pi) / (2k)! made explicit.
    """
    if n < 0 or n % 2 != 0:
        raise DomainError("special value formula is valid for even n only")
    k = n // 2
    return Fraction(factorial(2 * k) ** 2, 2 * 16 ** k * factorial(k) ** 4)


# ---------------------------------------------------------------------------
# direct quadrature oracle

@dataclass(frozen=True)
class MellinQuadratureResult:
    value: HPComplex
    error_estimate: mp.mpf
    levels_used: int
    nodes_used: int


def mellin_quadrature(
    n: int,
    m: int,
    s,
    precision_bits: int = DEFAULT_PRECISION,
    tolerance=None,
    min_level: int = 3,
) -> MellinQuadratureResult:
    """Tanh-sinh quadrature of the defining integral in the theta variable,
    int_0^{pi/2} cos^{s-1}(theta) P_n^m(cos theta) d(theta); the square-root
    endpoint factor of the x form is absorbed by the substitution."""
    workprec = precision_bits + GUARD_BITS
    z = _require_right_half_plane(s, workprec)
    with mp.workprec(workprec):
        tol = mp.mpf(tolerance) if tolerance is not None else mp.mpf(2) ** (-(precision_bits // 2))

        def integrand(theta, dist_a, dist_b):
            # cos theta = sin(pi/2 - theta); dist_b is exact near the endpoint
            c = mp.sin(dist_b)
            return mp.power(c, z - 1) * ferrers(n, m, c)

        result = tanh_sinh(integrand, 0, mp.pi / 2, precision_bits,
                           tolerance=tol, min_level=min_level)
        value = HPComplex.from_value(result.value, precision_bits)
    return MellinQuadratureResult(value, result.error_estimate, result.levels_used,
                                  result.nodes_used)


# ---------------------------------------------------------------------------
# the representation catalog

class RepVariant(Enum):
    L2A = "L2a"
    L2B = "L2b"
    L2C = "L2c"
    L2D = "L2d"
    L2E = "L2e"
    L3A = "L3a"
    L3B = "L3b"
    L3C = "L3c"
    P1 = "P1"
    P3 = "P3"
    L8 = "L8"
    COS_QUAD = "COS_QUAD"
    TANH_QUAD = "TANH_QUAD"
    GENFUN = "GENFUN"


_QUADRATURE_VARIANTS = frozenset({
    RepVariant.P1, RepVariant.COS_QUAD, RepVariant.TANH_QUAD,
})


def variant_is_quadrature(variant: RepVariant) -> bool:
    return variant in _QUADRATURE_VARIANTS


def mellin_rep(
    variant: RepVariant,
    n: int,
    m: int,
    s,
    precision_bits: int = DEFAULT_PRECISION,
) -> HPComplex:
    """One alternative representation of M_n^m(s).

    Analytic variants go through the hypergeometric engine or finite gamma
    sums; quadrature variants integrate.  L2e is the even-n finite sum

        M_n(s) = pi / (2 n!) * sum_{k=n/2}^{n} (-n)_k (1/2)_k
                 / (Gamma(1 - n/2 + k) Gamma((1-n)/2 + k))
                 * Gamma((s-n)/2 + k) / Gamma((s-n+1)/2 + k),

    the term-by-term transform of P_n(x) = sum_k c_k x^(2k-n), whose
    reciprocal gammas vanish for k < n/2.  The catalogued 3F2 form put
    1/k! where 1/Gamma(1 - n/2 + k) belongs, which agrees only at n = 0.
    Re-indexing k = n/2 + j turns the sum into L2c's series.

    P1 integrates its terminating 2F1, a polynomial of degree n//2 in
    x = cos^2(phi) whose coefficients are built once per call, by Horner
    on fixed-point integers (_fixed_point_poly).  P3 sums two 2F1(-1)
    series and reaches the other n - 1 by a downward contiguous
    recurrence (_p3_sum).
    """
    if n < 0 or m < 0:
        raise DomainError("mellin_rep requires n >= 0 and m >= 0")
    if variant is RepVariant.GENFUN:
        raise DomainError("the generating function is exposed by genfun(), "
                          "not as a pointwise representation")
    workprec = precision_bits + GUARD_BITS
    with mp.workprec(workprec):
        z = to_mpc(s, workprec)
        # exact when s reads exactly, so terminating series stay exact
        sq = exact_or_none(s)
        if sq is None:
            sq = z
        odd_domain = variant in (RepVariant.L2A, RepVariant.L2D) and n % 2 == 1
        if odd_domain:
            if not z.real > -1:
                raise DomainError("odd-degree series representations need Re s > -1")
        else:
            _require_right_half_plane(s, workprec)
        if m != 0 and variant not in (RepVariant.L8, RepVariant.COS_QUAD,
                                      RepVariant.TANH_QUAD):
            raise DomainError(f"{variant.value} represents the m = 0 transform only")

        if variant is RepVariant.L2A:
            if n % 2 != 1:
                raise DomainError("L2a decomposes odd n = 2N+1")
            N = (n - 1) // 2
            pref = _half_pochhammer_ratio(sq, N, odd=True, workprec=workprec)
            f = hyp_pfq(HypergeometricSpec(
                (Fraction(1, 2), (sq + 1) / 2, sq / 2),
                (sq / 2 - N, sq / 2 + Fraction(2 * N + 3, 2)), 1), precision_bits + 8)
            value = pref * f.to_mpc()
        elif variant is RepVariant.L2B:
            if n % 2 != 0:
                raise DomainError("L2b decomposes even n = 2N")
            N = n // 2
            pref = _half_pochhammer_ratio(sq, N, odd=False, workprec=workprec)
            f = hyp_pfq(HypergeometricSpec(
                (Fraction(1, 2), (sq + 1) / 2, sq / 2),
                (sq / 2 - N + Fraction(1, 2), sq / 2 + N + 1), 1), precision_bits + 8)
            value = pref * f.to_mpc()
        elif variant is RepVariant.L2C:
            if n % 2 != 0:
                raise DomainError("L2c decomposes even n = 2N")
            N = n // 2
            pref = ((-1) ** N * mp.mpf(double_factorial(2 * N - 1))
                    / (mp.power(2, N + 1) * mp.factorial(N))
                    * mp.sqrt(mp.pi) * mp.gamma(z / 2) * mp.rgamma((z + 1) / 2))
            f = hyp_pfq(HypergeometricSpec(
                (-N, N + Fraction(1, 2), sq / 2),
                (Fraction(1, 2), (sq + 1) / 2), 1), precision_bits + 8)
            value = pref * f.to_mpc()
        elif variant is RepVariant.L2D:
            if n % 2 != 1:
                raise DomainError("L2d decomposes odd n = 2N+1")
            N = (n - 1) // 2
            pref = ((-1) ** N * mp.mpf(double_factorial(2 * N + 1))
                    / (mp.power(2, N) * mp.factorial(N))
                    * mp.sqrt(mp.pi) * mp.gamma((z + 1) / 2) * mp.rgamma(z / 2) / z)
            f = hyp_pfq(HypergeometricSpec(
                (-N, N + Fraction(3, 2), (sq + 1) / 2),
                (Fraction(3, 2), sq / 2 + 1), 1), precision_bits + 8)
            value = pref * f.to_mpc()
        elif variant is RepVariant.L2E:
            if n % 2 != 0:
                raise DomainError("L2e expands even n only; odd n goes "
                                  "through L2a or L2d")
            total = mp.mpc(0)
            for k in range(n // 2, n + 1):
                coeff = (mp.rf(-n, k) * mp.rf(mp.mpf(1) / 2, k)
                         * mp.rgamma(1 - n // 2 + k)
                         * mp.rgamma(mp.mpf(1 - n) / 2 + k))
                total += (coeff * mp.gamma((z - n) / 2 + k)
                          * mp.rgamma((z - n + 1) / 2 + k))
            value = mp.pi * total / (2 * mp.factorial(n))
        elif variant is RepVariant.L3A:
            total = mp.mpc(0)
            for k in range(n // 2 + 1):
                coeff = (-1) ** k * mp.mpf(mp.factorial(2 * n - 2 * k)) / (
                    mp.factorial(k) * mp.factorial(n - k) * mp.factorial(n - 2 * k))
                total += coeff * mp.beta((z + n) / 2 - k, mp.mpf(1) / 2)
            value = total / mp.power(2, n + 1)
        elif variant is RepVariant.L3B:
            pref = (mp.power(2, n - 1) * mp.gamma(n + mp.mpf(1) / 2)
                    * mp.gamma((n + z) / 2)
                    / (mp.factorial(n) * mp.gamma((n + z + 1) / 2)))
            f = hyp_pfq(HypergeometricSpec(
                (Fraction(1 - n, 2), Fraction(-n, 2), (-sq + (1 - n)) / 2),
                (Fraction(1 - 2 * n, 2), 1 - (sq + n) / 2), 1), precision_bits + 8)
            value = pref * f.to_mpc()
        elif variant is RepVariant.L3C:
            pref = (mp.sqrt(mp.pi) / 2 * mp.gamma((n + z) / 2)
                    * mp.rgamma((n + z + 1) / 2))
            f = hyp_pfq(HypergeometricSpec(
                (Fraction(1 - n, 2), Fraction(-n, 2), Fraction(1, 2)),
                (1, 1 - (sq + n) / 2), 1), precision_bits + 8)
            value = pref * f.to_mpc()
        elif variant is RepVariant.P1:
            pref = (mp.rgamma(mp.mpf(1) / 2) * mp.gamma((n + z) / 2)
                    * mp.rgamma((n + z + 1) / 2))
            # the 2F1 terminates for every n, so argument 1 is harmless
            poly = _fixed_point_poly(terminating_coefficients(
                (Fraction(1 - n, 2), Fraction(-n, 2)), (1 - (sq + n) / 2,), precision_bits))

            def integrand(phi, dist_a, dist_b):
                return poly(mp.cos(phi) ** 2)

            quad = tanh_sinh(integrand, 0, mp.pi / 2, precision_bits,
                             tolerance=mp.mpf(2) ** (-(precision_bits // 2 + 8)))
            value = pref * quad.value
        elif variant is RepVariant.P3:
            value = _p3_sum(n, sq, precision_bits)
        elif variant is RepVariant.L8:
            if m > n:
                raise DomainError("L8 requires m <= n")
            total = mp.mpc(0)
            for ell in range(m, n + 1):
                if (ell - m) % 2 != 0:
                    continue
                sign = (-1) ** ((m + ell) // 2)
                coeff = (sign * mp.mpf(comb(n, ell)) * comb(ell, (ell - m) // 2)
                         / mp.power(2, ell + 1))
                total += coeff * mp.beta((n + z - ell) / 2, mp.mpf(ell + 1) / 2)
            rising = mp.mpf(1)
            for j in range(m):
                rising *= n + 1 + j
            value = rising * total
        elif variant is RepVariant.COS_QUAD:
            if m > n:
                raise DomainError("quadrature representation needs m <= n")
            return mellin_quadrature(n, m, s, precision_bits).value
        elif variant is RepVariant.TANH_QUAD:
            if m > n:
                raise DomainError("quadrature representation needs m <= n")

            def integrand(v, dist_a, dist_b):
                # x = (1-v^2)/(1+v^2); near v = 1 use 1 - v = dist_b exactly
                denom = 1 + v * v
                x = dist_b * (1 + v) / denom
                return 2 * mp.power(x, z - 1) * ferrers(n, m, x) / denom

            quad = tanh_sinh(integrand, 0, 1, precision_bits,
                             tolerance=mp.mpf(2) ** (-(precision_bits // 2 + 8)))
            value = quad.value
        else:  # pragma: no cover - enum is closed
            raise DomainError(f"unknown variant {variant}")
    return HPComplex.from_value(value, precision_bits)


def _p3_sum(n: int, sq, precision_bits: int) -> mp.mpc:
    """P3: M_n(s) = 2^-n Gamma(s) sum_k (-1)^k C(n,k)^2
    Gamma(k+1/2) / Gamma(k+s+1/2) F_k, with F_k = 2F1(1/2+k-n, s; 1/2+k+s; -1).

    Only F_n and F_(n-1) are summed, by hyp_pfq (Pfaff to argument 1/2).
    With a = 1/2+k-n and c = 1/2+k+s, Gauss's contiguous relations
    (DLMF 15.5.14, 15.5.15) at z = -1 give

        c (c-1) F_(k-1) = a (k+1/2) F_(k+1) + c (2s+n-1) F_k,

    run downward to F_0.  F_k tends to a constant as k grows, and the
    downward direction is the stable one (Gautschi, SIAM Review 9, 1967):
    at 100 bits, for n from 20 to 80, it kept every F_k within 2^-89
    relative, where the upward direction lost all of them.  The gamma
    ratios follow from one pair by the exact step (k+1/2)/(k+s+1/2).  The
    alternating sum cancels by up to about n bits, so all of it runs n bits
    higher.
    """
    bits = precision_bits + n
    with mp.workprec(bits + GUARD_BITS):
        z = to_mpc(sq, bits + GUARD_BITS)
        half = mp.mpf(1) / 2
        f = [None] * (n + 1)
        for k in range(max(n - 1, 0), n + 1):
            f[k] = hyp_pfq(HypergeometricSpec((Fraction(1, 2) + k - n, sq),
                                              (Fraction(1, 2) + k + sq,), -1),
                           bits + 8).to_mpc()
        for k in range(n - 1, 0, -1):
            c = k + half + z
            f[k - 1] = ((k + half - n) * (k + half) * f[k + 1]
                        + c * (2 * z + n - 1) * f[k]) / (c * (c - 1))
        total = mp.mpc(0)
        ratio = mp.sqrt(mp.pi) * mp.rgamma(z + half)
        for k in range(n + 1):
            total += (-1) ** k * comb(n, k) ** 2 * ratio * f[k]
            ratio *= (k + half) / (k + half + z)
        return mp.gamma(z) * total / mp.power(2, n)


def _fixed_point_poly(coeffs: list):
    """x -> sum_k coeffs[k] x^k for real |x| <= 1, at the ambient precision.

    The coefficients and x are read as integers at 2^S, fixed_point_horner
    runs on them, and each part is divided once at the end.  With N the
    degree, the truncations of the N Horner steps, of the N + 1
    coefficients and of x cost at most 2N + 1 + sum_k k |c_k| units of 2^-S,
    so S puts FIXED_GUARD_BITS bits beyond the working precision below
    sum_k (k+1) |c_k|, or below 1 when that sum is smaller.
    """
    shift = mp.mp.prec + FIXED_GUARD_BITS + max(
        0, mp.mag(mp.fsum((k + 1) * abs(c) for k, c in enumerate(coeffs))))
    parts = [[int(mp.ldexp(part(c), shift)) for c in coeffs] for part in (mp.re, mp.im)]

    def evaluate(x) -> mp.mpc:
        values = fixed_point_horner(*parts, int(mp.ldexp(x, shift)), 0, shift)
        return mp.mpc(*(mp.ldexp(v, -shift) for v in values))

    return evaluate


def _half_pochhammer_ratio(sq, N: int, odd: bool, workprec: int) -> mp.mpc:
    """((2-s)/2)_N / ((s+1)/2)_{N+1} for odd n, ((1-s)/2)_N / (s/2)_{N+1}
    for even n, times (-1)^N/2."""
    z = to_mpc(sq, workprec)
    if odd:
        top, bottom = (2 - z) / 2, (z + 1) / 2
    else:
        top, bottom = (1 - z) / 2, z / 2
    num = mp.mpc(1)
    for j in range(N):
        num *= top + j
    den = mp.mpc(1)
    for j in range(N + 1):
        den *= bottom + j
    return (-1) ** N * num / (2 * den)


# ---------------------------------------------------------------------------
# generating function

@dataclass(frozen=True)
class GenfunComparison:
    partial_sum: HPComplex
    closed_form: HPComplex
    tail_bound: mp.mpf
    closed_even: HPComplex
    closed_odd: HPComplex
    partial_even: HPComplex
    partial_odd: HPComplex


def genfun(t, s, N: int, precision_bits: int = DEFAULT_PRECISION) -> GenfunComparison:
    """Partial sum sum_{k<=N} M_k(s) t^k against the two-line closed form.

    The partial sum pays one gamma pair per parity of k.  With M_k(s) =
    pref_k p_k(s) and pref_k = sqrt(pi) 2^t Gamma((s+eps)/2) / Gamma((s+k+1)/2)
    as in MellinClosedForm, t drops by 2 and Gamma((s+k+1)/2) gains the
    factor (s+k+1)/2 from k to k + 2, so pref_(k+2) = pref_k / (2(s+k+1)).
    t^k steps by one multiplication, exact when t reads exactly, and the
    terms are summed 48 bits beyond precision_bits.

    The closed form's second line carries a 1/s factor; without it the odd
    line disagrees with the partial sums by exactly a factor s.  The tail
    bound C|t|^{N+1} uses |M_k(s)| <= 1/Re(s), valid since |P_k| <= 1.

    Domain: |t| < 1 for the series, and |zz| < 1 with zz = 4t^2/(1+t^2)^2
    for the closed form's hypergeometric sums.  Every real t in (-1, 1)
    meets both; a non-real t may not (t = i/2 gives zz = -16/9), and is
    refused before the partial sum is spent.  For exact t the test on zz
    is exact, so t = 1/5 + 2/5 i, where |zz| = 1, is refused at every
    precision.
    """
    if N < 0:
        raise DomainError("partial sum needs N >= 0")
    workprec = precision_bits + GUARD_BITS
    with mp.workprec(workprec):
        tv = to_mpc(t, workprec)
        z = _require_right_half_plane(s, workprec)
        sq = exact_or_none(s)
        if sq is None:
            sq = z
        if not abs(tv) < 1:
            raise DomainError("generating series requires |t| < 1")
        zz = 4 * tv * tv / (1 + tv * tv) ** 2
        tq = exact_or_none(t)
        if tq is not None:
            # |zz| < 1 iff 16 |t^2|^2 < |1 + t^2|^4, decided in rationals
            t2 = tq * tq
            u = 1 + t2
            inside = 16 * (t2.re ** 2 + t2.im ** 2) < (u.re ** 2 + u.im ** 2) ** 2
        else:
            inside = abs(zz) < 1
        if not inside:
            raise DomainError("closed form requires |4t^2/(1+t^2)^2| < 1, "
                              f"got {mp.nstr(abs(zz), 6)}")

        bits = precision_bits + 24 + GUARD_BITS
        with mp.workprec(bits):
            w = to_mpc(sq, bits)
            pref = [_prefactor(0, 0, w), _prefactor(1, 0, w)]
            step = tq if tq is not None else to_mpc(t, bits)
            power, sums = 1, [mp.mpc(0), mp.mpc(0)]
            for k in range(N + 1):
                sums[k % 2] += (pref[k % 2] * to_mpc(power, bits)
                                * poly_factor(k, 0).poly.eval_mpc(w, precision_bits + 24))
                pref[k % 2] /= 2 * (w + k + 1)
                power = power * step
            partial = sums[0] + sums[1]

        shared = mp.sqrt(mp.pi) / mp.sqrt(1 + tv * tv)
        line1 = shared * mp.gamma(z / 2) / (2 * mp.gamma((z + 1) / 2)) * hyp_pfq(
            HypergeometricSpec((Fraction(1, 4), Fraction(3, 4), sq / 2),
                               (Fraction(1, 2), (sq + 1) / 2), zz),
            precision_bits + 8).to_mpc()
        line2 = shared * (tv / (1 + tv * tv)) * mp.gamma((z + 1) / 2) / (
            z * mp.gamma(z / 2)) * hyp_pfq(
            HypergeometricSpec((Fraction(3, 4), Fraction(5, 4), (sq + 1) / 2),
                               (Fraction(3, 2), sq / 2 + 1), zz),
            precision_bits + 8).to_mpc()

        tail = abs(tv) ** (N + 1) / ((1 - abs(tv)) * z.real)
        return GenfunComparison(
            partial_sum=HPComplex.from_value(partial, precision_bits),
            closed_form=HPComplex.from_value(line1 + line2, precision_bits),
            tail_bound=mp.mpf(tail),
            closed_even=HPComplex.from_value(line1, precision_bits),
            closed_odd=HPComplex.from_value(line2, precision_bits),
            partial_even=HPComplex.from_value(sums[0], precision_bits),
            partial_odd=HPComplex.from_value(sums[1], precision_bits),
        )


# ---------------------------------------------------------------------------
# order-1 rational structure

def order_one_reference(n: int, s, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """M_n^1(s) as the gamma-ratio-minus-one expression."""
    if n < 0:
        raise DomainError("order_one_reference requires n >= 0")
    workprec = precision_bits + GUARD_BITS
    with mp.workprec(workprec):
        z = _require_right_half_plane(s, workprec)
        top = mp.gamma(z / 2) * mp.gamma((z + 1) / 2)
        value = top * mp.rgamma((z - n) / 2) * mp.rgamma((z + n + 1) / 2) - 1
    return HPComplex.from_value(value, precision_bits)


def order_one_exact(n: int, s) -> Fraction:
    """Exact M_n^1(s) = ((s-n)/2)_k / ((s+1-n%2)/2)_k - 1, k = ceil(n/2)."""
    if n < 0:
        raise DomainError("order_one_exact requires n >= 0")
    sq = rational_or_none(s)
    if sq is None or sq <= 0:
        raise DomainError(f"defined for exact rational s > 0, got {s!r}")
    k = (n + 1) // 2
    num = pochhammer_rational((sq - n) / 2, k)
    den = pochhammer_rational((sq + 1 - n % 2) / 2, k)
    return num / den - 1


def order_one_rationality_check(n: int) -> bool:
    """Certify that M_n^1 is the rational function order_one_exact gives.

    The closed form's exact M_n^1 is a sum of simple poles at the zeros of
    the Pochhammer denominator D, of degree deg = ceil(n/2), so (M_n^1 + 1) D
    is a polynomial of degree at most deg on both routes; agreeing at the
    deg + 1 integers 1..deg+1 proves them equal, and ten half-integers
    3/2..21/2 check it further, all over Fractions.
    """
    deg = (n + 1) // 2
    points = [Fraction(i) for i in range(1, deg + 2)]
    points += [Fraction(2 * i + 3, 2) for i in range(10)]
    return all(mellin_odd_order_exact(n, 1, x) == order_one_exact(n, x) for x in points)
