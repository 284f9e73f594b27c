"""Mellin moments of the fractional-part and integer-part functions.

Everything in here is one of three kinds of object:

* exact zeta-combinations: values of integrals like
  ``int_0^1 {1/t}^a [1/t]^b t^(s-1) dt`` expressed as rational-coefficient
  combinations of ``zeta(s - j)``, stored symbolically and evaluated late;
* convergent series routes, each with an explicit tail bound or
  acceleration: the generalized weight ``(1-t^b)^(-alpha)``, an auxiliary
  shifted power sum, the alternating transform ``I_j`` by a Chebyshev-
  weighted sum for every s, and the direct transform ``J_j`` by N terms
  and an Euler-Maclaurin tail with exact derivatives and a stated
  remainder (DLMF 2.10.1-3); and
* independent numeric oracles: a k-sum with exact inner integrals for the
  moment integrals (closed forms for alpha 1 and 2, a Pfaff-transformed
  2F1 series with a stated remainder for every other alpha), and, for the
  weighted and paired integrals, the unit-fraction segments
  [1/(k+1), 1/k], k >= 2, folded by x = 1/(k+t) into Hurwitz-zeta
  integrals that are summed exactly; only the weight's singular segment
  [1/2, 1] is left to tanh-sinh quadrature.

Closed forms are never trusted on their own; the test suite pins each one
against the matching oracle.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Optional, Tuple

from mpmath import mp

from .errors import ConvergenceError, DomainError, PoleError
from .mpcore import (
    DEFAULT_PRECISION,
    GUARD_BITS,
    HPComplex,
    RationalPolynomial,
    rational_or_none,
    rational_to_mpf,
    to_mpc,
)
from .quadrature import tanh_sinh

_TAIL_GUARD = 64  # for the cancelling terms of _zeta_moment_integral
_SERIES_BUDGET = 200_000
_HEAD_TERMS = 64  # explicit terms of sublemma_sum_series before its fold


def _default_tolerance(precision_bits: int) -> mp.mpf:
    return mp.mpf(2) ** (-(precision_bits - 8))


def _weight_args(s, b, workprec: int) -> Tuple[mp.mpc, mp.mpf]:
    """s and b of the weighted transform, read as Re s > 1 and a positive real b."""
    z = to_mpc(s, workprec)
    bb = to_mpc(b, workprec)
    if not z.real > 1:
        raise DomainError("need Re s > 1")
    if bb.imag != 0 or not bb.real > 0:
        raise DomainError("b must be a positive real")
    return z, bb.real


# ---------------------------------------------------------------------------
# integral parameter record

@dataclass(frozen=True)
class FracIntegralSpec:
    """Parameters of int_0^1 {1/t}^alpha [1/t]^beta t^(s-1) dt.

    beta is a true integer exponent; alpha may be any exponent with
    Re alpha > -1.  The weighted transform has its own functions
    (frac_general, frac_weight_quadrature).
    """

    alpha: object
    beta: int
    s: object

    def __post_init__(self):
        if not isinstance(self.beta, int) or self.beta < 0:
            raise DomainError("beta must be a nonnegative integer")
        a = to_mpc(self.alpha, DEFAULT_PRECISION)
        if not a.real > -1:
            raise DomainError("the fractional-part exponent needs Re alpha > -1")
        s = to_mpc(self.s, DEFAULT_PRECISION)
        if not s.real > self.beta:
            raise DomainError(f"need Re s > beta = {self.beta}")


# ---------------------------------------------------------------------------
# symbolic zeta-combinations

@dataclass(frozen=True)
class ZetaCombination:
    """A value of the form (R(s) + sum_j N_j(s) zeta(s-j)) / D(s).

    Coefficients stay exact rational polynomials until evaluation, so two
    derivations of the same integral can be compared symbolically.  At an
    argument where some zeta factor hits its pole (s - j = 1) the value is
    still finite provided N_j vanishes there; evaluate() then substitutes
    the derivative N_j'(s) for N_j(s) zeta(s-j), which is the limit because
    the zeta pole at 1 has residue 1.
    """

    terms: Tuple[Tuple[int, RationalPolynomial], ...]
    denominator: RationalPolynomial
    rational_numerator: RationalPolynomial = RationalPolynomial.zero()

    def coefficient(self, j: int) -> RationalPolynomial:
        for jj, poly in self.terms:
            if jj == j:
                return poly
        return RationalPolynomial.zero()

    def evaluate(self, s, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
        workprec = precision_bits + GUARD_BITS
        sr = rational_or_none(s)
        with mp.workprec(workprec):
            z = to_mpc(s, workprec)
            if sr is not None:
                den_exact = self.denominator.eval_rational(sr)
                if den_exact == 0:
                    raise PoleError(f"denominator vanishes at s = {sr}")
                den = mp.mpc(rational_to_mpf(den_exact, workprec))
            else:
                den = self.denominator.eval_mpc(z, workprec)
                if den == 0:
                    raise PoleError(f"denominator vanishes at s = {z}")
            total = self.rational_numerator.eval_mpc(z, workprec)
            for j, nj in self.terms:
                if sr is not None and sr - j == 1:
                    # zeta pole; finite only if the coefficient vanishes
                    if nj.eval_rational(sr) != 0:
                        raise PoleError(
                            f"zeta(1) coefficient does not vanish at s = {sr}"
                        )
                    total += nj.derivative().eval_mpc(z, workprec)
                else:
                    total += nj.eval_mpc(z, workprec) * mp.zeta(z - j)
            return HPComplex.from_value(total / den, precision_bits)


def moment_combination(alpha: int, beta: int) -> ZetaCombination:
    """Zeta-combination for int_0^1 {1/t}^alpha [1/t]^beta t^(s-1) dt.

    alpha must be 1 or 2.  For alpha = 1 the denominator is s(s-1); for
    alpha = 2 it is s(s-1)(s-2).  The quadratic case with beta = 0 has no
    combination of this shape and is refused.
    """
    if alpha not in (1, 2):
        raise DomainError("closed combinations exist for alpha in {1, 2} only")
    if not isinstance(beta, int) or beta < 0:
        raise DomainError("beta must be a nonnegative integer")
    n = beta
    if alpha == 1:
        denominator = RationalPolynomial((0, -1, 1))  # s(s-1)
        if n == 0:
            # 1/(s-1) - zeta(s)/s  ==  (s + (1-s) zeta(s)) / (s(s-1))
            return ZetaCombination(
                terms=((0, RationalPolynomial((1, -1))),),
                denominator=denominator,
                rational_numerator=RationalPolynomial((0, 1)),
            )
        sign = -1 if n % 2 == 0 else 1
        terms = [(0, RationalPolynomial((-sign, sign)))]  # (-1)^(n+1) (s-1)
        for j in range(1, n + 1):
            sgn = (-1) ** (n - j)
            const = math.comb(n, j - 1) + math.comb(n, j)
            terms.append((j, RationalPolynomial((sgn * const, -sgn * math.comb(n, j)))))
        return ZetaCombination(terms=tuple(terms), denominator=denominator)
    if n == 0:
        raise DomainError(
            "the quadratic fractional-part moment needs an integer-part factor"
        )
    # alpha == 2: accumulate three shifted bands of binomial coefficients
    coeffs = {j: RationalPolynomial.zero() for j in range(n + 2)}
    s_minus_1 = RationalPolynomial((-1, 1))
    s_minus_2 = RationalPolynomial((-2, 1))
    for ell in range(n + 1):
        c = (-1) ** (n - ell) * math.comb(n, ell)
        coeffs[ell] = coeffs[ell] - (s_minus_1 * s_minus_2).scale(c)
        coeffs[ell + 1] = coeffs[ell + 1] - s_minus_2.scale(2 * c)
        if ell <= n - 1:
            coeffs[ell + 2] = coeffs[ell + 2] - RationalPolynomial((2 * c,))
    terms = tuple(
        (j, poly) for j, poly in sorted(coeffs.items()) if not poly.is_zero
    )
    return ZetaCombination(
        terms=terms, denominator=RationalPolynomial((0, 2, -3, 1))  # s(s-1)(s-2)
    )


def frac_int_moments(
    spec: FracIntegralSpec, precision_bits: int = DEFAULT_PRECISION
) -> HPComplex:
    """Closed value of the mixed moment integral for alpha in {1, 2}.

    The quadratic case needs the stronger half-plane Re s > beta + 1; both
    cases tolerate the boundary integers s = beta + alpha where a zeta
    factor hits its pole but the combination stays finite.
    """
    ar = rational_or_none(spec.alpha)
    if ar is None or ar.denominator != 1 or int(ar) not in (1, 2):
        raise DomainError("closed moments require alpha in {1, 2}")
    alpha = int(ar)
    z = to_mpc(spec.s, precision_bits + GUARD_BITS)
    if alpha == 2 and not z.real > spec.beta + 1:
        raise DomainError(f"need Re s > beta + 1 = {spec.beta + 1}")
    combo = moment_combination(alpha, spec.beta)
    return combo.evaluate(spec.s, precision_bits)


def moment_boundary_value(
    alpha: int, beta: int, precision_bits: int = DEFAULT_PRECISION
) -> HPComplex:
    """Moment value at the integer boundary s = beta + alpha.

    Assembled from the explicitly written limit expressions rather than the
    generic pole-cancellation rule in ZetaCombination.evaluate; the tests
    hold the two against each other and against a Richardson limit.
    """
    if alpha not in (1, 2):
        raise DomainError("boundary formulas exist for alpha in {1, 2} only")
    if not isinstance(beta, int) or beta < 1:
        raise DomainError("boundary formulas need an integer-part exponent >= 1")
    n = beta
    workprec = precision_bits + GUARD_BITS
    with mp.workprec(workprec):
        if alpha == 1:
            acc = mp.mpf(-1)
            for ell in range(0, n - 1):
                c = math.comb(n, ell) - math.comb(n, ell + 1) * n
                acc -= (-1) ** (n - ell) * c * mp.zeta(n - ell)
            acc += (-1) ** (n + 1) * n * mp.zeta(n + 1)
            value = acc / (n * (n + 1))
        else:
            acc = mp.mpf(2)
            for ell in range(0, n - 1):
                c = (-1) ** (n - ell) * math.comb(n, ell)
                acc += c * (
                    2 * mp.zeta(n - ell)
                    + 2 * n * mp.zeta(n - ell + 1)
                    + n * (n + 1) * mp.zeta(n - ell + 2)
                )
            acc -= n * (n - 1) * mp.zeta(2)
            acc += -(n ** 2) * (n + 1) * mp.zeta(3)
            value = -acc / (n * (n + 1) * (n + 2))
        return HPComplex.from_value(value, precision_bits)


def richardson_extrapolate(values, precision_bits: int = DEFAULT_PRECISION) -> mp.mpc:
    """Extrapolate f(eps) to eps = 0 from samples at eps_i = eps_0 / 2^i.

    values[i] is the sample at the i-th halving.  Assumes f admits a power
    expansion in eps, which holds for our use (analytic limits approached
    along s0 + 2^-i).
    """
    if len(values) < 2:
        raise DomainError("extrapolation needs at least two samples")
    with mp.workprec(precision_bits + GUARD_BITS):
        column = [to_mpc(v, precision_bits + GUARD_BITS) for v in values]
        order = 0
        while len(column) > 1:
            order += 1
            factor = mp.mpf(2) ** order
            column = [
                (factor * column[i + 1] - column[i]) / (factor - 1)
                for i in range(len(column) - 1)
            ]
        return column[0]


# ---------------------------------------------------------------------------
# basic and weighted fractional-part transforms

def frac_basic(s, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """int_0^1 {1/t} t^(s-1) dt = 1/(s-1) - zeta(s)/s, for Re s > 1."""
    workprec = precision_bits + GUARD_BITS
    with mp.workprec(workprec):
        z = to_mpc(s, workprec)
        if not z.real > 1:
            raise DomainError("need Re s > 1 (the s = 1 cancellation is not taken)")
        return HPComplex.from_value(1 / (z - 1) - mp.zeta(z) / z, precision_bits)


def frac_general(s, b, alpha, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """Weighted transform int_0^1 {1/t} t^(s-1) (1-t^b)^(-alpha) dt.

    Beta-function leading term minus (1/s) times a j-sum of Gauss series;
    the j >= 2 part is resummed as sum_i c_i (zeta(s + b i) - 1), which
    converges geometrically in i.  alpha = 0 collapses exactly to
    frac_basic.  The alpha -> 1 endpoint lives in alpha_one_limit.
    """
    workprec = precision_bits + GUARD_BITS
    z, bb = _weight_args(s, b, workprec)
    if rational_or_none(alpha) == 0:
        return frac_basic(s, precision_bits)
    with mp.workprec(workprec):
        aa = to_mpc(alpha, workprec)
        if not (0 <= aa.real < 1):
            raise DomainError("need 0 <= Re alpha < 1; the limit has its own route")
        tol = _default_tolerance(precision_bits)
        leading = (
            mp.gamma(1 - aa)
            * mp.gamma((z + bb - 1) / bb)
            / mp.gamma((z + bb - aa * bb - 1) / bb)
            / (z - 1)
        )
        ratio = z / bb
        jsum = mp.gamma(1 + ratio) * mp.gamma(1 - aa) / mp.gamma(1 + ratio - aa)
        c = mp.mpc(1)
        prev = mp.inf
        for i in range(_SERIES_BUDGET):
            term = c * (mp.zeta(z + bb * i) - 1)
            jsum += term
            size = abs(term)
            if i >= 2 and size < tol / 8 and prev < tol / 8:
                break
            prev = size
            c *= (aa + i) * (ratio + i) / ((1 + ratio + i) * (i + 1))
        else:
            raise ConvergenceError("weighted transform series exhausted its budget")
        return HPComplex.from_value(leading - jsum / z, precision_bits)


def alpha_one_limit(s, b=1, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """Endpoint value lim_{alpha -> 1} of the weighted transform.

    The beta-ratio term and the j = 1 Gauss term both blow up like
    Gamma(1 - alpha); their poles cancel and leave digamma values:

        (1/b) [psi(s/b) - psi((s-1)/b)]
          - (1/b) sum_{i>=0} (zeta(s + b i) - 1) / (s/b + i).

    At s = 2, b = 1 this telescopes to the Euler constant.
    """
    workprec = precision_bits + GUARD_BITS
    z, bb = _weight_args(s, b, workprec)
    with mp.workprec(workprec):
        ratio = z / bb
        total = mp.digamma(ratio) - mp.digamma((z - 1) / bb)
        tol = _default_tolerance(precision_bits)
        prev = mp.inf
        for i in range(_SERIES_BUDGET):
            term = (mp.zeta(z + bb * i) - 1) / (ratio + i)
            total -= term
            size = abs(term)
            if i >= 2 and size < tol / 8 and prev < tol / 8:
                break
            prev = size
        else:
            raise ConvergenceError("endpoint series exhausted its budget")
        return HPComplex.from_value(total / bb, precision_bits)


# ---------------------------------------------------------------------------
# auxiliary shifted power sum

@dataclass(frozen=True)
class SublemmaState:
    """Order and shift of the sum S_n(u) = sum_{k>=2} (u+k)^-(n+1) / (u+k-1)."""

    order: int
    u: object

    def __post_init__(self):
        if not isinstance(self.order, int) or self.order < 1:
            raise DomainError("order must be a positive integer")
        uu = to_mpc(self.u, DEFAULT_PRECISION)
        if not uu.real > -1:
            raise DomainError("need Re u > -1")


def sublemma_sum(state: SublemmaState, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """Telescoped closed form 1/(1+u) - sum_{k=0}^{n-1} zeta(k+2, u+2)."""
    workprec = precision_bits + GUARD_BITS
    with mp.workprec(workprec):
        uu = to_mpc(state.u, workprec)
        value = 1 / (1 + uu)
        for k in range(state.order):
            value -= mp.zeta(k + 2, uu + 2)
        return HPComplex.from_value(value, precision_bits)


def sublemma_sum_series(
    state: SublemmaState, precision_bits: int = DEFAULT_PRECISION
) -> HPComplex:
    """Summation of S_n(u): explicit head, then the k-tail folded exactly.

    Past k = _HEAD_TERMS the factor 1/(u+k-1) is expanded in powers of
    1/(u+k), turning the remainder into Hurwitz zetas with geometric decay
    in the expansion order.  Independent of the telescoped closed form.
    """
    workprec = precision_bits + GUARD_BITS
    n = state.order
    with mp.workprec(workprec):
        uu = to_mpc(state.u, workprec)
        tol = _default_tolerance(precision_bits)
        total = mp.mpc(0)
        for k in range(2, _HEAD_TERMS + 1):
            total += (uu + k) ** (-(n + 1)) / (uu + k - 1)
        shift = uu + _HEAD_TERMS + 1
        for m in range(_SERIES_BUDGET):
            term = mp.zeta(n + 2 + m, shift)
            total += term
            if abs(term) < tol / 4:
                return HPComplex.from_value(total, precision_bits)
        raise ConvergenceError("shifted power sum exhausted its budget")


# ---------------------------------------------------------------------------
# the paired fractional-part integral

def _pair_main_term(s: int, workprec: int) -> mp.mpf:
    """Euler-constant piece: gamma + sum_{l=2}^s zeta(l)/l - H_s + 2^-s / s."""
    with mp.workprec(workprec):
        h = Fraction(0)
        for i in range(1, s + 1):
            h += Fraction(1, i)
        value = mp.euler - rational_to_mpf(h, workprec) + mp.mpf(2) ** (-s) / s
        for ell in range(2, s + 1):
            value += mp.zeta(ell) / ell
        return value


def _pair_correction(s: int, workprec: int, tol) -> mp.mpf:
    """Alternating-binomial piece of the paired integral.

    For s >= 2 this is a finite binomial sum over elementary T terms; at
    s = 1 those terms no longer terminate and the value comes from a
    Hurwitz-zeta series with geometric (ratio 1/4) decay.
    """
    with mp.workprec(workprec):
        if s >= 2:
            total = mp.mpf(0)
            for j in range(s - 1):
                m = j + 3
                t_m = mp.mpf(2) ** (2 - m) / (m - 2)
                t_m += (1 - mp.mpf(2) ** (1 - m) - mp.zeta(m - 1)) / (m - 1)
                total += (-1) ** j * math.comb(s - 2, j) * t_m
            return total
        total = mp.zeta(2) - mp.mpf(3) / 2
        for i in range(2, _SERIES_BUDGET):
            term = (mp.zeta(2 * i - 1, 2) - mp.zeta(2 * i, 2)) / i
            total -= term
            if term < tol / 4:
                return total
        raise ConvergenceError("paired-integral series exhausted its budget")


def frac_pair_integral(s: int, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """int_0^1 {1/x} {1/(1-x)} x^(s-1) dx for integer s >= 1.

    Assembled from two closed pieces; s = 1 gives 2*gamma - 1.  The
    assembly is cross-checked against the folded Hurwitz-zeta oracle
    `pair_integral_quadrature` by pair_integral_report, not trusted blind.
    """
    if not isinstance(s, int) or s < 1:
        raise DomainError("the paired integral is implemented for integer s >= 1")
    workprec = precision_bits + GUARD_BITS
    tol = _default_tolerance(precision_bits)
    with mp.workprec(workprec):
        value = _pair_main_term(s, workprec) + _pair_correction(s, workprec, tol)
        return HPComplex.from_value(value, precision_bits)


@dataclass(frozen=True)
class OracleQuadrature:
    value: HPComplex
    error_bound: mp.mpf


def _oracle_result(total, bound, precision_bits: int) -> OracleQuadrature:
    """total rounded to precision_bits, and bound plus that rounding."""
    return OracleQuadrature(
        value=HPComplex.from_value(total, precision_bits),
        error_bound=mp.mpf(bound + abs(total) * mp.ldexp(1, -precision_bits)),
    )


def _zeta_moment_integral(sigma, workprec):
    """int_0^1 t zeta(sigma, 2 + t) dt, for Re sigma > 2.

    Summed over a = 2, 3, ..., the pieces int_0^1 t (a+t)^-sigma dt
    telescope to 2^(2-sigma) / ((sigma-1)(sigma-2)) - zeta(sigma-1, 3) /
    (sigma-1).  Each term is about 2^(2-sigma) / sigma^2 in size and the
    value is below 2^-sigma / 2, so the difference is formed with
    _TAIL_GUARD extra bits.  Returns an mpf for real sigma, else an mpc.
    """
    with mp.workprec(workprec + _TAIL_GUARD):
        k = mp.mpf(2)
        value = (k ** (2 - sigma) / ((sigma - 1) * (sigma - 2))
                 - mp.zeta(sigma - 1, k + 1) / (sigma - 1))
    with mp.workprec(workprec):
        return +value


def _folded_tail(terms: Iterable, total, bound, workprec, tol):
    """Add c_m int_0^1 t zeta(sigma_m, 2 + t) dt over the triples
    (c_m, sigma_m, r_m) of terms to total, and a bound on the rest to bound.

    The m-th term is at most its cap |c_m| (2^-sigma + 2^(1-sigma)/(sigma-1))
    / 2, with sigma = Re sigma_m, and r_m bounds the ratio of every later
    cap to the one before it.  Stops at the first cap below tol/16 whose r_m
    is below 1, and adds cap r_m / (1 - r_m), the geometric sum that bounds
    every term after it.
    """
    k = mp.mpf(2)
    for c, sigma, ratio in itertools.islice(terms, _SERIES_BUDGET):
        total += c * _zeta_moment_integral(sigma, workprec)
        sig = sigma.real
        cap = abs(c) * (k ** (-sig) + k ** (1 - sig) / (sig - 1)) / 2
        if ratio < 1 and cap < tol / 16:
            return total, bound + cap * ratio / (1 - ratio)
    raise ConvergenceError("tail expansion exhausted its budget")


def pair_integral_quadrature(s: int, precision_bits: int = 96) -> OracleQuadrature:
    """Direct oracle for the paired integral, folded at unit fractions.

    Both halves of (0,1) reduce to sums over the intervals [1/(k+1), 1/k],
    k >= 2, where {1/x} = 1/x - k.  The substitution x = 1/(k+t) folds each
    sum into integrals of Hurwitz zeta against t dt, which are summed
    exactly (`_zeta_moment_integral`), so no quadrature is left.  The left
    weight y^s/(1-y) has all-ones power coefficients, and its caps halve
    from term to term; the mirrored right weight y(1-y)^(s-2) is the same
    series at s = 1 and a polynomial for s >= 2, whose binomial sum cancels
    by up to (3/2)^(s-2) and so runs as many bits higher.  The error bound
    adds the series' geometric remainder, that sum's rounding and the
    output rounding.  The oracle stays independent of `frac_pair_integral`:
    it sums Hurwitz zetas, where the closed assembly sums Euler's constant
    and zeta values.
    """
    if not isinstance(s, int) or s < 1:
        raise DomainError("the paired integral is implemented for integer s >= 1")
    workprec = precision_bits + GUARD_BITS
    with mp.workprec(workprec):
        tol = _default_tolerance(precision_bits)
        half = mp.mpf(1) / 2
        total, bound = mp.mpc(0), mp.mpf(0)
        for _ in range(2 if s == 1 else 1):  # at s = 1 both weights are y/(1-y)
            total, bound = _folded_tail(
                ((1, s + m + 2, half) for m in itertools.count()), total, bound, workprec, tol)
        # each zeta integral is at most 2^-(m+3), so the binomial terms add up
        # to at most 2^(guard-3), and guard bits higher their sum rounds by at
        # most (s+4) 2^-(workprec+3)
        n = max(s - 2, 0)
        guard = (3 ** n - 1).bit_length() - n  # 2^guard >= (3/2)^(s-2)
        with mp.workprec(workprec + guard):
            for m in range(s - 1):
                total += (-1) ** m * math.comb(s - 2, m) * _zeta_moment_integral(m + 3, mp.prec)
        bound += mp.ldexp(s + 4, -workprec - 3)
        return _oracle_result(total, bound, precision_bits)


@dataclass(frozen=True)
class PairIntegralReport:
    """Closed assembly vs the folded oracle, with their absolute gap."""

    closed: HPComplex
    quadrature: HPComplex
    difference: mp.mpf
    quadrature_error_bound: mp.mpf


def pair_integral_report(s: int, precision_bits: int = 96) -> PairIntegralReport:
    closed = frac_pair_integral(s, precision_bits)
    quad = pair_integral_quadrature(s, precision_bits)
    with mp.workprec(precision_bits + GUARD_BITS):
        diff = abs(closed.to_mpc() - quad.value.to_mpc())
    return PairIntegralReport(
        closed=closed,
        quadrature=quad.value,
        difference=diff,
        quadrature_error_bound=quad.error_bound,
    )


# ---------------------------------------------------------------------------
# alternating / direct transforms

class TransformKind(Enum):
    FERMI = "fermi"
    BOSE = "bose"


@dataclass(frozen=True)
class FermiBoseResult:
    kind: TransformKind
    j: int
    s: HPComplex
    series_value: HPComplex
    closed_value: HPComplex
    difference: mp.mpf
    precision_bits: int


def _alternating_sum(term: Callable[[int], mp.mpc], count: int) -> mp.mpc:
    """Chebyshev-weighted acceleration of sum (-1)^k term(k) (Cohen, Rodriguez
    Villegas & Zagier 2000): the error is at most 2 int_0^1 |w| / 5.828^count
    when term(k) = int_0^1 x^k w(x) dx, for a real or complex weight w."""
    d = (3 + 2 * mp.sqrt(2)) ** count
    d = (d + 1 / d) / 2
    b = mp.mpf(-1)
    c = -d
    total = mp.mpf(0)
    for k in range(count):
        c = b - c
        total += c * term(k)
        b = (k + count) * (k - count) * b / ((k + mp.mpf("0.5")) * (k + 1))
    return total / d


def _eta_hurwitz(sigma, shift, workprec) -> mp.mpc:
    """Alternating Hurwitz sum sum_{m>=0} (-1)^m (m+shift)^-sigma.

    Written as a difference of two Hurwitz zetas on halved arguments; at
    sigma = 1 the two poles cancel and leave digamma values.
    """
    with mp.workprec(workprec):
        sigma = mp.mpc(sigma)
        half = mp.mpf(shift) / 2
        if sigma == 1:
            return (mp.digamma(half + mp.mpf("0.5")) - mp.digamma(half)) / 2
        return mp.mpf(2) ** (-sigma) * (
            mp.zeta(sigma, half) - mp.zeta(sigma, half + mp.mpf("0.5"))
        )


def _rising_factorial_coeffs(j: int) -> list[int]:
    """Integer coefficients e_q with prod_{m=1}^{j-1}(X - m) = sum e_q X^q."""
    coeffs = [1]
    for m in range(1, j):
        nxt = [0] * (len(coeffs) + 1)
        for q, c in enumerate(coeffs):
            nxt[q + 1] += c
            nxt[q] -= c * m
        coeffs = nxt
    return coeffs


def _fermi_closed_two(z, sr, workprec) -> mp.mpc:
    with mp.workprec(workprec):
        if sr == 1:
            return mp.zeta(2) / 2 - mp.log(2)
        return mp.gamma(z + 1) * (
            (1 - mp.mpf(2) ** (-z)) * mp.zeta(z + 1)
            + (mp.mpf(2) ** (1 - z) - 1) * mp.zeta(z)
        )


def _fermi_closed_three(z, sr, workprec) -> mp.mpc:
    with mp.workprec(workprec):
        two = mp.mpf(2)
        if sr == 2:
            bracket = 4 * mp.log(2) - 6 * mp.zeta(2) + 6 * mp.zeta(3)
            return mp.gamma(3) * bracket / 8
        bracket = (
            (two ** z - 4) * mp.zeta(z - 1)
            + 3 * (2 - two ** z) * mp.zeta(z)
            + 2 * (two ** z - 1) * mp.zeta(z + 1)
        )
        return mp.gamma(z + 1) * two ** (-z - 1) * bracket


def _transform_closed(kind: TransformKind, j: int, z, sr, workprec) -> mp.mpc:
    if kind is TransformKind.FERMI and j == 2:
        return _fermi_closed_two(z, sr, workprec)
    if kind is TransformKind.FERMI and j == 3:
        return _fermi_closed_three(z, sr, workprec)
    with mp.workprec(workprec):
        coeffs = _rising_factorial_coeffs(j)
        total = mp.mpc(0)
        for q, e_q in enumerate(coeffs):
            sigma = z + 1 - q
            if kind is TransformKind.BOSE:
                total += e_q * mp.zeta(sigma, j)
            else:
                total += e_q * _eta_hurwitz(sigma, j, workprec)
        return mp.gamma(z + 1) * total / mp.factorial(j - 1)


def _euler_maclaurin_tail(coeffs, sigma, start: int, order: int) -> Tuple[mp.mpc, mp.mpf]:
    """sum_{y >= start} f(y) for f(y) = sum_q coeffs[q] y^(q - sigma), and a
    bound on its error; needs Re sigma > len(coeffs).

    Euler-Maclaurin (DLMF 2.10.1) at Y = start with B_2 ... B_(2 order) and
    exact derivatives: the r-th derivative of y^a is a(a-1)...(a-r+1)
    y^(a-r), and the tail integral of y^a is -Y^(a+1)/(a+1).  The bound is
    DLMF 2.10.3 with m = order + 1, (2 - 2^(1-2m)) |B_2m| / (2m)! times
    int_Y^inf |f^(2m)|, and that integral is at most the sum over q of
    |coeffs[q] a(a-1)...(a-2m+1)| Y^(Re a - 2m + 1) / (2m - 1 - Re a).
    """
    y = mp.mpf(start)
    m = order + 1
    weights = [mp.bernoulli(2 * k) / mp.factorial(2 * k) for k in range(1, m + 1)]
    total = mp.mpc(0)
    bound = mp.mpf(0)
    for q, c in enumerate(coeffs):
        a = q - sigma
        term = c * y ** a  # the r-th derivative's part from y^a, from r = 0
        total += term / 2 - term * y / (a + 1)
        for r in range(1, 2 * m + 1):
            term *= (a - r + 1) / y
            if r % 2 and r < 2 * order:
                total -= weights[r // 2] * term
        bound += abs(term) * y / (2 * m - 1 - a.real)
    return total, (2 - mp.mpf(2) ** (1 - 2 * m)) * abs(weights[-1]) * bound


def fermi_bose_transform(
    j: int,
    kind: TransformKind,
    s,
    precision_bits: int = DEFAULT_PRECISION,
) -> FermiBoseResult:
    """Series sum_{n>=0} (±1)^n (j)_n / n! / (n+j)^(s+1), times Gamma(s+1).

    Evaluated twice: by summing the defining series and through a closed
    zeta/alternating-zeta combination.  The alternating kind is summed by
    `_alternating_sum` for real and complex s; the direct kind as N terms
    plus `_euler_maclaurin_tail`, and a stated remainder above
    2^-(precision_bits + GUARD_BITS) of the sum raises ConvergenceError.
    j = 2, 3 alternating use the explicit two/three-term
    closed forms, with their removable values at s = 1 for j = 2 and
    s = 2 for j = 3.
    """
    if not isinstance(j, int) or j < 1:
        raise DomainError("j must be a positive integer")
    if not isinstance(kind, TransformKind):
        raise DomainError(f"unknown transform kind: {kind!r}")
    workprec = precision_bits + 2 * GUARD_BITS
    with mp.workprec(workprec):
        z = to_mpc(s, workprec)
        if kind is TransformKind.BOSE and not z.real > j - 1:
            raise DomainError(f"direct series needs Re s > {j - 1}")
        if kind is TransformKind.FERMI and not z.real > j - 2:
            raise DomainError(f"alternating series needs Re s > {j - 2}")
        if kind is TransformKind.FERMI:
            # the weight of (n+j)^-(s+1) carries 1/Gamma(s+1), up to
            # e^(pi |Im s| / 2) in size: 0.9 |Im s| more terms of ratio 5.83
            terms = int(0.4 * workprec + 0.9 * abs(z.imag)) + 12
        else:
            # Bernoulli term k is about ((2k + |s|) / (2 pi Y))^2 times term
            # k - 1; Y = N + j above 2K + 2|s| gains 8 bits or more a term
            order = workprec // 8 + 4
            terms = 2 * order + 2 * int(mp.ceil(abs(z)))
        if terms > _SERIES_BUDGET:
            raise ConvergenceError(f"the series needs {terms} terms")
        sr = rational_or_none(s)
        closed = _transform_closed(kind, j, z, sr, workprec)

        def magnitude(n):
            # (j)_n / n! = C(n+j-1, j-1), an exact integer
            return math.comb(n + j - 1, j - 1) * (n + j) ** (-(z + 1))

        if kind is TransformKind.FERMI:
            series = _alternating_sum(magnitude, terms)
        else:
            coeffs = [mp.mpf(e) / math.factorial(j - 1) for e in _rising_factorial_coeffs(j)]
            tail, bound = _euler_maclaurin_tail(coeffs, z + 1, terms + j, order)
            series = mp.fsum(magnitude(n) for n in range(terms)) + tail
            if bound > abs(series) * mp.mpf(2) ** -(precision_bits + GUARD_BITS):
                raise ConvergenceError(
                    f"Euler-Maclaurin remainder bound {mp.nstr(bound, 5)} is too large")
        series = mp.gamma(z + 1) * series
        return FermiBoseResult(
            kind=kind,
            j=j,
            s=HPComplex.from_value(z, precision_bits),
            series_value=HPComplex.from_value(series, precision_bits),
            closed_value=HPComplex.from_value(closed, precision_bits),
            difference=abs(mp.mpc(series) - mp.mpc(closed)),
            precision_bits=precision_bits,
        )


# ---------------------------------------------------------------------------
# the brute-force oracle

@dataclass(frozen=True)
class FracOracleResult:
    value: HPComplex
    error_bound: mp.mpf
    lower: Optional[mp.mpf]
    upper: Optional[mp.mpf]
    terms_used: int


def _inner_exact(alpha: int, count: int, z, workprec) -> list:
    """int_0^1 u^alpha (u+k)^-(s+1) du in closed form for k = 1..count,
    alpha in {1, 2}.

    Step k needs k^(alpha-s) and (k+1)^(alpha-s); the first is step k-1's
    second, so each is computed once.
    """
    with mp.workprec(workprec):
        exponent = alpha - z
        low = mp.mpf(1) ** exponent
        values = []
        for k in range(1, count + 1):
            kk = mp.mpf(k + 1)
            high = kk ** exponent
            if alpha == 1:
                values.append(-kk ** (-z) / z + (high - low) / (z * (1 - z)))
            else:
                g = -(kk ** (1 - z)) / (z - 1) + (high - low) / ((z - 1) * (2 - z))
                values.append(-(kk ** (-z)) / z + 2 * g / z)
            low = high
        return values


def _series_guard(aa, z) -> int:
    """Bits the series of `_inner_series` can lose to cancellation.

    Every k's terms |c_j| (k+1)^-j are at most those of k = 1, whose
    ratio |b+j| |a+1+j| / (2 (j+1) |a+2+j|), b = a + 1 - s, is below 1
    once j > |b| - 2.  So the largest term is among the first |b| + 2;
    its log2, found in floating point, is returned rounded up (at least 0).
    Past |b| = _SERIES_BUDGET the k = 1 series cannot stop within its
    budget, and this refuses at once.
    """
    a1 = complex(aa) + 1
    bc = a1 - complex(z)
    if abs(bc) > _SERIES_BUDGET:
        raise ConvergenceError("inner series exhausted its budget")
    log_rising = 0.0  # log2 |(b)_j / j!| 2^-j
    peak = -math.log2(abs(a1))
    for j in range(1, int(abs(bc)) + 2):
        step = abs(bc + j - 1) / (2 * j)
        if step == 0:
            break  # b is a non-positive integer: later terms vanish
        log_rising += math.log2(step)
        peak = max(peak, log_rising - math.log2(abs(a1 + j)))
    return max(0, math.ceil(peak))


def _inner_series(aa, count: int, z, workprec, tol) -> list:
    """int_0^1 u^alpha (u+k)^-(s+1) du for k = 1..count, any Re alpha > -1,
    as triples (value, prefactor, remainder).

    The integral is k^-(s+1)/(a+1) 2F1(s+1, a+1; a+2; -1/k), and Pfaff's
    transformation (DLMF 15.8.1) turns it into a series in 1/(k+1) <= 1/2:

        I_k = P_k S_k,  P_k = k^(a-s) (k+1)^-(a+1),
        S_k = sum_j c_j (k+1)^-j,  c_j = (a+1-s)_j / (j! (a+1+j)).

    The c_j do not depend on k, so one table serves every k, and step k's
    (k+1)^(a-s) is step k+1's k^(a-s).  Since |a+1+j| < |a+2+j| for
    Re a > -1, every term ratio from term J on is at most
    rho_J = max(1, (|a+1-s| + J) / (J+1)) / (k+1), so the terms from J on
    sum to at most |c_J| (k+1)^-J / (1 - rho_J).  Each k stops at the
    first J with rho_J < 1 and |P_k| times that below tol; value is P_k
    times the terms before J.

    For large |a+1-s| the terms grow far past S_k before they cancel, so
    the sum runs `_series_guard` bits above workprec.  The remainder is
    the tail bound plus the rounding: 8 (J + 1) units of that precision
    times the sum of the summed terms' sizes, as each term carries the
    relative errors of its J-step recursions and of the running sum.
    """
    sumprec = workprec + _series_guard(aa, z)
    with mp.workprec(sumprec):
        unit = mp.ldexp(1, -sumprec)
        b = aa + 1 - z
        b_abs = abs(b)
        exponent = aa - z
        coeffs = []  # c_j
        sizes = []  # |c_j|
        growths = []  # max(1, (|a+1-s| + j) / (j+1)), rho_j times (k+1)
        rising = mp.mpc(1)  # (a+1-s)_j / j!
        low = mp.mpf(1) ** exponent
        values = []
        for k in range(1, count + 1):
            kk = mp.mpf(k + 1)
            prefactor = low * kk ** (-(aa + 1))
            scale = abs(prefactor)
            low = kk ** exponent
            total = mp.mpc(0)
            spread = mp.mpf(0)  # sum of |c_j| (k+1)^-j over the summed terms
            power = mp.mpf(1)  # (k+1)^-j
            j = 0
            while True:
                if j == len(coeffs):
                    coeffs.append(rising / (aa + 1 + j))
                    sizes.append(abs(coeffs[j]))
                    growths.append(max(1, (b_abs + j) / (j + 1)))
                    rising *= (b + j) / (j + 1)
                ratio = growths[j] / kk
                if ratio < 1:
                    remainder = sizes[j] * power / (1 - ratio)
                    if scale * remainder < tol:
                        break
                total += coeffs[j] * power
                spread += sizes[j] * power
                power /= kk
                j += 1
                if j > _SERIES_BUDGET:
                    raise ConvergenceError("inner series exhausted its budget")
            rounding = 8 * (j + 1) * unit * spread
            values.append((prefactor * total, prefactor, remainder + rounding))
        return values


def numeric_fracpart_oracle(
    spec: FracIntegralSpec, precision_bits: int = DEFAULT_PRECISION
) -> FracOracleResult:
    """Brute-force moment value: k-sum of inner integrals plus analytic tail.

    The k-sum runs the first 40 terms with the inner integral
    int_0^1 u^alpha (u+k)^-(s+1) du done exactly: in closed form for alpha
    1 or 2, otherwise as the Pfaff-transformed 2F1 series of
    `_inner_series` (DLMF 15.8.1), each k stopped once its stated remainder
    is below tolerance / (8 * 40).  The rest expands (u+k)^-(s+1) about
    u = 1, turning into Beta factors against Hurwitz zetas, summed until
    the expansion terms pass below tolerance.  The error bound adds the
    tail bound, the output rounding |value| 2^-precision_bits and, for the
    series, k^beta |P_k| times each k's remainder bound, which counts the
    truncation and the rounding of the sum.  Real parameter sets also get
    the elementary sandwich bounds.

    Each distinct Hurwitz zeta of the tail, each series coefficient and
    each power k^(alpha-s) of the inner integrals is computed once per
    call; the values are those of computing every one where it is used,
    bit for bit.
    """
    workprec = precision_bits + 2 * GUARD_BITS
    beta = spec.beta
    with mp.workprec(workprec):
        z = to_mpc(spec.s, workprec)
        aa = to_mpc(spec.alpha, workprec)
        if not z.real > beta + max(0, aa.real - 1):
            raise DomainError("oracle needs Re s > beta + max(0, Re alpha - 1)")
        tol = _default_tolerance(precision_bits)
        ar = rational_or_none(spec.alpha)
        exact_alpha = int(ar) if ar is not None and ar.denominator == 1 and ar in (1, 2) else None
        sr = rational_or_none(spec.s)
        if exact_alpha is not None and sr in ((1,) if exact_alpha == 1 else (1, 2)):
            raise DomainError(
                f"the exact inner integral degenerates at s = {sr}; "
                "this oracle point is out of scope"
            )

        k_sum_terms = 40
        total = mp.mpc(0)
        series_error = mp.mpf(0)
        if exact_alpha is not None:
            exact = _inner_exact(exact_alpha, k_sum_terms, z, workprec)
        else:
            series = _inner_series(aa, k_sum_terms, z, workprec, tol / (8 * k_sum_terms))
        for k in range(1, k_sum_terms + 1):
            weight = mp.mpf(k) ** beta
            if exact_alpha is not None:
                inner = exact[k - 1]
            else:
                inner, prefactor, remainder = series[k - 1]
                series_error += weight * abs(prefactor) * remainder
            total += weight * inner

        # tail over k > k_sum_terms, expanded about u = 1
        shift = k_sum_terms + 2
        rf = mp.mpc(1)  # (s+1)_i / i!
        i = 0
        tail_bound = mp.mpf(0)
        # Hurwitz zetas by argument: step i's s + 1 + i - r comes back at
        # step i + 1 as r + 1.  The key is the rounded argument itself, so a
        # value is reused only where the call would be the same bit for bit.
        zetas = {}
        while True:
            zeta_sum = mp.mpc(0)
            base = z + 1 + i
            for r in range(beta + 1):
                arg = base - r
                value = zetas.get(arg)
                if value is None:
                    value = zetas[arg] = mp.zeta(arg, shift)
                zeta_sum += math.comb(beta, r) * (-1) ** (beta - r) * value
            term = rf * mp.beta(aa + 1, i + 1) * zeta_sum
            total += term
            if i > 3 and abs(term) < tol / 10:
                tail_bound = 2 * abs(term)
                break
            rf *= (z + 1 + i) / (i + 1)
            i += 1
            if i > 10_000:
                raise ConvergenceError("oracle tail expansion exhausted its budget")

        lower = upper = None
        if z.imag == 0 and aa.imag == 0:
            lo = mp.mpf(0)
            for r in range(beta + 1):
                top = mp.zeta(z.real + 1 - r)
                lo += math.comb(beta, r) * (-1) ** (beta - r) * (top - 1)
            lower = lo / (aa.real + 1)
            upper = top / (aa.real + 1)  # r = beta: zeta(Re s + 1 - beta)
        return FracOracleResult(
            value=HPComplex.from_value(total, precision_bits),
            error_bound=mp.mpf(
                tail_bound + series_error + abs(total) * mp.ldexp(1, -precision_bits)),
            lower=lower,
            upper=upper,
            terms_used=k_sum_terms + i + 1,
        )


def frac_weight_quadrature(s, b, alpha, precision_bits: int = 96) -> OracleQuadrature:
    """Direct oracle for the weighted transform.

    Tanh-sinh over the one singular segment [1/2, 1], where (1-x^b)^-alpha
    blows up at x = 1 and is computed from the distance to that endpoint.
    The rest, the unit-fraction segments [1/(k+1), 1/k] for k >= 2, is the
    same fold as the paired-integral oracle's: x = 1/(k+t) turns it into
    Hurwitz zeta integrals, with the weight expanded binomially in
    (k+t)^-b, and each of those is summed exactly (`_zeta_moment_integral`).
    The m-th coefficient (alpha)_m / m! grows by at most
    max(1, (|alpha| + m) / (m + 1)) a step and the zeta integrals fall by
    2^-b, which gives the fold its geometric remainder.  The error bound
    adds the segment's tanh-sinh error estimate (extrapolated from its last
    two levels), that remainder and the output rounding.
    """
    workprec = precision_bits + GUARD_BITS
    z, bb = _weight_args(s, b, workprec)
    with mp.workprec(workprec):
        aa = to_mpc(alpha, workprec)
        if not (0 <= aa.real < 1):
            raise DomainError("need 0 <= Re alpha < 1")
        tol = _default_tolerance(precision_bits)

        def g(t, dist_a, dist_b):
            # {1/t} = 1/t - 1 on [1/2, 1], and 1 - t^b from the distance to 1
            w = -mp.expm1(bb * mp.log1p(-dist_b))
            return (1 / t - 1) * t ** (z - 1) * w ** (-aa)

        def tail():
            # (1 - x^b)^-alpha with x = 1/(k+t) expanded in (k+t)^-b
            shrink, size = mp.mpf(2) ** (-bb), abs(aa)
            coeff = mp.mpc(1)
            for m in itertools.count():
                yield coeff, z + 1 + bb * m, shrink * max(1, (size + m) / (m + 1))
                coeff *= (aa + m) / (m + 1)

        piece = tanh_sinh(g, mp.mpf(1) / 2, mp.mpf(1), workprec,
                          tolerance=tol / 8, min_level=3)
        total, bound = _folded_tail(
            tail(), mp.mpc(piece.value), abs(piece.error_estimate), workprec, tol)
        return _oracle_result(total, bound, precision_bits)
