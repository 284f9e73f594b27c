"""Gamma family, zeta family, Ferrers functions, and a generalized
hypergeometric engine with the A1-A3 transformation catalog and the
Kummer-family argument -1 identities.

Gamma and zeta evaluation is backed by mpmath (Stirling-family gamma,
Euler-Maclaurin zeta with exact Bernoulli caching); this module owns the
pole/termination semantics, the exact terminating path over Gaussian
rationals, and the unit-argument strategy selection.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import factorial
from typing import Optional, Sequence

import mpmath as mp

from .errors import DivergenceError, DomainError, PoleError
from .mpcore import (
    DEFAULT_PRECISION,
    FIXED_GUARD_BITS,
    GUARD_BITS,
    GaussianRational,
    HPComplex,
    as_rational,
    exact_or_none,
    to_mpc,
)


def _pole_index(g: Optional[GaussianRational]) -> Optional[int]:
    """-g when the exact reading g is a nonpositive integer, else None."""
    if g is not None and g.im == 0 and g.re.denominator == 1 and g.re <= 0:
        return int(-g.re)
    return None


def is_nonpositive_integer(value) -> bool:
    """Exact check; floating values qualify only when they hold an exact
    integer, so a value near a pole is never rounded onto it."""
    return _pole_index(exact_or_none(value)) is not None


# ---------------------------------------------------------------------------
# gamma family

def gamma(z, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """Gamma with an explicit pole error at nonpositive integers.

    Relative error is a few ulp at the requested precision; the reciprocal
    variant below is total and is the one to use when a vanishing 1/Gamma
    prefactor must select terms exactly.  The pole check reads z as it is
    evaluated, so a value that rounds onto a pole at this precision raises
    PoleError too.
    """
    workprec = precision_bits + GUARD_BITS
    zv = to_mpc(z, workprec)
    if is_nonpositive_integer(zv):
        raise PoleError(f"gamma pole at {z}")
    with mp.workprec(workprec):
        value = mp.gamma(zv)
    return HPComplex.from_value(value, precision_bits)


def reciprocal_gamma(z, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    with mp.workprec(precision_bits + GUARD_BITS):
        value = mp.rgamma(to_mpc(z, precision_bits + GUARD_BITS))
    return HPComplex.from_value(value, precision_bits)


# ---------------------------------------------------------------------------
# zeta family

def riemann_zeta(s, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    with mp.workprec(precision_bits + GUARD_BITS):
        s = to_mpc(s, precision_bits + GUARD_BITS)
        if s == 1:
            raise PoleError("zeta pole at s = 1")
        value = mp.zeta(s)
    return HPComplex.from_value(value, precision_bits)


def hurwitz_zeta(s, a, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    with mp.workprec(precision_bits + GUARD_BITS):
        s = to_mpc(s, precision_bits + GUARD_BITS)
        a = to_mpc(a, precision_bits + GUARD_BITS)
        if a.real <= 0:
            raise DomainError(f"Hurwitz shift must have Re > 0, got {a}")
        if s == 1:
            raise PoleError("Hurwitz zeta pole at s = 1")
        value = mp.zeta(s, a)
    return HPComplex.from_value(value, precision_bits)


def polygamma(order: int, z, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    if not isinstance(order, int) or order < 0:
        raise DomainError(f"polygamma order must be a nonnegative integer, got {order}")
    with mp.workprec(precision_bits + GUARD_BITS):
        z = to_mpc(z, precision_bits + GUARD_BITS)
        if is_nonpositive_integer(z):
            raise PoleError(f"polygamma pole at {z}")
        value = mp.polygamma(order, z)
    return HPComplex.from_value(value, precision_bits)


# ---------------------------------------------------------------------------
# Ferrers (associated Legendre on (-1, 1)), with Condon-Shortley phase

def ferrers(n: int, m: int, x) -> mp.mpf:
    """P_n^m(x) for real -1 <= x <= 1, at the ambient working precision.

    m = 0 is the ordinary Legendre polynomial; mpmath's legenp is not
    reliable on this interval.  x is read once by mpcore.to_mpc; a string
    that is no number, inf, nan, a nonzero imaginary part or |x| > 1 raises
    DomainError.

    The upward recurrence (l-m) P_l = (2l-1) x P_(l-1) - (l+m-1) P_(l-2)
    runs on integers at 2^S from P_m^m = (-1)^m (2m-1)!! (1-x^2)^(m/2).
    Row l is scaled by (l-m)!, so each step is division-free,

        Q_l = (((2l-1) X Q_(l-1)) >> S) - (l+m-1)(l-m-1) Q_(l-2),  X = x 2^S,

    and one integer division by (n-m)! at the end gives P_n^m.  P_m^m is
    computed with FIXED_GUARD_BITS extra bits.  The headroom S is the
    working precision plus FIXED_GUARD_BITS, plus -mag(P_m^m) when P_m^m
    is small, so order m > 0 near x = +-1 keeps the precision relative to
    its own scale.  The error stays within a few units of 2^-prec times
    max_(m<=k<=n) |P_k^m(x)|.
    """
    if m < 0 or n < 0:
        raise DomainError("ferrers requires n >= 0 and m >= 0")
    z = to_mpc(x, mp.mp.prec)
    if z.imag or abs(z.real) > 1:
        raise DomainError(f"ferrers requires real -1 <= x <= 1, got {x!r}")
    if m > n:
        return mp.mpf(0)
    x, shift = z.real, mp.mp.prec + FIXED_GUARD_BITS
    pmm = mp.mpf(1)
    if m:
        with mp.workprec(shift):
            pmm = (-1) ** m * double_factorial(2 * m - 1) \
                * mp.sqrt((1 - x) * (1 + x)) ** m
    if n == m or not pmm:
        return +pmm
    shift += max(0, -mp.mag(pmm))
    big_x = int(mp.ldexp(x, shift))
    prev, row = 0, int(mp.ldexp(pmm, shift))
    for ll in range(m + 1, n + 1):
        prev, row = row, ((2 * ll - 1) * big_x * row >> shift) \
            - (ll + m - 1) * (ll - m - 1) * prev
    return mp.ldexp(row // factorial(n - m), -shift)


def double_factorial(k: int) -> int:
    """k!! with the usual empty-product conventions (-1)!! = 0!! = 1."""
    if k < -1:
        raise DomainError(f"double factorial undefined for {k}")
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def pochhammer_rational(a, k: int) -> Fraction | GaussianRational:
    """(a)_k = a (a+1) ... (a+k-1), exactly, for rational or Gaussian-rational a."""
    if isinstance(a, GaussianRational):
        out = GaussianRational(1)
    else:
        out, a = Fraction(1), as_rational(a)
    for i in range(k):
        out *= a + i
    return out


# ---------------------------------------------------------------------------
# generalized hypergeometric engine

@dataclass(frozen=True)
class HypergeometricSpec:
    """A pFq evaluation request.

    Parameters may be any scalar mpcore.to_mpc reads; those that
    mpcore.exact_or_none reads exactly (int, Fraction, GaussianRational,
    and real integral floating values) enable the exact terminating path
    and the precise pole/termination ordering checks.
    """

    numerator_params: tuple
    denominator_params: tuple
    argument: object

    def __init__(self, numerator_params: Sequence, denominator_params: Sequence, argument):
        object.__setattr__(self, "numerator_params", tuple(numerator_params))
        object.__setattr__(self, "denominator_params", tuple(denominator_params))
        object.__setattr__(self, "argument", argument)

    @cached_property
    def exact(self) -> tuple:
        """exact_or_none of each numerator parameter, each denominator
        parameter and the argument, read once per spec."""
        return (tuple(exact_or_none(p) for p in self.numerator_params),
                tuple(exact_or_none(p) for p in self.denominator_params),
                exact_or_none(self.argument))

    @property
    def termination_index(self) -> Optional[int]:
        """Last retained series index when a numerator parameter is a
        nonpositive integer; None for non-terminating series."""
        return _termination_index(self.exact[0])


def _termination_index(exact_nums) -> Optional[int]:
    found = [k for k in map(_pole_index, exact_nums) if k is not None]
    return min(found) if found else None


def _check_denominator_poles(dens, n_term: Optional[int]) -> None:
    """dens holds (parameter, exact reading) pairs."""
    for d, g in dens:
        k = _pole_index(g)
        if k is not None and (n_term is None or n_term > k):
            raise PoleError(
                f"denominator parameter {d} terminates before the numerator"
            )


def _cancel_pairs(nums, dens) -> tuple:
    """Drop equal numerator/denominator pairs from the (parameter, exact
    reading) pairs nums and dens; exact readings must match, inexact
    parameters must be the same object.  A nonpositive integer pair -N/-N
    is kept: its numerator ends the series at N, which cancelling would
    lose."""
    nums, dens = list(nums), list(dens)
    for a, ga in list(nums):
        if _pole_index(ga) is not None:
            continue
        for b, gb in dens:
            if (ga == gb) if ga is not None else (a is b):
                nums.remove((a, ga))
                dens.remove((b, gb))
                break
    return nums, dens


def _exact_coefficients(nums, dens, n_term: int) -> list:
    """c_0..c_(n_term) with pFq(z) = sum c_k z^k, c_k = prod (a)_k / prod (b)_k / k!,
    for exact GaussianRational parameters."""
    c = GaussianRational(1)
    out = [c]
    for k in range(n_term):
        for a in nums:
            c = c * (a + k)
        for b in dens:
            c = c / (b + k)
        c = c / (k + 1)
        out.append(c)
    return out


def hyp_terminating_exact(spec: HypergeometricSpec) -> GaussianRational:
    """Exact Gaussian-rational sum of a terminating series with exact inputs."""
    nums, dens, z = spec.exact
    if z is None or None in nums or None in dens:
        raise DomainError("exact path requires rational parameters and argument")
    n_term = _termination_index(nums)
    if n_term is None:
        raise DomainError("exact path requires a terminating series")
    _check_denominator_poles(zip(spec.denominator_params, dens), n_term)
    total = GaussianRational(0)
    for c in reversed(_exact_coefficients(nums, dens, n_term)):
        total = total * z + c
    return total


def _term_ratios(nums, dens, n_term: int) -> list:
    """prod (a + k) / prod (b + k) for k < n_term, at the ambient precision;
    term k + 1 is term k * ratio_k * z / (k + 1)."""
    ratios = []
    for k in range(n_term):
        factor = mp.mpc(1)
        for a in nums:
            factor *= a + k
        for b in dens:
            factor /= b + k
        ratios.append(factor)
    return ratios


def _sum_ratios(ratios, z) -> mp.mpc:
    total = mp.mpc(1)
    term = mp.mpc(1)
    for k, ratio in enumerate(ratios):
        term = term * ratio * z / (k + 1)
        total += term
    return total


def _pair_ratios(nums, dens, n_term: int, workprec: int) -> list:
    """_term_ratios at workprec of (parameter, exact reading) pairs."""
    with mp.workprec(workprec):
        return _term_ratios([to_mpc(a, workprec) for a, _ in nums],
                            [to_mpc(b, workprec) for b, _ in dens], n_term)


def _terminating_value(nums, dens, n_term: int, z, zq: Optional[GaussianRational],
                       precision_bits: int) -> HPComplex:
    """The terminating pFq of the cancelled (parameter, exact reading) pairs
    at z, whose exact reading is zq: summed exactly when z and every
    parameter are exact, else by term ratios at the working precision."""
    exact_nums, exact_dens = [g for _, g in nums], [g for _, g in dens]
    if zq is not None and all(g is not None for g in exact_nums + exact_dens):
        return hyp_terminating_exact(HypergeometricSpec(
            exact_nums, exact_dens, zq)).to_hpcomplex(precision_bits)
    workprec = precision_bits + GUARD_BITS
    ratios = _pair_ratios(nums, dens, n_term, workprec)
    with mp.workprec(workprec):
        total = _sum_ratios(ratios, to_mpc(z, workprec))
    return HPComplex.from_value(total, precision_bits)


def terminating_coefficients(nums: Sequence, dens: Sequence,
                             precision_bits: int = DEFAULT_PRECISION) -> list:
    """c_0..c_N with pFq(nums; dens; z) = sum c_k z^k, as mpcs at
    precision_bits + GUARD_BITS: exact and rounded once when the parameters
    are exact, else running products of the term ratios.

    Parameters cancel as in hyp_pfq.  Raises DomainError when no numerator
    parameter is a nonpositive integer, PoleError when a denominator one
    ends first.
    """
    nums, dens = _cancel_pairs([(a, exact_or_none(a)) for a in nums],
                               [(b, exact_or_none(b)) for b in dens])
    n_term = _termination_index(g for _, g in nums)
    if n_term is None:
        raise DomainError("not a terminating series")
    _check_denominator_poles(dens, n_term)
    workprec = precision_bits + GUARD_BITS
    if all(g is not None for _, g in nums + dens):
        return [c.to_mpc(workprec) for c in _exact_coefficients(
            [g for _, g in nums], [g for _, g in dens], n_term)]
    ratios = _pair_ratios(nums, dens, n_term, workprec)
    with mp.workprec(workprec):
        out = [mp.mpc(1)]
        for k, ratio in enumerate(ratios):
            out.append(out[-1] * ratio / (k + 1))
    return out


def _sum_inside_disk(nums, dens, z, precision_bits: int) -> mp.mpc:
    eps = mp.mpf(2) ** (-(precision_bits + 8))
    q = (1 + abs(z)) / 2
    total = mp.mpc(0)
    term = mp.mpc(1)
    budget = 2_000_000
    for k in range(budget):
        total += term
        factor = mp.mpc(1)
        for a in nums:
            factor *= a + k
        for b in dens:
            factor /= b + k
        step = factor * z / (k + 1)
        term = term * step
        if abs(step) <= q and abs(term) * q / (1 - q) < eps * (1 + abs(total)):
            return total
    raise DivergenceError("series inside the unit disk exhausted its term budget")


def _hyper_unit(nums, dens, precision_bits: int) -> mp.mpc:
    """Convergent pFq(1) via mpmath's summation engine."""
    try:
        with mp.workprec(precision_bits + 2 * GUARD_BITS):
            return mp.mpc(mp.hyper([mp.mpc(a) for a in nums],
                                   [mp.mpc(b) for b in dens], 1))
    except mp.libmp.NoConvergence as exc:
        raise DivergenceError(f"unit-argument series did not converge: {exc}") from None


def _gamma_product(num_args, den_args, precision_bits: int):
    """prod Gamma(num) * prod 1/Gamma(den); returns exact 0 when a
    reciprocal factor vanishes, so callers can skip the attached series."""
    for d in den_args:
        if is_nonpositive_integer(d):
            return mp.mpc(0)
    value = mp.mpc(1)
    for n in num_args:
        if is_nonpositive_integer(n):
            raise PoleError(f"gamma pole at {n} in a prefactor")
        value *= mp.gamma(mp.mpc(n))
    for d in den_args:
        value *= mp.rgamma(mp.mpc(d))
    return value


def _excess(nums, dens) -> mp.mpf:
    return (mp.fsum(mp.mpc(b).real for b in dens)
            - mp.fsum(mp.mpc(a).real for a in nums))


def _a1(a, b, c, d, e, series, precision_bits: int) -> mp.mpc:
    """A1's right side for 3F2(a, b, c; d, e; 1): two gamma ratios times the
    3F2(1)s that series sums, each skipped where its ratio is exactly 0."""
    p1 = _gamma_product((e - a - b, e), (e - a, e - b), precision_bits)
    p2 = _gamma_product((a + b - e, d, e, d + e - a - b - c),
                        (a, b, d - c, d + e - a - b), precision_bits)
    total = mp.mpc(0)
    if p1 != 0:
        total += p1 * series((a, b, d - c), (d, 1 + a + b - e), precision_bits)
    # the second term carries a plus sign: both generic-tuple checks and the
    # standard two-term relation force it
    if p2 != 0:
        total += p2 * series((e - a, e - b, d + e - a - b - c),
                             (1 + e - a - b, d + e - a - b), precision_bits)
    return total


def _a1_raised(nums, dens, precision_bits: int) -> Optional[mp.mpc]:
    """One A1 application on a 3F2(1), permuting parameters so both
    resulting series have excess Re(1+c-e) > 1/2; None when no labeling
    avoids prefactor poles."""
    candidates = []
    for ci in range(3):
        for ei in range(2):
            c, e = nums[ci], dens[ei]
            raised = 1 + (mp.mpc(c).real - mp.mpc(e).real)
            if raised > 0.5:
                candidates.append((raised, ci, ei))
    candidates.sort(key=lambda t: -t[0])
    for _, ci, ei in candidates:
        a, b = [nums[j] for j in range(3) if j != ci]
        try:
            return _a1(a, b, nums[ci], dens[1 - ei], dens[ei], _hyper_unit, precision_bits)
        except PoleError:
            continue
    return None


def hyp_pfq(spec: HypergeometricSpec, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """Evaluate a pFq request.

    Strategy order: cancel matching parameters, except a nonpositive
    integer pair; terminating series summed term by term (exact when
    inputs are exact); |z| < 1 direct with a geometric tail bound;
    z = -1 for 2F1 via Pfaff to argument 1/2; z = 1 by Gauss (2F1) or the
    unit-argument engine when the convergence excess allows, with a single
    A1 excess-raise attempted in the marginal band.  Anything else is an
    explicit DivergenceError, never a silent wrong answer.
    """
    nums, dens = _cancel_pairs(zip(spec.numerator_params, spec.exact[0]),
                               zip(spec.denominator_params, spec.exact[1]))
    n_term = _termination_index(g for _, g in nums)
    _check_denominator_poles(dens, n_term)
    if n_term is not None:
        return _terminating_value(nums, dens, n_term, spec.argument, spec.exact[2],
                                  precision_bits)

    with mp.workprec(precision_bits + GUARD_BITS):
        z = to_mpc(spec.argument, precision_bits + GUARD_BITS)
        fnums = [to_mpc(a, precision_bits + GUARD_BITS) for a, _ in nums]
        fdens = [to_mpc(b, precision_bits + GUARD_BITS) for b, _ in dens]

        if abs(z) < 1:
            return HPComplex.from_value(
                _sum_inside_disk(fnums, fdens, z, precision_bits), precision_bits)

        if z == -1 and len(fnums) == 2 and len(fdens) == 1:
            # Pfaff: F(a,b;c;-1) = 2^(-a) F(a, c-b; c; 1/2)
            a, b = fnums
            c = fdens[0]
            inner = _sum_inside_disk((a, c - b), (c,), mp.mpf("0.5"), precision_bits)
            return HPComplex.from_value(mp.power(2, -a) * inner, precision_bits)

        if z == 1:
            excess = _excess(fnums, fdens)
            if excess <= 0:
                raise DivergenceError(
                    f"pFq(1) with convergence excess {mp.nstr(excess, 6)} diverges"
                )
            if len(fnums) == 2 and len(fdens) == 1:
                a, b = fnums
                c = fdens[0]
                pref = _gamma_product((c, c - a - b), (c - a, c - b), precision_bits)
                return HPComplex.from_value(pref, precision_bits)
            if len(fnums) == 3 and len(fdens) == 2 and excess <= 0.5:
                raised = _a1_raised(tuple(fnums), tuple(fdens), precision_bits)
                if raised is not None:
                    return HPComplex.from_value(raised, precision_bits)
            return HPComplex.from_value(_hyper_unit(fnums, fdens, precision_bits), precision_bits)

    raise DivergenceError(f"no evaluation strategy for argument {spec.argument}")


def hyp2f1(a, b, c, z, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    return hyp_pfq(HypergeometricSpec((a, b), (c,), z), precision_bits)


def hyp3f2(a1, a2, a3, b1, b2, z, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    return hyp_pfq(HypergeometricSpec((a1, a2, a3), (b1, b2), z), precision_bits)


# ---------------------------------------------------------------------------
# the A1-A3 transformation catalog

class TransformId(enum.Enum):
    A1 = "A1"
    A2 = "A2"
    A3 = "A3"


def _f32(nums, dens, precision_bits) -> mp.mpc:
    n_term = _termination_index(map(exact_or_none, nums))
    if n_term is not None:
        return _sum_ratios(_term_ratios(nums, dens, n_term), mp.mpf(1))
    if _excess(nums, dens) <= 0:
        raise DivergenceError("3F2(1) side series diverges")
    return _hyper_unit(nums, dens, precision_bits)


def threeF2_transform_check(
    transform: TransformId, a, b, c, d, e, precision_bits: int = DEFAULT_PRECISION
) -> HPComplex:
    """Evaluate both sides of one cataloged 3F2(1) transformation and
    return LHS - RHS.

    Both sides are computed independently; every denominator gamma goes
    through the reciprocal form, so a vanishing prefactor suppresses its
    series instead of producing a NaN.  A1's right side is hyp_pfq's `_a1`.
    """
    with mp.workprec(precision_bits + 2 * GUARD_BITS):
        az, bz, cz, dz, ez = (to_mpc(x, precision_bits + 2 * GUARD_BITS) for x in (a, b, c, d, e))
        lhs = _f32((az, bz, cz), (dz, ez), precision_bits)

        if transform is TransformId.A1:
            rhs = _a1(az, bz, cz, dz, ez, _f32, precision_bits)
        elif transform is TransformId.A2:
            rhs = _shared_t1(az, bz, cz, dz, ez, precision_bits)
            p2 = _gamma_product((1 + az - dz, 1 + cz - dz),
                                (1 - dz, 1 + az + cz - dz), precision_bits)
            if p2 != 0:
                rhs += p2 * _f32((az, cz, ez - bz), (1 + az + cz - dz, ez), precision_bits)
        elif transform is TransformId.A3:
            rhs = _shared_t1(az, bz, cz, dz, ez, precision_bits)
            p2 = _gamma_product(
                (1 + az - dz, 1 + bz - dz, 1 + cz - dz, ez),
                (1 - dz, 1 + az + bz - dz, 1 + az + cz - dz, ez - az), precision_bits)
            if p2 != 0:
                rhs += p2 * _f32(
                    (az, 1 + az - dz, 1 + az + bz + cz - dz - ez),
                    (1 + az + bz - dz, 1 + az + cz - dz), precision_bits)
        else:  # pragma: no cover - enum is closed
            raise DomainError(f"unknown transform {transform}")

        residual = lhs - rhs
    return HPComplex.from_value(residual, precision_bits)


def _shared_t1(az, bz, cz, dz, ez, precision_bits) -> mp.mpc:
    """First right-hand term shared by A2 and A3."""
    p1 = _gamma_product(
        (1 + az - dz, 1 + bz - dz, 1 + cz - dz, dz, ez),
        (az, bz, cz, 1 + ez - dz, 2 - dz), precision_bits)
    if p1 == 0:
        return mp.mpc(0)
    return p1 * _f32((1 + az - dz, 1 + bz - dz, 1 + cz - dz),
                     (1 + ez - dz, 2 - dz), precision_bits)


# ---------------------------------------------------------------------------
# Kummer family: 2F1 at argument -1 against gamma-ratio closed forms

def kummer_2f1_residual(which: str, s, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    """|LHS - RHS| material for the three argument -1 identities.

    which: 'a' (Kummer's own case), 'b' or 'c' (its two contiguous
    neighbours).  The left side goes through the Pfaff route of hyp_pfq;
    the right side is pure gamma arithmetic.
    """
    with mp.workprec(precision_bits + GUARD_BITS):
        sz = to_mpc(s, precision_bits + GUARD_BITS)
        sqpi = mp.sqrt(mp.pi)
        if which == "a":
            lhs = hyp2f1(sz, mp.mpf("0.5"), sz + mp.mpf("0.5"), -1, precision_bits).to_mpc()
            rhs = sqpi * mp.power(2, -sz) * mp.gamma(sz + mp.mpf("0.5")) \
                * mp.rgamma((sz + 1) / 2) ** 2
        elif which == "b":
            lhs = hyp2f1(sz, mp.mpf("-0.5"), sz + mp.mpf("0.5"), -1, precision_bits).to_mpc()
            rhs = sqpi * mp.power(2, -sz) * mp.gamma(sz + mp.mpf("0.5")) * (
                mp.rgamma((sz + 1) / 2) ** 2 + (sz / 2) * mp.rgamma(sz / 2 + 1) ** 2
            )
        elif which == "c":
            lhs = hyp2f1(sz, mp.mpf("0.5"), sz + mp.mpf("1.5"), -1, precision_bits).to_mpc()
            rhs = -sqpi * mp.power(2, 1 - sz) * mp.gamma(sz + mp.mpf("1.5")) * (
                (2 / sz) * mp.rgamma(sz / 2) ** 2 - mp.rgamma((sz + 1) / 2) ** 2
            )
        else:
            raise DomainError(f"unknown identity tag {which!r}")
        residual = lhs - rhs
    return HPComplex.from_value(residual, precision_bits)
