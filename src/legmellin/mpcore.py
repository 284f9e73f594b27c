"""Exact rationals, arbitrary-precision complex values, and dense
rational-coefficient polynomials in one variable.

Exact rationals are ``fractions.Fraction``: always stored reduced, which is
exactly the invariant the recursions need to keep coefficient growth in
check.  ``HPComplex`` carries its precision in bits as data, not ambient
state; mixed-precision arithmetic resolves to the max of the operands.
``RationalPolynomial`` is dense and exact: integer numerators over one
denominator, evaluated at floating points by a fixed-point integer Horner
(``fixed_point_horner``) whose truncation bound sets its width.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from math import ceil, floor, gcd, lcm, log2
from typing import Iterable, Optional, Sequence, Union

import mpmath as mp
from mpmath.libmp import from_int, fzero, mpf_div, mpf_pos, mpf_shift, round_nearest

from .errors import DomainError

DEFAULT_PRECISION = 256
MIN_PRECISION = 64
# extra working bits behind every result rounded to a requested precision
GUARD_BITS = 24
# fixed-point bits beyond the working precision in the integer recurrences
# and Horner loops of mellin and specfun, and beyond the requested precision
# in RationalPolynomial.eval_mpc
FIXED_GUARD_BITS = 16

RationalLike = Union[int, Fraction]


def as_rational(x: RationalLike | str) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings to an exact Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"cannot read {x!r} as a rational number") from exc
    raise TypeError(f"not an exact rational: {x!r}")


def rational_to_mpf(x: Fraction | int, precision_bits: int) -> mp.mpf:
    """x rounded as mp.mpf(num) / mp.mpf(den) under workprec(precision_bits):
    each integer, then the quotient, rounded to nearest, with no context."""
    x = as_rational(x)
    p = precision_bits
    return mp.make_mpf(mpf_div(from_int(x.numerator, p, round_nearest),
                               from_int(x.denominator, p, round_nearest),
                               p, round_nearest))


def _to_mpf(value, precision_bits: int) -> mp.mpf:
    if isinstance(value, Fraction):
        return rational_to_mpf(value, precision_bits)
    with mp.workprec(precision_bits):
        return mp.mpf(value)


@dataclass(frozen=True)
class HPComplex:
    """A complex value plus the precision (in bits) it was computed at.

    Equality compares the numeric value only; precision is a carrier
    attribute.  Arithmetic between two HPComplex values runs at the max of
    the two precisions.
    """

    real: mp.mpf
    imag: mp.mpf
    precision_bits: int

    def __init__(self, real=0, imag=0, precision_bits: int = DEFAULT_PRECISION):
        if precision_bits < MIN_PRECISION:
            raise DomainError(f"precision_bits must be >= {MIN_PRECISION}, got {precision_bits}")
        object.__setattr__(self, "real", _to_mpf(real, precision_bits))
        object.__setattr__(self, "imag", _to_mpf(imag, precision_bits))
        object.__setattr__(self, "precision_bits", int(precision_bits))

    @classmethod
    def from_value(cls, value, precision_bits: int = DEFAULT_PRECISION) -> "HPComplex":
        if isinstance(value, HPComplex):
            return value
        if isinstance(value, (mp.mpc, complex)):
            return cls(value.real, value.imag, precision_bits)
        return cls(value, 0, precision_bits)

    def to_mpc(self) -> mp.mpc:
        # never rounds below the stored width, whatever the ambient context
        with mp.workprec(self.precision_bits):
            return mp.mpc(self.real, self.imag)

    def abs_value(self) -> mp.mpf:
        with mp.workprec(self.precision_bits):
            return mp.sqrt(self.real * self.real + self.imag * self.imag)

    __abs__ = abs_value

    def _coerce(self, other) -> tuple["HPComplex", int]:
        if isinstance(other, HPComplex):
            return other, max(self.precision_bits, other.precision_bits)
        return HPComplex.from_value(other, self.precision_bits), self.precision_bits

    def _binary(self, other, op) -> "HPComplex":
        other, prec = self._coerce(other)
        with mp.workprec(prec):
            value = op(self.to_mpc(), other.to_mpc())
        return HPComplex(value.real, value.imag, prec)

    def __add__(self, other):
        return self._binary(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binary(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binary(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binary(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binary(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binary(other, lambda a, b: b / a)

    def __neg__(self):
        return HPComplex(-self.real, -self.imag, self.precision_bits)

    def __eq__(self, other) -> bool:
        if isinstance(other, HPComplex):
            return self.real == other.real and self.imag == other.imag
        if isinstance(other, (int, float, Fraction, mp.mpf)):
            return self.imag == 0 and self.real == other
        if isinstance(other, (complex, mp.mpc)):
            return self.real == other.real and self.imag == other.imag
        return NotImplemented

    def __hash__(self):
        return hash((self.real, self.imag))

    def __repr__(self):
        return f"HPComplex({mp.nstr(self.real, 20)!r}, {mp.nstr(self.imag, 20)!r}, {self.precision_bits})"


@dataclass(frozen=True)
class GaussianRational:
    """Exact complex number with Fraction components.

    Used by the terminating hypergeometric path and the Hahn evaluation so
    that "exact rational-complex value for rational inputs" is literal.
    """

    re: Fraction
    im: Fraction

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        object.__setattr__(self, "re", as_rational(re))
        object.__setattr__(self, "im", as_rational(im))

    @classmethod
    def i_power(cls, k: int) -> "GaussianRational":
        return (cls(1), cls(0, 1), cls(-1), cls(0, -1))[k % 4]

    # int and Fraction operands skip the Gaussian wrapper, and a real
    # divisor divides each part; the results are the Fractions the general
    # formulas give

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re + other, self.im)
        other = _as_gaussian(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re - other, self.im)
        other = _as_gaussian(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return _as_gaussian(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussianRational(self.re * other, self.im * other)
        other = _as_gaussian(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            other = _as_gaussian(other)
            if other.im != 0:
                d = other.re * other.re + other.im * other.im
                return GaussianRational(
                    (self.re * other.re + self.im * other.im) / d,
                    (self.im * other.re - self.re * other.im) / d,
                )
            other = other.re
        if other == 0:
            raise ZeroDivisionError("division by Gaussian-rational zero")
        return GaussianRational(self.re / other, self.im / other)

    def __rtruediv__(self, other):
        return _as_gaussian(other) / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_mpc(self, precision_bits: int = DEFAULT_PRECISION) -> mp.mpc:
        with mp.workprec(precision_bits):
            return mp.mpc(rational_to_mpf(self.re, precision_bits),
                          rational_to_mpf(self.im, precision_bits))

    def to_hpcomplex(self, precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
        return HPComplex(rational_to_mpf(self.re, precision_bits),
                         rational_to_mpf(self.im, precision_bits), precision_bits)


def _as_gaussian(x) -> GaussianRational:
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(as_rational(x))


def to_mpc(value, precision_bits: int) -> mp.mpc:
    """Read a scalar as an mpc, whatever the ambient mp.prec.

    Exact values (int, Fraction, 'p/q' strings, GaussianRational) and
    float, complex, mpf and mpc round to precision_bits; HPComplex keeps
    the width it carries.  inf and nan raise DomainError.
    """
    if isinstance(value, (mp.mpf, mp.mpc)):
        re, im = value._mpc_ if isinstance(value, mp.mpc) else (value._mpf_, fzero)
        z = mp.make_mpc((mpf_pos(re, precision_bits, round_nearest),
                         mpf_pos(im, precision_bits, round_nearest)))
    elif isinstance(value, GaussianRational):
        return value.to_mpc(precision_bits)
    elif isinstance(value, HPComplex):
        z = value.to_mpc()
    else:
        with mp.workprec(precision_bits):
            if isinstance(value, (Fraction, str)):
                return mp.mpc(rational_to_mpf(value, precision_bits))
            z = mp.mpc(value)
    if not mp.isfinite(z):
        raise DomainError(f"not a finite number: {value!r}")
    return z


def exact_or_none(value) -> Optional[GaussianRational]:
    """Exact Gaussian-rational reading of value, or None when it has none.

    int, Fraction, 'p/q' strings and GaussianRational are exact; float,
    mpf, complex, mpc and HPComplex values are exact only when real and
    integral.  Unreadable strings, inf and nan raise DomainError.
    """
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction, str)):
        return GaussianRational(value)
    if isinstance(value, (HPComplex, complex, mp.mpc)):
        real, imag = value.real, value.imag
    elif isinstance(value, (float, mp.mpf)):
        real, imag = value, 0
    else:
        return None
    if not (mp.isfinite(real) and mp.isfinite(imag)):
        raise DomainError(f"not a finite number: {value!r}")
    if imag == 0 and mp.isint(real):
        return GaussianRational(int(real))
    return None


def rational_or_none(value) -> Optional[Fraction]:
    """The real-rational reading of value by `exact_or_none`, or None."""
    g = exact_or_none(value)
    return g.re if g is not None and g.im == 0 else None


def fixed_point_horner(coeffs_re: Sequence[int], coeffs_im: Sequence[int],
                       x: int, y: int, k: int, derivative: bool = False) -> tuple[int, ...]:
    """Horner for p(w) = sum_j c_j w^j at w = (x + iy) 2^-k, k >= 0, on
    integers: c_j = coeffs_re[j] + i coeffs_im[j] at a scale the caller
    chooses, each product by w floored back to it.  A step errs by under one
    unit in each part, and the error made where c_j is added is carried by
    w^j, so with d the degree the result is within sqrt(2) sum_{j<d} |w|^j
    units (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.
    2002, 5.1).  With derivative, the same pass also carries p' (q <- q w + a
    before each step) and returns (Re p, Im p, Re p', Im p').  Its value is
    the exact Horner of coefficients moved by under one unit per part, and
    each floored q w errs by one more carried by w^j, so p' is within
    sqrt(2) sum_{j<d-1} (j + 2) |w|^j units."""
    ar = ai = dr = di = 0
    for cr, ci in zip(reversed(coeffs_re), reversed(coeffs_im)):
        if derivative:
            dr, di = ((dr * x - di * y) >> k) + ar, ((dr * y + di * x) >> k) + ai
        ar, ai = ((ar * x - ai * y) >> k) + cr, ((ar * y + ai * x) >> k) + ci
    return (ar, ai, dr, di) if derivative else (ar, ai)


def _fixed_parts(re: tuple, im: tuple) -> tuple[int, int, int]:
    """(x, y, k), k >= 0, with (x + iy) 2^-k exactly the finite mpf parts
    re + i im, read from their ``_mpf_`` tuples (sign, mantissa, exponent)."""
    parts = [(-man if sign else man, exp) for sign, man, exp, _ in (re, im)]
    k = max([0] + [-exp for man, exp in parts if man])
    return parts[0][0] << (parts[0][1] + k), parts[1][0] << (parts[1][1] + k), k


class RationalPolynomial:
    """Dense polynomial over the rationals; coefficient i multiplies s^i.

    Stored as integer numerators N_0..N_d over one denominator D > 0, with
    p(s) = sum_i N_i s^i / D, gcd(D, N_0, ..., N_d) = 1 and N_d != 0 (the
    zero polynomial has no numerators and D = 1): equal polynomials store
    equal integers, whichever constructor built them.  ``coefficients``, the
    reduced Fractions N_i / D, is built on first read and kept.
    """

    __slots__ = ("_nums", "_den", "_fractions")

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        coeffs = [as_rational(c) for c in coefficients]
        den = lcm(*(c.denominator for c in coeffs))
        self._set([c.numerator * (den // c.denominator) for c in coeffs], den)

    @classmethod
    def from_integers(cls, nums: Sequence[int], den: int) -> "RationalPolynomial":
        """sum_i nums[i] s^i / den, for integers and den != 0."""
        p = cls.__new__(cls)
        p._set(nums, den)
        return p

    def _set(self, nums: Sequence[int], den: int) -> None:
        nums = list(nums)
        while nums and nums[-1] == 0:
            nums.pop()
        g = gcd(den, *nums) * (1 if den > 0 else -1)
        self._nums, self._den = tuple(c // g for c in nums), den // g
        self._fractions: Optional[tuple[Fraction, ...]] = None

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        if self._fractions is None:
            self._fractions = tuple(Fraction(c, self._den) for c in self._nums)
        return self._fractions

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self._nums) - 1

    @property
    def is_zero(self) -> bool:
        return not self._nums

    @property
    def leading_coefficient(self) -> Fraction:
        return Fraction(self._nums[-1], self._den) if self._nums else Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._nums, self._den))

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        den = lcm(self._den, other._den)
        a, b = ([c * (den // q._den) for c in q._nums] for q in (self, other))
        if len(a) < len(b):
            a, b = b, a
        for i, c in enumerate(b):
            a[i] += c
        return RationalPolynomial.from_integers(a, den)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial.from_integers([-c for c in self._nums], self._den)

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        out = [0] * (len(self._nums) + len(other._nums) - 1)
        for i, a in enumerate(self._nums):
            for j, b in enumerate(other._nums):
                out[i + j] += a * b
        return RationalPolynomial.from_integers(out, self._den * other._den)

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "RationalPolynomial":
        factor = as_rational(factor)
        return RationalPolynomial.from_integers(
            [c * factor.numerator for c in self._nums], self._den * factor.denominator)

    def times_linear(self, a: RationalLike, b: RationalLike) -> "RationalPolynomial":
        """Multiply by (a*s + b)."""
        return self * RationalPolynomial((b, a))

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial.from_integers(
            [i * c for i, c in enumerate(self._nums)][1:], self._den)

    def eval_rational(self, s: RationalLike) -> Fraction:
        """Exact p(s): Horner on the numerators, homogenised in s = u/v, as
        sum N_i u^i v^(d-i) / (D v^d)."""
        s = as_rational(s)
        if self.is_zero:
            return Fraction(0)
        u, v = s.numerator, s.denominator
        acc, vpow = self._nums[-1], 1
        for c in reversed(self._nums[:-1]):
            vpow *= v
            acc = acc * u + c * vpow
        return Fraction(acc, self._den * vpow)

    def eval_gaussian(self, s: GaussianRational) -> GaussianRational:
        acc = GaussianRational(0)
        for c in reversed(self.coefficients):
            acc = acc * s + GaussianRational(c)
        return acc

    def eval_mpc(self, s, precision_bits: int = DEFAULT_PRECISION) -> mp.mpc:
        """p(s) rounded to w = precision_bits + FIXED_GUARD_BITS bits: s read
        at w bits, D p(s) 2^W from `fixed_eval` within 2^-w relative, and one
        division by D 2^W."""
        width = precision_bits + FIXED_GUARD_BITS
        parts, shift, _ = self.fixed_eval(*_fixed_parts(*to_mpc(s, width)._mpc_), width)
        return mp.make_mpc(tuple(
            mpf_shift(mpf_div(from_int(v), from_int(self._den), width, round_nearest), -shift)
            for v in parts))

    def fixed_eval(self, x: int, y: int, k: int, width: int, derivative: bool = False,
                   widen: bool = True) -> tuple[tuple[int, ...], int, int]:
        """p at z = (x + iy) 2^-k, and with derivative p' too, on integers:
        (parts, W, e) with parts (Re V, Im V) or (Re V, Im V, Re V', Im V'),
        V = D p(z) 2^W and V' = D p'(z) 2^(W+e).

        z is scaled to u = z 2^-e, 1/2 <= |u| < 1, and fixed_point_horner
        runs at u on the numerators N_j 2^(W + e j), floored, so each result
        is within 4 d^2 units: the kernel's bounds at |u| < 1 plus under one
        unit per floored coefficient.  Width rule, with T = 2 + 2 log2 d: W
        starts at width + T + 2 - log2 max_j |N_j| |z|^j, so V is within
        2^-(width+2) of the largest term.  With widen, W starts 32 bits
        higher, an allowance for cancellation that spares most reruns, and
        while a result has fewer than width + T + 2 bits (the sum
        cancelling), W grows by the shortfall and the pass reruns, up to the
        width d (k + max(0, -e)) at which no bit is dropped; an accepted
        result is within 2^-width relative, so at real z Re V has p's sign.
        Without derivative (which Newton uses near roots, not at them), a
        result within its 4 d^2 units where p may vanish (`_may_vanish`)
        goes straight to the exact pass, the only one at z = 0 or d < 1."""
        nums, d = self._nums, self.degree
        size = x * x + y * y
        scale = (size.bit_length() + 1) // 2
        e = scale - k
        need = shift = top = d * (scale + max(0, -e))
        if d > 0 and size:
            need = width + 4 + ceil(2 * log2(d))
            log_z = log2(size) / 2 - k
            top_term = floor(max(c.bit_length() - 1 + j * log_z for j, c in enumerate(nums)))
            shift = need + (32 if widen else 0) - top_term
        while True:
            shift = min(shift, top)
            coeffs = [c << s if s >= 0 else c >> -s for c, s in zip(nums, count(shift, e))]
            parts = fixed_point_horner(coeffs, (0,) * len(nums), x, y, scale, derivative)
            low = min(max(abs(parts[i]), abs(parts[i + 1])) for i in range(0, len(parts), 2))
            short = need - low.bit_length()
            if not widen or shift == top or short <= 0:
                return parts, shift, e
            vanishes = low <= 4 * d * d and not derivative and self._may_vanish(x, y, k)
            shift = top if vanishes else shift + short

    def _may_vanish(self, x: int, y: int, k: int) -> bool:
        """False when p((x + iy) 2^-k) != 0 is certain: D p there is nonzero
        modulo the prime P = 2^61 - 1, 2^-k read as the inverse of 2^k mod P."""
        prime = (1 << 61) - 1
        inverse = pow(2, -k, prime)
        u, v = x * inverse % prime, y * inverse % prime
        ar = ai = 0
        for c in self._nums[::-1]:
            ar, ai = (ar * u - ai * v + c) % prime, (ar * v + ai * u) % prime
        return ar == ai == 0

    def __repr__(self):
        return f"RationalPolynomial({[str(c) for c in self.coefficients]})"


def poly_affine_substitute(
    p: RationalPolynomial, a: RationalLike, b: RationalLike
) -> RationalPolynomial:
    """Exact p(a*s + b), on integers: with a = A/q, b = B/q over a common q
    and p = sum N_i s^i / D of degree d, the Taylor shift by B of
    sum N_i q^(d-i) y^i, scaled by A^j at s^j, is D q^d p(a*s + b)."""
    a, b = as_rational(a), as_rational(b)
    if p.is_zero:
        return RationalPolynomial.zero()
    d = p.degree
    q = lcm(a.denominator, b.denominator)
    big_a, big_b = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
    c = [n * q ** (d - i) for i, n in enumerate(p._nums)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += big_b * c[j + 1]
    return RationalPolynomial.from_integers(
        [v * big_a ** j for j, v in enumerate(c)], p._den * q ** d)
