"""Exact rationals, arbitrary-precision complex values, and dense
rational-coefficient polynomials in one variable.

Exact rationals are ``fractions.Fraction``: always stored reduced, which is
exactly the invariant the recursions need to keep coefficient growth in
check.  ``HPComplex`` carries its precision in bits as data, not ambient
state; mixed-precision arithmetic resolves to the max of the operands.
``RationalPolynomial`` is dense and exact (degrees stay around 100 at the
scales this package targets, so sparsity never pays).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterable, Optional, Sequence, Union

import mpmath as mp
from mpmath.libmp import from_int, fzero, mpf_div, mpf_pos, round_nearest

from .errors import DomainError

DEFAULT_PRECISION = 256
MIN_PRECISION = 64
# extra working bits behind every result rounded to a requested precision
GUARD_BITS = 24
# fixed-point bits beyond the working precision in the integer recurrences
# and Horner loops of mellin and specfun
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


class RationalPolynomial:
    """Dense polynomial over Fraction; index i holds the coefficient of s^i.

    The zero polynomial is the empty coefficient tuple.  The last stored
    coefficient is always nonzero (normalization strips trailing zeros and
    is idempotent).
    """

    __slots__ = ("coefficients",)

    def __init__(self, coefficients: Iterable[RationalLike] = ()):
        self.coefficients: tuple[Fraction, ...] = self._normalize(
            tuple(as_rational(c) for c in coefficients)
        )

    @staticmethod
    def _normalize(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
        end = len(coeffs)
        while end > 0 and coeffs[end - 1] == 0:
            end -= 1
        return tuple(coeffs[:end])

    @classmethod
    def zero(cls) -> "RationalPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "RationalPolynomial":
        return cls((1,))

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    @property
    def leading_coefficient(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coefficients[-1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        return self.coefficients == other.coefficients

    def __hash__(self):
        return hash(self.coefficients)

    def __add__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return RationalPolynomial(out)

    def __sub__(self, other: "RationalPolynomial") -> "RationalPolynomial":
        return self + (-other)

    def __neg__(self) -> "RationalPolynomial":
        return RationalPolynomial(tuple(-c for c in self.coefficients))

    def __mul__(self, other) -> "RationalPolynomial":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, RationalPolynomial):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return RationalPolynomial.zero()
        out = [Fraction(0)] * (len(self.coefficients) + len(other.coefficients) - 1)
        for i, a in enumerate(self.coefficients):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return RationalPolynomial(out)

    __rmul__ = __mul__

    def scale(self, factor: RationalLike) -> "RationalPolynomial":
        factor = as_rational(factor)
        return RationalPolynomial(tuple(c * factor for c in self.coefficients))

    def times_linear(self, a: RationalLike, b: RationalLike) -> "RationalPolynomial":
        """Multiply by (a*s + b) without building a temporary polynomial."""
        a, b = as_rational(a), as_rational(b)
        out = [Fraction(0)] * (len(self.coefficients) + 1)
        for i, c in enumerate(self.coefficients):
            out[i + 1] += c * a
            out[i] += c * b
        return RationalPolynomial(out)

    def derivative(self) -> "RationalPolynomial":
        return RationalPolynomial(
            tuple(i * c for i, c in enumerate(self.coefficients) if i >= 1)
        )

    def eval_rational(self, s: RationalLike) -> Fraction:
        """Exact p(s): Horner on the integer numerators over their common
        denominator D, homogenised in s = u/v, as sum N_i u^i v^(d-i) / (D v^d)."""
        s = as_rational(s)
        if self.is_zero:
            return Fraction(0)
        nums, den = _integer_form(self.coefficients)
        u, v = s.numerator, s.denominator
        acc, vpow = nums[-1], 1
        for c in reversed(nums[:-1]):
            vpow *= v
            acc = acc * u + c * vpow
        return Fraction(acc, den * vpow)

    def eval_gaussian(self, s: GaussianRational) -> GaussianRational:
        acc = GaussianRational(0)
        for c in reversed(self.coefficients):
            acc = acc * s + GaussianRational(c)
        return acc

    def eval_mpc(self, s, precision_bits: int = DEFAULT_PRECISION):
        """Horner evaluation at an mpf/mpc point, at the given precision."""
        with mp.workprec(precision_bits + 16):
            z = mp.mpc(s) if not isinstance(s, mp.mpf) else s
            acc = mp.mpc(0) if isinstance(z, mp.mpc) else mp.mpf(0)
            for c in reversed(self.coefficients):
                acc = acc * z + rational_to_mpf(c, precision_bits + 16)
        return acc

    def __repr__(self):
        return f"RationalPolynomial({[str(c) for c in self.coefficients]})"


def _integer_form(coeffs: Sequence[Fraction]) -> tuple[list[int], int]:
    """(N, D) with coeffs[i] = N[i] / D and D the lcm of the denominators."""
    den = lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def poly_affine_substitute(
    p: RationalPolynomial, a: RationalLike, b: RationalLike
) -> RationalPolynomial:
    """Exact p(a*s + b), on integers: with a = A/q, b = B/q over a common q
    and p = sum N_i s^i / D of degree d, the Taylor shift by B of
    sum N_i q^(d-i) y^i, scaled by A^j at s^j, is D q^d p(a*s + b)."""
    a, b = as_rational(a), as_rational(b)
    if p.is_zero:
        return RationalPolynomial.zero()
    nums, den = _integer_form(p.coefficients)
    d = p.degree
    q = lcm(a.denominator, b.denominator)
    big_a, big_b = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
    c = [n * q ** (d - i) for i, n in enumerate(nums)]
    for i in range(d):
        for j in range(d - 1, i - 1, -1):
            c[j] += big_b * c[j + 1]
    den *= q ** d
    return RationalPolynomial(Fraction(v * big_a ** j, den) for j, v in enumerate(c))
