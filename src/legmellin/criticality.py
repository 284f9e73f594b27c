"""Critical-line certification: exact functional equations, zero locations
proven on the line, difference-equation residuals, and the continuous-Hahn
bridge.

The zero certificate is exact.  Each polynomial factor p_n^m satisfies
p(1-s) = +-p(s), so p(1/2 + it) = (it)^e R(t^2) with rational R.
`find_roots` locates the roots of R by Newton-Maehly on integers and
proves them by the exact sign alternation of R at dyadic points, which
makes every root of p simple and on Re s = 1/2 with no tolerance involved.
That R is real-rooted is the paper's theorem, reached through its
continuous-Hahn bridge (`hahn_proportionality`).  Polynomials without the
symmetry, and symmetric ones the proof does not cover, are refused with a
typed error.  Newton residuals on p and a real Newton cross-check on R are
reported, not relied on.  The locator, the sign proof, the residuals and
the cross-check all evaluate through `RationalPolynomial.fixed_eval`, the
fixed-point Horner, on the integer numerators of p or R.

The functional-equation sign deserves a note.  A real-coefficient polynomial
whose roots all sit on Re s = 1/2 satisfies p(1-s) = (-1)^(deg p) p(s), and
deg p_n^m = floor((n-m)/2).  The check below uses that exponent; for
m = 0 it coincides with floor(n/2), and p_4^2 = 45(2s-1) shows the two
disagree for m = 2 (mod 4).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import mpmath as mp
from mpmath.libmp import from_man_exp, mpf_mul, mpf_shift, to_int

from .errors import ConvergenceError, DomainError
from .mellin import mellin_closed, poly_factor
from .mpcore import (
    DEFAULT_PRECISION,
    GaussianRational,
    HPComplex,
    RationalPolynomial,
    _fixed_parts,
    exact_or_none,
    poly_affine_substitute,
    to_mpc,
)
from .specfun import HypergeometricSpec, hyp_pfq, hyp_terminating_exact, pochhammer_rational

_GUARD = 64
# the locator's bits beyond precision + _GUARD: its Newton noise is R's
# monomial-basis condition (about 2^77 at n = 400) times 2^-width
_LOCATOR_BITS = 32


# ---------------------------------------------------------------------------
# root finding

@lru_cache(maxsize=1)
def _half_polynomial(p: RationalPolynomial) -> Tuple[int, RationalPolynomial]:
    """(e, R) with p(1/2 + it) = (it)^e R(t^2), or DomainError when
    p(1-s) != +-p(s), so that p(1/2 + x) mixes even and odd powers.  The
    last one is kept, as a report asks for it twice."""
    c = poly_affine_substitute(p, Fraction(1), Fraction(1, 2)).coefficients
    e = p.degree % 2
    if any(c[1 - e::2]):
        raise DomainError("roots are computed only for p with p(1-s) = +-p(s)")
    return e, RationalPolynomial(-v if j % 2 else v for j, v in enumerate(c[e::2]))


def _scale(r: RationalPolynomial, width: int) -> int:
    """k with 2^-k at most 2^-width times each root of r when every root is
    positive, since the smallest is at least 1/sum(1/y) = -N_0/N_1."""
    n0, n1 = (r._nums + (0,))[:2]
    return width + max(0, n1.bit_length() - n0.bit_length() + 1)


def _height(y: int, k: int) -> mp.mpf:
    """sqrt(y 2^-k), floored at 2^-k."""
    return mp.make_mpf(from_man_exp(math.isqrt(y << k), -k))


def _newton_maehly(r: RationalPolynomial, y: int, found: List[int], k: int,
                   width: int) -> Optional[int]:
    """Newton on r from y 2^-k with the roots in found (also at 2^-k)
    divided out implicitly, or None when it does not settle or meets 0 or
    a root in found.  All of it runs on integers at the one scale 2^-k:
    the iterate, the step r/r' from `RationalPolynomial.fixed_eval` at
    width bits, the Maehly sum sum 1/(y - z) and the stop tests.  It stops
    at a zero of the truncated value, at a step that fails to shrink (the
    floor of evaluation noise) or at one below y 2^-(width-8)."""
    last = math.inf
    for _ in range(64 + 8 * r.degree):
        if y == 0 or y in found:
            return None
        (v, _, dv, _), _, e = r.fixed_eval(y, 0, k, width, True, widen=False)
        if v == 0:
            return y
        # r/r' = 2^e v/dv and sigma = 2^k sum 1/(y - z) at 2^-k, so the
        # Maehly step r/(r' - r sum 1/(y - z)) is, at 2^-k,
        # 2^(e+2k) v / (dv 2^k - 2^e v sigma)
        sigma = sum((1 << 2 * k) // (y - z) for z in found)
        up, down = max(e, 0), max(-e, 0)
        den = (dv << (k + down)) - ((v * sigma) << up)
        if den == 0:
            return None
        step = (v << (2 * k + up)) // den
        y -= step
        if abs(step) >= last or abs(step) << (width - 8) <= abs(y):
            return y
        last = abs(step)
    return None


def _descending_real_roots(r: RationalPolynomial, k: int, width: int) -> Optional[List[int]]:
    """The deg r roots of r at 2^-k, largest first, by Newton-Maehly
    (Newton on r with the roots already found divided out implicitly), or
    None.

    If every root is real and positive each search starts above the root
    it is after, where the steps shrink monotonically: the first just
    above the sum of the roots, each later one just below the last root
    found or just above the sum of the roots still missing.  A root that
    is not positive ends the search.  Nothing here is trusted; the caller
    proves the result exactly."""
    nums, d = r._nums, r.degree
    total = (-nums[d - 1] << k) // nums[d]
    if not total > 0:
        return None
    found: List[int] = []
    y = total + (total >> 16)
    for _ in range(d):
        y = _newton_maehly(r, y, found, k, width)
        if y is None or y <= 0:
            return None
        found.append(y)
        total -= y
        y = min(y - (y >> (width // 4)), total + (total >> 16))
    return found


def _sign_alternation_proves(r: RationalPolynomial, ys: List[int], k: int) -> bool:
    """Exact proof that r has exactly one root in each interval
    (q_(j-1), q_j) around ys[j-1] 2^-k, with q_0 = 0, q_j the midpoints of
    the located roots and q_d = 2 ys[-1] 2^-k, d = deg r.

    The q_j are integers at 2^-(k+1), and r's sign at each is read from
    `RationalPolynomial.fixed_eval`, exact or beyond its truncation bound.
    Nonzero signs that alternate put, by the intermediate value theorem, a
    root of r in each of the d intervals, and r of degree d has no more."""
    points = [0] + [lo + hi for lo, hi in zip(ys, ys[1:])] + [4 * ys[-1]]
    chain = [v for q, y in zip(points, ys) for v in (q, 2 * y)] + points[-1:]
    if any(not lo < hi for lo, hi in zip(chain, chain[1:])):
        return False
    signs = [r.fixed_eval(q, 0, k + 1, _GUARD)[0][0] for q in points]
    return all(a * b < 0 for a, b in zip(signs, signs[1:]))


def find_roots(p: RationalPolynomial, precision_bits: int = DEFAULT_PRECISION) -> List[HPComplex]:
    """All roots of p, proven simple and on Re s = 1/2, sorted by imaginary
    part and rounded to precision_bits.

    The domain is the polynomials with p(1-s) = +-p(s), as every factor
    p_n^m; any other p raises DomainError.  With p(1/2 + it) = (it)^e R(t^2)
    the roots of p are 1/2 +- i sqrt(y) for the roots y of R, plus 1/2 when
    e = 1.  The roots of R are located by Newton-Maehly on integers at one
    fixed scale 2^-k, each step r/r' from the fixed-point Horner with its
    derivative at width precision_bits + 96, and proven by the sign
    alternation of R at the dyadic midpoints of those integers, each sign
    from the same Horner (`_sign_alternation_proves`), which shows that R
    has deg R distinct positive roots; no tolerance enters the proof.  When
    the proof fails (a root off the line, a multiple root, or a locator
    that does not settle) it raises ConvergenceError.  R is real-rooted for
    every p_n^m, as the paper shows through its continuous-Hahn bridge
    (`hahn_proportionality`: p_2n^0(s) is a constant times a continuous
    Hahn polynomial in x = -is/2); the code assumes none of that."""
    if p.is_zero:
        raise DomainError("the zero polynomial has no root set")
    if p.degree == 0:
        return []
    e, r = _half_polynomial(p)
    width = precision_bits + _GUARD + _LOCATOR_BITS
    heights: List[mp.mpf] = []
    with mp.workprec(width):
        if r.degree > 0:
            k = _scale(r, width)
            found = _descending_real_roots(r, k, width)
            if found is None:
                raise ConvergenceError(
                    "no deg R positive roots located on the half-polynomial: a root "
                    "off Re s = 1/2, a multiple root, or a locator that did not settle")
            ys = found[::-1]
            if not _sign_alternation_proves(r, ys, k):
                raise ConvergenceError(
                    "the exact sign proof failed: a root off Re s = 1/2 or a multiple root")
            heights = [_height(y, k) for y in ys]
        imag = [-h for h in reversed(heights)] + [mp.mpf(0)] * e + heights
        return [HPComplex(Fraction(1, 2), t, precision_bits) for t in imag]


@dataclass(frozen=True)
class ZeroReport:
    n: int
    m: int
    roots: Tuple[HPComplex, ...]
    # Newton residuals |p(r)/p'(r)| of the rounded roots: reported, not relied
    # on; the certificate is the exact sign alternation in find_roots
    residuals: Tuple[mp.mpf, ...]
    max_deviation: mp.mpf
    precision_bits: int
    # largest move of a root when its t^2 is re-polished by real Newton on the
    # half-polynomial R, with p(1/2 + it) = (it)^e R(t^2), and rounded back
    shift_deviation: mp.mpf

    @property
    def certificate_tolerance(self) -> mp.mpf:
        return mp.mpf(2) ** (-(self.precision_bits // 2))


def critical_line_report(n: int, m: int = 0,
                         precision_bits: int = DEFAULT_PRECISION) -> ZeroReport:
    """Roots of the polynomial factor with their distance from Re s = 1/2.

    The roots come from one `find_roots` call, which proves them simple and
    on the line by exact sign alternation.  The report adds each root's
    Newton residual |p(r)/p'(r)| on p and a cross-check on the
    half-polynomial R of p(1/2 + it) = (it)^e R(t^2): each root's t^2 is
    re-polished by real Newton on R, with no deflation, and its square root
    rounded to precision_bits is compared with t.  A cross-check that does
    not settle raises ConvergenceError.  Both run on integers: the residual
    at the dyadic root r from one widened fixed-point pass on p with its
    derivative, good to 2^-64 relative (a conjugate pair shares it, and
    p(1/2) = 0 exactly when e = 1), and the cross-check by the locator's
    own Newton on R at its scale and width."""
    p = poly_factor(n, m).poly
    if p.degree < 1:
        raise DomainError(f"(n, m) = ({n}, {m}) has a constant polynomial factor")
    roots = find_roots(p, precision_bits)
    r = _half_polynomial(p)[1]
    width = precision_bits + _GUARD + _LOCATOR_BITS
    k = _scale(r, width)
    half = len(roots) // 2
    upper = []  # 1/2 - it has the residual and the t^2 of 1/2 + it
    shift_deviation = mp.mpf(0)
    with mp.workprec(precision_bits + _GUARD):
        for root in roots[half:]:
            if not root.imag:
                upper.append(mp.mpf(0))  # p(1/2) = 0 exactly when e = 1
                continue
            point = _fixed_parts(*root.to_mpc()._mpc_)
            (vr, vi, dr, di), _, e = p.fixed_eval(*point, _GUARD, True)
            upper.append(mp.ldexp(mp.sqrt(mp.mpf(vr * vr + vi * vi) / (dr * dr + di * di)), e)
                         if dr or di else mp.inf)
            t = root.imag._mpf_
            y = _newton_maehly(r, to_int(mpf_shift(mpf_mul(t, t), k)), [], k, width)
            if y is None or y <= 0:
                raise ConvergenceError(
                    f"the cross-check on R did not settle at t = {mp.nstr(root.imag, 15)}")
            moved = HPComplex(Fraction(1, 2), _height(y, k), precision_bits)
            shift_deviation = max(shift_deviation, abs(moved.imag - root.imag))
        max_deviation = max(abs(root.real - mp.mpf(1) / 2) for root in roots)
    return ZeroReport(
        n=n, m=m, roots=tuple(roots), residuals=tuple(upper[::-1][:half] + upper),
        max_deviation=max_deviation,
        precision_bits=precision_bits, shift_deviation=shift_deviation,
    )


# ---------------------------------------------------------------------------
# functional equation (exact)

def functional_equation_sign(n: int, m: int = 0) -> int:
    """(-1)^deg: the reflection parity forced by roots on Re s = 1/2."""
    if m > n:
        raise DomainError("functional equation applies to m <= n")
    return -1 if ((n - m) // 2) % 2 else 1


def functional_equation_check(n: int, m: int = 0) -> bool:
    """Exact coefficient-level test of p(1-s) = sign * p(s)."""
    p = poly_factor(n, m).poly
    reflected = poly_affine_substitute(p, Fraction(-1), Fraction(1))
    sign = functional_equation_sign(n, m)
    return reflected == p.scale(Fraction(sign))


# ---------------------------------------------------------------------------
# difference equation

def _coefficient_polys(n: int, m: int) -> Tuple[RationalPolynomial, ...]:
    A = RationalPolynomial([Fraction(n * n + n - 1 - m * m), Fraction(2), Fraction(-2)])
    B = RationalPolynomial([Fraction(-n * n - n), Fraction(1), Fraction(1)])
    C = RationalPolynomial([Fraction(2), Fraction(-3), Fraction(1)])
    return A, B, C


def difference_equation_terms(n: int, s, m: int = 0,
                              precision_bits: int = DEFAULT_PRECISION) -> Tuple[HPComplex, HPComplex, HPComplex]:
    """The three summands A(s)M(s), B(s)M(s+2), C(s)M(s-2); their maximum
    magnitude is the natural scale for the residual."""
    workprec = precision_bits + 16
    with mp.workprec(workprec + _GUARD):
        z = to_mpc(s, workprec + _GUARD)
        if not z.real > 2:
            raise DomainError("all three transforms need Re s - 2 > 0")
        A, B, C = _coefficient_polys(n, m)
        q = exact_or_none(s)
        args = (z, z + 2, z - 2) if q is None else (q, q + 2, q - 2)
        values = [mellin_closed(n, m, a, workprec) for a in args]
        out = []
        for coeff, val in zip((A, B, C), values):
            cv = coeff.eval_mpc(z, workprec)
            out.append(HPComplex.from_value(cv * val.to_mpc(), precision_bits))
    return tuple(out)


def difference_equation_residual(n: int, s, m: int = 0,
                                 precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    t1, t2, t3 = difference_equation_terms(n, s, m, precision_bits)
    return t1 + t2 + t3


def difference_equation_symbolic(n: int, m: int = 0) -> RationalPolynomial:
    """The exact polynomial-level identity after clearing the gamma shifts:
    returns A(s)(s+n+1)(s+eps-2)p(s) + B(s)(s+eps)(s+eps-2)p(s+2)
    + C(s)(s+n-1)(s+n+1)p(s-2), which must be the zero polynomial."""
    p = poly_factor(n, m).poly
    eps = (n - m) % 2
    A, B, C = _coefficient_polys(n, m)
    p_up = poly_affine_substitute(p, Fraction(1), Fraction(2))
    p_down = poly_affine_substitute(p, Fraction(1), Fraction(-2))
    term1 = (A * p).times_linear(Fraction(1), Fraction(n + 1)).times_linear(
        Fraction(1), Fraction(eps - 2))
    term2 = (B * p_up).times_linear(Fraction(1), Fraction(eps)).times_linear(
        Fraction(1), Fraction(eps - 2))
    term3 = (C * p_down).times_linear(Fraction(1), Fraction(n - 1)).times_linear(
        Fraction(1), Fraction(n + 1))
    return term1 + term2 + term3


# ---------------------------------------------------------------------------
# continuous Hahn bridge

@dataclass(frozen=True)
class HahnParams:
    a: object
    b: object
    c: object
    d: object


def hahn_eval_exact(n: int, x, params: HahnParams) -> GaussianRational:
    """p_n(x; a, b, c, d) = i^n (a+c)_n (a+d)_n / n! *
    3F2(-n, n+a+b+c+d-1, a+ix; a+c, a+d; 1), summed exactly."""
    if n < 0:
        raise DomainError("hahn_eval requires n >= 0")
    ga, gb, gc, gd = (exact_or_none(v) for v in (params.a, params.b, params.c, params.d))
    gx = exact_or_none(x)
    if None in (ga, gb, gc, gd, gx):
        raise DomainError("exact evaluation needs Gaussian-rational inputs")
    i_unit = GaussianRational(0, 1)
    a_plus_ix = ga + i_unit * gx
    series = hyp_terminating_exact(HypergeometricSpec(
        (GaussianRational(-n), ga + gb + gc + gd + (n - 1), a_plus_ix),
        (ga + gc, ga + gd), GaussianRational(1)))
    lead = GaussianRational.i_power(n) * pochhammer_rational(ga + gc, n) \
        * pochhammer_rational(ga + gd, n) / math.factorial(n)
    return lead * series


def hahn_eval(n: int, x, params: HahnParams,
              precision_bits: int = DEFAULT_PRECISION) -> HPComplex:
    if all(exact_or_none(v) is not None for v in (params.a, params.b, params.c, params.d, x)):
        return hahn_eval_exact(n, x, params).to_hpcomplex(precision_bits)
    if n < 0:
        raise DomainError("hahn_eval requires n >= 0")
    workprec = precision_bits + _GUARD
    with mp.workprec(workprec):
        xa = to_mpc(x, workprec)
        pa, pb, pc, pd = (to_mpc(v, workprec)
                          for v in (params.a, params.b, params.c, params.d))
        series = hyp_pfq(HypergeometricSpec(
            (-n, pa + pb + pc + pd + (n - 1), pa + mp.mpc(0, 1) * xa),
            (pa + pc, pa + pd), 1), precision_bits + 8)
        lead = (mp.mpc(0, 1) ** n / mp.factorial(n)
                * mp.rf(pa + pc, n) * mp.rf(pa + pd, n))
        value = lead * series.to_mpc()
    return HPComplex.from_value(value, precision_bits)


def _bridge_params(n: int) -> HahnParams:
    return HahnParams(a=Fraction(-n), b=Fraction(0), c=Fraction(1, 2),
                      d=Fraction(1, 2) - n)


def _hahn_ratio(n: int, s: GaussianRational) -> Optional[GaussianRational]:
    """poly_factor(2n, 0)(s) / p_n(-is/2; -n, 0, 1/2, 1/2-n), exactly, or
    None where the Hahn factor vanishes."""
    denom = hahn_eval_exact(n, GaussianRational(0, Fraction(-1, 2)) * s, _bridge_params(n))
    return None if denom.is_zero else poly_factor(2 * n, 0).poly.eval_gaussian(s) / denom


def hahn_proportionality(n: int, samples: Sequence,
                         precision_bits: int = DEFAULT_PRECISION) -> mp.mpf:
    """Max spread of poly_factor(2n, 0)(s) / p_n(-is/2; -n, 0, 1/2, 1/2-n)
    over the samples.  Exact inputs give an exact (usually zero) spread."""
    if n < 1:
        raise DomainError("proportionality bridge needs n >= 1")
    if len(samples) < 2:
        raise DomainError("need at least two samples to measure a spread")
    p = poly_factor(2 * n, 0).poly
    params = _bridge_params(n)
    ratios = []
    if all(exact_or_none(x) is not None for x in samples):
        for s in samples:
            ratio = _hahn_ratio(n, exact_or_none(s))
            if ratio is None:
                raise DomainError(f"sample {s} is a zero of the Hahn factor")
            ratios.append(ratio)
        with mp.workprec(precision_bits + _GUARD):
            return mp.mpf(max(abs((r - ratios[0]).to_mpc(precision_bits + _GUARD))
                              for r in ratios[1:]))
    workprec = precision_bits + _GUARD
    with mp.workprec(workprec):
        for s in samples:
            z = to_mpc(s, workprec)
            denom = hahn_eval(n, mp.mpc(0, -1) * z / 2, params, precision_bits + 16)
            dv = denom.to_mpc()
            if dv == 0:
                raise DomainError(f"sample {s} is a zero of the Hahn factor")
            ratios.append(p.eval_mpc(z, workprec) / dv)
        return mp.mpf(max(abs(r - ratios[0]) for r in ratios[1:]))


def hahn_constant(n: int) -> GaussianRational:
    """The measured proportionality constant at a generic sample; reported,
    never assumed."""
    if n < 1:
        raise DomainError("proportionality bridge needs n >= 1")
    for candidate in (Fraction(2), Fraction(3), Fraction(5, 2)):
        ratio = _hahn_ratio(n, GaussianRational(candidate))
        if ratio is not None:
            return ratio
    raise DomainError("no generic sample found")  # pragma: no cover
