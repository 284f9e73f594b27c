"""Tanh-sinh (double-exponential) quadrature on a finite interval.

The integrand callback receives, besides the node x itself, its exact
distances to both endpoints.  Endpoint-singular factors like cos^(s-1) of
an angle near pi/2 must be computed from those distances; recovering them
from x loses everything once the transform pushes nodes exponentially close
to the boundary.

Nodes depend only on the working precision and the abscissa t, not on the
interval, so `_unit_node` caches them normalised to half-width 1 in a
bounded LRU cache; each call scales them by its own half-width.  The
endpoint distances stay free of cancellation because the cached ones are
computed directly, never as 1 - x.

Each level halves the step.  The error roughly squares from one level to
the next, so `tanh_sinh` estimates the error of the current level from its
differences to the two levels before it and stops at the first level whose
estimate meets the tolerance, instead of waiting for an inter-level
difference to do so (which costs one more level, about as many nodes as all
the levels before it).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .errors import ConvergenceError, DomainError
from .mpcore import GUARD_BITS

# a level-6 pass at 160 bits touches about 350 distinct abscissae and a
# level-7 pass about 680; an entry holds four mpfs, about 1 KB
_NODE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class QuadratureResult:
    value: object            # mpf or mpc
    error_estimate: mp.mpf   # extrapolated error of the last level
    levels_used: int
    nodes_used: int


@lru_cache(maxsize=_NODE_CACHE_SIZE)
def _unit_node(workprec: int, t: mp.mpf):
    """(1 - tanh w, 1 + tanh w, weight) at w = pi/2 sinh t, for half-width 1."""
    with mp.workprec(workprec):
        half_pi = mp.pi / 2
        w = half_pi * mp.sinh(t)
        e2w = mp.exp(2 * w)
        sech2 = (2 / (mp.exp(w) + mp.exp(-w))) ** 2
        return 2 / (e2w + 1), 2 / (1 + 1 / e2w), half_pi * mp.cosh(t) * sech2


def _extrapolated_error(d1, d2):
    """Error of level L from d1 = |S_L - S_(L-1)| and d2 = |S_L - S_(L-2)|.

    The error roughly squares with each level, so when both differences are
    nonzero and below 1 it is about 2^(log2(d1)^2 / log2(d2)), and no less
    than d1^2 (Bailey, Jeyabalan & Li, Experimental Math. 14, 2005).  The
    factor 10 is a safety margin: on the panel of test_quadrature.py that
    extrapolation never fell below the true error (above the rounding
    floor).  The cap at d1 keeps the level count no higher than a stop on
    d1 alone.
    """
    if d2 is None or not (0 < d1 < 1 and 0 < d2 < 1):
        return d1
    log_d1 = mp.log(d1, 2)
    return min(d1, 10 * mp.mpf(2) ** max(log_d1 ** 2 / mp.log(d2, 2), 2 * log_d1))


def tanh_sinh(
    f,
    a,
    b,
    precision_bits: int,
    tolerance=None,
    min_level: int = 3,
    max_level: int = 13,
) -> QuadratureResult:
    """Integrate f over (a, b).

    f(x, dist_a, dist_b) -> mpf or mpc, where dist_a = x - a and
    dist_b = b - x are supplied without cancellation.  The node sum is
    refined by halving the step and reusing previous nodes.  It stops at
    the first level L >= min_level whose error estimate e meets
    e <= tolerance * (1 + |S_L|), and returns e as error_estimate: the
    extrapolation of `_extrapolated_error` from the last two levels, never
    above the last inter-level difference.  Raises ConvergenceError when
    max_level doublings do not reach the tolerance.
    """
    if not (min_level >= 0 and max_level >= min_level):
        raise DomainError("levels must satisfy 0 <= min_level <= max_level")
    workprec = precision_bits + GUARD_BITS
    with mp.workprec(workprec):
        a = mp.mpf(a)
        b = mp.mpf(b)
        if not b > a:
            raise DomainError(f"empty or reversed interval ({a}, {b})")
        half = (b - a) / 2
        tol = mp.mpf(tolerance) if tolerance is not None else mp.mpf(2) ** (-precision_bits)
        # abscissa cutoff: weights decay like exp(-pi/2 * sinh t)
        t_max = mp.asinh((mp.mpf(2) / mp.pi) * mp.log(2) * (workprec + 16))

        def node_sum(t):
            # contributions of +t and -t (or just t = 0 once)
            unit_hi, unit_lo, unit_weight = _unit_node(workprec, t)
            dist_hi = half * unit_hi          # half*(1 - tanh w)
            dist_lo = half * unit_lo          # half*(1 + tanh w)
            weight = half * unit_weight
            if t == 0:
                return weight * f(a + dist_lo, dist_lo, dist_hi)
            v_plus = f(b - dist_hi, dist_lo, dist_hi)
            v_minus = f(a + dist_hi, dist_hi, dist_lo)
            return weight * (v_plus + v_minus)

        nodes_used = 0
        scale = mp.mpf(1)

        def tail_sum(h, start_k, step):
            # sum node contributions until, beyond t_max, they stay below
            # the cutoff; singular integrands push useful nodes past t_max
            nonlocal nodes_used
            stop_eps = mp.mpf(2) ** (-(workprec + 8)) * scale
            total = mp.mpf(0)
            k = start_k
            consecutive_small = 0
            while True:
                t = k * h
                term = node_sum(t)
                total += term
                nodes_used += 1 if t == 0 else 2
                if t > t_max:
                    if abs(term) < stop_eps:
                        consecutive_small += 1
                        if consecutive_small >= 2:
                            return total
                    else:
                        consecutive_small = 0
                    if t > 8 * t_max + 10:
                        raise ConvergenceError(
                            "node contributions do not decay; integrand likely "
                            "not integrable on this interval"
                        )
                k += step
            return total

        h = mp.mpf(1)
        estimate = h * tail_sum(h, 0, 1)
        scale = max(scale, abs(estimate))
        previous = None
        error = mp.inf

        level = 0
        while level < max_level:
            level += 1
            h = h / 2
            new_estimate = estimate / 2 + h * tail_sum(h, 1, 2)
            error = _extrapolated_error(
                abs(new_estimate - estimate),
                None if previous is None else abs(new_estimate - previous),
            )
            previous, estimate = estimate, new_estimate
            scale = max(scale, abs(estimate))
            if level >= min_level and error <= tol * (1 + abs(estimate)):
                return QuadratureResult(estimate, error, level, nodes_used)
        raise ConvergenceError(
            f"tanh-sinh did not reach tolerance {mp.nstr(tol, 5)} in {max_level} levels "
            f"(last error estimate {mp.nstr(error, 5)})"
        )
