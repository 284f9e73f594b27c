"""tanh-sinh integration, including endpoint-singular integrands, and the
node cache."""

import mpmath as mp
import pytest

from legmellin import quadrature
from legmellin.errors import ConvergenceError, DomainError
from legmellin.mellin import mellin_closed
from legmellin.quadrature import tanh_sinh
from legmellin.specfun import ferrers


def _tol(prec):
    return mp.mpf(2) ** (-(prec - 16))


def test_polynomial_integral_is_near_exact():
    res = tanh_sinh(lambda x, da, db: x * x, 0, 1, 192)
    with mp.workprec(220):
        assert abs(res.value - mp.mpf(1) / 3) < _tol(192)


def test_inverse_sqrt_endpoint_singularity():
    # int_0^1 x^(-1/2) dx = 2; dist_a carries x without cancellation
    res = tanh_sinh(lambda x, da, db: 1 / mp.sqrt(da), 0, 1, 160)
    with mp.workprec(200):
        assert abs(res.value - 2) < _tol(160)


def test_arcsine_weight_full_interval():
    # int_0^1 dx / sqrt(1 - x^2) = pi/2, singular at the right endpoint
    res = tanh_sinh(lambda x, da, db: 1 / mp.sqrt(db * (1 + x)), 0, 1, 160)
    with mp.workprec(200):
        assert abs(res.value - mp.pi / 2) < _tol(160)


def test_log_singularity():
    res = tanh_sinh(lambda x, da, db: -mp.log(da), 0, 1, 160)
    with mp.workprec(200):
        assert abs(res.value - 1) < _tol(160)


def test_error_estimate_brackets_true_error():
    res = tanh_sinh(lambda x, da, db: mp.sin(x), 0, 1, 128)
    with mp.workprec(180):
        true_err = abs(res.value - (1 - mp.cos(mp.mpf(1))))
        assert true_err <= max(res.error_estimate * 16, _tol(128))


def test_levels_and_nodes_reported():
    res = tanh_sinh(lambda x, da, db: mp.mpf(1), 0, 1, 96)
    assert res.levels_used >= 3
    assert res.nodes_used > 0


def test_reversed_interval_rejected():
    with pytest.raises(DomainError):
        tanh_sinh(lambda x, da, db: x, 1, 0, 96)


def test_unreachable_tolerance_raises():
    with pytest.raises(ConvergenceError):
        tanh_sinh(lambda x, da, db: mp.sin(x), 0, 1, 96,
                  tolerance=mp.mpf(10) ** -80, max_level=4)


# ---------------------------------------------------------------------------
# the extrapolated error estimate

_S = mp.mpc(2, 3)


def _tanh_quad(n):
    # the TANH_QUAD integrand of mellin_rep, order 0
    def f(v, dist_a, dist_b):
        denom = 1 + v * v
        x = dist_b * (1 + v) / denom
        return 2 * mp.power(x, _S - 1) * ferrers(n, 0, x) / denom
    return f


_PANEL = {
    "x^2": (lambda x, da, db: x * x, lambda: mp.mpf(1) / 3),
    "sin": (lambda x, da, db: mp.sin(x), lambda: 1 - mp.cos(1)),
    "rsqrt": (lambda x, da, db: 1 / mp.sqrt(da), lambda: mp.mpf(2)),
    "log": (lambda x, da, db: -mp.log(da), lambda: mp.mpf(1)),
    "arcsine": (lambda x, da, db: 1 / mp.sqrt(db * (1 + x)), lambda: mp.pi / 2),
    "tanh_quad9": (_tanh_quad(9), lambda: mellin_closed(9, 0, _S, 320).to_mpc()),
    "tanh_quad20": (_tanh_quad(20), lambda: mellin_closed(20, 0, _S, 320).to_mpc()),
}

# levels the rule that stopped on the last inter-level difference needed,
# at 96, 128 and 160 bits: default tolerance, then 2^-(prec/2 + 8) (the
# tolerance of the mellin_rep quadrature rows)
_DIFFERENCE_RULE_LEVELS = {
    "x^2": (5, 5, 5, 4, 4, 5),
    "sin": (5, 5, 5, 4, 4, 5),
    "rsqrt": (4, 5, 5, 4, 4, 4),
    "log": (4, 5, 5, 4, 4, 4),
    "arcsine": (5, 5, 5, 4, 4, 5),
    "tanh_quad9": (6, 6, 6, 5, 5, 6),
    "tanh_quad20": (6, 6, 7, 6, 6, 6),
}


@pytest.mark.parametrize("half_tolerance", [False, True])
@pytest.mark.parametrize("prec", [96, 128, 160])
@pytest.mark.parametrize("name", list(_PANEL))
def test_error_estimate_is_honest(name, prec, half_tolerance):
    f, exact = _PANEL[name]
    tol = mp.mpf(2) ** (-(prec // 2 + 8) if half_tolerance else -prec)
    res = tanh_sinh(f, 0, 1, prec, tolerance=tol)
    with mp.workprec(320):
        true_err = abs(mp.mpc(res.value) - exact())
        assert true_err <= max(res.error_estimate, tol * (1 + abs(res.value)))
    column = [96, 128, 160].index(prec) + 3 * half_tolerance
    assert res.levels_used <= _DIFFERENCE_RULE_LEVELS[name][column]


# ---------------------------------------------------------------------------
# node cache

def _sine(x, da, db):
    return mp.sin(x)


def _cold(f, a, b, prec):
    quadrature._unit_node.cache_clear()
    return tanh_sinh(f, a, b, prec)


def test_warm_call_repeats_cold_call():
    cold = _cold(_sine, 0, 3, 128)
    assert quadrature._unit_node.cache_info().currsize > 0
    warm = tanh_sinh(_sine, 0, 3, 128)
    assert quadrature._unit_node.cache_info().hits > 0
    assert warm == cold


def test_interleaved_precisions_match_cold_runs():
    calls = [(_sine, 0, 3, 96), (_sine, 0, 3, 160),
             (lambda x, da, db: mp.exp(-x * x), -2, 5, 96),
             (lambda x, da, db: mp.log1p(x), 1, 7, 160)]
    cold = [_cold(*call) for call in calls]
    quadrature._unit_node.cache_clear()
    interleaved = [tanh_sinh(*call) for call in calls + calls]
    assert interleaved == cold + cold


def test_singular_integrand_after_warming_elsewhere():
    tanh_sinh(_sine, -1, 5, 160)
    res = tanh_sinh(lambda x, da, db: 1 / mp.sqrt(da), 0, 1, 160)
    with mp.workprec(200):
        assert abs(res.value - 2) < _tol(160)


@pytest.mark.parametrize("a, b, prec, levels, nodes", [
    (0, 1, 128, 4, 179), (-1, 3, 96, 4, 173), (2, 5, 96, 4, 173)])
def test_node_counts_do_not_depend_on_the_cache(a, b, prec, levels, nodes):
    # counts of a cache-cleared run, for int_a^b sin x dx; the second
    # pass is served from the cache
    quadrature._unit_node.cache_clear()
    for _ in range(2):
        res = tanh_sinh(_sine, a, b, prec)
        assert (res.levels_used, res.nodes_used) == (levels, nodes)
