"""tanh-sinh integration, including endpoint-singular integrands, and the
node cache."""

import mpmath as mp
import pytest

from legmellin import quadrature
from legmellin.errors import ConvergenceError, DomainError
from legmellin.quadrature import tanh_sinh


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
    (0, 1, 128, 5, 343), (-1, 3, 96, 5, 331), (2, 5, 96, 5, 331)])
def test_node_counts_do_not_depend_on_the_cache(a, b, prec, levels, nodes):
    # counts of the uncached implementation, for int_a^b sin x dx
    for _ in range(2):
        res = tanh_sinh(_sine, a, b, prec)
        assert (res.levels_used, res.nodes_used) == (levels, nodes)
