import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import legendre

from ascentry.lgr import (barycentric_eval, barycentric_weights,
                          lagrange_diff_matrix, lgr_rule)


def oracle_nodes(n):
    # roots of P_{n-1} + P_n, which include the left endpoint
    c = np.zeros(n + 1)
    c[n - 1] = 1.0
    c[n] = 1.0
    return np.sort(legendre.legroots(c))


@pytest.mark.parametrize("n", [2, 3, 5, 8, 13, 21])
def test_nodes_match_legendre_roots(n):
    rule = lgr_rule(n)
    assert np.allclose(rule.nodes, oracle_nodes(n), atol=1e-12)
    assert rule.nodes[0] == -1.0
    assert rule.nodes[-1] < 1.0


@pytest.mark.parametrize("n", range(2, 12))
def test_weights_positive_and_sum_to_two(n):
    w = lgr_rule(n).weights
    assert np.all(w > 0)
    assert abs(w.sum() - 2.0) < 1e-13


def test_left_endpoint_weight_value():
    # w_0 = 2/n^2 is a closed form for this family
    for n in (2, 4, 7, 16):
        assert abs(lgr_rule(n).weights[0] - 2.0 / n ** 2) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 6, 9])
def test_quadrature_exact_through_degree_2n_minus_2(n):
    rule = lgr_rule(n)
    for k in range(2 * n - 1):
        exact = 0.0 if k % 2 else 2.0 / (k + 1)
        got = rule.weights @ rule.nodes ** k
        assert abs(got - exact) < 1e-12, f"n={n} monomial degree {k}"


def test_quadrature_not_exact_beyond_guarantee():
    n = 3
    rule = lgr_rule(n)
    k = 2 * n  # one past the guaranteed band
    assert abs(rule.weights @ rule.nodes ** k - 2.0 / (k + 1)) > 1e-6


@pytest.mark.parametrize("n", [2, 4, 8])
def test_diff_matrix_differentiates_polynomials(n):
    rule = lgr_rule(n)
    for k in range(n + 1):
        vals = rule.support ** k
        want = k * rule.nodes ** (k - 1) if k else np.zeros(n)
        assert np.allclose(rule.diff_matrix @ vals, want, atol=1e-10)


def test_diff_matrix_shape():
    rule = lgr_rule(5)
    assert rule.diff_matrix.shape == (5, 6)
    assert rule.support.shape == (6,)
    assert rule.support[-1] == 1.0


def test_rule_is_cached():
    assert lgr_rule(6) is lgr_rule(6)


@pytest.mark.parametrize("bad", [0, -3, 65, 200])
def test_rule_rejects_out_of_range_order(bad):
    with pytest.raises(ValueError):
        lgr_rule(bad)


def test_barycentric_eval_reproduces_polynomial_off_nodes():
    rule = lgr_rule(6)
    coeffs = np.array([0.3, -1.2, 0.8, 2.0, -0.5])
    vals = np.polyval(coeffs, rule.support)[:, None]
    xq = np.linspace(-1.0, 1.0, 37)
    w = barycentric_weights(rule.support)
    got = barycentric_eval(rule.support, w, vals, xq)
    assert got.shape == (37, 1)
    assert np.allclose(got[:, 0], np.polyval(coeffs, xq), atol=1e-12)


def test_barycentric_eval_exact_at_nodes():
    x = np.array([-1.0, -0.4, 0.3, 1.0])
    w = barycentric_weights(x)
    f = np.array([[2.0, -1.0, 0.5, 3.0]]).T
    assert np.allclose(barycentric_eval(x, w, f, x), f)


def test_lagrange_diff_matrix_on_chebyshev_points():
    x = np.cos(np.linspace(0.0, np.pi, 7))[::-1]
    d = lagrange_diff_matrix(x)
    # derivative of x^3 is 3x^2 at every point
    assert np.allclose(d @ x ** 3, 3.0 * x ** 2, atol=1e-11)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10),
       st.lists(st.floats(min_value=-3.0, max_value=3.0),
                min_size=1, max_size=6))
def test_random_polynomials_integrate_exactly(n, coeffs):
    deg = len(coeffs) - 1
    if deg > 2 * n - 2:
        coeffs = coeffs[:2 * n - 1]
    rule = lgr_rule(n)
    poly = np.polynomial.Polynomial(coeffs)
    got = rule.weights @ poly(rule.nodes)
    want = poly.integ()(1.0) - poly.integ()(-1.0)
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))
