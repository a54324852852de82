import numpy as np
import pytest

from esfem.quadrature import reference_rule, segment_rule, triangle_rule
from oracles import reference_monomial_integral


@pytest.mark.parametrize("order", [1, 2, 3, 4, 6, 8, 12])
def test_segment_rule_exactness(order):
    rule = segment_rule(order)
    assert np.all(rule.weights > 0)
    for p in range(order + 1):
        exact = reference_monomial_integral(1, (p,))
        approx = float(rule.weights @ rule.points[:, 0] ** p)
        assert abs(approx - exact) < 1e-14


@pytest.mark.parametrize("order", [1, 2, 4, 5, 6, 8, 10])
def test_triangle_rule_exactness(order):
    rule = triangle_rule(order)
    assert np.all(rule.weights > 0)
    assert abs(rule.weights.sum() - 0.5) < 1e-14
    x, y = rule.points[:, 0], rule.points[:, 1]
    for p in range(order + 1):
        for q in range(order + 1 - p):
            exact = reference_monomial_integral(2, (p, q))
            approx = float(rule.weights @ (x**p * y**q))
            assert abs(approx - exact) < 1e-14, (p, q)


def test_rules_are_cached():
    assert reference_rule(1, 4) is reference_rule(1, 4)
    assert reference_rule(2, 6) is reference_rule(2, 6)


def test_unsupported_dimension():
    with pytest.raises(ValueError):
        reference_rule(3, 2)
