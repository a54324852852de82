"""Quadrature rules on the reference segment [0,1] and unit triangle."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Reference-element rule: points (n,m), positive weights, exactness order."""

    points: np.ndarray
    weights: np.ndarray
    order: int


@lru_cache(maxsize=None)
def segment_rule(order):
    """Gauss-Legendre on [0,1], exact for polynomials up to ``order``."""
    npts = order // 2 + 1
    x, w = np.polynomial.legendre.leggauss(npts)
    pts = 0.5 * (x + 1.0)
    return QuadratureRule(pts.reshape(-1, 1), 0.5 * w, 2 * npts - 1)


def _orbit3(a):
    return [(a, a), (1.0 - 2.0 * a, a), (a, 1.0 - 2.0 * a)]


def _orbit6(a, b):
    c = 1.0 - a - b
    return [(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)]


# Symmetric positive-weight rules on the unit triangle (weights normalized to
# sum to 1; the reference area factor 1/2 is applied when building the rule).
_TRIANGLE_RULES = {
    1: [(1.0, [(1.0 / 3.0, 1.0 / 3.0)])],
    2: [(1.0 / 3.0, _orbit3(1.0 / 6.0))],
    4: [
        (0.223381589678011, _orbit3(0.445948490915965)),
        (0.109951743655322, _orbit3(0.091576213509771)),
    ],
    5: [
        (0.225, [(1.0 / 3.0, 1.0 / 3.0)]),
        (0.132394152788506, _orbit3(0.470142064105115)),
        (0.125939180544827, _orbit3(0.101286507323456)),
    ],
    6: [
        (0.116786275726379, _orbit3(0.249286745170910)),
        (0.050844906370207, _orbit3(0.063089014491502)),
        (0.082851075618374, _orbit6(0.310352451033785, 0.636502499121399)),
    ],
}


@lru_cache(maxsize=None)
def triangle_rule(order):
    """Symmetric rule on the unit triangle for low orders; collapsed tensor
    Gauss rule (positive weights) for orders beyond the tabulated ones."""
    for deg in sorted(_TRIANGLE_RULES):
        if deg >= order:
            pts, wts = [], []
            for w, orbit in _TRIANGLE_RULES[deg]:
                for p in orbit:
                    pts.append(p)
                    wts.append(w)
            return QuadratureRule(np.array(pts), 0.5 * np.array(wts), deg)
    return _duffy_rule(order)


def _duffy_rule(order):
    """Tensor Gauss rule mapped to the triangle by (u,v) -> (u, v(1-u)).

    With the Jacobian 1 - u, a monomial x^a y^b with a + b <= order becomes
    u^a (1-u)^(b+1) v^b: degree at most order + 1 in u and order in v.
    Gauss with n points per direction is exact to degree 2n - 1, so
    (order + 1) // 2 + 1 points per direction are exact for ``order``; the
    rule takes n = order + 1, more than that.
    """
    n = order + 1
    x, w = np.polynomial.legendre.leggauss(n)
    u = 0.5 * (x + 1.0)
    wu = 0.5 * w
    uu, vv = np.meshgrid(u, u, indexing="ij")
    ww = np.outer(wu, wu) * (1.0 - uu)
    pts = np.stack([uu, vv * (1.0 - uu)], axis=-1).reshape(-1, 2)
    return QuadratureRule(pts, ww.reshape(-1), order)


def reference_rule(dim, order):
    if dim == 1:
        return segment_rule(order)
    if dim == 2:
        return triangle_rule(order)
    raise ValueError(f"unsupported reference dimension {dim}")
