"""Legendre-Gauss-Radau collocation rule on [-1, 1].

The N-point rule collocates at the roots of P_{N-1} + P_N, which include the
left endpoint -1.  State interpolation uses the N collocation nodes plus the
non-collocated right endpoint +1, so the differentiation matrix is N x (N+1)
and the quadrature weights integrate polynomials of degree 2N-2 exactly.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import legendre


@dataclass(frozen=True)
class LGRRule:
    """Nodes, weights and differentiation matrix for one interval.

    Attributes
    ----------
    n : number of collocation nodes.
    nodes : (n,) collocation points in [-1, 1), nodes[0] == -1.
    weights : (n,) positive quadrature weights summing to 2.
    node_bary : (n,) barycentric weights for `nodes`.
    support : (n+1,) interpolation support, nodes plus the endpoint +1.
    support_bary : (n+1,) barycentric weights for `support`.
    diff_matrix : (n, n+1) derivative of the support interpolant at the nodes.
    """

    n: int
    nodes: np.ndarray
    weights: np.ndarray
    node_bary: np.ndarray
    support: np.ndarray
    support_bary: np.ndarray
    diff_matrix: np.ndarray


def barycentric_weights(points: np.ndarray) -> np.ndarray:
    """Barycentric weights 1 / prod_{k != j} (x_j - x_k)."""
    pts = np.asarray(points, dtype=float)
    diff = pts[:, None] - pts[None, :]
    np.fill_diagonal(diff, 1.0)
    return 1.0 / np.prod(diff, axis=1)


def lagrange_diff_matrix(points: np.ndarray) -> np.ndarray:
    """Square differentiation matrix of the Lagrange interpolant on `points`."""
    pts = np.asarray(points, dtype=float)
    bw = barycentric_weights(pts)
    n = len(pts)
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                d[i, j] = (bw[j] / bw[i]) / (pts[i] - pts[j])
        d[i, i] = -np.sum(d[i])
    return d


def barycentric_eval(points: np.ndarray, bary: np.ndarray,
                     values: np.ndarray, xq: np.ndarray) -> np.ndarray:
    """Evaluate the interpolant of `values` (rows follow `points`) at `xq`.

    `values` may be 1-D or (len(points), m); result follows that shape with
    the query axis first.  Queries landing on a support point return the data
    value exactly.
    """
    pts = np.asarray(points, dtype=float)
    vals = np.asarray(values, dtype=float)
    xq = np.atleast_1d(np.asarray(xq, dtype=float))
    diff = xq[:, None] - pts[None, :]
    exact_q, exact_p = np.nonzero(diff == 0.0)
    diff[exact_q, exact_p] = 1.0
    w = bary[None, :] / diff
    num = w @ vals
    den = np.sum(w, axis=1)
    out = num / (den[:, None] if vals.ndim > 1 else den)
    if len(exact_q):
        out[exact_q] = vals[exact_p]
    return out


@lru_cache(maxsize=64)
def lgr_rule(n: int) -> LGRRule:
    """Build the N-point rule.  Nodes are Newton-polished Legendre roots."""
    if n < 1:
        raise ValueError("need at least one collocation node")
    if n > 64:
        raise ValueError("rule capped at 64 nodes")
    if n == 1:
        nodes = np.array([-1.0])
        weights = np.array([2.0])
    else:
        # roots of P_{n-1} + P_n; -1 is a root analytically, interior roots
        # get two Newton corrections on top of the companion-matrix values
        coef = np.zeros(n + 1)
        coef[n - 1] = 1.0
        coef[n] = 1.0
        roots = np.sort(legendre.legroots(coef).real)
        interior = roots[1:]
        dcoef = legendre.legder(coef)
        for _ in range(3):
            f = legendre.legval(interior, coef)
            fp = legendre.legval(interior, dcoef)
            interior = interior - f / fp
        nodes = np.concatenate([[-1.0], interior])
        pnm1 = legendre.legval(nodes, [0.0] * (n - 1) + [1.0])
        weights = (1.0 - nodes) / (n * n * pnm1 ** 2)
        weights[0] = 2.0 / (n * n)
    support = np.concatenate([nodes, [1.0]])
    bary = barycentric_weights(support)
    diff = lagrange_diff_matrix(support)[:n, :]
    return LGRRule(n=n, nodes=nodes, weights=weights,
                   node_bary=barycentric_weights(nodes), support=support,
                   support_bary=bary, diff_matrix=diff)
