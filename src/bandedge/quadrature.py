"""Adaptive panel quadrature built on nested Gauss-Legendre rules.

The error estimate per panel compares one 15-point rule against the sum of
two half-panel rules; panels failing the tolerance are bisected.  Supports
complex-valued integrands; integrand callables must accept numpy arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import QuadratureError

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)

_MAX_DEPTH = 48


def _panel(f, a: float, b: float):
    h = 0.5 * (b - a)
    x = 0.5 * (a + b) + h * _GL_NODES
    return h * np.sum(_GL_WEIGHTS * f(x))


def adaptive_quad(f, a: float, b: float, tol: float = 1e-10) -> complex:
    """Integral of f over [a, b] to absolute tolerance tol."""
    total = 0.0 + 0.0j
    stack = [(float(a), float(b), _panel(f, a, b), tol, 0)]
    while stack:
        a0, b0, coarse, tol0, depth = stack.pop()
        m = 0.5 * (a0 + b0)
        left = _panel(f, a0, m)
        right = _panel(f, m, b0)
        fine = left + right
        # the noise floor keeps sharp integrable peaks from demanding more
        # digits than double precision holds
        floor = 1e-14 * (abs(left) + abs(right) + abs(coarse))
        if abs(fine - coarse) <= max(tol0, floor) or (
            (b0 - a0) < 1e-14 * max(1.0, abs(m))
        ):
            total += fine
            continue
        if depth >= _MAX_DEPTH:
            raise QuadratureError(
                f"adaptive quadrature stalled on [{a0}, {b0}]",
                residual=abs(fine - coarse),
            )
        stack.append((a0, m, left, 0.5 * tol0, depth + 1))
        stack.append((m, b0, right, 0.5 * tol0, depth + 1))
    return complex(total)


def panel_nodes(edges: np.ndarray):
    """Gauss-Legendre nodes and weights for every panel between consecutive edges.

    Returns (nodes, weights) with shape (n_panels, 15); weights already carry
    the half-width Jacobian so a panel integral is sum(w * f(nodes), axis=1).
    """
    a = edges[:-1]
    b = edges[1:]
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    weights = half[:, None] * _GL_WEIGHTS[None, :]
    return nodes, weights


def refine_edges(points: np.ndarray, h_max: float, start: float = 0.0) -> np.ndarray:
    """Edge grid covering [start, points.max()] that contains every point and
    has no panel longer than h_max.

    Points are taken in order; one joins the grid only if it exceeds the last
    point joined (start at first) by more than 1e-12.  Each gap between
    joined points is split evenly, exactly as ``np.linspace`` would split it.
    """
    start = float(start)
    p = np.asarray(points, dtype=float)
    # a point not above the largest point before it (or start) never joins
    # and one above it by more than 1e-12 always does; only a point within
    # 1e-12 above it depends on which of the points before it joined
    before = np.maximum.accumulate(np.concatenate(([start], p)))[:-1]
    joined = p > before + 1e-12
    unsure = np.flatnonzero((p > before) & ~joined)
    if unsure.size:
        last = np.maximum.accumulate(np.concatenate(([start], np.where(joined, p, start))))
        held = start
        for i in unsure:
            if p[i] > max(held, last[i]) + 1e-12:
                joined[i], held = True, p[i]
    knots = np.concatenate(([start], p[joined]))
    gap = np.diff(knots)
    n = np.maximum(np.ceil(gap / h_max - 1e-12).astype(int), 1)
    first = np.cumsum(n) - n
    k = np.arange(n.sum()) - np.repeat(first, n) + 1.0
    edges = k * np.repeat(gap / n, n) + np.repeat(knots[:-1], n)
    edges[first + n - 1] = knots[1:]
    return np.concatenate(([start], edges))
