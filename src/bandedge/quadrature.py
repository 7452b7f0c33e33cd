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

