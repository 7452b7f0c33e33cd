"""Adaptive panel quadrature built on nested Gauss-Legendre rules.

The error estimate per panel compares one 15-point rule against the sum of
two half-panel rules; panels failing the tolerance are bisected.  One call
integrates a batch of integrals: each keeps its own panel tree, and at each
depth the live panels of every integral go through one integrand call.
Supports complex-valued integrands; integrand callables must accept numpy
arrays.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import QuadratureError


@lru_cache(maxsize=None)
def _leggauss(n: int):
    """The n-point Gauss-Legendre nodes and weights on [-1, 1], one pair per order."""
    return np.polynomial.legendre.leggauss(n)


_GL_WEIGHTS = _leggauss(15)[1]

_MAX_DEPTH = 48
# live panels refined in one integrand call; a larger set is refined in
# chunks, so a batch whose panels all keep failing (say, a NaN integrand)
# holds O(_MAX_DEPTH * _MAX_PANELS) panels, not 2^depth
_MAX_PANELS = 8192


def _panels(f, lo, hi, cols):
    """The 15-point rule on every panel [lo_i, hi_i], in one call of f."""
    x, _ = panel_nodes(lo, hi, 15)
    return 0.5 * (hi - lo) * np.sum(_GL_WEIGHTS * f(x, *cols), axis=1)


def adaptive_quad(f, a, b, tol: float = 1e-10, args=()):
    """Integrals of f over [a, b] to absolute tolerance tol, one per batch member.

    a, b and each entry of args broadcast to one batch shape.  f is called
    as f(x, *cols): x holds the 15 nodes of m panels, shape (m, 15), and
    each col holds the matching entry of args for the integral that owns
    each panel, shape (m, 1); f returns an array of x's shape.  Returns a
    complex for a scalar batch, else a complex array of the batch shape.

    Each integral sums its accepted panels one by one from 0j in descending
    order of their left edge, the order of a right-first depth-first
    bisection, so its value does not depend on the rest of the batch.
    Raises QuadratureError, naming the interval and carrying the residual,
    if a panel still fails at depth _MAX_DEPTH.
    """
    a, b, *params = np.broadcast_arrays(
        np.asarray(a, dtype=float), np.asarray(b, dtype=float), *map(np.asarray, args)
    )
    shape = a.shape
    lo, hi = a.ravel(), b.ravel()
    params = [c.reshape(-1, 1) for c in params]
    owner = np.arange(lo.size)
    coarse = _panels(f, lo, hi, params)
    work = [(lo, hi, coarse, owner, float(tol), 0)]
    kept = []
    while work:
        lo, hi, coarse, owner, tol0, depth = work.pop()
        m = lo.size
        mid = 0.5 * (lo + hi)
        rows = np.concatenate([owner, owner])
        halves = _panels(
            f, np.concatenate([lo, mid]), np.concatenate([mid, hi]), [c[rows] for c in params]
        )
        left, right = halves[:m], halves[m:]
        fine = left + right
        # the noise floor keeps sharp integrable peaks from demanding more
        # digits than double precision holds
        floor = 1e-14 * (np.abs(left) + np.abs(right) + np.abs(coarse))
        done = (np.abs(fine - coarse) <= np.maximum(tol0, floor)) | (
            (hi - lo) < 1e-14 * np.maximum(1.0, np.abs(mid))
        )
        kept.append((owner[done], lo[done], fine[done]))
        split = np.flatnonzero(~done)
        if split.size and depth >= _MAX_DEPTH:
            # of the panels refined in this call, the first stalled
            # integral's rightmost one
            first = split[owner[split] == owner[split].min()]
            i = first[np.argmax(lo[first])]
            member = f" (batch member {owner[i]})" if shape else ""
            raise QuadratureError(
                f"adaptive quadrature stalled on [{float(lo[i])}, {float(hi[i])}]{member}",
                residual=float(np.abs(fine[i] - coarse[i])),
            )
        children = (
            np.concatenate([lo[split], mid[split]]),
            np.concatenate([mid[split], hi[split]]),
            np.concatenate([left[split], right[split]]),
            np.concatenate([owner[split], owner[split]]),
        )
        for s in range(0, children[0].size, _MAX_PANELS):
            work.append((*(c[s : s + _MAX_PANELS] for c in children), 0.5 * tol0, depth + 1))

    owner, left_edge, value = (np.concatenate(c) for c in zip(*kept))
    order = np.lexsort((-left_edge, owner))
    # add.at applies the additions one by one in index order
    total = np.zeros(a.size, dtype=complex)
    np.add.at(total, owner[order], value[order])
    total = total.reshape(shape)
    return complex(total) if total.ndim == 0 else total


def panel_nodes(a: np.ndarray, b: np.ndarray, n: int):
    """n-point Gauss-Legendre nodes and weights for every panel [a_i, b_i].

    Returns (nodes, weights) with shape (n_panels, n); weights already carry
    the half-width Jacobian so a panel integral is sum(w * f(nodes), axis=1).
    The rule of each order is computed once and cached.
    """
    gl_nodes, gl_weights = _leggauss(n)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid[:, None] + half[:, None] * gl_nodes[None, :]
    weights = half[:, None] * gl_weights[None, :]
    return nodes, weights
