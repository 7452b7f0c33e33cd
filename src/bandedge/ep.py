"""Exceptional points of the detuned emitter: closed forms, certification, sheets.

Away from threshold the three near-edge states exhibit three ordinary EP2s:
one at real eps_d (where the two virtual states merge into the resonance /
anti-resonance pair) and a complex-conjugate pair visible only for complex
eps_d.  The coalesced energies are the negative roots of the double cubic

    (E^2 - 4)^3 = g^4 E^2.

No EP is ever trusted from the closed form alone: each candidate is certified
by the double-root residuals of the energy quartic plus coincidence of the
lam roots (guarding against the squaring step that produced the quartic).
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .spectrum import _horner, solve_quartic_lambda_raw

DOUBLE_ROOT_TOL = 1e-8
EP_GAP_TOL = 1e-6


@dataclass(frozen=True)
class EPLocation:
    """A certified second-order exceptional point."""

    n: int                 # branch index -1, 0, +1
    energy: complex        # coalesced eigenvalue
    eps_d: complex         # parameter value where the coalescence happens
    g: float


def _ep_condition_residual(E: complex, g: float) -> complex:
    """(E^2 - 4)^3 - g^4 E^2; zero exactly at a coalesced eigenvalue."""
    E = complex(E)
    return (E * E - 4.0) ** 3 - g**4 * E * E


def ep_energy_closed_form(g: float, n: int) -> complex:
    """Coalesced eigenvalue E_bar_n near the lower band edge, n in {-1, 0, 1}.

    Cardano solution of the cubic in y = E^2 - 4:

        E_bar_n = -sqrt(4 + w u + w^2 v),   w = exp(2 pi i n / 3),

    with u, v the real cube roots of g^4 (2 +/- sqrt(36 - g^4/3)/3).  Both
    radicands are positive for 0 < g^4 < 108, so the principal real cube
    roots already satisfy Cardano's constraint u v = g^4 / 3; the result is
    certified against the defining condition rather than assumed.
    """
    if n not in (-1, 0, 1):
        raise DomainError(f"branch index must be -1, 0 or 1, got {n}")
    if not (0.0 < g and g**4 < 108.0):
        raise DomainError(f"g = {g} outside the safe range 0 < g^4 < 108")
    s = np.sqrt(36.0 - g**4 / 3.0) / 3.0
    u = g ** (4.0 / 3.0) * np.cbrt(2.0 + s)
    v = g ** (4.0 / 3.0) * np.cbrt(2.0 - s)
    w1 = cmath.exp(2j * np.pi * n / 3.0)
    w2 = cmath.exp(4j * np.pi * n / 3.0)
    E = -cmath.sqrt(4.0 + w1 * u + w2 * v)
    res = abs(_ep_condition_residual(E, g))
    if res > 1e-10 * max(1.0, g**4):
        raise ConsistencyError(f"closed-form EP energy failed its own condition: {res:.3e}")
    if n == 0:
        E = complex(E.real, 0.0)
    return E


def verify_ep_by_discriminant(g: float, eps_d: complex) -> tuple[float, float]:
    """(min energy gap, lam gap of that pair) over the four discrete roots.

    A genuine EP needs both gaps small: an energy near-degeneracy with
    distinct lam roots is a first/second sheet accident, not a coalescence.
    """
    lams, Es = solve_quartic_lambda_raw(eps_d, g)
    best = None
    for i in range(4):
        for j in range(i + 1, 4):
            gap = abs(Es[i] - Es[j])
            if best is None or gap < best[0]:
                best = (gap, abs(lams[i] - lams[j]))
    return best


def ep_parameter(g: float, n: int) -> EPLocation:
    """Locate the EP2 on branch n: the eps_d making E_bar_n a double root.

    eps_d = E_bar - Sigma(E_bar) with the square-root branch chosen so that
    the energy quartic genuinely has a double root there (certified through
    |p| and |p'| of p(E) = (E - eps_d)^2 (E^2 - 4) - g^4, never assumed).
    For n = 0 the result is real.
    """
    E = ep_energy_closed_form(g, n)
    sq = cmath.sqrt(E * E - 4.0)
    for sign in (+1.0, -1.0):
        eps = E - sign * g**2 / sq
        # p as a monic row: E^4 + row[0] E^3 + ... + row[3]
        row = np.array([-2.0 * eps, eps * eps - 4.0, 8.0 * eps, -4.0 * eps * eps - g**4])
        p, dp = _horner(row, np.array([E]))
        if abs(p[0]) < DOUBLE_ROOT_TOL and abs(dp[0]) < DOUBLE_ROOT_TOL:
            gap, lam_gap = verify_ep_by_discriminant(g, eps)
            if gap < EP_GAP_TOL and lam_gap < 1e-3:
                if n == 0:
                    eps = complex(eps.real, 0.0)
                return EPLocation(n=n, energy=E, eps_d=eps, g=g)
    raise ConsistencyError(
        f"no self-energy branch yields a certified double root for n = {n}"
    )


# ---------------------------------------------------------------------------
# Complex-parameter sheet data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SheetCell:
    eps_d: complex
    energies: tuple[complex, complex, complex]  # continuity-tracked branches


_PERMS = np.array(list(itertools.permutations(range(3))))  # (6, 3), itertools order


def _match_to(
    prev: np.ndarray, prev_lams: np.ndarray, Es: np.ndarray, lams: np.ndarray
) -> np.ndarray:
    """Orders (n, 3) that take each row of Es, lams (n, 3) closest to prev.

    Each row's key is (round(sum |dE| / 1e-12), sum |dlam|) over the six
    permutations; the least key wins, and on an exact tie the first
    permutation in ``itertools`` order.  |dz| is ``np.hypot`` of the parts,
    which rounds like the scalar ``abs`` of a complex, and the three terms
    are summed left to right, so the keys are those of a cell-by-cell loop.
    """
    def cost(new, old):
        d = new[:, _PERMS] - old[:, None, :]  # (n, 6, 3)
        a = np.hypot(d.real, d.imag)
        return a[..., 0] + a[..., 1] + a[..., 2]

    key = np.rint(cost(Es, prev) / 1e-12)
    cost_l = np.where(key == key.min(axis=1, keepdims=True), cost(lams, prev_lams), np.inf)
    return _PERMS[np.argmin(cost_l, axis=1)]


def complex_parameter_sheet(
    g: float,
    re_grid: np.ndarray,
    im_grid: np.ndarray,
) -> list[SheetCell]:
    """Three near-edge eigenvalue sheets over a complex eps_d grid.

    Branches are continuity-tracked: within each constant-Im scan line the
    eigenvalues are matched to the previous cell by nearest energy, and the
    first cell of each line is matched to the line below, so the branch_id
    of the output is continuous wherever the sheets do not intersect.  The
    first cell of the grid numbers its branches by ascending Re E.

    The tracking is line-parallel: the first column is chained up one row
    at a time, then every scan line takes its step along Re eps_d at once,
    one ``_match_to`` over all rows per grid column.  A match minimizes
    (round(sum |dE| / 1e-12), sum |dlam|); on an exact tie the first
    permutation in ``itertools`` order wins.  Cells come in grid order,
    im_grid outer and re_grid inner.
    """
    re_grid = np.asarray(re_grid, dtype=float)
    im_grid = np.asarray(im_grid, dtype=float)
    grid = re_grid[None, :] + 1j * im_grid[:, None]
    # drop the continuation of the upper-edge bound state
    lams, Es = (x[..., :3] for x in solve_quartic_lambda_raw(grid, g))

    def step(prev, cur):  # reorder the (n, 3) block cur to follow prev
        order = _match_to(Es[prev], lams[prev], Es[cur], lams[cur])
        Es[cur] = np.take_along_axis(Es[cur], order, axis=1)
        lams[cur] = np.take_along_axis(lams[cur], order, axis=1)

    for i in range(1, im_grid.size):
        step(np.s_[i - 1, :1], np.s_[i, :1])
    for j in range(1, re_grid.size):
        step(np.s_[:, j - 1], np.s_[:, j])
    return [
        SheetCell(eps_d=eps, energies=tuple(E))
        for eps, E in zip(grid.ravel().tolist(), Es.reshape(-1, 3).tolist())
    ]

