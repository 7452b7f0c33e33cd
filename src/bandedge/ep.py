"""Exceptional points of the detuned emitter: closed forms, certification, sheets.

Away from threshold the three near-edge states exhibit three ordinary EP2s:
one at real eps_d (where the two virtual states merge into the resonance /
anti-resonance pair) and a complex-conjugate pair visible only for complex
eps_d.  The coalesced energies are the negative roots of the double cubic

    (E^2 - 4)^3 = g^4 E^2.

No EP is ever trusted from the closed form alone: each energy is checked
against the double cubic, and each eps_d by two roots of the lam quartic that
coincide in energy and in lam (guarding against the squaring step).
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, DomainError
from .spectrum import _PAIRS, _cardano, solve_quartic_lambda_raw


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


def _coalesced(g: float, n: int) -> tuple[complex, complex]:
    """(E_bar_n, y = E_bar_n^2 - 4); see ``ep_energy_closed_form``."""
    if n not in (-1, 0, 1):
        raise DomainError(f"branch index must be -1, 0 or 1, got {n}")
    if not (0.0 < g and g**4 < 108.0):
        raise DomainError(f"g = {g} outside the safe range 0 < g^4 < 108")
    y = complex(_cardano(np.array([-(g**4)]), np.array([-4.0 * g**4]))[0, n % 3])
    E = -cmath.sqrt(4.0 + y)
    res = abs(_ep_condition_residual(E, g))
    if res > 1e-10 * max(1.0, g**4):
        raise ConsistencyError(f"closed-form EP energy failed its own condition: {res:.3e}")
    return (complex(E.real, 0.0) if n == 0 else E), y


def ep_energy_closed_form(g: float, n: int) -> complex:
    """Coalesced eigenvalue E_bar_n = -sqrt(4 + y) near the lower band edge,
    n in {-1, 0, 1}, with y = E^2 - 4 root n % 3 of ``spectrum._cardano``
    for the cubic y^3 - g^4 y - 4 g^4 = 0 (real for n = 0; for
    0 < g^4 < 108 root n carries the phase exp(2 pi i n / 3)).  The result
    is checked against the defining condition rather than assumed.
    """
    return _coalesced(g, n)[0]


def verify_ep_by_discriminant(g: float, eps_d: complex) -> tuple[float, float]:
    """(min energy gap, lam gap of that pair) over the four discrete roots,
    the first such pair in (0, 1), (0, 2), ..., (2, 3) order.

    A genuine EP needs both gaps small: an energy near-degeneracy with
    distinct lam roots is a first/second sheet accident, not a coalescence.
    """
    lams, Es = solve_quartic_lambda_raw(eps_d, g)
    i, j = _PAIRS[:, np.argmin(np.abs(Es[_PAIRS[0]] - Es[_PAIRS[1]]))]
    return abs(Es[i] - Es[j]), abs(lams[i] - lams[j])


def _ep_certified(g: float, E: complex, eps: complex) -> bool:
    """True if E is a certified double root of the energy quartic
    p(E) = (E - eps)^2 y - g^4, y = E^2 - 4: the quartic's nearest root pair
    (``verify_ep_by_discriminant``) within 20 s in energy and 20 s / |y|^(1/2)
    in lam (|dlam/dE| ~ |y|^(-1/2)).  At eps = E + y/E, p'(E) = 0 and
    p(E) = (y^3 - g^4 E^2)/E^2, the cubic ``_coalesced`` checks.
    s = (ulp(|eps|) |dp/deps| / |p''(E)/2|)^(1/2) is the split that rounding
    eps to a double causes at a double root, s ~ (ulp(2) |E + 2|)^(1/2) near
    threshold.  p is even in E - eps, so only the gaps reject the mirror
    candidate 2E - eps.  For every n and g from 1e-9 to just below
    108^(1/4), the gaps at fl(eps_bar) are at most 5.5 s in energy and
    8.2 s / |y|^(1/2) in lam, and at the mirror at least 68 s and
    137 s / |y|^(1/2).  Below g ~ 4e-11 the mirror lies within a few ulps
    of eps_bar and passes too.
    """
    gap, lam_gap = verify_ep_by_discriminant(g, eps)
    u, y = E - eps, (E - 2.0) * (E + 2.0)
    # squared, gap^2 < (20 s)^2, so that no tolerance divides by zero
    half_dp2, dp_deps = abs(y + 4.0 * E * u + u * u), abs(2.0 * u * y)
    tol2 = 400.0 * math.ulp(abs(eps)) * dp_deps
    return gap**2 * half_dp2 < tol2 and lam_gap**2 * half_dp2 * abs(y) < tol2


def ep_parameter(g: float, n: int) -> EPLocation:
    """Locate the EP2 on branch n: the eps_d making E_bar_n a double root.

    p'(E) = 2 (E - eps_d) [y + E (E - eps_d)] with y = E^2 - 4 vanishes at
    eps_d = E + y / E, where p(E) = 0 is exactly the cubic y^3 = g^4 E^2
    that E_bar_n solves; so eps_bar = E_bar + y / E_bar, y from the closed
    form, certified by ``_ep_certified`` (ConsistencyError if it fails;
    for n = 0 it does from g ~ 5e-12, where E_bar + 2 is below the
    resolution of E_bar).  eps_bar is within 1.5e-15 of 60-digit values
    for every n and g from 1e-9 to 3.  For n = 0 the result is real.
    """
    E, y = _coalesced(g, n)
    eps = E + y / E
    if not _ep_certified(g, E, eps):
        raise ConsistencyError(f"eps_d = {eps} is not a certified double root for n = {n}")
    if n == 0:
        eps = complex(eps.real, 0.0)
    return EPLocation(n=n, energy=E, eps_d=eps, g=g)


# ---------------------------------------------------------------------------
# Complex-parameter sheet data
# ---------------------------------------------------------------------------

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


def _check_finite_grid(re_grid: np.ndarray, im_grid: np.ndarray) -> None:
    """DomainError naming the first non-finite cell re + i im of the grid
    re_grid x im_grid, in grid order (im_grid outer)."""
    bad = ~np.isfinite(im_grid)[:, None] | ~np.isfinite(re_grid)[None, :]
    if bad.any():
        i, j = np.unravel_index(np.argmax(bad), bad.shape)
        raise DomainError(f"eps_d = {complex(re_grid[j], im_grid[i])} is not finite")


def complex_parameter_sheet(
    g: float,
    re_grid: np.ndarray,
    im_grid: np.ndarray,
) -> np.ndarray:
    """Three near-edge eigenvalue sheets over a complex eps_d grid, as the
    (im_grid.size * re_grid.size, 3) complex array of the tracked energies.

    Branches are continuity-tracked: within each constant-Im scan line the
    eigenvalues are matched to the previous cell by nearest energy, and the
    first cell of each line is matched to the line below, so the branch_id
    of the output is continuous wherever the sheets do not intersect.  The
    first cell of the grid numbers its branches by ascending Re E.

    The tracking is line-parallel: the first column is chained up one row
    at a time, then every scan line takes its step along Re eps_d at once,
    one ``_match_to`` over all rows per grid column.  A match minimizes
    (round(sum |dE| / 1e-12), sum |dlam|); on an exact tie the first
    permutation in ``itertools`` order wins.  Rows are the cells in grid
    order, im_grid outer and re_grid inner, at eps_d =
    re_grid[None, :] + 1j * im_grid[:, None]; column k is branch k.  A
    non-finite entry of either grid raises DomainError naming its first cell.
    """
    re_grid = np.asarray(re_grid, dtype=float)
    im_grid = np.asarray(im_grid, dtype=float)
    _check_finite_grid(re_grid, im_grid)
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
    return Es.reshape(-1, 3)

