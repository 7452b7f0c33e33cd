"""Discrete spectrum: exact quartics, state classification, norms, Puiseux expansions.

The four discrete states are the roots of the lam-plane quartic

    f(lam) = -lam^4 - eps_d lam^3 - g^2 lam^2 + eps_d lam + 1,

equivalent to the energy quartic p(E) = (E - eps_d)^2 (E^2 - 4) - g^4 under
E = -lam - 1/lam.  f is solved in double precision about the threshold,
y = lam - 1, where the three roots that cluster at lam = 1 for small g form
the well-scaled cubic y^3 ~ -g^2/2 instead of losing two thirds of their
digits to the shift; p is solved about the dot level, v = E - eps_d (see
``solve_energy_quartic_centred``).  One batched companion eigensolve plus three
Newton steps (``_monic_roots``) serves every polynomial solve in the package.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    BranchCutError,
    DegenerateNormalizationError,
    DomainError,
    LabelMatchingError,
    NumericalError,
)
from .model import CUT_TOL, ModelParams

ROOT_RESIDUAL_TOL = 1e-12
# a root counts as real when |Im lam| < REAL_TOL * (1 + |lam|)
REAL_TOL = 1e-9

CBRT2 = 2.0 ** (1.0 / 3.0)
_TINY = np.finfo(float).tiny


class StateClass(Enum):
    BOUND_LOWER = "bound_lower"
    BOUND_UPPER = "bound_upper"
    VIRTUAL = "virtual"
    RESONANCE = "resonance"
    ANTI_RESONANCE = "anti_resonance"


@dataclass(frozen=True)
class DiscreteState:
    """One root of the quartic with its classification and squared components."""

    lam: complex
    energy: complex
    state_class: StateClass
    psi0_sq: complex
    psid_sq: complex


def _monic_roots(lower: np.ndarray) -> np.ndarray:
    """Roots of z^n + lower[..., 0] z^(n-1) + ... + lower[..., n-1] (monic rows).

    The one root solver of the package, for any degree n = lower.shape[-1]:
    the (..., n, n) companion matrices go through a single batched
    eigensolve, and each eigenvalue takes three Newton steps, each kept only
    if it lowers |p|.  Real coefficient rows stay real, so their complex
    roots come out as exactly conjugate pairs.  Raises NumericalError if a
    normwise residual |p(z)| / (max|c| max(1, |z|)^n) exceeds
    ROOT_RESIDUAL_TOL.
    """
    n = lower.shape[-1]
    comp = np.zeros(lower.shape[:-1] + (n, n), dtype=lower.dtype)
    comp[..., 0, :] = -lower
    comp[..., np.arange(1, n), np.arange(n - 1)] = 1.0
    z = np.linalg.eigvals(comp).astype(complex)
    p, dp = _horner(lower, z)
    # p / dp can overflow where dp is tiny (a subnormal g^2); an inf or nan
    # step never passes `better`, and the residual check below still raises
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            z_new = z - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
            p_new, dp_new = _horner(lower, z_new)
            # at a near-double root dp is rounding noise, and an unchecked step
            # can throw the root far off (seen in the energy quartic at g ~ 1e-4)
            better = np.abs(p_new) < np.abs(p)
            z = np.where(better, z_new, z)
            p = np.where(better, p_new, p)
            dp = np.where(better, dp_new, dp)
    scale = np.maximum(1.0, np.max(np.abs(lower), axis=-1, keepdims=True))
    worst = np.max(np.abs(p) / (scale * np.maximum(1.0, np.abs(z)) ** n))
    if not worst <= ROOT_RESIDUAL_TOL:
        raise NumericalError(
            f"polynomial roots did not converge; worst residual {worst:.3e}",
            residual=float(worst),
        )
    return z


def _horner(lower, z):
    """Monic polynomial and its derivative at z, coefficient rows broadcast over roots."""
    p, dp = np.ones_like(z), np.zeros_like(z)
    for k in range(lower.shape[-1]):
        dp = dp * z + p
        p = p * z + lower[..., k : k + 1]
    return p, dp


def _real_if_real(x) -> np.ndarray:
    x = np.asarray(x)
    return x.real if not np.any(np.imag(x)) else x.astype(complex)


def solve_quartic_lambda_raw(eps_d, g: float) -> tuple[np.ndarray, np.ndarray]:
    """(lam, E) for all four roots of f(lam), batched over eps_d (complex
    allowed), in ascending Re E by a stable sort: the near-edge triplet, then
    the bound state above the band (its continuation for complex eps_d).

    Solved for y = lam - 1 with delta = eps_d + 2, where f becomes

        f = -y^4 - (2 + delta) y^3 - (3 delta + g^2) y^2 - 2 (delta + g^2) y - g^2,

    so the threshold triplet is the well-scaled cluster y^3 ~ -g^2/2 and no
    digits are lost to the shift.  E = -2 - y^2 / (1 + y) avoids the
    cancellation in -lam - 1/lam.  Output arrays have shape eps_d.shape + (4,).
    """
    d = _real_if_real(np.asarray(eps_d) + 2.0)
    g2 = g * g
    lower = np.stack(
        np.broadcast_arrays(2.0 + d, 3.0 * d + g2, 2.0 * (d + g2), g2), axis=-1
    )
    y = _monic_roots(lower)
    lams, Es = 1.0 + y, -2.0 - y * y / (1.0 + y)
    order = np.argsort(Es.real, axis=-1, kind="stable")
    return np.take_along_axis(lams, order, axis=-1), np.take_along_axis(Es, order, axis=-1)


def solve_energy_quartic_centred(params: ModelParams) -> np.ndarray:
    """Four roots v = E - eps_d of the energy quartic for real eps_d and
    g = 0 or g^4 a normal double, up to g = 1e38 (DomainError outside that).

    Here p = v^4 + a v^3 + b v^2 - g^4, with a = 2 eps_d,
    b = (eps_d - 2)(eps_d + 2) (one rounding, also near eps_d = +-2) and no
    linear term, so at threshold the near-edge triplet is the cluster
    v^3 ~ -g^4 / 4 about v = 0.  The companion solve (``_monic_roots``) gets
    every root to about 1e-16 absolute.  The two roots near the dot level,
    v ~ +-v0 with v0 = sqrt(g^4 / b), need better where they are tiny: there
    Newton cannot start (both can come back as v = 0, where p' = 0).  Where
    the pair is well separated from the other two roots,
    |a v0| + |v0|^2 <= 1e-3 |b|, it is replaced by four steps of the deflated
    fixed point v = v0 sqrt(b / (b + a v + v^2)), which contract by
    |a v0| / (2 |b|) <= 5e-4 each; the steps commute with conjugation, so
    an in-band pair stays exactly conjugate.  At b = 0 (eps_d = +-2) the
    companion solve loses the threshold triplet v^3 ~ g^4 / a the same way
    (exact zeros for g <~ 1e-15); where |v0| <= 1e-3 |a| with v0 running
    over the cube roots of g^4 / a, it is taken from four steps of the
    deflated cubic v = v0 (a / (a + v))^(1/3), contracting by
    |v0| / (3 |a|) each, with the two complex cube roots exactly conjugate.
    Elsewhere the companion roots stay.  E = eps_d + v keeps Im v to full
    relative precision but rounds Re v to the ulp of eps_d.
    """
    if params.g > 1e38:  # g^8, the scale of the residual check, stays finite
        raise DomainError(
            f"g = {params.g:.3e} is above the energy route's bound g <= 1e+38"
        )
    e = _real_if_real(params.epsilon_d)
    a, b, g4 = 2.0 * e, (e - 2.0) * (e + 2.0), params.g**4
    if params.g > 0.0 and g4 < _TINY:  # g^4 subnormal or flushed to 0
        raise DomainError(
            f"g^4 = {g4:.3e} is subnormal; need g = 0 or g >= {_TINY**0.25:.6e}"
        )
    v = _monic_roots(np.array([a, b, 0.0, -g4]))
    v0 = np.sqrt(g4 / b + 0j) if b != 0 else np.inf
    if abs(a * v0) + abs(v0) ** 2 <= 1e-3 * abs(b):
        v0 = v0 * np.array([1.0, -1.0])
        pair = v0
        for _ in range(4):
            pair = v0 * np.sqrt(b / (b + a * pair + pair * pair))
        near = np.argsort(np.abs(v))[:2]
        if abs(v[near[0]] - pair[1]) < abs(v[near[0]] - pair[0]):
            near = near[::-1]
        v[near] = pair
    elif b == 0 and g4 > 0:
        w = complex(-0.5, 0.75**0.5)  # e^{2 pi i/3}; its conjugate taken exactly
        v0 = np.cbrt(g4 / a) * np.array([1.0, w, w.conjugate()])
        if abs(v0[0]) <= 1e-3 * abs(a):
            triplet = v0
            for _ in range(4):
                triplet = v0 * (a / (a + triplet)) ** (1.0 / 3.0)
            v = np.append(triplet, v[np.argmax(np.abs(v))])
    return v


def is_real_root(lam: complex) -> bool:
    return abs(lam.imag) < REAL_TOL * (1.0 + abs(lam))


def _classify_state(lam: complex, energy: complex) -> StateClass:
    """Classify a quartic root by sheet (|lam| vs 1) and reality.

    |lam| < 1, lam real > 0  -> bound state below the band (first sheet)
    |lam| < 1, lam real < 0  -> bound state above the band
    |lam| > 1, lam real      -> virtual (anti-bound) state
    |lam| > 1, Im E < 0      -> resonance
    |lam| > 1, Im E > 0      -> anti-resonance

    f(+-1) = -g^2, so for g > 0 an exactly real root is never on the cut and
    |lam| against 1 places it however close to the circle it lies (at
    eps_d = -2 the bound state above the band has 1 - |lam| ~ g^2/8); only a
    complex root within CUT_TOL of the circle, or lam = +-1 itself, raises
    BranchCutError.
    """
    mod = abs(lam)
    on_cut = mod == 1.0 if lam.imag == 0 else abs(mod - 1.0) < CUT_TOL
    if on_cut:
        raise BranchCutError(f"lam = {lam} on the unit circle", roots=(lam, 1 / lam))
    if mod < 1.0:
        if not is_real_root(lam):
            raise DomainError(f"non-real first-sheet root {lam} is unphysical")
        return StateClass.BOUND_LOWER if lam.real > 0 else StateClass.BOUND_UPPER
    if is_real_root(lam):
        return StateClass.VIRTUAL
    return StateClass.RESONANCE if energy.imag < 0 else StateClass.ANTI_RESONANCE


def _normalize_state(params: ModelParams, lam: complex) -> tuple[complex, complex]:
    """Squared eigenvector components (psi0_sq, psid_sq).

    psi0_sq = g^2 lam^2 / D and psid_sq = (1 - lam^2)^2 / D with
    D = g^2 lam^2 (1 + lam^2) + (1 - lam^2)^3, so that the bi-orthogonal
    normalization (1 + lam^2) psi0_sq + (1 - lam^2) psid_sq = 1 holds
    identically.  Squared quantities are first-class here: no square-root
    branch is ever chosen.
    """
    lam = complex(lam)
    g2 = params.g**2
    one_m = 1.0 - lam * lam
    D = g2 * lam * lam * (1.0 + lam * lam) + one_m**3
    if abs(D) < 1e-300:
        raise DegenerateNormalizationError(
            f"normalization denominator vanished at lam = {lam}"
        )
    return g2 * lam * lam / D, one_m * one_m / D


def _classified(params: ModelParams, lams, Es) -> list[DiscreteState]:
    """The roots (lam, E), each classified and normalized."""
    out = []
    for z, E in zip(lams.tolist(), Es.tolist()):
        cls = _classify_state(z, E)
        out.append(DiscreteState(z, E, cls, *_normalize_state(params, z)))
    return out


def _check_upper(params: ModelParams, lam) -> None:
    """Raise unless lam, the root of largest Re E, is the bound state above
    the band: real with -1 < lam < 0."""
    lam = complex(lam)
    # for 0 < g and eps_d < 2 the true root lies in (-1, 0); y = lam - 1 ~ -2 is
    # stored with a spacing of 2^-52, so a shift from -1 below about 2^-53
    # rounds to lam = -1 or past it
    if params.g > 0.0 and params.epsilon_d < 2.0 and lam.real <= -1.0:
        shift = params.g**2 / (4.0 - 2.0 * params.epsilon_d)
        raise DomainError(
            f"the bound state above the band, lam = -1 + g^2/(4 - 2 eps_d) + O(g^4), "
            f"rounds to lam = {lam.real!r} at g = {params.g:.3e}, "
            f"eps_d = {params.epsilon_d}: its shift {shift:.3e} is below the about "
            f"1.1e-16 that double precision resolves (g >~ 3e-8 at eps_d = -2)"
        )
    if not (is_real_root(lam) and -1.0 < lam.real < 0.0):
        raise LabelMatchingError(
            f"the root of largest Re E, lam = {lam}, is not a bound state "
            f"above the band (need real -1 < lam < 0)"
        )


def discrete_spectrum(params: ModelParams) -> list[DiscreteState]:
    """All four discrete states in ascending Re E, classified and normalized:
    the near-edge triplet, then the bound state above the band.

    All four residues of the dot Green's function, for sums that must be
    exact (they add up to 1).  Same domain as ``near_edge_triplet``.
    """
    lams, Es = solve_quartic_lambda_raw(params.epsilon_d, params.g)
    _check_upper(params, lams[3])
    return _classified(params, lams, Es)


def near_edge_triplet(params: ModelParams) -> list[DiscreteState]:
    """The three states near the lower band edge, classified and normalized.

    The first three of ``discrete_spectrum``, the roots of smallest Re E.
    Raises LabelMatchingError unless the fourth root is real with
    -1 < lam < 0.  For g > 0 that root is lam = -1 + g^2/(4 - 2 eps_d)
    + O(g^4), which double precision resolves only while the shift
    g^2/(4 - 2 eps_d) exceeds about 1.1e-16 (g >~ 3e-8 near eps_d = -2,
    measured); below that it rounds to -1 and DomainError is raised.
    """
    return discrete_spectrum(params)[:3]


# Branch phase zeta_alpha = e^{2 pi i alpha / 3} of the threshold triplet:
# 0 bound, -1 resonance, +1 anti-resonance.  The three branches are the three
# cube roots of g^2.
_ZETA = {0: 1.0, -1: complex(-0.5, -0.75**0.5), 1: complex(-0.5, 0.75**0.5)}


def threshold_labels(states) -> dict[int, DiscreteState]:
    """Assign alpha in {0, -1, +1} to the near-edge triplet by arg(lam - 1).

    Near lam = 1 the branch alpha leaves along the direction -zeta_alpha
    (arg pi, +pi/3, -pi/3), which stays well conditioned however small
    |lam - 1| is; each state takes the alpha whose direction is nearest.
    """
    if len(states) != 3:
        raise LabelMatchingError("need exactly three states to label")
    out: dict[int, DiscreteState] = {}
    for s in states:
        w = s.lam - 1.0
        alpha = max(_ZETA, key=lambda a: (w * -_ZETA[a].conjugate()).real)
        if alpha in out:
            raise LabelMatchingError(
                f"two states map to alpha = {alpha}; g too large for labeling"
            )
        out[alpha] = s
    return out


def eigenstate_profile(state: DiscreteState, x: int) -> complex:
    """Wave-function component <x|psi> = lam^|x| <0|psi> (x = 0 gives <0|psi>).

    The signed <0|psi> is the principal square root of psi0_sq; this global
    convention is the only place a square-root branch is taken.  A
    second-sheet state grows as |lam|^|x|, which leaves the doubles past
    |x| ~ log(1.8e308) / log|lam|; DomainError where the component does.
    """
    psi0 = cmath.sqrt(state.psi0_sq)
    try:
        value = psi0 * state.lam ** abs(int(x))
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):
        bound = math.log(np.finfo(float).max) / math.log(abs(state.lam))
        raise DomainError(
            f"<x|psi> overflows at x = {x}: |lam|^|x| with |lam| = {abs(state.lam)!r} "
            f"leaves the doubles past |x| ~ {bound:.6g}"
        )
    return value


# ---------------------------------------------------------------------------
# Puiseux expansions at threshold (eps_d = -2) in powers of g^(2/3)
# ---------------------------------------------------------------------------

# One row of real coefficients per quantity, (powers of x, c_p) for its
# nonzero terms; branch alpha is the same row at x = zeta_alpha g^(2/3).
# The g^(8/3) energy term thus carries -e^{+i pi/3} on the resonance, fixed
# against 60-digit roots (only this sign keeps the three-term truncation
# error at O(g^4)).
_SERIES = {
    "energy": ((0, 2, 4), (-2.0, -1.0 / 2.0 ** (2.0 / 3.0), 1.0 / (24.0 * CBRT2))),
    "lambda": (
        (0, 1, 2, 3, 4),
        (1.0, -1.0 / CBRT2, 1.0 / 2.0 ** (5.0 / 3.0), -1.0 / 24.0, -1.0 / (48.0 * CBRT2)),
    ),
    "norm_d": ((-1, 0, 1), (CBRT2 / 3.0, 1.0 / 3.0, 1.0 / (9.0 * CBRT2))),
}


def _series(quantity: str, g: float, n_terms: int, alpha: int) -> complex:
    """Sum of c_p (zeta_alpha g^(2/3))^p over the first n_terms nonzero terms."""
    powers, coeffs = _SERIES[quantity]
    if not 1 <= n_terms <= len(powers):
        raise DomainError(
            f"{quantity} expansion has 1 to {len(powers)} terms, got n_terms = {n_terms}"
        )
    if alpha not in _ZETA:
        raise DomainError(f"alpha must be 0, -1 or +1, got {alpha}")
    if not 0.0 <= g < math.inf:
        raise DomainError(f"g = {g} outside the domain: need a finite g >= 0")
    x = _ZETA[alpha] * g ** (2.0 / 3.0)
    return sum(c * x**p for p, c in zip(powers[:n_terms], coeffs[:n_terms]))


def puiseux_energy(g: float, n_terms: int = 3, alpha: int = 0) -> complex:
    """Threshold energy of branch alpha through g^(8/3) (1 to 3 nonzero terms)."""
    return _series("energy", g, n_terms, alpha)


def puiseux_lambda(g: float, n_terms: int = 5, alpha: int = 0) -> complex:
    """Threshold lam of branch alpha through g^(8/3) (1 to 5 nonzero terms)."""
    return _series("lambda", g, n_terms, alpha)


def puiseux_norm_d(g: float, n_terms: int = 3, alpha: int = 0) -> complex:
    """Threshold <d|psi>^2 of branch alpha through g^(2/3) (1 to 3 terms);
    diverges as g^(-2/3)."""
    if g == 0:
        raise DomainError("<d|psi>^2 diverges at g = 0 (leading term g^(-2/3))")
    return _series("norm_d", g, n_terms, alpha)


# ---------------------------------------------------------------------------
# Parameter scans
# ---------------------------------------------------------------------------

_SCAN_MAX_POINTS = 100_000  # eps_d points per spectrum_scan

_CLASS_ORDER = {
    StateClass.BOUND_LOWER: 0,
    StateClass.VIRTUAL: 1,
    StateClass.RESONANCE: 2,
    StateClass.ANTI_RESONANCE: 3,
}


@dataclass(frozen=True)
class ScanRow:
    eps_d: float
    state: DiscreteState


def spectrum_scan(g: float, eps_start: float, eps_stop: float, step: float) -> list[ScanRow]:
    """Classified near-edge triplet for each eps_d on a uniform grid from
    eps_start to eps_stop (all four arguments finite, eps_stop >= eps_start,
    step > 0, at most 100 000 grid points; DomainError otherwise).

    Output ordering is deterministic: ascending eps_d, then class order
    (bound, virtual, resonance, anti-resonance), then Im E and Re E.
    """
    for name, v in (("g", g), ("eps_start", eps_start), ("eps_stop", eps_stop), ("step", step)):
        if not np.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v}")
    if step <= 0:
        raise DomainError("step must be positive")
    if eps_stop < eps_start:
        raise DomainError(
            f"scan range is reversed: eps_stop = {eps_stop} < eps_start = {eps_start}"
        )
    with np.errstate(over="ignore"):
        points = np.floor((eps_stop - eps_start) / step + 1e-9) + 1.0
    if not points <= _SCAN_MAX_POINTS:
        raise DomainError(
            f"scan grid of {points:g} points exceeds the cap of {_SCAN_MAX_POINTS} points"
        )
    eps = eps_start + np.arange(int(points)) * step
    lams, Es = solve_quartic_lambda_raw(eps, g)
    rows: list[ScanRow] = []
    for i, e in enumerate(eps.tolist()):
        params = ModelParams(epsilon_d=e, g=g)
        _check_upper(params, lams[i, 3])
        tri = _classified(params, lams[i, :3], Es[i, :3])
        tri.sort(key=lambda s: (_CLASS_ORDER[s.state_class], s.energy.imag, s.energy.real))
        for s in tri:
            rows.append(ScanRow(eps_d=e, state=s))
    return rows
