"""Discrete spectrum: exact quartics, state classification, norms, Puiseux expansions.

The four discrete states are the roots of the lam-plane quartic

    f(lam) = -lam^4 - eps_d lam^3 - g^2 lam^2 + eps_d lam + 1,

equivalent to the energy quartic p(E) = (E - eps_d)^2 (E^2 - 4) - g^4 under
E = -lam - 1/lam.  f is solved in double precision about the threshold,
y = lam - 1, where the three roots that cluster at lam = 1 for small g form
the well-scaled cubic y^3 ~ -g^2/2 instead of losing two thirds of their
digits to the shift; p is solved about the dot level, v = E - eps_d (see
``solve_energy_quartic_centred``).  One root solver, ``_monic_roots``, serves
every polynomial solve in the package: seeds, then three |p|-guarded Newton
steps.  A quartic row with complex coefficients (a complex eps_d, as on the EP
sheet) is seeded by Ferrari's closed form and kept only if its roots pass a
certificate (disjoint inclusion discs from running error bounds); every other
row, and every row that fails, is seeded by one batched companion eigensolve.
One array pass (``_classify``) classifies and normalizes the roots of any
number of points: one for ``discrete_spectrum``, a grid for ``spectrum_scan``;
each complex root's sheet is decided against its inclusion radius (``_radius``).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import (
    BranchCutError,
    DegenerateNormalizationError,
    DomainError,
    LabelMatchingError,
    NumericalError,
)
from .model import ModelParams

ROOT_RESIDUAL_TOL = 1e-12

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

    The one root solver of the package, for any degree n = lower.shape[-1].
    A quartic row with a nonzero imaginary coefficient (a complex eps_d) is
    seeded by Ferrari's closed form (``_ferrari``), takes the three Newton
    steps of ``_polish`` and is kept only if ``_certified`` accepts it: four
    pairwise disjoint inclusion discs, so each holds exactly one root, each
    |p| within its rounding bound, and the residual check.  Every other row
    (real coefficients, other degrees, and a complex row that fails the
    certificate, such as one at an EP, where two roots coalesce) goes
    through ``_eig_roots``, the companion eigensolve plus the same Newton
    steps, with the bits it has when solved alone; only that path keeps real
    rows real, with complex roots in exactly conjugate pairs.  No row's
    roots depend on the other rows of the batch.  Raises NumericalError if
    a normwise residual |p(z)| / (max|c| max(1, |z|)^n) of an eigensolved
    row exceeds ROOT_RESIDUAL_TOL.
    """
    if lower.shape[-1] != 4 or not np.iscomplexobj(lower):
        return _eig_roots(lower)
    rows = lower.reshape(-1, 4)
    out = np.empty(rows.shape, complex)
    ok = np.any(rows.imag != 0, axis=1)  # the complex rows, until certified
    seeded = rows[ok]
    with np.errstate(all="ignore"):  # a non-finite seed fails the certificate
        z = _polish(seeded, _ferrari(seeded))[0]
        out[ok], ok[ok] = z, _certified(seeded, z)
    if not ok.all():
        out[~ok] = _eig_roots(rows[~ok])
    return out.reshape(lower.shape)


def _eig_roots(lower: np.ndarray) -> np.ndarray:
    """``_monic_roots`` by the eigensolve alone: the (..., n, n) companion
    matrices go through one batched eigensolve and each eigenvalue is
    polished by ``_polish``; NumericalError past ROOT_RESIDUAL_TOL."""
    n = lower.shape[-1]
    comp = np.zeros(lower.shape[:-1] + (n, n), dtype=lower.dtype)
    comp[..., 0, :] = -lower
    comp[..., np.arange(1, n), np.arange(n - 1)] = 1.0
    z, p = _polish(lower, np.linalg.eigvals(comp).astype(complex))
    worst = np.max(_residual(lower, z, p), initial=0.0)  # 0.0 for no rows
    if not worst <= ROOT_RESIDUAL_TOL:
        raise NumericalError(
            f"polynomial roots did not converge; worst residual {worst:.3e}",
            residual=float(worst),
        )
    return z


def _polish(lower, z):
    """(z, p(z)) after three Newton steps on the roots z of the monic rows
    lower, each step kept only if it lowers |p|; the steps stop early once
    no root improves, as a rejected step leaves z, p and p' unchanged."""
    p, dp = _horner(lower, z)
    # p / dp can overflow where dp is tiny (a subnormal g^2); an inf or nan
    # step never passes `better`, and the residual check still raises
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(3):
            z_new = z - np.divide(p, dp, out=np.zeros_like(p), where=dp != 0)
            p_new, dp_new = _horner(lower, z_new)
            # at a near-double root dp is rounding noise, and an unchecked step
            # can throw the root far off (seen in the energy quartic at g ~ 1e-4)
            better = np.abs(p_new) < np.abs(p)
            if not better.any():  # every later step would repeat this one
                break
            z = np.where(better, z_new, z)
            p = np.where(better, p_new, p)
            dp = np.where(better, dp_new, dp)
    return z, p


def _residual(lower, z, p):
    """Normwise residual of each row, max |p(z)| / (max|c| max(1, |z|)^n)."""
    scale = np.maximum(1.0, np.max(np.abs(lower), axis=-1, keepdims=True))
    return np.max(np.abs(p) / (scale * np.maximum(1.0, np.abs(z)) ** lower.shape[-1]), axis=-1)


def _horner(lower, z):
    """Monic polynomial and its derivative at z, coefficient rows broadcast over roots."""
    p, dp = np.ones_like(z), np.zeros_like(z)
    for k in range(lower.shape[-1]):
        dp = dp * z + p
        p = p * z + lower[..., k : k + 1]
    return p, dp


# the cube roots of unity, the complex pair exactly conjugate; the disc
# pairs (i, j), i < j, of four roots
_OMEGA = np.array([1.0, complex(-0.5, 0.75**0.5), complex(-0.5, -(0.75**0.5))])
_PAIRS = np.array([[0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]])
_SIGNS = np.array([1.0, -1.0])


def _cardano(P, Q):
    """Roots (m, 3) of the cubics w^3 + P w + Q for (m,) arrays P, Q: root k
    is u_k - P / (3 u_k), u_k = _OMEGA[k] u, u the principal cube root of the
    larger-modulus (cancellation-free) u^3 = -Q/2 +- sqrt(Q^2/4 + P^3/27)."""
    P, Q = np.asarray(P, complex), np.asarray(Q, complex)
    sq = np.sqrt(Q * Q / 4.0 + P**3 / 27.0)
    u3 = np.where(np.abs(sq - Q / 2.0) >= np.abs(sq + Q / 2.0), sq, -sq) - Q / 2.0
    u = (u3 ** (1.0 / 3.0))[:, None] * _OMEGA
    return u - np.divide(P[:, None], 3.0 * u, out=np.zeros_like(u), where=u != 0)


def _ferrari(lower):
    """The four roots of each monic quartic row of lower (m, 4) by Ferrari's
    closed form: seeds for ``_polish``, unchecked and possibly not finite."""
    h = lower[:, 0] / 4.0
    b, c, d = lower[:, 1], lower[:, 2], lower[:, 3]
    # the depressed quartic t^4 + p t^2 + q t + r in t = y + a/4
    p = b - 6.0 * h * h
    q = c - 2.0 * b * h + 8.0 * h**3
    r = d - c * h + b * h * h - 3.0 * h**4
    # its resolvent m^3 - (p/2) m^2 - r m + (p r/2 - q^2/8) is w^3 + P w + Q
    # in w = m - p/6
    w = _cardano(-r - p * p / 12.0, p * r / 3.0 - p**3 / 108.0 - q * q / 8.0)
    # of the three m, the one of largest |2m - p| = |2w - 2p/3| = |s|^2; then
    # t^4 + p t^2 + q t + r = (t^2 + m)^2 - (s t - q/(2s))^2
    s2 = 2.0 * w - (2.0 / 3.0) * p[:, None]
    s2 = s2[np.arange(len(s2)), np.argmax(np.abs(s2), axis=1)]
    s, m = np.sqrt(s2)[:, None], ((s2 + p) / 2.0)[:, None]
    # t^2 -+ s t + m +- q/(2s): the larger-modulus root, the other by Vieta
    B, C = s * _SIGNS, m - (q[:, None] / (2.0 * s)) * _SIGNS
    sq = np.sqrt(B * B - 4.0 * C)
    S = np.where(np.abs(B + sq) >= np.abs(B - sq), B + sq, B - sq)
    return np.concatenate([-S / 2.0, -2.0 * C / S], axis=1) - h[:, None]


def _radius(lower, z):
    """(rad, converged, p) for the roots z (..., k) of the monic rows lower
    (..., n), each row broadcast over its roots.  From p'/p = sum 1/(z - y_j),
    the disc |y - z_i| <= rad_i = n (|p(z_i)| + e_i) / (|p'(z_i)| - e'_i)
    holds a root where |p'(z_i)| > e'_i (rad_i = inf elsewhere), with e_i
    and e'_i running error bounds on the computed p and p' (Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., sec. 5.1, with complex
    products).  converged is |p(z_i)| <= e_i: z_i is a root of a polynomial
    within rounding of the row, so Newton has nothing left to gain."""
    n, az = lower.shape[-1], np.abs(z)
    y, dy = np.ones_like(z), np.zeros_like(z)
    ay, ady = np.ones(z.shape), np.zeros(z.shape)
    mu, nu = np.zeros(z.shape), np.zeros(z.shape)
    for k in range(n):
        dy, y = dy * z + y, y * z + lower[..., k : k + 1]
        # a step rounds by at most 4u (|z| |previous| + |new|) (u = 2^-53),
        # and the error in p so far carries into p'
        nu = az * (nu + ady) + mu + np.abs(dy)
        mu = az * (mu + ay) + np.abs(y)
        ady, ay = np.abs(dy), np.abs(y)
    e, slack = 2.0**-51 * mu, ady - 2.0**-51 * nu
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(slack > 0, n * (ay + e) / slack, np.inf), ay <= e, y


def _certified(lower, z):
    """True for each monic quartic row of lower (m, 4) whose roots z (m, 4)
    converged (``_radius``) in pairwise disjoint discs, one root in each,
    and pass the residual check."""
    rad, converged, p = _radius(lower, z)
    i, j = _PAIRS
    # 2^-48 covers the rounding of the radii and distances themselves
    apart = np.abs(z[:, i] - z[:, j]) > (1.0 + 2.0**-48) * (rad[:, i] + rad[:, j])
    return converged.all(axis=1) & apart.all(axis=1) & (
        _residual(lower, z, p) <= ROOT_RESIDUAL_TOL)


def _real_if_real(x) -> np.ndarray:
    x = np.asarray(x)
    return x.real if not np.any(np.imag(x)) else x.astype(complex)


def _lam_rows(eps_d, g: float) -> np.ndarray:
    """The monic rows (eps_d.shape + (4,)) of f in y = lam - 1 (``solve_quartic_lambda_raw``)."""
    d, g2 = _real_if_real(eps_d + 2.0), g * g
    r = np.empty(d.shape + (4,), d.dtype)  # filled by column: cheaper than np.stack
    r[..., 0], r[..., 1], r[..., 2], r[..., 3] = 2.0 + d, 3.0 * d + g2, 2.0 * (d + g2), g2
    return r


def solve_quartic_lambda_raw(eps_d, g: float) -> tuple[np.ndarray, np.ndarray]:
    """(lam, E) for all four roots of f(lam), batched over eps_d (complex
    allowed), in ascending Re E by a stable sort: the near-edge triplet, then
    the bound state above the band (its continuation for complex eps_d).

    Solved for y = lam - 1 with delta = eps_d + 2, where f becomes

        f = -y^4 - (2 + delta) y^3 - (3 delta + g^2) y^2 - 2 (delta + g^2) y - g^2,

    so the threshold triplet is the well-scaled cluster y^3 ~ -g^2/2 and no
    digits are lost to the shift.  E = -2 - y^2 / (1 + y) avoids the
    cancellation in -lam - 1/lam.  Output arrays have shape eps_d.shape + (4,).
    A NaN or infinite eps_d or g raises DomainError.
    """
    eps_d = np.asarray(eps_d)
    finite = np.isfinite(eps_d)
    if not (finite.all() and math.isfinite(g)):
        name, v = ("g", g) if finite.all() else ("eps_d", eps_d[~finite][0])
        raise DomainError(f"{name} = {v} is not finite")
    y = _monic_roots(_lam_rows(eps_d, g))
    lams, Es = 1.0 + y, -2.0 - y * y / (1.0 + y)
    order = np.argsort(Es.real, axis=-1, kind="stable")
    return np.take_along_axis(lams, order, axis=-1), np.take_along_axis(Es, order, axis=-1)


def solve_energy_quartic_centred(params: ModelParams) -> np.ndarray:
    """Four roots v = E - eps_d of the energy quartic for real eps_d and
    g = 0 or g^4 a normal double, with g <= 1e38, |eps_d| <= 1e50 and
    |eps_d| g <= 1e76 (DomainError outside that).  There the residual scale
    max|c| max(1, |v|)^4 ~ max(eps_d^2, g^4) max(|eps_d|, g)^4 of the
    companion solve stays below about 1e304.  Inside these bounds, far from
    the band, the companion solve fails its residual check and
    NumericalError is raised in a band of about 1e-3 |eps_d|^(1/2) <= g <=
    3e-12 |eps_d| (so only from |eps_d| ~ 3e17; measured on a quarter-decade
    grid), for example at (eps_d, g) = (1.3e25, 1e10), (1.3e30, 1e14),
    (1.3e45, 1e26) and (1e48, 1e28).

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
    if params.g > 1e38:
        raise DomainError(
            f"g = {params.g:.3e} is above the energy route's bound g <= 1e+38"
        )
    if abs(params.epsilon_d) > 1e50 or abs(params.epsilon_d) * params.g > 1e76:
        raise DomainError(
            f"eps_d = {params.epsilon_d}, g = {params.g:.3e} is outside the energy "
            f"route's bounds |eps_d| <= 1e+50 and |eps_d| g <= 1e+76"
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
        v0 = np.cbrt(g4 / a) * _OMEGA
        if abs(v0[0]) <= 1e-3 * abs(a):
            triplet = v0
            for _ in range(4):
                triplet = v0 * (a / (a + triplet)) ** (1.0 / 3.0)
            v = np.append(triplet, v[np.argmax(np.abs(v))])
    return v


# the classes by class code; in the near-edge triplet a bound state above the
# band (code 4) would order last
_CLASSES = (StateClass.BOUND_LOWER, StateClass.VIRTUAL, StateClass.RESONANCE,
            StateClass.ANTI_RESONANCE, StateClass.BOUND_UPPER)


def _cmul(a, b):
    """CPython's complex product (``_Py_c_prod``) of (re, im) pairs of arrays."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cdiv(a, b):
    """CPython's complex quotient a / b (``_Py_c_quot``, Smith's rule) of
    (re, im) pairs of arrays, b nonzero."""
    s = np.abs(b[0]) >= np.abs(b[1])
    p, q = np.where(s, b[0], b[1]), np.where(s, b[1], b[0])
    ratio = q / p
    denom = p + q * ratio
    re = np.where(s, a[0] + a[1] * ratio, a[0] * ratio + a[1])
    im = np.where(s, a[1] - a[0] * ratio, a[1] * ratio - a[0])
    return re / denom, im / denom


def _classify(g: float, eps: np.ndarray, lams: np.ndarray, Es: np.ndarray, rad: np.ndarray):
    """Class codes (indices into ``_CLASSES``), psi0_sq and psid_sq, each
    (n, 4), of the roots (lam, E) of n points: eps (n,) holds eps_d, each
    row of lams, Es (n, 4) is in ascending Re E and rad (n, 4) holds each
    root's error radius (``_radius`` on its point's rows of f in y = lam - 1).

    A root is classified by sheet (|lam| vs 1) and reality, Im lam == 0 (a
    real row's eigensolve returns real roots and exactly conjugate pairs):

        |lam| < 1, lam real > 0  -> bound state below the band (first sheet)
        |lam| < 1, lam real < 0  -> bound state above the band
        |lam| > 1, lam real      -> virtual (anti-bound) state
        |lam| > 1, Im E < 0      -> resonance
        |lam| > 1, Im E > 0      -> anti-resonance

    f(+-1) = -g^2, so for g > 0 a real root is never on the cut and |lam|
    against 1 places it however close to the circle it lies (at eps_d = -2
    the bound state above the band has 1 - |lam| ~ g^2/8); only lam = +-1
    is.  A complex root's sheet is decided where ||lam| - 1| exceeds its
    radius, and is undecided (on the cut) otherwise.

    psi0_sq = g^2 lam^2 / D and psid_sq = (1 - lam^2)^2 / D with
    D = g^2 lam^2 (1 + lam^2) + (1 - lam^2)^3, so that the bi-orthogonal
    normalization (1 + lam^2) psi0_sq + (1 - lam^2) psid_sq = 1 holds
    identically; no square-root branch is chosen.  The products and
    quotients are CPython's, taken on the real and imaginary parts (numpy's
    complex arithmetic rounds differently), |lam| is ``np.hypot`` and the
    results are set by part, so every entry is the Python ``complex``
    expression's to the bit, signed zeros included.

    The first rejected point raises its error.  First the root of largest
    Re E must be the bound state above the band, real with -1 < lam < 0:
    DomainError where its shift from -1 is below double precision,
    LabelMatchingError otherwise.  Then each root in turn raises
    BranchCutError on the cut (naming |lam| - 1 and the radius),
    DomainError if it is a non-real first-sheet root and
    DegenerateNormalizationError if |D| < 1e-300.
    """
    mod = np.hypot(lams.real, lams.imag)
    real = lams.imag == 0
    up = lams[:, 3].real
    upper = real[:, 3] & (-1.0 < up) & (up < 0.0)
    z = (lams.real, lams.imag)
    z2 = _cmul(z, z)
    one_m = (1.0 - z2[0], 0.0 - z2[1])
    num0, numd = _cmul(_cmul((g**2, 0.0), z), z), _cmul(one_m, one_m)
    D = _cmul(num0, (1.0 + z2[0], 0.0 + z2[1]))
    cube = _cmul(_cmul((1.0, 0.0), one_m), numd)  # one_m**3
    D = (D[0] + cube[0], D[1] + cube[1])
    inside = mod < 1.0
    cut = np.where(real, mod == 1.0, ~(np.abs(mod - 1.0) > rad))
    unphysical = inside & ~real
    degenerate = np.hypot(*D) < 1e-300
    bad = ~upper | (cut | unphysical | degenerate).any(axis=1)
    if bad.any():  # raise the first rejected point's error
        i = int(np.argmax(bad))
        if not upper[i]:
            lam, e = complex(lams[i, 3]), eps[i].item()
            # for 0 < g and eps_d < 2 the true root lies in (-1, 0); y = lam - 1 ~ -2
            # is stored with a spacing of 2^-52, so a shift from -1 below about
            # 2^-53 rounds to lam = -1 or past it
            if g > 0.0 and e < 2.0 and lam.real <= -1.0:
                shift = g**2 / (4.0 - 2.0 * e)
                raise DomainError(
                    f"the bound state above the band, lam = -1 + g^2/(4 - 2 eps_d) + O(g^4), "
                    f"rounds to lam = {lam.real!r} at g = {g:.3e}, "
                    f"eps_d = {e}: its shift {shift:.3e} is below the about "
                    f"1.1e-16 that double precision resolves (g >~ 3e-8 at eps_d = -2)"
                )
            raise LabelMatchingError(
                f"the root of largest Re E, lam = {lam}, is not a bound state "
                f"above the band (need real -1 < lam < 0)"
            )
        for lam, on_cut, off_real, zero_d, r in zip(
                lams[i].tolist(), cut[i], unphysical[i], degenerate[i], rad[i]):
            if on_cut:
                raise BranchCutError(
                    f"the sheet of lam = {lam} is undecided: |lam| - 1 = {abs(lam) - 1.0:.3e} "
                    f"is within its root error radius {r:.3e}", roots=(lam, 1 / lam))
            if off_real:
                raise DomainError(f"non-real first-sheet root {lam} is unphysical")
            if zero_d:
                raise DegenerateNormalizationError(
                    f"normalization denominator vanished at lam = {lam}"
                )
    code = np.where(inside, np.where(z[0] > 0, 0, 4),
                    np.where(real, 1, np.where(Es.imag < 0, 2, 3)))
    psi0, psid = np.empty((2,) + lams.shape, complex)
    psi0.real, psi0.imag = _cdiv(num0, D)
    psid.real, psid.imag = _cdiv(numd, D)
    return code, psi0, psid


def _coupled(g: float) -> None:
    """DomainError at g = 0: the dot decouples and lam = +-1 lie on the cut."""
    if g == 0.0:
        raise DomainError("g = 0 is outside the domain (need g > 0): the dot decouples "
                          "and lam = +-1, the band edges, are roots on the cut")


def discrete_spectrum(params: ModelParams) -> list[DiscreteState]:
    """All four discrete states in ascending Re E, classified and normalized:
    the near-edge triplet, then the bound state above the band.

    All four residues of the dot Green's function, for sums that must be
    exact (they add up to 1).  Same domain as ``near_edge_triplet`` (g > 0).  The
    states come from the one classify-and-normalize pass that also serves
    ``spectrum_scan``, on a block of one point.  It raises BranchCutError
    where a complex root's ||lam| - 1| does not exceed its error radius: on
    a grid of 400 log-spaced g in [1e-9, 1e2] by 200 eps_d in [-3, 3], only
    for g <= 4.5e-7.  E is accurate to about 1e-16 absolute (2.2e-15 at
    (eps_d, g) = (1.5, 1e-6)), not relative: an in-band resonance at
    g <~ 1e-5 has Im E to about 1e-16 / |Im E| relative, 7e-6 at
    (-1.9, 1e-6) and 1.8e-4 at (1.5, 1e-6).
    """
    _coupled(params.g)
    eps = np.array([params.epsilon_d])
    lams, Es = solve_quartic_lambda_raw(eps, params.g)
    rad = _radius(_lam_rows(eps, params.g), lams - 1.0)[0]
    code, psi0, psid = _classify(params.g, eps, lams, Es, rad)
    return [DiscreteState(z, E, _CLASSES[c], p0, pd) for z, E, c, p0, pd in zip(
        lams[0].tolist(), Es[0].tolist(), code[0].tolist(), psi0[0].tolist(), psid[0].tolist())]


def near_edge_triplet(params: ModelParams) -> list[DiscreteState]:
    """The three states near the lower band edge, classified and normalized.

    The first three of ``discrete_spectrum``, the roots of smallest Re E.
    Needs g > 0 (DomainError at g = 0).  Raises LabelMatchingError unless
    the fourth root is real with -1 < lam < 0.  That root is lam = -1 + g^2/(4 - 2 eps_d)
    + O(g^4), which double precision resolves only while the shift
    g^2/(4 - 2 eps_d) exceeds about 1.1e-16 (g >~ 3e-8 near eps_d = -2,
    measured); below that it rounds to -1 and DomainError is raised.
    """
    return discrete_spectrum(params)[:3]


# Branch phase zeta_alpha = e^{2 pi i alpha / 3} of the threshold triplet:
# 0 bound, -1 resonance, +1 anti-resonance.  The three branches are the three
# cube roots of g^2.
_ZETA = {0: 1.0, -1: complex(_OMEGA[2]), 1: complex(_OMEGA[1])}


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


def _checked_int(value, name: str, least: int | None = None) -> int:
    """value as an int; DomainError naming it unless it is an integer (an
    integral float such as 3.0 counts), and >= least where least is given.
    A numpy scalar is named as its Python value (0.5, not np.float64(0.5))."""
    if isinstance(value, np.generic):
        value = value.item()
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value or (least is not None and n < least):
        need = "an integer" if least is None else f"an integer >= {least}"
        raise DomainError(f"{name} = {value!r} outside the domain: need {need}")
    return n


def eigenstate_profile(state: DiscreteState, x: int) -> complex:
    """Wave-function component <x|psi> = lam^|x| <0|psi> at the integer site
    x (x = 0 gives <0|psi>; a non-integer x raises DomainError).

    The signed <0|psi> is the principal square root of psi0_sq; this global
    convention is the only place a square-root branch is taken.  A
    second-sheet state grows as |lam|^|x|, which leaves the doubles past
    |x| ~ log(1.8e308) / log|lam|; DomainError where the component does.
    """
    psi0 = cmath.sqrt(state.psi0_sq)
    try:
        value = psi0 * state.lam ** abs(_checked_int(x, "x"))
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
    n_terms = _checked_int(n_terms, "n_terms")
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
    """Threshold energy of branch alpha through g^(8/3) (an integer 1 to 3
    nonzero terms)."""
    return _series("energy", g, n_terms, alpha)


def puiseux_lambda(g: float, n_terms: int = 5, alpha: int = 0) -> complex:
    """Threshold lam of branch alpha through g^(8/3) (an integer 1 to 5
    nonzero terms)."""
    return _series("lambda", g, n_terms, alpha)


def puiseux_norm_d(g: float, n_terms: int = 3, alpha: int = 0) -> complex:
    """Threshold <d|psi>^2 of branch alpha through g^(2/3) (an integer 1 to 3
    terms); diverges as g^(-2/3)."""
    if g == 0:
        raise DomainError("<d|psi>^2 diverges at g = 0 (leading term g^(-2/3))")
    return _series("norm_d", g, n_terms, alpha)


# ---------------------------------------------------------------------------
# Parameter scans
# ---------------------------------------------------------------------------

_SCAN_MAX_POINTS = 100_000  # eps_d points per spectrum_scan


class SpectrumScan(NamedTuple):
    """The states of a ``spectrum_scan`` as flat arrays, three per eps_d point."""

    eps_d: np.ndarray  # float
    state_class: np.ndarray  # str, the StateClass value
    energy: np.ndarray  # complex, like lam, psi0_sq and psid_sq
    lam: np.ndarray
    psi0_sq: np.ndarray
    psid_sq: np.ndarray


def spectrum_scan(g: float, eps_start: float, eps_stop: float, step: float) -> SpectrumScan:
    """Classified near-edge triplet for each eps_d on a uniform grid from
    eps_start to eps_stop (all four arguments finite, g > 0, eps_stop >=
    eps_start, step > 0, at most 100 000 grid points; DomainError otherwise).

    Output ordering is deterministic: ascending eps_d, then class order
    (bound, virtual, resonance, anti-resonance), then Im E and Re E.  The
    whole grid is classified and normalized in one pass, the one that
    ``discrete_spectrum`` takes on a single point, so each entry is that
    function's state at its eps_d, and a rejected grid point raises its
    error, for the first such point.
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
    ModelParams(epsilon_d=eps_start, g=g)  # g >= 0
    _coupled(g)
    with np.errstate(over="ignore"):
        points = np.floor((eps_stop - eps_start) / step + 1e-9) + 1.0
    if not points <= _SCAN_MAX_POINTS:
        raise DomainError(
            f"scan grid of {points:g} points exceeds the cap of {_SCAN_MAX_POINTS} points"
        )
    eps = eps_start + np.arange(int(points)) * step
    lams, Es = solve_quartic_lambda_raw(eps, g)
    code, psi0, psid = _classify(g, eps, lams, Es, _radius(_lam_rows(eps, g), lams - 1.0)[0])
    order = np.lexsort((Es[:, :3].real, Es[:, :3].imag, code[:, :3]), axis=-1)

    def ordered(x):  # the triplet, columns 0-2
        return np.take_along_axis(x[:, :3], order, axis=1).ravel()

    classes = np.array([c.value for c in _CLASSES])
    return SpectrumScan(np.repeat(eps, 3), classes[ordered(code)], ordered(Es),
                        ordered(lams), ordered(psi0), ordered(psid))
