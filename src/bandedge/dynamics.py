"""Survival probability of the excited dot by three independent routes.

Routes
------
1. ``survival_lattice_oracle``: brute force.  Truncate the chain to sites
   -N..N and sum residues over its exact spectrum: eigenvalues from the
   secular equation, one bracketed root between each pair of adjacent chain
   poles and one beyond each end (no matrix is formed), dot weights as
   closed-form residues of the dot Green's function.  Spectrally exact for
   all t at once; the guard N > 2 max(t) + 10 keeps the wavefront (group
   velocity at most 2) from returning within the requested window.  The
   phase sum over a uniform grid of K times is a matrix product of two
   tables of powers, filled by doubling from three exponentials per level.
   It runs over blocks of 1024 levels, so besides the spectrum itself the
   tables take one block's 16 (B + K/B) bytes per level, B ~ sqrt(K): 164 MB
   peak at N = 400 012 and K = 10 001, where one product over all levels
   took 1.29 GB.
2. ``survival_bessel_sum``: the exact pole/branch-cut representation.  Each
   of the four discrete states j contributes

       <d|psi_j>^2 e^{-i E_j t} (1 - i lam_j I_j(t)),
       I_j(t) = int_0^t e^{i E_j t'} J1(2t') / t' dt',

   and the four residues <d|psi_j>^2 sum to 1.
3. Analytic laws: the t^{3/2} law of the intermediate window
   1 < t << g^(-4/3), a closed-form near-edge law (Faddeeva functions of the
   three threshold roots) that holds over the whole decay and reduces to the
   t^{3/2} law at small t and to the pole-plus-t^{-3/2}-tail form at large t,
   and the exact asymptotic plateau.

Numerical stability of route 2: the four states share one grid of panels
of width h with edges o + m h up to T, the first edge at or past
max(max t, 25), and each panel integral is referenced to a contractive
edge, so no exponentially large intermediate ever appears.  The origin o
is 0 or fmod(min t, h); for o > 0 the interval [0, o] is one leading
panel, which starts the forward scans and ends the backward one.  h and
the n-point Gauss-Legendre rule of every panel are chosen once per call by
``_panel_rule``: each power of two h takes the fewest n <= 17 that its
remainder bound admits for max |E|, and the origin of ``_grid_origin``
(the one that takes fewer J1 nodes, 0 on a tie, so a window from t = 0
keeps o = 0); of these widths the call takes the one that evaluates the
fewest J1 nodes at its times, counting the grid, a partial panel per time
off the grid and the spot check.  At threshold (|E| ~ 2) that is width 4
with 17 nodes for the beat grid of one time every 4 units, every time an
edge from o = fmod(t_0, 4), 1/2 with 8 for a dt = 1/2 window (every time
on an edge) and 1 with 10 for integer times; far from the band only
narrower widths meet the bound: (1/4, 13) at |E| = 32, h <= 1/8 from
|E| = 65.6.  Times are bounded by t <= 6e5, up to which J1(2t) is
documented, and the grid by 2.4e6 panels of width h.  A requested time is
read from the left edge of its panel plus the partial panel up to it; it
lies on an edge only if it equals fl(o + m h) bit for bit.  Grid and
partial panels alike are referenced to their left edge for an
anti-resonance and to their right edge otherwise, so a node mid + half x_j
lies half (x_j +- 1) from its
reference edge: its phases come from one table per distinct half-width,
with no exp per panel, and J1 is evaluated once per node for all states.
Each panel is contracted with its gathered table on its own, so its value
does not depend on which other panels or times the call holds.  The
running integral of every other state is then a scan with the constant
step e^{-iEh}, |e^{-iEh}| <= 1: within blocks of 64 panels one product
with the lower-triangular Toeplitz matrix of its powers, each the exp of
an exactly split argument -iEhm (512 rad at h = 4, |E| = 2), and block
starts advanced by the one step e^{-64 iEh}.  h is a power of two, so E h
is exact and the phases of all blocks agree.  The anti-resonance class of
``spectrum._classify`` (second sheet, Im E > 0, where e^{-iEt} grows) is
the growing set, rewritten through the tail integral

    e^{-iEt} (1 - i lam I(t)) = i lam e^{-iEt} int_t^inf e^{iEt'} J1(2t')/t' dt'

(the infinite-time bracket vanishes identically, a closed-form Laplace
identity) and scanned backwards with step e^{iEh} from T.  The start value
at T >= 25 is 16 terms of the Hankel expansion of J1, each integrated
exactly through F_a(z) = e^z E_a(z):

    int_T^inf e^{iE(s - T)} J1(2s)/s ds
        = sum_{sigma = +-1} e^{2 i sigma T} sum_k c_k^sigma T^(-1/2-k)
          F_{3/2+k}(-i (E + 2 sigma) T),

so its cost does not depend on Im E; E + 2 is taken as -(lam - 1)^2/lam,
which keeps its full relative precision at threshold.  The truncation (the
last Hankel term plus the F truncation errors) must stay below 1e-16 of the
tail, and the backward scan, which ends at t = 0, must meet i lam W(0) = 1
to 1e-12; otherwise a QuadratureError is raised.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .bessel import bessel_j, j1_over_t
from .ep import _coalesced
from .errors import (
    ConsistencyError,
    DomainError,
    LatticeTruncationError,
    NumericalError,
    QuadratureError,
)
from .model import ModelParams
from .quadrature import _leggauss, adaptive_quad, panel_nodes
from .spectrum import _CLASSES, StateClass, _checked_int, _coupled, _monic_roots, _states

WAVEFRONT_MARGIN = 10.0
_PANEL_TOL = 1e-10
# Bessel-route panels: a power-of-two width whose Gauss-Legendre remainder
# bound is at most _RULE_TOL per unit width with at most _RULE_MAX nodes, and
# at most _MAX_PANELS of them (as many as width 1/4 gave at 6e5); of these
# widths a call takes the one that evaluates the fewest J1 nodes at its times
_RULE_TOL = 1e-17
_RULE_MAX = 17
_MAX_PANELS = 2_400_000
# the largest log(h (e_max + 2)) at which n = 1.._RULE_MAX nodes meet the bound
# of ``_panel_rule``, (log _RULE_TOL - log c_n) / (2n) with the Gauss
# coefficient c_n = (n!)^4 / ((2n + 1) ((2n)!)^3); it increases with n
_RULE_LOG_RATE = tuple(
    (math.log(_RULE_TOL)
     - math.log(math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3))) / (2 * n)
    for n in range(1, _RULE_MAX + 1)
)
_KN_TOL = 1e-12  # absolute tolerance of kn_quadrature
# the Bessel route's last time: bessel.py documents J1(x) to x = 2t = 1.2e6
_BESSEL_T_MAX = 6e5
_G2_MIN = np.finfo(float).tiny  # smallest g^2 the secular solve accepts, besides 0
_VERIFY_PANELS = 512
_BLOCK_PANELS = 4096  # panels per vectorized block, so temporaries stay one size
_ORACLE_LEVELS = 1024  # lattice levels per block of the oracle's phase sum
_SCAN_BLOCK = 64  # steps per Toeplitz block of the panel scan
_IDENTITY_TOL = 1e-12  # budget on |i lam W(0) - 1| of a growing state
# a growing state's tail past max(t, _TAIL_START) is a Hankel series with
# _HANKEL_TERMS terms; at s >= 25 the 16th is below 1e-19 of the first
_TAIL_START = 25.0
_HANKEL_TERMS = 16
_TAIL_TOL = 1e-16  # truncation budget, relative to the tail
# F_a(z): power-series terms for |z| < 1 (the last is below 1e-23), and the
# continued fraction's relative stopping step and depth cap otherwise
_SERIES_TERMS = 24
_CF_STOP = 1e-18
_CF_MAX_DEPTH = 1000
# lattice oracle: a secular root is converged within _ROOT_ULPS ulps; bisection
# alone would need about 90 sweeps to get there from a whole bracket
_ROOT_ULPS = 4.0
_MAX_SWEEPS = 100
_WEIGHT_SUM_TOL = 1e-13  # budget on |sum_m w_m - 1| of the dot weights
_PI_LO = 1.2246467991473532e-16  # pi - fl(pi)
# D(z) = sum_k (-z)^k / (2k + 3)!, highest power first; 14 terms for |z| <= 4,
# each 1/(2k + 3)! correctly rounded from the exact integer factorial
_D_SERIES = [(-1.0) ** k / float(math.factorial(2 * k + 3)) for k in range(13, -1, -1)]


class Method(Enum):
    LATTICE_ORACLE = "LatticeOracle"
    BESSEL_SUM = "BesselSum"
    INTERMEDIATE_LAW = "IntermediateLaw"
    LONG_TIME_LAW = "LongTimeLaw"


@dataclass(frozen=True)
class SurvivalTrace:
    times: np.ndarray
    amplitude: np.ndarray
    probability: np.ndarray
    method: Method

    @classmethod
    def from_amplitude(cls, times, amplitude, method: Method) -> SurvivalTrace:
        """Trace with P = |A|^2 from the amplitude A on the given times."""
        return cls(
            times=np.asarray(times, dtype=float),
            amplitude=np.asarray(amplitude, dtype=complex),
            probability=np.abs(np.asarray(amplitude)) ** 2,
            method=method,
        )


def _checked_times(t, positive: bool = False, upper: float = math.inf) -> np.ndarray:
    """t as a float array; DomainError naming the first time that is not
    finite and >= 0 (> 0 with positive) and <= upper."""
    t = np.asarray(t, dtype=float)
    with np.errstate(invalid="ignore"):
        ok = np.isfinite(t) & ((t > 0.0) if positive else (t >= 0.0)) & (t <= upper)
    if not ok.all():
        raise DomainError(
            f"t = {float(t[~ok][0])} outside the domain: every time must be finite "
            f"and {'> 0' if positive else '>= 0'}"
            + (f" and <= {upper:g}" if upper < math.inf else "")
        )
    return t


def _checked_grid(times, positive: bool = False, upper: float = math.inf) -> np.ndarray:
    """times through ``_checked_times``; DomainError unless they are 1-D and
    strictly increasing."""
    times = _checked_times(times, positive, upper)
    if times.ndim != 1:
        raise DomainError(f"times must be 1-D, got shape {times.shape}")
    if np.any(np.diff(times) <= 0):
        raise DomainError("times must be strictly increasing")
    return times


def _grid_step(times):
    """(t_0, dt = (t_last - t_0) / (K - 1)) of K times from ``_checked_grid``;
    DomainError if a t_k is more than 16 ulps of t_last off t_0 + k dt."""
    K = times.size
    t0 = times[0] if K else 0.0
    dt = (times[-1] - t0) / (K - 1) if K > 1 else 0.0
    off_grid = np.abs(times - (t0 + np.arange(K) * dt))
    if K and off_grid.max() > 16.0 * np.finfo(float).eps * times[-1]:
        raise DomainError(
            f"times must be a uniform grid; t_k is {off_grid.max():.3g} off t_0 + k dt"
        )
    return t0, dt


def _split(a):
    """Dekker's split of a into a 26-bit and a 27-bit half, a = hi + lo."""
    c = 134217729.0 * a  # 2^27 + 1
    hi = c - (c - a)
    return hi, a - hi


def _two_product(a, b):
    """p = fl(a b) and its rounding error a b - p, exactly (Dekker)."""
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


# ---------------------------------------------------------------------------
# Route 1: truncated-lattice oracle
# ---------------------------------------------------------------------------

def _pole(j, s, eps):
    """sin, cos and detuning 2 cos phi_j - eps of the chain poles
    phi_j = j pi / (2s), corrected to first order for the rounding of phi_j.

    The rounding delta = j pi / (2s) - fl(j pi / (2s)) is exact to a few
    ulps of itself: pi / (2s) = h + h_err from pi's two parts, and j h
    splits exactly as j h_1 + j h_2 with h_1 the upper 26 bits of h.  The
    detuning is taken from the dot level's own angle phi_e, clipped to the
    band edges, as
        (2 cos phi_e - eps) - 4 sin((phi_j + phi_e)/2) sin((phi_j - phi_e)/2);
    the first term is shared by every pole, and the product keeps its
    relative precision however close the pole is to eps, so no rounding of
    one pole's detuning moves its roots against the others'.
    """
    h = np.pi / (2 * s)
    h1, h2 = _split(h)
    h_err = ((np.pi - 2 * s * h1) - 2 * s * h2 + _PI_LO) / (2 * s)
    phi = j * h
    delta = (j * h1 - phi) + j * h2 + j * h_err
    phi_e = np.arccos(np.clip(0.5 * eps, -1.0, 1.0))
    half_sum, half_diff = 0.5 * (phi + phi_e + delta), 0.5 * ((phi - phi_e) + delta)
    detuning = (2.0 * np.cos(phi_e) - eps) - 4.0 * np.sin(half_sum) * np.sin(half_diff)
    sp, cp = np.sin(phi), np.cos(phi)
    return sp + cp * delta, cp - sp * delta, detuning


def _angle(theta, pole, s):
    """sin phi, cos phi, 2 cos phi - eps and |cos phi_j - cos phi| at
    phi = phi_j + theta / s, from the pole's terms (see ``_pole``).

    phi itself is never formed: the offset psi = theta / s enters through
    cos phi = cos phi_j - d, d = cos phi_j (1 - cos psi) + sin phi_j sin psi,
    so the detuning's rounding is the pole's own, shared by the roots on
    either side of it, plus that of the small d.
    """
    sp, cp, c0 = pole
    psi = theta / s
    sin_psi, vers = np.sin(psi), 2.0 * np.sin(0.5 * psi) ** 2
    d = cp * vers + sp * sin_psi
    return sp - sp * vers + cp * sin_psi, cp - d, c0 - 2.0 * d, np.abs(d)


def _secular(theta, pole, g2, s):
    """F = a sin(theta) + g^2 cos(theta), a = 2 sin phi (2 cos phi - eps), at
    phi = phi_j + theta / s; dF/dtheta; and the scale of F's rounding error,
    in units of the machine epsilon."""
    sin_phi, cos_phi, c, d = _angle(theta, pole, s)
    a = 2.0 * sin_phi * c
    da = 2.0 * cos_phi * c - 4.0 * sin_phi**2
    st, ct = np.sin(theta), np.cos(theta)
    size = np.abs(a * st) + g2 * np.abs(ct) + 4.0 * np.abs(sin_phi * st) * d
    return a * st + g2 * ct, da * st / s + a * ct - g2 * st, size


def _bracket_roots(j, eps, lo, hi, g2, s):
    """Eigenvalues 2 cos phi and dot weights from the roots theta in [lo, hi]
    of F (see ``_secular``), one per bracket from the pole phi_j, where
    F(lo) > 0 > F(hi) and hi = pi, so that the bracket ends at the pole
    phi_(j+2).

    Safeguarded Newton from theta_0 = pi/2 + arctan(a / g^2), with a taken
    at the middle of the bracket, iterating only the brackets still open.
    A root that starts past pi/2 is iterated as theta - pi from phi_(j+2),
    where F changes sign and a root close to that pole keeps its digits.
    A root is converged once its Newton step is within _ROOT_ULPS ulps of
    theta on the slope that F crosses its root with, F is rounding noise or
    the bracket has closed to as many ulps; that test comes before the
    bracket check, which bisects a step that leaves the bracket.  (A tiny
    step on the other slope points at no root, as at a pole where
    |F| = g^2 is below an ulp of the slope.)  The root then gets one Newton
    step in its offset from the nearest pole, which keeps that offset, and
    so the weight, to full relative precision.
    """
    pole = _pole(j, s, eps)
    sin_mid, _, c_mid, _ = _angle(0.5 * (lo + hi), pole, s)
    a_mid = 2.0 * sin_mid * c_mid
    theta = np.arctan2(g2, -a_mid)  # pi/2 + arctan(a / g^2)
    # sign of F on the upper side of its root: -1 from phi_j, +1 from phi_(j+2)
    rise = np.where(theta > 0.5 * np.pi, 1.0, -1.0)
    j = j + rise + 1.0
    lo, hi = lo - np.pi * (rise > 0), hi - np.pi * (rise > 0)  # exact: lo >= pi/2 or 0
    theta = np.clip(np.where(rise > 0, -np.arctan2(g2, a_mid), theta), lo, hi)
    pole = _pole(j, s, eps)
    open_ = np.arange(theta.size)
    tiny = _ROOT_ULPS * np.finfo(float).eps
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(_MAX_SWEEPS):
            if not open_.size:
                break
            th, r = theta[open_], rise[open_]
            F, dF, size = _secular(th, [x[open_] for x in pole], g2, s)
            step = F / dF
            new = th - step
            above = r * F < 0.0
            lo[open_] = l = np.where(above, th, lo[open_])
            hi[open_] = h = np.where(above, hi[open_], th)
            ulps = tiny * np.abs(th)
            small = (np.abs(step) <= ulps) & (r * dF > 0.0)
            done = small | (np.abs(F) <= tiny * size) | (h - l <= ulps)
            theta[open_] = np.where(done | ((l < new) & (new < h)), new, 0.5 * (l + h))
            open_ = open_[~done]
    if open_.size:
        raise NumericalError(
            f"{open_.size} of {theta.size} chain-pole brackets unconverged "
            f"after {_MAX_SWEEPS} sweeps"
        )
    far = np.where(np.abs(theta) > 0.5 * np.pi, np.sign(theta), 0.0)
    j = j + 2.0 * far
    pole = _pole(j, s, eps)
    theta = theta - np.pi * far  # exact: |theta| >= pi/2
    F, dF, _ = _secular(theta, pole, g2, s)
    theta = theta - F / dF
    sin_phi, cos_phi, _, _ = _angle(theta, pole, s)
    S, C = np.sin(theta), np.cos(theta)
    bracket = s * sin_phi + S * C * cos_phi
    # near the band edge 2 - 4 sin^2(phi/2) rounds lam once; for phi < 0.45 the
    # rounding of phi itself costs less than that
    half = 0.5 * (j * np.pi / (2 * s) + theta / s)
    lam = np.where(cos_phi > 0.9, 2.0 - 4.0 * np.sin(half) ** 2, 2.0 * cos_phi)
    return lam, S**2 / (S**2 + g2 * bracket / (4.0 * sin_phi**3))


def _sinc(z):
    """sin(sqrt z) / sqrt z for real z, continued to z < 0 (sinh)."""
    if z == 0.0:
        return 1.0
    r = np.sqrt(abs(z))
    return (np.sin(r) if z > 0.0 else np.sinh(r)) / r


def _cos(z):
    """cos(sqrt z) for real z, continued to z < 0 (cosh)."""
    r = np.sqrt(abs(z))
    return np.cos(r) if z >= 0.0 else np.cosh(r)


def _series_d(z):
    """(sqrt z - sin sqrt z) / z^(3/2) for |z| <= 4, by its power series."""
    total = 0.0
    for c in _D_SERIES:
        total = total * z + c
    return total


def _edge_terms(q, s):
    """2 - lam = 4 sin^2(phi/2), G(lam) and -G'(lam) at q = phi^2 for the
    folded chain, continued to a bound state phi = i kappa at q = -kappa^2,
    and -dlam/dq = sin phi / phi.

    Both G = tan(s phi) / (2 sin phi) and -G' = sec^2(s phi) (s sin phi
    - sin(2 s phi) cos(phi) / 2) / (4 sin^3 phi) are even in phi.  For
    |s phi| <= 1 the numerator is split into
    phi^3 [8 s^3 D(4 s^2 q) - 2 s D(q) + s sinc(2 s phi) sinc^2(phi/2)] / 2,
    D(z) = (sqrt z - sin sqrt z) / z^(3/2) as its power series, so nothing
    cancels as q -> 0; beyond, a bound state's terms are taken through
    tanh and sech of s kappa, which never overflow.
    """
    u2 = s * s * q
    if u2 >= -1.0:
        cu, sq = _cos(u2), _sinc(q)
        G = 0.5 * s * _sinc(u2) / (cu * sq)
        half = _sinc(0.25 * q) ** 2
        num = 8.0 * s**3 * _series_d(4.0 * u2) - 2.0 * s * _series_d(q)
        num += s * _sinc(4.0 * u2) * half
        return q * half, G, num / (8.0 * cu * cu * sq**3), sq
    kappa = np.sqrt(-q)
    x = np.exp(-s * kappa)
    tanh, sech2 = (1.0 - x * x) / (1.0 + x * x), (2.0 * x / (1.0 + x * x)) ** 2
    sh, ch = np.sinh(kappa), np.cosh(kappa)
    dG = (tanh * ch / sh - s * sech2) / (4.0 * sh) / sh
    return -4.0 * np.sinh(0.5 * kappa) ** 2, tanh / (2.0 * sh), dG, sh / kappa


def _edge_root(eps, g2, s):
    """The eigenvalue above the highest chain pole and its dot weight, or None
    when it lies within (phi_1/2, phi_1) of the pole phi_1 = pi/(2s).

    The secular function lam - eps - g^2 G(lam) increases with lam; at
    lam = 2, where G = s/2, its sign tells a band state (phi in (0, phi_1))
    from a bound state (phi = i kappa).  The root is found by safeguarded
    Newton in q = phi^2, which stays regular through phi = 0, the band
    edge.  A band state in the upper half of the interval is left to the
    pole-offset solve, since there q cannot hold its distance to the pole.
    """
    h0 = 2.0 - eps - 0.5 * g2 * s
    if h0 > 0.0:
        phi = 0.25 * np.pi / s
        if 2.0 * np.cos(phi) - eps - 0.5 * g2 / np.sin(phi) > 0.0:
            return None
        lo, hi = 0.0, phi * phi
    else:
        # G(lam) < 1 / (lam - 2) bounds lam - 2 = 4 sinh^2(kappa/2) by the
        # positive root of x^2 - (eps - 2) x - g^2, taken without cancellation
        x, r = eps - 2.0, np.hypot(eps - 2.0, 2.0 * np.sqrt(g2))
        gap = 0.5 * (x + r) if x > 0.0 else 2.0 * g2 / (r - x)
        lo, hi = -(2.0 * np.arcsinh(0.5 * np.sqrt(gap))) ** 2, 0.0
    tiny = _ROOT_ULPS * np.finfo(float).eps
    q = 0.0
    for _ in range(_MAX_SWEEPS):
        # lam - eps as (2 - eps) - (2 - lam), which keeps q's digits near q = 0
        gap, G, dG, sq = _edge_terms(q, s)
        h = (2.0 - eps) - gap - g2 * G
        step = -h / (sq * (1.0 + g2 * dG))
        if abs(step) <= tiny * abs(q) or abs(h) <= tiny * (abs(2.0 - eps) + abs(gap) + g2 * G):
            gap, _, dG, _ = _edge_terms(q - step, s)
            return 2.0 - gap, 1.0 / (1.0 + g2 * dG)
        lo, hi = (q, hi) if h > 0.0 else (lo, q)
        q -= step
        if not lo < q < hi:
            q = 0.5 * (lo + hi)
    raise NumericalError(f"outer root unconverged after {_MAX_SWEEPS} steps")


def lattice_spectrum(params: ModelParams, n_sites: int):
    """Eigenvalues (ascending) and dot weights |<d|m>|^2 of the truncated chain.

    The chain is reflection symmetric about site 0 and the dot couples only
    to the even sector, so the (2N+2)-dimensional problem folds exactly onto
    the tridiagonal matrix over (d, x0, even combinations x_k), with hopping
    -g, -sqrt(2), -1, -1, ...  The odd sector carries zero dot weight.

    No matrix is formed.  With the dot removed, the folded chain has the
    closed-form site-0 Green's function

        G(2 cos phi) = tan(s phi) / (2 sin phi),   s = N + 1,

    with poles at phi_j = j pi / (2s), j odd, and the N + 2 eigenvalues are
    the roots of the secular equation lam - eps_d - g^2 G(lam) = 0.  They
    strictly interlace the s poles: one in each of the s - 1 intervals
    (phi_j, phi_j + pi/s), one above the highest pole and one below the
    lowest.  In each interval theta = s (phi - phi_j) in (0, pi) solves the
    pole-free form F(theta) = 2 sin phi (2 cos phi - eps_d) sin theta
    + g^2 cos theta = 0, F(0) = g^2 > 0 > -g^2 = F(pi); the distance to the
    pole is thus the stored unknown (Gu and Eisenstat, SIAM J. Matrix Anal.
    Appl. 15, 1266 (1994)).  The two outer roots are solved in q = phi^2,
    regular through the band edge phi = 0 and continued to a bound state
    at q = -kappa^2 (see ``_edge_root``); one within (phi_1/2, phi_1) of
    the outermost pole is instead the root of F on (3 pi/4, pi) from the
    mirror pole -phi_1.  G is odd, so every root with lam < 0 is solved at
    -lam with eps_d mirrored, where phi <= pi/2 keeps sin phi exact at both
    band edges.  The poles' detunings 2 cos phi_j - eps_d are taken to
    their relative precision (see ``_pole``), so that rounding does not
    spoil the sum rule where the dot level lies inside the band.

    The weights are the residues of the dot Green's function
    1 / (z - eps_d - g^2 G(z)), w_m = 1 / (1 - g^2 G'(lam_m)); in the offset
    psi = phi - phi_j from the nearest pole, tan(s phi) = -cot(s psi), so

        w = 1 / (1 + g^2 (s csc^2(s psi) sin phi + cot(s psi) cos phi) / (4 sin^3 phi)),

    and an outer root takes G' from its regular form in q.  At g = 0 the
    dot decouples: weight 1 on its level eps_d, 0 on every other.

    Against a 30-digit solve of the secular equation the eigenvalues and
    weights are within 1e-15 (N = 250, eps_d = -2, g = 5e-3, all 252
    states); the weights sum to 1 within 5.6e-16 for dot levels across the
    band up to N = 1e5.  Raises NumericalError, naming the brackets left
    open, if the sweep cap is reached, and ConsistencyError if the weights
    are not finite or miss sum_m w_m = 1 by more than 1e-13.

    Domain: an integer n_sites >= 0, and g = 0 or g^2 at least the smallest
    normal double (g >= 1.4917e-154); a subnormal g^2 has too few digits for
    the secular solve and raises DomainError before any sweep.
    """
    n = _checked_int(n_sites, "n_sites", least=0)
    s, eps, g2 = n + 1, params.epsilon_d, params.g**2
    if 0.0 < g2 < _G2_MIN:
        raise DomainError(
            f"g = {params.g:.6e} outside the lattice oracle's domain: g^2 = {g2:.6e} "
            f"is subnormal (need g = 0 or g^2 >= {_G2_MIN:.6e}, g >= {np.sqrt(_G2_MIN):.6e})"
        )
    if g2 == 0.0:
        # the chain poles 2 cos(j pi / (2s)) and the dot level
        lam = np.append(2.0 * np.sin((s - np.arange(1, 2 * s, 2)) * np.pi / (2 * s)), eps)
        weights = np.zeros(s + 1)
        weights[s] = 1.0
    else:
        # bracket (phi_j, phi_j + pi/s) past pi/2 is solved mirrored, from
        # the pole 2s - 2 - j
        j = np.arange(1, 2 * s - 2, 2)
        sign = np.where(j + 1 > s, -1.0, 1.0)
        j = np.where(sign < 0.0, 2 * s - 2 - j, j).astype(float)
        lo, hi = np.zeros(s - 1), np.full(s - 1, np.pi)
        edge_lam, edge_w = [], []
        for sigma in (1.0, -1.0):
            root = _edge_root(sigma * eps, g2, s)
            if root is None:  # next to the outermost pole: the bracket from -phi_1
                sign, j = np.append(sign, sigma), np.append(j, -1.0)
                lo, hi = np.append(lo, 0.75 * np.pi), np.append(hi, np.pi)
            else:
                edge_lam.append(sigma * root[0])
                edge_w.append(root[1])
        lam, weights = _bracket_roots(j, sign * eps, lo, hi, g2, s)
        lam = np.append(sign * lam, edge_lam)
        weights = np.append(weights, edge_w)
        miss = abs(weights.sum() - 1.0)
        if not miss <= _WEIGHT_SUM_TOL:
            raise ConsistencyError(
                f"lattice dot weights miss sum_m w_m = 1 by {miss:.3g} "
                f"(tolerance {_WEIGHT_SUM_TOL:g})"
            )
    order = np.argsort(lam, kind="stable")
    return lam[order], weights[order]


def dense_lattice_hamiltonian(params: ModelParams, n_sites: int) -> np.ndarray:
    """Unfolded (2N+2)-dimensional Hamiltonian (sites -N..N, then the dot).

    Reference construction used to validate the folded solver.  Domain: an
    integer n_sites >= 0 (DomainError otherwise).
    """
    n = _checked_int(n_sites, "n_sites", least=0)
    dim = 2 * n + 2
    H = np.zeros((dim, dim))
    for i in range(2 * n):
        H[i, i + 1] = H[i + 1, i] = -1.0
    H[n, dim - 1] = H[dim - 1, n] = -params.g
    H[dim - 1, dim - 1] = params.epsilon_d
    return H


def _phase(E, t, t_lo=0.0):
    """e^{-i E (t + t_lo)}, its argument split exactly into fl(E t) and the
    remainder, so only the rounding of exp and of one product remains."""
    p, e = _two_product(E, t)
    return np.exp(-1j * p) * np.exp(-1j * (e + E * t_lo))


def _powers(first, z, rows):
    """The (rows x M) table first * z^j, j < rows, by doubling: rows [m, 2m)
    are rows [0, m) times z^m.  No exp; the entries carry only
    multiplication rounding."""
    out = np.empty((rows, first.size), dtype=complex)
    out[:1] = first
    m = 1
    while m < rows:
        n = min(m, rows - m)
        np.multiply(out[:n], z, out=out[m:m + n])
        z = z * z
        m += n
    return out


def survival_lattice_oracle(params: ModelParams, n_sites: int, times) -> SurvivalTrace:
    """A(t) = sum_m |<d|m>|^2 e^{-i E_m t} over the spectrum of the chain
    truncated to sites -N..N, N = n_sites.

    ``times`` must be a 1-D uniform increasing grid t_k = t_0 + k dt of
    finite t_0 >= 0 (as from ``np.arange`` or ``np.linspace``; any t_k more
    than 16 ulps of the largest time off t_0 + k dt raises DomainError), N
    an integer (DomainError otherwise), and N must outrun the wavefront,
    N > 2 max(t) + 10 (LatticeTruncationError otherwise).  With k = bB + r
    and B = ceil(sqrt(K)) for K times, the sum factors into a matrix product,

        A(t_{bB + r}) = sum_m [w_m e^{-i E_m t_0} z_B^b] z_1^r,
        z_1 = e^{-i E_m dt},  z_B = e^{-i E_m B dt},

    which takes three exponentials per level: z_1, z_B and w_m e^{-i E_m t_0},
    each of an exactly split argument E_m t.  The block and step tables are
    their powers, filled by doubling, so the phases carry multiplication
    rounding only, not the rounding of fl(E_m t) (up to 0.5 ulp of 2 max t).
    The product is summed over blocks of _ORACLE_LEVELS = 1024 levels, the
    first block's product starting the sum, so the tables never hold more
    than one block and a lattice of at most 1024 levels keeps the bits of
    one product over all of them.
    """
    times = _checked_grid(times)
    n_sites = _checked_int(n_sites, "n_sites", least=0)
    t_max = times.max(initial=0.0)
    if n_sites <= 2.0 * t_max + WAVEFRONT_MARGIN:
        raise LatticeTruncationError(
            f"N = {n_sites} too small for t_max = {t_max}; "
            f"need N > 2 t_max + {WAVEFRONT_MARGIN:g} to outrun the wavefront"
        )
    K = times.size
    B = max(1, int(np.ceil(np.sqrt(K))))
    t0, dt = _grid_step(times)
    evals, weights = lattice_spectrum(params, n_sites)
    block_dt = _two_product(float(B), dt)
    for i in range(0, evals.size, _ORACLE_LEVELS):
        e = evals[i : i + _ORACLE_LEVELS]
        steps = _powers(np.ones_like(e, dtype=complex), _phase(e, dt), B)
        blocks = _powers(weights[i : i + _ORACLE_LEVELS] * _phase(e, t0), _phase(e, *block_dt),
                         -(-K // B))
        if i:
            amp += blocks @ steps.T
        else:
            amp = blocks @ steps.T
    amp = amp.ravel()[:K]
    return SurvivalTrace.from_amplitude(times, amp, Method.LATTICE_ORACLE)


# ---------------------------------------------------------------------------
# Route 2: pole/branch-cut (Bessel) representation
# ---------------------------------------------------------------------------

def _panel_rule(e_max, times):
    """Panel width h and nodes per panel n for a call at ``times`` (a float
    array): of the power-of-two widths h, each with the fewest n <= _RULE_MAX
    whose Gauss-Legendre remainder on a panel of width h (A&S 25.4.30),

        h^(2n+1) (n!)^4 / ((2n+1) ((2n)!)^3) * max |f^(2n)|,
        max |f^(2n)| <= (e_max + 2)^(2n),

    is at most _RULE_TOL h, and whose grid from 0 to max(max t,
    _TAIL_START) holds at most _MAX_PANELS panels of width h, the one whose
    ``_checked_panels`` call evaluates the fewest J1 nodes,

        n (G + P + 2 min(G, _VERIFY_PANELS) + 2 min(P, _VERIFY_PANELS)),

    with G the panels and P the times off the grid (each takes a partial
    panel) on the origin that ``_grid_origin`` gives width h; the wider
    width on a tie.  The leading panel [0, o] is narrower than h, so the
    rule of width h covers it.  The derivative bound holds for
    f(s) = e^{iE(s - ref)} J1(2s)/s with |E| <= e_max and a contractive
    reference edge: J1(2s)/s = (2/pi) int_{-1}^{1} sqrt(1 - u^2) e^{2isu} du
    mixes frequencies |2u| <= 2 with unit total weight.  Halving h always
    meets the bound in the end, so widths exist for every finite e_max;
    DomainError if even the widest needs more than _MAX_PANELS panels.
    """
    rate = e_max + 2.0
    end = max(times.max(initial=0.0), _TAIL_START)
    best = (math.inf, 0.0, 0)  # (J1 nodes, h, n)
    # from the narrowest power of two at or above the widest h any n admits,
    # narrowing while the grid alone takes fewer nodes than the best so far
    h = 2.0 ** math.ceil(math.log2(math.exp(_RULE_LOG_RATE[-1]) / rate))
    while (grid := math.ceil(end / h)) < best[0]:
        n = bisect_left(_RULE_LOG_RATE, math.log(h * rate)) + 1
        if n <= _RULE_MAX:
            if grid > _MAX_PANELS:
                if best[0] < math.inf:
                    break
                raise DomainError(
                    f"t = {end:g} outside the Bessel route's domain at max |E| = "
                    f"{e_max:.6g}: panels of width {h:g} would number {grid}, "
                    f"more than {_MAX_PANELS}"
                )
            if n * _checked_count(grid) < best[0]:
                _, panels, off = _grid_origin(times, h, end)
                nodes = n * (_checked_count(panels) + _checked_count(off))
                if nodes < best[0]:
                    best = (nodes, h, n)
        h *= 0.5
    return best[1], best[2]


def _checked_count(panels):
    """Panels that ``_checked_panels`` integrates for ``panels`` of one kind:
    each once, and min(panels, _VERIFY_PANELS) again as two halves."""
    return panels + 2 * min(panels, _VERIFY_PANELS)


def _grid_origin(times, h, end):
    """(o, G, P) of the width-h grid for ``times``: its origin o, its G panels
    on [0, T], T the first edge o + m h at or past ``end``, and the P times
    off it.  o is 0 or fmod(min t, h), whichever takes fewer checked panels,
    0 on a tie; for o > 0 the interval [0, o] is one leading panel.  A time
    is on the grid only if it equals its edge fl(o + m h) bit for bit."""
    # t / h is exact for a power of two h; np.fmod(times, h), whose cost grows
    # with t / h, took 190 us on the 4133-time beat grid
    x = times / h
    plans = [(0.0, math.ceil(end / h), int(np.count_nonzero(x != np.floor(x))))]
    o = float(np.fmod(times.min(), h)) if times.size else 0.0
    if o > 0.0:
        on = o + h * np.rint((times - o) / h) == times
        plans.append((o, 1 + math.ceil((end - o) / h), times.size - int(np.count_nonzero(on))))
    return min(plans, key=lambda plan: _checked_count(plan[1]) + _checked_count(plan[2]))


def _panel_integrals(E, a, b, left, order):
    """int_{a_p}^{b_p} e^{iE_s(t' - ref_ps)} J1(2t')/t' dt' for every panel p
    and state s, shape (P, S), with ``order`` nodes per panel; ref_ps is
    a_p where left_s is set and b_p otherwise.

    A node mid + half x_j (x_j a Gauss node of [-1, 1]) lies half (x_j +- 1)
    from its reference edge, so its phases come from one table per distinct
    half-width and J1 is evaluated once per node for all states.  Panels go
    through _BLOCK_PANELS at a time, so the temporaries stay one size; each
    panel's table is gathered and contracted with its J1 values row by row,
    so a panel's value does not depend on the other panels of the call.
    """
    offset = _leggauss(order)[0][:, None] + np.where(left, 1.0, -1.0)  # x_j +- 1
    half = 0.5 * (b - a)
    vals = np.empty((a.size, E.size), dtype=complex)
    for i in range(0, a.size, _BLOCK_PANELS):
        j = i + _BLOCK_PANELS
        nodes, wts = panel_nodes(a[i:j], b[i:j], order)
        widths, which = np.unique(half[i:j], return_inverse=True)
        tables = np.exp(1j * widths[:, None, None] * offset * E).view(float)  # re, im pairs
        vals[i:j] = np.einsum("pj,pjk->pk", wts * j1_over_t(nodes), tables[which]).view(complex)
    return vals


def _checked_panels(E, left, edges, a, b, order):
    """Panel integrals of every state on the grid ``edges`` and on the
    panels [a_i, b_i], with ``order`` nodes per panel, from one
    ``_panel_integrals`` call that also takes the spot check's halves.

    One spot check covers both kinds for all states: min(n, _VERIFY_PANELS)
    panels of each kind, evenly spread and the first and last included, are
    integrated again as two halves, each referenced to its own edge on the
    same side.  The halves are joined by e^{+-iE half}, contractive on that
    side, and a QuadratureError carrying the achieved tolerance is raised if
    any value misses its refinement by more than the per-panel budget.
    """
    n_grid = edges.size - 1
    i, j = (np.linspace(0, n - 1, min(n, _VERIFY_PANELS)).astype(int) for n in (n_grid, b.size))
    lo, hi = np.concatenate([edges[i], a[j]]), np.concatenate([edges[i + 1], b[j]])
    mid = 0.5 * (lo + hi)
    starts = np.r_[edges[:-1], a, np.stack([lo, mid], axis=1).ravel()]
    ends = np.r_[edges[1:], b, np.stack([mid, hi], axis=1).ravel()]
    ints = _panel_integrals(E, starts, ends, left, order)
    grid, partial, halves = np.split(ints, [n_grid, n_grid + b.size])
    first, second = halves[::2], halves[1::2]
    join = np.exp(0.5j * (hi - lo)[:, None] * np.where(left, E, -E))
    whole = np.where(left, first + join * second, join * first + second)
    vals = np.concatenate([grid[i], partial[j]])
    achieved = float(np.max(np.abs(whole - vals), initial=0.0))
    if achieved > _PANEL_TOL:
        raise QuadratureError(
            f"panel quadrature above tolerance {_PANEL_TOL:g}", residual=achieved
        )
    return grid, partial


def _scan(start, rate, inc, idx):
    """x[idx] for x[0] = start, x[k+1] = e^rate x[k] + inc[k].

    With |e^rate| <= 1 every power taken is contractive.  The partial sums
    within blocks of L = _SCAN_BLOCK steps are one product with the
    lower-triangular Toeplitz matrix of e^(rate m), m < L; the block starts
    then advance by the one step e^(rate L), which keeps the phases of all
    blocks consistent with each other.  Each power is ``_phase(i rate, m)``,
    the exp of the exactly split argument rate m, so the rounding of
    fl(rate m), up to 0.5 ulp of |rate| L, never enters.  L blocks are
    taken at a time and x is kept at idx only, so the temporaries stay one
    size.
    """
    L = _SCAN_BLOCK
    powers = _phase(1j * rate, np.arange(L + 1.0))
    lag = np.arange(L)[None, :] - np.arange(L)[:, None]  # column minus row
    toeplitz = np.where(lag >= 0, powers[np.maximum(lag, 0)], 0.0)
    out = np.full(idx.size, start, dtype=complex)
    x, step = complex(start), complex(powers[L])
    for c in range(0, inc.size, L * L):
        chunk = inc[c : c + L * L]
        blocks = np.zeros(-(-chunk.size // L) * L, dtype=complex)
        blocks[: chunk.size] = chunk
        within = blocks.reshape(-1, L) @ toeplitz
        starts = []
        for end in within[:, -1].tolist():
            starts.append(x)
            x = step * x + end
        sel = (idx > c) & (idx <= c + chunk.size)
        j = idx[sel] - c - 1
        out[sel] = powers[j % L + 1] * np.array(starts)[j // L] + within.ravel()[j]
    return out


def _hankel_coefficients(n):
    """c_k with J1(2s)/s ~ sum_k [c_k e^{2is} + conj(c_k) e^{-2is}] s^(-3/2-k).

    The Hankel expansion of J1 (DLMF 10.17.3) at argument 2s:
    c_k = a_k(1) 2^-k e^{-3i pi/4} i^k / (2 sqrt(pi)), with
    a_k(1) = prod_{j <= k} (4 - (2j - 1)^2) / (8j).
    """
    k = np.arange(n)
    a = np.cumprod(np.concatenate(([1.0], (4.0 - (2.0 * k[1:] - 1.0) ** 2) / (8.0 * k[1:]))))
    i_k = np.array([1.0, 1j, -1.0, -1j])[k % 4]
    return a * 0.5**k * i_k * np.exp(-0.75j * np.pi) / (2.0 * np.sqrt(np.pi))


_HANKEL = _hankel_coefficients(_HANKEL_TERMS)
_ALPHA = 1.5 + np.arange(_HANKEL_TERMS)  # the power s^-alpha of each Hankel term


def _scaled_expint(alpha, z):
    """F_alpha(z) = e^z E_alpha(z) for Re z > 0 and non-integer alpha, with an
    estimate of each value's truncation error (arrays broadcast together).

    For |z| < 1 the power series (DLMF §8.19)
        E_a(z) = Gamma(1 - a) z^(a-1) - sum_j (-z)^j / (j! (1 - a + j)),
    otherwise the even part of its continued fraction (DLMF §8.19),
        F_a(z) = 1 / (z + a - a / (z + a + 2 - 2 (a + 1) / (z + a + 4 - ...))).
    Its depth is found by a forward pass over the convergents' denominators,
    in which each step |f_n - f_(n-1)| follows from the one before without
    cancellation, and the fraction is then evaluated backward at that depth.
    """
    from scipy.special import gamma

    alpha, z = np.broadcast_arrays(np.asarray(alpha, dtype=float), np.asarray(z, dtype=complex))
    F, err = np.empty(z.shape, dtype=complex), np.empty(z.shape)
    near = np.abs(z) < 1.0
    a, x = alpha[near], z[near]
    term, total = np.ones_like(x), np.zeros_like(x)
    for j in range(_SERIES_TERMS):
        total += term / (1.0 - a + j)
        term *= -x / (j + 1)
    F[near] = np.exp(x) * (gamma(1.0 - a) * x ** (a - 1.0) - total)
    err[near] = np.abs(np.exp(x) * term / (1.0 - a + _SERIES_TERMS))
    a, x = alpha[~near], z[~near]
    d = 1.0 / (x + a)
    scale = np.abs(d)
    step, n = scale, 0
    while n < _CF_MAX_DEPTH and np.any(step > _CF_STOP * scale):
        n += 1
        d_next = 1.0 / (x + a + 2.0 * n - n * (a + n - 1.0) * d)
        step = step * np.abs(n * (a + n - 1.0) * d_next * d)
        d = d_next
    rest = np.zeros_like(x)
    for m in range(n, 0, -1):
        rest = -m * (a + m - 1.0) / (x + a + 2.0 * m + rest)
    F[~near], err[~near] = 1.0 / (x + a + rest), step
    return F, err


def _hankel_tail(E, lam, T):
    """int_T^inf e^{iE(s - T)} J1(2s)/s ds for Im E > 0, T >= _TAIL_START,
    E = -lam - 1/lam.

    Each Hankel term integrates exactly: with sigma = +-1 for the branch
    e^{2 i sigma s} and alpha = 3/2 + k,

        int_T^inf e^{iE(s - T)} e^{2 i sigma s} s^-alpha ds
            = e^{2 i sigma T} T^(1 - alpha) F_alpha(-i (E + 2 sigma) T).

    E + 2 is taken as -(lam - 1)^2 / lam, with lam - 1 exact near threshold,
    where E itself is stored only to the ulp of 2.

    Raises QuadratureError, with the achieved relative residual, if the last
    Hankel term plus the estimated F truncation errors exceed _TAIL_TOL of
    the tail.
    """
    sigma = np.array([[1.0], [-1.0]])
    coef = np.stack([_HANKEL, _HANKEL.conj()]) * np.exp(2j * sigma * T) * T ** (1.0 - _ALPHA)
    shift = np.array([[-((lam - 1.0) ** 2) / lam], [E - 2.0]])  # E + 2 sigma
    F, err = _scaled_expint(_ALPHA, -1j * shift * T)
    terms = coef * F
    W = terms.sum()
    residual = float((np.abs(terms[:, -1]).sum() + np.sum(np.abs(coef) * err)) / abs(W))
    if not residual <= _TAIL_TOL:
        raise QuadratureError(
            f"anti-resonance tail truncated above tolerance {_TAIL_TOL:g}", residual=residual
        )
    return W


def _bessel_sum_terms(lam, E, code, nd, times: np.ndarray):
    """Per-state contributions <d|psi>^2 e^{-iEt} (1 - i lam I(t)), shape (S, K),
    of the states lam, E, class code and nd = psid_sq (arrays (S,), ``_states``).

    All states share one grid: edges o + m h from the origin o of
    ``_grid_origin`` up to T, the first edge at or past max(max t,
    _TAIL_START), and for o > 0 the leading panel [0, o] before them.  The
    forward scans start at o from e^{-iEo} - i lam P_0, P_0 that panel's
    integral; the growing set, exactly the anti-resonance class, is scanned
    backward from the closed-form tail at T to o and over the leading panel
    to W(0) = P_0 + e^{iEo} W(o).  Each time is read from the left edge of
    its panel plus the partial panel up to it.
    """
    grow = code == _CLASSES.index(StateClass.ANTI_RESONANCE)
    # the width is a power of two, so that E h is exact
    h, order = _panel_rule(float(np.max(np.abs(E))), times)
    o, panels, _ = _grid_origin(times, h, max(times.max(initial=0.0), _TAIL_START))
    lead = int(o > 0.0)  # the leading panel [0, o], if any
    n = panels - lead
    edges = o + h * np.arange(n + 1.0)
    if lead:
        edges = np.insert(edges, 0, 0.0)
    T = edges[-1]
    k = np.searchsorted(edges, times, side="right") - 1
    delta = times - edges[k]
    part = delta > 0.0
    # panels referenced to their left edge for a growing state, else the right
    uniform, partial = _checked_panels(E, grow, edges, edges[k[part]], times[part], order)
    first, uniform, k = uniform[0], uniform[lead:], k - lead
    terms = np.empty((E.size, times.size), dtype=complex)
    for s in range(E.size):
        e, lm = E[s], lam[s]
        if grow[s]:
            # backward from the closed-form tail at T to o, then over the
            # leading panel to 0; the infinite-time bracket vanishes, so
            # i lam W(0) = 1 checks the whole scan
            W = _scan(_hankel_tail(e, lm, T), 1j * e * h, uniform[::-1, s], np.append(n - k, n))
            w0 = first[s] + _phase(-e, o) * W[-1] if lead else W[-1]
            residual = abs(1j * lm * w0 - 1.0)
            if residual > _IDENTITY_TOL:
                raise QuadratureError(
                    f"anti-resonance scan misses i lam W(0) = 1 by more than {_IDENTITY_TOL:g}",
                    residual=float(residual),
                )
            # the tail from t, referenced to the left edge of t's panel
            x = W[:-1]
            x[part] -= partial[:, s]
            x, scale = x * np.exp(-1j * e * delta), 1j * lm * nd[s]
        else:
            # forward from e^{-iEo} (1 - i lam I(o)), the leading panel's value
            start = _phase(e, o) - 1j * lm * first[s] if lead else 1.0
            x = _scan(start, -1j * e * h, -1j * lm * uniform[:, s], k) * np.exp(-1j * e * delta)
            x[part] -= 1j * lm * partial[:, s]
            scale = nd[s]
        terms[s] = scale * x
    # at t = 0 every state's forward form e^{-iEt} (1 - i lam I(t)) is 1, so
    # A(0) is the residue sum itself; a growing state's i lam W(0) is 1 only
    # to the scan's rounding, which would otherwise enter A(0)
    terms[:, times == 0.0] = nd[:, None]
    return terms


def survival_bessel_sum(params: ModelParams, times) -> SurvivalTrace:
    """Exact survival amplitude from the Bessel representation, summed over
    all four discrete states.

    The bound state below the band, the second-sheet pair and the bound state
    above the band each contribute; their residues sum to 1, so A(0) = 1,
    and A(0) is returned as that sum itself (the anti-resonance's backward
    scan meets its t = 0 value only to rounding).
    The grid's panels start at 0, or after one leading panel at
    fmod(t_0, h) of the first time where that takes fewer J1 nodes, as on
    the beat grid t_0 + 4k, whose times all become edges.
    Errors are raised, never absorbed: on every call min(n, 512) of the n
    panels of the shared grid and of the n partial panels, evenly spread
    and the first and last included, are re-integrated at half step for all
    states, and a QuadratureError carrying the achieved tolerance is raised on
    disagreement beyond 1e-10; the closed-form tail of a growing state
    raises one if its truncation exceeds 1e-16 of the tail, and its
    backward scan if i lam W(0) misses 1 by more than 1e-12.

    Domain: finite, strictly increasing 1-D times in [0, 6e5] (DomainError
    otherwise); J1(2t) is documented only to 2t = 1.2e6.  The grid of
    panels is capped at 2.4e6 of width h (the width-1/4 grid of t = 6e5),
    so for max |E| above 65.6 the last time is lower: 3e5 at |E| = 70;
    beyond the cap a DomainError is raised.
    """
    times = _checked_grid(times, upper=_BESSEL_T_MAX)
    lam, E, code, _, nd = (x[0] for x in _states(params.epsilon_d, params.g))
    amp = _bessel_sum_terms(lam, E, code, nd, times).sum(axis=0)
    return SurvivalTrace.from_amplitude(times, amp, Method.BESSEL_SUM)


# ---------------------------------------------------------------------------
# K_n integrals
# ---------------------------------------------------------------------------

def kn_closed_form(n: int, t: float) -> complex:
    """Closed form of int_0^t e^{-2it'} t'^(n-1) J1(2t') dt' for n in {0,1,2}
    and t in [0, 6e5], where J1(2t) is documented (DomainError otherwise)."""
    if n not in (0, 1, 2):
        raise DomainError(f"closed forms known for n in {{0, 1, 2}}, got {n}")
    t = float(_checked_times(t, upper=_BESSEL_T_MAX))
    if t == 0.0:
        return 0.0 + 0.0j
    J0, J1 = bessel_j(0, 2.0 * t), bessel_j(1, 2.0 * t)
    ph = np.exp(-2j * t)
    if n == 0:
        return 1j * (-1.0 + ph * (J0 + 1j * J1))
    if n == 1:
        return 0.5 * (1.0 - ph * ((1.0 + 2j * t) * J0 - 2.0 * t * J1))
    return (t / 3.0) * ph * (-1j * t * J0 + (1j + t) * J1)


def kn_quadrature(n: int, t: float) -> complex:
    """The defining integral of kn_closed_form by adaptive quadrature, for an
    integer n >= 0 and t in [0, 6e5] (DomainError otherwise; for n < 0 the
    integral diverges at 0)."""
    n = _checked_int(n, "n", least=0)
    t = float(_checked_times(t, upper=_BESSEL_T_MAX))
    if n == 0:
        f = lambda s: np.exp(-2j * s) * j1_over_t(s)  # t'^(-1) J1(2t')
    else:
        f = lambda s: np.exp(-2j * s) * s ** (n - 1) * bessel_j(1, 2.0 * s)
    return adaptive_quad(f, 0.0, t, tol=_KN_TOL)


# ---------------------------------------------------------------------------
# Analytic laws
# ---------------------------------------------------------------------------

# amplitude of the t^(3/2) term entering A(t) ~ e^{2it}(1 - z(t))
_INTERMEDIATE_AMPLITUDE = 2.0 / (3.0 * np.sqrt(np.pi))


def intermediate_amplitude(g: float, t):
    """A(t) ~ e^{2it} (1 - (2 g^2 t^{3/2} / (3 sqrt(pi))) e^{-i pi/4}) at
    threshold, for finite g >= 0 and finite t >= 0 (DomainError otherwise).

    To first order P = |A|^2 = 1 - 4 g^2 t^{3/2} / (3 sqrt(2 pi)); the full
    square keeps the quadratic term, which is what matches brute-force
    dynamics near the end of the window (t approaching g^(-4/3)).
    """
    if not 0.0 <= g < math.inf:
        raise DomainError(f"g = {g} outside the domain: need a finite g >= 0")
    t = _checked_times(t)
    z = _INTERMEDIATE_AMPLITUDE * g**2 * t**1.5 * np.exp(-1j * np.pi / 4.0)
    return np.exp(2j * t) * (1.0 - z)


def longtime_amplitude(params: ModelParams, t):
    """Near-edge survival amplitude in closed form,

        A(t) = e^{2it} sum_k c_k w(e^{3 i pi/4} y_k sqrt(t)),
        c_k  = y_k^2 / (3 y_k^2 + delta),

    with w the Faddeeva function, delta = eps_d + 2 and y_k the three roots
    of 2 y^3 + 2 delta y + g^2 = 0.

    Derivation: near the edge, with y = lam - 1, E + 2 ~ -y^2 and
    Sigma ~ g^2 / (2y), so G(E) ~ -2y / (2y^3 + 2 delta y + g^2).  Partial
    fractions in y and the Laplace pair
    L^{-1}[1/(sqrt(s) + b)] = 1/sqrt(pi t) - b e^{b^2 t} erfc(b sqrt(t))
    (Abramowitz & Stegun, table 29.3) give the sum above; the 1/sqrt(pi t)
    pieces cancel because the residues sum to zero, and sum_k c_k = 1
    (each c_k = 1/3 at delta = 0).  The weights belong to the cubic roots,
    so those roots are used rather than the exact quartic ones.

    Limits: for small t the series of w reproduces ``intermediate_amplitude``
    (the t^{3/2} law); for large t it reduces to the poles
    E = -2 - y_k^2 (weight 2/3 each at threshold) beating against the tail
    -e^{i pi/4} e^{2it} / (sqrt(pi) g^2 t^{3/2}).  The resummation keeps
    that physics and removes the truncation of the asymptotic series in
    1/(t g^{4/3}), which has not converged at the first minimum of P(t).

    Domain: finite t > 0, 0 < g < 108^(1/4) and |eps_d| < -eps_bar, where the
    triplet has a resonance (DomainError otherwise), tested as 2 - |eps_d| >
    eps_bar + 2 at the real EP of ``ep._coalesced``, both sides without
    rounding loss near the edge; no quartic is solved.  The weights diverge
    only at the cubic's double root delta = -3 (g/2)^{4/3}, just below
    eps_bar + 2.  Against the lattice oracle: max |P - P_law| = 3.7e-4 over
    (0, 2000] at g = 0.02 (4.8e-5 at g = 0.005, 3.1e-3 at g = 0.1 over
    t <= 600); <= 3.5e-4 over t <= 600 at g = 0.02, eps_d = -1.999, -2.002.
    """
    from scipy.special import wofz

    t = _checked_times(t, positive=True)
    _coupled(params.g)
    if not params.g**4 < 108.0:
        raise DomainError(f"g = {params.g} is past the late-time law's bound g < 108^(1/4)")
    E, y = _coalesced(params.g, 0)  # eps_bar + 2 = y/(E - 2) + y/E, as E + 2 = y/(E - 2)
    if not 2.0 - abs(params.epsilon_d) > (y / (E - 2.0) + y / E).real:
        raise DomainError(f"no resonance at eps_d = {params.epsilon_d} (|eps_d| >= -eps_bar)")
    delta = params.epsilon_d + 2.0
    y = _monic_roots(np.array([0.0, delta, 0.5 * params.g**2]))
    c = y**2 / (3.0 * y**2 + delta)
    z = np.exp(0.75j * np.pi) * np.multiply.outer(np.sqrt(t), y)
    return np.exp(2j * t) * (wofz(z) @ c)


def asymptotic_plateau(params: ModelParams) -> float:
    """P(inf) = |<d|psi_B>^2 (1 - lam_B^2)|^2, the trapped bound-state weight."""
    lam, _, code, _, nd = (x[0].tolist() for x in _states(params.epsilon_d, params.g))
    k = code.index(_CLASSES.index(StateClass.BOUND_LOWER))
    return float(abs(nd[k] * (1.0 - lam[k] ** 2)) ** 2)


def expansion_term_checks(params: ModelParams, t: float) -> tuple[complex, complex]:
    """The two exact pieces of the Bessel representation at one time.

    Returns (pole_sum, integral_sum) over all four discrete states, with
        pole_sum     = sum_j <d|psi_j>^2 e^{-i E_j t}
        integral_sum = -i sum_j lam_j <d|psi_j>^2 e^{-i E_j t} I_j(t)
    whose t^2 threshold artifacts cancel against each other, leaving the
    t^{3/2} law of ``intermediate_amplitude``.  Domain: finite t in
    [0, 6e5], as for ``survival_bessel_sum`` (DomainError otherwise).
    """
    t = float(_checked_times(t, upper=_BESSEL_T_MAX))
    lam, E, code, _, nd = (x[0] for x in _states(params.epsilon_d, params.g))
    pole_sum = sum(d * np.exp(-1j * e * t) for e, d in zip(E.tolist(), nd.tolist()))
    total = _bessel_sum_terms(lam, E, code, nd, np.array([t]))[:, 0].sum()
    return complex(pole_sum), complex(total - pole_sum)


# ---------------------------------------------------------------------------
# Frequency extraction
# ---------------------------------------------------------------------------

def dominant_frequency(times, signal, flatten_power: float = 0.0) -> float:
    """Angular frequency of the strongest spectral line of a real signal.

    Optionally multiplies by t^flatten_power first (use 1.5 to undo the
    branch-point envelope decay).  Hann window, zero padding to at least 16
    times the length, and parabolic interpolation of the peak give
    resolution far below one FFT bin.  ``times`` must be a uniform, strictly
    increasing grid of at least 2 finite times >= 0 (> 0 for a negative
    flatten_power), and ``signal`` finite, not constant, and of the same
    shape (DomainError otherwise).
    """
    times = _checked_grid(times, positive=flatten_power < 0)
    signal = np.asarray(signal, dtype=float)
    if times.size < 2:
        raise DomainError(f"dominant_frequency needs at least 2 samples, got {times.size}")
    dt = _grid_step(times)[1]
    if signal.shape != times.shape:
        raise DomainError(
            f"signal of shape {signal.shape} does not match times of shape {times.shape}"
        )
    if not np.isfinite(signal).all():
        raise DomainError("dominant_frequency needs a finite signal")
    if signal.min() == signal.max():
        raise DomainError("dominant_frequency needs a signal that is not constant")
    y = signal * times**flatten_power if flatten_power else signal.copy()
    y = y - y.mean()
    y *= np.hanning(y.size)
    from scipy.fft import next_fast_len  # here, so that importing bandedge loads no scipy
    n_pad = next_fast_len(16 * y.size, real=True)
    spec = np.abs(np.fft.rfft(y, n=n_pad))
    k = int(np.argmax(spec[1:]) + 1)
    if 0 < k < spec.size - 1:
        y0, y1, y2 = spec[k - 1], spec[k], spec[k + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0:
            k = k + 0.5 * (y0 - y2) / denom
    return float(2.0 * np.pi * k / (n_pad * dt))
