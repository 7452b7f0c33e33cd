"""Generic near-threshold self-energy models and the cubic threshold equation.

A quantum emitter tuned to the edge E_th of a continuum with dispersion
E_k = k^2 + E_th and non-singular coupling profile v(k) picks up the
self-energy

    Sigma(E) = g^2 Delta(E) + g^2 Lam(E) / sqrt(E_th - E),

where the inverse square root is inherited from the 1-D density of states
and Delta collects any part analytic at the threshold.  Substituting
x = sqrt(E_th - E) into the on-threshold dispersion equation gives the cubic

    x^3 + g^2 Delta(E) x + g^2 Lam(E) = 0,

whose three roots converge on E_th as g^{4/3}: the same triple coalescence
the tight-binding chain shows at its band edge.  ``Lam`` is the coefficient
function of the divergent part (the eigenvalue variable lam is unrelated).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, NumericalError
from .quadrature import adaptive_quad
from .spectrum import _cardano, _monic_roots

_HALF_PI = 0.5 * np.pi
_REFINE_TOL = 1e-10  # relative step at which a refined threshold root has converged


@dataclass(frozen=True)
class GenericSelfEnergyModel:
    """Threshold E_th, analytic parts Delta and Lam, coupling profile v(k);
    a NaN or infinite g raises DomainError."""

    e_th: float
    delta: Callable[[np.ndarray], np.ndarray]
    lam_coeff: Callable[[np.ndarray], np.ndarray]
    v: Callable[[np.ndarray], np.ndarray]
    g: float
    # override for a finite Brillouin zone with its own dispersion; defaults
    # to E_k = k^2 + E_th over the whole real line
    dispersion: Callable[[np.ndarray], np.ndarray] | None = None
    k_domain: tuple[float, float] | None = None

    def __post_init__(self):
        if not np.isfinite(self.g):
            raise DomainError(f"g = {self.g} is not finite")

    def lam_at_threshold(self) -> float:
        return float(np.asarray(self.lam_coeff(np.array([self.e_th])))[0])

    def delta_at_threshold(self) -> float:
        return float(np.asarray(self.delta(np.array([self.e_th])))[0])


def _below_threshold(model: GenericSelfEnergyModel, E) -> np.ndarray:
    """E as a float array, every entry checked to lie below E_th (a NaN
    fails the check: its integrand would be NaN on every panel)."""
    E = np.asarray(E, dtype=float)
    bad = ~(E < model.e_th)
    if bad.any():
        raise DomainError(f"need E < E_th = {model.e_th}, got {E[bad].flat[0]}")
    return E


def self_energy_quadrature(model: GenericSelfEnergyModel, E):
    """Sigma(E) = g^2 int dk |v_k|^2 / (E - E_k) for real E below threshold.

    E is a scalar, giving a float, or an array, giving an array of its shape
    from one batched quadrature.  The infinite k line is mapped through
    k = tan(u); the mapped integrand is bounded at u = +/- pi/2 whenever
    |v_k|^2 decays no slower than the 1/k^2 of the denominator.
    """
    E = _below_threshold(model, E)
    if model.dispersion is not None:
        disp = model.dispersion
        lo, hi = model.k_domain

        def integrand(k, E):
            vk = model.v(k)
            return np.abs(vk) ** 2 / (E - disp(k))

        val = adaptive_quad(integrand, lo, hi, tol=1e-11, args=(E,))
        return model.g**2 * val.real

    def mapped(u, E):
        k = np.tan(u)
        vk = model.v(k)
        return np.abs(vk) ** 2 * (1.0 + k * k) / (E - model.e_th - k * k)

    val = adaptive_quad(mapped, -_HALF_PI, _HALF_PI, tol=1e-11, args=(E,))
    if np.any(np.abs(val.imag) > 1e-9):
        raise NumericalError("self-energy quadrature produced an imaginary part")
    return model.g**2 * val.real


def sigma_closed_form(model: GenericSelfEnergyModel, E):
    """g^2 Delta(E) + g^2 Lam(E)/sqrt(E_th - E) from the model's coefficients;
    a float for a scalar E, else an array of E's shape."""
    E = _below_threshold(model, E)
    E1 = np.atleast_1d(E)
    d = np.asarray(model.delta(E1), dtype=float)
    l = np.asarray(model.lam_coeff(E1), dtype=float)
    sigma = model.g**2 * d + model.g**2 * l / np.sqrt(model.e_th - E1)
    return float(sigma[0]) if E.ndim == 0 else sigma


def threshold_roots(model: GenericSelfEnergyModel, refine: bool = False):
    """Three near-threshold energies from the cubic in x = sqrt(E_th - E).

    By default Delta and Lam are frozen at the threshold (leading order).
    With refine=True each root is iterated to a fixed point of the cubic with
    Delta(E), Lam(E) re-evaluated at the current energy; if the fixed-point
    loop stalls the frozen-coefficient roots are returned with a warning.

    Returns (energies, converged_flag).
    """
    g = model.g
    d0, l0 = model.delta_at_threshold(), model.lam_at_threshold()
    if l0 == 0:
        raise DomainError("Lam(E_th) = 0: no inverse-square-root divergence")
    xs = _monic_roots(np.array([0.0, g**2 * d0, g**2 * l0]))
    energies = model.e_th - xs**2
    if not refine:
        return energies, True
    # the three roots iterate as one row stack and a converged root stops;
    # `energies` stays untouched as the frozen-coefficient fallback
    x, E = xs.copy(), energies.copy()
    done = np.zeros(x.size, dtype=bool)
    for _ in range(80):
        live = ~done
        d = np.asarray(model.delta(E[live]), dtype=complex)
        l = np.asarray(model.lam_coeff(E[live]), dtype=complex)
        rows = np.stack([np.zeros_like(d), g**2 * d, g**2 * l], axis=1)
        roots = _monic_roots(rows)
        pick = np.argmin(np.abs(roots - x[live, None]), axis=1)
        x_new = roots[np.arange(pick.size), pick]
        E_new = model.e_th - x_new**2
        done[live] = np.abs(E_new - E[live]) < _REFINE_TOL * (1.0 + np.abs(E_new))
        x[live], E[live] = x_new, E_new
        if done.all():
            return E, True
    warnings.warn(
        "self-consistent refinement did not converge; "
        "returning frozen-coefficient roots",
        stacklevel=2,
    )
    return energies, False


def leading_root_approx(model: GenericSelfEnergyModel) -> float:
    """Small-g bound-state estimate E = E_th - (g^2 Lam(E_th))^(2/3).

    From sqrt(E_th - E) ~ -(g^2 Lam)^{1/3}, the real cube root; requires
    Lam(E_th) != 0, otherwise the anomalous coalescence is absent.
    """
    l0 = model.lam_at_threshold()
    if l0 == 0:
        raise DomainError("Lam(E_th) = 0: no anomalous threshold point")
    return model.e_th - (model.g**2 * abs(l0)) ** (2.0 / 3.0)


def xi_intermediates(model: GenericSelfEnergyModel):
    """(xi_plus, xi_minus, x): Cardano intermediates and a root of the
    threshold cubic (frozen coefficients; Lam(E_th) != 0, else DomainError).

    xi_pm = (-g^2 Lam +/- g^2 Lam sqrt(1 + 4 g^2 Delta^3 / (27 Lam^2))) / 2
    are the two u^3 of x = u - g^2 Delta / (3 u).  xi_- has no cancellation,
    and xi_+ = -(g^2 Delta)^3 / (27 xi_-) by Vieta.  x is root 0 of
    ``spectrum._cardano``, on the principal cube root of xi_-: for Lam < 0
    and 27 Lam^2 + 4 g^2 Delta^3 > 0 the one real root, x > 0.
    """
    g = model.g
    d0 = complex(model.delta_at_threshold())
    l0 = complex(model.lam_at_threshold())
    if l0 == 0:
        raise DomainError("Lam(E_th) = 0: no inverse-square-root divergence")
    rad = np.sqrt(complex(1.0 + 4.0 * g**2 * d0**3 / (27.0 * l0**2)))
    xi_m = -0.5 * g**2 * l0 * (1.0 + rad)
    xi_p = -((g**2 * d0) ** 3) / (27.0 * xi_m) if xi_m else 0j  # xi_m = 0 at g = 0
    x = _cardano(np.array([g**2 * d0]), np.array([g**2 * l0]))[0, 0]
    return xi_p, xi_m, x


# ---------------------------------------------------------------------------
# Built-in models
# ---------------------------------------------------------------------------

def make_model(name: str, g: float) -> GenericSelfEnergyModel:
    """Built-in demonstration models: const, lorentzian, main-text.

    const       v(k) = 1, E_th = 0:      Delta = 0,  Lam = -pi
    lorentzian  v(k) = 1/(1+k^2), E_th = 0: residues at k = i sqrt(-E) and a
                double pole at k = i give
                Delta(E) = pi (1/(2(E+1)) + 1/(E+1)^2), Lam(E) = -pi/(1+E)^2
    main-text   the tight-binding chain near its lower edge: E_k = -2 cos k
                over one Brillouin zone with weight 1/(2 pi),
                Delta = 0, Lam(E) = -1/sqrt(2 - E), E_th = -2.
    """
    ones = np.ones_like

    if name == "const":
        return GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.zeros_like(E),
            lam_coeff=lambda E: -np.pi * ones(E),
            v=lambda k: ones(k),
            g=g,
        )
    if name == "lorentzian":
        return GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.pi * (0.5 / (E + 1.0) + 1.0 / (E + 1.0) ** 2),
            lam_coeff=lambda E: -np.pi / (1.0 + E) ** 2,
            v=lambda k: 1.0 / (1.0 + k * k),
            g=g,
        )
    if name == "main-text":
        return GenericSelfEnergyModel(
            e_th=-2.0,
            delta=lambda E: np.zeros_like(E),
            lam_coeff=lambda E: -1.0 / np.sqrt(2.0 - E),
            v=lambda k: ones(k) / np.sqrt(2.0 * np.pi),
            g=g,
            dispersion=lambda k: -2.0 * np.cos(k),
            k_domain=(-np.pi, np.pi),
        )
    raise DomainError(f"unknown builtin model '{name}'")


def make_singular_v_model(g: float) -> GenericSelfEnergyModel:
    """Counterexample model with v(k) = |k|^(-1/4), singular at the threshold.

    Its self-energy diverges like (E_th - E)^(-3/4) rather than the inverse
    square root, so Sigma * sqrt(E_th - E) has no finite threshold limit and
    the anomalous coalescence disappears.  Delta/Lam are placeholders; only
    the quadrature route is meaningful here.
    """
    return GenericSelfEnergyModel(
        e_th=0.0,
        delta=lambda E: np.zeros_like(E),
        lam_coeff=lambda E: -np.pi * np.ones_like(E),
        v=lambda k: np.abs(k) ** -0.25,
        g=g,
    )


def singular_v_quadrature(model: GenericSelfEnergyModel, E):
    """Sigma(E) for the |k|^(-1/4) profile; substitutes k = s^2 to absorb the
    integrable |k|^(-1/2) singularity of |v|^2 at k = 0.  A float for a
    scalar E, else an array of E's shape from one batched quadrature."""
    E = _below_threshold(model, E)

    def mapped(s, E):
        k = s * s
        return 2.0 / (E - model.e_th - k * k)

    # |v|^2 = k^(-1/2); int_0^inf k^(-1/2) f(k) dk = 2 int_0^inf f(s^2) ds,
    # then double for the k < 0 half line.  The cut-off is taken with
    # Python's float power, E by E, so it does not depend on numpy's pow.
    upper = np.reshape(
        [40.0 / max(abs(e - model.e_th) ** 0.25, 1e-3) for e in E.ravel().tolist()],
        E.shape,
    )
    val = adaptive_quad(mapped, 0.0, upper, tol=1e-10, args=(E,))
    return 2.0 * model.g**2 * val.real
