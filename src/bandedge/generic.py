"""Generic near-threshold self-energy models and the cubic threshold equation.

A quantum emitter tuned to the edge E_th of a continuum with an even
dispersion E_k = E_th + w(k) on |k| <= k_max, w(k) ~ k^2 at k = 0 (k^2 on
the whole line by default), and non-singular coupling profile v(k) picks
up the self-energy

    Sigma(E) = g^2 Delta(E) + g^2 Lam(E) / sqrt(E_th - E),

where the inverse square root is inherited from the 1-D density of states
and Delta collects any part analytic at the threshold.  Substituting
x = sqrt(E_th - E) into the on-threshold dispersion equation gives the cubic

    x^3 + g^2 Delta(E) x + g^2 Lam(E) = 0,

whose three roots converge on E_th as g^{4/3}: the same triple coalescence
the tight-binding chain shows at its band edge.  ``Lam`` is the coefficient
function of the divergent part (the eigenvalue variable lam is unrelated).
``self_energy_quadrature`` integrates Sigma from v(k) and w(k) alone, one
folded integrand for the regular profiles, the chain's Brillouin zone and
the singular |k|^(-1/4) counterexample, whose Sigma diverges as
(E_th - E)^(-3/4) instead.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .quadrature import adaptive_quad
from .spectrum import _cardano, _monic_roots, _polish

_REFINE_TOL = 1e-10  # relative step at which a refined threshold root has converged


@dataclass(frozen=True, kw_only=True)
class GenericSelfEnergyModel:
    """Threshold E_th, closed-form parts Delta and Lam (omitted for a model
    without them), coupling profile v(k), coupling g, and the zone: an even
    dispersion w(k) = E_k - E_th on |k| <= k_max, by default k^2 on the
    whole line.  A NaN or infinite g, or a k_max that is not > 0, raises
    DomainError."""

    e_th: float
    delta: Callable[[np.ndarray], np.ndarray] | None = None
    lam_coeff: Callable[[np.ndarray], np.ndarray] | None = None
    v: Callable[[np.ndarray], np.ndarray]
    g: float
    dispersion: Callable[[np.ndarray], np.ndarray] = np.square
    k_max: float = np.inf

    def __post_init__(self):
        if not np.isfinite(self.g):
            raise DomainError(f"g = {self.g} is not finite")
        if not self.k_max > 0:
            raise DomainError(f"k_max must be > 0, got {self.k_max}")

    def _coefficient(self, name: str) -> Callable[[np.ndarray], np.ndarray]:
        """The closed-form part "delta" or "lam_coeff"; DomainError if absent."""
        fn = getattr(self, name)
        if fn is None:
            raise DomainError(f"the model has no closed-form coefficient {name}")
        return fn

    def lam_at_threshold(self) -> float:
        """Lam(E_th); DomainError if it is 0 (no anomalous coalescence)."""
        l0 = float(np.asarray(self._coefficient("lam_coeff")(np.array([self.e_th])))[0])
        if l0 == 0:
            raise DomainError("Lam(E_th) = 0: no inverse-square-root divergence")
        return l0

    def delta_at_threshold(self) -> float:
        return float(np.asarray(self._coefficient("delta")(np.array([self.e_th])))[0])


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
    from one batched quadrature.  The zone |k| <= k_max is folded at k = 0
    onto u in (0, arctan sqrt(k_max)) by k = +/- s^2, s = tan(u), with the
    even dispersion w(k) = E_k - E_th:

        int dk |v_k|^2 / (E - E_th - w(k))
            = int du 2 s (1 + s^2) (|v(s^2)|^2 + |v(-s^2)|^2) / (E - E_th - w(s^2)).

    It is bounded whenever |v_k|^2 = O(|k|^(-1/2)) at k = 0 and, on the
    whole line (upper end fl(pi/2)), O(|k|^(1/2)) as |k| -> oo: the regular
    profiles, the chain and the |k|^(-1/4) counterexample alike.  Both ends
    are panel edges, so no node sits at k = 0.
    """
    E = _below_threshold(model, E)

    def folded(u, E):
        s = np.tan(u)
        k = s * s
        weight = np.abs(model.v(k)) ** 2 + np.abs(model.v(-k)) ** 2
        return 2.0 * s * (1.0 + k) * weight / (E - model.e_th - model.dispersion(k))

    val = adaptive_quad(folded, 0.0, np.arctan(np.sqrt(model.k_max)), tol=1e-11, args=(E,))
    return model.g**2 * val.real


def sigma_closed_form(model: GenericSelfEnergyModel, E):
    """g^2 Delta(E) + g^2 Lam(E)/sqrt(E_th - E) from the model's coefficients;
    a float for a scalar E, else an array of E's shape."""
    E = _below_threshold(model, E)
    E1 = np.atleast_1d(E)
    d = np.asarray(model._coefficient("delta")(E1), dtype=float)
    l = np.asarray(model._coefficient("lam_coeff")(E1), dtype=float)
    sigma = model.g**2 * d + model.g**2 * l / np.sqrt(model.e_th - E1)
    return float(sigma[0]) if E.ndim == 0 else sigma


def threshold_roots(model: GenericSelfEnergyModel, refine: bool = False):
    """Three near-threshold energies from the cubic in x = sqrt(E_th - E).

    By default Delta and Lam are frozen at the threshold (leading order).
    With refine=True each root is Newton-continued (``_polish`` from its last
    value) to a fixed point of the cubic with Delta(E), Lam(E) re-evaluated at
    its energy; if that stalls the frozen roots return with a warning.

    Returns (energies, converged_flag).
    """
    g = model.g
    d0, l0 = model.delta_at_threshold(), model.lam_at_threshold()
    xs = _monic_roots(np.array([0.0, g**2 * d0, g**2 * l0]))
    energies = model.e_th - xs**2
    if not refine:
        return energies, True
    # each live root steps on its own row; `energies` stays the fallback
    x, E = xs.copy(), energies.copy()
    done = np.zeros(x.size, dtype=bool)
    for _ in range(80):
        live = ~done
        d = np.asarray(model._coefficient("delta")(E[live]), dtype=complex)
        l = np.asarray(model._coefficient("lam_coeff")(E[live]), dtype=complex)
        rows = np.stack([np.zeros_like(d), g**2 * d, g**2 * l], axis=1)
        x_new = _polish(rows, x[live, None])[0][:, 0]
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
    Lam(E_th) != 0 (DomainError otherwise).
    """
    return model.e_th - (model.g**2 * abs(model.lam_at_threshold())) ** (2.0 / 3.0)


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
                over one Brillouin zone, |k| <= pi, with weight 1/(2 pi),
                so w(k) = 4 sin^2(k/2), which keeps its digits as k -> 0;
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
            dispersion=lambda k: 4.0 * np.sin(0.5 * k) ** 2,
            k_max=np.pi,
        )
    raise DomainError(f"unknown builtin model '{name}'")


def make_singular_v_model(g: float) -> GenericSelfEnergyModel:
    """Counterexample model with v(k) = |k|^(-1/4), singular at the threshold.

    Its self-energy diverges like (E_th - E)^(-3/4) rather than the inverse
    square root, so Sigma * sqrt(E_th - E) has no finite threshold limit and
    the anomalous coalescence disappears.  The model has no Delta or Lam, so
    sigma_closed_form and the threshold cubic raise DomainError;
    self_energy_quadrature gives Sigma(E) = -sqrt(2) pi g^2 (E_th - E)^(-3/4).
    """
    return GenericSelfEnergyModel(
        e_th=0.0,
        v=lambda k: np.abs(k) ** -0.25,
        g=g,
    )
