"""Core model: dispersion maps, density of states, self-energy, effective Hamiltonian.

Model: a single quantum dot with on-site energy ``eps_d`` side-coupled with
strength ``g`` to site 0 of an infinite 1-D tight-binding chain.  The hopping
J = 1 and the lattice constant are the units throughout; hbar = 1.

The canonical spectral variable is ``lam = exp(i k)``.  Every energy-plane
quantity is derived from it: the continuum dispersion is

    E = -lam - 1/lam,

and Riemann-sheet bookkeeping reduces to |lam| < 1 (first, physical sheet)
versus |lam| > 1 (second sheet).  The unit circle |lam| = 1 is the branch cut
E in [-2, 2].
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import BranchCutError, BranchPointError, DomainError


class Sheet(Enum):
    FIRST = "first"
    SECOND = "second"


@dataclass(frozen=True)
class ModelParams:
    """Dot energy and dot-chain coupling, in units of J = 1."""

    epsilon_d: float
    g: float

    def __post_init__(self):
        for name in ("epsilon_d", "g"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise DomainError(f"{name} = {v} is not finite")
        if not self.g >= 0.0:
            raise DomainError(f"coupling g must be >= 0, got {self.g}")


def energy_from_lambda(lam: complex) -> complex:
    """E = -lam - 1/lam.  Both lam and 1/lam map to the same energy."""
    if lam == 0:
        raise DomainError("lam = 0 has no finite energy image")
    lam = complex(lam)
    return -lam - 1.0 / lam


def lambda_from_energy(E: complex, sheet: Sheet) -> complex:
    """Invert E = -lam - 1/lam on the requested Riemann sheet.

    Returns the root of lam^2 + E lam + 1 = 0 with |lam| < 1 for the first
    sheet and |lam| > 1 for the second.  The two sheet roots multiply to 1.

    Raises
    ------
    DomainError
        If E is not finite.
    BranchCutError
        If E lies on the cut, Im E == 0 and |Re E| <= 2, where both roots
        lie on the unit circle; the error carries both roots.  The test is
        exact: off the cut the sheets are told apart by the sign of Im E
        (or by E itself for real E), not by |lam| against 1, so an E
        however close to the cut gets its own sheet's root.
    """
    E = complex(E)
    if not cmath.isfinite(E):
        raise DomainError(f"E = {E} outside the domain: E must be finite")
    # sqrt(E - 2) sqrt(E + 2) is sqrt(E^2 - 4) with its cut on [-2, 2], so
    # -E - sqrt is the root outside the circle on either side of the cut
    # however small Im E is, free of cancellation; the other root is its
    # reciprocal (the two multiply to 1)
    big = 0.5 * (-E - cmath.sqrt(E - 2.0) * cmath.sqrt(E + 2.0))
    small = 1.0 / big
    if E.imag == 0.0 and abs(E.real) <= 2.0:
        raise BranchCutError(
            f"E = {E} lies on the branch cut [-2, 2]; sheet roots degenerate",
            roots=(small, big),
        )
    if sheet is Sheet.FIRST:
        return small
    return big


def density_of_states(E: float) -> float:
    """1-D tight-binding density of states 1/sqrt(4 - E^2) for |E| < 2."""
    E = float(E)
    if not abs(E) < 2.0:
        raise DomainError(
            f"density of states defined inside the band only; need |E| < 2, got E = {E}"
        )
    return 1.0 / np.sqrt((2.0 - E) * (2.0 + E))


def self_energy(params: ModelParams, E: complex, sheet: Sheet) -> complex:
    """Self-energy Sigma(E) of the dot on a given Riemann sheet.

    Off the cut this is the sheet-free closed form -g^2 lam / (1 - lam^2),
    with lam from ``lambda_from_energy``, which guarantees first-sheet decay
    Sigma -> 0 as |E| -> inf.  For real E inside the band the upper-lip
    convention is applied on the first sheet:

        Sigma(E + i0+) = -g^2 / (i sqrt(4 - E^2))   (positive imaginary part)

    and the second sheet flips the sign of the square-root term.  Note this
    in-band sign convention yields Im Sigma > 0 on the first sheet, opposite
    to the usual retarded convention; it is kept as the documented convention
    of the dispersion relation used here, and all quantitative checks in this
    package go through the lam-plane closed form instead.

    Raises
    ------
    DomainError
        If E is not finite.
    BranchPointError
        At the band edges E = +/-2 exactly.
    """
    E = complex(E)
    g2 = params.g**2
    if E.imag == 0.0:
        x = E.real
        if abs(x) == 2.0:
            raise BranchPointError(f"E = {x} is a band edge (van Hove point)")
        if abs(x) < 2.0:
            val = -g2 / (1j * np.sqrt((2.0 - x) * (2.0 + x)))
            return val if sheet is Sheet.FIRST else -val
    lam = lambda_from_energy(E, sheet)
    return -g2 * lam / (1.0 - lam * lam)


def effective_hamiltonian(params: ModelParams, lam: complex) -> np.ndarray:
    """Energy-dependent 2x2 effective Hamiltonian on the (site 0, dot) block.

    [[-2 lam, -g], [-g, eps_d]] with the convention exp(ik) = lam.  Its
    eigenvalue condition at E = -lam - 1/lam is the dispersion relation
    E - eps_d = Sigma(E).
    """
    if lam == 0:
        raise DomainError("lam = 0 not allowed")
    lam = complex(lam)
    return np.array(
        [[-2.0 * lam, -params.g], [-params.g, params.epsilon_d]], dtype=complex
    )
