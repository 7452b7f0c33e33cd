"""Jordan structure of the threshold coalescence in the g -> 0 limit.

The quadratic eigenvalue problem linearizes to the 4x4 pencil (A - lam B).
At g = 0, eps_d = -2 the matrix B^{-1}A is non-diagonalizable: eigenvalue 1
has algebraic multiplicity 3 but geometric multiplicity 2, i.e. a single
2x2 Jordan block plus an extra degeneracy.  Everything at the limit point is
checked in exact integer arithmetic: B is an involution, so B^{-1}A = B A,
and the Jordan form is certified as M R = R J with R of exact full rank,
so no inverse is formed.  Floating point enters only for g > 0.
"""

from __future__ import annotations

import numpy as np

from .errors import ConsistencyError, DomainError
from .model import ModelParams
from .spectrum import _OMEGA, near_edge_triplet, threshold_labels


def build_pencil(params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(A, B) of the linearization (A - lam B) Psi = 0; det B = -1."""
    g, e = params.g, params.epsilon_d
    A = np.array(
        [
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0, -g],
            [0.0, 1.0, -g, e],
        ]
    )
    B = np.diag([1.0, 1.0, 1.0, -1.0])
    return A, B


# --- exact integer rank ------------------------------------------------------

def _rank(X) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    rows = [[int(x) for x in row] for row in X]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col]
            rows[r] = [p[col] * x - f * y for x, y in zip(rows[r], p)]
        rank += 1
    return rank


# --- the g = 0, eps_d = -2 limit ---------------------------------------------

# generalized eigenvectors at the threshold coalescence
PSI_PLUS = (-1, 0, 1, 0)   # eigenvalue -1; merged with the upper band edge
PSI_D = (0, 1, 0, 1)       # eigenvalue +1; the uncoupled dot state
PHI_D = (0, -1, 0, 0)      # pseudo-eigenvector partnering PSI_D
PHI_D_PRIME = (0, 0, 0, -1)  # alternative pseudo-eigenvector
PSI_MINUS = (1, 0, 1, 0)   # eigenvalue +1; merged with the lower band edge

JORDAN_FORM = np.array([[-1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def limit_matrix() -> np.ndarray:
    """B^{-1} A at g = 0, eps_d = -2 (exact integer entries).

    B is an involution, checked exactly, so B^{-1} A = B A.
    """
    # entries 0, +-1, -2: exact
    A, B = (X.astype(int) for X in build_pencil(ModelParams(epsilon_d=-2.0, g=0.0)))
    if not np.array_equal(B @ B, np.eye(4, dtype=int)):
        raise ConsistencyError("B of the linearization is not an involution")
    return B @ A


def verify_jordan_form() -> tuple[bool, np.ndarray]:
    """Exact check that R^{-1} (B^{-1}A) R is diag(-1) + [[1,1],[0,1]] + diag(1).

    R has columns (Psi_plus, Psi_d, Phi_d, Psi_minus); it has exact rank 4
    (det R = 2), so the statement is M R = R J in integers and no inverse
    is formed.  Returns (ok, J): J is the integer Jordan form when ok, and
    otherwise the float R^{-1} M R, for display only.
    """
    M = limit_matrix()
    R = np.column_stack([PSI_PLUS, PSI_D, PHI_D, PSI_MINUS])
    ok = _rank(R) == 4 and np.array_equal(M @ R, R @ JORDAN_FORM)
    return ok, JORDAN_FORM.copy() if ok else np.linalg.solve(R, M @ R)


def eigenvalue_one_defect() -> tuple[int, int]:
    """(algebraic, geometric) multiplicity of eigenvalue 1 of the limit matrix.

    Exact: with N = M - I, the geometric multiplicity is 4 - rank(N) and the
    algebraic one 4 - rank(N^4), the dimension of the generalized eigenspace.
    """
    N = limit_matrix() - np.eye(4, dtype=int)
    return 4 - _rank(np.linalg.matrix_power(N, 4)), 4 - _rank(N)


def jordan_chain_check() -> dict[str, np.ndarray]:
    """Exact integer residuals of the Jordan-chain relations at the limit point.

    The relations hold for the operator B^{-1}A:

        (B^{-1}A) Psi_d   = Psi_d
        (B^{-1}A) Phi_d   = Phi_d + Psi_d
        (B^{-1}A) Phi_d'  = Phi_d' - Psi_d
        Phi_d = -Phi_d' - Psi_d

    (A^{-1}B is the inverse operator on this pencil and satisfies the
    inverted relations, with the Psi_d shifts reversed in sign.)
    """
    M = limit_matrix()
    psi_d, phi_d, phi_d_prime = np.array(PSI_D), np.array(PHI_D), np.array(PHI_D_PRIME)
    return {
        "psi_d_eigen": M @ psi_d - psi_d,
        "phi_d_chain": M @ phi_d - phi_d - psi_d,
        "phi_d_prime_chain": M @ phi_d_prime - phi_d_prime + psi_d,
        "pseudo_vector_relation": phi_d + phi_d_prime + psi_d,
    }


# --- connecting finite g to the limit ----------------------------------------

def _ratio_vector(lam: complex, g: float) -> np.ndarray:
    """|Psi_j> / <d|psi_j> = (g lam/(1-lam^2), 1, g lam^2/(1-lam^2), lam).

    Branch-free: the d-component square root cancels between the eigenvector
    and the combination weights.
    """
    r = g * lam / (1.0 - lam * lam)
    return np.array([r, 1.0, r * lam, lam], dtype=complex)


def limiting_combination_vectors(g: float) -> dict[str, np.ndarray]:
    """The three eigenstate combinations at eps_d = -2 for finite g.

    combo_dot        -> Psi_d       (weights 1/3)
    combo_pseudo     -> Phi_d'      (weights e^{-2 pi i a/3} / (3 (g^2/2)^{1/3}))
    combo_band_edge  -> Psi_minus   (weights e^{+2 pi i a/3} / (3 (g/4)^{1/3}))

    with a the phase index of each threshold state; each weight also divides
    by the d-component of its state, which the ratio form absorbs.
    """
    if not 0 < g < 0.3:
        raise DomainError("combinations are defined for small g at threshold")
    params = ModelParams(epsilon_d=-2.0, g=g)
    labeled = threshold_labels(near_edge_triplet(params))
    c1 = np.zeros(4, dtype=complex)
    c2 = np.zeros(4, dtype=complex)
    c3 = np.zeros(4, dtype=complex)
    w2_scale = 3.0 * (g**2 / 2.0) ** (1.0 / 3.0)
    w3_scale = 3.0 * (g / 4.0) ** (1.0 / 3.0)
    for alpha, s in labeled.items():
        v = _ratio_vector(s.lam, g)
        c1 += v / 3.0
        c2 += _OMEGA[-alpha % 3] / w2_scale * v  # e^{-2 pi i alpha/3}
        c3 += _OMEGA[alpha % 3] / w3_scale * v  # e^{+2 pi i alpha/3}
    return {"combo_dot": c1, "combo_pseudo": c2, "combo_band_edge": c3}


def limiting_combinations(g: float) -> dict[str, float]:
    """Euclidean residuals of the three combinations against their limits.

    All three residuals decay linearly in g: the fractional-power corrections
    allowed by the entry-wise expansions cancel identically in the sums
    (surviving terms need total phase-index multiples of three, which forces
    integer powers of g).
    """
    vecs = limiting_combination_vectors(g)
    targets = {
        "combo_dot": np.array(PSI_D, dtype=complex),
        "combo_pseudo": np.array(PHI_D_PRIME, dtype=complex),
        "combo_band_edge": np.array(PSI_MINUS, dtype=complex),
    }
    return {
        name: float(np.linalg.norm(vecs[name] - targets[name])) for name in vecs
    }


def pencil_determinant_ratio(params: ModelParams, lam: complex) -> complex:
    """det(A - lam B) / f(lam); equals +/-1 for every lam (pencil <-> quartic).
    f(lam) = -lam^4 - eps_d lam^3 - g^2 lam^2 + eps_d lam + 1."""
    A, B = build_pencil(params)
    e = params.epsilon_d
    return np.linalg.det(A - lam * B) / np.polyval([-1.0, -e, -params.g**2, e, 1.0], complex(lam))
