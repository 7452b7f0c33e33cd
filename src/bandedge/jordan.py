"""Jordan structure of the threshold coalescence in the g -> 0 limit.

The quadratic eigenvalue problem linearizes to the 4x4 pencil (A - lam B).
At g = 0, eps_d = -2 the matrix B^{-1}A is non-diagonalizable: eigenvalue 1
has algebraic multiplicity 3 but geometric multiplicity 2, i.e. a single
2x2 Jordan block plus an extra degeneracy.  Everything at the limit point is
checked in exact rational arithmetic; floating point enters only for g > 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConsistencyError, DomainError
from .model import ModelParams
from .spectrum import lambda_quartic_coeffs, near_edge_triplet, threshold_labels

Mat = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class GeneralizedPencil:
    """(A, B) of the linearization (A - lam B) Psi = 0; det B = -1."""

    A: np.ndarray
    B: np.ndarray


def build_pencil(params: ModelParams) -> GeneralizedPencil:
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
    return GeneralizedPencil(A=A, B=B)


# --- exact rational 4x4 helpers ---------------------------------------------

def _frac_mat(rows) -> Mat:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _matmul(X: Mat, Y: Mat) -> Mat:
    n = len(X)
    return tuple(
        tuple(sum(X[i][k] * Y[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


def _matvec(X: Mat, v) -> tuple[Fraction, ...]:
    return tuple(sum(X[i][k] * Fraction(v[k]) for k in range(len(v))) for i in range(len(v)))


def _rref(rows) -> tuple[list[list[Fraction]], int]:
    """Exact Gauss-Jordan reduction: the reduced rows and the rank.

    Pivots are sought in the first len(rows) columns, so a square matrix
    with the identity appended reduces to [I | X^{-1}] when X is regular.
    """
    rows = [list(r) for r in rows]
    n, rank = len(rows), 0
    for col in range(n):
        piv = next((r for r in range(rank, n) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank][col]
        rows[rank] = [x / p for x in rows[rank]]
        for r in range(n):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rows, rank


def _inverse(X: Mat) -> Mat:
    n = len(X)
    aug = [list(X[i]) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    rows, rank = _rref(aug)
    if rank < n:
        raise ConsistencyError("singular matrix in exact inverse")
    return tuple(tuple(row[n:]) for row in rows)


# --- the g = 0, eps_d = -2 limit ---------------------------------------------

# generalized eigenvectors at the threshold coalescence
PSI_PLUS = (-1, 0, 1, 0)   # eigenvalue -1; merged with the upper band edge
PSI_D = (0, 1, 0, 1)       # eigenvalue +1; the uncoupled dot state
PHI_D = (0, -1, 0, 0)      # pseudo-eigenvector partnering PSI_D
PHI_D_PRIME = (0, 0, 0, -1)  # alternative pseudo-eigenvector
PSI_MINUS = (1, 0, 1, 0)   # eigenvalue +1; merged with the lower band edge

JORDAN_FORM = _frac_mat([[-1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])


def limit_matrix() -> np.ndarray:
    """B^{-1} A at g = 0, eps_d = -2 (exact integer entries)."""
    P = build_pencil(ModelParams(epsilon_d=-2.0, g=0.0))
    M = _matmul(_inverse(_frac_mat(P.B)), _frac_mat(P.A))
    return np.array([[int(x) for x in row] for row in M])


def verify_jordan_form() -> tuple[bool, np.ndarray]:
    """Exact check that R^{-1} (B^{-1}A) R is diag(-1) + [[1,1],[0,1]] + diag(1).

    R has columns (Psi_plus, Psi_d, Phi_d, Psi_minus).  The comparison is
    exact integer arithmetic; a mismatch is a hard structural failure.
    """
    M = _frac_mat(limit_matrix())
    R = _frac_mat(np.column_stack([PSI_PLUS, PSI_D, PHI_D, PSI_MINUS]))
    J = _matmul(_matmul(_inverse(R), M), R)
    ok = J == JORDAN_FORM
    J_np = np.array([[float(x) for x in row] for row in J])
    if not ok:
        raise ConsistencyError(f"Jordan form mismatch:\n{J_np}")
    return ok, J_np


def eigenvalue_one_defect() -> tuple[int, int]:
    """(algebraic, geometric) multiplicity of eigenvalue 1 of the limit matrix.

    Exact: with N = M - I, the geometric multiplicity is 4 - rank(N) and the
    algebraic one 4 - rank(N^4), the dimension of the generalized eigenspace.
    """
    M = _frac_mat(limit_matrix())
    N = tuple(tuple(M[i][j] - (i == j) for j in range(4)) for i in range(4))
    N2 = _matmul(N, N)
    return 4 - _rref(_matmul(N2, N2))[1], 4 - _rref(N)[1]


def jordan_chain_check() -> dict[str, tuple[Fraction, ...]]:
    """Exact residuals of the Jordan-chain relations at the limit point.

    The relations hold for the operator B^{-1}A:

        (B^{-1}A) Psi_d   = Psi_d
        (B^{-1}A) Phi_d   = Phi_d + Psi_d
        (B^{-1}A) Phi_d'  = Phi_d' - Psi_d
        Phi_d = -Phi_d' - Psi_d

    (A^{-1}B is the inverse operator on this pencil and satisfies the
    inverted relations, with the Psi_d shifts reversed in sign.)
    """
    M = _frac_mat(limit_matrix())
    res = {}
    res["psi_d_eigen"] = tuple(
        a - Fraction(b) for a, b in zip(_matvec(M, PSI_D), PSI_D)
    )
    res["phi_d_chain"] = tuple(
        a - Fraction(b) - Fraction(c)
        for a, b, c in zip(_matvec(M, PHI_D), PHI_D, PSI_D)
    )
    res["phi_d_prime_chain"] = tuple(
        a - Fraction(b) + Fraction(c)
        for a, b, c in zip(_matvec(M, PHI_D_PRIME), PHI_D_PRIME, PSI_D)
    )
    res["pseudo_vector_relation"] = tuple(
        Fraction(a) + Fraction(b) + Fraction(c)
        for a, b, c in zip(PHI_D, PHI_D_PRIME, PSI_D)
    )
    return res


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
        c2 += np.exp(-2j * np.pi * alpha / 3.0) / w2_scale * v
        c3 += np.exp(+2j * np.pi * alpha / 3.0) / w3_scale * v
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
    """det(A - lam B) / f(lam); equals +/-1 for every lam (pencil <-> quartic)."""
    P = build_pencil(params)
    det = np.linalg.det(P.A - lam * P.B)
    return det / np.polyval(lambda_quartic_coeffs(params.epsilon_d, params.g), lam)
