import numpy as np
import pytest

from bandedge import jordan
from bandedge.jordan import (
    PHI_D,
    PHI_D_PRIME,
    PSI_D,
    PSI_MINUS,
    PSI_PLUS,
    build_pencil,
    eigenvalue_one_defect,
    jordan_chain_check,
    limit_matrix,
    limiting_combinations,
    pencil_determinant_ratio,
    verify_jordan_form,
)
from bandedge.model import ModelParams
from bandedge.spectrum import solve_quartic_lambda_raw


class TestPencil:
    def test_entries(self):
        A, B = build_pencil(ModelParams(epsilon_d=-2.0, g=0.5))
        assert list(A[2]) == [1.0, 0.0, 0.0, -0.5]
        assert list(A[3]) == [0.0, 1.0, -0.5, -2.0]
        assert np.allclose(B, np.diag([1, 1, 1, -1]))

    def test_b_is_involution(self):
        _, B = build_pencil(ModelParams(epsilon_d=-2.0, g=0.5))
        assert np.allclose(B @ B, np.eye(4))

    def test_determinant_equals_quartic(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            p = ModelParams(
                epsilon_d=float(rng.uniform(-3, 3)), g=float(rng.uniform(0, 1))
            )
            lam = complex(rng.normal(), rng.normal())
            assert pencil_determinant_ratio(p, lam) == pytest.approx(1.0, abs=1e-10)

    def test_pencil_eigenvalues_match_quartic(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            p = ModelParams(
                epsilon_d=float(rng.uniform(-3, 3)), g=float(rng.uniform(0.05, 1))
            )
            A, B = build_pencil(p)
            eig = np.sort_complex(np.linalg.eigvals(np.linalg.inv(B) @ A))
            lams = np.sort_complex(solve_quartic_lambda_raw(p.epsilon_d, p.g)[0])
            assert np.allclose(eig, lams, atol=1e-10)


class TestLimitMatrix:
    def test_entries(self):
        M = limit_matrix()
        assert M[3, 3] == 2
        assert M[3, 1] == -1
        assert M[2, 0] == 1

    def test_b_times_limit_is_a(self):
        M = limit_matrix()
        B = np.diag([1, 1, 1, -1])
        A, _ = build_pencil(ModelParams(epsilon_d=-2.0, g=0.0))
        assert np.array_equal(B @ M, A.astype(int))

    def test_eigenvalues(self):
        ev = np.sort(np.linalg.eigvals(limit_matrix().astype(float)).real)
        assert ev[0] == pytest.approx(-1.0, abs=1e-8)
        for v in ev[1:]:
            assert v == pytest.approx(1.0, abs=1e-5)


class TestJordanForm:
    def test_exact_transformation(self):
        ok, J = verify_jordan_form()
        assert ok
        want = np.array([[-1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
        assert np.array_equal(J, want)

    def test_mismatch_is_a_flag_not_an_exception(self, monkeypatch):
        monkeypatch.setattr(jordan, "limit_matrix", lambda: np.diag([-1, 1, 1, 2]))
        ok, J = verify_jordan_form()
        assert not ok
        # the display matrix is R^{-1} M R for the stand-in
        R = np.column_stack([PSI_PLUS, PSI_D, PHI_D, PSI_MINUS])
        assert np.allclose(R @ J, np.diag([-1, 1, 1, 2]) @ R)

    def test_defective_multiplicities(self):
        alg, geo = eigenvalue_one_defect()
        assert (alg, geo) == (3, 2)

    def test_multiplicities_are_computed(self, monkeypatch):
        # a diagonalizable stand-in with eigenvalue 1 twice gives (2, 2)
        monkeypatch.setattr(jordan, "limit_matrix", lambda: np.diag([-1, 1, 1, 2]))
        assert eigenvalue_one_defect() == (2, 2)
        # a defective stand-in with one 3x3 block for eigenvalue 1 gives (3, 1)
        block = np.array([[-1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
        monkeypatch.setattr(jordan, "limit_matrix", lambda: block)
        assert eigenvalue_one_defect() == (3, 1)

    def test_psi_plus_eigenvector(self):
        M = limit_matrix()
        v = np.array(PSI_PLUS)
        assert np.array_equal(M @ v, -v)

    def test_chain_relations_exact(self):
        residuals = jordan_chain_check()
        assert set(residuals) == {
            "psi_d_eigen",
            "phi_d_chain",
            "phi_d_prime_chain",
            "pseudo_vector_relation",
        }
        for name, res in residuals.items():
            assert res.dtype.kind == "i", name
            assert all(x == 0 for x in res), name

    def test_inverse_operator_reverses_the_chain_shifts(self):
        # A^{-1}B is the inverse of B^{-1}A on this pencil; applied to the
        # pseudo-vectors it shifts by -Psi_d instead of +Psi_d
        M = limit_matrix().astype(object)
        Minv = np.linalg.inv(limit_matrix().astype(float))
        assert np.allclose(Minv @ np.array(PHI_D), np.array(PHI_D) - np.array(PSI_D))
        assert np.allclose(
            Minv @ np.array(PHI_D_PRIME), np.array(PHI_D_PRIME) + np.array(PSI_D)
        )


class TestLimitingCombinations:
    def test_residuals_shrink(self):
        r1 = limiting_combinations(1e-2)
        r2 = limiting_combinations(1e-3)
        for key in r1:
            assert r2[key] < r1[key]

    def test_all_residuals_decay_linearly(self):
        # all three residuals are O(g); the conservative fractional-power
        # bounds on individual entries cancel in the sums
        gs = np.logspace(-4, -2, 9)
        names = ["combo_dot", "combo_pseudo", "combo_band_edge"]
        series = {n: [] for n in names}
        for g in gs:
            res = limiting_combinations(float(g))
            for n in names:
                series[n].append(res[n])
        for n in names:
            slope = np.polyfit(np.log(gs), np.log(series[n]), 1)[0]
            assert slope == pytest.approx(1.0, abs=0.05), n

    def test_band_edge_combo_components(self):
        from bandedge.jordan import limiting_combination_vectors

        vecs = limiting_combination_vectors(1e-3)
        c1 = vecs["combo_dot"]
        assert c1[1] == pytest.approx(1.0, abs=1e-14)
        c3 = vecs["combo_band_edge"]
        assert np.allclose(c3, [1.0, 0.0, 1.0, 0.0], atol=1e-2)

    def test_guard(self):
        from bandedge.errors import DomainError

        with pytest.raises(DomainError):
            limiting_combinations(0.5)


class TestNormDivergenceExponent:
    def test_d_component_diverges_as_g_minus_two_thirds(self):
        from bandedge.spectrum import near_edge_triplet

        gs = np.logspace(-4, -2, 9)
        for which in range(3):
            mags = []
            for g in gs:
                tri = near_edge_triplet(ModelParams(epsilon_d=-2.0, g=float(g)))
                tri = sorted(tri, key=lambda s: (s.energy.imag, s.energy.real))
                mags.append(abs(tri[which].psid_sq))
            slope = np.polyfit(np.log(gs), np.log(mags), 1)[0]
            assert slope == pytest.approx(-2.0 / 3.0, abs=0.02)
