import mpmath as mp
import numpy as np
import pytest

from bandedge.errors import BranchCutError, BranchPointError, DomainError
from bandedge.model import (
    ModelParams,
    Sheet,
    density_of_states,
    effective_hamiltonian,
    energy_from_lambda,
    lambda_from_energy,
    self_energy,
)
from bandedge.spectrum import solve_quartic_lambda_raw

# exact bound-state energy at g = 0.5, eps_d = -2 (40-digit quartic root)
E_BOUND_G05 = -2.24509301570974979
LAM_BOUND_G05 = 0.612536054729476


class TestEnergyFromLambda:
    def test_band_edges(self):
        assert energy_from_lambda(1.0) == -2.0
        assert energy_from_lambda(-1.0) == 2.0

    def test_arithmetic(self):
        assert energy_from_lambda(0.5) == -2.5

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            energy_from_lambda(0.0)

    def test_sheet_pairing(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = complex(rng.normal(), rng.normal())
            if abs(lam) < 1e-3:
                continue
            assert energy_from_lambda(lam) == pytest.approx(
                energy_from_lambda(1.0 / lam), abs=1e-12
            )


class TestLambdaFromEnergy:
    def test_factorized_example(self):
        # E = -2.5: lam^2 - 2.5 lam + 1 = (lam - 0.5)(lam - 2)
        assert lambda_from_energy(-2.5, Sheet.FIRST) == pytest.approx(0.5, abs=1e-14)
        assert lambda_from_energy(-2.5, Sheet.SECOND) == pytest.approx(2.0, abs=1e-14)

    def test_edge_degeneracy(self):
        with pytest.raises(BranchCutError) as exc:
            lambda_from_energy(-2.0, Sheet.FIRST)
        assert len(exc.value.roots) == 2
        for r in exc.value.roots:
            assert r == pytest.approx(1.0, abs=1e-6)

    def test_in_band_energy_has_no_unique_sheet_root(self):
        for E in (-1.3, 0.0, 1.9):
            with pytest.raises(BranchCutError) as exc:
                lambda_from_energy(E, Sheet.FIRST)
            for r in exc.value.roots:
                assert abs(abs(r) - 1.0) < 1e-10

    def test_sheet_just_off_the_cut(self):
        # the sheet follows the sign of Im E however small it is, not |lam|
        # against 1 (a fixed tolerance on |lam| - 1 raised BranchCutError)
        for x in (-1.3, 0.0, 1.9):
            for s in (1.0, -1.0):
                far = lambda_from_energy(complex(x, s * 1e-6), Sheet.FIRST)
                assert abs(far) < 1.0
                for sheet in Sheet:
                    near = lambda_from_energy(complex(x, s * 1e-200), sheet)
                    ref = far if sheet is Sheet.FIRST else 1.0 / far
                    assert abs(near - ref) < 1e-5

    def test_bound_state_energy(self):
        lam = lambda_from_energy(E_BOUND_G05, Sheet.FIRST)
        assert lam == pytest.approx(LAM_BOUND_G05, abs=1e-12)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            lam = complex(rng.normal(), rng.normal())
            if abs(abs(lam) - 1.0) < 1e-2 or abs(lam) < 1e-2:
                continue
            sheet = Sheet.FIRST if abs(lam) < 1 else Sheet.SECOND
            back = lambda_from_energy(energy_from_lambda(lam), sheet)
            assert back == pytest.approx(lam, abs=1e-12)

    def test_roots_multiply_to_one(self):
        E = 1.7 + 0.3j
        r1 = lambda_from_energy(E, Sheet.FIRST)
        r2 = lambda_from_energy(E, Sheet.SECOND)
        assert r1 * r2 == pytest.approx(1.0, abs=1e-14)


class TestDensityOfStates:
    def test_formula_values(self):
        assert density_of_states(0.0) == pytest.approx(0.5, abs=1e-15)
        assert density_of_states(np.sqrt(3.0)) == pytest.approx(1.0, abs=1e-12)

    def test_divergence_scaling_at_edge(self):
        # dos(E) * sqrt(2 - E) -> 1/2 as E -> 2
        for dE in (1e-3, 1e-5, 1e-7):
            val = density_of_states(2.0 - dE) * np.sqrt(dE)
            assert val == pytest.approx(0.5, rel=3 * dE)

    def test_outside_band_rejected(self):
        for E in (2.0, -2.0, 2.5, -3.0):
            with pytest.raises(DomainError):
                density_of_states(E)

    def test_normalization_identity(self):
        for E in np.linspace(-1.999, 1.999, 41):
            assert density_of_states(E) * np.sqrt(4.0 - E * E) == pytest.approx(
                1.0, abs=1e-12
            )


class TestSelfEnergy:
    def test_below_band_first_sheet(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        assert self_energy(p, -2.5, Sheet.FIRST) == pytest.approx(
            -0.25 / 1.5, abs=1e-14
        )

    def test_decoupled(self):
        p = ModelParams(epsilon_d=-1.0, g=0.0)
        for E in (-2.5, 3.0, 0.5, 1.0 + 1.0j):
            assert self_energy(p, E, Sheet.FIRST) == 0.0

    def test_second_sheet_continuation(self):
        # the second sheet flips the square-root sign; cross-checked through
        # the quadratic root with |lam| > 1
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        val = self_energy(p, -2.5, Sheet.SECOND)
        assert val == pytest.approx(+0.25 / 1.5, abs=1e-14)
        lam2 = lambda_from_energy(-2.5, Sheet.SECOND)
        assert val == pytest.approx(-p.g**2 * lam2 / (1 - lam2**2), abs=1e-14)

    def test_band_edge_rejected(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        for E in (2.0, -2.0):
            with pytest.raises(BranchPointError):
                self_energy(p, E, Sheet.FIRST)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("k", [4, 8, 10, 12, 14])
    def test_van_hove_edge_keeps_its_digits(self, sign, k):
        # 1/sqrt(4 - E^2) at E = +-(2 - 10^-k) to 50 digits; 4 - E*E drops
        # the d^2 of d = 2 - |E| (relative error d/8), and a fixed 1e-14 band
        # around the edges made E = +-(2 - 1e-14) a branch point
        E = sign * (2.0 - 10.0**-k)
        with mp.workdps(50):
            ref = 1 / mp.sqrt((2 - mp.mpf(E)) * (2 + mp.mpf(E)))
            dos_err = abs(density_of_states(E) - ref) / ref
            sigma = self_energy(ModelParams(epsilon_d=-2.0, g=1.0), E, Sheet.FIRST)
            sigma_err = abs(mp.mpc(sigma) - 1j * ref) / ref
        assert dos_err < 2.2e-16 and sigma_err < 2.2e-16

    def test_in_band_upper_lip_convention(self):
        # documented convention: -g^2/(i sqrt(4-E^2)) on the first sheet
        p = ModelParams(epsilon_d=-2.0, g=0.3)
        val = self_energy(p, 0.7, Sheet.FIRST)
        expected = -p.g**2 / (1j * np.sqrt(4.0 - 0.49))
        assert val == pytest.approx(expected, abs=1e-14)
        assert self_energy(p, 0.7, Sheet.SECOND) == pytest.approx(
            -expected, abs=1e-14
        )

    def test_in_band_convention_is_a_unit_circle_evaluation(self):
        # the documented in-band branch coincides with the closed form
        # -g^2 lam/(1-lam^2) on the lower half of the unit circle
        # (lam = e^{-ik}), the only way the sign is ever cross-checked
        p = ModelParams(epsilon_d=-2.0, g=0.3)
        for k in (0.4, 1.1, 2.2):
            E = -2.0 * np.cos(k)
            lam = np.exp(-1j * k)
            assert self_energy(p, E, Sheet.FIRST) == pytest.approx(
                -p.g**2 * lam / (1 - lam**2), abs=1e-13
            )

    def test_schwarz_reflection(self):
        p = ModelParams(epsilon_d=-2.0, g=0.4)
        rng = np.random.default_rng(3)
        for sheet in (Sheet.FIRST, Sheet.SECOND):
            for _ in range(20):
                E = complex(rng.normal(), rng.normal() + 0.2)
                a = self_energy(p, E, sheet)
                b = self_energy(p, E.conjugate(), sheet)
                assert a.conjugate() == pytest.approx(b, abs=1e-12)

    def test_decays_at_infinity_first_sheet(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        prev = abs(self_energy(p, -10.0, Sheet.FIRST))
        for E in (-100.0, -1000.0):
            cur = abs(self_energy(p, E, Sheet.FIRST))
            assert cur < prev
            prev = cur
        assert prev < 1e-3


class TestEffectiveHamiltonian:
    def test_decoupled_diagonal(self):
        p = ModelParams(epsilon_d=-1.5, g=0.0)
        H = effective_hamiltonian(p, 0.7)
        assert H[0, 1] == 0 and H[1, 0] == 0
        assert H[0, 0] == pytest.approx(-1.4)
        assert H[1, 1] == pytest.approx(-1.5)

    def test_substitution(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        H = effective_hamiltonian(p, 1.0)
        assert np.allclose(H, [[-2.0, -0.5], [-0.5, -2.0]])

    def test_eigenvalue_condition_on_quartic_roots(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        for lam, E in zip(*solve_quartic_lambda_raw(p.epsilon_d, p.g)):
            H = effective_hamiltonian(p, lam)
            det = np.linalg.det(H - E * np.eye(2))
            assert abs(det) < 1e-10


class TestModelParams:
    @pytest.mark.parametrize(
        "eps_d, g, message",
        [(np.nan, 0.1, "epsilon_d = nan is not finite"),
         (-2.0, np.inf, "g = inf is not finite")],
        ids=str,
    )
    def test_non_finite_field_is_named(self, eps_d, g, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            ModelParams(epsilon_d=eps_d, g=g)
