import mpmath as mp
import numpy as np
import pytest

from bandedge.errors import DomainError
from bandedge.generic import (
    GenericSelfEnergyModel,
    leading_root_approx,
    make_model,
    make_singular_v_model,
    self_energy_quadrature,
    sigma_closed_form,
    threshold_roots,
    xi_intermediates,
)

# closed-form residue evaluation at E = -0.5, g = 0.3 (40 digits)
LORENTZIAN_SIGMA_REF = -0.185721163621604892


class TestSelfEnergyQuadrature:
    def test_flat_profile_textbook_value(self):
        model = make_model("const", 1.0)
        assert self_energy_quadrature(model, -1.0) == pytest.approx(-np.pi, abs=1e-9)

    def test_flat_profile_closed_form_sweep(self):
        model = make_model("const", 0.3)
        for E in np.linspace(-4.0, -0.01, 25):
            q = self_energy_quadrature(model, E)
            want = -np.pi * model.g**2 / np.sqrt(-E)
            assert abs(q - want) < 1e-8

    def test_lorentzian_profile(self):
        model = make_model("lorentzian", 0.3)
        q = self_energy_quadrature(model, -0.5)
        assert q == pytest.approx(LORENTZIAN_SIGMA_REF, abs=1e-9)
        # closed form from the residue decomposition agrees too
        assert sigma_closed_form(model, -0.5) == pytest.approx(q, abs=1e-9)

    def test_lorentzian_against_refined_quadrature(self):
        # doubled-precision control: same integral with a much tighter budget
        from bandedge.quadrature import adaptive_quad

        model = make_model("lorentzian", 0.2)
        for E in (-1.5, -0.3, -0.05):
            coarse = self_energy_quadrature(model, E)

            def mapped(u):
                k = np.tan(u)
                return (
                    np.abs(model.v(k)) ** 2 * (1 + k * k) / (E - k * k)
                )

            fine = model.g**2 * adaptive_quad(
                mapped, -np.pi / 2, np.pi / 2, tol=1e-13
            ).real
            assert abs(coarse - fine) < 1e-9

    def test_main_text_model_reproduces_chain_self_energy(self):
        model = make_model("main-text", 0.25)
        for E in (-2.1, -2.5, -3.5):
            q = self_energy_quadrature(model, E)
            want = -model.g**2 / np.sqrt(E * E - 4.0)
            assert abs(q - want) < 1e-8
            assert abs(sigma_closed_form(model, E) - want) < 1e-12

    def test_main_text_chain_at_threshold(self):
        # E_th - E from 1e-1 to 1e-10; the reference factors
        # E^2 - 4 = (E - 2)(E + 2) at 40 digits
        model = make_model("main-text", 0.1)
        E = model.e_th - np.geomspace(1e-1, 1e-10, 19)
        got = self_energy_quadrature(model, E)
        with mp.workdps(40):
            want = [-mp.mpf(model.g) ** 2 / mp.sqrt((mp.mpf(e) - 2) * (mp.mpf(e) + 2)) for e in E]
            rel = [abs((q - w) / w) for q, w in zip(got, want)]
        assert max(rel) <= 1e-15

    def test_refined_main_text_bound_root_solves_the_pole_equation(self):
        # the bound state sits g^(4/3) / 2^(2/3) below E_th: 1.4e-7 at g = 1e-5
        for g in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5):
            model = make_model("main-text", g)
            roots, ok = threshold_roots(model, refine=True)
            assert ok
            E = min(roots, key=lambda z: abs(z.imag)).real
            assert abs(E - model.e_th - self_energy_quadrature(model, E)) <= 1e-14, g

    @pytest.mark.parametrize("k_max", [0.0, -np.pi, np.nan])
    def test_k_max_must_be_positive(self, k_max):
        with pytest.raises(DomainError, match=f"k_max must be > 0, got {k_max}"):
            GenericSelfEnergyModel(e_th=0.0, v=np.ones_like, g=0.1, k_max=k_max)

    def test_domain_guard(self):
        model = make_model("const", 0.1)
        with pytest.raises(DomainError):
            self_energy_quadrature(model, 0.5)

    def test_domain_guard_names_the_first_bad_energy(self):
        model = make_model("const", 0.1)
        for fn in (self_energy_quadrature, sigma_closed_form):
            with pytest.raises(DomainError, match="got 0.5"):
                fn(model, np.array([-1.0, 0.5, 2.0]))
            with pytest.raises(DomainError, match="got nan"):
                fn(model, np.array([-1.0, np.nan]))
        with pytest.raises(DomainError, match="got nan"):
            self_energy_quadrature(make_singular_v_model(0.2), np.nan)


class TestSquareRootReproduction:
    def test_regular_profiles_have_finite_threshold_limit(self):
        # Sigma * sqrt(E_th - E) -> -pi g^2 |v(0)|^2, approached like sqrt(dE)
        # through the analytic part
        for name in ("const", "lorentzian"):
            model = make_model(name, 0.2)
            target = -np.pi * model.g**2 * abs(model.v(np.array([0.0]))[0]) ** 2
            errs = []
            for dE in (1e-2, 1e-4, 1e-6):
                val = self_energy_quadrature(model, model.e_th - dE) * np.sqrt(dE)
                bound = (
                    model.g**2 * abs(model.delta_at_threshold()) + 0.3
                ) * np.sqrt(dE) + 1e-9
                assert abs(val - target) < bound
                errs.append(abs(val - target))
            assert errs[-1] <= errs[0] + 1e-12

    @pytest.mark.xfail(
        strict=True,
        reason="singular coupling profile: the inverse square root is "
        "disturbed and the threshold limit diverges",
    )
    def test_singular_profile_breaks_the_limit(self):
        model = make_singular_v_model(0.2)
        vals = [
            self_energy_quadrature(model, model.e_th - dE) * np.sqrt(dE)
            for dE in (1e-2, 1e-4, 1e-6)
        ]
        # for a regular profile these would stabilize; here they grow ~dE^-1/4
        assert abs(vals[2] - vals[1]) < abs(vals[1] - vals[0])

    def test_singular_profile_divergence_rate(self):
        model = make_singular_v_model(0.2)
        dEs = np.array([1e-1, 1e-2, 1e-3, 1e-4])
        vals = np.array(
            [abs(self_energy_quadrature(model, -dE)) * np.sqrt(dE) for dE in dEs]
        )
        slope = np.polyfit(np.log(dEs), np.log(vals), 1)[0]
        assert slope == pytest.approx(-0.25, abs=0.01)

    @pytest.mark.parametrize("fn, name", [
        (lambda m: sigma_closed_form(m, -1e-4), "delta"),
        (threshold_roots, "delta"),
        (leading_root_approx, "lam_coeff"),
        (xi_intermediates, "delta"),
    ], ids=["sigma_closed_form", "threshold_roots", "leading_root_approx", "xi_intermediates"])
    def test_singular_profile_has_no_closed_form_coefficients(self, fn, name):
        # its Sigma is not g^2 Delta + g^2 Lam / sqrt(E_th - E), so the
        # closed form and the threshold cubic have nothing to stand on
        with pytest.raises(DomainError, match=f"no closed-form coefficient {name}"):
            fn(make_singular_v_model(0.2))

    def test_singular_profile_closed_form(self):
        # int dk |k|^(-1/2) / (E - k^2) = -sqrt(2) pi (E_th - E)^(-3/4)
        model = make_singular_v_model(0.2)
        dE = np.geomspace(1e-8, 1e-1, 29)
        want = -np.sqrt(2.0) * np.pi * model.g**2 * dE**-0.75
        got = self_energy_quadrature(model, model.e_th - dE)
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


class TestThresholdRoots:
    def test_flat_coefficients(self):
        model = GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.zeros_like(E),
            lam_coeff=lambda E: np.ones_like(E),
            v=lambda k: np.ones_like(k),
            g=0.05,
        )
        roots, ok = threshold_roots(model)
        assert ok
        g = model.g
        # the real root from x = -g^{2/3}: E = -g^{4/3}; all satisfy
        # (E - E_th)^3 = -g^4
        real_roots = [E for E in roots if abs(E.imag) < 1e-12]
        assert len(real_roots) == 1
        assert real_roots[0].real == pytest.approx(-g ** (4.0 / 3.0), rel=1e-10)
        for E in roots:
            assert E**3 == pytest.approx(-g**4, rel=1e-8)

    def test_main_text_leading_coefficient(self):
        # the chain's own threshold model gives E = -2 - g^{4/3}/2^{2/3} + ...
        g = 1e-3
        roots, _ = threshold_roots(make_model("main-text", g))
        bound = min(roots, key=lambda E: abs(E.imag))
        want = -2.0 - g ** (4.0 / 3.0) / 2.0 ** (2.0 / 3.0)
        assert bound.real == pytest.approx(want, abs=1e-9)

    def test_convergence_exponent_with_analytic_part(self):
        gs = np.logspace(-4, -2, 9)
        for which in range(3):
            gaps = []
            for g in gs:
                model = GenericSelfEnergyModel(
                    e_th=0.5,
                    delta=lambda E: np.ones_like(E),
                    lam_coeff=lambda E: np.ones_like(E),
                    v=lambda k: np.ones_like(k),
                    g=float(g),
                )
                roots, _ = threshold_roots(model)
                roots = sorted(roots, key=lambda z: (round(z.imag, 12), z.real))
                gaps.append(abs(roots[which] - model.e_th))
            slope = np.polyfit(np.log(gs), np.log(gaps), 1)[0]
            assert slope == pytest.approx(4.0 / 3.0, abs=0.01)

    def test_cubic_reconstruction(self):
        model = make_model("lorentzian", 0.1)
        roots, _ = threshold_roots(model)
        d0 = model.delta_at_threshold()
        l0 = model.lam_at_threshold()
        for E in roots:
            x = np.sqrt(complex(model.e_th - E))
            candidates = [x, -x]
            res = min(
                abs(x0**3 + model.g**2 * d0 * x0 + model.g**2 * l0)
                for x0 in candidates
            )
            assert res < 1e-9

    def test_self_consistent_refinement(self):
        model = make_model("lorentzian", 0.05)
        frozen, _ = threshold_roots(model)
        refined, ok = threshold_roots(model, refine=True)
        assert ok
        # refinement moves the roots but stays within the leading-order scale
        shift = np.max(np.abs(np.sort_complex(frozen) - np.sort_complex(refined)))
        assert 0.0 < shift < model.g ** (8.0 / 3.0) * 10

    def test_cycling_refinement_returns_the_frozen_roots(self):
        # Lam jumps across the real root: the refined root moves above
        # E = -0.13, where Lam doubles and sends it back below, so the
        # Newton continuation cycles
        model = GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.zeros_like(E),
            lam_coeff=lambda E: np.where(np.real(E) > -0.13, -2 * np.pi, -np.pi) * np.ones_like(E),
            v=lambda k: np.ones_like(k),
            g=0.1,
        )
        frozen, _ = threshold_roots(model)
        with pytest.warns(UserWarning, match="did not converge"):
            roots, ok = threshold_roots(model, refine=True)
        assert ok is False
        np.testing.assert_array_equal(roots, frozen)

    def test_lam_zero_rejected(self):
        model = GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.ones_like(E),
            lam_coeff=lambda E: np.zeros_like(E),
            v=lambda k: np.ones_like(k),
            g=0.1,
        )
        with pytest.raises(DomainError):
            threshold_roots(model)
        with pytest.raises(DomainError):
            leading_root_approx(model)


class TestLeadingRoot:
    def test_textbook_value(self):
        model = GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.zeros_like(E),
            lam_coeff=lambda E: np.ones_like(E),
            v=lambda k: np.ones_like(k),
            g=0.1,
        )
        assert leading_root_approx(model) == pytest.approx(
            -(0.01 ** (2.0 / 3.0)), rel=1e-12
        )

    def test_threshold_limit(self):
        model = make_model("const", 1e-9)
        assert leading_root_approx(model) == pytest.approx(0.0, abs=1e-9)

    def test_relative_error_against_cubic(self):
        model = GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.ones_like(E),
            lam_coeff=lambda E: np.ones_like(E),
            v=lambda k: np.ones_like(k),
            g=0.01,
        )
        roots, _ = threshold_roots(model)
        bound = min(roots, key=lambda E: abs(E - leading_root_approx(model)))
        approx = leading_root_approx(model)
        assert abs(approx - bound) / abs(bound - model.e_th) < 0.05


class TestXiIntermediates:
    def test_vanishing_analytic_part(self):
        model = GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.zeros_like(E),
            lam_coeff=lambda E: np.ones_like(E),
            v=lambda k: np.ones_like(k),
            g=0.1,
        )
        xi_p, xi_m, x = xi_intermediates(model)
        assert xi_p == 0.0
        assert xi_m == pytest.approx(-model.g**2, rel=1e-12)
        assert x**3 == pytest.approx(-model.g**2, rel=1e-9)

    def test_reconstruction_residual(self):
        model = GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.ones_like(E),
            lam_coeff=lambda E: np.ones_like(E),
            v=lambda k: np.ones_like(k),
            g=0.1,
        )
        xi_p, xi_m, x = xi_intermediates(model)
        res = abs(x**3 + model.g**2 * x + model.g**2)
        assert res < 1e-10

    @pytest.mark.parametrize("delta, lam", [(1.0, 1.0), (0.0, 1.0), (1.0, -np.pi), (-2.0, 0.5)])
    def test_matches_60_digit_cardano(self, delta, lam):
        g = 1e-4
        model = GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: delta * np.ones_like(E),
            lam_coeff=lambda E: lam * np.ones_like(E),
            v=lambda k: np.ones_like(k),
            g=g,
        )
        xi_p, xi_m, x = xi_intermediates(model)
        with mp.workdps(60):
            P, Q = mp.mpf(g) ** 2 * delta, mp.mpf(g) ** 2 * lam
            rad = mp.sqrt(1 + 4 * mp.mpf(g) ** 2 * mp.mpf(delta) ** 3 / (27 * mp.mpf(lam) ** 2))
            want_p, want_m = -Q * (1 - rad) / 2, -Q * (1 + rad) / 2
            want_x = min(mp.polyroots([1, 0, P, Q], maxsteps=200, extraprec=200),
                         key=lambda r: abs(r - mp.mpc(x)))
            assert abs(xi_p - want_p) <= 1e-14 * abs(want_p)
            assert abs(xi_m - want_m) <= 1e-14 * abs(want_m)
            assert abs(x - want_x) <= 1e-14 * abs(want_x)

    def test_vanishing_divergent_part_rejected(self):
        model = GenericSelfEnergyModel(
            e_th=0.0,
            delta=lambda E: np.ones_like(E),
            lam_coeff=lambda E: np.zeros_like(E),
            v=lambda k: np.ones_like(k),
            g=0.1,
        )
        with pytest.raises(DomainError, match="Lam"):
            xi_intermediates(model)

    def test_intermediate_small_g_orders(self):
        # xi_- ~ -g^2 Lam while xi_+ ~ g^4 Delta^3/(27 Lam): ratio ~ g^2
        gs = np.logspace(-3, -1, 7)
        ratios = []
        for g in gs:
            model = GenericSelfEnergyModel(
                e_th=0.0,
                delta=lambda E: np.ones_like(E),
                lam_coeff=lambda E: np.ones_like(E),
                v=lambda k: np.ones_like(k),
                g=float(g),
            )
            xi_p, xi_m, _ = xi_intermediates(model)
            ratios.append(abs(xi_p / xi_m))
            assert xi_p / xi_m == pytest.approx(
                -g**2 / 27.0, rel=0.05
            )
        slope = np.polyfit(np.log(gs), np.log(ratios), 1)[0]
        assert slope == pytest.approx(2.0, abs=0.01)


def test_unknown_builtin_rejected():
    with pytest.raises(DomainError):
        make_model("gaussian", 0.1)
