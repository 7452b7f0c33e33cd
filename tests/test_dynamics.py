import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.linalg import eigh, eigvalsh_tridiagonal

from bandedge import dynamics
from bandedge.dynamics import (
    asymptotic_plateau,
    dense_lattice_hamiltonian,
    dominant_frequency,
    expansion_term_checks,
    intermediate_amplitude,
    kn_closed_form,
    kn_quadrature,
    lattice_spectrum,
    longtime_amplitude,
    survival_bessel_sum,
    survival_lattice_oracle,
)
from bandedge.errors import (
    BandEdgeError,
    ConsistencyError,
    DomainError,
    LatticeTruncationError,
    NumericalError,
    QuadratureError,
)
from bandedge.ep import _coalesced
from bandedge.model import ModelParams
from bandedge.quadrature import adaptive_quad, panel_nodes
from bandedge.spectrum import StateClass, discrete_spectrum, near_edge_triplet

# 40-digit quartic values at eps_d = -2, g = 0.02
E_B_G002 = -2.00341897805318488
E_R_G002 = -1.99829051222340756 - 0.00296260930977800234j
PLATEAU_G002 = 0.444191511106078
PLATEAU_DEEP = 0.994689596106243  # eps_d = -3, g = 0.1


class TestQuadratureHelper:
    def test_polynomial(self):
        assert adaptive_quad(lambda x: x * x, 0.0, 1.0, tol=1e-12).real == (
            pytest.approx(1.0 / 3.0, abs=1e-12)
        )

    def test_oscillatory_complex(self):
        val = adaptive_quad(lambda x: np.exp(1j * x), 0.0, 20 * np.pi, tol=1e-12)
        assert abs(val) < 1e-11


class TestLatticeOracle:
    def test_wavefront_guard(self):
        # N > 2 max(t) + 10: N = 200 holds up to t = 94.75 and fails at t = 100
        params = ModelParams(epsilon_d=-2.0, g=0.1)
        with pytest.raises(LatticeTruncationError):
            survival_lattice_oracle(params, 100, np.array([0.0, 60.0]))
        with pytest.raises(LatticeTruncationError):
            survival_lattice_oracle(params, 200, np.array([0.0, 100.0]))
        assert survival_lattice_oracle(params, 200, np.array([0.0, 94.75])).times.size == 2

    def test_folded_matches_dense(self):
        params = ModelParams(epsilon_d=-1.7, g=0.4)
        n = 40
        evals, weights = lattice_spectrum(params, n)
        H = dense_lattice_hamiltonian(params, n)
        w_d, v_d = eigh(H)
        wts_d = v_d[-1, :] ** 2
        t = np.linspace(0.0, 30.0, 61)
        a_folded = np.exp(-1j * np.outer(t, evals)) @ weights
        a_dense = np.exp(-1j * np.outer(t, w_d)) @ wts_d
        assert np.max(np.abs(a_folded - a_dense)) < 1e-12

    def test_unitarity(self):
        _, weights = lattice_spectrum(ModelParams(epsilon_d=-2.0, g=0.3), 500)
        assert weights.sum() == pytest.approx(1.0, abs=1e-14)

    def test_weights_match_secular_reference(self):
        # 30-digit Newton step on lam - eps_d - g^2 G(lam) = 0, with G the
        # folded chain's site-0 Green's function summed over its N + 1 poles
        # (each of weight 1/(N + 1)), from each computed eigenvalue; every
        # one of the N + 2 states, the bound state and the band states whose
        # residues are most sensitive to lam - mu_j included
        params, n = ModelParams(epsilon_d=-2.0, g=5e-3), 250
        evals, weights = lattice_spectrum(params, n)
        assert evals.size == n + 2
        assert abs(weights.sum() - 1.0) <= 1e-14
        with mp.workdps(30):
            s = n + 1
            mu = [2 * mp.cos(j * mp.pi / (2 * s)) for j in range(1, 2 * s, 2)]
            g2, eps = mp.mpf(params.g) ** 2, mp.mpf(params.epsilon_d)

            def green(lam):
                inv = [1 / (lam - m) for m in mu]
                return mp.fsum(inv) / s, -mp.fsum(x * x for x in inv) / s

            for lam0, w in zip(evals, weights):
                lam = mp.mpf(lam0)
                G, dG = green(lam)
                # lam0 is within 1e-15, so one step leaves < 1e-23
                lam -= (lam - eps - g2 * G) / (1 - g2 * dG)
                _, dG = green(lam)
                assert abs(lam0 - lam) <= 1e-15
                assert abs(w - 1 / (1 - g2 * dG)) <= 1e-15

    @pytest.mark.parametrize(
        "eps_d, g, n",
        [(0.0, 0.3, 99), (1.0, 0.3, 299), (-1.7, 0.0, 40)],
        ids=["midpoint-pi/2", "midpoint-pi/3", "decoupled"],
    )
    def test_hard_points_match_dense(self, eps_d, g, n):
        # a dot level at a chain midpoint angle (2 N + 2) phi / pi even puts
        # an eigenvalue halfway between two chain poles; at g = 0 the dot
        # decouples
        params = ModelParams(epsilon_d=eps_d, g=g)
        evals, weights = lattice_spectrum(params, n)
        w_d, v_d = eigh(dense_lattice_hamiltonian(params, n))
        t = np.linspace(0.0, 30.0, 61)
        a_folded = np.exp(-1j * np.outer(t, evals)) @ weights
        a_dense = np.exp(-1j * np.outer(t, w_d)) @ v_d[-1, :] ** 2
        assert np.max(np.abs(a_folded - a_dense)) < 1e-12
        assert abs(weights.sum() - 1.0) <= 1e-14

    def test_deep_bound_state_matches_dense(self):
        # (N + 1) kappa = 758 > 710: sin and cos of (N + 1) psi overflow
        params, n = ModelParams(epsilon_d=-2.0, g=1.0), 1000
        evals, weights = lattice_spectrum(params, n)
        w_d, v_d = eigh(dense_lattice_hamiltonian(params, n), subset_by_index=[0, 0])
        assert (n + 1) * np.arccosh(-evals[0] / 2.0) > 710.0
        assert evals[0] == pytest.approx(w_d[0], abs=1e-13)
        assert weights[0] == pytest.approx(v_d[-1, 0] ** 2, abs=1e-14)
        assert abs(weights.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize(
        "eps_d, g, n",
        [
            (-2.0, 0.3, 0), (3.0, 0.5, 0), (-2.0, 0.3, 1), (0.5, 1.0, 1),
            (-1.7, 0.0, 40), (-2.0, 1.0, 1000),
            (2.0 * np.cos(51 * np.pi / 200), 0.05, 99),
            (2.0 * np.cos(51 * np.pi / 200), 1e-5, 99),
            (2.0 * np.cos(51 * np.pi / 200), 1e-15, 99),
            (0.3, 1e-12, 99), (0.0, 0.3, 99), (1.0, 0.3, 299),
        ],
        ids=[
            "N=0", "N=0-bound", "N=1", "N=1-strong", "decoupled", "deep-bound",
            "on-pole", "on-pole-weak", "on-pole-1e-15", "in-band-1e-12",
            "midpoint-pi/2", "midpoint-pi/3",
        ],
    )
    def test_eigenvalues_match_lapack(self, eps_d, g, n):
        # the secular solve against LAPACK on the folded tridiagonal matrix:
        # the smallest chains, g = 0, a bound state with (N + 1) kappa > 710,
        # a dot level on a chain pole (N = 99: phi_51 = 51 pi / 200), where
        # the two states it splits into lie 1e-15 from the pole at the
        # weakest g, a dot level inside the band at g = 1e-12, whose root
        # the bracket middle's a places at the wrong pole, and chain
        # midpoints
        diag = np.zeros(n + 2)
        diag[0] = eps_d
        off = -np.ones(n + 1)
        off[0] = -g
        off[1:2] = -np.sqrt(2.0)
        evals, weights = lattice_spectrum(ModelParams(epsilon_d=eps_d, g=g), n)
        assert np.max(np.abs(evals - eigvalsh_tridiagonal(diag, off))) <= 1e-14
        assert abs(weights.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("d", [0.0, 1e-12, -1e-12, 1e-8, -1e-8])
    @pytest.mark.parametrize("side", [1.0, -1.0], ids=["upper", "lower"])
    def test_band_edge_state_matches_dense(self, side, d):
        # at eps_d = +-(2 - g^2 (N + 1) / 2) the outer eigenvalue sits on the
        # band edge |lam| = 2, where the weight's closed form in phi is 0/0
        params, n = ModelParams(epsilon_d=side * (2.0 - 0.01 * 101 / 2) + d, g=0.1), 100
        evals, weights = lattice_spectrum(params, n)
        w_d, v_d = eigh(dense_lattice_hamiltonian(params, n))
        t = np.linspace(0.0, 30.0, 61)
        a_folded = np.exp(-1j * np.outer(t, evals)) @ weights
        a_dense = np.exp(-1j * np.outer(t, w_d)) @ v_d[-1, :] ** 2
        assert np.max(np.abs(a_folded - a_dense)) < 1e-12
        assert abs(weights.sum() - 1.0) <= 1e-14

    def test_band_edge_state_at_large_n(self):
        # 2 - g^2 (N + 1) / 2 = 1.1894 at g = 0.02, N = 4052
        _, weights = lattice_spectrum(ModelParams(epsilon_d=-1.1894, g=0.02), 4052)
        assert np.all(np.isfinite(weights))
        assert abs(weights.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("bad", [1e-12, np.nan], ids=["off-by-1e-12", "nan"])
    def test_weight_sum_check_raises(self, monkeypatch, bad):
        # one weight of the pole-offset solve spoilt: the sum rule, checked to
        # 1e-13 on every call, catches a miss of 1e-12 and a non-finite weight
        solve = dynamics._bracket_roots

        def spoilt(*args):
            lam, w = solve(*args)
            w[0] = w[0] + bad
            return lam, w

        monkeypatch.setattr(dynamics, "_bracket_roots", spoilt)
        with pytest.raises(ConsistencyError, match="miss sum_m w_m = 1 by"):
            lattice_spectrum(ModelParams(epsilon_d=-2.0, g=0.3), 250)

    @pytest.mark.parametrize(
        "eps_d, g, n, message",
        [(0.0, 0.05, 99, "of 101 chain-pole brackets"), (-2.0, 0.02, 250, "outer root")],
        ids=["brackets", "edge"],
    )
    def test_sweep_cap_raises(self, monkeypatch, eps_d, g, n, message):
        monkeypatch.setattr(dynamics, "_MAX_SWEEPS", 1)
        with pytest.raises(NumericalError, match=message):
            lattice_spectrum(ModelParams(epsilon_d=eps_d, g=g), n)

    @pytest.mark.parametrize("g", [0.0, 1.5e-154], ids=["decoupled", "smallest-normal-g2"])
    def test_weakest_coupling_in_domain(self, g):
        # g^2 = 0 or at least the smallest normal double: the spectrum is solved
        _, weights = lattice_spectrum(ModelParams(epsilon_d=-2.0, g=g), 99)
        assert abs(weights.sum() - 1.0) <= 1e-14

    @pytest.mark.parametrize("g", [1.49e-154, 1e-155, 1e-160], ids=str)
    def test_subnormal_coupling_raises_before_any_sweep(self, monkeypatch, g):
        def no_sweep(*args):
            raise AssertionError("the secular solve ran")

        monkeypatch.setattr(dynamics, "_bracket_roots", no_sweep)
        with pytest.raises(DomainError, match=r"subnormal .*g >= 1\.491668e-154"):
            lattice_spectrum(ModelParams(epsilon_d=-2.0, g=g), 99)

    def test_series_d_matches_mpmath(self):
        # D(z) = sum_k (-z)^k / (2k + 3)! on |z| <= 4, the range the edge root uses
        zs = list(np.linspace(-4.0, 4.0, 161)) + [
            r * np.exp(1j * th) for r in (0.5, 1.0, 2.0, 3.0, 4.0)
            for th in np.linspace(0.0, 2.0 * np.pi, 24, endpoint=False)
        ]
        with mp.workdps(30):
            for z in zs:
                ref = mp.fsum((-mp.mpc(z)) ** k / mp.factorial(2 * k + 3) for k in range(40))
                err = abs(mp.mpc(dynamics._series_d(z)) - ref) / abs(ref)
                assert err <= 4.0 * np.finfo(float).eps, z

    @pytest.mark.parametrize(
        "eps_d, g, n",
        [(-2.2, 0.3, 120), (-2.0, 0.3, 120), (-1.5, 0.3, 12), (0.0, 0.3, 40),
         (0.3, 0.3, 40), (2.05, 0.3, 120)],
    )
    def test_series_coefficients_leave_the_bits(self, monkeypatch, eps_d, g, n):
        # the coefficients come from math.factorial; scipy's Gamma(26) is 1 ulp
        # off 25!, and with its coefficients the spectrum and trace are the same
        from scipy.special import gamma

        gamma_series = [(-1.0) ** k / float(gamma(2 * k + 4)) for k in range(13, -1, -1)]
        assert gamma_series != dynamics._D_SERIES
        params, t_max = ModelParams(epsilon_d=eps_d, g=g), 0.5 * (n - 11)
        times = np.arange(0.0, t_max, 0.5)
        new = lattice_spectrum(params, n)
        new_trace = survival_lattice_oracle(params, n, times)
        series, seen = dynamics._series_d, []
        monkeypatch.setattr(dynamics, "_series_d", lambda z: seen.append(z) or series(z))
        monkeypatch.setattr(dynamics, "_D_SERIES", gamma_series)
        old = lattice_spectrum(params, n)
        old_trace = survival_lattice_oracle(params, n, times)
        assert any(z != 0.0 for z in seen)  # the series ran past its constant term
        for a, b in zip(new + (new_trace.amplitude,), old + (old_trace.amplitude,)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "times",
        [np.array([37.5]), np.linspace(0.0, 100.0, 97), 13.25 + 0.5 * np.arange(150)],
        ids=["K=1", "prime-K", "t0>0"],
    )
    def test_factored_sum_matches_direct(self, times):
        params, n = ModelParams(epsilon_d=-2.0, g=0.05), 250
        evals, weights = lattice_spectrum(params, n)
        direct = np.exp(-1j * np.outer(times, evals)) @ weights
        tr = survival_lattice_oracle(params, n, times)
        assert np.max(np.abs(tr.amplitude - direct)) < 1e-13

    @pytest.mark.parametrize(
        "times",
        [[-600.0], [0.0, 2.0, 1.0], [0.0, 1.0, 3.0]],
        ids=["negative", "unsorted", "non-uniform"],
    )
    def test_rejects_times_off_a_uniform_grid(self, times):
        with pytest.raises(DomainError):
            survival_lattice_oracle(ModelParams(epsilon_d=-2.0, g=0.3), 200, times)

    def test_no_times_give_an_empty_trace(self):
        tr = survival_lattice_oracle(ModelParams(epsilon_d=-2.0, g=0.3), 200, [])
        assert tr.times.size == tr.amplitude.size == tr.probability.size == 0

    def test_two_product_is_exact(self):
        rng = np.random.default_rng(17)
        E = np.concatenate([rng.uniform(-3.0, 3.0, 200), [-2.0034189780531849, 1e-17]])
        t = np.concatenate([rng.uniform(0.0, 2e4, 200), [17338.3, 810.3]])
        p, e = dynamics._two_product(E, t)
        assert np.array_equal(p, E * t)
        for a, b, hi, lo in zip(E, t, p, e):
            assert Fraction(hi) + Fraction(lo) == Fraction(a) * Fraction(b)

    @pytest.mark.parametrize(
        "eps_d, g, n, times, tol",
        [(-2.0, 0.02, 4052, np.arange(0.0, 2000.5, 0.5), 1e-14),
         (-2.05, 0.05, 400, np.linspace(0.0, 190.0, 1001), 3e-14)],
        ids=["arange", "linspace"],
    )
    def test_phase_sum_matches_40_digits(self, eps_d, g, n, times, tol):
        # the table's phases carry multiplication rounding only, where fl(E t)
        # alone is off by up to 0.5 ulp(4000) = 2.3e-13 at t = 2000 (measured
        # 1.9e-15 on arange against 1.2e-13 from a per-entry exp of fl(E t)).
        # linspace's t_k = fl(k dt) are up to 0.5 ulp(190) = 1.4e-14 off the
        # grid t_0 + k dt the table sums on, and |dA/dt| <= max |E| ~ 2 (measured 2.1e-14
        # against 3.1e-14)
        params = ModelParams(epsilon_d=eps_d, g=g)
        evals, weights = lattice_spectrum(params, n)
        tr = survival_lattice_oracle(params, n, times)
        E, w = [mp.mpf(float(x)) for x in evals], [mp.mpf(float(x)) for x in weights]
        with mp.workdps(40):
            for k in np.linspace(0, times.size - 1, 8).astype(int):
                t = mp.mpf(float(times[k]))
                ref = mp.fsum(wm * mp.expj(-Em * t) for Em, wm in zip(E, w))
                assert abs(complex(ref) - tr.amplitude[k]) < tol, times[k]

    def test_rejects_a_shifted_inner_block(self):
        # exact endpoints, and one block of sqrt(K) times moved off t_0 + k dt
        times = np.arange(0.0, 100.5, 0.5)
        times[30:45] += 1e-9
        with pytest.raises(DomainError, match="off t_0 \\+ k dt"):
            survival_lattice_oracle(ModelParams(epsilon_d=-2.0, g=0.3), 250, times)

    def test_one_block_keeps_the_bits_of_the_unblocked_sum(self):
        # the levels are summed in blocks of 1024; a lattice of 252 levels is
        # one block, whose product starts the sum, so its amplitudes equal
        # the product over all levels at once by .hex()
        params, n = ModelParams(epsilon_d=-2.0, g=5e-3), 250
        times = np.arange(0.0, 100.5, 0.5)
        evals, weights = lattice_spectrum(params, n)
        assert evals.size <= dynamics._ORACLE_LEVELS
        B = math.ceil(math.sqrt(times.size))
        steps = dynamics._powers(np.ones(evals.size, complex), dynamics._phase(evals, 0.5), B)
        blocks = dynamics._powers(weights * dynamics._phase(evals, 0.0),
                                  dynamics._phase(evals, *dynamics._two_product(float(B), 0.5)),
                                  -(-times.size // B))
        whole = (blocks @ steps.T).ravel()[: times.size]
        amp = survival_lattice_oracle(params, n, times).amplitude
        assert [(a.real.hex(), a.imag.hex()) for a in amp] == [
            (a.real.hex(), a.imag.hex()) for a in whole]

    def test_level_blocks_only_reorder_the_sum(self, monkeypatch):
        # blocks of 7 levels, a short last block included, change the sum's
        # order only (measured 1.4e-15)
        params, times = ModelParams(epsilon_d=-2.0, g=0.05), np.arange(0.0, 100.5, 0.5)
        whole = survival_lattice_oracle(params, 250, times).amplitude
        monkeypatch.setattr(dynamics, "_ORACLE_LEVELS", 7)
        blocked = survival_lattice_oracle(params, 250, times).amplitude
        assert np.max(np.abs(blocked - whole)) < 5e-15

    def test_peak_memory_stays_within_one_block_of_the_spectrum(self):
        # at N = 40 012 and 1001 times the tables of all 40 014 levels took
        # 43.5 MB; by blocks of 1024 levels the oracle's peak stays within
        # one block's tables of lattice_spectrum's own (measured 13.6 MB,
        # the spectrum's own peak)
        import tracemalloc

        params, n = ModelParams(epsilon_d=-2.0, g=1e-3), 40_012
        times = np.arange(0.0, 20_000.5, 20.0)
        peaks = []
        for call in (lambda: lattice_spectrum(params, n),
                     lambda: survival_lattice_oracle(params, n, times)):
            tracemalloc.start()
            try:
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        B = math.ceil(math.sqrt(times.size))
        tables = (B + -(-times.size // B)) * dynamics._ORACLE_LEVELS * 16
        assert peaks[1] <= peaks[0] + tables

    def test_decoupled_stays_put(self):
        tr = survival_lattice_oracle(
            ModelParams(epsilon_d=-2.0, g=0.0), 64, np.linspace(0, 20, 41)
        )
        assert np.allclose(tr.probability, 1.0, atol=1e-12)

    def test_probability_bounds(self, oracle_g002_600):
        P = oracle_g002_600.probability
        assert P[0] == pytest.approx(1.0, abs=1e-12)
        assert np.all(P <= 1.0 + 1e-9)
        assert np.all(P >= 0.0)

    def test_short_time_quadratic_decay(self):
        # the curvature of 1 - P at t -> 0 is exactly g^2 (variance of H in
        # the initial state)
        g = 0.1
        t = np.linspace(1e-4, 0.01, 40)
        tr = survival_lattice_oracle(ModelParams(epsilon_d=-2.0, g=g), 64, t)
        coeff = np.polyfit(t**2, 1.0 - tr.probability, 1)[0]
        assert coeff == pytest.approx(g**2, rel=1e-2)


class TestBesselSum:
    def test_initial_value_is_one(self):
        # the four residues sum to 1, the upper bound state's g^2/32 included
        params = ModelParams(epsilon_d=-2.0, g=0.02)
        tr = survival_bessel_sum(params, np.array([0.0]))
        assert tr.amplitude[0] == pytest.approx(1.0, abs=1e-15)

    def test_matches_oracle(self, oracle_g002_600):
        params = ModelParams(epsilon_d=-2.0, g=0.02)
        tr = survival_bessel_sum(params, oracle_g002_600.times[1:])
        diff = np.abs(tr.probability - oracle_g002_600.probability[1:])
        assert diff.max() < 1e-3
        assert diff.max() < 1e-12  # measured headroom (1.3e-14)

    def test_matches_oracle_at_late_times(self, oracle_g002_2000):
        # the backward-stable accumulation stays accurate far beyond the
        # decay timescale (needed for beat-frequency extraction)
        params = ModelParams(epsilon_d=-2.0, g=0.02)
        t = oracle_g002_2000.times
        sel = (t >= 1000.0) & (np.isclose(t % 25.0, 0.0))
        tr = survival_bessel_sum(params, t[sel])
        dev = np.max(np.abs(tr.probability - oracle_g002_2000.probability[sel]))
        assert dev < 1e-4

    def test_matches_oracle_moderate_coupling(self):
        # stronger coupling, detuned: ensures the derivation is not
        # threshold-specific
        params = ModelParams(epsilon_d=-2.05, g=0.05)
        times = np.arange(0.0, 80.0, 0.5)
        oracle = survival_lattice_oracle(params, 300, times)
        tr = survival_bessel_sum(params, times)
        assert np.max(np.abs(tr.probability - oracle.probability)) < 2e-3

    def test_input_validation(self):
        params = ModelParams(epsilon_d=-2.0, g=0.02)
        with pytest.raises(DomainError):
            survival_bessel_sum(params, np.array([-1.0, 0.0]))
        with pytest.raises(DomainError):
            survival_bessel_sum(params, np.array([0.0, 0.0]))

    def test_panel_check_runs_on_every_call(self, monkeypatch):
        # a plain call re-checks sampled panels at half step; below any
        # achievable budget it must fail loudly with the achieved tolerance
        params = ModelParams(epsilon_d=-2.0, g=0.05)
        times = np.arange(0.5, 40.0, 0.5)
        monkeypatch.setattr(dynamics, "_PANEL_TOL", 1e-30)
        with pytest.raises(QuadratureError) as info:
            survival_bessel_sum(params, times)
        assert 0.0 < info.value.residual < 1e-10

    def test_panel_check_covers_the_tail(self, monkeypatch):
        # t = 0 alone still integrates [0, 25], where the anti-resonance's
        # closed-form tail starts, and those panels must fail the check
        monkeypatch.setattr(dynamics, "_PANEL_TOL", 1e-30)
        with pytest.raises(QuadratureError) as info:
            survival_bessel_sum(ModelParams(epsilon_d=-2.0, g=0.05), [0.0])
        assert 0.0 < info.value.residual < 1e-10

    def test_block_size_leaves_the_bits(self, monkeypatch):
        # grid, partial and check panels are integrated in blocks to bound the
        # temporaries; the block boundaries, a short last block included,
        # must not change one bit.  On the dt = 0.5 grid the partial panels
        # share one width, at 0.1 + 0.3 k they have several
        params = ModelParams(epsilon_d=-2.0, g=0.05)
        runs = [np.arange(0.0, 60.0, 0.5), 0.1 + 0.3 * np.arange(200)]
        whole = [survival_bessel_sum(params, times).amplitude for times in runs]
        monkeypatch.setattr(dynamics, "_BLOCK_PANELS", 7)
        for times, amp in zip(runs, whole):
            assert np.array_equal(survival_bessel_sum(params, times).amplitude, amp)

    def test_spot_check_samples_at_most_512_panels_per_kind(self, monkeypatch):
        # every time is an edge of the width-1/2 grid, so 4000 grid panels of
        # 8 nodes and no partial panel, of which 512 are integrated again as
        # two halves, 8 * (4000 + 2 * 512) = 40 192 J1 nodes
        counted, real_j1 = [], dynamics.j1_over_t
        monkeypatch.setattr(dynamics, "j1_over_t", lambda t: counted.append(t.size) or real_j1(t))
        survival_bessel_sum(ModelParams(epsilon_d=-2.0, g=0.02), np.arange(0.0, 2000.5, 0.5))
        assert sum(counted) == 40_192

    def test_a_time_leaves_the_other_times_bits(self):
        # every panel is contracted on its own, so adding a time whose partial
        # panel has another width leaves every other amplitude bit for bit
        params = ModelParams(epsilon_d=-2.0, g=0.05)
        times = np.arange(0.0, 60.0, 0.5)
        amp = survival_bessel_sum(params, times).amplitude
        more = survival_bessel_sum(params, np.insert(times, 67, 33.3)).amplitude
        assert np.array_equal(np.delete(more, 67), amp)

    @pytest.mark.parametrize("eps_d, g", [(-2.0, 0.05), (-30.0, 8.0)])
    def test_panel_integrals_match_a_direct_sum(self, eps_d, g):
        # 40 panels of one width, and the same 40 plus one of another width,
        # must match sum_j w_j e^{iE(node_j - ref)} J1(2 node_j)/node_j, each
        # panel referenced to its left edge for a growing state and else to
        # its right, within 5e-16 (measured at most 1.1e-16); the 40 shared
        # panels must agree bit for bit between the two calls
        from scipy.special import j1

        E = np.array([s.energy for s in discrete_spectrum(ModelParams(epsilon_d=eps_d, g=g))])
        left = E.imag > 0
        h, n = dynamics._panel_rule(np.max(np.abs(E)), np.zeros(1))
        a = h * np.arange(40.0)
        runs = [(a, a + h), (np.append(a, 3.0), np.append(a + h, 3.0 + 0.3 * h))]
        for lo, hi in runs:
            nodes, w = panel_nodes(lo, hi, n)
            ref = np.where(left, lo[:, None], hi[:, None])
            phase = np.exp(1j * E * (nodes[:, :, None] - ref[:, None, :]))
            direct = np.einsum("pj,pjs->ps", w * j1(2.0 * nodes) / nodes, phase)
            assert np.max(np.abs(dynamics._panel_integrals(E, lo, hi, left, n) - direct)) < 5e-16
        same, mixed = (dynamics._panel_integrals(E, lo, hi, left, n) for lo, hi in runs)
        assert np.array_equal(same, mixed[:-1])

    def test_one_grid_and_one_j1_table_for_all_states(self, monkeypatch):
        # all four states share one grid [0, T], T = max(max t, 25) rounded
        # up to a whole panel, at whose end the growing state's closed-form
        # tail starts, and J1 is evaluated once per node for all of them (and
        # once per node of the bisection check)
        grids, rules, nodes = [], [], []
        real_panels, real_rule, real_j1 = (
            dynamics._checked_panels, dynamics._panel_rule, dynamics.j1_over_t)

        def panels_spy(E, left, edges, a, b, order):
            grids.append((edges[0], edges[-1], b.size))
            return real_panels(E, left, edges, a, b, order)

        def rule_spy(e_max, times):
            rules.append(real_rule(e_max, times))
            return rules[-1]

        def j1_spy(t):
            nodes.append(np.ravel(t))
            return real_j1(t)

        monkeypatch.setattr(dynamics, "_checked_panels", panels_spy)
        monkeypatch.setattr(dynamics, "_panel_rule", rule_spy)
        monkeypatch.setattr(dynamics, "j1_over_t", j1_spy)
        params = ModelParams(epsilon_d=-2.0, g=0.05)
        # at threshold: to t = 39 every time is an edge of the width-1 grid,
        # 10 nodes each; to t = 9 the bare grid [0, 25] dominates, so width 2
        # with 13 nodes, whose 13 panels reach T = 26, and the 5 odd times
        # take partial panels
        for t_max, rule, end, partial in ((39.0, (1.0, 10), 39.0, 0), (9.0, (2.0, 13), 26.0, 5)):
            grids.clear()
            rules.clear()
            nodes.clear()
            survival_bessel_sum(params, np.arange(0.0, t_max + 0.5, 1.0))
            assert rules == [rule]
            assert grids == [(0.0, end, partial)]
            # each of the end / h grid panels and the partial panels has n
            # nodes and is checked with 2n; grid and partial nodes are distinct
            (h, n), = rules
            seen = np.concatenate(nodes)
            panels = int(end / h) + partial
            assert seen.size == 3 * n * panels
            assert np.unique(seen[: n * panels]).size == n * panels

    def test_long_window_initial_value(self):
        # the scan is one Toeplitz product per block and a contractive step
        # per block start, so A(0) stays at the rounding floor after a
        # backward pass over 8000 panels
        params = ModelParams(epsilon_d=-2.0, g=0.02)
        tr = survival_bessel_sum(params, np.arange(0.0, 2000.5, 0.5))
        assert abs(tr.amplitude[0] - 1.0) <= 5e-15

    @pytest.mark.parametrize("eps_d, g", [(-2.0, 0.05), (-1.9, 0.3)])
    def test_times_off_the_panel_grid_match_oracle(self, eps_d, g):
        # every time sits inside a panel of width 1, so each is read from
        # its panel's left edge plus a partial panel (measured 1.9e-14)
        params = ModelParams(epsilon_d=eps_d, g=g)
        times = 0.1 + 0.3 * np.arange(266)
        oracle = survival_lattice_oracle(params, 300, times)
        tr = survival_bessel_sum(params, times)
        assert np.max(np.abs(tr.amplitude - oracle.amplitude)) < 1e-12

    @pytest.mark.parametrize("g", [0.02, 1e-3, 1e-4])
    def test_matches_large_oracle_over_the_beat(self, g):
        # about nine beat periods of g = 0.02 to t = 17 338, against a
        # lattice of N = 34 696 (measured 3.1e-14, 3.8e-13, 3.9e-12)
        params = ModelParams(epsilon_d=-2.0, g=g)
        times = 810.3 + 4.0 * np.arange(4133)
        oracle = survival_lattice_oracle(params, 34696, times)
        tr = survival_bessel_sum(params, times)
        assert np.max(np.abs(tr.amplitude - oracle.amplitude)) < 1e-11

    @pytest.mark.parametrize("t0", [810.3, 803.7, 37.77, 2.9])
    def test_beat_window_aligns_the_grid_to_its_first_time(self, monkeypatch, t0):
        # t0 + 4k lies off every power-of-two grid from 0; its width-4 panels
        # start at o = fmod(t0, 4) after the one leading panel [0, o], so
        # every time is an edge and no partial panel is taken.  The call
        # evaluates the J1 nodes its plan counts, and it agrees with the
        # oracle within 1e-11 (measured at most 2.1e-14)
        params = ModelParams(epsilon_d=-2.0, g=0.02)
        times = t0 + 4.0 * np.arange(300)
        grids, counted = [], []
        real_panels, real_j1 = dynamics._checked_panels, dynamics.j1_over_t

        def panels_spy(E, left, edges, a, b, order):
            grids.append((edges, b.size, order))
            return real_panels(E, left, edges, a, b, order)

        monkeypatch.setattr(dynamics, "_checked_panels", panels_spy)
        monkeypatch.setattr(dynamics, "j1_over_t", lambda t: counted.append(t.size) or real_j1(t))
        amp = survival_bessel_sum(params, times).amplitude
        (edges, partial, n), = grids
        o = math.fmod(t0, 4.0)
        assert edges[0] == 0.0 and partial == 0 and n == 17
        assert np.array_equal(edges[1:], o + 4.0 * np.arange(edges.size - 1.0))
        assert np.isin(times, edges).all()
        assert sum(counted) == _rule_nodes(4.0, 17, times)
        oracle = survival_lattice_oracle(params, math.ceil(2.0 * times[-1] + 11.0), times)
        assert np.max(np.abs(amp - oracle.amplitude)) < 1e-11

    @pytest.mark.parametrize("times, rule", [
        (np.arange(0.0, 2000.5, 0.5), (0.5, 8)), (np.arange(0.0, 80.0, 0.3), (0.5, 8)),
        (np.arange(0.0, 2001.0), (1.0, 10)), (np.arange(0.0, 2001.0, 4.0), (4.0, 17)),
    ], ids=["dt=0.5", "dt=0.3", "dt=1", "dt=4"])
    def test_windows_from_zero_keep_the_grid_at_zero(self, monkeypatch, times, rule):
        # fmod(0, h) = 0, so a window from t = 0 keeps its grid's edges at
        # m h and the plan of that grid: the CLI's windows at threshold.  The
        # dt = 4 window takes width 4 since 17 nodes are admitted
        grids, rules = [], []
        real_panels, real_rule = dynamics._checked_panels, dynamics._panel_rule

        def panels_spy(E, left, edges, a, b, order):
            grids.append(edges)
            return real_panels(E, left, edges, a, b, order)

        monkeypatch.setattr(dynamics, "_checked_panels", panels_spy)
        monkeypatch.setattr(dynamics, "_panel_rule",
                            lambda e, t: rules.append(real_rule(e, t)) or rules[-1])
        survival_bessel_sum(ModelParams(epsilon_d=-2.0, g=0.02), times)
        (edges,), ((h, _),) = grids, rules
        assert rules == [rule]
        assert edges[0] == 0.0 and np.array_equal(edges, h * np.arange(edges.size))

    def test_window_end_leaves_earlier_times(self):
        # the panel width is a power of two, so E h is exact and A(t) does not
        # depend on how far the window reaches; a width T/n would let the
        # scan's phases drift by |E| t eps, which residues of 42 magnify
        params = ModelParams(epsilon_d=-2.0, g=1e-3)
        t = np.array([2000.3, 10000.3])
        alone = survival_bessel_sum(params, t).amplitude
        for end in (10013.9, 12345.6, 17338.7):
            longer = survival_bessel_sum(params, np.append(t, end)).amplitude[:2]
            assert np.max(np.abs(longer - alone)) < 1e-13

    def test_panel_check_covers_the_partial_panels(self, monkeypatch):
        # with an empty uniform grid only the partial panels [a, b] can fail
        # the check, and below any achievable budget they must
        E = np.array([s.energy for s in discrete_spectrum(ModelParams(epsilon_d=-2.0, g=0.05))])
        a = np.array([0.0, 12.25, 30.0])
        b = a + np.array([0.1, 0.2, 0.05])
        _, n = dynamics._panel_rule(np.max(np.abs(E)), b)
        monkeypatch.setattr(dynamics, "_PANEL_TOL", 1e-30)
        with pytest.raises(QuadratureError) as info:
            dynamics._checked_panels(E, E.imag > 0, np.array([0.0]), a, b, n)
        assert 0.0 < info.value.residual < 1e-10

    def test_scan_identity_is_checked(self, monkeypatch):
        # a growing state's backward scan ends at t = 0, where i lam W(0) = 1;
        # below any achievable budget the miss is raised with its size
        monkeypatch.setattr(dynamics, "_IDENTITY_TOL", 1e-40)
        with pytest.raises(QuadratureError) as info:
            survival_bessel_sum(ModelParams(epsilon_d=-2.0, g=0.05), [0.0, 30.0])
        assert 0.0 < info.value.residual < 1e-12

    def test_anti_resonance_below_1e_12_takes_the_backward_scan(self, monkeypatch):
        # at (-1.9, 6e-7) the anti-resonance has Im E = 5.8e-13; its class,
        # not a tolerance on Im E, sends it backward from the closed-form tail
        params = ModelParams(epsilon_d=-1.9, g=6e-7)
        grow = [s for s in discrete_spectrum(params) if s.state_class is StateClass.ANTI_RESONANCE]
        assert len(grow) == 1 and 0.0 < grow[0].energy.imag < 1e-12
        tails, tail = [], dynamics._hankel_tail
        monkeypatch.setattr(dynamics, "_hankel_tail", lambda *a: tails.append(a) or tail(*a))
        t = np.arange(0.0, 200.25, 0.5)
        amp = survival_bessel_sum(params, t).amplitude
        assert len(tails) == 1 and tails[0][0] == grow[0].energy
        oracle = survival_lattice_oracle(params, 500, t).amplitude
        assert np.max(np.abs(amp - oracle)) < 1e-13

    def test_window_without_panels(self):
        # no state grows at these parameters, so at t = 0 every state gives
        # exactly its residue; no time at all gives an empty trace
        params = ModelParams(epsilon_d=-2.1, g=0.1)
        states = discrete_spectrum(params)
        assert all(s.energy.imag <= 0 for s in states)
        residues = sum(s.psid_sq for s in states)
        tr = survival_bessel_sum(params, [0.0])
        assert tr.amplitude[0] == pytest.approx(residues, abs=1e-15)
        empty = survival_bessel_sum(params, [])
        assert empty.amplitude.size == 0 and empty.probability.size == 0

    @pytest.mark.parametrize("e_max, times, rule", [
        (0.0, "t0", (8.0, 17)), (2.0, "t0", (4.0, 17)), (2.0, "beat", (4.0, 17)),
        (2.0, "half", (0.5, 8)), (2.0, "integer", (1.0, 10)), (2.0, "irregular", (0.5, 8)),
        (4.0, "t0", (2.0, 15)), (10.0, "t0", (1.0, 15)), (20.0, "t0", (0.5, 15)),
        (32.0, "t0", (0.25, 13)), (45.0, "t0", (0.25, 15)), (60.0, "t0", (0.25, 17)),
        (60.0, "irregular", (0.25, 17)), (100.0, "t0", (0.125, 15)),
        (101.5, "t0", (0.125, 16)),
    ])
    def test_panel_rule_takes_the_fewest_j1_nodes_the_bound_admits(self, e_max, times, rule):
        # the Gauss-Legendre remainder on a panel of width h (A&S 25.4.30),
        # with |f^(2n)| <= (|E| + 2)^(2n), must be at most 1e-17 h with n <= 17
        # nodes, for the fewest such n; of the power-of-two widths the rule
        # takes the one whose checked panels evaluate the fewest J1 nodes at
        # these times, each on its better origin, the wider on a tie.  Widths
        # above 1 are admissible: at threshold (|E| ~ 2) width 4 takes 17
        # nodes, at |E| ~ 0 width 8 does
        times = _RULE_TIMES[times]
        h, n = dynamics._panel_rule(e_max, times)
        assert (h, n) == rule
        assert n == _fewest_nodes(h, e_max)
        nodes = _rule_nodes(h, n, times)
        for k in range(-12, 5):
            w = 2.0**k
            m = _fewest_nodes(w, e_max)
            if m is not None and w != h:
                assert _rule_nodes(w, m, times) > nodes or (
                    w < h and _rule_nodes(w, m, times) == nodes)

    @pytest.mark.parametrize("e_max, t, rule, capped", [
        (30.0, 1e5, (0.5, 17), 1 / 32), (10.0, 6e5, (1.0, 15), 1 / 8),
    ])
    def test_panel_rule_stops_at_the_panel_cap(self, e_max, t, rule, capped):
        # the search narrows while a width's grid alone takes fewer J1 nodes
        # than the best plan so far.  ``capped`` is the widest admissible
        # width whose grid exceeds _MAX_PANELS; its grid is still below the
        # best plan's nodes, so the cap ends the search, and it returns its
        # best plan instead of raising
        times = np.array([t])
        assert dynamics._panel_rule(e_max, times) == rule
        grid = math.ceil(t / capped)
        assert math.ceil(t / (2 * capped)) <= dynamics._MAX_PANELS < grid
        assert _fewest_nodes(capped, e_max) is not None
        assert grid < _rule_nodes(*rule, times)

    def test_panel_rule_keeps_the_panel_integrals(self):
        # every (h, n) the rule returns for |E| <= 100 at the time sets of
        # _RULE_TIMES, each at the largest |E| of a 0.05 grid that gets it
        # (where its bound is tightest) and a random phase, against a 30-node
        # rule on the panels of [0, max(2, h)], where J1(2t)/t is largest,
        # each panel referenced to its contractive edge.
        # Both rules run at 30 digits, so the gap is the n-node truncation
        # alone (the 30-node bound is below 1e-44 h), which the bound holds to
        # 1e-17 h in each of Re and Im (measured at most 2.7e-18 h; one node
        # fewer reaches 5.8e-16 h)
        worst = {}
        for times in _RULE_TIMES.values():
            for e in np.linspace(0.0, 100.0, 2001):
                rule = dynamics._panel_rule(e, times)
                worst[rule] = max(worst.get(rule, 0.0), e)
        assert len(worst) == 42
        rng = np.random.default_rng(17)
        with mp.workdps(30):
            table = {}

            def panels(h, n, E):
                E_mp, h_mp = mp.mpc(E), mp.mpf(h)
                if (h, n) not in table:
                    x, w = mp.gauss_quadrature(n, "legendre")
                    table[h, n] = []
                    for p in range(max(1, int(2 / h))):
                        s = [(p + (1 + xi) / 2) * h_mp for xi in x]
                        table[h, n].append([(si, wi * mp.besselj(1, 2 * si) / si)
                                            for si, wi in zip(s, w)])
                return [
                    h_mp / 2 * mp.fsum(
                        wf * mp.exp(1j * E_mp * (s - (p + (E.imag <= 0)) * h_mp)) for s, wf in panel
                    )
                    for p, panel in enumerate(table[h, n])
                ]

            for (h, n), e in worst.items():
                E = e * np.exp(2j * np.pi * rng.random())
                gap = max(abs(a - b) for a, b in zip(panels(h, n, E), panels(h, 30, E)))
                assert gap <= math.sqrt(2.0) * 1e-17 * h, (h, n, E)

    @pytest.mark.parametrize("eps_d, g, rule", [
        (-2.0, 1e-4, (0.5, 8)), (-30.0, 8.0, (0.25, 13)),
        (-60.0, 1.0, (0.25, 17)), (-100.0, 1.0, (0.125, 15)),
    ])
    def test_panel_rule_matches_oracle(self, monkeypatch, eps_d, g, rule):
        # 266 times 0.3 apart from 0.1, 54 of them on the width-1/2 grid from
        # o = 0.1 (38 on the one from 0): width 1/2 and 8 nodes at threshold;
        # the far-detuned states of |E| = 32, 60 and 100 take narrower panels
        # (measured 5.0e-13, 1.6e-11, 3.7e-11 and 8.6e-11; the last two are
        # set by the phase of the quartic's bound-state energy, e.g. 1.1e-12
        # off at eps_d = -100, and the first by residues of 195)
        rules, panel_rule = [], dynamics._panel_rule

        def rule_spy(e_max, times):
            rules.append(panel_rule(e_max, times))
            return rules[-1]

        monkeypatch.setattr(dynamics, "_panel_rule", rule_spy)
        params = ModelParams(epsilon_d=eps_d, g=g)
        times = 0.1 + 0.3 * np.arange(266)
        oracle = survival_lattice_oracle(params, 300, times)
        tr = survival_bessel_sum(params, times)
        assert rules == [rule]
        assert np.max(np.abs(tr.amplitude - oracle.amplitude)) < 1e-10

    @pytest.mark.parametrize("h", [1.0, 2.0, 4.0])
    def test_scan_powers_at_large_phase(self, h):
        # at |E h| ~ 2, 4 and 8 (widths 1, 2 and 4 at threshold) a Toeplitz
        # block's powers e^(rate m) reach |rate m| ~ 128, 256 and 512, where
        # fl(rate m) alone rounds the phase by up to 0.5 ulp(512) = 5.7e-14;
        # from exactly split arguments they hold to rounding through three
        # blocks (measured 3.3e-16, 5.0e-16 and 3.8e-16)
        rng = np.random.default_rng(3)
        E = 2.0 + 0.01 * rng.random() - 1e-3j * rng.random()
        rate = -1j * E * h
        inc = np.zeros(200, dtype=complex)
        inc[0] = 1.0
        k = np.arange(1, 201)
        x = dynamics._scan(0.0, rate, inc, k)  # x[k] = e^(rate (k - 1))
        with mp.workdps(30):
            ref = np.array([complex(mp.exp(mp.mpc(rate) * int(m - 1))) for m in k])
        assert np.max(np.abs(x - ref) / np.abs(ref)) <= 1e-15

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        eps_d=st.floats(-2.1, -1.9),
        g=st.floats(-2.0, 0.0).map(lambda x: 10.0**x),
        times=st.one_of(
            # uniform, beat-like (t0 + 4k) and irregular windows
            st.builds(lambda t0, dt, K: t0 + dt * np.arange(K), st.floats(0.0, 50.0),
                      st.sampled_from([0.1, 0.25, 0.3, 0.5, 1.0, 2.0]), st.integers(1, 600)),
            st.builds(lambda t0, K: t0 + 4.0 * np.arange(K), st.floats(0.0, 900.0),
                      st.integers(1, 300)),
            st.lists(st.floats(0.0, 400.0), min_size=1, max_size=300, unique=True).map(
                lambda t: np.sort(np.array(t))),
        ),
    )
    def test_panel_plan_never_takes_more_j1_nodes(self, eps_d, g, times):
        # the call evaluates exactly the J1 nodes its plan counts, never more
        # than the former rule (the widest width <= 1) would at these times,
        # and its (h, n) meets the remainder bound
        params = ModelParams(epsilon_d=eps_d, g=g)
        e_max = max(abs(s.energy) for s in discrete_spectrum(params))
        counted, rules = [], []
        real_j1, real_rule = dynamics.j1_over_t, dynamics._panel_rule
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "j1_over_t", lambda t: counted.append(t.size) or real_j1(t))
            patch.setattr(dynamics, "_panel_rule",
                          lambda e, t: rules.append(real_rule(e, t)) or rules[-1])
            survival_bessel_sum(params, times)
        (h, n), = rules
        assert _remainder_bound(h, n, e_max) <= 1e-17 * h
        assert sum(counted) == _rule_nodes(h, n, times)
        assert sum(counted) <= _rule_nodes(*_widest_rule_to_1(e_max), times)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        eps_d=st.floats(-2.1, -1.9),
        g=st.floats(-2.0, -0.5).map(lambda x: 10.0**x),
        last=st.integers(25, 3000),
        dt=st.sampled_from([0.5, 1.0]),
    )
    def test_half_and_integer_grids_take_no_partial_panel(self, eps_d, g, last, dt):
        # near threshold a window of step 1/2 or 1 from t = 0 to past the
        # tail start puts every time on an edge of its grid
        partial = []
        real_panels = dynamics._checked_panels

        def panels_spy(E, left, edges, a, b, order):
            partial.append(b.size)
            return real_panels(E, left, edges, a, b, order)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_checked_panels", panels_spy)
            survival_bessel_sum(ModelParams(epsilon_d=eps_d, g=g),
                                np.arange(0.0, last + 0.5 * dt, dt))
        assert partial == [0]

    def test_strong_coupling_runs(self):
        # at g = 100 (|E| = 101) the panels are 1/8 wide with 15 nodes; the
        # former fixed width 1/4 failed the panel check here.  At t = 0 each
        # state gives its residue, whose sum the quartic sets (1 - 3.7e-13)
        params = ModelParams(epsilon_d=-2.0, g=100.0)
        tr = survival_bessel_sum(params, [0.0, 0.1, 20.0])
        residues = sum(s.psid_sq for s in discrete_spectrum(params))
        assert tr.amplitude[0] == pytest.approx(residues, abs=1e-15)
        assert np.all(np.isfinite(tr.amplitude))

    def test_panel_count_is_bounded(self):
        # |E| ~ 1e4 takes panels of width 2^-10, so t = 6e5 would need 6e8
        # of them; the route rejects the window before allocating any
        with pytest.raises(DomainError, match="panels of width"):
            survival_bessel_sum(ModelParams(epsilon_d=-2.0, g=1e4), [0.0, 6e5])

    def test_weak_coupling_matches_oracle(self):
        # at g = 1e-4 the anti-resonance decays only over 38/Im E = 1.5e7,
        # which the closed-form tail spans at the cost of g = 0.3
        params = ModelParams(epsilon_d=-2.0, g=1e-4)
        times = np.arange(0.0, 50.0 + 1e-9, 0.5)
        oracle = survival_lattice_oracle(params, 120, times)
        tr = survival_bessel_sum(params, times)
        assert np.max(np.abs(tr.amplitude - oracle.amplitude)) < 1e-10

    @pytest.mark.parametrize("eps_d, g", [(-1.99, 1e-6), (-1.0, 1e-5)], ids=str)
    def test_in_band_resonance_at_weak_coupling_matches_oracle(self, eps_d, g):
        # the resonance has |lam| - 1 ~ g^2, far above its root error radius,
        # so every state is classified (measured 5.4e-15 and 1.4e-14)
        params = ModelParams(epsilon_d=eps_d, g=g)
        times = np.arange(0.0, 50.0 + 1e-9, 0.5)
        oracle = survival_lattice_oracle(params, 120, times)
        tr = survival_bessel_sum(params, times)
        assert np.max(np.abs(tr.amplitude - oracle.amplitude)) < 1e-13

    @pytest.mark.parametrize("g", [1e-7, 3e-8])
    def test_threshold_tail_takes_e_plus_2_from_lam(self, g):
        # E = -2 - O(g^(4/3)) is stored only to the ulp of 2; the tail's
        # E + 2 = -(lam - 1)^2 / lam keeps its digits, so the backward scan
        # meets i lam W(0) = 1 down to where the upper bound state is lost
        # (measured 2.6e-11 and 1.1e-10; from E + 2 it raised QuadratureError)
        params = ModelParams(epsilon_d=-2.0, g=g)
        times = np.linspace(0.0, 50.0, 501)
        oracle = survival_lattice_oracle(params, 200, times)
        tr = survival_bessel_sum(params, times)
        assert np.max(np.abs(tr.amplitude - oracle.amplitude)) < 5e-10

    def test_tail_truncation_is_checked(self, monkeypatch):
        # below any achievable budget the closed-form tail fails loudly with
        # its achieved relative truncation
        monkeypatch.setattr(dynamics, "_TAIL_TOL", 1e-40)
        with pytest.raises(QuadratureError) as info:
            survival_bessel_sum(ModelParams(epsilon_d=-2.0, g=0.05), [0.0, 30.0])
        assert 0.0 < info.value.residual < 1e-16

    def test_resonance_lifetime_scale(self):
        # the exact-quartic lifetime 1/(2 |Im E_R|) sits in the high 160s at
        # g = 0.02, while the leading-order width gives g^{-4/3} = 184.2; at
        # the latter time the pole-term probability envelope is within 10%
        # of 1/e
        lifetime = 1.0 / (2.0 * abs(E_R_G002.imag))
        assert 160.0 < lifetime < 190.0
        assert lifetime == pytest.approx(168.77, abs=0.01)
        assert 0.02 ** (-4.0 / 3.0) == pytest.approx(184.2, abs=0.02)
        envelope_sq = np.exp(2.0 * E_R_G002.imag * 184.2)
        assert envelope_sq == pytest.approx(np.exp(-1.0), rel=0.1)


def _remainder_bound(h, n, e_max):
    """A&S 25.4.30 for n Gauss-Legendre nodes on width h, |f^(2n)| <= (e_max + 2)^(2n)."""
    coef = math.factorial(n) ** 4 / ((2 * n + 1) * math.factorial(2 * n) ** 3)
    return h ** (2 * n + 1) * coef * (e_max + 2.0) ** (2 * n)


def _fewest_nodes(h, e_max):
    """The fewest n <= 17 whose remainder bound on width h is at most 1e-17 h, else None."""
    return next((n for n in range(1, 18) if _remainder_bound(h, n, e_max) <= 1e-17 * h), None)


def _rule_nodes(h, n, times):
    """J1 nodes of one checked-panel call of the Bessel route at ``times``:
    n per panel of the width-h grid on [0, max(max t, 25)], n per partial
    panel of a time off that grid, and 2n per panel of the spot check,
    which takes up to 512 panels of each kind.  The grid has its edges at
    0 + m h, or at o + m h, o = fmod(min t, h), with [0, o] one more panel,
    whichever takes fewer nodes; a time is on it if it equals an edge."""
    end = max(np.max(times, initial=0.0), 25.0)

    def nodes(grid, off):
        return n * (grid + off + 2 * min(grid, 512) + 2 * min(off, 512))

    fewest = nodes(math.ceil(end / h), np.count_nonzero(np.fmod(times, h)))
    o = np.fmod(np.min(times), h) if times.size else 0.0
    if o > 0.0:
        grid = math.ceil((end - o) / h)
        off = np.count_nonzero(~np.isin(times, o + h * np.arange(grid + 1.0)))
        fewest = min(fewest, nodes(1 + grid, off))
    return fewest


def _widest_rule_to_1(e_max):
    """The former panel rule: the widest power of two h <= 1 whose bound
    some n <= 17 meets, with the fewest such n."""
    h = 1.0
    while _fewest_nodes(h, e_max) is None:
        h *= 0.5
    return h, _fewest_nodes(h, e_max)


# time sets of the panel-rule tests: t = 0 alone (the bare grid on [0, 25]),
# the CLI's dt = 0.5 window to t = 2000, integer times, times 0.3 apart and
# the beat grid of one time every 4 units to t = 17 338
_RULE_TIMES = {
    "t0": np.zeros(1),
    "half": np.arange(0.0, 2000.5, 0.5),
    "integer": np.arange(0.0, 2001.0),
    "irregular": 0.1 + 0.3 * np.arange(266),
    "beat": 810.3 + 4.0 * np.arange(4133),
}


def _mp_hankel_tail(lam, T, terms=40):
    """30-digit int_T^inf e^{iE(s - T)} J1(2s)/s ds, E = -lam - 1/lam, from
    40 Hankel terms, each integrated with mpmath's generalised exponential
    integral."""
    with mp.workdps(30):
        lam, T, a, total = mp.mpc(lam), mp.mpf(T), mp.mpf(1), 0
        E = -lam - 1 / lam
        for k in range(terms):
            if k:
                a *= (4 - (2 * k - 1) ** 2) / mp.mpf(8 * k)
            alpha = mp.mpf(3) / 2 + k
            for sg in (1, -1):
                c = a / 2**k * mp.expjpi(-sg * mp.mpf(3) / 4) * (sg * 1j) ** k
                z = -1j * (E + 2 * sg) * T
                total += c * mp.expj(2 * sg * T) * T ** (1 - alpha) * mp.exp(z) * mp.expint(alpha, z)
        return complex(total / (2 * mp.sqrt(mp.pi)))


def _growing_state(eps_d, g):
    return next(s for s in near_edge_triplet(ModelParams(eps_d, g)) if s.energy.imag > 0)


class TestHankelTail:
    def test_scaled_expint_matches_mpmath(self):
        # |z| from 1e-3 to 1e4 at the arguments of both branches: the slow
        # branch near arg z = -pi/6 at threshold, the fast one near the
        # imaginary axis; every alpha = 3/2 + k of the series
        r = np.logspace(-3.0, 4.0, 8)
        arg = np.array([-0.5 * np.pi + 1e-3, -np.pi / 6.0, 0.0, 0.5 * np.pi - 1e-3])
        z = (r[:, None] * np.exp(1j * arg)).ravel()
        F, err = dynamics._scaled_expint(dynamics._ALPHA[:, None], z)
        assert np.all(err <= 1e-17 * np.abs(F))
        with mp.workdps(30):
            for row, alpha in zip(F, dynamics._ALPHA):
                for val, zz in zip(row, z):
                    ref = complex(mp.exp(mp.mpc(zz)) * mp.expint(mp.mpf(alpha), mp.mpc(zz)))
                    assert abs(val - ref) <= 1e-14 * abs(ref)

    @pytest.mark.parametrize("g, T", [(1e-4, 25.0), (0.02, 2000.0), (0.3, 25.0)])
    def test_tail_matches_mpmath(self, g, T):
        s = _growing_state(-2.0, g)
        ref = _mp_hankel_tail(s.lam, T)
        assert abs(dynamics._hankel_tail(s.energy, s.lam, T) - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("eps_d, g", [(-2.0, 0.3), (-1.5, 0.5)])
    def test_tail_matches_panels(self, eps_d, g):
        # independent of the expansion: checked panels out to e^{-Im E L} < 1e-17
        s, T = _growing_state(eps_d, g), 25.0
        E = s.energy
        L = 40.0 / E.imag
        h, n = dynamics._panel_rule(abs(E), np.array([T + L]))
        edges = np.linspace(T, T + L, int(np.ceil(L / h)) + 1)
        none = np.empty(0)
        panels, _ = dynamics._checked_panels(
            np.array([E]), np.array([True]), edges, none, none, n)
        ref = np.exp(1j * E * (edges[:-1] - T)) @ panels[:, 0]
        assert abs(dynamics._hankel_tail(E, s.lam, T) - ref) <= 1e-14 * abs(ref)


class TestKnIntegrals:
    def test_zero_at_zero(self):
        for n in (0, 1, 2):
            assert kn_closed_form(n, 0.0) == 0.0

    @pytest.mark.parametrize("n", [0, 1, 2])
    @pytest.mark.parametrize("t", [0.5, 5.0, 50.0])
    def test_closed_form_vs_own_quadrature(self, n, t):
        assert abs(kn_closed_form(n, t) - kn_quadrature(n, t)) < 1e-10

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_closed_form_vs_external_quadrature(self, n):
        # independent oracle: scipy QUADPACK on the defining integrand
        t = 5.0
        fr = lambda s: np.cos(2 * s) * s ** (n - 1) * float(
            np.real(kn_integrand_j1(s))
        )
        # direct formulation without reusing package quadrature
        from scipy.special import j1 as sp_j1

        re = quad(lambda s: np.cos(2 * s) * s ** (n - 1) * sp_j1(2 * s), 0, t,
                  limit=300)[0]
        im = quad(lambda s: -np.sin(2 * s) * s ** (n - 1) * sp_j1(2 * s), 0, t,
                  limit=300)[0]
        assert kn_closed_form(n, t) == pytest.approx(re + 1j * im, abs=1e-11)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_closed_form_rejects_n_before_any_arithmetic(self, monkeypatch, t):
        # at t = 0 the closed form returned 0 for any n; elsewhere it raised
        # only after evaluating J0(2t) and J1(2t)
        monkeypatch.setattr(dynamics, "bessel_j", None)
        with pytest.raises(DomainError, match=re.escape("n in {0, 1, 2}, got 3")):
            kn_closed_form(3, t)

    @pytest.mark.parametrize("n", [-1, 0.5, np.nan], ids=str)
    def test_quadrature_needs_an_integer_n_at_least_0(self, n):
        # for n < 0 the integrand t'^(n-1) J1(2t') ~ t'^n diverges at 0
        with pytest.raises(DomainError, match=re.escape(f"n = {n!r} ")):
            kn_quadrature(n, 1.0)

    def test_long_time_limit_of_k0(self):
        # K0 -> -i as the Bessel terms decay
        assert kn_closed_form(0, 4000.0) == pytest.approx(-1j, abs=2e-2)
        assert abs(kn_closed_form(0, 4000.0) + 1j) < abs(
            kn_closed_form(0, 400.0) + 1j
        )


def kn_integrand_j1(s):
    from bandedge.bessel import bessel_j

    return bessel_j(1, 2 * s)


class TestIntermediateLaw:
    def test_unit_start(self):
        assert np.abs(intermediate_amplitude(0.02, 0.0)) ** 2 == 1.0

    def test_against_oracle_window(self, oracle_g002_600):
        t = oracle_g002_600.times
        m = (t >= 5.0) & (t <= 100.0)
        law = np.abs(intermediate_amplitude(0.02, t[m])) ** 2
        dev = np.max(np.abs(law - oracle_g002_600.probability[m]))
        assert dev < 5e-3
        assert dev < 2e-3  # measured headroom

    def test_power_law_exponent(self, oracle_g002_600):
        t = oracle_g002_600.times
        m = (t >= 5.0) & (t <= 50.0)
        slope = np.polyfit(np.log(t[m]), np.log(1 - oracle_g002_600.probability[m]), 1)[0]
        assert slope == pytest.approx(1.5, abs=0.05)


class TestLongTimeLaw:
    def test_approaches_plateau(self):
        params = ModelParams(epsilon_d=-2.0, g=0.02)
        val = abs(longtime_amplitude(params, np.array([1e7]))[0]) ** 2
        assert val == pytest.approx(4.0 / 9.0, abs=1e-3)

    def test_oscillation_frequency(self):
        # cross term of the bound pole with the branch-point tail oscillates
        # at E_B + 2
        params = ModelParams(epsilon_d=-2.0, g=0.02)
        t = np.arange(500.0, 25000.0, 5.0)
        P = np.abs(longtime_amplitude(params, t)) ** 2
        freq = dominant_frequency(t, P - 4.0 / 9.0, flatten_power=1.5)
        assert freq == pytest.approx(abs(E_B_G002 + 2.0), rel=0.01)

    def test_small_t_limit_is_intermediate_law(self):
        # the Faddeeva series at small argument reproduces the t^{3/2} law
        t = np.linspace(0.05, 10.0, 200)
        law = np.abs(longtime_amplitude(ModelParams(epsilon_d=-2.0, g=0.02), t)) ** 2
        assert np.max(np.abs(law - np.abs(intermediate_amplitude(0.02, t)) ** 2)) < 1e-7

    @pytest.mark.parametrize("eps_d", [-1.999, -2.002])
    def test_detuned_against_oracle(self, eps_d):
        params = ModelParams(epsilon_d=eps_d, g=0.02)
        times = np.arange(0.5, 600.0 + 1e-9, 0.5)
        oracle = survival_lattice_oracle(params, 1250, times)
        law = np.abs(longtime_amplitude(params, times)) ** 2
        assert np.max(np.abs(law - oracle.probability)) < 2e-3

    def test_rejects_nonpositive_times(self):
        params = ModelParams(epsilon_d=-2.0, g=0.02)
        with pytest.raises(DomainError):
            longtime_amplitude(params, np.array([0.0, 1.0]))

    def test_virtual_regime_rejected(self):
        params = ModelParams(epsilon_d=-2.1, g=0.1)
        with pytest.raises(DomainError):
            longtime_amplitude(params, np.array([10.0]))

    @pytest.mark.parametrize("g", [1e-2, 1e-3])
    def test_collapse_onto_the_bessel_route(self, g):
        # in tau = g^(4/3) t both routes tend to one g-free curve, so at
        # threshold their gap shrinks as g^(4/3): max |dP| / g^(4/3) over
        # tau <= 10 measured 0.0677 at both g; bound 0.1
        s = g ** (4.0 / 3.0)
        t = np.linspace(10.0 / 400, 10.0, 400) / s
        params = ModelParams(epsilon_d=-2.0, g=g)
        law = np.abs(longtime_amplitude(params, t)) ** 2
        gap = np.max(np.abs(survival_bessel_sum(params, t).probability - law))
        assert gap <= 0.1 * s


def _has_resonance(eps_d, g):
    """Whether near_edge_triplet has a resonance; None where it raises."""
    try:
        states = near_edge_triplet(ModelParams(eps_d, g))
    except BandEdgeError:
        return None
    return any(st.state_class is StateClass.RESONANCE for st in states)


def _law_applies(eps_d, g):
    """Whether longtime_amplitude returns at (eps_d, g), rather than naming
    the virtual-state regime."""
    try:
        longtime_amplitude(ModelParams(eps_d, g), np.array([1.0]))
    except DomainError as exc:
        assert str(exc) == f"no resonance at eps_d = {eps_d} (|eps_d| >= -eps_bar)"
        return False
    return True


def _mp_resonance_bound(g):
    """-eps_bar to 60 digits, for the real EP eps_bar = E + y/E: y the real
    root of y^3 - g^4 y - 4 g^4 = 0 and E = -sqrt(4 + y)."""
    with mp.workdps(60):
        g4 = mp.mpf(g) ** 4
        y = mp.findroot(lambda y: y**3 - g4 * y - 4 * g4, mp.cbrt(4 * g4) + g4 / 3)
        E = -mp.sqrt(4 + y)
        return -(E + y / E)


class TestLongTimeLawDomain:
    """The law needs a resonance, which exists iff |eps_d| < -eps_bar at the
    real EP; it takes eps_bar in closed form and solves no quartic root."""

    def test_accepts_where_the_triplet_has_a_resonance(self):
        rng = np.random.default_rng(20260)
        g = np.exp(rng.uniform(np.log(1e-8), np.log(3.2), 600))
        eps = rng.uniform(-6.0, 6.0, 600)
        # half the draws within a few g^(4/3) of the lower edge, across the
        # real EP at x_c = -3 2^(-4/3); near the upper edge only from g = 1e-2,
        # where the triplet resolves the cluster at lam = -1 (below that the
        # cluster is solved in y = lam - 1 ~ -2, and its classification is
        # rounding noise out to |x - x_c| >= 0.1 at g = 1e-7)
        x = rng.uniform(-3.0, 3.0, 600)
        near = rng.uniform(size=600) < 0.5
        eps[near] = -2.0 + x[near] * g[near] ** (4.0 / 3.0)
        upper = near & (g >= 1e-2) & (rng.uniform(size=600) < 0.3)
        eps[upper] = -eps[upper]
        solved = 0
        for e, gg in zip(eps.tolist(), g.tolist()):
            res = _has_resonance(e, gg)
            if res is not None:
                solved += 1
                assert _law_applies(e, gg) == res, (e, gg)
        assert solved > 500

    def test_boundary_is_the_exact_real_ep(self):
        # the law compares 2 - |eps_d|, exact near 2, with eps_bar + 2 free of
        # cancellation, so every representable eps_d within two ulps of
        # -+fl(eps_bar), fl(eps_bar) itself included, is decided as the
        # 60-digit EP decides it (fl(eps_bar) was up to 1.03 ulp off that EP
        # on these couplings).
        # The triplet agrees from two ulps off the lower edge; nearer, it can
        # take the other side (it takes fl(eps_bar), and one ulp below it at
        # g = 2).  At the upper edge it is compared only on the draws above
        rng = np.random.default_rng(3)
        for g in np.exp(rng.uniform(np.log(1e-8), np.log(3.2), 30)).tolist():
            E, y = _coalesced(g, 0)
            bar = (E + y / E).real
            exact = _mp_resonance_bound(g)
            for edge in (bar, -bar):
                for k in range(-2, 3):
                    e = edge + k * abs(np.spacing(edge))
                    assert _law_applies(e, g) == (abs(mp.mpf(e)) < exact), (e, g)
                    if edge < 0 and abs(k) == 2 and g > 3e-8:
                        assert _law_applies(e, g) == _has_resonance(e, g), (e, g)

    def test_threshold_below_the_resolution_of_eps_bar(self):
        # at g = 1e-13, eps_bar + 2 = -5.5e-18 rounds eps_bar to -2.0, yet
        # eps_d = -2 (x = 0) has a resonance and the law applies
        assert _law_applies(-2.0, 1e-13)
        assert not _law_applies(np.nextafter(-2.0, -np.inf), 1e-13)

    @pytest.mark.parametrize("g", [1e-8, 1e-9])
    def test_returns_below_the_upper_state_bound(self, g):
        # the bound state above the band rounds to lam = -1 here, so the
        # triplet raises; the law needs no quartic root.  At tau = g^(4/3) t
        # <= 1e-2 it is the t^(3/2) law to 4.17e-8 at every g
        t = np.linspace(1e-4, 1e-2, 100) / g ** (4.0 / 3.0)
        params = ModelParams(epsilon_d=-2.0, g=g)
        gap = np.abs(longtime_amplitude(params, t) - intermediate_amplitude(g, t))
        assert np.max(gap) < 1e-7

    @pytest.mark.parametrize("eps_d, g", [(-1.9, 1e-6), (-1.0, 1e-5), (-1.99, 1e-6)])
    def test_returns_where_the_quartic_meets_the_cut_tolerance(self, eps_d, g):
        # the resonance has |lam| - 1 ~ g^2 <= 1e-10; the law classifies no
        # root, so it needs no sheet decision
        P = np.abs(longtime_amplitude(ModelParams(eps_d, g), np.array([1.0, 1e3, 1e6]))) ** 2
        assert np.all((0.9 < P) & (P <= 1.0))

    @pytest.mark.parametrize("g", [108.0**0.25 * (1 + 1e-15), 3.3, 10.0])
    def test_coupling_past_the_real_ep_bound(self, g):
        # from g^4 = 108 the real EP is gone; the law names its own bound
        with pytest.raises(DomainError, match=r"past the late-time law's bound g < 108\^\(1/4\)"):
            longtime_amplitude(ModelParams(epsilon_d=-2.0, g=g), np.array([1.0]))

    def test_coupling_below_the_real_ep_bound(self):
        g = 108.0**0.25 * (1 - 1e-12)
        assert np.isfinite(longtime_amplitude(ModelParams(-2.0, g), np.array([1.0]))).all()

    def test_zero_coupling_is_the_decoupled_dot(self):
        with pytest.raises(DomainError, match=r"^g = 0 is outside the domain \(need g > 0\)"):
            longtime_amplitude(ModelParams(epsilon_d=-2.0, g=0.0), np.array([1.0]))


class TestPlateau:
    def test_threshold_value(self):
        assert asymptotic_plateau(ModelParams(epsilon_d=-2.0, g=0.02)) == (
            pytest.approx(PLATEAU_G002, abs=1e-12)
        )
        assert asymptotic_plateau(ModelParams(epsilon_d=-2.0, g=0.02)) == (
            pytest.approx(4.0 / 9.0, rel=0.03)
        )

    def test_small_g_limit(self):
        vals = [
            asymptotic_plateau(ModelParams(epsilon_d=-2.0, g=g))
            for g in (0.1, 0.02, 0.005)
        ]
        errs = [abs(v - 4.0 / 9.0) for v in vals]
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-4

    def test_deep_bound_state_retains_weight(self):
        val = asymptotic_plateau(ModelParams(epsilon_d=-3.0, g=0.1))
        assert val == pytest.approx(PLATEAU_DEEP, abs=1e-12)
        assert abs(val - 1.0) < 0.1


class TestExpansionTermChecks:
    def test_pole_sum_tracks_threshold_phase(self):
        # small-g limit: the four residues sum to the free-dot phase e^{2it}
        t = 20.0
        prev = None
        for g in (0.02, 0.005, 0.001):
            pole_sum, _ = expansion_term_checks(ModelParams(epsilon_d=-2.0, g=g), t)
            err = abs(pole_sum - np.exp(2j * t))
            if prev is not None:
                assert err < prev
            prev = err
        assert prev < 1e-3

    def test_quadratic_terms_cancel(self):
        # each piece carries a beta^3 t^2 / 2 artifact; their sum does not,
        # and what survives is the t^{3/2} term of the intermediate law
        g, t = 0.01, 20.0
        beta3 = g * g / 2.0
        params = ModelParams(epsilon_d=-2.0, g=g)
        pole_sum, integral_sum = expansion_term_checks(params, t)
        artifact = 0.5 * beta3 * t * t
        assert abs(pole_sum - np.exp(2j * t) * (1 - artifact)) < 0.2 * artifact
        total = pole_sum + integral_sum
        residual = abs(total - np.exp(2j * t))
        assert residual < 0.5 * artifact
        t32_term = 2.0 / (3.0 * np.sqrt(np.pi)) * g**2 * t**1.5
        assert residual == pytest.approx(t32_term, rel=5e-2)
        assert abs(total - intermediate_amplitude(g, t)) < 0.05 * residual

    def test_zero_time(self):
        # at t = 0 the window has no panels and the integrals vanish
        params = ModelParams(epsilon_d=-2.1, g=0.1)
        pole_sum, integral_sum = expansion_term_checks(params, 0.0)
        residues = sum(s.psid_sq for s in discrete_spectrum(params))
        assert pole_sum == pytest.approx(residues, abs=1e-15)
        assert integral_sum == pytest.approx(0.0, abs=1e-15)


_P002 = ModelParams(epsilon_d=-2.0, g=0.02)
_TIMED = {
    "survival_lattice_oracle": lambda t: survival_lattice_oracle(_P002, 200, [t]),
    "survival_bessel_sum": lambda t: survival_bessel_sum(_P002, [t]),
    "expansion_term_checks": lambda t: expansion_term_checks(_P002, t),
    "kn_closed_form": lambda t: kn_closed_form(1, t),
    "kn_quadrature": lambda t: kn_quadrature(1, t),
    "intermediate_amplitude": lambda t: intermediate_amplitude(0.02, t),
    "longtime_amplitude": lambda t: longtime_amplitude(_P002, t),
    "dominant_frequency": lambda t: dominant_frequency([0.0, t], [0.0, 1.0]),
}


@pytest.mark.parametrize(
    "name, t",
    [(name, t) for name in _TIMED for t in (np.nan, np.inf, -1.0)]
    + [("longtime_amplitude", 0.0)],
    ids=str,
)
def test_times_outside_the_domain_are_named(name, t):
    # every function that takes times rejects a non-finite or negative one
    # (the late-time law also t = 0) before any arithmetic, naming it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"t = {t!r} ")):
            _TIMED[name](t)


@pytest.mark.parametrize("t", [1e300, 6e5 + 1.0], ids=str)
@pytest.mark.parametrize(
    "call",
    [lambda t: survival_bessel_sum(_P002, [0.0, t]), lambda t: expansion_term_checks(_P002, t)],
    ids=["survival_bessel_sum", "expansion_term_checks"],
)
def test_bessel_route_times_are_bounded(call, t):
    # bessel.py documents J1(x) only to x = 2t = 1.2e6: a later time is named
    # before any panel grid is allocated or exponential taken
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=re.escape(f"t = {t!r} ") + r".*<= 600000"):
            call(t)


@pytest.mark.parametrize(
    "call",
    [lambda t: survival_bessel_sum(_P002, t), lambda t: survival_lattice_oracle(_P002, 300, t),
     lambda t: dominant_frequency(t, np.arange(4.0).reshape(t.shape))],
    ids=["survival_bessel_sum", "survival_lattice_oracle", "dominant_frequency"],
)
def test_times_must_be_one_dimensional(call):
    # a 2-D array of valid times is named by its shape, not left to an
    # IndexError or ValueError deep in the route
    with pytest.raises(DomainError, match=re.escape("1-D, got shape (2, 2)")):
        call(np.array([[0.0, 1.0], [2.0, 3.0]]))


@pytest.mark.parametrize("n", [-1, 300.5, np.nan, np.inf, "300"], ids=str)
@pytest.mark.parametrize(
    "call",
    [lambda n: lattice_spectrum(_P002, n), lambda n: dense_lattice_hamiltonian(_P002, n),
     lambda n: survival_lattice_oracle(_P002, n, [0.0, 1.0])],
    ids=["lattice_spectrum", "dense_lattice_hamiltonian", "survival_lattice_oracle"],
)
def test_n_sites_outside_the_domain_is_named(call, n):
    with pytest.raises(DomainError, match=re.escape(f"n_sites = {n!r} ")):
        call(n)


def test_n_sites_may_be_an_integral_float():
    assert np.array_equal(lattice_spectrum(_P002, 40.0)[0], lattice_spectrum(_P002, 40)[0])


class TestDominantFrequency:
    def test_synthetic_tone(self):
        t = np.arange(0.0, 4000.0, 2.0)
        w = 0.0123
        sig = 0.4 * np.cos(w * t + 0.3) * (1 + 0.1 * np.sin(0.0007 * t))
        assert dominant_frequency(t, sig) == pytest.approx(w, rel=1e-3)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(DomainError):
            dominant_frequency(np.array([0.0, 1.0, 3.0]), np.zeros(3))

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_samples_rejected(self, n):
        with pytest.raises(DomainError, match="at least 2 samples"):
            dominant_frequency(np.arange(float(n)), np.zeros(n))

    @pytest.mark.parametrize(
        "times, signal, match",
        [([0.0, np.inf], [0.0, 1.0], "t = inf"),
         (np.arange(10.0), np.r_[np.zeros(9), np.nan], "finite signal"),
         (np.arange(10.0), np.arange(7.0), "does not match"),
         (np.arange(10.0)[::-1], np.arange(10.0), "strictly increasing"),
         (np.r_[0.0, np.arange(9.0)], np.arange(10.0), "strictly increasing"),
         (np.arange(10.0), np.zeros(10), "not constant")],
        ids=["infinite-time", "nan-signal", "short-signal", "decreasing", "repeated",
             "constant"],
    )
    def test_rejects_inputs_outside_the_domain(self, times, signal, match):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=match):
                dominant_frequency(times, signal)

    def test_negative_flatten_power_needs_positive_times(self):
        t = np.arange(10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="t = 0.0 "):
                dominant_frequency(t, np.sin(t), flatten_power=-1.0)
            assert dominant_frequency(t + 1.0, np.sin(t), flatten_power=-1.0) > 0.0

    def test_pads_to_a_fast_length(self, monkeypatch):
        # 16 x 4133 samples (the beat grid at g = 0.02) pad to the least
        # 5-smooth length above them, 67 500 = 2^2 3^3 5^4
        lengths = []
        rfft = np.fft.rfft

        def spy(y, n=None):
            lengths.append(n)
            return rfft(y, n=n)

        monkeypatch.setattr(np.fft, "rfft", spy)
        t = 800.0 + 4.0 * np.arange(4133)
        dominant_frequency(t, np.cos(0.01 * t))
        assert lengths == [67500]

    def test_grid_check_is_the_oracles(self):
        # one time 1e-10 off an otherwise uniform grid, which a relative
        # 1e-9 test on the steps with numpy's default atol of 1e-8 let through
        t = np.arange(0.0, 40.0, 0.5)
        t[7] += 1e-10
        msg = re.escape("times must be a uniform grid; t_k is 1e-10 off t_0 + k dt")
        with pytest.raises(DomainError, match=msg):
            dominant_frequency(t, np.cos(t))
        with pytest.raises(DomainError, match=msg):
            survival_lattice_oracle(_P002, 100, t)
