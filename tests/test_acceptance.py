"""Acceptance suite: one numbered check per release criterion.

Each test prints a single ``[acceptance NN] PASS/FAIL`` line (visible with
``pytest -s`` or in the captured output).  All tolerances are pinned here,
not computed.
"""

import time

import numpy as np
import pytest

from bandedge.dynamics import (
    asymptotic_plateau,
    dominant_frequency,
    kn_closed_form,
    kn_quadrature,
    survival_bessel_sum,
    survival_intermediate_law,
    survival_lattice_oracle,
    survival_longtime_law,
)
from bandedge.ep import ep_parameter
from bandedge.generic import (
    GenericSelfEnergyModel,
    make_model,
    make_singular_v_model,
    self_energy_quadrature,
    singular_v_quadrature,
    threshold_roots,
)
from bandedge.jordan import (
    jordan_chain_check,
    limiting_combinations,
    verify_jordan_form,
)
from bandedge.model import ModelParams
from bandedge.spectrum import (
    StateClass,
    energy_quartic_coeffs,
    near_edge_triplet,
    puiseux_energy,
    threshold_labels,
)

CBRT2 = 2.0 ** (1.0 / 3.0)


def report(num: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance {num}] {status}  {detail}  ({time.perf_counter() - t0:.2f} s)")


def loglog_slope(xs, ys) -> float:
    return float(np.polyfit(np.log(np.asarray(xs)), np.log(np.asarray(ys)), 1)[0])


def threshold_triplet_by_alpha(g: float):
    return threshold_labels(near_edge_triplet(ModelParams(epsilon_d=-2.0, g=g)))


# -------------------------------------------------------------------------
# 01: location of the real exceptional point
# -------------------------------------------------------------------------

def test_acceptance_01_exceptional_point_location():
    t0 = time.perf_counter()
    loc = ep_parameter(0.1, 0)
    err = abs(loc.eps_d.real - (-2.05518))
    co = energy_quartic_coeffs(loc.eps_d, 0.1)
    p_res = abs(np.polyval(co, loc.energy))
    dp_res = abs(np.polyval(np.polyder(co), loc.energy))
    elapsed = time.perf_counter() - t0
    ok = err < 5e-5 and p_res < 1e-8 and dp_res < 1e-8 and elapsed < 1.0
    report("01", ok, f"eps_bar0 = {loc.eps_d.real:.7f} (err {err:.2e}), "
                     f"double-root residuals {p_res:.1e}/{dp_res:.1e}", t0)
    assert err < 5e-5
    assert p_res < 1e-8 and dp_res < 1e-8
    assert elapsed < 1.0


# -------------------------------------------------------------------------
# 02: exact Jordan structure at the coalescence limit
# -------------------------------------------------------------------------

def test_acceptance_02_jordan_structure():
    t0 = time.perf_counter()
    ok_form, J = verify_jordan_form()
    want = np.array([[-1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    exact_form = ok_form and np.array_equal(J, want)
    chains = jordan_chain_check()
    exact_chains = all(all(x == 0 for x in res) for res in chains.values())
    elapsed = time.perf_counter() - t0
    report("02", exact_form and exact_chains and elapsed < 1.0,
           "Jordan block and chain relations exact in integer arithmetic", t0)
    assert exact_form
    assert exact_chains
    assert elapsed < 1.0


# -------------------------------------------------------------------------
# 03: threshold scaling exponents and truncated expansions
# -------------------------------------------------------------------------

def test_acceptance_03_puiseux_scaling():
    t0 = time.perf_counter()
    gs_full = np.logspace(-3, -1, 13)
    # the d-component magnitude carries an O(g^{2/3}) relative correction
    # with coefficient ~0.79 (bound state), which contaminates a fit over the
    # full window beyond the +/-0.02 budget; its exponent is fitted on the
    # small-g portion of the window instead (see README)
    gs_norm = np.logspace(-3, -2, 9)
    e_gap = {a: [] for a in (0, -1, 1)}
    l_gap = {a: [] for a in (0, -1, 1)}
    n_mag = {a: [] for a in (0, -1, 1)}
    for g in gs_full:
        for a, s in threshold_triplet_by_alpha(float(g)).items():
            e_gap[a].append(abs(s.energy + 2.0))
            l_gap[a].append(abs(s.lam - 1.0))
    for g in gs_norm:
        for a, s in threshold_triplet_by_alpha(float(g)).items():
            n_mag[a].append(abs(s.psid_sq))
    slopes_ok = True
    details = []
    for a in (0, -1, 1):
        se = loglog_slope(gs_full, e_gap[a])
        sl = loglog_slope(gs_full, l_gap[a])
        sn = loglog_slope(gs_norm, n_mag[a])
        details.append(f"a={a:+d}: {se:.4f}/{sl:.4f}/{sn:.4f}")
        slopes_ok &= abs(se - 4.0 / 3.0) < 0.01
        slopes_ok &= abs(sl - 2.0 / 3.0) < 0.02
        slopes_ok &= abs(sn + 2.0 / 3.0) < 0.02
    # three-term truncation error stays a stable multiple of g^4
    series_ok = True
    for a in (0, -1, 1):
        ratios = []
        for g in (0.1, 0.05, 0.02, 0.01):
            s = threshold_triplet_by_alpha(g)[a]
            ratios.append(abs(s.energy - puiseux_energy(g, alpha=a)) / g**4)
        series_ok &= max(ratios) < 2.0 * min(ratios) and max(ratios) < 0.02
    elapsed = time.perf_counter() - t0
    ok = slopes_ok and series_ok and elapsed < 5.0
    report("03", ok, "exponents E/lam/norm " + "; ".join(details), t0)
    assert slopes_ok
    assert series_ok
    assert elapsed < 5.0


def test_acceptance_03_note_full_range_norm_fit_is_contaminated():
    # documentation of the deviation above: over the full two decades the
    # bound-state norm fit lands near -0.636, pushed off -2/3 by the O(1)
    # second term of its expansion; this is a property of the model, not of
    # the solver
    gs = np.logspace(-3, -1, 13)
    mags = [abs(threshold_triplet_by_alpha(float(g))[0].psid_sq) for g in gs]
    slope = loglog_slope(gs, mags)
    assert slope == pytest.approx(-0.636, abs=0.01)


# -------------------------------------------------------------------------
# 04: decay-width crossover (threshold enhancement vs golden rule)
# -------------------------------------------------------------------------

def test_acceptance_04_width_crossover():
    t0 = time.perf_counter()
    target = np.sqrt(3.0) / 2.0 ** (2.0 / 3.0)  # 1.0911...

    def width_ratio(eps_d, g, scale):
        tri = near_edge_triplet(ModelParams(epsilon_d=eps_d, g=g))
        res = next(s for s in tri if s.state_class is StateClass.RESONANCE)
        return 2.0 * abs(res.energy.imag) / scale

    seq_thr = [width_ratio(-2.0, g, g ** (4.0 / 3.0)) for g in (1e-2, 1e-3)]
    seq_fgr = [width_ratio(0.0, g, g**2) for g in (1e-1, 1e-2)]
    conv_thr = abs(seq_thr[-1] - target) < abs(seq_thr[0] - target) + 1e-12
    conv_fgr = abs(seq_fgr[-1] - 1.0) <= abs(seq_fgr[0] - 1.0) + 1e-12
    elapsed = time.perf_counter() - t0
    ok = (
        abs(seq_thr[-1] / target - 1.0) < 0.01
        and abs(seq_fgr[-1] - 1.0) < 0.01
        and conv_thr
        and conv_fgr
        and elapsed < 5.0
    )
    report("04", ok, f"2|Im E_R|/g^(4/3) -> {seq_thr[-1]:.5f} (target {target:.5f}); "
                     f"2|Im E_R|/g^2 -> {seq_fgr[-1]:.6f}", t0)
    assert abs(seq_thr[-1] / target - 1.0) < 0.01
    assert abs(seq_fgr[-1] - 1.0) < 0.01
    assert conv_thr and conv_fgr
    assert elapsed < 5.0


# -------------------------------------------------------------------------
# 05: brute-force lattice vs pole/branch-cut representation
# -------------------------------------------------------------------------

def test_acceptance_05_dynamics_cross_validation(request):
    t0 = time.perf_counter()
    oracle = request.getfixturevalue("oracle_g002_600")
    bessel = survival_bessel_sum(
        ModelParams(epsilon_d=-2.0, g=0.02), oracle.times[1:]
    )
    dev = float(np.max(np.abs(bessel.probability - oracle.probability[1:])))
    elapsed = time.perf_counter() - t0
    # all four states are summed, so only quadrature and rounding remain
    # (measured 3.4e-14)
    ok = dev < 1e-12 and elapsed < 60.0
    report("05", ok, f"max |P_lattice - P_bessel| = {dev:.2e} on t in [0, 600], "
                     f"N = 1500", t0)
    assert dev < 1e-12
    assert elapsed < 60.0


# -------------------------------------------------------------------------
# 06: intermediate-window t^(3/2) law
# -------------------------------------------------------------------------

def test_acceptance_06_intermediate_law(request):
    t0 = time.perf_counter()
    oracle = request.getfixturevalue("oracle_g002_600")
    t = oracle.times
    m = (t >= 5.0) & (t <= 100.0)
    law = survival_intermediate_law(0.02, t[m])
    dev = float(np.max(np.abs(oracle.probability[m] - law)))
    mfit = (t >= 5.0) & (t <= 50.0)
    slope = loglog_slope(t[mfit], 1.0 - oracle.probability[mfit])
    elapsed = time.perf_counter() - t0
    ok = dev < 5e-3 and abs(slope - 1.5) < 0.05 and elapsed < 60.0
    report("06", ok, f"max |P - law| = {dev:.2e} on [5, 100]; "
                     f"1-P exponent = {slope:.3f}", t0)
    assert dev < 5e-3
    assert abs(slope - 1.5) < 0.05
    assert elapsed < 60.0


# -------------------------------------------------------------------------
# 07: late-time structure (plateau, beat frequency, closed-form law, lifetime)
# -------------------------------------------------------------------------

def test_acceptance_07_plateau_and_lifetime():
    t0 = time.perf_counter()
    params = ModelParams(epsilon_d=-2.0, g=0.02)
    plateau = asymptotic_plateau(params)
    rel = abs(plateau - 4.0 / 9.0) / (4.0 / 9.0)
    tri = near_edge_triplet(params)
    res = next(s for s in tri if s.state_class is StateClass.RESONANCE)
    lifetime = 1.0 / (2.0 * abs(res.energy.imag))
    ok = rel < 0.03 and 160.0 <= lifetime <= 190.0
    report("07a/d", ok, f"plateau = {plateau:.6f} ({100*rel:.3f}% from 4/9); "
                        f"lifetime = {lifetime:.1f}", t0)
    assert rel < 0.03
    assert 160.0 <= lifetime <= 190.0


def test_acceptance_07_oscillation_frequency():
    t0 = time.perf_counter()
    g = 0.02
    params = ModelParams(epsilon_d=-2.0, g=g)
    target = g ** (4.0 / 3.0) / 2.0 ** (2.0 / 3.0)
    period = 2.0 * np.pi / target
    # the beat of the trapped bound state against the branch-point tail;
    # the lattice route cannot reach many beat periods, so the trace comes
    # from the cross-validated pole/branch-cut route
    times = np.arange(800.0, 800.0 + 9.0 * period, 4.0)
    trace = survival_bessel_sum(params, times)
    plateau = asymptotic_plateau(params)
    freq = dominant_frequency(times, trace.probability - plateau, flatten_power=1.5)
    err = abs(freq - target) / target
    elapsed = time.perf_counter() - t0
    ok = err < 0.02 and elapsed < 120.0
    report("07b", ok, f"beat frequency = {freq:.6e} vs g^(4/3)/2^(2/3) = "
                      f"{target:.6e} ({100*err:.2f}%)", t0)
    assert err < 0.02
    assert elapsed < 120.0


def test_acceptance_07_longtime_law_window(request):
    t0 = time.perf_counter()
    oracle = request.getfixturevalue("oracle_g002_2000")
    params = ModelParams(epsilon_d=-2.0, g=0.02)
    t = oracle.times
    m = t >= 400.0
    law = survival_longtime_law(params, t[m])
    dev = np.abs(oracle.probability[m] - law)
    dev_max = float(dev.max())
    t_ok_from = float(t[m][np.argmax(np.maximum.accumulate(dev[::-1])[::-1] < 0.02)])
    elapsed = time.perf_counter() - t0
    ok = dev_max < 0.02 and elapsed < 120.0
    report("07c", ok, f"max |P - law| = {dev_max:.1e} on [400, 2000] "
                      f"(within 0.02 from t ~ {t_ok_from:.0f})", t0)
    assert dev_max < 0.02, (
        f"measured max deviation {dev_max:.3f} on [400, 2000]; the law meets "
        f"0.02 only for t >= {t_ok_from:.0f}"
    )
    assert elapsed < 120.0


# -------------------------------------------------------------------------
# 08: short-time quadratic (Zeno) coefficient
# -------------------------------------------------------------------------

def test_acceptance_08_zeno_coefficient():
    t0 = time.perf_counter()
    ok = True
    vals = {}
    for g in (0.02, 0.3):
        params = ModelParams(epsilon_d=-2.0, g=g)
        times = np.linspace(1e-4, 0.01, 50)
        tr = survival_lattice_oracle(params, 32, times)
        coeff = float(np.polyfit(times**2, 1.0 - tr.probability, 1)[0])
        vals[g] = coeff
        ok &= abs(coeff / g**2 - 1.0) < 0.01
    report("08", ok, "fitted (1-P)/t^2 over g^2: "
           + ", ".join(f"{c / g**2:.5f} (g={g})" for g, c in vals.items()), t0)
    for g, c in vals.items():
        assert abs(c / g**2 - 1.0) < 0.01


# -------------------------------------------------------------------------
# 09: oscillatory Bessel integrals, closed forms vs quadrature
# -------------------------------------------------------------------------

def test_acceptance_09_kn_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for n in (0, 1, 2):
        for t in (0.5, 5.0, 50.0):
            worst = max(worst, abs(kn_closed_form(n, t) - kn_quadrature(n, t)))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report("09", ok, f"worst |closed - quadrature| = {worst:.2e}", t0)
    assert worst < 1e-10
    assert elapsed < 1.0


# -------------------------------------------------------------------------
# 10: generic threshold model
# -------------------------------------------------------------------------

def test_acceptance_10_generic_model():
    t0 = time.perf_counter()
    model = make_model("const", 0.3)
    worst = 0.0
    for E in np.linspace(-4.0, -0.01, 21):
        got = self_energy_quadrature(model, E)
        want = -np.pi * model.g**2 / np.sqrt(-E)
        worst = max(worst, abs(got - want))
    gs = np.logspace(-4, -2, 9)
    slopes = []
    for which in range(3):
        gaps = []
        for g in gs:
            m = GenericSelfEnergyModel(
                e_th=0.0,
                delta=lambda E: np.ones_like(E),
                lam_coeff=lambda E: np.ones_like(E),
                v=lambda k: np.ones_like(k),
                g=float(g),
            )
            roots, _ = threshold_roots(m)
            roots = sorted(roots, key=lambda z: (round(z.imag, 12), z.real))
            gaps.append(abs(roots[which]))
        slopes.append(loglog_slope(gs, gaps))
    # the singular-coupling counterexample: the threshold limit diverges
    sing = make_singular_v_model(0.2)
    seq = [abs(singular_v_quadrature(sing, -dE)) * np.sqrt(dE)
           for dE in (1e-2, 1e-3, 1e-4)]
    diverges = seq[0] < seq[1] < seq[2]
    elapsed = time.perf_counter() - t0
    ok = (worst < 1e-8 and all(abs(s - 4.0 / 3.0) < 0.01 for s in slopes)
          and diverges and elapsed < 5.0)
    report("10", ok, f"flat-profile worst err {worst:.1e}; cubic exponents "
           + "/".join(f"{s:.4f}" for s in slopes)
           + f"; singular profile diverges: {diverges}", t0)
    assert worst < 1e-8
    for s in slopes:
        assert abs(s - 4.0 / 3.0) < 0.01
    assert diverges
    assert elapsed < 5.0


# -------------------------------------------------------------------------
# 11: limiting-combination residual scalings
# -------------------------------------------------------------------------

def _combination_slopes():
    gs = np.logspace(-4, -2, 9)
    series = {"combo_dot": [], "combo_pseudo": [], "combo_band_edge": []}
    for g in gs:
        res = limiting_combinations(float(g))
        for k in series:
            series[k].append(res[k])
    return {k: loglog_slope(gs, v) for k, v in series.items()}


def test_acceptance_11_dot_combination():
    t0 = time.perf_counter()
    slope = _combination_slopes()["combo_dot"]
    ok = abs(slope - 1.0) < 0.05
    report("11a", ok, f"dot-combination residual exponent = {slope:.4f}", t0)
    assert ok


# Closed-form residual coefficients.  At eps_d = -2, y = lam - 1 solves
# y^3 (2 + y) = -g^2 (1 + y)^2, so y = s + s^2/2 + s^3/12 + O(s^4) with
# s_a = -(g^2/2)^{1/3} e^{2 pi i a/3}, and the first entry of each ratio
# vector is r = g lam/(1 - lam^2) = -(g/s) (1 - s^2/12 + O(s^3)) / 2.
# Summing over the phase index a keeps only powers of s that are multiples
# of three.  The pseudo weights are -1/(3 s_a): the s^0 terms of r/s and of
# r lam/s (coefficients -1/12 and 1/2 - 1/12) leave the residual
# g (-1/24, 0, 5/24, 0) against Phi_d' = (0, 0, 0, -1).  The band-edge
# weights are -2 s_a/(3 g): the s^3 term of s lam (coefficient 1/2) leaves
# g (0, 0, 0, 1/2) against Psi_minus = (1, 0, 1, 0).  The residual norms are
# therefore sqrt(26) g/24 and g/2, each up to O(g^2).
PSEUDO_RESIDUAL_COEFF = np.sqrt(26.0) / 24.0
BAND_EDGE_RESIDUAL_COEFF = 0.5


def test_acceptance_11_pseudo_and_band_edge_combinations():
    t0 = time.perf_counter()
    slopes = _combination_slopes()
    sp = slopes["combo_pseudo"]
    sb = slopes["combo_band_edge"]
    coeffs = {g: limiting_combinations(g) for g in (1e-3, 1e-4)}
    rel = max(
        max(abs(r["combo_pseudo"] / g / PSEUDO_RESIDUAL_COEFF - 1.0),
            abs(r["combo_band_edge"] / g / BAND_EDGE_RESIDUAL_COEFF - 1.0))
        for g, r in coeffs.items()
    )
    ok = abs(sp - 1.0) < 0.05 and abs(sb - 1.0) < 0.05 and rel < 1e-3
    report("11b/c", ok, f"pseudo/band-edge residual exponents = {sp:.4f}/{sb:.4f} "
                        f"(target 1); residual/g matches sqrt(26)/24 and 1/2 "
                        f"to {rel:.1e} at g <= 1e-3", t0)
    assert abs(sp - 1.0) < 0.05
    assert abs(sb - 1.0) < 0.05
    for g, r in coeffs.items():
        assert r["combo_pseudo"] / g == pytest.approx(PSEUDO_RESIDUAL_COEFF, rel=1e-3)
        assert r["combo_band_edge"] / g == pytest.approx(
            BAND_EDGE_RESIDUAL_COEFF, rel=1e-3
        )
