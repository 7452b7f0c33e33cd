import cmath
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bandedge import spectrum
from bandedge.errors import (
    BandEdgeError,
    BranchCutError,
    DegenerateNormalizationError,
    DomainError,
    LabelMatchingError,
    NumericalError,
)
from bandedge.ep import ep_parameter
from bandedge.model import ModelParams
from bandedge.spectrum import (
    _CLASSES,
    _classify,
    _eig_roots,
    _monic_roots,
    StateClass,
    discrete_spectrum,
    eigenstate_profile,
    near_edge_triplet,
    puiseux_energy,
    puiseux_lambda,
    puiseux_norm_d,
    solve_energy_quartic_centred,
    solve_quartic_lambda_raw,
    spectrum_scan,
    threshold_labels,
)

# 40-digit quartic roots at eps_d = -2
LAM_B_G05 = 0.612536054729476
E_B_G05 = -2.24509301570974979
E_BPLUS_G05 = 2.00097584811608654
LAM_RES_G05 = 1.17835474564125342 + 0.543910452169355029j
LAM_B_G01 = 0.843172475069006183
E_B_G01 = -2.0291694443345872
PSID2_B_G01 = 2.30077263875894599

# frozen evaluations of the threshold expansions at g = 0.1
PUISEUX_E_B_G01 = -2.02916892838435046
PUISEUX_LAM_B_G01 = 0.843170202857838867
PUISEUX_NORMD_B_G01 = 2.3016782248827629


def lambda_quartic(eps_d, g):
    """Coefficients of f(lam) = -lam^4 - eps_d lam^3 - g^2 lam^2 + eps_d lam + 1,
    highest power first."""
    return np.array([-1.0, -eps_d, -(g**2), eps_d, 1.0], dtype=complex)


def quartic_residual(params, lam):
    return abs(np.polyval(lambda_quartic(params.epsilon_d, params.g), lam))


# at lam = 2 the two terms of the normalization denominator D cancel exactly
G_ZERO_D = 1.161895003862225


def classify(g, eps_d, lams):
    """(classes, psi0_sq, psid_sq) of the one-point pass on the given four
    roots, E = -lam - 1/lam; the last root stands for the upper bound state.
    The roots are exact by construction, so each radius is zero."""
    lams = np.array([lams], dtype=complex)
    rad = np.zeros(lams.shape)
    code, psi0, psid = _classify(g, np.array([eps_d]), lams, -lams - 1 / lams, rad)
    return [_CLASSES[c] for c in code[0]], psi0[0].tolist(), psid[0].tolist()


def python_norms(g, lam):
    """(psi0_sq, psid_sq) by Python complex arithmetic."""
    g2 = g**2
    one_m = 1 - lam * lam
    D = g2 * lam * lam * (1 + lam * lam) + one_m**3
    return g2 * lam * lam / D, one_m * one_m / D


def hexes(*zs):
    """The bits of complex numbers; .hex() keeps the sign of a zero."""
    return [(z.real.hex(), z.imag.hex()) for z in zs]


class TestLambdaQuartic:
    @pytest.mark.parametrize("eps_d", [np.zeros(0), np.zeros((2, 0)) + 0.1j], ids=["real", "complex"])
    def test_empty_batch(self, eps_d):
        lams, Es = solve_quartic_lambda_raw(eps_d, 0.1)
        assert lams.shape == Es.shape == eps_d.shape + (4,)

    def test_decoupled_at_threshold(self):
        # f(lam) = -(lam-1)^3 (lam+1): triple root at the lower edge
        p = ModelParams(epsilon_d=-2.0, g=0.0)
        lams = sorted(solve_quartic_lambda_raw(p.epsilon_d, p.g)[0].real)
        assert lams[0] == pytest.approx(-1.0, abs=1e-10)
        for lam in lams[1:]:
            assert lam == pytest.approx(1.0, abs=1e-4)

    def test_decoupled_detuned(self):
        p = ModelParams(epsilon_d=-3.0, g=0.0)
        roots, Es = solve_quartic_lambda_raw(p.epsilon_d, p.g)
        lams = sorted(roots, key=lambda z: z.real)
        golden = sorted(
            [-1.0, 1.0, (3 - np.sqrt(5)) / 2, (3 + np.sqrt(5)) / 2]
        )
        for lam, want in zip(lams, golden):
            assert lam == pytest.approx(want, abs=1e-9)
        energies = sorted(Es.real)
        assert energies == pytest.approx([-3.0, -3.0, -2.0, 2.0], abs=1e-8)

    def test_reference_point(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        lams = solve_quartic_lambda_raw(p.epsilon_d, p.g)[0]
        reals = sorted(z.real for z in lams if abs(z.imag) < 1e-12)
        assert len(reals) == 2
        assert reals[0] == pytest.approx(-0.969245546011982848, abs=1e-12)
        assert reals[1] == pytest.approx(LAM_B_G05, abs=1e-12)
        cplx = [z for z in lams if abs(z.imag) > 1e-12]
        assert len(cplx) == 2
        assert cplx[0] == pytest.approx(cplx[1].conjugate(), abs=1e-12)
        assert all(abs(z) > 1 for z in cplx)

    def test_residuals_random_params(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = ModelParams(
                epsilon_d=float(rng.uniform(-3.5, 3.5)), g=float(rng.uniform(0, 1.2))
            )
            for lam, E in zip(*solve_quartic_lambda_raw(p.epsilon_d, p.g)):
                assert quartic_residual(p, lam) < 1e-10
                assert E == pytest.approx(
                    -lam - 1 / lam, abs=1e-10
                )

    def test_vieta(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            p = ModelParams(
                epsilon_d=float(rng.uniform(-3, 3)), g=float(rng.uniform(0.01, 1))
            )
            lams = list(solve_quartic_lambda_raw(p.epsilon_d, p.g)[0])
            # f normalized: lam^4 + eps lam^3 + g^2 lam^2 - eps lam - 1
            assert sum(lams) == pytest.approx(-p.epsilon_d, abs=1e-9)
            assert np.prod(lams) == pytest.approx(-1.0, abs=1e-9)

    def test_complex_detuning_residuals(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            eps = complex(rng.uniform(-2.5, -1.5), rng.uniform(-0.1, 0.1))
            g = float(rng.uniform(0.02, 0.3))
            roots, _ = solve_quartic_lambda_raw(eps, g)
            co = lambda_quartic(eps, g)
            assert np.max(np.abs(np.polyval(co, roots))) < 1e-10
            assert sum(roots) == pytest.approx(-eps, abs=1e-9)


def _mp_roots(eps_d: complex, g: float) -> list:
    """60-digit roots of f(lam), the oracle for the double-precision solver."""
    with mp.workdps(60):
        e, gg = mp.mpmathify(eps_d), mp.mpf(g)
        return list(mp.polyroots([-1, -e, -gg * gg, e, 1], maxsteps=400, extraprec=400))


def _nearest(z: complex, refs: list):
    return min(refs, key=lambda r: abs(z - complex(r)))


# the solver's domain: from weak coupling at threshold to g = 1, detunings
# from below the real EP to well inside the band
_COUPLINGS = st.floats(-5.0, 0.0).map(lambda x: 10.0**x)
_DETUNINGS = st.floats(-2.05, 0.5)
_PROPERTY = settings(max_examples=150, deadline=None, derandomize=True)


class TestQuarticSolverProperties:
    @_PROPERTY
    @given(g=_COUPLINGS, eps_d=_DETUNINGS)
    def test_roots_match_60_digit_oracle(self, g, eps_d):
        lams, Es = solve_quartic_lambda_raw(eps_d, g)
        refs = _mp_roots(eps_d, g)
        for lam, E in zip(lams, Es):
            ref = _nearest(lam, refs)
            assert abs(lam - complex(ref)) <= 1e-14 * abs(complex(ref))
            # E + 2 to 1e-14, up to the rounding of the stored E near -2
            with mp.workdps(60):
                E_ref = -ref - 1 / ref
                err = float(abs(E - E_ref))
                assert err <= 1e-14 * float(abs(E_ref + 2)) + 2.0**-52 * float(abs(E_ref))

    def test_newton_steps_reach_rounding_on_scan_domain(self):
        # the companion eigenvalues alone are good to ~4e-15 here; the
        # Newton steps bring the lam roots to ~3e-16
        rng = np.random.default_rng(3)
        worst = 0.0
        for _ in range(60):
            g, eps_d = float(rng.uniform(0.05, 0.2)), float(rng.uniform(-2.15, -1.85))
            refs = _mp_roots(eps_d, g)
            for lam in solve_quartic_lambda_raw(eps_d, g)[0]:
                ref = complex(_nearest(lam, refs))
                worst = max(worst, abs(lam - ref) / abs(ref))
        assert worst <= 1e-15

    @_PROPERTY
    @given(g=_COUPLINGS, eps_d=_DETUNINGS)
    def test_real_detuning_gives_exact_conjugate_pairs(self, g, eps_d):
        lams, Es = solve_quartic_lambda_raw(eps_d, g)
        for z in (lams, Es):
            cplx = [w for w in z if w.imag != 0]
            assert sorted(cplx, key=lambda w: (w.real, w.imag)) == sorted(
                (w.conjugate() for w in cplx), key=lambda w: (w.real, w.imag)
            )

    @_PROPERTY
    @given(g=_COUPLINGS, eps_d=_DETUNINGS, im=st.floats(-0.1, 0.1).filter(lambda x: x != 0))
    def test_conjugate_detuning_gives_conjugate_roots(self, g, eps_d, im):
        lams, _ = solve_quartic_lambda_raw(complex(eps_d, im), g)
        lams_c, _ = solve_quartic_lambda_raw(complex(eps_d, -im), g)
        for z in lams:
            assert min(abs(z.conjugate() - w) for w in lams_c) <= 1e-14 * abs(z)

    @_PROPERTY
    @given(g=_COUPLINGS, eps_d=_DETUNINGS)
    def test_biorthogonal_normalization(self, g, eps_d):
        try:
            states = discrete_spectrum(ModelParams(epsilon_d=eps_d, g=g))
        except BranchCutError as err:
            # a root whose ||lam| - 1| does not exceed its error radius is
            # rejected before it is normalized
            dist, rad = _undecided(err)
            assert abs(dist) <= rad
            return
        for s in states:
            lam = s.lam
            val = (1 + lam**2) * s.psi0_sq + (1 - lam**2) * s.psid_sq
            assert abs(val - 1.0) <= 1e-9

    @_PROPERTY
    @given(g=_COUPLINGS, eps_d=_DETUNINGS)
    def test_lambda_and_energy_quartics_agree(self, g, eps_d):
        p = ModelParams(epsilon_d=eps_d, g=g)
        from_l = solve_quartic_lambda_raw(p.epsilon_d, p.g)[1]
        # centred at v = E - eps_d, the pair near the dot level (split
        # ~2 g^2 / sqrt(eps_d^2 - 4)) is well scaled; measured 3.5e-15
        for E in solve_energy_quartic_centred(p) + p.epsilon_d:
            assert min(abs(E - w) for w in from_l) <= 1e-14


# threshold-cubic coefficients Delta, Lam of x^3 + g^2 Delta x + g^2 Lam
_CUBIC_COEFFS = st.floats(-3.0, 3.0)


class TestCubicRowsThroughTheCore:
    @_PROPERTY
    @given(
        g=_COUPLINGS, delta=_CUBIC_COEFFS, lam=_CUBIC_COEFFS.filter(lambda x: abs(x) > 1e-3)
    )
    def test_cubic_roots_match_60_digit_oracle(self, g, delta, lam):
        # the rows of generic.threshold_roots and, with Delta = delta/g^2 and
        # Lam = 1/2, of the late-time law; the bound scales with each root's
        # condition number, which diverges only at the double root
        row = np.array([0.0, g * g * delta, g * g * lam])
        roots = _monic_roots(row)
        assert roots.shape == (3,)
        with mp.workdps(60):
            refs = mp.polyroots(
                [1, 0, mp.mpf(row[1]), mp.mpf(row[2])], maxsteps=400, extraprec=400
            )
        for z in roots:
            ref = complex(_nearest(z, refs))
            size = abs(ref) ** 3 + abs(row[1] * ref) + abs(row[2])
            assert abs(z - ref) <= 1e-14 * size / abs(3.0 * ref * ref + row[1])
        cplx = sorted((z for z in roots if z.imag != 0), key=lambda w: (w.real, w.imag))
        assert cplx == sorted((z.conjugate() for z in cplx), key=lambda w: (w.real, w.imag))


def _lam_rows(eps_d, g) -> np.ndarray:
    """The monic rows of f in y = lam - 1 that solve_quartic_lambda_raw
    solves, one per (eps_d, g) pair."""
    d, g2 = np.asarray(eps_d, complex) + 2.0, np.asarray(g, float) * np.asarray(g, float)
    return np.stack(np.broadcast_arrays(2.0 + d, 3.0 * d + g2, 2.0 * (d + g2), g2), axis=-1)


def _closed_form_certified(rows: np.ndarray) -> np.ndarray:
    """Whether each row's polished closed-form roots pass the certificate."""
    with np.errstate(all="ignore"):
        seeds = spectrum._ferrari(rows)
        return spectrum._certified(rows, spectrum._polish(rows, seeds)[0])


def _bits(z) -> list:
    return [(w.real.hex(), w.imag.hex()) for w in np.ravel(z).astype(complex).tolist()]


class TestCertifiedClosedForm:
    def test_rows_are_independent_of_their_batch(self):
        # sheet cells, an im = 0 cell, the two complex EPs (where two roots
        # coalesce, so their discs overlap) and a weak-coupling cell in one
        # batch: each row is its own solve to the bit, and the real and EP
        # rows are the eigensolve's
        rng = np.random.default_rng(24)
        cells = rng.uniform(-2.15, -1.85, 12) + 1j * rng.uniform(-0.08, 0.08, 12)
        eps = np.concatenate(
            [cells, [-2.0], [ep_parameter(0.1, n).eps_d for n in (-1, 1)], [-2.0 + 0.01j]])
        g = np.r_[np.full(15, 0.1), 1e-8]
        rows = _lam_rows(eps, g)
        certified = _closed_form_certified(rows)
        assert certified[:12].all() and certified[15] and not certified[13:15].any()
        batch = _monic_roots(rows)
        for row, roots in zip(rows, batch):
            assert _bits(_monic_roots(row)) == _bits(roots)
        for k in (12, 13, 14):
            assert _bits(_eig_roots(rows[k])) == _bits(batch[k])
        # so a sheet cell equals the point solve at its eps_d
        lams, Es = solve_quartic_lambda_raw(eps[:15], 0.1)
        for k in [*range(12), 13, 14]:
            lam, E = solve_quartic_lambda_raw(eps[k], 0.1)
            assert _bits(lam) == _bits(lams[k]) and _bits(E) == _bits(Es[k])

    def test_certified_roots_match_60_digit_oracle(self):
        # sheet-domain cells: the certified roots are as accurate as the
        # eigensolve's, to within one ulp of lam ~ 1 (at rounding level the
        # two paths land on different doubles, each the closer about as often)
        rng = np.random.default_rng(2024)
        n = 120
        eps = rng.uniform(-2.15, -1.85, n) + 1j * rng.uniform(-0.08, 0.08, n)
        g = rng.uniform(0.05, 1.0, n)
        rows = _lam_rows(eps, g)
        assert _closed_form_certified(rows).all()
        worst = np.zeros(2)
        for e, gg, *paths in zip(eps, g, 1.0 + _monic_roots(rows), 1.0 + _eig_roots(rows)):
            refs = [complex(r) for r in _mp_roots(complex(e), float(gg))]
            for k, lams in enumerate(paths):
                err = max(min(abs(w - r) for w in lams) / abs(r) for r in refs)
                worst[k] = max(worst[k], err)
        assert worst[1] <= 1e-15
        assert worst[0] <= worst[1] + 2.0**-52

    @pytest.mark.parametrize("n", [-1, 1])
    def test_complex_ep_falls_back_to_the_eigensolve(self, n):
        rows = _lam_rows([ep_parameter(0.1, n).eps_d], [0.1])
        assert not _closed_form_certified(rows)[0]
        assert _bits(_monic_roots(rows)) == _bits(_eig_roots(rows))

    def test_unconverged_newton_fails_the_certificate(self):
        # the threshold cluster at g = 1e-8 has a 20 % closed-form seed, and
        # three Newton steps leave it 1e-11 off, inside disjoint discs; |p| is
        # still above its rounding bound there, so the eigensolve takes the row
        eps_d = -2.0 + 1e-12j
        assert not _closed_form_certified(_lam_rows([eps_d], [1e-8]))[0]
        lams, _ = solve_quartic_lambda_raw(eps_d, 1e-8)
        for ref in _mp_roots(eps_d, 1e-8):
            ref = complex(ref)
            assert abs(complex(_nearest(ref, lams)) - ref) <= 1e-15 * abs(ref)

    def test_real_row_fails_the_certificate(self):
        # the closed form never sees a real row; here it would fail anyway
        assert not _closed_form_certified(_lam_rows([-2.0], [1e-8]))[0]

    def test_overflowing_closed_form_raises_the_eigensolve_error(self):
        # at g = 1e30 the closed form overflows, with no RuntimeWarning; the
        # row falls back and the eigensolve raises its own error
        rows = _lam_rows([-2.0 + 0.01j], [1e30])
        with np.errstate(all="ignore"):
            assert not np.isfinite(spectrum._ferrari(rows)).all()
        with pytest.raises(NumericalError) as want:
            _eig_roots(rows)
        with pytest.raises(NumericalError, match=re.escape(str(want.value))):
            solve_quartic_lambda_raw(-2.0 + 0.01j, 1e30)


def _mp_class(ref) -> StateClass:
    """The class of a 60-digit root lam: sheet by |lam| against 1, reality
    by Im lam, resonance or anti-resonance by the sign of Im E."""
    if abs(ref) < 1:
        return StateClass.BOUND_LOWER if mp.re(ref) > 0 else StateClass.BOUND_UPPER
    if abs(mp.im(ref)) < mp.mpf(10) ** -40:
        return StateClass.VIRTUAL
    E = -ref - 1 / ref
    return StateClass.RESONANCE if mp.im(E) < 0 else StateClass.ANTI_RESONANCE


def _undecided(err: BranchCutError) -> tuple[float, float]:
    """(|lam| - 1, radius) as a BranchCutError of the classify pass names them."""
    m = re.search(r"\|lam\| - 1 = (\S+) is within its root error radius (\S+)$", str(err))
    assert m, str(err)
    return float(m[1]), float(m[2])


class TestRootRadius:
    def test_radius_holds_the_60_digit_root(self):
        # the scan domain, g log-uniform from 1e-8 to 1e2: each root's disc
        # holds its 60-digit root, and wherever the point is classified
        # every class is the 60-digit root's
        rng = np.random.default_rng(27)
        classified = 0
        for eps_d, g in zip(rng.uniform(-3.0, 3.0, 150).tolist(),
                            (10.0 ** rng.uniform(-8.0, 2.0, 150)).tolist()):
            lams, _ = solve_quartic_lambda_raw(eps_d, g)
            rad = spectrum._radius(spectrum._lam_rows(eps_d, g), lams - 1.0)[0]
            refs = _mp_roots(eps_d, g)
            with mp.workdps(60):
                for lam, r in zip(lams.tolist(), rad.tolist()):
                    assert abs(mp.mpc(lam) - _nearest(lam, refs)) <= r, (eps_d, g, lam)
            try:
                states = discrete_spectrum(ModelParams(eps_d, g))
            except BandEdgeError:  # e.g. no upper bound state past eps_d = 2
                continue
            classified += 1
            for s in states:
                assert s.state_class is _mp_class(_nearest(s.lam, refs)), (eps_d, g, s)
        assert classified >= 125  # 130 measured; the rest raise a stated error

    @pytest.mark.parametrize("eps_d, g", [(-1.9, 1e-6), (-1.0, 1e-5), (-1.99, 1e-6)], ids=str)
    def test_in_band_resonance_at_weak_coupling(self, eps_d, g):
        # |lam| - 1 ~ g^2, 1e-12 to 1e-10, is far above the radius (~1e-15),
        # so every sheet is decided
        states = discrete_spectrum(ModelParams(eps_d, g))
        refs = _mp_roots(eps_d, g)
        for s in states:
            ref = _nearest(s.lam, refs)
            assert s.state_class is _mp_class(ref)
            assert abs(s.energy - complex(-ref - 1 / ref)) <= 1e-15
        assert [s.state_class for s in states[1:3]] == [
            StateClass.RESONANCE, StateClass.ANTI_RESONANCE]

    def test_undecidable_sheet_names_both_numbers(self):
        # at (1.5, 1e-7) the resonance has |lam| - 1 = 7.3e-15 against a
        # radius of 9.2e-14
        with pytest.raises(BranchCutError) as info:
            discrete_spectrum(ModelParams(1.5, 1e-7))
        dist, rad = _undecided(info.value)
        assert 0.0 < dist <= rad < 1e-12
        assert dist == pytest.approx(abs(info.value.roots[0]) - 1.0, rel=1e-3)


class TestNearEdgeTripletAtWeakCoupling:
    @pytest.mark.parametrize("g", [1e-5, 2e-5, 2.8e-5])
    def test_dropped_upper_bound_state_inside_cut_tolerance(self, g):
        # the upper bound state has 1 - |lam| ~ g^2/8 <= 1e-10 here; it is
        # dropped before classification, so it cannot raise BranchCutError
        classes = {s.state_class for s in near_edge_triplet(ModelParams(-2.0, g))}
        assert classes == {
            StateClass.BOUND_LOWER,
            StateClass.RESONANCE,
            StateClass.ANTI_RESONANCE,
        }
        # discrete_spectrum keeps it with its residue g^2/32 and classifies
        # the exactly real root by |lam| < 1, not the cut test
        upper = discrete_spectrum(ModelParams(-2.0, g))[3]
        assert upper.state_class is StateClass.BOUND_UPPER
        assert upper.psid_sq.real == pytest.approx(g * g / 32.0, rel=1e-4)
        classes = [s.state_class for s in discrete_spectrum(ModelParams(-2.0, g))]
        assert classes.count(StateClass.BOUND_UPPER) == 1

    @pytest.mark.parametrize(
        "eps_d, g", [(-2.0, 3e-8), (-2.0, 4e-8), (-2.1, 4e-8), (-2.5, 4e-8)], ids=str
    )
    def test_upper_bound_state_resolved_above_its_bound(self, eps_d, g):
        # lam = -1 + g^2/(4 - 2 eps_d) keeps its shift once that exceeds ~1.1e-16
        states = discrete_spectrum(ModelParams(eps_d, g))
        assert states[3].state_class is StateClass.BOUND_UPPER
        assert -1.0 < states[3].lam.real < 0.0
        assert len(near_edge_triplet(ModelParams(eps_d, g))) == 3

    @pytest.mark.parametrize(
        "eps_d, g", [(-2.0, 2e-8), (-2.0, 1e-8), (-2.1, 3e-8), (-1.9, 3e-8), (-2.5, 1e-12)],
        ids=str,
    )
    def test_upper_bound_state_below_its_bound_is_out_of_domain(self, eps_d, g):
        # the shift rounds away and lam = -1 comes out: a stated bound, not a
        # failed label match
        for solve in (near_edge_triplet, discrete_spectrum):
            with pytest.raises(DomainError, match=r"rounds to lam = -1\.0 .*g >~ 3e-8"):
                solve(ModelParams(eps_d, g))

    def test_subnormal_coupling_out_of_domain_without_warnings(self):
        # g^2 = 1e-310 is subnormal: the root polish overflows and discards
        # those steps, and the call reports only its DomainError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"rounds to lam = -1\.0"):
                discrete_spectrum(ModelParams(-2.0, 1e-155))

    def test_missing_upper_bound_state_rejected(self):
        # at g = 0 the fourth root sits on the band edge lam = -1: the
        # decoupled dot is outside the domain, and the error says so
        with pytest.raises(DomainError, match=r"^g = 0 is outside the domain \(need g > 0\)"):
            near_edge_triplet(ModelParams(-2.5, 0.0))

    @pytest.mark.parametrize("eps_d", [-2.5, -2.0])
    def test_all_four_states_need_the_upper_bound_state(self, eps_d):
        # discrete_spectrum vets g = 0, where the fourth root is lam = -1 on
        # the cut, as near_edge_triplet does
        with pytest.raises(DomainError, match="lam = \\+-1, the band edges, are roots on the cut"):
            discrete_spectrum(ModelParams(eps_d, 0.0))

    @pytest.mark.parametrize("eps_d, g", [(-2.0, 0.5), (-2.0, 1e-5), (-1.2, 0.2), (0.3, 0.2)])
    def test_four_states_in_ascending_energy(self, eps_d, g):
        states = discrete_spectrum(ModelParams(eps_d, g))
        assert [s.energy.real for s in states] == sorted(s.energy.real for s in states)
        assert states[3].state_class is StateClass.BOUND_UPPER
        assert states[:3] == near_edge_triplet(ModelParams(eps_d, g))


def _purcell_width(x: float) -> float:
    """F(x) = 2 |Im w_R^2|, the resonance width 2 |Im E_R| in units of
    g^(4/3): w_R is the root of w^3 + x w - 1/2 = 0 with Im w^2 > 0, the
    threshold cubic in E = -2 - g^(4/3) w^2, x = (eps_d + 2) / g^(4/3)."""
    w2 = _monic_roots(np.array([0.0, x, -0.5])) ** 2
    return 2.0 * abs(w2[w2.imag > 0][0].imag)


_X_C = -3.0 * 2.0 ** (-4.0 / 3.0)  # the cubic's double root: the real EP, F = 0


class TestPurcellCrossover:
    """The width F(x) carries the Purcell-enhanced g^(4/3) decay at x = 0
    over to the golden rule 2 |Im E| = g^2 / sqrt(delta) as x -> inf."""

    def test_anchors(self):
        assert _purcell_width(-0.5) == pytest.approx(1.0, rel=1e-15)  # w = 1 is a root
        assert _purcell_width(0.0) == pytest.approx(3**0.5 / 2 ** (2 / 3), rel=1e-15)
        assert _purcell_width(0.0) == pytest.approx(1.0911236, abs=1e-7)
        # F(x) sqrt(x) -> 1: 0.99984 at x = 10, 0.9999998 at x = 100
        assert _purcell_width(10.0) * 10.0**0.5 == pytest.approx(0.99984, abs=1e-5)
        assert _purcell_width(100.0) * 10.0 == pytest.approx(0.9999998, abs=1e-7)

    # the measured C(x) = |2 |Im E_R| / g^(4/3) - F(x)| / g^(4/3), constant to
    # three digits over g = 1e-2 ... 1e-7; each bound is 1.5 C
    @pytest.mark.parametrize("x, c", [
        (_X_C + 1e-2, 0.2802), (-0.5, 0.02500), (0.0, 0.05728),
        (1.0, 0.1211), (10.0, 0.3969), (100.0, 1.303)])
    def test_quartic_width_approaches_the_cubic_as_g_to_the_four_thirds(self, x, c):
        # closer to x_c the approach is slower: at x - x_c = 8e-7 and g = 1e-4
        # the quartic gives 1.315e-3 against F = 1.455e-3, so points there
        # are left out
        for g in 10.0 ** -np.arange(2, 8):
            s = g ** (4.0 / 3.0)
            eps_d = -2.0 + x * s
            # x from the stored eps_d: the rounding of eps_d shows from g = 1e-6
            x_stored = (eps_d + 2.0) / s
            res = next(st for st in near_edge_triplet(ModelParams(eps_d, g))
                       if st.state_class is StateClass.RESONANCE)
            gap = abs(2.0 * abs(res.energy.imag) / s - _purcell_width(x_stored))
            assert gap <= 1.5 * c * s, (x, g, gap / s)


class TestEnergyQuartic:
    def test_triple_root_at_threshold(self):
        p = ModelParams(epsilon_d=-2.0, g=0.0)
        Es = sorted(E.real for E in solve_energy_quartic_centred(p) + p.epsilon_d)
        assert Es[3] == pytest.approx(2.0, abs=1e-10)
        for E in Es[:3]:
            assert E == pytest.approx(-2.0, abs=1e-4)

    def test_reference_point(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        Es = solve_energy_quartic_centred(p) + p.epsilon_d
        reals = sorted(E.real for E in Es if abs(E.imag) < 1e-10)
        assert reals[0] == pytest.approx(E_B_G05, abs=1e-10)
        assert reals[1] == pytest.approx(E_BPLUS_G05, abs=1e-10)

    def test_upper_bound_leading_balance(self):
        # (E - 2) * 64 ~ g^4 just above the upper edge
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        Es = solve_energy_quartic_centred(p) + p.epsilon_d
        eb = max(E.real for E in Es if abs(E.imag) < 1e-10)
        assert (eb - 2.0) * 64.0 == pytest.approx(p.g**4, rel=2e-3)

    def test_matches_lambda_route(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            p = ModelParams(
                epsilon_d=float(rng.uniform(-3, 3)), g=float(rng.uniform(0.01, 1))
            )
            from_e = np.sort_complex(solve_energy_quartic_centred(p) + p.epsilon_d)
            from_l = np.sort_complex(solve_quartic_lambda_raw(p.epsilon_d, p.g)[1])
            assert np.allclose(from_e, from_l, atol=1e-9)

    def test_vieta_sum(self):
        for eps in (-2.5, -2.0, 0.0, 1.3):
            p = ModelParams(epsilon_d=eps, g=0.4)
            assert sum(solve_energy_quartic_centred(p) + p.epsilon_d) == pytest.approx(
                2 * eps, abs=1e-9
            )

    @pytest.mark.parametrize("eps_d", [-3.0, -2.5, -2.1, -1.9, -1.0, 0.0, 1.5, 2.5])
    def test_near_dot_pair_at_weak_coupling(self, eps_d):
        # v ~ +-g^2 / sqrt(eps_d^2 - 4) against 90-digit roots; at g = 1e-12
        # the companion solve alone returns both as v = 0
        for g in (1e-3, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12):
            p = ModelParams(epsilon_d=eps_d, g=g)
            v = solve_energy_quartic_centred(p)
            with mp.workdps(90):
                e = mp.mpf(eps_d)
                ref = mp.polyroots([1, 2 * e, e * e - 4, 0, -mp.mpf(g) ** 4],
                                   maxsteps=500, extraprec=400)
                ref = sorted(ref, key=abs)[:2]
                got = sorted(v, key=abs)[:2]
                err = min(max(abs(mp.mpc(w) - z) / abs(z) for w, z in zip(order, ref))
                          for order in (got, got[::-1]))
            assert err < 1e-13, (g, float(err))
            if abs(eps_d) < 2:
                assert got[0] == got[1].conjugate()

    @pytest.mark.parametrize("eps_d", [-2.0, 2.0])
    def test_threshold_triplet_at_weak_coupling(self, eps_d):
        # b = 0: v^3 ~ g^4 / (2 eps_d) against 90-digit roots; from g ~ 1e-15
        # the companion solve alone returns the triplet as exact zeros
        for g in (1e-3, 1e-8, 1e-13, 1e-15, 1e-16, 1e-20):
            p = ModelParams(epsilon_d=eps_d, g=g)
            v = solve_energy_quartic_centred(p)
            with mp.workdps(90):
                ref = mp.polyroots([1, 2 * mp.mpf(eps_d), 0, 0, -mp.mpf(g) ** 4],
                                   maxsteps=500, extraprec=400)
                err = max(min(abs(mp.mpc(w) - z) / abs(z) for w in v) for z in ref)
            assert err < 1e-13, (g, float(err))
            triplet = sorted(v, key=abs)[:3]
            assert sorted(triplet, key=lambda z: z.imag) == sorted(
                np.conj(triplet), key=lambda z: z.imag)

    @pytest.mark.parametrize("g", [1e-78, 1e-90])
    def test_subnormal_coupling_to_the_fourth_raises(self, g):
        with pytest.raises(DomainError, match="need g = 0 or g >= 1.22"):
            solve_energy_quartic_centred(ModelParams(epsilon_d=-1.0, g=g))
        assert np.all(solve_energy_quartic_centred(ModelParams(-1.0, 1.3e-77)) != 0)

    def test_coupling_above_the_bound_raises(self):
        # g^4 overflowed into a bare OverflowError at g = 1e100; the bound
        # g <= 1e38 keeps g^8, the scale of the residual check, finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bound = "g = 1.000e+100 is above the energy route's bound g <= 1e+38"
            with pytest.raises(DomainError, match=re.escape(bound)):
                solve_energy_quartic_centred(ModelParams(epsilon_d=-2.0, g=1e100))
            assert np.all(np.isfinite(solve_energy_quartic_centred(ModelParams(-2.0, 1e38))))

    @pytest.mark.parametrize("eps_d, g", [(1e50, 0.1), (-1e50, 0.1), (1e40, 1e36)], ids=str)
    def test_detuning_at_and_past_its_bound(self, eps_d, g):
        # at g = 0.1 the residual scale ~ eps_d^6 overflowed with a
        # RuntimeWarning from |eps_d| = 1e52; one ulp past the bound the
        # DomainError comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.all(np.isfinite(solve_energy_quartic_centred(ModelParams(eps_d, g))))
            past = np.nextafter(eps_d, np.copysign(np.inf, eps_d))
            bound = f"eps_d = {past}, g = {g:.3e} is outside the energy route's bounds"
            with pytest.raises(DomainError, match=re.escape(bound)):
                solve_energy_quartic_centred(ModelParams(past, g))

    def test_fails_loudly_in_the_far_detuned_band(self):
        # inside the stated bounds, in the band 1e-3 |eps_d|^(1/2) <~ g <~
        # 3e-12 |eps_d| the companion solve misses its residual check: a
        # NumericalError, not a wrong root and not a bare numpy error
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalError, match="did not converge"):
                solve_energy_quartic_centred(ModelParams(epsilon_d=1.3e25, g=1e10))

    def test_conjugate_pairing(self):
        p = ModelParams(epsilon_d=-1.97, g=0.1)
        Es = [E for E in solve_energy_quartic_centred(p) + p.epsilon_d if abs(E.imag) > 1e-10]
        assert len(Es) == 2
        assert Es[0] == pytest.approx(Es[1].conjugate(), abs=1e-10)


class TestClassification:
    def test_bound_states(self):
        classes = classify(0.1, -2.0, [0.5, 2.0, 3.0, -0.5])[0]
        assert classes[0] is StateClass.BOUND_LOWER
        assert classes[3] is StateClass.BOUND_UPPER

    def test_virtual_pair_below_ep(self):
        # below the real exceptional point (~ -2.055 at g = 0.1) the
        # second-sheet pair is real: two virtual states
        p = ModelParams(epsilon_d=-2.1, g=0.1)
        classes = [s.state_class for s in near_edge_triplet(p)]
        assert classes.count(StateClass.VIRTUAL) == 2
        assert classes.count(StateClass.BOUND_LOWER) == 1

    def test_resonance_pair_above_ep(self):
        p = ModelParams(epsilon_d=-2.0, g=0.1)
        classes = {s.state_class for s in near_edge_triplet(p)}
        assert classes == {
            StateClass.BOUND_LOWER,
            StateClass.RESONANCE,
            StateClass.ANTI_RESONANCE,
        }

    def test_cut_rejected(self):
        with pytest.raises(BranchCutError):
            classify(0.1, -2.0, [cmath.exp(0.3j), 2.0, 3.0, -0.5])

    def test_rejections_in_check_order(self):
        # the upper state first, then each root in ascending Re E: cut,
        # reality, then a vanishing denominator (D = 0 at lam = 2 here)
        bad = [cmath.exp(0.3j), 0.5j, 2.0]
        with pytest.raises(LabelMatchingError):
            classify(G_ZERO_D, -2.0, bad + [0.5])
        with pytest.raises(BranchCutError):
            classify(G_ZERO_D, -2.0, bad + [-0.5])
        with pytest.raises(DomainError, match=re.escape("non-real first-sheet root 0.5j")):
            classify(G_ZERO_D, -2.0, bad[1:] + [3.0, -0.5])


class TestNormalization:
    def test_decoupled_dot_state(self):
        # g = 0, E = -3: all weight on the dot up to the bound-state factor
        lam = (3 - np.sqrt(5)) / 2
        _, psi0, psid = classify(0.0, -3.0, [lam, 1 / lam, 3.0, -0.5])
        psi0_sq, psid_sq = psi0[0], psid[0]
        assert psi0_sq == 0.0
        assert psid_sq == pytest.approx(1.0 / (1.0 - lam**2), abs=1e-12)

    def test_normalization_identity(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        for s in discrete_spectrum(p):
            lam, psi0_sq, psid_sq = s.lam, s.psi0_sq, s.psid_sq
            val = (1 + lam**2) * psi0_sq + (1 - lam**2) * psid_sq
            assert val == pytest.approx(1.0, abs=1e-12)

    def test_coupled_equation_residual(self):
        # (1 - lam^2) <0|psi> = g lam <d|psi> holds in squared form
        rng = np.random.default_rng(21)
        for _ in range(10):
            p = ModelParams(
                epsilon_d=float(rng.uniform(-3, 0)), g=float(rng.uniform(0.05, 0.8))
            )
            for s in discrete_spectrum(p):
                lam, psi0_sq, psid_sq = s.lam, s.psi0_sq, s.psid_sq
                lhs = (1 - lam**2) ** 2 * psi0_sq
                rhs = p.g**2 * lam**2 * psid_sq
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_degenerate_denominator(self):
        with pytest.raises(DegenerateNormalizationError, match="vanished at lam = \\(2\\+0j\\)"):
            classify(G_ZERO_D, -2.0, [0.5, 2.0, 3.0, -0.5])

    def test_norms_are_python_complex_arithmetic_to_the_bit(self):
        # psi0_sq and psid_sq round as the Python complex expressions do,
        # signed zeros included; half the sample has eps_d inside the band
        rng = np.random.default_rng(23)
        points = list(zip(rng.uniform(-4.0, 4.0, 200).tolist(),
                          (10.0 ** rng.uniform(-4.0, 0.5, 200)).tolist()))
        for eps, g in points + [(-1.0, 0.3), (0.0, 0.1), (1.5, 0.05), (-2.0, 1e-7)]:
            for s in discrete_spectrum(ModelParams(eps, g)):
                assert hexes(s.psi0_sq, s.psid_sq) == hexes(*python_norms(g, s.lam))
        # the g = 0 decoupled dot at eps_d = -3: lam = (3 -+ sqrt(5)) / 2
        lams = [(3 - 5**0.5) / 2, (3 + 5**0.5) / 2, 3.0, -0.5]
        _, psi0, psid = classify(0.0, -3.0, lams)
        for lam, p0, pd in zip(lams, psi0, psid):
            assert hexes(p0, pd) == hexes(*python_norms(0.0, complex(lam)))

    def test_norm_divergence_scaling(self):
        # g^{2/3} <d|psi_B>^2 -> 2^{1/3}/3 ~ 0.41997
        target = 2.0 ** (1.0 / 3.0) / 3.0
        prev_err = None
        for g in (0.05, 0.02, 0.005):
            p = ModelParams(epsilon_d=-2.0, g=g)
            bound = next(
                s
                for s in near_edge_triplet(p)
                if s.state_class is StateClass.BOUND_LOWER
            )
            err = abs(bound.psid_sq.real * g ** (2.0 / 3.0) - target)
            if prev_err is not None:
                assert err < prev_err
            prev_err = err
        assert prev_err < 0.01

    def test_reference_value(self):
        p = ModelParams(epsilon_d=-2.0, g=0.1)
        bound = next(
            s for s in near_edge_triplet(p) if s.state_class is StateClass.BOUND_LOWER
        )
        assert bound.psid_sq.real == pytest.approx(PSID2_B_G01, abs=1e-10)

    def test_residue_sum_rule(self):
        # the four squared d-components sum to exactly one
        for eps, g in [(-2.0, 0.5), (-2.0, 0.02), (-1.3, 0.3), (0.0, 0.1)]:
            p = ModelParams(epsilon_d=eps, g=g)
            total = sum(s.psid_sq for s in discrete_spectrum(p))
            assert total == pytest.approx(1.0, abs=1e-9)


class TestEigenstateProfile:
    def test_bound_state_decay(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        bound = next(
            s for s in discrete_spectrum(p) if s.state_class is StateClass.BOUND_LOWER
        )
        vals = [abs(eigenstate_profile(bound, x)) for x in range(0, 30)]
        ratios = np.array(vals[1:]) / np.array(vals[:-1])
        assert np.allclose(ratios, abs(bound.lam), atol=1e-12)

    def test_resonance_growth(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        res = next(
            s for s in discrete_spectrum(p) if s.state_class is StateClass.RESONANCE
        )
        assert abs(eigenstate_profile(res, 40)) > abs(eigenstate_profile(res, 4))

    def test_second_sheet_overflow_raises(self):
        # |lam|^|x| of the resonance (|lam| = 1.298) leaves the doubles past
        # |x| ~ 2723; at x = 1e6 this was a bare OverflowError
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        res = next(
            s for s in discrete_spectrum(p) if s.state_class is StateClass.RESONANCE
        )
        assert np.isfinite(eigenstate_profile(res, 2700))
        with pytest.raises(DomainError, match=r"x = 1000000: .* past \|x\| ~ 2722\.68$"):
            eigenstate_profile(res, 10**6)

    def test_geometric_series_convergence(self):
        p = ModelParams(epsilon_d=-2.0, g=0.5)
        bound = next(
            s for s in discrete_spectrum(p) if s.state_class is StateClass.BOUND_LOWER
        )
        # chain weight sum_x |<x|psi>|^2 converges to the closed geometric form
        direct = sum(
            abs(eigenstate_profile(bound, x)) ** 2 for x in range(-300, 301)
        )
        q = abs(bound.lam) ** 2
        closed = abs(bound.psi0_sq) * (1 + q) / (1 - q)
        assert direct == pytest.approx(closed, rel=1e-12)


    def test_integral_float_site_accepted(self):
        bound = near_edge_triplet(ModelParams(epsilon_d=-2.0, g=0.1))[0]
        assert eigenstate_profile(bound, 3.0) == eigenstate_profile(bound, 3)
        assert eigenstate_profile(bound, -3) == eigenstate_profile(bound, 3)
        assert puiseux_energy(0.1, n_terms=2.0) == puiseux_energy(0.1, n_terms=2)


class TestPuiseux:
    def test_zero_coupling_limits(self):
        assert puiseux_energy(0.0) == -2.0
        for a in (-1, 1):
            assert puiseux_energy(0.0, alpha=a) == -2.0
        assert puiseux_lambda(0.0) == 1.0

    def test_frozen_bound_values(self):
        assert puiseux_energy(0.1) == pytest.approx(PUISEUX_E_B_G01, abs=1e-14)
        assert puiseux_lambda(0.1) == pytest.approx(PUISEUX_LAM_B_G01, abs=1e-14)
        assert puiseux_norm_d(0.1) == pytest.approx(PUISEUX_NORMD_B_G01, abs=1e-14)

    def test_norm_divergence_guard(self):
        with pytest.raises(DomainError):
            puiseux_norm_d(0.0)

    def test_leading_norm_phases_cancel(self):
        # the three g^{-2/3} leading coefficients are cube-root phases of a
        # common magnitude and sum to zero
        total = sum(puiseux_norm_d(0.1, n_terms=1, alpha=a) for a in (0, -1, 1))
        assert abs(total) < 1e-14

    @pytest.mark.parametrize(
        "series, n_max", [(puiseux_energy, 3), (puiseux_lambda, 5), (puiseux_norm_d, 3)]
    )
    def test_n_terms_outside_known_terms_rejected(self, series, n_max):
        assert series(0.1, n_terms=n_max) == series(0.1)
        for n in (0, -1, n_max + 1):
            with pytest.raises(DomainError):
                series(0.1, n_terms=n)

    def test_unknown_branch_rejected(self):
        with pytest.raises(DomainError):
            puiseux_energy(0.1, alpha=2)

    def test_energy_error_scales_as_g4(self):
        # |E_exact - three-term| / g^4 stays in a narrow stable band
        ratios = []
        for g in (0.1, 0.05, 0.02, 0.01):
            p = ModelParams(epsilon_d=-2.0, g=g)
            bound = next(
                s
                for s in near_edge_triplet(p)
                if s.state_class is StateClass.BOUND_LOWER
            )
            series = puiseux_energy(g)
            ratios.append(abs(bound.energy - series) / g**4)
        assert max(ratios) < 2.0 * min(ratios)
        assert 0.004 < min(ratios) < max(ratios) < 0.007

    def test_lambda_error_scales_as_g_10_3(self):
        ratios = []
        for g in (0.1, 0.05, 0.02, 0.01):
            p = ModelParams(epsilon_d=-2.0, g=g)
            bound = next(
                s
                for s in near_edge_triplet(p)
                if s.state_class is StateClass.BOUND_LOWER
            )
            series = puiseux_lambda(g)
            ratios.append(abs(bound.lam - series) / g ** (10.0 / 3.0))
        assert max(ratios) < 2.0 * min(ratios)
        assert 0.003 < min(ratios) < max(ratios) < 0.007

    def test_resonance_branch_tracks_exact_root(self):
        g = 0.02
        p = ModelParams(epsilon_d=-2.0, g=g)
        labeled = threshold_labels(near_edge_triplet(p))
        for alpha in (-1, 1):
            series_E = puiseux_energy(g, alpha=alpha)
            series_l = puiseux_lambda(g, alpha=alpha)
            series_n = puiseux_norm_d(g, alpha=alpha)
            s = labeled[alpha]
            assert series_E == pytest.approx(s.energy, abs=5 * g**4)
            assert series_l == pytest.approx(s.lam, abs=5 * g ** (10.0 / 3.0))
            assert series_n == pytest.approx(s.psid_sq, rel=2 * g ** (4.0 / 3.0))

    def test_norm_expansion_converges_to_exact(self):
        rel_errs = []
        for g in (0.05, 0.01, 0.002):
            p = ModelParams(epsilon_d=-2.0, g=g)
            bound = next(
                s
                for s in near_edge_triplet(p)
                if s.state_class is StateClass.BOUND_LOWER
            )
            series = puiseux_norm_d(g)
            rel_errs.append(abs(series - bound.psid_sq) / abs(bound.psid_sq))
        assert rel_errs[0] > rel_errs[1] > rel_errs[2]
        assert rel_errs[-1] < 1e-4


class TestThresholdLabels:
    def test_bijection_small_and_moderate_g(self):
        for g in (1e-4, 0.02, 0.5):
            p = ModelParams(epsilon_d=-2.0, g=g)
            labeled = threshold_labels(near_edge_triplet(p))
            assert set(labeled) == {0, -1, 1}
            assert labeled[0].state_class is StateClass.BOUND_LOWER
            assert labeled[-1].state_class is StateClass.RESONANCE
            assert labeled[1].state_class is StateClass.ANTI_RESONANCE


class TestSpectrumScan:
    def test_reversed_range_raises(self):
        with pytest.raises(DomainError, match="eps_stop = -2.1 < eps_start = -1.9"):
            spectrum_scan(0.1, -1.9, -2.1, 0.01)

    def test_virtual_region(self):
        classes = [StateClass(c) for c in spectrum_scan(0.1, -2.15, -2.15, 1.0).state_class]
        assert classes.count(StateClass.VIRTUAL) == 2
        assert classes.count(StateClass.BOUND_LOWER) == 1

    def test_resonance_region(self):
        classes = {StateClass(c) for c in spectrum_scan(0.1, -1.9, -1.9, 1.0).state_class}
        assert classes == {
            StateClass.BOUND_LOWER,
            StateClass.RESONANCE,
            StateClass.ANTI_RESONANCE,
        }

    def test_bound_state_stuck_below_edge(self):
        scan = spectrum_scan(0.1, -2.15, -1.85, 0.01)
        bound_energies = [
            E.real
            for E, c in zip(scan.energy.tolist(), scan.state_class.tolist())
            if StateClass(c) is StateClass.BOUND_LOWER
        ]
        assert len(bound_energies) == 31
        assert all(E < -2.0 for E in bound_energies)

    def test_deterministic_ordering(self):
        a = spectrum_scan(0.1, -2.05, -1.95, 0.05)
        b = spectrum_scan(0.1, -2.05, -1.95, 0.05)
        assert list(zip(a.eps_d.tolist(), a.lam.tolist())) == list(
            zip(b.eps_d.tolist(), b.lam.tolist())
        )

    @pytest.mark.parametrize(
        "g, lo, hi, step",
        [(0.05, -2.15, -1.85, 0.001), (0.1, -2.15, -1.85, 0.001),
         (0.2, -2.15, -1.85, 0.001), (0.05, -2.3, 1.9, 0.01), (1.5, -4.0, 1.9, 0.01)],
        ids=str,
    )
    def test_entries_are_the_discrete_spectrum_states_to_the_bit(self, g, lo, hi, step):
        # scan and point solve share one pass; this holds the scan's grid,
        # its triplet slice and its ordering to the point solves
        order = [StateClass.BOUND_LOWER, StateClass.VIRTUAL, StateClass.RESONANCE,
                 StateClass.ANTI_RESONANCE]

        def bits(z):  # hex keeps the sign of a zero
            return z.real.hex(), z.imag.hex()

        scan = spectrum_scan(g, lo, hi, step)
        want = []
        for eps in scan.eps_d[::3].tolist():
            triplet = sorted(discrete_spectrum(ModelParams(eps, g))[:3], key=lambda s: (
                order.index(s.state_class), s.energy.imag, s.energy.real))
            want += [(eps, s.state_class.value, bits(s.energy), bits(s.lam),
                      bits(s.psi0_sq), bits(s.psid_sq)) for s in triplet]
        got = [(eps, c, *map(bits, zs)) for eps, c, *zs in zip(
            scan.eps_d.tolist(), scan.state_class.tolist(), scan.energy.tolist(),
            scan.lam.tolist(), scan.psi0_sq.tolist(), scan.psid_sq.tolist())]
        assert got == want

    def test_first_rejected_point_raises_its_error(self):
        # at g = 1e-7 the resonance's sheet is undecided from eps_d = 1.45 on
        # (|lam| - 1 within its error radius); the first such point raises
        with pytest.raises(BranchCutError, match=re.escape("lam = (-0.725")) as info:
            spectrum_scan(1e-7, 1.45, 1.55, 0.01)
        with pytest.raises(BranchCutError) as first:
            discrete_spectrum(ModelParams(1.45, 1e-7))
        assert str(info.value) == str(first.value)
        with pytest.raises(DomainError, match=r"^g = 0 is outside the domain"):
            spectrum_scan(0.0, -2.1, -1.9, 0.01)
        with pytest.raises(DomainError, match="coupling g must be >= 0, got -0.1"):
            spectrum_scan(-0.1, -2.1, -1.9, 0.01)

    def test_step_validation(self):
        with pytest.raises(DomainError):
            spectrum_scan(0.1, -2.1, -1.9, 0.0)

    @pytest.mark.parametrize(
        "args, name",
        [((np.inf, -2.1, -1.9, 0.01), "g"), ((0.1, np.nan, -1.9, 0.01), "eps_start"),
         ((0.1, -2.0, np.inf, 0.01), "eps_stop"), ((0.1, -2.1, -1.9, np.nan), "step"),
         ((0.1, -np.inf, -1.9, 0.01), "eps_start")],
        ids=str,
    )
    def test_non_finite_argument_rejected(self, args, name):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            spectrum_scan(*args)

    @pytest.mark.parametrize(
        "step, points",
        [(1e-300, "2e+299"), (1e-12, "2e+11"), (2e-6, "100001")],
        ids=str,
    )
    def test_grid_above_the_cap_rejected(self, step, points):
        # the point count is named before the grid is allocated: 1e-300 ended
        # in numpy's bare ValueError, 1e-12 in a MemoryError for 1.46 TiB
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            match = f"^scan grid of {re.escape(points)} points exceeds"
            with pytest.raises(DomainError, match=match):
                spectrum_scan(0.1, -2.1, -1.9, step)

    def test_grid_at_the_cap(self, monkeypatch):
        # a grid of exactly the cap is scanned, one more point is not
        monkeypatch.setattr(spectrum, "_SCAN_MAX_POINTS", 5)
        assert len(set(spectrum_scan(0.1, -2.1, -1.9, 0.05).eps_d.tolist())) == 5
        with pytest.raises(DomainError, match="^scan grid of 6 points"):
            spectrum_scan(0.1, -2.1, -1.85, 0.05)
