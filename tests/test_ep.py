import itertools

import mpmath as mp
import numpy as np
import pytest

from bandedge.ep import (
    _ep_certified,
    _ep_condition_residual as ep_condition_residual,
    _match_to,
    complex_parameter_sheet,
    ep_energy_closed_form,
    ep_parameter,
    verify_ep_by_discriminant,
)
from bandedge.errors import ConsistencyError, DomainError
from bandedge.spectrum import solve_quartic_lambda_raw, spectrum_scan

# 40-digit reference values at g = 0.1
E_BAR0_G01 = -2.0184481730424933
EPS_BAR0_G01 = -2.05517590687716249
EPS_BAR1_G01 = -1.9724124371864569 - 0.0479304336721714529j


def _mp_ep(g, n):
    """(E_bar_n, eps_bar_n) from 60-digit roots y of y^3 - g^4 y - 4 g^4 = 0:
    n = 0 the real root, n = +1 (-1) the one with Im y > 0 (< 0);
    E = -sqrt(4 + y) and eps = E + y / E."""
    with mp.workdps(60):
        g4 = mp.mpf(g) ** 4
        ys = mp.polyroots([1, 0, -g4, -4 * g4], maxsteps=200, extraprec=200)
        y = max(ys, key=lambda y: n * mp.im(y)) if n else min(ys, key=lambda y: abs(mp.im(y)))
        E = -mp.sqrt(4 + y)
        return complex(E), complex(E + y / E)


# down to g = 1e-9, where the pair's gap at fl(eps_bar) is the split that
# rounding eps_bar causes, ~(ulp(2) |E_bar + 2|)^(1/2), well above 1e-2 |E_bar + 2|
_EP_GS = (1e-9, 3e-9, 1e-8, 1.3e-8, 1e-6, 1e-5, 1e-4, 1e-2, 0.1, 1.0, 3.0)


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_closed_forms_match_60_digit_roots(n):
    for g in _EP_GS:
        E, eps = _mp_ep(g, n)
        assert abs(ep_energy_closed_form(g, n) - E) < 2e-15
        assert abs(ep_parameter(g, n).eps_d - eps) < 1e-14


@pytest.mark.parametrize("g", [1e-5, 1e-6, 1e-9, 3e-9, 1e-8, 1.3e-8])
@pytest.mark.parametrize("n", [-1, 0, 1])
def test_certificate_rejects_the_mirror_candidate(g, n):
    # p is even in E - eps_d, so E_bar - y/E_bar = 2 E_bar - eps_bar passes
    # |p| and |p'| at small g; only the scaled root gaps reject it
    loc = ep_parameter(g, n)
    assert _ep_certified(g, loc.energy, loc.eps_d)
    assert not _ep_certified(g, loc.energy, 2.0 * loc.energy - loc.eps_d)


class TestConditionResidual:
    def test_threshold_zero(self):
        assert ep_condition_residual(-2.0, 0.0) == 0.0

    def test_arithmetic(self):
        # (2.25)^3 - 1e-4 * 6.25
        assert ep_condition_residual(-2.5, 0.1) == pytest.approx(
            11.390625 - 6.25e-4, abs=1e-12
        )

    def test_closed_form_roots_satisfy_condition(self):
        for g in (0.1, 0.3):
            for n in (-1, 0, 1):
                E = ep_energy_closed_form(g, n)
                assert abs(ep_condition_residual(E, g)) < 1e-12


class TestClosedFormEnergy:
    def test_threshold_limit(self):
        for n in (-1, 0, 1):
            assert ep_energy_closed_form(1e-5, n) == pytest.approx(-2.0, abs=1e-5)

    def test_reference_value(self):
        assert ep_energy_closed_form(0.1, 0) == pytest.approx(E_BAR0_G01, abs=1e-13)

    def test_real_and_conjugate_structure(self):
        E0 = ep_energy_closed_form(0.2, 0)
        assert E0.imag == 0.0
        E1 = ep_energy_closed_form(0.2, 1)
        Em1 = ep_energy_closed_form(0.2, -1)
        assert E1 == pytest.approx(Em1.conjugate(), abs=1e-14)

    def test_mirror_roots_satisfy_condition(self):
        # the positive mirror images solve the same double cubic (upper edge)
        for n in (-1, 0, 1):
            E = ep_energy_closed_form(0.3, n)
            assert abs(ep_condition_residual(-E, 0.3)) < 1e-12

    def test_parameter_range_guard(self):
        with pytest.raises(DomainError):
            ep_energy_closed_form(0.0, 0)
        with pytest.raises(DomainError):
            ep_energy_closed_form(4.0, 0)

    def test_threshold_approach_exponent(self):
        gs = np.logspace(-3, -1, 9)
        gaps = [abs(ep_energy_closed_form(g, 0) + 2.0) for g in gs]
        slope = np.polyfit(np.log(gs), np.log(gaps), 1)[0]
        assert slope == pytest.approx(4.0 / 3.0, abs=0.01)


class TestEPParameter:
    def test_real_ep_reference(self):
        loc = ep_parameter(0.1, 0)
        assert loc.eps_d.imag == 0.0
        assert loc.eps_d.real == pytest.approx(EPS_BAR0_G01, abs=5e-5)
        assert loc.eps_d.real == pytest.approx(EPS_BAR0_G01, abs=1e-10)

    def test_complex_pair(self):
        lp = ep_parameter(0.1, 1)
        lm = ep_parameter(0.1, -1)
        assert lp.eps_d == pytest.approx(lm.eps_d.conjugate(), abs=1e-12)
        assert lp.eps_d == pytest.approx(EPS_BAR1_G01, abs=1e-10)

    def test_threshold_limit(self):
        for n in (-1, 0, 1):
            loc = ep_parameter(1e-4, n)
            assert loc.eps_d == pytest.approx(-2.0, abs=1e-4)

    def test_real_ep_is_certified_down_to_5e_12(self):
        # below, E_bar + 2 is under the resolution of E_bar and the certificate
        # fails, as the docstring states
        assert ep_parameter(5e-12, 0).eps_d.imag == 0.0
        with pytest.raises(ConsistencyError, match="not a certified double root for n = 0"):
            ep_parameter(3e-12, 0)

    def test_double_root_certificate(self):
        for n in (-1, 0, 1):
            loc = ep_parameter(0.1, n)
            e = loc.eps_d  # p(E) = (E - eps_d)^2 (E^2 - 4) - g^4, highest power first
            co = np.array([1.0, -2.0 * e, e * e - 4.0, 8.0 * e, -4.0 * e * e - loc.g**4])
            assert abs(np.polyval(co, loc.energy)) < 1e-8
            assert abs(np.polyval(np.polyder(co), loc.energy)) < 1e-8


class TestDiscriminantCertification:
    def test_gap_closes_at_the_ep(self):
        loc = ep_parameter(0.1, 0)
        gap, lam_gap = verify_ep_by_discriminant(0.1, loc.eps_d)
        assert gap < 1e-6
        assert lam_gap < 1e-3

    def test_threshold_not_an_ep_at_finite_g(self):
        # at eps_d = -2 the minimal gap is the resonance width 2 Im E_R,
        # whose leading size is sqrt(3) g^{4/3} / 2^{2/3}
        g = 0.1
        gap, _ = verify_ep_by_discriminant(g, -2.0)
        expected = np.sqrt(3.0) * g ** (4.0 / 3.0) / 2.0 ** (2.0 / 3.0)
        assert gap == pytest.approx(expected, rel=0.02)
        assert gap > 1e-2

    def test_decoupled_triple_root(self):
        gap, lam_gap = verify_ep_by_discriminant(0.0, -2.0)
        assert gap < 1e-8

    def test_square_root_splitting_near_ep(self):
        # |E_R - E_bar| ~ |eps_d - eps_bar|^{1/2} on the resonance side
        loc = ep_parameter(0.1, 0)
        deltas = np.logspace(-7, -3, 9)
        gaps = []
        for d in deltas:
            gap, _ = verify_ep_by_discriminant(0.1, loc.eps_d.real + d)
            gaps.append(gap)
        slope = np.polyfit(np.log(deltas), np.log(gaps), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.02)


@pytest.fixture(scope="module")
def sheet():
    re = np.linspace(-2.10, -1.90, 21)
    im = np.linspace(-0.06, 0.06, 13)
    eps = (re[None, :] + 1j * im[:, None]).ravel().tolist()
    return re, im, list(zip(eps, complex_parameter_sheet(0.1, re, im).tolist()))


class TestComplexSheet:
    @staticmethod
    def _ordered(values):
        return sorted(values, key=lambda z: (round(z.real, 9), round(z.imag, 9)))

    def test_real_slice_matches_scan(self, sheet):
        re, im, cells = sheet
        real_cells = [(eps, E) for eps, E in cells if eps.imag == 0.0]
        assert len(real_cells) == len(re)
        scan = spectrum_scan(0.1, re[0], re[-1], re[1] - re[0])
        by_eps = {}
        for eps, E in zip(scan.eps_d.tolist(), scan.energy.tolist()):
            by_eps.setdefault(round(eps, 9), []).append(E)
        for eps, energies in real_cells:
            want = self._ordered(by_eps[round(eps.real, 9)])
            got = self._ordered(energies)
            assert np.allclose(got, want, atol=1e-7)

    def test_conjugation_symmetry(self, sheet):
        re, im, cells = sheet
        table = {(round(eps.real, 9), round(eps.imag, 9)): E for eps, E in cells}
        for eps, energies in cells:
            mirror = table[(round(eps.real, 9), round(-eps.imag, 9))]
            a = self._ordered(energies)
            b = self._ordered([x.conjugate() for x in mirror])
            assert np.allclose(a, b, atol=1e-9)

    def test_gap_small_at_complex_ep_cell(self, sheet):
        re, im, cells = sheet
        loc = ep_parameter(0.1, 1)
        _, energies = min(cells, key=lambda c: abs(c[0] - loc.eps_d))
        h = abs(complex(re[1] - re[0], im[1] - im[0]))
        gaps = [
            abs(a - b)
            for i, a in enumerate(energies)
            for b in energies[i + 1:]
        ]
        # square-root splitting: gap <= C sqrt(cell diagonal)
        assert min(gaps) < 2.0 * np.sqrt(h)


def _scalar_match_to(prev, prev_lams, Es, lams):
    # the cell-by-cell matching rule: least (round(sum |dE| / 1e-12),
    # sum |dlam|), the first permutation in itertools order on a tie
    best, best_cost = None, None
    for perm in itertools.permutations(range(3)):
        cost_e = sum(abs(Es[p] - prev[i]) for i, p in enumerate(perm))
        cost_l = sum(abs(lams[p] - prev_lams[i]) for i, p in enumerate(perm))
        cost = (round(cost_e / 1e-12), cost_l)
        if best_cost is None or cost < best_cost:
            best, best_cost = perm, cost
    return np.array(best)


def _scalar_sheet(g, re_grid, im_grid):
    # reference tracker: each scan line along Re eps_d, its first cell
    # matched to the first cell of the line below
    grid = re_grid[None, :] + 1j * im_grid[:, None]
    grid_lams, grid_Es = (x[..., :3] for x in solve_quartic_lambda_raw(grid, g))
    out, prev_line_first = [], None
    for i in range(im_grid.size):
        prev, line_first = prev_line_first, None
        for j in range(re_grid.size):
            Es, lams = grid_Es[i, j], grid_lams[i, j]
            if prev is not None:
                order = _scalar_match_to(prev[0], prev[1], Es, lams)
                Es, lams = Es[order], lams[order]
            out.append(tuple(Es))
            prev = (Es, lams)
            if line_first is None:
                line_first = (Es, lams)
        prev_line_first = line_first
    return out


def _jittered(n, lo, hi, rng):
    h = (hi - lo) / (n - 1)
    return np.linspace(lo, hi, n) + rng.uniform(-0.3 * h, 0.3 * h, n)


_RNG = np.random.default_rng(20211)
_SHEET_GRIDS = {
    "fixture-21x13": (0.1, np.linspace(-2.10, -1.90, 21), np.linspace(-0.06, 0.06, 13)),
    "fig4-61x33": (0.1, np.linspace(-2.15, -1.85, 61), np.linspace(-0.08, 0.08, 33)),
    **{
        f"jitter-61x41-g{g}": (
            g, _jittered(61, -2.15, -1.85, _RNG), _jittered(41, -0.08, 0.08, _RNG)
        )
        for g in (0.05, 0.1, 0.3)
    },
    "1xn": (0.1, np.array([-1.97]), np.linspace(-0.08, 0.08, 17)),
    "nx1": (0.1, np.linspace(-2.15, -1.85, 17), np.array([0.03])),
}


def test_match_to_follows_scalar_rule_on_ties():
    # energies drawn from a few values, so the energy key often ties and the
    # lam cost decides; lams drawn from a few values too, so some rows tie
    # exactly and the first permutation in itertools order must win
    rng = np.random.default_rng(7)
    n = 400
    levels = np.array([-2.0, -2.0 + 1e-3, -2.0 + 1e-3j])
    prev, Es = rng.choice(levels, (n, 3)), rng.choice(levels, (n, 3))
    prev_lams = rng.choice(levels, (n, 3)) + rng.normal(size=(n, 3)) * (rng.random((n, 1)) < 0.5)
    lams = rng.choice(levels, (n, 3))
    got = _match_to(prev, prev_lams, Es, lams)
    for k in range(n):
        want = _scalar_match_to(prev[k], prev_lams[k], Es[k], lams[k])
        assert got[k].tolist() == want.tolist()


@pytest.mark.parametrize("g, re, im", _SHEET_GRIDS.values(), ids=_SHEET_GRIDS.keys())
def test_sheet_matches_scalar_tracker(g, re, im):
    # line-parallel tracking picks the branch order of the cell-by-cell
    # tracker in every cell, to the bit
    cells = complex_parameter_sheet(g, re, im)
    want = _scalar_sheet(g, re, im)
    assert len(cells) == len(want) == re.size * im.size
    for row, ref in zip(cells.tolist(), want):
        assert tuple(row) == ref


def test_empty_grid_gives_no_cells():
    assert complex_parameter_sheet(0.1, [], [0.01]).shape == (0, 3)


class TestAllLocations:
    def test_three_branches(self):
        locs = [ep_parameter(0.1, n) for n in (-1, 0, 1)]
        assert [l.n for l in locs] == [-1, 0, 1]
        assert all(abs(ep_condition_residual(l.energy, l.g)) < 1e-10 for l in locs)


def test_complex_ep_pairing_structure():
    # at the complex-detuning points two eigenvalues truly coalesce (lam
    # values merge) while the third stays separated by an avoided crossing
    g = 0.1
    loc = ep_parameter(g, 1)
    from bandedge.spectrum import solve_quartic_lambda_raw

    lams, Es = solve_quartic_lambda_raw(loc.eps_d, g)
    near = sorted(range(4), key=lambda i: abs(Es[i] - loc.energy))
    pair, third = near[:2], near[2]
    assert abs(Es[pair[0]] - Es[pair[1]]) < 1e-6
    assert abs(lams[pair[0]] - lams[pair[1]]) < 1e-3
    # avoided crossing: the spectator stays a finite distance away
    spectator_gap = abs(Es[third] - loc.energy)
    assert spectator_gap > 1e3 * abs(Es[pair[0]] - Es[pair[1]])
    assert spectator_gap < 0.1  # but still part of the near-edge cluster


def test_scan_topology_switches_at_the_real_ep():
    # walking eps_d through the real exceptional point, the second-sheet pair
    # turns from two virtual states into a resonance/anti-resonance pair
    # within one scan step of the certified location
    from bandedge.spectrum import StateClass

    loc = ep_parameter(0.1, 0)
    step = 1e-4
    scan = spectrum_scan(0.1, loc.eps_d.real - 10 * step, loc.eps_d.real + 10 * step, step)
    by_eps = {}
    for eps, c in zip(scan.eps_d.tolist(), scan.state_class.tolist()):
        by_eps.setdefault(round(eps, 9), set()).add(StateClass(c))
    switch_points = []
    keys = sorted(by_eps)
    for lo, hi in zip(keys[:-1], keys[1:]):
        if StateClass.VIRTUAL in by_eps[lo] and StateClass.RESONANCE in by_eps[hi]:
            switch_points.append(0.5 * (lo + hi))
    assert len(switch_points) == 1
    assert abs(switch_points[0] - loc.eps_d.real) < step
