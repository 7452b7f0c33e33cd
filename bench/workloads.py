"""The three workloads of the bandedge benchmark and their cross-checks.

Each workload is a fixed list of operations that one caller runs in order,
each waiting for the last (a closed loop with one client).  The seed jitters
couplings, detunings, grid offsets and time-grid origins by small amounts and
keeps the work size the same across seeds; the package only ever sees the
generated inputs.  Operations go through ``bandedge.cli.main`` where users
would (that is how they get their CSVs) and through the public functions
otherwise, always by module attribute so that a traced run sees the calls.

Why these workloads:

* ``edge_dynamics``: the Fig. 5 run (g ~ 0.02 at threshold) out to t = 2000.
  The lattice oracle's eigensolve at N ~ 4050 dominates, and the Bessel route
  runs with Im E * t_max >> 1, the regime a change to its tail must not slow.
* ``weak_coupling``: a ladder g ~ 1e-2 .. 5e-3 at threshold with short
  windows (t <= 100).  The anti-resonance tail runs to 38 / Im E ~ g^(-4/3),
  so J1 evaluation and panel recurrences dominate; the small lattice
  (N = 250) that cross-checks each rung costs almost nothing.
* ``spectral_sweep``: eps_d scans, a threshold ladder of precise single-point
  solves down to g = 1e-5, EP location and certification, complex-detuning
  sheets, the generic models with their threshold roots and the exact Jordan
  check.  Quartic solves and sheet tracking dominate and no lattice or
  Bessel code runs.

Cross-checks compare independent routes: lattice oracle against the Bessel
route, the pole-sum + integral-sum identity against the oracle amplitude,
quartic roots against 60-digit mpmath references computed outside the
timed phase, and the generic models' threshold roots against the dispersion
equation with the quadrature self-energy.  mpmath serves only as the
test-side oracle of the quartic roots.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import mpmath as mp
import numpy as np

from bandedge import cli, dynamics, generic, spectrum
from bandedge.model import ModelParams

# tolerances of the cross-checks (a check beyond its tolerance fails the run)
# |P_oracle - P_bessel| and the pole + integral identity: the Bessel route
# omits the upper bound state, which caps agreement near 2.5e-5 at g = 0.02
P_TOL = 1e-4
BEAT_REL_TOL = 0.02        # beat frequency against the 60-digit bound energy
ROOT_REL_TOL = 1e-10       # quartic roots against 60-digit references
# E - E_th - Sigma_quadrature(E) at the refined real threshold root; the
# refinement stops at a relative step of 1e-10
THRESHOLD_TOL = 1e-9
_REF_DPS = 60


class CliFailure(Exception):
    """``bandedge.cli.main`` returned a non-zero exit code (fails the run)."""


@dataclass
class Op:
    name: str
    fn: Callable[[dict], object]   # receives the results of earlier ops


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # check(results, corrupt) -> (largest disagreement, [(op, message)])
    check: Callable[[dict, bool], tuple[float, list]]
    csv_paths: list[Path] = field(default_factory=list)


def _cli(argv: list[str]) -> Callable[[dict], int]:
    def run(_results):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        if code != 0:
            said = (err.getvalue() or out.getvalue()).strip()
            raise CliFailure(f"exit {code}: {said[-200:]}")
        return code
    return run


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _num(x: float) -> str:
    return repr(float(x))


def _ref_roots(eps_d: float, g: float) -> list[complex]:
    """60-digit roots of f(lam) = -lam^4 - eps lam^3 - g^2 lam^2 + eps lam + 1."""
    with mp.workdps(_REF_DPS):
        e, gg = mp.mpf(eps_d), mp.mpf(g)
        co = [-1, -e, -gg * gg, e, 1]
        return [complex(r) for r in mp.polyroots(co, maxsteps=400, extraprec=400)]


def _ref_bound_energy(eps_d: float, g: float) -> float:
    """E of the first-sheet root with 0 < lam < 1 (the bound state below the band)."""
    lam = min(
        (z for z in _ref_roots(eps_d, g) if abs(z.imag) < 1e-30 and 0 < z.real < 1),
        key=lambda z: abs(z.real - 1.0),
    )
    return float(-lam.real - 1.0 / lam.real)


def _root_error(lams, refs) -> float:
    return max(min(abs(z - r) / abs(r) for r in refs) for z in lams)


# ---------------------------------------------------------------------------
# edge_dynamics
# ---------------------------------------------------------------------------

def edge_dynamics(rng, out: Path, tiny: bool) -> Workload:
    g = 0.02 * (1.0 + 0.005 * rng.uniform(-1, 1))
    eps = -2.0 + 1e-4 * rng.uniform(-1, 1)
    t_max = 100.0 if tiny else 2000.0
    params = ModelParams(epsilon_d=eps, g=g)
    # ~9 beat periods of the nominal g = 0.02 beat, same length for every seed
    period = 2.0 * np.pi / (0.02 ** (4.0 / 3.0) / 2.0 ** (2.0 / 3.0))
    n_beat = int(9.0 * period / 4.0)
    t0 = 800.0 + 20.0 * rng.uniform()
    beat_times = t0 + 4.0 * np.arange(n_beat)
    path = out / "edge_dynamics.csv"
    ops = [
        Op("cli.dynamics_all", _cli([
            "dynamics", "--method", "all", "--g", _num(g), "--eps-d", _num(eps),
            "--t-max", _num(t_max), "--dt", "0.5", "-o", str(path)])),
        Op("survival_bessel_sum", lambda r: dynamics.survival_bessel_sum(params, beat_times)),
        Op("dominant_frequency", lambda r: dynamics.dominant_frequency(
            beat_times,
            r["survival_bessel_sum"].probability - dynamics.asymptotic_plateau(params),
            flatten_power=1.5,
        )),
    ]

    def check(results, corrupt):
        bad = []
        rows = _read_csv(path)
        P = {}
        for row in rows:
            if row["method"] in ("LatticeOracle", "BesselSum"):
                P.setdefault(row["method"], {})[row["t"]] = float(row["P"])
        oracle, bessel = P["LatticeOracle"], P["BesselSum"]
        err = max(abs(oracle[t] - bessel[t]) for t in oracle)
        if corrupt:
            err += 1.0
        if not err < P_TOL:
            bad.append(("cli.dynamics_all", f"max |P_oracle - P_bessel| = {err:.3e}"))
        omega_ref = abs(_ref_bound_energy(eps, g) + 2.0)
        if "dominant_frequency" in results:
            rel = abs(results["dominant_frequency"] - omega_ref) / omega_ref
            if not rel < BEAT_REL_TOL:
                bad.append(("dominant_frequency", f"beat frequency off by {rel:.2%}"))
        return err, bad

    return Workload("edge_dynamics", ops, check, [path])


# ---------------------------------------------------------------------------
# weak_coupling
# ---------------------------------------------------------------------------

# The tail cost grows as g^(-4/3): 1.8 s per rung at g = 1e-2, 4.9 s at 5e-3
# (and 15 s with 1.65 GB peak memory at 2e-3, which left one pass per run and
# a run-to-run spread near the wall-time bound, so the ladder stops at 5e-3).
WEAK_RUNGS = (1e-2, 7e-3, 5e-3)


def weak_coupling(rng, out: Path, tiny: bool) -> Workload:
    ops, rungs, paths = [], [], []
    for k, g0 in enumerate((2e-2,) if tiny else WEAK_RUNGS):
        g = g0 * (1.0 + 0.005 * rng.uniform(-1, 1))
        # detuning jitter at 1% of the threshold scale g^(4/3)
        eps = -2.0 + 0.01 * g ** (4.0 / 3.0) * rng.uniform(-1, 1)
        t_check = 0.5 * round(2.0 * (10.0 + 10.0 * rng.uniform()))  # on the dt grid
        params = ModelParams(epsilon_d=eps, g=g)
        common = ["--g", _num(g), "--eps-d", _num(eps), "--t-max", "100", "--dt", "0.5"]
        pb, po = out / f"weak_bessel_{k}.csv", out / f"weak_oracle_{k}.csv"
        ops += [
            Op(f"cli.bessel.{k}", _cli(["dynamics", "--method", "bessel", *common, "-o", str(pb)])),
            Op(f"cli.oracle.{k}", _cli([
                "dynamics", "--method", "oracle", "--n-sites", "250", *common, "-o", str(po)])),
            Op(f"expansion_term_checks.{k}",
               lambda r, p=params, t=t_check: dynamics.expansion_term_checks(p, t)),
        ]
        rungs.append((k, t_check, pb, po))
        paths += [pb, po]

    def check(results, corrupt):
        bad, worst = [], 0.0
        for k, t_check, pb, po in rungs:
            oracle = {row["t"]: row for row in _read_csv(po)}
            dev = max(abs(float(row["P"]) - float(oracle[row["t"]]["P"]))
                      for row in _read_csv(pb))
            if corrupt:
                dev += 1.0
            if not dev < P_TOL:
                bad.append((f"cli.bessel.{k}", f"max |P_bessel - P_oracle| = {dev:.3e}"))
            worst = max(worst, dev)
            name = f"expansion_term_checks.{k}"
            if name in results:
                pole, integral = results[name]
                row = oracle[f"{t_check:.16e}"]
                a_oracle = complex(float(row["re_A"]), float(row["im_A"]))
                ident = abs(pole + integral - a_oracle)
                if not ident < P_TOL:
                    bad.append((name, f"|pole + integral - A_oracle| = {ident:.3e}"))
                worst = max(worst, ident)
        return worst, bad

    return Workload("weak_coupling", ops, check, paths)


# ---------------------------------------------------------------------------
# spectral_sweep
# ---------------------------------------------------------------------------

SCAN_G = (0.05, 0.1, 0.2)
LADDER_POINTS = 40
GENERIC_MODELS = ("const", "lorentzian", "main-text")


def spectral_sweep(rng, out: Path, tiny: bool) -> Workload:
    ops, scans, paths = [], [], []
    step = 0.001
    span = 0.03 if tiny else 0.3
    for k, g0 in enumerate(SCAN_G):
        g = g0 * (1.0 + 0.01 * rng.uniform(-1, 1))
        lo = -2.0 - span / 2.0 + step * rng.uniform()
        path = out / f"scan_{k}.csv"
        ops.append(Op(f"cli.spectrum_scan.{k}", _cli([
            "spectrum", "--g", _num(g), "--eps-min", _num(lo),
            "--eps-max", _num(lo + span), "--step", _num(step), "-o", str(path)])))
        scans.append((k, g, path))
        paths.append(path)
    # log-spaced threshold ladder; the end points stay at 1e-5 and 1e-1
    n_ladder = 8 if tiny else LADDER_POINTS
    offsets = 0.25 * rng.uniform(-1, 1, n_ladder)
    offsets[[0, -1]] = 0.0
    ladder = [10.0 ** (-5.0 + 4.0 * (i + offsets[i]) / (n_ladder - 1)) for i in range(n_ladder)]
    for i, g in enumerate(ladder):
        ops.append(Op(f"near_edge_triplet.{i}", lambda r, g=g: spectrum.near_edge_triplet(
            ModelParams(epsilon_d=-2.0, g=g))))
    for k, g0 in enumerate(SCAN_G):
        g = g0 * (1.0 + 0.01 * rng.uniform(-1, 1))
        ops.append(Op(f"cli.ep.{k}", _cli(["ep", "--g", _num(g)])))
    d_re, d_im = 0.005 * rng.uniform(-1, 1), 0.002 * rng.uniform(-1, 1)
    sheet = out / "ep_sheet.csv"
    n_re, n_im = (11, 7) if tiny else (61, 41)
    ops.append(Op("cli.ep_sheet", _cli([
        "ep", "--g", _num(0.1 * (1.0 + 0.01 * rng.uniform(-1, 1))), "--sheet",
        "--re-min", _num(-2.15 + d_re), "--re-max", _num(-1.85 + d_re),
        "--im-min", _num(-0.08 + d_im), "--im-max", _num(0.08 + d_im),
        "--n-re", str(n_re), "--n-im", str(n_im), "-o", str(sheet)])))
    paths.append(sheet)
    for m in GENERIC_MODELS:
        path = out / f"generic_{m}.csv"
        ops.append(Op(f"cli.generic.{m}", _cli([
            "generic", "--model", m, "--g", _num(0.1 * (1.0 + 0.01 * rng.uniform(-1, 1))),
            "-o", str(path)])))
        paths.append(path)
    threshold_g = {}
    for m in GENERIC_MODELS:
        g = 0.1 * (1.0 + 0.01 * rng.uniform(-1, 1))
        threshold_g[m] = g
        ops.append(Op(f"threshold_roots.{m}", lambda r, m=m, g=g: generic.threshold_roots(
            generic.make_model(m, g), refine=True)))
    ops.append(Op("cli.jordan", _cli(["jordan"])))
    # seeded sample of scan rows whose roots get 60-digit references
    n_sample = 4 if tiny else 16
    sample_seed = int(rng.integers(2**31))

    def check(results, corrupt):
        bad, worst = [], 0.0
        pick = np.random.default_rng(sample_seed)
        for k, g, path in scans:
            by_eps: dict[str, list[complex]] = {}
            for row in _read_csv(path):
                lam = complex(float(row["re_lambda"]), float(row["im_lambda"]))
                by_eps.setdefault(row["eps_d"], []).append(lam)
            keys = sorted(by_eps, key=float)
            for j in pick.choice(len(keys), size=min(n_sample, len(keys)), replace=False):
                refs = _ref_roots(float(keys[j]), g)
                if corrupt:
                    refs = [r * (1.0 + 1e-6) for r in refs]
                err = _root_error(by_eps[keys[j]], refs)
                worst = max(worst, err)
                if not err < ROOT_REL_TOL:
                    bad.append((f"cli.spectrum_scan.{k}", f"eps_d {keys[j]}: rel err {err:.3e}"))
        for i, g in enumerate(ladder):
            tri = results.get(f"near_edge_triplet.{i}")
            if tri is None:  # failed op, already counted
                continue
            err = _root_error([s.lam for s in tri], _ref_roots(-2.0, g))
            worst = max(worst, err)
            if not err < ROOT_REL_TOL:
                bad.append((f"near_edge_triplet.{i}", f"g {g:.3e}: rel err {err:.3e}"))
        for m, g in threshold_g.items():
            name = f"threshold_roots.{m}"
            if name not in results:
                continue
            energies, converged = results[name]
            model = generic.make_model(m, g)
            e = min(energies, key=lambda z: abs(z.imag)).real  # the bound state
            res = abs(e - model.e_th - generic.self_energy_quadrature(model, e))
            if corrupt:
                res += 1.0
            if not (converged and res < THRESHOLD_TOL):
                bad.append((name, f"converged {converged}, |E - E_th - Sigma(E)| = {res:.3e}"))
        return worst, bad

    return Workload("spectral_sweep", ops, check, paths)


WORKLOADS = {
    "edge_dynamics": edge_dynamics,
    "weak_coupling": weak_coupling,
    "spectral_sweep": spectral_sweep,
}


def build(name: str, seed: int, out: Path, tiny: bool = False) -> Workload:
    out.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](np.random.default_rng(seed), out, tiny)


def digits(err: float) -> float:
    """Agreement in decimal digits, -log10(err), floored at 1e-17 (17 digits)."""
    return -math.log10(max(err, 1e-17))
