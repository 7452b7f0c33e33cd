"""Command-line front end: spectrum scans, EP location, Jordan checks,
survival dynamics, generic threshold models, and figure-reproduction presets.

Configuration can come from a plain-text file of ``key = value`` lines
(``#`` starts a comment); command-line flags override file values.  Unknown
keys are rejected with their line number.  All CSV output uses fixed
17-significant-digit scientific notation so repeated runs are byte-identical
and doubles round-trip exactly.  ``write_csv`` formats every row of a file
with one ``%`` template, ``%s`` for a string column and ``%.16e`` for every
other (the conversion of ``f"{float(x):.16e}"``); the row builders pass
Python floats from ``.tolist()``.

The BLAS thread cap (environment variable BANDEDGE_NUM_THREADS) is applied
by the package ``__init__``, which runs before this module loads numpy.
"""

from __future__ import annotations

import argparse
import cmath
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import (
    LatticeConfig,
    Method,
    SurvivalTrace,
    asymptotic_plateau,
    intermediate_amplitude,
    longtime_amplitude,
    survival_bessel_sum,
    survival_lattice_oracle,
)
from .ep import all_ep_locations, complex_parameter_sheet, scan_consistency_rows
from .errors import BandEdgeError, ConfigError, DomainError
from .generic import make_model, self_energy_quadrature, sigma_closed_form
from .jordan import (
    eigenvalue_one_defect,
    jordan_chain_check,
    limit_matrix,
    verify_jordan_form,
)
from .model import ModelParams
from .spectrum import discrete_spectrum, spectrum_scan

_UNSET = object()


def write_csv(path, header: list[str], rows) -> None:
    """Write header and rows (a sequence of tuples) as CSV lines.

    A column whose first cell is a str is written as is; every other cell is
    a real number written ``%.16e``.  A cell whose type does not match its
    column raises TypeError.
    """
    lines = [",".join(header)]
    if rows:
        text = [isinstance(v, str) for v in rows[0]]
        for k in (k for k, is_text in enumerate(text) if is_text):
            if not all(isinstance(row[k], str) for row in rows):
                raise TypeError(f"CSV column {k} holds a non-string cell")
        template = ",".join("%s" if is_text else "%.16e" for is_text in text)
        lines += [template % row for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class RunConfig:
    subcommand: str
    params: dict = field(default_factory=dict)
    output: str | None = None


# per-subcommand schema: key -> (type, default, validator)
def _positive(name):
    def check(v):
        if not v > 0:
            raise ConfigError(f"{name} must be > 0, got {v}")
    return check


def _nonneg(name):
    def check(v):
        if not v >= 0:
            raise ConfigError(f"{name} must be >= 0, got {v}")
    return check


_SCHEMAS = {
    "spectrum": {
        "g": (float, 0.1, _nonneg("g")),
        "eps_d": (float, -2.0, None),
        "eps_min": (float, None, None),
        "eps_max": (float, None, None),
        "step": (float, 0.001, _positive("step")),
    },
    "ep": {
        "g": (float, 0.1, _nonneg("g")),
        "re_min": (float, -2.15, None),
        "re_max": (float, -1.85, None),
        "im_min": (float, -0.08, None),
        "im_max": (float, 0.08, None),
        "n_re": (int, 61, _positive("n_re")),
        "n_im": (int, 41, _positive("n_im")),
        "sheet": (bool, False, None),
    },
    "jordan": {},
    "dynamics": {
        "g": (float, 0.02, _nonneg("g")),
        "eps_d": (float, -2.0, None),
        "t_max": (float, 600.0, _positive("t_max")),
        "dt": (float, 0.5, _positive("dt")),
        "method": (str, "oracle", None),
        "n_sites": (int, None, None),
        "gnuplot": (bool, False, None),
    },
    "generic": {
        "model": (str, "const", None),
        "g": (float, 0.1, _nonneg("g")),
        "e_min": (float, None, None),
        "e_max": (float, None, None),
        "n_points": (int, 81, _positive("n_points")),
    },
    "figures": {
        "name": (str, "fig1", None),
    },
}

_METHODS = {"oracle", "bessel", "intermediate", "longtime", "all"}
_MODELS = {"const", "lorentzian", "main-text"}
_FIGURES = {"fig1", "fig3", "fig4", "fig5"}


def parse_config_file(path: str, schema: dict) -> dict:
    values = {}
    errors = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {raw!r}")
            continue
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in schema:
            errors.append(f"line {lineno}: unknown key {key!r}")
            continue
        typ = schema[key][0]
        try:
            if typ is bool:
                values[key] = val.lower() in ("1", "true", "yes", "on")
            else:
                values[key] = typ(val)
        except ValueError:
            errors.append(f"line {lineno}: cannot parse {val!r} as {typ.__name__}")
    if errors:
        raise ConfigError("config file errors:\n  " + "\n  ".join(errors))
    return values


def parse_config(argv) -> RunConfig:
    """argparse front end; flags override config-file values."""
    parser = argparse.ArgumentParser(
        prog="bandedge",
        description="Spectral structure and decay dynamics of a quantum "
        "emitter at a 1-D band edge",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, schema in _SCHEMAS.items():
        aliases = ["jordan-check"] if name == "jordan" else []
        p = sub.add_parser(name, aliases=aliases)
        p.add_argument("--config", default=None)
        p.add_argument("--output", "-o", default=None)
        for key, (typ, _default, _check) in schema.items():
            flag = "--" + key.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, action="store_const", const=True,
                               default=_UNSET, dest=key)
            else:
                p.add_argument(flag, type=typ, default=_UNSET, dest=key)
    ns = parser.parse_args(argv)
    name = "jordan" if ns.subcommand == "jordan-check" else ns.subcommand
    schema = _SCHEMAS[name]
    merged = {k: d for k, (t, d, c) in schema.items()}
    if ns.config is not None:
        merged.update(parse_config_file(ns.config, schema))
    for key in schema:
        v = getattr(ns, key)
        if v is not _UNSET:
            merged[key] = v
    for key, (typ, _d, check) in schema.items():
        v = merged.get(key)
        if v is not None and check is not None:
            check(v)
    if name == "spectrum" and (merged["eps_min"] is None) != (merged["eps_max"] is None):
        raise ConfigError("scan mode needs both eps_min and eps_max")
    if name == "dynamics" and merged["method"] not in _METHODS:
        raise ConfigError(f"method must be one of {sorted(_METHODS)}")
    if name == "generic" and merged["model"] not in _MODELS:
        raise ConfigError(f"model must be one of {sorted(_MODELS)}")
    if name == "figures" and merged["name"] not in _FIGURES:
        raise ConfigError(f"figure name must be one of {sorted(_FIGURES)}")
    return RunConfig(subcommand=name, params=merged, output=ns.output)


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

_STATE_HEADER = ["class", "re_E", "im_E", "re_lambda", "im_lambda",
                 "re_psid_sq", "im_psid_sq"]


def _state_cells(s) -> tuple:
    return (s.state_class.value, s.energy.real, s.energy.imag,
            s.lam.real, s.lam.imag, s.psid_sq.real, s.psid_sq.imag)


def _run_spectrum(cfg: RunConfig) -> int:
    p = cfg.params
    if p["eps_min"] is not None and p["eps_max"] is not None:
        rows = spectrum_scan(p["g"], p["eps_min"], p["eps_max"], p["step"])
        out = cfg.output or "spectrum_scan.csv"
        write_csv(out, ["eps_d"] + _STATE_HEADER,
                  [(r.eps_d, *_state_cells(r.state)) for r in rows])
        print(f"wrote {out} ({len(rows)} rows)")
        return 0
    params = ModelParams(epsilon_d=p["eps_d"], g=p["g"])
    states = discrete_spectrum(params)
    states.sort(key=lambda s: s.energy.real)
    print(f"discrete spectrum at eps_d = {p['eps_d']}, g = {p['g']}:")
    for s in states:
        print(
            f"  {s.state_class.value:<15} E = {s.energy.real:+.12f}"
            f"{s.energy.imag:+.12f}i   lam = {s.lam.real:+.12f}"
            f"{s.lam.imag:+.12f}i"
        )
    if cfg.output:
        write_csv(cfg.output, _STATE_HEADER, [_state_cells(s) for s in states])
        print(f"wrote {cfg.output}")
    return 0


def _run_ep(cfg: RunConfig) -> int:
    p = cfg.params
    locs = all_ep_locations(p["g"])
    print(f"exceptional points at g = {p['g']}:")
    for loc in locs:
        print(
            f"  n = {loc.n:+d}: E_bar = {loc.energy.real:+.10f}"
            f"{loc.energy.imag:+.10f}i   eps_bar = {loc.eps_d.real:+.10f}"
            f"{loc.eps_d.imag:+.10f}i"
        )
    if p["sheet"]:
        re = np.linspace(p["re_min"], p["re_max"], p["n_re"])
        im = np.linspace(p["im_min"], p["im_max"], p["n_im"])
        cells = complex_parameter_sheet(p["g"], re, im)
        out = cfg.output or "ep_sheet.csv"
        write_csv(
            out,
            ["re_eps", "im_eps", "branch_id", "re_E", "im_E"],
            [(a, b, str(c), d, e) for a, b, c, d, e in scan_consistency_rows(cells)],
        )
        print(f"wrote {out}")
    return 0


def _run_jordan(cfg: RunConfig) -> int:
    print("limit matrix B^{-1}A (g = 0, eps_d = -2):")
    print(limit_matrix())
    ok, J = verify_jordan_form()
    print("transformed matrix R^{-1} (B^{-1}A) R:")
    print(J.astype(int))
    alg, geo = eigenvalue_one_defect()
    print(f"eigenvalue 1: algebraic multiplicity {alg}, geometric {geo}")
    residuals = jordan_chain_check()
    failed = False
    for name, res in residuals.items():
        norm = sum(abs(x) for x in res)
        print(f"  chain relation {name}: residual {'0 (exact)' if norm == 0 else res}")
        failed |= norm != 0
    if failed or not ok or (alg, geo) != (3, 2):
        print("STRUCTURAL FAILURE")
        return 2
    print("all structural checks exact")
    return 0


def _run_dynamics(cfg: RunConfig) -> int:
    p = cfg.params
    params = ModelParams(epsilon_d=p["eps_d"], g=p["g"])
    times = np.arange(0.0, p["t_max"] + 1e-9, p["dt"])
    want = _METHODS if p["method"] == "all" else {p["method"]}
    n_sites = p["n_sites"] or int(2 * p["t_max"] + 50)
    traces = _survival_traces(
        params, times, want, n_sites, p["t_max"], optional=p["method"] == "all"
    )
    out = cfg.output or "dynamics.csv"
    rows = []
    for tr in traces:
        rows += zip(tr.times.tolist(), tr.amplitude.real.tolist(),
                    tr.amplitude.imag.tolist(), tr.probability.tolist(),
                    [tr.method.value] * tr.times.size)
    write_csv(out, ["t", "re_A", "im_A", "P", "method"], rows)
    print(f"wrote {out} ({len(rows)} rows)")
    if p["gnuplot"]:
        script = Path(out).with_suffix(".gp")
        script.write_text(_gnuplot_dynamics(out))
        print(f"wrote {script}")
    return 0


def _survival_traces(params, times, want, n_sites: int, t_max: float, optional=False):
    """Survival traces of the routes named in want, in the order oracle,
    bessel, intermediate, longtime.  The lattice of n_sites is trusted up to
    t_max; the t^{3/2} law keeps to its window t <= g^(-4/3).

    With optional set, a route outside its domain (DomainError) is left out
    with one line on stderr naming it and the reason; any other error, a
    LatticeTruncationError included, still fails the run.
    """
    ti = times[params.g ** (4.0 / 3.0) * times <= 1.0]
    tl = times[times > 0]
    routes = {
        "oracle": lambda: survival_lattice_oracle(params, LatticeConfig(n_sites, t_max), times),
        "bessel": lambda: survival_bessel_sum(params, times),
        "intermediate": lambda: SurvivalTrace.from_amplitude(
            ti, intermediate_amplitude(params.g, ti), Method.INTERMEDIATE_LAW),
        "longtime": lambda: SurvivalTrace.from_amplitude(
            tl, longtime_amplitude(params, tl), Method.LONG_TIME_LAW),
    }
    traces = []
    for name, route in routes.items():
        if name not in want:
            continue
        try:
            traces.append(route())
        except DomainError as exc:
            if not optional:
                raise
            print(f"skipped {name}: {exc}", file=sys.stderr)
    return traces


def _gnuplot_dynamics(csv_name: str) -> str:
    return (
        "set datafile separator ','\n"
        "set xlabel 't (units of 1/J)'\n"
        "set ylabel 'P(t)'\n"
        f"plot '{csv_name}' every ::1 using 1:4 with lines title 'P(t)'\n"
    )


def _run_generic(cfg: RunConfig) -> int:
    p = cfg.params
    model = make_model(p["model"], p["g"])
    e_min = p["e_min"] if p["e_min"] is not None else model.e_th - 4.0
    e_max = p["e_max"] if p["e_max"] is not None else model.e_th - 0.01
    if not e_min < e_max < model.e_th:
        raise ConfigError(
            f"need e_min < e_max < E_th = {model.e_th}; got [{e_min}, {e_max}]"
        )
    rows = []
    for E in np.linspace(e_min, e_max, p["n_points"]).tolist():
        q = self_energy_quadrature(model, E)
        c = sigma_closed_form(model, E)
        rows.append((E, q, c, abs(q - c)))
    out = cfg.output or f"generic_{p['model']}.csv"
    write_csv(out, ["E", "sigma_quadrature", "sigma_closed_form", "abs_err"], rows)
    worst = max(r[3] for r in rows)
    print(f"wrote {out}; worst |quadrature - closed form| = {worst:.3e}")
    return 0 if worst < 1e-8 else 1


# ---------------------------------------------------------------------------
# Figure presets
# ---------------------------------------------------------------------------

def _run_figures(cfg: RunConfig) -> int:
    name = cfg.params["name"]
    outdir = Path(cfg.output or ".")
    outdir.mkdir(parents=True, exist_ok=True)
    {"fig1": _fig1, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}[name](outdir)
    return 0


def _fig1(outdir: Path) -> None:
    """Four discrete eigenvalues in the E and k planes at g = 0.5, eps_d = -2."""
    states = discrete_spectrum(ModelParams(epsilon_d=-2.0, g=0.5))
    states.sort(key=lambda s: (s.energy.real, s.energy.imag))
    rows = []
    for s in states:
        k = -1j * cmath.log(s.lam)  # lam = e^{ik}
        rows.append(
            (s.state_class.value, s.energy.real, s.energy.imag, k.real, k.imag)
        )
    csv = outdir / "fig1_states.csv"
    write_csv(csv, ["class", "re_E", "im_E", "re_k", "im_k"], rows)
    (outdir / "fig1.gp").write_text(
        "set datafile separator ','\nset multiplot layout 1,2\n"
        "set xlabel 'Re E'; set ylabel 'Im E'\n"
        f"plot '{csv.name}' every ::1 using 2:3 with points pt 7 title 'E plane'\n"
        "set xlabel 'Re k'; set ylabel 'Im k'\n"
        f"plot '{csv.name}' every ::1 using 4:5 with points pt 7 title 'k plane'\n"
        "unset multiplot\n"
    )


def _fig3(outdir: Path) -> None:
    """Near-edge spectrum vs eps_d in [-2.15, -1.85] at g = 0.1."""
    csv = outdir / "fig3_scan.csv"
    _run_spectrum(parse_config([
        "spectrum", "--g", "0.1", "--eps-min", "-2.15", "--eps-max", "-1.85",
        "--step", "0.001", "-o", str(csv)]))
    (outdir / "fig3.gp").write_text(
        "set datafile separator ','\nset multiplot layout 2,1\n"
        "set xlabel 'eps_d'; set ylabel 'Re E'\n"
        f"plot '{csv.name}' every ::1 using 1:3 with dots title 'Re E'\n"
        "set ylabel 'Im E'\n"
        f"plot '{csv.name}' every ::1 using 1:4 with dots title 'Im E'\n"
        "unset multiplot\n"
    )


def _fig4(outdir: Path) -> None:
    """Eigenvalue sheets over the complex eps_d plane at g = 0.1."""
    csv = outdir / "fig4_sheet.csv"
    _run_ep(parse_config(["ep", "--g", "0.1", "--sheet", "--n-im", "33", "-o", str(csv)]))
    (outdir / "fig4.gp").write_text(
        "set datafile separator ','\n"
        "set xlabel 'Re eps_d'; set ylabel 'Im eps_d'; set zlabel 'Re E'\n"
        f"splot '{csv.name}' every ::1 using 1:2:4 with points pt 0 title 'sheets'\n"
    )


def _fig5(outdir: Path) -> None:
    """Survival probability panels at g = 0.02, eps_d = -2."""
    params = ModelParams(epsilon_d=-2.0, g=0.02)
    times = np.arange(0.0, 600.0 + 1e-9, 0.5)
    labels = {Method.LATTICE_ORACLE: "oracle", Method.LONG_TIME_LAW: "longtime",
              Method.INTERMEDIATE_LAW: "intermediate"}
    traces = _survival_traces(params, times, set(labels.values()), 1500, 600.0)
    rows = [(t, P, labels[tr.method]) for tr in traces
            for t, P in zip(tr.times.tolist(), tr.probability.tolist())]
    csv = outdir / "fig5_survival.csv"
    write_csv(csv, ["t", "P", "method"], rows)
    plateau = asymptotic_plateau(params)

    def pick(method):
        return f"using 1:(strcol(3) eq '{method}' ? $2 : 1/0)"

    (outdir / "fig5.gp").write_text(
        "set datafile separator ','\nset multiplot layout 3,1\n"
        "set xlabel 't'; set ylabel 'P(t)'\n"
        f"plot '{csv.name}' every ::1 {pick('oracle')} "
        f"with lines title 'exact', {plateau:.6f} title 'plateau'\n"
        "set xrange [0:120]\n"
        f"plot '{csv.name}' every ::1 {pick('oracle')} with lines title 'exact', "
        f"'{csv.name}' every ::1 {pick('intermediate')} "
        "with lines title 't^{3/2} law'\n"
        "set xrange [300:600]\n"
        f"plot '{csv.name}' every ::1 {pick('oracle')} with lines title 'exact', "
        f"'{csv.name}' every ::1 {pick('longtime')} "
        "with lines title 'late-time law'\n"
        "unset multiplot\n"
    )


_RUNNERS = {
    "spectrum": _run_spectrum,
    "ep": _run_ep,
    "jordan": _run_jordan,
    "dynamics": _run_dynamics,
    "generic": _run_generic,
    "figures": _run_figures,
}


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return _RUNNERS[cfg.subcommand](cfg)
    except BandEdgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
