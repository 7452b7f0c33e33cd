"""Command-line front end: spectrum scans, EP location, Jordan checks,
survival dynamics, generic threshold models, and figure-reproduction presets.

Configuration can come from a plain-text file of ``key = value`` lines
(``#`` starts a comment); command-line flags override file values.  Unknown
keys are rejected with their line number.  All CSV output uses fixed
17-significant-digit scientific notation so repeated runs are byte-identical
and doubles round-trip exactly.  ``write_csv`` takes a file's columns (the
runners pass their arrays straight through) and formats all of its number
cells in one vectorized pass that gives the bytes of ``'%.16e' % x``: 17
digits from a double-double product with a power of ten, with Python's own
``'%.16e'`` as the exact fallback for the cells whose rounding that cannot
certify (near-ties, non-finite and extreme values); +-0 takes the fast path.

BLAS thread pools follow the standard OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS variables, read when numpy loads.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .dynamics import (
    Method,
    SurvivalTrace,
    _two_product,
    asymptotic_plateau,
    intermediate_amplitude,
    longtime_amplitude,
    survival_bessel_sum,
    survival_lattice_oracle,
)
from .ep import _check_finite_grid, complex_parameter_sheet, ep_parameter
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


def write_csv(path, header: list[str], columns) -> None:
    """Write a CSV file from its columns, one header name per column.

    A column is a 1-D array or a sequence of real numbers (float, int or
    bool), each written ``%.16e``, or of str, written as is.  A complex,
    None or mixed str/number column raises TypeError; a column whose length
    differs from the first one's raises ValueError naming it.  The number
    columns are formatted together by ``_format_e16`` and every cell is
    placed NUL-padded in one (rows, width) uint8 buffer with its comma or
    newline, so a str cell must not hold a NUL character.
    """
    if len(columns) != len(header):
        raise ValueError(f"{len(header)} CSV header names for {len(columns)} columns")
    rows = len(columns[0]) if columns else 0
    cells = [_csv_column(name, col, rows) for name, col in zip(header, columns)]
    body = b""
    if rows:
        numeric = [j for j, c in enumerate(cells) if c.dtype.kind == "f"]
        if numeric:
            numbers = np.stack([cells[j] for j in numeric], axis=1).ravel()
            formatted = _format_e16(numbers).reshape(rows, len(numeric), -1)
            for k, j in enumerate(numeric):
                cells[j] = formatted[:, k]
        widths = np.cumsum([0] + [c.shape[1] + 1 for c in cells])
        buf = np.zeros((rows, widths[-1]), np.uint8)
        for c, start, stop in zip(cells, widths[:-1], widths[1:]):
            buf[:, start : stop - 1] = c
            buf[:, stop - 1] = ord(",")
        buf[:, -1] = ord("\n")
        body = buf[buf != 0].tobytes()
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.write(body)


def _csv_column(name: str, col, rows: int) -> np.ndarray:
    """A number column as float64, a str column as (rows, width) uint8
    UTF-8 bytes, NUL-padded."""
    a = np.ascontiguousarray(col)
    if a.shape != (rows,):
        raise ValueError(
            f"CSV column {name!r} has shape {a.shape}; the first column has {rows} cells"
        )
    if a.dtype.kind in "biuf":
        return a.astype(np.float64, copy=False)
    if a.dtype.kind != "U" or not (
        isinstance(col, np.ndarray) or all(isinstance(v, str) for v in col)
    ):
        raise TypeError(f"CSV column {name!r} is neither all real numbers nor all str")
    code = a.view(np.uint32).reshape(rows, a.itemsize // 4)
    if code.max(initial=0) < 0x80:  # ASCII: each code point is its one byte
        return code.astype(np.uint8)
    utf8 = np.char.encode(a, "utf-8")
    return utf8.view(np.uint8).reshape(rows, utf8.itemsize)


# The %.16e formatter.  Its fast path takes D = round(|x| 10^(16 - e)), the
# 17 significant digits, from the double-double product of |x| with 10^k,
# k = 16 - e, which is exact to about 1e-14 in D.  A cell falls back to
# Python's '%.16e' % x where that cannot certify the rounding: the fraction
# of |x| 10^k within 1e-6 of 1/2 (exact ties round half to even), D outside
# [1e16, 1e17) (an estimate e = floor(log10|x|) off by one, or a rounding
# up into the next decade), or a nonzero |x| outside [1e-280, 1e280]
# (subnormals, nan, inf, and where 10^k or its low part would leave the
# normal range).  +-0 is written as D = 0, e = 0 with the sign bit of x.
_K_MIN, _K_MAX = -265, 297  # 10^k for e in [-281, 281]


def _pow10_table():
    """10^k = hi + lo for k in [_K_MIN, _K_MAX], each part a correctly
    rounded int -> float or int / int conversion of an exact integer."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            n = 10**k
            h = float(n)
            lo.append(float(n - int(h)))
        else:
            d = 10**-k
            h = 1 / d
            num, den = h.as_integer_ratio()
            lo.append((den - num * d) / (den * d))
        hi.append(h)
    return np.array(hi), np.array(lo)


def _byte_table(cells: list[str], width: int) -> np.ndarray:
    """Each str NUL-padded to width bytes, read as one unsigned integer."""
    return np.frombuffer(b"".join(c.encode().ljust(width, b"\0") for c in cells), f"u{width}")


_P10_HI, _P10_LO = _pow10_table()
_HEAD = _byte_table([f"{s}{d}." for s in ("", "-") for d in range(10)], 4)
_EXP = _byte_table([f"e{e:+03d}" for e in range(16 - _K_MAX, 17 - _K_MIN)], 8)
_DIGITS = np.arange(48, 58, dtype=np.uint8)  # "0" ... "9"
_QUAD = np.stack(np.meshgrid(*[_DIGITS] * 4, indexing="ij"), -1
                 ).view(np.uint32).ravel()  # "0000" ... "9999", built in uint8


def _round17(x: np.ndarray) -> tuple:
    """(D, e, fast): |x| ~ D 10^(e - 16) with D the 17 significant digits as
    an int64 in [1e16, 1e17), and fast where that rounding is certified."""
    ax = np.abs(x)
    fast = (ax >= 1e-280) & (ax <= 1e280)
    ax[~fast] = 1.0
    e = np.floor(np.log10(ax)).astype(np.int64)
    hi, lo = _P10_HI[16 - _K_MIN - e], _P10_LO[16 - _K_MIN - e]
    # |x| (hi + lo) = yh + yl: the exact product |x| hi plus |x| lo
    p, err = _two_product(ax, hi)
    s = err + ax * lo
    yh = p + s
    yl = s - (yh - p)
    t = np.floor(yl)
    frac = yl - t
    D = yh.astype(np.int64) + t.astype(np.int64)  # yh >= 2^53 is an integer
    fast &= (D >= 10**16) & (np.abs(frac - 0.5) > 1e-6)
    D += frac > 0.5
    fast &= D < 10**17
    D[~fast] = 10**16  # keeps the digit tables in range; the fallback rewrites these
    zero = x == 0  # D = 0 and, from |x| = 1 above, e = 0; the sign is x's signbit
    D[zero] = 0
    return D, e, fast | zero


def _format_e16(x: np.ndarray) -> np.ndarray:
    """'%.16e' % v of each v in the float64 array x, byte for byte, as
    (x.size, 28) uint8 NUL-padded cells: a 4-byte head (sign, first digit,
    point), four 4-digit groups and an 8-byte exponent."""
    D, e, fast = _round17(x)
    d0 = D // 10**16
    rest = D - d0 * 10**16
    upper = rest // 10**8
    out = np.empty((x.size, 7), np.uint32)
    out[:, 0] = _HEAD.take(d0 + 10 * np.signbit(x))
    for col, half in ((1, upper), (3, rest - upper * 10**8)):
        half = half.astype(np.int32)
        quad = half // 10**4
        out[:, col] = _QUAD.take(quad)
        out[:, col + 1] = _QUAD.take(half - quad * 10**4)
    out[:, 5:] = _EXP.take(e - (16 - _K_MAX)).view(np.uint32).reshape(-1, 2)
    cells = out.view(np.uint8)
    slow = np.flatnonzero(~fast)
    if slow.size:
        text = np.array(["%.16e" % v for v in x[slow].tolist()], dtype="S28")
        cells[slow] = text.view(np.uint8).reshape(-1, 28)
    return cells


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


def _one_of(name, choices):
    def check(v):
        if v not in choices:
            raise ConfigError(f"{name} must be one of {sorted(choices)}")
    return check


_METHODS = {"oracle", "bessel", "intermediate", "longtime", "all"}

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
        "method": (str, "oracle", _one_of("method", _METHODS)),
        "n_sites": (int, None, None),
        "gnuplot": (bool, False, None),
    },
    "generic": {
        "model": (str, "const", _one_of("model", {"const", "lorentzian", "main-text"})),
        "g": (float, 0.1, _nonneg("g")),
        "e_min": (float, None, None),
        "e_max": (float, None, None),
        "n_points": (int, 81, _positive("n_points")),
    },
    "figures": {
        "name": (str, "fig1", _one_of("name", {"fig1", "fig3", "fig4", "fig5"})),
    },
}

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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argparse tree, built on first use and then reused: parsing keeps
    no state in it, and each add_argument queries the terminal size."""
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
    return parser


def parse_config(argv) -> RunConfig:
    """argparse front end; flags override config-file values."""
    ns = _parser().parse_args(argv)
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
    return RunConfig(subcommand=name, params=merged, output=ns.output)


# ---------------------------------------------------------------------------
# Subcommand runners
# ---------------------------------------------------------------------------

_STATE_HEADER = ["class", "re_E", "im_E", "re_lambda", "im_lambda",
                 "re_psid_sq", "im_psid_sq"]


def _state_columns(state_class, E, lam, psid) -> list:
    """The _STATE_HEADER columns: class values, then the parts of E, lam and
    psid_sq."""
    E, lam, psid = (np.asarray(x, dtype=complex) for x in (E, lam, psid))
    return [state_class, E.real, E.imag, lam.real, lam.imag, psid.real, psid.imag]


def _state_fields(states) -> list:
    """The _state_columns arguments of a list of DiscreteState."""
    return [[s.state_class.value for s in states], *(
        [getattr(s, f) for s in states] for f in ("energy", "lam", "psid_sq"))]


def _run_spectrum(cfg: RunConfig) -> int:
    p = cfg.params
    if p["eps_min"] is not None and p["eps_max"] is not None:
        s = spectrum_scan(p["g"], p["eps_min"], p["eps_max"], p["step"])
        out = cfg.output or "spectrum_scan.csv"
        write_csv(out, ["eps_d"] + _STATE_HEADER,
                  [s.eps_d, *_state_columns(s.state_class, s.energy, s.lam, s.psid_sq)])
        print(f"wrote {out} ({s.eps_d.size} rows)")
        return 0
    params = ModelParams(epsilon_d=p["eps_d"], g=p["g"])
    states = discrete_spectrum(params)
    print(f"discrete spectrum at eps_d = {p['eps_d']}, g = {p['g']}:")
    for s in states:
        print(
            f"  {s.state_class.value:<15} E = {s.energy.real:+.12f}"
            f"{s.energy.imag:+.12f}i   lam = {s.lam.real:+.12f}"
            f"{s.lam.imag:+.12f}i"
        )
    if cfg.output:
        write_csv(cfg.output, _STATE_HEADER, _state_columns(*_state_fields(states)))
        print(f"wrote {cfg.output}")
    return 0


def _run_ep(cfg: RunConfig) -> int:
    p = cfg.params
    locs = [ep_parameter(p["g"], n) for n in (-1, 0, 1)]
    print(f"exceptional points at g = {p['g']}:")
    for loc in locs:
        print(
            f"  n = {loc.n:+d}: E_bar = {loc.energy.real:+.10f}"
            f"{loc.energy.imag:+.10f}i   eps_bar = {loc.eps_d.real:+.10f}"
            f"{loc.eps_d.imag:+.10f}i"
        )
    if p["sheet"]:
        # the bounds before linspace, which turns an infinite one into NaNs
        _check_finite_grid(np.array([p["re_min"], p["re_max"]]),
                           np.array([p["im_min"], p["im_max"]]))
        re = np.linspace(p["re_min"], p["re_max"], p["n_re"])
        im = np.linspace(p["im_min"], p["im_max"], p["n_im"])
        E = complex_parameter_sheet(p["g"], re, im).ravel()
        eps = np.repeat((re[None, :] + 1j * im[:, None]).ravel(), 3)
        out = cfg.output or "ep_sheet.csv"
        write_csv(
            out,
            ["re_eps", "im_eps", "branch_id", "re_E", "im_E"],
            [eps.real, eps.imag, np.tile(["0", "1", "2"], E.size // 3), E.real, E.imag],
        )
        print(f"wrote {out}")
    return 0


def _run_jordan(cfg: RunConfig) -> int:
    print("limit matrix B^{-1}A (g = 0, eps_d = -2):")
    print(limit_matrix())
    ok, J = verify_jordan_form()
    print("transformed matrix R^{-1} (B^{-1}A) R:")
    print(J)
    alg, geo = eigenvalue_one_defect()
    print(f"eigenvalue 1: algebraic multiplicity {alg}, geometric {geo}")
    failed = not ok or (alg, geo) != (3, 2)
    for name, res in jordan_chain_check().items():
        print(f"  chain relation {name}: residual {res if res.any() else '0 (exact)'}")
        failed |= bool(res.any())
    if failed:
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
    traces = _survival_traces(params, times, want, n_sites, optional=p["method"] == "all")
    out = cfg.output or "dynamics.csv"
    t, A, P, method = _trace_columns(traces, lambda tr: tr.method.value)
    write_csv(out, ["t", "re_A", "im_A", "P", "method"], [t, A.real, A.imag, P, method])
    print(f"wrote {out} ({t.size} rows)")
    if p["gnuplot"]:
        script = Path(out).with_suffix(".gp")
        script.write_text(_gnuplot_dynamics(out))
        print(f"wrote {script}")
    return 0


def _survival_traces(params, times, want, n_sites: int, optional=False):
    """Survival traces of the routes named in want, in the order oracle,
    bessel, intermediate, longtime.  The oracle's lattice has n_sites; the
    t^{3/2} law keeps to its window t <= g^(-4/3).

    With optional set, a route outside its domain (DomainError) is left out
    with one line on stderr naming it and the reason; any other error, a
    LatticeTruncationError included, still fails the run.
    """
    ti = times[params.g ** (4.0 / 3.0) * times <= 1.0]
    tl = times[times > 0]
    routes = {
        "oracle": lambda: survival_lattice_oracle(params, n_sites, times),
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


def _trace_columns(traces, label) -> tuple:
    """Times, amplitudes, probabilities and label(trace) of the traces, one
    trace after another."""
    t, A, P = (np.concatenate([getattr(tr, f) for tr in traces] + [np.empty(0)])
               for f in ("times", "amplitude", "probability"))
    return t, A, P, np.repeat([label(tr) for tr in traces], [tr.times.size for tr in traces])


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
    E = np.linspace(e_min, e_max, p["n_points"])
    q = self_energy_quadrature(model, E)
    c = sigma_closed_form(model, E)
    err = np.abs(q - c)
    out = cfg.output or f"generic_{p['model']}.csv"
    write_csv(out, ["E", "sigma_quadrature", "sigma_closed_form", "abs_err"], [E, q, c, err])
    worst = err.max()
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
    k = np.array([-1j * cmath.log(s.lam) for s in states])  # lam = e^{ik}
    csv = outdir / "fig1_states.csv"
    write_csv(csv, ["class", "re_E", "im_E", "re_k", "im_k"],
              [*_state_columns(*_state_fields(states))[:3], k.real, k.imag])
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
    traces = _survival_traces(params, times, set(labels.values()), 1500)
    t, _, P, method = _trace_columns(traces, lambda tr: labels[tr.method])
    csv = outdir / "fig5_survival.csv"
    write_csv(csv, ["t", "P", "method"], [t, P, method])
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
