"""Spans recorded around the public functions of every ``bandedge`` module.

``Tracer.install`` wraps each public (non-underscore) function defined in a
``bandedge`` module and rebinds the wrapper under every name that any
``bandedge.*`` namespace holds for it, so calls between modules (for example
``dynamics.j1_over_t`` or ``ep.solve_quartic_lambda_raw``) are recorded too.
No source file changes; ``uninstall`` restores the original bindings.

A span is (name, start_ns, end_ns, parent index, op id, counts).  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import statistics
from time import perf_counter_ns

import numpy as np

# Work counts taken at layer boundaries: span name -> f(args, kwargs, result).
# Each returns a tuple of numbers stored on the span.
COUNTERS = {
    "dynamics.lattice_spectrum": lambda a, k, r: (len(r[0]),),
    "dynamics.survival_lattice_oracle": lambda a, k, r: (r.times.size,),
    "quadrature.panel_nodes": lambda a, k, r: (r[0].shape[0],),
    # (panels, 1 if the grid starts at t = 0, i.e. covers the requested window)
    "quadrature.refine_edges": lambda a, k, r: (
        len(r) - 1,
        float((a[2] if len(a) > 2 else k.get("start", 0.0)) == 0.0),
    ),
    "bessel.j1_over_t": lambda a, k, r: (np.size(r),),
    "bessel.bessel_j": lambda a, k, r: (np.size(r),),
    "ep.complex_parameter_sheet": lambda a, k, r: (len(r),),
}


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.op = -1

    # -- recording ---------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid, name, start, counts=()):
        end = perf_counter_ns()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[sid] = (name, start, end, parent, self.op, counts)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = tracer._open()
            start = perf_counter_ns()
            counts = ()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    counts = counter(args, kwargs, result)
                return result
            finally:
                tracer._close(sid, name, start, counts)

        return traced

    # -- installing --------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every public function of the package."""
        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m.name}")
            for m in pkgutil.iter_modules(package.__path__)
        ]
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and obj.__name__ == attr
                ):
                    wrappers[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        for mod in modules:
            ns = vars(mod)
            for attr, obj in list(ns.items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((mod, attr, obj))
                    ns[attr] = hit[1]

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._saved):
            setattr(mod, attr, obj)
        self._saved.clear()


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.sid = self.tracer._open()
        self.start = perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, self.name, self.start)
        return False


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------

def self_times_ns(spans) -> list[int]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, op, counts in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (name, start, end, parent, op, counts) in enumerate(spans):
        covered = 0
        cur_s = cur_e = None
        for cs, ce in sorted(children.get(i, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out.append(end - start - covered)
    return out


def pass_layers(spans, self_ns, wall_s: float) -> tuple[dict, dict]:
    """Per-layer numbers of one traced pass (spans of that pass only), and
    the pass's time accounting."""
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counts: dict[str, list] = {}
    for (name, start, end, parent, op, c), s in zip(spans, self_ns):
        self_s[name] = self_s.get(name, 0.0) + s * 1e-9
        incl_s[name] = incl_s.get(name, 0.0) + (end - start) * 1e-9
        calls[name] = calls.get(name, 0) + 1
        if c:
            counts.setdefault(name, []).append(c)

    def S(name):
        return self_s.get(name, 0.0)

    def module_self(prefix):
        return sum(v for k, v in self_s.items() if k.startswith(prefix + "."))

    def total(name, i=0):
        return float(sum(c[i] for c in counts.get(name, ())))

    # phase terms = requested times x eigenvalues summed, per oracle call
    phase_terms = 0.0
    for i, (name, *_rest, c) in enumerate(spans):
        if name == "dynamics.survival_lattice_oracle" and c:
            sites = sum(
                spans[j][5][0]
                for j in range(i + 1, len(spans))
                if spans[j][3] == i and spans[j][0] == "dynamics.lattice_spectrum"
            )
            phase_terms += c[0] * sites
    panels = total("quadrature.refine_edges")
    window = float(sum(c[0] for c in counts.get("quadrature.refine_edges", ()) if c[1]))
    # bessel nodes: calls entering the bessel layer from outside it
    nodes = 0.0
    bessel_incl = 0.0
    for name, start, end, parent, op, c in spans:
        if name.startswith("bessel.") and c and (
            parent < 0 or not spans[parent][0].startswith("bessel.")
        ):
            nodes += c[0]
            bessel_incl += (end - start) * 1e-9
    roots_calls = calls.get("spectrum.solve_quartic_lambda_raw", 0)
    op_spans = [(s, e) for (n, s, e, p, o, c) in spans if p < 0]
    driver_gap = wall_s - sum(e - s for s, e in op_spans) * 1e-9
    return {
        "dynamics.lattice_spectrum.self_s": S("dynamics.lattice_spectrum"),
        "dynamics.lattice_sites": total("dynamics.lattice_spectrum"),
        "dynamics.survival_lattice_oracle.self_s": S("dynamics.survival_lattice_oracle"),
        "dynamics.phase_terms": phase_terms,
        "dynamics.survival_bessel_sum.self_s": S("dynamics.survival_bessel_sum"),
        "dynamics.expansion_term_checks.self_s": S("dynamics.expansion_term_checks"),
        "dynamics.bessel_window_ratio": window / panels if panels else 0.0,
        "bessel.j1_over_t.self_s": S("bessel.j1_over_t"),
        "bessel.bessel_j.self_s": S("bessel.bessel_j"),
        "bessel.nodes": nodes,
        "bessel.ns_per_node": 1e9 * bessel_incl / nodes if nodes else 0.0,
        "quadrature.panel_nodes.self_s": S("quadrature.panel_nodes"),
        "quadrature.refine_edges.self_s": S("quadrature.refine_edges"),
        "quadrature.panels": total("quadrature.panel_nodes"),
        "quadrature.adaptive_quad.self_s": S("quadrature.adaptive_quad"),
        "quadrature.adaptive_quad.calls": float(calls.get("quadrature.adaptive_quad", 0)),
        "spectrum.solve_quartic_lambda_raw.self_s": S("spectrum.solve_quartic_lambda_raw"),
        "spectrum.solve_quartic_lambda_raw.calls": float(roots_calls),
        "spectrum.solve_quartic_lambda_raw.us_per_call": (
            1e6 * incl_s["spectrum.solve_quartic_lambda_raw"] / roots_calls
            if roots_calls else 0.0
        ),
        "spectrum.near_edge_triplet.self_s": S("spectrum.near_edge_triplet"),
        "spectrum.spectrum_scan.self_s": S("spectrum.spectrum_scan"),
        "ep.complex_parameter_sheet.self_s": S("ep.complex_parameter_sheet"),
        "ep.sheet_cells": total("ep.complex_parameter_sheet"),
        "ep.ep_parameter.self_s": S("ep.ep_parameter"),
        "ep.verify_ep_by_discriminant.self_s": S("ep.verify_ep_by_discriminant"),
        "generic.self_energy_quadrature.self_s": S("generic.self_energy_quadrature"),
        "generic.threshold_roots.self_s": S("generic.threshold_roots"),
        "jordan.self_s": module_self("jordan"),
        "model.self_s": module_self("model"),
        "dynamics.laws.self_s": sum(
            S(f"dynamics.{n}")
            for n in (
                "intermediate_amplitude",
                "survival_intermediate_law",
                "survival_longtime_law",
                "asymptotic_plateau",
            )
        ),
        "dynamics.dominant_frequency.self_s": S("dynamics.dominant_frequency"),
        "cli.main.self_s": S("cli.main"),
        "cli.write_csv.self_s": S("cli.write_csv"),
    }, {
        # accounting identity: every span's self time plus the driver's gaps
        # between its op spans adds up to the pass wall time
        "self_sum_s": sum(self_ns) * 1e-9,
        "driver_gap_s": driver_gap,
        "wall_s": wall_s,
    }


def median_layers(per_pass: list[dict]) -> dict:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("index,parent,op,name,start_ns,end_ns,counts\n")
        for i, (name, start, end, parent, op, counts) in enumerate(spans):
            c = " ".join(f"{x:g}" for x in counts)
            fh.write(f"{i},{parent},{op},{name},{start},{end},{c}\n")
