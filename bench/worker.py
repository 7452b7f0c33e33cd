"""One workload in a fresh single-process interpreter (started by run.py).

Runs one untimed warm-up pass over the workload's operations (lazy imports,
first BLAS calls and allocations land there), then whole timed passes until
the time budget is used, at least one.  With --trace 1 the timed passes
alternate between untraced and traced, so that the two kinds see the same
warm state and the same host drift.  Each operation's failure is caught and
counted instead of aborting the run.  After the timed phase it runs the
cross-checks on the last pass's outputs and writes one JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import mpmath
import numpy
import scipy

import bandedge
from bandedge.errors import BandEdgeError

import tracer as tracing
import workloads


def run_pass(wl, tracer=None):
    """One pass over the ops; returns (wall, failures, results)."""
    for path in wl.csv_paths:  # a failed op must not leave an earlier pass's output
        path.unlink(missing_ok=True)
    failures = []
    results: dict = {}
    pass_start = perf_counter()
    for op in wl.ops:
        try:
            if tracer is not None:
                tracer.op += 1
                with tracer.span("op." + op.name):
                    results[op.name] = op.fn(results)
            else:
                results[op.name] = op.fn(results)
        except Exception as exc:  # an op's failure is counted, not fatal
            failures.append({
                "op": op.name,
                "error": type(exc).__name__,
                # only the package's own errors are known failure modes; a
                # non-zero CLI exit or any other exception fails the run
                "expected": isinstance(exc, BandEdgeError),
                "message": str(exc)[:200],
                "where": traceback.format_exc(limit=-1).strip().splitlines()[-2:],
            })
    return perf_counter() - pass_start, failures, results


def traced_pass(wl, tr: tracing.Tracer):
    """One pass with every public bandedge function wrapped; returns
    (wall, failures, results, per-layer numbers, time accounting)."""
    lo = len(tr.spans)
    tr.install(bandedge)
    try:
        wall, failures, results = run_pass(wl, tr)
    finally:
        tr.uninstall()
    spans = [s[:3] + (s[3] - lo if s[3] >= 0 else -1,) + s[4:] for s in tr.spans[lo:]]
    layers, acct = tracing.pass_layers(spans, tracing.self_times_ns(spans), wall)
    return wall, failures, results, layers, acct


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--corrupt-reference", action="store_true")
    ap.add_argument("--outdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)

    outdir = Path(args.outdir)
    wl = workloads.build(args.workload, args.seed, outdir, tiny=args.tiny)
    run_pass(wl)  # warm-up, not timed or counted

    walls, t_walls, failures, per_pass, accounting = [], [], [], [], []
    tr = tracing.Tracer() if args.trace else None
    t_start = perf_counter()
    while True:
        wall, fails, results = run_pass(wl)
        walls.append(wall)
        failures += fails
        if tr is not None:
            wall, fails, results, layers, acct = traced_pass(wl, tr)
            t_walls.append(wall)
            failures += fails
            per_pass.append(layers)
            accounting.append(acct)
        step = statistics.median(walls) + (statistics.median(t_walls) if tr else 0.0)
        if perf_counter() - t_start + step > args.seconds:
            break

    out = {"walls_s": walls}
    if tr is not None:
        out["traced_walls_s"] = t_walls
        out["layers"] = tracing.median_layers(per_pass)
        out["accounting"] = accounting
        tracing.write_spans(outdir / "spans.csv", tr.spans)

    try:
        xcheck_err, violations = wl.check(results, args.corrupt_reference)
    except Exception as exc:  # e.g. an output missing because its op failed
        xcheck_err, violations = 1.0, [("check", f"{type(exc).__name__}: {exc}"[:300])]
    failed_ops = {f["op"] for f in failures}
    n_violation_ops = len({op for op, _ in violations} - failed_ops)
    csvs = {p.name: p for p in wl.csv_paths if p.exists()}
    out.update({
        "attempted": len(wl.ops) * (len(walls) + len(t_walls)),
        "failed": len(failures) + n_violation_ops,
        "unexpected_errors": sum(not f["expected"] for f in failures),
        "failures": failures[:50],
        "violations": violations,
        "xcheck_err": xcheck_err,
        "xcheck_digits": workloads.digits(xcheck_err),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "csv_sha256": {name: sha256(p) for name, p in sorted(csvs.items())},
        "csv_bytes": sum(p.stat().st_size for p in csvs.values()),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": mpmath.__version__,
            "bandedge": bandedge.__version__,
        },
    })
    Path(args.result).write_text(json.dumps(out, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
