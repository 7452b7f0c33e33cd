"""Benchmark driver for bandedge.

Usage (from the repository root):

    python3 bench/run.py --workload edge_dynamics --seed 1 --seconds 20 --trace 0

Workloads: edge_dynamics, weak_coupling, spectral_sweep (see workloads.py).
The workload runs in a fresh single-process interpreter (worker.py) with
BLAS threads capped at the number of usable CPUs.  Set-up time is the median
of fresh-interpreter ``import bandedge`` timings taken half before and half
after the workload, so that they span the run.

With --trace 0 the last line of standard output is one JSON object holding
the end-to-end metrics: wall_s (timed phase per pass, after one untimed
warm-up pass), setup_s, peak_rss_mb, xcheck_digits (-log10 of the largest
disagreement between independent routes) and ok_frac (share of attempted
operations that succeeded).  With --trace 1 it holds the per-layer metrics
from a traced run instead, plus trace.overhead_s (traced minus untraced pass
time, from alternating passes).  Lines before it print every metric with its
unit, the failure fraction and the run provenance (versions, thread cap, CSV
sha256).

The exit code is non-zero when any cross-check is out of tolerance, a CLI
call exits non-zero, or an operation raises an error outside the package's
BandEdgeError family.  Outputs go under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 8
IMPORTTIME_SAMPLES = 3


def metric_block(values: dict, spec: list[dict]) -> dict:
    """Values keyed and united as BENCHMARK.json lists them; names must match."""
    names = [m["name"] for m in spec]
    if set(values) != set(names):
        raise KeyError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(names))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def child_env() -> dict:
    ncpu = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(BENCH)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for var in ("BANDEDGE_NUM_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = str(ncpu)
    return env


def python(args: list[str], env: dict, timeout: float = 60.0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=env, cwd=ROOT, capture_output=True, text=True,
        timeout=timeout, check=True,
    )


_IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import bandedge; "
    "print(time.perf_counter() - t)"
)


def measure_setup(env: dict, n: int) -> list[float]:
    """Fresh-interpreter import times."""
    return [float(python(["-c", _IMPORT_SNIPPET], env).stdout) for _ in range(n)]


def measure_importtime(env: dict) -> dict:
    """Import self time by top-level package, from -X importtime (median of runs)."""
    samples = []
    for _ in range(IMPORTTIME_SAMPLES):
        err = python(["-X", "importtime", "-c", "import bandedge"], env).stderr
        by_pkg: dict[str, float] = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|\s+(\S+)", line.strip())
            if m:
                pkg = m.group(3).split(".")[0]
                by_pkg[pkg] = by_pkg.get(pkg, 0.0) + int(m.group(1)) * 1e-6
        samples.append(by_pkg)
    return {
        f"setup.{key}": statistics.median(s.get(pkg, 0.0) for s in samples)
        for key, pkg in (("numpy_s", "numpy"), ("scipy_s", "scipy"),
                         ("mpmath_s", "mpmath"), ("bandedge_self_s", "bandedge"))
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description="bandedge benchmark driver")
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="small sizes, for the benchmark's self-test")
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="perturb the cross-check references (self-test)")
    args = ap.parse_args(argv)

    if not (SRC / "bandedge" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'bandedge'}", file=sys.stderr)
        return 2

    env = child_env()
    outdir = OUT / args.workload
    outdir.mkdir(parents=True, exist_ok=True)
    result_path = outdir / f"result-s{args.seed}-t{args.trace}.json"
    result_path.unlink(missing_ok=True)
    try:
        python(["-c", "import bandedge"], env)  # fills __pycache__ in a fresh checkout
        if args.trace:
            setup_layers = measure_importtime(env)
            setup = []
        else:
            setup = measure_setup(env, SETUP_SAMPLES // 2)
        worker = [
            str(BENCH / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--outdir", str(outdir),
            "--result", str(result_path),
        ]
        worker += ["--tiny"] if args.tiny else []
        worker += ["--corrupt-reference"] if args.corrupt_reference else []
        # the budget, a warm-up pass and the last pass's overrun
        python(worker, env, timeout=2.0 * args.seconds + 120.0)
        if not args.trace:
            setup += measure_setup(env, SETUP_SAMPLES - SETUP_SAMPLES // 2)
    except subprocess.CalledProcessError as exc:
        print(f"error: {exc.cmd[1:3]} exited {exc.returncode}\n{exc.stderr[-2000:]}",
              file=sys.stderr)
        return 3
    except subprocess.TimeoutExpired as exc:
        print(f"error: {exc.cmd[1:3]} timed out after {exc.timeout} s", file=sys.stderr)
        return 3
    res = json.loads(result_path.read_text())
    result_path.unlink()

    correct = not res["violations"] and res["unexpected_errors"] == 0
    attempted, failed = res["attempted"], res["failed"]
    if args.trace:
        layers = dict(res["layers"])
        layers.update(setup_layers)
        layers["cli.bytes_written"] = float(res["csv_bytes"])
        # untraced and traced passes alternate, so these are matched pairs
        layers["trace.overhead_s"] = (
            statistics.mean(res["traced_walls_s"]) - statistics.mean(res["walls_s"])
        )
        metrics = metric_block(layers, spec["per_layer"])
    else:
        values = {
            # the timed phase per warm pass (an inverse throughput): on a host
            # whose speed drifts in phases of tens of seconds, this is steadier
            # than the median pass, which jumps between the fast and slow phases
            "wall_s": statistics.mean(res["walls_s"]),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "xcheck_digits": res["xcheck_digits"],
            "ok_frac": (attempted - failed) / attempted,
        }
        metrics = metric_block(values, spec["end_to_end"])

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(res["walls_s"]),
        "walls_s": res["walls_s"],
        "traced_walls_s": res.get("traced_walls_s"),
        "setup_samples_s": setup,
        "xcheck_err": res["xcheck_err"],
        "fail_frac": failed / attempted,
        "violations": res["violations"],
        "failures": res["failures"],
        "accounting": res.get("accounting"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": int(env["OPENBLAS_NUM_THREADS"]),
        "versions": res["versions"],
        "csv_sha256": res["csv_sha256"],
        "metrics": metrics,
    }
    (outdir / f"report-s{args.seed}-t{args.trace}.json").write_text(json.dumps(report, indent=1))

    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} xcheck_err = {res['xcheck_err']:.4g} 1 "
          "(largest disagreement between independent routes)")
    print(f"{args.workload} fail_frac = {failed / attempted:.4g} share "
          f"({failed} of {attempted} operations, {len(res['walls_s'])} untraced passes)")
    for op, msg in res["violations"]:
        print(f"{args.workload} CHECK FAILED {op}: {msg}")
    for f in res["failures"]:
        if not f["expected"]:
            print(f"{args.workload} UNEXPECTED {f['error']} in {f['op']}: {f['message']}")
    print("provenance " + json.dumps({
        k: report[k] for k in ("nproc", "blas_threads", "versions", "csv_sha256")
    }))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
