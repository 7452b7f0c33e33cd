"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/stability.py --seeds 1-10 [--workloads edge_dynamics,...]
                               [--suite] [--write bench/baseline.json]

For every workload and end-to-end metric it prints the median over seeds
and the spread (third minus first quartile, statistics.quantiles(n=4)) as a
share of the median, next to the metric's bound from BENCHMARK.json.  With
--suite it also times the tier-1 test suite once; that wall time is an
information field, not a gated metric, since the suite changes between
versions.  --write stores the medians and spreads, one traced run's per-layer
numbers per workload and the machine as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-1500:]}\n{proc.stderr[-1500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def time_suite() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    t = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1200,
    )
    return {"wall_s": time.perf_counter() - t,
            "summary": proc.stdout.strip().splitlines()[-1]}


def machine() -> dict:
    import mpmath
    import numpy
    import scipy

    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), "")
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--suite", action="store_true")
    ap.add_argument("--write", type=Path)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            res = run_once(workload, seed, spec["run_seconds"])
            runs.append(res)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()), flush=True)
        summary[workload] = {"seeds": args.seeds, "metrics": {}}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            summary[workload]["metrics"][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": bounds[name], "unit": runs[0]["metrics"][name]["unit"],
            }
            print(f"  {workload:15s} {name:14s} median {med:.5g}  spread {spread:.4f}"
                  f"  (bound {bounds[name]}, bound/3 {bounds[name] / 3:.4f})")
    print(f"largest spread / bound (setup_s excluded): {worst:.3f}")
    if args.write:
        for workload, entry in summary.items():
            traced = run_once(workload, args.seeds[0], spec["run_seconds"], trace=1)
            entry["per_layer_seed"] = args.seeds[0]
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        record = {
            "machine": machine(),
            "run_seconds": spec["run_seconds"],
            "workloads": summary,
        }
        if args.suite:
            record["tier1_suite"] = time_suite()
        args.write.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
