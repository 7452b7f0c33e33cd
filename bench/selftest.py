"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * an untraced run exits 0 and its last line holds exactly the end-to-end
    metrics, each with the unit BENCHMARK.json gives it;
  * a traced run holds exactly the per-layer metrics with their units, and in
    every traced pass the spans' self times plus the driver's own gaps add up
    to the pass wall time;
  * a deliberately wrong cross-check (--corrupt-reference) exits non-zero
    with "correct": false.
It also checks that a copy holding only BENCHMARK.json and the benchmark's
own files, without the package source, exits non-zero without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload: str, *extra: str, cwd: Path = ROOT, trace: int = 0):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_result(lines: list[str], expected: dict) -> dict:
    result = json.loads(lines[-1])
    assert set(result) == RESULT_KEYS, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected, (sorted(set(got) ^ set(expected)), got)
    return result


def main() -> int:
    end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for w in (w["name"] for w in SPEC["workloads"]):
        code, lines, err = run(w, "--tiny")
        assert code == 0, (w, code, err[-2000:])
        res = check_result(lines, end_to_end)
        assert res["correct"], (w, lines[-6:])
        print(f"ok  {w}: end-to-end metrics and units")

        code, lines, err = run(w, "--tiny", trace=1)
        assert code == 0, (w, code, err[-2000:])
        check_result(lines, per_layer)
        report = json.loads((ROOT / ".bench_out" / w / "report-s3-t1.json").read_text())
        for acct in report["accounting"]:
            total = acct["self_sum_s"] + acct["driver_gap_s"]
            assert abs(total - acct["wall_s"]) <= 1e-3 * acct["wall_s"] + 1e-4, (w, acct)
        print(f"ok  {w}: per-layer metrics, self times + gaps = traced wall "
              f"({len(report['accounting'])} passes)")

        code, lines, _ = run(w, "--tiny", "--corrupt-reference")
        assert code != 0 and json.loads(lines[-1])["correct"] is False, (w, code)
        print(f"ok  {w}: a wrong cross-check exits {code}")

    bare = ROOT / ".bench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    code, lines, _ = run(SPEC["workloads"][0]["name"], cwd=bare)
    assert code != 0 and not any(line.startswith("{") for line in lines), (code, lines)
    shutil.rmtree(bare)
    print(f"ok  without the package source the driver exits {code} and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
