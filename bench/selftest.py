"""Self-test of the benchmark at tiny sizes (about two minutes on two cores).

    python3 bench/selftest.py

For every workload, at two seeds, untraced and traced, it asserts that:
- every metric BENCHMARK.json names for the mode is emitted, with its unit;
- no output check fails;
- in the traced run, the layers' self times plus the glue between them add up
  to the traced job time.
It also asserts that in a directory holding only BENCHMARK.json and the
benchmark's files, the benchmark exits non-zero without printing a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = (1, 2)


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_run(spec: dict, workload: str, seed: int, trace: int):
    proc = run(ROOT, workload, seed, trace)
    where = f"{workload} seed {seed} trace {trace}"
    assert proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}"
    lines = proc.stdout.strip().splitlines()
    result, info = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, (
        f"{where}: failed checks {info['failed_checks']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}, (
        f"{where}: emitted {emitted}")
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{where}: {name} = {m['value']!r}"
    if trace:
        closure = info["trace_closure"]
        gap = abs(closure["self_sum_s"] - closure["traced_job_s"])
        assert gap <= 1e-3 * closure["traced_job_s"], f"{where}: self times {closure}"
        assert 0.0 <= closure["glue_s"] <= closure["traced_job_s"], f"{where}: {closure}"
    print(f"ok  {where}: {result['attempted']} checks, {info['jobs']} jobs", flush=True)


def check_bare_directory():
    """Without the package next to it, the benchmark must fail without a result."""
    bare = ROOT / ".bench_out" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = run(bare, "converge", SEEDS[0], 0)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0, "bare directory: exit 0"
    assert '"correct"' not in proc.stdout, "bare directory: printed a result"
    print(f"ok  bare directory: exit {proc.returncode}, no result", flush=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for seed in SEEDS:
            for trace in (0, 1):
                check_run(spec, workload, seed, trace)
    check_bare_directory()
    print("selftest passed")


if __name__ == "__main__":
    main()
