"""tdsim benchmark: time whole CLI jobs, check their outputs, trace the layers.

    python3 bench/run.py --workload converge --seed 1 --seconds 36 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 36

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  One process runs one workload: it
repeats the workload's job through `tdsim.cli.main(argv)` for `--seconds`,
then checks the datasets of the last job fully and every other job's datasets
against them byte for byte.  `--trace 0` reports the end-to-end metrics,
`--trace 1` the per-layer ones (see bench/README.md).  The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  `--workload all` runs every workload in a fresh process of its
own and prints a summary.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 7
END_TO_END = {"setup_s": "s", "job_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    last = metric.rsplit(".", 1)[-1]
    if last in ("calls", "events", "rows_recorded", "steps_accepted", "f_evals"):
        return "count"
    if last == "bytes":
        return "B"
    if last in ("f_evals_per_step", "overhead_frac"):
        return "ratio"
    if "us_per" in metric:
        return "us"
    if "ms_per" in metric:
        return "ms"
    return "s"


def import_cli(root: Path):
    """tdsim.cli from ``root``/src; exits without a result if it is not there."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import tdsim
        from tdsim import cli
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import tdsim from {src}: {exc}") from None
    if Path(tdsim.__file__).resolve().parent.parent != src:
        raise SystemExit(f"bench: imported tdsim from {tdsim.__file__}, not from {src}")
    return cli


def set_up(args):
    """Import tdsim and build the workload's commands: the work `setup_s` times."""
    cli = import_cli(ROOT)
    commands = workloads.build(args.workload, args.seed, args.size, OUT_ROOT / args.workload)
    return cli, commands


def measure_setup(args) -> float:
    """Median over fresh processes of the time from spawn to the end of set-up."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--size", args.size, "--probe-setup"]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


@dataclass
class Job:
    wall_s: float
    cpu_s: float
    codes: list[int]
    digests: list[str | None]


def _cpu_time() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _digest(path: Path) -> str | None:
    if not path.exists():
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_commands(cli, commands) -> list[int]:
    codes = []
    # tdsim prints progress (`validate` prints its checks); keep stdout for results.
    with contextlib.redirect_stdout(sys.stderr):
        for cmd in commands:
            try:
                code = cli.main(cmd.argv)
            except SystemExit as exc:  # argparse rejected the argv
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a failed command, not a failed benchmark
                traceback.print_exc()
                code = 1
            codes.append(code)
    return codes


def timed_jobs(cli, commands, budget_s: float, wrap=None) -> list[Job]:
    """Repeat the job while another one fits in ``budget_s``; at least once.

    ``wrap(index, fn)`` runs one job (the tracer's root span); plain call if None.
    """
    jobs = []
    fn = lambda: run_commands(cli, commands)  # noqa: E731
    start = time.perf_counter()
    while True:
        cpu0 = _cpu_time()
        t0 = time.perf_counter()
        codes = wrap(len(jobs), fn) if wrap else fn()
        wall = time.perf_counter() - t0
        cpu = _cpu_time() - cpu0
        jobs.append(Job(wall, cpu, codes, [_digest(cmd.out) for cmd in commands]))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(j.wall_s for j in jobs) > budget_s:
            return jobs


def check_jobs(cli, workload, commands, jobs) -> list:
    """Full checks on the last job's datasets; earlier jobs must match them byte for byte."""
    last = jobs[-1]
    results = workloads.check(workload, commands, last.codes, cli.read_dataset)
    for n, job in enumerate(jobs[:-1]):
        for cmd, code, digest, final in zip(commands, job.codes, job.digests, last.digests):
            results.append((f"job {n} {cmd.out.stem}: exit 0", code == 0))
            results.append((f"job {n} {cmd.out.stem}: same bytes as last job",
                            digest is not None and digest == final))
    return results


def environment(args) -> dict:
    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
    }


def run_workload(args) -> int:
    cli, commands = set_up(args)
    setup_s = measure_setup(args) if not args.trace else None
    info = {"workload": args.workload, "trace": args.trace, "env": environment(args)}
    if args.trace:
        untraced = timed_jobs(cli, commands, args.seconds / 2)
        kernels = tracing.kernel_timings()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = timed_jobs(cli, commands, args.seconds / 2, tracer.run_job)
        finally:
            tracer.uninstall()
        layers, shares, closure, counts = tracing.layer_metrics(
            tracer, [j.wall_s for j in traced], [j.wall_s for j in untraced])
        metrics = dict(layers, **kernels)
        jobs = untraced + traced
        info.update(shares=shares, trace_closure=closure, counts=counts)
    else:
        jobs = timed_jobs(cli, commands, args.seconds)
        metrics = {
            "setup_s": setup_s,
            "job_s": statistics.median(j.wall_s for j in jobs),
            "cpu_s": statistics.median(j.cpu_s for j in jobs),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    results = check_jobs(cli, args.workload, commands, jobs)
    failed = [name for name, ok in results if not ok]
    info.update(
        jobs=len(jobs),
        job_s=[j.wall_s for j in jobs],
        cpu_s=[j.cpu_s for j in jobs],
        failed_frac=len(failed) / len(results),
        failed_checks=failed,
        datasets={cmd.out.name: {"bytes": cmd.out.stat().st_size if cmd.out.exists() else None,
                                 "sha256": digest}
                  for cmd, digest in zip(commands, jobs[-1].digests)},
    )
    units = END_TO_END if not args.trace else {name: unit_of(name) for name in metrics}
    for name in sorted(metrics):
        print(f"{name:45s} {metrics[name]:14.6g} {units[name]}")
    print(f"{'failed_frac':45s} {info['failed_frac']:14.6g} ratio "
          f"({len(failed)} of {len(results)} checks; {len(jobs)} jobs)")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": not failed,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process of its own, then a summary table."""
    summary = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(f"== {name} (exit {proc.returncode})")
        print(proc.stdout, end="")
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        summary[name] = (json.loads(lines[-1]), json.loads(lines[-2]))
    print("== summary")
    for name, (result, info) in summary.items():
        cells = "  ".join(f"{m}={v['value']:.4g} {v['unit']}"
                          for m, v in result["metrics"].items() if m in END_TO_END)
        print(f"{name:10s} {cells}  failed_frac={info['failed_frac']:.4g} ratio")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    # Every run is the plain single-process baseline.
    os.environ.pop("TDSIM_THREADS", None)
    if args.probe_setup:
        set_up(args)
        sys.stdout.flush()
        os._exit(0)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
