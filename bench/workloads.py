"""The benchmark's workloads: the tdsim argv each one runs, and its output checks.

A workload is a list of `Command`s built from the workload seed; one job runs
every command once through `tdsim.cli.main`.  The seed picks tdsim's `--seed`
values and, for `bifurcate`, a small grid offset.  Neither changes the amount
of work per job by more than a few per cent, so runs at different seeds are
comparable.
"""
from __future__ import annotations

import csv
import math
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The closed-form classification rule of tdsim.analysis.classify, restated
# here so that the check does not trust the code it checks.
EIGENVALUE_EPS = 1e-9
EXTREMA_TOL = 1e-6
SLOPE_WINDOW = (-0.65, -0.35)
# Grid offsets for `bifurcate`; each has a stored reference diagram.
BIFURCATE_OFFSETS = (0.0, 0.002, 0.004, 0.006, 0.008)

# "full" is what the benchmark measures; "tiny" keeps every command's shape at
# a fraction of the cost, for the self-test.
SIZES = {
    "full": {
        "converge": {"replicas": 6, "t_end": 5},
        "bifurcate": {"start": -1.95, "stop": 2.35, "step": 0.1},
        "cli_runs": {"t_long": 25, "t_big": 2, "t_kgen": 2, "t_micro": 1, "t_ode": 10,
                     "validate_N": 4},
    },
    "tiny": {
        "converge": {"replicas": 3, "t_end": 2},
        "bifurcate": {"start": -1.95, "stop": 2.05, "step": 0.4},
        "cli_runs": {"t_long": 5, "t_big": 0.05, "t_kgen": 0.1, "t_micro": 0.05,
                     "t_ode": 1, "validate_N": 2},
    },
}


@dataclass
class Command:
    """One tdsim invocation, the dataset it writes, and the checks on it."""

    argv: list[str]
    out: Path
    checks: tuple[str, ...]
    expect: dict = field(default_factory=dict)


def _seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(count)]


def build(name: str, seed: int, size: str, out_dir: Path) -> list[Command]:
    """The commands of workload ``name`` at ``seed``, writing into ``out_dir``."""
    out_dir.mkdir(parents=True, exist_ok=True)
    return _COMMANDS_OF[name](seed, SIZES[size][name], out_dir)


def _build_converge(seed, size, out_dir):
    (tdsim_seed,) = _seeds(seed, 1)
    out = out_dir / "converge.csv"
    argv = ["converge", "--J", "1", "--delta", "0.3", "--kappa", "0.5",
            "--x0", "0.8,0.2,0.5", "--t-end", str(size["t_end"]),
            "--N", "100", "--N", "1000", "--N", "10000",
            "--replicas", str(size["replicas"]), "--seed", str(tdsim_seed), "--out", str(out)]
    checks = ("one row per N", "medians strictly decreasing", "slope in window")
    return [Command(argv, out, checks, {"N": [100, 1000, 10000]})]


def _build_bifurcate(seed, size, out_dir):
    offset = BIFURCATE_OFFSETS[seed % len(BIFURCATE_OFFSETS)]
    grid = f"{size['start'] + offset:g}:{size['stop'] + offset:g}:{size['step']:g}"
    out = out_dir / "bifurcate.csv"
    argv = ["bifurcate", "--delta", "0", f"--grid={grid}", "--out", str(out)]
    checks = ("rows cover the grid", "classification matches closed form",
              "orbit extrema match reference", "amplitudes increase above J=2")
    return [Command(argv, out, checks, {"reference": load_reference()})]


def _build_cli_runs(seed, size, out_dir):
    seeds = _seeds(seed, 5)
    model = ["--J", "2.5", "--delta", "0"]
    runs = [
        ("sim_k3_long", ["--N", "1000", "--t-end", size["t_long"], "--thinning", "1"]),
        ("sim_k3_big", ["--N", "100000", "--t-end", size["t_big"]]),
        ("sim_k5", ["--k", "5", "--N", "10000", "--x0", "0.5,0.5,0.5,0.5,0.5",
                    "--t-end", size["t_kgen"]]),
        ("sim_micro", ["--level", "micro", "--N", "10000", "--t-end", size["t_micro"]]),
    ]
    commands = []
    for (name, args), sim_seed in zip(runs, seeds):
        args = ["simulate"] + model + [str(a) for a in args] + ["--seed", str(sim_seed)]
        commands.append(_cli_command(name, args, out_dir, seed=sim_seed))
    for method, extra in (("rk4", []), ("rk45", ["--sample-dt", "0.01"])):
        args = ["ode"] + model + ["--method", method, "--t-end", str(size["t_ode"])] + extra
        commands.append(_cli_command(f"ode_{method}", args, out_dir, method=method))
    args = ["validate", "--J", "1.2", "--delta", "0.3", "--N", str(size["validate_N"]),
            "--seed", str(seeds[4])]
    commands.append(_cli_command("validate", args, out_dir, seed=seeds[4]))
    return commands


def _cli_command(name, args, out_dir, **expect):
    """A single-run command; ``expect`` holds config entries its dataset must carry."""
    out = out_dir / f"{name}.csv"
    opts = {a: b for a, b in zip(args, args[1:]) if a.startswith("--")}
    expect.update(command=args[0], J=float(opts["--J"]), delta=float(opts["--delta"]))
    checks = ["config re-parses"]
    if "--N" in opts:
        expect["N"] = int(opts["--N"])
    if "--k" in opts:
        expect["k"] = int(opts["--k"])
    if "--t-end" in opts:
        expect["t_end"] = float(opts["--t-end"])
        checks.append("times increase to t_end")
        checks.append("densities on the 1/N grid in [0, 1]" if args[0] == "simulate"
                      else "densities in [0, 1]")
    return Command(args + ["--out", str(out)], out, tuple(checks), expect)


_COMMANDS_OF = {
    "converge": _build_converge,
    "bifurcate": _build_bifurcate,
    "cli_runs": _build_cli_runs,
}
WORKLOADS = tuple(_COMMANDS_OF)


def load_reference() -> dict:
    """J -> (classification, orbit_min_A, orbit_max_A) from the stored diagrams."""
    table = {}
    for path in sorted(REFERENCE_DIR.glob("diagram_*.csv")):
        with open(path, newline="") as fh:
            for row in csv.DictReader(line for line in fh if not line.startswith("#")):
                table[round(float(row["J"]), 9)] = (
                    row["classification"],
                    float(row["orbit_min_A"]) if row["orbit_min_A"] else None,
                    float(row["orbit_max_A"]) if row["orbit_max_A"] else None,
                )
    if not table:
        raise FileNotFoundError(f"no reference diagrams under {REFERENCE_DIR}")
    return table


# --------------------------------------------------------------------------
# Output checks.  Each workload's check returns {check name: passed}.


def check(workload: str, commands: list[Command], codes: list[int], read_dataset) -> list:
    """(name, passed) for every check of one job.

    A command that exits non-zero fails all of its checks, and so does a
    dataset the check cannot parse.
    """
    results = []
    for cmd, code in zip(commands, codes):
        outcome = {}
        if code == 0:
            try:
                outcome = _CHECKS[workload](cmd, read_dataset(str(cmd.out)))
            except Exception:  # a malformed dataset fails its checks
                traceback.print_exc()
        label = cmd.out.stem
        results.append((f"{label}: exit 0", code == 0))
        results.extend((f"{label}: {name}", bool(outcome.get(name))) for name in cmd.checks)
    return results


def _increasing(values) -> bool:
    return all(b > a for a, b in zip(values, values[1:]))


def _check_converge(cmd, dataset):
    config, columns, rows = dataset
    col = {c: i for i, c in enumerate(columns)}
    slope = config.get("slope")
    return {
        "one row per N": [row[col["N"]] for row in rows] == cmd.expect["N"],
        "medians strictly decreasing": _increasing([-row[col["median"]] for row in rows]),
        "slope in window": isinstance(slope, float)
        and SLOPE_WINDOW[0] <= slope <= SLOPE_WINDOW[1],
    }


def expected_class(J: float, delta: float) -> str:
    lam1 = -2.0 * (J + 1.0)
    pair_re = J - 2.0
    pair_im = math.sqrt(3.0) * J * (1.0 - 2.0 * delta)
    if lam1 < -EIGENVALUE_EPS and pair_re < -EIGENVALUE_EPS:
        return "stable-point"
    if lam1 > EIGENVALUE_EPS:
        return "bistable"
    if pair_re > EIGENVALUE_EPS and pair_im != 0.0:
        return "oscillatory"
    return "degenerate"


def _check_bifurcate(cmd, dataset):
    config, columns, rows = dataset
    col = {c: i for i, c in enumerate(columns)}
    start, stop, step = (float(v) for v in config["grid"].split(":"))
    count = int(math.floor((stop - start) / step + 1e-9)) + 1
    Js = [row[col["J"]] for row in rows]
    extrema_ok = True
    amplitudes = []
    for row in rows:
        if row[col["classification"]] != "oscillatory":
            continue
        ref = cmd.expect["reference"].get(round(row[col["J"]], 9))
        lo, hi = row[col["orbit_min_A"]], row[col["orbit_max_A"]]
        extrema_ok = extrema_ok and ref is not None and ref[0] == "oscillatory" and (
            abs(lo - ref[1]) <= EXTREMA_TOL and abs(hi - ref[2]) <= EXTREMA_TOL)
        amplitudes.append(hi - lo)
    return {
        "rows cover the grid": len(Js) == count
        and all(abs(J - (start + i * step)) < 1e-9 for i, J in enumerate(Js)),
        "classification matches closed form": all(
            row[col["classification"]] == expected_class(row[col["J"]], config["delta"])
            for row in rows),
        "orbit extrema match reference": extrema_ok and bool(amplitudes),
        "amplitudes increase above J=2": _increasing(amplitudes),
    }


def _check_cli_runs(cmd, dataset):
    config, columns, rows = dataset
    outcome = {"config re-parses": all(config.get(k) == v for k, v in cmd.expect.items())}
    if "t_end" not in cmd.expect:
        return outcome
    times = [row[0] for row in rows]
    outcome["times increase to t_end"] = (
        bool(times) and times[0] == 0.0 and times[-1] == cmd.expect["t_end"]
        and _increasing(times))
    values = [v for row in rows for v in row[1:]]
    in_box = len(columns) == config["k"] + 1 and all(-1e-9 <= v <= 1 + 1e-9 for v in values)
    N = config["N"]
    outcome["densities in [0, 1]"] = in_box
    outcome["densities on the 1/N grid in [0, 1]"] = in_box and all(
        0.0 <= v <= 1.0 and abs(v * N - round(v * N)) < 1e-6 for v in values)
    return outcome


_CHECKS = {"converge": _check_converge, "bifurcate": _check_bifurcate,
           "cli_runs": _check_cli_runs}
