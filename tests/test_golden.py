"""Byte-for-byte comparison of CLI datasets against committed golden files.

Every case runs one argv through ``tdsim.cli.main`` in-process and compares
the written dataset with ``tests/golden/<name>``.  The goldens pin the
output contract: for the same configuration and seed the CLI writes the
same bytes, so a refactor that changes any of them changes behaviour.

A deliberate contract change regenerates the files from the repository
root and records why in CHANGES.md:

    PYTHONPATH=src python -c "
    from tests.test_golden import CASES, GOLDEN
    from tdsim.cli import main
    for name, argv in CASES.items():
        main(argv + ['--out', str(GOLDEN / name)])
    "
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tdsim
from tdsim.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "simulate_k3_thin1.csv": [
        "simulate", "--J", "2.0", "--delta", "0.3", "--N", "50", "--t-end", "1",
        "--seed", "7", "--x0", "0.8,0.2,0.5", "--thinning", "1",
    ],
    "simulate_k3_N2000.json": [
        "simulate", "--J", "1.0", "--delta", "0.3", "--kappa", "0.5", "--N", "2000",
        "--t-end", "0.5", "--seed", "11", "--format", "json",
    ],
    "simulate_k5.csv": [
        "simulate", "--k", "5", "--J", "0.8", "--delta", "0.6", "--N", "30",
        "--t-end", "1", "--seed", "3", "--x0", "0.2,0.4,0.5,0.6,0.8",
    ],
    # The next two cross the second RNG block refill (event 256 + 8192).
    "simulate_k3_N5000.csv": [
        "simulate", "--J", "2.5", "--delta", "0", "--N", "5000", "--t-end", "1",
        "--seed", "13",
    ],
    "simulate_k5_N2000.csv": [
        "simulate", "--k", "5", "--J", "0.8", "--delta", "0.6", "--N", "2000",
        "--t-end", "1", "--seed", "3", "--x0", "0.2,0.4,0.5,0.6,0.8",
    ],
    "simulate_k2.csv": [
        "simulate", "--k", "2", "--J", "-1.5", "--delta", "0.25", "--kappa", "0.3,-0.2",
        "--N", "40", "--t-end", "1", "--seed", "5", "--x0", "0.3,0.7",
    ],
    "simulate_micro_k3.csv": [
        "simulate", "--level", "micro", "--J", "2.0", "--delta", "1.0", "--N", "20",
        "--t-end", "0.5", "--seed", "5",
    ],
    "simulate_micro_k4.csv": [
        "simulate", "--level", "micro", "--k", "4", "--J", "1.3", "--delta", "0.2",
        "--N", "15", "--t-end", "0.5", "--seed", "9", "--x0", "0.2,0.4,0.6,0.8",
    ],
    "ode_rk4.csv": [
        "ode", "--method", "rk4", "--step", "0.02", "--J", "2.5", "--delta", "0",
        "--t-end", "2", "--x0", "0.55,0.5,0.45",
    ],
    "ode_rk45_sampled.csv": [
        "ode", "--J", "1.0", "--delta", "0.3", "--t-end", "5", "--x0", "0.8,0.2,0.5",
        "--sample-dt", "0.1",
    ],
    "ode_k4.csv": [
        "ode", "--k", "4", "--J", "1.2", "--delta", "0.4", "--t-end", "2",
        "--x0", "0.9,0.1,0.6,0.3",
    ],
    "bifurcate_delta0.csv": [
        "bifurcate", "--delta", "0", "--grid=-1.5:2.3:0.2",
    ],
    "bifurcate_delta_half.csv": [
        "bifurcate", "--delta", "0.5", "--grid=-1.5:2.5:1",
    ],
    "bifurcate_delta03.json": [
        "bifurcate", "--delta", "0.3", "--grid=-2:2.5:1.5", "--format", "json",
    ],
    # Close above the Hopf point, where the cycle attracts slowly.
    "bifurcate_near_hopf.csv": [
        "bifurcate", "--delta", "0.3", "--grid", "2.002,2.01,2.05",
    ],
    "converge.csv": [
        "converge", "--J", "1", "--delta", "0.3", "--kappa", "0.5", "--N", "50",
        "--N", "500", "--replicas", "4", "--t-end", "1", "--seed", "8",
        "--x0", "0.8,0.2,0.5",
    ],
    # Windows need N >= 400 (|J| + 1); at N = 2000 most events run in them.
    "converge_windowed.csv": [
        "converge", "--J", "1", "--delta", "0.3", "--kappa", "0.5", "--x0", "0.8,0.2,0.5",
        "--t-end", "1", "--N", "200", "--N", "2000", "--replicas", "3", "--seed", "21",
    ],
    "validate_N2.csv": [
        "validate", "--J", "1.2", "--delta", "0.3", "--N", "2", "--seed", "2",
    ],
    "validate_N4.csv": [
        "validate", "--J", "-1.4", "--delta", "0.7", "--N", "4", "--seed", "3",
    ],
    "validate_N20.csv": [
        "validate", "--J", "2.5", "--delta", "0.1", "--N", "20", "--seed", "4",
    ],
    "validate_k4.csv": [
        "validate", "--k", "4", "--N", "2", "--J", "1.2", "--delta", "0.3", "--seed", "3",
    ],
}


def test_every_golden_file_has_a_case():
    # An orphaned golden would go unchecked wherever only CASES is compared.
    assert set(CASES) == {path.name for path in GOLDEN.iterdir()}


@pytest.mark.parametrize("name", sorted(CASES))
def test_dataset_matches_golden(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(CASES[name] + ["--out", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def test_python_m_tdsim_writes_the_golden(tmp_path):
    out = tmp_path / "converge_windowed.csv"
    env = dict(os.environ, PYTHONPATH=str(Path(tdsim.__file__).resolve().parents[1]))
    argv = CASES["converge_windowed.csv"] + ["--out", str(out)]
    subprocess.run([sys.executable, "-m", "tdsim"] + argv, env=env, check=True, timeout=120)
    assert out.read_bytes() == (GOLDEN / "converge_windowed.csv").read_bytes()
