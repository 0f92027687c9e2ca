"""The names the benchmark reaches into: spanned functions and CLI flags.

bench/tracing.py wraps functions by module and name, and bench/workloads.py
builds the argv of every workload.  A function or flag that disappears from
the package fails here, not only in the benchmark's own self-test.
"""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from tdsim import cli, model
from tdsim.trajectory import Trajectory

BENCH_DIR = Path(__file__).resolve().parent.parent / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


tracing = load_bench_module("tracing")
workloads = load_bench_module("workloads")


@pytest.mark.parametrize("module, name", [(m, n) for m, names in tracing.SPANNED.items()
                                          for n in names]
                         + [("ode", n) for n in tracing.STEP_PATHS])
def test_traced_function_exists(module, name):
    assert callable(getattr(importlib.import_module(f"tdsim.{module}"), name))


def test_counted_and_spanned_methods_exist():
    assert callable(model.field_closure)
    assert callable(Trajectory.hermite_at)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_argv_parses(workload, tmp_path):
    parser = cli.build_parser()
    for command in workloads.build(workload, 1, "tiny", tmp_path):
        args = parser.parse_args(command.argv)
        assert args.command == command.argv[0]
