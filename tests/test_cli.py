"""Command-line interface: outputs, determinism, exit codes, round trips."""
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import tdsim
from tdsim import cli, jump, micro, ode
from tdsim.analysis import REFERENCE_SAMPLE_DT
from tdsim.cli import (
    MAX_GRID_POINTS,
    MAX_ODE_NODES,
    WRITE_BLOCK_ROWS,
    _parse_grid,
    main,
    read_dataset,
    write_dataset,
)
from tdsim.model import DensityState, LoopSpec


def run(args):
    return main(args)


class TestSimulate:
    def test_zero_horizon_single_row(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run(
            ["simulate", "--J", "1.0", "--t-end", "0", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        config, columns, rows = read_dataset(str(out))
        assert columns == ["t", "x_A", "x_B", "x_C"]
        assert len(rows) == 1
        assert rows[0][0] == 0.0

    @pytest.mark.parametrize("N, x0, t_end", [("30000000", "0.535,0.5,0.5", "1e-9"),
                                              ("1000000000", "0.067,0.5,0.5", "1e-12")])
    def test_exact_start_at_large_N(self, tmp_path, N, x0, t_end):
        # c / N * N misses c by more than 1e-9 at these counts.
        out = tmp_path / "run.csv"
        assert run(["simulate", "--N", N, "--x0", x0, "--t-end", t_end, "--seed", "1",
                    "--out", str(out)]) == 0
        _, _, rows = read_dataset(str(out))
        assert rows[0][1:] == [float(v) for v in x0.split(",")]

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--J", "2.0", "--delta", "1.0", "--N", "200",
                "--t-end", "2.0", "--seed", "99"]
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_micro_level(self, tmp_path):
        out = tmp_path / "micro.csv"
        code = run(
            ["simulate", "--level", "micro", "--J", "2.0", "--delta", "1.0",
             "--N", "30", "--t-end", "1.0", "--seed", "5", "--out", str(out)]
        )
        assert code == 0
        config, columns, rows = read_dataset(str(out))
        assert config["level"] == "micro"
        counts = np.array([r[1:] for r in rows]) * 30
        assert np.abs(counts - np.round(counts)).max() < 1e-9

    @pytest.mark.parametrize("model", [
        ["--J", "2.0", "--delta", "1.0", "--N", "20", "--seed", "5"],
        ["--k", "4", "--J", "1.3", "--delta", "0.2", "--N", "15", "--seed", "9",
         "--x0", "0.2,0.4,0.6,0.8"],
    ])
    def test_micro_level_is_density_level_every_event(self, tmp_path, model):
        # The projected spin chain is the density process, sampled by the same
        # loop from the same stream, so only the level line differs.
        micro, density = tmp_path / "micro.csv", tmp_path / "density.csv"
        base = ["simulate", "--t-end", "0.5"] + model
        assert run(base + ["--level", "micro", "--out", str(micro)]) == 0
        assert run(base + ["--thinning", "1", "--out", str(density)]) == 0
        lines = micro.read_text().splitlines()
        assert "# level = micro" in lines
        assert [ln.replace("micro", "density") for ln in lines] == (
            density.read_text().splitlines()
        )
        assert len(lines) > 20

    # J = 0.5 runs windows from N = 400 (|J| + 1) = 600 on, after the first
    # 256 events; at N = 60 only the scalar loop runs.
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("level, thinning", [
        ("density", 1), ("density", 7), ("density", None), ("micro", None)])
    @pytest.mark.parametrize("N, t_end", [(60, 2.0), (2000, 0.15)])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_streamed_rows_write_the_stored_path(self, k, N, t_end, level, thinning, fmt,
                                                 tmp_path, monkeypatch):
        """The rows stream in the sampler's tables, regrouped into 7-row
        blocks, and give the bytes of the stored path written as one array."""
        seed = 10 * k + N
        x0 = ",".join(repr(round(0.2 + 0.6 * i / (k - 1), 2)) for i in range(k))
        spec = LoopSpec.with_half_j(J=0.5, delta=0.3, N=N, k=k)
        counts = [int(round(float(v) * N)) for v in x0.split(",")]
        if level == "micro":
            sigma0 = micro.SpinConfiguration.from_counts(spec, counts)
            traj = micro.micro_simulate(spec, sigma0, t_end, seed)
        else:
            state0 = DensityState.from_counts(counts, N)
            traj = jump.ssa_simulate(spec, state0, t_end, seed, thinning=thinning)
        assert len(traj) > 3 * 7
        assert (traj.meta["window_events"] > 0) == (N == 2000)
        config = {"command": "simulate", "J": 0.5, "delta": 0.3,
                  "kappa": ",".join(["0.25"] * k), "N": N, "k": k, "level": level,
                  "t_end": t_end, "seed": seed, "x0": x0}
        stored = tmp_path / f"stored.{fmt}"
        write_dataset(str(stored), config, ["t", "x_A", "x_B", "x_C", "x_D", "x_E"][:k + 1],
                      np.column_stack((traj.times, traj.states)), fmt)

        monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 7)
        streamed = tmp_path / f"streamed.{fmt}"
        argv = ["simulate", "--k", str(k), "--J", "0.5", "--delta", "0.3", "--N", str(N),
                "--t-end", str(t_end), "--seed", str(seed), "--x0", x0, "--level", level,
                "--format", fmt, "--out", str(streamed)]
        if thinning is not None:
            argv += ["--thinning", str(thinning)]
        assert run(argv) == 0
        assert streamed.read_bytes() == stored.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_long_run_holds_one_block_not_the_path(self, fmt, tmp_path):
        # The bench's longest recorded run: 111 752 rows, 4.1 MB of CSV.  When
        # the whole path was held before writing, the peak was 11.7 MiB
        # (CSV) and 11.9 MiB (JSON).
        out = tmp_path / f"long.{fmt}"
        argv = ["simulate", "--J", "2.5", "--delta", "0", "--N", "1000", "--t-end", "25",
                "--thinning", "1", "--seed", "1", "--format", fmt, "--out", str(out)]
        tracemalloc.start()
        try:
            assert run(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out.stat().st_size > 4_000_000
        assert peak < 6 << 20

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sampler_error_leaves_no_file(self, fmt, tmp_path, monkeypatch, capsys):
        real = jump._chunks

        def failing(*args):
            chunks = real(*args)
            yield next(chunks)
            yield next(chunks)
            raise RuntimeError("sampler failed")

        monkeypatch.setattr(jump, "_chunks", failing)
        monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 7)  # blocks go out before the error
        out = tmp_path / f"run.{fmt}"
        assert run(["simulate", "--N", "100", "--t-end", "5", "--thinning", "1",
                    "--seed", "1", "--format", fmt, "--out", str(out)]) == 1
        assert "sampler failed" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def fail_after_first_block(monkeypatch):
        real = cli._cell_blocks

        def failing(rows, spell):
            blocks = real(rows, spell)
            yield next(blocks)
            raise OSError("no space left")

        monkeypatch.setattr(cli, "_cell_blocks", failing)
        monkeypatch.setattr(cli, "WRITE_BLOCK_ROWS", 7)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_error_leaves_no_file(self, fmt, tmp_path, monkeypatch):
        self.fail_after_first_block(monkeypatch)
        out = tmp_path / f"run.{fmt}"
        assert run(["simulate", "--t-end", "1", "--seed", "1", "--format", fmt,
                    "--out", str(out)]) == 1
        assert not out.exists()

    def test_writer_error_removes_no_device(self, monkeypatch):
        self.fail_after_first_block(monkeypatch)
        removed = []
        monkeypatch.setattr(os, "remove", removed.append)
        assert run(["simulate", "--t-end", "1", "--seed", "1", "--out", os.devnull]) == 1
        assert removed == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_rerun_replaces_the_file_instead_of_truncating_it(self, fmt, tmp_path):
        # A hard link shares the old inode: it keeps the old bytes and mode
        # only if the rerun wrote a new file at --out.
        out, old, fresh = (tmp_path / f"{name}.{fmt}" for name in ("out", "old", "fresh"))
        argv = ["simulate", "--t-end", "1", "--format", fmt, "--seed"]
        assert run(argv + ["1", "--out", str(out)]) == 0
        first = out.read_bytes()
        os.link(out, old)
        old.chmod(0o604)
        assert run(argv + ["2", "--out", str(out)]) == 0
        assert run(argv + ["2", "--out", str(fresh)]) == 0
        assert old.read_bytes() == first
        assert out.read_bytes() == fresh.read_bytes() != first
        assert old.stat().st_mode & 0o777 == 0o604
        assert out.stat().st_mode == fresh.stat().st_mode

    def test_symlinked_out_is_written_through(self, tmp_path):
        target, link, fresh = (tmp_path / f"{name}.csv" for name in ("target", "link", "fresh"))
        target.write_text("old dataset\n")
        link.symlink_to(target)
        argv = ["simulate", "--t-end", "1", "--seed", "1", "--out"]
        assert run(argv + [str(link)]) == 0
        assert run(argv + [str(fresh)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == fresh.read_bytes()

    def test_config_error_keeps_an_existing_dataset(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run(["simulate", "--t-end", "1", "--seed", "1", "--out", str(out)]) == 0
        before = out.read_bytes()
        assert run(["simulate", "--delta", "2.0", "--seed", "1", "--out", str(out)]) == 2
        assert out.read_bytes() == before

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_writer_error_on_a_rerun_leaves_no_file(self, fmt, tmp_path, monkeypatch):
        out = tmp_path / f"run.{fmt}"
        argv = ["simulate", "--t-end", "1", "--seed", "1", "--format", fmt, "--out", str(out)]
        assert run(argv) == 0
        self.fail_after_first_block(monkeypatch)
        assert run(argv) == 1
        assert not out.exists()

    def test_largest_rates_below_overflow_still_sample(self, tmp_path):
        # At N = 1000, 6 N e^698 is a double.  Type A's up-rate (N - n_A)
        # e^698 outweighs every other, so each event raises x_A.
        out = tmp_path / "run.csv"
        argv = ["simulate", "--J", "-349", "--delta", "0.5", "--kappa", "0", "--N", "1000",
                "--x0", "0.5,1,1", "--t-end", "1e-300", "--seed", "1", "--thinning", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(argv + ["--out", str(out)]) == 0
        states = np.array(read_dataset(str(out))[2], dtype=float)[:, 1:]
        # The t = 0 row, 500 events and the t_end row.
        assert len(states) == 502
        assert np.all(np.diff(states[:-1, 0]) > 0) and states[-1, 0] == 1.0
        assert np.all(states[:, 1:] == 1.0)

    def test_config_error_no_file(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run(
            ["simulate", "--J", "1.0", "--delta", "2.0", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_seed_recorded(self, tmp_path):
        out = tmp_path / "run.csv"
        run(["simulate", "--t-end", "0.5", "--seed", "42", "--out", str(out)])
        config, _, _ = read_dataset(str(out))
        assert config["seed"] == 42

    def test_oscillation_at_strong_inhibition(self, tmp_path):
        out = tmp_path / "osc.csv"
        code = run(
            ["simulate", "--J", "2.5", "--delta", "0", "--N", "10000",
             "--t-end", "50", "--seed", "11", "--x0", "0.55,0.5,0.45",
             "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_dataset(str(out))
        data = np.array(rows)
        late = data[data[:, 0] > 20.0]
        amplitude = late[:, 1].max() - late[:, 1].min()
        assert amplitude > 0.1


class TestOde:
    def test_fixed_point_constant_columns(self, tmp_path):
        out = tmp_path / "ode.csv"
        code = run(
            ["ode", "--J", "1.7", "--delta", "0.4", "--t-end", "5",
             "--x0", "0.5,0.5,0.5", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_dataset(str(out))
        values = np.array([r[1:] for r in rows])
        # kappa = J/2 rounds to ~1e-16 field residue; constancy holds to
        # integrator tolerance.
        assert np.abs(values - 0.5).max() < 1e-8

    def test_zero_coupling_matches_closed_form(self, tmp_path):
        out = tmp_path / "ode.csv"
        code = run(
            ["ode", "--J", "0", "--kappa", "0", "--t-end", "2",
             "--x0", "0.9,0.1,0.5", "--sample-dt", "0.1", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_dataset(str(out))
        data = np.array(rows)
        exact = 0.5 + (np.array([0.9, 0.1, 0.5]) - 0.5) * np.exp(-2 * data[:, :1])
        assert np.abs(data[:, 1:] - exact).max() < 1e-6

    @pytest.mark.parametrize("step, t_end", [("0.1", "1"), ("0.3", "0.9")])
    def test_rk4_last_row_at_t_end(self, tmp_path, step, t_end):
        out = tmp_path / "ode.csv"
        assert run(["ode", "--method", "rk4", "--step", step, "--t-end", t_end,
                    "--out", str(out)]) == 0
        config, _, rows = read_dataset(str(out))
        assert rows[-1][0] == config["t_end"] == float(t_end)

    def test_malformed_x0_exits_2(self, tmp_path):
        out = tmp_path / "never.csv"
        assert run(["ode", "--x0", "0.5,0.5", "--out", str(out)]) == 2
        assert not out.exists()


class TestDefaultX0:
    @pytest.mark.parametrize("argv, k", [
        (["simulate", "--k", "5", "--N", "40", "--t-end", "0.5", "--seed", "3"], 5),
        (["simulate", "--N", "40", "--t-end", "0.5", "--seed", "3"], 3),
        (["ode", "--k", "4", "--J", "1.2", "--t-end", "1"], 4),
        (["converge", "--k", "2", "--N", "20", "--replicas", "2", "--t-end", "0.5",
          "--seed", "1"], 2),
    ])
    def test_default_is_one_half_per_type(self, tmp_path, argv, k):
        # Without --x0 every type starts at 1/2, with the bytes, header line
        # included, of the explicit flag.
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        assert run(argv + ["--out", str(implicit)]) == 0
        assert run(argv + ["--x0", ",".join(["0.5"] * k), "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()


class TestBifurcate:
    def test_single_point_grid(self, tmp_path):
        out = tmp_path / "bif.csv"
        assert run(["bifurcate", "--grid", "0", "--out", str(out)]) == 0
        _, _, rows = read_dataset(str(out))
        assert len(rows) == 1
        assert rows[0][2] == "stable-point"

    def test_balanced_split_degenerate(self, tmp_path):
        out = tmp_path / "bif.csv"
        assert run(
            ["bifurcate", "--grid", "2.5", "--delta", "0.5", "--out", str(out)]
        ) == 0
        _, _, rows = read_dataset(str(out))
        assert rows[0][2] == "degenerate"

    def test_transitions_on_coarse_grid(self, tmp_path):
        out = tmp_path / "bif.json"
        # negative grid start needs the --grid= form (argparse flag rules)
        assert run(
            ["bifurcate", "--grid=-2:3:0.25", "--delta", "0",
             "--format", "json", "--out", str(out)]
        ) == 0
        config, columns, rows = read_dataset(str(out))
        tags = {row[0]: row[2] for row in rows}
        assert tags[-2.0] == "bistable"
        assert tags[0.0] == "stable-point"
        assert tags[2.5] == "oscillatory"
        amp_col = columns.index("orbit_max_A")
        for row in rows:
            if row[2] == "oscillatory":
                assert row[amp_col] is not None


class TestConverge:
    def test_single_n_row(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run(
            ["converge", "--J", "1", "--delta", "0.3", "--kappa", "0.5",
             "--N", "50", "--replicas", "10", "--t-end", "1",
             "--seed", "4", "--x0", "0.8,0.2,0.5", "--out", str(out)]
        )
        assert code == 0
        _, _, rows = read_dataset(str(out))
        assert len(rows) == 1
        assert rows[0][0] == 50

    def test_exact_start_at_large_N(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert run(["converge", "--N", "1000", "--N", "30000000", "--x0", "0.535,0.5,0.5",
                    "--t-end", "1e-6", "--replicas", "2", "--seed", "1",
                    "--out", str(out)]) == 0
        _, _, rows = read_dataset(str(out))
        assert [row[0] for row in rows] == [1000, 30_000_000]

    def test_zero_replicas_rejected(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run(
            ["converge", "--N", "50", "--replicas", "0", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_medians_decrease(self, tmp_path):
        out = tmp_path / "conv.csv"
        code = run(
            ["converge", "--J", "1", "--delta", "0.3", "--kappa", "0.5",
             "--N", "50", "--N", "500", "--replicas", "20",
             "--t-end", "2", "--seed", "8", "--x0", "0.8,0.2,0.5",
             "--out", str(out)]
        )
        assert code == 0
        config, _, rows = read_dataset(str(out))
        assert rows[1][1] < rows[0][1]
        assert config["slope"] < 0

    def test_zero_medians_give_no_slope(self, tmp_path):
        # At t = 0 every sup-distance is 0, so the log-log fit is undefined.
        args = ["converge", "--t-end", "0", "--N", "10", "--N", "100",
                "--replicas", "2", "--seed", "1"]
        csv, js = tmp_path / "conv.csv", tmp_path / "conv.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(args + ["--out", str(csv)]) == 0
            assert run(args + ["--format", "json", "--out", str(js)]) == 0
        config, _, rows = read_dataset(str(csv))
        assert [row[1] for row in rows] == [0.0, 0.0]
        assert "slope" not in config

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        payload = json.loads(js.read_text(), parse_constant=reject)
        assert "slope" not in payload["config"]

    def test_ignores_tdsim_threads(self, tmp_path, monkeypatch):
        args = ["converge", "--N", "50", "--replicas", "4", "--t-end", "1", "--seed", "4"]
        plain = tmp_path / "plain.csv"
        with_env = tmp_path / "with_env.csv"
        assert run(args + ["--out", str(plain)]) == 0
        monkeypatch.setenv("TDSIM_THREADS", "two")
        assert run(args + ["--out", str(with_env)]) == 0
        assert with_env.read_bytes() == plain.read_bytes()


class TestValidate:
    def test_default_battery_passes(self, tmp_path, capsys):
        out = tmp_path / "validate.csv"
        code = run(["validate", "--J", "1.2", "--delta", "0.3", "--seed", "2",
                    "--out", str(out)])
        assert code == 0
        _, _, rows = read_dataset(str(out))
        statuses = {row[0]: row[3] for row in rows}
        assert statuses["micro-macro generator equivalence"] == "pass"
        assert statuses["reversibility residual at J=0"] == "pass"
        assert statuses["jacobian vs finite differences"] == "pass"
        assert statuses["rotation orthonormality"] == "pass"
        assert statuses["rotated linearization closed form"] == "pass"
        assert statuses["radius conservation at J=2"] == "pass"

    def test_micro_checks_skipped_above_guard(self, tmp_path):
        out = tmp_path / "validate.csv"
        code = run(["validate", "--N", "10", "--seed", "2", "--out", str(out)])
        assert code == 0
        _, _, rows = read_dataset(str(out))
        statuses = {row[0]: row[3] for row in rows}
        assert "skipped" in statuses["micro-macro generator equivalence"]

    def test_generator_check_runs_for_k_other_than_3(self, tmp_path):
        # k*N = 8 is within both guards, so the whole battery runs at k = 4.
        out = tmp_path / "validate.csv"
        code = run(["validate", "--k", "4", "--N", "2", "--seed", "2", "--out", str(out)])
        assert code == 0
        _, _, rows = read_dataset(str(out))
        by_name = {row[0]: row for row in rows}
        _, residual, threshold, status = by_name["micro-macro generator equivalence"]
        assert status == "pass"
        assert threshold == 1e-12 and residual < 1e-12
        _, residual, _, status = by_name["reversibility residual at config"]
        assert status == f"info ({residual:.3e})" and residual > 0
        assert not [row[0] for row in rows if row[3].startswith("skipped")]

    @pytest.mark.parametrize("args", [["--k", "10"], ["--N", "5"]])
    def test_generator_check_skipped_above_dense_limit(self, tmp_path, args):
        # k*N within the enumeration guard but past the dense generator's
        # bound: the check is skipped instead of allocating 4^(kN) floats.
        out = tmp_path / "validate.csv"
        code = run(["validate", *args, "--seed", "2", "--out", str(out)])
        assert code == 0
        _, _, rows = read_dataset(str(out))
        statuses = {row[0]: row[3] for row in rows}
        assert statuses["micro-macro generator equivalence"] == "skipped (k*N > 12)"

    def test_config_residual_skipped_above_cell_guard(self, tmp_path):
        # k*N = 20 is within the k*N guard, but k*2^(kN) cells are not.
        out = tmp_path / "validate.csv"
        assert run(["validate", "--k", "20", "--N", "1", "--seed", "2", "--out", str(out)]) == 0
        _, _, rows = read_dataset(str(out))
        statuses = {row[0]: row[3] for row in rows}
        assert statuses["reversibility residual at config"] == "skipped (k*2^(kN) > 2^21)"
        assert statuses["micro-macro generator equivalence"] == "skipped (k*N > 12)"

    def test_decoupled_config_residuals_tiny(self, tmp_path):
        out = tmp_path / "validate.csv"
        code = run(["validate", "--J", "0", "--kappa", "0", "--seed", "3",
                    "--out", str(out)])
        assert code == 0
        _, _, rows = read_dataset(str(out))
        by_name = {row[0]: row for row in rows}
        for name in (
            "micro-macro generator equivalence",
            "reversibility residual at J=0",
            "reversibility residual at config",
        ):
            assert by_name[name][1] < 1e-10
        # central differences of the decoupled linear field bottom out at
        # their rounding floor eps/h ~ 1e-10
        assert by_name["jacobian vs finite differences"][1] < 1e-9


class TestConfigErrors:
    @pytest.mark.parametrize(
        "argv, env, field",
        [
            (["simulate", "--seed", "1", "--thinning", "0"], None, "thinning"),
            (["simulate", "--seed", "1", "--t-end", "nan"], None, "t-end"),
            (["ode", "--t-end", "-1"], None, "t-end"),
            (["converge", "--seed", "1", "--N", "50", "--t-end", "-1"], None, "t-end"),
            (["converge", "--seed", "1", "--N", "50", "--t-end", "nan"], None, "t-end"),
            (["converge", "--seed", "1", "--N", "50", "--N", "0"], None, "N"),
            # The environment is not read: the bad N is named.
            (["converge", "--seed", "1", "--N", "0", "--N", "50"], "two", "N"),
            (["bifurcate", "--grid", "0:1e9:1e-9"], None, "grid"),
            (["bifurcate", "--grid", "0:1e308:1e-308"], None, "grid"),
            (["ode", "--method", "rk4", "--step", "nan"], None, "step"),
            (["ode", "--rtol", "inf"], None, "rtol"),
            (["ode", "--atol", "nan"], None, "atol"),
            (["ode", "--sample-dt", "nan"], None, "sample_dt"),
            (["ode", "--t-end", "1", "--sample-dt", "1e-9"], None, "sample-dt"),
            (["ode", "--method", "rk4", "--t-end", "1", "--step", "1e-12"], None, "step"),
            (["simulate", "--seed", "-3"], None, "seed"),
            (["converge", "--seed", "-3", "--N", "50"], None, "seed"),
            (["validate", "--seed", "-3"], None, "seed"),
            # Rate exponents beyond double range, checked before any point runs.
            (["bifurcate", "--grid", "400"], None, "grid"),
            (["bifurcate", "--grid=-400"], None, "grid"),
            (["bifurcate", "--grid", "0,1,2,400"], None, "grid"),
            (["converge", "--seed", "1", "--N", "50", "--t-end", "1e9"], None, "t-end"),
            (["simulate", "--level", "micro", "--N", "20", "--t-end", "0.2", "--thinning", "5"],
             None, "thinning"),
            (["converge", "--seed", "1", "--N", "100", "--N", "100"], None, "N"),
            (["simulate", "--seed", "1", "--kappa", "0.1,0.2"], None, "kappa"),
            # A total jump rate up to 6 N e^698 overflows a double at N = 1e6,
            # checked for every N before any sample is drawn.
            (["simulate", "--J", "-349", "--delta", "0.5", "--kappa", "0", "--N", "1000000",
              "--x0", "0.5,1,1", "--t-end", "1e-300", "--seed", "1"], None, "N"),
            (["converge", "--J", "-349", "--delta", "0.5", "--kappa", "0", "--N", "1000",
              "--N", "1000000", "--t-end", "1e-3", "--seed", "1"], None, "N"),
            # Counts held as doubles are exact only up to 2^53.
            (["simulate", "--seed", "1", "--N", str(2**53 + 1), "--t-end", "2e-14"], None, "N"),
            (["converge", "--seed", "1", "--N", "50", "--N", str(2**53 + 1), "--t-end", "1"],
             None, "N"),
        ],
    )
    def test_exits_2_naming_the_field(self, argv, env, field, tmp_path, monkeypatch, capsys):
        if env is not None:
            monkeypatch.setenv("TDSIM_THREADS", env)
        out = tmp_path / "never.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert f"configuration error: {field}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--t-end", "1", "--sample-dt", "1e-9"],
        ["--t-end", "1e300", "--sample-dt", "1e-300"],
        ["--method", "rk4", "--t-end", "1", "--step", "1e-12"],
        ["--method", "rk4", "--t-end", "1e6", "--step", "0.5"],
    ])
    def test_oversized_ode_rejected_before_integrating(self, argv, tmp_path, monkeypatch,
                                                       capsys):
        def never(*args, **kwargs):
            raise AssertionError("integrate reached")

        monkeypatch.setattr(ode, "integrate", never)
        tracemalloc.start()
        try:
            assert run(["ode"] + argv + ["--out", str(tmp_path / "never.csv")]) == 2
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f"above {MAX_ODE_NODES} nodes" in capsys.readouterr().err
        assert peak < 1 << 20

    @pytest.mark.parametrize("argv", [
        ["--t-end", "1", "--sample-dt", str(1 / MAX_ODE_NODES)],
        ["--method", "rk4", "--t-end", str(MAX_ODE_NODES), "--step", "1"],
        ["--t-end", "1", "--step", "1e-12"],  # rk45 ignores --step
    ])
    def test_ode_at_the_node_limit_is_accepted(self, argv, tmp_path, monkeypatch):
        calls = []

        def reached(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("stop before integrating")

        monkeypatch.setattr(ode, "integrate", reached)
        assert run(["ode"] + argv + ["--out", str(tmp_path / "never.csv")]) == 1
        assert len(calls) == 1

    @pytest.mark.parametrize("t_end, code", [
        (MAX_ODE_NODES * REFERENCE_SAMPLE_DT, 1),  # reaches the reference integration
        (1.001 * MAX_ODE_NODES * REFERENCE_SAMPLE_DT, 2),
        (1e300, 2),
    ])
    def test_converge_reference_nodes_checked_before_integrating(self, t_end, code, tmp_path,
                                                                 monkeypatch, capsys):
        calls = []

        def reached(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("stop before integrating")

        monkeypatch.setattr(ode, "integrate", reached)
        argv = ["converge", "--seed", "1", "--N", "50", "--t-end", repr(t_end)]
        assert run(argv + ["--out", str(tmp_path / "never.csv")]) == code
        assert len(calls) == (code == 1)
        if code == 2:
            assert f"t-end: t_end / {REFERENCE_SAMPLE_DT!r}" in capsys.readouterr().err

    def test_grid_at_the_point_limit_is_accepted(self):
        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS


def test_import_loads_no_process_pool():
    src = Path(tdsim.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    code = ("import sys, tdsim.cli; "
            "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


class TestRoundTrip:
    def test_csv_round_trip(self, tmp_path):
        out = tmp_path / "run.csv"
        run(["simulate", "--J", "1.25", "--delta", "0.3", "--N", "40",
             "--t-end", "1.0", "--seed", "31", "--out", str(out)])
        config, columns, rows = read_dataset(str(out))
        assert config["J"] == 1.25
        assert config["delta"] == 0.3
        assert config["N"] == 40
        assert config["seed"] == 31
        # floats survive the shortest-repr round trip exactly
        data = np.array(rows)
        assert np.all(np.abs(data[:, 1:] * 40 - np.round(data[:, 1:] * 40)) < 1e-9)

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "run.json"
        run(["simulate", "--J", "1.25", "--N", "40", "--t-end", "1.0",
             "--seed", "31", "--format", "json", "--out", str(out)])
        config, columns, rows = read_dataset(str(out))
        payload = json.loads(out.read_text())
        assert payload["config"] == config
        assert payload["columns"] == columns
        assert payload["rows"] == rows

    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as info:
            run(["frobnicate"])
        assert info.value.code == 2


class TestWriteDataset:
    """A float array and the same rows as Python floats give the same bytes."""

    @staticmethod
    def table():
        special = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                   0.1 + 0.2, 1e16, 0.5, 0.5, -1e-300, 2.0 / 3.0]
        rows = 3 * WRITE_BLOCK_ROWS + 77  # crosses three block boundaries
        cols = [np.resize(np.array(special), rows),
                np.resize(np.array(special[::-1]), rows),
                np.arange(rows) / 7.0,
                np.where(np.arange(rows) % 2 == 0, -0.0, 0.0)]
        return np.column_stack(cols)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_array_and_float_rows_write_the_same_bytes(self, fmt, tmp_path):
        table = self.table()
        rows = [[float(v) for v in row] for row in table]
        # Uneven tables: inside a block, straddling one, empty, wider than one.
        sizes = [1, 300, WRITE_BLOCK_ROWS - 1, 0, WRITE_BLOCK_ROWS + 1]
        pieces = np.split(table, np.cumsum(sizes))
        assert [len(p) for p in pieces] == sizes + [len(table) - sum(sizes)]
        config = {"command": "simulate", "J": 1.0, "seed": 3}
        columns = ["t", "x_A", "x_B", "x_C"]
        from_array = tmp_path / f"array.{fmt}"
        from_rows = tmp_path / f"rows.{fmt}"
        from_pieces = tmp_path / f"pieces.{fmt}"
        write_dataset(str(from_array), config, columns, table, fmt)
        write_dataset(str(from_rows), config, columns, rows, fmt)
        write_dataset(str(from_pieces), config, columns, iter(pieces), fmt)
        assert from_array.read_bytes() == from_rows.read_bytes()
        assert from_pieces.read_bytes() == from_rows.read_bytes()
        if fmt == "csv":
            lines = from_array.read_text().splitlines()
            assert len(lines) == 5 + len(table)
            assert lines[5:8] == ["-0.0,0.6666666666666666,0.0,-0.0",
                                  "0.0,-1e-300,0.14285714285714285,0.0",
                                  "nan,0.5,0.2857142857142857,-0.0"]

    @pytest.mark.parametrize("rows", [
        None, [], [[3, "check\nname", None, 0.5], [1e-300, "pass", -0.0, float("nan")],
                   [True, 'caf\u00e9 "q"', 2**64 + 1, None]],
        np.empty((0, 4)), np.array([[5e-324, -0.0, float("inf"), float("-inf")]]),
    ])
    def test_json_is_one_dumps_of_the_payload(self, rows, tmp_path):
        """``None`` stands for :meth:`table`, which crosses a block boundary."""
        table = self.table() if rows is None else rows
        rows = table.tolist() if isinstance(table, np.ndarray) else rows
        config = {"command": "converge", "seed": 3}
        out = tmp_path / "out.json"
        write_dataset(str(out), config, ["a", "b", "c", "d"], table, "json",
                      footer={"slope": -0.5})
        payload = {"tdsim": tdsim.__version__, "config": dict(config, slope=-0.5),
                   "columns": ["a", "b", "c", "d"], "rows": rows}
        assert out.read_text() == json.dumps(payload, indent=1) + "\n"

    def test_unknown_format_leaves_an_existing_file(self, tmp_path):
        # The format is checked before the old file is removed.
        out = tmp_path / "out.csv"
        out.write_bytes(b"old dataset\n")
        with pytest.raises(cli.ConfigError, match="format"):
            write_dataset(str(out), {"command": "simulate"}, ["t"], [[0.0]], "xml")
        assert out.read_bytes() == b"old dataset\n"

    @staticmethod
    def long_path():
        rng = np.random.default_rng(5)
        return np.column_stack((np.cumsum(rng.exponential(1e-4, 110_000)),
                                rng.integers(0, 1001, (110_000, 3)) / 1000))

    def write_peak(self, out, fmt):
        """tracemalloc peak of writing :meth:`long_path` as ``fmt``."""
        table = self.long_path()
        tracemalloc.start()
        try:
            write_dataset(str(out), {"command": "simulate"}, ["t", "x_A", "x_B", "x_C"],
                          table, fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_csv_writer_holds_one_block_not_the_file(self, tmp_path):
        out = tmp_path / "big.csv"
        peak = self.write_peak(out, "csv")
        assert len(out.read_text().splitlines()) == 3 + 110_000
        assert peak < 4 << 20

    def test_json_writer_holds_one_block_not_the_file(self, tmp_path):
        out = tmp_path / "big.json"
        peak = self.write_peak(out, "json")
        assert len(read_dataset(str(out))[2]) == 110_000
        assert peak < 8 << 20
