"""Command-line interface: outputs, determinism, exit codes, round trips."""
import json
import tracemalloc

import numpy as np
import pytest

from tdsim import ode
from tdsim.cli import MAX_GRID_POINTS, MAX_ODE_NODES, _parse_grid, main, read_dataset


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

    def test_malformed_x0_exits_2(self, tmp_path):
        out = tmp_path / "never.csv"
        assert run(["ode", "--x0", "0.5,0.5", "--out", str(out)]) == 2
        assert not out.exists()


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
            (["converge", "--seed", "1", "--N", "50"], "two", "TDSIM_THREADS"),
            (["converge", "--seed", "1", "--N", "50"], "0", "TDSIM_THREADS"),
            (["bifurcate", "--grid", "0:1e9:1e-9"], None, "grid"),
            (["bifurcate", "--grid", "0:1e308:1e-308"], None, "grid"),
            (["ode", "--method", "rk4", "--step", "nan"], None, "step"),
            (["ode", "--rtol", "inf"], None, "rtol"),
            (["ode", "--atol", "nan"], None, "atol"),
            (["ode", "--sample-dt", "nan"], None, "sample_dt"),
            (["ode", "--t-end", "1", "--sample-dt", "1e-9"], None, "sample-dt"),
            (["ode", "--method", "rk4", "--t-end", "1", "--step", "1e-12"], None, "step"),
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

    def test_grid_at_the_point_limit_is_accepted(self):
        assert len(_parse_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS


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
