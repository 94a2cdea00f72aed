import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kerramp import cli, fock, loss


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if l]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestAmplify:
    def test_single_point_csv(self, capsys):
        code, out = run_cli(
            capsys, "amplify", "--delta", "0.5", "--theta1", "0.5"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["gamma"]) == pytest.approx(0.7004095884, abs=1e-9)
        assert float(row["kappa"]) == pytest.approx(2.8016383534, abs=1e-9)
        assert row["saturated"] == "false"

    def test_degree_flag(self, capsys):
        code, out = run_cli(capsys, "amplify", "--delta-deg", "9", "--db", "-3")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["delta_rad"]) == pytest.approx(math.radians(9.0))
        assert float(row["dphi_amp_deg"]) == pytest.approx(19.1, abs=0.1)

    def test_saturated_point(self, capsys):
        code, out = run_cli(capsys, "amplify", "--delta-deg", "28.8", "--db", "-13")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["saturated"] == "true"
        assert float(row["dphi_amp_deg"]) == 180.0
        assert row["kappa"] == ""
        # the circuit's theta2 is <= 0, saturated or not
        assert float(row["theta2"]) == pytest.approx(-1.49668031, abs=1e-8)

    def test_requires_exactly_one_squeeze_flag(self, capsys):
        code, _ = run_cli(capsys, "amplify", "--delta", "0.5")
        assert code == 1
        code, _ = run_cli(
            capsys, "amplify", "--delta", "0.5", "--theta1", "1", "--db", "-3"
        )
        assert code == 1

    def test_rejects_both_angle_units(self, capsys):
        code, _ = run_cli(
            capsys, "amplify", "--delta", "0.5", "--delta-deg", "30", "--theta1", "1"
        )
        assert code == 1


class TestParameterRange:
    @pytest.mark.parametrize(
        "argv",
        [
            ["amplify", "--delta", "0.5", "--theta1", "1000"],
            ["amplify", "--delta", "0.5", "--theta1", "1e308"],
            ["lossy", "--theta1", "1e308"],
        ],
    )
    def test_theta1_with_overflowing_cosh_is_usage_error(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "theta1" in captured.err

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    def test_lossy_tol_must_be_positive_and_finite(self, capsys, tol):
        code = cli.main(["lossy", f"--tol={tol}"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--tol" in captured.err

    @pytest.mark.parametrize(
        "argv, culprit",
        [
            (["amplify", "--delta", "0.5", "--theta2", "nan"], "theta2"),
            (["amplify", "--delta", "0.5", "--db", "nan"], "dB"),
            (["table1", "--db-list", "nan"], "dB"),
        ],
    )
    def test_nan_squeeze_is_blamed_on_its_own_flag(self, capsys, argv, culprit):
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert culprit in captured.err
        assert "theta1" not in captured.err

    @pytest.mark.parametrize("theta2", ["inf", "-inf"])
    def test_infinite_theta2_saturates(self, capsys, theta2):
        code, out = run_cli(capsys, "amplify", "--delta", "0.5", f"--theta2={theta2}")
        assert code == 0
        (row,) = parse_csv(out)
        assert row["saturated"] == "true"
        assert float(row["dphi_amp_deg"]) == 180.0
        assert row["theta2"] == "-inf"

    def test_negative_verify_block_is_usage_error(self, capsys):
        code = cli.main(["verify", "--block", "-1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--block" in captured.err


def strict_json(text):
    """json.loads that refuses the non-standard Infinity, -Infinity and NaN."""

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


class TestStrictJson:
    @pytest.mark.parametrize(
        "argv, exit_code, row_cells, config_cells",
        [
            (
                ["amplify", "--delta", "0.5", "--theta2", "inf"],
                0,
                {"theta2": "-inf"},
                {"theta2": "inf"},
            ),
            (
                # one ladder only: no doubling measured a change
                ["lossy", "--dim", "20", "--max-dim", "20"],
                3,
                {"convergence_delta": "inf"},
                {},
            ),
            (
                ["table1", "--db-list=-inf"],
                0,
                {"db": "-inf", "theta2_rad": "inf", "kappa1": "inf"},
                {},
            ),
        ],
    )
    def test_non_finite_floats_are_csv_strings(
        self, capsys, argv, exit_code, row_cells, config_cells
    ):
        code, out = run_cli(capsys, *argv, "--format", "json")
        assert code == exit_code
        doc = strict_json(out)
        (row,) = doc["rows"]
        for key, cell in row_cells.items():
            assert row[key] == cell
        for key, cell in config_cells.items():
            assert doc["meta"]["config"][key] == cell
        _, csv_out = run_cli(capsys, *argv)
        (csv_row,) = parse_csv(csv_out)
        for key, cell in row_cells.items():
            assert csv_row[key] == cell


class TestTable1:
    def test_default_rows_match_published_values(self, capsys):
        code, out = run_cli(capsys, "table1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 6
        by_db = {float(r["db"]): r for r in rows}
        r3 = by_db[-3.0]
        assert float(r3["theta2_rad"]) == pytest.approx(0.35, abs=0.005)
        assert float(r3["kappa1"]) == pytest.approx(2.12, abs=0.02)
        assert float(r3["kappa2"]) == pytest.approx(2.12, abs=0.02)
        assert float(r3["dphi2_amp_deg"]) == pytest.approx(19.1, abs=0.5)
        assert float(r3["kappa3"]) == pytest.approx(2.13, abs=0.02)
        assert float(r3["dphi3_amp_deg"]) == pytest.approx(61.4, abs=0.5)
        r13 = by_db[-13.0]
        assert r13["saturated3"] == "true"
        assert r13["kappa3"] == ""
        assert float(r13["dphi3_amp_deg"]) == 180.0

    def test_zero_db_synthetic_row(self, capsys):
        code, out = run_cli(capsys, "table1", "--db-list", "0")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["kappa1"]) == 2.0

    def test_deterministic_output(self, capsys):
        _, first = run_cli(capsys, "table1")
        _, second = run_cli(capsys, "table1")
        assert first == second

    def test_json_meta_echoes_config(self, capsys):
        code, out = run_cli(capsys, "table1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["meta"]["command"] == "table1"
        assert "config" in doc["meta"]
        assert len(doc["rows"]) == 6

    def test_round_trip_precision(self, capsys):
        # every numeric field re-parses to at least 6 significant digits
        _, out = run_cli(capsys, "table1")
        for row in parse_csv(out):
            k2 = float(row["kappa2"])
            assert len(row["kappa2"].replace(".", "").replace("-", "").lstrip("0")) >= 6
            assert f"{k2:.10g}" == row["kappa2"]


class TestFigure2:
    def test_theta1_zero_gives_twice_input(self, capsys):
        code, out = run_cli(
            capsys, "figure2", "--dphi-in-list", "0.2", "--points", "5"
        )
        assert code == 0
        rows = parse_csv(out)
        start_a = [r for r in rows if r["panel"] == "a"][0]
        assert float(start_a["theta"]) == 0.0
        assert float(start_a["dphi_amp_deg"]) == pytest.approx(
            math.degrees(0.4), abs=1e-7
        )

    def test_curves_bounded_by_180(self, capsys):
        _, out = run_cli(capsys, "figure2", "--points", "60")
        rows = parse_csv(out)
        assert all(float(r["dphi_amp_deg"]) <= 180.0 for r in rows)
        # default dphi_in list; at 28.8 degrees panel b crosses the edge
        # tanh|theta2| = cos(dphi_in) and saturates past it
        dphi_ins = [1e-7, math.radians(9.0), math.radians(28.8)]
        assert len(rows) == len(dphi_ins) * 2 * 60
        for k, delta in enumerate(dphi_ins):
            block = rows[120 * k : 120 * (k + 1)]
            assert [r["panel"] for r in block] == ["a"] * 60 + ["b"] * 60
            assert all(float(r["dphi_in_rad"]) == pytest.approx(delta) for r in block)
            assert all(r["saturated"] == "false" for r in block[:60])
            for r in block[60:]:
                past_edge = math.tanh(float(r["theta"])) >= math.cos(delta)
                assert r["saturated"] == str(past_edge).lower()
                if past_edge:
                    assert r["dphi_amp_deg"] == "180"
                else:
                    assert float(r["dphi_amp_deg"]) < 180.0
        assert any(r["saturated"] == "true" for r in rows[300:])

    def test_table_point_lies_on_curve(self, capsys):
        # -10 dB row at 9 degrees: theta2 = 1.1513 -> 31.6 degrees
        _, out = run_cli(
            capsys,
            "figure2",
            "--dphi-in-list",
            str(math.radians(9.0)),
            "--theta-max",
            "2.302585092994046",
            "--points",
            "3",
        )
        rows = [r for r in parse_csv(out) if r["panel"] == "b"]
        mid = rows[1]
        assert float(mid["theta"]) == pytest.approx(1.1513, abs=1e-4)
        assert float(mid["dphi_amp_deg"]) == pytest.approx(31.6, abs=0.5)

    def test_empty_grid_rejected(self, capsys):
        code, _ = run_cli(capsys, "figure2", "--points", "0")
        assert code == 1

    def test_negative_theta_max_rejected(self, capsys):
        code = cli.main(["figure2", "--theta-max", "-1", "--points", "3"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "--theta-max" in captured.err


class TestLossy:
    def test_default_run_reproduces_reference(self, capsys):
        code, out = run_cli(capsys, "lossy", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        (row,) = doc["rows"]
        assert row["converged"] is True
        assert row["fidelity"] == pytest.approx(0.74, abs=0.01)

    def test_strong_squeezing_reference(self, capsys):
        code, out = run_cli(
            capsys, "lossy", "--theta1", "1.5", "--rs", "0.1", "--rk", "0.1",
            "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["truncation"] == 160
        assert abs(row["fidelity"] - 0.3367123201975788) <= 1e-12

    def test_strong_squeezing_past_the_cap_does_not_converge(self, capsys):
        # theta1 = 2.5 leaves 7.6e-3 of the b population on the top tenth of
        # the ladder at the default cap 160
        code, out = run_cli(capsys, "lossy", "--theta1", "2.5", "--format", "json")
        assert code == 3
        (row,) = json.loads(out)["rows"]
        assert row["converged"] is False
        assert row["truncation"] == 160
        assert row["leakage"] > 1e-3

    def test_leakage_column(self, capsys):
        code, out = run_cli(capsys, "lossy", "--theta1", "0.5")
        assert code == 0
        (row,) = parse_csv(out)
        assert 0.0 <= float(row["leakage"]) < 1e-3

    def test_werner_run(self, capsys):
        code, out = run_cli(
            capsys,
            "lossy",
            "--state",
            "werner",
            "--p",
            "0.5",
            "--rk",
            "0.1",
            "--rs",
            "0",
            "--format",
            "json",
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["fidelity"] == pytest.approx(0.929, abs=0.01)

    def test_lossless(self, capsys):
        code, out = run_cli(
            capsys, "lossy", "--rs", "0", "--rk", "0", "--format", "json"
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_start_above_cap_builds_no_input_state(self, capsys, monkeypatch):
        def refuse(layout):
            raise AssertionError(f"input state built on {layout.dims}")

        monkeypatch.setattr(loss, "make_plus_plus", refuse)
        code = cli.main(["lossy", "--dim", "700", "--max-dim", "160"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "start ladder 700 exceeds the cap 160" in captured.err


class TestVerify:
    def test_unsettled_compression_exits_as_non_convergence(self, capsys):
        # a two-level ladder is a valid layout, but its identity compression
        # does not settle by the working-ladder cap 32 D = 64
        code = cli.main(["verify", "--dim", "2"])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err.startswith("error: compression did not settle")
        assert "working ladder 64" in captured.err

    def test_report_structure_and_exit_code(self, capsys):
        # smaller dims keep this test quick; the exit code must agree with
        # the per-check pass flags
        code, out = run_cli(capsys, "verify", "--dim", "60", "--block", "12")
        rows = parse_csv(out)
        assert {r["check"] for r in rows} >= {
            "identity-2x2-random-grid",
            "matrix-derivation-consistency",
        }
        all_passed = all(r["passed"] == "true" for r in rows)
        assert code == (0 if all_passed else 2)
        # every Fock-space residual names the working ladder it was computed on
        for r in rows:
            in_fock_space = r["check"] not in {
                "identity-2x2-random-grid",
                "matrix-derivation-consistency",
            }
            assert (r["work_dim"] != "") == in_fock_space

    def test_2x2_checks_pass(self, capsys):
        _, out = run_cli(capsys, "verify", "--dim", "60", "--block", "12")
        by_name = {r["check"]: r for r in parse_csv(out)}
        assert by_name["identity-2x2-random-grid"]["passed"] == "true"
        assert by_name["matrix-derivation-consistency"]["passed"] == "true"
        assert by_name["identity-fock-d60-block12"]["passed"] == "true"
        assert by_name["identity-2x2-random-grid"]["work_dim"] == ""
        assert int(by_name["identity-fock-d60-block12"]["work_dim"]) >= 60


    def test_leakage_column_next_to_work_dim(self, capsys):
        _, out = run_cli(capsys, "verify", "--dim", "60", "--block", "12")
        header = out.splitlines()[0].split(",")
        assert header[header.index("work_dim") + 1] == "leakage"
        for r in parse_csv(out):
            if r["work_dim"] == "":
                assert r["leakage"] == ""
            else:
                assert 0.0 <= float(r["leakage"]) < 1e-12


class TestDenseFree:
    def test_commands_build_no_dense_operator(self, capsys, monkeypatch):
        # the commands run on sector blocks, phase vectors and the lossy
        # pass's buffers: no dense Operator, full-space exponential or
        # placed N x N compression
        calls = []

        def spy(name, original):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            return wrapped

        monkeypatch.setattr(
            fock.Operator, "__post_init__", spy("Operator", fock.Operator.__post_init__)
        )
        monkeypatch.setattr(fock, "expm", spy("expm", fock.expm))
        monkeypatch.setattr(fock, "_place_blocks", spy("_place_blocks", fock._place_blocks))
        argvs = (
            ["verify", "--dim", "60", "--block", "12"],
            ["lossy", "--theta1", "0.5"],
            ["lossy", "--state", "werner", "--theta1", "0.7", "--rs", "0.2", "--rk", "0.05"],
        )
        codes = [cli.main(argv) for argv in argvs]
        capsys.readouterr()
        assert codes == [0, 0, 0]
        assert calls == []
        # the spies do see a dense build
        layout = fock.make_layout([2, 2])
        fock.compress_product(layout, [fock.PairSqueeze((1,), 0.1)]).matrix
        fock.expm(fock.Operator(layout, np.zeros((4, 4), dtype=complex)))
        assert set(calls) == {"Operator", "expm", "_place_blocks"}


class TestStartup:
    def test_commands_load_no_scipy(self):
        # importing scipy.linalg cost about 0.3 s of every start-up.  In a
        # fresh interpreter: amplify loads the modules, lossy and verify build
        # ladder eigenbases, and verify exponentiates the 2x2 representation
        script = """
import contextlib, io, json, sys
from kerramp import cli
argvs = (
    ["amplify", "--delta", "0.5", "--theta1", "0.5"],
    ["lossy", "--format", "json"],
    ["verify", "--format", "json"],
)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(argv) for argv in argvs]
scipy = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout)
        assert result["codes"] == [0, 0, 0]
        assert result["scipy"] == []


class TestConfigFile:
    def test_file_values_apply(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\ndelta = 0.5\ntheta1 = 0.5\n")
        code, out = run_cli(capsys, "amplify", "--config", str(cfg))
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["gamma"]) == pytest.approx(0.7004095884, abs=1e-9)

    def test_flag_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta = 0.5\ntheta1 = 0.5\n")
        code, out = run_cli(
            capsys, "amplify", "--config", str(cfg), "--theta1", "0"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["kappa"]) == pytest.approx(2.0, abs=1e-12)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("nonsense = 1\n")
        code, _ = run_cli(capsys, "amplify", "--config", str(cfg))
        assert code == 1

    def test_abbreviated_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("max = 10\n")
        code = cli.main(["lossy", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert "unrecognized arguments: --max=10" in captured.err
        # a unique prefix of a flag is no flag, in the file or on the command line
        cfg.write_text("form = json\n")
        argv = ["amplify", "--delta", "0.5", "--theta1", "0.5"]
        assert cli.main(argv + ["--config", str(cfg)]) == 1
        assert cli.main(argv + ["--form", "json"]) == 1
        assert capsys.readouterr().out == ""

    def test_flag_equal_to_default_overrides_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("rs = 0.3\n")
        code, out = run_cli(
            capsys, "lossy", "--rs", "0.1", "--rk", "0", "--config", str(cfg),
            "--format", "json",
        )
        assert code == 0
        (row,) = json.loads(out)["rows"]
        assert row["rs"] == 0.1

    def test_non_numeric_value_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("delta_deg = abc\n")
        code = cli.main(["amplify", "--theta1", "0.5", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "abc" in captured.err

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        case=st.sampled_from(
            [
                ("delta_deg", ["amplify", "--theta1", "0.5"]),
                ("theta1", ["amplify", "--delta", "0.5"]),
                ("theta_max", ["figure2", "--points", "3"]),
            ]
        ),
        value=st.text(st.characters(blacklist_categories=("Cc", "Cs"))),
    )
    def test_any_float_value_is_ok_or_usage_error(self, capsys, tmp_path, case, value):
        key, argv = case
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n", encoding="utf-8")
        code = cli.main(argv + ["--config", str(cfg)])
        assert code in (0, 1)
        capsys.readouterr()

    def test_successive_calls_share_no_state(self, capsys, tmp_path):
        # main reuses one parser per process; each call starts from its defaults
        assert cli.build_parser() is cli.build_parser()
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta1 = 0.3\nstate = werner\n")
        configs = []
        for extra in ([], ["--config", str(cfg)], []):
            code, out = run_cli(capsys, "lossy", "--format", "json", *extra)
            assert code == 0
            configs.append(json.loads(out)["meta"]["config"])
        plain, from_file, plain_again = configs
        assert plain_again == plain
        assert (plain["theta1"], plain["state"], plain["config"]) == (0.5, "plus-plus", None)
        assert (from_file["theta1"], from_file["state"]) == (0.3, "werner")

    def test_dispatch_finds_a_replaced_command(self, capsys, monkeypatch):
        cli.build_parser()
        calls = []
        monkeypatch.setattr(cli, "cmd_table1", lambda args: calls.append(args.command) or 0)
        assert cli.main(["table1"]) == 0
        assert calls == ["table1"]

    def test_usage_error_leaves_next_call_clean(self, capsys):
        assert cli.main(["lossy", "--theta1", "abc"]) == 1
        code, out = run_cli(capsys, "amplify", "--delta", "0.5", "--theta1", "0.5")
        assert code == 0
        (row,) = parse_csv(out)
        assert float(row["gamma"]) == pytest.approx(0.7004095884, abs=1e-9)

    def test_output_file(self, capsys, tmp_path):
        out_path = tmp_path / "table.csv"
        code, _ = run_cli(capsys, "table1", "--out", str(out_path))
        assert code == 0
        assert out_path.read_text().startswith("db,")

    def test_output_dir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KERRAMP_OUT_DIR", str(tmp_path))
        code, _ = run_cli(capsys, "table1", "--out", "t.csv")
        assert code == 0
        assert (tmp_path / "t.csv").exists()
