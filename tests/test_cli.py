import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qpump
from qpump.cli import parse_params, run, CliConfigError

REFERENCE_FILE = """\
# reference chiller parameters
n_levels = 4
omega_h = 102.6
omega_c = 1.4
T_w = 7.1e3
T_h = 1.57e3
T_c = 54.25
gamma_w = 3.5e-3
gamma_h = 5.1e-3
gamma_c = 8.8e-3
"""

THREE_QUBIT_FILE = """\
n_levels = 8
omega_h = 61.5   # omega_w = omega_h - omega_c = 60
omega_c = 1.5
T_w = 130
T_h = 60
T_c = 5
gamma_w = 1e-3
gamma_h = 1e-3
gamma_c = 1e-3
g = 0.1
"""


@pytest.fixture
def reference_params(tmp_path):
    path = tmp_path / "reference.params"
    path.write_text(REFERENCE_FILE)
    return str(path)


@pytest.fixture
def three_qubit_params(tmp_path):
    path = tmp_path / "three_qubit.params"
    path.write_text(THREE_QUBIT_FILE)
    return str(path)


def read_csv(path):
    meta, header, rows = {}, None, []
    for line in open(path):
        line = line.rstrip("\n")
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition(":")
            meta[key.strip()] = value.strip()
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return meta, header, rows


class TestParseParams:
    def test_reference_file(self, reference_params):
        params = parse_params(reference_params)
        assert params["n_levels"] == 4
        assert params["T_w"] == 7.1e3
        assert params["gamma_c"] == 8.8e-3

    def test_squeeze_db_maps_to_r(self, tmp_path):
        path = tmp_path / "p"
        path.write_text(REFERENCE_FILE + "squeeze_db = 7\n")
        from qpump.cli import _pump_from_params

        cfg = _pump_from_params(parse_params(str(path)))
        assert abs(cfg.work.squeeze_r - 0.806) < 1e-3

    def test_unknown_key_with_line_number(self, tmp_path):
        path = tmp_path / "p"
        path.write_text("omega_h = 1.0\nbogus = 3\n")
        with pytest.raises(CliConfigError, match="p:2"):
            parse_params(str(path))

    def test_bad_value(self, tmp_path):
        path = tmp_path / "p"
        path.write_text("omega_h = banana\n")
        with pytest.raises(CliConfigError):
            parse_params(str(path))

    def test_missing_file(self):
        with pytest.raises(CliConfigError):
            parse_params("/nonexistent/params")

    def test_bool_values(self, tmp_path):
        path = tmp_path / "p"
        path.write_text("saturated_work = yes\n")
        assert parse_params(str(path))["saturated_work"] is True


class TestCurrents:
    def test_reference_run(self, reference_params, tmp_path):
        out = tmp_path / "out.csv"
        code = run(["currents", "--params", reference_params, "--output", str(out)])
        assert code == 0
        meta, header, rows = read_csv(out)
        assert meta["qpump-schema"] == "currents/1"
        assert len(rows) == 1
        row = rows[0]
        assert float(row["first_law_residual"]) < 1e-10
        assert float(row["q_cold"]) > 0 and float(row["q_hot"]) < 0
        assert row["mode"] == "chiller"

    def test_frequency_ordering_rejected(self, reference_params, tmp_path):
        code = run(["currents", "--params", reference_params,
                    "--set", "omega_c=200", "--output", str(tmp_path / "x")])
        assert code == 1

    def test_solver_failure_exit_code(self, reference_params, tmp_path):
        # quenching the cold and work couplings leaves only the hot bath's
        # two disconnected parity chains: the steady state degenerates and
        # the command must exit 2, not crash
        code = run(["currents", "--params", reference_params,
                    "--set", "gamma_c=1e-300", "--set", "gamma_w=1e-300",
                    "--output", str(tmp_path / "x")])
        assert code == 2

    def test_json_format(self, reference_params, tmp_path):
        out = tmp_path / "out.json"
        assert run(["currents", "--params", reference_params, "--format", "json",
                    "--output", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "currents/1"
        row = dict(zip(doc["columns"], doc["rows"][0]))
        assert row["q_cold"] > 0


class TestOptimizeAndSweep:
    def test_optimize(self, reference_params, tmp_path):
        out = tmp_path / "o.csv"
        assert run(["optimize", "--params", reference_params, "--output", str(out)]) == 0
        _, _, rows = read_csv(out)
        assert 0 < float(rows[0]["eps_ratio"]) < 1

    def test_sweep_rows_and_determinism(self, reference_params, tmp_path):
        out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sweep-n", "--params", reference_params, "--n-min", "3", "--n-max", "4"]
        assert run(args + ["--output", str(out1)]) == 0
        assert run(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        _, header, rows = read_csv(out1)
        assert header == ["N", "variant", "omega_c_star", "q_c_max",
                          "eps_star", "eps_ratio"]
        assert len(rows) == 2 * 3
        variants = {r["variant"] for r in rows}
        assert variants == {"plain", "squeezed", "saturated"}


class TestHistogramCli:
    def test_zero_samples(self, tmp_path):
        out = tmp_path / "h.csv"
        assert run(["histogram", "--samples", "0", "--output", str(out)]) == 0
        meta, header, rows = read_csv(out)
        assert header == ["sample", "eps_ratio", "N"]
        assert rows == []
        assert meta["samples"] == "0"

    def test_thread_count_invariance(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["histogram", "--samples", "24", "--seed", "7"]
        assert run(base + ["--threads", "1", "--output", str(a)]) == 0
        assert run(base + ["--threads", "8", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_threads(self, tmp_path):
        assert run(["histogram", "--samples", "0", "--threads", "many"]) == 1


class TestCurveAndCompare:
    def test_curve_both_systems(self, three_qubit_params, tmp_path):
        out = tmp_path / "c.csv"
        assert run(["curve", "--params", three_qubit_params, "--points", "12",
                    "--output", str(out)]) == 0
        _, header, rows = read_csv(out)
        assert header == ["omega_c", "q_c", "eps", "eps_over_carnot", "system"]
        assert len(rows) == 24
        systems = {r["system"] for r in rows}
        assert systems == {"ideal", "three_qubit"}
        assert all(float(r["eps_over_carnot"]) < 1.0 + 1e-9 for r in rows)

    def test_compare_power_ratio(self, three_qubit_params, tmp_path):
        out = tmp_path / "cmp.csv"
        assert run(["compare", "--params", three_qubit_params, "--points", "48",
                    "--output", str(out)]) == 0
        meta, _, rows = read_csv(out)
        assert float(meta["power_ratio"]) >= 1e3
        assert {r["system"] for r in rows} == {"ideal", "three_qubit"}

    def test_missing_g_rejected(self, reference_params, tmp_path):
        assert run(["curve", "--params", reference_params]) == 1


CONFIG_ERRORS = {
    "curve_n_levels": ["curve", "--params", "@three_qubit", "--set", "n_levels=2"],
    "curve_negative_g": ["curve", "--params", "@three_qubit", "--set", "g=-0.1"],
    "curve_hot_above_work": ["curve", "--params", "@three_qubit", "--set", "T_h=200"],
    "compare_negative_gamma": ["compare", "--params", "@three_qubit", "--set", "gamma_c=-1"],
    "compare_no_points": ["compare", "--params", "@three_qubit", "--points", "0"],
    "curve_no_points": ["curve", "--params", "@three_qubit", "--points", "-2"],
    "histogram_negative_samples": ["histogram", "--samples", "-3"],
    "sweep_n_below_three": ["sweep-n", "--params", "@reference", "--n-min", "2"],
    "sweep_n_empty_range": ["sweep-n", "--params", "@reference", "--n-min", "5", "--n-max", "4"],
}


@pytest.fixture
def with_params(reference_params, three_qubit_params):
    # argv with the "@reference"/"@three_qubit" placeholders made file paths
    files = {"@reference": reference_params, "@three_qubit": three_qubit_params}
    return lambda argv: [files.get(a, a) for a in argv]


class TestErrorReporting:
    @pytest.mark.parametrize("argv", CONFIG_ERRORS.values(), ids=CONFIG_ERRORS.keys())
    def test_configuration_error_is_one_line(self, argv, with_params, capsys):
        argv = with_params(argv)
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("qpump: configuration error:") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["currents", "--params", "@reference"],
        ["optimize", "--params", "@reference"],
        ["curve", "--params", "@three_qubit", "--points", "3"],
        ["compare", "--params", "@three_qubit", "--points", "3"],
    ], ids=["currents", "optimize", "curve", "compare"])
    def test_overflowing_rate_is_a_configuration_error(self, argv, with_params):
        # a subprocess, so that any warning on the way shows on stderr
        argv = with_params(argv)
        env = dict(os.environ, PYTHONPATH=str(Path(qpump.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-m", "qpump.cli", *argv,
                               "--set", "gamma_w=1e306"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == ("qpump: configuration error: "
                               "work bath: rates overflow at gamma=1e+306\n")


class TestMisc:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_cli_imports_no_scipy(self):
        # numpy is the only runtime dependency; scipy serves the tests and
        # the benchmark's machine facts
        code = ("import sys, qpump.cli; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        env = dict(os.environ, PYTHONPATH=str(Path(qpump.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout == "[]\n"

    def test_selftest_passes(self, capsys):
        assert run(["selftest"]) == 0
        assert "0 failure(s)" in capsys.readouterr().err

    def test_set_without_file(self, tmp_path):
        out = tmp_path / "o.csv"
        sets = []
        for kv in ("n_levels=3", "omega_h=102.6", "omega_c=1.4", "T_w=7.1e3",
                   "T_h=1.57e3", "T_c=54.25", "gamma_w=3.5e-3",
                   "gamma_h=5.1e-3", "gamma_c=8.8e-3"):
            sets += ["--set", kv]
        assert run(["currents", *sets, "--output", str(out)]) == 0

    def test_stdout_output(self, reference_params, capsys):
        assert run(["currents", "--params", reference_params]) == 0
        captured = capsys.readouterr()
        assert "qpump-schema: currents/1" in captured.out

    def test_full_precision_round_trip(self, reference_params, tmp_path):
        out = tmp_path / "o.csv"
        run(["currents", "--params", reference_params, "--output", str(out)])
        _, _, rows = read_csv(out)
        value = rows[0]["q_cold"]
        assert float(value) == float(f"{float(value):.16e}")
        assert "e" in value


def load_cli_snapshot():
    path = Path(__file__).resolve().parent.parent / "tools" / "cli_snapshot.py"
    spec = importlib.util.spec_from_file_location("cli_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestSnapshotDiff:
    OLD = """\
# qpump-schema: sweep-n/1
# seed: 1
# note: first run
N,variant,omega_c_star,q_c_max
3,plain,2.0000000000000000e+00,1.0000000000000000e-02
4,plain,4.0000000000000000e+00,2.0000000000000000e-02
3,saturated,1.0000000000000000e+00,5.0000000000000000e-01
"""
    NEW = """\
# qpump-schema: sweep-n/1
# seed: 1
# note: second run
N,variant,omega_c_star,q_c_max
3,plain,2.0000000000000000e+00,1.0000000000000000e-02
4,plain,4.0000004000000000e+00,2.0000000000000000e-02
3,saturated,1.0000000000000000e+00,5.0000000050000000e-01
extra line
"""

    def test_numeric_columns_and_text_lines(self):
        lines = load_cli_snapshot().compare_outputs(self.OLD, self.NEW)
        assert lines == [
            "omega_c_star [plain]: max |d| 4.00e-07, max rel 1.00e-07 (1 changed)",
            "q_c_max [saturated]: max |d| 5.00e-10, max rel 1.00e-09 (1 changed)",
            "note: 'first run' -> 'second run'",
            "+extra line",
        ]

    def test_identical_texts_report_nothing(self):
        assert load_cli_snapshot().compare_outputs(self.OLD, self.OLD) == []

    def test_row_count_change_is_reported(self):
        fewer = self.OLD.rsplit("3,saturated", 1)[0]
        lines = load_cli_snapshot().compare_outputs(self.OLD, fewer)
        assert lines == ["table: 3 rows of ['N', 'variant', 'omega_c_star', 'q_c_max'] -> "
                         "2 rows of ['N', 'variant', 'omega_c_star', 'q_c_max']"]
