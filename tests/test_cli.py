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

    def test_rows_are_the_characteristic_curve(self, three_qubit_params, tmp_path):
        # the CLI's rows come from the curve's columns; the library's points,
        # one PerformancePoint each, carry the same numbers
        from qpump.cli import _curve_setup
        from qpump.experiments import characteristic_curve

        out = tmp_path / "c.csv"
        assert run(["curve", "--params", three_qubit_params, "--points", "12",
                    "--output", str(out)]) == 0
        setup = _curve_setup(parse_params(three_qubit_params), 12)
        expected = [[pt.omega_c, pt.q_c, pt.eps, pt.eps_over_carnot, system]
                    for system in ("ideal", "three_qubit")
                    for pt in characteristic_curve(system, setup, n_points=12)]
        _, header, rows = read_csv(out)
        assert [[float(r[k]) for k in header[:4]] + [r["system"]] for r in rows] == expected

        cmp = tmp_path / "cmp.csv"
        assert run(["compare", "--params", three_qubit_params, "--points", "12",
                    "--output", str(cmp)]) == 0
        meta, _, rows = read_csv(cmp)
        best = {system: max((row for row in expected if row[4] == system), key=lambda r: r[1])
                for system in ("ideal", "three_qubit")}
        assert [[r["system"]] + [float(r[k]) for k in ("omega_c_star", "q_c_max", "eps_star",
                                                       "eps_ratio")] for r in rows] == \
            [[system, *best[system][:4]] for system in ("ideal", "three_qubit")]
        assert float(meta["power_ratio"]) == best["ideal"][1] / best["three_qubit"][1]


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
        proc = run_in_subprocess(with_params(argv) + ["--set", "gamma_w=1e306"])
        assert proc.returncode == 1
        assert proc.stderr == ("qpump: configuration error: "
                               "work bath: rates overflow at gamma=1e+306\n")

    @pytest.mark.parametrize("argv", [
        ["currents", "--params", "@reference"],
        ["curve", "--params", "@three_qubit", "--points", "3"],
    ], ids=["currents", "curve"])
    def test_overflowing_current_scale_is_a_solver_failure(self, argv, with_params):
        # finite rates whose current scale |H| x rate exceeds the double range;
        # the kernel solve fails first here, and nothing may warn on the way
        proc = run_in_subprocess(with_params(argv) + ["--set", "gamma_w=1e300"])
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        last = proc.stderr.splitlines()[-1]
        assert last.startswith("qpump: solver failure:") and " at omega_c=" in last

    def test_block_past_the_double_range_is_a_solver_failure(self, reference_params):
        # finite rates whose long-double sector block leaves the double range:
        # the point fails in the kernel, with no warning from the rounding
        proc = run_in_subprocess(["currents", "--params", reference_params, "--set",
                                  "gamma_w=1e296", "--set", "gamma_h=1e296", "--set",
                                  "gamma_c=1e296", "--set", "omega_h=1e4"])
        assert proc.returncode == 2
        assert "RuntimeWarning" not in proc.stderr
        assert proc.stderr.splitlines()[-1] == (
            "qpump: solver failure: NoKernelError: generator has non-finite entries "
            "(max |L| = inf) at omega_c=1.4")


class TestMisc:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"]) == 1

    def test_cli_imports_no_scipy(self):
        # numpy is the only runtime dependency; scipy serves the tests and
        # the benchmark's machine facts
        code = ("import sys, qpump.cli; "
                "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))")
        assert run_in_subprocess(["-c", code], module=False).stdout == "[]\n"

    def test_cli_imports_no_process_pool(self):
        # the process pool's module is imported only when a pool runs
        code = "import sys, qpump.cli; print('concurrent.futures.process' in sys.modules)"
        assert run_in_subprocess(["-c", code], module=False).stdout == "False\n"

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


class TestParserReuse:
    def test_parser_is_built_once(self):
        assert qpump.cli._build_parser() is qpump.cli._build_parser()

    def test_import_builds_no_parser(self):
        # count the parsers (the main one and its subparsers) built at import,
        # at the first run() and at a second one
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counted(self, *args, **kwargs):\n"
            "    built.append(self)\n"
            "    init(self, *args, **kwargs)\n"
            "argparse.ArgumentParser.__init__ = counted\n"
            "import qpump.cli\n"
            "counts = [len(built)]\n"
            "for _ in range(2):\n"
            "    qpump.cli.run(['frobnicate'])\n"
            "    counts.append(len(built))\n"
            "print(*counts)\n")
        at_import, first, second = map(int, run_in_subprocess(["-c", code], module=False)
                                       .stdout.split())
        assert at_import == 0 and first > 0 and second == first

    def test_reused_parser_leaks_no_arguments(self, three_qubit_params, capsys):
        # an override of one call must not reach the next
        base = ["curve", "--params", three_qubit_params, "--points", "6"]
        argvs = [base + ["--set", "omega_h=61.6"], base]
        in_process = []
        for argv in argvs:
            assert run(argv) == 0
            in_process.append(capsys.readouterr().out)
        fresh = [run_in_subprocess(argv).stdout for argv in argvs]
        assert in_process == fresh
        assert in_process[0] != in_process[1]


def run_in_subprocess(argv, module=True):
    """``python -m qpump.cli argv`` (or ``python argv``) in a fresh process,
    so that any warning on the way shows on stderr."""
    env = dict(os.environ, PYTHONPATH=str(Path(qpump.__file__).parents[1]))
    prefix = ["-m", "qpump.cli"] if module else []
    return subprocess.run([sys.executable, *prefix, *argv], capture_output=True, text=True,
                          env=env, timeout=120)


def load_tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
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
        lines = load_tool("cli_snapshot").compare_outputs(self.OLD, self.NEW)
        assert lines == [
            "omega_c_star [plain]: max |d| 4.00e-07, max rel 1.00e-07 (1 changed)",
            "q_c_max [saturated]: max |d| 5.00e-10, max rel 1.00e-09 (1 changed)",
            "note: 'first run' -> 'second run'",
            "+extra line",
        ]

    def test_identical_texts_report_nothing(self):
        assert load_tool("cli_snapshot").compare_outputs(self.OLD, self.OLD) == []

    def test_row_count_change_is_reported(self):
        fewer = self.OLD.rsplit("3,saturated", 1)[0]
        lines = load_tool("cli_snapshot").compare_outputs(self.OLD, fewer)
        assert lines == ["table: 3 rows of ['N', 'variant', 'omega_c_star', 'q_c_max'] -> "
                         "2 rows of ['N', 'variant', 'omega_c_star', 'q_c_max']"]


# a stand-in for perfbench/run.py: its result line from the values of the
# seed and side in its checkout's values.json, through an imported module,
# as run.py imports its checks
STUB_RUN = """\
import json, sys
import stubvalues
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("table")
print(json.dumps(stubvalues.result(seed)))
"""
STUB_VALUES = """\
import json
def result(seed):
    values = json.load(open("values.json"))
    return {"correct": values["correct"], "attempted": 8, "failed": 0,
            "metrics": {name: {"value": v[str(seed)], "unit": ""} for name, v in values["metrics"].items()}}
"""
STUB_BENCHMARK = {"end_to_end": [{"name": "items_per_s", "better": "higher", "bound": 0.2},
                                 {"name": "setup_s", "better": "lower", "bound": 0.25}]}


class TestAbPairs:
    PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]

    def test_gain_needs_nine_wins_and_the_parent_spread(self):
        ab = load_tool("ab_pairs")
        change = [v * 1.1 for v in self.PARENT]
        verdict = ab.gain_holds(self.PARENT, change, "higher")
        assert (verdict["wins"], verdict["needed"], verdict["holds"]) == (10, 9, True)
        assert verdict["iqr"] == 2.5 and verdict["gain"] == pytest.approx(10.0)
        # two lost pairs: eight wins of ten are too few
        change[3] = change[4] = 90.0
        assert ab.gain_holds(self.PARENT, change, "higher")["holds"] is False
        # every pair won, by less than the parent's interquartile distance
        assert ab.gain_holds(self.PARENT, [v + 1.0 for v in self.PARENT], "higher") == {
            "wins": 10, "needed": 9, "gain": 1.0, "iqr": 2.5, "ratio": 1.01, "holds": False}
        # a lower-is-better metric wins by falling
        assert ab.gain_holds(self.PARENT, [v * 0.5 for v in self.PARENT], "lower")["holds"]

    def test_bound_is_a_share_of_the_parent_median(self):
        ab = load_tool("ab_pairs")
        slower = [v * 0.85 for v in self.PARENT]
        assert ab.within_bound(self.PARENT, slower, "higher", 0.2)["holds"]
        assert not ab.within_bound(self.PARENT, [v * 0.75 for v in self.PARENT],
                                   "higher", 0.2)["holds"]
        verdict = ab.within_bound([1.0, 1.0, 1.0], [1.3, 1.3, 1.3], "lower", 0.25)
        assert verdict["worse"] == pytest.approx(0.3) and not verdict["holds"]
        assert ab.within_bound([1.0, 1.0], [0.5, 0.5], "lower", 0.25)["worse"] == -0.5

    @staticmethod
    def checkout(root, items, correct=True):
        (root / "perfbench").mkdir(parents=True)
        (root / "perfbench" / "run.py").write_text(STUB_RUN)
        (root / "perfbench" / "stubvalues.py").write_text(STUB_VALUES)
        (root / "BENCHMARK.json").write_text(json.dumps(STUB_BENCHMARK))
        (root / "values.json").write_text(json.dumps({"correct": correct, "metrics": {
            "items_per_s": {str(seed): v for seed, v in enumerate(items, 1)},
            "setup_s": {str(seed): 0.05 for seed in range(1, len(items) + 1)}}}))
        return sorted(root.rglob("*"))

    def test_pairs_alternate_their_first_side(self, tmp_path, monkeypatch, capsys):
        ab = load_tool("ab_pairs")
        parent, change = tmp_path / "parent", tmp_path / "change"
        self.checkout(parent, [100.0, 101.0, 99.0])
        self.checkout(change, [120.0, 118.0, 121.0])
        values = {parent: [100.0, 101.0, 99.0], change: [120.0, 118.0, 121.0]}
        calls = []

        def run_once(checkout, workload, seed, seconds, cache):
            calls.append((checkout.name, seed))
            return {"correct": True, "metrics": {
                "items_per_s": {"value": values[checkout][seed - 1]},
                "setup_s": {"value": 0.05}}}

        monkeypatch.setattr(ab, "run_once", run_once)
        assert ab.main([str(parent), str(change), "--workload", "w", "--pairs", "3"]) == 0
        assert calls == [("parent", 1), ("change", 1), ("change", 2), ("parent", 2),
                         ("parent", 3), ("change", 3)]
        out = capsys.readouterr().out
        assert "pair  1: parent 100  change 120  ratio 1.2000  (parent first)" in out
        assert "pair  2: parent 101  change 118  ratio 1.1683  (change first)" in out
        assert "change better in 3 of 3 pairs (needs 3)" in out and ": holds" in out

    def test_run_writes_nothing_in_its_checkout(self, tmp_path, monkeypatch):
        # the stand-in imports a module of its own directory, whose bytecode
        # would land beside it without the cache prefix
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        files = self.checkout(tmp_path / "side", [100.0])
        result = load_tool("ab_pairs").run_once(tmp_path / "side", "w", 1, 1.0,
                                                str(tmp_path / "cache"))
        assert result["metrics"]["items_per_s"]["value"] == 100.0
        assert sorted((tmp_path / "side").rglob("*")) == files

    def test_incorrect_run_fails(self, tmp_path, capsys):
        # the parent runs first, and its failure ends the pairs
        parent, change = tmp_path / "parent", tmp_path / "change"
        self.checkout(parent, [100.0, 100.0], correct=False)
        self.checkout(change, [120.0, 120.0])
        assert load_tool("ab_pairs").main([str(parent), str(change), "--workload", "w",
                                           "--pairs", "2", "--seconds", "1"]) == 2
        assert "correct is False" in capsys.readouterr().err


SCRIPTS = Path(__file__).resolve().parent.parent


class TestScripts:
    # the demos and tools sit outside src and reach into its private names
    # (cli._curve_setup, pump._transition_levels, ...), so a rename there
    # fails here and not at their next use
    @pytest.mark.parametrize("path", sorted((SCRIPTS / "demos").glob("*.py")),
                             ids=lambda path: path.stem)
    def test_demo_runs_cleanly(self, path):
        result = run_in_subprocess([str(path)], module=False)
        assert (result.returncode, result.stderr) == (0, "")

    @pytest.mark.parametrize("name", sorted(p.stem for p in (SCRIPTS / "tools").glob("*.py")))
    def test_tool_loads(self, name):
        assert callable(load_tool(name).main)
