import importlib.util
import json
import math
import os
import re
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


REFERENCE_CHILLER = Path(__file__).resolve().parent.parent / "params" / "reference_chiller.params"
# the one stderr line of a WeakCouplingWarning, before a run's own lines
WEAK = ("qpump: warning: dissipation strength exceeds the weak-coupling threshold; "
        "the Markovian-secular master equation is being stretched\n")


def load_tool(name):
    path = Path(__file__).resolve().parent.parent / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ``--set`` arguments for 1 to 3 distinct keys, each with a value from the
# edge of the double range or past it, as the fuzz tool draws them
fuzz_overrides = load_tool("fuzz_verdicts").fuzz_overrides


def curve_compare_fuzz(params):
    """The argv of the seeded fuzz over the two subcommands that share the
    stacked solve."""
    rng = np.random.default_rng(23)
    for case in range(320):
        sets = fuzz_overrides(rng)
        command = (["compare"] if case % 2 else
                   ["curve", "--system", str(rng.choice(["ideal", "three_qubit", "both"]))])
        yield [*command, "--params", params, "--points", "4", *sets]


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

    def test_file_not_utf8_is_a_configuration_error(self, tmp_path, capsys):
        # a decoding error ended in a traceback before
        path = tmp_path / "p"
        path.write_bytes(b"omega_h = 1\xff\n")
        assert run(["curve", "--params", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"qpump: configuration error: cannot read parameter file {path}: "
                              "'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1

    def test_bool_values(self, tmp_path):
        path = tmp_path / "p"
        path.write_text("saturated_work = yes\n")
        assert parse_params(str(path))["saturated_work"] is True

    def test_repeated_key_is_a_configuration_error(self, tmp_path, capsys):
        # the last line of a repeated key won silently before; --set still
        # overrides the file, and a repeated --set the one before it
        path = tmp_path / "p"
        path.write_text(REFERENCE_FILE.replace("n_levels = 4\n", "n_levels = 3\n")
                        + "# again\nn_levels = 4\n")
        assert run(["currents", "--params", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (f"qpump: configuration error: {path}:12: parameter key 'n_levels' "
                       "set again (first on line 2)\n")
        path.write_text(REFERENCE_FILE)
        assert run(["currents", "--params", str(path), "--set", "n_levels=3",
                    "--set", "n_levels=5"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("5,")


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

    @pytest.mark.parametrize("where, reason", [("missing/dir/x.csv", "No such file or directory"),
                                               ("", "Is a directory")],
                             ids=["missing_directory", "directory"])
    def test_unwritable_output_is_a_configuration_error(self, reference_params, tmp_path,
                                                        capsys, where, reason):
        # the open of --output ended in a traceback after the whole run before
        out = tmp_path / where
        assert run(["currents", "--params", reference_params, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"qpump: configuration error: cannot write output file "
                                f"{out}: {reason}\n")

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

    def test_thread_count_invariance(self, tmp_path, monkeypatch):
        # 40 samples are two chunks of 32, so two threads run a pool of two
        # workers, whose output is the serial run's
        import concurrent.futures

        pools, executor = [], concurrent.futures.ProcessPoolExecutor
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            lambda max_workers: pools.append(max_workers)
                            or executor(max_workers=max_workers))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["histogram", "--samples", "40", "--seed", "7"]
        assert run(base + ["--threads", "1", "--output", str(a)]) == 0
        assert run(base + ["--threads", "2", "--output", str(b)]) == 0
        assert pools == [2]
        assert a.read_bytes() == b.read_bytes()

    def test_pool_has_no_more_workers_than_chunks(self, tmp_path, monkeypatch):
        # a recording stand-in for the pool, which starts no process: 64
        # samples are two chunks of 32, so eight threads ask for two workers,
        # and the output is the serial run's
        import concurrent.futures

        pools = []

        class RecordingPool:
            def __init__(self, max_workers=None):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["histogram", "--samples", "64"]
        assert run(base + ["--threads", "1", "--output", str(a)]) == 0
        assert pools == []
        assert run(base + ["--threads", "8", "--output", str(b)]) == 0
        assert pools == [2]
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

    @pytest.mark.parametrize("command", [["curve", "--system", "ideal"],
                                         ["curve", "--system", "three_qubit"], ["compare"]],
                             ids=["curve_ideal", "curve_three_qubit", "compare"])
    @pytest.mark.parametrize("overrides", [[], ["gamma_w=50"], ["gamma_c=0.5"], ["T_c=1e-3"],
                                           ["omega_c=1e-3"], ["gamma_h=0.01"],
                                           ["omega_c=-1", "gamma_w=50"]])
    def test_strained_bath_warns_as_currents_does(self, command, overrides, three_qubit_params,
                                                  capsys):
        # the warning follows the ideal pump at the file's own frequencies:
        # a bath that strains its weak coupling prints the line that
        # currents prints, and the run still exits 0; the file's own baths,
        # one just below the threshold and a pump that does not build
        # (omega_c < 0, which the curves never use) print nothing
        sets = [a for o in overrides for a in ("--set", o)]
        run(["currents", "--params", three_qubit_params, *sets])
        warned = capsys.readouterr().err.startswith(WEAK)
        assert warned == (overrides[:1] in (["gamma_w=50"], ["gamma_c=0.5"], ["T_c=1e-3"],
                                            ["omega_c=1e-3"]))
        assert run([*command, "--params", three_qubit_params, "--points", "3", *sets]) == 0
        assert capsys.readouterr().err == (WEAK if warned else "")

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

    def test_overflowing_frequency_is_a_configuration_error(self, with_params):
        # omega_h = 1e300 overflows the rate body's Python float power, an
        # OverflowError, not an inf; a subprocess, so that a traceback shows
        proc = run_in_subprocess(with_params(["curve", "--params", "@three_qubit", "--set",
                                              "omega_h=1e300", "--points", "4",
                                              "--system", "both"]))
        assert proc.returncode == 1
        assert proc.stderr == ("qpump: configuration error: "
                               "work bath: rates overflow at gamma=0.001\n")

    def test_negative_seed_is_a_configuration_error(self, capsys):
        # the ensemble's substreams take no negative seed: refused up front
        assert run(["histogram", "--samples", "5", "--seed", "-3"]) == 1
        assert capsys.readouterr().err == ("qpump: configuration error: "
                                           "seed must be >= 0, got -3\n")

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


    @pytest.mark.parametrize("overrides", [
        ["omega_h=1e7", "gamma_c=0.5"],
        ["T_c=1e-300", "omega_c=1e-3"],
    ], ids=["large_omega_h", "tiny_T_c"])
    def test_compare_without_cooling_power_is_a_solver_failure(self, overrides, with_params,
                                                               capsys):
        # a curve with no cooling power has no power ratio; it divided by
        # zero before.  Both baths strain the weak coupling at the file's
        # own frequencies, whose warning comes first
        argv = ["compare", "--params", "@three_qubit", "--points", "4"]
        assert run(with_params(argv) + [a for o in overrides for a in ("--set", o)]) == 2
        assert capsys.readouterr().err == WEAK + (
            "qpump: solver failure: NoCoolingPowerError: "
            "ideal curve has no cooling power: q_c_max = 0.0\n")

    def test_optimum_without_cooling_power_is_a_solver_failure(self, with_params, capsys):
        # the optimizer's Optimum refuses a non-positive power; it ended in a
        # traceback before
        assert run(with_params(["sweep-n", "--params", "@reference", "--n-max", "3",
                                "--set", "T_c=1e-300"])) == 2
        assert capsys.readouterr().err == WEAK + (
            "qpump: solver failure: NoCoolingPowerError: "
            "optimum has non-positive cooling power 0.0\n")

    def test_curve_and_compare_overrides_end_in_a_verdict(self, three_qubit_params, capsys):
        # a seeded fuzz over the two subcommands that share the stacked
        # solve: every override set of values from the edge of the double
        # range (and past it) ends in an exit code, with a one-line verdict
        # on stderr for a configuration error or a solver failure, after at
        # most the one weak-coupling warning line
        codes = []
        for argv in curve_compare_fuzz(three_qubit_params):
            codes.append(run(argv))
            err = capsys.readouterr().err
            assert codes[-1] in (0, 1, 2), argv
            if codes[-1]:
                verdict = err.removeprefix(WEAK)
                assert verdict.count("\n") == 1 and verdict.startswith("qpump: "), (argv, err)
                assert not verdict.startswith("qpump: warning: "), (argv, err)
        assert {0, 1, 2} <= set(codes)

    def test_svd_lets_no_failed_chain_point_of_the_fuzz_stand(self, three_qubit_params,
                                                               monkeypatch, capsys):
        # a check on these sets only, not a general property: on the seeded
        # fuzz above and on the stiff curves (every gamma at 1e7), the SVD
        # rejects every chain matrix that the verdict fails below the floor
        # or as exactly singular, so on these sets failing such a point at
        # once rejects nothing that the SVD let stand
        decisions, failed = qpump.steady._kernel_decisions, []

        def recorded(mats, trace):
            inv, errors, scale = decisions(mats, trace)
            failed.extend((mats[k], trace, scale[k]) for k in errors if 0.0 < scale[k] < np.inf)
            return inv, errors, scale

        monkeypatch.setattr(qpump.steady, "_kernel_decisions", recorded)
        stiff = ["--set", "gamma_w=1e7", "--set", "gamma_h=1e7", "--set", "gamma_c=1e7"]
        for argv in [*curve_compare_fuzz(three_qubit_params),
                     ["curve", "--params", three_qubit_params, "--points", "28", *stiff]]:
            run(argv)
        capsys.readouterr()
        assert failed
        for mat, trace, scale in failed:
            with pytest.raises((qpump.NoKernelError, qpump.DegenerateKernelError)):
                qpump.linalg._svd_kernel(mat, trace, scale)

    def test_badly_scaled_chain_point_stands(self, monkeypatch, capsys):
        # every rate but the hot bath's past 1e300, all draining into the
        # ground level: the inverse of the unscaled trace-row matrix loses
        # the point's condition to underflow (4.8e-282), and its scaled
        # matrix, inverted itself, holds it at 6.9e-3; the SVD let the point
        # stand too (singular values 7.3e301, 2.3e300, 6.4e-11)
        decisions, mats = qpump.steady._kernel_decisions, []
        monkeypatch.setattr(qpump.steady, "_kernel_decisions",
                            lambda m, trace: mats.append(m) or decisions(m, trace))
        assert run(["currents", "--params", str(REFERENCE_CHILLER), "--set", "T_c=1e-3",
                    "--set", "gamma_c=1e300", "--set", "T_w=1e300"]) == 0
        row = capsys.readouterr().out.splitlines()[-1].split(",")
        assert row[0] == "3" and row[8] == "boundary"
        ((mat,),) = mats
        scale = np.abs(mat).max()
        inv = np.linalg.inv(np.vstack([np.ones(3), mat[1:]]))
        inv[:, 1:] *= qpump.linalg._rows_scale(scale)
        assert 1.0 / np.abs(inv).sum(axis=0).max() < 1e-280  # |scaled matrix|_1 >= 1
        assert qpump.linalg._matrix_verdict(mat, 1.0, scale) is None

    @pytest.mark.parametrize("argv, message", [
        (["--set", "saturated_work=1", "--set", "T_w=1000"],
         "need T_w > T_h (or a saturated work bath)"),
        (["--squeeze-db", "-1"], "squeezing in dB must be >= 0, got -1.0"),
    ], ids=["saturated_T_w_below_T_h", "negative_squeeze_db"])
    def test_sweep_variant_config_error_is_one_line(self, argv, message, capsys):
        # the sweep's plain and squeezed work baths are built from the
        # saturated one's T_w and from --squeeze-db; a bad one ended in a
        # traceback from inside the sweep before
        assert run(["sweep-n", "--params", str(REFERENCE_CHILLER), *argv]) == 1
        assert capsys.readouterr().err == f"qpump: configuration error: {message}\n"

    def test_saturated_work_below_the_hot_bath_is_an_empty_window(self, capsys):
        # the saturated work bath's effective temperature at omega_h
        # (1.03e10) lies below T_h, so there is no cooling window; the
        # optimizer's evaluator ended in the ordering ValueError before
        assert run(["optimize", "--params", str(REFERENCE_CHILLER), "--set", "saturated_work=1",
                    "--set", "T_h=1e300"]) == 2
        assert capsys.readouterr().err == ("qpump: solver failure: EmptyWindowError: "
                                           "cooling window max 0.0 is not positive\n")

    def test_grid_rates_past_the_double_range_fail_quietly(self):
        # the reference chiller at gamma_w = gamma_h = 1e300, whose squeezed
        # variant's coarse-grid rates overflow: those points fail their
        # gates, with no RuntimeWarning on the way (three before; this suite
        # makes one an error).  Through the CLI, sweep-n's plain variant
        # fails first, at its maximizer's current scale (below)
        template = qpump.ideal_pump(3, 102.6, 1.4, 7.1e3, 1.57e3, 54.25, 1e300, 1e300, 8.8e-3)
        with pytest.raises(qpump.NoKernelError, match="^no grid point in the cooling window "
                                                      "admits a trustworthy stationary state$"):
            qpump.sweep_stages(template, n_values=(3,), variants=("squeezed",))

    @pytest.mark.parametrize("argv, omega_c", [
        (["currents"], "1.4"),
        (["optimize"], "2.086886710574703"),
        (["sweep-n", "--n-max", "3"], "2.086886710574703"),
    ], ids=["currents", "optimize", "sweep_n"])
    def test_current_scale_past_the_double_range_is_one_verdict(self, argv, omega_c, capsys):
        # the pump's solve and the optimizer's check at its maximizer refuse
        # a current scale |H| x rate past the double range alike; the
        # optimizer reported a maximum here before (exit 0, q_c_max 1.864e-02)
        assert run([*argv, "--params", str(REFERENCE_CHILLER),
                    "--set", "gamma_w=1e300", "--set", "gamma_h=1e300"]) == 2
        assert capsys.readouterr().err == WEAK + (
            "qpump: solver failure: NonConvergedError: current scale |H| x rate overflows "
            f"the double range at omega_c={omega_c}\n")

    def test_condition_floor_is_one_verdict(self, monkeypatch, capsys):
        # the optimizer judges its maximizer by the chain solves' kernel
        # verdict: with the floor at 1, optimize and currents at its
        # omega_c_star fail with the same line
        assert run(["optimize", "--params", str(REFERENCE_CHILLER)]) == 0
        omega_c = capsys.readouterr().out.splitlines()[-1].split(",")[0]
        monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", 1.0)
        errors = []
        for argv in (["optimize"], ["currents", "--set", f"omega_c={omega_c}"]):
            assert run([*argv, "--params", str(REFERENCE_CHILLER)]) == 2
            errors.append(capsys.readouterr().err)
        assert errors[0] == errors[1]
        assert re.fullmatch(r"qpump: solver failure: DegenerateKernelError: reciprocal condition "
                            r"\d\.\d{3}e-\d\d below 1e\+00; stationary state numerically "
                            rf"degenerate at omega_c={re.escape(repr(float(omega_c)))}\n",
                            errors[0])

    def test_pump_subcommand_overrides_end_in_a_verdict(self, capsys):
        # the same seeded fuzz over the subcommands that build a pump config
        # (and histogram, which takes the overrides but no pump): exit 0, 1
        # or 2, no exception, and on 1 or 2 a last stderr line that is the
        # only "qpump: " verdict line, with at most weak-coupling warnings
        # ("qpump: warning: " lines) before it
        rng = np.random.default_rng(5)
        commands = [["currents"], ["optimize"], ["sweep-n", "--n-min", "3", "--n-max", "4"],
                    ["histogram", "--samples", "2", "--threads", "1"]]
        codes = []
        for case in range(320):
            sets = fuzz_overrides(rng)
            argv = [*commands[case % 4], "--params", str(REFERENCE_CHILLER), *sets]
            codes.append(run(argv))
            lines = capsys.readouterr().err.splitlines()
            assert codes[-1] in (0, 1, 2), argv
            if codes[-1]:
                verdicts = [line for line in lines if line.startswith("qpump: ")
                            and not line.startswith("qpump: warning: ")]
                assert verdicts == lines[-1:], (argv, lines)
        assert {0, 1, 2} <= set(codes)


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

    @pytest.mark.parametrize("argv", [
        ["curve", "--params", "p", "--points", "6", "--set", "g=0.2", "--set", "T_c=4"],
        ["compare"],
        ["histogram", "--samples", "3", "--threads", "2", "--seed", "5", "--format", "json"],
        ["sweep-n", "--n-min", "4", "--squeeze-db", "3", "--output", "x.csv"],
        ["currents", "--params=p", "--set=n_levels=5"],
        ["selftest", "--seed", "7", "--threads", "auto"],
    ])
    def test_subcommand_parses_as_the_main_parser(self, argv):
        # run() hands a subcommand's arguments to its own parser, skipping the
        # main parser's pass: the namespace is the main parser's, field by field
        assert vars(qpump.cli._parse_args(argv)) == vars(qpump.cli._build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["curve", "--points", "x"], ["curve", "--bogus"], ["compare", "--format", "xml"],
        ["curve", "extra"], ["histogram", "--samples"], ["selftest", "--", "--seed"],
        ["frobnicate"], [],
    ])
    def test_subcommand_errors_as_the_main_parser(self, argv):
        with pytest.raises(CliConfigError) as main:
            qpump.cli._build_parser().parse_args(argv)
        with pytest.raises(CliConfigError) as direct:
            qpump.cli._parse_args(argv)
        assert str(direct.value) == str(main.value)

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
            "omega_c_star [plain]: max |d| 4.00e-07, max rel 1.00e-07, max 4.5e+08 ulp "
            "(1 changed)",
            "q_c_max [saturated]: max |d| 5.00e-10, max rel 1.00e-09, max 4.5e+06 ulp "
            "(1 changed)",
            "note: 'first run' -> 'second run'",
            "+extra line",
        ]

    def test_changes_are_counted_in_ulps(self):
        # printed with 17 significant digits, a double reads back exactly, so
        # a change of one or two ulps counts as one or two
        old = [1.0, 3.0, -2.5e-7, 0.75]
        new = [np.nextafter(1.0, 2.0), 3.0 + 2 * math.ulp(3.0), np.nextafter(-2.5e-7, 0.0), 0.75]

        def text(column):
            return "omega_c,q_c\n" + "".join(f"{k},{x:.16e}\n" for k, x in enumerate(column))

        lines = load_tool("cli_snapshot").compare_outputs(text(old), text(new))
        d = 2 * math.ulp(3.0)
        assert lines == [f"q_c: max |d| {d:.2e}, max rel {d / new[1]:.2e}, max 2 ulp (3 changed)"]

    def test_identical_texts_report_nothing(self):
        assert load_tool("cli_snapshot").compare_outputs(self.OLD, self.OLD) == []

    def test_row_count_change_is_reported(self):
        fewer = self.OLD.rsplit("3,saturated", 1)[0]
        lines = load_tool("cli_snapshot").compare_outputs(self.OLD, fewer)
        assert lines == ["table: 3 rows of ['N', 'variant', 'omega_c_star', 'q_c_max'] -> "
                         "2 rows of ['N', 'variant', 'omega_c_star', 'q_c_max']"]


class TestFuzzVerdicts:
    def test_verdicts_and_their_diff(self, tmp_path, capsys):
        # two runs of the first argv of seed 0 as the record of each tree: the
        # same verdict diffs clean, a changed stderr line alone is counted
        # apart, and a changed exit code fails the diff
        tool = load_tool("fuzz_verdicts")
        argv = tool.fuzz_argv(0, runs=5)
        assert argv == tool.fuzz_argv(0)[:5]
        assert [a[0] for a in argv] == ["currents", "optimize", "sweep-n", "curve", "compare"]
        records = [{"seed": 0, **tool.verdict(run, a)} for a in argv]
        assert records[0]["exit"] in (0, 1, 2)
        assert records[0]["stdout"] == tool.verdict(run, argv[0])["stdout"]

        def write(name, rows):
            path = tmp_path / name
            path.write_text("".join(json.dumps(r) + "\n" for r in rows))
            return path

        old = write("old", records)
        assert tool.main(["--diff", str(old), str(old)]) == 0
        moved = [dict(records[0], stderr="moved"), *records[1:]]
        assert tool.main(["--diff", str(old), str(write("moved", moved))]) == 0
        failed = [dict(records[0], exit="raised"), *records[1:]]
        assert tool.main(["--diff", str(old), str(write("failed", failed))]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["fuzz_verdicts: 5 runs; 0 differ in exit code or stdout, 0 in the last "
                       "stderr line alone",
                       "fuzz_verdicts: 5 runs; 0 differ in exit code or stdout, 1 in the last "
                       "stderr line alone",
                       "fuzz_verdicts: 5 runs; 1 differ in exit code or stdout, 0 in the last "
                       "stderr line alone"]


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


STUB_CLI = """
MARK = {mark!r}


def run(argv):
    # the seed ending in 7 prints the tree's mark
    print(" ".join(argv), MARK if argv[2].endswith("7") else "")
    return 0
"""


class TestAbInprocess:
    @staticmethod
    def tree(root, mark=""):
        package = root / "src" / "qpump"
        package.mkdir(parents=True)
        (package / "__init__.py").write_text("")
        (package / "cli.py").write_text(STUB_CLI.format(mark=mark))
        return root

    def test_each_side_runs_its_own_tree(self, tmp_path):
        ab = load_tool("ab_inprocess")
        a = ab.load_side("a", self.tree(tmp_path / "a", "from a"))
        b = ab.load_side("b", self.tree(tmp_path / "b", "from b"))
        assert sys.modules["qpump.cli"] is qpump.cli
        argv = ["histogram", "--seed", "17"]
        saved = ab._qpump_modules()
        try:
            assert a.call(argv) == (0, "histogram --seed 17 from a\n")
            assert b.call(argv) == (0, "histogram --seed 17 from b\n")
        finally:  # a call leaves its side's modules in sys.modules
            sys.modules.update(saved)
        assert not list(tmp_path.rglob("__pycache__"))

    def test_equal_outputs_exit_zero(self, tmp_path, capsys):
        parent, change = self.tree(tmp_path / "parent"), self.tree(tmp_path / "change")
        assert load_tool("ab_inprocess").main([str(parent), str(change), "--workload",
                                               "ensemble_serial", "--pairs", "4",
                                               "--batch", "2"]) == 0
        out = capsys.readouterr().out
        assert "ratio parent/change: median" in out and "of 4 pairs" in out
        assert sys.modules["qpump"] is qpump and sys.modules["qpump.cli"] is qpump.cli

    def test_all_runs_each_workload(self, tmp_path, capsys):
        # one summary line per workload, in the benchmark's order
        parent, change = self.tree(tmp_path / "parent"), self.tree(tmp_path / "change")
        assert load_tool("ab_inprocess").main([str(parent), str(change), "--workload", "all",
                                               "--pairs", "3", "--batch", "2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == \
            ["ensemble_serial", "curve_ideal", "curve_three_qubit"]
        assert all("ratio parent/change: median" in line and line.endswith(" of 3 pairs")
                   for line in lines)
        assert sys.modules["qpump.cli"] is qpump.cli

    @pytest.mark.parametrize("workload, items, command",
                             [("optimize", 1, "optimize"), ("sweep_n", 24, "sweep-n")])
    def test_stack_workloads_time_the_reference_chiller(self, tmp_path, capsys, workload,
                                                        items, command):
        # the optimizer's small stacks: one identical call per item count,
        # on the change's reference chiller, outside the benchmark's "all"
        parent, change = self.tree(tmp_path / "parent"), self.tree(tmp_path / "change")
        ab = load_tool("ab_inprocess")
        count, make_argv = ab.workload_argv(workload, 5, change)
        assert count == items
        assert make_argv(0) == make_argv(3) == [
            command, "--params", str(change / "params" / "reference_chiller.params")]
        assert workload not in ab.WORKLOADS
        assert ab.main([str(parent), str(change), "--workload", workload,
                        "--pairs", "3", "--batch", "2"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"{workload}: ") and line.endswith(" of 3 pairs")
        assert sys.modules["qpump.cli"] is qpump.cli

    def test_a_differing_output_exits_one(self, tmp_path, capsys):
        # calls 0 to 7 of pair 1 to 4 run the seeds 1000003 to 1000010
        parent = self.tree(tmp_path / "parent", "old")
        change = self.tree(tmp_path / "change", "new")
        assert load_tool("ab_inprocess").main([str(parent), str(change), "--workload",
                                               "ensemble_serial", "--pairs", "4",
                                               "--batch", "2"]) == 1
        err = capsys.readouterr().err
        assert "differs: qpump histogram --seed 1000007 " in err and "1 of 8 calls differ" in err
        assert sys.modules["qpump.cli"] is qpump.cli


SCRIPTS = Path(__file__).resolve().parent.parent


class TestScripts:
    # the demos and tools sit outside src and reach into its private names
    # (cli._curve_setup, experiments._draw, ...), so a rename there
    # fails here and not at their next use
    @pytest.mark.parametrize("path", sorted((SCRIPTS / "demos").glob("*.py")),
                             ids=lambda path: path.stem)
    def test_demo_runs_cleanly(self, path):
        result = run_in_subprocess([str(path)], module=False)
        assert (result.returncode, result.stderr) == (0, "")

    @pytest.mark.parametrize("name", sorted(p.stem for p in (SCRIPTS / "tools").glob("*.py")))
    def test_tool_loads(self, name):
        assert callable(load_tool(name).main)
