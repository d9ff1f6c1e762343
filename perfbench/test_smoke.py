"""Smoke test of the benchmark itself, at its smallest sizes.

Run from the root of a qpump checkout:

    PYTHONPATH=src python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import layers
import run
from tracer import Tracer, self_times

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))

import qpump.cli  # noqa: E402


def cli_text(argv: list[str]) -> str:
    code, text = run.call_cli(qpump.cli.run, argv)
    assert code == 0
    return text


def replace_cell(text: str, row: int, column: int, value: str) -> str:
    """Overwrite one cell of the row-th data row of a CSV output."""
    lines = text.splitlines(keepends=True)
    data = [i for i, line in enumerate(lines) if not line.startswith("#")][1:]
    cells = lines[data[row]].rstrip("\n").split(",")
    cells[column] = value
    lines[data[row]] = ",".join(cells) + "\n"
    return "".join(lines)


def test_declared_metrics_match_the_benchmark():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_runs_and_prints_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(run, "ENSEMBLE_SAMPLES", 4)
    monkeypatch.setattr(run, "IDENTITY_SAMPLES", 40)  # two chunks: the pool runs
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    assert run.main(["--workload", workload, "--seed", "0", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = layers.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for name, unit in units.items():
        value = result["metrics"][name]["value"]
        assert math.isfinite(value)
        assert any(line.split()[::2] == [name, unit] for line in lines[:-1])
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in units)
    assert any(line.startswith("machine: ") for line in lines)


def test_ensemble_checks_fail_on_corrupted_output():
    text = cli_text(["histogram", "--seed", "5", "--samples", "8", "--threads", "1"])
    assert checks.check_ensemble(text, 8) == 0
    assert checks.check_ensemble(replace_cell(text, 3, 1, "8.0e-01"), 8) == 1
    assert checks.check_ensemble(replace_cell(text, 3, 1, "nan"), 8) == 1
    assert checks.check_ensemble(replace_cell(text, 3, 1, "-1.0e-03"), 8) == 1
    assert checks.check_ensemble(text, 9) == 9
    assert checks.check_identical(text, text, 8) == 0
    assert checks.check_identical(text, replace_cell(text, 0, 1, "1.0e-01"), 8) == 8


def test_curve_checks_fail_on_corrupted_output(monkeypatch):
    monkeypatch.chdir(ROOT)
    ideal = run.Curve(0, "ideal", ROOT, qpump.cli.run)
    tq = run.Curve(0, "three_qubit", ROOT, qpump.cli.run)
    n = ideal.items
    ideal_text = cli_text(ideal.argv(0))
    tq_text = cli_text(tq.argv(0))
    assert ideal.check(ideal_text) == 0
    assert tq.check(tq_text) == 0

    eoc = float(ideal_text.splitlines()[-1].split(",")[3])
    assert ideal.check(replace_cell(ideal_text, n - 1, 3, repr(eoc + 1e-8))) == 1
    q_mid = float(checks.parse_csv(ideal_text)[2][n // 2][1])
    assert ideal.check(replace_cell(ideal_text, n // 2, 1, repr(q_mid * (1 + 1e-7)))) == 1
    assert ideal.check(replace_cell(ideal_text, 0, 4, "three_qubit")) == n

    peak = checks.peak_power(tq_text, "three_qubit", n)
    assert tq.check(replace_cell(tq_text, 5, 3, "1.01")) == n
    assert checks.check_curve_three_qubit(tq_text, n, 10 * peak) == n
    assert checks.check_curve_three_qubit(tq_text, n, math.nan) == n

    assert tq.extra_check(qpump.cli.run) == (100, 0)
    full = cli_text(tq.argv(points=100))
    assert checks.check_closing(full, 100) == 0
    peak = checks.peak_power(full, "three_qubit", 100)
    assert checks.check_closing(replace_cell(full, 99, 1, repr(peak)), 100) == 100


def test_missing_boundary_is_skipped(monkeypatch, capsys):
    monkeypatch.delattr(qpump.steady, "_polish_state")
    monkeypatch.delattr(qpump.experiments, "_CoolingPowerEvaluator")
    tracer = Tracer()
    layers.install_probes(tracer, qpump)
    tracer.restore()
    assert tracer.missing == ["experiments.q_cold", "steady.polish"]
    assert "layer boundary steady.polish (qpump.steady._polish_state) not found" in capsys.readouterr().err
    assert "experiments.q_cold_us_n3" not in layers.reference_timings(
        {"omega_h": 61.5, "omega_c": 1.5, "T_w": 130, "T_h": 60, "T_c": 5,
         "gamma_w": 1e-3, "gamma_h": 1e-3, "gamma_c": 1e-3}, ("q_cold",))


def test_probes_restore_the_program():
    modules = (qpump.experiments, qpump.steady, qpump.three_qubit, qpump.linalg,
               qpump.cli, qpump.experiments._CoolingPowerEvaluator,
               qpump.steady._Generator)
    before = [dict(vars(m)) for m in modules]
    tracer = Tracer()
    layers.install_probes(tracer, qpump)
    assert qpump.steady.build_liouvillian is not before[1]["build_liouvillian"]
    tracer.restore()
    assert [dict(vars(m)) for m in modules] == before


def test_self_time_subtracts_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: sum(range(10_000)), "inner")
    outer = tracer.wrap(lambda: [inner() for _ in range(3)], "outer", item=True)
    outer()
    spans = tracer.spans
    assert [s.name for s in spans] == ["outer", "inner", "inner", "inner"]
    assert [s.parent for s in spans] == [-1, 0, 0, 0] and tracer.items == 1
    own = self_times(spans)
    assert own[0] == pytest.approx(spans[0].duration - sum(s.duration for s in spans[1:]))
    assert own[1:] == [s.duration for s in spans[1:]]


def test_kernel_flop_counts():
    # zgetrf and zgetrs of LAPACK Working Note 41 at m = 2
    assert layers.lu_flops(2) == 6 * 4 + 2 * 1
    assert layers.lu_solve_flops(2) == 6 * 4 + 2 * 2


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curve_ideal", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
