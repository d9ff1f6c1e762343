"""qpump benchmark: drive ``qpump.cli.run`` in-process and report metrics.

Run from the root of a qpump checkout:

    python3 perfbench/run.py --workload curve_ideal --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics of ``END_TO_END``;
with ``--trace 1`` it wraps the layer boundaries, runs the workload serially
and reports the per-layer metrics of ``layers.PER_LAYER``.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table, the
machine facts and the notes, figures without a bound such as ``fail_share``
and the wall-clock rate.  Outputs are checked outside the timed interval,
and every item that raised or failed a check counts in ``failed``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from pathlib import Path

import checks

CURVE_PARAMS = "params/three_qubit.params"
REFERENCE_PARAMS = "params/reference_chiller.params"
# Timed calls are short, about 0.1 s, so that the calibration between calls
# follows the machine's drifting speed (see Calibration).
ENSEMBLE_SAMPLES = 8
CURVE_POINTS = 24
# Serial-versus-pool byte-identity check: two of the program's 32-sample
# chunks, so that two workers get one each.
IDENTITY_SAMPLES = 64
SETUP_REPEATS = 5
CALIBRATION_REFERENCE_S = 0.005
SETUP_CALIBRATION_REFERENCE_S = 0.05
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

WORKLOADS = ("ensemble_serial", "curve_ideal", "curve_three_qubit")
END_TO_END = {
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# The child times the import between two runs of a pure-Python calibration
# loop, as numpy may not be imported ahead of qpump.  The loop takes about
# 60 ms: shorter loops followed the import's speed less well.
SETUP_CODE = """
import time
def calibrate():
    start = time.perf_counter()
    acc = 0
    for i in range(600000):
        acc += i * i % 7
    return time.perf_counter() - start
before = calibrate()
start = time.perf_counter()
import qpump.cli
seconds = time.perf_counter() - start
print(seconds, before, calibrate())
"""


def nproc() -> int:
    """Worker count of ``--threads auto``."""
    return os.cpu_count() or 1


def call_cli(run, argv: list[str]) -> tuple[int, str]:
    """Call ``qpump.cli.run(argv)``, returning its exit code and stdout.

    A call that raises returns exit code -1, after its traceback goes to
    stderr, so one failed call does not end the benchmark.
    """
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    except Exception:
        traceback.print_exc()
        code = -1
    if code != 0:
        print(f"qpump {' '.join(argv)}: exit {code}: {err.getvalue().strip()}",
              file=sys.stderr)
    return code, out.getvalue()


class Ensemble:
    """``histogram --threads 1`` calls of ENSEMBLE_SAMPLES fridges each.

    Call ``i`` uses ``--seed seed*1000003+i``, so every call draws new
    fridges and the per-sample cost, which grows steeply with N, averages
    over many draws.
    """

    def __init__(self, seed: int):
        self.seed = seed
        self.items = ENSEMBLE_SAMPLES
        self.pool_seconds: tuple[float, float] | None = None

    def argv(self, index: int, samples: int | None = None, threads: int = 1) -> list[str]:
        return ["histogram", "--seed", str(self.seed * 1_000_003 + index),
                "--samples", str(samples or self.items), "--threads", str(threads)]

    def warmup_argv(self) -> list[str]:
        return self.argv(0, samples=4)

    def check(self, text: str) -> int:
        return checks.check_ensemble(text, self.items)

    def extra_check(self, run) -> tuple[int, int]:
        """Serial and pool ensembles of IDENTITY_SAMPLES at the run seed must
        be byte-identical.  Keeps both durations in ``pool_seconds``."""
        texts, seconds = [], []
        for threads in (1, nproc()):
            start = time.perf_counter()
            code, text = call_cli(run, self.argv(0, IDENTITY_SAMPLES, threads))
            seconds.append(time.perf_counter() - start)
            texts.append(text if code == 0 else "")
        self.pool_seconds = (seconds[0], seconds[1])
        failed = max(checks.check_ensemble(texts[0], IDENTITY_SAMPLES),
                     checks.check_identical(*texts, IDENTITY_SAMPLES))
        return IDENTITY_SAMPLES, failed


class Curve:
    """Identical ``curve`` calls over one system, CURVE_POINTS + seed % 9
    points each."""

    def __init__(self, seed: int, system: str, root: Path, run):
        from qpump.cli import parse_params

        self.seed = seed
        self.system = system
        self.items = CURVE_POINTS + seed % 9
        self.params = parse_params(str(root / CURVE_PARAMS))
        self.ideal_peak = None
        if system == "three_qubit":
            # the power-ratio check needs the ideal curve on the same grid
            _, text = call_cli(run, self.argv(system="ideal"))
            self.ideal_peak = checks.peak_power(text, "ideal", self.items)

    def argv(self, index: int = 0, points: int | None = None,
             system: str | None = None) -> list[str]:
        return ["curve", "--params", CURVE_PARAMS, "--system", system or self.system,
                "--points", str(points or self.items), "--seed", str(self.seed)]

    def warmup_argv(self) -> list[str]:
        return self.argv(points=4)

    def oracle_q_cold(self, omega_c: float) -> float:
        from qpump.pump import WeakCouplingWarning, ideal_pump
        from qpump.steady import pauli_rate_oracle

        p = self.params
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            cfg = ideal_pump(p["n_levels"], omega_c + p["omega_h"] - p["omega_c"], omega_c,
                             p["T_w"], p["T_h"], p["T_c"],
                             p["gamma_w"], p["gamma_h"], p["gamma_c"])
        return pauli_rate_oracle(cfg).q_cold

    def check(self, text: str) -> int:
        if self.system == "ideal":
            return checks.check_curve_ideal(text, self.params, self.items,
                                            self.oracle_q_cold)
        return checks.check_curve_three_qubit(text, self.items, self.ideal_peak)

    def extra_check(self, run) -> tuple[int, int]:
        """The three-qubit curve closes before the window edge: checked on a
        full curve of 100 to 160 points, as the timed curves are too coarse
        to reach the edge."""
        if self.system != "three_qubit":
            return 0, 0
        points = 100 + self.seed % 61
        code, text = call_cli(run, self.argv(points=points))
        return points, checks.check_closing(text, points) if code == 0 else points


def make_workload(name: str, seed: int, root: Path, run):
    if name == "ensemble_serial":
        return Ensemble(seed)
    return Curve(seed, name.removeprefix("curve_"), root, run)


class Calibration:
    """Fixed numpy and Python work whose duration tracks the machine's speed.

    On a shared machine the speed of a core drifts by a third within
    seconds, and a process's CPU time drifts with its wall time, so neither
    is steady from run to run.  Timed between calls, this kernel measures
    the speed of the moment, and a call's duration is rescaled to the speed
    at which the kernel takes CALIBRATION_REFERENCE_S.  The kernel uses no
    qpump code, but it runs in the program's process, so the run also
    reports the wall-clock rate and the kernel's median time as notes.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._solve = np.linalg.solve
        self._mats = rng.standard_normal((4, 36, 36)) + 1j * rng.standard_normal((4, 36, 36))
        self._rhs = np.ones(36, dtype=complex)
        self.seconds()

    def seconds(self) -> float:
        start = time.perf_counter()
        acc = 0.0
        for k in range(150):
            acc += abs(self._solve(self._mats[k % 4], self._rhs)[0])
            acc += sum(i * 0.5 for i in range(40))
        return time.perf_counter() - start


def warm_up(workload, run) -> None:
    """One small untimed call, so lazy imports and caches are done."""
    call_cli(run, workload.warmup_argv())


def timed_calls(workload, run, seconds: float):
    """Call the program again and again until ``seconds`` have elapsed.

    Returns the outputs, the calls' total wall seconds and total seconds at
    the reference speed, and the median calibration time.  Calibration time
    is in neither total.
    """
    calibration = Calibration()
    outputs = []
    wall = reference = 0.0
    kernel = [calibration.seconds()]
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        outputs.append(call_cli(run, workload.argv(len(outputs))))
        t_wall = time.perf_counter() - start
        kernel.append(calibration.seconds())
        wall += t_wall
        reference += t_wall * CALIBRATION_REFERENCE_S / (0.5 * (kernel[-2] + kernel[-1]))
    return outputs, wall, reference, statistics.median(kernel)


def check_all(workload, run, outputs: list[tuple[int, str]]) -> tuple[int, int]:
    """Items attempted and failed: the timed calls' plus the extra check's."""
    failed = sum(workload.check(text) if code == 0 else workload.items
                 for code, text in outputs)
    extra, extra_failed = workload.extra_check(run)
    return len(outputs) * workload.items + extra, failed + extra_failed


def setup_seconds(root: Path) -> float:
    """Median time a fresh interpreter takes to import ``qpump.cli``, at
    the reference speed of the child's own calibration loop."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(root / "src"), path])))
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=root,
                              capture_output=True, text=True, timeout=120, check=True)
        seconds, before, after = map(float, done.stdout.split())
        times.append(seconds * SETUP_CALIBRATION_REFERENCE_S / (0.5 * (before + after)))
    return statistics.median(times)


def machine_facts() -> dict:
    import numpy as np
    import scipy

    def blas(module) -> str:
        try:
            dep = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{dep['name']} {dep['version']}"
        except (TypeError, KeyError):
            return "unknown"

    return {
        "nproc": nproc(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": blas(np),
        "scipy": scipy.__version__,
        "scipy_blas": blas(scipy),
        "thread_variables": {v: os.environ.get(v) for v in THREAD_VARIABLES},
        "start_method": multiprocessing.get_start_method(),
        "longdouble_nmant": int(np.finfo(np.longdouble).nmant),
    }


def end_to_end(name: str, workload, qpump, seconds: float, root: Path):
    run = qpump.cli.run
    warm_up(workload, run)
    outputs, wall, reference, kernel = timed_calls(workload, run, seconds)
    # read before the checks: their pool and oracle are not the workload's
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed = check_all(workload, run, outputs)
    items = len(outputs) * workload.items
    metrics = {
        "items_per_s": items / reference,
        "setup_s": setup_seconds(root),
        "peak_rss_mb": rss_mb,
    }
    notes = {"wall_items_per_s": (items / wall, "1/s"),
             "calibration_ms_p50": (1e3 * kernel, "ms")}
    return attempted, failed, metrics, END_TO_END, notes


def rejections(text: str) -> int:
    """Fridge draws that a ``histogram`` output reports as redrawn."""
    try:
        return int(checks.parse_csv(text)[0].get("rejected", 0))
    except ValueError:
        return 0


def per_layer(name: str, workload, qpump, seconds: float, root: Path):
    import layers
    from tracer import Tracer

    warm_up(workload, qpump.cli.run)
    tracer = Tracer()
    layers.install_probes(tracer, qpump)
    try:
        outputs, _, reference, kernel = timed_calls(
            workload, tracer.wrap(qpump.cli.run, "cli.run"), seconds)
    finally:
        tracer.restore()
    attempted, failed = check_all(workload, qpump.cli.run, outputs)
    ensemble = isinstance(workload, Ensemble)
    rejected = sum(rejections(text) for code, text in outputs if code == 0) if ensemble else 0
    draws = len(outputs) * workload.items + rejected if ensemble else 0
    metrics = layers.layer_metrics(tracer, reference, rejected, draws)

    chiller = qpump.cli.parse_params(str(root / REFERENCE_PARAMS))
    if ensemble:
        serial_s, pool_s = workload.pool_seconds
        metrics["experiments.pool_efficiency"] = serial_s / (nproc() * pool_s)
        metrics.update(layers.reference_timings(chiller, ("q_cold", "maximize")))
    elif name == "curve_ideal":
        metrics.update(layers.reference_timings(chiller, ("solve",)))
    notes = {"calibration_ms_p50": (1e3 * kernel, "ms"),
             "probes_missing": (len(tracer.missing), "count")}
    return attempted, failed, metrics, layers.PER_LAYER, notes


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    root = Path.cwd()
    if not (root / "src" / "qpump" / "__init__.py").is_file():
        print(f"perfbench: no qpump sources under {root / 'src'}; "
              "run from the root of a qpump checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import qpump.cli

    workload = make_workload(args.workload, args.seed, root, qpump.cli.run)
    measure = per_layer if args.trace else end_to_end
    attempted, failed, metrics, units, notes = measure(args.workload, workload, qpump,
                                                       args.seconds, root)
    notes["fail_share"] = (failed / attempted, "share")
    rows = [(k, metrics[k], u) for k, u in units.items()] + [(k, *v) for k, v in notes.items()]
    for key, value, unit in rows:
        print(f"{key:44s} {value:>16.6g} {unit}")
    print("machine:", json.dumps(machine_facts(), sort_keys=True))
    print("notes:", json.dumps({k: {"value": v, "unit": u} for k, (v, u) in notes.items()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
