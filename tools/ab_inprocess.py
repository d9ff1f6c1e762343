"""Time two checkouts' ``qpump.cli.run`` in one process, in alternating batches.

Usage::

    python3 tools/ab_inprocess.py PARENT CHANGE --workload ensemble_serial --pairs 80
    python3 tools/ab_inprocess.py PARENT CHANGE --workload all --pairs 60

Each checkout's ``src/qpump`` is imported into this one process under its
own set of ``qpump`` modules, which go into ``sys.modules`` while that side
runs.  Pair i runs one batch of ``--batch`` calls on each side, with the same
argv on both, the parent first in odd pairs and the change first in even
ones.  The argv are those of the benchmark's workloads
(``perfbench/run.py``): ``ensemble_serial`` is ``histogram --threads 1`` of 8
samples at a new seed per call, and ``curve_ideal`` and
``curve_three_qubit`` are identical ``curve`` calls of 24 + seed % 9 points
on ``params/three_qubit.params`` of the change.

The speed of a shared machine drifts by up to a third within seconds, so
that two benchmark runs half a minute apart resolve a 10 % gain poorly; a
pair here takes a fraction of a second, and both of its batches see about
the same speed.  ``--workload all`` runs the three workloads in turn, each
with its own pairs.  It prints one line per workload: each side's median
items per second and the median and quartiles of the pairs' ratios, the
parent's batch time over the change's (above 1 when the change is faster).

The exit code is 0 when every call exits 0 and prints the same stdout on
both sides, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import statistics
import sys
import time
from pathlib import Path

WORKLOADS = ("ensemble_serial", "curve_ideal", "curve_three_qubit")
ENSEMBLE_SAMPLES = 8
CURVE_POINTS = 24
CURVE_PARAMS = "params/three_qubit.params"


class Side:
    """One checkout's ``qpump`` modules and its ``qpump.cli.run``."""

    def __init__(self, name: str, modules: dict, run):
        self.name, self.modules, self.run = name, modules, run

    def call(self, argv: list[str]) -> tuple[int, str]:
        """Exit code and stdout of one call; stderr is dropped.  The side's
        modules stay in ``sys.modules`` after it."""
        sys.modules.update(self.modules)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = self.run(argv)
        return code, out.getvalue()


def _qpump_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "qpump" or k.startswith("qpump.")}


def load_side(name: str, root: Path) -> Side:
    """Import ``qpump.cli`` from ``root/src`` alone, and take its modules
    out of ``sys.modules`` again, so that the other side imports its own.
    No bytecode is written in the checkout."""
    src = str(root.resolve() / "src")
    saved = _qpump_modules()
    for key in saved:
        del sys.modules[key]
    sys.path.insert(0, src)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        cli = importlib.import_module("qpump.cli")
        modules = _qpump_modules()
    finally:
        sys.dont_write_bytecode = dont_write
        sys.path.remove(src)
        for key in _qpump_modules():
            del sys.modules[key]
        sys.modules.update(saved)
    if not Path(cli.__file__).resolve().is_relative_to(Path(src)):
        raise RuntimeError(f"{name}: qpump.cli came from {cli.__file__}, not {src}")
    return Side(name, modules, cli.run)


def workload_argv(workload: str, seed: int, params: Path):
    """``(items, argv(index))`` of one benchmark workload at one seed."""
    if workload == "ensemble_serial":
        return ENSEMBLE_SAMPLES, lambda index: [
            "histogram", "--seed", str(seed * 1_000_003 + index),
            "--samples", str(ENSEMBLE_SAMPLES), "--threads", "1"]
    if workload in ("curve_ideal", "curve_three_qubit"):
        points = CURVE_POINTS + seed % 9
        argv = ["curve", "--params", str(params), "--system", workload.removeprefix("curve_"),
                "--points", str(points), "--seed", str(seed)]
        return points, lambda index: argv
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def timed_batch(side: Side, argvs: list[list[str]]) -> tuple[float, list[tuple[int, str]]]:
    """Wall seconds of the calls of ``argvs`` on one side, and their results."""
    results = []
    start = time.perf_counter()
    for argv in argvs:
        results.append(side.call(argv))
    return time.perf_counter() - start, results


def run_pairs(parent: Side, change: Side, argv, pairs: int, batch: int):
    """Each pair's batch seconds for the parent and the change, and the
    argv whose results differ or exit nonzero."""
    seconds = {parent.name: [], change.name: []}
    faults = []
    for pair in range(1, pairs + 1):
        argvs = [argv((pair - 1) * batch + k) for k in range(batch)]
        order = (parent, change) if pair % 2 else (change, parent)
        results = {}
        for side in order:
            t, results[side.name] = timed_batch(side, argvs)
            seconds[side.name].append(t)
        for a, p, c in zip(argvs, results[parent.name], results[change.name]):
            if p != c or p[0] != 0:
                faults.append((a, p[0], c[0]))
    return seconds[parent.name], seconds[change.name], faults


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--pairs", type=int, default=80)
    parser.add_argument("--batch", type=int, default=5, help="calls per side and pair")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.batch < 1:
        parser.error("--pairs must be at least 2, to have quartiles, and --batch at least 1")
    parent, change = load_side("parent", args.parent), load_side("change", args.change)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    faults = []
    saved = _qpump_modules()
    try:
        for workload in workloads:
            items, make_argv = workload_argv(workload, args.seed,
                                             args.change.resolve() / CURVE_PARAMS)
            for side in (parent, change):  # lazy imports and caches, untimed
                side.call(make_argv(-1))
            p_seconds, c_seconds, found = run_pairs(parent, change, make_argv,
                                                    args.pairs, args.batch)
            faults += found
            ratios = [p / c for p, c in zip(p_seconds, c_seconds)]
            p_rate, c_rate = (statistics.median(items * args.batch / t for t in seconds)
                              for seconds in (p_seconds, c_seconds))
            q1, median, q3 = quartiles(ratios)
            print(f"{workload}: parent {p_rate:.6g}, change {c_rate:.6g} items/s, "
                  f"{args.pairs} batches of {args.batch} calls each; ratio parent/change: "
                  f"median {median:.4f}, quartiles {q1:.4f} {q3:.4f}; change faster in "
                  f"{sum(r > 1.0 for r in ratios)} of {args.pairs} pairs", flush=True)
    finally:
        for key in _qpump_modules():
            del sys.modules[key]
        sys.modules.update(saved)
    for a, p_code, c_code in faults[:10]:
        print(f"differs: qpump {' '.join(a)} (exit {p_code} parent, {c_code} change)",
              file=sys.stderr)
    if faults:
        print(f"{len(faults)} of {args.pairs * args.batch * len(workloads)} calls differ "
              "or exit nonzero", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
