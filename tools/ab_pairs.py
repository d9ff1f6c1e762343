"""Run the benchmark in two checkouts as alternating pairs and judge the change.

Usage::

    python3 tools/ab_pairs.py PARENT CHANGE --workload W --pairs 10 --seconds 30

Pair i, for i = 1 to ``--pairs``, runs ``perfbench/run.py --workload W
--seed i --seconds T --trace 0`` of each checkout, from the root of that
checkout; the parent runs first in odd pairs and the change in even ones,
so that a drift of the machine's speed favours neither side.
Python's bytecode cache goes to a temporary directory per side, so nothing
is written in either checkout.

It prints each pair's value of the claimed metric, ``items_per_s``, then per
side the median and quartiles of every end-to-end metric of the parent's
``BENCHMARK.json``, and two verdicts:

* the claimed gain holds when the change is better on at least nine in ten
  of the pairs and its median is better than the parent's by more than the
  parent's interquartile distance;
* an end-to-end metric is within its bound unless the change's median is
  worse than the parent's by more than ``bound`` times the parent's median.

The exit code is 0 when the gain holds and every metric is within its
bound, 1 when not, and 2 when a run exits nonzero or reports ``correct:
false`` (the remaining runs are not made).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CLAIMED = "items_per_s"
WIN_SHARE = 0.9


class RunFailed(RuntimeError):
    """A benchmark run exited nonzero or reported ``correct: false``."""


def better(x: float, y: float, direction: str) -> bool:
    """Whether ``x`` is strictly better than ``y`` for a metric whose
    ``better`` is ``"higher"`` or ``"lower"``."""
    return x > y if direction == "higher" else x < y


def wins(parent: list[float], change: list[float], direction: str) -> int:
    """The pairs in which the change is better than the parent."""
    return sum(better(c, p, direction) for p, c in zip(parent, change))


def gain_holds(parent: list[float], change: list[float], direction: str) -> dict:
    """The claimed-gain verdict: wins against the wins needed, and the
    medians' difference, in the better direction, against the parent's
    interquartile distance."""
    q1, median, q3 = statistics.quantiles(parent, n=4)
    change_median = statistics.median(change)
    gain = change_median - median if direction == "higher" else median - change_median
    won, needed = wins(parent, change, direction), math.ceil(WIN_SHARE * len(parent))
    return {"wins": won, "needed": needed, "gain": gain, "iqr": q3 - q1,
            "ratio": change_median / median if median else math.inf,
            "holds": won >= needed and gain > q3 - q1}


def within_bound(parent: list[float], change: list[float], direction: str,
                 bound: float) -> dict:
    """Whether the change's median is worse than the parent's by at most
    ``bound`` times the parent's median; ``worse`` is that share."""
    median, change_median = statistics.median(parent), statistics.median(change)
    loss = change_median - median if direction == "lower" else median - change_median
    worse = loss / abs(median) if median else (math.inf if loss > 0 else 0.0)
    return {"worse": worse, "bound": bound, "holds": worse <= bound}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             cache: str) -> dict:
    """One benchmark run's result line in ``checkout``."""
    env = dict(os.environ, PYTHONPYCACHEPREFIX=cache)
    where, limit = f"{checkout} seed {seed}", 900 + 2 * seconds
    try:
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=checkout, env=env, capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"{where}: no result after {limit:g} s") from None
    if done.returncode != 0:
        raise RunFailed(f"{where}: exit {done.returncode}: {done.stderr.strip()[-2000:]}")
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise RunFailed(f"{where}: no result line on stdout") from None
    if result.get("correct") is not True:
        raise RunFailed(f"{where}: correct is {result.get('correct')!r}, "
                        f"{result.get('failed')} of {result.get('attempted')} items failed")
    return result


def run_pairs(parent: Path, change: Path, workload: str, pairs: int,
              seconds: float) -> tuple[list[dict], list[dict]]:
    """The result lines of both sides, pair by pair, the first side
    alternating; prints each pair as it ends."""
    runs: dict[Path, list[dict]] = {parent: [], change: []}
    with tempfile.TemporaryDirectory() as p_cache, tempfile.TemporaryDirectory() as c_cache:
        caches = {parent: p_cache, change: c_cache}
        for seed in range(1, pairs + 1):
            order = (parent, change) if seed % 2 else (change, parent)
            for side in order:
                runs[side].append(run_once(side, workload, seed, seconds, caches[side]))
            p, c = (runs[side][-1]["metrics"][CLAIMED]["value"] for side in (parent, change))
            print(f"pair {seed:2d}: parent {p:.6g}  change {c:.6g}  "
                  f"ratio {c / p if p else math.inf:.4f}  "
                  f"({'parent' if order[0] is parent else 'change'} first)", flush=True)
    return runs[parent], runs[change]


def report(parent_runs: list[dict], change_runs: list[dict], spec: dict) -> bool:
    """Print each side's quartiles and the verdicts; True when the gain
    holds and every end-to-end metric is within its bound."""
    def values(runs, name):
        return [r["metrics"][name]["value"] for r in runs]

    print(f"\n{'metric':14s} {'side':7s} {'q1':>12s} {'median':>12s} {'q3':>12s}")
    for m in spec["end_to_end"]:
        for side, runs in (("parent", parent_runs), ("change", change_runs)):
            q1, median, q3 = statistics.quantiles(values(runs, m["name"]), n=4)
            print(f"{m['name']:14s} {side:7s} {q1:12.6g} {median:12.6g} {q3:12.6g}")
    direction = {m["name"]: m["better"] for m in spec["end_to_end"]}
    gain = gain_holds(values(parent_runs, CLAIMED), values(change_runs, CLAIMED),
                      direction[CLAIMED])
    print(f"\nclaimed gain in {CLAIMED}: change better in {gain['wins']} of "
          f"{len(parent_runs)} pairs (needs {gain['needed']}); median ratio "
          f"{gain['ratio']:.4f}, gain {gain['gain']:.6g} against the parent's "
          f"interquartile distance {gain['iqr']:.6g}: {'holds' if gain['holds'] else 'fails'}")
    ok = gain["holds"]
    for m in spec["end_to_end"]:
        verdict = within_bound(values(parent_runs, m["name"]), values(change_runs, m["name"]),
                               m["better"], m["bound"])
        print(f"bound {m['name']:14s}: change median worse by {verdict['worse']:+.2%} "
              f"(bound {m['bound']:.0%}): {'within' if verdict['holds'] else 'EXCEEDED'}")
        ok &= verdict["holds"]
    return ok


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to have quartiles")
    parent, change = args.parent.resolve(), args.change.resolve()
    spec = json.loads((parent / "BENCHMARK.json").read_text())
    try:
        runs = run_pairs(parent, change, args.workload, args.pairs, args.seconds)
    except RunFailed as exc:
        print(f"ab_pairs: {exc}", file=sys.stderr)
        return 2
    return 0 if report(*runs, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
