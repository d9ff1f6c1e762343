"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a qpump checkout:

    python3 perfbench/spread.py --runs 10 --out runs.json

For every workload of BENCHMARK.json the benchmark runs once per seed, for
seeds 1 to ``--runs``, workloads interleaved.  Per metric the report gives
the median, the quartiles of ``statistics.quantiles(values, n=4)`` and the
spread, the interquartile distance as a share of the median, next to the
bound of BENCHMARK.json.  The exit code is 0 only when no item failed and
every spread is below a third of its bound, except that of ``setup_s``: its
spread is printed but not gated (see README.md, "Reference speed").  The
notes that ``run.py`` prints besides its metrics, such as the wall-clock
rate and the calibration time, are reported the same way, without a bound.
``--out`` saves every run's result line and notes together with the machine
facts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """One run's result line, with its notes under ``notes``, and the
    machine facts."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True)
    lines = done.stdout.strip().splitlines()
    tagged = {l.split(":", 1)[0]: json.loads(l.split(" ", 1)[1]) for l in lines
              if l.startswith(("machine: ", "notes: "))}
    result = json.loads(lines[-1])
    result["notes"] = tagged["notes"]
    return result, tagged["machine"]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None, help="JSON file for all results")
    args = parser.parse_args()
    if args.runs < 2:
        parser.error("--runs must be at least 2, to have quartiles")

    spec = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    machine = None
    for seed in range(1, args.runs + 1):
        for workload in workloads:
            result, machine = run_once(workload, seed, seconds, args.trace)
            result["seed"] = seed
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)

    steady = True
    print(f"\n{'workload':20s} {'metric':40s} {'unit':6s} {'median':>12s} {'q1':>12s} "
          f"{'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, runs in results.items():
        for kind, name in ([("metrics", n) for n in runs[0]["metrics"]]
                           + [("notes", n) for n in runs[0]["notes"] if n != "fail_share"]):
            values = [r[kind][name]["value"] for r in runs]
            median, q1, q3, s = spread(values)
            bound = bounds.get(name) if kind == "metrics" else None
            mark = ""
            if bound is not None:
                ok = s < bound / 3
                if name == "setup_s":
                    mark = "  not gated" + ("" if ok else ", above bound/3")
                else:
                    steady &= ok
                    mark = "" if ok else "  above bound/3"
            unit = runs[0][kind][name]["unit"]
            print(f"{workload:20s} {name:40s} {unit:6s} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {s:8.4f} {bound if bound is not None else '':>6}{mark}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        print(f"{workload:20s} {'fail_share':40s} {'share':6s} {failed / attempted:12.6g}"
              f"   ({failed} of {attempted} items failed)")
        steady &= failed == 0
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seconds": seconds, "trace": args.trace, "machine": machine,
             "results": results}, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
