"""Record the verdict of every run of a seeded CLI override fuzz, and compare two records.

Usage::

    python3 tools/fuzz_verdicts.py [--src SRC] OUT
    python3 tools/fuzz_verdicts.py --diff OLD NEW

Runs ``qpump.cli.run`` in this process, on the ``src`` tree next to this
script or on ``SRC``, for 3,200 argv: seeds 0 to 7, 400 runs each, in turn
``currents``, ``optimize`` and ``sweep-n --n-min 3 --n-max 4`` on the
reference chiller, and ``curve --system <drawn> --points 4`` and ``compare
--points 4`` on the three-qubit parameters.  Each run sets 1 to 3
parameters to values from the edge of the double range and past it
(:func:`fuzz_overrides`, which the CLI tests draw too).  Each run writes one
JSON line to ``OUT``: its seed, argv, exit code, last stderr line and the
SHA-256 of its stdout.  Each run shows its warnings as a fresh process
would, and an exception that escapes ``run`` is recorded with the exit code
``"raised"`` and its type and message as the stderr line.

``--diff`` compares the records of two trees run by run.  It prints every
run whose exit code or stdout differs, and every run whose last stderr line
alone differs, old line then new, and counts both.  The exit code is 0 when
every run has the same exit code and stdout in both records, and 1
otherwise (also when the two records hold different argv).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = "params/reference_chiller.params"
THREE_QUBIT = "params/three_qubit.params"

SEEDS = range(8)
RUNS = 400
COMMANDS = [
    ["currents", "--params", REFERENCE],
    ["optimize", "--params", REFERENCE],
    ["sweep-n", "--params", REFERENCE, "--n-min", "3", "--n-max", "4"],
    ["curve", "--params", THREE_QUBIT, "--points", "4"],
    ["compare", "--params", THREE_QUBIT, "--points", "4"],
]
SYSTEMS = ["ideal", "three_qubit", "both"]

FUZZ_KEYS = ["n_levels", "omega_h", "omega_c", "T_w", "T_h", "T_c", "gamma_w", "gamma_h",
             "gamma_c", "squeeze_db", "saturated_work", "g"]
# the edge of the double range, and past it
FUZZ_VALUES = ["0", "-1", "1", "0.5", "2", "1e7", "1e-3", "1e300", "-1e300", "1e-300",
               "nan", "inf", "-inf"]


def fuzz_overrides(rng) -> list[str]:
    """``--set`` arguments for 1 to 3 distinct keys, each with an edge value."""
    chosen = rng.choice(len(FUZZ_KEYS), size=int(rng.integers(1, 4)), replace=False)
    return [a for k in chosen for a in ("--set", f"{FUZZ_KEYS[k]}={rng.choice(FUZZ_VALUES)}")]


def fuzz_argv(seed: int, runs: int = RUNS) -> list[list[str]]:
    """The argv of the ``runs`` runs of one seed."""
    rng = np.random.default_rng(seed)
    out = []
    for case in range(runs):
        command = COMMANDS[case % len(COMMANDS)]
        sets = fuzz_overrides(rng)
        if command[0] == "curve":
            command = [*command, "--system", str(rng.choice(SYSTEMS))]
        out.append([*command, *sets])
    return out


def verdict(run, argv: list[str]) -> dict:
    """Exit code, last stderr line and stdout SHA-256 of one ``run(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    # leaving catch_warnings resets the registry of shown warnings, so that
    # each run shows its own, as a fresh process does
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # recorded, not raised: the record is the point
            code = "raised"
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    lines = err.getvalue().splitlines()
    return {"argv": argv, "exit": code, "stderr": lines[-1] if lines else "",
            "stdout": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def record(path: Path, src: Path) -> int:
    sys.path.insert(0, str(src))
    from qpump.cli import run

    os.chdir(ROOT)  # the argv name the parameter files relative to the tree
    count = 0
    with open(path, "w") as f:
        for seed in SEEDS:
            for argv in fuzz_argv(seed):
                f.write(json.dumps({"seed": seed, **verdict(run, argv)}) + "\n")
                count += 1
    print(f"fuzz_verdicts: {count} runs of {src} in {path}", file=sys.stderr)
    return 0


def diff(old_path: Path, new_path: Path) -> int:
    old, new = ([json.loads(line) for line in open(p)] for p in (old_path, new_path))
    if [r["argv"] for r in old] != [r["argv"] for r in new]:
        print("fuzz_verdicts: the two records hold different argv", file=sys.stderr)
        return 1
    differing = stderr_only = 0
    for a, b in zip(old, new):
        argv = " ".join(a["argv"])
        if (a["exit"], a["stdout"]) != (b["exit"], b["stdout"]):
            differing += 1
            print(f"differs: seed {a['seed']}: {argv}\n  exit {a['exit']} -> {b['exit']}, "
                  f"stdout {a['stdout'][:12]} -> {b['stdout'][:12]}\n"
                  f"  - {a['stderr']}\n  + {b['stderr']}")
        elif a["stderr"] != b["stderr"]:
            stderr_only += 1
            print(f"stderr: seed {a['seed']}: {argv}\n  - {a['stderr']}\n  + {b['stderr']}")
    print(f"fuzz_verdicts: {len(old)} runs; {differing} differ in exit code or stdout, "
          f"{stderr_only} in the last stderr line alone", file=sys.stderr)
    return 0 if differing == 0 else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(Path(argv[1]), Path(argv[2]))
    if len(argv) == 3 and argv[0] == "--src":
        return record(Path(argv[2]).resolve(), Path(argv[1]).resolve())
    if len(argv) == 1:
        return record(Path(argv[0]).resolve(), ROOT / "src")
    print(__doc__.strip(), file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
