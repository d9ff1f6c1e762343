"""Write the output of a fixed set of default-seed CLI runs, one file each.

Usage::

    python3 tools/cli_snapshot.py OUTDIR

Runs ``python -m qpump.cli`` on the ``src`` tree next to this script for
``currents`` (reference and squeezed parameters, and the reference chiller
at N = 3..10), ``optimize`` (both parameter files), ``sweep-n``,
``histogram --samples 1000 --threads 1``, ``curve --system both --points
100`` and ``compare`` on the three-qubit parameters, plus a JSON run of
``histogram`` and ``compare``, and records the exit code of ``selftest``.
Each file holds the command's stdout; a failing command also leaves its
exit code and stderr in the file.  Two trees whose ``OUTDIR``s compare
equal under ``diff -r`` produce byte-identical output at the default seed.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = "params/reference_chiller.params"
SQUEEZED = "params/squeezed_work.params"
THREE_QUBIT = "params/three_qubit.params"

COMMANDS = {
    "currents_reference": ["currents", "--params", REFERENCE],
    "currents_squeezed": ["currents", "--params", SQUEEZED],
    **{f"currents_n{n:02d}": ["currents", "--params", REFERENCE, "--set", f"n_levels={n}"]
       for n in range(3, 11)},
    "optimize_reference": ["optimize", "--params", REFERENCE],
    "optimize_squeezed": ["optimize", "--params", SQUEEZED],
    "sweep_n": ["sweep-n", "--params", REFERENCE],
    "histogram": ["histogram", "--samples", "1000", "--threads", "1"],
    "curve": ["curve", "--params", THREE_QUBIT, "--system", "both", "--points", "100"],
    "compare": ["compare", "--params", THREE_QUBIT],
    # the JSON emitter carries the same metadata as the CSV header
    "histogram_json": ["histogram", "--samples", "100", "--threads", "1", "--format", "json"],
    "compare_json": ["compare", "--params", THREE_QUBIT, "--points", "32", "--format", "json"],
}


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "qpump.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    out = Path(argv[0])
    out.mkdir(parents=True, exist_ok=True)
    failed = 0
    for name, cmd in COMMANDS.items():
        proc = _run(cmd)
        text = proc.stdout
        if proc.returncode != 0:
            failed += 1
            text += f"# exit: {proc.returncode}\n{proc.stderr}"
        (out / f"{name}.out").write_text(text)
    selftest = _run(["selftest"])
    (out / "selftest.exit").write_text(f"{selftest.returncode}\n")
    failed += selftest.returncode != 0
    print(f"cli_snapshot: {len(COMMANDS) + 1} commands, {failed} failed, in {out}",
          file=sys.stderr)
    return 0 if failed == 0 else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
