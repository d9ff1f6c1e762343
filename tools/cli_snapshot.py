"""Write the output of a fixed set of default-seed CLI runs, one file each.

Usage::

    python3 tools/cli_snapshot.py OUTDIR
    python3 tools/cli_snapshot.py --diff OLDDIR NEWDIR

Runs ``python -m qpump.cli`` on the ``src`` tree next to this script for
``currents`` (reference and squeezed parameters, and the reference chiller
at N = 3..10), ``optimize`` and ``sweep-n`` (both parameter files),
``histogram --samples 1000`` at ``--threads 1`` and 2, ``curve --system
both`` at 100 and 200 points, a stiff 50-point one (``--set gamma_w=1e-6
--set T_c=0.5``) and ``compare`` on the three-qubit parameters, plus a JSON
run of ``histogram`` and ``compare``, three runs whose kernel verdict
comes from ``_matrix_verdict`` alone (a ``currents`` and an ``optimize``
run that it rejects, and the underflowing reference chiller that it lets
stand), a ``currents`` run past the weak-coupling threshold, whose
warning line and verdict it keeps, and records the exit code of
``selftest``: 27 files.  The
200-point and the stiff curve each held a row whose last digits differed
between OpenBLAS's CPU kernels.
Each file holds the command's stdout; a failing command also leaves its
exit code and stderr in the file.  A run counts as failed when its exit
code is not the one it is expected to end with (``EXPECTED_EXIT``, else
0).  Two trees whose ``OUTDIR``s compare equal under ``diff -r`` produce
byte-identical output at the default seed.

``--diff`` compares two such directories.  For each file that differs it
prints, per numeric column (or metadata field), the largest absolute and
relative change and the largest change in ulps (units in the last place of
the larger of the two doubles); a column whose rows carry a text label (``variant``,
``system``) is reported per label.  Every non-numeric field, row or line
that differs is printed as it is.  The exit code is 0 when every file is
byte-identical and 1 otherwise.
"""

from __future__ import annotations

import difflib
import json
import math
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
    "sweep_n_squeezed": ["sweep-n", "--params", SQUEEZED],
    "histogram": ["histogram", "--samples", "1000", "--threads", "1"],
    "histogram_pool": ["histogram", "--samples", "1000", "--threads", "2"],
    "curve": ["curve", "--params", THREE_QUBIT, "--system", "both", "--points", "100"],
    "curve_200": ["curve", "--params", THREE_QUBIT, "--system", "both", "--points", "200"],
    "curve_stiff": ["curve", "--params", THREE_QUBIT, "--system", "both", "--points", "50",
                    "--set", "gamma_w=1e-6", "--set", "T_c=0.5"],
    "compare": ["compare", "--params", THREE_QUBIT],
    # the JSON emitter carries the same metadata as the CSV header
    "histogram_json": ["histogram", "--samples", "100", "--threads", "1", "--format", "json"],
    "compare_json": ["compare", "--params", THREE_QUBIT, "--points", "32", "--format", "json"],
    # verdicts of the kernel screen's fallback, _matrix_verdict on one matrix
    # alone: two rejections (from the fuzz_verdicts record) and a point
    # that only its scaled matrix lets stand, in boundary mode
    "currents_degenerate": ["currents", "--params", REFERENCE, "--set", "omega_h=1e7"],
    "optimize_degenerate": ["optimize", "--params", REFERENCE, "--set", "gamma_w=1e-300"],
    "currents_underflow": ["currents", "--params", REFERENCE, "--set", "T_c=1e-3",
                           "--set", "gamma_c=1e300", "--set", "T_w=1e300"],
    # a WeakCouplingWarning line, then the kernel verdict
    "currents_weak": ["currents", "--params", REFERENCE, "--set", "gamma_w=1e300"],
}
# the solver failures (DegenerateKernelError) that the snapshot holds
EXPECTED_EXIT = {"currents_degenerate": 2, "optimize_degenerate": 2, "currents_weak": 2}


def _run(argv: list[str]) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, "-m", "qpump.cli", *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True)


def _number(value) -> float | None:
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _records(text: str):
    """(meta, columns, rows, other lines) of one CLI output, CSV or JSON."""
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if isinstance(doc, dict):
        columns, rows = doc.pop("columns", []), doc.pop("rows", [])
        meta = {}
        for key, value in doc.items():
            if isinstance(value, dict):
                meta.update({f"{key}.{k}": v for k, v in value.items()})
            else:
                meta[key] = value
        return meta, columns, rows, []
    meta, columns, rows, other = {}, None, [], []
    for line in text.splitlines():
        if line.startswith("# ") and ":" in line:
            key, _, value = line[2:].partition(":")
            meta[key] = value.strip()
        elif columns is None and "," in line:
            columns = line.split(",")
        elif columns and line.count(",") == len(columns) - 1:
            rows.append(line.split(","))
        else:
            other.append(line)
    return meta, columns or [], rows, other


def compare_outputs(old: str, new: str) -> list[str]:
    """Report lines for two outputs of one command: the largest change of
    each numeric column or metadata field that moved, then every
    non-numeric field, row or line that differs."""
    (meta_a, cols_a, rows_a, other_a), (meta_b, cols_b, rows_b, other_b) = \
        _records(old), _records(new)
    moved: dict[str, list] = {}  # column -> [max |d|, max relative d, max ulps, count]
    texts = []

    def note(column, x, y, where):
        u, v = _number(x), _number(y)
        if x == y or (u is not None and u == v):
            return
        if u is None or v is None:
            texts.append(f"{where}: {x!r} -> {y!r}")
            return
        d = abs(v - u)
        entry = moved.setdefault(column, [0.0, 0.0, 0.0, 0])
        entry[0] = max(entry[0], d)
        entry[1] = max(entry[1], d / max(abs(u), abs(v)))
        entry[2] = max(entry[2], d / math.ulp(max(abs(u), abs(v))))
        entry[3] += 1

    for key in [*meta_a, *(k for k in meta_b if k not in meta_a)]:
        note(key, meta_a.get(key), meta_b.get(key), key)
    if cols_a != cols_b or len(rows_a) != len(rows_b):
        texts.append(f"table: {len(rows_a)} rows of {cols_a} -> "
                     f"{len(rows_b)} rows of {cols_b}")
    else:
        for i, (row_a, row_b) in enumerate(zip(rows_a, rows_b)):
            label = " ".join(str(x) for x in row_a if _number(x) is None)
            for column, x, y in zip(cols_a, row_a, row_b):
                name = f"{column} [{label}]" if label else column
                note(name, x, y, f"row {i} {column}")
    texts += [line for line in difflib.unified_diff(other_a, other_b, lineterm="", n=0)
              if line[:1] in "+-" and line[:3] not in ("---", "+++")]
    return [f"{name}: max |d| {d:.2e}, max rel {rel:.2e}, max {ulps:.3g} ulp ({count} changed)"
            for name, (d, rel, ulps, count) in moved.items()] + texts


def diff(old_dir: Path, new_dir: Path) -> int:
    names = sorted({p.name for p in old_dir.iterdir()} | {p.name for p in new_dir.iterdir()})
    differing = 0
    for name in names:
        old, new = old_dir / name, new_dir / name
        if not (old.exists() and new.exists()):
            print(f"{name}: only in {old_dir if old.exists() else new_dir}")
        elif old.read_bytes() == new.read_bytes():
            continue
        else:
            print(f"{name}:")
            for line in compare_outputs(old.read_text(), new.read_text()):
                print(f"  {line}")
        differing += 1
    print(f"cli_snapshot: {differing} of {len(names)} files differ", file=sys.stderr)
    return 0 if differing == 0 else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--diff":
        return diff(Path(argv[1]), Path(argv[2]))
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
            text += f"# exit: {proc.returncode}\n{proc.stderr}"
        failed += proc.returncode != EXPECTED_EXIT.get(name, 0)
        (out / f"{name}.out").write_text(text)
    selftest = _run(["selftest"])
    (out / "selftest.exit").write_text(f"{selftest.returncode}\n")
    failed += selftest.returncode != 0
    print(f"cli_snapshot: {len(COMMANDS) + 1} commands, {failed} failed, in {out}",
          file=sys.stderr)
    return 0 if failed == 0 else 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
