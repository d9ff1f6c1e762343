"""Scan the three-qubit curve over small shifts of omega_h for gate failures.

Usage::

    python3 tools/first_law_scan.py

Runs the equivalent of ``qpump curve --params params/three_qubit.params
--system three_qubit --points 30 --set omega_h=61.5+k*1e-6`` for k = 0..999
on the ``src`` tree next to this script.  For each shift at which a residual
gate of the solve fails, it prints ``k``, ``omega_h`` and the gate's message,
which carries the residual; then the number of failing shifts.  Near point
27 of this sweep the largest current sits just above the first-law gate's
threshold while the current sum sits at the long-double assembly floor, so
a few shifts fail by chance.  The exit code is 0 when no shift fails and 1
otherwise.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qpump.cli import _curve_setup, parse_params  # noqa: E402
from qpump.experiments import characteristic_curve  # noqa: E402
from qpump.steady import NonConvergedError  # noqa: E402

PARAMS = ROOT / "params" / "three_qubit.params"
SHIFTS = 1000
STEP = 1e-6
POINTS = 30


def main() -> int:
    params = parse_params(str(PARAMS))
    base = params["omega_h"]
    failures = 0
    for k in range(SHIFTS):
        params["omega_h"] = base + k * STEP
        try:
            characteristic_curve("three_qubit", _curve_setup(params, POINTS), n_points=POINTS)
        except NonConvergedError as exc:
            failures += 1
            print(f"k={k} omega_h={params['omega_h']:.6f}: {exc}")
    print(f"{failures} of {SHIFTS} shifts fail")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
