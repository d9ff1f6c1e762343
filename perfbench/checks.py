"""Correctness checks on the text that ``qpump.cli.run`` emits.

Each check takes an output and returns how many of its items failed, so the
benchmark can count failures against items attempted.  A defect in the output
as a whole (wrong row count, malformed table, a curve-level bound broken)
fails every item of that output.  The checks run outside the timed interval.
"""

from __future__ import annotations

import math

# The 3/4 bound on the COP at maximum power over the Carnot COP.
EPS_RATIO_BOUND = 0.75
# Ideal-curve identity eps/eps_Carnot = omega_c/window, absolute.
IDEAL_EFFICIENCY_ATOL = 1e-9
# Agreement of the curve's q_c with the classical rate-equation oracle.
ORACLE_RTOL = 1e-9
# The three-qubit curve closes: its last point keeps at most this share of
# the peak power.
CLOSING_SHARE = 0.05
# Ideal over three-qubit peak cooling power at the comparison point.
POWER_RATIO_MIN = 1e3


def parse_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split CSV output into ``# key: value`` metadata, header and rows."""
    meta: dict[str, str] = {}
    table: list[list[str]] = []
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            meta[key.strip()] = value.strip()
        elif line:
            table.append(line.split(","))
    if not table:
        raise ValueError("output has no header row")
    return meta, table[0], table[1:]


def _floats(rows: list[list[str]], column: int) -> list[float]:
    return [float(row[column]) for row in rows]


def check_ensemble(text: str, n_samples: int) -> int:
    """``histogram`` output: one row per sample, in order, every eps_ratio
    finite and inside (0, 3/4)."""
    try:
        _, header, rows = parse_csv(text)
    except ValueError:
        return n_samples
    if header != ["sample", "eps_ratio", "N"] or len(rows) != n_samples:
        return n_samples
    failed = 0
    for index, row in enumerate(rows):
        try:
            ok = (len(row) == 3 and int(row[0]) == index
                  and 0.0 < float(row[1]) < EPS_RATIO_BOUND
                  and 3 <= int(row[2]) <= 10)
        except ValueError:
            ok = False
        failed += not ok
    return failed


def check_identical(serial_text: str, pool_text: str, n_samples: int) -> int:
    """Serial and pool ensembles at one seed must be byte-identical."""
    return 0 if serial_text == pool_text else n_samples


def _curve_rows(text: str, system: str, n_points: int) -> list[list[str]] | None:
    try:
        _, header, rows = parse_csv(text)
    except ValueError:
        return None
    if header != ["omega_c", "q_c", "eps", "eps_over_carnot", "system"]:
        return None
    if len(rows) != n_points or any(len(r) != 5 or r[4] != system for r in rows):
        return None
    try:
        if not all(math.isfinite(x) for r in rows for x in map(float, r[:4])):
            return None
    except ValueError:
        return None
    return rows


def fixed_work_window(params: dict) -> float:
    """Cooling-window edge at fixed work frequency, from the temperatures;
    computed here rather than by qpump, so the check does not rest on the
    code it checks."""
    t_w, t_h, t_c = params["T_w"], params["T_h"], params["T_c"]
    k = (t_w - t_h) * t_c / ((t_w - t_c) * t_h)
    return (params["omega_h"] - params["omega_c"]) * k / (1.0 - k)


def check_curve_ideal(text: str, params: dict, n_points: int, oracle_q_cold) -> int:
    """``curve --system ideal``: eps/eps_Carnot = omega_c/window at every
    point; the first, middle and last points match ``oracle_q_cold(omega_c)``."""
    rows = _curve_rows(text, "ideal", n_points)
    if rows is None:
        return n_points
    window = fixed_work_window(params)
    failed = sum(abs(float(r[3]) - float(r[0]) / window) > IDEAL_EFFICIENCY_ATOL
                 for r in rows)
    for index in sorted({0, n_points // 2, n_points - 1}):
        omega_c, q_c = float(rows[index][0]), float(rows[index][1])
        q_ref = oracle_q_cold(omega_c)
        failed += abs(q_c - q_ref) > ORACLE_RTOL * abs(q_ref)
    return min(failed, n_points)


def peak_power(text: str, system: str, n_points: int) -> float:
    """Largest q_c of a curve output, NaN when the output is malformed."""
    rows = _curve_rows(text, system, n_points)
    return max(_floats(rows, 1)) if rows else math.nan


def check_curve_three_qubit(text: str, n_points: int, ideal_peak: float) -> int:
    """``curve --system three_qubit``: stays below Carnot and delivers at
    most 1/1000 of the ideal peak power on the same grid."""
    rows = _curve_rows(text, "three_qubit", n_points)
    if rows is None:
        return n_points
    ok = (max(_floats(rows, 3)) < 1.0
          and ideal_peak / max(_floats(rows, 1)) >= POWER_RATIO_MIN)
    return 0 if ok else n_points


def check_closing(text: str, n_points: int) -> int:
    """The three-qubit curve closes: its point nearest the window edge keeps
    at most CLOSING_SHARE of the peak power."""
    rows = _curve_rows(text, "three_qubit", n_points)
    if rows is None:
        return n_points
    q_c = _floats(rows, 1)
    return 0 if q_c[-1] <= CLOSING_SHARE * max(q_c) else n_points
