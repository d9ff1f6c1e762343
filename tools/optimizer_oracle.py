"""Check the optimizer's cooling power against a 50-digit mpmath solve.

Usage::

    python3 tools/optimizer_oracle.py [--draws K] [--seed S] [--digits D]

Draws K fridges of the random ensemble, ``SampleRanges(seed=S)`` (default
400 fridges of seed 7), as ``qpump histogram`` draws them, with their
redraws.  For each it maximizes the cooling power, takes the six double
rates at ``omega_c_star``, and solves that chain three ways:

* ``gth``: the optimizer's own body, ``_CoolingPowerEvaluator.q_cold``;
* ``dgesv``: a dense LAPACK solve of the rate matrix with its first row
  replaced by the trace constraint, the optimizer's former route;
* mpmath at D digits (default 50), the reference.

It prints the worst relative ``q_c`` error of each double route, with the
fridge's index and level count, and then the worst relative error of each
current of :func:`qpump.steady.solve` at the same optima
(``solve_q_work``, ``solve_q_hot``, ``solve_q_cold``), and how many of
those solves raised.  mpmath is imported by this script only.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qpump.experiments import (  # noqa: E402
    EmptyWindowError,
    SampleRanges,
    _CoolingPowerEvaluator,
    _draw,
    maximize_cooling_power,
)
from qpump.pump import WeakCouplingWarning, transition_pairs  # noqa: E402
from qpump.steady import NonConvergedError, _ladder, solve  # noqa: E402


def mpmath_currents(n: int, rates, omega_c: float, omega_h: float,
                    digits: int = 50) -> dict[str, float]:
    """Heat currents of the N-level ladder with the six double ``rates``
    (work, hot, cold; down then up) at ``omega_c`` and ``omega_h``, from the
    stationary populations of its rate matrix solved in mpmath at ``digits``
    digits: each bath's energy gap (``omega_c``, ``omega_h - omega_c``,
    ``omega_h``) times its net upward flux.  Every double converts to mpmath
    exactly, so only the solve differs from the program's."""
    import mpmath

    with mpmath.workdps(digits):
        mat = mpmath.zeros(n, n)
        edges = {"work": [], "hot": [], "cold": []}
        for k, label in enumerate(edges):
            down, up = mpmath.mpf(rates[2 * k]), mpmath.mpf(rates[2 * k + 1])
            for lo, hi in transition_pairs(n, label):
                lo, hi = lo - 1, hi - 1  # 0-based
                mat[lo, hi] += down
                mat[hi, hi] -= down
                mat[hi, lo] += up
                mat[lo, lo] -= up
                edges[label].append((lo, hi, down, up))
        for j in range(n):
            mat[0, j] = 1
        rhs = mpmath.matrix([1] + [0] * (n - 1))
        p = mpmath.lu_solve(mat, rhs)
        w_c, w_h = mpmath.mpf(omega_c), mpmath.mpf(omega_h)
        gaps = {"work": w_h - w_c, "hot": w_h, "cold": w_c}
        return {label: float(gaps[label] * mpmath.fsum(up * p[lo] - down * p[hi]
                                                       for lo, hi, down, up in pairs))
                for label, pairs in edges.items()}


def dgesv_q_cold(n: int, rates, omega_c: float) -> float:
    """Cooling power from a dense LAPACK solve of the same chain: the rate
    matrix with its first row replaced by the trace constraint."""
    (mat,) = _ladder(n).blocks(np.array(rates)[:, None])
    mat[0, :] = 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    p = np.linalg.solve(mat, rhs)
    p = p / p.sum()
    lo, hi = (np.array(transition_pairs(n, "cold")) - 1).T  # 0-based
    return float(omega_c * (rates[5] * p[lo].sum() - rates[4] * p[hi].sum()))


def ensemble_optima(ranges: SampleRanges, draws: int):
    """(index, evaluator, omega_c_star) of the first ``draws`` fridges of
    the ensemble, each at its first attempt that the optimizer accepts."""
    for index in range(draws):
        for attempt in range(64):
            cfg = _draw(ranges, index, attempt)
            if cfg is None:
                continue
            try:
                optimum = maximize_cooling_power(cfg)
            except (EmptyWindowError, np.linalg.LinAlgError):
                continue
            yield index, _CoolingPowerEvaluator(cfg), optimum.omega_c_star
            break


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--draws", type=int, default=400)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--digits", type=int, default=50)
    args = parser.parse_args(argv)

    worst = {name: (0.0, None) for name in
             ("gth", "dgesv", "solve_q_work", "solve_q_hot", "solve_q_cold")}
    failures = []
    for index, ev, omega_c in ensemble_optima(SampleRanges(seed=args.seed), args.draws):
        rates = ev._channels(omega_c)
        ref = mpmath_currents(ev.n, rates, omega_c, ev.template.omega_h, args.digits)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeakCouplingWarning)
                currents = solve(dataclasses.replace(ev.template, omega_c=omega_c)).currents
        except (np.linalg.LinAlgError, NonConvergedError) as exc:
            failures.append((index, ev.n, exc))
            currents = {}
        for name, q, q_ref in (
                ("gth", ev.q_cold(omega_c), ref["cold"]),
                ("dgesv", dgesv_q_cold(ev.n, rates, omega_c), ref["cold"]),
                *((f"solve_q_{label}", q, ref[label]) for label, q in currents.items())):
            err = abs(q - q_ref) / abs(q_ref)
            if err >= worst[name][0]:
                worst[name] = (err, (index, ev.n))
    print(f"# {args.draws} draws of SampleRanges(seed={args.seed}), "
          f"q_c at omega_c_star against mpmath at {args.digits} digits")
    print("route,worst_rel_error,draw,n_levels")
    for name, (err, where) in worst.items():
        print(f"{name},{err:.3e},{where[0]},{where[1]}")
    if failures:
        index, n, exc = failures[0]
        print(f"# solve() raised at {len(failures)} optima; first at draw {index}, "
              f"n_levels {n}: {type(exc).__name__}: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
