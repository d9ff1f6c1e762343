"""Power optimization, stage-scaling sweeps, random-sampling bound checks
and performance characteristics.

Every experiment here is deterministic: randomness is drawn from
per-sample substreams keyed by (seed, sample index, attempt), so results are
bit-reproducible for a given seed regardless of how many worker processes
evaluate them.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field, replace
from functools import cache, reduce

import numpy as np

from .linalg import KERNEL_RESIDUAL_RTOL, NoKernelError, _kernel_decisions
from .pump import (
    BathSpec,
    PumpConfig,
    WeakCouplingWarning,
    _level_energy,
    _rates,
    carnot_cop,
    cooling_window_max,
    cooling_window_max_fixed_work,
    effective_temperatures,
    squeeze_db_to_r,
    window_max,
)
from .steady import (
    _SCALE_OVERFLOW,
    NonConvergedError,
    _current_scale,
    _ladder,
    _ladder_balance,
    _ladder_rates,
    _ladder_slots,
    _solve_pumps,
)
from .three_qubit import ThreeQubitConfig, _solve_fridges

# Kept importable for the layer probes of perfbench/layers.py::install_probes,
# though the optimizer and the curves call none of them.
from .pump import decay_rates  # noqa: F401
from .steady import solve  # noqa: F401
from .three_qubit import solve_three_qubit  # noqa: F401

__all__ = [
    "EmptyWindowError",
    "NoCoolingPowerError",
    "Optimum",
    "StageResult",
    "SampleRanges",
    "HistogramResult",
    "PerformancePoint",
    "CurveSetup",
    "maximize_cooling_power",
    "sweep_stages",
    "cop_histogram",
    "characteristic_curve",
    "DEFAULT_SEED",
    "COARSE_GRID_POINTS",
    "REFINE_RELATIVE_WIDTH",
]

DEFAULT_SEED = 123456789

# Optimizer schedule: coarse scan, then Brent's parabolic refinement of the
# best grid cell down to this window-relative tolerance.
COARSE_GRID_POINTS = 64
REFINE_RELATIVE_WIDTH = 1e-6
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0

_VARIANTS = ("plain", "squeezed", "saturated")

# Points of a characteristic curve solved as one stack: a bound on the
# stack's memory, about 20 kB a point.
_STACK_POINTS = 512


class EmptyWindowError(ValueError):
    """The cooling window is empty; there is nothing to maximize over."""


class NoCoolingPowerError(ValueError):
    """A machine has no cooling power at its optimum or on its curve: a
    solver failure, which the ensemble does not redraw."""


@dataclass(frozen=True)
class Optimum:
    """Result of maximizing the cooling power over the cold frequency."""

    omega_c_star: float
    q_c_max: float
    eps_star: float
    eps_ratio: float
    evaluations: int
    # grid points that failed a kernel gate plus refinement steps that
    # raised (and counted as -inf)
    failed_evaluations: int = 0

    def __post_init__(self):
        if not (self.q_c_max > 0):
            raise NoCoolingPowerError(f"optimum has non-positive cooling power {self.q_c_max}")
        if not (0 < self.eps_ratio < 1):
            raise ValueError(f"eps_ratio must lie in (0, 1), got {self.eps_ratio}")


@dataclass(frozen=True)
class StageResult:
    n_levels: int
    variant: str
    optimum: Optimum


@cache
def _log_bounds(intervals: tuple) -> tuple[np.ndarray, np.ndarray]:
    """``SampleRanges.log_low`` and ``log_span`` of its (name, low, high)
    intervals: once for each set of them, and read-only."""
    for name, lo, hi in intervals:
        if not (0 < lo <= hi):
            raise ValueError(f"{name} interval must be positive and ordered")
    low, high = np.array([(np.log(lo), np.log(hi)) for _, lo, hi in intervals]).T
    span = high - low
    for bounds in (low, span):
        bounds.setflags(write=False)
    return low, span


@dataclass(frozen=True)
class SampleRanges:
    """Sampling distributions for the random-fridge ensemble.

    All two-tuples are (low, high) of log-uniform draws except ``n_levels``
    which is a uniform inclusive integer range.  ``gamma_frac`` scales
    against min(cooling window, T_c) and stays at or below the
    weak-coupling threshold by construction; draws violating the remaining
    config invariants are rejected and redrawn (counted).
    """

    t_cold: tuple[float, float] = (1.0, 1e2)
    hot_over_cold: tuple[float, float] = (2.0, 1e2)
    work_over_hot: tuple[float, float] = (2.0, 1e2)
    omega_h_over_t_cold: tuple[float, float] = (0.1, 10.0)
    gamma_frac: tuple[float, float] = (1e-5, 1e-2)
    n_levels: tuple[int, int] = (3, 10)
    seed: int = DEFAULT_SEED
    # (5,) arrays of each log-uniform range's np.log(low) and its width
    # np.log(high) - np.log(low), in draw order: T_c, T_h/T_c, T_w/T_h,
    # omega_h/T_c and the gamma fraction
    log_low: np.ndarray = field(init=False, repr=False, compare=False)
    log_span: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        low, span = _log_bounds(tuple((name, *getattr(self, name)) for name in (
            "t_cold", "hot_over_cold", "work_over_hot", "omega_h_over_t_cold", "gamma_frac")))
        object.__setattr__(self, "log_low", low)
        object.__setattr__(self, "log_span", span)
        if not (self.hot_over_cold[0] > 1.0 and self.work_over_hot[0] >= 1.0):
            raise ValueError("hot_over_cold must lie above 1 and work_over_hot at or above 1, "
                             "so that T_w >= T_h > T_c")
        lo, hi = self.n_levels
        if not (3 <= lo <= hi <= 10):
            raise ValueError("n_levels range must lie within [3, 10]")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class HistogramResult:
    """Ensemble of COP-at-maximum-power ratios, plus bookkeeping."""

    eps_ratios: np.ndarray
    n_levels: np.ndarray
    rejected: int
    n_samples: int
    seed: int

    def summary(self, bins: int = 60, top: float = 0.75) -> dict:
        counts, edges = np.histogram(self.eps_ratios, bins=bins, range=(0.0, top))
        out = {
            "count": int(self.eps_ratios.size),
            "rejected": self.rejected,
            "bin_edges": edges,
            "bin_counts": counts,
        }
        if self.eps_ratios.size:
            out["max"] = float(self.eps_ratios.max())
            out["mean"] = float(self.eps_ratios.mean())
        return out


@dataclass(frozen=True)
class PerformancePoint:
    """One (cold frequency, cooling power, efficiency) sample of a sweep."""

    omega_c: float
    q_c: float
    eps: float
    eps_over_carnot: float

    def __post_init__(self):
        for name in ("omega_c", "q_c", "eps", "eps_over_carnot"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} is not finite")
        if self.eps_over_carnot > 1.0 + 1e-9:
            raise ValueError(
                f"efficiency {self.eps_over_carnot} exceeds the Carnot ratio bound"
            )


@dataclass(frozen=True)
class CurveSetup:
    """Parameters of a fixed-work-frequency performance sweep.

    The work frequency stays fixed while the cold frequency sweeps the
    cooling window, with ``omega_h = omega_c + omega_w`` following along;
    this is the parametrization shared by the three-qubit fridge and its
    ideal counterpart so the two can be compared point by point.
    """

    omega_w: float
    t_work: float
    t_hot: float
    t_cold: float
    gamma_work: float
    gamma_hot: float
    gamma_cold: float
    g: float = 0.1
    n_levels: int = 8

    @property
    def temps(self) -> tuple[float, float, float]:
        return (self.t_work, self.t_hot, self.t_cold)


# ---------------------------------------------------------------------------
# fast q_c(omega_c) evaluation for the optimizer

# Largest finite double: ``abs(x) <= _HUGE`` is false for inf and NaN, on a
# float and elementwise on an array, without numpy's scalar call overhead.
_HUGE = float(np.finfo(float).max)


def _padded_rates(n: list[int], rates: list[np.ndarray], points: int) -> tuple[list, ...]:
    """:func:`~qpump.steady._ladder_rates` of several ladders at once, through
    each one's slot table padded to the largest: ladder s, of ``n[s]`` levels,
    owns rows ``s * points`` to ``(s + 1) * points`` of the six (M,) ``rates``.
    A padding level has no edge and a dead out-rate of 1, so its elimination
    adds exact zeros to the rates below it and its population is exactly
    zero: every row keeps the bits of its ladder solved alone."""
    rows, levels = len(n) * points, max(n)
    table = np.vstack([*rates, np.zeros(rows), np.ones(rows)])  # slots 6 and 7
    out = np.empty((5, levels, rows))
    for s, size in enumerate(n):
        cols = slice(s * points, (s + 1) * points)
        out[..., cols] = table[:, cols][_ladder_slots(size, levels)]
    return tuple(map(list, out))


def _gth_cold_power(omega_c, up1, down1, up2, down2, dead):
    """Cooling power of a ladder's stationary populations, and whether they
    pass the kernel gates, for a float ``omega_c`` or elementwise for an
    (M,) array of them.

    The arguments after ``omega_c`` are the per-level rates of
    :func:`~qpump.steady._ladder_balance`, floats or (M,) arrays from the
    slot table (:func:`~qpump.steady._ladder_slots`), whose GTH
    elimination gives the populations; the cooling power is ``omega_c``
    times their net flux up the cold edges over their total.

    The gates: every eliminated level must have a positive out-rate (a
    level without one leaves the chain reducible), and the net inflow of
    every level, summed from the net edge fluxes, must be within
    ``KERNEL_RESIDUAL_RTOL`` x max|M| of zero for the normalized
    populations, as the dense solve's residual ``|M p|`` is.  Returns
    ``(q, ok)``; ``q`` is meaningless where ``ok`` is false."""
    n = len(up1)
    p, total, ok = _ladder_balance(up1, down1, up2, down2, dead)
    # net fluxes up each edge (k, k+1) and (k, k+2), on the bath rates
    j1 = [p[k] * up1[k] - p[k + 1] * down1[k + 1] for k in range(n - 1)] + [0.0]
    j2 = [p[k] * up2[k] - p[k + 2] * down2[k + 2] for k in range(n - 2)] + [0.0, 0.0]
    flux = j1[0]  # over the cold edges, the even k
    for k in range(2, n, 2):
        flux = flux + j1[k]
    q = omega_c * (flux / total)
    # max|M|, the largest out-rate of a level, by the builtin max at a
    # scalar step, which costs far less; a NaN rate, which max may pass
    # over, makes the net inflow of its levels NaN
    out = [(up1[k] + down1[k]) + (up2[k] + down2[k]) for k in range(n)]
    scale = reduce(np.maximum, out) if isinstance(out[0], np.ndarray) else max(out)
    bound = KERNEL_RESIDUAL_RTOL * scale * total
    # net inflow of level k: in on the edges (k-1, k) and (k-2, k), out on
    # (k, k+1) and (k, k+2); level 0 has no edge in, level 1 only (0, 1)
    ok = ok & (abs(j1[0] + j2[0]) <= bound) & (abs(j1[0] - (j1[1] + j2[1])) <= bound)
    for k in range(2, n):
        ok = ok & (abs((j1[k - 1] + j2[k - 2]) - (j1[k] + j2[k])) <= bound)
    return q, ok & (total <= _HUGE) & (abs(q) <= _HUGE)


class _CoolingPowerEvaluator:
    """q_c as a function of omega_c for one pump template.

    The ideal generator maps diagonal states to diagonal states, and the
    coherences decouple from the populations and decay, so the stationary
    populations solve the N x N classical master equation ``dp/dt = M p``
    exactly (Schnakenberg, Rev. Mod. Phys. 48, 571 (1976)).  ``M`` depends
    on omega_c only through six rates, and its ladder is banded, so one
    body, :func:`_gth_cold_power`, solves it at a scalar step here and at
    every point of a coarse grid in :func:`_solve_grids` alike, bit for bit.
    Its GTH elimination, :func:`~qpump.steady._ladder_balance`, is the one
    that gives :func:`~qpump.steady.solve` its populations and ``q_c``, so
    ``q_cold`` and ``solve``'s ``q_c`` come from one body, as does the
    matrix that judges the maximizer.  ``grid`` holds the coarse grid's
    values once they are solved, ``bracket`` the refinement's start, and
    ``maximum`` the refined maximizer with its kernel verdict
    (:func:`_refine_and_judge`).
    """

    def __init__(self, template: PumpConfig):
        self.template = template
        self.n = template.n_levels
        self.window = window_max(template)
        self._hot = _rates(template.hot, template.omega_h)  # the config checked omega_h > 0
        self.grid: np.ndarray | None = None
        self.bracket: tuple[list, list, int] | None = None  # (nodes, values, failed)
        # (x*, q*, refinement steps, failed steps, the error of x* or None)
        self.maximum: tuple[float, float, int, int, Exception | None] | None = None
        # (q, omega_c, _channels) of the best q_cold, ties to the later step as in Brent's x*
        self._best_step = -math.inf, math.nan, None

    def _channels(self, omega_c: float):
        """The six rates (work, hot, cold; down then up) at omega_c.  The
        template's baths passed their constructor's checks, so once both
        frequencies are positive the rate body runs without those of
        :func:`~qpump.pump.decay_rates`."""
        t = self.template
        omega_w = t.omega_h - omega_c
        if omega_c <= 0 or omega_w <= 0:  # a NaN runs on, to fail the kernel gates
            raise ValueError(f"omega must be > 0, got {omega_c if omega_c <= 0 else omega_w}")
        work_down, work_up = _rates(t.work, omega_w)
        cold_down, cold_up = _rates(t.cold, omega_c)
        return work_down, work_up, *self._hot, cold_down, cold_up

    def q_cold(self, omega_c: float) -> float:
        """Cooling power at one cold frequency.  Raises
        :class:`~qpump.linalg.NoKernelError` when the stationary populations
        fail a gate of :func:`_gth_cold_power`.

        The result equals the trace-formula current ``tr(H D_c rho)`` of the
        full generator, because the ideal pump's stationary state is
        diagonal, and :func:`~qpump.steady.solve`'s ``q_c`` to the rounding
        of the net fluxes: the same elimination, whose cold flux is a plain
        difference here and an exact one, after refinement steps, there.
        """
        rates = self._channels(omega_c)
        q, ok = _gth_cold_power(omega_c, *_ladder_rates(self.n, rates))
        if not ok:
            raise NoKernelError("population balance fails its kernel gates (a level "
                                f"without outflow, or residual above "
                                f"{KERNEL_RESIDUAL_RTOL:.0e} x |M|)")
        if q >= self._best_step[0]:
            self._best_step = q, omega_c, rates
        return q


def _grid_node(window, k):
    """Node ``k`` of a window's coarse grid, or elementwise of (S, 1) windows:
    nodes 0 and COARSE_GRID_POINTS + 1 are its edges, with no cooling power."""
    return window * k / (COARSE_GRID_POINTS + 1)


def _solve_grids(evaluators: list[_CoolingPowerEvaluator]) -> None:
    """Solve the coarse grid of every evaluator as one call of
    :func:`_gth_cold_power` over all their grid points, padded to the
    largest ladder (:func:`_padded_rates`), and store each evaluator's
    values in its ``grid``: at each point the bits of
    :meth:`~_CoolingPowerEvaluator.q_cold` there, whatever the other
    evaluators, or NaN where it fails a gate.  Every
    window must be nonempty, so that every frequency is positive for the
    rate body :func:`~qpump.pump._rates`, and the work baths must share
    their squeezing and saturation.  Each ``bracket`` comes from array
    operations over all the grids: the nodes and values of the best point
    and its neighbours, as floats (a failed point as -inf), and the number
    of failed points."""
    if not evaluators:
        return
    templates = [ev.template for ev in evaluators]
    if len({(t.work.squeeze_r, t.work.saturated) for t in templates}) > 1:
        raise ValueError("the baths of a stacked grid must share squeezing and saturation")
    # (S, 1) columns, which broadcast along the grids
    window, omega_h, t_w, g_w, t_c, g_c, *hot = np.array([
        (ev.window, t.omega_h, t.work.temperature, t.work.gamma, t.cold.temperature,
         t.cold.gamma, *ev._hot) for ev, t in zip(evaluators, templates)]).T[:, :, None]
    omega_c = _grid_node(window, np.arange(1, COARSE_GRID_POINTS + 1))
    # a rate past the double range fails its point
    with np.errstate(over="ignore", invalid="ignore"):
        work = _rates(replace(templates[0].work, temperature=t_w, gamma=g_w), omega_h - omega_c)
        cold = _rates(replace(templates[0].cold, temperature=t_c, gamma=g_c), omega_c)
        hot = [np.repeat(r, COARSE_GRID_POINTS, axis=1) for r in hot]
        rates = [r.ravel() for r in (*work, *hot, *cold)]
        ladders = _padded_rates([ev.n for ev in evaluators], rates, COARSE_GRID_POINTS)
        q, ok = _gth_cold_power(omega_c.ravel(), *ladders)
    q, ok = q.reshape(omega_c.shape), ok.reshape(omega_c.shape)
    # the values of all the nodes, and the best point's cell
    values = np.zeros((len(evaluators), COARSE_GRID_POINTS + 2))
    values[:, 1:-1] = np.where(ok, q, -np.inf)
    cells = np.argmax(values[:, 1:-1], axis=1)[:, None] + np.arange(3)
    flat = cells + values.shape[1] * np.arange(len(evaluators))[:, None]
    brackets = zip(_grid_node(window, cells).tolist(), values.ravel()[flat].tolist(),
                   np.count_nonzero(~ok, axis=1).tolist())
    for ev, grid, bracket in zip(evaluators, np.where(ok, q, np.nan), brackets):
        ev.grid, ev.bracket = grid, bracket


def _brent_max(f, xs, fs, tol: float):
    """Maximize f on [xs[0], xs[2]] by Brent's bounded method (Brent,
    *Algorithms for Minimization without Derivatives*, 1973, ch. 5, in the
    ``fminbound`` form): a parabola through the three best points so far,
    or a golden-section step when the parabola is unusable.  It starts
    from the interior point xs[1] and the known values fs = f(xs), so its
    first step is the vertex of the parabola through them.  Stops once the
    bracket puts x* within ``tol`` of the maximizer; returns (x*, f*,
    evals, failures).  A call that raises LinAlgError counts as -inf and
    as a failure; a non-finite value never enters a parabola."""
    evals = failures = 0

    def cost(x):  # minimized: -f, +inf for a failed call
        nonlocal evals, failures
        evals += 1
        try:
            return -f(x)
        except np.linalg.LinAlgError:
            failures += 1
            return math.inf

    a, x, b = xs
    fx = -float(fs[1])
    # w is the better end point and v the other, both held as costs
    (fw, w), (fv, v) = sorted([(-float(fs[0]), a), (-float(fs[2]), b)])
    d = e = b - a  # e: the step before last; a parabola must halve it
    tol1 = tol / 3.0
    while abs(x - 0.5 * (a + b)) > 2.0 * tol1 - 0.5 * (b - a):
        parabolic = False
        if abs(e) > tol1 and math.isfinite(fx + fw + fv):
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p if q > 0.0 else p), abs(q)
            if abs(p) < abs(0.5 * q * e) and q * (a - x) < p < q * (b - x):
                e, d, parabolic = d, p / q, True
                if min(x + d - a, b - x - d) < 2.0 * tol1:
                    d = tol1 if x < 0.5 * (a + b) else -tol1
        if not parabolic:
            e = (b - x) if x < 0.5 * (a + b) else (a - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol1 else math.copysign(tol1, d))
        fu = cost(u)
        if fu <= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu
    return x, -fx, evals, failures


def _refine_and_judge(evaluators: list[_CoolingPowerEvaluator]) -> None:
    """Refine the bracket of every evaluator with a standing grid point
    (Brent's steps, each a ``q_cold`` call), judge all their maximizers x*
    in one stacked verdict, and store each evaluator's ``maximum``.  The
    verdict at x* is ``solve``'s: the current scale |H| x rate must fit the
    double range (:func:`~qpump.steady._current_scale`, per point), else
    :class:`~qpump.steady.NonConvergedError`; then the dense rate matrix,
    ``solve``'s own at that ``omega_c`` (``_ladder(n).blocks``), takes a
    chain point's kernel verdict, all of them in one padded stack
    (:func:`~qpump.linalg._kernel_decisions`).  An error names x* and
    waits for :func:`maximize_cooling_power` to raise it, in its caller's
    order.  The rates are the best refinement step's, x* unless no step
    beat the grid."""
    mats, judged = [], []
    for ev in evaluators:
        xs, fs, failed = ev.bracket
        if failed == COARSE_GRID_POINTS:  # maximize_cooling_power raises
            continue
        x, q, steps, lost = _brent_max(ev.q_cold, xs, fs, REFINE_RELATIVE_WIDTH * ev.window)
        _, at, rates = ev._best_step
        if x != at:
            rates = ev._channels(x)
        top = _level_energy(ev.n, ev.template.omega_h, x)  # |H|
        channel = max(rates[0] + rates[1], rates[2] + rates[3], rates[4] + rates[5])
        error = None
        if not _current_scale(top, channel)[1]:  # floats overflow quietly
            error = NonConvergedError(f"{_SCALE_OVERFLOW} at omega_c={x!r}")
        else:
            mats.append(_ladder(ev.n).blocks(np.array(rates)[:, None])[0])
            judged.append(ev)
        ev.maximum = x, q, steps, lost, error
    if mats:
        _, errors, _ = _kernel_decisions(mats, np.ones(max(map(len, mats))))
        for k, exc in errors.items():
            ev = judged[k]
            ev.maximum = *ev.maximum[:4], type(exc)(f"{exc} at omega_c={ev.maximum[0]!r}")


def maximize_cooling_power(template: PumpConfig | _CoolingPowerEvaluator) -> Optimum:
    """Find the cold frequency that maximizes the cooling power.

    A 64-point coarse grid over the open cooling window, solved by
    :func:`_solve_grids`, brackets the maximum in the best grid point and
    its two neighbours (the evaluator's ``bracket``).  Brent's bounded
    parabolic refinement, started from those three grid values, then places
    the maximizer within 1e-6 of the window width; it keeps the best grid
    point unless a refinement step beats it, so failed steps fall back to
    that point.  The reported power is the value at ``omega_c_star``, which
    then passes the kernel verdict of :func:`_refine_and_judge` (a full
    :func:`qpump.steady.solve` there reproduces it to solver precision), and
    the reported efficiency uses the ideal-pump identity
    ``eps* = omega_c*/(omega_h - omega_c*)``.
    ``template.omega_c`` is ignored.  ``template`` may also be an evaluator,
    whose grid, or its refinement and verdict too, a caller may have
    solved already, for a stack of them (:func:`sweep_stages`,
    :func:`_histogram_chunk`); a template alone is a stack of one.

    Raises :class:`EmptyWindowError` for an empty window,
    :class:`~qpump.linalg.NoKernelError` if no grid point admits a
    trustworthy solution or the rate matrix at ``omega_c_star`` has
    non-finite entries, :class:`~qpump.linalg.DegenerateKernelError` if
    that matrix is singular or its condition is below
    ``KERNEL_RCOND_FLOOR`` (the screen of
    :func:`~qpump.linalg._kernel_decisions`, whose every failure is
    :func:`~qpump.linalg._matrix_verdict`'s on the matrix alone),
    :class:`~qpump.steady.NonConvergedError` if the current scale at
    ``omega_c_star`` leaves the double range, and ``ValueError`` for a
    config of (P,) frequencies.
    """
    if isinstance(template, _CoolingPowerEvaluator):  # the ensemble's, of one point each
        ev = template
    else:
        template._check_one_point("one maximize_cooling_power call per machine")
        ev = _CoolingPowerEvaluator(template)
    template, window = ev.template, ev.window
    if not (window > 0):
        raise EmptyWindowError(f"cooling window max {window} is not positive")
    if ev.bracket is None:
        _solve_grids([ev])
    failed = ev.bracket[2]
    if failed == COARSE_GRID_POINTS:
        raise NoKernelError("no grid point in the cooling window admits a "
                            "trustworthy stationary state")
    if ev.maximum is None:
        _refine_and_judge([ev])
    x_star, q_star, refine_evals, refine_failed, error = ev.maximum
    if error is not None:
        raise error
    omega_w_star = template.omega_h - x_star
    eps_star = x_star / omega_w_star
    eps_ratio = eps_star / carnot_cop(effective_temperatures(template, omega_w_star))
    return Optimum(omega_c_star=x_star, q_c_max=q_star, eps_star=eps_star, eps_ratio=eps_ratio,
                   evaluations=COARSE_GRID_POINTS + refine_evals + 1,
                   failed_evaluations=failed + refine_failed)


def _variant_config(template: PumpConfig, n_levels: int, variant: str,
                    squeeze_db: float) -> PumpConfig:
    if variant not in _VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {_VARIANTS}")
    squeeze_r = squeeze_db_to_r(squeeze_db) if variant == "squeezed" else 0.0
    work = replace(template.work, squeeze_r=squeeze_r, saturated=variant == "saturated")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        return replace(template, n_levels=n_levels, work=work)


def sweep_stages(template: PumpConfig,
                 n_values=tuple(range(3, 11)),
                 variants: tuple[str, ...] = _VARIANTS,
                 squeeze_db: float = 7.0) -> list[StageResult]:
    """Maximum cooling power and COP at maximum power versus level count.

    ``variants`` selects the work-reservoir treatments: ``plain`` thermal,
    ``squeezed`` (by ``squeeze_db`` decibels) and ``saturated``
    (infinite-temperature limit).  Deterministic; one Optimum per
    (n_levels, variant).  A variant's templates share their work bath's
    squeezing and saturation, so its coarse grids are one call of
    :func:`_solve_grids`, and its maximizers one stacked verdict
    (:func:`_refine_and_judge`).
    """
    template._check_one_point("one sweep_stages call per machine")
    out = []
    for variant in variants:
        evs = [_CoolingPowerEvaluator(_variant_config(template, n, variant, squeeze_db))
               for n in n_values]
        solvable = [ev for ev in evs if ev.window > 0]
        _solve_grids(solvable)
        _refine_and_judge(solvable)
        out += [StageResult(n, variant, maximize_cooling_power(ev))
                for n, ev in zip(n_values, evs)]
    return out


# ---------------------------------------------------------------------------
# random-fridge histogram


def _draws(ranges: SampleRanges, indices, attempt: int = 0) -> list[PumpConfig | None]:
    """The fridge of one attempt of each sample of ``indices``, or None
    where the draw breaks a config invariant.  Each generator is derived
    from (seed, index, attempt) alone.

    Each log-uniform factor is ``exp(low + span * u)`` of its log range,
    with ``u`` from ``rng.random``, which is how ``rng.uniform`` maps its
    draw: the four factors of the temperatures and ``omega_h`` take one
    call, then ``rng.integers`` the level count, the three gamma fractions
    one more call.  The arithmetic runs once over all the samples'
    uniforms, elementwise, so each sample has the bits it has alone."""
    low, span = ranges.log_low, ranges.log_span
    u4, n, u3 = [], [], []
    for index in indices:
        key = [ranges.seed, index, attempt]
        if 0 <= min(key) and max(key) < 2**32:  # the list's entropy words, unconverted
            key = np.array(key, dtype=np.uint32)
        rng = np.random.default_rng(key)
        u4.append(rng.random(4))
        n.append(int(rng.integers(ranges.n_levels[0], ranges.n_levels[1] + 1)))
        u3.append(rng.random(3))
    t_c, hot_over_cold, work_over_hot, omega_h_over_t_cold = np.exp(
        low[:4] + span[:4] * np.array(u4)).T
    t_h = t_c * hot_over_cold
    t_w = t_h * work_over_hot
    omega_h = t_c * omega_h_over_t_cold
    window = cooling_window_max(omega_h, (t_w, t_h, t_c))
    scale = np.where(t_c < window, t_c, window)  # min(window, t_c)
    gammas = scale[:, None] * np.exp(low[4] + span[4] * np.array(u3))
    configs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        for n, omega_h, omega_c, t_w, t_h, t_c, (g_w, g_h, g_c) in zip(
                n, *(a.tolist() for a in (omega_h, 0.5 * window, t_w, t_h, t_c, gammas))):
            try:
                configs.append(PumpConfig(n, omega_h, omega_c, BathSpec("work", t_w, g_w),
                                          BathSpec("hot", t_h, g_h), BathSpec("cold", t_c, g_c)))
            except ValueError:
                configs.append(None)
    return configs


def _draw(ranges: SampleRanges, index: int, attempt: int) -> PumpConfig | None:
    """:func:`_draws` of one sample at one attempt."""
    return _draws(ranges, (index,), attempt)[0]


def _sample_point(ranges: SampleRanges, index: int,
                  first: _CoolingPowerEvaluator | None = None) -> tuple[float, int, int]:
    """One accepted (eps_ratio, n_levels, rejections) for the ensemble.

    Deterministic in (seed, index): each attempt re-derives its generator
    from (seed, index, attempt), so rejection never desynchronizes other
    samples and results are independent of worker count.  ``first``, when
    given, is the evaluator of attempt 0's fridge, already drawn, with its
    coarse grid, refinement and kernel verdict done if its window is
    nonempty (:func:`_histogram_chunk`); a redrawn attempt is maximized
    alone.  Each attempt is judged here, in order, so rejections and errors
    surface as a sample-by-sample loop raises them.
    """
    for attempt in range(64):
        if attempt == 0 and first is not None:
            template, cfg = first, first.template
        else:
            template = cfg = _draw(ranges, index, attempt)
            if cfg is None:
                continue
        # A failed gate or an optimum that breaks Carnot is a defect, not a
        # rejection: only an empty window or an unsolvable kernel is redrawn.
        try:
            optimum = maximize_cooling_power(template)
        except (EmptyWindowError, np.linalg.LinAlgError):
            continue
        return optimum.eps_ratio, cfg.n_levels, attempt
    raise RuntimeError(f"sample {index}: no valid fridge after 64 attempts")


def _histogram_chunk(args) -> list[tuple[int, float, int, int]]:
    """The samples ``start`` to ``stop``: every first attempt is drawn in
    one pass (:func:`_draws`), the coarse grids and brackets of those with
    a nonempty window are solved as one padded call (:func:`_solve_grids`),
    and each of their brackets is refined and its maximizer judged in one
    stacked verdict (:func:`_refine_and_judge`).  Each sample then takes
    its optimum, or its error, and redraws on rejection, in one call of
    :func:`_sample_point`."""
    ranges, start, stop = args
    evaluators = [None if cfg is None else _CoolingPowerEvaluator(cfg)
                  for cfg in _draws(ranges, range(start, stop))]
    firsts = [ev for ev in evaluators if ev is not None and ev.window > 0]
    _solve_grids(firsts)
    _refine_and_judge(firsts)
    return [(i, *_sample_point(ranges, i, ev))
            for i, ev in zip(range(start, stop), evaluators)]


def cop_histogram(ranges: SampleRanges, n_samples: int,
                  threads: int | None = None) -> HistogramResult:
    """COP-at-maximum-power ratios for ``n_samples`` random fridges.

    Work items are independent, chunked identically regardless of worker
    count, and keyed by sample index, so the output is bit-identical for a
    given seed whether run serially or on a process pool.
    """
    if n_samples < 0:
        raise ValueError("n_samples must be >= 0")
    if threads is None:
        threads = os.cpu_count() or 1
    chunk = 32
    jobs = [(ranges, start, min(start + chunk, n_samples))
            for start in range(0, n_samples, chunk)]
    rows: list[tuple[int, float, int, int]] = []
    if threads <= 1 or len(jobs) <= 1:
        for job in jobs:
            rows.extend(_histogram_chunk(job))
    else:
        # imported here: the pool's module costs a fresh interpreter about
        # 20 ms and 2 MB, which a serial run need not pay
        from concurrent.futures import ProcessPoolExecutor

        # no more workers than chunks: under fork, all start at the first submit
        with ProcessPoolExecutor(max_workers=min(threads, len(jobs))) as pool:
            for part in pool.map(_histogram_chunk, jobs):
                rows.extend(part)
    rows.sort(key=lambda r: r[0])
    return HistogramResult(eps_ratios=np.array([r[1] for r in rows], dtype=float),
                           n_levels=np.array([r[2] for r in rows], dtype=int),
                           rejected=int(sum(r[3] for r in rows)), n_samples=n_samples,
                           seed=ranges.seed)


# ---------------------------------------------------------------------------
# performance characteristics (fixed work frequency)


def _curve_config(system: str, setup: CurveSetup, omega_c):
    """The machine of ``system``'s curve at the cold frequency ``omega_c``,
    or at each of a (P,) array of them, as one stacked config."""
    work = BathSpec("work", setup.t_work, setup.gamma_work)
    hot = BathSpec("hot", setup.t_hot, setup.gamma_hot)
    cold = BathSpec("cold", setup.t_cold, setup.gamma_cold)
    if system == "ideal":
        return PumpConfig(n_levels=setup.n_levels, omega_h=omega_c + setup.omega_w,
                          omega_c=omega_c, work=work, hot=hot, cold=cold)
    if system == "three_qubit":
        return ThreeQubitConfig(omega_c=omega_c, omega_w=setup.omega_w, g=setup.g,
                                work=work, hot=hot, cold=cold)
    raise ValueError(f"unknown system {system!r}; expected 'ideal' or 'three_qubit'")


def characteristic_curve(system: str, setup: CurveSetup,
                         n_points: int = 100) -> list[PerformancePoint]:
    """Cooling power versus normalized efficiency along the cooling window.

    Sweeps ``omega_c`` over the interior of the fixed-work-frequency window.
    For both systems the normalized efficiency equals ``omega_c / window``
    (the three-qubit fridge's currents share one flux through its exchange);
    the fridge's power is lower (by three orders at the comparison
    parameters) and falls off faster toward the window's edge, where both
    reach the Carnot point with vanishing power.  The points are solved as
    stacks of up to ``_STACK_POINTS``, each point as :func:`~qpump.steady.solve`
    or :func:`~qpump.three_qubit.solve_three_qubit` solves it alone.
    """
    return [PerformancePoint(*point)
            for point in zip(*(col.tolist() for col in _curve_columns(system, setup, n_points)))]


def _curve_columns(system: str, setup: CurveSetup, n_points: int) -> tuple[np.ndarray, ...]:
    """The points of :func:`characteristic_curve` as the (P,) columns
    ``omega_c``, ``q_c``, ``eps`` and ``eps_over_carnot``, the fields of
    :class:`PerformancePoint`, judged on the arrays as its constructor
    judges each point: the first point that fails raises its ValueError.
    Each stack is one config of (P,) frequencies (:func:`_curve_config`)."""
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    columns = np.empty((4, n_points))  # one array, whose rows the columns are
    window = cooling_window_max_fixed_work(setup.omega_w, setup.temps)
    columns[0] = window * np.arange(1, n_points + 1) / (n_points + 1)
    solve_stack = _solve_pumps if system == "ideal" else _solve_fridges
    for start in range(0, n_points, _STACK_POINTS):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # WeakCouplingWarning too
            cfg = _curve_config(system, setup, columns[0, start:start + _STACK_POINTS])
        sols = solve_stack(cfg)
        columns[1:3, start:start + _STACK_POINTS] = sols.q_cold, sols.cop
    columns[3] = columns[2] / carnot_cop(setup.temps)
    failed = ~np.isfinite(columns).all(axis=0) | (columns[3] > 1.0 + 1e-9)
    if failed.any():
        k = int(np.argmax(failed))
        PerformancePoint(*(float(col[k]) for col in columns))  # raises the point's error
    return tuple(columns)
