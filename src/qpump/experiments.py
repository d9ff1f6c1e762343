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
from functools import reduce

import numpy as np

from .linalg import (
    KERNEL_RCOND_FLOOR,
    KERNEL_RESIDUAL_RTOL,
    NoKernelError,
    _reciprocal_condition,
)
from .pump import (
    BathSpec,
    PumpConfig,
    WeakCouplingWarning,
    _ThreeBathConfig,
    carnot_cop,
    cooling_window_max,
    cooling_window_max_fixed_work,
    decay_rates,
    effective_temperatures,
    squeeze_db_to_r,
    window_max,
)
from .steady import (
    _ladder_balance,
    _ladder_rates,
    _population_structure,
    _solve_pumps,
)
from .three_qubit import ThreeQubitConfig, _solve_fridges

# Kept importable for the layer probes of perfbench/layers.py::install_probes;
# characteristic_curve solves its points as stacks through _solve_pumps and
# _solve_fridges.
from .steady import solve  # noqa: F401
from .three_qubit import solve_three_qubit  # noqa: F401

__all__ = [
    "EmptyWindowError",
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
            raise ValueError(f"optimum has non-positive cooling power {self.q_c_max}")
        if not (0 < self.eps_ratio < 1):
            raise ValueError(f"eps_ratio must lie in (0, 1), got {self.eps_ratio}")


@dataclass(frozen=True)
class StageResult:
    n_levels: int
    variant: str
    optimum: Optimum


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
    # np.log of the bounds of each log-uniform range, in draw order: T_c,
    # T_h/T_c, T_w/T_h, omega_h/T_c and the gamma fraction
    log_bounds: tuple[tuple[float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        logs = []
        for name in ("t_cold", "hot_over_cold", "work_over_hot",
                     "omega_h_over_t_cold", "gamma_frac"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValueError(f"{name} interval must be positive and ordered")
            logs.append((np.log(lo), np.log(hi)))
        object.__setattr__(self, "log_bounds", tuple(logs))
        lo, hi = self.n_levels
        if not (3 <= lo <= hi <= 10):
            raise ValueError("n_levels range must lie within [3, 10]")


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


def _largest(values: list):
    """The largest of a list of floats, or elementwise of a list of arrays
    and floats; the builtin ``max`` costs far less in the optimizer's
    scalar steps."""
    if any(isinstance(v, np.ndarray) for v in values):
        return reduce(np.maximum, values)
    return max(values)


def _padded_ladder_rates(n: list[int], rates, points: int) -> tuple[list, ...]:
    """:func:`_ladder_rates` for several ladders at once, padded to the
    largest.  Ladder s, with ``n[s]`` levels, largest first, owns rows
    ``s * points`` to ``(s + 1) * points`` of the six (M,) rates.  A
    padding level has no edge and an out-rate ``dead`` of 1, so its
    elimination adds exact zeros to the rates of the levels below it and
    its population is exactly zero: every row keeps the bits of its ladder
    solved alone."""
    work_down, work_up, hot_down, hot_up, cold_down, cold_up = rates
    levels = n[0]
    up1, down1, up2, down2, dead = np.zeros((5, levels, len(n) * points))
    # rows[m]: the rows whose ladder has more than m levels, a prefix
    rows = [points * sum(1 for size in n if size > m) for m in range(levels + 2)]
    for k in range(levels):
        even = k % 2 == 0
        up1[k, :rows[k + 1]] = (cold_up if even else work_up)[:rows[k + 1]]
        up2[k, :rows[k + 2]] = hot_up[:rows[k + 2]]
        if k >= 1:
            down1[k, :rows[k]] = (work_down if even else cold_down)[:rows[k]]
        if k >= 2:
            down2[k, :rows[k]] = hot_down[:rows[k]]
        dead[k, rows[k]:] = 1.0
    return tuple(list(a) for a in (up1, down1, up2, down2, dead))


def _gth_cold_power(omega_c, up1, down1, up2, down2, dead):
    """Cooling power of a ladder's stationary populations, and whether they
    pass the kernel gates, for a float ``omega_c`` or elementwise for an
    (M,) array of them.

    The arguments after ``omega_c`` are the per-level rates of
    :func:`~qpump.steady._ladder_balance`, floats or (M,) arrays, whose GTH
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
    # max|M|, the largest out-rate of a level; a NaN rate, which max may
    # pass over, makes the net inflow of its levels NaN
    scale = _largest([(up1[k] + down1[k]) + (up2[k] + down2[k]) for k in range(n)])
    bound = KERNEL_RESIDUAL_RTOL * scale * total
    inflow1, inflow2 = [0.0] + j1, [0.0, 0.0] + j2
    for k in range(n):
        net = (inflow1[k] + inflow2[k]) - (j1[k] + j2[k])
        ok = ok & (abs(net) <= bound)
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
    that gives :func:`~qpump.steady.solve` its populations and ``q_c`` (in
    long double there), so ``q_cold`` and ``solve``'s ``q_c`` come from one
    body.  ``grid`` holds the coarse grid's values once they are solved.
    """

    def __init__(self, template: PumpConfig):
        self.template = template
        self.n = template.n_levels
        self._stack = _population_structure(self.n)
        self.window = window_max(template)
        self._hot = decay_rates(template.hot, template.omega_h)
        self.grid: np.ndarray | None = None

    def _channels(self, omega_c: float):
        """The six rates (work, hot, cold; down then up) at omega_c."""
        t, hot = self.template, self._hot
        work = decay_rates(t.work, t.omega_h - omega_c)
        cold = decay_rates(t.cold, omega_c)
        return work.down, work.up, hot.down, hot.up, cold.down, cold.up

    def q_cold(self, omega_c: float) -> float:
        """Cooling power at one cold frequency.  Raises
        :class:`~qpump.linalg.NoKernelError` when the stationary populations
        fail a gate of :func:`_gth_cold_power`.

        The result equals the trace-formula current ``tr(H D_c rho)`` of the
        full generator, because the ideal pump's stationary state is
        diagonal, and :func:`~qpump.steady.solve`'s ``q_c`` to a few ulps:
        the same elimination, in double here and in long double there.
        """
        q, ok = _gth_cold_power(omega_c, *_ladder_rates(self.n, self._channels(omega_c)))
        if not ok:
            raise NoKernelError("population balance fails its kernel gates (a level "
                                f"without outflow, or residual above "
                                f"{KERNEL_RESIDUAL_RTOL:.0e} x |M|)")
        return q

    def check_condition(self, omega_c: float) -> None:
        """Raises :class:`~qpump.linalg.NoKernelError` unless the dense rate
        matrix at omega_c, its first row replaced by the trace constraint,
        has an exact 1-norm reciprocal condition of at least
        ``KERNEL_RCOND_FLOOR``; this rejects degenerate kernels whose
        mixtures would still pass the residual gate of :meth:`q_cold`."""
        mat = (np.array(self._channels(omega_c)) @ self._stack).reshape(self.n, self.n)
        mat[0, :] = 1.0
        try:
            rcond = _reciprocal_condition(mat, np.linalg.inv(mat))
        except np.linalg.LinAlgError as exc:
            raise NoKernelError(f"population solve failed ({exc})") from None
        if not rcond >= KERNEL_RCOND_FLOOR:
            raise NoKernelError("stationary state numerically degenerate")


def _grid_nodes(window):
    """The coarse grid of a window, or of each window of a (S, 1) array: its
    two edges, which carry no cooling power, and COARSE_GRID_POINTS
    interior points."""
    return window * np.arange(COARSE_GRID_POINTS + 2) / (COARSE_GRID_POINTS + 1)


def _along_grid(values) -> np.ndarray:
    """The (S, G) array that repeats each of S values along a coarse grid."""
    return np.repeat(np.array(values, dtype=float)[:, None], COARSE_GRID_POINTS, axis=1)


def _row_bath(baths: list[BathSpec]) -> BathSpec:
    """One bath whose temperature and strength are those of ``baths``
    along their coarse grids, (S, G) arrays for elementwise rates.  The
    baths must share their squeezing and saturation."""
    first = baths[0]
    if any((b.squeeze_r, b.saturated) != (first.squeeze_r, first.saturated) for b in baths):
        raise ValueError("the baths of a stacked grid must share squeezing and saturation")
    return BathSpec(first.label, _along_grid([b.temperature for b in baths]),
                    _along_grid([b.gamma for b in baths]), first.squeeze_r, first.saturated)


def _solve_grids(evaluators: list[_CoolingPowerEvaluator]) -> None:
    """Solve the coarse grid of every evaluator as one call of
    :func:`_gth_cold_power` over all their grid points, padded to the
    largest ladder, and store each evaluator's values in its ``grid``: at
    each point the bits of :meth:`~_CoolingPowerEvaluator.q_cold` there,
    whatever the other evaluators, or NaN where it fails a gate.  Every
    window must be nonempty."""
    if not evaluators:
        return
    evaluators = sorted(evaluators, key=lambda ev: -ev.n)
    templates = [ev.template for ev in evaluators]
    omega_c = _grid_nodes(np.array([[ev.window] for ev in evaluators]))[:, 1:-1]
    work = decay_rates(_row_bath([t.work for t in templates]),
                       _along_grid([t.omega_h for t in templates]) - omega_c)
    cold = decay_rates(_row_bath([t.cold for t in templates]), omega_c)
    # each evaluator's hot rates, at its fixed omega_h
    hot = [_along_grid([getattr(ev._hot, side) for ev in evaluators]) for side in ("down", "up")]
    rates = [r.ravel() for r in (work.down, work.up, *hot, cold.down, cold.up)]
    ladders = _padded_ladder_rates([ev.n for ev in evaluators], rates, COARSE_GRID_POINTS)
    q, ok = _gth_cold_power(omega_c.ravel(), *ladders)
    for ev, row in zip(evaluators, np.where(ok, q, np.nan).reshape(omega_c.shape)):
        ev.grid = row


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


def maximize_cooling_power(template: PumpConfig | _CoolingPowerEvaluator) -> Optimum:
    """Find the cold frequency that maximizes the cooling power.

    A 64-point coarse grid over the open cooling window, solved by
    :func:`_solve_grids`, brackets the maximum in the best grid cell and its
    two neighbours.  Brent's bounded parabolic refinement, started from those
    three grid values, then places the maximizer within 1e-6 of the window
    width; it keeps the best grid point unless a refinement step beats it,
    so failed steps fall back to that point.  The reported power is the
    value at ``omega_c_star``, which then passes the evaluator's
    ``check_condition`` (a full :func:`qpump.steady.solve` there reproduces it
    to solver precision), and the reported efficiency uses the ideal-pump
    identity ``eps* = omega_c*/(omega_h - omega_c*)``.
    ``template.omega_c`` is ignored.  ``template`` may also be an evaluator,
    whose ``grid`` a caller may have solved already.

    Raises :class:`EmptyWindowError` for an empty window and
    :class:`~qpump.linalg.NoKernelError` if no grid point admits a
    trustworthy solution.
    """
    ev = (template if isinstance(template, _CoolingPowerEvaluator)
          else _CoolingPowerEvaluator(template))
    template, window = ev.template, ev.window
    if not (window > 0):
        raise EmptyWindowError(f"cooling window max {window} is not positive")
    if ev.grid is None:
        _solve_grids([ev])

    nodes = _grid_nodes(window)
    lost = np.isnan(ev.grid)
    failed = int(np.count_nonzero(lost))
    if failed == COARSE_GRID_POINTS:
        raise NoKernelError("no grid point in the cooling window admits a "
                            "trustworthy stationary state")
    # a failed grid point enters the refinement as -inf
    q_nodes = np.zeros(COARSE_GRID_POINTS + 2)
    q_nodes[1:-1] = np.where(lost, -np.inf, ev.grid)
    best_i = int(np.argmax(q_nodes[1:-1])) + 1
    cell = slice(best_i - 1, best_i + 2)
    x_star, q_star, refine_evals, refine_failed = _brent_max(
        ev.q_cold, nodes[cell].tolist(), q_nodes[cell].tolist(),
        REFINE_RELATIVE_WIDTH * window,
    )
    # the condition check at the reported maximizer, whose cooling power
    # q_star already is, from a refinement step or the grid, bit for bit
    ev.check_condition(x_star)
    omega_w_star = template.omega_h - x_star
    eps_star = x_star / omega_w_star
    eps_ratio = eps_star / carnot_cop(effective_temperatures(template, omega_w_star))
    return Optimum(
        omega_c_star=x_star,
        q_c_max=q_star,
        eps_star=eps_star,
        eps_ratio=eps_ratio,
        evaluations=COARSE_GRID_POINTS + refine_evals + 1,
        failed_evaluations=failed + refine_failed,
    )


def _variant_config(template: PumpConfig, n_levels: int, variant: str,
                    squeeze_db: float) -> PumpConfig:
    work = template.work
    if variant == "plain":
        work = replace(work, squeeze_r=0.0, saturated=False)
    elif variant == "squeezed":
        work = replace(work, squeeze_r=squeeze_db_to_r(squeeze_db), saturated=False)
    elif variant == "saturated":
        work = replace(work, squeeze_r=0.0, saturated=True)
    else:
        raise ValueError(f"unknown variant {variant!r}; expected one of {_VARIANTS}")
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
    :func:`_solve_grids`.
    """
    out = []
    for variant in variants:
        evs = [_CoolingPowerEvaluator(_variant_config(template, n, variant, squeeze_db))
               for n in n_values]
        _solve_grids([ev for ev in evs if ev.window > 0])
        out += [StageResult(n, variant, maximize_cooling_power(ev))
                for n, ev in zip(n_values, evs)]
    return out


# ---------------------------------------------------------------------------
# random-fridge histogram


def _log_uniform(rng: np.random.Generator, log_lo: float, log_hi: float) -> float:
    return float(np.exp(rng.uniform(log_lo, log_hi)))


def _draw(ranges: SampleRanges, index: int, attempt: int) -> PumpConfig | None:
    """The fridge of one attempt of one sample, or None when the draw breaks
    a config invariant.  Its generator is derived from (seed, index,
    attempt) alone."""
    t_cold, hot_over_cold, work_over_hot, omega_h_over_t_cold, gamma_frac = ranges.log_bounds
    rng = np.random.default_rng([ranges.seed, index, attempt])
    t_c = _log_uniform(rng, *t_cold)
    t_h = t_c * _log_uniform(rng, *hot_over_cold)
    t_w = t_h * _log_uniform(rng, *work_over_hot)
    omega_h = t_c * _log_uniform(rng, *omega_h_over_t_cold)
    n = int(rng.integers(ranges.n_levels[0], ranges.n_levels[1] + 1))
    window = cooling_window_max(omega_h, (t_w, t_h, t_c))
    scale = min(window, t_c)
    gammas = [scale * _log_uniform(rng, *gamma_frac) for _ in range(3)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            return PumpConfig(
                n_levels=n,
                omega_h=omega_h,
                omega_c=0.5 * window,
                work=BathSpec("work", t_w, gammas[0]),
                hot=BathSpec("hot", t_h, gammas[1]),
                cold=BathSpec("cold", t_c, gammas[2]),
            )
    except ValueError:
        return None


def _sample_point(ranges: SampleRanges, index: int,
                  first: _CoolingPowerEvaluator | None = None) -> tuple[float, int, int]:
    """One accepted (eps_ratio, n_levels, rejections) for the ensemble.

    Deterministic in (seed, index): each attempt re-derives its generator
    from (seed, index, attempt), so rejection never desynchronizes other
    samples and results are independent of worker count.  ``first``, when
    given, is the evaluator of attempt 0's fridge, already drawn, with its
    coarse grid solved if its window is nonempty (:func:`_histogram_chunk`).
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
    """The samples ``start`` to ``stop``: every first attempt is drawn up
    front, and the coarse grids of those with a nonempty window are solved
    as one padded call (:func:`_solve_grids`); each sample then refines its
    own grid, and redraws on rejection, in :func:`_sample_point`."""
    ranges, start, stop = args
    firsts = [_draw(ranges, i, 0) for i in range(start, stop)]
    evaluators = [None if cfg is None else _CoolingPowerEvaluator(cfg) for cfg in firsts]
    _solve_grids([ev for ev in evaluators if ev is not None and ev.window > 0])
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

        with ProcessPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(_histogram_chunk, jobs):
                rows.extend(part)
    rows.sort(key=lambda r: r[0])
    return HistogramResult(
        eps_ratios=np.array([r[1] for r in rows], dtype=float),
        n_levels=np.array([r[2] for r in rows], dtype=int),
        rejected=int(sum(r[3] for r in rows)),
        n_samples=n_samples,
        seed=ranges.seed,
    )


# ---------------------------------------------------------------------------
# performance characteristics (fixed work frequency)


def _curve_config(system: str, setup: CurveSetup, omega_c: float):
    work = BathSpec("work", setup.t_work, setup.gamma_work)
    hot = BathSpec("hot", setup.t_hot, setup.gamma_hot)
    cold = BathSpec("cold", setup.t_cold, setup.gamma_cold)
    if system == "ideal":
        return PumpConfig(
            n_levels=setup.n_levels,
            omega_h=omega_c + setup.omega_w,
            omega_c=omega_c,
            work=work, hot=hot, cold=cold,
        )
    if system == "three_qubit":
        return ThreeQubitConfig(
            omega_c=omega_c, omega_w=setup.omega_w, g=setup.g,
            work=work, hot=hot, cold=cold,
        )
    raise ValueError(f"unknown system {system!r}; expected 'ideal' or 'three_qubit'")


@dataclass(frozen=True)
class _Sweep(_ThreeBathConfig):
    """The configs of a curve at all its points, for one stacked solve: the
    frequencies as (P,) arrays, each element computed as the config of
    :func:`_curve_config` computes it, and what the points share (the
    baths, the pump's ``n_levels``, the fridge's ``g``).  Not validated
    itself: see :func:`_curve_sweep`."""

    omega_c: np.ndarray
    omega_w: np.ndarray
    omega_h: np.ndarray
    work: BathSpec
    hot: BathSpec
    cold: BathSpec
    n_levels: int
    g: float


def _curve_sweep(system: str, setup: CurveSetup, omega_c: np.ndarray) -> _Sweep:
    """:func:`_curve_config` at every cold frequency of ``omega_c``, which
    must lie inside the cooling window.  The points differ only in
    ``omega_c``, so the config of the first one validates them all."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # WeakCouplingWarning too
        cfg = _curve_config(system, setup, float(omega_c[0]))
    if system == "ideal":
        omega_h = omega_c + setup.omega_w
        omega_w = omega_h - omega_c
    else:
        omega_w = np.full_like(omega_c, setup.omega_w)
        omega_h = omega_c + omega_w
    return _Sweep(omega_c, omega_w, omega_h, cfg.work, cfg.hot, cfg.cold, setup.n_levels, setup.g)


def characteristic_curve(system: str, setup: CurveSetup,
                         n_points: int = 100) -> list[PerformancePoint]:
    """Cooling power versus normalized efficiency along the cooling window.

    Sweeps ``omega_c`` over the interior of the fixed-work-frequency window.
    For both systems the normalized efficiency equals ``omega_c / window``
    (the three-qubit fridge's currents share one flux through its exchange);
    the fridge's power is lower (by three orders at the comparison
    parameters) and falls off faster toward the window's edge, where both
    reach the Carnot point with vanishing power.  The
    points are solved as stacks of up to ``_STACK_POINTS``, each point as
    :func:`~qpump.steady.solve` or
    :func:`~qpump.three_qubit.solve_three_qubit` solves it alone.
    """
    return [PerformancePoint(*point)
            for point in zip(*(col.tolist() for col in _curve_columns(system, setup, n_points)))]


def _curve_columns(system: str, setup: CurveSetup, n_points: int) -> tuple[np.ndarray, ...]:
    """The points of :func:`characteristic_curve` as the (P,) columns
    ``omega_c``, ``q_c``, ``eps`` and ``eps_over_carnot``, the fields of
    :class:`PerformancePoint`, judged on the arrays as its constructor
    judges each point: the first point that fails raises its ValueError."""
    if n_points < 1:
        raise ValueError(f"n_points must be >= 1, got {n_points}")
    window = cooling_window_max_fixed_work(setup.omega_w, setup.temps)
    eps_c = carnot_cop(setup.temps)
    grid = window * np.arange(1, n_points + 1) / (n_points + 1)
    solve_stack = _solve_pumps if system == "ideal" else _solve_fridges
    stacks = [solve_stack(_curve_sweep(system, setup, grid[start:start + _STACK_POINTS]))
              for start in range(0, n_points, _STACK_POINTS)]
    eps = np.concatenate([sols.cop for sols in stacks])
    columns = (grid, np.concatenate([sols.q_cold for sols in stacks]), eps, eps / eps_c)
    failed = ~np.isfinite(columns).all(axis=0) | (columns[3] > 1.0 + 1e-9)
    if failed.any():
        k = int(np.argmax(failed))
        PerformancePoint(*(float(col[k]) for col in columns))  # raises the point's error
    return columns
