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
from concurrent.futures import ProcessPoolExecutor
from contextlib import suppress
from dataclasses import dataclass, replace
from functools import lru_cache

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
    _transition_levels,
    carnot_cop,
    cooling_window_max,
    cooling_window_max_fixed_work,
    decay_rates,
    effective_temperatures,
    squeeze_db_to_r,
    window_max,
)
from .steady import _solve_pumps
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

    def __post_init__(self):
        for name in ("t_cold", "hot_over_cold", "work_over_hot",
                     "omega_h_over_t_cold", "gamma_frac"):
            lo, hi = getattr(self, name)
            if not (0 < lo <= hi):
                raise ValueError(f"{name} interval must be positive and ordered")
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


@lru_cache(maxsize=None)
def _population_structure(n: int):
    """The population balance of an N-level ladder, a function of N alone:
    the (6, N^2) incidence stack, the cold bath's level arrays and the
    trace right-hand side.  Built once per N and read-only, so every
    evaluator of that N shares them."""
    levels = [_transition_levels(n, label) for label in ("work", "hot", "cold")]
    # slice 2k is bath k's downward (hi -> lo) incidence, 2k+1 its upward
    # one; every column of each slice sums to zero
    stack = np.zeros((6, n, n))
    for k, (lo, hi) in enumerate(levels):
        # each level is at most once lo and once hi: no entry written twice
        stack[2 * k, lo, hi] = stack[2 * k + 1, hi, lo] = 1.0
        stack[2 * k, hi, hi] = stack[2 * k + 1, lo, lo] = -1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    out = (stack.reshape(6, n * n), *levels[2], rhs)
    for arr in out:
        arr.setflags(write=False)
    return out


class _CoolingPowerEvaluator:
    """q_c as a function of omega_c for one pump template.

    The ideal generator maps diagonal states to diagonal states, and the
    coherences decouple from the populations and decay, so the stationary
    populations solve the N x N classical master equation ``dp/dt = M p``
    exactly (Schnakenberg, Rev. Mod. Phys. 48, 571 (1976)).  ``M`` depends
    on omega_c only through six rates, so a (6, N^2) stack of
    down/up incidence matrices makes each sweep point one rate contraction
    plus one small real solve, and a grid of points one stacked contraction
    and solve.  The stack depends on N alone and is shared, read-only, by
    every evaluator of that N (:func:`_population_structure`); the rates
    are per instance.
    """

    def __init__(self, template: PumpConfig):
        self.template = template
        self.n = template.n_levels
        self._stack, self.cold_lows, self.cold_highs, self.rhs = \
            _population_structure(self.n)
        self._hot = decay_rates(template.hot, template.omega_h)

    def _channels(self, omega_c):
        """The six rates (work, hot, cold; down then up) at omega_c, a float
        or an array, and the cold pair."""
        t, hot = self.template, self._hot
        work = decay_rates(t.work, t.omega_h - omega_c)
        cold = decay_rates(t.cold, omega_c)
        return (work.down, work.up, hot.down, hot.up, cold.down, cold.up), cold

    def q_cold(self, omega_c: float, validate: bool = False) -> float:
        """Cooling power at one cold frequency.  Raises linalg kernel errors
        when the stationary populations are not trustworthy.

        Solves the population balance with its first row replaced by the
        trace constraint.  The result equals the trace-formula current
        ``tr(H D_c rho)`` of the full generator, because the ideal pump's
        stationary state is diagonal.  ``validate`` adds a condition-number
        check that rejects numerically degenerate kernels whose mixtures
        would still pass the residual gate.
        """
        channels, cold = self._channels(omega_c)
        rates = (np.array(channels) @ self._stack).reshape(self.n, self.n)
        mat = rates.copy()
        mat[0, :] = 1.0
        try:
            p = np.linalg.solve(mat, self.rhs)
            degenerate = (validate and _reciprocal_condition(mat, np.linalg.inv(mat))
                          < KERNEL_RCOND_FLOOR)
        except np.linalg.LinAlgError as exc:
            raise NoKernelError(f"population solve failed ({exc})") from None
        if degenerate:
            raise NoKernelError("stationary state numerically degenerate")
        scale = np.abs(rates).max()
        if not (np.isfinite(p).all() and np.abs(rates @ p).max() <= KERNEL_RESIDUAL_RTOL * scale):
            raise NoKernelError(
                f"scan solve residual exceeds {KERNEL_RESIDUAL_RTOL:.0e} x |M|"
            )
        p = p / p.sum()
        flux = cold.up * p[self.cold_lows].sum() - cold.down * p[self.cold_highs].sum()
        return float(omega_c * flux)

    def q_cold_grid(self, omega_c: np.ndarray) -> np.ndarray:
        """Cooling power at every point of a 1-D array of cold frequencies,
        from one stacked solve.  A point that fails a kernel gate of
        :meth:`q_cold` (singular matrix, non-finite populations, residual
        above ``KERNEL_RESIDUAL_RTOL`` x max|M|) is NaN."""
        channels, cold = self._channels(omega_c)
        weights = np.empty((omega_c.size, 6))
        for k, rate in enumerate(channels):
            weights[:, k] = rate
        rates = (weights @ self._stack).reshape(-1, self.n, self.n)
        mat = rates.copy()
        mat[:, 0, :] = 1.0
        try:
            # an (N, 1) right-hand side broadcasts to one column per matrix
            # under NumPy 1.x and 2.x alike; 1.x rejects a 1-D one here
            p = np.linalg.solve(mat, self.rhs[:, None])[..., 0]
        except np.linalg.LinAlgError:
            # an exactly singular matrix fails the whole stack; solve point
            # by point so that only the singular points are lost
            p = np.full(mat.shape[:2], np.nan)
            for k, m in enumerate(mat):
                with suppress(np.linalg.LinAlgError):
                    p[k] = np.linalg.solve(m, self.rhs)
        finite = np.isfinite(p).all(axis=1)
        p[~finite] = 0.0  # keeps inf * 0 out of the failed rows' residuals
        scale = np.abs(rates).max(axis=(1, 2))
        residual = np.abs(np.matmul(rates, p[..., None])).max(axis=(1, 2))
        ok = finite & (residual <= KERNEL_RESIDUAL_RTOL * scale)
        p = p[ok] / p[ok].sum(axis=1, keepdims=True)
        q = np.full(omega_c.shape, np.nan)
        q[ok] = omega_c[ok] * (cold.up[ok] * p[:, self.cold_lows].sum(axis=1)
                               - cold.down[ok] * p[:, self.cold_highs].sum(axis=1))
        return q


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


def maximize_cooling_power(template: PumpConfig) -> Optimum:
    """Find the cold frequency that maximizes the cooling power.

    A 64-point coarse grid over the open cooling window, evaluated as one
    stacked solve, brackets the maximum in the best grid cell and its two
    neighbours.  Brent's bounded parabolic refinement, started from those
    three grid values, then places the maximizer within 1e-6 of the window
    width; it keeps the best grid point unless a refinement step beats it,
    so failed steps fall back to that point.  The reported power is the
    validated scan value at ``omega_c_star`` (a full
    :func:`qpump.steady.solve` there reproduces it to solver precision),
    and the reported efficiency uses the ideal-pump identity
    ``eps* = omega_c*/(omega_h - omega_c*)``.  ``template.omega_c`` is
    ignored.

    Raises :class:`EmptyWindowError` for an empty window and
    :class:`~qpump.linalg.NoKernelError` if no grid point admits a
    trustworthy solution.
    """
    window = window_max(template)
    if not (window > 0):
        raise EmptyWindowError(f"cooling window max {window} is not positive")

    ev = _CoolingPowerEvaluator(template)
    # the grid and the two window edges, which carry no cooling power
    nodes = window * np.arange(COARSE_GRID_POINTS + 2) / (COARSE_GRID_POINTS + 1)
    q_grid = ev.q_cold_grid(nodes[1:-1])
    failed = int(np.isnan(q_grid).sum())
    if failed == COARSE_GRID_POINTS:
        raise NoKernelError("no grid point in the cooling window admits a "
                            "trustworthy stationary state")
    # a failed grid point enters the refinement as -inf
    q_nodes = np.concatenate(([0.0], np.nan_to_num(q_grid, nan=-np.inf), [0.0]))
    best_i = int(np.argmax(q_nodes[1:-1])) + 1
    cell = slice(best_i - 1, best_i + 2)
    x_star, _, refine_evals, refine_failed = _brent_max(
        ev.q_cold, nodes[cell].tolist(), q_nodes[cell].tolist(),
        REFINE_RELATIVE_WIDTH * window,
    )
    # one fully validated evaluation at the reported maximizer
    q_star = ev.q_cold(x_star, validate=True)
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
    (n_levels, variant).
    """
    out = []
    for variant in variants:
        for n in n_values:
            cfg = _variant_config(template, n, variant, squeeze_db)
            out.append(StageResult(n, variant, maximize_cooling_power(cfg)))
    return out


# ---------------------------------------------------------------------------
# random-fridge histogram


def _log_uniform(rng: np.random.Generator, lo: float, hi: float) -> float:
    return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))


def _sample_point(ranges: SampleRanges, index: int) -> tuple[float, int, int]:
    """One accepted (eps_ratio, n_levels, rejections) for the ensemble.

    Deterministic in (seed, index): each attempt re-derives its generator
    from (seed, index, attempt), so rejection never desynchronizes other
    samples and results are independent of worker count.
    """
    for attempt in range(64):
        rng = np.random.default_rng([ranges.seed, index, attempt])
        t_c = _log_uniform(rng, *ranges.t_cold)
        t_h = t_c * _log_uniform(rng, *ranges.hot_over_cold)
        t_w = t_h * _log_uniform(rng, *ranges.work_over_hot)
        omega_h = t_c * _log_uniform(rng, *ranges.omega_h_over_t_cold)
        n = int(rng.integers(ranges.n_levels[0], ranges.n_levels[1] + 1))
        window = cooling_window_max(omega_h, (t_w, t_h, t_c))
        scale = min(window, t_c)
        gammas = [scale * _log_uniform(rng, *ranges.gamma_frac) for _ in range(3)]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeakCouplingWarning)
                cfg = PumpConfig(
                    n_levels=n,
                    omega_h=omega_h,
                    omega_c=0.5 * window,
                    work=BathSpec("work", t_w, gammas[0]),
                    hot=BathSpec("hot", t_h, gammas[1]),
                    cold=BathSpec("cold", t_c, gammas[2]),
                )
        except ValueError:
            continue
        # A failed gate or an optimum that breaks Carnot is a defect, not a
        # rejection: only an empty window or an unsolvable kernel is redrawn.
        try:
            optimum = maximize_cooling_power(cfg)
        except (EmptyWindowError, np.linalg.LinAlgError):
            continue
        return optimum.eps_ratio, n, attempt
    raise RuntimeError(f"sample {index}: no valid fridge after 64 attempts")


def _histogram_chunk(args) -> list[tuple[int, float, int, int]]:
    ranges, start, stop = args
    out = []
    for i in range(start, stop):
        ratio, n, rejects = _sample_point(ranges, i)
        out.append((i, ratio, n, rejects))
    return out


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
    For the ideal system the normalized efficiency equals
    ``omega_c / window`` exactly; the three-qubit system's curve detaches
    from the Carnot point and closes, its irreversibility signature.  The
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
