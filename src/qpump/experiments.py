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

import numpy as np
from scipy.linalg.lapack import dgesv

from .linalg import (
    KERNEL_RCOND_FLOOR,
    KERNEL_RESIDUAL_RTOL,
    NoKernelError,
    _rcond_estimate,
)
from .pump import (
    BathSpec,
    PumpConfig,
    WeakCouplingWarning,
    _transition_levels,
    carnot_cop,
    cooling_window_max,
    cooling_window_max_fixed_work,
    decay_rates,
    effective_temperatures,
    squeeze_db_to_r,
    window_max,
)
from .steady import solve
from .three_qubit import ThreeQubitConfig, solve_three_qubit

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
    "GOLDEN_RELATIVE_WIDTH",
]

DEFAULT_SEED = 123456789

# Optimizer schedule: coarse scan, then golden-section refinement of the
# best grid cell down to this window-relative bracket width.
COARSE_GRID_POINTS = 64
GOLDEN_RELATIVE_WIDTH = 1e-6
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

_VARIANTS = ("plain", "squeezed", "saturated")


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
    # grid points that failed a kernel gate plus golden-section steps that
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


class _CoolingPowerEvaluator:
    """q_c as a function of omega_c for one pump template.

    The ideal generator maps diagonal states to diagonal states, and the
    coherences decouple from the populations and decay, so the stationary
    populations solve the N x N classical master equation ``dp/dt = M p``
    exactly (Schnakenberg, Rev. Mod. Phys. 48, 571 (1976)).  ``M`` depends
    on omega_c only through six rates, so a per-template (6, N^2) stack of
    down/up incidence matrices makes each sweep point one rate contraction
    plus one small real solve, and a grid of points one stacked contraction
    and solve.  All state is local to the instance; nothing is cached
    globally.
    """

    def __init__(self, template: PumpConfig):
        n = template.n_levels
        self.template = template
        self.n = n
        levels = {label: _transition_levels(n, label) for label in ("work", "hot", "cold")}
        # slice 2k is bath k's downward (hi -> lo) incidence, 2k+1 its upward
        # one; every column of each slice sums to zero
        stack = np.zeros((6, n, n))
        for k, (lo, hi) in enumerate(levels.values()):
            # each level is at most once lo and once hi: no entry written twice
            stack[2 * k, lo, hi] = stack[2 * k + 1, hi, lo] = 1.0
            stack[2 * k, hi, hi] = stack[2 * k + 1, lo, lo] = -1.0
        self._stack = stack.reshape(6, n * n)
        self._hot = decay_rates(template.hot, template.omega_h)
        self.cold_lows, self.cold_highs = levels["cold"]
        self.rhs = np.zeros(n)
        self.rhs[0] = 1.0

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
        anorm = np.abs(mat).sum(axis=0).max() if validate else 0.0
        lu, _, p, info = dgesv(mat, self.rhs)
        if info != 0:
            raise NoKernelError(f"population solve failed (LAPACK info={info})")
        if validate and _rcond_estimate(lu, anorm) < KERNEL_RCOND_FLOOR:
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


def _golden_max(f, a: float, b: float, tol: float):
    """Golden-section maximization on [a, b]; returns (x*, f*, evals,
    failures).  Failed evaluations count as -inf so the bracket still
    contracts; ``failures`` counts them."""
    evals = failures = 0

    def safe(x):
        nonlocal evals, failures
        evals += 1
        try:
            return f(x)
        except np.linalg.LinAlgError:
            failures += 1
            return -math.inf

    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = safe(c), safe(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = safe(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = safe(d)
    if fc >= fd:
        return c, fc, evals, failures
    return d, fd, evals, failures


def maximize_cooling_power(template: PumpConfig) -> Optimum:
    """Find the cold frequency that maximizes the cooling power.

    A 64-point coarse grid over the open cooling window, evaluated as one
    stacked solve, brackets the maximum; golden-section refinement then
    narrows the bracket to 1e-6 of the window width.  The reported power is
    the refined scan value (a full :func:`qpump.steady.solve` at
    ``omega_c_star`` reproduces it to solver precision), and the reported
    efficiency uses the ideal-pump identity
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
    grid = window * np.arange(1, COARSE_GRID_POINTS + 1) / (COARSE_GRID_POINTS + 1)
    q_grid = ev.q_cold_grid(grid)
    failed = int(np.isnan(q_grid).sum())
    if failed == COARSE_GRID_POINTS:
        raise NoKernelError("no grid point in the cooling window admits a "
                            "trustworthy stationary state")
    best_i = int(np.nanargmax(q_grid)) + 1
    a = window * (best_i - 1) / (COARSE_GRID_POINTS + 1)
    b = window * (best_i + 1) / (COARSE_GRID_POINTS + 1)
    x_star, q_star, golden_evals, golden_failed = _golden_max(
        ev.q_cold, a, b, GOLDEN_RELATIVE_WIDTH * window
    )
    if not (q_star > 0) or not math.isfinite(q_star):
        # The refined cell degenerated; fall back to the best grid point.
        x_star = window * best_i / (COARSE_GRID_POINTS + 1)
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
        evaluations=COARSE_GRID_POINTS + golden_evals + 1,
        failed_evaluations=failed + golden_failed,
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


def characteristic_curve(system: str, setup: CurveSetup,
                         n_points: int = 100) -> list[PerformancePoint]:
    """Cooling power versus normalized efficiency along the cooling window.

    Sweeps ``omega_c`` over the interior of the fixed-work-frequency window.
    For the ideal system the normalized efficiency equals
    ``omega_c / window`` exactly; the three-qubit system's curve detaches
    from the Carnot point and closes, its irreversibility signature.
    """
    window = cooling_window_max_fixed_work(setup.omega_w, setup.temps)
    eps_c = carnot_cop(setup.temps)
    points = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        warnings.simplefilter("ignore", UserWarning)
        for i in range(1, n_points + 1):
            omega_c = window * i / (n_points + 1)
            cfg = _curve_config(system, setup, omega_c)
            sol = solve(cfg) if system == "ideal" else solve_three_qubit(cfg)
            points.append(PerformancePoint(
                omega_c=omega_c,
                q_c=sol.q_cold,
                eps=sol.cop,
                eps_over_carnot=sol.cop / eps_c,
            ))
    return points
