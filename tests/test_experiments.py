import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

import qpump
from qpump.experiments import (
    COARSE_GRID_POINTS,
    CurveSetup,
    EmptyWindowError,
    Optimum,
    REFINE_RELATIVE_WIDTH,
    SampleRanges,
    _brent_max,
    _CoolingPowerEvaluator,
    _curve_config,
    _variant_config,
    characteristic_curve,
    cop_histogram,
    maximize_cooling_power,
    sweep_stages,
)
from qpump.linalg import NoKernelError
from qpump.pump import _transition_levels, window_max
from qpump.steady import NonConvergedError, _Generator, solve
from qpump.three_qubit import solve_three_qubit

REF_PARAMS = dict(omega_h=102.6, t_work=7.1e3, t_hot=1.57e3, t_cold=54.25,
            gamma_work=3.5e-3, gamma_hot=5.1e-3, gamma_cold=8.8e-3)
COMPARE_SETUP = CurveSetup(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
                   gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3,
                   g=0.1, n_levels=8)
# a shift of omega_h = 61.5 at which the first-law gate fails on the 30-point
# three-qubit curve (tools/first_law_scan.py)
SHIFTED_OMEGA_H = 61.500303


def reference_pump(n_levels=3):
    return qpump.ideal_pump(n_levels=n_levels, omega_c=1.4, **REF_PARAMS)


def window_grid(template, n_points=COARSE_GRID_POINTS):
    """The optimizer's grid: n_points interior points of the cooling window."""
    return window_max(template) * np.arange(1, n_points + 1) / (n_points + 1)


def brute_force_grid_max(template, n_points=4096):
    """Dense-grid maximizer used as the optimizer's regression oracle.
    Returns (omega_c, q_c) of the best grid point.  Each point is a scalar
    ``q_cold`` call, so the oracle does not share the stacked grid code."""
    ev = _CoolingPowerEvaluator(template)
    best = (math.nan, -math.inf)
    for x in window_grid(template, n_points).tolist():
        try:
            q = ev.q_cold(x)
        except np.linalg.LinAlgError:
            continue
        if q > best[1]:
            best = (x, q)
    return best


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def golden_max(f, a, b, tol):
    """Golden-section maximization on [a, b], the optimizer's former
    refinement, kept as the reference search.  Returns (x*, f*, evals,
    failures); a failed evaluation counts as -inf."""
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


def golden_optimum(template):
    """(omega_c*, validated q_c) of golden section on the optimizer's
    bracket: the best grid cell and its two neighbours."""
    ev = _CoolingPowerEvaluator(template)
    window = window_max(template)
    grid = window_grid(template)
    best = int(np.nanargmax(ev.q_cold_grid(grid))) + 1
    a = window * (best - 1) / (COARSE_GRID_POINTS + 1)
    b = window * (best + 1) / (COARSE_GRID_POINTS + 1)
    x, _, _, _ = golden_max(ev.q_cold, a, b, REFINE_RELATIVE_WIDTH * window)
    return x, ev.q_cold(x, validate=True)


def uncached_population_structure(n):
    """The incidence stack, cold level arrays and trace right-hand side,
    built here from the ladder without the optimizer's cache."""
    stack = np.zeros((6, n, n))
    for k, label in enumerate(("work", "hot", "cold")):
        for lo, hi in zip(*_transition_levels(n, label)):
            stack[2 * k, lo, hi] += 1.0
            stack[2 * k, hi, hi] -= 1.0
            stack[2 * k + 1, hi, lo] += 1.0
            stack[2 * k + 1, lo, lo] -= 1.0
    rhs = np.zeros(n)
    rhs[0] = 1.0
    return (stack.reshape(6, n * n), *_transition_levels(n, "cold"), rhs)


class TestMaximizeCoolingPower:
    # the optimizer's population balance against the full generator, at both
    # ladder parities
    @pytest.mark.parametrize("n", [3, 4, 7, 10])
    def test_efficiency_identity_against_solver(self, n):
        opt = maximize_cooling_power(reference_pump(n))
        cfg = dataclasses.replace(reference_pump(n), omega_c=opt.omega_c_star)
        sol = solve(cfg)
        assert abs(sol.cop / opt.eps_star - 1.0) < 1e-8
        assert abs(sol.q_cold / opt.q_c_max - 1.0) < 1e-10

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_brute_force_grid_sandwich(self, n):
        template = reference_pump(n)
        opt = maximize_cooling_power(template)
        grid_x, grid_q = brute_force_grid_max(template, n_points=4096)
        assert opt.q_c_max >= grid_q * (1 - 1e-12)
        assert abs(opt.q_c_max - grid_q) <= 1e-4 * grid_q

    def test_maximizer_inside_window(self):
        opt = maximize_cooling_power(reference_pump(4))
        window = qpump.cooling_window_max(REF_PARAMS["omega_h"],
                                          (REF_PARAMS["t_work"], REF_PARAMS["t_hot"], REF_PARAMS["t_cold"]))
        assert 0 < opt.omega_c_star < window
        assert 0 < opt.eps_ratio < 1
        assert opt.evaluations >= 64

    def test_empty_window_raises(self, monkeypatch):
        monkeypatch.setattr(qpump.experiments, "window_max", lambda cfg: 0.0)
        with pytest.raises(EmptyWindowError):
            maximize_cooling_power(reference_pump(3))

    def test_validated_point_gates_on_condition(self, monkeypatch):
        monkeypatch.setattr(qpump.experiments, "KERNEL_RCOND_FLOOR", 1.0)
        with pytest.raises(NoKernelError):
            maximize_cooling_power(reference_pump(3))

    def test_failed_grid_points_are_dropped_and_counted(self, monkeypatch):
        template = reference_pump(4)
        clean = maximize_cooling_power(template)
        grid = window_grid(template)
        q = _CoolingPowerEvaluator(template).q_cold_grid(grid)
        nan_at = int(np.argmax(q))
        singular_at = nan_at + 1
        original = _CoolingPowerEvaluator._channels

        def channels(self, omega_c):
            rates, cold = original(self, omega_c)
            if np.ndim(omega_c) == 0:
                return rates, cold
            rates = [np.broadcast_to(r, omega_c.shape).copy() for r in rates]
            rates[4][nan_at] = np.nan  # the cold bath's downward rate
            for r in rates:
                # no transitions: only the trace row is left, an exactly
                # singular matrix that makes the whole stacked solve raise
                r[singular_at] = 0.0
            return tuple(rates), cold

        monkeypatch.setattr(_CoolingPowerEvaluator, "_channels", channels)
        stacked = _CoolingPowerEvaluator(template).q_cold_grid(grid)
        assert np.isnan(stacked[[nan_at, singular_at]]).all()
        kept = np.delete(np.arange(grid.size), [nan_at, singular_at])
        assert np.array_equal(stacked[kept], q[kept])
        opt = maximize_cooling_power(template)
        best = kept[np.argmax(q[kept])]
        assert grid[best - 1] <= opt.omega_c_star <= grid[best + 1]
        assert opt.q_c_max >= q[best]
        assert opt.failed_evaluations == 2 and clean.failed_evaluations == 0

    # Brent's refinement against golden section on the same bracket
    @pytest.mark.parametrize("variant", ["plain", "squeezed"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_refinement_matches_golden_section(self, n, variant):
        template = _variant_config(reference_pump(), n, variant, 7.0)
        opt = maximize_cooling_power(template)
        x_golden, q_golden = golden_optimum(template)
        assert abs(opt.omega_c_star - x_golden) <= 1e-6 * window_max(template)
        assert opt.q_c_max >= q_golden * (1 - 1e-12)
        assert opt.evaluations - COARSE_GRID_POINTS - 1 <= 20

    def test_every_refinement_step_failing_keeps_the_best_grid_point(self, monkeypatch):
        template = reference_pump(4)
        grid = window_grid(template)
        best = grid[np.argmax(_CoolingPowerEvaluator(template).q_cold_grid(grid))]
        original = _CoolingPowerEvaluator.q_cold
        calls = []

        def q_cold(self, omega_c, validate=False):
            if validate:
                return original(self, omega_c, validate)
            calls.append(omega_c)
            raise NoKernelError("forced")

        monkeypatch.setattr(_CoolingPowerEvaluator, "q_cold", q_cold)
        opt = maximize_cooling_power(template)
        assert opt.omega_c_star == best
        assert len(calls) > 0 and opt.failed_evaluations == len(calls)
        assert opt.evaluations == COARSE_GRID_POINTS + len(calls) + 1

    def test_failed_golden_steps_are_counted(self, monkeypatch):
        original = _CoolingPowerEvaluator.q_cold
        calls = []

        def q_cold(self, omega_c, validate=False):
            calls.append(omega_c)
            if len(calls) <= 2:
                raise NoKernelError("forced")
            return original(self, omega_c, validate)

        monkeypatch.setattr(_CoolingPowerEvaluator, "q_cold", q_cold)
        opt = maximize_cooling_power(reference_pump(3))
        assert opt.failed_evaluations == 2

    def test_every_grid_point_failing_raises(self, monkeypatch):
        # no solve has so small a residual: every point fails the residual gate
        monkeypatch.setattr(qpump.experiments, "KERNEL_RESIDUAL_RTOL", 1e-300)
        template = reference_pump(3)
        ev = _CoolingPowerEvaluator(template)
        grid = window_grid(template)
        assert np.isnan(ev.q_cold_grid(grid)).all()
        with pytest.raises(NoKernelError):
            ev.q_cold(float(grid[0]))
        with pytest.raises(NoKernelError):
            maximize_cooling_power(template)

    def test_optimum_validation(self):
        with pytest.raises(ValueError):
            Optimum(1.0, -1.0, 0.1, 0.5, 10)
        with pytest.raises(ValueError):
            Optimum(1.0, 1.0, 0.1, 1.5, 10)


class TestBrentMax:
    def test_finds_an_interior_maximum(self):
        xs = [1.0, 1.5, 2.2]
        x, fx, evals, failures = _brent_max(math.sin, xs, [math.sin(x) for x in xs], 1e-6)
        assert abs(x - math.pi / 2) <= 1e-6 and fx == math.sin(x)
        assert evals <= 10 and failures == 0

    def test_failed_calls_count_as_minus_infinity(self):
        def f(x):
            if x > 1.6:
                raise np.linalg.LinAlgError("forced")
            return math.sin(x)

        xs = [1.0, 1.5, 2.2]
        x, _, evals, failures = _brent_max(f, xs, [f(1.0), f(1.5), -math.inf], 1e-6)
        assert abs(x - math.pi / 2) <= 1e-6
        assert 0 < failures < evals


class TestPopulationStructure:
    @pytest.mark.parametrize("n", [3, 8, 10])
    def test_shared_read_only_and_equal_to_an_uncached_build(self, n):
        a = _CoolingPowerEvaluator(reference_pump(n))
        b = _CoolingPowerEvaluator(_variant_config(reference_pump(), n, "saturated", 7.0))
        assert a._stack is b._stack
        cached = (a._stack, a.cold_lows, a.cold_highs, a.rhs)
        for got, want in zip(cached, uncached_population_structure(n)):
            assert not got.flags.writeable
            assert np.array_equal(got, want)


class TestStackedGrid:
    # the grid's one stacked solve against the scalar step, point by point
    @pytest.mark.parametrize("variant", ["plain", "squeezed", "saturated"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_grid_matches_scalar_evaluations(self, n, variant):
        template = _variant_config(reference_pump(), n, variant, 7.0)
        ev = _CoolingPowerEvaluator(template)
        grid = window_grid(template)
        stacked = ev.q_cold_grid(grid)
        assert stacked.shape == grid.shape and np.isfinite(stacked).all()
        for x, q in zip(grid, stacked):
            ref = ev.q_cold(float(x))
            assert abs(q - ref) <= 1e-12 * abs(ref)


class TestSweepStages:
    def test_plain_even_odd_structure(self):
        rows = sweep_stages(reference_pump(), n_values=(3, 4, 5, 6), variants=("plain",))
        q = {r.n_levels: r.optimum.q_c_max for r in rows}
        assert q[4] > q[3] and q[6] > q[5]
        assert q[4] > q[5]
        assert q[5] > q[3] and q[6] >= q[4] * (1 - 1e-9)

    def test_variant_ordering(self):
        rows = sweep_stages(reference_pump(), n_values=(3, 4), squeeze_db=7.0)
        by = {(r.n_levels, r.variant): r.optimum.q_c_max for r in rows}
        for n in (3, 4):
            assert by[(n, "squeezed")] > by[(n, "plain")]
            assert by[(n, "saturated")] > by[(n, "squeezed")]

    def test_deterministic(self):
        a = sweep_stages(reference_pump(), n_values=(3, 5), variants=("plain",))
        b = sweep_stages(reference_pump(), n_values=(3, 5), variants=("plain",))
        assert [(r.optimum.omega_c_star, r.optimum.q_c_max) for r in a] == \
               [(r.optimum.omega_c_star, r.optimum.q_c_max) for r in b]

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            sweep_stages(reference_pump(), n_values=(3,), variants=("exotic",))


class TestHistogram:
    def test_deterministic_across_thread_counts(self):
        ranges = SampleRanges(seed=9001)
        a = cop_histogram(ranges, 40, threads=1)
        b = cop_histogram(ranges, 40, threads=4)
        assert np.array_equal(a.eps_ratios, b.eps_ratios)
        assert np.array_equal(a.n_levels, b.n_levels)
        assert a.rejected == b.rejected

    def test_samples_independent_of_batch_size(self):
        ranges = SampleRanges(seed=17)
        short = cop_histogram(ranges, 10, threads=1)
        long = cop_histogram(ranges, 40, threads=2)
        assert np.array_equal(short.eps_ratios, long.eps_ratios[:10])

    def test_bound_respected_on_small_ensemble(self):
        res = cop_histogram(SampleRanges(seed=3), 60, threads=1)
        assert res.eps_ratios.size == 60
        assert float(res.eps_ratios.max()) < 0.75
        assert np.all(res.n_levels >= 3) and np.all(res.n_levels <= 10)

    def test_summary_fields(self):
        res = cop_histogram(SampleRanges(seed=3), 20, threads=1)
        s = res.summary(bins=15)
        assert s["count"] == 20
        assert s["bin_counts"].sum() == 20
        assert 0 < s["max"] < 0.75

    def test_empty_ensemble(self):
        res = cop_histogram(SampleRanges(), 0, threads=1)
        assert res.eps_ratios.size == 0 and res.rejected == 0

    def test_seed_changes_samples(self):
        a = cop_histogram(SampleRanges(seed=1), 8, threads=1)
        b = cop_histogram(SampleRanges(seed=2), 8, threads=1)
        assert not np.array_equal(a.eps_ratios, b.eps_ratios)

    def test_solver_defect_is_not_a_rejection(self, monkeypatch):
        def broken(cfg):
            raise RuntimeError("defect")

        monkeypatch.setattr(qpump.experiments, "maximize_cooling_power", broken)
        with pytest.raises(RuntimeError, match="defect"):
            cop_histogram(SampleRanges(seed=3), 2, threads=1)

    def test_ranges_validation(self):
        with pytest.raises(ValueError):
            SampleRanges(t_cold=(5.0, 1.0))
        with pytest.raises(ValueError):
            SampleRanges(n_levels=(2, 10))


class TestCharacteristicCurve:
    def test_ideal_curve_is_exactly_linear_in_normalized_efficiency(self):
        pts = characteristic_curve("ideal", COMPARE_SETUP, n_points=50)
        window = qpump.cooling_window_max_fixed_work(60.0, COMPARE_SETUP.temps)
        for pt in pts:
            assert abs(pt.eps_over_carnot - pt.omega_c / window) < 1e-8

    def test_ideal_curve_touches_carnot_with_vanishing_power(self):
        # the power vanishes linearly toward the reversible edge, so the last
        # grid point (0.99 of the window here) retains ~9% of the peak
        pts = characteristic_curve("ideal", COMPARE_SETUP, n_points=100)
        q_max = max(p.q_c for p in pts)
        assert pts[-1].eps_over_carnot > 0.98
        assert 0 < pts[-1].q_c < 0.12 * q_max
        assert pts[0].q_c < 0.15 * q_max

    def test_three_qubit_curve_closes_below_carnot(self):
        pts = characteristic_curve("three_qubit", COMPARE_SETUP, n_points=100)
        q_max = max(p.q_c for p in pts)
        assert max(p.eps_over_carnot for p in pts) < 1.0
        assert pts[-1].q_c < 0.05 * q_max

    def test_power_ratio_exceeds_three_orders(self):
        ideal = characteristic_curve("ideal", COMPARE_SETUP, n_points=60)
        three = characteristic_curve("three_qubit", COMPARE_SETUP, n_points=60)
        ratio = max(p.q_c for p in ideal) / max(p.q_c for p in three)
        assert ratio >= 1e3

    @pytest.mark.xfail(raises=NonConvergedError, strict=True,
                       reason="first-law residual 1.452e-10 exceeds the 1e-10 gate at point 27 "
                              "of this sweep, whose largest current sits just above the gating "
                              "threshold while the current sum sits at the long-double floor "
                              "(ROADMAP item 3)")
    def test_three_qubit_curve_at_shifted_omega_h(self):
        setup = dataclasses.replace(COMPARE_SETUP, omega_w=SHIFTED_OMEGA_H - 1.5)
        characteristic_curve("three_qubit", setup, n_points=30)

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            characteristic_curve("four_qubit", COMPARE_SETUP, n_points=4)

    @pytest.mark.parametrize("system, n_levels", [*(("ideal", n) for n in range(3, 11)),
                                                  ("three_qubit", 8)])
    def test_stacked_curve_equals_point_by_point_solves(self, system, n_levels):
        # one stacked solve of the curve against one solve per point; the
        # arithmetic of a point does not depend on the stack, so the two are
        # expected to agree bit for bit
        setup = dataclasses.replace(COMPARE_SETUP, n_levels=n_levels)
        points = characteristic_curve(system, setup, n_points=30)
        for pt in points:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cfg = _curve_config(system, setup, pt.omega_c)
            sol = solve(cfg) if system == "ideal" else solve_three_qubit(cfg)
            assert abs(pt.q_c - sol.q_cold) <= 1e-12 * abs(sol.q_cold)
            assert abs(pt.eps - sol.cop) <= 1e-12 * abs(sol.cop)

    def test_stacked_curve_is_split_into_bounded_stacks(self, monkeypatch):
        whole = characteristic_curve("three_qubit", COMPARE_SETUP, n_points=30)
        monkeypatch.setattr(qpump.experiments, "_STACK_POINTS", 7)
        assert characteristic_curve("three_qubit", COMPARE_SETUP, n_points=30) == whole

    @pytest.mark.parametrize("first_law_at, no_kernel_at, error, named", [
        (2, None, NonConvergedError, 2),
        (None, 2, NoKernelError, 2),
        (1, 3, NonConvergedError, 1),
        (3, 1, NoKernelError, 1),
    ], ids=["first_law", "kernel", "first_law_before_kernel", "kernel_before_first_law"])
    def test_failed_gate_names_the_point(self, monkeypatch, first_law_at, no_kernel_at,
                                         error, named):
        # one point of a five-point stack breaks the first law (its work
        # current is skewed) and/or has no kernel (every point takes the SVD
        # path, which finds none at that point); the first failing point in
        # the stack raises, as a point-by-point loop would, and the error
        # names it
        currents, diagnostics = _Generator.currents, qpump.linalg._kernel_diagnostics

        def broken_currents(self, v):
            q = currents(self, v)
            q["work"][first_law_at] *= 1.0 + 1e-6
            return q

        diagnosed = []

        def broken_diagnostics(m):
            diagnosed.append(m)
            if len(diagnosed) - 1 == no_kernel_at:
                raise NoKernelError("no stationary state")
            return diagnostics(m)

        if first_law_at is not None:
            monkeypatch.setattr(_Generator, "currents", broken_currents)
        if no_kernel_at is not None:
            monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", 1.0)
            monkeypatch.setattr(qpump.linalg, "_kernel_diagnostics", broken_diagnostics)
        window = qpump.cooling_window_max_fixed_work(60.0, COMPARE_SETUP.temps)
        omega_c = window * (named + 1) / 6
        message = "first-law residual .*" if error is NonConvergedError else "no stationary state"
        with pytest.raises(error, match=f"^{message} at omega_c={re.escape(repr(omega_c))}$"):
            characteristic_curve("ideal", COMPARE_SETUP, n_points=5)

    @pytest.mark.parametrize("n_points", [0, -2])
    def test_no_points_rejected(self, n_points):
        with pytest.raises(ValueError):
            characteristic_curve("ideal", COMPARE_SETUP, n_points=n_points)
