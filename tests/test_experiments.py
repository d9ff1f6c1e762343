import dataclasses
import importlib.util
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import qpump
from qpump.experiments import (
    COARSE_GRID_POINTS,
    CurveSetup,
    EmptyWindowError,
    Optimum,
    PerformancePoint,
    REFINE_RELATIVE_WIDTH,
    SampleRanges,
    _brent_max,
    _CoolingPowerEvaluator,
    _curve_config,
    _draw,
    _sample_point,
    _solve_grids,
    _variant_config,
    characteristic_curve,
    cop_histogram,
    maximize_cooling_power,
    sweep_stages,
)
from qpump.linalg import NoKernelError
from qpump.pump import BathSpec, PumpConfig, WeakCouplingWarning, _transition_levels, \
    cooling_window_max, decay_rates, window_max
from qpump.steady import NonConvergedError, solve
from qpump.three_qubit import _solve_fridges, solve_three_qubit

REF_PARAMS = dict(omega_h=102.6, t_work=7.1e3, t_hot=1.57e3, t_cold=54.25,
            gamma_work=3.5e-3, gamma_hot=5.1e-3, gamma_cold=8.8e-3)
COMPARE_SETUP = CurveSetup(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
                   gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3,
                   g=0.1, n_levels=8)
# a shift of omega_h = 61.5 at which the first-law gate failed on the 30-point
# three-qubit curve when the fridge was solved through its generator
# (tools/first_law_scan.py)
SHIFTED_OMEGA_H = 61.500303


def reference_pump(n_levels=3):
    return qpump.ideal_pump(n_levels=n_levels, omega_c=1.4, **REF_PARAMS)


def window_grid(template, n_points=COARSE_GRID_POINTS):
    """The optimizer's grid: n_points interior points of the cooling window."""
    return window_max(template) * np.arange(1, n_points + 1) / (n_points + 1)


def grid_alone(template):
    """The coarse grid of one template, solved by itself."""
    ev = _CoolingPowerEvaluator(template)
    _solve_grids([ev])
    return ev.grid


def scalar_steps(ev, grid):
    """``ev.q_cold`` at every point of ``grid``, NaN where it raises."""
    out = []
    for x in grid.tolist():
        try:
            out.append(ev.q_cold(x))
        except NoKernelError:
            out.append(math.nan)
    return np.array(out)


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
    """(omega_c*, condition-checked q_c) of golden section on the
    optimizer's bracket: the best grid cell and its two neighbours."""
    ev = _CoolingPowerEvaluator(template)
    window = window_max(template)
    best = int(np.nanargmax(grid_alone(template))) + 1
    a = window * (best - 1) / (COARSE_GRID_POINTS + 1)
    b = window * (best + 1) / (COARSE_GRID_POINTS + 1)
    x, _, _, _ = golden_max(ev.q_cold, a, b, REFINE_RELATIVE_WIDTH * window)
    ev.check_condition(x)
    return x, ev.q_cold(x)


def uncached_population_structure(n):
    """The incidence stack, built here from the ladder without the
    optimizer's cache."""
    stack = np.zeros((6, n, n))
    for k, label in enumerate(("work", "hot", "cold")):
        for lo, hi in zip(*_transition_levels(n, label)):
            stack[2 * k, lo, hi] += 1.0
            stack[2 * k, hi, hi] -= 1.0
            stack[2 * k + 1, hi, lo] += 1.0
            stack[2 * k + 1, lo, lo] -= 1.0
    return stack.reshape(6, n * n)


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

    # the Optimum of each template as the optimizer found it before its
    # steps called the rate body without decay_rates' checks
    @pytest.mark.parametrize("n, variant, frozen", [
        (3, "plain", (2.0868750376019167, 0.018641465255228196, 0.02076221427184376,
                      0.7447915154243214)),
        (6, "squeezed", (2.4403951846408654, 0.051843817840902785, 0.024365064030949922,
                         0.7438897593902775)),
        (10, "saturated", (2.658869521964128, 0.0732628241203108, 0.02660435707747442,
                           0.7433283055303986)),
    ])
    def test_solved_grid_refines_without_decay_rates(self, monkeypatch, n, variant, frozen):
        ev = _CoolingPowerEvaluator(_variant_config(reference_pump(), n, variant, 7.0))
        _solve_grids([ev])
        calls = []

        def counted(*args):
            calls.append(args)
            return decay_rates(*args)

        for module in (qpump.experiments, qpump.steady, qpump.three_qubit):
            monkeypatch.setattr(module, "decay_rates", counted)
        opt = maximize_cooling_power(ev)
        assert calls == []
        assert opt == Optimum(*frozen, evaluations=71, failed_evaluations=0)

    @pytest.mark.parametrize("variant", ["plain", "squeezed", "saturated"])
    def test_channels_keep_decay_rates_bits(self, variant):
        t = _variant_config(reference_pump(), 5, variant, 7.0)
        ev = _CoolingPowerEvaluator(t)
        for x in window_grid(t, 9).tolist():
            pairs = [decay_rates(t.work, t.omega_h - x), decay_rates(t.hot, t.omega_h),
                     decay_rates(t.cold, x)]
            assert ev._channels(x) == tuple(r for pair in pairs for r in (pair.down, pair.up))

    def test_channels_reject_frequencies_outside_the_ladder(self):
        ev = _CoolingPowerEvaluator(reference_pump(4))
        for omega_c, named in ((0.0, 0.0), (-1.0, -1.0), (102.6, 0.0), (110.0, -7.4)):
            with pytest.raises(ValueError, match=re.escape(f"omega must be > 0, got {named}")):
                ev._channels(omega_c)

    def test_validated_point_gates_on_condition(self, monkeypatch):
        monkeypatch.setattr(qpump.experiments, "KERNEL_RCOND_FLOOR", 1.0)
        with pytest.raises(NoKernelError):
            maximize_cooling_power(reference_pump(3))

    def test_failed_grid_points_are_dropped_and_counted(self, monkeypatch):
        template = reference_pump(4)
        clean = maximize_cooling_power(template)
        grid = window_grid(template)
        q = grid_alone(template)
        nan_at = int(np.argmax(q))
        singular_at = nan_at + 1
        original = qpump.experiments._padded_ladder_rates

        def padded_ladder_rates(n, rates, points):
            # one template: row m of the six rates is grid point m
            rates = [r.copy() for r in rates]
            rates[4][nan_at] = np.nan  # the cold bath's downward rate
            for r in rates:
                # no transitions: no level has an outflow, and only the
                # trace row is left of the dense matrix, which is singular
                r[singular_at] = 0.0
            return original(n, rates, points)

        monkeypatch.setattr(qpump.experiments, "_padded_ladder_rates", padded_ladder_rates)
        stacked = grid_alone(template)
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
        best = grid[np.argmax(grid_alone(template))]
        calls = []

        def q_cold(self, omega_c):
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

        def q_cold(self, omega_c):
            calls.append(omega_c)
            if len(calls) <= 2:
                raise NoKernelError("forced")
            return original(self, omega_c)

        monkeypatch.setattr(_CoolingPowerEvaluator, "q_cold", q_cold)
        opt = maximize_cooling_power(reference_pump(3))
        assert opt.failed_evaluations == 2

    def test_every_grid_point_failing_raises(self, monkeypatch):
        # no solve has so small a residual: every point fails the residual gate
        monkeypatch.setattr(qpump.experiments, "KERNEL_RESIDUAL_RTOL", 1e-300)
        template = reference_pump(3)
        ev = _CoolingPowerEvaluator(template)
        grid = window_grid(template)
        assert np.isnan(grid_alone(template)).all()
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
        assert not a._stack.flags.writeable
        assert np.array_equal(a._stack, uncached_population_structure(n))


class TestStackedGrid:
    # the grid and the scalar step run one body: equal bit for bit
    @pytest.mark.parametrize("variant", ["plain", "squeezed", "saturated"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_grid_matches_scalar_evaluations(self, n, variant):
        template = _variant_config(reference_pump(), n, variant, 7.0)
        ev = _CoolingPowerEvaluator(template)
        grid = window_grid(template)
        stacked = grid_alone(template)
        assert stacked.shape == grid.shape and np.isfinite(stacked).all()
        assert stacked.tolist() == [ev.q_cold(x) for x in grid.tolist()]

    @pytest.mark.parametrize("variant", ["plain", "saturated"])
    def test_padded_chunk_grid_is_bit_identical(self, variant):
        # N = 3 beside N = 10: the small ladder is padded by seven levels
        templates = [_variant_config(reference_pump(), n, variant, 7.0) for n in (3, 10, 4)]
        chunk = [_CoolingPowerEvaluator(t) for t in templates]
        _solve_grids(chunk)
        for ev in chunk:
            grid = window_grid(ev.template)
            alone = grid_alone(ev.template)
            assert np.isfinite(alone).all()
            assert ev.grid.tobytes() == alone.tobytes()
            assert alone.tolist() == [ev.q_cold(x) for x in grid.tolist()]

    def test_ensemble_chunk_grid_is_bit_identical(self):
        # per-row baths: every draw has its own temperatures and strengths
        ranges = SampleRanges(seed=11)
        chunk = [_CoolingPowerEvaluator(cfg) for cfg in
                 (_draw(ranges, i, 0) for i in range(32)) if cfg is not None]
        assert len({ev.n for ev in chunk}) == 8
        _solve_grids(chunk)
        for ev in chunk:
            alone = grid_alone(ev.template)
            assert ev.grid.tobytes() == alone.tobytes()
            assert np.array_equal(alone, scalar_steps(ev, window_grid(ev.template)),
                                  equal_nan=True)

    def test_chunk_baths_must_share_saturation(self):
        chunk = [_CoolingPowerEvaluator(_variant_config(reference_pump(), 4, variant, 7.0))
                 for variant in ("plain", "saturated")]
        with pytest.raises(ValueError, match="saturation"):
            _solve_grids(chunk)


def load_optimizer_oracle():
    path = Path(__file__).resolve().parent.parent / "tools" / "optimizer_oracle.py"
    spec = importlib.util.spec_from_file_location("optimizer_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestOptimizerAccuracy:
    # the optimizer's q_c against a 50-digit mpmath solve of the same chain,
    # with the same double rates
    @pytest.mark.parametrize("variant", ["plain", "saturated"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_q_cold_matches_mpmath(self, n, variant):
        pytest.importorskip("mpmath")
        oracle = load_optimizer_oracle()
        template = _variant_config(reference_pump(), n, variant, 7.0)
        ev = _CoolingPowerEvaluator(template)
        window = window_max(template)
        for omega_c in (2.6, 2.65, 2.7, 0.2 * window, 0.5 * window, 0.8 * window):
            ref = oracle.mpmath_currents(n, ev._channels(omega_c), omega_c,
                                         template.omega_h)["cold"]
            assert abs(ev.q_cold(omega_c) - ref) <= 1e-12 * abs(ref)


def pump_rates(cfg):
    """The six double rates (work, hot, cold; down then up) of a pump at its
    bath frequencies, floats or (P,) arrays."""
    pairs = [decay_rates(cfg.bath(label), cfg.bath_frequency(label))
             for label in ("work", "hot", "cold")]
    return [rate for pair in pairs for rate in (pair.down, pair.up)]


def assert_currents_match(currents, ref):
    # q_c to 1e-13 of itself; q_w and q_h to 1e-10 of the largest current
    bound = 1e-10 * max(abs(q) for q in ref.values())
    assert abs(currents["cold"] - ref["cold"]) <= 1e-13 * abs(ref["cold"])
    for label in ("work", "hot"):
        assert abs(currents[label] - ref[label]) <= bound


# the four 1000-point ideal curves whose smallest omega_c spread the rates by
# more than 5e7, (omega_w, n_levels); their currents come out of one-way
# flows up to 1e9 times the net ones
STIFF_CURVES = [(5.0, 3), (5.0, 4), (20.0, 3), (20.0, 4)]


def stiff_setup(omega_w, n):
    return CurveSetup(omega_w=omega_w, t_work=130.0, t_hot=60.0, t_cold=5.0,
                      gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3, n_levels=n)


class TestSolveAccuracy:
    # the pump's three currents against a 50-digit mpmath solve of the same
    # chain, with the same double rates
    @pytest.mark.parametrize("variant", ["plain", "saturated"])
    @pytest.mark.parametrize("n", range(3, 11))
    def test_currents_match_mpmath(self, n, variant):
        pytest.importorskip("mpmath")
        oracle = load_optimizer_oracle()
        template = _variant_config(reference_pump(), n, variant, 7.0)
        window = window_max(template)
        for omega_c in (2.6, 2.65, 2.7, 0.2 * window, 0.5 * window, 0.8 * window):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", qpump.WeakCouplingWarning)
                cfg = dataclasses.replace(template, omega_c=omega_c)
            ref = oracle.mpmath_currents(n, pump_rates(cfg), omega_c, cfg.omega_h)
            assert_currents_match(solve(cfg).currents, ref)

    @pytest.mark.parametrize("setup, points, first", [
        (COMPARE_SETUP, 28, 0),
        # the stiffest points of the dense curves
        *((stiff_setup(*curve), 1000, 0) for curve in STIFF_CURVES),
    ], ids=["compare_setup", *(f"stiff_w{w:g}_n{n}" for w, n in STIFF_CURVES)])
    def test_curve_currents_match_mpmath(self, setup, points, first):
        pytest.importorskip("mpmath")
        oracle = load_optimizer_oracle()
        window = qpump.cooling_window_max_fixed_work(setup.omega_w, setup.temps)
        grid = window * np.arange(1, points + 1) / (points + 1)
        sweep = qpump.experiments._curve_sweep("ideal", setup, grid[first:first + 28])
        sols = qpump.steady._solve_pumps(sweep)
        rates = pump_rates(sweep)
        for k in range(28):
            ref = oracle.mpmath_currents(setup.n_levels, [r[k] for r in rates],
                                         sweep.omega_c[k], sweep.omega_h[k])
            assert_currents_match(sols[k].currents, ref)


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

    def test_one_grid_call_per_variant(self, monkeypatch):
        original = qpump.experiments._solve_grids
        calls = []

        def solve_grids(evaluators):
            calls.append(sorted(ev.n for ev in evaluators))
            return original(evaluators)

        monkeypatch.setattr(qpump.experiments, "_solve_grids", solve_grids)
        rows = sweep_stages(reference_pump(), squeeze_db=7.0)
        assert calls == [list(range(3, 11))] * 3
        for row in rows:
            alone = maximize_cooling_power(
                _variant_config(reference_pump(), row.n_levels, row.variant, 7.0))
            assert dataclasses.asdict(row.optimum) == dataclasses.asdict(alone)

    def test_empty_window_variant_raises(self, monkeypatch):
        original = qpump.experiments._solve_grids
        calls = []

        def solve_grids(evaluators):
            calls.append(len(evaluators))
            return original(evaluators)

        monkeypatch.setattr(qpump.experiments, "_solve_grids", solve_grids)
        monkeypatch.setattr(qpump.experiments, "window_max", lambda cfg: 0.0)
        with pytest.raises(EmptyWindowError):
            sweep_stages(reference_pump(), n_values=(3, 4), variants=("plain",))
        assert calls == [0]


class TestSampleRanges:
    def test_log_bounds_follow_the_ranges(self):
        ranges = SampleRanges(seed=5)
        bounds = [(np.log(lo), np.log(hi)) for lo, hi in (
            ranges.t_cold, ranges.hot_over_cold, ranges.work_over_hot,
            ranges.omega_h_over_t_cold, ranges.gamma_frac)]
        assert ranges.log_low.tolist() == [lo for lo, _ in bounds]
        assert ranges.log_span.tolist() == [hi - lo for lo, hi in bounds]
        wider = dataclasses.replace(ranges, t_cold=(0.5, 1e2))
        assert (wider.log_low[0], wider.log_span[0]) == (np.log(0.5), np.log(1e2) - np.log(0.5))
        assert wider.log_low[1:].tolist() == ranges.log_low[1:].tolist()
        assert wider.log_span[1:].tolist() == ranges.log_span[1:].tolist()
        assert "log_low" not in repr(ranges) and "log_span" not in repr(ranges)
        assert ranges == SampleRanges(seed=5)


def uniform_draw(ranges, index, attempt):
    """The fridge of :func:`_draw`, drawn as it was before the draws were
    grouped: one ``rng.uniform`` call per log-uniform factor."""
    def log_uniform(bounds):
        return float(np.exp(rng.uniform(np.log(bounds[0]), np.log(bounds[1]))))

    rng = np.random.default_rng([ranges.seed, index, attempt])
    t_c = log_uniform(ranges.t_cold)
    t_h = t_c * log_uniform(ranges.hot_over_cold)
    t_w = t_h * log_uniform(ranges.work_over_hot)
    omega_h = t_c * log_uniform(ranges.omega_h_over_t_cold)
    n = int(rng.integers(ranges.n_levels[0], ranges.n_levels[1] + 1))
    window = cooling_window_max(omega_h, (t_w, t_h, t_c))
    scale = min(window, t_c)
    gammas = [scale * log_uniform(ranges.gamma_frac) for _ in range(3)]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            return PumpConfig(n, omega_h, 0.5 * window, BathSpec("work", t_w, gammas[0]),
                              BathSpec("hot", t_h, gammas[1]), BathSpec("cold", t_c, gammas[2]))
    except ValueError:
        return None


class TestDraw:
    @pytest.mark.parametrize("ranges", [SampleRanges(),
                                        SampleRanges(t_cold=(0.5, 3.0), gamma_frac=(1e-4, 1e-3),
                                                     n_levels=(4, 9), seed=41)])
    def test_draws_match_one_uniform_call_per_factor(self, ranges):
        # 2,000 (index, attempt) pairs per range set, compared field by field
        pairs = [(index, attempt) for index in range(400) for attempt in range(5)]
        assert [_draw(ranges, *pair) for pair in pairs] == [uniform_draw(ranges, *pair)
                                                            for pair in pairs]


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

    def test_chunk_grids_match_samples_solved_alone(self):
        # the padded chunk grid against each sample's own grid and steps
        ranges = SampleRanges(seed=23)
        res = cop_histogram(ranges, 12, threads=1)
        alone = [_sample_point(ranges, i) for i in range(12)]
        assert res.eps_ratios.tolist() == [a[0] for a in alone]
        assert res.n_levels.tolist() == [a[1] for a in alone]

    def test_rejected_first_attempt_is_redrawn(self, monkeypatch):
        # every first attempt, which arrives with its chunk-solved grid,
        # fails its kernel; attempt 1 is drawn and solved alone
        original = qpump.experiments.maximize_cooling_power

        def maximize(template):
            if isinstance(template, _CoolingPowerEvaluator):
                assert template.grid is not None
                raise NoKernelError("forced")
            return original(template)

        monkeypatch.setattr(qpump.experiments, "maximize_cooling_power", maximize)
        ranges = SampleRanges(seed=29)
        res = cop_histogram(ranges, 5, threads=1)
        assert res.rejected == 5
        assert res.eps_ratios.tolist() == [original(_draw(ranges, i, 1)).eps_ratio
                                           for i in range(5)]

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


# (first_law_at, no_kernel_at, error, named) of test_failed_gate_names_the_point
GATE_FAULTS = {
    "first_law": (2, None, NonConvergedError, 2),
    "kernel": (None, 2, NoKernelError, 2),
    "first_law_before_kernel": (1, 3, NonConvergedError, 1),
    "kernel_before_first_law": (3, 1, NoKernelError, 1),
}


class TestCharacteristicCurve:
    @pytest.mark.parametrize("omega_w, n", STIFF_CURVES)
    def test_stiff_dense_ideal_curve_passes_its_gates(self, omega_w, n):
        # the net fluxes are a 1e-9 part of the one-way flows at the smallest
        # omega_c; taken as plain long-double differences they broke the
        # first-law gate there
        assert len(characteristic_curve("ideal", stiff_setup(omega_w, n), n_points=1000)) == 1000

    @pytest.mark.parametrize("system", ["ideal", "three_qubit"])
    def test_curve_is_exactly_linear_in_normalized_efficiency(self, system):
        # both machines' COP is omega_c / omega_w at every point
        pts = characteristic_curve(system, COMPARE_SETUP, n_points=50)
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
        assert pts[-1].q_c < 0.05 * q_max

    def test_power_ratio_exceeds_three_orders(self):
        ideal = characteristic_curve("ideal", COMPARE_SETUP, n_points=60)
        three = characteristic_curve("three_qubit", COMPARE_SETUP, n_points=60)
        ratio = max(p.q_c for p in ideal) / max(p.q_c for p in three)
        assert ratio >= 1e3

    def test_three_qubit_curve_at_shifted_omega_h(self):
        # the generator's trace assembly failed the first-law gate here at
        # point 27 (1.452e-10); the chain's exact fluxes hold every point at
        # the rounding of the double currents
        setup = dataclasses.replace(COMPARE_SETUP, omega_w=SHIFTED_OMEGA_H - 1.5)
        assert len(characteristic_curve("three_qubit", setup, n_points=30)) == 30
        window = qpump.cooling_window_max_fixed_work(setup.omega_w, setup.temps)
        grid = window * np.arange(1, 31) / 31
        sols = _solve_fridges(qpump.experiments._curve_sweep("three_qubit", setup, grid))
        assert sols.first_law.max() <= 1e-14

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            characteristic_curve("four_qubit", COMPARE_SETUP, n_points=4)

    @pytest.mark.parametrize("system, n_levels", [*(("ideal", n) for n in range(3, 11)),
                                                  ("three_qubit", 8)])
    def test_stacked_curve_equals_point_by_point_solves(self, system, n_levels):
        # one stacked solve of the curve against one solve per point; the
        # arithmetic of a point does not depend on the stack, so the two
        # agree bit for bit, in the curve's columns and in each point's
        # residuals and state
        setup = dataclasses.replace(COMPARE_SETUP, n_levels=n_levels)
        points = characteristic_curve(system, setup, n_points=30)
        stack = (qpump.steady._solve_pumps if system == "ideal" else _solve_fridges)(
            qpump.experiments._curve_sweep(system, setup, np.array([pt.omega_c for pt in points])))
        for pt, stacked in zip(points, stack):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cfg = _curve_config(system, setup, pt.omega_c)
            sol = solve(cfg) if system == "ideal" else solve_three_qubit(cfg)
            assert (pt.q_c, pt.eps) == (sol.q_cold, sol.cop)
            assert stacked.residuals == sol.residuals
            assert np.array_equal(stacked.rho_ld, sol.rho_ld)

    def test_stacked_curve_is_split_into_bounded_stacks(self, monkeypatch):
        whole = characteristic_curve("three_qubit", COMPARE_SETUP, n_points=30)
        monkeypatch.setattr(qpump.experiments, "_STACK_POINTS", 7)
        assert characteristic_curve("three_qubit", COMPARE_SETUP, n_points=30) == whole

    @pytest.mark.parametrize("system, first_law_at, no_kernel_at, error, named", [
        (system, *case) for system in ("ideal", "three_qubit") for case in GATE_FAULTS.values()
    ], ids=[name + suffix for suffix in ("", "-three_qubit") for name in GATE_FAULTS])
    def test_failed_gate_names_the_point(self, monkeypatch, system, first_law_at, no_kernel_at,
                                         error, named):
        # one point of a five-point stack breaks the first law (its work
        # current is skewed, where the pump's or the fridge's flux currents
        # are assembled) and/or has no kernel (every
        # point takes the SVD path, which finds none at that point); the
        # first failing point in the stack raises, as a point-by-point loop
        # would, and the error names it
        if system == "ideal":
            owner, name = qpump.steady, "_ladder_currents"
        else:
            owner, name = qpump.three_qubit, "_fridge_currents"
        currents, diagnostics = getattr(owner, name), qpump.linalg._kernel_diagnostics

        def broken_currents(*args):
            q = currents(*args)
            q["work"][first_law_at] *= 1.0 + 1e-6
            return q

        diagnosed = []

        def broken_diagnostics(m):
            diagnosed.append(m)
            if len(diagnosed) - 1 == no_kernel_at:
                raise NoKernelError("no stationary state")
            return diagnostics(m)

        if first_law_at is not None:
            monkeypatch.setattr(owner, name, broken_currents)
        if no_kernel_at is not None:
            monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", 1.0)
            monkeypatch.setattr(qpump.linalg, "_kernel_diagnostics", broken_diagnostics)
        window = qpump.cooling_window_max_fixed_work(60.0, COMPARE_SETUP.temps)
        omega_c = window * (named + 1) / 6
        message = "first-law residual .*" if error is NonConvergedError else "no stationary state"
        with pytest.raises(error, match=f"^{message} at omega_c={re.escape(repr(omega_c))}$"):
            characteristic_curve(system, COMPARE_SETUP, n_points=5)

    @pytest.mark.parametrize("system", ["ideal", "three_qubit"])
    @pytest.mark.parametrize("faults", [
        {1: "carnot", 3: "nan"},
        {1: "nan", 3: "carnot"},
        {2: "inf_eps"},
        {4: "carnot"},
    ], ids=["carnot_before_nan", "nan_before_carnot", "inf_eps", "carnot_last"])
    def test_point_checks_match_performance_points(self, monkeypatch, system, faults):
        # the curve's columns are judged on arrays; the error is the one that
        # building one PerformancePoint per point, in order, raises
        eps_c = qpump.carnot_cop(COMPARE_SETUP.temps)
        name = "_solve_pumps" if system == "ideal" else "_solve_fridges"
        solve_stack = getattr(qpump.experiments, name)

        def broken_solve(cfg):
            sols = solve_stack(cfg)
            q_c, cop = sols.q_cold.copy(), sols.cop.copy()
            for k, fault in faults.items():
                if fault == "carnot":
                    cop[k] = eps_c * (1.0 + 1e-6)
                elif fault == "nan":
                    q_c[k] = math.nan
                else:
                    cop[k] = math.inf
            return dataclasses.replace(sols, q_cold=q_c, cop=cop)

        window = qpump.cooling_window_max_fixed_work(60.0, COMPARE_SETUP.temps)
        grid = window * np.arange(1, 6) / 6
        sols = broken_solve(qpump.experiments._curve_sweep(system, COMPARE_SETUP, grid))
        with pytest.raises(ValueError) as expected:
            [PerformancePoint(w, q, e, e / eps_c)
             for w, q, e in zip(grid.tolist(), sols.q_cold.tolist(), sols.cop.tolist())]
        monkeypatch.setattr(qpump.experiments, name, broken_solve)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            qpump.experiments._curve_columns(system, COMPARE_SETUP, 5)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            characteristic_curve(system, COMPARE_SETUP, n_points=5)

    @pytest.mark.parametrize("n_points", [0, -2])
    def test_no_points_rejected(self, n_points):
        with pytest.raises(ValueError):
            characteristic_curve("ideal", COMPARE_SETUP, n_points=n_points)
