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
    NoCoolingPowerError,
    Optimum,
    PerformancePoint,
    REFINE_RELATIVE_WIDTH,
    SampleRanges,
    _brent_max,
    _CoolingPowerEvaluator,
    _curve_config,
    _draw,
    _draws,
    _refine_and_judge,
    _sample_point,
    _solve_grids,
    _variant_config,
    characteristic_curve,
    cop_histogram,
    maximize_cooling_power,
    sweep_stages,
)
from qpump.linalg import DegenerateKernelError, NoKernelError
from qpump.pump import BathSpec, PumpConfig, WeakCouplingWarning, cooling_window_max, \
    decay_rates, transition_pairs, window_max
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


def curve_stack(system, setup, omega_c):
    """One config of a curve's machines at the (P,) cold frequencies
    ``omega_c``, built as the curve builds it, whose fridge's g may be large
    against the smallest omega_c."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return _curve_config(system, setup, omega_c)


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
    assert qpump.linalg._matrix_verdict(*dense_rate_matrix(ev, x)) is None
    return x, ev.q_cold(x)


def dense_rate_matrix(ev, omega_c):
    """The arguments of ``linalg._matrix_verdict`` for the dense rate matrix
    of ``ev`` at ``omega_c``: the matrix, its trace row of ones and max|M|."""
    (mat,) = qpump.steady._ladder(ev.n).blocks(np.array(ev._channels(omega_c))[:, None])
    return mat, 1.0, float(np.abs(mat).max())


def uncached_population_structure(n):
    """The incidence stack, built here from the ladder without the
    optimizer's cache."""
    stack = np.zeros((6, n, n))
    for k, label in enumerate(("work", "hot", "cold")):
        for lo, hi in np.array(transition_pairs(n, label)) - 1:  # 0-based
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
        # the chain solves' verdict at the maximizer, which names it
        monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", 1.0)
        with pytest.raises(DegenerateKernelError, match=r"^reciprocal condition .* below 1e\+00; "
                           r"stationary state numerically degenerate at omega_c=\d"):
            maximize_cooling_power(reference_pump(3))

    def test_condition_gate_is_scale_free(self, monkeypatch):
        # every gamma times 2^k: the same chain, so the same grid argmax,
        # steps and x*, and q_c times 2^k, bit for bit; the condition gate
        # divides the rate rows by a power of two of their scale, so it sees
        # one matrix and passes at a floor that the condition with the trace
        # row left at 1 misses by orders of magnitude at k = 0 and 40
        monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", 1e-3)
        base = reference_pump(6)
        optima = {}
        for k in (-40, 0, 40):
            baths = {label: dataclasses.replace(base.bath(label),
                                                gamma=math.ldexp(base.bath(label).gamma, k))
                     for label in ("work", "hot", "cold")}
            optima[k] = maximize_cooling_power(dataclasses.replace(base, **baths))
        for k, opt in optima.items():
            assert opt.omega_c_star == optima[0].omega_c_star
            assert opt.q_c_max == math.ldexp(optima[0].q_c_max, k)
            assert opt.eps_ratio == optima[0].eps_ratio

    def test_failed_grid_points_are_dropped_and_counted(self, monkeypatch):
        template = reference_pump(4)
        clean = maximize_cooling_power(template)
        grid = window_grid(template)
        q = grid_alone(template)
        nan_at = int(np.argmax(q))
        singular_at = nan_at + 1
        original = qpump.experiments._padded_rates

        def padded_rates(n, rates, points):
            # one template: row m of the six rates is grid point m
            rates = [r.copy() for r in rates]
            rates[4][nan_at] = np.nan  # the cold bath's downward rate
            for r in rates:
                # no transitions: no level has an outflow, and only the
                # trace row is left of the dense matrix, which is singular
                r[singular_at] = 0.0
            return original(n, rates, points)

        monkeypatch.setattr(qpump.experiments, "_padded_rates", padded_rates)
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
        # the ladder's chain, which builds every dense rate matrix, is one
        # cached record per N, and its matrices of the six rates alone are
        # the incidence stack built here from the pairs of each bath
        a, b = qpump.steady._ladder(n), qpump.steady._ladder(n)
        assert a is b
        assert not any(x.flags.writeable for x in (a.lo, a.hi, a.rise, a.pair, a.slots))
        assert np.array_equal(a.blocks(np.eye(6)).reshape(6, n * n),
                              uncached_population_structure(n))


class TestSlotTable:
    """The per-level rates that the slot table gathers, at a scalar step, on
    a curve's arrays and on a padded grid, against the entries of the
    ladder's dense rate matrix, which places each rate at its edge."""

    @staticmethod
    def placed(n, rates, levels):
        """Each level's rate to k + 1, k - 1, k + 2 and k - 2, (4, levels, P),
        read from the column of k of ``_ladder(n).blocks(rates)``; 0 where
        the ladder has no such level, and on its padding."""
        mats = qpump.steady._ladder(n).blocks(rates)
        out = np.zeros((4, levels, rates.shape[1]))
        for row, step in enumerate((1, -1, 2, -2)):
            for k in range(max(0, -step), min(n, n - step)):
                out[row, k] = mats[:, k + step, k]
        return out

    @staticmethod
    def rates(points, seed):
        # distinct rates, so that a slot that takes the wrong one shows
        scales = 10.0 ** np.arange(6)[:, None]
        return np.random.default_rng(seed).uniform(0.5, 2.0, (6, points)) * scales

    @pytest.mark.parametrize("n", range(3, 11))
    def test_ladder_rates_hold_each_placed_rate(self, n):
        rates = self.rates(5, n)
        expected = self.placed(n, rates, n)
        *gathered, dead = qpump.steady._ladder_rates(n, rates)
        assert dead is None
        got = np.array([[np.broadcast_to(x, (5,)) for x in row] for row in gathered])
        assert got.tobytes() == expected.tobytes()
        for point in range(5):  # a scalar step's floats
            *gathered, _ = qpump.steady._ladder_rates(n, tuple(rates[:, point].tolist()))
            assert all(type(x) is float for row in gathered for x in row)
            assert np.array(gathered).tobytes() == expected[..., point].copy().tobytes()

    @pytest.mark.parametrize("sizes", [[3, 10], [10, 3], [4, 10, 3, 7], [5, 5, 9, 6, 8],
                                       list(range(3, 11)), [6]])
    def test_padded_rates_hold_each_placed_rate(self, sizes):
        points = 4
        rates = self.rates(points * len(sizes), len(sizes))
        *gathered, dead = qpump.experiments._padded_rates(sizes, list(rates), points)
        gathered, dead = np.array(gathered), np.array(dead)
        levels = max(sizes)
        assert gathered.shape == (4, levels, points * len(sizes))
        for s, n in enumerate(sizes):
            cols = slice(s * points, (s + 1) * points)
            expected = self.placed(n, rates[:, cols], levels)
            assert gathered[..., cols].tobytes() == expected.tobytes()
            # a padding level: no rate, exactly, and a dead out-rate of 1
            assert not gathered[:, n:, cols].any()
            assert (dead[n:, cols] == 1.0).all() and not dead[:n, cols].any()


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


def per_sample_bracket(ev):
    """The start of the refinement as maximize_cooling_power took it from one
    evaluator's solved grid before the grids stored it: the nodes and values
    of the best grid point and its two neighbours, a failed point as -inf,
    and the failed grid points."""
    nodes = ev.window * np.arange(COARSE_GRID_POINTS + 2) / (COARSE_GRID_POINTS + 1)
    lost = np.isnan(ev.grid)
    q_nodes = np.zeros(COARSE_GRID_POINTS + 2)
    q_nodes[1:-1] = np.where(lost, -np.inf, ev.grid)
    best = int(np.argmax(q_nodes[1:-1])) + 1
    cell = slice(best - 1, best + 2)
    return nodes[cell].tolist(), q_nodes[cell].tolist(), int(np.count_nonzero(lost))


def bracket_bits(bracket):
    xs, fs, failed = bracket
    assert all(type(x) is float for x in xs + fs) and type(failed) is int
    return np.array(xs).tobytes(), np.array(fs).tobytes(), failed


def failing_rates(monkeypatch, at, nan=True):
    """Make the grid points ``at`` of a one-template grid fail: the cold
    bath's downward rate NaN, or every rate 0, which leaves no level an
    outflow (and only the trace row of the dense matrix)."""
    original = qpump.experiments._padded_rates

    def padded_rates(n, rates, points):
        # one template: row m of the six rates is grid point m
        rates = [r.copy() for r in rates]
        if nan:
            rates[4][at] = np.nan
        else:
            for r in rates:
                r[at] = 0.0
        return original(n, rates, points)

    monkeypatch.setattr(qpump.experiments, "_padded_rates", padded_rates)


def with_gammas(work, hot):
    """The 4-level reference pump with the work and hot baths' gamma replaced."""
    base = reference_pump(4)
    return dataclasses.replace(base, work=dataclasses.replace(base.work, gamma=work),
                               hot=dataclasses.replace(base.hot, gamma=hot))


def force_first_draws(monkeypatch, forced):
    """Make the first attempt of sample i the config ``forced[i]``; returns
    the list of (index, attempt) that the draws record."""
    draws, drawn = qpump.experiments._draws, []

    def forced_draws(ranges, indices, attempt=0):
        drawn.extend((i, attempt) for i in indices)
        return [forced.get(i, cfg) if attempt == 0 else cfg
                for i, cfg in zip(indices, draws(ranges, indices, attempt))]

    monkeypatch.setattr(qpump.experiments, "_draws", forced_draws)
    return drawn


class TestMaximizerVerdicts:
    """The maximizers of a stack of evaluators, judged in one stacked
    verdict, each as ``linalg._matrix_verdict`` judges its dense rate
    matrix alone."""

    # frozen fridges whose hot bath is barely hotter than the cold one:
    # some maximizers fall below the condition floor
    FROZEN = SampleRanges(t_cold=(1e-3, 1e3), hot_over_cold=(1.0 + 1e-9, 1.01),
                          work_over_hot=(1.0, 1.01), omega_h_over_t_cold=(10.0, 1e3),
                          gamma_frac=(1e-6, 1e-4), seed=1021)

    @pytest.mark.parametrize("ranges", [FROZEN, SampleRanges(seed=5)], ids=["frozen", "default"])
    def test_chunk_verdicts_are_each_maximizers_alone(self, ranges):
        evs = [_CoolingPowerEvaluator(cfg) for cfg in _draws(ranges, range(64))]
        assert all(ev.window > 0 for ev in evs)
        _solve_grids(evs)
        _refine_and_judge(evs)
        failed = 0
        for ev in evs:
            x, *_, exc = ev.maximum
            alone = qpump.linalg._matrix_verdict(*dense_rate_matrix(ev, x))
            if alone is None:
                assert exc is None
            else:
                failed += 1
                assert type(exc) is type(alone) and str(exc) == f"{alone} at omega_c={x!r}"
        assert (failed > 0) == (ranges is self.FROZEN)

    @pytest.mark.parametrize("ranges", [FROZEN, SampleRanges(seed=5)], ids=["frozen", "default"])
    def test_maximizer_matrix_is_the_solves(self, ranges, monkeypatch):
        # the matrix that judges each maximizer is the one that solve builds
        # and judges at that omega_c, bit for bit
        stacks, decisions = [], qpump.experiments._kernel_decisions
        monkeypatch.setattr(qpump.experiments, "_kernel_decisions",
                            lambda mats, trace: stacks.append(mats) or decisions(mats, trace))
        evs = [_CoolingPowerEvaluator(cfg) for cfg in _draws(ranges, range(64))]
        _solve_grids(evs)
        _refine_and_judge(evs)
        (mats,) = stacks
        assert len(mats) == len(evs) == 64  # every maximizer judged
        for ev, mat in zip(evs, mats):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", WeakCouplingWarning)
                cfg = dataclasses.replace(ev.template, omega_c=ev.maximum[0])
            (solved,) = qpump.steady._ladder(ev.n).blocks(qpump.steady._bath_rates(cfg))
            assert mat.tobytes() == solved.tobytes()

    # the bands of the corpus: a chunk's ranges lie within them, the ratios
    # of the temperatures from just above 1
    BANDS = {"t_cold": (1e-3, 1e3), "gamma_frac": (1e-14, 1e2),
             "hot_over_cold": (1.0 + 1e-9, 1e6), "work_over_hot": (1.0 + 1e-9, 1e6),
             "omega_h_over_t_cold": (1e-6, 1e3)}

    @classmethod
    def extreme_ranges(cls, count, seed):
        """``count`` seeded ranges, each a log-uniform band within BANDS."""
        rng = np.random.default_rng(seed)

        def band(low, high):
            return tuple(np.sort(np.exp(rng.uniform(math.log(low), math.log(high), 2))).tolist())

        return [SampleRanges(**{name: band(*limits) for name, limits in cls.BANDS.items()},
                             seed=int(rng.integers(2**31))) for _ in range(count)]

    def test_verdict_corpus_matches_each_maximizer_alone(self, monkeypatch):
        # 640 maximizers, 20 chunks of 32 draws from extreme ranges: every
        # chunk's verdict is that of _matrix_verdict on the maximizer alone,
        # its type and words; some fail, and more than those are judged
        # alone, the ones that the screen does not pass at twice the floor
        verdict, alone_calls = qpump.linalg._matrix_verdict, []
        monkeypatch.setattr(qpump.linalg, "_matrix_verdict",
                            lambda *args: alone_calls.append(args) or verdict(*args))
        judged = failed = 0
        for ranges in self.extreme_ranges(20, 4):
            evs = [_CoolingPowerEvaluator(cfg) for cfg in _draws(ranges, range(32))
                   if cfg is not None]
            evs = [ev for ev in evs if ev.window > 0]
            _solve_grids(evs)
            _refine_and_judge(evs)
            for ev in evs:
                if ev.maximum is None or isinstance(ev.maximum[-1], NonConvergedError):
                    continue
                judged += 1
                x, *_, exc = ev.maximum
                alone = verdict(*dense_rate_matrix(ev, x))
                if alone is None:
                    assert exc is None
                else:
                    failed += 1
                    assert type(exc) is type(alone) and str(exc) == f"{alone} at omega_c={x!r}"
        assert judged >= 600 and 0 < failed < len(alone_calls)

    def test_each_caller_judges_its_maximizers_in_one_stack(self, monkeypatch):
        # optimize as a stack of one, a sweep variant's N = 3..10 as one
        # stack, and an ensemble chunk's first attempts as one stack, whose
        # rejected sample is redrawn and judged alone
        stacks = []
        decisions = qpump.experiments._kernel_decisions
        monkeypatch.setattr(qpump.experiments, "_kernel_decisions",
                            lambda mats, trace: stacks.append([len(m) for m in mats])
                            or decisions(mats, trace))
        maximize_cooling_power(reference_pump(5))
        assert stacks == [[5]]
        del stacks[:]
        sweep_stages(reference_pump(), squeeze_db=7.0)
        assert stacks == [list(range(3, 11))] * 3
        del stacks[:]
        ranges = SampleRanges(seed=31)
        force_first_draws(monkeypatch, {1: with_gammas(1e308, REF_PARAMS["gamma_hot"])})
        cop_histogram(ranges, 8, threads=1)
        firsts = [cfg.n_levels for cfg in _draws(ranges, range(8))]
        assert stacks == [firsts[:1] + firsts[2:],
                          [_draw(ranges, 1, 1).n_levels]]


class TestStoredBrackets:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_chunk_brackets_are_the_per_sample_brackets(self, seed):
        ranges = SampleRanges(seed=seed)
        chunk = [_CoolingPowerEvaluator(cfg) for cfg in _draws(ranges, range(32))
                 if cfg is not None]
        _solve_grids(chunk)
        for ev in chunk:
            assert bracket_bits(ev.bracket) == bracket_bits(per_sample_bracket(ev))
            assert ev.bracket[2] == 0

    @pytest.mark.parametrize("nan", [True, False], ids=["nan", "singular"])
    def test_failed_points_enter_as_minus_inf_and_are_counted(self, monkeypatch, nan):
        template = reference_pump(5)
        best = int(np.argmax(grid_alone(template)))
        # the best point's right neighbour, and the last point
        failing_rates(monkeypatch, [best + 1, COARSE_GRID_POINTS - 1], nan)
        ev = _CoolingPowerEvaluator(template)
        _solve_grids([ev])
        assert np.isnan(ev.grid[[best + 1, COARSE_GRID_POINTS - 1]]).sum() == 2
        assert bracket_bits(ev.bracket) == bracket_bits(per_sample_bracket(ev))
        xs, fs, failed = ev.bracket
        assert fs[2] == -math.inf and math.isfinite(fs[1]) and failed == 2
        assert maximize_cooling_power(ev).failed_evaluations == 2

    def test_all_failed_grid_raises(self, monkeypatch):
        failing_rates(monkeypatch, slice(None))
        ev = _CoolingPowerEvaluator(reference_pump(4))
        _solve_grids([ev])
        assert np.isnan(ev.grid).all()
        assert bracket_bits(ev.bracket) == bracket_bits(per_sample_bracket(ev))
        assert ev.bracket[2] == COARSE_GRID_POINTS
        with pytest.raises(NoKernelError, match="no grid point"):
            maximize_cooling_power(ev)


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
        sweep = curve_stack("ideal", setup, grid[first:first + 28])
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

    def test_log_bounds_are_cached_read_only(self):
        # one pair of arrays for each set of intervals, whatever the seed
        a, b = SampleRanges(seed=5), SampleRanges(seed=6)
        assert a.log_low is b.log_low and a.log_span is b.log_span
        wider = SampleRanges(t_cold=(0.5, 1e2))
        assert wider.log_low is not a.log_low
        for ranges in (a, wider):
            fresh = [(np.log(lo), np.log(hi)) for lo, hi in (
                ranges.t_cold, ranges.hot_over_cold, ranges.work_over_hot,
                ranges.omega_h_over_t_cold, ranges.gamma_frac)]
            assert ranges.log_low.tolist() == [lo for lo, _ in fresh]
            assert ranges.log_span.tolist() == [hi - lo for lo, hi in fresh]
            for bounds in (ranges.log_low, ranges.log_span):
                assert not bounds.flags.writeable
                with pytest.raises(ValueError, match="read-only"):
                    bounds[0] = 0.0
        assert "log_low" not in repr(b) and "log_span" not in repr(b)
        assert a != b and a == SampleRanges(seed=5) and b == dataclasses.replace(a, seed=6)
        # a bad interval still raises, and is not cached as a result
        for _ in range(2):
            with pytest.raises(ValueError, match="t_cold interval"):
                SampleRanges(t_cold=(5.0, 1.0))

    @pytest.mark.parametrize("bad", [{"hot_over_cold": (0.5, 2.0)}, {"hot_over_cold": (1.0, 2.0)},
                                     {"work_over_hot": (0.999, 2.0)}])
    def test_ranges_keep_the_temperatures_ordered(self, bad):
        # every draw must satisfy T_w >= T_h > T_c: an interval that can
        # break it fails at construction, not inside the window of a draw
        with pytest.raises(ValueError, match="T_w >= T_h > T_c"):
            cop_histogram(SampleRanges(**bad), 4, threads=1)
        assert SampleRanges(work_over_hot=(1.0, 2.0)).work_over_hot == (1.0, 2.0)

    def test_negative_seed_is_refused(self):
        with pytest.raises(ValueError, match="^seed must be >= 0, got -3$"):
            SampleRanges(seed=-3)
        assert SampleRanges(seed=0).seed == 0


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


# ranges under which some draws break a config invariant: where the ratio
# T_w/T_h draws exactly 1, the window and every gamma are 0
NONE_RANGES = SampleRanges(work_over_hot=(1.0, 1.0000000000000002), seed=7)


class TestDraw:
    @pytest.mark.parametrize("ranges", [SampleRanges(),
                                        SampleRanges(t_cold=(0.5, 3.0), gamma_frac=(1e-4, 1e-3),
                                                     n_levels=(4, 9), seed=41)])
    def test_draws_match_one_uniform_call_per_factor(self, ranges):
        # 2,000 (index, attempt) pairs per range set, compared field by field
        pairs = [(index, attempt) for index in range(400) for attempt in range(5)]
        assert [_draw(ranges, *pair) for pair in pairs] == [uniform_draw(ranges, *pair)
                                                            for pair in pairs]

    @pytest.mark.parametrize("ranges", [SampleRanges(), NONE_RANGES, SampleRanges(seed=2**40 + 3)],
                             ids=["default", "none", "seed_past_32_bits"])
    def test_chunk_draws_match_single_draws(self, ranges):
        # 2,000 (index, attempt) pairs per range set, in chunks of 32 indices
        # at one attempt, field by field against each draw alone and the
        # draw of one uniform call per factor, which keys its generator by
        # the list [seed, index, attempt]
        chunks = [(range(start, start + 32), attempt)
                  for start in range(0, 400, 32) for attempt in range(5)]
        drawn = [cfg for indices, attempt in chunks for cfg in _draws(ranges, indices, attempt)]
        pairs = [(index, attempt) for indices, attempt in chunks for index in indices]
        assert len(pairs) > 2000
        assert drawn == [_draw(ranges, *pair) for pair in pairs]
        assert drawn == [uniform_draw(ranges, *pair) for pair in pairs]
        none = sum(cfg is None for cfg in drawn)
        assert (none > 100) if ranges is NONE_RANGES else (none == 0)


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

    def test_chunk_outcomes_surface_in_sample_order(self, monkeypatch):
        # sample 1's first fridge has no grid point standing (a rejection),
        # and samples 2 and 5 fail the current-scale check at their
        # maximizers: as a sample-by-sample loop does, the chunk redraws
        # sample 1 and then raises sample 2's error, although every first
        # attempt was refined and judged before any sample was taken
        forced = {1: with_gammas(1e308, REF_PARAMS["gamma_hot"]),
                  2: with_gammas(1e300, 1e300), 5: with_gammas(1e299, 1e299)}
        drawn = force_first_draws(monkeypatch, forced)
        with pytest.raises(NoKernelError, match="no grid point"):
            maximize_cooling_power(forced[1])
        errors = []
        for k in (2, 5):
            with pytest.raises(NonConvergedError, match="current scale") as alone:
                maximize_cooling_power(forced[k])
            errors.append(str(alone.value))
        assert errors[0] != errors[1]
        with pytest.raises(NonConvergedError) as raised:
            cop_histogram(SampleRanges(seed=31), 8, threads=1)
        assert str(raised.value) == errors[0]
        assert drawn == [(i, 0) for i in range(8)] + [(1, 1)]

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

    def test_chunk_calls_the_probed_names_once_per_sample(self, monkeypatch):
        # perfbench/layers.py counts the ensemble's items and steps through
        # these module attributes: one _sample_point and one
        # maximize_cooling_power per sample, one q_cold per refinement step
        ex = qpump.experiments
        sample_point, maximize, q_cold = (ex._sample_point, ex.maximize_cooling_power,
                                          _CoolingPowerEvaluator.q_cold)
        samples, optima, steps = [], [], []

        def counted_sample(ranges, index, first=None):
            samples.append(index)
            return sample_point(ranges, index, first)

        def counted_maximize(template):
            optima.append(maximize(template))
            return optima[-1]

        def counted_step(self, omega_c):
            steps.append(omega_c)
            return q_cold(self, omega_c)

        ranges = SampleRanges(seed=1_000_003)
        plain = cop_histogram(ranges, 8, threads=1)
        monkeypatch.setattr(ex, "_sample_point", counted_sample)
        monkeypatch.setattr(ex, "maximize_cooling_power", counted_maximize)
        monkeypatch.setattr(_CoolingPowerEvaluator, "q_cold", counted_step)
        res = cop_histogram(ranges, 8, threads=1)
        assert res.rejected == 0 and samples == list(range(8)) and len(optima) == 8
        assert len(steps) == sum(o.evaluations - COARSE_GRID_POINTS - 1 for o in optima)
        assert res.eps_ratios.tolist() == [o.eps_ratio for o in optima]
        assert res.eps_ratios.tolist() == plain.eps_ratios.tolist()

    def test_solver_defect_is_not_a_rejection(self, monkeypatch):
        def broken(cfg):
            raise RuntimeError("defect")

        monkeypatch.setattr(qpump.experiments, "maximize_cooling_power", broken)
        with pytest.raises(RuntimeError, match="defect"):
            cop_histogram(SampleRanges(seed=3), 2, threads=1)

    def test_optimum_without_cooling_power_is_not_a_rejection(self, monkeypatch):
        # the CLI reports it as a solver failure; the ensemble must not
        # redraw it as it redraws an empty window or an unsolvable kernel
        def powerless(cfg):
            return Optimum(1.0, 0.0, 0.1, 0.5, 10)

        monkeypatch.setattr(qpump.experiments, "maximize_cooling_power", powerless)
        with pytest.raises(NoCoolingPowerError, match="non-positive cooling power 0.0"):
            _sample_point(SampleRanges(seed=3), 0)

    def test_ranges_validation(self):
        with pytest.raises(ValueError):
            SampleRanges(t_cold=(5.0, 1.0))
        with pytest.raises(ValueError):
            SampleRanges(n_levels=(2, 10))


# (first_law_at, no_kernel_at, error, named) of test_failed_gate_names_the_point
GATE_FAULTS = {
    "first_law": (2, None, NonConvergedError, 2),
    "kernel": (None, 2, DegenerateKernelError, 2),
    "first_law_before_kernel": (1, 3, NonConvergedError, 1),
    "kernel_before_first_law": (3, 1, DegenerateKernelError, 1),
}


class TestCharacteristicCurve:
    @pytest.mark.parametrize("system", ["ideal", "three_qubit"])
    def test_stiff_rates_keep_every_point_above_the_floor(self, monkeypatch, system):
        # all three gammas at 1e7: the rate rows are of order 1e11, and with
        # the trace row left at 1 every point of both curves fell below the
        # condition floor; with the rows scaled, none does, while the floor
        # at 1 fails the first point, from the stacked inversion and each
        # point's scaled matrix inverted to judge it, and with no SVD
        setup = dataclasses.replace(COMPARE_SETUP, gamma_work=1e7, gamma_hot=1e7, gamma_cold=1e7)
        diagnosed, inverted = [], []
        diagnostics, inv = qpump.linalg._kernel_diagnostics, np.linalg.inv
        monkeypatch.setattr(qpump.linalg, "_kernel_diagnostics",
                            lambda m: diagnosed.append(m) or diagnostics(m))
        monkeypatch.setattr(np.linalg, "inv", lambda m: inverted.append(m) or inv(m))
        assert len(characteristic_curve(system, setup, n_points=28)) == 28
        monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", 1.0)
        first = qpump.cooling_window_max_fixed_work(60.0, setup.temps) / 29
        with pytest.raises(DegenerateKernelError, match=r"^reciprocal condition .* below 1e\+00; "
                           r"stationary state numerically degenerate at omega_c="
                           + re.escape(repr(first)) + "$"):
            characteristic_curve(system, setup, n_points=28)
        assert len(inverted) == 1 + (1 + 28) and diagnosed == []

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
        sols = _solve_fridges(curve_stack("three_qubit", setup, grid))
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
        # residuals, state, edge fluxes and population total
        setup = dataclasses.replace(COMPARE_SETUP, n_levels=n_levels)
        points = characteristic_curve(system, setup, n_points=30)
        stack = (qpump.steady._solve_pumps if system == "ideal" else _solve_fridges)(
            curve_stack(system, setup, np.array([pt.omega_c for pt in points])))
        for pt, stacked in zip(points, stack):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)
                cfg = _curve_config(system, setup, pt.omega_c)
            sol = solve(cfg) if system == "ideal" else solve_three_qubit(cfg)
            assert (pt.q_c, pt.eps) == (sol.q_cold, sol.cop)
            assert stacked.residuals == sol.residuals
            assert np.array_equal(stacked.rho_inf, sol.rho_inf)
            assert np.array_equal(stacked.edge_fluxes, sol.edge_fluxes)
            assert stacked.population_total == sol.population_total

    @pytest.mark.parametrize("system", ["ideal", "three_qubit"])
    def test_curve_columns_make_no_decay_rates_call(self, monkeypatch, system):
        # the stacked solve fills its rates from the rate body, whose config
        # the sweep validated, not through decay_rates and its checks
        expected = qpump.experiments._curve_columns(system, COMPARE_SETUP, 6)
        calls = []

        def counted(*args):
            calls.append(args)
            return decay_rates(*args)

        for module in (qpump.pump, qpump.experiments, qpump.steady, qpump.three_qubit):
            monkeypatch.setattr(module, "decay_rates", counted)
        columns = qpump.experiments._curve_columns(system, COMPARE_SETUP, 6)
        assert calls == []
        assert all(np.array_equal(a, b) for a, b in zip(columns, expected))

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
        # current is skewed, where both models' chains sum their flux
        # currents) and/or has no unique kernel (its rate matrix loses its
        # last level's edges, which leaves it exactly singular, and its
        # verdict fails at condition 0); the first failing point in the
        # stack raises, as a point-by-point loop would, and the error names it
        currents, blocks = qpump.steady._Chain.currents, qpump.steady._Chain.blocks

        def broken_currents(*args):
            q = currents(*args)
            q[0, first_law_at] *= 1.0 + 1e-6  # the work current
            return q

        def broken_blocks(*args):
            m = blocks(*args)
            m[no_kernel_at, -1, :] = m[no_kernel_at, :, -1] = 0.0
            return m

        if first_law_at is not None:
            monkeypatch.setattr(qpump.steady._Chain, "currents", broken_currents)
        if no_kernel_at is not None:
            monkeypatch.setattr(qpump.steady._Chain, "blocks", broken_blocks)
        window = qpump.cooling_window_max_fixed_work(60.0, COMPARE_SETUP.temps)
        omega_c = window * (named + 1) / 6
        message = ("first-law residual .*" if error is NonConvergedError else
                   r"reciprocal condition 0\.000e\+00 below 1e-13; "
                   "stationary state numerically degenerate")
        with pytest.raises(error, match=f"^{message} at omega_c={re.escape(repr(omega_c))}$"):
            characteristic_curve(system, COMPARE_SETUP, n_points=5)

    @pytest.mark.parametrize("system", ["ideal", "three_qubit"])
    def test_kernel_and_ideality_gates_name_the_point(self, monkeypatch, system):
        # point 3 of five has a kernel residual past KERNEL_RTOL, point 1 a
        # cold current skewed by 1e-6 with the hot current keeping the first
        # law: the ideal pump raises at point 1, on its ideality identity,
        # and the fridge, whose ideality is reported only, at point 3
        refined, currents = qpump.steady._refined_fluxes, qpump.steady._Chain.currents

        def broken_refined(*args):
            flux, total, residual = refined(*args)
            residual[3] = 1e-9
            return flux, total, residual

        def skewed_currents(*args):
            q = currents(*args)
            q[1, 1] -= 1e-6 * q[2, 1]
            q[2, 1] *= 1.0 + 1e-6
            return q

        monkeypatch.setattr(qpump.steady, "_refined_fluxes", broken_refined)
        monkeypatch.setattr(qpump.steady._Chain, "currents", skewed_currents)
        window = qpump.cooling_window_max_fixed_work(60.0, COMPARE_SETUP.temps)
        named, message = ((1, "ideality residual 1.000e-06 > 1e-08") if system == "ideal"
                          else (3, "kernel residual 1.000e-09 > 1e-10"))
        at = f" at omega_c={window * (named + 1) / 6!r}"
        with pytest.raises(NonConvergedError, match=f"^{re.escape(message + at)}$"):
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
        sols = broken_solve(curve_stack(system, COMPARE_SETUP, grid))
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
