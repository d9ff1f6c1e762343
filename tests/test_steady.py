import ast
import dataclasses
import re
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qpump
from qpump.linalg import SuperOp, devectorize, stationary_vector, vectorize
from qpump.pump import BathSpec, PumpConfig, RatePair, WeakCouplingWarning, decay_rates
from qpump.steady import (
    _BATHS,
    _Generator,
    build_dissipator,
    build_liouvillian,
    hamiltonian_commutator,
    heat_currents_decomposed,
    pauli_rate_oracle,
    solve,
)
from qpump.three_qubit import ThreeQubitConfig, _generator_ld, solve_three_qubit

REF_PARAMS = dict(omega_h=102.6, t_work=7.1e3, t_hot=1.57e3, t_cold=54.25,
            gamma_work=3.5e-3, gamma_hot=5.1e-3, gamma_cold=8.8e-3)
REF_WINDOW_MAX = 2.782565222609013

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


def apply(op, rho):
    """The superoperator on a density matrix, as a matrix."""
    return devectorize(op.matrix @ vectorize(rho), op.dim)


def reference_pump(n_levels=3, omega_c=1.4):
    return qpump.ideal_pump(n_levels=n_levels, omega_c=omega_c, **REF_PARAMS)


def random_moderate_pump(rng):
    t_c = float(np.exp(rng.uniform(np.log(1.0), np.log(20.0))))
    t_h = t_c * float(np.exp(rng.uniform(np.log(2.0), np.log(12.0))))
    t_w = t_h * float(np.exp(rng.uniform(np.log(2.0), np.log(12.0))))
    w_h = t_c * float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
    n = int(rng.integers(3, 11))
    window = qpump.cooling_window_max(w_h, (t_w, t_h, t_c))
    w_c = float(rng.uniform(0.15, 0.85)) * window
    gammas = [float(np.exp(rng.uniform(np.log(1e-4), np.log(1e-2)))) for _ in range(3)]
    return qpump.ideal_pump(n, w_h, w_c, t_w, t_h, t_c, *gammas)


class TestDissipator:
    def test_zero_rates_give_zero_superop(self):
        op = build_dissipator(SIGMA_MINUS, RatePair(0.0, 0.0))
        assert np.count_nonzero(op.matrix) == 0

    def test_single_qubit_fixed_point(self):
        rates = RatePair(down=0.8, up=0.3)
        op = build_dissipator(SIGMA_MINUS, rates)
        rho = devectorize(stationary_vector(op), 2)
        assert abs(rho[1, 1].real - rates.up / (rates.up + rates.down)) < 1e-12

    def test_cold_dissipator_drains_ground_level(self):
        # on |1><1| the three-level cold dissipator moves population out of
        # level 1 into level 2 at the absorption rate (worked out entrywise)
        cfg = reference_pump(3)
        jump = qpump.build_jump_operator(cfg, "cold")
        rates = decay_rates(cfg.cold, cfg.omega_c)
        op = build_dissipator(jump, rates)
        rho = np.diag([1.0, 0.0, 0.0]).astype(complex)
        drho = apply(op, rho)
        assert abs(drho[0, 0].real + rates.up) < 1e-12 * rates.up
        assert abs(drho[1, 1].real - rates.up) < 1e-12 * rates.up
        assert abs(np.trace(drho)) < 1e-12 * rates.up

    def test_rejects_non_lowering_jump(self):
        with pytest.raises(ValueError):
            build_dissipator(np.eye(2, dtype=complex), RatePair(1.0, 0.0))
        mixed = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ValueError):
            build_dissipator(mixed, RatePair(1.0, 0.0))


class TestLiouvillian:
    def test_pure_commutator_fixes_diagonal_states(self):
        # with no dissipation the generator annihilates any diagonal state
        ham = np.diag([0.0, 1.4, 102.6]).astype(complex)
        op = hamiltonian_commutator(ham)
        rho = np.diag([0.5, 0.3, 0.2]).astype(complex)
        assert np.max(np.abs(apply(op, rho))) == 0.0

    def test_equal_temperatures_fix_gibbs(self):
        # build the generator piecewise so all baths share one temperature
        t = 7.0
        cfg = reference_pump(4)
        ham = qpump.build_hamiltonian(cfg)
        mat = hamiltonian_commutator(ham).matrix
        for label, omega in (("work", cfg.omega_w), ("hot", cfg.omega_h),
                             ("cold", cfg.omega_c)):
            bath = BathSpec(label, t, 1e-3)
            mat = mat + build_dissipator(qpump.build_jump_operator(cfg, label),
                                         decay_rates(bath, omega)).matrix
        rho = devectorize(stationary_vector(SuperOp(4, mat)), 4)
        gibbs = np.exp(-np.diag(ham).real / t)
        gibbs /= gibbs.sum()
        assert np.max(np.abs(np.diag(rho).real - gibbs)) < 1e-9

    def test_equal_temperatures_zero_currents(self):
        t = 7.0
        cfg = reference_pump(4)
        ham = qpump.build_hamiltonian(cfg)
        mat = hamiltonian_commutator(ham).matrix
        channels = {}
        for label, omega in (("work", cfg.omega_w), ("hot", cfg.omega_h),
                             ("cold", cfg.omega_c)):
            pair = decay_rates(BathSpec(label, t, 1e-3), omega)
            jump = qpump.build_jump_operator(cfg, label)
            mat = mat + build_dissipator(jump, pair).matrix
            channels[label] = (jump, pair)
        rho = devectorize(stationary_vector(SuperOp(4, mat)), 4)
        scale = float(np.max(np.abs(ham))) * max(p.down + p.up for _, p in channels.values())
        for jump, pair in channels.values():
            sd = jump.conj().T
            d = pair.down * (jump @ rho @ sd - 0.5 * (sd @ jump @ rho + rho @ sd @ jump))
            d += pair.up * (sd @ rho @ jump - 0.5 * (jump @ sd @ rho + rho @ jump @ sd))
            assert abs(np.trace(ham @ d).real) < 1e-12 * scale

    def test_reference_kernel_residual(self):
        cfg = reference_pump(3)
        sol = solve(cfg)
        assert sol.residuals["kernel_residual"] <= 1e-10


class TestSolve:
    def test_reference_ideality(self):
        cfg = reference_pump(3)
        sol = solve(cfg)
        assert sol.mode == "chiller"
        assert abs(abs(sol.q_cold / sol.q_work) / (cfg.omega_c / cfg.omega_w) - 1) < 1e-8
        assert abs(abs(sol.q_cold / sol.q_hot) / (cfg.omega_c / cfg.omega_h) - 1) < 1e-8
        oracle = pauli_rate_oracle(cfg)
        assert abs(oracle.q_cold / sol.q_cold - 1) < 1e-9

    def test_sign_conventions_in_chiller_mode(self):
        sol = solve(reference_pump(5))
        assert sol.q_cold > 0 and sol.q_work > 0 and sol.q_hot < 0

    def test_currents_vanish_toward_window_edge(self):
        # strongly Boltzmann-suppressed edge: currents drop by >1e3
        cfg = qpump.ideal_pump(4, 50.0, 1.0, 400.0, 4.0, 1.0, 1e-3, 1e-3, 1e-3)
        window = qpump.cooling_window_max(50.0, (400.0, 4.0, 1.0))
        mid = solve(dataclasses.replace(cfg, omega_c=0.5 * window))
        edge = solve(dataclasses.replace(cfg, omega_c=0.999 * window))
        for label in ("work", "hot", "cold"):
            assert abs(edge.currents[label]) < 1e-3 * abs(mid.currents[label])

    def test_mode_flips_across_window_edge(self):
        cfg = reference_pump(3)
        inside = solve(dataclasses.replace(cfg, omega_c=0.98 * REF_WINDOW_MAX))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            outside = solve(dataclasses.replace(cfg, omega_c=1.02 * REF_WINDOW_MAX))
        assert inside.q_cold > 0 and inside.mode == "chiller"
        assert outside.q_cold < 0 and outside.mode == "heat_transformer"

    def test_window_edge_is_a_boundary_point(self):
        # at the edge the pump is reversible: its currents sit at the noise
        # floor of their assembly, so the point is neither chiller nor heat
        # transformer, and has no COP
        sol = solve(dataclasses.replace(reference_pump(3), omega_c=REF_WINDOW_MAX))
        assert sol.mode == "boundary" and sol.cop == 0.0
        assert sol.residuals["ideality_cold_work"] == 0.0

    def test_stationary_state_is_diagonal(self):
        sol = solve(reference_pump(7))
        off = sol.rho_inf - np.diag(np.diag(sol.rho_inf))
        assert np.max(np.abs(off)) <= 1e-10

    def test_saturated_cap_converged(self, monkeypatch):
        cfg = qpump.ideal_pump(4, 10.0, 1.0, 40.0, 8.0, 2.0, 1e-3, 1e-3, 1e-3,
                               saturated_work=True)
        q_ref = solve(cfg).q_cold
        monkeypatch.setattr(qpump.pump, "SATURATED_OCCUPATION", 1e9)
        q_cap10 = solve(cfg).q_cold
        assert abs(q_cap10 / q_ref - 1.0) < 1e-4

    def test_entropy_rate_uses_effective_work_temperature(self):
        cfg = qpump.ideal_pump(4, 10.0, 1.0, 40.0, 8.0, 2.0, 1e-3, 1e-3, 1e-3,
                               squeeze_db=7.0)
        sol = solve(cfg)
        t_eff = qpump.effective_temperature(cfg.work, cfg.omega_w)
        expected = -(sol.q_work / t_eff + sol.q_hot / 8.0 + sol.q_cold / 2.0)
        assert abs(sol.entropy_rate - expected) < 1e-12 * abs(sol.q_work / t_eff)
        assert sol.entropy_rate >= -1e-12


SEEDED = [random_moderate_pump(np.random.default_rng(1000 + k)) for k in range(40)]


@pytest.mark.parametrize("cfg", SEEDED, ids=[f"cfg{k}" for k in range(len(SEEDED))])
def test_conservation_and_ideality_random(cfg):
    sol = solve(cfg)
    assert sol.residuals["first_law"] <= 1e-10
    assert sol.entropy_rate >= -1e-12
    assert sol.residuals["ideality_cold_work"] <= 1e-8
    assert abs(sol.cop / (cfg.omega_c / cfg.omega_w) - 1.0) < 1e-8
    assert sol.cop <= qpump.carnot_cop(
        (cfg.work.temperature, cfg.hot.temperature, cfg.cold.temperature))
    rho = sol.rho_inf
    assert np.max(np.abs(rho - rho.conj().T)) <= 1e-10
    assert abs(np.trace(rho).real - 1.0) <= 1e-12
    assert np.linalg.eigvalsh((rho + rho.conj().T) / 2).min() >= -1e-10


class TestEvenOddScaling:
    def test_fixed_parameter_monotonicity(self):
        # adding one level to an even-N pump hurts every current; two more
        # levels never hurt
        q = {n: solve(reference_pump(n)).currents for n in range(3, 11)}
        for n in (4, 6, 8):
            for label in ("work", "hot", "cold"):
                assert abs(q[n + 1][label]) <= abs(q[n][label]) * (1 + 1e-12)
        for n in range(3, 9):
            for label in ("work", "hot", "cold"):
                assert abs(q[n + 2][label]) >= abs(q[n][label]) * (1 - 1e-12)

    def test_second_config_monotonicity(self):
        base = qpump.ideal_pump(3, 8.0, 1.1, 90.0, 16.0, 3.0, 2e-3, 3e-3, 4e-3)
        q = {n: solve(dataclasses.replace(base, n_levels=n)).q_cold
             for n in range(3, 11)}
        for n in (4, 6, 8):
            assert q[n + 1] <= q[n] * (1 + 1e-12)
        for n in range(3, 9):
            assert q[n + 2] >= q[n] * (1 - 1e-12)


class TestDecomposition:
    @pytest.mark.parametrize("n", [3, 4, 5, 8])
    def test_totals_match_trace_formula(self, n):
        cfg = reference_pump(n)
        sol = solve(cfg)
        dec = heat_currents_decomposed(cfg, sol)
        for label in ("work", "hot", "cold"):
            assert abs(dec.totals[label] / sol.currents[label] - 1.0) < 1e-10

    def test_three_level_single_terms(self):
        cfg = reference_pump(3)
        dec = heat_currents_decomposed(cfg)
        assert dec.work_terms.shape == (1,) and dec.work_levels[0] == 3
        assert dec.cold_terms.shape == (1,) and dec.cold_levels[0] == 2
        assert np.count_nonzero(dec.hot_terms) == 1

    def test_four_level_cold_terms(self):
        cfg = reference_pump(4)
        sol = solve(cfg)
        dec = heat_currents_decomposed(cfg, sol)
        assert list(dec.cold_levels) == [2, 4]
        assert abs(dec.cold_terms.sum() / sol.q_cold - 1.0) < 1e-10

    def test_solves_if_no_solution_given(self):
        dec = heat_currents_decomposed(reference_pump(5))
        assert dec.work_terms.shape == (2,)

    @pytest.mark.parametrize("n", range(3, 11))
    def test_terms_are_each_bath_dissipator_level_by_level(self, n):
        # the flux-built terms against <k| D_a rho |k>, the Lindblad form of
        # each bath written with operator products in long double (the
        # one-way flows are ~1e3 times the net ones, so a state rounded to
        # double loses 1e-9), on the stationary state in long double from
        # the ladder's subtraction-free GTH elimination
        cfg = reference_pump(n)
        sol = solve(cfg)
        dec = heat_currents_decomposed(cfg, sol)
        rates = qpump.steady._bath_rates(cfg).astype(np.longdouble)
        p, total, _ = qpump.steady._ladder_balance(*qpump.steady._ladder_rates(n, rates))
        rho = np.diag(np.hstack(p) / total).astype(np.clongdouble)
        levels = {"work": dec.work_levels - 1, "hot": dec.hot_levels - 1,
                  "cold": dec.cold_levels - 1}
        weights = {"work": cfg.omega_w, "cold": cfg.omega_c,
                   "hot": cfg.omega_h * np.ceil(dec.hot_levels / 2 - 1)}
        terms = {"work": dec.work_terms, "hot": dec.hot_terms, "cold": dec.cold_terms}
        q_scale = max(abs(q) for q in sol.currents.values())
        for label in BATHS:
            rates = _rates(cfg, label)
            s = qpump.build_jump_operator(cfg, label).astype(np.clongdouble)
            sd = s.conj().T
            d = rates.down * (s @ rho @ sd - 0.5 * (sd @ s @ rho + rho @ sd @ s))
            d += rates.up * (sd @ rho @ s - 0.5 * (s @ sd @ rho + rho @ s @ sd))
            expected = weights[label] * np.real(np.diagonal(d)).astype(float)[levels[label]]
            assert np.max(np.abs(terms[label] - expected)) <= 1e-11 * q_scale


class TestRateOracle:
    def test_matches_solver_across_sizes(self):
        rng = np.random.default_rng(42)
        for n in range(3, 11):
            cfg = dataclasses.replace(random_moderate_pump(rng), n_levels=n)
            sol = solve(cfg)
            oracle = pauli_rate_oracle(cfg)
            scale = max(abs(x) for x in sol.currents.values())
            for label in ("work", "hot", "cold"):
                assert abs(sol.currents[label] - oracle.currents[label]) <= 1e-9 * scale
            pops = np.real(np.diag(sol.rho_inf))
            assert np.max(np.abs(pops - oracle.populations)) < 1e-10

    def test_flux_sign_flips_at_window_edge(self):
        cfg = reference_pump(3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WeakCouplingWarning)
            inside = pauli_rate_oracle(dataclasses.replace(cfg, omega_c=0.9 * REF_WINDOW_MAX))
            outside = pauli_rate_oracle(dataclasses.replace(cfg, omega_c=1.1 * REF_WINDOW_MAX))
        assert inside.q_cold > 0 > outside.q_cold

    def test_populations_normalized(self):
        oracle = pauli_rate_oracle(reference_pump(6))
        assert abs(oracle.populations.sum() - 1.0) < 1e-14
        assert oracle.populations.min() > 0


def _three_qubit_fridge():
    return ThreeQubitConfig(
        omega_c=1.5, omega_w=60.0, g=0.1,
        work=BathSpec("work", 130.0, 1e-3),
        hot=BathSpec("hot", 60.0, 1e-3),
        cold=BathSpec("cold", 5.0, 1e-3),
    )


BATHS = ("work", "hot", "cold")


def _kron_embed(op, slot):
    mats = [np.eye(2)] * 3
    mats[slot] = op
    return np.kron(np.kron(mats[0], mats[1]), mats[2])


def _pump_case(n):
    # the machine as operators: extended-precision Hamiltonian and jumps
    cfg = reference_pump(n)
    ham = np.diag(qpump.level_energies(n, cfg.omega_h, cfg.omega_c, dtype=np.longdouble))
    jumps = {label: qpump.build_jump_operator(cfg, label) for label in BATHS}
    return cfg, _Generator.for_pump(cfg), ham, jumps


def _three_qubit_case():
    # Hamiltonian and local jumps built with Kronecker products, independently
    # of the index arithmetic of qpump.three_qubit
    cfg = _three_qubit_fridge()
    number = np.diag([0.0, 1.0])
    wc, ww = np.longdouble(cfg.omega_c), np.longdouble(cfg.omega_w)
    ham = (wc * _kron_embed(number, 0) + ww * _kron_embed(number, 1)
           + (wc + ww) * _kron_embed(number, 2))
    ham[6, 1] = ham[1, 6] = np.longdouble(cfg.g)
    jumps = {label: _kron_embed(SIGMA_MINUS.real, slot)
             for slot, label in enumerate(("cold", "work", "hot"))}
    return cfg, _generator_ld(cfg), ham, jumps


def _rates(cfg, label):
    return decay_rates(cfg.bath(label), cfg.bath_frequency(label))


def _kron_superop(cfg, ham, jumps):
    mat = hamiltonian_commutator(ham).matrix
    for label in BATHS:
        mat = mat + build_dissipator(jumps[label], _rates(cfg, label)).matrix
    return mat


def _product_action(cfg, ham, jumps, rho):
    # the Lindblad form written with operator products, in long double
    h = ham.astype(np.clongdouble)
    out = -1j * (h @ rho - rho @ h)
    for label in BATHS:
        rates = _rates(cfg, label)
        s = jumps[label].astype(np.clongdouble)
        sd = s.conj().T
        out += rates.down * (s @ rho @ sd - 0.5 * (sd @ s @ rho + rho @ sd @ s))
        out += rates.up * (sd @ rho @ s - 0.5 * (s @ sd @ rho + rho @ s @ sd))
    return out


MACHINES = {f"pump_n{n}": (lambda n=n: _pump_case(n)) for n in range(3, 11)}
MACHINES["three_qubit"] = _three_qubit_case


@pytest.mark.parametrize("case", MACHINES.values(), ids=MACHINES.keys())
def test_superop_matches_kron_reference(case):
    # the transition-pair assembly against the Kronecker-product one
    cfg, gen, ham, jumps = case()
    reference = _kron_superop(cfg, ham, jumps)
    scale = np.max(np.abs(reference))
    assert np.max(np.abs(gen.superop().matrix - reference)) <= 4 * np.finfo(float).eps * scale


@pytest.mark.parametrize("case", MACHINES.values(), ids=MACHINES.keys())
def test_superop_and_extended_action_are_one_operator(case):
    # the double generator of the oracles is the Lindblad form of the
    # machine's operators, written with operator products in long double
    cfg, gen, ham, jumps = case()
    op = gen.superop()
    rng = np.random.default_rng(11)
    a = rng.normal(size=(op.dim, op.dim)) + 1j * rng.normal(size=(op.dim, op.dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    from_products = vectorize(_product_action(cfg, ham, jumps, rho.astype(np.clongdouble)))
    scale = np.max(np.abs(op.matrix))
    assert np.max(np.abs(op.matrix @ vectorize(rho) - from_products)) <= 1e-15 * scale


@pytest.mark.parametrize("case", MACHINES.values(), ids=MACHINES.keys())
def test_superop_is_the_action_on_unit_vectors(case):
    # column k of the superop is the long-double product action on the unit
    # matrix that vectorize puts at k, rounded once: the column-stacking
    # layout, entry by entry (measured <= 0.48 ulp of max |L|)
    cfg, gen, ham, jumps = case()
    op = gen.superop()
    units = np.eye(op.dim ** 2, dtype=np.clongdouble)
    columns = np.stack([vectorize(_product_action(cfg, ham, jumps, devectorize(u, op.dim)))
                        for u in units], axis=1)
    scale = np.max(np.abs(op.matrix))
    assert np.max(np.abs(op.matrix - columns)) <= np.finfo(float).eps * scale


def _positions(cfg):
    # the stationary sector that the solver states: the pump's diagonal, the
    # fridge's populations and |110>/|001> coherence pair
    if isinstance(cfg, ThreeQubitConfig):
        return qpump.three_qubit._solve_fridges(cfg).positions
    return qpump.steady._solve_pumps(cfg).positions


@pytest.mark.parametrize("case", MACHINES.values(), ids=MACHINES.keys())
def test_sector_is_closed_and_holds_the_stationary_state(case):
    # the generator links neither way between the solver's sector and its
    # complement, and the dense null-space vector vanishes outside the sector
    cfg, gen, _, _ = case()
    op = gen.superop()
    sector = _positions(cfg)
    assert np.array_equal(sector, qpump.three_qubit._SECTOR if isinstance(cfg, ThreeQubitConfig)
                          else np.arange(cfg.n_levels) * (cfg.n_levels + 1))
    outside = np.setdiff1d(np.arange(op.dim ** 2), sector)
    assert not op.matrix[np.ix_(sector, outside)].any()
    assert not op.matrix[np.ix_(outside, sector)].any()
    assert not stationary_vector(op)[outside].any()


@pytest.mark.parametrize("n", range(3, 11))
def test_pump_sector_block_is_the_population_balance(n):
    # the generator's block on the populations and the optimizer's rate
    # matrix, two assemblies of the same classical master equation
    cfg = reference_pump(n)
    ev = qpump.experiments._CoolingPowerEvaluator(cfg)
    rates = ev._channels(cfg.omega_c)
    (populations,) = qpump.steady._ladder(n).blocks(np.array(rates)[:, None])
    diagonal = _positions(cfg)
    block = build_liouvillian(cfg).matrix[np.ix_(diagonal, diagonal)]
    assert not block.imag.any()
    scale = np.max(np.abs(populations))
    assert np.max(np.abs(block.real - populations)) <= 4 * np.finfo(float).eps * scale
    # and the rate matrix that the pump's solve builds from its own rates
    (built,) = qpump.steady._ladder(n).blocks(qpump.steady._bath_rates(cfg))
    assert np.max(np.abs(built - populations)) <= 4 * np.finfo(float).eps * scale


def _curve_points(machine, points):
    # the system, setup and cold frequencies of a characteristic curve
    system, n = ("three_qubit", 8) if machine == "three_qubit" else ("ideal", int(machine[6:]))
    setup = qpump.experiments.CurveSetup(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
                                         gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3,
                                         n_levels=n)
    window = qpump.cooling_window_max_fixed_work(setup.omega_w, setup.temps)
    return system, setup, window * np.arange(1, points + 1) / (points + 1)


def _curve_config(machine, points):
    # a stacked machine at the points of a characteristic curve, one config
    # built as the curve builds it, whose fridge's g may be large against the
    # smallest omega_c
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return qpump.experiments._curve_config(*_curve_points(machine, points))


@pytest.mark.parametrize("points", [1, 28])
@pytest.mark.parametrize("machine", MACHINES.keys())
def test_stacked_states_are_stationary_under_each_points_superop(machine, points):
    # each column of a stacked solve along a curve, against the Kronecker
    # generator of its own point, built from that point's config alone: the
    # residual is the double rounding of the state (measured <= 0.23 ulp of
    # max |L|), and a column moved to another point leaves ~1e-3 of it
    system, setup, omega_c = _curve_points(machine, points)
    solve_stack = (qpump.steady._solve_pumps if system == "ideal"
                   else qpump.three_qubit._solve_fridges)
    sols = solve_stack(_curve_config(machine, points))
    assert len(sols) == points
    for sol, w_c in zip(sols, omega_c):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # WeakCouplingWarning too
            cfg = qpump.experiments._curve_config(system, setup, float(w_c))
        gen = _Generator.for_pump(cfg) if system == "ideal" else _generator_ld(cfg)
        mat = gen.superop().matrix
        residual = np.max(np.abs(mat @ vectorize(sol.rho_inf)))
        assert residual <= np.finfo(float).eps * np.max(np.abs(mat))


@pytest.mark.parametrize("solver, cfg", [
    (solve, reference_pump(8)),
    (solve_three_qubit, _three_qubit_fridge()),
], ids=["pump", "three_qubit"])
def test_solve_builds_no_dense_jump(monkeypatch, solver, cfg):
    # the generators come from level arrays; the dense jump is the reference
    def refuse(*args, **kwargs):
        raise AssertionError("build_jump_operator called on the solve path")

    # every module binding of the name, so that a re-import cannot dodge it
    for module in (qpump, qpump.pump, qpump.steady, qpump.three_qubit):
        monkeypatch.setattr(module, "build_jump_operator", refuse, raising=False)
    assert solver(cfg).residuals["first_law"] <= qpump.steady.FIRST_LAW_RTOL


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("solver, cfg, size", [
    (solve, reference_pump(8), 8),
    (solve_three_qubit, _three_qubit_fridge(), 8),
], ids=["pump", "three_qubit"])
def test_one_lu_factorization_per_solve(monkeypatch, solver, cfg, size):
    # one factor (numpy's inverse is an LU factorization), of the rate
    # matrix alone (the ladder's, or the fridge's eight-state chain's), as a
    # stack of one
    factorizations = _count_calls(monkeypatch, np.linalg, "inv")
    fallbacks = _count_calls(monkeypatch, qpump.linalg, "_kernel_diagnostics")
    solver(cfg)
    assert len(factorizations) == 1 and not fallbacks
    assert factorizations[0][0].shape == (1, size, size)


@pytest.mark.parametrize("system, size", [("ideal", 8), ("three_qubit", 8)])
def test_one_stacked_factorization_per_curve(monkeypatch, system, size):
    setup = qpump.experiments.CurveSetup(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
                                         gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3)
    factorizations = _count_calls(monkeypatch, np.linalg, "inv")
    fallbacks = _count_calls(monkeypatch, qpump.linalg, "_kernel_diagnostics")
    qpump.experiments.characteristic_curve(system, setup, n_points=28)
    assert len(factorizations) == 1 and not fallbacks
    assert factorizations[0][0].shape == (28, size, size)


@pytest.mark.parametrize("system", ["ideal", "three_qubit"])
def test_curve_solves_compute_no_kernel_vector(monkeypatch, system):
    # the solves take the kernel decisions and their inverses alone: no
    # kernel vector is refined, normalized to unit trace or gated
    def refuse(*args, **kwargs):
        raise AssertionError("kernel vector computed on a curve solve")

    monkeypatch.setattr(qpump.linalg, "_normalize_trace", refuse)
    for module in (qpump.linalg, qpump.steady, qpump.three_qubit):
        monkeypatch.setattr(module, "stationary_vector", refuse)
    setup = qpump.experiments.CurveSetup(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
                                         gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3)
    assert len(qpump.experiments.characteristic_curve(system, setup, n_points=28)) == 28


def test_long_double_only_in_the_oracle():
    # results must not depend on the platform's long-double width: src/qpump
    # names longdouble (or clongdouble) only inside the rate-equation oracle
    oracle = {"pauli_rate_oracle", "_solve_ld_kernel"}
    outside, inside = [], 0
    for path in sorted(Path(qpump.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        spans = [range(node.lineno, node.end_lineno + 1) for node in ast.walk(ast.parse(text))
                 if isinstance(node, ast.FunctionDef) and node.name in oracle]
        for lineno, line in enumerate(text.splitlines(), start=1):
            if "longdouble" in line:
                if any(lineno in span for span in spans):
                    inside += 1
                else:
                    outside.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not outside
    assert inside  # the guard finds what it looks for


def test_one_route_takes_the_kernel_decisions_and_refined_fluxes():
    # both models solve through steady._solve_chain, and the oracles'
    # stationary_vector takes the verdict of its one generator, and the
    # optimizer that of its maximizers: no other function names
    # _kernel_decisions or _refined_fluxes (but to define or import it), and
    # each names it once, so that no stacked kernel-vector route comes back.
    # The SVD (_svd_kernel, _kernel_diagnostics, pinv) is the oracle's
    # fallback alone: no chain point or maximizer reaches it
    guarded = {"_kernel_decisions", "_refined_fluxes", "_svd_kernel", "_kernel_diagnostics",
               "pinv"}
    found = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            where = f"{where}.{node.name}"
        name = getattr(node, "id", getattr(node, "attr", None))
        if name in guarded:
            found.append((where, name))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(Path(qpump.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    assert sorted(found) == [
        ("experiments._refine_and_judge", "_kernel_decisions"),
        ("linalg._svd_kernel", "_kernel_diagnostics"),
        ("linalg.stationary_vector", "_kernel_decisions"),
        ("linalg.stationary_vector", "_svd_kernel"),
        ("steady._solve_chain", "_kernel_decisions"),
        ("steady._solve_chain", "_refined_fluxes")]


def test_only_the_two_models_are_configs():
    # a curve's points are one PumpConfig or ThreeQubitConfig of (P,)
    # frequencies: no other class in src/qpump derives from the configs'
    # shared base, so that no unvalidated stand-in for a config comes back
    found = []
    for path in sorted(Path(qpump.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", getattr(base, "attr", None)) == "_ThreeBathConfig"
                    for base in node.bases):
                found.append(f"{path.stem}.{node.name}")
    assert sorted(found) == ["pump.PumpConfig", "three_qubit.ThreeQubitConfig"]


@pytest.mark.parametrize("machine, solver, stacked", [
    ("pump_n8", solve, "steady._solve_pumps"),
    ("three_qubit", solve_three_qubit, "three_qubit._solve_fridges"),
], ids=["pump", "three_qubit"])
def test_point_solves_refuse_a_stack(machine, solver, stacked):
    # the point-wise solves take one point; a config of (P,) frequencies
    # would otherwise come back as its point 0 alone
    message = f"a config of (P,) frequencies is P machines; use {stacked}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        solver(_curve_config(machine, 3))


@pytest.mark.parametrize("machine, entry, stacked", [
    ("pump_n8", qpump.build_hamiltonian, "steady._solve_pumps"),
    ("pump_n8", qpump.build_liouvillian, "steady._solve_pumps"),
    ("pump_n8", qpump.pauli_rate_oracle, "steady._solve_pumps"),
    ("three_qubit", qpump.build_three_qubit_hamiltonian, "three_qubit._solve_fridges"),
    ("three_qubit", qpump.build_three_qubit_liouvillian, "three_qubit._solve_fridges"),
    ("pump_n8", qpump.maximize_cooling_power, "one maximize_cooling_power call per machine"),
    ("pump_n8", qpump.sweep_stages, "one sweep_stages call per machine"),
], ids=["build_hamiltonian", "build_liouvillian", "pauli_rate_oracle",
        "build_three_qubit_hamiltonian", "build_three_qubit_liouvillian",
        "maximize_cooling_power", "sweep_stages"])
def test_point_entries_refuse_a_stack_by_name(machine, entry, stacked):
    # the reference builders, the rate oracle and the optimizer take one
    # machine; given a config of (P,) frequencies they returned a wrong
    # (P,) Hamiltonian or failed with unrelated messages
    message = f"a config of (P,) frequencies is P machines; use {stacked}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(_curve_config(machine, 3))


def test_pump_solves_build_no_generator(monkeypatch):
    # the ideal pump's populations come from the GTH elimination: no
    # generator, sector block or polish, and one stacked inversion for the
    # kernel decisions, (P, N, N)
    def refuse(*args, **kwargs):
        raise AssertionError("generator route called on the ideal pump's solve")

    monkeypatch.setattr(_Generator, "__init__", refuse)
    monkeypatch.setattr(_Generator, "for_pump", refuse)
    monkeypatch.setattr(_Generator, "superop", refuse)
    monkeypatch.setattr(qpump.steady, "_polish_state", refuse)
    factorizations = _count_calls(monkeypatch, np.linalg, "inv")
    setup = qpump.experiments.CurveSetup(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
                                         gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3)
    assert solve(reference_pump(8)).mode == "chiller"
    assert len(qpump.experiments.characteristic_curve("ideal", setup, n_points=28)) == 28
    assert [args[0].shape for args in factorizations] == [(1, 8, 8), (28, 8, 8)]


# a chain point below the condition floor of 1, named by its omega_c
BELOW_FLOOR = (r"^reciprocal condition \d\.\d{3}e[+-]\d+ below 1e\+00; "
               r"stationary state numerically degenerate at omega_c=")


def test_pump_point_below_the_floor_fails_without_svd(monkeypatch):
    # every factor fails the condition gate: the point fails with its
    # condition, from the stacked inversion and its scaled matrix's own
    # inversion, which judges it, and no SVD runs on the chain
    cfg = reference_pump(8)
    factorizations = _count_calls(monkeypatch, np.linalg, "inv")
    fallbacks = _count_calls(monkeypatch, qpump.linalg, "_kernel_diagnostics")
    monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", 1.0)
    with pytest.raises(qpump.linalg.DegenerateKernelError,
                       match=BELOW_FLOOR + re.escape(f"{cfg.omega_c!r}") + "$"):
        solve(cfg)
    assert len(factorizations) == 2 and not fallbacks


def test_fridge_solves_build_no_generator(monkeypatch):
    # the fridge's populations come from the GTH elimination of its
    # eight-state chain: no generator, sector block or polish, and one
    # stacked inversion for the kernel decisions, (P, 8, 8)
    def refuse(*args, **kwargs):
        raise AssertionError("generator route called on the fridge's solve")

    monkeypatch.setattr(_Generator, "__init__", refuse)
    monkeypatch.setattr(_Generator, "for_pump", refuse)
    monkeypatch.setattr(_Generator, "superop", refuse)
    monkeypatch.setattr(qpump.steady, "_polish_state", refuse)
    monkeypatch.setattr(qpump.three_qubit, "_polish_state", refuse)
    factorizations = _count_calls(monkeypatch, np.linalg, "inv")
    setup = qpump.experiments.CurveSetup(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
                                         gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3)
    assert solve_three_qubit(_three_qubit_fridge()).mode == "chiller"
    assert len(qpump.experiments.characteristic_curve("three_qubit", setup, n_points=28)) == 28
    assert [args[0].shape for args in factorizations] == [(1, 8, 8), (28, 8, 8)]


def test_fridge_point_below_the_floor_fails_without_svd(monkeypatch):
    # every factor fails the condition gate: the fridge's point fails as
    # the pump's does, with no SVD and nothing polished
    cfg = _three_qubit_fridge()
    factorizations = _count_calls(monkeypatch, np.linalg, "inv")
    fallbacks = _count_calls(monkeypatch, qpump.linalg, "_kernel_diagnostics")
    polishes = _count_calls(monkeypatch, qpump.steady, "_polish_state")
    monkeypatch.setattr(qpump.linalg, "KERNEL_RCOND_FLOOR", 1.0)
    with pytest.raises(qpump.linalg.DegenerateKernelError,
                       match=BELOW_FLOOR + re.escape(f"{cfg.omega_c!r}") + "$"):
        solve_three_qubit(cfg)
    assert len(factorizations) == 2 and not fallbacks and not polishes


def test_overflowing_current_scale_fails_its_point():
    # finite rates whose current scale |H| x rate leaves the double range: the
    # kernel solve passes, and the point fails with a solver error that names
    # it, not with an overflow warning (an error under this suite's filters)
    cfg = qpump.ideal_pump(n_levels=3, omega_c=1.4, **{
        **REF_PARAMS, "gamma_work": 1e300, "gamma_hot": 1e300, "gamma_cold": 1e300})
    with pytest.raises(qpump.steady.NonConvergedError,
                       match=r"^current scale .* overflows the double range at omega_c=1\.4$"):
        solve(cfg)


@pytest.mark.parametrize("gamma, omega_h", [(1e302, 102.6), (1e296, 1e4)],
                         ids=["rates_overflow", "block_leaves_the_double_range"])
def test_overflowing_generator_fails_its_point(gamma, omega_h):
    # rates that overflow to inf, and finite rates whose long-double block
    # leaves the double range when rounded: the kernel fails the point as
    # non-finite and names it, with no inf x 0 in a channel and no overflow
    # in the rounding (each a warning, so an error under this suite's filters)
    cfg = qpump.ideal_pump(n_levels=3, omega_c=1.4, **{
        **REF_PARAMS, "omega_h": omega_h,
        "gamma_work": gamma, "gamma_hot": gamma, "gamma_cold": gamma})
    with pytest.raises(qpump.linalg.NoKernelError,
                       match=r"^generator has non-finite entries \(max \|L\| = inf\) "
                             r"at omega_c=1\.4$"):
        solve(cfg)


@pytest.mark.parametrize("case", MACHINES.values(), ids=MACHINES.keys())
def test_only_the_pump_sector_is_real(case):
    # the pump's sector holds its populations alone and no coupling entry, so
    # its block is real and the solve keeps real states; the fridge's holds a
    # coherence pair, which the coupling reaches through -i[H, .].  Both in
    # double, whatever the platform's long-double width
    cfg, gen, _, _ = case()
    real = not isinstance(cfg, ThreeQubitConfig)
    sector = _positions(cfg)
    mat = gen.superop().matrix
    assert mat[np.ix_(sector, sector)].imag.any() != real
    solve_stack = (qpump.steady._solve_pumps if real else qpump.three_qubit._solve_fridges)
    assert solve_stack(cfg).states.dtype == (np.float64 if real else np.complex128)
    # the whole generator reaches the coherences, and is complex
    assert mat.dtype == complex and mat.imag.any()


@pytest.mark.parametrize("machine", ["pump_n8", "three_qubit"])
def test_solutions_are_columns_of_the_points(machine):
    # a stacked solve's columns against its points: each point as a
    # SteadySolution, its dense state laid out as a matrix whose stacked
    # positions hold the sector state, with its row of edge fluxes
    solve_stack = (qpump.steady._solve_pumps if machine != "three_qubit"
                   else qpump.three_qubit._solve_fridges)
    sols = solve_stack(_curve_config(machine, 5))
    assert len(sols) == 5 and sols.states.shape == (5, sols.positions.size)
    n = sols.dim
    for k, sol in enumerate(sols):
        assert sol.rho_inf.shape == (n, n) and sol.rho_inf.dtype == complex
        assert np.array_equal(vectorize(sol.rho_inf)[sols.positions], sols.states[k])
        assert not np.delete(vectorize(sol.rho_inf), sols.positions).any()
        assert np.array_equal(sol.edge_fluxes, sols.edge_fluxes[k])
        assert sol.edge_fluxes.dtype == np.float64
        assert sol.population_total == sols.population_total[k]
        assert sol.q_cold == sols.q_cold[k] and sol.cop == sols.cop[k]
        assert sol.residuals["first_law"] == sols.first_law[k]
        assert sol.mode == sols.mode[k]


@pytest.mark.parametrize("variant", ["plain", "squeezed", "saturated"])
def test_bath_rates_keep_decay_rates_bits(variant):
    # the rate fill takes each bath's rates from the rate body, without
    # decay_rates' checks: at a float frequency and at (P,) of them, with
    # the cold bath's last two past the occupation's far tail (omega/T > 700)
    work = {"plain": BathSpec("work", 130.0, 1e-3),
            "squeezed": BathSpec("work", 130.0, 1e-3, squeeze_r=0.8),
            "saturated": BathSpec("work", 130.0, 1e-3, saturated=True)}[variant]
    hot, cold = BathSpec("hot", 60.0, 2e-3), BathSpec("cold", 5.0, 3e-3)
    omega_c = np.array([1e-3, 0.7, 1.5, 40.0, 3600.0, 4000.0])
    omega_h = omega_c + 60.0
    sweep = PumpConfig(8, omega_h, omega_c, work, hot, cold)
    points = [PumpConfig(8, float(h), float(c), work, hot, cold)
              for h, c in zip(omega_h, omega_c)]
    for cfg in (sweep, *points):
        pairs = [decay_rates(cfg.bath(label), cfg.bath_frequency(label)) for label in _BATHS]
        expected = np.array([np.broadcast_to(r, np.shape(cfg.omega_c))
                             for pair in pairs for r in (pair.down, pair.up)]).reshape(6, -1)
        assert qpump.steady._bath_rates(cfg).tobytes() == expected.tobytes()


def test_edge_fluxes_scale_exactly_past_the_split_range():
    # rates past 2^996 would overflow Dekker's split (a warning, so an error
    # under this suite's filters); each point's rates are scaled by a power
    # of two first, so a point's fluxes are those of its rates unscaled
    # times that power, bit for bit
    rng = np.random.default_rng(5)
    n, points = 8, 4
    chain = qpump.steady._ladder(n)
    p = rng.uniform(0.01, 1.0, (n, points))
    rates = rng.uniform(0.5, 2.0, (6, points)) * 10.0 ** rng.integers(-6, 1, (6, points))
    base = qpump.steady._edge_fluxes(p, rates[chain.pair], chain.ends)
    power = 2.0 ** np.array([0, 990, 1000, 1018])
    big = rates * power
    flux = qpump.steady._edge_fluxes(p, big[chain.pair], chain.ends)
    assert np.array_equal(flux, base * power)


@pytest.mark.parametrize("machine", ["pump_n10", "three_qubit"])
def test_chain_currents_sum_each_point_in_one_order(machine):
    # each bath's current sums a slice of the (P, E) rows: at N = 10 the
    # hot bath's eight edges, which numpy sums pairwise in a lone (8, 1)
    # column and row by row down an (8, P) stack, and the fridge's cold
    # qubit's four flips; each point of the stack keeps the bits of its own
    # call.  The summed fluxes cancel, so that the two orders differ (by 1
    # in 5) beyond the double rounding
    if machine == "pump_n10":
        chain, edges = qpump.steady._ladder(10), slice(9, 17)
    else:
        chain, edges = qpump.three_qubit._FRIDGE, slice(8, 12)
    rng = np.random.default_rng(3)
    points, size = 6, len(chain.lo)
    flux = rng.standard_normal((size, points)) * 10.0 ** rng.integers(-6, 6, (size, points))
    flux[edges] = np.array([1e20, 1, -1e20, 1, 1, 1, 1, 1])[:edges.stop - edges.start, None]
    total = rng.uniform(1.0, 2.0, points)
    gaps = (101.2, 102.6, 1.4)
    stacked = chain.currents([np.full(points, gap) for gap in gaps], flux, total)
    for k in range(points):
        alone = chain.currents(gaps, flux[:, k:k + 1], total[k:k + 1])
        assert np.array_equal(stacked[:, k], alone[:, 0])
