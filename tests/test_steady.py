import dataclasses
import warnings

import numpy as np
import pytest

import qpump
from qpump.linalg import SuperOp, devectorize, stationary_vector, vectorize
from qpump.pump import BathSpec, RatePair, WeakCouplingWarning, decay_rates
from qpump.steady import (
    _Generator,
    build_dissipator,
    build_liouvillian,
    hamiltonian_commutator,
    heat_currents_decomposed,
    pauli_rate_oracle,
    solve,
)
from qpump.three_qubit import ThreeQubitConfig, _generator_ld

REF_PARAMS = dict(omega_h=102.6, t_work=7.1e3, t_hot=1.57e3, t_cold=54.25,
            gamma_work=3.5e-3, gamma_hot=5.1e-3, gamma_cold=8.8e-3)
REF_WINDOW_MAX = 2.782565222609013

SIGMA_MINUS = np.array([[0, 1], [0, 0]], dtype=complex)


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
        drho = op.apply(rho)
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
        assert np.max(np.abs(op.apply(rho))) == 0.0

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


class TestRateOracle:
    def test_matches_solver_across_sizes(self):
        rng = np.random.default_rng(42)
        for n in (3, 5, 7, 10):
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


@pytest.mark.parametrize("make_generator", [
    lambda: _Generator.for_pump(reference_pump(3)),
    lambda: _Generator.for_pump(reference_pump(8)),
    lambda: _generator_ld(_three_qubit_fridge()),
], ids=["pump_n3", "pump_n8", "three_qubit"])
def test_superop_and_extended_action_are_one_operator(make_generator):
    # the double generator the kernel solve uses is the rounding of the
    # extended-precision action the polish and the currents use
    gen = make_generator()
    op = gen.superop()
    rng = np.random.default_rng(11)
    a = rng.normal(size=(op.dim, op.dim)) + 1j * rng.normal(size=(op.dim, op.dim))
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    from_superop = op.matrix @ vectorize(rho)
    from_action = vectorize(gen.action(rho.astype(np.clongdouble))).astype(complex)
    assert np.max(np.abs(from_superop - from_action)) <= 1e-15 * np.max(np.abs(op.matrix))
