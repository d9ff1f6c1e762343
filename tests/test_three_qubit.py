import warnings

import numpy as np
import pytest

import qpump
from qpump.linalg import trace_row
from qpump.pump import BathSpec, carnot_cop
from qpump.three_qubit import (
    ThreeQubitConfig,
    build_three_qubit_hamiltonian,
    build_three_qubit_liouvillian,
    solve_three_qubit,
)

COMPARE_SETUP = dict(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0, gamma=1e-3, g=0.1)


def fridge(omega_c=1.5, g=0.1, gamma=1e-3, temps=(130.0, 60.0, 5.0)):
    return ThreeQubitConfig(
        omega_c=omega_c, omega_w=60.0, g=g,
        work=BathSpec("work", temps[0], gamma),
        hot=BathSpec("hot", temps[1], gamma),
        cold=BathSpec("cold", temps[2], gamma),
    )


class TestHamiltonian:
    def test_uncoupled_spectrum(self):
        cfg = fridge(omega_c=2.0, g=1e-12)
        h = build_three_qubit_hamiltonian(cfg)
        wc, ww, wh = 2.0, 60.0, 62.0
        expected = sorted([0.0, wc, ww, wh, wc + ww, wc + wh, ww + wh, wc + ww + wh])
        assert np.allclose(sorted(np.linalg.eigvalsh(h)), expected, atol=1e-9)

    def test_resonant_pair_splits_by_two_g(self):
        cfg = fridge(omega_c=2.0, g=0.1)
        h = build_three_qubit_hamiltonian(cfg)
        eig = np.linalg.eigvalsh(h)
        wh = cfg.omega_h
        split = [e for e in eig if abs(e - wh) < 1.0]
        assert len(split) == 2
        assert abs(split[1] - split[0] - 2 * cfg.g) < 1e-12

    def test_interaction_couples_the_right_states(self):
        # |1_c 1_w 0_h> = index 6, |0_c 0_w 1_h> = index 1 (order c, w, h)
        cfg = fridge()
        h = build_three_qubit_hamiltonian(cfg)
        off = h - np.diag(np.diag(h))
        assert abs(off[6, 1] - cfg.g) < 1e-15
        assert abs(off[1, 6] - cfg.g) < 1e-15
        assert np.count_nonzero(off) == 2

    def test_resonance_built_in(self):
        cfg = fridge(omega_c=3.3)
        assert cfg.omega_h == 3.3 + 60.0


class TestSolve:
    def test_vanishing_coupling_gives_product_gibbs(self):
        cfg = fridge(g=1e-12)
        sol = solve_three_qubit(cfg)
        # currents vanish: no energy pathway without the exchange term
        scale = cfg.omega_h * max(
            (lambda p: p.down + p.up)(qpump.decay_rates(cfg.bath(l), cfg.bath_frequency(l)))
            for l in ("work", "hot", "cold"))
        assert all(abs(q) < 1e-12 * scale for q in sol.currents.values())
        # populations factorize into the three local Gibbs weights
        pops = np.real(np.diag(sol.rho_inf))
        weights = []
        for label, omega in (("cold", cfg.omega_c), ("work", cfg.omega_w),
                             ("hot", cfg.omega_h)):
            x = np.exp(-omega / cfg.bath(label).temperature)
            weights.append(np.array([1.0, x]) / (1.0 + x))
        expected = np.kron(np.kron(weights[0], weights[1]), weights[2])
        assert np.max(np.abs(pops - expected)) < 1e-9

    def test_near_equal_temperatures_zero_currents(self):
        t = 30.0
        cfg = fridge(temps=(t * (1 + 2e-9), t * (1 + 1e-9), t))
        sol = solve_three_qubit(cfg)
        pair = qpump.decay_rates(cfg.work, cfg.omega_w)
        scale = cfg.omega_h * (pair.down + pair.up)
        assert all(abs(q) < 1e-9 * scale for q in sol.currents.values())

    def test_reference_point_thermodynamics(self):
        sol = solve_three_qubit(fridge(omega_c=1.5))
        assert sol.q_cold > 0 and sol.q_work > 0 and sol.q_hot < 0
        assert sol.residuals["first_law"] <= 1e-10
        assert sol.entropy_rate >= -1e-12
        assert 0 < sol.cop < carnot_cop((130.0, 60.0, 5.0))

    def test_stationary_coherence_is_nonzero(self):
        sol = solve_three_qubit(fridge(omega_c=1.5))
        assert abs(sol.rho_inf[6, 1]) > 1e-9

    def test_non_ideality_reported_not_gated(self):
        sol = solve_three_qubit(fridge(omega_c=1.5))
        assert sol.residuals["ideality_cold_work"] > 0

    @pytest.mark.filterwarnings("ignore::UserWarning")
    def test_efficiency_strictly_below_carnot_in_interior(self):
        eps_c = carnot_cop((130.0, 60.0, 5.0))
        for omega_c in (0.5, 1.0, 1.5, 2.0, 2.5):
            sol = solve_three_qubit(fridge(omega_c=omega_c))
            assert 0 < sol.cop < eps_c

    def test_kernel_residual_small(self):
        sol = solve_three_qubit(fridge())
        assert sol.residuals["kernel_residual"] <= 1e-10

    def test_trace_preserving_generator(self):
        op = build_three_qubit_liouvillian(fridge())
        scale = np.max(np.abs(op.matrix))
        assert np.max(np.abs(trace_row(op.dim) @ op.matrix)) <= 1e-10 * scale


class TestValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            fridge(omega_c=-1.0)
        with pytest.raises(ValueError):
            fridge(g=0.0)

    def test_temperature_ordering(self):
        with pytest.raises(ValueError):
            fridge(temps=(10.0, 60.0, 5.0))

    def test_strong_coupling_warns(self):
        with pytest.warns(UserWarning) as record:
            fridge(omega_c=0.5, g=0.4)
        assert record[0].filename == __file__  # the constructor's caller
