import dataclasses

import numpy as np
import pytest

import qpump
from qpump.experiments import CurveSetup, _curve_config
from qpump.linalg import trace_row
from qpump.pump import BathSpec, carnot_cop, decay_rates
from qpump.steady import _solve_ld_kernel
from qpump.three_qubit import (
    ThreeQubitConfig,
    _solve_fridges,
    build_three_qubit_hamiltonian,
    build_three_qubit_liouvillian,
    solve_three_qubit,
)

COMPARE_SETUP = CurveSetup(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
                           gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3, g=0.1, n_levels=8)
# the shifted curve of test_three_qubit_curve_at_shifted_omega_h
# (test_experiments.py), and the point (index 26 of 30) where the generator's
# trace assembly failed its first-law gate
SHIFTED_SETUP = CurveSetup(omega_w=61.500303 - 1.5, t_work=130.0, t_hot=60.0, t_cold=5.0,
                           gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3, g=0.1, n_levels=8)
SHIFTED_POINT = 26
# the bounds of acceptance criterion 4 (tests/test_acceptance.py)
POPULATION_BOUND = 1e-7
CURRENT_BOUND = 1e-6


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

    def test_non_ideality_reported_not_gated(self, monkeypatch):
        # reported, never gated: a gate below zero would fail any point.  The
        # chain's currents share one flux, so |q_c/q_w| = w_c/w_w and the
        # residual sits at the rounding of the double currents
        monkeypatch.setattr(qpump.steady, "IDEALITY_RTOL", -1.0)
        sol = solve_three_qubit(fridge(omega_c=1.5))
        assert 0.0 <= sol.residuals["ideality_cold_work"] <= 4 * np.finfo(float).eps

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

    @pytest.mark.parametrize("field, last", [("omega_c", 0.0), ("omega_w", -60.0)])
    def test_stacked_config_checks_every_point(self, field, last):
        # a non-positive frequency at the last point of (P,) frequencies is
        # refused as that point's own config refuses it
        with pytest.raises(ValueError) as alone:
            dataclasses.replace(fridge(), **{field: last})
        stack = np.array([getattr(fridge(), field)] * 2 + [last])
        with pytest.raises(ValueError) as stacked:
            dataclasses.replace(fridge(), **{field: stack})
        assert str(stacked.value) == str(alone.value)

    def test_strong_coupling_warns(self):
        with pytest.warns(UserWarning) as record:
            fridge(omega_c=0.5, g=0.4)
        assert record[0].filename == __file__  # the constructor's caller


# ---------------------------------------------------------------------------
# rate-equation oracle


QUBITS = (("cold", 4), ("work", 2), ("hot", 1))  # the bit of each in the level index


def fridge_rate_oracle(cfg):
    """Stationary populations, |110><001| coherence and heat currents of the
    fridge from classical rate equations, independent of the Lindblad solve.

    Each qubit flips at its bath's rates, at its bare frequency; the
    exchange g (|6><1| + |1><6|) joins the degenerate levels 1 = |001> and
    6 = |110> at the rate ``2 g^2 / kappa`` both ways, where ``kappa`` is
    the decay rate of their coherence, the mean of the two levels' total
    escape rates.  The coherence follows as
    ``rho_61 = -i g (p_1 - p_6) / kappa``; it is imaginary, so it adds
    nothing to the currents, which are the bare energies times each bath's
    population flows.  Long double throughout.
    """
    ld = np.longdouble
    omega = {"cold": ld(cfg.omega_c), "work": ld(cfg.omega_w)}
    omega["hot"] = omega["cold"] + omega["work"]
    level = np.arange(8)
    energy = sum(omega[label] * ((level & bit) > 0) for label, bit in QUBITS)
    baths = {}
    for label, bit in QUBITS:
        rates = decay_rates(cfg.bath(label), cfg.bath_frequency(label))
        w = np.zeros((8, 8), dtype=ld)  # w[i, j]: rate of j -> i
        for j in range(8):
            i, rate = (j - bit, rates.down) if j & bit else (j + bit, rates.up)
            w[i, j] += ld(rate)
            w[j, j] -= ld(rate)
        baths[label] = w
    total = sum(baths.values())
    g = ld(cfg.g)
    kappa = -(total[1, 1] + total[6, 6]) / 2
    exchange = 2 * g * g / kappa
    total[[6, 1], [1, 6]] += exchange
    total[[1, 6], [1, 6]] -= exchange
    p = _solve_ld_kernel(total)
    coherence = -1j * g * (p[1] - p[6]) / kappa
    currents = {label: float(energy @ (w @ p)) for label, w in baths.items()}
    return p, coherence, currents


def assert_agrees_with_oracle(cfg, sol):
    p, coherence, currents = fridge_rate_oracle(cfg)
    assert np.max(np.abs(np.real(np.diag(sol.rho_inf)) - p)) <= POPULATION_BOUND
    # the coherence is far below the populations, so it is held to the
    # population bound relative to its own size
    assert abs(sol.rho_inf[6, 1] - complex(coherence)) <= POPULATION_BOUND * abs(coherence)
    q_scale = max(abs(q) for q in sol.currents.values())
    for label, q in currents.items():
        assert abs(sol.currents[label] - q) <= CURRENT_BOUND * q_scale


def curve_solutions(setup):
    """The configs and the stacked solutions of a 30-point three-qubit curve."""
    window = qpump.cooling_window_max_fixed_work(setup.omega_w, setup.temps)
    omega_c = window * np.arange(1, 31) / 31
    configs = [_curve_config("three_qubit", setup, w) for w in omega_c.tolist()]
    return configs, _solve_fridges(_curve_config("three_qubit", setup, omega_c))


@pytest.mark.filterwarnings("ignore::UserWarning")  # g against the smallest omega_c
class TestRateOracle:
    def test_compare_curve(self):
        for cfg, sol in zip(*curve_solutions(COMPARE_SETUP)):
            assert_agrees_with_oracle(cfg, sol)

    def test_shifted_curve_point(self):
        # the point where the generator's trace assembly failed the
        # first-law gate (1.452e-10): the chain's holds the first law at the
        # rounding of the currents, and its state agrees with the oracle
        configs, solutions = curve_solutions(SHIFTED_SETUP)
        assert solutions[SHIFTED_POINT].residuals["first_law"] <= 1e-14
        assert_agrees_with_oracle(configs[SHIFTED_POINT], solutions[SHIFTED_POINT])


# ---------------------------------------------------------------------------
# accuracy against mpmath


def mpmath_chain_currents(cfg, digits=50):
    """Heat currents of the fridge's eight-state chain, solved in mpmath at
    ``digits`` digits from the same double rates: the qubit flips at their
    baths' rates and the exchange |001> <-> |110> at ``2 g^2 / kappa``,
    ``kappa`` the mean of the two levels' escape rates.  Each current is
    its qubit's frequency times the net flux up its bath's edges."""
    import mpmath

    with mpmath.workdps(digits):
        omega = {"cold": mpmath.mpf(cfg.omega_c), "work": mpmath.mpf(cfg.omega_w)}
        omega["hot"] = omega["cold"] + omega["work"]
        m = mpmath.zeros(8, 8)  # m[i, j]: rate of j -> i, out-rates on the diagonal
        edges = {}
        kappa = 0
        for label, bit in QUBITS:
            rates = decay_rates(cfg.bath(label), cfg.bath_frequency(label))
            down, up = mpmath.mpf(rates.down), mpmath.mpf(rates.up)
            edges[label] = [(lo, lo + bit, down, up) for lo in range(8) if not lo & bit]
            # one flip of this qubit leaves |001>, the other |110>
            kappa += (down + up) / 2
        rate = 2 * mpmath.mpf(cfg.g) ** 2 / kappa
        edges["exchange"] = [(1, 6, rate, rate)]
        for pairs in edges.values():
            for lo, hi, down, up in pairs:
                m[lo, hi] += down
                m[hi, hi] -= down
                m[hi, lo] += up
                m[lo, lo] -= up
        for j in range(8):
            m[0, j] = 1
        p = mpmath.lu_solve(m, mpmath.matrix([1] + [0] * 7))
        return {label: float(omega[label] * mpmath.fsum(up * p[lo] - down * p[hi]
                                                        for lo, hi, down, up in edges[label]))
                for label in omega}


def mpmath_lindblad_currents(cfg, digits=40):
    """Heat currents ``tr(H D_a rho)`` of the fridge from the kernel of its
    full Lindbladian, built entry by entry in mpmath at ``digits`` digits
    from the Lindblad form of its operators, with the same double rates,
    and restricted to the stationary sector (the populations and the
    |110>/|001> coherence pair; test_steady.py proves that the sector is
    closed and holds the stationary state).  No eliminated coherence: the
    exchange enters through the Hamiltonian."""
    import mpmath

    with mpmath.workdps(digits):
        omega = {"cold": mpmath.mpf(cfg.omega_c), "work": mpmath.mpf(cfg.omega_w)}
        omega["hot"] = omega["cold"] + omega["work"]
        ham = mpmath.zeros(8, 8)
        for k in range(8):
            ham[k, k] = sum(omega[label] for label, bit in QUBITS if k & bit)
        ham[6, 1] = ham[1, 6] = mpmath.mpf(cfg.g)
        sector = [(k, k) for k in range(8)] + [(6, 1), (1, 6)]

        def block(term):
            # the superoperator of term(E_ij)_kl on the sector, ij the column
            return mpmath.matrix([[term(k, l, i, j) for i, j in sector] for k, l in sector])

        def delta(a, b):
            return 1 if a == b else 0

        blocks = {"commutator": block(lambda k, l, i, j: -1j * (ham[k, i] * delta(j, l)
                                                                - delta(i, k) * ham[j, l]))}
        for label, bit in QUBITS:
            rates = decay_rates(cfg.bath(label), cfg.bath_frequency(label))
            down, up = mpmath.mpf(rates.down), mpmath.mpf(rates.up)
            s = mpmath.zeros(8, 8)  # the qubit's lowering operator
            for hi in range(8):
                if hi & bit:
                    s[hi - bit, hi] = 1
            sd = s.T
            pe, pg = sd * s, s * sd

            def dissipator(k, l, i, j, s=s, sd=sd, pe=pe, pg=pg, down=down, up=up):
                return (down * (s[k, i] * sd[j, l]
                                - (pe[k, i] * delta(j, l) + delta(i, k) * pe[j, l]) / 2)
                        + up * (sd[k, i] * s[j, l]
                                - (pg[k, i] * delta(j, l) + delta(i, k) * pg[j, l]) / 2))

            blocks[label] = block(dissipator)
        a = sum(blocks.values(), mpmath.zeros(len(sector), len(sector)))
        for col, (i, j) in enumerate(sector):
            a[0, col] = delta(i, j)  # the trace row
        rho = mpmath.lu_solve(a, mpmath.matrix([1] + [0] * (len(sector) - 1)))
        currents = {}
        for label, _ in QUBITS:
            d = blocks[label] * rho
            currents[label] = float(mpmath.re(mpmath.fsum(ham[l, k] * d[row]
                                                          for row, (k, l) in enumerate(sector))))
        return currents


# cold frequencies across the cooling window of fridge(), the last near the
# curve's closure
ACCURACY_FRACTIONS = (0.05, 0.5, 0.99)


@pytest.mark.filterwarnings("ignore::UserWarning")  # g against the smallest omega_c
@pytest.mark.parametrize("fraction", ACCURACY_FRACTIONS)
@pytest.mark.parametrize("reference", [mpmath_chain_currents, mpmath_lindblad_currents],
                         ids=["chain", "lindblad"])
def test_currents_match_mpmath(reference, fraction):
    pytest.importorskip("mpmath")
    cfg = fridge(omega_c=fraction * qpump.cooling_window_max_fixed_work(60.0, (130.0, 60.0, 5.0)))
    expected = reference(cfg)
    sol = solve_three_qubit(cfg)
    q_scale = max(abs(q) for q in expected.values())
    for label, q in expected.items():
        assert abs(sol.currents[label] - q) <= 1e-14 * q_scale, label
