import dataclasses
import math

import numpy as np
import pytest

from qpump.pump import (
    BathSpec,
    PumpConfig,
    WeakCouplingWarning,
    _rates,
    bose_occupation,
    build_hamiltonian,
    build_jump_operator,
    carnot_cop,
    cooling_window_max,
    cooling_window_max_fixed_work,
    decay_rates,
    effective_temperature,
    ideal_pump,
    level_energies,
    squeeze_db_to_r,
    transition_pairs,
    window_max,
)
from qpump.three_qubit import ThreeQubitConfig

REF_TEMPS = (7.1e3, 1.57e3, 54.25)
REF_OMEGA_H = 102.6
# frozen from direct evaluation of the window / Carnot / occupation formulas
REF_WINDOW_MAX = 2.782565222609013
REF_CARNOT = 0.027876545102712598
REF_CARNOT_HOT_WORK_LIMIT = 0.035790862609269336
NBAR_HOT = 14.807589721800722


def reference_pump(n_levels=3, omega_c=1.4, **kwargs):
    return ideal_pump(n_levels, REF_OMEGA_H, omega_c, *REF_TEMPS,
                      3.5e-3, 5.1e-3, 8.8e-3, **kwargs)


class TestHamiltonian:
    def test_three_levels(self):
        h = build_hamiltonian(reference_pump(3))
        assert np.array_equal(np.diag(h).real, [0.0, 1.4, 102.6])

    def test_four_levels(self):
        h = build_hamiltonian(reference_pump(4))
        assert np.array_equal(np.diag(h).real, [0.0, 1.4, 102.6, 102.6 + 1.4])

    def test_five_levels(self):
        h = build_hamiltonian(reference_pump(5))
        assert np.array_equal(np.diag(h).real,
                              [0.0, 1.4, 102.6, 102.6 + 1.4, 2 * 102.6])

    @pytest.mark.parametrize("n", range(3, 11))
    def test_strictly_increasing(self, n):
        e = level_energies(n, 2.3, 0.7)
        assert np.all(np.diff(e) > 0)
        assert e[0] == 0.0


class TestJumpOperators:
    def test_three_level_structure(self):
        cfg = reference_pump(3)
        cold = build_jump_operator(cfg, "cold")
        work = build_jump_operator(cfg, "work")
        hot = build_jump_operator(cfg, "hot")
        assert cold[0, 1] == 1.0 and np.count_nonzero(cold) == 1   # |1><2|
        assert work[1, 2] == 1.0 and np.count_nonzero(work) == 1   # |2><3|
        assert hot[0, 2] == 1.0 and np.count_nonzero(hot) == 1     # |1><3|

    def test_five_level_cold_has_two_terms(self):
        cold = build_jump_operator(reference_pump(5), "cold")
        assert cold[0, 1] == 1.0 and cold[2, 3] == 1.0
        assert np.count_nonzero(cold) == 2

    def test_four_level_single_work_transition(self):
        work = build_jump_operator(reference_pump(4), "work")
        assert work[1, 2] == 1.0 and np.count_nonzero(work) == 1

    @pytest.mark.parametrize("n", range(3, 11))
    def test_transition_counts(self, n):
        assert len(transition_pairs(n, "cold")) == n // 2
        assert len(transition_pairs(n, "work")) == (n + 1) // 2 - 1
        assert len(transition_pairs(n, "hot")) == n - 2

    @pytest.mark.parametrize("n", range(3, 11))
    def test_frequency_bookkeeping(self, n):
        # each transition's gap is its bath's frequency: the guard of
        # transition_pairs against level_energies, which build_jump_operator
        # does not repeat at run time
        cfg = reference_pump(n)
        e = level_energies(n, cfg.omega_h, cfg.omega_c)
        for label, omega in (("cold", cfg.omega_c), ("work", cfg.omega_w),
                             ("hot", cfg.omega_h)):
            jump = build_jump_operator(cfg, label)
            for lo, hi in zip(*np.nonzero(jump)):
                assert abs((e[hi] - e[lo]) - omega) <= 64 * np.finfo(float).eps * e[-1]


class TestOccupationAndRates:
    def test_bose_log_two(self):
        assert abs(bose_occupation(2.0 * math.log(2.0), 2.0) - 1.0) < 1e-12

    def test_bose_zero_temperature_limit(self):
        assert bose_occupation(1.0, 1e-3) < 1e-300

    def test_bose_hot_bath_value(self):
        assert abs(bose_occupation(102.6, 1.57e3) - NBAR_HOT) < 1e-10

    def test_bose_domain(self):
        with pytest.raises(ValueError):
            bose_occupation(-1.0, 1.0)
        with pytest.raises(ValueError):
            bose_occupation(1.0, 0.0)

    def test_vacuum_limit(self):
        bath = BathSpec("cold", 1e-4, 0.2)
        pair = decay_rates(bath, 3.0)
        assert abs(pair.down - 0.2 * 27.0) < 1e-12
        assert pair.up == 0.0

    def test_detailed_balance(self):
        bath = BathSpec("hot", 3.7, 0.01)
        pair = decay_rates(bath, 2.2)
        assert abs(pair.up / pair.down - math.exp(-2.2 / 3.7)) < 1e-12

    def test_rates_monotone_in_squeezing(self):
        previous = decay_rates(BathSpec("work", 5.0, 0.01), 2.0)
        for r in (0.2, 0.5, 0.9, 1.5):
            pair = decay_rates(BathSpec("work", 5.0, 0.01, squeeze_r=r), 2.0)
            assert pair.down > previous.down and pair.up > previous.up
            previous = pair

    def test_saturated_rates_symmetric(self):
        pair = decay_rates(BathSpec("work", 1.0, 0.01, saturated=True), 2.0)
        assert pair.down == pair.up > 0

    # (bath, omega, down, up), frozen from scalar calls of the rate formula
    # before it accepted arrays: a float omega keeps these exact bits
    SCALAR_RATES = [
        (BathSpec("cold", 54.25, 8.8e-3), 1.4, 0.947829528885981, 0.923682328885981),
        (BathSpec("work", 7.1e3, 3.5e-3), 101.2, 256317.85175150505, 252690.33370350505),
        (BathSpec("work", 7.1e3, 3.5e-3, squeeze_r=0.806), 101.2,
         665091.5219114699, 661464.0038634698),
        (BathSpec("work", 7.1e3, 3.5e-3, saturated=True), 101.2,
         362751804800.00006, 362751804800.00006),
        (BathSpec("hot", 1.57e3, 5.1e-3), 102.6, 87071.87846589509, 81563.6460282951),
        (BathSpec("cold", 1.0, 1e-3), 750.0, 421875.0, 0.0),
    ]

    @pytest.mark.parametrize("bath, omega, down, up", SCALAR_RATES)
    def test_scalar_rates_keep_their_bits(self, bath, omega, down, up):
        pair = decay_rates(bath, omega)
        assert (pair.down, pair.up) == (down, up)
        assert _rates(bath, omega) == (down, up)

    @pytest.mark.parametrize("bath", [BathSpec("cold", 2.0, 0.01),
                                      BathSpec("work", 2.0, 0.02, squeeze_r=0.8),
                                      BathSpec("work", 2.0, 0.02, saturated=True)])
    def test_rate_body_keeps_decay_rates_bits(self, bath):
        # the unchecked body of the optimizer's steps, on floats and on an
        # array, with omega/T on both sides of the occupation's x > 700 branch
        omega = 2.0 * np.array([1e-3, 0.7, 35.0, 699.5, 700.0, 700.5, 760.0])
        for w in omega.tolist():
            pair = decay_rates(bath, w)
            assert _rates(bath, w) == (pair.down, pair.up)
        down, up = _rates(bath, omega)
        pair = decay_rates(bath, omega)
        assert (down.tobytes(), up.tobytes()) == (pair.down.tobytes(), pair.up.tobytes())

    @pytest.mark.parametrize("bath", [BathSpec("cold", 3.0, 0.01),
                                      BathSpec("work", 40.0, 0.02),
                                      BathSpec("work", 40.0, 0.02, squeeze_r=0.8),
                                      BathSpec("work", 40.0, 0.02, saturated=True)])
    def test_array_rates_match_scalar_calls(self, bath):
        # omega/T from 1e-3 to 900 crosses the x > 700 branch of the
        # occupation, where expm1 on the whole array would overflow
        omega = bath.temperature * np.geomspace(1e-3, 900.0, 301)
        pair = decay_rates(bath, omega)
        assert pair.down.shape == pair.up.shape == omega.shape
        for k, w in enumerate(omega.tolist()):
            ref = decay_rates(bath, w)
            for got, want in ((pair.down[k], ref.down), (pair.up[k], ref.up)):
                assert abs(got - want) <= 4 * np.spacing(abs(want)) or abs(got - want) < 1e-300

    def test_array_occupation_matches_scalar_calls(self):
        x = np.array([1e-6, 0.3, 1.0, 35.0, 699.0, 701.0, 720.0, 800.0])
        occupation = bose_occupation(2.0 * x, 2.0)
        assert occupation.tolist() == [bose_occupation(2.0 * v, 2.0) for v in x.tolist()]

    def test_array_domain(self):
        with pytest.raises(ValueError):
            bose_occupation(np.array([1.0, 0.0]), 1.0)
        with pytest.raises(ValueError):
            decay_rates(BathSpec("cold", 1.0, 0.01), np.array([2.0, -1.0]))

    @pytest.mark.parametrize("squeeze_r, saturated", [(0.0, False), (0.8, False), (0.0, True)])
    def test_per_row_baths_match_scalar_calls(self, squeeze_r, saturated):
        # one bath per element: temperature, strength and frequency all vary,
        # and omega/T crosses the x > 700 branch of the occupation
        rng = np.random.default_rng(5)
        temperature = np.exp(rng.uniform(np.log(1e-2), np.log(1e4), (4, 64)))
        gamma = np.exp(rng.uniform(np.log(1e-7), np.log(1e-1), (4, 64)))
        omega = temperature * np.exp(rng.uniform(np.log(1e-3), np.log(900.0), (4, 64)))
        pair = decay_rates(BathSpec("work", temperature, gamma, squeeze_r, saturated), omega)
        for t, g, w, down, up in zip(*(a.ravel().tolist() for a in
                                       (temperature, gamma, omega, pair.down, pair.up))):
            ref = decay_rates(BathSpec("work", t, g, squeeze_r, saturated), w)
            assert (down, up) == (ref.down, ref.up)

    def test_per_row_occupation_matches_scalar_calls(self):
        temperature = np.array([0.5, 2.0, 7.0, 1e-3, 40.0])
        omega = np.array([1.0, 1.0, 0.02, 1.0, 3.0])
        occupation = bose_occupation(omega, temperature)
        assert occupation.tolist() == [bose_occupation(w, t) for w, t in
                                       zip(omega.tolist(), temperature.tolist())]

    def test_per_row_domain(self):
        with pytest.raises(ValueError):
            bose_occupation(1.0, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            BathSpec("cold", np.array([1.0, -2.0]), 0.01)
        with pytest.raises(ValueError):
            BathSpec("cold", 1.0, np.array([0.01, 0.0]))


class TestSqueezing:
    def test_zero_db(self):
        assert squeeze_db_to_r(0.0) == 0.0

    def test_seven_db(self):
        assert abs(squeeze_db_to_r(7.0) - 0.806) < 1e-3

    def test_twenty_db(self):
        assert abs(squeeze_db_to_r(20.0) - math.log(10.0)) < 1e-15

    def test_effective_temperature_plain_bath(self):
        bath = BathSpec("work", 123.4, 0.01)
        t = effective_temperature(bath, 7.7)
        assert abs(t / 123.4 - 1.0) < 1e-10

    def test_effective_temperature_seven_db(self):
        bath = BathSpec("work", 7.1e3, 0.01, squeeze_r=squeeze_db_to_r(7.0))
        t = effective_temperature(bath, 100.0)
        assert abs(t - 1.8e4) < 0.1 * 1.8e4

    def test_effective_temperature_monotone_in_r(self):
        temps = [effective_temperature(BathSpec("work", 50.0, 0.01, squeeze_r=r), 10.0)
                 for r in (0.0, 0.5, 1.0, 2.0, 4.0)]
        assert all(b > a for a, b in zip(temps, temps[1:]))

    @pytest.mark.parametrize("bath", [BathSpec("work", 40.0, 0.02),
                                      BathSpec("work", 40.0, 0.02, squeeze_r=0.8),
                                      BathSpec("work", 40.0, 0.02, saturated=True)],
                             ids=["plain", "squeezed", "saturated"])
    def test_array_effective_temperature_matches_scalar_calls(self, bath):
        # omega/T from 1e-3 to 900 crosses the x > 700 branch of the
        # occupation and, past x ~ 745, its underflow to zero
        omega = bath.temperature * np.geomspace(1e-3, 900.0, 301)
        temps = effective_temperature(bath, omega)
        assert temps.shape == omega.shape and temps.dtype == float
        assert temps.tolist() == [effective_temperature(bath, w) for w in omega.tolist()]
        grid = omega[:6].reshape(2, 3)
        assert effective_temperature(bath, grid).tolist() == \
            [[effective_temperature(bath, w) for w in row] for row in grid.tolist()]


class TestWindowAndCarnot:
    def test_no_gradient_limits(self):
        assert cooling_window_max(10.0, (5.0, 5.0, 1.0)) == 0.0
        assert carnot_cop((5.0, 5.0, 1.0)) == 0.0

    def test_reference_values(self):
        assert abs(cooling_window_max(REF_OMEGA_H, REF_TEMPS) - REF_WINDOW_MAX) < 1e-12
        assert abs(carnot_cop(REF_TEMPS) - REF_CARNOT) < 1e-15

    def test_infinite_work_temperature_limits(self):
        t_h, t_c = REF_TEMPS[1], REF_TEMPS[2]
        w = cooling_window_max(REF_OMEGA_H, (1e14, t_h, t_c))
        assert abs(w - REF_OMEGA_H * t_c / t_h) < 1e-9 * w
        e = carnot_cop((1e14, t_h, t_c))
        assert abs(e - REF_CARNOT_HOT_WORK_LIMIT) < 1e-9 * e

    def test_window_edge_cop_equals_carnot(self):
        # cop at omega_c = window edge equals the Carnot value exactly
        w = cooling_window_max(REF_OMEGA_H, REF_TEMPS)
        eps_at_edge = w / (REF_OMEGA_H - w)
        assert abs(eps_at_edge / carnot_cop(REF_TEMPS) - 1.0) < 1e-12

    def test_fixed_work_window_edge_is_carnot(self):
        temps = (130.0, 60.0, 5.0)
        w = cooling_window_max_fixed_work(60.0, temps)
        assert abs((w / 60.0) / carnot_cop(temps) - 1.0) < 1e-12

    def test_ordering_rejected(self):
        with pytest.raises(ValueError):
            cooling_window_max(1.0, (1.0, 2.0, 3.0))

    @pytest.mark.parametrize("t_hot", [2e10, 1e300])
    def test_saturated_work_below_the_hot_bath_has_no_window(self, t_hot):
        # the saturated bath's effective temperature at omega_h, 1.03e10
        # for the reference chiller, at or below T_h: no window, as at
        # equal temperatures, where the ordering check raised before
        cfg = ideal_pump(3, REF_OMEGA_H, 1.4, REF_TEMPS[0], t_hot, REF_TEMPS[2],
                         1e-3, 1e-3, 1e-3, saturated_work=True)
        assert effective_temperature(cfg.work, REF_OMEGA_H) < 1.1e10
        assert window_max(cfg) == 0.0
        hotter = dataclasses.replace(cfg, hot=dataclasses.replace(cfg.hot, temperature=1e9))
        assert window_max(hotter) > 0.0


class TestConfigValidation:
    def test_valid_config_builds(self):
        cfg = reference_pump(4)
        assert cfg.omega_w == REF_OMEGA_H - 1.4
        assert cfg.bath("hot").temperature == 1.57e3

    def test_frequency_ordering_enforced(self):
        with pytest.raises(ValueError):
            reference_pump(3, omega_c=200.0)

    def test_temperature_ordering_enforced(self):
        with pytest.raises(ValueError):
            ideal_pump(3, 10.0, 1.0, 5.0, 50.0, 1.0, 1e-3, 1e-3, 1e-3)

    @pytest.mark.parametrize("point, omega_c", [(0, 200.0), (-1, -0.5)],
                             ids=["first_point", "last_point"])
    def test_stacked_config_checks_every_point(self, point, omega_c):
        # a config of (P,) frequencies refuses the first point that breaks
        # 0 < omega_c < omega_h, with the message of that point's own config
        # (the curve's stacks were checked at their first point alone before)
        with pytest.raises(ValueError) as alone:
            reference_pump(3, omega_c=omega_c)
        stack = np.array([0.7, 1.4, 2.1])
        stack[point] = omega_c
        with pytest.raises(ValueError) as stacked:
            dataclasses.replace(reference_pump(3), omega_h=np.full(3, REF_OMEGA_H), omega_c=stack)
        assert str(stacked.value) == str(alone.value)

    def test_minimum_levels(self):
        with pytest.raises(ValueError):
            reference_pump(2)

    def test_squeezing_only_on_work_bath(self):
        with pytest.raises(ValueError):
            BathSpec("cold", 1.0, 0.1, squeeze_r=0.5)
        with pytest.raises(ValueError):
            BathSpec("hot", 1.0, 0.1, saturated=True)

    def test_saturated_work_skips_ordering(self):
        cfg = ideal_pump(3, 10.0, 1.0, 1.0, 50.0, 1.0 + 1e-9, 1e-4, 1e-4, 1e-4,
                         saturated_work=True)
        assert cfg.work.saturated

    def test_weak_coupling_warning(self):
        with pytest.warns(WeakCouplingWarning):
            ideal_pump(3, 10.0, 1.0, 400.0, 40.0, 4.0, 0.5, 1e-3, 1e-3)

    def test_weak_coupling_warning_names_the_caller(self):
        with pytest.warns(WeakCouplingWarning) as record:
            PumpConfig(3, 10.0, 1.0, BathSpec("work", 400.0, 0.5),
                       BathSpec("hot", 40.0, 1e-3), BathSpec("cold", 4.0, 1e-3))
        assert record[0].filename == __file__

    @pytest.mark.parametrize("build", [
        lambda: ideal_pump(3, 10.0, 1.0, 400.0, 40.0, 4.0, 0.5, 1e-3, 1e-3),
        lambda: dataclasses.replace(reference_pump(), work=BathSpec("work", 7.1e3, 0.5)),
        lambda: ThreeQubitConfig(0.5, 60.0, 0.4, BathSpec("work", 130.0, 1e-3),
                                 BathSpec("hot", 60.0, 1e-3), BathSpec("cold", 5.0, 1e-3)),
    ], ids=["ideal_pump", "replace", "ThreeQubitConfig"])
    def test_every_config_warning_names_the_caller(self, build):
        # however many frames of the config machinery lie between it and
        # the warning, as for PumpConfig(...) above
        with pytest.warns(UserWarning) as record:
            build()
        assert record[0].filename == __file__

    def test_no_warning_at_reference_parameters(self, recwarn):
        reference_pump(3, omega_c=1.4)
        assert not [w for w in recwarn if issubclass(w.category, WeakCouplingWarning)]
