"""Acceptance suite: every release-gating criterion in one module.

Run ``pytest tests/test_acceptance.py -v -s`` to get one PASS/FAIL line per
criterion with the measured numbers.  Tolerances are fixed here, not
calibrated at runtime.
"""

import dataclasses
import os
import time
import warnings

import numpy as np
import pytest

import qpump
from qpump.experiments import (
    CurveSetup,
    SampleRanges,
    characteristic_curve,
    cop_histogram,
    maximize_cooling_power,
    sweep_stages,
)
from qpump.linalg import propagate
from qpump.steady import build_liouvillian, pauli_rate_oracle, solve
from qpump.cli import run as cli_run

REF_TEMPS = (7.1e3, 1.57e3, 54.25)
REF_PARAMS = dict(omega_h=102.6, t_work=7.1e3, t_hot=1.57e3, t_cold=54.25,
            gamma_work=3.5e-3, gamma_hot=5.1e-3, gamma_cold=8.8e-3)
COMPARE_SETUP = CurveSetup(omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
                   gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3,
                   g=0.1, n_levels=8)

HISTOGRAM_SAMPLES = 10_000


def report(criterion: str, detail: str) -> None:
    print(f"\n[acceptance] {criterion}: PASS  ({detail})")


def reference_pump(n_levels=3, omega_c=1.4):
    return qpump.ideal_pump(n_levels=n_levels, omega_c=omega_c, **REF_PARAMS)


def draw_random_pump(rng):
    """Random valid chiller in the moderate-rate-disparity regime.

    Ranges: T_c in [1, 20], T_h/T_c and T_w/T_h in [2, 12] (log-uniform),
    omega_h in [0.3, 3] T_c, omega_c in [0.15, 0.85] of the window,
    gamma_a in [1e-4, 1e-2] independently per bath, N uniform on 3..10.
    """
    t_c = float(np.exp(rng.uniform(np.log(1.0), np.log(20.0))))
    t_h = t_c * float(np.exp(rng.uniform(np.log(2.0), np.log(12.0))))
    t_w = t_h * float(np.exp(rng.uniform(np.log(2.0), np.log(12.0))))
    w_h = t_c * float(np.exp(rng.uniform(np.log(0.3), np.log(3.0))))
    n = int(rng.integers(3, 11))
    window = qpump.cooling_window_max(w_h, (t_w, t_h, t_c))
    w_c = float(rng.uniform(0.15, 0.85)) * window
    gammas = [float(np.exp(rng.uniform(np.log(1e-4), np.log(1e-2)))) for _ in range(3)]
    return qpump.ideal_pump(n, w_h, w_c, t_w, t_h, t_c, *gammas)


@pytest.fixture(scope="module")
def random_suite():
    """200 random valid configs with their solutions (criteria 2 and 3)."""
    rng = np.random.default_rng(20_240_815)
    t0 = time.time()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", qpump.WeakCouplingWarning)
        configs = [draw_random_pump(rng) for _ in range(200)]
        solutions = [solve(cfg) for cfg in configs]
    return configs, solutions, time.time() - t0


def test_criterion_01_cooling_window_and_carnot():
    window = qpump.cooling_window_max(102.6, REF_TEMPS)
    eps_c = qpump.carnot_cop(REF_TEMPS)
    assert abs(window - 2.7826) <= 1e-3
    assert abs(eps_c - 0.027876) <= 1e-5
    report("criterion 1 (cooling window)",
           f"omega_c_max={window:.6f}, eps_C={eps_c:.8f}")


def test_criterion_02_conservation_suite(random_suite):
    configs, solutions, elapsed = random_suite
    worst_fl, worst_entropy, worst_herm, worst_trace, worst_eig = 0.0, np.inf, 0.0, 0.0, np.inf
    for sol in solutions:
        worst_fl = max(worst_fl, sol.residuals["first_law"])
        worst_entropy = min(worst_entropy, sol.entropy_rate)
        rho = sol.rho_inf
        worst_herm = max(worst_herm, float(np.max(np.abs(rho - rho.conj().T))))
        worst_trace = max(worst_trace, abs(np.trace(rho).real - 1.0))
        worst_eig = min(worst_eig, float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min()))
    assert worst_fl <= 1e-10
    assert worst_entropy >= -1e-12
    assert worst_herm <= 1e-10
    assert worst_trace <= 1e-12
    assert worst_eig >= -1e-10
    assert elapsed <= 30.0
    report("criterion 2 (conservation, 200 random configs)",
           f"worst first-law={worst_fl:.2e}, min entropy rate={worst_entropy:.2e}, "
           f"min eigenvalue={worst_eig:.2e}, runtime={elapsed:.1f}s")


def test_criterion_03_ideality_suite(random_suite):
    configs, solutions, _ = random_suite
    worst_flux, worst_cop = 0.0, 0.0
    for cfg, sol in zip(configs, solutions):
        ratio = cfg.omega_c / cfg.omega_w
        worst_flux = max(worst_flux, abs(abs(sol.q_cold / sol.q_work) / ratio - 1.0))
        worst_cop = max(worst_cop, abs(sol.cop / ratio - 1.0))
    assert worst_flux <= 1e-8
    assert worst_cop <= 1e-8
    report("criterion 3 (ideality, 200 random configs)",
           f"worst |q_c/q_w| deviation={worst_flux:.2e}, worst COP deviation={worst_cop:.2e}")


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(77)
    worst_pop, worst_current = 0.0, 0.0
    for i in range(20):
        n = 3 + (i % 8)
        t_c = float(rng.uniform(1.0, 4.0))
        t_h = t_c * float(rng.uniform(2.5, 6.0))
        t_w = t_h * float(rng.uniform(2.5, 6.0))
        w_h = t_c * float(rng.uniform(0.8, 2.0))
        window = qpump.cooling_window_max(w_h, (t_w, t_h, t_c))
        w_c = float(rng.uniform(0.35, 0.75)) * window
        gammas = [float(rng.uniform(3e-3, 9e-3)) for _ in range(3)]
        cfg = qpump.ideal_pump(n, w_h, w_c, t_w, t_h, t_c, *gammas)

        sol = solve(cfg)
        oracle = pauli_rate_oracle(cfg)
        pops = np.real(np.diag(sol.rho_inf))
        worst_pop = max(worst_pop, float(np.max(np.abs(pops - oracle.populations))))
        q_scale = max(abs(q) for q in sol.currents.values())
        for label in ("work", "hot", "cold"):
            worst_current = max(
                worst_current,
                abs(sol.currents[label] - oracle.currents[label]) / q_scale)

        liouv = build_liouvillian(cfg)
        gap = sorted(-np.real(np.linalg.eigvals(liouv.matrix)))[1]
        dt = 0.1 / float(np.max(np.abs(liouv.matrix)))
        steps = int(min(np.ceil(np.log(1e13) / gap / dt), 1_000_000))
        rho_t = propagate(liouv, np.eye(n, dtype=complex) / n, dt=dt, steps=steps)
        worst_pop = max(worst_pop,
                        float(np.max(np.abs(np.real(np.diag(rho_t)) - oracle.populations))))
        flux_pairs = [(label, qpump.decay_rates(cfg.bath(label), cfg.bath_frequency(label)))
                      for label in ("work", "hot", "cold")]
        p_t = np.real(np.diag(rho_t)) / np.trace(rho_t).real
        for label, pair in flux_pairs:
            flux = sum(pair.up * p_t[lo - 1] - pair.down * p_t[hi - 1]
                       for lo, hi in qpump.pump.transition_pairs(n, label))
            q_prop = cfg.bath_frequency(label) * flux
            worst_current = max(worst_current,
                                abs(q_prop - sol.currents[label]) / q_scale)
    assert worst_pop <= 1e-7
    assert worst_current <= 1e-6
    report("criterion 4 (oracle equivalence, 20 configs)",
           f"worst population gap={worst_pop:.2e}, worst current gap={worst_current:.2e}")


def test_criterion_05_window_edge_reversibility():
    # Criterion config: wide window against T_c so the thermal suppression
    # near the edge is strong (window = 12.4 T_c).
    temps = (400.0, 4.0, 1.0)
    cfg = qpump.ideal_pump(4, 50.0, 1.0, *temps, 1e-3, 1e-3, 1e-3)
    window = qpump.cooling_window_max(50.0, temps)
    eps_c = qpump.carnot_cop(temps)
    mid = solve(dataclasses.replace(cfg, omega_c=0.5 * window))
    edge = solve(dataclasses.replace(cfg, omega_c=0.999 * window))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        past = solve(dataclasses.replace(cfg, omega_c=1.001 * window))

    assert edge.cop / eps_c >= 0.99
    ratios = {label: abs(edge.currents[label]) / abs(mid.currents[label])
              for label in ("work", "hot", "cold")}
    assert all(r < 1e-3 for r in ratios.values())
    assert edge.q_cold > 0 > past.q_cold
    assert edge.mode == "chiller" and past.mode == "heat_transformer"

    # reference parameters flip sign the same way (their shallower window
    # suppresses the currents by ~1e-2 at the same relative offset)
    ref = reference_pump()
    w2 = qpump.cooling_window_max(102.6, REF_TEMPS)
    edge2 = solve(dataclasses.replace(ref, omega_c=0.999 * w2))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        past2 = solve(dataclasses.replace(ref, omega_c=1.001 * w2))
    assert edge2.q_cold > 0 > past2.q_cold
    report("criterion 5 (window-edge reversibility)",
           f"eps/eps_C={edge.cop / eps_c:.5f}, "
           f"current suppression={max(ratios.values()):.1e}, sign flip confirmed")


def test_criterion_06_stage_sweep_structure():
    rows = sweep_stages(reference_pump(), n_values=tuple(range(3, 11)), squeeze_db=7.0)
    q = {(r.n_levels, r.variant): r.optimum.q_c_max for r in rows}
    ratio = {(r.n_levels, r.variant): r.optimum.eps_ratio for r in rows}

    evens = [q[(n, "plain")] for n in (4, 6, 8, 10)]
    odds = [q[(n, "plain")] for n in (3, 5, 7, 9)]
    # (a) every even-N power beats every odd-N power
    assert min(evens) > max(odds)
    # (b) two extra levels never hurt, with shrinking increments
    for variant in ("plain",):
        for n in range(3, 9):
            assert q[(n + 2, variant)] >= q[(n, variant)] * (1 - 1e-9)
        for n in range(3, 7):
            inc_lo = q[(n + 2, variant)] - q[(n, variant)]
            inc_hi = q[(n + 4, variant)] - q[(n + 2, variant)]
            assert inc_hi <= inc_lo * (1 + 1e-6)
    # (c) one extra level on an even pump never helps
    for n in (4, 6, 8):
        assert q[(n + 1, "plain")] <= q[(n, "plain")] * (1 + 1e-9)
    # (d) COP at maximum power is nearly size-independent
    plain_ratios = [ratio[(n, "plain")] for n in range(3, 11)]
    spread = max(plain_ratios) - min(plain_ratios)
    assert spread <= 0.05
    # (e) squeezing helps, saturation helps more
    for n in range(3, 11):
        assert q[(n, "squeezed")] > q[(n, "plain")]
        assert q[(n, "saturated")] > q[(n, "squeezed")]
    report("criterion 6 (stage sweep structure)",
           f"even min={min(evens):.4e} > odd max={max(odds):.4e}, "
           f"eps*/eps_C spread={spread:.4f}")


def test_criterion_07_squeezing_calibration():
    r = qpump.squeeze_db_to_r(7.0)
    assert abs(r - 0.806) <= 1e-3
    bath = qpump.BathSpec("work", 7.1e3, 3.5e-3, squeeze_r=r)
    t_eff = qpump.effective_temperature(bath, 100.0)
    assert abs(t_eff - 1.8e4) <= 0.10 * 1.8e4
    report("criterion 7 (squeezing calibration)",
           f"r(7 dB)={r:.4f}, T_eff={t_eff:.0f}")


def test_criterion_08_bound_histogram():
    threads = os.cpu_count() or 1
    t0 = time.time()
    result = cop_histogram(SampleRanges(), HISTOGRAM_SAMPLES, threads=threads)
    elapsed = time.time() - t0
    over = int((result.eps_ratios >= 0.75).sum())
    top = float(result.eps_ratios.max())
    assert result.eps_ratios.size == HISTOGRAM_SAMPLES
    assert over == 0
    # The 2-minute budget assumes a multicore desk machine; scale it by the
    # cores actually available.
    budget = 120.0 * max(1.0, 8.0 / threads)
    assert elapsed <= budget
    tightness = "tight" if top >= 0.70 else "NOT TIGHT (soft check, reported)"
    report("criterion 8 (3/4-bound ensemble)",
           f"{HISTOGRAM_SAMPLES} samples, none >= 0.75, max ratio={top:.4f} "
           f"[{tightness}], rejected={result.rejected}, "
           f"runtime={elapsed:.0f}s on {threads} core(s)")


def test_criterion_09_ideal_vs_three_qubit():
    # fine enough that the grid argmax resolves eps* beyond its distance
    # to the 3/4 bound (the true ideal optimum sits at 0.7481 eps_C)
    n_points = 400
    ideal = characteristic_curve("ideal", COMPARE_SETUP, n_points=n_points)
    three = characteristic_curve("three_qubit", COMPARE_SETUP, n_points=n_points)
    best_ideal = max(ideal, key=lambda p: p.q_c)
    best_three = max(three, key=lambda p: p.q_c)
    power_ratio = best_ideal.q_c / best_three.q_c
    assert power_ratio >= 1e3
    # closed characteristic: power returns to (near) zero and the normalized
    # efficiency never reaches the Carnot point
    top = max(p.eps_over_carnot for p in three)
    assert top < 1.0
    assert three[-1].q_c <= 0.05 * best_three.q_c
    # COP at maximum power sits below the 3/4 bound for both machines
    assert best_ideal.eps_over_carnot < 0.75
    assert best_three.eps_over_carnot < 0.75
    gap = abs(best_ideal.eps_over_carnot - best_three.eps_over_carnot)
    closeness = "within 0.15" if gap <= 0.15 else f"gap {gap:.3f} (soft check, reported)"
    report("criterion 9 (ideal vs three-qubit)",
           f"power ratio={power_ratio:.0f}, three-qubit max eps/eps_C={top:.4f}, "
           f"eps* ratios ideal={best_ideal.eps_over_carnot:.3f} "
           f"three-qubit={best_three.eps_over_carnot:.3f} [{closeness}]")


def test_criterion_10_determinism(tmp_path):
    ref_file = tmp_path / "reference.params"
    ref_file.write_text(
        "n_levels = 3\nomega_h = 102.6\nomega_c = 1.4\n"
        "T_w = 7.1e3\nT_h = 1.57e3\nT_c = 54.25\n"
        "gamma_w = 3.5e-3\ngamma_h = 5.1e-3\ngamma_c = 8.8e-3\n")
    outputs = []
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / f"hist_{tag}.csv"
        assert cli_run(["histogram", "--samples", "64", "--seed", "4242",
                        "--threads", threads, "--output", str(out)]) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]

    sweeps = []
    for tag in ("a", "b"):
        out = tmp_path / f"sweep_{tag}.csv"
        assert cli_run(["sweep-n", "--params", str(ref_file),
                        "--output", str(out)]) == 0
        sweeps.append(out.read_bytes())
    assert sweeps[0] == sweeps[1]
    report("criterion 10 (determinism)",
           "histogram byte-identical across reruns and thread counts 1 vs 8; "
           "sweep-n byte-identical across reruns")
