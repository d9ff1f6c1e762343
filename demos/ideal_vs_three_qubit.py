#!/usr/bin/env python3
"""Ideal eight-level chiller versus the three-qubit fridge.

Both machines run between the same three reservoirs with the same coupling
strength and a fixed work frequency; the cold frequency sweeps the cooling
window.  Both have the COP ``omega_c / omega_w`` at every point, so both
reach the Carnot point only at the window's edge, with vanishing power.
They differ in their power: the ideal ladder moves heat through directly
dissipative transitions, while the three-qubit machine must funnel
everything through one weak three-body exchange, so its power is three
orders of magnitude lower and falls off faster toward the edge.
"""

from qpump.experiments import CurveSetup, characteristic_curve

setup = CurveSetup(
    omega_w=60.0, t_work=130.0, t_hot=60.0, t_cold=5.0,
    gamma_work=1e-3, gamma_hot=1e-3, gamma_cold=1e-3,
    g=0.1, n_levels=8,
)

print("sweeping the cooling window for both machines ...")
ideal = characteristic_curve("ideal", setup, n_points=300)
three = characteristic_curve("three_qubit", setup, n_points=300)

best_ideal = max(ideal, key=lambda p: p.q_c)
best_three = max(three, key=lambda p: p.q_c)

print()
print(f"{'':16} {'omega_c*':>9} {'q_c max':>13} {'eps*':>9} {'eps*/eps_C':>11}")
print(f"{'ideal (N=8)':16} {best_ideal.omega_c:9.4f} {best_ideal.q_c:13.5e} "
      f"{best_ideal.eps:9.5f} {best_ideal.eps_over_carnot:11.4f}")
print(f"{'three-qubit':16} {best_three.omega_c:9.4f} {best_three.q_c:13.5e} "
      f"{best_three.eps:9.5f} {best_three.eps_over_carnot:11.4f}")
print()
print(f"maximum-power ratio (ideal / three-qubit): {best_ideal.q_c / best_three.q_c:.0f}")

print()
print("performance characteristic, power normalized per machine:")
print(f"{'eps/eps_C':>10} {'ideal':>8} {'three-qubit':>12}")


def bar(q, q_max, width=24):
    return "#" * int(round(width * max(q, 0.0) / q_max))


bins = [i / 10 for i in range(11)]
for lo, hi in zip(bins[:-1], bins[1:]):
    pick_i = [p for p in ideal if lo <= p.eps_over_carnot < hi]
    pick_t = [p for p in three if lo <= p.eps_over_carnot < hi]
    qi = max((p.q_c for p in pick_i), default=0.0)
    qt = max((p.q_c for p in pick_t), default=0.0)
    print(f"{lo:5.2f}-{hi:4.2f} |{bar(qi, best_ideal.q_c):<24}|{bar(qt, best_three.q_c):<24}|")

print()
print(f"toward the edge: at the last sweep point, eps/eps_C = {three[-1].eps_over_carnot:.4f}, "
      f"the three-qubit power is {100 * three[-1].q_c / best_three.q_c:.1f}% of its peak "
      f"and the ideal one {100 * ideal[-1].q_c / best_ideal.q_c:.1f}%")
