"""Per-layer metrics of the benchmark's traced run.

The traced run wraps the attributes through which the qpump layers call one
another (see ``install_probes``), runs the workload serially, and turns the
spans into the metrics of ``PER_LAYER``.  A metric of a layer that the
workload does not exercise reads 0.

Kernel operation counts are computed, not measured: each traced kernel call
is charged the LAPACK operation count of the dense complex LU factorization
and triangular solves it performs at its matrix size (formulas of LAPACK
Working Note 41).  They repeat exactly for a given workload and seed.
"""

from __future__ import annotations

import statistics
import time
import warnings

import numpy as np

from tracer import Tracer, self_times

PER_LAYER = {
    "experiments.q_cold_us_p50": "us",
    "experiments.evals_per_sample": "count",
    "experiments.q_cold_share": "share",
    "experiments.maximize_ms_p50": "ms",
    "experiments.maximize_self_ms_p50": "ms",
    "experiments.sample_ms_p50": "ms",
    "experiments.sample_ms_p99": "ms",
    "experiments.reject_share": "share",
    "experiments.pool_efficiency": "share",
    "experiments.q_cold_us_n3": "us",
    "experiments.q_cold_us_n6": "us",
    "experiments.q_cold_us_n10": "us",
    "experiments.maximize_ms_n3": "ms",
    "experiments.maximize_ms_n6": "ms",
    "experiments.maximize_ms_n10": "ms",
    "steady.solve_ms_p50": "ms",
    "steady.build_liouvillian_us_p50": "us",
    "linalg.stationary_vector_us_p50": "us",
    "steady.generator_ld_us_p50": "us",
    "steady.polish_us_p50": "us",
    "steady.assemble_us_p50": "us",
    "steady.build_liouvillian_share": "share",
    "linalg.stationary_vector_share": "share",
    "steady.polish_share": "share",
    "steady.assemble_share": "share",
    "steady.solve_self_share": "share",
    "steady.solve_ms_n3": "ms",
    "steady.solve_ms_n6": "ms",
    "steady.solve_ms_n10": "ms",
    "three_qubit.solve_ms_p50": "ms",
    "three_qubit.build_liouvillian_us_p50": "us",
    "three_qubit.stationary_vector_us_p50": "us",
    "three_qubit.generator_ld_us_p50": "us",
    "three_qubit.polish_us_p50": "us",
    "three_qubit.assemble_us_p50": "us",
    "three_qubit.build_liouvillian_share": "share",
    "three_qubit.stationary_vector_share": "share",
    "three_qubit.polish_share": "share",
    "three_qubit.assemble_share": "share",
    "three_qubit.solve_self_share": "share",
    "linalg.lu_factorizations_per_item": "count",
    "linalg.lu_flops_per_item": "flop",
    "linalg.lu_solve_flops_per_item": "flop",
    "linalg.svd_fallbacks": "count",
    "pump.decay_rates_calls_per_item": "count",
    "cli.overhead_ms": "ms",
    "trace.items_per_s": "1/s",
}

# The parts of one steady-state solve, per model: generator assembly, kernel
# solve, extended-precision generator, polish, current assembly and gates.
SOLVE_PARTS = {
    "steady": ("steady.build_liouvillian", "linalg.stationary_vector",
               "steady.generator_ld", "steady.polish", "steady.assemble"),
    "three_qubit": ("three_qubit.build_liouvillian", "three_qubit.stationary_vector",
                    "three_qubit.generator_ld", "three_qubit.polish",
                    "three_qubit.assemble"),
}
# Dense LU factorizations and single right-hand-side solves per traced call.
KERNEL_CALLS = {
    "experiments.q_cold": (1, 1),           # gesv
    "linalg.stationary_vector": (1, 2),     # factor, solve, one refinement
    "three_qubit.stationary_vector": (1, 2),
    "steady.polish": (1, 3),                # factor, three refinements
    "three_qubit.polish": (1, 3),
}
REFERENCE_N = (3, 6, 10)


def install_probes(tracer: Tracer, qpump) -> None:
    """Wrap each layer boundary of the imported ``qpump`` package.

    A boundary the program no longer has is skipped and listed in
    ``tracer.missing``; the metrics built on it read 0.
    """
    cli, ex, steady, tq, linalg = (qpump.cli, qpump.experiments, qpump.steady,
                                   qpump.three_qubit, qpump.linalg)

    def dim2(args):
        return args[0].dim ** 2

    tracer.patch(cli, "cop_histogram", "experiments.cop_histogram")
    tracer.patch(cli, "characteristic_curve", "experiments.characteristic_curve")
    tracer.patch(ex, "_sample_point", "experiments.sample", item=True)
    tracer.patch(ex, "maximize_cooling_power", "experiments.maximize")
    tracer.patch(getattr(ex, "_CoolingPowerEvaluator", None), "q_cold",
                 "experiments.q_cold", size=lambda args: args[0].n ** 2)
    tracer.patch(ex, "solve", "steady.solve", item=True)
    tracer.patch(ex, "solve_three_qubit", "three_qubit.solve", item=True)
    tracer.patch(steady, "build_liouvillian", "steady.build_liouvillian")
    tracer.patch(steady, "stationary_vector", "linalg.stationary_vector", size=dim2)
    tracer.patch(getattr(steady, "_Generator", None), "for_pump", "steady.generator_ld")
    tracer.patch(steady, "_polish_state", "steady.polish",
                 size=lambda args: args[1].size)
    tracer.patch(steady, "_solution_from_state", "steady.assemble")
    tracer.patch(tq, "build_three_qubit_liouvillian", "three_qubit.build_liouvillian")
    tracer.patch(tq, "stationary_vector", "three_qubit.stationary_vector", size=dim2)
    tracer.patch(tq, "_generator_ld", "three_qubit.generator_ld")
    tracer.patch(tq, "_polish_state", "three_qubit.polish",
                 size=lambda args: args[1].size)
    tracer.patch(tq, "_solution_from_state", "three_qubit.assemble")
    for module in (ex, steady, tq):
        tracer.patch_count(module, "decay_rates", "pump.decay_rates")
    tracer.patch_count(linalg, "_kernel_diagnostics", "linalg.svd_fallback")


def lu_flops(m: int) -> int:
    """Real flops of a complex m x m LU factorization (zgetrf)."""
    muls = m * (m * m + 2) // 3
    adds = m * (m - 1) * (2 * m - 1) // 6
    return 6 * muls + 2 * adds


def lu_solve_flops(m: int) -> int:
    """Real flops of one complex m x m LU solve (zgetrs, one right-hand side)."""
    return 6 * m * m + 2 * m * (m - 1)


def _p(values: list[float], q: float, scale: float) -> float:
    return float(np.percentile(values, q)) * scale if values else 0.0


def layer_metrics(tracer: Tracer, seconds: float, rejected: int,
                  attempts: int) -> dict[str, float]:
    """Per-layer metrics from the spans of a finished traced run.

    ``seconds`` is the traced calls' duration at the reference speed of
    ``run.Calibration``, so that ``trace.items_per_s`` compares with the
    untraced ``items_per_s``.
    ``rejected`` and ``attempts`` are the ensemble's redrawn and total
    fridge draws as the program reports them (0 for curves).
    """
    spans = tracer.spans
    own = self_times(spans)
    dur: dict[str, list[float]] = {}
    self_dur: dict[str, list[float]] = {}
    for span, t in zip(spans, own):
        dur.setdefault(span.name, []).append(span.duration)
        self_dur.setdefault(span.name, []).append(t)
    items = max(tracer.items, 1)
    m = {name: 0.0 for name in PER_LAYER}

    samples = dur.get("experiments.sample", [])
    q_cold = dur.get("experiments.q_cold", [])
    m["experiments.q_cold_us_p50"] = _p(q_cold, 50, 1e6)
    m["experiments.maximize_ms_p50"] = _p(dur.get("experiments.maximize", []), 50, 1e3)
    m["experiments.maximize_self_ms_p50"] = _p(self_dur.get("experiments.maximize", []),
                                               50, 1e3)
    m["experiments.sample_ms_p50"] = _p(samples, 50, 1e3)
    m["experiments.sample_ms_p99"] = _p(samples, 99, 1e3)
    if samples:
        m["experiments.evals_per_sample"] = len(q_cold) / len(samples)
        m["experiments.q_cold_share"] = sum(q_cold) / sum(samples)
    if attempts:
        m["experiments.reject_share"] = rejected / attempts

    for model, parts in SOLVE_PARTS.items():
        solves = dur.get(f"{model}.solve", [])
        if not solves:
            continue
        total = sum(solves)
        m[f"{model}.solve_ms_p50"] = _p(solves, 50, 1e3)
        m[f"{model}.solve_self_share"] = sum(self_dur[f"{model}.solve"]) / total
        for part in parts:
            m[f"{part}_us_p50"] = _p(dur.get(part, []), 50, 1e6)
            if f"{part}_share" in m:
                m[f"{part}_share"] = sum(dur.get(part, [])) / total

    factorizations = factor_flops = solve_flops = 0
    for span in spans:
        if span.name in KERNEL_CALLS:
            n_lu, n_solve = KERNEL_CALLS[span.name]
            factorizations += n_lu
            factor_flops += n_lu * lu_flops(span.size)
            solve_flops += n_solve * lu_solve_flops(span.size)
    m["linalg.lu_factorizations_per_item"] = factorizations / items
    m["linalg.lu_flops_per_item"] = factor_flops / items
    m["linalg.lu_solve_flops_per_item"] = solve_flops / items
    m["linalg.svd_fallbacks"] = float(tracer.counts["linalg.svd_fallback"])
    m["pump.decay_rates_calls_per_item"] = tracer.counts["pump.decay_rates"] / items
    m["cli.overhead_ms"] = _p(self_dur.get("cli.run", []), 50, 1e3)
    m["trace.items_per_s"] = tracer.items / seconds
    return m


def _median_seconds(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def reference_timings(params: dict, names: tuple[str, ...]) -> dict[str, float]:
    """Time single layer calls directly on the reference chiller at
    N in REFERENCE_N; ``names`` picks among solve, q_cold and maximize.
    The q_cold timings are left out when the program has no
    ``_CoolingPowerEvaluator``."""
    from qpump import experiments
    from qpump.experiments import maximize_cooling_power
    from qpump.pump import WeakCouplingWarning, ideal_pump
    from qpump.steady import solve

    evaluator = getattr(experiments, "_CoolingPowerEvaluator", None)
    out = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WeakCouplingWarning)
        for n in REFERENCE_N:
            cfg = ideal_pump(n, params["omega_h"], params["omega_c"],
                             params["T_w"], params["T_h"], params["T_c"],
                             params["gamma_w"], params["gamma_h"], params["gamma_c"])
            if "solve" in names:
                out[f"steady.solve_ms_n{n}"] = 1e3 * _median_seconds(lambda: solve(cfg), 9)
            if "q_cold" in names and evaluator is not None:
                ev = evaluator(cfg)
                out[f"experiments.q_cold_us_n{n}"] = 1e6 * _median_seconds(
                    lambda: ev.q_cold(cfg.omega_c), 201)
            if "maximize" in names:
                out[f"experiments.maximize_ms_n{n}"] = 1e3 * _median_seconds(
                    lambda: maximize_cooling_power(cfg), 9)
    return out
