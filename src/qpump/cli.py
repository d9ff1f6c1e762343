"""Command-line front end: parse a parameter file, dispatch an experiment,
emit machine-readable results.

Subcommands
-----------
currents    one pump instance -> stationary currents and diagnostics
optimize    maximize cooling power over the cold frequency
sweep-n     maximum power and COP at maximum power versus level count
histogram   COP-at-maximum-power ensemble over random fridges
curve       cooling power versus normalized efficiency (fixed work frequency)
compare     ideal-vs-three-qubit summary including the power ratio
selftest    run the built-in invariant suite

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 selftest failure.  Messages go to stderr; data goes to the output file or
stdout.  All numeric output is full-precision scientific notation so that
reruns can be diffed byte for byte; outputs never embed timestamps or worker
counts, so the same inputs give identical bytes at any thread count.

Parameter files are flat ``key = value`` lines with ``#`` comments.  Keys:
n_levels, omega_h, omega_c, T_w, T_h, T_c, gamma_w, gamma_h, gamma_c,
squeeze_db, saturated_work, g (three-qubit coupling).  Unknown keys are
errors; ``--set key=value`` overrides file values.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
import warnings

import numpy as np

from . import experiments, pump, steady
from .experiments import (
    CurveSetup,
    DEFAULT_SEED,
    SampleRanges,
    _curve_columns,
    cop_histogram,
    maximize_cooling_power,
    sweep_stages,
)
# Kept importable for the layer probes of perfbench/layers.py::install_probes;
# curve and compare build their rows from _curve_columns.
from .experiments import characteristic_curve  # noqa: F401
from .linalg import DegenerateKernelError, NoKernelError, propagate
from .pump import (
    BathSpec,
    PumpConfig,
    carnot_cop,
    cooling_window_max,
    effective_temperature,
    ideal_pump,
    squeeze_db_to_r,
)
from .steady import NonConvergedError, pauli_rate_oracle, solve
from .three_qubit import ThreeQubitConfig, solve_three_qubit

__all__ = ["main", "run", "parse_params", "CliConfigError"]

SCHEMA_VERSION = 1

_FLOAT_KEYS = ("omega_h", "omega_c", "T_w", "T_h", "T_c",
               "gamma_w", "gamma_h", "gamma_c", "squeeze_db", "g")
_INT_KEYS = ("n_levels",)
_BOOL_KEYS = ("saturated_work",)
_ALL_KEYS = _INT_KEYS + _FLOAT_KEYS + _BOOL_KEYS

_PUMP_KEYS = ("n_levels", "omega_h", "omega_c", "T_w", "T_h", "T_c",
              "gamma_w", "gamma_h", "gamma_c")
_CURVE_KEYS = ("omega_h", "omega_c", "T_w", "T_h", "T_c",
               "gamma_w", "gamma_h", "gamma_c", "g")


class CliConfigError(ValueError):
    """Bad command line, parameter file or parameter values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise CliConfigError(message)


def _fmt(x) -> str:
    if type(x) is float:  # most cells; the checks below would pass it through
        return f"{x:.16e}"
    if isinstance(x, str):
        return x
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.16e}"


def _coerce(key: str, raw: str, where: str):
    if key not in _ALL_KEYS:
        raise CliConfigError(f"{where}: unknown parameter key {key!r}")
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _BOOL_KEYS:
            low = raw.strip().lower()
            if low in ("true", "1", "yes", "on"):
                return True
            if low in ("false", "0", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        return float(raw)
    except ValueError as exc:
        raise CliConfigError(f"{where}: bad value for {key}: {exc}") from exc


def parse_params(path: str) -> dict:
    """Parse a flat ``key = value`` parameter file (UTF-8, # comments), in
    which each key appears once."""
    params, seen = {}, {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliConfigError(f"cannot read parameter file {path}: {exc}") from exc
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise CliConfigError(f"{path}:{lineno}: expected 'key = value', got {line.rstrip()!r}")
        key, raw = map(str.strip, body.split("=", 1))
        if key in seen:
            raise CliConfigError(f"{path}:{lineno}: parameter key {key!r} set again "
                                 f"(first on line {seen[key]})")
        params[key], seen[key] = _coerce(key, raw, f"{path}:{lineno}"), lineno
    return params


def _apply_overrides(params: dict, sets: list[str]) -> dict:
    out = dict(params)
    for item in sets or []:
        if "=" not in item:
            raise CliConfigError(f"--set expects key=value, got {item!r}")
        key, raw = (part.strip() for part in item.split("=", 1))
        out[key] = _coerce(key, raw, "--set")
    return out


def _require(params: dict, keys, what: str) -> None:
    missing = [k for k in keys if k not in params]
    if missing:
        raise CliConfigError(f"{what} requires parameter(s): {', '.join(missing)}")


def _check_rates(cfg) -> None:
    """Refuse a bath whose rates overflow at the machine's own frequency."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # T = inf divides by 0
        for label in ("work", "hot", "cold"):
            try:
                rates = pump._rates(cfg.bath(label), cfg.bath_frequency(label))
            except OverflowError:  # Python's float power, at a scalar frequency
                rates = (math.inf,)
            if not all(map(math.isfinite, rates)):
                raise ValueError(f"{label} bath: rates overflow at "
                                 f"gamma={cfg.bath(label).gamma!r}")


def _pump_from_params(params: dict) -> PumpConfig:
    _require(params, _PUMP_KEYS, "this subcommand")
    try:
        # an overflowing rate is refused before its strength warns
        with warnings.catch_warnings(record=True) as strained:
            warnings.simplefilter("always", pump.WeakCouplingWarning)
            cfg = ideal_pump(*(params[k] for k in _PUMP_KEYS),  # in its argument order
                             squeeze_db=params.get("squeeze_db", 0.0),
                             saturated_work=bool(params.get("saturated_work", False)))
        _check_rates(cfg)
    except ValueError as exc:
        raise CliConfigError(str(exc)) from exc
    for w in strained:  # one line each, with no path or line of the source
        print(f"qpump: warning: {w.message}", file=sys.stderr)
    return cfg


def _curve_setup(params: dict, points: int) -> CurveSetup:
    _require(params, _CURVE_KEYS, "this subcommand")
    if points < 1:
        raise CliConfigError(f"--points must be >= 1, got {points}")
    omega_w = params["omega_h"] - params["omega_c"]
    if omega_w <= 0:
        raise CliConfigError("need omega_c < omega_h")
    try:
        setup = CurveSetup(
            omega_w=omega_w, t_work=params["T_w"], t_hot=params["T_h"], t_cold=params["T_c"],
            gamma_work=params["gamma_w"], gamma_hot=params["gamma_h"],
            gamma_cold=params["gamma_c"], g=params["g"], n_levels=params.get("n_levels", 8))
        # both machines, so that a bad value fails here and not inside the sweep,
        # which silences the same warnings; both see the same bath frequencies
        window = pump.cooling_window_max_fixed_work(omega_w, setup.temps)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _check_rates(experiments._curve_config("ideal", setup, 0.5 * window))
            experiments._curve_config("three_qubit", setup, 0.5 * window)
    except ValueError as exc:
        raise CliConfigError(str(exc)) from exc
    # the file's own ideal pump warns as in currents, if it builds (the gate spares the build)
    if pump._strained([params[k] for k in ("gamma_w", "gamma_h", "gamma_c")],
                      params["omega_c"], omega_w, params["T_c"]):
        with contextlib.suppress(CliConfigError):
            _pump_from_params({**params, "n_levels": setup.n_levels})
    return setup


# ---------------------------------------------------------------------------
# emission


def _params_echo(params: dict) -> str:
    return " ".join(f"{k}={_fmt(params[k])}" for k in _ALL_KEYS if k in params)


def _emit(text: str, output: str) -> None:
    if output in ("-", ""):
        sys.stdout.write(text)
    else:
        try:
            with open(output, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise CliConfigError(f"cannot write output file {output}: {exc.strerror or exc}") from exc


def _csv(schema: str, seed: int, params_echo: str, extra_meta: dict,
         columns: list[str], rows: list[list]) -> str:
    lines = [
        f"# qpump-schema: {schema}/{SCHEMA_VERSION}",
        f"# seed: {seed}",
        f"# params: {params_echo}",
    ]
    lines += [f"# {k}: {_fmt(v)}" for k, v in extra_meta.items()]
    lines.append(",".join(columns))
    # one % format a row: "%.16e" (_fmt's text) for a column of floats, "%s" of strings
    cells = [col if set(map(type, col)) in ({float}, {str}) else [*map(_fmt, col)]
             for col in zip(*rows)]
    row_format = ",".join(["%.16e" if type(col[0]) is float else "%s" for col in cells])
    lines += [row_format % row for row in zip(*cells)]
    return "\n".join(lines) + "\n"


def _json_render(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{pad}  "{k}": {_json_render(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad}  {_json_render(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, str):
        return f'"{obj}"'
    if obj is None:
        return "null"
    return _fmt(obj)  # a bool as true or false, as in CSV


def _json(schema: str, seed: int, params: dict, extra_meta: dict,
          columns: list[str], rows: list[list]) -> str:
    doc = {
        "schema": f"{schema}/{SCHEMA_VERSION}",
        "seed": seed,
        "params": {k: params[k] for k in _ALL_KEYS if k in params},
        **extra_meta,
        "columns": columns,
        "rows": [list(r) for r in rows],
    }
    return _json_render(doc) + "\n"


def _write(args, schema: str, params: dict, extra_meta: dict,
           columns: list[str], rows: list[list]) -> None:
    # extra_meta is one "# key: value" line each in CSV, one field each in JSON
    if args.format == "csv":
        text = _csv(schema, args.seed, _params_echo(params), extra_meta, columns, rows)
    else:
        text = _json(schema, args.seed, params, extra_meta, columns, rows)
    _emit(text, args.output)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_currents(args, params: dict) -> None:
    cfg = _pump_from_params(params)
    sol = solve(cfg)
    eps_c = pump.carnot_cop_for(cfg)
    columns = ["n_levels", "omega_c", "q_work", "q_hot", "q_cold", "cop",
               "eps_over_carnot", "entropy_rate", "mode",
               "first_law_residual", "ideality_residual", "kernel_residual"]
    rows = [[cfg.n_levels, cfg.omega_c, sol.q_work, sol.q_hot, sol.q_cold,
             sol.cop, sol.cop / eps_c, sol.entropy_rate, sol.mode,
             sol.residuals["first_law"], sol.residuals["ideality_cold_work"],
             sol.residuals["kernel_residual"]]]
    _write(args, "currents", params, {}, columns, rows)


def _cmd_optimize(args, params: dict) -> None:
    cfg = _pump_from_params(params)
    opt = maximize_cooling_power(cfg)
    columns = ["omega_c_star", "q_c_max", "eps_star", "eps_ratio", "evaluations"]
    rows = [[opt.omega_c_star, opt.q_c_max, opt.eps_star, opt.eps_ratio, opt.evaluations]]
    _write(args, "optimize", params, {}, columns, rows)


def _cmd_sweep_n(args, params: dict) -> None:
    if not 3 <= args.n_min <= args.n_max:
        raise CliConfigError(f"need 3 <= --n-min <= --n-max, got {args.n_min}, {args.n_max}")
    cfg = _pump_from_params({"n_levels": args.n_min, **params})
    try:  # the sweep's work-bath variants, so that a bad one is refused here
        for variant in experiments._VARIANTS:
            experiments._variant_config(cfg, cfg.n_levels, variant, args.squeeze_db)
    except ValueError as exc:
        raise CliConfigError(str(exc)) from exc
    n_values = tuple(range(args.n_min, args.n_max + 1))
    results = sweep_stages(cfg, n_values=n_values, squeeze_db=args.squeeze_db)
    columns = ["N", "variant", "omega_c_star", "q_c_max", "eps_star", "eps_ratio"]
    rows = [[r.n_levels, r.variant, r.optimum.omega_c_star, r.optimum.q_c_max,
             r.optimum.eps_star, r.optimum.eps_ratio] for r in results]
    _write(args, "sweep-n", params, {"squeeze_db": args.squeeze_db}, columns, rows)


def _cmd_histogram(args, params: dict) -> None:
    if args.samples < 0:
        raise CliConfigError(f"--samples must be >= 0, got {args.samples}")
    try:
        ranges = SampleRanges(seed=args.seed)
    except ValueError as exc:
        raise CliConfigError(str(exc)) from exc
    result = cop_histogram(ranges, args.samples, threads=args.threads)
    columns = ["sample", "eps_ratio", "N"]
    eps = result.eps_ratios.tolist()
    rows = [[i, r, n] for i, (r, n) in enumerate(zip(eps, result.n_levels.tolist()))]
    ranges_echo = " ".join(f"{name}={getattr(ranges, name)}" for name in
                           ("t_cold", "hot_over_cold", "work_over_hot",
                            "omega_h_over_t_cold", "gamma_frac", "n_levels"))
    meta: dict = {"samples": result.n_samples, "rejected": result.rejected,
                  "ranges": ranges_echo}
    if eps:
        meta["max_eps_ratio"] = max(eps)
        # numpy's pairwise sum: not the bits of a plain sum of the list
        meta["mean_eps_ratio"] = float(result.eps_ratios.mean())
    _write(args, "histogram", params, meta, columns, rows)


def _cmd_curve(args, params: dict) -> None:
    setup = _curve_setup(params, args.points)
    systems = ["ideal", "three_qubit"] if args.system == "both" else [args.system]
    columns = ["omega_c", "q_c", "eps", "eps_over_carnot", "system"]
    rows = [[*point, system] for system in systems
            for point in zip(*(col.tolist() for col in _curve_columns(system, setup, args.points)))]
    _write(args, "curve", params, {"points": args.points}, columns, rows)


def _cmd_compare(args, params: dict) -> None:
    setup = _curve_setup(params, args.points)
    columns = ["system", "omega_c_star", "q_c_max", "eps_star", "eps_ratio"]
    rows = []
    for system in ("ideal", "three_qubit"):
        curve = _curve_columns(system, setup, args.points)
        top = int(np.argmax(curve[1]))  # the first point of largest q_c
        if not curve[1][top] > 0.0:  # and the power ratio has no meaning
            raise experiments.NoCoolingPowerError(
                f"{system} curve has no cooling power: q_c_max = {float(curve[1][top])!r}")
        rows.append([system, *(float(col[top]) for col in curve)])
    ratio = rows[0][2] / rows[1][2]  # q_c_max, ideal over three-qubit
    _write(args, "compare", params, {"points": args.points, "power_ratio": ratio},
           columns, rows)


# ---------------------------------------------------------------------------
# selftest


def _selftest_checks():
    ref = ideal_pump(3, 102.6, 1.4, 7.1e3, 1.57e3, 54.25, 3.5e-3, 5.1e-3, 8.8e-3)
    temps = (7.1e3, 1.57e3, 54.25)

    def reference_numbers():
        w = cooling_window_max(102.6, temps)
        e = carnot_cop(temps)
        ok = abs(w - 2.7826) < 1e-3 and abs(e - 0.027876) < 1e-5
        return ok, f"window={w:.6f} carnot={e:.8f}"

    def squeeze_calibration():
        r = squeeze_db_to_r(7.0)
        t_eff = effective_temperature(BathSpec("work", 7.1e3, 1e-3, squeeze_r=r), 100.0)
        ok = abs(r - 0.806) < 1e-3 and abs(t_eff - 1.8e4) < 0.1 * 1.8e4
        return ok, f"r={r:.4f} T_eff={t_eff:.1f}"

    def conservation_suite():
        rng = np.random.default_rng(2024)
        worst_fl, worst_ent = 0.0, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(12):
                t_c = rng.uniform(1.0, 10.0)
                t_h = t_c * rng.uniform(2.0, 8.0)
                t_w = t_h * rng.uniform(2.0, 8.0)
                w_h = t_c * rng.uniform(0.5, 3.0)
                n = int(rng.integers(3, 11))
                window = cooling_window_max(w_h, (t_w, t_h, t_c))
                cfg = ideal_pump(n, w_h, rng.uniform(0.2, 0.8) * window, t_w, t_h, t_c,
                                 *(10 ** rng.uniform(-4, -2) for _ in range(3)))
                sol = solve(cfg)
                worst_fl = max(worst_fl, sol.residuals["first_law"])
                worst_ent = min(worst_ent, sol.entropy_rate)
        ok = worst_fl <= 1e-10 and worst_ent >= -1e-12
        return ok, f"worst first-law={worst_fl:.2e} worst entropy={worst_ent:.2e}"

    def oracle_agreement():
        rng = np.random.default_rng(7)
        worst = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for _ in range(4):
                t_c = rng.uniform(1.0, 5.0)
                t_h = t_c * rng.uniform(2.0, 6.0)
                t_w = t_h * rng.uniform(2.0, 6.0)
                w_h = t_c * rng.uniform(0.5, 2.0)
                n = int(rng.integers(3, 11))
                window = cooling_window_max(w_h, (t_w, t_h, t_c))
                cfg = ideal_pump(n, w_h, 0.5 * window, t_w, t_h, t_c, 1e-3, 2e-3, 3e-3)
                sol = solve(cfg)
                oracle = pauli_rate_oracle(cfg)
                scale = max(abs(q) for q in sol.currents.values())
                for label in ("work", "hot", "cold"):
                    worst = max(worst,
                                abs(sol.currents[label] - oracle.currents[label]) / scale)
        return worst < 1e-9, f"worst current mismatch={worst:.2e}"

    def propagation_agreement():
        cfg = ideal_pump(4, 2.0, 0.3, 40.0, 8.0, 2.0, 5e-3, 5e-3, 5e-3)
        liouv = steady.build_liouvillian(cfg)
        sol = solve(cfg)
        rho0 = np.eye(4, dtype=complex) / 4.0
        rho_t = propagate(liouv, rho0, steps=60000)
        diff = np.max(np.abs(rho_t - sol.rho_inf))
        return diff < 1e-7, f"max-entry distance={diff:.2e}"

    def window_edge():
        window = cooling_window_max(102.6, temps)
        inside = solve(dataclasses.replace(ref, omega_c=0.98 * window))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            outside = solve(dataclasses.replace(ref, omega_c=1.02 * window))
        ok = inside.q_cold > 0 and outside.q_cold < 0 and outside.mode == "heat_transformer"
        return ok, f"q_c in={inside.q_cold:.3e} out={outside.q_cold:.3e}"

    def three_qubit_sanity():
        cfg = ThreeQubitConfig(
            omega_c=1.5, omega_w=60.0, g=0.1,
            work=BathSpec("work", 130.0, 1e-3),
            hot=BathSpec("hot", 60.0, 1e-3),
            cold=BathSpec("cold", 5.0, 1e-3),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sol = solve_three_qubit(cfg)
        eps_c = carnot_cop((130.0, 60.0, 5.0))
        ok = (sol.residuals["first_law"] <= 1e-10 and sol.entropy_rate >= -1e-12
              and 0 < sol.cop < eps_c and sol.q_cold > 0)
        return ok, f"first-law={sol.residuals['first_law']:.2e} cop/eps_C={sol.cop/eps_c:.3f}"

    def histogram_determinism():
        ranges = SampleRanges(seed=DEFAULT_SEED)
        a = cop_histogram(ranges, 24, threads=1)
        b = cop_histogram(ranges, 24, threads=2)
        ok = (np.array_equal(a.eps_ratios, b.eps_ratios)
              and np.array_equal(a.n_levels, b.n_levels)
              and float(a.eps_ratios.max()) < 0.75)
        return ok, f"n={a.eps_ratios.size} max={a.eps_ratios.max():.4f}"

    return [
        ("reference-numbers", reference_numbers),
        ("squeeze-calibration", squeeze_calibration),
        ("conservation-suite", conservation_suite),
        ("oracle-agreement", oracle_agreement),
        ("propagation-agreement", propagation_agreement),
        ("window-edge", window_edge),
        ("three-qubit-sanity", three_qubit_sanity),
        ("histogram-determinism", histogram_determinism),
    ]


def _cmd_selftest(args, params: dict) -> int:
    failures = 0
    for name, check in _selftest_checks():
        try:
            ok, detail = check()
        except Exception as exc:  # a crash is a failure, keep testing the rest
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok" if ok else "FAIL"
        print(f"selftest {name}: {status} ({detail})", file=sys.stderr)
        failures += 0 if ok else 1
    print(f"selftest: {failures} failure(s)", file=sys.stderr)
    return 0 if failures == 0 else 3


# ---------------------------------------------------------------------------
# entry points


@functools.cache
def _build_parser() -> _Parser:
    """Built on the first :func:`run` and then reused: ``parse_args`` returns a
    new namespace each time, and ``--set`` appends to a copy of its default.
    ``subcommands`` maps each subcommand to its own parser."""
    parser = _Parser(prog="qpump", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices

    def common(p):
        p.add_argument("--params", default=None,
                       help="parameter file (key = value lines)")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override a parameter (repeatable)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                       help=f"random seed (default {DEFAULT_SEED})")
        p.add_argument("--threads", default="auto",
                       help="worker processes for parallel experiments, or 'auto'")
        p.add_argument("--output", default="-", help="output path ('-' = stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")

    common(sub.add_parser("currents", help="stationary currents of one pump"))
    common(sub.add_parser("optimize", help="maximize cooling power over omega_c"))

    p = sub.add_parser("sweep-n", help="stage sweep across level counts")
    common(p)
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--squeeze-db", type=float, default=7.0)

    p = sub.add_parser("histogram", help="random-fridge COP-at-max-power ensemble")
    common(p)
    p.add_argument("--samples", type=int, default=10000)

    p = sub.add_parser("curve", help="power vs normalized efficiency sweep")
    common(p)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--system", choices=("ideal", "three_qubit", "both"), default="both")

    p = sub.add_parser("compare", help="ideal vs three-qubit summary")
    common(p)
    p.add_argument("--points", type=int, default=256)

    common(sub.add_parser("selftest", help="run the built-in invariant suite"))
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """``argv`` as the main parser parses it; a subcommand's arguments go to its
    own parser directly, not through the main one's pass, which costs as much."""
    parser = _build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    return sub.parse_args(argv[1:], argparse.Namespace(command=argv[0]))


def run(argv: list[str]) -> int:
    """Entry point returning the process exit code."""
    try:
        args = _parse_args(argv)
        if args.threads == "auto":
            args.threads = None
        else:
            try:
                args.threads = max(1, int(args.threads))
            except ValueError:
                raise CliConfigError(f"--threads expects an integer or 'auto'")
        params = parse_params(args.params) if args.params else {}
        params = _apply_overrides(params, args.set)

        if args.command == "selftest":
            return _cmd_selftest(args, params)
        handler = {
            "currents": _cmd_currents,
            "optimize": _cmd_optimize,
            "sweep-n": _cmd_sweep_n,
            "histogram": _cmd_histogram,
            "curve": _cmd_curve,
            "compare": _cmd_compare,
        }[args.command]
        handler(args, params)
        return 0
    except CliConfigError as exc:
        print(f"qpump: configuration error: {exc}", file=sys.stderr)
        return 1
    except (DegenerateKernelError, NoKernelError, NonConvergedError,
            experiments.EmptyWindowError, experiments.NoCoolingPowerError) as exc:
        print(f"qpump: solver failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
