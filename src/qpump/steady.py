"""Lindblad generator assembly and stationary heat currents.

The master equation is ``d rho/dt = -i[H, rho] + sum_a D_a(rho)`` with one
dissipator per reservoir,

    D_a(rho) = G_down (s rho s+ - {s+ s, rho}/2) + G_up (s+ rho s - {s s+, rho}/2),

where ``s`` is the bath's lowering operator and the rates satisfy detailed
balance for plain thermal baths.  The commutator does not move the
stationary state of the diagonal-Hamiltonian pump, but including it lets the
same assembler serve the non-diagonal three-qubit model.

Heat currents are evaluated as ``q_a = tr(H D_a(rho_inf))``, positive for
energy flowing from reservoir ``a`` into the system; in chiller mode
``q_cold > 0``, ``q_work > 0`` and ``q_hot < 0``.

Numerical note: the stationary populations at strongly disparate rate scales
(rates span ~10^5 at the reference parameter set) leave the net fluxes as
small differences of large one-way flows.  Plain double precision floors the
first-law residual near 1e-9 of the largest current there, so after the
double-precision kernel solve the state is polished against the generator
rebuilt in extended precision (x87 long double) and the currents are
assembled at that precision.  This is the same formula, evaluated carefully.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .linalg import (
    SuperOp,
    stationary_vector,
    trace_row,
    vectorize,
)
from .pump import (
    PumpConfig,
    RatePair,
    build_hamiltonian,
    build_jump_operator,
    decay_rates,
    effective_temperature,
    level_energies,
    transition_pairs,
)

__all__ = [
    "NonConvergedError",
    "SteadySolution",
    "CurrentDecomposition",
    "RateOracleResult",
    "build_dissipator",
    "hamiltonian_commutator",
    "build_liouvillian",
    "solve",
    "heat_currents_decomposed",
    "pauli_rate_oracle",
    "KERNEL_RTOL",
    "FIRST_LAW_RTOL",
    "IDEALITY_RTOL",
]

_LD = np.clongdouble
_BATHS = ("work", "hot", "cold")

# Solver acceptance gates, from double-precision conditioning of the dense
# kernel solve at these dimensions.  All relative; see solve() for scales.
KERNEL_RTOL = 1e-10
FIRST_LAW_RTOL = 1e-10
IDEALITY_RTOL = 1e-8
# The natural current scale is |H| times the largest channel rate; the
# extended-precision assembly floor sits ~1e-16 of it.  Currents below
# _GATE_FRACTION of the scale are too close to that floor for relative
# residual gates to be meaningful; below _MODE_FRACTION they are
# numerically indistinguishable from zero (reversible point, equilibrium).
_GATE_FRACTION = 1e-10
_MODE_FRACTION = 1e-15
_POLISH_ITERATIONS = 3


class NonConvergedError(RuntimeError):
    """The steady-state solve finished but failed a residual gate."""


@dataclass(frozen=True)
class SteadySolution:
    """Stationary state of one pump configuration with its heat bookkeeping.

    ``residuals`` carries the named diagnostics ``kernel_residual``
    (sup-norm of L rho relative to the generator norm), ``first_law``
    (|q_w + q_h + q_c| relative to the largest current) and
    ``ideality_cold_work`` (relative deviation of |q_c/q_w| from w_c/w_w;
    for the three-qubit model this is the non-ideality measure and is
    reported, not gated).  ``mode`` is "chiller", "heat_transformer" or
    "boundary" (reversible point / equilibrium).
    """

    rho_inf: np.ndarray
    q_work: float
    q_hot: float
    q_cold: float
    cop: float
    entropy_rate: float
    residuals: dict[str, float]
    mode: str
    # stationary state at the working extended precision; the per-level
    # current bookkeeping reuses it so decompositions match the currents
    # beyond the double-rounding floor
    rho_ld: np.ndarray

    @property
    def currents(self) -> dict[str, float]:
        return {"work": self.q_work, "hot": self.q_hot, "cold": self.q_cold}


def _check_lowering(jump: np.ndarray) -> None:
    if np.any(np.abs(np.diagonal(jump)) > 0):
        raise ValueError("jump operator must have zero diagonal")
    lower = np.any(np.abs(np.tril(jump, -1)) > 0)
    upper = np.any(np.abs(np.triu(jump, 1)) > 0)
    if lower and upper:
        raise ValueError("jump operator must be strictly one-sided (a lowering operator)")


def _lindblad_structure(jump: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rate-independent superoperator pair (A, B) with D = down*A + up*B."""
    s = np.asarray(jump, dtype=complex)
    n = s.shape[0]
    eye = np.eye(n, dtype=complex)
    sd = s.conj().T
    pe = sd @ s
    pg = s @ sd
    a = np.kron(s.conj(), s) - 0.5 * (np.kron(eye, pe) + np.kron(pe.T, eye))
    b = np.kron(sd.conj(), sd) - 0.5 * (np.kron(eye, pg) + np.kron(pg.T, eye))
    return a, b


def build_dissipator(jump: np.ndarray, rates: RatePair) -> SuperOp:
    """Lindblad dissipator superoperator for one bath channel."""
    _check_lowering(jump)
    a, b = _lindblad_structure(jump)
    return SuperOp(jump.shape[0], rates.down * a + rates.up * b)


def hamiltonian_commutator(h: np.ndarray) -> SuperOp:
    """Superoperator of -i[H, .] in the column-stacking convention."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    eye = np.eye(n, dtype=complex)
    return SuperOp(n, -1j * (np.kron(eye, h) - np.kron(h.T, eye)))


def build_liouvillian(cfg: PumpConfig) -> SuperOp:
    """Full generator of the N-level pump: commutator plus three dissipators."""
    n = cfg.n_levels
    mat = hamiltonian_commutator(build_hamiltonian(cfg)).matrix
    for label in _BATHS:
        jump = build_jump_operator(cfg, label)
        rates = decay_rates(cfg.bath(label), cfg.bath_frequency(label))
        mat = mat + build_dissipator(jump, rates).matrix
    return SuperOp(n, mat)


# ---------------------------------------------------------------------------
# extended-precision generator action and current assembly


def _rates_for_bath_ld(bath, omega: float) -> tuple[np.longdouble, np.longdouble]:
    """decay_rates evaluated in long double (same formula, wider mantissa)."""
    from .pump import SATURATED_OCCUPATION, _effective_occupation

    w = np.longdouble(omega)
    w3 = np.longdouble(bath.gamma) * w**3
    if bath.saturated:
        g = w3 * np.longdouble(SATURATED_OCCUPATION)
        return g, g
    n = _effective_occupation(bath, float(w), _ld=True)
    return w3 * (1 + n), w3 * n


def _apply_dissipator(s, down, up, rho):
    sd = s.conj().T
    pe = sd @ s
    pg = s @ sd
    out = down * (s @ rho @ sd - 0.5 * (pe @ rho + rho @ pe))
    out += up * (sd @ rho @ s - 0.5 * (pg @ rho + rho @ pg))
    return out


class _Generator:
    """One system's Hamiltonian and dissipation channels in extended precision,
    supporting matrix-form action (for refinement residuals) and per-bath
    current assembly."""

    def __init__(self, ham, channels):
        # channels: {label: (jump, down, up)}
        self.ham = ham
        self.channels = channels

    @classmethod
    def for_pump(cls, cfg: PumpConfig):
        e = level_energies(cfg.n_levels, cfg.omega_h, cfg.omega_c, dtype=np.longdouble)
        ham = np.diag(e.astype(_LD))
        channels = {}
        for label in _BATHS:
            s = build_jump_operator(cfg, label).astype(_LD)
            down, up = _rates_for_bath_ld(cfg.bath(label), cfg.bath_frequency(label))
            channels[label] = (s, down, up)
        return cls(ham, channels)

    def action(self, rho):
        out = -1j * (self.ham @ rho - rho @ self.ham)
        for s, down, up in self.channels.values():
            out += _apply_dissipator(s, down, up, rho)
        return out

    def currents(self, rho) -> dict[str, float]:
        q = {}
        for label, (s, down, up) in self.channels.items():
            d = _apply_dissipator(s, down, up, rho)
            q[label] = float(np.real(np.trace(self.ham @ d)))
        return q

    def rate_scale(self) -> float:
        return max(float(np.real(down + up)) for _, down, up in self.channels.values())


def _polish_state(matrix: np.ndarray, v0: np.ndarray, gen_ld: _Generator) -> np.ndarray:
    """Refine the kernel vector against the extended-precision generator.

    Solves corrections through the double-precision LU of the
    trace-constrained system; residuals come from the long-double generator
    action, so the refined state is a kernel vector of the generator as
    built at extended precision.
    """
    n = int(round(math.sqrt(v0.size)))
    m = matrix.copy()
    m[0, :] = trace_row(n)
    lu = sla.lu_factor(m, check_finite=False)
    v = v0.astype(_LD)
    for _ in range(_POLISH_ITERATIONS):
        rho = v.reshape((n, n), order="F")
        resid = -gen_ld.action(rho).reshape(-1, order="F")
        resid[0] = 1.0 - np.trace(rho)
        dv = sla.lu_solve(lu, resid.astype(complex), check_finite=False)
        v = v + dv.astype(_LD)
    rho = v.reshape((n, n), order="F")
    return rho / np.trace(rho)


def _entropy_rate_ld(q: dict[str, float], temps: tuple[float, float, float]) -> float:
    terms = [np.longdouble(qa) / np.longdouble(t)
             for qa, t in zip((q["work"], q["hot"], q["cold"]), temps)]
    return float(-(terms[0] + terms[1] + terms[2]))


def _classify_mode(q: dict[str, float], quiet: float) -> str:
    if max(abs(x) for x in q.values()) <= quiet:
        return "boundary"
    return "chiller" if q["cold"] > 0 else "heat_transformer"


def _solution_from_state(gen_ld: _Generator, rho_ld, kernel_residual: float,
                         temps: tuple[float, float, float], omega_ratio: float,
                         gate_ideality: bool) -> SteadySolution:
    q = gen_ld.currents(rho_ld)
    ham_scale = float(np.max(np.abs(np.real(np.diag(gen_ld.ham))))) or 1.0
    current_scale = ham_scale * gen_ld.rate_scale()
    noise = _MODE_FRACTION * current_scale
    q_max = max(abs(x) for x in q.values())
    # Relative gates are only meaningful when the currents stand well clear
    # of the numerical noise floor of the current assembly.
    healthy = q_max > _GATE_FRACTION * current_scale

    first_law = abs(q["work"] + q["hot"] + q["cold"]) / max(q_max, noise)
    if abs(q["work"]) > noise:
        ideality = abs(abs(q["cold"] / q["work"]) / omega_ratio - 1.0)
    else:
        ideality = 0.0
    residuals = {
        "kernel_residual": float(kernel_residual),
        "first_law": float(first_law),
        "ideality_cold_work": float(ideality),
    }
    mode = _classify_mode(q, noise)

    if kernel_residual > KERNEL_RTOL:
        raise NonConvergedError(f"kernel residual {kernel_residual:.3e} > {KERNEL_RTOL:.0e}")
    if healthy and first_law > FIRST_LAW_RTOL:
        raise NonConvergedError(f"first-law residual {first_law:.3e} > {FIRST_LAW_RTOL:.0e}")
    if gate_ideality and healthy and mode != "boundary" and ideality > IDEALITY_RTOL:
        raise NonConvergedError(f"ideality residual {ideality:.3e} > {IDEALITY_RTOL:.0e}")

    cop = q["cold"] / q["work"] if abs(q["work"]) > noise else 0.0
    return SteadySolution(
        rho_inf=np.asarray(rho_ld, dtype=complex),
        q_work=q["work"],
        q_hot=q["hot"],
        q_cold=q["cold"],
        cop=cop,
        entropy_rate=_entropy_rate_ld(q, temps),
        residuals=residuals,
        mode=mode,
        rho_ld=rho_ld,
    )


def solve(cfg: PumpConfig) -> SteadySolution:
    """Stationary state and heat currents of an ideal pump.

    The state comes from the null space of the vectorized generator; the
    currents are ``tr(H D_a rho)``.  The solution is gated on the kernel
    residual, the first law and (for the ideal pump, whose currents are
    locked to the transition frequencies) the ideality identity
    ``|q_c/q_w| = w_c/w_w``.

    Raises
    ------
    DegenerateKernelError, NoKernelError
        Propagated from the kernel extraction.
    NonConvergedError
        A residual gate failed.
    """
    liouv = build_liouvillian(cfg)
    v = stationary_vector(liouv)
    gen_ld = _Generator.for_pump(cfg)
    rho = _polish_state(liouv.matrix, v, gen_ld)
    kernel_residual = float(
        np.max(np.abs(liouv.matrix @ np.asarray(vectorize(rho), dtype=complex)))
        / np.max(np.abs(liouv.matrix))
    )
    temps = (
        effective_temperature(cfg.work, cfg.omega_w),
        cfg.hot.temperature,
        cfg.cold.temperature,
    )
    return _solution_from_state(
        gen_ld, rho, kernel_residual, temps,
        omega_ratio=cfg.omega_c / cfg.omega_w, gate_ideality=True,
    )


# ---------------------------------------------------------------------------
# per-level current decomposition


@dataclass(frozen=True)
class CurrentDecomposition:
    """Per-level breakdown of each heat current.

    ``work_levels``/``work_terms``: odd levels ``2n+1`` and their
    contributions ``w_w <2n+1| D_w rho |2n+1>``; ``cold_levels``/``cold_terms``:
    even levels ``2n`` with ``w_c <2n| D_c rho |2n>``; ``hot_levels`` carries
    all levels with ladder weight ``ceil(n/2)-1`` applied.  Levels are
    1-based.  Each series sums to the corresponding trace-formula current.
    """

    work_levels: np.ndarray
    work_terms: np.ndarray
    hot_levels: np.ndarray
    hot_terms: np.ndarray
    cold_levels: np.ndarray
    cold_terms: np.ndarray

    @property
    def totals(self) -> dict[str, float]:
        return {
            "work": float(self.work_terms.sum()),
            "hot": float(self.hot_terms.sum()),
            "cold": float(self.cold_terms.sum()),
        }


def heat_currents_decomposed(cfg: PumpConfig,
                             solution: SteadySolution | None = None) -> CurrentDecomposition:
    """Per-level current sums, cross-checked against the trace formula.

    The summed decomposition must reproduce ``tr(H D_a rho)`` to 1e-10
    relative (it is the same diagonal data regrouped, so a mismatch flags an
    index-bookkeeping bug, not precision loss).
    """
    if solution is None:
        solution = solve(cfg)
    rho = solution.rho_ld
    n = cfg.n_levels
    gen = _Generator.for_pump(cfg)
    diag = {}
    for label, (s, down, up) in gen.channels.items():
        diag[label] = np.real(np.diag(_apply_dissipator(s, down, up, rho))).astype(float)

    w_levels = np.array([2 * k + 1 for k in range(1, (n + 1) // 2)])
    w_terms = cfg.omega_w * diag["work"][w_levels - 1]
    c_levels = np.array([2 * k for k in range(1, n // 2 + 1)])
    c_terms = cfg.omega_c * diag["cold"][c_levels - 1]
    h_levels = np.arange(1, n + 1)
    h_weights = np.array([math.ceil(k / 2) - 1 for k in h_levels], dtype=float)
    h_terms = cfg.omega_h * h_weights * diag["hot"]

    dec = CurrentDecomposition(w_levels, w_terms, h_levels, h_terms, c_levels, c_terms)
    trace_q = gen.currents(rho)
    q_scale = max(max(abs(x) for x in trace_q.values()), 1e-300)
    for label, total in dec.totals.items():
        ref = trace_q[label]
        if abs(total - ref) > 1e-10 * max(abs(ref), 1e-3 * q_scale):
            raise AssertionError(
                f"{label} decomposition {total!r} disagrees with trace formula {ref!r}"
            )
    return dec


# ---------------------------------------------------------------------------
# classical rate-equation oracle


@dataclass(frozen=True)
class RateOracleResult:
    populations: np.ndarray
    q_work: float
    q_hot: float
    q_cold: float

    @property
    def currents(self) -> dict[str, float]:
        return {"work": self.q_work, "hot": self.q_hot, "cold": self.q_cold}


def _solve_ld_kernel(rate_matrix: np.ndarray) -> np.ndarray:
    """Kernel of a small real rate matrix by Gaussian elimination in long
    double, with the last row replaced by the normalization constraint."""
    n = rate_matrix.shape[0]
    a = rate_matrix.astype(np.longdouble).copy()
    b = np.zeros(n, dtype=np.longdouble)
    a[-1, :] = 1.0
    b[-1] = 1.0
    # partial pivoting
    for col in range(n - 1):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        if a[col, col] == 0:
            raise np.linalg.LinAlgError("singular rate matrix")
        f = a[col + 1:, col] / a[col, col]
        a[col + 1:, col:] -= f[:, None] * a[col, col:]
        b[col + 1:] -= f * b[col]
    x = np.zeros(n, dtype=np.longdouble)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def pauli_rate_oracle(cfg: PumpConfig) -> RateOracleResult:
    """Independent steady-state route through the classical rate equations.

    The ideal-pump generator maps diagonal states to diagonal states, so the
    stationary populations solve an N x N classical master equation whose
    off-diagonal entries are the per-transition up/down rates.  Currents are
    per-transition net fluxes times the transition frequency.  Not
    applicable to the three-qubit model, whose interaction sustains
    stationary coherences.
    """
    n = cfg.n_levels
    rates = {}
    m = np.zeros((n, n), dtype=np.longdouble)
    for label in _BATHS:
        down, up = _rates_for_bath_ld(cfg.bath(label), cfg.bath_frequency(label))
        rates[label] = (down, up)
        for lo, hi in transition_pairs(n, label):
            i, j = lo - 1, hi - 1
            m[i, j] += down   # hi -> lo emission
            m[j, j] -= down
            m[j, i] += up     # lo -> hi absorption
            m[i, i] -= up
    p = _solve_ld_kernel(m)
    q = {}
    for label in _BATHS:
        down, up = rates[label]
        omega = np.longdouble(cfg.bath_frequency(label)) if label != "work" \
            else np.longdouble(cfg.omega_h) - np.longdouble(cfg.omega_c)
        flux = np.longdouble(0.0)
        for lo, hi in transition_pairs(n, label):
            flux += up * p[lo - 1] - down * p[hi - 1]
        q[label] = float(omega * flux)
    return RateOracleResult(
        populations=p.astype(float),
        q_work=q["work"],
        q_hot=q["hot"],
        q_cold=q["cold"],
    )
