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
first-law residual near 1e-9 of the largest current there.  Each machine is
therefore described once, by a :class:`_Generator`: its Hamiltonian in
extended precision (x87 long double) and, per bath, the level pairs of its
jump ``sum_k |lo_k><hi_k|`` with rates computed once in double by
:func:`~qpump.pump.decay_rates`.  Its one operator is the extended-precision
action.  The kernel solve factors once the double rounding of that action on
the stationary sector (the pump's N populations; the fridge's populations and
one coherence pair), and that factor polishes the state against the action,
at whose precision the currents are assembled.  The first law holds for the
generator as built, so double rates are enough.  The Kronecker-product
builders below are the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .linalg import SuperOp, _stationary_vector_and_factor, trace_row, vectorize
# Kept importable for the layer probes of perfbench/layers.py::install_probes;
# the solve itself factors through _stationary_vector_and_factor.
from .linalg import stationary_vector  # noqa: F401
from .pump import (
    PumpConfig,
    RatePair,
    _transition_levels,
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


def build_dissipator(jump: np.ndarray, rates: RatePair) -> SuperOp:
    """Lindblad dissipator superoperator for one bath channel."""
    if np.any(np.abs(np.diagonal(jump)) > 0):
        raise ValueError("jump operator must have zero diagonal")
    if np.any(np.abs(np.tril(jump, -1)) > 0) and np.any(np.abs(np.triu(jump, 1)) > 0):
        raise ValueError("jump operator must be strictly one-sided (a lowering operator)")
    s = np.asarray(jump, dtype=complex)
    eye = np.eye(s.shape[0], dtype=complex)
    sd = s.conj().T
    pe = sd @ s
    pg = s @ sd
    a = np.kron(s.conj(), s) - 0.5 * (np.kron(eye, pe) + np.kron(pe.T, eye))
    b = np.kron(sd.conj(), sd) - 0.5 * (np.kron(eye, pg) + np.kron(pg.T, eye))
    return SuperOp(s.shape[0], rates.down * a + rates.up * b)


def hamiltonian_commutator(h: np.ndarray) -> SuperOp:
    """Superoperator of -i[H, .] in the column-stacking convention."""
    h = np.asarray(h, dtype=complex)
    n = h.shape[0]
    eye = np.eye(n, dtype=complex)
    return SuperOp(n, -1j * (np.kron(eye, h) - np.kron(h.T, eye)))


def build_liouvillian(cfg: PumpConfig) -> SuperOp:
    """Full generator of the N-level pump: commutator plus three dissipators."""
    return _Generator.for_pump(cfg).superop()


# ---------------------------------------------------------------------------
# generator assembly from transition pairs, kernel solve and polish


def _stacked(rows: np.ndarray, cols: np.ndarray, n: int) -> np.ndarray:
    """Column-stacked positions ``i + n j`` of the entries ``[rows, cols]``."""
    return (rows + n * cols).reshape(-1)


class _Channel:
    """One bath channel on ``n`` levels: the jump ``s = sum_k |lo_k><hi_k|``,
    from its 0-based level arrays ``lo`` and ``hi``, with its rates.

    The pairs must be strictly one-sided and address each level at most once
    as ``lo`` and once as ``hi`` (a partial permutation); any other raises
    ``ValueError``.  Then ``s+ s = diag(e)`` and ``s s+ = diag(g)``, where
    ``e`` and ``g`` flag the levels ``hi`` and ``lo``, so the dissipator is
    elementwise, ``D(rho)_ij = k_ij rho_ij`` with
    ``k_ij = -(down (e_i + e_j) + up (g_i + g_j)) / 2``, plus two gathers:
    ``down rho[hi, hi]`` lands on ``[lo, lo]`` and ``up rho[lo, lo]`` on
    ``[hi, hi]``.  States are column-stacked vectors, or columns of a block.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, n: int, down: float, up: float):
        if not ((lo < hi).all() or (lo > hi).all()):
            raise ValueError("jump operator must be strictly one-sided (a lowering operator)")
        if len(set(lo.tolist())) < lo.size or len(set(hi.tolist())) < hi.size:
            raise ValueError("jump operator must address each level at most once per side")
        self.down, self.up = down, up
        self.lo = _stacked(lo[:, None], lo, n)
        self.hi = _stacked(hi[:, None], hi, n)
        flags = np.zeros((2, n), dtype=np.longdouble)
        flags[0, hi] = flags[1, lo] = -0.5
        # -(e_i + e_j)/2 and -(g_i + g_j)/2 are 0, -1/2 or -1, so the products
        # are exact and k rounds once (symmetric in i, j)
        e, g = ((f[:, None] + f).reshape(-1) for f in flags)
        self.decay_ld = down * e + up * g

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``D(rho)`` at extended precision."""
        out = (self.decay_ld * v.T).T
        out[self.lo] += self.down * v[self.hi]
        out[self.hi] += self.up * v[self.lo]
        return out


class _Generator:
    """One machine: its extended-precision Hamiltonian and one
    :class:`_Channel` per bath, built from level arrays (no dense jump;
    ``build_jump_operator`` is the tests' reference).  The diagonal of the
    Hamiltonian enters the commutator elementwise, ``-i (E_i - E_j)``; its
    off-diagonal part ``V`` (the three-qubit exchange) as sparse entries:
    ``-i V rho`` puts ``-i V_rc rho[c, j]`` on ``[r, j]``, and ``i rho V``
    puts ``i V_rc rho[i, r]`` on ``[i, c]``.  ``sector``: the positions that
    these entries and the gathers link to the diagonal.  It and its
    complement are each invariant, so the stationary state is zero outside it.
    """

    def __init__(self, cfg, ham, levels):
        # levels: {label: (lo, hi) level arrays of that bath's jump}
        self.ham = np.asarray(ham, dtype=_LD)
        n = self.ham.shape[0]
        energies = np.diagonal(self.ham)
        self._commutator_ld = -1j * (energies[:, None] - energies[None, :]).reshape(-1, order="F")
        r, c = np.nonzero(self.ham - np.diag(energies))
        j = np.arange(n)[:, None]
        self._coupling_rows = np.concatenate([_stacked(r, j, n), _stacked(j, c, n)])
        self._coupling_cols = np.concatenate([_stacked(c, j, n), _stacked(j, r, n)])
        v = self.ham[r, c]
        self._coupling_ld = np.concatenate([np.tile(-1j * v, n), np.tile(1j * v, n)])
        self.channels = {}
        for label in _BATHS:
            rates = decay_rates(cfg.bath(label), cfg.bath_frequency(label))
            self.channels[label] = _Channel(*levels[label], n, rates.down, rates.up)
        a = np.concatenate([self._coupling_rows, *(ch.lo for ch in self.channels.values())])
        b = np.concatenate([self._coupling_cols, *(ch.hi for ch in self.channels.values())])
        member, size = np.arange(n * n) % (n + 1) == 0, 0
        while member.sum() > size:
            size, linked = member.sum(), member[a] | member[b]
            member[a[linked]] = member[b[linked]] = True
        self.sector = np.flatnonzero(member)

    @classmethod
    def for_pump(cls, cfg: PumpConfig):
        n = cfg.n_levels
        e = level_energies(n, cfg.omega_h, cfg.omega_c, dtype=np.longdouble)
        return cls(cfg, np.diag(e), {label: _transition_levels(n, label) for label in _BATHS})

    def block(self, positions: np.ndarray) -> np.ndarray:
        """The double generator on ``positions``: :meth:`action` on their unit
        vectors, rounded."""
        units = np.zeros((self.ham.size, positions.size), dtype=_LD)
        units[positions, np.arange(positions.size)] = 1.0
        return self.action(units)[positions].astype(complex)

    def superop(self) -> SuperOp:
        return SuperOp(self.ham.shape[0], self.block(np.arange(self.ham.size)))

    def action(self, v: np.ndarray) -> np.ndarray:
        """The generator in long double on a column-stacked state, or each
        column of a block."""
        # channel by channel, the gathers that currents() sums: a residual
        # from one pre-summed long-double matrix rounds differently, and the
        # first-law gate then fails at the window edge and on the fridge curve
        out = (self._commutator_ld * v.T).T
        np.add.at(out, self._coupling_rows, (self._coupling_ld * v[self._coupling_cols].T).T)
        for ch in self.channels.values():
            out += ch.apply(v)
        return out

    def currents(self, rho) -> dict[str, float]:
        # tr(H D) = sum_ij H_ji D_ij over the gathers that action() applies
        ham_t, v = vectorize(self.ham.T), vectorize(rho)
        return {label: float(np.real(np.sum(ham_t * ch.apply(v))))
                for label, ch in self.channels.items()}


def _polish_state(lu: tuple, v0: np.ndarray, gen_ld: _Generator) -> np.ndarray:
    """Refine the sector vector ``v0`` against the extended-precision
    generator, through ``lu``, the LU factor of the trace-constrained sector
    block that produced ``v0``.  Residuals come from the long-double action,
    so the state is a kernel vector of the generator as built."""
    n, sector = gen_ld.ham.shape[0], gen_ld.sector
    v = np.zeros(n * n, dtype=_LD)
    v[sector] = v0
    for _ in range(_POLISH_ITERATIONS):
        resid = -gen_ld.action(v)[sector]
        resid[0] = 1.0 - v[:: n + 1].sum()
        dv = sla.lu_solve(lu, resid.astype(complex), check_finite=False)
        v[sector] += dv.astype(_LD)
    rho = v.reshape((n, n), order="F")
    return rho / np.trace(rho)


def _solution_from_state(gen_ld: _Generator, rho_ld, kernel_residual: float,
                         temps: tuple[float, float, float], omega_ratio: float,
                         gate_ideality: bool) -> SteadySolution:
    q = gen_ld.currents(rho_ld)
    ham_scale = float(np.max(np.abs(np.real(np.diag(gen_ld.ham))))) or 1.0
    current_scale = ham_scale * max(ch.down + ch.up for ch in gen_ld.channels.values())
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
    if q_max <= noise:
        mode = "boundary"
    else:
        mode = "chiller" if q["cold"] > 0 else "heat_transformer"

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
        entropy_rate=float(-sum(np.longdouble(q[label]) / np.longdouble(t)
                                for label, t in zip(_BATHS, temps))),
        residuals=residuals,
        mode=mode,
        rho_ld=rho_ld,
    )


def _solve_system(cfg, gen: _Generator, gate_ideality: bool) -> SteadySolution:
    """Kernel solve of ``gen``'s double sector block, extended-precision
    polish, then the gated currents of ``cfg``'s machine."""
    block = gen.block(gen.sector)
    v, lu = _stationary_vector_and_factor(block, trace_row(gen.ham.shape[0])[gen.sector])
    rho = _polish_state(lu, v, gen)
    residual = np.max(np.abs(block @ vectorize(rho)[gen.sector].astype(complex)))
    kernel_residual = float(residual / np.max(np.abs(block)))
    temps = (effective_temperature(cfg.work, cfg.omega_w), cfg.hot.temperature,
             cfg.cold.temperature)
    return _solution_from_state(gen, rho, kernel_residual, temps,
                                omega_ratio=cfg.omega_c / cfg.omega_w, gate_ideality=gate_ideality)


def solve(cfg: PumpConfig) -> SteadySolution:
    """Stationary state and heat currents of an ideal pump.

    The state is the kernel vector of the generator's stationary sector,
    the N populations; the currents are ``tr(H D_a rho)``.  The solution is gated on the kernel
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
    return _solve_system(cfg, _Generator.for_pump(cfg), True)


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
    diag = {label: np.real(ch.apply(vectorize(rho))[:: n + 1]).astype(float)
            for label, ch in gen.channels.items()}

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
        r = decay_rates(cfg.bath(label), cfg.bath_frequency(label))
        down, up = np.longdouble(r.down), np.longdouble(r.up)
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
