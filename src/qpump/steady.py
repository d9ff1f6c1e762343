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
jump ``sum_k |lo_k><hi_k|`` with rates computed in double by
:func:`~qpump.pump.decay_rates`.  Its one operator is the extended-precision
action, restricted to the stationary sector (the pump's N populations; the
fridge's populations and one coherence pair).  A generator describes one
machine at P points of a sweep at once: the structure (sector, index
arrays) is built once, and only the energies and the rates carry a leading
point axis, so a whole characteristic curve is one stacked solve and a
single solve is a stack of one.  The kernel solve inverts the stack of the
double roundings of that action on the sector (numpy, one LU per point);
the inverses polish each state against the action, at whose precision the
currents are assembled, and every gate is judged per point.  The first law
holds for the generator as built, so double rates are enough.  The
Kronecker-product builders below are the reference.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from .linalg import SuperOp, _stationary_vectors, trace_row, vectorize
# Kept importable for the layer probes of perfbench/layers.py::install_probes;
# the solve itself goes through _stationary_vectors.
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
    """One bath channel at P points, on a set of m positions that its gathers
    do not leave.  For the jump ``s = sum_k |lo_k><hi_k|`` of a partial
    permutation, ``s+ s = diag(e)`` and ``s s+ = diag(g)``, where ``e`` and
    ``g`` flag the levels ``hi`` and ``lo``, so the dissipator is
    elementwise, ``D(rho)_ij = k_ij rho_ij`` with
    ``k_ij = -(down (e_i + e_j) + up (g_i + g_j)) / 2``, plus two gathers:
    ``down rho[hi, hi]`` lands on ``[lo, lo]`` and ``up rho[lo, lo]`` on
    ``[hi, hi]``.  ``lo``/``hi`` are the gathers' indices in the set,
    ``e``/``g`` the values of ``-(e_i + e_j)/2`` and ``-(g_i + g_j)/2``
    there, and ``down``/``up`` the rates, one per point.
    """

    def __init__(self, lo: np.ndarray, hi: np.ndarray, e: np.ndarray, g: np.ndarray,
                 down: np.ndarray, up: np.ndarray):
        self.lo, self.hi, self.down, self.up = lo, hi, down, up
        # the flag sums are 0, -1/2 or -1, so the products are exact and k
        # rounds once.  The factors are held as complex long doubles, the
        # type that numpy would cast them to at every product.
        self._decay_ld = (down[:, None] * e + up[:, None] * g)[:, None, :].astype(_LD)
        self._down_ld, self._up_ld = (r[:, None, None].astype(_LD) for r in (down, up))

    def apply(self, v: np.ndarray) -> np.ndarray:
        """``D(rho)`` at extended precision, on a (P, k, m) stack of states."""
        out = self._decay_ld * v
        out[..., self.lo] += self._down_ld * v[..., self.hi]
        out[..., self.hi] += self._up_ld * v[..., self.lo]
        return out


class _Generator:
    """One machine at P points: its extended-precision Hamiltonians and one
    :class:`_Channel` per bath, built from level arrays (no dense jump;
    ``build_jump_operator`` is the tests' reference).  ``cfg`` gives the
    baths and their frequencies, floats for one point or (P,) arrays;
    ``ham`` is one (n, n) Hamiltonian or a (P, n, n) stack.  The structure
    is shared by the points; only the energies, the couplings and the rates
    carry the point axis.

    The diagonal of the Hamiltonian enters the commutator elementwise,
    ``-i (E_i - E_j)``; its off-diagonal part ``V`` (the three-qubit
    exchange) as sparse entries: ``-i V rho`` puts ``-i V_rc rho[c, j]`` on
    ``[r, j]``, and ``i rho V`` puts ``i V_rc rho[i, r]`` on ``[i, c]``.
    ``sector``: the positions that these entries and the gathers link to the
    diagonal.  It and its complement are each invariant, so the stationary
    state is zero outside it.  The generator acts on ``positions``, by
    default the sector; states are (P, k, m) stacks of k vectors per point
    on those m positions.
    """

    def __init__(self, cfg, ham, levels, positions: np.ndarray | None = None):
        # levels: {label: (lo, hi) level arrays of that bath's jump}
        self._cfg, self._levels = cfg, levels
        self.ham = np.asarray(ham, dtype=_LD).reshape((-1,) + np.shape(ham)[-2:])
        n = self.ham.shape[-1]
        r, c = np.nonzero((self.ham != 0).any(axis=0) & ~np.eye(n, dtype=bool))
        j = np.arange(n)[:, None]
        rows = np.concatenate([_stacked(r, j, n), _stacked(j, c, n)])
        cols = np.concatenate([_stacked(c, j, n), _stacked(j, r, n)])
        v = self.ham[:, r, c]
        coupling = np.concatenate([np.tile(-1j * v, n), np.tile(1j * v, n)], axis=1)
        gathers = {}  # {label: the positions [lo_a, lo_b] and [hi_a, hi_b] of its gathers}
        for label in _BATHS:
            lo, hi = levels[label]
            if not ((lo < hi).all() or (lo > hi).all()):
                raise ValueError("jump operator must be strictly one-sided (a lowering operator)")
            if len(set(lo.tolist())) < lo.size or len(set(hi.tolist())) < hi.size:
                raise ValueError("jump operator must address each level at most once per side")
            gathers[label] = _stacked(lo[:, None], lo, n), _stacked(hi[:, None], hi, n)
        a = np.concatenate([rows, *(lo_pos for lo_pos, _ in gathers.values())])
        b = np.concatenate([cols, *(hi_pos for _, hi_pos in gathers.values())])
        member, size = np.arange(n * n) % (n + 1) == 0, 0
        while member.sum() > size:
            size, linked = member.sum(), member[a] | member[b]
            member[a[linked]] = member[b[linked]] = True
        self.sector = np.flatnonzero(member)

        self.positions = self.sector if positions is None else positions
        local = np.full(n * n, -1)
        local[self.positions] = np.arange(self.positions.size)
        self.diagonal = local[:: n + 1]
        i, j = self.positions % n, self.positions // n
        energies = np.diagonal(self.ham, axis1=1, axis2=2)
        self._commutator_ld = (-1j * (energies[:, i] - energies[:, j]))[:, None, :]
        inside = local[rows] >= 0
        self._coupling_rows, self._coupling_cols = local[rows[inside]], local[cols[inside]]
        self._coupling_ld = coupling[:, None, inside]
        self._ham_t = np.ascontiguousarray(self.ham[:, None, j, i])  # H_ji at (i, j)
        self.channels = {}
        for label in _BATHS:
            rates = decay_rates(cfg.bath(label), cfg.bath_frequency(label))
            flags = np.zeros((2, n), dtype=np.longdouble)
            flags[0, levels[label][1]] = flags[1, levels[label][0]] = -0.5
            lo_pos, hi_pos = gathers[label]
            inside = local[lo_pos] >= 0
            self.channels[label] = _Channel(local[lo_pos[inside]], local[hi_pos[inside]],
                                            *(f[i] + f[j] for f in flags),
                                            np.atleast_1d(rates.down), np.atleast_1d(rates.up))

    @classmethod
    def for_pump(cls, cfg):
        n = cfg.n_levels
        e = level_energies(n, cfg.omega_h, cfg.omega_c, dtype=np.longdouble)
        ham = np.zeros(e.shape + (n,), dtype=np.longdouble)
        ham[..., np.arange(n), np.arange(n)] = e
        return cls(cfg, ham, {label: _transition_levels(n, label) for label in _BATHS})

    def block(self) -> np.ndarray:
        """The double generator on its positions at each point, (P, m, m):
        :meth:`action` on their unit vectors, rounded."""
        units = np.eye(self.positions.size, dtype=_LD)[None]
        return self.action(units).swapaxes(1, 2).astype(complex)

    def superop(self) -> SuperOp:
        """The whole generator of a one-point machine: the same rounding of
        the same action, on all N^2 positions."""
        n = self.ham.shape[-1]
        whole = _Generator(self._cfg, self.ham, self._levels, np.arange(n * n))
        (matrix,) = whole.block()
        return SuperOp(n, matrix)

    def action(self, v: np.ndarray) -> np.ndarray:
        """The generator in long double at each point, on a (P, k, m) stack
        of states (or a (1, k, m) stack shared by the points)."""
        # channel by channel, the gathers that currents() sums: a residual
        # from one pre-summed long-double matrix rounds differently, and the
        # first-law gate then fails at the window edge and on the fridge curve
        out = self._commutator_ld * v
        np.add.at(out, (..., self._coupling_rows), self._coupling_ld * v[..., self._coupling_cols])
        for ch in self.channels.values():
            out += ch.apply(v)
        return out

    def currents(self, v: np.ndarray) -> dict[str, np.ndarray]:
        """``tr(H D_a rho)`` per bath at each point, from a (P, 1, m) stack of
        states: ``sum_ij H_ji D_ij`` over the gathers that :meth:`action`
        applies."""
        return {label: np.real((self._ham_t * ch.apply(v)).sum(axis=-1))[:, 0].astype(float)
                for label, ch in self.channels.items()}


def _polish_state(inv: np.ndarray, v0: np.ndarray, gen_ld: _Generator) -> np.ndarray:
    """Refine the (P, m) sector vectors ``v0`` against the extended-precision
    generator, through ``inv``, the inverses of the trace-constrained sector
    blocks that produced them.  Residuals come from the long-double action,
    so each state is a kernel vector of the generator as built.  Returns the
    (P, 1, m) stack of unit-trace states."""
    v = v0.astype(_LD)[:, None, :]
    # take() copies contiguously: numpy sums a fancy-indexed copy, whose
    # indexed axis is outermost in memory, in an order that depends on P
    for _ in range(_POLISH_ITERATIONS):
        resid = -gen_ld.action(v)
        resid[..., 0] = 1.0 - v.take(gen_ld.diagonal, axis=-1).sum(axis=-1)
        v += (inv @ resid.astype(complex).swapaxes(1, 2)).swapaxes(1, 2).astype(_LD)
    return v / v.take(gen_ld.diagonal, axis=-1).sum(axis=-1, keepdims=True)


def _solution_from_state(gen_ld: _Generator, rho_ld: np.ndarray, kernel_residual: np.ndarray,
                         cfg, gate_ideality: bool,
                         kernel_errors: dict[int, np.linalg.LinAlgError]
                         ) -> list[SteadySolution]:
    """The gated currents of each point's state, as one solution per point.
    The first point that fails, in the kernel solve (``kernel_errors``, by
    point index) or a gate, raises, naming its ``omega_c``."""
    q = gen_ld.currents(rho_ld)
    q_work, q_hot, q_cold = q["work"], q["hot"], q["cold"]
    diagonal = np.real(np.diagonal(gen_ld.ham, axis1=1, axis2=2))
    ham_scale = np.abs(diagonal).max(axis=1).astype(float)
    ham_scale[ham_scale == 0.0] = 1.0
    current_scale = ham_scale * np.max([ch.down + ch.up for ch in gen_ld.channels.values()],
                                       axis=0)
    noise = _MODE_FRACTION * current_scale
    q_max = np.max(np.abs([q_work, q_hot, q_cold]), axis=0)
    # Relative gates are only meaningful when the currents stand well clear
    # of the numerical noise floor of the current assembly.
    healthy = q_max > _GATE_FRACTION * current_scale

    first_law = np.abs(q_work + q_hot + q_cold) / np.maximum(q_max, noise)
    working = np.abs(q_work) > noise
    cop = np.divide(q_cold, q_work, out=np.zeros_like(q_cold), where=working)
    omega_c, omega_w = np.atleast_1d(cfg.omega_c), np.atleast_1d(cfg.omega_w)
    ideality = np.where(working, np.abs(np.abs(cop) / (omega_c / omega_w) - 1.0), 0.0)
    mode = np.where(q_max <= noise, "boundary",
                    np.where(q_cold > 0, "chiller", "heat_transformer"))

    gates = (
        (~(kernel_residual <= KERNEL_RTOL),
         lambda k: f"kernel residual {kernel_residual[k]:.3e} > {KERNEL_RTOL:.0e}"),
        (healthy & (first_law > FIRST_LAW_RTOL),
         lambda k: f"first-law residual {first_law[k]:.3e} > {FIRST_LAW_RTOL:.0e}"),
        (gate_ideality & healthy & (mode != "boundary") & (ideality > IDEALITY_RTOL),
         lambda k: f"ideality residual {ideality[k]:.3e} > {IDEALITY_RTOL:.0e}"),
    )
    failed = np.any([mask for mask, _ in gates], axis=0)
    failed[list(kernel_errors)] = True
    if failed.any():
        k = int(np.argmax(failed))
        at = f" at omega_c={float(omega_c[k])!r}"
        if k in kernel_errors:
            raise type(kernel_errors[k])(f"{kernel_errors[k]}{at}")
        message = next(text(k) for mask, text in gates if mask[k])
        raise NonConvergedError(message + at)

    t_work = [effective_temperature(cfg.work, w) for w in omega_w.tolist()]
    entropy_rate = -sum(x.astype(np.longdouble) / np.asarray(t, dtype=np.longdouble)
                        for x, t in zip((q_work, q_hot, q_cold),
                                        (t_work, cfg.hot.temperature, cfg.cold.temperature)))
    n = gen_ld.ham.shape[-1]
    rho = np.zeros((len(rho_ld), n * n), dtype=_LD)
    rho[:, gen_ld.positions] = rho_ld[:, 0]
    rho = rho.reshape(-1, n, n).swapaxes(1, 2)  # column-stacked: (i, j) at i + n j
    rho_inf = rho.astype(complex)
    return [
        SteadySolution(
            rho_inf=rho_inf[k],
            q_work=w,
            q_hot=h,
            q_cold=c,
            cop=eps,
            entropy_rate=s,
            residuals={"kernel_residual": kr, "first_law": fl, "ideality_cold_work": ir},
            mode=str(md),
            rho_ld=rho[k],
        )
        for k, (w, h, c, eps, s, kr, fl, ir, md) in enumerate(zip(
            q_work.tolist(), q_hot.tolist(), q_cold.tolist(), cop.tolist(),
            entropy_rate.astype(float).tolist(), kernel_residual.tolist(), first_law.tolist(),
            ideality.tolist(), mode))
    ]


def _solve_system(cfg, gen: _Generator, gate_ideality: bool) -> list[SteadySolution]:
    """Kernel solve of ``gen``'s double sector blocks at all its points as one
    stack, extended-precision polish, then the gated currents of ``cfg``'s
    machine, one solution per point."""
    block = gen.block()
    v, inv, errors = _stationary_vectors(block, trace_row(gen.ham.shape[-1])[gen.positions])
    # a point with a kernel error stays NaN; what its arithmetic gives does
    # not count, for the error is raised when the points are judged
    with np.errstate(invalid="ignore") if errors else contextlib.nullcontext():
        rho = _polish_state(inv, v, gen)
    residual = np.abs(block @ rho.astype(complex).swapaxes(1, 2)).max(axis=(1, 2))
    kernel_residual = residual / np.abs(block).max(axis=(1, 2))
    return _solution_from_state(gen, rho, kernel_residual, cfg, gate_ideality, errors)


def solve(cfg: PumpConfig) -> SteadySolution:
    """Stationary state and heat currents of an ideal pump.

    The state is the kernel vector of the generator's stationary sector,
    the N populations; the currents are ``tr(H D_a rho)``.  The solution is
    gated on the kernel residual, the first law and (for the ideal pump,
    whose currents are locked to the transition frequencies) the ideality
    identity ``|q_c/q_w| = w_c/w_w``.  It is a stack of one point of
    :func:`_solve_pumps`.

    Raises
    ------
    DegenerateKernelError, NoKernelError
        Propagated from the kernel extraction.
    NonConvergedError
        A residual gate failed.
    """
    return _solve_pumps(cfg)[0]


def _solve_pumps(cfg) -> list[SteadySolution]:
    """:func:`solve` at every point of ``cfg``, whose frequencies may be (P,)
    arrays, as one stacked solve."""
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
    n = cfg.n_levels
    gen = _Generator.for_pump(cfg)
    # the pump's sector is its diagonal, so the sector state is the populations
    v = vectorize(solution.rho_ld)[gen.positions][None, None, :]
    diag = {label: np.real(ch.apply(v))[0, 0].astype(float)
            for label, ch in gen.channels.items()}

    w_levels = np.array([2 * k + 1 for k in range(1, (n + 1) // 2)])
    w_terms = cfg.omega_w * diag["work"][w_levels - 1]
    c_levels = np.array([2 * k for k in range(1, n // 2 + 1)])
    c_terms = cfg.omega_c * diag["cold"][c_levels - 1]
    h_levels = np.arange(1, n + 1)
    h_weights = np.array([math.ceil(k / 2) - 1 for k in h_levels], dtype=float)
    h_terms = cfg.omega_h * h_weights * diag["hot"]

    dec = CurrentDecomposition(w_levels, w_terms, h_levels, h_terms, c_levels, c_terms)
    trace_q = {label: float(q[0]) for label, q in gen.currents(v).items()}
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
