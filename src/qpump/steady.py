"""Lindblad generator assembly and stationary heat currents.

The master equation is ``d rho/dt = -i[H, rho] + sum_a D_a(rho)`` with one
dissipator per reservoir,

    D_a(rho) = G_down (s rho s+ - {s+ s, rho}/2) + G_up (s+ rho s - {s s+, rho}/2),

where ``s`` is the bath's lowering operator and the rates satisfy detailed
balance for plain thermal baths.  The commutator does not move the
stationary state of the diagonal-Hamiltonian pump, but including it lets the
same assembler serve the non-diagonal three-qubit model.

Heat currents are ``q_a = tr(H D_a(rho_inf))`` (for the pump's diagonal
state, bath ``a``'s energy gap times its net flux), positive for energy
flowing from reservoir ``a`` into the system; in chiller mode
``q_cold > 0``, ``q_work > 0`` and ``q_hot < 0``.

Numerical note: the stationary populations at strongly disparate rate scales
(rates span ~10^5 at the reference parameter set) leave the net fluxes as
small differences of large one-way flows.  Plain double precision floors the
first-law residual near 1e-9 of the largest current there, so both models
are solved in extended precision (x87 long double), from rates computed in
double by :func:`~qpump.pump.decay_rates`; the first law holds for the
machine as built, so double rates are enough.

The ideal pump's stationary state is diagonal: its coherences decouple and
decay, and its populations solve a banded classical master equation.
:func:`_solve_pumps` solves that equation by the subtraction-free GTH
elimination of :func:`_ladder_balance` in long double, the body that also
gives the power optimizer's ``q_cold``, with no generator and no polish;
each current is its bath's energy gap times the net flux on its edges,
taken from exact products (:func:`_edge_fluxes`) after one refinement step
of the populations (:func:`_refined_fluxes`).  The kernel decisions
(condition floor, SVD diagnostics, non-finite rates) are those of the
double rate matrix, which is the generator's block on the populations.

The three-qubit fridge's stationary state holds its populations and one
coherence pair, which follows the populations; eliminating it leaves an
exact eight-state classical chain, which
:func:`qpump.three_qubit._solve_fridges` solves along the same steps: its
rate matrices, their kernel decisions, a dense GTH elimination, exact
fluxes, the shared refinement step and the shared gates.  A whole
characteristic curve of either model is one stacked solve over a leading
point axis, and a single solve is a stack of one.

Both models' currents pass one gate body, per point, and a stack's
results are one set of columns, :class:`SteadySolutions`.  The whole
generator, which only the oracles use, is assembled from the machine's
dense operators by the Kronecker-product builders below
(:class:`_Generator`).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .linalg import SuperOp, _stationary_vectors
# Kept importable for the layer probes of perfbench/layers.py::install_probes;
# the solve itself goes through _stationary_vectors.
from .linalg import stationary_vector  # noqa: F401
from .pump import (
    PumpConfig,
    RatePair,
    _level_energy,
    _transition_levels,
    build_hamiltonian,
    build_jump_operator,
    decay_rates,
    effective_temperature,
    transition_pairs,
)

__all__ = [
    "NonConvergedError",
    "SteadySolution",
    "SteadySolutions",
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


class NonConvergedError(RuntimeError):
    """The steady-state solve finished but failed a residual gate."""


@dataclass(frozen=True)
class SteadySolution:
    """Stationary state of one pump configuration with its heat bookkeeping.

    ``residuals`` carries the named diagnostics ``kernel_residual``
    (sup-norm of L rho relative to the generator norm; for the pump, of the
    rate matrix on its populations), ``first_law``
    (|q_w + q_h + q_c| relative to the largest current) and
    ``ideality_cold_work`` (relative deviation of |q_c/q_w| from w_c/w_w;
    gated for the ideal pump, reported but not gated for the three-qubit
    model).  ``mode`` is "chiller", "heat_transformer" or
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


@dataclass(frozen=True)
class SteadySolutions:
    """The solutions of one machine at the P points of a stacked solve, as
    columns: each field but the last three is a (P,) array of the
    :class:`SteadySolution` field (or residual) of that name.  ``states``
    holds each point's stationary state at the working extended precision,
    (P, m), on ``positions``, the m column-stacked positions of the
    ``dim x dim`` density matrix that the solve acts on (the fridge's
    populations and coherence pair, the pump's diagonal); it is zero
    elsewhere.  ``solutions[k]`` is point k as a :class:`SteadySolution`;
    only there are its dense states made."""

    q_work: np.ndarray
    q_hot: np.ndarray
    q_cold: np.ndarray
    cop: np.ndarray
    entropy_rate: np.ndarray
    kernel_residual: np.ndarray
    first_law: np.ndarray
    ideality_cold_work: np.ndarray
    mode: np.ndarray
    states: np.ndarray
    positions: np.ndarray
    dim: int

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, k: int) -> SteadySolution:
        rho = np.zeros(self.dim * self.dim, dtype=_LD)
        rho[self.positions] = self.states[k]
        rho = rho.reshape(self.dim, self.dim).T  # column-stacked: (i, j) at i + n j
        return SteadySolution(
            rho_inf=rho.astype(complex),
            q_work=float(self.q_work[k]),
            q_hot=float(self.q_hot[k]),
            q_cold=float(self.q_cold[k]),
            cop=float(self.cop[k]),
            entropy_rate=float(self.entropy_rate[k]),
            residuals={name: float(getattr(self, name)[k])
                       for name in ("kernel_residual", "first_law", "ideality_cold_work")},
            mode=str(self.mode[k]),
            rho_ld=rho,
        )


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


class _Generator:
    """One machine as operators: ``cfg`` (its baths and their frequencies),
    a dense Hamiltonian ``ham`` and one dense lowering operator per bath in
    ``jumps``.  :meth:`superop` assembles it by Kronecker products; it is
    the reference generator of the null-space and propagation oracles, and
    no solve builds one."""

    def __init__(self, cfg, ham: np.ndarray, jumps: dict[str, np.ndarray]):
        self.cfg, self.ham, self.jumps = cfg, ham, jumps

    @classmethod
    def for_pump(cls, cfg: PumpConfig) -> _Generator:
        return cls(cfg, build_hamiltonian(cfg),
                   {label: build_jump_operator(cfg, label) for label in _BATHS})

    def superop(self) -> SuperOp:
        """``-i[H, .]`` plus each bath's dissipator at its frequency's rates."""
        matrix = hamiltonian_commutator(self.ham).matrix
        for label in _BATHS:
            rates = decay_rates(self.cfg.bath(label), self.cfg.bath_frequency(label))
            matrix = matrix + build_dissipator(self.jumps[label], rates).matrix
        return SuperOp(self.ham.shape[0], matrix)


# Kept as a name only, for the layer probes of perfbench/layers.py::install_probes
# and their smoke tests: no solve polishes a state.  The benchmark-only change
# of ROADMAP item 1 deletes it.
def _polish_state(*args):
    raise NotImplementedError("no solve polishes a state")


# ---------------------------------------------------------------------------
# the gates of both models' stacked solves


def _solution_from_state(cfg, currents: dict[str, np.ndarray], ham_scale: np.ndarray,
                         rate_scale: np.ndarray, states: np.ndarray, positions: np.ndarray,
                         dim: int, kernel_residual: np.ndarray, gate_ideality: bool,
                         kernel_errors: dict[int, np.linalg.LinAlgError]) -> SteadySolutions:
    """The gated currents of each point of ``cfg``'s machine, as columns.
    ``currents`` holds each bath's (P,) current, ``ham_scale`` and
    ``rate_scale`` the largest |energy| and the largest channel rate
    ``down + up`` at each point, and ``states`` the (P, m) states on the
    ``positions`` of the ``dim x dim`` density matrix.  The first point
    that fails, in the kernel solve (``kernel_errors``, by point index) or a
    gate, raises, naming its ``omega_c``."""
    q_work, q_hot, q_cold = currents["work"], currents["hot"], currents["cold"]
    ham_scale = np.where(ham_scale == 0.0, 1.0, ham_scale)
    # a scale past the double range fails its point; in long double it cannot overflow
    fits = ham_scale.astype(np.longdouble) * rate_scale <= np.finfo(float).max
    current_scale = np.multiply(ham_scale, rate_scale, out=np.full_like(ham_scale, np.inf),
                                where=fits)
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
    boundary = q_max <= noise
    mode = np.where(boundary, "boundary", np.where(q_cold > 0, "chiller", "heat_transformer"))

    gates = (
        (~fits, lambda k: "current scale |H| x rate overflows the double range"),
        (~(kernel_residual <= KERNEL_RTOL),
         lambda k: f"kernel residual {kernel_residual[k]:.3e} > {KERNEL_RTOL:.0e}"),
        (healthy & (first_law > FIRST_LAW_RTOL),
         lambda k: f"first-law residual {first_law[k]:.3e} > {FIRST_LAW_RTOL:.0e}"),
        (gate_ideality & healthy & ~boundary & (ideality > IDEALITY_RTOL),
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

    t_work = effective_temperature(cfg.work, omega_w)
    entropy_rate = -sum(x.astype(np.longdouble) / np.asarray(t, dtype=np.longdouble)
                        for x, t in zip((q_work, q_hot, q_cold),
                                        (t_work, cfg.hot.temperature, cfg.cold.temperature)))
    return SteadySolutions(q_work, q_hot, q_cold, cop, entropy_rate.astype(float),
                           kernel_residual, first_law, ideality, mode, states, positions, dim)


# ---------------------------------------------------------------------------
# the ideal pump: its population balance, solved by GTH elimination


@lru_cache(maxsize=None)
def _population_structure(n: int) -> np.ndarray:
    """The (6, N^2) incidence stack of an N-level ladder's population
    balance, a function of N alone: slice 2k is bath k's downward
    (hi -> lo) incidence and 2k+1 its upward one, for the work, hot and
    cold baths, and every column of each slice sums to zero.  Contracted
    with the six rates it gives the dense rate matrix.  Built once per N and
    read-only, so every caller of that N shares it."""
    stack = np.zeros((6, n, n))
    for k, label in enumerate(_BATHS):
        lo, hi = _transition_levels(n, label)
        # each level is at most once lo and once hi: no entry written twice
        stack[2 * k, lo, hi] = stack[2 * k + 1, hi, lo] = 1.0
        stack[2 * k, hi, hi] = stack[2 * k + 1, lo, lo] = -1.0
    stack = stack.reshape(6, n * n)
    stack.setflags(write=False)
    return stack


def _ladder_rates(n: int, rates) -> tuple[list, ...]:
    """The per-level rates of :func:`_ladder_balance` for an N-level ladder
    from its six bath rates (work, hot, cold; down then up), floats or (P,)
    arrays.  The ladder's edge (k, k+1) is the cold bath's for even k and
    the work bath's for odd k, and the hot bath joins k and k+2
    (:func:`~qpump.pump.transition_pairs`)."""
    work_down, work_up, hot_down, hot_up, cold_down, cold_up = rates
    up1 = ([cold_up, work_up] * (n // 2))[:n - 1] + [0.0]
    down1 = [0.0] + ([cold_down, work_down] * (n // 2))[:n - 1]
    up2 = [hot_up] * (n - 2) + [0.0, 0.0]
    down2 = [0.0, 0.0] + [hot_down] * (n - 2)
    return up1, down1, up2, down2, [0.0] * n


def _ladder_balance(up1, down1, up2, down2, dead):
    """The stationary populations of a ladder's classical master equation
    ``dp/dt = M p``, for float rates or elementwise for arrays of them.

    The arguments list, per level k, its rate to k + 1, k - 1, k + 2 and
    k - 2 (zero where the ladder has no such edge) and a padding out-rate
    ``dead``; entries are floats or arrays.  The populations come from the
    GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1107
    (1985)): eliminate the levels from the top down, folding the paths
    through each eliminated level into the rates between the levels it
    joins, with its out-rate summed from its rates to the levels left.  The
    ladder is banded (edges k, k+1 and k, k+2), and eliminating its top
    level changes only the two rates between the next two, so the
    elimination runs O(N) steps.  It uses only ``+ * /`` on nonnegative
    values, never a subtraction, which makes the populations accurate to a
    few ulps of the working precision however far the rates spread
    (O'Cinneide, Numer. Math. 65, 109 (1993)), and gives a scalar and each
    element of an array the same bits.

    Returns ``(p, total, ok)``: the unnormalized populations
    (``p[0] == 1``), their sum, and whether every eliminated level has a
    positive out-rate; a level without one leaves the chain reducible, and
    divides by 1 instead."""
    n = len(up1)
    u1, d1 = list(up1), list(down1)
    out = [1.0] * n
    ok = True
    for k in range(n - 1, 0, -1):
        s = d1[k] + down2[k] + dead[k]
        ok = ok & (s > 0.0)
        # a level without outflow divides by 1 instead, and its row fails
        s = out[k] = s + (s <= 0.0)
        if k > 1:
            d1[k - 1] = d1[k - 1] + u1[k - 1] * (down2[k] / s)
            u1[k - 2] = u1[k - 2] + up2[k - 2] * (d1[k] / s)
    p = [1.0, u1[0] / out[1]]
    for k in range(2, n):
        p.append((p[k - 1] * u1[k - 1] + p[k - 2] * up2[k - 2]) / out[k])
    total = p[0]
    for pk in p[1:]:
        total = total + pk
    return p, total, ok


@lru_cache(maxsize=None)
def _ladder_edges(n: int) -> tuple[np.ndarray, ...]:
    """The 2N - 3 edges of an N-level ladder, read off
    :func:`_population_structure`: each edge's lower and upper level, and
    the index of its upward rate among the six (its downward rate is the
    one before).  The edges (k, k+1) come first, then the hot bath's
    (k, k+2), each in order of k.  Built once per N and read-only."""
    which, position = np.nonzero(_population_structure(n)[1::2] > 0)
    hi, lo = np.divmod(position, n)
    order = np.lexsort((lo, hi - lo))
    edges = lo[order], hi[order], 2 * which[order] + 1
    for a in edges:
        a.setflags(write=False)
    return edges


def _population_blocks(n: int, rates: np.ndarray, edges=None) -> np.ndarray:
    """The double rate matrices ``M`` of an N-level ladder at P points,
    (P, N, N), from its (6, P) rates: each rate at its entry of
    :func:`_population_structure`, and each level's out-rate, summed from
    its column, negated on the diagonal.  That is the generator's block on
    the populations up to the rounding of its diagonal.  The rates are
    placed, not multiplied, so an infinite rate leaves no inf x 0, and an
    out-rate past the double range is inf with no overflow warning, so that
    the kernel solve fails its point as non-finite.  ``edges`` gives another chain's
    edges in the form of :func:`_ladder_edges`, indexing its own rates."""
    lo, hi, rise = _ladder_edges(n) if edges is None else edges
    m = np.zeros((rates.shape[-1], n, n))
    m[:, hi, lo] = rates[rise].T
    m[:, lo, hi] = rates[rise - 1].T
    with np.errstate(over="ignore"):
        m.reshape(-1, n * n)[:, :: n + 1] = -m.sum(axis=1)
    return m


# Dekker's splitting factor for the long-double format: each half of a split
# holds at most half the mantissa's bits, so the product of two halves is exact
_SPLIT = np.longdouble(2 ** -(-(np.finfo(np.longdouble).nmant + 1) // 2) + 1)


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split ``x == hi + lo`` of long doubles (Dekker, Numer. Math.
    18, 224 (1971)): ``hi`` holds the upper half of the mantissa's bits, and
    ``|lo|`` is at most ``2**-32 |x|`` in the x87 format."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _edge_fluxes(p: np.ndarray, up: np.ndarray, down: np.ndarray, lo: np.ndarray,
                 hi: np.ndarray) -> np.ndarray:
    """The net upward flux ``p[lo] * up - p[hi] * down`` of each edge, good
    to an ulp of itself, not of the one-way flows whose small difference it
    is.  The products of the populations' upper halves with the rates'
    halves are exact, and the lower halves' products with the rates are
    ``2**-32`` of the flows, so that their rounding is far below the net
    flux."""
    (ah, al), (bh, bl) = _halves(p[lo]), _halves(p[hi])
    (uh, ul), (dh, dl) = _halves(up), _halves(down)
    return (ah * uh - bh * dh) + ((ah * ul - bh * dl) + (al * up - bl * down))


def _refined_fluxes(p: np.ndarray, inv: np.ndarray, block: np.ndarray, up: np.ndarray,
                    down: np.ndarray, lo: np.ndarray, hi: np.ndarray, inflow
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact net fluxes of a chain's edges at P points, after one
    refinement step of its normalized long-double populations ``p``, (N, P),
    which it refines in place.  ``block`` holds the chain's double rate
    matrices, ``inv`` the kernel solve's inverses of their trace-row
    matrices, ``up``/``down`` the long-double rates and ``lo``/``hi`` the
    levels of the edges, and ``inflow(flux)`` gives each level's net inflow
    ``(M p)_k``, (N, P), from the edges' net upward fluxes.  The
    populations keep the few ulps of their elimination, which the exact
    fluxes (:func:`_edge_fluxes`) resolve, so the step, through the
    inverses against the net inflows, takes them out; it is added to the
    fluxes as well.  Returns the fluxes, the populations' total, and the
    kernel residual of the net inflows, ``max |M p| / max|M|``."""
    flux = _edge_fluxes(p, up, down, lo, hi)
    resid = -inflow(flux)
    resid[0] = 1.0 - p.sum(axis=0)
    delta = (inv @ resid.T.astype(float)[..., None])[..., 0].T.astype(np.longdouble)
    # the step is a few ulps of the populations: its fluxes need no care
    flux += delta[lo] * up - delta[hi] * down
    p += delta
    total = p.sum(axis=0)
    residual = np.abs(inflow(flux)).max(axis=0) / (np.abs(block).max(axis=(1, 2)) * total)
    return flux, total, residual


def _bath_rates(cfg) -> np.ndarray:
    """The six double rates of ``cfg``'s baths (work, hot, cold; down then
    up) at each point, (6, P), from one :func:`~qpump.pump.decay_rates`
    call per bath."""
    pairs = [decay_rates(cfg.bath(label), cfg.bath_frequency(label)) for label in _BATHS]
    return np.array(np.broadcast_arrays(*(r for pair in pairs for r in (pair.down, pair.up))),
                    dtype=float).reshape(6, -1)


def _net_inflow(flux: np.ndarray, n: int) -> np.ndarray:
    """Each level's net inflow ``(M p)_k``, (N, P), from the net upward
    fluxes of the edges of :func:`_ladder_edges`, in its order."""
    near, hot = flux[:n - 1], flux[n - 1:]
    net = np.zeros((n, flux.shape[1]), dtype=flux.dtype)
    net[1:] += near
    net[:-1] -= near
    net[2:] += hot
    net[:-2] -= hot
    return net


def _ladder_currents(cfg, flux: np.ndarray, total: np.ndarray) -> dict[str, np.ndarray]:
    """Each bath's heat current at each point: its energy gap in long
    double times the net flux up its own edges of the ladder, over the
    populations' total.  ``flux`` holds the (E, P) net upward fluxes of the
    edges of :func:`_ladder_edges`, in its order: the edge (k, k+1) is the
    cold bath's for even k and the work bath's for odd k.  Positive for
    energy flowing from the bath into the pump."""
    n = cfg.n_levels
    omega_c, omega_h = (np.asarray(w, dtype=np.longdouble) for w in (cfg.omega_c, cfg.omega_h))
    gaps = {"work": omega_h - omega_c, "hot": omega_h, "cold": omega_c}
    # (P, E) rows, so that each point's sums run in one order for any P
    rows = np.ascontiguousarray(flux.T)
    fluxes = {"work": rows[:, 1:n - 1:2], "hot": rows[:, n - 1:], "cold": rows[:, 0:n - 1:2]}
    return {label: (gaps[label] * (fluxes[label].sum(axis=1) / total)).astype(float)
            for label in _BATHS}


def solve(cfg: PumpConfig) -> SteadySolution:
    """Stationary state and heat currents of an ideal pump.

    The generator maps diagonal states to diagonal states, and the
    coherences decouple and decay, so the stationary state is diagonal: its
    populations solve the pump's classical master equation.  They come
    from the GTH elimination of :func:`_ladder_balance` in long double, the
    body that also gives the optimizer's ``q_cold``, and each current is
    its bath's energy gap times the exact net flux on its edges.  The
    solution is gated on the kernel residual, the first law and (for the
    ideal pump, whose currents are locked to the transition frequencies)
    the ideality identity ``|q_c/q_w| = w_c/w_w``.  It is a stack of one
    point of :func:`_solve_pumps`.

    Raises
    ------
    DegenerateKernelError, NoKernelError
        Propagated from the kernel extraction.
    NonConvergedError
        A residual gate failed.
    """
    return _solve_pumps(cfg)[0]


def _solve_pumps(cfg) -> SteadySolutions:
    """:func:`solve` at every point of ``cfg``, whose frequencies may be (P,)
    arrays, as one stacked solve.

    The kernel decisions are those of the generator's block on the
    populations, the double rate matrix, in
    :func:`~qpump.linalg._stationary_vectors`: a non-finite matrix fails its
    point, one stacked inversion of the trace-row matrices gives each
    point's condition, and a point below the floor goes to the SVD
    diagnostics, which either let it stand or give its kernel error.  The states are the GTH populations in long double,
    and the currents come from their exact net fluxes
    (:func:`_edge_fluxes`).  The populations keep the few ulps of the
    elimination, which those fluxes resolve, so one refinement step
    through the kernel solve's inverses, against the net inflows, takes
    them out first (:func:`_refined_fluxes`).  The kernel residual is that of the net inflows,
    ``max |M p| / max|M|``."""
    n = cfg.n_levels
    rates = _bath_rates(cfg)
    block = _population_blocks(n, rates)
    _, inv, errors = _stationary_vectors(block, np.ones(n))
    rates_ld = rates.astype(np.longdouble)
    lo, hi, rise = _ladder_edges(n)
    up, down = rates_ld[rise], rates_ld[rise - 1]
    # a point with a kernel error is raised when the points are judged;
    # what its arithmetic gives here does not count
    with np.errstate(all="ignore") if errors else contextlib.nullcontext():
        p, total, ok = _ladder_balance(*_ladder_rates(n, rates_ld))
        # each point's N populations contiguous, as the fridge's (P, 8) rows
        # are, so that its sums run in one order for any P
        p = np.array([np.ones_like(total), *p[1:]], order="F") / total
        flux, total, residual = _refined_fluxes(p, inv, block, up, down, lo, hi,
                                                lambda f: _net_inflow(f, n))
        currents = _ladder_currents(cfg, flux, total)
    # |H|, the top level's energy, in long double as the generator holds it
    top = _level_energy(n, *(np.asarray(w, dtype=np.longdouble) for w in (cfg.omega_h,
                                                                          cfg.omega_c)))
    return _solution_from_state(cfg, currents, np.atleast_1d(top).astype(float),
                                (rates[0::2] + rates[1::2]).max(axis=0), (p / total).T,
                                np.arange(n) * (n + 1), n,
                                np.where(ok, residual, np.inf).astype(float), True, errors)


# ---------------------------------------------------------------------------
# per-level current decomposition


@dataclass(frozen=True)
class CurrentDecomposition:
    """Per-level breakdown of each heat current.

    ``work_levels``/``work_terms``: odd levels ``2n+1`` and their
    contributions ``w_w <2n+1| D_w rho |2n+1>``; ``cold_levels``/``cold_terms``:
    even levels ``2n`` with ``w_c <2n| D_c rho |2n>``; ``hot_levels`` carries
    all levels with ladder weight ``ceil(n/2)-1`` applied.  Levels are
    1-based.  Each series sums to the corresponding current of ``solve()``,
    which :func:`heat_currents_decomposed` checks.
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
    """Per-level current sums, cross-checked against ``solve()``'s currents.

    Each bath's term at a level is the net inflow of its edges there, from
    the exact net fluxes (:func:`_edge_fluxes`) on the populations of
    ``solution``.  The summed decomposition must reproduce the solution's
    currents to 1e-10 relative (it is the same flux data regrouped, so a
    mismatch flags an index-bookkeeping bug, not precision loss).
    """
    if solution is None:
        solution = solve(cfg)
    n = cfg.n_levels
    lo, hi, rise = _ladder_edges(n)
    rates = _bath_rates(cfg).astype(np.longdouble)
    p = np.real(np.diagonal(solution.rho_ld))[:, None]
    flux = _edge_fluxes(p, rates[rise], rates[rise - 1], lo, hi)
    # one column per bath, of the edges whose upward rate is its own (1, 3, 5)
    inflow = _net_inflow(np.where(rise[:, None] == [1, 3, 5], flux, 0.0), n).astype(float)
    diag = dict(zip(_BATHS, inflow.T))

    w_levels = np.array([2 * k + 1 for k in range(1, (n + 1) // 2)])
    w_terms = cfg.omega_w * diag["work"][w_levels - 1]
    c_levels = np.array([2 * k for k in range(1, n // 2 + 1)])
    c_terms = cfg.omega_c * diag["cold"][c_levels - 1]
    h_levels = np.arange(1, n + 1)
    h_weights = np.array([math.ceil(k / 2) - 1 for k in h_levels], dtype=float)
    h_terms = cfg.omega_h * h_weights * diag["hot"]

    dec = CurrentDecomposition(w_levels, w_terms, h_levels, h_terms, c_levels, c_terms)
    q_scale = max(max(abs(x) for x in solution.currents.values()), 1e-300)
    for label, total in dec.totals.items():
        ref = solution.currents[label]
        if abs(total - ref) > 1e-10 * max(abs(ref), 1e-3 * q_scale):
            raise AssertionError(
                f"{label} decomposition {total!r} disagrees with the solved current {ref!r}"
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
