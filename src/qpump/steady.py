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

Numerical note: at strongly disparate rate scales (~10^5 at the reference
parameter set) the net fluxes are small differences of large one-way flows,
and plain differences of double products floor the first-law residual near
1e-9 of the largest current.  Both models are solved in double, from double
rates (the rate body of :func:`~qpump.pump.decay_rates`; the first law holds
for the machine as built), but each net flux is taken from exact products
of Dekker-split halves (:func:`_edge_fluxes`), good to an ulp of itself, and
two refinement steps take the populations' rounding out of the fluxes
(:func:`_refined_fluxes`).  The currents are then within a few ulps of a
50-digit solve of the same rates (4.4e-16 of the largest current), and
``long double`` remains only in the rate-equation oracle
(:func:`pauli_rate_oracle`).

Both machines' stationary populations solve a classical chain: the ideal
pump's diagonal state the banded ladder of :func:`_ladder`, the three-qubit
fridge's, once its coherence pair is eliminated, an exact eight-state chain
(:data:`qpump.three_qubit._FRIDGE`).  Each chain is one record,
:class:`_Chain`, and both solve through :func:`_solve_chain`: the rate
matrices and their kernel verdicts (non-finite rates, exact singularity
and the condition floor; no SVD), the model's subtraction-free GTH
elimination (:func:`_ladder_balance`, which also gives the optimizer's
``q_cold``, or the fridge's dense one), the exact fluxes after the
refinement steps, the currents and one gate body per point, with no
generator.  A characteristic curve is one stacked solve over a leading
point axis, a single solve a stack of one, and a stack's results are one
set of columns, :class:`SteadySolutions`.  The whole generator, which only
the oracles use, is assembled by the Kronecker-product builders below
(:class:`_Generator`), and its kernel vector (:func:`stationary_vector`)
is the only one that can fall back to an SVD.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from functools import lru_cache
from operator import itemgetter

import numpy as np

from .linalg import SuperOp, _kernel_decisions
# Kept importable for the layer probes of perfbench/layers.py::install_probes;
# the solve itself goes through _kernel_decisions.
from .linalg import stationary_vector  # noqa: F401
from .pump import (
    PumpConfig,
    RatePair,
    _level_energy,
    _rates,
    build_hamiltonian,
    build_jump_operator,
    decay_rates,
    effective_temperatures,
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

_BATHS = ("work", "hot", "cold")

# Solver acceptance gates, from double-precision conditioning of the dense
# kernel solve at these dimensions.  All relative; see solve() for scales.
KERNEL_RTOL = 1e-10
FIRST_LAW_RTOL = 1e-10
IDEALITY_RTOL = 1e-8
# The natural current scale is |H| times the largest channel rate; the
# assembly floor of the net fluxes sits ~1e-16 of it.  Currents below
# _GATE_FRACTION of the scale are too close to that floor for relative
# residual gates to be meaningful; below _MODE_FRACTION they are
# numerically indistinguishable from zero (reversible point, equilibrium).
_GATE_FRACTION = 1e-10
_MODE_FRACTION = 1e-15
_SCALE_OVERFLOW = "current scale |H| x rate overflows the double range"
# a point's mode by its index: 0 if q_cold > 0, 1 if not, 2 at the boundary
_MODES = np.array(["chiller", "heat_transformer", "boundary"])


class NonConvergedError(RuntimeError):
    """The steady-state solve finished but failed a residual gate."""


@dataclass(frozen=True)
class SteadySolution:
    """Stationary state of one pump configuration with its heat bookkeeping.

    ``residuals`` carries the named diagnostics ``kernel_residual``
    (sup-norm of the rate matrix on the populations relative to its own),
    ``first_law`` (|q_w + q_h + q_c| relative to the largest current) and
    ``ideality_cold_work`` (relative deviation of |q_c/q_w| from w_c/w_w;
    gated for the ideal pump, reported only for the three-qubit model).
    ``mode`` is "chiller", "heat_transformer" or "boundary" (reversible
    point / equilibrium).
    """

    rho_inf: np.ndarray
    q_work: float
    q_hot: float
    q_cold: float
    cop: float
    entropy_rate: float
    residuals: dict[str, float]
    mode: str
    # the exact net upward flux of each edge of the machine's chain, after
    # the refinement steps, and the refined populations' total, of which the
    # currents are sums: the per-level current bookkeeping regroups them, so
    # that decompositions match the currents beyond the rounding of the state
    edge_fluxes: np.ndarray
    population_total: float

    @property
    def currents(self) -> dict[str, float]:
        return {"work": self.q_work, "hot": self.q_hot, "cold": self.q_cold}


@dataclass(frozen=True)
class SteadySolutions:
    """The solutions of one machine at the P points of a stacked solve, as
    columns: each field but the last four is a (P,) array of the
    :class:`SteadySolution` field (or residual) of that name.
    ``edge_fluxes`` holds each point's (P, E) edge fluxes.  ``states``
    holds each point's stationary state, (P, m), on ``positions``, the m
    column-stacked positions of the ``dim x dim`` density matrix that the
    solve acts on (the fridge's populations and coherence pair, complex, the
    pump's diagonal, real); it is zero elsewhere.  ``solutions[k]`` is
    point k as a :class:`SteadySolution`; only there are its dense states
    made."""

    q_work: np.ndarray
    q_hot: np.ndarray
    q_cold: np.ndarray
    cop: np.ndarray
    entropy_rate: np.ndarray
    kernel_residual: np.ndarray
    first_law: np.ndarray
    ideality_cold_work: np.ndarray
    mode: np.ndarray
    population_total: np.ndarray
    edge_fluxes: np.ndarray
    states: np.ndarray
    positions: np.ndarray
    dim: int

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, k: int) -> SteadySolution:
        rho = np.zeros(self.dim * self.dim, dtype=complex)
        rho[self.positions] = self.states[k]
        return SteadySolution(
            rho_inf=rho.reshape(self.dim, self.dim).T,  # column-stacked: (i, j) at i + n j
            q_work=float(self.q_work[k]), q_hot=float(self.q_hot[k]),
            q_cold=float(self.q_cold[k]), cop=float(self.cop[k]),
            entropy_rate=float(self.entropy_rate[k]),
            residuals={name: float(getattr(self, name)[k])
                       for name in ("kernel_residual", "first_law", "ideality_cold_work")},
            mode=str(self.mode[k]), edge_fluxes=self.edge_fluxes[k],
            population_total=float(self.population_total[k]))


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


def _current_scale(ham_scale, rate_scale):
    """The current scale |H| x rate (|H| as 1 where it is 0) and whether it
    fits: past the double range it is inf or NaN (on arrays, under the
    caller's errstate), and fails its point in the gates and at the maximizer."""
    scale = (ham_scale + (ham_scale == 0.0)) * rate_scale
    return scale, np.isfinite(scale)


def _solution_from_state(cfg, currents: np.ndarray, flux: np.ndarray,
                         total: np.ndarray, ham_scale, rate_scale: np.ndarray,
                         states: np.ndarray, positions: np.ndarray, dim: int,
                         kernel_residual: np.ndarray, gate_ideality: bool,
                         kernel_errors: dict[int, np.linalg.LinAlgError]) -> SteadySolutions:
    """The gated currents of each point of ``cfg``'s machine, as columns.
    ``currents`` holds the baths' (3, P) currents, ``flux`` and ``total`` the
    (E, P) edge fluxes and the (P,) population totals of which they are
    sums, ``ham_scale`` and ``rate_scale`` the largest |energy| and channel
    rate ``down + up`` at each point, and ``states`` the (P, m) states on the
    ``positions`` of the ``dim x dim`` density matrix.  The first point that
    fails, in the kernel solve (``kernel_errors``, by point index) or a
    gate, raises, naming its ``omega_c``."""
    q_work, q_hot, q_cold = currents
    with np.errstate(over="ignore", invalid="ignore"):  # a scale past the range fails its point
        current_scale, fits = _current_scale(ham_scale, rate_scale)
    noise = _MODE_FRACTION * current_scale
    size = np.abs(currents)
    q_max = size.max(axis=0)
    # Relative gates are only meaningful when the currents stand well clear
    # of the numerical noise floor of the current assembly.
    healthy = q_max > _GATE_FRACTION * current_scale

    # the rows' sum runs (q_work + q_hot) + q_cold
    first_law = np.abs(currents.sum(axis=0)) / np.maximum(q_max, noise)
    working = size[0] > noise
    cop = np.divide(q_cold, q_work, out=np.zeros_like(q_cold), where=working)
    ideality = np.where(working, np.abs(np.abs(cop) / (cfg.omega_c / cfg.omega_w) - 1.0), 0.0)
    boundary = q_max <= noise
    mode = _MODES[np.where(boundary, 2, ~(q_cold > 0))]

    # a healthy point is no boundary point (_GATE_FRACTION > _MODE_FRACTION)
    failed = ~(fits & (kernel_residual <= KERNEL_RTOL)) | healthy & (
        first_law > FIRST_LAW_RTOL if not gate_ideality
        else (first_law > FIRST_LAW_RTOL) | (ideality > IDEALITY_RTOL))
    if kernel_errors:
        failed[list(kernel_errors)] = True
    if failed.any():
        k = int(np.argmax(failed))
        at = f" at omega_c={float(np.atleast_1d(cfg.omega_c)[k])!r}"
        if k in kernel_errors:
            raise type(kernel_errors[k])(f"{kernel_errors[k]}{at}")
        # the first gate that the point fails
        message = (_SCALE_OVERFLOW if not fits[k] else
                   f"kernel residual {kernel_residual[k]:.3e} > {KERNEL_RTOL:.0e}"
                   if not kernel_residual[k] <= KERNEL_RTOL else
                   f"first-law residual {first_law[k]:.3e} > {FIRST_LAW_RTOL:.0e}"
                   if first_law[k] > FIRST_LAW_RTOL else
                   f"ideality residual {ideality[k]:.3e} > {IDEALITY_RTOL:.0e}")
        raise NonConvergedError(message + at)

    # a plain work bath's own temperature, not its occupation's round trip
    t_work, t_hot, t_cold = effective_temperatures(cfg, cfg.omega_w)
    entropy = -(q_work / t_work + q_hot / t_hot + q_cold / t_cold)
    return SteadySolutions(q_work, q_hot, q_cold, cop, entropy,
                           kernel_residual, first_law, ideality, mode, total, flux.T, states,
                           positions, dim)


# ---------------------------------------------------------------------------
# a machine's population balance as a classical chain, and its stacked solve


@dataclass(frozen=True, eq=False)
class _Chain:
    """A machine's population balance as a classical chain of E edges, built
    once per machine and read-only.  ``lo`` and ``hi`` hold each edge's lower
    and upper level, ``rise`` the index of its upward rate among the
    chain's rates (its downward rate is the one before), and ``baths`` the
    slice of the edges whose net flux is each bath's (work, hot, cold)
    current.  ``touch`` and ``sign``, (N, D), hold each level's edges, in
    their order, and the sign of each one's net upward flux in the level's
    net inflow: +1 into its upper level, -1 out of its lower one, and 0 for
    the padding of a level with fewer than D edges.  ``ends`` and ``pair``,
    (2E,), hold the edges' lower levels and upward rates, then their upper
    levels and downward rates, and ``slots`` those rates' flat entries in M."""

    lo: np.ndarray
    hi: np.ndarray
    rise: np.ndarray
    baths: tuple[slice, slice, slice]
    touch: np.ndarray = field(init=False)
    sign: np.ndarray = field(init=False)
    ends: np.ndarray = field(init=False)
    pair: np.ndarray = field(init=False)
    slots: np.ndarray = field(init=False)

    def __post_init__(self):
        level = np.arange(n := self.hi.max() + 1)[:, None]
        ends = (self.lo == level) | (self.hi == level)
        # each level's own edges first, in their order, then others at sign 0
        touch = np.argsort(~ends, axis=1, kind="stable")[:, :ends.sum(axis=1).max()]
        sign = 1.0 * (self.hi[touch] == level) - (self.lo[touch] == level)
        for name, a in (("touch", touch), ("sign", sign), ("ends", np.r_[self.lo, self.hi]),
                        ("pair", np.r_[self.rise, self.rise - 1]),
                        ("slots", np.r_[self.hi * n + self.lo, self.lo * n + self.hi])):
            object.__setattr__(self, name, a)
        for a in (self.lo, self.hi, self.rise, touch, sign, self.ends, self.pair, self.slots):
            a.setflags(write=False)

    def blocks(self, rates: np.ndarray) -> np.ndarray:
        """The double rate matrices ``M`` at P points, (P, N, N), from the
        chain's (R, P) rates: each rate at its edge's entry, and each level's
        out-rate, summed from its column, negated on the diagonal.  That is
        the generator's block on the populations up to the rounding of its
        diagonal.  The rates are placed, not multiplied, so an infinite rate
        leaves no inf x 0, and an out-rate past the double range is inf with
        no overflow warning, so that the kernel solve fails its point as
        non-finite."""
        n = len(self.touch)
        m = np.zeros((rates.shape[-1], n, n))
        m.reshape(-1, n * n)[:, self.slots] = rates[self.pair].T
        with np.errstate(over="ignore"):
            m.reshape(-1, n * n)[:, :: n + 1] = -m.sum(axis=1)
        return m

    def inflow(self, flux: np.ndarray) -> np.ndarray:
        """Each level's net inflow ``(M p)_k``, (N, P), from the (E, P) net
        upward fluxes of the edges, each level's summed in one order at any P."""
        return (self.sign[..., None] * flux[self.touch]).sum(axis=1)

    def currents(self, gaps, flux: np.ndarray, total: np.ndarray) -> np.ndarray:
        """Each bath's heat current at each point, (3, P): its energy gap in
        ``gaps`` (work, hot, cold) times the net flux up its edges, from the
        (E, P) net upward ``flux``, over the populations' total.  Positive
        for energy flowing from the bath into the machine."""
        # (P, E) rows, so that each point's sums run in one order for any P
        rows = np.ascontiguousarray(flux.T)
        q = np.array([rows[:, edges].sum(axis=1) for edges in self.baths]) / total
        for row, gap in zip(q, gaps):
            row *= gap
        return q


# Dekker's splitting factor for doubles: each half of a split holds at most
# 26 of the mantissa's 53 bits, so the product of two halves is exact
_SPLIT = 2.0 ** 27 + 1.0
# the exponent of the largest value that the split takes without overflow:
# 2^996 (2^27 + 1) is below the largest double
_SPLIT_EXPONENT = 996


def _halves(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split ``x == hi + lo`` of doubles (Dekker, Numer. Math. 18,
    224 (1971)): ``hi`` holds the upper 26 bits of the mantissa, and
    ``|lo|`` is at most ``2**-26 |x|``.  ``|x|`` must be below
    ``2**_SPLIT_EXPONENT``."""
    c = x * _SPLIT
    hi = c - (c - x)
    return hi, x - hi


def _edge_fluxes(p: np.ndarray, rates: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The net upward flux ``p[lo] * up - p[hi] * down`` of each of E edges
    at each point, (E, P), from their (2E, P) ``rates`` and ``ends`` (see
    :class:`_Chain`), good to an ulp of itself, not of the one-way flows
    whose small difference it is.  The products of the populations' upper
    halves with the rates' halves are exact, and the lower halves' products
    with the rates are ``2**-26`` of the flows, so that their rounding is far
    below the net flux.  Each point's rates are split after scaling by a
    power of two, which takes the largest below ``2**_SPLIT_EXPONENT`` (and
    leaves smaller ones as they are), and the fluxes are scaled back: both
    steps are exact, so a point's fluxes are those of its rates unscaled."""
    top = np.frexp(rates.max(axis=0))[1]
    scale = np.ldexp(1.0, np.minimum(_SPLIT_EXPONENT - top, 0))
    rates = rates * scale
    (ph, pl), (rh, rl) = _halves(p[ends]), _halves(rates)
    e = len(ends) // 2
    hh, hl, lr = ph * rh, ph * rl, pl * rates
    return ((hh[:e] - hh[e:]) + ((hl[:e] - hl[e:]) + (lr[:e] - lr[e:]))) / scale


# A refinement step through the double inverses leaves about cond(M) eps of
# the populations' error.  After one, the currents of a saturated work bath,
# whose one-way flows are 1e11 times the net ones, are off by up to 3e-12 of
# the largest; after two they are within a few ulps of a 50-digit solve.
_REFINEMENT_STEPS = 2


def _refined_fluxes(p: np.ndarray, inv: np.ndarray, scale: np.ndarray, rates: np.ndarray,
                    chain: _Chain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exact net fluxes of ``chain``'s edges at P points, (E, P), after
    ``_REFINEMENT_STEPS`` refinement steps of its normalized populations
    ``p``, (N, P), which it refines in place, from the kernel decisions'
    inverses ``inv`` and ``scale`` (max|M|) and the chain's (R, P) rates.
    The populations keep the few ulps of their elimination, which the exact
    fluxes (:func:`_edge_fluxes`) resolve, so each step, through the
    inverses against the net inflows, takes them out of the populations and
    the fluxes.  Returns the fluxes, the populations' total, and the kernel
    residual of the net inflows, ``max |M p| / max|M|``."""
    e, rates = len(chain.lo), rates[chain.pair]
    flux = _edge_fluxes(p, rates, chain.ends)
    for _ in range(_REFINEMENT_STEPS):
        # the step's negation, against the negated residual: both exact
        resid = chain.inflow(flux)
        resid[0] = p.sum(axis=0) - 1.0
        step = (inv @ resid.T[..., None])[..., 0].T
        # the step is a few ulps of the populations: its fluxes need no care
        moved = step[chain.ends] * rates
        flux -= moved[:e] - moved[e:]
        p -= step
    total = p.sum(axis=0)
    residual = np.abs(chain.inflow(flux)).max(axis=0) / (scale * total)
    return flux, total, residual


def _bath_rates(cfg) -> np.ndarray:
    """The six double rates of ``cfg``'s baths (work, hot, cold; down then up)
    at each point, (6, P), from the rate body, which its config checked."""
    rates = np.empty((6, np.size(cfg.omega_c)))
    for k, label in enumerate(_BATHS):
        rates[2 * k], rates[2 * k + 1] = _rates(cfg.bath(label), cfg.bath_frequency(label))
    return rates


def _solve_chain(cfg, chain: _Chain, rates: np.ndarray, balance, ham_scale,
                 gate_ideality: bool, state) -> SteadySolutions:
    """The stacked solve of ``chain`` at the P points of ``cfg``, from its
    (R, P) rates, whose first six are the baths' (work, hot, cold; down then
    up); both models solve here.  The kernel verdicts are those of the
    chain's rate matrices, screened as one stack as the optimizer's
    maximizers are (:func:`~qpump.linalg._kernel_decisions`): a point passes
    there at twice the condition floor, or by
    :func:`~qpump.linalg._matrix_verdict` on its own matrix, which alone
    fails a point; such a point is raised, with NaN for its inverse.
    ``balance(rates)`` gives the model's GTH populations, normalized, (N, P)
    with each point's contiguous, and whether every eliminated level had a
    positive out-rate; two refinement steps through the verdicts' inverses
    take the elimination's few ulps out of the exact net fluxes
    (:func:`_refined_fluxes`).  Each bath's current is its frequency, its
    edges' gap, times their net flux, and the kernel residual is that of the
    net inflows.  ``state(p)`` gives the (P, m) states of the refined
    populations, their positions and the matrix dimension, and
    ``ham_scale`` is |H| at each point."""
    inv, errors, scale = _kernel_decisions(chain.blocks(rates), np.ones(len(chain.touch)))
    # a point with a kernel error is raised when the points are judged;
    # what its arithmetic gives here does not count
    with np.errstate(all="ignore") if errors else contextlib.nullcontext():
        p, ok = balance(rates)
        flux, total, residual = _refined_fluxes(p, inv, scale, rates, chain)
        currents = chain.currents((cfg.omega_w, cfg.omega_h, cfg.omega_c), flux, total)
        states = state(p / total)
    return _solution_from_state(cfg, currents, flux, total, ham_scale,
                                (rates[0:6:2] + rates[1:6:2]).max(axis=0), *states,
                                np.where(ok, residual, np.inf), gate_ideality, errors)


# ---------------------------------------------------------------------------
# the ideal pump: its population balance, solved by GTH elimination


@lru_cache(maxsize=None)
def _ladder(n: int) -> _Chain:
    """The N-level ladder's chain of six rates (work, hot, cold; down then
    up): its edges (k, k+1), the cold bath's for even k and the work
    bath's for odd k, then the hot bath's (k, k+2), each in order of k
    (:func:`~qpump.pump.transition_pairs`).  The ladder's only description: its matrices
    (:meth:`_Chain.blocks`, :func:`_ladder_entries`) and :func:`_ladder_slots` derive from it."""
    k = np.arange(n - 1)
    return _Chain(np.r_[k, k[:-1]], np.r_[k + 1, k[1:] + 1], np.r_[5 - 4 * (k % 2), [3] * (n - 2)],
                  (slice(1, n - 1, 2), slice(n - 1, None), slice(0, n - 1, 2)))


@lru_cache(maxsize=None)
def _ladder_slots(n: int, levels: int) -> np.ndarray:
    """The (5, levels) read-only slot table of the N-level ladder padded to
    ``levels``, from its edges' rates (upward the lower level's, downward,
    the rate before, the upper's): per level k, the index among the six
    rates of its rate to k + 1, k - 1, k + 2 and k - 2, or 6, a zero, then
    its dead out-rate, 7, a one, on a padding level (k >= N), else 6."""
    chain, slots = _ladder(n), np.full((5, levels), 6)
    slots[4, n:] = 7
    up = 2 * (chain.hi - chain.lo - 1)  # row 0 for an edge (k, k+1), row 2 for (k, k+2)
    slots[up, chain.lo], slots[up + 1, chain.hi] = chain.rise, chain.rise - 1
    slots.setflags(write=False)
    return slots


@lru_cache(maxsize=None)
def _ladder_entries(n: int, levels: int) -> np.ndarray:
    """The read-only flat entry table of the N-level ladder's rate matrix padded to
    ``levels``: each entry's index among the six rates (:meth:`_Chain.blocks`), else 6, a zero."""
    chain, entries = _ladder(n), np.full((levels, levels), 6)
    entries[np.r_[chain.hi, chain.lo], chain.ends] = chain.pair
    entries.setflags(write=False)
    return entries.reshape(-1)


@lru_cache(maxsize=None)
def _ladder_getters(n: int) -> tuple[itemgetter, ...]:
    """The unpadded slot table's four rate rows as item getters: four C calls a step."""
    return tuple(itemgetter(*row) for row in _ladder_slots(n, n)[:4].tolist())


def _ladder_rates(n: int, rates) -> tuple[tuple, ...]:
    """The per-level rates of :func:`_ladder_balance` for an N-level ladder, with
    no padding, gathered by its slot table from its six rates, floats or (P,) arrays."""
    rates, (up1, down1, up2, down2) = (*rates, 0.0), _ladder_getters(n)
    return up1(rates), down1(rates), up2(rates), down2(rates), None


def _ladder_balance(up1, down1, up2, down2, dead):
    """The stationary populations of a ladder's classical master equation
    ``dp/dt = M p``, for float rates or elementwise for arrays of them.

    The arguments list, per level k, its rate to k + 1, k - 1, k + 2 and
    k - 2 (zero where the ladder has no such edge) and a padding out-rate
    ``dead`` (None with no padding), as the slot table gathers them, floats
    or arrays.  The populations come from the GTH elimination (Grassmann,
    Taksar & Heyman, Oper. Res. 33, 1107 (1985)): eliminate the levels from
    the top down, folding the paths through each eliminated level into the
    rates between the levels it joins, with its out-rate summed from its
    rates to the levels left.  The ladder is banded (edges k, k+1 and k,
    k+2), and eliminating its top level changes only the two rates between
    the next two, so the elimination runs O(N) steps.  It uses only
    ``+ * /`` on nonnegative values, never a subtraction, which makes the
    populations accurate to a few ulps of the working precision however far
    the rates spread (O'Cinneide, Numer. Math. 65, 109 (1993)), and gives a
    scalar and each element of an array the same bits.

    Returns ``(p, total, ok)``: the unnormalized populations
    (``p[0] == 1``), their sum, and whether every eliminated level has a
    positive out-rate; a level without one leaves the chain reducible, and
    divides by 1 instead."""
    n = len(up1)
    u1, d1 = list(up1), list(down1)
    out = [1.0] * n
    ok = True
    for k in range(n - 1, 0, -1):
        s = d1[k] + down2[k] if dead is None else d1[k] + down2[k] + dead[k]
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


def solve(cfg: PumpConfig) -> SteadySolution:
    """Stationary state and heat currents of an ideal pump.

    The generator maps diagonal states to diagonal states, and the
    coherences decouple and decay, so the populations of the diagonal
    stationary state solve the pump's classical master equation, by the
    GTH elimination of :func:`_ladder_balance`; each current is its bath's
    energy gap times the exact net flux on its edges.  Gated on the kernel
    residual, the first law and the ideality identity ``|q_c/q_w| =
    w_c/w_w``; a stack of one point of :func:`_solve_pumps`.

    Raises
    ------
    DegenerateKernelError, NoKernelError
        Propagated from the kernel extraction.
    NonConvergedError
        A residual gate failed.
    ValueError
        ``cfg`` is a stack of (P,) frequencies, which :func:`_solve_pumps` solves.
    """
    cfg._check_one_point("steady._solve_pumps")
    return _solve_pumps(cfg)[0]


def _solve_pumps(cfg: PumpConfig) -> SteadySolutions:
    """:func:`solve` at every point of ``cfg``, whose ``omega_h`` and
    ``omega_c`` may be (P,) arrays, one pump per element, as one stacked
    solve of the ladder's chain (:func:`_solve_chain`) by the banded GTH
    elimination of :func:`_ladder_balance`.  Its states are the populations,
    on the diagonal, and its currents are gated on the ideality identity too."""
    n = cfg.n_levels

    def balance(rates):
        p, total, ok = _ladder_balance(*_ladder_rates(n, rates))
        # each point's N populations contiguous, as the fridge's (P, 8) rows
        # are, so that its sums run in one order for any P
        return np.array([np.ones_like(total), *p[1:]], order="F") / total, ok

    # |H| is the top level's energy
    return _solve_chain(cfg, _ladder(n), _bath_rates(cfg), balance,
                        _level_energy(n, cfg.omega_h, cfg.omega_c), True,
                        lambda p: (p.T, np.arange(n) * (n + 1), n))


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
        return {label: float(getattr(self, f"{label}_terms").sum()) for label in _BATHS}


def heat_currents_decomposed(cfg: PumpConfig,
                             solution: SteadySolution | None = None) -> CurrentDecomposition:
    """Per-level current sums, cross-checked against ``solve()``'s currents.

    Each bath's term at a level is the net inflow of its edges there, from
    the exact net fluxes (:func:`_edge_fluxes`) that ``solution``'s
    currents sum, over its populations' total.  The summed decomposition
    must reproduce the solution's currents to 1e-10 relative (it is the
    same flux data regrouped, so a mismatch flags an index-bookkeeping bug,
    not precision loss).
    """
    if solution is None:
        solution = solve(cfg)
    n = cfg.n_levels
    chain = _ladder(n)
    flux = solution.edge_fluxes[:, None] / solution.population_total
    # one column per bath, of the edges whose upward rate is its own (1, 3, 5)
    inflow = chain.inflow(np.where(chain.rise[:, None] == [1, 3, 5], flux, 0.0))
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
    cfg._check_one_point("steady._solve_pumps")
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
    return RateOracleResult(populations=p.astype(float), q_work=q["work"], q_hot=q["hot"],
                            q_cold=q["cold"])
