"""The three-qubit (eight-level) absorption refrigerator.

Three qubits of frequencies ``omega_c``, ``omega_w`` and
``omega_h = omega_c + omega_w`` exchange energy through the resonant
three-body term

    g * (|1_c 1_w 0_h><0_c 0_w 1_h| + h.c.),

which absorbs one cold and one work quantum and emits one hot quantum.  Each
qubit couples *locally* to its own reservoir: the jump operator is its bare
lowering operator, at the bare qubit frequency's rates.  At finite ``g`` the
stationary state carries an imaginary coherence between the resonant pair
|110> / |001>, which adds nothing to the heat currents, and every quantum
that crosses the machine crosses the exchange, so the currents are the
qubits' frequencies times one flux: the COP is ``omega_c / omega_w`` at
every point, to the rounding of the currents, and the efficiency reaches
Carnot only at the window's edge, where the power vanishes.  So the fridge
is as efficient as the ideal pump at each frequency; its power is three
orders lower at the comparison parameters and falls off faster toward the
window's edge.

The stationary state is solved as the ideal pump's is: eliminating the
coherence pair leaves an eight-state classical chain, ``_FRIDGE``, which
:func:`qpump.steady._solve_chain` solves as it solves the pump's ladder.
Only its dense GTH elimination (:func:`_chain_balance`), its exchange rate
and its coherence are the fridge's own.

The qubit tensor order is (cold, work, hot), most significant first, so
basis index ``4*n_c + 2*n_w + n_h``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SuperOp
from .pump import BathSpec, _ThreeBathConfig, _least, _warn_at_caller
from .steady import (
    _BATHS,
    SteadySolution,
    SteadySolutions,
    _bath_rates,
    _Chain,
    _Generator,
    _solve_chain,
)

# Kept importable for the layer probes of perfbench/layers.py::install_probes,
# until the probes follow the solves' own layers (ROADMAP item 1); the
# fridge's solve calls none of them here.
from .linalg import stationary_vector  # noqa: F401
from .pump import decay_rates  # noqa: F401
from .steady import _polish_state, _solution_from_state  # noqa: F401

__all__ = [
    "ThreeQubitConfig",
    "build_three_qubit_hamiltonian",
    "build_three_qubit_liouvillian",
    "solve_three_qubit",
    "COUPLING_FRACTION",
]

# g above this fraction of the smallest qubit frequency strains the
# perturbative three-body-exchange picture; warn, do not refuse.
COUPLING_FRACTION = 0.1

# bit of each qubit in the basis index 4*n_c + 2*n_w + n_h
_QUBIT_BIT = {"cold": 4, "work": 2, "hot": 1}
# each qubit's bare lowering operator |0><1| clears its bit of the index: the
# (lo, hi) levels of its four flips
_FLIPS = {label: (np.flatnonzero(np.arange(8) & bit) - bit, np.flatnonzero(np.arange(8) & bit))
          for label, bit in _QUBIT_BIT.items()}
# The eight-state chain of the populations, of 13 edges: each qubit's four
# flips, in the order of the baths' rates (work, hot, cold), then the exchange
# between |001> (level 1) and |110> (level 6).  Its rates are the baths' six,
# then the exchange rate twice.  Each bath's current is the net flux up its
# qubit's flips; the exchange joins two levels of one energy and carries none.
_FRIDGE = _Chain(np.array([*(lo for label in _BATHS for lo in _FLIPS[label][0]), 1]),
                 np.array([*(hi for label in _BATHS for hi in _FLIPS[label][1]), 6]),
                 np.repeat([1, 3, 5, 7], [4, 4, 4, 1]),
                 (slice(0, 4), slice(4, 8), slice(8, 12)))
# the stationary state's positions, column-stacked i + 8 j: the eight
# populations and the coherence pair rho_61 (at 14) and rho_16 (at 49)
_SECTOR = np.sort(np.r_[np.arange(8) * 9, 14, 49])


@dataclass(frozen=True)
class ThreeQubitConfig(_ThreeBathConfig):
    """Parameters of the three-qubit fridge.

    ``omega_h`` is derived as ``omega_c + omega_w`` (resonance built in).
    Baths use the same spectra and conventions as the ideal pump.
    ``omega_c`` and ``omega_w`` may be (P,) arrays, one machine per element,
    each checked as its own scalar config is, for the stacked solves
    (:func:`_solve_fridges`); the point-wise API takes one point.
    """

    omega_c: float
    omega_w: float
    g: float
    work: BathSpec
    hot: BathSpec
    cold: BathSpec

    def __post_init__(self):
        if _least(self.omega_c) <= 0 or _least(self.omega_w) <= 0:  # at each point
            raise ValueError("qubit frequencies must be > 0")
        if self.g <= 0:
            raise ValueError(f"coupling g must be > 0, got {self.g}")
        self._check_baths()
        if self.g > COUPLING_FRACTION * min(_least(self.omega_c), _least(self.omega_w)):
            _warn_at_caller("three-body coupling is not small against the qubit frequencies",
                            UserWarning)

    @property
    def omega_h(self) -> float:
        return self.omega_c + self.omega_w


def build_three_qubit_hamiltonian(cfg: ThreeQubitConfig) -> np.ndarray:
    """8 x 8 Hamiltonian: three number operators plus the resonant exchange.

    At ``g = 0`` the spectrum is the eight sums of subsets of
    {omega_c, omega_w, omega_h}; the degenerate pair |110>, |001| (both at
    omega_h) splits to omega_h +/- g.
    """
    cfg._check_one_point("three_qubit._solve_fridges")
    level = np.arange(8)
    n_c, n_w, n_h = ((level & _QUBIT_BIT[label]) > 0 for label in ("cold", "work", "hot"))
    h = np.diag(cfg.omega_c * n_c + cfg.omega_w * n_w + cfg.omega_h * n_h).astype(complex)
    # |1_c 1_w 0_h> has index 6, |0_c 0_w 1_h> index 1
    h[6, 1] = h[1, 6] = cfg.g
    return h


def build_three_qubit_liouvillian(cfg: ThreeQubitConfig) -> SuperOp:
    """Full generator: commutator of the coupled Hamiltonian plus one local
    dissipator per qubit at its bare frequency."""
    return _generator_ld(cfg).superop()


# The name is kept for the layer probes of perfbench/layers.py::install_probes;
# the benchmark-only change of ROADMAP item 1 renames it.
def _generator_ld(cfg: ThreeQubitConfig) -> _Generator:
    """The fridge as operators: its Hamiltonian and each qubit's lowering
    operator, the sum of its four flips."""
    jumps = {label: np.zeros((8, 8)) for label in _FLIPS}
    for label, (lo, hi) in _FLIPS.items():
        jumps[label][lo, hi] = 1.0
    return _Generator(cfg, build_three_qubit_hamiltonian(cfg), jumps)


def solve_three_qubit(cfg: ThreeQubitConfig) -> SteadySolution:
    """Stationary state and currents of the three-qubit fridge.

    The state lives on the populations and the |110>/|001> coherence pair,
    which follows the populations, ``rho_61 = -i g (p_1 - p_6) / kappa``:
    eliminating it leaves an exact chain on the eight levels, each qubit
    flipping at its bath's rates and the exchange joining |001> and |110> at
    ``2 g^2 / kappa`` both ways (``kappa``, the coherence's decay rate, is
    the mean of the two levels' escape rates).  ``rho_61`` is imaginary, so
    each current is its qubit's frequency times the net flux on its bath's
    edges.  A stack of one point of :func:`_solve_fridges`, gated as the
    ideal pump is but for the ideality residual, which is reported only.
    """
    cfg._check_one_point("three_qubit._solve_fridges")
    return _solve_fridges(cfg)[0]


def _solve_fridges(cfg: ThreeQubitConfig) -> SteadySolutions:
    """:func:`solve_three_qubit` at every point of ``cfg``, whose ``omega_c``
    and ``omega_w`` may be (P,) arrays, one fridge per element, as one
    stacked solve of the eight-state chain (:func:`~qpump.steady._solve_chain`)
    by the dense GTH elimination of :func:`_chain_balance`.  The states hold
    the populations and the coherence pair at ``_SECTOR``."""
    rates = _bath_rates(cfg)
    with np.errstate(over="ignore"):  # a rate past the double range fails its point
        # the coherence's decay rate: the two levels' escape rates are the
        # six rates, one flip of each qubit each, summed in their order at any P
        kappa = sum(rates) / 2
        exchange = np.divide(2 * cfg.g * cfg.g, kappa, out=np.zeros_like(kappa),
                             where=kappa > 0)

    def state(p):
        coherence = cfg.g * (p[1] - p[6]) / kappa
        rho = np.zeros((p.shape[1], 64), dtype=complex)
        rho[:, ::9] = p.T
        rho[:, 14], rho[:, 49] = -1j * coherence, 1j * coherence
        return rho[:, _SECTOR], _SECTOR, 8

    # |H| is the top level's energy, 2 omega_h
    return _solve_chain(cfg, _FRIDGE, np.concatenate([rates, [exchange, exchange]]),
                        _chain_balance, 2 * cfg.omega_h, False, state)


def _chain_balance(rates: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The normalized stationary populations of the eight-state chain at
    each point, (8, P) with each point's contiguous, from its (8, P) rates,
    by GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1107
    (1985)), as :func:`~qpump.steady._ladder_balance` runs it on the banded
    ladder, on the dense stack ``r`` of rates ``r[i, j]`` from level i to
    level j.  The levels are eliminated from the top down, each folding the
    paths through it into the rates among the levels left, with its
    out-rate summed from its rates to them; only ``+ * /`` on nonnegative
    values, never a subtraction.  Also returns whether every eliminated
    level has a positive out-rate; a level without one divides by 1
    instead.  The point axis is last, so that each step is one operation
    over all points, and each sum, of at most 7 terms, runs in one order at
    any P."""
    lo, hi, rise = _FRIDGE.lo, _FRIDGE.hi, _FRIDGE.rise
    r = np.zeros((8, 8, rates.shape[1]))
    r[lo, hi], r[hi, lo] = rates[rise], rates[rise - 1]
    out = np.ones(r.shape[1:])
    for k in range(7, 0, -1):
        s = out[k] = r[k, :k].sum(axis=0)
        s = s + (s <= 0.0)
        r[:k, :k] += r[:k, k, None] * (r[k, :k] / s)
    ok = (out[1:] > 0.0).all(axis=0)
    out += out <= 0.0
    p = np.ones_like(out)
    for k in range(1, 8):
        p[k] = (p[:k] * r[:k, k]).sum(axis=0) / out[k]
    # (P, 8) rows, so that each point's sums run in one order for any P
    p = np.ascontiguousarray(p.T)
    return (p / p.sum(axis=1, keepdims=True)).T, ok
