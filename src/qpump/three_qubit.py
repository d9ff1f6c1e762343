"""The three-qubit (eight-level) absorption refrigerator.

Three qubits of frequencies ``omega_c``, ``omega_w`` and
``omega_h = omega_c + omega_w`` exchange energy through the resonant
three-body term

    g * (|1_c 1_w 0_h><0_c 0_w 1_h| + h.c.),

which absorbs one cold and one work quantum and emits one hot quantum.  Each
qubit couples *locally* to its own reservoir: the jump operator is its bare
lowering operator and the rates are evaluated at the bare qubit frequency.
At finite ``g`` the stationary state carries coherence between the resonant
pair |110> / |001>.  That coherence is imaginary and adds nothing to the
heat currents, and every quantum that crosses the machine crosses the
exchange, so the three currents are the qubits' frequencies times one flux:
the COP is ``omega_c / omega_w`` at every point, to the rounding of the
currents, and the efficiency approaches the Carnot value only at the
window's edge, where the power vanishes.  So the fridge is as efficient as
the ideal pump at each frequency; it differs in its power, three orders
lower at the comparison parameters, which falls off faster toward the
window's edge.

The qubit tensor order is (cold, work, hot), most significant first, so
basis index ``4*n_c + 2*n_w + n_h``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .linalg import SuperOp, _stationary_vectors
from .pump import BathSpec, _ThreeBathConfig, _warn_at_caller
from .steady import (
    _BATHS,
    _LD,
    SteadySolution,
    SteadySolutions,
    _bath_rates,
    _Generator,
    _population_blocks,
    _refined_fluxes,
    _solution_from_state,
)

# Kept importable for the layer probes of perfbench/layers.py::install_probes,
# until the probes follow the solves' own layers (ROADMAP item 1).  The
# fridge's solve reaches decay_rates through steady._bath_rates and uses
# neither of the others.
from .linalg import stationary_vector  # noqa: F401
from .pump import decay_rates  # noqa: F401
from .steady import _polish_state  # noqa: F401

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
# The 13 edges of the eight-state chain: each qubit's four flips, in the
# order of the baths' rates (work, hot, cold), then the exchange between
# |001> (level 1) and |110> (level 6).  Each edge's lower and upper level,
# and the index of its upward rate among the chain's eight rates (the six of
# the baths, then the exchange rate twice); its downward rate is the one
# before, as for the ladder's edges.
_EDGES = (np.array([*(lo for label in _BATHS for lo in _FLIPS[label][0]), 1]),
          np.array([*(hi for label in _BATHS for hi in _FLIPS[label][1]), 6]),
          np.repeat([1, 3, 5, 7], [4, 4, 4, 1]))
# each level's net inflow, (M p)_k, is this incidence times the net upward
# fluxes of the edges, summed in their order
_INCIDENCE = np.zeros((8, 13), dtype=np.longdouble)
_INCIDENCE[_EDGES[1], np.arange(13)] = 1.0
_INCIDENCE[_EDGES[0], np.arange(13)] = -1.0
# the stationary state's positions, column-stacked i + 8 j: the eight
# populations and the coherence pair rho_61 (at 14) and rho_16 (at 49)
_SECTOR = np.sort(np.r_[np.arange(8) * 9, 14, 49])


@dataclass(frozen=True)
class ThreeQubitConfig(_ThreeBathConfig):
    """Parameters of the three-qubit fridge.

    ``omega_h`` is derived as ``omega_c + omega_w`` (resonance built in).
    Baths use the same spectra and conventions as the ideal pump.
    """

    omega_c: float
    omega_w: float
    g: float
    work: BathSpec
    hot: BathSpec
    cold: BathSpec

    def __post_init__(self):
        if self.omega_c <= 0 or self.omega_w <= 0:
            raise ValueError("qubit frequencies must be > 0")
        if self.g <= 0:
            raise ValueError(f"coupling g must be > 0, got {self.g}")
        self._check_baths()
        if self.g > COUPLING_FRACTION * min(self.omega_c, self.omega_w):
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

    The stationary state lives on the populations and the |110>/|001>
    coherence pair, which is generically nonzero.  The resonance is built
    in, so the coherence follows the populations,
    ``rho_61 = -i g (p_1 - p_6) / kappa``, and eliminating it leaves an
    exact classical chain on the eight levels: each qubit flips at its
    bath's rates, and the exchange joins |001> and |110> at ``2 g^2 /
    kappa`` both ways (``kappa``, the coherence's decay rate, is the mean of
    the two levels' escape rates).  ``rho_61`` is imaginary, so it adds
    nothing to ``tr(H D_a rho)``: each current is its qubit's frequency
    times the net flux on its bath's edges.  The solve is
    :func:`_solve_fridges`'s, with the gates that the ideal pump's currents
    pass too; the ideality residual is reported but never gated (the
    currents share one flux, so it sits at their rounding).  It is a stack
    of one point of :func:`_solve_fridges`.
    """
    return _solve_fridges(cfg)[0]


def _solve_fridges(cfg) -> SteadySolutions:
    """:func:`solve_three_qubit` at every point of ``cfg``, whose frequencies
    may be (P,) arrays, as one stacked solve of the eight-state chain, step
    for step as :func:`~qpump.steady._solve_pumps` solves the pump's ladder.

    The kernel decisions are those of the chain's double rate matrices in
    :func:`~qpump.linalg._stationary_vectors`.  The populations come from
    the dense GTH elimination of :func:`_chain_balance` in long double, the
    currents from the exact net fluxes of the 13 edges after one refinement
    step through the kernel solve's inverses
    (:func:`~qpump.steady._refined_fluxes`), and the kernel residual is that
    of the net inflows, ``max |M p| / max|M|``.  The states hold the
    populations and the coherence pair at ``_SECTOR``."""
    rates = _bath_rates(cfg)
    rates_ld = rates.astype(np.longdouble)
    g = np.longdouble(cfg.g)
    # the coherence's decay rate: the two levels' escape rates are the six
    # rates, one flip of each qubit each
    kappa = rates_ld.sum(axis=0) / 2
    exchange = np.divide(2 * g * g, kappa, out=np.zeros_like(kappa), where=kappa > 0)
    rates_ld = np.concatenate([rates_ld, [exchange, exchange]])
    with np.errstate(over="ignore"):  # an exchange rate past the double range fails its point
        block = _population_blocks(8, rates_ld.astype(float), _EDGES)
    _, inv, errors = _stationary_vectors(block, np.ones(8))
    lo, hi, rise = _EDGES
    up, down = rates_ld[rise], rates_ld[rise - 1]
    # a point with a kernel error is raised when the points are judged;
    # what its arithmetic gives here does not count
    with np.errstate(all="ignore") if errors else contextlib.nullcontext():
        r = np.zeros(block.shape, dtype=np.longdouble)
        r[:, lo, hi], r[:, hi, lo] = up.T, down.T
        p, ok = _chain_balance(r)
        # (P, 8) rows, so that each point's sums run in one order for any P
        p = (p / p.sum(axis=1, keepdims=True)).T
        flux, total, residual = _refined_fluxes(p, inv, block, up, down, lo, hi,
                                                lambda f: _INCIDENCE @ f)
        currents = _fridge_currents(cfg, flux, total)
        p /= total
        coherence = g * (p[1] - p[6]) / kappa
    rho = np.zeros((len(block), 64), dtype=_LD)
    rho[:, ::9] = p.T
    rho[:, 14], rho[:, 49] = -1j * coherence, 1j * coherence
    # |H|, the top level's energy, 2 omega_h, in long double as the
    # Hamiltonian holds it
    omega_h = np.asarray(cfg.omega_c, dtype=np.longdouble) + np.asarray(cfg.omega_w,
                                                                        dtype=np.longdouble)
    return _solution_from_state(cfg, currents, np.atleast_1d(2 * omega_h).astype(float),
                                (rates[0::2] + rates[1::2]).max(axis=0), rho[:, _SECTOR],
                                _SECTOR, 8, np.where(ok, residual, np.inf).astype(float),
                                False, errors)


def _chain_balance(r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stationary populations of a dense classical chain at each point,
    by GTH elimination (Grassmann, Taksar & Heyman, Oper. Res. 33, 1107
    (1985)), as :func:`~qpump.steady._ladder_balance` runs it on the banded
    ladder.  ``r`` is the (P, n, n) stack of rates, ``r[:, i, j]`` from
    level i to level j (the diagonal is not read), which the elimination
    overwrites.  The levels are eliminated from the top down, each folding
    the paths through it into the rates among the levels left, with its
    out-rate summed from its rates to them; only ``+ * /`` on nonnegative
    values, never a subtraction.  Returns the unnormalized (P, n)
    populations (``p[:, 0] == 1``) and whether every eliminated level has a
    positive out-rate; a level without one divides by 1 instead."""
    n = r.shape[-1]
    out = np.ones(r.shape[:2], dtype=r.dtype)
    for k in range(n - 1, 0, -1):
        s = out[:, k] = r[:, k, :k].sum(axis=-1)
        s = s + (s <= 0.0)
        r[:, :k, :k] += r[:, :k, k, None] * (r[:, None, k, :k] / s[:, None, None])
    ok = (out[:, 1:] > 0.0).all(axis=1)
    out += out <= 0.0
    p = np.ones_like(out)
    for k in range(1, n):
        p[:, k] = (p[:, None, :k] @ r[:, :k, k, None])[:, 0, 0] / out[:, k]
    return p, ok


def _fridge_currents(cfg, flux: np.ndarray, total: np.ndarray) -> dict[str, np.ndarray]:
    """Each bath's heat current at each point: its qubit's frequency in long
    double times the net flux up its four edges of the chain, over the
    populations' total.  ``flux`` holds the (13, P) net upward fluxes of the
    edges of ``_EDGES``, in its order; the exchange edge joins two levels of
    one energy and carries none.  Positive for energy flowing from the bath
    into the fridge."""
    omega_c, omega_w = (np.asarray(w, dtype=np.longdouble) for w in (cfg.omega_c, cfg.omega_w))
    omega = {"work": omega_w, "hot": omega_c + omega_w, "cold": omega_c}
    return {label: (omega[label] * (flux[4 * k:4 * k + 4].sum(axis=0) / total)).astype(float)
            for k, label in enumerate(_BATHS)}
