"""The non-ideal three-qubit (eight-level) absorption refrigerator.

Three qubits of frequencies ``omega_c``, ``omega_w`` and
``omega_h = omega_c + omega_w`` exchange energy through the resonant
three-body term

    g * (|1_c 1_w 0_h><0_c 0_w 1_h| + h.c.),

which absorbs one cold and one work quantum and emits one hot quantum.  Each
qubit couples *locally* to its own reservoir: the jump operator is its bare
lowering operator and the rates are evaluated at the bare qubit frequency.
At finite ``g`` this local dissipation is what makes the machine non-ideal:
the stationary state carries coherence between the resonant pair
|110> / |001>, the heat-per-quantum bookkeeping picks up O(g) corrections,
and the performance characteristic detaches from the Carnot point.

Near the reversibility edge, where all currents vanish, the bare-basis local
model is known to report efficiencies a hair above the Carnot value (second
law violations at the 1e-10-current scale).  This artifact lives in a sliver
of relative width ~1e-3 at the window edge; sweeps at the grid sizes used
here do not enter it.

The qubit tensor order is (cold, work, hot), most significant first, so
basis index ``4*n_c + 2*n_w + n_h``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SuperOp
from .pump import BathSpec, _ThreeBathConfig, _warn_at_caller
from .steady import _LD, SteadySolution, _Generator, _solve_system

# Kept importable for the layer probes of perfbench/layers.py::install_probes;
# the solve itself reaches them through steady._solve_system.
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


def build_three_qubit_hamiltonian(cfg: ThreeQubitConfig, dtype=complex) -> np.ndarray:
    """8 x 8 Hamiltonian: three number operators plus the resonant exchange.

    At ``g = 0`` the spectrum is the eight sums of subsets of
    {omega_c, omega_w, omega_h}; the degenerate pair |110>, |001| (both at
    omega_h) splits to omega_h +/- g.  Array frequencies give one
    Hamiltonian per element, along new leading axes.
    """
    rt = np.longdouble if dtype == _LD else float
    wc, ww = np.asarray(cfg.omega_c, dtype=rt), np.asarray(cfg.omega_w, dtype=rt)
    wh = wc + ww
    level = np.arange(8)
    n_c, n_w, n_h = ((level & _QUBIT_BIT[label]) > 0 for label in ("cold", "work", "hot"))
    h = np.zeros(wc.shape + (8, 8), dtype=dtype)
    h[..., level, level] = wc[..., None] * n_c + ww[..., None] * n_w + wh[..., None] * n_h
    # |1_c 1_w 0_h> has index 6, |0_c 0_w 1_h> index 1
    h[..., 6, 1] = h[..., 1, 6] = rt(cfg.g)
    return h


def build_three_qubit_liouvillian(cfg: ThreeQubitConfig) -> SuperOp:
    """Full generator: commutator of the coupled Hamiltonian plus one local
    dissipator per qubit at its bare frequency."""
    return _generator_ld(cfg).superop()


def _generator_ld(cfg: ThreeQubitConfig) -> _Generator:
    # each qubit's bare lowering operator |0><1| clears its bit of the index
    excited = {label: np.flatnonzero(np.arange(8) & bit) for label, bit in _QUBIT_BIT.items()}
    levels = {label: (e - _QUBIT_BIT[label], e) for label, e in excited.items()}
    return _Generator(cfg, build_three_qubit_hamiltonian(cfg, dtype=_LD), levels)


def solve_three_qubit(cfg: ThreeQubitConfig) -> SteadySolution:
    """Stationary state and currents of the three-qubit fridge.

    Same pipeline as the ideal pump: kernel of the stationary sector,
    extended-precision polish, trace-formula currents.  The ideality
    residual is reported but never gated; its departure from zero is the
    machine's non-ideality.  The sector holds the populations and the
    |110>/|001> coherence, which is generically nonzero when stationary.
    It is a stack of one point of :func:`_solve_fridges`.
    """
    return _solve_fridges(cfg)[0]


def _solve_fridges(cfg) -> list[SteadySolution]:
    """:func:`solve_three_qubit` at every point of ``cfg``, whose frequencies
    may be (P,) arrays, as one stacked solve."""
    return _solve_system(cfg, _generator_ld(cfg), False)
