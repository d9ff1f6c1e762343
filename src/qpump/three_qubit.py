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

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import SuperOp, stationary_vector, vectorize
from .pump import BathSpec, _ThreeBathConfig, decay_rates, effective_temperature
from .steady import (
    _LD,
    SteadySolution,
    _Generator,
    _polish_state,
    _rates_for_bath_ld,
    _solution_from_state,
    build_dissipator,
    hamiltonian_commutator,
)

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

_SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
_NUMBER = np.diag([0.0, 1.0]).astype(complex)
_QUBIT_SLOT = {"cold": 0, "work": 1, "hot": 2}


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
            warnings.warn(
                "three-body coupling is not small against the qubit frequencies",
                UserWarning,
                stacklevel=2,
            )

    @property
    def omega_h(self) -> float:
        return self.omega_c + self.omega_w


def _embed(op: np.ndarray, slot: int) -> np.ndarray:
    mats = [np.eye(2, dtype=op.dtype)] * 3
    mats[slot] = op
    return np.kron(np.kron(mats[0], mats[1]), mats[2])


def build_three_qubit_hamiltonian(cfg: ThreeQubitConfig, dtype=complex) -> np.ndarray:
    """8 x 8 Hamiltonian: three number operators plus the resonant exchange.

    At ``g = 0`` the spectrum is the eight sums of subsets of
    {omega_c, omega_w, omega_h}; the degenerate pair |110>, |001| (both at
    omega_h) splits to omega_h +/- g.
    """
    rt = np.longdouble if dtype == _LD else float
    wc, ww = rt(cfg.omega_c), rt(cfg.omega_w)
    wh = wc + ww
    h = (wc * _embed(_NUMBER, 0) + ww * _embed(_NUMBER, 1) + wh * _embed(_NUMBER, 2)).astype(dtype)
    # |1_c 1_w 0_h> has index 6, |0_c 0_w 1_h> index 1
    v = np.zeros((8, 8), dtype=dtype)
    v[6, 1] = 1.0
    v[1, 6] = 1.0
    return h + rt(cfg.g) * v


def _jump(label: str) -> np.ndarray:
    return _embed(_SIGMA_MINUS, _QUBIT_SLOT[label])


def build_three_qubit_liouvillian(cfg: ThreeQubitConfig) -> SuperOp:
    """Full generator: commutator of the coupled Hamiltonian plus one local
    dissipator per qubit at its bare frequency."""
    mat = hamiltonian_commutator(build_three_qubit_hamiltonian(cfg)).matrix
    for label in ("work", "hot", "cold"):
        rates = decay_rates(cfg.bath(label), cfg.bath_frequency(label))
        mat = mat + build_dissipator(_jump(label), rates).matrix
    return SuperOp(8, mat)


def _generator_ld(cfg: ThreeQubitConfig) -> _Generator:
    ham = build_three_qubit_hamiltonian(cfg, dtype=_LD)
    channels = {}
    for label in ("work", "hot", "cold"):
        down, up = _rates_for_bath_ld(cfg.bath(label), cfg.bath_frequency(label))
        channels[label] = (_jump(label).astype(_LD), down, up)
    return _Generator(ham, channels)


def solve_three_qubit(cfg: ThreeQubitConfig) -> SteadySolution:
    """Stationary state and currents of the three-qubit fridge.

    Same pipeline as the ideal pump: null-space of the vectorized generator,
    extended-precision polish, trace-formula currents.  The ideality
    residual is reported but never gated; its departure from zero is the
    machine's non-ideality.  The coherence between |110> and |001> is
    generically nonzero in the stationary state.
    """
    liouv = build_three_qubit_liouvillian(cfg)
    v = stationary_vector(liouv)
    gen_ld = _generator_ld(cfg)
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
        omega_ratio=cfg.omega_c / cfg.omega_w, gate_ideality=False,
    )
