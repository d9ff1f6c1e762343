"""qpump: steady-state thermodynamics of multi-stage quantum absorption
heat pumps, plus the three-qubit reference fridge, whose COP is the ideal
pump's ``omega_c/omega_w`` but whose power is three orders lower and falls
off faster toward the edge of the cooling window.

The library builds the Lindblad generator of an N-level ideal absorption
chiller (N-2 merged three-level stages), solves for its stationary state,
and evaluates heat currents, coefficient of performance, entropy production
and the associated reversibility bounds.  Experiment drivers reproduce the
standard numerical studies: power optimization over the cold frequency,
size scaling of the maximum cooling power, random-ensemble verification of
the 3/4-Carnot bound on the COP at maximum power, and the ideal-versus-
three-qubit performance comparison.

Natural units hbar = k_B = 1 throughout.
"""

from .linalg import (
    DegenerateKernelError,
    NoKernelError,
    SuperOp,
    devectorize,
    propagate,
    stationary_vector,
    vectorize,
)
from .pump import (
    BathSpec,
    PumpConfig,
    RatePair,
    WeakCouplingWarning,
    bose_occupation,
    build_hamiltonian,
    build_jump_operator,
    carnot_cop,
    cooling_window_max,
    cooling_window_max_fixed_work,
    decay_rates,
    effective_temperature,
    ideal_pump,
    level_energies,
    squeeze_db_to_r,
)
from .steady import (
    NonConvergedError,
    SteadySolution,
    build_dissipator,
    build_liouvillian,
    heat_currents_decomposed,
    pauli_rate_oracle,
    solve,
)
from .three_qubit import (
    ThreeQubitConfig,
    build_three_qubit_hamiltonian,
    build_three_qubit_liouvillian,
    solve_three_qubit,
)
from .experiments import (
    CurveSetup,
    HistogramResult,
    Optimum,
    PerformancePoint,
    SampleRanges,
    StageResult,
    characteristic_curve,
    cop_histogram,
    maximize_cooling_power,
    sweep_stages,
)

__version__ = "0.1.0"
