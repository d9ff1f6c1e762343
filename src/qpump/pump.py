"""Construction of N-level ideal absorption heat pumps.

An ideal pump is a ladder of N levels built by merging N-2 elementary
three-level cooling stages.  Level 1 is the ground state at energy zero;
even level ``2n`` sits at ``(n-1)*omega_h + omega_c`` and odd level ``2n+1``
at ``n*omega_h``, so consecutive gaps alternate between ``omega_c`` and
``omega_w = omega_h - omega_c``.  Three thermal reservoirs address disjoint
frequency classes of transitions:

* cold bath: the ``floor(N/2)`` gaps of size ``omega_c`` (|2n-1> <-> |2n>),
* work bath: the ``ceil(N/2)-1`` gaps of size ``omega_w`` (|2n> <-> |2n+1>),
* hot bath: the ``N-2`` two-step gaps of size ``omega_h`` (|n> <-> |n+2>).

Natural units ``hbar = k_B = 1`` everywhere: temperatures and frequencies are
both energies, dissipation strengths are inverse times.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "WeakCouplingWarning",
    "BathSpec",
    "PumpConfig",
    "RatePair",
    "level_energies",
    "build_hamiltonian",
    "build_jump_operator",
    "transition_pairs",
    "bose_occupation",
    "decay_rates",
    "effective_temperature",
    "squeeze_db_to_r",
    "cooling_window_max",
    "cooling_window_max_fixed_work",
    "carnot_cop",
    "effective_temperatures",
    "window_max",
    "carnot_cop_for",
    "ideal_pump",
    "WEAK_COUPLING_FRACTION",
    "SATURATED_OCCUPATION",
]

# gamma_alpha above this fraction of the smallest relevant energy scale
# (min of omega_c, omega_w, T_c) leaves the weak-coupling regime; users may
# explore past it deliberately, so this is a warning rather than an error.
WEAK_COUPLING_FRACTION = 1e-2

# Occupation cap standing in for an infinite-temperature (saturated) work
# bath.  Currents change by <0.01% when the cap is raised tenfold, see the
# regression test.
SATURATED_OCCUPATION = 1e8

_BATH_LABELS = ("work", "hot", "cold")


class WeakCouplingWarning(UserWarning):
    """A dissipation strength is large enough to strain the weak-coupling,
    Markovian-secular regime the master equation assumes."""


@dataclass(frozen=True)
class BathSpec:
    """One thermal reservoir attached to the pump.

    ``squeeze_r`` and ``saturated`` model an engineered work reservoir:
    squeezing by parameter r raises the occupation seen by the system, and
    ``saturated`` stands for the infinite-temperature limit.  Both are only
    meaningful for the work bath.  ``temperature`` and ``gamma`` may be
    arrays, one bath per element, for the elementwise rate formulas.
    """

    label: str
    temperature: float
    gamma: float
    squeeze_r: float = 0.0
    saturated: bool = False

    def __post_init__(self):
        if self.label not in _BATH_LABELS:
            raise ValueError(f"bath label must be one of {_BATH_LABELS}, got {self.label!r}")
        if _least(self.gamma) <= 0:
            raise ValueError(f"{self.label} bath: gamma must be > 0, got {self.gamma}")
        if self.squeeze_r < 0:
            raise ValueError(f"{self.label} bath: squeeze_r must be >= 0, got {self.squeeze_r}")
        if not self.saturated and _least(self.temperature) <= 0:
            raise ValueError(
                f"{self.label} bath: temperature must be > 0, got {self.temperature}"
            )
        if self.label != "work" and (self.squeeze_r > 0 or self.saturated):
            raise ValueError(f"squeezing/saturation is only supported on the work bath")


# Modules whose frames build a config: the config classes and their
# dataclass-generated __init__ (which runs with its class's module globals),
# ideal_pump, and dataclasses.replace.
_CONFIG_MODULES = frozenset({__name__, f"{__package__}.three_qubit", "dataclasses"})


def _warn_at_caller(message: str, category: type[Warning]) -> None:
    """Warn at the code that asked for a config: the innermost frame outside
    the modules that build configs, however many of their frames lie between."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_globals.get("__name__") in _CONFIG_MODULES:
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


class _ThreeBathConfig:
    """Bath bookkeeping shared by the machine configs, which provide the
    ``work``/``hot``/``cold`` baths and ``omega_w``/``omega_h``/``omega_c``."""

    def _check_baths(self) -> None:
        for spec, lbl in zip((self.work, self.hot, self.cold), _BATH_LABELS):
            if spec.label != lbl:
                raise ValueError(f"bath in slot {lbl!r} is labelled {spec.label!r}")
        if not self.work.saturated and not (self.work.temperature > self.hot.temperature):
            raise ValueError("need T_w > T_h (or a saturated work bath)")
        if not (self.hot.temperature > self.cold.temperature):
            raise ValueError("need T_h > T_c")

    def bath(self, label: str) -> BathSpec:
        return {"work": self.work, "hot": self.hot, "cold": self.cold}[label]

    def bath_frequency(self, label: str) -> float:
        return {"work": self.omega_w, "hot": self.omega_h, "cold": self.omega_c}[label]

    def _check_one_point(self, stacked: str) -> None:
        """Refuse a stack of (P,) frequencies, which the point-wise API does not take."""
        if isinstance(self.omega_c, np.ndarray) or isinstance(self.omega_h, np.ndarray):
            raise ValueError(f"a config of (P,) frequencies is P machines; use {stacked}")


@dataclass(frozen=True)
class PumpConfig(_ThreeBathConfig):
    """A complete N-level ideal pump instance.

    ``omega_h`` and ``omega_c`` may be (P,) arrays, one machine per element,
    each checked as its scalar config is, for the stacked solves
    (:func:`qpump.steady._solve_pumps`); the point-wise API takes one point."""

    n_levels: int
    omega_h: float
    omega_c: float
    work: BathSpec
    hot: BathSpec
    cold: BathSpec

    def __post_init__(self):
        if self.n_levels < 3:
            raise ValueError(f"n_levels must be >= 3, got {self.n_levels}")
        ok = (0 < self.omega_c) & (self.omega_c < self.omega_h)  # at each point of a stack
        if not _least(ok):  # the first point that fails, as its scalar config words it
            c, h = (np.ravel(x)[np.argmin(ok)] for x in (self.omega_c, self.omega_h))
            raise ValueError(f"need 0 < omega_c < omega_h, got omega_c={c}, omega_h={h}")
        self._check_baths()
        floor = WEAK_COUPLING_FRACTION * min(_least(self.omega_c), _least(self.omega_w),
                                             self.cold.temperature)
        if max(self.work.gamma, self.hot.gamma, self.cold.gamma) > floor:
            _warn_at_caller("dissipation strength exceeds the weak-coupling threshold; "
                            "the Markovian-secular master equation is being stretched",
                            WeakCouplingWarning)

    @property
    def omega_w(self) -> float:
        return self.omega_h - self.omega_c


@dataclass(frozen=True)
class RatePair:
    """Downward (emission into bath) and upward (absorption) rates of one
    dissipation channel, or arrays of them over an array of frequencies.  For
    a plain thermal bath ``up/down = exp(-w/T)``."""

    down: float | np.ndarray
    up: float | np.ndarray

    def __post_init__(self):
        if _least(self.down) < 0 or _least(self.up) < 0:
            raise ValueError(f"rates must be >= 0, got {self}")


def level_energies(n_levels: int, omega_h, omega_c, dtype=float) -> np.ndarray:
    """Ladder energies: E[0] = 0, E[2n-1] = (n-1) w_h + w_c, E[2n] = n w_h.

    Indices are 0-based array positions for 1-based physical levels.  Array
    frequencies give one ladder per element, along a new last axis.
    """
    wh = np.asarray(omega_h, dtype=dtype)
    wc = np.asarray(omega_c, dtype=dtype)
    e = np.zeros(np.shape(wh) + (n_levels,), dtype=dtype)
    for k in range(2, n_levels + 1):
        e[..., k - 1] = _level_energy(k, wh, wc)
    return e


def _level_energy(k: int, wh, wc):
    """The energy of 1-based level ``k >= 2`` of :func:`level_energies`, in
    the type of ``wh`` and ``wc``."""
    return (k // 2 - 1) * wh + wc if k % 2 == 0 else ((k - 1) // 2) * wh


def build_hamiltonian(cfg: PumpConfig) -> np.ndarray:
    """Diagonal N x N Hamiltonian of the ladder, strictly increasing."""
    cfg._check_one_point("steady._solve_pumps")
    return np.diag(level_energies(cfg.n_levels, cfg.omega_h, cfg.omega_c).astype(complex))


def transition_pairs(n_levels: int, label: str) -> list[tuple[int, int]]:
    """(lower, upper) 1-based level pairs addressed by the given bath.

    cold: (2n-1, 2n) for n = 1..floor(N/2)
    work: (2n, 2n+1) for n = 1..ceil(N/2)-1
    hot:  (n, n+2)   for n = 1..N-2
    """
    n = n_levels
    if label == "cold":
        return [(2 * k - 1, 2 * k) for k in range(1, n // 2 + 1)]
    if label == "work":
        return [(2 * k, 2 * k + 1) for k in range(1, (n + 1) // 2)]
    if label == "hot":
        return [(k, k + 2) for k in range(1, n - 1)]
    raise ValueError(f"unknown bath label {label!r}")


def build_jump_operator(cfg: PumpConfig, label: str) -> np.ndarray:
    """Lowering operator collecting every transition the bath addresses.

    Each nonzero element connects levels whose energy gap equals the bath
    frequency (:func:`transition_pairs`), whatever the frequencies.  It
    feeds the reference generator of ``build_liouvillian``; no solve builds
    it.
    """
    n = cfg.n_levels
    s = np.zeros((n, n), dtype=complex)
    for lo, hi in transition_pairs(n, label):
        s[lo - 1, hi - 1] = 1.0
    return s


# The rate formulas below act elementwise on arrays of ``omega`` and of the
# bath's temperature and strength, and give each element the bits of a
# scalar call.
def _least(x):
    """Smallest element of an array argument; a float argument itself.
    np.min does the same but costs about 2 us on a float, and a scalar
    decay_rates call makes three domain checks."""
    return x.min() if isinstance(x, np.ndarray) else x


def _check_frequency(omega) -> None:
    if _least(omega) <= 0:
        raise ValueError(f"omega must be > 0, got {omega}")


def bose_occupation(omega: float | np.ndarray, temperature: float | np.ndarray):
    """Thermal occupation 1/(exp(omega/T) - 1)."""
    _check_frequency(omega)
    if _least(temperature) <= 0:
        raise ValueError(f"temperature must be > 0, got {temperature}")
    return _thermal_occupation(omega, temperature)


def _thermal_occupation(omega, temperature):
    """The formula of :func:`bose_occupation`, without its domain checks."""
    x = omega / temperature
    # expm1 overflows past x ~ 709; the occupation is exp(-x) to ~1e-304 there
    if isinstance(x, np.ndarray):
        n = 1.0 / np.expm1(np.minimum(x, 700.0))
        if (far := x > 700.0).any():  # exp(-x) where it applies, not at every x
            n[far] = np.exp(-x[far])
        return n
    # same values; np.where costs about 2 us more on a float, and each
    # scalar refinement step of the optimizer evaluates two occupations
    return float(np.exp(-x) if x > 700.0 else 1.0 / np.expm1(x))


def _bath_occupation(bath: BathSpec, omega: float | np.ndarray):
    """Occupation the system sees at frequency omega, including squeezing
    (n -> n cosh 2r + sinh^2 r) and the saturated-bath cap; no checks."""
    if bath.saturated:
        return SATURATED_OCCUPATION
    n = _thermal_occupation(omega, bath.temperature)
    if bath.squeeze_r > 0:
        r = bath.squeeze_r
        n = n * np.cosh(2 * r) + np.sinh(r) ** 2
    return n


def decay_rates(bath: BathSpec, omega: float | np.ndarray) -> RatePair:
    """Emission/absorption rates ``gamma * omega^3 * (1 + n)`` and
    ``gamma * omega^3 * n`` for a 3-D bosonic reservoir.

    The overall constant is fixed to ``gamma`` (flat spectral density
    absorbed), so absolute powers are meaningful only within this
    convention; ratios and orderings are convention-independent.
    """
    _check_frequency(omega)  # the bath's temperature passed its constructor's check
    return RatePair(*_rates(bath, omega))


def _rates(bath: BathSpec, omega: float | np.ndarray) -> tuple:
    """``(down, up)`` of :func:`decay_rates` without its checks, for a bath
    that passed its constructor's and a positive ``omega``: the optimizer's
    steps, the stacked solves and the CLI's rate check take it, where the
    checks and the :class:`RatePair` cost 2 us on a float, 5 at 28 points."""
    # float_power loops over libm pow, as ``**`` on a float does (which costs
    # about 1 us less); array ``**`` may round the cube differently in the
    # last digit
    w3 = bath.gamma * (np.float_power(omega, 3.0) if isinstance(omega, np.ndarray)
                       else omega ** 3.0)
    if bath.saturated:
        g = w3 * SATURATED_OCCUPATION
        return g, g
    n = _bath_occupation(bath, omega)
    return w3 * (1.0 + n), w3 * n


def effective_temperature(bath: BathSpec, omega: float | np.ndarray):
    """Temperature a plain thermal bath would need to mimic this bath at
    frequency omega: ``omega / log(1 + 1/n_eff)``.  Equals ``temperature``
    for an unsqueezed, unsaturated bath.  Elementwise on an array of
    frequencies, with the bits of scalar calls."""
    _check_frequency(omega)
    n = _bath_occupation(bath, omega)
    if isinstance(omega, np.ndarray):
        # libm's log1p, as a scalar call takes it; numpy's may round differently
        n = np.broadcast_to(n, omega.shape).ravel().tolist()
        return omega / np.reshape([math.log1p(1.0 / x) if x else math.inf for x in n],
                                  omega.shape)
    n = float(n)
    if n == 0.0:
        return 0.0
    return omega / math.log1p(1.0 / n)


def squeeze_db_to_r(db: float) -> float:
    """Squeezing parameter r for a level quoted in decibels: (db/20) ln 10."""
    if db < 0:
        raise ValueError(f"squeezing in dB must be >= 0, got {db}")
    return db / 20.0 * math.log(10.0)


def _check_ordering(t_work: float, t_hot: float, t_cold: float) -> None:
    # T_w == T_h is allowed here so the formulas expose their vanishing
    # no-gradient limit; configs require strict ordering.  Elementwise on arrays.
    if not _least((t_work >= t_hot) & (t_hot > t_cold) & (t_cold > 0)):
        raise ValueError(
            f"need T_w >= T_h > T_c > 0, got ({t_work}, {t_hot}, {t_cold})"
        )


def cooling_window_max(omega_h: float,
                       temps: tuple[float, float, float]) -> float:
    """Largest cold frequency at which the second law still permits chilling:
    ``omega_h * (T_w - T_h) T_c / ((T_w - T_c) T_h)``."""
    t_w, t_h, t_c = temps
    _check_ordering(t_w, t_h, t_c)
    return omega_h * (t_w - t_h) * t_c / ((t_w - t_c) * t_h)


def cooling_window_max_fixed_work(omega_w: float,
                                  temps: tuple[float, float, float]) -> float:
    """Cooling-window edge when the work frequency is held fixed and
    ``omega_h = omega_c + omega_w`` follows the sweep (the parametrization
    natural to the three-qubit fridge): ``omega_w * k / (1 - k)`` with
    ``k = (T_w - T_h) T_c / ((T_w - T_c) T_h)``."""
    t_w, t_h, t_c = temps
    _check_ordering(t_w, t_h, t_c)
    k = (t_w - t_h) * t_c / ((t_w - t_c) * t_h)
    return omega_w * k / (1.0 - k)


def carnot_cop(temps: tuple[float, float, float]) -> float:
    """Reversible ceiling on the COP: ``(T_w - T_h) T_c / ((T_h - T_c) T_w)``."""
    t_w, t_h, t_c = temps
    _check_ordering(t_w, t_h, t_c)
    return (t_w - t_h) * t_c / ((t_h - t_c) * t_w)


def effective_temperatures(cfg: PumpConfig,
                           at_omega: float) -> tuple[float, float, float]:
    """(T_w_eff, T_h, T_c) with the work bath replaced by its effective
    temperature at frequency ``at_omega``.  For a plain work bath this is
    just the bare temperatures."""
    if cfg.work.squeeze_r > 0 or cfg.work.saturated:
        t_w = effective_temperature(cfg.work, at_omega)
    else:
        t_w = cfg.work.temperature
    return (t_w, cfg.hot.temperature, cfg.cold.temperature)


def window_max(cfg: PumpConfig) -> float:
    """Cooling-window edge of a config, squeezing/saturation-aware.

    For engineered work baths the effective temperature depends (weakly) on
    frequency; it is evaluated at ``omega_w = omega_h`` (the small-omega_c
    limit), which bounds the window from above and is the safe bracket for
    maximizing the cooling power.  A saturated work bath no hotter than the
    hot bath there leaves no window: 0, as at equal temperatures.
    """
    temps = effective_temperatures(cfg, cfg.omega_h)
    return cooling_window_max(cfg.omega_h, temps) if temps[0] >= temps[1] else 0.0


def carnot_cop_for(cfg: PumpConfig) -> float:
    """Carnot COP of a config using the effective work temperature at the
    config's own work frequency."""
    return carnot_cop(effective_temperatures(cfg, cfg.omega_w))


def ideal_pump(n_levels: int, omega_h: float, omega_c: float,
               t_work: float, t_hot: float, t_cold: float,
               gamma_work: float, gamma_hot: float, gamma_cold: float,
               squeeze_db: float = 0.0, saturated_work: bool = False) -> PumpConfig:
    """Convenience constructor from scalar parameters."""
    return PumpConfig(
        n_levels=n_levels,
        omega_h=omega_h,
        omega_c=omega_c,
        work=BathSpec("work", t_work, gamma_work,
                      squeeze_r=squeeze_db_to_r(squeeze_db),
                      saturated=saturated_work),
        hot=BathSpec("hot", t_hot, gamma_hot),
        cold=BathSpec("cold", t_cold, gamma_cold),
    )
