"""Thermal polarization and relaxation-rate models for the nitrogen bath.

The bath spins are two-level systems with Zeeman splitting ``T_Ze`` kelvin
(``h nu / k_B``, about 11.5 K at 240 GHz). Cooling below that scale freezes
the bath into its ground state, which quenches the energy-conserving
flip-flop dynamics responsible for decoherence of a probe spin. Two closed
forms capture the temperature dependence:

* decoherence rate ``1/T2 = C * P_down * P_up + Gamma_res`` (per microsecond),
  where ``P_down * P_up`` is the probability factor for a bath pair to
  flip-flop and ``Gamma_res`` is the residual rate from the 13C nuclear bath;
* spin-lattice rate ``1/T1 = A*T + B*T**5`` (per second), a direct phonon
  term plus a two-phonon Raman term.

Each function takes a temperature or an array of them and returns the same
shape (a float for a scalar); fits, CLI tables and the simulator call them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_core import zeeman_temperature

__all__ = [
    "DEFAULT_T1_PARAMS",
    "DEFAULT_T2_PARAMS",
    "PolarizationPoint",
    "T1ModelParams",
    "T2ModelParams",
    "flip_flop_factor",
    "polarization",
    "t1_rate",
    "t1_time",
    "t2_rate",
    "t2_time",
    "zeeman_temperature",
]


@dataclass(frozen=True)
class T2ModelParams:
    """Constants of the flip-flop decoherence model (rates in 1/us)."""

    c_per_us: float
    t_zeeman_k: float
    gamma_res_per_us: float

    def __post_init__(self) -> None:
        if not 0 <= self.c_per_us < math.inf:
            raise ValueError("flip-flop prefactor must be non-negative and finite")
        if not 0 < self.t_zeeman_k < math.inf:
            raise ValueError("Zeeman temperature must be positive and finite")
        if not 0 <= self.gamma_res_per_us < math.inf:
            raise ValueError("residual rate must be non-negative and finite")


@dataclass(frozen=True)
class T1ModelParams:
    """Constants of the phonon relaxation model (rates in 1/s)."""

    a_per_s_k: float
    b_per_s_k5: float

    def __post_init__(self) -> None:
        if not (0 <= self.a_per_s_k < math.inf and 0 <= self.b_per_s_k5 < math.inf):
            raise ValueError("phonon coefficients must be non-negative and finite")

    @property
    def crossover_temperature_k(self) -> float:
        """Temperature where the direct and Raman terms are equal."""
        if self.a_per_s_k == 0 or self.b_per_s_k5 == 0:
            raise ValueError("crossover undefined when a coefficient is zero")
        return (self.a_per_s_k / self.b_per_s_k5) ** 0.25


# Reference constants for the type-Ib sample the models were calibrated on.
# C reproduces T2 = 6.7 us at 300 K after subtracting the 13C residual rate
# of 0.004 /us (250 us saturation value).
DEFAULT_T2_PARAMS = T2ModelParams(
    c_per_us=0.58136, t_zeeman_k=14.7, gamma_res_per_us=0.004
)
DEFAULT_T1_PARAMS = T1ModelParams(a_per_s_k=8.0e-3, b_per_s_k5=3.5e-10)


@dataclass(frozen=True)
class PolarizationPoint:
    """Thermal state of the two-level bath at one temperature or an array of them."""

    temperature_k: float | np.ndarray
    t_zeeman_k: float
    polarization: float | np.ndarray
    p_lower: float | np.ndarray
    p_upper: float | np.ndarray


def polarization(temperature, t_zeeman: float) -> PolarizationPoint:
    """Boltzmann polarization of the bath, ``tanh(T_Ze / 2T)``.

    ``temperature`` (lattice, K) and ``t_zeeman`` (Zeeman splitting, K) are > 0.
    """
    t, x = _zeeman_ratio(temperature, t_zeeman)
    # exp(-x) keeps both level populations finite for arbitrarily cold baths.
    e = np.exp(-x)
    return PolarizationPoint(
        temperature_k=_out(t),
        t_zeeman_k=t_zeeman,
        polarization=_out(np.tanh(0.5 * x)),
        p_lower=_out(1.0 / (1.0 + e)),
        p_upper=_out(e / (1.0 + e)),
    )


def flip_flop_factor(temperature, t_zeeman: float):
    """Pair flip-flop probability factor ``P_down * P_up = 1/(2 + 2 cosh(T_Ze/T))``.

    Equals ``(1 - p**2)/4`` for polarization p: 1/4 in the hot limit, and
    exponentially small once the bath freezes out.
    """
    _, x = _zeeman_ratio(temperature, t_zeeman)
    # e^-x form is overflow-safe for any positive x.
    e = np.exp(-x)
    return _out(e / ((1.0 + e) * (1.0 + e)))


def t2_rate(temperature, params: T2ModelParams = DEFAULT_T2_PARAMS):
    """Decoherence rate 1/T2 in 1/us: ``C * flip_flop + Gamma_res``."""
    return (
        params.c_per_us * flip_flop_factor(temperature, params.t_zeeman_k)
        + params.gamma_res_per_us
    )


def t2_time(temperature, params: T2ModelParams = DEFAULT_T2_PARAMS):
    """Coherence time T2 in seconds."""
    return 1e-6 / t2_rate(temperature, params)


def t1_rate(temperature, params: T1ModelParams = DEFAULT_T1_PARAMS):
    """Spin-lattice rate 1/T1 in 1/s: ``A*T + B*T**5``."""
    t = _positive(temperature, "temperature")
    return _out(params.a_per_s_k * t + params.b_per_s_k5 * t**5)


def t1_time(temperature, params: T1ModelParams = DEFAULT_T1_PARAMS):
    """Spin-lattice time T1 in seconds."""
    if params.a_per_s_k == 0 and params.b_per_s_k5 == 0:
        raise ValueError("T1 undefined for zero total rate")
    return 1.0 / t1_rate(temperature, params)


def _positive(value, what: str) -> np.ndarray:
    """``value`` as a float array; raises unless every entry is finite and > 0."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim:  # min and max propagate NaN, so they cover every entry
        lo, hi = arr.min(initial=math.inf), arr.max(initial=-math.inf)
    else:  # a float comparison skips two numpy reductions
        lo = hi = float(arr)
    if not (lo > 0 and hi < math.inf):
        bad = arr[~((arr > 0) & (arr < math.inf))].flat[0]
        raise ValueError(f"{what} must be positive and finite, got {bad}")
    return arr


def _zeeman_ratio(temperature, t_zeeman):
    # T_Ze / T past the largest float is inf, every formula's frozen limit.
    t = _positive(temperature, "temperature")
    with np.errstate(over="ignore"):
        return t, _positive(t_zeeman, "Zeeman temperature") / t


def _out(value):
    # The formulas run on (0-d) arrays, so a scalar's float has an element's bits.
    return float(value) if np.ndim(value) == 0 else value
