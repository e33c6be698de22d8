"""Thermal polarization and relaxation-rate models for the nitrogen bath.

The bath spins are two-level systems with Zeeman splitting ``T_Ze`` kelvin
(``h nu / k_B``, about 11.5 K at 240 GHz). Cooling below that scale freezes
the bath into its ground state, which quenches the energy-conserving
flip-flop dynamics responsible for decoherence of a probe spin. Closed
forms capture the temperature dependence:

* polarization ``p = tanh(T_Ze / 2T)``, the lower level's population minus
  the upper's;
* decoherence rate ``1/T2 = C * P_down * P_up + Gamma_res`` (per microsecond),
  where ``P_down * P_up`` is the probability factor for a bath pair to
  flip-flop and ``Gamma_res`` is the residual rate from the 13C nuclear bath;
* spin-lattice rate ``1/T1 = A*T + B*T**5`` (per second), a direct phonon
  term plus a two-phonon Raman term.

Each function takes a temperature or an array of them and returns its value
in the same shape (a float for a scalar); fits, CLI tables and the simulator
call them.
"""

from dataclasses import dataclass

import numpy as np

from ._domain import check


@dataclass(frozen=True)
class T2ModelParams:
    """Constants of the flip-flop decoherence model (rates in 1/us)."""

    c_per_us: float
    t_zeeman_k: float
    gamma_res_per_us: float

    def __post_init__(self) -> None:
        check("flip-flop prefactor C", self.c_per_us, strict=False)
        check("Zeeman temperature", self.t_zeeman_k)
        check("residual rate Gamma_res", self.gamma_res_per_us, strict=False)


@dataclass(frozen=True)
class T1ModelParams:
    """Constants of the phonon relaxation model (rates in 1/s)."""

    a_per_s_k: float
    b_per_s_k5: float

    def __post_init__(self) -> None:
        check("phonon coefficient A", self.a_per_s_k, strict=False)
        check("phonon coefficient B", self.b_per_s_k5, strict=False)

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


def polarization(temperature, t_zeeman: float):
    """Boltzmann polarization of the bath, ``tanh(T_Ze / 2T)``: 0 in the hot
    limit, 1 for a frozen bath.

    ``temperature`` (lattice, K) and ``t_zeeman`` (Zeeman splitting, K) are > 0.
    """
    return _out(np.tanh(0.5 * _zeeman_ratio(temperature, t_zeeman)))


def flip_flop_factor(temperature, t_zeeman: float):
    """Pair flip-flop probability factor ``P_down * P_up = 1/(2 + 2 cosh(T_Ze/T))``.

    Equals ``(1 - p**2)/4`` for polarization p: 1/4 in the hot limit, and
    exponentially small once the bath freezes out. The bound 1/4 is exact:
    near the hot limit the rounded quotient would exceed it by one ulp.
    """
    # e^-x form is overflow-safe for any positive x.
    e = np.exp(-_zeeman_ratio(temperature, t_zeeman))
    return _out(np.minimum(e / ((1.0 + e) * (1.0 + e)), 0.25))


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
    t = check("temperature", np.asarray(temperature, dtype=float))
    return _out(params.a_per_s_k * t + params.b_per_s_k5 * t**5)


def t1_time(temperature, params: T1ModelParams = DEFAULT_T1_PARAMS):
    """Spin-lattice time T1 in seconds."""
    if params.a_per_s_k == 0 and params.b_per_s_k5 == 0:
        raise ValueError("T1 undefined for zero total rate")
    return 1.0 / t1_rate(temperature, params)


def _zeeman_ratio(temperature, t_zeeman):
    # T_Ze / T past the largest float is inf, every formula's frozen limit.
    t = check("temperature", np.asarray(temperature, dtype=float))
    with np.errstate(over="ignore"):
        return check("Zeeman temperature", np.asarray(t_zeeman, dtype=float)) / t


def _out(value):
    # The formulas run on (0-d) arrays, so a scalar's float has an element's bits.
    return float(value) if np.ndim(value) == 0 else value
