"""Desk-scale pulsed-EPR toolkit for nitrogen spin baths in diamond.

Models the two paramagnetic species of type-Ib diamond, the substitutional
nitrogen center (spin 1/2) and the nitrogen-vacancy center (spin 1), at high
magnetic field: cw spectrum synthesis, thermal bath polarization, flip-flop
and phonon relaxation models, stochastic Hahn-echo simulation, and nonlinear
model fitting.
"""

from . import bath_model, datasets, fitkit, pulse_sim, spectra, spin_core

__version__ = "0.5.0"

__all__ = [
    "__version__",
    "bath_model",
    "datasets",
    "fitkit",
    "pulse_sim",
    "spectra",
    "spin_core",
]
