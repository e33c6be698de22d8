"""cw EPR spectrum synthesis for mixtures of diamond defect centers.

Pipeline: enumerate first-order stick positions for every (orientation,
nuclear projection, transition) of each center, weight them by orientation
fraction, nuclear-level fraction and the thermal population difference of
the two transition levels, then convolve with derivative-Gaussian lines and
locate peaks in the result. Field axes are in tesla, amplitudes in arbitrary
units with the convention that an isolated line's peak-to-peak amplitude
scales as weight / linewidth**2.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spin_core import (
    CONSTANTS,
    CenterParams,
    TransitionSpec,
    effective_g,
    observed_transitions,
    resonance_field,
    tetrahedral_orientations,
    DEFAULT_TILT_AZIMUTH_DEG,
)
from . import table

# Default scan window and step around the 240 GHz resonances.
DEFAULT_FIELD_START = 8.40
DEFAULT_FIELD_STOP = 8.75
DEFAULT_FIELD_STEP = 2e-6

# Longest grid convolve allocates; the default window has 175 001 points.
MAX_GRID_POINTS = 10_000_000

# analyze_peaks ignores extrema below this fraction of the largest amplitude.
MIN_RELATIVE_PEAK_AMPLITUDE = 1e-3

# Sticks closer than this are treated as one line (exact degeneracies only;
# well below any physical splitting).
MERGE_TOLERANCE = 1e-10


@dataclass(frozen=True)
class Stick:
    """One resonance line before convolution."""

    field_t: float
    weight: float
    label: TransitionSpec


@dataclass(frozen=True)
class StickSpectrum:
    """Merged stick list for one configuration, sorted by field."""

    sticks: tuple[Stick, ...]
    frequency_hz: float
    temperature_k: float
    populations: tuple[tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        fields = [s.field_t for s in self.sticks]
        if any(b < a for a, b in zip(fields, fields[1:])):
            raise ValueError("sticks must be sorted by field")
        if not all(s.weight > 0 for s in self.sticks):
            raise ValueError("stick weights must be positive")

    @property
    def fields(self) -> np.ndarray:
        return np.array([s.field_t for s in self.sticks])

    @property
    def weights(self) -> np.ndarray:
        return np.array([s.weight for s in self.sticks])


@dataclass(frozen=True)
class Spectrum:
    """Convolved derivative spectrum on a uniform field grid."""

    field_t: np.ndarray
    amplitude: np.ndarray
    frequency_hz: float
    temperature_k: float
    populations: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.field_t.shape != self.amplitude.shape:
            raise ValueError("field and amplitude grids differ in length")
        if self.field_t.size < 2:
            raise ValueError("spectrum needs at least two grid points")
        steps = np.diff(self.field_t)
        # Uniform up to floating rounding of the grid construction.
        tol = 1e-13 * max(1.0, float(np.max(np.abs(self.field_t))))
        if np.any(np.abs(steps - steps[0]) > tol):
            raise ValueError("field grid must be uniform")


@dataclass(frozen=True)
class Peak:
    """One derivative line located in a spectrum."""

    center_field_t: float
    pp_width_t: float
    pp_amplitude: float


@dataclass(frozen=True)
class PeakReport:
    peaks: tuple[Peak, ...]


def build_sticks(
    centers: Sequence[tuple[CenterParams, float]],
    frequency: float,
    temperature: float,
    tilt_deg: float = 0.0,
    tilt_azimuth_deg: float = DEFAULT_TILT_AZIMUTH_DEG,
) -> StickSpectrum:
    """Stick spectrum of a center mixture at one spectrometer frequency.

    Parameters
    ----------
    centers:
        ``(params, population)`` pairs; populations are relative spin counts.
    frequency:
        Spectrometer frequency, Hz.
    temperature:
        Sample temperature, K. Enters through the Boltzmann population
        difference of the two levels of each transition, evaluated at the
        line's own resonance field.
    tilt_deg, tilt_azimuth_deg:
        Field direction relative to the <111> axis; see
        :func:`nvbath.spin_core.tetrahedral_orientations`.

    A stick's weight is ``population * orientation_fraction *
    nuclear_fraction * population_difference``; coincident lines (same field
    within 1e-10 T, e.g. the m_i = 0 lines of all four orientations at zero
    tilt) are merged by summing weights.
    """
    if not centers:
        raise ValueError("at least one center is required")
    # k_B T must not underflow to 0 either: it divides the level energies.
    if not 0 < CONSTANTS.boltzmann_k * temperature < math.inf:
        raise ValueError(f"temperature must be positive and finite, got {temperature}")
    for params, population in centers:
        if population <= 0:
            raise ValueError(f"population for {params.label} must be positive")
    orientations = tetrahedral_orientations(tilt_deg, tilt_azimuth_deg)
    total_deg = sum(o.degeneracy for o in orientations)
    raw: list[Stick] = []
    for params, population in centers:
        n_nuclear = int(round(2 * params.nuclear_spin)) + 1
        m_i_values = [-params.nuclear_spin + k for k in range(n_nuclear)]
        for orient in orientations:
            for m_lo, m_hi in observed_transitions(params):
                for m_i in m_i_values:
                    spec = TransitionSpec(params, orient, m_lo, m_hi, m_i)
                    field = resonance_field(spec, frequency)
                    delta_p = _population_difference(spec, field, temperature)
                    weight = (
                        population
                        * (orient.degeneracy / total_deg)
                        * (1.0 / n_nuclear)
                        * delta_p
                    )
                    raw.append(Stick(field, weight, spec))
    raw.sort(key=lambda s: s.field_t)
    merged: list[Stick] = []
    for stick in raw:
        if merged and stick.field_t - merged[-1].field_t <= MERGE_TOLERANCE:
            prev = merged[-1]
            merged[-1] = Stick(prev.field_t, prev.weight + stick.weight, prev.label)
        else:
            merged.append(stick)
    populations = tuple((params.label, pop) for params, pop in centers)
    return StickSpectrum(tuple(merged), frequency, temperature, populations)


def _population_difference(
    spec: TransitionSpec, field: float, temperature: float
) -> float:
    """Boltzmann population difference across one transition.

    Levels of the electronic manifold at the line's resonance field, first
    order in the zero-field and hyperfine terms (so the gap of the driven
    pair is exactly the spectrometer quantum). For spin 1/2 this reduces to
    the bath polarization.
    """
    params = spec.center
    orient = spec.orientation
    s = params.spin
    g = effective_g(params.g_parallel, params.g_perp, orient.cos_theta)
    angular = 0.5 * (3.0 * orient.cos_theta**2 - 1.0)
    n_levels = int(round(2 * s)) + 1
    m_values = [-s + k for k in range(n_levels)]
    energies = []
    for m in m_values:
        zeeman = g * CONSTANTS.bohr_magneton * field * m
        zfs = (
            CONSTANTS.planck_h
            * params.zero_field_d
            * angular
            * (m * m - s * (s + 1) / 3.0)
        )
        hyperfine = CONSTANTS.planck_h * spec.hyperfine * m * spec.m_i
        energies.append(zeeman + zfs + hyperfine)
    beta = 1.0 / (CONSTANTS.boltzmann_k * temperature)
    e_min = min(energies)
    boltzmann = [math.exp(-beta * (e - e_min)) for e in energies]
    z = sum(boltzmann)
    pops = {m: b / z for m, b in zip(m_values, boltzmann)}
    return pops[spec.m_s_low] - pops[spec.m_s_high]


def convolve(
    sticks: StickSpectrum,
    field_start: float = DEFAULT_FIELD_START,
    field_stop: float = DEFAULT_FIELD_STOP,
    field_step: float = DEFAULT_FIELD_STEP,
) -> Spectrum:
    """Derivative-Gaussian convolution of a stick spectrum.

    Each stick contributes the exact derivative of an area-normalized
    Gaussian with sigma = linewidth_pp / 2, so its extrema sit at
    ``field +- linewidth_pp/2`` and its peak-to-peak amplitude is
    proportional to ``weight / linewidth_pp**2``. Emits a warning and a
    truncated spectrum if the grid does not cover every stick by at least
    five linewidths. Refuses a grid of more than ``MAX_GRID_POINTS`` points.
    """
    if not all(map(math.isfinite, (field_start, field_stop, field_step))):
        raise ValueError("field grid start, stop and step must be finite")
    if field_step <= 0:
        raise ValueError(f"field step must be positive, got {field_step}")
    if field_stop <= field_start:
        raise ValueError("field_stop must exceed field_start")
    # Checked in floating point, before any allocation or int conversion.
    span = (field_stop - field_start) / field_step
    if span >= MAX_GRID_POINTS:
        raise ValueError(
            f"field grid of {span + 1:.3g} points is over the limit of "
            f"{MAX_GRID_POINTS:.0e}; raise the step or narrow the window"
        )
    n = int(math.floor(span)) + 1
    grid = field_start + field_step * np.arange(n)
    amplitude = np.zeros(n)
    for stick in sticks.sticks:
        width = stick.label.center.linewidth_pp
        sigma = np.float64(0.5 * width)  # so sigma**2 overflows to inf, not raises
        if (
            stick.field_t - 5 * width < grid[0]
            or stick.field_t + 5 * width > grid[-1]
        ):
            warnings.warn(
                f"grid [{field_start:g}, {field_stop:g}] T does not cover the "
                f"stick at {stick.field_t:.6f} T by 5 linewidths; spectrum "
                "is truncated",
                stacklevel=2,
            )
        # 8 sigma window: the discarded tail is < 1e-14 of the line area.
        lo = int(np.searchsorted(grid, stick.field_t - 8 * sigma))
        hi = int(np.searchsorted(grid, stick.field_t + 8 * sigma))
        if lo >= hi:
            continue
        x = grid[lo:hi] - stick.field_t
        gauss = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
        amplitude[lo:hi] += stick.weight * (-x / sigma**2) * gauss
    return Spectrum(
        field_t=grid,
        amplitude=amplitude,
        frequency_hz=sticks.frequency_hz,
        temperature_k=sticks.temperature_k,
        populations=sticks.populations,
    )


def analyze_peaks(spectrum: Spectrum) -> PeakReport:
    """Locate derivative lines as (maximum, following minimum) extremum pairs.

    Extremum positions are refined by parabolic interpolation, giving
    sub-grid-step centers and widths. Extrema below
    ``MIN_RELATIVE_PEAK_AMPLITUDE`` of the global amplitude scale are ignored.
    """
    a = spectrum.amplitude
    field = spectrum.field_t
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    if scale == 0.0:
        return PeakReport(())
    if not scale < 0.5 * sys.float_info.max:  # so a max - min difference is finite
        raise ValueError(f"amplitude {scale:.3g} overflows; lower the populations")
    threshold = MIN_RELATIVE_PEAK_AMPLITUDE * scale
    diffs = np.diff(a)
    before, after = diffs[:-1], diffs[1:]
    large = np.abs(a[1:-1]) >= threshold
    is_max = large & (before > 0) & (after <= 0)
    is_min = large & (before < 0) & (after >= 0)
    extrema = [
        (i + 1, "max" if is_max[i] else "min")
        for i in np.flatnonzero(is_max | is_min).tolist()
    ]
    peaks: list[Peak] = []
    k = 0
    while k < len(extrema) - 1:
        (i, kind), (j, kind_next) = extrema[k], extrema[k + 1]
        if kind == "max" and kind_next == "min":
            b_max = _refine_extremum(field, a, i)
            b_min = _refine_extremum(field, a, j)
            peaks.append(
                Peak(
                    center_field_t=0.5 * (b_max + b_min),
                    pp_width_t=b_min - b_max,
                    pp_amplitude=float(a[i] - a[j]),
                )
            )
            k += 2
        else:
            k += 1
    return PeakReport(tuple(peaks))


def _refine_extremum(field: np.ndarray, a: np.ndarray, i: int) -> float:
    """Parabolic sub-grid refinement of an extremum at index i."""
    denom = a[i - 1] - 2.0 * a[i] + a[i + 1]
    if denom == 0.0:
        return float(field[i])
    delta = 0.5 * (a[i - 1] - a[i + 1]) / denom
    step = field[1] - field[0]
    return float(field[i] + delta * step)


def write_spectrum_csv(spectrum: Spectrum, path, header_lines: Sequence[str] = ()) -> None:
    """Write ``field_T,amplitude`` rows at full double precision, LF endings."""
    meta = f"frequency_hz={table.cell(spectrum.frequency_hz)} "
    meta += f"temperature_K={table.cell(spectrum.temperature_k)}"
    for label, population in spectrum.populations:
        meta += f" population_{label}={table.cell(population)}"
    table.write(
        path,
        [*header_lines, meta],
        ("field_T", "amplitude"),
        zip(spectrum.field_t, spectrum.amplitude),
    )


def write_peaks_csv(report: PeakReport, path, header_lines: Sequence[str] = ()) -> None:
    """Write one row per located peak."""
    table.write(
        path,
        header_lines,
        ("center_field_T", "pp_width_T", "pp_amplitude"),
        ((p.center_field_t, p.pp_width_t, p.pp_amplitude) for p in report.peaks),
    )
