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
from functools import cached_property
from typing import Sequence

import numpy as np

from .spin_core import (
    BOLTZMANN_K,
    NUCLEAR_PROJECTIONS,
    CenterParams,
    TransitionSpec,
    level_energies,
    observed_transitions,
    resonance_field,
    tetrahedral_orientations,
    DEFAULT_TILT_AZIMUTH_DEG,
)
from . import table
from ._domain import check

# Default scan window and step around the 240 GHz resonances.
DEFAULT_FIELD_START = 8.40
DEFAULT_FIELD_STOP = 8.75
DEFAULT_FIELD_STEP = 2e-6

# Longest grid convolve allocates; the default window has 175 000 points
# (8.40 to 8.749998 T).
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
        check("stick weight", self.weights)

    @property
    def fields(self) -> np.ndarray:
        return np.array([s.field_t for s in self.sticks])

    @property
    def weights(self) -> np.ndarray:
        return np.array([s.weight for s in self.sticks])


@dataclass(frozen=True)
class Spectrum:
    """Convolved derivative spectrum on the uniform field grid
    ``field_start + k * field_step``, k = 0 .. ``amplitude.size`` - 1."""

    field_start: float
    field_step: float
    amplitude: np.ndarray
    frequency_hz: float
    temperature_k: float
    populations: tuple[tuple[str, float], ...]

    def __post_init__(self) -> None:
        if self.amplitude.size < 2:
            raise ValueError("spectrum needs at least two grid points")

    @cached_property
    def field_t(self) -> np.ndarray:
        """The grid, built once: in place, the same products and sums as
        ``field_start + field_step * np.arange(n)``, in one column."""
        grid = np.arange(self.amplitude.size, dtype=float)
        grid *= self.field_step
        grid += self.field_start
        return grid


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
    check("temperature", temperature)
    for params, population in centers:
        check(f"population for {params.label}", population)
    orientations = tetrahedral_orientations(tilt_deg, tilt_azimuth_deg)
    orientation_fraction = 1.0 / len(orientations)
    nuclear_fraction = 1.0 / len(NUCLEAR_PROJECTIONS)
    raw: list[Stick] = []
    for params, population in centers:
        for orient in orientations:
            for m_lo, m_hi in observed_transitions(params):
                for m_i in NUCLEAR_PROJECTIONS:
                    spec = TransitionSpec(params, orient, m_lo, m_hi, m_i)
                    field = resonance_field(spec, frequency)
                    delta_p = _population_difference(spec, field, temperature)
                    weight = (
                        population * orientation_fraction * nuclear_fraction * delta_p
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

    Levels from :func:`nvbath.spin_core.level_energies` at the line's
    resonance field. For spin 1/2 this reduces to the bath polarization.
    """
    energies = level_energies(spec, field)
    k_t = BOLTZMANN_K * temperature
    beta = 1.0 / k_t if k_t else math.inf
    e_min = min(energies.values())
    boltzmann = {m: math.exp(-beta * (e - e_min)) for m, e in energies.items()}
    z = sum(boltzmann.values())
    delta_p = boltzmann[spec.m_s_low] / z - boltzmann[spec.m_s_high] / z
    # k_B T subnormal, or 0 below 1.8e-301 K, makes beta inf (nan here); a
    # huge one leaves every Boltzmann factor at exactly 1.
    if not delta_p > 0:
        raise ValueError(
            f"temperature {temperature:g} K leaves no positive population "
            f"difference across the {spec.center.label} line at {field:.6g} T; "
            "the temperature or the line's field is out of range"
        )
    return delta_p


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
    proportional to ``weight / linewidth_pp**2``. Emits one warning, naming
    how many sticks the grid misses and their field range, and a truncated
    spectrum if the grid does not cover every stick by at least five
    linewidths. Refuses a grid of fewer than two or more than
    ``MAX_GRID_POINTS`` points before it reads any stick.

    The grid is ``field_start + k * field_step`` for k = 0, 1, ...: it stops
    at the last whole step not past ``field_stop``, so rounding of
    ``(field_stop - field_start) / field_step`` can drop ``field_stop``
    itself (the default window ends at 8.749998 T). The sticks are
    convolved on the returned :class:`Spectrum`'s own ``field_t``.
    """
    check("field_start", field_start, -math.inf)
    check("field_stop", field_stop, -math.inf)
    check("field_step", field_step)
    if field_stop <= field_start:
        raise ValueError("field_stop must exceed field_start")
    # Checked in floating point, before any allocation or int conversion.
    span = (field_stop - field_start) / field_step
    if span >= MAX_GRID_POINTS:
        raise ValueError(
            f"field grid of {span + 1:.3g} points is over the limit of "
            f"{MAX_GRID_POINTS:.0e}; raise the step or narrow the window"
        )
    if span < 1:
        raise ValueError("field grid of one point; lower the step or widen the window")
    n = int(math.floor(span)) + 1
    spectrum = Spectrum(field_start, field_step, np.zeros(n), sticks.frequency_hz,
                        sticks.temperature_k, sticks.populations)
    grid, amplitude = spectrum.field_t, spectrum.amplitude
    fields = sticks.fields
    with np.errstate(over="ignore"):  # an absurd linewidth reaches past any grid
        reach = 5 * np.array([s.label.center.linewidth_pp for s in sticks.sticks])
        uncovered = fields[(fields - reach < grid[0]) | (fields + reach > grid[-1])]
    if uncovered.size:
        warnings.warn(
            f"grid [{field_start:g}, {field_stop:g}] T does not cover {uncovered.size} "
            f"of {fields.size} sticks, {uncovered[0]:.6f} to {uncovered[-1]:.6f} T, "
            "by 5 linewidths; spectrum is truncated",
            stacklevel=2,
        )
    for stick in sticks.sticks:
        width = stick.label.center.linewidth_pp
        sigma = np.float64(0.5 * width)  # so sigma**2 overflows to inf, not raises
        # 8 sigma window: the discarded tail is < 1e-14 of the line area.
        # An absurd linewidth overflows 8 sigma and sigma**2 to inf, which
        # spans the grid with a flat line; absurd populations overflow the
        # sum to inf or nan, which analyze_peaks refuses.
        with np.errstate(over="ignore", invalid="ignore"):
            lo = int(np.searchsorted(grid, stick.field_t - 8 * sigma))
            hi = int(np.searchsorted(grid, stick.field_t + 8 * sigma))
            if lo >= hi:
                continue
            x = grid[lo:hi] - stick.field_t
            gauss = np.exp(-0.5 * (x / sigma) ** 2) / (sigma * math.sqrt(2.0 * math.pi))
            amplitude[lo:hi] += stick.weight * (-x / sigma**2) * gauss
    return spectrum


def analyze_peaks(spectrum: Spectrum) -> PeakReport:
    """Locate derivative lines as (maximum, following minimum) extremum pairs.

    Extremum positions are refined by parabolic interpolation, giving
    sub-grid-step centers and widths. Extrema below
    ``MIN_RELATIVE_PEAK_AMPLITUDE`` of the global amplitude scale are ignored.
    """
    a = spectrum.amplitude
    field = spectrum.field_t
    # max |a| without an |a| column; NaN anywhere makes both NaN.
    scale = max(float(a.max()), float(-a.min())) if a.size else 0.0
    if scale == 0.0:
        return PeakReport(())
    if not scale < 0.5 * sys.float_info.max:  # so a max - min difference is finite
        raise ValueError(f"amplitude {scale:.3g} overflows; lower the populations")
    threshold = MIN_RELATIVE_PEAK_AMPLITUDE * scale
    # With no overflow (checked above), x - y > 0 exactly when x > y, and
    # |x| >= t exactly when x >= t or x <= -t: comparing neighbours finds
    # the extrema of the differences' signs with boolean masks alone.
    left, mid, right = a[:-2], a[1:-1], a[2:]
    large = mid >= threshold
    large |= mid <= -threshold
    is_max = mid > left
    is_max &= mid >= right
    is_max &= large
    is_min = mid < left
    is_min &= mid <= right
    is_min &= large
    extrema = np.flatnonzero(is_max | is_min)
    # A maximum directly followed by a minimum; two such pairs never share
    # an extremum.
    kind_max = is_max[extrema]
    starts = kind_max[:-1] & ~kind_max[1:]
    i, j = extrema[:-1][starts] + 1, extrema[1:][starts] + 1
    b_max, b_min = _refine_extrema(field, a, i), _refine_extrema(field, a, j)
    rows = np.column_stack([0.5 * (b_max + b_min), b_min - b_max, a[i] - a[j]])
    return PeakReport(tuple(Peak(*row) for row in rows.tolist()))


def _refine_extrema(field: np.ndarray, a: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Parabolic sub-grid refinement of the extrema at indices i."""
    denom = a[i - 1] - 2.0 * a[i] + a[i + 1]
    flat = denom == 0.0
    delta = 0.5 * (a[i - 1] - a[i + 1]) / np.where(flat, 1.0, denom)
    return np.where(flat, field[i], field[i] + delta * (field[1] - field[0]))


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
        (spectrum.field_t, spectrum.amplitude),
    )


def write_peaks_csv(report: PeakReport, path, header_lines: Sequence[str] = ()) -> None:
    """Write one row per located peak."""
    peaks = report.peaks
    table.write(
        path,
        header_lines,
        ("center_field_T", "pp_width_T", "pp_amplitude"),
        (
            [p.center_field_t for p in peaks],
            [p.pp_width_t for p in peaks],
            [p.pp_amplitude for p in peaks],
        ),
    )
