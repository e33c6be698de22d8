"""Constants, first-order resonance fields and level energies for diamond EPR.

Covers the two species seen in type-Ib diamond: the substitutional nitrogen
center (electron spin 1/2, hyperfine-coupled to its own 14N nucleus) and the
nitrogen-vacancy center (electron spin 1, zero-field splitting D). At 8.5 T
the electron Zeeman energy exceeds the zero-field and hyperfine terms by
roughly two orders of magnitude, so line positions are evaluated to first
order in those terms. All functions are pure and all units are SI: fields in
tesla, frequencies in hertz, temperatures in kelvin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._domain import check, one_of


@dataclass(frozen=True)
class PhysicalConstants:
    """Exact SI-2019 values; immutable by construction."""

    planck_h: float = 6.62607015e-34  # J s
    bohr_magneton: float = 9.2740100783e-24  # J / T
    boltzmann_k: float = 1.380649e-23  # J / K


CONSTANTS = PhysicalConstants()

# Spectrometer frequency of the reference measurements (11.5 K Zeeman
# temperature).
DEFAULT_FREQUENCY_HZ = 240e9

ORIENTATION_LABELS = ("o111", "oA", "oB", "oC")

# Projections m_i of the 14N nucleus (I = 1) hyperfine-coupled to both centers.
NUCLEAR_PROJECTIONS = (-1.0, 0.0, 1.0)

# Unit axes of the four <111> defect orientations, cubic crystal frame.
_AXES = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / math.sqrt(3.0)

# A tilt exactly in a {110} plane leaves two off-axis orientations degenerate;
# a generic azimuth splits all three.
DEFAULT_TILT_AZIMUTH_DEG = 15.0


@dataclass(frozen=True)
class CenterParams:
    """Static spin-Hamiltonian parameters of one defect species.

    Parameters
    ----------
    label:
        Species tag, ``"N"`` or ``"NV"``.
    spin:
        Electron spin quantum number, 0.5 or 1.0.
    g_parallel, g_perp:
        g-factor along and perpendicular to the defect axis. The effective
        g for an orientation at angle theta to the field is
        ``sqrt(g_parallel**2 cos^2 + g_perp**2 sin^2)``.
    zero_field_d:
        Axial zero-field splitting in Hz (0 for the nitrogen center).
    hyperfine_111, hyperfine_other:
        14N hyperfine splitting in Hz for the orientation parallel to the
        field and for the three inclined orientations.
    linewidth_pp:
        Peak-to-peak width of the derivative line, tesla.

    The coupled nucleus is always 14N; see ``NUCLEAR_PROJECTIONS``.
    """

    label: str
    spin: float
    g_parallel: float
    g_perp: float
    zero_field_d: float
    hyperfine_111: float
    hyperfine_other: float
    linewidth_pp: float

    def __post_init__(self) -> None:
        one_of("center label", ("N", "NV"), self.label)
        one_of("electron spin", (0.5, 1.0), self.spin)
        for name in ("g_parallel", "g_perp", "linewidth_pp"):
            check(name, getattr(self, name))
        for name in ("zero_field_d", "hyperfine_111", "hyperfine_other"):
            check(name, getattr(self, name), strict=False)

    def replace(self, **overrides) -> "CenterParams":
        """Copy with selected fields overridden."""
        return replace(self, **overrides)


# The perpendicular g of the nitrogen center is measured slightly above the
# parallel value (up to about 2.0026). The default keeps g isotropic so the
# m_i = 0 lines of all four orientations coincide, which is what the default
# five-line spectrum assumes; set g_perp per run to model the anisotropy.
N_DEFAULT = CenterParams(
    label="N",
    spin=0.5,
    g_parallel=2.0024,
    g_perp=2.0024,
    zero_field_d=0.0,
    hyperfine_111=114e6,
    hyperfine_other=86e6,
    linewidth_pp=0.95e-4,
)

NV_DEFAULT = CenterParams(
    label="NV",
    spin=1.0,
    g_parallel=2.0028,
    g_perp=2.0028,
    zero_field_d=2.87e9,
    hyperfine_111=2.2e6,
    hyperfine_other=2.2e6,
    linewidth_pp=2.36e-4,
)


@dataclass(frozen=True)
class Orientation:
    """One defect axis relative to the applied field."""

    axis_label: str
    cos_theta: float

    def __post_init__(self) -> None:
        one_of("axis label", ORIENTATION_LABELS, self.axis_label)
        if not -1.0 <= self.cos_theta <= 1.0:
            raise ValueError(f"cos_theta outside [-1, 1]: {self.cos_theta}")


@dataclass(frozen=True)
class TransitionSpec:
    """A single allowed EPR transition of one center and orientation.

    ``m_s_low`` and ``m_s_high`` are the lower- and upper-energy electron
    projections (``m_s_high = m_s_low + 1`` at positive field and g), and
    ``m_i`` is the spectator nuclear projection.
    """

    center: CenterParams
    orientation: Orientation
    m_s_low: float
    m_s_high: float
    m_i: float

    def __post_init__(self) -> None:
        if abs(self.m_s_high - self.m_s_low - 1.0) > 1e-12:
            raise ValueError("m_s_high must equal m_s_low + 1")
        s = self.center.spin
        if abs(self.m_s_low) > s or abs(self.m_s_high) > s:
            raise ValueError(f"m_s projections exceed spin {s}")
        one_of("nuclear projection m_i", NUCLEAR_PROJECTIONS, self.m_i)

    @property
    def hyperfine(self) -> float:
        """``hyperfine_111`` on the parallel axis, else ``hyperfine_other``."""
        if self.orientation.axis_label == "o111":
            return self.center.hyperfine_111
        return self.center.hyperfine_other


def zeeman_temperature(frequency: float) -> float:
    """Electron Zeeman energy of a resonant spin expressed in kelvin.

    ``h * frequency / k_B``; 240 GHz maps to 11.52 K, which is why the
    nitrogen bath polarizes at liquid-helium temperatures.
    """
    return CONSTANTS.planck_h * check("frequency", frequency) / CONSTANTS.boltzmann_k


def field_to_frequency(field: float, g: float) -> float:
    """Zeeman resonance frequency (Hz) of a free spin with g-factor g."""
    check("field", field, strict=False)
    return check("g", g) * CONSTANTS.bohr_magneton * field / CONSTANTS.planck_h


def frequency_to_field(frequency: float, g: float) -> float:
    """Inverse of :func:`field_to_frequency`."""
    check("frequency", frequency, strict=False)
    return CONSTANTS.planck_h * frequency / (check("g", g) * CONSTANTS.bohr_magneton)


def effective_g(g_parallel: float, g_perp: float, cos_theta: float) -> float:
    """Orientation-dependent g for an axial center."""
    if not -1.0 <= cos_theta <= 1.0:
        raise ValueError(f"cos_theta outside [-1, 1]: {cos_theta}")
    check("g_parallel", g_parallel)
    check("g_perp", g_perp)
    c2 = cos_theta * cos_theta
    return math.sqrt(g_parallel * g_parallel * c2 + g_perp * g_perp * (1.0 - c2))


def _angular(cos_theta: float) -> float:
    """Axial zero-field factor ``(3 cos^2 - 1) / 2``."""
    if not -1.0 <= cos_theta <= 1.0:
        raise ValueError(f"cos_theta outside [-1, 1]: {cos_theta}")
    return 0.5 * (3.0 * cos_theta * cos_theta - 1.0)


def zfs_first_order_shift(
    zero_field_d: float, cos_theta: float, m_s_low: float, m_s_high: float
) -> float:
    """First-order zero-field shift of a line position, in frequency units.

    Returns ``D * (3 cos^2 - 1)/2 * (m_s_low^2 - m_s_high^2)`` with the sign
    convention that positive values move the resonance to higher field at
    fixed spectrometer frequency. For the |0> <-> |-1> transition at
    cos_theta = 1 the shift is +D, placing that line on the high-field side;
    at the magic angle the shift vanishes for every transition.
    """
    return zero_field_d * _angular(cos_theta) * (m_s_low * m_s_low - m_s_high * m_s_high)


def resonance_field(transition: TransitionSpec, frequency: float) -> float:
    """Resonance field (T) of one transition at the given spectrometer frequency.

    First order in the zero-field and hyperfine terms:
    ``B = (frequency + zfs_shift - m_i * A_eff) * h / (g_eff * mu_B)``.
    The hyperfine constant is selected by orientation (the parallel axis
    uses ``hyperfine_111``, the inclined ones ``hyperfine_other``).

    Raises
    ------
    ValueError
        If the requested frequency is at or below the combined zero-field
        and hyperfine offset, which has no positive-field solution.
    """
    check("frequency", frequency)
    center = transition.center
    orient = transition.orientation
    g = effective_g(center.g_parallel, center.g_perp, orient.cos_theta)
    a_eff = transition.hyperfine
    shift = zfs_first_order_shift(
        center.zero_field_d, orient.cos_theta, transition.m_s_low, transition.m_s_high
    )
    nu_eff = frequency + shift - transition.m_i * a_eff
    if nu_eff <= 0:
        raise ValueError(
            f"no positive resonance field: frequency {frequency:g} Hz does not "
            f"exceed the first-order offset {shift - transition.m_i * a_eff:g} Hz "
            f"of transition ({transition.m_s_low:g} -> {transition.m_s_high:g}, "
            f"m_i = {transition.m_i:g})"
        )
    return frequency_to_field(nu_eff, g)


def level_energies(transition: TransitionSpec, field: float) -> dict[float, float]:
    """Electron level energies (J) of the transition's center, keyed by m_s.

    First order in the zero-field and hyperfine terms, in the orientation
    and nuclear projection of ``transition``:
    ``E(m) = g_eff mu_B B m + h D (3 cos^2 - 1)/2 (m^2 - S(S+1)/3)
    + h A_eff m m_i``. At the transition's own :func:`resonance_field` the
    gap of the driven pair is exactly the spectrometer quantum.
    """
    center = transition.center
    cos_theta = transition.orientation.cos_theta
    s = center.spin
    g = effective_g(center.g_parallel, center.g_perp, cos_theta)
    zeeman = g * CONSTANTS.bohr_magneton * field
    zfs = CONSTANTS.planck_h * center.zero_field_d * _angular(cos_theta)
    hyperfine = CONSTANTS.planck_h * transition.hyperfine
    return {
        m: zeeman * m + zfs * (m * m - s * (s + 1) / 3.0) + hyperfine * m * transition.m_i
        for m in (-s + k for k in range(int(round(2 * s)) + 1))
    }


def tetrahedral_orientations(
    tilt_deg: float = 0.0, azimuth_deg: float = DEFAULT_TILT_AZIMUTH_DEG
) -> tuple[Orientation, ...]:
    """The four <111> defect orientations for a field tilted from <111>.

    At zero tilt one orientation has cos_theta = 1 and the other three have
    exactly -1/3. ``tilt_deg`` rotates the field away from the first axis;
    ``azimuth_deg`` picks the rotation plane (a generic value splits the
    three inclined orientations into three distinct angles).
    """
    if not 0.0 <= tilt_deg < 90.0:
        raise ValueError(f"tilt must lie in [0, 90) degrees, got {tilt_deg}")
    if tilt_deg == 0.0:
        cosines = np.array([1.0, -1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0])
    else:
        n1 = _AXES[0]
        # In-plane unit vector toward axis 2, and its normal, spanning the
        # plane perpendicular to n1.
        u = _AXES[1] - (n1 * _AXES[1]).sum() * n1
        u = u / math.sqrt((u * u).sum())
        v = np.cross(n1, u)
        tilt = math.radians(tilt_deg)
        azim = math.radians(azimuth_deg)
        b_hat = math.cos(tilt) * n1 + math.sin(tilt) * (
            math.cos(azim) * u + math.sin(azim) * v
        )
        cosines = np.clip((b_hat * _AXES).sum(axis=1), -1.0, 1.0)
    return tuple(map(Orientation, ORIENTATION_LABELS, cosines.tolist()))


def observed_transitions(center: CenterParams) -> tuple[tuple[float, float], ...]:
    """(m_s_low, m_s_high) pairs of the transitions in the measured window.

    The nitrogen center has its single spin-1/2 transition. For the
    nitrogen-vacancy center only the |-1> <-> |0> branch is returned; the
    |0> <-> |+1> branch sits 2 D away in field and is outside the scanned
    window at the default configuration.
    """
    if center.spin == 0.5:
        return ((-0.5, 0.5),)
    return ((-1.0, 0.0),)
