"""Resonance-field calculators against hand-derived reference values.

Expected numbers were computed independently (hand calculator from the
SI-2019 constants) and frozen here; they are not round-trips through the
code under test.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from nvbath import spin_core as sc

import spin_exact

# hnu/(g mu_B) at 240 GHz, g = 2.0024
B0_N = 8.563452064487786
# hyperfine field offsets at the same g
OFF_114 = 0.004067639730631698
OFF_86 = 0.0030685703231081232


def test_constants_are_exact_si_values():
    assert sc.PLANCK_H == 6.62607015e-34
    assert sc.BOHR_MAGNETON == 9.2740100783e-24
    assert sc.BOLTZMANN_K == 1.380649e-23


def test_zeeman_temperature_reference_points():
    assert sc.zeeman_temperature(240e9) == pytest.approx(11.51818337607893, rel=1e-12)
    assert sc.zeeman_temperature(9.6e9) == pytest.approx(0.46072733504315716, rel=1e-12)


def test_zeeman_temperature_rejects_nonpositive_frequency():
    with pytest.raises(ValueError):
        sc.zeeman_temperature(0.0)
    with pytest.raises(ValueError):
        sc.zeeman_temperature(-1e9)


def test_field_frequency_conversions():
    assert sc.frequency_to_field(240e9, 2.0024) == pytest.approx(B0_N, rel=1e-12)
    assert sc.field_to_frequency(0.0, 2.0028) == 0.0
    with pytest.raises(ValueError):
        sc.field_to_frequency(1.0, 0.0)
    with pytest.raises(ValueError):
        sc.frequency_to_field(1e9, -2.0)


def test_field_frequency_round_trip():
    for b in np.linspace(0.1, 12.0, 23):
        for g in (2.0024, 2.0028, 1.9):
            back = sc.frequency_to_field(sc.field_to_frequency(b, g), g)
            assert back == pytest.approx(b, rel=1e-12)


def test_effective_g_limits_and_interpolation():
    assert sc.effective_g(2.0024, 2.0030, 1.0) == pytest.approx(2.0024, rel=1e-15)
    assert sc.effective_g(2.0024, 2.0030, -1.0) == pytest.approx(2.0024, rel=1e-15)
    assert sc.effective_g(2.0024, 2.0030, 0.0) == pytest.approx(2.0030, rel=1e-15)
    assert sc.effective_g(2.0024, 2.0030, 0.5) == pytest.approx(
        2.0028500168509873, rel=1e-14
    )
    with pytest.raises(ValueError):
        sc.effective_g(2.0, 2.0, 1.5)


def test_zfs_shift_sign_and_magic_angle():
    # 0 <-> -1 branch on axis: +D, so the line lands on the high-field side
    assert sc.zfs_first_order_shift(2.87e9, 1.0, -1.0, 0.0) == pytest.approx(2.87e9)
    assert sc.zfs_first_order_shift(2.87e9, -1.0 / 3.0, -1.0, 0.0) == pytest.approx(
        -2.87e9 / 3.0
    )
    magic = 1.0 / math.sqrt(3.0)
    for (lo, hi) in ((-1.0, 0.0), (0.0, 1.0), (-0.5, 0.5)):
        assert sc.zfs_first_order_shift(5e9, magic, lo, hi) == pytest.approx(
            0.0, abs=1e-3
        )
    with pytest.raises(ValueError):
        sc.zfs_first_order_shift(2.87e9, 1.2, -1.0, 0.0)


def _n_transition(m_i: float, orientation: sc.Orientation) -> sc.TransitionSpec:
    return sc.TransitionSpec(sc.N_DEFAULT, orientation, -0.5, 0.5, m_i)


def test_n_resonance_fields():
    on_axis = sc.Orientation("o111", 1.0)
    off_axis = sc.Orientation("oA", -1.0 / 3.0)
    assert sc.resonance_field(_n_transition(0.0, on_axis), 240e9) == pytest.approx(
        B0_N, rel=1e-12
    )
    # m_i = 0 lines coincide across orientations for the isotropic default
    assert sc.resonance_field(_n_transition(0.0, off_axis), 240e9) == pytest.approx(
        B0_N, rel=1e-12
    )
    assert sc.resonance_field(_n_transition(1.0, on_axis), 240e9) == pytest.approx(
        B0_N - OFF_114, rel=1e-12
    )
    assert sc.resonance_field(_n_transition(1.0, off_axis), 240e9) == pytest.approx(
        B0_N - OFF_86, rel=1e-12
    )
    assert sc.resonance_field(_n_transition(-1.0, on_axis), 240e9) == pytest.approx(
        B0_N + OFF_114, rel=1e-12
    )


def test_nv_branch_ordering():
    on_axis = sc.Orientation("o111", 1.0)
    off_axis = sc.Orientation("oB", -1.0 / 3.0)
    b_on = sc.resonance_field(
        sc.TransitionSpec(sc.NV_DEFAULT, on_axis, -1.0, 0.0, 0.0), 240e9
    )
    b_off = sc.resonance_field(
        sc.TransitionSpec(sc.NV_DEFAULT, off_axis, -1.0, 0.0, 0.0), 240e9
    )
    assert b_on == pytest.approx(8.664125930470803, rel=1e-12)
    assert b_off == pytest.approx(8.527613714495446, rel=1e-12)
    assert b_on > b_off


# (A_par, A_perp) of the 14N hyperfine tensor of each center. The nitrogen
# center's first-order constant on an inclined axis, sqrt(A_par**2 / 9 +
# A_perp**2 8 / 9), is N_DEFAULT's hyperfine_other of 86 MHz.
HYPERFINE_TENSORS = {"N": (114e6, 81.8e6), "NV": (2.2e6, 2.2e6)}


def test_exact_reference_gives_the_free_spin_line():
    free = replace(sc.N_DEFAULT, hyperfine_111=0.0)
    fields = spin_exact.line_fields(240e9, -0.5, 0.5, 0.5, 2.0024, 2.0024, 0.0, 0.0, 0.0, 1.0)
    assert fields == pytest.approx([B0_N] * 3, abs=1e-12)
    o111 = sc.Orientation("o111", 1.0)
    assert sc.resonance_field(sc.TransitionSpec(free, o111, -0.5, 0.5, 1.0), 240e9) == B0_N


@pytest.mark.parametrize(
    "center, orientation",
    [(sc.N_DEFAULT, 0), (sc.N_DEFAULT, 1), (sc.NV_DEFAULT, 0)],
    ids=["N-o111", "N-inclined", "NV-o111"],
)
def test_first_order_lines_match_the_exact_hamiltonian(center, orientation):
    # Every N line, and the NV lines on the axis, within 2 uT (the default
    # grid step) of the exact field; 1.6 uT is the largest offset.
    orient = sc.tetrahedral_orientations()[orientation]
    (m_lo, m_hi), = sc.observed_transitions(center)
    first = sorted(
        sc.resonance_field(sc.TransitionSpec(center, orient, m_lo, m_hi, m_i), 240e9)
        for m_i in (-1.0, 0.0, 1.0)
    )
    exact = spin_exact.line_fields(
        240e9, m_lo, m_hi, center.spin, center.g_parallel, center.g_perp,
        center.zero_field_d, *HYPERFINE_TENSORS[center.label], orient.cos_theta)
    assert np.abs(np.subtract(exact, first)).max() < 2e-6


def test_resonance_field_monotonicity():
    on_axis = sc.Orientation("o111", 1.0)
    fields = [
        sc.resonance_field(_n_transition(m_i, on_axis), 240e9)
        for m_i in (-1.0, 0.0, 1.0)
    ]
    assert fields[0] > fields[1] > fields[2]
    low = sc.resonance_field(_n_transition(0.0, on_axis), 120e9)
    assert low < fields[1]


def test_resonance_field_rejects_unreachable_transition():
    on_axis = sc.Orientation("o111", 1.0)
    spec = sc.TransitionSpec(sc.NV_DEFAULT, on_axis, 0.0, 1.0, 0.0)
    # 0 <-> +1 on axis shifts by -D; a spectrometer below D has no solution
    with pytest.raises(ValueError):
        sc.resonance_field(spec, 1.0e9)


@pytest.mark.parametrize("center", [sc.N_DEFAULT, sc.NV_DEFAULT])
def test_level_gap_at_resonance_is_the_spectrometer_quantum(center):
    frequency = 240e9
    (m_lo, m_hi), = sc.observed_transitions(center)
    for orient in sc.tetrahedral_orientations(17.5, 77.0):
        for m_i in (-1.0, 0.0, 1.0):
            spec = sc.TransitionSpec(center, orient, m_lo, m_hi, m_i)
            levels = sc.level_energies(spec, sc.resonance_field(spec, frequency))
            assert sorted(levels) == [-center.spin + k for k in range(len(levels))]
            gap = levels[m_hi] - levels[m_lo]
            assert gap == pytest.approx(sc.PLANCK_H * frequency, rel=1e-12)


def test_tetrahedral_orientations_untilted():
    orients = sc.tetrahedral_orientations()
    cos_values = sorted(o.cos_theta for o in orients)
    assert cos_values == [-1.0 / 3.0, -1.0 / 3.0, -1.0 / 3.0, 1.0]
    assert len(orients) == 4
    # off-axis group carries three of the four units of weight
    off = [o for o in orients if o.cos_theta != 1.0]
    assert len(off) == 3


@pytest.mark.parametrize("tilt_deg", [0.7, 2.0, 5.0, 30.0])
@pytest.mark.parametrize("azimuth_deg", [0.0, 15.0, 77.0])
def test_tetrahedral_sum_rule_any_direction(tilt_deg, azimuth_deg):
    orients = sc.tetrahedral_orientations(tilt_deg, azimuth_deg)
    assert len(orients) == 4
    p2 = sum(0.5 * (3.0 * o.cos_theta**2 - 1.0) for o in orients)
    assert p2 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "tilt_deg, azimuth_deg, cosines",
    [
        (3.0, 15.0, (0.9986295347545742, -0.28521501441205,
                     -0.3456473712623702, -0.36776714908015395)),
        (17.5, 77.0, (0.9537169507482272, -0.2541301937501873,
                      -0.11056091777325158, -0.5890258392247884)),
    ],
)
def test_tetrahedral_cosines_frozen(tilt_deg, azimuth_deg, cosines):
    orients = sc.tetrahedral_orientations(tilt_deg, azimuth_deg)
    assert tuple(o.axis_label for o in orients) == sc.ORIENTATION_LABELS
    assert tuple(o.cos_theta for o in orients) == cosines


def test_tilt_splits_off_axis_orientations():
    orients = sc.tetrahedral_orientations(2.0, 15.0)
    assert len(orients) == 4
    cos_values = sorted(o.cos_theta for o in orients)
    assert len(set(round(c, 12) for c in cos_values)) == 4


def test_observed_transitions():
    assert sc.observed_transitions(sc.N_DEFAULT) == ((-0.5, 0.5),)
    assert sc.observed_transitions(sc.NV_DEFAULT) == ((-1.0, 0.0),)


def test_center_params_validation():
    with pytest.raises(ValueError):
        sc.CenterParams(
            label="N",
            spin=0.75,
            g_parallel=2.0,
            g_perp=2.0,
            zero_field_d=0.0,
            hyperfine_111=114e6,
            hyperfine_other=86e6,
            linewidth_pp=1e-4,
        )
    with pytest.raises(ValueError):
        replace(sc.N_DEFAULT, linewidth_pp=0.0)
    with pytest.raises(ValueError):
        replace(sc.N_DEFAULT, hyperfine_111=-1.0)
    tweaked = replace(sc.N_DEFAULT, g_perp=2.0026)
    assert tweaked.g_perp == 2.0026
    assert tweaked.g_parallel == sc.N_DEFAULT.g_parallel


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_input_is_refused(bad):
    calls = [
        lambda: sc.zeeman_temperature(bad),
        lambda: sc.field_to_frequency(bad, 2.0),
        lambda: sc.field_to_frequency(8.0, bad),
        lambda: sc.frequency_to_field(bad, 2.0),
        lambda: sc.frequency_to_field(240e9, bad),
        lambda: sc.effective_g(2.0, bad, 0.5),
        lambda: sc.effective_g(bad, 2.0, 0.5),
        lambda: sc.resonance_field(_n_transition(0.0, sc.Orientation("o111", 1.0)), bad),
    ]
    fields = ("g_parallel", "g_perp", "zero_field_d", "hyperfine_111",
              "hyperfine_other", "linewidth_pp")
    calls += [lambda name=name: replace(sc.N_DEFAULT, **{name: bad}) for name in fields]
    for call in calls:
        with pytest.raises(ValueError, match="finite"):
            call()


def test_transition_spec_validation():
    on_axis = sc.Orientation("o111", 1.0)
    with pytest.raises(ValueError):
        sc.TransitionSpec(sc.N_DEFAULT, on_axis, -0.5, 1.5, 0.0)
    with pytest.raises(ValueError):
        sc.TransitionSpec(sc.NV_DEFAULT, on_axis, 1.0, 2.0, 0.0)
    with pytest.raises(ValueError):
        sc.TransitionSpec(sc.N_DEFAULT, on_axis, -0.5, 0.5, 0.25)
    with pytest.raises(ValueError):
        sc.Orientation("bogus", 1.0)


@pytest.mark.parametrize("cos_theta", [1.0000000000000002, -1.5, math.nan])
def test_orientation_refuses_cos_theta_outside_unit_interval(cos_theta):
    with pytest.raises(ValueError, match=r"cos_theta outside \[-1, 1\]"):
        sc.Orientation("o111", cos_theta)


def test_default_instances():
    assert sc.N_DEFAULT.spin == 0.5
    assert sc.N_DEFAULT.zero_field_d == 0.0
    assert sc.N_DEFAULT.g_parallel == sc.N_DEFAULT.g_perp == 2.0024
    assert sc.N_DEFAULT.hyperfine_111 == 114e6
    assert sc.N_DEFAULT.hyperfine_other == 86e6
    assert sc.N_DEFAULT.linewidth_pp == 0.95e-4
    assert sc.NV_DEFAULT.spin == 1.0
    assert sc.NV_DEFAULT.zero_field_d == 2.87e9
    assert sc.NV_DEFAULT.g_parallel == 2.0028
    assert sc.NV_DEFAULT.linewidth_pp == 2.36e-4
