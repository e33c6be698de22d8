"""Stick synthesis, derivative-Gaussian convolution, and peak recovery."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies

from nvbath import spectra
from nvbath.spin_core import (
    CONSTANTS,
    N_DEFAULT,
    NV_DEFAULT,
    Orientation,
    TransitionSpec,
)

B0_N = 8.563452064487786
N_FIELDS = (
    8.559384424757154,
    8.560383494164677,
    8.563452064487786,
    8.566520634810894,
    8.567519704218416,
)


def _dummy_label(field_ignored: float = 0.0) -> TransitionSpec:
    return TransitionSpec(N_DEFAULT, Orientation("o111", 1.0), -0.5, 0.5, 0.0)


def _walked_peaks(field: np.ndarray, a: np.ndarray) -> list[tuple] | None:
    """Reference for analyze_peaks: walk the extrema one by one, taking a
    maximum and the minimum right after it as a pair, else moving on by one.
    None where analyze_peaks must refuse the amplitudes."""
    scale = float(np.max(np.abs(a)))
    if scale == 0.0:
        return []
    if not scale < 0.5 * sys.float_info.max:
        return None
    threshold = spectra.MIN_RELATIVE_PEAK_AMPLITUDE * scale
    extrema = []
    for i in range(1, a.size - 1):
        before, after = a[i] - a[i - 1], a[i + 1] - a[i]
        if abs(a[i]) >= threshold and before > 0 and after <= 0:
            extrema.append((i, "max"))
        elif abs(a[i]) >= threshold and before < 0 and after >= 0:
            extrema.append((i, "min"))

    def refine(i):
        denom = a[i - 1] - 2.0 * a[i] + a[i + 1]
        if denom == 0.0:
            return float(field[i])
        delta = 0.5 * (a[i - 1] - a[i + 1]) / denom
        return float(field[i] + delta * (field[1] - field[0]))

    peaks, k = [], 0
    while k < len(extrema) - 1:
        (i, kind), (j, kind_next) = extrema[k], extrema[k + 1]
        if kind == "max" and kind_next == "min":
            b_max, b_min = refine(i), refine(j)
            peaks.append((0.5 * (b_max + b_min), b_min - b_max, float(a[i] - a[j])))
            k += 2
        else:
            k += 1
    return peaks


def _single_stick(field: float, weight: float = 1.0) -> spectra.StickSpectrum:
    stick = spectra.Stick(field, weight, _dummy_label())
    return spectra.StickSpectrum((stick,), 240e9, 300.0, (("N", 1.0),))


class TestBuildSticks:
    def test_n_default_five_lines(self):
        st = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 300.0)
        assert len(st.sticks) == 5
        for got, want in zip(st.fields, N_FIELDS):
            assert got == pytest.approx(want, abs=1e-9)

    def test_n_default_weight_pattern(self):
        st = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 300.0)
        w = st.weights
        pattern = np.array([1.0, 3.0, 4.0, 3.0, 1.0]) / 12.0
        # every stick shares the same level-population difference, so the
        # degeneracy pattern is exact
        np.testing.assert_allclose(w / w.sum(), pattern, rtol=1e-12)

    def test_weights_sum_to_population_times_delta_p(self):
        nu = 240e9
        for temp, pop in ((300.0, 1.0), (2.0, 7.5)):
            st = spectra.build_sticks([(N_DEFAULT, pop)], nu, temp)
            delta_p = math.tanh(
                CONSTANTS.planck_h * nu / (2.0 * CONSTANTS.boltzmann_k * temp)
            )
            assert st.weights.sum() == pytest.approx(pop * delta_p, rel=1e-12)

    def test_two_kelvin_thermal_factor_visible(self):
        hot = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 300.0)
        cold = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 2.0)
        assert cold.weights.sum() == pytest.approx(0.9937118823841827, rel=1e-9)
        assert cold.weights.sum() > 50 * hot.weights.sum()

    def test_nv_branches(self):
        st = spectra.build_sticks([(NV_DEFAULT, 1.0)], 240e9, 300.0)
        assert len(st.sticks) == 6
        centers = [s.field_t for s in st.sticks if s.label.m_i == 0.0]
        assert sorted(centers) == pytest.approx(
            [8.527613714495446, 8.664125930470803], abs=1e-9
        )
        # one unit of weight on axis vs three off axis; the spectator
        # m_s = +1 level sits at different energies for the two branches,
        # so the ratio carries a ~4e-4 Boltzmann correction at 300 K
        off = sum(s.weight for s in st.sticks if s.field_t < 8.6)
        on = sum(s.weight for s in st.sticks if s.field_t > 8.6)
        assert off / on == pytest.approx(3.0, rel=2e-3)

    def test_nv_tilt_lifts_off_axis_degeneracy(self):
        st = spectra.build_sticks([(NV_DEFAULT, 1.0)], 240e9, 300.0, tilt_deg=2.0)
        central = sorted(s.field_t for s in st.sticks if s.label.m_i == 0.0)
        assert len(central) == 4
        assert len(set(round(b, 9) for b in central)) == 4

    def test_isotropic_n_unchanged_by_tilt(self):
        st = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 300.0, tilt_deg=2.0)
        assert len(st.sticks) == 5

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            spectra.build_sticks([], 240e9, 300.0)
        with pytest.raises(ValueError):
            spectra.build_sticks([(N_DEFAULT, 0.0)], 240e9, 300.0)
        with pytest.raises(ValueError):
            spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, -4.0)
        # k_B T underflows to 0 at 2.2e-313 K and is subnormal at 1e-300 K
        # (1 / k_B T is inf); at 1e300 K every Boltzmann factor is exactly 1.
        for temperature in (math.nan, math.inf, 2.2e-313, 1e-300, 1e300):
            with pytest.raises(ValueError, match="temperature"):
                spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, temperature)
        # A 1e300 Hz hyperfine puts an m_i = -1 line at 3.6e289 T, where its
        # two levels cancel: the message names the field in %g, and the field.
        absurd = N_DEFAULT.replace(hyperfine_111=1e300)
        with pytest.raises(ValueError) as info:
            spectra.build_sticks([(absurd, 1.0)], 240e9, 300.0)
        message = str(info.value)
        assert re.search(r" at 3\.56811e\+289 T; .*line's field", message), message
        assert len(message) < 200

    def test_sticks_sorted_and_deterministic(self):
        a = spectra.build_sticks([(N_DEFAULT, 20.0), (NV_DEFAULT, 1.0)], 240e9, 300.0)
        b = spectra.build_sticks([(N_DEFAULT, 20.0), (NV_DEFAULT, 1.0)], 240e9, 300.0)
        assert np.array_equal(a.fields, b.fields)
        assert np.array_equal(a.weights, b.weights)
        assert np.all(np.diff(a.fields) >= 0)


class TestConvolve:
    def test_single_stick_extrema_positions(self):
        width = 0.95e-4
        st = _single_stick(8.55)
        sp = spectra.convolve(st, field_start=8.545, field_stop=8.555, field_step=1e-6)
        i_max = int(np.argmax(sp.amplitude))
        i_min = int(np.argmin(sp.amplitude))
        assert sp.field_t[i_max] == pytest.approx(8.55 - width / 2.0, abs=1.01e-6)
        assert sp.field_t[i_min] == pytest.approx(8.55 + width / 2.0, abs=1.01e-6)

    def test_linearity_in_weight(self):
        st1 = _single_stick(8.55, 1.0)
        st2 = _single_stick(8.55, 2.0)
        kw = dict(field_start=8.545, field_stop=8.555, field_step=1e-6)
        a1 = spectra.convolve(st1, **kw).amplitude
        a2 = spectra.convolve(st2, **kw).amplitude
        np.testing.assert_allclose(a2, 2.0 * a1, rtol=1e-12)

    def test_amplitude_scales_inverse_square_width(self):
        kw = dict(field_start=8.545, field_stop=8.555, field_step=5e-7)
        narrow = spectra.convolve(_single_stick(8.55), **kw)
        wide_label = TransitionSpec(
            NV_DEFAULT, Orientation("o111", 1.0), -1.0, 0.0, 0.0
        )
        wide_stick = spectra.Stick(8.55, 1.0, wide_label)
        wide = spectra.convolve(
            spectra.StickSpectrum((wide_stick,), 240e9, 300.0, (("NV", 1.0),)), **kw
        )
        ratio = np.max(narrow.amplitude) / np.max(wide.amplitude)
        expected = (NV_DEFAULT.linewidth_pp / N_DEFAULT.linewidth_pp) ** 2
        assert ratio == pytest.approx(expected, rel=1e-3)

    def test_total_absorption_preserved(self):
        # grid 10x finer than the narrowest width; integrate twice
        st = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 300.0)
        step = N_DEFAULT.linewidth_pp / 10.0
        sp = spectra.convolve(st, field_start=8.55, field_stop=8.58, field_step=step)
        absorb = np.cumsum(sp.amplitude) * step
        total = np.sum(absorb) * step - 0.5 * step * (absorb[0] + absorb[-1])
        assert total == pytest.approx(st.weights.sum(), rel=1e-6)

    def test_coverage_warning_and_truncation(self):
        st = _single_stick(8.5551)
        with pytest.warns(UserWarning):
            sp = spectra.convolve(
                st, field_start=8.545, field_stop=8.5552, field_step=1e-6
            )
        assert np.all(np.isfinite(sp.amplitude))

    def test_grid_validation(self):
        with pytest.raises(ValueError, match="at least two grid points"):
            spectra.Spectrum(8.5, 1e-6, np.zeros(1), 240e9, 300.0, ())

    def test_grid_bounds_and_size_checked_before_allocating(self):
        st = _single_stick(8.55)
        for bounds in (
            dict(field_stop=math.inf),
            dict(field_start=math.nan),
            dict(field_step=math.nan),
        ):
            with pytest.raises(ValueError, match="finite"):
                spectra.convolve(st, **bounds)
        # 3.5e11 points (2.8 TB per array) on the default window.
        with pytest.raises(ValueError, match="limit"):
            spectra.convolve(st, field_step=1e-12)
        # Finite bounds whose span overflows to inf.
        with pytest.raises(ValueError, match="limit"):
            spectra.convolve(st, field_start=-1e308, field_stop=1e308)

    def test_deterministic(self):
        st = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 300.0)
        a = spectra.convolve(st).amplitude
        b = spectra.convolve(st).amplitude
        assert np.array_equal(a, b)


class TestAnalyzePeaks:
    @pytest.mark.parametrize("center_params", [N_DEFAULT, NV_DEFAULT])
    def test_width_round_trip(self, center_params):
        label = TransitionSpec(
            center_params,
            Orientation("o111", 1.0),
            *(((-0.5, 0.5) if center_params.spin == 0.5 else (-1.0, 0.0))),
            0.0,
        )
        st = spectra.StickSpectrum(
            (spectra.Stick(8.55, 1.0, label),), 240e9, 300.0, ()
        )
        sp = spectra.convolve(st, field_start=8.54, field_stop=8.56, field_step=2e-6)
        report = spectra.analyze_peaks(sp)
        assert len(report.peaks) == 1
        peak = report.peaks[0]
        assert peak.center_field_t == pytest.approx(8.55, abs=2.01e-6)
        assert peak.pp_width_t == pytest.approx(
            center_params.linewidth_pp, abs=2.01e-6
        )
        assert peak.pp_amplitude > 0

    def test_overflowing_amplitude_rejected(self):
        # Finite extrema whose peak-to-peak difference overflows.
        amplitude = np.array([0.0, 1.5e308, 0.0, -1.5e308, 0.0])
        spectrum = spectra.Spectrum(8.5, 1e-6, amplitude, 240e9, 300.0, ())
        with pytest.raises(ValueError, match="overflows"):
            spectra.analyze_peaks(spectrum)

    def test_pairs_a_maximum_with_the_minimum_right_after_it(self):
        # Extrema: a lone minimum (1), maxima at 3 and 5 (the dip at 4 is
        # below threshold), a minimum at 7. Only (5, 7) is a pair.
        step = 1e-6
        amplitude = np.array([0.0, -1.0, 0.0, 2.0, 0.0, 1.0, 0.2, -3.0, 0.0])
        spectrum = spectra.Spectrum(8.5, step, amplitude, 240e9, 300.0, ())
        field = spectrum.field_t
        (peak,) = spectra.analyze_peaks(spectrum).peaks

        def vertex(i):  # of the parabola through points i - 1, i, i + 1
            lo, mid, hi = amplitude[i - 1 : i + 2]
            return field[i] + step * 0.5 * (lo - hi) / (lo - 2.0 * mid + hi)

        assert peak.center_field_t == pytest.approx(0.5 * (vertex(5) + vertex(7)))
        assert peak.pp_width_t == pytest.approx(vertex(7) - vertex(5))
        assert peak.pp_amplitude == 4.0

    @settings(max_examples=400, deadline=None)
    @given(
        strategies.lists(
            strategies.one_of(
                # Small integers give equal neighbours and exact zeros.
                strategies.integers(-3, 3).map(float),
                strategies.floats(-10.0, 10.0),
                strategies.floats(-1e-306, 1e-306),  # subnormals among them
                strategies.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
            ),
            min_size=2,
            max_size=40,
        ),
        strategies.lists(
            strategies.tuples(
                strategies.integers(0, 39),
                strategies.sampled_from(
                    [math.nan, math.inf, -math.inf, 1e308, -1e308, 8.9e307]
                ),
            ),
            max_size=2,
        ),
    )
    # Plateaus: a maximum on one's last point; a rise, a flat step and a
    # rise. Extrema exactly at the threshold and at minus it.
    @example([0.0, 2.0, 2.0, -1.0, 0.0], [])
    @example([0.0, 1.0, 1.0, 2.0, 0.0], [])
    @example([0.0, 1.0, 0.0, -1000.0, 0.0], [])
    @example([0.0, 1000.0, 0.0, -1.0, 0.0], [])
    def test_pairs_match_the_extremum_walk(self, values, edits):
        amplitude = np.array(values)
        for index, value in edits:
            amplitude[index % amplitude.size] = value
        spectrum = spectra.Spectrum(8.5, 1e-6, amplitude, 240e9, 300.0, ())
        want = _walked_peaks(spectrum.field_t, amplitude)
        if want is None:
            with pytest.raises(ValueError, match="overflows"):
                spectra.analyze_peaks(spectrum)
            return
        peaks = spectra.analyze_peaks(spectrum).peaks
        got = [(p.center_field_t, p.pp_width_t, p.pp_amplitude) for p in peaks]
        assert got == want

    def test_flat_spectrum_empty_report(self):
        sp = spectra.Spectrum(8.4, 2e-6, np.zeros(1000), 240e9, 300.0, ())
        assert spectra.analyze_peaks(sp).peaks == ()

    def test_five_n_peaks(self):
        st = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 300.0)
        sp = spectra.convolve(st)
        peaks = spectra.analyze_peaks(sp).peaks
        assert len(peaks) == 5
        for peak, want in zip(peaks, N_FIELDS):
            assert peak.center_field_t == pytest.approx(want, abs=2.01e-6)
        amps = np.array([p.pp_amplitude for p in peaks])
        np.testing.assert_allclose(
            amps / amps[2], [0.25, 0.75, 1.0, 0.75, 0.25], rtol=2e-3
        )

    def test_peaks_sorted_and_positive(self):
        st = spectra.build_sticks([(N_DEFAULT, 20.0), (NV_DEFAULT, 1.0)], 240e9, 300.0)
        peaks = spectra.analyze_peaks(spectra.convolve(st)).peaks
        centers = [p.center_field_t for p in peaks]
        assert centers == sorted(centers)
        assert all(p.pp_width_t > 0 and p.pp_amplitude > 0 for p in peaks)


class TestMixture:
    def test_seven_peaks_and_amplitude_ratio(self):
        # NV hyperfine satellites are unresolved at the 2.36 G width, so the
        # mixture shows 5 + 2 peaks; at 20:1 population the left-most
        # nitrogen to right-most NV amplitude ratio is ~80
        st = spectra.build_sticks([(N_DEFAULT, 20.0), (NV_DEFAULT, 1.0)], 240e9, 300.0)
        peaks = spectra.analyze_peaks(spectra.convolve(st)).peaks
        assert len(peaks) == 7
        left_n = [p for p in peaks if abs(p.center_field_t - 8.5594) < 5e-4][0]
        right_nv = peaks[-1]
        assert right_nv.center_field_t == pytest.approx(8.6641, abs=5e-4)
        assert left_n.pp_amplitude / right_nv.pp_amplitude == pytest.approx(
            80.07, rel=0.02
        )


class TestValidation:
    def test_sticks_must_be_sorted(self):
        sticks = (
            spectra.Stick(8.56, 1.0, _dummy_label()),
            spectra.Stick(8.55, 1.0, _dummy_label()),
        )
        with pytest.raises(ValueError):
            spectra.StickSpectrum(sticks, 240e9, 300.0, ())

    def test_weights_must_be_positive(self):
        sticks = (spectra.Stick(8.55, 0.0, _dummy_label()),)
        with pytest.raises(ValueError):
            spectra.StickSpectrum(sticks, 240e9, 300.0, ())


class TestCsv:
    def test_spectrum_round_trip(self, tmp_path):
        st = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 300.0)
        sp = spectra.convolve(
            st, field_start=8.555, field_stop=8.572, field_step=2e-6
        )
        path = tmp_path / "spectrum.csv"
        spectra.write_spectrum_csv(sp, path, header_lines=["provenance xyz"])
        raw = path.read_bytes()
        assert b"\r" not in raw
        lines = raw.decode().splitlines()
        assert lines[0] == "# provenance xyz"
        assert lines[1].startswith("# frequency_hz=240000000000")
        assert "population_N=1" in lines[1]
        assert lines[2] == "field_T,amplitude"
        data = np.array(
            [[float(v) for v in line.split(",")] for line in lines[3:]]
        )
        np.testing.assert_array_equal(data[:, 0], sp.field_t)
        np.testing.assert_array_equal(data[:, 1], sp.amplitude)

    def test_peaks_csv(self, tmp_path):
        st = spectra.build_sticks([(N_DEFAULT, 1.0)], 240e9, 300.0)
        report = spectra.analyze_peaks(spectra.convolve(st))
        path = tmp_path / "peaks.csv"
        spectra.write_peaks_csv(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "center_field_T,pp_width_T,pp_amplitude"
        assert len(lines) == 1 + len(report.peaks)
        first = [float(v) for v in lines[1].split(",")]
        assert first[0] == report.peaks[0].center_field_t
