"""Thermal polarization and relaxation-rate closed forms.

Reference numbers are independent hand evaluations of tanh/cosh expressions
and the rate polynomials, frozen as literals.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvbath import bath_model as bm
from nvbath.spin_core import zeeman_temperature

T_ZE_240 = 11.51818337607893


class TestPolarization:
    def test_two_kelvin_point(self):
        assert bm.polarization(2.0, T_ZE_240) == pytest.approx(
            0.9937118823841826, rel=1e-12
        )

    def test_matches_tanh_form(self):
        for t in (0.5, 2.0, 11.518, 77.0, 300.0):
            p = bm.polarization(t, 11.518)
            assert p == pytest.approx(math.tanh(11.518 / (2.0 * t)), rel=1e-14)

    def test_equal_temperatures(self):
        assert bm.polarization(11.518, 11.518) == pytest.approx(
            0.46211715726000974, rel=1e-14
        )

    def test_high_temperature_limit(self):
        # linear in 1/T: ~5.8e-9 at 1e9 K, essentially unpolarized
        assert bm.polarization(1e9, T_ZE_240) < 1e-8
        assert bm.polarization(1e9, T_ZE_240) > 0.0

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            bm.polarization(0.0, 11.518)
        with pytest.raises(ValueError):
            bm.polarization(-2.0, 11.518)
        with pytest.raises(ValueError):
            bm.polarization(2.0, 0.0)


class TestFlipFlopFactor:
    def test_hot_limit(self):
        assert bm.flip_flop_factor(1e9 * T_ZE_240, T_ZE_240) == pytest.approx(
            0.25, abs=1e-15
        )

    def test_hot_limit_bound_is_exact(self):
        # Unbounded, the quotient rounds to 0.25000000000000006 at about one
        # in eight of these temperatures, from near 7.7e8 K up.
        ff = bm.flip_flop_factor(np.geomspace(1e3, 1e15, 200001), 11.518)
        assert ff.max() == 0.25

    def test_equal_temperatures(self):
        # 1/(2 + 2 cosh 1)
        assert bm.flip_flop_factor(11.518, 11.518) == pytest.approx(
            0.19661193324148188, rel=1e-14
        )

    def test_two_kelvin_point(self):
        assert bm.flip_flop_factor(2.0, 11.518) == pytest.approx(
            0.003134459274297146, rel=1e-12
        )

    def test_identity_with_polarization(self):
        # (1 - p^2)/4 identity, checked absolutely on a broad log grid
        for t_ze in (1.0, 11.518, 14.7, 120.0):
            for t in np.geomspace(0.1, 1e4, 61):
                p = bm.polarization(float(t), t_ze)
                ff = bm.flip_flop_factor(float(t), t_ze)
                assert abs(ff - (1.0 - p * p) / 4.0) <= 1e-14

    def test_no_overflow_at_extreme_ratio(self):
        with np.errstate(over="raise"):
            assert bm.flip_flop_factor(1.0, 700.0) == pytest.approx(
                math.exp(-700.0), rel=1e-12
            )
            assert bm.flip_flop_factor(1.0, 1500.0) == 0.0

    def test_ratio_past_float_range_is_frozen_limit(self):
        # T_Ze / T overflows to inf: exactly the frozen bath, with no warning.
        with np.errstate(over="raise"):
            assert bm.flip_flop_factor(5e-324, T_ZE_240) == 0.0
            p = bm.polarization(np.array([5e-324, 1e-300]), 1e300)
        assert p.tolist() == [1.0, 1.0]


class TestT2Model:
    def test_room_temperature(self):
        assert bm.t2_time(300.0) == pytest.approx(6.700042052294811e-06, rel=1e-12)

    def test_twenty_kelvin(self):
        assert bm.t2_time(20.0) == pytest.approx(7.613134708005431e-06, rel=1e-12)

    def test_two_kelvin_saturation(self):
        assert bm.t2_time(2.0) == pytest.approx(0.00022867084990529509, rel=1e-12)

    def test_residual_only(self):
        params = bm.T2ModelParams(0.0, 14.7, 0.004)
        for t in (0.5, 20.0, 300.0):
            assert bm.t2_time(t, params) == pytest.approx(250e-6, rel=1e-14)

    def test_cold_limit_is_residual(self):
        params = bm.DEFAULT_T2_PARAMS
        rate = bm.t2_rate(params.t_zeeman_k / 100.0, params)
        assert abs(rate - params.gamma_res_per_us) <= 1e-12

    def test_hot_limit(self):
        params = bm.DEFAULT_T2_PARAMS
        rate = bm.t2_rate(1e7 * params.t_zeeman_k, params)
        assert abs(rate - (params.c_per_us / 4.0 + params.gamma_res_per_us)) <= 1e-10

    def test_monotone_in_temperature(self):
        # the flip-flop term underflows against Gamma_res below ~1 K, so the
        # full-range check is non-strict and the resolvable range strict
        rates = [bm.t2_rate(float(t)) for t in np.geomspace(0.2, 2000.0, 200)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))
        rates = [bm.t2_rate(float(t)) for t in np.geomspace(2.0, 2000.0, 200)]
        assert all(b > a for a, b in zip(rates, rates[1:]))


class TestT1Model:
    def test_room_temperature(self):
        assert bm.t1_rate(300.0) == pytest.approx(852.9, rel=1e-12)
        assert bm.t1_time(300.0) == pytest.approx(1.1724703951225231e-3, rel=1e-12)

    def test_forty_kelvin(self):
        assert bm.t1_time(40.0) == pytest.approx(2.810251798561151, rel=1e-12)

    def test_linear_term_only(self):
        params = bm.T1ModelParams(8.0e-3, 0.0)
        assert bm.t1_rate(100.0, params) == pytest.approx(0.8, rel=1e-15)

    def test_crossover_temperature(self):
        assert bm.DEFAULT_T1_PARAMS.crossover_temperature_k == pytest.approx(
            69.1441569283882, rel=1e-12
        )
        # the two terms are equal there
        t = bm.DEFAULT_T1_PARAMS.crossover_temperature_k
        linear = bm.DEFAULT_T1_PARAMS.a_per_s_k * t
        phonon = bm.DEFAULT_T1_PARAMS.b_per_s_k5 * t**5
        assert linear == pytest.approx(phonon, rel=1e-10)

    @pytest.mark.parametrize("params", [bm.T1ModelParams(8.0e-3, 0.0),
                                        bm.T1ModelParams(0.0, 3.5e-10)])
    def test_crossover_undefined_for_a_zero_coefficient(self, params):
        with pytest.raises(ValueError, match="crossover undefined"):
            params.crossover_temperature_k

    def test_zero_total_rate_has_no_t1(self):
        with pytest.raises(ValueError, match="T1 undefined for zero total rate"):
            bm.t1_time(300.0, bm.T1ModelParams(0.0, 0.0))

    def test_strictly_increasing(self):
        rates = [bm.t1_rate(float(t)) for t in np.geomspace(1.0, 500.0, 120)]
        assert all(b > a for a, b in zip(rates, rates[1:]))

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(ValueError):
            bm.t1_rate(0.0)
        with pytest.raises(ValueError):
            bm.t2_rate(-5.0)


def test_default_parameter_sets():
    assert bm.DEFAULT_T2_PARAMS.c_per_us == 0.58136
    assert bm.DEFAULT_T2_PARAMS.t_zeeman_k == 14.7
    assert bm.DEFAULT_T2_PARAMS.gamma_res_per_us == 0.004
    assert bm.DEFAULT_T1_PARAMS.a_per_s_k == 8.0e-3
    assert bm.DEFAULT_T1_PARAMS.b_per_s_k5 == 3.5e-10


def test_param_validation():
    with pytest.raises(ValueError):
        bm.T2ModelParams(-0.1, 14.7, 0.004)
    with pytest.raises(ValueError):
        bm.T2ModelParams(0.58, 0.0, 0.004)
    with pytest.raises(ValueError):
        bm.T1ModelParams(-1e-3, 3.5e-10)


def test_zeeman_temperature_consistency():
    # the polarization reference point uses the 240 GHz Zeeman temperature
    assert zeeman_temperature(240e9) == pytest.approx(T_ZE_240, rel=1e-14)


def test_matches_scalar_math_reference_within_4_ulp():
    # The closed forms as scalar math-library loops. numpy's SIMD exp, tanh
    # and power may round differently in the last bits, never by more than
    # a few ulp.
    def ulps(a, b):
        return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))

    temps = np.concatenate(
        [np.geomspace(1.3, 300.0, 121), np.geomspace(0.5, 400.0, 301)]
    )
    for t_ze in (T_ZE_240, 14.7):
        t2 = bm.T2ModelParams(0.58136, t_ze, 0.004)
        e = [math.exp(-t_ze / t) for t in temps]
        flip_flop = [v / ((1.0 + v) * (1.0 + v)) for v in e]
        tanh = [math.tanh(0.5 * t_ze / t) for t in temps]
        t2_rate = [0.58136 * f + 0.004 for f in flip_flop]
        assert ulps(bm.polarization(temps, t_ze), tanh).max() <= 4
        assert ulps(bm.flip_flop_factor(temps, t_ze), flip_flop).max() <= 4
        assert ulps(bm.t2_rate(temps, t2), t2_rate).max() <= 4
    t1 = bm.DEFAULT_T1_PARAMS
    reference = [t1.a_per_s_k * t + t1.b_per_s_k5 * t**5 for t in temps.tolist()]
    assert ulps(bm.t1_rate(temps), reference).max() <= 4


# --- array API ----------------------------------------------------------------

temperature = st.floats(min_value=1e-3, max_value=1e6)
zeeman = st.floats(min_value=1e-2, max_value=1e3)
grid = st.tuples(
    st.lists(temperature, min_size=1, max_size=50),
    st.sampled_from([(-1,), (1, -1), (-1, 1)]),
).map(lambda lv: np.array(lv[0]).reshape(lv[1]))
not_positive_or_finite = st.one_of(
    st.floats(max_value=0.0), st.sampled_from([math.nan, math.inf])
)


def _evaluate_all(t, t_ze):
    """Every array-valued output of the six public formulas."""
    t2 = bm.T2ModelParams(0.58136, t_ze, 0.004)
    return {
        "polarization": bm.polarization(t, t_ze),
        "flip_flop_factor": bm.flip_flop_factor(t, t_ze),
        "t1_rate": bm.t1_rate(t),
        "t1_time": bm.t1_time(t),
        "t2_rate": bm.t2_rate(t, t2),
        "t2_time": bm.t2_time(t, t2),
    }


def _bits(x) -> bytes:
    return struct.pack("<d", x)


@settings(max_examples=100, deadline=None)
@given(t=grid, t_ze=zeeman)
def test_array_call_matches_scalar_calls_bit_for_bit(t, t_ze):
    arrays = _evaluate_all(t, t_ze)
    for name, values in arrays.items():
        assert values.shape == t.shape, name
    for i, value in enumerate(t.flat):
        scalars = _evaluate_all(float(value), t_ze)
        for name, scalar in scalars.items():
            assert type(scalar) is float, name
            assert _bits(scalar) == _bits(arrays[name].flat[i]), (name, value)


@settings(max_examples=100, deadline=None)
@given(t=grid, t_ze=zeeman, position=st.integers(0, 49), bad=not_positive_or_finite)
def test_one_bad_entry_raises(t, t_ze, position, bad):
    t = t.copy()
    t.flat[position % t.size] = bad
    t2 = bm.T2ModelParams(0.58136, t_ze, 0.004)
    calls = (
        lambda: bm.polarization(t, t_ze),
        lambda: bm.flip_flop_factor(t, t_ze),
        lambda: bm.t1_rate(t),
        lambda: bm.t1_time(t),
        lambda: bm.t2_rate(t, t2),
        lambda: bm.t2_time(t, t2),
    )
    for call in calls:
        with pytest.raises(ValueError):
            call()


@settings(max_examples=100, deadline=None)
@given(t=grid, bad=not_positive_or_finite)
def test_bad_zeeman_temperature_raises(t, bad):
    with pytest.raises(ValueError):
        bm.polarization(t, bad)
    with pytest.raises(ValueError):
        bm.flip_flop_factor(t, bad)
    with pytest.raises(ValueError):
        bm.T2ModelParams(0.58136, bad, 0.004)
