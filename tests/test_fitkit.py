"""Levenberg-Marquardt engine and the model registry."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nvbath import bath_model as bm
from nvbath import datasets, fitkit


def _synthetic(model_name, params, x):
    model = fitkit.get_model(model_name)
    return model, model.evaluate(np.asarray(params, dtype=float), np.asarray(x))


def _order_cases():
    """Small noisy data sets ``(model, x, y, sigma)`` covering every registry
    model, one of them with tied ``x`` (each delay measured twice)."""
    rng = np.random.default_rng(11)
    tau = np.linspace(0.0, 25e-6, 9)
    delays = np.linspace(0.0, 6e-3, 9)
    cases = {}
    for name, model_name, x, params in (
        ("echo", "echo_decay", tau, [1.0, 7e-6]),
        ("echo_tied_x", "echo_decay", np.repeat(tau, 2), [1.0, 7e-6]),
        ("recovery", "inversion_recovery", delays, [1.0, 2.0, 1.2e-3]),
    ):
        model, y = _synthetic(model_name, params, x)
        cases[name] = (model, x, y + 0.02 * rng.standard_normal(x.size), None)
    temps = np.geomspace(1.7, 300.0, 13)
    model, y = _synthetic("t2_model", [0.58136, 14.7, 0.004], temps)
    noisy = y * (1.0 + 0.05 * rng.standard_normal(y.size))
    cases["t2_synthetic"] = (model, temps, noisy, 0.05 * y)
    for center, quantity in (("NV", "T2"), ("N", "T1")):
        model = fitkit.get_model(f"{quantity.lower()}_model")
        dataset = datasets.bundled(center, quantity)
        rate_data = datasets.as_rate_data(dataset, model.time_unit_s)
        cases[f"{center}_{quantity}"] = (model, *map(np.array, rate_data))
    return cases


ORDER_CASES = _order_cases()


class TestRegistry:
    def test_names_and_arity(self):
        reg = fitkit.registry()
        assert set(reg) == {"echo_decay", "inversion_recovery", "t1_model", "t2_model"}
        assert fitkit.get_model("t2_model").param_names == ("C", "T_Ze", "Gamma_res")
        assert fitkit.get_model("t1_model").param_names == ("A", "B")
        assert fitkit.get_model("echo_decay").param_names == ("amplitude", "T2")
        assert fitkit.get_model("inversion_recovery").param_names == (
            "y0",
            "amplitude",
            "T1",
        )

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="t2_model"):
            fitkit.get_model("bogus")

    def test_t2_default_fixes_residual_rate(self):
        assert fitkit.get_model("t2_model").default_fixed == {"Gamma_res": 0.004}

    def test_rate_laws_carry_unit_and_reference_sample(self):
        t1, t2 = fitkit.get_model("t1_model"), fitkit.get_model("t2_model")
        assert t1.reference == astuple(bm.DEFAULT_T1_PARAMS)
        assert t2.reference == astuple(bm.DEFAULT_T2_PARAMS)
        assert (t1.time_unit_s, t2.time_unit_s) == (1.0, 1e-6)
        for name in ("echo_decay", "inversion_recovery"):
            model = fitkit.get_model(name)
            assert model.time_unit_s is None and model.reference is None

    def test_model_evaluations_match_closed_forms(self):
        x = np.geomspace(1.7, 300.0, 9)
        t2 = fitkit.get_model("t2_model")
        want = [bm.t2_rate(float(t)) for t in x]
        np.testing.assert_allclose(
            t2.evaluate(np.array([0.58136, 14.7, 0.004]), x), want, rtol=1e-12
        )
        t1 = fitkit.get_model("t1_model")
        want = [bm.t1_rate(float(t)) for t in x]
        np.testing.assert_allclose(
            t1.evaluate(np.array([8.0e-3, 3.5e-10]), x), want, rtol=1e-12
        )


class TestRoundTrips:
    def test_echo_decay_exact(self):
        tau = np.linspace(0.0, 25e-6, 41)
        model, y = _synthetic("echo_decay", [1.0, 7e-6], tau)
        result = fitkit.fit(model, tau, y, init={"T2": 3e-6})
        assert result.converged
        assert result.params[1] == pytest.approx(7e-6, rel=1e-8)
        assert result.params[0] == pytest.approx(1.0, rel=1e-8)

    def test_inversion_recovery_exact(self):
        t = np.linspace(0.0, 8e-3, 30)
        model, y = _synthetic("inversion_recovery", [1.0, 2.0, 1.2e-3], t)
        result = fitkit.fit(model, t, y)
        assert result.converged
        np.testing.assert_allclose(result.params, [1.0, 2.0, 1.2e-3], rtol=1e-7)

    def test_t1_model_exact(self):
        temps = np.geomspace(40.0, 300.0, 12)
        model, y = _synthetic("t1_model", [8.0e-3, 3.5e-10], temps)
        result = fitkit.fit(model, temps, y)
        assert result.converged
        np.testing.assert_allclose(result.params, [8.0e-3, 3.5e-10], rtol=1e-7)

    def test_t2_model_exact_with_fixed_residual(self):
        temps = np.geomspace(1.7, 300.0, 13)
        model, y = _synthetic("t2_model", [0.58136, 14.7, 0.004], temps)
        result = fitkit.fit(model, temps, y)
        assert result.converged
        assert result.params[0] == pytest.approx(0.58136, rel=1e-7)
        assert result.params[1] == pytest.approx(14.7, rel=1e-7)
        assert result.params[2] == 0.004
        assert result.fixed == (False, False, True)
        assert result.stderr[2] == 0.0

    def test_t2_model_all_free(self):
        temps = np.geomspace(1.7, 300.0, 16)
        model, y = _synthetic("t2_model", [0.58136, 14.7, 0.004], temps)
        result = fitkit.fit(model, temps, y, fixed={})
        assert result.converged
        np.testing.assert_allclose(
            result.params, [0.58136, 14.7, 0.004], rtol=1e-6
        )


class TestNoisyRecovery:
    def test_t2_zeeman_temperature_study(self):
        # scaled-down version of the full monte carlo study in the
        # acceptance suite
        temps = np.geomspace(1.7, 300.0, 13)
        model, y_true = _synthetic("t2_model", [0.58136, 14.7, 0.004], temps)
        rng = np.random.default_rng(20260814)
        errors = []
        for _ in range(40):
            noisy = y_true * (1.0 + 0.05 * rng.standard_normal(y_true.size))
            result = fitkit.fit(
                model, temps, noisy, sigma=0.05 * y_true, init={"T_Ze": 11.518}
            )
            assert result.converged
            errors.append(result.params[1] - 14.7)
        assert np.median(np.abs(errors)) < 1.0

    def test_t1_recovery_within_two_sigma(self):
        temps = np.geomspace(40.0, 300.0, 20)
        model, y_true = _synthetic("t1_model", [8.0e-3, 3.5e-10], temps)
        rng = np.random.default_rng(7)
        noisy = y_true * (1.0 + 0.10 * rng.standard_normal(y_true.size))
        result = fitkit.fit(model, temps, noisy, sigma=0.10 * y_true)
        assert result.converged
        for got, want, err in zip(result.params, (8.0e-3, 3.5e-10), result.stderr):
            assert abs(got - want) < 2.0 * err


class TestJacobians:
    def test_t2_model(self):
        dev = fitkit.jacobian_check(
            fitkit.get_model("t2_model"),
            np.array([0.581, 14.7, 0.004]),
            np.array([2.0, 20.0, 77.0, 300.0]),
        )
        assert dev < 1e-6

    def test_t1_model(self):
        dev = fitkit.jacobian_check(
            fitkit.get_model("t1_model"),
            np.array([8.0e-3, 3.5e-10]),
            np.array([40.0, 100.0, 300.0]),
        )
        assert dev < 1e-6

    def test_decay_models(self):
        dev = fitkit.jacobian_check(
            fitkit.get_model("echo_decay"),
            np.array([1.0, 7e-6]),
            np.linspace(0.0, 25e-6, 7),
        )
        assert dev < 1e-6
        dev = fitkit.jacobian_check(
            fitkit.get_model("inversion_recovery"),
            np.array([1.0, 2.0, 1.2e-3]),
            np.linspace(0.0, 8e-3, 7),
        )
        assert dev < 1e-6

    def test_linear_model_exact(self):
        linear = fitkit.ModelSpec(
            name="line",
            param_names=("a", "b"),
            param_units=("", ""),
            positive=(False, False),
            evaluate=lambda p, x: p[0] + p[1] * x,
            jacobian=lambda p, x: np.stack(
                [np.ones_like(x), np.asarray(x, dtype=float)], axis=1
            ),
            initial_guess=lambda x, y: np.array([0.0, 1.0]),
            default_fixed={},
        )
        dev = fitkit.jacobian_check(
            linear, np.array([0.5, 2.0]), np.array([0.25, 1.0, 4.0])
        )
        assert dev < 1e-12


class TestEngineContracts:
    def test_cost_history_non_increasing(self):
        temps = np.geomspace(1.7, 300.0, 13)
        model, y = _synthetic("t2_model", [0.58136, 14.7, 0.004], temps)
        rng = np.random.default_rng(3)
        noisy = y * (1.0 + 0.05 * rng.standard_normal(y.size))
        result = fitkit.fit(model, temps, noisy)
        hist = result.cost_history
        assert len(hist) >= 2
        assert all(b <= a for a, b in zip(hist, hist[1:]))

    def test_sigma_scaling_invariance(self):
        temps = np.geomspace(1.7, 300.0, 13)
        model, y = _synthetic("t2_model", [0.58136, 14.7, 0.004], temps)
        rng = np.random.default_rng(5)
        noisy = y * (1.0 + 0.05 * rng.standard_normal(y.size))
        sigma = 0.05 * y
        a = fitkit.fit(model, temps, noisy, sigma=sigma)
        b = fitkit.fit(model, temps, noisy, sigma=3.0 * sigma)
        np.testing.assert_allclose(a.params, b.params, rtol=1e-9)
        free = ~np.array(a.fixed)
        cov_a = a.covariance[np.ix_(free, free)]
        cov_b = b.covariance[np.ix_(free, free)]
        np.testing.assert_allclose(cov_b, 9.0 * cov_a, rtol=1e-6)
        # stderr carries the reduced-chi-square factor and is k-invariant
        np.testing.assert_allclose(a.stderr, b.stderr, rtol=1e-6)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_reorder_bit_identity(self, data):
        name = data.draw(st.sampled_from(sorted(ORDER_CASES)), label="case")
        model, x, y, sigma = ORDER_CASES[name]
        perm = np.array(data.draw(st.permutations(range(x.size)), label="order"))
        a = fitkit.fit(model, x, y, sigma=sigma)
        b = fitkit.fit(
            model, x[perm], y[perm], sigma=None if sigma is None else sigma[perm]
        )
        assert np.array_equal(a.params, b.params)
        assert np.array_equal(a.stderr, b.stderr)
        for field in ("cost", "n_iterations", "message", "cost_history"):
            assert getattr(a, field) == getattr(b, field), field

    def test_fixed_parameter_exact_pass_through(self):
        temps = np.geomspace(1.7, 300.0, 13)
        model, y = _synthetic("t2_model", [0.58136, 14.7, 0.004], temps)
        value = 0.0040000000000000001234
        result = fitkit.fit(model, temps, y, fixed={"Gamma_res": value})
        assert result.params[2] == value

    def test_underdetermined_raises(self):
        model = fitkit.get_model("t2_model")
        with pytest.raises(ValueError):
            fitkit.fit(model, [300.0], [0.149], fixed={"Gamma_res": 0.004})

    def test_unknown_names_raise(self):
        temps = np.geomspace(1.7, 300.0, 13)
        model, y = _synthetic("t2_model", [0.58136, 14.7, 0.004], temps)
        with pytest.raises(ValueError, match="nope"):
            fitkit.fit(model, temps, y, fixed={"nope": 1.0})
        with pytest.raises(ValueError, match="nope"):
            fitkit.fit(model, temps, y, init={"nope": 1.0})

    def test_positive_parameter_needs_positive_start(self):
        tau = np.linspace(0.0, 25e-6, 11)
        model, y = _synthetic("echo_decay", [1.0, 7e-6], tau)
        with pytest.raises(ValueError, match="T2"):
            fitkit.fit(model, tau, y, init={"T2": -1e-6})

    def test_nonconvergence_is_reported_not_raised(self):
        temps = np.geomspace(1.7, 300.0, 13)
        model, y = _synthetic("t2_model", [0.58136, 14.7, 0.004], temps)
        rng = np.random.default_rng(13)
        noisy = y * (1.0 + 0.3 * rng.standard_normal(y.size))
        result = fitkit.fit(
            model,
            temps,
            noisy,
            init={"C": 40.0, "T_Ze": 4000.0},
            max_iterations=1,
        )
        assert not result.converged
        assert result.n_iterations == 1
        assert "iteration" in result.message

    def test_step_out_of_domain_is_rejected(self):
        # A trial step the model refuses (ValueError, like T_Ze reaching 0 in
        # the rate models) is rejected like an overflow, not raised.
        def evaluate(p, x):
            if p[0] > 1.5:
                raise ValueError("slope outside the model's domain")
            return p[0] * x

        bounded = fitkit.ModelSpec(
            name="bounded_line",
            param_names=("k",),
            param_units=("",),
            positive=(True,),
            evaluate=evaluate,
            jacobian=lambda p, x: np.asarray(x, dtype=float)[:, None],
            initial_guess=lambda x, y: np.array([1.0]),
        )
        x = np.linspace(1.0, 5.0, 5)
        result = fitkit.fit(bounded, x, 2.0 * x)
        assert 1.0 < result.params[0] <= 1.5
        assert np.isfinite(result.cost)

    def test_all_fixed_raises(self):
        model = fitkit.get_model("t1_model")
        with pytest.raises(ValueError):
            fitkit.fit(
                model,
                [40.0, 100.0],
                [0.4, 0.9],
                fixed={"A": 8e-3, "B": 3.5e-10},
            )

    def test_sigma_validation(self):
        tau = np.linspace(0.0, 25e-6, 11)
        model, y = _synthetic("echo_decay", [1.0, 7e-6], tau)
        with pytest.raises(ValueError):
            fitkit.fit(model, tau, y, sigma=np.zeros_like(tau))
