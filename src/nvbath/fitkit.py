"""Weighted nonlinear least-squares fitting for the relaxation models.

A small damped least-squares (Levenberg-Marquardt style) engine tailored to
the model shapes used here: decaying exponentials and the two
temperature-rate laws. Positive-definite parameters (times, rates,
temperature scales) are fit in log space so a step can never leave the
domain; parameters may be pinned to fixed values; data order never affects
the result because points are sorted before any summation.

The registry maps stable names to :class:`ModelSpec` instances:

* ``echo_decay``          a * exp(-2 tau / T2)          vs pulse spacing tau (s)
* ``inversion_recovery``  y0 - a * exp(-T / T1)         vs recovery delay T (s)
* ``t1_model``            A*T + B*T**5                  rate 1/s vs temperature K
* ``t2_model``            C * ff(T, T_Ze) + Gamma_res   rate 1/us vs temperature K
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .bath_model import DEFAULT_T1_PARAMS, DEFAULT_T2_PARAMS, T1ModelParams
from .bath_model import T2ModelParams, flip_flop_factor, polarization, t1_rate, t2_rate
from .spin_core import zeeman_temperature

DEFAULT_MAX_ITERATIONS = 500
COST_TOLERANCE = 1e-10
GRADIENT_TOLERANCE = 1e-12

# Spectrometer frequency assumed by the default T_Ze starting value.
_DEFAULT_FREQUENCY_HZ = 240e9


@dataclass(frozen=True)
class ModelSpec:
    """One fittable model: evaluator, analytic jacobian, and metadata."""

    name: str
    param_names: tuple[str, ...]
    param_units: tuple[str, ...]
    positive: tuple[bool, ...]
    evaluate: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    initial_guess: Callable[[np.ndarray, np.ndarray], np.ndarray]
    default_fixed: Mapping[str, float] = field(default_factory=dict)
    # Rate laws only (None for decay traces): seconds per time unit of the
    # rate, and the reference sample's constants in param_names order.
    time_unit_s: Optional[float] = None
    reference: Optional[tuple[float, ...]] = None

    @property
    def n_params(self) -> int:
        return len(self.param_names)


@dataclass(frozen=True)
class FitResult:
    """Converged (or honestly non-converged) least-squares estimate.

    ``covariance`` is the unscaled local covariance ``(J^T W J)^-1`` of the
    free parameters (zero rows/columns for fixed ones); ``stderr``
    additionally carries the reduced chi-square factor, the usual practice
    when the supplied sigmas are relative. Fixed parameters keep their input
    values exactly and get zero stderr.
    """

    model: str
    param_names: tuple[str, ...]
    params: np.ndarray
    stderr: np.ndarray
    covariance: np.ndarray
    fixed: tuple[bool, ...]
    converged: bool
    n_iterations: int
    cost: float
    reduced_chisq: float
    residuals: np.ndarray
    cost_history: tuple[float, ...]
    message: str


def fit(
    model: ModelSpec,
    x: Sequence[float],
    y: Sequence[float],
    sigma: Optional[Sequence[float]] = None,
    init: Optional[Mapping[str, float]] = None,
    fixed: Optional[Mapping[str, float]] = None,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> FitResult:
    """Weighted least squares: minimize sum(((y - f(x)) / sigma)**2).

    Parameters
    ----------
    model:
        A registry entry or any compatible :class:`ModelSpec`.
    x, y:
        Data arrays of equal length.
    sigma:
        Per-point uncertainties; omitted means unweighted (all ones).
    init:
        Name -> starting value mapping merged over the model's data-driven
        guess.
    fixed:
        Name -> value mapping of parameters to pin. ``None`` applies the
        model's ``default_fixed``; pass ``{}`` to free everything.
    max_iterations:
        Iteration limit; the search also stops on a relative cost change
        below ``COST_TOLERANCE`` or a gradient below ``GRADIENT_TOLERANCE``.

    Returns a :class:`FitResult`; non-convergence is reported through the
    ``converged`` flag, never raised.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.ndim != 1 or x_arr.shape != y_arr.shape:
        raise ValueError("x and y must be one-dimensional and equally long")
    if sigma is None:
        sig_arr = np.ones_like(x_arr)
    else:
        sig_arr = np.asarray(sigma, dtype=float)
        if sig_arr.shape != x_arr.shape:
            raise ValueError("sigma length mismatch")
        if np.any(sig_arr <= 0):
            raise ValueError("sigma values must be positive")
    if not (np.all(np.isfinite(x_arr)) and np.all(np.isfinite(y_arr))):
        raise ValueError("data contains non-finite values")
    # Fixed summation order regardless of input ordering.
    order = np.lexsort((sig_arr, y_arr, x_arr))
    x_arr, y_arr, sig_arr = x_arr[order], y_arr[order], sig_arr[order]

    if fixed is None:
        fixed = dict(model.default_fixed)
    unknown = set(fixed) - set(model.param_names)
    if unknown:
        raise ValueError(
            f"unknown fixed parameter(s) {sorted(unknown)}; "
            f"model {model.name} has {list(model.param_names)}"
        )
    theta0 = _starting_vector(model, x_arr, y_arr, init)
    fixed_mask = np.array([name in fixed for name in model.param_names])
    for j, name in enumerate(model.param_names):
        if name in fixed:
            theta0[j] = float(fixed[name])
    free = ~fixed_mask
    n_free = int(free.sum())
    if n_free == 0:
        raise ValueError("all parameters are fixed; nothing to fit")
    if x_arr.size < n_free:
        raise ValueError(
            f"{n_free} free parameters need at least {n_free} points, "
            f"got {x_arr.size}"
        )
    positive = np.asarray(model.positive)
    bad = free & positive & (theta0 <= 0)
    if np.any(bad):
        names = [model.param_names[j] for j in np.flatnonzero(bad)]
        raise ValueError(f"positive parameters need positive starts: {names}")

    theta, diag = _levenberg_marquardt(
        model, x_arr, y_arr, sig_arr, theta0, free, positive, max_iterations
    )

    resid = (y_arr - model.evaluate(theta, x_arr)) / sig_arr
    cost = float(resid @ resid)
    dof = x_arr.size - n_free
    reduced = cost / dof if dof > 0 else float("nan")
    cov_full = np.zeros((model.n_params, model.n_params))
    stderr = np.zeros(model.n_params)
    j_theta = model.jacobian(theta, x_arr)[:, free] / sig_arr[:, None]
    jtj = j_theta.T @ j_theta
    try:
        cov_free = np.linalg.inv(jtj)
        cov_full[np.ix_(free, free)] = cov_free
        scale = reduced if dof > 0 else 1.0
        stderr[free] = np.sqrt(np.maximum(np.diag(cov_free), 0.0) * scale)
    except np.linalg.LinAlgError:
        cov_full[np.ix_(free, free)] = np.nan
        stderr[free] = np.nan

    return FitResult(
        model=model.name,
        param_names=model.param_names,
        params=theta,
        stderr=stderr,
        covariance=cov_full,
        fixed=tuple(bool(b) for b in fixed_mask),
        converged=diag["converged"],
        n_iterations=diag["iterations"],
        cost=cost,
        reduced_chisq=reduced,
        residuals=resid,
        cost_history=tuple(diag["cost_history"]),
        message=diag["message"],
    )


def _starting_vector(model, x, y, init) -> np.ndarray:
    theta0 = np.asarray(model.initial_guess(x, y), dtype=float)
    init = init or {}
    unknown = set(init) - set(model.param_names)
    if unknown:
        raise ValueError(f"unknown init parameter(s) {sorted(unknown)}")
    for j, name in enumerate(model.param_names):
        if name in init:
            theta0[j] = float(init[name])
    return theta0


def _levenberg_marquardt(model, x, y, sigma, theta0, free, positive, max_iterations):
    """Damped least squares in the transformed (log where positive) space."""

    def to_internal(theta):
        z = theta[free].copy()
        logs = positive[free]
        z[logs] = np.log(z[logs])
        return z

    def to_theta(z, template):
        theta = template.copy()
        vals = z.copy()
        logs = positive[free]
        vals[logs] = np.exp(vals[logs])
        theta[free] = vals
        return theta

    def residuals(theta):
        return (y - model.evaluate(theta, x)) / sigma

    def jacobian_internal(theta):
        # d residual / d z = -(df/dtheta) * (dtheta/dz) / sigma
        j_theta = model.jacobian(theta, x)[:, free]
        scale = np.ones(free.sum())
        logs = positive[free]
        scale[logs] = theta[free][logs]
        return -(j_theta * scale[None, :]) / sigma[:, None]

    theta = theta0.copy()
    z = to_internal(theta)
    r = residuals(theta)
    cost = float(r @ r)
    cost_history = [cost]
    lam = 1e-3
    converged = False
    message = "maximum iterations reached"
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        jac = jacobian_internal(theta)
        grad = jac.T @ r
        if np.max(np.abs(2.0 * grad)) < GRADIENT_TOLERANCE:
            converged = True
            message = "gradient norm below tolerance"
            iterations -= 1
            break
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        floor = 1e-32 * max(float(np.max(diag)), 1.0)
        diag = np.maximum(diag, floor)
        accepted = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jtj + lam * np.diag(diag), -grad, rcond=None)
            z_trial = z + step
            # Overflow to inf, or a step out of the model's domain (a
            # ValueError, e.g. T_Ze underflowing to 0), rejects a wild step.
            with np.errstate(over="ignore", invalid="ignore"):
                theta_trial = to_theta(z_trial, theta)
                try:
                    r_trial = residuals(theta_trial)
                except ValueError:
                    r_trial = np.full_like(r, math.inf)
                cost_trial = float(r_trial @ r_trial)
            if np.isfinite(cost_trial) and cost_trial <= cost:
                accepted = True
                break
            lam = min(lam * 10.0, 1e14)
        if not accepted:
            converged = True
            message = "no downhill step found (local minimum at damping limit)"
            break
        change = cost - cost_trial
        z, theta, r = z_trial, theta_trial, r_trial
        prev_cost, cost = cost, cost_trial
        cost_history.append(cost)
        lam = max(lam / 3.0, 1e-12)
        if cost == 0.0 or change < COST_TOLERANCE * max(prev_cost, 1e-300):
            converged = True
            message = "relative cost change below tolerance"
            break
    return theta, {
        "converged": converged,
        "iterations": iterations,
        "cost_history": cost_history,
        "message": message,
    }


def jacobian_check(
    model: ModelSpec, params: Sequence[float], x_probe: Sequence[float]
) -> float:
    """Largest relative deviation of the analytic jacobian from central differences.

    Uses a step of 1e-6 relative to each parameter's magnitude (absolute
    1e-6 at zero), snapped to the nearest power of two so the differencing
    itself introduces no rounding; a polynomial model then checks out to
    machine precision. Deviations are measured entry-wise against the
    larger of the two magnitudes.
    """
    theta = np.asarray(params, dtype=float)
    x = np.asarray(x_probe, dtype=float)
    analytic = model.jacobian(theta, x)
    worst = 0.0
    for j in range(theta.size):
        scale = abs(theta[j]) if theta[j] != 0.0 else 1.0
        h = 2.0 ** round(math.log2(1e-6 * scale))
        up = theta.copy()
        up[j] += h
        down = theta.copy()
        down[j] -= h
        fd = (model.evaluate(up, x) - model.evaluate(down, x)) / (2.0 * h)
        for a, n in zip(analytic[:, j], fd):
            denom = max(abs(a), abs(n))
            if denom == 0.0:
                continue
            worst = max(worst, abs(a - n) / denom)
    return worst


# --- registry models -------------------------------------------------------


def _echo_evaluate(p, x):
    a, t2 = p
    return a * np.exp(-2.0 * x / t2)


def _echo_jacobian(p, x):
    a, t2 = p
    e = np.exp(-2.0 * x / t2)
    return np.column_stack([e, a * e * 2.0 * x / t2**2])


def _echo_guess(x, y):
    a0 = max(float(np.max(y)), 1e-12)
    t0 = _decay_time_guess(x, y / a0, factor=2.0)
    return np.array([a0, t0])


def _recovery_evaluate(p, x):
    y0, a, t1 = p
    return y0 - a * np.exp(-x / t1)


def _recovery_jacobian(p, x):
    y0, a, t1 = p
    e = np.exp(-x / t1)
    return np.column_stack([np.ones_like(x), -e, -a * e * x / t1**2])


def _recovery_guess(x, y):
    y0 = float(np.max(y))
    a0 = max(y0 - float(np.min(y)), 1e-12)
    level = y0 - y
    mask = level > 0.05 * a0
    if mask.sum() >= 2:
        slope, intercept = np.polyfit(x[mask], np.log(level[mask]), 1)
        if slope < 0:
            return np.array([y0, math.exp(intercept), -1.0 / slope])
    span = float(np.max(x) - np.min(x)) or 1.0
    return np.array([y0, a0, 0.5 * span])


def _t1_evaluate(p, x):
    return t1_rate(x, T1ModelParams(*p))


def _t1_jacobian(p, x):
    return np.column_stack([x, x**5])


def _t1_guess(x, y):
    i_lo = int(np.argmin(x))
    i_hi = int(np.argmax(x))
    a0 = max(y[i_lo] / x[i_lo], 1e-30)
    b0 = (y[i_hi] - a0 * x[i_hi]) / x[i_hi] ** 5
    if b0 <= 0:
        b0 = 0.1 * y[i_hi] / x[i_hi] ** 5
    return np.array([a0, max(b0, 1e-30)])


def _t2_evaluate(p, x):
    return t2_rate(x, T2ModelParams(*p))


def _t2_jacobian(p, x):
    c, t_ze, _ = p
    ff = flip_flop_factor(x, t_ze)
    # d ff / d T_Ze = -p * ff / T, with p = tanh(T_Ze / 2T) the polarization.
    d_ff = -polarization(x, t_ze).polarization * ff / x
    return np.column_stack([ff, c * d_ff, np.ones_like(ff)])


def _t2_guess(x, y):
    gamma0 = DEFAULT_T2_PARAMS.gamma_res_per_us
    i_hi = int(np.argmax(x))
    c0 = max(4.0 * (y[i_hi] - gamma0), 1e-6)
    return np.array([c0, zeeman_temperature(_DEFAULT_FREQUENCY_HZ), gamma0])


def _decay_time_guess(x, y_norm, factor):
    """Log-linear slope of the decaying portion; generous fallback if flat."""
    mask = (y_norm > 1e-3) & (y_norm < 1.0)
    span = float(np.max(x) - np.min(x)) or 1.0
    if mask.sum() >= 2:
        slope, _ = np.polyfit(x[mask], np.log(y_norm[mask]), 1)
        if slope < 0:
            return factor / -slope
    return 100.0 * span


def registry() -> dict[str, ModelSpec]:
    """Name -> ModelSpec mapping; names are stable for CLI lookup."""
    return {
        "echo_decay": ModelSpec(
            name="echo_decay",
            param_names=("amplitude", "T2"),
            param_units=("", "s"),
            positive=(True, True),
            evaluate=_echo_evaluate,
            jacobian=_echo_jacobian,
            initial_guess=_echo_guess,
        ),
        "inversion_recovery": ModelSpec(
            name="inversion_recovery",
            param_names=("y0", "amplitude", "T1"),
            param_units=("", "", "s"),
            positive=(False, True, True),
            evaluate=_recovery_evaluate,
            jacobian=_recovery_jacobian,
            initial_guess=_recovery_guess,
        ),
        "t1_model": ModelSpec(
            name="t1_model",
            param_names=("A", "B"),
            param_units=("1/(s K)", "1/(s K^5)"),
            positive=(True, True),
            evaluate=_t1_evaluate,
            jacobian=_t1_jacobian,
            initial_guess=_t1_guess,
            time_unit_s=1.0,
            reference=astuple(DEFAULT_T1_PARAMS),
        ),
        "t2_model": ModelSpec(
            name="t2_model",
            param_names=("C", "T_Ze", "Gamma_res"),
            param_units=("1/us", "K", "1/us"),
            positive=(True, True, True),
            evaluate=_t2_evaluate,
            jacobian=_t2_jacobian,
            initial_guess=_t2_guess,
            default_fixed={"Gamma_res": DEFAULT_T2_PARAMS.gamma_res_per_us},
            time_unit_s=1e-6,
            reference=astuple(DEFAULT_T2_PARAMS),
        ),
    }


def get_model(name: str) -> ModelSpec:
    """Registry lookup; unknown names raise with the list of valid ones."""
    models = registry()
    if name not in models:
        raise KeyError(
            f"unknown model {name!r}; available: {', '.join(sorted(models))}"
        )
    return models[name]
