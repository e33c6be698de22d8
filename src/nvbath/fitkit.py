"""Weighted nonlinear least-squares fitting for the relaxation models.

A small damped least-squares (Levenberg-Marquardt style) engine tailored to
the model shapes used here: decaying exponentials and the two
temperature-rate laws. Positive-definite parameters (times, rates,
temperature scales) are fit in log space, and a step whose exponential
leaves (0, inf) is rejected; parameters may be pinned to fixed values; data
order never affects the result because points are sorted before any
summation.

The registry maps stable names to :class:`ModelSpec` instances:

* ``echo_decay``          a * exp(-2 tau / T2)          vs pulse spacing tau (s)
* ``inversion_recovery``  y0 - a * exp(-T / T1)         vs recovery delay T (s)
* ``t1_model``            A*T + B*T**5                  rate 1/s vs temperature K
* ``t2_model``            C * ff(T, T_Ze) + Gamma_res   rate 1/us vs temperature K
"""

from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass, field
from types import MappingProxyType
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from ._domain import check, one_of
from .bath_model import DEFAULT_T1_PARAMS, DEFAULT_T2_PARAMS, T1ModelParams
from .bath_model import T2ModelParams, flip_flop_factor, polarization, t1_rate, t2_rate
from .spin_core import DEFAULT_FREQUENCY_HZ, zeeman_temperature

DEFAULT_MAX_ITERATIONS = 500
COST_TOLERANCE = 1e-10
GRADIENT_TOLERANCE = 1e-12


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
        Iteration limit, an integer >= 0; the search also stops on a relative
        cost change below ``COST_TOLERANCE`` or a gradient below
        ``GRADIENT_TOLERANCE``.

    Returns a :class:`FitResult`; non-convergence is reported through the
    ``converged`` flag and ``message``, never raised. Converged means the
    gradient test passed, or the cost test passed in an iteration whose trial
    steps all stayed in the model's domain. A cost-test pass after a trial
    step left the domain, or with a positive parameter so near 0 or inf that
    the model no longer resolves it (a stall at its edge), no downhill step in
    60 damping tries, and the iteration limit are not converged. Starting
    values whose cost is not finite raise ``ValueError``.
    """
    x_arr = np.asarray(x, dtype=float)
    y_arr = np.asarray(y, dtype=float)
    if x_arr.ndim != 1 or x_arr.shape != y_arr.shape:
        raise ValueError("x and y must be one-dimensional and equally long")
    if sigma is None:
        sig_arr = np.ones_like(x_arr)
    else:
        sig_arr = check("sigma", np.asarray(sigma, dtype=float))
        if sig_arr.shape != x_arr.shape:
            raise ValueError("sigma length mismatch")
    check("x", x_arr, -math.inf)
    check("y", y_arr, -math.inf)
    check("max_iterations", max_iterations, 0, integer=True)
    # Fixed summation order regardless of input ordering.
    order = np.lexsort((sig_arr, y_arr, x_arr))
    x_arr, y_arr, sig_arr = x_arr[order], y_arr[order], sig_arr[order]

    if fixed is None:
        fixed = dict(model.default_fixed)
    init = init or {}
    one_of(f"{model.name} parameter", model.param_names, *fixed, *init)
    theta0 = np.asarray(model.initial_guess(x_arr, y_arr), dtype=float)
    fixed_mask = np.array([name in fixed for name in model.param_names])
    for j, name in enumerate(model.param_names):
        theta0[j] = float(fixed.get(name, init.get(name, theta0[j])))
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

    theta, resid, n_iterations, converged, message, cost_history = (
        _levenberg_marquardt(
            model, x_arr, y_arr, sig_arr, theta0, free, positive, max_iterations
        )
    )

    cost = float(resid @ resid)
    dof = x_arr.size - n_free
    reduced = cost / dof if dof > 0 else float("nan")
    cov_full = np.zeros((len(model.param_names),) * 2)
    stderr = np.zeros(len(model.param_names))
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
        converged=converged,
        n_iterations=n_iterations,
        cost=cost,
        reduced_chisq=reduced,
        cost_history=tuple(cost_history),
        message=message,
    )


def _levenberg_marquardt(model, x, y, sigma, theta0, free, positive, max_iterations):
    """Damped least squares in the transformed (log where positive) space.

    Returns ``(theta, residuals, iterations, converged, message,
    cost_history)`` from the line whose test decides the stop.
    """
    logs = positive[free]
    exps = np.flatnonzero(free & positive)  # the parameters fitted as exp(z)

    def to_theta(z):
        theta = theta0.copy()
        vals = z.copy()
        vals[logs] = np.exp(vals[logs])
        theta[free] = vals
        return theta

    theta = theta0
    z = theta0[free]
    z[logs] = np.log(z[logs])
    with np.errstate(over="ignore", invalid="ignore"):
        r = (y - model.evaluate(theta, x)) / sigma
        cost = float(r @ r)
    if not math.isfinite(cost):
        raise ValueError("the fit's cost at its starting values is not finite")
    history = [cost]
    lam = 1e-3
    for k in range(1, max_iterations + 1):
        # d residual / d z = -(df/dtheta) * (dtheta/dz) / sigma
        scale = np.ones(logs.size)
        scale[logs] = theta[free][logs]
        jac = -(model.jacobian(theta, x)[:, free] * scale[None, :]) / sigma[:, None]
        grad = jac.T @ r
        if np.max(np.abs(2.0 * grad)) < GRADIENT_TOLERANCE:
            return theta, r, k - 1, True, "gradient norm below tolerance", history
        jtj = jac.T @ jac
        diag = np.diag(jtj).copy()
        floor = 1e-32 * max(float(np.max(diag)), 1.0)
        diag = np.maximum(diag, floor)
        left_domain = False
        for _ in range(60):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jtj + lam * np.diag(diag), -grad, rcond=None)
            z_trial = z + step
            # Overflow to inf, or a step out of the model's domain (a
            # ValueError, e.g. T_Ze underflowing to 0, or a positive
            # parameter exp(z) leaving (0, inf)), rejects a wild step.
            with np.errstate(over="ignore", invalid="ignore"):
                theta_trial = to_theta(z_trial)
                cost_trial = math.inf
                if all(0.0 < v < math.inf for v in theta_trial[exps].tolist()):
                    try:
                        r_trial = (y - model.evaluate(theta_trial, x)) / sigma
                        cost_trial = float(r_trial @ r_trial)
                    except ValueError:
                        pass
            if cost_trial <= cost:  # false for inf and nan: cost is finite
                break
            left_domain |= not math.isfinite(cost_trial)
            lam = min(lam * 10.0, 1e14)
        else:
            return theta, r, k, False, "stalled: no downhill step found", history
        change = cost - cost_trial
        z, theta, r = z_trial, theta_trial, r_trial
        prev_cost, cost = cost, cost_trial
        history.append(cost)
        lam = max(lam / 3.0, 1e-12)
        if cost == 0.0 or change < COST_TOLERANCE * max(prev_cost, 1e-300):
            # jac is from the start of this last iteration, a step ago.
            if left_domain or _unresolved(jac[:, logs], sigma, y - r * sigma):
                return theta, r, k, False, "stalled at the edge of the domain", history
            return theta, r, k, True, "relative cost change below tolerance", history
    # Each iteration accepted one step, so this is max_iterations.
    return theta, r, len(history) - 1, False, "maximum iterations reached", history


def _unresolved(jac, sigma, value) -> bool:
    """Whether the model (``value``, errors ``sigma``) no longer resolves a
    parameter fitted as exp(z), by the residuals' z-jacobian ``jac`` of those
    parameters: scaling it by e moves no model value by more than rounding,
    as when exp(z) has run off towards 0 or inf, where the cost in z is flat
    but not minimal."""
    with np.errstate(over="ignore"):
        moved = np.abs(jac) * sigma[:, None]
    limit = sys.float_info.epsilon * np.abs(value)[:, None]
    return bool(np.any(np.all(moved <= limit, axis=0)))


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
    return a * np.exp(-2.0 * x / check("T2", t2))  # a pinned T2; fitted ones stay inside


def _echo_jacobian(p, x):
    a, t2 = p
    e = np.exp(-2.0 * x / t2)
    return np.column_stack([e, a * e * 2.0 * x / t2**2])


def _echo_guess(x, y):
    """Largest point as amplitude; T2 from the log-linear slope of the
    decaying portion, with a generous fallback if it is flat."""
    a0 = max(float(np.max(y)), 1e-12)
    y_norm = y / a0
    mask = (y_norm > 1e-3) & (y_norm < 1.0)
    span = float(np.max(x) - np.min(x)) or 1.0
    if mask.sum() >= 2:
        slope, _ = np.polyfit(x[mask], np.log(y_norm[mask]), 1)
        if slope < 0:
            return np.array([a0, 2.0 / -slope])
    return np.array([a0, 100.0 * span])


def _recovery_evaluate(p, x):
    y0, a, t1 = p
    return y0 - a * np.exp(-x / check("T1", t1))


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
    d_ff = -polarization(x, t_ze) * ff / x
    return np.column_stack([ff, c * d_ff, np.ones_like(ff)])


def _t2_guess(x, y):
    gamma0 = DEFAULT_T2_PARAMS.gamma_res_per_us
    i_hi = int(np.argmax(x))
    c0 = max(4.0 * (y[i_hi] - gamma0), 1e-6)
    return np.array([c0, zeeman_temperature(DEFAULT_FREQUENCY_HZ), gamma0])


# Built once at import and shared read-only.
_REGISTRY: Mapping[str, ModelSpec] = MappingProxyType(
    {
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
            default_fixed=MappingProxyType(
                {"Gamma_res": DEFAULT_T2_PARAMS.gamma_res_per_us}
            ),
            time_unit_s=1e-6,
            reference=astuple(DEFAULT_T2_PARAMS),
        ),
    }
)


def registry() -> Mapping[str, ModelSpec]:
    """Name -> ModelSpec mapping, read-only; names are stable for CLI lookup."""
    return _REGISTRY


def get_model(name: str) -> ModelSpec:
    """Registry lookup; an unknown name raises ``ValueError`` listing the valid ones."""
    one_of("model", _REGISTRY, name)
    return _REGISTRY[name]
