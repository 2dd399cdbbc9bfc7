"""Least-squares fits for the asymptotic shapes of likelihood sweeps.

Four families: exponential approach to an offset, pure exponential decay,
shifted inverse square root, and a linear fit of log values. The nonlinear
families initialize from a log-linear regression (or endpoint matching) and
refine with damped Gauss-Newton; the damping factor grows until a step
improves the residual, so singular Jacobians are handled without special
cases. The one exception: when the initial amplitude of ``exp_plus_const``
is below 1e-300, the constant fit is returned with 0 iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import FitError

PARAMETER_NAMES = {
    "exp_plus_const": ("amplitude", "rate", "offset"),
    "exp_decay": ("amplitude", "rate"),
    "inv_sqrt_shift": ("amplitude", "shift"),
    "log_linear": ("slope", "intercept"),
}

FAMILIES = tuple(PARAMETER_NAMES)

_MAX_ITERATIONS = 500
_STEP_TOLERANCE = 1e-10


@dataclass(frozen=True)
class FitResult:
    family: str
    parameters: tuple[float, ...]
    rmse: float
    r_squared: float
    iterations: int

    @property
    def parameter_names(self) -> tuple[str, ...]:
        return PARAMETER_NAMES[self.family]

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "parameters": dict(zip(self.parameter_names, self.parameters)),
            "rmse": self.rmse,
            "r_squared": self.r_squared,
            "iterations": self.iterations,
        }


def _validate_series(series: Sequence[tuple[float, float]]) -> tuple[np.ndarray, np.ndarray]:
    if len(series) < 4:
        raise ValueError(f"need at least 4 points to fit, got {len(series)}")
    x = np.array([float(a) for a, _ in series], dtype=np.float64)
    y = np.array([float(b) for _, b in series], dtype=np.float64)
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("series contains non-finite values")
    if np.all(x == x[0]):
        raise ValueError("all x values are identical")
    return x, y


def _linear_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xbar, ybar = x.mean(), y.mean()
    var = ((x - xbar) ** 2).sum()
    if var == 0:
        raise ValueError("all x values are identical")
    slope = ((x - xbar) * (y - ybar)).sum() / var
    return slope, ybar - slope * xbar


def _goodness(y: np.ndarray, fitted: np.ndarray) -> tuple[float, float]:
    residuals = y - fitted
    rmse = float(math.sqrt((residuals**2).mean()))
    ss_res = float((residuals**2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    return rmse, r2


def _gauss_newton(
    x: np.ndarray,
    y: np.ndarray,
    model: Callable[[np.ndarray, np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray],
    theta0: Sequence[float],
) -> tuple[np.ndarray, int]:
    def sse(theta: np.ndarray) -> float:
        with np.errstate(over="ignore", invalid="ignore"):
            fitted = model(x, theta)
        if not np.isfinite(fitted).all():
            return math.inf
        return float(((y - fitted) ** 2).sum())

    theta = np.array(theta0, dtype=np.float64)
    current = sse(theta)
    damping = 1e-3
    stalled = 0
    for iteration in range(1, _MAX_ITERATIONS + 1):
        with np.errstate(over="ignore", invalid="ignore"):
            residuals = y - model(x, theta)
            jac = jacobian(x, theta)
        if not (np.isfinite(residuals).all() and np.isfinite(jac).all()):
            raise FitError(f"model left the admissible region at {theta.tolist()}")
        normal = jac.T @ jac
        gradient = jac.T @ residuals
        step = None
        for _ in range(60):
            ridge = normal + damping * np.diag(np.maximum(np.diag(normal), 1e-12))
            try:
                candidate = np.linalg.solve(ridge, gradient)
            except np.linalg.LinAlgError:
                damping *= 10.0
                continue
            trial = sse(theta + candidate)
            if trial <= current:
                step = candidate
                improvement = current - trial
                current = trial
                damping = max(damping * 0.3, 1e-14)
                break
            damping *= 10.0
        if step is None:
            # no downhill step exists at any damping: already at a minimum
            return theta, iteration
        theta = theta + step
        if float(np.max(np.abs(step) / (np.abs(theta) + 1.0))) < _STEP_TOLERANCE:
            return theta, iteration
        # objective stall: drifting along a flat valley counts as converged
        stalled = stalled + 1 if improvement <= 1e-13 * (1.0 + current) else 0
        if stalled >= 3:
            return theta, iteration
    rmse = math.sqrt(current / len(x))
    raise FitError(
        f"no convergence after {_MAX_ITERATIONS} iterations; "
        f"rmse {rmse:.3e}, last parameters {theta.tolist()}"
    )


def _init_exp(x: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    """Amplitude/rate guess from a log-linear regression of |residual|."""
    mask = np.abs(r) > 1e-300
    if mask.sum() >= 2:
        xm, rm = x[mask], r[mask]
        slope, intercept = _linear_fit(xm, np.log(np.abs(rm)))
        # amplitude sign from the point farthest from the tail
        sign = 1.0 if rm[np.argmin(xm)] >= 0 else -1.0
        return sign * math.exp(intercept), -slope
    return float(r[0]) if len(r) else 0.0, 0.1


def fit_curve(series: Sequence[tuple[float, float]], family: str) -> FitResult:
    """Least-squares fit of one family; see FAMILIES for the shapes.

    exp_plus_const: a*exp(-b*x) + c        exp_decay: a*exp(-b*x)
    inv_sqrt_shift: a*(x + c)**-0.5        log_linear: ln y = slope*x + intercept

    log_linear needs strictly positive values and reports rmse/r^2 on the log
    scale; the others report them on the original scale.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose one of {FAMILIES}")
    x, y = _validate_series(series)

    if family == "log_linear":
        if (y <= 0).any():
            raise ValueError("log_linear requires strictly positive values")
        logy = np.log(y)
        slope, intercept = _linear_fit(x, logy)
        rmse, r2 = _goodness(logy, slope * x + intercept)
        return FitResult(family, (slope, intercept), rmse, r2, 1)

    if family == "exp_decay":
        model = lambda t, th: th[0] * np.exp(-th[1] * t)
        jacobian = lambda t, th: np.stack(
            [np.exp(-th[1] * t), -th[0] * t * np.exp(-th[1] * t)], axis=1
        )
        a0, b0 = _init_exp(x, y)
        theta, iters = _gauss_newton(x, y, model, jacobian, (a0, b0))

    elif family == "exp_plus_const":
        model = lambda t, th: th[0] * np.exp(-th[1] * t) + th[2]
        jacobian = lambda t, th: np.stack(
            [
                np.exp(-th[1] * t),
                -th[0] * t * np.exp(-th[1] * t),
                np.ones_like(t),
            ],
            axis=1,
        )
        order = np.argsort(x)
        c0 = float(y[order[-1]])
        a0, b0 = _init_exp(x, y - c0)
        if abs(a0) < 1e-300:
            fitted = np.full_like(y, c0)
            rmse, r2 = _goodness(y, fitted)
            return FitResult(family, (0.0, 0.0, c0), rmse, r2, 0)
        theta, iters = _gauss_newton(x, y, model, jacobian, (a0, b0, c0))

    else:  # inv_sqrt_shift
        def model(t, th):
            base = t + th[1]
            bad = base <= 0
            safe = np.where(bad, 1.0, base)
            out = th[0] / np.sqrt(safe)
            return np.where(bad, np.inf, out)

        def jacobian(t, th):
            base = np.maximum(t + th[1], 1e-12)
            return np.stack(
                [1.0 / np.sqrt(base), -0.5 * th[0] * base ** (-1.5)], axis=1
            )

        order = np.argsort(x)
        x0, y0 = float(x[order[0]]), float(y[order[0]])
        a0 = y0 * math.sqrt(max(x0, 1.0))
        theta, iters = _gauss_newton(x, y, model, jacobian, (a0, 0.0))

    with np.errstate(over="ignore", invalid="ignore"):
        fitted = model(x, theta)
    rmse, r2 = _goodness(y, fitted)
    return FitResult(family, tuple(float(v) for v in theta), rmse, r2, iters)
