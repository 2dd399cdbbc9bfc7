import math

import pytest

from paradox_lab import FitError, fit_curve
from paradox_lab import fitting


def test_log_linear_recovers_exact_line():
    series = [(n, math.exp(-0.3 * n + 0.7)) for n in range(5, 45, 5)]
    result = fit_curve(series, "log_linear")
    assert abs(result.parameters[0] + 0.3) < 1e-12
    assert abs(result.parameters[1] - 0.7) < 1e-12
    assert result.rmse < 1e-12
    assert result.r_squared > 0.999999


def test_exp_decay_roundtrip():
    series = [(n, 0.65588 * math.exp(-0.64539 * n)) for n in range(2, 22, 2)]
    result = fit_curve(series, "exp_decay")
    a, b = result.parameters
    assert abs(a - 0.65588) < 1e-6
    assert abs(b - 0.64539) < 1e-6


def test_exp_plus_const_roundtrip():
    series = [(n, 0.25 - 0.27476 * math.exp(-0.18796 * n)) for n in range(3, 60, 3)]
    result = fit_curve(series, "exp_plus_const")
    a, b, c = result.parameters
    assert abs(a + 0.27476) < 1e-5
    assert abs(b - 0.18796) < 1e-5
    assert abs(c - 0.25) < 1e-7
    assert result.r_squared > 0.999999


def test_exp_plus_const_constant_series():
    series = [(n, 0.25) for n in range(1, 9)]
    result = fit_curve(series, "exp_plus_const")
    assert abs(result.parameters[0]) < 1e-12
    assert result.rmse < 1e-12


def test_inv_sqrt_shift_roundtrip():
    series = [(n, 0.96124 * (n + 0.12519) ** -0.5) for n in range(20, 220, 20)]
    result = fit_curve(series, "inv_sqrt_shift")
    a, c = result.parameters
    assert abs(a - 0.96124) < 1e-6
    assert abs(c - 0.12519) < 1e-4
    assert result.rmse < 1e-10


def test_requires_four_points():
    with pytest.raises(ValueError):
        fit_curve([(1, 0.5), (2, 0.4), (3, 0.3)], "exp_decay")


@pytest.mark.parametrize("family", fitting.FAMILIES)
def test_every_family_rejects_a_constant_x(family):
    # inv_sqrt_shift has no regression of its own to refuse it
    series = [(20, 0.5), (20, 0.4), (20, 0.3), (20, 0.2)]
    with pytest.raises(ValueError, match="all x values are identical"):
        fit_curve(series, family)


def test_log_linear_rejects_nonpositive():
    series = [(1, 0.5), (2, 0.0), (3, 0.1), (4, 0.05)]
    with pytest.raises(ValueError):
        fit_curve(series, "log_linear")


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        fit_curve([(1, 1.0), (2, 0.5), (3, 0.25), (4, 0.125)], "polynomial")


def test_iteration_cap_raises_fit_error(monkeypatch):
    monkeypatch.setattr(fitting, "_MAX_ITERATIONS", 1)
    monkeypatch.setattr(fitting, "_STEP_TOLERANCE", 1e-16)
    series = [(n, 0.9 * math.exp(-0.2 * n) + 0.05) for n in range(1, 14)]
    with pytest.raises(FitError):
        fit_curve(series, "exp_plus_const")


def test_result_dict_shape():
    series = [(n, 2.0 * math.exp(-0.5 * n)) for n in range(1, 9)]
    result = fit_curve(series, "exp_decay").as_dict()
    assert result["family"] == "exp_decay"
    assert set(result["parameters"]) == {"amplitude", "rate"}
    assert 0.0 <= result["r_squared"] <= 1.0
