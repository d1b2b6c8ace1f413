"""The least-squares line behind every log-linear fit in the package, and
the one rule for which values such a fit can use."""

from __future__ import annotations

import math

import numpy as np

LOG_FLOOR = 1e-300  # values smaller in size are left out of log fits


def log10_points(xs, values) -> tuple[list, list[float], int]:
    """The xs whose value a log fit can use and their log10|value|, in input
    order, with the count left out: a value is left out when it is None,
    not finite, or below ``LOG_FLOOR`` in size."""
    used, logs = [], []
    for x, value in zip(xs, values):
        if value is None or not math.isfinite(value) or abs(value) < LOG_FLOOR:
            continue
        used.append(x)
        logs.append(math.log10(abs(value)))
    return used, logs, len(values) - len(used)


def fit_slope(x, y) -> float:
    """The least-squares slope of y against x: ``fit_line``'s, bit for bit,
    without the residuals its R² needs."""
    return float(np.polyfit(np.asarray(x, dtype=float), np.asarray(y, dtype=float), 1)[0])


def fit_line(x, y) -> tuple[float, float, float | None]:
    """Least-squares ``y = slope * x + intercept``: (slope, intercept, R²).

    R² is None when y is constant, where it is undefined; each caller picks
    its own value for that case.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    slope, intercept = np.polyfit(x, y, 1)
    ss_res = float(((y - (slope * x + intercept)) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else None
    return float(slope), float(intercept), r_squared
