"""The least-squares line behind every log-linear fit in the package."""

from __future__ import annotations

import numpy as np


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
