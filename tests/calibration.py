"""Calibrated comparison of a trajectory decay rate with a golden-rule rate.

Criterion 7 pins the overall rate constant, which absorbs the noise
spectral weight, from one reference trajectory run
(``calibrate_rate_constant``) and then judges another run's fitted rate
against the calibrated prediction (``rate_vs_prediction``): consistent
within a factor ``CONSISTENCY_WINDOW``, or inconclusive when the decay was
not fitted cleanly.
"""

import math
from dataclasses import dataclass

from lemsim import CoherenceTrace, RateReport, ValidationError

CONSISTENCY_WINDOW = 3.0
MIN_FIT_QUALITY = 0.9


@dataclass(frozen=True)
class RateComparison:
    """Fitted trajectory rate against the calibrated golden-rule prediction."""

    fitted_rate: float
    predicted_rate: float
    ratio: float
    verdict: str  # "consistent" | "inconsistent" | "inconclusive"
    consistent: bool | None
    window: float = CONSISTENCY_WINDOW


def calibrate_rate_constant(reference: CoherenceTrace, report: RateReport) -> float:
    """Pin the overall rate constant from one reference trajectory run."""
    if reference.rate_is_upper_limit or reference.fit_quality < MIN_FIT_QUALITY:
        raise ValidationError(
            f"reference trace is unusable for calibration "
            f"(upper_limit={reference.rate_is_upper_limit}, "
            f"fit_quality={reference.fit_quality:.3f})"
        )
    if not reference.fitted_rate > 0 or not report.rate_ratio > 0:
        raise ValidationError("calibration needs strictly positive reference rates")
    return reference.fitted_rate / report.rate_ratio


def rate_vs_prediction(
    trace: CoherenceTrace, report: RateReport, rate_constant: float
) -> RateComparison:
    """Compare a fitted trajectory rate with the calibrated golden-rule rate.

    A poor fit never produces a false pass: the verdict degrades to
    "inconclusive" when the decay window was not resolved cleanly.
    """
    predicted = rate_constant * report.rate_ratio
    if predicted == 0.0 and (trace.fitted_rate == 0.0 or trace.rate_is_upper_limit):
        return RateComparison(
            fitted_rate=trace.fitted_rate,
            predicted_rate=0.0,
            ratio=1.0,
            verdict="consistent",
            consistent=True,
        )
    if trace.rate_is_upper_limit or trace.fit_quality < MIN_FIT_QUALITY:
        ratio = trace.fitted_rate / predicted if predicted > 0 else math.inf
        return RateComparison(
            fitted_rate=trace.fitted_rate,
            predicted_rate=predicted,
            ratio=ratio,
            verdict="inconclusive",
            consistent=None,
        )
    ratio = trace.fitted_rate / predicted if predicted > 0 else math.inf
    consistent = 1.0 / CONSISTENCY_WINDOW <= ratio <= CONSISTENCY_WINDOW
    return RateComparison(
        fitted_rate=trace.fitted_rate,
        predicted_rate=predicted,
        ratio=ratio,
        verdict="consistent" if consistent else "inconsistent",
        consistent=consistent,
    )
