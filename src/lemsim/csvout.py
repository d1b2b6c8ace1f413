"""Deterministic CSV serialization of results.

Every emitter produces a '#'-prefixed metadata block (artifact version,
seed, config echo), a header row and data rows.  Reals are written in
scientific notation with 17 significant digits so parsing the text
reproduces the in-memory doubles exactly; identical inputs yield
byte-identical output.
"""

from __future__ import annotations

import sys
from itertools import chain, repeat
from typing import Iterable

import numpy as np

from ._version import __version__
from .cluster import config_to_bits
from .dynamics import CoherenceTrace
from .perturbation import PathSumResult
from .spectrum import LandscapeReport, OverlapDecay
from .sweep import SweepRow
from .transition import RateReport


def format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _cells(record: Iterable) -> str:
    return ",".join(format_value(v) for v in record)


def _document(
    header: Iterable[str], rows: Iterable[str], config_text: str, seed: int
) -> str:
    """The metadata block (version, seed, config echo), the header row and
    the data rows, each already joined."""
    lines = [f"# lemsim {__version__}", f"# seed = {seed}", "# config-begin"]
    for line in config_text.rstrip("\n").splitlines():
        lines.append(f"# {line}" if line else "#")
    lines += ["# config-end", ",".join(header)]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def emit_sweep_rows(rows: list[SweepRow], config_text: str, seed: int) -> str:
    header = SweepRow.columns()
    records = [[getattr(row, col) for col in header] for row in rows]
    return _document(header, map(_cells, records), config_text, seed)


def emit_trace(trace: CoherenceTrace, config_text: str, seed: int) -> str:
    header = (
        "time",
        "coherence",
        "ensemble_coherence",
        "fitted_rate",
        "fit_quality",
        "rate_is_upper_limit",
        "ensemble_rate",
        "ensemble_fit_quality",
        "ensemble_rate_is_upper_limit",
    )
    # the float columns formatted as format_value does; the fit cells are
    # the same on every row, so they are formatted once
    tail = _cells(
        (
            trace.fitted_rate,
            trace.fit_quality,
            trace.rate_is_upper_limit,
            trace.ensemble_rate,
            trace.ensemble_fit_quality,
            trace.ensemble_rate_is_upper_limit,
        )
    )
    columns = zip(trace.times.tolist(), trace.coherence.tolist(), trace.ensemble_coherence.tolist())
    rows = (f"{t:.16e},{c:.16e},{e:.16e},{tail}" for t, c, e in columns)
    return _document(header, rows, config_text, seed)


def emit_rate_report(report: RateReport, config_text: str, seed: int) -> str:
    n = len(report.z_channel)
    header = (
        ["matrix_element", "rate_ratio", "rate_bound", "bound_satisfied", "bound_margin"]
        + [f"z_channel_{i}" for i in range(n)]
        + [f"x_channel_{i}" for i in range(n)]
    )
    record = (
        [report.matrix_element, report.rate_ratio, report.bound, report.bound_satisfied, report.bound_margin]
        + list(report.z_channel)
        + list(report.x_channel)
    )
    return _document(header, [_cells(record)], config_text, seed)


def emit_landscape(report: LandscapeReport, n: int, config_text: str, seed: int) -> str:
    header = ("configuration", "energy", "distance_to_global", "is_global")
    records = [(config_to_bits(report.global_config, n), report.global_energy, 0, True)]
    for m in report.local_minima:
        records.append((config_to_bits(m.config, n), m.energy, m.distance_to_global, False))
    return _document(header, map(_cells, records), config_text, seed)


def emit_eigensystem(values: np.ndarray, config_text: str, seed: int, repeated: bool = False) -> str:
    """One row per level of the ascending ``values``.  ``repeated`` marks
    levels that repeat in runs (a collective cluster's multiplets): each run,
    equal values of one sign bit, is then formatted once."""
    header = ("index", "eigenvalue")
    if not repeated:
        rows = (f"{k},{v:.16e}" for k, v in enumerate(values.tolist()))
        return _document(header, rows, config_text, seed)
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = (values[1:] != values[:-1]) | (np.signbit(values[1:]) != np.signbit(values[:-1]))
    lengths = np.diff(np.flatnonzero(starts), append=len(values)).tolist()
    texts = [f"{v:.16e}" for v in values[starts].tolist()]
    cells = chain.from_iterable(map(repeat, texts, lengths))
    rows = (f"{k},{text}" for k, text in enumerate(cells))
    return _document(header, rows, config_text, seed)


def emit_overlap_decay(decays: list[OverlapDecay], n: int, config_text: str, seed: int) -> str:
    header = ("anchor", "distance", "max_amplitude", "fitted_slope")
    records = []
    for decay in decays:
        for k, amp in zip(decay.distances, decay.max_amplitudes):
            records.append((config_to_bits(decay.anchor, n), k, amp, decay.slope))
    return _document(header, map(_cells, records), config_text, seed)


def emit_path_sums(
    results: list[PathSumResult], n: int, slope: float | None, config_text: str, seed: int
) -> str:
    header = ("order", "source", "target", "amplitude", "path_count", "rate_ratio", "fitted_slope")
    records = [
        (
            r.order,
            config_to_bits(r.source, n),
            config_to_bits(r.target, n),
            r.amplitude,
            r.path_count,
            r.rate_ratio,
            slope,
        )
        for r in results
    ]
    return _document(header, map(_cells, records), config_text, seed)


def write_output(text: str, destination: str | None) -> None:
    """Write CSV text to a path, or stdout when destination is None."""
    if destination is None:
        sys.stdout.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
