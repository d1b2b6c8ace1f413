"""Correctness gate: every CSV an op writes is checked here.

An op fails when its exit status is not 0, when a sweep row carries an
error code, or when a printed value leaves its tolerance around the
reference recorded in ``reference.json`` (or around an independent oracle
for seed-dependent outputs).

Tolerance: ``|x - ref| <= rtol * |ref| + floor``.  For values from the dense
eigensolver the floor is ``DENSE_FLOOR_EPS * eps * ||H||``, the absolute
accuracy of dense eigenvalues and eigenvectors, so roundoff-sized matrix
elements (n = 10, 11) are compared absolutely and never bit for bit; values
above the floor are compared relatively.  Values from exact arithmetic (path
sums, classical energies, the analytic bound) use a tight relative
tolerance.  Fitted slopes of dense amplitudes use a looser relative one,
because the fit takes logarithms of amplitudes near the floor.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import BIAS, COUPLING, Op, expected_dynamics_rows, spin_glass_couplings

REFERENCE_PATH = Path(__file__).with_name("reference.json")
EPS = float(np.finfo(float).eps)
DENSE_FLOOR_EPS = 1e3
DENSE_RTOL = 1e-12
SLOPE_RTOL = 1e-4
EXACT_FLOOR_EPS = 16.0
EXACT_RTOL = 1e-9
DYNAMICS_BAND_SIGMAS = 8.0

# column kinds per pipeline: "same" text must match, "dense"/"exact"/"slope"
# are floats under the tolerances above, "derived" is recomputed from its row
_CHANNELS = {f"{c}_channel_{i}": "dense" for c in "zx" for i in range(16)}
COLUMNS = {
    "spectrum": {"index": "same", "eigenvalue": "dense"},
    "rates": {
        "matrix_element": "dense", "rate_ratio": "derived", "rate_bound": "exact",
        "bound_satisfied": "derived", "bound_margin": "derived", **_CHANNELS,
    },
    "overlaps": {"anchor": "same", "distance": "same", "max_amplitude": "dense", "fitted_slope": "slope"},
    "pathsum": {
        "order": "same", "source": "same", "target": "same", "amplitude": "exact",
        "path_count": "same", "rate_ratio": "exact", "fitted_slope": "exact",
    },
    "landscape": {"configuration": "same", "energy": "exact", "distance_to_global": "same", "is_global": "same"},
    "sweep": {
        "n": "same", "ratio": "same", "a_typ": "exact", "matrix_element": "dense",
        "rate_ratio": "derived", "rate_bound": "exact", "bound_margin": "derived",
        "overlap_slope": "slope", "pathsum_slope": "exact", "fitted_dynamics_rate": "same",
        "seed": "derived", "error": "same",
    },
}


def parse_csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    """Split a lemsim CSV into (metadata, header, rows)."""
    meta: dict[str, str] = {}
    body = []
    for line in text.splitlines():
        if line.startswith("# seed = "):
            meta["seed"] = line[len("# seed = "):]
        elif not line.startswith("#"):
            body.append(line)
    table = list(csv.reader(body))
    if not table:
        return meta, [], []
    return meta, table[0], table[1:]


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        return {}


def reference_key(workload: str, scale: str, op: Op) -> str:
    return f"{workload}/{scale}/{op.name}"


def _close(x: float, ref: float, rtol: float, floor: float) -> bool:
    if math.isinf(ref) or math.isnan(ref):
        return x == ref or (math.isnan(ref) and math.isnan(x))
    return abs(x - ref) <= rtol * abs(ref) + floor


def _compare_cell(kind: str, got: str, ref: str, hnorm: float) -> bool:
    if kind == "same" or got == "" or ref == "":
        return got == ref
    x, r = float(got), float(ref)
    if kind == "dense":
        return _close(x, r, DENSE_RTOL, DENSE_FLOOR_EPS * EPS * hnorm)
    if kind == "slope":
        return _close(x, r, SLOPE_RTOL, 0.0)
    return _close(x, r, EXACT_RTOL, EXACT_FLOOR_EPS * EPS * hnorm)


def _sweep_row_norm(row: dict[str, str]) -> float:
    n = int(row["n"])
    amp = float(row["ratio"]) * float(row["a_typ"] or 0.0)
    return n * (n - 1) / 2 * abs(COUPLING) + n * abs(BIAS) + n * amp


def _check_derived(row: dict[str, str], seed: int, index: int) -> list[str]:
    problems = []
    if row.get("matrix_element"):
        element = float(row["matrix_element"])
        ratio = float(row["rate_ratio"])
        if not _close(ratio, element * element, 1e-12, 0.0):
            problems.append("rate_ratio is not matrix_element squared")
        bound = float(row["rate_bound"])
        margin = float(row["bound_margin"])
        want = math.inf if ratio == 0 else math.log10(bound / ratio)
        if not _close(margin, want, 1e-12, 1e-12):
            problems.append("bound_margin is not log10(rate_bound / rate_ratio)")
        if "bound_satisfied" in row and row["bound_satisfied"] != str(ratio <= 100.0 * bound).lower():
            problems.append("bound_satisfied disagrees with rate_ratio and rate_bound")
    if "seed" in row:
        child = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
        if row["seed"] != str(int(child.generate_state(1, dtype=np.uint64)[0])):
            problems.append(f"sweep row {index} seed is not the child seed of {seed}")
    return problems


def check_reference(op: Op, header, rows, ref: dict | None, seed: int) -> list[str]:
    if ref is None:
        return [f"no reference recorded for {op.name}"]
    if ref["config"] != op.config:
        return [f"reference for {op.name} was recorded from another config"]
    if header != ref["header"]:
        return [f"header {header} != reference {ref['header']}"]
    if len(rows) != len(ref["rows"]):
        return [f"{len(rows)} rows, reference has {len(ref['rows'])}"]
    kinds = COLUMNS[op.pipeline]
    problems = []
    for index, (got, want) in enumerate(zip(rows, ref["rows"])):
        cells = dict(zip(header, got))
        problems += _check_derived(cells, seed, index)
        if cells.get("error"):
            problems.append(f"row {index} carries error {cells['error']!r}")
        hnorm = _sweep_row_norm(cells) if op.pipeline == "sweep" else op.hnorm
        for col, g, w in zip(header, got, want):
            kind = kinds[col]
            if kind != "derived" and not _compare_cell(kind, g, w, hnorm):
                problems.append(f"row {index} {col}: {g} vs reference {w}")
    return problems


def _bits(config: int, n: int) -> str:
    return "".join("1" if config >> i & 1 else "0" for i in range(n))


def check_spin_glass(op: Op, header, rows) -> list[str]:
    """Enumerate the landscape independently of lemsim and compare."""
    n = op.n
    j = np.array(spin_glass_couplings(op))
    idx = np.arange(1 << n)
    s = 2.0 * ((idx[:, None] >> np.arange(n)) & 1) - 1.0
    e = 0.5 * np.einsum("xi,ij,xj->x", s, j, s) + BIAS * s.sum(axis=1)
    tol = 1e-9 * float(e.max() - e.min())
    is_min = np.ones(len(e), dtype=bool)
    for i in range(n):
        is_min &= (e[idx ^ (1 << i)] - e) > tol
    g = int(np.argmin(e))
    minima = sorted((float(e[x]), int(x)) for x in np.nonzero(is_min)[0] if int(x) != g)
    want = [(_bits(g, n), float(e[g]), 0, "true")]
    want += [(_bits(x, n), en, bin(x ^ g).count("1"), "false") for en, x in minima]
    if header != ["configuration", "energy", "distance_to_global", "is_global"]:
        return [f"unexpected landscape header {header}"]
    if [r[0] for r in rows] != [w[0] for w in want]:
        return [f"landscape lists {len(rows)} configurations, the oracle {len(want)} (or another order)"]
    problems = []
    floor = EXACT_FLOOR_EPS * EPS * op.hnorm
    for r, w in zip(rows, want):
        if not _close(float(r[1]), w[1], EXACT_RTOL, floor) or r[2:] != [str(w[2]), w[3]]:
            problems.append(f"landscape row {r} vs oracle {w}")
    return problems


def check_dynamics(op: Op, header, rows, band: dict | None) -> list[str]:
    """Invariants of the coherence trace plus a Monte Carlo band on its end."""
    if header[:3] != ["time", "coherence", "ensemble_coherence"]:
        return [f"unexpected dynamics header {header}"]
    want_rows = expected_dynamics_rows(op.steps)
    if len(rows) != want_rows:
        return [f"{len(rows)} samples, expected {want_rows} for {op.steps} steps"]
    data = np.array([[float(v) for v in r[:3]] for r in rows])
    t, coh, ens = data.T
    problems = []
    if abs(coh[0] - 0.5) > 1e-9 or abs(ens[0] - 0.5) > 1e-9:
        problems.append("initial coherence is not 1/2")
    if not np.all(np.diff(t) > 0):
        problems.append("sample times are not increasing")
    if np.any(coh <= 0) or np.any(coh > 0.5 + 1e-9):
        problems.append("coherence leaves (0, 1/2]")
    if np.any(ens > coh + 1e-12):
        problems.append("|mean z| exceeds mean |z|")
    if len({tuple(r[3:]) for r in rows}) != 1:
        problems.append("fit columns differ between rows")
    if band is None or band["config"] != op.config:
        problems.append(f"no Monte Carlo band recorded for {op.name} as configured")
    else:
        half = DYNAMICS_BAND_SIGMAS * band["std"] + 1e-9
        if abs(coh[-1] - band["mean"]) > half:
            problems.append(
                f"final coherence {coh[-1]:.6g} outside {band['mean']:.6g} +- {half:.3g}"
            )
    return problems


def check_op(op: Op, text: str, seed: int, ref: dict | None) -> list[str]:
    """All problems with one op's CSV output; empty when it passes."""
    meta, header, rows = parse_csv(text)
    if meta.get("seed") != str(seed):
        return [f"metadata seed {meta.get('seed')!r} != {seed}"]
    if op.check == "spin-glass":
        return check_spin_glass(op, header, rows)
    if op.check == "dynamics":
        return check_dynamics(op, header, rows, ref)
    return check_reference(op, header, rows, ref, seed)
