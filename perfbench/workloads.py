"""Workload definitions: the generated configs and the op list of each workload.

An op is one ``lemsim <pipeline> --config <file>`` call.  Every config is
generated here from the workload seed; lemsim itself only ever sees the
config files.  Costs do not depend on the seed: the seed enters the
``[run] seed`` line of every config (and so the trajectory noise and the
sweep point seeds) and the spin-glass couplings of the landscape ops,
whose cost is set by n alone.

A short eigensolver-free tail (two path sums, two n=14 landscapes) ends
``dense-scan``.  A larger, separate eigensolver-free workload was not steady:
pure-Python code on a shared host slows by up to 2x for minutes at a time,
while the BLAS-bound dense ops slow by under 10%.  ``trajectories`` is the
workload that bypasses both the eigensolver and the energy table.

Two scales exist: ``full`` is what the benchmark measures, ``toy`` runs the
same op list at small sizes for the harness's own tests.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("dense-scan", "trajectories")
SCALES = ("full", "toy")

BIAS = 0.1
COUPLING = -1.0


@dataclass(frozen=True)
class Op:
    """One CLI call and what its correctness check needs to know."""

    name: str  # unique within the workload, used as the reference key
    pipeline: str  # lemsim subcommand
    metric: str  # per-pipeline metric the op's time is charged to
    config: str  # config text with ``{seed}`` still unformatted
    n: int
    hnorm: float  # sum of |J_ij| (i<j) + |b_i| + |c_i|: bounds ||H||
    check: str = "reference"  # reference | spin-glass | dynamics
    steps: int = 0  # dynamics only
    j_upper: tuple[float, ...] = ()  # spin-glass only

    def text(self, seed: int) -> str:
        return self.config.replace("{seed}", str(seed))


def ferro_a_typ(n: int, bias: float = BIAS) -> float:
    """Single-flip gap at the all-up local minimum of the uniform ferromagnet."""
    return 2.0 * (n - 1) * abs(COUPLING) - 2.0 * bias


def _ferro_config(n: int, ratio: float, bias: float, extra: str = "") -> tuple[str, float]:
    amp = ratio * ferro_a_typ(n, bias)
    text = (
        f"[cluster]\nn = {n}\nj = {COUPLING!r}\nbias = {bias!r}\ntunneling = {amp!r}\n"
        f"[noise]\nz_noise = {amp!r}\nx_noise = {amp!r}\n{extra}"
        "[run]\nseed = {seed}\n"
    )
    hnorm = n * (n - 1) / 2 * abs(COUPLING) + n * abs(bias) + n * amp
    return text, hnorm


def _ferro(name, pipeline, metric, n, ratio, bias=BIAS) -> Op:
    text, hnorm = _ferro_config(n, ratio, bias)
    return Op(name, pipeline, metric, text, n, hnorm)


def _sweep(name, n_values, ratios, channels) -> Op:
    text = (
        f"[sweep]\nn_values = {' '.join(map(str, n_values))}\n"
        f"ratios = {' '.join(map(repr, ratios))}\nchannels = {' '.join(channels)}\n"
        f"bias = {BIAS!r}\nj = {COUPLING!r}\n[run]\nseed = {{seed}}\n"
    )
    # per-row norms come from each row's n, ratio and a_typ
    return Op(name, "sweep", "sweep_s", text, max(n_values), 0.0)


def _dense_scan(big: tuple[int, ...], sweep_n: range) -> list[Op]:
    ops = [_ferro(f"spectrum-n{big[-1]}", "spectrum", "spectrum_s", big[-1], 0.01)]
    ops += [_ferro(f"rates-n{n}", "rates", "rates_s", n, 0.01) for n in big]
    ops += [_ferro(f"overlaps-n{n}", "overlaps", "overlaps_s", n, 0.05) for n in big]
    ops.append(_sweep("sweep", sweep_n, (0.01, 0.05), ("overlaps", "rates")))
    return ops


def _spin_glass(name: str, n: int, rng: random.Random) -> Op:
    j_upper = tuple(rng.gauss(0.0, 1.0) for _ in range(n * (n - 1) // 2))
    text = (
        f"[cluster]\nn = {n}\nj_upper = {' '.join(map(repr, j_upper))}\nbias = {BIAS!r}\n"
        "[run]\nseed = {seed}\n"
    )
    hnorm = sum(abs(v) for v in j_upper) + n * BIAS
    return Op(name, "landscape", "landscape_s", text, n, hnorm, check="spin-glass", j_upper=j_upper)


def _eigensolver_free(seed: int, paths: tuple[tuple[int, float, float], ...], land_n: int) -> list[Op]:
    ops = [
        _ferro(f"pathsum-n{n}-r{ratio}-b{bias}", "pathsum", "pathsum_s", n, ratio, bias)
        for n, ratio, bias in paths
    ]
    ops.append(_ferro(f"landscape-ferro-n{land_n}", "landscape", "landscape_s", land_n, 0.01))
    ops.append(_spin_glass(f"landscape-glass-n{land_n}", land_n, random.Random(seed)))
    return ops


DYNAMICS_RATIO = 0.05
TRAJECTORIES = 200


def dynamics_op(n: int, steps: int) -> Op:
    # time_step stays auto (0.01 / a_typ); total_time sits half a step short of
    # steps * dt so the step count is exact, and far too short for early stop
    dt = 0.01 / ferro_a_typ(n)
    extra = (
        f"[dynamics]\ntotal_time = {(steps - 0.5) * dt!r}\ntrajectories = {TRAJECTORIES}\n"
    )
    text, hnorm = _ferro_config(n, DYNAMICS_RATIO, BIAS, extra)
    return Op(
        f"dynamics-n{n}", "dynamics", f"dynamics_n{n}_s", text, n, hnorm,
        check="dynamics", steps=steps,
    )


def ops_for(workload: str, seed: int, scale: str = "full") -> list[Op]:
    """The fixed job of one workload, in run order."""
    toy = scale == "toy"
    if workload == "dense-scan":
        if toy:
            return _dense_scan((3, 4), range(2, 5)) + _eigensolver_free(
                seed, ((3, 0.05, 0.1), (4, 0.01, 0.3)), 5
            )
        return _dense_scan((10, 11), range(2, 11)) + _eigensolver_free(
            seed, ((7, 0.05, 0.1), (8, 0.01, 0.3)), 14
        )
    if workload == "trajectories":
        if toy:
            return [dynamics_op(3, 40), dynamics_op(6, 10)]
        return [dynamics_op(3, 10_000), dynamics_op(6, 1_500)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def warmup_ops() -> list[Op]:
    """One tiny op per pipeline, run during set-up on every workload.

    Lazy start-up (BLAS threads, LAPACK workspace queries, numpy's random
    machinery) is then paid in set-up and not by the first timed op, and a
    traced run sees every layer at least once.
    """
    return [
        _ferro("warmup-spectrum", "spectrum", "", 2, 0.01),
        _ferro("warmup-landscape", "landscape", "", 2, 0.01),
        _ferro("warmup-overlaps", "overlaps", "", 2, 0.05),
        _ferro("warmup-rates", "rates", "", 2, 0.01),
        _ferro("warmup-pathsum", "pathsum", "", 3, 0.05),
        dynamics_op(3, 8),
        dynamics_op(6, 8),
        _sweep("warmup-sweep", (3,), (0.01,), ("overlaps", "rates", "pathsum")),
    ]


def spin_glass_couplings(op: Op) -> list[list[float]]:
    n = op.n
    m = [[0.0] * n for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = op.j_upper[k]
            k += 1
    return m


def expected_dynamics_rows(steps: int) -> int:
    record_every = max(1, steps // 2048)
    return math.ceil(steps / record_every) + 1
