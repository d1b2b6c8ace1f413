"""Print the exit status and the sha256 of the CSV and of the stderr summary
of every CLI run on a fixed set of configs.

A change that only restructures code must leave every line unchanged.  Run
this script from one checkout against the source of two trees and diff the
output::

    PYTHONPATH=/path/to/parent/src python tests/csv_digests.py > parent.txt
    PYTHONPATH=src python tests/csv_digests.py > change.txt
    diff parent.txt change.txt

The configs cover the seven pipelines on collective and non-collective
clusters, OU and white noise (white across five noise blocks on the dense
route), the sector and dense routes, explicit unpolarized anchors at zero
tunneling, both refusals of a dressed state, two non-collective 9-spin
clusters (one with a 90-level window) and a strongly mixed 7-spin one on
the dense route, a 16-spin and a 40-spin collective cluster, four sweeps
(one with every per-row error code, one to 150 spins), a noise-free
``dynamics`` run whose LEM anchor has a zero single-flip gap, and every op
of the benchmark's toy scale (``perfbench/workloads.py``).
Every run gets ``--seed 7``.  Every line is the same on any BLAS thread
count: no config solves a matrix of more than 512 rows densely, and
``lemsim._lapack`` runs every LAPACK call up to that size on one thread.
Pytest does not collect this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

ALL = ("spectrum", "landscape", "overlaps", "rates", "pathsum", "dynamics")
DYNAMICS = "[dynamics]\ntotal_time = {time}\ntrajectories = 4\n"
FERRO3 = "[cluster]\nn = 3\nj = -1.0\nbias = 0.1\ntunneling = {c}\n"
NOISE = "[noise]\nz_noise = {f}\nx_noise = {g}\nkind = {kind}\ntau = 2.6\n"
GLASS4 = (
    "[cluster]\nn = 4\nj_upper = -0.9 0.35 0.2 -0.6 0.45 -0.3\n"
    "bias = 0.21 -0.13 0.07 0.16\ntunneling = 0.05 0.11 0.03 0.08\n"
)
GLASS6 = (
    "[cluster]\nn = 6\n"
    "j_upper = -0.8 0.3 -0.2 0.5 -0.7 0.6 -0.4 0.25 0.1 -0.55 0.35 -0.15 0.45 -0.65 0.2\n"
    "bias = 0.12 -0.3 0.05 0.22 -0.08 0.17\ntunneling = 0.02 0.04 0.03 0.05 0.01 0.06\n"
)
NUDGED5 = (
    "[cluster]\nn = 5\nj = -1.0\nbias = 0.1 0.1 0.1 0.1 0.10000000000000009\n"
    "tunneling = 0.039\n"
)
GLASS9 = (
    "[cluster]\nn = 9\n"
    "j_upper = -0.83 -0.53 0.6 0.16 -0.81 -0.13 -0.04 -0.68 0.47 -0.77 -0.22 0.03 -0.14 0.17 "
    "0.48 0.91 -0.43 0.3 0.39 -0.41 -1 0.95 -0.4 -0.37 0.78 0.17 -0.06 0.55 -0.94 0.41 -0.25 "
    "-0.82 0.32 0.86 -0.59 0.26\n"
    "bias = -0.12 0.15 0.13 -0.17 0.2 0.09 0.11 0.19 -0.04\n"
    "tunneling = 0.044 0.047 0.028 0.046 0.035 0.037 0.029 0.042 0.032\n"
)
# a weakly coupled 9-spin glass, its anchors configured: their window
# holds 90 levels of a dense spectrum, and both anchors dress
GLASS9_WIDE = (
    "[cluster]\nn = 9\n"
    "j_upper = 0.121 -0.13 0.052 -0.008 0.053 -0.138 -0.135 -0.097 0.144 -0.059 0.027 0.145 0.062 "
    "-0.087 -0.023 -0.119 -0.065 -0.059 -0.144 0.103 0.119 0.005 0.041 0.029 0.048 0.148 0.023 "
    "-0.107 0.058 0.057 0.106 0.054 -0.053 -0.138 -0.016 0.038\n"
    "bias = -0.347 -0.334 0.32 0.321 -0.247 0.279 0.284 -0.208 0.39\n"
    "tunneling = 0.052 0.086 0.033 0.068 0.098 0.071 0.086 0.069 0.087\n"
)
# tunneling near half the couplings: the anchors' overlap^2 is 0.55 and 0.60,
# and their windows hold 18 levels
GLASS7_MIXED = (
    "[cluster]\nn = 7\n"
    "j_upper = 0.66 -0.28 0.41 0.72 0.28 0.1 0.52 0.43 -0.07 0.14 0.49 -0.87 0.29 0.47 -0.2 "
    "0.01 -0.54 0.3 0.94 -0.4 -0.07\n"
    "bias = 0.23 0.03 -0.05 0.1 -0.28 -0.21 0.22\n"
    "tunneling = 0.29 0.257 0.482 0.438 0.494 0.44 0.481\n"
)
SWEEP = "[sweep]\nn_values = {n}\nratios = {ratios}\nchannels = {channels}\n"
ALL_CHANNELS = "overlaps rates pathsum dynamics"

# (name, pipelines, config text)
CONFIGS = [
    ("ferro3-ou", ALL, FERRO3.format(c=0.038) + NOISE.format(f=0.038, g=0.038, kind="ou")
     + DYNAMICS.format(time=10.0)),
    ("ferro3-white", ("rates", "dynamics"), FERRO3.format(c=0.038)
     + NOISE.format(f=0.038, g=0.038, kind="white") + DYNAMICS.format(time=10.0)),
    ("ferro5-sector", ALL, "[cluster]\nn = 5\nj = -1.0\nbias = 0.1\ntunneling = 0.39\n"
     + NOISE.format(f=0.39, g=0.39, kind="ou") + DYNAMICS.format(time=2.0)),
    ("ferro5-nudged", ALL, NUDGED5 + NOISE.format(f=0.039, g=0.039, kind="ou")
     + DYNAMICS.format(time=2.0)),
    ("glass4-ou", ALL, GLASS4 + NOISE.format(f=0.04, g=0.04, kind="ou")
     + "[dynamics]\nanchors = 0100 1011\ntotal_time = 2.0\ntrajectories = 4\n"),
    # white noise on the dense route across five noise blocks (603 steps),
    # on the sigma^z channel only
    ("glass4-white", ("dynamics",), GLASS4 + NOISE.format(f=0.04, g=0.0, kind="white")
     + "[dynamics]\nanchors = 0100 1011\ntotal_time = 3.5\ntrajectories = 4\n"),
    ("glass6-white", ALL, GLASS6 + NOISE.format(f="0.03 0.02 0.04 0.01 0.05 0.02", g=0.03,
     kind="white") + DYNAMICS.format(time=1.0)),
    ("ferro3-unpolarized-c0", ("overlaps", "rates", "dynamics"), FERRO3.format(c=0.0)
     + NOISE.format(f=0.038, g=0.038, kind="ou")
     + "[dynamics]\nanchors = 000 011\ntime_step = 0.005\ntotal_time = 10.0\ntrajectories = 4\n"),
    ("ferro3-repeated-level", ("overlaps", "rates", "dynamics"), FERRO3.format(c=0.038)
     + NOISE.format(f=0.038, g=0.038, kind="ou") + "[dynamics]\nanchors = 000 011\n"),
    ("ferro4-strong-mixing", ("overlaps", "rates"), "[cluster]\nn = 4\nj = -1.0\nbias = 0.1\n"
     "tunneling = 3.0\n" + NOISE.format(f=0.1, g=0.1, kind="ou")),
    ("ferro4-a-typ", ("rates", "pathsum", "dynamics"), "[cluster]\nn = 4\nj = -1.0\nbias = 0.1\n"
     "tunneling = 0.06\na_typ = 4.0\n" + NOISE.format(f=0.06, g=0.06, kind="ou")
     + DYNAMICS.format(time=2.0)),
    ("glass9-dense", ("overlaps", "rates"), GLASS9 + NOISE.format(f=0.03, g=0.03, kind="ou")),
    ("glass9-wide", ("overlaps", "rates"), GLASS9_WIDE + NOISE.format(f=0.03, g=0.03, kind="ou")
     + "[dynamics]\nanchors = 010010011 110110011\n"),
    ("glass7-mixed", ("overlaps", "rates"), GLASS7_MIXED + NOISE.format(f=0.1, g=0.1, kind="ou")),
    ("sweep", ("sweep",), SWEEP.format(n="2 3 4 5 6", ratios="0.01 0.05 0.3",
     channels="overlaps rates pathsum")),
    ("sweep-dynamics", ("sweep",), SWEEP.format(n="3", ratios="0.3", channels=ALL_CHANNELS)
     + "[dynamics]\ntrajectories = 4\n"),
    # every channel's error code in the n=9 row, a family error at n=1, a
    # fitted n=3 row; sizes and channels out of order, non-default bias and j
    ("sweep-errors", ("sweep",), SWEEP.format(n="9 1 3", ratios="0.3",
     channels="dynamics pathsum rates overlaps") + "bias = 0.3\nj = -0.8\n"
     "[dynamics]\ntrajectories = 4\n"),
    # no [noise] section, and a zero single-flip gap at the LEM anchor: A_typ
    # is undefined, and a noise-free run with a given time step never needs it
    ("noise-free-zero-gap", ("dynamics",), "[cluster]\nn = 2\nj_upper = 0.0\nbias = 0.0 0.4\n"
     "tunneling = 0.0 0.01\n[dynamics]\nanchors = 00 11\ntime_step = 0.01\ntotal_time = 1.0\n"
     "trajectories = 2\n"),
    # past 14 spins: a collective cluster whose 2^16 levels come from the
    # total-spin blocks and whose pair dresses on the sector, and a sweep of
    # chain rows up to n = 150, where the smallest ratio leaves the double range
    ("ferro16-sector", ("spectrum", "landscape", "overlaps", "rates"),
     "[cluster]\nn = 16\nj = -1.0\nbias = 0.1\ntunneling = 0.3\n"
     + NOISE.format(f=0.3, g=0.3, kind="ou")),
    ("sweep-past14", ("sweep",), SWEEP.format(n="15 30 68 150", ratios="0.0025 0.01 0.05",
     channels="overlaps rates")),
    # a collective cluster whose 2^40-entry energy table would not fit in memory:
    # its anchors and A_typ come from the symmetric chain
    ("ferro40-sector", ("overlaps", "rates"),
     "[cluster]\nn = 40\nj = -1.0\nbias = 0.1\ntunneling = 0.3\n"
     + NOISE.format(f=0.3, g=0.3, kind="ou")),
]


def _toy_ops():
    """(name, pipelines, config text) of every op of the benchmark's toy scale."""
    sys.path.insert(0, ROOT)
    from perfbench.workloads import WORKLOADS, ops_for, warmup_ops

    ops = warmup_ops()
    for workload in WORKLOADS:
        ops += ops_for(workload, 7, "toy")
    return [(f"toy-{op.name}", (op.pipeline,), op.text(7)) for op in ops]


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    from lemsim.cli import main as lemsim_main

    with tempfile.TemporaryDirectory() as work:
        cfg, out = os.path.join(work, "run.cfg"), os.path.join(work, "out.csv")
        for name, pipelines, text in CONFIGS + _toy_ops():
            with open(cfg, "w", encoding="utf-8") as fh:
                fh.write(text)
            for pipeline in pipelines:
                if os.path.exists(out):
                    os.remove(out)
                stderr = io.StringIO()
                with contextlib.redirect_stderr(stderr):
                    status = lemsim_main([pipeline, "--config", cfg, "--out", out, "--seed", "7"])
                csv = "-"
                if os.path.exists(out):
                    with open(out, "rb") as fh:
                        csv = _digest(fh.read())
                err = _digest(stderr.getvalue().encode("utf-8"))
                print(f"{name} {pipeline} exit={status} csv={csv} stderr={err}", flush=True)


if __name__ == "__main__":
    main()
