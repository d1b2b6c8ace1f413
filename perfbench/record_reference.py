"""Record ``reference.json``: the outputs the correctness gate compares against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record_reference.py

Deterministic ops store their header and rows.  Seed-dependent dynamics ops
store a Monte Carlo band: the mean and standard deviation of the final
coherence over ``BAND_SEEDS``.  Spin-glass landscapes need no entry; an
independent enumeration checks them.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
from pathlib import Path

from checks import REFERENCE_PATH, parse_csv, reference_key
from worker import ROOT, WORK, Job
from workloads import SCALES, WORKLOADS

RECORD_SEED = 0
BAND_SEEDS = range(1, 17)


def _outputs(workload: str, scale: str, seed: int) -> tuple[list, dict[str, str]]:
    workdir = WORK / f"record-{workload}-{scale}-{seed}"
    job = Job(workload, seed, scale, workdir)
    out = {}
    for op in job.ops:
        if job.call("job", op, "record") != 0:
            raise SystemExit(f"{workload}/{scale}/{op.name} failed; nothing recorded")
        out[op.name] = job.out_path("job", op).read_text(encoding="utf-8")
    shutil.rmtree(workdir)
    return job.ops, out


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    reference = {}
    for workload in WORKLOADS:
        for scale in SCALES:
            ops, texts = _outputs(workload, scale, RECORD_SEED)
            dynamics = [op for op in ops if op.check == "dynamics"]
            finals = {op.name: [] for op in dynamics}
            for seed in BAND_SEEDS if dynamics else ():
                _, band_texts = _outputs(workload, scale, seed)
                for op in dynamics:
                    finals[op.name].append(float(parse_csv(band_texts[op.name])[2][-1][1]))
            for op in ops:
                key = reference_key(workload, scale, op)
                if op.check == "reference":
                    _, header, rows = parse_csv(texts[op.name])
                    reference[key] = {"config": op.config, "header": header, "rows": rows}
                elif op.check == "dynamics":
                    values = finals[op.name]
                    reference[key] = {
                        "config": op.config,
                        "mean": statistics.fmean(values),
                        "std": statistics.stdev(values),
                        "seeds": list(BAND_SEEDS),
                    }
            print(f"recorded {workload}/{scale}", file=sys.stderr)
    Path(REFERENCE_PATH).write_text(json.dumps(reference, indent=0) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
