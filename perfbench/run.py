"""lemsim benchmark: one workload, end to end, with its correctness gate.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense-scan --seed 1 --seconds 20 --trace 0

The workload job runs in one fresh process (``worker.py``) that drives
``lemsim.cli.main`` in-process.  With ``--trace 0`` the run also starts
``SETUP_PROBES`` more fresh processes that only set up, and reports the
end-to-end metrics; with ``--trace 1`` it reports the per-layer metrics of a
traced run.  Human-readable lines come first; the last line of stdout is the
JSON result.  Everything the run writes goes under ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from manifest import THREAD_VARS, loadavg, machine_manifest, nproc
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 6  # set-up-only processes; with the workload process, 7 set-up samples
CHILD_TIMEOUT_S = 170
BLAS_THREADS = 1

# end-to-end metrics reported on every workload, with units
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env() -> dict[str, str]:
    """Environment for the workload processes: BLAS pinned to one thread.

    On a small shared machine a two-thread eigensolver waits for whichever
    core is busy elsewhere; one thread gives steadier timings at about 25%
    more eigensolver time (n=11 eigh, 2-core box).
    """
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(min(BLAS_THREADS, nproc()))
    return env


def spawn(args: argparse.Namespace, env, setup_only: bool = False) -> tuple[float, dict]:
    """Run one worker process; returns (set-up seconds from spawn, its result)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {CHILD_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"workload process exited with status {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - spawned, result


def pipeline_times(result: dict) -> dict[str, float]:
    """Per-pipeline time: the sum over the pipeline's ops of each op's fastest round.

    The shared host switches between a fast and a ~35% slower state every few
    seconds; an op's fastest round is steady where its median is not.
    """
    out: dict[str, float] = {}
    for name, times in result["op_times"].items():
        metric = result["op_metrics"][name]
        out[metric] = out.get(metric, 0.0) + min(times)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lemsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in 64 unsigned bits")
    if not (ROOT / "src" / "lemsim" / "__init__.py").is_file():
        print(f"error: no lemsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    load_start = loadavg()
    env = child_env()
    # set-up probes run before and after the workload process, so the set-up
    # samples span the run instead of one moment of a host whose speed drifts
    probes = 0 if args.trace else SETUP_PROBES
    try:
        runs = [spawn(args, env, setup_only=True) for _ in range(probes // 2)]
        runs.append(spawn(args, env))
        result = runs[-1][1]
        runs += [spawn(args, env, setup_only=True) for _ in range(probes - probes // 2)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups = [setup for setup, _ in runs]
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    problems = [p for _, r in runs for p in r["problems"]]

    pipelines = pipeline_times(result)
    if args.trace:
        from tracing import LAYER_UNITS

        metrics = {k: {"value": result["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
        rounds = f"{len(result['rounds'])} untraced + {len(result['traced_rounds'])} traced rounds"
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": sum(pipelines.values()),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
        rounds = f"{len(result['rounds'])} rounds"

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "metrics": metrics,
        "pipelines_s": pipelines,
        "rounds_s": result["rounds"],
        "op_times_s": result["op_times"],
        "setup_samples_s": setups,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "machine": machine_manifest(ROOT, args.seed),
        "libraries": result["libraries"],
        "loadavg": {"start": load_start, "end": loadavg()},
    }
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    report_path = ROOT / ".bench_work" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    libs = result["libraries"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {rounds}, "
          f"{len(setups)} set-up sample(s)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for name, value in report["pipelines_s"].items():
        print(f"{name} = {value:.6g} s  (sum of per-op best rounds)")
    print(f"failed_frac = {failed / attempted:.6g} ratio  ({failed} failed of {attempted} op runs)")
    for problem in problems[:10]:
        print(f"# failed: {problem}")
    print(f"# python {libs['python']}, numpy {libs['numpy']}, scipy {libs['scipy']}, "
          f"BLAS threads {libs['blas_threads']} of nproc {libs['nproc']}, "
          f"{report['machine']['cpu_model']}, commit {report['machine']['git_commit']}")
    print(f"# loadavg start [{load_start}] end [{report['loadavg']['end']}]; details in {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
