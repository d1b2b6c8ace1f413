"""One fresh workload process, started by ``run.py``.

Set-up imports lemsim, writes and parses the workload's configs and runs the
warm-up ops.  The job then runs in rounds, one op at a time through
``lemsim.cli.main`` in this process (a closed loop with one client).  Every
op's CSV is checked after its round, and every later round must reproduce
the first round's bytes.  With ``--setup-only`` the process stops after
set-up, so ``run.py`` can time set-up in several fresh processes.

Prints one JSON line; ``run.py`` turns it into metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

MIN_ROUNDS = 3  # untraced rounds, so per-op medians have at least three samples
MIN_PAIRS = 1  # untraced + traced round pairs in a traced run


class Job:
    """The op list of one workload with its config and output files."""

    def __init__(self, workload: str, seed: int, scale: str, workdir: Path):
        import lemsim.cli
        import lemsim.config

        from checks import load_reference, reference_key
        from workloads import ops_for, warmup_ops

        self.cli = lemsim.cli
        self.seed = seed
        self.ops = ops_for(workload, seed, scale)
        self.warmup = warmup_ops()
        references = load_reference()
        self.refs = {op.name: references.get(reference_key(workload, scale, op)) for op in self.ops}
        self.workdir = workdir
        for phase, ops in (("warmup", self.warmup), ("job", self.ops)):
            (workdir / phase).mkdir(parents=True, exist_ok=True)
            for op in ops:
                text = op.text(seed)
                lemsim.config.parse_config(text)
                self.config_path(phase, op).write_text(text, encoding="utf-8")
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_output: dict[str, bytes] = {}
        self.verdict: dict[str, list[str]] = {}
        self.tracer = None

    def config_path(self, phase, op) -> Path:
        return self.workdir / phase / f"{op.name}.cfg"

    def out_path(self, phase, op) -> Path:
        return self.workdir / phase / f"{op.name}.csv"

    def call(self, phase, op, label) -> int | None:
        if self.tracer is not None:
            self.tracer.op = f"{label}/{op.name}"
        argv = [op.pipeline, "--config", str(self.config_path(phase, op)),
                "--out", str(self.out_path(phase, op)), "--quiet"]
        try:
            return self.cli.main(argv)
        except Exception:  # a crash is a failed op, not a failed benchmark
            traceback.print_exc(file=sys.stderr)
            return None

    def _fail(self, op, why: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{op.name}: {why}")

    def warm_up(self) -> None:
        for op in self.warmup:
            self.attempted += 1
            rc = self.call("warmup", op, "warmup")
            if rc != 0:
                self._fail(op, f"warm-up exit status {rc}")

    def run_round(self, label: str) -> tuple[float, list[float]]:
        """Run every op once; returns (round wall, per-op times)."""
        for op in self.ops:
            self.out_path("job", op).unlink(missing_ok=True)
        gc.collect()
        clock = time.perf_counter
        times, codes = [], []
        start = clock()
        for op in self.ops:
            t0 = clock()
            codes.append(self.call("job", op, label))
            times.append(clock() - t0)
        wall = clock() - start
        for op, rc in zip(self.ops, codes):
            self._verify(op, rc)
        return wall, times

    def _verify(self, op, rc) -> None:
        from checks import check_op

        self.attempted += 1
        if rc != 0:
            self._fail(op, f"exit status {rc}")
            return
        data = self.out_path("job", op).read_bytes()
        if op.name not in self.first_output:
            self.first_output[op.name] = data
            self.verdict[op.name] = check_op(op, data.decode("utf-8"), self.seed, self.refs[op.name])
        if self.verdict[op.name]:
            self._fail(op, "; ".join(self.verdict[op.name][:3]))
        elif data != self.first_output[op.name]:
            self._fail(op, "output differs from the first run of the same op")


def best_job_time(rounds: list[tuple[float, list[float]]]) -> float:
    """The job's time with every op at its fastest round (how run.py reports wall_s)."""
    return sum(min(op_times) for op_times in zip(*(times for _, times in rounds)))


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str = "full",
        setup_only: bool = False, workdir: Path | None = None) -> dict:
    """Set up, run the job for ``seconds`` and return the raw measurements."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    workdir = workdir or WORK / f"{workload}-seed{seed}-trace{int(trace)}-{scale}"
    shutil.rmtree(workdir, ignore_errors=True)
    job = Job(workload, seed, scale, workdir)
    if trace:
        from tracing import Tracer

        job.tracer = Tracer()
        job.tracer.install()
        job.warm_up()
        job.tracer.uninstall()
    else:
        job.warm_up()
    result = {"ready": time.monotonic()}
    if setup_only:
        result.update(attempted=job.attempted, failed=job.failed, problems=job.problems)
        shutil.rmtree(workdir, ignore_errors=True)
        return result

    plain: list[tuple[float, list[float]]] = []
    traced: list[tuple[float, list[float]]] = []
    begin = time.perf_counter()
    while True:
        done = len(traced) >= MIN_PAIRS if trace else len(plain) >= MIN_ROUNDS
        if done and time.perf_counter() - begin >= seconds:
            break
        plain.append(job.run_round(f"r{len(plain)}"))
        if trace:
            job.tracer.install()
            traced.append(job.run_round(f"t{len(traced)}"))
            job.tracer.uninstall()

    op_times = {op.name: [times[k] for _, times in plain] for k, op in enumerate(job.ops)}
    result.update(
        attempted=job.attempted,
        failed=job.failed,
        problems=job.problems,
        rounds=[wall for wall, _ in plain],
        op_times=op_times,
        op_metrics={op.name: op.metric for op in job.ops},
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if trace:
        from tracing import layer_metrics, median_metrics

        tracer = job.tracer
        per_round = [
            layer_metrics(
                tracer.spans, tracer.records,
                lambda op, k=k: op.startswith(("warmup/", f"t{k}/")),
            )
            for k in range(len(traced))
        ]
        layers = median_metrics(per_round)
        layers["trace.overhead_s"] = best_job_time(traced) - best_job_time(plain)
        result.update(layers=layers, traced_rounds=[w for w, _ in traced])
        WORK.mkdir(exist_ok=True)
        tracer.dump(WORK / f"spans-{workload}-seed{seed}-{scale}.jsonl")
    from manifest import library_manifest

    result["libraries"] = library_manifest()
    shutil.rmtree(workdir, ignore_errors=True)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), setup_only=args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
