"""In-memory span tracer for the traced run.

``Tracer.install`` replaces each traced lemsim function with a wrapper in
every lemsim module that holds a reference to it (``lemsim.cli.diagonalize``,
``lemsim.sweep.diagonalize``, ``lemsim.spectrum.diagonalize`` ...), so calls
are seen wherever the caller looks the function up.  ``uninstall`` puts the
originals back.  The untraced run never imports this module.

A span is ``[name, start, end, parent, op]``; self time is a span's duration
minus the part of it covered by its children.  Counter hooks run as
``trace.hook`` spans so their cost lands in no layer's self time.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import sys
import time
from collections import defaultdict

import numpy as np


def _matrix_key(args, kwargs, result):
    h = np.ascontiguousarray(args[0])
    return {"key": hashlib.blake2b(h.data, digest_size=16).hexdigest(), "dim": h.shape[0]}


def _energies_key(args, kwargs, result):
    p = args[0]
    digest = hashlib.blake2b(p.couplings.tobytes() + p.bias.tobytes(), digest_size=16)
    return {"key": f"{p.n}:{digest.hexdigest()}"}


def _hamiltonian_bytes(args, kwargs, result):
    return {"bytes": 8 * result.size}


def _path_count(args, kwargs, result):
    return {"paths": result.path_count}


def _steps(args, kwargs, result):
    return {"steps": result.total_steps, "n": args[0].n, "trajectories": result.trajectory_count}


def _row_errors(args, kwargs, result):
    return {"row_errors": sum(1 for row in result if row.error)}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(args[0].encode("utf-8"))}


# (module, function, span name, counter hook)
TRACED = [
    ("cli", "main", "cli.main", None),
    ("config", "parse_config", "config.parse_config", None),
    ("config", "render_config", "config.render_config", None),
    ("cluster", "classical_energies", "cluster.classical_energies", _energies_key),
    ("cluster", "classical_energy", "cluster.classical_energy", None),
    ("cluster", "build_hamiltonian", "cluster.build_hamiltonian", _hamiltonian_bytes),
    ("spectrum", "degeneracy_tolerance", "spectrum.degeneracy_tolerance", None),
    ("spectrum", "find_local_minima", "spectrum.find_local_minima", None),
    ("spectrum", "diagonalize", "spectrum.diagonalize", _matrix_key),
    ("spectrum", "dress", "spectrum.dress", None),
    ("spectrum", "overlap_decay", "spectrum.overlap_decay", None),
    ("spectrum", "typical_level_spacing", "spectrum.typical_level_spacing", None),
    ("transition", "matrix_element", "transition.matrix_element", None),
    ("transition", "check_bound", "transition.check_bound", None),
    ("perturbation", "multiphoton_path_sum", "perturbation.multiphoton_path_sum", _path_count),
    ("perturbation", "scaling_exponent", "perturbation.scaling_exponent", None),
    ("dynamics", "evolve_superposition", "dynamics.evolve_superposition", _steps),
    ("sweep", "run_sweep", "sweep.run_sweep", _row_errors),
    ("sweep", "uniform_ferromagnet", "sweep.uniform_ferromagnet", None),
    ("csvout", "emit_eigensystem", "csvout.emit", None),
    ("csvout", "emit_landscape", "csvout.emit", None),
    ("csvout", "emit_overlap_decay", "csvout.emit", None),
    ("csvout", "emit_path_sums", "csvout.emit", None),
    ("csvout", "emit_rate_report", "csvout.emit", None),
    ("csvout", "emit_sweep_rows", "csvout.emit", None),
    ("csvout", "emit_trace", "csvout.emit", None),
    ("csvout", "write_output", "csvout.write_output", _text_bytes),
]

HOOK = "trace.hook"

# per-layer metrics: name -> unit; every traced run reports all of them
LAYER_UNITS = {
    "cluster.classical_energies.calls": "count",
    "cluster.classical_energies.self_s": "s",
    "cluster.classical_energies.useful_ratio": "ratio",
    "cluster.classical_energy.calls": "count",
    "cluster.classical_energy.self_s": "s",
    "spectrum.degeneracy_tolerance.calls": "count",
    "spectrum.degeneracy_tolerance.self_s": "s",
    "spectrum.find_local_minima.self_s": "s",
    "cluster.build_hamiltonian.self_s": "s",
    "cluster.build_hamiltonian.bytes": "B",
    "spectrum.diagonalize.calls": "count",
    "spectrum.diagonalize.self_s": "s",
    "spectrum.diagonalize.max_dim": "count",
    "spectrum.diagonalize.useful_ratio": "ratio",
    "spectrum.dress.self_s": "s",
    "spectrum.overlap_decay.self_s": "s",
    "spectrum.typical_level_spacing.self_s": "s",
    "transition.matrix_element.self_s": "s",
    "transition.check_bound.self_s": "s",
    "perturbation.multiphoton_path_sum.calls": "count",
    "perturbation.multiphoton_path_sum.self_s": "s",
    "perturbation.multiphoton_path_sum.paths": "count",
    "perturbation.scaling_exponent.self_s": "s",
    "dynamics.evolve_superposition.self_s": "s",
    "dynamics.steps": "count",
    "dynamics.step_us.n3": "us",
    "dynamics.step_us.n6": "us",
    "sweep.run_sweep.self_s": "s",
    "sweep.uniform_ferromagnet.self_s": "s",
    "sweep.row_errors": "count",
    "csvout.emit.self_s": "s",
    "csvout.write_output.self_s": "s",
    "csvout.bytes": "B",
    "config.parse_config.self_s": "s",
    "config.render_config.self_s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class Tracer:
    """Collects spans and counter records while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.records: list[tuple[int, dict]] = []  # (span index, hook output)
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        def traced(*args, **kwargs):
            spans = self.spans
            index = len(spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, time.perf_counter(), None, parent, self.op]
            spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                start = time.perf_counter()
                record = hook(args, kwargs, result)
                spans.append([HOOK, start, time.perf_counter(), parent, self.op])
                self.records.append((index, record))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items() if key == "lemsim" or key.startswith("lemsim.")]
        for module_name, fn_name, span_name, hook in TRACED:
            original = getattr(sys.modules[f"lemsim.{module_name}"], fn_name)
            wrapper = self._wrap(original, span_name, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus the union of its children."""
    children = defaultdict(list)
    for span in spans:
        if span[3] is not None:
            children[span[3]].append((span[1], span[2]))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, records, keep) -> dict[str, float]:
    """Per-layer metrics over the spans whose op id satisfies ``keep``.

    ``trace.overhead_s`` is filled in by the caller, who has the untraced
    timings.
    """
    selfs = self_times(spans)
    kept = [i for i, s in enumerate(spans) if keep(s[4]) and s[0] != HOOK]
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for i in kept:
        calls[spans[i][0]] += 1
        self_s[spans[i][0]] += selfs[i]
    hooks = defaultdict(list)
    for index, record in records:
        if keep(spans[index][4]):
            hooks[spans[index][0]].append((index, record))

    def ratio(name):
        keys = {r["key"] for _, r in hooks[name]}
        return len(keys) / len(hooks[name]) if hooks[name] else 1.0

    out = {}
    for metric in LAYER_UNITS:
        layer, _, field = metric.rpartition(".")
        if field == "calls":
            out[metric] = calls[layer]
        elif field == "self_s":
            out[metric] = self_s[layer]
        elif field == "useful_ratio":
            out[metric] = ratio(layer)
    out["cluster.build_hamiltonian.bytes"] = sum(r["bytes"] for _, r in hooks["cluster.build_hamiltonian"])
    out["spectrum.diagonalize.max_dim"] = max((r["dim"] for _, r in hooks["spectrum.diagonalize"]), default=0)
    out["perturbation.multiphoton_path_sum.paths"] = sum(
        r["paths"] for _, r in hooks["perturbation.multiphoton_path_sum"]
    )
    dyn = hooks["dynamics.evolve_superposition"]
    out["dynamics.steps"] = sum(r["steps"] for _, r in dyn)
    for n in (3, 6):
        # self time per step of the n-spin runs at 200 trajectories
        runs = [(selfs[i], r["steps"]) for i, r in dyn if r["n"] == n and r["trajectories"] == 200]
        steps = sum(s for _, s in runs)
        out[f"dynamics.step_us.n{n}"] = 1e6 * sum(t for t, _ in runs) / steps if steps else 0.0
    out["sweep.row_errors"] = sum(r["row_errors"] for _, r in hooks["sweep.run_sweep"])
    out["csvout.bytes"] = sum(r["bytes"] for _, r in hooks["csvout.write_output"])
    return out


def median_metrics(per_round: list[dict[str, float]]) -> dict[str, float]:
    """Median over rounds per metric; counts that agree stay exact integers."""
    out = {}
    for key in per_round[0]:
        values = [m[key] for m in per_round]
        out[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
