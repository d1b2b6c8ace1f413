"""The benchmark harness's own tests.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

import checks
import run
import tracing
import worker
from workloads import WORKLOADS, ops_for

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_self_times_of_nested_spans():
    spans = [
        ["root", 0.0, 10.0, None, "a"],
        ["child", 1.0, 4.0, 0, "a"],
        ["grandchild", 2.0, 3.0, 1, "a"],
        ["child", 5.0, 9.0, 0, "a"],
        ["leaf", 6.0, 6.5, 3, "a"],
        ["leaf", 6.25, 7.0, 3, "a"],  # overlaps its sibling: the union counts once
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 3.0, 0.5, 0.75])


def test_layer_metrics_sum_self_time_per_name_and_filter_ops():
    spans = [
        ["cli.main", 0.0, 10.0, None, "t0/x"],
        ["spectrum.diagonalize", 1.0, 4.0, 0, "t0/x"],
        [tracing.HOOK, 4.0, 4.5, 0, "t0/x"],
        ["spectrum.diagonalize", 5.0, 6.0, 0, "t0/x"],
        ["cli.main", 20.0, 30.0, None, "t1/x"],
    ]
    records = [(1, {"key": "a", "dim": 8}), (3, {"key": "a", "dim": 16})]
    m = tracing.layer_metrics(spans, records, lambda op: op.startswith("t0/"))
    assert m["spectrum.diagonalize.calls"] == 2
    assert m["spectrum.diagonalize.self_s"] == pytest.approx(4.0)
    assert m["spectrum.diagonalize.max_dim"] == 16
    assert m["spectrum.diagonalize.useful_ratio"] == pytest.approx(0.5)
    assert m["cli.main.self_s"] == pytest.approx(10.0 - 4.0 - 0.5)
    assert set(m) | {"trace.overhead_s"} == set(tracing.LAYER_UNITS)


def test_metric_names_and_units():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    declared = BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]
    assert len({m["name"] for m in declared}) == len(declared)
    for m in declared:
        assert name.match(m["name"]) and unit.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == tracing.LAYER_UNITS
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_workload_passes_the_gate(workload, tmp_path):
    result = worker.run(workload, seed=5, seconds=0, trace=False, scale="toy", workdir=tmp_path)
    assert result["attempted"] >= worker.MIN_ROUNDS * len(ops_for(workload, 5, "toy"))
    assert result["failed"] == 0, result["problems"]


def test_traced_toy_run_reports_every_layer_metric(tmp_path):
    result = worker.run("dense-scan", seed=5, seconds=0, trace=True, scale="toy", workdir=tmp_path)
    assert result["failed"] == 0, result["problems"]
    assert set(result["layers"]) == set(tracing.LAYER_UNITS)
    assert result["layers"]["spectrum.diagonalize.calls"] > 0


def _toy_output(tmp_path, workload, name):
    import lemsim.cli

    op = next(op for op in ops_for(workload, 5, "toy") if op.name == name)
    cfg, out = tmp_path / "op.cfg", tmp_path / "op.csv"
    cfg.write_text(op.text(5))
    assert lemsim.cli.main([op.pipeline, "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    ref = checks.load_reference()[checks.reference_key(workload, "toy", op)]
    return op, out.read_text(), ref


def test_gate_rejects_a_changed_value_and_accepts_roundoff(tmp_path):
    op, text, ref = _toy_output(tmp_path, "dense-scan", "pathsum-n4-r0.01-b0.3")
    assert checks.check_op(op, text, 5, ref) == []
    amplitude = ref["rows"][-1][3]
    wrong = text.replace(amplitude, repr(float(amplitude) * (1 + 1e-6)))
    assert checks.check_op(op, wrong, 5, ref)
    assert checks.check_op(op, text, 6, ref)  # the seed echo must match

    op, text, ref = _toy_output(tmp_path, "dense-scan", "rates-n4")
    element = ref["rows"][0][0]
    nudged = float(element) + 1e-15  # roundoff-sized: below the dense floor
    assert checks.check_op(op, text.replace(element, repr(nudged)), 5, ref) != []  # rate_ratio no longer element^2
    assert checks._compare_cell("dense", repr(nudged), element, op.hnorm)
    assert not checks._compare_cell("dense", repr(float(element) * 1.01), element, op.hnorm)
