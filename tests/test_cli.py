"""Command-line surface: pipelines, exit statuses, output determinism."""

import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import lemsim.cli
import lemsim.spectrum
import lemsim.sweep
from lemsim import (
    DegeneracyError,
    cluster_eigensystem,
    dress,
    parse_config,
)
from lemsim.cli import main

import csv_digests
from conftest import count_calls, count_table_builds

FERRO3 = """
[cluster]
n = 3
j = -1.0
bias = 0.1
tunneling = 0.038

[noise]
z_noise = 0.038
x_noise = 0.038
kind = ou
tau = 2.6

[run]
seed = 7
"""

SWEEP = """
[sweep]
n_values = 2 3 4
ratios = 0.01
channels = rates

[run]
seed = 99
"""


@pytest.fixture
def ferro3_cfg(tmp_path):
    path = tmp_path / "ferro3.cfg"
    path.write_text(FERRO3)
    return path


@pytest.fixture
def sweep_cfg(tmp_path):
    path = tmp_path / "sweep.cfg"
    path.write_text(SWEEP)
    return path


def run_cli(*args):
    return main([str(a) for a in args])


def test_landscape_pipeline(ferro3_cfg, tmp_path, capsys):
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--config", ferro3_cfg, "--out", out) == 0
    text = out.read_text()
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    assert lines[0] == "configuration,energy,distance_to_global,is_global"
    assert lines[1].startswith("000,")
    assert lines[2].startswith("111,")
    assert ",3,false" in lines[2]
    summary = capsys.readouterr().err
    assert "global 000" in summary


def test_spectrum_pipeline(ferro3_cfg, tmp_path):
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--config", ferro3_cfg, "--out", out, "--quiet") == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "index,eigenvalue"
    assert len(lines) == 1 + 8
    values = [float(l.split(",")[1]) for l in lines[1:]]
    assert values == sorted(values)


def test_overlaps_pipeline(ferro3_cfg, tmp_path):
    out = tmp_path / "overlaps.csv"
    assert run_cli("overlaps", "--config", ferro3_cfg, "--out", out, "--quiet") == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    # two anchors, distances 0..3 each
    assert len(lines) == 1 + 2 * 4


def test_rates_pipeline(ferro3_cfg, tmp_path):
    out = tmp_path / "rates.csv"
    assert run_cli("rates", "--config", ferro3_cfg, "--out", out, "--quiet") == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    record = lines[1].split(",")
    assert header[:3] == ["matrix_element", "rate_ratio", "rate_bound"]
    ratio = float(record[header.index("rate_ratio")])
    bound = float(record[header.index("rate_bound")])
    assert 0 < ratio < bound * 100


def test_pathsum_pipeline(ferro3_cfg, tmp_path):
    out = tmp_path / "pathsum.csv"
    assert run_cli("pathsum", "--config", ferro3_cfg, "--out", out, "--quiet") == 0
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 1 + 3  # orders 1..3
    assert lines[1].split(",")[0] == "1"


def test_dynamics_pipeline_and_determinism(tmp_path):
    cfg = tmp_path / "dyn.cfg"
    cfg.write_text(
        FERRO3
        + """
[dynamics]
time_step = auto
total_time = 10.0
trajectories = 8
"""
    )
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("dynamics", "--config", cfg, "--out", a, "--quiet") == 0
    assert run_cli("dynamics", "--config", cfg, "--out", b, "--quiet") == 0
    assert a.read_bytes() == b.read_bytes()
    lines = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    header, first = lines[0].split(","), lines[1].split(",")
    assert header[:3] == ["time", "coherence", "ensemble_coherence"]
    assert float(first[1]) == pytest.approx(0.5, abs=1e-12)
    # in a run this short only the dephasing-sensitive ensemble coherence
    # falls into FIT_WINDOW: its rate is fitted, the other is an upper limit
    assert header[-1] == "ensemble_rate_is_upper_limit"
    assert (first[header.index("rate_is_upper_limit")], first[-1]) == ("true", "false")


def test_sweep_pipeline_byte_identical(sweep_cfg, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("sweep", "--config", sweep_cfg, "--out", a, "--quiet") == 0
    assert run_cli("sweep", "--config", sweep_cfg, "--out", b, "--quiet") == 0
    assert a.read_bytes() == b.read_bytes()
    lines = [l for l in a.read_text().splitlines() if not l.startswith("#")]
    assert lines[0].startswith("n,ratio,a_typ")
    assert len(lines) == 1 + 3


def test_sweep_header_and_subcommand_list_are_unchanged(sweep_cfg, tmp_path, capsys):
    # both lists are derived: the header from SweepRow's fields, the
    # subcommands from the handler table
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", sweep_cfg, "--out", out, "--quiet") == 0
    header = next(l for l in out.read_text().splitlines() if not l.startswith("#"))
    assert header == (
        "n,ratio,a_typ,matrix_element,rate_ratio,rate_bound,bound_margin,"
        "overlap_slope,pathsum_slope,fitted_dynamics_rate,seed,error"
    )
    assert main(["--help"]) == 0
    assert "spectrum|landscape|overlaps|rates|pathsum|dynamics|sweep" in capsys.readouterr().out


def test_seed_override_changes_metadata(sweep_cfg, tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli("sweep", "--config", sweep_cfg, "--out", a, "--quiet") == 0
    assert run_cli("sweep", "--config", sweep_cfg, "--out", b, "--quiet", "--seed", 1) == 0
    assert a.read_bytes() != b.read_bytes()
    assert "# seed = 1" in b.read_text()


def test_config_echo_in_metadata(sweep_cfg, tmp_path):
    out = tmp_path / "rows.csv"
    assert run_cli("sweep", "--config", sweep_cfg, "--out", out, "--quiet") == 0
    text = out.read_text()
    assert "# config-begin" in text
    assert "# n_values = 2 3 4" in text
    assert "# lemsim" in text


def test_unknown_subcommand_exits_one(capsys):
    assert run_cli("frobnicate", "--config", "x.cfg") == 1


def test_missing_subcommand_exits_one(capsys):
    assert main([]) == 1


def test_missing_config_file_exits_one(tmp_path, capsys):
    assert run_cli("landscape", "--config", tmp_path / "nope.cfg") == 1


def test_config_error_exit_status(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[cluster]\nn = 3\nbogus = 1\n")
    assert run_cli("landscape", "--config", bad) == 1
    assert "bogus" in capsys.readouterr().err


def test_capacity_error_exit_status(tmp_path, capsys):
    big = tmp_path / "big.cfg"
    big.write_text("[cluster]\nn = 15\nj = -1.0\nbias = 0.1\n")
    assert run_cli("landscape", "--config", big) == 3


def test_oversize_sweep_size_exits_3(tmp_path, capsys):
    cfg = tmp_path / "big_sweep.cfg"
    cfg.write_text(SWEEP.replace("n_values = 2 3 4", "n_values = 3 15"))
    assert run_cli("sweep", "--config", cfg) == 3
    assert "cluster size 15 exceeds the limit of 14 spins" in capsys.readouterr().err
    cfg.write_text(SWEEP.replace("n_values = 2 3 4", "n_values = 0 3"))
    assert run_cli("sweep", "--config", cfg) == 1


def test_oversize_cluster_fails_at_parse_time(tmp_path, capsys):
    big = tmp_path / "huge.cfg"
    big.write_text(f"[cluster]\nn = {2**64 - 1}\nj = -1.0\nbias = 0.1\n")
    assert run_cli("landscape", "--config", big) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error [landscape]: line 2: cluster.n")


def test_oversize_cluster_allocates_no_vectors(tmp_path, capsys):
    # refused before bias, tunneling and both noise vectors are broadcast to length n
    big = tmp_path / "big.cfg"
    big.write_text(f"[cluster]\nn = {10**6}\nj = -1.0\nbias = 0.1\n")
    tracemalloc.start()
    try:
        status = run_cli("spectrum", "--config", big)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 3
    assert peak < 10**6


@pytest.mark.parametrize("command", ["landscape", "spectrum"])
def test_energy_overflow_exit_status(tmp_path, capsys, command):
    cfg = tmp_path / "huge_j.cfg"
    cfg.write_text("[cluster]\nn = 3\nj = 1e308\nbias = 0.1\ntunneling = 0.01\n")
    assert run_cli(command, "--config", cfg) == 1
    assert capsys.readouterr().err.startswith(f"error [{command}]: sum of |couplings|")
    cfg.write_text("[cluster]\nn = 3\nj = 1e300\nbias = 0.1\ntunneling = 0.01\n")
    out = tmp_path / "out.csv"
    assert run_cli(command, "--config", cfg, "--out", out, "--quiet") == 0
    assert "inf" not in out.read_text()


@pytest.mark.parametrize("command", ["overlaps", "rates", "pathsum", "dynamics"])
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("seed = 7", "seed = 7\n[dynamics]\nanchors = 0000 1111",
         "dynamics.anchors needs bitstrings of cluster.n = 3 spins, got '0000 1111'"),
        ("seed = 7", "seed = 7\n[dynamics]\nanchors = 00 11",
         "dynamics.anchors needs bitstrings of cluster.n = 3 spins, got '00 11'"),
        ("z_noise = 0.038", "z_noise = -1", "noise.z_noise amplitudes must be non-negative"),
        ("x_noise = 0.038", "x_noise = 0.038 -0.038 0.038",
         "noise.x_noise amplitudes must be non-negative"),
    ],
)
def test_bad_anchors_and_noise_fail_at_parse_time(tmp_path, capsys, command, old, new, message):
    # every pipeline refuses the config the same way, before any cluster is built
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(FERRO3.replace(old, new))
    out = tmp_path / "out.csv"
    assert run_cli(command, "--config", cfg, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [{command}]: line ") and message in err
    assert not out.exists()


def test_partial_sweep_section_is_echoed(ferro3_cfg, tmp_path):
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(ferro3_cfg.read_text() + "\n[sweep]\nchannels = overlaps\nbias = 0.3\n")
    out = tmp_path / "landscape.csv"
    assert run_cli("landscape", "--config", cfg, "--out", out, "--quiet") == 0
    assert "# [sweep]\n# channels = overlaps\n# bias = 0.3\n" in out.read_text()


def _collective(n, bias="0.1", extra=""):
    # the sweep family at ratio 0.01: tunneling is 0.01 * A_typ at the all-up LEM
    amp = 0.01 * (2 * (n - 1) - 0.2)
    return f"[cluster]\nn = {n}\nj = -1.0\nbias = {bias}\ntunneling = {amp!r}\n{extra}"


@pytest.mark.parametrize("n", [2, 10])
def test_collective_overlaps_solve_no_eigensystem(tmp_path, monkeypatch, n):
    # both polarized anchors are dressed in the symmetric sector; one bias off
    # by 1e-15 makes the cluster non-collective and the solve dense
    calls = count_calls(monkeypatch, lemsim.sweep, "cluster_eigensystem")
    cfg = tmp_path / "c.cfg"
    nudged = " ".join(["0.1"] * (n - 1) + [repr(0.1 + 1e-15)])
    for bias, expected in (("0.1", []), (nudged, [n])):
        cfg.write_text(_collective(n, bias))
        calls.clear()
        assert run_cli("overlaps", "--config", cfg, "--out", tmp_path / "o.csv", "--quiet") == 0
        assert calls == expected


@pytest.mark.parametrize("command", ["overlaps", "rates"])
def test_collective_unpolarized_anchors_stay_dense_and_refuse_a_repeated_level(
    tmp_path, monkeypatch, capsys, command
):
    # 011 dresses onto an S=1/2 level that repeats at 1.10697663; the other
    # vector of that plane also overlaps 011, so no vector is its own
    calls = count_calls(monkeypatch, lemsim.sweep, "cluster_eigensystem")
    text = _collective(3, extra="[noise]\nx_noise = 0.038\n[dynamics]\nanchors = 000 011\n")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "o.csv"
    assert run_cli(command, "--config", cfg, "--out", out, "--quiet") == 2
    assert calls == [3]
    assert not out.exists()
    eig = cluster_eigensystem(parse_config(text).cluster_params(), (0b000, 0b110))
    dress(eig, 0b000)
    with pytest.raises(DegeneracyError) as info:
        dress(eig, 0b110)
    expected = r"anchor 011 dresses onto a level at 1\.10697663 of multiplicity 2 within tol "
    assert re.match(expected, str(info.value))
    assert capsys.readouterr().err == f"error [{command}]: {info.value}\n"


@pytest.mark.parametrize(
    "n, expected, route", [(3, [3], "dense"), (4, [4], "dense"), (5, [], "sector")]
)
def test_collective_rates_are_held_dense_up_to_16_rows(
    tmp_path, monkeypatch, capsys, n, expected, route
):
    # the hold in cli._cmd_rates: perfbench/test_harness.py::
    # test_gate_rejects_a_changed_value_and_accepts_roundoff finds the toy
    # rates-n4 element (16 rows) by its dense text, which the sector's digits
    # would miss; larger collective clusters take the sector
    calls = count_calls(monkeypatch, lemsim.sweep, "cluster_eigensystem")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(_collective(n, extra="[noise]\nz_noise = 0.038\nx_noise = 0.038\n"))
    assert run_cli("rates", "--config", cfg, "--out", tmp_path / "r.csv") == 0
    assert calls == expected
    assert capsys.readouterr().err.endswith(f" route={route}\n")


def test_collective_dynamics_solve_no_eigensystem(tmp_path, monkeypatch):
    # FERRO3's polarized anchors are dressed in the symmetric sector; one bias
    # off by 1e-15 makes the cluster non-collective and the dressing dense
    calls = count_calls(monkeypatch, lemsim.sweep, "cluster_eigensystem")
    cfg = tmp_path / "dyn.cfg"
    dyn = "\n[dynamics]\ntotal_time = 10.0\ntrajectories = 4\n"
    nudged = FERRO3.replace("bias = 0.1", f"bias = 0.1 0.1 {0.1 + 1e-15!r}")
    for text, expected in ((FERRO3, []), (nudged, [3])):
        cfg.write_text(text + dyn)
        calls.clear()
        assert run_cli("dynamics", "--config", cfg, "--out", tmp_path / "d.csv", "--quiet") == 0
        assert calls == expected


def test_collective_dynamics_take_the_block_spectrum_whatever_the_anchors(
    tmp_path, monkeypatch, capsys
):
    # unpolarized anchors at zero tunneling dress densely, each its own
    # eigenvector; the stability check and centring shift still read the
    # total-spin blocks, so no dense values-only solve runs
    def refuse(*args, **kwargs):
        raise AssertionError("dense values-only solve")

    for original in (lemsim.spectrum.eigenvalues, lemsim.spectrum.cluster_eigenvalues):
        for name, module in list(sys.modules.items()):
            if name == "lemsim" or name.startswith("lemsim."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, refuse)
    cfg = tmp_path / "dyn.cfg"
    dyn = "\n[dynamics]\nanchors = 000 011\ntime_step = 0.005\ntotal_time = 10.0\ntrajectories = 4\n"
    cfg.write_text(FERRO3.replace("tunneling = 0.038", "tunneling = 0.0") + dyn)
    assert run_cli("dynamics", "--config", cfg, "--out", tmp_path / "d.csv") == 0
    assert capsys.readouterr().err.endswith(" route=dense\n")


def test_oversize_dynamics_is_refused_before_any_solve(tmp_path, capsys, monkeypatch):
    calls = count_calls(monkeypatch, lemsim.sweep, "cluster_eigensystem")
    nudged = " ".join(["0.1"] * 9 + [repr(0.1 + 1e-15)])
    cfg = tmp_path / "ferro10.cfg"
    cfg.write_text(_collective(10, nudged))
    assert run_cli("dynamics", "--config", cfg) == 3
    assert "trajectory evolution supports up to 8 spins, got n=10" in capsys.readouterr().err
    assert calls == []


def test_oversize_trajectory_count_exits_3_before_any_generator(tmp_path, capsys, monkeypatch):
    def no_generators(*args):
        raise AssertionError("a Generator was made")

    monkeypatch.setattr(np.random, "SeedSequence", no_generators)
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: 2**33)
    cfg = tmp_path / "many.cfg"
    cfg.write_text(FERRO3 + "\n[dynamics]\ntrajectories = 100000000000\n")
    assert run_cli("dynamics", "--config", cfg) == 3
    assert re.fullmatch(
        r"error \[dynamics\]: a run of 100000000000 trajectories of a 3-spin cluster needs \d{15} bytes, "
        r"8589934592 bytes of memory available\n",
        capsys.readouterr().err,
    )


def test_infinite_total_time_exits_1_with_a_message(tmp_path, capsys):
    cfg = tmp_path / "forever.cfg"
    cfg.write_text(FERRO3 + "\n[dynamics]\ntotal_time = inf\n")
    assert run_cli("dynamics", "--config", cfg) == 1
    assert re.fullmatch(
        r"error \[dynamics\]: line \d+: dynamics.total_time must be finite\n",
        capsys.readouterr().err,
    )


def test_dynamics_summary_reports_the_largest_norm_drift(tmp_path, capsys):
    cfg = tmp_path / "dyn.cfg"
    cfg.write_text(FERRO3 + "\n[dynamics]\ntotal_time = 2.0\ntrajectories = 4\n")
    out = tmp_path / "out.csv"
    assert run_cli("dynamics", "--config", cfg, "--out", out) == 0
    summary = capsys.readouterr().err
    match = re.search(r" max_drift=(\S+) route=sector\n$", summary)
    assert match and 0 <= float(match.group(1)) < 1e-12
    assert "drift" not in out.read_text()


def test_memory_preflight_exit_status(tmp_path, capsys, monkeypatch):
    # the solve is refused before H is assembled: nothing near one n=12 matrix is
    # allocated; one bias an ulp off keeps the cluster off the symmetric sector
    nudged = " ".join(["0.1"] * 11 + [repr(math.nextafter(0.1, 1.0))])
    cfg = tmp_path / "ferro12.cfg"
    cfg.write_text(f"[cluster]\nn = 12\nj = -1.0\nbias = {nudged}\ntunneling = 0.01\n")
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: 10**8)
    tracemalloc.start()
    try:
        status = run_cli("rates", "--config", cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 3
    assert peak < 0.01 * 8 * 4096**2
    err = capsys.readouterr().err
    assert "eigensystem of a 12-spin cluster needs" in err
    assert "100000000 bytes of memory available" in err


@pytest.mark.parametrize(
    "command, anchors",
    [pytest.param(c, "", id=c) for c in ("landscape", "rates", "overlaps", "pathsum", "dynamics")]
    # explicit anchors: no landscape runs, and the path sums' tolerances build the table
    + [pytest.param("pathsum", "anchors = 000 111\n", id="pathsum-anchored")],
)
def test_each_command_builds_the_energy_table_once(tmp_path, monkeypatch, command, anchors):
    builds = count_table_builds(monkeypatch)
    cfg = tmp_path / "short.cfg"
    cfg.write_text(FERRO3 + "\n[dynamics]\ntotal_time = 10.0\ntrajectories = 4\n" + anchors)
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "out.csv", "--quiet") == 0
    assert builds == [3]


def test_noise_free_dynamics_needs_no_a_typ(tmp_path, capsys):
    # spin 0 has no bias, coupling or tunneling, so its single-flip gap is zero
    # and A_typ is undefined; with a time step given and no noise nothing reads
    # it, not even the OU correlation time, which only noise needs
    text = (
        "[cluster]\nn = 2\nj_upper = 0.0\nbias = 0.0 0.4\ntunneling = 0.0 0.01\n"
        "[dynamics]\nanchors = 00 11\ntime_step = 0.01\ntotal_time = 1.0\ntrajectories = 2\n"
    )
    cfg = tmp_path / "quiet.cfg"
    cfg.write_text(text)
    assert run_cli("dynamics", "--config", cfg, "--out", tmp_path / "out.csv") == 0
    assert "trajectories" in capsys.readouterr().err
    cfg.write_text(text + "[noise]\nz_noise = 0.01\nx_noise = 0.0\nkind = ou\n")
    assert run_cli("dynamics", "--config", cfg, "--out", tmp_path / "out.csv") == 2
    assert "single-flip gap on spin 0 at anchor 11 is degenerate" in capsys.readouterr().err


def test_auto_tau_follows_the_a_typ_override(tmp_path):
    # tau = auto is 10 / a_typ, the override included: a_typ = 0.5 runs as tau = 20
    dyn = "\n[dynamics]\ntime_step = 0.002\ntotal_time = 5.0\ntrajectories = 8\n"
    override = FERRO3.replace("tunneling = 0.038", "tunneling = 0.038\na_typ = 0.5")
    texts = {
        "auto": override.replace("tau = 2.6", "tau = auto"),
        "tau20": FERRO3.replace("tau = 2.6", "tau = 20.0"),
    }
    rows = {}
    for name, text in texts.items():
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text + dyn)
        out = tmp_path / f"{name}.csv"
        assert run_cli("dynamics", "--config", cfg, "--out", out, "--quiet") == 0
        rows[name] = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert rows["auto"] == rows["tau20"]


def test_a_typ_override_replaces_a_degenerate_spacing(tmp_path, capsys):
    # the LEM 11 has a zero single-flip gap on spin 0, which carries no tunneling
    text = """
[cluster]
n = 2
j = -0.5
bias = 0.5 0.1
tunneling = 0.0 0.01
a_typ = 0.4

[noise]
z_noise = 0.01
x_noise = 0.01

[dynamics]
time_step = 0.01
total_time = 5.0
trajectories = 4
anchors = 00 11
"""
    cfg = tmp_path / "degen.cfg"
    for command in ("rates", "dynamics"):
        cfg.write_text(text)
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "out.csv", "--quiet") == 0
        cfg.write_text(text.replace("a_typ = 0.4\n", ""))
        assert run_cli(command, "--config", cfg, "--out", tmp_path / "out.csv", "--quiet") == 2
        assert "single-flip gap on spin 0" in capsys.readouterr().err


def test_dynamics_with_time_step_and_tau_never_reads_a_typ(tmp_path):
    # the LEM 11 has a zero single-flip gap on spin 0; A_typ sets neither dt nor tau
    cfg = tmp_path / "degen.cfg"
    cfg.write_text(
        """
[cluster]
n = 2
j_upper = 0.0
bias = 0.0 0.4
tunneling = 0.0 0.01

[noise]
z_noise = 0.01
x_noise = 0.01
tau = 2.0

[dynamics]
time_step = 0.01
total_time = 2.0
trajectories = 4
anchors = 00 11
"""
    )
    assert run_cli("dynamics", "--config", cfg, "--out", tmp_path / "out.csv", "--quiet") == 0


@pytest.mark.parametrize(
    "command, text, route",
    [
        ("rates", FERRO3, "dense"),  # CLI rates holds collective clusters of n <= 4 dense
        ("overlaps", FERRO3, "sector"),
        ("dynamics", FERRO3 + "\n[dynamics]\ntotal_time = 2.0\ntrajectories = 4\n", "sector"),
        (
            "dynamics",
            FERRO3.replace("bias = 0.1", "bias = 0.1 0.1 0.1000001")
            + "\n[dynamics]\ntotal_time = 2.0\ntrajectories = 4\n",
            "dense",
        ),
        ("rates", _collective(9, extra="[noise]\nz_noise = 0.01\nx_noise = 0.01\n"), "sector"),
        (
            "rates",
            _collective(
                9, " ".join(["0.1"] * 8 + [repr(0.1 + 1e-15)]),
                "[noise]\nz_noise = 0.01\nx_noise = 0.01\n",
            ),
            "dense",
        ),
    ],
)
def test_summaries_name_the_route(tmp_path, capsys, command, text, route):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    assert run_cli(command, "--config", cfg, "--out", tmp_path / "out.csv") == 0
    summary = capsys.readouterr().err.splitlines()
    assert len(summary) == 1 and summary[0].endswith(f" route={route}")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_override_is_range_checked(ferro3_cfg, tmp_path, capsys, seed):
    out = tmp_path / "spec.csv"
    assert run_cli("spectrum", "--config", ferro3_cfg, "--out", out, "--seed", seed) == 1
    assert "--seed must fit in 64 unsigned bits" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["overlaps", "rates", "pathsum", "dynamics"])
def test_missing_local_minimum_exit_status(tmp_path, capsys, command):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("[cluster]\nn = 1\nbias = 0.5\n")
    assert run_cli(command, "--config", cfg) == 1
    assert "landscape has no local minimum" in capsys.readouterr().err


def test_numerical_error_exit_status(tmp_path, capsys):
    # degenerate single-flip gap makes the typical spacing undefined
    cfg = tmp_path / "degen.cfg"
    cfg.write_text(
        """
[cluster]
n = 2
j_upper = 0.0
bias = 0.0 0.4
tunneling = 0.01

[dynamics]
anchors = 00 11
"""
    )
    assert run_cli("rates", "--config", cfg) == 2


def test_norm_drift_exit_status(tmp_path, capsys):
    # strong white tunneling noise trips the per-step norm-drift guard
    cfg = tmp_path / "drift.cfg"
    cfg.write_text(
        """
[cluster]
n = 1
j = 0.0
bias = 0.5
tunneling = 0.0

[noise]
z_noise = 0.0
x_noise = 5.0
kind = white

[dynamics]
time_step = 0.01
total_time = 1.0
trajectories = 4
anchors = 0 1

[run]
seed = 1
"""
    )
    assert run_cli("dynamics", "--config", cfg) == 2
    assert "norm drift" in capsys.readouterr().err


def test_help_exits_zero():
    assert main(["--help"]) == 0


def test_parser_is_reused_without_carrying_state(tmp_path, capsys):
    # one parser serves every call in a process: an exit, an error or an
    # override of one call must not reach the next, so each CSV equals the
    # one a fresh process writes
    cfg = tmp_path / "ferro3.cfg"
    cfg.write_text(FERRO3.replace("seed = 7", "seed = 3"))
    assert main(["--version"]) == 0
    assert main(["--no-such-flag"]) == 1
    assert main([]) == 1
    src = os.path.join(csv_digests.ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    texts = []
    for name, extra in (("seeded", ["--seed", "7"]), ("plain", [])):
        here, fresh = tmp_path / f"{name}.csv", tmp_path / f"{name}-fresh.csv"
        assert run_cli("rates", "--config", cfg, "--out", here, "--quiet", *extra) == 0
        args = ["rates", "--config", str(cfg), "--out", str(fresh), "--quiet", *extra]
        subprocess.run([sys.executable, "-m", "lemsim", *args], env=env, check=True)
        texts.append(here.read_text())
        assert texts[-1] == fresh.read_text()
    assert "# seed = 7\n" in texts[0] and "# seed = 3\n" in texts[1]
    assert lemsim.cli._build_parser.cache_info().currsize == 1


def _recorded_digests():
    with open(os.path.join(os.path.dirname(__file__), "csv_digests.txt"), encoding="utf-8") as fh:
        return fh.read().splitlines()


def _thread_independent(lines):
    return [line for line in lines if line.split()[0] not in csv_digests.THREAD_SENSITIVE]


def test_cli_outputs_match_the_recorded_digests(capsys):
    # a change that moves an output re-records the file and names the moved
    # lines; in this process BLAS runs on however many threads it started
    # with, so only the lines that hold on any thread count are compared
    csv_digests.main()
    got = capsys.readouterr().out.splitlines()
    assert _thread_independent(got) == _thread_independent(_recorded_digests())


def test_cli_outputs_match_the_recorded_digests_on_one_blas_thread():
    # every line, in a fresh process so that BLAS starts on the one thread
    # the digests were recorded on
    src = os.path.join(csv_digests.ROOT, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in csv_digests.THREAD_VARS})
    run = subprocess.run([sys.executable, csv_digests.__file__], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == _recorded_digests()
