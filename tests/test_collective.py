"""Collective clusters: total-spin blocks and symmetric-sector dressed states."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest

import lemsim.collective
import lemsim.spectrum
from lemsim import (
    ClusterParams,
    StrongMixingError,
    SweepGrid,
    ValidationError,
    block_eigenvalues,
    build_hamiltonian,
    cluster_eigensystem,
    collective_form,
    dress,
    eigenvalues,
    overlap_decay,
    run_sweep,
    symmetric_dressed,
    uniform_couplings,
)
from lemsim.cli import main
from lemsim.sweep import uniform_ferromagnet

from conftest import count_calls
from oracles import dicke_chain, dicke_dressed, dicke_observables, kron_hamiltonian

EPS = np.finfo(float).eps
J, BIAS = -1.0, 0.1  # the sweep family's defaults


def collective(n, j, b, c):
    return ClusterParams(
        n=n, couplings=uniform_couplings(n, j), bias=np.full(n, b), tunneling=np.full(n, c)
    )


def family_a_typ(n):
    # every single-flip gap at the all-up LEM: n - 1 pairs turn anti-aligned, the bias term flips
    return 2 * (n - 1) * abs(J) - 2 * BIAS


# ------------------------------------------------------------------ oracle


def _mp_dressed(diagonal, off, site):
    """Chain eigenvector of largest amplitude on ``site`` from an 80-digit eigsy."""
    size = len(diagonal)
    h = mpmath.matrix(size, size)
    for k in range(size):
        h[k, k] = mpmath.mpf(diagonal[k])
    for k in range(size - 1):
        h[k, k + 1] = h[k + 1, k] = mpmath.mpf(off[k])
    _, vectors = mpmath.eigsy(h)
    column = max(range(size), key=lambda i: abs(vectors[site, i]))
    sign = 1 if vectors[site, column] > 0 else -1
    return [sign * vectors[k, column] for k in range(size)]


@pytest.mark.parametrize("n", [2, 5, 8, 11, 14])
@pytest.mark.parametrize("ratio", [0.0025, 0.05])
def test_dicke_oracle_matches_80_digit_eigsy(n, ratio):
    c = ratio * family_a_typ(n)
    diagonal, off = dicke_chain(n, J, BIAS, c)
    with mpmath.workdps(80):
        ground = _mp_dressed(diagonal, off, 0)
        lem = _mp_dressed(diagonal, off, n)
        exact = sum(c * ground[k] * lem[k] * (2 * k - n) for k in range(n + 1))
        exact += sum(
            c * mpmath.sqrt((k + 1) * (n - k)) * (ground[k] * lem[k + 1] + ground[k + 1] * lem[k])
            for k in range(n)
        )
        for site, want in ((0, ground), (n, lem)):
            _, got = dicke_dressed(diagonal, off, site)
            for k in range(n + 1):
                assert abs(got[k] / float(want[k]) - 1) <= 1e-13, (site, k)
        element, _, _ = dicke_observables(n, J, BIAS, c, c)
        assert abs(element / float(exact) - 1) <= 1e-13


def test_dicke_chain_is_the_symmetric_block_of_the_kron_hamiltonian():
    n, c = 4, 0.3
    diagonal, off = dicke_chain(n, J, BIAS, c)
    h = kron_hamiltonian(uniform_couplings(n, J), np.full(n, BIAS), np.full(n, c))
    ones = np.array([bin(x).count("1") for x in range(2**n)])
    basis = np.array([(ones == k) / math.sqrt(math.comb(n, k)) for k in range(n + 1)]).T
    chain = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
    assert np.allclose(basis.T @ h @ basis, chain, atol=1e-12)


# ----------------------------------------------------------- sweep routes


def test_sweep_rows_match_the_dicke_oracle():
    grid = SweepGrid(
        n_values=range(2, 15), ratio_values=(0.0025, 0.01, 0.05), channels=("overlaps", "rates")
    )
    rows = run_sweep(grid, master_seed=0)
    assert len(rows) == 39
    for row in rows:
        assert row.error == ""
        assert row.a_typ == pytest.approx(family_a_typ(row.n), rel=1e-15)
        c = row.ratio * row.a_typ
        element, (_, slope), _ = dicke_observables(row.n, J, BIAS, c, c)
        assert abs(row.matrix_element / element - 1) <= 1e-12, (row.n, row.ratio)
        assert abs(row.overlap_slope / slope - 1) <= 1e-12, (row.n, row.ratio)
    by_point = {(row.n, row.ratio): row.matrix_element for row in rows}
    # far below the dense floor of about 1e-19: a dense solve gets these wrong
    assert by_point[12, 0.0025] == pytest.approx(-1.1727e-24, rel=1e-4)
    assert by_point[14, 0.0025] == pytest.approx(-8.0304e-29, rel=1e-4)


def _cli_overlaps(tmp_path, n, c):
    cfg = tmp_path / f"n{n}.cfg"
    cfg.write_text(f"[cluster]\nn = {n}\nj = {J!r}\nbias = {BIAS!r}\ntunneling = {c!r}\n")
    out = tmp_path / f"n{n}.csv"
    status = main(["overlaps", "--config", str(cfg), "--out", str(out), "--quiet"])
    return status, out


def _decays(csv_text):
    """{anchor: (maxima by distance, slope)} from an ``overlaps`` CSV."""
    rows = [line.split(",") for line in csv_text.splitlines() if not line.startswith("#")]
    decays = {}
    for anchor, _, amplitude, slope in rows[1:]:
        maxima, _ = decays.setdefault(anchor, ([], float(slope)))
        maxima.append(float(amplitude))
    return decays


def test_cli_overlaps_match_the_dicke_oracle(tmp_path):
    for n in range(2, 15):
        for ratio in (0.0025, 0.01, 0.05):
            c = ratio * family_a_typ(n)
            status, out = _cli_overlaps(tmp_path, n, c)
            assert status == 0
            _, ground, lem = dicke_observables(n, J, BIAS, c, c)
            got = _decays(out.read_text())
            assert list(got) == ["0" * n, "1" * n]
            for (maxima, slope), (want_maxima, want_slope) in zip(got.values(), (ground, lem)):
                assert len(maxima) == n + 1
                for d, (value, want) in enumerate(zip(maxima, want_maxima)):
                    assert abs(value / want - 1) <= 1e-12, (n, ratio, d)
                assert abs(slope / want_slope - 1) <= 1e-12, (n, ratio)


def test_n14_cli_overlaps_fit_without_a_dense_budget(tmp_path, monkeypatch):
    # a dense n=14 eigensystem would need 4.3 GB; the run holds no N^2 array
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: 10**8)
    tracemalloc.start()
    try:
        status, _ = _cli_overlaps(tmp_path, 14, 0.01 * family_a_typ(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert peak < 0.01 * 8 * 4**14


@pytest.mark.parametrize("n", [4, 8, 12, 14])
def test_halving_r_scales_each_channel_up_to_r_squared(n):
    # halving r scales the x channel by 2^-n and the z channel, one order
    # higher in r, by 2^-(n+1), each up to a relative O(r^2) deviation; the
    # whole element mixes the two orders, so its own deviation is only O(r)
    ratios = (0.02, 0.01, 0.005, 0.0025)
    reports = [uniform_ferromagnet(n, r).rates() for r in ratios]
    for channel, power in (("x_channel", n), ("z_channel", n + 1)):
        sums = [math.fsum(getattr(report, channel)) for report in reports]
        deviations = [2**power * small / big - 1 for big, small in zip(sums, sums[1:])]
        for big, small in zip(deviations, deviations[1:]):
            assert 3.5 <= big / small <= 4.5, (channel, big, small)
    elements = [report.matrix_element for report in reports]
    deviations = [2**n * small / big - 1 for big, small in zip(elements, elements[1:])]
    for big, small in zip(deviations, deviations[1:]):
        assert 2.0 <= big / small <= 3.0, (big, small)


def test_unbiased_family_rows_print_no_nan():
    # b = 0 makes the polarized states degenerate; where a denominator of the
    # fraction vanishes, the chain's own eigenvector stands in
    grid = SweepGrid(
        n_values=(2, 3, 8), ratio_values=(0.01, 0.05), channels=("overlaps", "rates"), bias=0.0
    )
    for row in run_sweep(grid, master_seed=0):
        for value in (row.matrix_element, row.overlap_slope):
            assert value is None or math.isfinite(value), row


@pytest.mark.parametrize("n, ratio", [(3, 0.01), (5, 0.05), (6, 0.2)])
def test_sector_states_match_dense_states(n, ratio):
    problem = uniform_ferromagnet(n, ratio)
    eig = cluster_eigensystem(problem.params, (problem.ground_anchor, problem.lem_anchor))
    for anchor in (problem.ground_anchor, problem.lem_anchor):
        sector = symmetric_dressed(problem.params, anchor)
        dense = dress(eig, anchor)
        assert sector.anchor == anchor
        assert sector.amplitudes[anchor] > 0
        assert np.allclose(sector.amplitudes, dense.amplitudes, rtol=0, atol=1e-13)
        assert sector.energy == pytest.approx(dense.energy, abs=1e-13)
        assert sector.overlap_sq == pytest.approx(dense.overlap_sq, abs=1e-13)
        assert np.linalg.norm(sector.amplitudes) == pytest.approx(1.0, abs=1e-14)
        assert overlap_decay(sector).slope == pytest.approx(overlap_decay(dense).slope, rel=1e-6)
    assert problem.dressed_ground.energy < problem.dressed_lem.energy


def test_sector_strong_mixing_matches_dense():
    # at n=8, ratio 0.275 the LEM mixes strongly and the ground state does not
    problem = uniform_ferromagnet(8, 0.275)
    eig = cluster_eigensystem(problem.params, (problem.ground_anchor, problem.lem_anchor))
    with pytest.raises(StrongMixingError) as dense:
        dress(eig, problem.lem_anchor)
    with pytest.raises(StrongMixingError) as sector:
        symmetric_dressed(problem.params, problem.lem_anchor)
    assert str(sector.value) == str(dense.value)
    assert symmetric_dressed(problem.params, problem.ground_anchor).overlap_sq >= 0.5


def test_sector_refuses_what_it_cannot_hold():
    with pytest.raises(ValidationError, match="symmetric sector"):
        symmetric_dressed(collective(3, J, BIAS, 0.1), 0b011)
    uneven = ClusterParams(
        n=3,
        couplings=uniform_couplings(3, J),
        bias=np.array([0.1, 0.1, 0.2]),
        tunneling=np.full(3, 0.1),
    )
    with pytest.raises(ValidationError, match="symmetric sector"):
        symmetric_dressed(uneven, 0)


# ------------------------------------------------------------- the blocks


def test_collective_form():
    assert collective_form(collective(4, -1.5, 0.2, 0.03)) == (-1.5, 0.2, 0.03)
    one = ClusterParams(
        n=1, couplings=np.zeros((1, 1)), bias=np.array([0.3]), tunneling=np.array([0.4])
    )
    assert collective_form(one) == (0.0, 0.3, 0.4)
    for field in ("couplings", "bias", "tunneling"):
        p = collective(4, -1.0, 0.1, 0.05)
        values = getattr(p, field).copy()
        if field == "couplings":
            values[0, 1] = values[1, 0] = -1.0 + 1e-15
        else:
            values[2] += 1e-15
        nudged = ClusterParams(**{**vars(p), field: values})
        assert collective_form(nudged) is None, field


@pytest.mark.parametrize("n", range(1, 10))
def test_block_spectrum_matches_dense(n):
    rng = np.random.default_rng(100 + n)
    cases = [(J, BIAS, 0.05), (J, 0.0, 0.3), (J, 0.4, 0.0), (0.0, 0.0, 0.0)]
    cases += [tuple(rng.normal(size=3)) for _ in range(3)]
    for j, b, c in cases:
        p = collective(n, j, b, c)
        form = collective_form(p)
        assert form == (j if n > 1 else 0.0, b, c)
        dense = eigenvalues(build_hamiltonian(p))
        blocks = block_eigenvalues(n, *form)
        assert blocks.shape == (2**n,)
        norm = max(1.0, float(np.abs(dense).max()))
        assert np.max(np.abs(blocks - dense)) <= 100 * EPS * norm, (j, b, c)


def test_block_levels_repeat_by_multiplicity():
    # each total-spin block's levels come out as exact copies, C(n,k) - C(n,k-1) of them
    values = block_eigenvalues(6, J, 0.0, 0.2)
    levels, counts = np.unique(values, return_counts=True)
    assert counts.sum() == 64
    # S=3 block (7 levels), S=2 block (5 levels, 5 copies), S=1 (3 levels, 9), S=0 (1 level, 5)
    assert sorted(counts) == sorted([1] * 7 + [5] * 5 + [9] * 3 + [5])


# ------------------------------------------------------------ spectrum CLI


def _spectrum_csv(tmp_path, text, monkeypatch):
    calls = count_calls(monkeypatch, lemsim.collective, "cluster_eigenvalues")
    cfg = tmp_path / "c.cfg"
    cfg.write_text(text)
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--config", str(cfg), "--out", str(out), "--quiet"]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
    return np.array([float(r[1]) for r in rows[1:]]), calls


def test_spectrum_uses_blocks_for_collective_clusters(tmp_path, monkeypatch):
    text = "[cluster]\nn = 5\nj = -1.0\nbias = 0.1\ntunneling = 0.08\n"
    values, calls = _spectrum_csv(tmp_path, text, monkeypatch)
    assert calls == []
    p = collective(5, -1.0, 0.1, 0.08)
    assert np.array_equal(values, block_eigenvalues(5, -1.0, 0.1, 0.08))
    assert np.max(np.abs(values - eigenvalues(build_hamiltonian(p)))) <= 100 * EPS * 12.0


def test_nudging_one_bias_sends_spectrum_to_the_dense_solve(tmp_path, monkeypatch):
    text = "[cluster]\nn = 5\nj = -1.0\nbias = 0.1 0.1 0.1 0.1 0.1000000001\ntunneling = 0.08\n"
    values, calls = _spectrum_csv(tmp_path, text, monkeypatch)
    assert calls == [5]
    assert len(values) == 32
