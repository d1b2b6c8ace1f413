"""Collective clusters: total-spin blocks and symmetric-sector dressed states."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lemsim.cluster
import lemsim.collective
import lemsim.spectrum
import lemsim.sweep
from lemsim import (
    ClusterParams,
    ClusterProblem,
    CouplingSpec,
    DegeneracyError,
    NumericalError,
    StrongMixingError,
    UnderflowError,
    ValidationError,
    block_eigenvalues,
    build_hamiltonian,
    cluster_eigensystem,
    dress,
    eigenvalues,
    find_local_minima,
    overlap_decay,
    run_sweep,
    typical_level_spacing,
    uniform_couplings,
)
from lemsim.cli import main
from lemsim.collective import symmetric_chain
from lemsim.spectrum import DressedState
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
    rows = run_sweep(range(2, 15), (0.0025, 0.01, 0.05), ("overlaps", "rates"), master_seed=0)
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


def _cli(tmp_path, command, n, c):
    # both noise channels at the tunneling amplitude, as in the benchmark's ferromagnets
    cfg = tmp_path / f"n{n}.cfg"
    cfg.write_text(
        f"[cluster]\nn = {n}\nj = {J!r}\nbias = {BIAS!r}\ntunneling = {c!r}\n"
        f"[noise]\nz_noise = {c!r}\nx_noise = {c!r}\n"
    )
    out = tmp_path / f"n{n}.csv"
    status = main([command, "--config", str(cfg), "--out", str(out), "--quiet"])
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
            status, out = _cli(tmp_path, "overlaps", n, c)
            assert status == 0
            _, ground, lem = dicke_observables(n, J, BIAS, c, c)
            got = _decays(out.read_text())
            assert list(got) == ["0" * n, "1" * n]
            for (maxima, slope), (want_maxima, want_slope) in zip(got.values(), (ground, lem)):
                assert len(maxima) == n + 1
                for d, (value, want) in enumerate(zip(maxima, want_maxima)):
                    assert abs(value / want - 1) <= 1e-12, (n, ratio, d)
                assert abs(slope / want_slope - 1) <= 1e-12, (n, ratio)


@pytest.mark.parametrize("n", [9, 10, 11])
def test_cli_rates_match_the_dicke_oracle(tmp_path, n):
    # the benchmark's rates ferromagnets (r = 0.01); their dense elements were
    # 6.7e-6, 2.4e-4 and 7.0e-3 off
    c = 0.01 * family_a_typ(n)
    status, out = _cli(tmp_path, "rates", n, c)
    assert status == 0
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")]
    element = float(rows[1][rows[0].index("matrix_element")])
    want, _, _ = dicke_observables(n, J, BIAS, c, c)
    assert abs(element / want - 1) <= 1e-12


@pytest.mark.parametrize("command", ["overlaps", "rates"])
def test_n14_cli_runs_fit_without_a_dense_budget(tmp_path, monkeypatch, command):
    # a dense n=14 solve would need 2.1 GB for H alone; the run holds no N^2 array
    calls = count_calls(monkeypatch, lemsim.sweep, "cluster_eigensystem")
    monkeypatch.setattr(lemsim.cluster, "_available_memory", lambda: 10**8)
    tracemalloc.start()
    try:
        status, _ = _cli(tmp_path, command, 14, 0.01 * family_a_typ(14))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert status == 0
    assert calls == []
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
    for row in run_sweep((2, 3, 8), (0.01, 0.05), ("overlaps", "rates"), bias=0.0, master_seed=0):
        for value in (row.matrix_element, row.overlap_slope):
            assert value is None or math.isfinite(value), row


@pytest.mark.parametrize("n, ratio", [(3, 0.01), (5, 0.05), (6, 0.2)])
def test_sector_states_match_dense_states(n, ratio):
    problem = uniform_ferromagnet(n, ratio)
    eig = cluster_eigensystem(problem.params, (problem.ground_anchor, problem.lem_anchor))
    for anchor in (problem.ground_anchor, problem.lem_anchor):
        sector = symmetric_chain(problem.params).dressed(anchor)
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
        symmetric_chain(problem.params).dressed(problem.lem_anchor)
    assert str(sector.value) == str(dense.value)
    assert symmetric_chain(problem.params).dressed(problem.ground_anchor).overlap_sq >= 0.5


@pytest.mark.parametrize("n", [100, 1023])
def test_site_amplitudes_divide_by_binomials_as_doubles(n):
    # the uniform superposition: c_k = sqrt(C(n, k) / 2^n) puts 2^(-n/2) on
    # every configuration, though C(n, n/2) exceeds 2^64 from n = 68
    chain = np.sqrt([math.comb(n, k) / 2**n for k in range(n + 1)])
    state = DressedState(0, float(chain[0] ** 2), 0.0, n, chain)
    assert np.allclose(state.site_amplitudes, 2 ** (-n / 2), rtol=1e-13, atol=0)
    assert overlap_decay(state).slope == pytest.approx(0.0, abs=1e-12)
    # a normal c_k at k = n/2 that leaves the double range once divided by sqrt(C(n, k))
    chain = np.zeros(n + 1)
    chain[0], chain[n // 2] = 1.0, np.finfo(float).tiny * math.sqrt(math.comb(n, n // 2)) / 4
    with pytest.raises(UnderflowError, match="an amplitude on one configuration underflows"):
        DressedState(0, 1.0, 0.0, n, chain).site_amplitudes


def test_sector_refuses_what_it_cannot_hold():
    with pytest.raises(ValidationError, match="symmetric sector"):
        symmetric_chain(collective(3, J, BIAS, 0.1)).dressed(0b011)
    uneven = ClusterParams(
        n=3,
        couplings=uniform_couplings(3, J),
        bias=np.array([0.1, 0.1, 0.2]),
        tunneling=np.full(3, 0.1),
    )
    with pytest.raises(ValidationError, match="symmetric sector"):
        symmetric_chain(uneven).dressed(0)


# ------------------------------------------------ the chain against 2^n sums


@st.composite
def _collective_problems(draw):
    """A collective cluster of 1..8 spins (j of either sign, b possibly 0,
    c > 0) with per-spin noise amplitudes, anchored on its polarized pair."""
    n = draw(st.integers(1, 8))
    j = draw(st.floats(-2.0, 2.0))
    b = draw(st.one_of(st.just(0.0), st.floats(-1.0, 1.0)))
    c = draw(st.floats(1e-3, 0.3))
    f = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    g = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
    coupling = CouplingSpec(z_noise=f, x_noise=g)
    return ClusterProblem(collective(n, j, b, c), coupling, 0, 2**n - 1, 1.0)


def _within(got, terms):
    # 1e-12 relative, or the rounding of the 2^n sum where its terms cancel;
    # a product that underflows is off by up to half the least subnormal, so
    # each term, formed by two products, may be off by one such ulp
    want = math.fsum(terms)
    slack = max(1e-12 * abs(want), 64 * EPS * math.fsum(abs(t) for t in terms))
    return abs(got - want) <= slack + (len(terms) + 1) * math.ulp(0.0)


@settings(max_examples=300, deadline=None)
@given(_collective_problems())
# an element that cancels to about 1e-160 underflows as a rate ratio, while
# the 2^n basis products leave 2.7e-20 of rounding in their sum
@example(
    ClusterProblem(
        collective(3, 0.0, 0.5, 0.0625),
        CouplingSpec(z_noise=[0.0, 0.0, 1.0], x_noise=[0.0, 0.0, 4.5e-226]),
        0, 7, 1.0,
    )
)
def test_chain_sums_match_sums_over_the_full_basis(problem):
    # the maxima and the element the sector reads off its chains, against
    # sums this test forms itself over the spread 2^n amplitudes
    assert problem.route == "sector"
    n = problem.params.n
    states = []
    for name in ("dressed_ground", "dressed_lem"):
        try:
            state = getattr(problem, name)
        except StrongMixingError:
            continue
        states.append(state)
        distance = np.array([bin(x ^ state.anchor).count("1") for x in range(2**n)])
        maxima = [float(np.abs(state.amplitudes[distance == d]).max()) for d in range(n + 1)]
        assert overlap_decay(state).max_amplitudes == tuple(maxima)
    if len(states) < 2:
        return
    ground, lem = (state.amplitudes for state in states)
    if abs(float(ground @ lem)) > 0.5:
        with pytest.raises(ValidationError, match="two distinct eigenstates"):
            problem.rates()
        return
    configs = np.arange(2**n)
    z_terms, x_terms = [], []
    for i in range(n):
        spin = 2.0 * (configs >> i & 1) - 1.0
        z_terms.append((problem.coupling.z_noise[i] * ground * lem * spin).tolist())
        x_terms.append((problem.coupling.x_noise[i] * ground[configs ^ (1 << i)] * lem).tolist())
    every_term = [t for terms in z_terms + x_terms for t in terms]
    try:
        report = problem.rates()
    except UnderflowError:
        # refused only where the element, and so the rate ratio, leaves the
        # double range; small noise amplitudes get there.  The 2^n sum keeps
        # the rounding _within allows where its terms cancel
        roundoff = 64 * EPS * math.fsum(abs(t) for t in every_term)
        assert abs(math.fsum(every_term)) <= (1 + 1e-9) * math.sqrt(np.finfo(float).tiny) + roundoff
        return
    for i in range(n):
        assert _within(report.z_channel[i], z_terms[i]), ("z", i)
        assert _within(report.x_channel[i], x_terms[i]), ("x", i)
    assert _within(report.matrix_element, every_term)


def _check_family_against_the_table(n, j, b, rounding):
    """The chain family's anchors, refusals and A_typ against the 2^n table's,
    A_typ to 1e-14 relative plus ``rounding``(A_typ)."""
    bare = ClusterParams(
        n=n, couplings=uniform_couplings(n, j), bias=np.full(n, b), tunneling=np.zeros(n)
    )
    landscape = find_local_minima(bare)
    if not landscape.local_minima:
        with pytest.raises(ValidationError, match="has no local minimum"):
            uniform_ferromagnet(n, 0.01, bias=b, coupling_j=j)
        return
    lem = landscape.local_minima[0].config
    try:
        a_typ = typical_level_spacing(bare, lem)
    except DegeneracyError as exc:
        with pytest.raises(DegeneracyError, match="single-flip gap") as chain:
            uniform_ferromagnet(n, 0.01, bias=b, coupling_j=j)
        assert str(chain.value) == str(exc)
        return
    family = uniform_ferromagnet(n, 0.01, bias=b, coupling_j=j)
    assert (family.ground_anchor, family.lem_anchor) == (landscape.global_config, lem)
    assert abs(family.a_typ - a_typ) <= 1e-14 * a_typ + rounding(a_typ)


_SIXTEENTHS = st.integers(-64, 64).map(lambda v: v / 16)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 8), _SIXTEENTHS, _SIXTEENTHS)
def test_chain_family_matches_the_table_where_the_table_is_exact(n, j, b):
    # sixteenths keep every table entry exact and equal to its chain site's
    # energy, so ties break alike: at the lowest index of a level, and an
    # antiferromagnet's global level holds its other minima too
    _check_family_against_the_table(n, j, b, lambda a_typ: 0.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.floats(-2.0, 0.0), st.one_of(st.just(0.0), st.floats(-6.0, 6.0)))
def test_chain_family_matches_the_table_on_ferromagnets(n, j, b):
    # any ferromagnet's minima are polarized, one configuration a level, so
    # the anchors agree whatever the table rounds.  A gap then differs by the
    # rounding of the table's and the chain's energies, a few eps of the
    # energy scale, and the geometric mean's logs by a few eps of |ln A_typ|
    scale = n * (n - 1) / 2 * abs(j) + n * abs(b)
    _check_family_against_the_table(
        n, j, b, lambda a_typ: 8 * EPS * (scale + abs(math.log(a_typ)) * a_typ)
    )


# ------------------------------------------------------------- the blocks


def test_collective_form():
    assert collective(4, -1.5, 0.2, 0.03).collective == (-1.5, 0.2, 0.03)
    one = ClusterParams(
        n=1, couplings=np.zeros((1, 1)), bias=np.array([0.3]), tunneling=np.array([0.4])
    )
    assert one.collective == (0.0, 0.3, 0.4)
    for field in ("couplings", "bias", "tunneling"):
        p = collective(4, -1.0, 0.1, 0.05)
        values = getattr(p, field).copy()
        if field == "couplings":
            values[0, 1] = values[1, 0] = -1.0 + 1e-15
        else:
            values[2] += 1e-15
        nudged = ClusterParams(**{**vars(p), field: values})
        assert nudged.collective is None, field


@pytest.mark.parametrize("n", range(1, 10))
def test_block_spectrum_matches_dense(n):
    rng = np.random.default_rng(100 + n)
    cases = [(J, BIAS, 0.05), (J, 0.0, 0.3), (J, 0.4, 0.0), (0.0, 0.0, 0.0)]
    cases += [tuple(rng.normal(size=3)) for _ in range(3)]
    for j, b, c in cases:
        p = collective(n, j, b, c)
        form = p.collective
        assert form == (j if n > 1 else 0.0, b, c)
        dense = eigenvalues(build_hamiltonian(p))
        blocks = block_eigenvalues(n, *form)
        assert blocks.shape == (2**n,)
        norm = max(1.0, float(np.abs(dense).max()))
        assert np.max(np.abs(blocks - dense)) <= 100 * EPS * norm, (j, b, c)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 11])  # even n has a 1-row block
def test_block_levels_are_eigh_tridiagonals_bit_for_bit(n):
    # each block's levels as scipy's tridiagonal wrapper gives them, repeated
    # and sorted as block_eigenvalues assembles them
    rng = np.random.default_rng(200 + n)
    cases = [(J, BIAS, 0.05), (J, 0.0, 0.3), (J, 0.4, 0.0), (0.0, 0.0, 0.0)]
    for j, b, c in cases + [tuple(rng.normal(size=3)) for _ in range(3)]:
        levels = []
        for k in range(n // 2 + 1):
            d, e = lemsim.collective._block(n, n - 2 * k, j, b, c)
            values = scipy.linalg.eigh_tridiagonal(d, e, eigvals_only=True)
            levels.append(np.repeat(values, math.comb(n, k) - (math.comb(n, k - 1) if k else 0)))
        assert np.array_equal(block_eigenvalues(n, j, b, c), np.sort(np.concatenate(levels)))


def test_block_solve_failures_raise_numerical_error(monkeypatch):
    original = lemsim.spectrum.lapack.dstevd
    monkeypatch.setattr(
        lemsim.spectrum.lapack, "dstevd", lambda *args, **kwargs: (*original(*args, **kwargs)[:-1], 1)
    )
    with pytest.raises(NumericalError, match="^dstevd failed on a 4x4 matrix: info 1$"):
        block_eigenvalues(3, J, BIAS, 0.05)


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
