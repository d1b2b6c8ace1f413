"""Cluster model: classical energies, bit operations, Hamiltonian assembly."""

import tracemalloc

import numpy as np
import pytest

import lemsim.cluster
from lemsim import (
    CapacityError,
    ClusterParams,
    CouplingSpec,
    ValidationError,
    bits_to_config,
    build_hamiltonian,
    classical_energies,
    classical_energy,
    config_to_bits,
    diagonalize,
    dress,
    evolve_superposition,
    hamming_distance,
    lifetime_extension,
    run_sweep,
    uniform_couplings,
)

from lemsim.cluster import sign_table, validate_config

from oracles import brute_energy, left_to_right_energy

from conftest import count_table_builds, make_params


# ---------------------------------------------------------------- parameters


def test_params_compare_and_hash_by_identity():
    p = make_params(3, b=0.1, c=0.05)
    copy = ClusterParams(n=p.n, couplings=p.couplings, bias=p.bias, tunneling=p.tunneling)
    assert p == p and not p == copy and p != copy
    assert {p: 1, copy: 2}[p] == 1


@pytest.mark.parametrize("n", [True, 2.5, 0, -1, "3"])
def test_uniform_couplings_refuse_a_size_that_is_not_a_positive_integer(n):
    with pytest.raises(ValidationError) as err:
        uniform_couplings(n, -1.0)
    assert str(err.value) == f"cluster size must be a positive integer, got {n!r}"


def test_params_reject_asymmetric_couplings():
    j = np.zeros((2, 2))
    j[0, 1] = 1.0
    with pytest.raises(ValidationError):
        ClusterParams(n=2, couplings=j, bias=np.zeros(2), tunneling=np.zeros(2))


def test_params_reject_nonzero_diagonal():
    j = np.eye(3)
    with pytest.raises(ValidationError):
        ClusterParams(n=3, couplings=j, bias=np.zeros(3), tunneling=np.zeros(3))


def test_params_reject_wrong_vector_lengths():
    with pytest.raises(ValidationError):
        ClusterParams(n=3, couplings=np.zeros((3, 3)), bias=np.zeros(2), tunneling=np.zeros(3))
    with pytest.raises(ValidationError):
        ClusterParams(n=3, couplings=np.zeros((3, 3)), bias=np.zeros(3), tunneling=np.zeros(4))


def test_params_reject_nonfinite():
    b = np.zeros(2)
    b[0] = np.nan
    with pytest.raises(ValidationError):
        ClusterParams(n=2, couplings=np.zeros((2, 2)), bias=b, tunneling=np.zeros(2))


def test_params_over_capacity():
    with pytest.raises(CapacityError, match="cluster size 1024 exceeds 1023 spins"):
        make_params(1024)


def test_params_reject_energy_scale_that_could_overflow():
    # n=3, j=1e308: s.J.s = 6e308 overflows inside the energy kernel
    with pytest.raises(ValidationError, match="keeps energies and their spread finite"):
        make_params(3, j=1e308)
    # S = 3 * 1.5e307 = 4.5e307 is just over max/4; the spread 2S is still finite
    with pytest.raises(ValidationError):
        make_params(3, j=1.5e307)
    # just under the limit every energy and the spread stay finite
    params = make_params(3, j=-1.4e307, b=1e305, c=1e305)
    energies = classical_energies(params)
    assert np.all(np.isfinite(energies))
    assert np.isfinite(energies.max() - energies.min())
    assert np.all(np.isfinite(build_hamiltonian(params)))


def _evolve(trajectory_count, seed):
    noise = CouplingSpec(z_noise=np.zeros(2), x_noise=np.zeros(2))
    # the count and the seed are checked before the states are read
    return evolve_superposition(
        make_params(2), None, None, noise, time_step=0.1, trajectory_count=trajectory_count, seed=seed
    )


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: ClusterParams(n=True, couplings=np.zeros((1, 1)), bias=np.zeros(1), tunneling=np.zeros(1)),
            "cluster size must be a positive integer, got True",
            id="cluster",
        ),
        pytest.param(lambda: validate_config(2, True), "configuration must be an integer, got bool", id="config"),
        pytest.param(
            lambda: diagonalize(np.eye(2), (True,)), "anchor True is not a basis index of a 2x2 matrix", id="anchor"
        ),
        pytest.param(
            lambda: dress(diagonalize(np.diag([0.0, 1.0]), (1,)), True),
            "anchor True is not one the eigensystem was solved for",
            id="dress",
        ),
        pytest.param(lambda: _evolve(True, 0), "trajectory count must be a positive integer", id="dynamics-count"),
        pytest.param(lambda: _evolve(1, True), "seed must be an unsigned 64-bit integer", id="dynamics-seed"),
        pytest.param(
            lambda: run_sweep((2,), (0.3,), ("dynamics",), trajectory_count=True),
            "trajectory count must be a positive integer",
            id="sweep-count",
        ),
        pytest.param(
            lambda: run_sweep((True,), (0.3,)), "cluster size must be a positive integer, got True", id="sweep-size"
        ),
        pytest.param(
            lambda: run_sweep((2,), (0.3,), master_seed=True),
            "master seed must be an unsigned 64-bit integer",
            id="sweep-seed",
        ),
        pytest.param(
            lambda: lifetime_extension(True, 0.1), "cluster size must be a positive integer, got True", id="extension"
        ),
    ],
)
def test_a_bool_is_refused_where_an_integer_is_asked(call, message):
    with pytest.raises(ValidationError) as err:
        call()
    assert str(err.value) == message


# ---------------------------------------------------------- classical energy


def test_classical_energy_two_spins_aligned():
    # J12 = -1, both spins up: product +1, energy -1
    p = make_params(2)
    assert classical_energy(p, bits_to_config("11")) == pytest.approx(-1.0)


def test_classical_energy_two_spins_antialigned():
    p = make_params(2)
    assert classical_energy(p, bits_to_config("01")) == pytest.approx(1.0)


def test_classical_energy_three_spin_ferromagnet():
    # frozen from brute-force enumeration of all 8 configurations
    p = make_params(3, b=0.1)
    assert classical_energy(p, bits_to_config("111")) == pytest.approx(-2.7)


def test_classical_energy_matches_brute_force():
    rng = np.random.default_rng(404)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        j = rng.normal(size=(n, n))
        j = j + j.T
        np.fill_diagonal(j, 0.0)
        b = rng.normal(size=n)
        p = ClusterParams(n=n, couplings=j, bias=b, tunneling=np.zeros(n))
        for config in range(1 << n):
            assert classical_energy(p, config) == pytest.approx(
                brute_energy(j, b, config), abs=1e-12
            )


def _random_params(n, rng):
    j = np.triu(rng.normal(size=(n, n)), 1)
    return ClusterParams(n=n, couplings=j + j.T, bias=rng.normal(size=n), tunneling=rng.normal(size=n))


@pytest.mark.parametrize("n", range(1, 15))
def test_energies_sum_left_to_right_bit_for_bit(n):
    # the whole table up to n = 10, then 2000 drawn configurations; every
    # way into the kernel gives the oracle's bits, whichever rows go along
    rng = np.random.default_rng(1000 + n)
    clusters = [_random_params(n, rng), make_params(n, j=-1.0, b=0.1), make_params(n, j=1.0, b=0.3)]
    for p in clusters:
        table = classical_energies(p)
        configs = np.arange(p.dim) if n <= 10 else rng.integers(p.dim, size=2000)
        ref = np.array([left_to_right_energy(p.couplings, p.bias, int(x)) for x in configs])
        assert table[configs].tobytes() == ref.tobytes()
        for k in rng.integers(len(configs), size=8):
            assert classical_energy(p, int(configs[k])) == ref[k]


def test_energy_table_holds_little_beyond_the_sign_table():
    # the first read of a fresh cluster builds its table; later reads are
    # cache hits, so only a first build measures the scratch
    classical_energies(make_params(14, j=1.0))
    p = make_params(14, b=0.1)
    tracemalloc.start()
    try:
        table = classical_energies(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert table.nbytes <= peak <= sign_table(14).nbytes + (1 << 20)


def test_energy_table_is_built_once_and_read_only(monkeypatch):
    builds = count_table_builds(monkeypatch)
    p = make_params(5, b=0.1)
    table = classical_energies(p)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = 0.0
    assert classical_energies(p) is table
    assert classical_energy(p, 3) == table[3]
    assert build_hamiltonian(p).diagonal().tobytes() == table.tobytes()
    assert builds == [5]
    classical_energies(make_params(5, b=0.1))
    assert builds == [5, 5]


def test_hamiltonian_is_refused_before_anything_is_built(monkeypatch):
    # H of 10 spins needs 8 MB; with 1 MB available neither H nor the
    # energy table (0.1 MB, which fits) is built
    builds = count_table_builds(monkeypatch)
    monkeypatch.setattr(lemsim.cluster, "_available_memory", lambda: 2**20)
    p = make_params(10, b=0.1, c=0.05)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as err:
            build_hamiltonian(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(err.value) == (
        "the Hamiltonian of a 10-spin cluster needs 8388608 bytes, 1048576 bytes of memory available"
    )
    assert builds == []
    assert peak < 0.01 * 8 * p.dim**2
    monkeypatch.setattr(lemsim.cluster, "_available_memory", lambda: 8 * p.dim**2)
    assert build_hamiltonian(p).shape == (p.dim, p.dim)


def test_classical_energy_rejects_wide_config():
    p = make_params(2)
    with pytest.raises(ValidationError):
        classical_energy(p, 0b100)


def test_global_flip_with_bias_negation_is_symmetry():
    # negating every bias and flipping all bits leaves the energy unchanged
    rng = np.random.default_rng(11)
    n = 4
    j = rng.normal(size=(n, n))
    j = j + j.T
    np.fill_diagonal(j, 0.0)
    b = rng.normal(size=n)
    p = ClusterParams(n=n, couplings=j, bias=b, tunneling=np.zeros(n))
    q = ClusterParams(n=n, couplings=j, bias=-b, tunneling=np.zeros(n))
    full = (1 << n) - 1
    for config in range(1 << n):
        assert classical_energy(p, config) == pytest.approx(
            classical_energy(q, config ^ full), abs=1e-12
        )
    assert np.allclose(np.sort(classical_energies(p)), np.sort(classical_energies(q)))


# ------------------------------------------------------------------ distance


def test_hamming_all_bits_differ():
    assert hamming_distance(bits_to_config("0000"), bits_to_config("1111")) == 4


def test_hamming_identity():
    assert hamming_distance(0b1010, 0b1010) == 0


def test_hamming_two_bits():
    assert hamming_distance(bits_to_config("0101"), bits_to_config("0110")) == 2


def test_hamming_symmetry_and_triangle():
    rng = np.random.default_rng(3)
    for _ in range(200):
        x, y, z = (int(v) for v in rng.integers(0, 1 << 8, size=3))
        assert hamming_distance(x, y) == hamming_distance(y, x)
        assert hamming_distance(x, z) <= hamming_distance(x, y) + hamming_distance(y, z)


def test_bitstring_round_trip():
    for config in range(16):
        assert bits_to_config(config_to_bits(config, 4)) == config


# ------------------------------------------------------------------ assembly


def test_single_spin_matrix():
    # index 0 is the down state, so the bias enters with sign -1 there
    b, c = 0.7, 0.3
    p = ClusterParams(n=1, couplings=np.zeros((1, 1)), bias=np.array([b]), tunneling=np.array([c]))
    h = build_hamiltonian(p)
    assert np.allclose(h, np.array([[-b, c], [c, b]]))


def test_two_spin_matrix():
    c = 0.25
    p = make_params(2, j=-1.0, c=c)
    h = build_hamiltonian(p)
    assert np.allclose(np.diag(h), [-1.0, 1.0, 1.0, -1.0])
    for x in range(4):
        for y in range(4):
            if hamming_distance(x, y) == 1:
                assert h[x, y] == c
            elif x != y:
                assert h[x, y] == 0.0


def test_offdiagonal_row_sums():
    rng = np.random.default_rng(77)
    c = rng.uniform(0.1, 1.0, size=4)
    p = ClusterParams(
        n=4,
        couplings=uniform_couplings(4, -1.0),
        bias=rng.normal(size=4),
        tunneling=c,
    )
    h = build_hamiltonian(p)
    off = np.abs(h - np.diag(np.diag(h))).sum(axis=1)
    assert np.allclose(off, np.abs(c).sum())


def test_hamiltonian_exactly_symmetric():
    p = make_params(5, b=0.3, c=0.17)
    h = build_hamiltonian(p)
    assert np.array_equal(h, h.T)


def test_hamiltonian_sparsity_count():
    p = make_params(5, b=0.1, c=0.2)
    h = build_hamiltonian(p)
    off = h - np.diag(np.diag(h))
    assert np.count_nonzero(off) == 5 * 2**5
    # zero whenever the distance is 2 or more
    for x in range(32):
        for y in range(32):
            if hamming_distance(x, y) >= 2:
                assert h[x, y] == 0.0


def test_diagonal_matches_classical_energy_exactly():
    p = make_params(4, b=0.1, c=0.05)
    h = build_hamiltonian(p)
    for x in range(16):
        assert h[x, x] == classical_energy(p, x)
