"""Trajectory evolution: determinism, conservation laws, rate fitting."""

import contextlib
import os
import re
import signal
import threading
import tracemalloc

import numpy as np
import pytest

from calibration import calibrate_rate_constant, rate_vs_prediction
from oracles import brute_energy, reference_trajectories

import lemsim._lapack
import lemsim.cluster
from lemsim import (
    CapacityError,
    ClusterParams,
    CouplingSpec,
    IntegrationError,
    ValidationError,
    build_hamiltonian,
    cluster_levels,
    default_time_step,
    diagonalize,
    dress,
    evolve_superposition,
)
from lemsim import dynamics
from lemsim.collective import symmetric_chain
from lemsim.sweep import uniform_ferromagnet

# every test ends with no child process left, above all the trajectory workers
pytestmark = pytest.mark.usefixtures("no_child_process")


def zero_noise(n):
    return CouplingSpec(z_noise=np.zeros(n), x_noise=np.zeros(n))


def dense_pair(params, ground=0, lem=1):
    """The dressed pair that a dense ``ClusterProblem`` hands
    ``evolve_superposition``."""
    eig = diagonalize(build_hamiltonian(params), (ground, lem))
    return dress(eig, ground), dress(eig, lem)


def single_spin(b=0.5):
    return ClusterParams(
        n=1, couplings=np.zeros((1, 1)), bias=np.array([b]), tunneling=np.zeros(1)
    )


def test_zero_noise_coherence_is_flat():
    fam = uniform_ferromagnet(3, 0.05)
    trace = evolve_superposition(
        fam.params,
        fam.dressed_ground,
        fam.dressed_lem,
        zero_noise(3),
        time_step=default_time_step(fam.a_typ),
        total_time=2000 * default_time_step(fam.a_typ),
        trajectory_count=4,
        seed=3,
    )
    assert np.abs(trace.coherence - 0.5).max() <= 1e-6
    assert np.abs(trace.ensemble_coherence - 0.5).max() <= 1e-6
    assert trace.coherence[0] == pytest.approx(0.5, abs=1e-12)


def test_trace_is_bit_reproducible():
    fam = uniform_ferromagnet(2, 0.1)
    run = dict(
        time_step=default_time_step(fam.a_typ), total_time=30.0, trajectory_count=16, seed=909
    )
    a = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, fam.coupling, **run)
    b = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, fam.coupling, **run)
    assert np.array_equal(a.coherence, b.coherence)
    assert np.array_equal(a.ensemble_coherence, b.ensemble_coherence)
    assert a.fitted_rate == b.fitted_rate


def test_different_seeds_differ():
    fam = uniform_ferromagnet(2, 0.1)
    args = (fam.params, fam.dressed_ground, fam.dressed_lem, fam.coupling)
    kw = dict(time_step=default_time_step(fam.a_typ), total_time=30.0, trajectory_count=8)
    a = evolve_superposition(*args, seed=1, **kw)
    b = evolve_superposition(*args, seed=2, **kw)
    assert not np.array_equal(a.coherence, b.coherence)


def test_single_spin_dephasing_rate_matches_oracle(monkeypatch):
    # white on-site noise of strength f dephases at 2 f^2 (phase variance
    # grows as 4 f^2 t, the ensemble coherence is exp(-variance/2))
    monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", -1.0)  # no early stop
    p = single_spin(b=0.5)
    f = 0.2
    noise = CouplingSpec(z_noise=np.array([f]), x_noise=np.zeros(1), kind="white")
    trace = evolve_superposition(
        p, *dense_pair(p), noise, time_step=0.01, total_time=40.0, trajectory_count=400, seed=5
    )
    analytic = 2 * f * f
    assert not trace.ensemble_rate_is_upper_limit
    assert analytic / 2 <= trace.ensemble_rate <= analytic * 2
    # pure dephasing moves no population, so the magnitude observable is flat
    assert np.abs(trace.coherence - 0.5).max() <= 1e-6


def test_step_halving_changes_rate_little(monkeypatch):
    # halving the step changes only the discretization; the residual
    # realization noise is averaged down over a few fixed seeds
    monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", -1.0)  # no early stop
    fam = uniform_ferromagnet(2, 0.12)
    dt = default_time_step(fam.a_typ)
    means = []
    for step in (dt, dt / 2):
        rates = []
        for seed in (301, 302, 303):
            trace = evolve_superposition(
                fam.params,
                fam.dressed_ground,
                fam.dressed_lem,
                fam.coupling,
                time_step=step,
                total_time=100.0,
                trajectory_count=128,
                seed=seed,
            )
            assert not trace.rate_is_upper_limit
            rates.append(trace.fitted_rate)
        means.append(np.mean(rates))
    assert abs(means[1] - means[0]) / means[0] < 0.10


def test_monte_carlo_error_shrinks_with_ensemble(monkeypatch):
    # spread of independent batch means falls off like the square root of
    # the batch size
    monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", -1.0)  # no early stop
    p = single_spin(b=0.5)
    f = 0.3
    noise = CouplingSpec(z_noise=np.array([f]), x_noise=np.zeros(1), kind="white")

    def batch_means(count, seeds):
        out = []
        for seed in seeds:
            tr = evolve_superposition(
                p, *dense_pair(p), noise, time_step=0.02, total_time=6.0, trajectory_count=count,
                seed=seed,
            )
            out.append(tr.ensemble_coherence[-1])
        return np.std(out)

    seeds = range(100, 120)
    s_small = batch_means(8, seeds)
    s_large = batch_means(32, seeds)
    ratio = s_small / s_large
    assert 1.3 <= ratio <= 3.2  # ideal value 2, wide window for 20 batches


def test_norm_drift_stays_small_via_renormalization():
    fam = uniform_ferromagnet(2, 0.1)
    trace = evolve_superposition(
        fam.params,
        fam.dressed_ground,
        fam.dressed_lem,
        fam.coupling,
        time_step=default_time_step(fam.a_typ),
        total_time=20.0,
        trajectory_count=8,
        seed=6,
    )
    # coherence never exceeds the initial value beyond statistical wiggle
    assert trace.coherence.max() <= 0.5 + 1e-9


def test_norm_drift_guard_raises():
    # strong white tunneling noise: the frozen-noise step leaves the unit sphere
    p = single_spin(b=0.5)
    noise = CouplingSpec(z_noise=np.zeros(1), x_noise=np.array([5.0]), kind="white")
    bufsize = np.getbufsize()
    with pytest.raises(IntegrationError, match=r"norm drift 5\.527e-03 exceeds 0\.001 at t=0\.01; reduce the time step$"):
        evolve_superposition(
            p, *dense_pair(p), noise, time_step=0.01, total_time=1.0, trajectory_count=4, seed=1
        )
    # the steps' smaller ufunc buffer does not outlive the run
    assert np.getbufsize() == bufsize


@pytest.mark.parametrize("z", [1e100, 1e308])
def test_norm_drift_guard_raises_on_nan(z):
    # the noise overflows the state, whose norm drift is then NaN; numpy's
    # overflow warnings stay inside the run, so only the error is raised
    fam = uniform_ferromagnet(2, 0.05)
    noise = CouplingSpec(
        z_noise=np.full(2, z), x_noise=np.zeros(2), kind="ou", correlation_time=1.0
    )
    with pytest.raises(
        IntegrationError,
        match=r"^norm drift nan exceeds 0\.001 at t=0; overflow: check the noise amplitudes$",
    ):
        evolve_superposition(
            fam.params, fam.dressed_ground, fam.dressed_lem, noise, time_step=0.01,
            total_time=0.05, trajectory_count=4, seed=1,
        )


def test_step_count_is_capped_before_it_overflows(monkeypatch):
    # total_time / time_step is inf, which math.ceil cannot take
    monkeypatch.setattr(dynamics, "MAX_STEPS", 5)
    fam = uniform_ferromagnet(2, 0.05)
    trace = evolve_superposition(
        fam.params, fam.dressed_ground, fam.dressed_lem, zero_noise(2), time_step=1e-300,
        total_time=1e300, trajectory_count=2, seed=1,
    )
    assert trace.total_steps == 5 and len(trace.times) == 6


def test_total_steps_counts_integrated_steps(monkeypatch):
    fam = uniform_ferromagnet(2, 0.12)
    dt = default_time_step(fam.a_typ)

    def run(floor, steps):
        monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", floor)
        return evolve_superposition(
            fam.params,
            fam.dressed_ground,
            fam.dressed_lem,
            fam.coupling,
            time_step=dt,
            total_time=(steps - 0.5) * dt,
            trajectory_count=16,
            seed=4,
        )

    stopped = run(0.45, 20_000)
    full = run(0.05, 500)
    assert (stopped.total_steps, len(stopped.times)) == (1422, 159)
    assert full.total_steps == 500
    for trace in (stopped, full):
        assert trace.times[-1] == trace.total_steps * dt


@pytest.mark.parametrize("kind", ["ou", "white"])
def test_noise_blocks_do_not_change_the_trace(monkeypatch, kind):
    fam = uniform_ferromagnet(2, 0.1)
    noise = CouplingSpec(
        z_noise=fam.coupling.z_noise, x_noise=fam.coupling.x_noise, kind=kind, correlation_time=2.0
    )
    dt = default_time_step(fam.a_typ)
    args = (fam.params, fam.dressed_ground, fam.dressed_lem, noise)
    run = dict(time_step=dt, total_time=10.5 * dt, trajectory_count=5, seed=17)
    default = evolve_superposition(*args, **run)
    monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 3)  # 11 steps cross four blocks
    small = evolve_superposition(*args, **run)
    assert len(small.times) == 12
    assert np.array_equal(default.coherence, small.coherence)
    assert np.array_equal(default.ensemble_coherence, small.ensemble_coherence)


def _ou(fam):
    return CouplingSpec(
        z_noise=fam.coupling.z_noise, x_noise=fam.coupling.x_noise, kind="ou", correlation_time=2.0
    )


class StateCheckingBasis(dynamics._SpinBasis):
    """The 2^n basis, asserting that the driver projects the state in the
    first of its two buffers."""

    projections = 0

    def project(self, psi):
        assert psi is self.states[0]
        self.projections += 1
        return super().project(psi)


def test_the_state_stays_in_the_first_buffer():
    fam = uniform_ferromagnet(3, 0.1)
    levels = cluster_levels(fam.params)
    basis = StateCheckingBasis(
        fam.params, fam.dressed_ground, fam.dressed_lem, 0.5 * (levels[0] + levels[-1]), 4
    )
    steps = 2 * dynamics._CHUNK_STEPS  # two noise blocks, a record every step
    trace = dynamics._integrate(
        lambda width: basis, [0, 4], _ou(fam), default_time_step(fam.a_typ), steps, 9
    )
    assert trace.total_steps == steps
    assert basis.projections == steps + 1


def test_memory_is_the_buffers_whatever_the_step_count(monkeypatch):
    monkeypatch.setattr(lemsim.cluster, "_usable_cpus", lambda: 1)  # all buffers in this process
    monkeypatch.setattr(dynamics, "RECORD_SAMPLES", 1)  # record the first and last states only
    monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", -1.0)  # no early stop
    fam = uniform_ferromagnet(6, 0.02)
    dt = default_time_step(fam.a_typ)
    ntraj, chunk = 200, dynamics._CHUNK_STEPS

    def peak(steps):
        tracemalloc.start()
        try:
            evolve_superposition(
                fam.params, fam.dressed_ground, fam.dressed_lem, _ou(fam), time_step=dt,
                total_time=(steps - 0.5) * dt, trajectory_count=ntraj, seed=8,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(3)  # first-call caches
    short, long = peak(2 * chunk + 1), peak(4 * chunk + 2)
    # state, Horner accumulator, Hamiltonian product, its scratch and the
    # diagonal, then the flip coefficients
    buffers = 5 * 16 * fam.params.dim * ntraj + 16 * (fam.params.dim - 1) * ntraj
    noise_block = 8 * ntraj * chunk * 2 * 6
    # the slack holds the Generators (about 1 KB each) and numpy's iteration buffers
    assert short <= buffers + noise_block + 2**20
    assert abs(long - short) <= 1024


def test_capacity_preflight_raises_before_any_generator(monkeypatch):
    fam = uniform_ferromagnet(3, 0.05)
    dt = default_time_step(fam.a_typ)
    steps, ntraj = 20, 7

    def run(noise):
        return evolve_superposition(
            fam.params, fam.dressed_ground, fam.dressed_lem, noise, time_step=dt,
            total_time=(steps - 0.5) * dt, trajectory_count=ntraj, seed=5,
        )

    def no_generators(*args):
        raise AssertionError("a Generator was made")

    # five (8, 7) complex buffers, the (7, 7) complex flip coefficients, a
    # (7, 20, 2, 3) noise block and seven Generators
    state = 5 * 16 * 8 * ntraj + 16 * 7 * ntraj
    needed = state + 8 * ntraj * steps * 2 * 3 + dynamics._GENERATOR_BYTES * ntraj
    monkeypatch.setattr(lemsim.cluster, "_available_memory", lambda: needed - 1)
    with monkeypatch.context() as m:
        m.setattr(np.random, "SeedSequence", no_generators)
        with pytest.raises(
            CapacityError,
            match=f"^a run of 7 trajectories of a 3-spin cluster needs {needed} bytes, "
            f"{needed - 1} bytes of memory available$",
        ):
            run(_ou(fam))
    # without noise there is no noise block and no Generator
    monkeypatch.setattr(lemsim.cluster, "_available_memory", lambda: state)
    assert run(zero_noise(3)).total_steps == steps
    monkeypatch.setattr(lemsim.cluster, "_available_memory", lambda: needed)
    assert run(_ou(fam)).total_steps == steps


def test_max_drift_is_the_largest_norm_drift(monkeypatch):
    p = single_spin(b=0.5)
    noise = CouplingSpec(z_noise=np.zeros(1), x_noise=np.array([1.0]), kind="white")

    def run():
        return evolve_superposition(
            p, *dense_pair(p), noise, time_step=0.01, total_time=1.0, trajectory_count=4, seed=1
        )

    drift = run().max_drift
    assert 1e-6 < drift < dynamics.NORM_DRIFT_LIMIT
    # the guard passes at a limit of exactly max_drift and trips one ulp below it
    monkeypatch.setattr(dynamics, "NORM_DRIFT_LIMIT", drift)
    assert run().max_drift == drift
    monkeypatch.setattr(dynamics, "NORM_DRIFT_LIMIT", np.nextafter(drift, 0.0))
    with pytest.raises(IntegrationError, match=f"^norm drift {drift:.3e} exceeds"):
        run()


def _shard(monkeypatch, cpus, sync_records=5):
    """Let runs fork up to ``cpus - 1`` workers however small they are,
    the shards meeting every ``sync_records`` records."""
    monkeypatch.setattr(lemsim.cluster, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(dynamics, "_SHARD_WIDTH", 1)
    monkeypatch.setattr(dynamics, "_SHARD_WORK", 1)
    monkeypatch.setattr(dynamics, "_SYNC_RECORDS", sync_records)


def _same_trace(a, b):
    for name in ("times", "coherence", "ensemble_coherence"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    for name in ("total_steps", "max_drift", "fitted_rate", "ensemble_rate"):
        assert getattr(a, name) == getattr(b, name), name


@pytest.mark.parametrize("ntraj", [16, 48, 200, 203])
@pytest.mark.parametrize("n", [2, 3, 6, 8])
@pytest.mark.parametrize("kind", ["ou", "white"])
def test_sharded_traces_are_the_unsharded_bits(monkeypatch, kind, n, ntraj):
    # 12 steps, a record after each: three meetings of the shards and three noise blocks
    monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 5)
    fam = uniform_ferromagnet(n, 0.1)
    noise = CouplingSpec(
        z_noise=fam.coupling.z_noise, x_noise=fam.coupling.x_noise, kind=kind, correlation_time=2.0
    )
    dt, steps = default_time_step(fam.a_typ), 12
    traces = []
    for workers in (1, 2, 3)[: ntraj // dynamics._SHARD_ALIGN]:
        _shard(monkeypatch, workers)
        assert len(dynamics._shard_bounds(fam.params.dim, ntraj, steps)) == workers + 1
        traces.append(evolve_superposition(
            fam.params, fam.dressed_ground, fam.dressed_lem, noise, time_step=dt,
            total_time=(steps - 0.5) * dt, trajectory_count=ntraj, seed=901,
        ))
    assert traces[0].total_steps == steps and len(traces[0].times) == steps + 1
    for trace in traces[1:]:
        _same_trace(traces[0], trace)


def test_shard_bounds_fall_on_multiples_of_eight(monkeypatch):
    monkeypatch.setattr(lemsim.cluster, "_usable_cpus", lambda: 3)
    # 200 trajectories of 6 spins: 3 processes from 492 steps, 2 from 328
    assert dynamics._shard_bounds(64, 200, 492) == [0, 64, 128, 200]
    assert dynamics._shard_bounds(64, 200, 491) == [0, 96, 200]
    assert dynamics._shard_bounds(64, 203, 328) == [0, 96, 203]
    assert dynamics._shard_bounds(64, 200, 327) == [0, 200]
    # eight trajectories per process, and 768 of dim x ntraj
    assert dynamics._shard_bounds(256, 16, 10**6) == [0, 8, 16]
    assert dynamics._shard_bounds(256, 15, 10**6) == [0, 15]
    assert dynamics._shard_bounds(8, 191, 10**6) == [0, 191]
    assert dynamics._shard_bounds(8, 192, 10**6) == [0, 96, 192]
    monkeypatch.setattr(lemsim.cluster, "_usable_cpus", lambda: 1)
    assert dynamics._shard_bounds(64, 200, 10**6) == [0, 200]


def test_a_run_beside_another_python_thread_forks_nothing(monkeypatch):
    monkeypatch.setattr(lemsim.cluster, "_usable_cpus", lambda: 2)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert dynamics._shard_bounds(64, 200, 10**6) == [0, 200]
    finally:
        release.set()
        other.join()
    assert dynamics._shard_bounds(64, 200, 10**6) == [0, 96, 200]


def test_an_early_stop_inside_a_meeting_interval_keeps_the_trace(monkeypatch):
    monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", 0.45)
    fam = uniform_ferromagnet(2, 0.12)
    dt = default_time_step(fam.a_typ)
    traces = []
    for workers in (1, 2, 3):
        _shard(monkeypatch, workers, sync_records=64)
        traces.append(evolve_superposition(
            fam.params, fam.dressed_ground, fam.dressed_lem, fam.coupling, time_step=dt,
            total_time=19_999.5 * dt, trajectory_count=24, seed=4,
        ))
    stopped = traces[0]
    # the run stops at record 72, the ninth of the second interval between meetings
    assert (stopped.total_steps, len(stopped.times)) == (648, 73)
    assert (len(stopped.times) - 1) % 64 not in (0, 63)
    for trace in traces[1:]:
        _same_trace(stopped, trace)


def _drift_failure(monkeypatch, workers, run):
    _shard(monkeypatch, workers)
    with pytest.raises(IntegrationError) as failure:
        run()
    assert failure.value.exit_status == 2
    return str(failure.value)


def test_white_noise_drift_fails_alike_on_any_shard_count(monkeypatch):
    p = single_spin(b=0.5)
    noise = CouplingSpec(z_noise=np.zeros(1), x_noise=np.array([5.0]), kind="white")
    pair = dense_pair(p)

    def run():
        evolve_superposition(
            p, *pair, noise, time_step=0.01, total_time=1.0, trajectory_count=24, seed=1
        )

    messages = {_drift_failure(monkeypatch, workers, run) for workers in (1, 2, 3)}
    assert len(messages) == 1
    assert re.fullmatch(r"norm drift \S+ exceeds 0\.001 at t=\S+; reduce the time step", *messages)


def test_overflowing_noise_fails_alike_on_any_shard_count(monkeypatch):
    fam = uniform_ferromagnet(2, 0.05)
    noise = CouplingSpec(
        z_noise=np.full(2, 1e100), x_noise=np.zeros(2), kind="ou", correlation_time=1.0
    )

    def run():
        evolve_superposition(
            fam.params, fam.dressed_ground, fam.dressed_lem, noise, time_step=0.01,
            total_time=0.05, trajectory_count=24, seed=1,
        )

    for workers in (1, 2, 3):
        assert _drift_failure(monkeypatch, workers, run) == (
            "norm drift nan exceeds 0.001 at t=0; overflow: check the noise amplitudes"
        )


def _worker_basis(fam, change):
    """A basis maker for ``dynamics._integrate``: the 2^n basis, which
    ``change(basis)`` alters in forked workers alone."""
    levels = cluster_levels(fam.params)
    shift, parent = 0.5 * (levels[0] + levels[-1]), os.getpid()

    def basis_of(width):
        basis = dynamics._SpinBasis(fam.params, fam.dressed_ground, fam.dressed_lem, shift, width)
        if os.getpid() != parent:
            change(basis)
        return basis

    return basis_of


def test_a_drift_failure_in_a_worker_fails_the_run(monkeypatch):
    # the workers' states grow by exp(dt) per step, this process's stay unit
    _shard(monkeypatch, 3)
    fam = uniform_ferromagnet(3, 0.1)
    basis_of = _worker_basis(fam, lambda basis: basis.diag.__iadd__(1j))
    with pytest.raises(IntegrationError, match=r"^norm drift 8\.940e-03 exceeds 0\.001 at t=0; reduce"):
        dynamics._integrate(basis_of, [0, 8, 16, 24], zero_noise(3), 0.0089, 10, 1)
    # in this process alone the same steps pass
    trace = dynamics._integrate(basis_of, [0, 24], zero_noise(3), 0.0089, 10, 1)
    assert trace.total_steps == 10 and trace.max_drift < 1e-12


@contextlib.contextmanager
def _within(seconds):
    """Fail the block with TimeoutError when it runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_a_killed_worker_fails_the_run_without_hanging(monkeypatch):
    _shard(monkeypatch, 3)
    fam = uniform_ferromagnet(3, 0.1)
    basis_of = _worker_basis(fam, lambda basis: os.kill(os.getpid(), signal.SIGKILL))
    with _within(60), pytest.raises(
        ChildProcessError, match=r"^trajectory worker \d+ was killed by signal 9 before its records$"
    ):
        dynamics._integrate(basis_of, [0, 8, 16, 24], _ou(fam), 0.001, 400, 1)


def test_a_worker_that_raises_fails_the_run(monkeypatch, capfd):
    _shard(monkeypatch, 2)
    fam = uniform_ferromagnet(3, 0.1)

    def fail(basis):
        raise MemoryError("no room for the basis")

    with _within(60), pytest.raises(
        ChildProcessError, match=r"^trajectory worker \d+ exited with status 1 before its records$"
    ):
        dynamics._integrate(_worker_basis(fam, fail), [0, 8, 16], _ou(fam), 0.001, 400, 1)
    # the worker's traceback goes to the shared stderr
    assert "MemoryError: no room for the basis" in capfd.readouterr().err


def test_capacity_error_comes_before_any_fork(monkeypatch):
    _shard(monkeypatch, 2, sync_records=64)
    fam = uniform_ferromagnet(3, 0.05)
    dt = default_time_step(fam.a_typ)
    steps, ntraj = 20, 16

    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(os, "fork", no_fork)
    # the 2^n buffers, noise blocks and Generators of both shards, then the
    # shared records: 64 rows of 16 complex coherences and each shard's 64
    # drifts and failure
    needed = (5 * 16 * 8 * ntraj + 16 * 7 * ntraj + 8 * ntraj * steps * 2 * 3
              + dynamics._GENERATOR_BYTES * ntraj + 8 * (2 * 64 * ntraj + 2 * (64 + 2)))
    monkeypatch.setattr(lemsim.cluster, "_available_memory", lambda: needed - 1)
    with pytest.raises(CapacityError, match=f"^a run of 16 trajectories of a 3-spin cluster needs {needed} bytes"):
        evolve_superposition(
            fam.params, fam.dressed_ground, fam.dressed_lem, _ou(fam), time_step=dt,
            total_time=(steps - 0.5) * dt, trajectory_count=ntraj, seed=5,
        )


def test_the_steps_run_on_one_blas_thread_and_restore_the_count():
    fam = uniform_ferromagnet(3, 0.1)
    seen = []

    class CountingBasis(dynamics._SpinBasis):
        def project(self, psi):
            seen.append(lemsim._lapack._get_threads())
            return super().project(psi)

    levels = cluster_levels(fam.params)
    shift = 0.5 * (levels[0] + levels[-1])
    before = lemsim._lapack._get_threads()
    lemsim._lapack._set_threads(2)
    try:
        dynamics._integrate(
            lambda width: CountingBasis(fam.params, fam.dressed_ground, fam.dressed_lem, shift, width),
            [0, 8], _ou(fam), default_time_step(fam.a_typ), 5, 3,
        )
        assert lemsim._lapack._get_threads() == 2
    finally:
        lemsim._lapack._set_threads(before)
    assert seen == [1] * 6


# non-uniform clusters: every spin has its own couplings, bias, tunneling and
# noise amplitudes, so a spin mapped to the wrong bit changes the result
ORACLE_CLUSTERS = {
    3: dict(
        j_upper=[(0, 1, -0.9), (0, 2, 0.35), (1, 2, -0.6)],
        b=[0.21, -0.13, 0.07],
        c=[0.05, 0.11, 0.03],
        f=[0.12, 0.04, 0.2],
        g=[0.09, 0.17, 0.02],
    ),
    4: dict(
        j_upper=[(0, 1, -0.8), (0, 2, 0.3), (0, 3, -0.45), (1, 2, -0.25), (1, 3, 0.6), (2, 3, -0.7)],
        b=[0.15, -0.22, 0.05, 0.31],
        c=[0.04, 0.09, 0.13, 0.06],
        f=[0.07, 0.18, 0.03, 0.11],
        g=[0.14, 0.02, 0.1, 0.19],
    ),
    # bits 4 and 5 flip with coefficients repeated over 16 and 32 rows
    6: dict(
        j_upper=[
            (0, 1, -0.7), (0, 2, 0.25), (0, 3, -0.4), (0, 4, 0.15), (0, 5, -0.55),
            (1, 2, -0.35), (1, 3, 0.5), (1, 4, -0.2), (1, 5, 0.3), (2, 3, -0.65),
            (2, 4, 0.45), (2, 5, -0.1), (3, 4, -0.75), (3, 5, 0.2), (4, 5, -0.6),
        ],
        b=[0.18, -0.11, 0.06, 0.27, -0.09, 0.14],
        c=[0.03, 0.08, 0.05, 0.12, 0.07, 0.1],
        f=[0.09, 0.15, 0.05, 0.13, 0.2, 0.06],
        g=[0.11, 0.04, 0.16, 0.08, 0.18, 0.13],
    ),
}


@pytest.mark.parametrize("kind", ["ou", "white"])
@pytest.mark.parametrize("n", [3, 4, 6])
def test_trajectories_match_kronecker_oracle(monkeypatch, n, kind):
    monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", -1.0)  # no early stop
    spec = ORACLE_CLUSTERS[n]
    j = np.zeros((n, n))
    for a, b_, v in spec["j_upper"]:
        j[a, b_] = j[b_, a] = v
    b, c, f, g = (np.array(spec[k]) for k in ("b", "c", "f", "g"))
    params = ClusterParams(n=n, couplings=j, bias=b, tunneling=c)
    # anchors: the classical global minimum and the highest configuration
    energies = [brute_energy(j, b, x) for x in range(2**n)]
    ground, lem = int(np.argmin(energies)), int(np.argmax(energies))
    pair = dense_pair(params, ground, lem)
    levels = cluster_levels(params)
    dt = 0.04 / float(levels[-1] - levels[0])
    steps, ntraj, seed, tau = 25, 6, 2024, 0.7
    noise = CouplingSpec(z_noise=f, x_noise=g, kind=kind, correlation_time=tau)
    trace = evolve_superposition(
        params,
        *pair,
        noise,
        time_step=dt,
        total_time=(steps - 0.5) * dt,
        trajectory_count=ntraj,
        seed=seed,
    )
    coherence, ensemble = reference_trajectories(
        j, b, c, f, g, kind, tau, dt, steps, ntraj, seed, ground, lem
    )
    assert trace.total_steps == steps
    assert np.abs(trace.coherence - coherence).max() <= 1e-12
    assert np.abs(trace.ensemble_coherence - ensemble).max() <= 1e-12
    # the noise moves the observables well beyond the tolerance
    assert np.ptp(coherence) > 1e-6 and np.ptp(ensemble) > 1e-4


class ChainBasis:
    """The symmetric (Dicke) chain of a collective cluster as a basis for
    ``dynamics._integrate``, noise-free runs only: a state is its n + 1 chain
    amplitudes, and H is the chain's tridiagonal."""

    def __init__(self, params, ground, lem, ntraj):
        chain = symmetric_chain(params)
        levels = cluster_levels(params)
        self.diag = (chain.diagonal - 0.5 * (levels[0] + levels[-1]))[:, None]
        self.off = chain.off[:, None]
        self.anchors = ground.chain, lem.chain
        start = ((ground.chain + lem.chain) / np.sqrt(2.0)).astype(complex)[:, None]
        self.states = np.repeat(start, ntraj, axis=1), np.empty((params.n + 1, ntraj), complex)

    def apply(self, src):
        out = self.diag * src
        out[:-1] += self.off * src[1:]
        out[1:] += self.off * src[:-1]
        return out

    def project(self, psi):
        return self.anchors[0] @ psi, self.anchors[1] @ psi


@pytest.mark.parametrize("n", [3, 5])
def test_driver_integrates_a_chain_basis_as_the_spin_basis(n):
    fam = uniform_ferromagnet(n, 0.1)
    ground, lem = fam.dressed_ground, fam.dressed_lem
    assert ground.chain is not None and lem.chain is not None  # the sector route's pair
    dt = default_time_step(fam.a_typ)
    steps, ntraj, seed = 1000, 3, 5
    spins = evolve_superposition(
        fam.params, ground, lem, zero_noise(n), time_step=dt, total_time=(steps - 0.5) * dt,
        trajectory_count=ntraj, seed=seed,
    )
    chain = dynamics._integrate(
        lambda width: ChainBasis(fam.params, ground, lem, width), [0, ntraj], zero_noise(n), dt,
        steps, seed,
    )
    assert chain.total_steps == spins.total_steps == steps
    assert np.abs(chain.coherence - spins.coherence).max() <= 1e-12
    assert np.abs(chain.ensemble_coherence - spins.ensemble_coherence).max() <= 1e-12


def test_stability_criterion_enforced():
    fam = uniform_ferromagnet(3, 0.05)
    levels = cluster_levels(fam.params)
    spread = float(levels[-1] - levels[0])
    with pytest.raises(ValidationError, match="stability"):
        evolve_superposition(
            fam.params, fam.dressed_ground, fam.dressed_lem, fam.coupling,
            time_step=0.06 / spread * 1.2, total_time=1.0, trajectory_count=2, seed=1,
        )


RUN_VALUE_REFUSALS = [
    *(
        (name, value, f"{name.replace('_', ' ')} must be positive and finite, got {value!r}")
        for name in ("time_step", "total_time")
        for value in (0, -1, np.inf, np.nan)
    ),
    *(("trajectory_count", v, "trajectory count must be a positive integer") for v in (0, 1.5)),
    *(("seed", v, "seed must be an unsigned 64-bit integer") for v in (-1, 2**64)),
]


@pytest.mark.parametrize("name, value, message", RUN_VALUE_REFUSALS)
def test_run_values_are_refused_before_anything_else(name, value, message):
    # the 9-spin cluster would be refused next, with a CapacityError
    big = ClusterParams(n=9, couplings=np.zeros((9, 9)), bias=np.ones(9), tunneling=np.zeros(9))
    fam = uniform_ferromagnet(2, 0.1)
    run = dict(time_step=0.01, total_time=1.0, trajectory_count=1, seed=0)
    run[name] = value
    with pytest.raises(ValidationError) as exc:
        evolve_superposition(big, fam.dressed_ground, fam.dressed_lem, zero_noise(9), **run)
    assert str(exc.value) == message


def test_dressed_states_of_the_wrong_size_are_refused():
    three, four = uniform_ferromagnet(3, 0.05), uniform_ferromagnet(4, 0.05)
    run = dict(time_step=0.01, total_time=1.0, trajectory_count=1, seed=0)
    pairs = {
        "(16, 16)": (four.dressed_ground, four.dressed_lem),
        "(8, 16)": (three.dressed_ground, four.dressed_lem),
    }
    for sizes, pair in pairs.items():
        with pytest.raises(ValidationError) as exc:
            evolve_superposition(three.params, *pair, zero_noise(3), **run)
        assert str(exc.value) == f"dressed states have {sizes} amplitudes, the 3-spin cluster 8"


def test_one_eigenstate_dressed_by_two_solves_is_refused():
    # the states come from two solves and are compared by vector
    fam = uniform_ferromagnet(5, 0.05)
    h = build_hamiltonian(fam.params)
    ground = dress(diagonalize(h, (0,)), 0)
    again = dress(diagonalize(h, (0, 31)), 0)
    run = dict(time_step=0.001, total_time=0.01, trajectory_count=1, seed=0)
    with pytest.raises(ValidationError, match="same eigenstate"):
        evolve_superposition(fam.params, ground, again, zero_noise(5), **run)
    lem = dress(diagonalize(h, (31,)), 31)
    evolve_superposition(fam.params, ground, lem, zero_noise(5), **run)


def test_ou_noise_needs_a_correlation_time():
    p = single_spin(b=0.5)
    noise = CouplingSpec(z_noise=np.array([0.1]), x_noise=np.zeros(1), kind="ou")
    with pytest.raises(ValidationError, match="correlation time"):
        evolve_superposition(
            p, *dense_pair(p), noise, time_step=0.01, total_time=1.0, trajectory_count=1, seed=0
        )


def test_upper_limit_flag_when_no_decay():
    fam = uniform_ferromagnet(2, 0.01)
    trace = evolve_superposition(
        fam.params,
        fam.dressed_ground,
        fam.dressed_lem,
        fam.coupling,
        time_step=default_time_step(fam.a_typ),
        total_time=5.0,
        trajectory_count=8,
        seed=10,
    )
    assert trace.rate_is_upper_limit
    assert trace.fit_quality == 0.0


def test_rising_window_fit_is_no_resolved_decay():
    # five samples inside FIT_WINDOW that grow as exp(0.01 t): the window fit's
    # slope is positive, which is no decay rate
    times = np.arange(5.0)
    values = 0.2 * np.exp(0.01 * times)
    assert dynamics._fit_log_decay(times, values) == (0.0, 0.0, True)


def test_default_budgets():
    assert default_time_step(4.0) == pytest.approx(0.0025)


def test_rate_comparison_verdicts():
    fam = uniform_ferromagnet(2, 0.05)
    eig = diagonalize(build_hamiltonian(fam.params), (fam.ground_anchor, fam.lem_anchor))
    flat = evolve_superposition(
        fam.params,
        fam.dressed_ground,
        fam.dressed_lem,
        zero_noise(2),
        time_step=default_time_step(fam.a_typ),
        total_time=10.0,
        trajectory_count=2,
        seed=0,
    )
    from lemsim import CouplingSpec as CS
    from lemsim import matrix_element

    zero_report = matrix_element(
        dress(eig, fam.ground_anchor),
        dress(eig, fam.lem_anchor),
        CS(z_noise=np.zeros(2), x_noise=np.zeros(2)),
    )
    # zero rate against zero prediction is trivially consistent
    verdict = rate_vs_prediction(flat, zero_report, rate_constant=1.0)
    assert verdict.verdict == "consistent" and verdict.ratio == 1.0
    # an unresolved fit never passes
    real_report = matrix_element(
        dress(eig, fam.ground_anchor), dress(eig, fam.lem_anchor), fam.coupling
    )
    verdict = rate_vs_prediction(flat, real_report, rate_constant=1.0)
    assert verdict.verdict == "inconclusive" and verdict.consistent is None
    with pytest.raises(ValidationError):
        calibrate_rate_constant(flat, real_report)
