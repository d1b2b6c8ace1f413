"""Trajectory evolution: determinism, conservation laws, rate fitting."""

import tracemalloc

import numpy as np
import pytest

from calibration import calibrate_rate_constant, rate_vs_prediction
from oracles import brute_energy, reference_trajectories

import lemsim.spectrum
from lemsim import (
    CapacityError,
    ClusterParams,
    CouplingSpec,
    IntegrationError,
    TrajectoryConfig,
    ValidationError,
    build_hamiltonian,
    cluster_levels,
    default_time_step,
    diagonalize,
    dress,
    evolve_superposition,
)
from lemsim import dynamics
from lemsim.sweep import uniform_ferromagnet


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
    tcfg = TrajectoryConfig(
        noise=zero_noise(3),
        time_step=default_time_step(fam.a_typ),
        total_time=2000 * default_time_step(fam.a_typ),
        trajectory_count=4,
        seed=3,
    )
    trace = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
    assert np.abs(trace.coherence - 0.5).max() <= 1e-6
    assert np.abs(trace.ensemble_coherence - 0.5).max() <= 1e-6
    assert trace.coherence[0] == pytest.approx(0.5, abs=1e-12)


def test_trace_is_bit_reproducible():
    fam = uniform_ferromagnet(2, 0.1)
    tcfg = TrajectoryConfig(
        noise=fam.coupling,
        time_step=default_time_step(fam.a_typ),
        total_time=30.0,
        trajectory_count=16,
        seed=909,
    )
    a = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
    b = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
    assert np.array_equal(a.coherence, b.coherence)
    assert np.array_equal(a.ensemble_coherence, b.ensemble_coherence)
    assert a.fitted_rate == b.fitted_rate


def test_different_seeds_differ():
    fam = uniform_ferromagnet(2, 0.1)
    kw = dict(
        noise=fam.coupling,
        time_step=default_time_step(fam.a_typ),
        total_time=30.0,
        trajectory_count=8,
    )
    a = evolve_superposition(
        fam.params, fam.dressed_ground, fam.dressed_lem, TrajectoryConfig(seed=1, **kw)
    )
    b = evolve_superposition(
        fam.params, fam.dressed_ground, fam.dressed_lem, TrajectoryConfig(seed=2, **kw)
    )
    assert not np.array_equal(a.coherence, b.coherence)


def test_single_spin_dephasing_rate_matches_oracle(monkeypatch):
    # white on-site noise of strength f dephases at 2 f^2 (phase variance
    # grows as 4 f^2 t, the ensemble coherence is exp(-variance/2))
    monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", -1.0)  # no early stop
    p = single_spin(b=0.5)
    f = 0.2
    noise = CouplingSpec(z_noise=np.array([f]), x_noise=np.zeros(1), kind="white")
    tcfg = TrajectoryConfig(
        noise=noise,
        time_step=0.01,
        total_time=40.0,
        trajectory_count=400,
        seed=5,
    )
    trace = evolve_superposition(p, *dense_pair(p), tcfg)
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
            tcfg = TrajectoryConfig(
                noise=fam.coupling,
                time_step=step,
                total_time=100.0,
                trajectory_count=128,
                seed=seed,
            )
            trace = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
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
            tcfg = TrajectoryConfig(
                noise=noise,
                time_step=0.02,
                total_time=6.0,
                trajectory_count=count,
                seed=seed,
            )
            tr = evolve_superposition(p, *dense_pair(p), tcfg)
            out.append(tr.ensemble_coherence[-1])
        return np.std(out)

    seeds = range(100, 120)
    s_small = batch_means(8, seeds)
    s_large = batch_means(32, seeds)
    ratio = s_small / s_large
    assert 1.3 <= ratio <= 3.2  # ideal value 2, wide window for 20 batches


def test_norm_drift_stays_small_via_renormalization():
    fam = uniform_ferromagnet(2, 0.1)
    tcfg = TrajectoryConfig(
        noise=fam.coupling,
        time_step=default_time_step(fam.a_typ),
        total_time=20.0,
        trajectory_count=8,
        seed=6,
    )
    trace = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
    # coherence never exceeds the initial value beyond statistical wiggle
    assert trace.coherence.max() <= 0.5 + 1e-9


def test_norm_drift_guard_raises():
    # strong white tunneling noise: the frozen-noise step leaves the unit sphere
    p = single_spin(b=0.5)
    noise = CouplingSpec(z_noise=np.zeros(1), x_noise=np.array([5.0]), kind="white")
    tcfg = TrajectoryConfig(
        noise=noise, time_step=0.01, total_time=1.0, trajectory_count=4, seed=1
    )
    bufsize = np.getbufsize()
    with pytest.raises(IntegrationError, match=r"norm drift 5\.527e-03 exceeds 0\.001 at t=0\.01"):
        evolve_superposition(p, *dense_pair(p), tcfg)
    # the steps' smaller ufunc buffer does not outlive the run
    assert np.getbufsize() == bufsize


def test_total_steps_counts_integrated_steps(monkeypatch):
    fam = uniform_ferromagnet(2, 0.12)
    dt = default_time_step(fam.a_typ)

    def run(floor, steps):
        monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", floor)
        tcfg = TrajectoryConfig(
            noise=fam.coupling,
            time_step=dt,
            total_time=(steps - 0.5) * dt,
            trajectory_count=16,
            seed=4,
        )
        return evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)

    stopped = run(0.45, 20_000)
    full = run(0.05, 500)
    assert (stopped.total_steps, len(stopped.times)) == (1422, 159)
    assert full.total_steps == 500
    for trace in (stopped, full):
        assert trace.times[-1] == trace.total_steps * trace.time_step


@pytest.mark.parametrize("kind", ["ou", "white"])
def test_noise_blocks_do_not_change_the_trace(monkeypatch, kind):
    fam = uniform_ferromagnet(2, 0.1)
    noise = CouplingSpec(
        z_noise=fam.coupling.z_noise, x_noise=fam.coupling.x_noise, kind=kind, correlation_time=2.0
    )
    dt = default_time_step(fam.a_typ)
    tcfg = TrajectoryConfig(
        noise=noise, time_step=dt, total_time=10.5 * dt, trajectory_count=5, seed=17
    )
    default = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
    monkeypatch.setattr(dynamics, "_CHUNK_STEPS", 3)  # 11 steps cross four blocks
    small = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
    assert len(small.times) == 12
    assert np.array_equal(default.coherence, small.coherence)
    assert np.array_equal(default.ensemble_coherence, small.ensemble_coherence)


def _ou(fam):
    return CouplingSpec(
        z_noise=fam.coupling.z_noise, x_noise=fam.coupling.x_noise, kind="ou", correlation_time=2.0
    )


def test_memory_is_the_buffers_whatever_the_step_count(monkeypatch):
    monkeypatch.setattr(dynamics, "RECORD_SAMPLES", 1)  # record the first and last states only
    monkeypatch.setattr(dynamics, "EARLY_STOP_FLOOR", -1.0)  # no early stop
    fam = uniform_ferromagnet(6, 0.02)
    dt = default_time_step(fam.a_typ)
    ntraj, chunk = 200, dynamics._CHUNK_STEPS

    def peak(steps):
        tcfg = TrajectoryConfig(
            noise=_ou(fam), time_step=dt, total_time=(steps - 0.5) * dt, trajectory_count=ntraj,
            seed=8,
        )
        tracemalloc.start()
        try:
            evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
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
        tcfg = TrajectoryConfig(
            noise=noise, time_step=dt, total_time=(steps - 0.5) * dt, trajectory_count=ntraj,
            seed=5,
        )
        return evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)

    def no_generators(*args):
        raise AssertionError("a Generator was made")

    # five (8, 7) complex buffers, the (7, 7) complex flip coefficients, a
    # (7, 20, 2, 3) noise block and seven Generators
    state = 5 * 16 * 8 * ntraj + 16 * 7 * ntraj
    needed = state + 8 * ntraj * steps * 2 * 3 + dynamics._GENERATOR_BYTES * ntraj
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: needed - 1)
    with monkeypatch.context() as m:
        m.setattr(np.random, "SeedSequence", no_generators)
        with pytest.raises(
            CapacityError,
            match=f"^7 trajectories of a 3-spin cluster need {needed} bytes, "
            f"{needed - 1} bytes of memory available$",
        ):
            run(_ou(fam))
    # without noise there is no noise block and no Generator
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: state)
    assert run(zero_noise(3)).total_steps == steps
    monkeypatch.setattr(lemsim.spectrum, "_available_memory", lambda: needed)
    assert run(_ou(fam)).total_steps == steps


def test_max_drift_is_the_largest_norm_drift(monkeypatch):
    p = single_spin(b=0.5)
    noise = CouplingSpec(z_noise=np.zeros(1), x_noise=np.array([1.0]), kind="white")
    tcfg = TrajectoryConfig(
        noise=noise, time_step=0.01, total_time=1.0, trajectory_count=4, seed=1
    )

    def run():
        return evolve_superposition(p, *dense_pair(p), tcfg)

    drift = run().max_drift
    assert 1e-6 < drift < dynamics.NORM_DRIFT_LIMIT
    # the guard passes at a limit of exactly max_drift and trips one ulp below it
    monkeypatch.setattr(dynamics, "NORM_DRIFT_LIMIT", drift)
    assert run().max_drift == drift
    monkeypatch.setattr(dynamics, "NORM_DRIFT_LIMIT", np.nextafter(drift, 0.0))
    with pytest.raises(IntegrationError, match=f"^norm drift {drift:.3e} exceeds"):
        run()


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
    tcfg = TrajectoryConfig(
        noise=noise,
        time_step=dt,
        total_time=(steps - 0.5) * dt,
        trajectory_count=ntraj,
        seed=seed,
    )
    trace = evolve_superposition(params, *pair, tcfg)
    coherence, ensemble = reference_trajectories(
        j, b, c, f, g, kind, tau, dt, steps, ntraj, seed, ground, lem
    )
    assert trace.total_steps == steps
    assert np.abs(trace.coherence - coherence).max() <= 1e-12
    assert np.abs(trace.ensemble_coherence - ensemble).max() <= 1e-12
    # the noise moves the observables well beyond the tolerance
    assert np.ptp(coherence) > 1e-6 and np.ptp(ensemble) > 1e-4


def test_stability_criterion_enforced():
    fam = uniform_ferromagnet(3, 0.05)
    levels = cluster_levels(fam.params)
    spread = float(levels[-1] - levels[0])
    tcfg = TrajectoryConfig(
        noise=fam.coupling, time_step=0.06 / spread * 1.2, total_time=1.0, trajectory_count=2, seed=1
    )
    with pytest.raises(ValidationError, match="stability"):
        evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)


@pytest.mark.parametrize("value", [np.inf, np.nan])
@pytest.mark.parametrize("name", ["time_step", "total_time"])
def test_times_must_be_finite(name, value):
    times = {"time_step": 0.01, "total_time": 1.0, name: value}
    message = f"{name.replace('_', ' ')} must be positive and finite"
    with pytest.raises(ValidationError, match=message):
        TrajectoryConfig(noise=zero_noise(1), trajectory_count=1, **times)


def test_one_eigenstate_dressed_by_two_solves_is_refused():
    # the states come from two solves and are compared by vector
    fam = uniform_ferromagnet(5, 0.05)
    h = build_hamiltonian(fam.params)
    ground = dress(diagonalize(h, (0,)), 0)
    again = dress(diagonalize(h, (0, 31)), 0)
    tcfg = TrajectoryConfig(noise=zero_noise(5), time_step=0.001, total_time=0.01, trajectory_count=1, seed=0)
    with pytest.raises(ValidationError, match="same eigenstate"):
        evolve_superposition(fam.params, ground, again, tcfg)
    lem = dress(diagonalize(h, (31,)), 31)
    evolve_superposition(fam.params, ground, lem, tcfg)


def test_ou_noise_needs_a_correlation_time():
    p = single_spin(b=0.5)
    noise = CouplingSpec(z_noise=np.array([0.1]), x_noise=np.zeros(1), kind="ou")
    tcfg = TrajectoryConfig(noise=noise, time_step=0.01, total_time=1.0, trajectory_count=1, seed=0)
    with pytest.raises(ValidationError, match="correlation time"):
        evolve_superposition(p, *dense_pair(p), tcfg)


def test_upper_limit_flag_when_no_decay():
    fam = uniform_ferromagnet(2, 0.01)
    tcfg = TrajectoryConfig(
        noise=fam.coupling,
        time_step=default_time_step(fam.a_typ),
        total_time=5.0,
        trajectory_count=8,
        seed=10,
    )
    trace = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
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
    tcfg = TrajectoryConfig(
        noise=zero_noise(2),
        time_step=default_time_step(fam.a_typ),
        total_time=10.0,
        trajectory_count=2,
        seed=0,
    )
    flat = evolve_superposition(fam.params, fam.dressed_ground, fam.dressed_lem, tcfg)
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
