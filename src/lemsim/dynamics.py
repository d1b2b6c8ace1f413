"""Stochastic-trajectory evolution of a ground + local-minimum superposition.

A state prepared as an equal superposition of the dressed ground state and
the dressed local-minimum state is integrated under the cluster Hamiltonian
plus fluctuating on-site (sigma^z) and tunneling (sigma^x) couplings with
independent unit-variance noise processes per spin and channel.  The
trajectory-averaged magnitude of the ground/minimum coherence is fitted to
an exponential to extract a decoherence rate.  The two dressed states are
the caller's: ``ClusterProblem`` dresses one pair for all its channels, in
the symmetric sector when it can, since independent noise on each spin
breaks the symmetry of the evolution but not of the two starting states.

Two observables are recorded per time sample:

* ``coherence``: the per-trajectory magnitude |<ground|psi><psi|min>|
  averaged across trajectories.  Phase diffusion between the two dressed
  components leaves it untouched; it decays only when population leaks out
  of the two anchored eigenstates.
* ``ensemble_coherence``: the magnitude of the trajectory average of the
  complex coherence <ground|psi><psi|min>.  This is the conventional
  dephasing-sensitive observable; the deterministic rotation at the
  ground/minimum splitting frequency drops out of the magnitude, so no
  explicit frame rotation is needed before fitting.

A run records the two every ``max(1, steps // RECORD_SAMPLES)`` steps and
stops at the first record where both have sunk to ``EARLY_STOP_FLOOR``.
Each decay rate is fitted over the samples inside ``FIT_WINDOW``; when the
window holds too few samples, or its fit does not decay, the rate is the
endpoint estimate, flagged as an upper limit.

Integration uses a fixed-step classical 4th-order scheme with the noise
held constant across each step (exact exponential updates for the
correlated noise) and per-step renormalization of every trajectory.  The
step is matrix-free: with the noise frozen, H plus noise is a diagonal
``E + sum_i f_i xi_i s_i`` plus one bit flip per spin with coefficient
``c_i + g_i eta_i``.  sigma^x_i acts on all trajectories at once by
reversing the middle axis of a ``(dim >> (i+1), 2, 1 << i, ntraj)`` view of
the state, so no dim x dim matrix is ever built.  The flip coefficients
live in one ``(dim - 1, ntraj)`` buffer in which coefficient i fills the
``1 << i`` rows from ``(1 << i) - 1``, so the flipped view is multiplied
by a ``(1 << i, ntraj)`` block whose rows run contiguously, not by a
broadcast ``(ntraj,)`` row.  The noise rewrites only the real parts of the
diagonal and the coefficients, and the renormalization multiplies every
real and imaginary part by a ``(ntraj, 2)`` row holding each 1 / norm
twice.  The steps run under a ``_UFUNC_BUFFER``-element numpy ufunc buffer,
restored when the run ends, so numpy reads these operands in place instead
of copying them through its buffer.  Each of these forms does the same
products and sums as the plain one, so the trace is unchanged bit for bit.

A run holds a fixed set of buffers, allocated before the first step: five
dim x ntraj complex arrays (the state, the Horner accumulator, the
Hamiltonian product, its scratch and the noisy diagonal), the
``(dim - 1) x ntraj`` complex flip coefficients and one
trajectory-major noise block ``(ntraj, _CHUNK_STEPS, 2, n)``.  Every
``_CHUNK_STEPS`` steps each trajectory's Generator refills its own row of
the block in place, and a step reads its normals as a ``(2, n, ntraj)``
view, so each trajectory's stream is the same whatever the block size.  The
norm, the renormalization and the sigma^z field are computed into these
buffers, so a step allocates nothing of size dim x ntraj and the memory does
not grow with the step count.  ``evolve_superposition`` raises
``CapacityError`` before the first Generator exists when that footprint
exceeds the memory available.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import spectrum
from .cluster import ClusterParams, classical_energies, sign_table
from .collective import cluster_levels
from .errors import CapacityError, IntegrationError, ValidationError
from .fitting import fit_line
from .spectrum import DressedState, same_eigenstate
from .transition import CouplingSpec

MAX_DYNAMICS_SPINS = 8
MAX_STEPS = 1_000_000
FIT_WINDOW = (0.1, 0.45)
NORM_DRIFT_LIMIT = 1e-3
STABILITY_LIMIT = 0.05  # time_step * eigenvalue spread must stay below this
RECORD_SAMPLES = 2048  # a run records every max(1, steps // RECORD_SAMPLES) steps
EARLY_STOP_FLOOR = 0.05  # a run stops once both observables sink to this
_CHUNK_STEPS = 128  # noise values drawn per trajectory in blocks of this many steps
# resident bytes of one trajectory's Generator and SeedSequence child: 1.0-1.3 KB
# measured (RSS, numpy 2.4, 10^5 trajectories), rounded up
_GENERATOR_BYTES = 2048
# elements in numpy's ufunc buffer during the steps.  Under the default 8192
# a ufunc copies an operand whose contiguous runs are shorter than about a
# quarter of the buffer through it, which doubled the cost of the flip
# products and of the renormalization (numpy 2.4); at 64, runs of more than
# 16 trajectories are read in place.  Only the copies change, not the results.
_UFUNC_BUFFER = 64


@dataclass(frozen=True)
class TrajectoryConfig:
    """Integration parameters for the stochastic trajectory run."""

    noise: CouplingSpec
    time_step: float
    total_time: float | None = None  # None: run up to the step cap
    trajectory_count: int = 200
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.time_step < math.inf:
            raise ValidationError(f"time step must be positive and finite, got {self.time_step!r}")
        if self.total_time is not None and not 0 < self.total_time < math.inf:
            raise ValidationError(
                f"total time must be positive and finite, got {self.total_time!r}"
            )
        if not isinstance(self.trajectory_count, (int, np.integer)) or self.trajectory_count < 1:
            raise ValidationError("trajectory count must be a positive integer")
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= int(self.seed) < 2**64:
            raise ValidationError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class CoherenceTrace:
    """Trajectory-averaged coherence against time plus fitted decay rates."""

    times: np.ndarray = field(repr=False)
    coherence: np.ndarray = field(repr=False)
    ensemble_coherence: np.ndarray = field(repr=False)
    fitted_rate: float
    fit_quality: float
    rate_is_upper_limit: bool
    ensemble_rate: float
    ensemble_fit_quality: float
    ensemble_rate_is_upper_limit: bool
    seed: int
    time_step: float
    trajectory_count: int
    total_steps: int  # steps integrated, fewer than planned after an early stop
    max_drift: float  # largest |norm - 1| of any trajectory before a renormalization


def default_time_step(a_typ: float) -> float:
    """Default integration step, a hundredth of the typical level spacing time."""
    return 0.01 / a_typ


def _fit_log_decay(times: np.ndarray, values: np.ndarray) -> tuple[float, float, bool]:
    """Exponential-decay fit over the window where values lie in FIT_WINDOW.

    Returns (rate, r_squared, is_upper_limit).  With fewer than three
    samples in the window, or a window fit whose slope is not negative, no
    decay was resolved and the rate is reported as an upper limit derived
    from the endpoints.
    """
    lo, hi = FIT_WINDOW
    mask = (values >= lo) & (values <= hi)
    if int(mask.sum()) >= 3:
        slope, _, r2 = fit_line(times[mask], np.log(values[mask]))
        if slope < 0:
            return -slope, 0.0 if r2 is None else r2, False
    rate = 0.0
    if values[0] > 0 and values[-1] > 0 and values[-1] < values[0] and times[-1] > times[0]:
        rate = math.log(values[0] / values[-1]) / float(times[-1] - times[0])
    return rate, 0.0, True


def _mean(values: np.ndarray) -> float:
    # compensated summation: the average is independent of trajectory order
    return math.fsum(values.tolist()) / len(values)


def _require_memory(n: int, ntraj: int, chunk: int) -> None:
    """Raise CapacityError when a run's buffers cannot fit in memory.

    The footprint is five dim x ntraj complex buffers, the (dim - 1) x ntraj
    complex flip coefficients and, for a noise block of ``chunk`` steps (0:
    a noise-free run, which draws nothing), the block and one Generator per
    trajectory.
    """
    needed = 5 * 16 * (1 << n) * ntraj + 16 * ((1 << n) - 1) * ntraj
    if chunk:
        needed += 8 * ntraj * chunk * 2 * n + _GENERATOR_BYTES * ntraj
    spectrum._require_memory(needed, f"a run of {ntraj} trajectories of a {n}-spin cluster")


def evolve_superposition(
    params: ClusterParams,
    ground: DressedState,
    lem: DressedState,
    tcfg: TrajectoryConfig,
) -> CoherenceTrace:
    """Integrate noisy trajectories of (|ground'> + |min'>)/sqrt(2).

    ``ground`` and ``lem`` are the two dressed states, integrated as given.
    The spectrum of ``params`` (``collective.cluster_levels``: the
    total-spin blocks' on a collective cluster) sets only the stability
    check and the centring shift.  OU noise with an amplitude
    (``CouplingSpec.has_noise``) must carry its correlation time.
    ``ClusterProblem.trajectories`` supplies its own dressed pair and the
    default 10 / A_typ.
    """
    n = params.n
    if n > MAX_DYNAMICS_SPINS:
        raise CapacityError(
            f"trajectory evolution supports up to {MAX_DYNAMICS_SPINS} spins, got n={n}"
        )
    if tcfg.noise.n != n:
        raise ValidationError(f"noise coupling is for {tcfg.noise.n} spins, cluster has {n}")
    has_noise = tcfg.noise.has_noise
    if has_noise and tcfg.noise.kind == "ou" and tcfg.noise.correlation_time is None:
        raise ValidationError("OU noise needs a correlation time")
    if same_eigenstate(ground, lem):
        raise ValidationError("both anchors dress to the same eigenstate")

    dt = float(tcfg.time_step)
    levels = cluster_levels(params)
    spread = float(levels[-1] - levels[0])
    if dt * spread > STABILITY_LIMIT:
        raise ValidationError(
            f"time step {dt:.3e} violates the stability criterion: "
            f"dt * spectral spread = {dt * spread:.3e} > {STABILITY_LIMIT}"
        )
    total = tcfg.total_time if tcfg.total_time is not None else dt * MAX_STEPS
    steps = min(MAX_STEPS, max(1, math.ceil(total / dt)))
    record_every = max(1, steps // RECORD_SAMPLES)

    dim = params.dim
    ntraj = int(tcfg.trajectory_count)
    chunk = min(_CHUNK_STEPS, steps)
    _require_memory(n, ntraj, chunk if has_noise else 0)
    # centering the spectrum minimizes phase advance per step (global phase only)
    e_c = (classical_energies(params) - 0.5 * (levels[0] + levels[-1]))[:, None]
    c_amp = params.tunneling[:, None]
    signs = sign_table(n)  # (dim, n)

    # noise state, both channels together: [0] drives sigma^z, [1] sigma^x
    state = np.zeros((2, n, ntraj))
    if has_noise:
        children = np.random.SeedSequence(int(tcfg.seed)).spawn(ntraj)
        rngs = [np.random.default_rng(c) for c in children]
        if tcfg.noise.kind == "ou":
            ou_decay = math.exp(-dt / tcfg.noise.correlation_time)
            kick = math.sqrt(1.0 - ou_decay**2)
            state = np.stack([r.standard_normal((2, n)) for r in rngs], axis=-1)
        else:
            kick = 1.0 / math.sqrt(dt)
        # trajectory-major, so each Generator fills its own contiguous row in place
        block = np.empty((ntraj, chunk, 2, n))
        amps = np.stack([tcfg.noise.z_noise, tcfg.noise.x_noise])[:, :, None]
        scaled = np.empty_like(state)

    vg = ground.amplitudes
    vl = lem.amplitudes
    psi = np.repeat(((vg + vl) / math.sqrt(2.0)).astype(complex)[:, None], ntraj, axis=1)

    # H + noise, frozen across a step, is a diagonal plus one bit flip per spin:
    # diag = E_c + sum_i f_i xi_i s_i and flip coefficients c_i + g_i eta_i,
    # coefficient i repeated over the 1 << i rows of coef_rows[i]; the noise
    # rewrites only their real parts, so the imaginary parts stay 0
    diag = np.broadcast_to(e_c, (dim, ntraj)).astype(complex)
    rows = np.repeat(
        np.broadcast_to(c_amp, (n, ntraj)).astype(complex), [1 << i for i in range(n)], axis=0
    )
    coef_rows = [rows[(1 << i) - 1 : (2 << i) - 1] for i in range(n)]
    acc = np.empty_like(psi)
    k_buf = np.empty_like(psi)
    tmp = np.empty_like(psi)
    # between steps k_buf and tmp are free: k_buf holds the norm's products and
    # the first half of tmp's bytes the sigma^z field
    field = tmp.reshape(-1).view(float)[: dim * ntraj].reshape(dim, ntraj)
    norms = np.empty(ntraj)
    # each trajectory's value twice, once for the real and once for the imaginary part
    pairs = np.empty((ntraj, 2))

    def bit_views(buf):
        # (high bits, bit i, low bits, trajectory): reversing axis 1 applies sigma^x_i
        return [buf.reshape(dim >> (i + 1), 2, 1 << i, ntraj) for i in range(n)]

    flipped = {id(buf): [v[:, ::-1] for v in bit_views(buf)] for buf in (psi, acc)}
    # (dim, ntraj, 2) float views: a trajectory's real and imaginary parts side by side
    planes = {id(buf): buf.view(float).reshape(dim, ntraj, 2) for buf in (psi, acc)}
    tmp_views = bit_views(tmp)

    def apply_hamiltonian(src):
        # k_buf = (H + noise) src
        np.multiply(diag, src, out=k_buf)
        for i, src_flip in enumerate(flipped[id(src)]):
            np.multiply(src_flip, coef_rows[i], out=tmp_views[i])
            np.add(k_buf, tmp, out=k_buf)

    times: list[float] = []
    coh: list[float] = []
    ens: list[float] = []

    def record(step_index: int) -> bool:
        t = step_index * dt
        a_g = vg @ psi
        a_l = vl @ psi
        z = a_g * np.conj(a_l)
        c = _mean(np.abs(z))
        # |mean z| is invariant under the deterministic splitting-frequency
        # rotation, which therefore needs no explicit removal
        e = abs(complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))) / ntraj
        times.append(t)
        coh.append(c)
        ens.append(e)
        return c <= EARLY_STOP_FLOOR and e <= EARLY_STOP_FLOOR

    # Horner stage m: acc = psi + (-i dt / m) (H + noise) src, for m = 4, 3, 2, 1
    horner_scales = [-1j * dt / m for m in (4, 3, 2, 1)]
    done = steps  # steps actually integrated
    max_drift = 0.0
    old_bufsize = np.setbufsize(_UFUNC_BUFFER)
    try:
        for step in range(steps):
            if step % record_every == 0 and record(step):
                done = step
                break
            if has_noise:
                pos = step % _CHUNK_STEPS
                if pos == 0:
                    remaining = min(_CHUNK_STEPS, steps - step)
                    for t, r in enumerate(rngs):
                        r.standard_normal(out=block[t, :remaining])
                    block[:, :remaining] *= kick
                kicks = block[:, pos].transpose(1, 2, 0)  # (2, n, ntraj)
                if tcfg.noise.kind == "ou":
                    state *= ou_decay
                    state += kicks
                else:
                    np.copyto(state, kicks)
                np.multiply(amps, state, out=scaled)
                np.matmul(signs, scaled[0], out=field)
                np.add(e_c, field, out=diag.real)
                coef = np.add(c_amp, scaled[1], out=scaled[1])
                for i, coef_row in enumerate(coef_rows):
                    np.copyto(coef_row.real, coef[i])
            # the generator is linear and frozen across the step, so the classical
            # 4-stage scheme collapses to its 4th-order polynomial (Horner form)
            src = psi
            for scale in horner_scales:
                apply_hamiltonian(src)
                np.multiply(k_buf, scale, out=acc)
                acc += psi
                src = acc
            psi, acc = acc, psi
            # np.linalg.norm(psi, axis=0) in its own steps:
            # sqrt(add.reduce(real(conj(psi) * psi)))
            np.conjugate(psi, out=k_buf)
            k_buf *= psi
            np.add.reduce(k_buf.real, axis=0, out=norms)
            np.sqrt(norms, out=norms)
            np.subtract(norms[:, None], 1.0, out=pairs)  # |norms - 1| first, then 1 / norms
            drift = float(np.abs(pairs, out=pairs).max())
            if drift > NORM_DRIFT_LIMIT:
                raise IntegrationError(
                    f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT} at t={step * dt:.4g}; "
                    "reduce the time step"
                )
            max_drift = max(max_drift, drift)
            # numpy divides a complex by a real b as (re, im) * (1 / b): psi /= norms
            np.divide(1.0, norms[:, None], out=pairs)
            planes[id(psi)] *= pairs
        else:
            record(steps)
    finally:
        np.setbufsize(old_bufsize)

    times_a = np.asarray(times)
    coh_a = np.asarray(coh)
    ens_a = np.asarray(ens)
    rate, quality, upper = _fit_log_decay(times_a, coh_a)
    e_rate, e_quality, e_upper = _fit_log_decay(times_a, ens_a)
    return CoherenceTrace(
        times=times_a,
        coherence=coh_a,
        ensemble_coherence=ens_a,
        fitted_rate=rate,
        fit_quality=quality,
        rate_is_upper_limit=upper,
        ensemble_rate=e_rate,
        ensemble_fit_quality=e_quality,
        ensemble_rate_is_upper_limit=e_upper,
        seed=int(tcfg.seed),
        time_step=dt,
        trajectory_count=ntraj,
        total_steps=done,
        max_drift=max_drift,
    )
