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

A run is one ``evolve_superposition`` call, which checks its run values
(time step, total time, trajectory count, seed) first, then the stability,
the step count, the split into shards and the memory, and hands a maker of
bases to one driver.  The driver, ``_integrate``, knows nothing of the
basis format.  It owns the noise stream, the step, the renormalization, the
records, the early stop and the fits.  The basis, ``_SpinBasis`` for the
2^n configurations, owns the format.  A basis provides:

* ``states``: two state buffers of one shape ``(rows, ntraj)``, complex and
  C-contiguous, the first holding the start state
  (|ground> + |lem>)/sqrt(2) in every column and then the state throughout,
  the second the driver's scratch;
* ``set_noise(scaled)``: fold one step's noise, ``(2, n, ntraj)`` already
  times its amplitudes, into H;
* ``apply(src)``: (H + noise) src for src one of ``states``, in a buffer
  that the driver may use as scratch until the next call;
* ``project(psi)``: each trajectory's amplitudes on the dressed ground and
  LEM.

Integration uses a fixed-step classical 4th-order scheme with the noise
held constant across each step and per-step renormalization of every
trajectory.  Each noise value advances by ``decay * value + kick * normal``:
OU noise from a stationary draw with decay exp(-dt / tau) and kick
sqrt(1 - decay^2), white noise, which keeps no memory, from zero with decay
0 and kick 1 / sqrt(dt).  In the 2^n basis the step is matrix-free: with the
noise frozen, H plus noise is a diagonal ``E + sum_i f_i xi_i s_i`` plus one
bit flip per spin with coefficient ``c_i + g_i eta_i``.  sigma^x_i acts on
all trajectories at once by reversing the middle axis of a
``(dim >> (i+1), 2, 1 << i, ntraj)`` view of the state, so no dim x dim
matrix is ever built.  The flip coefficients live in one ``(dim - 1, ntraj)``
buffer in which coefficient i fills the ``1 << i`` rows from
``(1 << i) - 1``, so the flipped view is multiplied by a ``(1 << i, ntraj)``
block whose rows run contiguously, not by a broadcast ``(ntraj,)`` row.  The
noise rewrites only the real parts of the diagonal and the coefficients, and
the renormalization multiplies every real and imaginary part by a
``(ntraj, 2)`` row holding each 1 / norm twice.  The steps run under a
``_UFUNC_BUFFER``-element numpy ufunc buffer, restored when the run ends, so
numpy reads these operands in place instead of copying them through its
buffer.  Each of these forms does the same products and sums as the plain
one, so the trace is unchanged bit for bit.

A run holds a fixed set of buffers, allocated before the first step.  The
2^n basis holds five dim x ntraj complex arrays (the two state buffers, the
Hamiltonian product, its scratch and the noisy diagonal) and the
``(dim - 1) x ntraj`` complex flip coefficients.  The first state buffer
holds the state throughout: the second is the Horner accumulator of the
first three stages, and the fourth writes the new state over the old.  The
driver holds the noise state, the per-trajectory norms and one
trajectory-major noise block ``(ntraj, _CHUNK_STEPS, 2, n)``.  Every
``_CHUNK_STEPS`` steps each trajectory's Generator refills its own row of
the block in place, and a step reads its normals as a ``(2, n, ntraj)``
view, so each trajectory's stream is the same whatever the block size.
The norm, the renormalization and the sigma^z field are computed into these
buffers, so a step allocates nothing of size dim x ntraj and the memory does
not grow with the step count.  ``evolve_superposition`` raises
``CapacityError`` before the first Generator exists, and before any fork,
when that footprint exceeds the memory available.

A run with enough work splits its trajectories into contiguous shards
(``_shard_bounds``), one per usable CPU at most.  This process integrates
the first and a worker forked from it each other one, with its own basis,
noise block and Generators, all on one thread of numpy's OpenBLAS.  Each
shard writes every record's coherences and each record interval's largest
drift into one buffer that the processes share, and the shards meet every
``_SYNC_RECORDS`` records over two pipes per worker.  This process then
takes the records in step order, as one shard would: it sums each over all
trajectories, stops early, tracks the largest drift and raises the first
drift failure.  Trajectory k draws from child k of the seed in any shard,
and a bound on a multiple of ``_SHARD_ALIGN`` trajectories leaves every
column of the BLAS products its bits, so the trace does not depend on the
split.  A worker leaves with ``os._exit``, and the run reaps every worker
before it returns or raises, also on an interrupt or a dead worker.
"""

from __future__ import annotations

import functools
import math
import mmap
import os
import signal
import sys
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import _lapack, cluster
from .cluster import ClusterParams, classical_energies, sign_table
from .collective import cluster_levels
from .errors import CapacityError, IntegrationError, ValidationError, is_integer
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
# A run splits its trajectories over processes only where each one gains.
# Shard bounds fall on multiples of _SHARD_ALIGN trajectories, where numpy's
# matmul in its OpenBLAS gives every column the bits of the unsplit product.
# Each process carries at least _SHARD_WIDTH of dim * ntraj, below which a
# step's fixed cost, about 60 us of Python and numpy calls, outweighs its
# share of the work (n=2 with 128 or 200 trajectories gained nothing), and
# _SHARD_WORK of dim * ntraj * steps, which pays for the fork and the
# copies on write after it (200 trajectories broke even near 2,000 steps at
# n=3 and below 100 at n=6; one BLAS thread, 2-core Xeon).
_SHARD_ALIGN = 8
_SHARD_WIDTH = 768
_SHARD_WORK = 1 << 21
_SYNC_RECORDS = 64  # records a shard integrates between two meetings of the shards


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


def _require_memory(n: int, ntraj: int, chunk: int, shards: int) -> None:
    """Raise CapacityError when a run's buffers cannot fit in memory.

    The footprint is, over all ``shards``, five dim x ntraj complex buffers,
    the (dim - 1) x ntraj complex flip coefficients and, for a noise block of
    ``chunk`` steps (0: a noise-free run, which draws nothing), the block and
    one Generator per trajectory; a run of more than one shard adds the
    record buffer that the shards share.
    """
    needed = 5 * 16 * (1 << n) * ntraj + 16 * ((1 << n) - 1) * ntraj
    if chunk:
        needed += 8 * ntraj * chunk * 2 * n + _GENERATOR_BYTES * ntraj
    if shards > 1:
        needed += 8 * _record_floats(ntraj, shards, _SYNC_RECORDS)
    cluster._require_memory(needed, f"a run of {ntraj} trajectories of a {n}-spin cluster")


def require_dynamics_size(n: int) -> None:
    """Raise CapacityError for a cluster over ``MAX_DYNAMICS_SPINS`` spins."""
    if n > MAX_DYNAMICS_SPINS:
        raise CapacityError(
            f"trajectory evolution supports up to {MAX_DYNAMICS_SPINS} spins, got n={n}"
        )


def evolve_superposition(
    params: ClusterParams,
    ground: DressedState,
    lem: DressedState,
    noise: CouplingSpec,
    *,
    time_step: float,
    trajectory_count: int,
    seed: int,
    total_time: float | None = None,
) -> CoherenceTrace:
    """Integrate ``trajectory_count`` noisy trajectories of
    (|ground'> + |min'>)/sqrt(2), ``time_step`` apart up to ``total_time``
    (None: ``MAX_STEPS`` steps), trajectory k drawing its noise from child k
    of ``np.random.SeedSequence(seed)``; these four are checked first.
    ``ground`` and ``lem``, two dressed states of ``params``, are integrated
    as given; the spectrum of ``params`` (``collective.cluster_levels``)
    sets only the stability check and the centring shift.  OU noise with an
    amplitude (``CouplingSpec.has_noise``) must carry its correlation time.
    ``ClusterProblem.trajectories`` supplies its own dressed pair and the
    default time step and correlation time.
    """
    if not 0 < time_step < math.inf:
        raise ValidationError(f"time step must be positive and finite, got {time_step!r}")
    if total_time is not None and not 0 < total_time < math.inf:
        raise ValidationError(f"total time must be positive and finite, got {total_time!r}")
    if not is_integer(trajectory_count) or trajectory_count < 1:
        raise ValidationError("trajectory count must be a positive integer")
    if not is_integer(seed) or not 0 <= int(seed) < 2**64:
        raise ValidationError("seed must be an unsigned 64-bit integer")
    n = params.n
    require_dynamics_size(n)
    if noise.n != n:
        raise ValidationError(f"noise coupling is for {noise.n} spins, cluster has {n}")
    has_noise = noise.has_noise
    if has_noise and noise.kind == "ou" and noise.correlation_time is None:
        raise ValidationError("OU noise needs a correlation time")
    dim = params.dim
    sizes = (len(ground.amplitudes), len(lem.amplitudes))
    if sizes != (dim, dim):
        raise ValidationError(f"dressed states have {sizes} amplitudes, the {n}-spin cluster {dim}")
    if same_eigenstate(ground, lem):
        raise ValidationError("both anchors dress to the same eigenstate")

    dt = float(time_step)
    levels = cluster_levels(params)
    spread = float(levels[-1] - levels[0])
    if dt * spread > STABILITY_LIMIT:
        raise ValidationError(
            f"time step {dt:.3e} violates the stability criterion: "
            f"dt * spectral spread = {dt * spread:.3e} > {STABILITY_LIMIT}"
        )
    # the cap comes before the ceiling, which cannot take an infinite quotient
    planned = math.inf if total_time is None else total_time / dt
    steps = MAX_STEPS if planned >= MAX_STEPS else max(1, math.ceil(planned))
    ntraj = int(trajectory_count)
    bounds = _shard_bounds(dim, ntraj, steps)
    _require_memory(n, ntraj, min(_CHUNK_STEPS, steps) if has_noise else 0, len(bounds) - 1)
    # centering the spectrum minimizes phase advance per step (global phase only)
    basis_of = functools.partial(_SpinBasis, params, ground, lem, 0.5 * (levels[0] + levels[-1]))
    return _integrate(basis_of, bounds, noise, dt, steps, int(seed))


def _shard_bounds(dim: int, ntraj: int, steps: int) -> list[int]:
    """Trajectory bounds ``[0, b_1, ..., ntraj]`` of a run's shards, one per
    process: as many as the usable CPUs, the trajectories in blocks of
    ``_SHARD_ALIGN``, dim * ntraj in units of ``_SHARD_WIDTH`` and dim *
    ntraj * steps in units of ``_SHARD_WORK`` allow.  One shard, the run in
    this process alone, where ``os.fork`` is missing or another Python
    thread runs, which a forked child could find holding a lock.  The
    bounds are multiples of ``_SHARD_ALIGN``, and the first shard, whose
    process also sums the records, is the smallest."""
    width = dim * ntraj
    workers = min(ntraj // _SHARD_ALIGN, width // _SHARD_WIDTH, width * steps // _SHARD_WORK)
    if workers < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return [0, ntraj]
    workers = min(workers, cluster._usable_cpus())  # probed only where it can matter
    return [_SHARD_ALIGN * (k * ntraj // (_SHARD_ALIGN * workers)) for k in range(workers)] + [ntraj]


def _record_floats(ntraj: int, shards: int, per_sync: int) -> int:
    """Float64 count of the record buffer: ``per_sync`` records of every
    trajectory's complex coherence, then each shard's largest drift per
    record and its first failing step and drift."""
    return 2 * per_sync * ntraj + shards * (per_sync + 2)


class _SpinBasis:
    """The 2^n configurations of an n-spin cluster as a trajectory basis.

    H plus the noise frozen across a step is the diagonal
    E_c + sum_i f_i xi_i s_i plus one bit flip per spin with coefficient
    c_i + g_i eta_i, coefficient i repeated over the 1 << i rows of
    ``coef_rows[i]``; the noise rewrites only their real parts, so the
    imaginary parts stay 0.
    """

    def __init__(self, params: ClusterParams, ground: DressedState, lem: DressedState,
                 shift: float, ntraj: int) -> None:
        n, dim = params.n, params.dim
        self.e_c = (classical_energies(params) - shift)[:, None]
        self.c_amp = c_amp = params.tunneling[:, None]
        self.signs = sign_table(n)  # (dim, n)
        vg, vl = self.anchors = ground.amplitudes, lem.amplitudes
        psi = np.repeat(((vg + vl) / math.sqrt(2.0)).astype(complex)[:, None], ntraj, axis=1)
        self.states = psi, np.empty_like(psi)
        self.diag = np.broadcast_to(self.e_c, (dim, ntraj)).astype(complex)
        rows = np.repeat(
            np.broadcast_to(c_amp, (n, ntraj)).astype(complex), [1 << i for i in range(n)], axis=0
        )
        self.coef_rows = [rows[(1 << i) - 1 : (2 << i) - 1] for i in range(n)]
        # the product's buffer and its scratch
        self.out, self.tmp = np.empty_like(psi), np.empty_like(psi)
        # between applies the first half of tmp's bytes hold the sigma^z field
        self.field = self.tmp.reshape(-1).view(float)[: dim * ntraj].reshape(dim, ntraj)

        def bit_views(buf):
            # (high bits, bit i, low bits, trajectory): reversing axis 1 applies sigma^x_i
            return [buf.reshape(dim >> (i + 1), 2, 1 << i, ntraj) for i in range(n)]

        self.flipped = {id(buf): [v[:, ::-1] for v in bit_views(buf)] for buf in self.states}
        self.tmp_views = bit_views(self.tmp)

    def set_noise(self, scaled: np.ndarray) -> None:
        """Fold one step's noise times its amplitudes, ``(2, n, ntraj)`` with
        [0] on sigma^z and [1] on sigma^x, into the diagonal and the flip
        coefficients.  Overwrites ``scaled[1]``."""
        np.matmul(self.signs, scaled[0], out=self.field)
        np.add(self.e_c, self.field, out=self.diag.real)
        coef = np.add(self.c_amp, scaled[1], out=scaled[1])
        for i, coef_row in enumerate(self.coef_rows):
            np.copyto(coef_row.real, coef[i])

    def apply(self, src: np.ndarray) -> np.ndarray:
        """(H + noise) src, into a buffer of the basis's own that stays free
        until the next call."""
        np.multiply(self.diag, src, out=self.out)
        for i, src_flip in enumerate(self.flipped[id(src)]):
            np.multiply(src_flip, self.coef_rows[i], out=self.tmp_views[i])
            np.add(self.out, self.tmp, out=self.out)
        return self.out

    def project(self, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each trajectory's amplitudes <ground|psi> and <lem|psi>."""
        return self.anchors[0] @ psi, self.anchors[1] @ psi


class _Shard:
    """The trajectories of one basis: their noise stream, the step, the
    renormalization and its drift guard, and their records."""

    def __init__(self, basis, noise: CouplingSpec, dt: float, steps: int, children) -> None:
        psi, acc = basis.states
        n, ntraj = noise.n, psi.shape[1]
        self.basis, self.psi, self.has_noise, self.steps = basis, psi, noise.has_noise, steps
        # noise state, both channels together: [0] drives sigma^z, [1] sigma^x
        self.state = np.zeros((2, n, ntraj))
        if noise.has_noise:
            self.rngs = [np.random.default_rng(c) for c in children]
            # state = decay * state + kick * normal; white noise keeps no memory
            if noise.kind == "ou":
                self.decay = math.exp(-dt / noise.correlation_time)
                self.kick = math.sqrt(1.0 - self.decay**2)
                self.state = np.stack([r.standard_normal((2, n)) for r in self.rngs], axis=-1)
            else:
                self.decay, self.kick = 0.0, 1.0 / math.sqrt(dt)
            # trajectory-major, so each Generator fills its own contiguous row in place
            self.block = np.empty((ntraj, min(_CHUNK_STEPS, steps), 2, n))
            self.amps = np.stack([noise.z_noise, noise.x_noise])[:, :, None]
            self.scaled = np.empty_like(self.state)
        self.norms = np.empty(ntraj)
        self.top = 0.0  # the largest norm drift so far
        # each trajectory's 1 / norm twice, once for the real and once for the imaginary part
        self.pairs = np.empty((ntraj, 2))
        # (rows, ntraj, 2) float view: a trajectory's real and imaginary parts side by side
        self.planes = psi.view(float).reshape(*psi.shape, 2)
        # Horner stage m: dst = psi + (-i dt / m) (H + noise) src, for m = 4, 3, 2, 1;
        # the last stage writes psi in place, so psi stays in its buffer
        self.stages = [(psi, -1j * dt / 4, acc), (acc, -1j * dt / 3, acc),
                       (acc, -1j * dt / 2, acc), (acc, -1j * dt, psi)]

    def advance(self, start: int, stop: int) -> tuple[int, float] | None:
        """Integrate steps ``start`` to ``stop - 1``, raising ``top`` to
        their largest norm drift.  Returns None, or, at the first step whose
        drift fails the guard, that step and drift, where the shard stops."""
        basis, psi, state, norms = self.basis, self.psi, self.state, self.norms
        top = self.top
        for step in range(start, stop):
            if self.has_noise:
                block = self.block
                pos = step % _CHUNK_STEPS
                if pos == 0:
                    remaining = min(_CHUNK_STEPS, self.steps - step)
                    for t, r in enumerate(self.rngs):
                        r.standard_normal(out=block[t, :remaining])
                    block[:, :remaining] *= self.kick
                state *= self.decay
                state += block[:, pos].transpose(1, 2, 0)  # (2, n, ntraj)
                np.multiply(self.amps, state, out=self.scaled)
                basis.set_noise(self.scaled)
            # the generator is linear and frozen across the step, so the classical
            # 4-stage scheme collapses to its 4th-order polynomial (Horner form)
            for src, scale, dst in self.stages:
                k_buf = basis.apply(src)
                k_buf *= scale
                np.add(k_buf, psi, out=dst)
            # np.linalg.norm(psi, axis=0) in its own steps, in apply's free buffer:
            # sqrt(add.reduce(real(conj(psi) * psi)))
            np.conjugate(psi, out=k_buf)
            k_buf *= psi
            np.add.reduce(k_buf.real, axis=0, out=norms)
            np.sqrt(norms, out=norms)
            # max |norms - 1|: nu - 1 is exact for nu in [1/2, 2] and rounds monotonically
            # outside, and max and min carry a NaN or an inf
            drift = max(float(norms.max()) - 1.0, 1.0 - float(norms.min()))
            # written so that a NaN drift fails it too; only an overflow makes it NaN or inf
            if not drift <= NORM_DRIFT_LIMIT:
                self.top = top
                return step, drift
            top = max(top, drift)
            # numpy divides a complex by a real b as (re, im) * (1 / b): psi /= norms
            np.divide(1.0, norms[:, None], out=self.pairs)
            self.planes *= self.pairs
        self.top = top
        return None

    def run(self, records: range, step_of, rows: np.ndarray, drifts: np.ndarray,
            fail: np.ndarray) -> bool:
        """For each record k of ``records``, the steps since record k - 1,
        then the largest drift so far into ``drifts`` and each trajectory's
        coherence <ground|psi><psi|lem> into the record's row of ``rows``
        (both indexed from ``records.start``).  At a failing step its step
        and drift go into ``fail`` and the shard stops; returns whether it
        ran through."""
        for k in records:
            if k:
                failure = self.advance(step_of(k - 1), step_of(k))
                if failure:
                    fail[:] = failure
                    return False
            drifts[k - records.start] = self.top
            a_g, a_l = self.basis.project(self.psi)
            np.multiply(a_g, np.conj(a_l), out=rows[k - records.start])
        return True


class _Workers:
    """The forked processes that integrate a run's later shards.

    Each worker runs its shard a chunk of records at a time, writes a byte
    to its ready pipe after each chunk, 0 when it ran through and 1 when a
    step failed, and waits for a byte on its go pipe before the next; end
    of file on the go pipe stops it.  Leaving the ``with`` block kills and
    reaps every worker still there, also on an error.
    """

    def __init__(self) -> None:
        self.procs: list[tuple[int, int, int]] = []  # (pid, ready read end, go write end)

    def __enter__(self) -> _Workers:
        return self

    def __exit__(self, *exc) -> None:
        for pid, ready, go in self.procs:
            os.close(ready)
            os.close(go)
            os.kill(pid, signal.SIGKILL)  # a no-op on a worker that has exited
            os.waitpid(pid, 0)
        self.procs.clear()

    def fork(self, serve) -> None:
        """Fork a worker that calls ``serve(ready, go)`` with its ends of the
        two pipes and leaves with ``os._exit``: status 0 when ``serve``
        returns, 1 when it raises."""
        ready_r, ready_w = os.pipe()
        go_r, go_w = os.pipe()
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns of a fork beside other threads; _shard_bounds
                # shards only without other Python threads, and OpenBLAS's own
                # fork handler stops its pool before the fork
                warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
                pid = os.fork()
        except BaseException:
            for fd in (ready_r, ready_w, go_r, go_w):
                os.close(fd)
            raise
        if pid == 0:
            status = 1
            try:
                # so that each pipe reports end of file when its one other holder exits
                for fd in (ready_r, go_w, *(fd for _, r, g in self.procs for fd in (r, g))):
                    os.close(fd)
                serve(ready_w, go_r)
                status = 0
            except Exception:
                import traceback  # only here: a worker's failure is rare

                traceback.print_exc()  # the run reports the exit status alone
                sys.stderr.flush()
            finally:
                os._exit(status)
        os.close(ready_w)
        os.close(go_r)
        self.procs.append((pid, ready_r, go_w))

    def wait(self) -> bool:
        """Wait for every worker's chunk; True when each ran it through.
        ChildProcessError names a worker that ended before it."""
        through = True
        for index, (pid, ready, go) in enumerate(self.procs):
            byte = os.read(ready, 1)
            through = through and byte == b"\0"
            if not byte:
                os.close(ready)
                os.close(go)
                del self.procs[index]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
                raise ChildProcessError(f"trajectory worker {pid} {how} before its records")
        return through

    def go(self) -> None:
        """Let every worker run its next chunk."""
        for _, _, go in self.procs:
            os.write(go, b"\0")


def _integrate(basis_of, bounds: list[int], noise: CouplingSpec, dt: float, steps: int,
               seed: int) -> CoherenceTrace:
    """Integrate ``bounds[-1]`` trajectories from the start state of their
    basis, ``steps`` steps of ``dt``, trajectory k drawing its noise from
    child k of ``np.random.SeedSequence(seed)``; record, stop early and fit.

    ``basis_of(width)`` makes the basis of ``width`` trajectories, a
    ``_SpinBasis`` or any object with its ``states``, ``set_noise`` (called
    only when ``noise.has_noise``), ``apply`` and ``project``.  The state
    stays in ``states[0]``, which every ``project`` call receives;
    ``states[1]`` accumulates the first three Horner stages.

    Trajectories ``bounds[s]`` to ``bounds[s + 1] - 1`` form shard s, each
    with a basis of its own.  This process integrates shard 0 and a forked
    worker each later one, all on one BLAS thread; the shards meet in a
    shared buffer after every ``_SYNC_RECORDS`` records.  This process then
    goes through the records in step order as one shard would: it sums each
    record over all trajectories, stops early, tracks the largest drift
    and raises the first drift failure.  With one shard nothing is forked
    and the records are summed one at a time.
    """
    ntraj, shards = bounds[-1], len(bounds) - 1
    record_every = max(1, steps // RECORD_SAMPLES)
    last = -(-steps // record_every)  # the final record's index, at step ``steps``

    def step_of(k: int) -> int:
        return min(k * record_every, steps)

    per_sync = 1 if shards == 1 else _SYNC_RECORDS
    chunks = [range(k, min(k + per_sync, last + 1)) for k in range(0, last + 1, per_sync)]
    size = _record_floats(ntraj, shards, per_sync)
    # a run of several shards keeps its records in memory that the forks share
    memory = np.zeros(size) if shards == 1 else np.frombuffer(mmap.mmap(-1, 8 * size), float)
    rows = memory[: 2 * per_sync * ntraj].view(complex).reshape(per_sync, ntraj)
    drifts = memory[2 * per_sync * ntraj : size - 2 * shards].reshape(shards, per_sync)
    fails = memory[size - 2 * shards :].reshape(shards, 2)  # (step, drift), step inf: none
    fails[:, 0] = math.inf
    children = np.random.SeedSequence(seed).spawn(ntraj) if noise.has_noise else None

    def shard(s: int) -> tuple[_Shard, np.ndarray]:
        """Shard s and its columns of ``rows``."""
        lo, hi = bounds[s], bounds[s + 1]
        return _Shard(basis_of(hi - lo), noise, dt, steps, children and children[lo:hi]), rows[:, lo:hi]

    def serve(s: int, ready: int, go: int) -> None:
        mine, columns = shard(s)
        for records in chunks:
            ran = mine.run(records, step_of, columns, drifts[s], fails[s])
            os.write(ready, b"\0" if ran else b"\1")
            if not ran or records.stop > last or not os.read(go, 1):
                return

    times: list[float] = []
    coh: list[float] = []
    ens: list[float] = []
    done = steps  # steps actually integrated
    with warnings.catch_warnings(), _lapack.one_thread(), _Workers() as workers:
        # an overflow shows as the drift guard's error alone, not as numpy's warnings first
        warnings.filterwarnings("ignore", r"(overflow|invalid value) encountered", RuntimeWarning)
        old_bufsize = np.setbufsize(_UFUNC_BUFFER)
        try:
            for s in range(1, shards):
                workers.fork(functools.partial(serve, s))
            mine, columns = shard(0)
            for records in chunks:
                ran = mine.run(records, step_of, columns, drifts[0], fails[0])
                # the shards' first failing step, if one failed
                first = math.inf if workers.wait() and ran else float(fails[:, 0].min())
                for k in records:
                    if first < step_of(k):
                        # the run's drift at that step: the largest of the shards failing
                        # there, a NaN if any
                        drift = float(np.max(fails[fails[:, 0] == first, 1]))
                        raise IntegrationError(
                            f"norm drift {drift:.3e} exceeds {NORM_DRIFT_LIMIT} at t={first * dt:.4g}; "
                            f"{'reduce the time step' if math.isfinite(drift) else 'overflow: check the noise amplitudes'}"
                        )
                    z = rows[k - records.start]
                    # compensated summation: the averages are independent of trajectory order
                    c = math.fsum(np.abs(z).tolist()) / ntraj
                    # |mean z| is invariant under the deterministic splitting-frequency
                    # rotation, which therefore needs no explicit removal
                    e = abs(complex(math.fsum(z.real.tolist()), math.fsum(z.imag.tolist()))) / ntraj
                    times.append(step_of(k) * dt)
                    coh.append(c)
                    ens.append(e)
                    if c <= EARLY_STOP_FLOOR and e <= EARLY_STOP_FLOOR:
                        done = step_of(k)
                        break
                if done < steps or records.stop > last:
                    break
                workers.go()
            # every shard's largest drift before the last record taken
            max_drift = float(drifts[:, k - records.start].max())
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
        trajectory_count=ntraj,
        total_steps=done,
        max_drift=max_drift,
    )
