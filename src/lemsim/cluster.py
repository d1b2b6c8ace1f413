"""Pseudo-spin cluster model: parameters, number-state basis, classical
energies and the degeneracy tolerance built from them, Hamming distance,
dense Hamiltonian assembly and the memory pre-flight every route that
allocates something of size 2^n runs first.

Conventions used throughout the package:

* A spin configuration is a plain ``int`` in ``[0, 2**n)``; bit ``i`` is the
  state of spin ``i``.  Bit value 1 means sigma^z eigenvalue +1 ("up"),
  bit value 0 means -1 ("down").
* The basis index of a configuration is the integer itself, so index 0 is
  the all-down state.
* Bitstrings are rendered with spin 0 as the *leftmost* character, e.g. for
  n=3 the integer 1 renders as ``"100"``.
* The pair interaction energy is ``sum_{i<j} J_ij s_i s_j`` with each pair
  counted once.  Callers holding coefficients from an ordered (i != j)
  double sum must supply entries twice as large.

The one size limit every cluster is held to is ``MAX_SPINS``, set by the
number format (``require_size``).  Below it, a route that allocates
something of size 2^n checks what it needs against the memory available
(``_require_memory``) before it allocates, as the energy table and
``build_hamiltonian`` do here for every caller.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CapacityError, ValidationError, is_integer

# 2^n and every binomial C(n, k) are finite doubles up to here
# (float(math.comb(1030, 515)) overflows), as the Dicke chain's site
# amplitudes c_k / sqrt(C(n, k)) need
MAX_SPINS = 1023

# _energy_table's intermediates are partial sums: of an entry of s.J, at most
# sum_i |J_ij|; of s.J.s, at most sum_{i!=j} |J_ij|; of b.s, at most sum |b_i|.
# Every classical energy lies within sum_{i<j} |J_ij| + sum |b_i| of zero,
# and the spectrum of H within a further sum |c_i| (Gershgorin).  So the
# table, every energy difference and the spectral spread stay below twice
# S = sum_{i<j} |J_ij| + sum |b_i| + sum |c_i|.  Capping S at a quarter of
# the largest double keeps 2 S finite with a factor 2 to spare for rounding.
ENERGY_SCALE_LIMIT = np.finfo(float).max / 4


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class ClusterParams:
    """Static cluster parameters.  Two clusters compare equal, and hash,
    by identity: their fields are arrays.

    Attributes:
        n: number of pseudo-spins, 1 <= n <= ``MAX_SPINS``.
        couplings: symmetric (n, n) matrix of pairwise sigma^z-sigma^z
            couplings with zero diagonal (energy units).
        bias: length-n vector of on-site energy biases.
        tunneling: length-n vector of on-site tunneling amplitudes
            (sigma^x coefficients).
    """

    n: int
    couplings: np.ndarray = field(repr=False)
    bias: np.ndarray = field(repr=False)
    tunneling: np.ndarray = field(repr=False)

    def __post_init__(self):
        require_spin_count(self.n)
        require_size(self.n)
        j = _as_readonly(self.couplings)
        b = _as_readonly(self.bias)
        c = _as_readonly(self.tunneling)
        if j.shape != (self.n, self.n):
            raise ValidationError(f"couplings must have shape ({self.n}, {self.n}), got {j.shape}")
        if b.shape != (self.n,):
            raise ValidationError(f"bias must have length {self.n}, got shape {b.shape}")
        if c.shape != (self.n,):
            raise ValidationError(f"tunneling must have length {self.n}, got shape {c.shape}")
        for name, arr in (("couplings", j), ("bias", b), ("tunneling", c)):
            if not np.isfinite(arr).all():
                raise ValidationError(f"{name} contains non-finite entries")
        if not (j == j.T).all():
            raise ValidationError("couplings matrix must be symmetric")
        if j.diagonal().any():
            raise ValidationError("couplings matrix must have zero diagonal")
        with np.errstate(over="ignore"):
            require_scale(np.abs(np.triu(j)).sum() + np.abs(b).sum() + np.abs(c).sum())
        object.__setattr__(self, "couplings", j)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "tunneling", c)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def collective(self) -> tuple[float, float, float] | None:
        """``(j, b, c)`` when all pair couplings, all biases and all tunneling
        entries are exactly equal, None otherwise; a single spin has j = 0.
        The one scan of the couplings: every route that asks whether the
        cluster is collective reads it here."""
        n = self.n
        # the n - 1 rows of n + 1 entries after the first hold the off-diagonal
        # entries of an n x n matrix, each row ending on a diagonal one
        pairs = self.couplings.ravel()[1:].reshape(n - 1, n + 1)[:, :-1].ravel()
        for values in (pairs, self.bias, self.tunneling):
            if (values != values[:1]).any():
                return None
        j = float(pairs[0]) if pairs.size else 0.0
        return j, float(self.bias[0]), float(self.tunneling[0])

    @cached_property
    def _energies(self) -> np.ndarray:
        # couplings and bias are read-only, so the table cannot go stale;
        # its (n, 2^n) scratch and two 2^n sums are checked before they exist
        _require_memory(8 * (self.n + 2) << self.n, f"the energy table of a {self.n}-spin cluster")
        table = _energy_table(self.couplings, self.bias)
        table.setflags(write=False)
        return table


def require_spin_count(n) -> None:
    """Raise ValidationError unless ``n`` is a positive integer and not a bool."""
    if not is_integer(n) or n < 1:
        raise ValidationError(f"cluster size must be a positive integer, got {n!r}")


def require_size(n: int, what: str = "cluster size") -> None:
    """Raise CapacityError when ``n`` spins exceed ``MAX_SPINS``; ``what``
    names the value in the message."""
    if n > MAX_SPINS:
        raise CapacityError(
            f"{what} {n} exceeds {MAX_SPINS} spins, the most whose 2^n and binomials C(n, k) "
            "are finite doubles"
        )


def _read(path: str) -> bytes | None:
    """A kernel file's bytes (each one read here is far below 64 KiB), or
    None when it cannot be read.  One ``os.read`` skips the buffered text
    layer of ``open``, which costs more than the read itself."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return None
    try:
        return os.read(fd, 65536)
    except OSError:
        return None
    finally:
        os.close(fd)


def _read_int(path: str) -> int | None:
    """The integer a one-line kernel file starts with; None when the file is
    unreadable or holds no integer (cgroup v2 writes ``max`` for no limit)."""
    words = (_read(path) or b"").split()
    try:
        return int(words[0])
    except (ValueError, IndexError):
        return None


def _cgroup_dirs(controller: str, proc: str, cgroup_fs: str):
    """Yield ``(v2, directory)`` for this process's cgroup under
    ``controller`` and each of its ancestors, root first.

    cgroup v2 (``0::path`` in ``/proc/self/cgroup``) is read under the
    unified hierarchy, mounted at ``cgroup_fs`` or, on hybrid systems, at
    ``cgroup_fs/unified``; cgroup v1 under ``cgroup_fs/<controller>``.
    """
    for line in (_read(f"{proc}/self/cgroup") or b"").decode("utf-8", "replace").splitlines():
        fields = line.split(":", 2)
        if len(fields) != 3:
            continue
        hierarchy, controllers, path = fields
        if hierarchy == "0" and not controllers:
            v2, mounts = True, ("", "/unified")
        elif controller in controllers.split(","):
            v2, mounts = False, (f"/{controller}",)
        else:
            continue
        parts = [part for part in path.split("/") if part]
        for mount in mounts:
            directory = cgroup_fs + mount
            for part in ["", *parts]:
                directory = f"{directory}/{part}" if part else directory
                yield v2, directory


def _cgroup_headroom(proc: str, cgroup_fs: str) -> int | None:
    """Smallest ``limit - usage`` over this process's memory cgroups and their
    ancestors, or None when none of them sets a readable limit: v2's
    ``memory.max`` and ``memory.current``, v1's ``memory.limit_in_bytes``
    and ``memory.usage_in_bytes``.  Usage counts the page cache, so the
    headroom errs low.  Usage is read only under a limit: cgroup v1 writes a
    number of at least 2^62 for no limit.
    """
    headroom = None
    for v2, directory in _cgroup_dirs("memory", proc, cgroup_fs):
        limit_file, usage_file = (
            ("memory.max", "memory.current") if v2 else ("memory.limit_in_bytes", "memory.usage_in_bytes")
        )
        limit = _read_int(f"{directory}/{limit_file}")
        if limit is None or limit >= 1 << 62:
            continue
        usage = _read_int(f"{directory}/{usage_file}")
        if usage is not None:
            room = max(0, limit - usage)
            headroom = room if headroom is None else min(headroom, room)
    return headroom


def _usable_cpus(proc: str = "/proc", cgroup_fs: str = "/sys/fs/cgroup") -> int:
    """CPUs this process can keep busy at once: its affinity set, capped by
    the smallest CPU quota of its cgroups and their ancestors (v2's
    ``cpu.max``, v1's ``cpu.cfs_quota_us`` over ``cpu.cfs_period_us``),
    rounded down and at least 1."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    for v2, directory in _cgroup_dirs("cpu", proc, cgroup_fs):
        if v2:  # "quota period", or "max period" for none
            words = (_read(f"{directory}/cpu.max") or b"").split()
        else:  # a quota of -1 for none
            words = [_read(f"{directory}/cpu.cfs_{name}_us") or b"" for name in ("quota", "period")]
        try:
            quota, period = int(words[0]), int(words[1])
        except (ValueError, IndexError):
            continue
        if quota > 0 and period > 0:
            cpus = min(cpus, quota // period)
    return max(1, cpus)


def _available_memory(proc: str = "/proc", cgroup_fs: str = "/sys/fs/cgroup") -> int | None:
    """Bytes this process can still allocate, or None when unknown: the
    kernel's ``MemAvailable``, lowered to the headroom under any memory
    cgroup limit."""
    meminfo = None
    for line in (_read(f"{proc}/meminfo") or b"").splitlines():
        if line.startswith(b"MemAvailable:"):
            try:
                meminfo = int(line.split()[1]) * 1024
            except (ValueError, IndexError):
                pass
            break
    figures = [f for f in (meminfo, _cgroup_headroom(proc, cgroup_fs)) if f is not None]
    return min(figures) if figures else None


def _require_memory(needed: int, what: str) -> None:
    """Raise CapacityError when ``what`` needs more than the memory available.
    The memory is probed on every call: it changes as the process runs."""
    available = _available_memory()
    if available is not None and needed > available:
        # a count past 64 bits (2^n for n up to MAX_SPINS) is named by its power of two
        amount = needed if needed < 1 << 64 else f"at least 2^{needed.bit_length() - 1}"
        raise CapacityError(f"{what} needs {amount} bytes, {available} bytes of memory available")


def require_scale(scale: float) -> None:
    """Refuse a cluster whose energy scale S, the sum of |couplings| (i<j),
    |bias| and |tunneling|, breaks ``ENERGY_SCALE_LIMIT``."""
    if not scale <= ENERGY_SCALE_LIMIT:
        raise ValidationError(
            f"sum of |couplings| (i<j), |bias| and |tunneling| is {scale:.6g}, over the "
            f"{ENERGY_SCALE_LIMIT:.6g} that keeps energies and their spread finite"
        )


def uniform_couplings(n: int, j: float) -> np.ndarray:
    """All-pairs coupling matrix with a single strength ``j``; ValidationError
    unless ``n`` is a positive integer."""
    require_spin_count(n)
    m = np.full((n, n), float(j))
    np.fill_diagonal(m, 0.0)
    return m


def config_to_bits(config: int, n: int) -> str:
    """Render a configuration as a bitstring, spin 0 leftmost."""
    return "".join("1" if (config >> i) & 1 else "0" for i in range(n))


def bits_to_config(bits: str) -> int:
    """Parse a bitstring (spin 0 leftmost) into a configuration integer."""
    if not bits or any(ch not in "01" for ch in bits):
        raise ValidationError(f"not a bitstring: {bits!r}")
    return sum(1 << i for i, ch in enumerate(bits) if ch == "1")


def validate_config(n: int, config: int, what: str = "configuration") -> int:
    if not is_integer(config):
        raise ValidationError(f"{what} must be an integer, got {type(config).__name__}")
    config = int(config)
    if config < 0 or config >> n:
        raise ValidationError(f"{what} {config} does not fit in {n} bits")
    return config


def sign_table(n: int) -> np.ndarray:
    """(2^n, n) table of sigma^z eigenvalues for every basis configuration.

    Filled one spin at a time, so nothing else of the table's size is held.
    """
    configs = np.arange(1 << n, dtype=np.int64)
    s = np.empty((1 << n, n))
    for i in range(n):
        s[:, i] = (configs >> i) & 1
    s *= 2.0
    s -= 1.0
    return s


def hamming_distance(x: int, y: int) -> int:
    """Number of spins on which two configurations differ."""
    return int(x ^ y).bit_count()


def _energy_table(couplings: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Energies 0.5·(s·J·s) + b·s of all 2^n configurations, by basis index.

    Every sum runs left to right from 0: each entry of s·J over ascending
    i, then the quadratic sum over ascending columns, then b·s.  A partial
    sum over spins 0..i-1 depends only on those bits, so it is formed once
    per 2^i prefix and then doubled: minus row i of J (or b_i) gives the
    prefixes with bit i down, plus it those with bit i up.  The quadratic
    pass then subtracts column j of s·J where bit j is 0 and adds it where
    bit j is 1.  Adding s_i·x with s_i = ±1 is adding or subtracting x, so
    these are the same roundings as the sums in that order, at O(n·2^n)
    cost.  The scratch is the (n, 2^n) table of s·J.  Only binary ufuncs
    with ``out=`` touch the strided half-views: numpy 2.4's in-place
    ``np.negative`` negates the wrong elements of some of them.
    """
    n = len(bias)
    dim = 1 << n
    sj = np.zeros((n, dim))  # column k of s·J, one row per k
    lin = np.zeros(dim)
    for i in range(n):
        half = 1 << i
        row = couplings[i][:, None]
        np.add(sj[:, :half], row, out=sj[:, half : 2 * half])
        np.subtract(sj[:, :half], row, out=sj[:, :half])
        np.add(lin[:half], bias[i], out=lin[half : 2 * half])
        np.subtract(lin[:half], bias[i], out=lin[:half])
    quad = np.zeros(dim)
    for j in range(n):
        q = quad.reshape(-1, 2, 1 << j)
        col = sj[j].reshape(-1, 2, 1 << j)
        np.subtract(q[:, 0], col[:, 0], out=q[:, 0])
        np.add(q[:, 1], col[:, 1], out=q[:, 1])
    # couplings has zero diagonal, so 0.5 * s.J.s counts each pair once
    return np.add(np.multiply(0.5, quad, out=quad), lin, out=quad)


def classical_energy(params: ClusterParams, config: int) -> float:
    """Diagonal energy sum_{i<j} J_ij s_i s_j + sum_i B_i s_i of one configuration."""
    config = validate_config(params.n, config)
    return float(classical_energies(params)[config])


def classical_energies(params: ClusterParams) -> np.ndarray:
    """Classical energies of all 2^n configurations, indexed by basis index.

    Read-only, and built once per ``ClusterParams``; each entry equals
    ``classical_energy`` of its configuration bit for bit.  Raises
    CapacityError before the build when its 8·(n+2)·2^n bytes do not fit.
    """
    return params._energies


def _spread_tolerance(energies: np.ndarray) -> float:
    return 1e-9 * float(energies.max() - energies.min())


def degeneracy_tolerance(params: ClusterParams) -> float:
    """Default tolerance separating true degeneracy from floating-point ties."""
    return _spread_tolerance(classical_energies(params))


def build_hamiltonian(params: ClusterParams) -> np.ndarray:
    """Assemble the dense symmetric Hamiltonian matrix.

    The diagonal holds the classical energies; the entry between two
    configurations differing only on spin i is the tunneling amplitude of
    spin i; all other entries vanish.  Raises CapacityError before anything
    is built, the energy table included, when H alone, 8·4^n bytes, does not
    fit in the memory available.
    """
    dim = params.dim
    _require_memory(8 * dim**2, f"the Hamiltonian of a {params.n}-spin cluster")
    energies = classical_energies(params)  # its scratch is gone before H exists
    h = np.zeros((dim, dim))
    idx = np.arange(dim)
    h[idx, idx] = energies
    for i in range(params.n):
        h[idx, idx ^ (1 << i)] = params.tunneling[i]
    return h
