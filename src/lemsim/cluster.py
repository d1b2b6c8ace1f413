"""Pseudo-spin cluster model: parameters, number-state basis, classical
energies and the degeneracy tolerance built from them, Hamming distance and
dense Hamiltonian assembly.

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
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import CapacityError, ValidationError

# bounds the matrix-free routes' 2^n tables, the config's scalar broadcast and
# the 8^n dense solve time; dense storage is checked against the memory
# available (ROADMAP item 6 moves this cap into the dense solvers)
MAX_SPINS = 14

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


@dataclass(frozen=True)
class ClusterParams:
    """Static cluster parameters.

    Attributes:
        n: number of pseudo-spins, 1 <= n <= 14.
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
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValidationError(f"cluster size must be a positive integer, got {self.n!r}")
        if self.n > MAX_SPINS:
            raise CapacityError(f"cluster size {self.n} exceeds the dense budget of {MAX_SPINS} spins")
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
            if not np.all(np.isfinite(arr)):
                raise ValidationError(f"{name} contains non-finite entries")
        if not np.array_equal(j, j.T):
            raise ValidationError("couplings matrix must be symmetric")
        if np.any(np.diag(j) != 0.0):
            raise ValidationError("couplings matrix must have zero diagonal")
        with np.errstate(over="ignore"):
            scale = np.abs(np.triu(j)).sum() + np.abs(b).sum() + np.abs(c).sum()
        if not scale <= ENERGY_SCALE_LIMIT:
            raise ValidationError(
                f"sum of |couplings| (i<j), |bias| and |tunneling| is {scale:.6g}, over the "
                f"{ENERGY_SCALE_LIMIT:.6g} that keeps energies and their spread finite"
            )
        object.__setattr__(self, "couplings", j)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "tunneling", c)

    @property
    def dim(self) -> int:
        return 1 << self.n

    @cached_property
    def _energies(self) -> np.ndarray:
        # couplings and bias are read-only, so the table cannot go stale
        table = _energy_table(self.couplings, self.bias)
        table.setflags(write=False)
        return table

    def with_tunneling(self, tunneling) -> ClusterParams:
        """The same cluster with other tunneling amplitudes.  Tunneling leaves
        the classical energies unchanged, so a table already built is shared."""
        other = replace(self, tunneling=tunneling)
        if "_energies" in vars(self):
            vars(other)["_energies"] = self._energies
        return other


def uniform_couplings(n: int, j: float) -> np.ndarray:
    """All-pairs coupling matrix with a single strength ``j``."""
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
    if not isinstance(config, (int, np.integer)):
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


def popcounts(values: np.ndarray, n: int) -> np.ndarray:
    """Number of set bits for each entry of an integer array (width n)."""
    v = np.asarray(values, dtype=np.int64)
    bits = (v[..., None] >> np.arange(n)) & 1
    return bits.sum(axis=-1)


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


def configuration_energies(params: ClusterParams, configs) -> np.ndarray:
    """Classical energies of the given configurations, read from the table.

    Each entry equals ``classical_energy`` of its configuration bit for bit.
    """
    return classical_energies(params)[np.asarray(configs, dtype=np.int64)]


def classical_energies(params: ClusterParams) -> np.ndarray:
    """Classical energies of all 2^n configurations, indexed by basis index.

    Read-only, and built once per ``ClusterParams``; each entry equals
    ``classical_energy`` of its configuration bit for bit.
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
    spin i; all other entries vanish.
    """
    dim = params.dim
    energies = classical_energies(params)  # its scratch is gone before H exists
    h = np.zeros((dim, dim))
    idx = np.arange(dim)
    h[idx, idx] = energies
    for i in range(params.n):
        h[idx, idx ^ (1 << i)] = params.tunneling[i]
    return h
