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

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, ValidationError

MAX_SPINS = 14  # dense 2^n x 2^n storage budget

# _energy_kernel's largest intermediate, s.J.s, is at most sum_{i!=j} |J_ij|;
# every classical energy lies within sum_{i<j} |J_ij| + sum |b_i| of zero,
# and the spectrum of H within a further sum |c_i| (Gershgorin).  So the
# kernel, every energy difference and the spectral spread stay below twice
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


def spin_values(n: int, config: int) -> np.ndarray:
    """Vector of sigma^z eigenvalues (+1/-1) for a configuration."""
    bits = (config >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def sign_table(n: int) -> np.ndarray:
    """(2^n, n) table of sigma^z eigenvalues for every basis configuration."""
    idx = np.arange(1 << n, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n)) & 1
    return 2.0 * bits - 1.0


def popcounts(values: np.ndarray, n: int) -> np.ndarray:
    """Number of set bits for each entry of an integer array (width n)."""
    v = np.asarray(values, dtype=np.int64)
    bits = (v[..., None] >> np.arange(n)) & 1
    return bits.sum(axis=-1)


def hamming_distance(x: int, y: int) -> int:
    """Number of spins on which two configurations differ."""
    return int(x ^ y).bit_count()


def _energy_kernel(couplings: np.ndarray, bias: np.ndarray, s: np.ndarray) -> float:
    # couplings has zero diagonal, so 0.5 * s.J.s counts each pair once
    return float(0.5 * (s @ couplings @ s) + bias @ s)


def classical_energy(params: ClusterParams, config: int) -> float:
    """Diagonal energy sum_{i<j} J_ij s_i s_j + sum_i B_i s_i of one configuration."""
    config = validate_config(params.n, config)
    return _energy_kernel(params.couplings, params.bias, spin_values(params.n, config))


def classical_energies(params: ClusterParams) -> np.ndarray:
    """Classical energies of all 2^n configurations, indexed by basis index.

    Each entry goes through the same scalar kernel as classical_energy, so
    the two agree bit for bit.
    """
    signs = sign_table(params.n)
    return np.array(
        [_energy_kernel(params.couplings, params.bias, signs[x]) for x in range(params.dim)]
    )


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
    h = np.zeros((dim, dim))
    idx = np.arange(dim)
    h[idx, idx] = classical_energies(params)
    for i in range(params.n):
        h[idx, idx ^ (1 << i)] = params.tunneling[i]
    return h
