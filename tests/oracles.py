"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written along a different route than the
library: Hamiltonians via explicit Kronecker products of 2x2 matrices,
energies via nested Python loops (one of them in the package's own
summation order, to pin its bits), path sums one ordering at a time,
landscape detection via direct neighbour comparison, perturbative
amplitudes by a recursion over distance shells, golden-rule rates from
``numpy.linalg.eigh``, noisy trajectories by a dense Kronecker Hamiltonian
per step, and the uniform ferromagnet's dressed states by a
Brillouin-Wigner iteration on its symmetric chain.
Tests freeze expected values computed from these.
"""

import functools
import itertools
import math

import numpy as np

# basis (|0>, |1>) with bit value 1 meaning sigma^z = +1
SZ = np.array([[-1.0, 0.0], [0.0, 1.0]])
SX = np.array([[0.0, 1.0], [1.0, 0.0]])
ID = np.eye(2)


def kron_site_operator(op: np.ndarray, site: int, n: int) -> np.ndarray:
    """Embed a single-spin operator so that index bit i is spin i."""
    out = np.array([[1.0]])
    for k in range(n - 1, -1, -1):
        out = np.kron(out, op if k == site else ID)
    return out


def kron_hamiltonian(j: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Full Hamiltonian via operator sums: sum_{i<j} J sz sz + sum B sz + sum C sx."""
    n = len(b)
    dim = 2**n
    h = np.zeros((dim, dim))
    for i in range(n):
        for k in range(i + 1, n):
            h += j[i, k] * kron_site_operator(SZ, i, n) @ kron_site_operator(SZ, k, n)
    for i in range(n):
        h += b[i] * kron_site_operator(SZ, i, n)
        h += c[i] * kron_site_operator(SX, i, n)
    return h


def brute_energy(j: np.ndarray, b: np.ndarray, config: int) -> float:
    """Classical energy via nested loops over spin pairs."""
    n = len(b)
    s = [1.0 if (config >> i) & 1 else -1.0 for i in range(n)]
    total = 0.0
    for i in range(n):
        for k in range(i + 1, n):
            total += j[i, k] * s[i] * s[k]
    for i in range(n):
        total += b[i] * s[i]
    return total


def left_to_right_energy(j: np.ndarray, b: np.ndarray, config: int) -> float:
    """Classical energy 0.5·(s·J·s) + b·s in Python floats, every sum left to
    right from 0.0: each (s·J)_k over ascending i, then the quadratic sum
    over ascending k, then b·s.  This is the summation order the package
    promises, so its energies must equal these bit for bit."""
    n = len(b)
    s = [1.0 if (config >> i) & 1 else -1.0 for i in range(n)]
    quad = 0.0
    for k in range(n):
        sj = 0.0
        for i in range(n):
            sj += s[i] * float(j[i, k])
        quad += sj * s[k]
    lin = 0.0
    for i in range(n):
        lin += float(b[i]) * s[i]
    return 0.5 * quad + lin


def path_sum_by_orderings(j, b, g, source: int, target: int, tolerance: float) -> float:
    """d-th order path sum, one ``itertools.permutations`` ordering at a time.

    Each ordering contributes the product of its couplings over the product
    of its d - 1 intermediate gaps E_source - E, both multiplied in path
    order, and ``math.fsum`` adds the contributions.  A gap within
    ``tolerance`` raises ValueError with the message the package gives.
    """
    n = len(b)
    flips = [i for i in range(n) if (source ^ target) >> i & 1]
    d = len(flips)
    energy = functools.cache(lambda cfg: left_to_right_energy(j, b, cfg))
    e_src = energy(source)
    terms = []
    for perm in itertools.permutations(flips):
        numer = 1.0
        denom = 1.0
        cfg = source
        for k, bit in enumerate(perm):
            numer *= g[bit]
            cfg ^= 1 << bit
            if k == d - 1:
                break  # final state carries no resolvent
            gap = e_src - energy(cfg)
            if abs(gap) <= tolerance:
                bits = "".join("1" if cfg >> i & 1 else "0" for i in range(n))
                raise ValueError(
                    f"degenerate intermediate energy on path {list(perm)} at "
                    f"configuration {bits}: denominator {gap:.3e}"
                )
            denom *= gap
        terms.append(numer / denom)
    return math.fsum(terms)


def brute_landscape(j: np.ndarray, b: np.ndarray):
    """(global_config, {local minima}) by direct neighbour comparison."""
    n = len(b)
    energies = [brute_energy(j, b, x) for x in range(2**n)]
    global_config = min(range(2**n), key=lambda x: (energies[x], x))
    minima = set()
    for x in range(2**n):
        if x == global_config:
            continue
        if all(energies[x ^ (1 << i)] > energies[x] for i in range(n)):
            minima.add(x)
    return global_config, minima


def rs_amplitudes(j: np.ndarray, b: np.ndarray, c: np.ndarray, anchor: int) -> np.ndarray:
    """Lowest-order Rayleigh-Schroedinger amplitudes of the state anchored at A.

    a(z) sums, over every shortest flip ordering from A to z, the product of
    c_i / (E_A - E_k) along the path, the final configuration z included;
    a(A) = 1.  Built distance by distance: the last flip of a shortest path
    to z is any spin in which z differs from A, so
    a(z) = sum_{i in z^A} c_i a(z ^ 2^i) / (E_A - E_z).
    """
    n = len(b)
    energies = [brute_energy(j, b, x) for x in range(2**n)]
    e_a = energies[anchor]
    amps = np.zeros(2**n)
    amps[anchor] = 1.0
    for z in sorted(range(2**n), key=lambda x: bin(x ^ anchor).count("1")):
        if z == anchor:
            continue
        flips = [i for i in range(n) if (z ^ anchor) >> i & 1]
        amps[z] = sum(c[i] * amps[z ^ (1 << i)] for i in flips) / (e_a - energies[z])
    return amps


def golden_rule_rates(j, b, c, f, g, tau: float):
    """Golden-rule transition rates between all eigenstates of the Kronecker H.

    Returns (eigenvectors, rates) with rates[m, k] the rate from
    eigenstate k into m: sum over the independent channels f_i sz_i and
    g_i sx_i of |<m|V_c|k>|^2 S(w_mk).  S(w) = 2 tau / (1 + w^2 tau^2) is
    the spectrum of unit-variance exponentially correlated noise.  The
    out-rate of k is rates[:, k].sum().
    """
    n = len(b)
    energies, vectors = np.linalg.eigh(kron_hamiltonian(j, b, c))
    omega = energies[:, None] - energies[None, :]
    spectrum = 2 * tau / (1 + (omega * tau) ** 2)
    rates = np.zeros_like(omega)
    for i in range(n):
        for amp, op in ((f[i], SZ), (g[i], SX)):
            elements = vectors.T @ kron_site_operator(op, i, n) @ vectors
            rates += (amp * elements) ** 2 * spectrum
    np.fill_diagonal(rates, 0.0)
    return vectors, rates


def reference_trajectories(j, b, c, f, g, kind, tau, dt, steps, ntraj, seed, ground, lem):
    """Coherence observables of noisy trajectories, one dense matrix per step.

    Integrates (|ground'> + |lem'>)/sqrt(2) under
    H + sum_i f_i xi_i sz_i + sum_i g_i eta_i sx_i, each term built from
    ``kron_site_operator``.  The dressed states are the ``numpy.linalg.eigh``
    eigenvectors with the largest amplitude on each anchor, signed so that
    amplitude is positive; H is shifted by the midpoint of its spectrum.
    Trajectory t draws from the t-th child of ``SeedSequence(seed)``: for
    "ou" noise an initial (2, n) state, then (steps, 2, n) unit normals
    advanced as x <- e^(-dt/tau) x + sqrt(1 - e^(-2 dt/tau)) w; for white
    noise x = w / sqrt(dt).  Each step applies sum_{k<=4} (-i dt H)^k / k!
    and renormalizes.  Returns (coherence, ensemble_coherence) at steps
    0..steps: the mean of |a_g conj(a_l)| and the magnitude of its mean.
    """
    n = len(b)
    h0 = kron_hamiltonian(j, b, c)
    energies, vectors = np.linalg.eigh(h0)
    h0 = h0 - 0.5 * (energies[0] + energies[-1]) * np.eye(2**n)

    def dressed(anchor):
        v = vectors[:, np.argmax(np.abs(vectors[anchor]))]
        return v if v[anchor] > 0 else -v

    vg, vl = dressed(ground), dressed(lem)
    sz = [kron_site_operator(SZ, i, n) for i in range(n)]
    sx = [kron_site_operator(SX, i, n) for i in range(n)]
    decay = np.exp(-dt / tau) if kind == "ou" else 0.0
    z = np.zeros((steps + 1, ntraj), dtype=complex)
    for t, child in enumerate(np.random.SeedSequence(seed).spawn(ntraj)):
        rng = np.random.default_rng(child)
        x = rng.standard_normal((2, n)) if kind == "ou" else None
        kicks = rng.standard_normal((steps, 2, n))
        psi = (vg + vl).astype(complex) / np.sqrt(2.0)
        z[0, t] = (vg @ psi) * np.conj(vl @ psi)
        for s in range(steps):
            if kind == "ou":
                x = decay * x + np.sqrt(1.0 - decay**2) * kicks[s]
            else:
                x = kicks[s] / np.sqrt(dt)
            h = h0 + sum(f[i] * x[0, i] * sz[i] + g[i] * x[1, i] * sx[i] for i in range(n))
            term, nxt = psi, psi.copy()
            for k in range(1, 5):
                term = (-1j * dt / k) * (h @ term)
                nxt = nxt + term
            psi = nxt / np.linalg.norm(nxt)
            z[s + 1, t] = (vg @ psi) * np.conj(vl @ psi)
    return np.abs(z).mean(axis=1), np.abs(z.mean(axis=1))


def dicke_chain(n: int, j: float, b: float, c: float):
    """(diagonal, off-diagonal) of a uniform cluster in the symmetric basis.

    State k is the normalised sum of the configurations with k up spins.
    Its energy counts aligned minus anti-aligned pairs; sum_i c sigma^x_i
    links k and k+1 with c sqrt((k+1)(n-k)).
    """
    k = np.arange(n + 1)
    aligned = k * (k - 1) / 2 + (n - k) * (n - k - 1) / 2
    diagonal = j * (aligned - k * (n - k)) + b * (2 * k - n)
    off = c * np.sqrt((k[:-1] + 1) * (n - k[:-1]))
    return diagonal, off


def dicke_dressed(diagonal, off, anchor_site: int, sweeps: int = 100):
    """(energy, unit amplitudes) of the chain eigenstate grown from one end site.

    Brillouin-Wigner: with the anchor amplitude held at 1, the other rows of
    (H - E) a = 0 form a tridiagonal system, solved densely; the anchor row
    then gives E = D_anchor + t a_neighbour.  Iterated from E = D_anchor until
    E stops moving.
    """
    size = len(diagonal)
    others = [k for k in range(size) if k != anchor_site]
    h = np.diag(diagonal) + np.diag(off, 1) + np.diag(off, -1)
    energy = diagonal[anchor_site]
    for _ in range(sweeps):
        system = h[np.ix_(others, others)] - energy * np.eye(size - 1)
        rest = np.linalg.solve(system, -h[others, anchor_site])
        amps = np.insert(rest, anchor_site, 1.0)
        update = float(h[anchor_site] @ amps)
        if update == energy:
            break
        energy = update
    return energy, amps / math.sqrt(math.fsum(amps**2))


def dicke_observables(n: int, j: float, b: float, c: float, noise: float):
    """Ground/LEM matrix element and both anchors' overlap decays of a
    uniform cluster with both noise channels at amplitude ``noise``.

    The anchors are the two fully polarized states (chain sites 0 and n).
    The element is <G| f sum sigma^z + g sum sigma^x |L> in the chain basis.
    Returns ``(element, ground, lem)``, each anchor's decay a pair
    ``(maxima, slope)``: maxima[d], d = 0..n, is the largest amplitude at
    distance d from the anchor, |a_k| / sqrt(C(n, d)) with k the chain site
    d flips away, and the slope is a ``numpy.polyfit`` of log10 maxima over
    d = 1..n.
    """
    diagonal, off = dicke_chain(n, j, b, c)
    links = off / c if c else np.sqrt(np.arange(1, n + 1) * np.arange(n, 0, -1))
    _, ground = dicke_dressed(diagonal, off, 0)
    _, lem = dicke_dressed(diagonal, off, n)
    terms = [noise * ground[k] * lem[k] * (2 * k - n) for k in range(n + 1)]
    terms += [
        noise * links[k] * (ground[k] * lem[k + 1] + ground[k + 1] * lem[k]) for k in range(n)
    ]
    distances = np.arange(n + 1)
    decays = []
    for amps in (ground, lem[::-1]):  # site d is d flips from the anchor
        maxima = [abs(amps[d]) / math.sqrt(math.comb(n, d)) for d in distances]
        slope = np.polyfit(distances[1:], np.log10(maxima[1:]), 1)[0]
        decays.append((maxima, float(slope)))
    return math.fsum(terms), decays[0], decays[1]
