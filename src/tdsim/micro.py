"""Spin-level machinery on small systems: energies, exact generators, checks.

Sites live on a k x N lattice (type, position) with spins in {-1, +1}.  The
interaction is mean-field: a +1 spin of type j pushes every site of its
clockwise neighbour type with weight -delta*J*b/N and of its anticlockwise
neighbour with weight -(1-delta)*J*b/N (b the receiving spin); pairs of
equal type contribute the field kappa regardless of spin states.  The table
holds for every k >= 2; at k = 2 both neighbours of a type are the other
type, whose two weights add up to -J*b/N.  With that coupling table the
kappa part of the energy is a configuration-independent constant, so it
drops out of every energy difference while kappa still enters the flip
rates directly; the per-spin dynamics is therefore not reversible with
respect to the Gibbs measure, which :func:`reversibility_residual`
quantifies by exact enumeration.

Note the energy double sum runs over all ordered site pairs including the
diagonal pair; excluding the diagonal would only shift the energy by
another constant.  On a cycle every type is the clockwise neighbour of
exactly one other, so the two neighbour sums of the energy are equal and H
does not depend on delta; delta enters only the flip rates.  All exact
enumerations are guarded by k*N <= 20 and by k*2^(kN) <= 2^21 cells, and
the generators over configurations by k*N <= 12.  Both generators are
built from the flip table (each configuration's k*N single-site flip
targets and rates), with each diagonal minus the sum of its row's k*N
rates: :func:`generator_matrix` scatters it into the dense 2^(kN)-square
matrix, :func:`lumped_density_generator` sums it by jump channel.  Flip
rates and Gibbs weights take their exponentials from
:func:`tdsim.model._exact_exps`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jump
from .model import (DensityState, LoopSpec, _exact_exps, _exponents, channel_rates,
                    exponent_terms)
from .trajectory import Trajectory

__all__ = [
    "SpinConfiguration",
    "hamiltonian",
    "gibbs_measure",
    "generator_matrix",
    "lumped_density_generator",
    "density_generator",
    "reversibility_residual",
    "micro_simulate",
]

ENUMERATION_LIMIT = 20
# Largest number of (configuration, type) cells, k*2^(kN), that
# :func:`gibbs_measure` and :func:`reversibility_residual` enumerate.  They
# hold several arrays of that many cells at once, so k*N alone does not
# bound their memory: at k*N = 20 one residual took 1027 MiB at k = 20,
# N = 1 and 537 MiB at k = 10, N = 2.  Every k = 3 case up to N = 6 and
# every k = 2 case up to N = 10 lie within it.
ENUMERATED_CELLS_LIMIT = 1 << 21
# Largest k*N at which :func:`generator_matrix` and
# :func:`lumped_density_generator` run.  Only the matrix touches 4^(kN)
# dense entries (128 MiB at k*N = 12, 8 GiB at k*N = 15); the lumped
# generator keeps the same limit, so that where ``validate`` skips its
# generator check does not move.
GENERATOR_LIMIT = 12
# Largest rate difference between members of one count class that
# :func:`lumped_density_generator` accepts as lumpable.
LUMPING_TOL = 1e-9


@dataclass(frozen=True)
class SpinConfiguration:
    """Spin values over the k x N site lattice of a spec."""

    spins: np.ndarray
    spec: LoopSpec

    def __post_init__(self):
        spins = np.asarray(self.spins, dtype=np.int8)
        if spins.shape != (self.spec.k, self.spec.N):
            raise ValueError(
                f"spins must have shape ({self.spec.k}, {self.spec.N}), got {spins.shape}"
            )
        if not np.all(np.abs(spins) == 1):
            raise ValueError("spins must be +1 or -1")
        object.__setattr__(self, "spins", spins)

    @classmethod
    def all_plus(cls, spec: LoopSpec) -> "SpinConfiguration":
        return cls(np.ones((spec.k, spec.N), dtype=np.int8), spec)

    @classmethod
    def all_minus(cls, spec: LoopSpec) -> "SpinConfiguration":
        return cls(-np.ones((spec.k, spec.N), dtype=np.int8), spec)

    @classmethod
    def from_counts(cls, spec: LoopSpec, counts) -> "SpinConfiguration":
        """First counts[i] positions of type i active, the rest inactive."""
        spins = -np.ones((spec.k, spec.N), dtype=np.int8)
        for i, c in enumerate(counts):
            if not 0 <= c <= spec.N:
                raise ValueError(f"count {c} outside 0..{spec.N}")
            spins[i, :c] = 1
        return cls(spins, spec)

    def counts(self) -> np.ndarray:
        return np.sum(self.spins == 1, axis=1)


def _enumeration_refusal(spec: LoopSpec, limit: int | None = None) -> str | None:
    """The guard that ``spec`` exceeds, as text, or None: k*N above
    :data:`ENUMERATION_LIMIT`, then above ``limit`` (the dense generators
    pass :data:`GENERATOR_LIMIT`), then too many cells.

    k*N is tested first, so the cell count is never formed for a large N.
    """
    if spec.k * spec.N > ENUMERATION_LIMIT:
        return f"k*N > {ENUMERATION_LIMIT}"
    if limit is not None and spec.k * spec.N > limit:
        return f"k*N > {limit}"
    if spec.k << (spec.k * spec.N) > ENUMERATED_CELLS_LIMIT:
        return f"k*2^(kN) > 2^{ENUMERATED_CELLS_LIMIT.bit_length() - 1}"
    return None


def _require(spec: LoopSpec, limit: int | None = None):
    """Raise ValueError where :func:`_enumeration_refusal` refuses ``spec``."""
    refusal = _enumeration_refusal(spec, limit)
    if refusal is None:
        return
    if limit is None:
        raise ValueError(
            f"k = {spec.k}, N = {spec.N} exceeds the enumeration guard ({refusal})"
        )
    raise ValueError(f"k*N = {spec.k * spec.N} exceeds the dense generator guard {limit}")


def hamiltonian(config: SpinConfiguration) -> float:
    """Total interaction energy of a configuration.

    Computed through per-type counts; identical to the double sum over all
    ordered site pairs of the coupling table divided by N.  The kappa part
    is the constant -N * sum(kappa).
    """
    return float(_energy(config.spec, config.counts()))


def _config_counts(spec: LoopSpec, idx: np.ndarray) -> np.ndarray:
    """Per-type +1 counts for configurations given as bitmask indices.

    Bit (i*N + n) set means site (i, n) carries spin +1.
    """
    N = spec.N
    table = np.array([bin(v).count("1") for v in range(1 << N)], dtype=np.int64)
    mask = (1 << N) - 1
    counts = np.empty((len(idx), spec.k), dtype=np.int64)
    for i in range(spec.k):
        counts[:, i] = table[(idx >> (i * N)) & mask]
    return counts


def _energy(spec: LoopSpec, counts) -> np.ndarray:
    """Energy from per-type +1 counts (types on the last axis)."""
    n = np.asarray(counts, dtype=float)
    s = 2.0 * n - spec.N  # per-type spin sums
    h_idx = [h for _, h, _ in exponent_terms(spec)[2]]
    coupling = np.sum(n * s[..., h_idx], axis=-1)
    return (spec.J / spec.N) * coupling - spec.N * float(np.sum(spec.kappa))


def gibbs_measure(spec: LoopSpec) -> np.ndarray:
    """Gibbs probabilities exp(-H)/Z over all 2^(kN) configurations.

    Configuration c is indexed by its bitmask: bit (i*N + n) set means site
    (i, n) is +1.  Requires k*N <= 20 and k*2^(kN) <= 2^21.
    """
    _require(spec)
    idx = np.arange(1 << (spec.k * spec.N), dtype=np.int64)
    h = _energy(spec, _config_counts(spec, idx))
    w = _exact_exps(np.min(h) - h)[0]
    return w / np.sum(w)


def _site_rates(spec: LoopSpec):
    """Configuration indices and the per-type (up, down) site flip rates there."""
    idx = np.arange(1 << (spec.k * spec.N), dtype=np.int64)
    return idx, *_exact_exps(_exponents(spec, _config_counts(spec, idx) / spec.N))


def _flip_table(spec: LoopSpec):
    """Targets and rates of every configuration's k*N single-site flips.

    Both have shape (2^(kN), kN); column i*N + pos flips site (i, pos), at
    the down rate of type i if the site is +1 and the up rate otherwise.
    """
    idx, up, down = _site_rates(spec)
    bits = np.int64(1) << np.arange(spec.k * spec.N, dtype=np.int64)
    types = np.repeat(np.arange(spec.k), spec.N)
    plus = (idx[:, None] & bits) != 0
    return idx[:, None] ^ bits, np.where(plus, down[:, types], up[:, types])


def generator_matrix(spec: LoopSpec) -> np.ndarray:
    """Dense generator of the spin-flip chain over all 2^(kN) configurations.

    Off-diagonal entries are the single-site flip rates, diagonal entries
    make rows sum to zero, multi-site transitions have rate zero.  Memory
    grows as 4^(kN); meant for desk-scale verification, and refused above
    k*N = :data:`GENERATOR_LIMIT`.
    """
    _require(spec, GENERATOR_LIMIT)
    targets, rates = _flip_table(spec)
    q = np.zeros((len(targets),) * 2)
    q[np.arange(len(targets))[:, None], targets] = rates
    np.fill_diagonal(q, -rates.sum(axis=1))
    return q


def _count_grid(N: int, k: int) -> np.ndarray:
    """All count vectors of {0..N}^k in lexicographic order, shape ((N+1)^k, k)."""
    return np.indices((N + 1,) * k).reshape(k, -1).T


def _grid_jumps(N: int, k: int, rates: np.ndarray) -> np.ndarray:
    """Square matrix over :func:`_count_grid` with zero diagonal, holding
    ``rates[n, 2i]`` at (n, n + e_i) and ``rates[n, 2i + 1]`` at (n, n - e_i)
    wherever that target lies on the grid (the channel_rates order)."""
    counts = _count_grid(N, k)
    flat = np.arange(len(counts))
    q = np.zeros((len(counts), len(counts)))
    for i in range(k):
        stride = (N + 1) ** (k - 1 - i)
        up = flat[counts[:, i] < N]
        q[up, up + stride] = rates[up, 2 * i]
        down = flat[counts[:, i] > 0]
        q[down, down - stride] = rates[down, 2 * i + 1]
    return q


def density_generator(spec: LoopSpec) -> np.ndarray:
    """Generator of the density jump process on the grid {0..N}^k / N.

    States are count vectors ordered lexicographically; the rate from n to
    n +/- e_i is N * beta for the matching jump direction.
    """
    rates = spec.N * channel_rates(spec, _count_grid(spec.N, spec.k) / spec.N)
    q = _grid_jumps(spec.N, spec.k, rates)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def lumped_density_generator(spec: LoopSpec) -> np.ndarray:
    """Project the spin-flip generator onto count vectors.

    For every source configuration the outgoing rates are summed over the
    target count class; all representatives of a count class must agree
    (the chain is lumpable because rates depend only on counts), which is
    verified to :data:`LUMPING_TOL`.  Every entry has the bits of summing
    the rows of :func:`generator_matrix` over each class: the rates a class
    receives from one configuration are equal, so their order does not
    matter, and both take the diagonal from the same flip rates.
    """
    _require(spec, GENERATOR_LIMIT)
    N = spec.N
    k = spec.k
    targets, rates = _flip_table(spec)
    size = len(targets)
    diag = -rates.sum(axis=1)
    # A flip of type i reaches the class n + e_i (channel 2i) or n - e_i
    # (channel 2i + 1); one bincount sums every configuration's channels.
    src = np.arange(size)[:, None]
    channel = 2 * np.repeat(np.arange(k), N) + (targets < src)
    keys = (src * (2 * k) + channel).ravel()
    sums = np.bincount(keys, weights=rates.ravel(), minlength=size * 2 * k).reshape(size, 2 * k)
    rows = np.column_stack((diag, sums))
    counts = _config_counts(spec, src[:, 0])
    class_of = np.ravel_multi_index(tuple(counts.T), (N + 1,) * k)
    # Every class has a member (C(N, n_i) >= 1); its first one stands for it.
    first = np.unique(class_of, return_index=True)[1]
    spread = np.max(np.abs(rows - rows[first[class_of]]), axis=1)
    bad = class_of[spread > LUMPING_TOL]
    if bad.size:
        raise AssertionError(f"count class {bad.min()} is not lumpable to {LUMPING_TOL}")
    lumped = _grid_jumps(N, k, sums[first])
    np.fill_diagonal(lumped, diag[first])
    return lumped


def reversibility_residual(spec: LoopSpec) -> float:
    """max over configuration pairs of |mu(s) q(s,s') - mu(s') q(s',s)|.

    Zero would mean detailed balance of the flip dynamics with respect to
    the Gibbs measure; the type-dependent rates generically break it.
    """
    mu = gibbs_measure(spec)
    idx, up, down = _site_rates(spec)
    worst = 0.0
    for i in range(spec.k):
        # Rates read counts only, so every -1 site of type i gives the same
        # forward and backward terms; the lowest one stands for them all.
        free = ~idx & (((1 << spec.N) - 1) << (i * spec.N))
        minus = np.flatnonzero(free)  # idx is the identity
        free = free[minus]
        plus = minus | (free & -free)
        # Flipping -1 -> +1 does not change neighbour counts, so the
        # reverse rate is the down rate at the same exponent.
        forward = mu[minus] * up[minus, i]
        backward = mu[plus] * down[minus, i]
        worst = max(worst, float(np.max(np.abs(forward - backward))))
    return worst


def micro_simulate(
    spec: LoopSpec,
    sigma0: SpinConfiguration,
    t_end: float,
    seed: int,
) -> Trajectory:
    """Exact run of the per-site flip dynamics, projected to densities.

    The flip rates depend on the configuration only through its per-type
    counts, so the projection is the density jump process (the chain is
    lumpable, see :func:`lumped_density_generator`).  It is sampled as the
    :func:`tdsim.jump.ssa_simulate` run from the counts of ``sigma0`` with
    ``thinning=1``; ``meta["level"]`` is ``"micro"``.
    """
    if sigma0.spec != spec:
        raise ValueError("sigma0 belongs to a different spec")
    state0 = DensityState.from_counts(sigma0.counts().tolist(), spec.N)
    traj = jump.ssa_simulate(spec, state0, t_end, seed, thinning=1)
    traj.meta["level"] = "micro"
    return traj
