"""Exact event-driven simulation of the density jump process.

The density vector jumps by +/- 1/N in one coordinate at a time; at state x
the jump along sign*e_i fires at rate N * beta(x) with beta from
:func:`tdsim.model.channel_rates`.  The simulator is the direct stochastic
simulation algorithm: sample an exponential waiting time at the total rate,
then pick the channel in proportion to its rate.  This generates the same
process law as the random-time-change construction with one Poisson clock
per jump direction; the direct method is simply the cheaper sampler.

:func:`direct_step` is the one count-level step for any k; three types take
an unrolled loop with the same law and stream use, the hot path of ensemble
runs.  Both loops read their variates from :func:`_variates`.  The per-site
sampler :func:`tdsim.micro.micro_simulate` runs on :func:`ssa_simulate`.

Randomness: each run owns a PCG64 generator seeded through
``numpy.random.SeedSequence(seed)``.  Ensemble helpers derive per-replica
integer seeds via ``SeedSequence([seed, param_index, replica_index])`` so
replica streams are independent and reproducible regardless of execution
order.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from .model import DensityState, LoopSpec
from .trajectory import Trajectory

__all__ = ["ssa_simulate", "sup_distance", "derive_seed", "direct_step"]

# RNG variates are drawn in blocks; the first block is small so that short
# runs do not pay for a full refill.
_BATCH = 8192
_FIRST_BATCH = 256


def default_thinning(N: int) -> int:
    """Record every event up to N = 1000, every ceil(N/100)-th event beyond."""
    return 1 if N <= 1000 else math.ceil(N / 100)


def derive_seed(seed: int, param_index: int, replica_index: int) -> int:
    """Deterministic 64-bit replica seed from (root seed, indices)."""
    ss = np.random.SeedSequence([int(seed), int(param_index), int(replica_index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _stream(seed: int) -> np.random.Generator:
    """The PCG64 generator of one run, seeded through ``SeedSequence(seed)``."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(int(seed))))


def _variates(rng: np.random.Generator):
    """Endless (exponential, uniform) pairs; each block draws its
    exponentials, then its uniforms."""
    def blocks():
        size = _FIRST_BATCH
        while True:
            yield zip(rng.standard_exponential(size).tolist(), rng.random(size).tolist())
            size = _BATCH

    return itertools.chain.from_iterable(blocks())


def direct_step(spec: LoopSpec):
    """Direct-method step on counts: (n, e, u) -> (e / total rate, channel).

    e is a standard exponential and u a uniform variate; the channel (in
    :func:`tdsim.model.channel_rates` order, rate N * beta_l(n / N)) is the
    first whose cumulative rate exceeds u * total.  The total is at least
    N e^{-MAX_EXPONENT} > 0, so it never vanishes.
    """
    N = spec.N
    dJ = spec.delta * spec.J
    hJ = (1.0 - spec.delta) * spec.J
    types = tuple(
        (i, spec.anticlockwise(i), spec.clockwise(i), kap) for i, kap in enumerate(spec.kappa)
    )
    last = 2 * spec.k - 1
    rates = [0.0] * (2 * spec.k)
    exp = math.exp

    def step(n, e, u):
        tot = 0.0
        for i, a, h, kap in types:
            expo = 2.0 * (-dJ * (n[a] / N) - hJ * (n[h] / N) + kap)
            r_up = (N - n[i]) * exp(expo)
            r_dn = n[i] * exp(-expo)
            rates[2 * i] = r_up
            rates[2 * i + 1] = r_dn
            tot += r_up + r_dn
        target = u * tot
        acc = 0.0
        for c, r in enumerate(rates):
            acc += r
            if target < acc:
                return e / tot, c
        return e / tot, last

    return step


def _simulate_counts_generic(spec, n, t_end, rng, stride):
    """Direct-method loop for any k.  Returns (times, count tuples, events)."""
    step = direct_step(spec)
    times = [0.0]
    states = [tuple(n)]
    t = 0.0
    event = 0
    for e, u in _variates(rng):
        dt, chosen = step(n, e, u)
        t_next = t + dt
        if t_next >= t_end:
            break
        n[chosen >> 1] += 1 if (chosen & 1) == 0 else -1
        t = t_next
        event += 1
        if event % stride == 0:
            times.append(t)
            states.append(tuple(n))
    return times, states, event


def _simulate_counts_3(spec, n, t_end, rng, stride):
    """Unrolled three-type loop; same law and stream use as the generic one."""
    N = spec.N
    invN = 1.0 / N
    k0, k1, k2 = spec.kappa
    dJ = spec.delta * spec.J
    hJ = (1.0 - spec.delta) * spec.J
    exp = math.exp
    n0, n1, n2 = n
    times = [0.0]
    states = [(n0, n1, n2)]
    t = 0.0
    event = 0
    for e, u in _variates(rng):
        e0 = 2.0 * (-dJ * (n2 * invN) - hJ * (n1 * invN) + k0)
        e1 = 2.0 * (-dJ * (n0 * invN) - hJ * (n2 * invN) + k1)
        e2 = 2.0 * (-dJ * (n1 * invN) - hJ * (n0 * invN) + k2)
        u0 = (N - n0) * exp(e0)
        d0 = n0 * exp(-e0)
        u1 = (N - n1) * exp(e1)
        d1 = n1 * exp(-e1)
        u2 = (N - n2) * exp(e2)
        d2 = n2 * exp(-e2)
        tot = u0 + d0 + u1 + d1 + u2 + d2
        t_next = t + e / tot
        if t_next >= t_end:
            break
        v = u * tot
        if v < u0:
            n0 += 1
        elif v < u0 + d0:
            n0 -= 1
        elif v < u0 + d0 + u1:
            n1 += 1
        elif v < u0 + d0 + u1 + d1:
            n1 -= 1
        elif v < u0 + d0 + u1 + d1 + u2:
            n2 += 1
        else:
            n2 -= 1
        t = t_next
        event += 1
        if event % stride == 0:
            times.append(t)
            states.append((n0, n1, n2))
    return times, states, event


def ssa_simulate(
    spec: LoopSpec,
    x0: DensityState,
    t_end: float,
    seed: int,
    thinning: int | None = None,
) -> Trajectory:
    """Sample one exact path of the density process on [0, t_end].

    Recording keeps the initial state, every ``thinning``-th event and the
    final state at t_end (thinning defaults per :func:`default_thinning`).
    Identical (spec, x0, t_end, seed, thinning) give identical output.
    """
    if not math.isfinite(t_end) or t_end < 0:
        raise ValueError(f"t_end must be finite and non-negative, got {t_end!r}")
    if not isinstance(x0, DensityState):
        x0 = DensityState(tuple(x0), grid=spec.N)
    if x0.grid != spec.N or len(x0.x) != spec.k:
        raise ValueError("x0 must live on the 1/N grid of the given spec")
    stride = default_thinning(spec.N) if thinning is None else int(thinning)
    if stride < 1:
        raise ValueError("thinning stride must be >= 1")

    rng = _stream(seed)
    n = list(x0.counts)
    if spec.k == 3:
        times, count_states, event = _simulate_counts_3(spec, n, t_end, rng, stride)
    else:
        times, count_states, event = _simulate_counts_generic(spec, n, t_end, rng, stride)
    if times[-1] < t_end:
        times.append(t_end)
        count_states.append(count_states[-1])

    meta = {
        "spec": spec,
        "seed": int(seed),
        "t_end": float(t_end),
        "thinning": stride,
        "events": event,
    }
    states = np.asarray(count_states, dtype=float) / spec.N
    return Trajectory(np.array(times), states, kind="stochastic", meta=meta)


def sup_distance(a: Trajectory, b: Trajectory, t: float) -> float:
    """sup over s <= t of the max-norm gap between two paths.

    Stochastic paths count as right-continuous step functions, deterministic
    ones as linearly interpolated between their recorded nodes.  The sup is
    taken over the event times of both trajectories (both one-sided limits
    at step discontinuities) plus the endpoints 0 and t.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    for traj in (a, b):
        if not traj.covers(t):
            raise ValueError(
                f"trajectory on [{traj.times[0]}, {traj.times[-1]}] does not cover [0, {t}]"
            )
    grid = np.union1d(a.times, b.times)
    grid = grid[(grid >= 0.0) & (grid <= t)]
    grid = np.union1d(grid, [0.0, t])
    best = float(np.max(np.abs(a.value_at(grid) - b.value_at(grid))))
    # Left limits at jump times of any step-function path.
    for step, other in ((a, b), (b, a)):
        if step.kind != "stochastic" or len(step) < 2:
            continue
        jumps = step.times[1:]
        jumps = jumps[(jumps > 0.0) & (jumps <= t)]
        if len(jumps) == 0:
            continue
        idx = np.searchsorted(step.times, jumps, side="right") - 2
        left_vals = step.states[np.clip(idx, 0, len(step) - 1)]
        if other.kind == "stochastic":
            oidx = np.searchsorted(other.times, jumps, side="left") - 1
            other_vals = other.states[np.clip(oidx, 0, len(other) - 1)]
        else:
            other_vals = other.value_at(jumps)
        best = max(best, float(np.max(np.abs(left_vals - other_vals))))
    return best
