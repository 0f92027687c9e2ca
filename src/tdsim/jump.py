"""Exact event-driven simulation of the density jump process.

The density vector jumps by +/- 1/N in one coordinate at a time; at state x
the jump along sign*e_i fires at rate N * beta(x) with beta from
:func:`tdsim.model.channel_rates`.  The simulator is the direct stochastic
simulation algorithm: sample an exponential waiting time at the total rate,
then pick the channel in proportion to its rate.  This generates the same
process law as the random-time-change construction with one Poisson clock
per jump direction; the direct method is simply the cheaper sampler.

:func:`direct_step` is the one count-level step for any k.  Three types,
the hot path of ensemble runs, take a loop with the same law, stream use
and bits that advances a path one window of variates at a time: numpy
guesses every event's channel from the window's first state and sweeps
until the guessed states stop changing, then every settled event is
recomputed with the scalar arithmetic and ``math.exp`` and the window is
cut at the first channel the guess got wrong.  Where windows do not settle
quickly (small N, strong coupling), an unrolled scalar loop runs instead;
an event moves one type, and only its two neighbours' exponents read that
count, so it recomputes just those two (the dependency-graph idea of
Gibson & Bruck, J. Phys. Chem. A 104, 2000).  Both loops read their
variates from :func:`_variates` and record a path as a channel stream, one
index per event (channel 2i raises type i, 2i + 1 lowers it);
:func:`ssa_simulate` rebuilds the recorded counts from it in one numpy pass
per type.  The per-site sampler :func:`tdsim.micro.micro_simulate` runs on
:func:`ssa_simulate`.

Randomness: each run owns a PCG64 generator seeded through
``numpy.random.SeedSequence(seed)``.  Ensemble helpers derive per-replica
integer seeds via ``SeedSequence([seed, param_index, replica_index])`` so
replica streams are independent and reproducible regardless of execution
order.
"""
from __future__ import annotations

import itertools
import math
from array import array

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


def _variates(rng: np.random.Generator, blocks: list):
    """Endless blocks of (exponential, uniform) variates as two float arrays;
    each block draws its exponentials, then its uniforms, and appends its
    size to ``blocks``."""
    size = _FIRST_BATCH
    while True:
        blocks.append(size)
        yield rng.standard_exponential(size), rng.random(size)
        size = _BATCH


def _channel_dtype(k: int) -> np.dtype:
    """Smallest unsigned type that holds every channel index 0 .. 2k - 1."""
    return np.min_scalar_type(2 * k - 1)


def _channel_buffer(k: int):
    """Empty channel stream of :func:`_channel_dtype` items.  While they fit
    in a byte it is a bytearray: its append costs 17 ns against 48 ns for
    ``array('B')`` on CPython 3.11, 3 % of a ``converge`` bench job."""
    return bytearray() if 2 * k <= 256 else array(_channel_dtype(k).char)


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


def _simulate_counts_generic(spec, n, t_end, blocks, stride):
    """Direct-method loop for any k.  Returns (recorded times, channel
    stream, window events, sweeps); the last two are 0, as it runs no windows."""
    step = direct_step(spec)
    times = [0.0]
    channels = _channel_buffer(spec.k)
    record = channels.append
    t = 0.0
    event = 0
    for e, u in itertools.chain.from_iterable(zip(E.tolist(), U.tolist()) for E, U in blocks):
        dt, chosen = step(n, e, u)
        t_next = t + dt
        if t_next >= t_end:
            break
        n[chosen >> 1] += 1 if (chosen & 1) == 0 else -1
        record(chosen)
        t = t_next
        event += 1
        if event % stride == 0:
            times.append(t)
    return times, channels, 0, 0


def _scalar_3(spec, n, t, t_end, pairs, times, record, stride, event):
    """Unrolled three-type loop over ``pairs``, from counts n at time t after
    ``event`` events.  An event moves one type, which only the other two
    types' exponents read, so only theirs are recomputed.  Returns
    (counts, t, event, stopped), where stopped means t_end was reached."""
    N = spec.N
    invN = 1.0 / N
    k0, k1, k2 = spec.kappa
    dJ = spec.delta * spec.J
    hJ = (1.0 - spec.delta) * spec.J
    exp = math.exp
    n0, n1, n2 = n
    moved = -1
    for e, u in pairs:
        if moved != 0:
            e0 = 2.0 * (-dJ * (n2 * invN) - hJ * (n1 * invN) + k0)
            p0 = exp(e0)
            m0 = exp(-e0)
        if moved != 1:
            e1 = 2.0 * (-dJ * (n0 * invN) - hJ * (n2 * invN) + k1)
            p1 = exp(e1)
            m1 = exp(-e1)
        if moved != 2:
            e2 = 2.0 * (-dJ * (n1 * invN) - hJ * (n0 * invN) + k2)
            p2 = exp(e2)
            m2 = exp(-e2)
        u0 = (N - n0) * p0
        d0 = n0 * m0
        u1 = (N - n1) * p1
        d1 = n1 * m1
        u2 = (N - n2) * p2
        d2 = n2 * m2
        s1 = u0 + d0
        s2 = s1 + u1
        s3 = s2 + d1
        s4 = s3 + u2
        tot = s4 + d2
        t_next = t + e / tot
        if t_next >= t_end:
            return [n0, n1, n2], t, event, True
        v = u * tot
        if v < u0:
            n0 += 1
            moved = 0
            record(0)
        elif v < s1:
            n0 -= 1
            moved = 0
            record(1)
        elif v < s2:
            n1 += 1
            moved = 1
            record(2)
        elif v < s3:
            n1 -= 1
            moved = 1
            record(3)
        elif v < s4:
            n2 += 1
            moved = 2
            record(4)
        else:
            n2 -= 1
            moved = 2
            record(5)
        t = t_next
        event += 1
        if event % stride == 0:
            times.append(t)
    return [n0, n1, n2], t, event, False


# The k = 3 loop advances a path one window of variates at a time.  It
# guesses every event's channel with numpy from the window's first state,
# rebuilds the states from the guessed channels and sweeps again until no
# channel changes; states up to the first changed channel were built from
# settled states, so every sweep settles at least one more event.  The
# settled events are then recomputed with the scalar loop's expressions and
# math.exp, and the window is cut at the first channel that differs from the
# guess, so the guess decides nothing.  The constants were measured with
# ssa_simulate on a 2-core x86 machine (CPython 3.11, numpy 2.4), as time per
# event against the scalar loop's in the same process:
# - a window costs about 40 numpy calls; at 128 events it was slower than
#   the scalar loop at every N, at 256 faster from N = 1e4 on, so narrower
#   windows hand the rest of their variate block to the scalar loop, and so
#   does the first block, where short runs end;
_WINDOW_MIN = 256
# - 8192 instead of 4096 gained nothing at N = 1e4 or 1e5;
_WINDOW_MAX = 4096
# - a window that has no fixed point after 5 sweeps is cut at its settled
#   events and halved: at N = 1000, J = 1 the cheapest windows (1024 to 2048
#   events) settle in 5 to 7 sweeps, and a cap of 4 took 0.93 of the scalar
#   time there, 5 took 0.79, 8 took 0.78;
_MAX_SWEEPS = 5
# - a channel the guess gets wrong moves every later rate of the window by
#   about 2 (|J| + 1) / N in log, so windows settle only for N large against
#   |J| + 1: N = 1000 took 0.66 to 0.79 of the scalar time at J = 1 but
#   1.04 to 1.06 at J = 2.5, and N = 100 took 1.05 to 1.42 at J = 1 (one
#   failed window per run).  Windows run only where N >= _SETTLE_N (|J| + 1).
_SETTLE_N = 400

# The guess's exponential.  Any value would give the same path, only more
# windows; tests replace it with a wrong one to show that.
_guess_exp = np.exp

# Type i's exponent reads the counts in rows _DJ_ROWS[i] (weight delta * J)
# and _HJ_ROWS[i] (weight (1 - delta) * J).
_DJ_ROWS = [2, 0, 1]
_HJ_ROWS = [1, 2, 0]


class _Kernels3:
    """The numpy steps of the windowed k = 3 loop for one spec.  Built on a
    run's first window, so that importing the module allocates no array."""

    def __init__(self, spec: LoopSpec):
        # moves[:, c] is channel c's count change, +1 (even c) or -1 (odd c)
        # on type c >> 1.
        self.moves = np.array([[1.0, -1.0, 0.0, 0.0, 0.0, 0.0],
                               [0.0, 0.0, 1.0, -1.0, 0.0, 0.0],
                               [0.0, 0.0, 0.0, 0.0, 1.0, -1.0]])
        # Running sums of six rate rows as one product, for the guess only.
        self.running = np.tril(np.ones((6, 6)))
        self.N = spec.N
        self.invN = 1.0 / spec.N
        self.dJ = spec.delta * spec.J
        self.hJ = (1.0 - spec.delta) * spec.J
        self.kappa = np.array(spec.kappa)[:, None]
        # The exponents as one affine map of the counts: fewer numpy calls
        # than the loop's expression, and rounded differently, which only
        # the guess may be.
        self.intercept = 2.0 * self.kappa
        self.slope = np.zeros((3, 3))
        self.slope[range(3), _DJ_ROWS] = -2.0 * self.dJ * self.invN
        self.slope[range(3), _HJ_ROWS] = -2.0 * self.hJ * self.invN

    def guess(self, G, U):
        """Channels that np.exp picks at the count columns G (3, m); the
        scalar loop's choice nearly always, not always."""
        x = self.slope @ G
        x += self.intercept
        rates = np.empty((6, G.shape[1]))
        np.multiply(self.N - G, _guess_exp(x), out=rates[0::2])
        np.multiply(G, _guess_exp(np.negative(x, out=x)), out=rates[1::2])
        cum = self.running @ rates
        return (U * cum[5] >= cum[:5]).sum(axis=0)

    def exact(self, G, U):
        """(channels, totals) at the count columns G, bit for bit those of
        the scalar loop: its expressions in its order, and math.exp called
        once per distinct exponent."""
        q = G * self.invN
        x = q[_DJ_ROWS]
        x *= -self.dJ
        h = q[_HJ_ROWS]
        h *= self.hJ
        x -= h
        x += self.kappa
        x *= 2.0
        values, where = np.unique(x, return_inverse=True)
        where = where.reshape(x.shape)
        values = values.tolist()
        cum = np.empty((6, G.shape[1]))
        np.take(np.array([math.exp(v) for v in values]), where, out=cum[0::2])
        np.take(np.array([math.exp(-v) for v in values]), where, out=cum[1::2])
        cum[0::2] *= self.N - G
        cum[1::2] *= G
        for row in range(1, 6):
            np.add(cum[row - 1], cum[row], out=cum[row])
        return (U * cum[5] >= cum[:5]).sum(axis=0), cum[5]


def _window_3(kernels, n, t, t_end, E, U):
    """The exact events of one window from counts n at time t.

    Returns (channels, times, counts, sweeps, fixed, stopped): the accepted
    events' channels and times; the counts after them; the sweeps the guess
    took; whether it reached a fixed point within :data:`_MAX_SWEEPS`; and
    whether the event after them falls at or past t_end.
    """
    m = len(E)
    G = np.empty((3, m))
    G[:] = np.array(n, dtype=float)[:, None]
    guess = np.full(m, -1)
    lo = 0  # the states in columns 0 .. lo of G are settled
    fixed = False
    sweeps = 0
    while sweeps < _MAX_SWEEPS and lo < m:
        sweeps += 1
        chosen = kernels.guess(G[:, lo:], U[lo:])
        changed = chosen != guess[lo:]
        first = int(changed.argmax())
        if not changed[first]:
            fixed = True
            break
        # G was built from the old guess: it holds up to the first changed
        # channel, whose new value came from a settled state.
        guess[lo + first:] = chosen[first:]
        first += lo
        np.cumsum(kernels.moves[:, guess[first:-1]], axis=1, out=G[:, first + 1:])
        G[:, first + 1:] += G[:, first, None]
        lo = first + 1
    checked = m if fixed else lo
    settled = min(checked + 1, m)
    exact, total = kernels.exact(G[:, :settled], U[:settled])
    wrong = exact[:checked] != guess[:checked]
    first = int(wrong.argmax())
    accepted = first + 1 if wrong[first] else settled
    times = np.cumsum(np.concatenate(([t], E[:accepted] / total[:accepted])))[1:]
    before_end = int(np.searchsorted(times, t_end))
    stopped = before_end < accepted
    accepted = min(accepted, before_end)
    if accepted:
        n = (G[:, accepted - 1] + kernels.moves[:, exact[accepted - 1]]).astype(int).tolist()
    return exact[:accepted], times[:accepted], n, sweeps, fixed, stopped


def _simulate_counts_3(spec, n, t_end, blocks, stride):
    """Windowed three-type loop, with the scalar loop's law, stream use and
    bits.  The first variate block runs scalar.  Where N >= _SETTLE_N (|J| +
    1), later blocks run windows: the first is :data:`_WINDOW_MIN` variates
    wide, each doubles after a fixed point and halves otherwise, and one
    narrower than :data:`_WINDOW_MIN` hands the rest of its block to the
    scalar loop, after which windows start again at that width.  Returns
    (recorded times, channel stream, events accepted by windows, sweeps)."""
    restart = _WINDOW_MIN if spec.N >= _SETTLE_N * (abs(spec.J) + 1) else 0
    kernels = None
    times = [0.0]
    channels = _channel_buffer(3)
    t = 0.0
    event = window_events = sweeps = 0
    window = 0
    for E, U in blocks:
        i = 0
        while i < len(E):
            m = min(window, len(E) - i)
            if m < _WINDOW_MIN:
                pairs = zip(E[i:].tolist(), U[i:].tolist())
                n, t, event, stopped = _scalar_3(
                    spec, n, t, t_end, pairs, times, channels.append, stride, event)
                if stopped:
                    return times, channels, window_events, sweeps
                window = max(window, restart)
                break
            kernels = kernels or _Kernels3(spec)
            chosen, when, n, used, fixed, stopped = _window_3(
                kernels, n, t, t_end, E[i:i + m], U[i:i + m])
            sweeps += used
            if len(chosen):
                channels += chosen.astype(np.uint8).tobytes()
                times += when[(stride - 1 - event) % stride::stride].tolist()
                t = float(when[-1])
                event += len(chosen)
                window_events += len(chosen)
                i += len(chosen)
            if stopped:
                return times, channels, window_events, sweeps
            window = min(2 * window, _WINDOW_MAX) if fixed else window // 2
    return times, channels, window_events, sweeps


def _recorded_counts(n0, channels, stride, rows):
    """Count rows rebuilt from a channel stream: n0, then n0 plus the running
    sum of +1 (even channel) or -1 (odd channel) on type channel >> 1 after
    every ``stride``-th event; rows past the last such event hold the counts
    after every event."""
    k = len(n0)
    c = np.frombuffer(channels, dtype=_channel_dtype(k))
    kind = c >> 1
    sign = 1 - 2 * (c & 1).astype(np.int8)
    last = len(c) // stride
    counts = np.empty((rows, k), dtype=np.int64)
    counts[0] = n0
    for i in range(k):
        # One type at a time, so no (events, k) temporary is ever held.
        steps = np.cumsum(np.where(kind == i, sign, 0), dtype=np.int64)
        counts[1:last + 1, i] = n0[i] + steps[stride - 1::stride]
        counts[last + 1:, i] = n0[i] + (steps[-1] if len(steps) else 0)
    return counts


def ssa_simulate(
    spec: LoopSpec,
    x0: DensityState,
    t_end: float,
    seed: int,
    thinning: int | None = None,
) -> Trajectory:
    """Sample one exact path of the density process on [0, t_end].

    Recording keeps the initial state, every ``thinning``-th event and, at
    t_end, the state after the last event, so ``final_state`` does not
    depend on the thinning (which defaults per :func:`default_thinning`).
    Identical (spec, x0, t_end, seed, thinning) give identical output.
    ``meta`` counts the ``events`` and the ``rng_blocks`` of variates drawn,
    and, for k = 3, the ``window_events`` accepted by windows and the
    ``sweeps`` their guesses took (0 for other k).  The last two follow
    numpy's exp kernel, which only the guess uses; no output bit does.
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

    blocks = []
    n0 = x0.counts
    loop = _simulate_counts_3 if spec.k == 3 else _simulate_counts_generic
    times, channels, window_events, sweeps = loop(
        spec, list(n0), t_end, _variates(_stream(seed), blocks), stride)
    if times[-1] < t_end:
        times.append(t_end)

    meta = {
        "spec": spec,
        "seed": int(seed),
        "t_end": float(t_end),
        "thinning": stride,
        "events": len(channels),
        "rng_blocks": len(blocks),
        "window_events": window_events,
        "sweeps": sweeps,
    }
    counts = _recorded_counts(n0, channels, stride, len(times))
    return Trajectory(np.array(times), counts / spec.N, kind="stochastic", meta=meta)


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
    # Duplicate or unsorted points do not change a max, so nothing is sorted.
    grid = np.concatenate((a.times, b.times, [0.0, t]))
    grid = grid[(grid >= 0.0) & (grid <= t)]
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
