"""Exact event-driven simulation of the density jump process.

The density vector jumps by +/- 1/N in one coordinate at a time; at state x
the jump along sign*e_i fires at rate N * beta(x) with beta from
:func:`tdsim.model.channel_rates`.  The simulator is the direct stochastic
simulation algorithm: sample an exponential waiting time at the total rate,
then pick the channel in proportion to its rate.  This generates the same
process law as the random-time-change construction with one Poisson clock
per jump direction; the direct method is simply the cheaper sampler.

Every loop computes the rates in the factor form of
:func:`tdsim.model.rate_factors`: each count contributes four factors, one
``math.exp`` each, to the rates that read it.  One loop serves every k, one
window of variates at a time: numpy guesses every event's channel from the
window's first state and sweeps until the guessed states stop changing,
then every settled event is recomputed with the scalar arithmetic, from
factor tables over each count's range in the window, and the window is cut
at the first channel the guess got wrong.  The guess's exponential,
numpy's, is the only one in the package not taken with ``math.exp``; it
decides no output bit.  Where windows do not settle quickly (small N,
strong coupling), a scalar loop runs instead (unrolled for k = 3); an event
moves one type, so only the four factors of its count and the rates that
read them are recomputed (the dependency-graph idea of Gibson & Bruck, J.
Phys. Chem. A 104, 2000).  Both read their variates from :func:`_variates`.
:func:`_chunks` runs them and hands out the path one window or scalar run
at a time: the counts before each event, the event times and the counts
after the chunk.  It has two consumers, and neither stores the path:
:class:`Records` turns every ``thinning``-th state of each chunk into a
table of rows, which ``tdsim simulate`` writes out as they come and
:func:`ssa_simulate` concatenates into a
:class:`~tdsim.trajectory.Trajectory`; :func:`ssa_sup_distance` folds each
chunk into the sup-distance to a deterministic path.  Both refuse, before
drawing any event, a spec whose total rate could overflow a double or whose
N is above 2^53, where counts held as doubles are no longer exact.  The
per-site sampler :func:`tdsim.micro.micro_simulate` runs on
:func:`ssa_simulate`.

Randomness: each run owns a PCG64 generator seeded through
``numpy.random.SeedSequence(seed)``.  Ensemble helpers derive per-replica
integer seeds via ``SeedSequence([seed, param_index, replica_index])`` so
replica streams are independent and reproducible regardless of execution
order.
"""
from __future__ import annotations

import math
import sys
from array import array
from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .model import DensityState, LoopSpec, count_factors, exponent_terms, rate_factors
from .trajectory import Trajectory

__all__ = ["Records", "ssa_simulate", "ssa_sup_distance", "sup_distance", "derive_seed"]

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


def _scalar(spec, n, t, t_end, pairs, record, when):
    """Scalar loop over ``pairs`` for any k, from counts n at time t: the
    rates of :func:`tdsim.model.rate_factors`, their running sums added one
    at a time, the total the last, and the channel the first above u *
    total.  Passes each event's channel to ``record`` and its time to
    ``when``.  Returns (counts, t, stopped), where stopped means t_end was
    reached."""
    N = spec.N
    invN = 1.0 / N
    cA, cH, types = rate_factors(spec)
    nA, nH = -cA, -cH
    k = spec.k
    last = 2 * k - 1
    exp = math.exp
    n = list(n)
    # Each count's four factors, exp(cA y), exp(-cA y), exp(cH y), exp(-cH y).
    aup, adn, hup, hdn = (f.tolist() for f in count_factors(cA, cH, np.array(n) * invN))
    grow, shrink, rates = [0.0] * k, [0.0] * k, [0.0] * (2 * k)
    # Each entry (i, a(i), h(i), e^{2 kappa_i}, e^{-2 kappa_i}, 2i) names a
    # type whose products are due; at first every type's, after type j
    # moved the two that read n[j].
    fresh = [(i, a, h, ku, kd, 2 * i) for i, (a, h, ku, kd) in enumerate(types)]
    readers = [[fresh[i] for i, (a, h, _, _) in enumerate(types) if j in (a, h)]
               for j in range(k)]
    for e, u in pairs:
        for i, a, h, ku, kd, c in fresh:
            grow[i] = p = (ku * aup[a]) * hup[h]
            shrink[i] = q = (kd * adn[a]) * hdn[h]
            rates[c] = (N - n[i]) * p
            rates[c + 1] = n[i] * q
        cum = list(accumulate(rates))
        tot = cum[last]
        t_next = t + e / tot
        if t_next >= t_end:
            return n, t, True
        chosen = bisect_right(cum, u * tot, 0, last)
        j = chosen >> 1
        n[j] += -1 if chosen & 1 else 1
        y = n[j] * invN
        aup[j], adn[j], hup[j], hdn[j] = exp(cA * y), exp(nA * y), exp(cH * y), exp(nH * y)
        rates[2 * j] = (N - n[j]) * grow[j]
        rates[2 * j + 1] = n[j] * shrink[j]
        fresh = readers[j]
        record(chosen)
        t = t_next
        when(t)
    return n, t, False


def _scalar_3(spec, n, t, t_end, pairs, record, when):
    """:func:`_scalar` unrolled for three types, with the same bits.  Type
    0 reads counts 2 and 1, type 1 counts 0 and 2, type 2 counts 1 and 0."""
    N = spec.N
    invN = 1.0 / N
    cA, cH, ((_, _, K0, L0), (_, _, K1, L1), (_, _, K2, L2)) = rate_factors(spec)
    nA, nH = -cA, -cH
    exp = math.exp
    n0, n1, n2 = n
    # Count j's factors: aj = exp(cA y_j), bj = exp(-cA y_j), hj = exp(cH y_j),
    # gj = exp(-cH y_j).
    (a0, a1, a2), (b0, b1, b2), (h0, h1, h2), (g0, g1, g2) = (
        f.tolist() for f in count_factors(cA, cH, np.array(n) * invN))
    moved = -1
    for e, u in pairs:
        if moved != 0:
            p0 = (K0 * a2) * h1
            m0 = (L0 * b2) * g1
        if moved != 1:
            p1 = (K1 * a0) * h2
            m1 = (L1 * b0) * g2
        if moved != 2:
            p2 = (K2 * a1) * h0
            m2 = (L2 * b1) * g0
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
            return [n0, n1, n2], t, True
        # The first running sum above v, as a chain of tests would find it:
        # the sums do not decrease.
        v = u * tot
        if v < s1:
            if v < u0:
                n0 += 1
                record(0)
            else:
                n0 -= 1
                record(1)
            y = n0 * invN
            a0, b0, h0, g0 = exp(cA * y), exp(nA * y), exp(cH * y), exp(nH * y)
            moved = 0
        elif v < s3:
            if v < s2:
                n1 += 1
                record(2)
            else:
                n1 -= 1
                record(3)
            y = n1 * invN
            a1, b1, h1, g1 = exp(cA * y), exp(nA * y), exp(cH * y), exp(nH * y)
            moved = 1
        else:
            if v < s4:
                n2 += 1
                record(4)
            else:
                n2 -= 1
                record(5)
            y = n2 * invN
            a2, b2, h2, g2 = exp(cA * y), exp(nA * y), exp(cH * y), exp(nH * y)
            moved = 2
        t = t_next
        when(t)
    return [n0, n1, n2], t, False


# The loop advances a path one window of variates at a time.  It guesses
# every event's channel with numpy from the window's first state, rebuilds
# the states from the guessed channels and sweeps again until no channel
# changes; states up to the first changed channel were built from settled
# states, so every sweep settles at least one more event.  The settled
# events are then recomputed with the scalar loop's expressions and
# math.exp, and the window is cut at the first channel that differs from the
# guess, so the guess decides nothing.  The constants were measured at k = 3
# with ssa_simulate on a 2-core x86 machine (CPython 3.11, numpy 2.4), as
# time per event against the unrolled scalar loop's in the same process:
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


def _moves(k: int) -> np.ndarray:
    """moves[:, c] is channel c's count change, +1 (even c) or -1 (odd c) on
    type c >> 1."""
    moves = np.zeros((k, 2 * k))
    moves[np.arange(2 * k) >> 1, np.arange(2 * k)] = [1.0, -1.0] * k
    return moves


class _Kernels:
    """The numpy steps of the windowed loop for one spec.  Built on a run's
    first window, so that importing the module allocates no array.  The
    guess and the exact pass differ only in their exponentials; both turn
    them into channels with :meth:`select`."""

    def __init__(self, spec: LoopSpec):
        k = spec.k
        dJ, hJ, types = exponent_terms(spec)
        a, h, kappa = zip(*types)
        self.a, self.h = list(a), list(h)
        self.moves = _moves(k)
        self.N = spec.N
        self.invN = 1.0 / spec.N
        # The guess's exponents as one affine map of the counts: fewer numpy
        # calls than the factors, and rounded differently, which only the
        # guess may be.  For k = 2, a[i] and h[i] are one type, whose two
        # weights add.
        self.intercept = 2.0 * np.array(kappa)[:, None]
        self.slope = np.zeros((k, k))
        self.slope[range(k), a] = -2.0 * dJ * self.invN
        self.slope[range(k), h] += -2.0 * hJ * self.invN
        self.cA, self.cH, factors = rate_factors(spec)
        _, _, up, down = zip(*factors)
        self.kup, self.kdown = np.array(up)[:, None], np.array(down)[:, None]

    def select(self, G, U, grow, shrink):
        """(channels, totals) at the count columns G (k, m) from each type's
        exponentials: the scalar loop's rates, running sums added one row at
        a time, and the first sum above u * total."""
        cum = np.empty((2 * len(G), G.shape[1]))
        np.multiply(self.N - G, grow, out=cum[0::2])
        np.multiply(G, shrink, out=cum[1::2])
        for row in range(1, len(cum)):
            np.add(cum[row - 1], cum[row], out=cum[row])
        return (U * cum[-1] >= cum[:-1]).sum(axis=0), cum[-1]

    def guess(self, G, U):
        """Channels that :data:`_guess_exp` picks at the count columns G; the
        scalar loop's choice nearly always, not always."""
        x = self.slope @ G
        x += self.intercept
        return self.select(G, U, _guess_exp(x), _guess_exp(-x))[0]

    def exact(self, G, U):
        """(channels, totals) at the count columns G, bit for bit those of
        the scalar loop: each count row's four factors, from
        :func:`tdsim.model.count_factors` once per count between the row's
        least and greatest value, multiplied in the scalar loop's order."""
        lo = G.min(axis=1).astype(int)
        size = G.max(axis=1).astype(int) - lo + 1
        start = np.cumsum(size) - size
        counts = np.concatenate([np.arange(b, b + s) for b, s in zip(lo.tolist(), size.tolist())])
        aup, adn, hup, hdn = count_factors(self.cA, self.cH, counts * self.invN)
        # Row j's value n sits at start[j] + n - lo[j] of the tables.
        where = (G + (start - lo)[:, None]).astype(np.intp)
        at_a, at_h = where[self.a], where[self.h]
        grow = self.kup * np.take(aup, at_a)
        grow *= np.take(hup, at_h)
        shrink = self.kdown * np.take(adn, at_a)
        shrink *= np.take(hdn, at_h)
        return self.select(G, U, grow, shrink)


def _window(kernels, n, t, t_end, E, U):
    """The exact events of one window from counts n at time t.

    Returns (before, times, counts, sweeps, fixed, stopped): the counts
    before each accepted event as k columns, and its time; the counts after
    them; the sweeps the guess took; whether it reached a fixed point within
    :data:`_MAX_SWEEPS`; and whether the event after them falls at or past
    t_end.
    """
    m = len(E)
    G = np.empty((len(n), m))
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
    return G[:, :accepted], times[:accepted], n, sweeps, fixed, stopped


def _chunks(spec, n, t_end, blocks):
    """The path from counts n at time 0 up to t_end, one window or scalar run
    at a time, with the scalar loop's law, stream use and bits.

    Yields (before, times, counts, sweeps) per chunk: the counts before each
    event as the k columns of a float array, the event times, the counts
    after the chunk and the sweeps its guess took (0 for a scalar run).  The
    first variate block runs scalar.  Where N >= _SETTLE_N (|J| + 1), later
    blocks run windows: the first is :data:`_WINDOW_MIN` variates wide, each
    doubles after a fixed point and halves otherwise, and one narrower than
    :data:`_WINDOW_MIN` hands the rest of its block to the scalar loop, after
    which windows start again at that width.
    """
    restart = _WINDOW_MIN if spec.N >= _SETTLE_N * (abs(spec.J) + 1) else 0
    scalar = _scalar_3 if spec.k == 3 else _scalar
    moves = _moves(spec.k)
    kernels = None
    t = 0.0
    window = 0
    for E, U in blocks:
        i = 0
        while i < len(E):
            m = min(window, len(E) - i)
            if m < _WINDOW_MIN:
                channels, when = array("l"), array("d")
                start = n
                n, t, stopped = scalar(spec, n, t, t_end, zip(E[i:].tolist(), U[i:].tolist()),
                                       channels.append, when.append)
                yield (_before(moves, start, np.frombuffer(channels, "l")),
                       np.frombuffer(when), n, 0)
                if stopped:
                    return
                window = max(window, restart)
                break
            kernels = kernels or _Kernels(spec)
            G, when, n, used, fixed, stopped = _window(
                kernels, n, t, t_end, E[i:i + m], U[i:i + m])
            yield G, when, n, used
            if stopped:
                return
            t = float(when[-1])
            i += len(when)
            window = min(2 * window, _WINDOW_MAX) if fixed else window // 2


def _before(moves, n, channels):
    """Counts before each event of a channel stream that starts at counts n,
    as k float columns: n, then n plus the running sum of the moves."""
    G = np.empty((len(n), len(channels)))
    if len(channels):
        G[:, 0] = n
        np.cumsum(moves[:, channels[:-1]], axis=1, out=G[:, 1:])
        G[:, 1:] += G[:, :1]
    return G


def _check_rates(spec):
    """Raises a ValueError naming N where a count could leave the doubles'
    exact integers (N above 2^53: windows and recorded rows hold counts as
    floats) or the total jump rate could overflow a double: each of the 2k
    rates is at most N e^{2 (|J| + max |kappa_i|)}."""
    if spec.N > 2**53:
        raise ValueError(f"N: at N = {spec.N} the counts, held as doubles, "
                         f"are not exact above 2**53")
    bound = 2 * spec.k * spec.N * math.exp(2.0 * (abs(spec.J) + max(map(abs, spec.kappa))))
    if bound > sys.float_info.max:
        raise ValueError(f"N: at N = {spec.N} the total jump rate, up to "
                         f"2k N exp(2 (|J| + max|kappa|)), overflows a double")


def _start_counts(spec, x0, t_end):
    """The counts of x0 after checking it, t_end and the rates' range
    against the spec."""
    _check_rates(spec)
    if not math.isfinite(t_end) or t_end < 0:
        raise ValueError(f"t_end must be finite and non-negative, got {t_end!r}")
    if not isinstance(x0, DensityState) or x0.grid != spec.N or len(x0.x) != spec.k:
        raise ValueError("x0 must live on the 1/N grid of the given spec")
    return list(x0.counts)


class Records:
    """The rows that :func:`ssa_simulate` records, one float table at a time.

    Iterating runs the sampler from ``seed`` and yields ``(M_i, 1 + k)``
    float tables of rows ``(t, x_1, ..., x_k)``: the row at t = 0, every
    ``thinning``-th event of each :func:`_chunks` chunk with the state after
    it as ``counts / N``, and the row at t_end, which holds the state after
    the last event.  A consumer that writes each table out as it comes holds
    one chunk of rows, not the path.  ``meta`` carries :func:`ssa_simulate`'s
    counters, complete once the iteration ends, and ``len`` is the number
    of rows yielded so far.  The arguments are checked here, not on the
    first ``next``.
    """

    def __init__(self, spec: LoopSpec, x0: DensityState, t_end: float, seed: int,
                 thinning: int | None = None):
        self._counts = _start_counts(spec, x0, t_end)
        stride = default_thinning(spec.N) if thinning is None else int(thinning)
        if stride < 1:
            raise ValueError("thinning stride must be >= 1")
        self.meta = {"spec": spec, "seed": int(seed), "t_end": float(t_end), "thinning": stride,
                     "events": 0, "rng_blocks": 0, "window_events": 0, "sweeps": 0}
        self.rows = 0

    def __len__(self) -> int:
        return self.rows

    def __iter__(self):
        self.rows = 0
        for table in self._tables():
            self.rows += len(table)
            yield table

    def _tables(self):
        meta = self.meta
        spec, t_end, stride = meta["spec"], meta["t_end"], meta["thinning"]
        n = self._counts
        yield np.concatenate(([0.0], np.array(n) / spec.N))[None]
        blocks = []
        events = window_events = sweeps = 0
        for G, when, n, used in _chunks(spec, n, t_end, _variates(_stream(meta["seed"]), blocks)):
            first = (stride - 1 - events) % stride
            events += len(when)
            if used:
                window_events += len(when)
                sweeps += used
            meta.update(events=events, rng_blocks=len(blocks), window_events=window_events,
                        sweeps=sweeps)
            if first < len(when):
                after = np.column_stack((G[:, 1:], n))[:, first::stride]
                table = np.empty((after.shape[1], 1 + len(n)))
                table[:, 0] = when[first::stride]
                np.divide(after.T, spec.N, out=table[:, 1:])
                yield table
        # Every event falls before t_end, so only at t_end = 0 is the last
        # row's time t_end already.
        if t_end > 0:
            yield np.concatenate(([t_end], np.array(n) / spec.N))[None]


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
    the ``window_events`` accepted by windows and the ``sweeps`` their
    guesses took.  The last two follow numpy's exp kernel, which only the
    guess uses; no output bit does.  The path is the :class:`Records` of
    the same arguments, concatenated.
    """
    records = Records(spec, x0, t_end, seed, thinning)
    table = np.concatenate(list(records))
    return Trajectory(table[:, 0], table[:, 1:], kind="stochastic", meta=records.meta)


def ssa_sup_distance(
    spec: LoopSpec,
    x0: DensityState,
    reference: Trajectory,
    t: float,
    seed: int,
) -> float:
    """``sup_distance(ssa_simulate(spec, x0, t, seed, thinning=1), reference, t)``,
    bit for bit, without storing the path.

    The sampler's chunks are folded into a running max as they come.  The
    path is a step function and ``reference`` is deterministic, so the sup
    is taken over the gaps at every event time on both sides of the jump, at
    the reference's nodes in [0, t], and at 0 and t.  Events at one time
    make one jump: the states between them count nowhere, as in
    :func:`sup_distance`.  The gaps are the same floats as there: densities
    are counts / N, and the reference is read at its nodes or with
    ``np.interp``, as ``value_at`` reads it.
    """
    n = _start_counts(spec, x0, t)
    if reference.kind != "deterministic":
        raise ValueError("reference must be a deterministic trajectory")
    if not reference.covers(t):
        raise ValueError(f"trajectory on [{reference.times[0]}, {reference.times[-1]}] "
                         f"does not cover [0, {t}]")
    N = spec.N
    nodes = reference.times
    columns = np.ascontiguousarray(reference.states.T)  # one row per type
    lo = int(np.searchsorted(nodes, 0.0))  # the first node not yet folded
    # The time of the last jump and the gap just after it, folded in once the
    # next event is known to fall later; time 0 counts as a jump to x0.
    last = 0.0
    after = np.abs(np.array(n) / N - reference.value_at(0.0)[0]).max()
    sup = 0.0
    for G, when, n, _ in _chunks(spec, n, t, _variates(_stream(seed), [])):
        if not len(when):
            continue
        before = G / N
        # The reference at the event times, read as Trajectory.value_at does.
        ref = np.array([np.interp(when, nodes, x) for x in columns])
        new = np.empty(len(when), dtype=bool)  # event j falls later than the one before
        new[0] = when[0] != last
        np.not_equal(when[1:], when[:-1], out=new[1:])
        if new[0]:
            sup = max(sup, after)
        # Each state between two jumps, against the reference at both.
        sup = np.max(np.abs(before - ref), where=new, initial=sup)
        sup = np.max(np.abs(before[:, 1:] - ref[:, :-1]), where=new[1:], initial=sup)
        hi = int(np.searchsorted(nodes, when[-1]))
        held = np.searchsorted(when, nodes[lo:hi], side="right")
        sup = np.max(np.abs(before[:, held] - columns[:, lo:hi]), initial=sup)
        lo = hi
        last = when[-1]
        after = np.abs(np.array(n) / N - ref[:, -1]).max()
    hi = int(np.searchsorted(nodes, t, side="right"))
    tail = np.column_stack((columns[:, lo:hi], reference.value_at(t)[0]))
    return float(max(sup, after, np.abs((np.array(n) / N)[:, None] - tail).max()))


def sup_distance(a: Trajectory, b: Trajectory, t: float) -> float:
    """sup over s <= t of the max-norm gap between two paths.

    Stochastic paths count as right-continuous step functions, deterministic
    ones as linearly interpolated between their recorded nodes.  Both paths
    are evaluated once on the sorted times of both plus 0 and t; no node of
    either lies between two neighbouring grid points.  The sup is taken over
    the gaps there and over the gaps of the left limits: a step path's is
    its value at the previous grid point, a deterministic path's its value
    at the point itself.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    for traj in (a, b):
        if not traj.covers(t):
            raise ValueError(
                f"trajectory on [{traj.times[0]}, {traj.times[-1]}] does not cover [0, {t}]"
            )
    # Both time arrays are sorted runs, which a stable sort merges in linear time.
    grid = np.sort(np.concatenate((a.times, b.times, [0.0, t])), kind="stable")
    grid = grid[(grid >= 0.0) & (grid <= t)]
    va, vb = a.value_at(grid), b.value_at(grid)
    left_a = va[:-1] if a.kind == "stochastic" else va[1:]
    left_b = vb[:-1] if b.kind == "stochastic" else vb[1:]
    return float(max(np.max(np.abs(va - vb)), np.max(np.abs(left_a - left_b))))
