"""Exact jump-process sampler and the path-distance metric."""
import math

import numpy as np
import pytest

from tdsim import jump, ode
from tdsim.jump import default_thinning, direct_step, ssa_simulate, sup_distance
from tdsim.micro import density_generator
from tdsim.model import DensityState, LoopSpec, channel_rates, vector_field
from tdsim.trajectory import Trajectory


def birth_death_stationary_mean(N):
    """Mean density of the single-type chain with rates up=(N-n), down=n.

    Detailed balance gives pi(n) ~ C(N, n); the mean is exactly 1/2, but we
    compute it by the recursion to keep the oracle independent.
    """
    w = [1.0]
    for n in range(N):
        w.append(w[-1] * (N - n) / (n + 1))
    total = sum(w)
    return sum(n * wn for n, wn in enumerate(w)) / (N * total)


def _reference_step_3(spec):
    """The unrolled k = 3 step's arithmetic, every exponent at every event."""
    N = spec.N
    invN = 1.0 / N
    k0, k1, k2 = spec.kappa
    dJ = spec.delta * spec.J
    hJ = (1.0 - spec.delta) * spec.J

    def step(n, e, u):
        n0, n1, n2 = n
        e0 = 2.0 * (-dJ * (n2 * invN) - hJ * (n1 * invN) + k0)
        e1 = 2.0 * (-dJ * (n0 * invN) - hJ * (n2 * invN) + k1)
        e2 = 2.0 * (-dJ * (n1 * invN) - hJ * (n0 * invN) + k2)
        rates = [
            (N - n0) * math.exp(e0), n0 * math.exp(-e0),
            (N - n1) * math.exp(e1), n1 * math.exp(-e1),
            (N - n2) * math.exp(e2), n2 * math.exp(-e2),
        ]
        tot = rates[0]
        for r in rates[1:]:
            tot += r
        v = u * tot
        acc = 0.0
        for c, r in enumerate(rates):
            acc += r
            if v < acc:
                return e / tot, c
        return e / tot, 5

    return step


def reference_ssa(spec, x0, t_end, seed, thinning=None):
    """Plain per-event sampler: recomputes every exponent at every event and
    keeps a count tuple per recorded event.  Returns (times, states, events,
    variate blocks drawn)."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    blocks = 0

    def pairs():
        nonlocal blocks
        size = 256
        while True:
            blocks += 1
            yield from zip(rng.standard_exponential(size).tolist(), rng.random(size).tolist())
            size = 8192

    stride = default_thinning(spec.N) if thinning is None else thinning
    step = _reference_step_3(spec) if spec.k == 3 else direct_step(spec)
    n = list(x0.counts)
    times, states = [0.0], [tuple(n)]
    t, event = 0.0, 0
    for e, u in pairs():
        dt, c = step(n, e, u)
        if t + dt >= t_end:
            break
        t += dt
        n[c // 2] += 1 if c % 2 == 0 else -1
        event += 1
        if event % stride == 0:
            times.append(t)
            states.append(tuple(n))
    if times[-1] < t_end:
        times.append(t_end)
        states.append(tuple(n))
    return np.array(times), np.array(states, dtype=float) / spec.N, event, blocks


def assert_same_path(traj, spec, x0, t_end, seed, thinning=None):
    """``traj`` has the bytes, events and variate blocks of reference_ssa."""
    times, states, events, blocks = reference_ssa(spec, x0, t_end, seed, thinning)
    assert traj.meta["events"] == events
    assert traj.meta["rng_blocks"] == blocks
    assert traj.times.tobytes() == times.tobytes()
    assert traj.states.tobytes() == states.tobytes()


class TestSamplerOracle:
    @pytest.mark.parametrize("thinning", [1, 7, None])
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_bitwise_equal_across_refills(self, k, thinning):
        # About 10^4 events: past the 256 and the 256 + 8192 variate refills.
        N = 2000
        spec = LoopSpec.with_half_j(J=1.3, delta=0.3, N=N, k=k)
        x0 = DensityState.from_counts([i * N // (k - 1) for i in range(k)], N)
        traj = ssa_simulate(spec, x0, 12.0 / k, seed=40 + k, thinning=thinning)
        assert traj.meta["events"] > 256 + 8192
        assert_same_path(traj, spec, x0, 12.0 / k, 40 + k, thinning)

    @pytest.mark.parametrize("thinning", [7, None])
    @pytest.mark.parametrize("k", [3, 5])
    def test_final_state_does_not_depend_on_thinning(self, k, thinning):
        # 3023 and 5056 events: a multiple of neither 7 nor the default 20,
        # so the t_end row follows events after the last recorded one.
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=2000, k=k)
        x0 = DensityState.from_counts([1000] * k, 2000)
        every = ssa_simulate(spec, x0, 0.5, seed=3, thinning=1)
        thinned = ssa_simulate(spec, x0, 0.5, seed=3, thinning=thinning)
        assert every.meta["events"] == {3: 3023, 5: 5056}[k]
        assert thinned.meta["events"] == every.meta["events"]
        assert thinned.meta["events"] % thinned.meta["thinning"] != 0
        assert thinned.final_state.tobytes() == every.final_state.tobytes()

    @pytest.mark.parametrize("thinning", [1, 7, None])
    @pytest.mark.parametrize("k", [128, 130])
    def test_bitwise_equal_around_byte_channels(self, k, thinning):
        # 2k - 1 = 255 channel indices are the most a byte holds; 259 are not.
        spec = LoopSpec(J=1.0, delta=0.3, kappa=(0.1,) * k, N=2, k=k)
        x0 = DensityState.from_counts([i % 3 for i in range(k)], 2)
        traj = ssa_simulate(spec, x0, 1.0, seed=5, thinning=thinning)
        full = reference_ssa(spec, x0, 1.0, 5, 1)[1]
        assert np.any(np.diff(full[:, -1]) != 0)  # the last type's channels fired
        assert_same_path(traj, spec, x0, 1.0, 5, thinning)

    @pytest.mark.parametrize(
        "k, N, t_end",
        [(3, 10, 0.0), (3, 10, 2.0), (3, 2000, 2.0), (5, 2000, 1.0), (2, 30, 100.0)],
    )
    def test_rng_blocks_count_refills(self, k, N, t_end):
        # Each event takes one (exponential, uniform) pair and the stopping
        # draw one more; the first block holds 256 pairs, later ones 8192.
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=N, k=k)
        x0 = DensityState.from_counts([N // 2] * k, N)
        meta = ssa_simulate(spec, x0, t_end, seed=9).meta
        pairs = meta["events"] + 1
        assert meta["rng_blocks"] == 1 + math.ceil(max(0, pairs - 256) / 8192)


class TestWindowedLoop:
    """The k = 3 loop runs windows of numpy sweeps checked with math.exp,
    and the scalar loop where windows do not pay."""

    @pytest.mark.parametrize("thinning", [1, 7, None])
    @pytest.mark.parametrize("J", [1.0, 2.5])
    @pytest.mark.parametrize("N", [10, 100, 1000, 10_000, 100_000])
    def test_bitwise_equal_to_reference(self, N, J, thinning):
        # About 2e4 events: the first variate block runs scalar, the next
        # two through windows or, where they do not settle, the scalar loop.
        spec = LoopSpec.with_half_j(J=J, delta=0.3, N=N)
        x0 = DensityState.from_counts((4 * N // 5, N // 5, N // 2), N)
        t_end = 7000.0 / N
        traj = ssa_simulate(spec, x0, t_end, seed=N + int(10 * J), thinning=thinning)
        assert traj.meta["events"] > 256 + 8192
        assert_same_path(traj, spec, x0, t_end, N + int(10 * J), thinning)

    @pytest.mark.parametrize("thinning", [1, 7, None])
    @pytest.mark.parametrize("stop", [100, 255, 256, 8447, 8448])
    def test_t_end_at_an_event_near_block_edges(self, stop, thinning):
        # t_end is the time of event `stop` (from 0), so that event's pair
        # is the stopping draw: inside the first 256-pair block, its last
        # pair, the first of the second block, its last, the first of the third.
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10_000)
        x0 = DensityState.from_counts((8000, 2000, 5000), 10_000)
        t_end = float(ssa_simulate(spec, x0, 1.0, seed=2, thinning=1).times[stop + 1])
        traj = ssa_simulate(spec, x0, t_end, seed=2, thinning=thinning)
        assert traj.meta["events"] == stop
        assert traj.meta["rng_blocks"] == 1 + (stop >= 256) + (stop >= 256 + 8192)
        assert_same_path(traj, spec, x0, t_end, 2, thinning)

    def test_a_wrong_guess_changes_no_bit(self, monkeypatch):
        # Skewing the guess's exponents moves its channels near every
        # boundary; math.exp recomputes each event, so only the sweeps move.
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10_000)
        x0 = DensityState.from_counts((8000, 2000, 5000), 10_000)
        honest = ssa_simulate(spec, x0, 1.0, seed=4)
        monkeypatch.setattr(jump, "_guess_exp", lambda x: np.exp(x * (1 + 1e-3)))
        skewed = ssa_simulate(spec, x0, 1.0, seed=4)
        assert skewed.meta["sweeps"] != honest.meta["sweeps"]
        assert skewed.meta["window_events"] > 0.9 * skewed.meta["events"]
        assert skewed.meta["events"] == honest.meta["events"]
        assert skewed.times.tobytes() == honest.times.tobytes()
        assert skewed.states.tobytes() == honest.states.tobytes()

    def test_scalar_loop_resumes_inside_a_block(self):
        # N = 1000, J = 1.5: some windows do not settle, and the scalar loop
        # takes over from their last state for the rest of the block.
        spec = LoopSpec.with_half_j(J=1.5, delta=0.0, N=1000)
        x0 = DensityState.from_counts((800, 200, 500), 1000)
        traj = ssa_simulate(spec, x0, 10.0, seed=3, thinning=1)
        scalar = traj.meta["events"] - traj.meta["window_events"]
        assert traj.meta["window_events"] > 0 and scalar > 256
        assert_same_path(traj, spec, x0, 10.0, 3, 1)

    def test_counters_show_where_windows_run(self):
        # Large N: rates barely move within a window, which settles in a few
        # sweeps.  N = 100 at J = 2.5: windows would not settle, and the
        # scalar loop runs every event.
        big = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10_000)
        meta = ssa_simulate(big, DensityState.from_counts((8000, 2000, 5000), 10_000),
                            1.0, seed=6).meta
        assert meta["window_events"] > 0.95 * meta["events"]
        assert 0 < meta["sweeps"] < meta["events"] / 256
        small = LoopSpec.with_half_j(J=2.5, delta=0.0, N=100)
        meta = ssa_simulate(small, DensityState.from_counts((50, 50, 50), 100), 100.0,
                            seed=6).meta
        assert meta["events"] > 4 * 8192
        assert meta["window_events"] == meta["sweeps"] == 0
        generic = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10_000, k=4)
        meta = ssa_simulate(generic, DensityState.from_counts((5000,) * 4, 10_000), 0.5,
                            seed=6).meta
        assert meta["window_events"] == meta["sweeps"] == 0


def transient_law(spec, n0, t):
    """p(t) = p(0) exp(Qt) on the count grid, by uniformization (Jensen 1953):
    the Poisson(rate * t) mixture of the powers of I + Q / rate."""
    q = density_generator(spec)
    rate = float(-q.diagonal().min())
    assert rate * t < 500  # exp(-rate * t) stays a normal double
    step = np.eye(len(q)) + q / rate
    p = np.zeros(len(q))
    p[np.ravel_multi_index(n0, (spec.N + 1,) * spec.k)] = 1.0
    weight = math.exp(-rate * t)
    law = weight * p
    mass = weight
    j = 0
    while mass < 1.0 - 1e-13:
        j += 1
        p = p @ step
        weight *= rate * t / j
        law += weight * p
        mass += weight
    return law


def g_test(observed, expected):
    """(G statistic, degrees of freedom), with the cells expected below 5
    pooled into one, and that cell, if still below 5, into the smallest."""
    small = expected < 5
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] < 5:
        smallest = int(np.argmin(exp[:-1]))
        obs[smallest] += obs[-1]
        exp[smallest] += exp[-1]
        obs, exp = obs[:-1], exp[:-1]
    hit = obs > 0
    return 2.0 * float(np.sum(obs[hit] * np.log(obs[hit] / exp[hit]))), len(exp) - 1


class TestExactLaw:
    """The final state of fixed-seed runs against the exact transient law.

    The law is exact and the run count fixed, so the pooling and the degrees
    of freedom are too; each threshold is the chi-square quantile at a
    false-alarm rate of 1e-4 for its degrees of freedom (scipy.stats.chi2.isf,
    hard-coded).  Against the law of a spec with J 10 % lower, G must exceed
    three times the threshold.
    """

    RUNS = 20_000

    @pytest.mark.parametrize(
        "k, N, J, delta, n0, dof, threshold",
        [
            (3, 4, 2.5, 0.0, (4, 0, 2), 87, 144.79),  # the unrolled k = 3 loop
            (4, 2, 1.5, 0.3, (2, 0, 1, 2), 71, 124.07),  # the generic loop
        ],
    )
    def test_final_state_law(self, k, N, J, delta, n0, dof, threshold):
        spec = LoopSpec.with_half_j(J=J, delta=delta, N=N, k=k)
        x0 = DensityState.from_counts(n0, N)
        finals = np.array([ssa_simulate(spec, x0, 1.0, seed=s).final_state
                           for s in range(self.RUNS)])
        cells = np.ravel_multi_index(tuple(np.rint(finals * N).astype(int).T), (N + 1,) * k)
        observed = np.bincount(cells, minlength=(N + 1) ** k).astype(float)
        law = transient_law(spec, n0, 1.0)
        assert law.sum() == pytest.approx(1.0, abs=1e-12)
        g, df = g_test(observed, self.RUNS * law)
        assert df == dof
        assert g < threshold
        wrong = LoopSpec.with_half_j(J=0.9 * J, delta=delta, N=N, k=k)
        assert g_test(observed, self.RUNS * transient_law(wrong, n0, 1.0))[0] > 3 * threshold


class TestSsaSimulate:
    def test_zero_horizon(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.2, N=10)
        x0 = DensityState.from_counts((5, 5, 5), 10)
        traj = ssa_simulate(spec, x0, 0.0, seed=1)
        assert len(traj) == 1
        assert traj.times[0] == 0.0
        assert traj.states[0] == pytest.approx([0.5, 0.5, 0.5])

    def test_initial_total_rate(self):
        # At the symmetric point of the half-J field every channel has
        # beta = 1/2, so the process leaves at rate 6 * N/2.
        spec = LoopSpec.with_half_j(J=2.0, delta=1.0, N=100)
        x0 = DensityState((0.5, 0.5, 0.5), grid=100)
        assert spec.N * channel_rates(spec, x0).sum() == 300.0

    def test_seed_determinism_bytewise(self):
        spec = LoopSpec(J=1.0, delta=0.4, kappa=(0.3,) * 3, N=50)
        x0 = DensityState.from_counts((10, 25, 40), 50)
        a = ssa_simulate(spec, x0, 3.0, seed=123)
        b = ssa_simulate(spec, x0, 3.0, seed=123)
        assert a.times.tobytes() == b.times.tobytes()
        assert a.states.tobytes() == b.states.tobytes()
        c = ssa_simulate(spec, x0, 3.0, seed=124)
        assert not np.array_equal(a.times, c.times)

    def test_generic_k_path_matches_contract(self):
        spec = LoopSpec(J=0.8, delta=0.6, kappa=(0.1,) * 4, N=30, k=4)
        x0 = DensityState.from_counts((10, 15, 20, 25), 30)
        traj = ssa_simulate(spec, x0, 2.0, seed=3)
        counts = traj.states * spec.N
        assert np.abs(counts - np.round(counts)).max() < 1e-9

    def test_raw_jumps_single_coordinate(self):
        spec = LoopSpec.with_half_j(J=1.5, delta=0.7, N=40)
        x0 = DensityState.from_counts((20, 20, 20), 40)
        traj = ssa_simulate(spec, x0, 2.0, seed=8, thinning=1)
        steps = np.diff(traj.states, axis=0)
        interior = steps[:-1] if traj.times[-1] == traj.meta["t_end"] else steps
        nonzero_per_jump = (np.abs(interior) > 1e-12).sum(axis=1)
        assert np.all(nonzero_per_jump == 1)
        magnitudes = np.abs(interior).max(axis=1)
        assert magnitudes == pytest.approx(np.full(len(interior), 1 / 40), abs=1e-12)

    def test_grid_closure(self):
        spec = LoopSpec(J=-1.2, delta=0.1, kappa=(0.0,) * 3, N=25)
        x0 = DensityState.from_counts((5, 20, 12), 25)
        traj = ssa_simulate(spec, x0, 4.0, seed=21)
        assert np.all(traj.states >= 0) and np.all(traj.states <= 1)
        counts = traj.states * spec.N
        assert np.abs(counts - np.round(counts)).max() < 1e-9

    def test_default_thinning_bounds_memory(self):
        assert default_thinning(500) == 1
        assert default_thinning(1000) == 1
        assert default_thinning(10000) == 100
        spec = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=2000)
        x0 = DensityState.from_counts((1000,) * 3, 2000)
        traj = ssa_simulate(spec, x0, 1.0, seed=4)
        assert traj.meta["thinning"] == 20
        assert len(traj) <= traj.meta["events"] / 20 + 3

    def test_stationary_mean_of_decoupled_chain(self):
        # J = 0, kappa = 0: each coordinate is an independent birth-death
        # chain whose stationary mean the oracle computes exactly.
        oracle = birth_death_stationary_mean(50)
        assert oracle == pytest.approx(0.5, abs=1e-12)
        spec = LoopSpec(J=0.0, delta=0.0, kappa=(0.0,) * 3, N=1000)
        x0 = DensityState.from_counts((500,) * 3, 1000)
        traj = ssa_simulate(spec, x0, 100.0, seed=2024, thinning=1)
        times = traj.times
        states = traj.states
        mask = times >= 10.0
        # time-weighted average over [10, 100]
        t_sel = np.concatenate(([10.0], times[mask]))
        holds = np.diff(np.concatenate((t_sel, [100.0])))
        idx = np.searchsorted(times, t_sel, side="right") - 1
        avg = (states[idx] * holds[:, None]).sum(axis=0) / 90.0
        assert np.all(avg > 0.48) and np.all(avg < 0.52)

    def test_mean_drift_matches_vector_field(self):
        # Mean increment per unit time over many short replicas ~ F(x0)
        # within three standard errors (small-h bias kept well below).
        spec = LoopSpec(J=0.5, delta=0.3, kappa=(0.25,) * 3, N=500)
        x0_counts = (150, 300, 250)
        x0 = DensityState.from_counts(x0_counts, 500)
        f = vector_field(spec, x0.as_array())
        h = 0.002
        reps = 20000
        increments = np.empty((reps, 3))
        for r in range(reps):
            traj = ssa_simulate(spec, x0, h, seed=9000 + r)
            increments[r] = (traj.final_state - x0.as_array()) / h
        mean = increments.mean(axis=0)
        se = increments.std(axis=0, ddof=1) / math.sqrt(reps)
        assert np.all(np.abs(mean - f) <= 3 * se + 1e-9)

    def test_invalid_inputs(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.5, N=10)
        x0 = DensityState.from_counts((5, 5, 5), 10)
        with pytest.raises(ValueError):
            ssa_simulate(spec, x0, float("inf"), seed=0)
        with pytest.raises(ValueError):
            ssa_simulate(spec, x0, 1.0, seed=0, thinning=0)
        with pytest.raises(ValueError):
            ssa_simulate(spec, DensityState.from_counts((5, 5), 10), 1.0, seed=0)


class TestDirectStep:
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_aggregate_rates_match_channel_rates(self, k):
        # The waiting time at e = 1 is the inverse total rate; a uniform at
        # the middle of a channel's share of the total picks that channel.
        rng = np.random.default_rng(60 + k)
        for _ in range(50):
            N = int(rng.integers(1, 500))
            spec = LoopSpec(
                J=float(rng.uniform(-3, 3)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-1, 1, k)),
                N=N,
                k=k,
            )
            n = [int(c) for c in rng.integers(0, N + 1, k)]
            step = direct_step(spec)
            expected = N * channel_rates(spec, np.array(n) / N)
            total = expected.sum()
            dt, _ = step(n, 1.0, 0.5)
            assert 1.0 / dt == pytest.approx(total, rel=1e-12)
            cum = np.cumsum(expected)
            for c in np.flatnonzero(expected > 1e-9 * total):
                mid = (cum[c] - 0.5 * expected[c]) / total
                assert step(n, 1.0, mid)[1] == c


def sup_distance_union1d(a, b, t):
    """sup_distance over sorted, de-duplicated evaluation points."""
    grid = np.union1d(a.times, b.times)
    grid = grid[(grid >= 0.0) & (grid <= t)]
    grid = np.union1d(grid, [0.0, t])
    best = float(np.max(np.abs(a.value_at(grid) - b.value_at(grid))))
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


class TestSupDistance:
    def test_matches_sorted_grid_formula(self):
        spec = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=200)
        x0 = DensityState.from_counts((160, 40, 100), 200)
        ref = ode.integrate(spec, x0.as_array(), 3.0, ode.IntegratorSettings(sample_dt=1e-2))
        coarse = ode.integrate(spec, x0.as_array(), 3.0)
        paths = [ssa_simulate(spec, x0, 3.0, seed=s, thinning=th)
                 for s, th in ((1, 1), (2, 1), (3, 5))]
        pairs = [(p, det) for p in paths for det in (ref, coarse)]
        pairs += [(paths[0], paths[1]), (paths[1], paths[2]), (paths[2], paths[0])]
        # The gap peaks at t itself, which is no node of either path.
        flat = Trajectory(np.array([0.0, 3.0]), np.zeros((2, 3)), kind="stochastic")
        ramp = Trajectory(np.array([0.0, 3.0]), np.array([[0.0] * 3, [1.0] * 3]),
                          kind="deterministic")
        pairs.append((flat, ramp))
        for a, b in pairs:
            for t in (0.0, 1.234, 3.0):
                assert sup_distance(a, b, t) == sup_distance_union1d(a, b, t)
                assert sup_distance(b, a, t) == sup_distance_union1d(b, a, t)

    def test_identical_paths(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.4, N=20)
        x0 = DensityState.from_counts((10, 10, 10), 20)
        traj = ssa_simulate(spec, x0, 2.0, seed=5)
        assert sup_distance(traj, traj, 2.0) == 0.0

    def test_constant_shift(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.4, N=20)
        x0 = DensityState.from_counts((8, 10, 12), 20)
        a = ssa_simulate(spec, x0, 2.0, seed=6)
        shifted = Trajectory(
            a.times, np.clip(a.states + 0.013, 0, 1.2), kind="stochastic"
        )
        assert sup_distance(a, shifted, 2.0) == pytest.approx(0.013, abs=1e-12)

    def test_step_vs_interpolated(self):
        # One step at t=1 against the straight line through the endpoints:
        # both one-sided limits at the jump sit 0.25 away from the line.
        step = Trajectory(
            np.array([0.0, 1.0, 2.0]),
            np.array([[0.0, 0, 0], [0.5, 0, 0], [0.5, 0, 0]]),
            kind="stochastic",
        )
        line = Trajectory(
            np.array([0.0, 2.0]),
            np.array([[0.0, 0, 0], [0.5, 0, 0]]),
            kind="deterministic",
        )
        d = sup_distance(step, line, 2.0)
        assert d == pytest.approx(0.25, abs=1e-12)

    def test_insufficient_coverage(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.4, N=20)
        x0 = DensityState.from_counts((10, 10, 10), 20)
        a = ssa_simulate(spec, x0, 1.0, seed=7)
        b = ssa_simulate(spec, x0, 3.0, seed=7)
        with pytest.raises(ValueError):
            sup_distance(a, b, 2.0)

    def test_ssa_close_to_ode_at_large_N(self):
        spec = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=10000)
        x0 = DensityState.from_counts((8000, 2000, 5000), 10000)
        ref = ode.integrate(
            spec, x0.as_array(), 5.0, ode.IntegratorSettings(sample_dt=1e-3)
        )
        hits = 0
        seeds = 20
        for s in range(seeds):
            traj = ssa_simulate(spec, x0, 5.0, seed=s)
            if sup_distance(traj, ref, 5.0) < 0.05:
                hits += 1
        assert hits >= 0.95 * seeds
