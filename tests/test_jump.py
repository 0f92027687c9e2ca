"""Exact jump-process sampler and the path-distance metric."""
import math
import tracemalloc

import numpy as np
import pytest

from tdsim import jump, model, ode
from tdsim.jump import default_thinning, ssa_simulate, ssa_sup_distance, sup_distance
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


def reference_step(spec):
    """The samplers' arithmetic, every factor at every event: with y = n *
    invN, type i's up-rate (N - n_i) ((e^{2 kappa_i} e^{cA y_a}) e^{cH y_h})
    and down-rate n_i ((e^{-2 kappa_i} e^{-cA y_a}) e^{-cH y_h}), where cA =
    -2 delta J and cH = -2 (1 - delta) J; the running sums of the 2k rates
    added one by one, the total the last of them, and the channel the first
    whose running sum exceeds u * total."""
    N = spec.N
    invN = 1.0 / N
    cA = -2.0 * (spec.delta * spec.J)
    cH = -2.0 * ((1.0 - spec.delta) * spec.J)
    types = [(i, (i - 1) % spec.k, (i + 1) % spec.k, kap) for i, kap in enumerate(spec.kappa)]

    def step(n, e, u):
        rates = []
        for i, a, h, kap in types:
            ya, yh = n[a] * invN, n[h] * invN
            up = (math.exp(2.0 * kap) * math.exp(cA * ya)) * math.exp(cH * yh)
            down = (math.exp(-2.0 * kap) * math.exp(-cA * ya)) * math.exp(-cH * yh)
            rates += [(N - n[i]) * up, n[i] * down]
        tot = rates[0]
        for r in rates[1:]:
            tot += r
        v = u * tot
        acc = 0.0
        for c, r in enumerate(rates):
            acc += r
            if v < acc:
                return e / tot, c
        return e / tot, len(rates) - 1

    return step


def law_step(spec):
    """The direct-method step in another rounding: densities as n / N and
    the total summed in (up, down) pairs.  It samples the same law; its
    bits differ from the samplers' in the last place."""
    N = spec.N
    dJ = spec.delta * spec.J
    hJ = (1.0 - spec.delta) * spec.J
    types = [(i, (i - 1) % spec.k, (i + 1) % spec.k, kap) for i, kap in enumerate(spec.kappa)]

    def step(n, e, u):
        rates = []
        tot = 0.0
        for i, a, h, kap in types:
            x = 2.0 * (-dJ * (n[a] / N) - hJ * (n[h] / N) + kap)
            r_up = (N - n[i]) * math.exp(x)
            r_dn = n[i] * math.exp(-x)
            rates += [r_up, r_dn]
            tot += r_up + r_dn
        acc = 0.0
        for c, r in enumerate(rates):
            acc += r
            if u * tot < acc:
                return e / tot, c
        return e / tot, len(rates) - 1

    return step


def scalar_step(spec):
    """One event of the sampler's scalar loop (the unrolled one for k = 3)."""
    loop = jump._scalar_3 if spec.k == 3 else jump._scalar

    def step(n, e, u):
        chosen = []
        t = loop(spec, list(n), 0.0, math.inf, [(e, u)], chosen.append, lambda t: None)[1]
        return t, chosen[0]

    return step


def window_step(spec):
    """One event of the window's exact pass, as a one-column window."""
    kernels = jump._Kernels(spec)

    def step(n, e, u):
        chosen, total = kernels.exact(np.array(n, dtype=float)[:, None], np.array([u]))
        return e / float(total[0]), int(chosen[0])

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
    step = reference_step(spec)
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


def spread_counts(k, N):
    """Counts of k types spread over 0 .. N, none at a boundary."""
    return [N // 5 + (3 * N // 5) * i // (k - 1) for i in range(k)]


class TestWindowedLoop:
    """The loop runs windows of numpy sweeps checked with math.exp, and the
    scalar loop where windows do not pay."""

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

    @pytest.mark.parametrize("J", [1.0, 2.5, -2.0])
    @pytest.mark.parametrize("N", [100, 1000, 10_000, 100_000])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    def test_bitwise_equal_to_reference_at_every_k(self, k, N, J):
        # 1e4 to 6e4 events, with t_end longer where a strong coupling
        # slows the total rate; windows run exactly where N clears the
        # settling gate, the scalar loop everywhere else.
        spec = LoopSpec.with_half_j(J=J, delta=0.3, N=N, k=k)
        x0 = DensityState.from_counts(spread_counts(k, N), N)
        t_end = 21_000.0 * (1 + abs(J)) / (k * N)
        seed = 10 * k + N + int(10 * J)
        traj = ssa_simulate(spec, x0, t_end, seed=seed)
        assert traj.meta["events"] > 256 + 8192
        windowed = N >= jump._SETTLE_N * (abs(J) + 1)
        assert (traj.meta["window_events"] > 0) == windowed
        assert_same_path(traj, spec, x0, t_end, seed)

    @pytest.mark.parametrize("thinning", [1, 7, None])
    @pytest.mark.parametrize("stop", [100, 255, 256, 8447, 8448])
    def test_t_end_at_an_event_near_block_edges(self, stop, thinning):
        # t_end is the time of event `stop` (from 0), so that event's pair
        # is the stopping draw: inside the first 256-pair block, its last
        # pair, the first of the second block, its last, the first of the third.
        for k in (3, 5):
            spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10_000, k=k)
            x0 = DensityState.from_counts(spread_counts(k, 10_000), 10_000)
            t_end = float(ssa_simulate(spec, x0, 1.0, seed=2, thinning=1).times[stop + 1])
            traj = ssa_simulate(spec, x0, t_end, seed=2, thinning=thinning)
            assert traj.meta["events"] == stop
            assert traj.meta["rng_blocks"] == 1 + (stop >= 256) + (stop >= 256 + 8192)
            assert_same_path(traj, spec, x0, t_end, 2, thinning)

    def test_a_wrong_guess_changes_no_bit(self, monkeypatch):
        # Skewing the guess's exponents moves its channels near every
        # boundary; math.exp recomputes each event, so only the sweeps move.
        for k in (3, 5):
            spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10_000, k=k)
            x0 = DensityState.from_counts(spread_counts(k, 10_000), 10_000)
            monkeypatch.setattr(jump, "_guess_exp", np.exp)
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

    def test_windows_record_wide_channels(self):
        # k = 130 has channels up to 259, past a byte.
        k = 130
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=1000, k=k)
        x0 = DensityState.from_counts(spread_counts(k, 1000), 1000)
        traj = ssa_simulate(spec, x0, 0.05, seed=8)
        assert traj.meta["window_events"] > 0.5 * traj.meta["events"]
        assert np.any(np.diff(traj.states[:, -1]) != 0)  # the last type's channels fired
        assert_same_path(traj, spec, x0, 0.05, 8)

    @pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_windows_write_the_scalar_loops_bytes(self, monkeypatch, k, delta):
        # delta = 0 and delta = 1 make one factor of every rate e^0, and at
        # k = 2 both factors of a rate read the one other count.
        spec = LoopSpec.with_half_j(J=1.0, delta=delta, N=10_000, k=k)
        x0 = DensityState.from_counts(spread_counts(k, 10_000), 10_000)
        t_end = 21_000.0 / (k * spec.N)
        windowed = ssa_simulate(spec, x0, t_end, seed=k, thinning=1)
        monkeypatch.setattr(jump, "_SETTLE_N", math.inf)
        scalar = ssa_simulate(spec, x0, t_end, seed=k, thinning=1)
        assert windowed.meta["window_events"] > 0.9 * windowed.meta["events"]
        assert scalar.meta["window_events"] == 0
        for key in ("events", "rng_blocks"):
            assert windowed.meta[key] == scalar.meta[key]
        assert windowed.times.tobytes() == scalar.times.tobytes()
        assert windowed.states.tobytes() == scalar.states.tobytes()

    def test_exact_pass_takes_no_sort_of_exponents(self, monkeypatch):
        # The windows' exact pass reads each count's factors from tables over
        # the count's range, so neither the exponent kernel nor a sort runs.
        def never(*args, **kwargs):
            raise AssertionError("called on the sampler path")

        monkeypatch.setattr(model, "_exact_exps", never)
        monkeypatch.setattr(np, "unique", never)
        for k in (3, 5):
            spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10_000, k=k)
            x0 = DensityState.from_counts(spread_counts(k, 10_000), 10_000)
            traj = ssa_simulate(spec, x0, 1.0, seed=4)
            assert traj.meta["window_events"] > 0.9 * traj.meta["events"]

    def test_counters_show_where_windows_run(self):
        # Large N: rates barely move within a window, which settles in a few
        # sweeps, at any k.  N = 100 at J = 2.5: windows would not settle,
        # and the scalar loop runs every event.
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
        assert meta["window_events"] > 0.95 * meta["events"]
        assert 0 < meta["sweeps"] < meta["events"] / 256


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
            # Both neighbours are the one other type: the exponent reads one
            # count, with weight delta J + (1 - delta) J.
            (2, 6, -2.0, 0.3, (5, 1), 29, 66.15),
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


def references(spec, x0, t_end):
    """Deterministic paths from x0: ``converge``'s reference, sampled every
    1e-3, and one with the adaptive steps' own nodes."""
    dense = ode.integrate(spec, x0.as_array(), t_end,
                          ode.IntegratorSettings(rtol=1e-8, atol=1e-10, sample_dt=1e-3))
    return dense, ode.integrate(spec, x0.as_array(), t_end)


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

    @pytest.mark.parametrize("N, block, index", [(100, 0, 100), (10_000, 1, 3000), (10_000, 1, 0)])
    def test_tied_event_times(self, monkeypatch, N, block, index):
        # An exponential variate of 1e-300 makes t + e / total round to t,
        # so two events share a time: in the first block's scalar loop at
        # N = 100, in a window of the second block at N = 1e4, and across
        # the end of the first block's scalar run and the start of the
        # second block's first window.
        variates = jump._variates

        def tiny(rng, blocks):
            for b, (E, U) in enumerate(variates(rng, blocks)):
                if b == block:
                    E = E.copy()
                    E[index] = 1e-300
                yield E, U

        monkeypatch.setattr(jump, "_variates", tiny)
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=N)
        x0 = DensityState.from_counts((4 * N // 5, N // 5, N // 2), N)
        traj = ssa_simulate(spec, x0, 7000.0 / N, seed=5, thinning=1)
        row = jump._FIRST_BATCH * block + index
        assert np.flatnonzero(np.diff(traj.times) == 0).tolist() == [row]
        if block:
            assert traj.meta["window_events"] > row
        assert np.array_equal(traj.value_at(traj.times[row]), traj.states[[row + 1]])
        assert sup_distance(traj, traj, traj.times[-1]) == 0.0
        # The streamed sup-distance skips the state between the tied events too.
        for ref in references(spec, x0, traj.times[-1]):
            assert (ssa_sup_distance(spec, x0, ref, traj.times[-1], seed=5)
                    == sup_distance(traj, ref, traj.times[-1]))

    def test_invalid_inputs(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.5, N=10)
        x0 = DensityState.from_counts((5, 5, 5), 10)
        # Records checks its arguments when called, before any row is asked for.
        for sample in (ssa_simulate, jump.Records):
            with pytest.raises(ValueError):
                sample(spec, x0, float("inf"), seed=0)
            with pytest.raises(ValueError):
                sample(spec, x0, 1.0, seed=0, thinning=0)
            with pytest.raises(ValueError):
                sample(spec, DensityState.from_counts((5, 5), 10), 1.0, seed=0)
            with pytest.raises(ValueError):
                sample(spec, DensityState.from_counts((5, 5, 5), 20), 1.0, seed=0)

    def test_rates_that_could_overflow_are_refused(self):
        # 6 N e^698 passes the largest double at N = 1e6.  An infinite
        # total would put every event at t = 0 on the last channel.
        x0 = (0.5, 1.0, 1.0)
        spec = LoopSpec(J=-349.0, delta=0.5, kappa=(0.0,) * 3, N=1_000_000)
        start = DensityState(x0, grid=spec.N)
        ref = Trajectory(np.array([0.0, 1.0]), np.array([x0, x0]), kind="deterministic")
        for run in (lambda: jump.Records(spec, start, 1e-300, seed=1),
                    lambda: ssa_sup_distance(spec, start, ref, 1e-300, seed=1)):
            with pytest.raises(ValueError, match="N: at N = 1000000"):
                run()

    def test_counts_beyond_exact_doubles_are_refused(self):
        # Windows and recorded rows hold counts as doubles, exact up to 2^53.
        x0 = (0.5, 0.5, 0.5)
        ref = Trajectory(np.array([0.0, 1.0]), np.array([x0, x0]), kind="deterministic")
        spec = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=2**53 + 1)
        start = DensityState(x0, grid=spec.N)
        for run in (lambda: jump.Records(spec, start, 2e-14, seed=1),
                    lambda: ssa_sup_distance(spec, start, ref, 2e-14, seed=1)):
            with pytest.raises(ValueError, match=f"N: at N = {2**53 + 1} "):
                run()
        spec = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=2**53)
        jump.Records(spec, DensityState(x0, grid=spec.N), 2e-14, seed=1)


class TestDirectStep:
    @staticmethod
    def random_states(k, count):
        """(spec, counts) pairs with J, delta, kappa and N drawn at random."""
        rng = np.random.default_rng(60 + k)
        for _ in range(count):
            N = int(rng.integers(1, 500))
            spec = LoopSpec(
                J=float(rng.uniform(-3, 3)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-1, 1, k)),
                N=N,
                k=k,
            )
            yield spec, [int(c) for c in rng.integers(0, N + 1, k)]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_aggregate_rates_match_channel_rates(self, k):
        # The waiting time at e = 1 is the inverse total rate; a uniform at
        # the middle of a channel's share of the total picks that channel.
        # The law reference and the samplers' steps all do.
        for spec, n in self.random_states(k, 50):
            expected = spec.N * channel_rates(spec, np.array(n) / spec.N)
            total = expected.sum()
            cum = np.cumsum(expected)
            for make in (law_step, reference_step, scalar_step, window_step):
                step = make(spec)
                dt, _ = step(n, 1.0, 0.5)
                assert 1.0 / dt == pytest.approx(total, rel=1e-12)
                for c in np.flatnonzero(expected > 1e-9 * total):
                    mid = (cum[c] - 0.5 * expected[c]) / total
                    assert step(n, 1.0, mid)[1] == c

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 7])
    def test_sampler_steps_are_the_reference_bit_for_bit(self, k):
        # The scalar loop and the window's exact pass keep the reference's
        # waiting time and channel at any uniform, also next to a boundary.
        rng = np.random.default_rng(70 + k)
        for spec, n in self.random_states(k, 50):
            reference = reference_step(spec)
            steps = (scalar_step(spec), window_step(spec))
            for u in rng.random(20).tolist() + [0.0, 1.0 - 2.0 ** -53]:
                e = float(rng.exponential())
                want = reference(n, e, u)
                for step in steps:
                    dt, c = step(n, e, u)
                    assert (dt, c) == want


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
        # Every time of the thinned copy is one of the path's own.
        thinned = ssa_simulate(spec, x0, 3.0, seed=1, thinning=4)
        pairs.append((paths[0], thinned))
        # The gap peaks at t itself, which is no node of either path.
        flat = Trajectory(np.array([0.0, 3.0]), np.zeros((2, 3)), kind="stochastic")
        ramp = Trajectory(np.array([0.0, 3.0]), np.array([[0.0] * 3, [1.0] * 3]),
                          kind="deterministic")
        pairs.append((flat, ramp))
        event = paths[0].times[len(paths[0]) // 2]
        for a, b in pairs:
            for t in (0.0, 1.234, 3.0, event):
                assert sup_distance(a, b, t) == sup_distance_union1d(a, b, t)
                assert sup_distance(b, a, t) == sup_distance_union1d(b, a, t)
        # A path of one sample covers t = 0 only.
        point = Trajectory(np.array([0.0]), x0.as_array()[None], kind="stochastic")
        for other in paths + [ref, flat, ramp, point]:
            assert sup_distance(point, other, 0.0) == sup_distance_union1d(point, other, 0.0)
            assert sup_distance(other, point, 0.0) == sup_distance_union1d(other, point, 0.0)

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


class TestSsaSupDistance:
    """The sup-distance folded over the sampler's chunks is that of the
    stored path, bit for bit."""

    @pytest.mark.parametrize("N", [100, 10_000])
    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_equals_the_stored_path(self, k, N):
        # N = 100 runs the scalar loop only, N = 1e4 mostly windows; the
        # path crosses the 256 and the 256 + 8192 variate refills.
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=N, k=k)
        x0 = DensityState.from_counts(spread_counts(k, N), N)
        t_end = 21_000.0 / (k * N)
        for seed in (1, 2, 3):
            traj = ssa_simulate(spec, x0, t_end, seed, thinning=1)
            assert traj.meta["events"] > 256 + 8192
            assert (traj.meta["window_events"] > 0) == (N == 10_000)
            for ref in references(spec, x0, t_end):
                for t in (0.0, traj.times[len(traj) // 2], t_end / 3, t_end):
                    stored = sup_distance(ssa_simulate(spec, x0, t, seed, thinning=1), ref, t)
                    assert ssa_sup_distance(spec, x0, ref, t, seed) == stored

    @staticmethod
    def hand_made(monkeypatch):
        """(spec, x0) of a path that both consumers read from hand-made
        chunks: counts 1, 2, 7, 9, 2 of the first type, the last three
        events at t = 0.15 and the last of them in the next chunk."""
        def chunks(spec, n, t_end, blocks):
            yield np.array([[1.0, 2.0, 7.0], [0.0] * 3]), np.array([0.1, 0.15, 0.15]), [9, 0], 1
            yield np.array([[9.0], [0.0]]), np.array([0.15]), [2, 0], 0
            yield np.empty((2, 0)), np.empty(0), [2, 0], 0

        monkeypatch.setattr(jump, "_chunks", chunks)
        return (LoopSpec(J=0.0, delta=0.0, kappa=(0.0, 0.0), N=10, k=2),
                DensityState.from_counts((1, 0), 10))

    def test_states_between_tied_events_count_nowhere(self, monkeypatch):
        # Against a zero reference only counts 7 and 9, which lie between
        # the tied events, would exceed the sup of 0.2.
        spec, x0 = self.hand_made(monkeypatch)
        zero = Trajectory(np.array([0.0, 0.5, 1.0]), np.zeros((3, 2)), kind="deterministic")
        path = ssa_simulate(spec, x0, 1.0, seed=0, thinning=1)
        assert path.states[:, 0].tolist() == [0.1, 0.2, 0.7, 0.9, 0.2, 0.2]
        assert sup_distance(path, zero, 1.0) == 0.2
        assert ssa_sup_distance(spec, x0, zero, 1.0, seed=0) == 0.2

    @pytest.mark.parametrize("node, value", [(0.12, 0.5), (0.5, -0.7)])
    def test_reference_nodes_between_events(self, monkeypatch, node, value):
        # The reference peaks at a node between two events, or after the
        # last one, and the sup is the gap there.
        spec, x0 = self.hand_made(monkeypatch)
        ref = Trajectory(np.array([0.0, node, 1.0]), [[0.0, 0.0], [0.0, value], [0.0, 0.0]],
                         kind="deterministic")
        path = ssa_simulate(spec, x0, 1.0, seed=0, thinning=1)
        assert sup_distance(path, ref, 1.0) == abs(value)
        assert ssa_sup_distance(spec, x0, ref, 1.0, seed=0) == abs(value)

    def test_memory_stays_per_chunk(self):
        # Criterion 5's largest replica: about 1.5e5 events, whose stored
        # path peaks at about 20 MiB.
        spec = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=10_000)
        x0 = DensityState.from_counts((8000, 2000, 5000), 10_000)
        ref = references(spec, x0, 5.0)[0]
        tracemalloc.start()
        try:
            ssa_sup_distance(spec, x0, ref, 5.0, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_invalid_inputs(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=20)
        x0 = DensityState.from_counts((10, 10, 10), 20)
        ref = ode.integrate(spec, x0.as_array(), 1.0)
        for t in (-1.0, float("inf"), 2.0):
            with pytest.raises(ValueError):
                ssa_sup_distance(spec, x0, ref, t, seed=0)
        path = ssa_simulate(spec, x0, 1.0, seed=0)
        with pytest.raises(ValueError, match="deterministic"):
            ssa_sup_distance(spec, x0, path, 1.0, seed=0)
