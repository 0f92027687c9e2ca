"""Spin-level energies, generators and the micro/macro projection."""
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from tdsim import micro
from tdsim.model import LoopSpec, _exponents, channel_rates
from tdsim.micro import (
    LUMPING_TOL,
    SpinConfiguration,
    _config_counts,
    _enumeration_refusal,
    density_generator,
    generator_matrix,
    gibbs_measure,
    hamiltonian,
    lumped_density_generator,
    micro_simulate,
    reversibility_residual,
)


def coupling(spec, influencer, a, target, b):
    """The raw interaction table, written out for the brute-force oracle.

    Every matching term counts: at k = 2 the target is both the clockwise
    and the anticlockwise neighbour of the influencer.
    """
    total = 0.0
    if target == spec.clockwise(influencer) and a == +1:
        total -= spec.delta * spec.J * b
    if target == spec.anticlockwise(influencer) and a == +1:
        total -= (1.0 - spec.delta) * spec.J * b
    if target == influencer:
        total += spec.kappa[target]
    return total


def brute_hamiltonian(config):
    """Literal double sum over all ordered site pairs, diagonal included."""
    spec = config.spec
    total = 0.0
    sites = [(i, n) for i in range(spec.k) for n in range(spec.N)]
    for (i, n) in sites:
        for (j, l) in sites:
            total += coupling(
                spec, j, int(config.spins[j, l]), i, int(config.spins[i, n])
            )
    return -total / spec.N


def reference_lumped(spec):
    """Dense-matrix lumping: bincount every row of generator_matrix by class."""
    N = spec.N
    k = spec.k
    q = generator_matrix(spec)
    size = q.shape[0]
    counts = _config_counts(spec, np.arange(size, dtype=np.int64))
    class_of = np.ravel_multi_index(tuple(counts.T), (N + 1,) * k)
    nclasses = (N + 1) ** k
    lumped = np.zeros((nclasses, nclasses))
    for cls in range(nclasses):
        members = np.flatnonzero(class_of == cls)
        rows = np.array([np.bincount(class_of, weights=q[c], minlength=nclasses)
                         for c in members])
        if np.max(np.abs(rows - rows[0])) > LUMPING_TOL:
            raise AssertionError(f"count class {cls} is not lumpable to {LUMPING_TOL}")
        lumped[cls] = rows[0]
    return lumped


def reference_density_generator(spec):
    """Per-state loop over the grid, one exponent evaluation per state."""
    N = spec.N
    k = spec.k
    shape = (N + 1,) * k
    size = (N + 1) ** k
    q = np.zeros((size, size))
    for flat in range(size):
        n = np.array(np.unravel_index(flat, shape))
        x = n / N
        e = _exponents(spec, x)
        for i in range(k):
            if n[i] < N:
                up = np.ravel_multi_index(tuple(n + np.eye(k, dtype=int)[i]), shape)
                q[flat, up] = N * ((1.0 - x[i]) * math.exp(e[i]))
            if n[i] > 0:
                dn = np.ravel_multi_index(tuple(n - np.eye(k, dtype=int)[i]), shape)
                q[flat, dn] = N * (x[i] * math.exp(-e[i]))
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def dense_residual(spec):
    """max |diag(mu) Q - (diag(mu) Q)^T| from the dense generator."""
    flux = gibbs_measure(spec)[:, None] * generator_matrix(spec)
    return float(np.max(np.abs(flux - flux.T)))


def reference_residual(spec):
    """The residual with one pass per site: every -1 site of every
    configuration flipped up, each against its own reverse flip."""
    mu = gibbs_measure(spec)
    idx, up, down = micro._site_rates(spec)
    worst = 0.0
    for i in range(spec.k):
        for pos in range(spec.N):
            bit = 1 << (i * spec.N + pos)
            minus = idx[(idx & bit) == 0]
            plus = minus ^ bit
            forward = mu[minus] * up[minus, i]
            backward = mu[plus] * down[minus, i]
            worst = max(worst, float(np.max(np.abs(forward - backward))))
    return worst


def same_bits(a, b):
    """Bitwise equality without copying the arrays into bytes."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def random_spec(rng, k, N):
    return LoopSpec(J=float(rng.uniform(-3, 3)), delta=float(rng.uniform(0, 1)),
                    kappa=tuple(rng.uniform(-1, 1, k)), N=N, k=k)


def all_configs(spec):
    for bits in itertools.product((-1, 1), repeat=spec.k * spec.N):
        yield SpinConfiguration(
            np.array(bits, dtype=np.int8).reshape(spec.k, spec.N), spec
        )


class TestHamiltonian:
    def test_zero_coupling(self):
        spec = LoopSpec(J=0.0, delta=0.5, kappa=(0.0,) * 3, N=2)
        for config in all_configs(spec):
            assert hamiltonian(config) == 0.0

    def test_all_plus_single_site(self):
        spec = LoopSpec(J=2.0, delta=1.0, kappa=(0.0,) * 3, N=1)
        assert hamiltonian(SpinConfiguration.all_plus(spec)) == pytest.approx(6.0)

    def test_all_minus_single_site(self):
        spec = LoopSpec(J=2.0, delta=1.0, kappa=(0.0,) * 3, N=1)
        assert hamiltonian(SpinConfiguration.all_minus(spec)) == pytest.approx(0.0)

    def test_against_pair_sum_oracle(self):
        rng = np.random.default_rng(7)
        for k in [3] * 8 + [2, 4, 5] * 4:
            N = int(rng.integers(1, 4))
            spec = LoopSpec(
                J=float(rng.uniform(-2, 2)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-1, 1, k)),
                N=N,
                k=k,
            )
            spins = rng.choice([-1, 1], size=(k, N)).astype(np.int8)
            config = SpinConfiguration(spins, spec)
            assert hamiltonian(config) == pytest.approx(
                brute_hamiltonian(config), abs=1e-12
            )

    def test_independent_of_delta(self):
        # On a cycle the clockwise and anticlockwise neighbour sums are equal.
        specs = [LoopSpec(J=1.7, delta=d, kappa=(0.4, -0.2, 0.9), N=2) for d in (0.0, 0.3, 1.0)]
        for config in all_configs(specs[0]):
            energies = [hamiltonian(SpinConfiguration(config.spins, s)) for s in specs]
            assert max(energies) - min(energies) <= 1e-12

    def test_all_plus_at_four_types(self):
        # Each type receives -J from its two neighbours' weights together.
        spec = LoopSpec(J=1.0, delta=0.5, kappa=(0.0,) * 4, N=1, k=4)
        assert hamiltonian(SpinConfiguration.all_plus(spec)) == pytest.approx(4.0)


class TestGibbsMeasure:
    def test_uniform_at_zero_coupling(self):
        for k, N in ((3, 1), (4, 2)):
            spec = LoopSpec(J=0.0, delta=0.5, kappa=(0.0,) * k, N=N, k=k)
            size = 1 << (k * N)
            assert gibbs_measure(spec) == pytest.approx(np.full(size, 1 / size), abs=1e-15)

    def test_normalized_and_positive(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            spec = LoopSpec(
                J=float(rng.uniform(-2, 2)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-1, 1, 3)),
                N=int(rng.integers(1, 4)),
            )
            mu = gibbs_measure(spec)
            assert np.sum(mu) == pytest.approx(1.0, abs=1e-12)
            assert np.all(mu > 0)

    def test_all_plus_weight_by_enumeration(self):
        spec = LoopSpec(J=2.0, delta=1.0, kappa=(0.0,) * 3, N=1)
        energies = [brute_hamiltonian(c) for c in all_configs(spec)]
        z = sum(math.exp(-h) for h in energies)
        mu = gibbs_measure(spec)
        # all-plus is the all-bits-set index
        assert mu[-1] == pytest.approx(math.exp(-6.0) / z, rel=1e-12)

    def test_enumeration_guard(self):
        spec = LoopSpec(J=1.0, delta=0.5, kappa=(0.0,) * 3, N=7)
        with pytest.raises(ValueError):
            gibbs_measure(spec)

    def test_cell_guard_refuses_k20_N1(self):
        # k*N = 20 passes the k*N guard, but 20 * 2^20 cells would take
        # about 1 GiB.
        spec = LoopSpec(J=1.0, delta=0.5, kappa=(0.5,) * 20, N=1, k=20)
        with pytest.raises(ValueError, match=r"k = 20, N = 1 exceeds the enumeration guard"):
            gibbs_measure(spec)
        with pytest.raises(ValueError, match=r"k\*2\^\(kN\) > 2\^21"):
            reversibility_residual(spec)

    @pytest.mark.parametrize("k, N, refusal", [
        (3, 6, None), (2, 10, None), (6, 3, None), (3, 7, "k*N > 20"), (2, 11, "k*N > 20"),
        (4, 5, "k*2^(kN) > 2^21"), (10, 2, "k*2^(kN) > 2^21"), (20, 1, "k*2^(kN) > 2^21"),
        (3, 10**9, "k*N > 20"),
    ])
    def test_enumeration_guards(self, k, N, refusal):
        spec = LoopSpec(J=1.0, delta=0.5, kappa=(0.0,) * k, N=N, k=k)
        assert _enumeration_refusal(spec) == refusal


class TestGeneratorMatrix:
    def test_rows_sum_to_zero(self):
        spec = LoopSpec(J=1.5, delta=0.3, kappa=(0.4, 0.0, -0.3), N=2)
        q = generator_matrix(spec)
        assert np.abs(q.sum(axis=1)).max() < 1e-12

    def test_unit_rates_at_zero_parameters(self):
        spec = LoopSpec(J=0.0, delta=0.5, kappa=(0.0,) * 3, N=1)
        q = generator_matrix(spec)
        off = q[~np.eye(len(q), dtype=bool)]
        assert set(np.round(off[off != 0], 12)) == {1.0}
        # every single-bit flip is allowed: 3 sites -> 3 transitions per state
        assert np.all((q > 0).sum(axis=1) == 3)

    def test_single_flip_rate_value(self):
        # flipping type A up with B full and C empty: only the clockwise
        # neighbour contributes at delta=0.
        spec = LoopSpec(J=2.0, delta=0.0, kappa=(1.0,) * 3, N=1)
        q = generator_matrix(spec)
        src = 0b010  # B=+1, A=C=-1 (bit i*N+n: A bit0, B bit1, C bit2)
        dst = 0b011  # flip A up
        assert q[src, dst] == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_multi_site_transitions_are_zero(self):
        spec = LoopSpec(J=1.0, delta=0.5, kappa=(0.0,) * 3, N=2)
        q = generator_matrix(spec)
        size = q.shape[0]
        for src in range(size):
            for dst in range(size):
                if src != dst and bin(src ^ dst).count("1") != 1:
                    assert q[src, dst] == 0.0


class TestDenseGeneratorGuard:
    @pytest.mark.parametrize("k, N", [(13, 1), (3, 5)])
    @pytest.mark.parametrize("build", [generator_matrix, lumped_density_generator])
    def test_refused_above_the_limit_before_allocating(self, build, k, N):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=N, k=k)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"k\*N = \d+ exceeds the dense generator"):
                build(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestProjectionEquivalence:
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_lumped_equals_density_generator(self, N):
        rng = np.random.default_rng(100 + N)
        for _ in range(3):
            spec = LoopSpec(
                J=float(rng.uniform(-2, 2)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-1, 1, 3)),
                N=N,
            )
            lumped = lumped_density_generator(spec)
            dens = density_generator(spec)
            assert np.abs(lumped - dens).max() < 1e-12


class TestLumpedGenerator:
    @pytest.mark.parametrize("k, N", [(k, N) for k in (2, 3, 4, 6, 12)
                                      for N in range(1, 12 // k + 1)])
    def test_bitwise_equal_to_dense_lumping(self, k, N):
        rng = np.random.default_rng(1000 * k + N)
        for _ in range(1 if k * N == 12 else 3):
            spec = random_spec(rng, k, N)
            assert same_bits(lumped_density_generator(spec), reference_lumped(spec))

    def test_memory_peak_at_the_limit(self):
        spec = LoopSpec.with_half_j(J=1.2, delta=0.3, N=4)
        tracemalloc.start()
        try:
            lumped_density_generator(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20  # the dense 4096-square generator alone is 128 MiB

    def test_unlumpable_rates_are_caught(self, monkeypatch):
        spec = LoopSpec.with_half_j(J=1.2, delta=0.3, N=2)
        site_rates = micro._site_rates

        def skewed(spec):
            idx, up, down = site_rates(spec)
            up = up.copy()
            up[0b000001, 1] *= 1.0 + 1e-6  # configs 0b01 and 0b10 share class (1, 0, 0)
            return idx, up, down

        monkeypatch.setattr(micro, "_site_rates", skewed)
        with pytest.raises(AssertionError, match="count class 9 is not lumpable"):
            lumped_density_generator(spec)
        with pytest.raises(AssertionError, match="count class 9 is not lumpable"):
            reference_lumped(spec)


class TestDensityGenerator:
    @pytest.mark.parametrize("k, N", [(2, N) for N in range(1, 9)]
                             + [(3, N) for N in range(1, 9)] + [(4, N) for N in (1, 2, 3)])
    def test_bitwise_equal_to_per_state_loop(self, k, N):
        spec = random_spec(np.random.default_rng(2000 * k + N), k, N)
        assert same_bits(density_generator(spec), reference_density_generator(spec))


class TestReversibility:
    def test_zero_at_decoupled_symmetric(self):
        spec = LoopSpec(J=0.0, delta=0.5, kappa=(0.0,) * 3, N=2)
        assert reversibility_residual(spec) <= 1e-12

    def test_recorded_at_symmetric_split(self):
        spec = LoopSpec(J=1.5, delta=0.5, kappa=(0.75,) * 3, N=2)
        residual = reversibility_residual(spec)
        assert math.isfinite(residual) and residual >= 0.0

    def test_positive_for_directed_cycle(self):
        spec = LoopSpec(J=2.0, delta=0.0, kappa=(1.0,) * 3, N=1)
        assert reversibility_residual(spec) > 1e-6

    @pytest.mark.parametrize("k, N", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2),
                                      (5, 1), (5, 2)])
    def test_equals_dense_generator_residual(self, k, N):
        rng = np.random.default_rng(3000 * k + N)
        for _ in range(3):
            spec = random_spec(rng, k, N)
            assert reversibility_residual(spec) == dense_residual(spec)

    # Every N up to the enumeration guard: k*N <= 20 and k*2^(kN) <= 2^21.
    @pytest.mark.parametrize("k, N", [(2, N) for N in range(1, 11)]
                             + [(3, N) for N in range(1, 7)] + [(4, N) for N in range(1, 5)])
    def test_bitwise_equal_to_per_site_reference(self, k, N):
        rng = np.random.default_rng(4000 * k + N)
        spec = LoopSpec(J=float(rng.uniform(-2, 3)), delta=float(rng.uniform(0, 1)),
                        kappa=tuple(rng.uniform(-1, 1, k)), N=N, k=k)
        got = np.array([reversibility_residual(spec)])
        assert same_bits(got, np.array([reference_residual(spec)]))

    def test_invariant_under_cycle_rotation(self):
        kappa = (0.3, -0.2, 0.1)
        a = reversibility_residual(LoopSpec(J=1.2, delta=0.25, kappa=kappa, N=2))
        rotated = (kappa[2], kappa[0], kappa[1])
        b = reversibility_residual(LoopSpec(J=1.2, delta=0.25, kappa=rotated, N=2))
        assert a == pytest.approx(b, rel=1e-12)


class TestMicroSimulate:
    def test_zero_horizon(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10)
        sigma0 = SpinConfiguration.from_counts(spec, (3, 5, 7))
        traj = micro_simulate(spec, sigma0, 0.0, seed=1)
        assert len(traj) == 1
        assert traj.states[0] == pytest.approx([0.3, 0.5, 0.7])

    def test_deterministic(self):
        spec = LoopSpec.with_half_j(J=2.0, delta=1.0, N=20)
        sigma0 = SpinConfiguration.from_counts(spec, (10, 10, 10))
        a = micro_simulate(spec, sigma0, 2.0, seed=77)
        b = micro_simulate(spec, sigma0, 2.0, seed=77)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.states, b.states)

    def test_meta_counts_events(self):
        spec = LoopSpec.with_half_j(J=2.0, delta=1.0, N=20)
        sigma0 = SpinConfiguration.from_counts(spec, (10, 10, 10))
        traj = micro_simulate(spec, sigma0, 0.5, seed=5)
        # The run ends between events: the start row, one row per event and
        # the final row at t_end.
        assert traj.times[-2] < traj.times[-1] == 0.5
        assert traj.meta["events"] == len(traj) - 2 > 0
        assert traj.meta["level"] == "micro"

    def test_aggregate_rates_match_jump_process(self):
        spec = LoopSpec(J=2.0, delta=1.0, kappa=(1.0,) * 3, N=50)
        sigma0 = SpinConfiguration.from_counts(spec, (25, 25, 25))
        traj = micro_simulate(spec, sigma0, 1.0, seed=5)
        for state in traj.states[:200]:
            counts = np.round(np.asarray(state) * spec.N).astype(int)
            beta = channel_rates(spec, counts / spec.N)
            for i in range(3):
                n_i = counts[i]
                e = 2.0 * (
                    -spec.delta * spec.J * (counts[spec.anticlockwise(i)] / spec.N)
                    - (1 - spec.delta) * spec.J * (counts[spec.clockwise(i)] / spec.N)
                    + spec.kappa[i]
                )
                agg_up = (spec.N - n_i) * math.exp(e)
                agg_down = n_i * math.exp(-e)
                assert agg_up == pytest.approx(spec.N * beta[2 * i], rel=1e-12)
                assert agg_down == pytest.approx(spec.N * beta[2 * i + 1], rel=1e-12)

    def test_path_stays_on_grid_with_unit_steps(self):
        spec = LoopSpec.with_half_j(J=-1.0, delta=0.2, N=8)
        sigma0 = SpinConfiguration.from_counts(spec, (4, 4, 4))
        traj = micro_simulate(spec, sigma0, 3.0, seed=9)
        counts = traj.states * spec.N
        assert np.abs(counts - np.round(counts)).max() < 1e-9
        jumps = np.diff(np.round(counts), axis=0)[:-1]  # last row repeats at t_end
        assert np.all(np.abs(jumps).sum(axis=1) == 1)
