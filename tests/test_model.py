"""Rate functions, vector field and Jacobian against independent oracles."""
import math
from decimal import Decimal, getcontext

import numpy as np
import pytest

from tdsim.micro import _config_counts, _energy, _site_rates, gibbs_measure
from tdsim.model import (
    DensityState,
    LoopSpec,
    _exact_exps,
    _exponents,
    channel_rates,
    field_closure,
    jacobian,
    vector_field,
)

getcontext().prec = 50


def decimal_field(J, delta, kappa, x):
    """50-digit evaluation of the drift's closed form, used as oracle."""
    J = Decimal(repr(J))
    delta = Decimal(repr(delta))
    k = len(x)
    xs = [Decimal(repr(v)) for v in x]
    out = []
    for i in range(k):
        xa = xs[(i - 1) % k]
        xh = xs[(i + 1) % k]
        e = 2 * (-delta * J * xa - (1 - delta) * J * xh + Decimal(repr(kappa[i])))
        out.append((1 - xs[i]) * e.exp() - xs[i] * (-e).exp())
    return [float(v) for v in out]


def flip_rates(spec, x, i):
    """Per-site (rate_up, rate_down) of type i: channel rates without the
    boundary factors (1 - x_i) and x_i."""
    rates = channel_rates(spec, x)
    return rates[2 * i] / (1.0 - x[i]), rates[2 * i + 1] / x[i]


def exp_or_inf(v):
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def math_exps(x):
    """(exp(x), exp(-x)) with one math.exp per element, overflow giving inf."""
    flat = np.asarray(x).ravel().tolist()
    return (np.reshape([exp_or_inf(v) for v in flat], np.shape(x)),
            np.reshape([exp_or_inf(-v) for v in flat], np.shape(x)))


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def random_spec(rng, k, N=10):
    return LoopSpec(J=float(rng.uniform(-3, 3)), delta=float(rng.uniform(0, 1)),
                    kappa=tuple(rng.uniform(-1.5, 1.5, k)), N=N, k=k)


def reference_jacobian(spec, x, up, down):
    """The Jacobian's closed form entry by entry, at given exponentials."""
    k = spec.k
    jac = np.zeros((k, k))
    for i in range(k):
        jac[i, i] = -(up[i] + down[i])
        outer = (1.0 - x[i]) * up[i] + x[i] * down[i]
        jac[i, (i - 1) % k] += -2.0 * spec.delta * spec.J * outer
        jac[i, (i + 1) % k] += -2.0 * (1.0 - spec.delta) * spec.J * outer
    return jac


def unit_jumps(k):
    """Jump vectors of the 2k channels, in channel_rates order."""
    return [s * np.eye(k)[i] for i in range(k) for s in (+1, -1)]


class TestLoopSpec:
    def test_neighbours_are_inverse(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.5, N=10, k=5)
        for i in range(spec.k):
            assert spec.clockwise(spec.anticlockwise(i)) == i

    def test_half_j_constructor(self):
        spec = LoopSpec.with_half_j(J=3.0, delta=0.2, N=7)
        assert spec.kappa == (1.5, 1.5, 1.5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(J=float("nan"), delta=0.5, kappa=(0.0,) * 3, N=10),
            dict(J=1.0, delta=1.5, kappa=(0.0,) * 3, N=10),
            dict(J=1.0, delta=0.5, kappa=(float("inf"),) * 3, N=10),
            dict(J=1.0, delta=0.5, kappa=(0.0,) * 3, N=0),
            dict(J=1.0, delta=0.5, kappa=(0.0,) * 3, N=10, k=1),
            dict(J=400.0, delta=0.5, kappa=(0.0,) * 3, N=10),  # exponent overflow
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            LoopSpec(**kwargs)

    def test_density_state_grid(self):
        DensityState((0.25, 0.5, 0.75), grid=4)
        with pytest.raises(ValueError):
            DensityState((0.3, 0.5, 0.75), grid=4)
        with pytest.raises(ValueError):
            DensityState((1.2, 0.5, 0.5))


class TestDensityStateGrid:
    """Counts and densities round-trip exactly on the 1/N grid up to 2^53."""

    # At 6e15 + 1, round(c / N * N) misses c by one for about 3 % of counts.
    @pytest.mark.parametrize("N", [30_000_000, 10**9, 3 * 10**15 + 7, 6 * 10**15 + 1,
                                   2**53 - 1, 2**53])
    def test_counts_round_trip(self, N):
        rng = np.random.default_rng(N % 1000)
        counts = [0, 1, N // 3, N // 2, N - 1, N]
        counts += [int(c) for c in rng.integers(0, N, size=2000, endpoint=True)]
        for c in counts:
            assert DensityState.from_counts([c], N).counts == (c,)
            assert DensityState((c / N,), grid=N).counts == (c,)

    def test_three_decimal_starts_at_large_N(self):
        N = 30_000_000
        for i in range(1001):
            v = i / 1000
            assert DensityState.nearest([v, 0.5, 0.5], N).x == (v, 0.5, 0.5)
        assert DensityState.nearest([0.535, 0.5, 0.5], N).counts == (16_050_000,) + (N // 2,) * 2
        assert DensityState.nearest([0.067], 10**9).counts == (67_000_000,)

    @pytest.mark.parametrize("v, N", [(0.25, 10), (0.3, 4), (1.5 / 2**53, 2**53),
                                      (0.1 + 2**-40, 10**9)])
    def test_off_grid_density_refused(self, v, N):
        with pytest.raises(ValueError, match=rf"^density {v} is not a multiple of 1/{N}$"):
            DensityState((v,), grid=N)

    def test_computed_density_within_1e_9_accepted(self):
        # 0.1 + 0.2 is not the double 3 / 10, but within 1e-9 of it times 10.
        assert DensityState((0.1 + 0.2,), grid=10).counts == (3,)


class TestFlipRates:
    def test_balanced_exponent(self):
        # delta=1 makes only the anticlockwise density matter; at x_a = 1/2
        # the coupling -J/2 cancels kappa = 1 - J/2... here J=2, kappa=1.
        spec = LoopSpec(J=2.0, delta=1.0, kappa=(1.0,) * 3, N=10)
        up, down = flip_rates(spec, (0.3, 0.9, 0.5), 0)  # a(0)=2 has density 1/2
        assert up == pytest.approx(1.0, abs=1e-15)
        assert down == pytest.approx(1.0, abs=1e-15)

    def test_zero_coupling_gives_unit_rates(self):
        spec = LoopSpec(J=0.0, delta=0.3, kappa=(0.0,) * 3, N=10)
        for i in range(3):
            assert flip_rates(spec, (0.1, 0.7, 0.4), i) == (1.0, 1.0)

    def test_pure_field(self):
        spec = LoopSpec(J=2.0, delta=1.0, kappa=(1.0,) * 3, N=10)
        up, down = flip_rates(spec, (0.3, 0.7, 0.0), 0)  # a(0)=2 empty
        assert up == pytest.approx(7.38905609893065, rel=1e-15)
        assert down == pytest.approx(0.1353352832366127, rel=1e-15)

    def test_detailed_balance_product(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            spec = LoopSpec(
                J=float(rng.uniform(-5, 5)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-2, 2, 3)),
                N=int(rng.integers(1, 1000)),
            )
            x = rng.uniform(0, 1, 3)
            i = int(rng.integers(3))
            up, down = flip_rates(spec, x, i)
            assert up * down == pytest.approx(1.0, rel=1e-12)


class TestJumpRate:
    def test_boundary_up(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.2, N=4)
        x = DensityState((1.0, 0.5, 0.25), grid=4)
        assert channel_rates(spec, x)[0] == 0.0

    def test_boundary_down(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.2, N=4)
        x = DensityState((0.0, 0.5, 0.25), grid=4)
        assert channel_rates(spec, x)[1] == 0.0

    def test_symmetric_point_half(self):
        spec = LoopSpec.with_half_j(J=2.0, delta=1.0, N=100)
        x = DensityState((0.5, 0.5, 0.5), grid=100)
        assert channel_rates(spec, x) == pytest.approx(np.full(6, 0.5), rel=1e-15)

    def test_boundary_closure(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            N = int(rng.integers(1, 20))
            spec = LoopSpec(
                J=float(rng.uniform(-3, 3)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-1, 1, 3)),
                N=N,
            )
            counts = rng.integers(0, N + 1, 3)
            x = DensityState.from_counts(counts, N)
            for rate, jump in zip(channel_rates(spec, x), unit_jumps(3)):
                if rate > 0:
                    target = x.as_array() + jump / N
                    assert np.all(target >= -1e-12) and np.all(target <= 1 + 1e-12)


class TestVectorField:
    def test_symmetric_fixed_point(self):
        for J, delta in [(-2.0, 0.1), (0.7, 0.5), (3.0, 0.9)]:
            spec = LoopSpec.with_half_j(J=J, delta=delta, N=10)
            assert np.all(vector_field(spec, [0.5, 0.5, 0.5]) == 0.0)

    def test_decoupled_linear(self):
        spec = LoopSpec(J=0.0, delta=0.4, kappa=(0.0,) * 3, N=10)
        x = np.array([0.3, 0.8, 0.55])
        assert vector_field(spec, x) == pytest.approx(1 - 2 * x, rel=1e-15)

    def test_against_decimal_oracle(self):
        rng = np.random.default_rng(17)
        cases = [
            (2.0, 0.0, (1.0, 1.0, 1.0), (1.0, 0.0, 0.0)),
        ]
        for _ in range(20):
            cases.append(
                (
                    float(rng.uniform(-3, 3)),
                    float(rng.uniform(0, 1)),
                    tuple(float(v) for v in rng.uniform(-1.5, 1.5, 3)),
                    tuple(float(v) for v in rng.uniform(0, 1, 3)),
                )
            )
        for J, delta, kappa, x in cases:
            spec = LoopSpec(J=J, delta=delta, kappa=kappa, N=10)
            expected = decimal_field(J, delta, kappa, x)
            assert vector_field(spec, x) == pytest.approx(expected, rel=1e-13, abs=1e-13)

    def test_equals_sum_of_jump_rates(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            spec = LoopSpec(
                J=float(rng.uniform(-3, 3)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-1, 1, 3)),
                N=10,
            )
            x = rng.uniform(0, 1, 3)
            total = sum(j * r for j, r in zip(unit_jumps(3), channel_rates(spec, x)))
            assert vector_field(spec, x) == pytest.approx(total, abs=1e-12)

    def test_channel_rates_match_jump_rate(self):
        # Jump intensities against the rate law written out per type.
        spec = LoopSpec(J=1.2, delta=0.3, kappa=(0.4, -0.2, 0.1), N=10)
        x = np.array([0.1, 0.6, 0.9])
        rates = channel_rates(spec, x)
        for i in range(3):
            e = 2 * (-0.3 * 1.2 * x[(i - 1) % 3] - 0.7 * 1.2 * x[(i + 1) % 3]
                     + spec.kappa[i])
            assert rates[2 * i] == pytest.approx((1 - x[i]) * math.exp(e), rel=1e-14)
            assert rates[2 * i + 1] == pytest.approx(x[i] * math.exp(-e), rel=1e-14)

    def test_channel_rates_of_a_batch(self):
        rng = np.random.default_rng(19)
        spec = LoopSpec(J=-0.9, delta=0.65, kappa=(0.3, -0.4, 0.2, 0.1), N=10, k=4)
        xs = rng.uniform(0, 1, (5, 4))
        batch = _exponents(spec, xs)
        for x, e in zip(xs, batch):
            assert np.array_equal(e, _exponents(spec, x))
        rates = channel_rates(spec, xs.reshape(5, 1, 4))
        assert rates.shape == (5, 1, 8)
        for x, r in zip(xs, rates[:, 0]):
            expected = []
            for xi, ei in zip(x, _exponents(spec, x)):
                expected += [(1.0 - xi) * math.exp(ei), xi * math.exp(-ei)]
            assert r.tolist() == expected

    def test_field_closure_matches(self):
        rng = np.random.default_rng(3)
        spec = LoopSpec(J=1.7, delta=0.25, kappa=(0.2, 0.9, -0.4), N=10)
        fast = field_closure(spec)
        for _ in range(20):
            x = rng.uniform(0, 1, 3)
            assert fast(x) == pytest.approx(vector_field(spec, x), rel=1e-15)


class TestJacobian:
    def test_decoupled(self):
        spec = LoopSpec(J=0.0, delta=0.7, kappa=(0.0,) * 3, N=10)
        assert jacobian(spec, [0.2, 0.5, 0.9]) == pytest.approx(-2 * np.eye(3))

    def test_symmetric_point_closed_form(self):
        spec = LoopSpec(J=2.0, delta=0.0, kappa=(1.0,) * 3, N=10)
        expected = -2.0 * np.array([[1, 2, 0], [0, 1, 2], [2, 0, 1]], dtype=float)
        assert jacobian(spec, [0.5, 0.5, 0.5]) == pytest.approx(expected, abs=1e-14)

    def test_finite_difference_oracle(self):
        rng = np.random.default_rng(41)
        h = 1e-6
        for _ in range(50):
            spec = LoopSpec(
                J=float(rng.uniform(-3, 3)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-1, 1, 3)),
                N=10,
            )
            x = rng.uniform(0.05, 0.95, 3)
            jac = jacobian(spec, x)
            fd = np.empty((3, 3))
            for j in range(3):
                e = np.zeros(3)
                e[j] = h
                fd[:, j] = (vector_field(spec, x + e) - vector_field(spec, x - e)) / (2 * h)
            assert jac == pytest.approx(fd, abs=1e-6)

    def test_transposed_coupling_under_delta_flip(self):
        for J in (-2.0, 0.5, 2.7):
            for delta in (0.0, 0.3, 0.8):
                a = jacobian(LoopSpec.with_half_j(J, delta, N=5), [0.5] * 3)
                b = jacobian(LoopSpec.with_half_j(J, 1 - delta, N=5), [0.5] * 3)
                assert a == pytest.approx(b.T, abs=1e-14)


class TestExactExps:
    """Every numpy rate takes its exponentials from _exact_exps, so each is
    checked bit for bit against one math.exp per element.  numpy's SIMD exp
    differs from math.exp by an ulp on about 5 % of inputs, so a helper
    that called it would fail here."""

    @pytest.mark.parametrize("shape", [(400,), (100, 4), (20, 5, 4)])
    def test_bitwise_equal_to_math_exp(self, shape):
        rng = np.random.default_rng(len(shape))
        x = rng.uniform(-6.0, 6.0, shape)
        flat = x.reshape(-1)
        flat[::5] = flat[1]  # repeated values
        flat[2:6] = [-0.0, 0.0, 800.0, -800.0]
        grow, shrink = _exact_exps(x)
        expected = math_exps(x)
        assert same_bits(grow, expected[0]) and same_bits(shrink, expected[1])
        assert grow.reshape(-1)[4:6].tolist() == [math.inf, 0.0]
        assert shrink.reshape(-1)[4:6].tolist() == [0.0, math.inf]

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_vector_field_and_jacobian(self, k):
        rng = np.random.default_rng(100 + k)
        for _ in range(4):
            spec = random_spec(rng, k)
            # States inside and slightly outside the box, as integrators probe.
            xs = rng.uniform(-0.2, 1.2, (50, k))
            grow, shrink = math_exps(_exponents(spec, xs))
            # The drift's formula before it was taken from channel_rates.
            assert same_bits(vector_field(spec, xs), (1.0 - xs) * grow - xs * shrink)
            for x, up, down in zip(xs[:10], grow, shrink):
                assert same_bits(jacobian(spec, x), reference_jacobian(spec, x, up, down))

    @pytest.mark.parametrize("k, N", [(2, 4), (3, 3), (5, 2)])
    def test_site_rates(self, k, N):
        rng = np.random.default_rng(200 + k)
        for _ in range(4):
            spec = random_spec(rng, k, N)
            idx, up, down = _site_rates(spec)
            expo = _exponents(spec, _config_counts(spec, idx) / N)
            expected = math_exps(expo)
            assert same_bits(up, expected[0]) and same_bits(down, expected[1])

    def test_gibbs_measure(self):
        # The coupling table, and with it the Gibbs measure, is k = 3 only.
        rng = np.random.default_rng(300)
        for N in (2, 3, 3, 3, 3):
            spec = random_spec(rng, 3, N)
            h = _energy(spec, _config_counts(spec, np.arange(1 << (3 * N))))
            w = math_exps(-(h - np.min(h)))[0]
            assert same_bits(gibbs_measure(spec), w / np.sum(w))

