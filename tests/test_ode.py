"""Integrators against closed forms, order behaviour and box invariance."""
import math

import numpy as np
import pytest

from tdsim import ode
from tdsim.model import LoopSpec, field_closure, vector_field
from tdsim.ode import (
    IntegratorSettings,
    NonFiniteState,
    StepSizeUnderflow,
    integrate,
    integrate_linear,
)
from tdsim.analysis import z_system


class TestIntegrate:
    def test_constant_at_symmetric_fixed_point(self):
        # kappa = J/2 cancels the coupling at x = 1/2 up to float rounding,
        # so the path is constant to integrator tolerance.
        for method in ("rk4", "rk45"):
            for J, delta in [(1.3, 0.4), (-2.0, 0.15), (2.6, 0.8)]:
                spec = LoopSpec.with_half_j(J=J, delta=delta, N=10)
                settings = IntegratorSettings(method=method, step=0.01)
                traj = integrate(spec, np.full(3, 0.5), 3.0, settings)
                assert np.abs(traj.states - 0.5).max() < 1e-8

    @pytest.mark.parametrize("t_end", [1e-300, 1e-16, 5e-16, 2e-15, 3e-15])
    @pytest.mark.parametrize("k", [3, 4])
    def test_short_span_is_one_step_to_t_end(self, k, t_end):
        # k = 3 takes the unrolled loop, k = 4 the generic one.  The step is
        # clamped to the span after the underflow check, so no span is too
        # short to take.
        spec = LoopSpec(J=1.2, delta=0.4, kappa=(0.6,) * k, N=10, k=k)
        traj = integrate(spec, np.full(k, 0.3), t_end)
        assert traj.times.tolist() == [0.0, t_end]
        assert traj.meta["f_evals"] == 7

    def test_zero_coupling_closed_form(self):
        # J = 0, kappa = 0 decouples into dx/dt = 1 - 2x with solution
        # 1/2 + (x0 - 1/2) e^{-2t}.
        spec = LoopSpec(J=0.0, delta=0.0, kappa=(0.0,) * 3, N=10)
        x0 = np.array([0.9, 0.1, 0.55])
        for method in ("rk4", "rk45"):
            settings = IntegratorSettings(method=method)
            for t in (0.5, 1.0, 2.0):
                traj = integrate(spec, x0, t, settings)
                exact = 0.5 + (x0 - 0.5) * math.exp(-2 * t)
                assert traj.final_state == pytest.approx(exact, abs=1e-8)

    def test_converges_to_symmetric_point_inside_stability_window(self):
        spec = LoopSpec(J=1.0, delta=0.0, kappa=(0.5,) * 3, N=10)
        x0 = np.array([0.9, 0.1, 0.5])
        ends = []
        for method in ("rk4", "rk45"):
            traj = integrate(spec, x0, 20.0, IntegratorSettings(method=method))
            ends.append(traj.final_state)
            assert np.abs(traj.final_state - 0.5).max() < 1e-6
        assert np.abs(ends[0] - ends[1]).max() < 1e-8

    def test_box_invariance_random(self):
        rng = np.random.default_rng(19)
        for _ in range(1000):
            spec = LoopSpec(
                J=float(rng.uniform(-3, 3)),
                delta=float(rng.uniform(0, 1)),
                kappa=tuple(rng.uniform(-1.5, 1.5, 3)),
                N=10,
            )
            x0 = rng.uniform(0, 1, 3)
            settings = IntegratorSettings(rtol=1e-6, atol=1e-8)
            traj = integrate(spec, x0, 1.0, settings)
            assert traj.states.min() >= -1e-6
            assert traj.states.max() <= 1 + 1e-6

    def test_rk4_fourth_order(self):
        # On the zero-coupling case, halving h divides the endpoint error
        # (against the adaptive reference) by roughly 2^4.
        spec = LoopSpec(J=0.0, delta=0.0, kappa=(0.0,) * 3, N=10)
        x0 = np.array([0.9, 0.2, 0.6])
        ref = integrate(spec, x0, 1.0, IntegratorSettings(rtol=1e-12, atol=1e-14))
        errs = []
        for h in (0.1, 0.05):
            traj = integrate(spec, x0, 1.0, IntegratorSettings(method="rk4", step=h))
            errs.append(np.abs(traj.final_state - ref.final_state).max())
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_methods_agree_on_representative_scenarios(self):
        scenarios = [
            (LoopSpec.with_half_j(J=1.9, delta=0.0, N=10), (0.55, 0.5, 0.45), 50.0),
            (LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=10), (0.8, 0.2, 0.5), 5.0),
            (LoopSpec.with_half_j(J=-1.5, delta=0.2, N=10), (0.9, 0.85, 0.8), 30.0),
        ]
        for spec, x0, t in scenarios:
            a = integrate(spec, np.array(x0), t, IntegratorSettings(method="rk45"))
            b = integrate(
                spec, np.array(x0), t, IntegratorSettings(method="rk4", step=1e-3)
            )
            assert np.abs(a.final_state - b.final_state).max() < 1e-6

    def test_dense_output_between_nodes(self):
        spec = LoopSpec(J=0.0, delta=0.0, kappa=(0.0,) * 3, N=10)
        x0 = np.array([0.9, 0.1, 0.55])
        traj = integrate(spec, x0, 2.0, IntegratorSettings())
        ts = np.linspace(0, 2, 101)
        exact = 0.5 + (x0[None, :] - 0.5) * np.exp(-2 * ts)[:, None]
        # Hermite between accepted nodes is 4th order: coarser than the
        # node accuracy but far below the analysis tolerances.
        assert np.abs(traj.hermite_at(ts) - exact).max() < 1e-6

    def test_sampled_output_grid(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10)
        traj = integrate(
            spec, np.array([0.7, 0.4, 0.5]), 1.0, IntegratorSettings(sample_dt=0.25)
        )
        assert traj.times == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])

    def test_zero_horizon(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10)
        traj = integrate(spec, np.array([0.7, 0.4, 0.5]), 0.0)
        assert len(traj) == 1

    def test_rk4_overflow_of_the_float_field(self):
        # The k = 3 field overflows to inf on the first step; the state is
        # reported non-finite at the end of that step.
        spec = LoopSpec.with_half_j(J=6.0, delta=0.2, N=10)
        with pytest.raises(NonFiniteState) as info:
            integrate(spec, np.array([0.9, 0.1, 0.5]), 10.0,
                      IntegratorSettings(method="rk4", step=0.5))
        assert info.value.t == 0.5

    def test_rk45_rejects_blown_up_trial_steps(self):
        spec = LoopSpec.with_half_j(J=6.0, delta=0.2, N=10)
        traj = integrate(spec, np.array([0.9, 0.1, 0.5]), 20.0,
                         IntegratorSettings(rtol=1e-3, atol=1e-6))
        assert len(traj) == 2264
        assert traj.meta["steps_accepted"] == 2263
        assert traj.meta["steps_rejected"] > 0
        assert np.all(np.isfinite(traj.states))

    @pytest.mark.parametrize("settings, t_end", [
        (IntegratorSettings(method="rk4", step=0.1), 2.0),
        (IntegratorSettings(rtol=1e-6, atol=1e-9), 5.0),
        (IntegratorSettings(sample_dt=0.25), 1.0),
        (IntegratorSettings(), 0.0),
    ])
    def test_run_counters_match_field_calls(self, settings, t_end, monkeypatch):
        calls = [0]

        def counting_closure(spec):
            f = field_closure(spec)

            def counted(y):
                calls[0] += 1
                return f(y)

            return counted

        monkeypatch.setattr(ode, "field_closure", counting_closure)
        spec = LoopSpec.with_half_j(J=2.5, delta=0.1, N=10)
        traj = integrate(spec, np.array([0.9, 0.1, 0.5]), t_end, settings)
        meta = traj.meta
        assert meta["f_evals"] == calls[0]
        if settings.sample_dt is None:
            assert meta["steps_accepted"] == len(traj) - 1
        if settings.method == "rk4":
            assert meta["f_evals"] == 1 + 4 * meta["steps_accepted"]
            assert meta["steps_rejected"] == 0

    def test_fields_return_python_floats(self):
        k3 = field_closure(LoopSpec.with_half_j(J=1.3, delta=0.2, N=10))([0.2, 0.5, 0.7])
        k4 = field_closure(LoopSpec(J=1.3, delta=0.2, kappa=(0.1,) * 4, N=10, k=4))(
            [0.2, 0.5, 0.7, 0.4])
        assert isinstance(k3, tuple) and isinstance(k4, list)
        assert all(type(v) is float for v in k3 + tuple(k4))

    def test_rejects_bad_start(self):
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10)
        for x0 in ([1.2, 0.5, 0.5], [math.nan, 0.5, 0.5]):
            with pytest.raises(ValueError, match="x0"):
                integrate(spec, np.array(x0), 1.0)

    @pytest.mark.parametrize("step, t_end, steps", [(0.1, 1.0, 10), (0.3, 0.9, 3),
                                                    (0.02, 2.0, 100), (1e-3, 10.0, 10_000),
                                                    (0.1, 10.0, 100)])
    def test_rk4_path_ends_at_t_end(self, step, t_end, steps):
        # The accumulated t + step lands a rounding short of t_end here, or
        # (on the long horizons) a sliver short of one more step.
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10)
        traj = integrate(spec, np.array([0.8, 0.2, 0.5]), t_end,
                         IntegratorSettings(method="rk4", step=step))
        assert traj.times[-1] == t_end
        assert traj.meta["steps_accepted"] == steps


    @pytest.mark.parametrize("k", [3, 4])
    def test_rk45_path_ends_at_t_end(self, k):
        # From a fixed point each step grows fivefold, so the last step is
        # clamped to the span left, and t + (t_end - t) rounds an ulp past
        # t_end at 43 of these and an ulp short of it at the last.
        spec = LoopSpec.with_half_j(J=1.0, delta=0.3, N=10, k=k)
        for t_end in [i / 10 for i in range(1, 1000)] + [0.12463621427003145]:
            traj = integrate(spec, np.full(k, 0.5), t_end)
            assert traj.times[-1] == t_end


class TestResampledPath:
    """A ``sample_dt`` path is the node path's Hermite output, with no field
    evaluations of its own."""

    spec = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=10_000)
    x0 = np.array([0.8, 0.2, 0.5])
    settings = IntegratorSettings(rtol=1e-8, atol=1e-10)
    sampled = IntegratorSettings(rtol=1e-8, atol=1e-10, sample_dt=1e-3)

    def test_counts_only_the_steps(self, monkeypatch):
        calls = [0]

        def counting_closure(spec):
            f = field_closure(spec)

            def counted(y):
                calls[0] += 1
                return f(y)

            return counted

        nodes = integrate(self.spec, self.x0, 5.0, self.settings)
        monkeypatch.setattr(ode, "field_closure", counting_closure)
        traj = integrate(self.spec, self.x0, 5.0, self.sampled)
        assert traj.meta["f_evals"] == nodes.meta["f_evals"] == calls[0]
        assert len(traj) == 5001

    def test_last_row_is_t_end_once(self):
        # 30 * 0.03 rounds to 0.8999999999999999, one ulp below t_end.
        traj = integrate(self.spec, self.x0, 0.9, IntegratorSettings(sample_dt=0.03))
        assert traj.times[-2:].tolist() == [0.87, 0.9]
        assert len(traj) == 31

    def test_horizon_below_the_cut_keeps_the_start(self):
        traj = integrate(self.spec, self.x0, 1e-6, IntegratorSettings(sample_dt=0.1))
        assert traj.times.tolist() == [0.0, 1e-6]

    def test_states_are_the_node_paths_hermite_output(self):
        nodes = integrate(self.spec, self.x0, 5.0, self.settings)
        traj = integrate(self.spec, self.x0, 5.0, self.sampled)
        assert np.array_equal(traj.states, nodes.hermite_at(traj.times))
        assert traj.derivs is None


def recording(f):
    """``f`` that also records the type of every argument it is called with."""
    kinds = set()

    def g(y):
        kinds.add(type(y))
        return f(y)

    return g, kinds


def assert_same_as_generic_loop(f, y0, t_end, rtol=1e-8, atol=1e-10):
    """The three-component ``_rk45_path`` against the comprehension loop."""
    g, kinds = recording(f)
    ref_stats, stats = {}, {}
    ref = ode._rk45_loop(f, list(y0), t_end, rtol, atol, ref_stats)
    got = ode._rk45_path(g, list(y0), t_end, rtol, atol, stats)
    assert stats == ref_stats
    for a, b in zip(got, ref):
        assert a.shape == b.shape
        assert a.tobytes() == b.tobytes()
    if len(ref[0]) > 1:
        assert tuple in kinds  # the unrolled step ran
    return ref, ref_stats


class TestUnrolledRk45:
    """Three components take the unrolled Dormand-Prince step: same bits and
    counters as the generic comprehension loop, which stays the reference."""

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    @pytest.mark.parametrize("J", [2.05, 2.35])
    def test_orbit_horizon(self, J, delta):
        spec = LoopSpec.with_half_j(J=J, delta=delta, N=10)
        assert_same_as_generic_loop(field_closure(spec), [0.55, 0.5, 0.45], 300.0)

    def test_random_specs_and_starts(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            spec = LoopSpec(J=float(rng.uniform(-3, 3)), delta=float(rng.uniform(0, 1)),
                            kappa=tuple(rng.uniform(-1.5, 1.5, 3)), N=10)
            rtol = float(10.0 ** rng.uniform(-10, -3))
            assert_same_as_generic_loop(field_closure(spec), rng.uniform(0, 1, 3).tolist(),
                                        float(rng.uniform(0.5, 8)), rtol, rtol * 1e-2)

    def test_overflowing_field_with_rejected_steps(self):
        spec = LoopSpec.with_half_j(J=6.0, delta=0.2, N=10)
        ref, stats = assert_same_as_generic_loop(field_closure(spec), [0.9, 0.1, 0.5], 20.0,
                                                 1e-3, 1e-6)
        assert len(ref[0]) == 2264
        assert stats["steps_rejected"] > 0

    @pytest.mark.parametrize("J, delta", [(2.0, 0.0), (1.0, 0.3), (-1.5, 0.8)])
    def test_linear_z_system(self, J, delta):
        a = z_system(J, delta)
        assert_same_as_generic_loop(lambda y: (a @ y).tolist(), [0.6, -0.3, 0.2], 10.0)

    @pytest.mark.parametrize("t_end", [0.0, 1e-16, 4e-3])
    def test_short_horizons(self, t_end):
        spec = LoopSpec.with_half_j(J=2.5, delta=0.1, N=10)
        ref, _ = assert_same_as_generic_loop(field_closure(spec), [0.9, 0.1, 0.5], t_end)
        assert len(ref[0]) == (2 if t_end > 0 else 1)

    @pytest.mark.parametrize("field, y0, error", [
        (lambda y: (350.0 * np.asarray(y)).tolist(), [1.0, -1.0, 0.5], StepSizeUnderflow),
        (lambda y: (350.0 * np.asarray(y)).tolist(), [math.inf, 0.0, 0.0], NonFiniteState),
        # Only the trial state overflows; every error ratio stays finite.
        (lambda y: (0.0, 0.0, 1e308), [0.0, 0.0, 1.79e308], StepSizeUnderflow),
    ])
    def test_blow_up_raises_the_same_error(self, field, y0, error):
        raised = []
        for loop in (ode._rk45_loop, ode._rk45_path):
            with pytest.raises(error) as info:
                loop(field, y0, 10.0, 1e-8, 1e-10, {})
            raised.append(info.value.t)
        assert raised[0] == raised[1]

    def test_field_matches_the_inf_degrading_formula(self):
        def exp(v):
            try:
                return math.exp(v)
            except OverflowError:
                return math.inf

        def reference(spec, y):
            dJ, hJ = -spec.delta * spec.J, -(1.0 - spec.delta) * spec.J
            k0, k1, k2 = spec.kappa
            e = (2.0 * (dJ * y[2] + hJ * y[1] + k0), 2.0 * (dJ * y[0] + hJ * y[2] + k1),
                 2.0 * (dJ * y[1] + hJ * y[0] + k2))
            return tuple((1.0 - v) * exp(x) - v * exp(-x) for v, x in zip(y, e))

        rng = np.random.default_rng(31)
        overflowed = 0
        # Inside the box, then ever farther outside it; with |J| up to 6,
        # states beyond about 60 overflow exp.
        for low, high in ((0.0, 1.0), (-30.0, 30.0), (-1e3, 1e3), (-1e300, 1e300)):
            for _ in range(200):
                spec = LoopSpec(J=float(rng.uniform(-6, 6)), delta=float(rng.uniform(0, 1)),
                                kappa=tuple(rng.uniform(-3, 3, 3)), N=10)
                y = rng.uniform(low, high, 3).tolist()
                want = reference(spec, y)
                got = field_closure(spec)(y)
                assert type(got) is tuple
                assert np.array(got).tobytes() == np.array(want).tobytes(), (spec, y)
                overflowed += not all(map(math.isfinite, want))
        assert overflowed > 100

    @pytest.mark.parametrize("k", [2, 4, 5])
    def test_generic_field_takes_math_exp_and_degrades_to_inf(self, k):
        # Other k than 3 also take one math.exp per exponential, so no bit
        # follows numpy's exp kernel, and overflow degrades to inf alike.
        def exp(v):
            try:
                return math.exp(v)
            except OverflowError:
                return math.inf

        def reference(spec, y):
            dJ, hJ = spec.delta * spec.J, (1.0 - spec.delta) * spec.J
            out = []
            for i, kap in enumerate(spec.kappa):
                x = 2.0 * (-dJ * y[(i - 1) % k] - hJ * y[(i + 1) % k] + kap)
                out.append((1.0 - y[i]) * exp(x) - y[i] * exp(-x))
            return out

        rng = np.random.default_rng(40 + k)
        overflowed = 0
        for low, high in ((0.0, 1.0), (-30.0, 30.0), (-1e3, 1e3), (-1e300, 1e300)):
            for _ in range(200):
                spec = LoopSpec(J=float(rng.uniform(-6, 6)), delta=float(rng.uniform(0, 1)),
                                kappa=tuple(rng.uniform(-3, 3, k)), N=10, k=k)
                y = rng.uniform(low, high, k).tolist()
                want = reference(spec, y)
                got = field_closure(spec)(y)
                assert type(got) is list
                assert np.array(got).tobytes() == np.array(want).tobytes(), (spec, y)
                if high == 1.0:
                    assert got == pytest.approx(vector_field(spec, y), rel=1e-13, abs=1e-13)
                overflowed += not all(map(math.isfinite, want))
        assert overflowed > 100


class TestIntegratorSettings:
    @pytest.mark.parametrize("name", ["step", "rtol", "atol", "sample_dt"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_rejects_naming_the_field(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite and positive"):
            IntegratorSettings(**{name: value})

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError, match="method"):
            IntegratorSettings(method="euler")


class TestIntegrateLinear:
    def test_run_counters(self):
        traj = integrate_linear(-np.eye(2), np.ones(2), 1.0,
                                IntegratorSettings(method="rk4", step=0.1))
        assert traj.meta["steps_accepted"] == 10
        assert traj.meta["f_evals"] == 41
        traj = integrate_linear(-np.eye(2), np.ones(2), 1.0)
        meta = traj.meta
        assert meta["f_evals"] == 1 + 6 * (meta["steps_accepted"] + meta["steps_rejected"])


    def test_zero_matrix(self):
        traj = integrate_linear(np.zeros((2, 2)), np.array([0.3, -0.7]), 5.0)
        assert np.abs(traj.states - np.array([0.3, -0.7])).max() == 0.0

    def test_scalar_decay(self):
        traj = integrate_linear(-np.eye(2), np.ones(2), 3.0)
        assert traj.final_state == pytest.approx(
            np.full(2, math.exp(-3.0)), abs=1e-8
        )

    def test_rotation_block_conserves_radius(self):
        a = z_system(2.0, 0.0)
        traj = integrate_linear(a, np.array([0.6, -0.3, 0.2]), 10.0)
        r2 = traj.states[:, 0] ** 2 + traj.states[:, 1] ** 2
        assert np.abs(r2 - r2[0]).max() / r2[0] < 1e-6

    def test_nonfinite_state_reported_with_time(self):
        with pytest.raises(NonFiniteState) as info:
            integrate_linear(
                np.array([[10.0]]), np.array([1.0]), 200.0,
                IntegratorSettings(method="rk4", step=0.1),
            )
        assert 0.0 < info.value.t <= 200.0

    def test_adaptive_blowup_raises(self):
        with pytest.raises((StepSizeUnderflow, NonFiniteState)):
            integrate_linear(np.array([[350.0]]), np.array([1.0]), 10.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            integrate_linear(np.zeros((2, 3)), np.array([1.0, 2.0]), 1.0)
        with pytest.raises(ValueError):
            integrate_linear(np.full((2, 2), np.nan), np.array([1.0, 2.0]), 1.0)
