"""Spectrum, bifurcation classification, rotated frame, convergence study."""
import math
import re

import numpy as np
import pytest

from tdsim.analysis import (
    classify,
    convergence_experiment,
    fixed_point_branch,
    hopf_amplitude,
    orbit_extrema,
    polar_rates,
    rotation_matrix,
    scan,
    symmetric_spectrum,
    z_system,
)
from tdsim.model import LoopSpec, jacobian, vector_field
from tdsim.ode import IntegratorSettings, integrate, integrate_linear
from tdsim.trajectory import Trajectory

SQRT3 = math.sqrt(3.0)


def branch_residual(J, y):
    return math.sinh(2 * J * y) + 2 * y * math.cosh(2 * J * y)


class TestSymmetricSpectrum:
    def test_hopf_point(self):
        eig = symmetric_spectrum(2.0, 0.0).eigenvalues
        expect = {complex(-6, 0), complex(0, 2 * SQRT3), complex(0, -2 * SQRT3)}
        for z in eig:
            assert min(abs(z - w) for w in expect) < 1e-12

    def test_real_eigenvalue_crosses_at_minus_one(self):
        for delta in (0.0, 0.3, 0.9):
            eig = symmetric_spectrum(-1.0, delta).eigenvalues
            assert min(abs(z) for z in eig) < 1e-12

    def test_balanced_split_is_real(self):
        eig = symmetric_spectrum(3.0, 0.5).eigenvalues
        assert all(z.imag == 0 for z in eig)
        values = sorted(z.real for z in eig)
        assert values == pytest.approx([-8.0, 1.0, 1.0])

    def test_matches_numerical_jacobian_on_grid(self):
        for J in np.arange(-3.0, 3.01, 0.3):
            for delta in np.arange(0.0, 1.01, 0.1):
                eig = symmetric_spectrum(float(J), float(delta)).eigenvalues
                spec = LoopSpec.with_half_j(float(J), float(delta), N=1)
                numeric = np.linalg.eigvals(jacobian(spec, np.full(3, 0.5)))
                for z in eig:
                    assert min(abs(z - w) for w in numeric) < 1e-8

    def test_delta_flip_conjugates(self):
        for J in (-2.5, 0.7, 2.4):
            for delta in (0.0, 0.2, 0.45):
                a = symmetric_spectrum(J, delta).eigenvalues
                b = symmetric_spectrum(J, 1 - delta).eigenvalues
                conj = sorted((z.conjugate() for z in b), key=lambda z: (-z.real, -z.imag))
                assert np.allclose(a, conj, atol=1e-12)

    def test_conjugation_closure(self):
        eig = symmetric_spectrum(2.7, 0.15).eigenvalues
        for z in eig:
            assert any(abs(z.conjugate() - w) < 1e-10 for w in eig)


class TestFixedPointBranch:
    def test_single_root_in_stable_regime(self):
        assert fixed_point_branch(-0.5) == [0.0]
        assert fixed_point_branch(1.7) == [0.0]

    def test_quarter_branch_at_minus_log3(self):
        # Inverting the branch relation at y = 1/4 gives J = log(1/3).
        roots = fixed_point_branch(-math.log(3.0))
        assert len(roots) == 3
        assert roots[2] == pytest.approx(0.25, abs=1e-9)
        assert roots[0] == pytest.approx(-0.25, abs=1e-9)

    def test_near_onset_series(self):
        # Leading order: J = -1 - (4/3) y^2, i.e. y = 0.300 at J = -1.12;
        # the true root sits at 0.2711 (the series overshoots by ~0.029).
        roots = fixed_point_branch(-1.12)
        assert roots[2] == pytest.approx(0.300, abs=0.03)
        assert roots[2] == pytest.approx(0.27110, abs=1e-3)

    def test_roots_satisfy_branch_relation(self):
        for J in (-1.05, -1.5, -2.0, -3.0):
            roots = fixed_point_branch(J)
            assert len(roots) == 3
            y = roots[2]
            assert abs(branch_residual(J, y)) < 1e-9
            # consistency with J = log((1-2y)/(1+2y)) / (4y)
            assert J == pytest.approx(math.log((1 - 2 * y) / (1 + 2 * y)) / (4 * y), abs=1e-9)
            assert roots[0] == -roots[2] and roots[1] == 0.0


class TestClassify:
    def test_stable_point(self):
        rec = classify(1.0, 0.0)
        assert rec.classification == "stable-point"
        assert rec.fixed_points == ((0.5, 0.5, 0.5),)

    def test_bistable(self):
        rec = classify(-1.5, 0.2)
        assert rec.classification == "bistable"
        assert len(rec.fixed_points) == 3
        spec = LoopSpec.with_half_j(-1.5, 0.2, N=1)
        for point in rec.fixed_points:
            assert np.abs(vector_field(spec, np.array(point))).max() < 1e-9
            y = point[0] - 0.5
            if y != 0.0:
                assert abs(branch_residual(-1.5, y)) < 1e-9

    def test_bistable_pair_is_stable(self):
        rec = classify(-1.5, 0.2)
        spec = LoopSpec.with_half_j(-1.5, 0.2, N=1)
        outer = [p for p in rec.fixed_points if p[0] != 0.5]
        assert len(outer) == 2
        for point in outer:
            eig = np.linalg.eigvals(jacobian(spec, np.array(point)))
            assert np.all(eig.real < 0)

    def test_bistable_points_sit_on_rotated_axis(self):
        # In the rotated frame the pitchfork pair lies on the third axis at
        # +/- sqrt(3) * y.
        rec = classify(-2.0, 0.4)
        r = rotation_matrix()
        for point in rec.fixed_points:
            z = r.T @ (np.array(point) - 0.5)
            assert abs(z[0]) < 1e-12 and abs(z[1]) < 1e-12
            assert z[2] == pytest.approx(math.sqrt(3.0) * (point[0] - 0.5), abs=1e-12)

    def test_oscillatory(self):
        rec = classify(2.5, 0.0)
        assert rec.classification == "oscillatory"
        assert rec.amplitude > 0.1

    def test_degenerate_cases(self):
        assert classify(-1.0, 0.3).classification == "degenerate"
        assert classify(2.0, 0.0).classification == "degenerate"
        assert classify(2.5, 0.5).classification == "degenerate"

    def test_rejects_nan_coupling(self):
        with pytest.raises(ValueError, match="J must be finite"):
            classify(float("nan"), 0.0)

    def test_delta_flip_preserves_tag(self):
        for J in (-1.4, 0.5, 2.3):
            for delta in (0.0, 0.2, 0.4):
                assert (
                    classify(J, delta).classification
                    == classify(J, 1 - delta).classification
                )


class TestLimitCycle:
    """Oscillatory extrema come from the limit cycle solved on the section
    x_A = 1/2, not from the tail of a fixed horizon."""

    def test_hopf_amplitude_law(self):
        assert hopf_amplitude(2.5, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert hopf_amplitude(2.0, 0.3) == 0.0
        for J, delta in ((1.9, 0.3), (2.5, 0.5), (2.5, 1.2), (math.nan, 0.3)):
            with pytest.raises(ValueError):
                hopf_amplitude(J, delta)

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.7])
    @pytest.mark.parametrize("eps", [0.0025, 0.005, 0.01, 0.02])
    def test_amplitude_follows_the_hopf_law(self, eps, delta):
        J = 2.0 + eps
        ratio = classify(J, delta).amplitude / hopf_amplitude(J, delta)
        assert abs(ratio - 1.0) <= 1.1 * eps

    def test_near_hopf_amplitude_is_the_cycle(self):
        # A 300-unit horizon from the burn-in start still reads the
        # transient here (0.07613).
        assert classify(2.002, 0.3).amplitude == pytest.approx(0.06318, rel=0.01)

    @pytest.mark.parametrize("delta", [0.0, 0.3, 0.45])
    @pytest.mark.parametrize("J", [2.05, 2.5, 3.0, 4.0])
    def test_cycle_is_symmetric_about_one_half(self, J, delta):
        # With kappa = J/2 the field is odd about 1/2, and so is its cycle.
        rec = classify(J, delta)
        assert abs(rec.orbit_min[0] + rec.orbit_max[0] - 1.0) <= 1e-8

    @pytest.mark.parametrize("J, delta", [(2.0 + 1e-7, 0.0), (2.0 + 1e-5, 0.3), (5.0, 0.49)])
    def test_unverified_cycle_raises(self, J, delta):
        # Inside the band next to J = 2 the return noise outweighs the
        # contraction; at (5, 0.49) the burn-in settles on an off-diagonal
        # fixed point and never crosses the section.
        with pytest.raises(RuntimeError, match=re.escape(f"J={J}, delta={delta}")):
            classify(J, delta)


def scalar_orbit_extrema(traj, t_start, t_end):
    """Oracle: orbit_extrema one segment and one coordinate at a time."""
    ts = traj.times
    candidates = [np.array([t_start, t_end])]
    lo = np.searchsorted(ts, t_start, side="right") - 1
    hi = np.searchsorted(ts, t_end, side="left")
    for seg in range(max(lo, 0), min(hi, len(ts) - 1)):
        t0, t1 = ts[seg], ts[seg + 1]
        h = t1 - t0
        y0, y1 = traj.states[seg], traj.states[seg + 1]
        f0, f1 = traj.derivs[seg] * h, traj.derivs[seg + 1] * h
        for i in range(traj.states.shape[1]):
            a = 6 * y0[i] - 6 * y1[i] + 3 * f0[i] + 3 * f1[i]
            b = -6 * y0[i] + 6 * y1[i] - 4 * f0[i] - 2 * f1[i]
            c = f0[i]
            roots = []
            if abs(a) > 1e-300:
                disc = b * b - 4 * a * c
                if disc >= 0:
                    sq = math.sqrt(disc)
                    roots = [(-b - sq) / (2 * a), (-b + sq) / (2 * a)]
            elif abs(b) > 1e-300:
                roots = [-c / b]
            ok = [t0 + s * h for s in roots if 0.0 < s < 1.0]
            candidates.append(np.array([t for t in ok if t_start <= t <= t_end]))
    vals = traj.hermite_at(np.concatenate(candidates))
    return vals.min(axis=0), vals.max(axis=0)


class TestOrbitExtrema:
    @staticmethod
    def hand_made():
        # Coordinates: y = t^2 - 3t (cubic coefficient exactly 0, one linear
        # root), a constant (no root), a quartic with complex and real roots.
        ts = np.array([0.0, 1.0, 2.0, 3.0, 4.5])
        quartic = lambda t: t**4 - 6 * t**3 + 11 * t**2 - 6 * t  # noqa: E731
        dquartic = lambda t: 4 * t**3 - 18 * t**2 + 22 * t - 6  # noqa: E731
        states = np.stack([ts**2 - 3 * ts, np.full(5, 0.25), quartic(ts)], axis=1)
        derivs = np.stack([2 * ts - 3, np.zeros(5), dquartic(ts)], axis=1)
        return Trajectory(ts, states, kind="deterministic", derivs=derivs)

    def test_matches_scalar_oracle_bitwise(self):
        spec = LoopSpec.with_half_j(J=2.4, delta=0.2, N=1)
        osc = integrate(spec, np.array([0.6, 0.5, 0.4]), 60.0)
        k4 = integrate(LoopSpec(J=2.8, delta=0.1, kappa=(1.4,) * 4, N=1, k=4),
                       np.array([0.9, 0.1, 0.5, 0.3]), 20.0,
                       IntegratorSettings(method="rk4", step=0.05))
        rot = integrate_linear(z_system(2.0, 0.3), np.array([0.6, -0.3, 0.2]), 10.0)
        cases = [(osc, 20.0, 60.0), (osc, 0.0, 60.0), (k4, 3.3, 17.05),
                 (rot, 1.0, 9.5), (self.hand_made(), 0.0, 4.5),
                 (self.hand_made(), 0.5, 2.5)]
        for traj, t_start, t_end in cases:
            got = orbit_extrema(traj, t_start, t_end)
            want = scalar_orbit_extrema(traj, t_start, t_end)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_hand_made_extrema(self):
        lo, hi = orbit_extrema(self.hand_made(), 0.0, 4.5)
        assert lo[0] == -2.25 and hi[0] == 6.75
        assert lo[1] == hi[1] == 0.25


class TestScan:
    def test_stability_window(self):
        records = scan([-0.5, 0.0, 1.0], delta=0.3)
        assert [r.classification for r in records] == ["stable-point"] * 3

    def test_pitchfork_onset_within_one_step(self):
        grid = [round(-1.05 + 0.01 * i, 10) for i in range(11)]
        records = scan(grid, delta=0.2)
        bistable = [r.J for r in records if r.classification == "bistable"]
        stable = [r.J for r in records if r.classification == "stable-point"]
        assert max(bistable) >= -1.01
        assert min(stable) <= -0.99
        assert max(bistable) < min(stable)

    def test_hopf_onset_within_one_step(self):
        grid = [round(1.95 + 0.01 * i, 10) for i in range(11)]
        records = scan(grid, delta=0.0)
        oscillatory = [r.J for r in records if r.classification == "oscillatory"]
        assert min(oscillatory) == pytest.approx(2.01, abs=1e-9)
        assert all(
            r.classification in ("stable-point", "degenerate")
            for r in records
            if r.J < 2.005
        )


class TestRotatedFrame:
    def test_orthonormal(self):
        r = rotation_matrix()
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-14

    def test_diagonal_maps_to_third_axis(self):
        r = rotation_matrix()
        z = r.T @ (np.ones(3) / SQRT3)
        assert z == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)

    def test_determinant_plus_one(self):
        assert np.linalg.det(rotation_matrix()) == pytest.approx(1.0, abs=1e-12)

    def test_z_system_balanced_split(self):
        z = z_system(2.0, 0.5)
        assert np.abs(z[:2, :2]).max() == 0.0
        assert z[2, 2] == -6.0

    def test_z_system_decoupled(self):
        assert z_system(0.0, 0.3) == pytest.approx(-2 * np.eye(3))

    def test_z_system_block_values(self):
        z = z_system(3.0, 0.0)
        assert z[:2, :2] == pytest.approx(
            np.array([[1.0, -3 * SQRT3], [3 * SQRT3, 1.0]])
        )
        assert z[2, 2] == -8.0

    def test_polar_rates(self):
        assert polar_rates(2.0, 0.0) == pytest.approx((0.0, 2 * SQRT3))
        assert polar_rates(2.0, 1.0) == pytest.approx((0.0, -2 * SQRT3))
        assert polar_rates(3.0, 0.5) == pytest.approx((1.0, 0.0))

    def test_rotation_direction_flips_across_half(self):
        for J in (2.0, 2.5, 3.0):
            assert polar_rates(J, 0.2)[1] > 0 > polar_rates(J, 0.8)[1]


class TestConvergenceExperiment:
    def test_empty_for_zero_replicas(self):
        base = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=100)
        result = convergence_experiment(base, [100, 200], (0.5, 0.5, 0.5), 1.0, 0, seed=1)
        assert result.rows == () and result.slope is None

    def test_medians_decrease_small(self):
        base = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=100)
        result = convergence_experiment(
            base, [50, 500], (0.8, 0.2, 0.5), 2.0, replicas=30, seed=7
        )
        assert len(result.rows) == 2
        assert result.rows[1].median < result.rows[0].median
        assert result.slope is not None and result.slope < 0
        for row in result.rows:
            assert row.q25 <= row.median <= row.q75

    def test_increasing_medians_are_reported_not_raised(self):
        # N decreasing along the sweep: medians grow, which is data for the
        # caller to judge, not an error of the experiment.
        base = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=100)
        result = convergence_experiment(
            base, [500, 50], (0.8, 0.2, 0.5), 1.0, replicas=6, seed=7
        )
        assert [row.N for row in result.rows] == [500, 50]
        assert result.rows[1].median > result.rows[0].median
        assert result.slope is not None and result.slope < 0
