"""Spectrum, bifurcation classification, rotated frame, convergence study."""
import math

import numpy as np
import pytest

from tdsim.analysis import (
    classify,
    convergence_experiment,
    fixed_point_branch,
    polar_rates,
    rotation_matrix,
    scan,
    symmetric_spectrum,
    z_system,
)
from tdsim.model import LoopSpec, jacobian, vector_field

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

    def test_delta_flip_preserves_tag(self):
        for J in (-1.4, 0.5, 2.3):
            for delta in (0.0, 0.2, 0.4):
                assert (
                    classify(J, delta).classification
                    == classify(J, 1 - delta).classification
                )


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

    def test_worker_pool_matches_serial(self):
        base = LoopSpec(J=1.0, delta=0.3, kappa=(0.5,) * 3, N=100)
        args = (base, [60, 240], (0.8, 0.2, 0.5), 1.0)
        serial = convergence_experiment(*args, replicas=12, seed=5, workers=1)
        pooled = convergence_experiment(*args, replicas=12, seed=5, workers=2)
        assert serial == pooled
