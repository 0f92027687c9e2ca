"""Trajectory container: validation and the two sampling rules."""
import numpy as np
import pytest

from tdsim.trajectory import Trajectory


def test_rejects_non_increasing_times():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 0.5]), np.zeros((3, 2)), kind="stochastic")
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0, 1.0]), np.zeros((3, 2)), kind="deterministic")


def test_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((3, 2)), kind="stochastic")
    with pytest.raises(ValueError):
        Trajectory(np.array([0.0, 1.0]), np.zeros((2, 2)), kind="wiggly")


def test_step_semantics_right_continuous():
    traj = Trajectory(
        np.array([0.0, 1.0, 2.0]),
        np.array([[0.0], [1.0], [2.0]]),
        kind="stochastic",
    )
    assert traj.value_at([0.5, 1.0, 1.5, 2.0])[:, 0] == pytest.approx([0, 1, 1, 2])


def test_linear_interpolation_for_deterministic():
    traj = Trajectory(
        np.array([0.0, 2.0]), np.array([[0.0], [1.0]]), kind="deterministic"
    )
    assert traj.value_at([0.0, 0.5, 1.0, 2.0])[:, 0] == pytest.approx(
        [0.0, 0.25, 0.5, 1.0]
    )


def test_hermite_reproduces_cubic():
    # With exact node values and derivatives of t^3 the interpolant is exact.
    ts = np.array([0.0, 1.0, 2.0])
    states = (ts**3)[:, None]
    derivs = (3 * ts**2)[:, None]
    traj = Trajectory(ts, states, kind="deterministic", derivs=derivs)
    probe = np.linspace(0, 2, 17)
    assert traj.hermite_at(probe)[:, 0] == pytest.approx(probe**3, abs=1e-12)


def test_single_sample_trajectory():
    traj = Trajectory(
        np.array([0.0]), np.array([[0.4, 0.5]]), kind="deterministic",
        derivs=np.array([[0.0, 0.0]]),
    )
    assert np.allclose(traj.value_at(3.0), [[0.4, 0.5]])
    assert np.allclose(traj.hermite_at([0.0, 1.0]), [[0.4, 0.5], [0.4, 0.5]])
    assert traj.covers(0.0) and not traj.covers(1.0)
