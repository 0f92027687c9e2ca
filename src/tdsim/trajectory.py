"""Time-stamped state paths shared by the stochastic and deterministic solvers."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trajectory"]


@dataclass(frozen=True)
class Trajectory:
    """An ordered sequence of (time, state) samples.

    ``kind`` is "stochastic" for jump-process paths (evaluated as
    right-continuous step functions) or "deterministic" for ODE solutions
    (evaluated by linear interpolation; cubic Hermite when node derivatives
    are stored in ``derivs``).  ``meta`` records how the path was produced:
    parameter snapshot plus seed for stochastic paths, integrator settings
    for deterministic ones.  Deterministic times increase strictly (the
    Hermite step divides by them); stochastic times only never decrease,
    since at large total rates ``t + e / total`` can round to ``t`` and put
    two events at one time.
    """

    times: np.ndarray
    states: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)
    derivs: np.ndarray | None = None

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        if times.ndim != 1 or states.ndim != 2 or len(times) != len(states):
            raise ValueError("times must be (M,) and states (M, k) with equal M")
        if len(times) == 0:
            raise ValueError("trajectory must contain at least one sample")
        if self.kind not in ("stochastic", "deterministic"):
            raise ValueError(f"unknown trajectory kind {self.kind!r}")
        steps = np.diff(times)
        if self.kind == "stochastic" and not np.all(steps >= 0):
            raise ValueError("times must be non-decreasing")
        if self.kind == "deterministic" and not np.all(steps > 0):
            raise ValueError("times must be strictly increasing")
        if self.derivs is not None:
            derivs = np.asarray(self.derivs, dtype=float)
            if derivs.shape != states.shape:
                raise ValueError("derivs must match states in shape")
            object.__setattr__(self, "derivs", derivs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def __len__(self) -> int:
        return len(self.times)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def covers(self, t: float) -> bool:
        return self.times[0] <= 0.0 + 1e-12 and self.times[-1] >= t - 1e-12

    def value_at(self, t) -> np.ndarray:
        """States at the given time(s), per the trajectory's sampling rule.

        Stochastic paths are right-continuous step functions; deterministic
        paths are linearly interpolated between recorded nodes.  Times are
        clipped to the recorded range.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == "stochastic":
            idx = np.searchsorted(self.times, t, side="right") - 1
            idx = np.clip(idx, 0, len(self.times) - 1)
            out = self.states[idx]
        else:
            out = np.empty((len(t), self.states.shape[1]))
            for c in range(self.states.shape[1]):
                out[:, c] = np.interp(t, self.times, self.states[:, c])
        return out

    def hermite_at(self, t) -> np.ndarray:
        """Cubic-Hermite dense evaluation (deterministic paths with derivs)."""
        if self.derivs is None:
            raise ValueError("trajectory has no node derivatives for Hermite output")
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if len(self.times) == 1:
            return np.repeat(self.states, len(t), axis=0)
        t = np.clip(t, self.times[0], self.times[-1])
        idx = np.searchsorted(self.times, t, side="right") - 1
        idx = np.clip(idx, 0, len(self.times) - 2)
        t0 = self.times[idx]
        h = self.times[idx + 1] - t0
        s = ((t - t0) / h)[:, None]
        y0 = self.states[idx]
        y1 = self.states[idx + 1]
        f0 = self.derivs[idx] * h[:, None]
        f1 = self.derivs[idx + 1] * h[:, None]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s**2 * (3 - 2 * s)
        h11 = s**2 * (s - 1)
        return h00 * y0 + h10 * f0 + h01 * y1 + h11 * f1
