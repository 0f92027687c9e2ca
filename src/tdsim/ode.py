"""Deterministic integration of the fluid-limit system and small linear systems.

Two integrators are provided: a fixed-step classic Runge-Kutta 4 and an
adaptive embedded Dormand-Prince 5(4) pair.  Both record the accepted nodes
together with the field values there, so trajectories support cubic-Hermite
dense output (used for orbit-extrema detection and fine reference sampling).

The integrators step on Python floats because numpy's per-call overhead
dominates on states of a few components; the field takes and returns
sequences of floats.  RK4 and the generic RK45 loop run one comprehension per
stage.  A three-component state (the k = 3 fluid limit and 3 x 3 linear
systems) takes :func:`_rk45_loop_3`, the same Dormand-Prince step unrolled on
scalar locals with the same operations in the same order, so its nodes are
bitwise those of the generic loop without its per-stage lists and zips.  The
output trajectory holds numpy arrays, and its ``meta`` records the run
counters ``steps_accepted``, ``steps_rejected`` and ``f_evals`` (the field
evaluations of the steps).  A path resampled on a ``sample_dt`` grid carries
no derivatives.
"""
from __future__ import annotations

import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .model import LoopSpec, field_closure
from .trajectory import Trajectory

__all__ = [
    "IntegratorSettings",
    "IntegrationError",
    "StepSizeUnderflow",
    "NonFiniteState",
    "integrate",
    "integrate_linear",
    "BURN_IN_TIME",
    "OBSERVATION_TIME",
]

# Horizon conventions for asymptotic classification: transient burn-in and
# observation window, fixed once (slowest relevant decay near the
# bifurcation points behaves like 1/|J - J_c| at the scan resolutions used).
BURN_IN_TIME = 200.0
OBSERVATION_TIME = 100.0


class IntegrationError(RuntimeError):
    pass


class StepSizeUnderflow(IntegrationError):
    def __init__(self, t: float):
        super().__init__(f"adaptive step size underflow at t={t!r}")
        self.t = t


class NonFiniteState(IntegrationError):
    def __init__(self, t: float):
        super().__init__(f"state became non-finite at t={t!r}")
        self.t = t


@dataclass(frozen=True)
class IntegratorSettings:
    """Method selection and tolerances.

    method "rk4" is fixed-step with size ``step``; "rk45" is the adaptive
    pair controlled by ``rtol``/``atol``.  When ``sample_dt`` is set the
    output trajectory is resampled on that uniform grid through the Hermite
    interpolant (endpoints always included), without derivatives; otherwise
    the accepted nodes are returned.
    """

    method: str = "rk45"
    step: float = 1e-3
    rtol: float = 1e-8
    atol: float = 1e-10
    sample_dt: float | None = None

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown method {self.method!r}")
        for name in ("step", "rtol", "atol", "sample_dt"):
            value = getattr(self, name)
            if name == "sample_dt" and value is None:
                continue
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")


# Dormand-Prince 5(4) error-estimate coefficients (b5 - b4).
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# Smallest adaptive step, relative to max(1, |t|).
_MIN_STEP = 16 * sys.float_info.epsilon


def _all_finite(values) -> bool:
    return all(map(math.isfinite, values))


def _arrays(ts, ys, fs):
    """Node times, states and field values as numpy arrays."""
    return (np.frombuffer(ts), np.frombuffer(ys).reshape(len(ts), -1),
            np.frombuffer(fs).reshape(len(ts), -1))


def _rk4_path(f, y0, t_end, h, stats):
    # Nodes go into flat double arrays: a list of per-node float objects
    # would take several times the memory.
    k1 = f(y0)
    ts = array("d", [0.0])
    ys = array("d", y0)
    fs = array("d", k1)
    t = 0.0
    y = y0
    # A diverging solution overflows before being reported as NonFiniteState;
    # the warning would only duplicate that error.
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-15:
            # A span left within the slack of one step is the last step, so
            # the path ends at t_end and not a rounding short of it.
            last = t_end - t <= h + 1e-15
            step = t_end - t if last else h
            half = 0.5 * step
            k2 = f([a + half * b for a, b in zip(y, k1)])
            k3 = f([a + half * b for a, b in zip(y, k2)])
            k4 = f([a + step * b for a, b in zip(y, k3)])
            sixth = step / 6.0
            y = [a + sixth * (b1 + 2 * b2 + 2 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            t = t_end if last else t + step
            if not _all_finite(y):
                raise NonFiniteState(t)
            k1 = f(y)
            ts.append(t)
            ys.extend(y)
            fs.extend(k1)
    stats.update(steps_rejected=0, f_evals=1 + 4 * (len(ts) - 1))
    return _arrays(ts, ys, fs)


def _rk45_loop(f, y0, t_end, rtol, atol, stats):
    """Dormand-Prince loop for any dimension, one comprehension per stage."""
    k1 = f(y0)
    ts = array("d", [0.0])
    ys = array("d", y0)
    fs = array("d", k1)
    t = 0.0
    y = y0
    h = min(1e-2, t_end) if t_end > 0 else 0.0
    rejected = 0
    e1, e3, e4, e5, e6, e7 = (
        _DP_ERR[0], _DP_ERR[2], _DP_ERR[3], _DP_ERR[4], _DP_ERR[5], _DP_ERR[6],
    )
    # Trial steps may blow up; they are rejected below, so silence the
    # overflow/invalid warnings instead of spamming callers.
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-15:
            h = min(h, t_end - t)
            if h < _MIN_STEP * max(1.0, abs(t)):
                raise StepSizeUnderflow(t)
            k2 = f([a + h * (0.2 * b1) for a, b1 in zip(y, k1)])
            k3 = f([a + h * (0.075 * b1 + 0.225 * b2) for a, b1, b2 in zip(y, k1, k2)])
            k4 = f([a + h * ((44 / 45) * b1 - (56 / 15) * b2 + (32 / 9) * b3)
                    for a, b1, b2, b3 in zip(y, k1, k2, k3)])
            k5 = f([a + h * ((19372 / 6561) * b1 - (25360 / 2187) * b2
                             + (64448 / 6561) * b3 - (212 / 729) * b4)
                    for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)])
            k6 = f([a + h * ((9017 / 3168) * b1 - (355 / 33) * b2 + (46732 / 5247) * b3
                             + (49 / 176) * b4 - (5103 / 18656) * b5)
                    for a, b1, b2, b3, b4, b5 in zip(y, k1, k2, k3, k4, k5)])
            y_new = [a + h * ((35 / 384) * b1 + (500 / 1113) * b3 + (125 / 192) * b4
                              - (2187 / 6784) * b5 + (11 / 84) * b6)
                     for a, b1, b3, b4, b5, b6 in zip(y, k1, k3, k4, k5, k6)]
            k7 = f(y_new)
            # Scaled error per component; Python's max would drop a NaN, so
            # finiteness is tested on every ratio, not on their maximum.
            ratios = [
                abs(h * (e1 * b1 + e3 * b3 + e4 * b4 + e5 * b5 + e6 * b6 + e7 * b7))
                / (atol + rtol * max(abs(a), abs(a_new)))
                for a, a_new, b1, b3, b4, b5, b6, b7 in zip(y, y_new, k1, k3, k4, k5, k6, k7)
            ]
            if not _all_finite(ratios) or not _all_finite(y_new):
                # Treat a blown-up trial step as maximally inaccurate: shrink.
                if not _all_finite(y):
                    raise NonFiniteState(t)
                rejected += 1
                h *= 0.2
                continue
            err = max(ratios)
            if err <= 1.0:
                t = t + h
                y = y_new
                k1 = k7  # first-same-as-last
                ts.append(t)
                ys.extend(y)
                fs.extend(k1)
            else:
                rejected += 1
            factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
    stats.update(steps_rejected=rejected, f_evals=1 + 6 * (len(ts) - 1 + rejected))
    return _arrays(ts, ys, fs)


def _rk45_loop_3(f, y0, t_end, rtol, atol, stats):
    """:func:`_rk45_loop` unrolled for three components on scalar locals.

    Every stage keeps the coefficients, parenthesisation and operation
    order of the comprehensions, and the finiteness test, accept/reject rule
    and step controller are the same, so every node is bitwise the same.
    The field gets one 3-tuple per evaluation.
    """
    k1 = f(y0)
    ts = array("d", [0.0])
    ys = array("d", y0)
    fs = array("d", k1)
    t = 0.0
    ya, yb, yc = y0
    k1a, k1b, k1c = k1
    h = min(1e-2, t_end) if t_end > 0 else 0.0
    rejected = 0
    isfinite = math.isfinite
    a41, a42, a43 = 44 / 45, 56 / 15, 32 / 9
    a51, a52, a53, a54 = 19372 / 6561, 25360 / 2187, 64448 / 6561, 212 / 729
    a61, a62, a63, a64, a65 = 9017 / 3168, 355 / 33, 46732 / 5247, 49 / 176, 5103 / 18656
    b1, b3, b4, b5, b6 = 35 / 384, 500 / 1113, 125 / 192, 2187 / 6784, 11 / 84
    e1, e3, e4, e5, e6, e7 = (
        _DP_ERR[0], _DP_ERR[2], _DP_ERR[3], _DP_ERR[4], _DP_ERR[5], _DP_ERR[6],
    )
    with np.errstate(over="ignore", invalid="ignore"):
        while t < t_end - 1e-15:
            h = min(h, t_end - t)
            if h < _MIN_STEP * max(1.0, abs(t)):
                raise StepSizeUnderflow(t)
            k2a, k2b, k2c = f((ya + h * (0.2 * k1a), yb + h * (0.2 * k1b),
                               yc + h * (0.2 * k1c)))
            k3a, k3b, k3c = f((ya + h * (0.075 * k1a + 0.225 * k2a),
                               yb + h * (0.075 * k1b + 0.225 * k2b),
                               yc + h * (0.075 * k1c + 0.225 * k2c)))
            k4a, k4b, k4c = f((ya + h * (a41 * k1a - a42 * k2a + a43 * k3a),
                               yb + h * (a41 * k1b - a42 * k2b + a43 * k3b),
                               yc + h * (a41 * k1c - a42 * k2c + a43 * k3c)))
            k5a, k5b, k5c = f((ya + h * (a51 * k1a - a52 * k2a + a53 * k3a - a54 * k4a),
                               yb + h * (a51 * k1b - a52 * k2b + a53 * k3b - a54 * k4b),
                               yc + h * (a51 * k1c - a52 * k2c + a53 * k3c - a54 * k4c)))
            k6a, k6b, k6c = f((
                ya + h * (a61 * k1a - a62 * k2a + a63 * k3a + a64 * k4a - a65 * k5a),
                yb + h * (a61 * k1b - a62 * k2b + a63 * k3b + a64 * k4b - a65 * k5b),
                yc + h * (a61 * k1c - a62 * k2c + a63 * k3c + a64 * k4c - a65 * k5c)))
            na = ya + h * (b1 * k1a + b3 * k3a + b4 * k4a - b5 * k5a + b6 * k6a)
            nb = yb + h * (b1 * k1b + b3 * k3b + b4 * k4b - b5 * k5b + b6 * k6b)
            nc = yc + h * (b1 * k1c + b3 * k3c + b4 * k4c - b5 * k5c + b6 * k6c)
            k7 = f((na, nb, nc))
            k7a, k7b, k7c = k7
            ra = (abs(h * (e1 * k1a + e3 * k3a + e4 * k4a + e5 * k5a + e6 * k6a + e7 * k7a))
                  / (atol + rtol * max(abs(ya), abs(na))))
            rb = (abs(h * (e1 * k1b + e3 * k3b + e4 * k4b + e5 * k5b + e6 * k6b + e7 * k7b))
                  / (atol + rtol * max(abs(yb), abs(nb))))
            rc = (abs(h * (e1 * k1c + e3 * k3c + e4 * k4c + e5 * k5c + e6 * k6c + e7 * k7c))
                  / (atol + rtol * max(abs(yc), abs(nc))))
            if not (isfinite(ra) and isfinite(rb) and isfinite(rc)
                    and isfinite(na) and isfinite(nb) and isfinite(nc)):
                if not (isfinite(ya) and isfinite(yb) and isfinite(yc)):
                    raise NonFiniteState(t)
                rejected += 1
                h *= 0.2
                continue
            err = max(ra, rb, rc)
            if err <= 1.0:
                t = t + h
                ya, yb, yc = na, nb, nc
                k1a, k1b, k1c = k7a, k7b, k7c
                ts.append(t)
                ys.extend((na, nb, nc))
                fs.extend(k7)
            else:
                rejected += 1
            factor = 0.9 * (err ** -0.2) if err > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
    stats.update(steps_rejected=rejected, f_evals=1 + 6 * (len(ts) - 1 + rejected))
    return _arrays(ts, ys, fs)


def _rk45_path(f, y0, t_end, rtol, atol, stats):
    """Adaptive Dormand-Prince path; three components take the unrolled loop."""
    loop = _rk45_loop_3 if len(y0) == 3 else _rk45_loop
    return loop(f, y0, t_end, rtol, atol, stats)


def _integrate_field(f, y0, t_end, settings, meta):
    """Integrate on Python floats from ``y0`` (a list); numpy arrays on output.

    ``meta`` gains the run counters ``steps_accepted``, ``steps_rejected``
    and ``f_evals`` (field evaluations of the steps).  A path resampled on
    ``settings.sample_dt`` carries no derivatives.
    """
    if not math.isfinite(t_end) or t_end < 0:
        raise ValueError(f"t_end must be finite and non-negative, got {t_end!r}")
    stats = {}
    if settings.method == "rk4":
        ts, ys, fs = _rk4_path(f, y0, t_end, settings.step, stats)
    else:
        ts, ys, fs = _rk45_path(f, y0, t_end, settings.rtol, settings.atol, stats)
    meta.update(steps_accepted=len(ts) - 1, **stats)
    traj = Trajectory(ts, ys, kind="deterministic", meta=meta, derivs=fs)
    if settings.sample_dt is not None and t_end > 0:
        grid = np.arange(0.0, t_end, settings.sample_dt)
        if grid[-1] < t_end:
            grid = np.append(grid, t_end)
        traj = Trajectory(grid, traj.hermite_at(grid), kind="deterministic", meta=meta)
    return traj


def integrate(
    spec: LoopSpec,
    x0,
    t_end: float,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Solve dx/dt = F(x) for the loop's vector field from x0 on [0, t_end].

    For this field the box [0, 1]^k is invariant (F_i >= 0 at x_i = 0 and
    F_i <= 0 at x_i = 1), so solutions stay inside up to integrator error.
    """
    settings = settings or IntegratorSettings()
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (spec.k,):
        raise ValueError(f"x0 must have length k={spec.k}")
    if not np.all((0 <= x0) & (x0 <= 1)):  # NaN fails both comparisons
        raise ValueError("x0 must lie in [0, 1]^k")
    meta = {"spec": spec, "settings": settings, "t_end": float(t_end)}
    return _integrate_field(field_closure(spec), x0.tolist(), t_end, settings, meta)


def integrate_linear(
    A,
    z0,
    t_end: float,
    settings: IntegratorSettings | None = None,
) -> Trajectory:
    """Solve dz/dt = A z with the same integrators."""
    settings = settings or IntegratorSettings()
    A = np.asarray(A, dtype=float)
    z0 = np.asarray(z0, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != len(z0):
        raise ValueError("A must be square and match z0 in dimension")
    if not np.all(np.isfinite(A)) or not np.all(np.isfinite(z0)):
        raise ValueError("A and z0 must be finite")
    meta = {"A": A, "settings": settings, "t_end": float(t_end)}
    return _integrate_field(lambda y: (A @ y).tolist(), z0.tolist(), t_end, settings, meta)
