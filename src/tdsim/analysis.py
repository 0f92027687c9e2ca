"""Spectral and bifurcation analysis of the three-type cycle with kappa = J/2.

At that field the symmetric point (1/2, 1/2, 1/2) is a fixed point for all
(J, delta).  Its Jacobian is the circulant

    -2 [[1, (1-delta) J, delta J],
        [delta J, 1, (1-delta) J],
        [(1-delta) J, delta J, 1]]

with spectrum {-2(J+1), (J-2) +/- sqrt(3) J (1-2 delta) i}: the real
eigenvalue crosses zero at J = -1 (pitchfork onto the diagonal, stable pair
from :func:`fixed_point_branch`) and the complex pair crosses at J = 2
(Hopf, oscillations for delta != 1/2).  The module also carries the
orthonormal rotation that maps the diagonal to the third axis, in which the
linearization block-diagonalizes and the planar dynamics reduces to the
polar rates (J - 2, -sqrt(3) J (2 delta - 1)), and the finite-N
convergence experiment, whose replicas are folded into their sup-distance
as the sampler runs.

:func:`symmetric_spectrum` and :func:`z_system` return the closed forms
directly; their cross-checks against the numerical Jacobian live in the
tests and in ``tdsim validate``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import jump, ode
from .model import DensityState, LoopSpec
from .trajectory import Trajectory

__all__ = [
    "Spectrum",
    "BifurcationRecord",
    "ConvergenceRow",
    "ConvergenceResult",
    "symmetric_spectrum",
    "fixed_point_branch",
    "classify",
    "scan",
    "rotation_matrix",
    "z_system",
    "polar_rates",
    "convergence_experiment",
    "orbit_extrema",
]

EIGENVALUE_EPS = 1e-9
AMPLITUDE_EPS = 1e-3
# Bisection width of the diagonal fixed-point roots.
BRANCH_TOL = 1e-12
# Relative tolerance of the reference ODE solution in the convergence experiment.
REFERENCE_RTOL = 1e-8
# Sample spacing of that reference solution.
REFERENCE_SAMPLE_DT = 1e-3
# Off-diagonal start used for asymptotic orbit runs; any generic point works.
_ORBIT_X0 = (0.55, 0.5, 0.45)

@dataclass(frozen=True)
class Spectrum:
    """Three eigenvalues ordered by (real part, imaginary part) descending."""

    eigenvalues: tuple[complex, complex, complex]

    def __post_init__(self):
        vals = tuple(sorted(self.eigenvalues, key=lambda z: (-z.real, -z.imag)))
        object.__setattr__(self, "eigenvalues", vals)


@dataclass(frozen=True)
class BifurcationRecord:
    """Classification of the flow at one (J, delta) point.

    ``fixed_points`` lists the diagonal fixed points (stable and unstable);
    ``orbit_min``/``orbit_max`` hold per-coordinate extrema of the
    asymptotic orbit for oscillatory records and are None otherwise.
    """

    J: float
    delta: float
    spectrum: Spectrum
    classification: str
    fixed_points: tuple[tuple[float, ...], ...]
    orbit_min: tuple[float, ...] | None = None
    orbit_max: tuple[float, ...] | None = None

    @property
    def amplitude(self) -> float | None:
        """Peak-to-peak amplitude of the first coordinate, if oscillatory."""
        if self.orbit_min is None or self.orbit_max is None:
            return None
        return self.orbit_max[0] - self.orbit_min[0]


def _closed_form_eigenvalues(J: float, delta: float) -> tuple[complex, complex, complex]:
    lam1 = complex(-2.0 * (J + 1.0), 0.0)
    re = J - 2.0
    im = math.sqrt(3.0) * J * (1.0 - 2.0 * delta)
    return lam1, complex(re, im), complex(re, -im)


def symmetric_spectrum(J: float, delta: float) -> Spectrum:
    """Closed-form spectrum at (1/2, 1/2, 1/2) with kappa = J/2, k = 3."""
    return Spectrum(_closed_form_eigenvalues(J, delta))


def _branch_function(J: float, y: float) -> float:
    # tanh(2Jy) + 2y has the same roots as sinh(2Jy) + 2y cosh(2Jy) and
    # never overflows.
    return math.tanh(2.0 * J * y) + 2.0 * y


def fixed_point_branch(J: float) -> list[float]:
    """Diagonal fixed-point offsets: roots y of sinh(2Jy) + 2y cosh(2Jy) = 0.

    Returns {-y*, 0, +y*} for J < -1 and {0} otherwise; the positive root is
    found by bisection on (0, 1/2) to :data:`BRANCH_TOL`, exploiting
    oddness.  Offsets map to densities through x = 1/2 + y.
    """
    if not math.isfinite(J):
        raise ValueError("J must be finite")
    if J >= -1.0:
        return [0.0]
    lo = 1e-8
    if _branch_function(J, lo) >= 0.0:
        # Root indistinguishable from zero: J is within float noise of -1.
        return [0.0]
    hi = 0.5
    while hi - lo > BRANCH_TOL:
        mid = 0.5 * (lo + hi)
        if _branch_function(J, mid) < 0.0:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    return [-y, 0.0, y]


def orbit_extrema(traj: Trajectory, t_start: float, t_end: float):
    """Per-coordinate min/max of a dense trajectory over [t_start, t_end].

    Candidate extrema are the window ends plus the interior zeros of the
    Hermite interpolant's derivative (a quadratic on each step interval), so
    the result does not depend on the accepted step sizes.
    """
    if traj.derivs is None:
        raise ValueError("orbit extrema need a trajectory with node derivatives")
    ts = traj.times
    lo = max(np.searchsorted(ts, t_start, side="right") - 1, 0)
    hi = min(np.searchsorted(ts, t_end, side="left"), len(ts) - 1)
    t0 = ts[lo:hi, None]
    h = ts[lo + 1:hi + 1, None] - t0
    y0 = traj.states[lo:hi]
    y1 = traj.states[lo + 1:hi + 1]
    f0 = traj.derivs[lo:hi] * h
    f1 = traj.derivs[lo + 1:hi + 1] * h
    # Hermite cubic in s on [0,1] per segment and coordinate: its derivative
    # is the quadratic a s^2 + b s + c.  It has two real roots when
    # |a| > 1e-300 and the discriminant is non-negative, else one root -c/b
    # when |a| <= 1e-300 < |b|.
    a = 6 * y0 - 6 * y1 + 3 * f0 + 3 * f1
    b = -6 * y0 + 6 * y1 - 4 * f0 - 2 * f1
    c = f0
    quadratic = np.abs(a) > 1e-300
    disc = b * b - 4 * a * c
    real = quadratic & (disc >= 0)
    linear = ~quadratic & (np.abs(b) > 1e-300)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = np.sqrt(disc)
        s = np.stack([(-b - sq) / (2 * a),
                      np.where(quadratic, (-b + sq) / (2 * a), -c / b)])
    ok = np.stack([real, real | linear]) & (0.0 < s) & (s < 1.0)
    t = (t0 + s * h)[ok]
    candidates = [np.array([t_start, t_end]), t[(t_start <= t) & (t <= t_end)]]
    vals = traj.hermite_at(np.concatenate(candidates))
    return vals.min(axis=0), vals.max(axis=0)


def classify(J: float, delta: float) -> BifurcationRecord:
    """Classify the flow at (J, delta) from the closed-form spectrum.

    Rules (eps = 1e-9 on real parts): all negative -> stable-point; real
    eigenvalue positive (J < -1) -> bistable with the diagonal pair from
    :func:`fixed_point_branch`; complex-pair real part positive with
    nonzero rotation (J > 2, delta != 1/2) -> oscillatory, with orbit
    extrema measured after the burn-in window; anything on the margin
    (including delta = 1/2 beyond the Hopf point) -> degenerate.
    """
    if not (0.0 <= delta <= 1.0):
        raise ValueError("delta must lie in [0, 1]")
    eigenvalues = _closed_form_eigenvalues(J, delta)
    spectrum = Spectrum(eigenvalues)
    lam1 = eigenvalues[0].real
    pair_re, pair_im = eigenvalues[1].real, eigenvalues[1].imag
    eps = EIGENVALUE_EPS
    symmetric = (0.5, 0.5, 0.5)

    if lam1 < -eps and pair_re < -eps:
        return BifurcationRecord(J, delta, spectrum, "stable-point", (symmetric,))
    if lam1 > eps:
        ys = fixed_point_branch(J)
        points = tuple(tuple(0.5 + y for _ in range(3)) for y in ys)
        return BifurcationRecord(J, delta, spectrum, "bistable", points)
    if pair_re > eps and pair_im != 0.0:
        spec = LoopSpec.with_half_j(J=J, delta=delta, N=1)
        horizon = ode.BURN_IN_TIME + ode.OBSERVATION_TIME
        traj = ode.integrate(spec, np.array(_ORBIT_X0), horizon)
        omin, omax = orbit_extrema(traj, ode.BURN_IN_TIME, horizon)
        if float(np.max(omax - omin)) <= AMPLITUDE_EPS:
            raise RuntimeError(
                f"eigenvalues report oscillation at J={J}, delta={delta} but the "
                f"orbit amplitude stayed below {AMPLITUDE_EPS}"
            )
        return BifurcationRecord(
            J, delta, spectrum, "oscillatory", (symmetric,),
            orbit_min=tuple(float(v) for v in omin),
            orbit_max=tuple(float(v) for v in omax),
        )
    return BifurcationRecord(J, delta, spectrum, "degenerate", (symmetric,))


def scan(J_grid, delta: float) -> list[BifurcationRecord]:
    """Classify every J in the grid at fixed delta (the diagram dataset)."""
    return [classify(float(J), delta) for J in J_grid]


def rotation_matrix() -> np.ndarray:
    """Orthonormal frame with the cycle diagonal as third axis.

    Columns are (1, 1, -2)/sqrt(6), (-1, 1, 0)/sqrt(2) and the unit
    diagonal; determinant +1.  Coordinates transform as z = R^T y.
    """
    s6 = math.sqrt(6.0)
    s2 = math.sqrt(2.0)
    s3 = math.sqrt(3.0)
    return np.array(
        [
            [1 / s6, -1 / s2, 1 / s3],
            [1 / s6, 1 / s2, 1 / s3],
            [-2 / s6, 0.0, 1 / s3],
        ]
    )


def z_system(J: float, delta: float) -> np.ndarray:
    """Linearization R^T (dF at the symmetric point) R in the rotated frame.

    Closed form [[J-2, w, 0], [-w, J-2, 0], [0, 0, -(2J+2)]] with
    w = sqrt(3)J(2d-1); ``tdsim validate`` checks it against the Jacobian.
    """
    w = math.sqrt(3.0) * J * (2.0 * delta - 1.0)
    return np.array(
        [
            [J - 2.0, w, 0.0],
            [-w, J - 2.0, 0.0],
            [0.0, 0.0, -(2.0 * J + 2.0)],
        ]
    )


def polar_rates(J: float, delta: float) -> tuple[float, float]:
    """(radial, angular) rates of the planar linearization in polar form.

    dr/dt = r (J - 2) and dtheta/dt = -sqrt(3) J (2 delta - 1); at J = 2 the
    radius is conserved and the rotation direction flips across delta = 1/2.
    """
    return J - 2.0, -math.sqrt(3.0) * J * (2.0 * delta - 1.0)


@dataclass(frozen=True)
class ConvergenceRow:
    N: int
    median: float
    q25: float
    q75: float


@dataclass(frozen=True)
class ConvergenceResult:
    """Sup-distance statistics per reservoir size, plus the log-log slope."""

    rows: tuple[ConvergenceRow, ...]
    slope: float | None

    def medians(self) -> list[float]:
        return [r.median for r in self.rows]


def convergence_experiment(
    base: LoopSpec,
    N_values,
    x0,
    t: float,
    replicas: int,
    seed: int,
) -> ConvergenceResult:
    """Measure how fast stochastic paths approach the deterministic one.

    For each reservoir size N, ``replicas`` independent paths start from the
    grid point nearest x0 and their sup-distance to the
    :data:`REFERENCE_RTOL`-accurate ODE solution on [0, t] is summarized by
    median and quartiles; whether the medians decrease in N is for the caller
    to judge.  Their log-log slope is None unless two or more medians are all
    positive.  Replica seeds derive from (seed, N index, replica index).
    Each replica's sup-distance comes from :func:`tdsim.jump.ssa_sup_distance`,
    which stores no path.
    """
    if replicas < 0:
        raise ValueError("replicas must be non-negative")
    x0 = np.asarray(x0, dtype=float)
    N_values = [int(v) for v in N_values]
    if replicas == 0 or len(N_values) == 0:
        return ConvergenceResult(rows=(), slope=None)
    settings = ode.IntegratorSettings(method="rk45", rtol=REFERENCE_RTOL, atol=1e-10,
                                      sample_dt=REFERENCE_SAMPLE_DT)
    reference = ode.integrate(replace(base, N=max(N_values)), x0, t, settings)
    rows = []
    for p, N in enumerate(N_values):
        spec = replace(base, N=int(N))
        grid_x0 = DensityState.nearest(x0, N)
        sups = [jump.ssa_sup_distance(spec, grid_x0, reference, t, jump.derive_seed(seed, p, r))
                for r in range(replicas)]
        q25, med, q75 = np.percentile(sups, [25, 50, 75])
        rows.append(ConvergenceRow(N=int(N), median=float(med), q25=float(q25), q75=float(q75)))
    slope = None
    if len(rows) >= 2 and min(r.median for r in rows) > 0:
        logn = np.log([r.N for r in rows])
        logm = np.log([r.median for r in rows])
        slope = float(np.polyfit(logn, logm, 1)[0])
    return ConvergenceResult(rows=tuple(rows), slope=slope)
