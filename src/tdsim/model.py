"""Parameterization and rate functions of the cyclic feedback-loop spin model.

The model has k molecular species ("types") arranged on a cycle.  Each type
owns a reservoir of N binary sites; the fraction of active (+1) sites of type
i is its density x_i.  A site of type i activates or deactivates at a rate
set by the densities of its two neighbours on the cycle, with the coupling J
split between the anticlockwise neighbour (weight delta) and the clockwise
neighbour (weight 1 - delta), plus a per-type field kappa_i:

    rate_up   = exp(+2 [ -delta*J*x_a - (1-delta)*J*x_h + kappa_i ])
    rate_down = exp(-2 [ -delta*J*x_a - (1-delta)*J*x_h + kappa_i ])

Everything downstream (the density jump process, the fluid-limit vector
field and its Jacobian) is built from these two expressions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "LoopSpec",
    "DensityState",
    "channel_rates",
    "vector_field",
    "jacobian",
]

# Largest exponent magnitude accepted in the rate functions; exp() of
# anything beyond this is outside double range.
MAX_EXPONENT = 700.0


@dataclass(frozen=True)
class LoopSpec:
    """Parameters of a k-type feedback cycle.

    Attributes:
        J: coupling strength (J > 0 inhibition cycle, J < 0 activation).
        delta: asymmetry weight in [0, 1] splitting J between the two
            cycle neighbours (delta on the anticlockwise one).
        kappa: per-type external field, length k.
        N: reservoir capacity (sites per type).
        k: number of types on the cycle (k = 3 names them A, B, C).
    """

    J: float
    delta: float
    kappa: tuple[float, ...]
    N: int
    k: int = 3

    def __post_init__(self):
        if not isinstance(self.k, int) or self.k < 2:
            raise ValueError(f"k must be an integer >= 2, got {self.k!r}")
        if not isinstance(self.N, int) or self.N < 1:
            raise ValueError(f"N must be an integer >= 1, got {self.N!r}")
        if not math.isfinite(self.J):
            raise ValueError("J must be finite")
        if not (0.0 <= self.delta <= 1.0):
            raise ValueError(f"delta must lie in [0, 1], got {self.delta!r}")
        kappa = tuple(float(v) for v in np.atleast_1d(self.kappa))
        if len(kappa) == 1 and self.k > 1:
            kappa = kappa * self.k
        if len(kappa) != self.k:
            raise ValueError(f"kappa must have length k={self.k}, got {len(kappa)}")
        if not all(math.isfinite(v) for v in kappa):
            raise ValueError("kappa entries must be finite")
        # Worst-case exponent over x in [0,1]^k; beyond double range is a
        # parameter error, not a runtime surprise.
        worst = 2.0 * (abs(self.J) + max(abs(v) for v in kappa))
        if worst > MAX_EXPONENT:
            raise ValueError(
                f"parameters give rate exponents up to {worst:.3g} > {MAX_EXPONENT:g}"
            )
        object.__setattr__(self, "kappa", kappa)

    @classmethod
    def with_half_j(cls, J: float, delta: float, N: int, k: int = 3) -> "LoopSpec":
        """Spec with kappa_i = J/2, the field that pins the symmetric fixed
        point at density 1/2 for every type."""
        return cls(J=J, delta=delta, kappa=(J / 2.0,) * k, N=N, k=k)

    def clockwise(self, i: int) -> int:
        """Clockwise neighbour h(i) on the cycle."""
        return (i + 1) % self.k

    def anticlockwise(self, i: int) -> int:
        """Anticlockwise neighbour a(i) on the cycle."""
        return (i - 1) % self.k

    @property
    def neighbour_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """(anticlockwise, clockwise) index arrays for all k types."""
        idx = np.arange(self.k)
        return (idx - 1) % self.k, (idx + 1) % self.k


@dataclass(frozen=True)
class DensityState:
    """Vector of per-type activation densities.

    ``grid`` is the reservoir size N such that every density is a multiple
    of 1/N, or None for continuum states (ODE use).
    """

    x: tuple[float, ...]
    grid: int | None = None

    def __post_init__(self):
        x = tuple(float(v) for v in np.atleast_1d(self.x))
        if any(not math.isfinite(v) for v in x):
            raise ValueError("densities must be finite")
        if any(v < 0.0 or v > 1.0 for v in x):
            raise ValueError(f"densities must lie in [0, 1], got {x}")
        if self.grid is not None:
            if not isinstance(self.grid, int) or self.grid < 1:
                raise ValueError(f"grid must be a positive integer, got {self.grid!r}")
            for v in x:
                if abs(v * self.grid - round(v * self.grid)) > 1e-9:
                    raise ValueError(f"density {v} is not a multiple of 1/{self.grid}")
        object.__setattr__(self, "x", x)

    @classmethod
    def from_counts(cls, counts, N: int) -> "DensityState":
        return cls(tuple(c / N for c in counts), grid=N)

    @property
    def counts(self) -> tuple[int, ...]:
        if self.grid is None:
            raise ValueError("continuum state has no counts")
        return tuple(int(round(v * self.grid)) for v in self.x)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.x, dtype=float)


def _as_density_array(x) -> np.ndarray:
    if isinstance(x, DensityState):
        return x.as_array()
    return np.asarray(x, dtype=float)


def _exponents(spec: LoopSpec, x: np.ndarray) -> np.ndarray:
    """Log of rate_up for every type: 2[-dJ*x_a - (1-d)J*x_h + kappa].

    Types run along the last axis, so a batch of states gives a batch of
    exponents.
    """
    a_idx, h_idx = spec.neighbour_indices
    kappa = np.asarray(spec.kappa)
    return 2.0 * (-spec.delta * spec.J * x[..., a_idx]
                  - (1.0 - spec.delta) * spec.J * x[..., h_idx]
                  + kappa)


def channel_rates(spec: LoopSpec, x) -> np.ndarray:
    """Jump intensities beta_l(x) for all 2k directions, ordered
    (+e_0, -e_0, +e_1, ...).

    beta is (1 - x_i) e^{E_i} for an upward jump of type i and x_i e^{-E_i}
    for a downward one; the process performs the jump x -> x +/- e_i/N at
    rate N * beta.  Boundary jumps get rate 0 through the (1 - x_i) or x_i
    factor, so positive-rate jumps always stay inside [0, 1]^k.
    """
    xv = _as_density_array(x)
    e = _exponents(spec, xv)
    out = np.empty(2 * spec.k)
    for i in range(spec.k):
        out[2 * i] = (1.0 - xv[i]) * math.exp(e[i])
        out[2 * i + 1] = xv[i] * math.exp(-e[i])
    return out


def vector_field(spec: LoopSpec, x) -> np.ndarray:
    """Drift F(x) of the density process, the fluid-limit right-hand side.

    F_i(x) = (1 - x_i) e^{E_i} - x_i e^{-E_i} with E_i the rate exponent of
    type i.  Componentwise this equals the sum of l * beta_l(x) over all 2k
    jump directions.  Defined for any finite x (the integrator may probe
    slightly outside [0, 1]^k).
    """
    xv = _as_density_array(x)
    e = _exponents(spec, xv)
    return (1.0 - xv) * np.exp(e) - xv * np.exp(-e)


def field_closure(spec: LoopSpec):
    """Fast callable y -> F(y) for integrators, returning Python floats.

    For k = 3 the field is scalar math returning a tuple; other k return
    ``vector_field(...).tolist()``.  Same formula and operation order as
    :func:`vector_field`.
    """
    if spec.k != 3:
        return lambda y: vector_field(spec, y).tolist()
    dJ = -spec.delta * spec.J
    hJ = -(1.0 - spec.delta) * spec.J
    k0, k1, k2 = spec.kappa

    def exp(v):
        # Adaptive integrators probe trial states far outside [0,1]^k;
        # degrade to inf like the vectorized path instead of raising.
        try:
            return math.exp(v)
        except OverflowError:
            return math.inf

    def field3(y):
        y0, y1, y2 = y[0], y[1], y[2]
        e0 = 2.0 * (dJ * y2 + hJ * y1 + k0)
        e1 = 2.0 * (dJ * y0 + hJ * y2 + k1)
        e2 = 2.0 * (dJ * y1 + hJ * y0 + k2)
        return (
            (1.0 - y0) * exp(e0) - y0 * exp(-e0),
            (1.0 - y1) * exp(e1) - y1 * exp(-e1),
            (1.0 - y2) * exp(e2) - y2 * exp(-e2),
        )

    return field3


def jacobian(spec: LoopSpec, x) -> np.ndarray:
    """Exact k x k Jacobian of the vector field at x.

    dF_i/dx_j = -(e^{E_i} + e^{-E_i}) for j = i, and
    dE_i/dx_j * ((1 - x_i) e^{E_i} + x_i e^{-E_i}) for the cycle neighbours,
    where dE_i/dx_j is -2*delta*J for j = a(i) and -2*(1-delta)*J for
    j = h(i) (summed should both coincide, as happens for k = 2).
    """
    xv = _as_density_array(x)
    k = spec.k
    a_idx, h_idx = spec.neighbour_indices
    e = _exponents(spec, xv)
    up = np.exp(e)
    down = np.exp(-e)
    jac = np.zeros((k, k))
    jac[np.arange(k), np.arange(k)] = -(up + down)
    outer = (1.0 - xv) * up + xv * down
    for i in range(k):
        jac[i, a_idx[i]] += -2.0 * spec.delta * spec.J * outer[i]
        jac[i, h_idx[i]] += -2.0 * (1.0 - spec.delta) * spec.J * outer[i]
    return jac
