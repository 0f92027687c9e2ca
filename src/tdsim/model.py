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
field and its Jacobian) is built from these two expressions.  The fluid
limit takes continuous densities and computes the exponent, with the
constants of :func:`exponent_terms`.  The sampler lives on the count grid,
where the exponential splits into one factor per count
(:func:`rate_factors`): a count gives the same four factors to both rates
that read it, so the scalar loops take four exponentials per event and the
windows four per count value they visit, not two per rate.  Every
exponential is a ``math.exp``: the numpy rates take theirs from
:func:`_exact_exps`, the windows from :func:`count_factors`, and the scalar
fields and loops call it directly, so no rate bit follows numpy's exp
kernel.
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


@dataclass(frozen=True)
class DensityState:
    """Vector of per-type activation densities.

    ``grid`` is the reservoir size N such that every density is a multiple
    of 1/N, or None for continuum states (ODE use).  A density v is on the
    grid when ``c / N == v`` for a count c, which holds exactly up to
    N = 2^53, or when ``v * N`` lies within 1e-9 of a count.
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
                if _grid_count(v, self.grid) is None:
                    raise ValueError(f"density {v} is not a multiple of 1/{self.grid}")
        object.__setattr__(self, "x", x)

    @classmethod
    def from_counts(cls, counts, N: int) -> "DensityState":
        return cls(tuple(c / N for c in counts), grid=N)

    @classmethod
    def nearest(cls, x, N: int) -> "DensityState":
        """The state on the 1/N grid nearest the densities x."""
        return cls.from_counts([int(round(v * N)) for v in x], N)

    @property
    def counts(self) -> tuple[int, ...]:
        if self.grid is None:
            raise ValueError("continuum state has no counts")
        return tuple(_grid_count(v, self.grid) for v in self.x)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.x, dtype=float)


def _grid_count(v: float, N: int) -> int | None:
    """The count c with ``c / N == v``, else the count within 1e-9 of
    ``v * N``, else None.  Up to N = 2^53, ``c / N * N`` rounds to within 2
    of c, so c is searched there."""
    nearest = round(v * N)
    for c in (nearest, nearest - 1, nearest + 1, nearest - 2, nearest + 2):
        if c / N == v:
            return c
    return nearest if abs(v * N - nearest) <= 1e-9 else None


def _as_density_array(x) -> np.ndarray:
    if isinstance(x, DensityState):
        return x.as_array()
    return np.asarray(x, dtype=float)


def exponent_terms(spec: LoopSpec):
    """(dJ, hJ, types) = (delta J, (1 - delta) J, ((a(i), h(i), kappa_i), ...)):
    type i's exponent at densities y is ``2.0 * (-dJ * y[a] - hJ * y[h] +
    kappa_i)``, as every fluid-limit field and numpy rate computes it.  The
    sampler loops take the same constants in factor form, from
    :func:`rate_factors`."""
    types = tuple((spec.anticlockwise(i), spec.clockwise(i), kap)
                  for i, kap in enumerate(spec.kappa))
    return spec.delta * spec.J, (1.0 - spec.delta) * spec.J, types


def rate_factors(spec: LoopSpec):
    """(cA, cH, types) = (-2 dJ, -2 hJ, ((a(i), h(i), e^{2 kappa_i},
    e^{-2 kappa_i}), ...)) with dJ, hJ from :func:`exponent_terms`: the
    sampler's jump intensities in factor form.

    With counts n and y = n * (1 / N), type i jumps up at rate
    ``(N - n_i) * ((exp(2 kappa_i) * exp(cA * y_a)) * exp(cH * y_h))`` and
    down at rate ``n_i * ((exp(-2 kappa_i) * exp(-cA * y_a)) * exp(-cH *
    y_h))``, with the products taken in that order; every sampler loop
    computes them so.  Each factor reads one count, so a count's four
    factors (:func:`count_factors`) serve both rates that read it.  The
    rates are N times :func:`channel_rates` at x = n / N, rounded
    differently.
    """
    dJ, hJ, types = exponent_terms(spec)
    return -2.0 * dJ, -2.0 * hJ, tuple((a, h, math.exp(2.0 * kap), math.exp(-2.0 * kap))
                                       for a, h, kap in types)


def count_factors(cA: float, cH: float, y: np.ndarray) -> list[np.ndarray]:
    """The four factor arrays ``exp(cA * y), exp(-cA * y), exp(cH * y),
    exp(-cH * y)`` of the density array y, one ``math.exp`` per value, each
    result going straight into its array; for y in [0, 1] none overflows,
    since |cA| + |cH| = 2 |J| <= :data:`MAX_EXPONENT`."""
    return [np.fromiter(map(math.exp, (c * y).tolist()), float, len(y))
            for c in (cA, -cA, cH, -cH)]


def _exponents(spec: LoopSpec, x: np.ndarray) -> np.ndarray:
    """Log of rate_up for every type, from :func:`exponent_terms`.

    Types run along the last axis, so a batch of states gives a batch of
    exponents.
    """
    dJ, hJ, types = exponent_terms(spec)
    a, h, kappa = (list(col) for col in zip(*types))
    return 2.0 * (-dJ * x[..., a] - hJ * x[..., h] + np.array(kappa))


def _inf_exp(v):
    # Adaptive integrators probe trial states far outside [0,1]^k;
    # degrade to inf, as numpy's exp does, instead of raising.
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def _exact_exps(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(exp(x), exp(-x)) for an exponent array, the only exponential of the
    numpy rates of continuous densities (:func:`channel_rates`,
    :func:`jacobian`, the micro rates).  ``math.exp`` is called once per
    distinct value, so every bit is that of :func:`field_closure` and none
    follows numpy's exp kernel (which differs by an ulp on some inputs);
    where it overflows, the value degrades to inf."""
    values, where = np.unique(x, return_inverse=True)
    values = values.tolist()
    grow = [_inf_exp(v) for v in values]
    shrink = [_inf_exp(-v) for v in values]
    where = where.reshape(x.shape)
    return np.take(np.array(grow), where), np.take(np.array(shrink), where)


def channel_rates(spec: LoopSpec, x) -> np.ndarray:
    """Jump intensities beta_l(x) for all 2k directions, ordered
    (+e_0, -e_0, +e_1, ...).

    beta is (1 - x_i) e^{E_i} for an upward jump of type i and x_i e^{-E_i}
    for a downward one, with both exponentials from :func:`_exact_exps`;
    the process performs the jump x -> x +/- e_i/N at rate N * beta.
    Boundary jumps get rate 0 through the (1 - x_i) or x_i factor, so
    positive-rate jumps always stay inside [0, 1]^k.  Types run along the
    last axis, so a batch of states gives a batch of rates.
    """
    xv = _as_density_array(x)
    grow, shrink = _exact_exps(_exponents(spec, xv))
    out = np.empty(grow.shape[:-1] + (2 * spec.k,))
    out[..., 0::2] = (1.0 - xv) * grow
    out[..., 1::2] = xv * shrink
    return out


def vector_field(spec: LoopSpec, x) -> np.ndarray:
    """Drift F(x) of the density process, the fluid-limit right-hand side.

    F_i(x) = (1 - x_i) e^{E_i} - x_i e^{-E_i} with E_i the rate exponent of
    type i: the upward minus the downward :func:`channel_rates` of each
    type.  Defined for any finite x (the integrator may probe slightly
    outside [0, 1]^k).
    """
    rates = channel_rates(spec, x)
    return rates[..., 0::2] - rates[..., 1::2]


def field_closure(spec: LoopSpec):
    """Fast callable y -> F(y) for integrators, on Python floats.

    Same formula and operation order as :func:`vector_field`, with one
    ``math.exp`` per exponential, so no bit follows numpy's exp kernel;
    where that overflows, the exponentials are recomputed degrading to inf
    like numpy.  k = 3 takes an unrolled field on a 3-sequence returning a
    tuple; other k return a list.
    """
    dJ, hJ, types = exponent_terms(spec)
    if spec.k != 3:
        def terms_k(y, exp):
            out = []
            for i, (a, h, kap) in enumerate(types):
                e = 2.0 * (-dJ * y[a] - hJ * y[h] + kap)
                out.append((1.0 - y[i]) * exp(e) - y[i] * exp(-e))
            return out

        def field_k(y):
            try:
                return terms_k(y, math.exp)
            except OverflowError:
                return terms_k(y, _inf_exp)

        return field_k
    dJ, hJ = -dJ, -hJ
    (_, _, k0), (_, _, k1), (_, _, k2) = types
    fast_exp = math.exp

    def field3(y):
        y0, y1, y2 = y[0], y[1], y[2]
        e0 = 2.0 * (dJ * y2 + hJ * y1 + k0)
        e1 = 2.0 * (dJ * y0 + hJ * y2 + k1)
        e2 = 2.0 * (dJ * y1 + hJ * y0 + k2)
        # math.exp raises only where _inf_exp gives inf, so the retry keeps
        # every bit while the common case skips six wrapper calls.
        try:
            p0, m0, p1 = fast_exp(e0), fast_exp(-e0), fast_exp(e1)
            m1, p2, m2 = fast_exp(-e1), fast_exp(e2), fast_exp(-e2)
        except OverflowError:
            p0, m0, p1 = _inf_exp(e0), _inf_exp(-e0), _inf_exp(e1)
            m1, p2, m2 = _inf_exp(-e1), _inf_exp(e2), _inf_exp(-e2)
        return (
            (1.0 - y0) * p0 - y0 * m0,
            (1.0 - y1) * p1 - y1 * m1,
            (1.0 - y2) * p2 - y2 * m2,
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
    dJ, hJ, types = exponent_terms(spec)
    up, down = _exact_exps(_exponents(spec, xv))
    jac = np.zeros((k, k))
    jac[np.arange(k), np.arange(k)] = -(up + down)
    outer = (1.0 - xv) * up + xv * down
    for i, (a, h, _) in enumerate(types):
        jac[i, a] += -2.0 * dJ * outer[i]
        jac[i, h] += -2.0 * hJ * outer[i]
    return jac
