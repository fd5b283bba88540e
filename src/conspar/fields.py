"""Scalar coefficient functions on [0, 1] and the quadrature behind them.

A :class:`CoefficientField` is an immutable real function on the unit
interval: either a formula (an exact evaluator, sampled for reference) or
a table of samples interpolated linearly. All derived weights used by the
solvers are built here:

* ``exponential_weight(psi)``  ->  x |-> exp(int_0^x psi)
* ``fixation_probability(psi)``-> solution of phi'' + psi phi' = 0,
  phi(0) = 0, phi(1) = 1

Quadrature is composite Simpson refined by doubling until successive
estimates agree to 1e-12 relative (or a node cap is reached).

The antiderivatives behind the derived weights are interpolated by a
not-a-knot cubic spline that does the arithmetic of scipy's
``CubicSpline`` without importing it (the import cost more than a run);
its values and first derivatives are bit-identical to CubicSpline's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DomainBoundsError,
    InputError,
    InternalError,
    QuadratureError,
)
from .expressions import parse_expression

DEFAULT_SAMPLES = 401
_QUAD_RTOL = 1e-12
_QUAD_MAX_NODES = 2**20
_CENTRAL_STEP = 1e-6  # interior difference step for formula fields
_ONE_SIDED_STEP = 2.0**-20  # endpoint difference step for formula fields


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """A real function on [0, 1]: the formula ``exact_fn`` when given,
    else linear interpolation of the samples.

    ``xs`` are strictly increasing sample abscissae with ``xs[0] == 0``
    and ``xs[-1] == 1``; evaluation at a sample abscissa reproduces the
    stored value. Fields are immutable after construction and safe to
    share between threads. ``name`` is the expression or formula name
    that messages cite (empty for tables).
    """

    xs: np.ndarray
    values: np.ndarray
    name: str = ""
    exact_fn: Optional[Callable] = None
    exact_derivative: Optional[Callable] = None
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        xs = np.asarray(self.xs, dtype=float)
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "values", values)
        if xs.ndim != 1 or xs.size < 2 or values.shape != xs.shape:
            raise InputError("field needs matching 1-D xs and values, >= 2 samples")
        if np.any(np.diff(xs) <= 0):
            raise InputError("sample abscissae must be strictly increasing")
        if xs[0] != 0.0 or xs[-1] != 1.0:
            raise InputError("sample abscissae must start at 0 and end at 1")

    def __call__(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xa = np.asarray(x, dtype=float)
        if np.any(xa < -1e-12) or np.any(xa > 1 + 1e-12):
            raise DomainBoundsError("evaluation outside [0, 1]")
        xa = np.clip(xa, 0.0, 1.0)
        if self.exact_fn is not None:
            out = np.asarray(self.exact_fn(xa), dtype=float) + np.zeros(xa.shape)
        else:
            out = np.interp(xa, self.xs, self.values)
        return float(out) if scalar else out

    def derivative(self, x):
        """d/dx of the field; second-order one-sided differences at the
        endpoints for formula fields without a derivative and for
        tabulated-linear data."""
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xa = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        if self.exact_derivative is not None:
            out = np.asarray(self.exact_derivative(xa), dtype=float)
            out = out + np.zeros(xa.shape)
        elif self.exact_fn is not None:
            out = self._difference_derivative(xa)
        else:
            out = self._linear_derivative(xa)
        return float(out) if scalar else out

    def _difference_derivative(self, xa):
        """Central difference of the exact formula; within one step of an
        end, where it would leave [0, 1], the second-order one-sided
        3-point difference instead. The one-sided step is a power of two,
        so its nodes are exact at the ends and quadratics differentiate
        exactly there."""

        def f(x):
            return np.asarray(self.exact_fn(x), dtype=float) + np.zeros(x.shape)

        x = np.atleast_1d(xa)
        out = np.empty(x.shape)
        left = x < _CENTRAL_STEP
        mid = ~left & (x <= 1.0 - _CENTRAL_STEP)
        if np.any(mid):
            lo, hi = x[mid] - _CENTRAL_STEP, x[mid] + _CENTRAL_STEP
            out[mid] = (f(hi) - f(lo)) / (hi - lo)
        end = ~mid
        if np.any(end):
            xe = x[end]
            e = np.where(left[end], _ONE_SIDED_STEP, -_ONE_SIDED_STEP)  # inwards
            out[end] = (-3 * f(xe) + 4 * f(xe + e) - f(xe + 2 * e)) / (2 * e)
        return out.reshape(xa.shape)

    def _linear_derivative(self, xa):
        xs, v = self.xs, self.values
        idx = np.clip(np.searchsorted(xs, xa, side="right") - 1, 0, xs.size - 2)
        slope = (v[idx + 1] - v[idx]) / (xs[idx + 1] - xs[idx])
        out = np.asarray(slope, dtype=float) + np.zeros(xa.shape)
        # 3-point one-sided stencils at the endpoints, second order
        if xs.size >= 3:
            h0, h1 = xs[1] - xs[0], xs[2] - xs[0]
            left = (
                v[0] * (h0 + h1) / (h0 * h1) * -1
                + v[1] * h1 / (h0 * (h1 - h0))
                - v[2] * h0 / (h1 * (h1 - h0))
            )
            g0, g1 = xs[-1] - xs[-2], xs[-1] - xs[-3]
            right = (
                v[-1] * (g0 + g1) / (g0 * g1)
                - v[-2] * g1 / (g0 * (g1 - g0))
                + v[-3] * g0 / (g1 * (g1 - g0))
            )
            out = np.where(xa <= xs[0], left, out)
            out = np.where(xa >= xs[-1], right, out)
        return out

    def min_sample(self) -> float:
        return float(np.min(self.values))

    def max_sample(self) -> float:
        return float(np.max(self.values))

    @property
    def continuous_tier(self) -> bool:
        """True when the field qualifies as a continuous coefficient: it is
        a formula (expression- or callable-backed), not a table."""
        return self.exact_fn is not None


def _name(f: CoefficientField) -> str:
    """A field's name for messages: its expression or formula name."""
    return f.name or "a tabulated field"


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), at least 4 nodes, doing the
    arithmetic of scipy's ``CubicSpline`` without importing it.

    The slopes solve CubicSpline's tridiagonal system; the pieces carry
    CubicHermiteSpline's coefficients, and a value or first derivative is
    summed in PPoly's term order, so both are bit-identical to
    CubicSpline's. The end pieces extrapolate. ``what`` names the data in
    the error raised for non-finite values.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, what: str):
        if not np.all(np.isfinite(y)):
            raise QuadratureError(f"no cubic spline through {what}: non-finite values")
        # imported here, not at the top: oracle imports this module and
        # needs no scipy
        import scipy.linalg

        n = x.size
        dx = np.diff(x)
        slope = np.diff(y) / dx
        A = np.zeros((3, n))  # banded: upper, main and lower diagonals
        b = np.empty(n)
        A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
        A[0, 2:] = dx[:-1]
        A[-1, :-2] = dx[1:]
        b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        A[1, 0], A[0, 1] = dx[1], d
        b[0] = ((dx[0] + 2 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        A[1, -1], A[-1, -2] = dx[-2], d
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        s = scipy.linalg.solve_banded(
            (1, 1), A, b, overwrite_ab=True, overwrite_b=True, check_finite=False
        )
        t = (s[:-1] + s[1:] - 2 * slope) / dx
        self.x = x
        # per piece, the coefficients of s^3, s^2, s and 1 in s = x - x_i
        self.coefficients = np.stack((t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]))

    def __call__(self, x, nu: int = 0):
        """The value (``nu`` = 0) or the first derivative (``nu`` = 1)."""
        x = np.asarray(x, dtype=float)
        # the piece i with x_i <= x < x_(i+1), the last piece closed
        i = np.searchsorted(self.x[1:-1], x, side="right")
        s = x - self.x[i]
        s2 = s * s
        a, b, c, d = self.coefficients.take(i, axis=1)
        if nu == 0:
            return (0.0 + d) + c * s + b * s2 + a * (s2 * s)
        return (0.0 + c) + (b * s) * 2.0 + (a * s2) * 3.0


def field_from_table(xs: Sequence[float], values: Sequence[float]) -> CoefficientField:
    """Build a field from user-supplied samples, interpolated linearly so
    rough data does not oscillate; every sample must be finite."""
    xs, values = np.asarray(xs, dtype=float), np.asarray(values, dtype=float)
    if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(values))):
        raise InputError("table samples must be finite numbers")
    return CoefficientField(xs=xs, values=values)


def field_from_callable(
    fn: Callable,
    name: str,
    n: int = DEFAULT_SAMPLES,
    derivative: Optional[Callable] = None,
) -> CoefficientField:
    """Wrap an exact formula as a field, sampled at ``n`` uniform points
    (the samples give the field's grid and its min and max)."""
    xs = np.linspace(0.0, 1.0, n)
    with np.errstate(all="ignore"):
        values = np.asarray(fn(xs), dtype=float) + np.zeros(n)
    return CoefficientField(
        xs=xs,
        values=values,
        name=name,
        exact_fn=fn,
        exact_derivative=derivative,
    )


def field_from_expression(text: str) -> CoefficientField:
    """Parse an expression in x and sample it on a uniform grid."""
    expr = parse_expression(text)
    xs = np.linspace(0.0, 1.0, DEFAULT_SAMPLES)
    values = expr(xs)
    return CoefficientField(
        xs=xs,
        values=values,
        name=text,
        exact_fn=expr,
    )


def constant_field(c: float) -> CoefficientField:
    c = float(c)
    return field_from_callable(
        lambda x: np.full(np.shape(x), c),
        repr(c),
        derivative=lambda x: np.zeros(np.shape(x)),
    )


# ----------------------------------------------------------------------
# Quadrature


def _simpson_weights(k: int) -> np.ndarray:
    w = np.ones(k + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _cell_integrals(fn: Callable, nodes: np.ndarray):
    """Simpson integral of ``fn`` over each cell of ``nodes``, all cells
    refined together by doubling until every cell converges to
    ``_QUAD_RTOL`` relative to its own magnitude."""
    widths = np.diff(nodes)
    k = 2
    prev = None
    while True:
        t = np.linspace(0.0, 1.0, k + 1)
        pts = nodes[:-1, None] + widths[:, None] * t[None, :]
        vals = np.asarray(fn(pts.ravel()), dtype=float).reshape(pts.shape)
        cells = vals @ _simpson_weights(k) * (widths / k)
        if not np.all(np.isfinite(cells)):
            return cells  # a non-finite node stays one under refinement
        if prev is not None:
            floor = 1e-15 * max(1.0, float(np.abs(cells).sum()))
            if np.all(np.abs(cells - prev) <= _QUAD_RTOL * np.abs(cells) + floor):
                return cells
        if (nodes.size - 1) * k >= _QUAD_MAX_NODES:
            return cells
        prev = cells
        k *= 2


def cumulative_trapezoid(y, x) -> np.ndarray:
    """Running trapezoid integral of samples ``y`` over nodes ``x``,
    starting from 0 at ``x[0]``."""
    y = np.asarray(y, dtype=float)
    out = np.zeros_like(y)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _antiderivative_callable(
    fn: Callable, nodes: np.ndarray, what: str = "the integrand"
) -> Callable:
    """Smooth interpolant of x |-> int_0^x fn, accurate to quadrature
    tolerance on nodes refined 8-fold (at least ~1000 cells regardless of
    the source grid, so coarse fields do not degrade derived weights).

    Raises QuadratureError, naming ``what`` the integrand is, when the
    antiderivative overflows or is undefined."""
    refine = max(8, int(np.ceil(1024 / (nodes.size - 1))))
    fine = np.linspace(0.0, 1.0, (nodes.size - 1) * refine + 1)
    cells = _cell_integrals(fn, fine)
    table = np.concatenate([[0.0], np.cumsum(cells)])
    return _CubicSpline(fine, table, f"the antiderivative of {what}")


def _drift_antiderivative(psi: CoefficientField) -> Callable:
    """x |-> int_0^x psi, built once per field and shared by the weights
    derived from it."""
    if "drift_antider" not in psi._cache:
        what = f"psi = {_name(psi)}"
        psi._cache["drift_antider"] = _antiderivative_callable(psi, psi.xs, what=what)
    return psi._cache["drift_antider"]


# ----------------------------------------------------------------------
# Derived weights


def exponential_weight(psi: CoefficientField) -> CoefficientField:
    """The strictly positive weight x |-> exp(int_0^x psi)."""
    anti = _drift_antiderivative(psi)
    fn = lambda x: np.exp(anti(x))  # noqa: E731
    deriv = lambda x: np.asarray(psi(x)) * np.exp(anti(x))  # noqa: E731
    out = field_from_callable(fn, "exp_integral", n=psi.xs.size, derivative=deriv)
    if out.min_sample() <= 0:
        raise InternalError("exponential weight not positive")
    return out


def fixation_probability(psi: CoefficientField) -> CoefficientField:
    """Solution of phi'' + psi phi' = 0 with phi(0) = 0, phi(1) = 1.

    Computed from the explicit form
    phi(x) = int_0^x exp(-int_0^y psi) dy / int_0^1 exp(-int_0^y psi) dy,
    so it is nondecreasing and pinned to the endpoints by construction.
    """
    name = _name(psi)
    anti_psi = _drift_antiderivative(psi)
    integrand = lambda y: np.exp(-anti_psi(y))  # noqa: E731
    numer = _antiderivative_callable(
        integrand, psi.xs, what=f"exp(-int_0^y psi) for psi = {name}"
    )
    z = float(numer(1.0))
    if not np.isfinite(z) or z <= 0:
        raise InternalError("degenerate normalizing integral in fixation solve")
    fn = lambda x: numer(x) / z  # noqa: E731
    deriv = lambda x: integrand(x) / z  # noqa: E731
    return field_from_callable(fn, "fixation", n=psi.xs.size, derivative=deriv)

