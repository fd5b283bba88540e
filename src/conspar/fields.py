"""Scalar coefficient functions on [0, 1] and the quadrature behind them.

A :class:`CoefficientField` is an immutable real function on the unit
interval: tabulated samples plus an interpolation rule, optionally backed
by an exact evaluator (for expression- and formula-defined fields). All
derived weights used by the solvers are built here:

* ``exponential_weight(psi)``  ->  x |-> exp(int_0^x psi)
* ``fixation_probability(psi)``-> solution of phi'' + psi phi' = 0,
  phi(0) = 0, phi(1) = 1
* ``integrating_factor(a, b)`` ->  x |-> exp(int_0^x b/a)
* ``sis_coefficients(R0)``     -> the coefficient family of the SIS
  epidemic diffusion model

Quadrature is composite Simpson refined by doubling until successive
estimates agree to 1e-10 relative (or a node cap is reached).

Cubic-tier tables and the antiderivatives behind the derived weights are
interpolated by a not-a-knot cubic spline that does the arithmetic of
scipy's ``CubicSpline`` without importing it (the import cost more than a
run); its values and first derivatives are bit-identical to
CubicSpline's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (
    DegeneracyError,
    DomainBoundsError,
    InputError,
    InternalError,
    ParameterError,
    QuadratureError,
)
from .expressions import parse_expression

DEFAULT_SAMPLES = 401
_QUAD_RTOL = 1e-12
_QUAD_MAX_NODES = 2**20
_ONE_SIDED_STEP = 2.0**-20  # endpoint difference step for formula fields


@dataclass(frozen=True)
class SourceInfo:
    """Provenance of a field: user table, named formula, or expression."""

    kind: str  # "table" | "builtin" | "expression"
    name: str = ""
    params: tuple = ()


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """A real function on [0, 1].

    ``xs`` are strictly increasing sample abscissae with ``xs[0] == 0``
    and ``xs[-1] == 1``; evaluation at a sample abscissa reproduces the
    stored value. Fields are immutable after construction and safe to
    share between threads.
    """

    xs: np.ndarray
    values: np.ndarray
    interpolation: str  # "linear" | "cubic"
    source: SourceInfo
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
        if self.interpolation not in ("linear", "cubic"):
            raise InputError(f"unknown interpolation {self.interpolation!r}")

    def _interpolant(self):
        if "spline" not in self._cache:
            what = f"the samples of {_name(self)}"
            self._cache["spline"] = _CubicSpline(self.xs, self.values, what)
        return self._cache["spline"]

    def __call__(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xa = np.asarray(x, dtype=float)
        if np.any(xa < -1e-12) or np.any(xa > 1 + 1e-12):
            raise DomainBoundsError("evaluation outside [0, 1]")
        xa = np.clip(xa, 0.0, 1.0)
        if self.exact_fn is not None:
            out = np.asarray(self.exact_fn(xa), dtype=float) + np.zeros(xa.shape)
        elif self.interpolation == "cubic":
            out = self._interpolant()(xa)
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
        elif self.interpolation == "cubic":
            out = self._interpolant()(xa, 1)
        else:
            out = self._linear_derivative(xa)
        return float(out) if scalar else out

    def _difference_derivative(self, xa, h=1e-6):
        """Central difference of the exact formula; within one step of an
        end, where it would leave [0, 1], the second-order one-sided
        3-point difference instead. The one-sided step is a power of two,
        so its nodes are exact at the ends and quadratics differentiate
        exactly there."""

        def f(x):
            return np.asarray(self.exact_fn(x), dtype=float) + np.zeros(x.shape)

        x = np.atleast_1d(xa)
        out = np.empty(x.shape)
        left = x < h
        mid = ~left & (x <= 1.0 - h)
        if np.any(mid):
            lo, hi = x[mid] - h, x[mid] + h
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
        """True when the field qualifies as a continuous coefficient
        (cubic interpolation or exact formula backing)."""
        return self.interpolation == "cubic" or self.source.kind in (
            "builtin",
            "expression",
        )


def _name(f: CoefficientField) -> str:
    """A field's name for messages: its expression or formula name."""
    return f.source.name or "a tabulated field"


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), doing the arithmetic of
    scipy's ``CubicSpline`` without importing it.

    The slopes solve CubicSpline's tridiagonal system (a straight line for
    two nodes, its parabola system for three); the pieces carry
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
        if n == 3:
            A = np.zeros((3, 3))
            A[0, :2] = A[2, 1:] = 1
            A[1] = dx[1], 2 * (dx[0] + dx[1]), dx[0]
            b = np.array([2 * slope[0], 3 * (dx[0] * slope[1] + dx[1] * slope[0]), 2 * slope[1]])
            s = scipy.linalg.solve(
                A, b.reshape(3, 1), overwrite_a=True, overwrite_b=True, check_finite=False
            ).reshape(3)
        else:
            A = np.zeros((3, n))  # banded: upper, main and lower diagonals
            b = np.empty(n)
            A[1, 1:-1] = 2 * (dx[:-1] + dx[1:])
            A[0, 2:] = dx[:-1]
            A[-1, :-2] = dx[1:]
            b[1:-1] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
            if n == 2:  # both end slopes are the chord's
                A[1] = 1
                b[:] = slope[0]
            else:
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


def field_from_table(
    xs: Sequence[float], values: Sequence[float], interpolation: str = "linear"
) -> CoefficientField:
    """Build a field from user-supplied samples (linear by default, so
    rough data does not oscillate)."""
    return CoefficientField(
        xs=np.asarray(xs, dtype=float),
        values=np.asarray(values, dtype=float),
        interpolation=interpolation,
        source=SourceInfo(kind="table"),
    )


def field_from_callable(
    fn: Callable,
    name: str,
    params: tuple = (),
    n: int = DEFAULT_SAMPLES,
    derivative: Optional[Callable] = None,
) -> CoefficientField:
    """Wrap an exact formula as a field (interpolation is nominal)."""
    xs = np.linspace(0.0, 1.0, n)
    with np.errstate(all="ignore"):
        values = np.asarray(fn(xs), dtype=float) + np.zeros(n)
    return CoefficientField(
        xs=xs,
        values=values,
        interpolation="cubic",
        source=SourceInfo(kind="builtin", name=name, params=tuple(params)),
        exact_fn=fn,
        exact_derivative=derivative,
    )


def field_from_expression(text: str, n: int = DEFAULT_SAMPLES) -> CoefficientField:
    """Parse an expression in x and sample it on a uniform grid."""
    expr = parse_expression(text)
    xs = np.linspace(0.0, 1.0, n)
    values = expr(xs)
    return CoefficientField(
        xs=xs,
        values=values,
        interpolation="cubic",
        source=SourceInfo(kind="expression", name=text),
        exact_fn=expr,
    )


def constant_field(c: float, n: int = DEFAULT_SAMPLES) -> CoefficientField:
    c = float(c)
    return field_from_callable(
        lambda x: np.full(np.shape(x), c),
        repr(c),
        n=n,
        derivative=lambda x: np.zeros(np.shape(x)),
    )


# ----------------------------------------------------------------------
# Quadrature


def _simpson_weights(k: int) -> np.ndarray:
    w = np.ones(k + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def integrate(fn: Callable, lo: float, hi: float, rtol: float = _QUAD_RTOL) -> float:
    """Composite Simpson on [lo, hi], refined by doubling until successive
    estimates agree to ``rtol`` relative (node cap 2**20): one cell of
    :func:`_cell_integrals`."""
    if hi < lo:
        return -integrate(fn, hi, lo, rtol)
    if hi == lo:
        return 0.0
    return float(_cell_integrals(fn, np.array([lo, hi], dtype=float), rtol)[0])


def _cell_integrals(fn: Callable, nodes: np.ndarray, rtol: float = _QUAD_RTOL):
    """Simpson integral of ``fn`` over each cell of ``nodes``, all cells
    refined together by doubling until every cell converges relative to
    its own magnitude."""
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
            if np.all(np.abs(cells - prev) <= rtol * np.abs(cells) + floor):
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


def _antiderivative_table(f: CoefficientField) -> np.ndarray:
    if "antider" not in f._cache:
        cells = _cell_integrals(f, f.xs)
        f._cache["antider"] = np.concatenate([[0.0], np.cumsum(cells)])
    return f._cache["antider"]


def cumulative_integral(f: CoefficientField, x: float) -> float:
    """int_0^x f, by composite Simpson on the field's sample grid with a
    refined partial cell; error is O(h^4) for smooth fields."""
    x = float(x)
    if x < -1e-12 or x > 1 + 1e-12:
        raise DomainBoundsError("integration endpoint outside [0, 1]")
    x = min(max(x, 0.0), 1.0)
    table = _antiderivative_table(f)
    i = int(np.clip(np.searchsorted(f.xs, x, side="right") - 1, 0, f.xs.size - 2))
    return float(table[i] + integrate(f, float(f.xs[i]), x))


def _antiderivative_callable(
    fn: Callable, nodes: np.ndarray, refine: int = 8, what: str = "the integrand"
) -> Callable:
    """Smooth interpolant of x |-> int_0^x fn, accurate to quadrature
    tolerance on refined nodes (at least ~1000 cells regardless of the
    source grid, so coarse fields do not degrade derived weights).

    Raises QuadratureError, naming ``what`` the integrand is, when the
    antiderivative overflows or is undefined."""
    refine = max(refine, int(np.ceil(1024 / (nodes.size - 1))))
    fine = np.linspace(0.0, 1.0, (nodes.size - 1) * refine + 1)
    cells = _cell_integrals(fn, fine)
    table = np.concatenate([[0.0], np.cumsum(cells)])
    return _CubicSpline(fine, table, f"the antiderivative of {what}")


# ----------------------------------------------------------------------
# Derived weights


def exponential_weight(psi: CoefficientField) -> CoefficientField:
    """The strictly positive weight x |-> exp(int_0^x psi)."""
    anti = _antiderivative_callable(psi, psi.xs, what=f"psi = {_name(psi)}")
    fn = lambda x: np.exp(anti(x))  # noqa: E731
    deriv = lambda x: np.asarray(psi(x)) * np.exp(anti(x))  # noqa: E731
    out = field_from_callable(
        fn, "exp_integral", params=(psi.source,), n=psi.xs.size, derivative=deriv
    )
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
    anti_psi = _antiderivative_callable(psi, psi.xs, what=f"psi = {name}")
    integrand = lambda y: np.exp(-anti_psi(y))  # noqa: E731
    numer = _antiderivative_callable(
        integrand, psi.xs, what=f"exp(-int_0^y psi) for psi = {name}"
    )
    z = float(numer(1.0))
    if not np.isfinite(z) or z <= 0:
        raise InternalError("degenerate normalizing integral in fixation solve")
    fn = lambda x: numer(x) / z  # noqa: E731
    deriv = lambda x: integrand(x) / z  # noqa: E731
    return field_from_callable(
        fn, "fixation", params=(psi.source,), n=psi.xs.size, derivative=deriv
    )


def integrating_factor(a: CoefficientField, b: CoefficientField) -> CoefficientField:
    """exp(int_0^x b/a) for a coefficient ``a`` bounded away from zero."""
    floor = 1e-12 * max(1.0, abs(a.max_sample()))
    if a.min_sample() <= floor:
        raise DegeneracyError(
            "coefficient a is not bounded away from zero; use the degenerate-"
            "boundary solvers instead"
        )
    nodes = a.xs if a.xs.size >= b.xs.size else b.xs
    ratio = lambda x: np.asarray(b(x)) / np.asarray(a(x))  # noqa: E731
    anti = _antiderivative_callable(ratio, nodes, what=f"b/a for a = {_name(a)}, b = {_name(b)}")
    fn = lambda x: np.exp(anti(x))  # noqa: E731
    deriv = lambda x: ratio(x) * np.exp(anti(x))  # noqa: E731
    return field_from_callable(
        fn,
        "integrating_factor",
        params=(a.source, b.source),
        n=nodes.size,
        derivative=deriv,
    )


# ----------------------------------------------------------------------
# SIS coefficient family


@dataclass(frozen=True)
class SisCoefficients:
    """Coefficient family of the SIS epidemic diffusion for a given basic
    reproduction number: F(x) = R0(1-x) + 1, H(x) = x + (2/R0) log(F/F(0)),
    P = exp(2H), omega = P/(x F)."""

    R0: float
    F: CoefficientField
    H: CoefficientField
    P: CoefficientField
    omega: CoefficientField

    def omega_eps(self, eps: float) -> CoefficientField:
        """Regularized weight P/((x + eps) F); converges to omega pointwise
        on (0, 1] as eps -> 0."""
        if eps <= 0:
            raise ParameterError("eps must be positive")
        R0 = self.R0
        fn = lambda x: _sis_P(R0, x) / ((np.asarray(x) + eps) * _sis_F(R0, x))  # noqa: E731
        return field_from_callable(fn, "sis_omega_eps", params=(R0, eps))


def _sis_F(R0, x):
    return R0 * (1.0 - np.asarray(x, dtype=float)) + 1.0


def _sis_H(R0, x):
    return np.asarray(x, dtype=float) + (2.0 / R0) * np.log(_sis_F(R0, x) / (R0 + 1.0))


def _sis_P(R0, x):
    return np.exp(2.0 * _sis_H(R0, x))


def sis_coefficients(R0: float) -> SisCoefficients:
    """Build the SIS coefficient family; requires R0 > 0."""
    if not np.isfinite(R0) or R0 <= 0:
        raise ParameterError("R0 must be a positive real number")
    F = field_from_callable(
        lambda x: _sis_F(R0, x), "sis_F", (R0,), derivative=lambda x: np.full(np.shape(x), -R0)
    )
    dH = lambda x: 1.0 - 2.0 / _sis_F(R0, x)  # noqa: E731
    H = field_from_callable(lambda x: _sis_H(R0, x), "sis_H", (R0,), derivative=dH)
    P = field_from_callable(
        lambda x: _sis_P(R0, x),
        "sis_P",
        (R0,),
        derivative=lambda x: 2.0 * dH(x) * _sis_P(R0, x),
    )

    def omega_fn(x):
        xa = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            return _sis_P(R0, xa) / (xa * _sis_F(R0, xa))

    omega = field_from_callable(omega_fn, "sis_omega", (R0,))
    return SisCoefficients(R0=float(R0), F=F, H=H, P=P, omega=omega)
