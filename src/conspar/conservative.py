"""Parabolic problems closed by conservation laws instead of boundary data.

A totally conservative problem keeps two linear functionals of the
solution constant in time; this is equivalent to a coupled non-local
boundary value problem whose conservation laws span the kernel of the
operator. This module builds such problems from candidate laws: it
assembles the operator once, rejects laws outside its kernel and keeps
that operator with the coupling rows the laws give. It also classifies
their positivity structure and handles prescribed moments through a
source term and the Duhamel integral.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    ArgumentError,
    CompatibilityError,
    CouplingError,
    InputError,
    QuadratureError,
)
from .fields import (
    CoefficientField,
    _simpson_weights,
    constant_field,
)
from .sturm import (
    DEFAULT_GRID,
    BoundaryCoupling,
    DiscreteOperator,
    EigenSystem,
    Grid,
    Trajectory,
    apply_operator,
    assemble,
    coupling_from_kernel,
    orthonormalize_laws,
    sample_field,
    weighted_inner,
)

INTRINSICALLY_POSITIVE = "intrinsically_positive"
NONNEGATIVE = "nonnegative"
UNKNOWN = "unknown"

_DUHAMEL_RTOL = 1e-10
_POSITIVITY_DIRECTIONS = 720
_POSITIVITY_MARGIN = 1e-12
_COMPAT_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class ConservativeProblem:
    """A totally conservative problem ready for
    :func:`conspar.sturm.eigensolve`:
    ``eigensolve(problem.operator, problem.coupling)``.

    ``operator`` is the assembled operator the laws were checked against,
    and ``coupling`` its boundary rows. ``laws`` hold the two conserved
    functionals; ``law_values`` are their samples on ``operator.grid``.
    """

    operator: DiscreteOperator
    coupling: BoundaryCoupling
    laws: tuple
    law_values: np.ndarray  # (2, n)


def _require_law(name, op: DiscreteOperator, q, phi):
    """Raise InputError unless L phi = 0 on the interior nodes of ``op`` up
    to a discretization-aware threshold."""
    grid = op.grid
    phi_v = sample_field(phi, grid)
    resid = apply_operator(op, phi_v) * op.weight_values
    resid = float(np.max(np.abs(resid[1:-1])))
    phi_sup = float(np.max(np.abs(phi_v)))
    q_sup = float(np.max(np.abs(sample_field(q, grid))))
    # discretization-aware acceptance: the h^-2 term is the natural size of
    # the stencil applied to a resolved non-kernel direction
    tol = 1e-6 * (1.0 + phi_sup * q_sup + phi_sup / grid.h**2)
    if resid > tol:
        raise InputError(
            f"{name} is not a conservation law: interior kernel residual "
            f"{resid:.3e} exceeds {tol:.3e}"
        )


def build_totally_conservative(
    p: CoefficientField,
    q: CoefficientField,
    phi1: CoefficientField,
    phi2: CoefficientField,
    grid: Grid = DEFAULT_GRID,
    weight: Optional[CoefficientField] = None,
) -> ConservativeProblem:
    """Accept two conservation laws and build the coupled problem.

    The operator is assembled once. Each law must satisfy L phi = 0 on its
    interior nodes up to a discretization-aware tolerance; the laws must
    not be proportional.
    """
    weight = weight if weight is not None else constant_field(1.0)
    op = assemble(p, q, weight, grid)
    for name, phi in (("phi1", phi1), ("phi2", phi2)):
        _require_law(name, op, q, phi)
    v1, v2 = sample_field(phi1, grid), sample_field(phi2, grid)
    gram = np.array(
        [
            [np.dot(v1, v1), np.dot(v1, v2)],
            [np.dot(v2, v1), np.dot(v2, v2)],
        ]
    )
    if np.linalg.det(gram) <= 1e-12 * max(gram[0, 0] * gram[1, 1], 1e-300):
        raise CouplingError("conservation laws are numerically proportional")
    return ConservativeProblem(
        operator=op,
        coupling=coupling_from_kernel(phi1, phi2, p, grid),
        laws=(phi1, phi2),
        law_values=np.vstack([v1, v2]),
    )


def certify_intrinsic_positivity(problem: ConservativeProblem) -> str:
    """Sweep combinations of the two laws for an everywhere-positive one.

    This is a certification heuristic over a finite direction grid, not a
    proof; "unknown" is a legitimate outcome.
    """
    v1, v2 = problem.law_values
    margin = _POSITIVITY_MARGIN
    thetas = np.linspace(0.0, np.pi, _POSITIVITY_DIRECTIONS, endpoint=False)
    for th in thetas:
        combo = np.cos(th) * v1 + np.sin(th) * v2
        sup = float(np.max(np.abs(combo)))
        if float(combo.min()) > margin * max(1.0, sup):
            return INTRINSICALLY_POSITIVE
        if float((-combo).min()) > margin * max(1.0, sup):
            return INTRINSICALLY_POSITIVE
    if float(v1.min()) >= -margin and float(v2.min()) >= -margin:
        return NONNEGATIVE
    return UNKNOWN


def conservation_residual(traj: Trajectory, law, weight) -> float:
    """Max relative drift of the weighted law moment along a trajectory."""
    grid = traj.grid
    law_v = sample_field(law, grid) if isinstance(law, CoefficientField) else np.asarray(law)
    w_v = (
        sample_field(weight, grid)
        if isinstance(weight, CoefficientField)
        else np.asarray(weight)
    )
    moments = np.array(
        [weighted_inner(v, law_v, w_v, grid) for v in traj.values]
    )
    m0 = moments[0]
    return float(np.max(np.abs(moments - m0)) / max(1.0, abs(m0)))


# ----------------------------------------------------------------------
# Prescribed moments and the Duhamel integral


@dataclass(frozen=True)
class TimeFunction:
    """A scalar function of time with its derivative available."""

    value: Callable[[float], float]
    derivative: Callable[[float], float]


def time_function(fn: Callable[[float], float], dfn: Optional[Callable] = None) -> TimeFunction:
    """Wrap a callable; derivative defaults to a central difference."""
    if dfn is None:
        def dfn(t, _f=fn):
            h = 1e-6 * max(1.0, abs(t))
            return (_f(t + h) - _f(t - h)) / (2 * h)

    return TimeFunction(value=fn, derivative=dfn)


@dataclass(frozen=True, eq=False)
class MomentPrescription:
    """Target moments F_i(t) against orthonormalized laws."""

    F1: TimeFunction
    F2: TimeFunction
    phi1: np.ndarray
    phi2: np.ndarray
    weight: np.ndarray
    grid: Grid


def prescribe_moments(
    problem: ConservativeProblem, F1: TimeFunction, F2: TimeFunction
) -> MomentPrescription:
    """Orthonormalize the problem's laws and attach the two targets."""
    w, grid = problem.operator.weight_values, problem.operator.grid
    phi = orthonormalize_laws(problem.law_values, w, grid)
    return MomentPrescription(F1=F1, F2=F2, phi1=phi[0], phi2=phi[1], weight=w, grid=grid)


def _check_times(times) -> np.ndarray:
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ArgumentError("times must be a non-empty list")
    return times


def prescribed_moments_reduce(v0: np.ndarray, pres: MomentPrescription):
    """Split prescribed-moment data into zero-moment data plus a source.

    Returns (w0, G) with w0 = v0 - F1(0) phi1 - F2(0) phi2 (zero moments
    against both laws) and G(t) = F1'(t) phi1 + F2'(t) phi2 evaluable at
    any time. Raises CompatibilityError when F_i(0) does not match the
    initial moments.
    """
    v0 = np.asarray(v0, dtype=float)
    for i, (F, phi) in enumerate(((pres.F1, pres.phi1), (pres.F2, pres.phi2)), start=1):
        m = weighted_inner(v0, phi, pres.weight, pres.grid)
        f0 = F.value(0.0)
        if abs(m - f0) > _COMPAT_TOL * max(1.0, abs(f0)):
            raise CompatibilityError(
                f"F{i}(0) = {f0} incompatible with initial moment {m}"
            )
    w0 = v0 - pres.F1.value(0.0) * pres.phi1 - pres.F2.value(0.0) * pres.phi2

    def G(t: float) -> np.ndarray:
        return pres.F1.derivative(t) * pres.phi1 + pres.F2.derivative(t) * pres.phi2

    return w0, G


def _mode_convolution(lam: np.ndarray, source: Callable, t: float) -> Tuple[np.ndarray, int]:
    """int_0^t exp(-lam_k (t-s)) g_k(s) ds for every mode k, by composite
    Simpson refined by doubling.

    ``source(s)`` returns the modal source g(s) at the nodes ``s`` as a
    (len(s), modes) array; each doubling evaluates it at the new nodes
    only. Returns the integrals and the doubling level reached, log2 of
    the number of panels (0 when there is nothing to integrate). A
    non-finite estimate raises QuadratureError naming its mode.
    """
    if t == 0.0 or lam.size == 0:
        return np.zeros_like(lam), 0
    k = 2
    s = np.linspace(0.0, t, k + 1)
    g = source(s)
    prev = None
    while True:
        with np.errstate(under="ignore"):
            kern = np.exp(-np.outer(t - s, lam))
        est = ((_simpson_weights(k) * (t / k))[:, None] * kern * g).sum(axis=0)
        if not np.all(np.isfinite(est)):
            bad = lam[~np.isfinite(est)][0]
            raise QuadratureError(f"the mode at lambda = {bad:.6g} overflows by t = {t:g}")
        if prev is not None and float(np.max(np.abs(est - prev))) <= _DUHAMEL_RTOL * max(
            1.0, float(np.max(np.abs(est)))
        ):
            return est, k.bit_length() - 1
        if k >= 2**14:
            raise QuadratureError("Duhamel time quadrature did not converge")
        prev = est
        k *= 2
        s = np.linspace(0.0, t, k + 1)
        fine = np.empty((k + 1, g.shape[1]))
        fine[::2] = g
        fine[1::2] = source(s[1::2])
        g = fine


def duhamel_evolve(
    eig: EigenSystem,
    w0: np.ndarray,
    G: Callable,
    times: Sequence[float],
) -> Trajectory:
    """w(t) = e^{tL} w0 + int_0^t e^{(t-s)L} G(s) ds on the eigenbasis.

    G(s) is projected as g(s) = V^T diag(mass) G(s) at each quadrature node.
    """
    times = _check_times(times)
    basis = eig.mass[:, None] * eig.vectors

    def source(s):
        return np.stack([np.asarray(G(float(si)), dtype=float) for si in s]) @ basis

    a = eig.project(w0)
    lam = eig.eigenvalues
    coef = np.empty((times.size, lam.size))
    levels = 0
    for i, t in enumerate(times):
        conv, level = _mode_convolution(lam, source, float(t))
        with np.errstate(under="ignore"):
            coef[i] = a * np.exp(-lam * t) + conv
        levels = max(levels, level)
    return Trajectory(
        grid=eig.grid,
        times=times,
        values=coef @ eig.vectors.T,
        diagnostics={"duhamel_levels": levels},
    )


def prescribed_moments_evolve(
    eig: EigenSystem,
    v0: np.ndarray,
    pres: MomentPrescription,
    times: Sequence[float],
) -> Tuple[Trajectory, Trajectory]:
    """Evolve prescribed-moment data; returns (solution, zero-moment part).

    The solution trajectory carries the prescribed moments F_i(t); the
    second trajectory is the solution minus F_i(t) phi_i, whose moments
    vanish identically.

    The source G(s) = F1'(s) phi1 + F2'(s) phi2 is projected once, as
    R = V^T diag(mass) [phi1 phi2]. On the zero modes (the laws' span) its
    convolution is integrated by parts exactly,
    int_0^t e^{-lam (t-s)} F'(s) ds
        = F(t) - e^{-lam t} F(0) - lam int_0^t e^{-lam (t-s)} F(s) ds,
    with each mode's computed lam, which leaves a quadrature of lam F. The
    other modes see only the part of the laws outside the discrete kernel,
    against the two scalar derivatives F_i'. One quadrature takes both, to
    the accuracy :func:`duhamel_evolve` uses. ``diagnostics`` on
    both trajectories holds ``duhamel_kernel_leakage``, max |R| on the
    non-zero modes, and ``duhamel_levels``, the deepest doubling reached.
    """
    w0, _ = prescribed_moments_reduce(v0, pres)
    times = _check_times(times)
    F = (pres.F1, pres.F2)
    phi = np.stack([pres.phi1, pres.phi2])
    R = eig.vectors.T @ (eig.mass[:, None] * phi.T)
    lam = eig.eigenvalues
    zm = eig.zero_multiplicity

    def values(s):
        return np.array([[f.value(float(si)) for f in F] for si in s])

    def source(s):
        slopes = np.array([[f.derivative(float(si)) for f in F] for si in s])
        return np.hstack([values(s) @ R[:zm].T * lam[:zm], slopes @ R[zm:].T])

    a = eig.project(w0)
    F0 = values([0.0])[0]
    coef = np.empty((times.size, lam.size))
    lift = np.empty((times.size, eig.grid.n))
    levels = 0
    for i, t in enumerate(times):
        Ft = values([t])[0]
        with np.errstate(under="ignore"):
            decay = np.exp(-lam * t)
        conv, level = _mode_convolution(lam, source, float(t))
        conv[:zm] = R[:zm] @ Ft - decay[:zm] * (R[:zm] @ F0) - conv[:zm]
        coef[i] = a * decay + conv
        lift[i] = Ft @ phi
        levels = max(levels, level)

    v_values = coef @ eig.vectors.T + (F0 @ phi)[None, :]
    diagnostics = {
        "duhamel_kernel_leakage": float(np.max(np.abs(R[zm:]), initial=0.0)),
        "duhamel_levels": levels,
    }
    v_traj = Trajectory(grid=eig.grid, times=times, values=v_values, diagnostics=diagnostics)
    w_traj = Trajectory(
        grid=eig.grid, times=times, values=v_values - lift, diagnostics=dict(diagnostics)
    )
    return v_traj, w_traj
