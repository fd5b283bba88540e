"""Boundary-degenerate drift-diffusion problems and their measure limits.

A model has the form ``du/dt = (g u)'' - (g psi u)'`` with g vanishing at
x = 0. Its closure at x = 1 decides the conservation laws:

* g(1) = 0 and x = 1 absorbs like x = 0: two laws, total mass and the
  fixation-probability moment (gene-frequency dynamics, "kimura", with
  g = x(1-x));
* g(1) > 0 and a zero-flux (Robin) condition holds at x = 1: one law,
  total mass (epidemic prevalence dynamics, "sis", with
  g = x(R0(1-x)+1)/2).

The uniformly parabolic regularization replaces g by g + eps, transforms
to self-adjoint form with the weight exp(int psi)/g_eps, and evolves
spectrally under the boundary rows of the laws (plus a zero-flux row at
x = 1 under one law). The vanishing-regularization limit is a nonnegative
measure: atoms at the absorbing endpoints plus a regular interior density;
a zero-flux end carries no atom, and its half cell stays in the density.
Atomic masses are computed from the conservation identities (primary) or
by time integration of the outflow g' r through each absorbing end, read
off the integrals of the interior boundary traces (requires continuous
psi); half-cell excess extraction is available as a secondary
diagnostic.

The strong interior solution is the eps = 0 member of the same family,
solved on the same path: the regularized stiffness in v = g r / p, mass
cell p / g (0 at an absorbing end, which carries no unknown) and rows
v = 0 at each absorbing end, so the scheme keeps both laws. The modes
alive at the first positive snapshot are counted and found on one fold
by ``eigensolve_alive`` and evolved exactly in time by ``evolve``; the
trace integrals follow from one banded solve on the same stiffness K. A
Rannacher-started trapezoidal time stepper on the same M dv/dt = K v runs
instead when the scale sqrt(cell g / p) spreads too widely for an
accurate reconstruction (see ``solve_interior``).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from .errors import (
    ArgumentError,
    AssemblyError,
    DenseSizeError,
    InputError,
    ParameterError,
    RegularityTierError,
    TimeStepError,
    TransformError,
)
from .fields import (
    CoefficientField,
    constant_field,
    cumulative_trapezoid,
    exponential_weight,
    field_from_callable,
    fixation_probability,
)
from .sturm import (
    DEFAULT_GRID,
    BoundaryCoupling,
    DiscreteOperator,
    EigenSystem,
    Grid,
    Trajectory,
    assemble,
    conservation_row,
    eigensolve_alive,
    evolve,
    sample_field,
)


@dataclass(frozen=True, eq=False)
class DegenerateModel:
    """A boundary-degenerate model: degeneracy field, drift and the closure
    at x = 1.

    ``absorbs_at_1`` true: g(1) = 0, x = 1 absorbs like x = 0 and carries
    no unknown, and its trace is extrapolated. False: g(1) > 0, zero flux
    through x = 1, and the last unknown sits on x = 1 as its own trace.
    The conserved densities ``laws`` (total mass, then the fixation
    probability when x = 1 absorbs) and the weight ``p`` = exp(int_0^x psi)
    are built from the drift on construction, so a drift whose law
    overflows fails here.
    """

    g: CoefficientField
    psi: CoefficientField
    absorbs_at_1: bool
    laws: tuple = field(init=False, repr=False)
    p: CoefficientField = field(init=False, repr=False)

    def __post_init__(self):
        if abs(self.g(0.0)) > 1e-14:
            raise InputError("degeneracy field must vanish at x = 0")
        g1 = self.g(1.0)
        if self.absorbs_at_1 and abs(g1) > 1e-14:
            raise InputError("an absorbing end at x = 1 needs g(1) = 0")
        if not self.absorbs_at_1 and g1 <= 0:
            raise InputError("a zero-flux end at x = 1 needs g(1) > 0")
        if not np.all(self.g.values[1:-1] > 0):
            raise InputError("degeneracy field g must be positive inside (0, 1)")
        laws = (constant_field(1.0),)
        if self.absorbs_at_1:
            laws += (fixation_probability(self.psi),)
        object.__setattr__(self, "laws", laws)
        object.__setattr__(self, "p", exponential_weight(self.psi))


def kimura_model(psi: CoefficientField) -> DegenerateModel:
    """Gene-frequency model with degeneracy x(1-x) and fitness psi."""
    g = field_from_callable(
        lambda x: np.asarray(x) * (1.0 - np.asarray(x)),
        "logistic_degeneracy",
        derivative=lambda x: 1.0 - 2.0 * np.asarray(x),
    )
    return DegenerateModel(g=g, psi=psi, absorbs_at_1=True)


def sis_model(R0: float) -> DegenerateModel:
    """Epidemic prevalence model for a basic reproduction number R0 > 0.

    With F(x) = R0(1-x) + 1, the degeneracy is g = x F/2 and the drift is
    psi = 2 - 4/F, so exp(int_0^x psi) = exp(2x) (F/(R0 + 1))^(4/R0).
    """
    if not 0 < R0 < np.inf:
        raise ParameterError("R0 must be a positive real number")

    def F(x):
        return R0 * (1.0 - np.asarray(x, dtype=float)) + 1.0

    g = field_from_callable(
        lambda x: 0.5 * np.asarray(x) * F(x),
        "sis_degeneracy",
        derivative=lambda x: 0.5 * (F(x) - R0 * np.asarray(x)),
    )
    psi = field_from_callable(
        lambda x: 2.0 - 4.0 / F(x),
        "sis_drift",
        derivative=lambda x: -4.0 * R0 / F(x) ** 2,
    )
    return DegenerateModel(g=g, psi=psi, absorbs_at_1=False)


def to_selfadjoint(u: np.ndarray, g_eps: np.ndarray, p_weight: np.ndarray) -> np.ndarray:
    """v = u g_eps / p; the transform taking the forward equation to
    self-adjoint form."""
    g_eps = np.asarray(g_eps, dtype=float)
    p_weight = np.asarray(p_weight, dtype=float)
    if np.any(g_eps <= 0) or np.any(p_weight <= 0):
        raise TransformError("transform divisors must be positive")
    return np.asarray(u, dtype=float) * g_eps / p_weight


@dataclass(frozen=True, eq=False)
class RegularizedSolution:
    """Output of one regularized solve: the forward-variable trajectory
    plus the spectral machinery that produced it."""

    trajectory: Trajectory  # u-variable snapshots
    v_trajectory: Trajectory
    eig: EigenSystem
    p_values: np.ndarray
    g_eps_values: np.ndarray


def regularized_system(
    model: DegenerateModel, eps: float, grid: Grid = DEFAULT_GRID
) -> Tuple[DiscreteOperator, BoundaryCoupling, np.ndarray, np.ndarray]:
    """Assemble the eps-regularized self-adjoint problem: g becomes
    g_eps = g + eps, with the weight exp(int psi)/g_eps: the interior's
    stiffness, and the weight's node values times the cells as the mass.
    Returns the operator, the coupling rows of the model's laws (plus a
    zero-flux row at x = 1 under one law), and the grid values of
    exp(int psi) and g_eps."""
    if not 0 < eps < np.inf:
        raise ParameterError("eps must be a positive real number")
    p_vals, g_vals = sample_field(model.p, grid), sample_field(model.g, grid) + eps
    weight = p_vals / g_vals
    if np.any(weight <= 0):
        raise AssemblyError("weight must be positive at every grid node")
    rows = [conservation_row(law, model.p, grid) for law in model.laws]
    if not model.absorbs_at_1:
        rows.append([0.0, 0.0, 0.0, 1.0])  # zero flux through x = 1
    op = assemble(model.p, constant_field(0.0), constant_field(1.0), grid)
    op = replace(op, mass=weight * grid.cell_weights(), weight_values=weight)
    return op, BoundaryCoupling(rows), p_vals, g_vals


def solve_regularized(
    model: DegenerateModel,
    u_initial: np.ndarray,
    eps: float,
    times: Sequence[float],
    grid: Grid = DEFAULT_GRID,
) -> RegularizedSolution:
    """Solve the eps-regularized problem and return forward-variable
    snapshots.

    The initial density is transformed to the self-adjoint variable,
    evolved spectrally under the coupling rows of the model's laws, and
    transformed back; every law's moment is conserved along the way.

    Only the modes alive at the first positive snapshot t_min are
    computed, by ``eigensolve_alive``'s rule on one fold: every eigenvalue
    below 53 ln 2 / t_min and the next one, at least 16 and at most the
    fold's m. At every t >= t_min the dropped modes then have weighted norm
    at most exp(-lambda_k t) ||v0||_M, the bound that
    ``v_trajectory.truncation_error`` reports. Snapshots at t = 0 are the
    data itself, with no truncation.
    """
    u_initial = np.asarray(u_initial, dtype=float)
    if u_initial.shape != (grid.n,):
        raise ArgumentError("initial data must be sampled on the grid")
    times = np.asarray(times, dtype=float)
    if np.any(times < 0):
        raise ArgumentError("snapshot times must be nonnegative")
    op, coupling, p_vals, g_vals = regularized_system(model, eps, grid)
    v0 = to_selfadjoint(u_initial, g_vals, p_vals)
    eig = eigensolve_alive(op, coupling, times)
    evolved = evolve(eig, v0, times)
    at_zero = times == 0
    v_values = evolved.values
    v_values[at_zero] = v0
    u_values = v_values * (p_vals / g_vals)[None, :]
    u_values[at_zero] = u_initial
    v_traj = Trajectory(
        grid=grid,
        times=times,
        values=v_values,
        truncation_error=np.where(at_zero, 0.0, evolved.truncation_error),
    )
    return RegularizedSolution(
        trajectory=Trajectory(grid=grid, times=times, values=u_values),
        v_trajectory=v_traj,
        eig=eig,
        p_values=p_vals,
        g_eps_values=g_vals,
    )


# ----------------------------------------------------------------------
# Boundary measures


@dataclass(frozen=True, eq=False)
class BoundaryMeasure:
    """Discrete avatar of a measure on [0, 1]: endpoint atoms plus a
    density on the grid (endpoint entries of ``density`` are extrapolated
    boundary traces of the interior density)."""

    atom0: float
    density: np.ndarray
    atom1: float
    time: float
    grid: Grid

    def interior_mass(self) -> float:
        return float(np.trapezoid(self.density, self.grid.nodes))

    def total_mass(self) -> float:
        return self.atom0 + self.atom1 + self.interior_mass()


def decompose_measure(
    values: np.ndarray, grid: Grid, time: float = 0.0, absorbs_at_1: bool = True
) -> BoundaryMeasure:
    """Split grid data into endpoint atoms plus a regular density.

    The atom at each absorbing end is the mass of the boundary half-cell
    in excess of the quadratically extrapolated density prediction; the
    remainder stays in the density. Extraction error is O(h) in general.
    A zero-flux end at x = 1 (``absorbs_at_1`` false, the model's closure)
    has no atom and keeps its value.
    """
    v = np.asarray(values, dtype=float)
    if v.shape != (grid.n,) or grid.n < 5:
        raise ArgumentError("need grid data with at least 5 nodes")
    left = _left_trace(v[1:])
    right = _right_trace(v[:-1], absorbing=True) if absorbs_at_1 else v[-1]
    h = grid.h
    atom0 = (h / 2) * (v[0] - left)
    atom1 = (h / 2) * (v[-1] - right)
    density = v.copy()
    density[0], density[-1] = left, right
    return BoundaryMeasure(
        atom0=float(atom0), density=density, atom1=float(atom1), time=time, grid=grid
    )


# ----------------------------------------------------------------------
# Interior strong solution (method of lines)


@dataclass(frozen=True, eq=False)
class BoundaryTraces:
    """Time integrals of the interior-density boundary traces,
    int_0^t r(0, s) ds and int_0^t r(1, s) ds, at ``times``: the solver's
    own time grid, every step of the stepper, or 0 and the snapshot times
    of the modal solve. With them come the drift regularity tier they were
    produced under and the mass that leaves per unit trace: where g = 0
    the flux -(g r)' + g psi r is -g' r, so ``outflow`` is (g'(0), -g'(1)),
    with 0 at a zero-flux end."""

    times: np.ndarray
    integral0: np.ndarray
    integral1: np.ndarray
    outflow: Tuple[float, float]
    psi_continuous: bool


@dataclass(frozen=True, eq=False)
class InteriorSolution:
    """Strong interior solution: snapshots plus the boundary-trace
    integrals, with how they were computed ("modal" or "stepper"), the
    time step (the grid snapshot times are snapped to on either path), the
    steps the stepper took (0 on the modal path), the modes the modal solve
    kept (0 on the stepper path), the spread of the symmetrizing log-scale,
    max - min of log sqrt(cell g / p) over the unknowns, and the modal
    eigensolve's ``EigenSystem.method`` (None when it ran none)."""

    trajectory: Trajectory
    traces: BoundaryTraces
    method: str
    dt: float
    steps: int
    modes: int
    log_scale_spread: float
    eigensolve_method: Optional[str] = None


def _interior_system(model: DegenerateModel, grid: Grid):
    """The interior M dv/dt = K v in v = s r, s = g/p, on the unknown nodes
    lo..hi: the regularized stiffness K, whose face flux K_i (v_{i+1} - v_i)
    has K_i = 1 / int 1/p over the cell, and the mass M = cell / s. An
    absorbing end carries no unknown: its mass is 0 and its row fixes v = 0.
    Under one law the last unknown sits on x = 1, whose row is v'(1) = 0.
    Returns the operator, the coupling, s and lo, hi."""
    op = assemble(model.p, constant_field(0.0), constant_field(1.0), grid)
    s = sample_field(model.g, grid) / sample_field(model.p, grid)
    lo, hi = 1, (grid.n - 2 if model.absorbs_at_1 else grid.n - 1)
    cell = grid.cell_weights()
    mass = np.zeros(grid.n)
    mass[lo : hi + 1] = cell[lo : hi + 1] / s[lo : hi + 1]
    last = [0.0, 1.0, 0.0, 0.0] if model.absorbs_at_1 else [0.0, 0.0, 0.0, 1.0]
    coupling = BoundaryCoupling([[1.0, 0.0, 0.0, 0.0], last])
    return replace(op, mass=mass, weight_values=mass / cell), coupling, s, lo, hi


# Boundary-trace functionals on the unknowns (node axis last): the
# quadratic extrapolation to an absorbing end, or the last unknown itself
# when it sits on x = 1 (``absorbing`` is the model's ``absorbs_at_1``).
def _left_trace(r):
    return 3 * r[..., 0] - 3 * r[..., 1] + r[..., 2]


def _right_trace(r, absorbing):
    if absorbing:
        return 3 * r[..., -1] - 3 * r[..., -2] + r[..., -3]
    return r[..., -1]


# The modal path reads r = v / s off M-orthonormal modes of the fold, so an
# error in the kept pairs is amplified by up to exp(spread of log d),
# d = sqrt(cell s). Largest error of the snapshots and trace integrals
# relative to a dense matrix exponential (scipy expm of the generator of r,
# C^-1 K S, times t, and of the Van Loan block), T = 1, snapshots 0.01,
# 0.1 and 1, uniform data and deltas at 0.3 and 0.7. Forced past the gate
# at n = 401, Kimura psi = 22 to 50: 8.8e-11 at spread 11.9, 5.1e-10 at
# 13.3, 1.7e-9 at 15.7, 8.1e-9 at 18.2, 8.6e-8 at 20.6, 1.7e-5 at 25.5.
# Inside it, over n = 101..1601, Kimura psi = 12..20 and 1 - 2x and SIS
# R0 = 10, 20 (38 cases), Kimura reads at most 6.6e-11 (psi = 20, n = 401,
# spread 10.95, subset MRRR), SIS 4.5e-11 and the whole-spectrum cases
# (n = 101, 201) 4.0e-12.
_MODAL_MAX_LOG_SPREAD = 11.0


def _step_interior(K, mass, s, absorbing, r0, dt, n_steps, snap_idx):
    """Time stepper on M dv/dt = K v, v = s r, K = (diagonal, off-diagonal).

    Implicit trapezoidal steps (M - dt/2 K) v' = (M + dt/2 K) v; the first
    two steps are each split into two backward-Euler half steps
    (M - dt/2 K) v' = M v so rough initial data does not ring (Rannacher
    start). M > 0 and -K is positive definite (x = 0 absorbs), so
    M - dt/2 K is factored once, by banded Cholesky. Returns the snapshots
    of r at ``snap_idx`` and both trace integrals at every step, integrated
    as the scheme removes the outflow: each half step by (dt/2) times the
    trace it ends with, the trapezoid steps by the trapezoid rule.
    """
    diag, off = K
    # M - dt/2 K in upper banded storage: the implicit side of the
    # trapezoid step, and also the matrix of one backward-Euler half step
    implicit = [np.r_[0.0, -dt / 2 * off], mass - dt / 2 * diag]
    factor = (scipy.linalg.cholesky_banded(implicit), False)
    explicit_diag, explicit_off = mass + dt / 2 * diag, dt / 2 * off
    r, v = r0.copy(), s * r0
    traces = np.empty((2, n_steps + 1))
    traces[:, 0] = _left_trace(r), _right_trace(r, absorbing)

    snap_set = {int(i) for i in snap_idx}
    snapshots = {}
    if 0 in snap_set:
        snapshots[0] = r.copy()

    norm0 = float(np.max(np.abs(r))) + 1.0
    rannacher_steps = min(n_steps, 2)
    half = []
    for step in range(1, n_steps + 1):
        if step <= rannacher_steps:
            # two backward-Euler half steps per dt (damps rough data)
            for _ in range(2):
                v = scipy.linalg.cho_solve_banded(factor, mass * v, check_finite=False)
                r = v / s
                half.append((_left_trace(r), _right_trace(r, absorbing)))
        else:
            rhs = explicit_diag * v
            rhs[:-1] += explicit_off * v[1:]
            rhs[1:] += explicit_off * v[:-1]
            v = scipy.linalg.cho_solve_banded(factor, rhs, check_finite=False)
            r = v / s
        if step % 200 == 0 or step == n_steps:
            if not np.all(np.isfinite(r)) or float(np.max(np.abs(r))) > 1e6 * norm0:
                raise TimeStepError(f"interior stepper blew up at step {step}")
        traces[:, step] = _left_trace(r), _right_trace(r, absorbing)
        if step in snap_set:
            snapshots[step] = r.copy()

    times = np.arange(n_steps + 1) * dt
    k = rannacher_steps

    def integral(trace, half):
        start = np.cumsum(0.5 * np.diff(times[: k + 1]) * (half[0::2] + half[1::2]))
        rest = cumulative_trapezoid(trace[k:], times[k:])[1:]
        return np.concatenate([[0.0], start, start[-1] + rest])

    snaps = np.array([snapshots[int(i)] for i in snap_idx])
    half = np.array(half).T
    return snaps, times, integral(traces[0], half[0]), integral(traces[1], half[1])


def solve_interior(
    model: DegenerateModel,
    r_initial: np.ndarray,
    horizon: float,
    times: Sequence[float],
    grid: Grid = DEFAULT_GRID,
    dt: Optional[float] = None,
) -> InteriorSolution:
    """Method-of-lines solve of the untransformed equation on the interior.

    The interior is a ``DiscreteOperator`` and ``BoundaryCoupling`` in
    v = g r / p (see ``_interior_system``), the regularized problem at
    eps = 0. Only its k modes alive at the first positive snapshot t_min,
    exp(-lam t_min) > 2^-53, are computed, counted and found on one fold by
    ``eigensolve_alive`` (with no spare mode and no floor on k), on
    ``eigensolve``'s drivers and their pair rules, and ``evolve`` gives
    each snapshot, read as r = v p / g on the unknowns. The fold
    drops the absorbing ends and leaves no corner, so LAPACK's subset MRRR
    finds few modes and its whole tridiagonal spectrum many, or
    shift-invert Lanczos once an m x m array is over the 256 MiB budget
    (m > 5792). As C dr/dt = K S r, with C the cells and S = diag(g/p),
    the trace integrals are S^-1 K^-1 C (r(t) - r0), one solve on -K. A time
    stepper runs instead when the modal form is unsafe: when the scale
    sqrt(cell g / p) spans more than a factor exp(11), whose spread
    amplifies rounding (see ``_MODAL_MAX_LOG_SPREAD``), or when the
    driver's array would exceed the budget. It takes implicit trapezoidal
    steps of fixed dt on M dv/dt = K v, the first two each split into two
    backward-Euler half steps so rough initial data does not ring.
    ``method``, ``modes`` and ``eigensolve_method`` say which ran.

    On both paths dt = min(h, horizon/2000), shortened to divide the
    horizon, and snapshot times are snapped to multiples of dt, so output
    times do not depend on which path ran. Snapshots at t = 0 are the data
    itself.

    Absorbing endpoints carry no unknown; under one law a zero-flux
    closure at x = 1 realizes the Robin condition there. Snapshots at
    t > 0 carry quadratically extrapolated boundary traces in the
    endpoint slots.
    """
    r_initial = np.asarray(r_initial, dtype=float)
    if r_initial.shape != (grid.n,):
        raise ArgumentError("initial data must be sampled on the grid")
    if np.any(r_initial < -1e-12):
        raise ArgumentError("initial density must be nonnegative")
    if not 0 < horizon < np.inf or (dt is not None and not 0 < dt < np.inf):
        raise ParameterError("horizon and dt must be positive real numbers")
    times = np.asarray(times, dtype=float)
    if times.size == 0 or not np.all((times >= 0) & (times <= horizon + 1e-12)):
        raise ArgumentError("snapshot times must lie in [0, horizon]")

    dt = dt if dt is not None else min(grid.h, horizon / 2000.0)
    n_steps = max(1, int(np.ceil(horizon / dt - 1e-12)))
    dt = horizon / n_steps

    op, coupling, s, lo, hi = _interior_system(model, grid)
    # K and M on the unknowns, which the fold, the stepper and the trace
    # integrals all read; K s / cell is the diagonal of the generator of r
    K, mass = (op.diagonal[lo : hi + 1], op.off_diagonal[lo:hi]), op.mass[lo : hi + 1]
    s, cell = s[lo : hi + 1], grid.cell_weights()[lo : hi + 1]
    if not np.all(np.isfinite(K[0] * s / cell)):
        raise TimeStepError("the interior generator's rates overflow double precision")
    r0 = r_initial[lo : hi + 1].copy()
    snap_idx = np.rint(times / dt).astype(int)
    snap_times = snap_idx * dt
    absorbing = model.absorbs_at_1
    log_d = 0.5 * np.log(cell * s)
    spread = float(log_d.max() - log_d.min())
    method, eig = "stepper", None
    if spread <= _MODAL_MAX_LOG_SPREAD:
        try:
            eig = eigensolve_alive(op, coupling, snap_times, least=0, spare=0)
            method = "modal"
        except DenseSizeError:
            pass
    if method == "stepper":
        snaps, grid_times, int0, int1 = _step_interior(
            K, mass, s, absorbing, r0, dt, n_steps, snap_idx
        )
    else:
        # r = v / s on the modes kept, 0 at t > 0 when none is alive
        grid_times = np.unique(np.append(snap_times, 0.0))
        r = np.zeros((grid_times.size, r0.size))
        if eig is not None:
            v0 = np.pad(s * r0, (lo, grid.n - 1 - hi))
            r = evolve(eig, v0, grid_times).values[:, lo : hi + 1] / s
        r[grid_times == 0] = r0
        # cell dr/dt = K s r, so int_0^t r ds = S^-1 K^-1 C (r(t) - r0),
        # which also gives each dropped mode its whole integral; -K is
        # positive definite, since mass leaves through x = 0
        negative_K = [np.r_[0.0, -K[1]], -K[0]]
        integrals = -scipy.linalg.solveh_banded(negative_K, (cell * (r - r0)).T).T / s
        int0, int1 = _left_trace(integrals), _right_trace(integrals, absorbing)
        snaps = r[np.searchsorted(grid_times, snap_times)]

    # the NaN-safe comparison also rejects non-finite values
    limit = 1e6 * (float(np.max(np.abs(r0))) + 1.0)
    if not all(np.all(np.abs(out) <= limit) for out in (snaps, int0, int1)):
        raise TimeStepError(f"interior {method} solve blew up")

    values = np.zeros((times.size, grid.n))
    values[:, lo : hi + 1] = snaps
    values[:, 0] = _left_trace(snaps)
    values[:, -1] = _right_trace(snaps, absorbing)
    values[snap_idx == 0] = r_initial

    traces = BoundaryTraces(
        times=grid_times,
        integral0=int0,
        integral1=int1,
        outflow=(model.g.derivative(0.0), -model.g.derivative(1.0) if absorbing else 0.0),
        psi_continuous=model.psi.continuous_tier,
    )
    return InteriorSolution(
        trajectory=Trajectory(grid=grid, times=snap_times, values=values),
        traces=traces,
        method=method,
        dt=dt,
        steps=n_steps if method == "stepper" else 0,
        modes=0 if eig is None else eig.eigenvalues.size,
        log_scale_spread=spread,
        eigensolve_method=None if eig is None else eig.method,
    )


# ----------------------------------------------------------------------
# Atomic masses


def masses_from_conservation(
    traj: Trajectory,
    r_initial: np.ndarray,
    a0: float,
    b0: float,
    phi: CoefficientField,
) -> Tuple[np.ndarray, np.ndarray]:
    """Atom masses from the two conservation identities (two-sided model):

    a(t) = a0 + int r_0 (1 - phi) - int r(t) (1 - phi)
    b(t) = b0 + int r_0 phi       - int r(t) phi

    so that a + int r + b is constant by construction. The initial density
    enters through its own integrals; initial atoms enter as offsets. A
    mass below -1e-8 marks an inadmissible state and raises a warning.
    """
    grid = traj.grid
    nodes = grid.nodes
    phi_v = sample_field(phi, grid)
    r0 = np.asarray(r_initial, dtype=float)
    i0_one_minus = float(np.trapezoid(r0 * (1 - phi_v), nodes))
    i0_phi = float(np.trapezoid(r0 * phi_v, nodes))
    a = a0 + i0_one_minus - np.trapezoid(traj.values * (1 - phi_v), nodes, axis=1)
    b = b0 + i0_phi - np.trapezoid(traj.values * phi_v, nodes, axis=1)
    worst = float(min(a.min(), b.min()))
    if worst < -1e-8:
        warnings.warn(
            f"atomic mass dipped to {worst:.3e}; inadmissible state", stacklevel=2
        )
    return a, b


def masses_from_boundary_flux(
    traces: BoundaryTraces, a0: float, b0: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Atom masses by time integration of the outflow through each end:
    a(t) = a0 + g'(0) int_0^t r(0, s) ds, b(t) = b0 - g'(1) int_0^t r(1, s) ds,
    with the rates from ``traces.outflow`` (b stays b0 at a zero-flux end)
    and the integrals from the traces, on their time grid.
    Valid when the drift coefficient is continuous up to the boundary;
    tabulated-linear drifts are rejected (use the conservation form).
    Returns (times, a, b); the curves are nondecreasing whenever the
    traces are nonnegative.
    """
    if not traces.psi_continuous:
        raise RegularityTierError(
            "boundary-flux mass formulas need a continuous drift "
            "(formula-backed, not a table); use the conservation form"
        )
    out0, out1 = traces.outflow
    return traces.times, a0 + out0 * traces.integral0, b0 + out1 * traces.integral1


# ----------------------------------------------------------------------
# Vanishing-regularization limit


@dataclass(frozen=True, eq=False)
class VanishingLimitResult:
    """Measures extrapolated to eps -> 0, with ladder diagnostics.

    ``probe_differences`` has shape (n_eps - 1, n_probes, n_times):
    successive interior differences |u_{eps_{j+1}} - u_{eps_j}| at the
    probes. A non-convergence warning is attached when more than 20% of
    (probe, time) pairs fail to decrease monotonically along the ladder.

    The interior extrapolation rests on an assumed convergence model in
    eps (flagged, never trusted silently): the working first-order
    hypothesis is checked against the ladder differences and replaced by
    the empirically estimated geometric ratio where the data rejects it;
    ``extrapolation_ratio`` records the median estimated ratio (NaN when
    the first-order form was used throughout).

    Every rung equals the data at t = 0, so snapshots there enter neither
    the monotone fraction nor the ratio. ``rungs`` holds the regularized
    solve of each strength, in ladder order.
    """

    measures: list
    probe_xs: np.ndarray
    probe_differences: np.ndarray
    monotone_fraction: float
    warning: Optional[str]
    extrapolation_ratio: float
    rungs: list


def vanishing_limit(
    model: DegenerateModel,
    u_initial: np.ndarray,
    epsilons: Sequence[float],
    times: Sequence[float],
    grid: Grid = DEFAULT_GRID,
    probes: Sequence[float] = (0.25, 0.5, 0.75),
) -> VanishingLimitResult:
    """Regularized solves along a ladder of strictly decreasing positive
    strengths ``epsilons`` (at least 3), extrapolated to eps -> 0.

    The interior density at each time is extrapolated from the smallest
    regularizations. The first-order-in-eps hypothesis is checked against
    the ladder: where the successive differences instead decay
    geometrically (the generic behavior near degenerate endpoints, where
    boundary-layer mass empties only logarithmically in eps), the
    extrapolation uses the estimated ratio (Aitken form); elsewhere it
    falls back to the first-order formula. Atomic masses then follow from
    the conservation identities applied to the extrapolated density.
    """
    epsilons = tuple(float(e) for e in epsilons)
    if not all(0 < e < np.inf for e in epsilons):
        raise ParameterError("ladder strengths must be positive real numbers")
    if any(b >= a for a, b in zip(epsilons, epsilons[1:])):
        raise ParameterError("ladder strengths must be strictly decreasing")
    if len(epsilons) < 3:
        raise ArgumentError("ladder needs at least 3 strengths")
    times = np.asarray(times, dtype=float)
    solutions = [
        solve_regularized(model, u_initial, eps, times, grid)
        for eps in epsilons
    ]
    probe_xs = np.asarray(probes, dtype=float)
    probe_idx = [int(np.argmin(np.abs(grid.nodes - x))) for x in probe_xs]

    stack = np.stack([s.trajectory.values for s in solutions])  # (eps, T, n)
    diffs = np.abs(stack[1:] - stack[:-1])[:, :, probe_idx]  # (eps-1, T, probes)
    diffs = np.transpose(diffs, (0, 2, 1))  # (eps-1, probes, T)
    later = times > 0
    dec = diffs[1:, :, later] < diffs[:-1, :, later]
    monotone_fraction = float(dec.mean()) if dec.size else 1.0
    warning = None
    if (1.0 - monotone_fraction) > 0.20:
        warning = (
            "ladder interior differences fail to decrease at "
            f"{100 * (1 - monotone_fraction):.0f}% of probes"
        )

    e1, e0 = epsilons[-2], epsilons[-1]
    d1 = stack[-2] - stack[-3]
    d2 = stack[-1] - stack[-2]
    # a difference at rounding level of the snapshot shows no convergence:
    # it takes the first-order tail and stays out of the ratio's median
    measurable = np.abs(d1) > 1e-12 * np.abs(stack[-1]).max(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(measurable, d2 / d1, 0.0)
        geometric = (ratio > 0.0) & (ratio < 0.95)
        tail = np.where(
            geometric, d2 * ratio / (1.0 - ratio), d2 * (e0 / (e1 - e0))
        )
    r_limit = stack[-1] + tail
    used = ratio[later][geometric[later]]
    extrapolation_ratio = float(np.median(used)) if used.size else float("nan")

    # Boundary-cell excess of the extrapolated density moves to the atoms
    # (half-cell decomposition); the conservation identities then pin the
    # atomic masses exactly, with the remaining regular density as the
    # interior part: the second law, if any, gives the atom at x = 1, and
    # total mass the atom at x = 0.
    nodes = grid.nodes
    mass0 = float(np.trapezoid(u_initial, nodes))
    if model.absorbs_at_1:
        phi_v = sample_field(model.laws[1], grid)
        moment0 = float(np.trapezoid(u_initial * phi_v, nodes))
    measures = []
    for i, t in enumerate(times):
        r = decompose_measure(r_limit[i], grid, float(t), model.absorbs_at_1).density
        b = moment0 - float(np.trapezoid(r * phi_v, nodes)) if model.absorbs_at_1 else 0.0
        a = mass0 - float(np.trapezoid(r, nodes)) - b
        measures.append(
            BoundaryMeasure(atom0=a, density=r, atom1=b, time=float(t), grid=grid)
        )
    return VanishingLimitResult(
        measures=measures,
        probe_xs=probe_xs,
        probe_differences=diffs,
        monotone_fraction=monotone_fraction,
        warning=warning,
        extrapolation_ratio=extrapolation_ratio,
        rungs=solutions,
    )

