"""Self-adjoint operator discretization, coupled-boundary eigensolves, and
spectral evolution.

The operator L v = (p v')' + q v is discretized with a vertex-centered
finite-volume scheme: cell fluxes use the harmonic integral mean of p, so
any function with p v' constant (the kernel of the q = 0 operator) is
reproduced exactly by the discrete operator. Boundary conditions enter
through the endpoint fluxes p v'(a), p v'(b): the two coupling rows are
solved for the fluxes in terms of the endpoint values and folded into the
boundary rows. For any mutually self-adjoint pair of rows this produces an
exactly symmetric matrix pencil, so a standard symmetric eigensolver
applies and the discrete spectrum is real with M-orthonormal eigenvectors.
When the rows cannot be solved for the fluxes (for example Dirichlet-type
rows) a bordered, non-symmetric collocation eigensolve is used instead.

All public types are immutable after construction and safe for concurrent
read-only use; evolution over a list of times is a pure map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from .errors import (
    ArgumentError,
    AssemblyError,
    CouplingError,
    DenseSizeError,
    EigensolveError,
    InputError,
    NoSteadyStateError,
)
from .fields import CoefficientField, _cell_integrals

_FLUX_PIVOT_TOL = 1e-10
_DENSE_MAX_BYTES = 2**28  # one dense n x n float64 matrix
_DENSE_MAX_N = math.isqrt(_DENSE_MAX_BYTES // 8)  # 5792
_FEW_MODES_MIN_N = 256  # below this, dense LAPACK was faster for every k
# one-sided second-order derivative stencils at a and b, times h
_STENCIL_A = np.array([-3.0, 4.0, -1.0]) / 2
_STENCIL_B = np.array([1.0, -4.0, 3.0]) / 2


@dataclass(frozen=True)
class Grid:
    """Uniform grid of n >= 3 nodes on [a, b], endpoints included."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if self.n < 3:
            raise InputError("grid needs at least 3 nodes")
        if not (self.b > self.a):
            raise InputError("grid interval must have b > a")

    @property
    def h(self) -> float:
        return (self.b - self.a) / (self.n - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)

    def reference(self, x):
        """Map physical coordinates to the [0, 1] domain of fields."""
        return (np.asarray(x, dtype=float) - self.a) / (self.b - self.a)

    def cell_weights(self) -> np.ndarray:
        """Trapezoid quadrature weights (h/2 at the ends, h inside)."""
        mu = np.full(self.n, self.h)
        mu[0] = mu[-1] = self.h / 2
        return mu


DEFAULT_GRID = Grid(0.0, 1.0, 401)


def sample_field(f: CoefficientField, grid: Grid, x: Optional[np.ndarray] = None):
    """Evaluate a [0,1]-field at physical points of ``grid`` (affine map)."""
    pts = grid.nodes if x is None else np.asarray(x, dtype=float)
    return f(grid.reference(pts))


@dataclass(frozen=True)
class BoundaryCoupling:
    """Two independent linear constraints on (v(a), v(b), v'(a), v'(b)).

    ``rows`` is a 2x4 array of coefficients in that argument order;
    ``kind`` records whether any row links the two endpoints.
    """

    rows: np.ndarray
    kind: str  # "coupled_nonlocal" | "separated"

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.shape != (2, 4):
            raise CouplingError("coupling needs exactly two rows of 4 coefficients")
        s = scipy.linalg.svdvals(rows)
        if s[1] <= 1e-10 * max(s[0], 1e-300):
            raise CouplingError("coupling rows are linearly dependent")


def make_coupling(rows) -> BoundaryCoupling:
    rows = np.asarray(rows, dtype=float)
    mixes = any(
        (abs(r[0]) + abs(r[2]) > 0) and (abs(r[1]) + abs(r[3]) > 0) for r in rows
    )
    return BoundaryCoupling(rows=rows, kind="coupled_nonlocal" if mixes else "separated")


def neumann_coupling() -> BoundaryCoupling:
    return make_coupling([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])


def conservation_row(
    phi: CoefficientField, p: CoefficientField, grid: Grid = DEFAULT_GRID
) -> list:
    """The boundary row that conserves the moment against one kernel
    function phi:
    p(b)[v'(b) phi(b) - v(b) phi'(b)] - p(a)[v'(a) phi(a) - v(a) phi'(a)] = 0.

    Endpoint derivatives of phi use the field's own derivative rule (exact
    where available, one-sided differences for tables).
    """
    scale = 1.0 / (grid.b - grid.a)
    va, vb = phi(0.0), phi(1.0)
    da, db = phi.derivative(0.0) * scale, phi.derivative(1.0) * scale
    pa, pb = p(0.0), p(1.0)
    return [pa * da, -pb * db, -pa * va, pb * vb]


def coupling_from_kernel(
    phi1: CoefficientField,
    phi2: CoefficientField,
    p: CoefficientField,
    grid: Grid = DEFAULT_GRID,
) -> BoundaryCoupling:
    """Boundary rows that conserve the moments against two kernel
    functions, one :func:`conservation_row` each."""
    rows = np.asarray([conservation_row(phi, p, grid) for phi in (phi1, phi2)])
    s = scipy.linalg.svdvals(rows)
    if s[1] <= 1e-9 * max(s[0], 1e-300):
        raise CouplingError(
            "kernel functions give rank-deficient boundary rows "
            "(numerically proportional endpoint data)"
        )
    return make_coupling(rows)


@dataclass(frozen=True)
class SLProblem:
    """Operator data: L v = (p v')' + q v with an inner-product weight.

    p and weight must be strictly positive on the interval; the weight is
    the density of the measure used for all inner products.
    """

    p: CoefficientField
    q: CoefficientField
    weight: CoefficientField
    coupling: BoundaryCoupling


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Assembled finite-volume operator on a grid.

    The stiffness matrix is symmetric tridiagonal and is stored as its
    ``diagonal`` and first ``off_diagonal``. It covers the interior stencil
    and q terms; its boundary rows carry only the one-sided cell flux and
    are completed by the coupling constraints inside :func:`eigensolve`.
    ``mass`` is the diagonal of the weighted inner product (weight times
    trapezoid cell).
    """

    grid: Grid
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    mass: np.ndarray
    weight_values: np.ndarray
    p_end: tuple
    coupling: BoundaryCoupling


def assemble(problem: SLProblem, grid: Grid) -> DiscreteOperator:
    """Discretize the operator; raises AssemblyError if p or the weight is
    not strictly positive at the grid nodes."""
    nodes = grid.nodes
    ref = grid.reference(nodes)
    p_nodes = np.asarray(problem.p(ref), dtype=float)
    w_nodes = np.asarray(problem.weight(ref), dtype=float)
    q_nodes = np.asarray(problem.q(ref), dtype=float)
    if np.any(p_nodes <= 0):
        raise AssemblyError("p must be positive at every grid node")
    if np.any(w_nodes <= 0):
        raise AssemblyError("weight must be positive at every grid node")

    # harmonic integral mean of p per cell: exact fluxes for p v' = const
    inv_p = lambda x: 1.0 / np.asarray(problem.p(grid.reference(x)), dtype=float)  # noqa: E731
    cell_int = _cell_integrals(inv_p, nodes)
    p_half = grid.h / cell_int
    if np.any(~np.isfinite(p_half)) or np.any(p_half <= 0):
        raise AssemblyError("p produced invalid cell averages")

    c = p_half / grid.h
    diagonal = np.zeros(grid.n)
    diagonal[:-1] -= c
    diagonal[1:] -= c
    mu = grid.cell_weights()
    diagonal += q_nodes * mu

    return DiscreteOperator(
        grid=grid,
        diagonal=diagonal,
        off_diagonal=c,
        mass=w_nodes * mu,
        weight_values=w_nodes,
        p_end=(float(p_nodes[0]), float(p_nodes[-1])),
        coupling=problem.coupling,
    )


def apply_operator(op: DiscreteOperator, v: np.ndarray) -> np.ndarray:
    """L v at the grid nodes; boundary rows lack the constraint flux and
    are meaningful only as diagnostics."""
    v = np.asarray(v, dtype=float)
    out = op.diagonal * v
    out[:-1] += op.off_diagonal * v[1:]
    out[1:] += op.off_diagonal * v[:-1]
    return out / op.mass


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Ordered eigenpairs of -L under the boundary coupling.

    Eigenvectors are columns of ``vectors``, orthonormal in the weighted
    inner product diag(mass). ``zero_multiplicity`` counts eigenvalues
    below 1e-8 * max(1, largest computed eigenvalue). ``method`` names the
    solver that ran: "dense", "shift_invert" or "bordered".
    """

    grid: Grid
    eigenvalues: np.ndarray
    vectors: np.ndarray
    weight: np.ndarray
    mass: np.ndarray
    zero_multiplicity: int
    coupling: BoundaryCoupling
    bc_residuals: np.ndarray
    flux_map: Optional[np.ndarray] = None
    method: str = "dense"

    def project(self, v0: np.ndarray) -> np.ndarray:
        """Weighted-inner-product coefficients of v0 on the eigenbasis."""
        return self.vectors.T @ (self.mass * np.asarray(v0, dtype=float))


def _flux_elimination(coupling: BoundaryCoupling, p_end) -> Optional[np.ndarray]:
    """Solve the rows for the endpoint fluxes (f_a, f_b) = W (v_a, v_b).

    Returns None when the flux block is numerically singular (pivot below
    1e-10 of the row scale), in which case the bordered path applies.
    """
    rows = coupling.rows
    pa, pb = p_end
    A2 = np.array([[rows[0, 2] / pa, rows[0, 3] / pb], [rows[1, 2] / pa, rows[1, 3] / pb]])
    Av = rows[:, :2].copy()
    scale = max(np.abs(A2).max(), 1e-300)
    if abs(np.linalg.det(A2)) <= _FLUX_PIVOT_TOL * scale**2:
        return None
    return -np.linalg.solve(A2, Av)


def _require_dense(n: int):
    """Refuse a dense n x n solve whose matrix would exceed the budget."""
    if n > _DENSE_MAX_N:
        raise DenseSizeError(
            f"n = {n} needs a dense {n} x {n} matrix ({8 * n * n / 2**30:.1f} GiB), "
            f"over the {_DENSE_MAX_BYTES // 2**20} MiB budget of the dense "
            f"eigensolver (n <= {_DENSE_MAX_N}); ask for fewer modes "
            "(k <= n/8) or use a smaller n"
        )


def _row_residuals(rows: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """Normalized coupling-row residual of every mode.

    ``quad`` is (modes x 4), each row the mode's (v(a), v(b), v'(a),
    v'(b)). A mode's residual is the largest over the coupling rows of
    |sum of terms| / (1 + largest |term|).
    """
    terms = quad[:, None, :] * rows[None, :, :]
    return np.max(np.abs(terms.sum(axis=2)) / (1.0 + np.abs(terms).max(axis=2)), axis=1)


def _stencil_quad(grid: Grid, vec: np.ndarray) -> np.ndarray:
    """(v(a), v(b), v'(a), v'(b)) per column of ``vec``, with one-sided
    second-order derivative stencils."""
    return np.column_stack(
        [vec[0], vec[-1], vec[:3].T @ _STENCIL_A / grid.h, vec[-3:].T @ _STENCIL_B / grid.h]
    )


def _bordered_eigensolve(op: DiscreteOperator, coupling: BoundaryCoupling, k: int):
    """Fallback collocation eigensolve for couplings without a flux form.

    Builds the square system with the two constraint rows (one-sided
    second-order derivative stencils) in place of the boundary operator
    rows and solves the generalized nonsymmetric problem, keeping finite
    real eigenvalues.
    """
    n = op.grid.n
    _require_dense(n)
    mu = op.grid.cell_weights()
    A = np.zeros((n, n))
    B = np.zeros((n, n))
    for i, row in zip((0, n - 1), coupling.rows):
        A[i, :3] += row[2] * _STENCIL_A / op.grid.h
        A[i, -3:] += row[3] * _STENCIL_B / op.grid.h
        A[i, 0] += row[0]
        A[i, -1] += row[1]
    interior = np.arange(1, n - 1)
    A[interior, interior - 1] = -op.off_diagonal[:-1] / mu[interior]
    A[interior, interior] = -op.diagonal[interior] / mu[interior]
    A[interior, interior + 1] = -op.off_diagonal[1:] / mu[interior]
    B[interior, interior] = op.weight_values[interior]

    lam, vec = scipy.linalg.eig(A, B)
    finite = np.isfinite(lam) & (np.abs(lam.imag) <= 1e-8 * (1 + np.abs(lam.real)))
    lam, vec = lam[finite].real, vec[:, finite].real
    order = np.argsort(lam)
    lam, vec = lam[order], vec[:, order]
    if lam.size < k:
        raise EigensolveError(
            f"bordered eigensolve found only {lam.size} real eigenvalues, needed {k}"
        )
    lam, vec = lam[:k], vec[:, :k]
    # re-orthonormalize in the weighted inner product (Gram-Schmidt)
    for j in range(k):
        for i in range(j):
            vec[:, j] -= (vec[:, i] @ (op.mass * vec[:, j])) * vec[:, i]
        norm = np.sqrt(vec[:, j] @ (op.mass * vec[:, j]))
        if norm <= 0:
            raise EigensolveError("degenerate eigenvector in bordered solve")
        vec[:, j] /= norm
    return lam, vec, _row_residuals(coupling.rows, _stencil_quad(op.grid, vec))


def _folded_tridiagonal(op: DiscreteOperator, W: np.ndarray, root: np.ndarray):
    """T = -M^-1/2 S M^-1/2 with the flux map folded into S.

    T is symmetric tridiagonal apart from the corner pair T[0, -1] =
    T[-1, 0]. Returns (diagonal, off-diagonal, corner), each entry rounded
    as the symmetrization 0.5 (T + T^T) of the unsymmetrized fold rounds it.
    """
    d = -op.diagonal
    d[0] += W[0, 0]
    d[-1] -= W[1, 1]
    c = op.off_diagonal
    off = 0.5 * (-c / root[:-1] / root[1:] + -c / root[1:] / root[:-1])
    corner = 0.5 * (W[0, 1] / root[0] / root[-1] - W[1, 0] / root[-1] / root[0])
    return d / root / root, off, corner


def _dense_eigh(diag, off, corner, k):
    """The k smallest eigenpairs of T by LAPACK, on the dense matrix."""
    n = diag.size
    _require_dense(n)
    T = np.zeros((n, n))
    i = np.arange(n)
    T[i, i] = diag
    T[i[:-1], i[1:]] = T[i[1:], i[:-1]] = off
    T[0, -1] = T[-1, 0] = corner
    try:
        return scipy.linalg.eigh(T, subset_by_index=[0, k - 1])
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolveError(f"symmetric eigensolver failed: {exc}") from exc


def _shift_invert_eigh(diag, off, corner, k):
    """The k smallest eigenpairs of T by shift-invert Lanczos (ARPACK).

    The shift sigma must lie below the whole spectrum, so that the k
    eigenvalues nearest to it are the k smallest, even when q > 0 makes
    some negative. Shifts are tried from -s downwards by factors of 4,
    s = max|T_ii| / (n - 1)^2 being the operator's eigenvalue scale. The
    first whose LDL^T factorization of T - sigma I has only positive
    pivots is taken: by Sylvester's law of inertia no eigenvalue lies
    below it. (A Gershgorin bound would also do, but the corner terms put
    it about 4/h below the spectrum, and a shift that far away slows
    Lanczos.) The start vector is fixed, so two identical calls agree to
    the bit.
    """
    import scipy.sparse  # first use only: most runs never take this path
    import scipy.sparse.linalg

    n = diag.size
    idx = np.arange(n)
    rows = np.concatenate([idx, idx[:-1], idx[1:], [0, n - 1]])
    cols = np.concatenate([idx, idx[1:], idx[:-1], [n - 1, 0]])
    scale = np.abs(diag).max() / (n - 1) ** 2
    for j in range(60):
        sigma = -scale * 4.0**j
        shifted = scipy.sparse.csc_matrix(
            (np.concatenate([diag - sigma, off, off, [corner, corner]]), (rows, cols)),
            shape=(n, n),
        )
        lu = scipy.sparse.linalg.splu(
            shifted,
            permc_spec="NATURAL",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
        if np.all(lu.perm_r == idx) and np.all(lu.U.diagonal() > 0):
            break
    else:
        raise EigensolveError("no shift below the spectrum was found")
    solve = scipy.sparse.linalg.LinearOperator((n, n), matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        # with a shift and OPinv, ARPACK applies only OPinv; A gives the shape
        lam, Y = scipy.sparse.linalg.eigsh(shifted, k=k, sigma=sigma, OPinv=solve, v0=v0)
    except scipy.sparse.linalg.ArpackError as exc:
        raise EigensolveError(f"shift-invert Lanczos failed: {exc}") from exc
    order = np.argsort(lam)
    return lam[order], Y[:, order]


def eigensolve(
    op: DiscreteOperator,
    coupling: Optional[BoundaryCoupling] = None,
    k: Optional[int] = None,
) -> EigenSystem:
    """k smallest eigenpairs of -L v = lambda v under the coupling rows.

    The primary path folds the rows into the operator through the endpoint
    fluxes, keeping an exactly symmetric definite pencil, and returns
    eigenvectors orthonormal in the weighted inner product. The folded
    matrix is tridiagonal apart from two corners. Few modes (n >= 256 and
    k <= n/8, the measured crossover) come from shift-invert Lanczos on
    its sparse form; more modes from LAPACK on the dense matrix, which is
    refused with DenseSizeError when it would exceed 256 MiB.
    """
    coupling = coupling if coupling is not None else op.coupling
    n = op.grid.n
    k = n if k is None else int(k)
    if not 1 <= k <= n:
        raise ArgumentError(f"k must be between 1 and {n}")

    W = _flux_elimination(coupling, op.p_end)
    if W is None:
        lam, vec, residuals = _bordered_eigensolve(op, coupling, k)
        method = "bordered"
    else:
        asym = abs(W[0, 1] + W[1, 0])
        if asym > 1e-8 * (1.0 + np.abs(W).max()):
            raise AssemblyError(
                "coupling rows are not mutually self-adjoint; the symmetric "
                "eigensolver does not apply"
            )
        root = np.sqrt(op.mass)
        diag, off, corner = _folded_tridiagonal(op, W, root)
        if n >= _FEW_MODES_MIN_N and k <= n // 8:
            lam, Y = _shift_invert_eigh(diag, off, corner, k)
            method = "shift_invert"
        else:
            lam, Y = _dense_eigh(diag, off, corner, k)
            method = "dense"
        vec = Y / root[:, None]
        residuals = _implied_flux_residuals(coupling, op.p_end, W, vec)

    tau0 = 1e-8 * max(1.0, float(lam[-1]))
    zero_multiplicity = int(np.sum(np.abs(lam) < tau0))
    return EigenSystem(
        grid=op.grid,
        eigenvalues=np.asarray(lam, dtype=float),
        vectors=np.asarray(vec, dtype=float),
        weight=op.weight_values,
        mass=op.mass,
        zero_multiplicity=zero_multiplicity,
        coupling=coupling,
        bc_residuals=residuals,
        flux_map=W,
        method=method,
    )


def _implied_flux_residuals(coupling, p_end, W, vec) -> np.ndarray:
    """Row residuals using the scheme's own boundary-flux reconstruction.

    The fluxes implied by the folded operator satisfy the rows by
    construction; the residual reports the floating-point defect. A
    stencil-based consistency check lives in
    :func:`stencil_boundary_residuals`.
    """
    pa, pb = p_end
    ends = vec[[0, -1]].T
    f = ends @ W.T
    quad = np.column_stack([ends, f[:, 0] / pa, f[:, 1] / pb])
    return _row_residuals(coupling.rows, quad)


def stencil_boundary_residuals(eig: EigenSystem) -> np.ndarray:
    """Coupling-row residuals evaluated with one-sided second-order
    derivative stencils (an O(h^2) consistency diagnostic)."""
    return _row_residuals(eig.coupling.rows, _stencil_quad(eig.grid, eig.vectors))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Time-stamped grid snapshots of an evolution."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray  # shape (len(times), n)
    weight: Optional[np.ndarray] = None
    truncation_error: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)  # solver facts, by name

    def snapshot(self, t: float) -> np.ndarray:
        i = int(np.argmin(np.abs(self.times - t)))
        if abs(self.times[i] - t) > 1e-9 * max(1.0, abs(t)):
            raise ArgumentError(f"no snapshot at t = {t}")
        return self.values[i]


def evolve(eig: EigenSystem, v0: np.ndarray, times: Sequence[float]) -> Trajectory:
    """Expand v0 on the eigenbasis and evolve each mode by exp(-lambda t).

    The truncation remainder of the last available mode, |a_K| e^(-lam_K t),
    is reported per snapshot.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ArgumentError("times must be a non-empty list")
    a = eig.project(v0)
    lam = eig.eigenvalues
    decay = np.exp(-np.outer(times, lam))
    values = decay * a[None, :] @ eig.vectors.T
    truncation = np.abs(a[-1]) * decay[:, -1]
    return Trajectory(
        grid=eig.grid,
        times=times,
        values=values,
        weight=eig.weight,
        truncation_error=truncation,
    )


def steady_state(eig: EigenSystem, v0: np.ndarray) -> np.ndarray:
    """Projection of v0 onto the zero-eigenvalue subspace (the t -> inf
    limit of the evolution)."""
    zm = eig.zero_multiplicity
    if zm == 0:
        raise NoSteadyStateError("operator has no zero eigenvalue")
    a = eig.project(v0)
    return eig.vectors[:, :zm] @ a[:zm]


@dataclass(frozen=True)
class PositivityReport:
    min_value: float
    time: float
    x: float
    floor: float
    passed: bool


def positivity_check(traj: Trajectory, floor: float = 1e-10) -> PositivityReport:
    """Minimum over all snapshots; passes when it is >= -floor."""
    values = traj.values
    flat = int(np.argmin(values))
    it, ix = np.unravel_index(flat, values.shape)
    vmin = float(values[it, ix])
    return PositivityReport(
        min_value=vmin,
        time=float(traj.times[it]),
        x=float(traj.grid.nodes[ix]),
        floor=floor,
        passed=vmin >= -floor,
    )


def weighted_inner(
    u: np.ndarray, v: np.ndarray, weight: np.ndarray, grid: Grid
) -> float:
    """Trapezoid approximation of the weighted inner product on the grid."""
    mu = grid.cell_weights()
    return float(np.sum(mu * np.asarray(weight) * np.asarray(u) * np.asarray(v)))


def restrict_modes(eig: EigenSystem, keep) -> EigenSystem:
    """EigenSystem with a subset of modes (diagnostic tool)."""
    keep = np.asarray(keep)
    return replace(
        eig,
        eigenvalues=eig.eigenvalues[keep],
        vectors=eig.vectors[:, keep],
        bc_residuals=eig.bc_residuals[keep],
    )
