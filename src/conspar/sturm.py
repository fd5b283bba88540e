"""Self-adjoint operator discretization, coupled-boundary eigensolves, and
spectral evolution.

The operator L v = (p v')' + q v, with an inner-product weight, is
discretized once by :func:`assemble` with a vertex-centered finite-volume
scheme: cell fluxes use the harmonic integral mean of p, so any function
with p v' constant (the kernel of the q = 0 operator) is reproduced
exactly by the discrete operator. The operator carries no boundary
conditions. They enter :func:`eigensolve` as a separate coupling, through
the endpoint fluxes p v'(a), p v'(b): the two coupling rows are solved
for the fluxes in terms of the endpoint values and folded into the
boundary rows. When they cannot be solved for both fluxes, they tie v(b)
to v(a) or fix both (Dirichlet-type rows), and the tied or fixed end values
are eliminated instead. For any mutually self-adjoint pair of rows this
produces an exactly symmetric matrix pencil, so a standard symmetric
eigensolver applies and the discrete spectrum is real with M-orthonormal
eigenvectors.

All public types are immutable after construction and safe for concurrent
read-only use; evolution over a list of times is a pure map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
)
from .fields import CoefficientField, _cell_integrals

_FLUX_PIVOT_TOL = 1e-10
_DENSE_MAX_BYTES = 2**28  # one eigensolver array: dense n x n (n <= 5792), or n x ncv
_FEW_MODES_MIN_N = 256  # below this, dense LAPACK was faster for every k
# corner-free: subset MRRR and the whole spectrum took equal time, the
# subset's Rayleigh-Ritz step included, at k = 0.15-0.2 m (m = 99 to 1599)
_SUBSET_MAX_SHARE = 6
_LEAST_MODES = 16  # 4-7 modes carry anything above 1e-16 at t = 1 (n = 401)
_ALIVE_EXPONENT = 53 * math.log(2.0)  # exp(-lambda t) > 2^-53: the mode is alive at t
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


def sample_field(f: CoefficientField, grid: Grid):
    """Evaluate a [0,1]-field at the nodes of ``grid`` (affine map)."""
    return f(grid.reference(grid.nodes))


@dataclass(frozen=True)
class BoundaryCoupling:
    """Two independent linear constraints on (v(a), v(b), v'(a), v'(b)).

    ``rows`` is a 2x4 array of coefficients in that argument order.
    """

    rows: np.ndarray

    def __post_init__(self):
        rows = np.asarray(self.rows, dtype=float)
        object.__setattr__(self, "rows", rows)
        if rows.shape != (2, 4):
            raise CouplingError("coupling needs exactly two rows of 4 coefficients")
        s = scipy.linalg.svdvals(rows)
        if s[1] <= 1e-10 * max(s[0], 1e-300):
            raise CouplingError("coupling rows are linearly dependent")


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
    return BoundaryCoupling(rows)


@dataclass(frozen=True, eq=False)
class DiscreteOperator:
    """Assembled finite-volume operator on a grid.

    The stiffness matrix is symmetric tridiagonal and is stored as its
    ``diagonal`` and first ``off_diagonal``. It covers the interior stencil
    and q terms; its boundary rows carry only the one-sided cell flux and
    are completed by the coupling constraints inside :func:`eigensolve`.
    ``mass`` is the diagonal of the weighted inner product (weight times
    trapezoid cell). A zero mass marks an end node with no unknown (an
    absorbing end of a degenerate interior); the coupling must fix it.
    """

    grid: Grid
    diagonal: np.ndarray
    off_diagonal: np.ndarray
    mass: np.ndarray
    weight_values: np.ndarray
    p_end: tuple


def assemble(
    p: CoefficientField, q: CoefficientField, weight: CoefficientField, grid: Grid
) -> DiscreteOperator:
    """Discretize L v = (p v')' + q v; the weight is the density of the
    measure used for all inner products. Raises AssemblyError if p or the
    weight is not strictly positive at the grid nodes."""
    nodes = grid.nodes
    ref = grid.reference(nodes)
    p_nodes = np.asarray(p(ref), dtype=float)
    w_nodes = np.asarray(weight(ref), dtype=float)
    q_nodes = np.asarray(q(ref), dtype=float)
    if np.any(p_nodes <= 0):
        raise AssemblyError("p must be positive at every grid node")
    if np.any(w_nodes <= 0):
        raise AssemblyError("weight must be positive at every grid node")

    # harmonic integral mean of p per cell: exact fluxes for p v' = const
    inv_p = lambda x: 1.0 / np.asarray(p(grid.reference(x)), dtype=float)  # noqa: E731
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
    inner product diag(mass); None when the caller asked for eigenvalues
    only. The folded solvers satisfy the coupling rows by construction;
    :func:`stencil_boundary_residuals` is the O(h^2) check on the vectors.
    ``zero_multiplicity`` counts eigenvalues below a threshold: from
    :func:`eigensolve`, 1e-8 * max(1, largest computed eigenvalue); from
    :func:`eigensolve_alive`, one that depends on neither k nor n (see
    there). ``dimension`` is the fold's m, the number of modes the coupled
    problem has on the grid: n, n - 1 when the rows tie v(b) to v(a),
    n - 2 when they fix both. ``method`` names the solver that ran: "stemr"
    or "stevd" (LAPACK's tridiagonal drivers, for a folded operator with no
    corner), "dense", "shift_invert" or "band" (eigenvalues only).
    """

    grid: Grid
    eigenvalues: np.ndarray
    vectors: Optional[np.ndarray]
    mass: np.ndarray
    zero_multiplicity: int
    coupling: BoundaryCoupling
    dimension: int
    method: str = "dense"

    def project(self, v0: np.ndarray) -> np.ndarray:
        """Weighted-inner-product coefficients of v0 on the eigenbasis."""
        return self.vectors.T @ (self.mass * np.asarray(v0, dtype=float))


def _flux_elimination(coupling: BoundaryCoupling, p_end) -> Optional[np.ndarray]:
    """Solve the rows for the endpoint fluxes (f_a, f_b) = W (v_a, v_b).

    Returns None when the flux block is numerically singular (pivot below
    1e-10 of the row scale); :func:`_fold` then eliminates end values
    instead.
    """
    rows = coupling.rows
    pa, pb = p_end
    A2 = np.array([[rows[0, 2] / pa, rows[0, 3] / pb], [rows[1, 2] / pa, rows[1, 3] / pb]])
    Av = rows[:, :2].copy()
    scale = max(np.abs(A2).max(), 1e-300)
    if abs(np.linalg.det(A2)) <= _FLUX_PIVOT_TOL * scale**2:
        return None
    return -np.linalg.solve(A2, Av)


def _fold(op: DiscreteOperator, coupling: BoundaryCoupling):
    """Fold the rows into -L: T = M^-1/2 K M^-1/2 on the m unknowns they
    leave, as (diagonal, off-diagonal, corner, root of M, lift).

    T is tridiagonal apart from the corner pair T[0, -1] = T[-1, 0] (which
    adds to the off-diagonal at m = 2), each entry rounded as 0.5 (T + T^T)
    rounds it; ``lift`` maps T's vectors over ``root`` to all n nodes. By
    the rank of the rows' flux block: 2, the fluxes W (v_a, v_b)
    (:func:`_flux_elimination`) fold into the end rows and m = n; 1, a
    combination of the rows is v_e = gamma v_k, e the end with the larger
    coefficient (|gamma| <= 1; the node order is reversed when e = a), and
    the other row must give the boundary term f_a v_a - f_b v_b as
    kappa v_a^2, as Abel's identity ensures for conservation rows. Node
    n - 1 merges into node 0 with weight gamma^2, node n - 2 reaches it
    through the corner, and m = n - 1; 0, the rows fix v_a = v_b = 0, both
    end nodes are dropped and m = n - 2. Raises AssemblyError for rows that
    are not mutually self-adjoint.
    """
    d, c, mass, lift = -op.diagonal, op.off_diagonal, op.mass, lambda y: y
    W = _flux_elimination(coupling, op.p_end)
    if W is not None:
        asym = abs(W[0, 1] + W[1, 0]) / (1.0 + np.abs(W).max())
        d[0] += W[0, 0]
        d[-1] -= W[1, 1]
        corners = (W[0, 1], -W[1, 0])
    else:
        flux, value = coupling.rows[:, 2:] / np.asarray(op.p_end), coupling.rows[:, :2]
        if np.abs(flux).max() * (op.grid.b - op.grid.a) <= _FLUX_PIVOT_TOL * np.abs(value).max():
            asym, d, c, mass, corners = 0.0, d[1:-1], c[1:-1], mass[1:-1], (0.0, 0.0)
            lift = lambda y: np.pad(y, ((1, 1), (0, 0)))  # noqa: E731
        else:
            U = np.linalg.svd(flux)[0]  # U[:, 1] annuls the flux block
            tie, g, r = U[:, 1] @ value, U[:, 0] @ flux, U[:, 0] @ value
            step = -1 if abs(tie[0]) > abs(tie[1]) else 1
            if step < 0:  # x -> a + b - x
                tie, g, r = tie[::-1], -g[::-1], r[::-1]
            gamma = -tie[0] / tie[1]
            h = np.array([1.0, -gamma])  # g = s h: s (f_a - gamma f_b) = -(r_a + gamma r_b) v_a
            s = g @ h / (h @ h)
            asym = np.abs(g - s * h).max() / np.abs(g).max()
            d, c, mass = d[::step], c[::step], mass[::step]
            d = np.r_[d[0] + gamma**2 * d[-1] - (r[0] + gamma * r[1]) / s, d[1:-1]]
            mass = np.r_[mass[0] + gamma**2 * mass[-1], mass[1:-1]]
            c, corners = c[:-1], (-gamma * c[-1],) * 2
            lift = lambda y: np.vstack([y, gamma * y[:1]])[::step]  # noqa: E731
    if asym > 1e-8:
        raise AssemblyError(
            "coupling rows are not mutually self-adjoint; the symmetric "
            "eigensolver does not apply"
        )
    root = np.sqrt(mass)
    off = 0.5 * (-c / root[:-1] / root[1:] + -c / root[1:] / root[:-1])
    corner = 0.5 * (corners[0] / root[0] / root[-1] + corners[1] / root[-1] / root[0])
    diag = d / root / root
    if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off)) and np.isfinite(corner)):
        raise EigensolveError("the folded operator overflows double precision")
    return diag, off, corner, root, lift


def _require_budget(n: int, cols: int):
    """Refuse a solve whose n x cols array (the dense matrix when cols = n,
    which the band form is counted as, else the Lanczos basis) would exceed
    the budget."""
    if 8 * n * cols > _DENSE_MAX_BYTES:
        raise DenseSizeError(
            f"n = {n} counts as a {'dense' if cols == n else 'Lanczos'} {n} x {cols} array "
            f"({8 * n * cols / 2**20:.2f} MiB), over the {_DENSE_MAX_BYTES >> 20} MiB budget"
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


def _dense_eigh(diag, off, corner, k):
    """The k smallest eigenpairs of T by LAPACK, on the dense matrix."""
    n = diag.size
    T = np.zeros((n, n))
    i = np.arange(n)
    T[i, i] = diag
    T[i[:-1], i[1:]] = T[i[1:], i[:-1]] = off
    T[0, -1] += corner
    T[-1, 0] += corner
    try:
        return scipy.linalg.eigh(T, subset_by_index=[0, k - 1])
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolveError(f"symmetric eigensolver failed: {exc}") from exc


def _band_eigh(diag, off, corner, k):
    """The k smallest eigenvalues of T, with no n x n array.

    Ordered middle-out (the end nodes last), T is a band of half-width 2
    that LAPACK reduces for every eigenvalue (ends first lost 12.4 eps *
    lambda_max on the smallest).
    """
    n = diag.size
    idx = np.arange(n)
    pos = n - 1 - np.minimum(2 * idx, 2 * (n - 1 - idx) + 1)
    i, j = np.r_[pos[:-1], pos[0]], np.r_[pos[1:], pos[-1]]
    band = np.zeros((3, n))  # upper band storage: row 2 is the diagonal
    band[2, pos] = diag
    np.add.at(band, (2 - np.abs(i - j), np.maximum(i, j)), np.r_[off, corner])
    # at most n rows: with n = 1 (Dirichlet rows on 3 nodes) three read 0
    return scipy.linalg.eig_banded(band[-n:], eigvals_only=True)[:k]


def _count_below(diag, off, corner, sigma) -> int:
    """Eigenvalues of T below sigma (T tridiagonal plus the corner pair, which
    adds to the off-diagonal at n = 2): the negative pivots of T - sigma I =
    L D L^T in natural order, the corner's fill carried down the last row.
    A zero or non-finite pivot recounts just above sigma, then gives n, as
    does a sigma that is not finite."""
    n, sigma = diag.size, float(sigma)  # Python floats: numpy scalars slow the loop
    if not math.isfinite(sigma):
        return n
    d, b = diag.tolist(), off.tolist()
    for shift in (sigma, sigma + 1e-9 * max(1.0, abs(sigma))):
        count, pivot, b2 = 0, 1.0, 0.0
        fill, last = float(corner), d[-1] - shift  # the last row: column i, diagonal
        for i in range(n - 1):
            pivot = d[i] - shift - b2 / pivot
            if not (pivot < 0.0 or pivot > 0.0):
                break
            count += pivot < 0.0
            if i == n - 2:
                fill += b[i]
            last -= fill * fill / pivot
            fill, b2 = -fill * b[i] / pivot, b[i] * b[i]
        else:
            if last < 0.0 or last > 0.0:
                return count + (last < 0.0)
    return n


def _shift_invert_eigh(diag, off, corner, k):
    """The k smallest eigenpairs of T by shift-invert Lanczos (ARPACK).

    The shift must lie below the whole spectrum, so that the k eigenvalues
    nearest to it are the k smallest, even when q > 0 makes some negative.
    It is the first of -s 4^j, j = 0, 1, ..., with s = max|T_ii| / (n - 1)^2
    the operator's eigenvalue scale, below which :func:`_count_below`
    counts no eigenvalue. (A Gershgorin bound lies about 4/h below the
    spectrum, and a shift that far away slows Lanczos.) ARPACK solves with
    the sparse LU factors of T - sigma I. The start vector is fixed, so
    identical calls agree to the bit.
    """
    import scipy.sparse  # first use only: most runs never take this path
    import scipy.sparse.linalg

    n = diag.size
    scale = np.abs(diag).max() / (n - 1) ** 2
    for j in range(60):
        sigma = -scale * 4.0**j
        if _count_below(diag, off, corner, sigma) == 0:
            break
    else:
        raise EigensolveError("no shift below the spectrum was found")
    idx = np.arange(n)
    rows, cols = np.r_[idx, idx[:-1], idx[1:], 0, n - 1], np.r_[idx, idx[1:], idx[:-1], n - 1, 0]
    shifted = scipy.sparse.csc_matrix(
        (np.r_[diag - sigma, off, off, corner, corner], (rows, cols)), shape=(n, n)
    )
    lu = scipy.sparse.linalg.splu(
        shifted, permc_spec="NATURAL", diag_pivot_thresh=0.0, options={"SymmetricMode": True}
    )
    solve = scipy.sparse.linalg.LinearOperator(shifted.shape, matvec=lu.solve, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        # with a shift and OPinv, ARPACK applies only OPinv; A gives the shape
        lam, Y = scipy.sparse.linalg.eigsh(shifted, k=k, sigma=sigma, OPinv=solve, v0=v0)
    except scipy.sparse.linalg.ArpackError as exc:
        raise EigensolveError(f"shift-invert Lanczos failed: {exc}") from exc
    order = np.argsort(lam)
    return lam[order], Y[:, order]


def _tridiagonal_eigh(diag, off, k):
    """The k smallest eigenpairs of a corner-free T and the LAPACK driver
    that found them, each filling an n x n array: subset MRRR ("stemr",
    named, since scipy's "auto" takes stebz and stein for a subset) for
    k <= n/6, else the whole spectrum by divide and conquer ("stevd"),
    sliced to k."""
    subset = _SUBSET_MAX_SHARE * k <= diag.size
    driver = "stemr" if subset else "stevd"
    try:
        lam, vec = scipy.linalg.eigh_tridiagonal(
            diag, off, select="i" if subset else "a", select_range=(0, k - 1),
            lapack_driver=driver,
        )
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover
        raise EigensolveError(f"tridiagonal eigensolver failed: {exc}") from exc
    return lam[:k], vec[:, :k], driver


def _rayleigh_ritz(diag, off, corner, Y):
    """The eigenpairs of Y^T T Y, ascending, lifted by Y (orthonormal
    columns); T Y is formed row by row, so each row cancels before the sums."""
    TY = diag[:, None] * Y
    TY[:-1] += off[:, None] * Y[1:]
    TY[1:] += off[:, None] * Y[:-1]
    TY[0] += corner * Y[-1]
    TY[-1] += corner * Y[0]
    lam, R = scipy.linalg.eigh(Y.T @ TY, driver="evd")
    return lam, Y @ R


def _smallest_eigh(diag, off, corner, k, vectors=True):
    """The k smallest eigenpairs of T and the driver that found them. With
    no corner, vectors wanted and n x n within budget, LAPACK's tridiagonal
    drivers (:func:`_tridiagonal_eigh`). Otherwise few modes (n >= 256 and
    k <= n/8, the measured crossover) by shift-invert Lanczos in an
    n x max(2k + 1, 20) basis (scipy's ncv), more by LAPACK on the dense
    n x n matrix, or on the band form for eigenvalues only; refused when
    that array (n x n for the band form) is over budget.

    Each driver keeps the pair rule that measured best on it on the
    degenerate interior's 38-case sweep. A subset driver's eigenvalues err
    by O(eps ||T||) ~ n^2, which one Rayleigh-Ritz step removes: subset
    MRRR vectors take QR and then the step, a shift-invert basis the step
    alone; "stevd" and "dense" keep their own pairs."""
    n = diag.size
    if corner == 0 and vectors and 8 * n * n <= _DENSE_MAX_BYTES:
        lam, Y, driver = _tridiagonal_eigh(diag, off, k)
        if driver == "stevd":
            return lam, Y, driver
        return (*_rayleigh_ritz(diag, off, corner, np.linalg.qr(Y)[0]), driver)
    few = n >= _FEW_MODES_MIN_N and k <= n // 8
    _require_budget(n, max(2 * k + 1, 20) if few else n)
    if few:
        Y = _shift_invert_eigh(diag, off, corner, k)[1]
        return (*_rayleigh_ritz(diag, off, corner, Y), "shift_invert")
    if not vectors:
        return _band_eigh(diag, off, corner, k), None, "band"
    return (*_dense_eigh(diag, off, corner, k), "dense")


def eigensolve(
    op: DiscreteOperator, coupling: BoundaryCoupling, k: Optional[int] = None, vectors: bool = True
) -> EigenSystem:
    """k smallest eigenpairs of -L v = lambda v under the coupling rows, all
    m of the fold's by default.

    :func:`_fold` folds the rows into the operator through the endpoint
    fluxes, or eliminates the end values they tie or fix, keeping an
    exactly symmetric definite pencil; the eigenvectors are orthonormal in
    the weighted inner product on all n nodes. The folded matrix is
    tridiagonal apart from two corners, and :func:`_smallest_eigh` picks
    its driver. With the corners zero (a
    coupling whose rows do not tie the two ends, such as one law plus a
    zero-flux row, or Dirichlet rows) LAPACK's tridiagonal drivers find
    the modes: subset MRRR for few, the whole spectrum for more. With
    corners, shift-invert Lanczos on the sparse form finds few modes and
    LAPACK on the dense matrix more. Each is refused with DenseSizeError
    when its array would exceed 256 MiB, and a corner-free solve over that
    budget takes shift-invert Lanczos. With ``vectors=False`` the result
    carries no vectors, and more modes come from the band form, which
    computes eigenvalues only.
    """
    folded = _fold(op, coupling)
    return _eigensystem(op, coupling, folded, folded[0].size if k is None else int(k), vectors)


def eigensolve_alive(
    op: DiscreteOperator,
    coupling: BoundaryCoupling,
    times: Sequence[float],
    least: int = _LEAST_MODES,
    spare: int = 1,
) -> Optional[EigenSystem]:
    """The modes still alive at t_min, the first positive snapshot of
    ``times``, from one fold that both counts and solves them.

    A mode is alive while exp(-lambda t_min) > 2^-53, that is below
    53 ln 2 / t_min; the inertia of the folded T counts them
    (:func:`_count_below`), every mode when that bound overflows and none
    when no snapshot is positive. k is that count plus
    ``spare``, at least ``least`` and at most the fold's m, and
    :func:`eigensolve`'s drivers find the k smallest. With the default
    spare mode exp(-lambda_k t_min) <= 2^-53, and since the basis is
    M-orthonormal and ordered, the modes left out of data v0 have weighted
    norm at most exp(-lambda_k t) ||v0||_M at every t >= t_min, the bound
    :func:`evolve` reports. None when k is 0.

    Since k follows t_min, ``zero_multiplicity`` counts eigenvalues below
    1e-4 pi^2 max(p / w) / (b - a)^2, a fixed share of the continuous
    problem's eigenvalue scale, with p / w read from the fold as
    h^2 |T[i, i+1]| (sqrt 2 times p / w next to an end node's half cell).
    For p = w = 1 it is 9.9e-4, or 1.4e-3 with a half cell: above the
    lumped q's O(h^2) offset of a curved law's zero pair (-5.07e-5 for
    cos(pi x) and sin(pi x) at n = 401) with 16 modes as with all, and far
    below the heat problem's lambda_3 = 4 pi^2 at any n.
    """
    folded = _fold(op, coupling)
    diag, off, corner = folded[:3]
    times = np.asarray(times, dtype=float)
    alive = 0
    if np.any(times > 0):
        # a Python float: a subnormal t_min gives inf, not a numpy warning
        alive = _count_below(diag, off, corner, _ALIVE_EXPONENT / float(times[times > 0].min()))
    k = min(diag.size, max(least, alive + spare))
    if not k:
        return None
    scale = (math.pi * op.grid.h / (op.grid.b - op.grid.a)) ** 2 * np.abs(off).max(initial=0.0)
    return _eigensystem(op, coupling, folded, k, zero_below=1e-4 * scale)


def _eigensystem(op, coupling, folded, k, vectors=True, zero_below=None) -> EigenSystem:
    """The k smallest eigenpairs of a folded operator, lifted to all n
    nodes, with the eigenvalues below ``zero_below`` (by default 1e-8 *
    max(1, lambda_k)) counted as zero."""
    diag, off, corner, root, lift = folded
    n, m = op.grid.n, diag.size
    if not 1 <= k <= m:
        a, b = f"v({op.grid.a:g})", f"v({op.grid.b:g})"
        why = {n - 1: f"tie {b} to {a}", n - 2: f"fix {a} = {b} = 0"}.get(m)
        why = f": the coupling rows {why}, so n = {n} has {m} modes" if why else ""
        raise ArgumentError(f"k must be between 1 and {m}{why}")
    lam, Y, method = _smallest_eigh(diag, off, corner, k, vectors)
    vec = lift(Y / root[:, None]) if vectors else None

    tau0 = 1e-8 * max(1.0, float(lam[-1])) if zero_below is None else zero_below
    zero_multiplicity = int(np.sum(np.abs(lam) < tau0))
    return EigenSystem(
        grid=op.grid,
        eigenvalues=np.asarray(lam, dtype=float),
        vectors=vec,
        mass=op.mass,
        zero_multiplicity=zero_multiplicity,
        coupling=coupling,
        dimension=m,
        method=method,
    )


def count_below(op: DiscreteOperator, coupling: BoundaryCoupling, sigma: float) -> int:
    """Number of eigenvalues of -L under the coupling below sigma, by the
    inertia of the folded T - sigma I (:func:`_count_below`, a pivot loop
    with no factorization kept). It is m, the fold's every mode, when sigma
    is not finite."""
    return _count_below(*_fold(op, coupling)[:3], sigma)


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
    truncation_error: Optional[np.ndarray] = None
    diagnostics: dict = field(default_factory=dict)  # solver facts, by name


def evolve(eig: EigenSystem, v0: np.ndarray, times: Sequence[float]) -> Trajectory:
    """Expand v0 on the eigenbasis and evolve each mode by exp(-lambda t).

    With K < m modes (m the fold's dimension), the modes left out have
    weighted norm at most e^(-lam_K t) ||v0||_M at t >= 0, since the full
    basis is M-orthonormal and ordered; that bound is reported per
    snapshot, and is 0 when every mode is kept.
    """
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ArgumentError("times must be a non-empty list")
    v0 = np.asarray(v0, dtype=float)
    a = eig.project(v0)
    lam = eig.eigenvalues
    decay = np.exp(-np.outer(times, lam))
    values = decay * a[None, :] @ eig.vectors.T
    norm = np.sqrt(eig.mass @ v0**2) if lam.size < eig.dimension else 0.0
    truncation = norm * decay[:, -1]
    return Trajectory(
        grid=eig.grid,
        times=times,
        values=values,
        truncation_error=truncation,
    )


@dataclass(frozen=True)
class PositivityReport:
    min_value: float
    time: float
    x: float
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
        passed=vmin >= -floor,
    )


def weighted_inner(
    u: np.ndarray, v: np.ndarray, weight: np.ndarray, grid: Grid
) -> float:
    """Trapezoid approximation of the weighted inner product on the grid."""
    mu = grid.cell_weights()
    return float(np.sum(mu * np.asarray(weight) * np.asarray(u) * np.asarray(v)))


def orthonormalize_laws(
    law_values: np.ndarray, weight: np.ndarray, grid: Grid
) -> np.ndarray:
    """Gram-Schmidt in the weighted inner product; rows are the laws (or
    any grid functions). Raises InputError on a dependent row."""
    out = np.array(law_values, dtype=float)
    for i in range(out.shape[0]):
        for j in range(i):
            out[i] -= weighted_inner(out[i], out[j], weight, grid) * out[j]
        norm = np.sqrt(weighted_inner(out[i], out[i], weight, grid))
        if norm <= 0:
            raise InputError("laws are not independent; cannot orthonormalize")
        out[i] /= norm
    return out

