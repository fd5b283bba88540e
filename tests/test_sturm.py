import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from conspar import sturm
from conspar.conservative import build_totally_conservative
from conspar.errors import (
    ArgumentError,
    AssemblyError,
    CouplingError,
    DenseSizeError,
    InputError,
)
from conspar.fields import (
    constant_field,
    field_from_callable,
    field_from_expression,
)
from conspar.sturm import (
    BoundaryCoupling,
    Grid,
    _row_residuals,
    _stencil_quad,
    apply_operator,
    assemble,
    count_below,
    coupling_from_kernel,
    eigensolve,
    evolve,
    orthonormalize_laws,
    positivity_check,
    stencil_boundary_residuals,
    weighted_inner,
)

# frozen from an independent fine-grid collocation eigensolve (one-sided
# stencil rows, generalized nonsymmetric solve, Richardson over n = 801/1601)
HEAT_COUPLED_LAMBDA3 = 39.47841709
HEAT_COUPLED_LAMBDA4 = 80.76278762


class TestGrid:
    def test_basic(self):
        g = Grid(0.0, 1.0, 401)
        assert g.h == pytest.approx(1 / 400)
        assert g.nodes[0] == 0.0 and g.nodes[-1] == 1.0

    def test_rejects_bad(self):
        with pytest.raises(InputError):
            Grid(0.0, 1.0, 2)
        with pytest.raises(InputError):
            Grid(1.0, 0.0, 11)


class TestAssemble:
    def test_constants_in_kernel(self, grid, one, zero):
        op = assemble(one, zero, one, grid)
        out = apply_operator(op, np.ones(grid.n))
        # zero up to roundoff at the h^-2 operator scale
        assert np.max(np.abs(out[1:-1])) <= 1e-9

    def test_stencil_exact_on_quadratics(self, grid, one, zero):
        op = assemble(one, zero, one, grid)
        out = apply_operator(op, grid.nodes**2)
        assert np.max(np.abs(out[1:-1] - 2.0)) <= 1e-8

    def test_variable_p_against_symbolic_oracle(self, grid, zero):
        # (p v')' for p = 1 + x, v = x^2, via sympy
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        expr = sympy.diff((1 + x) * sympy.diff(x**2, x), x)
        exact = sympy.lambdify(x, expr)(grid.nodes[1:-1])
        p = field_from_callable(lambda t: 1.0 + np.asarray(t), "1+x")
        op = assemble(p, zero, constant_field(1.0), grid)
        out = apply_operator(op, grid.nodes**2)
        assert np.max(np.abs(out[1:-1] - exact)) <= 10 * grid.h**2

    def test_rejects_nonpositive_p_or_weight(self, grid, one, zero):
        bad = field_from_expression("x-1/2")
        with pytest.raises(AssemblyError):
            assemble(bad, zero, one, grid)
        with pytest.raises(AssemblyError):
            assemble(one, zero, bad, grid)


class TestCouplingFromKernel:
    def test_heat_rows_explicit(self, heat_coupling):
        rows = heat_coupling.rows
        # first law: v'(1) - v'(0) = 0
        assert np.allclose(rows[0], [0.0, 0.0, -1.0, 1.0])
        # second law: v(0) - v(1) + v'(1) = 0
        assert np.allclose(rows[1], [1.0, -1.0, 0.0, 1.0])

    def test_neutral_transformed_rows(self, grid, one, zero):
        # with unit drift weight and fixation moment x, the rows reduce to
        # p(1) v'(1) = v'(0) and p(1)[v'(1) - phi'(1) v(1)] = -phi'(0) v(0)
        from conspar.fields import exponential_weight, fixation_probability

        psi = zero
        p = exponential_weight(psi)
        phi = fixation_probability(psi)
        coup = coupling_from_kernel(constant_field(1.0), phi, p, grid)
        assert np.allclose(coup.rows[0], [0.0, 0.0, -1.0, 1.0], atol=1e-9)
        assert np.allclose(coup.rows[1], [1.0, -1.0, 0.0, 1.0], atol=1e-9)

    def test_proportional_kernels_rejected(self, grid, one):
        with pytest.raises(CouplingError):
            coupling_from_kernel(one, constant_field(1.0), one, grid)


class TestEigensolve:
    def test_neumann_spectrum(self, neumann_eig):
        lam = neumann_eig.eigenvalues
        expected = np.array([((m - 1) * np.pi) ** 2 for m in range(1, 7)])
        assert abs(lam[0]) <= 1e-8
        assert np.max(np.abs(lam[1:] - expected[1:]) / expected[1:]) <= 2e-3
        assert neumann_eig.zero_multiplicity == 1

    def test_heat_coupled_double_zero(self, heat_eig):
        lam = heat_eig.eigenvalues
        assert heat_eig.zero_multiplicity == 2
        assert np.max(np.abs(lam[:2])) <= 1e-8 * lam[2]
        assert lam[2] > 0

    def test_lambda3_against_fine_grid_oracle(self, heat_eig):
        assert abs(heat_eig.eigenvalues[2] - HEAT_COUPLED_LAMBDA3) <= 1e-3 * HEAT_COUPLED_LAMBDA3
        assert abs(heat_eig.eigenvalues[3] - HEAT_COUPLED_LAMBDA4) <= 1e-3 * HEAT_COUPLED_LAMBDA4

    def test_orthonormality(self, heat_eig):
        k = 8
        V = heat_eig.vectors[:, :k]
        gram = V.T @ (heat_eig.mass[:, None] * V)
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-8

    def test_boundary_rows_satisfied(self, grid):
        # the folded solvers take the endpoint fluxes as W (v_a, v_b), so
        # every pair satisfies the rows exactly when W does, for any end values
        from conspar.degenerate import kimura_model, regularized_system, sis_model

        couplings = {case: _kernel_operator(grid, **BAND_CASES[case]) for case in BAND_CASES}
        couplings["kimura regularized"] = regularized_system(
            kimura_model(field_from_expression("1-2*x")), 1e-2, grid
        )[:2]
        couplings["sis regularized"] = regularized_system(sis_model(2.0), 1e-2, grid)[:2]
        for case, (op, coup) in couplings.items():
            W = sturm._flux_elimination(coup, op.p_end)
            rows = coup.rows
            slopes = rows[:, 2:] / np.asarray(op.p_end)
            defect = rows[:, :2] + slopes @ W
            scale = np.abs(rows[:, :2]).max() + np.abs(slopes).max() * np.abs(W).max()
            assert np.abs(defect).max() <= 8 * np.finfo(float).eps * scale, case

    def test_stencil_boundary_residuals_converge(self, one, zero, x_field):
        # one-sided-stencil row residuals are an O(h^2) consistency check
        res = []
        for n in (101, 201, 401):
            g = Grid(0.0, 1.0, n)
            coup = coupling_from_kernel(one, x_field, one, g)
            eig = eigensolve(assemble(one, zero, one, g), coup, k=5)
            res.append(np.max(stencil_boundary_residuals(eig)[2:5]))
        assert res[0] / res[1] > 3.0
        assert res[1] / res[2] > 3.0

    def test_weighted_symmetry(self, grid, zero):
        # <Lu, v> = <u, Lv> in the weighted inner product for functions
        # satisfying the coupling rows (holds here for all grid functions)
        w = field_from_expression("1+x/2")
        p = field_from_expression("1+x^2")
        op = assemble(p, zero, w, grid)
        rng = np.random.default_rng(1)
        # the stiffness is stored as one diagonal and one off-diagonal, so
        # it is symmetric by construction; check the operator through
        # apply_operator, in the weighted inner product diag(mass)
        scale = np.max(np.abs(op.diagonal))
        u, v = rng.random(grid.n), rng.random(grid.n)
        lhs = u @ (op.mass * apply_operator(op, v))
        rhs = v @ (op.mass * apply_operator(op, u))
        assert abs(lhs - rhs) <= 1e-10 * scale * np.linalg.norm(u) * np.linalg.norm(v)

    def test_spectral_convergence_richardson_ratio(self, one, zero, x_field):
        lams = {}
        for n in (101, 201, 401, 801):
            g = Grid(0.0, 1.0, n)
            coup = coupling_from_kernel(one, x_field, one, g)
            op = assemble(one, zero, one, g)
            lams[n] = eigensolve(op, coup, k=5).eigenvalues
        for j in (2, 3, 4):
            r = (lams[101][j] - lams[201][j]) / (lams[201][j] - lams[401][j])
            assert 3.5 <= r <= 4.5
            r = (lams[201][j] - lams[401][j]) / (lams[401][j] - lams[801][j])
            assert 3.5 <= r <= 4.5

    def test_dirichlet_rows_drop_both_ends(self, one, zero):
        g = Grid(0.0, 1.0, 201)
        coup = BoundaryCoupling([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        eig = eigensolve(assemble(one, zero, one, g), coup, k=4)
        expected = np.array([(k * np.pi) ** 2 for k in (1, 2, 3, 4)])
        assert np.max(np.abs(eig.eigenvalues - expected) / expected) <= 2e-3
        assert eig.zero_multiplicity == 0

    def test_dirichlet_vectors_weighted_orthonormal(self, one, zero):
        g = Grid(0.0, 1.0, 201)
        coup = BoundaryCoupling([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        op = assemble(one, zero, one, g)
        eig = eigensolve(op, coup, k=4)
        vec = eig.vectors
        assert np.max(np.abs(vec.T @ (op.mass[:, None] * vec) - np.eye(4))) <= 1e-12
        # the end nodes were dropped: m = n - 2, and every mode is 0 there
        assert eig.dimension == 199 and np.all(vec[[0, -1]] == 0.0)

    def test_orthonormalize_rejects_dependent_rows(self):
        g = Grid(0.0, 1.0, 11)
        with pytest.raises(InputError):
            orthonormalize_laws(np.stack([g.nodes, np.zeros(g.n)]), np.ones(g.n), g)

    def test_non_selfadjoint_rows_rejected(self, grid, one, zero):
        # v'(0) = v(1), v'(1) = 0 is not a symmetric closure
        coup = BoundaryCoupling([[0.0, 1.0, -1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        with pytest.raises(AssemblyError):
            eigensolve(assemble(one, zero, one, grid), coup)

    def test_k_validation(self, heat_eig, grid, heat_problem):
        op, coup = heat_problem.operator, heat_problem.coupling
        with pytest.raises(ArgumentError):
            eigensolve(op, coup, k=0)
        with pytest.raises(ArgumentError):
            eigensolve(op, coup, k=grid.n + 1)

    def test_general_interval_neumann(self, zero):
        g = Grid(0.0, 2.0, 201)
        one = constant_field(1.0)
        neumann = BoundaryCoupling([[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])
        eig = eigensolve(assemble(one, zero, one, g), neumann, k=3)
        expected = (np.pi / 2) ** 2
        assert abs(eig.eigenvalues[1] - expected) / expected <= 1e-3


def _kernel_operator(grid, p="1", q="0", weight="1", law1="1", law2="x"):
    """The operator of a totally conservative problem and its coupling."""
    f = field_from_expression
    problem = build_totally_conservative(
        f(p), f(q), f(law1), f(law2), grid, weight=f(weight)
    )
    return problem.operator, problem.coupling


FEW_MODE_CASES = {
    "heat": {},
    "variable p and weight": dict(p="exp(x)", weight="1+x/2", law2="exp(-x)"),
    "q = 1": dict(q="1", law1="cos(x)", law2="sin(x)"),
    # three eigenvalues near -1240, -89 and -81: a shift of -1 would
    # find -81 and -89 but miss -1240
    "q = 100": dict(q="100", law1="cos(10*x)", law2="sin(10*x)"),
}


def _loop_row_residuals(rows, quad):
    """Reference: the per-mode loop that the vectorized residual replaced."""
    out = np.zeros(quad.shape[0])
    for j, values in enumerate(quad):
        for row in rows:
            terms = row * values
            out[j] = max(out[j], abs(terms.sum()) / (1.0 + np.abs(terms).max()))
    return out


class TestFewModeEigensolve:
    @pytest.mark.parametrize("case", sorted(FEW_MODE_CASES))
    def test_matches_dense(self, grid, case):
        op, coup = _kernel_operator(grid, **FEW_MODE_CASES[case])
        k = 6
        few, dense = eigensolve(op, coup, k=k), eigensolve(op, coup)
        assert (few.method, dense.method) == ("shift_invert", "dense")
        lam, ref = few.eigenvalues, dense.eigenvalues[:k]
        zero = np.zeros(k, dtype=bool)
        zero[np.argsort(np.abs(ref))[:2]] = True  # the two laws' modes
        err = np.abs(lam - ref)
        assert np.all(err[zero] <= 1e-9 * max(1.0, float(np.max(np.abs(ref)))))
        assert np.all(err[~zero] <= 1e-9 * np.abs(ref[~zero]))
        # the same subspace: no weight on dense modes beyond the k-th
        coef = dense.vectors.T @ (dense.mass[:, None] * few.vectors)
        assert np.max(np.linalg.norm(coef[k:], axis=0)) <= 1e-8
        gram = few.vectors.T @ (few.mass[:, None] * few.vectors)
        assert np.max(np.abs(gram - np.eye(k))) <= 1e-10

    @pytest.mark.parametrize("case", ["heat", "q = 1", "q = pi^2"])
    def test_alive_zero_multiplicity_does_not_depend_on_k(self, grid, case):
        # the curved laws' zero pairs sit at their O(h^2) offsets (down to
        # -5.07e-5 for q = pi^2), above 1e-8 * lambda_16 but below the
        # alive rule's threshold, whether 16, 45 or all the modes are kept
        laws = {**FEW_MODE_CASES, "q = pi^2": dict(
            q="9.869604401089358", law1="cos(3.141592653589793*x)",
            law2="sin(3.141592653589793*x)")}[case]
        op, coup = _kernel_operator(grid, **laws)
        eigs = [sturm.eigensolve_alive(op, coup, times) for times in ([0, 0.2], [0.002], [0, 1e-9])]
        assert [eig.eigenvalues.size for eig in eigs] == [16, 45, eigs[-1].dimension]
        assert {eig.zero_multiplicity for eig in eigs} == {2}

    def test_alive_zero_multiplicity_does_not_grow_with_n(self):
        # at n = 100001 the fold's largest eigenvalue is 4e10, and 1e-8 of it
        # would pass lambda_3 = 4 pi^2 = 39.5: the zero pair stays a pair
        op, coup = _kernel_operator(Grid(0.0, 1.0, 100001))
        eig = sturm.eigensolve_alive(op, coup, [0.0, 0.2])
        assert (eig.eigenvalues.size, eig.zero_multiplicity) == (16, 2)
        assert eig.eigenvalues[2] == pytest.approx(4 * np.pi**2, rel=1e-6)

    def test_repeat_calls_identical(self, grid):
        op, coup = _kernel_operator(grid)
        a, b = eigensolve(op, coup, k=6), eigensolve(op, coup, k=6)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.vectors.tobytes() == b.vectors.tobytes()

    @pytest.mark.parametrize(
        "n, k, method",
        [(401, 50, "shift_invert"), (401, 51, "dense"), (255, 6, "dense"),
         (256, 32, "shift_invert")],
    )
    def test_method_crossover(self, n, k, method):
        op, coup = _kernel_operator(Grid(0.0, 1.0, n))
        assert eigensolve(op, coup, k=k).method == method

    # the heat operator's T with its corner dropped: k = 66 of 401 is the
    # last subset (6 k <= n), n = 5793 the first over the n x n budget
    @pytest.mark.parametrize(
        "n, k, method",
        [(401, 1, "stemr"), (401, 66, "stemr"), (401, 67, "stevd"), (401, 401, "stevd"),
         (5793, 5, "shift_invert")],
    )
    def test_corner_free_takes_tridiagonal_drivers(self, n, k, method):
        op, coup = _kernel_operator(Grid(0.0, 1.0, n))
        diag, off, corner = sturm._fold(op, coup)[:3]
        assert corner != 0.0
        lam, Y, got = sturm._smallest_eigh(diag, off, 0.0, k)
        assert got == method and Y.shape == (n, k)
        ref = scipy.linalg.eigh_tridiagonal(diag, off, eigvals_only=True, lapack_driver="stemr")
        assert np.abs(lam - ref[:k]).max() <= 50 * np.finfo(float).eps * ref[-1]
        BY = diag[:, None] * Y
        BY[:-1] += off[:, None] * Y[1:]
        BY[1:] += off[:, None] * Y[:-1]
        assert np.abs(BY - Y * lam).max() <= 1e-10 * ref[-1]
        assert np.abs(Y.T @ Y - np.eye(k)).max() <= 1e-12
        # eigenvalues alone, or a corner, keep their drivers
        assert sturm._smallest_eigh(diag, off, 0.0, k, vectors=False)[2] in ("band", "shift_invert")
        if n == 401:
            assert sturm._smallest_eigh(diag, off, corner, k)[2] in ("dense", "shift_invert")

    def test_dense_refused_beyond_budget(self, one, zero):
        g = Grid(0.0, 1.0, 6001)
        op, coup = _kernel_operator(g)
        with pytest.raises(DenseSizeError):
            eigensolve(op, coup)
        assert eigensolve(op, coup, k=6).method == "shift_invert"
        # Dirichlet rows leave a corner-free fold of m = 5999, over the
        # tridiagonal drivers' m x m budget
        dirichlet = BoundaryCoupling([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        assert eigensolve(assemble(one, zero, one, g), dirichlet, k=4).method == "shift_invert"

    # n = 1 is the interior generator at n = 3 (one unknown); at n = 2 the
    # corner and the off-diagonal share an entry and add up
    @pytest.mark.parametrize("corner", [False, True], ids=["no_corner", "corner"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 40])
    def test_inertia_count_matches_eigvalsh(self, n, corner):
        rng = np.random.default_rng(n)
        for _ in range(50):
            diag, off = rng.standard_normal(n), rng.standard_normal(n - 1)
            c = float(rng.standard_normal()) if corner else 0.0
            T = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            if n > 1:
                T[0, -1] += c
                T[-1, 0] += c
            spectrum = np.linalg.eigvalsh(T)
            for sigma in 2.0 * rng.standard_normal(5):
                assert sturm._count_below(diag, off, c, sigma) == np.sum(spectrum < sigma)

    def test_count_below_dirichlet_rows_counts_their_spectrum(self, one, zero, grid):
        # pi^2, 4 pi^2 and 9 pi^2 = 88.8 lie below 100; 16 pi^2 does not
        dirichlet = BoundaryCoupling([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        assert count_below(assemble(one, zero, one, grid), dirichlet, 100.0) == 3

    def test_row_residuals_match_loop(self, heat_eig):
        quad = _stencil_quad(heat_eig.grid, heat_eig.vectors)
        rows = heat_eig.coupling.rows
        assert np.array_equal(_row_residuals(rows, quad), _loop_row_residuals(rows, quad))


# cos(pi x) and sin(pi x) with q = pi^2: sin(pi x) vanishes at both ends, so
# the flux block has rank 1 and the rows tie v(1) to v(0), gamma = -1
TIED_ENDS = dict(q="9.869604401089358", law1="cos(3.141592653589793*x)",
                 law2="sin(3.141592653589793*x)")
DIRICHLET = BoundaryCoupling([[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def _antiperiodic_ring(N):
    """Eigenvalues of the fold of TIED_ENDS (p = 1, weight 1) on n = N + 1
    nodes: node n - 1 merges into node 0, which leaves an antiperiodic ring
    of N nodes with the lumped -pi^2 on each, every eigenvalue double."""
    return np.sort(4.0 * N**2 * np.sin((2 * np.arange(N) + 1) * np.pi / (2 * N)) ** 2 - np.pi**2)


class TestFoldWithoutFluxForm:
    """Rows whose flux block is singular: they tie one end value to the
    other (rank 1), or fix both (rank 0, Dirichlet rows)."""

    # the six smallest at n = 1601, in eps * lambda_max: 1.91 dense, 1.76
    # shift-invert and 18.0 band when recorded; the bounds are twice those
    @pytest.mark.parametrize("driver, bound", [("dense", 4), ("shift_invert", 4), ("band", 36)])
    def test_tied_ends_match_the_antiperiodic_ring(self, driver, bound):
        n = 1601
        op, coup = _kernel_operator(Grid(0.0, 1.0, n), **TIED_ENDS)
        diag, off, corner = sturm._fold(op, coup)[:3]
        assert diag.size == n - 1 and corner != 0.0
        exact = _antiperiodic_ring(n - 1)
        lam = {
            "dense": lambda: sturm._dense_eigh(diag, off, corner, 6)[0],
            "shift_invert": lambda: sturm._shift_invert_eigh(diag, off, corner, 6)[0],
            "band": lambda: sturm._band_eigh(diag, off, corner, 6),
        }[driver]()
        assert np.abs(lam - exact[:6]).max() <= bound * np.finfo(float).eps * exact[-1]

    @pytest.mark.parametrize("k, method", [(6, "shift_invert"), (None, "dense")])
    def test_tied_vectors_orthonormal_on_every_node(self, k, method):
        n = 401
        op, coup = _kernel_operator(Grid(0.0, 1.0, n), **TIED_ENDS)
        eig = eigensolve(op, coup, k=k)
        V = eig.vectors
        assert (eig.method, eig.dimension, V.shape) == (method, n - 1, (n, k or n - 1))
        assert np.abs(V.T @ (op.mass[:, None] * V) - np.eye(V.shape[1])).max() <= 1e-12
        # one end value is gamma times the other in every mode, to the
        # rounding of one product; gamma = -1 up to the laws' endpoint slopes
        ratio = V[-1] / V[0]
        assert np.abs(ratio + 1.0).max() <= 1e-9
        assert np.ptp(ratio) <= 4 * np.finfo(float).eps
        # each pair double: 49.8 eps * lambda_max on shift-invert when
        # recorded, 49.1 dense
        lam = eig.eigenvalues
        lam_max = _antiperiodic_ring(n - 1)[-1]
        assert np.abs(lam[0:6:2] - lam[1:6:2]).max() <= 100 * np.finfo(float).eps * lam_max

    @pytest.mark.parametrize("tied", [True, False], ids=["tied", "dirichlet"])
    def test_every_mode_kept_has_no_truncation(self, tied, one, zero):
        g = Grid(0.0, 1.0, 101)
        if tied:
            op, coup = _kernel_operator(g, **TIED_ENDS)
        else:
            op, coup = assemble(one, zero, one, g), DIRICHLET
        eig = eigensolve(op, coup)
        assert eig.eigenvalues.size == eig.dimension == count_below(op, coup, np.inf) < g.n
        v0 = eig.vectors @ np.linspace(1.0, 2.0, eig.dimension)
        traj = evolve(eig, v0, [0.0, 1e-3])
        assert traj.truncation_error.tolist() == [0.0, 0.0]
        assert np.abs(traj.values[0] - v0).max() <= 1e-12 * np.abs(v0).max()

    @pytest.mark.parametrize("vectors", [True, False], ids=["stevd", "band"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_dirichlet_smallest_grids(self, n, vectors, one, zero):
        # n - 2 unknowns, down to one: the eigenvalues (4/h^2) sin^2(j pi h/2)
        h = 1.0 / (n - 1)
        op = assemble(one, zero, one, Grid(0.0, 1.0, n))
        lam = eigensolve(op, DIRICHLET, vectors=vectors).eigenvalues
        exact = 4 / h**2 * np.sin(np.arange(1, n - 1) * np.pi * h / 2) ** 2
        assert np.abs(lam - exact).max() <= 1e-13 * exact[-1]

    def test_either_end_is_eliminated(self, one, zero):
        # v(0) = v(1)/2 eliminates v(0): the node order is reversed, and the
        # spectrum is that of the mirror image, v(1) = v(0)/2
        op = assemble(one, zero, one, Grid(0.0, 1.0, 101))
        tie_a = BoundaryCoupling([[1.0, -0.5, 0.0, 0.0], [0.0, 0.0, 0.5, -1.0]])
        tie_b = BoundaryCoupling([[-0.5, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -0.5]])
        a, b = eigensolve(op, tie_a), eigensolve(op, tie_b)
        assert a.dimension == b.dimension == 100
        assert np.abs(a.eigenvalues - b.eigenvalues).max() <= 1e-12 * b.eigenvalues[-1]
        eps = np.finfo(float).eps
        assert np.abs(a.vectors[0] - 0.5 * a.vectors[-1]).max() <= eps * np.abs(a.vectors).max()
        assert np.abs(b.vectors[-1] - 0.5 * b.vectors[0]).max() <= eps * np.abs(b.vectors).max()

    def test_tied_rows_not_self_adjoint_rejected(self, grid, one, zero):
        # v(0) = v(1)/2 with v'(0) + v'(1) = 0: the flux row is not parallel
        # to (1/2, -1), so the boundary term is not a multiple of v(1)^2
        coup = BoundaryCoupling([[1.0, -0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 1.0]])
        with pytest.raises(AssemblyError):
            eigensolve(assemble(one, zero, one, grid), coup)

    def test_k_past_the_fold_names_the_mode_count(self, grid):
        op, coup = _kernel_operator(grid, **TIED_ENDS)
        with pytest.raises(ArgumentError, match="tie v\\(1\\) to v\\(0\\), so n = 401 has 400 modes"):
            eigensolve(op, coup, k=401)
        op = assemble(constant_field(1.0), constant_field(0.0), constant_field(1.0), grid)
        with pytest.raises(ArgumentError, match="fix v\\(0\\) = v\\(1\\) = 0, so n = 401 has 399"):
            eigensolve(op, DIRICHLET, k=400)


BAND_CASES = {
    "heat": {},
    "p = 1+x": dict(p="1+x", law2="log(1+x)"),
    "p = exp(5x)": dict(p="exp(5*x)", law2="1-exp(-5*x)"),
    "q = 1": dict(q="1", law1="cos(x)", law2="sin(x)"),
}


def _folded(n, case):
    op, coup = _kernel_operator(Grid(0.0, 1.0, n), **BAND_CASES[case])
    return sturm._fold(op, coup)[:3]


def _long_double_counts(d, b, corner, sigma):
    """The eigenvalues of T below each sigma, by the pivot recurrence of
    sturm._count_below in long double, all sigmas at once."""
    ld = d.dtype.type
    count, pivot, b2 = np.zeros(sigma.size, dtype=int), np.ones(sigma.size, dtype=ld), ld(0)
    fill, last = np.full(sigma.size, corner), d[-1] - sigma
    for i in range(d.size - 1):
        pivot = d[i] - sigma - b2 / pivot
        pivot[pivot == 0] = -np.finfo(ld).tiny
        count += pivot < 0
        if i == d.size - 2:
            fill = fill + b[i]
        last = last - fill * fill / pivot
        fill, b2 = -fill * b[i] / pivot, b[i] * b[i]
    return count + (last < 0)


def _long_double_smallest(diag, off, corner, m, guess):
    """The m smallest eigenvalues of T by bisection in long double, all m at
    once, to 2^-63 of the Gershgorin bound. Each starts 2^-44 of the bound
    either side of its ``guess`` when the counts there bracket it, and from
    the Gershgorin interval (64 steps, not 20) when any does not."""
    ld = np.longdouble
    d, b, corner = diag.astype(ld), off.astype(ld), ld(corner)
    bound = np.abs(d).max() + 2 * np.abs(b).max() + abs(corner)  # Gershgorin
    want = np.arange(1, m + 1)
    half = bound * ld(2) ** -44
    lo, hi = np.asarray(guess[:m], dtype=ld) - half, np.asarray(guess[:m], dtype=ld) + half
    ends = _long_double_counts(d, b, corner, np.concatenate([lo, hi]))
    steps = 20
    if not (np.all(ends[:m] < want) and np.all(ends[m:] >= want)):
        lo, hi, steps = np.full(m, -bound), np.full(m, bound), 64
    for _ in range(steps):
        sigma = (lo + hi) / 2
        above = _long_double_counts(d, b, corner, sigma) >= want
        hi, lo = np.where(above, sigma, hi), np.where(above, lo, sigma)
    return (lo + hi) / 2


class TestBandEigensolve:
    """The eigenvalues-only path: every eigenvalue from the band form."""

    # the six smallest, in eps * lambda_max: at most 1.61 when recorded,
    # where all-mode dense LAPACK read up to 4.08
    @pytest.mark.parametrize("n", [101, 401, 1601])
    @pytest.mark.parametrize("case", sorted(BAND_CASES))
    def test_smallest_match_long_double_bisection(self, case, n):
        diag, off, corner = _folded(n, case)
        lam = sturm._band_eigh(diag, off, corner, n)
        ref = _long_double_smallest(diag, off, corner, 6, lam)
        err = np.abs(lam[:6] - ref.astype(float))
        assert err.max() <= 2 * np.finfo(float).eps * lam[-1]

    # when recorded: every eigenvalue within 37.2 eps * lambda_max of dense
    # LAPACK
    @pytest.mark.parametrize("n", [101, 401, 1601])
    @pytest.mark.parametrize("case", sorted(BAND_CASES))
    def test_matches_dense_eigenpairs(self, case, n):
        diag, off, corner = _folded(n, case)
        lam = sturm._band_eigh(diag, off, corner, n)
        ref, _ = sturm._dense_eigh(diag, off, corner, n)
        assert np.abs(lam - ref).max() <= 50 * np.finfo(float).eps * ref[-1]

    @pytest.mark.parametrize(
        "n, k, method", [(101, 6, "band"), (401, 51, "band"), (401, 50, "shift_invert")]
    )
    def test_values_only_keeps_residuals(self, n, k, method):
        op, coup = _kernel_operator(Grid(0.0, 1.0, n))
        values, full = eigensolve(op, coup, k=k, vectors=False), eigensolve(op, coup, k=k)
        assert (values.method, values.vectors) == (method, None)
        assert values.zero_multiplicity == full.zero_multiplicity == 2
        scale = max(1.0, float(full.eigenvalues[-1]))
        assert np.abs(values.eigenvalues - full.eigenvalues).max() <= 1e-9 * scale

    def test_values_only_forms_no_square_array(self):
        n = 1601
        op, coup = _kernel_operator(Grid(0.0, 1.0, n))
        tracemalloc.start()
        try:
            assert eigensolve(op, coup, vectors=False).method == "band"
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n / 8  # an eighth of one n x n array


class TestEvolve:
    def test_kernel_mode_stationary(self, heat_eig, grid):
        w1 = heat_eig.vectors[:, 0]
        traj = evolve(heat_eig, w1, [0.0, 1.0, 10.0])
        assert np.max(np.abs(traj.values - w1[None, :])) <= 1e-8

    def test_single_mode_decay(self, heat_eig):
        w5 = heat_eig.vectors[:, 4]
        lam5 = heat_eig.eigenvalues[4]
        traj = evolve(heat_eig, w5, [0.02, 0.05])
        for i, t in enumerate((0.02, 0.05)):
            assert np.max(np.abs(traj.values[i] - np.exp(-lam5 * t) * w5)) <= 1e-12

    def test_semigroup_property(self, heat_eig, grid):
        rng = np.random.default_rng(2)
        v0 = rng.random(grid.n)
        s, t = 0.4, 0.9
        vs = evolve(heat_eig, v0, [s]).values[0]
        via = evolve(heat_eig, vs, [t]).values[0]
        direct = evolve(heat_eig, v0, [s + t]).values[0]
        assert np.max(np.abs(via - direct)) <= 1e-10

    def test_truncation_estimate_reported(self, heat_eig, heat_problem, grid):
        traj = evolve(heat_eig, np.ones(grid.n), [0.1, 1.0])
        assert traj.truncation_error is not None
        assert traj.truncation_error.shape == (2,)
        assert np.all(traj.truncation_error == 0.0)  # every mode kept
        # with 8 modes, the dropped part's weighted norm is within the bound
        v0 = np.random.default_rng(4).random(grid.n)
        times = [0.0, 1e-3, 1e-2]
        few = evolve(eigensolve(heat_problem.operator, heat_problem.coupling, k=8), v0, times)
        full = evolve(heat_eig, v0, times)
        dropped = np.sqrt(((full.values - few.values) ** 2) @ heat_eig.mass)
        assert np.all(dropped <= few.truncation_error)
        assert few.truncation_error[0] == pytest.approx(np.sqrt(heat_eig.mass @ v0**2))

    def test_empty_times_rejected(self, heat_eig, grid):
        with pytest.raises(ArgumentError):
            evolve(heat_eig, np.ones(grid.n), [])


def _kernel_part(eig, v0):
    """The projection of v0 onto the zero modes: the t -> inf limit."""
    zm = eig.zero_multiplicity
    return eig.vectors[:, :zm] @ eig.project(v0)[:zm]


class TestSteadyState:
    def test_orthogonal_mode_vanishes(self, heat_eig):
        w3 = heat_eig.vectors[:, 2]
        assert np.max(np.abs(_kernel_part(heat_eig, w3))) <= 1e-10

    def test_projection_coefficients(self, heat_eig):
        v0 = 2.0 * heat_eig.vectors[:, 0] + heat_eig.vectors[:, 2]
        assert np.max(np.abs(_kernel_part(heat_eig, v0) - 2.0 * heat_eig.vectors[:, 0])) <= 1e-10

    def test_long_time_limit(self, heat_eig, grid):
        rng = np.random.default_rng(4)
        v0 = rng.random(grid.n)
        t_inf = 100.0 / heat_eig.eigenvalues[2]
        late = evolve(heat_eig, v0, [t_inf]).values[0]
        assert np.max(np.abs(_kernel_part(heat_eig, v0) - late)) <= 1e-8


class TestPositivityCheck:
    def test_positive_constant(self, heat_eig, grid):
        traj = evolve(heat_eig, np.ones(grid.n), [0.0, 0.5, 2.0])
        rep = positivity_check(traj, 1e-10)
        assert rep.passed and rep.min_value > 0

    def test_nonnegative_with_isolated_zeros(self, heat_eig, grid):
        v0 = np.sin(2 * np.pi * grid.nodes) ** 2  # zeros at 0, 1/2, 1 only
        traj = evolve(heat_eig, v0, [0.0, 0.001, 0.01, 0.1, 1.0])
        rep = positivity_check(traj, 1e-10)
        assert rep.min_value >= -1e-10

    def test_interval_zero_near_endpoint_can_dip(self, heat_eig, grid):
        # Data vanishing on an interval next to x = 1 genuinely dips
        # negative there: the non-local rows drain that endpoint based on
        # values at the other one. Grid-converged (two independent
        # discretizations agree); the check reports it as a diagnostic.
        v0 = np.maximum(np.sin(4 * np.pi * grid.nodes), 0.0)
        traj = evolve(heat_eig, v0, [0.005])
        rep = positivity_check(traj, 1e-10)
        assert not rep.passed
        assert rep.x == pytest.approx(1.0)
        assert -0.05 < rep.min_value < -0.04

    def test_negative_lobe_flagged(self, heat_eig, grid):
        v0 = np.sin(2 * np.pi * grid.nodes)  # genuinely signed data
        traj = evolve(heat_eig, v0, [0.001])
        rep = positivity_check(traj, 1e-10)
        assert not rep.passed
        assert rep.min_value < -0.5


class TestWeightedInner:
    def test_matches_trapezoid(self, grid):
        u = grid.nodes
        val = weighted_inner(u, u, np.ones(grid.n), grid)
        assert abs(val - 1.0 / 3.0) <= 1e-5
