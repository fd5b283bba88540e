import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conspar import degenerate, sturm
from conspar.degenerate import (
    BoundaryMeasure,
    DegenerateModel,
    decompose_measure,
    kimura_model,
    masses_from_boundary_flux,
    masses_from_conservation,
    sis_model,
    solve_interior,
    solve_regularized,
    to_selfadjoint,
    vanishing_limit,
)
from conspar.errors import (
    ArgumentError,
    DenseSizeError,
    InputError,
    ParameterError,
    QuadratureError,
    RegularityTierError,
    TransformError,
)
from conspar.fields import (
    constant_field,
    cumulative_trapezoid,
    field_from_expression,
    field_from_table,
    fixation_probability,
)
from conspar.sturm import Grid, count_below, eigensolve, evolve, sample_field

GRID = Grid(0.0, 1.0, 401)


@pytest.fixture(scope="module")
def neutral():
    return kimura_model(constant_field(0.0))


@pytest.fixture(scope="module")
def neutral_interior(neutral):
    return solve_interior(neutral, np.ones(GRID.n), 10.0, np.linspace(0, 10, 41), GRID)


@pytest.fixture
def asked(monkeypatch):
    """The k of every eigensolve a degenerate solve asks for, in order."""
    ks = []
    solve = sturm._eigensystem  # every eigensolve's k, after its one fold

    def counted(op, coupling, folded, k, **options):
        ks.append(k)
        return solve(op, coupling, folded, k, **options)

    monkeypatch.setattr(sturm, "_eigensystem", counted)
    return ks


class TestModels:
    def test_kimura_degeneracy(self, neutral):
        assert neutral.g(0.0) == 0.0
        assert neutral.g(1.0) == 0.0
        assert neutral.g(0.5) == 0.25
        assert neutral.absorbs_at_1

    def test_sis_half_degenerate(self):
        model = sis_model(2.0)
        assert model.g(0.0) == 0.0
        assert model.g(1.0) == 0.5  # F(1)/2
        assert not model.absorbs_at_1

    def test_ladder_validation(self, neutral):
        u0 = np.ones(GRID.n)
        with pytest.raises(ParameterError):
            vanishing_limit(neutral, u0, (1e-2, 1e-1), [1.0], GRID)
        with pytest.raises(ParameterError):
            vanishing_limit(neutral, u0, (1e-2, 0.0), [1.0], GRID)
        sol = solve_regularized(neutral, u0, 1e-2, [0.0], GRID)
        assert sol.g_eps_values[0] == pytest.approx(1e-2)
        assert sol.g_eps_values.min() > 0

    def test_weight_is_built_once_per_model(self, monkeypatch):
        model = kimura_model(field_from_expression("1-2*x"))

        def refused(psi):
            raise AssertionError("exp(int psi) built again")

        monkeypatch.setattr(degenerate, "exponential_weight", refused)
        grid = Grid(0.0, 1.0, 101)
        ladder = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        res = vanishing_limit(model, np.ones(grid.n), ladder, [0.5, 1.0], grid)
        assert len(res.rungs) == 5

    def test_overflowing_law_fails_on_construction(self):
        # int_0^1 exp(800 y) dy overflows in the fixation probability
        with np.errstate(over="ignore"), pytest.raises(QuadratureError, match="psi = -800"):
            kimura_model(field_from_expression("-800"))

    @pytest.mark.parametrize(
        "g, absorbs_at_1",
        [("1+x", True), ("x", True), ("x*(1-x)", False)],
        ids=["g(0)!=0", "absorbing-g(1)!=0", "zero-flux-g(1)=0"],
    )
    def test_closure_must_match_the_degeneracy(self, g, absorbs_at_1):
        with pytest.raises(InputError):
            DegenerateModel(
                g=field_from_expression(g), psi=constant_field(0.0), absorbs_at_1=absorbs_at_1
            )

    @pytest.mark.parametrize(
        "g, absorbs_at_1",
        [("x*(1-x)*(x-0.5)", True), ("x*(1-x)*(x-0.5)^2", True), ("x*(x-0.5)", False)],
        ids=["negative-two-laws", "zero-at-0.5", "negative-one-law"],
    )
    def test_degeneracy_must_be_positive_inside(self, g, absorbs_at_1):
        # the interior's mass cell p / g must be positive on every unknown;
        # such a g once reached the stepper, which blew up at step 200
        with pytest.raises(InputError, match="degeneracy field g must be positive inside"):
            DegenerateModel(
                g=field_from_expression(g), psi=constant_field(0.0), absorbs_at_1=absorbs_at_1
            )


class TestTransforms:
    def test_zero_maps_to_zero(self):
        g = np.full(11, 0.3)
        p = np.full(11, 2.0)
        assert np.all(to_selfadjoint(np.zeros(11), g, p) == 0.0)

    def test_identity_weights(self):
        u = np.linspace(0, 1, 11)
        ones = np.ones(11)
        assert np.array_equal(to_selfadjoint(u, ones, ones), u)

    @given(
        arrays(
            np.float64,
            shape=33,
            elements=st.floats(min_value=-50, max_value=50, allow_nan=False),
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, u):
        rng = np.random.default_rng(12)
        g = rng.uniform(0.05, 2.0, 33)
        p = rng.uniform(0.2, 5.0, 33)
        back = to_selfadjoint(u, g, p) * p / g
        assert np.max(np.abs(back - u)) <= 1e-15 * max(1.0, float(np.max(np.abs(u))))

    def test_nonpositive_divisor_rejected(self):
        with pytest.raises(TransformError):
            to_selfadjoint(np.ones(3), np.array([1.0, 0.0, 1.0]), np.ones(3))
        with pytest.raises(TransformError):
            to_selfadjoint(np.ones(3), np.ones(3), np.array([1.0, -1.0, 1.0]))


class TestSolveRegularized:
    def test_steady_data_is_stationary(self, neutral):
        sol0 = solve_regularized(neutral, np.ones(GRID.n), 1e-2, [0.0], GRID)
        eig = sol0.eig
        v_steady = eig.vectors[:, 0] + 0.5 * eig.vectors[:, 1]
        u_steady = v_steady * sol0.p_values / sol0.g_eps_values
        sol = solve_regularized(neutral, u_steady, 1e-2, [0.0, 1.0, 5.0], GRID)
        spread = np.max(np.abs(sol.trajectory.values - sol.trajectory.values[0]))
        assert spread <= 1e-8 * np.max(np.abs(u_steady))

    @pytest.mark.parametrize("psi_expr", ["0", "1"])
    def test_mass_and_fixation_moment_conserved(self, psi_expr):
        model = kimura_model(field_from_expression(psi_expr))
        phi = fixation_probability(model.psi)
        rng = np.random.default_rng(7)
        u0 = np.abs(rng.normal(1.0, 0.4, GRID.n))
        times = np.linspace(0.0, 5.0, 20)
        sol = solve_regularized(model, u0, 1e-2, times, GRID)
        nodes = GRID.nodes
        phiv = phi(nodes)
        masses = np.array([np.trapezoid(v, nodes) for v in sol.trajectory.values])
        moms = np.array([np.trapezoid(v * phiv, nodes) for v in sol.trajectory.values])
        assert np.max(np.abs(masses - masses[0])) / abs(masses[0]) <= 1e-6
        assert np.max(np.abs(moms - moms[0])) / abs(moms[0]) <= 1e-6

    def test_sis_mass_conserved(self):
        model = sis_model(2.0)
        times = np.linspace(0.0, 5.0, 11)
        sol = solve_regularized(model, np.ones(GRID.n), 1e-2, times, GRID)
        masses = np.array([np.trapezoid(v, GRID.nodes) for v in sol.trajectory.values])
        assert np.max(np.abs(masses - masses[0])) / abs(masses[0]) <= 1e-6

    def test_snapshots_nonnegative(self, neutral):
        sol = solve_regularized(neutral, np.ones(GRID.n), 1e-2, [0.5, 2.0], GRID)
        assert sol.trajectory.values.min() >= -1e-10

    def test_initial_snapshot_is_the_data(self):
        model = kimura_model(field_from_expression("1-2*x"))
        u0 = np.abs(np.random.default_rng(3).normal(1.0, 0.4, GRID.n))
        sol = solve_regularized(model, u0, 1e-2, [0.0, 1.0], GRID)
        assert np.array_equal(sol.trajectory.values[0], u0)
        v0 = to_selfadjoint(u0, sol.g_eps_values, sol.p_values)
        assert np.array_equal(sol.v_trajectory.values[0], v0)
        assert sol.v_trajectory.truncation_error[0] == 0.0

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
    @pytest.mark.parametrize(
        "make_model", [lambda: kimura_model(field_from_expression("1-2*x")), lambda: sis_model(2.0)]
    )
    def test_truncated_solve_matches_all_modes(self, make_model, eps):
        # measured: the gap is at most 1.7e-11 of max |v| over these six
        # cases (Kimura: 16 shift-invert modes against all 401 dense ones;
        # SIS: 16 subset-MRRR modes against the whole stevd spectrum), the
        # eigensolvers' own accuracy; the truncation bound is below 1e-50
        model = make_model()
        u0 = np.abs(np.random.default_rng(5).normal(1.0, 0.4, GRID.n))
        times = [0.5, 1.0, 5.0]
        sol = solve_regularized(model, u0, eps, times, GRID)
        # SIS's one law and zero-flux row leave the fold no corner
        assert sol.eig.method == ("shift_invert" if model.absorbs_at_1 else "stemr")
        assert sol.eig.eigenvalues.size < GRID.n
        op, coupling, p, g = degenerate.regularized_system(model, eps, GRID)
        v0 = to_selfadjoint(u0, g, p)
        full = evolve(eigensolve(op, coupling, GRID.n), v0, times).values
        gap = np.max(np.abs(sol.v_trajectory.values - full))
        assert gap <= 1e-10 * np.max(np.abs(full))
        norm = np.sqrt(np.sum(sol.eig.mass * v0**2))
        assert np.all(sol.v_trajectory.truncation_error <= 2.0**-53 * norm)

    def test_tiny_first_snapshot_keeps_every_mode(self, neutral, asked):
        grid = Grid(0.0, 1.0, 101)
        sol = solve_regularized(neutral, np.ones(grid.n), 1e-2, [1e-6, 1.0], grid)
        assert asked == [101]
        assert sol.eig.method == "dense"
        assert np.all(sol.v_trajectory.truncation_error == 0.0)

    def test_subnormal_first_snapshot_keeps_every_mode(self, neutral, asked):
        # 53 ln 2 / 1e-320 overflows to inf, which counts every mode
        grid = Grid(0.0, 1.0, 101)
        sol = solve_regularized(neutral, np.ones(grid.n), 1e-2, [1e-320], grid)
        assert asked == [101]
        assert np.all(sol.v_trajectory.truncation_error == 0.0)

    def test_refused_dense_solve_is_the_only_solve(self, neutral, asked):
        # every mode is alive at t_min = 1e-6, so the one eigensolve asks for
        # all n > 5792 and is refused before any shift-invert solve runs
        grid = Grid(0.0, 1.0, 5793)
        with pytest.raises(DenseSizeError):
            solve_regularized(neutral, np.ones(grid.n), 1e-2, [1e-6, 1.0], grid)
        assert asked == [5793]

    def test_without_a_positive_snapshot_k_stays_at_its_start(self, neutral, asked):
        solve_regularized(neutral, np.ones(GRID.n), 1e-2, [0.0], GRID)
        assert asked == [16]

    def test_negative_time_rejected(self, neutral):
        with pytest.raises(ArgumentError):
            solve_regularized(neutral, np.ones(GRID.n), 1e-2, [-1.0, 1.0], GRID)

    def test_v_space_weighted_moments_constant(self, neutral):
        # <v, phi_i>_weight is conserved by the spectral evolution
        from conspar.conservative import conservation_residual

        rng = np.random.default_rng(8)
        u0 = np.abs(rng.normal(1.0, 0.3, GRID.n))
        sol = solve_regularized(neutral, u0, 1e-2, np.linspace(0, 3, 7), GRID)
        w = sol.p_values / sol.g_eps_values
        for law in (np.ones(GRID.n), GRID.nodes):
            assert conservation_residual(sol.v_trajectory, law, w) <= 1e-6


COUNT_MODELS = {
    "kimura-0": lambda: kimura_model(constant_field(0.0)),
    "kimura-1-2x": lambda: kimura_model(field_from_expression("1-2*x")),
    "sis-2": lambda: sis_model(2.0),
}


class TestCountBelow:
    @pytest.mark.parametrize("eps", [1e-1, 3e-2, 1e-2, 3e-3, 1e-3])
    @pytest.mark.parametrize("n", [101, 401])
    @pytest.mark.parametrize("model", sorted(COUNT_MODELS))
    def test_matches_dense_spectrum(self, model, n, eps):
        op, coupling, _, _ = degenerate.regularized_system(
            COUNT_MODELS[model](), eps, Grid(0.0, 1.0, n)
        )
        lam = eigensolve(op, coupling, n).eigenvalues
        for t_min in (1.0, 0.1, 0.01):
            sigma = 53 * np.log(2.0) / t_min
            assert count_below(op, coupling, sigma) == np.sum(lam < sigma)

    def test_ends_of_the_spectrum(self):
        op, coupling, _, _ = degenerate.regularized_system(sis_model(2.0), 1e-2, GRID)
        assert count_below(op, coupling, -1.0) == 0
        assert count_below(op, coupling, np.inf) == GRID.n

    def test_zero_pivot_counts_just_above_it(self):
        # sigma = T[0, 0] makes the count's first pivot exactly zero; the
        # count is taken again just above sigma, where that pivot is negative
        model = kimura_model(field_from_expression("1-2*x"))
        op, coupling, _, _ = degenerate.regularized_system(model, 1e-2, Grid(0.0, 1.0, 101))
        diag, off, corner = sturm._fold(op, coupling)[:3]
        sigma = float(diag[0])
        assert diag[0] - sigma == 0.0
        above = float(np.nextafter(sigma, np.inf))
        assert sturm._count_below(diag, off, corner, sigma) == sturm._count_below(
            diag, off, corner, above
        )
        lam = eigensolve(op, coupling, 101).eigenvalues
        assert count_below(op, coupling, sigma) == np.sum(lam < sigma)


class TestVanishingLimit:
    def test_initial_time_recovers_data(self, neutral):
        ladder = (1e-1, 3e-2, 1e-2)
        res = vanishing_limit(neutral, np.ones(GRID.n), ladder, [0.0], GRID)
        m = res.measures[0]
        assert abs(m.atom0) <= 1e-10
        assert abs(m.atom1) <= 1e-10
        assert np.max(np.abs(m.density[1:-1] - 1.0)) <= 1e-10

    def test_bump_away_from_boundary(self, neutral):
        bump = np.exp(-((GRID.nodes - 0.5) ** 2) / 0.005)
        ladder = (1e-1, 3e-2, 1e-2)
        res = vanishing_limit(neutral, bump, ladder, [0.0], GRID)
        assert abs(res.measures[0].atom0) <= 1e-10
        assert abs(res.measures[0].atom1) <= 1e-10

    def test_long_time_concentrates_at_atoms(self, neutral):
        # the eps -> 0 limit at fixed large t piles the conserved mass
        # into the endpoint atoms, (1/2, 1/2) for neutral uniform data
        ladder = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        res = vanishing_limit(neutral, np.ones(GRID.n), ladder, [50.0], GRID)
        m = res.measures[0]
        assert abs(m.atom0 - 0.5) <= 0.01
        assert abs(m.atom1 - 0.5) <= 0.01
        assert abs(m.interior_mass()) <= 0.02

    def test_sis_never_gets_right_atom(self):
        model = sis_model(2.0)
        ladder = (1e-1, 3e-2, 1e-2)
        res = vanishing_limit(model, np.ones(GRID.n), ladder, [0.5, 2.0], GRID)
        for m in res.measures:
            assert m.atom1 == 0.0

    def test_ladder_diagnostics_monotone(self, neutral, neutral_interior):
        ladder = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        res = vanishing_limit(neutral, np.ones(GRID.n), ladder, [1.0], GRID)
        assert res.monotone_fraction >= 0.8
        assert res.warning is None
        assert res.probe_differences.shape == (4, 3, 1)

    @pytest.mark.parametrize("n", [101, 401])
    def test_statistics_skip_the_initial_snapshot(self, neutral, n):
        # every rung equals the data at t = 0, so those differences are no
        # evidence either way
        grid = Grid(0.0, 1.0, n)
        ladder = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        both = vanishing_limit(neutral, np.ones(n), ladder, [0.0, 1.0], grid)
        later = vanishing_limit(neutral, np.ones(n), ladder, [1.0], grid)
        assert both.monotone_fraction == later.monotone_fraction
        assert both.extrapolation_ratio == pytest.approx(later.extrapolation_ratio, rel=1e-12)
        assert both.warning is None

    def test_rounding_level_differences_stay_out_of_the_ratio(self, neutral):
        # at n = 101 and t = 0.01 the rungs at 1e-2 and 3e-3 agree to rounding at
        # 39 nodes; their d2/d1 is noise and pulled the median to 0.259
        grid = Grid(0.0, 1.0, 101)
        ladder = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        res = vanishing_limit(neutral, np.ones(grid.n), ladder, [0.01, 1.0], grid)
        stack = np.stack([s.trajectory.values for s in res.rungs])
        d1, d2 = stack[-2] - stack[-3], stack[-1] - stack[-2]
        tiny = np.abs(d1) <= 1e-12 * np.abs(stack[-1]).max(axis=1, keepdims=True)
        assert tiny.sum() == 39
        ratio = d2[~tiny] / d1[~tiny]
        assert res.extrapolation_ratio == np.median(ratio[(ratio > 0) & (ratio < 0.95)])
        assert res.extrapolation_ratio == pytest.approx(0.491, abs=1e-3)

    def test_needs_three_rungs(self, neutral):
        ladder = (1e-1, 1e-2)
        with pytest.raises(ArgumentError):
            vanishing_limit(neutral, np.ones(GRID.n), ladder, [1.0], GRID)


class TestSolveInterior:
    def test_zero_data_stays_zero(self, neutral):
        sol = solve_interior(neutral, np.zeros(GRID.n), 1.0, [0.5, 1.0], GRID)
        assert np.max(np.abs(sol.trajectory.values)) == 0.0
        assert np.max(np.abs(sol.traces.integral0)) == 0.0

    def test_neutral_uniform_closed_form(self, neutral):
        # uniform data stays uniform and decays at rate 2 (g'' = -2)
        sol = solve_interior(neutral, np.ones(GRID.n), 2.0, [1.0, 2.0], GRID)
        for i, t in enumerate((1.0, 2.0)):
            expected = np.exp(-2.0 * t)
            assert np.max(np.abs(sol.trajectory.values[i] - expected)) <= 1e-5

    def test_ladder_extrapolation_consistency(self, neutral, neutral_interior):
        # the vanishing-limit estimate agrees with the direct interior
        # solve within twice the last ladder difference at the probes
        ladder = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        res = vanishing_limit(neutral, np.ones(GRID.n), ladder, [1.0], GRID)
        idx = [int(round(p / GRID.h)) for p in res.probe_xs]
        direct = np.interp(
            1.0,
            neutral_interior.trajectory.times,
            neutral_interior.trajectory.values[:, idx[1]],
        )
        rich = res.measures[0].density[idx[1]]
        assert abs(rich - direct) <= 2 * res.probe_differences[-1, 1, 0]

    @pytest.mark.xfail(
        strict=True,
        reason=(
            "pointwise agreement between the interior solve and one "
            "regularized solve at eps = 1e-4 is O(0.1), not 1e-3: the "
            "vanishing-regularization limit converges only logarithmically "
            "at fixed t (the same mechanism behind the interchange-of-"
            "limits guard), so no single small eps reaches 1e-3"
        ),
    )
    def test_single_eps_pointwise_agreement_as_stated(self, neutral, neutral_interior):
        sol_r = solve_regularized(neutral, np.ones(GRID.n), 1e-4, [1.0], GRID)
        probes = np.arange(0.2, 0.81, 0.1)
        idx = [int(round(p / GRID.h)) for p in probes]
        direct = np.interp(
            1.0,
            neutral_interior.trajectory.times,
            neutral_interior.trajectory.values[:, idx[0]],
        )
        diffs = [
            abs(sol_r.trajectory.values[0][i] - v)
            for i, v in zip(
                idx,
                [
                    np.interp(1.0, neutral_interior.trajectory.times, neutral_interior.trajectory.values[:, i])
                    for i in idx
                ],
            )
        ]
        assert max(diffs) <= 1e-3

    def test_sis_robin_residual_refines_at_first_order(self):
        model = sis_model(2.0)
        res = []
        for n in (201, 401, 801):
            g = Grid(0.0, 1.0, n)
            sol = solve_interior(model, np.ones(g.n), 1.0, [1.0], g)
            r = sol.trajectory.values[0]
            drx = (3 * r[-1] - 4 * r[-2] + r[-3]) / (2 * g.h)
            res.append(abs(0.5 * ((1 - 2.0) * r[-1] + drx) + r[-1]))
        orders = np.log2([res[0] / res[1], res[1] / res[2]])
        assert np.all(orders >= 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_rejects_non_finite_horizon_dt_eps(self, neutral, bad):
        u0 = np.ones(GRID.n)
        with pytest.raises(ParameterError):
            solve_interior(neutral, u0, bad, [0.0], GRID)
        with pytest.raises(ParameterError):
            solve_interior(neutral, u0, 1.0, [0.0], GRID, dt=bad)
        with pytest.raises(ParameterError):
            solve_regularized(neutral, u0, bad, [0.0], GRID)

    def test_rejects_negative_data(self, neutral):
        bad = np.ones(GRID.n)
        bad[5] = -0.2
        with pytest.raises(ArgumentError):
            solve_interior(neutral, bad, 1.0, [1.0], GRID)


MODAL_GRID = Grid(0.0, 1.0, 201)

MODAL_MODELS = {
    "psi=0": lambda: kimura_model(constant_field(0.0)),
    "psi=1-2x": lambda: kimura_model(field_from_expression("1-2*x")),
    "psi=20": lambda: kimura_model(constant_field(20.0)),
    "psi=table": lambda: kimura_model(
        field_from_table(
            np.linspace(0.0, 1.0, 21), np.random.default_rng(7).uniform(-5.0, 5.0, 21)
        )
    ),
    "sis R0=2": lambda: sis_model(2.0),
}


def _initial(start, grid):
    if start == "uniform":
        return np.ones(grid.n)
    r = np.zeros(grid.n)  # the CLI's delta:0.3
    r[int(round(0.3 / grid.h))] = 1.0 / grid.h
    return r


def _relative(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _interior(model, grid):
    """The interior operator, coupling, s = g/p, unknowns' range and the
    r-variable generator bands (diagonal, lower, upper) of cell A, with the
    cells, built here in flux form as the reference the solver's K and M are
    checked against: d r_i/dt = (F_{i+1/2} - F_{i-1/2}) / cell_i with
    F_{i+1/2} = K_i (s_{i+1} r_{i+1} - s_i r_i), K_i the operator's
    off-diagonal, and no flux past x = 1 under one law."""
    op, coupling, s, lo, hi = degenerate._interior_system(model, grid)
    alpha, beta = -op.off_diagonal * s[:-1], op.off_diagonal * s[1:]
    diag = np.append(alpha, 0.0)[lo : hi + 1] - beta[lo - 1 : hi]
    bands = diag, -alpha[lo:hi], beta[lo:hi], grid.cell_weights()[lo : hi + 1]
    return op, coupling, s, lo, hi, bands


def _dense_generator(model, grid):
    """The interior generator A as a dense matrix, with its unknowns' range."""
    *_, lo, hi, (diag, lower, upper, cell) = _interior(model, grid)
    return (np.diag(diag) + np.diag(upper, 1) + np.diag(lower, -1)) / cell[:, None], lo, hi


def _van_loan(model, grid, r_initial, times):
    """Reference for a solve: e^(A t) r0 on the unknowns and both trace
    integrals int_0^t l^T e^(A s) r0 ds, read off one dense exponential of
    [[A, 0], [l^T, 0]] per time (Van Loan 1978, IEEE TAC 23:395-404)."""
    A, lo, hi = _dense_generator(model, grid)
    m = A.shape[0]
    block = np.zeros((m + 2, m + 2))
    block[:m, :m] = A
    block[m, :3] = 3.0, -3.0, 1.0  # the extrapolated trace at x = 0
    if model.absorbs_at_1:
        block[m + 1, m - 3 : m] = 1.0, -3.0, 3.0
    else:
        block[m + 1, m - 1] = 1.0  # the last unknown sits on x = 1
    r0 = r_initial[lo : hi + 1]
    blocks = [scipy.linalg.expm(block * t)[:, :m] @ r0 for t in times]
    return np.array([b[:m] for b in blocks]), np.array([b[m:] for b in blocks]).T, lo, hi


def _forced_stepper(monkeypatch):
    """Route every solve to the time stepper: no spread passes the gate."""
    monkeypatch.setattr(degenerate, "_MODAL_MAX_LOG_SPREAD", -1.0)


def _largest_eigenvalue(a, b, guess):
    """Largest eigenvalue of the symmetric tridiagonal (a, b), by long-double
    multisection of Sturm counts inside guess (1 -+ 1e-8); guess < 0."""
    a, b2 = a.astype(np.longdouble), b.astype(np.longdouble) ** 2

    def above(shifts):  # eigenvalues above each shift: positive LDL^T pivots
        pivot, count = np.ones_like(shifts), np.zeros(shifts.size, dtype=int)
        for i in range(a.size):
            pivot = (a[i] - shifts) - (b2[i - 1] / pivot if i else 0.0)
            count += pivot > 0
        return count

    lo, hi = np.longdouble(guess) * (1 + 1e-8), np.longdouble(guess) * (1 - 1e-8)
    assert above(np.array([lo, hi])).tolist() == [1, 0]
    while hi - lo > 4 * np.finfo(np.longdouble).eps * abs(hi):
        shifts = np.linspace(lo, hi, 33)
        j = int(np.sum(above(shifts[1:-1]) == 1))  # shifts[: j + 1] lie below it
        lo, hi = shifts[j], shifts[j + 1]
    return (lo + hi) / 2


# two-law drifts beyond MODAL_MODELS, up to cell Peclet number
# max |psi| h / 2 = 2 at n = 101, where a central flux loses the fixation law
STEEP_MODELS = {
    f"psi={expr}": (lambda expr=expr: kimura_model(field_from_expression(expr)))
    for expr in ("100", "20*sin(6*x)", "-40*(x-0.5)", "400")
}


def _column_sums(weights, diag, lower, upper):
    """Column sums of the unscaled flux-difference matrix with row i
    weighted by weights[i]."""
    sums = weights * diag
    sums[1:] += weights[:-1] * upper
    sums[:-1] += weights[1:] * lower
    return sums


@pytest.mark.parametrize("name", list(MODAL_MODELS) + list(STEEP_MODELS))
def test_interior_generator_loses_mass_only_at_absorbing_faces(name):
    """Each column of the unscaled flux-difference matrix sums to the mass
    that leaves the domain from that unknown: nothing, except next to an
    absorbing end, which is x = 0 always and x = 1 under two laws. Under
    two laws the fixation probability phi is the second law, and the
    phi-weighted sums vanish except at x = 1, since phi(0) = 0."""
    model = {**MODAL_MODELS, **STEEP_MODELS}[name]()
    two_laws = len(model.laws) == 2
    # expression drifts read at most 9.4e-16 (n = 101..401); the table's
    # phi comes from fixation_probability's quadrature of a kinked psi, which
    # matches the operator's cell integrals of 1/p to 5.2e-11 at n = 201
    law_tol = 1e-10 if name == "psi=table" else 1e-14
    for n in (101, 201, 401) if name in STEEP_MODELS else (MODAL_GRID.n,):
        grid = Grid(0.0, 1.0, n)
        *_, lo, hi, (diag, lower, upper, _) = _interior(model, grid)
        sums = _column_sums(np.ones(diag.size), diag, lower, upper)
        leaks = np.abs(sums) > 1e-12 * np.abs(diag).max()
        expected = np.zeros(diag.size, dtype=bool)
        expected[0] = True
        expected[-1] = two_laws
        assert np.array_equal(leaks, expected)
        assert np.all(sums[leaks] < 0)
        if two_laws:
            phi = sample_field(model.laws[1], grid)[lo : hi + 1]
            # each sum relative to its column's diagonal term
            phi_sums = _column_sums(phi, diag, lower, upper) / np.abs(phi * diag)
            assert np.max(np.abs(phi_sums[:-1])) <= law_tol
            assert phi_sums[-1] < -0.1


class TestModalInterior:
    """The modal solve is exact in time on the discrete operator; the
    stepper converges to it; inputs it cannot reconstruct accurately run
    the stepper."""

    # n = 101, T = 1: at most 1.5e-12 (psi = 20, delta). Over n = 101..1601,
    # Kimura psi = 12..20 and 1 - 2x and SIS R0 = 10, 20 with uniform data
    # and deltas at 0.3 and 0.7, SIS stays below 4.6e-11 and Kimura below
    # 6.6e-11 (see _MODAL_MAX_LOG_SPREAD)
    @pytest.mark.parametrize("start", ["uniform", "delta"])
    @pytest.mark.parametrize("name", list(MODAL_MODELS))
    def test_matches_matrix_exponential(self, name, start):
        model = MODAL_MODELS[name]()
        grid = Grid(0.0, 1.0, 101)
        r0 = _initial(start, grid)
        sol = solve_interior(model, r0, 1.0, [0.01, 0.1, 1.0], grid)
        assert sol.method == "modal" and sol.steps == 0
        snaps, integrals, lo, hi = _van_loan(model, grid, r0, sol.trajectory.times)
        assert _relative(sol.trajectory.values[:, lo : hi + 1], snaps) <= 1e-10
        assert np.array_equal(sol.traces.times, [0.0, 0.01, 0.1, 1.0])
        for got, want in zip((sol.traces.integral0, sol.traces.integral1), integrals):
            assert got[0] == 0.0
            assert _relative(got[1:], want) <= 1e-10

    # psi = 18 and 20 near the spread gate (spreads 9.9 and 10.95), all on
    # subset MRRR (60 modes alive at t = 0.01, of m = 399 and 799), read at
    # most 4.4e-11, 6.6e-11 and 3.5e-11; the bound is the worst of the sweep
    # in _MODAL_MAX_LOG_SPREAD before the drivers were shared, 1.37e-10
    @pytest.mark.parametrize("psi, n", [(18.0, 401), (20.0, 401), (18.0, 801)])
    def test_matches_matrix_exponential_at_the_gate_edge(self, psi, n):
        model = kimura_model(constant_field(psi))
        grid = Grid(0.0, 1.0, n)
        r0 = np.column_stack([_initial("uniform", grid), _initial("delta", grid)])
        sols = [solve_interior(model, r, 1.0, [0.01, 0.1, 1.0], grid) for r in r0.T]
        snaps, integrals, lo, hi = _van_loan(model, grid, r0, sols[0].trajectory.times)
        for j, sol in enumerate(sols):  # column j of the reference is start j
            assert sol.method == "modal" and (sol.modes > (n - 2) // 8) == (n == 401)
            assert _relative(sol.trajectory.values[:, lo : hi + 1], snaps[..., j]) <= 1.37e-10
            for got, want in zip((sol.traces.integral0, sol.traces.integral1), integrals[j]):
                assert _relative(got[1:], want) <= 1.37e-10

    @pytest.mark.parametrize("start", ["uniform", "delta"])
    @pytest.mark.parametrize("name", list(MODAL_MODELS))
    def test_matches_stepper(self, name, start, monkeypatch):
        # the stepper is second order in time, so its snapshots and trace
        # integrals approach the modal ones by a factor 4 per halving of dt
        # (observed orders 1.93 to 2.04 from t = 0.1 on)
        model = MODAL_MODELS[name]()
        r0 = _initial(start, MODAL_GRID)
        times = [0.1, 0.5, 1.0]
        modal = solve_interior(model, r0, 1.0, times, MODAL_GRID, dt=0.01)
        assert modal.method == "modal"
        _forced_stepper(monkeypatch)
        snap_errors, integral_errors = [], []
        for dt in (0.01, 0.005, 0.0025):
            sol = solve_interior(model, r0, 1.0, times, MODAL_GRID, dt=dt)
            assert sol.method == "stepper" and sol.steps == round(1.0 / dt)
            assert np.array_equal(sol.trajectory.times, modal.trajectory.times)
            snap_errors.append(_relative(sol.trajectory.values, modal.trajectory.values))
            at = np.rint(modal.traces.times / dt).astype(int)
            integral_errors.append(_relative(sol.traces.integral0[at], modal.traces.integral0))
        for errors in (snap_errors, integral_errors):
            orders = np.log2(np.array(errors[:-1]) / errors[1:])
            assert np.all((orders > 1.85) & (orders < 2.15))

    # SIS R0 = 2 keeps its original ids; Kimura psi = 40, 80 and 200 are
    # where the stepper runs by default (spreads 20.2, 39.7 and 99.0 at
    # n = 201), at dt = 1e-4. The trace integrals read at most 2.2e-13
    # (SIS, 300 steps) and 2.4e-14 (Kimura) against this dense reference,
    # which has rounding of its own: a long-double run of the same scheme
    # puts the stepper's SIS integrals within 9.3e-15
    RANNACHER = [
        pytest.param(MODAL_MODELS["sis R0=2"], 0.01, s, id=str(s)) for s in (1, 2, 3, 300)
    ] + [
        pytest.param(
            lambda psi=psi: kimura_model(constant_field(psi)), 1e-4, s, id=f"psi={psi:g}-{s}"
        )
        for psi in (40.0, 80.0, 200.0) for s in (1, 2, 3, 300)
    ]

    @pytest.mark.parametrize("make_model, dt, steps", RANNACHER)
    def test_rannacher_start(self, make_model, dt, steps, monkeypatch):
        # steps 1 and 2 are each two backward-Euler half steps, each
        # integrated by (dt/2) times the trace it ends with; later steps
        # are trapezoid steps under the trapezoid rule
        _forced_stepper(monkeypatch)
        model = make_model()
        r0 = _initial("delta", MODAL_GRID)
        sol = solve_interior(model, r0, dt * steps, [0.0, dt * steps], MODAL_GRID, dt=dt)
        assert sol.method == "stepper" and sol.steps == steps
        assert np.array_equal(sol.trajectory.values[0], r0)

        A, lo, hi = _dense_generator(model, MODAL_GRID)
        eye = np.eye(A.shape[0])
        half_step = np.linalg.inv(eye - dt / 2 * A)
        trapezoid = half_step @ (eye + dt / 2 * A)

        def traces(v):  # extrapolated at an absorbing end; under one law the
            # last unknown sits on x = 1
            right = 3 * v[-1] - 3 * v[-2] + v[-3] if model.absorbs_at_1 else v[-1]
            return np.array([3 * v[0] - 3 * v[1] + v[2], right])

        r = r0[lo : hi + 1]
        expected = [np.zeros(2)]
        for step in range(1, steps + 1):
            if step <= 2:
                total = expected[-1]
                for _ in range(2):
                    r = half_step @ r
                    total = total + dt / 2 * traces(r)
            else:
                r_prev, r = r, trapezoid @ r
                total = expected[-1] + dt / 2 * (traces(r_prev) + traces(r))
            expected.append(total)
        expected = np.array(expected).T
        assert np.allclose(sol.traces.times, dt * np.arange(steps + 1), rtol=0, atol=1e-15)
        assert _relative(sol.traces.integral0, expected[0]) <= 1e-12
        assert _relative(sol.traces.integral1, expected[1]) <= 1e-12

    @pytest.mark.parametrize("stepper", [False, True], ids=["modal", "stepper"])
    def test_first_row_is_the_data(self, stepper, monkeypatch):
        # a delta on node 1: the extrapolated trace 3 r1 - 3 r2 + r3 would
        # put 3/h at x = 0, where the data hold 0
        if stepper:
            _forced_stepper(monkeypatch)
        grid = Grid(0.0, 1.0, 401)
        r0 = np.zeros(grid.n)
        r0[1] = 1.0 / grid.h
        model = kimura_model(constant_field(0.0))
        sol = solve_interior(model, r0, 1.0, [0.0, 1.0], grid)
        assert sol.method == ("stepper" if stepper else "modal")
        assert np.array_equal(sol.trajectory.values[0], r0)
        a, b = masses_from_conservation(sol.trajectory, r0, 0.0, 0.0, model.laws[1])
        assert a[0] == 0.0 and b[0] == 0.0
        assert a[1] == pytest.approx(0.99646, abs=1e-5)

    @pytest.mark.parametrize("name", list(MODAL_MODELS))
    def test_mode_count_matches_dense_spectrum(self, name):
        # the inertia count against the dense eigenvalues of the same folded
        # tridiagonal, at the shifts 53 ln 2 / t_min for t_min = 1e-4..10
        op, coupling, *_ = _interior(MODAL_MODELS[name](), MODAL_GRID)
        diag, off = sturm._fold(op, coupling)[:2]
        spectrum = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        for t_min in (1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0):
            sigma = 53 * np.log(2.0) / t_min
            assert count_below(op, coupling, sigma) == np.sum(spectrum < sigma)

    # relative error of the slowest eigenvalue against long-double bisection,
    # in the order listed: 2.9e-13, 2.1e-13, 1.6e-13 and 1.1e-11 for the
    # modes alive at t = 1, all from subset MRRR with QR and a Rayleigh-Ritz
    # step. MRRR's own eigenvalues read 5.9e-13 and 3.6e-11 on SIS R0 = 20,
    # ARPACK's 1.6e-12 and 1.6e-10, an absolute error that grows with ||T||,
    # about n^2. With every mode alive, stevd keeps its own pairs, which read
    # 3.9e-12 and 1.9e-11 on SIS R0 = 20; the bounds are twice those (the
    # stevd FOUND in CHANGES.md stays open)
    SLOWEST = [
        ("sis R0=20", 401, 1.0, 1.5e-12), ("sis R0=2", 401, 1.0, 1.5e-12),
        ("psi=1-2x", 401, 1.0, 1.5e-12), ("sis R0=20", 1601, 1.0, 6e-11),
        ("sis R0=20", 401, None, 7.8e-12), ("sis R0=20", 1601, None, 3.8e-11),
    ]

    @pytest.mark.parametrize(
        "name, n, t_min, bound", SLOWEST,
        ids=[f"{name}-{n}-{'every-' * (t is None)}{bound}" for name, n, t, bound in SLOWEST],
    )
    def test_slowest_eigenvalue_matches_long_double_bisection(self, name, n, t_min, bound):
        model = {**MODAL_MODELS, "sis R0=20": lambda: sis_model(20.0)}[name]()
        op, coupling, *_ = _interior(model, Grid(0.0, 1.0, n))
        k = count_below(op, coupling, 53 * np.log(2.0) / t_min) if t_min else None
        eig = eigensolve(op, coupling, k)
        assert eig.method == ("stemr" if t_min else "stevd")
        diag, off = sturm._fold(op, coupling)[:2]  # the tridiagonal it diagonalizes
        lam = eig.eigenvalues[0]
        exact = -_largest_eigenvalue(-diag, -off, -lam)
        assert abs(lam - exact) <= bound * abs(exact)

    # n = 201, times 0.01, 0.1 and 1: at most 3.0e-12 (SIS R0 = 2 with the
    # delta, at x = 1) against every mode of the whole-spectrum eigensolve
    @pytest.mark.parametrize("start", ["uniform", "delta"])
    @pytest.mark.parametrize("name", list(MODAL_MODELS))
    def test_trace_integrals_match_full_basis_closed_form(self, name, start):
        # int_0^t r ds = A^-1 (r(t) - r0) on the modes kept, against every
        # mode's closed form expm1(lam t) / lam on the full eigenbasis
        model = MODAL_MODELS[name]()
        r0 = _initial(start, MODAL_GRID)
        sol = solve_interior(model, r0, 1.0, [0.01, 0.1, 1.0], MODAL_GRID)
        assert sol.method == "modal" and 0 < sol.modes
        op, coupling, s, lo, hi, _ = _interior(model, MODAL_GRID)
        full = eigensolve(op, coupling)  # every mode, v = s r
        assert sol.modes < full.eigenvalues.size
        v0 = np.zeros(MODAL_GRID.n)
        v0[lo : hi + 1] = s[lo : hi + 1] * r0[lo : hi + 1]
        c = full.project(v0)
        modes = (full.vectors[lo : hi + 1] / s[lo : hi + 1, None]).T  # each row a mode of A
        lam = -full.eigenvalues
        weights = np.expm1(np.outer(sol.traces.times, lam)) / lam * c
        want0 = weights @ degenerate._left_trace(modes)
        want1 = weights @ degenerate._right_trace(modes, model.absorbs_at_1)
        assert _relative(sol.traces.integral0, want0) <= 1e-11
        assert _relative(sol.traces.integral1, want1) <= 1e-11

    def test_no_positive_snapshot_keeps_no_mode(self, monkeypatch):
        # 1e-4 snaps to t = 0 on the dt = 0.0025 grid, so k = 0: nothing is
        # diagonalized, every row is the data and nothing has flowed out
        monkeypatch.setattr(sturm, "_eigensystem", None)
        grid = Grid(0.0, 1.0, 401)
        r0 = _initial("delta", grid)
        sol = solve_interior(MODAL_MODELS["psi=1-2x"](), r0, 5.0, [0.0, 1e-4], grid)
        assert sol.method == "modal" and sol.modes == 0 and sol.eigensolve_method is None
        assert np.array_equal(sol.trajectory.times, [0.0, 0.0])
        assert np.array_equal(sol.trajectory.values, [r0, r0])
        assert np.array_equal(sol.traces.times, [0.0])
        assert sol.traces.integral0.tolist() == [0.0] == sol.traces.integral1.tolist()

    def test_large_grid_runs_modal(self):
        # n = 8001 with its first snapshot at t = 1 keeps 5 modes, found by
        # shift-invert Lanczos in an m x 20 basis
        grid = Grid(0.0, 1.0, 8001)
        sol = solve_interior(MODAL_MODELS["psi=0"](), np.ones(grid.n), 1.0, [1.0], grid)
        assert sol.method == "modal" and sol.modes == 5 and sol.steps == 0
        assert sol.eigensolve_method == "shift_invert"  # m x m is over the budget

    @pytest.mark.parametrize("first, cols", [(1.0, 20), (0.01, 399)], ids=["lanczos", "dense"])
    def test_over_budget_eigensolve_steps(self, first, cols, monkeypatch):
        # m = 399 unknowns; the budget is one byte below the array the
        # fallback driver fills once the m x m tridiagonal drivers are over
        # it: the m x 20 Lanczos basis for the 5 modes alive at t = 1, the
        # dense m x m matrix for the more than m/8 alive at 0.01
        model, grid = MODAL_MODELS["psi=0"](), Grid(0.0, 1.0, 401)
        assert solve_interior(model, np.ones(grid.n), 1.0, [first], grid).method == "modal"
        monkeypatch.setattr(sturm, "_DENSE_MAX_BYTES", 8 * 399 * cols - 1)
        sol = solve_interior(model, np.ones(grid.n), 1.0, [first], grid)
        assert sol.method == "stepper" and sol.modes == 0
        op, coupling, _, _ = degenerate.regularized_system(model, 1e-2, grid)
        with pytest.raises(DenseSizeError):  # the n x 20 basis, or n x n
            eigensolve(op, coupling, 6 if cols == 20 else grid.n)

    def test_wide_scale_spread_runs_stepper(self):
        grid = Grid(0.0, 1.0, 401)
        sol = solve_interior(
            kimura_model(constant_field(50.0)), np.ones(grid.n), 0.1, [0.1], grid
        )
        assert sol.method == "stepper"
        assert sol.log_scale_spread == pytest.approx(25.5, abs=0.1)

    def test_steep_drift_runs_stepper_nonnegative(self):
        # psi = 400 on 101 nodes: both off-diagonals stay positive, and the
        # stepper runs because the symmetrizing scale spans exp(196)
        grid = Grid(0.0, 1.0, 101)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve_interior(
                kimura_model(constant_field(400.0)), np.ones(grid.n), 1.0, [0.1, 1.0], grid
            )
        assert sol.method == "stepper"
        assert sol.log_scale_spread == pytest.approx(196.0, abs=0.1)
        assert np.all(sol.trajectory.values >= 0)


class TestMassesConservationForm:
    def test_initial_values(self, neutral, neutral_interior):
        phi = fixation_probability(neutral.psi)
        a, b = masses_from_conservation(
            neutral_interior.trajectory, np.ones(GRID.n), 0.2, 0.1, phi
        )
        assert a[0] == pytest.approx(0.2, abs=1e-12)
        assert b[0] == pytest.approx(0.1, abs=1e-12)

    def test_limits_after_decay(self, neutral):
        phi = fixation_probability(neutral.psi)
        sol = solve_interior(neutral, np.ones(GRID.n), 50.0, [50.0], GRID)
        a, b = masses_from_conservation(sol.trajectory, np.ones(GRID.n), 0.0, 0.0, phi)
        # r -> 0: a = int r0 (1 - phi) = 1/2, b = int r0 phi = 1/2
        assert abs(a[-1] - 0.5) <= 1e-6
        assert abs(b[-1] - 0.5) <= 1e-6

    def test_inadmissible_state_warned(self, neutral):
        from conspar.sturm import Trajectory

        phi = fixation_probability(neutral.psi)
        r0 = np.ones(GRID.n)
        grown = Trajectory(
            grid=GRID, times=np.array([0.0, 1.0]), values=np.vstack([r0, 3 * r0])
        )
        with pytest.warns(UserWarning, match="inadmissible"):
            masses_from_conservation(grown, r0, 0.0, 0.0, phi)

    def test_total_constant_by_construction(self, neutral, neutral_interior):
        phi = fixation_probability(neutral.psi)
        a, b = masses_from_conservation(
            neutral_interior.trajectory, np.ones(GRID.n), 0.0, 0.0, phi
        )
        interior = np.array(
            [np.trapezoid(v, GRID.nodes) for v in neutral_interior.trajectory.values]
        )
        total = a + b + interior
        assert np.max(np.abs(total - total[0])) <= 1e-12


class TestMassesFluxForm:
    def test_zero_traces(self):
        from conspar.degenerate import BoundaryTraces

        traces = BoundaryTraces(
            times=np.linspace(0, 1, 11),
            integral0=np.zeros(11),
            integral1=np.zeros(11),
            outflow=(1.0, 1.0),
            psi_continuous=True,
        )
        _, a, b = masses_from_boundary_flux(traces, 0.3, 0.4)
        assert np.all(a == 0.3)
        assert np.all(b == 0.4)

    def test_constant_trace_linear_growth(self):
        from conspar.degenerate import BoundaryTraces

        times = np.linspace(0, 2, 21)
        traces = BoundaryTraces(
            times=times, integral0=0.5 * times, integral1=np.zeros(21), outflow=(1.0, 1.0),
            psi_continuous=True,
        )
        _, a, _ = masses_from_boundary_flux(traces, 0.1, 0.0)
        assert np.max(np.abs(a - (0.1 + 0.5 * times))) <= 1e-12

    def test_cross_form_agreement_neutral(self, neutral, neutral_interior):
        phi = fixation_probability(neutral.psi)
        a_c, b_c = masses_from_conservation(
            neutral_interior.trajectory, np.ones(GRID.n), 0.0, 0.0, phi
        )
        tf, a_f, b_f = masses_from_boundary_flux(neutral_interior.traces, 0.0, 0.0)
        ts = neutral_interior.trajectory.times
        assert np.max(np.abs(a_c - np.interp(ts, tf, a_f))) <= 1e-4
        assert np.max(np.abs(b_c - np.interp(ts, tf, b_f))) <= 1e-4

    def test_monotone_for_nonnegative_solutions(self, neutral_interior):
        _, a, b = masses_from_boundary_flux(neutral_interior.traces, 0.0, 0.0)
        assert np.all(np.diff(a) >= -1e-12)
        assert np.all(np.diff(b) >= -1e-12)

    def test_rough_drift_rejected(self):
        xs = np.linspace(0, 1, 21)
        rough = field_from_table(xs, np.sin(5 * xs))  # linear interpolation
        model = kimura_model(rough)
        sol = solve_interior(model, np.ones(GRID.n), 0.5, [0.5], GRID)
        assert not sol.traces.psi_continuous
        with pytest.raises(RegularityTierError):
            masses_from_boundary_flux(sol.traces, 0.0, 0.0)


class TestOutflow:
    """The traces carry the mass that leaves per unit trace, so one flux
    routine gives either model's atoms."""

    def test_kimura_rates(self, neutral_interior):
        assert neutral_interior.traces.outflow == (1.0, 1.0)

    @pytest.mark.parametrize("R0", [0.5, 2.0, 10.0])
    def test_sis_rates(self, R0):
        sol = solve_interior(sis_model(R0), np.ones(21), 0.1, [0.1], Grid(0.0, 1.0, 21))
        assert sol.traces.outflow == (0.5 * (R0 + 1), 0.0)

    def test_sis_flux_atom_closed_form(self):
        # a(t) = a0 + (R0 + 1)/2 int_0^t r(0, s) ds, with g'(0) = (R0 + 1)/2,
        # on the snapshot times; the trace at x = 1 is integrated but
        # carries no outflow
        grid = Grid(0.0, 1.0, 201)
        sol = solve_interior(sis_model(2.0), np.ones(grid.n), 2.0, [0.0, 1.0, 2.0], grid)
        tf, a, b = masses_from_boundary_flux(sol.traces, 0.1, 0.2)
        assert np.array_equal(tf, [0.0, 1.0, 2.0])
        assert np.array_equal(a, 0.1 + 0.5 * (2.0 + 1.0) * sol.traces.integral0)
        assert np.all(sol.traces.integral1[1:] > 0)
        assert np.all(b == 0.2)  # no atom grows at the zero-flux end

    def test_start_integrated_by_half_steps(self, monkeypatch):
        # on the stepper path the half steps are the scheme's own:
        # integrating them by their right ends, not the first two full steps
        # by the trapezoid rule, keeps the total mass at R0 = 10 (3.0e-4
        # drift the other way, 8.1e-7 this way)
        _forced_stepper(monkeypatch)
        grid = Grid(0.0, 1.0, 401)
        sol = solve_interior(sis_model(10.0), np.ones(grid.n), 10.0, [0.0, 1.0, 10.0], grid)
        ta, a, _ = masses_from_boundary_flux(sol.traces, 0.0, 0.0)
        interior = np.array([np.trapezoid(v, grid.nodes) for v in sol.trajectory.values])
        total = np.interp(sol.trajectory.times, ta, a) + interior
        assert np.max(np.abs(total - total[0])) <= 1e-6


class TestSisAtomMass:
    def test_zero_trace(self):
        from conspar.degenerate import BoundaryTraces

        traces = BoundaryTraces(
            times=np.linspace(0, 1, 5), integral0=np.zeros(5), integral1=np.zeros(5),
            outflow=(1.5, 0.0), psi_continuous=True,
        )
        _, a, _ = masses_from_boundary_flux(traces, 0.25, 0.0)
        assert np.all(a == 0.25)

    def test_constant_trace(self):
        from conspar.degenerate import BoundaryTraces

        times = np.linspace(0, 3, 31)
        c, R0 = 0.4, 2.0
        traces = BoundaryTraces(
            times=times, integral0=c * times, integral1=c * times,
            outflow=(0.5 * (R0 + 1), 0.0), psi_continuous=True,
        )
        _, a, _ = masses_from_boundary_flux(traces, 0.0, 0.0)
        assert np.max(np.abs(a - (R0 + 1) / 2 * c * times)) <= 1e-12

    def test_mass_conservation_cross_check(self):
        model = sis_model(2.0)
        times = np.linspace(0, 10, 41)
        sol = solve_interior(model, np.ones(GRID.n), 10.0, times, GRID)
        ta, a, _ = masses_from_boundary_flux(sol.traces, 0.0, 0.0)
        interior = np.array(
            [np.trapezoid(v, GRID.nodes) for v in sol.trajectory.values]
        )
        total = np.interp(sol.trajectory.times, ta, a) + interior
        assert np.max(np.abs(total - 1.0)) <= 1e-4


class TestDecompose:
    def test_interior_bump_no_atoms(self):
        vals = np.exp(-((GRID.nodes - 0.5) ** 2) / 0.01)
        bm = decompose_measure(vals, GRID)
        assert abs(bm.atom0) <= 1e-12
        assert abs(bm.atom1) <= 1e-12

    def test_boundary_spike_extracted(self):
        vals = np.ones(GRID.n)
        vals[0] += 0.3 / (GRID.h / 2)
        bm = decompose_measure(vals, GRID)
        assert abs(bm.atom0 - 0.3) <= GRID.h
        assert abs(bm.atom1) <= GRID.h

    def test_constant_density_small_atoms(self):
        bm = decompose_measure(np.ones(GRID.n), GRID)
        assert abs(bm.atom0) <= GRID.h
        assert abs(bm.atom1) <= GRID.h

    def test_zero_flux_end_keeps_its_mass(self):
        # a spike at a zero-flux x = 1 stays in the density: no atom there,
        # and the total mass is the data's own
        vals = np.ones(GRID.n)
        vals[0] += 0.3 / (GRID.h / 2)
        vals[-1] += 0.3 / (GRID.h / 2)
        bm = decompose_measure(vals, GRID, absorbs_at_1=False)
        assert abs(bm.atom0 - 0.3) <= GRID.h
        assert bm.atom1 == 0.0
        assert bm.density[-1] == vals[-1]
        assert bm.total_mass() == pytest.approx(np.trapezoid(vals, GRID.nodes), abs=1e-12)

    def test_measure_bookkeeping(self):
        vals = np.ones(GRID.n)
        bm = BoundaryMeasure(atom0=0.25, density=vals, atom1=0.25, time=0.0, grid=GRID)
        assert bm.total_mass() == pytest.approx(1.5)


class TestInterchangeOfLimits:
    def test_fixed_eps_long_time_vs_fixed_time_small_eps(self, neutral):
        # fixed eps, t -> infinity: regular steady state, no atoms
        sol = solve_regularized(neutral, np.ones(GRID.n), 1e-2, [1000.0], GRID)
        bm = decompose_measure(sol.trajectory.values[0], GRID, 1000.0)
        assert abs(bm.atom0) <= GRID.h
        assert abs(bm.atom1) <= GRID.h
        # fixed t = 50, eps -> 0: atoms carry the conserved mass
        ladder = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        res = vanishing_limit(neutral, np.ones(GRID.n), ladder, [50.0], GRID)
        assert res.measures[0].atom0 > 0.45
        assert res.measures[0].atom1 > 0.45
