import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conspar import fields
from conspar.degenerate import kimura_model, sis_model, solve_regularized
from conspar.errors import (
    DomainBoundsError,
    InputError,
    ParameterError,
    QuadratureError,
)
from conspar.fields import (
    _CubicSpline,
    constant_field,
    exponential_weight,
    field_from_expression,
    field_from_table,
    fixation_probability,
)
from conspar.sturm import Grid

# oracle values (adaptive quadrature, scipy.integrate.quad at 1e-14)
PHI_LINEAR_DRIFT = {0.25: 0.2891690199418016, 0.5: 0.5609064251880029, 0.75: 0.8008696509078178}


class TestCoefficientField:
    def test_rejects_unsorted_or_misanchored(self):
        with pytest.raises(InputError):
            field_from_table([0.0, 0.6, 0.5, 1.0], [1, 1, 1, 1])
        with pytest.raises(InputError):
            field_from_table([0.1, 1.0], [1, 1])
        with pytest.raises(InputError):
            field_from_table([0.0, 0.9], [1, 1])

    @pytest.mark.parametrize("bad", ["xs", "values"])
    def test_rejects_non_finite_samples(self, bad):
        xs, vals = np.array([0.0, 0.5, 1.0]), np.array([1.0, 2.0, 3.0])
        (xs if bad == "xs" else vals)[1] = np.nan
        with pytest.raises(InputError, match="finite"):
            field_from_table(xs, vals)

    def test_reproduces_samples_exactly(self):
        xs = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
        vals = np.array([1.0, -0.5, 2.0, 0.25, 3.0])
        f = field_from_table(xs, vals)
        assert np.array_equal(f(xs), vals)

    def test_table_is_linear_between_samples(self):
        xs = np.array([0.0, 0.2, 0.5, 0.7, 1.0])
        vals = np.array([1.0, -0.5, 2.0, 0.25, 3.0])
        f = field_from_table(xs, vals)
        mids = 0.5 * (xs[1:] + xs[:-1])
        assert np.allclose(f(mids), 0.5 * (vals[1:] + vals[:-1]), rtol=0, atol=1e-15)

    def test_expression_field_exact_at_nodes(self):
        f = field_from_expression("x*(1-x)")
        assert f(0.5) == 0.25
        assert np.array_equal(f(f.xs), f.values)

    def test_domain_error_outside_unit_interval(self):
        f = constant_field(1.0)
        with pytest.raises(DomainBoundsError):
            f(1.5)
        with pytest.raises(DomainBoundsError):
            f(np.array([0.2, -0.3]))

    def test_zero_field_cumulative_identically_zero(self, zero):
        cells = fields._cell_integrals(zero, np.array([0.0, 0.3, 0.7, 1.0]))
        assert np.all(np.cumsum(cells) == 0.0)

    def test_continuous_tier(self):
        assert field_from_expression("x").continuous_tier
        assert constant_field(2.0).continuous_tier
        rough = field_from_table([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
        assert not rough.continuous_tier


class TestCumulativeIntegral:
    """The cell integrals behind ``assemble`` and the derived weights."""

    def test_constant(self, one):
        assert abs(fields._cell_integrals(one, np.array([0.0, 0.5]))[0] - 0.5) <= 1e-14

    def test_sine_against_quadrature_oracle(self):
        f = field_from_expression("sin(x)")
        # frozen from adaptive quadrature: 1 - cos(1)
        whole = fields._cell_integrals(f, np.array([0.0, 1.0]))[0]
        assert abs(whole - 0.45969769413186023) <= 1e-8

    def test_domain_error(self, one):
        with pytest.raises(DomainBoundsError):
            fields._cell_integrals(one, np.array([0.0, 1.2]))

    @given(
        st.sampled_from(["sin(3*x)+2", "exp(0-x)*x", "1+x^3", "cos(5*x)"]),
        st.floats(min_value=0.01, max_value=0.99),
    )
    @settings(max_examples=40, deadline=None)
    def test_additivity(self, expr, x):
        f = field_from_expression(expr)
        whole = fields._cell_integrals(f, np.array([0.0, 1.0]))[0]
        parts = fields._cell_integrals(f, np.array([0.0, x, 1.0])).sum()
        assert abs(parts - whole) <= 1e-12 * max(1.0, abs(whole))


class TestExponentialWeight:
    def test_zero_drift_gives_one(self, zero):
        p = exponential_weight(zero)
        assert np.max(np.abs(p(np.linspace(0, 1, 11)) - 1.0)) <= 1e-14

    def test_constant_drift_closed_form(self):
        p = exponential_weight(constant_field(1.3))
        xs = np.linspace(0, 1, 11)
        assert np.max(np.abs(p(xs) - np.exp(1.3 * xs))) <= 1e-10

    def test_linear_drift_closed_form(self, x_field):
        p = exponential_weight(x_field)
        xs = np.linspace(0, 1, 11)
        assert np.max(np.abs(p(xs) - np.exp(xs**2 / 2))) <= 1e-8

    def test_positive_for_rough_drift(self):
        rng = np.random.default_rng(5)
        xs = np.linspace(0, 1, 21)
        psi = field_from_table(xs, rng.normal(0, 3, 21))
        p = exponential_weight(psi)
        assert p.min_sample() > 0


class TestFixationProbability:
    def test_zero_drift_is_identity(self, zero):
        phi = fixation_probability(zero)
        xs = np.linspace(0, 1, 17)
        assert np.max(np.abs(phi(xs) - xs)) <= 1e-12

    def test_constant_drift_closed_form(self):
        c = -1.7
        phi = fixation_probability(constant_field(c))
        xs = np.linspace(0, 1, 17)
        expected = (1 - np.exp(-c * xs)) / (1 - np.exp(-c))
        assert np.max(np.abs(phi(xs) - expected)) <= 1e-9

    def test_linear_drift_against_quadrature_oracle(self, x_field):
        phi = fixation_probability(x_field)
        for x, want in PHI_LINEAR_DRIFT.items():
            assert abs(phi(x) - want) <= 1e-8

    def test_pinned_and_monotone(self):
        for expr in ("0", "1-2*x", "sin(6*x)"):
            phi = fixation_probability(field_from_expression(expr))
            assert phi(0.0) == 0.0
            assert abs(phi(1.0) - 1.0) <= 1e-12
            vals = phi(np.linspace(0, 1, 201))
            assert np.all(np.diff(vals) >= -1e-14)

    @pytest.mark.parametrize("n", [101, 201, 401])
    def test_defining_equation_residual_second_order(self, n, x_field):
        # central-difference phi'' + psi phi' is O(h^2) as the grid refines
        phi = fixation_probability(x_field)
        xs = np.linspace(0, 1, n)
        h = xs[1] - xs[0]
        v = phi(xs)
        second = (v[2:] - 2 * v[1:-1] + v[:-2]) / h**2
        first = (v[2:] - v[:-2]) / (2 * h)
        resid = float(np.max(np.abs(second + xs[1:-1] * first)))
        assert resid <= 5.0 * h**2


class TestDriftAntiderivative:
    @pytest.mark.parametrize("model, builds", [(kimura_model, 2), (sis_model, 1)])
    def test_built_once_per_model(self, monkeypatch, model, builds):
        # Kimura: int_0^x psi, shared by both weights, then int exp(-int psi)
        calls = []
        build = fields._antiderivative_callable

        def counted(*args, **kwargs):
            calls.append(kwargs["what"])
            return build(*args, **kwargs)

        monkeypatch.setattr(fields, "_antiderivative_callable", counted)
        model(field_from_expression("1-2*x") if model is kimura_model else 2.0)
        assert len(calls) == builds


def _sis_F(R0, x):
    return R0 * (1.0 - x) + 1.0


def _sis_P(R0, x):
    """Reference exp(2H), H = x + (2/R0) log(F/(R0 + 1)): the closed form
    of exp(int_0^x psi) for the SIS drift."""
    return np.exp(2.0 * (x + (2.0 / R0) * np.log(_sis_F(R0, x) / (R0 + 1.0))))


class TestSisCoefficients:
    """``sis_model``'s fields against the closed forms of the SIS
    coefficients, F = R0(1-x) + 1, g = x F/2, psi = 2 - 4/F, P = exp(2H)."""

    def test_f_endpoints(self):
        model = sis_model(2.0)
        assert model.g.derivative(0.0) == 1.5  # F(0)/2
        assert model.g(1.0) == 0.5  # F(1)/2
        xs = np.linspace(0, 1, 21)
        assert np.max(np.abs(model.g(xs) - 0.5 * xs * _sis_F(2.0, xs))) <= 1e-15
        assert np.max(np.abs(model.psi(xs) - (2.0 - 4.0 / _sis_F(2.0, xs)))) <= 1e-15

    def test_anchors_any_r0(self):
        for R0 in (0.5, 1.0, 2.0, 7.3):
            P = exponential_weight(sis_model(R0).psi)
            assert abs(_sis_P(R0, 0.0) - 1.0) <= 1e-15
            assert abs(P(0.0) - 1.0) <= 1e-15

    def test_closed_forms_at_one(self):
        P = exponential_weight(sis_model(2.0).psi)
        # frozen: H(1) = 1 + log(1/3), P(1) = exp(2 H(1)) = e^2/9
        assert abs(0.5 * np.log(P(1.0)) - (-0.09861228866810978)) <= 1e-10
        assert abs(P(1.0) - 0.8210062332145165) <= 1e-10

    def test_p_consistent_with_exponential_weight(self):
        xs = np.linspace(0, 1, 21)
        for R0 in (0.5, 2.0, 7.3):
            p = exponential_weight(sis_model(R0).psi)
            assert np.max(np.abs(p(xs) - _sis_P(R0, xs))) <= 1e-8

    def test_omega_eps_converges_pointwise_on_open_interval(self):
        # the solver's regularized weight P/(g + eps) is 2P/(xF + 2 eps);
        # on (0, 1] it tends to 2P/(xF) as eps -> 0
        grid = Grid(0.0, 1.0, 21)
        xs = grid.nodes
        P, xF = _sis_P(2.0, xs), xs * _sis_F(2.0, xs)
        err = []
        for eps in (1e-2, 1e-4, 1e-6):
            sol = solve_regularized(sis_model(2.0), np.ones(grid.n), eps, [0.0], grid)
            w = sol.p_values / sol.g_eps_values
            np.testing.assert_allclose(w, 2 * P / (xF + 2 * eps), rtol=1e-12, atol=0)
            err.append(float(np.max(np.abs(w[1:] - 2 * P[1:] / xF[1:]))))
        assert err[0] > err[1] > err[2]
        # deviation scale is (2P/(xF)) * 2 eps/(xF) at x_min = 0.05
        assert err[2] <= 2e-4

    def test_omega_singular_at_zero(self):
        # the regularized weight at x = 0 is P(0)/eps = 1/eps, unbounded
        # as eps -> 0
        grid = Grid(0.0, 1.0, 21)
        for eps in (1e-2, 1e-4, 1e-6):
            sol = solve_regularized(sis_model(2.0), np.ones(grid.n), eps, [0.0], grid)
            assert sol.p_values[0] / sol.g_eps_values[0] == pytest.approx(1 / eps, rel=1e-14)

    def test_rejects_bad_r0(self):
        for R0 in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                sis_model(R0)


class TestDerivatives:
    def test_exact_derivative_used(self, x_field):
        phi = fixation_probability(x_field)
        # phi'(x) = exp(-x^2/2)/Z with Z frozen from the quadrature oracle
        z = 0.855624391892149
        assert abs(phi.derivative(0.0) - 1.0 / z) <= 1e-8
        assert abs(phi.derivative(1.0) - math.exp(-0.5) / z) <= 1e-8

    def test_formula_one_sided_endpoints_second_order(self):
        # a formula field without a derivative: a first-order step at the
        # ends would be off by about 5e-7 here
        f = field_from_expression("log(1+x)")
        xs = np.array([0.0, 5e-7, 0.5, 1.0 - 5e-7, 1.0])
        assert np.max(np.abs(f.derivative(xs) - 1.0 / (1.0 + xs))) <= 1e-9
        assert abs(f.derivative(0.0) - 1.0) <= 1e-9
        assert abs(f.derivative(1.0) - 0.5) <= 1e-9
        # the 3-point stencil is exact on quadratics
        g = field_from_expression("x^2")
        assert (g.derivative(0.0), g.derivative(1.0)) == (0.0, 2.0)

    def test_linear_table_one_sided_endpoints(self):
        xs = np.linspace(0, 1, 11)
        f = field_from_table(xs, xs**2)
        # 3-point one-sided stencil is exact on quadratics
        assert abs(f.derivative(0.0) - 0.0) <= 1e-12
        assert abs(f.derivative(1.0) - 2.0) <= 1e-12


def _random_table(n, seed):
    rng = np.random.default_rng(seed)
    xs = np.concatenate([[0.0], np.sort(rng.uniform(0.0, 1.0, n - 2)), [1.0]])
    return xs, rng.standard_normal(n) * 10.0 ** rng.integers(-4, 5)


class TestCubicSpline:
    """The numpy spline against scipy's CubicSpline, bit for bit."""

    @pytest.mark.parametrize("n", [4, 5, 17, 401, 1025, 3201])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scipy_bit_for_bit(self, n, seed):
        from scipy.interpolate import CubicSpline

        xs, ys = _random_table(n, seed)
        ours, ref = _CubicSpline(xs, ys, "table"), CubicSpline(xs, ys)
        x = np.concatenate([np.random.default_rng(seed).uniform(0, 1, 2000), xs, [0.0, 1.0]])
        for nu in (0, 1):
            assert np.array_equal(ours(x, nu), ref(x, nu))
            assert ours(0.5, nu) == ref(0.5, nu)

    def test_non_finite_values_refused(self):
        xs, ys = _random_table(5, 0)
        ys[2] = np.inf
        with pytest.raises(QuadratureError, match="no cubic spline through the table"):
            _CubicSpline(xs, ys, "the table")

    def test_overflowing_antiderivative_names_the_field(self):
        # int_0^1 exp(800 y) dy overflows
        with np.errstate(over="ignore"), pytest.raises(QuadratureError, match="psi = -800"):
            fixation_probability(field_from_expression("-800"))
