import math
from dataclasses import replace

import numpy as np
import pytest

from conspar import conservative
from conspar.conservative import (
    INTRINSICALLY_POSITIVE,
    UNKNOWN,
    build_totally_conservative,
    certify_intrinsic_positivity,
    conservation_residual,
    duhamel_evolve,
    prescribe_moments,
    prescribed_moments_evolve,
    prescribed_moments_reduce,
    time_function,
)
from conspar.errors import CompatibilityError, CouplingError, InputError
from conspar.fields import (
    constant_field,
    field_from_callable,
    field_from_expression,
)
from conspar.sturm import (
    assemble,
    eigensolve,
    evolve,
    weighted_inner,
)


class TestBuildTotallyConservative:
    def test_heat_mass_and_first_moment_accepted(self, heat_problem):
        assert heat_problem.law_values.shape == (2, heat_problem.operator.grid.n)
        assert certify_intrinsic_positivity(heat_problem) == INTRINSICALLY_POSITIVE

    def test_quadratic_rejected_with_residual(self, grid, one, zero):
        with pytest.raises(InputError, match="phi2"):
            build_totally_conservative(one, zero, one, field_from_expression("x^2"), grid)

    def test_acceptance_symmetric_under_swap(self, grid, one, zero, x_field):
        p1 = build_totally_conservative(one, zero, one, x_field, grid)
        p2 = build_totally_conservative(one, zero, x_field, one, grid)
        assert np.array_equal(p1.law_values, p2.law_values[::-1])
        with pytest.raises(InputError, match="phi1"):
            build_totally_conservative(one, zero, field_from_expression("x^2"), one, grid)

    def test_proportional_laws_rejected(self, grid, one, zero):
        with pytest.raises(CouplingError):
            build_totally_conservative(one, zero, one, constant_field(2.0), grid)

    def test_transformed_kimura_laws_accepted(self, grid, zero):
        # drift-weighted heat problem conserving mass and fixation moment
        from conspar.fields import exponential_weight, fixation_probability

        psi = constant_field(1.0)
        p = exponential_weight(psi)
        phi = fixation_probability(psi)
        problem = build_totally_conservative(p, zero, constant_field(1.0), phi, grid)
        assert certify_intrinsic_positivity(problem) == INTRINSICALLY_POSITIVE

    def test_assembles_once(self, grid, one, zero, x_field, monkeypatch):
        # the laws are checked against the operator the eigensolve uses
        calls = []

        def counted(*args):
            calls.append(args)
            return assemble(*args)

        monkeypatch.setattr(conservative, "assemble", counted)
        problem = build_totally_conservative(one, zero, one, x_field, grid)
        eig = eigensolve(problem.operator, problem.coupling, k=6)
        assert len(calls) == 1
        assert eig.zero_multiplicity == 2


class TestCertifyPositivity:
    def test_mass_law_alone_positive(self, heat_problem):
        assert certify_intrinsic_positivity(heat_problem) == INTRINSICALLY_POSITIVE

    def test_positive_combination_needed(self, grid, one, zero, x_field):
        mirrored = field_from_expression("1-x")
        problem = build_totally_conservative(one, zero, x_field, mirrored, grid)
        assert certify_intrinsic_positivity(problem) == INTRINSICALLY_POSITIVE

    def test_oscillatory_kernel_unknown(self, grid, one):
        q = constant_field((2 * np.pi) ** 2)
        s = field_from_callable(
            lambda x: np.sin(2 * np.pi * np.asarray(x)),
            "s",
            derivative=lambda x: 2 * np.pi * np.cos(2 * np.pi * np.asarray(x)),
        )
        c = field_from_callable(
            lambda x: np.cos(2 * np.pi * np.asarray(x)),
            "c",
            derivative=lambda x: -2 * np.pi * np.sin(2 * np.pi * np.asarray(x)),
        )
        problem = build_totally_conservative(one, q, s, c, grid)
        assert certify_intrinsic_positivity(problem) == UNKNOWN
        # dense direction sampling confirms no positive combination exists
        th = np.linspace(0, np.pi, 10_000, endpoint=False)
        combos = np.cos(th)[:, None] * problem.law_values[0] + np.sin(th)[:, None] * problem.law_values[1]
        assert np.all(combos.min(axis=1) < 0)

    def test_invariant_under_positive_rescaling(self, grid, one, zero, x_field):
        import dataclasses

        base = build_totally_conservative(one, zero, x_field, field_from_expression("1-x"), grid)
        scaled = dataclasses.replace(
            base, law_values=np.vstack([7.0 * base.law_values[0], 0.25 * base.law_values[1]])
        )
        assert certify_intrinsic_positivity(scaled) == certify_intrinsic_positivity(base)


class TestConservationResidual:
    def test_stationary_snapshots(self, heat_eig, grid, one):
        from conspar.sturm import Trajectory

        v = np.ones((4, grid.n))
        traj = Trajectory(grid=grid, times=np.arange(4.0), values=v)
        assert conservation_residual(traj, one, one) == 0.0

    def test_spectral_evolution_conserves(self, heat_eig, grid, one, x_field):
        rng = np.random.default_rng(0)
        v0 = np.abs(rng.normal(1.0, 0.3, grid.n))
        traj = evolve(heat_eig, v0, [0.0, 0.1, 0.5, 1.0, 5.0])
        assert conservation_residual(traj, one, one) <= 1e-8
        assert conservation_residual(traj, x_field, one) <= 1e-8

    def test_dropping_kernel_mode_flagged(self, heat_eig, grid, one):
        # truncating the first mode and comparing against the true initial
        # data leaves a visible moment deficit
        from conspar.sturm import Trajectory

        rng = np.random.default_rng(1)
        v0 = np.abs(rng.normal(1.0, 0.3, grid.n))
        truncated = replace(
            heat_eig,
            eigenvalues=heat_eig.eigenvalues[1:],
            vectors=heat_eig.vectors[:, 1:],
        )
        t1 = evolve(truncated, v0, [1.0]).values[0]
        traj = Trajectory(
            grid=grid, times=np.array([0.0, 1.0]), values=np.vstack([v0, t1])
        )
        assert conservation_residual(traj, one, one) > 1e-3

    def test_kernel_projection_reproduces_laws(self, heat_eig, heat_problem):
        # both laws lie in span of the two zero modes
        for law in heat_problem.law_values:
            a = heat_eig.project(law)
            recon = heat_eig.vectors[:, :2] @ a[:2]
            rel = np.linalg.norm(recon - law) / np.linalg.norm(law)
            assert rel <= 1e-6


class TestDuhamel:
    def test_zero_source_matches_evolve(self, heat_eig, grid):
        rng = np.random.default_rng(2)
        v0 = rng.random(grid.n)
        times = [0.3, 1.1]
        td = duhamel_evolve(heat_eig, v0, lambda t: np.zeros(grid.n), times)
        te = evolve(heat_eig, v0, times)
        assert np.max(np.abs(td.values - te.values)) <= 1e-12

    def test_constant_single_mode_source(self, heat_eig, grid):
        w3 = heat_eig.vectors[:, 2]
        lam3 = heat_eig.eigenvalues[2]
        t = 0.5
        td = duhamel_evolve(heat_eig, np.zeros(grid.n), lambda s: w3, [t])
        expected = (1 - math.exp(-lam3 * t)) / lam3 * w3
        assert np.max(np.abs(td.values[0] - expected)) <= 1e-9

    def test_time_derivative_matches_generator_plus_source(self, heat_eig, grid):
        # d/dt w = L w + G, checked by central differences at two widths
        w3 = heat_eig.vectors[:, 2]
        G = lambda s: math.cos(s) * w3  # noqa: E731
        w0 = heat_eig.vectors[:, 0] + 0.5 * w3
        t0 = 0.4
        errs = []
        for dt in (1e-3, 5e-4):
            tm, tp = t0 - dt, t0 + dt
            traj = duhamel_evolve(heat_eig, w0, G, [tm, t0, tp])
            dwdt = (traj.values[2] - traj.values[0]) / (2 * dt)
            lhs = heat_eig.vectors.T @ (heat_eig.mass * dwdt)
            w_mid = traj.values[1]
            rhs_spec = -heat_eig.eigenvalues * (
                heat_eig.vectors.T @ (heat_eig.mass * w_mid)
            ) + heat_eig.vectors.T @ (heat_eig.mass * G(t0))
            errs.append(float(np.max(np.abs(lhs - rhs_spec))))
        assert errs[1] <= errs[0] / 3.0  # second order in the step


class TestPrescribedMoments:
    def _pres(self, heat_problem, F1=None, F2=None):
        F1 = F1 if F1 is not None else time_function(lambda t: 1.0, lambda t: 0.0)
        F2 = F2 if F2 is not None else time_function(lambda t: 0.0, lambda t: 0.0)
        return prescribe_moments(heat_problem, F1, F2)

    def test_constant_targets_give_zero_source(self, heat_problem, grid):
        pres = self._pres(heat_problem)
        v0 = 1.0 * pres.phi1
        w0, G = prescribed_moments_reduce(v0, pres)
        assert np.max(np.abs(w0)) <= 1e-12
        assert np.max(np.abs(G(0.7))) <= 1e-15

    def test_linear_target_source_is_first_law(self, heat_problem, grid):
        F1 = time_function(lambda t: 1.0 + t, lambda t: 1.0)
        pres = self._pres(heat_problem, F1=F1)
        v0 = 1.0 * pres.phi1
        _, G = prescribed_moments_reduce(v0, pres)
        assert np.max(np.abs(G(2.3) - pres.phi1)) <= 1e-12

    def test_incompatible_initial_moment_rejected(self, heat_problem, grid):
        F1 = time_function(lambda t: 2.0, lambda t: 0.0)
        pres = self._pres(heat_problem, F1=F1)
        v0 = 1.0 * pres.phi1  # moment 1, target demands 2
        with pytest.raises(CompatibilityError):
            prescribed_moments_reduce(v0, pres)

    def test_zero_moment_part_stays_zero(self, heat_problem, heat_eig, grid):
        F1 = time_function(lambda t: 1.0 + 0.3 * math.sin(2 * t), lambda t: 0.6 * math.cos(2 * t))
        F2 = time_function(lambda t: 0.2 * t, lambda t: 0.2)
        pres = self._pres(heat_problem, F1=F1, F2=F2)
        rng = np.random.default_rng(3)
        noise = rng.random(grid.n)
        noise -= (
            weighted_inner(noise, pres.phi1, pres.weight, grid) * pres.phi1
            + weighted_inner(noise, pres.phi2, pres.weight, grid) * pres.phi2
        )
        v0 = F1.value(0.0) * pres.phi1 + F2.value(0.0) * pres.phi2 + noise
        times = np.linspace(0.0, 3.0, 13)
        v_traj, w_traj = prescribed_moments_evolve(heat_eig, v0, pres, times)
        for phi in (pres.phi1, pres.phi2):
            moments = [abs(weighted_inner(w, phi, pres.weight, grid)) for w in w_traj.values]
            assert max(moments) <= 1e-6

    def test_moment_tracking(self, heat_problem, heat_eig, grid):
        F1 = time_function(lambda t: 1.0 + math.sin(t), lambda t: math.cos(t))
        pres = self._pres(heat_problem, F1=F1)
        v0 = F1.value(0.0) * pres.phi1
        times = np.linspace(0.0, 5.0, 21)
        v_traj, _ = prescribed_moments_evolve(heat_eig, v0, pres, times)
        got = np.array(
            [weighted_inner(v, pres.phi1, pres.weight, grid) for v in v_traj.values]
        )
        want = np.array([F1.value(float(t)) for t in times])
        assert np.max(np.abs(got - want)) <= 1e-6

    @pytest.mark.parametrize("laws", [("0", "1", "x"), ("1", "cos(x)", "sin(x)")])
    def test_kernel_closed_form_matches_general_duhamel(self, grid, one, laws):
        # the zero modes are integrated by parts with their computed lambda;
        # for q = 1 that lambda is about -1e-5, so F(t) - F(0) alone would
        # miss by about 1e-5 * t
        q, law1, law2 = (field_from_expression(e) for e in laws)
        problem = build_totally_conservative(one, q, law1, law2, grid)
        eig = eigensolve(problem.operator, problem.coupling)
        F1 = time_function(lambda t: 1.0 + math.sin(t))
        F2 = time_function(lambda t: 0.5 * t)
        pres = prescribe_moments(problem, F1, F2)
        v0 = F1.value(0.0) * pres.phi1
        times = np.linspace(0.0, 5.0, 11)
        v_traj, _ = prescribed_moments_evolve(eig, v0, pres, times)
        w0, G = prescribed_moments_reduce(v0, pres)
        general = duhamel_evolve(eig, w0, G, times).values + v0[None, :]
        assert np.max(np.abs(v_traj.values - general)) <= 1e-9
        assert v_traj.diagnostics["duhamel_levels"] >= 1
        leak = v_traj.diagnostics["duhamel_kernel_leakage"]
        assert leak == float(np.max(np.abs(
            eig.vectors[:, eig.zero_multiplicity:].T
            @ (eig.mass[:, None] * np.stack([pres.phi1, pres.phi2], axis=1))
        )))

    def test_numeric_derivative_fallback(self):
        f = time_function(lambda t: math.sin(3 * t))
        assert abs(f.derivative(0.4) - 3 * math.cos(1.2)) <= 1e-6
