"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance is pinned here, not deferred. Runtime bounds are asserted
as part of each criterion.
"""

import time

import numpy as np

from conspar.conservative import (
    build_totally_conservative,
    prescribe_moments,
    prescribed_moments_evolve,
    time_function,
)
from conspar.degenerate import (
    BoundaryMeasure,
    decompose_measure,
    kimura_model,
    masses_from_boundary_flux,
    masses_from_conservation,
    sis_model,
    solve_interior,
    solve_regularized,
    vanishing_limit,
)
from conspar.fields import (
    constant_field,
    field_from_expression,
    fixation_probability,
)
from conspar.oracle import compare_measures, kimura_sde, simulate
from conspar.sturm import (
    Grid,
    eigensolve,
    evolve,
    positivity_check,
    weighted_inner,
)

GRID = Grid(0.0, 1.0, 401)
ONE = constant_field(1.0)
ZERO = constant_field(0.0)
X = field_from_expression("x")


class _Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def _report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] criterion {num} ({name}): {detail}; {elapsed:.2f}s < {limit}s")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed < limit, f"criterion {num} overran: {elapsed:.2f}s >= {limit}s"


def test_criterion_1_double_zero_spectrum():
    details = []
    worst_elapsed = 0.0
    with _Timer() as t1:
        heat = build_totally_conservative(ONE, ZERO, ONE, X, GRID)
        eig = eigensolve(heat.operator, heat.coupling)
        lam = eig.eigenvalues
        ok_heat = bool(np.max(np.abs(lam[:2])) <= 1e-8 * lam[2] and lam[2] > 0)
        details.append(f"heat |lam_12|={np.max(np.abs(lam[:2])):.1e}, lam3={lam[2]:.3f}")
    worst_elapsed = max(worst_elapsed, t1.elapsed)
    with _Timer() as t2:
        sol = solve_regularized(kimura_model(ZERO), np.ones(GRID.n), 1e-2, [0.0], GRID)
        lam = sol.eig.eigenvalues
        ok_kim = bool(np.max(np.abs(lam[:2])) <= 1e-8 * lam[2] and lam[2] > 0)
        details.append(
            f"regularized |lam_12|={np.max(np.abs(lam[:2])):.1e}, lam3={lam[2]:.3f}"
        )
    worst_elapsed = max(worst_elapsed, t2.elapsed)
    _report(1, "double-zero spectrum", ok_heat and ok_kim, "; ".join(details), worst_elapsed, 2.0)


def test_criterion_2_conservation():
    with _Timer() as t:
        rng = np.random.default_rng(42)
        worst = 0.0
        for expr in ("0", "1"):
            model = kimura_model(field_from_expression(expr))
            phi = fixation_probability(model.psi)
            u0 = np.abs(rng.normal(1.0, 0.4, GRID.n))
            times = np.linspace(0.0, 5.0, 20)
            sol = solve_regularized(model, u0, 1e-2, times, GRID)
            nodes = GRID.nodes
            phiv = phi(nodes)
            masses = np.array([np.trapezoid(v, nodes) for v in sol.trajectory.values])
            moms = np.array([np.trapezoid(v * phiv, nodes) for v in sol.trajectory.values])
            worst = max(
                worst,
                float(np.max(np.abs(masses - masses[0])) / abs(masses[0])),
                float(np.max(np.abs(moms - moms[0])) / abs(moms[0])),
            )
    _report(2, "conservation", worst <= 1e-6, f"max relative drift {worst:.2e}", t.elapsed, 5.0)


def test_criterion_3_neutral_fixation_masses():
    with _Timer() as t:
        model = kimura_model(ZERO)
        r0 = np.ones(GRID.n)
        sol = solve_interior(model, r0, 50.0, [50.0], GRID)
        phi = fixation_probability(model.psi)
        a, b = masses_from_conservation(sol.trajectory, r0, 0.0, 0.0, phi)
        interior = float(np.trapezoid(sol.trajectory.values[-1], GRID.nodes))
        total = a[-1] + b[-1] + interior
        ok = (
            abs(a[-1] - 0.5) <= 1e-3
            and abs(b[-1] - 0.5) <= 1e-3
            and abs(total - 1.0) <= 1e-6
        )
    _report(
        3,
        "neutral fixation masses",
        ok,
        f"a={a[-1]:.6f}, b={b[-1]:.6f}, total-1={total - 1:.1e}",
        t.elapsed,
        10.0,
    )


def test_criterion_4_mass_formula_consistency():
    with _Timer() as t:
        model = kimura_model(field_from_expression("1-2*x"))
        r0 = np.ones(GRID.n)
        times = np.linspace(0.0, 10.0, 41)
        sol = solve_interior(model, r0, 10.0, times, GRID)
        phi = fixation_probability(model.psi)
        a_c, b_c = masses_from_conservation(sol.trajectory, r0, 0.0, 0.0, phi)
        tf, a_f, b_f = masses_from_boundary_flux(sol.traces, 0.0, 0.0)
        ts = sol.trajectory.times
        gap = max(
            float(np.max(np.abs(a_c - np.interp(ts, tf, a_f)))),
            float(np.max(np.abs(b_c - np.interp(ts, tf, b_f)))),
        )
    _report(4, "mass formula consistency", gap <= 1e-3, f"max gap {gap:.2e}", t.elapsed, 10.0)


def test_criterion_5_sis_structure():
    with _Timer() as t:
        model = sis_model(2.0)
        times = np.linspace(0.0, 10.0, 41)
        sol = solve_interior(model, np.ones(GRID.n), 10.0, times, GRID)
        ta, a_curve, _ = masses_from_boundary_flux(sol.traces, 0.0, 0.0)
        a = np.interp(sol.trajectory.times, ta, a_curve)
        interior = np.array(
            [np.trapezoid(v, GRID.nodes) for v in sol.trajectory.values]
        )
        mass_err = float(np.max(np.abs(a + interior - 1.0)))
        monotone = bool(np.all(np.diff(a_curve) >= -1e-10))

        residuals = []
        for n in (201, 401, 801):
            g = Grid(0.0, 1.0, n)
            s = solve_interior(model, np.ones(g.n), 1.0, [1.0], g)
            r = s.trajectory.values[0]
            drx = (3 * r[-1] - 4 * r[-2] + r[-3]) / (2 * g.h)
            residuals.append(abs(0.5 * ((1 - 2.0) * r[-1] + drx) + r[-1]))
        orders = np.log2([residuals[0] / residuals[1], residuals[1] / residuals[2]])
        ok = mass_err <= 1e-4 and monotone and bool(np.all(orders >= 1.0))
    _report(
        5,
        "SIS structure",
        ok,
        f"mass err {mass_err:.1e}, monotone={monotone}, atom1=0 by construction, "
        f"robin orders {orders[0]:.2f}/{orders[1]:.2f}",
        t.elapsed,
        20.0,
    )


def test_criterion_6_ladder_convergence():
    with _Timer() as t:
        model = kimura_model(ZERO)
        u0 = np.ones(GRID.n)
        ladder = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3)
        res = vanishing_limit(model, u0, ladder, [1.0], GRID, probes=(0.25, 0.5, 0.75))
        diffs = res.probe_differences[:, :, 0]  # (rungs-1, probes)
        decreasing = np.all(np.diff(diffs, axis=0) < 0, axis=0)
        frac = float(np.mean(decreasing))

        direct = solve_interior(model, u0, 1.0, [1.0], GRID).trajectory.values[0]
        idx = [int(round(p / GRID.h)) for p in res.probe_xs]
        gap = np.abs(res.measures[0].density[idx] - direct[idx])
        within = bool(np.all(gap <= 2.0 * diffs[-1]))
        ok = frac >= 0.8 and within
    _report(
        6,
        "ladder convergence",
        ok,
        f"monotone probes {frac:.0%}, extrapolation gap {gap.max():.3f} "
        f"<= 2x last diff {2 * diffs[-1].max():.3f}",
        t.elapsed,
        30.0,
    )


def test_criterion_7_monte_carlo_cross_validation():
    with _Timer() as t:
        spec = kimura_sde(
            ZERO, 0.3, dt=1e-4, horizon=20.0, replicates=10_000, seed=2026
        )
        measures = simulate(spec, [20.0])
        emp = measures[0]
        se = emp.standard_errors["mass_at_1"]
        fixation_ok = abs(emp.mass_at_1 - 0.3) <= 3 * se

        model = kimura_model(ZERO)
        r0 = np.zeros(GRID.n)
        r0[int(round(0.3 / GRID.h))] = 1.0 / GRID.h
        sol = solve_interior(model, r0, 20.0, [20.0], GRID)
        phi = fixation_probability(model.psi)
        a, b = masses_from_conservation(sol.trajectory, r0, 0.0, 0.0, phi)
        bm = BoundaryMeasure(
            atom0=a[-1],
            density=np.clip(sol.trajectory.values[-1], 0.0, None),
            atom1=b[-1],
            time=20.0,
            grid=GRID,
        )
        rep = compare_measures(emp, bm)
        ok = fixation_ok and rep.atoms_pass
    _report(
        7,
        "Monte Carlo cross-validation",
        ok,
        f"mass1={emp.mass_at_1:.4f} vs 0.3 (z={abs(emp.mass_at_1 - 0.3) / se:.2f}), "
        f"joint z=({rep.z_atom0:.2f}, {rep.z_atom1:.2f})",
        t.elapsed,
        60.0,
    )


def test_criterion_8_positivity():
    with _Timer() as t:
        heat = build_totally_conservative(ONE, ZERO, ONE, X, GRID)
        eig = eigensolve(heat.operator, heat.coupling)
        rng = np.random.default_rng(8)
        times = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0, 2.0, 5.0]
        worst = np.inf
        for i in range(50):
            if i % 3 == 0:
                v0 = np.abs(rng.normal(1.0, 0.5, GRID.n))
            elif i % 3 == 1:
                v0 = rng.random(GRID.n)
            else:
                v0 = rng.random(GRID.n) ** 4 * 3.0
            rep = positivity_check(evolve(eig, v0, times), 1e-10)
            worst = min(worst, rep.min_value)
        ok = worst >= -1e-10
    _report(8, "positivity", ok, f"min over 50 runs {worst:.2e}", t.elapsed, 10.0)


def test_criterion_9_moment_prescription():
    import math

    with _Timer() as t:
        heat = build_totally_conservative(ONE, ZERO, ONE, X, GRID)
        eig = eigensolve(heat.operator, heat.coupling)
        F1 = time_function(lambda s: 1.0 + math.sin(s), lambda s: math.cos(s))
        F2 = time_function(lambda s: 0.0, lambda s: 0.0)
        pres = prescribe_moments(heat, F1, F2)
        v0 = F1.value(0.0) * pres.phi1
        times = np.linspace(0.0, 5.0, 51)
        v_traj, _ = prescribed_moments_evolve(eig, v0, pres, times)
        got = np.array(
            [weighted_inner(v, pres.phi1, pres.weight, GRID) for v in v_traj.values]
        )
        want = np.array([F1.value(float(s)) for s in times])
        err = float(np.max(np.abs(got - want)))
    _report(9, "moment prescription", err <= 1e-4, f"max tracking error {err:.2e}", t.elapsed, 5.0)


def test_criterion_10_interchange_of_limits_guard():
    with _Timer() as t:
        model = kimura_model(ZERO)
        u0 = np.ones(GRID.n)
        # fixed eps, t -> infinity: the regularized steady state is regular
        sol = solve_regularized(model, u0, 1e-2, [1000.0], GRID)
        bm = decompose_measure(sol.trajectory.values[0], GRID, 1000.0)
        atoms_small = max(abs(bm.atom0), abs(bm.atom1)) <= GRID.h
        # fixed t = 50, eps -> 0: atoms carry the conserved mass (1/2, 1/2)
        ladder = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
        res = vanishing_limit(model, u0, ladder, [50.0], GRID)
        m = res.measures[0]
        atoms_half = abs(m.atom0 - 0.5) <= 0.01 and abs(m.atom1 - 0.5) <= 0.01
        ok = atoms_small and atoms_half
    _report(
        10,
        "interchange-of-limits guard",
        ok,
        f"fixed-eps atoms {max(abs(bm.atom0), abs(bm.atom1)):.1e} <= h; "
        f"ladder atoms ({m.atom0:.4f}, {m.atom1:.4f}) -> (0.5, 0.5)",
        t.elapsed,
        30.0,
    )
