import sys
import threading

import numpy as np
import pytest

from conspar import oracle

from conspar.degenerate import BoundaryMeasure
from conspar.errors import ArgumentError, EvaluationError, ParameterError
from conspar.fields import (
    constant_field,
    field_from_callable,
    field_from_expression,
    field_from_table,
)
from conspar.oracle import (
    EmpiricalMeasure,
    SdeSpec,
    compare_measures,
    kimura_sde,
    _sample_initial,
    simulate,
    sis_sde,
)
from conspar.sturm import Grid

GRID = Grid(0.0, 1.0, 401)


@pytest.fixture(scope="module")
def neutral_run():
    spec = kimura_sde(constant_field(0.0), 0.3, dt=1e-4, horizon=10.0, replicates=4000, seed=21)
    return spec, simulate(spec, [0.5, 2.0, 10.0])


class TestSpecValidation:
    def test_bad_parameters(self):
        drift = constant_field(0.0)
        vol2 = field_from_callable(lambda x: 2 * np.asarray(x) * (1 - np.asarray(x)), "v")
        with pytest.raises(ParameterError):
            SdeSpec(drift, vol2, "bouncing", 0.3, 1e-4, 1.0, 100, 0)
        with pytest.raises(ParameterError):
            SdeSpec(drift, vol2, "absorbing", 0.3, -1e-4, 1.0, 100, 0)
        with pytest.raises(ParameterError):
            SdeSpec(drift, vol2, "absorbing", 0.3, 1e-4, 1.0, 0, 0)
        with pytest.raises(ParameterError):
            SdeSpec(drift, vol2, "absorbing", 1.5, 1e-4, 1.0, 100, 0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameters_rejected(self, bad):
        drift = constant_field(0.0)
        vol2 = field_from_callable(lambda x: 2 * np.asarray(x) * (1 - np.asarray(x)), "v")
        with pytest.raises(ParameterError):
            SdeSpec(drift, vol2, "absorbing", 0.3, bad, 1.0, 100, 0)
        with pytest.raises(ParameterError):
            SdeSpec(drift, vol2, "absorbing", 0.3, 1e-4, bad, 100, 0)
        with pytest.raises(ParameterError):
            sis_sde(bad, 0.3)

    def test_negative_volatility_rejected(self):
        drift = constant_field(0.0)
        bad = constant_field(-1.0)
        with pytest.raises(ParameterError):
            SdeSpec(drift, bad, "absorbing", 0.3, 1e-4, 1.0, 100, 0)


class TestSimulate:
    def test_frozen_dynamics_stay_put(self):
        spec = SdeSpec(
            drift=constant_field(0.0),
            squared_volatility=constant_field(0.0),
            boundary_at_1="absorbing",
            x0=0.4,
            dt=1e-3,
            horizon=1.0,
            replicates=500,
            seed=3,
        )
        (m,) = simulate(spec, [1.0], bins=50)
        assert m.count_at_0 == 0 and m.count_at_1 == 0
        bin_of_04 = int(0.4 * 50)
        assert m.counts[bin_of_04] == 500

    def test_neutral_fixation_probability(self, neutral_run):
        _, measures = neutral_run
        final = measures[-1]
        se = max(final.standard_errors["mass_at_1"], 1e-6)
        assert abs(final.mass_at_1 - 0.3) <= 3 * se

    def test_counting_identity(self, neutral_run):
        _, measures = neutral_run
        assert all(m.counting_identity() for m in measures)

    def test_reproducibility_bit_identical(self, neutral_run):
        spec, measures = neutral_run
        again = simulate(spec, [0.5, 2.0, 10.0])
        for a, b in zip(measures, again):
            assert np.array_equal(a.counts, b.counts)
            assert a.count_at_0 == b.count_at_0
            assert a.count_at_1 == b.count_at_1

    def test_absorbed_mass_nondecreasing(self, neutral_run):
        _, measures = neutral_run
        for attr in ("count_at_0", "count_at_1"):
            vals = [getattr(m, attr) for m in measures]
            assert vals == sorted(vals)

    def test_dt_halving_weak_consistency(self):
        halves = []
        for dt in (2e-4, 1e-4):
            spec = kimura_sde(constant_field(0.0), 0.3, dt=dt, horizon=5.0, replicates=3000, seed=9)
            (m,) = simulate(spec, [5.0])
            halves.append(m)
        se = np.hypot(
            halves[0].standard_errors["mass_at_0"], halves[1].standard_errors["mass_at_0"]
        )
        assert abs(halves[0].mass_at_0 - halves[1].mass_at_0) <= 3 * se

    def test_sis_reflects_at_one(self):
        spec = sis_sde(2.0, 0.9, dt=1e-4, horizon=1.0, replicates=1000, seed=5)
        (m,) = simulate(spec, [1.0])
        assert m.count_at_1 == 0
        assert m.counting_identity()

    def test_initial_density_sampling(self):
        dens = np.zeros(401)
        dens[150:251] = 1.0  # uniform on [0.375, 0.625]
        spec = SdeSpec(
            drift=constant_field(0.0),
            squared_volatility=constant_field(0.0),
            boundary_at_1="absorbing",
            x0=dens,
            dt=1e-3,
            horizon=0.01,
            replicates=2000,
            seed=1,
        )
        (m,) = simulate(spec, [0.01], bins=8)
        # bins 3 and 4 cover [0.375, 0.625]; the linear-interpolated CDF
        # smears the density jump over one half-cell at each edge
        inside = m.counts[3] + m.counts[4]
        assert inside >= 1950
        assert m.count_at_0 == 0 and m.count_at_1 == 0
        assert m.counts[0] == 0 and m.counts[-1] == 0

    def test_dt_warning(self):
        spec = kimura_sde(constant_field(0.0), 0.3, dt=5e-2, horizon=0.5, replicates=50, seed=2)
        with pytest.warns(UserWarning, match="bin-resolution"):
            simulate(spec, [0.5])

    def test_unsorted_snapshots_rejected(self):
        spec = kimura_sde(constant_field(0.0), 0.3, replicates=10)
        with pytest.raises(ArgumentError):
            simulate(spec, [2.0, 1.0])

    @pytest.mark.parametrize("bins", [0, -3])
    def test_fewer_than_one_bin_rejected(self, bins):
        spec = kimura_sde(constant_field(0.0), 0.3, replicates=10)
        with pytest.raises(ArgumentError, match="bin"):
            simulate(spec, [1.0], bins=bins)


def _kimura_vol2():
    return field_from_callable(lambda x: 2 * np.asarray(x) * (1 - np.asarray(x)), "v")


def _identity_cases():
    """(spec, snapshot times, bins, block size) per edge case."""
    xs = np.linspace(0, 1, 21)
    hat = np.interp(np.linspace(0, 1, 101), [0, 0.2, 0.5, 0.8, 1], [0, 0, 1, 0, 0])
    table_drift = SdeSpec(
        drift=field_from_table([0, 0.25, 0.5, 0.75, 1], [0, 0.3, 0, -0.3, 0]),
        squared_volatility=_kimura_vol2(),
        boundary_at_1="absorbing",
        x0=0.3,
        dt=1e-3,
        horizon=0.5,
        replicates=500,
        seed=7,
    )
    return {
        # 256 + 256 + 188 paths, a t = 0 snapshot, 10 bins
        "t0_partial_block": (
            kimura_sde(field_from_expression("1-2*x"), 0.3, dt=1e-3, horizon=0.5,
                       replicates=700, seed=4),
            [0.0, 0.1, 0.5], 10, 256,
        ),
        "density_x0": (
            kimura_sde(constant_field(0.0), hat, dt=1e-3, horizon=0.3, replicates=600, seed=5),
            [0.0, 0.3], 20, 256,
        ),
        "all_absorbed": (
            kimura_sde(field_from_expression("20"), 0.5, dt=1e-3, horizon=10.0,
                       replicates=300, seed=6),
            [0.2, 10.0], 10, 128,
        ),
        "tabulated_drift": (table_drift, [0.25, 0.5], 10, 128),
        "tabulated_psi": (
            kimura_sde(field_from_table(xs, 1 - 2 * xs + 0.1 * np.sin(7 * xs)), 0.4,
                       dt=1e-3, horizon=0.5, replicates=500, seed=8),
            [0.5], 10, 128,
        ),
    }


# (counts, count_at_0, count_at_1) per snapshot, recorded with the
# block-by-block kernel that stepped one block at a time
RECORDED = {
    "t0_partial_block": [
        ([0, 0, 700, 0, 0, 0, 0, 0, 0, 0], 0, 0),
        ([92, 116, 151, 110, 96, 71, 32, 15, 5, 1], 11, 0),
        ([31, 54, 40, 23, 36, 32, 36, 31, 34, 25], 282, 76),
    ],
    "density_x0": [
        ([0, 0, 0, 0, 9, 25, 48, 70, 82, 80, 92, 64, 61, 43, 22, 4, 0, 0, 0, 0], 0, 0),
        ([15, 22, 25, 21, 29, 25, 22, 25, 24, 20, 22, 19, 22, 30, 22, 27, 18, 18, 23, 26],
         70, 75),
    ],
    "all_absorbed": [
        ([0, 0, 0, 0, 0, 0, 1, 9, 20, 83], 0, 187),
        ([0] * 10, 0, 300),
    ],
    "tabulated_drift": [
        ([44, 54, 64, 52, 38, 42, 32, 24, 12, 20], 110, 8),
        ([20, 30, 30, 24, 29, 33, 27, 21, 28, 8], 205, 45),
    ],
    "tabulated_psi": [
        ([19, 28, 24, 29, 31, 28, 39, 31, 26, 21], 154, 70),
    ],
}


def _reference_simulate(spec, times, bins, block_size):
    """One block at a time, one draw per step, through the field calls:
    the loop that ``simulate`` must reproduce count for count."""
    edges = np.linspace(0.0, 1.0, bins + 1)
    snaps = np.rint(np.asarray(times) / spec.dt).astype(np.int64)
    counts = np.zeros((len(times), bins), dtype=np.int64)
    at0 = [0] * len(times)
    at1 = [0] * len(times)
    for block in range(-(-spec.replicates // block_size)):
        m = min(block_size, spec.replicates - block * block_size)
        key = np.array([np.uint64(spec.seed), np.uint64(block)], dtype=np.uint64)
        rng = np.random.Generator(np.random.Philox(key=key))
        x = _sample_initial(spec.x0, m, rng)
        dead0 = dead1 = 0
        step = 0
        for si, target in enumerate(snaps):
            while step < target and x.size:
                s2 = np.clip(spec.squared_volatility(x), 0.0, None)
                x = x + spec.drift(x) * spec.dt + np.sqrt(s2 * spec.dt) * rng.standard_normal(x.size)
                hit1 = x >= 1.0
                if spec.boundary_at_1 == "reflecting":
                    x = np.where(hit1, 2.0 - x, x)
                    hit1 = np.zeros_like(hit1)
                hit0 = x <= 0.0
                dead0 += int(hit0.sum())
                dead1 += int(hit1.sum())
                x = x[~(hit0 | hit1)]
                step += 1
            at0[si] += dead0
            at1[si] += dead1
            counts[si] += np.histogram(x, bins=edges)[0]
    return [(c.tolist(), a, b) for c, a, b in zip(counts, at0, at1)]


def _assert_matches_reference(block_size):
    psi = field_from_expression("1-2*x")
    for spec in (
        kimura_sde(psi, 0.3, dt=1e-3, horizon=0.2, replicates=61, seed=4),
        # started near x = 0: most paths are absorbed, so small blocks empty
        kimura_sde(psi, 0.05, dt=1e-3, horizon=0.2, replicates=61, seed=5),
        sis_sde(2.0, 0.99, dt=1e-3, horizon=0.2, replicates=61, seed=3),
    ):
        times = [0.0, 0.05, 0.2]
        got = simulate(spec, times, bins=10, block_size=block_size)
        want = _reference_simulate(spec, times, 10, block_size)
        assert [(m.counts.tolist(), m.count_at_0, m.count_at_1) for m in got] == want


class TestKernelIdentity:
    @pytest.mark.parametrize("name", sorted(RECORDED))
    def test_recorded_counts(self, name):
        spec, times, bins, block_size = _identity_cases()[name]
        measures = simulate(spec, times, bins=bins, block_size=block_size)
        got = [(m.counts.tolist(), m.count_at_0, m.count_at_1) for m in measures]
        assert got == RECORDED[name]

    @pytest.mark.parametrize("block_size", [3, 7, 4096])
    def test_matches_block_by_block_reference(self, block_size):
        _assert_matches_reference(block_size)

    @pytest.mark.parametrize("chunk, budget", [(8, 16), (64, 1024)])
    @pytest.mark.parametrize("block_size", [3, 7, 61])
    def test_small_chunks_match_reference(self, monkeypatch, block_size, chunk, budget):
        # (8, 16): one step needs more normals than a chunk holds, so the
        # drawn-ahead chunk is extended; (64, 1024): chunks span steps
        monkeypatch.setattr(oracle, "_NORMAL_CHUNK", chunk)
        monkeypatch.setattr(oracle, "_NORMAL_BUDGET", budget)
        _assert_matches_reference(block_size)

    def test_frequent_thread_switches_keep_the_streams(self, monkeypatch):
        # the helper and this thread interleave as often as the interpreter
        # allows; each block's draws must still come in stream order
        monkeypatch.setattr(oracle, "_NORMAL_CHUNK", 8)
        monkeypatch.setattr(oracle, "_NORMAL_BUDGET", 64)
        spec = kimura_sde(field_from_expression("1-2*x"), 0.3, dt=1e-3, horizon=0.2,
                          replicates=61, seed=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = simulate(spec, [0.05, 0.2], bins=10, block_size=5)
        finally:
            sys.setswitchinterval(interval)
        want = _reference_simulate(spec, [0.05, 0.2], 10, 5)
        assert [(m.counts.tolist(), m.count_at_0, m.count_at_1) for m in got] == want

    def test_non_finite_psi_on_a_live_path_raises(self):
        # finite on every sample of the field, NaN on (0.3002, 0.3022),
        # which paths started at 0.3 step into
        psi = field_from_expression("sqrt(abs(x-0.3012)-0.001)")
        spec = kimura_sde(psi, 0.3, dt=1e-3, horizon=0.5, replicates=200, seed=9)
        threads = threading.active_count()
        with pytest.raises(EvaluationError, match="non-finite") as info:
            simulate(spec, [0.5], bins=10, block_size=64)
        assert 0.3002 < info.value.x < 0.3022
        assert threading.active_count() == threads  # the helper thread is gone

    def test_steps_taken(self):
        # every path is absorbed long before t = 10
        spec, times, bins, block_size = _identity_cases()["all_absorbed"]
        first, last = simulate(spec, times, bins=bins, block_size=block_size)
        assert first.steps == 200
        assert 200 < last.steps < 10_000


class TestCompare:
    def _measure_from_counts(self, counts, c0, c1, t=1.0):
        counts = np.asarray(counts, dtype=np.int64)
        return EmpiricalMeasure(
            time=t,
            bin_edges=np.linspace(0, 1, counts.size + 1),
            counts=counts,
            count_at_0=c0,
            count_at_1=c1,
            n_paths=int(counts.sum()) + c0 + c1,
        )

    def _uniform_bm(self, atom0, atom1, t=1.0):
        dens = np.full(GRID.n, 1.0 - atom0 - atom1)
        return BoundaryMeasure(atom0=atom0, density=dens, atom1=atom1, time=t, grid=GRID)

    def test_matching_measures_pass(self):
        emp = self._measure_from_counts(np.full(50, 10), 250, 250)
        bm = self._uniform_bm(0.25, 0.25)
        rep = compare_measures(emp, bm)
        assert rep.z_atom0 <= 0.01 and rep.z_atom1 <= 0.01
        assert rep.cdf_sup_distance <= 1e-3
        assert rep.passed

    def test_perturbed_atom_flagged(self):
        emp = self._measure_from_counts(np.full(50, 10), 250, 250)
        bm = self._uniform_bm(0.35, 0.25)  # +0.1 deliberate shift
        rep = compare_measures(emp, bm)
        assert rep.z_atom0 > 3.0
        assert not rep.passed

    def test_time_mismatch_rejected(self):
        emp = self._measure_from_counts(np.full(10, 10), 0, 0, t=1.0)
        bm = self._uniform_bm(0.0, 0.0, t=2.0)
        with pytest.raises(ArgumentError):
            compare_measures(emp, bm)

    def test_support_mismatch_rejected(self):
        emp = self._measure_from_counts(np.full(10, 10), 0, 0)
        dens = np.full(201, 0.5)
        bm = BoundaryMeasure(
            atom0=0.0, density=dens, atom1=0.0, time=1.0, grid=Grid(0.0, 2.0, 201)
        )
        with pytest.raises(ArgumentError):
            compare_measures(emp, bm)

    def test_joint_neutral_run(self, neutral_run):
        from conspar.degenerate import kimura_model, masses_from_conservation, solve_interior
        from conspar.fields import fixation_probability

        _, measures = neutral_run
        model = kimura_model(constant_field(0.0))
        r0 = np.zeros(GRID.n)
        r0[int(round(0.3 / GRID.h))] = 1.0 / GRID.h
        sol = solve_interior(model, r0, 10.0, [0.5, 2.0, 10.0], GRID)
        phi = fixation_probability(model.psi)
        a, b = masses_from_conservation(sol.trajectory, r0, 0.0, 0.0, phi)
        for i, emp in enumerate(measures):
            bm = BoundaryMeasure(
                atom0=a[i],
                density=np.clip(sol.trajectory.values[i], 0.0, None),
                atom1=b[i],
                time=emp.time,
                grid=GRID,
            )
            rep = compare_measures(emp, bm)
            assert rep.passed, rep
