import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import conspar
from conspar.cli import (
    RunManifest,
    _csv,
    build_config,
    main,
    parse_config_file,
    write_outputs,
)
from conspar.errors import ConfigError


def _read(path):
    return path.read_text(encoding="utf-8")


def _manifest_lines(outdir):
    return _read(outdir / "manifest.txt").splitlines()


SRC = str(Path(conspar.__file__).resolve().parents[1])


def _fresh(code, *args):
    """Standard output of ``code`` run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True,
                          env=env, check=True)
    return done.stdout


# prints the scipy modules loaded so far on one line
SCIPY_LOADED = "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"


def test_import_leaves_slow_scipy_modules_unloaded():
    assert _fresh("import sys, conspar; " + SCIPY_LOADED).strip() == ""
    assert _fresh("import sys, conspar.cli; " + SCIPY_LOADED).strip() == ""


# each command at its smallest config, in run order (validate reads two)
SMALLEST = {
    "kimura": ["kimura", "--n", "5", "--T", "0.001", "--times", "0,0.001"],
    "sis": ["sis", "--n", "5", "--T", "5", "--times", "5"],
    "spectrum": ["spectrum", "--n", "5", "--k", "1"],
    "moments": ["moments", "--n", "5", "--T", "0.001", "--times", "0,0.001"],
    "oracle": ["oracle", "--replicates", "1", "--T", "0.001", "--times", "0"],
    "validate": ["validate", "--pde", "{dir}/kimura", "--oracle", "{dir}/oracle"],
}
# modules a command may not load, with their submodules
UNLOADED = {
    "kimura": ("scipy.interpolate", "scipy.integrate", "scipy.sparse"),
    "sis": ("scipy.interpolate", "scipy.integrate", "scipy.sparse"),
    "spectrum": ("scipy.interpolate", "scipy.integrate", "scipy.sparse"),
    "moments": ("scipy.interpolate", "scipy.integrate", "scipy.sparse"),
    "oracle": ("scipy",),
    "validate": ("scipy",),
}


def test_each_command_loads_only_what_it_runs(tmp_path):
    code = "import sys; from conspar.cli import main; print(main(sys.argv[1:])); " + SCIPY_LOADED
    for command, argv in SMALLEST.items():
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        lines = _fresh(code, *argv, "--out", str(tmp_path / command)).splitlines()
        assert lines[-2] == "0", command
        barred = [m for m in lines[-1].split()
                  if any(m == p or m.startswith(p + ".") for p in UNLOADED[command])]
        assert barred == [], command


# what ``from conspar import *`` bound when the package imported eagerly
STAR_NAMES = """
BoundaryCoupling BoundaryMeasure BoundaryTraces CoefficientField ConfigError
ConservativeProblem ConsparError CouplingError DEFAULT_GRID DegeneracyError
DegenerateModel DomainBoundsError EigenSystem EmpiricalMeasure EvaluationError
Expression ExpressionError Grid InputError InteriorSolution MomentPrescription
NumericalError ParameterError RegularityTierError RegularizationLadder SLProblem
SdeSpec SisCoefficients Trajectory TransformError ValidationFailure assemble
build_partially_conservative build_totally_conservative canonical_test_directions
certify_intrinsic_positivity compare_measures conservation_residual conservative
constant_field coupling_from_kernel cumulative_integral decompose_measure
degenerate duhamel_evolve eigensolve errors evolve exponential_weight expressions
field_from_callable field_from_expression field_from_table fields
fixation_probability from_selfadjoint integrating_factor kimura_model kimura_sde
make_coupling masses_from_boundary_flux masses_from_conservation neumann_coupling
oracle parse_expression positivity_check prescribe_moments
prescribed_moments_evolve prescribed_moments_reduce selfadjoint_reduction
separable_test_function simulate sis_atom_mass sis_coefficients sis_model sis_sde
solve_interior solve_regularized steady_state sturm time_function to_selfadjoint
vanishing_limit weak_form_residual weighted_inner
""".split()


def test_star_import_binds_the_same_names():
    code = "from conspar import *\nprint(' '.join(n for n in dir() if not n.startswith('_')))"
    assert sorted(_fresh(code).split()) == sorted(STAR_NAMES)
    assert set(STAR_NAMES) <= set(dir(conspar))


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("T = 7\ntimes = 0,1,7\n# comment\n", encoding="utf-8")
        values = parse_config_file(cfgfile)
        cfg = build_config("kimura", values, {"out": str(tmp_path / "o"), "T": "3", "times": "0,3"})
        assert cfg["T"] == 3.0  # CLI wins over file
        assert cfg["times"] == [0.0, 3.0]
        assert cfg["n"] == 401  # default

    def test_all_problems_enumerated(self, tmp_path):
        with pytest.raises(ConfigError) as exc:
            build_config(
                "kimura",
                {},
                {"out": str(tmp_path), "T": "-1", "times": "5,2", "mode": "x", "bogus": "1"},
            )
        text = "; ".join(exc.value.problems)
        for frag in ("bogus", "T", "times", "mode"):
            assert frag in text
        assert len(exc.value.problems) >= 4

    @pytest.mark.parametrize("bins", ["0", "-3"])
    def test_oracle_bins_at_least_one(self, bins, tmp_path, capsys):
        rc = main(["oracle", "--bins", bins, "--x0", "2", "--out", str(tmp_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bins: must be at least 1" in err and "x0:" in err

    def test_missing_out_required(self):
        with pytest.raises(ConfigError, match="out"):
            build_config("kimura", {}, {})


class TestWriters:
    def test_empty_rows_headers_only(self, tmp_path):
        manifest = RunManifest(command="kimura", config={})
        write_outputs(tmp_path, {"masses.csv": _csv([], ("t", "a", "b"))}, manifest)
        assert _read(tmp_path / "masses.csv") == "t,a,b\n"

    def test_digest_recorded_for_every_file(self, tmp_path):
        manifest = RunManifest(command="kimura", config={})
        files = {"a.csv": _csv([(1, 2.5)], ("x", "y")), "b.csv": _csv([], ("z",))}
        write_outputs(tmp_path, files, manifest)
        lines = _manifest_lines(tmp_path)
        assert sum(1 for ln in lines if ln.startswith("file: a.csv sha256=")) == 1
        assert sum(1 for ln in lines if ln.startswith("file: b.csv sha256=")) == 1

    def test_shortest_roundtrip_floats(self):
        body = _csv([(0.1, 1.0 / 3.0)], ("a", "b"))
        assert body.splitlines()[1] == "0.1,0.3333333333333333"


class TestKimuraCommand:
    def test_neutral_run_and_schema(self, tmp_path, capsys):
        out = tmp_path / "run"
        rc = main(["kimura", "--out", str(out), "--T", "50", "--times", "0,1,50"])
        assert rc == 0
        header, *rows = _read(out / "masses.csv").splitlines()
        assert header == "t,atom0,atom1,interior_mass,total_mass,phi_moment"
        assert all(len(r.split(",")) == 6 for r in rows)
        final = rows[-1].split(",")
        assert abs(float(final[1]) - 0.5) <= 1e-3
        assert abs(float(final[2]) - 0.5) <= 1e-3
        assert (out / "density_t50.0.csv").exists()
        assert _read(out / "density_t0.0.csv").splitlines()[0] == "x,r"

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        args = ["--T", "2", "--times", "0,1,2"]
        assert main(["kimura", "--out", str(out1), *args]) == 0
        assert main(["kimura", "--out", str(out2), *args]) == 0
        for name in ("masses.csv", "density_t1.0.csv"):
            assert _read(out1 / name) == _read(out2 / name)
        # manifests agree apart from timing and path lines
        skip = ("wallclock_s", "config.out")
        m1 = [l for l in _manifest_lines(out1) if not l.startswith(skip)]
        m2 = [l for l in _manifest_lines(out2) if not l.startswith(skip)]
        assert m1 == m2

    def test_ladder_mode_emits_assumption(self, tmp_path):
        out = tmp_path / "ladder"
        rc = main(
            [
                "kimura",
                "--out",
                str(out),
                "--mode",
                "ladder",
                "--T",
                "1",
                "--times",
                "1",
            ]
        )
        assert rc == 0
        lines = _manifest_lines(out)
        assert any(ln == "assumption: richardson_order1" for ln in lines)

    def test_plot_data_flag(self, tmp_path):
        out = tmp_path / "plots"
        rc = main(
            ["kimura", "--out", str(out), "--T", "1", "--times", "0,1", "--emit_plot_data"]
        )
        assert rc == 0
        assert _read(out / "plotdata_density.csv").splitlines()[0] == "t,x,r"
        assert _read(out / "plotdata_masses.csv").splitlines()[0] == "t,series,value"

    def test_config_error_exit_code(self, tmp_path, capsys):
        rc = main(["kimura", "--out", str(tmp_path / "x"), "--T", "-2"])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_overflowing_fixation_integral_exit_code(self, tmp_path, capsys):
        # int_0^1 exp(800 y) dy overflows in the fixation probability
        argv = ["kimura", "--psi", "-800", "--n", "51", "--T", "0.01", "--times", "0,0.01"]
        assert main(argv + ["--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "numerical error" in err and "psi = -800" in err

    def test_interior_diagnostics(self, tmp_path):
        # psi = 50 on 401 nodes: the symmetrizing scale spans exp(25.5)
        for psi, method in (("0", "modal"), ("50", "stepper")):
            out = tmp_path / f"psi{psi}"
            main(["kimura", "--out", str(out), "--psi", psi, "--T", "0.5", "--times", "0.5"])
            lines = _manifest_lines(out)
            assert f"diag.interior_method = {method}" in lines
            assert "diag.interior_dt = 0.00025" in lines
            assert "diag.interior_steps = 2000" in lines
            assert any(ln.startswith("diag.interior_log_scale_spread = ") for ln in lines)

    def test_cell_peclet_warning(self, tmp_path, capsys):
        # psi = 400 on n = 101 nodes: max |psi| h / 2 = 2
        steep = tmp_path / "steep"
        main(["kimura", "--out", str(steep), "--psi", "400", "--n", "101",
              "--T", "1", "--times", "0,1"])
        assert "Peclet" in capsys.readouterr().err
        assert any(
            ln.startswith("warning: cell Peclet number") for ln in _manifest_lines(steep)
        )
        # the upper diagonal changes sign, so the generator is not symmetrizable
        assert "diag.interior_method = stepper" in _manifest_lines(steep)
        assert "diag.interior_log_scale_spread = nan" in _manifest_lines(steep)
        # psi = 100: max |psi| h / 2 = 0.5, no warning
        mild = tmp_path / "mild"
        main(["kimura", "--out", str(mild), "--psi", "100", "--n", "101",
              "--T", "1", "--times", "0,1"])
        assert not any("Peclet" in ln for ln in _manifest_lines(mild))


class TestSisCommand:
    def test_run_checks(self, tmp_path):
        out = tmp_path / "sis"
        rc = main(["sis", "--out", str(out), "--T", "5", "--times", "0,1,5"])
        assert rc == 0
        assert "diag.interior_method = modal" in _manifest_lines(out)
        rows = _read(out / "masses.csv").splitlines()[1:]
        atom1 = [float(r.split(",")[2]) for r in rows]
        assert all(v == 0.0 for v in atom1)
        total = [float(r.split(",")[4]) for r in rows]
        assert all(abs(v - 1.0) <= 1e-4 for v in total)


class TestSpectrumCommand:
    def test_heat_laws(self, tmp_path):
        out = tmp_path / "spec"
        rc = main(["spectrum", "--out", str(out), "--k", "6"])
        assert rc == 0
        rows = _read(out / "eigenvalues.csv").splitlines()
        assert rows[0] == "k,lambda,bc_residual"
        lams = [float(r.split(",")[1]) for r in rows[1:]]
        assert abs(lams[0]) < 1e-8 * lams[2]
        assert abs(lams[1]) < 1e-8 * lams[2]


    def test_variable_coefficient_laws(self, tmp_path):
        # log(1 + x) has no exact derivative: its endpoint slopes enter the
        # coupling rows, which must pass the 1e-8 self-adjointness test
        out = tmp_path / "var"
        rc = main(["spectrum", "--out", str(out), "--p", "1+x", "--law2", "log(1+x)"])
        assert rc == 0
        checks = [ln for ln in _manifest_lines(out) if ln.startswith("check: ")]
        assert len(checks) == 2
        assert all(ln.endswith("[pass]") for ln in checks)

    @pytest.mark.parametrize("k, method", [("6", "shift_invert"), ("401", "dense")])
    def test_eigensolve_diagnostics(self, tmp_path, k, method):
        out = tmp_path / "spec"
        assert main(["spectrum", "--out", str(out), "--k", k]) == 0
        lines = _manifest_lines(out)
        assert f"diag.eigensolve_method = {method}" in lines
        assert f"diag.eigensolve_modes = {k}" in lines

    def test_few_modes_at_the_largest_n(self, tmp_path):
        # no dense matrix is formed; exit 4 is the documented double-zero
        # limit at this n (conditioning, not the solver)
        out = tmp_path / "big"
        rc = main(["spectrum", "--out", str(out), "--n", "100001", "--k", "6"])
        assert rc in (0, 4)
        assert "diag.eigensolve_method = shift_invert" in _manifest_lines(out)


class TestMomentsCommand:
    def test_dense_refused_at_large_n(self, tmp_path, capsys):
        started = time.perf_counter()
        rc = main(["moments", "--out", str(tmp_path / "big"), "--n", "100001"])
        assert rc == 2
        assert time.perf_counter() - started < 10.0
        assert "dense" in capsys.readouterr().err

    def test_duhamel_diagnostics(self, tmp_path):
        out = tmp_path / "mom"
        assert main(["moments", "--out", str(out), "--F1", "1+sin(t)"]) == 0
        diag = dict(
            ln[len("diag."):].split(" = ") for ln in _manifest_lines(out)
            if ln.startswith("diag.")
        )
        assert diag["eigensolve_method"] == "dense"
        assert diag["eigensolve_modes"] == "401"
        assert float(diag["duhamel_kernel_leakage"]) <= 1e-10
        assert int(diag["duhamel_levels"]) >= 1

    def test_sinusoidal_target(self, tmp_path):
        out = tmp_path / "mom"
        rc = main(["moments", "--out", str(out), "--F1", "1+sin(t)", "--T", "5"])
        assert rc == 0
        rows = _read(out / "moments.csv").splitlines()[1:]
        worst = max(
            abs(float(r.split(",")[1]) - float(r.split(",")[2])) for r in rows
        )
        assert worst <= 1e-4


class TestOracleAndValidate:
    def test_joint_pipeline(self, tmp_path):
        pde = tmp_path / "pde"
        mc = tmp_path / "mc"
        rep = tmp_path / "rep"
        assert (
            main(
                [
                    "kimura",
                    "--out",
                    str(pde),
                    "--u0",
                    "delta:0.3",
                    "--T",
                    "20",
                    "--times",
                    "1,5,20",
                ]
            )
            == 0
        )
        assert (
            main(
                [
                    "oracle",
                    "--out",
                    str(mc),
                    "--x0",
                    "0.3",
                    "--T",
                    "20",
                    "--times",
                    "1,5,20",
                    "--replicates",
                    "3000",
                    "--seed",
                    "13",
                ]
            )
            == 0
        )
        lines = _manifest_lines(mc)
        assert any(ln == "assumption: sde_matching" for ln in lines)
        assert (
            main(["validate", "--out", str(rep), "--pde", str(pde), "--oracle", str(mc)])
            == 0
        )
        rows = _read(rep / "report.csv").splitlines()
        assert rows[0].startswith("t,atom0_pde,mass0_mc")
        assert all(r.split(",")[-1] == "1" for r in rows[1:])

    def test_oracle_diagnostics(self, tmp_path):
        # every path is absorbed before t = 10, so the run stops early
        args = ["oracle", "--psi", "20", "--x0", "0.5", "--dt", "1e-3", "--T", "10",
                "--times", "0.2,10", "--replicates", "300", "--seed", "6", "--bins", "10"]
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        lines = _manifest_lines(out1)
        assert "diag.oracle_steps = 457" in lines
        assert "diag.oracle_live_paths = 99,0" in lines
        skip = ("wallclock_s", "config.out")
        assert [ln for ln in lines if not ln.startswith(skip)] == [
            ln for ln in _manifest_lines(out2) if not ln.startswith(skip)
        ]

    def test_validation_failure_exit_code(self, tmp_path, capsys):
        pde = tmp_path / "pde"
        mc = tmp_path / "mc"
        rep = tmp_path / "rep"
        main(["kimura", "--out", str(pde), "--u0", "delta:0.7", "--T", "20", "--times", "20"])
        main(
            [
                "oracle",
                "--out",
                str(mc),
                "--x0",
                "0.3",
                "--T",
                "20",
                "--times",
                "20",
                "--replicates",
                "3000",
            ]
        )
        rc = main(["validate", "--out", str(rep), "--pde", str(pde), "--oracle", str(mc)])
        assert rc == 4
        assert "validation failure" in capsys.readouterr().err
        # outputs still written for inspection
        assert (rep / "report.csv").exists()

    def test_warning_reaches_stderr_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "warn"
        rc = main(
            [
                "oracle",
                "--out",
                str(out),
                "--dt",
                "0.05",
                "--T",
                "0.5",
                "--times",
                "0.5",
                "--replicates",
                "50",
            ]
        )
        assert rc == 0
        err = capsys.readouterr().err
        assert "warning:" in err and "bin-resolution" in err
        assert any("bin-resolution" in ln for ln in _manifest_lines(out))
