import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conspar
from conspar import cli
from conspar.cli import (
    _SCHEMAS,
    RunConfig,
    RunManifest,
    _csv,
    _fmt,
    build_config,
    main,
    parse_config_file,
    write_outputs,
)
from conspar.errors import ConfigError, InputError


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


# run after a command's smallest config, in the same interpreter: the
# defaults (n = 401) keep 5 and 3 modes by subset MRRR, not ARPACK
DEFAULT_AFTER = {"kimura": ["kimura"], "sis": ["sis"]}


def test_each_command_loads_only_what_it_runs(tmp_path):
    for command, argv in SMALLEST.items():
        runs = [[a.replace("{dir}", str(tmp_path)) for a in argv] + ["--out", str(tmp_path / command)]]
        if command in DEFAULT_AFTER:
            runs.append(DEFAULT_AFTER[command] + ["--out", str(tmp_path / f"{command}-default")])
        code = f"import sys; from conspar.cli import main; print(*[main(a) for a in {runs!r}]); "
        lines = _fresh(code + SCIPY_LOADED).splitlines()
        assert lines[-2] == " ".join(["0"] * len(runs)), command
        barred = [m for m in lines[-1].split()
                  if any(m == p or m.startswith(p + ".") for p in UNLOADED[command])]
        assert barred == [], command


# the stages each command's manifest times, as wallclock_s.<stage> lines
STAGES = {
    "kimura": ["fields", "step", "atoms", "write"],
    "sis": ["fields", "step", "atoms", "write"],
    "spectrum": ["fields", "assemble", "eigensolve", "write"],
    "moments": ["fields", "assemble", "eigensolve", "evolve", "write"],
    "oracle": ["fields", "simulate", "oracle_normal_wait", "write"],
    "validate": ["write"],
}


def test_manifests_time_their_stages(tmp_path):
    for command, argv in SMALLEST.items():
        argv = [a.replace("{dir}", str(tmp_path)) for a in argv]
        assert main(argv + ["--out", str(tmp_path / command)]) == 0, command
        lines = _manifest_lines(tmp_path / command)
        timed = dict(ln.split(" = ") for ln in lines if ln.startswith("wallclock_s"))
        assert list(timed) == ["wallclock_s"] + [f"wallclock_s.{s}" for s in STAGES[command]]
        total = float(timed.pop("wallclock_s"))
        seconds = [float(v) for v in timed.values()]
        assert all(v >= 0 for v in seconds), command
        if command != "oracle":  # the oracle's wait lies inside its simulate stage
            assert sum(seconds) <= total, command


# what ``from conspar import *`` binds
STAR_NAMES = """
BoundaryCoupling BoundaryMeasure BoundaryTraces CoefficientField ConfigError
ConservativeProblem ConsparError CouplingError DEFAULT_GRID DegenerateModel
DomainBoundsError EigenSystem EmpiricalMeasure EvaluationError Expression
ExpressionError Grid InputError InteriorSolution MomentPrescription
NumericalError ParameterError RegularityTierError SdeSpec Trajectory
TransformError ValidationFailure assemble build_totally_conservative
certify_intrinsic_positivity compare_measures conservation_residual
conservative constant_field coupling_from_kernel decompose_measure degenerate
duhamel_evolve eigensolve errors evolve exponential_weight expressions
field_from_callable field_from_expression field_from_table fields
fixation_probability kimura_model kimura_sde masses_from_boundary_flux
masses_from_conservation oracle parse_expression positivity_check
prescribe_moments prescribed_moments_evolve prescribed_moments_reduce simulate
sis_model sis_sde solve_interior solve_regularized sturm time_function
to_selfadjoint vanishing_limit weighted_inner
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

    def test_oracle_bins_at_most_the_cap(self, tmp_path, capsys):
        # refused before the bin edges are built; one bin more than the cap
        # would run in a moment here if it were not
        argv = ["oracle", "--replicates", "1", "--T", "0.001", "--times", "0.001"]
        assert main(argv + ["--bins", "100002", "--out", str(tmp_path / "over")]) == 2
        assert "bins: must be at most 100001" in capsys.readouterr().err
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the bin-resolution warning
            assert main(argv + ["--bins", "100001", "--out", str(tmp_path / "cap")]) == 0

    @pytest.mark.parametrize("command", ["kimura", "sis", "moments", "oracle"])
    @pytest.mark.parametrize("times", ["-1,1", "-1e-300,1"])
    def test_negative_snapshot_time_refused(self, command, times, tmp_path, capsys):
        # oracle wrote a t = -1 row of the data, and moments overflowed at
        # -1 and exited 0 at -1e-300; every command now refuses both
        argv = [command, "--T", "1", "--times", times, "--out", str(tmp_path / "x")]
        argv += ["--n", "5"] if command != "oracle" else ["--replicates", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "config error: times: must be nonnegative\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["kimura", "--n", "21", "--T", "nan", "--times", "0"], "T"),
            (["kimura", "--n", "21", "--T", "inf", "--times", "0"], "T"),
            (["kimura", "--n", "21", "--mode", "regularized", "--eps", "nan"], "eps"),
            (["oracle", "--dt", "nan"], "dt"),
            (["oracle", "--T", "nan", "--times", "0"], "T"),
            (["oracle", "--times", "nan"], "times"),
            (["oracle", "--model", "sis", "--R0", "nan"], "R0"),
        ],
    )
    def test_non_finite_number_refused(self, argv, key, tmp_path, capsys):
        # listed with the other problems: bins is out of range as well
        argv = argv + ["--bins", "0"] if argv[0] == "oracle" else argv
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {key}: must be finite" in err
        assert ("bins: must be at least 1" in err) == (argv[0] == "oracle")

    @pytest.mark.parametrize(
        "argv",
        [
            ["sis", "--p0", "delta:0.001"],
            ["sis", "--p0", "delta:0.999"],
            ["kimura", "--u0", "delta:0.001"],
            ["kimura", "--u0", "delta:0.0012", "--mode", "regularized"],
        ],
    )
    def test_delta_on_an_end_node_refused(self, argv, tmp_path, capsys):
        # at n = 401 these deltas round onto node 0 or n - 1, whose mass the
        # run would lose; h/2 < x0 < 1 - h/2 is the usable range
        assert main(argv + ["--out", str(tmp_path / "x")]) == 2
        assert "use 0.00125 < x0 < 0.99875" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "table, message",
        [
            ("y,value\n0,1\n1,2\n", "{path} has no 'x' column"),
            ("x,psi\n0,1\n1,2\n", "{path} has no 'value' column"),
            ("x,value\n0,1\n0.5,1,3\n1,2\n", "{path} is not a CSV table with a header row"),
            ("x,value\n0,1\n0.5,abc\n1,2\n", "{path} has a non-finite 'value' entry"),
            ("x,value\n0,1\n0.5,nan\n1,2\n", "{path} has a non-finite 'value' entry"),
        ],
        ids=["no x column", "no value column", "ragged row", "non-numeric value", "nan value"],
    )
    def test_malformed_psi_table_refused(self, table, message, tmp_path, capsys):
        path = tmp_path / "psi.csv"
        path.write_text(table, encoding="utf-8")
        argv = ["kimura", "--n", "21", "--psi_table", str(path), "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message.format(path=repr(str(path))))

    @pytest.mark.parametrize(
        "table, message",
        [("", "is empty: it has no header row"), ("\n\n", "is empty: it has no header row"),
         ("x,value\n", "has a header row but no data rows")],
        ids=["no bytes", "blank lines", "header only"],
    )
    def test_empty_psi_table_refused(self, table, message, tmp_path, capsys):
        path = tmp_path / "psi.csv"
        path.write_text(table, encoding="utf-8")
        argv = ["kimura", "--n", "21", "--psi_table", str(path), "--out", str(tmp_path / "x")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {str(path)!r} {message}\n"
        with warnings.catch_warnings():  # numpy's "Empty input file" is not passed on
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=message):
                cli._read_csv(path, ("x", "value"))

    @pytest.mark.parametrize(
        "command, key, raw",
        [
            ("kimura", "times", "0,,1"),
            ("kimura", "times", "0,1,"),
            ("kimura", "times", ""),
            ("kimura", "ladder", "0.1, ,0.01"),
            ("oracle", "times", ",1"),
        ],
    )
    def test_empty_list_entry_refused(self, command, key, raw, tmp_path, capsys):
        assert main([command, f"--{key}", raw, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"config error: {key}: empty entry in {raw!r}\n"

    @pytest.mark.parametrize("command, key", [("kimura", "--u0"), ("sis", "--p0")])
    @pytest.mark.parametrize("spec", ["delta:abc", "delta:"])
    def test_malformed_delta_refused(self, command, key, spec, tmp_path, capsys):
        assert main([command, "--n", "21", key, spec, "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err == f"config error: {spec!r}: the delta position must be a number\n"

    @pytest.mark.parametrize("name", ["missing.cfg", "."], ids=["missing", "a directory"])
    def test_unreadable_config_file_refused(self, name, tmp_path, capsys):
        path = tmp_path / name
        assert main(["kimura", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {str(path)!r}")

    def test_missing_out_required(self):
        with pytest.raises(ConfigError, match="out"):
            build_config("kimura", {}, {})

    def test_unread_key_refused(self, tmp_path, capsys):
        assert main(["kimura", "--seed", "3", "--out", str(tmp_path / "x")]) == 2
        assert "unknown key 'seed'" in capsys.readouterr().err

    def test_every_schema_key_is_read(self, tmp_path, monkeypatch):
        """Each command's runner reads every key of its schema, over every
        mode and oracle model."""
        read = {}

        def record(config, key):
            read.setdefault(config.command, set()).add(key)
            return config.options[key]

        monkeypatch.setattr(RunConfig, "__getitem__", record)
        small = ["--n", "21", "--T", "0.01", "--times", "0,0.01"]
        runs = [
            ["kimura", *small],
            ["kimura", *small, "--mode", "regularized"],
            ["kimura", *small, "--mode", "ladder"],
            ["sis", *small],
            ["sis", *small, "--mode", "regularized"],
            ["spectrum", "--n", "5", "--k", "1"],
            ["moments", "--n", "5", "--T", "0.001", "--times", "0,0.001"],
            ["moments", "--n", "5", "--T", "0.001"],  # times from T
            ["oracle", "--replicates", "1", "--T", "0.001", "--times", "0"],
            ["oracle", "--model", "sis", "--replicates", "1", "--T", "0.001", "--times", "0"],
            ["validate", "--pde", str(tmp_path / "0"), "--oracle", str(tmp_path / "8")],
        ]
        for i, argv in enumerate(runs):
            assert main(argv + ["--out", str(tmp_path / str(i))]) in (0, 4), argv
        for command, schema in _SCHEMAS.items():
            assert read[command] == set(schema), command


# values whose shortest round-trip decimals take every branch of repr
AWKWARD_FLOATS = [0.1, 1.0 / 3.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16, 1e-5,
                  123456789.0]


def _csv_by_rows(columns, header):
    """The table ``_csv`` writes, built row by row with ``_fmt``."""
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


class TestWriters:
    def test_empty_rows_headers_only(self, tmp_path):
        manifest = RunManifest(command="kimura", config={})
        write_outputs(tmp_path, {"masses.csv": _csv([[], [], []], ("t", "a", "b"))}, manifest)
        assert _read(tmp_path / "masses.csv") == "t,a,b\n"

    def test_digest_recorded_for_every_file(self, tmp_path):
        manifest = RunManifest(command="kimura", config={})
        files = {"a.csv": _csv([[1], [2.5]], ("x", "y")), "b.csv": _csv([[]], ("z",))}
        write_outputs(tmp_path, files, manifest)
        lines = _manifest_lines(tmp_path)
        assert sum(1 for ln in lines if ln.startswith("file: a.csv sha256=")) == 1
        assert sum(1 for ln in lines if ln.startswith("file: b.csv sha256=")) == 1

    def test_shortest_roundtrip_floats(self):
        body = _csv([[0.1], [1.0 / 3.0]], ("a", "b"))
        assert body.splitlines()[1] == "0.1,0.3333333333333333"

    @pytest.mark.parametrize(
        "columns",
        [
            [np.array(AWKWARD_FLOATS), np.array(AWKWARD_FLOATS[::-1])],
            [np.array(AWKWARD_FLOATS, dtype=np.float32), AWKWARD_FLOATS],
            [np.arange(10), np.array(AWKWARD_FLOATS)],
            [[f"s{i}" for i in range(10)], list(range(10))],
            [[np.float64(v) for v in AWKWARD_FLOATS], [np.int32(i) for i in range(10)]],
            [np.array([True, False] * 5), (1, 2.5, "a", None, -0.0, 7, 8, 9, 10, 11)],
            [np.empty(0), [], ()],
        ],
        ids=["float64", "float32 and floats", "int", "str and int", "numpy scalars",
             "bool and mixed", "zero rows"],
    )
    def test_columns_match_rows_formatted_by_fmt(self, columns):
        header = tuple(f"c{i}" for i in range(len(columns)))
        assert _csv(columns, header) == _csv_by_rows(columns, header)

    def test_columns_of_unequal_length_refused(self):
        with pytest.raises(ValueError):
            _csv([np.zeros(3), np.zeros(2)], ("a", "b"))


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

    @pytest.mark.parametrize(
        "argv, method",
        [
            (["kimura", "--mode", "regularized"], "shift_invert"),
            (["kimura", "--mode", "ladder", "--n", "101"], "dense"),
            # one law and a zero-flux row: the fold has no corner
            (["sis", "--mode", "regularized", "--n", "101"], "stemr"),
        ],
    )
    def test_regularized_eigensolve_diagnostics(self, tmp_path, argv, method):
        out = tmp_path / "run"
        assert main(argv + ["--out", str(out)]) == 0
        diag = dict(
            ln[len("diag."):].split(" = ") for ln in _manifest_lines(out)
            if ln.startswith("diag.")
        )
        assert diag["eigensolve_method"] == method
        assert diag["eigensolve_modes"] == "16"
        # exp(-lambda_16 t_min) ||v0||_M with t_min = 1: far below rounding
        assert 0.0 < float(diag["eigen_truncation_remainder"]) <= 2.0**-53
        # the data alone: nothing is evolved, so nothing is dropped
        initial = tmp_path / "initial"
        assert main(argv + ["--times", "0", "--out", str(initial)]) == 0
        assert "diag.eigen_truncation_remainder = 0.0" in _manifest_lines(initial)

    def test_ladder_reports_its_widest_rung(self, tmp_path):
        # at t_min = 0.1 each rung keeps its eigenvalues below 53 ln 2 / 0.1
        # and one more, at least 16; the smallest eps keeps the most, 21
        out = tmp_path / "ladder"
        argv = ["kimura", "--mode", "ladder", "--n", "101", "--T", "1", "--times", "0.1,1"]
        assert main(argv + ["--out", str(out)]) == 0
        assert "diag.eigensolve_modes = 21" in _manifest_lines(out)

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

    def test_overflowing_fixation_integral_exit_code(self, tmp_path, capsys, monkeypatch):
        # int_0^1 exp(800 y) dy overflows in the fixation probability, which
        # is built before the solve; run() binds solver names with
        # setdefault, so this stand-in is the one a solve would call
        def solve_interior(*args, **kwargs):
            raise AssertionError("the solve ran")

        monkeypatch.setattr(cli, "solve_interior", solve_interior, raising=False)
        assert main(["kimura", "--psi", "-800", "--out", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert "numerical error" in err and "psi = -800" in err

    @pytest.mark.parametrize("mode", ["regularized", "ladder"])
    def test_steep_drift_regularizes_without_a_kernel_check(self, tmp_path, mode):
        # at psi = 22 the law rows are nearly dependent (s1/s0 = 4.3e-9,
        # 43x the coupling's rank floor) and the mass checks read about
        # 1e-11; the regularized problem takes its laws from the model and
        # so never meets the conservative builders' kernel-residual check
        out = tmp_path / mode
        assert main(["kimura", "--psi", "22", "--n", "401", "--mode", mode, "--out", str(out)]) == 0

    def test_interior_diagnostics(self, tmp_path):
        # psi = 50 on 401 nodes: the symmetrizing scale spans exp(25.5)
        for psi, method in (("0", "modal"), ("50", "stepper")):
            out = tmp_path / f"psi{psi}"
            main(["kimura", "--out", str(out), "--psi", psi, "--T", "0.5", "--times", "0.5"])
            lines = _manifest_lines(out)
            assert f"diag.interior_method = {method}" in lines
            assert "diag.interior_dt = 0.00025" in lines
            # the modal solve takes no steps; dt is only its snapping grid
            steps = [ln for ln in lines if ln.startswith("diag.interior_steps")]
            assert steps == (["diag.interior_steps = 2000"] if method == "stepper" else [])
            # the stepper keeps no modes
            modes = [ln for ln in lines if ln.startswith("diag.interior_modes")]
            assert len(modes) == (method == "modal")
            assert any(ln.startswith("diag.interior_log_scale_spread = ") for ln in lines)
            drivers = [ln for ln in lines if ln.startswith("diag.eigensolve_method")]
            assert drivers == (["diag.eigensolve_method = stemr"] if method == "modal" else [])

    @pytest.mark.parametrize(
        "horizon, driver",
        # 5 modes alive at t = 1; all 399 at t = 1e-5, more than m/6
        [("1", "stemr"), ("1e-5", "stevd"), (None, None)],
        ids=["few", "all", "none alive"],
    )
    def test_interior_names_its_eigensolver(self, tmp_path, horizon, driver):
        out = tmp_path / "run"
        times = ["--times", f"0,{horizon}"] if horizon else ["--times", "0"]
        assert main(["kimura", "--T", horizon or "1", *times, "--out", str(out)]) == 0
        lines = _manifest_lines(out)
        assert "diag.interior_method = modal" in lines
        drivers = [ln for ln in lines if ln.startswith("diag.eigensolve_method")]
        assert drivers == ([f"diag.eigensolve_method = {driver}"] if driver else [])

    def test_first_row_is_the_data(self, tmp_path):
        # a delta on node 1 of 401: the t = 0 row holds the data's masses,
        # not those of the trace extrapolated to x = 0 (atom0 -1.5, interior
        # mass 2.5); the run still fails flux_vs_conservation_masses at
        # t = 1 (0.836), the continuum flux formula on a delta beside x = 0
        out = tmp_path / "delta"
        argv = ["kimura", "--u0", "delta:0.0025", "--T", "1", "--times", "0,1"]
        assert main(argv + ["--out", str(out)]) == 4
        header, first = _read(out / "masses.csv").splitlines()[:2]
        row = dict(zip(header.split(","), map(float, first.split(","))))
        assert (row["atom0"], row["atom1"], row["interior_mass"]) == (0.0, 0.0, 1.0)
        lines = _manifest_lines(out)
        assert "check: atom_admissibility = 0.0 [pass]" in lines
        assert any(ln.startswith("check: flux_vs_conservation_masses = 0.83") for ln in lines)

    def test_steep_drift_runs_the_stepper_without_warning(self, tmp_path, capsys):
        # psi = 400 on n = 101 nodes: both off-diagonals of the interior
        # generator stay positive, and the stepper runs because the
        # symmetrizing scale spans exp(196). The run still fails
        # flux_vs_conservation_masses (0.550 at t = 1): the continuum flux
        # formula inside a boundary layer thinner than h
        steep = tmp_path / "steep"
        argv = ["kimura", "--psi", "400", "--n", "101", "--T", "1", "--times", "0,1"]
        assert main(argv + ["--out", str(steep)]) == 4
        assert "warning" not in capsys.readouterr().err
        lines = _manifest_lines(steep)
        assert not any(ln.startswith("warning:") for ln in lines)
        assert "diag.interior_method = stepper" in lines
        spread = next(ln for ln in lines if ln.startswith("diag.interior_log_scale_spread"))
        assert float(spread.split(" = ")[1]) == pytest.approx(196.0, abs=0.1)
        assert any(ln.startswith("check: flux_vs_conservation_masses = 0.55") for ln in lines)


@pytest.mark.parametrize("command, kept", [("kimura", 5), ("sis", 3)])
def test_default_interior_run_keeps_the_modes_alive_at_the_first_snapshot(tmp_path, command, kept):
    # exp(lam t) > 2^-53 at t = 1 for 5 of Kimura's 399 modes and 3 of SIS's 400
    assert main([command, "--out", str(tmp_path)]) == 0
    assert f"diag.interior_modes = {kept}" in _manifest_lines(tmp_path)


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

    def test_regularized_keeps_mass_at_the_zero_flux_end(self, tmp_path):
        # the half cell at x = 1 once became an atom that was then dropped
        out = tmp_path / "sis"
        argv = ["sis", "--n", "5", "--mode", "regularized", "--T", "0.001", "--times", "0,0.001"]
        assert main(argv + ["--out", str(out)]) == 0
        rows = [r.split(",") for r in _read(out / "masses.csv").splitlines()[1:]]
        assert all(float(r[2]) == 0.0 for r in rows)
        assert all(abs(float(r[4]) - 1.0) <= 1e-14 for r in rows)

    @pytest.mark.parametrize(
        "mode, message",
        [
            ("interior", "the interior generator's rates overflow double precision"),
            ("regularized", "the folded operator overflows double precision"),
        ],
    )
    @pytest.mark.parametrize("R0", ["1e305", "1e308"])
    def test_overflowing_R0_is_a_numerical_error(self, tmp_path, capsys, mode, message, R0):
        argv = ["sis", "--R0", R0, "--mode", mode, "--T", "1", "--times", "0,1"]
        assert main(argv + ["--out", str(tmp_path / "sis")]) == 3
        assert capsys.readouterr().err == f"numerical error: {message}\n"


class TestSpectrumCommand:
    def test_few_modes_keep_the_zero_pair_at_large_n(self, tmp_path):
        # the zero threshold scales with lambda_6, not with the fold's
        # largest eigenvalue (6.4e9 at n = 40001)
        out = tmp_path / "spec"
        assert main(["spectrum", "--out", str(out), "--n", "40001", "--k", "6"]) == 0
        checks = _checks(out)
        assert checks["zero_multiplicity"] == ("2", "pass")
        assert checks["double_zero_below_1e-8_lambda3"][1] == "pass"

    def test_heat_laws(self, tmp_path):
        out = tmp_path / "spec"
        rc = main(["spectrum", "--out", str(out), "--k", "6"])
        assert rc == 0
        rows = _read(out / "eigenvalues.csv").splitlines()
        assert rows[0] == "k,lambda"
        lams = [float(r.split(",")[1]) for r in rows[1:]]
        assert abs(lams[0]) < 1e-8 * lams[2]
        assert abs(lams[1]) < 1e-8 * lams[2]

    def test_assembles_once(self, tmp_path, monkeypatch):
        from conspar import conservative

        calls = []
        original = conservative.assemble

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(conservative, "assemble", counted)
        assert main(["spectrum", "--out", str(tmp_path / "spec"), "--n", "51", "--k", "6"]) == 0
        assert len(calls) == 1

    def test_positivity_not_swept(self, tmp_path, monkeypatch):
        # nothing a spectrum run writes reads the problem's positivity class
        from conspar import conservative

        def refuse(problem):
            raise AssertionError("positivity swept")

        monkeypatch.setattr(conservative, "certify_intrinsic_positivity", refuse)
        assert main(["spectrum", "--out", str(tmp_path / "spec"), "--n", "51", "--k", "6"]) == 0

    def test_variable_coefficient_laws(self, tmp_path):
        # log(1 + x) has no exact derivative: its endpoint slopes enter the
        # coupling rows, which must pass the 1e-8 self-adjointness test
        out = tmp_path / "var"
        rc = main(["spectrum", "--out", str(out), "--p", "1+x", "--law2", "log(1+x)"])
        assert rc == 0
        checks = [ln for ln in _manifest_lines(out) if ln.startswith("check: ")]
        assert len(checks) == 2
        assert all(ln.endswith("[pass]") for ln in checks)

    @pytest.mark.parametrize("k, method", [("6", "shift_invert"), ("401", "band")])
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


# cos(pi x) and sin(pi x) with q = pi^2 (pi is not an expression
# identifier): the rows tie v(1) = -v(0), and n = 401 has 400 modes
TIED_ENDS = ["--q", "9.869604401089358", "--law1", "cos(3.141592653589793*x)",
             "--law2", "sin(3.141592653589793*x)"]


def _eigenvalues(outdir):
    return np.array([float(r.split(",")[1]) for r in _read(outdir / "eigenvalues.csv").splitlines()[1:]])


class TestTiedEnds:
    def test_few_modes_are_symmetric_pairs(self, tmp_path):
        # exit 4: zero_multiplicity reads 0, the lumped q's O(h^2) offset
        # of the zero pair (-5.07e-5) against 1e-8 * lambda_6
        few, every = tmp_path / "few", tmp_path / "every"
        assert main(["spectrum", "--out", str(few), *TIED_ENDS]) == 4
        assert "diag.eigensolve_method = shift_invert" in _manifest_lines(few)
        assert main(["spectrum", "--out", str(every), "--k", "400", *TIED_ENDS]) == 4
        failed = [ln for ln in _manifest_lines(every) if ln.endswith("[fail]")]
        assert failed == ["check: double_zero_below_1e-8_lambda3 = "
                          f"{_fmt(abs(_eigenvalues(every)[:2]).max())} [fail]"]
        lam, lam_max = _eigenvalues(few), _eigenvalues(every)[-1]
        assert np.abs(lam[0::2] - lam[1::2]).max() <= 100 * np.finfo(float).eps * lam_max

    def test_k_past_the_fold_is_a_config_error(self, tmp_path, capsys):
        assert main(["spectrum", "--out", str(tmp_path / "s"), "--k", "401", *TIED_ENDS]) == 2
        assert "tie v(1) to v(0), so n = 401 has 400 modes" in capsys.readouterr().err

    def test_moments_keep_every_mode(self, tmp_path):
        # the default keeps the 16 modes alive at t = 0.2; alive at 1e-9,
        # every one of the fold's 400 is kept
        few, every = tmp_path / "few", tmp_path / "every"
        assert main(["moments", "--out", str(few), *TIED_ENDS]) == 0
        assert "diag.eigensolve_modes = 16" in _manifest_lines(few)
        argv = ["moments", "--out", str(every), "--T", "1", "--times", "0,1e-9,1", *TIED_ENDS]
        assert main(argv) == 0
        assert "diag.eigensolve_modes = 400" in _manifest_lines(every)

    def test_moments_keep_at_most_the_folds_modes(self, tmp_path):
        # k is capped at the fold's m = 54, not at n = 55
        out = tmp_path / "mom"
        argv = ["moments", "--out", str(out), "--n", "55", *TIED_ENDS,
                "--T", "1", "--times", "0,1e-9,1"]
        assert main(argv) == 0
        assert "diag.eigensolve_modes = 54" in _manifest_lines(out)


def _omega():
    """jpi, within 1e-9 of jpi, or generic, for j = 1..3."""
    j_pi = st.sampled_from([j * math.pi for j in (1, 2, 3)])
    near = st.tuples(j_pi, st.floats(-1e-9, 1e-9)).map(sum)
    return st.one_of(j_pi, near, st.floats(0.1, 12.0))


# n <= 41 draws no jpi laws past the law check (the lumped q's kernel
# residual is 5.1e-3 against 1.6e-3 for j = 1 at n = 41); 55, 108 and 161
# are the first grids that accept j = 1, 2 and 3
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["spectrum", "moments"]),
    omega=_omega(),
    n=st.one_of(st.integers(5, 41), st.sampled_from([55, 108, 161])),
    k=st.integers(1, 162),
)
def test_oscillatory_laws_keep_the_exit_code_contract(command, omega, n, k):
    argv = [command, "--n", str(n), "--q", repr(omega * omega),
            "--law1", f"cos({omega!r}*x)", "--law2", f"sin({omega!r}*x)"]
    if command == "spectrum":
        argv += ["--k", str(min(k, n))]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", tmp])
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _drift():
    """psi as a constant in [-60, 60], as a + b x, or as c sin(w x)."""
    coef = st.floats(-60.0, 60.0)
    return st.one_of(
        coef.map(repr),
        st.tuples(coef, coef).map(lambda ab: f"{ab[0]!r}+({ab[1]!r})*x"),
        st.tuples(coef, st.floats(0.1, 20.0)).map(lambda cw: f"{cw[0]!r}*sin({cw[1]!r}*x)"),
    )


# kimura's modal interior is the fold with both ends fixed, sis's the fold
# with one end fixed and no corner; steep drifts and large R0 take the
# stepper. Each command gets its own draws: one shared run drew kimura 5
# times in 60
@pytest.mark.parametrize("command", ["kimura", "sis"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    psi=_drift(),
    log_r0=st.floats(-3.0, 308.0),
    delta=st.one_of(st.none(), st.floats(0.0, 1.0)),
    n=st.integers(5, 41),
    T=st.floats(1e-4, 1.0),
)
def test_interior_solves_keep_the_exit_code_contract(command, psi, log_r0, delta, n, T):
    # a delta lands on an interior node: x0 in [h, 1 - h]
    start = "uniform" if delta is None else f"delta:{(1 + delta * (n - 3)) / (n - 1)!r}"
    argv = [command, "--n", str(n), "--T", repr(T), "--times", f"0,{T / 2!r},{T!r}"]
    if command == "kimura":
        argv += ["--psi", psi, "--u0", start]
    else:
        argv += ["--R0", repr(10.0**log_r0), "--p0", start]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", tmp])
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


# the first positive snapshot sets how many modes moments keeps: 16 or
# more when t_min = T, all of them once 53 ln 2 / t_min overflows
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.one_of(st.integers(5, 41), st.just(55)),
    T=st.floats(1e-4, 10.0),
    log_share=st.floats(-330.0, 0.0),
    with_zero=st.booleans(),
    F1=st.sampled_from(["1", "1+sin(t)"]),
)
def test_moments_keep_the_exit_code_contract(n, T, log_share, with_zero, F1):
    t_min = max(5e-324, T * 10.0**log_share)
    argv = ["moments", "--n", str(n), "--T", repr(T), "--F1", F1,
            "--times", ("0," if with_zero else "") + f"{t_min!r},{T!r}"]
    if n == 55:  # the first grid whose law check accepts the tied-ends laws
        argv += TIED_ENDS
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", tmp])
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _strength():
    """A regularization strength 10^u, u in [-324, 308], floored at 5e-324."""
    return st.floats(-324.0, 308.0).map(lambda u: max(5e-324, 10.0**u))


# eps and the ladder's rungs span every magnitude a double holds; sis has
# no ladder, so its ladder draws must be config errors
@pytest.mark.parametrize("command", ["kimura", "sis"])
@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(["regularized", "ladder"]),
    eps=_strength(),
    ladder=st.lists(_strength(), min_size=3, max_size=5, unique=True)
    .map(lambda rungs: sorted(rungs, reverse=True)),
    psi=st.one_of(
        st.floats(-60.0, 60.0).map(repr),
        st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0))
        .map(lambda ab: f"{ab[0]!r}+({ab[1]!r})*x"),
    ),
    log_r0=st.floats(-3.0, 308.0),
    n=st.integers(5, 41),
    log_T=st.floats(-300.0, 1.0),
    with_zero=st.booleans(),
)
def test_regularized_solves_keep_the_exit_code_contract(command, mode, eps, ladder, psi,
                                                        log_r0, n, log_T, with_zero):
    T = 10.0**log_T
    argv = [command, "--mode", mode, "--n", str(n), "--T", repr(T),
            "--times", ("0," if with_zero else "") + repr(T)]
    if mode == "regularized":
        argv += ["--eps", repr(eps)]
    elif command == "kimura":
        argv += ["--ladder", ",".join(map(repr, ladder))]
    argv += ["--psi", psi] if command == "kimura" else ["--R0", repr(10.0**log_r0)]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        rc = main(argv + ["--out", tmp])
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if command == "sis" and mode == "ladder":
        assert rc == 2, err.getvalue()


def _unit_interval_point():
    """x0 in (0, 1), within 1e-300 of either end at the extremes; 1 - 1e-300
    rounds to 1, which the config check refuses."""
    near_end = st.floats(-300.0, -1.0).map(lambda u: 10.0**u)
    return st.one_of(
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        near_end,
        near_end.map(lambda d: 1.0 - d),
    )


# dt keeps T / dt <= 1000, or is below T 2^-63, where the step count no
# longer fits 64 bits and is refused; a dt in between could step for hours
@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    model=st.sampled_from(["kimura", "sis"]),
    psi=st.one_of(
        st.floats(-60.0, 60.0).map(repr),
        st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0))
        .map(lambda ab: f"{ab[0]!r}+({ab[1]!r})*x"),
    ),
    log_r0=st.floats(-3.0, 308.0),
    x0=_unit_interval_point(),
    bins=st.one_of(st.integers(1, 100_002), st.sampled_from([100_001, 100_002])),
    replicates=st.integers(1, 64),
    log_T=st.floats(-300.0, -2.0),
    log_dt_share=st.one_of(st.none(), st.floats(-3.0, 2.0), st.floats(-330.0, -19.0)),
)
def test_oracle_keeps_the_exit_code_contract(model, psi, log_r0, x0, bins, replicates,
                                             log_T, log_dt_share):
    T = 10.0**log_T
    argv = ["oracle", "--model", model, "--x0", repr(x0), "--bins", str(bins),
            "--replicates", str(replicates), "--T", repr(T), "--times", f"0,{T!r}"]
    argv += ["--psi", psi] if model == "kimura" else ["--R0", repr(10.0**log_r0)]
    if log_dt_share is not None:  # else the default dt, at most T / 1e-4 steps
        argv += ["--dt", repr(max(5e-324, T * 10.0**log_dt_share))]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the bin-resolution warning
        rc = main(argv + ["--out", tmp])
    assert rc in (0, 2, 3, 4), err.getvalue()
    assert "Traceback" not in err.getvalue()


def _diagnostics(outdir):
    """The manifest's diag.<name> = value lines, by name."""
    return dict(ln[len("diag."):].split(" = ") for ln in _manifest_lines(outdir)
                if ln.startswith("diag."))


def _checks(outdir):
    """The manifest's check: <name> = value [pass|fail] lines, by name, as
    (value, status)."""
    lines = [ln[len("check: "):] for ln in _manifest_lines(outdir) if ln.startswith("check: ")]
    return {name: tuple(rest.rstrip("]").split(" [")) for name, rest in
            (ln.split(" = ", 1) for ln in lines)}


class TestMomentsCommand:
    def test_dense_refused_at_large_n(self, tmp_path, capsys):
        # every mode is alive at t = 1e-12, so the one solve asks for all n
        started = time.perf_counter()
        rc = main(["moments", "--out", str(tmp_path / "big"), "--n", "100001",
                   "--T", "1e-12", "--times", "0,1e-12"])
        assert rc == 2
        assert time.perf_counter() - started < 10.0
        assert "dense" in capsys.readouterr().err

    @pytest.mark.parametrize("n", [6001, 100001])
    def test_runs_beyond_the_dense_cap(self, tmp_path, n):
        # 16 modes by shift-invert Lanczos; all n would be refused
        out = tmp_path / "big"
        assert main(["moments", "--out", str(out), "--n", str(n)]) == 0
        assert {name: status for name, (_, status) in _checks(out).items()} == {
            "moment_tracking_error": "pass", "zero_moment_part": "pass"}
        assert _diagnostics(out)["eigensolve_method"] == "shift_invert"

    def test_duhamel_diagnostics(self, tmp_path):
        out = tmp_path / "mom"
        assert main(["moments", "--out", str(out), "--F1", "1+sin(t)"]) == 0
        diag = _diagnostics(out)
        assert diag["eigensolve_method"] == "shift_invert"
        assert diag["eigensolve_modes"] == "16"
        assert float(diag["duhamel_kernel_leakage"]) <= 1e-10
        assert int(diag["duhamel_levels"]) >= 1

    def test_modes_kept_track_the_targets(self, tmp_path):
        # 2.8e-11 on the 16 modes kept (all 401 read 2.0e-10); the bound on
        # the modes left out reads 3.1e-16
        out = tmp_path / "mom"
        assert main(["moments", "--out", str(out), "--F1", "1+sin(t)"]) == 0
        assert float(_checks(out)["moment_tracking_error"][0]) <= 6e-11
        assert float(_diagnostics(out)["eigen_truncation_remainder"]) <= 1e-12

    def test_overflowing_mode_names_its_lambda(self, tmp_path, capsys):
        # omega near 2 pi makes the flux block nearly singular and leaves a
        # mode at lambda = -2349, whose e^(-lambda t) overflows before t = 1
        omega = "6.551387065849718"
        argv = ["moments", "--n", "161", "--q", "42.92067248658297",
                "--law1", f"cos({omega}*x)", "--law2", f"sin({omega}*x)"]
        assert main(argv + ["--out", str(tmp_path / "mom")]) == 3
        err = capsys.readouterr().err
        assert "the mode at lambda = -2349.15 overflows by t = 0.4" in err
        assert "did not converge" not in err

    def test_sinusoidal_target(self, tmp_path):
        out = tmp_path / "mom"
        rc = main(["moments", "--out", str(out), "--F1", "1+sin(t)", "--T", "5"])
        assert rc == 0
        rows = _read(out / "moments.csv").splitlines()[1:]
        worst = max(
            abs(float(r.split(",")[1]) - float(r.split(",")[2])) for r in rows
        )
        assert worst <= 1e-4


class TestDenseCap:
    @pytest.mark.parametrize(
        "argv, advice",
        [
            (["spectrum", "--n", "6001", "--k", "751"], "fewer modes (--k <= n/8)"),
            # t_min = 1e-6 keeps 1930 modes alive, past n/8: dense
            (["moments", "--n", "6001", "--T", "1e-6", "--times", "0,1e-6"],
             "use a smaller --n or a later first positive time in --times"),
            # t_min = 1e-6 keeps every mode alive, so the one solve asks for all n
            (["kimura", "--mode", "regularized", "--n", "5793", "--T", "1", "--times", "1e-6"],
             "a later first positive time in --times"),
            (["sis", "--mode", "regularized", "--n", "5793", "--T", "1", "--times", "1e-6"],
             "a later first positive time in --times"),
        ],
    )
    def test_refusal_advises_only_the_commands_own_options(self, tmp_path, capsys, argv, advice):
        assert main(argv + ["--out", str(tmp_path / "big")]) == 2
        err = capsys.readouterr().err
        assert "dense" in err and advice in err
        assert ("--k" in err) == (argv[0] == "spectrum")
        assert "(k <= n/8)" not in err

    def test_regularized_runs_beyond_the_dense_cap(self, tmp_path):
        out = tmp_path / "big"
        assert main(["kimura", "--mode", "regularized", "--n", "8001", "--out", str(out)]) == 0
        assert "diag.eigensolve_method = shift_invert" in _manifest_lines(out)


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

    def test_no_absorbed_path_against_a_tiny_atom_passes(self, tmp_path):
        # the PDE atom at t = 0.05 is about 7e-7 and no path of 2000 is
        # absorbed; a standard error floored at 1/2000 keeps z near 0.001
        pde, mc, rep = tmp_path / "pde", tmp_path / "mc", tmp_path / "rep"
        times = ["--T", "1", "--times", "0.05,1"]
        assert main(["kimura", "--psi", "10", "--u0", "delta:0.5", *times,
                     "--out", str(pde)]) == 0
        assert main(["oracle", "--psi", "10", "--x0", "0.5", *times, "--replicates", "2000",
                     "--dt", "1e-3", "--seed", "3", "--out", str(mc)]) == 0
        assert main(["validate", "--pde", str(pde), "--oracle", str(mc),
                     "--out", str(rep)]) == 0
        first = _read(rep / "report.csv").splitlines()[1].split(",")
        assert float(first[2]) == 0.0  # mass0_mc
        assert float(first[3]) == 1 / 2000  # se_mass0
        assert float(first[4]) < 0.01  # z0

    def _synthetic_runs(self, tmp_path, manifest):
        pde, mc = tmp_path / "pde", tmp_path / "mc"
        pde.mkdir()
        mc.mkdir()
        (pde / "masses.csv").write_text(
            "t,atom0,atom1,interior_mass,total_mass,phi_moment\n0.05,0.01,0.0,0.99,1.0,0.5\n",
            encoding="utf-8",
        )
        (mc / "oracle.csv").write_text(
            "t,mass0,mass1,interior,se_mass0,se_mass1\n0.05,0.0,0.0,1.0,0.0,0.0\n",
            encoding="utf-8",
        )
        if manifest is not None:
            (mc / "manifest.txt").write_text(manifest, encoding="utf-8")
        return ["validate", "--pde", str(pde), "--oracle", str(mc),
                "--out", str(tmp_path / "rep")]

    def test_no_absorbed_path_against_a_real_atom_fails(self, tmp_path):
        argv = self._synthetic_runs(tmp_path, "command = oracle\nconfig.replicates = 2000\n")
        assert main(argv) == 4
        z0 = float(_read(tmp_path / "rep" / "report.csv").splitlines()[1].split(",")[4])
        assert z0 == pytest.approx(20.0, rel=1e-12)

    @pytest.mark.parametrize(
        "run, name, old, new, problem",
        [
            ("pde", "masses.csv", "atom1", "renamed", "has no 'atom1' column"),
            ("mc", "oracle.csv", "mass0", "renamed", "has no 'mass0' column"),
            # read as nan, such an atom scores z = nan, which no se_limit rejects
            ("pde", "masses.csv", "0.01", "abc", "has a non-finite 'atom0' entry"),
        ],
    )
    def test_malformed_run_refused(self, tmp_path, capsys, run, name, old, new, problem):
        argv = self._synthetic_runs(tmp_path, "command = oracle\nconfig.replicates = 2000\n")
        path = tmp_path / run / name
        path.write_text(path.read_text(encoding="utf-8").replace(old, new, 1), encoding="utf-8")
        assert main(argv) == 2
        assert capsys.readouterr().err == f"config error: {str(path)!r} {problem}\n"

    @pytest.mark.parametrize("manifest", [None, "command = oracle\n"])
    def test_oracle_path_count_required(self, tmp_path, capsys, manifest):
        argv = self._synthetic_runs(tmp_path, manifest)
        assert main(argv + ["--se_limit", "-1"]) == 2
        err = capsys.readouterr().err
        assert "config.replicates" in err and "se_limit" in err

    @pytest.mark.parametrize("model", ["kimura", "sis"])
    def test_default_dt_resolves_the_bins(self, tmp_path, capsys, model):
        # the largest default step whose spread stays within a bin: 2.5e-4
        # for both models at 50 bins (bounds 8e-4 and 3.56e-4)
        out = tmp_path / model
        args = ["oracle", "--model", model, "--replicates", "50", "--T", "0.5", "--times", "0.5"]
        assert main(args + ["--out", str(out)]) == 0
        lines = _manifest_lines(out)
        assert "config.dt = 0.00025" in lines
        assert not any(ln.startswith("warning:") for ln in lines)
        assert "warning:" not in capsys.readouterr().err

    def test_default_dt_falls_back_and_warns(self, tmp_path, capsys):
        # 200 bins resolve only dt <= 5e-5: no default does, so the smallest
        # runs and the bin-resolution warning stays
        out = tmp_path / "fine-bins"
        args = ["oracle", "--bins", "200", "--replicates", "50", "--T", "0.5", "--times", "0.5"]
        assert main(args + ["--out", str(out)]) == 0
        lines = _manifest_lines(out)
        assert "config.dt = 0.0001" in lines
        assert any(ln.startswith("warning:") and "bin-resolution" in ln for ln in lines)

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
