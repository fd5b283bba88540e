"""Batch front door: config parsing, solver dispatch, reproducible outputs.

One run per process. A run reads a flat ``key = value`` config file plus
``--key value`` command-line overrides (CLI wins over file, file over
defaults), dispatches to the solver modules, and writes CSV outputs, a
run manifest with content digests, and optional long-format plot data.
A command imports only the solver modules it runs and accepts only the
keys its runner reads.
Exit codes: 0 success, 2 config error (including a dense eigensolve over
its memory budget), 3 numerical error, 4 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import os
import sys
import tempfile
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConfigError,
    ConsparError,
    DenseSizeError,
    InputError,
    NumericalError,
    ValidationFailure,
)
from .expressions import parse_expression
from .fields import field_from_expression, field_from_table

# The solver names each command's runner uses, by module. They are imported
# on the command's first run and bound as globals of this module, so a
# command loads only what it runs (validate loads no solver, oracle no
# scipy). Bound once, they stay: a wrapper set on one (perfbench's tracer
# wraps this module's globals) is what the runner calls.
_DEGENERATE_SOLVERS = {
    "sturm": "Grid",
    "degenerate": "decompose_measure kimura_model "
    "masses_from_boundary_flux masses_from_conservation sis_model "
    "solve_interior solve_regularized vanishing_limit",
}
_SOLVERS = {
    "kimura": _DEGENERATE_SOLVERS,
    "sis": _DEGENERATE_SOLVERS,
    "spectrum": {"sturm": "Grid eigensolve", "conservative": "build_totally_conservative"},
    "moments": {
        "sturm": "Grid eigensolve",
        "conservative": "build_totally_conservative prescribe_moments "
        "prescribed_moments_evolve time_function",
    },
    "oracle": {"oracle": "bin_resolution_dt kimura_sde simulate sis_sde"},
    "validate": {"oracle": "atom_zscore"},
}

_FLOAT_LIST = "float_list"
# Each command takes exactly the keys its runner reads; any other key is
# a config error
_SCHEMAS = {
    "kimura": {
        "out": (str, None),
        "n": (int, 401),
        "emit_plot_data": (bool, False),
        "psi": (str, "0"),
        "psi_table": (str, ""),
        "u0": (str, "uniform"),
        "T": (float, 50.0),
        "times": (_FLOAT_LIST, [0.0, 1.0, 5.0, 10.0, 50.0]),
        "mode": (str, "interior"),
        "eps": (float, 1e-2),
        "ladder": (_FLOAT_LIST, [1e-1, 3e-2, 1e-2, 3e-3, 1e-3]),
    },
    "sis": {
        "out": (str, None),
        "n": (int, 401),
        "emit_plot_data": (bool, False),
        "R0": (float, 2.0),
        "p0": (str, "uniform"),
        "T": (float, 10.0),
        "times": (_FLOAT_LIST, [0.0, 1.0, 2.0, 5.0, 10.0]),
        "mode": (str, "interior"),
        "eps": (float, 1e-2),
    },
    "spectrum": {
        "out": (str, None),
        "n": (int, 401),
        "p": (str, "1"),
        "q": (str, "0"),
        "weight": (str, "1"),
        "law1": (str, "1"),
        "law2": (str, "x"),
        "k": (int, 6),
    },
    "moments": {
        "out": (str, None),
        "n": (int, 401),
        "p": (str, "1"),
        "q": (str, "0"),
        "law1": (str, "1"),
        "law2": (str, "x"),
        "F1": (str, "1"),
        "F2": (str, "0"),
        "T": (float, 5.0),
        "times": (_FLOAT_LIST, None),  # default linspace(0, T, 26)
    },
    "oracle": {
        "out": (str, None),
        "seed": (int, 0),
        "model": (str, "kimura"),
        "psi": (str, "0"),
        "R0": (float, 2.0),
        "x0": (float, 0.3),
        "dt": (float, None),  # default: see _ORACLE_DT_CHOICES
        "T": (float, 20.0),
        "replicates": (int, 10_000),
        "bins": (int, 50),
        "times": (_FLOAT_LIST, [1.0, 5.0, 20.0]),
    },
    "validate": {
        "out": (str, None),
        "pde": (str, None),
        "oracle": (str, None),
        "se_limit": (float, 3.0),
    },
}


@dataclass
class RunConfig:
    command: str
    options: dict

    def __getitem__(self, key):
        return self.options[key]


@dataclass
class RunManifest:
    command: str
    config: dict
    checks: list = field(default_factory=list)  # (name, value, passed)
    warnings: list = field(default_factory=list)
    assumptions: list = field(default_factory=list)
    files: list = field(default_factory=list)  # (name, sha256)
    diagnostics: dict = field(default_factory=dict)  # solver facts, not checked
    wallclock_s: float = 0.0  # set when the outputs are written
    stages: dict = field(default_factory=dict)  # seconds per stage of the run
    started: float = field(default_factory=time.perf_counter)

    def check(self, name: str, value, passed: bool):
        self.checks.append((name, value, bool(passed)))

    @contextmanager
    def stage(self, name: str):
        """Add the time spent in the block to stage ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - started

    def all_passed(self) -> bool:
        return all(p for _, _, p in self.checks)

    def render(self) -> str:
        lines = [f"command = {self.command}", f"version = {__version__}"]
        for k in sorted(self.config):
            lines.append(f"config.{k} = {_fmt(self.config[k])}")
        lines.append(f"wallclock_s = {self.wallclock_s!r}")
        for name, seconds in self.stages.items():
            lines.append(f"wallclock_s.{name} = {seconds!r}")
        for name, value, passed in self.checks:
            lines.append(
                f"check: {name} = {_fmt(value)} [{'pass' if passed else 'fail'}]"
            )
        for name, value in self.diagnostics.items():
            lines.append(f"diag.{name} = {_fmt(value)}")
        for w in self.warnings:
            lines.append(f"warning: {w}")
        for a in self.assumptions:
            lines.append(f"assumption: {a}")
        for name, digest in self.files:
            lines.append(f"file: {name} sha256={digest}")
        return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (list, tuple)):
        return ",".join(_fmt(x) for x in v)
    return str(v)


def _coerce(key: str, raw, kind, problems: list):
    if kind is bool:
        if isinstance(raw, bool):
            return raw
        s = str(raw).strip().lower()
        if s in ("1", "true", "yes", "on"):
            return True
        if s in ("0", "false", "no", "off"):
            return False
        problems.append(f"{key}: expected a boolean, got {raw!r}")
        return None
    try:
        if kind is _FLOAT_LIST:
            items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
            if not all(str(tok).strip() for tok in items):
                problems.append(f"{key}: empty entry in {raw!r}")
                return None
            value = [float(tok) for tok in items]
        else:
            value = kind(raw)
    except (TypeError, ValueError):
        expected = "comma-separated numbers" if kind is _FLOAT_LIST else kind.__name__
        problems.append(f"{key}: expected {expected}, got {raw!r}")
        return None
    if kind in (float, _FLOAT_LIST) and not np.all(np.isfinite(value)):
        problems.append(f"{key}: must be finite, got {raw!r}")
        return None
    return value


def parse_config_file(path: Path) -> dict:
    out = {}
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, ValueError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError([f"cannot read config file {str(path)!r}: {exc}"]) from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError([f"{path}:{lineno}: expected 'key = value'"])
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def build_config(command: str, file_values: dict, cli_values: dict) -> RunConfig:
    """Merge defaults, file values, and CLI overrides; collect every
    problem before failing."""
    schema = _SCHEMAS[command]
    problems = []
    for src_name, values in (("config file", file_values), ("command line", cli_values)):
        for key in values:
            if key not in schema:
                problems.append(f"unknown key {key!r} in {src_name}")
    merged = {}
    for key, (kind, default) in schema.items():
        raw = cli_values.get(key, file_values.get(key, default))
        if raw is None and key in ("out", "pde", "oracle"):
            problems.append(f"{key}: required")
            continue
        merged[key] = (
            raw if raw is None else _coerce(key, raw, kind, problems)
        )
    _validate_semantics(command, merged, problems)
    if problems:
        raise ConfigError(problems)
    return RunConfig(command=command, options=merged)


def _validate_semantics(command: str, cfg: dict, problems: list):
    times = cfg.get("times")
    if times is not None and np.any(np.diff(times) < 0):
        problems.append("times: must be sorted ascending")
    n = cfg.get("n")
    if n is not None and not 5 <= n <= 100_001:
        problems.append("n: must be between 5 and 100001")
    for key in ("T", "eps", "dt", "R0", "se_limit"):
        if key in cfg and cfg[key] is not None and cfg[key] <= 0:
            problems.append(f"{key}: must be positive")
    if "mode" in cfg and cfg["mode"] not in ("interior", "regularized", "ladder"):
        problems.append("mode: must be interior, regularized, or ladder")
    if cfg.get("mode") == "ladder" and "ladder" not in cfg:
        problems.append("mode: ladder runs are only wired for the kimura command")
    if cfg.get("psi_table"):
        if not Path(cfg["psi_table"]).is_file():
            problems.append(f"psi_table: no such file {cfg['psi_table']!r}")
    if command == "oracle":
        if cfg.get("model") not in ("kimura", "sis"):
            problems.append("model: must be kimura or sis")
        x0 = cfg.get("x0")
        if x0 is not None and not 0 < x0 < 1:
            problems.append("x0: must lie strictly inside (0, 1)")
        bins = cfg.get("bins")
        if bins is not None and bins < 1:
            problems.append("bins: must be at least 1")
    if command == "validate":
        for key in ("pde", "oracle"):
            path = cfg.get(key)
            if path and not (Path(path) / ("masses.csv" if key == "pde" else "oracle.csv")).is_file():
                problems.append(f"{key}: {path!r} does not contain a prior run")
            elif key == "oracle" and path and _oracle_paths(path) is None:
                problems.append(f"oracle: {path!r} has no manifest with a config.replicates count")
    ladder = cfg.get("ladder")
    if ladder is not None and (
        any(e <= 0 for e in ladder) or any(b >= a for a, b in zip(ladder, ladder[1:]))
    ):
        problems.append("ladder: must be strictly decreasing positive values")
    T = cfg.get("T")
    if times is not None and T is not None and times and max(times) > T + 1e-12:
        problems.append("times: beyond the horizon T")


# ----------------------------------------------------------------------
# Output writers


def _write_atomic(path: Path, text: str):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _column(values) -> list:
    """One CSV column as text, each value as ``_fmt`` writes it: a float
    array in one ``repr`` pass over ``tolist()``, a list of str as it is."""
    if isinstance(values, np.ndarray) and values.dtype.kind == "f" and values.itemsize <= 8:
        return list(map(repr, values.tolist()))
    if isinstance(values, list) and all(isinstance(v, str) for v in values):
        return values
    return [_fmt(v) for v in values]


def _csv(columns, header) -> str:
    rows = zip(*map(_column, columns), strict=True)
    return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"


def write_outputs(outdir: Path, files: dict, manifest: RunManifest):
    """Write every output atomically and record content digests; the
    manifest, written last, times the run up to it."""
    with manifest.stage("write"):
        outdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            _write_atomic(outdir / name, text)
            digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
            manifest.files.append((name, digest))
    manifest.wallclock_s = time.perf_counter() - manifest.started
    _write_atomic(outdir / "manifest.txt", manifest.render())


def _density_files(times, grid, densities, masses=None) -> dict:
    """An x,r file per snapshot, and the plot files given the columns of
    masses.csv; the nodes and each density are formatted once for all."""
    x, r = _column(grid.nodes), [_column(d) for d in densities]
    files = {f"density_t{float(t)!r}.csv": _csv((x, r_t), ("x", "r")) for t, r_t in zip(times, r)}
    if masses is not None:
        files.update(_plot_files(x, r, masses))
    return files


_SERIES = ("atom0", "atom1", "interior_mass", "total_mass", "phi_moment")


def _plot_files(x, r, masses) -> dict:
    """Long-format density and mass series, from the formatted nodes x and
    densities r and the columns of masses.csv (times first)."""
    t, *values = map(_column, masses)
    density = ([t_i for t_i, r_t in zip(t, r) for _ in r_t], x * len(r),
               [v for r_t in r for v in r_t])
    series = ([t_i for t_i in t for _ in _SERIES], list(_SERIES) * len(t),
              [v for row in zip(*values) for v in row])
    return {
        "plotdata_density.csv": _csv(density, ("t", "x", "r")),
        "plotdata_masses.csv": _csv(series, ("t", "series", "value")),
    }


# ----------------------------------------------------------------------
# Command implementations


def _field_from_config(expr: str, table_path: str = ""):
    if table_path:
        table = _read_csv(Path(table_path), ("x", "value"))
        return field_from_table(table["x"], table["value"])
    return field_from_expression(expr)


def _initial_density(spec: str, grid: Grid) -> np.ndarray:
    if spec == "uniform":
        return np.ones(grid.n)
    if spec.startswith("delta:"):
        try:
            x0 = float(spec.split(":", 1)[1])
        except ValueError:
            raise InputError(f"{spec!r}: the delta position must be a number") from None
        if not 0 < x0 < 1:
            raise InputError("delta position must lie inside (0, 1)")
        j = int(round((x0 - grid.a) / grid.h))
        if not 0 < j < grid.n - 1:  # an end node's mass would be lost
            raise InputError(
                f"delta:{x0} falls on an end node of the n = {grid.n} grid; "
                f"use {grid.h / 2:g} < x0 < {1 - grid.h / 2:g}"
            )
        vals = np.zeros(grid.n)
        vals[j] = 1.0 / grid.h
        return vals
    f = field_from_expression(spec)
    vals = f(grid.nodes)
    if np.any(vals < 0):
        raise InputError("initial density must be nonnegative")
    return vals


def _kimura_atoms(manifest: RunManifest, model, sol, u0):
    """Both interior atoms from the two conservation identities, checked
    against the boundary-trace integrals when the drift is continuous."""
    a, b = masses_from_conservation(sol.trajectory, u0, 0.0, 0.0, model.laws[1])
    if model.psi.continuous_tier:
        out_times = sol.trajectory.times
        tf, af, bf = masses_from_boundary_flux(sol.traces, 0.0, 0.0)
        agree = float(
            max(
                np.max(np.abs(a - np.interp(out_times, tf, af))),
                np.max(np.abs(b - np.interp(out_times, tf, bf))),
            )
        )
        manifest.check("flux_vs_conservation_masses", agree, agree <= 1e-3)
    else:
        manifest.warnings.append(
            "tabulated-linear drift: flux-form masses unavailable, "
            "conservation form only"
        )
    return a, b


def _sis_atoms(manifest: RunManifest, model, sol, u0):
    """The interior atom at x = 0 from the boundary flux, with the Robin
    residual at x = 1 and the atom's monotonicity checked."""
    ta, a_curve, _ = masses_from_boundary_flux(sol.traces, 0.0, 0.0)
    a = np.interp(sol.trajectory.times, ta, a_curve)
    # |flux -(g r)' + g psi r| through x = 1 at the last snapshot, which the
    # zero-flux closure should make vanish
    r = sol.trajectory.values[-1]
    drx = (3 * r[-1] - 4 * r[-2] + r[-3]) / (2 * sol.trajectory.grid.h)
    g1, dg1, psi1 = model.g(1.0), model.g.derivative(1.0), model.psi(1.0)
    robin = abs(dg1 * r[-1] + g1 * drx - g1 * psi1 * r[-1])
    manifest.check("robin_residual_at_1", robin, robin <= 1e-3)
    mono = bool(np.all(np.diff(a_curve) >= -1e-10))
    manifest.check("atom_mass_nondecreasing", mono, mono)
    return a, np.zeros_like(a)


# All that differs between the degenerate commands: the model, the key of
# its initial density, and its interior atoms with their checks
_DEGENERATE = {
    "kimura": (
        lambda cfg: kimura_model(_field_from_config(cfg["psi"], cfg["psi_table"])),
        "u0",
        _kimura_atoms,
    ),
    "sis": (lambda cfg: sis_model(cfg["R0"]), "p0", _sis_atoms),
}


def _run_degenerate(cfg: RunConfig, manifest: RunManifest) -> dict:
    build, initial_key, interior_atoms = _DEGENERATE[cfg.command]
    with manifest.stage("fields"):
        grid = Grid(0.0, 1.0, cfg["n"])
        model = build(cfg)
        u0 = _initial_density(cfg[initial_key], grid)
    times = np.asarray(cfg["times"], dtype=float)
    mode = cfg["mode"]

    if mode == "interior":
        with manifest.stage("step"):
            sol = solve_interior(model, u0, cfg["T"], times, grid)
        manifest.diagnostics.update(interior_method=sol.method, interior_dt=sol.dt)
        if sol.method == "stepper":
            manifest.diagnostics["interior_steps"] = sol.steps
        else:
            manifest.diagnostics["interior_modes"] = sol.modes
            if sol.eigensolve_method:
                manifest.diagnostics["eigensolve_method"] = sol.eigensolve_method
        manifest.diagnostics["interior_log_scale_spread"] = sol.log_scale_spread
        with manifest.stage("atoms"):
            a, b = interior_atoms(manifest, model, sol, u0)
        dens = sol.trajectory.values
        out_times = sol.trajectory.times
    else:
        if mode == "regularized":
            with manifest.stage("evolve"):
                sol = solve_regularized(model, u0, cfg["eps"], times, grid)
            rungs, traj = [sol], sol.trajectory
            with manifest.stage("atoms"):
                measures = [
                    decompose_measure(v, grid, t, model.absorbs_at_1)
                    for v, t in zip(traj.values, traj.times)
                ]
        else:
            with manifest.stage("evolve"):
                res = vanishing_limit(model, u0, cfg["ladder"], times, grid)
            rungs = res.rungs
            if res.warning:
                manifest.warnings.append(res.warning)
            manifest.assumptions.append("richardson_order1")
            if np.isfinite(res.extrapolation_ratio):
                manifest.warnings.append(
                    "ladder differences decay geometrically (ratio "
                    f"{res.extrapolation_ratio:.3f}); extrapolation used the "
                    "estimated ratio instead of the first-order form"
                )
            measures = res.measures
        widest = max(rungs, key=lambda sol: sol.eig.eigenvalues.size).eig
        manifest.diagnostics.update(
            eigensolve_method=widest.method,
            eigensolve_modes=widest.eigenvalues.size,
            eigen_truncation_remainder=max(
                float(sol.v_trajectory.truncation_error.max()) for sol in rungs
            ),
        )
        out_times = np.array([m.time for m in measures])
        a = np.array([m.atom0 for m in measures])
        b = np.array([m.atom1 for m in measures])
        dens = np.stack([m.density for m in measures])

    nodes = grid.nodes
    interior = np.array([float(np.trapezoid(d, nodes)) for d in dens])
    total = a + b + interior
    mass_drift = float(np.max(np.abs(total - total[0])))
    manifest.check("total_mass_drift", mass_drift, mass_drift <= 1e-4)
    phimom = total  # the moment of the last law, total mass under one law
    if model.absorbs_at_1:  # the second law's moment, and two atoms
        phiv = model.laws[1](nodes)
        phimom = b + np.array([float(np.trapezoid(d * phiv, nodes)) for d in dens])
        mom_drift = float(np.max(np.abs(phimom - phimom[0])))
        manifest.check("phi_moment_drift", mom_drift, mom_drift <= 1e-4)
        min_atom = float(min(a.min(), b.min()))
        manifest.check("atom_admissibility", min_atom, min_atom >= -1e-8)

    masses = (out_times, a, b, interior, total, phimom)
    files = {"masses.csv": _csv(masses, header=("t", *_SERIES))}
    files.update(_density_files(out_times, grid, dens, masses if cfg["emit_plot_data"] else None))
    return files


def _conservative_eigensystem(cfg: RunConfig, manifest: RunManifest, k=None, weight=None,
                              vectors=True):
    """The totally conservative problem of the config's p, q and laws, and
    its k smallest eigenpairs (all by default; eigenvalues only when not
    ``vectors``)."""
    with manifest.stage("fields"):
        grid = Grid(0.0, 1.0, cfg["n"])
        p, q, law1, law2 = (field_from_expression(cfg[key]) for key in ("p", "q", "law1", "law2"))
    with manifest.stage("assemble"):
        problem = build_totally_conservative(p, q, law1, law2, grid, weight=weight)
    with manifest.stage("eigensolve"):
        eig = eigensolve(problem.operator, problem.coupling, k=k, vectors=vectors)
    manifest.diagnostics.update(
        eigensolve_method=eig.method, eigensolve_modes=eig.eigenvalues.size
    )
    return grid, problem, eig


def _run_spectrum(cfg: RunConfig, manifest: RunManifest) -> dict:
    with manifest.stage("fields"):
        weight = field_from_expression(cfg["weight"])
    # the output is the eigenvalues alone
    _, _, eig = _conservative_eigensystem(cfg, manifest, cfg["k"], weight, vectors=False)
    manifest.check("zero_multiplicity", eig.zero_multiplicity, eig.zero_multiplicity >= 1)
    if eig.eigenvalues.size >= 3 and eig.zero_multiplicity == 2:
        ok = bool(
            np.all(np.abs(eig.eigenvalues[:2]) <= 1e-8 * max(eig.eigenvalues[2], 1e-300))
        )
        manifest.check("double_zero_below_1e-8_lambda3", float(np.abs(eig.eigenvalues[:2]).max()), ok)
    k = np.arange(1, eig.eigenvalues.size + 1)
    return {"eigenvalues.csv": _csv((k, eig.eigenvalues), header=("k", "lambda"))}


def _run_moments(cfg: RunConfig, manifest: RunManifest) -> dict:
    grid, problem, eig = _conservative_eigensystem(cfg, manifest)

    def tf(expr_text):
        expr = parse_expression(expr_text, variable="t")
        return time_function(lambda t: float(expr(t)))

    with manifest.stage("evolve"):
        F1, F2 = tf(cfg["F1"]), tf(cfg["F2"])
        pres = prescribe_moments(problem, F1, F2)
        v0 = F1.value(0.0) * pres.phi1 + F2.value(0.0) * pres.phi2
        times = cfg["times"]
        times = np.linspace(0.0, cfg["T"], 26) if times is None else np.asarray(times)
        v_traj, w_traj = prescribed_moments_evolve(eig, v0, pres, times)
    manifest.diagnostics.update(v_traj.diagnostics)

    mu = grid.cell_weights()
    m1 = v_traj.values @ (mu * pres.weight * pres.phi1)
    m2 = v_traj.values @ (mu * pres.weight * pres.phi2)
    t1 = np.array([F1.value(float(t)) for t in times])
    t2 = np.array([F2.value(float(t)) for t in times])
    err = float(max(np.max(np.abs(m1 - t1)), np.max(np.abs(m2 - t2))))
    manifest.check("moment_tracking_error", err, err <= 1e-4)
    zero = float(np.max(np.abs(w_traj.values @ (mu * pres.weight * pres.phi1))))
    manifest.check("zero_moment_part", zero, zero <= 1e-6)

    header = ("t", "target1", "moment1", "target2", "moment2")
    return {"moments.csv": _csv((times, t1, m1, t2, m2), header)}


# Default oracle time steps, largest first: the default is the largest whose
# one-step spread resolves a histogram bin (oracle.bin_resolution_dt), else
# the last. Their time-step bias was measured offline against coupled
# coarse paths at 2 dt (commit b44162f), pooled over 500,000 paths; the
# table is under ROADMAP "Settled". 5e-4 is left out, since at t = 1 the
# default Kimura run's fine and coarse mass0 differ there by 0.12 of its
# standard error (0.03 at 2.5e-4; SIS at R0 = 2 and x0 = 0.3, 0.09 over
# all its runs and 0.10 on the benchmark's SIS config alone).
_ORACLE_DT_CHOICES = (2.5e-4, 1e-4)


def _run_oracle(cfg: RunConfig, manifest: RunManifest) -> dict:
    with manifest.stage("fields"):
        common = dict(horizon=cfg["T"], replicates=cfg["replicates"], seed=cfg["seed"])
        if cfg["model"] == "sis":
            make_spec = partial(sis_sde, cfg["R0"], cfg["x0"], **common)
        else:
            psi = field_from_expression(cfg["psi"])
            make_spec = partial(kimura_sde, psi, cfg["x0"], **common)
        for dt in _ORACLE_DT_CHOICES if cfg["dt"] is None else (cfg["dt"],):
            spec = make_spec(dt=dt)
            if dt <= bin_resolution_dt(spec.squared_volatility, cfg["bins"]):
                break
        manifest.config["dt"] = dt
    with manifest.stage("simulate"):
        measures = simulate(spec, cfg["times"], bins=cfg["bins"])
    manifest.stages["oracle_normal_wait"] = measures[-1].normal_wait_s
    manifest.assumptions.append("sde_matching")
    manifest.diagnostics.update(
        oracle_steps=measures[-1].steps,
        oracle_live_paths=[int(m.counts.sum()) for m in measures],
    )
    identity = all(m.counting_identity() for m in measures)
    manifest.check("counting_identity", identity, identity)
    columns = zip(*[
        (m.time, m.mass_at_0, m.mass_at_1, m.interior_mass,
         m.standard_errors["mass_at_0"], m.standard_errors["mass_at_1"])
        for m in measures
    ])
    header = ("t", "mass0", "mass1", "interior", "se_mass0", "se_mass1")
    return {"oracle.csv": _csv(columns, header)}


def _read_csv(path: Path, columns) -> dict:
    """The named columns of a CSV file with a header row, as 1-D arrays;
    InputError names the file when it does not parse, lacks a column, has
    no data rows or holds a non-finite (or non-numeric) entry in one."""
    try:
        with warnings.catch_warnings():  # numpy's warning becomes the message below
            warnings.filterwarnings("error", "genfromtxt: Empty input file", UserWarning)
            data = np.genfromtxt(path, delimiter=",", names=True)
    except UserWarning:
        raise InputError(f"{str(path)!r} is empty: it has no header row") from None
    except (ValueError, IndexError) as exc:  # ragged rows, not UTF-8
        detail = " ".join(str(exc).split())
        raise InputError(f"{str(path)!r} is not a CSV table with a header row ({detail})") from exc
    for name in columns:
        if name not in (data.dtype.names or ()):
            raise InputError(f"{str(path)!r} has no {name!r} column")
        if not np.all(np.isfinite(data[name])):
            raise InputError(f"{str(path)!r} has a non-finite {name!r} entry")
    if data.size == 0:
        raise InputError(f"{str(path)!r} has a header row but no data rows")
    return {name: np.atleast_1d(data[name]) for name in columns}


def _oracle_paths(outdir) -> int | None:
    """The positive path count on the ``config.replicates`` line of a prior
    oracle run's manifest, or None."""
    manifest = Path(outdir) / "manifest.txt"
    lines = manifest.read_text(encoding="utf-8").splitlines() if manifest.is_file() else []
    counts = [ln.partition(" = ")[2] for ln in lines if ln.startswith("config.replicates = ")]
    return int(counts[0]) if counts and counts[0].isdigit() and int(counts[0]) > 0 else None


def _run_validate(cfg: RunConfig, manifest: RunManifest) -> dict:
    pde = _read_csv(Path(cfg["pde"]) / "masses.csv", ("t", "atom0", "atom1"))
    mc = _read_csv(Path(cfg["oracle"]) / "oracle.csv", ("t", "mass0", "mass1"))
    n_paths = _oracle_paths(cfg["oracle"])
    manifest.assumptions.append("sde_matching")
    rows, worst = [], 0.0
    for i, t in enumerate(mc["t"]):
        j = np.where(np.abs(pde["t"] - t) <= 1e-9 * max(1.0, abs(t)))[0]
        if j.size == 0:
            continue
        j = int(j[0])
        atom0, atom1 = float(pde["atom0"][j]), float(pde["atom1"][j])
        mass0, mass1 = float(mc["mass0"][i]), float(mc["mass1"][i])
        se0, z0 = atom_zscore(mass0, atom0, n_paths)
        se1, z1 = atom_zscore(mass1, atom1, n_paths)
        worst = max(worst, z0, z1)
        ok = z0 <= cfg["se_limit"] and z1 <= cfg["se_limit"]
        rows.append((float(t), atom0, mass0, se0, z0, atom1, mass1, se1, z1, int(ok)))
    if not rows:
        raise ConfigError(["validate: the two runs share no snapshot times"])
    manifest.check("max_atom_discrepancy_se", worst, worst <= cfg["se_limit"])
    header = ("t", "atom0_pde", "mass0_mc", "se_mass0", "z0",
              "atom1_pde", "mass1_mc", "se_mass1", "z1", "pass")
    return {"report.csv": _csv(zip(*rows), header=header)}


_RUNNERS = {
    "kimura": _run_degenerate,
    "sis": _run_degenerate,
    "spectrum": _run_spectrum,
    "moments": _run_moments,
    "oracle": _run_oracle,
    "validate": _run_validate,
}


def run(config: RunConfig) -> RunManifest:
    """Execute one run: solve, write outputs, return the manifest.

    Raises ValidationFailure after writing everything when a check fails.
    """
    namespace = globals()
    for module, names in _SOLVERS[config.command].items():
        solvers = importlib.import_module(f".{module}", __package__)
        for name in names.split():
            namespace.setdefault(name, getattr(solvers, name))
    manifest = RunManifest(command=config.command, config=dict(config.options))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        files = _RUNNERS[config.command](config, manifest)
    for w in caught:
        manifest.warnings.append(str(w.message))
    for w in manifest.warnings:
        print(f"warning: {w}", file=sys.stderr)
    write_outputs(Path(config["out"]), files, manifest)
    if not manifest.all_passed():
        failed = [name for name, _, ok in manifest.checks if not ok]
        raise ValidationFailure(f"checks failed: {', '.join(failed)}")
    return manifest


# What each command that can reach a dense eigensolve may change when it is
# refused: a regularized solve goes dense only when an early first positive
# snapshot keeps many modes alive
_DENSE_ADVICE = {
    "spectrum": "ask for fewer modes (--k <= n/8) or use a smaller --n",
    "moments": "use a smaller --n",
    "kimura": "use a smaller --n or a later first positive time in --times",
    "sis": "use a smaller --n or a later first positive time in --times",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="conspar",
        description=(
            "Conservation-law-constrained drift-diffusion solvers: "
            "spectral, degenerate-boundary, and Monte Carlo runs"
        ),
    )
    parser.add_argument("command", choices=sorted(_SCHEMAS))
    parser.add_argument("--config", type=Path, help="flat key = value config file")
    args, rest = parser.parse_known_args(argv)

    cli_values = {}
    problems = []
    i = 0
    while i < len(rest):
        tok = rest[i]
        if not tok.startswith("--"):
            problems.append(f"unexpected argument {tok!r}")
            i += 1
            continue
        key = tok[2:]
        if "=" in key:
            key, val = key.split("=", 1)
        elif i + 1 < len(rest):
            val = rest[i + 1]
            i += 1
        else:
            val = "true"  # bare flag
        cli_values[key] = val
        i += 1

    try:
        if problems:
            raise ConfigError(problems)
        file_values = parse_config_file(args.config) if args.config else {}
        config = build_config(args.command, file_values, cli_values)
        manifest = run(config)
    except ConfigError as exc:
        for p in exc.problems:
            print(f"config error: {p}", file=sys.stderr)
        return 2
    except DenseSizeError as exc:
        print(f"config error: {exc}; {_DENSE_ADVICE[args.command]}", file=sys.stderr)
        return 2
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3
    except ValidationFailure as exc:
        print(f"validation failure: {exc}", file=sys.stderr)
        return 4
    except ConsparError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    for name, value, passed in manifest.checks:
        status = "pass" if passed else "fail"
        print(f"[{status}] {name} = {_fmt(value)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
