"""conspar benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {spectral,degenerate,crosscheck}
        --seed N --seconds S --trace {0,1}

Each pass calls ``conspar.cli.main`` in-process once per run of the
workload, the way a user runs the CLI, and checks every run's output.

--trace 0 measures set-up in fresh interpreters, then makes warm passes
until S seconds have gone (at least two), and reports the end-to-end metrics:
``wall_s`` (median pass), ``setup_s`` (median probe) and ``peak_rss_mb``.

--trace 1 alternates untraced and traced passes (at least one of each)
for S seconds and reports per-layer metrics from the traced passes, the
tracing overhead, and the ROADMAP baseline rows next to their traced
counterparts. Spans are written to .bench_work/<workload>/trace.json.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run fails when it
exits non-zero, when a manifest ``check:`` line fails, or when one of the
benchmark's own checks fails. ``correct`` is false when any run fails,
except the one run a workload marks as a known refusal when it exits 2:
that run counts as failed without making the results wrong. The same
result, with the environment record added under ``env``, is written to
.bench_work/<workload>/result.json.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import Tracer, hot_totals, self_time_by_layer
from workloads import WORKLOADS, call_cli, make_runs, manifest_failures, minimal_runs

BLAS_THREADS = 2  # measured: 2 threads ran `spectral` faster than 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
MIN_PASSES = 2  # a median needs two; a slow host can stretch one crosscheck pass past S
PROBE_TIMEOUT_S = 120

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER = (
    ("fields.call.count", "count"),
    ("fields.call.points", "count"),
    ("fields.call.s", "s"),
    ("fields.quadrature.s", "s"),
    ("expressions.eval.count", "count"),
    ("expressions.eval.s", "s"),
    ("sturm.assemble.count", "count"),
    ("sturm.assemble.s", "s"),
    ("sturm.eigensolve.count", "count"),
    ("sturm.eigensolve.errors", "count"),
    ("sturm.eigensolve.all.s", "s"),
    ("sturm.eigensolve.few.s", "s"),
    ("sturm.evolve.s", "s"),
    ("conservative.build.s", "s"),
    ("conservative.duhamel.s", "s"),
    ("conservative.source_evals", "count"),
    ("degenerate.solve_interior.s", "s"),
    ("degenerate.solve_interior.steps", "count"),
    ("degenerate.solve_interior.us_per_step", "us"),
    ("degenerate.solve_regularized.s", "s"),
    ("degenerate.vanishing_limit.s", "s"),
    ("degenerate.masses.s", "s"),
    ("oracle.simulate.s", "s"),
    ("oracle.simulate.count", "count"),
    ("oracle.block_steps", "count"),
    ("oracle.us_per_block_step", "us"),
    ("oracle.lane_fill", "ratio"),
    ("cli.ops", "count"),
    ("cli.ops_failed", "count"),
    ("cli.ops_failed.exit2", "count"),
    ("cli.ops_failed.exit3", "count"),
    ("cli.ops_failed.exit4", "count"),
    ("cli.fail_ratio", "ratio"),
    ("cli.config.s", "s"),
    ("cli.write.s", "s"),
    ("cli.bytes_written", "B"),
    ("cli.run.self_s", "s"),
    ("cli.self_s", "s"),
    ("conservative.self_s", "s"),
    ("degenerate.self_s", "s"),
    ("expressions.self_s", "s"),
    ("fields.self_s", "s"),
    ("oracle.self_s", "s"),
    ("sturm.self_s", "s"),
    ("harness.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)
LAYERS = ("cli", "conservative", "degenerate", "expressions", "fields", "oracle", "sturm", "harness")

# Spans whose self time makes up one per-layer metric.
SELF_TIME_GROUPS = {
    "fields.quadrature.s": ("fields.exponential_weight", "fields.fixation_probability",
                            "fields.cumulative_integral", "fields.integrate"),
    "sturm.assemble.s": ("sturm.assemble",),
    "sturm.evolve.s": ("sturm.evolve",),
    "conservative.build.s": ("conservative.build_totally_conservative",
                             "conservative.build_partially_conservative"),
    "conservative.duhamel.s": ("conservative.duhamel_evolve",),
    "degenerate.solve_interior.s": ("degenerate.solve_interior",),
    "degenerate.solve_regularized.s": ("degenerate.solve_regularized",),
    "degenerate.vanishing_limit.s": ("degenerate.vanishing_limit",),
    "degenerate.masses.s": ("degenerate.masses_from_conservation",
                            "degenerate.masses_from_boundary_flux",
                            "degenerate.sis_atom_mass", "degenerate.decompose_measure"),
    "oracle.simulate.s": ("oracle.simulate",),
    "cli.config.s": ("cli.build_config", "cli.parse_config_file"),
    "cli.write.s": ("cli.write_outputs", "cli._csv", "cli._density_files", "cli._plot_files"),
    "cli.run.self_s": ("cli.main", "cli.run"),
}

# ROADMAP baseline rows (2 CPUs, Python 3.11, numpy 2.4.6, scipy 1.17.1).
BASELINE = {
    "eigensolve, heat problem, all modes, n = 1601": (694.0, "ms"),
    "solve_interior, T = 50, per step": (69.0, "us"),
    "simulate, one 4096-path block, per step": (157.0, "us"),
}


# ----------------------------------------------------------------------
# Environment


def environment(root: Path, threads: int) -> dict:
    import numpy
    import scipy

    def blas(config):
        info = config.get("Build Dependencies", {}).get("blas", {})
        return f"{info.get('name', '?')} {info.get('version', '?')}"

    src_digest = hashlib.sha256()
    for path in sorted((root / "src" / "conspar").glob("*.py")):
        src_digest.update(path.read_bytes())
    return {
        "commit": git_commit(root),
        "src_sha256": src_digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, or "none" outside a git tree."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
    except OSError:
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


# ----------------------------------------------------------------------
# Passes and checks


def measure_setup(workload: str, seed: int, work: Path, src: Path) -> list:
    """Set-up seconds of SETUP_REPEATS fresh interpreters."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = work / f"setup{i}"
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), str(probe_dir), str(src)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, env=os.environ.copy(),
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if any(result["exit_codes"]):
            print(f"note: set-up probe exit codes {result['exit_codes']}")
        times.append(result["setup_s"])
        shutil.rmtree(probe_dir)
    return times


def run_pass(cli, runs, pass_dir: Path, tracer=None) -> tuple:
    """One pass over the workload's runs: (wall seconds, [(exit code,
    stderr, seconds)] per run). With a tracer, the pass is its root span."""
    gc.collect()
    outcomes = []
    started = time.perf_counter()
    with tracer.span("harness.pass") if tracer else contextlib.nullcontext():
        for run in runs:
            t0 = time.perf_counter()
            code, err = call_cli(cli, run.argv(pass_dir))
            outcomes.append((code, err, time.perf_counter() - t0))
    return time.perf_counter() - started, outcomes


def check_pass(runs, outcomes, pass_dir: Path) -> list:
    """Per run: (failed, wrong, problems). Every failure is wrong except
    the known refusal of a run marked ``known_refusal``."""
    verdicts = []
    for run, (code, err, _) in zip(runs, outcomes):
        out = pass_dir / run.name
        refused, wrong = [], []
        if code != 0:
            last = err.strip().splitlines()[-1] if err.strip() else ""
            if run.known_refusal and code == 2:
                refused.append(f"exit 2 (known refusal): {last}")
            else:
                wrong.append(f"exit {code}: {last}")
        if code == 0 or (out / "manifest.txt").is_file():
            wrong += [f"manifest check failed: {c}" for c in manifest_failures(out)]
        if code == 0:
            for check in run.checks:
                try:
                    problem = check(out)
                except (OSError, KeyError, ValueError, IndexError) as exc:
                    problem = f"{check.__name__}: unreadable output ({exc})"
                if problem:
                    wrong.append(problem)
        verdicts.append((bool(refused or wrong), bool(wrong), refused + wrong))
    return verdicts


# ----------------------------------------------------------------------
# Per-layer metrics


def hooks(tracer):
    """Attributes the metrics need from particular calls."""
    from conspar.oracle import BLOCK_SIZE

    def eigensolve_before(a):
        n = a["op"].grid.n
        k = a.get("k")
        return {"n": n, "all": k is None or int(k) >= n}

    def simulate_before(a):
        spec = a["spec"]
        block = a.get("block_size", BLOCK_SIZE)
        steps = int(round(float(a["snapshot_times"][-1]) / spec.dt))
        return {"block_steps": math.ceil(spec.replicates / block) * steps,
                "block_size": block, "replicates": spec.replicates}

    def solve_interior_after(attrs, result):
        attrs["steps"] = len(result.traces.times) - 1
        return result

    def reduce_after(attrs, result):
        w0, source = result
        return w0, tracer.wrap_hot(source, "conservative.source")

    return {
        "sturm.eigensolve": (eigensolve_before, None),
        "oracle.simulate": (simulate_before, None),
        "degenerate.solve_interior": (None, solve_interior_after),
        "conservative.prescribed_moments_reduce": (None, reduce_after),
    }


def layer_metrics(records, outcomes, bytes_written: int) -> dict:
    """Per-layer metrics of one traced pass."""
    def spans(*names):
        return [r for r in records if r["name"] in names]

    def self_s(*names):
        return sum(r["self"] for r in spans(*names))

    def incl_s(r):
        return r["end"] - r["start"]

    m = {name: self_s(*group) for name, group in SELF_TIME_GROUPS.items()}
    calls = hot_totals(records, "fields.call")
    m["fields.call.count"], m["fields.call.points"], m["fields.call.s"] = calls[:3]
    evals = hot_totals(records, "expressions.eval")
    m["expressions.eval.count"], m["expressions.eval.s"] = evals[0], evals[2]

    m["sturm.assemble.count"] = len(spans("sturm.assemble"))
    eig = spans("sturm.eigensolve")
    m["sturm.eigensolve.count"] = len(eig)
    m["sturm.eigensolve.errors"] = sum(1 for r in eig if "error" in r["attrs"])
    m["sturm.eigensolve.all.s"] = sum(r["self"] for r in eig if r["attrs"].get("all"))
    m["sturm.eigensolve.few.s"] = sum(r["self"] for r in eig if not r["attrs"].get("all"))

    m["conservative.source_evals"] = hot_totals(records, "conservative.source")[0]

    interior = [r for r in spans("degenerate.solve_interior") if "steps" in r["attrs"]]
    steps = sum(r["attrs"]["steps"] for r in interior)
    m["degenerate.solve_interior.steps"] = steps
    m["degenerate.solve_interior.us_per_step"] = (
        1e6 * sum(incl_s(r) for r in interior) / steps if steps else 0.0)

    sims = spans("oracle.simulate")
    block_steps = sum(r["attrs"]["block_steps"] for r in sims)
    m["oracle.simulate.count"] = len(sims)
    m["oracle.block_steps"] = block_steps
    m["oracle.us_per_block_step"] = (
        1e6 * sum(incl_s(r) for r in sims) / block_steps if block_steps else 0.0)
    direct = hot_totals(records, "fields.call", under="oracle.simulate")
    block = sims[0]["attrs"]["block_size"] if sims else 1
    m["oracle.lane_fill"] = direct[4] / direct[3] / block if direct[3] else 0.0

    codes = [code for code, _, _ in outcomes]
    m["cli.ops"] = len(codes)
    m["cli.ops_failed"] = sum(1 for c in codes if c != 0)
    for c in (2, 3, 4):
        m[f"cli.ops_failed.exit{c}"] = codes.count(c)
    m["cli.fail_ratio"] = m["cli.ops_failed"] / m["cli.ops"]
    m["cli.bytes_written"] = bytes_written

    by_layer = self_time_by_layer(records)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    return m


def baseline_rows(records) -> list:
    """(row, traced value, ROADMAP value, unit) for the baseline table."""
    def median_or_none(values):
        return statistics.median(values) if values else None

    eig_all = [1e3 * (r["end"] - r["start"]) for r in records
               if r["name"] == "sturm.eigensolve" and r["attrs"].get("all")
               and r["attrs"].get("n") == 1601 and "error" not in r["attrs"]]
    interior = [1e6 * (r["end"] - r["start"]) / r["attrs"]["steps"] for r in records
                if r["name"] == "degenerate.solve_interior" and r["attrs"].get("steps") == 20000]
    full_blocks = [1e6 * (r["end"] - r["start"]) / r["attrs"]["block_steps"] for r in records
                   if r["name"] == "oracle.simulate"
                   and r["attrs"]["replicates"] == r["attrs"]["block_size"]]
    traced = (median_or_none(eig_all), median_or_none(interior), median_or_none(full_blocks))
    return [(row, value, *BASELINE[row]) for row, value in zip(BASELINE, traced)]


# ----------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "conspar" / "cli.py").is_file():
        print(f"error: no conspar sources at {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = str(threads)
    sys.path.insert(0, str(src))

    work = root / ".bench_work" / args.workload
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)

    setup_times = measure_setup(args.workload, args.seed, work, src) if args.trace == 0 else []

    import conspar.cli as cli

    env = environment(root, threads)
    print("env: " + json.dumps(env, sort_keys=True))

    for run in minimal_runs(args.workload):  # warm imports, LAPACK and first writes
        code, err = call_cli(cli, run.argv(work / "warmup"))
        if code != 0:
            print(f"note: warm-up run {run.name} exited {code}: {err.strip()}")

    walls, traced_walls, per_run, layer_rows, all_records = [], [], {}, [], []
    attempted = failed = 0
    correct = True
    started = time.perf_counter()
    pass_index = 0
    while True:
        traced = args.trace == 1 and pass_index % 2 == 1
        pass_dir = work / "pass"
        if pass_dir.exists():
            shutil.rmtree(pass_dir)
        pass_dir.mkdir()
        # a traced pass reuses its untraced partner's inputs, so the two
        # differ only by tracing
        runs = make_runs(args.workload, args.seed, pass_index // (1 + args.trace), pass_dir)
        if traced:
            tracer = Tracer()
            tracer.install(hooks(tracer))
            try:
                wall, outcomes = run_pass(cli, runs, pass_dir, tracer)
            finally:
                tracer.uninstall()
            written = sum(f.stat().st_size for f in pass_dir.rglob("*") if f.is_file())
            traced_walls.append(wall)
            layer_rows.append(layer_metrics(tracer.records, outcomes, written))
            all_records.append(tracer.records)
        else:
            wall, outcomes = run_pass(cli, runs, pass_dir)
            walls.append(wall)
            for run, (_, _, seconds) in zip(runs, outcomes):
                per_run.setdefault(run.name, []).append(seconds)
        for run, (bad, wrong, problems) in zip(runs, check_pass(runs, outcomes, pass_dir)):
            attempted += 1
            failed += bad
            correct &= not wrong
            for p in problems:
                print(f"pass {pass_index} run {run.name}: {p}")
        pass_index += 1
        if time.perf_counter() - started >= args.seconds and pass_index >= MIN_PASSES and (
                args.trace == 0 or traced):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    print(f"workload {args.workload}, seed {args.seed}: {pass_index} passes, "
          f"{attempted} runs, {failed} failed, fail_ratio = {failed / attempted:.4f}")
    print("  pass walls (s): " + ", ".join(f"{w:.3f}" for w in walls))
    for name, seconds in per_run.items():
        print(f"  run {name}: median {statistics.median(seconds):.4f} s over {len(seconds)}")

    if args.trace == 0:
        metrics = {"wall_s": statistics.median(walls),
                   "setup_s": statistics.median(setup_times),
                   "peak_rss_mb": peak_rss_mb}
        units = dict(END_TO_END)
    else:
        # every per-layer number comes from one traced pass, the median
        # one, so its self times add up to its wall time
        median_pass = sorted(range(len(traced_walls)), key=traced_walls.__getitem__)[
            (len(traced_walls) - 1) // 2]
        metrics = dict(layer_rows[median_pass])
        metrics["trace.wall_s"] = traced_walls[median_pass]
        metrics["trace.untraced_wall_s"] = statistics.median(walls)
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
        units = dict(PER_LAYER)
        print("  traced pass walls (s): " + ", ".join(f"{w:.3f}" for w in traced_walls))
        report_trace(metrics, all_records[median_pass])
        (work / "trace.json").write_text(json.dumps(
            {"env": env, "passes": all_records}), encoding="utf-8")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:>16.6g} {unit}")
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    (work / "result.json").write_text(json.dumps({**result, "env": env}), encoding="utf-8")
    print(json.dumps(result))
    return 0


def report_trace(metrics: dict, records: list):
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print(f"self times: layers {layer_sum - metrics['harness.self_s']:.4f} s + harness "
          f"{metrics['harness.self_s']:.4f} s = {layer_sum:.4f} s; "
          f"traced wall {metrics['trace.wall_s']:.4f} s")
    totals = {}
    for r in records:
        totals[r["name"]] = totals.get(r["name"], 0.0) + r["self"]
    for name, s in sorted(totals.items(), key=lambda kv: -kv[1])[:6]:
        print(f"  self {name:44s} {s:.4f} s")
    for row, traced, ref, unit in baseline_rows(records):
        if traced is None:
            print(f"  baseline {row}: not run by this workload (ROADMAP {ref:g} {unit})")
        else:
            print(f"  baseline {row}: traced {traced:.1f} {unit}, ROADMAP {ref:g} {unit} "
                  f"(x{traced / ref:.2f})")


if __name__ == "__main__":
    sys.exit(main())
