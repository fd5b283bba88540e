"""Workload definitions: seeded inputs, CLI runs and their output checks.

A workload is a list of CLI runs made in order, one pass. Each run is the
argument list a user would give ``conspar`` plus the checks the benchmark
applies to what the run wrote. Inputs come from the workload seed only,
so the same seed gives the same runs. This module imports nothing from
numpy, so the set-up probe can load it before its timer starts.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("spectral", "degenerate", "crosscheck")

# lambda_3..lambda_6 of the heat problem (p = 1, q = 0, laws 1 and x) at
# n = 1601, as `spectrum --n 1601 --k 6` printed them when this benchmark
# was written.
# The all-modes run agrees with these to 1.4e-11 relative.
HEAT_LAMBDA_3_TO_6 = (
    39.47836687042159,
    80.76265983571,
    157.91285867734246,
    238.7160844278999,
)
HEAT_RTOL = 1e-9


@dataclass
class Run:
    """One CLI invocation and the checks on its output directory."""

    name: str
    args: list  # command and flags; "{dir}" stands for the pass directory
    checks: list = field(default_factory=list)  # callables: Path -> problem or None
    # Exit 2 (a refused config) is a known failure of this run: it counts as
    # failed but not as wrong. Any other non-zero exit of any run is wrong.
    known_refusal: bool = False

    def argv(self, pass_dir: Path) -> list:
        args = [a.replace("{dir}", str(pass_dir)) for a in self.args]
        return [*args, "--out", str(pass_dir / self.name)]


def _rows(path: Path) -> list:
    with path.open(newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def manifest_failures(out: Path) -> list:
    """Names of the manifest ``check:`` lines that did not pass."""
    manifest = out / "manifest.txt"
    if not manifest.is_file():
        return ["manifest.txt missing"]
    failed = []
    for line in manifest.read_text(encoding="utf-8").splitlines():
        if line.startswith("check: ") and not line.endswith("[pass]"):
            failed.append(line[len("check: "):])
    return failed


def _heat_eigenvalues(out: Path):
    lam = [row["lambda"] for row in _rows(out / "eigenvalues.csv")]
    for i, ref in enumerate(HEAT_LAMBDA_3_TO_6, start=3):
        got = lam[i - 1]
        if abs(got - ref) > HEAT_RTOL * abs(ref):
            return f"lambda_{i} = {got!r}, reference {ref!r}"
    return None


def _neutral_atoms_at_50(out: Path):
    last = _rows(out / "masses.csv")[-1]
    if last["t"] != 50.0:
        return f"last snapshot at t = {last['t']}, expected 50"
    if abs(last["atom0"] - 0.5) > 1e-3 or abs(last["atom1"] - 0.5) > 1e-3:
        return f"atoms ({last['atom0']}, {last['atom1']}) not within 1e-3 of (0.5, 0.5)"
    return None


def _oracle_fixation(out: Path):
    row = next((r for r in _rows(out / "oracle.csv") if r["t"] == 20.0), None)
    if row is None:
        return "no oracle snapshot at t = 20"
    z = abs(row["mass1"] - 0.3) / row["se_mass1"]
    if z > 4.0:
        return f"mass1 = {row['mass1']} is {z:.2f} standard errors from 0.3"
    return None


def psi_table(seed: int, pass_index: int) -> list:
    """21 nodes on [0, 1] of 1 - 2x plus Gaussian noise (sd 0.05)."""
    rng = random.Random(f"psi-{seed}-{pass_index}")
    return [(i / 20, 1.0 - 2.0 * (i / 20) + rng.gauss(0.0, 0.05)) for i in range(21)]


def oracle_seeds(seed: int, pass_index: int) -> tuple:
    """The two oracle ``--seed`` values of one pass."""
    rng = random.Random(f"oracle-{seed}-{pass_index}")
    return rng.randrange(2**31), rng.randrange(2**31)


def make_runs(workload: str, seed: int, pass_index: int, pass_dir: Path) -> list:
    """Write one pass's inputs under ``pass_dir``; return the pass's runs.

    Inputs depend on the workload seed and the pass index. Each pass of a
    run draws new ones because the oracle's run time depends on its seed
    (a block steps until its last path is absorbed), so a run that
    averages over several oracle seeds varies less from seed to seed.
    """
    if workload == "spectral":
        heat = [_heat_eigenvalues]
        return [
            Run("spectrum-k6", ["spectrum", "--n", "1601", "--k", "6"], heat),
            Run("spectrum-all", ["spectrum", "--n", "1601", "--k", "1601"], heat),
            Run("moments-sin", ["moments", "--F1", "1+sin(t)"]),
            # Exited 2 when this benchmark was written (one-sided derivative of an
            # expression field at the endpoints); kept so it counts as failed.
            Run("spectrum-varcoef", ["spectrum", "--p", "1+x", "--law2", "log(1+x)"],
                known_refusal=True),
        ]
    if workload == "degenerate":
        table = pass_dir / "psi_table.csv"
        table.write_text(
            "x,value\n" + "".join(f"{x!r},{v!r}\n" for x, v in psi_table(seed, pass_index)),
            encoding="utf-8",
        )
        return [
            Run("kimura-default", ["kimura"], [_neutral_atoms_at_50]),
            Run("kimura-plot", ["kimura", "--psi", "1-2*x", "--emit_plot_data", "true"]),
            Run("kimura-table", ["kimura", "--psi_table", str(table)]),
            Run("sis-default", ["sis"]),
            Run("kimura-ladder", ["kimura", "--mode", "ladder"]),
        ]
    if workload == "crosscheck":
        kimura_seed, sis_seed = oracle_seeds(seed, pass_index)
        return [
            Run("oracle-kimura", ["oracle", "--seed", str(kimura_seed)], [_oracle_fixation]),
            Run(
                "oracle-sis",
                ["oracle", "--model", "sis", "--T", "2", "--times", "0.5,1,2",
                 "--replicates", "4096", "--seed", str(sis_seed)],
            ),
            Run("kimura-delta", ["kimura", "--u0", "delta:0.3", "--T", "20", "--times", "1,5,20"]),
            # 4 standard errors, not the default 3: at 3, sampling noise alone
            # fails 0.27% of comparisons, six per run, so some of the many
            # seeds the benchmark is run on would fail with no defect behind it.
            Run(
                "validate",
                ["validate", "--pde", "{dir}/kimura-delta",
                 "--oracle", "{dir}/oracle-kimura", "--se_limit", "4"],
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def minimal_runs(workload: str) -> list:
    """The smallest accepted config of each command the workload uses.

    These are what every invocation pays before real work: imports, the
    first LAPACK call, the first writes.
    """
    if workload == "spectral":
        return [
            Run("spectrum", ["spectrum", "--n", "5", "--k", "1"]),
            Run("moments", ["moments", "--n", "5", "--T", "0.001", "--times", "0,0.001"]),
        ]
    if workload == "degenerate":
        return [
            Run("kimura", ["kimura", "--n", "5", "--T", "0.001", "--times", "0,0.001"]),
            Run("sis", ["sis", "--n", "5", "--T", "5", "--times", "5"]),
        ]
    if workload == "crosscheck":
        return [
            Run("oracle", ["oracle", "--replicates", "1", "--T", "0.001", "--times", "0"]),
            Run("kimura", ["kimura", "--n", "5", "--T", "0.001", "--times", "0"]),
            Run("validate", ["validate", "--pde", "{dir}/kimura", "--oracle", "{dir}/oracle"]),
        ]
    raise ValueError(f"unknown workload {workload!r}")


def call_cli(cli, argv) -> tuple:
    """Run ``cli.main(argv)`` as one CLI invocation; returns (exit code,
    captured stderr). ``main`` is looked up at call time, so a traced
    wrapper installed on the module is the one called."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()
