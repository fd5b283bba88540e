"""Golden digests of small CLI runs.

The oracle digests were recorded before the oracle stepped all path blocks
in one array. They pin the per-block random streams: any change to the
draws of a block, their order, or the stepping arithmetic changes a digest.

The solver digests were recorded before the degenerate models were
described by their conservation laws. Each is the SHA-256 of every CSV a
run writes, in name order, each file as its name, a newline and its body.
They cover every kimura and sis mode, the interior stepper, a tabulated
drift, both eigensolver paths and a prescribed moment.

The validate digest pins ``report.csv`` of a small seeded kimura run
checked against a small seeded oracle run.

A change that alters a digest on purpose must say which digest, why, and
the largest numeric change.
"""

import hashlib

import pytest

from conspar.cli import main

GOLDEN = {
    # 4096 + 4096 + 808 paths: two full blocks and a partial last one
    "kimura-three-blocks": (
        ["oracle", "--psi", "1-2*x", "--replicates", "9000", "--dt", "5e-4",
         "--T", "2", "--times", "0,0.5,2", "--seed", "11"],
        "c6163bea0e1cd3c3b62fc262db9428201d752009860082a1470acf875ec6b69d",
    ),
    # started next to x = 1, so many steps reflect there
    "sis-reflecting": (
        ["oracle", "--model", "sis", "--x0", "0.99", "--replicates", "5000",
         "--dt", "2.5e-4", "--T", "1", "--times", "0.25,1", "--seed", "12"],
        "db71f766ec3074a0a7ae5751299ef227317ec01cc5386b2f68a28c6badf9b914",
    ),
}

# 1 - 2x on 21 nodes with a fixed perturbation, so the drift is a linear
# interpolant (flux-form masses unavailable)
PSI_TABLE = "x,value\n" + "".join(
    f"{i / 20!r},{1.0 - 2.0 * (i / 20) + 0.05 * (-1) ** i!r}\n" for i in range(21)
)

# kimura-plot, kimura-delta, kimura-table, sis-plot and the validate
# digest were re-recorded when the modal interior solve began evolving
# each mode by exp(lambda t) instead of the time scheme's rational
# factors (n = 101, dt = min(h, T/2000)): densities moved by at most
# 2.3e-5, masses by at most 2.3e-5 (kimura-delta at t = 1), sis-plot by
# at most 4.7e-6, and the validate report's atoms by at most 7.1e-7.
# The same five, kimura-stepper and the validate digest were re-recorded
# when the interior flux became K_i (v_{i+1} - v_i) in v = g r / p, with
# K the regularized operator's harmonic mean of p: kimura-plot moved by at
# most 6.6e-6, kimura-table by 9.2e-6, sis-plot by 1.2e-5 (masses 1.1e-5),
# kimura-stepper's densities by 4.2e-3 of a 4.45 peak and its masses by
# 2.7e-4; the psi = 0 runs (kimura-delta, validate) by at most 1.6e-13,
# the rounding of K_i = 1/int 1 by doubling Simpson against 1/h.
# kimura-plot, kimura-delta, kimura-table, sis-plot and the validate digest
# were re-recorded when the modal solve began keeping only the modes alive
# at the first positive snapshot (5 of Kimura's 99 unknowns, or 49 for
# validate; 3 of SIS's 100), with Rayleigh-quotient eigenvalues and the
# trace integrals from one banded solve: kimura-plot moved by at most
# 2.6e-14, kimura-delta by 2.1e-14, kimura-table by 3.3e-14, sis-plot by
# 2.6e-13 (masses; densities 5.9e-14), and the validate report's atoms by
# 7.8e-16 (its z-scores by 7.8e-14).
# The same five were re-recorded when the modal solve began taking its
# modes from the eigensolver the regularized solves use (here, below its
# n >= 256 crossover, dense LAPACK on -B with Rayleigh quotients, in place
# of subset MRRR): kimura-plot moved by at most 2.1e-14, kimura-delta
# by 1.7e-14, kimura-table by 1.6e-14, sis-plot by 3.6e-14, and the
# validate report's atoms by 1.0e-15 (its z-scores by 9.2e-14).
# The same five were re-recorded when corner-free modal solves began
# taking LAPACK's tridiagonal drivers (here subset MRRR, its vectors
# orthonormalized by QR before the Rayleigh-Ritz step, in place of dense
# LAPACK with Rayleigh quotients): kimura-plot moved by at most 2.7e-15,
# kimura-delta by 1.3e-14, kimura-table by 1.6e-14, sis-plot by 6.3e-14
# (masses 1.8e-14), and the validate report's atoms by 3.3e-16 (its
# z-scores by 3.1e-14).
# The same five were re-recorded when the interior began taking its modes
# through count_below, eigensolve and evolve on the fold of the eps = 0
# operator (mass cell p / g, the absorbing ends dropped), in place of its
# own symmetrized generator: kimura-plot moved by at most 1.3e-14
# (masses 1.1e-14), kimura-delta by 1.1e-14, kimura-table by 8.2e-15,
# sis-plot by 1.6e-13 (masses 2.3e-14), and the validate report's atoms
# by 1.0e-15 (its z-scores by 9.2e-14)
SOLVER_GOLDEN = {
    "kimura-plot": (
        ["kimura", "--n", "101", "--psi", "1-2*x", "--emit_plot_data", "true"],
        "2a35bfa6e63dd9cdeab1bd93a5a27ce525be93d64307b0af04067e57bcc5db5e",
    ),
    "kimura-delta": (
        ["kimura", "--n", "101", "--u0", "delta:0.3", "--T", "20", "--times", "1,5,20"],
        "a1799e93a66c94b4261a7c22c7688c50f201af7a23f73b0eb56d5cf5fbabcfe9",
    ),
    # these two and sis-regularized were re-recorded when the regularized
    # solves began computing only the modes alive at the first positive
    # snapshot (16 of 101, a dense subset) and taking t = 0 from the data:
    # at t > 0 densities moved by at most 3.4e-10 (9.5e-11 relative) and
    # masses by at most 2.8e-11; t = 0 rows by at most 6.5e-14
    "kimura-regularized": (
        ["kimura", "--n", "101", "--psi", "1-2*x", "--mode", "regularized"],
        "eab4406734c2545101fea9141762fda9f9b00fb839a3aaf22178b89ad4d57b36",
    ),
    "kimura-ladder": (
        ["kimura", "--n", "101", "--mode", "ladder"],
        "f2bed2544d18d008c0d13ac298dda808bb26532e7e99faddf303a2b059ec529a",
    ),
    "kimura-table": (
        ["kimura", "--n", "101", "--psi_table", "{table}"],
        "82ecfc8edb215b76a0722198c063995237e85b51fc38c1d09356bd365ed0b9d4",
    ),
    # symmetrizing scale spread 12.96 > 11: the time stepper runs
    "kimura-stepper": (
        ["kimura", "--n", "201", "--psi", "25", "--T", "0.5", "--times", "0,0.1,0.5"],
        "92a402a6a79cb46b1dc74184f42379cef22724a03692b8ca28cf0eda719f4ff4",
    ),
    "sis-plot": (
        ["sis", "--n", "101", "--emit_plot_data", "true"],
        "529231885aacda3def738849644c44d15179cfa52dc5d8b29c33a01fc7567947",
    ),
    # re-recorded when the zero-flux end x = 1 stopped giving up a half-cell
    # atom that the run then dropped: r at x = 1 moved by at most 4.1e-6
    # (1.0e-5 relative), interior and total mass by at most 2.0e-8. Re-recorded
    # when its fold, which has no corner, began taking subset MRRR for its
    # 16 modes in place of dense LAPACK: densities moved by at most 2.2e-10
    # (1.5e-11 relative), masses by at most 1.5e-11. Re-recorded when subset
    # MRRR's pairs began taking the QR and Rayleigh-Ritz step in
    # eigensolve: densities moved by at most 1.5e-12 (1.0e-13 relative),
    # masses by at most 1.2e-13
    "sis-regularized": (
        ["sis", "--n", "101", "--mode", "regularized"],
        "cf80cbf4225bff929b55471c3a6fe3b21aac3871b7e86c249f6c578fef88f7fc",
    ),
    # was spectrum-dense: re-recorded when spectrum began taking its
    # eigenvalues from the band form of the folded operator in place of
    # dense LAPACK: lambda moved by at most 1.1e-11 (the zero pair by
    # 7.7e-12). Both spectrum digests were re-recorded when eigenvalues.csv
    # dropped its bc_residual column, which was zero by construction; the
    # k and lambda columns are byte-identical. spectrum-shift-invert was
    # re-recorded when shift-invert bases began taking one Rayleigh-Ritz
    # step in eigensolve: lambda moved by at most 1.1e-12 (4.4e-15 relative)
    "spectrum-band": (
        ["spectrum", "--n", "101", "--k", "6"],
        "9965f8008627afbe71809137077ddab2d4ff98a2cc591fcda6cddcf6c074dfc2",
    ),
    "spectrum-shift-invert": (
        ["spectrum", "--n", "301", "--k", "6"],
        "8ca7eab33f063a23e6a7e8087a874bd81e6b9f5b61e73717c599fb4fbfb6b5d5",
    ),
    "moments-sin": (
        ["moments", "--n", "101", "--F1", "1+sin(t)"],
        "3a5486940604887390147926a294dc9b53628d1ad40b5961d1df8b777109f20f",
    ),
}

# the two runs validate compares, by output directory
VALIDATE_RUNS = {
    "pde": ["kimura", "--n", "51", "--u0", "delta:0.3", "--T", "5", "--times", "1,5"],
    "mc": ["oracle", "--x0", "0.3", "--T", "5", "--times", "1,5", "--dt", "5e-4",
           "--replicates", "2000", "--seed", "4"],
}
VALIDATE_DIGEST = "58075d752c8a8348badd24d371a685e916f666d02e81624a3cf938d068e35c01"

# manifest lines a solver golden must also carry
MANIFEST_LINES = {"kimura-stepper": ["diag.interior_method = stepper"]}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_oracle_csv_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    body = (tmp_path / "oracle.csv").read_bytes()
    assert hashlib.sha256(body).hexdigest() == digest


def csv_digest(outdir) -> str:
    """SHA-256 over every CSV in ``outdir``: name, newline, body, by name."""
    sha = hashlib.sha256()
    for path in sorted(outdir.glob("*.csv")):
        sha.update(path.name.encode("utf-8") + b"\n" + path.read_bytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(SOLVER_GOLDEN))
def test_solver_csv_digest(name, tmp_path):
    argv, digest = SOLVER_GOLDEN[name]
    table = tmp_path / "psi_table.csv"
    table.write_text(PSI_TABLE, encoding="utf-8")
    out = tmp_path / "out"
    argv = [a.replace("{table}", str(table)) for a in argv]
    assert main(argv + ["--out", str(out)]) == 0
    assert csv_digest(out) == digest
    manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
    for line in MANIFEST_LINES.get(name, ()):
        assert line in manifest


def test_validate_report_digest(tmp_path):
    for name, argv in VALIDATE_RUNS.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
    rep = tmp_path / "rep"
    argv = ["validate", "--pde", str(tmp_path / "pde"), "--oracle", str(tmp_path / "mc")]
    assert main(argv + ["--out", str(rep)]) == 0
    assert hashlib.sha256((rep / "report.csv").read_bytes()).hexdigest() == VALIDATE_DIGEST
