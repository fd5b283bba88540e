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

SOLVER_GOLDEN = {
    "kimura-plot": (
        ["kimura", "--n", "101", "--psi", "1-2*x", "--emit_plot_data", "true"],
        "1878bb493bf9c4939da4059d6c426e12986fbebac8df12acf3d007bdd3532f83",
    ),
    "kimura-delta": (
        ["kimura", "--n", "101", "--u0", "delta:0.3", "--T", "20", "--times", "1,5,20"],
        "626a491767e32b5e6bb3d47cd487cdb93e67dcaafb303a2606cb7874a4794f80",
    ),
    "kimura-regularized": (
        ["kimura", "--n", "101", "--psi", "1-2*x", "--mode", "regularized"],
        "1f69e13918271ab4e0bd0b3a09deff3a1c5de96e27808d079f6162f3c0d0a04e",
    ),
    "kimura-ladder": (
        ["kimura", "--n", "101", "--mode", "ladder"],
        "ff9e477311217ffa6656b3e475981776a8a1b027cccbab621576c636e1874605",
    ),
    "kimura-table": (
        ["kimura", "--n", "101", "--psi_table", "{table}"],
        "f198f273260b317d4592bdacdff955e5ac8d4375c6d647f360257d294ad4d0da",
    ),
    # symmetrizing scale spread 12.97 > 11: the time stepper runs
    "kimura-stepper": (
        ["kimura", "--n", "201", "--psi", "25", "--T", "0.5", "--times", "0,0.1,0.5"],
        "18ca0cdd151c7a8c16aed446184193b4283f7522414f53c1c557524227cfcc48",
    ),
    "sis-plot": (
        ["sis", "--n", "101", "--emit_plot_data", "true"],
        "3fbc8306a7a2b97fbc457e7ebb2bda2d94d086b1c1b16e05fa5d6deb209ae1e2",
    ),
    "sis-regularized": (
        ["sis", "--n", "101", "--mode", "regularized"],
        "fa9d24dfe9a6a2bad86fd51da72724e737f8b72b451d143cca74adbfd62e7207",
    ),
    "spectrum-dense": (
        ["spectrum", "--n", "101", "--k", "6"],
        "15a97967b87630473bc78cc030258a9bd3c0634815ba493dd33740d7a4f2a54c",
    ),
    "spectrum-shift-invert": (
        ["spectrum", "--n", "301", "--k", "6"],
        "26824f86bb2c7e26735915abdc8883303e8e1de928a5d7ef07f56efc37e123a8",
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
VALIDATE_DIGEST = "7accb4c27380569d721d3877ba1af25a8201bfe51377cbd4b63b22fdb933c644"

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
