"""Golden digests of small seeded oracle runs.

The digests were recorded before the oracle stepped all path blocks in
one array. They pin the per-block random streams: any change to the draws
of a block, their order, or the stepping arithmetic changes a digest. A
change that alters one on purpose must say which digest, why, and the
largest numeric change.
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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_oracle_csv_digest(name, tmp_path):
    argv, digest = GOLDEN[name]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    body = (tmp_path / "oracle.csv").read_bytes()
    assert hashlib.sha256(body).hexdigest() == digest
