"""Time one fresh invocation's set-up cost for a workload.

Usage: python3 setup_probe.py <workload> <seed> <work dir> <src dir>

Measures from just before ``import conspar.cli`` until the workload's
seeded inputs are written and the smallest accepted config of each
command it uses has returned. Prints {"setup_s": ..., "exit_codes": [...]}.
"""

import json
import sys
import time
from pathlib import Path

from workloads import call_cli, make_runs, minimal_runs


def main(argv):
    workload, seed, work, src = argv[0], int(argv[1]), Path(argv[2]), argv[3]
    work.mkdir(parents=True, exist_ok=True)
    sys.path.insert(0, src)
    started = time.perf_counter()
    import conspar.cli

    make_runs(workload, seed, 0, work)
    codes = [call_cli(conspar.cli, run.argv(work))[0] for run in minimal_runs(workload)]
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed, "exit_codes": codes}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
