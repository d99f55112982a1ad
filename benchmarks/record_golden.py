"""Record the check_large report digests that later runs must reproduce.

Run from the root of a checkout, on the commit whose reports are the
reference:

    python3 benchmarks/record_golden.py --seeds 100
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import run
import workloads


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=100, help="record seeds 0..N-1")
    args = parser.parse_args()
    pkg = run.import_package(run.locate_package(Path.cwd()))
    digests = {}
    for seed in range(args.seeds):
        digests[str(seed)] = [
            workloads.report_digest(workloads.run_check(pkg.cli, argv)[1])
            for argv in workloads.check_large_inputs(seed)
        ]
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in digests.items())
    with open(workloads.GOLDEN_PATH, "w") as f:
        f.write('{"digests": {\n' + lines + "\n}}\n")


if __name__ == "__main__":
    main()
