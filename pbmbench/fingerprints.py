"""Record the SHA-256 of each workload's generated inputs for seeds 0..N.

    python3 pbmbench/fingerprints.py 20

rewrites ``pbmbench/fingerprints.json``.  ``run.py`` refuses to run a
recorded seed whose inputs hash differently, so a change to the
generators cannot pass unnoticed; rerun this only for a deliberate change
to the workloads, and say so where the change is described.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[0] = ROOT

from pbmbench import workloads  # noqa: E402


def main() -> int:
    last = int(sys.argv[1])
    workdir = os.path.join(ROOT, ".pbmbench", f"fingerprints-{os.getpid()}")
    table: dict[str, dict[str, str]] = {}
    try:
        for name in workloads.WORKLOADS:
            table[name] = {}
            for seed in range(last + 1):
                os.makedirs(workdir)
                table[name][str(seed)] = workloads.build(name, seed, workdir)[1]
                shutil.rmtree(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(ROOT, "pbmbench", "fingerprints.json"), "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
