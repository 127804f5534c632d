"""Record the Monte Carlo error counts that the bit-identity report compares against.

Usage, from the repository root (takes a few minutes):

    python3 perfbench/record_seed0.py

For each Monte Carlo workload it runs the first jobs of workload seed 0 and
writes their error counts to ``perfbench/reference.json``.  A benchmark run
at seed 0 reports whether its counts still match them bit for bit.
"""

from __future__ import annotations

import json
import sys
import tempfile

import run
import workloads

SEED0_JOBS = 400


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import pooltest

    counts = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as workdir:
        for cls in (workloads.McSparse, workloads.McMap):
            workload = cls(pooltest, 0, workdir)
            workload.build()
            counts[cls.name] = [workload.prepare(j)().errors for j in range(SEED0_JOBS)]
    reference = {"seed0_jobs": SEED0_JOBS, "seed0_errors": counts}
    run.REFERENCE.write_text(json.dumps(reference) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
