#!/usr/bin/env python3
"""Self-test of the benchmark: traced runs are correct and count rank calls.

    python3 perfbench/selftest.py [WORKLOAD ...]    (default: every workload)

For each workload, makes one traced run (`run.py --trace 1`) and asserts
that it is correct and that it recorded rank calls.  A traced run is
correct only if every CLI run matches its golden and every exact count
(`*.calls`, `exactq.rref.nnz_in`, `max_rows`/`max_cols`,
`gca.basis_of_degree.hits`/`misses`, the repeat ratios) is identical
across its traced iterations, each made in fresh processes.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402

SEED = 7


def main(workloads):
    for workload in workloads or sorted(run.WORKLOADS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload,
             "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
            cwd=run.ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
        result = json.loads(out.splitlines()[-1])
        assert result["correct"], "%s: traced run is not correct:\n%s" % (workload, out)
        assert result["metrics"]["exactq.rref.calls"]["value"] > 0, workload
        print("%s: %d exact counts repeat" % (workload, len(run.EXACT)))


if __name__ == "__main__":
    main(sys.argv[1:])
