"""Record the default seed's artifacts into expected.json.

    python3 perfbench/record_expected.py

Runs the first RECORDED_JOBS jobs of every workload at run.DEFAULT_SEED and
stores the SHA-256 digest of each exact artifact and the parsed gup.json
documents.  Plain and traced runs at the default seed then check their
artifacts against these records as well as against reference.py.  Record
only at a commit whose artifacts are known good: every job must pass the
reference gate, or nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys

import inputs
import run

RECORDED_JOBS = 8


def main() -> int:
    work = run.ROOT / ".perfbench_run" / "record"
    work.mkdir(parents=True, exist_ok=True)
    expected = {}
    try:
        for workload in sorted(inputs.GENERATORS):
            result, _ = run.spawn(workload, run.DEFAULT_SEED, "plain", work, workload,
                                  jobs=RECORDED_JOBS)
            for k, job in enumerate(result["jobs"]):
                if job["failures"]:
                    print(f"{workload} job {k} failed: {job['failures']}", file=sys.stderr)
                    return 1
            expected[workload] = [{"digests": job["digests"], "docs": job["docs"]}
                                  for job in result["jobs"]]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    run.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {run.EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
