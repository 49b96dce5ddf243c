"""Write reference.json, the values the correctness gate compares against.

    python3 perfbench/record.py

Runs the full and the small job list of every workload once at seed
``SEED`` and stores lambda, s and sup_dev of the exact jobs and the SHA-256
of each Monte Carlo output.  Re-record only for a change that is meant to
alter these results, and say so where the change is described.
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import gate
import jobs
import worker

SEED = 0


def main() -> int:
    worker.import_rarehit()
    worker.OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="record-", dir=worker.OUT))
    recorded = {}
    try:
        for name in jobs.WORKLOADS:
            for small in (False, True):
                joblist = jobs.workload(name, SEED, small)
                _, outcomes = worker.run_pass(joblist, outdir)
                for i, (job, outcome) in enumerate(zip(joblist, outcomes)):
                    if job.hard:
                        continue
                    if isinstance(outcome, BaseException) or (job.argv and outcome != 0):
                        sys.exit(f"record: {job.name} failed: {outcome!r}")
                    values = gate.observed(job, outdir / f"{i:02d}.out")
                    if values:
                        recorded[job.name] = values
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    gate.REFERENCE.write_text(json.dumps({"seed": SEED, "jobs": recorded}, indent=1,
                                         sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
