"""rarehit benchmark: one workload per run, printed as one JSON line.

    python3 perfbench/run.py --workload cyl-exact --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; rarehit is imported from its ``src/``.
Workloads are listed in ``BENCHMARK.json`` with why each was chosen.

Set-up time is the median over ``SETUP_SAMPLES`` fresh worker processes of
the time from spawn until rarehit, numpy and scipy are imported and the job
list is built.  The last of them then runs the job list round-robin for about
``--seconds`` (every job at least once, one at a time), and the correctness
gate on the outputs.  ``wall_ref`` is the job list's time in multiples of a
fixed reference loop run between the jobs: per job, the sum of its run times
over the sum of the reference times around them.  The seconds themselves
(``host.wall_s``, the sum of per-job mean times) are in the traced run's
metrics and the metadata line.
BLAS threads are capped at the number of usable cores.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` times the job list the same way, then runs one traced pass and
reports the per-layer metrics.  The last line of stdout is the result; the
line before it holds the run's metadata.  Spans of a traced run are written
to ``.perfbench_out/``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 160


def start_worker(argv: list[str], env: dict) -> tuple[subprocess.Popen, float]:
    """Spawn a worker; return it with its set-up time."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], cwd=ROOT,
                            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: worker did not start (exit {proc.returncode})")
    return proc, setup_s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true",
                    help="shrunken job lists, for the self-test")
    args = ap.parse_args(argv)

    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    cores = str(len(os.sched_getaffinity(0)))
    env = dict(os.environ, OMP_NUM_THREADS=cores, OPENBLAS_NUM_THREADS=cores,
               MKL_NUM_THREADS=cores)
    wargv = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.small:
        wargv.append("--small")

    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup_s = start_worker(wargv, env)
        proc.communicate("stop\n", timeout=WORKER_TIMEOUT_S)
        setups.append(setup_s)
    proc, setup_s = start_worker(wargv, env)
    setups.append(setup_s)
    try:
        out, _ = proc.communicate("go\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.exit(f"perfbench: workload did not finish in {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not out.strip():
        sys.exit(f"perfbench: worker failed (exit {proc.returncode})")
    result = json.loads(out.strip().splitlines()[-1])

    values = dict(result["metrics"], setup_s=statistics.median(setups))
    meta = dict(result["meta"], setup_samples=setups, failures=result["failures"])
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
