"""One workload in one fresh process; started by run.py.

Protocol: the worker prints ``ready`` once rarehit, numpy and scipy are
imported and the job list is built, then reads one line from stdin.  On
``go`` it runs the workload and prints one JSON line; on anything else it
exits.  Jobs run one after another, with no thread pool.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import gate
import jobs as joblists
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REF_MATRIX = np.full((26, 26), 1.0 / 26)
REF_ARRAY = np.linspace(0.0, 1.0, 250_000)


def import_rarehit():
    """Import rarehit from this checkout's sources, never from elsewhere."""
    pkg = SRC / "rarehit"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"perfbench: no rarehit sources at {pkg}")
    sys.path.insert(0, str(SRC))
    import numpy  # noqa: F401
    import scipy  # noqa: F401
    import rarehit
    if Path(rarehit.__file__).resolve().parent != pkg:
        sys.exit(f"perfbench: imported rarehit from {rarehit.__file__}, not {pkg}")
    return rarehit


def run_job(job, out_path: str):
    """Exit code of a CLI job, or the value of a library job."""
    from rarehit import cli, exact, mc, targets
    if job.argv is not None:
        return cli.main([*job.argv, "--out", out_path])
    if job.kind == "kac":
        return exact.return_expectation(*gate.parsed(job))
    # Monte Carlo on the implicit Hamming-ball predicate "hamming:<center>:<D>".
    model = cli.parse_model(job.model)
    _, center, D = job.target.split(":")
    pred = targets.hamming_predicate([int(s) for s in center.split(",")], float(D),
                                     model.alphabet_size)
    p = job.params
    batch = mc.sample_hitting(model, pred, p["N"], p["seed"], censor_cap=p["cap"])
    with open(out_path, "w") as fp:
        mc.write_batch_csv(fp, batch)
    return batch


def run_one(job, out_path: Path):
    """Seconds taken and outcome: an exit code, a value or the exception."""
    t0 = time.perf_counter()
    try:
        outcome = run_job(job, str(out_path))
    except Exception as e:  # a failed job is counted by the gate
        outcome = e
    return time.perf_counter() - t0, outcome


def run_pass(jobs, outdir: Path, tracer=None):
    """Run every job once; return (wall seconds, outcomes)."""
    outcomes = []
    start = time.perf_counter()
    for i, job in enumerate(jobs):
        with tracer.span("job", job=job.name) if tracer else nullcontext():
            outcomes.append(run_one(job, outdir / f"{i:02d}.out")[1])
    return time.perf_counter() - start, outcomes


def reference_loop() -> float:
    """Seconds taken by a fixed loop of some 15 ms that mixes the kinds of
    work the jobs do: interpreter steps, small numpy products and a pass over
    a 2 MB array.  It gives the host's speed at this moment."""
    t0 = time.perf_counter()
    x = 0
    for i in range(60_000):
        x += i * i % 7
    counts = {}
    for i in range(6_000):
        counts[i & 255] = counts.get(i & 255, 0) + 1
    v = np.ones(26)
    for _ in range(1_500):
        v = REF_MATRIX @ v
        v.sum()
    for _ in range(6):
        (REF_ARRAY * 1.0001).sum()
    return time.perf_counter() - t0


def run_window(jobs, outdir: Path, seconds: float):
    """Run the job list round-robin, one job at a time, while the next job
    (at its last time) still ends within ``seconds``; every job runs at
    least once.  The reference loop runs before the first job and after
    each one.  Returns per-job lists of times, of the mean of the two
    reference times around each run, and of outcomes, and the peak RSS
    after the first pass."""
    times = [[] for _ in jobs]
    refs = [[] for _ in jobs]
    outcomes = [[] for _ in jobs]
    ref = reference_loop()
    start = time.perf_counter()
    for n in itertools.count():
        i = n % len(jobs)
        if n == len(jobs):
            # The same job set every run, however many repeats fit after it.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if n >= len(jobs) and time.perf_counter() - start + times[i][-1] > seconds:
            return times, refs, outcomes, peak_rss_mb
        t, outcome = run_one(jobs[i], outdir / f"{i:02d}.out")
        after = reference_loop()
        times[i].append(t)
        refs[i].append((ref + after) / 2)
        outcomes[i].append(outcome)
        ref = after


def mc_symbols(job, out_path) -> int:
    """Symbols a batch drew: its times, plus window 0 of each hitting scan."""
    times, _ = gate.mc_samples(out_path)
    if job.params["mc_kind"] != "hitting":
        return int(times.sum())
    return int(times.sum()) + gate.parsed(job)[1].n * job.params["N"]


def calibrate() -> float:
    """Median time of a fixed loop of small numpy products: a drift probe
    for the host, on the scale of the tail engine's per-step work."""
    times = []
    for _ in range(5):
        v = np.ones(26)
        t0 = time.perf_counter()
        for _ in range(10_000):
            v = REF_MATRIX @ v
            v.sum()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def metadata(args, rarehit) -> dict:
    import numpy
    import scipy
    src = hashlib.sha256()
    for path in sorted((SRC / "rarehit").glob("*.py")):
        src.update(path.read_bytes())
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.split()
        commit = commit if Path(top).resolve() == ROOT else None
    except (OSError, subprocess.SubprocessError, ValueError):
        commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "rarehit": rarehit.__version__,
    }


def measure(args, jobs, outdir: Path) -> dict:
    calib_s = calibrate()
    times, refs, outcomes, peak_rss_mb = run_window(jobs, outdir, args.seconds)
    job_s = [statistics.mean(t) for t in times]
    wall_s = sum(job_s)
    # The host's speed swings by up to 2x for seconds to minutes at a time,
    # and the job and the reference loop beside it slow down alike: their
    # ratio is steady where the seconds are not.
    wall_ref = sum(sum(t) / sum(r) for t, r in zip(times, refs))
    ref_s = statistics.median(itertools.chain(*refs))
    metrics = {"wall_ref": wall_ref, "peak_rss_mb": peak_rss_mb}
    spans = None
    if args.trace:
        tracer = tracing.Tracer()
        with tracer.installed():
            traced_wall, traced = run_pass(jobs, outdir, tracer)
        for outs, o in zip(outcomes, traced):
            outs.append(o)
        spans = tracer.spans
        kind_s = {k: sum(s for j, s in zip(jobs, job_s) if j.kind == k) for k in joblists.KINDS}
        symbols = sum(mc_symbols(j, outdir / f"{i:02d}.out")
                      for i, j in enumerate(jobs) if j.kind == "mc")
        metrics = {f"job.{k}_s": v for k, v in kind_s.items()}
        metrics["job.mc_symbols_per_s"] = symbols / kind_s["mc"] if kind_s["mc"] else 0.0
        metrics.update({"trace.wall_s": traced_wall, "trace.overhead_s": traced_wall - wall_s,
                        "host.wall_s": wall_s, "host.ref_s": ref_s, "host.calib_s": calib_s})
        metrics.update(tracing.per_layer(spans))

    reference = gate.load_reference()
    failures = {}
    for i, job in enumerate(jobs):
        why = gate.check(job, outcomes[i][-1], outdir / f"{i:02d}.out", reference, args.seed)
        # Every run of a job must end as the gated last one did.
        exits = {o for o in outcomes[i] if isinstance(o, int)}
        if why is None and len(exits) > 1:
            why = f"exit codes differ between runs: {sorted(exits)}"
        if why is not None:
            failures[job.name] = why
    if args.trace:
        metrics["job.fail_frac"] = len(failures) / len(jobs)
    hard = {j.name for j in jobs if j.hard}
    return {
        "correct": set(failures) <= hard, "attempted": len(jobs), "failed": len(failures),
        "metrics": metrics, "failures": failures, "wall_s": wall_s, "job_times": times,
        "ref_times": refs, "calib_s": calib_s, "spans": spans,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--small", action="store_true")
    args = ap.parse_args(argv)

    rarehit = import_rarehit()
    jobs = joblists.workload(args.workload, args.seed, args.small)
    OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="jobs-", dir=OUT))
    proto = sys.stdout
    sys.stdout = sys.stderr  # only protocol lines go to the real stdout
    try:
        print("ready", file=proto, flush=True)
        if sys.stdin.readline().strip() != "go":
            return 0
        result = measure(args, jobs, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    spans = result.pop("spans")
    result["meta"] = metadata(args, rarehit) | {
        key: result.pop(key) for key in ("wall_s", "job_times", "ref_times", "calib_s")}
    if spans is not None:
        path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({"meta": result["meta"], "spans": spans}))
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
