"""Self-test of the benchmark on shrunken job lists.

    python3 perfbench/selftest.py

For every workload and both trace modes, runs ``run.py --small`` at the
recorded seed (Monte Carlo digests) and at another seed (KS against the exact
tail).  Checks that the last line of output holds exactly the result keys and
every metric of ``BENCHMARK.json`` by name and unit, that the gate judged
every job and that only the hard-regime job may fail.  Then checks that the
gate rejects corrupted outputs, and that the benchmark refuses to run, with
a non-zero exit, where the rarehit sources are missing.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import gate
import jobs
import worker

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = (0, 7)


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_result(spec: dict, workload: str, seed: int, trace: int) -> None:
    proc = run(ROOT, "--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--small")
    where = f"{workload} seed={seed} trace={trace}"
    if proc.returncode != 0:
        raise AssertionError(f"{where}: exit {proc.returncode}\n{proc.stderr}")
    *_, meta_line, last = proc.stdout.strip().splitlines()
    result, meta = json.loads(last), json.loads(meta_line)["meta"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{where}: result keys {sorted(result)}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        raise AssertionError(f"{where}: metrics {got} != {wanted}")
    for name, m in result["metrics"].items():
        if isinstance(m["value"], bool) or not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{where}: {name} is not a number")
        if not trace and m["value"] <= 0:
            raise AssertionError(f"{where}: end-to-end metric {name} is {m['value']}")
    joblist = jobs.workload(workload, seed, small=True)
    hard = {j.name for j in joblist if j.hard}
    failures = meta["failures"]
    if result["attempted"] != len(joblist) or result["failed"] != len(failures):
        raise AssertionError(f"{where}: gate counted {result['attempted']}/{result['failed']}")
    if not result["correct"] or not set(failures) <= hard:
        raise AssertionError(f"{where}: unexpected failures {failures}")
    print(f"ok  {where}: {len(got)} metrics, failures {sorted(failures)}")


def corrupt(job, path: Path) -> None:
    """Change one recorded value of an output: lambda of a verify report, or
    the second column of the row for k = 1 (tail) or trajectory 1 (mc)."""
    if job.kind == "verify":
        doc = json.loads(path.read_text())
        doc["result"]["certificate"]["lambda"] *= 1.0 + 1e-6
        path.write_text(json.dumps(doc))
        return
    lines = path.read_text().splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if line.startswith("1,"))
    k, v, rest = lines[i].split(",", 2)
    lines[i] = f"{k},{float(v) / 2 if '.' in v else int(v) + 1},{rest}"
    path.write_text("".join(lines))


def check_gate_rejects_corruption() -> None:
    worker.import_rarehit()
    joblist = jobs.workload("cyl-exact", 0, small=True) + jobs.workload("mc-batch", 0, small=True)
    reference = gate.load_reference()
    worker.OUT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(prefix="selftest-", dir=worker.OUT))
    try:
        _, outcomes = worker.run_pass(joblist, outdir)
        for i, (job, outcome) in enumerate(zip(joblist, outcomes)):
            path = outdir / f"{i:02d}.out"
            if job.hard or gate.check(job, outcome, path, reference, 0) is not None:
                continue
            if job.kind in ("verify", "tail", "mc"):
                corrupt(job, path)
                if gate.check(job, outcome, path, reference, 0) is None:
                    raise AssertionError(f"gate accepted a corrupted {job.name} output")
                print(f"ok  gate rejects a corrupted {job.name} output")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)


def check_refusal_without_sources() -> None:
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=worker.OUT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "--workload", "cyl-exact", "--seed", "0", "--seconds", "1", "--trace", "0")
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            raise AssertionError("benchmark ran without rarehit sources")
        print(f"ok  refuses to run without sources (exit {proc.returncode})")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        spec = json.load(f)
    for workload in jobs.WORKLOADS:
        for seed in SEEDS:
            for trace in (0, 1):
                check_result(spec, workload, seed, trace)
    check_gate_rejects_corruption()
    check_refusal_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
