"""Correctness gate, run after timing on the output of each job's last run.

Each job passes or fails once; the failures give ``failed`` and
``job.fail_frac``.  The checks:

* ``--assert`` subcommands exit 0;
* lambda, s and sup_dev (per n for a sweep) equal the values recorded in
  ``reference.json`` within a relative 1e-9; a ``lambda`` certificate also
  has every check true and lambda > 0;
* the hard-regime job passes on a typed refusal (exit 1 or 3) or on a
  certificate with every check true;
* a ``tail`` output agrees with ``brute_force_tail`` within 1e-12 on its
  first ``BRUTE_K`` steps;
* Kac: |E[tau|A] * mu(A) - 1| <= 1e-9;
* Monte Carlo at the recorded seed: the SHA-256 of the output file equals
  the recorded digest; at any other seed the KS distance to the exact tail
  stays inside the DKW band at level ``DKW_ALPHA``.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

REFERENCE = Path(__file__).with_name("reference.json")
REL_TOL = 1e-9
BRUTE_K = 8
BRUTE_TOL = 1e-12
KAC_TOL = 1e-9
DKW_ALPHA = 1e-6


def load_reference() -> dict:
    with open(REFERENCE) as f:
        return json.load(f)


def parsed(job):
    """The job's model and target as rarehit objects."""
    from rarehit import cli
    model = cli.parse_model(job.model)
    return model, cli.parse_target(job.target, model.alphabet_size)


def _json_result(path) -> dict:
    with open(path) as f:
        return json.load(f)["result"]


def _csv_rows(path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def observed(job, out_path) -> dict:
    """The recorded values of a job's output."""
    if job.kind == "verify":
        res = _json_result(out_path)
        cert = res["certificate"]
        return {"s": cert["s"], "lambda": cert["lambda"], "sup_dev": res["report"]["sup_dev"]}
    if job.kind == "lambda":
        cert = _json_result(out_path)
        return {"s": cert["s"], "lambda": cert["lambda"]}
    if job.kind == "sweep":
        rows = _csv_rows(out_path)
        return {"lambda": [float(r["lambda"]) for r in rows],
                "D_hit": [float(r["D_hit"]) for r in rows]}
    if job.kind == "mc":
        return {"sha256": hashlib.sha256(Path(out_path).read_bytes()).hexdigest()}
    return {}


def _mismatch(got: dict, want: dict) -> str | None:
    for key, w in want.items():
        g = got[key]
        if isinstance(w, list):
            if len(g) != len(w) or not all(math.isclose(a, b, rel_tol=REL_TOL)
                                           for a, b in zip(g, w)):
                return f"{key} differs from the recorded values"
        elif isinstance(w, float):
            if not math.isclose(g, w, rel_tol=REL_TOL):
                return f"{key}={g!r}, recorded {w!r}"
        elif g != w:
            return f"{key}={g!r}, recorded {w!r}"
    return None


def mc_samples(path) -> tuple[np.ndarray, np.ndarray]:
    """Times and censoring flags of a batch CSV."""
    rows = _csv_rows(path)
    return (np.array([int(r["time"]) for r in rows], dtype=np.int64),
            np.array([r["censored"] == "1" for r in rows], dtype=bool))


def _mc_ks(job, out_path) -> str | None:
    from rarehit import exact, mc
    p = job.params
    model, target = parsed(job)
    times, cens = mc_samples(out_path)
    if times.size != p["N"]:
        return f"{times.size} samples, expected {p['N']}"
    batch = mc.SampleBatch(p["mc_kind"], p["N"], p["seed"], times, cens, p["cap"])
    tail = exact.hitting_tail if p["mc_kind"] == "hitting" else exact.return_tail
    ks = mc.ks_distance(mc.empirical_tail(batch), tail(model, target, p["cap"]))
    eps = math.sqrt(math.log(2.0 / DKW_ALPHA) / (2.0 * p["N"]))
    return None if ks <= eps else f"KS {ks:.4g} outside the DKW band {eps:.4g}"


def _tail_vs_brute_force(job, out_path) -> str | None:
    from rarehit import exact
    model, target = parsed(job)
    rows = _csv_rows(out_path)[:BRUTE_K + 1]
    for kind, col in (("hitting", "H_hit"), ("return", "H_ret")):
        ref = exact.brute_force_tail(model, target, BRUTE_K, kind).values
        got = np.array([float(r[col]) for r in rows])
        if got.shape != ref.shape or np.max(np.abs(got - ref)) > BRUTE_TOL:
            return f"{col} differs from brute force on k <= {BRUTE_K}"
    return None


def _certificate(out_path) -> str | None:
    cert = _json_result(out_path)
    bad = sorted(k for k, ok in cert["checks"].items() if not ok)
    if bad or not cert["lambda"] or cert["lambda"] <= 0.0:
        return f"lambda={cert['lambda']!r}, s={cert['s']!r}, failed checks {bad}"
    return None


def check(job, outcome, out_path, reference: dict, seed: int) -> str | None:
    """Why the job failed, or None when it passed.

    ``outcome`` is the exit code of a CLI job, the return value of a library
    job, or the exception a job raised.
    """
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__}: {outcome}"
    if job.kind == "kac":
        from rarehit import targets
        mu = targets.measure(*parsed(job))
        err = abs(outcome * mu - 1.0)
        return None if err <= KAC_TOL else f"|E*mu - 1| = {err:.3g}"
    if job.argv is not None and outcome != 0:
        if job.hard and outcome in (1, 3):
            return None
        return f"exit code {outcome}"
    if job.kind == "lambda":
        why = _certificate(out_path)
        if why or job.hard:
            return why
    if job.kind == "tail":
        return _tail_vs_brute_force(job, out_path)
    if job.kind == "mc" and seed != reference["seed"]:
        return _mc_ks(job, out_path)
    want = reference["jobs"].get(job.name)
    if want is None:
        return "no recorded value"
    return _mismatch(observed(job, out_path), want)
