"""Job lists of the benchmark workloads.

A job is one CLI subcommand run in-process through ``rarehit.cli.main`` with
``--out`` pointing into a scratch directory, or one library call where the CLI
has no subcommand (Kac's expectation, Monte Carlo on a predicate target).

The workload seed draws a relabelling of each alphabet, applied to the model
and the target alike, and is the Monte Carlo master seed.  Every exact result
(lambda, s, sup_dev, tails, E[tau|A]) is invariant under the relabelling, so
the values recorded once in ``reference.json`` check every seed, while the
program still receives different inputs per seed.

Each full-size job takes well under a second, so that one run times every job
many times over, each time beside a reference loop that sees the same host
speed (see ``worker.reference_loop``).
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("cyl-exact", "ball-exact", "mc-batch")
KINDS = ("verify", "lambda", "sweep", "tail", "kac", "mc")

U2 = "iid-uniform-2"
U4 = "iid-uniform-4"
IID82 = {"kind": "iid", "probs": [0.8, 0.2]}
MK = {"kind": "markov", "transition": [[0.9, 0.1], [0.5, 0.5]]}


@dataclass(frozen=True)
class Job:
    """One unit of timed work.

    ``argv`` is the CLI command line without ``--out``; library jobs have
    ``argv=None`` and are dispatched on ``kind`` by the worker.  ``hard``
    marks the hard-regime job: a typed refusal (exit 1 or 3) passes it, and
    its failure is the known defect of the current code, counted in
    ``failed`` but not clearing ``correct``.
    """

    name: str
    kind: str
    model: str
    target: str | None
    argv: tuple[str, ...] | None
    hard: bool = False
    params: dict = field(default_factory=dict)


def _model(spec, perm: list[int]) -> str:
    """Relabel a model spec: symbol a becomes perm[a]."""
    if isinstance(spec, str):  # uniform iid is relabelling-invariant
        return spec
    q = len(perm)
    if spec["kind"] == "iid":
        probs = [0.0] * q
        for a, p in enumerate(spec["probs"]):
            probs[perm[a]] = p
        return json.dumps({"kind": "iid", "probs": probs})
    P = [[0.0] * q for _ in range(q)]
    for a, row in enumerate(spec["transition"]):
        for b, p in enumerate(row):
            P[perm[a]][perm[b]] = p
    return json.dumps({"kind": "markov", "transition": P})


def _word(pattern: str, reps: int, perm: list[int]) -> str:
    return ",".join(str(perm[int(c)]) for c in pattern * reps)


def _cli(name, kind, cmd, model, target, *extra, hard=False):
    argv = (cmd, "--model", model)
    if target is not None:
        argv += ("--target", target)
    return Job(name, kind, model, target, argv + tuple(extra), hard)


def _cyl_exact(p2, small):
    n_iid, n_lam, n_max, n_run, n_tail, n_alt = ((3, 10, 5, 5, 4, 2) if small
                                                 else (5, 24, 9, 10, 10, 5))
    K = "2000" if small else "20000"
    iid82 = _model(IID82, p2)
    # Costliest first: repeats that fit in the window after the last full
    # pass then go to the jobs that dominate the wall time.
    return [
        _cli(f"verify:iid82:1^{n_iid}", "verify", "verify", iid82,
             "cyl:" + _word("1", n_iid, p2), "--assert"),
        _cli(f"lambda:u2:1^{n_lam}", "lambda", "lambda", U2, "cyl:" + _word("1", n_lam, p2)),
        _cli(f"sweep:u2:0:2-{n_max}", "sweep", "sweep", U2, None, "--point", _word("0", 1, p2),
             "--n-min", "2", "--n-max", str(n_max), "--assert"),
        _cli(f"verify:u2:1^{n_run}", "verify", "verify", U2, "cyl:" + _word("1", n_run, p2),
             "--assert"),
        _cli(f"tail:u2:1^{n_tail}:K{K}", "tail", "tail", U2, "cyl:" + _word("1", n_tail, p2),
             "--K", K),
        _cli(f"verify:u2:(01)^{n_alt}", "verify", "verify", U2, "cyl:" + _word("01", n_alt, p2),
             "--assert"),
        # Hard regime: binary 1^60, where mu(tau <= n) underflows.
        _cli("lambda:u2:1^60", "lambda", "lambda", U2, "cyl:" + _word("1", 60, p2), hard=True),
    ]


def _ball_exact(p2, p4, small):
    (nv, Dv), (n4, D4), (nl, Dl) = (((5, 0.2), (3, 0.2), (6, 0.25)) if small
                                    else ((8, 0.25), (4, 0.13), (10, 0.3)))
    ball_v = f"hamming:{_word('0', nv, p4)}:{Dv}"  # kappa 277 in full
    ball_l = f"hamming:{_word('0', nl, p4)}:{Dl}"  # kappa 3676 in full
    return [  # costliest first, as in _cyl_exact
        _cli(f"verify:u4:ball0^{nv}:{Dv}", "verify", "verify", U4, ball_v, "--assert"),
        _cli(f"lambda:u4:ball0^{nl}:{Dl}", "lambda", "lambda", U4, ball_l),
        Job(f"kac:u4:ball0^{nl}:{Dl}", "kac", U4, ball_l, None),
        _cli(f"verify:mk:ball(01)^{n4}:{D4}", "verify", "verify", _model(MK, p2),
             f"hamming:{_word('01', n4, p2)}:{D4}", "--assert"),
    ]


def _mc(name, model, target, mc_kind, N, cap, seed, cli=True):
    argv = None
    if cli:
        argv = ("mc", "--model", model, "--target", target, "--kind", mc_kind,
                "--N", str(N), "--seed", str(seed), "--cap", str(cap))
    return Job(name, "mc", model, target, argv,
               params={"mc_kind": mc_kind, "N": N, "cap": cap, "seed": seed})


def _mc_batch(p2, p4, seed, small):
    N_hit, N_ret, N_pred = (200, 50, 20) if small else (3000, 1000, 200)
    ball10 = f"hamming:{_word('0', 10, p4)}:0.2"
    # The ball's mean hitting and return times are in the thousands.  Low caps
    # censor most long trajectories, so a batch draws nearly the same number
    # of symbols at every seed and its time is set by the code, not the draw.
    return [  # costliest first, as in _cyl_exact
        # No subcommand takes a predicate target: a library call.
        _mc(f"mc-predicate:u4:ball0^10:N{N_pred}:cap500", U4, ball10, "hitting", N_pred, 500,
            seed, cli=False),
        _mc(f"mc-return:u4:ball0^10:N{N_ret}:cap100", U4, ball10, "return", N_ret, 100, seed),
        _mc(f"mc:mk:(0,1):N{N_hit}:cap300", _model(MK, p2), "cyl:" + _word("01", 1, p2),
            "hitting", N_hit, 300, seed),
        _mc(f"mc:u2:(1,1):N{N_hit}:cap200", U2, "cyl:" + _word("1", 2, p2), "hitting", N_hit,
            200, seed),
    ]


def workload(name: str, seed: int, small: bool = False) -> list[Job]:
    """The job list of one workload; ``small`` shrinks it for the self-test."""
    rng = random.Random(seed)
    p2 = rng.sample(range(2), 2)
    p4 = rng.sample(range(4), 4)
    if name == "cyl-exact":
        return _cyl_exact(p2, small)
    if name == "ball-exact":
        return _ball_exact(p2, p4, small)
    if name == "mc-batch":
        return _mc_batch(p2, p4, seed, small)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
