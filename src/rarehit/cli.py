"""Command-line frontend.

Subcommands: tail, lambda, verify, limitlaw, rarity (epsilon|d0|rate|kappa),
mc, sweep.  Every run emits its fully resolved configuration alongside the
results so a report can be reproduced from its own header.

Each subcommand's handler only computes: it returns its configuration, its
result (a JSON dict, or a function writing CSV rows) and whether its checks
hold.  ``main`` alone opens ``--out``, once the handler has returned, so a
refusal leaves the file untouched; writes the report (``{"config", "result"}``
JSON, or a ``# config:`` line and the rows); and maps ``--assert`` to exit 2.

Exit codes: 0 ok, 1 config error, 2 failed assertion (--assert, taken by
lambda, verify, limitlaw and sweep), 3 resource cap exceeded (any
``ResourceCapError``, or an allocation that fails with ``MemoryError``).
``lambda`` and ``sweep`` assert the checks of quantitative certificates only;
``verify`` asserts its bound and every certificate check; ``limitlaw`` its
Kac, sandwich and integral relations.

The parser is built by the first ``main`` call and shared by every later call
in the process, so repeated in-process calls pay only for their analysis; a
one-shot ``rarehit`` run builds it once, as before.  Each call still parses
into a fresh namespace with its subcommand's defaults.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
from contextlib import nullcontext
from functools import cache

import numpy as np

from . import exact, limitlaw, mc, process, rarity, scaling, targets
from .errors import ConfigInvalidError, DomainError, RarehitError, ResourceCapError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_ASSERTION = 2
EXIT_RESOURCE = 3


def _spec_text(text: str) -> str:
    """A spec as given, or the contents of the file it names after '@'."""
    if text.startswith("@"):
        with open(text[1:]) as f:
            return f.read()
    return text


def parse_model(text: str) -> process.ProcessModel:
    """Model spec: 'iid-uniform-<q>', inline JSON, or @path-to-json."""
    text = _spec_text(text)
    if text.lstrip().startswith("{"):
        return process.from_json(text)
    q = text.removeprefix("iid-uniform-")
    if q != text and q.isdecimal() and int(q) >= 2:
        return process.uniform_iid(int(q))
    raise ConfigInvalidError(f"cannot parse model spec {text!r}")


def parse_target(text: str, q: int) -> targets.TargetSet:
    """Target spec: 'cyl:0,1,1', 'hamming:0,0,0:0.2', inline JSON or @path."""
    text = _spec_text(text)
    if text.lstrip().startswith("{"):
        return targets.from_json(text, q)
    if text.startswith("cyl:"):
        return targets.from_dict({"cylinder": text[4:]}, q)
    if text.startswith("hamming:"):
        try:
            _, center, D = text.split(":")
            D = float(D)
        except ValueError:
            raise ConfigInvalidError(f"cannot parse target spec {text!r}: expected "
                                     "hamming:<center>:<D>, e.g. hamming:0,0,0:0.2") from None
        return targets.from_dict({"hamming": {"center": center, "D": D}}, q)
    raise ConfigInvalidError(f"cannot parse target spec {text!r}")


def _inputs(args, analysis: str, **extra) -> tuple:
    """The model and target of a subcommand, and the head of its config."""
    model = parse_model(args.model)
    target = parse_target(args.target, model.alphabet_size)
    return model, target, {"analysis": analysis, "model": process.to_dict(model),
                           "target": {"n": target.n, "kappa": target.kappa}, **extra}


def _cmd_tail(args):
    model, target, config = _inputs(args, "tail", K=args.K)
    # Words are written digit by digit ("0110") while every symbol is one
    # digit, and in the --target comma syntax ("1,10") once one is not.
    sep = "," if target.array.max() >= 10 else ""
    config["target"] = {"n": target.n, "words": [sep.join(map(str, w)) for w in target.words]}
    chain = exact.ComposedChain(model, target)
    hit = exact.TailEngine(chain).extend(args.K, absorbed=False)
    ret = exact.TailEngine(chain, "return").extend(args.K, absorbed=False)
    return config, lambda fp: exact.write_tails_csv(fp, hit, ret), True


def _cmd_lambda(args):
    model, target, config = _inputs(args, "lambda")
    cert, _ = scaling.scale_certificate(model, target)
    return config, cert.to_dict(), cert.regime != "quantitative" or all(cert.checks.values())


def _cmd_verify(args):
    model, target, config = _inputs(args, "verify")
    cert, report, _ = scaling.verify(model, target)
    result = {"certificate": cert.to_dict(), "report": report.to_dict()}
    return config, result, report.passed and all(cert.checks.values())


def _cmd_limitlaw(args):
    if not args.s0 >= 0.0:  # NaN included
        raise DomainError(f"--s0 must be non-negative, got {args.s0}")
    model, target, config = _inputs(args, "limitlaw", s0=args.s0)
    analysis = scaling.Analysis(model, target)
    cert, tail = analysis.verification
    F = limitlaw.StepLaw(tail, cert.lam)
    G = limitlaw.StepLaw(analysis.return_tail, cert.lam)
    t_max = 0.9 * F.t_max
    if args.s0 >= t_max:
        raise DomainError(f"s0 = {args.s0:g} must lie below the usable horizon "
                          f"t_max = {t_max:g} (0.9 of the certified tail's)")
    t_grid = np.linspace(args.s0, t_max, 64)
    pairs = [(t_grid[i], t_grid[j]) for i in range(0, 64, 8) for j in range(i + 1, 64, 8)]
    result = {
        "certificate": cert.to_dict(),
        "kac_violation": limitlaw.kac_bound_violation(G, t_grid),
        "sandwich_violation": limitlaw.check_sandwich(F, G, cert.mu_A, pairs),
        "integral_residual_max": float(limitlaw.check_integral_relation(F, G, t_grid).max()),
        "integral_residual_allowance": cert.mu_A,
    }
    holds = (result["kac_violation"] <= 1e-10
             and result["sandwich_violation"] <= 1e-10
             and result["integral_residual_max"] <= cert.mu_A + 1e-10)
    return config, result, holds


def _kappa_table(text: str) -> dict[int, int]:
    """--kappa-table: a JSON object from decimal integers n to (non-bool) integers kappa_n."""
    try:
        table = json.loads(text)
    except json.JSONDecodeError:
        table = None
    if not isinstance(table, dict) or not all(
            re.fullmatch(r"-?[1-9][0-9]*|0", k) and type(v) is int for k, v in table.items()):
        raise ConfigInvalidError("--kappa-table must be a JSON object mapping decimal "
                                 f"integers n to integers kappa_n, got {text!r}")
    return {int(k): v for k, v in table.items()}


def _cmd_rarity_epsilon(args):
    model = parse_model(args.model)
    config = {"analysis": "rarity.epsilon", "model": process.to_dict(model),
              "kappa": args.kappa, "n": args.n}
    rb = rarity.epsilon_bound(model, args.kappa, args.n)
    result = {
        "n": rb.n, "kappa": rb.kappa_n, "h": rb.h, "k": rb.k, "m": rb.m,
        "aep_deficiency": rb.aep_deficiency, "epsilon_n": rb.epsilon_n,
        "surrogate": rb.surrogate,
    }
    return config, result, True


def _cmd_rarity_d0(args):
    h = args.h_nats if args.h_bits is None else args.h_bits * math.log(2.0)
    config = {"analysis": "rarity.d0", "q": args.q, "h_nats": h}
    return config, {"D0": rarity.solve_D0(args.q, h)}, True


def _cmd_rarity_rate(args):
    table = _kappa_table(args.kappa_table)
    config = {"analysis": "rarity.rate", "kappa_table": table}
    return config, {"rate": rarity.cardinality_rate(table)}, True


def _cmd_rarity_kappa(args):
    config = {"analysis": "rarity.kappa", "n": args.n, "D": args.D, "q": args.q}
    bound = rarity.hamming_kappa_bound(args.n, args.D, args.q)
    return config, {"kappa_bound": bound}, True


def _cmd_mc(args):
    model, target, config = _inputs(args, "mc", kind=args.kind, N=args.N, seed=args.seed,
                                    cap=args.cap)
    sampler = mc.sample_hitting if args.kind == "hitting" else mc.sample_return
    batch = sampler(model, target, args.N, args.seed, censor_cap=args.cap)
    return config, lambda fp: mc.write_batch_csv(fp, batch), True


def _cmd_sweep(args):
    model = parse_model(args.model)
    config = {"analysis": "sweep", "model": process.to_dict(model),
              "point": args.point, "n_min": args.n_min, "n_max": args.n_max,
              "s0": args.s0}
    rows = limitlaw.convergence_diagnostics(model, args.point,
                                            range(args.n_min, args.n_max + 1), args.s0)
    holds = not any(r.cert.regime == "quantitative" and not all(r.cert.checks.values())
                    for r in rows)
    return config, lambda fp: limitlaw.write_diagnostics_csv(fp, rows), holds


def _option(*names, **kw) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the leaves that share it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kw)
    return parent


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the process, built on the first call and returned by every later one."""
    p = argparse.ArgumentParser(prog="rarehit",
                                description="Hitting/return time statistics of rare events")
    sub = p.add_subparsers(dest="cmd", required=True)
    model = _option("--model", required=True)
    target = _option("--target", required=True)
    out = _option("--out")
    assert_ = _option("--assert", dest="assert_", action="store_true")
    inputs = [model, target, out]

    def leaf(parent, name, func, parents, **kw):
        sp = parent.add_parser(name, parents=parents, **kw)
        sp.set_defaults(func=func)
        return sp

    sp = leaf(sub, "tail", _cmd_tail, inputs, help="exact hitting/return tail CSV")
    sp.add_argument("--K", type=int, required=True)
    leaf(sub, "lambda", _cmd_lambda, [*inputs, assert_], help="scale certificate and lambda(A)")
    leaf(sub, "verify", _cmd_verify, [*inputs, assert_],
         help="explicit exponential-approximation bound")
    sp = leaf(sub, "limitlaw", _cmd_limitlaw, [*inputs, assert_],
              help="Kac bound, sandwich, integral relation")
    sp.add_argument("--s0", type=float, default=0.05)

    rsub = sub.add_parser("rarity", help="rarity bounds and D0").add_subparsers(
        dest="rarity_cmd", required=True)
    sp = leaf(rsub, "epsilon", _cmd_rarity_epsilon, [model, out])
    sp.add_argument("--kappa", type=int, required=True)
    sp.add_argument("--n", type=int, required=True)
    sp = leaf(rsub, "d0", _cmd_rarity_d0, [out])
    sp.add_argument("--q", type=int, required=True)
    entropy = sp.add_mutually_exclusive_group(required=True)
    entropy.add_argument("--h-bits", type=float)
    entropy.add_argument("--h-nats", type=float)
    sp = leaf(rsub, "rate", _cmd_rarity_rate, [out])
    sp.add_argument("--kappa-table", required=True,
                    help='JSON object mapping n to kappa_n, e.g. \'{"4":16}\'')
    sp = leaf(rsub, "kappa", _cmd_rarity_kappa, [out])
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--D", type=float, required=True)
    sp.add_argument("--q", type=int, required=True)

    sp = leaf(sub, "mc", _cmd_mc, inputs, help="Monte Carlo sample batch CSV")
    sp.add_argument("--kind", choices=["hitting", "return"], default="hitting")
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)
    sp.add_argument("--cap", type=int, default=None)

    sp = leaf(sub, "sweep", _cmd_sweep, [model, out, assert_],
              help="per-n convergence diagnostics for a point")
    sp.add_argument("--point", required=True, help="comma-separated word recycled, e.g. 0 or 0,1")
    sp.add_argument("--n-min", type=int, required=True)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--s0", type=float, default=0.05)
    return p


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.  The handler returns
    ``(config, body, holds)``: body is the JSON result dict or a function
    writing the CSV rows, and holds whether the run's checks pass."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_CONFIG if e.code not in (0, None) else EXIT_OK
    try:
        config, body, holds = args.func(args)
        with nullcontext(sys.stdout) if args.out in (None, "-") else open(args.out, "w") as fp:
            if callable(body):
                fp.write(f"# config: {json.dumps(config, sort_keys=True)}\n")
                body(fp)
            else:
                json.dump({"config": config, "result": body}, fp, indent=2, default=float)
                fp.write("\n")
    except (ResourceCapError, MemoryError) as e:
        print(f"resource cap exceeded: {str(e) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ConfigInvalidError, OSError, json.JSONDecodeError, ValueError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except RarehitError as e:
        print(f"analysis failed: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_ASSERTION if getattr(args, "assert_", False) and not holds else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
