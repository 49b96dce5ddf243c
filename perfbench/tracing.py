"""Spans around rarehit's public functions, and the per-layer metrics.

A traced pass replaces each wrapped function at every module attribute that
holds it (``scaling`` imports ``hitting_tail`` by name, ``cli`` looks it up
on ``exact``), so calls made inside the library are seen as well as calls
made by the benchmark.  Spans are kept in memory as
``[name, parent id, start, end, attrs]`` and written out by the worker at
exit.  Nothing inside ``src/`` is changed.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _arg(fn):
    sig = inspect.signature(fn)
    return lambda a, kw, name: sig.bind(*a, **kw).arguments[name]


def _attr_specs():
    """Span name -> (function, attrs(args, kwargs, result) or None)."""
    from rarehit import cli, exact, limitlaw, mc, scaling, targets

    def tail_attrs(fn):
        arg = _arg(fn)
        return lambda a, kw, out: {"K": arg(a, kw, "K"),
                                   "target": hash(arg(a, kw, "target").words)}

    def batch_attrs(fn):
        arg = _arg(fn)

        def attrs(a, kw, out):
            # Hitting scans read the n symbols of window 0 before counting.
            warmup = arg(a, kw, "target").n if out.kind == "hitting" else 0
            return {"N": out.N, "symbols": int(out.times.sum()) + warmup * out.N,
                    "censored": out.n_censored}
        return attrs

    return {
        "cli.main": (cli.main, None),
        "targets.hamming_ball": (targets.hamming_ball, lambda a, kw, out: {"kappa": out.kappa}),
        "targets.measure": (targets.measure, None),
        "exact.build_automaton": (exact.build_automaton,
                                  lambda a, kw, out: {"states": out.num_states}),
        "exact.hitting_tail": (exact.hitting_tail, tail_attrs(exact.hitting_tail)),
        "exact.return_tail": (exact.return_tail, tail_attrs(exact.return_tail)),
        "exact.return_expectation": (exact.return_expectation, None),
        "exact.write_tails_csv": (exact.write_tails_csv, None),
        "scaling.verify": (scaling.verify, None),
        "scaling.scale_certificate": (scaling.scale_certificate, None),
        "scaling.extend_for_verification": (scaling.extend_for_verification, None),
        "scaling.verify_exponential_bound": (scaling.verify_exponential_bound, None),
        "scaling.lambda_trajectory": (scaling.lambda_trajectory, None),
        "limitlaw.convergence_diagnostics": (limitlaw.convergence_diagnostics, None),
        "mc.sample_hitting": (mc.sample_hitting, batch_attrs(mc.sample_hitting)),
        "mc.sample_return": (mc.sample_return, batch_attrs(mc.sample_return)),
        "mc.write_batch_csv": (mc.write_batch_csv, None),
    }


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        sid = len(self.spans)
        rec = [name, self._stack[-1] if self._stack else None, time.perf_counter(), None, attrs]
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*a, **kw):
            with self.span(name) as rec:
                out = fn(*a, **kw)
            if attrs is not None:
                rec[4] = attrs(a, kw, out)
            return out
        return wrapper

    @contextmanager
    def installed(self):
        """Swap every module attribute holding a wrapped function."""
        specs = _attr_specs()
        wrappers = {id(fn): self._wrap(name, fn, attrs) for name, (fn, attrs) in specs.items()}
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "rarehit" or k.startswith("rarehit."))]
        swapped = []
        for m in modules:
            for attr, val in list(vars(m).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    setattr(m, attr, w)
                    swapped.append((m, attr, val))
        try:
            yield
        finally:
            for m, attr, val in swapped:
                setattr(m, attr, val)


def per_layer(spans: list[list]) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Steps are absorbing pushes, K per tail call.  A step is useful when it
    lies within the final horizon of its (job, kind, target): the largest K
    asked for.  Recomputing a shorter prefix, as horizon doubling and
    repeated certificates do, is waste.
    """
    dur = [end - start for _, _, start, end, _ in spans]
    children = defaultdict(list)
    for i, (_, parent, _, _, _) in enumerate(spans):
        if parent is not None:
            children[parent].append(i)

    def self_time(i):
        return dur[i] - sum(dur[c] for c in children[i])

    def job_of(i):
        while spans[i][1] is not None:
            i = spans[i][1]
        return i

    by_name = defaultdict(list)
    for i, rec in enumerate(spans):
        by_name[rec[0]].append(i)

    def total(*names):
        return sum(dur[i] for n in names for i in by_name[n])

    def attr_sum(key, *names):
        return sum(spans[i][4][key] for n in names for i in by_name[n])

    tails = by_name["exact.hitting_tail"] + by_name["exact.return_tail"]
    steps = sum(spans[i][4]["K"] for i in tails)
    final = defaultdict(int)
    for i in tails:
        key = (job_of(i), spans[i][0], spans[i][4]["target"])
        final[key] = max(final[key], spans[i][4]["K"])
    tail_self = sum(self_time(i) for i in tails)

    def descendants(i, name):
        return sum((spans[c][0] == name) + descendants(c, name) for c in children[i])

    doublings = (sum(descendants(i, "exact.hitting_tail") - 1
                     for i in by_name["scaling.scale_certificate"])
                 + sum(descendants(i, "exact.hitting_tail")
                       for i in by_name["scaling.extend_for_verification"]))

    samplers = ("mc.sample_hitting", "mc.sample_return")
    sample_s = total(*samplers)
    trajectories = attr_sum("N", *samplers)
    symbols = attr_sum("symbols", *samplers)
    return {
        "cli.self_s": sum(self_time(i) for i in by_name["cli.main"]),
        "targets.expand_s": total("targets.hamming_ball"),
        "targets.kappa": attr_sum("kappa", "targets.hamming_ball"),
        "targets.measure_s": total("targets.measure"),
        "targets.measure_calls": len(by_name["targets.measure"]),
        "exact.automaton_s": total("exact.build_automaton"),
        "exact.automaton_states": attr_sum("states", "exact.build_automaton"),
        "exact.tail_calls": len(tails),
        "exact.tail_steps": steps,
        "exact.tail_self_us_per_step": 1e6 * tail_self / steps if steps else 0.0,
        "exact.useful_step_frac": sum(final.values()) / steps if steps else 0.0,
        "exact.kac_s": total("exact.return_expectation"),
        "exact.csv_s": total("exact.write_tails_csv"),
        "scaling.cert_s": total("scaling.scale_certificate"),
        "scaling.extend_s": total("scaling.extend_for_verification"),
        "scaling.check_s": total("scaling.verify_exponential_bound"),
        "scaling.horizon_doublings": doublings,
        "scaling.trajectory_s": total("scaling.lambda_trajectory"),
        "limitlaw.diag_s": total("limitlaw.convergence_diagnostics"),
        "mc.sample_s": sample_s,
        "mc.trajectories": trajectories,
        "mc.symbols": symbols,
        "mc.ns_per_symbol": 1e9 * sample_s / symbols if symbols else 0.0,
        "mc.censored_frac": (attr_sum("censored", *samplers) / trajectories
                             if trajectories else 0.0),
        "mc.csv_s": total("mc.write_batch_csv"),
    }
