"""Seed-deterministic Monte Carlo estimation of hitting and return tails.

The trajectories of a row tile (at most _TILE rows) advance in lockstep.
Each round draws the next _CHUNK uniforms of every live row, maps them to
symbols with one searchsorted (IID) or one comparison per column (Markov),
and tests the windows with one occurrence-automaton gather per column
(explicit targets) or one predicate call on all windows of the chunk
(implicit ones); rows that hit then leave.  Memory is O(_TILE * (_CHUNK + n))
whatever N and the censoring cap.

Trajectory i consumes the uniforms of its own PCG64 stream, seeded by
derive_seed(master, i), in order, one per symbol.  The chunk and tile sizes
set only how far ahead they are drawn and are not part of the contract, so
serial and parallel schedules produce identical batches.  The seed
derivation below is part of the external contract.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DomainError, HorizonMismatchError, RejectionBudgetExceededError
from .exact import TailDistribution, build_automaton
from .process import ProcessModel, word_measures
from .targets import TargetSet, measure

_MASK64 = (1 << 64) - 1
DEFAULT_REJECTION_BUDGET = 10 ** 7
_TILE = 512   # rows scanned together: bounds memory at any N
_CHUNK = 32   # uniforms drawn per live row and round
_CSV_ROWS = 4096  # rows formatted per write


def derive_seed(master: int, index: int) -> int:
    """Stable per-trajectory seed: splitmix64 finalizer of
    master + (index+1) * golden-gamma, all mod 2^64."""
    z = (master + (index + 1) * 0x9E3779B97F4A7C15) & _MASK64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _MASK64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return z


@dataclass(frozen=True)
class SampleBatch:
    kind: str  # "hitting" or "return"
    N: int
    seed: int
    times: np.ndarray      # time of hit, or censor_cap when censored
    censored: np.ndarray   # boolean
    censor_cap: int

    @property
    def n_censored(self) -> int:
        return int(self.censored.sum())


def _draw(gens, rows, width: int) -> np.ndarray:
    """The next ``width`` uniforms of each listed trajectory, one row each."""
    U = np.empty((len(rows), width))
    for r, i in enumerate(rows):
        gens[i].random(out=U[r])
    return U


def _cum_table(model: ProcessModel) -> np.ndarray:
    """Cumulative next-symbol laws: one row (the law) for IID sources; for
    Markov sources a row per previous symbol and, last, the stationary law."""
    cum_first = np.cumsum(model.next_probs(None))[None, :]
    if model.kind != "markov":
        return cum_first
    return np.vstack([np.cumsum(model.transition, axis=1), cum_first])


def _symbols(cum: np.ndarray, U: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Symbols of the uniforms U, row by row, each row continuing from its
    ``last`` symbol (-1: none, draw from the stationary law)."""
    q = cum.shape[1]
    if len(cum) == 1:
        return np.minimum(np.searchsorted(cum[0], U, side="right"), q - 1)
    S = np.empty(U.shape, dtype=np.int64)
    for c in range(U.shape[1]):  # min: guard against u == 1.0 edge
        last = S[:, c] = np.minimum((cum[last] <= U[:, c, None]).sum(1), q - 1)
    return S


def _matcher_factory(model: ProcessModel, target):
    """(init, match) for a target: ``init(words)`` is the matcher state of rows
    whose last n symbols are the rows of ``words``; ``match(state, S)`` feeds
    the (rows, width) symbols S and returns which of them end a window in the
    target, and the new state."""
    if isinstance(target, TargetSet):
        aut = build_automaton(target, model.alphabet_size)

        def match(state, S):
            hit = np.empty(S.shape, dtype=bool)
            for c in range(S.shape[1]):
                state = aut.goto[state, S[:, c]]
                hit[:, c] = aut.accepting[state]
            return hit, state

        return (lambda words: match(np.zeros(len(words), dtype=np.int64), words)[1]), match
    if hasattr(target, "n") and callable(target):
        n = target.n

        def match(prev, S):  # state: each row's last n-1 symbols
            W = np.concatenate([prev, S], axis=1)
            windows = sliding_window_view(W, n, axis=1).reshape(-1, n)
            return np.asarray(target(windows), dtype=bool).reshape(S.shape), W[:, S.shape[1]:]

        return (lambda words: words[:, 1:]), match
    raise DomainError("target must be a TargetSet or a window predicate with .n")


def default_censor_cap(model: ProcessModel, target) -> int:
    """50 expected hits at the crude rate guess lambda = 1."""
    if not isinstance(target, TargetSet):
        raise DomainError("censor_cap must be given explicitly for predicate targets")
    return max(1, math.ceil(50.0 / measure(model, target)))


def _advance(gens, cum, match, state, last, cap: int):
    """Scan the rows of one tile in lockstep, from their matcher states and
    last symbols, to their first hit at a time in 1..cap.  Returns the hit
    times (cap when censored) and the censored flags."""
    times = np.full(len(gens), cap, dtype=np.int64)
    cens = np.ones(len(gens), dtype=bool)
    live = np.arange(len(gens))
    for k in range(1, cap + 1, _CHUNK):  # k: time of the chunk's first window
        S = _symbols(cum, _draw(gens, live, _CHUNK), last)
        hit, state = match(state, S)
        hit[:, cap + 1 - k:] = False
        found = hit.any(axis=1)
        times[live[found]] = k + hit[found].argmax(axis=1)
        cens[live[found]] = False
        live, state, last = live[~found], state[~found], S[~found, -1]
        if not live.size:
            break
    return times, cens


def _sample(kind, model, target, N, seed, censor_cap, rejection_budget=0) -> SampleBatch:
    """The lockstep scanner behind sample_hitting and sample_return: per row
    tile, draw each row's initial window, then advance the tile to its hits."""
    if N < 1:
        raise DomainError("N must be >= 1")
    if censor_cap is None:
        censor_cap = default_censor_cap(model, target)
    init, match = _matcher_factory(model, target)
    cum, n = _cum_table(model), target.n
    explicit_return = kind == "return" and isinstance(target, TargetSet)
    if explicit_return:
        weights = word_measures(model, target.array)
        word_cum = np.cumsum(weights / weights.sum())
    times = np.empty(N, dtype=np.int64)
    cens = np.empty(N, dtype=bool)
    rejections = 0
    for lo in range(0, N, _TILE):
        hi = min(lo + _TILE, N)
        gens = [np.random.Generator(np.random.PCG64(derive_seed(seed, i)))
                for i in range(lo, hi)]
        rows = np.arange(hi - lo)
        if kind == "hitting":
            words = _symbols(cum, _draw(gens, rows, n), np.full(rows.size, -1))
        elif explicit_return:  # uniform 0 of each row picks the word
            j = np.searchsorted(word_cum, _draw(gens, rows, 1)[:, 0], side="right")
            words = target.array[np.minimum(j, target.kappa - 1)]
        else:  # rounds of n symbols from the stationary law until one is in A
            words = np.empty((rows.size, n), dtype=np.int64)
            while rows.size:
                W = _symbols(cum, _draw(gens, rows, n), np.full(rows.size, -1))
                ok = np.asarray(target(W), dtype=bool)
                words[rows[ok]] = W[ok]
                rows = rows[~ok]
                rejections += rows.size
                if rejections > rejection_budget:
                    raise RejectionBudgetExceededError(
                        f"more than {rejection_budget} rejected initial windows")
        times[lo:hi], cens[lo:hi] = _advance(gens, cum, match, init(words), words[:, -1],
                                             censor_cap)
    return SampleBatch(kind, N, seed, times, cens, censor_cap)


def sample_hitting(model: ProcessModel, target, N: int, seed: int,
                   censor_cap: int | None = None) -> SampleBatch:
    """N independent stationary trajectories scanned for the first window
    match at position >= 1, right-censored at the cap."""
    return _sample("hitting", model, target, N, seed, censor_cap)


def sample_return(model: ProcessModel, target, N: int, seed: int,
                  censor_cap: int | None = None,
                  rejection_budget: int = DEFAULT_REJECTION_BUDGET) -> SampleBatch:
    """As sample_hitting, with the initial window drawn from the conditional
    law on A: directly for explicit targets, by rejection for predicates."""
    return _sample("return", model, target, N, seed, censor_cap, rejection_budget)


def empirical_tail(batch: SampleBatch, K: int | None = None) -> TailDistribution:
    """H_emp(k) = fraction of samples > k; censored samples count as > cap."""
    if K is None:
        K = batch.censor_cap
    if K > batch.censor_cap:
        raise HorizonMismatchError("K beyond the censoring cap is unobserved")
    # H(k) = (N - #{t <= k}) / N: one sort, then one binary search per k.
    t_eff = np.sort(np.where(batch.censored, np.inf, batch.times.astype(float)))
    H = (t_eff.size - np.searchsorted(t_eff, np.arange(K + 1), side="right")) / t_eff.size
    return TailDistribution(batch.kind, H, float("nan"),
                            f"empirical(N={batch.N},seed={batch.seed})")


def ks_distance(tail_a: TailDistribution, tail_b: TailDistribution) -> float:
    """Sup-norm distance between two tails on their common grid."""
    if tail_a.horizon != tail_b.horizon:
        raise HorizonMismatchError(
            f"horizons differ: {tail_a.horizon} vs {tail_b.horizon}")
    return float(np.max(np.abs(tail_a.values - tail_b.values)))


def write_batch_csv(fp, batch: SampleBatch) -> None:
    fp.write(f"# seed={batch.seed}\n")
    fp.write(f"# kind={batch.kind}\n")
    fp.write(f"# censor_cap={batch.censor_cap}\n")
    fp.write("trajectory_index,time,censored\n")
    for lo in range(0, batch.N, _CSV_ROWS):
        hi = min(lo + _CSV_ROWS, batch.N)
        rows = zip(range(lo, hi), batch.times[lo:hi].tolist(),
                   batch.censored[lo:hi].astype(np.int64).tolist())
        fp.write("".join(f"{i},{t},{c}\n" for i, t, c in rows))
