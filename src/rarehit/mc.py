"""Seed-deterministic Monte Carlo estimation of hitting and return tails.

The trajectories of a row tile (at most _TILE rows) advance in lockstep.
Each round draws the next uniforms of every live row: _FIRST in a tile's
first round, twice as many in each later one up to _CHUNK, and never past
the censoring cap.  A round is time-major, a (width, rows) array whose row
c holds uniform c of every live row, so each per-column step reads and
writes one contiguous row.  One binary search in the source's merged law
bounds gives every uniform its bin g, which fixes the symbol under every
law.  For an explicit target each row's state is its reachable (automaton
state, last symbol) pair, and one gather per column in the pair table
T[g, p] moves it on; one acceptance gather over the round then gives the
hits.  A Markov source whose pair table would outgrow its symbol table
takes two gathers per column instead: the symbol, then the next pair.  For
a predicate target the bins give the symbols (one table gather for IID
sources, one gather per column for Markov ones), and one predicate call
tests the (width, rows, n) view of the round's windows.  Rows that hit
then leave.  Memory is O(_TILE * (_CHUNK + n)) whatever N and the censoring
cap, beside the symbol table (_symbol_table), the pair tables (_pair_scan)
and the seed states of _SEED_TILES tiles.

Trajectory i consumes the uniforms of its own PCG64 stream, seeded by
derive_seed(master, i), in order, one per symbol.  The round widths and the
tile sizes set only how far ahead they are drawn and are not part of the
contract, so serial and parallel schedules produce identical batches.  The
seed derivation below is part of the external contract.

rarehit computes these streams itself (rarehit._pcg64), a round at a time
for all rows of a tile (_TileStreams: the PCG64 step on uint64 arrays),
from numpy's SeedSequence seeding run on uint32 arrays for up to
_SEED_TILES tiles at once.  Each row equals numpy's
Generator(PCG64(derive_seed(master, i))).random bit for bit, as
tests/test_mc.py::test_tile_streams_match_numpy_generators checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._csvrows import rows_text
from ._pcg64 import _CHUNK, _MASK64, _TileStreams, _seed_sequence_state
from .errors import (
    CensorCapTooLargeError,
    DomainError,
    HorizonMismatchError,
    RejectionBudgetExceededError,
    SymbolOutOfRangeError,
    ZeroMeasureSetError,
    _integer,
)
from .exact import TailDistribution, build_automaton, reachable_pairs
from .process import ProcessModel, word_measures
from .targets import TargetSet, measure

_INT64_MAX = (1 << 63) - 1  # hit times are int64
REJECTION_BUDGET = 10 ** 7  # rejected initial windows per return batch
_TILE = 512   # rows scanned together: bounds memory at any N
_FIRST = 8    # uniforms per live row in a tile's first round; widths double to _CHUNK
_SEED_TILES = 4  # tiles seeded together: one SeedSequence pass per group
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


def derive_seeds(master: int, lo: int, hi: int) -> np.ndarray:
    """derive_seed(master, i) for i in lo..hi-1, as uint64."""
    z = np.arange(lo + 1, hi + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15 + (master & _MASK64)
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27
    z *= 0x94D049BB133111EB
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


def _symbol_table(model: ProcessModel) -> tuple[np.ndarray, np.ndarray]:
    """The symbol map of a source as two tables (G, L).

    The laws are the cumulative next-symbol laws: the stationary law and,
    unless the source is IID, one law per previous symbol.  Law a maps a
    uniform u to min(searchsorted(cum[a], u, "right"), q-1), the count of
    its bounds cum[a, :q-1] at or below u.  G is the sorted merge of every
    law's bounds, each with its multiplicity, so g = #{G <= u} fixes all
    those counts, and law a maps u to L[g, a].  G is padded with +inf to
    2^k - 1 entries for the binary search of _bins.
    """
    laws = model.stationary[None, :] if model.is_iid else np.vstack(
        [model.stationary, model.transition])
    bounds = np.cumsum(laws, axis=1)[:, :-1]
    G = np.full((1 << bounds.size.bit_length()) - 1, np.inf)
    # Python's sort, not np.sort: a run that never sorted floats would map
    # numpy's sort kernels, some 0.2 MB of RSS, for these few bounds.
    G[:bounds.size] = sorted(bounds.ravel().tolist())
    L = np.zeros((bounds.size + 1, len(laws)), dtype=np.int64)
    for a, row in enumerate(bounds):
        L[1:, a] = np.searchsorted(row, G[:bounds.size], side="right")
    return G, L


def _bins(G: np.ndarray, U: np.ndarray) -> np.ndarray:
    """g = #{G <= u} for every u of U at once, by a branch-free binary
    search: k rounds of one gather and one comparison over all of U."""
    g = np.zeros(U.shape, dtype=np.intp)
    step = (G.size + 1) >> 1
    while step:
        g += step * (G.take(g + (step - 1)) <= U)
        step >>= 1
    return g


def _symbols(table, U: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Symbols of the (rows, width) uniforms U, row by row, each row
    continuing from its ``last`` symbol (-1: none, draw from the stationary
    law).  The work runs on the time-major U.T, one contiguous row of it
    per column when U is a transpose as _TileStreams.draw returns it, and
    the symbols come back as the transpose of a time-major array too."""
    G, L = table
    g = _bins(G, U.T)
    if L.shape[1] == 1:  # IID: one law for every column
        return L.ravel().take(g).T
    g *= L.shape[1]
    g += 1  # L[g, last + 1] sits at g*m + 1 + last; last = -1 reads the stationary law
    flat, S = L.ravel(), np.empty_like(g)
    for c, row in enumerate(g):
        row += last
        # every index is in range; "wrap" lets take write straight into S
        # ("raise", the default, would fill a buffer and copy it there)
        last = flat.take(row, out=S[c], mode="wrap")
    return S.T


def _scan(model: ProcessModel, target):
    """(table, init, step) of the lockstep scan of a target: the source's
    symbol table; ``init(words)``, the scan state of rows whose last n
    symbols are the (rows, n) ``words``; and ``step(state, U)``, which feeds
    each row the symbols of its uniforms U (rows, width) and returns the
    time-major (width, rows) flags of the windows that end in the target,
    and the new state.  A state's last axis runs over the rows."""
    q = model.alphabet_size
    if isinstance(target, TargetSet):
        return _pair_scan(model, target)
    if not (hasattr(target, "n") and callable(target)):
        raise DomainError("target must be a TargetSet or a window predicate with .n")
    if getattr(target, "q", q) != q:
        raise SymbolOutOfRangeError(
            f"predicate alphabet of {target.q} symbols differs from the model's {q}")
    table, n = _symbol_table(model), target.n

    def step(prev, U):  # state: each row's last n symbols, time-major
        W = np.empty((n + U.shape[1], U.shape[0]), dtype=np.int64)
        W[:n] = prev
        W[n:] = _symbols(table, U, prev[-1]).T
        hit = target(sliding_window_view(W[1:], n, axis=0))
        return np.asarray(hit, dtype=bool), W[U.shape[1]:]

    return table, (lambda words: words.T), step


def _pair_scan(model: ProcessModel, target: TargetSet):
    """_scan of an explicit target.  The state is each row's reachable
    (automaton state, last symbol) pair, numbered as in the composed chain
    (exact.reachable_pairs); it fixes both the next symbol's law and the
    match.

    The bin g of a uniform in G fixes the symbol under every law, so the
    table T[g, p] of the pair after pair p gives each column in one add and
    one gather, and the hits of a round in one acceptance gather.  T has
    bins x pairs entries: q x pairs for an IID source, but about q^2 x pairs
    for a Markov one.  It is built only while it holds no more entries than
    the pairs' successor table (pairs x q) or L, plus one round; otherwise
    each column gathers the symbol at its pair's law in L, then the next
    pair from the automaton-sized table nxt.  The pairs are built before L,
    and the automaton is dropped once they are.  Both write each column's
    pairs into P with take's "wrap" mode, as _symbols does.
    """
    q = model.alphabet_size
    aut = build_automaton(target, q)
    state, last, nxt = reachable_pairs(aut)
    accept = aut.accepting[state]
    del aut
    G, L = table = _symbol_table(model)
    bins, m = L.shape
    size = state.size
    law = last + 1 if m > 1 else np.zeros_like(last)  # each pair's column of L
    row_of = state * q  # each pair's row of nxt, flat
    nxt_flat = nxt.ravel()

    def init(words):
        p = nxt[0].take(words[:, 0])
        for c in range(1, words.shape[1]):
            p = nxt_flat.take(row_of.take(p) + words[:, c])
        return p

    if bins * size <= max(size * q, L.size) + _TILE * _CHUNK:
        T = nxt[state, L[:, law]].ravel()

        def step(p, U):
            g = _bins(G, U.T)
            g *= size
            P = np.empty_like(g)
            for c, row in enumerate(g):
                row += p
                p = T.take(row, out=P[c], mode="wrap")
            return accept.take(P), p
    else:
        flat = L.ravel()

        def step(p, U):
            g = _bins(G, U.T)
            g *= m
            P = np.empty_like(g)
            for c, row in enumerate(g):
                row += law.take(p)
                i = row_of.take(p)
                i += flat.take(row)
                p = nxt_flat.take(i, out=P[c], mode="wrap")
            return accept.take(P), p

    return table, init, step


def default_censor_cap(model: ProcessModel, target, mu_A: float | None = None) -> int:
    """50 expected hits at the crude rate guess lambda = 1.  ``mu_A`` is the
    target's measure when the caller already holds it."""
    if not isinstance(target, TargetSet):
        raise DomainError("censor_cap must be given explicitly for predicate targets")
    if mu_A is None:
        mu_A = measure(model, target)
    if mu_A <= 0.0:
        raise ZeroMeasureSetError("target has zero measure; no hit is expected")
    return max(1, math.ceil(50.0 / mu_A))


def _advance(streams, step, state, cap: int):
    """Scan the rows of one tile in lockstep, from their scan states, to
    their first hit at a time in 1..cap.  Returns the hit times (cap when
    censored) and the censored flags."""
    times = np.full(state.shape[-1], cap, dtype=np.int64)
    cens = np.ones(times.size, dtype=bool)
    live = np.arange(times.size)
    k, width = 1, _FIRST  # k: time of the round's first window
    while live.size and k <= cap:
        w = min(width, cap + 1 - k)  # no row draws past the cap
        hit, state = step(state, streams.draw(live, w))
        found = hit.any(axis=0)
        times[live[found]] = k + hit.T[found].argmax(axis=1)
        cens[live[found]] = False
        live, state = live[~found], state[..., ~found]
        k, width = k + w, min(2 * width, _CHUNK)
    return times, cens


def _tiles(master: int, N: int):
    """(lo, hi, streams) for each row tile lo..hi-1 of a batch of N rows.
    Seeding runs once for up to _SEED_TILES tiles, so memory stays bounded."""
    step = _SEED_TILES * _TILE
    for start in range(0, N, step):
        stop = min(start + step, N)
        state = _seed_sequence_state(derive_seeds(master, start, stop))
        for lo in range(start, stop, _TILE):
            hi = min(lo + _TILE, stop)
            yield lo, hi, _TileStreams(*(v[lo - start:hi - start] for v in state))


def _sample(kind, model, target, N, seed, censor_cap) -> SampleBatch:
    """The lockstep scanner behind sample_hitting and sample_return: per row
    tile, draw each row's initial window, then advance the tile to its hits."""
    N, seed = _integer("N", N), _integer("seed", seed)
    if N < 1:
        raise DomainError("N must be >= 1")
    if censor_cap is not None:
        censor_cap = _integer("censor_cap", censor_cap)
    explicit_return = kind == "return" and isinstance(target, TargetSet)
    mu_A = None
    if explicit_return:  # one measure serves the default cap and the word choice
        weights = word_measures(model, target.array)
        mu_A = weights.sum()
    if censor_cap is None:
        censor_cap = default_censor_cap(model, target, mu_A)
    if censor_cap < 1:
        raise DomainError(f"censor_cap must be >= 1, got {censor_cap}")
    if censor_cap > _INT64_MAX:
        raise CensorCapTooLargeError(
            f"censor_cap {censor_cap} exceeds the int64 hit-time limit {_INT64_MAX}")
    table, init, step = _scan(model, target)
    n = target.n
    if explicit_return:
        if mu_A <= 0.0:
            raise ZeroMeasureSetError("target has zero measure; returns are undefined")
        word_cum = np.cumsum(weights / mu_A)
    times = np.empty(N, dtype=np.int64)
    cens = np.empty(N, dtype=bool)
    rejections = 0
    for lo, hi, streams in _tiles(seed, N):
        rows = np.arange(hi - lo)
        if kind == "hitting":
            words = _symbols(table, streams.draw(rows, n), np.full(rows.size, -1))
        elif explicit_return:  # uniform 0 of each row picks the word
            j = np.searchsorted(word_cum, streams.draw(rows, 1)[:, 0], side="right")
            words = target.array[np.minimum(j, target.kappa - 1)]
        else:  # rounds of n symbols from the stationary law until one is in A
            words = np.empty((rows.size, n), dtype=np.int64)
            while rows.size:
                W = _symbols(table, streams.draw(rows, n), np.full(rows.size, -1))
                ok = np.asarray(target(W), dtype=bool)
                words[rows[ok]] = W[ok]
                rows = rows[~ok]
                rejections += rows.size
                if rejections > REJECTION_BUDGET:
                    raise RejectionBudgetExceededError(
                        f"more than {REJECTION_BUDGET} rejected initial windows")
        times[lo:hi], cens[lo:hi] = _advance(streams, step, init(words), censor_cap)
        del streams  # freed before the next tile's are built
    return SampleBatch(kind, N, seed, times, cens, censor_cap)


def sample_hitting(model: ProcessModel, target, N: int, seed: int,
                   censor_cap: int | None = None) -> SampleBatch:
    """N independent stationary trajectories scanned for the first window
    match at position >= 1, right-censored at the cap."""
    return _sample("hitting", model, target, N, seed, censor_cap)


def sample_return(model: ProcessModel, target, N: int, seed: int,
                  censor_cap: int | None = None) -> SampleBatch:
    """As sample_hitting, with the initial window drawn from the conditional
    law on A: directly for explicit targets, by rejection for predicates,
    refused once the batch rejects more than REJECTION_BUDGET windows."""
    return _sample("return", model, target, N, seed, censor_cap)


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
        fp.write(rows_text([np.arange(lo, hi), batch.times[lo:hi],
                            batch.censored[lo:hi].astype(np.int64)]))
