"""Seed-deterministic Monte Carlo estimation of hitting and return tails.

The trajectories of a row tile (at most _TILE rows) advance in lockstep.
Each round draws the next uniforms of every live row: _FIRST in a tile's
first round, twice as many in each later one up to _CHUNK, and never past
the censoring cap.  It maps them to symbols with one binary search in the
source's merged law bounds and then one table gather (IID) or one gather per
column (Markov), and tests the windows with one occurrence-automaton gather
per column (explicit targets) or one predicate call on the (rows, width, n)
view of the round's windows (implicit ones); rows that hit then leave.
Memory is O(_TILE * (_CHUNK + n)) whatever N and the censoring cap, beside
the symbol table (_symbol_table) and the seed states of _SEED_TILES tiles.

Trajectory i consumes the uniforms of its own PCG64 stream, seeded by
derive_seed(master, i), in order, one per symbol.  The round widths and the
tile sizes set only how far ahead they are drawn and are not part of the
contract, so serial and parallel schedules produce identical batches.  The
seed derivation below is part of the external contract.

rarehit computes these streams itself, a round at a time for all rows of a
tile (_TileStreams: the PCG64 step on uint64 arrays), from numpy's
SeedSequence seeding run on uint32 arrays for up to _SEED_TILES tiles at
once.  Each row equals numpy's Generator(PCG64(derive_seed(master, i))).random
bit for bit, as tests/test_mc.py::test_tile_streams_match_numpy_generators
checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._csvrows import rows_text
from .errors import (
    CensorCapTooLargeError,
    DomainError,
    HorizonMismatchError,
    RejectionBudgetExceededError,
    ZeroMeasureSetError,
)
from .exact import TailDistribution, build_automaton
from .process import ProcessModel, word_measures
from .targets import TargetSet, measure

_MASK64 = (1 << 64) - 1
_INT64_MAX = (1 << 63) - 1  # hit times are int64
REJECTION_BUDGET = 10 ** 7  # rejected initial windows per return batch
_TILE = 512   # rows scanned together: bounds memory at any N
_FIRST = 8    # uniforms drawn per live row in a tile's first round
_CHUNK = 32   # most uniforms per row and round: widths double from _FIRST
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


# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 (XSL-RR on a
# 128-bit LCG), re-implemented on uint32 / uint64 arrays so that a whole
# row tile is seeded and stepped at once.
_MASK32 = (1 << 32) - 1
_MOD128 = 1 << 128
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


def _halves(values) -> tuple[np.ndarray, np.ndarray]:
    """128-bit ints as (high, low) uint64 arrays."""
    return (np.array([v >> 64 for v in values], dtype=np.uint64),
            np.array([v & _MASK64 for v in values], dtype=np.uint64))


# c steps of the LCG from state s give A_c s + inc G_c, with A_c = M^c and
# G_c = 1 + M + ... + M^(c-1) mod 2^128 (Brown, Random number generation
# with arbitrary strides, 1994); index c-1 holds step c.
_POWERS = [pow(_PCG_MULT, c, _MOD128) for c in range(_CHUNK + 1)]
_JUMP_A = _halves(_POWERS[1:])
_JUMP_G = _halves([g % _MOD128 for g in accumulate(_POWERS[:-1])])


def _mul128(xh, xl, ah, al):
    """(xh, xl) * (ah, al) mod 2^128 on uint64 halves, broadcasting."""
    x0, x1, a0, a1 = xl & _MASK32, xl >> 32, al & _MASK32, al >> 32
    p01, p10 = x0 * a1, x1 * a0
    mid = (x0 * a0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
    hi = x1 * a1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32) + xl * ah + xh * al
    return hi, xl * al


def _add128(xh, xl, ah, al):
    lo = xl + al
    return xh + ah + (lo < xl), lo


def _seed_sequence_state(seeds: np.ndarray) -> list[np.ndarray]:
    """SeedSequence(seed).generate_state(4, np.uint64) for each uint64 seed,
    as four uint64 arrays (v0..v3)."""
    hc = 0x43B0D7E5  # the hash constant depends on the call count only

    def hashmix(v):
        nonlocal hc
        v = v ^ hc
        hc = hc * 0x931E8875 & _MASK32
        v = v * hc
        return v ^ (v >> 16)

    def mix(x, y):
        r = x * 0xCA01F9DD - y * 0x4973F715
        return r ^ (r >> 16)

    zero = np.zeros(seeds.size, dtype=np.uint32)
    pool = [hashmix(w) for w in ((seeds & _MASK32).astype(np.uint32),
                                 (seeds >> 32).astype(np.uint32), zero, zero)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    hc, words = 0x8B51F9DD, []
    for i in range(8):
        v = pool[i % 4] ^ hc
        hc = hc * 0x58F38DED & _MASK32
        v = v * hc
        words.append((v ^ (v >> 16)).astype(np.uint64))
    return [words[2 * k] | words[2 * k + 1] << 32 for k in range(4)]


class _TileStreams:
    """PCG64 streams, one per row of the SeedSequence states v0..v3 (as
    _seed_sequence_state returns them): the row seeded from s draws exactly
    what numpy's Generator(PCG64(s)).random would."""

    def __init__(self, v0, v1, v2, v3):
        inc = (v2 << 1) | (v3 >> 63), (v3 << 1) | 1
        # pcg64_srandom: state = inc (one step from 0), add initstate, step
        h, l = _add128(*inc, v0, v1)
        self.hi, self.lo = _add128(*_mul128(h, l, *_halves([_PCG_MULT])), *inc)
        self.gh, self.gl = _mul128(inc[0][:, None], inc[1][:, None], *_JUMP_G)

    def draw(self, rows: np.ndarray, width: int) -> np.ndarray:
        """The next ``width`` uniforms of each listed row, one row each."""
        U = np.empty((len(rows), width))
        for c in range(0, width, _CHUNK):
            w = min(_CHUNK, width - c)
            h, l = _mul128(self.hi[rows, None], self.lo[rows, None],
                           _JUMP_A[0][:w], _JUMP_A[1][:w])
            h, l = _add128(h, l, self.gh[rows, :w], self.gl[rows, :w])
            self.hi[rows], self.lo[rows] = h[:, -1], l[:, -1]
            x, rot = h ^ l, h >> 58  # XSL-RR output, then 53-bit double
            U[:, c:c + w] = ((x >> rot) | (x << ((64 - rot) & 63))) >> 11
        U *= 2.0 ** -53
        return U


def _symbol_table(model: ProcessModel) -> tuple[np.ndarray, np.ndarray]:
    """The symbol map of a source as two tables (G, L).

    The laws are the cumulative next-symbol laws: the stationary law and,
    unless the source is IID, one law per previous symbol.  Law a maps a
    uniform u to min(searchsorted(cum[a], u, "right"), q-1), the count of
    its bounds cum[a, :q-1] at or below u.  G is the sorted merge of every
    law's bounds, each with its multiplicity, so g = #{G <= u} fixes all
    those counts, and law a maps u to L[g, a].  G is padded with +inf to
    2^k - 1 entries for _symbols' binary search.
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


def _symbols(table, U: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Symbols of the uniforms U, row by row, each row continuing from its
    ``last`` symbol (-1: none, draw from the stationary law)."""
    G, L = table
    # g = #{G <= u} for every u at once, by a branch-free binary search:
    # k rounds of one gather and one comparison over all of U.
    g = np.zeros(U.shape, dtype=np.intp)
    step = (G.size + 1) >> 1
    while step:
        g += step * (G.take(g + (step - 1)) <= U)
        step >>= 1
    m = L.shape[1]
    if m == 1:  # IID: one law for every column
        return L.ravel().take(g)
    g *= m
    g += 1  # L[g, last + 1] sits at g*m + 1 + last; last = -1 reads the stationary law
    flat, S = L.ravel(), np.empty(U.shape, dtype=np.int64)
    for c in range(U.shape[1]):
        last = S[:, c] = flat.take(g[:, c] + last)
    return S


def _matcher_factory(model: ProcessModel, target):
    """(init, match) for a target: ``init(words)`` is the matcher state of rows
    whose last n symbols are the rows of ``words``; ``match(state, S)`` feeds
    the (rows, width) symbols S and returns which of them end a window in the
    target, and the new state."""
    if isinstance(target, TargetSet):
        aut = build_automaton(target, model.alphabet_size)
        goto, q = aut.goto.ravel(), aut.goto.shape[1]

        def match(state, S):
            hit = np.empty(S.shape, dtype=bool)
            for c in range(S.shape[1]):
                state = goto.take(state * q + S[:, c])
                hit[:, c] = aut.accepting.take(state)
            return hit, state

        return (lambda words: match(np.zeros(len(words), dtype=np.int64), words)[1]), match
    if hasattr(target, "n") and callable(target):
        n = target.n

        def match(prev, S):  # state: each row's last n-1 symbols
            W = np.concatenate([prev, S], axis=1)
            hit = np.asarray(target(sliding_window_view(W, n, axis=1)), dtype=bool)
            return hit, W[:, S.shape[1]:]

        return (lambda words: words[:, 1:]), match
    raise DomainError("target must be a TargetSet or a window predicate with .n")


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


def _advance(streams, table, match, state, last, cap: int):
    """Scan the rows of one tile in lockstep, from their matcher states and
    last symbols, to their first hit at a time in 1..cap.  Returns the hit
    times (cap when censored) and the censored flags."""
    times = np.full(len(last), cap, dtype=np.int64)
    cens = np.ones(len(last), dtype=bool)
    live = np.arange(len(last))
    k, width = 1, _FIRST  # k: time of the round's first window
    while live.size and k <= cap:
        w = min(width, cap + 1 - k)  # no row draws past the cap
        S = _symbols(table, streams.draw(live, w), last)
        hit, state = match(state, S)
        found = hit.any(axis=1)
        times[live[found]] = k + hit[found].argmax(axis=1)
        cens[live[found]] = False
        live, state, last = live[~found], state[~found], S[~found, -1]
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
    if N < 1:
        raise DomainError("N must be >= 1")
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
    init, match = _matcher_factory(model, target)
    table, n = _symbol_table(model), target.n
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
        times[lo:hi], cens[lo:hi] = _advance(streams, table, match, init(words), words[:, -1],
                                             censor_cap)
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
