"""Rare event sets: unions of distinct rank-n words.

A target is always an explicit, lexicographically sorted list of words of a
common length n.  Hamming balls are expanded into that form up to
HAMMING_EXPANSION_CAP words; past the cap a membership predicate is
available for the Monte Carlo module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .errors import (
    ConfigInvalidError,
    ConsistencyError,
    DomainError,
    ExpansionTooLargeError,
    RankMismatchError,
    SymbolOutOfRangeError,
)
from .process import ProcessModel, word_measures

HAMMING_EXPANSION_CAP = 10 ** 6

Word = tuple[int, ...]


@dataclass(frozen=True)
class TargetSet:
    n: int
    words: tuple[Word, ...]

    @property
    def kappa(self) -> int:
        """Number of rank-n cylinders composing the set."""
        return len(self.words)

    @cached_property
    def array(self) -> np.ndarray:
        """The words as a read-only (kappa, n) integer array, one word per row."""
        a = np.array(self.words, dtype=np.int64)
        a.flags.writeable = False
        return a


def _normalize(words) -> TargetSet:
    ws = sorted({tuple(int(s) for s in w) for w in words})
    if not ws:
        raise RankMismatchError("target set must be non-empty")
    n = len(ws[0])
    if n == 0 or any(len(w) != n for w in ws):
        raise RankMismatchError("all words must share a common positive length")
    if any(s < 0 or s >> 63 for w in ws for s in w):
        raise SymbolOutOfRangeError("target symbols must lie in 0..2^63-1")
    return TargetSet(n, tuple(ws))


def cylinder(word) -> TargetSet:
    """Singleton target: the rank-n cylinder of one word."""
    return _normalize([word])


def hamming_ball_size(n: int, radius: int, q: int) -> int:
    return sum(math.comb(n, k) * (q - 1) ** k for k in range(radius + 1))


def _radius(D: float, n: int) -> int:
    """The Hamming radius floor(D*n) of a relative radius D >= 0, at most n."""
    if not (math.isfinite(D) and D >= 0):
        raise DomainError(f"Hamming radius D must be finite and >= 0, got {D!r}")
    return math.floor(min(D, 1.0) * n)


def _center(center, q: int) -> Word:
    c = tuple(int(s) for s in center)
    if not c:
        raise RankMismatchError("all words must share a common positive length")
    if any(s < 0 or s >= q for s in c):
        raise SymbolOutOfRangeError("center symbols must lie in 0..q-1")
    return c


def hamming_ball(center, D: float, q: int) -> TargetSet:
    """All words within Hamming distance floor(D*n) of the center word."""
    c = _center(center, q)
    n = len(c)
    radius = _radius(D, n)
    size = hamming_ball_size(n, radius, q)
    if size > HAMMING_EXPANSION_CAP:
        raise ExpansionTooLargeError(
            f"Hamming ball has {size} words, cap is {HAMMING_EXPANSION_CAP}")
    # k changed positions: every k-subset of positions times every vector of
    # k offsets in 1..q-1, added to the center mod q.
    c_arr = np.array(c, dtype=np.int64)
    parts = [c_arr[None]]
    for k in range(1, radius + 1):
        pos = np.array(list(combinations(range(n), k)), dtype=np.int64)
        off = np.array(list(product(range(1, q), repeat=k)), dtype=np.int64).reshape(-1, k)
        pos, off = np.repeat(pos, len(off), axis=0), np.tile(off, (len(pos), 1))
        words = np.tile(c_arr, (len(pos), 1))
        np.put_along_axis(words, pos, (c_arr[pos] + off) % q, axis=1)
        parts.append(words)
    W = np.concatenate(parts)
    W = W[np.lexsort(W.T[::-1])]
    distinct = 1 + int(np.count_nonzero((W[1:] != W[:-1]).any(axis=1)))
    if not distinct == len(W) == size:
        raise ConsistencyError(f"expanded {distinct} distinct words, the ball has {size}")
    W.flags.writeable = False
    ts = TargetSet(n, tuple(zip(*W.T.tolist())))
    ts.__dict__["array"] = W  # seeds the cached property
    return ts


def union(sets: list[TargetSet]) -> TargetSet:
    """De-duplicated union of targets of equal rank."""
    if not sets:
        raise RankMismatchError("union of zero sets")
    n = sets[0].n
    if any(t.n != n for t in sets):
        raise RankMismatchError("union requires equal ranks")
    words = [w for t in sets for w in t.words]
    return _normalize(words)


def measure(model: ProcessModel, target: TargetSet) -> float:
    """mu(A): sum of the disjoint cylinder measures."""
    return float(word_measures(model, target.array).sum())


@dataclass(frozen=True)
class HammingBallPredicate:
    """Implicit Hamming ball for targets too large to expand."""

    center: Word
    radius: int
    q: int

    def __post_init__(self):
        _center(self.center, self.q)

    @property
    def n(self) -> int:
        return len(self.center)

    def __call__(self, windows):
        """Membership of one window, or of each row of an (m, n) array."""
        d = np.count_nonzero(np.asarray(windows) != np.asarray(self.center), axis=-1)
        return d <= self.radius if d.ndim else bool(d <= self.radius)


def hamming_predicate(center, D: float, q: int) -> HammingBallPredicate:
    c = tuple(int(s) for s in center)
    return HammingBallPredicate(c, _radius(D, len(c)), q)


def _parse_word(text: str) -> Word:
    """A word written as comma-separated decimal symbols, e.g. "0,1,1"."""
    tokens = text.split(",")
    if not all(t.isascii() and t.isdigit() and str(int(t)) == t for t in tokens):
        raise ConfigInvalidError(
            f"word {text!r} must be comma-separated decimal symbols without leading zeros")
    return tuple(int(t) for t in tokens)


def point_cylinders(point: str, n_range) -> dict[int, TargetSet]:
    """The rank-n cylinders around a point, for each n of n_range.

    ``point`` is a word recycled periodically: "0" is the fixed point
    000..., "0,1" the 2-periodic point 0101...
    """
    p = _parse_word(point)
    if min(n_range, default=1) < 1:
        raise DomainError(f"cylinder length n = {min(n_range)} in {n_range!r} must be >= 1")
    by_n = {n: cylinder([p[i % len(p)] for i in range(n)]) for n in n_range}
    if not by_n:
        raise ConfigInvalidError(f"no cylinder length in {n_range!r}")
    return by_n


def _get(spec, key: str, types, what: str):
    """spec[key], refused unless it is there and of one of those types."""
    if not isinstance(spec.get(key), types):
        raise ConfigInvalidError(f"target spec needs {what} under {key!r}, got {spec!r}")
    return spec[key]


def from_dict(spec: dict, q: int) -> TargetSet:
    """Target spec: {"cylinder":"0,1,1"} | {"hamming":{"center":"0,0,0","D":0.2}} | {"union":[...]}."""
    if not isinstance(spec, dict):
        raise ConfigInvalidError(f"target spec must be a JSON object, got {spec!r}")
    if "cylinder" in spec:
        return cylinder(_parse_word(_get(spec, "cylinder", str, "a word string")))
    if "hamming" in spec:
        h = _get(spec, "hamming", dict, "an object")
        try:
            D = float(_get(h, "D", (int, float, str), "a number"))
        except (OverflowError, ValueError):
            raise ConfigInvalidError(f"target spec needs a number under 'D', got {h!r}") from None
        return hamming_ball(_parse_word(_get(h, "center", str, "a word string")), D, q)
    if "union" in spec:
        return union([from_dict(s, q) for s in _get(spec, "union", list, "a list")])
    raise RankMismatchError(f"unrecognized target spec: {spec!r}")


def from_json(text: str, q: int) -> TargetSet:
    return from_dict(json.loads(text), q)
