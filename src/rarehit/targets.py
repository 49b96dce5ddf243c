"""Rare event sets: unions of distinct rank-n words.

A target is always an explicit, lexicographically sorted list of words of a
common length n.  Hamming balls are expanded into that form up to a
configurable cap; past the cap a membership predicate is available for the
Monte Carlo module.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

import numpy as np

from .errors import (
    ConsistencyError,
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
    provenance: str

    @property
    def kappa(self) -> int:
        """Number of rank-n cylinders composing the set."""
        return len(self.words)

    def __contains__(self, window) -> bool:
        return tuple(window) in self._word_set()

    def _word_set(self) -> frozenset:
        # cached lazily; frozen dataclass, so stash on the instance dict via object.__setattr__
        ws = self.__dict__.get("_ws")
        if ws is None:
            ws = frozenset(self.words)
            object.__setattr__(self, "_ws", ws)
        return ws

    @cached_property
    def array(self) -> np.ndarray:
        """The words as a read-only (kappa, n) integer array, one word per row."""
        a = np.array(self.words, dtype=np.int64)
        a.flags.writeable = False
        return a


def _normalize(words, provenance: str) -> TargetSet:
    ws = sorted({tuple(int(s) for s in w) for w in words})
    if not ws:
        raise RankMismatchError("target set must be non-empty")
    n = len(ws[0])
    if n == 0 or any(len(w) != n for w in ws):
        raise RankMismatchError("all words must share a common positive length")
    if any(s < 0 for w in ws for s in w):
        raise SymbolOutOfRangeError("negative symbol in target word")
    return TargetSet(n, tuple(ws), provenance)


def cylinder(word) -> TargetSet:
    """Singleton target: the rank-n cylinder of one word."""
    return _normalize([word], "cylinder")


def hamming_ball_size(n: int, radius: int, q: int) -> int:
    return sum(math.comb(n, k) * (q - 1) ** k for k in range(radius + 1))


def hamming_ball(center, D: float, q: int, cap: int = HAMMING_EXPANSION_CAP) -> TargetSet:
    """All words within Hamming distance floor(D*n) of the center word."""
    c = tuple(int(s) for s in center)
    n = len(c)
    if any(s < 0 or s >= q for s in c):
        raise SymbolOutOfRangeError("center symbols must lie in 0..q-1")
    radius = math.floor(D * n)
    size = hamming_ball_size(n, radius, q)
    if size > cap:
        raise ExpansionTooLargeError(
            f"Hamming ball has {size} words, cap is {cap}")
    words = []
    for k in range(radius + 1):
        for pos in combinations(range(n), k):
            others = [[s for s in range(q) if s != c[i]] for i in pos]
            for repl in product(*others):
                w = list(c)
                for i, s in zip(pos, repl):
                    w[i] = s
                words.append(tuple(w))
    ts = _normalize(words, f"hamming_ball(center={''.join(map(str, c))},D={D})")
    if ts.kappa != size:
        raise ConsistencyError(f"expanded {ts.kappa} distinct words, the ball has {size}")
    return ts


def union(sets: list[TargetSet]) -> TargetSet:
    """De-duplicated union of targets of equal rank."""
    if not sets:
        raise RankMismatchError("union of zero sets")
    n = sets[0].n
    if any(t.n != n for t in sets):
        raise RankMismatchError("union requires equal ranks")
    words = [w for t in sets for w in t.words]
    return _normalize(words, "explicit_union")


def measure(model: ProcessModel, target: TargetSet) -> float:
    """mu(A): sum of the disjoint cylinder measures."""
    return float(word_measures(model, target.array).sum())


@dataclass(frozen=True)
class HammingBallPredicate:
    """Implicit Hamming ball for targets too large to expand."""

    center: Word
    radius: int
    q: int

    @property
    def n(self) -> int:
        return len(self.center)

    def __call__(self, windows):
        """Membership of one window, or of each row of an (m, n) array."""
        d = np.count_nonzero(np.asarray(windows) != np.asarray(self.center), axis=-1)
        return d <= self.radius if d.ndim else bool(d <= self.radius)


def hamming_predicate(center, D: float, q: int) -> HammingBallPredicate:
    c = tuple(int(s) for s in center)
    return HammingBallPredicate(c, math.floor(D * len(c)), q)


def _parse_word(text: str) -> Word:
    return tuple(int(s) for s in text.split(","))


def from_dict(spec: dict, q: int, cap: int = HAMMING_EXPANSION_CAP) -> TargetSet:
    """Target spec: {"cylinder":"0,1,1"} | {"hamming":{"center":"0,0,0","D":0.2}} | {"union":[...]}."""
    if "cylinder" in spec:
        return cylinder(_parse_word(spec["cylinder"]))
    if "hamming" in spec:
        h = spec["hamming"]
        return hamming_ball(_parse_word(h["center"]), float(h["D"]), q, cap)
    if "union" in spec:
        return union([from_dict(s, q, cap) for s in spec["union"]])
    raise RankMismatchError(f"unrecognized target spec: {spec!r}")


def from_json(text: str, q: int) -> TargetSet:
    return from_dict(json.loads(text), q)
