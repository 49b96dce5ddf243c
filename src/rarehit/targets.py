"""Rare event sets: unions of distinct rank-n words.

A target is always an explicit set of words of a common length n, held as
one read-only int64 array whose rows are the words, sorted lexicographically
and without duplicates.  Hamming balls are expanded into that form up to
HAMMING_EXPANSION_CAP words; past the cap a membership predicate is
available for the Monte Carlo module.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigInvalidError,
    ConsistencyError,
    DomainError,
    ExpansionTooLargeError,
    RankMismatchError,
    SymbolOutOfRangeError,
)
from .process import ProcessModel, point_lengths, word_measures

HAMMING_EXPANSION_CAP = 10 ** 6

Word = tuple[int, ...]
_LENGTH = "all words must have the target's length n = {n}"


@dataclass(frozen=True, eq=False)
class TargetSet:
    """A union of distinct rank-n cylinders.

    The words are held as one read-only int64 array ``array`` of shape
    (kappa, n), one word per row, rows sorted lexicographically and without
    duplicates; everything downstream (measures, the occurrence automaton,
    the Monte Carlo samplers) reads that array.  ``TargetSet(n, words)``
    takes the words as equal-length symbol sequences or as a (kappa, n)
    integer array, in any order and with repeats; unless the rows already
    ascend, the constructor sorts them with one lexsort and drops repeats.
    ``words``, the same rows as a tuple of int tuples, is derived on first
    use.  A set is immutable, and two sets are equal when their ranks and
    words are.
    """

    n: int
    array: np.ndarray

    def __post_init__(self):
        n, words = self.n, self.array
        if n < 1:
            raise RankMismatchError(f"words must have a length n >= 1, got n = {n}")
        if isinstance(words, np.ndarray) and words.dtype == np.int64:
            W = words
        else:
            W = _int64_rows(n, words)
        if W.ndim != 2 or W.shape[0] == 0:
            raise RankMismatchError("target set must be a non-empty list of words")
        if W.shape[1] != n:
            raise RankMismatchError(_LENGTH.format(n=n))
        if W.min() < 0:
            raise SymbolOutOfRangeError("target symbols must lie in 0..2^63-1")
        # Rows are sorted and distinct when each row's first nonzero
        # difference from the row before is positive (symbols are
        # non-negative, so no difference overflows).
        step = W[1:] - W[:-1]
        if not (step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all():
            W = W[np.lexsort(W.T[::-1])]
            W = W[np.concatenate(([True], (W[1:] != W[:-1]).any(axis=1)))]
        elif W is words:  # already sorted and distinct: copy it, not the caller's array
            W = W.copy()
        W.flags.writeable = False
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "array", W)

    def __reduce__(self):  # copies and unpickles rebuild a read-only array
        return TargetSet, (self.n, self.array)

    @property
    def kappa(self) -> int:
        """Number of rank-n cylinders composing the set."""
        return self.array.shape[0]

    @cached_property
    def words(self) -> tuple[Word, ...]:
        """The rows of ``array`` as a tuple of int tuples, in the same order."""
        return tuple(map(tuple, self.array.tolist()))

    def __eq__(self, other):
        if not isinstance(other, TargetSet):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.n, self.array.tobytes()))


def _int64_rows(n: int, words) -> np.ndarray:
    """Hand-built words as a (kappa, n) int64 array; every symbol is checked
    as a Python int before numpy sees it."""
    try:
        rows = [tuple(map(int, w)) for w in words]
    except TypeError:
        raise RankMismatchError("each word must be a sequence of integer symbols") from None
    if any(len(w) != n for w in rows):
        raise RankMismatchError(_LENGTH.format(n=n))
    if any(s < 0 or s >> 63 for w in rows for s in w):
        raise SymbolOutOfRangeError("target symbols must lie in 0..2^63-1")
    return np.array(rows, dtype=np.int64).reshape(len(rows), n)


def cylinder(word) -> TargetSet:
    """Singleton target: the rank-n cylinder of one word."""
    word = tuple(word)
    return TargetSet(len(word), (word,))


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
    # Position by position, each kept prefix's children in symbol order,
    # pruned at the radius, so the words come out sorted and distinct.
    # kept[j] codes each kept prefix of length j + 1 as parent * q + symbol,
    # its parent being a kept prefix of length j; miss counts mismatches.
    miss, symbols, kept = np.zeros(1, np.int64), np.arange(q), []
    for s in c:
        child = (miss[:, None] + (symbols != s)).ravel()
        kept.append(np.flatnonzero(child <= radius))
        miss = child[kept[-1]]
    W, row = np.empty((miss.size, n), np.int64), np.arange(miss.size)
    for j in reversed(range(n)):  # each word's symbols, from its last prefix back
        code = kept[j][row]
        W[:, j] = code % q
        row = code // q
    ts = TargetSet(n, W)
    if not ts.kappa == len(W) == size:
        raise ConsistencyError(f"expanded {ts.kappa} distinct words, the ball has {size}")
    return ts


def union(sets: list[TargetSet]) -> TargetSet:
    """De-duplicated union of targets of equal rank."""
    if not sets:
        raise RankMismatchError("union of zero sets")
    n = sets[0].n
    if any(t.n != n for t in sets):
        raise RankMismatchError("union requires equal ranks")
    return TargetSet(n, np.concatenate([t.array for t in sets]))


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
        """Membership of each window of an (..., n) array, as an array of
        shape (...); a single window gives a bool.  The mismatches are
        counted one position at a time, so a strided view is never copied."""
        windows = np.asarray(windows)
        if windows.shape[-1:] != (self.n,):
            raise RankMismatchError(f"windows must have length n = {self.n}, "
                                    f"got shape {windows.shape}")
        d = np.zeros(windows.shape[:-1], dtype=np.intp)
        for j, c in enumerate(self.center):
            d += windows[..., j] != c
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


def point_cylinders(model: ProcessModel, point: str, n_range) -> Iterator[TargetSet]:
    """The rank-n cylinders around a point, one per n of n_range, in its order.

    ``point`` is a word recycled periodically: "0" is the fixed point
    000..., "0,1" the 2-periodic point 0101...  The point and the range are
    checked at the call, and each cylinder is built only when reached.
    Each n first passes ``process.point_lengths``, which refuses a cylinder
    far below the model's float range before its word is built.
    """
    p = _parse_word(point)
    # A range is checked from its ends, never listed: it may hold 2^63 n's.
    # Any other n_range may be a one-shot iterator, so it is read once.
    ns = n_range if isinstance(n_range, range) else list(n_range)
    if not ns:
        raise ConfigInvalidError(f"no cylinder length in {n_range!r}")
    low = min(ns[0], ns[-1]) if isinstance(ns, range) else min(ns)
    if low < 1:
        raise DomainError(f"cylinder length n = {low} in {n_range!r} must be >= 1")
    return (cylinder([p[i % len(p)] for i in range(n)]) for n in point_lengths(model, p, ns))


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
