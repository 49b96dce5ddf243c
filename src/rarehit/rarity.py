"""Why rare events do not appear too soon.

Computable bounds on mu(tau_A <= n) for targets built from at most kappa_n
rank-n cylinders whose exponential counting rate stays below the entropy of
the source, the closed-form Hamming-ball cardinality bound and its critical
matching fraction D0, and topological-entropy-style cardinality rates.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConsistencyError,
    DomainError,
    EnumerationTooLargeError,
    RateExceedsEntropyError,
)
from .process import ProcessModel, entropy, word_measures

AEP_ENUMERATION_CAP = 2 * 10 ** 7
_AEP_CHUNK = 1 << 16  # words enumerated at a time


@dataclass(frozen=True)
class RarityBound:
    """Assembled bound mu(tau <= n) <= epsilon_n = k*(m*kappa_n*e^{-(n-m)h} + deficiency)."""

    n: int
    kappa_n: int
    h: float
    k: int
    m: int
    aep_deficiency: float
    epsilon_n: float
    surrogate: bool

    def __post_init__(self):
        if self.m * self.k < self.n:
            raise ConsistencyError(f"blocks m*k = {self.m * self.k} do not cover n = {self.n}")
        if not self.epsilon_n >= 0.0:
            raise ConsistencyError(f"epsilon_n = {self.epsilon_n!r} is not a probability bound")


def _finite(name: str, f, *args) -> float:
    """f(*args), or a DomainError naming the quantity if it leaves the float range."""
    try:
        x = f(*args)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise DomainError(f"{name} exceeds the float range")
    return x


def _aep_deficiency(model: ProcessModel, N: int, h: float) -> float:
    """Total measure of length-N words with mu([w]) > e^{-N h}.

    Single-N proxy for the full almost-sure event, hence a lower bound on
    the true deficiency; callers flag results built on it as surrogate.
    Words are enumerated in chunks, so memory stays bounded by the chunk and
    the heavy words; the one final sum equals a one-pass sum bit for bit.
    """
    if N == 0:  # the empty word's measure 1 is not above the threshold e^0
        return 0.0
    q = model.alphabet_size
    if q ** N > AEP_ENUMERATION_CAP:
        raise EnumerationTooLargeError(
            f"{q ** N} words exceeds AEP cap {AEP_ENUMERATION_CAP}")
    thresh = math.exp(-N * h)
    powers = q ** np.arange(N - 1, -1, -1, dtype=np.int64)
    heavy = []  # the measures above thresh, chunk by chunk in word order
    for lo in range(0, q ** N, _AEP_CHUNK):
        idx = np.arange(lo, min(lo + _AEP_CHUNK, q ** N), dtype=np.int64)
        w = word_measures(model, (idx[:, None] // powers[None, :]) % q)
        heavy.append(w[w > thresh])
    return float(np.concatenate(heavy).sum())


def epsilon_bound(model: ProcessModel, kappa_n: int, n: int) -> RarityBound:
    """Bound mu(tau_{A_n} <= n) <= epsilon_n for any union of at most
    kappa_n rank-n cylinders, valid whenever (1/n) ln kappa_n < h_mu.

    The free choices are pinned deterministically: h is the midpoint of
    ((1/n) ln kappa_n, h_mu) and k the smallest integer with
    (1/n) ln kappa_n < (1 - 1/k) h.
    """
    if n < 1 or kappa_n < 1:
        raise DomainError(f"need n >= 1 and kappa_n >= 1, got n={n}, kappa_n={kappa_n}")
    _finite("n", float, n)
    h_mu = entropy(model)
    h0n = math.log(kappa_n) / n
    if h0n >= h_mu:
        raise RateExceedsEntropyError(
            f"(1/n) ln kappa_n = {h0n:.6g} >= h_mu = {h_mu:.6g}")
    h = 0.5 * (h0n + h_mu)
    r = h0n / h
    k = 2 if h0n == 0.0 else math.floor(1.0 / (1.0 - r)) + 1
    while h0n >= (1.0 - 1.0 / k) * h:
        k += 1
    m = math.ceil(n / k)
    if model.is_uniform_iid:
        # Uniform cylinders have measure q^{-N} <= e^{-N h} for every N
        # since h < ln q, so the good set is everything.
        deficiency = 0.0
        surrogate = False
    else:
        deficiency = _aep_deficiency(model, n - m, h)
        surrogate = True
    eps = k * (_finite("m*kappa_n", float, m * kappa_n) * math.exp(-(n - m) * h) + deficiency)
    return RarityBound(n, kappa_n, h, k, m, deficiency, eps, surrogate)


def hamming_kappa_bound(n: int, D: float, q: int) -> float:
    """Closed-form upper bound ((1 + D(q-1)) / D^D)^n on the number of words
    within Hamming distance D*n of a fixed word."""
    if n < 1 or q < 2:
        raise DomainError(f"need n >= 1 and q >= 2, got n={n}, q={q}")
    if not 0.0 < D < 1.0:
        raise DomainError("D must lie in (0, 1)")
    base = (1.0 + D * _finite("alphabet size q", float, q - 1)) / D ** D
    return _finite("kappa bound ((1 + D(q-1)) / D^D)^n", pow, base, n)


def _bisect(holds, lo: float, hi: float) -> float:
    """Halve [lo, hi], where the monotone test ``holds`` fails at lo and passes
    at hi, until the ends are adjacent floats; return the upper end."""
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (lo, mid) if holds(mid) else (mid, hi)
    return hi


def solve_D0(q: int, h: float) -> float:
    """Smallest D in (0,1) with (1 + D(q-1)) / D^D = e^h, to one ulp, or 1.0
    when there is none (D unconstrained).

    g(D) = ln(1 + D(q-1)) - D ln D - h is strictly concave on (0,1) and tends
    to -h < 0 at 0: one bisection finds its peak D*, where g' turns
    non-positive, and a second the first D <= D* with g(D) >= 0.
    """
    if q < 2:
        raise DomainError(f"need an alphabet of q >= 2 symbols, got {q}")
    if not 0.0 < h < math.inf:
        raise DomainError(f"entropy level must be positive and finite, got {h!r}")
    b = _finite("alphabet size q", float, q - 1)

    def g(D: float) -> float:
        return math.log1p(D * b) - D * math.log(D) - h

    peak = _bisect(lambda D: b / (1.0 + D * b) - math.log(D) <= 1.0, 0.0, 1.0)
    return _bisect(lambda D: g(D) >= 0.0, 0.0, peak) if g(peak) >= 0.0 else 1.0


def cardinality_rate(kappa_table: dict[int, int]) -> float:
    """Finite-sample limsup surrogate of (1/n) ln kappa_n: the maximum over
    the largest-n half of the table."""
    ns = sorted(kappa_table)
    if not ns or any(n < 1 or kappa_table[n] < 1 for n in ns):
        raise DomainError("need n >= 1 and kappa_n >= 1 for a non-empty table")
    _finite("n", float, ns[-1])
    half = ns[len(ns) // 2:]
    return max(math.log(kappa_table[n]) / n for n in half)

