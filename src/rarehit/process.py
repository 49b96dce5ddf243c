"""Finite-alphabet stationary sources.

Every source is a row-stochastic matrix P started from its stationary law
pi: an IID source with law p is the matrix whose rows all equal p, any other
an irreducible aperiodic first-order Markov chain.  Each exposes exact
cylinder measures, entropy per symbol, and a certified upper bound on the
strong-mixing coefficient of the process.
"""
from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    AlphabetTooLargeError,
    ConfigInvalidError,
    EmptyAlphabetError,
    GapNonPositiveError,
    MeasureUnderflowError,
    NonStochasticError,
    PeriodicOrReducibleError,
    SymbolOutOfRangeError,
)

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10
# Largest IID alphabet: its law is tiled into a dense q x q matrix, and the
# composed chain compares every pair of its rows (q^3 booleans).  A Markov
# source brings its own q x q matrix, so its spec already has that size.
ALPHABET_CAP = 256
# The log of the smallest subnormal double, 2^-1074, less 10 nats: no
# double lies near a measure below it.  Nearer the boundary the rounding of
# the word's product decides, so those cylinders are measured as built.
_FAR_UNDERFLOW = -1074 * math.log(2.0) - 10.0


@dataclass(frozen=True)
class ProcessModel:
    """A validated stationary source over symbols 0..q-1: the transition
    matrix ``transition`` and its stationary law ``stationary``."""

    alphabet_size: int
    transition: np.ndarray
    stationary: np.ndarray

    @property
    def is_iid(self) -> bool:
        """Every transition row is the stationary law: symbols are independent."""
        return bool(np.all(self.transition == self.stationary))

    @cached_property
    def first_equal_row(self) -> np.ndarray:
        """For each symbol, the first symbol whose transition row equals its
        row: all 0 for an IID source, the identity for distinct rows."""
        P = self.transition
        first = (P[:, None] == P).all(axis=2).argmax(axis=1)
        first.flags.writeable = False
        return first

    @property
    def is_uniform_iid(self) -> bool:
        return self.is_iid and bool(
            np.allclose(self.stationary, 1.0 / self.alphabet_size, atol=1e-14))


def _check_prob_row(row: np.ndarray, what: str) -> None:
    if not np.all(row >= 0):  # NaN compares false
        raise NonStochasticError(f"{what} has negative or NaN entries")
    if abs(row.sum() - 1.0) > ROW_SUM_TOL:
        raise NonStochasticError(f"{what} sums to {float(row.sum())!r}, not 1")


def _check_primitive(P: np.ndarray) -> None:
    """Irreducible + aperiodic <=> some power of the support is positive.

    By Wielandt's bound a q-state support is primitive iff its power
    (q-1)^2 + 1 is positive, and every higher power of a primitive support is
    positive too; ceil(log2((q-1)^2 + 1)) squarings reach one at least that
    high (16 at q = 256).
    """
    q = P.shape[0]
    M = P > 0
    for _ in range(((q - 1) ** 2).bit_length()):
        M = M @ M
    if not M.all():
        raise PeriodicOrReducibleError("transition matrix is not primitive")


def _stationary_of(P: np.ndarray) -> np.ndarray:
    # Solve pi (P - I) = 0 with the last equation replaced by normalization.
    q = P.shape[0]
    A = P.T - np.eye(q)
    A[-1, :] = 1.0
    b = np.zeros(q)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    return pi


def _check_alphabet(q: int) -> None:
    if q > ALPHABET_CAP:
        raise AlphabetTooLargeError(f"alphabet of {q} symbols exceeds the cap {ALPHABET_CAP}")


def iid(probs) -> ProcessModel:
    """Build and validate an IID model: every transition row is the table.
    No primitivity check runs, so zero-probability symbols stay legal."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise EmptyAlphabetError("need a 1-d probability table with q >= 2")
    _check_alphabet(p.size)
    _check_prob_row(p, "iid probability table")
    return ProcessModel(int(p.size), np.tile(p, (p.size, 1)), p.copy())


def uniform_iid(q: int) -> ProcessModel:
    _check_alphabet(q)
    return iid(np.full(q, 1.0 / q))


def markov(transition) -> ProcessModel:
    """Build and validate a Markov model from a row-stochastic matrix."""
    P = np.asarray(transition, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1] or P.shape[0] < 2:
        raise EmptyAlphabetError("transition matrix must be square with q >= 2")
    for i in range(P.shape[0]):
        _check_prob_row(P[i], f"transition row {i}")
    _check_primitive(P)
    pi = _stationary_of(P)
    if np.max(np.abs(pi @ P - pi)) > STATIONARY_TOL:
        raise NonStochasticError("stationary fixed point residual too large")
    return ProcessModel(int(P.shape[0]), P, pi)


def word_measures(model: ProcessModel, words: np.ndarray) -> np.ndarray:
    """Cylinder measures of the rows of a (count, n) word array: the product
    pi[w0] P[w0, w1] ... P[w(n-2), w(n-1)], taken left to right.  Once every
    product has underflowed to 0 no later factor can change it, so a long
    word stops there."""
    if words.size == 0:
        raise SymbolOutOfRangeError("empty word")
    if words.min() < 0 or words.max() >= model.alphabet_size:
        raise SymbolOutOfRangeError(f"symbols must lie in 0..{model.alphabet_size - 1}")
    mu = model.stationary[words[:, 0]]
    for i in range(1, words.shape[1]):
        mu = mu * model.transition[words[:, i - 1], words[:, i]]
        if i % 64 == 0 and not mu.any():  # every product underflowed, and 0 p = 0
            break
    return mu


def point_log_measure(model: ProcessModel, point, n: int) -> float:
    """log mu of the rank-n cylinder of a periodic point, -inf when a factor
    is 0, in O(period) arithmetic: its n - 1 transitions repeat with the
    point's period, so the word is never built."""
    p = np.asarray(point)
    with np.errstate(divide="ignore"):  # a zero factor logs to -inf
        first = np.log(model.stationary[p[0]])
        steps = np.log(model.transition[p, np.roll(p, -1)])
    full, part = divmod(n - 1, p.size)
    log_mu = first + steps[:part].sum()
    return float(log_mu + full * steps.sum() if full else log_mu)


def point_lengths(model: ProcessModel, point, ns) -> Iterator[int]:
    """The lengths ns, in order.  A rank-n cylinder of the periodic point
    whose ``point_log_measure`` lies 10 nats or more below the log of the
    smallest subnormal is refused by MeasureUnderflowError when its n is
    reached; nearer ones are left to the caller's measure
    (``exact.positive_measures``), which refuses them with the same message.
    A point with a symbol outside the alphabet is left to it too."""
    if max(point) >= model.alphabet_size:
        yield from ns
        return
    for n in ns:
        log_mu = point_log_measure(model, point, n)
        if -math.inf < log_mu <= _FAR_UNDERFLOW:
            raise MeasureUnderflowError.of_log(log_mu)
        yield n


def entropy(model: ProcessModel) -> float:
    """Entropy in nats per symbol, sum_i pi_i H(P[i]), in [0, ln q]."""
    P = model.transition
    h = -np.sum(P * np.log(P, out=np.zeros_like(P), where=P > 0), axis=1)
    return float(h[0] + model.stationary @ (h - h[0]))  # equal rows give h[0] exactly


def alpha_bound(model: ProcessModel, g: int) -> float:
    """Certified upper bound on the strong-mixing coefficient at gap g.

    Returns the beta-mixing dominating quantity

        sum_i pi_i * (1/2) sum_j |P^g(i,j) - pi_j|

    computed as (P - 1 pi)^g = P^g - 1 pi; it dominates the strong-mixing
    coefficient, which downstream checks need.  When P - 1 pi is exactly
    zero (every row is pi: an IID source) the bound is 0.0 with no power.
    """
    if g < 1:
        raise GapNonPositiveError("gap must be >= 1")
    D = model.transition - model.stationary
    if not D.any():
        return 0.0
    Dg = np.linalg.matrix_power(D, g)
    tv = 0.5 * np.sum(np.abs(Dg), axis=1)
    return float(np.dot(model.stationary, tv))


_SPEC_KEYS = {"iid": (iid, "probs"), "markov": (markov, "transition")}


def from_dict(spec: dict) -> ProcessModel:
    """Model config: {"kind":"iid","probs":[...]} or {"kind":"markov","transition":[[...],...]}."""
    if not isinstance(spec, dict):
        raise ConfigInvalidError(f"model spec must be a JSON object, got {spec!r}")
    kind = spec.get("kind")
    if not isinstance(kind, str) or kind not in _SPEC_KEYS:
        raise NonStochasticError(f"unknown model kind {kind!r}")
    build, key = _SPEC_KEYS[kind]
    try:
        table = np.asarray(spec[key], dtype=float)
    except (KeyError, OverflowError, TypeError, ValueError):
        raise ConfigInvalidError(f"{kind} model needs a numeric array under {key!r}") from None
    return build(table)


def to_dict(model: ProcessModel) -> dict:
    """The spec of the model: "iid" when every row equals the stationary law."""
    if model.is_iid:
        return {"kind": "iid", "probs": [float(p) for p in model.stationary]}
    return {"kind": "markov", "transition": [[float(p) for p in row] for row in model.transition]}


def from_json(text: str) -> ProcessModel:
    return from_dict(json.loads(text))
