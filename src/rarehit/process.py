"""Finite-alphabet stationary sources.

Two model kinds are supported: IID sources and irreducible aperiodic
first-order Markov chains started from their stationary distribution.
Both expose exact cylinder measures, entropy per symbol, and a certified
upper bound on the strong-mixing coefficient of the process.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import (
    EmptyAlphabetError,
    GapNonPositiveError,
    NonStochasticError,
    PeriodicOrReducibleError,
    SymbolOutOfRangeError,
)

ROW_SUM_TOL = 1e-12
STATIONARY_TOL = 1e-10


@dataclass(frozen=True)
class ProcessModel:
    """A validated stationary source over symbols 0..q-1.

    For IID models ``stationary`` equals ``iid_probs``; for Markov models it
    is the left fixed point of the transition matrix.
    """

    alphabet_size: int
    kind: str  # "iid" or "markov"
    iid_probs: np.ndarray | None
    transition: np.ndarray | None
    stationary: np.ndarray

    def next_probs(self, last: int | None = None) -> np.ndarray:
        """Distribution of the next symbol given the previous one.

        ``last=None`` means no history yet, i.e. the stationary law.
        """
        if self.kind == "iid" or last is None:
            return self.stationary
        return self.transition[last]

    @property
    def is_uniform_iid(self) -> bool:
        if self.kind != "iid":
            return False
        return bool(np.allclose(self.iid_probs, 1.0 / self.alphabet_size, atol=1e-14))


def _check_prob_row(row: np.ndarray, what: str) -> None:
    if np.any(row < 0):
        raise NonStochasticError(f"{what} has negative entries")
    if abs(row.sum() - 1.0) > ROW_SUM_TOL:
        raise NonStochasticError(f"{what} sums to {row.sum()!r}, not 1")


def _check_primitive(P: np.ndarray) -> None:
    """Irreducible + aperiodic <=> some power of the support is positive.

    For a q-state chain an exponent of q*q suffices if any does.
    """
    q = P.shape[0]
    B = P > 0
    M = B.copy()
    for _ in range(q * q):
        if M.all():
            return
        M = M @ B
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


def iid(probs) -> ProcessModel:
    """Build and validate an IID model from a probability table."""
    p = np.asarray(probs, dtype=float)
    if p.ndim != 1 or p.size < 2:
        raise EmptyAlphabetError("need a 1-d probability table with q >= 2")
    _check_prob_row(p, "iid probability table")
    return ProcessModel(int(p.size), "iid", p, None, p.copy())


def uniform_iid(q: int) -> ProcessModel:
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
    return ProcessModel(int(P.shape[0]), "markov", None, P, pi)


def validate(model: ProcessModel) -> ProcessModel:
    """Re-run all invariants on an externally constructed model."""
    if model.kind == "iid":
        out = iid(model.iid_probs)
    elif model.kind == "markov":
        out = markov(model.transition)
        if np.max(np.abs(out.stationary - model.stationary)) > STATIONARY_TOL:
            raise NonStochasticError("supplied stationary vector is not the fixed point")
    else:
        raise NonStochasticError(f"unknown model kind {model.kind!r}")
    return out


def cylinder_measure(model: ProcessModel, word) -> float:
    """Exact measure of the rank-len(word) cylinder [word]."""
    return float(word_measures(model, np.asarray(word, dtype=np.int64).reshape(1, -1))[0])


def word_measures(model: ProcessModel, words: np.ndarray) -> np.ndarray:
    """Cylinder measures of the rows of a (count, n) word array."""
    if words.size == 0:
        raise SymbolOutOfRangeError("empty word")
    if words.min() < 0 or words.max() >= model.alphabet_size:
        raise SymbolOutOfRangeError(f"symbols must lie in 0..{model.alphabet_size - 1}")
    if model.kind == "iid":
        return np.prod(model.iid_probs[words], axis=1)
    return model.stationary[words[:, 0]] * np.prod(
        model.transition[words[:, :-1], words[:, 1:]], axis=1)


def entropy(model: ProcessModel) -> float:
    """Entropy in nats per symbol, in [0, ln q]."""

    def h(row: np.ndarray) -> float:
        nz = row[row > 0]
        return float(-np.sum(nz * np.log(nz)))

    if model.kind == "iid":
        return h(model.iid_probs)
    return float(sum(model.stationary[i] * h(model.transition[i])
                     for i in range(model.alphabet_size)))


def alpha_bound(model: ProcessModel, g: int) -> float:
    """Certified upper bound on the strong-mixing coefficient at gap g.

    IID sources mix perfectly (bound 0).  For Markov chains we return the
    beta-mixing dominating quantity

        sum_i pi_i * (1/2) sum_j |P^g(i,j) - pi_j|

    computed by exact matrix power; it dominates the strong-mixing
    coefficient, which is all downstream bound checks need.
    """
    if g < 1:
        raise GapNonPositiveError("gap must be >= 1")
    if model.kind == "iid":
        return 0.0
    Pg = np.linalg.matrix_power(model.transition, g)
    tv = 0.5 * np.sum(np.abs(Pg - model.stationary[None, :]), axis=1)
    return float(np.dot(model.stationary, tv))


def from_dict(spec: dict) -> ProcessModel:
    """Model config: {"kind":"iid","probs":[...]} or {"kind":"markov","transition":[[...],...]}."""
    kind = spec.get("kind")
    if kind == "iid":
        return iid(spec["probs"])
    if kind == "markov":
        return markov(spec["transition"])
    raise NonStochasticError(f"unknown model kind {kind!r}")


def to_dict(model: ProcessModel) -> dict:
    if model.kind == "iid":
        return {"kind": "iid", "probs": [float(p) for p in model.iid_probs]}
    return {"kind": "markov", "transition": [[float(p) for p in row] for row in model.transition]}


def from_json(text: str) -> ProcessModel:
    return from_dict(json.loads(text))
