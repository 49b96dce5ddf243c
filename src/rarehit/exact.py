"""Exact hitting/return tail distributions via a pattern-occurrence automaton.

The event {window of length n starting at position k lies in A} is tracked
with a multi-pattern failure-link automaton (all patterns share length n, so
the accepting states are exactly the word-terminal trie nodes).  A
``ComposedChain`` composes it with the source memory (last emitted symbol,
whose transition row is the next symbol's law) and holds mu(A) and both
start laws; a resumable ``TailEngine`` on it pushes a start law through the
survival kernel, one step at a time up to a switch point set by the chain
size and in blocks of steps beyond it, accumulating the mass absorbed by
the event beside the surviving mass.  Both move the live vector on one
step or block at a time into a stack, and read the tables of a whole run
of them at once.  A brute-force enumeration oracle provides an
independent check.

scipy is imported on first use, not with this module: by the first chain
over 166 states (whose kernels are CSR) or by the first Kac solve.  Smaller
chains never load it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._csvrows import rows_text
from .errors import (
    EnumerationTooLargeError,
    HorizonNonPositiveError,
    HorizonTooLongError,
    HorizonTooShortError,
    InvalidTailError,
    MeasureUnderflowError,
    SingularSystemError,
    SymbolOutOfRangeError,
    ZeroMeasureSetError,
    _integer,
)
from .process import ProcessModel, word_measures
from .targets import TargetSet, measure

BRUTE_FORCE_CAP = 2 * 10 ** 7
MAX_TAIL_STEPS = 10 ** 8  # longest tail an engine pushes (8 bytes a step, 16 with F)
_DENSE_LIMIT = 600  # largest chain whose block matrices are ever built
_BLOCK = 128  # steps per block push on dense chains
_STACK = 1 << 16  # doubles of live vectors stacked per chunk of a block push
_MONOTONE_SLACK = 1e-12
_CSV_ROWS = 4096  # rows formatted per write: bounded memory at any horizon
_CHECK_ROWS = 1 << 16  # entries per chunk of a tail's validation


@dataclass(frozen=True)
class TailDistribution:
    """Tail table H(k) = mu(tau_A > k) for k = 0..horizon.

    ``kind`` is "hitting" or "return"; for returns the measure is the
    conditional one on A.  ``source`` records how the table was produced.
    ``absorbed``, when present, is F(k) = mu(tau_A <= k) accumulated from
    non-negative increments, exact to full relative precision where 1 - H(k)
    cancels.
    """

    kind: str
    values: np.ndarray
    mu_A: float
    source: str
    absorbed: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        v = self.values
        if v.ndim != 1 or v.size < 1:
            raise HorizonNonPositiveError("tail needs at least H(0)")
        # Chunk by chunk, each overlapping the next by one entry for the
        # differences, so the checks allocate no horizon-length temporary;
        # the messages keep their order of precedence.
        rises, low = False, 0.0
        for lo in range(0, v.size, _CHECK_ROWS):
            c = v[lo:lo + _CHECK_ROWS + 1]
            if not np.isfinite(c).all():
                raise InvalidTailError("tail values must be finite")
            rises = rises or bool((np.diff(c) > _MONOTONE_SLACK).any())
            low = min(low, float(c.min()))
        if abs(v[0] - 1.0) > 1e-9:
            raise InvalidTailError(f"H(0) must be 1, got {v[0]!r}")
        if rises:
            raise InvalidTailError("tail must be non-increasing")
        if low < -_MONOTONE_SLACK:
            raise InvalidTailError("tail values must be non-negative")

    @property
    def horizon(self) -> int:
        return self.values.size - 1

    @property
    def cdf(self) -> np.ndarray:
        """F(k) = mu(tau_A <= k): the absorbed mass when carried, else 1 - H,
        which cancels where F is tiny.  Tails pushed without F (verification
        and return tails of an ``Analysis``, ``rarehit tail``) carry none."""
        return 1.0 - self.values if self.absorbed is None else self.absorbed


class OccurrenceAutomaton:
    """Deterministic total automaton accepting exactly when the last n read
    symbols form a word of the target set.

    States are the trie nodes of the target words, numbered breadth first:
    the root is 0, and the nodes of depth d follow those of depth d - 1 in
    the words' order, which is the sorted order of ``target.array`` (every
    ``TargetSet`` holds its words sorted and unique, so nothing is sorted
    here).  ``goto`` falls back along failure links, as in Aho-Corasick; all
    words share length n, so the accepting states are the nodes of depth n,
    the last kappa states, and word i ends in state S - kappa + i.  ``last``
    is the symbol read into each state (-1 at the root) and ``depth`` its
    distance from the root.
    """

    def __init__(self, target: TargetSet, q: int):
        words = target.array
        if words.max() >= q:
            raise SymbolOutOfRangeError(f"target symbols must lie in 0..{q - 1}")
        n = words.shape[1]
        # Sorted unique words share their prefix with their predecessor up to
        # the first differing position; from there on each prefix is a new
        # node.  Masks are (n, kappa), so they read depth by depth, in id order.
        split = np.concatenate(([0], (words[1:] != words[:-1]).argmax(axis=1)))
        new = np.arange(n)[:, None] >= split
        width = new.sum(axis=1)  # nodes per depth
        first = np.concatenate(([1], 1 + np.cumsum(width)))  # first id per depth
        parent = np.zeros(new.shape, dtype=np.int64)  # node of word i's first d symbols
        parent[1:] = first[:-2, None] + np.cumsum(new[:-1], axis=1) - 1
        S = int(first[-1])
        up = np.concatenate(([0], parent[new]))  # parent of each node
        last = np.concatenate(([-1], words.T[new]))
        goto = np.full((S, q), -1, dtype=np.int64)
        goto[up[1:], last[1:]] = np.arange(1, S)
        goto[0, goto[0] < 0] = 0
        fail = np.zeros(S, dtype=np.int64)
        # Depth by depth: a node's failure link is its parent's link followed
        # by its own symbol, and a missing edge falls back to the link's row;
        # both only read rows of smaller depth, which are already total.
        for d in range(1, n + 1):
            ids = slice(first[d - 1], first[d])
            if d > 1:
                fail[ids] = goto[fail[up[ids]], last[ids]]
            rows = goto[ids]
            np.copyto(rows, goto[fail[ids]], where=rows < 0)
        self.num_states = S
        self.goto = goto
        self.last = last
        self.accepting = np.arange(S) >= first[n - 1]
        self._width = np.concatenate(([1], width))  # nodes per depth, the root's too

    @property
    def depth(self) -> np.ndarray:
        """Each state's distance from the root, built on each access: a
        chain reads it once, and an automaton kept alive does not hold it."""
        return np.repeat(np.arange(self._width.size), self._width)


def build_automaton(target: TargetSet, q: int) -> OccurrenceAutomaton:
    return OccurrenceAutomaton(target, q)


def reachable_pairs(aut: OccurrenceAutomaton) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(state, last, nxt) of the reachable (automaton state, last symbol)
    pairs: each pair's state and last symbol, and the (states, q) table of
    the pair after each symbol from each state, so ``nxt[state]`` holds the
    pairs' successors and ``nxt[0]`` the pair of each first symbol.

    A non-root state fixes the last symbol, and state s is pair s - 1; the
    root pairs with the symbols on which some transition falls back to it,
    and those pairs follow in symbol order.
    """
    S, syms = aut.num_states, np.flatnonzero((aut.goto == 0).any(axis=0))
    root = np.full(aut.goto.shape[1], -1, dtype=np.int64)
    root[syms] = np.arange(S - 1, S - 1 + syms.size)
    nxt = aut.goto - 1
    np.copyto(nxt, root, where=nxt < 0)
    state = np.concatenate((np.arange(1, S), np.zeros(syms.size, dtype=np.int64)))
    return state, np.concatenate((aut.last[1:], syms)), nxt


def _rank(x: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of ``x`` (``np.unique(x, return_inverse=True)[1]``) and
    their count, from one stable argsort and a cumsum."""
    order = np.argsort(x, kind="stable")
    x = x[order]
    sorted_ranks = np.concatenate(([0], x[1:] != x[:-1])).cumsum()
    ranks = np.empty_like(sorted_ranks)
    ranks[order] = sorted_ranks
    return ranks, int(sorted_ranks[-1]) + 1


def _coarsest_stable(key: np.ndarray, succ: np.ndarray) -> np.ndarray:
    """Class ids of the coarsest partition that refines ``key`` and is
    stable under the successor table ``succ`` (Moore refinement).

    Each round splits classes by the exact signature (own class, class of
    each successor), packed into integers in mixed radix and ranked, so
    class ids are a deterministic function of the inputs and no hash can
    collide.
    """
    cls, count = _rank(key)
    while True:
        sig, bound = cls, count
        for col in cls[succ].T:
            if bound * count > 1 << 62:  # re-rank before the packing overflows
                sig, bound = _rank(sig)
            sig = sig * count + col
            bound *= count
        new, new_count = _rank(sig)
        if new_count == count:
            return new
        cls, count = new, new_count


def _lump(key: np.ndarray, seed: np.ndarray, succ: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_coarsest_stable(key, succ)`` and one member of each class, in two
    stages: the coarsest stable partition refining ``key`` and the
    non-negative ``seed``, then the canonical rounds on its quotient.

    The first stage is stable and refines ``key``, so it refines every round
    of the canonical refinement: each round's signatures are the same on a
    class as on any of its members, every rank returns the same ids on the
    quotient, and the rounds stop together.  A good seed (trie depth) takes
    the first stage to its fixed point in fewer rounds over all the states.
    """
    fine = _coarsest_stable(key * (int(seed.max()) + 1) + seed, succ)
    rep = np.empty(int(fine.max()) + 1, dtype=np.int64)
    rep[fine] = np.arange(fine.size)  # any member: they all share their signatures
    coarse = _coarsest_stable(key[rep], fine[succ[rep]])
    top = np.empty(int(coarse.max()) + 1, dtype=np.int64)
    top[coarse] = rep
    return coarse[fine], top


def _switch_point(size: int) -> float:
    """Steps a chain of ``size`` states pushes one at a time before it
    builds its block matrices and continues in blocks.

    The build squares a dense size x size matrix seven times.  It cost
    about size**3 / 36,000 single sparse steps of 8-14 us each (measured at
    11, 218 and 493 states), so switching there cost at most about twice
    the cheaper schedule for any horizon.  Stacked single steps
    (``TailEngine._push_steps``) take about 2 us, so the build is now worth
    about five times as many, but the constant stays: the switch decides
    which steps of a CSR chain are single ones, and moving it changes the
    last bits of those chains' tails, so the golden reports would have to
    be pinned again.  Rounded down to a multiple of _BLOCK (0 for chains of
    up to 166 states); never (inf) above _DENSE_LIMIT, where powers fill in.
    """
    if size > _DENSE_LIMIT:
        return math.inf
    return size ** 3 // 36_000 // _BLOCK * _BLOCK


def positive_measures(model: ProcessModel, target: TargetSet) -> np.ndarray:
    """The cylinder measures of the target's words, whose float sum mu(A)
    is positive.  A float mu(A) of 0 is refused: by ZeroMeasureSetError
    when every word has a factor that is exactly 0 (a symbol or transition
    of probability 0), else by MeasureUnderflowError, which gives log10
    mu(A) from sums of logs taken on this path alone."""
    word_p = word_measures(model, target.array)
    if word_p.sum() > 0.0:
        return word_p
    W = target.array
    with np.errstate(divide="ignore"):  # a zero factor logs to -inf
        logs = np.log(model.stationary[W[:, 0]]) + np.log(model.transition)[
            W[:, :-1], W[:, 1:]].sum(axis=1)
    if np.isneginf(logs).all():
        raise ZeroMeasureSetError("target has zero measure")
    top = logs.max()
    log10 = (top + math.log(np.exp(logs - top).sum())) / math.log(10.0)
    raise MeasureUnderflowError(
        f"mu(A) underflows double precision: log10 mu(A) = {log10:.6g}")


class ComposedChain:
    """The exact setup of one (model, target): its automaton, mu(A) and a
    Markov chain over the classes of reachable (automaton state, last
    symbol) pairs.  A target whose float measure is 0 is refused by
    ``positive_measures`` before its automaton is built; a caller that has
    measured the words already passes their measures as ``word_p``.

    The pairs are numbered by ``reachable_pairs``.  They are lumped to the
    coarsest partition that separates acceptance and the next-symbol law
    (``first_equal_row`` of the last symbol: always 0 for IID) and is
    stable under every symbol: a strong lumping, so tails and
    absorption times are those of the pairs.  ``_lump`` reaches it in two
    stages, a refinement seeded with the trie depth and then the canonical
    rounds on its quotient, with the ids the canonical rounds give on all
    pairs; any member of a class stands for it in the kernels.

    ``fullT`` is the one-step kernel; ``survT`` drops every transition into
    an accepting automaton state, so pushing with it loses exactly the mass
    absorbed by the event, and ``absorb`` is each state's one-step
    probability of entering acceptance, summed from those transitions.
    Kernels are stored transposed so a push is a single matrix-vector
    product.  Tails are pushed one step at a time up to ``switch`` and in
    blocks of _BLOCK steps beyond it; the kernels are dense arrays when the
    chain starts in blocks (``switch`` 0), else CSR matrices.
    """

    def __init__(self, model: ProcessModel, target: TargetSet, word_p: np.ndarray | None = None):
        # mu of each word's cylinder
        self._word_p = positive_measures(model, target) if word_p is None else word_p
        self.mu_A = float(self._word_p.sum())  # as targets.measure sums it
        aut = build_automaton(target, model.alphabet_size)
        q = model.alphabet_size
        state, last, nxt = reachable_pairs(aut)
        self._first = nxt[0].copy()
        succ = nxt.take(state, axis=0)  # (pairs, q)
        key = aut.accepting[state] * q + model.first_equal_row[last]
        cls, rep = _lump(key, aut.depth[state], succ)
        size = rep.size
        prob = model.transition[last[rep]]
        surv = np.where(aut.accepting[aut.goto[state[rep]]], 0.0, prob)
        dst = cls[succ[rep]]
        src = np.repeat(np.arange(size), q)
        self._cls = cls
        self.size = size
        self.aut = aut
        self.model = model
        self.target = target
        self.absorb = (prob - surv).sum(axis=1)
        self.switch = _switch_point(size)
        if self.switch == 0:
            flat = (dst * size).ravel() + src
            self.fullT = np.bincount(flat, prob.ravel(), size * size).reshape(size, size)
            self.survT = np.bincount(flat, surv.ravel(), size * size).reshape(size, size)
        else:
            import scipy.sparse as sp
            shape = (size, size)
            self.fullT = sp.csr_matrix((prob.ravel(), (dst.ravel(), src)), shape=shape)
            keep = surv.ravel() > 0.0
            self.survT = sp.csr_matrix((surv.ravel()[keep], (dst.ravel()[keep], src[keep])),
                                       shape=shape)

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(R, A, P): (B, size) arrays R with rows (M_s^j 1)^T and A with
        rows (M_s^(j-1) a)^T for j = 1..B, and P = (M_s^T)^B, which moves the
        live vector on by one block (B = _BLOCK).

        For the live vector v at the start of a block, R @ v is H at the
        block's B steps and A @ v the mass absorbed at each of them.  Built
        by doubling: rows m+1..2m are rows 1..m times (M_s^T)^m, and the
        last squaring is P.
        """
        P = self.survT if self.switch == 0 else self.survT.toarray()
        X = np.stack((np.ones(self.size) @ P, self.absorb))[:, None, :]
        while X.shape[1] < _BLOCK:
            X = np.concatenate((X, (X.reshape(-1, self.size) @ P).reshape(X.shape)), axis=1)
            P = P @ P
        return X[0], X[1], P

    def start(self, kind: str) -> np.ndarray:
        """Law of the composed state where a tail of ``kind`` starts: for
        "hitting" stationarity pushed through the first n symbols, whose
        window does not count; for "return" the law conditioned on A."""
        if kind == "hitting":
            v = np.bincount(self._cls[self._first], self.model.stationary, self.size)
            for _ in range(self.target.n - 1):
                v = self.fullT @ v
            return v
        if kind == "return":
            leaf = np.flatnonzero(self.aut.accepting)  # the state word i ends in, in word order
            return np.bincount(self._cls[leaf - 1], self._word_p / self.mu_A, self.size)
        raise InvalidTailError(f"kind must be hitting or return, got {kind!r}")

    def expected_absorption_times(self) -> np.ndarray:
        """Solve t = 1 + M_surv t (expected steps to first acceptance) by
        sparse LU: the kernel has at most q entries per column.  Dense
        kernels are converted first; the first call loads scipy."""
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla
        A = sp.identity(self.size, format="csc") - sp.csc_matrix(self.survT.T)
        t = spla.spsolve(A, np.ones(self.size))
        if not np.all(np.isfinite(t)):
            raise SingularSystemError("absorption-time system is singular")
        return t


class TailEngine:
    """Resumable exact tail of one kind ("hitting" or "return") on a chain.

    The engine keeps the chain and the live vector and only ever pushes
    steps it has not pushed before: single steps up to the chain's
    ``switch``, blocks from there on.  Either push first stacks the live
    vectors, then computes H (and F) at all their steps at once: single
    steps with a row-wise sum and a stacked ``matmul``, blocks with one
    stacked ``matmul`` per table, which runs the same gemv per block as a
    block-by-block product.  The switch depends on the chain size
    alone, so an engine extended in several calls matches a fresh one bit
    for bit.
    Beside H it accumulates F(k) = mu(tau_A <= k) from the absorbed mass;
    every increment is non-negative, so F never cancels.  Only the scale
    certificate reads F, and ``Analysis`` pushes it before its H-only tails:
    F is pushed alongside H until the first push with ``absorbed=False``,
    and a later request for F past its last step raises InvalidTailError.
    Engines of both kinds on one chain share its block matrices.  ``grow``
    tests its stop rule ``reached(H, F)`` on the bare tables and builds one
    validated ``TailDistribution`` per call.
    """

    def __init__(self, chain: ComposedChain, kind: str = "hitting"):
        self._v = chain.start(kind)  # live vector after the steps pushed
        self.kind = kind
        self.chain = chain
        self.steps = 0  # steps pushed so far
        self._H = np.ones(1)
        self._F = np.zeros(1)  # ends at ``steps`` until an H-only push

    def _tables(self, K: int, absorbed: bool) -> tuple[np.ndarray, np.ndarray | None]:
        """H, and F when ``absorbed``, for k = 0..K as ``extend`` returns them,
        without the tail."""
        K = _integer("K", K)
        if K < 1:
            raise HorizonNonPositiveError("K must be >= 1")
        if K > MAX_TAIL_STEPS:
            raise HorizonTooLongError(f"K = {K} exceeds the step cap {MAX_TAIL_STEPS}")
        k0, f_end, switch = self.steps, self._F.size - 1, self.chain.switch
        if absorbed and f_end < min(K, k0):
            raise InvalidTailError(
                f"F ends at step {f_end}: this engine has pushed H alone past it")
        k1 = K if K <= switch else switch + -(-(K - switch) // _BLOCK) * _BLOCK
        if k1 > k0:
            H = self._grow("_H", k1)
            F = self._grow("_F", k1) if absorbed else None
            v = self._v
            if k0 < switch:
                v = self._push_steps(v, H, F, k0, min(k1, switch))
            if k1 > switch:
                v = self._push_blocks(v, H, F, max(k0, switch), k1)
            self._v, self.steps = v, k1
            # Clamp float dust so monotonicity holds exactly; both fix-ups
            # run left to right, so they agree with a single pass from k = 0.
            np.minimum.accumulate(H[k0:], out=H[k0:])
            np.clip(H[k0:], 0.0, 1.0, out=H[k0:])
            if F is not None:
                np.cumsum(F[k0:], out=F[k0:])
                np.minimum(F[k0:], 1.0, out=F[k0:])
        H = self._H[:K + 1]
        H.flags.writeable = False
        if not absorbed:
            return H, None
        F = self._F[:K + 1]
        F.flags.writeable = False
        return H, F

    def _grow(self, name: str, k1: int) -> np.ndarray:
        """The table held in attribute ``name``, with room for k = 0..k1.

        It grows in place when nothing else refers to it, so old and new are
        never alive together (glibc moves a large block by remapping its
        pages), and is copied when a tail handed out earlier still views it,
        which ``resize`` detects from the reference count: the attribute is
        taken off for the call, so the table's one other reference is this
        frame's."""
        table = vars(self).pop(name)
        try:
            if table.size <= k1:
                table.resize(k1 + 1)
        except ValueError:
            table = np.concatenate((table, np.empty(k1 + 1 - table.size)))
        finally:
            setattr(self, name, table)
        return table

    def _push_steps(self, v: np.ndarray, H: np.ndarray, F: np.ndarray | None,
                    k0: int, k1: int) -> np.ndarray:
        """Fill H, and F (as increments) unless None, at steps k0+1..k1, one
        CSR step at a time from live vector ``v``, stacking at most _STACK
        doubles of live vectors at a time; return the live vector at k1.

        Each step is scipy's compiled kernel (what ``survT @ v`` runs, without
        its dispatch) adding into the next zeroed row; then one row-wise sum
        gives H and one stacked ``matmul`` F at all the chunk's steps."""
        from scipy.sparse._sparsetools import csr_matvec
        T, absorb = self.chain.survT, self.chain.absorb
        size, steps = v.size, k1 - k0
        per_chunk = min(steps, max(1, _STACK // size - 1))
        V = np.empty((per_chunk + 1, size))
        V[0] = v
        for lo in range(0, steps, per_chunk):
            m = min(per_chunk, steps - lo)
            V[1:m + 1] = 0.0
            for i in range(m):
                csr_matvec(size, size, T.indptr, T.indices, T.data, V[i], V[i + 1])
            rows = slice(k0 + lo + 1, k0 + lo + m + 1)
            V[1:m + 1].sum(axis=1, out=H[rows])
            if F is not None:
                np.matmul(V[:m, None, :], absorb[:, None], out=F[rows].reshape(m, 1, 1))
            V[0] = V[m]
        return V[0].copy()

    def _push_blocks(self, v: np.ndarray, H: np.ndarray, F: np.ndarray | None,
                     k0: int, k1: int) -> np.ndarray:
        """Fill H, and F (as increments) unless None, at steps k0+1..k1,
        whole blocks from live vector ``v``, stacking at most _STACK doubles
        of live vectors at a time; return the live vector at k1."""
        R, A, push = self.chain.blocks
        dot = push.dot  # the bound method skips np.dot's dispatch, half its cost here
        blocks = (k1 - k0) // _BLOCK
        per_chunk = min(blocks, max(1, _STACK // v.size - 1))
        V = np.empty((per_chunk + 1, v.size))
        V[0] = v
        for lo in range(0, blocks, per_chunk):
            m = min(per_chunk, blocks - lo)
            for b in range(m):
                dot(V[b], out=V[b + 1])
            rows = slice(k0 + lo * _BLOCK + 1, k0 + (lo + m) * _BLOCK + 1)
            np.matmul(R, V[:m, :, None], out=H[rows].reshape(m, _BLOCK, 1))
            if F is not None:
                np.matmul(A, V[:m, :, None], out=F[rows].reshape(m, _BLOCK, 1))
            V[0] = V[m]
        return V[0].copy()

    def extend(self, K: int, *, absorbed: bool = True) -> TailDistribution:
        """H(k), and F(k) unless ``absorbed`` is false, for k = 0..K,
        pushing only the steps still missing.  Without F the tail carries
        ``absorbed=None`` and its ``cdf`` is 1 - H.

        The returned arrays are read-only views of the engine's buffers,
        whose first ``steps + 1`` entries never change.
        """
        H, F = self._tables(K, absorbed)
        return TailDistribution(self.kind, H, self.chain.mu_A, "exact", absorbed=F)

    def grow(self, K: int, reached, *, absorbed: bool = True) -> TailDistribution:
        """The tail at the first horizon of K, 2K, 4K, ... (the last capped
        at MAX_TAIL_STEPS) where ``reached(H, F)`` holds, H and F being
        read-only views of the tables for k = 0..horizon (F None, and the
        tail without it, unless ``absorbed``).  Only the tail returned is
        built and validated.

        Raises HorizonTooShortError when it fails at the cap.
        """
        while not reached(*self._tables(K, absorbed)):
            if K >= MAX_TAIL_STEPS:
                raise HorizonTooShortError(f"needed horizon exceeds cap {MAX_TAIL_STEPS}")
            K = min(2 * K, MAX_TAIL_STEPS)
        return self.extend(K, absorbed=absorbed)


def hitting_tail(model: ProcessModel, target: TargetSet, K: int) -> TailDistribution:
    """Exact H(k) = mu(tau_A > k), k = 0..K."""
    return TailEngine(ComposedChain(model, target)).extend(K)


def return_tail(model: ProcessModel, target: TargetSet, K: int) -> TailDistribution:
    """Exact mu(tau_A > k | A), k = 0..K."""
    return TailEngine(ComposedChain(model, target), "return").extend(K)


def return_expectation(model: ProcessModel, target: TargetSet) -> float:
    """E[tau_A | A], by linear solve on the composed chain (Kac: = 1/mu(A))."""
    chain = ComposedChain(model, target)
    return float(chain.start("return") @ chain.expected_absorption_times())


def _enumerate_measures(model: ProcessModel, arr: np.ndarray) -> np.ndarray:
    # Kept apart from process.word_measures so the oracle shares no code
    # with the engine it checks.
    w = model.stationary[arr[:, 0]]
    for i in range(arr.shape[1] - 1):
        w = w * model.transition[arr[:, i], arr[:, i + 1]]
    return w


def brute_force_tail(model: ProcessModel, target: TargetSet, K: int,
                     kind: str = "hitting") -> TailDistribution:
    """Independent oracle: enumerate all words of length K+n with their
    measures and locate window matches directly, up to BRUTE_FORCE_CAP words."""
    K = _integer("K", K)
    if K < 1:
        raise HorizonNonPositiveError("K must be >= 1")
    if kind not in ("hitting", "return"):
        raise InvalidTailError(f"kind must be hitting or return, got {kind!r}")
    q = model.alphabet_size
    n = target.n
    L = K + n
    total = q ** L
    if total > BRUTE_FORCE_CAP:
        raise EnumerationTooLargeError(f"{total} words exceeds cap {BRUTE_FORCE_CAP}")
    word_codes = np.sort(np.array(
        [sum(s * q ** (n - 1 - j) for j, s in enumerate(w)) for w in target.words],
        dtype=np.int64))
    powers = q ** np.arange(L - 1, -1, -1, dtype=np.int64)
    mod = q ** (n - 1)
    H = np.zeros(K + 1)
    norm = 0.0
    chunk = 1 << 16
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        arr = (idx[:, None] // powers[None, :]) % q
        w = _enumerate_measures(model, arr)
        code = arr[:, :n] @ powers[L - n:]  # base-q code of window 0
        # windows k = 0..K by sliding the base-q code
        member0 = np.isin(code, word_codes)
        if kind == "return":
            w = np.where(member0, w, 0.0)
        norm += w.sum()
        H[0] += w.sum()
        alive = w.copy()
        for k in range(1, K + 1):
            code = (code % mod) * q + arr[:, n - 1 + k]
            alive = np.where(np.isin(code, word_codes), 0.0, alive)
            H[k] += alive.sum()
    if norm <= 0.0:
        raise ZeroMeasureSetError("conditioning event has zero measure")
    H /= norm
    np.minimum.accumulate(H, out=H)
    return TailDistribution(kind, H, measure(model, target), "brute_force")


def write_tails_csv(fp, hit: TailDistribution | None, ret: TailDistribution | None) -> None:
    """Tail export: columns k, H_hit, H_ret with metadata header lines; every
    float exactly as ``repr`` prints it."""
    ref = hit or ret
    if ref is None:
        raise InvalidTailError("need at least one tail")
    if hit is not None and ret is not None and hit.horizon != ret.horizon:
        raise InvalidTailError("tails must share a horizon for joint export")
    fp.write(f"# mu_A={ref.mu_A!r}\n")
    fp.write(f"# source={ref.source}\n")
    fp.write("k,H_hit,H_ret\n")
    rows = ref.horizon + 1
    for lo in range(0, rows, _CSV_ROWS):
        hi = min(lo + _CSV_ROWS, rows)
        fp.write(rows_text([np.arange(lo, hi)] +
                           [None if t is None else t.values[lo:hi] for t in (hit, ret)]))
