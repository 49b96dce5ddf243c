import itertools
import math
import pickle
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarehit import (
    cylinder,
    errors,
    hamming_ball,
    hamming_predicate,
    markov,
    measure,
    targets,
    uniform_iid,
    union,
)
from rarehit.exact import ComposedChain, build_automaton
from rarehit.process import point_log_measure


def test_cylinder_singleton():
    t = cylinder([1, 1, 1])
    assert (t.n, t.kappa, t.words) == (3, 1, ((1, 1, 1),))
    t2 = cylinder([0, 1])
    assert (t2.n, t2.kappa) == (2, 1)


def test_prefix_family():
    for n in range(1, 7):
        t = cylinder([0] * n)
        assert t.kappa == 1 and t.n == n


def test_hamming_ball_radius_one():
    t = hamming_ball([0, 0, 0], 0.34, 2)
    assert t.kappa == 4
    assert set(t.words) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)}


def test_hamming_ball_binomial_count():
    # sum_{k<=2} C(10,k) 3^k = 1 + 30 + 405 = 436
    t = hamming_ball([0] * 10, 0.2, 4)
    assert t.kappa == 436


def test_hamming_ball_zero_radius():
    t = hamming_ball([1, 0, 1], 0.1, 2)
    assert t.words == ((1, 0, 1),)


def _ball_reference(center, D, q):
    """The ball by itertools: replace each position subset by every other symbol."""
    n = len(center)
    words = set()
    for k in range(min(math.floor(D * n), n) + 1):
        for pos in itertools.combinations(range(n), k):
            others = [[s for s in range(q) if s != center[i]] for i in pos]
            for repl in itertools.product(*others):
                w = list(center)
                for i, s in zip(pos, repl):
                    w[i] = s
                words.add(tuple(w))
    return tuple(sorted(words))


@settings(max_examples=200, deadline=None)
@given(q=st.integers(1, 4), n=st.integers(1, 8), D=st.floats(0.0, 2.0), data=st.data())
def test_hamming_ball_matches_itertools_reference(q, n, D, data):
    center = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    t = hamming_ball(center, D, q)
    assert t.words == _ball_reference(center, D, q)
    assert t.array.tolist() == [list(w) for w in t.words]
    assert t.array.dtype == np.int64 and not t.array.flags.writeable


@pytest.mark.parametrize("D", [math.inf, math.nan, -0.1])
def test_bad_hamming_radius_is_a_domain_error(D):
    with pytest.raises(errors.DomainError):
        hamming_ball([0, 1, 0], D, 2)
    with pytest.raises(errors.DomainError):
        hamming_predicate([0, 1, 0], D, 2)


def test_hamming_predicate_checks_center_symbols():
    with pytest.raises(errors.SymbolOutOfRangeError):
        hamming_predicate([5, 5, 5], 0.34, 2)
    with pytest.raises(errors.SymbolOutOfRangeError):
        hamming_predicate([0, -1], 0.5, 2)


def test_hamming_ball_cap():
    # 0^14 at D = 0.5 on q = 4 has 10,273,228 words: refused before expansion.
    with pytest.raises(errors.ExpansionTooLargeError):
        hamming_ball([0] * 14, 0.5, 4)


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("n", [3, 6, 9, 12])
def test_hamming_kappa_matches_binomial_sum(n, q):
    for D in (0.05, 0.2, 0.4):
        t = hamming_ball([0] * n, D, q)
        r = math.floor(D * n)
        expected = sum(math.comb(n, k) * (q - 1) ** k for k in range(r + 1))
        assert t.kappa == expected


def test_union_and_dedup():
    a = cylinder([0, 0, 0])
    b = cylinder([1, 1, 1])
    assert union([a, b]).kappa == 2
    ball = hamming_ball([0, 0, 0], 0.34, 2)
    assert union([ball, a]).kappa == 4  # absorption


def test_union_rank_mismatch():
    with pytest.raises(errors.RankMismatchError):
        union([cylinder([0, 0]), cylinder([0, 0, 0])])


def test_measure_examples():
    m = uniform_iid(2)
    assert measure(m, hamming_ball([0, 0, 0], 0.34, 2)) == pytest.approx(0.5, abs=1e-15)
    assert measure(m, cylinder([1, 1])) == pytest.approx(0.25, abs=1e-15)
    mk = markov([[0.9, 0.1], [0.5, 0.5]])
    assert measure(mk, cylinder([0, 1])) == pytest.approx(1 / 12, abs=1e-15)


def test_measure_additive_on_disjoint():
    m = uniform_iid(2)
    a = cylinder([0, 0, 1])
    b = cylinder([1, 1, 1])
    assert measure(m, union([a, b])) == pytest.approx(
        measure(m, a) + measure(m, b), abs=1e-15)


def test_ball_measure_monotone_in_D():
    m = uniform_iid(2)
    prev = 0.0
    for D in (0.05, 0.15, 0.3, 0.45, 0.6):
        cur = measure(m, hamming_ball([0, 1, 0, 1, 0, 1], D, 2))
        assert cur >= prev
        prev = cur


def test_membership():
    t = hamming_ball([0, 0, 0], 0.34, 2)
    assert (0, 1, 0) in t.words
    assert (1, 1, 0) not in t.words


def test_hamming_predicate_agrees_with_expansion():
    pred = hamming_predicate([0, 1, 0, 1], 0.3, 2)
    t = hamming_ball([0, 1, 0, 1], 0.3, 2)
    import itertools
    words = list(itertools.product(range(2), repeat=4))
    for w in words:
        assert pred(w) is (w in t.words)
    # the batch form: one boolean per row of an (m, n) array
    assert pred(np.array(words)).tolist() == [w in t.words for w in words]


@pytest.mark.parametrize("center, radius", [
    ((0, 2, 1, 0), 0), ((0, 2, 1, 0), 1), ((0, 2, 1, 0), 2), ((0, 2, 1, 0), 4),
    ((0, 2, 1, 0), 9), ((1,), 0), ((1,), 1)])
def test_hamming_predicate_counts_mismatches_on_any_window_shape(center, radius):
    pred, n = targets.HammingBallPredicate(center, radius, 3), len(center)

    def rule(w):
        return sum(a != b for a, b in zip(w, center)) <= radius

    rng = np.random.default_rng(radius)
    # one window: a bool, from a tuple or a 1-d array
    for w in (center, rng.integers(0, 3, n).tolist(), [(c + 1) % 3 for c in center]):
        assert pred(tuple(w)) is rule(w) and pred(np.array(w)) is rule(w)
    # an (m, n) array: one boolean per row
    M = rng.integers(0, 3, (60, n))
    M[0] = center
    got = pred(M)
    assert got.dtype == bool and got.tolist() == [rule(w) for w in M.tolist()]
    # an (r, w, n) strided view of sliding windows: one boolean per window
    W = rng.integers(0, 3, (5, 20))
    W[1, 3:3 + n] = center
    V = np.lib.stride_tricks.sliding_window_view(W, n, axis=1)
    got = pred(V)
    assert got.dtype == bool and got.shape == (5, 21 - n)
    assert got.tolist() == [[rule(w) for w in row] for row in V.tolist()]
    # windows of another length are refused, not cut or padded
    for bad in (np.zeros((3, n + 1), dtype=np.int64), np.zeros(n - 1, dtype=np.int64), 0):
        with pytest.raises(errors.RankMismatchError, match=f"length n = {n}"):
            pred(bad)


def test_from_dict_specs():
    assert targets.from_dict({"cylinder": "0,1,1"}, 2).words == ((0, 1, 1),)
    t = targets.from_dict({"hamming": {"center": "0,0,0", "D": 0.34}}, 2)
    assert t.kappa == 4
    u = targets.from_dict(
        {"union": [{"cylinder": "0,0"}, {"cylinder": "1,1"}]}, 2)
    assert u.kappa == 2


U2 = uniform_iid(2)


def test_point_cylinders_recycle_the_word():
    cyls = targets.point_cylinders(U2, "0,1", range(1, 5))
    assert [t.words for t in cyls] == [
        ((0,),), ((0, 1),), ((0, 1, 0),), ((0, 1, 0, 1),)]
    assert [t.words for t in targets.point_cylinders(U2, "10", range(2, 3))] == [((10, 10),)]
    assert [t.n for t in targets.point_cylinders(U2, "0", iter(range(2, 4)))] == [2, 3]


def test_point_cylinders_read_a_range_from_its_ends():
    cyls = targets.point_cylinders(U2, "0", range(1, 2 ** 63 + 1))  # never listed
    assert [next(cyls).n for _ in range(3)] == [1, 2, 3]
    assert [t.n for t in targets.point_cylinders(U2, "0", range(3, 0, -1))] == [3, 2, 1]


CHAIN3 = markov([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.0, 0.4, 0.6]])


@given(st.lists(st.integers(0, 2), min_size=1, max_size=4), st.integers(1, 40))
def test_point_log_measure_is_the_log_of_the_cylinder_measure(point, n):
    # P[2, 0] = 0: a point that steps from 2 to 0 has measure 0 from n on.
    want = measure(CHAIN3, cylinder([point[i % len(point)] for i in range(n)]))
    got = point_log_measure(CHAIN3, point, n)
    assert got == -math.inf if want == 0.0 else math.isclose(got, math.log(want), rel_tol=1e-12)


def test_point_cylinders_refuse_only_far_underflows_early():
    # log mu(0^n) = -n ln 2 on U2: 2^-1074 is the smallest subnormal, and
    # 10 nats lie between n = 1088 and 1089.
    assert next(targets.point_cylinders(U2, "0", [1088])).n == 1088
    with pytest.raises(errors.MeasureUnderflowError, match="log10 mu\\(A\\) = -327.8"):
        next(targets.point_cylinders(U2, "0", [1089]))
    assert next(targets.point_cylinders(CHAIN3, "2,0", [3000])).n == 3000  # measure 0
    assert next(targets.point_cylinders(U2, "5", [3000])).n == 3000  # left to word_measures


@pytest.mark.parametrize("n_range, n", [(range(0, 3), 0), (range(-2, 3), -2),
                                        (range(3, -1, -1), 0),
                                        (range(-2 ** 63, 2 ** 63), -2 ** 63)])
def test_point_cylinders_refuse_lengths_below_one(n_range, n):
    message = f"cylinder length n = {n} in {n_range!r} must be >= 1"
    with pytest.raises(errors.DomainError, match=re.escape(message)):
        targets.point_cylinders(U2, "0", n_range)


def test_symbols_beyond_64_bits_are_refused_typed():
    assert cylinder([2 ** 63 - 1]).array.tolist() == [[2 ** 63 - 1]]
    for symbol in (2 ** 63, 2 ** 64, -1):  # refused before any int64 array
        with pytest.raises(errors.SymbolOutOfRangeError, match=r"must lie in 0..2\^63-1"):
            cylinder([0, symbol])


@pytest.mark.parametrize("D", [2 ** 1100, "1e999x"])
def test_hamming_radius_must_be_a_float(D):
    with pytest.raises(errors.ConfigInvalidError, match="needs a number under 'D'"):
        targets.from_dict({"hamming": {"center": "0,1", "D": D}}, 2)


def test_radius_beyond_the_word_is_the_whole_word():
    assert hamming_predicate([0, 1], 1e308, 2).radius == 2
    assert hamming_ball([0, 1], 1e308, 2).kappa == 4


@pytest.mark.parametrize("text", ["", " 1", "+1", "-1", "1.0", "\u0661"])
def test_words_are_plain_decimal_numerals(text):
    with pytest.raises(errors.ConfigInvalidError, match="without leading zeros"):
        targets.point_cylinders(U2, text, range(1, 3))
    with pytest.raises(errors.ConfigInvalidError, match="without leading zeros"):
        targets.from_dict({"cylinder": text}, 2)


def test_hamming_ball_count_mismatch_raises_typed_error(monkeypatch):
    monkeypatch.setattr(targets, "hamming_ball_size", lambda n, r, q: 2)
    with pytest.raises(errors.ConsistencyError):
        hamming_ball([0, 0, 0], 0.34, 2)


@pytest.mark.parametrize("n, words, error", [
    (3, ((0, 1),), errors.RankMismatchError),            # word shorter than n
    (2, ((0, 1, 1),), errors.RankMismatchError),         # word longer than n
    (2, (), errors.RankMismatchError),                   # no words
    (2, ((0, 1), (0,)), errors.RankMismatchError),       # ragged
    (1, (0, 1), errors.RankMismatchError),               # symbols where words belong
    (0, ((),), errors.RankMismatchError),                # rank zero
    (3, np.zeros((2, 2), np.int64), errors.RankMismatchError),
    (2, np.zeros((0, 2), np.int64), errors.RankMismatchError),
    (2, np.zeros(2, np.int64), errors.RankMismatchError),
    (2, ((0, -1),), errors.SymbolOutOfRangeError),
    (2, ((0, 2 ** 63),), errors.SymbolOutOfRangeError),
    (2, np.array([[0, -1]], np.int64), errors.SymbolOutOfRangeError),
    (1, np.array([[2 ** 63]], np.uint64), errors.SymbolOutOfRangeError),
])
def test_hand_built_targets_are_refused_typed(n, words, error):
    with pytest.raises(error):
        targets.TargetSet(n, words)


def test_target_sets_are_read_only():
    t = cylinder([0, 1])
    with pytest.raises(AttributeError):
        t.n = 3
    with pytest.raises(ValueError):  # numpy refuses writes to a read-only array
        t.array[0, 0] = 1
    assert t == cylinder([0, 1]) and hash(t) == hash(cylinder([0, 1]))
    u = pickle.loads(pickle.dumps(t))
    assert u == t and not u.array.flags.writeable


def test_repeated_words_count_once():
    t = targets.TargetSet(2, ((1, 1), (1, 1)))
    assert (t.kappa, t.words) == (1, ((1, 1),))
    assert measure(uniform_iid(2), t) == 0.25


def test_a_one_word_array_is_kept_as_given_without_a_sort(monkeypatch):
    monkeypatch.setattr(np, "lexsort", None)  # one word needs no sort
    words = np.array([[3, 0, 2, 2, 1]], dtype=np.int64)
    t = targets.TargetSet(5, words)
    assert t.array.tolist() == [[3, 0, 2, 2, 1]] and t.kappa == 1
    assert t.array.dtype == np.int64 and not t.array.flags.writeable
    assert t.array is not words and words.flags.writeable  # the caller's array is untouched
    assert t == cylinder([3, 0, 2, 2, 1])


@settings(max_examples=100, deadline=None)
@given(q=st.integers(2, 4), n=st.integers(1, 5), as_array=st.booleans(), data=st.data())
def test_any_word_order_gives_the_sorted_set(q, n, as_array, data):
    word = st.tuples(*[st.integers(0, q - 1)] * n)
    words = data.draw(st.lists(word, min_size=1, max_size=12))
    words = words + data.draw(st.lists(st.sampled_from(words), max_size=6))  # repeats
    words = data.draw(st.permutations(words))
    t = targets.TargetSet(n, np.array(words, dtype=np.int64) if as_array else words)
    ref = targets.TargetSet(n, sorted(set(words)))
    assert t == ref
    assert t.words == ref.words == tuple(sorted(set(words)))
    assert t.array.tolist() == ref.array.tolist() and t.kappa == ref.kappa
    assert t.array.dtype == np.int64 and not t.array.flags.writeable
    model = uniform_iid(q)
    assert measure(model, t) == measure(model, ref)
    a, b = build_automaton(t, q), build_automaton(ref, q)
    assert np.array_equal(a.goto, b.goto) and np.array_equal(a.last, b.last)
    assert np.array_equal(a.accepting, b.accepting)


@settings(max_examples=100, deadline=None)
@given(q=st.integers(2, 4), n=st.integers(1, 6), D=st.floats(0.0, 1.0), data=st.data())
def test_shuffled_and_repeated_rows_of_a_ball_give_that_ball(q, n, D, data):
    center = data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))
    ball = hamming_ball(center, D, q)
    order = data.draw(st.permutations(range(ball.kappa)))
    repeats = data.draw(st.lists(st.integers(0, ball.kappa - 1), max_size=8))
    t = targets.TargetSet(n, ball.array[list(order) + repeats])
    assert t == ball and t.array.tobytes() == ball.array.tobytes()


def test_an_ascending_array_is_copied_without_a_sort(monkeypatch):
    monkeypatch.setattr(np, "lexsort", None)  # rows that already ascend need no sort
    words = np.array([[0, 2, 1], [0, 2, 3], [1, 0, 0], [1, 0, 2]], dtype=np.int64)
    t = targets.TargetSet(3, words)
    assert t.array.tolist() == [[0, 2, 1], [0, 2, 3], [1, 0, 0], [1, 0, 2]]
    assert t.array.dtype == np.int64 and not t.array.flags.writeable
    assert words.flags.writeable and not np.shares_memory(t.array, words)
    words[0, 0] = 3  # the caller's array stays theirs
    assert t.array[0, 0] == 0


def test_a_ball_and_its_chain_never_sort_and_build_no_word_tuples(monkeypatch):
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
    ball = hamming_ball([0] * 10, 0.3, 4)
    chain = ComposedChain(uniform_iid(4), ball)
    chain.start("hitting")
    chain.start("return")
    assert (ball.kappa, chain.size, len(calls)) == (3676, 493, 0)
    assert "words" not in vars(ball)
