import bisect
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from rarehit import (
    TargetSet,
    cylinder,
    derive_seed,
    empirical_tail,
    errors,
    exact,
    hamming_ball,
    hamming_predicate,
    hitting_tail,
    iid,
    ks_distance,
    markov,
    mc,
    measure,
    return_tail,
    sample_hitting,
    sample_return,
    targets,
    uniform_iid,
    union,
)
from rarehit.cli import EXIT_CONFIG, main
from rarehit.process import word_measures

UNIFORM2 = uniform_iid(2)


def test_seed_derivation_frozen():
    # the derivation scheme is an external contract; these values are pinned
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(12345, 7) == 7959005890829367068
    assert derive_seed(0, 0) != derive_seed(0, 1)


EDGE_SEEDS = [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1, -1, 2 ** 64 + 5]


@pytest.mark.parametrize("master", EDGE_SEEDS + [1, 2 ** 63, 12345])
def test_derive_seeds_equals_derive_seed(master):
    expected = [derive_seed(master, i) for i in range(700, 1300)]
    assert mc.derive_seeds(master, 700, 1300).tolist() == expected


def _check_tile_streams(master, lo, rows, steps):
    """Draw each (live rows, width) step from one tile's vectorized streams
    and from numpy's per-trajectory Generators: the doubles must agree bit for
    bit."""
    streams = mc._TileStreams(*mc._seed_sequence_state(mc.derive_seeds(master, lo, lo + rows)))
    gens = [np.random.Generator(np.random.PCG64(derive_seed(master, lo + r)))
            for r in range(rows)]
    for live, width in steps:
        got = streams.draw(np.asarray(live, dtype=np.int64), width)
        want = np.array([gens[r].random(width) for r in live]).reshape(len(live), width)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@st.composite
def _stream_cases(draw):
    """A master seed, a tile offset, a row count and a sequence of draws,
    each on a subset of the rows, with widths 1, a window length n, the
    chunk (32) and wider than a chunk."""
    rows = draw(st.integers(1, 40))
    live = st.lists(st.booleans(), min_size=rows, max_size=rows).map(
        lambda keep: np.flatnonzero(keep).tolist())
    width = st.one_of(st.sampled_from([1, 32]), st.integers(2, 8), st.integers(33, 80))
    steps = draw(st.lists(st.tuples(live, width), min_size=1, max_size=6))
    return draw(st.integers(0, 2 ** 64 - 1)), draw(st.integers(1, 10 ** 6)), rows, steps


@settings(max_examples=60, deadline=None)
@given(case=_stream_cases())
def test_tile_streams_match_numpy_generators(case):
    _check_tile_streams(*case)


@pytest.mark.parametrize("master", EDGE_SEEDS)
def test_tile_streams_match_numpy_generators_at_edge_seeds(master):
    all_rows = list(range(50))
    steps = [(all_rows, 1), (all_rows, 4), (all_rows, 32), (all_rows[::3], 45),
             (all_rows[7:9], 32), (all_rows, 70)]
    _check_tile_streams(master, 511, 50, steps)


def test_hitting_determinism():
    a = sample_hitting(UNIFORM2, cylinder([1, 1]), 500, seed=42, censor_cap=100)
    b = sample_hitting(UNIFORM2, cylinder([1, 1]), 500, seed=42, censor_cap=100)
    assert np.array_equal(a.times, b.times)
    assert np.array_equal(a.censored, b.censored)


def test_prefix_stability_across_N():
    # per-trajectory seeding: the first 100 samples of a 500-run equal a 100-run
    a = sample_hitting(UNIFORM2, cylinder([1]), 500, seed=9, censor_cap=64)
    b = sample_hitting(UNIFORM2, cylinder([1]), 100, seed=9, censor_cap=64)
    assert np.array_equal(a.times[:100], b.times)


def test_hitting_geometric_mean():
    batch = sample_hitting(UNIFORM2, cylinder([1]), 10 ** 4, seed=5, censor_cap=200)
    assert batch.n_censored == 0
    se = np.sqrt(2.0 / 10 ** 4)  # geometric(1/2) has variance 2
    assert abs(batch.times.mean() - 2.0) <= 3 * se


def test_hitting_tail_value_within_3_sigma():
    N = 10 ** 4
    batch = sample_hitting(UNIFORM2, cylinder([1, 1]), N, seed=17, censor_cap=200)
    emp = empirical_tail(batch, 10)
    p = 5 / 8  # exact H(2)
    assert abs(emp.values[2] - p) <= 3 * np.sqrt(p * (1 - p) / N)


def test_return_geometric():
    N = 10 ** 4
    batch = sample_return(UNIFORM2, cylinder([1]), N, seed=3, censor_cap=200)
    emp = empirical_tail(batch, 8)
    ref = return_tail(UNIFORM2, cylinder([1]), 8)
    assert ks_distance(emp, ref) <= 1.36 / np.sqrt(N) * 2


def test_return_conditional_construction_explicit():
    # singleton cylinder: direct conditional draw, matches exact return tail
    mk = markov([[0.9, 0.1], [0.5, 0.5]])
    batch = sample_return(mk, cylinder([0, 1]), 4000, seed=11, censor_cap=400)
    emp = empirical_tail(batch, 30)
    ref = return_tail(mk, cylinder([0, 1]), 30)
    assert ks_distance(emp, ref) <= 0.04


def test_return_rejection_for_predicate():
    pred = hamming_predicate([0] * 6, 0.2, 2)
    batch = sample_return(UNIFORM2, pred, 1000, seed=8, censor_cap=400)
    from rarehit import hamming_ball
    ref = return_tail(UNIFORM2, hamming_ball([0] * 6, 0.2, 2), 50)
    emp = empirical_tail(batch, 50)
    assert ks_distance(emp, ref) <= 0.06


def test_rejection_budget(monkeypatch):
    pred = hamming_predicate([0] * 14, 0.01, 2)  # acceptance 2^-14
    monkeypatch.setattr(mc, "REJECTION_BUDGET", 20)
    with pytest.raises(errors.RejectionBudgetExceededError):
        sample_return(UNIFORM2, pred, 50, seed=1, censor_cap=10)


def test_predicate_hitting_matches_explicit():
    from rarehit import hamming_ball
    pred = hamming_predicate([0, 1, 0, 1], 0.3, 2)
    ball = hamming_ball([0, 1, 0, 1], 0.3, 2)
    a = sample_hitting(UNIFORM2, pred, 300, seed=21, censor_cap=100)
    b = sample_hitting(UNIFORM2, ball, 300, seed=21, censor_cap=100)
    assert np.array_equal(a.times, b.times)


def test_censoring_reported():
    batch = sample_hitting(UNIFORM2, cylinder([1] * 10), 200, seed=2, censor_cap=5)
    assert batch.n_censored > 0
    assert np.all(batch.times[batch.censored] == 5)
    emp = empirical_tail(batch, 5)
    assert emp.values[5] >= batch.n_censored / 200


def test_default_censor_cap():
    assert mc.default_censor_cap(UNIFORM2, cylinder([1])) == 100  # 50 / 0.5
    assert mc.default_censor_cap(UNIFORM2, cylinder([1]), 0.25) == 200  # the caller's mu(A)
    assert mc.default_censor_cap(UNIFORM2, cylinder([1]), 5e-324) == 2 ** 63  # 50/mu(A) is inf
    for mu_A in (0.0, -0.5, math.nan):
        with pytest.raises(errors.ZeroMeasureSetError, match="zero measure; no hit is expected"):
            mc.default_censor_cap(UNIFORM2, cylinder([1]), mu_A)


@pytest.mark.parametrize("kind", ["hitting", "return"])
def test_a_default_cap_batch_measures_its_words_once(monkeypatch, kind):
    # the default cap and the return's word choice share one word_measures
    # call, made by exact.positive_measures
    calls = []

    def counted(model, words):
        calls.append(len(words))
        return word_measures(model, words)

    monkeypatch.setattr(exact, "word_measures", counted)
    monkeypatch.setattr(targets, "word_measures", counted)
    ball = hamming_ball([0] * 8, 0.25, 4)
    batch = getattr(mc, f"sample_{kind}")(uniform_iid(4), ball, 4, seed=0)
    assert (ball.kappa, calls) == (277, [277])
    assert batch.censor_cap == mc.default_censor_cap(uniform_iid(4), ball) == 11830


@pytest.mark.parametrize("K", [0, 7, 25, None])
def test_empirical_tail_equals_the_matrix_formula(K):
    # Censored rows (time == cap) count as survivors at every k <= cap.
    batch = sample_hitting(UNIFORM2, cylinder([1] * 5), 700, seed=9, censor_cap=25)
    assert 0 < batch.n_censored < 700
    k = np.arange((batch.censor_cap if K is None else K) + 1)
    t_eff = np.where(batch.censored, np.inf, batch.times.astype(float))
    matrix = (t_eff[None, :] > k[:, None]).mean(axis=1)
    assert np.array_equal(empirical_tail(batch, K).values, matrix)


def test_empirical_tail_beyond_cap_rejected():
    batch = sample_hitting(UNIFORM2, cylinder([1]), 100, seed=4, censor_cap=10)
    with pytest.raises(errors.HorizonMismatchError):
        empirical_tail(batch, 11)


def test_ks_distance():
    t = hitting_tail(UNIFORM2, cylinder([1]), 20)
    assert ks_distance(t, t) == 0.0
    s = hitting_tail(UNIFORM2, cylinder([1]), 15)
    with pytest.raises(errors.HorizonMismatchError):
        ks_distance(t, s)


def test_dkw_calibration_small():
    N = 10 ** 4
    ref = hitting_tail(UNIFORM2, cylinder([1, 1]), 200)
    fails = 0
    for seed in range(5):
        batch = sample_hitting(UNIFORM2, cylinder([1, 1]), N, seed=seed, censor_cap=200)
        if ks_distance(empirical_tail(batch, 200), ref) > 1.36 / np.sqrt(N):
            fails += 1
    # the 95% band admits occasional excursions; require at most one of five
    assert fails <= 1


def test_batch_csv_deterministic():
    def dump(seed):
        batch = sample_hitting(UNIFORM2, cylinder([1, 1]), 50, seed=seed, censor_cap=30)
        buf = io.StringIO()
        mc.write_batch_csv(buf, batch)
        return buf.getvalue()

    assert dump(7) == dump(7)
    assert dump(7) != dump(8)
    lines = dump(7).splitlines()
    assert lines[0] == "# seed=7"
    assert lines[3] == "trajectory_index,time,censored"


def _reference_batch(model, target, kind, N, seed, cap):
    """The per-symbol scanner: each trajectory draws one uniform per symbol
    from its own stream and tests one window at a time.  Returns the times,
    the censored flags and the number of rejected initial windows."""
    q, n = model.alphabet_size, target.n
    cum = np.cumsum(model.stationary)
    rows = np.cumsum(model.transition, axis=1)
    explicit = isinstance(target, TargetSet)
    inside = (lambda w: tuple(w) in target.words) if explicit else target
    times, cens, rejections = [], [], 0
    for i in range(N):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, i)))

        def extend(w, length):  # `length` more symbols after the word w
            w = list(w)
            for _ in range(length):
                c = rows[w[-1]] if w else cum
                w.append(min(int(np.searchsorted(c, rng.random(), side="right")), q - 1))
            return w

        if kind == "hitting":
            w = extend([], n)
        elif explicit:
            weights = word_measures(model, np.array(target.words, dtype=np.int64))
            j = np.searchsorted(np.cumsum(weights / weights.sum()), rng.random(), side="right")
            w = target.words[min(j, target.kappa - 1)]
        else:
            while not inside(w := extend([], n)):
                rejections += 1
        for k in range(1, cap + 1):
            w = extend(w, 1)[1:]
            if inside(w):
                break
        else:
            k = cap + 1
        times.append(min(k, cap))
        cens.append(k > cap)
    return np.array(times), np.array(cens), rejections


@st.composite
def _mc_cases(draw):
    """A source on 2-4 symbols, a small union or a Hamming predicate, a kind,
    N up to two row tiles and a cap up to three uniform chunks."""
    q = draw(st.integers(2, 4))
    weights = st.integers(1, 9)
    if draw(st.booleans()):
        P = np.array([[draw(weights) for _ in range(q)] for _ in range(q)], dtype=float)
        model = markov(P / P.sum(axis=1, keepdims=True))
    else:
        p = np.array([draw(weights) for _ in range(q)], dtype=float)
        model = iid(p / p.sum())
    n = draw(st.integers(1, 4))
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    if draw(st.booleans()):
        target = union([cylinder(w) for w in draw(st.lists(word, min_size=1, max_size=4))])
    else:
        target = hamming_predicate(draw(word), draw(st.sampled_from([0.0, 0.3, 0.5])), q)
    N = draw(st.one_of(st.integers(1, 60), st.integers(500, 1030)))
    return (model, target, draw(st.sampled_from(["hitting", "return"])), N,
            draw(st.integers(0, 2 ** 64 - 1)), draw(st.integers(1, 100)))


def _rows(q, tenths=False):
    """A stochastic q x q matrix of random rows; with ``tenths``, row 0 is
    ten 0.1's (q = 10), whose float cumulative sum 0.9999999999999999 < 1."""
    P = np.random.default_rng(q).integers(1, 10, (q, q)).astype(float)
    P /= P.sum(axis=1, keepdims=True)
    if tenths:
        P[0] = 0.1
    return P


NEAR_PERIODIC = markov([[1e-9, 1 - 1e-9], [1 - 1e-9, 1e-9]])  # a hard regime for the sampler


@settings(max_examples=40, deadline=None)
@given(case=_mc_cases())
@example(case=(NEAR_PERIODIC, union([cylinder([0, 0, 1]), cylinder([1, 0, 1])]), "hitting", 600,
               2 ** 64 - 1, 70))
@example(case=(NEAR_PERIODIC, hamming_predicate([0, 1, 0], 0.4, 2), "return", 40, 5, 90))
# Explicit targets on a Markov source, on each side of the pair table's
# memory rule: a q = 2 cylinder scans through the table (4 bins x 4 pairs),
# a q = 16 ball falls back to the symbol map (256 bins x 154 pairs, more
# than L's 256 x 17 entries plus a round's 512 x 32).
@example(case=(markov([[0.7, 0.3], [0.2, 0.8]]), cylinder([1, 0, 1]), "hitting", 600, 77, 60))
@example(case=(markov(_rows(16)), hamming_ball([0] * 4, 0.25, 16), "return", 60, 3, 100))
def test_lockstep_batches_match_the_per_symbol_scanner(case):
    model, target, kind, N, seed, cap = case
    sampler = sample_hitting if kind == "hitting" else sample_return
    batch = sampler(model, target, N, seed, censor_cap=cap)
    times, cens, _ = _reference_batch(model, target, kind, N, seed, cap)
    assert np.array_equal(batch.times, times)
    assert np.array_equal(batch.censored, cens)


def test_prefix_stability_across_a_row_tile():
    mk = markov([[0.9, 0.1], [0.5, 0.5]])
    for sampler in (sample_hitting, sample_return):
        a = sampler(mk, cylinder([0, 1]), 1100, seed=4, censor_cap=50)
        b = sampler(mk, cylinder([0, 1]), 512, seed=4, censor_cap=50)
        assert np.array_equal(a.times[:512], b.times)
        assert np.array_equal(a.censored[:512], b.censored)


SCHEDULE_CASES = {
    "iid-explicit": (UNIFORM2, union([cylinder([1, 1, 0, 1, 0, 0]), cylinder([0, 0, 0, 1, 1, 1])])),
    "markov-explicit": (markov([[0.9, 0.1], [0.5, 0.5]]), cylinder([0, 1, 1])),
    "iid-predicate": (uniform_iid(3), hamming_predicate([0, 1, 2, 0, 2, 1], 0.17, 3)),
    "markov-predicate": (markov([[0.6, 0.3, 0.1], [0.2, 0.2, 0.6], [0.3, 0.4, 0.3]]),
                         hamming_predicate([2, 2, 0, 1], 0.25, 3)),
}


@pytest.fixture(scope="module")
def default_schedule_batches():
    """Each case's hitting and return batch under the default schedule: 1100
    rows (three row tiles) with a cap of 45 that no sum of widths reaches."""
    return {name: [sampler(model, target, 1100, seed=3, censor_cap=45)
                   for sampler in (sample_hitting, sample_return)]
            for name, (model, target) in SCHEDULE_CASES.items()}


@pytest.mark.parametrize("first, seed_tiles", [(1, 1), (3, 2), (8, 1), (32, 4)])
@pytest.mark.parametrize("name", SCHEDULE_CASES)
def test_draw_schedule_is_not_part_of_the_contract(monkeypatch, default_schedule_batches,
                                                   name, first, seed_tiles):
    # rounds that start at another width, and tiles seeded in other groups
    monkeypatch.setattr(mc, "_FIRST", first)
    monkeypatch.setattr(mc, "_SEED_TILES", seed_tiles)
    model, target = SCHEDULE_CASES[name]
    for sampler, want in zip((sample_hitting, sample_return), default_schedule_batches[name]):
        assert 0 < want.n_censored < want.N  # both hits and censored rows
        got = sampler(model, target, 1100, seed=3, censor_cap=45)
        assert np.array_equal(got.times, want.times)
        assert np.array_equal(got.censored, want.censored)


@pytest.mark.parametrize("cap", [1, 7, 9, 24, 57, 100])
@pytest.mark.parametrize("kind", ["hitting", "return"])
def test_no_uniform_is_drawn_past_the_cap(monkeypatch, kind, cap):
    draws = {}  # per tile: its streams (kept alive, so ids stay unique) and counts
    real = mc._TileStreams.draw

    def counted(self, rows, width):
        draws.setdefault(id(self), (self, np.zeros(self.hi.size, dtype=np.int64)))[1][rows] += width
        return real(self, rows, width)

    monkeypatch.setattr(mc._TileStreams, "draw", counted)
    target = cylinder([1, 0, 1, 1, 0, 1])
    sampler = sample_hitting if kind == "hitting" else sample_return
    batch = sampler(UNIFORM2, target, 700, seed=5, censor_cap=cap)
    used = np.concatenate([counts for _, counts in draws.values()])  # in tile order
    before = target.n if kind == "hitting" else 1  # uniforms of the initial window
    assert batch.n_censored > 0 and used.size == batch.N
    assert used.max() <= before + cap
    assert (used[batch.censored] == before + cap).all()
    assert (used >= before + batch.times).all()


@pytest.mark.parametrize("sampler", [sample_hitting, sample_return])
def test_censoring_at_every_cap_truncates_a_longer_batch(sampler):
    # a row that hits exactly at the cap is not censored, whatever the cap
    long = sampler(UNIFORM2, cylinder([1] * 4), 300, seed=12, censor_cap=150)
    for cap in range(1, 100):
        batch = sampler(UNIFORM2, cylinder([1] * 4), 300, seed=12, censor_cap=cap)
        assert np.array_equal(batch.times, np.minimum(long.times, cap))
        assert np.array_equal(batch.censored, long.censored | (long.times > cap))


def test_rejection_budget_is_exact_across_tiles(monkeypatch):
    # raised exactly when the total over all rows and tiles exceeds the budget
    pred = hamming_predicate([0] * 4, 0.0, 2)
    N, cap = 600, 5
    _, _, total = _reference_batch(UNIFORM2, pred, "return", N, 6, cap)
    assert total > 0
    monkeypatch.setattr(mc, "REJECTION_BUDGET", total)
    sample_return(UNIFORM2, pred, N, seed=6, censor_cap=cap)
    monkeypatch.setattr(mc, "REJECTION_BUDGET", total - 1)
    with pytest.raises(errors.RejectionBudgetExceededError):
        sample_return(UNIFORM2, pred, N, seed=6, censor_cap=cap)


@pytest.mark.parametrize("sampler", [sample_hitting, sample_return])
def test_batch_size_below_one_raises_typed_error(sampler):
    with pytest.raises(errors.DomainError):
        sampler(UNIFORM2, cylinder([1]), 0, seed=1, censor_cap=10)


def test_predicate_without_cap_raises_typed_error():
    with pytest.raises(errors.DomainError):
        sample_hitting(UNIFORM2, hamming_predicate([0, 1], 0.5, 2), 10, seed=1)


def test_target_of_unknown_type_raises_typed_error():
    with pytest.raises(errors.DomainError):
        sample_hitting(UNIFORM2, [[0, 1]], 10, seed=1, censor_cap=10)


def test_cli_mc_rejects_empty_batch(tmp_path):
    code = main(["mc", "--model", "iid-uniform-2", "--target", "cyl:1", "--N", "0",
                 "--seed", "1", "--out", str(tmp_path / "mc.csv")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("cap", [0, -3])
@pytest.mark.parametrize("sampler", [sample_hitting, sample_return])
def test_cap_below_one_raises_typed_error(sampler, cap):
    with pytest.raises(errors.DomainError):
        sampler(UNIFORM2, cylinder([1]), 10, seed=1, censor_cap=cap)


@pytest.mark.parametrize("sampler", [sample_hitting, sample_return])
def test_cap_beyond_int64_is_refused_before_any_draw(sampler, monkeypatch):
    assert sampler(UNIFORM2, cylinder([1]), 5, seed=1, censor_cap=2 ** 63 - 1).N == 5
    monkeypatch.setattr(mc, "_TileStreams", None)  # a draw would now fail untyped
    # 2^63 given, and the default cap 50 / 2^-70 of the cylinder 1^70
    for target, cap in [(cylinder([1]), 2 ** 63), (cylinder([1] * 70), None)]:
        with pytest.raises(errors.CensorCapTooLargeError, match="int64 hit-time limit"):
            sampler(UNIFORM2, target, 5, seed=1, censor_cap=cap)
    assert issubclass(errors.CensorCapTooLargeError, errors.ResourceCapError)


@pytest.mark.parametrize("arg, value", [("N", 2.5), ("N", 5.0), ("seed", 1.5), ("seed", None),
                                        ("censor_cap", 10.5), ("censor_cap", 10.0)])
@pytest.mark.parametrize("sampler", [sample_hitting, sample_return])
def test_non_integer_arguments_raise_typed_error(sampler, arg, value):
    args = {"N": 5, "seed": 1, "censor_cap": 10} | {arg: value}
    with pytest.raises(errors.DomainError, match=f"{arg} must be an integer"):
        sampler(UNIFORM2, cylinder([1]), **args)


@pytest.mark.parametrize("sampler", [sample_hitting, sample_return])
def test_numpy_integer_arguments_match_python_ints(sampler):
    want = sampler(UNIFORM2, cylinder([1, 1]), 50, seed=2 ** 64 - 1, censor_cap=30)
    got = sampler(UNIFORM2, cylinder([1, 1]), np.int32(50), seed=np.uint64(2 ** 64 - 1),
                  censor_cap=np.int64(30))
    assert (got.N, got.seed, got.censor_cap) == (want.N, want.seed, want.censor_cap)
    assert np.array_equal(got.times, want.times)
    assert np.array_equal(got.censored, want.censored)


@pytest.mark.parametrize("model, pred", [(UNIFORM2, hamming_predicate([3, 3], 0.5, 4)),
                                         (uniform_iid(3), hamming_predicate([0, 1], 0.5, 2))])
@pytest.mark.parametrize("sampler", [sample_hitting, sample_return])
def test_predicate_over_another_alphabet_raises_typed_error(sampler, model, pred):
    with pytest.raises(errors.SymbolOutOfRangeError, match="predicate alphabet"):
        sampler(model, pred, 10, seed=1, censor_cap=10)


def test_markov_pair_table_memory_is_bounded():
    # q = 64 Markov: 4,096 bins, so the pair table of this 381-pair ball
    # would hold 1.6M entries (12.5 MB), six times L's 4,096 x 65.
    import tracemalloc
    model, ball = markov(_rows(64)), hamming_ball([0] * 3, 0.34, 64)
    L = mc._symbol_table(model)[1]
    tracemalloc.start()
    try:
        batch = sample_hitting(model, ball, 600, seed=0, censor_cap=100)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0 < batch.n_censored < batch.N
    assert peak < 2 * L.nbytes


def test_zero_measure_target_raises_typed_error():
    never_one = iid([1.0, 0.0])
    with pytest.raises(errors.ZeroMeasureSetError):  # the default cap is 50 / mu(A)
        sample_hitting(never_one, cylinder([1, 1]), 10, seed=1)
    with pytest.raises(errors.ZeroMeasureSetError):  # no return conditioned on A
        sample_return(never_one, cylinder([1, 1]), 10, seed=1, censor_cap=10)
    # With a cap given, hitting a null set is well defined: never, so censored.
    batch = sample_hitting(never_one, cylinder([1, 1]), 10, seed=1, censor_cap=10)
    assert batch.censored.all()


SYMBOL_MODELS = {
    "q2-near-periodic": NEAR_PERIODIC,
    "q2-iid": iid([0.3, 0.7]),
    "q3-markov": markov([[0.2, 0.3, 0.5], [0.5, 0.25, 0.25], [1 / 3, 1 / 3, 1 / 3]]),
    "q4-iid": iid([0.1, 0.2, 0.3, 0.4]),
    # zero transitions: bounds shared by several laws, and within one law
    "q4-markov-zeros": markov([[0.5, 0, 0.5, 0], [0.25] * 4, [0, 0.5, 0, 0.5],
                               [0.1, 0.2, 0.3, 0.4]]),
    "q10-iid-tenths": iid([0.1] * 10),
    "q10-markov-tenths": markov(_rows(10, tenths=True)),
    "q26-iid": iid(np.arange(1, 27) / np.arange(1, 27).sum()),
    "q26-markov": markov(_rows(26)),
    "q100-markov": markov(_rows(100)),  # 9,999 merged bounds: 14 search rounds
}


@pytest.mark.parametrize("model", SYMBOL_MODELS.values(), ids=SYMBOL_MODELS.keys())
def test_symbols_follow_the_per_symbol_rule(model):
    """_symbols against min(searchsorted(row, u, "right"), q-1) on the
    cumulative law of the previous symbol (the stationary law after -1), at
    every bound, just below and above it, at 0 and at 1 - 2^-53."""
    q = model.alphabet_size
    cums = {-1: np.cumsum(model.stationary)} | dict(enumerate(np.cumsum(model.transition, axis=1)))
    rows = {a: row.tolist() for a, row in cums.items()}

    def symbol(prev, u):
        return min(bisect.bisect_right(rows[prev], u), q - 1)

    def near(values):  # the values, their neighbours, 0 and 1 - 2^-53; a uniform is < 1
        u = np.concatenate([values, [0.0, 1 - 2 ** -53]])
        u = np.unique(np.concatenate([u, np.nextafter(u, 0), np.nextafter(u, 2)]))
        return u[u < 1]

    u = near(np.concatenate(list(cums.values())))
    assert 1 - 2 ** -53 in u and (q != 10 or 0.9999999999999999 in u)
    table = mc._symbol_table(model)
    # one column: each law at and around its own bounds, and three laws
    # (after none, after 0 and after q-1) at and around every law's bounds
    pairs = [(a, x) for a, row in cums.items() for x in near(row).tolist()]
    pairs += [(a, x) for a in (-1, 0, q - 1) for x in u.tolist()]
    prev, U = np.array(pairs).T
    got = mc._symbols(table, U[:, None], prev.astype(np.int64))[:, 0]
    assert got.tolist() == [symbol(a, x) for a, x in pairs]
    # 32 columns: each symbol continues from the one before it
    U = np.random.default_rng(q).permutation(np.resize(u, 64 * 32)).reshape(64, 32)
    last = np.arange(64) % (q + 1) - 1
    want = []
    for a, row in zip(last.tolist(), U.tolist()):
        for x in row:
            a = symbol(a, x)
            want.append(a)
    assert mc._symbols(table, U, last).ravel().tolist() == want
