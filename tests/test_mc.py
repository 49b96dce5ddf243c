import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarehit import (
    TargetSet,
    cylinder,
    cylinder_measure,
    derive_seed,
    empirical_tail,
    errors,
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
    uniform_iid,
    union,
)
from rarehit.cli import EXIT_CONFIG, main

UNIFORM2 = uniform_iid(2)


def test_seed_derivation_frozen():
    # the derivation scheme is an external contract; these values are pinned
    assert derive_seed(0, 0) == 16294208416658607535
    assert derive_seed(12345, 7) == 7959005890829367068
    assert derive_seed(0, 0) != derive_seed(0, 1)


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


def test_rejection_budget():
    pred = hamming_predicate([0] * 14, 0.01, 2)  # acceptance 2^-14
    with pytest.raises(errors.RejectionBudgetExceededError):
        sample_return(UNIFORM2, pred, 50, seed=1, censor_cap=10,
                      rejection_budget=20)


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
    cum = np.cumsum(model.next_probs(None))
    rows = np.cumsum(model.transition, axis=1) if model.kind == "markov" else None
    explicit = isinstance(target, TargetSet)
    inside = (lambda w: tuple(w) in target) if explicit else target
    times, cens, rejections = [], [], 0
    for i in range(N):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, i)))

        def extend(w, length):  # `length` more symbols after the word w
            w = list(w)
            for _ in range(length):
                c = cum if rows is None or not w else rows[w[-1]]
                w.append(min(int(np.searchsorted(c, rng.random(), side="right")), q - 1))
            return w

        if kind == "hitting":
            w = extend([], n)
        elif explicit:
            weights = np.array([cylinder_measure(model, v) for v in target.words])
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


@settings(max_examples=40, deadline=None)
@given(case=_mc_cases())
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


@pytest.mark.parametrize("sampler", [sample_hitting, sample_return])
def test_censoring_at_every_cap_truncates_a_longer_batch(sampler):
    # a row that hits exactly at the cap is not censored, whatever the cap
    long = sampler(UNIFORM2, cylinder([1] * 4), 300, seed=12, censor_cap=150)
    for cap in range(1, 100):
        batch = sampler(UNIFORM2, cylinder([1] * 4), 300, seed=12, censor_cap=cap)
        assert np.array_equal(batch.times, np.minimum(long.times, cap))
        assert np.array_equal(batch.censored, long.censored | (long.times > cap))


def test_rejection_budget_is_exact_across_tiles():
    # raised exactly when the total over all rows and tiles exceeds the budget
    pred = hamming_predicate([0] * 4, 0.0, 2)
    N, cap = 600, 5
    _, _, total = _reference_batch(UNIFORM2, pred, "return", N, 6, cap)
    assert total > 0
    sample_return(UNIFORM2, pred, N, seed=6, censor_cap=cap, rejection_budget=total)
    with pytest.raises(errors.RejectionBudgetExceededError):
        sample_return(UNIFORM2, pred, N, seed=6, censor_cap=cap,
                      rejection_budget=total - 1)


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
