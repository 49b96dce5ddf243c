import hashlib
import io
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rarehit import (
    brute_force_tail,
    cli,
    build_automaton,
    cylinder,
    errors,
    exact,
    hamming_ball,
    hitting_tail,
    iid,
    markov,
    measure,
    return_expectation,
    return_tail,
    uniform_iid,
    union,
)

UNIFORM2 = uniform_iid(2)
MODELS = [iid([0.2, 0.8]), UNIFORM2, iid([0.8, 0.2]),
          markov([[0.9, 0.1], [0.5, 0.5]]), markov([[0.6, 0.4], [0.3, 0.7]])]
EQUAL_ROWS = markov([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])


def test_automaton_single_pattern_shape():
    aut = build_automaton(cylinder([1, 1]), 2)
    assert aut.num_states == 3  # epsilon, "1", "11"
    assert aut.accepting.sum() == 1


def test_automaton_accepts_only_full_windows():
    aut = build_automaton(cylinder([0]), 2)
    state = 0
    for sym in [1, 0, 0, 1]:
        state = aut.goto[state, sym]
        assert bool(aut.accepting[state]) == (sym == 0)


def test_automaton_vs_direct_window_scan():
    target = union([cylinder([0, 1]), cylinder([1, 0])])
    aut = build_automaton(target, 2)
    rng = np.random.default_rng(1)
    for _ in range(100):
        s = rng.integers(0, 2, size=20)
        state = 0
        for t in range(20):
            state = aut.goto[state, s[t]]
            expected = t >= 1 and tuple(s[t - 1:t + 1]) in target.words
            assert bool(aut.accepting[state]) == expected


def test_hitting_geometric():
    t = hitting_tail(UNIFORM2, cylinder([1]), 12)
    assert np.allclose(t.values, 0.5 ** np.arange(13), atol=1e-14)


def test_hitting_avoiding_11_is_fibonacci():
    t = hitting_tail(UNIFORM2, cylinder([1, 1]), 2)
    assert t.values[1] == pytest.approx(3 / 4, abs=1e-14)
    assert t.values[2] == pytest.approx(5 / 8, abs=1e-14)


def test_return_geometric_for_singleton():
    t = return_tail(UNIFORM2, cylinder([1]), 10)
    assert np.allclose(t.values, 0.5 ** np.arange(11), atol=1e-14)


def test_return_overlap_differs_from_hitting():
    hit = hitting_tail(UNIFORM2, cylinder([1, 1]), 4)
    ret = return_tail(UNIFORM2, cylinder([1, 1]), 4)
    # returning to 11 can happen immediately by overlap, hitting cannot
    assert ret.values[1] < hit.values[1]


def test_return_whole_alphabet_immediate():
    t = return_tail(UNIFORM2, union([cylinder([0]), cylinder([1])]), 5)
    assert np.all(t.values[1:] == 0.0)


def test_brute_force_frozen_regression():
    # enumeration of all 2^5 binary words: 16 of 32 avoid 11 at windows 1..3
    t = brute_force_tail(UNIFORM2, cylinder([1, 1]), 3, "hitting")
    assert t.values[3] == pytest.approx(16 / 32, abs=1e-15)


@pytest.mark.parametrize("model", MODELS)
def test_oracle_equivalence_small_grid(model):
    for L in (1, 2, 3):
        for w in itertools.product(range(2), repeat=L):
            A = cylinder(w)
            for kind, fn in (("hitting", hitting_tail), ("return", return_tail)):
                a = fn(model, A, 8)
                b = brute_force_tail(model, A, 8, kind)
                assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_oracle_equivalence_union_and_ball():
    A = hamming_ball([0, 1, 0], 0.34, 2)
    for model in (UNIFORM2, markov([[0.9, 0.1], [0.5, 0.5]])):
        for kind, fn in (("hitting", hitting_tail), ("return", return_tail)):
            a = fn(model, A, 6)
            b = brute_force_tail(model, A, 6, kind)
            assert np.max(np.abs(a.values - b.values)) <= 1e-12


def test_tails_monotone():
    for model in MODELS:
        t = hitting_tail(model, cylinder([1, 0, 1]), 30)
        assert np.all(np.diff(t.values) <= 0.0)


def test_first_step_mass_is_mu_A():
    # stationarity: H(0) - H(1) = mu(A) for hitting tails
    for model in MODELS:
        for A in (cylinder([1, 1]), hamming_ball([0, 1, 0], 0.34, 2)):
            t = hitting_tail(model, A, 2)
            assert t.values[0] - t.values[1] == pytest.approx(
                measure(model, A), abs=1e-12)


def test_return_expectation_kac():
    assert return_expectation(UNIFORM2, cylinder([1])) == pytest.approx(2.0, abs=1e-9)
    assert return_expectation(UNIFORM2, cylinder([1, 1])) == pytest.approx(4.0, abs=1e-9)
    mk = markov([[0.9, 0.1], [0.5, 0.5]])
    assert return_expectation(mk, cylinder([0, 1])) == pytest.approx(12.0, abs=1e-9)


def test_kac_identity_on_grid():
    for model in MODELS:
        for L in (1, 2, 3):
            for w in itertools.product(range(2), repeat=L):
                A = cylinder(w)
                mu = measure(model, A)
                if mu == 0.0:
                    continue
                assert return_expectation(model, A) * mu == pytest.approx(1.0, abs=1e-9)


def test_horizon_errors():
    with pytest.raises(errors.HorizonNonPositiveError):
        hitting_tail(UNIFORM2, cylinder([1]), 0)
    with pytest.raises(errors.HorizonNonPositiveError):
        return_tail(UNIFORM2, cylinder([1]), -1)


def test_horizons_must_be_integers():
    # A float is refused with a typed error, integral or not, before any
    # push or enumeration; numpy integers serve as Python ints do.
    target = cylinder([1, 1])
    engine = exact.TailEngine(exact.ComposedChain(UNIFORM2, target))
    calls = (lambda K: hitting_tail(UNIFORM2, target, K),
             lambda K: return_tail(UNIFORM2, target, K),
             engine.extend,
             lambda K: engine.grow(K, lambda H, F: True),
             lambda K: brute_force_tail(UNIFORM2, target, K))
    for call in calls:
        for K in (100.0, 2.5, "8"):
            with pytest.raises(errors.DomainError, match="K must be an integer"):
                call(K)
    assert engine.steps == 0
    for call in calls:
        assert np.array_equal(call(np.int32(8)).values, call(8).values)


def test_zero_measure_set(monkeypatch):
    # refused by the chain before it lumps the pairs or builds a kernel
    degenerate = iid([1.0, 0.0])
    lumped = []
    monkeypatch.setattr(exact, "_coarsest_stable", lambda *a: lumped.append(a))
    for call in (lambda: exact.ComposedChain(degenerate, cylinder([1])),
                 lambda: hitting_tail(degenerate, cylinder([1]), 5),
                 lambda: return_tail(degenerate, cylinder([1]), 5),
                 lambda: return_expectation(degenerate, cylinder([1]))):
        with pytest.raises(errors.ZeroMeasureSetError):
            call()
    assert lumped == []


def test_a_union_with_one_underflowed_word_is_refused_as_underflow():
    # Word 2,0,...: symbol 2 has probability 0, an exact zero factor; word
    # 0^1075 has measure 2^-1075 > 0, which underflows.  The union's float
    # measure is 0 but its measure is not, and log10 mu(A) is the second's.
    model = iid([0.5, 0.5, 0.0])
    zero, tiny = [2] + [0] * 1074, [0] * 1075
    with pytest.raises(errors.ZeroMeasureSetError, match="target has zero measure"):
        exact.positive_measures(model, cylinder(zero))
    with pytest.raises(errors.MeasureUnderflowError, match=r"log10 mu\(A\) = -323\.607$"):
        exact.positive_measures(model, union([cylinder(zero), cylinder(tiny)]))
    with pytest.raises(errors.MeasureUnderflowError, match=r"log10 mu\(A\) = -323\.306$"):
        exact.positive_measures(model, union([cylinder(tiny), cylinder([1] + tiny[1:])]))


def test_start_refuses_an_unknown_kind():
    chain = exact.ComposedChain(UNIFORM2, cylinder([1]))
    with pytest.raises(errors.InvalidTailError, match="kind must be hitting or return"):
        exact.TailEngine(chain, "hit")


def test_engine_refuses_horizon_beyond_the_step_cap():
    engine = exact.TailEngine(exact.ComposedChain(UNIFORM2, cylinder([1])))
    with pytest.raises(errors.HorizonTooLongError):
        engine.extend(exact.MAX_TAIL_STEPS + 1)
    assert engine.steps == 0


def test_enumeration_cap(monkeypatch):
    monkeypatch.setattr(exact, "BRUTE_FORCE_CAP", 100)
    with pytest.raises(errors.EnumerationTooLargeError):
        brute_force_tail(UNIFORM2, cylinder([1]), 10, "hitting")


def test_csv_export():
    hit = hitting_tail(UNIFORM2, cylinder([1, 1]), 4)
    ret = return_tail(UNIFORM2, cylinder([1, 1]), 4)
    buf = io.StringIO()
    exact.write_tails_csv(buf, hit, ret)
    lines = buf.getvalue().splitlines()
    assert lines[0].startswith("# mu_A=")
    assert lines[1] == "# source=exact"
    assert lines[2] == "k,H_hit,H_ret"
    assert lines[3] == "0,1.0,1.0"
    assert len(lines) == 3 + 5


def test_dense_and_sparse_paths_agree():
    # a ball big enough to cross the dense-size threshold
    A = hamming_ball([0, 1, 0, 1, 0, 1, 0, 1], 0.38, 2)
    t = hitting_tail(UNIFORM2, A, 10)
    b = brute_force_tail(UNIFORM2, A, 10, "hitting")
    assert np.max(np.abs(t.values - b.values)) <= 1e-12


def test_tail_cli_output_golden(tmp_path):
    # Dyadic case: every H value is exact in binary, so the bytes pin the
    # CSV format (header, reprs, empty cells) independently of push order.
    out = tmp_path / "tail.csv"
    assert cli.main(["tail", "--model", "iid-uniform-2", "--target", "cyl:1,0,1",
                     "--K", "40", "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "4ac93108fa5fc156db0ae6e94dcb1c86684a4efa06798a2011e612d142c0d48a")


def test_write_tails_csv_golden():
    rng = np.random.default_rng(0)
    H = np.concatenate(([1.0], np.sort(rng.random(30))[::-1]))
    G = np.concatenate(([1.0], np.sort(rng.random(30))[::-1] ** 3))
    hit = exact.TailDistribution("hitting", H, 0.1, "exact")
    ret = exact.TailDistribution("return", G, 0.1, "exact")
    digests = []
    for pair in ((hit, ret), (hit, None), (None, ret)):
        buf = io.StringIO()
        exact.write_tails_csv(buf, *pair)
        digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
    assert digests == [
        "d2f22bb0a9d5cb7ce60a8cb5e6a9c810b6a9548403f512d32889d7e7612da078",
        "8e4a394149864a4b679b9fba16a2ef179ea6cf9bda4f6133d8419892f4fbdc6b",
        "b1a7e7705be0e7ca359effe748857ed02af789ed92316399c25eb8f74082ec65",
    ]


def test_tail_cli_output_golden_across_chunks(tmp_path):
    # 20,001 rows span several write chunks and reach e-05 values, so the
    # bytes pin the fixed/exponent switch of the float layout.
    out = tmp_path / "tail.csv"
    assert cli.main(["tail", "--model", "iid-uniform-2", "--target", "cyl:1,1,1,1,1,1,1,1,1,1",
                     "--K", "20000", "--out", str(out)]) == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "51c95d78b343941f6fbe13d5181211dca3318d08cede536fd903321fae551608")


def test_write_tails_csv_gives_the_same_bytes_in_one_chunk(monkeypatch):
    # Rows are formatted _CSV_ROWS at a time; a table written in one piece
    # must read the same, whatever each chunk's widths and layouts are.
    A = cylinder([1] * 8)
    K = 2 * exact._CSV_ROWS + 17
    hit, ret = hitting_tail(UNIFORM2, A, K), exact.return_tail(UNIFORM2, A, K)
    assert hit.values[-1] < 1e-4 < hit.values[exact._CSV_ROWS]  # both notations
    texts = []
    for rows in (exact._CSV_ROWS, K + 1):
        monkeypatch.setattr(exact, "_CSV_ROWS", rows)
        for pair in ((hit, ret), (hit, None), (None, ret)):
            buf = io.StringIO()
            exact.write_tails_csv(buf, *pair)
            texts.append(buf.getvalue())
    assert texts[:3] == texts[3:]
    assert texts[0].count("\n") == 3 + K + 1


class _Column:
    """Anything with values, mu_A, source and horizon exports as a column;
    a stand-in can carry values above 1, which no tail holds."""

    def __init__(self, values):
        self.values = np.array(values)
        self.mu_A = 0.25
        self.source = "exact"
        self.horizon = self.values.size - 1


def test_write_tails_csv_golden_edge_values():
    # zero, subnormals, the smallest normal, the fixed/exponent boundaries of
    # repr (1e-05 vs 0.0001, 1e16) and a 2^53 + 1 round-off
    edge = [1.0, 0.0001, 1e-05, 2.2250738585072014e-308, 1e-310, 5e-324, 0.0]
    hit = exact.TailDistribution("hitting", np.array(edge), 0.25, "exact")
    ret = exact.TailDistribution("return", np.array([1.0, 0.5, 0.5, 1e-300, 1e-310, 0.0, 0.0]),
                                 0.25, "exact")
    big = _Column([1e16, 1.2345678901234567e20, 9007199254740993.0, 1.7976931348623157e308,
                   9999999999999998.0, 1e22, 123456789012345.67])
    digests = []
    for pair in ((hit, ret), (hit, None), (big, hit)):
        buf = io.StringIO()
        exact.write_tails_csv(buf, *pair)
        digests.append(hashlib.sha256(buf.getvalue().encode()).hexdigest())
    assert digests == [
        "2174cec32d335cfb802860c8e5c19449e776852b86502be430d8e00d6ba72fc4",
        "c774fe4f571c2a6084d6f6d1173832025d1f31be4cf19084536b5cc699026566",
        "1dff5c604f64537c73aac4914132b07e74b40479d19e25ce5208ff67df657000",
    ]


def _step_by_step(chain, v, K):
    """Reference push, one step at a time: H from the surviving mass, F from
    the mass absorbed at each step."""
    H, F = [1.0], [0.0]
    for _ in range(K):
        F.append(F[-1] + chain.absorb @ v)
        v = chain.survT @ v
        H.append(v.sum())
    return np.array(H), np.array(F)


@st.composite
def _model_and_union(draw, max_words):
    """An IID or Markov source on 2-3 symbols and a union of words of length 1-3."""
    q = draw(st.integers(2, 3))
    probs = st.floats(0.05, 1.0)
    if draw(st.booleans()):
        P = np.array([[draw(probs) for _ in range(q)] for _ in range(q)])
        model = markov(P / P.sum(axis=1, keepdims=True))
    else:
        p = np.array([draw(probs) for _ in range(q)])
        model = iid(p / p.sum())
    n = draw(st.integers(1, 3))
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    return model, union([cylinder(w) for w in draw(st.lists(word, min_size=1,
                                                            max_size=max_words))])


@st.composite
def _engine_cases(draw):
    model, target = draw(_model_and_union(3))
    kind = draw(st.sampled_from(["hitting", "return"]))
    K2 = draw(st.integers(2, 400))
    return model, target, kind, draw(st.integers(1, K2 - 1)), K2


def _check_engine(case):
    """Resumed, fresh and step-by-step tails agree; returns the resumed engine."""
    model, target, kind, K1, K2 = case
    chain = exact.ComposedChain(model, target)
    engine = exact.TailEngine(chain, kind)
    fresh = exact.TailEngine(exact.ComposedChain(model, target), kind).extend(K2)
    H, F = _step_by_step(chain, chain.start(kind), K2)
    engine.extend(K1)
    resumed = engine.extend(K2)
    assert np.max(np.abs(resumed.values - H)) <= 1e-12
    assert np.max(np.abs(resumed.absorbed - F)) <= 1e-12
    assert np.array_equal(resumed.values, fresh.values)
    assert np.array_equal(resumed.absorbed, fresh.absorbed)
    return engine


@pytest.mark.parametrize("dense", [True, False])
@settings(max_examples=25, deadline=None)
@given(case=_engine_cases())
def test_engine_matches_step_by_step_and_resumes_exactly(dense, case):
    with pytest.MonkeyPatch.context() as mp:
        if not dense:
            mp.setattr(exact, "_DENSE_LIMIT", 0)
        engine = _check_engine(case)
    # These chains are small: blocks from step 0 when dense, never when sparse.
    assert engine.chain.switch == (0 if dense else math.inf)


@pytest.mark.parametrize("where", ["0", "inside", "beyond"])
@settings(max_examples=25, deadline=None)
@given(case=_engine_cases())
def test_engine_resumes_exactly_across_the_switch_point(where, case):
    # The switch at 0, between the two horizons (or at the first), or past
    # the second: single steps and blocks meet anywhere without a seam.
    K1, K2 = case[3], case[4]
    switch = {"0": 0, "inside": (K1 + K2) // 2, "beyond": K2 + 1}[where]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_switch_point", lambda size: switch)
        engine = _check_engine(case)
    assert engine.chain.switch == switch
    assert ("blocks" in vars(engine.chain)) is (switch < K2)


def _check_F_after_H_only_push(case):
    """After an H-only push, F keeps a fresh engine's bits up to its last
    step (0 when the first push is H-only) and is refused past it, naming
    that step; a refusal pushes nothing.  An H-only request inside the steps
    already pushed leaves F going on."""
    model, target, kind, K1, K2 = case
    fresh = exact.TailEngine(exact.ComposedChain(model, target), kind).extend(K2)
    chain = exact.ComposedChain(model, target)
    for first in (0, K1):
        engine = exact.TailEngine(chain, kind)
        if first:
            engine.extend(first)
        f_end = engine.steps
        tail = engine.extend(K2, absorbed=False)
        assert tail.absorbed is None and np.array_equal(tail.cdf, 1.0 - fresh.values)
        if f_end >= K2:  # K2 lies in the first push's last block: no step was H-only
            assert np.array_equal(engine.extend(K2).absorbed, fresh.absorbed)
            continue
        if f_end:
            assert np.array_equal(engine.extend(f_end).absorbed, fresh.absorbed[:f_end + 1])
        steps = engine.steps
        for K in (f_end + 1, K2):
            with pytest.raises(errors.InvalidTailError, match=f"F ends at step {f_end}:"):
                engine.extend(K)
        assert engine.steps == steps
        assert np.array_equal(engine.extend(K2, absorbed=False).values, fresh.values)


@pytest.mark.parametrize("where", ["dense", "sparse", "0", "inside", "beyond"])
@settings(max_examples=25, deadline=None)
@given(case=_engine_cases())
def test_engine_refuses_F_past_an_H_only_push(where, case):
    # Dense and sparse chains at their own switch, then the switch at 0,
    # between the two horizons, or past the second, as above.
    K1, K2 = case[3], case[4]
    with pytest.MonkeyPatch.context() as mp:
        if where == "sparse":
            mp.setattr(exact, "_DENSE_LIMIT", 0)
        elif where != "dense":
            switch = {"0": 0, "inside": (K1 + K2) // 2, "beyond": K2 + 1}[where]
            mp.setattr(exact, "_switch_point", lambda size: switch)
        _check_F_after_H_only_push(case)


def test_h_only_growth_is_in_place_unless_a_tail_views_the_table(monkeypatch):
    monkeypatch.setattr(exact, "_CHECK_ROWS", 1 << 10)  # keep validation's chunks small
    engine = exact.TailEngine(exact.ComposedChain(UNIFORM2, cylinder([1] * 5)))
    held = engine.extend(256, absorbed=False)
    engine.extend(1 << 16, absorbed=False)  # copied: the held tail still views the old table
    assert held.values.base is not engine._H
    tracemalloc.start()
    try:
        engine.extend(1 << 17, absorbed=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 8 * ((1 << 17) + 1)  # a copy would hold 1.5 tables at once
    assert engine._F.size == 1  # F was never pushed
    assert np.array_equal(held.values, engine.extend(256, absorbed=False).values)


def test_absorbed_mass_keeps_precision_for_tiny_mu():
    # H(0) - H(1) = mu(A) by stationarity; 1 - H(1) cancels for tiny mu(A)
    # (off by 0.7% at 0.6^60), the accumulated F(1) does not.
    t = hitting_tail(UNIFORM2, cylinder([1] * 40), 1)
    assert t.cdf[1] == pytest.approx(2.0 ** -40, rel=1e-12, abs=0)
    model = iid([0.4, 0.6])
    t = hitting_tail(model, cylinder([1] * 60), 1)
    assert t.cdf[1] == pytest.approx(0.6 ** 60, rel=1e-12, abs=0)


def test_invalid_tail_tables_raise_typed_errors():
    with pytest.raises(errors.InvalidTailError):
        exact.TailDistribution("hitting", np.array([0.9, 0.5]), 0.1, "exact")
    with pytest.raises(errors.InvalidTailError):
        exact.TailDistribution("hitting", np.array([1.0, 0.5, 0.6]), 0.1, "exact")


@pytest.mark.parametrize("values, message", [
    ([1.0, math.nan, 0.5], "finite"),
    ([math.nan, 0.5], "finite"),
    ([1.0, 0.5, math.inf], "finite"),
    ([1.0, 0.5, -math.inf], "finite"),
    ([1.0, -5.0, -6.0], "non-negative"),
    ([1.0, 0.5, -2e-12], "non-negative"),
])
def test_non_finite_or_negative_tail_tables_are_refused(values, message):
    # The monotone check passes NaN (every comparison is false) and
    # [1, -5, -6] (it decreases); +inf fails it, but as a non-finite value.
    with pytest.raises(errors.InvalidTailError, match=message):
        exact.TailDistribution("hitting", np.array(values), 0.1, "exact")


@pytest.mark.parametrize("values, message", [
    ([1.0, 0.5, 0.5, 0.6], "non-increasing"),  # the rise crosses a chunk boundary
    ([1.0, 0.9, 0.8, 0.9, 0.5, math.nan], "finite"),  # a later NaN outranks a rise
    ([0.5, 0.4, 0.3, math.inf], "finite"),  # and a wrong H(0)
    ([0.5, 0.4, 0.3, 0.6], "H\\(0\\) must be 1"),  # which outranks a rise
    ([1.0, 0.9, 0.8, 0.9, -0.5], "non-increasing"),  # which outranks a negative
    ([1.0, 0.5, 0.4, 0.3, -2e-12], "non-negative"),
])
def test_tail_checks_keep_their_order_across_chunks(monkeypatch, values, message):
    monkeypatch.setattr(exact, "_CHECK_ROWS", 3)
    with pytest.raises(errors.InvalidTailError, match=message):
        exact.TailDistribution("hitting", np.array(values), 0.1, "exact")
    exact.TailDistribution("hitting", np.array([1.0, 0.5, 0.5, 0.4, 0.4, -1e-13]), 0.1, "exact")


def test_float_dust_below_zero_is_a_valid_tail():
    exact.TailDistribution("hitting", np.array([1.0, 0.5, -1e-13]), 0.1, "exact")


def test_brute_force_rejects_unknown_kind():
    with pytest.raises(errors.InvalidTailError):
        brute_force_tail(UNIFORM2, cylinder([1]), 3, "waiting")


@settings(max_examples=40, deadline=None)
@given(case=_model_and_union(6), kind=st.sampled_from(["hitting", "return"]))
def test_lumped_chain_matches_brute_force(case, kind):
    model, target = case
    K = 6
    t = exact.TailEngine(exact.ComposedChain(model, target), kind).extend(K)
    b = brute_force_tail(model, target, K, kind)
    assert np.max(np.abs(t.values - b.values)) <= 1e-12
    assert np.max(np.abs(t.absorbed - (1.0 - b.values))) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(q=st.integers(2, 4), n=st.integers(1, 4), data=st.data())
def test_automaton_accepts_exactly_target_windows(q, n, data):
    word = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    target = union([cylinder(w) for w in data.draw(st.lists(word, min_size=1, max_size=8))])
    aut = build_automaton(target, q)
    stream = data.draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=60))
    state = 0
    for t, sym in enumerate(stream):
        state = aut.goto[state, sym]
        expected = t >= n - 1 and tuple(stream[t - n + 1:t + 1]) in target.words
        assert bool(aut.accepting[state]) == expected


def test_automaton_does_not_need_sorted_words():
    words = ((1, 1, 0), (0, 1, 1), (1, 0, 1), (0, 1, 1))
    aut = build_automaton(exact.TargetSet(3, words), 2)
    stream = [0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1]
    state = 0
    for t, sym in enumerate(stream):
        state = aut.goto[state, sym]
        assert bool(aut.accepting[state]) == (t >= 2 and tuple(stream[t - 2:t + 1]) in words)


_README_CHAINS = [
    (uniform_iid(4), hamming_ball([0] * 8, 0.25, 4), 118),
    (uniform_iid(4), hamming_ball([0] * 10, 0.3, 4), 493),
    (markov([[0.9, 0.1], [0.5, 0.5]]), hamming_ball([0, 1] * 4, 0.13, 2), 34),
    (UNIFORM2, cylinder([1] * 24), 25),
    (EQUAL_ROWS, cylinder([2, 2, 2]), 4),  # symbols 0 and 1 share a class
]


@pytest.mark.parametrize("model, target, size", _README_CHAINS)
def test_lumped_chain_sizes(model, target, size):
    assert exact.ComposedChain(model, target).size == size


def _chain_digest(chain):
    """SHA-256 over the class ids, absorption vector and both kernels (their
    indptr, indices and data when CSR), each with its dtype and shape."""
    h = hashlib.sha256()
    arrays = [chain._cls, chain.absorb]
    for kernel in (chain.fullT, chain.survT):
        arrays += ([kernel] if isinstance(kernel, np.ndarray)
                   else [kernel.indptr, kernel.indices, kernel.data])
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(a.dtype.str.encode() + repr(a.shape).encode() + a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("case, digest", zip(_README_CHAINS, [
    "5fb1b4ffd34b719ef268740fc67fa02300578c4ae144ff637215a49cbaa2dfec",
    "ee865a733a9efb674133b7a6e2a73e3f987293779ddc30e2613d6f31c4d334ce",
    "b1f5eb24ec5ab1ab4510b203f91b7ba310b72aeefa7d4a9a59609e724fbe8b7d",
    "ba532af0884f2fdb63163286ef28e157523d8297a7b77a81e4a6fa94cd2ae68a",
    "e19345c806796dfec09a5e4e5d3bb07ffddf4cf8276006c0323e493f3d0319ee",
]), ids=["ball-0^8", "ball-0^10", "markov-ball-(01)^4", "cyl-1^24", "equal-rows-cyl-2,2,2"])
def test_chain_bytes_are_pinned(case, digest):
    # The chain build runs no BLAS, so these bytes do not depend on the kernel.
    model, target, _ = case
    assert _chain_digest(exact.ComposedChain(model, target)) == digest


def test_markov_with_equal_rows_matches_the_oracle():
    # Rows 0 and 1 are equal, so the chain forgets which of them came last.
    A = cylinder([2, 2, 2])
    for kind, fn in (("hitting", hitting_tail), ("return", return_tail)):
        t = fn(EQUAL_ROWS, A, 8)
        b = brute_force_tail(EQUAL_ROWS, A, 8, kind)
        assert np.max(np.abs(t.values - b.values)) <= 1e-12
    assert return_expectation(EQUAL_ROWS, A) * measure(EQUAL_ROWS, A) == pytest.approx(
        1.0, abs=1e-9)


def test_kac_on_lumped_markov_ball():
    model = markov([[0.9, 0.1], [0.5, 0.5]])
    A = hamming_ball([0, 1] * 4, 0.13, 2)
    assert return_expectation(model, A) * measure(model, A) == pytest.approx(1.0, abs=1e-9)


def test_kac_on_the_493_state_ball():
    # Solved on the sparse kernel, like every chain.
    A = hamming_ball([0] * 10, 0.3, 4)
    assert return_expectation(uniform_iid(4), A) == pytest.approx(
        1 / measure(uniform_iid(4), A), rel=1e-9)


def _moore_reference(key, succ):
    """Moore refinement on tuples: split by (own class, successor classes)."""
    cls = list(key)
    while True:
        sigs = [(cls[i], *(cls[j] for j in row)) for i, row in enumerate(succ)]
        ids = {s: k for k, s in enumerate(sorted(set(sigs)))}
        if len(ids) == len(set(cls)):
            return cls
        cls = [ids[s] for s in sigs]


@settings(max_examples=60, deadline=None)
@given(N=st.integers(1, 80), q=st.integers(1, 14), data=st.data())
def test_coarsest_stable_matches_reference(N, q, data):
    # Wide alphabets make the packed signature re-rank before it overflows.
    key = np.array(data.draw(st.lists(st.integers(0, 3), min_size=N, max_size=N)))
    succ = np.array(data.draw(st.lists(st.lists(st.integers(0, N - 1), min_size=q, max_size=q),
                                       min_size=N, max_size=N)))
    got = exact._coarsest_stable(key, succ)
    ref = _moore_reference(key.tolist(), succ.tolist())
    assert len(set(zip(got.tolist(), ref))) == len(set(ref)) == int(got.max()) + 1


@settings(max_examples=80, deadline=None)
@given(N=st.integers(1, 80), q=st.integers(1, 14), seeding=st.sampled_from(
    ["drawn", "discrete", "nothing"]), data=st.data())
def test_two_stage_lumping_keeps_the_one_stage_ids(N, q, seeding, data):
    key = np.array(data.draw(st.lists(st.integers(0, 3), min_size=N, max_size=N)))
    succ = np.array(data.draw(st.lists(st.lists(st.integers(0, N - 1), min_size=q, max_size=q),
                                       min_size=N, max_size=N)))
    if seeding == "discrete":
        seed = np.arange(N)
    elif seeding == "nothing":
        seed = np.zeros(N, dtype=np.int64)
    else:
        seed = np.array(data.draw(st.lists(st.integers(0, 5), min_size=N, max_size=N)))
    cls, rep = exact._lump(key, seed, succ)
    assert np.array_equal(cls, exact._coarsest_stable(key, succ))
    assert np.array_equal(cls[rep], np.arange(rep.size))


def test_depth_seeding_saves_rounds_over_all_pairs(monkeypatch):
    # The canonical rounds alone rank all 10,570 pairs 11 times.
    target = hamming_ball([0] * 10, 0.3, 4)
    sizes = []
    rank = exact._rank
    monkeypatch.setattr(exact, "_rank", lambda x: sizes.append(x.size) or rank(x))
    chain = exact.ComposedChain(uniform_iid(4), target)
    pairs = chain._cls.size
    assert pairs == 10_570 and 1 <= sizes.count(pairs) <= 5
    # The depth-seeded classes are already the 493 lumped states.
    assert sorted(set(sizes)) == [chain.size, pairs] == [493, pairs]


def test_automaton_depth_is_the_trie_walk_length():
    # Trie edges take precedence over failure links, so the first d symbols
    # of a word lead from the root to that word's prefix node of depth d.
    target = hamming_ball([0] * 6, 0.34, 3)
    aut = build_automaton(target, 3)
    depth = aut.depth
    seen = np.zeros(aut.num_states, dtype=bool)
    seen[0] = depth[0] == 0
    for word in target.array:
        state = 0
        for d, sym in enumerate(word, 1):
            state = aut.goto[state, sym]
            assert depth[state] == d
            seen[state] = True
    assert seen.all()


_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)


@settings(max_examples=100, deadline=None)
@given(x=st.lists(st.one_of(st.integers(-4, 4), st.integers(2 ** 62 - 4, 2 ** 62 + 4), _INT64),
                  min_size=1, max_size=60))
def test_rank_equals_the_unique_inverse(x):
    # Small pools force duplicates; values near 2**62 are where the packed
    # signatures of the refinement live.
    x = np.array(x, dtype=np.int64)
    inverse = np.unique(x, return_inverse=True)[1]
    ranks, count = exact._rank(x)
    assert np.array_equal(ranks, inverse) and count == int(inverse.max()) + 1


def test_coarsest_stable_packing_never_wraps():
    # 32 classes over 14 signature columns need 70 bits: a packing that
    # wrapped modulo 2**64 would drop the own class and merge them all.
    key = np.arange(32)
    succ = np.zeros((32, 13), dtype=np.int64)
    assert int(exact._coarsest_stable(key, succ).max()) + 1 == 32


def _grown_horizons(engine, K, stop):
    """Horizons ``engine.grow(K, ...)`` tries, growing until ``stop`` of them."""
    seen = []
    tail = engine.grow(K, lambda H, F: seen.append(H.size - 1) or H.size - 1 >= stop)
    return tail, seen


def test_grow_doubles_from_K_until_reached():
    engine = exact.TailEngine(exact.ComposedChain(UNIFORM2, cylinder([1, 1])))
    tail, seen = _grown_horizons(engine, 5, 40)
    assert seen == [5, 10, 20, 40] and tail.horizon == 40


def test_grow_caps_its_last_horizon_and_refuses_there(monkeypatch):
    monkeypatch.setattr(exact, "MAX_TAIL_STEPS", 50)
    engine = exact.TailEngine(exact.ComposedChain(UNIFORM2, cylinder([1, 1])))
    tail, seen = _grown_horizons(engine, 5, 50)
    assert seen == [5, 10, 20, 40, 50] and tail.horizon == 50
    with pytest.raises(errors.HorizonTooShortError, match="needed horizon exceeds cap 50"):
        _grown_horizons(engine, 5, 51)


def test_grow_pushes_nothing_when_K_is_reached():
    engine = exact.TailEngine(exact.ComposedChain(UNIFORM2, cylinder([1, 1])))
    engine.extend(300)
    steps = engine.steps
    tail, seen = _grown_horizons(engine, 100, 0)
    assert seen == [100] and tail.horizon == 100 and engine.steps == steps


# Dense chains of 6, 11, 25, 34 and 118 states, which push blocks from step
# 0, a 218-state chain that switches to blocks at step 256, and a 493-state
# chain whose 2999 steps are all single ones.
_STACK_CHAINS = [
    (UNIFORM2, cylinder([1] * 5), 6),
    (UNIFORM2, cylinder([1] * 10), 11),
    (UNIFORM2, cylinder([1] * 24), 25),
    (markov([[0.9, 0.1], [0.5, 0.5]]), hamming_ball([0, 1] * 4, 0.13, 2), 34),
    (uniform_iid(4), hamming_ball([0] * 8, 0.25, 4), 118),
    (uniform_iid(4), hamming_ball([0] * 10, 0.2, 4), 218),
    (uniform_iid(4), hamming_ball([0] * 10, 0.3, 4), 493),
]


def _per_block_reference(chain, kind, K):
    """H and F pushed one step at a time (absorb @ v, survT @ v and a sum
    per step) up to the switch, then one block at a time (np.dot(R, v),
    np.dot(A, v) and push @ v per block), then the engine's fix-ups."""
    switch = chain.switch
    k1 = K if K <= switch else switch + -(-(K - switch) // exact._BLOCK) * exact._BLOCK
    H, F = np.ones(k1 + 1), np.zeros(k1 + 1)
    v = chain.start(kind)
    for k in range(min(k1, switch)):
        F[k + 1] = chain.absorb @ v
        v = chain.survT @ v
        H[k + 1] = v.sum()
    R, A, push = chain.blocks
    for k in range(switch, k1, exact._BLOCK):
        np.dot(R, v, out=H[k + 1:k + exact._BLOCK + 1])
        np.dot(A, v, out=F[k + 1:k + exact._BLOCK + 1])
        v = push @ v
    np.minimum.accumulate(H, out=H)
    np.clip(H, 0.0, 1.0, out=H)
    np.cumsum(F, out=F)
    np.minimum(F, 1.0, out=F)
    return H[:K + 1], F[:K + 1]


def _stacked_push_mismatches(K=2999):
    """(chain size, kind, blocks or steps per chunk, horizon resumed from,
    whether that resume pushed F) wherever the engine's stacked push differs
    in any bit from the per-step and per-block reference; None is the
    default chunk, 0 a fresh engine.  An H-only resume goes on H-only and is
    compared on H."""
    bad = []
    for model, target, size in _STACK_CHAINS:
        chain = exact.ComposedChain(model, target)
        for kind in ("hitting", "return"):
            H, F = _per_block_reference(chain, kind, K)
            for blocks in (None, 1, 2, 3):
                for resume_at, absorbed in ((0, True), (100, True), (700, True), (700, False)):
                    with pytest.MonkeyPatch.context() as mp:
                        if blocks:
                            mp.setattr(exact, "_STACK", (blocks + 1) * size)
                        engine = exact.TailEngine(chain, kind)
                        if resume_at:
                            engine.extend(resume_at, absorbed=absorbed)
                        tail = engine.extend(K, absorbed=absorbed)
                    same_F = (np.array_equal(tail.absorbed, F) if absorbed
                              else tail.absorbed is None)
                    if not (np.array_equal(tail.values, H) and same_F):
                        bad.append((size, kind, blocks, resume_at, absorbed))
    return bad


def test_stacked_push_keeps_the_per_block_bits():
    chains = [exact.ComposedChain(m, t) for m, t, _ in _STACK_CHAINS]
    assert [(c.size, c.switch) for c in chains] == (
        [(size, 0) for _, _, size in _STACK_CHAINS[:5]] + [(218, 256), (493, 3328)])
    assert _stacked_push_mismatches() == []


def test_stacked_push_keeps_the_per_block_bits_under_another_kernel():
    # Another OpenBLAS kernel may change the last bits of both sides, but
    # never tell them apart: matmul runs the same gemv per block.
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_exact; "
            "print(test_exact._stacked_push_mismatches())")
    env = {**os.environ, "OPENBLAS_CORETYPE": "Prescott", "PYTHONPATH": os.pathsep.join(
        [str(Path(exact.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr


def _check_return_start_law(model, target, K):
    """Discrete Haydn-Lacroix-Vaienti: by stationarity mu(window 0 in A,
    windows 1..k not in A) = H(k) - H(k+1), so mu(A) H_ret(k) = F(k+1) - F(k).
    Compared absolutely: F(k+1) - F(k) cancels where F is near 1."""
    chain = exact.ComposedChain(model, target)
    F = exact.TailEngine(chain).extend(K + 1).absorbed
    H_ret = exact.TailEngine(chain, "return").extend(K).values
    assert np.max(np.abs(chain.mu_A * H_ret - np.diff(F))) <= 1e-15


@settings(max_examples=40, deadline=None)
@given(case=_model_and_union(6))
def test_return_start_law_matches_the_hitting_increments(case):
    _check_return_start_law(*case, 3000)


def test_return_start_law_on_the_493_state_csr_chain():
    _check_return_start_law(uniform_iid(4), hamming_ball([0] * 10, 0.3, 4), 3000)
