import itertools
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rarehit import (
    alpha_bound,
    cylinder_measure,
    entropy,
    errors,
    iid,
    markov,
    process,
    uniform_iid,
    validate,
)


def test_iid_uniform_valid():
    m = uniform_iid(2)
    assert m.kind == "iid"
    assert np.allclose(m.stationary, [0.5, 0.5])


def test_markov_stationary_derived():
    # pi = pi P solved by hand: pi = (5/6, 1/6)
    m = markov([[0.9, 0.1], [0.5, 0.5]])
    assert np.allclose(m.stationary, [5 / 6, 1 / 6], atol=1e-12)


def test_periodic_chain_rejected():
    with pytest.raises(errors.PeriodicOrReducibleError):
        markov([[0.0, 1.0], [1.0, 0.0]])


def test_non_stochastic_rejected():
    with pytest.raises(errors.NonStochasticError):
        iid([0.5, 0.6])
    with pytest.raises(errors.NonStochasticError):
        markov([[0.9, 0.2], [0.5, 0.5]])
    with pytest.raises(errors.NonStochasticError):
        iid([1.2, -0.2])


def test_empty_alphabet_rejected():
    with pytest.raises(errors.EmptyAlphabetError):
        iid([1.0])


def test_validate_roundtrip():
    m = markov([[0.6, 0.4], [0.3, 0.7]])
    m2 = validate(m)
    assert np.allclose(m2.stationary, m.stationary)


def test_cylinder_measure_examples():
    assert cylinder_measure(uniform_iid(2), [0, 0, 0]) == pytest.approx(1 / 8, abs=1e-15)
    m = markov([[0.9, 0.1], [0.5, 0.5]])
    assert cylinder_measure(m, [0, 1]) == pytest.approx(1 / 12, abs=1e-15)


def test_cylinder_measure_rejects_bad_words():
    m = uniform_iid(2)
    with pytest.raises(errors.SymbolOutOfRangeError):
        cylinder_measure(m, [])
    with pytest.raises(errors.SymbolOutOfRangeError):
        cylinder_measure(m, [0, 2])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=6),
       st.lists(st.integers(0, 1), min_size=1, max_size=6))
def test_iid_measure_multiplicative(u, v):
    m = iid([0.3, 0.7])
    assert cylinder_measure(m, u + v) == pytest.approx(
        cylinder_measure(m, u) * cylinder_measure(m, v), rel=1e-12)


@pytest.mark.parametrize("model", [
    uniform_iid(2), uniform_iid(4), iid([0.2, 0.3, 0.5]),
    markov([[0.9, 0.1], [0.5, 0.5]]),
])
@pytest.mark.parametrize("n", [1, 3, 5])
def test_measures_sum_to_one(model, n):
    total = sum(cylinder_measure(model, w)
                for w in itertools.product(range(model.alphabet_size), repeat=n))
    assert total == pytest.approx(1.0, abs=1e-9)


def test_entropy_examples():
    assert entropy(uniform_iid(4)) == pytest.approx(math.log(4), abs=1e-14)
    assert entropy(iid([1.0, 0.0])) == 0.0
    # Markov: pi_0 H(0.9) + pi_1 H(0.5)
    m = markov([[0.9, 0.1], [0.5, 0.5]])
    h = lambda p: -p * math.log(p) - (1 - p) * math.log(1 - p)
    assert entropy(m) == pytest.approx((5 / 6) * h(0.9) + (1 / 6) * h(0.5), abs=1e-12)


def test_entropy_in_range():
    for model in (uniform_iid(3), iid([0.1, 0.9]), markov([[0.6, 0.4], [0.3, 0.7]])):
        assert 0.0 <= entropy(model) <= math.log(model.alphabet_size) + 1e-15


def test_alpha_bound_iid_zero():
    m = iid([0.2, 0.8])
    assert all(alpha_bound(m, g) == 0.0 for g in (1, 5, 50))


def test_alpha_bound_markov_geometric_decay():
    m = markov([[0.9, 0.1], [0.5, 0.5]])
    # second eigenvalue of the transition matrix is 0.4
    # at large g the deviations shrink toward machine epsilon and the
    # ratio picks up relative rounding, so test at moderate gaps
    vals = [alpha_bound(m, g) for g in range(1, 12)]
    ratios = [b / a for a, b in zip(vals, vals[1:])]
    assert ratios[-1] == pytest.approx(0.4, abs=1e-9)


def test_alpha_bound_monotone_to_zero():
    for m in (markov([[0.9, 0.1], [0.5, 0.5]]), markov([[0.6, 0.4], [0.3, 0.7]])):
        vals = [alpha_bound(m, g) for g in range(1, 101)]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10
        assert all(v >= 0.0 for v in vals)


def test_alpha_bound_rejects_nonpositive_gap():
    with pytest.raises(errors.GapNonPositiveError):
        alpha_bound(uniform_iid(2), 0)


def test_json_roundtrip():
    for m in (iid([0.25, 0.75]), markov([[0.9, 0.1], [0.5, 0.5]])):
        m2 = process.from_dict(process.to_dict(m))
        assert m2.kind == m.kind
        assert np.allclose(m2.stationary, m.stationary)
    m3 = process.from_json('{"kind":"iid","probs":[0.5,0.5]}')
    assert m3.alphabet_size == 2
