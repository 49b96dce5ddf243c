import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rarehit import (
    alpha_bound,
    entropy,
    errors,
    iid,
    markov,
    process,
    uniform_iid,
)


def cylinder_measure(model, word):
    """Measure of the cylinder [word], through ``process.word_measures``."""
    return float(process.word_measures(model, np.array([word], dtype=np.int64))[0])


def test_iid_uniform_valid():
    m = uniform_iid(2)
    assert m.is_iid
    assert np.array_equal(m.transition, [[0.5, 0.5], [0.5, 0.5]])
    assert np.array_equal(m.stationary, [0.5, 0.5])


def test_markov_stationary_derived():
    # pi = pi P solved by hand: pi = (5/6, 1/6)
    m = markov([[0.9, 0.1], [0.5, 0.5]])
    assert np.allclose(m.stationary, [5 / 6, 1 / 6], atol=1e-12)


def test_periodic_chain_rejected():
    with pytest.raises(errors.PeriodicOrReducibleError):
        markov([[0.0, 1.0], [1.0, 0.0]])


def _wielandt(q):
    """i -> i+1 and q-1 -> {0, 1}: primitive with exponent exactly (q-1)^2 + 1."""
    P = np.eye(q, k=1)
    P[-1, :2] = 0.5
    return P


@pytest.mark.parametrize("q", range(2, 41))
def test_wielandt_matrices_are_primitive(q):
    # A power below (q-1)^2 + 1 still has a zero, so one squaring too few refuses.
    assert markov(_wielandt(q)).alphabet_size == q


@pytest.mark.parametrize("P", [
    np.roll(np.eye(5), 1, axis=1),  # a 5-cycle: irreducible, period 5
    np.kron(np.eye(2), np.full((3, 3), 1 / 3)),  # two closed blocks: reducible
    np.block([[np.zeros((2, 2)), np.full((2, 3), 1 / 3)],
              [np.full((3, 2), 0.5), np.zeros((3, 3))]]),  # bipartite: period 2
])
def test_periodic_or_reducible_supports_rejected(P):
    with pytest.raises(errors.PeriodicOrReducibleError):
        markov(P)


def test_long_cycle_refused_quickly():
    # A 256-cycle: 16 squarings decide it, where q^2 products would take minutes.
    code = ("import numpy as np; from rarehit import errors, markov\n"
            "try:\n    markov(np.roll(np.eye(256), 1, axis=1))\n"
            "except errors.PeriodicOrReducibleError:\n    print('refused')\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(process.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=5)
    assert done.stdout == "refused\n"


def test_non_stochastic_rejected():
    with pytest.raises(errors.NonStochasticError):
        iid([0.5, 0.6])
    with pytest.raises(errors.NonStochasticError):
        markov([[0.9, 0.2], [0.5, 0.5]])
    with pytest.raises(errors.NonStochasticError):
        iid([1.2, -0.2])


def test_non_finite_probabilities_rejected():
    with pytest.raises(errors.NonStochasticError, match="NaN entries"):
        iid([math.nan, 0.5])
    with pytest.raises(errors.NonStochasticError, match="NaN entries"):
        markov([[math.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(errors.NonStochasticError, match="sums to inf"):
        iid([math.inf, 0.5])


def test_empty_alphabet_rejected():
    with pytest.raises(errors.EmptyAlphabetError):
        iid([1.0])


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


@pytest.mark.parametrize("n", [63, 64, 65, 1100, 5000])
def test_words_that_underflow_early_give_the_full_product(n):
    # The product stops once every row is 0; it must equal the product taken
    # over every column, row by row in Python floats.
    m = markov([[0.6, 0.4], [1e-9, 1.0 - 1e-9]])
    rng = np.random.default_rng(n)
    words = np.zeros((4, n), dtype=np.int64)
    words[1:] = rng.integers(0, 2, size=(3, n))
    words[2, n // 2:] = 1  # long runs of 1 keep a row alive longer
    words[3, :] = 1
    for rows in (words, words[:3], words[1:2]):
        full = []
        for w in rows.tolist():
            mu = float(m.stationary[w[0]])
            for a, b in zip(w, w[1:]):
                mu *= float(m.transition[a, b])
            full.append(mu)
        assert process.word_measures(m, rows).tolist() == full


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
    m = iid([0.1, 0.25, 0.65])  # P - 1 pi is exactly zero, at every gap
    assert all(alpha_bound(m, g) == 0.0 for g in range(1, 65))


def test_alpha_bound_skips_the_power_of_a_zero_matrix(monkeypatch):
    def refused(*a):
        raise AssertionError("matrix_power called on an exactly zero P - 1 pi")

    monkeypatch.setattr(np.linalg, "matrix_power", refused)
    assert alpha_bound(uniform_iid(200), 24) == 0.0


def test_first_equal_row_map():
    m = markov([[0.5, 0.3, 0.2], [0.5, 0.3, 0.2], [0.1, 0.1, 0.8]])
    assert m.first_equal_row.tolist() == [0, 0, 2]
    assert m.first_equal_row is m.first_equal_row  # computed once per model
    assert markov([[0.9, 0.1], [0.5, 0.5]]).first_equal_row.tolist() == [0, 1]
    assert iid([0.1, 0.25, 0.65]).first_equal_row.tolist() == [0, 0, 0]


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
        assert m2.is_iid == m.is_iid
        assert np.allclose(m2.stationary, m.stationary)
    m3 = process.from_json('{"kind":"iid","probs":[0.5,0.5]}')
    assert m3.alphabet_size == 2


@pytest.mark.parametrize("text", ["[1]", '"x"', "3", "null"])
def test_non_object_spec_refused(text):
    with pytest.raises(errors.ConfigInvalidError, match="model spec must be a JSON object"):
        process.from_json(text)


def test_alphabet_cap(monkeypatch):
    assert uniform_iid(process.ALPHABET_CAP).alphabet_size == process.ALPHABET_CAP
    for build in (uniform_iid, lambda q: iid(np.full(q, 1.0 / q))):
        with pytest.raises(errors.AlphabetTooLargeError, match="alphabet of 257 symbols"):
            build(process.ALPHABET_CAP + 1)
    monkeypatch.setattr(process, "ALPHABET_CAP", 3)  # read at call time
    with pytest.raises(errors.AlphabetTooLargeError, match="exceeds the cap 3"):
        iid([0.25] * 4)


def test_spec_missing_its_table_names_the_key():
    for spec, key in (({"kind": "iid"}, "'probs'"), ({"kind": "markov"}, "'transition'")):
        with pytest.raises(errors.ConfigInvalidError, match=key):
            process.from_dict(spec)
    with pytest.raises(errors.ConfigInvalidError, match="'probs'"):
        process.from_dict({"kind": "iid", "probs": {"a": 1}})
