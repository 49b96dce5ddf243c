import math
import tracemalloc

import numpy as np
import pytest

from rarehit import (
    cardinality_rate,
    cylinder,
    epsilon_bound,
    errors,
    hamming_ball,
    hamming_kappa_bound,
    hitting_tail,
    iid,
    markov,
    rarity,
    solve_D0,
    uniform_iid,
)

UNIFORM2 = uniform_iid(2)
UNIFORM4 = uniform_iid(4)


def test_epsilon_uniform_closed_form():
    # kappa = 1, n = 20: h = (ln 2)/2, k = 2, m = 10, deficiency exactly 0
    rb = epsilon_bound(UNIFORM2, 1, 20)
    assert (rb.k, rb.m, rb.aep_deficiency, rb.surrogate) == (2, 10, 0.0, False)
    assert rb.h == pytest.approx(math.log(2) / 2, abs=1e-15)
    assert rb.epsilon_n == pytest.approx(2 * 10 * math.exp(-10 * rb.h), rel=1e-12)


def test_epsilon_dominates_tail_q4_ball():
    rb = epsilon_bound(UNIFORM4, 436, 10)
    target = hamming_ball([0] * 10, 0.2, 4)
    assert target.kappa == 436
    mu_tau = 1.0 - hitting_tail(UNIFORM4, target, 10).values[10]
    assert mu_tau <= rb.epsilon_n


def test_epsilon_rejects_full_shift():
    with pytest.raises(errors.RateExceedsEntropyError):
        epsilon_bound(UNIFORM2, 2 ** 10, 10)


def test_epsilon_surrogate_flag_for_nonuniform():
    rb = epsilon_bound(iid([0.7, 0.3]), 1, 12)
    assert rb.surrogate
    assert rb.aep_deficiency >= 0.0


def _one_pass_deficiency(model, N, h):
    """The AEP deficiency from one (q^N, N) digit array: the chunked sum's referee."""
    q = model.alphabet_size
    idx = np.arange(q ** N, dtype=np.int64)
    w = rarity.word_measures(model, (idx[:, None] // q ** np.arange(N - 1, -1, -1)) % q)
    return float(w[w > math.exp(-N * h)].sum())


AEP_MODELS = {"iid82": iid([0.8, 0.2]), "markov": markov([[0.9, 0.1], [0.5, 0.5]]),
              "iid532": iid([0.5, 0.3, 0.2])}


@pytest.mark.parametrize("name, N", [(name, N) for name in AEP_MODELS for N in (1, 5, 11)]
                         + [("iid82", 17), ("markov", 17)])
def test_chunked_aep_deficiency_is_the_one_pass_sum(name, N):
    # 2^17 words span two chunks, 3^11 three; at 0.8 h_mu some words lie above the threshold
    model = AEP_MODELS[name]
    h = 0.8 * rarity.entropy(model)
    deficiency = rarity._aep_deficiency(model, N, h)
    assert deficiency > 0.0 and deficiency == _one_pass_deficiency(model, N, h)


def test_epsilon_bound_memory_stays_flat_in_the_word_length():
    # one (2^19, 19) digit array alone would take 76 MiB; a chunk takes 9.5 MiB.
    # The deficiency is the one-pass value, pinned.
    model = iid([0.8, 0.2])
    tracemalloc.start()
    try:
        rb = epsilon_bound(model, 1, 38)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rb.m, rb.aep_deficiency) == (19, 0.014411518807585602)
    assert peak < 32 << 20


def test_epsilon_dominates_on_range():
    for n in range(4, 15):
        rb = epsilon_bound(UNIFORM2, 1, n)
        mu_tau = 1.0 - hitting_tail(UNIFORM2, cylinder([0] * n), n).values[n]
        assert mu_tau <= rb.epsilon_n


def test_subadditivity_step():
    # the invariance step of the proof: k * mu(tau <= m) >= mu(tau <= n)
    for n in (6, 9, 12):
        rb = epsilon_bound(UNIFORM2, 1, n)
        tail = hitting_tail(UNIFORM2, cylinder([1] * n), n)
        F = 1.0 - tail.values
        assert rb.k * F[rb.m] >= F[n] - 1e-12


def test_hamming_kappa_bound_examples():
    # ((1 + 0.2*3) / 0.2^0.2)^10
    val = hamming_kappa_bound(10, 0.2, 4)
    assert val == pytest.approx((1.6 / 0.2 ** 0.2) ** 10, rel=1e-12)
    assert val >= 436
    assert hamming_kappa_bound(3, 0.05, 2) >= 1.0
    assert hamming_kappa_bound(1, 0.3, 2) > 1.0


@pytest.mark.parametrize("q", [2, 4])
def test_hamming_kappa_bound_dominates_exact(q):
    for n in range(2, 15):
        for D in (0.1, 0.25, 0.4, 0.6):
            exact_count = sum(math.comb(n, k) * (q - 1) ** k
                              for k in range(math.floor(D * n) + 1))
            assert hamming_kappa_bound(n, D, q) >= exact_count - 1e-9


def test_solve_D0_dna_entropy():
    # q = 4 at 1.7 bits per symbol gives roughly 41% approximate matching
    d0 = solve_D0(4, 1.7 * math.log(2))
    assert 0.40 <= d0 <= 0.43


def test_solve_D0_crossing_residual():
    q, h = 4, 1.7 * math.log(2)
    d0 = solve_D0(q, h)
    f = lambda D: (1 + D * (q - 1)) / D ** D
    assert abs(f(d0) - math.exp(h)) <= 1e-5 * math.exp(h)
    assert f(d0 - 1e-4) < math.exp(h)


def test_solve_D0_monotone_in_h():
    assert solve_D0(2, 0.01) < solve_D0(2, 0.1)
    prev = 0.0
    for h in np.linspace(0.05, 0.6, 8):
        cur = solve_D0(2, float(h))
        assert cur >= prev
        prev = cur


def test_solve_D0_no_crossing():
    # binary alphabet: lhs stays below e^h for h >= ln 2
    assert solve_D0(2, 10.0) == 1.0


def test_cardinality_rate_examples():
    assert cardinality_rate({n: 2 ** n for n in range(2, 12)}) == pytest.approx(
        math.log(2), abs=1e-12)
    assert cardinality_rate({n: n * n for n in range(2, 20)}) < 0.5
    ball_counts = {n: hamming_ball([0] * n, 0.2, 4).kappa for n in range(4, 12)}
    base = math.log((1 + 0.2 * 3) / 0.2 ** 0.2)
    assert cardinality_rate(ball_counts) <= base


def test_invalid_rarity_bound_raises_typed_error():
    with pytest.raises(errors.ConsistencyError):
        rarity.RarityBound(10, 1, 0.3, 2, 4, 0.0, 0.1, False)  # m*k < n
    with pytest.raises(errors.ConsistencyError):
        rarity.RarityBound(10, 1, 0.3, 2, 5, 0.0, -0.1, False)


def test_hamming_kappa_bound_rejects_D_outside_unit_interval():
    with pytest.raises(errors.DomainError):
        hamming_kappa_bound(10, 1.0, 4)


def test_solve_D0_rejects_nonpositive_entropy():
    with pytest.raises(errors.DomainError):
        solve_D0(4, 0.0)


def test_cardinality_rate_rejects_empty_table():
    with pytest.raises(errors.DomainError):
        cardinality_rate({})
    with pytest.raises(errors.DomainError):
        cardinality_rate({4: 0})


@pytest.mark.parametrize("call", [
    lambda: epsilon_bound(UNIFORM2, 1, 0),           # n < 1: (1/n) ln kappa_n
    lambda: epsilon_bound(UNIFORM2, 0, 20),          # kappa < 1: ln 0
    lambda: hamming_kappa_bound(-3, 0.2, 4),         # n < 1
    lambda: hamming_kappa_bound(10, 0.2, 1),         # q < 2
    lambda: solve_D0(1, 0.5),                        # q < 2
    lambda: cardinality_rate({0: 4}),                # n < 1: (1/n) ln kappa_n
])
def test_rarity_inputs_outside_the_domain_raise_typed_error(call):
    with pytest.raises(errors.DomainError):
        call()


def _g(q, h, D):
    return math.log1p(D * (q - 1)) - D * math.log(D) - h


def _dense(q):
    """g + h on a uniform grid of (0, 1], refined around its argmax."""
    D = np.linspace(0.0, 1.0, 200_001)[1:]
    i = int(np.argmax(np.log1p(D * (q - 1)) - D * np.log(D)))
    fine = np.linspace(D[max(i - 1, 0)], D[min(i + 1, D.size - 1)], 20_001)
    D = np.union1d(D, fine)
    return D, np.log1p(D * (q - 1)) - D * np.log(D)


@pytest.mark.parametrize("q", range(2, 9))
def test_solve_D0_is_the_first_crossing_to_one_ulp(q):
    D, gh = _dense(q)
    for h in [*np.geomspace(1e-300, 1e-3, 30), *np.linspace(1e-3, gh.max() + 0.5, 60)]:
        h = float(h)
        d0 = solve_D0(q, h)
        if d0 == 1.0:
            continue
        assert _g(q, h, d0) >= 0.0 > _g(q, h, math.nextafter(d0, 0.0))
        assert not (gh[D < d0] > h + 1e-12).any()  # no grid crossing below D0


@pytest.mark.parametrize("q", range(2, 9))
def test_solve_D0_is_one_exactly_when_g_stays_negative(q):
    _, gh = _dense(q)
    top = float(gh.max())
    for h in [top - 1e-6, top - 1e-9, top + 1e-9, top + 1e-6, top + 1.0,
              *np.linspace(0.05, top + 0.5, 40)]:
        assert (solve_D0(q, float(h)) == 1.0) == (top < h)


def test_solve_D0_tiny_entropy_is_the_root_not_the_first_grid_point():
    d0 = solve_D0(4, 1e-4)
    assert d0 == pytest.approx(6.706e-6, rel=1e-4)
    assert _g(4, 1e-4, d0) >= 0.0 > _g(4, 1e-4, math.nextafter(d0, 0.0))


def test_solve_D0_finds_crossings_just_below_the_peak():
    _, gh = _dense(2)
    d0 = solve_D0(2, float(gh.max()) - 1e-11)
    assert d0 == pytest.approx(0.6696, abs=1e-4)


def test_solve_D0_dna_entropy_moves_below_1e_8():
    # 0.4188600616011069 came from the former scan-then-brentq solver (xtol 1e-8)
    assert abs(solve_D0(4, 1.7 * math.log(2)) - 0.4188600616011069) < 1e-8


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0, -0.5])
def test_solve_D0_refuses_nonfinite_or_nonpositive_entropy(h):
    with pytest.raises(errors.DomainError, match="entropy level"):
        solve_D0(4, h)


@pytest.mark.parametrize("call, quantity", [
    (lambda: hamming_kappa_bound(2000, 0.2, 4), "kappa bound"),
    (lambda: hamming_kappa_bound(10, 0.2, 10 ** 400), "alphabet size q"),
    (lambda: solve_D0(10 ** 400, 1.0), "alphabet size q"),
    (lambda: epsilon_bound(UNIFORM2, 2 ** 1100, 2000), "m*kappa_n"),
    (lambda: epsilon_bound(UNIFORM2, 1, 10 ** 400), "n"),
    (lambda: cardinality_rate({10 ** 400: 4}), "n"),
])
def test_rarity_results_beyond_the_float_range_raise_typed_error(call, quantity):
    with pytest.raises(errors.DomainError, match="exceeds the float range") as refusal:
        call()
    assert str(refusal.value).startswith(quantity)


def test_rarity_results_inside_the_float_range_keep_their_expressions():
    assert hamming_kappa_bound(10, 0.2, 4) == ((1.0 + 0.2 * 3) / 0.2 ** 0.2) ** 10
    rb = epsilon_bound(UNIFORM2, 2 ** 100, 400)
    assert rb.epsilon_n == rb.k * (rb.m * 2 ** 100 * math.exp(-(400 - rb.m) * rb.h) + 0.0)
