import numpy as np
import pytest

from rarehit import (
    ExponentialLaw,
    brute_force_tail,
    check_integral_relation,
    check_sandwich,
    cylinder,
    errors,
    exact,
    hamming_ball,
    hitting_tail,
    kac_bound_violation,
    limitlaw,
    make_F,
    make_G,
    markov,
    return_tail,
    scaling,
    convergence_diagnostics,
    uniform_iid,
)

UNIFORM2 = uniform_iid(2)


def _laws(model, target):
    cert, tail = scaling.scale_certificate(model, target)
    tail = scaling.extend_for_verification(model, target, tail, cert.lam)
    ret = return_tail(model, target, tail.horizon)
    F = make_F(tail, cert.lam, cert.mu_A)
    G = make_G(ret, cert.lam, cert.mu_A)
    return cert, F, G


def test_F_geometric_closed_form():
    # H = (1/2)^k rescaled by lam*mu = 1/2: F(t) = 1 - (1/2)^floor(2t)
    tail = hitting_tail(UNIFORM2, cylinder([1]), 64)
    F = make_F(tail, 1.0, 0.5)
    for t in (0.0, 0.3, 0.5, 1.7, 4.2):
        assert F.value(t) == pytest.approx(1.0 - 0.5 ** int(2 * t), abs=1e-14)
    assert F.value(0.0) == 0.0


def test_F_matches_brute_force_cdf():
    cert, F, _ = _laws(UNIFORM2, cylinder([1, 1]))
    bf = brute_force_tail(UNIFORM2, cylinder([1, 1]), 12, "hitting")
    step = cert.lam * cert.mu_A
    for k in range(13):
        assert F.value(step * k) == pytest.approx(1.0 - bf.values[k], abs=1e-12)


def test_G_kac_bound_on_grid():
    for model, target in ((UNIFORM2, cylinder([1, 1])),
                          (markov([[0.9, 0.1], [0.5, 0.5]]), cylinder([0, 1]))):
        cert, _, G = _laws(model, target)
        grid = np.linspace(0.01, 0.9 * G.t_max, 200)
        assert kac_bound_violation(G, grid) <= 1e-12


def test_G_at_zero_plus_is_inverse_lambda():
    cert, _, G = _laws(UNIFORM2, cylinder([1, 1]))
    assert G.value_at_zero_plus() == pytest.approx(1.0 / cert.lam, rel=1e-12)


def test_sandwich_exact_case():
    cert, F, G = _laws(UNIFORM2, cylinder([1]))
    grid = np.linspace(0.05, 0.9 * min(F.t_max, G.t_max), 40)
    pairs = [(grid[i], grid[j]) for i in range(0, 40, 4) for j in range(i + 1, 40, 4)]
    assert check_sandwich(F, G, cert.mu_A, pairs) <= 1e-10


def test_sandwich_degenerate_pair():
    cert, F, G = _laws(UNIFORM2, cylinder([1, 1]))
    assert check_sandwich(F, G, cert.mu_A, [(1.0, 1.0)]) <= 0.0


def test_sandwich_markov_hamming_case():
    model = markov([[0.9, 0.1], [0.5, 0.5]])
    target = hamming_ball([0, 1, 0, 1, 0, 1], 0.17, 2)
    cert, F, G = _laws(model, target)
    grid = np.linspace(0.05, 0.9 * min(F.t_max, G.t_max), 30)
    pairs = [(grid[i], grid[j]) for i in range(0, 30, 5) for j in range(i + 1, 30, 5)]
    assert check_sandwich(F, G, cert.mu_A, pairs) <= 1e-10


def test_sandwich_empty_grid():
    cert, F, G = _laws(UNIFORM2, cylinder([1, 1]))
    with pytest.raises(errors.GridEmptyError):
        check_sandwich(F, G, cert.mu_A, [])


def test_integral_relation_exponential_pair():
    F, G = ExponentialLaw("F"), ExponentialLaw("G")
    res = check_integral_relation(F, G, np.linspace(0.001, 30, 300))
    assert res.max() <= 1e-12


def test_integral_relation_exact_case():
    cert, F, G = _laws(UNIFORM2, cylinder([1, 1]))
    grid = np.linspace(0.01, 0.9 * min(F.t_max, G.t_max), 100)
    res = check_integral_relation(F, G, grid)
    assert res.max() <= cert.mu_A + 1e-10  # mu(A) = 1/4


def test_integral_relation_at_zero():
    F, G = ExponentialLaw("F"), ExponentialLaw("G")
    assert check_integral_relation(F, G, [0.0])[0] == 0.0


def test_step_integral_is_exact():
    # integral of G over [0, step*K] equals mu * sum of return-tail values
    cert, _, G = _laws(UNIFORM2, cylinder([1, 1]))
    K = 10
    step = cert.lam * cert.mu_A
    direct = cert.mu_A * float(G.tail.values[:K].sum()) / 1.0
    assert G.integral(0.0, step * K) == pytest.approx(direct, rel=1e-12)


def test_convergence_diagnostics_family():
    by_n = {n: cylinder([0, 1] * (n // 2) + [0] * (n % 2)) for n in range(2, 9)}
    rows = convergence_diagnostics(UNIFORM2, by_n)
    for r in rows:
        assert r.d_hit <= r.bound
        assert r.d_ret >= 0.0
    # exact families around the alternating point improve with n eventually
    assert rows[-1].d_hit < rows[0].d_hit


def test_convergence_diagnostics_markov():
    model = markov([[0.9, 0.1], [0.5, 0.5]])
    by_n = {n: cylinder([0, 1] * (n // 2) + [0] * (n % 2)) for n in range(2, 7)}
    rows = convergence_diagnostics(model, by_n)
    for r in rows:
        assert r.d_hit <= r.bound


def test_diagnostics_csv():
    import io
    by_n = {n: cylinder([0] * n) for n in (2, 3)}
    rows = convergence_diagnostics(UNIFORM2, by_n)
    buf = io.StringIO()
    limitlaw.write_diagnostics_csv(buf, rows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "n,mu_A,lambda,D_hit,D_ret,bound"
    assert len(lines) == 3


def test_synthetic_self_consistency():
    # a tail that is exactly exponential on its grid leaves only the
    # within-flat discretization O(lam*mu)
    mu = 0.05
    H = np.exp(-mu * np.arange(0, 400))
    tail = exact.TailDistribution("hitting", H, mu, "exact")
    F = make_F(tail, 1.0, mu)
    dev = max(abs((1.0 - F.value(t)) - np.exp(-t)) for t in np.linspace(0, 10, 500))
    assert dev <= mu


def test_step_law_rejects_unknown_role_and_negative_time():
    tail = hitting_tail(UNIFORM2, cylinder([1]), 8)
    with pytest.raises(errors.InvalidTailError):
        limitlaw.StepLaw("H", tail, 1.0, 0.5)
    F = make_F(tail, 1.0, 0.5)
    for t in (-0.1, float("nan")):
        with pytest.raises(errors.DomainError):
            F.value(t)
    for t in (4.5, float("inf")):
        with pytest.raises(errors.HorizonTooShortError):
            F.value(t)
    with pytest.raises(errors.DomainError):
        F.integral(1.0, 0.5)


def test_make_F_and_make_G_reject_the_wrong_tail_kind():
    hit = hitting_tail(UNIFORM2, cylinder([1]), 8)
    ret = return_tail(UNIFORM2, cylinder([1]), 8)
    with pytest.raises(errors.InvalidTailError):
        make_F(ret, 1.0, 0.5)
    with pytest.raises(errors.InvalidTailError):
        make_G(hit, 1.0, 0.5)


def test_sandwich_rejects_reversed_pair():
    F, G = ExponentialLaw("F"), ExponentialLaw("G")
    with pytest.raises(errors.DomainError):
        check_sandwich(F, G, 0.1, [(1.0, 0.5)])


def test_verify_and_sweep_share_the_hitting_deviation():
    # The sweep value pinned for binary 0,0 in the benchmark reference.
    target = cylinder([0, 0])
    _, report, _ = scaling.verify(UNIFORM2, target)
    (row,) = convergence_diagnostics(UNIFORM2, {2: target})
    assert report.sup_dev == row.d_hit == 0.14380382468551522


def test_return_deviation_starts_at_s0():
    target = cylinder([0, 1])
    cert, _, ret = limitlaw.certified_tails(UNIFORM2, target)
    G = ret.values / cert.lam
    step = cert.lam * cert.mu_A
    for s0 in (0.0, 0.05, 0.5 * step, 3.0):
        (row,) = convergence_diagnostics(UNIFORM2, {2: target}, s0=s0)
        k0 = int(s0 // step)
        k = np.arange(k0, ret.horizon + 1)
        left = np.abs(G[k0:] - np.exp(-np.maximum(step * k, s0))).max()
        right = np.abs(G[k0:] - np.exp(-step * (k + 1))).max()
        assert row.d_ret == max(left, right, G[-1], np.exp(-step * ret.horizon))
