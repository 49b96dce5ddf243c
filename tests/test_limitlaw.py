import math
import tracemalloc

import numpy as np
import pytest

from rarehit import (
    ExponentialLaw,
    brute_force_tail,
    check_integral_relation,
    check_sandwich,
    cli,
    cylinder,
    errors,
    exact,
    hamming_ball,
    hitting_tail,
    kac_bound_violation,
    limitlaw,
    markov,
    return_tail,
    scaling,
    convergence_diagnostics,
    uniform_iid,
)

UNIFORM2 = uniform_iid(2)


def _laws(model, target):
    cert, _, K = scaling.verify(model, target)
    F = limitlaw.StepLaw(hitting_tail(model, target, K), cert.lam)
    G = limitlaw.StepLaw(return_tail(model, target, K), cert.lam)
    return cert, F, G


def test_F_geometric_closed_form():
    # H = (1/2)^k rescaled by lam*mu = 1/2: F(t) = 1 - (1/2)^floor(2t)
    tail = hitting_tail(UNIFORM2, cylinder([1]), 64)
    F = limitlaw.StepLaw(tail, 1.0)
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


def test_kac_bound_holds_trivially_at_zero():
    cert, _, G = _laws(UNIFORM2, cylinder([1, 1]))
    grid = np.linspace(0.0, 0.9 * G.t_max, 50)
    with np.errstate(divide="raise"):
        assert kac_bound_violation(G, grid) == kac_bound_violation(G, grid[1:])
        assert kac_bound_violation(G, [0.0]) == -math.inf


def test_G_at_zero_plus_is_inverse_lambda():
    cert, _, G = _laws(UNIFORM2, cylinder([1, 1]))
    assert G.value(0.0) == pytest.approx(1.0 / cert.lam, rel=1e-12)


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
    rows = convergence_diagnostics(UNIFORM2, "0,1", range(2, 9))
    for r in rows:
        assert r.d_hit <= r.bound
        assert r.d_ret >= 0.0
    # exact families around the alternating point improve with n eventually
    assert rows[-1].d_hit < rows[0].d_hit


def test_convergence_diagnostics_markov():
    model = markov([[0.9, 0.1], [0.5, 0.5]])
    rows = convergence_diagnostics(model, "0,1", range(2, 7))
    for r in rows:
        assert r.d_hit <= r.bound


def test_diagnostics_csv():
    import io
    rows = convergence_diagnostics(UNIFORM2, "0", range(2, 4))
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
    F = limitlaw.StepLaw(tail, 1.0)
    dev = max(abs((1.0 - F.value(t)) - np.exp(-t)) for t in np.linspace(0, 10, 500))
    assert dev <= mu


def test_step_law_rejects_times_outside_its_table():
    tail = hitting_tail(UNIFORM2, cylinder([1]), 8)
    F = limitlaw.StepLaw(tail, 1.0)
    for t in (-0.1, float("nan")):
        with pytest.raises(errors.DomainError):
            F.value(t)
    for t in (4.5, float("inf")):
        with pytest.raises(errors.HorizonTooShortError):
            F.value(t)
    with pytest.raises(errors.DomainError):
        F.integral(1.0, 0.5)


def test_step_law_refuses_a_step_that_is_not_positive():
    # lam*mu(A) underflows although both are positive; else one of them is not.
    tiny = exact.TailDistribution("hitting", np.array([1.0, 0.5]), 1e-320, "exact")
    with pytest.raises(errors.MeasureUnderflowError, match="underflows"):
        limitlaw.StepLaw(tiny, 1e-10)
    tail = hitting_tail(UNIFORM2, cylinder([1]), 8)
    null = exact.TailDistribution("hitting", np.array([1.0, 0.5]), 0.0, "exact")
    for t, lam in ((tail, 0.0), (tail, -1.0), (tail, math.nan), (null, 1.0)):
        with pytest.raises(errors.DomainError, match="must be positive"):
            limitlaw.StepLaw(t, lam)


def test_step_law_reads_its_role_and_measure_from_the_tail():
    hit = hitting_tail(UNIFORM2, cylinder([1, 1]), 8)
    ret = return_tail(UNIFORM2, cylinder([1, 1]), 8)
    F, G = limitlaw.StepLaw(hit, 2.0), limitlaw.StepLaw(ret, 2.0)
    assert F.step == G.step == 2.0 * 0.25
    np.testing.assert_array_equal(F.levels, 1.0 - hit.values)
    np.testing.assert_array_equal(G.levels, ret.values / 2.0)


def test_sandwich_rejects_reversed_pair():
    F, G = ExponentialLaw("F"), ExponentialLaw("G")
    with pytest.raises(errors.DomainError):
        check_sandwich(F, G, 0.1, [(1.0, 0.5)])


def test_verify_and_sweep_share_the_hitting_deviation():
    # The sweep value pinned for binary 0,0 in the benchmark reference.
    cert, report, K = scaling.verify(UNIFORM2, cylinder([0, 0]))
    (row,) = convergence_diagnostics(UNIFORM2, "0", range(2, 3))
    assert report.sup_dev == row.d_hit == 0.14380382468551522
    assert row.bound == report.bound + 2 * cert.mu_A
    # D_ret is read off the rescaled return law, not a second copy of it.
    G = limitlaw.StepLaw(return_tail(UNIFORM2, cylinder([0, 0]), K), cert.lam)
    for s0 in (0.0, 0.05):
        (row,) = convergence_diagnostics(UNIFORM2, "0", range(2, 3), s0)
        assert row.d_ret == scaling.sup_deviation(G.levels, G.step, s0)


def test_return_deviation_starts_at_s0():
    target = cylinder([0, 1])
    cert, _, K = scaling.verify(UNIFORM2, target)
    ret = return_tail(UNIFORM2, target, K)
    G = ret.values / cert.lam
    step = cert.lam * cert.mu_A
    for s0 in (0.0, 0.05, 0.5 * step, 3.0):
        (row,) = convergence_diagnostics(UNIFORM2, "0,1", range(2, 3), s0=s0)
        k0 = int(s0 // step)
        k = np.arange(k0, ret.horizon + 1)
        left = np.abs(G[k0:] - np.exp(-np.maximum(step * k, s0))).max()
        right = np.abs(G[k0:] - np.exp(-step * (k + 1))).max()
        assert row.d_ret == max(left, right, G[-1], np.exp(-step * ret.horizon))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_peaks_at_its_largest_row():
    # Each row's tables are freed before the next row is built: row 11's
    # hitting, return and G tables would add 1.5 of row 12's horizon arrays.
    K = 131072  # row 12's verified horizon
    convergence_diagnostics(UNIFORM2, "0", range(12, 13))  # warm every cache
    row = _traced_peak(lambda: convergence_diagnostics(UNIFORM2, "0", range(12, 13)))
    sweep = _traced_peak(lambda: convergence_diagnostics(UNIFORM2, "0", range(10, 13)))
    assert scaling.Analysis(UNIFORM2, cylinder([0] * 12)).verification[2] == K
    assert sweep <= row + 0.1 * 8 * (K + 1)


def test_a_sweep_row_holds_two_horizon_arrays():
    # Row 12's hitting and return tails are streamed and folded, not held:
    # the row peaks at a few segments of at most exact._STACK doubles, its
    # 131,072-step horizon notwithstanding (two horizon arrays were 2 MB).
    convergence_diagnostics(UNIFORM2, "0", range(12, 13))  # warm every cache
    peak = _traced_peak(lambda: convergence_diagnostics(UNIFORM2, "0", range(12, 13)))
    assert peak <= 6 * 8 * exact._STACK


def test_verification_and_return_tails_carry_no_F():
    analysis = scaling.Analysis(UNIFORM2, cylinder([1] * 6), keep=True)
    cert, _, K = analysis.verification
    assert cert is analysis.certificate[0]
    # The verification's stream pushed H alone, as the return stream does;
    # a fresh engine's F meets the discrete Haydn-Lacroix-Vaienti identity
    # with the return tail.
    assert analysis.hitting.kept and all(F is None for _, _, F in analysis.hitting.kept)
    ret = return_tail(UNIFORM2, cylinder([1] * 6), K)
    assert analysis.hitting.tail(K).absorbed is None
    F = hitting_tail(UNIFORM2, cylinder([1] * 6), K).absorbed
    assert np.max(np.abs(ret.mu_A * ret.values[:-1] - np.diff(F))) <= 1e-15


def test_limitlaw_pushes_its_hitting_tail_once_past_the_certificate(tmp_path, monkeypatch):
    # The certificate's stream (with F) stops within its horizon; the
    # verification's stream, kept, gives F's table, and the return stream
    # G's: no engine pushes the hitting tail past the certificate twice.
    engines = []
    real = exact.TailEngine.__init__

    def built(self, *args, **kwargs):
        real(self, *args, **kwargs)
        engines.append(self)

    monkeypatch.setattr(exact.TailEngine, "__init__", built)
    argv = ["limitlaw", "--model", "iid-uniform-2", "--target", "cyl:" + ",".join("0" * 12)]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    K_c, K_v = 512, 131072
    assert [(e.kind, e.absorbed) for e in engines] == [
        ("hitting", True), ("hitting", False), ("return", False)]
    assert engines[0].step <= K_c and engines[1].step == engines[2].step == K_v
    monkeypatch.setattr(exact.TailEngine, "__init__", real)
    analysis = scaling.Analysis(UNIFORM2, cylinder([0] * 12))
    assert (analysis.certificate[1], analysis.verification[2]) == (K_c, K_v)
