import math

import numpy as np
import pytest

from rarehit import (
    TailDistribution,
    cylinder,
    errors,
    exact,
    hitting_tail,
    scaling,
    uniform_iid,
)
from rarehit.scaling import (
    compute_lambda,
    lambda_trajectory,
    scale_certificate,
    scale_search,
    sup_deviation,
    verify,
    verify_exponential_bound,
)

UNIFORM2 = uniform_iid(2)


def test_large_set_is_trivial_regime():
    # A = {1}, n = 1: d = 2 * 1/2 + 0 = 1, delta = 3 >= 1/4, sqrt(d) = 1
    tail = hitting_tail(UNIFORM2, cylinder([1]), 16)
    cert = scale_search(tail, 1, 0.0)
    assert cert.regime == "trivial"
    assert cert.d == pytest.approx(1.0, abs=1e-12)
    assert cert.s is None
    cert = compute_lambda(tail, cert)
    assert cert.lam == 1.0 and cert.nominal


def test_deep_cylinder_quantitative():
    cert, tail = scale_certificate(UNIFORM2, cylinder([1] * 12))
    assert cert.regime == "quantitative"
    assert cert.delta < 0.25
    assert cert.s == 498  # frozen after brute-force-verified run
    assert all(cert.checks.values())
    # scale inequalities recomputed from the tail
    F = 1.0 - tail.values
    sd = math.sqrt(cert.d)
    assert F[cert.s] <= sd + 2 * cert.d + 1e-12
    assert F[cert.s - 2 * cert.n] >= sd
    assert F[cert.s - 2 * cert.n - 1] < sd
    assert (F[2 * cert.n] + 0.0) / F[cert.s - 2 * cert.n] <= sd + 1e-12


def test_synthetic_tail_scale_by_hand():
    # H(k) = exp(-k/1000), n = 5, alpha = 0:
    # sqrt(d) = sqrt(2 (1 - e^{-5/1000})), s = ceil(-1000 ln(1 - sqrt(d))) + 10
    H = np.exp(-np.arange(0, 2001) / 1000.0)
    tail = TailDistribution("hitting", H, 0.001, "exact")
    cert = scale_search(tail, 5, 0.0)
    sd = math.sqrt(2.0 * (1.0 - math.exp(-5 / 1000)))
    s_hand = math.ceil(-1000.0 * math.log(1.0 - sd)) + 10
    assert cert.s == s_hand == 116


def test_compute_lambda_formula():
    # H(8) = 2^-8, s = 10, n = 1, mu = 1/2 -> lambda = 8 ln2 / 5
    H = np.ones(12)
    H[1:] = 2.0 ** -np.arange(1, 12)
    tail = TailDistribution("hitting", H, 0.5, "exact")
    cert = scaling.ScaleCertificate(1, 0.001, 3 * math.sqrt(0.001), "quantitative",
                                    10, None, False, 0.5, {})
    out = compute_lambda(tail, cert)
    assert out.lam == pytest.approx(8 * math.log(2) / 5, rel=1e-12)


def test_lambda_exponential_tail():
    # H(k) = exp(-mu k) exactly gives lambda = (s - 2n)/s, approaching 1
    # as the scale grows relative to the rank
    mu = 0.01
    n = 3
    H = np.exp(-mu * np.arange(0, 2001))
    tail = TailDistribution("hitting", H, mu, "exact")
    for s in (40, 400, 2000):
        cert = scaling.ScaleCertificate(n, 1e-4, 0.03, "quantitative", s, None,
                                        False, mu, {})
        out = compute_lambda(tail, cert)
        assert out.lam == pytest.approx((s - 2 * n) / s, rel=1e-12)
    assert abs(out.lam - 1.0) <= 2 * n / 2000


def test_zero_tail_error():
    H = np.ones(20)
    H[1:] = 0.0
    tail = TailDistribution("hitting", H, 0.5, "exact")
    cert = scaling.ScaleCertificate(1, 0.001, 0.095, "quantitative", 10, None,
                                    False, 0.5, {})
    with pytest.raises(errors.ZeroTailError):
        compute_lambda(tail, cert)


def test_horizon_too_short_raised():
    tail = hitting_tail(UNIFORM2, cylinder([1] * 12), 20)
    with pytest.raises(errors.HorizonTooShortError):
        scale_search(tail, 12, 0.0)


def test_verify_trivial_regime_passes():
    cert, report, _ = verify(UNIFORM2, cylinder([1]))
    assert report.bound >= 3.0  # vacuous statement
    assert report.passed


def test_verify_deep_cylinder_frozen_sup_dev():
    cert, report, _ = verify(UNIFORM2, cylinder([1] * 12))
    assert report.passed
    assert report.sup_dev == pytest.approx(0.01744451267206415, abs=1e-10)
    assert report.sup_dev < report.bound


def test_verify_requires_long_horizon():
    cert, tail = scale_certificate(UNIFORM2, cylinder([1] * 8))
    with pytest.raises(errors.HorizonTooShortError):
        verify_exponential_bound(tail.truncated(20), cert)


def test_lambda_trajectory_periodic_point():
    certs = lambda_trajectory(UNIFORM2, "0", range(2, 13))
    lams = [c.lam for c in certs]
    # short-return deflation at the fixed point: lambda near 1/2
    assert lams[-1] == pytest.approx(0.47762752781383117, abs=1e-10)
    for c in certs:
        if c.regime == "quantitative":
            assert c.lam <= 1.0 / (1.0 - c.delta) <= 2.0


def test_lambda_trajectory_aperiodic_point():
    point = "01101110010111011110001"
    certs = lambda_trajectory(UNIFORM2, point, range(2, 13))
    assert certs[-1].lam > 0.9  # near 1 away from periodicity
    assert all(c.lam > 0 for c in certs)


def test_certificate_json():
    cert, _ = scale_certificate(UNIFORM2, cylinder([1] * 12))
    d = cert.to_dict()
    assert d["regime"] == "quantitative"
    assert isinstance(d["checks"]["minimality"], bool)
    import json
    json.loads(cert.to_json())


def test_unreachable_threshold_refused_before_doubling(monkeypatch):
    # mu(1^60) = 2^-60: mu(tau <= j) <= j*mu(A) puts the crossing of
    # sqrt(d) ~ 7e-9 beyond 10^9 steps, so no horizon is pushed past n.
    horizons = []
    real = exact.TailEngine.extend

    def recorded(self, K):
        horizons.append(K)
        if K > 10 ** 4:
            raise AssertionError(f"pushed to K={K} before refusing")
        return real(self, K)

    monkeypatch.setattr(exact.TailEngine, "extend", recorded)
    with pytest.raises(errors.HorizonTooShortError):
        scale_certificate(UNIFORM2, cylinder([1] * 60))
    assert horizons == [60]


def test_unverifiable_horizon_refused_at_once():
    # H(K) >= 1 - K*mu(A) needs K ~ 2^40 for H(K) <= 1e-4.
    with pytest.raises(errors.HorizonTooShortError):
        verify(UNIFORM2, cylinder([1] * 40))
    # exp(-lam*mu*K) <= 1e-4 needs K ~ 9.2/(lam*2^-12) > 1000: no push.
    cert, tail = scale_certificate(UNIFORM2, cylinder([1] * 12))
    steps = tail.engine.steps
    with pytest.raises(errors.HorizonTooShortError):
        scaling.extend_for_verification(UNIFORM2, cylinder([1] * 12), tail, cert.lam,
                                        max_steps=1000)
    assert tail.engine.steps == steps


def test_certificate_reads_accumulated_F():
    cert, tail = scale_certificate(UNIFORM2, cylinder([1] * 12))
    j = cert.s - 2 * cert.n
    assert cert.d == 2.0 * tail.absorbed[cert.n]
    assert cert.lam == -math.log1p(-tail.absorbed[j]) / (cert.s * cert.mu_A)


def _flat_endpoint_sup(levels, step, s0=0.0):
    """Python-loop reference: both endpoints of every flat from s0 on."""
    K = len(levels) - 1
    best = max(levels[-1], math.exp(-step * K))
    for k in range(int(math.floor(s0 / step)), K + 1):
        left, right = max(step * k, s0), step * (k + 1)
        best = max(best, abs(levels[k] - math.exp(-left)), abs(levels[k] - math.exp(-right)))
    return best


def test_sup_deviation_reaches_right_flat_endpoints():
    # A tail lying above exp(-t): on each flat the gap is widest at the right
    # end, which a check at integer k alone misses.
    mu = 0.05
    H = np.minimum(1.0, 1.05 * np.exp(-mu * np.arange(400)))
    tail = TailDistribution("hitting", H, mu, "exact")
    cert = scaling.ScaleCertificate(1, 1e-4, 0.03, "quantitative", 10, 1.0,
                                    False, mu, {})
    report = verify_exponential_bound(tail, cert)
    assert report.sup_dev == pytest.approx(_flat_endpoint_sup(H, mu), rel=1e-14)
    integer_k = float(np.abs(H - np.exp(-mu * np.arange(400))).max())
    assert report.sup_dev > integer_k + 0.04
    t = np.linspace(0.0, mu * 400, 20001)
    sampled = np.abs(H[np.minimum((t / mu).astype(int), 399)] - np.exp(-t)).max()
    assert sampled <= report.sup_dev <= sampled + (t[1] - t[0])


def test_sup_deviation_chunked_equals_one_pass():
    cert, report, tail = verify(UNIFORM2, cylinder([1] * 16))
    assert tail.horizon > 1 << 16
    step = cert.lam * cert.mu_A
    k = np.arange(tail.horizon + 1)
    H = tail.values
    one_pass = max(float(np.abs(H - np.exp(-step * k)).max()),
                   float(np.abs(H - np.exp(-step * (k + 1))).max()),
                   float(H[-1]), math.exp(-step * tail.horizon))
    assert report.sup_dev == one_pass


@pytest.mark.parametrize("chunk", [1, 7, 64, 1 << 16])
def test_sup_deviation_independent_of_chunk(monkeypatch, chunk):
    rng = np.random.default_rng(5)
    levels = np.sort(rng.random(300))[::-1] * 1.5
    want = [sup_deviation(levels, 0.03, s0) for s0 in (0.0, 0.05, 2.0, 8.99)]
    monkeypatch.setattr(scaling, "_SUP_CHUNK", chunk)
    assert [sup_deviation(levels, 0.03, s0) for s0 in (0.0, 0.05, 2.0, 8.99)] == want
    for s0, got in zip((0.0, 0.05, 2.0, 8.99), want):
        assert got == pytest.approx(_flat_endpoint_sup(levels, 0.03, s0), rel=1e-14)


def test_sup_deviation_clamps_first_flat_to_s0():
    # levels[0] = 0 sits on [0, 1): from s0 = 0.5 its left end is exp(-0.5),
    # not exp(0); later flats match exp(-t) at their left ends.
    levels = np.exp(-np.arange(12.0))
    levels[0] = 0.0
    assert sup_deviation(levels, 1.0) == 1.0
    assert sup_deviation(levels, 1.0, 0.5) == pytest.approx(math.exp(-0.5), rel=1e-15)
    # From s0 = 1.5 the first flat is skipped; flat 1 starts at 1.5.
    assert sup_deviation(levels, 1.0, 1.5) == pytest.approx(
        max(math.exp(-1.5) - math.exp(-1), math.exp(-1) - math.exp(-2)), rel=1e-15)
    assert sup_deviation(levels, 1.0, 1.5) == pytest.approx(
        _flat_endpoint_sup(levels, 1.0, 1.5), rel=1e-15)


def test_sup_deviation_rejects_s0_outside_the_table():
    levels = np.exp(-np.arange(10.0))
    for s0 in (-0.5, math.nan):
        with pytest.raises(errors.DomainError):
            sup_deviation(levels, 1.0, s0)
    for s0 in (10.0, math.inf):
        with pytest.raises(errors.HorizonTooShortError):
            sup_deviation(levels, 1.0, s0)
    assert sup_deviation(levels, 1.0, 9.5) == pytest.approx(
        _flat_endpoint_sup(levels, 1.0, 9.5), rel=1e-15)
