import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings, strategies as st

from rarehit import (
    TailDistribution,
    _folds,
    cli,
    cylinder,
    errors,
    exact,
    hamming_ball,
    hitting_tail,
    iid,
    markov,
    return_tail,
    scaling,
    uniform_iid,
)
from rarehit.scaling import (
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
    assert cert.lam == 1.0 and cert.nominal


def test_deep_cylinder_quantitative():
    cert, K = scale_certificate(UNIFORM2, cylinder([1] * 12))
    tail = hitting_tail(UNIFORM2, cylinder([1] * 12), K)
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


def _search_at(H, n, j, mu):
    """scale_search on the tail H with alpha(n) chosen so that sqrt(d) falls
    between F(j-1) and F(j): the search then selects s = j + 2n."""
    tail = TailDistribution("hitting", H, mu, "exact")
    F = 1.0 - H
    sd = 0.5 * (F[j - 1] + F[j])
    return scale_search(tail, n, sd * sd - 2.0 * F[n])


def test_lambda_formula():
    # H(8) = 2^-8, s = 10, n = 1, mu = 1/2 -> lambda = 8 ln2 / 5
    H = np.array([1.0, 1.0 - 5e-4] + [0.99] * 6 + [2.0 ** -k for k in range(8, 12)])
    cert = _search_at(H, 1, 8, 0.5)
    assert cert.s == 10
    assert cert.lam == pytest.approx(8 * math.log(2) / 5, rel=1e-12)


def test_lambda_exponential_tail():
    # H(k) = exp(-mu k) exactly gives lambda = (s - 2n)/s, approaching 1
    # as the scale grows relative to the rank
    mu = 0.01
    n = 3
    H = np.exp(-mu * np.arange(0, 2001))
    for s in (40, 400, 2000):
        cert = _search_at(H, n, s - 2 * n, mu)
        assert cert.s == s
        assert cert.lam == pytest.approx((s - 2 * n) / s, rel=1e-12)
    assert abs(cert.lam - 1.0) <= 2 * n / 2000


def test_zero_tail_error():
    # F(1) = 1e-4 puts sqrt(d) at 0.014, first reached at j = 2 where H = 0
    H = np.zeros(20)
    H[:2] = 1.0, 1.0 - 1e-4
    tail = TailDistribution("hitting", H, 0.5, "exact")
    with pytest.raises(errors.ZeroTailError):
        scale_search(tail, 1, 0.0)


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
    cert, K = scale_certificate(UNIFORM2, cylinder([1] * 8))
    tail = hitting_tail(UNIFORM2, cylinder([1] * 8), K)
    with pytest.raises(errors.HorizonTooShortError):
        verify_exponential_bound(TailDistribution(tail.kind, tail.values[:21], tail.mu_A,
                                                  tail.source), cert)


def test_lambda_trajectory_periodic_point():
    certs = lambda_trajectory(UNIFORM2, "0", range(2, 13))
    lams = [c.lam for c in certs]
    # short-return deflation at the fixed point: lambda near 1/2
    assert lams[-1] == pytest.approx(0.47762752781383117, abs=1e-10)
    for c in certs:
        if c.regime == "quantitative":
            assert c.lam <= 1.0 / (1.0 - c.delta) <= 2.0


def test_lambda_trajectory_aperiodic_point():
    point = ",".join("01101110010111011110001")
    certs = lambda_trajectory(UNIFORM2, point, range(2, 13))
    assert certs[-1].lam > 0.9  # near 1 away from periodicity
    assert all(c.lam > 0 for c in certs)


def test_lambda_trajectory_reads_the_cli_point_syntax():
    # "01" is one symbol written with a leading zero, not the word 0,1
    with pytest.raises(errors.ConfigInvalidError):
        lambda_trajectory(UNIFORM2, "01", range(2, 4))


def test_certificate_json():
    cert, _ = scale_certificate(UNIFORM2, cylinder([1] * 12))
    d = cert.to_dict()
    assert d["regime"] == "quantitative"
    assert isinstance(d["checks"]["minimality"], bool)
    import json
    assert json.loads(json.dumps(d)) == d


def test_unreachable_threshold_refused_before_doubling(monkeypatch):
    # mu(1^60) = 2^-60: mu(tau <= j) <= j*mu(A) puts the crossing of
    # sqrt(d) ~ 7e-9 beyond 10^9 steps; mu(A) <= mu(tau <= n) <= n*mu(A)
    # already bounds sqrt(d) in [1.3e-9, 1.1e-8], so nothing is pushed.
    horizons = []
    real = exact.TailEngine.segments

    def recorded(self, K):
        horizons.append(K)
        if K > 10 ** 4:
            raise AssertionError(f"pushed to K={K} before refusing")
        return real(self, K)

    monkeypatch.setattr(exact.TailEngine, "segments", recorded)
    with pytest.raises(errors.HorizonTooShortError):
        scale_certificate(UNIFORM2, cylinder([1] * 60))
    assert horizons == []


class _ExactPath(Exception):
    """Raised by a stub push: the certificate went on to the chain."""


@st.composite
def _sources_and_targets(draw):
    """CLI specs of an IID or Markov source on 2 or 3 symbols (every entry
    at least 0.05 before normalizing) and of a cylinder, or a Hamming ball
    of radius 1, of length up to 80."""
    q = draw(st.integers(2, 3))
    row = st.lists(st.floats(0.05, 1.0), min_size=q, max_size=q).map(
        lambda w: [x / sum(w) for x in w])
    if draw(st.booleans()):
        model = {"kind": "iid", "probs": draw(row)}
    else:
        model = {"kind": "markov", "transition": [draw(row) for _ in range(q)]}
    n = draw(st.integers(1, 80))
    word = ",".join(map(str, draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n))))
    ball = n > 1 and draw(st.booleans())
    return json.dumps(model), f"hamming:{word}:{1.5 / n}" if ball else f"cyl:{word}"


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@example(case=("iid-uniform-2", "cyl:" + ",".join(["1"] * 60)))  # fires
@example(case=("iid-uniform-2", "cyl:" + ",".join(["1"] * 52)))  # left open, refused exactly
@example(case=("iid-uniform-2", "cyl:1"))  # trivial regime: sqrt(d) = 1
@example(case=('{"kind":"markov","transition":[[0.9,0.1],[0.5,0.5]]}', "cyl:0,1,1,0"))
@given(case=_sources_and_targets())
def test_the_early_step_cap_refusal_implies_the_exact_one(monkeypatch, tmp_path, case):
    model = cli.parse_model(case[0])
    target = cli.parse_target(case[1], model.alphabet_size)
    analysis = scaling.Analysis(model, target)
    n, mu_A = target.n, analysis.mu_A
    # The exact path: sqrt(d) from the chain's F[n], refused when the
    # crossing lies past the cap and sqrt(d) < 1 (else it is certified).
    F_n = exact.TailEngine(analysis.chain).tail(n).cdf[n]
    sd = math.sqrt(2.0 * F_n + analysis.alpha_n)
    refused = mu_A * (exact.MAX_TAIL_STEPS - 2 * n) < sd < 1.0
    # The bounds the early check reads, stationarity and the union bound,
    # hold for the pushed F[n] within their margin.
    margin = scaling._F_MARGIN
    assert mu_A * (1.0 - margin) <= F_n <= n * mu_A * (1.0 + margin)

    def stop(*args, **kwargs):
        raise _ExactPath

    # The early check fired when the certificate refused before any push.
    with monkeypatch.context() as m:
        m.setattr(exact.TailEngine, "segments", stop)
        with pytest.raises((_ExactPath, errors.HorizonTooShortError)) as info:
            scaling.Analysis(model, target).certificate
    fired = info.type is not _ExactPath
    event(f"early refusal: {fired}, exact refusal: {refused}, trivial: {sd >= 1.0}")
    assert refused or not fired
    if fired:  # the CLI exits as on the exact path, where _NORMAL = inf turns it off
        argv = ["lambda", "--model", case[0], "--target", case[1], "--out", str(tmp_path / "o")]
        codes = [cli.main(argv)]
        with monkeypatch.context() as m:
            m.setattr(scaling, "_NORMAL", math.inf)
            codes.append(cli.main(argv))
        assert codes == [cli.EXIT_RESOURCE] * 2


def test_unverifiable_horizon_refused_at_once(monkeypatch):
    # H(K) >= 1 - K*mu(A) needs K ~ 2^40 for H(K) <= 1e-4.
    with pytest.raises(errors.HorizonTooShortError):
        verify(UNIFORM2, cylinder([1] * 40))
    # exp(-lam*mu*K) <= 1e-4 needs K ~ 9.2/(lam*2^-12) > 1000: no push.
    analysis = scaling.Analysis(UNIFORM2, cylinder([1] * 12))
    cert, K = analysis.certificate
    engine = exact.TailEngine(analysis.chain, absorbed=False)
    monkeypatch.setattr(exact, "MAX_TAIL_STEPS", 1000)
    with pytest.raises(errors.HorizonTooShortError):
        scaling.extend_for_verification(engine, K, cert.lam)
    assert engine.step == 0


def test_certificate_reads_accumulated_F():
    cert, K = scale_certificate(UNIFORM2, cylinder([1] * 12))
    tail = hitting_tail(UNIFORM2, cylinder([1] * 12), K)
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
    cert = scaling.ScaleCertificate(1, 1e-4, 10, 1.0, mu, {})
    report = verify_exponential_bound(tail, cert)
    assert report.sup_dev == pytest.approx(_flat_endpoint_sup(H, mu), rel=1e-14)
    integer_k = float(np.abs(H - np.exp(-mu * np.arange(400))).max())
    assert report.sup_dev > integer_k + 0.04
    t = np.linspace(0.0, mu * 400, 20001)
    sampled = np.abs(H[np.minimum((t / mu).astype(int), 399)] - np.exp(-t)).max()
    assert sampled <= report.sup_dev <= sampled + (t[1] - t[0])


def test_sup_deviation_chunked_equals_one_pass():
    cert, report, K = verify(UNIFORM2, cylinder([1] * 16))
    tail = hitting_tail(UNIFORM2, cylinder([1] * 16), K)
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
    monkeypatch.setattr(_folds, "_SUP_CHUNK", chunk)
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


def test_sup_deviation_refuses_a_step_that_is_not_positive():
    for step in (0.0, -1.0, math.nan):
        with pytest.raises(errors.DomainError, match="step must be positive"):
            sup_deviation(np.ones(3), step)
    for div in (0.0, -1.0, math.nan):
        with pytest.raises(errors.DomainError, match="div must be positive"):
            sup_deviation(np.ones(3), 0.5, div=div)


def _one_pass_sup(levels, step, s0=0.0):
    """sup_deviation in one pass over the whole table: no chunks, no early stop."""
    K = levels.size - 1
    k0 = int(math.floor(s0 / step))
    t = step * np.arange(k0, K + 2)
    t[0] = max(t[0], s0)
    e = np.exp(-t)
    flats = levels[k0:]
    return max(float(levels[-1]), math.exp(-step * K),
               float(np.abs(flats - e[:-1]).max()), float(np.abs(flats - e[1:]).max()))


class _CountedExp:
    """numpy, with the number of exp terms taken counted."""

    def __init__(self):
        self.terms = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def exp(self, x):
        self.terms += np.size(x)
        return np.exp(x)


def test_sup_deviation_stops_early_on_engine_tails(monkeypatch):
    cert, _, K = scaling.verify(UNIFORM2, cylinder([1] * 12))
    A = cylinder([1] * 12)
    hit, ret = hitting_tail(UNIFORM2, A, K), return_tail(UNIFORM2, A, K)
    step = cert.lam * cert.mu_A
    counted = _CountedExp()
    monkeypatch.setattr(_folds, "np", counted)
    for levels in (hit.values, ret.values / cert.lam):
        for s0 in (0.0, 0.05, 1.0):
            assert sup_deviation(levels, step, s0) == _one_pass_sup(levels, step, s0)
    # The verification tail needs H(K) <= 1e-4; its sup is reached long before.
    counted.terms = 0
    sup_deviation(hit.values, step)
    assert hit.horizon == 131072 and counted.terms < hit.horizon // 3


def test_sup_deviation_scans_to_a_late_bump_or_a_negative_level():
    step, K = 1e-3, 40000
    exponential = np.exp(-step * np.arange(K + 1))
    bump = exponential.copy()
    bump[30000] = 0.5  # far above the running sup, past several chunks
    dip = exponential.copy()
    dip[35000] = -0.25  # a negative level widens the gap beyond max(levels, exp)
    dust = np.minimum(exponential, 0.999)
    dust[20000:] = -1e-13
    for levels in (bump, dip, dust):
        for s0 in (0.0, 0.05, 12.0):
            assert sup_deviation(levels, step, s0) == _one_pass_sup(levels, step, s0)
    assert sup_deviation(bump, step) == pytest.approx(0.5 - math.exp(-30.0), rel=1e-12)
    assert sup_deviation(dip, step) == pytest.approx(0.25 + math.exp(-35.0), rel=1e-12)


@pytest.mark.parametrize("chunk", [1, 3, 8])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_sup_deviation_equals_one_pass_for_any_levels(chunk, data):
    size = data.draw(st.integers(1, 60))
    levels = np.array(data.draw(st.lists(st.floats(-0.5, 1.5), min_size=size, max_size=size)))
    step = data.draw(st.floats(0.01, 2.0))
    s0 = data.draw(st.floats(0.0, step * size, exclude_max=True))
    div = data.draw(st.floats(0.01, 100.0))  # levels divided chunk by chunk, as a sweep's G
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_folds, "_SUP_CHUNK", chunk)
        assert sup_deviation(levels, step, s0) == _one_pass_sup(levels, step, s0)
        assert sup_deviation(levels, step, s0, div) == _one_pass_sup(levels / div, step, s0)


def _verification_peak(n):
    """The verified horizon of U2 1^n, and the tracemalloc peak of its
    certificate and verification, the chain included."""
    analysis = scaling.Analysis(UNIFORM2, cylinder([1] * n))
    tracemalloc.start()
    try:
        K = analysis.verification[2]
        return K, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verification_peaks_at_three_horizon_arrays():
    # Streamed: a segment of H (and F for the certificate), its stack of live
    # vectors, the sup's chunks of flats and their exp arrays.  The bound
    # is a number of _STACK-sized arrays, not of horizon-length ones.
    K, peak = _verification_peak(12)
    assert K == 131072
    assert peak <= 6 * 8 * exact._STACK


def test_a_verification_peak_does_not_grow_with_its_horizon():
    # 16 times the horizon, the same peak within 64 KB.
    (K12, peak12), (K16, peak16) = _verification_peak(12), _verification_peak(16)
    assert (K12, K16) == (131072, 2097152)
    assert abs(peak16 - peak12) < 64 * 1024


@pytest.mark.parametrize("levels", [[1.0, math.nan, 0.5], [math.nan], [1.0, 0.5, math.nan]])
def test_sup_deviation_refuses_nan_levels(levels):
    with pytest.raises(errors.DomainError, match="NaN"):
        sup_deviation(np.array(levels), 0.5)


def test_zero_measure_target_refused_before_any_push(monkeypatch):
    # iid(1, 0) never emits 1, so mu([1,1]) = 0 and no scale s exists.
    never_one = iid([1.0, 0.0])
    pushed = []
    monkeypatch.setattr(exact.TailEngine, "segments", lambda self, K: pushed.append(K))
    for call in (scale_certificate, scaling.Analysis, verify):
        with pytest.raises(errors.ZeroMeasureSetError):
            call(never_one, cylinder([1, 1]))
    assert pushed == []


def test_scale_search_refuses_an_underflowed_smallness():
    # mu(A) = 2^-1074 > 0, but every absorbed increment underflowed: F = 0
    # and d = 0, where j = 0 would give s = 2n and lambda = 0.
    tail = TailDistribution("hitting", np.ones(40), 5e-324, "exact", absorbed=np.zeros(40))
    with pytest.raises(errors.MeasureUnderflowError, match="underflow"):
        scale_search(tail, 4, 0.0)


def test_scale_search_refuses_a_zero_measure_tail():
    tail = exact.brute_force_tail(iid([1.0, 0.0]), cylinder([1, 1]), 12)
    with pytest.raises(errors.ZeroMeasureSetError):
        scale_search(tail, 2, 0.0)


def _counted_searches(monkeypatch):
    """The n of each run of the certificate fold, in call order."""
    calls = []
    real = scaling._certify

    def counted(segments, n, *args, **kwargs):
        calls.append(n)
        return real(segments, n, *args, **kwargs)

    monkeypatch.setattr(scaling, "_certify", counted)
    return calls


def test_scale_search_runs_once_per_certificate(monkeypatch):
    searches = _counted_searches(monkeypatch)
    # streamed over ten horizons, 96 -> 49,152, in one fold
    assert scale_certificate(UNIFORM2, cylinder([1] * 24))[1] == 49152
    assert searches == [24]
    searches.clear()
    analysis = scaling.Analysis(UNIFORM2, cylinder([1] * 10))
    analysis.verification
    assert searches == [10] and analysis.certificate[1] == 256


@pytest.mark.parametrize("model, target, cert_K, verify_K", [
    (UNIFORM2, cylinder([1]), 64, 64),  # sqrt(d) >= 1: the first horizon serves
    (UNIFORM2, cylinder([1] * 10), 256, 32768),
    (UNIFORM2, cylinder([1] * 12), 512, 131072),
    (uniform_iid(4), hamming_ball([0] * 8, 0.25, 4), 128, 8192),
    (markov([[0.9, 0.1], [0.5, 0.5]]), cylinder([0, 1, 1, 0]), 64, 1024),
    (iid([0.8, 0.2]), cylinder([1, 1, 0, 1]), 64, 2048),
])
def test_certificate_and_verification_horizons(model, target, cert_K, verify_K):
    # The certificate tail and the verification tail end where the outputs
    # pinned elsewhere were computed: K, 2K, 4K, ... from max(4n, 64).
    analysis = scaling.Analysis(model, target)
    assert analysis.certificate[1] == cert_K
    assert analysis.verification[2] == verify_K


U4_BALL = ["--model", "iid-uniform-4", "--target", "hamming:0,0,0,0,0,0,0,0:0.25"]


@pytest.mark.parametrize("argv, words", [
    pytest.param(["lambda", *U4_BALL, "--assert"], [(277, 8)], id="lambda"),
    pytest.param(["verify", *U4_BALL, "--assert"], [(277, 8)], id="verify"),
    pytest.param(["limitlaw", *U4_BALL, "--assert"], [(277, 8)], id="limitlaw"),
    pytest.param(["tail", *U4_BALL, "--K", "300"], [(277, 8)], id="tail"),
    pytest.param(["sweep", "--model", "iid-uniform-4", "--point", "0,1", "--n-min", "2",
                  "--n-max", "4", "--assert"], [(1, 2), (1, 3), (1, 4)], id="sweep"),
])
def test_verify_measures_the_target_words_once(monkeypatch, tmp_path, argv, words):
    # Each run builds one composed chain per target: the up-front refusals,
    # the certificate, verification and the return tail all read it, so
    # the 277 words of the U4 ball (or each sweep row's word) are measured once.
    from rarehit import cli, process, targets
    calls, chains = [], []
    real_measures, real_init = process.word_measures, exact.ComposedChain.__init__

    def counted(model, words):
        calls.append(words.shape)
        return real_measures(model, words)

    def built(self, model, target, word_p=None):
        chains.append(target.n)
        real_init(self, model, target, word_p)

    for module in (process, targets, exact):
        monkeypatch.setattr(module, "word_measures", counted)
    monkeypatch.setattr(exact.ComposedChain, "__init__", built)
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == cli.EXIT_OK
    assert calls == words
    assert chains == [n for _, n in words]


def test_analysis_resumes_one_engine_and_caches_each_result(monkeypatch):
    analysis = scaling.Analysis(markov([[0.9, 0.1], [0.5, 0.5]]), cylinder([0, 1, 1, 0]),
                                keep=True)
    cert, K = analysis.certificate
    assert K == 64
    verified, report, K = analysis.verification
    assert verified is cert
    assert K == 1024
    # The verification's engine, kept, and the return stream match fresh
    # engines on a fresh chain bit for bit.
    model, target = analysis.chain.model, analysis.chain.target
    hit, ret = hitting_tail(model, target, K), exact.return_tail(model, target, K)
    assert np.array_equal(analysis.hitting.tail(K).values, hit.values)
    assert report == verify_exponential_bound(hit, cert)
    step = cert.lam * cert.mu_A
    assert analysis.return_deviation(0.05) == sup_deviation(ret.values, step, 0.05, cert.lam)
    # Cached: a second read pushes nothing.
    monkeypatch.setattr(exact.TailEngine, "segments", None)
    assert analysis.certificate[0] is cert and analysis.verification[1] is report


def test_horizons_double_from_K_to_the_cap(monkeypatch):
    # K, 2K, 4K, ... and the cap last, as the certificate and the
    # verification stream to them.
    assert scaling._doubling(100)[:3] == [100, 200, 400]
    assert scaling._doubling(100)[-2:] == [100 << 19, exact.MAX_TAIL_STEPS]
    monkeypatch.setattr(exact, "MAX_TAIL_STEPS", 50)
    assert scaling._doubling(5) == [5, 10, 20, 40, 50]
    assert scaling._doubling(25) == [25, 50] and scaling._doubling(50) == [50]


@pytest.mark.parametrize("cap, cert_K", [
    (500, 500),  # s = 498: the capped horizon holds it; exp(-lam*mu*500) cannot pass
    (497, None),  # the crossing j = 474 is streamed, but s lies past the cap
    (400, None),  # so does j, though the stream, in whole blocks, reaches 512
])
def test_streams_stop_at_the_cap_and_refuse_there(monkeypatch, cap, cert_K):
    monkeypatch.setattr(exact, "MAX_TAIL_STEPS", cap)
    analysis = scaling.Analysis(UNIFORM2, cylinder([1] * 12))
    if cert_K is None:
        with pytest.raises(errors.HorizonTooShortError, match=f"needed horizon exceeds cap {cap}$"):
            analysis.certificate
        return
    assert analysis.certificate[1] == cert_K
    with pytest.raises(errors.HorizonTooShortError, match="needs K > cap"):
        analysis.verification


@pytest.mark.parametrize("cap, verify_K", [(20, None), (22, 22), (1000, 64)])
def test_the_verification_stops_at_the_cap_and_refuses_there(monkeypatch, cap, verify_K):
    # Markov 0,0,0 has sqrt(d) >= 1, so lambda = 1 and the certificate's
    # horizon is the first one, capped; exp(-lam*mu*K) passes from K = 14,
    # H(K) <= 1e-4 only from K = 22.
    monkeypatch.setattr(exact, "MAX_TAIL_STEPS", cap)
    analysis = scaling.Analysis(markov([[0.9, 0.1], [0.5, 0.5]]), cylinder([0, 0, 0]))
    assert analysis.certificate[1] == min(cap, 64)
    if verify_K is None:
        with pytest.raises(errors.HorizonTooShortError, match=f"needed horizon exceeds cap {cap}$"):
            analysis.verification
    else:
        assert analysis.verification[2] == verify_K


@st.composite
def _small_cases(draw):
    """An IID or Markov source on 2 or 3 symbols (entries at least 0.05
    before normalizing) and a cylinder or radius-1 ball of length 1 to 7."""
    q = draw(st.integers(2, 3))
    row = st.lists(st.floats(0.05, 1.0), min_size=q, max_size=q).map(
        lambda w: np.array(w) / sum(w))
    model = (iid(draw(row)) if draw(st.booleans())
             else markov(np.array([draw(row) for _ in range(q)])))
    word = draw(st.lists(st.integers(0, q - 1), min_size=1, max_size=7))
    ball = len(word) > 2 and draw(st.booleans())
    return model, hamming_ball(word, 1.5 / len(word), q) if ball else cylinder(word)


# Segments of one block or a few single steps, and sup chunks of 100 flats,
# which straddle them: the folds then carry state across every boundary.
_FOLD_LAYOUTS = [pytest.param(None, None, id="default"), pytest.param(256, 100, id="small")]


@pytest.mark.parametrize("stack, chunk", _FOLD_LAYOUTS)
@settings(max_examples=25, deadline=None)
@given(case=_small_cases(), s0=st.sampled_from([0.0, 0.05, 1.5]))
def test_the_folds_match_scale_search_and_sup_deviation(stack, chunk, case, s0):
    # The certificate, the verification and D_ret folded over streams equal
    # scale_search, verify_exponential_bound and sup_deviation on the tables
    # at the same horizons, bit for bit.
    model, target = case
    with pytest.MonkeyPatch.context() as mp:
        if stack:
            mp.setattr(exact, "_STACK", stack)
            mp.setattr(_folds, "_SUP_CHUNK", chunk)
        analysis = scaling.Analysis(model, target)
        try:
            cert, K = analysis.certificate
            verified, report, K_v = analysis.verification
        except errors.HorizonTooShortError:
            event("refused")
            return
        table = hitting_tail(model, target, K)
        assert scale_search(table, target.n, analysis.alpha_n).to_dict() == cert.to_dict()
        hit, ret = hitting_tail(model, target, K_v), return_tail(model, target, K_v)
        assert verify_exponential_bound(hit, cert) == report
        step = cert.lam * cert.mu_A
        if s0 / step < K_v + 1:
            assert analysis.return_deviation(s0) == sup_deviation(ret.values, step, s0, cert.lam)
