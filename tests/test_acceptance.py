"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py`
to see the lines as they complete."""
import itertools
import math

import numpy as np

from rarehit import (
    ExponentialLaw,
    brute_force_tail,
    check_integral_relation,
    check_sandwich,
    cylinder,
    empirical_tail,
    epsilon_bound,
    hamming_ball,
    hitting_tail,
    iid,
    kac_bound_violation,
    ks_distance,
    limitlaw,
    markov,
    measure,
    return_expectation,
    return_tail,
    sample_hitting,
    scaling,
    solve_D0,
    convergence_diagnostics,
    uniform_iid,
)
from rarehit.mc import write_batch_csv

UNIFORM2 = uniform_iid(2)
MODEL_GRID = [iid([0.2, 0.8]), UNIFORM2, iid([0.8, 0.2]),
              markov([[0.9, 0.1], [0.5, 0.5]]), markov([[0.6, 0.4], [0.3, 0.7]])]


def _report(idx: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {idx}: {name}{suffix}")
    assert ok, f"criterion {idx} failed: {name}{suffix}"


def _pattern_grid():
    for model in MODEL_GRID:
        for L in range(1, 5):
            for w in itertools.product(range(2), repeat=L):
                yield model, cylinder(w)


def test_criterion_1_oracle_equivalence():
    worst = 0.0
    for model, A in _pattern_grid():
        for kind, fn in (("hitting", hitting_tail), ("return", return_tail)):
            if kind == "return" and measure(model, A) == 0.0:
                continue
            a = fn(model, A, 12)
            b = brute_force_tail(model, A, 12, kind)
            worst = max(worst, float(np.max(np.abs(a.values - b.values))))
    _report(1, "automaton tails equal brute-force enumeration to 1e-12",
            worst <= 1e-12, f"worst diff {worst:.3e}")


def test_criterion_2_kac_identity():
    worst = 0.0
    for model, A in _pattern_grid():
        mu = measure(model, A)
        if mu == 0.0:
            continue
        worst = max(worst, abs(return_expectation(model, A) * mu - 1.0))
    _report(2, "expected return time times measure equals one within 1e-9",
            worst <= 1e-9, f"worst residual {worst:.3e}")


def test_criterion_3_exponential_approximation_bound():
    cases = [(m, A) for m, A in _pattern_grid() if measure(m, A) > 0.0]
    cases += [
        (uniform_iid(4), hamming_ball([0] * 10, 0.2, 4)),      # kappa = 436
        (markov([[0.9, 0.1], [0.5, 0.5]]), hamming_ball([0, 1] * 4, 0.13, 2)),
        (UNIFORM2, hamming_ball([0] * 8, 0.13, 2)),
    ]
    failures = 0
    for model, A in cases:
        _, report, _ = scaling.verify(model, A)
        if not report.passed:
            failures += 1
    _report(3, "sup deviation within 12*sqrt(d) plus truncation on every case",
            failures == 0, f"{len(cases)} cases, {failures} failures")


def test_criterion_4_scale_certificate_inequalities():
    checked = 0
    ok = True
    for model, A in [(UNIFORM2, cylinder([1] * 12)),
                     (UNIFORM2, cylinder([0, 1] * 6)),
                     (iid([0.8, 0.2]), cylinder([1] * 7)),
                     (markov([[0.9, 0.1], [0.5, 0.5]]), cylinder([0, 1] * 5)),
                     (uniform_iid(4), hamming_ball([0] * 10, 0.2, 4))]:
        cert, tail = scaling.scale_certificate(model, A)
        if cert.regime != "quantitative":
            continue
        checked += 1
        F = 1.0 - tail.values
        sd = math.sqrt(cert.d)
        ok &= F[cert.s] <= sd + 2 * cert.d + 1e-12            # mu(tau <= s) small
        ok &= all(bool(v) for v in cert.checks.values())       # incl. minimality
        ok &= cert.lam <= 1.0 / (1.0 - cert.delta) <= 2.0
    _report(4, "quantitative certificates satisfy all scale inequalities",
            ok and checked >= 4, f"{checked} quantitative certificates")


def test_criterion_5_approximate_matching_threshold():
    d0 = solve_D0(4, 1.7 * math.log(2))
    _report(5, "D0 for q=4 at 1.7 bits/symbol lies in [0.40, 0.43]",
            0.40 <= d0 <= 0.43, f"D0 = {d0:.6f}")


def test_criterion_6_limit_law_relations():
    ok = True
    details = []
    for model, A in [(UNIFORM2, cylinder([1])), (UNIFORM2, cylinder([1, 1])),
                     (UNIFORM2, cylinder([0, 1])),
                     (markov([[0.9, 0.1], [0.5, 0.5]]), cylinder([0, 1])),
                     (iid([0.8, 0.2]), cylinder([1, 1, 1]))]:
        analysis = scaling.Analysis(model, A)
        cert, tail = analysis.verification
        F = limitlaw.StepLaw(tail, cert.lam)
        G = limitlaw.StepLaw(analysis.return_tail, cert.lam)
        grid = np.linspace(0.01, 0.9 * min(F.t_max, G.t_max), 60)
        pairs = [(grid[i], grid[j])
                 for i in range(0, 60, 6) for j in range(i + 1, 60, 6)]
        ok &= kac_bound_violation(G, grid) <= 1e-12
        ok &= check_sandwich(F, G, cert.mu_A, pairs) <= 1e-10
    Fe, Ge = ExponentialLaw("F"), ExponentialLaw("G")
    res = check_integral_relation(Fe, Ge, np.linspace(0.001, 30, 500)).max()
    ok &= res <= 1e-12
    details.append(f"exponential-pair residual {res:.2e}")
    _report(6, "Kac bound, sandwich, and integral relation hold",
            ok, "; ".join(details))


def test_criterion_7_convergence_trend_fixed_point():
    rows = convergence_diagnostics(UNIFORM2, "0", range(2, 13))
    ok = True
    for r in rows:
        ok &= r.d_hit <= r.bound + 1e-12
    tail4 = [r.d_hit for r in rows if r.cert.n >= 4]
    ok &= all(b <= a + 1e-12 for a, b in zip(tail4, tail4[1:]))
    certs = scaling.lambda_trajectory(UNIFORM2, "0", range(2, 13))
    for c in certs:
        if c.regime == "quantitative":
            ok &= c.lam <= 1.0 / (1.0 - c.delta)
    lam12 = rows[-1].cert.lam
    ok &= 0.45 <= lam12 <= 0.55
    _report(7, "deviations shrink along the all-zeros point and lambda(A_12) "
               "is near one half", ok, f"lambda(A_12) = {lam12:.6f}")


def test_criterion_8_rarity_bound():
    ok = True
    cases = 0
    for n in range(4, 15):
        # single deep cylinder
        rb = epsilon_bound(UNIFORM2, 1, n)
        mu_tau = 1.0 - hitting_tail(UNIFORM2, cylinder([0] * n), n).values[n]
        ok &= mu_tau <= rb.epsilon_n
        cases += 1
        # Hamming ball with cardinality rate below entropy
        ball = hamming_ball([0] * n, 0.1, 2)
        rbb = epsilon_bound(UNIFORM2, ball.kappa, n)
        mu_tau = 1.0 - hitting_tail(UNIFORM2, ball, n).values[n]
        ok &= mu_tau <= rbb.epsilon_n
        cases += 1
    _report(8, "early-hit probability is dominated by the entropy bound",
            ok, f"{cases} cases, n = 4..14")


def test_criterion_9_monte_carlo_calibration():
    N = 10 ** 4
    band = 1.36 / math.sqrt(N)
    cases = [
        (UNIFORM2, cylinder([1, 1]), 200),
        (iid([0.8, 0.2]), cylinder([1]), 300),
        (markov([[0.9, 0.1], [0.5, 0.5]]), cylinder([0, 1]), 300),
    ]
    ok = True
    details = []
    for model, A, cap in cases:
        ref = hitting_tail(model, A, cap)
        passes = 0
        for seed in range(20):
            batch = sample_hitting(model, A, N, seed=seed, censor_cap=cap)
            if ks_distance(empirical_tail(batch, cap), ref) <= band:
                passes += 1
        ok &= passes >= 19
        details.append(f"{passes}/20")
        # byte-identical rerun on one seed
        import io
        bufs = []
        for _ in range(2):
            b = sample_hitting(model, A, 200, seed=0, censor_cap=cap)
            buf = io.StringIO()
            write_batch_csv(buf, b)
            bufs.append(buf.getvalue())
        ok &= bufs[0] == bufs[1]
    _report(9, "empirical tails stay inside the 95% DKW band and reruns are "
               "byte-identical", ok, "seed passes: " + ", ".join(details))
