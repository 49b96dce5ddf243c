"""Scale selection, the normalizing constant lambda(A), and the explicit
exponential-approximation bound.

Quantities, from the hitting tail H and the mixing bound at gap n:

    d     = 2*mu(tau_A <= n) + alpha(n)
    delta = 3*sqrt(d)
    s     = smallest integer > 2n with mu(tau_A <= s-2n) >= sqrt(d)
    lambda(A) = -ln H(s-2n) / (s * mu(A))

For delta >= 1/4 the explicit bound exceeds 3 and nothing is asserted; a
nominal lambda = 1 is emitted so downstream rescaling stays total.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DomainError, HorizonTooShortError, InvalidTailError, ZeroTailError
from .exact import TailDistribution, TailEngine
from .process import ProcessModel, alpha_bound
from .targets import TargetSet, measure

DELTA_QUANTITATIVE = 0.25
MAX_TAIL_STEPS = 10 ** 8
TRUNCATION_TARGET = 1e-4
_CHECK_SLACK = 1e-12
_SUP_CHUNK = 1 << 16  # horizon entries per chunk of the sup-deviation


@dataclass(frozen=True)
class ScaleCertificate:
    n: int
    d: float
    delta: float
    regime: str  # "quantitative" or "trivial"
    s: int | None
    lam: float | None
    nominal: bool
    mu_A: float
    checks: dict

    @property
    def sqrt_d(self) -> float:
        return math.sqrt(self.d)

    def to_dict(self) -> dict:
        return {
            "n": self.n, "d": self.d, "delta": self.delta, "regime": self.regime,
            "s": self.s, "lambda": self.lam, "nominal": self.nominal,
            "mu_A": self.mu_A, "checks": dict(self.checks),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


@dataclass(frozen=True)
class VerificationReport:
    sup_dev: float
    bound: float
    truncation: float
    passed: bool

    def to_dict(self) -> dict:
        return {"sup_dev": self.sup_dev, "bound": self.bound,
                "truncation": self.truncation, "passed": self.passed}


def _smallness(F: np.ndarray, n: int, alpha_n: float) -> float:
    """d = 2*mu(tau_A <= n) + alpha(n)."""
    return float(2.0 * F[n] + alpha_n)


def scale_search(tail: TailDistribution, n: int, alpha_n: float) -> ScaleCertificate:
    """Select the scale s from a hitting tail; lambda is left unset.

    Raises HorizonTooShortError when the tail table ends before the
    defining threshold crossing (or before s itself, which the
    certificate checks need).
    """
    if tail.kind != "hitting":
        raise InvalidTailError("scale_search needs a hitting tail")
    if tail.horizon < n:
        raise HorizonTooShortError(f"horizon {tail.horizon} < n={n}")
    F = tail.cdf  # F[j] = mu(tau <= j)
    d = _smallness(F, n, alpha_n)
    delta = 3.0 * math.sqrt(d)
    regime = "quantitative" if delta < DELTA_QUANTITATIVE else "trivial"
    sd = math.sqrt(d)
    if regime == "trivial" and sd >= 1.0:
        # The defining threshold is unreachable; nothing pins lambda down.
        return ScaleCertificate(n, d, delta, regime, None, None, False,
                                tail.mu_A, {})
    above = np.nonzero(F >= sd)[0]
    if above.size == 0:
        raise HorizonTooShortError("threshold sqrt(d) not reached within horizon")
    j = int(above[0])  # smallest j with mu(tau <= j) >= sqrt(d); j >= 1 since F[0]=0
    s = j + 2 * n
    if tail.horizon < s:
        raise HorizonTooShortError(f"horizon {tail.horizon} < s={s}")
    checks = {
        "s_gt_2n": bool(s > 2 * n),
        "threshold": bool(F[j] >= sd),
        "minimality": bool(F[j - 1] < sd),
        "mu_tau_le_s": bool(F[s] <= sd + 2.0 * d + _CHECK_SLACK),
        "ratio": bool((F[2 * n] + alpha_n) <= sd * F[j] + _CHECK_SLACK),
    }
    return ScaleCertificate(n, d, delta, regime, s, None, False,
                            tail.mu_A, checks)


def compute_lambda(tail: TailDistribution, cert: ScaleCertificate) -> ScaleCertificate:
    """Fill in lambda(A) = -ln H(s-2n) / (s*mu_A) on a certificate."""
    if cert.s is None:
        # Threshold unreachable (delta >= 1/4 and sqrt(d) >= 1): the
        # explicit bound exceeds 3, so any lambda satisfies it.
        return replace(cert, lam=1.0, nominal=True)
    k = cert.s - 2 * cert.n
    Hval = float(tail.values[k])
    Fval = float(tail.cdf[k])
    if Hval <= 0.0 or Fval >= 1.0:
        raise ZeroTailError("H(s-2n) = 0; lambda undefined")
    # Whichever of F and H = 1 - F is below one half is the one known to
    # full relative precision.
    log_H = math.log1p(-Fval) if Fval < 0.5 else math.log(Hval)
    lam = -log_H / (cert.s * cert.mu_A)
    checks = dict(cert.checks)
    checks["lambda_positive"] = lam > 0.0
    if cert.regime == "quantitative":
        checks["lambda_le_inv_1_minus_delta"] = lam <= 1.0 / (1.0 - cert.delta) + _CHECK_SLACK
    return replace(cert, lam=lam, nominal=cert.regime == "trivial", checks=checks)


def scale_certificate(model: ProcessModel, target: TargetSet,
                      ) -> tuple[ScaleCertificate, TailDistribution]:
    """Full pipeline: exact hitting tail with auto-extended horizon, scale
    search, and lambda.  The horizon doubles until the search succeeds, on
    one engine that pushes each step once.

    Raises HorizonTooShortError before the doubling when the threshold
    cannot be reached within MAX_TAIL_STEPS: by stationarity
    mu(tau <= j) <= j*mu(A), so the crossing needs j >= sqrt(d)/mu(A).
    """
    n = target.n
    alpha_n = alpha_bound(model, n)
    engine = TailEngine(model, target)
    sd = math.sqrt(_smallness(engine.extend(n).cdf, n, alpha_n))
    if sd < 1.0 and sd > engine.mu_A * (MAX_TAIL_STEPS - 2 * n):
        raise HorizonTooShortError(
            f"threshold sqrt(d)={sd:.3g} with mu(A)={engine.mu_A:.3g} needs more "
            f"than {MAX_TAIL_STEPS} steps")
    K = max(4 * n, 64)
    while True:
        tail = engine.extend(K)
        try:
            cert = scale_search(tail, n, alpha_n)
            break
        except HorizonTooShortError:
            if K >= MAX_TAIL_STEPS:
                raise
            K = min(2 * K, MAX_TAIL_STEPS)
    cert = compute_lambda(tail, cert)
    return cert, tail


def extend_for_verification(model: ProcessModel, target: TargetSet,
                            tail: TailDistribution, lam: float,
                            max_steps: int = MAX_TAIL_STEPS) -> TailDistribution:
    """Grow the hitting tail until both H(K) and exp(-lam*mu*K) fall below
    the truncation target, resuming the tail's engine when it has one.

    Raises HorizonTooShortError at once when exp(-lam*mu*K) cannot fall
    below the target within ``max_steps``.
    """
    mu = tail.mu_A
    if math.log(1.0 / TRUNCATION_TARGET) > lam * mu * max_steps:
        raise HorizonTooShortError(
            f"exp(-lam*mu*K) <= {TRUNCATION_TARGET:g} needs K > cap {max_steps}")
    engine = tail.engine or TailEngine(model, target)
    K = tail.horizon
    while tail.values[-1] > TRUNCATION_TARGET or math.exp(-lam * mu * K) > TRUNCATION_TARGET:
        if K >= max_steps:
            raise HorizonTooShortError(f"needed horizon exceeds cap {max_steps}")
        K = min(2 * K, max_steps)
        tail = engine.extend(K)
    return tail


def verification_tail(model: ProcessModel, target: TargetSet,
                      ) -> tuple[ScaleCertificate, TailDistribution]:
    """Scale certificate and the hitting tail extended for verification.

    Refuses with HorizonTooShortError before any push when H(K) cannot reach
    the truncation target within the step cap: H(K) >= 1 - K*mu(A).
    """
    if 1.0 - TRUNCATION_TARGET > measure(model, target) * MAX_TAIL_STEPS:
        raise HorizonTooShortError(
            f"H(K) <= {TRUNCATION_TARGET:g} needs K > cap {MAX_TAIL_STEPS}")
    cert, tail = scale_certificate(model, target)
    return cert, extend_for_verification(model, target, tail, cert.lam)


def sup_deviation(levels: np.ndarray, step: float, s0: float = 0.0) -> float:
    """sup_{t >= s0} |levels[floor(t/step)] - exp(-t)|, the truncation included.

    The step function is flat on [k*step, (k+1)*step), so the sup is attained
    at the two endpoints of a flat (the first flat starting at s0); past the
    last flat both sides lie below max(levels[-1], exp(-step*K)).  The flats
    are taken chunk by chunk, one exp array serving both endpoints, so memory
    stays bounded at any horizon and the max equals a one-pass max bit for bit.
    """
    if not s0 >= 0.0:  # NaN included
        raise DomainError(f"s0 must be non-negative, got {s0}")
    K = levels.size - 1
    if s0 / step >= K + 1:  # floor(s0/step) > K, infinity included
        raise HorizonTooShortError(f"s0={s0} beyond tail horizon {K}")
    k0 = int(math.floor(s0 / step))
    sup = max(float(levels[-1]), math.exp(-step * K))
    for lo in range(k0, K + 1, _SUP_CHUNK):
        hi = min(lo + _SUP_CHUNK, K + 1)
        t = step * np.arange(lo, hi + 1)
        t[0] = max(t[0], s0)
        e = np.exp(-t)
        flats = levels[lo:hi]
        sup = max(sup, float(np.abs(flats - e[:-1]).max()), float(np.abs(flats - e[1:]).max()))
    return sup


def verify_exponential_bound(tail: TailDistribution,
                             cert: ScaleCertificate) -> VerificationReport:
    """Check sup_t |H(floor(t/(lam*mu))) - exp(-t)| <= 12*sqrt(d) up to the
    horizon, reporting the unchecked-tail contribution as a truncation residual."""
    step = cert.lam * cert.mu_A
    exp_tail = math.exp(-step * tail.horizon)
    if tail.values[-1] > TRUNCATION_TARGET or exp_tail > TRUNCATION_TARGET:
        raise HorizonTooShortError(
            "horizon too short: extend until H(K) and exp(-lam*mu*K) <= 1e-4")
    sup_dev = sup_deviation(tail.values, step)
    truncation = max(float(tail.values[-1]), exp_tail)
    bound = 12.0 * math.sqrt(cert.d)
    passed = sup_dev <= bound + truncation
    return VerificationReport(sup_dev, bound, truncation, passed)


def verify(model: ProcessModel, target: TargetSet,
           ) -> tuple[ScaleCertificate, VerificationReport, TailDistribution]:
    """Certificate + explicit-bound verification on exact tails."""
    cert, tail = verification_tail(model, target)
    report = verify_exponential_bound(tail, cert)
    return cert, report, tail


def lambda_trajectory(model: ProcessModel, point, n_range,
                      ) -> list[ScaleCertificate]:
    """Certificates along the cylinder prefixes of a point.

    ``point`` is a finite word recycled periodically (so "0" is the fixed
    point 000..., "01" the 2-periodic point, and a long aperiodic prefix
    stands for itself up to max(n_range)).
    """
    from .targets import cylinder
    if isinstance(point, str):
        point = point.split(",") if "," in point else list(point)
    p = [int(s) for s in point]
    out = []
    for n in n_range:
        word = [p[i % len(p)] for i in range(n)]
        cert, _ = scale_certificate(model, cylinder(word))
        out.append(cert)
    return out
