"""Scale selection, the normalizing constant lambda(A), and the explicit
exponential-approximation bound.

Quantities, from the hitting tail H and the mixing bound at gap n:

    d     = 2*mu(tau_A <= n) + alpha(n)
    delta = 3*sqrt(d)
    s     = smallest integer > 2n with mu(tau_A <= s-2n) >= sqrt(d)
    lambda(A) = -ln H(s-2n) / (s * mu(A))

``scale_search`` builds the whole certificate from one tail, lambda and its
checks included; delta, the regime and the nominal flag are derived from d.
``Analysis`` finds the certificate's horizon and the longer one verification
needs with ``TailEngine.grow`` on one engine.
For delta >= 1/4 the explicit bound exceeds 3 and nothing is asserted; when
the threshold sqrt(d) is unreachable there is no s, and a nominal
lambda = 1 is emitted so downstream rescaling stays total.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DomainError,
    HorizonTooShortError,
    InvalidTailError,
    MeasureUnderflowError,
    ZeroMeasureSetError,
    ZeroTailError,
)
from . import exact
from .exact import ComposedChain, TailDistribution, TailEngine
from .process import ProcessModel, alpha_bound
from .targets import TargetSet, point_cylinders

DELTA_QUANTITATIVE = 0.25
TRUNCATION_TARGET = 1e-4
_CHECK_SLACK = 1e-12
_F_MARGIN = 1e-9  # relative margin over the rounding of the pushed F[n]
_NORMAL = 2.2250738585072014e-308  # smallest normal double: below it rounding is not relative
_SUP_CHUNK = 1 << 13  # horizon entries per chunk of the sup-deviation


@dataclass(frozen=True)
class ScaleCertificate:
    n: int
    d: float
    s: int | None
    lam: float
    mu_A: float
    checks: dict

    @property
    def delta(self) -> float:
        return 3.0 * math.sqrt(self.d)

    @property
    def regime(self) -> str:
        """"quantitative" when delta < 1/4, else "trivial"."""
        return "quantitative" if self.delta < DELTA_QUANTITATIVE else "trivial"

    @property
    def nominal(self) -> bool:
        """Nothing is asserted of lambda in the trivial regime."""
        return self.regime == "trivial"

    def to_dict(self) -> dict:
        return {
            "n": self.n, "d": self.d, "delta": self.delta, "regime": self.regime,
            "s": self.s, "lambda": self.lam, "nominal": self.nominal,
            "mu_A": self.mu_A, "checks": dict(self.checks),
        }


@dataclass(frozen=True)
class VerificationReport:
    sup_dev: float
    bound: float
    truncation: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)  # the fields, in their order


def scale_search(tail: TailDistribution, n: int, alpha_n: float) -> ScaleCertificate:
    """The scale certificate of a hitting tail: s, lambda and their checks.

    Raises HorizonTooShortError when the tail table ends before the
    defining threshold crossing (or before s itself, which the
    certificate checks need), ZeroTailError when H(s-2n) = 0, and
    MeasureUnderflowError when d = 0 although mu(A) > 0.
    """
    if tail.kind != "hitting":
        raise InvalidTailError("scale_search needs a hitting tail")
    if tail.mu_A <= 0.0:
        raise ZeroMeasureSetError("target has zero measure; no scale exists")
    if tail.horizon < n:
        raise HorizonTooShortError(f"horizon {tail.horizon} < n={n}")
    F = tail.cdf  # F[j] = mu(tau <= j)
    d = float(2.0 * F[n] + alpha_n)  # as Analysis.certificate computes it
    if d <= 0.0:  # F[n] >= mu(A) > 0 exactly, so every increment underflowed
        raise MeasureUnderflowError(
            f"d = 0 although mu(A) = {tail.mu_A:.3g} > 0: early-hit probabilities underflow")
    sd = math.sqrt(d)
    if sd >= 1.0:
        # The defining threshold is unreachable (so delta >= 3); nothing pins
        # lambda down and the explicit bound exceeds 3, so any lambda holds.
        return ScaleCertificate(n, d, None, 1.0, tail.mu_A, {})
    above = np.nonzero(F >= sd)[0]
    if above.size == 0:
        raise HorizonTooShortError("threshold sqrt(d) not reached within horizon")
    j = int(above[0])  # smallest j with F[j] >= sqrt(d); j >= 1, as F[0] = 0 < sqrt(d)
    s = j + 2 * n
    if tail.horizon < s:
        raise HorizonTooShortError(f"horizon {tail.horizon} < s={s}")
    Hval, Fval = float(tail.values[j]), float(F[j])
    if Hval <= 0.0 or Fval >= 1.0:
        raise ZeroTailError("H(s-2n) = 0; lambda undefined")
    # Whichever of F and H = 1 - F is below one half is the one known to
    # full relative precision.
    log_H = math.log1p(-Fval) if Fval < 0.5 else math.log(Hval)
    lam = -log_H / (s * tail.mu_A)
    checks = {
        "s_gt_2n": bool(s > 2 * n),
        "threshold": bool(F[j] >= sd),
        "minimality": bool(F[j - 1] < sd),
        "mu_tau_le_s": bool(F[s] <= sd + 2.0 * d + _CHECK_SLACK),
        "ratio": bool((F[2 * n] + alpha_n) <= sd * F[j] + _CHECK_SLACK),
        "lambda_positive": lam > 0.0,
    }
    cert = ScaleCertificate(n, d, s, lam, tail.mu_A, checks)
    if cert.regime == "quantitative":
        checks["lambda_le_inv_1_minus_delta"] = lam <= 1.0 / (1.0 - cert.delta) + _CHECK_SLACK
    return cert


class Analysis:
    """One (model, target): mu(A), measured first and refused when its
    float is 0 (``exact.positive_measures``), and alpha(n); the chain and
    the hitting engine, each built when a table is first needed; and the
    certificate, the verification (certificate and tail) and the return
    tail, each cached and resuming the engine where the last one stopped.
    Refusals that mu(A), n and alpha(n) decide come before the chain.  Only
    the certificate's tail carries F, and it is pushed first; the later
    tails carry ``absorbed`` None (``cdf`` 1 - H)."""

    def __init__(self, model: ProcessModel, target: TargetSet):
        self._word_p = exact.positive_measures(model, target, "no scale exists")
        self.model, self.target, self.mu_A = model, target, float(self._word_p.sum())
        self.alpha_n = alpha_bound(model, target.n)

    @cached_property
    def chain(self):
        return ComposedChain(self.model, self.target, self._word_p)

    @cached_property
    def engine(self):
        return TailEngine(self.chain)

    @cached_property
    def certificate(self) -> tuple[ScaleCertificate, TailDistribution]:
        """The scale certificate and its hitting tail, grown from max(4n, 64)
        until the crossing j and s = j + 2n lie in the table (or sqrt(d) >= 1):
        F never decreases, so the one scale search then succeeds.  Refused
        before the doubling when the crossing, at j >= sqrt(d)/mu(A) since
        mu(tau <= j) <= j*mu(A), lies past exact.MAX_TAIL_STEPS; and refused
        before the chain is built when bounds on sqrt(d) that read mu(A), n
        and alpha(n) alone decide it (for a normal mu(A)), the message then
        giving the lower bound."""
        n, mu_A, cap = self.target.n, self.mu_A, exact.MAX_TAIL_STEPS
        reach = mu_A * (cap - 2 * n)  # sqrt(d) above it puts the crossing past the cap
        # Stationarity and the union bound give mu(A) <= F[n] <= n*mu(A),
        # widened by _F_MARGIN for F's rounding: sqrt(d) >= lo, and sqrt(d) < 1
        # when 2n*mu(A) + alpha(n) < 1.  A subnormal mu(A) has no such
        # relative precision and keeps the exact path.
        lo = math.sqrt(2.0 * mu_A * (1.0 - _F_MARGIN) + self.alpha_n)
        early = (mu_A >= _NORMAL and lo > reach
                 and 2.0 * n * mu_A * (1.0 + _F_MARGIN) + self.alpha_n < 1.0)
        sd = lo if early else math.sqrt(2.0 * self.engine.extend(n).cdf[n] + self.alpha_n)
        if early or reach < sd < 1.0:
            raise HorizonTooShortError(f"threshold sqrt(d){' >= ' if early else '='}{sd:.3g} "
                                       f"with mu(A)={mu_A:.3g} needs more than {cap} steps")
        tail = self.engine.grow(
            max(4 * n, 64), lambda H, F: sd >= 1.0 or F[F.size - 1 - 2 * n] >= sd)
        return scale_search(tail, n, self.alpha_n), tail

    @cached_property
    def verification(self) -> tuple[ScaleCertificate, TailDistribution]:
        """The certificate and its tail grown for verification, refused before
        the certificate when H(K) >= 1 - K*mu(A) keeps H(K) above the
        truncation target at the cap."""
        if 1.0 - TRUNCATION_TARGET > self.mu_A * exact.MAX_TAIL_STEPS:
            raise HorizonTooShortError(
                f"H(K) <= {TRUNCATION_TARGET:g} needs K > cap {exact.MAX_TAIL_STEPS}")
        cert, tail = self.certificate
        return cert, extend_for_verification(self.engine, tail.horizon, cert.lam)

    @cached_property
    def return_tail(self) -> TailDistribution:
        """The return tail on the same chain, to the verified horizon, without F."""
        return TailEngine(self.chain, "return").extend(self.verification[1].horizon,
                                                       absorbed=False)


def scale_certificate(model: ProcessModel, target: TargetSet,
                      ) -> tuple[ScaleCertificate, TailDistribution]:
    """``Analysis(model, target).certificate``."""
    return Analysis(model, target).certificate


def _truncation(H: np.ndarray, step: float) -> float:
    """The unchecked-tail residual past the horizon K of the tail ``H``:
    max(H(K), exp(-step*K)) with step = lam*mu(A).  Verification needs it at
    most TRUNCATION_TARGET."""
    return max(float(H[-1]), math.exp(-step * (H.size - 1)))


def extend_for_verification(engine: TailEngine, K: int, lam: float) -> TailDistribution:
    """Grow the hitting tail of ``engine``, with ``TailEngine.grow`` from
    horizon K, until both H(K) and exp(-lam*mu*K) fall below the truncation
    target.  The stop rule reads H alone, so F is not pushed: the tail
    carries ``absorbed`` None.

    Raises HorizonTooShortError at once when exp(-lam*mu*K) cannot fall
    below the target within exact.MAX_TAIL_STEPS.
    """
    step, cap = lam * engine.chain.mu_A, exact.MAX_TAIL_STEPS
    if math.log(1.0 / TRUNCATION_TARGET) > step * cap:
        raise HorizonTooShortError(
            f"exp(-lam*mu*K) <= {TRUNCATION_TARGET:g} needs K > cap {cap}")
    return engine.grow(K, lambda H, F: _truncation(H, step) <= TRUNCATION_TARGET,
                       absorbed=False)


def sup_deviation(levels: np.ndarray, step: float, s0: float = 0.0, div: float = 1.0) -> float:
    """sup_{t >= s0} |levels[floor(t/step)]/div - exp(-t)|, the truncation
    included, for div > 0: each chunk is divided as it is read, so the
    return law H/lam needs no copy.  Correctly rounded division by div is
    monotone, so the extremes of the levels divided by div are those of the
    divided levels, bit for bit.

    The step function is flat on [k*step, (k+1)*step), so the sup is attained
    at the two endpoints of a flat (the first flat starting at s0); past the
    last flat both sides lie below max(levels[-1], exp(-step*K)).  The flats
    are taken chunk by chunk, one exp array serving both endpoints, so memory
    stays bounded at any horizon.

    The scan stops at the first chunk start m where the rest cannot raise
    the sup: a later term |levels[k] - exp(-t)| has k >= m and
    0 < exp(-t) <= exp(-m*step), so it is at most
    max(max levels[m:], exp(-m*step)) + max(0, -min levels[m:]), and
    rounding, monotone, keeps the computed term below the computed bound
    (exp(-m*step) is taken with a margin over exp's last-bit error).  The
    suffix extremes come from one pass of per-chunk max and min, which also
    finds a NaN.  So the result equals a one-pass max bit for bit, for any
    levels: non-monotone, or below zero by float dust.
    """
    if not s0 >= 0.0:  # NaN included
        raise DomainError(f"s0 must be non-negative, got {s0}")
    if not step > 0.0:  # NaN included
        raise DomainError(f"step must be positive, got {step}")
    if not div > 0.0:
        raise DomainError(f"div must be positive, got {div}")
    K = levels.size - 1
    starts = np.arange(0, K + 1, _SUP_CHUNK)
    top = np.maximum.reduceat(levels, starts) / div
    if np.isnan(top).any():  # maximum propagates a NaN, which max() would skip
        raise DomainError("levels must not be NaN")
    if s0 / step >= K + 1:  # floor(s0/step) > K, infinity included
        raise HorizonTooShortError(f"s0={s0} beyond tail horizon {K}")
    top = np.maximum.accumulate(top[::-1])[::-1]  # max of levels from chunk c on
    low = np.minimum.accumulate(np.minimum.reduceat(levels, starts)[::-1] / div)[::-1]
    k0 = int(math.floor(s0 / step))
    sup = max(float(levels[-1]) / div, math.exp(-step * K))
    for c in range(k0 // _SUP_CHUNK, starts.size):
        lo, hi = max(k0, c * _SUP_CHUNK), min((c + 1) * _SUP_CHUNK, K + 1)
        e_max = math.exp(-step * lo) * (1.0 + 1e-12)
        if max(float(top[c]), e_max) + max(0.0, -float(low[c])) <= sup:
            break
        t = step * np.arange(lo, hi + 1)
        t[0] = max(t[0], s0)
        e = np.exp(-t)
        flats = levels[lo:hi] / div
        sup = max(sup, float(np.abs(flats - e[:-1]).max()), float(np.abs(flats - e[1:]).max()))
    return sup


def verify_exponential_bound(tail: TailDistribution,
                             cert: ScaleCertificate) -> VerificationReport:
    """Check sup_t |H(floor(t/(lam*mu))) - exp(-t)| <= 12*sqrt(d) up to the
    horizon, reporting the unchecked-tail contribution as a truncation residual."""
    step = cert.lam * cert.mu_A
    truncation = _truncation(tail.values, step)
    if truncation > TRUNCATION_TARGET:
        raise HorizonTooShortError(
            "horizon too short: extend until H(K) and exp(-lam*mu*K) <= 1e-4")
    sup_dev = sup_deviation(tail.values, step)
    bound = 12.0 * math.sqrt(cert.d)
    passed = sup_dev <= bound + truncation
    return VerificationReport(sup_dev, bound, truncation, passed)


def verify(model: ProcessModel, target: TargetSet,
           ) -> tuple[ScaleCertificate, VerificationReport, TailDistribution]:
    """Certificate + explicit-bound verification on ``Analysis.verification``;
    the returned verification tail carries H only."""
    cert, tail = Analysis(model, target).verification
    return cert, verify_exponential_bound(tail, cert), tail


def lambda_trajectory(model: ProcessModel, point: str, n_range,
                      ) -> list[ScaleCertificate]:
    """Certificates along the cylinder prefixes of a point, in n_range order.

    ``point`` is a comma-separated word recycled periodically (so "0" is the
    fixed point 000..., "0,1" the 2-periodic point, and a long aperiodic
    prefix stands for itself up to max(n_range)).  A refusal at some n
    builds no later cylinder.
    """
    return [scale_certificate(model, target)[0]
            for target in point_cylinders(model, point, n_range)]
