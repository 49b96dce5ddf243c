"""Scale selection, the normalizing constant lambda(A), and the explicit
exponential-approximation bound.

Quantities, from the hitting tail H and the mixing bound at gap n:

    d     = 2*mu(tau_A <= n) + alpha(n)
    delta = 3*sqrt(d)
    s     = smallest integer > 2n with mu(tau_A <= s-2n) >= sqrt(d)
    lambda(A) = -ln H(s-2n) / (s * mu(A))

``scale_search`` builds the whole certificate from one tail, lambda and its
checks included; delta, the regime and the nominal flag are derived from d.
``Analysis`` folds the certificate, then the verification, over tails that
``TailEngine.segments`` streams to horizons doubling from max(4n, 64).
For delta >= 1/4 the explicit bound exceeds 3 and nothing is asserted; when
the threshold sqrt(d) is unreachable there is no s, and a nominal
lambda = 1 is emitted so downstream rescaling stays total.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from functools import cached_property

import numpy as np

from .errors import (
    HorizonTooShortError,
    InvalidTailError,
    MeasureUnderflowError,
    ZeroMeasureSetError,
    ZeroTailError,
)
from . import exact
from ._folds import sup_fold
from .exact import ComposedChain, TailDistribution, TailEngine
from .process import ProcessModel, alpha_bound
from .targets import TargetSet, point_cylinders

DELTA_QUANTITATIVE = 0.25
TRUNCATION_TARGET = 1e-4
_CHECK_SLACK = 1e-12
_F_MARGIN = 1e-9  # relative margin over the rounding of the pushed F[n]
_NORMAL = 2.2250738585072014e-308  # smallest normal double: below it rounding is not relative


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


def _doubling(K: int) -> list:
    """K, 2K, 4K, ... up to exact.MAX_TAIL_STEPS, which ends the list."""
    cap = exact.MAX_TAIL_STEPS
    return [min(K << i, cap) for i in range(((cap - 1) // K).bit_length() + 1)]


def _certify(segments, n: int, alpha_n: float, mu_A: float, capped: bool = False,
             ) -> ScaleCertificate:
    """The scale certificate of a hitting tail read as (k0, H, F) segments
    from k = 0, in one pass to s: F[n] gives d, then the first j with
    F[j] >= sqrt(d) (j > n, as sqrt(2 F[n]) > F[n]), F[j-1], H[j], F[2n] and
    F[s].  ``capped``: the stream ends at the step cap, and a crossing or an
    s past it is refused naming the cap (the crossing once F[n] is read)."""
    at, sd, j, s, prev, end = {}, None, None, None, math.nan, -1  # at: F at 2n and s
    for k0, H, F in segments:
        end = k0 + F.size - 1
        if sd is None and k0 <= n <= end:
            d = float(2.0 * F[n - k0] + alpha_n)
            if d <= 0.0:  # F[n] >= mu(A) > 0 exactly, so every increment underflowed
                raise MeasureUnderflowError(
                    f"d = 0 although mu(A) = {mu_A:.3g} > 0: early-hit probabilities underflow")
            sd = math.sqrt(d)
            if sd >= 1.0:
                # The defining threshold is unreachable (so delta >= 3); nothing
                # pins lambda down and the explicit bound exceeds 3, so any lambda holds.
                return ScaleCertificate(n, d, None, 1.0, mu_A, {})
            if capped and mu_A * (exact.MAX_TAIL_STEPS - 2 * n) < sd:
                raise HorizonTooShortError(f"threshold sqrt(d)={sd:.3g} with mu(A)={mu_A:.3g} "
                                           f"needs more than {exact.MAX_TAIL_STEPS} steps")
        i = -1 if sd is None or j is not None else int(np.argmax(F >= sd))
        if i >= 0 and F[i] >= sd:
            j, Hj, Fj, F_prev = k0 + i, float(H[i]), F[i], F[i - 1] if i else prev
            s = j + 2 * n
        for k in (2 * n, s):
            if k is not None and k0 <= k <= end:
                at[k] = F[k - k0]
        if s in at:
            break
        prev = F[-1]
    if s not in at or capped and s > exact.MAX_TAIL_STEPS:
        raise HorizonTooShortError(
            f"needed horizon exceeds cap {exact.MAX_TAIL_STEPS}" if capped
            else "threshold sqrt(d) not reached within horizon" if j is None
            else f"horizon {end} < s={s}")
    if Hj <= 0.0 or Fj >= 1.0:
        raise ZeroTailError("H(s-2n) = 0; lambda undefined")
    # Whichever of F and H = 1 - F is below one half is the one known to
    # full relative precision.
    log_H = math.log1p(-float(Fj)) if Fj < 0.5 else math.log(Hj)
    lam = -log_H / (s * mu_A)
    checks = {
        "s_gt_2n": bool(s > 2 * n),
        "threshold": bool(Fj >= sd),
        "minimality": bool(F_prev < sd),
        "mu_tau_le_s": bool(at[s] <= sd + 2.0 * d + _CHECK_SLACK),
        "ratio": bool((at[2 * n] + alpha_n) <= sd * Fj + _CHECK_SLACK),
        "lambda_positive": lam > 0.0,
    }
    cert = ScaleCertificate(n, d, s, lam, mu_A, checks)
    if cert.regime == "quantitative":
        checks["lambda_le_inv_1_minus_delta"] = lam <= 1.0 / (1.0 - cert.delta) + _CHECK_SLACK
    return cert


def scale_search(tail: TailDistribution, n: int, alpha_n: float) -> ScaleCertificate:
    """The scale certificate of a hitting tail table: s, lambda and checks.

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
    return _certify([(0, tail.values, tail.cdf)], n, alpha_n, tail.mu_A)


class Analysis:
    """One (model, target): mu(A), measured first and refused when its
    float is 0 (``exact.positive_measures``), and alpha(n); the chain, built
    when first needed; the certificate and the verification, cached, each
    folded over a fresh engine's stream; refusals that mu(A), n and alpha(n)
    decide come first.  ``keep``: ``hitting`` keeps its segments for ``tail``."""

    def __init__(self, model: ProcessModel, target: TargetSet, keep: bool = False):
        self._word_p = exact.positive_measures(model, target, "no scale exists")
        self.model, self.target, self.mu_A = model, target, float(self._word_p.sum())
        self.alpha_n, self.keep = alpha_bound(model, target.n), keep

    @cached_property
    def chain(self):
        return ComposedChain(self.model, self.target, self._word_p)

    @cached_property
    def certificate(self) -> tuple[ScaleCertificate, int]:
        """The certificate and its horizon: the first of max(4n, 64), 2x that,
        ... at or past s.  A crossing past exact.MAX_TAIL_STEPS is refused at
        F[n], or before the chain when bounds on sqrt(d) from mu(A), n and
        alpha(n) decide it (for a normal mu(A)), the message giving the bound."""
        n, mu_A = self.target.n, self.mu_A
        # Stationarity and the union bound give mu(A) <= F[n] <= n*mu(A),
        # widened by _F_MARGIN for F's rounding: sqrt(d) >= lo, and sqrt(d) < 1
        # when 2n*mu(A) + alpha(n) < 1.  A subnormal mu(A) has no such
        # relative precision and keeps the exact path.
        lo = math.sqrt(2.0 * mu_A * (1.0 - _F_MARGIN) + self.alpha_n)
        if (mu_A >= _NORMAL and lo > mu_A * (exact.MAX_TAIL_STEPS - 2 * n)
                and 2.0 * n * mu_A * (1.0 + _F_MARGIN) + self.alpha_n < 1.0):
            raise HorizonTooShortError(f"threshold sqrt(d) >= {lo:.3g} with mu(A)={mu_A:.3g} "
                                       f"needs more than {exact.MAX_TAIL_STEPS} steps")
        grid = _doubling(max(4 * n, 64))
        segments = itertools.chain.from_iterable(map(TailEngine(self.chain).segments, grid))
        cert = _certify(segments, n, self.alpha_n, mu_A, capped=True)
        return cert, next(K for K in grid if cert.s is None or K >= cert.s)

    @cached_property
    def verification(self) -> tuple[ScaleCertificate, VerificationReport, int]:
        """The certificate, its explicit-bound check and the verified horizon,
        refused before the certificate when H(K) >= 1 - K*mu(A) keeps H(K)
        above the truncation target at the cap."""
        if 1.0 - TRUNCATION_TARGET > self.mu_A * exact.MAX_TAIL_STEPS:
            raise HorizonTooShortError(
                f"H(K) <= {TRUNCATION_TARGET:g} needs K > cap {exact.MAX_TAIL_STEPS}")
        cert, K = self.certificate
        self.hitting = TailEngine(self.chain, absorbed=False, keep=self.keep)
        found = extend_for_verification(self.hitting, K, cert.lam)
        return cert, verify_exponential_bound(found, cert), found[2]

    def return_deviation(self, s0: float) -> float:
        """sup_deviation of G = H_ret/lam from s0, over the return stream."""
        cert, _, K = self.verification
        ret = TailEngine(self.chain, "return", absorbed=False).segments(K)
        return sup_fold(ret, [K], cert.lam * cert.mu_A, s0, cert.lam)[0]


def scale_certificate(model: ProcessModel, target: TargetSet,
                      ) -> tuple[ScaleCertificate, int]:
    """``Analysis(model, target).certificate``: the certificate and its horizon."""
    return Analysis(model, target).certificate


def extend_for_verification(engine: TailEngine, K: int, lam: float,
                            ) -> tuple[float, float, int]:
    """(sup_dev, truncation, K) for ``verify_exponential_bound``: a fresh
    ``engine``'s hitting tail streamed to K, 2K, ... (capped) until max(H(K),
    exp(-lam*mu*K)) <= TRUNCATION_TARGET, folding the sup.  Refused at once
    when exp(-lam*mu*K) cannot pass within the cap, and at the cap."""
    step, cap = lam * engine.chain.mu_A, exact.MAX_TAIL_STEPS
    if math.log(1.0 / TRUNCATION_TARGET) > step * cap:
        raise HorizonTooShortError(
            f"exp(-lam*mu*K) <= {TRUNCATION_TARGET:g} needs K > cap {cap}")
    grid = _doubling(K)
    found = sup_fold(itertools.chain.from_iterable(map(engine.segments, grid)), grid, step,
                      done=lambda H_K, K: max(H_K, math.exp(-step * K)) <= TRUNCATION_TARGET)
    if found is None:
        raise HorizonTooShortError(f"needed horizon exceeds cap {cap}")
    sup, K, H_K = found
    return sup, max(H_K, math.exp(-step * K)), K


def sup_deviation(levels: np.ndarray, step: float, s0: float = 0.0, div: float = 1.0) -> float:
    """sup_{t >= s0} |levels[floor(t/step)]/div - exp(-t)|, the truncation
    included, for div > 0: ``sup_fold`` on one segment, a one-pass max for any
    levels (each chunk divided as it is read, so H/lam needs no copy)."""
    return sup_fold(iter([(0, levels, None)]), [levels.size - 1], step, s0, div)[0]


def verify_exponential_bound(tail, cert: ScaleCertificate) -> VerificationReport:
    """Check sup_t |H(floor(t/(lam*mu))) - exp(-t)| <= 12*sqrt(d) up to the
    horizon, reporting the unchecked-tail contribution as a truncation
    residual.  ``tail`` is a hitting tail table, checked to its horizon, or
    the (sup_dev, truncation, K) ``extend_for_verification`` folded."""
    if isinstance(tail, TailDistribution):
        step = cert.lam * cert.mu_A
        truncation = max(float(tail.values[-1]), math.exp(-step * tail.horizon))
        if truncation > TRUNCATION_TARGET:
            raise HorizonTooShortError(
                "horizon too short: extend until H(K) and exp(-lam*mu*K) <= 1e-4")
        tail = sup_deviation(tail.values, step), truncation, tail.horizon
    sup_dev, truncation, _ = tail
    bound = 12.0 * math.sqrt(cert.d)
    return VerificationReport(sup_dev, bound, truncation, sup_dev <= bound + truncation)


def verify(model: ProcessModel, target: TargetSet,
           ) -> tuple[ScaleCertificate, VerificationReport, int]:
    """``Analysis(model, target).verification``: the certificate, its
    explicit-bound check and the verified horizon."""
    return Analysis(model, target).verification


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
