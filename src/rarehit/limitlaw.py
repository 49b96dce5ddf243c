"""Rescaled hitting/return laws and their exact relations.

F(t) is the CDF of the rescaled hitting time lam*mu(A)*tau_A and G(s) the
normalized return tail (1/lam)*mu(lam*mu(A)*tau_A > s | A).  Both are step
functions on the grid t_k = lam*mu(A)*k, so integrals of G are computed
exactly as sums over flats and suprema against the exponential are taken at
flat endpoints, never sampled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridEmptyError, HorizonTooShortError, InvalidTailError
from .exact import TailDistribution, TailEngine
from .process import ProcessModel
from .scaling import ScaleCertificate, sup_deviation, verification_tail
from .targets import TargetSet


class StepLaw:
    """Rescaled law backed by a tail table.

    role "F": value(t) = 1 - H_hit(floor(t/step));
    role "G": value(s) = H_ret(floor(s/step)) / lam.
    """

    def __init__(self, role: str, tail: TailDistribution, lam: float, mu_A: float):
        if role not in ("F", "G"):
            raise InvalidTailError(f"role must be F or G, got {role!r}")
        self.role = role
        self.tail = tail
        self.lam = lam
        self.mu_A = mu_A
        self.step = lam * mu_A
        self.levels = 1.0 - tail.values if role == "F" else tail.values / lam

    @property
    def t_max(self) -> float:
        return self.step * (self.tail.horizon + 1)

    def _index(self, t: float) -> int:
        if not t >= 0:  # NaN included
            raise DomainError("time must be non-negative")
        if t / self.step >= self.tail.horizon + 1:  # infinity included
            raise HorizonTooShortError(f"t={t} beyond tail horizon")
        return int(math.floor(t / self.step))

    def value(self, t: float) -> float:
        return float(self.levels[self._index(t)])

    def value_at_zero_plus(self) -> float:
        # H(0)=1, so F(0+)=0 and G(0+)=1/lam.
        return self.value(0.0)

    def integral(self, a: float, b: float) -> float:
        """Exact integral over [a, b] of the step function."""
        if b < a:
            raise DomainError("need a <= b")
        return self._integral0(b) - self._integral0(a)

    def _integral0(self, t: float) -> float:
        j = self._index(t)
        full = self.step * float(self.levels[:j].sum())
        return full + (t - j * self.step) * float(self.levels[j])


class ExponentialLaw:
    """The limiting pair: F(t) = 1 - exp(-t), G(s) = exp(-s)."""

    def __init__(self, role: str):
        self.role = role

    def value(self, t: float) -> float:
        return 1.0 - math.exp(-t) if self.role == "F" else math.exp(-t)

    def value_at_zero_plus(self) -> float:
        return 0.0 if self.role == "F" else 1.0

    def integral(self, a: float, b: float) -> float:
        if self.role == "F":
            return (b - a) - (math.exp(-a) - math.exp(-b))
        return math.exp(-a) - math.exp(-b)


def make_F(hitting: TailDistribution, lam: float, mu_A: float) -> StepLaw:
    if hitting.kind != "hitting":
        raise InvalidTailError("make_F needs a hitting tail")
    return StepLaw("F", hitting, lam, mu_A)


def make_G(ret: TailDistribution, lam: float, mu_A: float) -> StepLaw:
    if ret.kind != "return":
        raise InvalidTailError("make_G needs a return tail")
    return StepLaw("G", ret, lam, mu_A)


def kac_bound_violation(G, s_grid) -> float:
    """Worst violation of G(s) <= 1/s over the grid (negative = satisfied)."""
    s_grid = list(s_grid)
    if not s_grid:
        raise GridEmptyError("empty s grid")
    return max(G.value(s) - 1.0 / s for s in s_grid)


def check_sandwich(F, G, mu_A: float, pairs) -> float:
    """Worst signed violation of

        int_t^{t'} G - mu(A) <= F(t') - F(t) <= int_t^{t'} G + mu(A)

    over the (t, t') grid; a non-positive result means the inequality holds.
    """
    pairs = list(pairs)
    if not pairs:
        raise GridEmptyError("empty (t, t') grid")
    worst = -math.inf
    for t, tp in pairs:
        if tp < t:
            raise DomainError("need t <= t'")
        dF = F.value(tp) - F.value(t)
        integ = G.integral(t, tp)
        worst = max(worst, (integ - mu_A) - dF, dF - (integ + mu_A))
    return worst


def check_integral_relation(F, G, t_grid) -> np.ndarray:
    """Residuals |F(t) - F(0+) - int_0^t G| over the grid."""
    f0 = F.value_at_zero_plus()
    return np.array([abs(F.value(t) - f0 - G.integral(0.0, t)) for t in t_grid])


@dataclass(frozen=True)
class DiagnosticsRow:
    n: int
    mu_A: float
    lam: float
    delta: float
    d_hit: float
    d_ret: float
    bound: float
    cert: ScaleCertificate


def certified_tails(model: ProcessModel, target: TargetSet,
                    ) -> tuple[ScaleCertificate, TailDistribution, TailDistribution]:
    """Scale certificate, the hitting tail extended for verification and the
    return tail to the same horizon, both pushed on one composed chain."""
    cert, hit = verification_tail(model, target)
    ret = TailEngine(model, target, "return", chain=hit.engine.chain).extend(hit.horizon)
    return cert, hit, ret


def convergence_diagnostics(model: ProcessModel, targets_by_n: dict[int, TargetSet],
                         s0: float = 0.05) -> list[DiagnosticsRow]:
    """Per-n sup-deviations of the rescaled laws from the exponential, with
    the companion bound 12*sqrt(2*mu(tau<=n)+alpha(n)) + 2*mu(A_n)."""
    rows = []
    for n in sorted(targets_by_n):
        target = targets_by_n[n]
        cert, tail, ret = certified_tails(model, target)
        step = cert.lam * cert.mu_A
        d_hit = sup_deviation(tail.values, step)
        d_ret = sup_deviation(ret.values / cert.lam, step, s0)
        bound = 12.0 * math.sqrt(cert.d) + 2.0 * cert.mu_A
        rows.append(DiagnosticsRow(n, cert.mu_A, cert.lam, cert.delta,
                                   d_hit, d_ret, bound, cert))
    return rows


def write_diagnostics_csv(fp, rows: list[DiagnosticsRow]) -> None:
    fp.write("n,mu_A,lambda,D_hit,D_ret,bound\n")
    for r in rows:
        fp.write(f"{r.n},{r.mu_A!r},{r.lam!r},{r.d_hit!r},{r.d_ret!r},{r.bound!r}\n")
