"""Rescaled hitting/return laws and their exact relations.

F(t) is the CDF of the rescaled hitting time lam*mu(A)*tau_A and G(s) the
normalized return tail (1/lam)*mu(lam*mu(A)*tau_A > s | A).  Both are step
functions on the grid t_k = lam*mu(A)*k, so integrals of G are computed
exactly as sums over flats and suprema against the exponential are taken at
flat endpoints, never sampled.  A ``StepLaw`` is built from its tail alone
and lambda: a hitting tail gives F and a return tail G, and mu(A) is the
tail's own.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._csvrows import write_rows
from .errors import DomainError, GridEmptyError, HorizonTooShortError, MeasureUnderflowError
from .exact import TailDistribution
from .process import ProcessModel
from .scaling import Analysis, ScaleCertificate
from .targets import point_cylinders


class StepLaw:
    """Rescaled law backed by a tail table, on the grid step lam*mu(A).

    A hitting tail gives F: value(t) = 1 - H_hit(floor(t/step));
    a return tail gives G: value(s) = H_ret(floor(s/step)) / lam.
    """

    def __init__(self, tail: TailDistribution, lam: float):
        self.tail = tail
        self.lam = lam
        self.step = lam * tail.mu_A
        if not self.step > 0.0:  # NaN included
            if lam > 0.0 and tail.mu_A > 0.0:
                raise MeasureUnderflowError(
                    f"lam*mu(A) underflows: lam = {lam:.3g}, mu(A) = {tail.mu_A:.3g}")
            raise DomainError(f"lam*mu(A) must be positive, got lam = {lam}, "
                              f"mu(A) = {tail.mu_A}")
        self.levels = 1.0 - tail.values if tail.kind == "hitting" else tail.values / lam

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

    def integral(self, a: float, b: float) -> float:
        if self.role == "F":
            return (b - a) - (math.exp(-a) - math.exp(-b))
        return math.exp(-a) - math.exp(-b)


def kac_bound_violation(G, s_grid) -> float:
    """Worst violation of G(s) <= 1/s over the grid (negative = satisfied).

    At s = 0 the bound is 1/0 = inf and holds trivially; such points count
    as -inf, without dividing by zero."""
    s_grid = list(s_grid)
    if not s_grid:
        raise GridEmptyError("empty s grid")
    return max(G.value(s) - 1.0 / s if s > 0 else -math.inf for s in s_grid)


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
    """Residuals |F(t) - F(0+) - int_0^t G| over the grid.  F(0+) is read
    as F(0): a step law is flat on [0, step) and the exponential continuous."""
    f0 = F.value(0.0)
    return np.array([abs(F.value(t) - f0 - G.integral(0.0, t)) for t in t_grid])


@dataclass(frozen=True)
class DiagnosticsRow:
    cert: ScaleCertificate
    d_hit: float
    d_ret: float
    bound: float


def convergence_diagnostics(model: ProcessModel, point: str, n_range,
                            s0: float = 0.05) -> list[DiagnosticsRow]:
    """Per-n sup-deviations of the rescaled laws from the exponential, one row
    per cylinder of ``point_cylinders(model, point, n_range)``, each an
    ``Analysis`` built as its row is reached and dropped before the next, so
    the sweep peaks at its largest row.  D_hit and the bound 12*sqrt(d) + 2*mu(A)
    are those of ``verify_exponential_bound``; D_ret is G's, as ``StepLaw``
    gives it, folded over the return stream (``Analysis.return_deviation``)."""
    return [_diagnostics_row(Analysis(model, target), s0)
            for target in point_cylinders(model, point, n_range)]


def _diagnostics_row(analysis: Analysis, s0: float) -> DiagnosticsRow:
    cert, report, _ = analysis.verification
    return DiagnosticsRow(cert, report.sup_dev, analysis.return_deviation(s0),
                          report.bound + 2.0 * cert.mu_A)


def write_diagnostics_csv(fp, rows: list[DiagnosticsRow]) -> None:
    fp.write("n,mu_A,lambda,D_hit,D_ret,bound\n")
    write_rows(fp, list(zip(*((r.cert.n, r.cert.mu_A, r.cert.lam, r.d_hit, r.d_ret, r.bound)
                              for r in rows))))
