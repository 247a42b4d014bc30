"""Positivity and complete positivity of the phase-covariant qubit map.

Two independent checkers are provided and cross-reported:

* the inequality conditions i)-iv) on the Bloch-map quantities
  p = (t3 + lambda3)/2, q = (t3 - lambda3)/2, w = (lambda1 + lambda2)/2,
  y = (lambda1 - lambda2)/2, written in terms of the stable quantities
  pbar = exp(-Gamma)(G+1) and qbar = exp(-Gamma) G = g:

      i)   0 <= pbar <= 1
      ii)  0 <= qbar <= 1
      iii) -|kappa|^2 sin^2(Omega) <= qbar (1 - pbar)
      iv)   |kappa|^2 cos^2(Omega) <= pbar (1 - qbar)

* the spectrum of the Choi operator.  In the product basis ordered
  (|1>|1>, |1>|2>, |2>|1>, |2>|2>), with C = sum_ij E_ij (x) Phi(E_ij),
  the Choi matrix of the phase-covariant map is

      [ pbar    0      0     kappa  ]
      [ 0      1-pbar  0     0      ]
      [ 0      0       qbar  0      ]
      [ conj(kappa) 0  0     1-qbar ]

  with eigenvalues {1-pbar, qbar,
  [(pbar+1-qbar) +- sqrt((pbar-1+qbar)^2 + 4|kappa|^2)]/2}; the map is
  CP iff all are nonnegative, equivalently pbar, qbar in [0, 1] and
  |kappa|^2 <= pbar (1 - qbar).

For Omega = 0 (mod pi) the two verdicts coincide.  For other phases
condition iv) is weaker than the Choi criterion (its left-hand side is
damped by cos^2 Omega although a unitary phase cannot restore complete
positivity), so maps with negative GammaTilde and Omega near pi/2 can
pass i)-iv) while the Choi operator is not positive semidefinite.  The
Choi spectrum is taken as ground truth; reports record disagreements
instead of hiding them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coeffs import CoefficientSet, RateProfile, _xp
from .dynamics import AffineBlochMap, bloch_map

__all__ = [
    "DEFAULT_TOL",
    "CpConditions",
    "CpReport",
    "ChoiResult",
    "ShortTimeReport",
    "pqwy",
    "cp_paper",
    "choi_matrix",
    "choi_spectrum",
    "cp_choi",
    "cp_report",
    "short_time_check",
    "weak_coupling_check",
]

DEFAULT_TOL = 1e-9


def _pq_bar(c: CoefficientSet) -> tuple[float, float]:
    decay = c.decay
    return decay + c.g, c.g


def pqwy(c: CoefficientSet) -> tuple[float, float, float, complex]:
    """Bloch-inequality quantities (p, q, w, y) of a coefficient set.

    p and q are real, w = |kappa| cos(Omega) is real and
    y = i |kappa| sin(Omega) purely imaginary.
    """
    pbar, qbar = _pq_bar(c)
    k = c.attenuation
    return (
        pbar - 0.5,
        qbar - 0.5,
        k * math.cos(c.Omega),
        1j * (k * math.sin(c.Omega)),
    )


@dataclass(frozen=True)
class CpConditions:
    """Signed margins of conditions i)-iv); cond holds iff margin >= -tol."""

    tol: float
    margin_i: float
    margin_ii: float
    margin_iii: float
    margin_iv: float
    recast_iv: float | None = None

    @property
    def holds_i(self) -> bool:
        return self.margin_i >= -self.tol

    @property
    def holds_ii(self) -> bool:
        return self.margin_ii >= -self.tol

    @property
    def holds_iii(self) -> bool:
        return self.margin_iii >= -self.tol

    @property
    def holds_iv(self) -> bool:
        return self.margin_iv >= -self.tol

    @property
    def verdict(self) -> bool:
        # & rather than `and`: margins may be arrays over a grid
        return self.holds_i & self.holds_ii & self.holds_iii & self.holds_iv


def cp_paper(c: CoefficientSet, tol: float = DEFAULT_TOL) -> CpConditions:
    """Evaluate the inequality conditions i)-iv) with signed margins.

    When GammaTilde is exactly zero the simplified pure-damping recast of
    condition iv) is reported as well.  On a coefficient grid the margins
    and the verdict are arrays over it, and the recast is not reported.
    """
    if tol <= 0:
        raise ValueError("tol must be strictly positive")
    xp = _xp(c.Omega)
    lesser = min if xp is math else np.minimum
    pbar, qbar = _pq_bar(c)
    k2 = c.attenuation ** 2
    sin2 = xp.sin(c.Omega) ** 2
    cos2 = xp.cos(c.Omega) ** 2
    recast = None
    if xp is math and c.GammaTilde == 0.0:
        decay = c.decay
        recast = decay * (1.0 - cos2) + qbar * (1.0 - pbar)
    return CpConditions(
        tol=tol,
        margin_i=lesser(pbar, 1.0 - pbar),
        margin_ii=lesser(qbar, 1.0 - qbar),
        margin_iii=qbar * (1.0 - pbar) + k2 * sin2,
        margin_iv=pbar * (1.0 - qbar) - k2 * cos2,
        recast_iv=recast,
    )


def _as_map(m: AffineBlochMap | CoefficientSet) -> AffineBlochMap:
    return bloch_map(m) if isinstance(m, CoefficientSet) else m


def choi_matrix(m: AffineBlochMap | CoefficientSet) -> np.ndarray:
    """4x4 Choi operator, basis (|1>|1>, |1>|2>, |2>|1>, |2>|2>)."""
    m = _as_map(m)
    pbar = (1.0 + m.t3 + m.lambda3) / 2.0
    qbar = (1.0 + m.t3 - m.lambda3) / 2.0
    choi = np.zeros((4, 4), dtype=complex)
    choi[0, 0] = pbar
    choi[1, 1] = 1.0 - pbar
    choi[2, 2] = qbar
    choi[3, 3] = 1.0 - qbar
    choi[0, 3] = m.kappa
    choi[3, 0] = m.kappa.conjugate()
    return choi


def choi_spectrum(m: AffineBlochMap | CoefficientSet) -> np.ndarray:
    """Closed-form Choi eigenvalues [1-pbar, qbar, pair+, pair-].

    The order is fixed; the four values always sum to 2 (the Choi
    operator has trace 2 in this normalization).  On a coefficient grid
    the result has shape (4, n), one column per row of the grid.
    """
    m = _as_map(m)
    pbar = (1.0 + m.t3 + m.lambda3) / 2.0
    qbar = (1.0 + m.t3 - m.lambda3) / 2.0
    k2 = abs(m.kappa) ** 2
    half_sum = (pbar + 1.0 - qbar) / 2.0
    half_disc = 0.5 * _xp(k2).sqrt((pbar - 1.0 + qbar) ** 2 + 4.0 * k2)
    return np.array([1.0 - pbar, qbar, half_sum + half_disc, half_sum - half_disc])


@dataclass(frozen=True)
class ChoiResult:
    is_cp: bool
    min_eigenvalue: float


def cp_choi(m: AffineBlochMap | CoefficientSet, tol: float = DEFAULT_TOL) -> ChoiResult:
    """Complete positivity from the Choi spectrum (CP iff min eig >= -tol).

    On a coefficient grid both fields are arrays over it.
    """
    min_eig = choi_spectrum(m).min(axis=0)
    if min_eig.ndim == 0:
        min_eig = float(min_eig)
    return ChoiResult(is_cp=min_eig >= -tol, min_eigenvalue=min_eig)


@dataclass(frozen=True)
class CpReport:
    """Joint verdict of the inequality and Choi checkers at one time."""

    t: float
    p: float
    q: float
    w: float
    y: complex
    conditions: CpConditions
    paper_verdict: bool
    choi_min_eig: float
    choi_verdict: bool

    @property
    def agreement(self) -> bool:
        return self.paper_verdict == self.choi_verdict


def cp_report(c: CoefficientSet, tol: float = DEFAULT_TOL) -> CpReport:
    """Run both checkers on a coefficient set and cross-report."""
    p, q, w, y = pqwy(c)
    conds = cp_paper(c, tol)
    choi = cp_choi(c, tol)
    return CpReport(
        t=c.t,
        p=p,
        q=q,
        w=w,
        y=y,
        conditions=conds,
        paper_verdict=conds.verdict,
        choi_min_eig=choi.min_eigenvalue,
        choi_verdict=choi.is_cp,
    )


@dataclass(frozen=True)
class ShortTimeReport:
    """Initial-time rate signs; a CP dynamics cannot start negative."""

    values: tuple[float, float, float]
    ok: tuple[bool, bool, bool]
    indeterminate: tuple[bool, bool, bool]

    @property
    def all_ok(self) -> bool:
        return all(self.ok) and not any(self.indeterminate)


def short_time_check(profile: RateProfile, tol: float = DEFAULT_TOL) -> ShortTimeReport:
    """Check gamma1(0), gamma2(0), gamma3(0) >= -tol.

    Rates that cannot be evaluated at 0 (listed singularity or
    non-finite value) are flagged indeterminate instead of failed.
    """
    singular_origin = any(s == 0.0 for s in profile.singular_points)
    values, ok, indet = [], [], []
    for fn in (profile.gamma1, profile.gamma2, profile.gamma3):
        if singular_origin:
            values.append(math.nan)
            ok.append(False)
            indet.append(True)
            continue
        try:
            v = fn(0.0)
        except (ArithmeticError, ValueError):
            v = math.nan
        if not math.isfinite(v):
            values.append(v)
            ok.append(False)
            indet.append(True)
        else:
            values.append(v)
            ok.append(v >= -tol)
            indet.append(False)
    return ShortTimeReport(values=tuple(values), ok=tuple(ok), indeterminate=tuple(indet))


def weak_coupling_check(
    i1: float, i2: float, i3: float, tol: float = DEFAULT_TOL
) -> tuple[bool, bool, bool]:
    """Weak-coupling CP conditions: each accumulated rate integral >= -tol."""
    return (i1 >= -tol, i2 >= -tol, i3 >= -tol)
