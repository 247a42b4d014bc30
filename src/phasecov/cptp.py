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

from .coeffs import CoefficientSet, RateProfile, _check_tol, _xp
from .dynamics import AffineBlochMap, _bloch_parts

__all__ = [
    "CpConditions",
    "CpReport",
    "ChoiResult",
    "ShortTimeReport",
    "pqwy",
    "cp_paper",
    "choi_spectrum",
    "cp_choi",
    "cp_report",
    "short_time_check",
]

DEFAULT_TOL = 1e-9


def _pq_bar(c: CoefficientSet) -> tuple[float, float]:
    decay = c.decay
    return decay + c.g, c.g


def pqwy(c: CoefficientSet) -> tuple[float, float, float, complex]:
    """Bloch-inequality quantities (p, q, w, y) of a coefficient set.

    p and q are real, w = |kappa| cos(Omega) is real and
    y = i |kappa| sin(Omega) purely imaginary.  On a coefficient grid
    each is an array over it.
    """
    xp = _xp(c.Omega)
    pbar, qbar = _pq_bar(c)
    k = c.attenuation
    return (
        pbar - 0.5,
        qbar - 0.5,
        k * xp.cos(c.Omega),
        1j * (k * xp.sin(c.Omega)),
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
    A tol outside 0 < tol < inf, NaN included, raises ValueError.
    """
    _check_tol(tol)
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


def _map_parts(m: AffineBlochMap | CoefficientSet) -> tuple:
    """(lambda3, t3, kappa) of a map, or of the Bloch map of a coefficient set."""
    if isinstance(m, CoefficientSet):
        return _bloch_parts(m)
    return m.lambda3, m.t3, m.kappa


def _choi_eigenvalues(m: AffineBlochMap | CoefficientSet) -> tuple:
    """[1-pbar, qbar, pair+, pair-] as floats, or as arrays on a grid."""
    lambda3, t3, kappa = _map_parts(m)
    pbar = (1.0 + t3 + lambda3) / 2.0
    qbar = (1.0 + t3 - lambda3) / 2.0
    k2 = abs(kappa) ** 2
    half_sum = (pbar + 1.0 - qbar) / 2.0
    half_disc = 0.5 * _xp(k2).sqrt((pbar - 1.0 + qbar) ** 2 + 4.0 * k2)
    return 1.0 - pbar, qbar, half_sum + half_disc, half_sum - half_disc


def choi_spectrum(m: AffineBlochMap | CoefficientSet) -> np.ndarray:
    """Closed-form Choi eigenvalues [1-pbar, qbar, pair+, pair-].

    The order is fixed; the four values always sum to 2 (the Choi
    operator has trace 2 in this normalization).  On a coefficient grid
    the result has shape (4, n), one column per row of the grid.
    """
    return np.array(_choi_eigenvalues(m))


@dataclass(frozen=True)
class ChoiResult:
    is_cp: bool
    min_eigenvalue: float


def cp_choi(m: AffineBlochMap | CoefficientSet, tol: float = DEFAULT_TOL) -> ChoiResult:
    """Complete positivity from the Choi spectrum (CP iff min eig >= -tol).

    On a coefficient grid both fields are arrays over it.  For one map the
    minimum is taken as numpy's is: NaN if any eigenvalue is NaN, and of
    equal values, such as 0.0 and -0.0, the last.  A tol outside
    0 < tol < inf, NaN included, raises ValueError.
    """
    _check_tol(tol)
    eigenvalues = a, b, c, d = _choi_eigenvalues(m)
    if isinstance(a, np.ndarray):
        min_eig = np.min(eigenvalues, axis=0)
    elif a != a or b != b or c != c or d != d:
        min_eig = math.nan
    else:
        min_eig = float(min(d, c, b, a))
    return ChoiResult(is_cp=min_eig >= -tol, min_eigenvalue=min_eig)


@dataclass(frozen=True)
class CpReport:
    """Joint verdict of the inequality and Choi checkers at one time, or
    on a coefficient grid, where each field (the margins of
    ``conditions`` too) is an array over it."""

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
    """Run both checkers on a coefficient set, or row by row on a grid,
    and cross-report."""
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
    non-finite value) are flagged indeterminate instead of failed.  A tol
    outside 0 < tol < inf, NaN included, raises ValueError.
    """
    _check_tol(tol)
    singular_origin = bool(profile.poles(0.0, 0.0))
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
