"""Non-Markovianity as temporary negativity of the decay rates.

Whenever any of gamma1, gamma2, gamma3 dips below zero the intermediate
propagator of the time-local map stops being completely positive, i.e.
the dynamics is not CP-divisible.  This module localizes the maximal
intervals where each rate is negative and scans parameterized families
for the Markovian to non-Markovian crossover.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coeffs import RateProfile

__all__ = [
    "Verdict",
    "NmReport",
    "CrossoverResult",
    "negative_intervals",
    "crossover_scan",
]

RATE_NAMES = ("gamma1", "gamma2", "gamma3")

# bisection target for interval endpoints
_TIME_ACCURACY = 1e-10


class Verdict(enum.Enum):
    MARKOVIAN = "Markovian"
    NON_MARKOVIAN = "NonMarkovian"


@dataclass(frozen=True)
class NmReport:
    """Negative-rate intervals of a profile on a window."""

    window: tuple[float, float]
    intervals: dict[str, tuple[tuple[float, float], ...]]
    singular_times: tuple[float, ...]
    verdict: Verdict

    @property
    def triggering_rates(self) -> tuple[str, ...]:
        return tuple(n for n in RATE_NAMES if self.intervals[n])

    @property
    def first_negative(self) -> float | None:
        starts = [iv[0] for ivs in self.intervals.values() for iv in ivs]
        return min(starts) if starts else None


def _refine(fn, lo, hi, neg_lo, tol):
    """Locate the boundary of the predicate fn(t) < -tol inside each bracket
    (lo, hi), where it holds at lo exactly where neg_lo does.

    All brackets are bisected together, with one call of fn on the array
    of their midpoints per step.  A bracket is done once it is narrower
    than ``_TIME_ACCURACY``, or than the float spacing at its upper end,
    which is wider from t = 2^19 (about 5.2e5) on and would otherwise
    leave no float between its ends.  A non-finite midpoint counts as
    hi's side.
    """
    out = np.empty(lo.shape)
    at = np.arange(lo.size)
    limit = np.maximum(_TIME_ACCURACY, np.spacing(hi))
    with np.errstate(all="ignore"):
        while at.size:
            mid = 0.5 * (lo + hi)
            open_ = hi - lo > limit
            if not open_.all():
                out[at[~open_]] = mid[~open_]
                lo, hi, neg_lo, limit, at = (x[open_] for x in (lo, hi, neg_lo, limit, at))
                continue
            v = fn(mid)
            up = np.isfinite(v) & ((v < -tol) == neg_lo)
            lo = np.where(up, mid, lo)
            hi = np.where(up, hi, mid)
    return out


def _rate_intervals(fn, grid, vals, tol):
    """Negative intervals of one rate from its samples vals on grid."""
    finite = np.isfinite(vals)
    neg = finite & (vals < -tol)
    flips = np.flatnonzero(neg[1:] != neg[:-1]) + 1
    cuts = _refine(fn, grid[flips - 1], grid[flips], neg[flips - 1], tol).tolist()
    if neg[0]:
        cuts.insert(0, grid[0])
    if neg[-1]:
        cuts.append(grid[-1])
    intervals = [(float(a), float(b)) for a, b in zip(cuts[::2], cuts[1::2])]
    return intervals, [float(t) for t in grid[~finite]]


def negative_intervals(
    profile: RateProfile,
    window: tuple[float, float],
    resolution: float | None = None,
    tol: float = 1e-12,
) -> NmReport:
    """Sign-scan the three decay rates on a window.

    The grid scan (2049 points by default, or the given resolution)
    samples all rates in one ``profile.rates_on`` call and brackets each
    sign change, which bisection of all brackets of a rate together
    then sharpens to 1e-10 in time.  Listed singular points and
    non-finite samples are excluded from the sign logic and reported
    separately; an interval opening at a rate divergence starts at the
    divergence time itself.  A window beyond the profile's
    ``singular_reach``, or a resolution that gives no finite grid count,
    raises ValueError.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not (0 <= t0 < t1) or not math.isfinite(t1):
        raise ValueError("window must satisfy 0 <= t_start < t_end < inf")
    profile.check_reach(t1)
    if resolution is not None and resolution <= 0:
        raise ValueError("resolution must be positive")
    # the count, not a spacing, so that a window too narrow to divide
    # still gets its grid
    spans = 2048 if resolution is None else (t1 - t0) / resolution
    if not math.isfinite(spans):
        raise ValueError(f"resolution = {resolution:g} divides the window "
                         f"({t0:g}, {t1:g}) into a number of points that is not finite")
    n = max(math.ceil(spans) + 1, 3)
    grid = np.linspace(t0, t1, n)

    intervals = {}
    singular = {s for s in profile.singular_points if t0 <= s <= t1}
    for name, vals in zip(RATE_NAMES, profile.rates_on(grid)):
        ivs, bad_samples = _rate_intervals(getattr(profile, name), grid, vals, tol)
        intervals[name] = tuple(ivs)
        singular.update(bad_samples)
    verdict = (Verdict.NON_MARKOVIAN
               if any(intervals[n] for n in RATE_NAMES) else Verdict.MARKOVIAN)
    return NmReport(
        window=(t0, t1),
        intervals=intervals,
        singular_times=tuple(sorted(singular)),
        verdict=verdict,
    )


@dataclass(frozen=True)
class CrossoverResult:
    """Smallest parameter with a non-Markovian verdict, with bracket."""

    values: tuple[float, ...]
    verdicts: tuple[Verdict, ...]
    threshold: float | None
    bracket: tuple[float, float] | None


def crossover_scan(
    family: Callable[[float], RateProfile],
    values: Sequence[float],
    window: tuple[float, float],
    resolution: float | None = None,
    tol: float = 1e-12,
    refine_rel: float = 1e-3,
) -> CrossoverResult:
    """Scan a profile family for the non-Markovianity threshold.

    ``family`` maps a parameter value to a RateProfile.  The grid of
    ``values`` (ascending) is scanned first; the bracket between the
    last Markovian and first non-Markovian value is then shrunk by
    bisection on the parameter until its width falls below
    refine_rel * initial width.  Returns threshold None when every grid
    value is Markovian.
    """
    vals = [float(v) for v in values]
    if any(b <= a for a, b in zip(vals[:-1], vals[1:])):
        raise ValueError("values must be strictly increasing")

    def is_nm(v):
        report = negative_intervals(family(v), window, resolution, tol)
        return report.verdict is Verdict.NON_MARKOVIAN

    verdicts = [Verdict.NON_MARKOVIAN if is_nm(v) else Verdict.MARKOVIAN for v in vals]
    first = next((i for i, v in enumerate(verdicts) if v is Verdict.NON_MARKOVIAN), None)
    if first is None:
        return CrossoverResult(tuple(vals), tuple(verdicts), None, None)
    if first == 0:
        return CrossoverResult(tuple(vals), tuple(verdicts), vals[0], None)

    lo, hi = vals[first - 1], vals[first]
    target = max(refine_rel * (hi - lo), 1e-12)
    while hi - lo > target:
        mid = 0.5 * (lo + hi)
        if is_nm(mid):
            hi = mid
        else:
            lo = mid
    return CrossoverResult(tuple(vals), tuple(verdicts), hi, (lo, hi))
