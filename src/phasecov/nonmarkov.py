"""Non-Markovianity as temporary negativity of the decay rates.

Whenever any of gamma1, gamma2, gamma3 dips below zero the intermediate
propagator of the time-local map stops being completely positive, i.e.
the dynamics is not CP-divisible.  This module localizes the maximal
intervals where each rate is negative and scans parameterized families
for the Markovian to non-Markovian crossover.

A sign scan samples the rates on a grid, with two more samples beside
each listed pole p, max(1e-10/4, ulp(p)) to either side, and refines
each sign change to 1e-10 in time by Illinois regula falsi
(``_illinois``): about five calls per bracket of a smooth rate, none
for a sign change across a pole below 2^18, whose bracket the two
samples beside it already make narrower than the target.  A sample
beside a pole that reads non-finite moves 4 times farther out, at most
halfway to its neighbouring grid point, until it reads finite.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .coeffs import RateProfile, _check_tol

__all__ = [
    "Verdict",
    "NmReport",
    "CrossoverResult",
    "negative_intervals",
    "crossover_scan",
]

RATE_NAMES = ("gamma1", "gamma2", "gamma3")

# refinement target for interval endpoints
_TIME_ACCURACY = 1e-10
# steps a smooth bracket may take beyond bisection's count
_EXTRA_STEPS = 4
# the least distance of a regula falsi point from an end, in units of
# the target: less than 1, so that a point checking the far side of a
# boundary next to an end leaves a bracket narrower than the target
_END_STEP = 0.75


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


def _illinois(fn, lo, hi, v_lo, v_hi, tol):
    """Locate the boundary of the predicate "fn(t) is finite and below
    -tol" inside each bracket (lo, hi), from the values v_lo and v_hi of
    fn at the ends, which lie on either side of it.  A non-finite value
    counts as not below, at an end (passed as NaN) and at a new point
    alike, so a boundary next to a non-finite band is found where the
    finite values below -tol end, whichever side the band lies on.

    All brackets step together, with one call of fn on the array of their
    new points per step.  A step takes the secant point of the shifted
    values g = v + tol at the ends; where two secant steps in a row keep
    the same end, its g is halved (Illinois regula falsi, Dowell &
    Jarratt, BIT 11, 1971), which pulls the next point across the
    boundary.  The point is kept at least ``_END_STEP`` of the target
    from either end, so that once the secant has pinned the boundary
    next to one end, one step checks its other side and ends the
    bracket.  A bracket bisects where the point is not inside it (a NaN
    at an end, where a non-finite value was kept), and wherever only
    bisection can still end it within ``_EXTRA_STEPS`` steps of
    bisection's own count, which bounds every bracket by that count.  (Bisecting after each step that does not halve a bracket
    undoes the halving: on Ohmic rates that took a median of 8 steps,
    not 5.)  A bracket is done once it is narrower than
    ``_TIME_ACCURACY``, or than the float spacing at its upper end, which
    is wider from t = 2^19 (about 5.2e5) on and would otherwise leave no
    float between its ends; its cut is then its midpoint.  A bracket
    that starts that narrow takes no call.
    """
    out = np.empty(lo.shape)
    at = np.arange(lo.size)
    limit = np.maximum(_TIME_ACCURACY, np.spacing(hi))
    end = _END_STEP * limit
    g_lo, g_hi = v_lo + tol, v_hi + tol     # g < 0 exactly where v < -tol
    neg_lo = g_lo < 0
    with np.errstate(all="ignore"):
        # the widest a bracket may be after a step and still end within
        # bisection's count plus the allowance, by bisecting from then on
        cap = np.ldexp(limit, np.ceil(np.log2((hi - lo) / limit)).astype(int)
                       + _EXTRA_STEPS - 1)
        kept = np.zeros(lo.shape)   # the end the last secant step kept: hi +1, lo -1
        while at.size:
            width = hi - lo
            open_ = width > limit
            if not open_.all():
                out[at[~open_]] = 0.5 * (lo + hi)[~open_]
                lo, hi, g_lo, g_hi, neg_lo, limit, end, cap, kept, at, width = (
                    x[open_] for x in (lo, hi, g_lo, g_hi, neg_lo, limit, end, cap,
                                       kept, at, width))
                continue
            t = np.minimum(np.maximum(hi - g_hi * (width / (g_hi - g_lo)), lo + end),
                           hi - end)
            bisect = np.isnan(t) | (width > cap)
            if bisect.any():
                t = np.where(bisect, 0.5 * (lo + hi), t)
            v = fn(t)
            g = v + tol
            up = (np.isfinite(v) & (g < 0)) == neg_lo
            keep = np.where(bisect, 0.0, np.where(up, 1.0, -1.0))
            twice = keep * kept > 0
            g_lo = np.where(up, g, np.where(twice, 0.5 * g_lo, g_lo))
            g_hi = np.where(up, np.where(twice, 0.5 * g_hi, g_hi), g)
            lo = np.where(up, t, lo)
            hi = np.where(up, hi, t)
            kept = keep
            cap *= 0.5
    return out


def _rate_intervals(fn, grid, vals, tol, plain):
    """Negative intervals of one rate from its samples vals on grid, and
    the times of its non-finite samples among the plain ones (those that
    are not beside a pole).

    The brackets of its sign changes all take ``_illinois``, with a
    non-finite sample at an end passed as NaN.
    """
    finite = np.isfinite(vals)
    neg = finite & (vals < -tol)
    flips = np.flatnonzero(neg[1:] != neg[:-1]) + 1
    cuts = []
    if flips.size:
        v_lo, v_hi = (np.where(finite[i], vals[i], np.nan) for i in (flips - 1, flips))
        cuts = _illinois(fn, grid[flips - 1], grid[flips], v_lo, v_hi, tol).tolist()
    if neg[0]:
        cuts.insert(0, grid[0])
    if neg[-1]:
        cuts.append(grid[-1])
    intervals = [(float(a), float(b)) for a, b in zip(cuts[::2], cuts[1::2])]
    return intervals, [float(t) for t in grid[~finite & plain]]


def negative_intervals(
    profile: RateProfile,
    window: tuple[float, float],
    resolution: float | None = None,
    tol: float = 1e-12,
) -> NmReport:
    """Sign-scan the three decay rates on a window.

    The grid scan (2049 points by default, or the given resolution,
    plus a point max(1e-10/4, ulp(p)) on either side of each listed
    singular point p in the window) samples all rates in one
    ``profile.rates_on`` call and brackets each sign change, which
    regula falsi on all brackets of a rate together then sharpens to
    1e-10 in time (``_illinois``).  A sample beside a listed point that
    reads non-finite in gamma1, gamma2 or gamma3 moves 4 times farther
    out, at most halfway to its neighbouring grid point, and is sampled
    again, in one ``rates_on`` call per move for all the samples that
    move; a scan whose samples beside the poles read finite makes no
    such call.
    Listed singular points and non-finite samples are excluded from the
    sign logic and reported separately, the samples beside a listed
    point as that point; an interval opening at a rate divergence starts
    at the divergence time itself, to within the target.  A window
    beyond the profile's
    ``singular_reach``, a resolution that gives no finite grid count, or
    a tol outside 0 < tol < inf, NaN included, raises ValueError.
    """
    t0, t1 = float(window[0]), float(window[1])
    if not (0 <= t0 < t1) or not math.isfinite(t1):
        raise ValueError("window must satisfy 0 <= t_start < t_end < inf")
    _check_tol(tol)
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
    singular = {s for s in profile.singular_points if t0 <= s <= t1}
    plain = True
    if singular:
        # a float spacing, at least a quarter of the target, on either
        # side of each pole: a sign change across it is then bracketed
        # however short the stretch it opens, below 2^18 in a bracket
        # narrower than the target (sorted and merged without a numpy
        # sort, whose code pages add about 0.4 MB to a scan's peak RSS)
        beside = []
        for p in singular:
            side = max(0.25 * _TIME_ACCURACY, math.ulp(p))
            beside += ((t, p) for t in (p - side, p + side) if t0 < t < t1)
        beside, poles = np.array(sorted(beside)).reshape(-1, 2).T
        at = np.searchsorted(grid, beside) + np.arange(beside.size)
        plain = np.ones(grid.size + beside.size, dtype=bool)
        plain[at] = False
        merged = np.empty(plain.size)
        merged[at] = beside
        merged[plain] = grid
        grid = merged
    rates = profile.rates_on(grid)
    if singular:
        # the thermal rate reads non-finite within about 3.6e-15/delta of
        # a pole (R = 1/2 + delta^2/2), farther out than the first
        # samples when R - 1/2 < 1e-8; stopping halfway to the outer
        # neighbour keeps the grid sorted
        out = np.sign(beside - poles)
        side = np.abs(beside - poles)
        reach = 0.5 * np.abs(np.where(out < 0, grid[at - 1], grid[at + 1]) - poles)
        while True:
            wider = np.minimum(4.0 * side, reach)
            move = ~np.isfinite(rates[:3, at]).all(axis=0) & (wider > side)
            if not move.any():
                break
            side[move] = wider[move]
            moved = at[move]
            grid[moved] = poles[move] + out[move] * side[move]
            rates[:, moved] = profile.rates_on(grid[moved])

    intervals = {}
    for name, vals in zip(RATE_NAMES, rates):
        ivs, bad_samples = _rate_intervals(getattr(profile, name), grid, vals, tol, plain)
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
    refine_rel * initial width, or until no float lies between its ends.
    Returns threshold None when every grid value is Markovian.  Values
    that are not finite or not strictly increasing, and a refine_rel
    outside 0 < refine_rel < inf, raise ValueError.
    """
    vals = [float(v) for v in values]
    if not all(map(math.isfinite, vals)):
        raise ValueError("values must be finite")
    if any(b <= a for a, b in zip(vals[:-1], vals[1:])):
        raise ValueError("values must be strictly increasing")
    if not 0 < refine_rel < math.inf:
        raise ValueError("refine_rel must be positive and finite")

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
        # past 8192 the target may be finer than the float spacing
        if not lo < mid < hi:
            break
        if is_nm(mid):
            hi = mid
        else:
            lo = mid
    return CrossoverResult(tuple(vals), tuple(verdicts), hi, (lo, hi))
