"""Concrete rate models: thermal amplitude damping and Ohmic dephasing.

Thermal model
-------------
A two-level system coupled to a thermal reservoir with mean occupation N
heats and dissipates at rates

    gamma1(t) = 2 N f(t),        gamma2(t) = 2 (N + 1) f(t),

where f(t) = -2 Re{cdot(t)/c(t)} is borrowed from the exactly solvable
zero-temperature damping model with memory amplitude

    c(tau) = exp(-tau/2) [cosh(d tau/2) + sinh(d tau/2)/d] c(0),
    d = sqrt(1 - 2 R).

R > 0 measures the system-reservoir coupling against the spectral width.
For R < 1/2 the ratio x(tau) = [c(tau)/c(0)]^2 decays monotonically and
f >= 0; for R > 1/2 it oscillates, c has isolated zeros where f diverges,
and f is temporarily negative.  Everything population-related has the
closed form

    Gamma(t) = -(2N+1) ln x(t),
    P1(t)    = x^(2N+1) P1(0) + (N+1)/(2N+1) [1 - x^(2N+1)],

which stays finite through the zeros of c.

Ohmic dephasing
---------------
Pure dephasing driven by a bosonic bath with spectral density

    J(w) = alpha (w/w_c)^s exp(-w/w_c).

Two thermal-kernel conventions for the rate are supported:

    kernel="paper":       gamma3(t) = 2 int dw J(w) coth(w/T)  sin(w t)
    kernel="literature":  gamma3(t) = 2 int dw J(w) coth(w/(2T)) sin(w t)/w

with coth -> 1 at T = 0 (units hbar = k_B = 1).  At T = 0 both have
closed forms in u = w_c t:

    paper:      gamma3 = 2 a G(s+1) w_c (1+u^2)^(-(s+1)/2) sin((s+1) atan u)
    literature: gamma3 = 2 a G(s)   (1+u^2)^(-s/2)        sin(s atan u)

(G is Euler's gamma function).  At T > 0, expanding coth in
exponentials makes both gamma3 and GammaTilde exact series of such
terms (``OhmicSeries``), which the CLI and ``ohmic_profile`` use.
Adaptive quadrature over frequency (``ohmic_rate``,
``ohmic_gamma_tilde``) stays as the independent reference route for
both closed forms and the series.  The accumulated GammaTilde is
nonnegative for every s, T and both kernels, so adding this dephasing
never endangers complete positivity; its rate does go negative, for
s > 1 (paper kernel) or s > 2 (literature kernel), which is what makes
the combined dynamics non-Markovian at weak dissipative coupling.

Rates
-----
The profiles' rates are written once each and take a float time or an
ndarray of times (see ``RateProfile``): the thermal f
(``_memory_rate``, bit for bit ``amplitude_memory(R, t).f`` on floats)
and the T = 0 gamma3 (``_cold_rate``, which also gives
``ohmic_closed_form``'s rate).  At T > 0, ``OhmicSeries.rate`` takes
both as well.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .coeffs import QuadratureConfig, RateProfile, _backend, _quad, _xp, _zero

__all__ = [
    "ThermalParams",
    "OhmicParams",
    "MemorySample",
    "amplitude_memory",
    "thermal_zeros",
    "thermal_profile",
    "thermal_closed_form",
    "ohmic_rate",
    "ohmic_gamma_tilde",
    "ohmic_closed_form",
    "OhmicSeries",
    "ohmic_profile",
    "markov_rate_limit",
]

KERNELS = ("paper", "literature")


@dataclass(frozen=True)
class ThermalParams:
    """Thermal amplitude-damping model parameters."""

    R: float
    N: float = 0.0

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not 0 < self.R < math.inf:
            raise ValueError("R must be strictly positive and finite")
        if not 0 <= self.N < math.inf:
            raise ValueError("N must be non-negative and finite")


@dataclass(frozen=True)
class OhmicParams:
    """Ohmic-class dephasing parameters (units hbar = k_B = 1)."""

    alpha: float
    s: float
    omega_c: float = 1.0
    T: float = 0.0
    kernel: str = "literature"

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not all(0 < x < math.inf for x in (self.alpha, self.s, self.omega_c)):
            raise ValueError("alpha, s and omega_c must be strictly positive and finite")
        if not 0 <= self.T < math.inf:
            raise ValueError("T must be non-negative and finite")
        if self.kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}")


@dataclass(frozen=True)
class MemorySample:
    """c(tau)/c(0), x = (c/c(0))^2 and f = -2 Re{cdot/c} at one time."""

    tau: float
    c_ratio: float
    x: float
    f: float
    singular: bool = False


# Degenerate d -> 0 branch is taken inside this band around R = 1/2.
_DEGENERATE_BAND = 1e-14
# |cos + sin/delta| at or below this times hypot(1, 1/delta) is a zero of c.
_ZERO_BAND = 8 * 2.220446049250313e-16


def amplitude_memory(R: float, tau: float) -> MemorySample:
    """Evaluate the damping memory c/c(0), x and the rate function f.

    Branches on the discriminant 1 - 2R: real hyperbolic functions for
    R < 1/2 (written overflow-free in terms of decaying exponentials),
    trigonometric ones for R > 1/2, and the polynomial limit at R = 1/2.
    At a zero of c the rate f diverges; the sample is flagged singular
    with x = 0 and f = +/-inf.
    """
    if not R > 0:
        raise ValueError("R must be strictly positive")
    if tau < 0:
        raise ValueError("tau must be non-negative")

    disc = 1.0 - 2.0 * R
    if abs(disc) <= _DEGENERATE_BAND:
        c = math.exp(-tau / 2) * (1.0 + tau / 2)
        f = (tau / 2) / (1.0 + tau / 2)
        return MemorySample(tau=tau, c_ratio=c, x=c * c, f=f)

    if disc > 0:
        d = math.sqrt(disc)
        # 2 e^{-z} cosh z = 1 + e^{-2z} etc. keeps every exponent <= 0,
        # and (1 + 1/d) + e (1 - 1/d) = 1 + e + (1 - e)/d, with 1 - e from
        # expm1: no cancellation at small d tau nor at d -> 0
        e = math.exp(-d * tau)
        em = -math.expm1(-d * tau)
        c = 0.5 * math.exp(-(1 - d) * tau / 2) * (1 + e + em / d)
        f = (2 * R / d) * em / (1 + e + em / d)
        return MemorySample(tau=tau, c_ratio=c, x=c * c, f=f)

    delta = math.sqrt(-disc)
    w = delta / 2 * tau
    bracket = math.cos(w) + math.sin(w) / delta
    scale = math.hypot(1.0, 1.0 / delta)
    if abs(bracket) <= _ZERO_BAND * scale:
        return MemorySample(tau=tau, c_ratio=0.0, x=0.0, f=math.inf, singular=True)
    c = math.exp(-tau / 2) * bracket
    f = (2 * R / delta) * math.sin(w) / bracket
    return MemorySample(tau=tau, c_ratio=c, x=c * c, f=f)


_MAX_ZEROS = 10**5     # the most poles one window lists


def thermal_zeros(R: float, t_max: float, t_min: float = 0.0) -> tuple[float, ...]:
    """Times in [t_min, t_max] (t_min >= 0) where c vanishes and f diverges.

    Zeros exist only for R > 1/2, at tau_k = (2/delta)(k pi - atan delta)
    with delta = sqrt(2R - 1), for k from (delta t_min/2 + atan delta)/pi
    to (delta t_max/2 + atan delta)/pi; k is counted from the window's
    start, and a window with more than ``_MAX_ZEROS`` of them raises
    ValueError.  Each zero has the same bits whatever window lists it.
    """
    if R <= 0.5:
        return ()
    delta = math.sqrt(2 * R - 1)
    k = _pole_numbers(R, delta, t_min, t_max)
    tau = (2.0 / delta) * (k * math.pi - math.atan(delta))
    return tuple(tau[(tau >= t_min) & (tau <= t_max)].tolist())


def _pole_numbers(R: float, delta: float, t_min: float, t_max: float) -> np.ndarray:
    """The k of the zeros tau_k of c on [t_min, t_max], as floats, with one
    k before the window and one past it, as their rounding may differ
    from tau's; more than ``_MAX_ZEROS`` zeros on the window raise
    ValueError."""
    first, last = ((delta * t / 2 + math.atan(delta)) / math.pi for t in (t_min, t_max))
    count = last - first // 1.0
    if not count <= _MAX_ZEROS:
        where = f"up to t = {t_max:g}" if t_min == 0 else f"on [{t_min:g}, {t_max:g}]"
        raise ValueError(f"R = {R:g} gives about {count:.3g} rate poles {where}, "
                         f"more than the {_MAX_ZEROS} that can be listed")
    return first // 1.0 + np.arange(math.floor(count) + 2)


def _negative_stretches(R: float, weight: float):
    """The stretches of a window where the rate weight * f (weight > 0) is
    below -tol, as a callable of (t0, t1, tol) that returns them as
    (start, end) pairs in order, cut to the window.

    With delta = sqrt(2R - 1) and phi = delta tau/2, f = (2R/delta)
    sin(phi)/B, B = cos(phi) + sin(phi)/delta, and sin(phi)/B has the
    derivative 1/B^2, so it rises on each interval between two zeros of
    c.  It is -inf just past the zero tau_k (``thermal_zeros``) and 0 at
    phi = k pi, so weight * f < -tol exactly on (tau_k, e_k), with
    e_k = (2/delta)(k pi - atan(delta tol/(tol + 2R weight))) > tau_k.
    For R <= 1/2, the degenerate band included, f >= 0 and no stretch
    exists.  A window with more than ``_MAX_ZEROS`` zeros raises
    ValueError.
    """
    if 1.0 - 2.0 * R >= -_DEGENERATE_BAND:
        return lambda t0, t1, tol: []
    delta = math.sqrt(2 * R - 1)

    def stretches(t0, t1, tol):
        k_pi = _pole_numbers(R, delta, t0, t1) * math.pi
        # the poles with thermal_zeros' bits
        start = (2.0 / delta) * (k_pi - math.atan(delta))
        end = (2.0 / delta) * (k_pi - math.atan(delta * tol / (tol + 2.0 * R * weight)))
        start, end = np.maximum(start, t0), np.minimum(end, t1)
        keep = start < end
        return list(zip(start[keep].tolist(), end[keep].tolist()))
    return stretches


def _memory_rate(R: float):
    """f = amplitude_memory(R, tau).f as a rate callable: for one float
    tau >= 0 bit for bit, or over an ndarray of times, with f = +inf at
    the zeros of c.  A negative time raises ValueError, in an array too.

    The branch and its constants are fixed once per R, and no
    MemorySample is built, so that the integrators' rate callbacks do
    only the type test, the sign test and the arithmetic of f, each
    product once.
    """
    disc = 1.0 - 2.0 * R
    if abs(disc) <= _DEGENERATE_BAND:
        def rate(tau):
            if (tau.min(initial=0.0) if type(tau) is np.ndarray else tau) < 0:
                raise ValueError("tau must be non-negative")
            h = tau / 2
            return h / (1.0 + h)
        return rate
    if disc > 0:
        d = math.sqrt(disc)
        scale = 2 * R / d

        def rate(tau):
            xp = np if type(tau) is np.ndarray else math
            if (tau.min(initial=0.0) if xp is np else tau) < 0:
                raise ValueError("tau must be non-negative")
            x = -d * tau
            em = -xp.expm1(x)
            return scale * em / (1 + xp.exp(x) + em / d)
        return rate
    delta = math.sqrt(-disc)
    half, scale = delta / 2, 2 * R / delta
    zero_band = _ZERO_BAND * math.hypot(1.0, 1.0 / delta)

    def rate(tau):
        xp = np if type(tau) is np.ndarray else math
        if (tau.min(initial=0.0) if xp is np else tau) < 0:
            raise ValueError("tau must be non-negative")
        w = half * tau
        sin_w = xp.sin(w)
        bracket = xp.cos(w) + sin_w / delta
        if xp is math:
            return math.inf if abs(bracket) <= zero_band else scale * sin_w / bracket
        return np.where(np.abs(bracket) <= zero_band, np.inf, scale * sin_w / bracket)
    return rate


# Taylor coefficients of c(tau) kept; where the series is used, the
# first neglected term is below 1e-20 of the sum
_SERIES_ORDER = 26


@functools.lru_cache(maxsize=64)
def _memory_series(R: float) -> tuple[tuple[float, ...], float]:
    """Taylor coefficients a_2 ... a_K of c(tau) - 1, highest first, and
    the largest tau at which ``_log_memory`` uses them.

    c solves c'' + c' + (R/2) c = 0 with c(0) = 1 and c'(0) = 0, so
    a_(n+2) = -[(n+1) a_(n+1) + (R/2) a_n] / ((n+1)(n+2)).  The roots of
    the characteristic polynomial have modulus at most max(1, sqrt(R/2)),
    so up to tau = 1/max(1, sqrt(R/2)) the terms fall like 1/n!.
    """
    a = [1.0, 0.0]
    for n in range(_SERIES_ORDER - 2):
        a.append(-((n + 1) * a[n + 1] + 0.5 * R * a[n]) / ((n + 1) * (n + 2)))
    return tuple(reversed(a[2:])), 1.0 / max(1.0, math.sqrt(0.5 * R))


def _log_memory(R: float, tau):
    """ln |c(tau)/c(0)| for a float or an ndarray of times, -inf at the zeros of c.

    The closed forms add terms of order tau into a sum of order R tau^2,
    which costs about 6 eps/tau of relative accuracy at small tau; there
    c - 1 comes from its Taylor series (``_memory_series``) and
    ln c = log1p(c - 1) is good to a few ulps.  Past that, the closed
    forms keep the cancellation-free parts in log1p:

        R < 1/2:  -k tau + log1p(k em / d),  k = (1 - d)/2 = R/(1 + d),
                  em = 1 - e^(-d tau)
        R = 1/2:  -tau/2 + log1p(tau/2)
        R > 1/2:  -tau/2 + ln |cos w + sin w / delta|,  w = delta tau/2
    """
    coeffs, series_reach = _memory_series(R)
    xp = _xp(tau)
    if xp is math and tau <= series_reach:
        acc = 0.0
        for a in coeffs:
            acc = acc * tau + a
        return math.log1p(tau * tau * acc)
    disc = 1.0 - 2.0 * R
    if abs(disc) <= _DEGENERATE_BAND:
        out = -tau / 2 + xp.log1p(tau / 2)
    elif disc > 0:
        d = math.sqrt(disc)
        k = R / (1.0 + d)   # (1 - d)/2 without the cancellation at small R
        out = -k * tau + xp.log1p(-xp.expm1(-d * tau) * k / d)
    else:
        delta = math.sqrt(-disc)
        bracket = xp.cos(delta * tau / 2) + xp.sin(delta * tau / 2) / delta
        zero = abs(bracket) <= _ZERO_BAND * math.hypot(1.0, 1.0 / delta)
        if xp is math:
            return -math.inf if zero else -tau / 2 + math.log(abs(bracket))
        with np.errstate(divide="ignore"):
            out = np.where(zero, -np.inf, -tau / 2 + np.log(np.abs(bracket)))
    if xp is np:
        small = tau <= series_reach
        x = tau[small]
        # one matrix product in place of a Horner loop of array operations
        powers = x[:, None] ** np.arange(len(coeffs))[::-1]
        out[small] = np.log1p(x * x * (powers @ coeffs))
    return out


def thermal_profile(p: ThermalParams, t_max: float | None = None) -> RateProfile:
    """Rate profile gamma1 = 2N f, gamma2 = 2(N+1) f, gamma3 = omega = 0.

    ``poles(t0, t1)`` lists the zeros of c on the window asked for
    (``thermal_zeros``); for R <= 1/2 c has no zeros.  Each of gamma1 and
    gamma2 evaluates f (``_memory_rate``), which refuses a negative time,
    and carries its exact negative stretches as
    ``negative_stretches(t0, t1, tol)`` (``_negative_stretches``), which
    the sign scan takes in place of sampling it; a rate that replaces,
    wraps or sums one of them carries none.
    ``t_max`` has no effect: ``perfbench/workloads.py`` (``_case``) still
    passes it by keyword, and it goes with the next change to the benchmark.
    """
    f = _memory_rate(p.R)

    def weighted(weight):
        def rate(t):
            return weight * f(t)
        rate.negative_stretches = _negative_stretches(p.R, weight)
        return rate

    return RateProfile(
        gamma1=_zero if p.N == 0 else weighted(2.0 * p.N),
        gamma2=weighted(2.0 * (p.N + 1.0)),
        poles=lambda t0, t1: thermal_zeros(p.R, t1, t0),
    )


def thermal_closed_form(p: ThermalParams, t: float) -> tuple[float, float]:
    """(Gamma, g) of the thermal model in closed form.

    Gamma = -(2N+1) ln x(t) = -2 (2N+1) ln |c(t)/c(0)|, reported as +inf
    where x = 0, and g = (N+1)/(2N+1) [1 - x^(2N+1)], computed as
    -(N+1)/(2N+1) expm1(-Gamma).  Valid for every R and t, also across
    the singularities of the rates, and accurate to a few ulps relative
    also as t -> 0 (see ``_log_memory``).  For an ndarray of times both
    are arrays over them.
    """
    xp = _backend(t)
    two_n1 = 2.0 * p.N + 1.0
    # + 0.0 normalizes the -0.0 produced by log1p(0) at t = 0
    gamma = -2.0 * two_n1 * _log_memory(p.R, t) + 0.0
    return gamma, -((p.N + 1.0) / two_n1) * xp.expm1(-gamma)


def _coth(x: float) -> float:
    # exact for all x > 0; expm1 keeps small arguments accurate and the
    # cutoff (coth - 1 ~ 2 exp(-2x) ~ 1e-304 there) avoids overflow
    if x > 350.0:
        return 1.0
    return 1.0 + 2.0 / math.expm1(2.0 * x)


def _thermal_factor(p: OhmicParams, w: float) -> float:
    if p.T == 0:
        return 1.0
    if p.kernel == "paper":
        return _coth(w / p.T)
    return _coth(w / (2.0 * p.T))


def _spectral(p: OhmicParams, w: float) -> float:
    return p.alpha * (w / p.omega_c) ** p.s * math.exp(-w / p.omega_c)


def _panels(p: OhmicParams):
    """[0, w_c], [w_c, 10 w_c] and [10 w_c, 50 w_c].

    Past 50 w_c the exp(-w/w_c) factor leaves less than 1e-13 of the
    integrand's peak for s <= 5.  The edges keep the spectral peak, near
    s w_c, in view of the adaptive rule at every t: a single interval
    [0, 10/t] hides it at t = 1e-3 (GammaTilde 2.97e-14 for 2.92e-8).
    """
    edges = (0.0, p.omega_c, 10.0 * p.omega_c, 50.0 * p.omega_c)
    return zip(edges[:-1], edges[1:])


def _spectral_amplitude(p: OhmicParams, power: float):
    """w -> 2 J(w) coth(...) / w^power, the non-oscillating factor."""
    def amplitude(w):
        if w <= 0.0:
            return 0.0
        return 2.0 * _spectral(p, w) * _thermal_factor(p, w) / w ** power
    return amplitude


def ohmic_rate(p: OhmicParams, t: float, cfg: QuadratureConfig | None = None) -> float:
    """Dephasing rate gamma3(t) by adaptive quadrature over frequency.

    A reference route: the program evaluates gamma3 with
    ``ohmic_closed_form`` at T = 0 and ``OhmicSeries`` at T > 0, and the
    tests check both against this quadrature.  Each panel of
    ``_panels`` is integrated with QUADPACK's sine weight (QAWO), which
    handles the sin(w t) factor at large t.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0.0:
        return 0.0
    cfg = cfg or QuadratureConfig()
    amplitude = _spectral_amplitude(p, 0.0 if p.kernel == "paper" else 1.0)
    return math.fsum(_quad(amplitude, a, b, cfg, weight="sin", wvar=t)
                     for a, b in _panels(p))


def ohmic_gamma_tilde(p: OhmicParams, t: float, cfg: QuadratureConfig | None = None) -> float:
    """GammaTilde(t) = int_0^t gamma3 as a single frequency integral.

    Swapping the time and frequency integrals turns the accumulated
    dephasing into

        paper:      2 int dw J coth(w/T)    [1 - cos(w t)] / w
        literature: 2 int dw J coth(w/(2T)) [1 - cos(w t)] / w^2

    whose integrands are pointwise nonnegative, which is why this model
    always has GammaTilde >= 0.  Like ``ohmic_rate``, a reference route
    for the closed form and the series.  A panel of ``_panels`` that
    starts a full period of cos(w t) or more past 0 is split into its
    plain part and a cosine-weighted (QAWO) part; the others are
    integrated as they stand.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0.0:
        return 0.0
    cfg = cfg or QuadratureConfig()
    power = 1.0 if p.kernel == "paper" else 2.0
    amplitude = _spectral_amplitude(p, power)

    def integrand(w):
        # 1 - cos(w t) written cancellation-free
        return amplitude(w) * 2.0 * math.sin(0.5 * w * t) ** 2

    parts = []
    for a, b in _panels(p):
        if a * t >= 2.0 * math.pi:
            parts += [_quad(amplitude, a, b, cfg),
                      -_quad(amplitude, a, b, cfg, weight="cos", wvar=t)]
        else:
            parts.append(_quad(integrand, a, b, cfg))
    return math.fsum(parts)


def _gamma(x: float) -> float:
    """Euler's gamma function G(x), +inf where it overflows and NaN at a pole.

    It overflows for x > 171.62 or 0 < x < 5.6e-309, and the pole x = -1
    is the literature nu = s - 1 for s < 1.1e-16.  As with scipy's gamma,
    the CLI then refuses the non-finite coefficients.
    """
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf
    except ValueError:
        return math.nan


def _cold_rate(p: OhmicParams):
    """gamma3 at T = 0 as a rate callable, for one float t >= 0 or an
    ndarray of times: P (1+u^2)^(-e/2) sin(e atan u) with u = w_c t.

    e = s + 1 and P = 2 a G(e) w_c for the paper kernel, e = s and
    P = 2 a G(e) for the literature kernel, multiplied in this order.
    """
    if p.kernel == "paper":
        e = p.s + 1.0
        scale = 2.0 * p.alpha * _gamma(e) * p.omega_c
    else:
        e = p.s
        scale = 2.0 * p.alpha * _gamma(e)
    power, w_c = -e / 2.0, p.omega_c

    def gamma3(t):
        if type(t) is np.ndarray:
            low, sin, atan = t.min(initial=0.0), np.sin, np.arctan
        else:
            low, sin, atan = t, math.sin, math.atan
        if low < 0:
            raise ValueError("t must be non-negative")
        u = w_c * t
        return scale * (1.0 + u * u) ** power * sin(e * atan(u))
    return gamma3


def ohmic_closed_form(p: OhmicParams, t: float) -> tuple[float, float]:
    """(gamma3, GammaTilde) at T = 0 in closed form.

    paper kernel:

        gamma3     = 2 a G(s+1) w_c (1+u^2)^(-(s+1)/2) sin((s+1) atan u)
        GammaTilde = (2 a G(s+1)/s) [1 - (1+u^2)^(-s/2) cos(s atan u)]

    literature kernel:

        gamma3     = 2 a G(s) (1+u^2)^(-s/2) sin(s atan u)
        GammaTilde = (2 a G(s-1)/w_c) [1 - (1+u^2)^(-(s-1)/2) cos((s-1) atan u)]

    with u = w_c t and the s -> 1 literature limit
    (a/w_c) ln(1 + u^2).  Each bracket 1 - A cos(e atan u), with
    A = (1+u^2)^(-e/2), is summed as (1 - A) + 2 A sin^2(e atan(u)/2),
    1 - A = -expm1(-(e/2) log1p(u^2)): two terms without cancellation,
    so that GammaTilde keeps its relative accuracy as u -> 0.  For an
    ndarray of times both are arrays over them.  Raises ValueError for
    T != 0.
    """
    if p.T != 0:
        raise ValueError("closed form is only valid at T = 0")
    rate = _cold_rate(p)(t)
    xp = _xp(t)
    u = p.omega_c * t
    theta = math.atan(u) if xp is math else np.arctan(u)
    log_u2 = xp.log1p(u * u)

    def bracket(e):
        # A - 1 once, whose rounding in A costs A at most an ulp of 1
        a_minus_1 = xp.expm1(-0.5 * e * log_u2)
        return -a_minus_1 + 2.0 * (1.0 + a_minus_1) * xp.sin(0.5 * e * theta) ** 2

    if p.kernel == "paper":
        return rate, (2.0 * p.alpha * _gamma(p.s + 1.0) / p.s) * bracket(p.s)
    nu = p.s - 1.0
    if abs(nu) < 1e-9:
        return rate, (p.alpha / p.omega_c) * log_u2
    return rate, (2.0 * p.alpha * _gamma(nu) / p.omega_c) * bracket(nu)


# Terms k < _SERIES_TERMS of the T > 0 series are summed directly, the
# rest by Euler-Maclaurin with B_2 ... B_12; b / |a_K - i t| <= 1/K
# keeps the neglected B_14 term near 1e-13 of the tail for s <= 5.
_SERIES_TERMS = 16
_B_MAX = 1e300
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _angles(a, t):
    """lr and th with log(1 - i t/a) = lr - i th, for t >= 0, as two new
    arrays over t's shape and a's, each computed in place."""
    t = np.asarray(t, dtype=float)
    if t.min(initial=0.0) < 0:
        raise ValueError("t must be non-negative")
    tau = t[..., None] / a
    lr = tau * tau
    np.log1p(lr, out=lr)
    lr *= 0.5
    return lr, np.arctan(tau, out=tau)


def _exprel(x: np.ndarray) -> np.ndarray:
    """(e^x - 1)/x elementwise, with its x = 0 limit 1."""
    return np.divide(np.expm1(x), x, out=np.ones_like(x), where=x != 0.0)


def _rising_factorials(e: float, n: int) -> np.ndarray:
    """(e)_1 ... (e)_n, with (e)_m = e (e+1) ... (e+m-1), as a running product."""
    return np.cumprod(e + np.arange(n))


def _flat_minus_re(x, lr, th):
    """[1 - Re exp(-x L)] / x for L = lr - i th, regular at x = 0."""
    return (lr * _exprel(-x * lr) * np.cos(x * th)
            + 0.5 * x * th * th * np.sinc(x * th / (2.0 * np.pi)) ** 2)


class OhmicSeries:
    """Exact gamma3 and GammaTilde of Ohmic dephasing at T > 0.

    Expanding coth(b w/2) = -1 + 2 sum_k exp(-k b w), with b = 1/T for
    the literature kernel and 2/T for the paper kernel, turns each
    frequency integral into Laplace transforms at a_k = 1/w_c + k b:

        gamma3     = P G(e)   sum_k c_k Im (a_k - i t)^(-e)
        GammaTilde = P G(e-1) sum_k c_k [a_k^(1-e) - Re (a_k - i t)^(1-e)]

    with P = 2 alpha w_c^(-s), c_0 = 1, c_k = 2 and e = s (literature)
    or s + 1 (paper).  The k = 0 term is the T = 0 closed form.  Terms
    k >= K = 16 are summed by Euler-Maclaurin at a_K; the integral of
    the tail is again a power of (a_K - i t).  With log(1 - i t/a) =
    lr - i th, lr = log1p(tau^2)/2, th = atan(tau), tau = t/a, every
    removable singularity (e = 1, 2 in GammaTilde, e = 1 in the tail of
    gamma3) is carried by (e^x - 1)/x (``_exprel``) and ``sinc``,
    without a branch on s.

    Built once per parameter set; ``rate`` and ``gamma_tilde`` take a
    float (and return one) or an ndarray of times.
    """

    def __init__(self, p: OhmicParams):
        if not p.T > 0:
            raise ValueError("the series needs T > 0; use ohmic_closed_form at T = 0")
        # b is held at _B_MAX, where a_K is still finite, for T below about
        # 1e-300; there the series already gives its T = 0 limit
        b = min((2.0 if p.kernel == "paper" else 1.0) / p.T, _B_MAX)
        e = p.s + 1.0 if p.kernel == "paper" else p.s
        k = np.arange(_SERIES_TERMS)
        # numpy floats under errstate: parameters past the float range give
        # non-finite weights, which the callers refuse, not an OverflowError
        a_tail = np.float64(1.0 / p.omega_c + _SERIES_TERMS * b)
        with np.errstate(all="ignore"):
            m = 2 * np.arange(1, len(_BERNOULLI) + 1) - 1
            # Euler-Maclaurin adds -B_2j/(2j)! f^(m)(K), m = 2j - 1; for
            # f(k) = (a_k - i t)^-e, f^(m)(K) = -b^m (e)_m (a_K - i t)^-(e+m).
            # Every weight is taken in units of a_K, b^m a_K^-(e+m) as
            # (b/a_K)^m a_K^-e with b/a_K < 1/K, so none overflows as T -> 0
            em = (np.array(_BERNOULLI) * (b / a_tail) ** m
                  * _rising_factorials(e, m[-1])[m - 1]
                  / np.array([math.factorial(n + 1) for n in m]))
            # terms (a, exponent, weight): direct sum, f(K)/2, derivatives
            a = np.concatenate([1.0 / p.omega_c + b * k, np.full(1 + len(m), a_tail)])
            c = np.concatenate([np.where(k == 0, 1.0, 2.0), [1.0], 2.0 * em])
            x = np.concatenate([np.full(_SERIES_TERMS + 1, e), e + m])
            # gamma3 takes log1p and atan once per distinct a: the terms of
            # exponent e on a_0 ... a_K, then the derivatives on a_K's column
            w = c * a ** -e
            n = _SERIES_TERMS + 1
            self._e, self._rate_a, self._rate_w = e, a[:n], w[:n]
            self._deriv = (x[n:], w[n:])
            # GammaTilde adds the tail integral's two _exprel/sinc parts at a_K,
            # with weights (2/b) a_K^(2-e) and -(2 a_K/b) a_K^(1-e)
            a = np.append(a, [a_tail, a_tail])
            x = np.append(x - 1.0, [e - 2.0, e - 1.0])
            c = np.append(c, [2.0 * a_tail / b, -2.0 * a_tail / b])
            self._tilde_terms = (a, x, c * a ** (1.0 - e))
            self._e1 = e - 1.0
            self._tail = 2.0 / b * a_tail ** (1.0 - e)
            # G(e-1) [..] = G(e) [..] / (e-1): the same scale for both
            self._scale = 2.0 * p.alpha * np.float64(p.omega_c) ** -p.s * _gamma(e)

    def _finish(self, direct, tail, lr, th):
        # adds tail * Im (a_K - i t)^(1-e) / ((e-1) a_K^(1-e)), regular at
        # e = 1, from lr and th on a_K's column
        tail = tail * np.exp(-self._e1 * lr) * th * np.sinc(self._e1 * th / np.pi)
        out = self._scale * (direct + tail[..., 0]) + 0.0
        return float(out) if out.ndim == 0 else out

    def rate(self, t):
        """gamma3(t).

        log1p and atan are taken once per Laplace point a_0 ... a_K (17
        columns); the Euler-Maclaurin derivative terms reuse a_K's.  A
        float and an array take the same operations, so they give the
        same values.
        """
        e, (x, w) = self._e, self._deriv
        lr, th = _angles(self._rate_a, t)
        lr_k, th_k = lr[..., -1:].copy(), th[..., -1:].copy()
        deriv, phase = -x * lr_k, x * th_k
        np.exp(deriv, out=deriv)
        deriv *= w
        deriv *= np.sin(phase, out=phase)
        # w exp(-e lr) sin(e th), in place: on a grid, each new array of
        # the terms' size costs about a fifth of their sin
        lr *= -e
        terms = np.exp(lr, out=lr)
        terms *= self._rate_w
        th *= e
        terms *= np.sin(th, out=th)
        direct = np.add.reduce(terms, axis=-1) + np.add.reduce(deriv, axis=-1)
        return self._finish(direct, self._tail, lr_k, th_k)

    def gamma_tilde(self, t):
        """GammaTilde(t) = int_0^t gamma3."""
        a, x, w = self._tilde_terms
        lr, th = _angles(a, t)
        direct = np.add.reduce(w * _flat_minus_re(x, lr, th), axis=-1)
        # the tail integral D(e-2) / ((e-1)(e-2)), D(y) = a_K^-y - Re
        # (a_K - i t)^-y, split by partial fractions into the last two
        # terms above and this one, each regular at e = 1 and e = 2
        t = np.asarray(t, dtype=float)[..., None]
        k = slice(_SERIES_TERMS, _SERIES_TERMS + 1)
        return self._finish(direct, self._tail * t, lr[..., k], th[..., k])


def _ohmic_rates(p: OhmicParams):
    """gamma3 and GammaTilde of p as callables of t: the closed form at
    T = 0, which each GammaTilde call looks up on this module, and at
    T > 0 the methods of one ``OhmicSeries``."""
    if p.T == 0:
        return _cold_rate(p), lambda t: ohmic_closed_form(p, t)[1]
    series = OhmicSeries(p)
    return series.rate, series.gamma_tilde


def ohmic_profile(p: OhmicParams) -> RateProfile:
    """Pure-dephasing rate profile for the Ohmic model.

    gamma3 comes from the closed form at T = 0 and from the exact
    series (``OhmicSeries``) otherwise; gamma1, gamma2 and omega vanish.
    """
    return RateProfile(gamma3=_ohmic_rates(p)[0])


def markov_rate_limit(R: float) -> float:
    """Long-time limit of the zero-T dissipation rate, 2 (1 - sqrt(1-2R)).

    Only exists for 0 < R < 1/2; for R >= 1/2 the rate keeps oscillating
    between singularities and has no stationary positive limit.
    """
    if not 0 < R < 0.5:
        raise ValueError("requires 0 < R < 1/2")
    return 2.0 * (1.0 - math.sqrt(1.0 - 2.0 * R))
