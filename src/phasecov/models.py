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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import exprel, poch
from scipy.special import gamma as _gamma_fn

from .coeffs import (CoefficientSet, QuadratureConfig, RateProfile, _backend,
                     _quad, _rate_rows, _zero)

__all__ = [
    "ThermalParams",
    "OhmicParams",
    "MemorySample",
    "amplitude_memory",
    "thermal_zeros",
    "thermal_profile",
    "thermal_closed_form",
    "thermal_coefficients",
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
        if not self.R > 0:
            raise ValueError("R must be strictly positive")
        if self.N < 0:
            raise ValueError("N must be non-negative")


@dataclass(frozen=True)
class OhmicParams:
    """Ohmic-class dephasing parameters (units hbar = k_B = 1)."""

    alpha: float
    s: float
    omega_c: float = 1.0
    T: float = 0.0
    kernel: str = "literature"

    def __post_init__(self):
        if not (self.alpha > 0 and self.s > 0 and self.omega_c > 0):
            raise ValueError("alpha, s and omega_c must be strictly positive")
        if self.T < 0:
            raise ValueError("T must be non-negative")
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
    w = delta * tau / 2
    bracket = math.cos(w) + math.sin(w) / delta
    scale = math.hypot(1.0, 1.0 / delta)
    if abs(bracket) <= _ZERO_BAND * scale:
        return MemorySample(tau=tau, c_ratio=0.0, x=0.0, f=math.inf, singular=True)
    c = math.exp(-tau / 2) * bracket
    f = (2 * R / delta) * math.sin(w) / bracket
    return MemorySample(tau=tau, c_ratio=c, x=c * c, f=f)


def thermal_zeros(R: float, t_max: float) -> tuple[float, ...]:
    """Times in (0, t_max] where c vanishes and f diverges.

    Zeros exist only for R > 1/2, at tau_k = (2/delta)(k pi - atan delta)
    with delta = sqrt(2R - 1).
    """
    if R <= 0.5:
        return ()
    delta = math.sqrt(2 * R - 1)
    zeros = []
    k = 1
    while True:
        tau = (2.0 / delta) * (k * math.pi - math.atan(delta))
        if tau > t_max:
            break
        zeros.append(tau)
        k += 1
    return tuple(zeros)


def _memory_rate_on(R: float, tau: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """amplitude_memory(R, tau).x and .f on an ndarray of times.

    The same branch, picked once for the whole grid, and the same
    formulas as the scalar function, with x = 0 and f = +inf at the
    zeros of c.
    """
    disc = 1.0 - 2.0 * R
    if abs(disc) <= _DEGENERATE_BAND:
        c = np.exp(-tau / 2) * (1.0 + tau / 2)
        return c * c, (tau / 2) / (1.0 + tau / 2)
    if disc > 0:
        d = math.sqrt(disc)
        em = -np.expm1(-d * tau)
        bracket = 1 + np.exp(-d * tau) + em / d
        c = 0.5 * np.exp(-(1 - d) * tau / 2) * bracket
        return c * c, (2 * R / d) * em / bracket
    delta = math.sqrt(-disc)
    w = delta * tau / 2
    bracket = np.cos(w) + np.sin(w) / delta
    zero = np.abs(bracket) <= _ZERO_BAND * math.hypot(1.0, 1.0 / delta)
    c = np.exp(-tau / 2) * bracket
    with np.errstate(divide="ignore", invalid="ignore"):
        f = (2 * R / delta) * np.sin(w) / bracket
    return np.where(zero, 0.0, c * c), np.where(zero, np.inf, f)


def thermal_profile(p: ThermalParams, t_max: float = 200.0) -> RateProfile:
    """Rate profile gamma1 = 2N f, gamma2 = 2(N+1) f, gamma3 = omega = 0.

    ``singular_points`` holds the zeros of c up to t_max, which is then
    the profile's ``singular_reach``; for R <= 1/2 c has no zeros, the
    list is empty and the reach unbounded.
    """

    def _f(t: float) -> float:
        return amplitude_memory(p.R, t).f

    def grid_rates(t):
        _, f = _memory_rate_on(p.R, t)
        # at N = 0, gamma1 is 0 also at the poles, where 0 * f is NaN
        return _rate_rows(t, 0.0 if p.N == 0 else 2.0 * p.N * f, 2.0 * (p.N + 1.0) * f)

    gamma1 = _zero if p.N == 0 else (lambda t: 2.0 * p.N * _f(t))
    return RateProfile(
        gamma1=gamma1,
        gamma2=lambda t: 2.0 * (p.N + 1.0) * _f(t),
        gamma3=_zero,
        omega=_zero,
        singular_points=thermal_zeros(p.R, t_max),
        singular_reach=math.inf if p.R <= 0.5 else t_max,
        grid_rates=grid_rates,
    )


def thermal_closed_form(p: ThermalParams, t: float) -> tuple[float, float]:
    """(Gamma, g) of the thermal model in closed form.

    Gamma = -(2N+1) ln x(t), reported as +inf where x = 0, and
    g = (N+1)/(2N+1) [1 - x^(2N+1)].  Valid for every R and t, also
    across the singularities of the rates.  For an ndarray of times both
    are arrays over them.
    """
    two_n1 = 2.0 * p.N + 1.0
    mu = (p.N + 1.0) / two_n1
    if isinstance(t, np.ndarray):
        _backend(t)
        x, _ = _memory_rate_on(p.R, t)
        with np.errstate(divide="ignore"):   # log(0) = -inf gives Gamma = +inf
            return -two_n1 * np.log(x) + 0.0, mu * (1.0 - x ** two_n1)
    m = amplitude_memory(p.R, t)
    if m.x <= 0.0:
        return math.inf, mu
    # + 0.0 normalizes the -0.0 produced by log(1) at t = 0
    return -two_n1 * math.log(m.x) + 0.0, mu * (1.0 - m.x ** two_n1)


def thermal_coefficients(p: ThermalParams, t: float) -> CoefficientSet:
    """Closed-form CoefficientSet of the purely thermal model."""
    gamma, g = thermal_closed_form(p, t)
    return CoefficientSet(t=t, Gamma=gamma, GammaTilde=0.0, Omega=0.0, g=g)


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


def ohmic_closed_form(p: OhmicParams, t: float) -> tuple[float, float]:
    """(gamma3, GammaTilde) at T = 0 in closed form.

    paper kernel:

        gamma3     = 2 a G(s+1) w_c (1+u^2)^(-(s+1)/2) sin((s+1) atan u)
        GammaTilde = (2 a G(s+1)/s) [1 - (1+u^2)^(-s/2) cos(s atan u)]

    literature kernel:

        gamma3     = 2 a G(s) (1+u^2)^(-s/2) sin(s atan u)
        GammaTilde = (2 a G(s-1)/w_c) [1 - (1+u^2)^(-(s-1)/2) cos((s-1) atan u)]

    with u = w_c t and the s -> 1 literature limit
    (a/w_c) ln(1 + u^2).  For an ndarray of times both are arrays over
    them.  Raises ValueError for T != 0.
    """
    if p.T != 0:
        raise ValueError("closed form is only valid at T = 0")
    xp = _backend(t)
    u = p.omega_c * t
    theta = math.atan(u) if xp is math else np.arctan(u)
    one_u2 = 1.0 + u * u

    if p.kernel == "paper":
        gs1 = _gamma_fn(p.s + 1.0)
        rate = (2.0 * p.alpha * gs1 * p.omega_c
                * one_u2 ** (-(p.s + 1.0) / 2.0) * xp.sin((p.s + 1.0) * theta))
        tilde = (2.0 * p.alpha * gs1 / p.s) * (
            1.0 - one_u2 ** (-p.s / 2.0) * xp.cos(p.s * theta))
        return rate, tilde

    gs = _gamma_fn(p.s)
    rate = 2.0 * p.alpha * gs * one_u2 ** (-p.s / 2.0) * xp.sin(p.s * theta)
    nu = p.s - 1.0
    if abs(nu) < 1e-9:
        tilde = (p.alpha / p.omega_c) * xp.log(one_u2)
    else:
        tilde = (2.0 * p.alpha * _gamma_fn(nu) / p.omega_c) * (
            1.0 - one_u2 ** (-nu / 2.0) * xp.cos(nu * theta))
    return rate, tilde


# Terms k < _SERIES_TERMS of the T > 0 series are summed directly, the
# rest by Euler-Maclaurin with B_2 ... B_12; b / |a_K - i t| <= 1/K
# keeps the neglected B_14 term near 1e-13 of the tail for s <= 5.
_SERIES_TERMS = 16
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _angles(a, t):
    """lr and th with log(1 - i t/a) = lr - i th, for t >= 0."""
    t = np.asarray(t, dtype=float)
    if t.min(initial=0.0) < 0:
        raise ValueError("t must be non-negative")
    tau = t[..., None] / a
    return 0.5 * np.log1p(tau * tau), np.arctan(tau)


def _flat_minus_re(x, lr, th):
    """[1 - Re exp(-x L)] / x for L = lr - i th, regular at x = 0."""
    return (lr * exprel(-x * lr) * np.cos(x * th)
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
    gamma3) is carried by ``exprel`` and ``sinc``, without a branch on s.

    Built once per parameter set; ``rate`` and ``gamma_tilde`` take a
    float (and return one) or an ndarray of times.
    """

    def __init__(self, p: OhmicParams):
        if not p.T > 0:
            raise ValueError("the series needs T > 0; use ohmic_closed_form at T = 0")
        b = (2.0 if p.kernel == "paper" else 1.0) / p.T
        e = p.s + 1.0 if p.kernel == "paper" else p.s
        k = np.arange(_SERIES_TERMS)
        a_tail = 1.0 / p.omega_c + _SERIES_TERMS * b
        m = 2 * np.arange(1, len(_BERNOULLI) + 1) - 1
        # Euler-Maclaurin adds -B_2j/(2j)! f^(m)(K), m = 2j - 1; for
        # f(k) = (a_k - i t)^-e, f^(m)(K) = -b^m (e)_m (a_K - i t)^-(e+m)
        em = (np.array(_BERNOULLI) * b ** m * poch(e, m)
              / np.array([math.factorial(n + 1) for n in m]))
        # terms (a, exponent, weight): direct sum, f(K)/2, derivatives
        a = np.concatenate([1.0 / p.omega_c + b * k, np.full(1 + len(m), a_tail)])
        c = np.concatenate([np.where(k == 0, 1.0, 2.0), [1.0], 2.0 * em])
        x = np.concatenate([np.full(_SERIES_TERMS + 1, e), e + m])
        self._rate_terms = (a, x, c * a ** -x)
        # GammaTilde adds the tail integral's two exprel/sinc parts at a_K
        a = np.append(a, [a_tail, a_tail])
        x = np.append(x - 1.0, [e - 2.0, e - 1.0])
        c = np.append(c, [2.0 / b, -2.0 * a_tail / b])
        self._tilde_terms = (a, x, c * a ** -x)
        self._e1 = e - 1.0
        self._tail = 2.0 / b * a_tail ** (1.0 - e)
        # G(e-1) [..] = G(e) [..] / (e-1): the same scale for both
        self._scale = 2.0 * p.alpha * p.omega_c ** -p.s * _gamma_fn(e)

    def _finish(self, direct, tail, lr, th):
        # adds tail * Im (a_K - i t)^(1-e) / ((e-1) a_K^(1-e)), regular at e = 1
        k = slice(_SERIES_TERMS, _SERIES_TERMS + 1)
        lr, th = lr[..., k], th[..., k]
        tail = tail * np.exp(-self._e1 * lr) * th * np.sinc(self._e1 * th / np.pi)
        out = self._scale * (direct + tail[..., 0]) + 0.0
        return float(out) if out.ndim == 0 else out

    def rate(self, t):
        """gamma3(t)."""
        a, x, w = self._rate_terms
        lr, th = _angles(a, t)
        direct = np.add.reduce(w * np.exp(-x * lr) * np.sin(x * th), axis=-1)
        return self._finish(direct, self._tail, lr, th)

    def gamma_tilde(self, t):
        """GammaTilde(t) = int_0^t gamma3."""
        a, x, w = self._tilde_terms
        lr, th = _angles(a, t)
        direct = np.add.reduce(w * _flat_minus_re(x, lr, th), axis=-1)
        # the tail integral D(e-2) / ((e-1)(e-2)), D(y) = a_K^-y - Re
        # (a_K - i t)^-y, split by partial fractions into the last two
        # terms above and this one, each regular at e = 1 and e = 2
        t = np.asarray(t, dtype=float)[..., None]
        return self._finish(direct, self._tail * t, lr, th)


def ohmic_profile(p: OhmicParams) -> RateProfile:
    """Pure-dephasing rate profile for the Ohmic model.

    gamma3 comes from the closed form at T = 0 and from the exact
    series (``OhmicSeries``) otherwise; gamma1, gamma2 and omega vanish.
    """
    if p.T == 0:
        gamma3 = lambda t: ohmic_closed_form(p, t)[0]
    else:
        gamma3 = OhmicSeries(p).rate
    return RateProfile(gamma3=gamma3,
                       grid_rates=lambda t: _rate_rows(t, gamma3=gamma3(t)))


def markov_rate_limit(R: float) -> float:
    """Long-time limit of the zero-T dissipation rate, 2 (1 - sqrt(1-2R)).

    Only exists for 0 < R < 1/2; for R >= 1/2 the rate keeps oscillating
    between singularities and has no stationary positive limit.
    """
    if not 0 < R < 0.5:
        raise ValueError("requires 0 < R < 1/2")
    return 2.0 * (1.0 - math.sqrt(1.0 - 2.0 * R))
