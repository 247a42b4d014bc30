"""Time-integrated coefficients of a phase-covariant qubit generator.

A generator is described by four time-dependent functions: the heating
rate gamma1(t), the dissipation rate gamma2(t), the pure-dephasing rate
gamma3(t) and the frequency shift omega(t).  The closed-form solution of
the corresponding master equation only ever consumes four accumulated
quantities,

    Gamma(t)      = int_0^t [gamma1 + gamma2]/2 dt'
    GammaTilde(t) = int_0^t gamma3 dt'
    Omega(t)      = int_0^t omega dt'
    g(t)          = exp(-Gamma(t)) * int_0^t exp(Gamma(t')) gamma2(t')/2 dt'

g is the ground-state population grown from P1(0) = 0.  It is never
evaluated through the exp(+Gamma) integral above, which overflows as soon
as Gamma is a few hundred; instead it solves the equivalent linear ODE

    dg/dt = gamma2/2 - [(gamma1 + gamma2)/2] g,   g(0) = 0,

which is unconditionally stable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad, solve_ivp

__all__ = [
    "RateProfile",
    "CoefficientSet",
    "QuadratureConfig",
    "ToleranceError",
    "constant_profile",
    "combine_profiles",
    "integrate_profile",
    "segment_coefficients",
    "markovian_coefficients",
    "weak_coupling_integrals",
]


class ToleranceError(RuntimeError):
    """Quadrature or ODE error control failed on some interval.

    Attributes
    ----------
    interval : tuple of float
        Worst offending (sub)interval.
    abserr : float or None
        Estimated absolute error on that interval, when available.
    """

    def __init__(self, message, interval, abserr=None):
        super().__init__(f"{message} on interval [{interval[0]:g}, {interval[1]:g}]")
        self.interval = interval
        self.abserr = abserr


def _zero(t: float) -> float:
    return 0.0


def _safe_eval(fn, t):
    """fn(t), with ArithmeticError or ValueError recorded as NaN."""
    try:
        return fn(t)
    except (ArithmeticError, ValueError):
        return math.nan


def _rate_rows(t, gamma1=0.0, gamma2=0.0, gamma3=0.0, omega=0.0) -> np.ndarray:
    """Stack four rates, arrays on the grid t or constants, as (4, len(t))."""
    rows = np.zeros((4, len(t)))
    rows[0], rows[1], rows[2], rows[3] = gamma1, gamma2, gamma3, omega
    return rows


@dataclass(frozen=True)
class RateProfile:
    """The four time functions defining a phase-covariant generator.

    Each callable must accept a single time t >= 0 and return a float.
    Evaluation has to be deterministic.  ``singular_points`` lists times
    where a rate may diverge (isolated, integrable singularities); they
    are used as mandatory quadrature panel boundaries and are excluded
    from pointwise scans.  The list is complete up to
    ``singular_reach``: integrators and scans refuse a window that ends
    beyond it.

    ``grid_rates``, when set, maps a 1-D ndarray of times to the
    (4, n) float array of (gamma1, gamma2, gamma3, omega) on them.  It
    must return the values the four callables return, non-finite where
    they diverge; grid consumers call it once through :meth:`rates_on`
    instead of calling each rate at each point.
    """

    gamma1: Callable[[float], float] = _zero
    gamma2: Callable[[float], float] = _zero
    gamma3: Callable[[float], float] = _zero
    omega: Callable[[float], float] = _zero
    singular_points: tuple[float, ...] = ()
    singular_reach: float = math.inf
    grid_rates: Callable[[np.ndarray], np.ndarray] | None = None

    def rates(self, t: float) -> tuple[float, float, float, float]:
        """Evaluate (gamma1, gamma2, gamma3, omega) at time t."""
        return (self.gamma1(t), self.gamma2(t), self.gamma3(t), self.omega(t))

    def rates_on(self, times) -> np.ndarray:
        """(gamma1, gamma2, gamma3, omega) on a grid, shape (4, len(times)).

        One ``grid_rates`` call when it is set; otherwise each callable
        at each time, with ArithmeticError or ValueError recorded as NaN.
        """
        t = np.asarray(times, dtype=float)
        if self.grid_rates is not None:
            return np.asarray(self.grid_rates(t), dtype=float)
        fns = (self.gamma1, self.gamma2, self.gamma3, self.omega)
        return np.array([[_safe_eval(fn, x) for x in t] for fn in fns], dtype=float)

    def check_reach(self, t_end: float) -> None:
        """Raise ValueError if t_end lies beyond the singular-point list."""
        if t_end > self.singular_reach:
            raise ValueError(
                f"the profile lists its singular points only up to "
                f"t = {self.singular_reach:g}, so a window to t = {t_end:g} may "
                "cross unlisted ones; build it with a larger t_max")


def constant_profile(gamma1=0.0, gamma2=0.0, gamma3=0.0, omega=0.0) -> RateProfile:
    """Profile with constant rates (the GKSL / Markovian generator)."""
    return RateProfile(
        gamma1=lambda t, _v=float(gamma1): _v,
        gamma2=lambda t, _v=float(gamma2): _v,
        gamma3=lambda t, _v=float(gamma3): _v,
        omega=lambda t, _v=float(omega): _v,
        grid_rates=lambda t: _rate_rows(t, gamma1, gamma2, gamma3, omega),
    )


def combine_profiles(*profiles: RateProfile) -> RateProfile:
    """Sum the rates of independent environments into one profile."""
    if not profiles:
        raise ValueError("need at least one profile")

    def _sum(getter):
        funcs = [getter(p) for p in profiles]
        return lambda t: math.fsum(f(t) for f in funcs)

    grids = [p.grid_rates for p in profiles]
    sing = sorted({s for p in profiles for s in p.singular_points})
    return RateProfile(
        gamma1=_sum(lambda p: p.gamma1),
        gamma2=_sum(lambda p: p.gamma2),
        gamma3=_sum(lambda p: p.gamma3),
        omega=_sum(lambda p: p.omega),
        singular_points=tuple(sing),
        singular_reach=min(p.singular_reach for p in profiles),
        grid_rates=(None if None in grids
                    else lambda t: sum(grid(t) for grid in grids)),
    )


@dataclass(frozen=True)
class QuadratureConfig:
    """Error control for the accumulation of coefficients."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be strictly positive")
        if self.max_subdivisions < 10:
            raise ValueError("max_subdivisions must be at least 10")


@dataclass(frozen=True)
class CoefficientSet:
    """Accumulated generator coefficients at one time point.

    ``Gamma`` may be +inf (total loss of the population memory, x = 0 in
    the thermal model); all consumers go through exp(-Gamma) which is
    then exactly 0.
    """

    t: float
    Gamma: float
    GammaTilde: float
    Omega: float
    g: float

    @property
    def decay(self) -> float:
        """exp(-Gamma), the population memory factor."""
        return math.exp(-self.Gamma)

    @property
    def attenuation(self) -> float:
        """exp(-Gamma/2 - GammaTilde), the coherence damping factor."""
        return math.exp(-0.5 * self.Gamma - self.GammaTilde)

    @property
    def kappa(self) -> complex:
        """Coherence multiplier exp(i Omega - Gamma/2 - GammaTilde)."""
        a = self.attenuation
        return complex(a * math.cos(self.Omega), a * math.sin(self.Omega))

    @classmethod
    def identity(cls, t: float = 0.0) -> "CoefficientSet":
        return cls(t=t, Gamma=0.0, GammaTilde=0.0, Omega=0.0, g=0.0)


def _quad(func, a, b, cfg, points=None, **weight):
    """scipy adaptive Gauss-Kronrod wrapper that converts failures.

    ``points`` are interior singular locations; QUADPACK then never
    samples them and extrapolates through the integrable divergence.
    ``weight`` passes QUADPACK's ``weight`` and ``wvar`` through, for
    oscillatory integrands.
    """
    kwargs = dict(
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=cfg.max_subdivisions,
        full_output=1,
        **weight,
    )
    if points:
        kwargs["points"] = list(points)
    out = quad(func, a, b, **kwargs)
    value, abserr, info = out[0], out[1], out[2]
    if len(out) > 3 or not math.isfinite(value):
        last = info.get("last", 1)
        alist = info.get("alist", np.array([a]))
        blist = info.get("blist", np.array([b]))
        elist = info.get("elist", np.array([abserr]))
        worst = int(np.argmax(elist[:last])) if last else 0
        raise ToleranceError(
            "quadrature did not converge",
            (float(alist[worst]), float(blist[worst])),
            abserr=float(elist[worst]) if last else abserr,
        )
    return value


def _interior_points(sing, a, b):
    pts = [s for s in sing if a < s < b]
    return pts or None


def _advance_g(profile, a, b, g0, cfg):
    """Propagate dg/dt = gamma2/2 - [(gamma1+gamma2)/2] g from a to b."""

    def rhs(t, y):
        g1 = profile.gamma1(t)
        g2 = profile.gamma2(t)
        return [0.5 * g2 - 0.5 * (g1 + g2) * y[0]]

    g = g0
    cuts = [a] + (_interior_points(profile.singular_points, a, b) or []) + [b]
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        sol = solve_ivp(
            rhs,
            (lo, hi),
            [g],
            method="DOP853",
            rtol=max(cfg.rel_tol * 1e-2, 1e-13),
            atol=max(cfg.abs_tol * 1e-2, 1e-15),
        )
        if not sol.success:
            raise ToleranceError("population ODE failed", (lo, hi))
        g = float(sol.y[0, -1])
    return g


def _validate_times(times):
    ts = [float(t) for t in times]
    if not ts:
        raise ValueError("times must be non-empty")
    if ts[0] < 0 or not all(math.isfinite(t) for t in ts):
        raise ValueError("times must be finite and non-negative")
    if any(b <= a for a, b in zip(ts[:-1], ts[1:])):
        raise ValueError("times must be strictly increasing")
    return ts


def integrate_profile(
    profile: RateProfile,
    times: Sequence[float],
    cfg: QuadratureConfig | None = None,
) -> list[CoefficientSet]:
    """Accumulate (Gamma, GammaTilde, Omega, g) along a sorted time grid.

    Each requested time reuses the integrals accumulated up to the
    previous one, so a dense grid costs one pass.  Raises ValueError for
    a non-monotone grid or one that ends beyond the profile's
    ``singular_reach``, and :class:`ToleranceError` when the error
    control cannot be met (for example across a non-integrable rate
    divergence).
    """
    cfg = cfg or QuadratureConfig()
    ts = _validate_times(times)
    profile.check_reach(ts[-1])
    sing = sorted(profile.singular_points)

    out = []
    prev = 0.0
    gamma = tilde = omega = 0.0
    g = 0.0
    half_sum = lambda s: 0.5 * (profile.gamma1(s) + profile.gamma2(s))
    for t in ts:
        if t > prev:
            pts = _interior_points(sing, prev, t)
            gamma += _quad(half_sum, prev, t, cfg, pts)
            tilde += _quad(profile.gamma3, prev, t, cfg, pts)
            omega += _quad(profile.omega, prev, t, cfg, pts)
            g = _advance_g(profile, prev, t, g, cfg)
            prev = t
        out.append(CoefficientSet(t=t, Gamma=gamma, GammaTilde=tilde, Omega=omega, g=g))
    return out


def segment_coefficients(
    profile: RateProfile,
    t_start: float,
    t_end: float,
    cfg: QuadratureConfig | None = None,
) -> CoefficientSet:
    """Coefficients of the propagator from t_start to t_end.

    The time-local structure makes the intermediate map look exactly
    like a map from 0, with all integrals taken over [t_start, t_end]
    and g restarted from 0.  The returned ``t`` is t_end.
    """
    if t_end < t_start or t_start < 0:
        raise ValueError("need 0 <= t_start <= t_end")
    profile.check_reach(t_end)
    cfg = cfg or QuadratureConfig()
    if t_end == t_start:
        return CoefficientSet.identity(t_end)
    pts = _interior_points(sorted(profile.singular_points), t_start, t_end)
    gamma = _quad(lambda s: 0.5 * (profile.gamma1(s) + profile.gamma2(s)),
                  t_start, t_end, cfg, pts)
    tilde = _quad(profile.gamma3, t_start, t_end, cfg, pts)
    omega = _quad(profile.omega, t_start, t_end, cfg, pts)
    g = _advance_g(profile, t_start, t_end, 0.0, cfg)
    return CoefficientSet(t=t_end, Gamma=gamma, GammaTilde=tilde, Omega=omega, g=g)


def markovian_coefficients(
    gamma1: float, gamma2: float, gamma3: float, omega: float, t: float
) -> CoefficientSet:
    """Coefficients of the constant-rate (GKSL) generator at time t.

    Gamma = (gamma1+gamma2) t / 2, GammaTilde = gamma3 t, Omega = omega t
    and g = [gamma2/(gamma1+gamma2)] (1 - exp(-(gamma1+gamma2) t/2)).
    The gamma1 + gamma2 = 0 case is the removable limit g = gamma2 t / 2.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    if gamma1 + gamma2 < 0:
        raise ValueError("gamma1 + gamma2 must be non-negative")
    a = 0.5 * (gamma1 + gamma2)
    at = a * t
    if at == 0.0:
        g = 0.5 * gamma2 * t
    else:
        g = (gamma2 / (gamma1 + gamma2)) * (-math.expm1(-at))
    return CoefficientSet(t=t, Gamma=at, GammaTilde=gamma3 * t, Omega=omega * t, g=g)


def weak_coupling_integrals(
    profile: RateProfile, t: float, cfg: QuadratureConfig | None = None
) -> tuple[float, float, float]:
    """(int_0^t gamma1, int_0^t gamma2, int_0^t gamma3).

    These are the quantities whose signs decide the weak-coupling
    complete-positivity conditions.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    profile.check_reach(t)
    cfg = cfg or QuadratureConfig()
    if t == 0:
        return (0.0, 0.0, 0.0)
    pts = _interior_points(sorted(profile.singular_points), 0.0, t)
    i1 = _quad(profile.gamma1, 0.0, t, cfg, pts)
    i2 = _quad(profile.gamma2, 0.0, t, cfg, pts)
    i3 = _quad(profile.gamma3, 0.0, t, cfg, pts)
    return (i1, i2, i3)
