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
as Gamma is a few hundred; it is the solution of the equivalent linear ODE

    dg/dt = gamma2/2 - [(gamma1 + gamma2)/2] g,   g(0) = 0,

which is unconditionally stable, taken from grid time to grid time by
variation of constants:

    g(hi) = exp(-[Gamma(hi) - Gamma(lo)]) g(lo) + int_lo^hi exp(-D(s)) gamma2(s)/2 ds,
    D(s) = int_s^hi (gamma1 + gamma2)/2.

Each rate is one callable, which takes a single time or an ndarray of
times (see ``RateProfile``).  ``integrate_profile`` accumulates all four
coefficients by adaptive Gauss-Kronrod quadrature of the whole grid at
once: QUADPACK's 21-point rule on panels, every rate on every node of a
level from one ``rates_on`` call, and QUADPACK's error estimates summed
per grid interval and held to the tolerances.  Level 0 is one panel per grid
interval, cut at each listed singular point; in an interval that misses,
the worst panels are halved, all the halves of a level evaluated
together.  The integral in g's step comes from the same nodes, with D at each node from a 21-point
interpolatory integration matrix, and is held to a hundredth of the
tolerances.  No quadrature routine or ODE solver is called, and a smooth
grid stays at level 0.

Rates that are linear between table nodes have coefficients in closed
form up to one smooth integral per piece, which
``piecewise_linear_coefficients`` evaluates without any quadrature
routine or ODE solver.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "RateProfile",
    "CoefficientSet",
    "QuadratureConfig",
    "ToleranceError",
    "constant_profile",
    "combine_profiles",
    "integrate_profile",
    "markovian_coefficients",
    "piecewise_linear_coefficients",
]


class ToleranceError(RuntimeError):
    """Quadrature error control failed, or g left the float range, on
    some interval.

    Attributes
    ----------
    interval : tuple of float
        Worst offending (sub)interval.
    abserr : float or None
        Estimated absolute error on that interval, when available.
    """

    def __init__(self, message, interval, abserr=None):
        # six significant digits, or as many more as tell the two ends apart
        a, b = interval
        digits = next((d for d in range(6, 17) if f"{a:.{d}g}" != f"{b:.{d}g}"), 17)
        super().__init__(f"{message} on interval [{a:.{digits}g}, {b:.{digits}g}]")
        self.interval = interval
        self.abserr = abserr


def _zero(t: float) -> float:
    return 0.0


def _xp(x):
    """numpy for an ndarray, the math module for a single number.

    Scalar callers, the integrators' rate callbacks among them, stay on
    math, which is several times faster per call than numpy.
    """
    return np if isinstance(x, np.ndarray) else math


def _backend(t):
    """``_xp(t)`` after checking that the time or times t are non-negative."""
    xp = _xp(t)
    if (t.min(initial=0.0) if xp is np else t) < 0:
        raise ValueError("t must be non-negative")
    return xp


def _check_tol(tol):
    """Raise ValueError unless the verdict tolerance satisfies 0 < tol < inf."""
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class RateProfile:
    """The four time functions defining a phase-covariant generator.

    Each callable takes either one time t >= 0, and returns a float, or
    a 1-D ndarray of times, and returns their values as an array (or one
    float, for a rate that is constant).  Where a rate diverges its value
    is non-finite.  Evaluation has to be deterministic.  The integrators'
    callbacks pass single times; grid consumers pass the whole grid at
    once through :meth:`rates_on`.

    ``singular_points`` lists times where a rate may diverge; they are
    used as mandatory quadrature panel boundaries and are excluded from
    pointwise scans.  The list is complete up to ``singular_reach``:
    integrators and scans refuse a window that ends beyond it.

    No divergence can be integrated across, nor up to.  The poles of the
    thermal rate f are simple poles, so ``integrate_profile`` raises
    :class:`ToleranceError` on a window that contains one (for R = 10, a
    window to t = 2 fails on [0.824203428, 0.824203431], the sub-panel
    that ends at the pole); across such poles the model's closed form
    (``thermal_closed_form``) is the authority.  An integrable one fails
    in the same way, as |t - 1|^-0.5 at a listed t = 1 does, once the
    halving toward it reaches the float spacing; only a mild one at
    t = 0, where that spacing is far finer, can converge (t^-0.5 does,
    t^-0.9 does not).
    """

    gamma1: Callable = _zero
    gamma2: Callable = _zero
    gamma3: Callable = _zero
    omega: Callable = _zero
    singular_points: tuple[float, ...] = ()
    singular_reach: float = math.inf

    def rates(self, t: float) -> tuple[float, float, float, float]:
        """Evaluate (gamma1, gamma2, gamma3, omega) at time t."""
        return (self.gamma1(t), self.gamma2(t), self.gamma3(t), self.omega(t))

    def rates_on(self, times) -> np.ndarray:
        """(gamma1, gamma2, gamma3, omega) on a grid, shape (4, len(times)).

        Each callable is called once, on the whole grid; a constant is
        broadcast over it.  numpy's floating-point warnings are silenced,
        since a divergence is reported by its non-finite value, and an
        exception from a callable propagates.
        """
        t = np.array(times, dtype=float)
        out = np.empty((4, t.size))
        with np.errstate(all="ignore"):
            for row, fn in zip(out, (self.gamma1, self.gamma2, self.gamma3, self.omega)):
                row[:] = fn(t)
        return out

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
    )


def combine_profiles(*profiles: RateProfile) -> RateProfile:
    """Sum the rates of independent environments into one profile."""
    if not profiles:
        raise ValueError("need at least one profile")

    def _sum(getter):
        # a lone nonzero part is used as it is, without the sum wrapper
        funcs = [f for f in map(getter, profiles) if f is not _zero]
        if len(funcs) <= 1:
            return funcs[0] if funcs else _zero
        return lambda t: sum(f(t) for f in funcs)

    sing = sorted({s for p in profiles for s in p.singular_points})
    return RateProfile(
        gamma1=_sum(lambda p: p.gamma1),
        gamma2=_sum(lambda p: p.gamma2),
        gamma3=_sum(lambda p: p.gamma3),
        omega=_sum(lambda p: p.omega),
        singular_points=tuple(sing),
        singular_reach=min(p.singular_reach for p in profiles),
    )


@dataclass(frozen=True)
class QuadratureConfig:
    """Error control for the accumulation of coefficients: on each grid
    interval, the summed error estimate of each integral V is held to
    max(abs_tol, rel_tol |V|), and that of g's growth to a hundredth."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.rel_tol < math.inf and 0 < self.abs_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")


@dataclass(frozen=True)
class CoefficientSet:
    """Accumulated generator coefficients at one time point, or on a grid.

    ``Gamma`` may be +inf (total loss of the population memory, x = 0 in
    the thermal model); all consumers go through exp(-Gamma) which is
    then exactly 0.

    Every field is either a float or a 1-D ndarray over one time grid.
    In the second form the set holds the whole grid, row i being the
    coefficients at t[i]; the properties below, ``evolve_state``,
    ``bloch_map``, ``pqwy``, ``cp_paper``, ``choi_spectrum``, ``cp_choi``
    and ``cp_report`` then work row by row on arrays.
    """

    t: float
    Gamma: float
    GammaTilde: float
    Omega: float
    g: float

    @property
    def decay(self) -> float:
        """exp(-Gamma), the population memory factor."""
        return _xp(self.Gamma).exp(-self.Gamma)

    @property
    def attenuation(self) -> float:
        """exp(-Gamma/2 - GammaTilde), the coherence damping factor."""
        return _xp(self.Gamma).exp(-0.5 * self.Gamma - self.GammaTilde)

    @property
    def kappa(self) -> complex:
        """Coherence multiplier exp(i Omega - Gamma/2 - GammaTilde)."""
        a = self.attenuation
        if isinstance(a, np.ndarray):
            kappa = np.empty(a.shape, dtype=complex)
            kappa.real = a * np.cos(self.Omega)
            kappa.imag = a * np.sin(self.Omega)
            return kappa
        return complex(a * math.cos(self.Omega), a * math.sin(self.Omega))

    @classmethod
    def identity(cls, t: float = 0.0) -> "CoefficientSet":
        return cls(t=t, Gamma=0.0, GammaTilde=0.0, Omega=0.0, g=0.0)


# scipy.integrate loads on the first quadrature or ODE call, not on import;
# the routes call these module globals, so a test or tracer can rebind them
def quad(*args, **kwargs):
    from scipy.integrate import quad
    return quad(*args, **kwargs)


# the cap on panels per grid interval and on QUADPACK's subintervals per
# quadrature, and ODEPACK's step cap per output interval: passes that
# converge take a few hundred steps, and one that meets an unlisted
# divergence fails instead of running on
_MAX_SUBDIVISIONS = 200
_MAX_STEPS = 10**5
# odeint's full_output message for a call that reached every output time
_ODEINT_SUCCESS = "Integration successful."


def solve_ivp(fun, t, y0, rtol, atol):
    """LSODA through the times t in one ODEPACK call (``odeint``).

    ``t`` is an array of at least two strictly increasing times, t[0]
    the initial one; ``fun(t, y)`` is sampled on [t[0], t[-1]] only
    (``tcrit`` at t[-1]).  Returns ``y``, the states at t as rows,
    ``nfev``, and ``stop``: None when every state is reached and finite,
    else the time and reason where the pass stopped, ODEPACK's or the
    first time whose state is not finite, and ``y`` then ends with the
    state there.  A pass stops after ``_MAX_STEPS`` steps between two
    times.  No solver warning is issued.
    """
    from scipy.integrate import ODEintWarning, odeint
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ODEintWarning)
        y, info = odeint(fun, y0, t, rtol=rtol, atol=atol, tcrit=[t[-1]],
                         mxstep=_MAX_STEPS, full_output=True, tfirst=True)
    nfe, message, stop = info["nfe"], info["message"], None
    if message != _ODEINT_SUCCESS:
        # the call stopped in the first interval whose end it did not reach
        # (the last one also when a snap to tcrit left its tn a hair short);
        # that row holds where it stopped, and the rows after it are unset
        short = np.flatnonzero(~(info["tcur"] >= t[1:]))
        k = int(short[0]) if short.size else t.size - 2
        t, y, nfe = np.append(t[:k + 1], info["tcur"][k]), y[:k + 2], nfe[:k + 1]
        stop = (float(t[-1]), message)
    bad = np.flatnonzero(~np.isfinite(y).all(axis=1))
    if bad.size:
        y, stop = y[:bad[0] + 1], (float(t[bad[0]]), "the state is not finite")
    return SimpleNamespace(y=y, nfev=int(nfe[-1]), stop=stop)


def _quad(func, a, b, cfg, **weight):
    """scipy adaptive Gauss-Kronrod wrapper that converts failures.

    A quadrature that misses the tolerances raises :class:`ToleranceError`.
    ``weight`` passes QUADPACK's ``weight`` and ``wvar`` through, for
    oscillatory integrands.
    """
    kwargs = dict(
        epsabs=cfg.abs_tol,
        epsrel=cfg.rel_tol,
        limit=_MAX_SUBDIVISIONS,
        full_output=1,
        **weight,
    )
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


# QUADPACK's 21-point Kronrod rule (qk21) on [-1, 1], to double precision:
# the nodes and weights from -1 to the centre, and the weights of its
# embedded 10-point Gauss rule there, 0 on the Kronrod-only nodes
_XK = np.array([-0.9956571630258081, -0.9739065285171717, -0.9301574913557082,
                -0.8650633666889845, -0.7808177265864169, -0.6794095682990244,
                -0.5627571346686047, -0.4333953941292472, -0.2943928627014602,
                -0.14887433898163122, 0.0])
_WK = np.array([0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
                0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
                0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
                0.14773910490133849, 0.1494455540029169])
_WG = np.array([0.0, 0.06667134430868814, 0.0, 0.1494513491505806, 0.0,
                0.21908636251598204, 0.0, 0.26926671930999635, 0.0,
                0.29552422471475287, 0.0])
# the whole rule, mirrored about the centre, with both sets of weights as
# the columns of one matrix; and qk21's roundoff floor on the error, 50 eps
# times the integral of |f|
_KRONROD_NODES = np.concatenate([_XK, -_XK[-2::-1]])
_KRONROD_WEIGHTS = np.concatenate([_WK, _WK[-2::-1]])
_RULES = np.column_stack([_KRONROD_WEIGHTS, np.concatenate([_WG, _WG[-2::-1]])])
_ROUNDOFF = 50.0 * np.finfo(float).eps
# panels per qk21 call: their nodes, rates and integrands take about
# 2.4 kB per panel, so a block stays near 5 MB however long the grid
_BLOCK = 2048


# the rate combinations that the coefficients integrate, as rows over
# (gamma1, gamma2, gamma3, omega): (gamma1 + gamma2)/2 for Gamma, gamma3 for
# GammaTilde and omega for Omega
_COEFFICIENT_RATES = np.array([[0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0],
                               [0.0, 0.0, 0.0, 1.0]])


def _scaled(gap, resasc):
    """QUADPACK's error from the gap between two rules, resasc min(1,
    (200 gap / resasc)^1.5), or the gap itself where resasc is 0."""
    ratio = 200.0 * gap / resasc
    return np.where(resasc > 0, resasc * np.minimum(1.0, ratio * np.sqrt(ratio)), gap)


def _kronrod(f):
    """qk21 on [-1, 1] of the node values f (..., 21): the Kronrod integral,
    QUADPACK's error estimate and resasc.  The error is ``_scaled`` from
    |K - G|, with K and G the Kronrod and Gauss sums and resasc the Kronrod
    integral of |f - mean f|, and no less than 50 eps times the integral
    of |f|."""
    sums = f @ _RULES
    kronrod = sums[..., 0]
    resabs = np.abs(f) @ _KRONROD_WEIGHTS
    resasc = np.abs(f - 0.5 * kronrod[..., None]) @ _KRONROD_WEIGHTS
    err = _scaled(np.abs(kronrod - sums[..., 1]), resasc)
    return kronrod, np.maximum(err, _ROUNDOFF * resabs), resasc


# the Kronrod nodes that carry the embedded Gauss rule
_GAUSS = np.flatnonzero(_RULES[:, 1])


@functools.cache
def _tail_integrals() -> tuple[np.ndarray, np.ndarray]:
    """Matrices that take node values of a to int_x^1 p at each Kronrod node
    x, p the polynomial through the values: on all 21 nodes, shape (21, 21),
    and on the 10 Gauss nodes alone, shape (21, 10).

    Each is W V^-1 in the Legendre basis, with V_jk = P_k(x_j) on the
    interpolation nodes and W_ik = int_(x_i)^1 P_k, which is 1 - x for
    k = 0 and (P_(k-1)(x) - P_(k+1)(x))/(2k + 1) above.  Built on first
    use, so that importing the module does not pay for it.
    """
    def matrix(nodes):
        n = nodes.size
        legendre = np.polynomial.legendre.legvander(_KRONROD_NODES, n)
        tails = np.empty((_KRONROD_NODES.size, n))
        tails[:, 0] = 1.0 - _KRONROD_NODES
        k = np.arange(1, n)
        tails[:, 1:] = (legendre[:, k - 1] - legendre[:, k + 1]) / (2 * k + 1)
        return np.linalg.solve(np.polynomial.legendre.legvander(nodes, n - 1).T, tails.T).T

    return matrix(_KRONROD_NODES), matrix(_KRONROD_NODES[_GAUSS])


def _growth(a, spread, b, half):
    """The growth of g across each panel from g = 0, with its error, on
    [-1, 1] as ``_kronrod`` gives them, from a = (gamma1 + gamma2)/2 and
    b = gamma2/2 on the nodes, shape (panels, 21), and the resasc of a.

    The growth is int e^-D b, D(x) the integral of a from x to the panel's
    end, taken at each node from the polynomial through all 21 values of a
    (``_tail_integrals``).  Its error is qk21's for the integral of e^-D b,
    plus the Kronrod sum of |e^-D b| times the error of D, which is
    estimated as qk21 estimates an integral: ``_scaled`` from the gap
    between D and D10, from the polynomial through the 10 Gauss nodes
    alone, with the resasc of a.

    No node lies between the last one and the panel's end.  Where the
    damping across that slice, D at the last node, exceeds a factor e,
    the nodes miss the growth it holds, which can be all of it: about
    |b| (1 - e^-D)/D times the slice's width, which is added to the error.
    """
    whole, gauss = _tail_integrals()
    depth = half[:, None] * (a @ whole.T)
    grown = np.exp(-depth) * b
    value, err, _ = _kronrod(grown)
    gap = np.abs(depth - half[:, None] * (a[:, _GAUSS] @ gauss.T))
    shift = _scaled(gap, (half * spread)[:, None])
    last = depth[:, -1]
    hidden = np.where(last > 1.0, np.abs(b[:, -1]) * (1.0 - _KRONROD_NODES[-1])
                      * -np.expm1(-last) / last, 0.0)
    return value, err + hidden + (np.abs(grown) * shift) @ _KRONROD_WEIGHTS


def _qk21(profile, a, b):
    """qk21 on every panel [a_i, b_i]: the values and error estimates of the
    integrals of the rate combinations ``_COEFFICIENT_RATES`` @ rates, and
    of g's growth across each panel (``_growth``) as a fourth row, each
    shape (4, len(a)).

    Every rate on every node comes from one ``rates_on`` call.  The error
    is QUADPACK's (``_kronrod``).
    """
    centre, half = 0.5 * (a + b), 0.5 * (b - a)
    nodes = centre[:, None] + half[:, None] * _KRONROD_NODES
    rates = profile.rates_on(nodes.ravel())
    # every value and error is on [-1, 1] and scales with the half-width (a
    # non-finite one is refused by the caller, from the values returned)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f = (_COEFFICIENT_RATES @ rates).reshape(len(_COEFFICIENT_RATES), *nodes.shape)
        value, err, resasc = _kronrod(f)
        growth, growth_err = _growth(f[0], resasc[0],
                                     0.5 * rates[1].reshape(nodes.shape), half)
        return np.vstack([value, growth]) * half, np.vstack([err, growth_err]) * half


def _g_tolerances(cfg):
    """(rtol, atol) of g: a hundredth of the quadratures', floored at 1e-13
    and 1e-15."""
    return max(cfg.rel_tol * 1e-2, 1e-13), max(cfg.abs_tol * 1e-2, 1e-15)


def _running_integrals(profile, times, cfg):
    """Gamma, GammaTilde and Omega, the integrals of the rate combinations
    ``_COEFFICIENT_RATES`` @ rates from 0 to each of the sorted times, and
    g grown from 0 at 0, shape (4, len(times)).

    Adaptive qk21 bisection of the whole grid.  Level 0 is one panel per
    grid interval, cut at each listed singular point inside it; the
    Kronrod nodes never sample a panel's ends, so a point there needs
    nothing more.  A grid interval is accepted where, for each integral,
    the sum of its panels' error estimates is at most max(abs_tol,
    rel_tol |V|), V the integral over the interval, as QUADPACK holds its
    sum; g's growth at g's own tolerances (``_g_tolerances``), each
    panel's value and error damped by exp(-Gamma) to the interval's end,
    where g is read.  In an interval that misses, every panel above its
    share of the bound is halved, and all the halves of a level go
    through ``_qk21`` together, ``_BLOCK`` panels per call.  A panel whose
    integrals are not finite raises :class:`ToleranceError` at once, with
    abserr = inf; so does, with its error, a panel that cannot be halved
    or whose grid interval would need over ``_MAX_SUBDIVISIONS`` panels.

    g is stepped across the accepted panels in order, g = e^-(Gamma
    across the panel) g + growth, since the damping weights, differences
    of a running sum, are too coarse for it.  A g that is not finite
    raises :class:`ToleranceError`.
    """
    hi = np.array(times, dtype=float)
    sing = np.array(profile.singular_points, dtype=float)
    edges = np.union1d(np.append(hi, 0.0), sing[(sing > 0.0) & (sing < hi[-1])])
    rows = len(_COEFFICIENT_RATES) + 1
    rel = np.full((rows, 1), cfg.rel_tol)
    floor = np.full((rows, 1), cfg.abs_tol)
    rel[-1], floor[-1] = _g_tolerances(cfg)
    # bins that sum each row of a (2 rows, panels) array per grid interval
    bins = hi.size * np.arange(2 * rows)[:, None]
    steps = np.zeros((rows - 1, hi.size))
    # the panels to evaluate; and, as columns (a, b, values, errors), the
    # panels of the grid intervals that still miss, and the accepted ones
    a, b = edges[:-1], edges[1:]
    left = np.empty((2 + 2 * rows, 0))
    kept = [left]
    while a.size:
        value, err = (np.hstack(x) for x in zip(*(
            _qk21(profile, a[i:i + _BLOCK], b[i:i + _BLOCK])
            for i in range(0, a.size, _BLOCK))))
        bad = np.flatnonzero(~(np.isfinite(value[:-1]) & np.isfinite(err[:-1])).all(axis=0))
        if bad.size:
            i = bad[0]
            raise ToleranceError("quadrature did not converge",
                                 (float(a[i]), float(b[i])), abserr=math.inf)
        panels = np.hstack([left, np.vstack([a, b, value, err])])
        panels = panels[:, np.argsort(panels[0])]
        a, b = panels[0], panels[1]
        owner = np.searchsorted(hi, b)
        count = np.bincount(owner, minlength=hi.size)
        # g's growth, and its error, reach the end of the grid interval
        # damped by Gamma over the panels after it
        total = np.cumsum(panels[2])
        weighted = panels[2:].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            damping = np.exp(total - total[np.searchsorted(owner, owner, "right") - 1])
            weighted[rows - 1] *= damping
            weighted[-1] *= damping
            sums = np.bincount((owner + bins).ravel(), weighted.ravel(),
                               bins.size * hi.size).reshape(2 * rows, hi.size)
            limit = np.maximum(floor, rel * np.abs(sums[:rows]))
        miss = ~(sums[rows:] <= limit)
        # an interval without panels here sums to 0, and adds nothing
        missed = miss.any(axis=0)
        steps += np.where(missed, 0.0, sums[:rows - 1])
        kept.append(panels[:, ~missed[owner]])
        if not missed.any():
            break
        # in an interval that misses, the panels above their share of its
        # bound; the worst panel always is one
        share = limit / np.maximum(count, 1)
        halve = (miss[:, owner] & ~(weighted[rows:] <= share[:, owner])).any(axis=0)
        count += np.bincount(owner[halve], minlength=hi.size)
        mid = 0.5 * (a + b)
        stuck = halve & ((count[owner] > _MAX_SUBDIVISIONS) | ~((a < mid) & (mid < b)))
        if stuck.any():
            worst = np.where(miss[:, owner], weighted[rows:], 0.0).max(axis=0)
            i = int(np.argmax(np.where(stuck, worst, -1.0)))
            raise ToleranceError("quadrature did not converge",
                                 (float(a[i]), float(b[i])), abserr=float(worst[i]))
        left = panels[:, missed[owner] & ~halve]
        a, b = (np.column_stack([a[halve], mid[halve]]).ravel(),
                np.column_stack([mid[halve], b[halve]]).ravel())
    kept = np.hstack(kept)
    kept = kept[:, np.argsort(kept[0])]
    with np.errstate(over="ignore"):
        decays = np.exp(-kept[2]).tolist()
    g, path = 0.0, [0.0]
    for decay, growth in zip(decays, kept[1 + rows].tolist()):
        g = decay * g + growth
        path.append(g)
    # g at the end of each grid interval, after its last panel
    owner = np.searchsorted(hi, kept[1])
    out = np.array(path)[np.searchsorted(owner, np.arange(hi.size), "right")]
    lost = np.flatnonzero(~np.isfinite(out))
    if lost.size:
        i = int(lost[0])
        raise ToleranceError(f"g is not finite at t = {times[i]:g}",
                             (float(([0.0] + times)[i]), float(times[i])))
    return np.vstack([np.cumsum(steps, axis=1), out])


def _validate_times(times):
    """The times as a float array, if non-empty, finite, >= 0 and increasing."""
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1 or not ts.size:
        raise ValueError("times must be a non-empty sequence")
    if not (ts[0] >= 0 and np.isfinite(ts).all()):
        raise ValueError("times must be finite and non-negative")
    if not (ts[1:] > ts[:-1]).all():
        raise ValueError("times must be strictly increasing")
    return ts


def integrate_profile(
    profile: RateProfile,
    times: Sequence[float],
    cfg: QuadratureConfig | None = None,
) -> list[CoefficientSet]:
    """Accumulate (Gamma, GammaTilde, Omega, g) along a sorted time grid.

    Each requested time reuses the coefficients accumulated up to the
    previous one, so every grid interval of a smooth grid costs one
    21-point panel, with g stepped across it from the same nodes; on an
    interval whose summed error estimates miss the tolerances of ``cfg``,
    the worst panels are halved (see ``_running_integrals``).
    No QUADPACK or ODE routine is called.  Raises ValueError for a
    non-monotone grid or one that ends beyond the profile's
    ``singular_reach``, and :class:`ToleranceError` when the error
    control cannot be met (for example at a rate divergence).
    """
    cfg = cfg or QuadratureConfig()
    ts = _validate_times(times).tolist()
    profile.check_reach(ts[-1])
    rows = _running_integrals(profile, ts, cfg).tolist()
    return [CoefficientSet(t, *row) for t, *row in zip(ts, *rows)]


def markovian_coefficients(
    gamma1: float, gamma2: float, gamma3: float, omega: float, t: float
) -> CoefficientSet:
    """Coefficients of the constant-rate (GKSL) generator at time t.

    Gamma = (gamma1+gamma2) t / 2, GammaTilde = gamma3 t, Omega = omega t
    and g = [gamma2/(gamma1+gamma2)] (1 - exp(-(gamma1+gamma2) t/2)).
    The gamma1 + gamma2 = 0 case is the removable limit g = gamma2 t / 2.
    For an ndarray of times every field is an array over them.
    """
    xp = _backend(t)
    if gamma1 + gamma2 < 0:
        raise ValueError("gamma1 + gamma2 must be non-negative")
    at = 0.5 * (gamma1 + gamma2) * t
    if gamma1 + gamma2 == 0.0:
        g = 0.5 * gamma2 * t
    else:
        # at t = 0 this is (gamma2/(gamma1+gamma2)) * 0 = gamma2 t / 2 as well
        g = (gamma2 / (gamma1 + gamma2)) * (-xp.expm1(-at))
    return CoefficientSet(t=t, Gamma=at, GammaTilde=gamma3 * t, Omega=omega * t, g=g)


# Gauss-Legendre nodes per panel of the piecewise-linear route, and the
# damping e^-50 = 2e-22 past which the route drops the rest of a piece
_GL_NODES = 16
_DAMPING_REACH = 50.0


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the Gauss-Legendre rule on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES)
    return 0.5 * (x + 1.0), 0.5 * w


def piecewise_linear_coefficients(nodes, rates, times) -> CoefficientSet:
    """Exact coefficients of rates that are linear between table nodes.

    ``rates`` holds (gamma1, gamma2, gamma3, omega) at the ``nodes``,
    shape (4, len(nodes)), interpolated as ``np.interp`` does; ``times``
    is a strictly increasing grid from t >= 0.  Returns the
    CoefficientSet of arrays over ``times``.  Nodes that are not finite
    and strictly increasing, or rates that are not finite or not of that
    shape, raise ValueError.  No quadrature routine is
    called: on the union of the nodes, the grid and the zeros of
    a = (gamma1 + gamma2)/2 every rate is linear, so

    * Gamma, GammaTilde and Omega are cumulative trapezoid sums, exact
      up to rounding;
    * on each piece [t0, t1], g(t1) = g(t0) e^-(Gamma(t1) - Gamma(t0))
      + int_t0^t1 e^-D(s) gamma2(s)/2 ds with D(s) = int_s^t1 a, a
      quadratic in s known exactly.  The integral is a 16-node
      Gauss-Legendre sum over panels across which D moves by at most 1,
      so that the rule is at roundoff.  Since a keeps its sign, the
      damping e^-D is largest at one end of the piece; where it has
      fallen below e^-50 of that, the rest of the piece is left out, so
      that a stiff piece costs at most 101 panels.
    """
    nodes = np.asarray(nodes, dtype=float)
    rates = np.asarray(rates, dtype=float)
    if not (nodes.ndim == 1 and np.isfinite(nodes).all() and (nodes[1:] > nodes[:-1]).all()):
        raise ValueError("table nodes must be finite and strictly increasing")
    if rates.shape != (4, nodes.size) or not np.isfinite(rates).all():
        raise ValueError(f"table rates must be finite, of shape (4, {nodes.size})")
    t = _validate_times(times)
    inner = nodes[(nodes > 0.0) & (nodes < t[-1])]
    u = np.union1d(np.append(t, 0.0), inner)
    a = 0.5 * (np.interp(u, nodes, rates[0]) + np.interp(u, nodes, rates[1]))
    # split at the zeros of a, so that a keeps one sign on every piece
    cross = np.flatnonzero(a[:-1] * a[1:] < 0.0)
    u = np.union1d(u, u[cross] + (u[cross + 1] - u[cross]) * a[cross]
                   / (a[cross] - a[cross + 1]))
    gamma1, gamma2, gamma3, omega = (np.interp(u, nodes, col) for col in rates)
    a = 0.5 * (gamma1 + gamma2)
    h = np.diff(u)

    def cumulative(r):
        return np.concatenate([[0.0], np.cumsum(0.5 * h * (r[:-1] + r[1:]))])

    big_gamma = cumulative(a)
    rise = np.diff(big_gamma)
    # each piece in the fraction rho of its length h from its dominant
    # end, t1 where a >= 0 and t0 where a <= 0: there |a| h = E + (F - E) rho,
    # gamma2/2 = B + (B_far - B) rho, and the damping from that end is
    # exp(-(E rho + (F - E) rho^2/2))
    grows = a[:-1] + a[1:] < 0.0
    E = np.abs(np.where(grows, a[:-1], a[1:])) * h
    F = np.abs(np.where(grows, a[1:], a[:-1])) * h
    B = 0.5 * np.where(grows, gamma2[:-1], gamma2[1:])
    B_far = 0.5 * np.where(grows, gamma2[1:], gamma2[:-1])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # rho up to phi, where the damping reaches e^-_DAMPING_REACH; the
        # root of E phi + (F - E) phi^2/2 = L is taken in units of
        # S >= L, so that nothing overflows
        L = _DAMPING_REACH
        S = np.maximum(np.maximum(E, F), L)
        phi = (2.0 * L / S) / (E / S + np.sqrt(np.maximum(
            (E / S) ** 2 + 2.0 * ((F - E) / S) * (L / S), 0.0)))
        phi = np.where(np.abs(rise) <= L, 1.0, np.minimum(phi, 1.0))
        # panels on which |a| h rho moves by at most 1: at most 2 L + 1
        count = np.ceil(np.maximum(E, E + (F - E) * phi) * phi)
        decay = np.exp(-rise).tolist()
    # a non-finite count (E or F overflowed) leaves one panel of NaN
    panels = np.where(np.isfinite(count), np.maximum(count, 1.0), 1.0).astype(int)
    piece = np.repeat(np.arange(h.size), panels)
    width = (phi / panels)[piece]
    x, w = _gauss_legendre()
    first = np.cumsum(panels) - panels
    rho = width[:, None] * ((np.arange(piece.size) - first[piece])[:, None] + x)
    damp = np.exp(-rho * (E[piece, None] + 0.5 * (F - E)[piece, None] * rho))
    density = damp * (B[piece, None] + (B_far - B)[piece, None] * rho)
    gain = h * np.bincount(piece, weights=width * (density @ w), minlength=h.size)
    g = [0.0]
    for d, q, up in zip(decay, gain.tolist(), grows.tolist()):
        # g(t1) = g(t0) e^-rise + int e^-D gamma2/2; where a <= 0 the
        # factor e^-rise is taken out of the integral, whose damping then
        # stays at most 1
        g.append((g[-1] + q) * d if up else g[-1] * d + q)
    at = np.searchsorted(u, t)
    return CoefficientSet(t=t, Gamma=big_gamma[at], GammaTilde=cumulative(gamma3)[at],
                          Omega=cumulative(omega)[at], g=np.array(g)[at])

