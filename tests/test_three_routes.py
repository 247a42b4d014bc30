"""The three routes to the coefficients agree on random smooth generators.

A generator is drawn as the sum of a thermal part at R < 1/2, Ohmic
dephasing at T = 0 and at T > 0, and constant dephasing and frequency
shift.  The constant part has gamma1 = gamma2 = 0 because g is not
additive across population channels, so the closed form of the sum is
the thermal (Gamma, g) with the dephasing parts' GammaTilde and Omega
added.  The closed form must match adaptive quadrature
(``integrate_profile``) within criterion 8's 1e-8 and direct
integration of the master equation (``integrate_me``) within
criterion 1's 1e-6; wherever the Choi spectrum says the map is CP, the
conditions i)-iv) must hold too.  The ODE route must meet the same
1e-6 on any sorted grid, one that starts after 0 or ends before t_end
included, and refuse a grid that breaks its time rule (a time in
(0, 1e-100), where LSODA's steps underflow, among them).  Its
right-hand side, the three rows on (P1, Re alpha, Im alpha), must match
the 2x2 ``liouvillian`` to 1e-14 times the largest rate (at least 1),
for rates left at ``_zero`` or drawn from 1e-8 to 1e8 in magnitude.

The quadrature route itself, vectorised adaptive Gauss-Kronrod over the
whole grid, must also agree with the route it replaced, one QUADPACK
call per integrand and grid interval, within the requested tolerances:
on thermal, Ohmic and constant generators, with each rate called on the
whole array of nodes or on one float node at a time.

g from the quadrature route's Gauss-Kronrod panels must match the
closed form to 1e-12 relative on thermal (R < 1/2) and zero-temperature
Ohmic generators on grids of intervals up to 1 wide.  Gamma and g must
match it to 1e-12 relative also on thermal grids at R > 1/2 that end
before the first pole of the rates, where the panels of the last grid
interval are halved toward its end, as the rates grow like 1/(pole - t).
The grid ends at most 99.9% of the way to the pole: nearer to it the
closed form itself loses accuracy, about eps/|c| relative, and closer
than about 1e-6 (1e-5 at R = 0.55) the rates' own rounding keeps the
summed error estimates of the panels from meeting the tolerances, which
ends in ToleranceError.

The intermediate map Lambda(t2, t1), composed from the coefficient sets
at t1 and t2 (``intermediate_map`` in tests/conftest.py), must give
Lambda(t2, 0) after Lambda(t1, 0) on random states to 1e-12, and match
the quadrature route on the rates read from t1 on, rate(t + t1), within
both quadratures' tolerances.

The example count comes from the hypothesis profile (tests/conftest.py):
15 by default, 150 with ``--hypothesis-profile=deep``.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from phasecov import (CoefficientSet, OhmicParams, OhmicSeries, QuadratureConfig,
                      QubitState, ThermalParams, combine_profiles, constant_profile,
                      cp_choi, cp_paper, integrate_me, integrate_profile,
                      ohmic_closed_form, ohmic_profile, thermal_closed_form,
                      thermal_profile, thermal_zeros)
from phasecov.coeffs import RateProfile, _zero
from phasecov.mesolve import _pack, _rhs, _unpack, liouvillian
from conftest import intermediate_map

KERNELS = st.sampled_from(["paper", "literature"])


@st.composite
def generators(draw):
    thermal = ThermalParams(R=draw(st.floats(0.02, 0.45)), N=draw(st.floats(0.0, 3.0)))
    cold = OhmicParams(alpha=draw(st.floats(0.01, 0.2)), s=draw(st.floats(0.5, 4.0)),
                       omega_c=draw(st.floats(0.5, 2.0)), T=0.0, kernel=draw(KERNELS))
    warm = OhmicParams(alpha=draw(st.floats(0.01, 0.2)), s=draw(st.floats(0.5, 4.0)),
                       omega_c=draw(st.floats(0.5, 2.0)), T=draw(st.floats(0.05, 3.0)),
                       kernel=draw(KERNELS))
    gamma3, omega = draw(st.floats(-0.2, 0.5)), draw(st.floats(-1.0, 1.0))
    return thermal, cold, warm, gamma3, omega


def _closed_form(thermal, cold, warm, gamma3, omega, times):
    gamma, g = thermal_closed_form(thermal, times)
    tilde = (ohmic_closed_form(cold, times)[1] + OhmicSeries(warm).gamma_tilde(times)
             + gamma3 * times)
    return CoefficientSet(t=times, Gamma=gamma, GammaTilde=tilde, Omega=omega * times,
                          g=g)


@given(generators(), st.floats(1.0, 8.0), st.floats(0.0, 1.0),
       st.complex_numbers(max_magnitude=1.0))
def test_closed_form_quadrature_and_ode_agree(gen, t_max, p1, alpha):
    thermal, cold, warm, gamma3, omega = gen
    # |alpha|^2 <= P1 (1 - P1) keeps the initial state positive
    alpha *= (p1 * (1.0 - p1)) ** 0.5
    state0 = QubitState(p1, alpha)
    profile = combine_profiles(thermal_profile(thermal), ohmic_profile(cold),
                               ohmic_profile(warm), constant_profile(gamma3=gamma3,
                                                                     omega=omega))
    times = np.linspace(0.0, t_max, 9)
    closed = _closed_form(thermal, cold, warm, gamma3, omega, times)

    quad_route = integrate_profile(profile, times[1:])
    for name in ("Gamma", "GammaTilde", "Omega", "g"):
        np.testing.assert_allclose([getattr(c, name) for c in quad_route],
                                   getattr(closed, name)[1:], rtol=1e-8, atol=1e-12)

    ode = integrate_me(profile, state0.density_matrix, t_max, t_eval=times)
    # the closed-form map, applied without evolve_state's state check: a
    # negative gamma3 may take the state out of the state space
    p1_cf = closed.decay * p1 + closed.g
    alpha_cf = alpha * closed.kappa
    assert np.abs(ode[:, 0, 0].real - p1_cf).max() <= 1e-6
    assert np.abs(ode[:, 0, 1] - alpha_cf).max() <= 1e-6

    choi_cp = cp_choi(closed).is_cp
    assert np.all(cp_paper(closed).verdict[choi_cp])


def _broken(times, t_end, kind):
    """A t_eval that breaks integrate_me's rule in the given way."""
    return {"empty": [], "repeated": np.append(times, times[-1]),
            "negative": np.insert(times, 0, -1.0), "nan": np.append(times, math.nan),
            "past t_end": np.append(times, np.nextafter(t_end, math.inf)),
            "near 0": np.union1d(times, 5e-101)}[kind]


@given(generators(), st.floats(1.0, 8.0),
       st.lists(st.just(0.0) | st.floats(1e-100, 1.0), min_size=1, max_size=12),
       st.floats(0.0, 1.0),
       st.sampled_from(["empty", "repeated", "negative", "nan", "past t_end", "near 0"]))
def test_ode_route_reports_any_sorted_grid(gen, t_max, fractions, p1, kind):
    # t_eval need not start at 0 (the pass then starts there on its own)
    # nor end at t_end (the pass then stops at its end)
    thermal, cold, warm, gamma3, omega = gen
    profile = combine_profiles(thermal_profile(thermal), ohmic_profile(cold),
                               ohmic_profile(warm), constant_profile(gamma3=gamma3,
                                                                     omega=omega))
    times = np.unique(t_max * np.array(fractions))
    alpha = 0.5 * (p1 * (1.0 - p1)) ** 0.5
    rho0 = QubitState(p1, alpha).density_matrix
    ode = integrate_me(profile, rho0, t_max, t_eval=times)
    closed = _closed_form(thermal, cold, warm, gamma3, omega, times)
    assert np.abs(ode[:, 0, 0].real - (closed.decay * p1 + closed.g)).max() <= 1e-6
    assert np.abs(ode[:, 0, 1] - alpha * closed.kappa).max() <= 1e-6
    with pytest.raises(ValueError, match="times must be|t_eval ends at|too near 0"):
        integrate_me(profile, rho0, t_max, t_eval=_broken(times, t_max, kind))


def _rate(value):
    return _zero if value is None else lambda t: value


# a rate left at _zero, or a float of magnitude from 1e-8 to 1e8
RATES = st.one_of(st.none(), st.builds(lambda m, e: m * 10.0 ** e, st.floats(-1.0, 1.0),
                                       st.integers(-8, 8)))


@given(st.tuples(RATES, RATES, RATES, RATES), st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_ode_right_hand_side_equals_the_liouvillian(rates, y):
    profile = RateProfile(*map(_rate, rates))
    drift = _rhs(profile)(0.3, np.array(y))
    ref = _pack(liouvillian(profile, 0.3, _unpack(np.array(y))))
    scale = max([1.0, *(abs(r) for r in rates if r is not None)])
    assert np.abs(np.array(drift) - ref).max() <= 1e-14 * scale


def _quadpack_steps(integrands, edges, cfg):
    """The integral of each integrand over each interval between the edges,
    one QUADPACK call apiece: the route that the vectorised one replaced."""
    return np.array([[quad(fn, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, limit=200)[0]
                      for a, b in zip(edges[:-1], edges[1:])] for fn in integrands])


def _per_point(fn):
    """The rate fn called on one float at a time, also for an array of times."""
    def rate(t):
        if type(t) is np.ndarray:
            return np.array([fn(x) for x in t.tolist()], dtype=float)
        return fn(t)
    return rate


@st.composite
def quadrature_profiles(draw):
    thermal = ThermalParams(R=draw(st.floats(0.01, 0.5)), N=draw(st.floats(0.0, 3.0)))
    ohmic = OhmicParams(alpha=draw(st.floats(0.01, 0.2)), s=draw(st.floats(0.3, 4.0)),
                        omega_c=draw(st.floats(0.5, 2.0)),
                        T=draw(st.sampled_from([0.0, 0.1, 1.0])), kernel=draw(KERNELS))
    constant = constant_profile(*draw(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                                                st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))))
    parts = [thermal_profile(thermal), ohmic_profile(ohmic), constant]
    chosen = draw(st.lists(st.sampled_from(range(3)), min_size=1, max_size=3, unique=True))
    profile = combine_profiles(*(parts[i] for i in sorted(chosen)))
    if draw(st.booleans()):
        profile = dataclasses.replace(profile, **{
            name: _per_point(getattr(profile, name))
            for name in ("gamma1", "gamma2", "gamma3", "omega")})
    return profile


@given(quadrature_profiles(), st.floats(0.5, 10.0), st.integers(2, 40))
def test_vectorised_quadrature_matches_quadpack_per_interval(profile, t_max, n):
    cfg = QuadratureConfig()
    times = np.linspace(0.0, t_max, n)
    got = integrate_profile(profile, times[1:], cfg)
    half_sum = lambda s: 0.5 * (profile.gamma1(s) + profile.gamma2(s))
    steps = _quadpack_steps((half_sum, profile.gamma3, profile.omega), times, cfg)
    # each route meets max(abs_tol, rel_tol |step|) on every interval
    slack = cfg.rel_tol * np.cumsum(np.abs(steps), axis=1) + cfg.abs_tol * np.arange(1, n)
    for name, ref, bound in zip(("Gamma", "GammaTilde", "Omega"), np.cumsum(steps, axis=1),
                                slack):
        assert np.all(np.abs([getattr(c, name) for c in got] - ref) <= bound), name


@given(st.floats(0.01, 0.5, exclude_max=True), st.floats(0.0, 3.0), st.floats(0.01, 0.2),
       st.floats(0.5, 4.0), st.floats(0.5, 2.0), KERNELS, st.floats(0.5, 8.0),
       st.integers(9, 40))
def test_g_from_the_panels_matches_the_closed_form(R, N, alpha, s, omega_c, kernel,
                                                   t_max, n):
    thermal = ThermalParams(R=R, N=N)
    profile = combine_profiles(thermal_profile(thermal), ohmic_profile(
        OhmicParams(alpha=alpha, s=s, omega_c=omega_c, T=0.0, kernel=kernel)))
    times = np.linspace(0.0, t_max, n)[1:]
    cfg = QuadratureConfig()
    g = np.array([c.g for c in integrate_profile(profile, times, cfg)])
    closed = thermal_closed_form(thermal, times)[1]
    assert np.all(np.abs(g - closed) <= 1e-12 * np.abs(closed))


@given(st.floats(0.5, 20.0, exclude_min=True), st.floats(0.0, 3.0), st.floats(0.05, 0.999),
       st.integers(2, 40))
def test_bisection_toward_a_thermal_pole_matches_the_closed_form(R, N, reach, n):
    # the first zero of c, where the rates have their first pole
    pole = thermal_zeros(R, 2.0 * math.pi / math.sqrt(2.0 * R - 1.0))[0]
    times = np.linspace(0.0, reach * pole, n)[1:]
    thermal = ThermalParams(R=R, N=N)
    got = integrate_profile(thermal_profile(thermal), times)
    gamma, g = thermal_closed_form(thermal, times)
    for name, closed in (("Gamma", gamma), ("g", g)):
        route = np.array([getattr(c, name) for c in got])
        assert np.all(np.abs(route - closed) <= 1e-12 * np.abs(closed)), name


def _shifted(profile, start):
    """The profile with every rate read from start on: rate(t + start)."""
    return dataclasses.replace(profile, **{
        name: (lambda t, f=getattr(profile, name): f(t + start))
        for name in ("gamma1", "gamma2", "gamma3", "omega")})


@given(generators(), st.floats(0.05, 6.0), st.floats(0.05, 4.0), st.floats(0.0, 1.0),
       st.complex_numbers(max_magnitude=1.0))
def test_intermediate_map_composes_and_matches_a_shifted_profile(gen, t1, width, p1, alpha):
    thermal, cold, warm, gamma3, omega = gen
    profile = combine_profiles(thermal_profile(thermal), ohmic_profile(cold),
                               ohmic_profile(warm), constant_profile(gamma3=gamma3,
                                                                     omega=omega))
    cfg = QuadratureConfig()
    t2 = t1 + width
    early, late = integrate_profile(profile, [t1, t2], cfg)
    between = intermediate_map(early, late)
    # Lambda(t2, t1) after Lambda(t1, 0) is Lambda(t2, 0) on a random state,
    # applied without evolve_state's state check as negative gamma3 may
    # leave the state space
    alpha *= (p1 * (1.0 - p1)) ** 0.5
    p1_t1, alpha_t1 = early.decay * p1 + early.g, alpha * early.kappa
    assert between.decay * p1_t1 + between.g == pytest.approx(
        late.decay * p1 + late.g, rel=1e-12, abs=1e-12)
    assert alpha_t1 * between.kappa == pytest.approx(alpha * late.kappa, rel=1e-12,
                                                     abs=1e-12)
    # the same map from 0 of the rates read from t1 on, to both routes'
    # tolerances, less the rounding of the differences
    (direct,) = integrate_profile(_shifted(profile, t1), [width], cfg)
    for name in ("Gamma", "GammaTilde", "Omega", "g"):
        got, want = getattr(between, name), getattr(direct, name)
        rounding = 4e-16 * max(abs(getattr(late, name)), abs(getattr(early, name)))
        bound = 2.0 * max(cfg.abs_tol, cfg.rel_tol * abs(want)) + rounding
        assert abs(got - want) <= bound, name
