import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from phasecov import (QuadratureConfig, RateProfile, ThermalParams, ToleranceError,
                      coeffs, combine_profiles, constant_profile, integrate_me,
                      integrate_profile, markovian_coefficients, mesolve,
                      piecewise_linear_coefficients, thermal_closed_form, thermal_profile)
from phasecov import cli
from phasecov.cli import RATES_HEADER, RunConfig
from phasecov.models import OhmicParams, ohmic_profile


def _step(t, at, before, after):
    """A rate that is ``before`` for t < at and ``after`` from there, for a
    float or an ndarray of times (``[()]`` makes a float of a 0-d result)."""
    return np.where(t < at, before, after)[()]


def test_zero_profile_gives_zero_coefficients():
    out = integrate_profile(RateProfile(), [0.0, 0.5, 2.0, 7.0])
    for c in out:
        assert (c.Gamma, c.GammaTilde, c.Omega, c.g) == (0.0, 0.0, 0.0, 0.0)


def test_constant_symmetric_rates_closed_form():
    # gamma1 = gamma2 = gamma: Gamma = gamma t, g = (1 - exp(-gamma t))/2
    gamma = 0.7
    prof = constant_profile(gamma1=gamma, gamma2=gamma)
    for c in integrate_profile(prof, [0.5, 2.0, 4.0]):
        assert c.Gamma == pytest.approx(gamma * c.t, rel=1e-12)
        assert c.g == pytest.approx(0.5 * (1.0 - math.exp(-gamma * c.t)), rel=1e-10)


def test_thermal_gamma_matches_closed_form():
    p = ThermalParams(R=0.25, N=1.0)
    c = integrate_profile(thermal_profile(p), [2.0])[0]
    gamma_cf, g_cf = thermal_closed_form(p, 2.0)
    assert c.Gamma == pytest.approx(gamma_cf, rel=1e-8)
    assert c.g == pytest.approx(g_cf, rel=1e-8)


def test_times_must_increase():
    with pytest.raises(ValueError):
        integrate_profile(RateProfile(), [0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        integrate_profile(RateProfile(), [2.0, 1.0])
    with pytest.raises(ValueError):
        integrate_profile(RateProfile(), [-1.0, 1.0])
    with pytest.raises(ValueError):
        integrate_profile(RateProfile(), [])
    for times in ([[1.0, 2.0]], 1.0, [1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError, match="times must be"):
            integrate_profile(RateProfile(), times)


def test_singular_crossing_raises_tolerance_error():
    # R > 1/2: one-sided integrals of f diverge at the zeros of c
    prof = thermal_profile(ThermalParams(R=10.0, N=0.0), t_max=10.0)
    with pytest.raises(ToleranceError) as err:
        integrate_profile(prof, [2.0])
    lo, hi = err.value.interval
    assert 0.0 <= lo < hi <= 2.0


def test_determinism_bit_identical():
    prof = thermal_profile(ThermalParams(R=0.25, N=1.0))
    a = integrate_profile(prof, [0.5, 1.5, 3.0])
    b = integrate_profile(prof, [0.5, 1.5, 3.0])
    assert a == b


def test_refinement_stability():
    prof = thermal_profile(ThermalParams(R=0.45, N=0.5))
    coarse_tol = 1e-6
    coarse = integrate_profile(prof, [1.0, 4.0], QuadratureConfig(rel_tol=coarse_tol))
    fine = integrate_profile(prof, [1.0, 4.0], QuadratureConfig(rel_tol=coarse_tol / 2))
    for c, f in zip(coarse, fine):
        for name in ("Gamma", "GammaTilde", "Omega", "g"):
            ref = max(abs(getattr(f, name)), 1.0)
            assert abs(getattr(c, name) - getattr(f, name)) < 10 * coarse_tol * ref


def test_constant_rates_agree_with_markovian():
    g1, g2, g3, w = 0.3, 0.7, 0.15, 0.4
    prof = constant_profile(g1, g2, g3, w)
    for c in integrate_profile(prof, [0.2, 1.0, 2.5, 6.0, 10.0]):
        m = markovian_coefficients(g1, g2, g3, w, c.t)
        assert c.Gamma == pytest.approx(m.Gamma, rel=1e-10)
        assert c.GammaTilde == pytest.approx(m.GammaTilde, rel=1e-10)
        assert c.Omega == pytest.approx(m.Omega, rel=1e-10)
        assert c.g == pytest.approx(m.g, rel=1e-10)


def test_g_ode_matches_direct_integral():
    # direct route: e^{-Gamma(t)} int_0^t e^{Gamma(s)} gamma2(s)/2 ds, with
    # Gamma(s) re-quadratured from scratch inside the integrand
    gamma1 = lambda t: 0.3 * (1.0 + np.sin(t))
    gamma2 = lambda t: 0.5 * (1.0 + 0.5 * np.cos(0.7 * t))
    prof = RateProfile(gamma1=gamma1, gamma2=gamma2)

    def gamma_of(s):
        val, _ = quad(lambda u: 0.5 * (gamma1(u) + gamma2(u)), 0.0, s,
                      epsabs=1e-13, epsrel=1e-12)
        return val

    for t in (0.8, 2.5, 5.0):
        assert math.exp(gamma_of(t)) < 1e6
        big_g, _ = quad(lambda s: math.exp(gamma_of(s)) * 0.5 * gamma2(s),
                        0.0, t, epsabs=1e-13, epsrel=1e-12, limit=200)
        direct = math.exp(-gamma_of(t)) * big_g
        c = integrate_profile(prof, [t])[0]
        assert c.g == pytest.approx(direct, rel=1e-8)


def test_markovian_examples():
    zero = markovian_coefficients(0.0, 0.0, 0.0, 0.0, 5.0)
    assert (zero.Gamma, zero.GammaTilde, zero.Omega, zero.g) == (0.0, 0.0, 0.0, 0.0)

    gamma = 0.9
    for t in (0.5, 2.0, 8.0):
        m = markovian_coefficients(0.0, gamma, 0.0, 0.0, t)
        assert m.g == pytest.approx(1.0 - math.exp(-gamma * t / 2), rel=1e-12)

    sym = markovian_coefficients(1.3, 1.3, 0.0, 0.0, 1e4)
    assert sym.g == pytest.approx(0.5, abs=1e-12)


def test_markovian_removable_singularity():
    # gamma1 + gamma2 = 0: series limit g = gamma2 t / 2
    m = markovian_coefficients(-0.4, 0.4, 0.0, 0.0, 3.0)
    assert m.g == pytest.approx(0.4 * 3.0 / 2)
    assert m.Gamma == 0.0


@pytest.mark.parametrize("gamma1,gamma2", [
    (0.3, 0.7), (0.0, 1e-3), (2.0, -1.0), (-0.4, 0.4), (0.0, 0.0)])
def test_markovian_coefficients_on_a_grid_equal_scalar_calls(gamma1, gamma2):
    # (-0.4, 0.4) and (0, 0) are the removable limit gamma1 + gamma2 = 0
    t = np.linspace(0.0, 50.0, 1001)
    grid = markovian_coefficients(gamma1, gamma2, 0.2, -0.3, t)
    fields = ("t", "Gamma", "GammaTilde", "Omega", "g")
    scalar = np.array([[getattr(markovian_coefficients(gamma1, gamma2, 0.2, -0.3, x), f)
                        for f in fields] for x in t.tolist()]).T
    for name, column in zip(fields, scalar):
        np.testing.assert_allclose(getattr(grid, name), column, rtol=1e-14, atol=0.0)
    assert type(markovian_coefficients(gamma1, gamma2, 0.2, -0.3, 1.0).g) is float


def test_markovian_argument_errors():
    with pytest.raises(ValueError):
        markovian_coefficients(0.1, 0.1, 0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        markovian_coefficients(-1.0, 0.5, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        markovian_coefficients(0.1, 0.1, 0.0, 0.0, np.array([0.0, -1.0]))


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-9)
    # NaN and inf used to pass: rel_tol = NaN ended in a misleading
    # "quadrature did not converge", and rel_tol = inf was taken
    for bad in (math.nan, math.inf):
        for field in ("rel_tol", "abs_tol"):
            with pytest.raises(ValueError, match="positive and finite"):
                QuadratureConfig(**{field: bad})


def _tabulated(tmp_path):
    t = np.linspace(0.0, 12.0, 97)
    table = np.column_stack([t, 0.2 + 0.1 * np.sin(t), 0.5 * np.exp(-t / 3),
                             np.cos(1.7 * t), 0.3 * t])
    path = tmp_path / "rates.csv"
    np.savetxt(path, table, delimiter=",", header=RATES_HEADER, comments="")
    cfg = RunConfig(model="tabulated", rates_file=str(path), t_max=12.0)
    return cli._profile_for(cfg, cli._build(cfg.validate()))


def _built_in_profiles(tmp_path):
    yield from (thermal_profile(ThermalParams(R, N), t_max=12.0)
                for R in (0.02, 0.25, 0.45, 0.5, 0.55, 2.0, 20.0) for N in (0.0, 1.3))
    yield from (ohmic_profile(OhmicParams(0.1, s, 1.3, T, kernel))
                for s in (0.5, 1.0, 2.0, 3.5) for T in (0.0, 0.7)
                for kernel in ("paper", "literature"))
    yield constant_profile(0.3, -0.7, 0.15, 0.4)
    yield _tabulated(tmp_path)
    yield combine_profiles(thermal_profile(ThermalParams(10.0, 0.5), t_max=12.0),
                           ohmic_profile(OhmicParams(0.1, 3.0, 1.0, 0.5, "paper")),
                           constant_profile(omega=0.2))


def test_rates_on_equals_per_point_evaluation(tmp_path):
    for profile in _built_in_profiles(tmp_path):
        # the listed poles are on the grid, where the rates are infinite
        t = np.union1d(np.linspace(0.0, 12.0, 2049), profile.singular_points)
        grid = profile.rates_on(t)
        fns = (profile.gamma1, profile.gamma2, profile.gamma3, profile.omega)
        # the reference: each rate at each time, as a float
        points = np.array([[fn(x) for x in t.tolist()] for fn in fns], dtype=float)
        assert grid.shape == points.shape == (4, t.size)
        finite = np.isfinite(points)
        assert (~finite[1]).any() == bool(profile.singular_points)
        np.testing.assert_array_equal(np.isfinite(grid), finite)
        np.testing.assert_array_equal(grid[~finite], points[~finite])
        np.testing.assert_allclose(grid[finite], points[finite], rtol=1e-14, atol=0.0)


def test_tabulated_callables_equal_the_grid_form_bit_for_bit(tmp_path):
    profile = _tabulated(tmp_path)
    nodes = np.linspace(0.0, 12.0, 97)
    # the nodes, points between them, and both ends and beyond
    t = np.concatenate([nodes, np.linspace(0.0, 12.0, 1001), [-1.0, 13.0, 1e-300]])
    grid = profile.rates_on(t)
    fns = (profile.gamma1, profile.gamma2, profile.gamma3, profile.omega)
    scalar = np.array([[fn(x) for x in t.tolist()] for fn in fns])
    np.testing.assert_array_equal(scalar, grid)


def test_rates_on_calls_each_rate_once_and_lets_its_exceptions_through():
    calls = []

    def gamma2(t):
        calls.append(t)
        return 1.0 / (t - 2.0)

    profile = RateProfile(gamma1=lambda t: 0.5 * t, gamma2=gamma2, omega=lambda t: 3)
    out = profile.rates_on([0.0, 1.0, 4.0])
    # one call on the whole grid, and a constant broadcast over it
    assert len(calls) == 1 and isinstance(calls[0], np.ndarray)
    np.testing.assert_array_equal(out, [[0.0, 0.5, 2.0], [-0.5, -1.0, 0.5],
                                        [0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])
    # a divergence is its non-finite value, without a numpy warning
    assert profile.rates_on([2.0])[1, 0] == math.inf

    def undefined(t):
        if np.any(t == 1.0):
            raise ZeroDivisionError("undefined at t = 1")
        return 0.0 * t

    # an exception is never recorded as NaN: not one of the rate's own, nor
    # that of a rate written for one float only
    for rate, error in ((undefined, ZeroDivisionError), (math.cos, TypeError),
                        (lambda t: 0.4 if t < 1.3 else 1.2, ValueError)):
        for prof in (RateProfile(gamma3=rate),
                     combine_profiles(RateProfile(gamma3=rate), constant_profile(gamma3=1.0))):
            with pytest.raises(error):
                prof.rates_on([0.0, 1.0, 4.0])


def test_combined_profile_sums_only_the_nonzero_parts():
    thermal = thermal_profile(ThermalParams(R=0.3, N=1.0))
    ohmic = ohmic_profile(OhmicParams(alpha=0.1, s=2.0))
    both = combine_profiles(thermal, ohmic)
    # a lone nonzero part is the combined rate itself, no part gives _zero
    assert both.gamma1 is thermal.gamma1 and both.gamma2 is thermal.gamma2
    assert both.gamma3 is ohmic.gamma3 and both.omega is coeffs._zero
    twice = combine_profiles(thermal, ohmic, thermal)
    for t in (0.0, 0.7, 4.0):
        assert twice.gamma2(t) == math.fsum([thermal.gamma2(t)] * 2)
        assert twice.rates(t)[2] == ohmic.gamma3(t)


def test_window_beyond_the_singular_reach_is_refused():
    # R = 10 has an unlisted pole at 0.8242 when the list stops at 0.5
    prof = thermal_profile(ThermalParams(R=10.0), t_max=0.5)
    assert prof.singular_reach == 0.5 and prof.singular_points == ()
    with pytest.raises(ValueError, match="singular points only up to t = 0.5"):
        integrate_profile(prof, [0.2, 2.0])
    assert integrate_profile(prof, [0.5])[0].Gamma > 0.0
    # the combined profile keeps the shortest reach
    both = combine_profiles(prof, thermal_profile(ThermalParams(R=0.25)))
    assert both.singular_reach == 0.5
    assert thermal_profile(ThermalParams(R=0.25), t_max=0.5).singular_reach == math.inf


def _refuse_integrators(monkeypatch):
    """Make any call to QUADPACK or the ODE solver fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("integrator called")

    monkeypatch.setattr(coeffs, "quad", refuse)
    monkeypatch.setattr(coeffs, "solve_ivp", refuse)


def test_g_across_a_listed_jump_calls_no_integrator(monkeypatch):
    # gamma2 jumps from 0.4 to 1.2 at t = 1, listed as a singular point:
    # Gamma = 0.2 t, then 0.2 + 0.6 (t - 1), and g = 1 - exp(-Gamma)
    _refuse_integrators(monkeypatch)
    window_end, sampled = [math.inf], []

    def gamma2(t):
        # the panels sample the rate inside the window only, never at the point
        sampled.append(t)
        if np.any(t > window_end[0]):
            raise ValueError(f"rate sampled at t = {t!r}, past {window_end[0]!r}")
        return _step(t, 1.0, 0.4, 1.2)

    prof = RateProfile(gamma2=gamma2, singular_points=(1.0,))

    def big_gamma(t):
        return 0.2 * t if t <= 1.0 else 0.2 + 0.6 * (t - 1.0)

    # the cut between two grid times, and on one
    for times in ([0.5, 1.5, 2.0, 2.5, 3.0], [0.0, 0.5, 1.0, 2.0]):
        window_end[0] = times[-1]
        for c in integrate_profile(prof, times):
            assert c.Gamma == pytest.approx(big_gamma(c.t), rel=1e-12, abs=1e-15)
            assert c.g == pytest.approx(-math.expm1(-big_gamma(c.t)),
                                        rel=1e-10, abs=1e-15)
    assert not np.isin(1.0, np.concatenate(sampled))


def test_integrator_seams_stay_rebindable(monkeypatch):
    # the routes call coeffs.quad, coeffs.solve_ivp and mesolve.solve_ivp
    # as module globals, so that a wrapper put there sees every call
    calls = {}

    def count(module, name):
        key, fn = f"{module.__name__.rsplit('.', 1)[1]}.{name}", getattr(module, name)
        calls[key] = 0

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module, name in ((coeffs, "quad"), (coeffs, "solve_ivp"), (mesolve, "solve_ivp")):
        count(module, name)
    profile = constant_profile(0.2, 0.6, 0.1, 0.5)
    n = 7
    times = np.linspace(0.0, 3.0, n)
    integrate_profile(profile, times)
    # no singular point: vectorised Gauss-Kronrod, g included, and no ODE pass
    assert calls == {"coeffs.quad": 0, "coeffs.solve_ivp": 0, "mesolve.solve_ivp": 0}
    integrate_me(profile, np.diag([0.3, 0.7]), 3.0, t_eval=times)
    assert calls == {"coeffs.quad": 0, "coeffs.solve_ivp": 0, "mesolve.solve_ivp": 1}


def test_interval_with_a_singular_point_calls_no_ode_solver(monkeypatch):
    # smooth rates with a listed point at t = 1.3, inside [1, 1.5]: g is
    # stepped across the two panels that the point cuts it into
    _refuse_integrators(monkeypatch)
    prof = dataclasses.replace(constant_profile(0.2, 0.6), singular_points=(1.3,))
    times = np.linspace(0.0, 3.0, 7)
    out = integrate_profile(prof, times)
    exact = markovian_coefficients(0.2, 0.6, 0.0, 0.0, times)
    np.testing.assert_allclose([c.g for c in out], exact.g, rtol=1e-10, atol=1e-15)


def test_g_that_overflows_is_refused():
    # gamma1 = gamma2 = -10: g grows like -e^(10 t) and leaves the float
    # range near t = 71, inside an interval whose panel is accepted
    with pytest.raises(ToleranceError, match="g is not finite at t = 71.2"):
        integrate_profile(constant_profile(-10.0, -10.0), np.linspace(1.0, 100.0, 400))


def test_growth_past_the_last_node_is_not_lost():
    # gamma2 = 2 on one grid interval [0, w]: from w of about 3e5, exp(-D)
    # underflows on every Kronrod node, so that the panel's growth read 0
    # with an error of 0; g = 1 - exp(-w) is 1 to double precision
    for w in (1e4, 1e6, 1e8):
        c = integrate_profile(constant_profile(0.0, 2.0), [w])[0]
        assert c.g == pytest.approx(1.0, rel=1e-12)


def test_interval_with_a_singular_point_calls_no_quadpack(monkeypatch):
    # gamma2 jumps at t = 1.3, listed, inside the grid interval [1, 1.5],
    # which the point cuts into two panels
    _refuse_integrators(monkeypatch)
    prof = RateProfile(gamma2=lambda t: _step(t, 1.3, 0.4, 1.2), gamma3=np.cos,
                       singular_points=(1.3,))
    times = np.linspace(0.0, 3.0, 7)
    out = integrate_profile(prof, times)
    for c in out:
        big_gamma = 0.2 * c.t if c.t <= 1.3 else 0.26 + 0.6 * (c.t - 1.3)
        assert c.Gamma == pytest.approx(big_gamma, rel=1e-12, abs=1e-15)
        assert c.GammaTilde == pytest.approx(math.sin(c.t), rel=1e-10, abs=1e-15)


def test_gauss_kronrod_rule_is_quadpacks():
    # qk21 integrates polynomials to degree 31 exactly, and its Gauss
    # nodes and weights are the 10-point Gauss-Legendre rule
    nodes, kronrod, gauss = coeffs._KRONROD_NODES, *coeffs._RULES.T
    for degree in range(33):
        exact = (1 + (-1) ** degree) / (degree + 1)
        error = abs(kronrod @ nodes ** degree - exact)
        assert error <= 1e-15 if degree <= 31 else error > 1e-12
    x, w = np.polynomial.legendre.leggauss(10)
    np.testing.assert_allclose(nodes[gauss > 0], x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(gauss[gauss > 0], w, rtol=0, atol=1e-15)


def test_non_finite_rate_on_an_unlisted_interval_is_refused():
    # NaN on part of [1, 1.5], where no singular point is listed
    prof = RateProfile(gamma3=lambda t: np.where((1.2 < t) & (t < 1.4), math.nan, 1.0)[()])
    with pytest.raises(ToleranceError, match="quadrature did not converge") as err:
        integrate_profile(prof, [0.5, 1.0, 1.5, 2.0])
    lo, hi = err.value.interval
    assert 1.0 <= lo < hi <= 1.5
    assert err.value.abserr == math.inf


def test_unmeetable_tolerance_is_refused():
    # below the rule's roundoff floor, no panel can meet it, however narrow
    prof = constant_profile(gamma1=0.3, gamma2=0.5, omega=1.0)
    cfg = QuadratureConfig(1e-300, 1e-300)
    with pytest.raises(ToleranceError, match="quadrature did not converge") as err:
        integrate_profile(prof, [0.5, 1.0, 1.5, 2.0], cfg)
    lo, hi = err.value.interval
    assert 0.0 <= lo < hi <= 2.0
    # the floor: 50 eps times the integral of |f| over the panel
    assert err.value.abserr >= 50 * np.finfo(float).eps * 0.4 * (hi - lo)


def _narrow_peak(width=1e-3, centre=0.777):
    """A profile whose gamma3 is a Lorentzian of the given width, which one
    21-node panel cannot resolve, and int_0^t gamma3 in closed form."""
    prof = RateProfile(gamma3=lambda t: width / ((t - centre) ** 2 + width ** 2))
    return prof, lambda t: np.arctan((t - centre) / width) + np.arctan(centre / width)


def test_bisection_takes_the_intervals_one_panel_cannot_resolve(monkeypatch):
    _refuse_integrators(monkeypatch)
    panels = []
    qk21 = coeffs._qk21

    def recording(profile, a, b):
        panels.append((a, b))
        return qk21(profile, a, b)

    monkeypatch.setattr(coeffs, "_qk21", recording)
    prof, exact = _narrow_peak()
    times = np.linspace(0.25, 2.0, 8)
    np.testing.assert_allclose([c.GammaTilde for c in integrate_profile(prof, times)],
                               exact(times), rtol=1e-10)
    # past level 0, only the interval around the peak at 0.777 and the one
    # before it are halved; the other intervals pass in one panel
    assert len(panels) > 1
    assert all(a.min() >= 0.5 and b.max() <= 1.0 for a, b in panels[1:])


@pytest.mark.parametrize("rel_tol", [1e-8, 1e-12])
def test_summed_error_of_a_bisected_interval_meets_the_tolerance(monkeypatch, rel_tol):
    # the panels that tile a grid interval are accepted together: the sum
    # of their error estimates is held to the interval's tolerance, not
    # each panel's alone
    panels = []
    qk21 = coeffs._qk21

    def recording(profile, a, b):
        value, err = qk21(profile, a, b)
        panels.extend(zip(a.tolist(), b.tolist(), value[1].tolist(), err[1].tolist()))
        return value, err

    monkeypatch.setattr(coeffs, "_qk21", recording)
    prof, exact = _narrow_peak()
    times = [0.5, 1.0]
    cfg = QuadratureConfig(rel_tol=rel_tol, abs_tol=1e-300)
    got = integrate_profile(prof, times, cfg)[-1].GammaTilde - exact(0.5)
    halved = {(a, b) for a, b, _, _ in panels}
    leaves = sorted((a, b, v, e) for a, b, v, e in panels
                    if (a, 0.5 * (a + b)) not in halved and a >= 0.5)
    starts, ends, values, errors = np.array(leaves).T
    assert starts[0] == 0.5 and ends[-1] == 1.0
    np.testing.assert_array_equal(starts[1:], ends[:-1])
    assert len(leaves) > 10
    assert errors.sum() <= rel_tol * abs(values.sum())
    assert abs(got - (exact(1.0) - exact(0.5))) <= rel_tol * got


def test_error_that_halving_does_not_shrink_is_refused():
    # a ripple far finer than any panel leaves each panel an error estimate
    # of about 6e-10 per unit width: eight panels would each meet
    # rel_tol = 1e-10 while their sum, 6e-10, misses it six times over
    prof = RateProfile(gamma3=lambda t: 1.0 + 1e-9 * np.sin(1e7 * t))
    with pytest.raises(ToleranceError, match="quadrature did not converge") as err:
        integrate_profile(prof, [1.0])
    lo, hi = err.value.interval
    assert 0.0 <= lo < hi <= 1.0


def test_blocks_of_intervals_give_the_same_integrals(monkeypatch):
    # a long grid is evaluated a block of panels at a time; blocks of 7
    # over 49 intervals, the narrow peak in one of them, change no value
    # beyond the rounding of a matrix product of another shape
    prof, exact = _narrow_peak()
    times = np.linspace(0.04, 2.0, 50)
    whole = [c.GammaTilde for c in integrate_profile(prof, times)]
    monkeypatch.setattr(coeffs, "_BLOCK", 7)
    blocks = [c.GammaTilde for c in integrate_profile(prof, times)]
    np.testing.assert_allclose(blocks, whole, rtol=1e-14, atol=0)
    np.testing.assert_allclose(blocks, exact(times), rtol=1e-10)


def test_integer_window_ends_are_taken_as_times():
    # the window [0, 2] needs bisection, which gets it as floats
    prof, exact = _narrow_peak()
    assert integrate_profile(prof, [2])[0].GammaTilde == pytest.approx(exact(2.0), rel=1e-10)


def test_ode_seam_is_one_lsoda_pass_through_its_times():
    sampled = []

    def rhs(t, y):
        sampled.append(t)
        return [-0.5 * y[0], 0.25]

    # t[0] is the initial time, and LSODA never steps past t[-1]
    t = np.array([0.5, 1.0, 1.5, 2.0])
    sol = coeffs.solve_ivp(rhs, t, [1.0, 0.0], 1e-12, 1e-14)
    assert sol.stop is None and sol.nfev == len(sampled) > 0
    assert sol.y.shape == (4, 2) and max(sampled) <= 2.0
    np.testing.assert_array_equal(sol.y[0], [1.0, 0.0])
    np.testing.assert_allclose(sol.y[:, 0], np.exp(-0.5 * (t - 0.5)), rtol=1e-10)
    np.testing.assert_allclose(sol.y[:, 1], 0.25 * (t - 0.5), rtol=1e-10)
    assert set(vars(sol)) == {"y", "nfev", "stop"}

    # a failed pass stops where ODEPACK stopped, with its message, and
    # warns not; the rows up to there are kept
    def diverges(t, y):
        return [math.inf if t >= 1.2 else -y[0]]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = coeffs.solve_ivp(diverges, np.array([0.0, 0.5, 1.0, 2.0, 3.0]), [1.0],
                               1e-10, 1e-12)
    time, reason = sol.stop
    assert 1.0 < time <= 1.2 and "successful" not in reason
    assert sol.y.shape == (4, 1) and sol.nfev > 0
    np.testing.assert_allclose(sol.y[:3, 0], np.exp(-np.array([0.0, 0.5, 1.0])), rtol=1e-8)

    # a state that is not finite stops it at the first time that reports one
    def lost(t, y):
        return [-y[0] if t <= 1.0 else math.nan]

    sol = coeffs.solve_ivp(lost, np.array([0.0, 0.5, 2.0, 3.0]), [1.0], 1e-10, 1e-12)
    assert sol.stop == (2.0, "the state is not finite")
    assert sol.y.shape == (3, 1) and np.isnan(sol.y[-1, 0])


def _random_table(seed, nodes=41, t_end=10.0, lo=-0.6, hi=2.0):
    """Sorted random nodes on [0, t_end] and random rates, some negative."""
    rng = np.random.default_rng(seed)
    t = np.sort(np.concatenate([[0.0, t_end], rng.uniform(0.0, t_end, nodes - 2)]))
    return t, rng.uniform(lo, hi, (4, nodes))


def _interpolating_profile(nodes, rates):
    return RateProfile(*(lambda x, v=v: np.interp(x, nodes, v) for v in rates))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_piecewise_linear_route_matches_quadrature_on_the_nodes(seed):
    nodes, rates = _random_table(seed)
    exact = piecewise_linear_coefficients(nodes, rates, nodes)
    # on a grid of the nodes every quadrature panel sees a linear integrand
    quad_route = integrate_profile(_interpolating_profile(nodes, rates), nodes[1:])
    for name, tol in (("Gamma", 1e-12), ("GammaTilde", 1e-12), ("Omega", 1e-12),
                      ("g", 1e-8)):
        ref = np.array([0.0] + [getattr(c, name) for c in quad_route])
        np.testing.assert_allclose(getattr(exact, name), ref, rtol=0.0, atol=tol)
    np.testing.assert_array_equal(exact.t, nodes)


def test_piecewise_linear_g_matches_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        _check_g_against_mpmath(mpmath)


def _check_g_against_mpmath(mpmath):
    nodes, rates = _random_table(7)
    ts = [mpmath.mpf(float(x)) for x in nodes]
    a = [(mpmath.mpf(g1) + g2) / 2
         for g1, g2 in zip(rates[0].tolist(), rates[1].tolist())]
    b = [mpmath.mpf(g2) / 2 for g2 in rates[1].tolist()]
    # Gamma at the nodes, then exactly quadratic on each piece
    at_node = [mpmath.mpf(0)]
    for i in range(len(ts) - 1):
        at_node.append(at_node[-1] + (ts[i + 1] - ts[i]) * (a[i] + a[i + 1]) / 2)

    def on_piece(values, i, s):
        lam = (s - ts[i]) / (ts[i + 1] - ts[i])
        return values[i] + (values[i + 1] - values[i]) * lam

    def gamma_at(i, s):
        return at_node[i] + (s - ts[i]) * (a[i] + on_piece(a, i, s)) / 2

    times = np.array([0.0, 0.37, 2.5, 6.1, 10.0])
    got = piecewise_linear_coefficients(nodes, rates, times).g
    for t, g in zip(times[1:].tolist(), got[1:].tolist()):
        end = mpmath.mpf(t)
        last = max(i for i in range(len(ts) - 1) if ts[i] < end)
        total = gamma_at(last, end)
        ref = mpmath.fsum(
            mpmath.quad(lambda s, i=i: mpmath.exp(gamma_at(i, s) - total)
                        * on_piece(b, i, s), [ts[i], min(ts[i + 1], end)])
            for i in range(last + 1))
        assert abs(g - float(ref)) <= 1e-12 * max(1.0, abs(float(ref)))


@pytest.mark.parametrize("gamma2", [1e4, 1e12])
def test_piecewise_linear_route_on_a_stiff_table(gamma2):
    nodes = np.linspace(0.0, 10.0, 11)
    rates = np.zeros((4, 11))
    rates[1] = gamma2
    t = np.linspace(0.0, 10.0, 201)
    c = piecewise_linear_coefficients(nodes, rates, t)
    np.testing.assert_allclose(c.g, -np.expm1(-0.5 * gamma2 * t), rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(c.Gamma, 0.5 * gamma2 * t, rtol=1e-14)


def test_piecewise_linear_route_between_and_beyond_the_nodes():
    # a grid that starts after 0, ends between two nodes and misses most
    # of them; a table that starts before 0
    nodes, rates = _random_table(4, nodes=21, t_end=6.0)
    nodes = nodes - 1.0
    times = np.array([0.25, 1.0, 3.3, 4.9])
    got = piecewise_linear_coefficients(nodes, rates, times)
    fine = np.union1d(np.linspace(0.0, 4.9, 50), nodes[(nodes > 0) & (nodes < 4.9)])
    fine = np.union1d(fine, times)
    ref = piecewise_linear_coefficients(nodes, rates, fine)
    at = np.searchsorted(fine, times)
    for name in ("Gamma", "GammaTilde", "Omega", "g"):
        np.testing.assert_allclose(getattr(got, name), getattr(ref, name)[at],
                                   rtol=1e-13, atol=1e-15)


def test_piecewise_linear_route_refuses_a_bad_table():
    # np.interp needs increasing nodes: the same table in the node order
    # (0, 2, 1) gave Gamma(2) = 0.675, against 0.775 from the sorted one
    nodes, rates = np.array([0.0, 1.0, 2.0]), np.array([[0.1, 0.3, 0.5], [0.2, 0.4, 0.9],
                                                         [0.0] * 3, [0.0] * 3])
    times = [1.0, 2.0]
    assert piecewise_linear_coefficients(nodes, rates, times).Gamma[-1] == \
        pytest.approx(0.775, rel=1e-14)
    nan_rates = rates.copy()
    nan_rates[1, 1] = math.nan
    for table, message in (((nodes[[0, 2, 1]], rates[:, [0, 2, 1]]), "strictly increasing"),
                           (([0.0, 1.0, 1.0], rates), "strictly increasing"),
                           (([0.0, math.nan, 2.0], rates), "strictly increasing"),
                           ((nodes, nan_rates), "rates must be finite"),
                           ((nodes, rates[:, :2]), r"shape \(4, 3\)"),
                           ((nodes, rates[:3]), r"shape \(4, 3\)")):
        with pytest.raises(ValueError, match=message):
            piecewise_linear_coefficients(*table, times)
