import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from phasecov import (CoefficientSet, QuadratureConfig, RateProfile,
                      ThermalParams, ToleranceError, combine_profiles,
                      constant_profile, integrate_profile, markovian_coefficients,
                      segment_coefficients, thermal_closed_form,
                      thermal_profile, weak_coupling_integrals)
from phasecov.cli import RATES_HEADER, RunConfig, _tabulated_profile
from phasecov.models import OhmicParams, ohmic_closed_form, ohmic_profile


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
    gamma1 = lambda t: 0.3 * (1.0 + math.sin(t))
    gamma2 = lambda t: 0.5 * (1.0 + 0.5 * math.cos(0.7 * t))
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


def test_weak_coupling_integrals():
    assert weak_coupling_integrals(RateProfile(), 4.0) == (0.0, 0.0, 0.0)

    i1, i2, i3 = weak_coupling_integrals(
        thermal_profile(ThermalParams(R=0.25, N=1.0)), 5.0)
    assert i1 > 0 and i2 > 0 and i3 == 0.0

    # dephasing rate goes negative past u = 1 for s = 3 (paper kernel),
    # but its integral stays nonnegative; oracle is the closed form
    p = OhmicParams(alpha=0.1, s=3.0, omega_c=1.0, T=0.0, kernel="paper")
    t = 3.0
    _, _, i3 = weak_coupling_integrals(ohmic_profile(p), t)
    assert i3 >= 0.0
    assert i3 == pytest.approx(ohmic_closed_form(p, t)[1], rel=1e-7)


def test_segment_coefficients_compose():
    prof = thermal_profile(ThermalParams(R=0.45, N=0.5))
    s, t = 1.3, 4.0
    full = integrate_profile(prof, [s, t])
    seg = segment_coefficients(prof, s, t)
    assert seg.Gamma == pytest.approx(full[1].Gamma - full[0].Gamma, rel=1e-9)
    # g of the segment reproduces P1(t) from P1(s)
    p1_s = full[0].g
    p1_t = math.exp(-seg.Gamma) * p1_s + seg.g
    assert p1_t == pytest.approx(full[1].g, rel=1e-9)
    assert segment_coefficients(prof, 2.0, 2.0) == CoefficientSet.identity(2.0)
    with pytest.raises(ValueError):
        segment_coefficients(prof, 3.0, 1.0)


def test_quadrature_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=-1e-9)


def _tabulated(tmp_path):
    t = np.linspace(0.0, 12.0, 97)
    table = np.column_stack([t, 0.2 + 0.1 * np.sin(t), 0.5 * np.exp(-t / 3),
                             np.cos(1.7 * t), 0.3 * t])
    path = tmp_path / "rates.csv"
    np.savetxt(path, table, delimiter=",", header=RATES_HEADER, comments="")
    return _tabulated_profile(RunConfig(model="tabulated", rates_file=str(path),
                                        t_max=12.0))


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
        assert profile.grid_rates is not None
        # the listed poles are on the grid, where the rates are infinite
        t = np.union1d(np.linspace(0.0, 12.0, 2049), profile.singular_points)
        grid = profile.rates_on(t)
        points = dataclasses.replace(profile, grid_rates=None).rates_on(t)
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


def test_rates_on_falls_back_to_the_callables():
    def gamma2(t):
        if t == 1.0:
            raise ZeroDivisionError
        return 1.0 / (t - 2.0) if t < 3.0 else math.sqrt(-t)

    profile = RateProfile(gamma1=lambda t: 0.5 * t, gamma2=gamma2,
                          omega=lambda t: 3)
    assert profile.grid_rates is None
    out = profile.rates_on([0.0, 1.0, 4.0])
    np.testing.assert_array_equal(out, [[0.0, 0.5, 2.0], [-0.5, math.nan, math.nan],
                                        [0.0, 0.0, 0.0], [3.0, 3.0, 3.0]])
    # one part without the array form leaves the sum without it too
    assert combine_profiles(profile, constant_profile(1.0)).grid_rates is None


def test_window_beyond_the_singular_reach_is_refused():
    # R = 10 has an unlisted pole at 0.8242 when the list stops at 0.5
    prof = thermal_profile(ThermalParams(R=10.0), t_max=0.5)
    assert prof.singular_reach == 0.5 and prof.singular_points == ()
    for call in (lambda: integrate_profile(prof, [0.2, 2.0]),
                 lambda: segment_coefficients(prof, 0.1, 2.0),
                 lambda: weak_coupling_integrals(prof, 2.0)):
        with pytest.raises(ValueError, match="singular points only up to t = 0.5"):
            call()
    assert integrate_profile(prof, [0.5])[0].Gamma > 0.0
    # the combined profile keeps the shortest reach
    both = combine_profiles(prof, thermal_profile(ThermalParams(R=0.25)))
    assert both.singular_reach == 0.5
    assert thermal_profile(ThermalParams(R=0.25), t_max=0.5).singular_reach == math.inf
