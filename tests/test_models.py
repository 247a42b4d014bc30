import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from phasecov import (ThermalParams, amplitude_memory,
                      integrate_profile, markov_rate_limit,
                      thermal_closed_form, thermal_profile, thermal_zeros)
from phasecov.models import (KERNELS, OhmicParams, OhmicSeries,
                             ohmic_closed_form, ohmic_gamma_tilde,
                             ohmic_profile, ohmic_rate)

R_GRID = (0.1, 0.3, 0.5, 0.7, 2.0, 10.0)


def _c_ratio(R, tau):
    # reference memory amplitude straight from its defining expression,
    # complex arithmetic so one formula covers every R
    if abs(1.0 - 2.0 * R) < 1e-12:
        return math.exp(-tau / 2.0) * (1.0 + tau / 2.0)
    d = complex(1.0 - 2.0 * R) ** 0.5
    z = d * tau / 2.0
    val = np.exp(-tau / 2.0) * (np.cosh(z) + np.sinh(z) / d)
    return val.real


class TestAmplitudeMemory:
    def test_small_coupling_is_frozen(self):
        for tau in (0.0, 1.0, 10.0):
            m = amplitude_memory(1e-12, tau)
            assert m.x == pytest.approx(1.0, abs=1e-9)
            assert m.f == pytest.approx(0.0, abs=1e-9)

    def test_initial_point(self):
        for R in R_GRID:
            m = amplitude_memory(R, 0.0)
            assert m.x == 1.0
            assert m.f == 0.0
            # cdot(0) = 0 by finite differences on the reference c
            h = 1e-6
            cdot = (_c_ratio(R, h) - _c_ratio(R, 0.0)) / h
            assert abs(cdot) < 1e-5

    def test_matches_reference_expression(self):
        for R in R_GRID:
            for tau in (0.3, 1.7, 6.0):
                m = amplitude_memory(R, tau)
                assert m.c_ratio == pytest.approx(_c_ratio(R, tau), abs=1e-12)

    def test_first_zero_R10(self):
        # root-find oracle on the reference c; tan(sqrt(19) tau/2) = -sqrt(19)
        root = brentq(lambda t: _c_ratio(10.0, t), 0.5, 1.2, xtol=1e-14)
        assert root == pytest.approx(0.8242034311692071, abs=1e-12)
        m = amplitude_memory(10.0, root)
        assert m.x < 1e-12
        just_before = amplitude_memory(10.0, root - 1e-4)
        just_after = amplitude_memory(10.0, root + 1e-4)
        assert just_before.f > 1e3
        assert just_after.f < -1e3

    def test_degenerate_coupling(self):
        m = amplitude_memory(0.5, 2.0)
        assert m.x == pytest.approx(4.0 * math.exp(-2.0), rel=1e-12)
        # continuous across the R = 1/2 branch switch
        lo = amplitude_memory(0.5 - 1e-9, 2.0)
        hi = amplitude_memory(0.5 + 1e-9, 2.0)
        assert lo.x == pytest.approx(m.x, rel=1e-7)
        assert hi.x == pytest.approx(m.x, rel=1e-7)

    def test_no_overflow_at_long_times(self):
        m = amplitude_memory(0.01, 5000.0)
        assert math.isfinite(m.f) and 0.0 <= m.x <= 1.0

    def test_argument_errors(self):
        with pytest.raises(ValueError):
            amplitude_memory(0.0, 1.0)
        with pytest.raises(ValueError):
            amplitude_memory(1.0, -0.5)

    def test_x_bounded_and_monotonicity_split(self):
        taus = np.arange(0.0, 10.0, 1e-3)
        for R in R_GRID:
            x = np.array([amplitude_memory(R, t).x for t in taus])
            assert np.all(x >= 0.0) and np.all(x <= 1.0 + 1e-12)
            rises = np.any(np.diff(x) > 1e-12)
            if R <= 0.5:
                assert not rises
            else:
                assert rises
                # local minimum followed by a local maximum
                dx = np.diff(x)
                first_up = np.argmax(dx > 1e-12)
                assert np.any(dx[first_up:] < -1e-12)


class TestThermalProfile:
    def test_zero_temperature_has_no_heating(self):
        prof = thermal_profile(ThermalParams(R=0.25, N=0.0))
        assert all(prof.gamma1(t) == 0.0 for t in (0.0, 1.0, 5.0))

    def test_rate_combination(self):
        p = ThermalParams(R=0.3, N=2.0)
        prof = thermal_profile(p)
        for t in (0.5, 2.0, 7.0):
            f = amplitude_memory(p.R, t).f
            half = 0.5 * (prof.gamma1(t) + prof.gamma2(t))
            assert half == pytest.approx((2 * p.N + 1) * f, rel=1e-12)

    def test_weak_coupling_rates_nonnegative(self):
        prof = thermal_profile(ThermalParams(R=0.25, N=1.0))
        for t in np.linspace(0.0, 10.0, 400):
            assert prof.gamma1(t) >= 0.0
            assert prof.gamma2(t) >= 0.0

    def test_singular_points_are_roots_of_c(self):
        zeros = thermal_zeros(10.0, 10.0)
        assert len(zeros) > 2
        for z in zeros:
            assert abs(_c_ratio(10.0, z)) < 1e-9
        assert thermal_zeros(0.3, 100.0) == ()


class TestThermalClosedForm:
    def test_initial_values(self):
        assert thermal_closed_form(ThermalParams(R=0.7, N=2.0), 0.0) == (0.0, 0.0)

    def test_stationary_population(self):
        gamma, g = thermal_closed_form(ThermalParams(R=0.25, N=1.0), 500.0)
        assert g == pytest.approx(2.0 / 3.0, abs=1e-10)
        gamma, g = thermal_closed_form(ThermalParams(R=0.25, N=0.0), 500.0)
        assert g == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("R,t_grid", [
        (0.25, np.linspace(0.1, 10.0, 12)),
        (10.0, np.linspace(0.05, 0.7, 8)),  # below the first zero of c
    ])
    def test_matches_quadrature(self, R, t_grid):
        p = ThermalParams(R=R, N=1.5)
        prof = thermal_profile(p)
        for c in integrate_profile(prof, list(t_grid)):
            gamma_cf, g_cf = thermal_closed_form(p, c.t)
            assert c.Gamma == pytest.approx(gamma_cf, rel=1e-8)
            assert c.g == pytest.approx(g_cf, rel=1e-8)

    def test_map_positivity_bounds(self):
        # 0 <= g and g + x^(2N+1) <= 1 keep every evolved P1 inside [0, 1]
        for R in R_GRID:
            for N in (0.0, 0.5, 1.0, 5.0):
                p = ThermalParams(R=R, N=N)
                for t in np.linspace(0.0, 12.0, 200):
                    gamma, g = thermal_closed_form(p, t)
                    decay = math.exp(-gamma)
                    assert -1e-12 <= g <= 1.0 + 1e-12
                    assert g + decay <= 1.0 + 1e-12


def _assert_same_cells(array, scalar):
    """Array results against per-point scalar calls.

    The non-finite cells are the same and equal; the rest agree to rtol
    1e-14.  Near x = 1, -ln x is accurate in absolute rather than
    relative terms, so the last-bit difference between numpy's and
    libm's exp needs the absolute floor of 1e-14.
    """
    finite = np.isfinite(scalar)
    np.testing.assert_array_equal(np.isfinite(array), finite)
    np.testing.assert_array_equal(array[~finite], scalar[~finite])
    np.testing.assert_allclose(array[finite], scalar[finite], rtol=1e-14, atol=1e-14)


class TestArrayClosedForms:
    @pytest.mark.parametrize("R", [0.02, 0.25, 0.4999999, 0.5, 0.5000001, 2.0, 20.0])
    @pytest.mark.parametrize("N", [0.0, 1.3])
    def test_thermal_equals_scalar_calls(self, R, N):
        p = ThermalParams(R=R, N=N)
        # the listed poles are on the grid, where x = 0 and Gamma = +inf
        zeros = thermal_zeros(R, 12.0)
        t = np.union1d(np.linspace(0.0, 12.0, 1025), zeros)
        gamma, g = thermal_closed_form(p, t)
        scalar = np.array([thermal_closed_form(p, x) for x in t.tolist()]).T
        _assert_same_cells(gamma, scalar[0])
        _assert_same_cells(g, scalar[1])
        assert np.isinf(gamma).any() == bool(zeros)
        assert gamma[0] == 0.0 and math.copysign(1.0, gamma[0]) == 1.0
        assert type(thermal_closed_form(p, 1.0)[0]) is float

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("s", [0.5, 1.0, 1.0 + 1e-10, 2.0, 3.5])
    def test_ohmic_equals_scalar_calls(self, kernel, s):
        # s = 1 and 1 + 1e-10 take the literature kernel's ln(1 + u^2) limit
        p = OhmicParams(alpha=0.1, s=s, omega_c=1.3, T=0.0, kernel=kernel)
        t = np.linspace(0.0, 40.0, 1025)
        rate, tilde = ohmic_closed_form(p, t)
        scalar = np.array([ohmic_closed_form(p, x) for x in t.tolist()]).T
        _assert_same_cells(rate, scalar[0])
        _assert_same_cells(tilde, scalar[1])
        assert not isinstance(ohmic_closed_form(p, 1.0)[1], np.ndarray)

    def test_negative_time_in_an_array_is_refused(self):
        with pytest.raises(ValueError):
            thermal_closed_form(ThermalParams(R=0.25), np.array([0.0, -1e-3]))
        with pytest.raises(ValueError):
            ohmic_closed_form(OhmicParams(alpha=0.1, s=1.0), np.array([1.0, -1.0]))


class TestOhmicRate:
    def test_zero_time(self):
        p = OhmicParams(alpha=0.2, s=2.0)
        assert ohmic_rate(p, 0.0) == 0.0
        assert ohmic_closed_form(p, 0.0) == (0.0, 0.0)

    def test_s1_paper_kernel_closed_form(self):
        # 4 alpha w_c u / (1 + u^2)^2
        alpha, wc = 0.1, 1.3
        p = OhmicParams(alpha=alpha, s=1.0, omega_c=wc, T=0.0, kernel="paper")
        for u in (0.2, 1.0, 4.0):
            t = u / wc
            expected = 4.0 * alpha * wc * u / (1.0 + u * u) ** 2
            assert ohmic_closed_form(p, t)[0] == pytest.approx(expected, rel=1e-12)
            assert ohmic_rate(p, t) == pytest.approx(expected, rel=1e-7)

    @pytest.mark.parametrize("kernel", ["paper", "literature"])
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0])
    def test_quadrature_matches_closed_form(self, kernel, s):
        p = OhmicParams(alpha=0.1, s=s, omega_c=1.0, T=0.0, kernel=kernel)
        for u in np.geomspace(0.1, 10.0, 8):
            rate_cf, _ = ohmic_closed_form(p, u)
            assert ohmic_rate(p, u) == pytest.approx(rate_cf, rel=1e-7, abs=1e-12)

    def test_sign_change_thresholds(self):
        u = np.geomspace(1e-3, 200.0, 4000)
        for s, expect_negative in ((0.5, False), (1.0, False), (1.5, True), (3.0, True)):
            p = OhmicParams(alpha=0.1, s=s, kernel="paper")
            rates = np.array([ohmic_closed_form(p, t)[0] for t in u])
            assert (rates < -1e-15).any() == expect_negative
        for s, expect_negative in ((1.0, False), (2.0, False), (2.5, True), (3.0, True)):
            p = OhmicParams(alpha=0.1, s=s, kernel="literature")
            rates = np.array([ohmic_closed_form(p, t)[0] for t in u])
            assert (rates < -1e-15).any() == expect_negative

    def test_first_zero_locations(self):
        # paper kernel, s = 3: sin(4 atan u) first vanishes at u = 1
        p = OhmicParams(alpha=0.1, s=3.0, kernel="paper")
        root = brentq(lambda t: ohmic_closed_form(p, t)[0], 0.5, 1.5, xtol=1e-13)
        assert root == pytest.approx(1.0, abs=1e-10)
        # literature kernel, s = 3: sin(3 atan u) first vanishes at u = sqrt(3)
        p = OhmicParams(alpha=0.1, s=3.0, kernel="literature")
        root = brentq(lambda t: ohmic_closed_form(p, t)[0], 1.0, 2.5, xtol=1e-13)
        assert root == pytest.approx(math.sqrt(3.0), abs=1e-10)


class TestOhmicDecoherence:
    def test_reference_value_s1_u1(self):
        p = OhmicParams(alpha=0.37, s=1.0, omega_c=1.0, T=0.0, kernel="paper")
        assert ohmic_closed_form(p, 1.0)[1] == pytest.approx(0.37, rel=1e-12)

    def test_accumulated_dephasing_nonnegative(self):
        for kernel in ("paper", "literature"):
            for s in (0.3, 0.5, 1.0, 2.0, 3.0, 5.0):
                p = OhmicParams(alpha=0.1, s=s, kernel=kernel)
                for u in np.geomspace(0.01, 100.0, 40):
                    assert ohmic_closed_form(p, u)[1] >= -1e-14

    def test_closed_form_requires_zero_temperature(self):
        with pytest.raises(ValueError):
            ohmic_closed_form(OhmicParams(alpha=0.1, s=1.0, T=0.5), 1.0)

    @pytest.mark.parametrize("kernel", ["paper", "literature"])
    @pytest.mark.parametrize("T", [0.0, 1.0])
    def test_gamma_tilde_equals_time_integral_of_rate(self, kernel, T):
        p = OhmicParams(alpha=0.1, s=1.5, omega_c=1.0, T=T, kernel=kernel)
        for t in (0.7, 2.0):
            nested, _ = quad(lambda s: ohmic_rate(p, s), 0.0, t,
                             epsabs=1e-11, epsrel=1e-9, limit=200)
            assert ohmic_gamma_tilde(p, t) == pytest.approx(nested, rel=1e-6)

    def test_gamma_tilde_zero_t_matches_closed_form(self):
        for kernel in ("paper", "literature"):
            p = OhmicParams(alpha=0.1, s=2.0, T=0.0, kernel=kernel)
            for t in (0.5, 3.0):
                assert ohmic_gamma_tilde(p, t) == pytest.approx(
                    ohmic_closed_form(p, t)[1], rel=1e-8)

    def test_finite_temperature_dephasing_nonnegative(self):
        p = OhmicParams(alpha=0.1, s=0.5, T=1.0, kernel="literature")
        for t in (0.2, 1.0, 5.0):
            assert ohmic_gamma_tilde(p, t) >= 0.0


class TestOhmicSeries:
    """The exact T > 0 series against the QUADPACK reference route."""

    @pytest.mark.parametrize("kernel", KERNELS)
    # s = 1 and 2 hit the series' removable singularities
    @pytest.mark.parametrize("s", [0.3, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0, 5.0])
    def test_matches_quadrature(self, kernel, s):
        times = np.geomspace(1e-3, 50.0, 9)
        for T in (0.05, 0.2, 1.0, 3.0, 10.0):
            for omega_c in (0.5, 2.0):
                p = OhmicParams(alpha=0.1, s=s, omega_c=omega_c, T=T, kernel=kernel)
                series = OhmicSeries(p)
                for t in times:
                    assert series.rate(t) == pytest.approx(
                        ohmic_rate(p, t), rel=1e-8, abs=1e-12)
                    assert series.gamma_tilde(t) == pytest.approx(
                        ohmic_gamma_tilde(p, t), rel=1e-8, abs=1e-12)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_gamma_tilde_integrates_the_rate(self, kernel):
        # the time integral of the series rate, at the ends of [1e-3, 50]
        for s in (0.3, 1.0, 2.0, 5.0):
            for T in (0.05, 10.0):
                series = OhmicSeries(OhmicParams(alpha=0.1, s=s, omega_c=0.5, T=T,
                                                 kernel=kernel))
                for t in (1e-3, 50.0):
                    nested, _ = quad(series.rate, 0.0, t, epsabs=0.0, epsrel=1e-12,
                                     limit=200)
                    assert series.gamma_tilde(t) == pytest.approx(nested, rel=1e-9)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_array_input_equals_scalar_calls(self, kernel):
        t = np.linspace(0.0, 20.0, 258)
        for s in (0.5, 1.0, 2.0, 3.5):
            series = OhmicSeries(OhmicParams(alpha=0.1, s=s, omega_c=1.3, T=0.7,
                                             kernel=kernel))
            for fn in (series.rate, series.gamma_tilde):
                scalar = np.array([fn(float(x)) for x in t])
                assert type(fn(1.0)) is float
                np.testing.assert_allclose(fn(t), scalar, rtol=1e-15, atol=0.0)
                np.testing.assert_allclose(fn(t.reshape(2, -1)),
                                           scalar.reshape(2, -1), rtol=1e-15, atol=0.0)

    def test_zero_and_negative_time(self):
        for kernel in KERNELS:
            for s in (0.5, 1.0, 2.0):
                series = OhmicSeries(OhmicParams(alpha=0.1, s=s, T=1.0, kernel=kernel))
                assert series.rate(0.0) == 0.0
                assert series.gamma_tilde(0.0) == 0.0
                with pytest.raises(ValueError):
                    series.rate(-1e-3)
                with pytest.raises(ValueError):
                    series.gamma_tilde(np.array([0.5, -0.1]))

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            OhmicSeries(OhmicParams(alpha=0.1, s=1.0, T=0.0))

    def test_profile_uses_the_series(self):
        p = OhmicParams(alpha=0.1, s=2.5, T=0.4, kernel="paper")
        series, profile = OhmicSeries(p), ohmic_profile(p)
        for t in (0.3, 2.0, 9.0):
            assert profile.gamma3(t) == series.rate(t)


class TestMarkovRateLimit:
    def test_weak_coupling_scaling(self):
        assert markov_rate_limit(1e-8) == pytest.approx(2e-8, rel=1e-6)

    def test_reference_values(self):
        assert markov_rate_limit(0.01) == pytest.approx(0.0201, abs=5e-5)
        assert markov_rate_limit(0.25) == pytest.approx(2.0 * (1.0 - math.sqrt(0.5)),
                                                        rel=1e-12)

    def test_long_time_rate_oracle(self):
        # gamma_M is where gamma2(t) = 2 f(t) settles in the zero-T model
        R = 0.01
        f_late = amplitude_memory(R, 400.0).f
        assert markov_rate_limit(R) == pytest.approx(2.0 * f_late, rel=1e-10)

    def test_out_of_range(self):
        for bad in (0.0, -0.1, 0.5, 0.7):
            with pytest.raises(ValueError):
                markov_rate_limit(bad)


def test_params_validation():
    with pytest.raises(ValueError):
        ThermalParams(R=-1.0)
    with pytest.raises(ValueError):
        ThermalParams(R=0.2, N=-0.5)
    with pytest.raises(ValueError):
        OhmicParams(alpha=0.0, s=1.0)
    with pytest.raises(ValueError):
        OhmicParams(alpha=0.1, s=1.0, kernel="nonsense")
    with pytest.raises(ValueError):
        OhmicParams(alpha=0.1, s=1.0, T=-1.0)
