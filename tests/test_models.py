import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from phasecov import models
from phasecov import (QuadratureConfig, ThermalParams, ToleranceError, amplitude_memory,
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

    def test_zeros_are_roots_of_c(self):
        zeros = thermal_zeros(10.0, 10.0)
        assert len(zeros) > 2
        for z in zeros:
            assert abs(_c_ratio(10.0, z)) < 1e-9
        assert thermal_zeros(0.3, 100.0) == ()

    @pytest.mark.parametrize("R", [0.5000001, 0.55, 2.0, 10.0, 20.0])
    @pytest.mark.parametrize("t_max", [0.5, 3.0, 40.0, 1e4])
    def test_zeros_equal_the_running_list(self, R, t_max):
        delta = math.sqrt(2 * R - 1)
        expected = []
        for k in range(1, 10**6):
            tau = (2.0 / delta) * (k * math.pi - math.atan(delta))
            if tau > t_max:
                break
            expected.append(tau)
        assert thermal_zeros(R, t_max) == tuple(expected)
        # the profile's poles from 0 are the same list, bit for bit
        assert thermal_profile(ThermalParams(R)).poles(0.0, t_max) == tuple(expected)
        # a zero as t_max itself is listed
        if expected:
            assert thermal_zeros(R, expected[-1]) == tuple(expected)
        # a window from t_min lists the same zeros from there, a zero at
        # t_min included
        for t_min in (0.3 * t_max, *expected[-3:]):
            later = tuple(tau for tau in expected if tau >= t_min)
            assert thermal_zeros(R, t_max, t_min) == later
            assert thermal_profile(ThermalParams(R)).poles(t_min, t_max) == later

    @pytest.mark.parametrize("t_max", [1e6, 1e300, math.inf, math.nan])
    def test_too_many_zeros_are_refused(self, t_max):
        with pytest.raises(ValueError, match="more than the 100000"):
            thermal_zeros(10.0, t_max)
        with pytest.raises(ValueError, match="more than the 100000"):
            thermal_profile(ThermalParams(10.0)).poles(0.0, t_max)

    def test_zeros_are_counted_from_the_window_start(self):
        # up to 1e6 there are too many, but 1e4 from 1e6 on are listed:
        # tau_k for k = ceil(u(1e6)) to floor(u(1e6 + 1e4))
        with pytest.raises(ValueError, match="about 6.94e[+]05 rate poles up to t = 1e[+]06"):
            thermal_zeros(10.0, 1e6)
        far = thermal_zeros(10.0, 1e6 + 1e4, 1e6)
        delta = math.sqrt(19.0)
        u = lambda t: (delta * t / 2 + math.atan(delta)) / math.pi
        assert len(far) == math.floor(u(1e6 + 1e4)) - math.ceil(u(1e6)) + 1 == 6938
        assert 1e6 <= far[0] < far[-1] <= 1e6 + 1e4
        with pytest.raises(ValueError, match=r"rate poles on \[1e[+]06, 1e[+]09\]"):
            thermal_zeros(10.0, 1e9, 1e6)


class TestLeanRateCallbacks:
    """The profiles' scalar rates equal the public functions bit for bit."""

    @pytest.mark.parametrize("R", [0.02, 0.25, 0.5, 0.7, 2.0, 10.0])
    @pytest.mark.parametrize("N", [0.0, 1.3])
    def test_thermal_rates_equal_amplitude_memory(self, R, N):
        p = ThermalParams(R=R, N=N)
        prof = thermal_profile(p)
        zeros = thermal_zeros(R, 12.0)
        times = [0.0, 1e-9, 0.3, 1.7, 6.0, 12.0, *zeros]
        for t in times:
            f = amplitude_memory(R, t).f
            assert prof.gamma2(t) == 2.0 * (N + 1.0) * f
            assert prof.gamma1(t) == (0.0 if N == 0 else 2.0 * N * f)
        if R > 0.5:
            # c vanishes exactly at the listed zeros, where f is +inf
            assert any(math.isinf(amplitude_memory(R, z).f) for z in zeros)
            assert math.isinf(prof.gamma2(zeros[0]))

    def test_interleaved_times_never_reuse_a_stale_value(self):
        p = ThermalParams(R=0.3, N=2.0)
        prof = thermal_profile(p)
        rng = np.random.default_rng(11)
        times = rng.choice([0.0, 0.4, 0.4 + 1e-13, 2.5, 9.0], size=200).tolist()
        rates = rng.choice(["gamma1", "gamma2"], size=200).tolist()
        for t, name in zip(times, rates):
            factor = 2.0 * p.N if name == "gamma1" else 2.0 * (p.N + 1.0)
            assert getattr(prof, name)(t) == factor * amplitude_memory(p.R, t).f

    def test_rates_on_scales_f_on_the_array(self):
        # gamma1 = 2N f and gamma2 = 2(N+1) f bit for bit on rates_on's grid
        f = models._memory_rate(0.3)
        prof = thermal_profile(ThermalParams(R=0.3, N=1.5))
        grid = np.linspace(0.0, 5.0, 101)
        rates = prof.rates_on(grid)
        assert np.array_equal(rates[0], 3.0 * f(grid)) and np.array_equal(rates[1], 5.0 * f(grid))
        # an array changed in place between calls gives fresh values
        t = grid.copy()
        prof.gamma1(t)
        t += 1.0
        assert np.array_equal(prof.gamma2(t), 5.0 * f(t))

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.5])
    def test_zero_temperature_ohmic_rate_equals_the_closed_form(self, kernel, s):
        p = OhmicParams(alpha=0.13, s=s, omega_c=1.7, T=0.0, kernel=kernel)
        gamma3 = ohmic_profile(p).gamma3
        for t in (0.0, 1e-9, 0.3, 1.0, 4.2, 40.0):
            assert gamma3(t) == ohmic_closed_form(p, t)[0]

    def test_negative_time_is_refused(self):
        thermal = thermal_profile(ThermalParams(R=0.3, N=1.0))
        thermal.gamma2(1.0)
        for rate in (thermal.gamma1, thermal.gamma2,
                     ohmic_profile(OhmicParams(alpha=0.1, s=2.0)).gamma3):
            with pytest.raises(ValueError):
                rate(-1e-3)

    @pytest.mark.parametrize("R", [0.3, 0.5, 10.0])
    def test_negative_time_in_an_array_is_refused(self, R):
        # the array path used to return f at t < 0: gamma2 = -2.25 at t = -1
        # for R = 0.3, N = 1, where the float call raises
        thermal = thermal_profile(ThermalParams(R=R, N=1.0))
        for rate in (thermal.gamma1, thermal.gamma2):
            for t in (np.array([-1.0]), np.array([0.5, -1e-3, 2.0])):
                with pytest.raises(ValueError, match="non-negative"):
                    rate(t)
        with pytest.raises(ValueError, match="non-negative"):
            thermal.rates_on([-1.0])
        # a refusal leaves the profile as it was
        grid = np.linspace(0.0, 2.0, 5)
        np.testing.assert_array_equal(
            thermal.rates_on(grid)[1],
            [thermal.gamma2(t) for t in grid.tolist()])


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

    @pytest.mark.parametrize("R", [0.02, 0.25, 0.5, 2.0, 10.0])
    def test_small_times_match_mpmath(self, R):
        # Gamma = -(2N+1) ln c^2 is of order R tau^2 while the closed
        # forms add terms of order tau: relative accuracy at small tau
        mpmath = pytest.importorskip("mpmath")
        N = 1.0
        p = ThermalParams(R=R, N=N)
        taus = np.geomspace(1e-8, 1.0, 33)
        arrays = thermal_closed_form(p, taus)
        for i, tau in enumerate(taus.tolist()):
            with mpmath.workdps(40):
                x = mpmath.mpf(tau)
                if R == 0.5:
                    c = mpmath.exp(-x / 2) * (1 + x / 2)
                else:
                    d = mpmath.sqrt(mpmath.mpc(1 - 2 * mpmath.mpf(R)))
                    c = mpmath.re(mpmath.exp(-x / 2) * (mpmath.cosh(d * x / 2)
                                                        + mpmath.sinh(d * x / 2) / d))
                gamma = -(2 * N + 1) * mpmath.log(c * c)
                g = (N + 1) / (2 * N + 1) * -mpmath.expm1(-gamma)
            for got in (thermal_closed_form(p, tau), (arrays[0][i], arrays[1][i])):
                assert got[0] == pytest.approx(float(gamma), rel=1e-14, abs=0.0)
                assert got[1] == pytest.approx(float(g), rel=1e-14, abs=0.0)


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

    @pytest.mark.parametrize("route, interval", [(ohmic_rate, (0.125, 0.25)),
                                                 (ohmic_gamma_tilde, (0.0, 1.0))])
    def test_quadrature_that_misses_its_tolerances_raises(self, route, interval):
        # tolerances of 1e-300 no quadrature meets: QUADPACK's failure
        # becomes ToleranceError on its worst subinterval, and no warning
        p = OhmicParams(alpha=0.1, s=2.0, omega_c=1.0, T=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ToleranceError, match="did not converge") as err:
                route(p, 3.0, QuadratureConfig(1e-300, 1e-300))
        assert err.value.interval == interval
        assert math.isfinite(err.value.abserr) and err.value.abserr > 0.0

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

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.7])
    def test_zero_temperature_gamma_tilde_matches_mpmath(self, kernel, s):
        # 1 - A cos(e atan u) lost up to 1e-9 of its relative accuracy to
        # cancellation at u = 1e-3, and all of it at u = 1e-8
        mpmath = pytest.importorskip("mpmath")
        p = OhmicParams(alpha=0.1, s=s, omega_c=1.3, T=0.0, kernel=kernel)
        ts = [1e-8, 1e-3, 0.1, 1.0, 7.0, 100.0]
        arrays = ohmic_closed_form(p, np.array(ts))[1].tolist()
        for t, from_array in zip(ts, arrays):
            with mpmath.workdps(40):
                u = mpmath.mpf(p.omega_c) * mpmath.mpf(t)
                e = mpmath.mpf(s) - (kernel == "literature")
                if e == 0:
                    ref = p.alpha / mpmath.mpf(p.omega_c) * mpmath.log1p(u * u)
                else:
                    scale = (2 * p.alpha * mpmath.gamma(e + 1) / e if kernel == "paper"
                             else 2 * p.alpha * mpmath.gamma(e) / p.omega_c)
                    ref = scale * (1 - (1 + u * u) ** (-e / 2) * mpmath.cos(e * mpmath.atan(u)))
            for got in (ohmic_closed_form(p, t)[1], from_array):
                assert got == pytest.approx(float(ref), rel=1e-14, abs=0.0)

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
    def test_rate_equals_the_column_per_term_formula(self, kernel):
        # the reference: every term on its own column, each with its own
        # log1p and atan, as rate summed them before the derivative terms
        # were taken from a_K's column
        for s in (0.3, 0.5, 1.0, 2.0, 3.5, 5.0):
            for T in (0.05, 0.7, 10.0):
                series = OhmicSeries(OhmicParams(alpha=0.1, s=s, omega_c=1.3, T=T,
                                                 kernel=kernel))
                x_d, w_d = series._deriv
                a = np.concatenate([series._rate_a,
                                    np.full(x_d.size, series._rate_a[-1])])
                x = np.concatenate([np.full(series._rate_a.size, series._e), x_d])
                w = np.concatenate([series._rate_w, w_d])
                for t_max in (2.5, 40.0):
                    t = np.linspace(0.0, t_max, 2049)
                    lr, th = models._angles(a, t)
                    direct = np.add.reduce(w * np.exp(-x * lr) * np.sin(x * th), axis=-1)
                    k = slice(series._rate_a.size - 1, series._rate_a.size)
                    reference = series._finish(direct, series._tail, lr[..., k], th[..., k])
                    rate = series.rate(t)
                    assert np.abs(rate - reference).max() <= (
                        2e-15 * np.abs(reference).max())

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

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tiny_temperature_gives_the_zero_temperature_values(self, kernel):
        # b^m in the Euler-Maclaurin weights used to overflow below about
        # T = 1e-27, and 1/T itself overflows at 5e-324.  The times avoid the
        # zeros of gamma3 and u < 0.5, where the closed form's GammaTilde
        # loses digits to the cancellation in 1 - (1+u^2)^(-s/2) cos(s atan u)
        t = np.array([0.0, 0.5, 1.3, 2.2, 7.0, 20.0, 100.0])
        for s in (0.5, 2.0, 4.0):
            cold = ohmic_closed_form(OhmicParams(0.1, s, 1.0, 0.0, kernel), t)
            for T in (1e-30, 1e-300, 5e-324):
                series = OhmicSeries(OhmicParams(0.1, s, 1.0, T, kernel))
                for got, want in zip((series.rate(t), series.gamma_tilde(t)), cold):
                    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_requires_positive_temperature(self):
        with pytest.raises(ValueError):
            OhmicSeries(OhmicParams(alpha=0.1, s=1.0, T=0.0))

    def test_profile_uses_the_series(self):
        p = OhmicParams(alpha=0.1, s=2.5, T=0.4, kernel="paper")
        series, profile = OhmicSeries(p), ohmic_profile(p)
        for t in (0.3, 2.0, 9.0):
            assert profile.gamma3(t) == series.rate(t)


def _ohmic_series_mpmath(mpmath, kernel, s, T, t, alpha, omega_c):
    """(gamma3, GammaTilde) at T > 0 from the sums in the OhmicSeries docstring.

    gamma3 = P G(e) sum_k c_k Im (a_k - i t)^-e and GammaTilde =
    P G(e-1) sum_k c_k [a_k^(1-e) - Re (a_k - i t)^(1-e)], with
    a_k = 1/w_c + k b, c_0 = 1, c_k = 2.  The terms k >= 1 sum to the
    Hurwitz zeta b^-x zeta(x, 1 + (1/w_c - i t)/b).  G(e-1) and zeta(x, .)
    at x = 1 have poles that cancel at e = 1 and 2; the sums are continuous
    in s, so they are taken at s + 1e-30 in 60 digits, which moves the
    result by about 1e-30 relative and keeps some 30 digits across the poles.
    """
    with mpmath.workdps(60):
        s_ = mpmath.mpf(s) + mpmath.mpf("1e-30")
        wc, z = mpmath.mpf(omega_c), 1 / mpmath.mpf(omega_c) - 1j * mpmath.mpf(t)
        b = (2 if kernel == "paper" else 1) / mpmath.mpf(T)
        e = s_ + 1 if kernel == "paper" else s_

        def total(x, a):
            return a ** -x + 2 * b ** -x * mpmath.zeta(x, 1 + a / b)

        scale = 2 * mpmath.mpf(alpha) * wc ** -s_
        rate = scale * mpmath.gamma(e) * mpmath.im(total(e, z))
        tilde = scale * mpmath.gamma(e - 1) * (total(e - 1, 1 / wc)
                                               - mpmath.re(total(e - 1, z)))
        return float(rate), float(tilde)


class TestOhmicSeriesAgainstMpmath:
    """The T > 0 series and its special-function helpers at a few ulps."""

    ULP = np.finfo(float).eps

    @pytest.mark.parametrize("kernel", KERNELS)
    # s = 1 and 2 are the series' removable singularities
    @pytest.mark.parametrize("s", [0.3, 1.0, 2.0, 3.5])
    def test_series_matches_the_hurwitz_zeta_sums(self, kernel, s):
        # the worst error is about 5e-15, where gamma3 is near a zero; a
        # 1e-13 relative error in the common scale fails the bound
        mpmath = pytest.importorskip("mpmath")
        for T in (0.05, 1.0, 10.0):
            series = OhmicSeries(OhmicParams(alpha=0.1, s=s, omega_c=1.3, T=T,
                                             kernel=kernel))
            for t in (1e-3, 0.5, 5.0, 50.0):
                rate, tilde = _ohmic_series_mpmath(mpmath, kernel, s, T, t, 0.1, 1.3)
                assert series.rate(t) == pytest.approx(rate, rel=3e-14, abs=0.0)
                assert series.gamma_tilde(t) == pytest.approx(tilde, rel=3e-14, abs=0.0)

    def test_exprel(self):
        mpmath = pytest.importorskip("mpmath")
        x = [0.0, 1e-300, -1e-300, 1e-17, -1e-17, 1e-8, -1e-8, 30.0, -30.0]
        for value, got in zip(x, models._exprel(np.array(x)).tolist()):
            with mpmath.workdps(40):
                ref = 1 if value == 0 else mpmath.expm1(value) / mpmath.mpf(value)
            assert got == pytest.approx(float(ref), rel=6 * self.ULP, abs=0.0)

    def test_rising_factorials(self):
        mpmath = pytest.importorskip("mpmath")
        for e in (0.3, 1.0, 1.7, 2.0, 3.5, 6.0):
            got = models._rising_factorials(e, 11).tolist()
            for m in range(1, 12):
                with mpmath.workdps(40):
                    ref = mpmath.rf(e, m)
                assert got[m - 1] == pytest.approx(float(ref), rel=6 * self.ULP, abs=0.0)

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_gamma_function(self, kernel):
        mpmath = pytest.importorskip("mpmath")
        for s in np.linspace(0.01, 5.0, 200).tolist():
            e = s + 1.0 if kernel == "paper" else s
            cases = [(models._gamma(e), e)]
            if kernel == "literature" and s < 1.0:
                # the T = 0 GammaTilde's G(nu), nu = s - 1 in (-1, 0)
                cases.append((models._gamma(s - 1.0), s - 1.0))
            for value, arg in cases:
                with mpmath.workdps(40):
                    ref = mpmath.gamma(arg)
                assert value == pytest.approx(float(ref), rel=6 * self.ULP, abs=0.0)
        # past the float range and at a pole, the values scipy's gamma gave
        assert models._gamma(171.7) == models._gamma(1e-310) == math.inf
        assert math.isnan(models._gamma(-1.0))


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
    for bad in (math.nan, math.inf):
        for kwargs in ({"R": bad}, {"R": 0.2, "N": bad}):
            with pytest.raises(ValueError):
                ThermalParams(**kwargs)
        for name in ("alpha", "s", "omega_c", "T"):
            with pytest.raises(ValueError):
                OhmicParams(**{"alpha": 0.1, "s": 1.0, name: bad})
