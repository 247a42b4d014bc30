import cmath
import dataclasses
import gc
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from phasecov import (IntegrationError, OhmicParams, QubitState,
                      RateProfile, ThermalParams, combine_profiles,
                      constant_profile, evolve_state, integrate_me,
                      integrate_profile, liouvillian, markovian_coefficients,
                      ohmic_profile, thermal_profile)
from phasecov import mesolve
from phasecov.mesolve import validate_density_matrix

RHO0 = QubitState(0.3, 0.2 - 0.1j).density_matrix


def test_zero_generator_is_identity():
    out = integrate_me(RateProfile(), RHO0, 5.0)
    assert np.abs(out - RHO0).max() <= 1e-12


def test_markovian_population_formula():
    gamma = 0.8
    prof = constant_profile(gamma2=gamma)
    for t in (0.5, 2.0, 6.0):
        out = integrate_me(prof, RHO0, t)
        decay = math.exp(-gamma * t / 2)
        assert out[0, 0].real == pytest.approx(decay * 0.3 + (1 - decay), abs=1e-8)


def test_matches_closed_form_with_combined_environments():
    prof = combine_profiles(
        thermal_profile(ThermalParams(R=0.25, N=1.0)),
        ohmic_profile(OhmicParams(alpha=0.1, s=3.0, omega_c=1.0, T=0.0,
                                  kernel="literature")),
    )
    t_eval = np.linspace(0.0, 10.0, 11)
    numeric = integrate_me(prof, RHO0, 10.0, t_eval=t_eval)
    analytic = integrate_profile(prof, t_eval[1:])
    s0 = QubitState.from_density_matrix(RHO0)
    assert np.abs(numeric[0] - RHO0).max() <= 1e-12
    for rho_num, c in zip(numeric[1:], analytic):
        rho_cf = evolve_state(s0, c).density_matrix
        assert np.abs(rho_num - rho_cf).max() <= 1e-6


def test_trace_and_hermiticity_are_structural():
    prof = thermal_profile(ThermalParams(R=0.45, N=2.0))
    states = integrate_me(prof, RHO0, 8.0, t_eval=np.linspace(0, 8, 17))
    for rho in states:
        assert abs(np.trace(rho) - 1.0) <= 1e-12
        assert np.abs(rho - rho.conj().T).max() <= 1e-13


def test_tightening_tolerances_converges():
    prof = thermal_profile(ThermalParams(R=0.25, N=1.0))
    c = integrate_profile(prof, [5.0])[0]
    exact = evolve_state(QubitState.from_density_matrix(RHO0), c).density_matrix
    devs = []
    for rtol in (1e-5, 1e-7, 1e-9, 1e-11):
        out = integrate_me(prof, RHO0, 5.0, rtol=rtol, atol=rtol * 1e-2)
        devs.append(np.abs(out - exact).max())
    assert all(b < a for a, b in zip(devs[:-1], devs[1:]) if a > 1e-10)
    assert devs[-1] <= 1e-10


def test_refuses_singular_window():
    prof = thermal_profile(ThermalParams(R=10.0, N=0.0), t_max=10.0)
    with pytest.raises(IntegrationError, match="0.8242"):
        integrate_me(prof, RHO0, 2.0)
    # before the first singularity the integration is fine
    out = integrate_me(prof, RHO0, 0.7)
    assert np.isfinite(out).all()


def test_refuses_window_beyond_the_singular_reach():
    # the pole at 0.8242 lies past the list's reach of 0.5; integrating
    # through it gave P1 = -974.6 where the closed form has 0.9573
    prof = thermal_profile(ThermalParams(R=10.0, N=0.0), t_max=0.5)
    with pytest.raises(ValueError, match="only up to t = 0.5"):
        integrate_me(prof, QubitState(0.0).density_matrix, 2.0)


def test_frequency_shift_changes_phase_not_magnitude():
    prof = constant_profile(gamma2=0.5, omega=1.3)
    ref = constant_profile(gamma2=0.5)
    out_w = integrate_me(prof, RHO0, 2.0)
    out_0 = integrate_me(ref, RHO0, 2.0)
    assert abs(out_w[0, 1]) == pytest.approx(abs(out_0[0, 1]), rel=1e-8)
    assert out_w[0, 0].real == pytest.approx(out_0[0, 0].real, abs=1e-10)
    assert abs(out_w[0, 1] - out_0[0, 1]) > 1e-3  # the phase did move
    # by Omega = 1.3 t, as in the closed form alpha(0) exp(i Omega - ...)
    assert out_w[0, 1] == pytest.approx(out_0[0, 1] * cmath.exp(1.3j * 2.0), abs=1e-9)


def test_liouvillian_is_traceless_and_hermiticity_preserving():
    prof = constant_profile(0.3, 0.8, 0.2, 0.9)
    rng = np.random.default_rng(5)
    for _ in range(50):
        p1 = rng.uniform(0, 1)
        a = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5))
        rho = np.array([[p1, a], [a.conjugate(), 1 - p1]])
        drho = liouvillian(prof, 0.7, rho)
        assert abs(np.trace(drho)) <= 1e-14
        assert np.abs(drho - drho.conj().T).max() <= 1e-14


def test_input_validation():
    with pytest.raises(ValueError):
        integrate_me(RateProfile(), np.eye(2), 1.0)  # trace 2
    with pytest.raises(ValueError):
        integrate_me(RateProfile(), np.array([[0.5, 0.9], [0.9, 0.5]]), 1.0)
    with pytest.raises(ValueError):
        integrate_me(RateProfile(), RHO0, -1.0)
    with pytest.raises(ValueError):
        validate_density_matrix(np.eye(3))


@pytest.mark.parametrize("rho", [
    [[math.nan, 0.0], [0.0, 1.0]],
    [[0.5, math.nan * 1j], [0.0, 0.5]],
    [[0.5, complex(0.0, math.inf)], [complex(0.0, -math.inf), 0.5]],
    [[math.inf, 0.0], [0.0, 1.0]],
])
def test_state_that_is_not_finite_is_refused(rho):
    # NaN passed each check: t_end = 0 returned a NaN state, t_end > 0
    # raised "integration failed at t = 0"; an infinite coherence passed
    # with a numpy RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t_end in (0.0, 1.0):
            with pytest.raises(ValueError, match="entries that are not finite"):
                integrate_me(RateProfile(), rho, t_end)


def test_zero_time_returns_input():
    assert np.array_equal(integrate_me(RateProfile(), RHO0, 0.0), RHO0)


def test_times_are_checked_once():
    prof = constant_profile(0.2, 0.6, 0.1, 0.5)
    # a NaN t_end ended in scipy's "must be monotonically increasing", an
    # infinite one in "integration failed at t = inf"
    for t_end in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError, match="t_end must be finite and non-negative"):
            integrate_me(prof, RHO0, t_end)
    # t_eval meets integrate_profile's rule; [] ended in an IndexError
    for t_eval in ([], [1.0, 0.5], [0.5, 0.5], [-0.5, 1.0], [0.5, math.nan], [[0.5, 1.0]]):
        with pytest.raises(ValueError, match="times must be"):
            integrate_me(prof, RHO0, 3.0, t_eval=t_eval)
    # and ends by t_end: at t_end = 0, [0.5] gave rho0 as the state at 0.5
    for t_end, t_eval in ((0.0, [0.5]), (3.0, [1.0, 3.5])):
        with pytest.raises(ValueError, match="t_eval ends at .*, after t_end"):
            integrate_me(prof, RHO0, t_end, t_eval=t_eval)
    # LSODA's steps underflow below about 1e-150 (t_end = 1e-200 read "the
    # state is not finite"); the floor of 1e-100 keeps a margin, and is reached
    for t_end, t_eval in ((1e-200, None), (3.0, [1e-300, 3.0]), (3.0, [0.0, 5e-101])):
        with pytest.raises(ValueError, match=r"times in \(0, 1e-100\) are too near 0"):
            integrate_me(prof, RHO0, t_end, t_eval=t_eval)
    assert np.isfinite(integrate_me(prof, RHO0, 3.0, t_eval=[1e-100, 3.0])).all()


def test_states_at_zero_take_no_pass(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LSODA called")

    monkeypatch.setattr(mesolve, "solve_ivp", refuse)
    prof = constant_profile(0.2, 0.6, 0.1, 0.5)
    for t_end in (0.0, 2.0):
        states = integrate_me(prof, RHO0, t_end, t_eval=[0.0])
        assert states.shape == (1, 2, 2) and np.array_equal(states[0], RHO0)


def test_grid_may_start_after_zero_and_end_before_t_end():
    # the pass starts at 0 however t_eval starts, and stops at its end
    prof = constant_profile(0.2, 0.6, 0.1, 0.5)
    t_eval = np.array([0.7, 1.3, 2.0])
    states = integrate_me(prof, RHO0, 3.0, t_eval=t_eval)
    assert np.array_equal(states, integrate_me(prof, RHO0, 2.0, t_eval=t_eval))
    assert np.array_equal(states,
                          integrate_me(prof, RHO0, 2.0, t_eval=np.append(0.0, t_eval))[1:])
    c = markovian_coefficients(0.2, 0.6, 0.1, 0.5, t_eval)
    s0 = QubitState.from_density_matrix(RHO0)
    assert np.abs(states[:, 0, 0].real - (c.decay * s0.P1 + c.g)).max() <= 1e-8
    assert np.abs(states[:, 0, 1] - s0.alpha * c.kappa).max() <= 1e-8


def _counted(value):
    """A constant rate that counts its calls in ``rate.calls``."""
    def rate(t):
        rate.calls += 1
        return value
    rate.calls = 0
    return rate


def test_stiff_constant_rate_costs_few_rate_calls():
    # gamma2 = 1e4 on [0, 10]: explicit Runge-Kutta pays for the largest
    # rate with about 1e5 calls; both routes must stay under 5000
    gamma2 = 1e4
    times = np.linspace(0.0, 10.0, 31)
    exact = markovian_coefficients(0.0, gamma2, 0.0, 0.0, times)
    s0 = QubitState.from_density_matrix(RHO0)

    rate = _counted(gamma2)
    quad_route = integrate_profile(RateProfile(gamma2=rate), times[1:])
    np.testing.assert_allclose([c.g for c in quad_route], exact.g[1:], rtol=0.0,
                               atol=1e-10)
    assert rate.calls < 5000

    rate = _counted(gamma2)
    states = integrate_me(RateProfile(gamma2=rate), RHO0, 10.0, t_eval=times)
    p1 = exact.decay * s0.P1 + exact.g
    alpha = s0.alpha * exact.kappa
    assert np.abs(states[:, 0, 0].real - p1).max() <= 1e-8
    assert np.abs(states[:, 0, 1] - alpha).max() <= 1e-8
    assert rate.calls < 5000


def test_rates_are_read_once_per_time(monkeypatch):
    # LSODA's corrector calls the right-hand side again at the same t,
    # where the rates read at that t are used again
    base = combine_profiles(thermal_profile(ThermalParams(R=0.3, N=1.5)),
                            ohmic_profile(OhmicParams(alpha=0.1, s=2.5, omega_c=1.0)),
                            constant_profile(omega=0.7))
    seen = {name: [] for name in ("gamma1", "gamma2", "gamma3", "omega")}

    def recorded(name):
        def rate(t):
            seen[name].append(t)
            return getattr(base, name)(t)
        return rate

    calls, solve = [], mesolve.solve_ivp

    def counted(fun, *args):
        def rhs(t, y):
            calls.append(t)
            return fun(t, y)
        return solve(rhs, *args)

    monkeypatch.setattr(mesolve, "solve_ivp", counted)
    prof = dataclasses.replace(base, **{name: recorded(name) for name in seen})
    rho = integrate_me(prof, RHO0, 5.0)
    assert rho.tobytes() == integrate_me(base, RHO0, 5.0).tobytes()
    assert len(calls) > len(set(calls))
    for times in seen.values():
        assert sorted(times) == sorted(set(calls))


def test_master_equation_never_samples_past_its_window():
    late = []

    def guard(fn):
        def rate(t):
            if np.any(t > 3.0):
                late.append(t)
                raise ValueError(f"rate sampled at t = {t!r}, past t_end = 3")
            return fn(t)
        return rate

    prof = RateProfile(gamma1=guard(lambda t: 0.1 * t),
                       gamma2=guard(lambda t: 0.4 + 0.3 * np.sin(t)),
                       gamma3=guard(np.cos), omega=guard(lambda t: 0.5))
    t_eval = np.linspace(0.0, 2.5, 6)
    states = integrate_me(prof, RHO0, 3.0, t_eval=t_eval)
    assert states.shape == (6, 2, 2) and np.isfinite(states).all()
    # the states reported before t_end are those of the closed form
    s0 = QubitState.from_density_matrix(RHO0)
    for rho, c in zip(states[1:], integrate_profile(prof, t_eval[1:])):
        assert np.abs(rho - evolve_state(s0, c).density_matrix).max() <= 1e-6
    assert late == []


def _time_in(message):
    return float(re.search(r"at t = (\S+):", message).group(1))


def test_solver_failure_raises_without_warnings():
    # ODEPACK refuses a negative atol; scipy's warnings must not escape
    prof = constant_profile(0.2, 0.6, 0.1, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(IntegrationError, match="integration failed at t = 0: "):
            integrate_me(prof, RHO0, 3.0, rtol=1e-10, atol=-1.0)


@pytest.mark.parametrize("rtol", [1e-300, 1e-20, 1e-15, math.nan])
def test_rtol_below_100_epsilons_is_refused(rtol):
    # ODEPACK would report these as "Illegal input detected (internal error)"
    prof = constant_profile(0.2, 0.6, 0.1, 0.5)
    with pytest.raises(ValueError, match="rtol = .* is below 100 machine epsilons"):
        integrate_me(prof, RHO0, 3.0, rtol=rtol, atol=rtol)
    integrate_me(prof, RHO0, 3.0, rtol=100 * np.finfo(float).eps, atol=1e-20)


@pytest.mark.parametrize("rtol, atol", [(math.inf, 1e-12), (1e-10, math.nan),
                                        (1e-10, math.inf), (1e-10, -math.inf)])
def test_tolerances_that_are_not_finite_are_refused(rtol, atol):
    # rtol = inf and atol NaN or inf returned a state with no error, 8.0e-3
    # and 3.1e-3 from the closed form, against 9.8e-13 at the defaults;
    # ODEPACK took atol = -inf for an internal error
    prof = constant_profile(0.1, 0.2, 0.05, 0.3)
    rho0 = QubitState(0.6, 0.1).density_matrix
    with pytest.raises(ValueError, match="is not finite|or not finite"):
        integrate_me(prof, rho0, 3.0, rtol=rtol, atol=atol)


def test_unlisted_divergence_ends_the_pass():
    # omega = (1.5 - t)^-3 winds the coherence infinitely often before
    # t = 1.5, a pole the profile does not list: the step cap per output
    # interval ends the pass there instead of letting it run on
    prof = RateProfile(gamma2=lambda t: 0.5, omega=lambda t: (1.5 - t) ** -3)
    with pytest.raises(IntegrationError, match="integration failed at t = 1.4"):
        integrate_me(prof, RHO0, 3.0)


def test_non_finite_state_is_an_error():
    # gamma2 turns NaN after t = 1 on [0, 3]: the ODE route raises at the
    # first reported state that is not finite instead of returning NaN
    prof = RateProfile(gamma1=lambda t: 0.1,
                       gamma2=lambda t: 0.5 if t <= 1.0 else math.nan)
    # the step that crosses t = 1 already carries the NaN, so the state
    # reported at t = 1 may be the first one lost
    times = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    with pytest.raises(IntegrationError, match="the state is not finite") as err:
        integrate_me(prof, RHO0, 3.0, t_eval=[0.0, *times])
    assert _time_in(str(err.value)) in (1.0, 1.5)
    with pytest.raises(IntegrationError, match="at t = 3: the state is not finite"):
        integrate_me(prof, RHO0, 3.0)


def test_repeated_solves_retain_no_memory():
    # scipy's solve_ivp LSODA kept about 1.5 KB per pair of solves for good
    prof = constant_profile(0.2, 0.6, 0.1, 0.5)

    def pair():
        integrate_me(prof, RHO0, 3.0)
        integrate_profile(prof, [1.0, 2.0, 3.0])

    for _ in range(20):
        pair()
    tracemalloc.start()
    try:
        gc.collect()
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(300):
            pair()
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained / 300 < 100
