import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from phasecov import (CoefficientSet, NmReport, OhmicParams, RateProfile, ThermalParams,
                      Verdict, combine_profiles, constant_profile, cp_choi, crossover_scan,
                      negative_intervals, nonmarkov, ohmic_profile, thermal_closed_form,
                      thermal_profile, thermal_zeros)
from conftest import intermediate_map, listed_poles


def _scanned(profile):
    """profile with each rate that carries its negative stretches wrapped in
    a plain function, which carries none: the sign scan samples it on its
    grid and refines its sign changes, as for any other rate."""
    def plain(fn):
        return lambda t: fn(t)
    return dataclasses.replace(profile, **{
        name: plain(fn) for name in ("gamma1", "gamma2", "gamma3")
        if hasattr(fn := getattr(profile, name), "negative_stretches")})


def test_weak_coupling_thermal_is_markovian():
    for N in (0.0, 1.0):
        rep = negative_intervals(
            thermal_profile(ThermalParams(R=0.25, N=N)), (0.0, 10.0))
        assert rep.verdict is Verdict.MARKOVIAN
        assert rep.triggering_rates == ()
        assert rep.first_negative is None


def test_strong_coupling_interval_starts_at_memory_zero():
    prof = thermal_profile(ThermalParams(R=10.0, N=0.0))
    rep = negative_intervals(prof, (0.0, 6.0))
    assert rep.verdict is Verdict.NON_MARKOVIAN
    assert rep.triggering_rates == ("gamma2",)  # gamma1 = 0 at N = 0

    # oracle: the rate turns negative exactly at the first zero of c
    delta = math.sqrt(19.0)
    root = brentq(
        lambda t: math.cos(delta * t / 2) + math.sin(delta * t / 2) / delta,
        0.5, 1.2, xtol=1e-14)
    start, end = rep.intervals["gamma2"][0]
    assert start == pytest.approx(root, abs=1e-6)
    # and positive again where sin(delta t / 2) changes sign, t = 2 pi / delta
    assert end == pytest.approx(2 * math.pi / delta, abs=1e-6)
    assert rep.singular_times[0] == pytest.approx(root, abs=1e-9)

    # heating triggers too once N > 0
    rep_hot = negative_intervals(
        thermal_profile(ThermalParams(R=10.0, N=1.0)), (0.0, 6.0))
    assert set(rep_hot.triggering_rates) == {"gamma1", "gamma2"}


def test_ohmic_negativity_follows_ohmicity():
    sub = ohmic_profile(OhmicParams(alpha=0.1, s=0.5, kernel="paper"))
    assert negative_intervals(sub, (0.0, 30.0)).verdict is Verdict.MARKOVIAN

    sup = ohmic_profile(OhmicParams(alpha=0.1, s=3.0, omega_c=1.0, kernel="paper"))
    rep = negative_intervals(sup, (0.0, 30.0))
    assert rep.verdict is Verdict.NON_MARKOVIAN
    # (s+1) atan(u) crosses pi at u = tan(pi/4) = 1
    assert rep.intervals["gamma3"][0][0] == pytest.approx(1.0, abs=1e-8)


def test_intervals_are_sorted_disjoint_and_inside_window():
    prof = thermal_profile(ThermalParams(R=10.0, N=0.0))
    rep = negative_intervals(prof, (0.0, 12.0))
    ivs = rep.intervals["gamma2"]
    assert len(ivs) >= 3
    flat = [v for iv in ivs for v in iv]
    assert flat == sorted(flat)
    assert all(0.0 <= a < b <= 12.0 for a, b in ivs)


def test_resolution_halving_moves_endpoints_less_than_old_resolution():
    prof = _scanned(thermal_profile(ThermalParams(R=2.0, N=0.5)))
    res = 10.0 / 512
    coarse = negative_intervals(prof, (0.0, 10.0), resolution=res)
    fine = negative_intervals(prof, (0.0, 10.0), resolution=res / 2)
    for name in ("gamma1", "gamma2"):
        assert len(coarse.intervals[name]) == len(fine.intervals[name])
        for (a0, b0), (a1, b1) in zip(coarse.intervals[name], fine.intervals[name]):
            assert abs(a0 - a1) < res and abs(b0 - b1) < res


def _thermal_map(params, t):
    gamma, g = thermal_closed_form(params, t)
    return CoefficientSet(t=t, Gamma=gamma, GammaTilde=0.0, Omega=0.0, g=g)


def test_negative_rate_breaks_intermediate_cp():
    # the map across [1.0, 1.2], inside the negative stretch after the pole
    # at 0.824, is not CP, while one in the initial positive stretch is
    params = ThermalParams(R=10.0, N=0.0)
    maps = {t: _thermal_map(params, t) for t in (0.1, 0.5, 1.0, 1.2)}
    assert not cp_choi(intermediate_map(maps[1.0], maps[1.2])).is_cp
    assert cp_choi(intermediate_map(maps[0.1], maps[0.5])).is_cp


def test_window_validation():
    prof = thermal_profile(ThermalParams(R=0.25, N=0.0))
    with pytest.raises(ValueError):
        negative_intervals(prof, (3.0, 1.0))
    with pytest.raises(ValueError):
        negative_intervals(prof, (-1.0, 1.0))
    with pytest.raises(ValueError):
        negative_intervals(prof, (0.0, 1.0), resolution=-0.1)
    # a grid count past the float range used to raise OverflowError
    for resolution in (1e-320, math.nan):
        with pytest.raises(ValueError, match="not finite"):
            negative_intervals(prof, (0.0, 1e10), resolution=resolution)


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_outside_zero_to_inf_is_refused(tol):
    # tol = NaN used to report a rate that is -1 everywhere as Markovian
    negative = constant_profile(gamma3=-1.0)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        negative_intervals(negative, (0.0, 1.0), tol=tol)
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        crossover_scan(lambda v: negative, [0.0, 1.0], (0.0, 1.0), tol=tol)


def test_bisection_calls_each_rate_once_per_step():
    # R = 10 on [0, 12] has about 20 sign changes of gamma2, each bracket
    # 12/2048 wide: one call samples the grid and two points beside each
    # pole, which close the brackets across a pole with no call, and
    # regula falsi calls the rate once per step on one point in each of
    # the others
    profile = thermal_profile(ThermalParams(R=10.0, N=0.0))
    calls = []

    def gamma2(t):
        calls.append(t)
        return profile.gamma2(t)

    rep = negative_intervals(dataclasses.replace(profile, gamma2=gamma2), (0.0, 12.0))
    assert len(rep.intervals["gamma2"]) >= 8
    assert all(isinstance(t, np.ndarray) for t in calls)
    assert calls[0].size == 2049 + 2 * len(profile.poles(0.0, 12.0))
    assert len(calls) <= 1 + 12
    assert rep == negative_intervals(_scanned(profile), (0.0, 12.0))


@pytest.mark.parametrize("R, t_max", [
    pytest.param(0.5000001, 20000.0, id="20000.0"),
    pytest.param(0.5000001, 28095.3, id="28095.3"),
    # below R - 1/2 = 1e-8 the rate is non-finite within about
    # 3.6e-15/delta of the pole, farther out than a quarter of 1e-10
    # (8e-11 at 1e-9, 2.5e-9 at 1e-12), and past 2^18 a quarter of 1e-10
    # rounded onto the pole: both samples beside it read non-finite, and
    # these read Markovian
    (0.5 + 1e-9, 1.97e5), (0.5 + 5e-9, 8.8e4), (0.5 + 1e-11, 1.5e6), (0.5 + 1e-12, 4.5e6)])
def test_stretch_between_two_grid_points_opens_at_the_pole(R, t_max):
    # at R = 0.5000001 gamma2 is negative on [tau_1, 2 pi/delta], about 2
    # long, where the grid is 9.8 (t_max 20000) apart: it was missed; the
    # exact stretches and the grid scan of the plain rates alike
    profile = thermal_profile(ThermalParams(R=R, N=0.0))
    for rates in (profile, _scanned(profile)):
        rep = negative_intervals(rates, (0.0, t_max))
        assert rep.verdict is Verdict.NON_MARKOVIAN
        [(start, end)] = rep.intervals["gamma2"]
        pole, stop = thermal_zeros(R, t_max)[0], 2 * math.pi / math.sqrt(2 * R - 1)
        assert abs(start - pole) <= max(1e-10, 8 * math.ulp(pole))
        assert abs(end - stop) <= max(1e-10, 8 * math.ulp(stop))


def test_small_heating_rate_is_negative_next_to_the_pole():
    # gamma1 = 4.4e-16 f is below -tol only where f < -2273, on 9e-4 after
    # the pole at 3 pi/2, inside one grid step of 5/2048: it was missed
    N, tol = 2.2e-16, 1e-12
    profile = thermal_profile(ThermalParams(R=1.0, N=N))
    # at R = 1, f = 2 u/(1 + u) with u = tan(t/2), so 2N f = -tol at
    # u = -tol/(4N + tol)
    end_exact = 2 * (math.pi + math.atan(-tol / (4 * N + tol)))
    for rates in (profile, _scanned(profile)):
        rep = negative_intervals(rates, (0.0, 5.0), tol=tol)
        [(start, end)] = rep.intervals["gamma1"]
        assert start == pytest.approx(profile.poles(0.0, 5.0)[0], rel=0.0, abs=1e-10)
        assert end == pytest.approx(end_exact, rel=0.0, abs=1e-10)


def test_non_finite_samples_beside_a_pole_are_not_singular_times():
    # at R = 0.5 + 1e-9 the rate is non-finite within 8e-11 of the pole,
    # so also where the two samples beside it are first placed: they
    # belong to the pole
    profile = _scanned(thermal_profile(ThermalParams(R=0.5 + 1e-9, N=0.0)))
    rep = negative_intervals(profile, (0.0, 2e5))
    assert rep.singular_times == profile.poles(0.0, 2e5)
    assert len(rep.singular_times) == 1


def test_stretches_from_poles_past_two_to_the_18_are_found():
    # R = 1: gamma2 < 0 from each pole tau_k = 2 k pi - pi/2 for pi/2, a
    # stretch the 50 wide grid steps cross; past 2^18 = 262144 the
    # samples beside a pole used to round onto it, and 108 of the 478
    # stretches were missed
    t0, t1 = 2.6e5, 2.63e5
    profile = thermal_profile(ThermalParams(R=1.0, N=0.0))
    poles = np.array(profile.poles(t0, t1))
    assert (poles >= 2**18).sum() > 100
    for rates in (profile, _scanned(profile)):
        rep = negative_intervals(rates, (t0, t1), resolution=50.0)
        found = np.reshape(rep.intervals["gamma2"], (-1, 2))
        assert found.shape == (poles.size, 2)
        accuracy = 8 * math.ulp(t1)
        np.testing.assert_allclose(found[:, 0], poles, rtol=0.0, atol=accuracy)
        np.testing.assert_allclose(found[:, 1], np.minimum(poles + math.pi / 2, t1),
                                   rtol=0.0, atol=accuracy)


def test_finite_samples_beside_a_pole_take_no_extra_call():
    calls = []
    profile = RateProfile(gamma3=_counting(lambda t: 1.0 + 0.0 * t, calls),
                          poles=listed_poles(0.3, 0.6))
    assert negative_intervals(profile, (0.0, 1.0)).verdict is Verdict.MARKOVIAN
    assert [t.size for t in calls] == [2049 + 4]


def test_sample_that_stays_non_finite_stops_halfway_to_its_neighbour():
    # the rate is NaN within 1e-3 of the listed pole at 1, wider than half
    # the grid step of 2/2048: the samples beside it move out 4 times
    # farther per call, stop short of their neighbours and stay NaN
    calls = []
    profile = RateProfile(
        gamma3=_counting(lambda t: np.where(abs(t - 1.0) < 1e-3, np.nan, 1.0 - t), calls),
        poles=listed_poles(1.0))
    rep = negative_intervals(profile, (0.0, 2.0))
    moves = [t for t in calls[1:] if t.size == 2]
    assert 10 <= len(moves) <= 13
    assert np.all(np.abs(moves[-1] - 1.0) <= 0.5 * 2.0 / 2048)
    [(start, end)] = rep.intervals["gamma3"]
    assert 1.0 < start <= 1.0 + 2e-3 and end == 2.0


def test_interval_beside_a_non_finite_band_starts_where_it_ends():
    # NaN within 1e-3 of the listed pole at 1: a refinement point in the
    # band counts as not negative, so the interval starts at 1.001, not at
    # the grid point 1.0009765625 inside the band
    profile = RateProfile(
        gamma3=lambda t: np.where(abs(t - 1.0) < 1e-3, np.nan, 1.0 - t),
        poles=listed_poles(1.0))
    [(start, end)] = negative_intervals(profile, (0.0, 2.0)).intervals["gamma3"]
    assert start == pytest.approx(1.001, rel=0.0, abs=1e-10) and end == 2.0
    # and likewise where the band follows the negative stretch
    profile = RateProfile(
        gamma3=lambda t: np.where(abs(t - 1.0) < 1e-3, np.nan, t - 1.0),
        poles=listed_poles(1.0))
    [(start, end)] = negative_intervals(profile, (0.0, 2.0)).intervals["gamma3"]
    assert start == 0.0 and end == pytest.approx(0.999, rel=0.0, abs=1e-10)


def test_window_too_narrow_to_divide_is_scanned():
    # window/2048 used to underflow to 0 and raise ZeroDivisionError
    for profile in (thermal_profile(ThermalParams(R=0.5)),
                    ohmic_profile(OhmicParams(alpha=0.1, s=3.0))):
        rep = negative_intervals(profile, (0.0, 5e-324))
        assert rep.verdict is Verdict.MARKOVIAN and rep.window == (0.0, 5e-324)


def test_bisection_ends_where_no_float_lies_between_the_ends():
    # floats near 3e6 are 4.7e-10 apart, more than the 1e-10 target: the
    # bisection used to loop there without end
    profile = RateProfile(gamma3=lambda t: t - (3e6 + 0.3))
    rep = negative_intervals(profile, (0.0, 4e6))
    [(start, end)] = rep.intervals["gamma3"]
    assert start == 0.0 and end == pytest.approx(3e6 + 0.3, rel=0.0, abs=1e-9)


def test_window_past_the_former_reach_is_scanned():
    # the poles used to be listed only up to t = 200, and this window was
    # refused for that; it reads as with its poles listed by hand
    prof = thermal_profile(ThermalParams(R=10.0, N=1.0))
    listed = dataclasses.replace(prof, poles=listed_poles(*thermal_zeros(10.0, 300.0)))
    rep = negative_intervals(prof, (0.0, 300.0))
    assert rep == negative_intervals(listed, (0.0, 300.0))
    assert rep.singular_times == thermal_zeros(10.0, 300.0)
    assert len(rep.intervals["gamma2"]) == len(rep.singular_times) == 208


def test_far_window_lists_only_its_own_poles():
    # up to t = 5001 there are about 1.13e5 poles, more than can be
    # listed; the window's 22 are, and gamma2 is negative from each to
    # 2 pi k/delta, and from the window's start to the first such end
    pytest.importorskip("mpmath")
    t0, t1 = 5000.0, 5001.0
    profile = thermal_profile(ThermalParams(R=1e4, N=0.5))
    expected = _stretches(1e4, t0, t1)
    assert len(expected) == 23
    for rates in (profile, _scanned(profile)):
        rep = negative_intervals(rates, (t0, t1))
        np.testing.assert_allclose(np.reshape(rep.intervals["gamma2"], (-1, 2)),
                                   np.reshape(expected, (-1, 2)), rtol=0.0, atol=1e-10)


_THERMAL = st.builds(
    lambda R, N, t_max: (thermal_profile(ThermalParams(R, N)), t_max),
    st.one_of(st.floats(0.02, 0.49), st.floats(0.51, 20.0)),
    st.floats(0.0, 3.0), st.floats(0.5, 20.0))
_OHMIC = st.builds(
    lambda s, kernel, T, t_max: (ohmic_profile(OhmicParams(0.1, s, 1.0, T, kernel)),
                                 t_max),
    st.floats(0.5, 4.0), st.sampled_from(["paper", "literature"]),
    st.one_of(st.just(0.0), st.floats(0.2, 3.0)), st.floats(0.5, 20.0))


def _per_point(fn):
    """The rate fn called on one float at a time, also for an array of times."""
    def rate(t):
        if type(t) is np.ndarray:
            return np.array([fn(x) for x in t.tolist()], dtype=float)
        return fn(t)
    return rate


@settings(max_examples=40, deadline=None)
@given(st.one_of(_THERMAL, _OHMIC))
def test_grid_and_per_point_sampling_give_the_same_report(case):
    profile, t_max = case
    fast = negative_intervals(_scanned(profile), (0.0, t_max))
    slow = negative_intervals(dataclasses.replace(profile, **{
        name: _per_point(getattr(profile, name))
        for name in ("gamma1", "gamma2", "gamma3", "omega")}), (0.0, t_max))
    assert fast.verdict is slow.verdict
    for name in ("gamma1", "gamma2", "gamma3"):
        assert len(fast.intervals[name]) == len(slow.intervals[name])
        np.testing.assert_allclose(fast.intervals[name], slow.intervals[name],
                                   rtol=0.0, atol=1e-9)
    assert fast.singular_times == slow.singular_times


def _bisection_report(profile, t_max, tol=1e-12):
    """negative_intervals on (0, t_max) with every bracket bisected: the
    sign scan before regula falsi, kept as the reference."""
    grid = np.linspace(0.0, t_max, 2049)
    intervals = {}
    singular = set(profile.poles(0.0, t_max))
    for name, vals in zip(("gamma1", "gamma2", "gamma3"), profile.rates_on(grid)):
        finite = np.isfinite(vals)
        neg = finite & (vals < -tol)
        flips = np.flatnonzero(neg[1:] != neg[:-1]) + 1
        lo, hi, neg_lo = grid[flips - 1], grid[flips], neg[flips - 1]
        limit = np.maximum(1e-10, np.spacing(hi))
        with np.errstate(all="ignore"):
            while (open_ := np.flatnonzero(hi - lo > limit)).size:
                mid = 0.5 * (lo[open_] + hi[open_])
                v = getattr(profile, name)(mid)
                up = np.isfinite(v) & ((v < -tol) == neg_lo[open_])
                lo[open_[up]] = mid[up]
                hi[open_[~up]] = mid[~up]
        cuts = (0.5 * (lo + hi)).tolist()
        if neg[0]:
            cuts.insert(0, 0.0)
        if neg[-1]:
            cuts.append(t_max)
        intervals[name] = tuple(zip(cuts[::2], cuts[1::2]))
        singular.update(grid[~finite].tolist())
    verdict = (Verdict.NON_MARKOVIAN if any(intervals.values())
               else Verdict.MARKOVIAN)
    return NmReport((0.0, t_max), intervals, tuple(sorted(singular)), verdict)


@given(st.one_of(_THERMAL, _OHMIC))
def test_report_matches_plain_bisection(case):
    # every interval of the reference is found, to 1e-10; the samples
    # beside a listed pole may also find a stretch that opens there and
    # ends before the next grid point, which the reference misses
    profile, t_max = case
    report = negative_intervals(_scanned(profile), (0.0, t_max))
    reference = _bisection_report(profile, t_max)
    assert report.singular_times == reference.singular_times
    poles = np.array(profile.poles(0.0, t_max))
    for name in ("gamma1", "gamma2", "gamma3"):
        found = np.reshape(report.intervals[name], (-1, 2))
        expected = np.reshape(reference.intervals[name], (-1, 2))
        close = np.abs(found[:, None] - expected[None]).max(axis=2, initial=0.0) <= 1e-10
        assert close.any(axis=0).all()
        for start in found[~close.any(axis=1), 0]:
            assert np.abs(poles - start).min(initial=math.inf) <= 1e-10


def _stretches(R, t0, t1):
    """The stretches from each zero tau_k of c to 2 pi k/delta, cut to the
    window (t0, t1), from mpmath at 30 digits."""
    import mpmath
    out = []
    with mpmath.workdps(30):
        delta = mpmath.sqrt(2 * mpmath.mpf(R) - 1)
        k = int(mpmath.floor(t0 * delta / (2 * mpmath.pi))) + 1
        while (tau := 2 / delta * (k * mpmath.pi - mpmath.atan(delta))) < t1:
            out.append((float(max(tau, t0)), float(min(2 * k * mpmath.pi / delta, t1))))
            k += 1
    return out


@given(st.floats(0.5, 20.0, exclude_min=True), st.floats(0.0, 3.0),
       st.one_of(st.just(0.0), st.floats(0.0, 400.0)), st.floats(0.5, 50.0))
def test_thermal_intervals_are_the_stretches_from_each_pole(R, N, t0, width):
    # f = -2 c'/c with c' proportional to -sin(delta t/2): gamma2 is
    # negative exactly from each zero tau_k of c to 2 pi k/delta, on
    # windows from 0 and on windows that start later, many of them past
    # t = 200, where the poles used to stop
    pytest.importorskip("mpmath")
    t1 = t0 + width
    expected = _stretches(R, t0, t1)
    profile = thermal_profile(ThermalParams(R, N))
    for rates in (profile, _scanned(profile)):
        rep = negative_intervals(rates, (t0, t1))
        assert len(rep.intervals["gamma2"]) == len(expected)
        np.testing.assert_allclose(np.reshape(rep.intervals["gamma2"], (-1, 2)),
                                   np.reshape(expected, (-1, 2)), rtol=0.0, atol=1e-10)


# R from just above 1/2, where the rate reads non-finite within 8e-12 of
# each pole, to 1e4; windows from 0, later ones, and one far out per R
# scale (R = 1/2 + 1e-7 first turns negative at t = 14047.6)
_STRETCH_CASES = st.tuples(
    st.sampled_from([0.5 + 1e-7, 0.5 + 1e-4, 0.51, 0.6, 1.0, 2.5, 10.0, 137.0, 1e4]),
    st.sampled_from([0.0, 1.0, 2.9]),
    st.sampled_from([(0.0, 10.0), (0.0, 40.0), (3.3, 7.7), (150.0, 320.0),
                     (5000.0, 5001.0), (14040.0, 14060.0)]),
    st.sampled_from([1e-12, 1e-10, 1e-9, 1e-6]),
    st.one_of(st.none(), st.builds(OhmicParams, st.just(0.1), st.floats(0.5, 4.0),
                                   st.just(1.0), st.one_of(st.just(0.0), st.floats(0.2, 3.0)),
                                   st.sampled_from(["paper", "literature"]))))


@given(_STRETCH_CASES)
def test_exact_stretches_equal_the_grid_scan(case):
    # the thermal gamma1 and gamma2 report their stretches with no sample;
    # the grid scan of the same rates, with the stretches stripped, finds
    # the same intervals to 1e-10, and the same first start to the bit: an
    # interval opening at a pole starts at the pole either way.  With an
    # Ohmic part (the model "both"), gamma3 is scanned on both sides
    R, N, window, tol, ohmic = case
    profile = thermal_profile(ThermalParams(R, N))
    if ohmic is not None:
        profile = combine_profiles(profile, ohmic_profile(ohmic))
    exact = negative_intervals(profile, window, tol=tol)
    grid = negative_intervals(_scanned(profile), window, tol=tol)
    assert exact.verdict is grid.verdict
    assert exact.first_negative == grid.first_negative
    assert exact.singular_times == grid.singular_times
    for name in ("gamma1", "gamma2", "gamma3"):
        assert len(exact.intervals[name]) == len(grid.intervals[name])
        np.testing.assert_allclose(np.reshape(exact.intervals[name], (-1, 2)),
                                   np.reshape(grid.intervals[name], (-1, 2)),
                                   rtol=0.0, atol=1e-10)


class _CountedRate:
    """A rate that counts its calls and carries the stretches of another."""

    def __init__(self, fn):
        self.fn, self.calls = fn, 0
        self.negative_stretches = fn.negative_stretches

    def __call__(self, t):
        self.calls += 1
        return self.fn(t)


def test_exact_stretches_take_no_sample():
    # a thermal profile's gamma1 and gamma2 carry their stretches and its
    # gamma3 is zero: no rate is called; a rate summed with another
    # carries none, and is sampled
    profile = thermal_profile(ThermalParams(R=10.0, N=1.0))
    counted = dataclasses.replace(profile, gamma1=_CountedRate(profile.gamma1),
                                  gamma2=_CountedRate(profile.gamma2))
    rep = negative_intervals(counted, (0.0, 12.0))
    assert counted.gamma1.calls == counted.gamma2.calls == 0
    assert len(rep.intervals["gamma1"]) == 8
    assert rep.singular_times == profile.poles(0.0, 12.0)
    assert not hasattr(combine_profiles(profile, constant_profile(gamma1=1.0)).gamma1,
                       "negative_stretches")


def _counting(fn, calls):
    def rate(t):
        calls.append(t)
        return fn(t)
    return rate


def test_smooth_brackets_take_fewer_calls_than_bisection():
    # gamma3 turns negative once on (0, 2.5), in a bracket 2.5/2048 wide
    # that bisection took 24 calls to narrow to 1e-10
    profile = ohmic_profile(OhmicParams(0.1, 3.0, 1.2, 0.5, "paper"))
    calls = []
    rep = negative_intervals(
        dataclasses.replace(profile, gamma3=_counting(profile.gamma3, calls)), (0.0, 2.5))
    assert len(rep.intervals["gamma3"]) == 1
    assert calls[0].size == 2049 and len(calls) <= 1 + 12
    np.testing.assert_allclose(rep.intervals["gamma3"],
                               _bisection_report(profile, 2.5).intervals["gamma3"],
                               rtol=0.0, atol=1e-10)


def test_root_at_an_inflection_takes_at_most_a_few_steps_more_than_bisection():
    # regula falsi crawls towards the crossing of (t - 1)^3 = -tol at
    # t = 1 - 1e-4, where the rate is nearly flat; the step allowance
    # ends it a few steps after bisection's count
    calls = []
    profile = RateProfile(gamma3=_counting(lambda t: (t - 1.0) ** 3, calls))
    rep = negative_intervals(profile, (0.0, 2.5))
    [(start, end)] = rep.intervals["gamma3"]
    assert start == 0.0 and end == pytest.approx(1.0 - 1e-4, rel=0.0, abs=1e-10)
    bisection_steps = math.ceil(math.log2(2.5 / 2048 / 1e-10))
    assert len(calls) <= 1 + bisection_steps + nonmarkov._EXTRA_STEPS


def test_unlisted_divergence_is_bisected():
    # the grid sample at t = 1 is infinite, an end of the bracket where
    # gamma3 = 1/(t - 1) stops being negative: a NaN end makes regula
    # falsi bisect, as the reference does
    calls = []
    profile = RateProfile(gamma3=_counting(lambda t: 1.0 / (t - 1.0), calls))
    rep = negative_intervals(profile, (0.0, 2.0))
    count = len(calls)
    reference = _bisection_report(profile, 2.0)
    [(start, end)] = rep.intervals["gamma3"]
    assert start == 0.0 and rep.singular_times == reference.singular_times == (1.0,)
    assert end == pytest.approx(reference.intervals["gamma3"][0][1], rel=0.0, abs=1e-10)
    bisection_steps = math.ceil(math.log2(2.0 / 2048 / 1e-10))
    assert count <= 1 + bisection_steps + nonmarkov._EXTRA_STEPS


class TestCrossover:
    def test_thermal_threshold_near_half(self):
        fam = lambda R: thermal_profile(ThermalParams(R=R, N=0.0))
        res = crossover_scan(fam, np.linspace(0.05, 2.0, 14), (0.0, 120.0))
        assert res.threshold == pytest.approx(0.5, abs=0.01)
        assert res.verdicts[0] is Verdict.MARKOVIAN
        assert res.verdicts[-1] is Verdict.NON_MARKOVIAN

    def test_ohmic_thresholds(self):
        fam_lit = lambda s: ohmic_profile(
            OhmicParams(alpha=0.1, s=s, omega_c=1.0, kernel="literature"))
        res = crossover_scan(fam_lit, np.linspace(0.5, 4.0, 15), (0.0, 50.0))
        assert res.threshold == pytest.approx(2.0, abs=0.05)

        fam_paper = lambda s: ohmic_profile(
            OhmicParams(alpha=0.1, s=s, omega_c=1.0, kernel="paper"))
        res = crossover_scan(fam_paper, np.linspace(0.5, 4.0, 15), (0.0, 50.0))
        assert res.threshold == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("kernel, offset", [("literature", 0.0), ("paper", 1.0)])
    @pytest.mark.parametrize("omega_c, t_max", [(1.0, 3.0), (1.0, 50.0), (1.0, 200.0),
                                                (2.0, 10.0), (0.5, 30.0)])
    def test_zero_temperature_threshold_on_a_window(self, kernel, offset, omega_c, t_max):
        # at T = 0 gamma3 first changes sign at omega_c t = tan(pi/m), with
        # m = s (literature) or s + 1 (paper), so on (0, t_max) the
        # threshold is s_w = pi/atan(omega_c t_max), less 1 for the paper
        # kernel; the grid of values is not symmetric about it, so that no
        # bisection midpoint lands on it.  Near s_w gamma3(t_max) is about
        # -1e-5 (s - s_w) at t_max = 200, so the default tol of 1e-12 would
        # move the verdict's threshold by 1e-7, a quarter of the bracket
        s_w = math.pi / math.atan(omega_c * t_max) - offset
        family = lambda s: ohmic_profile(OhmicParams(0.1, s, omega_c, 0.0, kernel))
        res = crossover_scan(family, np.linspace(0.3, 4.3, 11), (0.0, t_max),
                             tol=1e-15, refine_rel=1e-6)
        lo, hi = res.bracket
        assert lo < s_w < hi and hi - lo <= 1e-6 * 0.4
        assert res.threshold == hi

    def test_no_crossover_in_grid(self):
        fam = lambda R: thermal_profile(ThermalParams(R=R, N=0.0))
        res = crossover_scan(fam, [0.05, 0.1, 0.2], (0.0, 20.0))
        assert res.threshold is None and res.bracket is None

    def test_bisection_ends_where_no_float_lies_between_the_values(self):
        # floats near 1e4 are 1.8e-12 apart, more than the 1e-12 floor of
        # the target: the bisection used to loop there without end
        calls = []

        def family(v):
            calls.append(v)
            assert len(calls) <= 100, "the parameter bisection does not end"
            return constant_profile(gamma3=-1.0 if v > 1e4 else 1.0)

        res = crossover_scan(family, [1e4, 1e4 + 1e-9], (0.0, 1.0))
        lo, hi = res.bracket
        assert lo == 1e4 and hi == np.nextafter(lo, math.inf) and res.threshold == hi
        assert len(calls) <= 2 + 12

    def test_values_must_increase(self):
        fam = lambda R: thermal_profile(ThermalParams(R=R, N=0.0))
        with pytest.raises(ValueError):
            crossover_scan(fam, [0.3, 0.2], (0.0, 10.0))

    def test_non_finite_values_and_refine_rel_are_refused(self):
        # refine_rel = NaN used to return the unrefined grid bracket, and a
        # NaN value passed the increasing check and reached the family
        def family(v):
            raise AssertionError(f"family called at {v!r}")

        for values in ([math.nan, 0.0, 1.0], [0.0, 1.0, math.inf], [-math.inf, 0.0]):
            with pytest.raises(ValueError, match="values must be finite"):
                crossover_scan(family, values, (0.0, 1.0))
        for refine_rel in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="refine_rel must be positive and finite"):
                crossover_scan(family, [0.0, 1.0], (0.0, 1.0), refine_rel=refine_rel)
