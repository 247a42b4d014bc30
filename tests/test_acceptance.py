"""Acceptance suite: one test per exit criterion, at the stated tolerance.

Every test prints a single ``ACCEPTANCE <id>: PASS/FAIL`` line (visible
with ``pytest -s`` or in the captured output of failures) before
asserting, so the whole scorecard is readable in one run.
"""

import math

import numpy as np
import pytest

from phasecov import (CoefficientSet, OhmicParams, QubitState, ThermalParams,
                      additivity_report, combine_profiles,
                      cp_choi, cp_paper, cp_report, crossover_scan, evolve_state,
                      integrate_me, integrate_profile, markov_rate_limit,
                      negative_intervals, ohmic_closed_form, ohmic_gamma_tilde,
                      ohmic_profile, ohmic_rate, short_time_check,
                      thermal_closed_form, thermal_profile, Verdict)

RNG = np.random.default_rng(20240811)


def _report(cid, ok, detail):
    print(f"\nACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {cid}: {detail}"


def test_criterion_1_ode_oracle_matches_closed_form():
    """Direct integration of the master equation vs the analytic map."""
    state0 = QubitState(0.3, 0.2 - 0.1j)
    rho0 = state0.density_matrix
    t_eval = np.linspace(0.0, 10.0, 21)
    worst = 0.0
    for R in (0.05, 0.25, 0.45):
        for N in (0.0, 1.0, 3.0):
            for s in (1.0, 3.0):
                prof = combine_profiles(
                    thermal_profile(ThermalParams(R=R, N=N)),
                    ohmic_profile(OhmicParams(alpha=0.1, s=s, omega_c=1.0,
                                              T=0.0, kernel="literature")),
                )
                numeric = integrate_me(prof, rho0, 10.0, rtol=1e-10,
                                       atol=1e-12, t_eval=t_eval)
                analytic = integrate_profile(prof, t_eval[1:])
                for rho_num, c in zip(numeric[1:], analytic):
                    rho_cf = evolve_state(state0, c).density_matrix
                    worst = max(worst, float(np.abs(rho_num - rho_cf).max()))
    _report("1", worst <= 1e-6, f"max entry deviation {worst:.3e}, tolerance 1e-6")


def test_criterion_2_checker_cross_validation():
    """Inequality conditions vs Choi spectrum on random coefficient tuples."""
    n = 10_000
    gammas = RNG.uniform(-1.0, 5.0, n)
    tildes = RNG.uniform(-2.0, 5.0, n)
    gs = RNG.uniform(-0.3, 1.3, n)
    omegas = RNG.uniform(0.0, 2.0 * math.pi, n)

    agree_zero_phase = 0
    one_sided = 0
    for i in range(n):
        c0 = CoefficientSet(t=1.0, Gamma=gammas[i], GammaTilde=tildes[i],
                            Omega=0.0, g=gs[i])
        if cp_paper(c0).verdict == cp_choi(c0).is_cp:
            agree_zero_phase += 1
        cw = CoefficientSet(t=1.0, Gamma=gammas[i], GammaTilde=tildes[i],
                            Omega=omegas[i], g=gs[i])
        if (not cp_choi(cw).is_cp) or cp_paper(cw).verdict:
            one_sided += 1

    # documented discrepancy: negative dephasing hidden by cos^2(Omega)
    c_bad = CoefficientSet(t=1.0, Gamma=0.5, GammaTilde=-0.5,
                           Omega=math.pi / 2, g=0.3)
    rep = cp_report(c_bad)
    discrepancy = rep.paper_verdict and not rep.choi_verdict

    ok = agree_zero_phase == n and one_sided == n and discrepancy
    _report("2", ok,
            f"zero-phase agreement {agree_zero_phase}/{n}, "
            f"choi=>paper {one_sided}/{n}, discrepancy tuple found: {discrepancy}")


def test_criterion_3_heuristic_model_is_physical():
    """Min Choi eigenvalue of thermal + Ohmic dephasing across parameters."""
    times = np.linspace(0.0, 10.0, 500)
    tildes = {}
    for s in (0.5, 1.0, 2.0, 3.0):
        for T in (0.0, 1.0):
            p = OhmicParams(alpha=0.1, s=s, omega_c=1.0, T=T, kernel="literature")
            if T == 0.0:
                tildes[s, T] = np.array([ohmic_closed_form(p, t)[1] for t in times])
            else:
                tildes[s, T] = np.array([ohmic_gamma_tilde(p, t) for t in times])

    worst = math.inf
    for R in (0.01, 0.25, 0.5, 2.0, 10.0):
        for N in (0.0, 0.5, 1.0, 5.0):
            p = ThermalParams(R=R, N=N)
            closed = [thermal_closed_form(p, t) for t in times]
            decay = np.exp(-np.array([c[0] for c in closed]))
            g = np.array([c[1] for c in closed])
            pbar, qbar = decay + g, g
            for tilde in tildes.values():
                k2 = decay * np.exp(-2.0 * tilde)
                half_sum = (pbar + 1.0 - qbar) / 2.0
                half_disc = 0.5 * np.sqrt((pbar - 1.0 + qbar) ** 2 + 4.0 * k2)
                min_eig = np.minimum.reduce(
                    [1.0 - pbar, qbar, half_sum - half_disc]).min()
                worst = min(worst, float(min_eig))
    _report("3", worst >= -1e-9, f"min Choi eigenvalue {worst:.3e}, floor -1e-9")


@pytest.mark.parametrize("N", [0.0, 1.0])
def test_criterion_4_markovian_limit(N):
    """R = 0.01, t in [50, 400]: the propagator from t = 50 is the Markov
    semigroup exp(-(N+1/2) gamma_M (t - 50)) within 2%, and the full map
    exp(-Gamma) sits above exp(-(N+1/2) gamma_M t) by the initial slip
    A^(2N+1) of the memory kernel, within 1e-9 relative."""
    R = 0.01
    gamma_m = markov_rate_limit(R)
    p = ThermalParams(R=R, N=N)
    # for R < 1/2, c(tau) -> (1 + 1/d)/2 exp(-(1 - d) tau/2) with
    # d = sqrt(1 - 2R), so x = c^2 -> A exp(-gamma_M tau/2) and
    # exp(-Gamma) = x^(2N+1) keeps the constant factor A^(2N+1)
    d = math.sqrt(1.0 - 2.0 * R)
    slip = ((1.0 + 1.0 / d) / 2.0) ** (2.0 * (2.0 * N + 1.0))
    times = np.linspace(50.0, 400.0, 176)
    gammas = np.array([thermal_closed_form(p, float(t))[0] for t in times])
    markov = (N + 0.5) * gamma_m * times
    # exp(-Gamma) over the Markov semigroup, formed in the exponent; the
    # propagator ratio cancels the slip, the full-map ratio keeps it
    full = np.exp(markov - gammas)
    propagator = np.exp((markov - markov[0]) - (gammas - gammas[0]))
    propagator_dev = float(np.abs(propagator - 1.0).max())
    slip_dev = float(np.abs(full / slip - 1.0).max())
    full_dev = float(np.abs(full - 1.0).max())
    ok = propagator_dev <= 0.02 and slip_dev <= 1e-9
    _report(f"4 (N={N:g})", ok,
            f"propagator deviation {propagator_dev:.3e}, tolerance 2%; "
            f"full-map deviation {full_dev:.4%} against slip "
            f"A^(2N+1) - 1 = {slip - 1.0:.4%}, mismatch {slip_dev:.1e}, "
            f"tolerance 1e-9")


@pytest.mark.parametrize("N", [0.0, 1.0, 3.0, 10.0])
def test_criterion_5a_weak_coupling_population_convergence(N):
    """R = 0.01, P1(0) = 0: P1 monotone on [0, 600], and P1(600) within 1e-3
    of the Markovian thermal relaxation mu [1 - exp(-(N+1/2) gamma_M t)]
    towards mu = (N+1)/(2N+1)."""
    R = 0.01
    p = ThermalParams(R=R, N=N)
    times = np.linspace(0.0, 600.0, 2000)
    p1 = np.array([thermal_closed_form(p, float(t))[1] for t in times])
    mu = (N + 1.0) / (2.0 * N + 1.0)
    # at N = 0 the relaxation time 1/((N+1/2) gamma_M) is 99.5, so P1(600)
    # is still ~2.4e-3 short of mu, as is the Markov semigroup itself
    p1_markov = -mu * math.expm1(-(N + 0.5) * markov_rate_limit(R) * times[-1])
    monotone = bool(np.all(np.diff(p1) >= -1e-14))
    residual = abs(p1[-1] - p1_markov)
    _report(f"5a (N={N:g})", monotone and residual <= 1e-3,
            f"monotone={monotone}, |P1(600) - P1_M(600)| = {residual:.3e}, "
            f"tolerance 1e-3; |P1(600) - {mu:.4g}| = {abs(p1[-1] - mu):.3e}")


def test_criterion_5b_strong_coupling_oscillations():
    """R = 10: oscillating P1, amplitude damped by temperature, still NM."""
    times = np.linspace(0.0, 6.0, 3000)
    p1 = np.array([thermal_closed_form(ThermalParams(R=10.0, N=0.0), float(t))[1]
                   for t in times])
    maxima = int(np.sum((p1[1:-1] > p1[:-2] + 1e-12)
                        & (p1[1:-1] > p1[2:] + 1e-12)))

    # oscillation amplitude about the stationary value (N+1)/(2N+1); from
    # P1(0) = 0 the deviation is mu * exp(-Gamma), evaluated through the
    # decay factor so deep attenuation is not lost to cancellation
    first_peak = 0.8242034311692071
    tail = times[times > first_peak + 1e-6]
    amplitudes = []
    verdicts = []
    for N in (0.0, 1.0, 3.0, 10.0):
        p = ThermalParams(R=10.0, N=N)
        mu = (N + 1.0) / (2.0 * N + 1.0)
        decay_max = max(math.exp(-thermal_closed_form(p, float(t))[0])
                        for t in tail)
        amplitudes.append(mu * decay_max)
        rep = negative_intervals(thermal_profile(p), (0.0, 6.0))
        verdicts.append(rep.verdict is Verdict.NON_MARKOVIAN)

    decreasing = all(b < a for a, b in zip(amplitudes[:-1], amplitudes[1:]))
    ok = maxima >= 2 and decreasing and all(verdicts)
    _report("5b", ok,
            f"{maxima} maxima >= 2, amplitudes "
            + " > ".join(f"{a:.2e}" for a in amplitudes)
            + f", all NonMarkovian: {all(verdicts)}")


def test_criterion_6_additivity_of_coherence_decay():
    """Thermal dissipator plus two independent Ohmic dephasers."""
    thermal = thermal_profile(ThermalParams(R=0.25, N=1.0))
    deph_a = ohmic_profile(OhmicParams(alpha=0.1, s=1.0, kernel="literature"))
    deph_b = ohmic_profile(OhmicParams(alpha=0.1, s=3.0, kernel="literature"))
    combined = combine_profiles(thermal, deph_a, deph_b)

    t_grid = np.linspace(1.0, 10.0, 10)
    s0 = QubitState(0.5, 0.4)
    cs_all = integrate_profile(combined, t_grid)
    cs_th = integrate_profile(thermal, t_grid)
    cs_a = integrate_profile(deph_a, t_grid)
    cs_b = integrate_profile(deph_b, t_grid)

    worst = 0.0
    for c_all, c_th, c_a, c_b in zip(cs_all, cs_th, cs_a, cs_b):
        evolved = evolve_state(s0, c_all)
        lhs = math.log(abs(evolved.alpha) / abs(s0.alpha))
        rep = additivity_report(c_th, [c_a, c_b], c_all.t)
        worst = max(worst, abs(lhs - rep.total))
    _report("6", worst <= 1e-9, f"max |log-modulus mismatch| {worst:.3e}, tolerance 1e-9")


def test_criterion_7_crossover_thresholds():
    """Markovian to non-Markovian thresholds in R and s."""
    fam_r = lambda R: thermal_profile(ThermalParams(R=R, N=0.0))
    r_star = crossover_scan(fam_r, np.linspace(0.05, 2.0, 14),
                            (0.0, 120.0)).threshold

    fam_lit = lambda s: ohmic_profile(
        OhmicParams(alpha=0.1, s=s, omega_c=1.0, T=0.0, kernel="literature"))
    s_lit = crossover_scan(fam_lit, np.linspace(0.5, 4.0, 15),
                           (0.0, 50.0)).threshold

    fam_pap = lambda s: ohmic_profile(
        OhmicParams(alpha=0.1, s=s, omega_c=1.0, T=0.0, kernel="paper"))
    s_pap = crossover_scan(fam_pap, np.linspace(0.5, 4.0, 15),
                           (0.0, 50.0)).threshold

    ok = (abs(r_star - 0.5) <= 0.01 and abs(s_lit - 2.0) <= 0.05
          and abs(s_pap - 1.0) <= 0.05)
    _report("7", ok,
            f"R* = {r_star:.4f} (0.5 +- 0.01), s*_lit = {s_lit:.4f} (2 +- 0.05), "
            f"s*_paper = {s_pap:.4f} (1 +- 0.05)")


def test_criterion_8_quadrature_vs_closed_forms():
    """Frequency quadrature vs analytic rate; time quadrature vs analytic Gamma."""
    # grid chosen off the isolated zeros of gamma3, where a relative
    # error is undefined
    u_grid = np.geomspace(0.1, 10.0, 24)
    worst_ohmic = 0.0
    for kernel in ("paper", "literature"):
        for s in (0.5, 1.0, 2.0, 3.0):
            p = OhmicParams(alpha=0.1, s=s, omega_c=1.0, T=0.0, kernel=kernel)
            for u in u_grid:
                cf = ohmic_closed_form(p, float(u))[0]
                rel = abs(ohmic_rate(p, float(u)) - cf) / abs(cf)
                worst_ohmic = max(worst_ohmic, rel)

    worst_thermal = 0.0
    for R, N, grid in ((0.25, 0.0, np.linspace(0.5, 10.0, 12)),
                       (0.25, 1.0, np.linspace(0.5, 10.0, 12)),
                       (10.0, 0.0, np.linspace(0.05, 0.7, 8))):
        p = ThermalParams(R=R, N=N)
        for c in integrate_profile(thermal_profile(p), list(grid)):
            gamma_cf, _ = thermal_closed_form(p, c.t)
            worst_thermal = max(worst_thermal,
                                abs(c.Gamma - gamma_cf) / abs(gamma_cf))

    ok = worst_ohmic <= 1e-7 and worst_thermal <= 1e-8
    _report("8", ok, f"gamma3 rel err {worst_ohmic:.2e} (tol 1e-7), "
                     f"Gamma rel err {worst_thermal:.2e} (tol 1e-8)")


def test_criterion_9_initial_rates_vanish():
    """Both shipped models start with exactly vanishing rates."""
    worst = 0.0
    for R in (0.25, 10.0):
        for N in (0.0, 1.0):
            rep = short_time_check(thermal_profile(ThermalParams(R=R, N=N)))
            assert rep.all_ok
            worst = max(worst, max(abs(v) for v in rep.values))
    for kernel in ("paper", "literature"):
        for T in (0.0, 1.0):
            rep = short_time_check(ohmic_profile(
                OhmicParams(alpha=0.1, s=2.0, T=T, kernel=kernel)))
            assert rep.all_ok
            worst = max(worst, max(abs(v) for v in rep.values))
    _report("9", worst <= 1e-10, f"max |rate(0)| = {worst:.1e}, tolerance 1e-10")
