import math

import numpy as np
import pytest

from phasecov import (AffineBlochMap, CoefficientSet, OhmicParams, QubitState,
                      ThermalParams, additivity_report, bloch_map, combine_profiles,
                      cp_choi, evolve_state, integrate_profile,
                      markovian_coefficients, ohmic_profile, thermal_closed_form)
RNG = np.random.default_rng(20240811)


def _thermal_coefficients(p, t):
    """The closed-form CoefficientSet of the purely thermal model at t."""
    gamma, g = thermal_closed_form(p, t)
    return CoefficientSet(t=t, Gamma=gamma, GammaTilde=0.0, Omega=0.0, g=g)


def _apply(m, v):
    """The Bloch map m on a Bloch vector v: L v + (0, 0, t3)."""
    k = m.kappa
    L = np.array([[k.real, k.imag, 0.0], [-k.imag, k.real, 0.0], [0.0, 0.0, m.lambda3]])
    return L @ v + np.array([0.0, 0.0, m.t3])


def _compose(outer, inner):
    """The Bloch map outer(inner(.))."""
    return AffineBlochMap(lambda3=outer.lambda3 * inner.lambda3,
                          t3=outer.lambda3 * inner.t3 + outer.t3,
                          kappa=outer.kappa * inner.kappa)


def _random_state(rng):
    p1 = rng.uniform(0.0, 1.0)
    r = math.sqrt(p1 * (1.0 - p1)) * rng.uniform(0.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return QubitState(p1, r * complex(math.cos(phi), math.sin(phi)))


def _random_cp_coefficients(rng):
    # sample directly in (pbar, qbar) space, which is CP by construction
    qbar = rng.uniform(0.0, 1.0)
    pbar = rng.uniform(qbar, 1.0)
    tilde = rng.uniform(0.0, 2.0)
    omega = rng.uniform(0.0, 2.0 * math.pi)
    lam3 = pbar - qbar
    gamma = math.inf if lam3 == 0.0 else -math.log(lam3)
    return CoefficientSet(t=1.0, Gamma=gamma, GammaTilde=tilde, Omega=omega, g=qbar)


class TestEvolveState:
    def test_identity(self):
        s = QubitState(0.3, 0.2 - 0.1j)
        out = evolve_state(s, CoefficientSet.identity())
        assert out.P1 == s.P1 and out.alpha == s.alpha

    def test_markovian_population(self):
        gamma = 0.8
        s0 = QubitState(0.25, 0.1j)
        for t in (0.5, 2.0, 6.0):
            c = markovian_coefficients(0.0, gamma, 0.0, 0.0, t)
            out = evolve_state(s0, c)
            decay = math.exp(-gamma * t / 2)
            assert out.P1 == pytest.approx(decay * 0.25 + (1 - decay), rel=1e-12)

    def test_thermal_full_relaxation_at_memory_zero(self):
        # R = 10, N = 0: at the first zero of c the whole population sits
        # in the ground state whatever the initial state
        tau = 0.8242034311692071
        c = _thermal_coefficients(ThermalParams(R=10.0, N=0.0), tau)
        out = evolve_state(QubitState(0.0, 0.0), c)
        assert out.P1 == pytest.approx(1.0, abs=1e-12)

    def test_invalid_state_rejected(self):
        with pytest.raises(ValueError):
            QubitState(1.4, 0.0)
        with pytest.raises(ValueError):
            QubitState(0.5, 0.9)
        with pytest.raises(ValueError):
            QubitState(0.5, complex(math.nan, 0.0))
        # past about 1.3e154, abs(alpha) ** 2 used to raise OverflowError,
        # and abs itself does past about 1.3e308 on each axis
        for alpha in (1e300, 1e300j, complex(1.7e308, -1.7e308), math.inf):
            with pytest.raises(ValueError, match="coherence violates"):
                QubitState(0.5, alpha)
        with pytest.raises(ValueError):
            evolve_state("not a state", CoefficientSet.identity())

    def test_phase_decouples_from_magnitude(self):
        s0 = QubitState(0.5, 0.3 + 0.2j)
        base = CoefficientSet(t=1.0, Gamma=0.4, GammaTilde=0.2, Omega=0.0, g=0.1)
        ref = abs(evolve_state(s0, base).alpha)
        for omega in (0.7, math.pi / 2, 4.0):
            c = CoefficientSet(t=1.0, Gamma=0.4, GammaTilde=0.2, Omega=omega, g=0.1)
            assert abs(evolve_state(s0, c).alpha) == pytest.approx(ref, rel=1e-14)

    def test_cp_maps_preserve_state_validity(self):
        for _ in range(10_000):
            c = _random_cp_coefficients(RNG)
            assert cp_choi(c).is_cp
            out = evolve_state(_random_state(RNG), c)
            assert -1e-12 <= out.P1 <= 1.0 + 1e-12
            assert abs(out.alpha) ** 2 <= out.P1 * (1.0 - out.P1) + 1e-12


class TestBlochMap:
    def test_identity(self):
        m = bloch_map(CoefficientSet.identity())
        assert (m.lambda3, m.t3, m.kappa) == (1.0, 0.0, 1.0 + 0j)

    def test_full_relaxation_limit(self):
        c = CoefficientSet(t=1.0, Gamma=math.inf, GammaTilde=0.0, Omega=0.0, g=1.0)
        m = bloch_map(c)
        assert (m.lambda3, m.t3, m.kappa) == (0.0, 1.0, 0j)

    def test_pure_dephasing(self):
        c = CoefficientSet(t=1.0, Gamma=0.0, GammaTilde=math.log(2.0),
                           Omega=0.0, g=0.0)
        m = bloch_map(c)
        assert m.lambda3 == 1.0 and m.t3 == 0.0
        assert m.kappa == pytest.approx(0.5 + 0j, rel=1e-15)

    def test_apply_identity(self):
        v = np.array([0.3, -0.2, 0.5])
        m = bloch_map(CoefficientSet.identity())
        assert np.allclose(_apply(m, v), v, atol=1e-15)

    def test_ground_state_fixed_point_zero_temperature(self):
        c = _thermal_coefficients(ThermalParams(R=10.0, N=0.0), 0.8242034311692071)
        out = _apply(bloch_map(c), np.array([0.0, 0.0, 1.0]))
        assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-12)

    def test_representation_equivalence(self):
        # state route and Bloch route agree for random states and maps
        for _ in range(2000):
            c = CoefficientSet(
                t=1.0,
                Gamma=RNG.uniform(0.0, 3.0),
                GammaTilde=RNG.uniform(-0.5, 2.0),
                Omega=RNG.uniform(0.0, 2 * math.pi),
                g=RNG.uniform(0.0, 1.0),
            )
            s = _random_state(RNG)
            via_state = evolve_state(s, c) if _valid_output(s, c) else None
            if via_state is None:
                continue
            via_bloch = _apply(bloch_map(c), s.bloch)
            assert np.abs(via_state.bloch - via_bloch).max() <= 1e-12


def _valid_output(s, c):
    p1 = c.decay * s.P1 + c.g
    a = abs(s.alpha) * c.attenuation
    return 0.0 <= p1 <= 1.0 and a * a <= p1 * (1 - p1) + 1e-15


class TestComposition:
    def test_markovian_semigroup(self):
        g1, g2, g3, w = 0.2, 0.9, 0.1, 0.6
        for t1, t2 in ((0.3, 0.7), (1.0, 2.5), (4.0, 0.1)):
            m_sum = bloch_map(markovian_coefficients(g1, g2, g3, w, t1 + t2))
            m_12 = _compose(
                bloch_map(markovian_coefficients(g1, g2, g3, w, t2)),
                bloch_map(markovian_coefficients(g1, g2, g3, w, t1)),
            )
            assert m_sum.lambda3 == pytest.approx(m_12.lambda3, abs=1e-12)
            assert m_sum.t3 == pytest.approx(m_12.t3, abs=1e-12)
            assert m_sum.kappa == pytest.approx(m_12.kappa, abs=1e-12)

    def test_markovian_fixed_point(self):
        g1, g2 = 0.3, 0.7
        c = markovian_coefficients(g1, g2, 0.0, 0.0, 200.0)
        stationary = evolve_state(QubitState(0.1, 0.0), c).P1
        assert stationary == pytest.approx(g2 / (g1 + g2), abs=1e-12)


class TestAdditivity:
    def test_single_dephaser(self):
        diss = CoefficientSet(t=2.0, Gamma=0.8, GammaTilde=0.0, Omega=0.0, g=0.3)
        deph = CoefficientSet(t=2.0, Gamma=0.0, GammaTilde=0.5, Omega=0.0, g=0.0)
        rep = additivity_report(diss, [deph], 2.0)
        assert rep.total == pytest.approx(-0.8 / 2 - 0.5, rel=1e-15)

    def test_two_ohmic_dephasers_sum(self):
        t_grid = np.linspace(0.5, 10.0, 6)
        prof_a = ohmic_profile(OhmicParams(alpha=0.1, s=1.0, kernel="literature"))
        prof_b = ohmic_profile(OhmicParams(alpha=0.1, s=3.0, kernel="literature"))
        both = combine_profiles(prof_a, prof_b)
        cs_a = integrate_profile(prof_a, t_grid)
        cs_b = integrate_profile(prof_b, t_grid)
        cs_ab = integrate_profile(both, t_grid)
        for a, b, ab in zip(cs_a, cs_b, cs_ab):
            assert ab.GammaTilde == pytest.approx(a.GammaTilde + b.GammaTilde,
                                                  rel=1e-12)

    def test_dissipative_only_attenuation(self):
        c = _thermal_coefficients(ThermalParams(R=0.25, N=1.0), 3.0)
        s0 = QubitState(0.5, 0.4)
        out = evolve_state(s0, c)
        assert abs(out.alpha) / abs(s0.alpha) == pytest.approx(
            math.exp(-c.Gamma / 2), rel=1e-14)
        rep = additivity_report(c, [], 3.0)
        assert rep.attenuation == pytest.approx(math.exp(-c.Gamma / 2), rel=1e-14)

    def test_mismatched_times_rejected(self):
        diss = CoefficientSet(t=2.0, Gamma=0.8, GammaTilde=0.0, Omega=0.0, g=0.3)
        deph = CoefficientSet(t=1.0, Gamma=0.0, GammaTilde=0.5, Omega=0.0, g=0.0)
        with pytest.raises(ValueError):
            additivity_report(diss, [deph], 2.0)


def test_state_bloch_round_trip():
    s = QubitState(0.62, 0.1 - 0.25j)
    assert QubitState.from_bloch(s.bloch) == s
    rho = s.density_matrix
    assert np.trace(rho) == pytest.approx(1.0)
    assert QubitState.from_density_matrix(rho) == s


def test_evolve_state_on_a_grid_equals_scalar_calls():
    sets = [_random_cp_coefficients(RNG) for _ in range(50)]
    grid = CoefficientSet(*np.array([(float(i), c.Gamma, c.GammaTilde, c.Omega, c.g)
                                     for i, c in enumerate(sets)]).T)
    s0 = _random_state(RNG)
    p1, alpha = evolve_state(s0, grid)
    for i, c in enumerate(sets):
        one = evolve_state(s0, c)
        assert p1[i] == pytest.approx(one.P1, rel=1e-14, abs=1e-15)
        assert alpha[i] == pytest.approx(one.alpha, rel=1e-14, abs=1e-15)


def test_evolve_state_on_a_grid_names_the_first_time_outside():
    # gamma1 = 2, gamma2 = -1 from P1(0) = 1: P1 = 2 exp(-t/2) - 1 < 0 after 2 ln 2
    t = np.linspace(0.0, 10.0, 200)
    grid = markovian_coefficients(2.0, -1.0, 0.0, 0.0, t)
    first = float(t[np.argmax(2.0 * np.exp(-t / 2.0) - 1.0 < 0.0)])
    with pytest.raises(ValueError, match=rf"^at t = {first!r}: P1 = .* outside \[0, 1\]"):
        evolve_state(QubitState(1.0), grid)
    # the coherence bound, from a state on the Bloch sphere
    with pytest.raises(ValueError, match=r"^at t = .*: coherence violates"):
        evolve_state(QubitState(0.5, 0.5), markovian_coefficients(2.0, -1.0, 0.0, 0.0, t))
