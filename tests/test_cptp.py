import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecov import (AffineBlochMap, CoefficientSet, OhmicParams, RateProfile,
                      ThermalParams, choi_spectrum, constant_profile,
                      cp_choi, cp_paper, cp_report, markovian_coefficients,
                      ohmic_closed_form, ohmic_profile, pqwy, short_time_check,
                      thermal_closed_form, thermal_profile)

from conftest import listed_poles

RNG = np.random.default_rng(7)


def _coeffs(Gamma, GammaTilde, Omega, g, t=1.0):
    return CoefficientSet(t=t, Gamma=Gamma, GammaTilde=GammaTilde, Omega=Omega, g=g)


def _thermal_coefficients(p, t):
    """The closed-form CoefficientSet of the purely thermal model at t."""
    gamma, g = thermal_closed_form(p, t)
    return _coeffs(gamma, 0.0, 0.0, g, t)


def _choi_matrix(m):
    """The dense 4x4 Choi operator of an AffineBlochMap, in the basis
    (|1>|1>, |1>|2>, |2>|1>, |2>|2>): the oracle of ``choi_spectrum``."""
    pbar = (1.0 + m.t3 + m.lambda3) / 2.0
    qbar = (1.0 + m.t3 - m.lambda3) / 2.0
    choi = np.diag([pbar, 1.0 - pbar, qbar, 1.0 - qbar]).astype(complex)
    choi[0, 3] = m.kappa
    choi[3, 0] = np.conj(m.kappa)
    return choi


coeff_strategy = st.builds(
    _coeffs,
    Gamma=st.floats(-1.0, 6.0),
    GammaTilde=st.floats(-2.0, 6.0),
    Omega=st.floats(-7.0, 7.0),
    g=st.floats(-0.3, 1.3),
)


class TestPqwy:
    def test_identity_map(self):
        p, q, w, y = pqwy(CoefficientSet.identity())
        assert (p, q, w, y) == (0.5, -0.5, 1.0, 0j)

    def test_pure_dephasing(self):
        c = _coeffs(0.0, math.log(2.0), 0.0, 0.0)
        p, q, w, y = pqwy(c)
        assert (p, q) == (0.5, -0.5)
        assert w == pytest.approx(0.5, rel=1e-15)
        assert y == 0j

    def test_thermal_algebraic_identities(self):
        # p = e^{-Gamma}(G+1) - 1/2 and q = e^{-Gamma} G - 1/2
        c = _thermal_coefficients(ThermalParams(R=0.25, N=1.0), 1.0)
        p, q, w, y = pqwy(c)
        assert p == pytest.approx(math.exp(-c.Gamma) + c.g - 0.5, rel=1e-14)
        assert q == pytest.approx(c.g - 0.5, rel=1e-14)


class TestPaperConditions:
    def test_initial_time_saturates_i_and_iv(self):
        conds = cp_paper(CoefficientSet.identity(), tol=1e-9)
        assert conds.margin_i == 0.0
        assert conds.margin_iv == 0.0
        assert conds.verdict

    def test_negative_constant_dephasing_violates_iv(self):
        # Gamma = g = Omega = 0, GammaTilde = -0.1: iv reads e^{0.2} <= 1
        c = _coeffs(0.0, -0.1, 0.0, 0.0)
        conds = cp_paper(c)
        assert conds.margin_iv == pytest.approx(1.0 - math.exp(0.2), rel=1e-12)
        assert not conds.holds_iv
        assert not conds.verdict
        assert conds.holds_i and conds.holds_ii and conds.holds_iii

    def test_recast_reported_only_without_dephasing(self):
        with_deph = cp_paper(_coeffs(0.5, 0.3, 0.0, 0.2))
        assert with_deph.recast_iv is None
        without = cp_paper(_coeffs(0.5, 0.0, 0.7, 0.2))
        assert without.recast_iv is not None and without.recast_iv >= 0.0

    def test_thermal_plus_ohmic_always_cp(self):
        tp = ThermalParams(R=10.0, N=1.0)
        op = OhmicParams(alpha=0.1, s=3.0, omega_c=1.0, T=0.0, kernel="literature")
        for t in np.linspace(0.0, 8.0, 160):
            tc = _thermal_coefficients(tp, float(t))
            tilde = ohmic_closed_form(op, float(t))[1]
            c = CoefficientSet(t=float(t), Gamma=tc.Gamma, GammaTilde=tilde,
                               Omega=0.0, g=tc.g)
            report = cp_report(c)
            assert report.paper_verdict and report.choi_verdict


class TestChoiSpectrum:
    def test_identity_map(self):
        eigs = choi_spectrum(AffineBlochMap.identity())
        assert sorted(eigs) == pytest.approx([0.0, 0.0, 0.0, 2.0], abs=1e-15)

    def test_full_dephasing(self):
        m = AffineBlochMap(lambda3=1.0, t3=0.0, kappa=0j)
        assert sorted(choi_spectrum(m)) == pytest.approx([0, 0, 1, 1], abs=1e-15)

    def test_full_zero_temperature_relaxation(self):
        m = AffineBlochMap(lambda3=0.0, t3=1.0, kappa=0j)
        assert sorted(choi_spectrum(m)) == pytest.approx([0, 0, 1, 1], abs=1e-15)
        assert list(choi_spectrum(m)[:2]) == [0.0, 1.0]

    def test_closed_form_matches_dense_eigensolver(self):
        for _ in range(10_000):
            m = AffineBlochMap(
                lambda3=RNG.uniform(-1.2, 1.2),
                t3=RNG.uniform(-1.2, 1.2),
                kappa=complex(RNG.uniform(-1.2, 1.2), RNG.uniform(-1.2, 1.2)),
            )
            dense = np.linalg.eigvalsh(_choi_matrix(m))
            assert np.abs(np.sort(choi_spectrum(m)) - dense).max() <= 1e-10

    def test_trace_is_two(self):
        for _ in range(500):
            m = AffineBlochMap(
                lambda3=RNG.uniform(-1.0, 1.0),
                t3=RNG.uniform(-1.0, 1.0),
                kappa=complex(RNG.uniform(-1, 1), RNG.uniform(-1, 1)),
            )
            assert abs(choi_spectrum(m).sum() - 2.0) <= 1e-12


@settings(max_examples=300, deadline=None)
@given(coeff_strategy)
def test_positivity_implies_condition_iii(c):
    # i) and ii) within tol bound the iii) margin below by -2 tol
    tol = 1e-12
    conds = cp_paper(c, tol=tol)
    if conds.holds_i and conds.holds_ii:
        assert conds.margin_iii >= -2 * tol


@settings(max_examples=300, deadline=None)
@given(coeff_strategy)
def test_choi_cp_implies_paper_cp(c):
    if cp_choi(c, tol=1e-12).is_cp:
        assert cp_paper(c, tol=1e-9).verdict


_grid_rows = st.lists(st.tuples(
    st.one_of(st.floats(0.0, 50.0), st.just(math.inf)),    # Gamma
    st.floats(-5.0, 100.0),                                # GammaTilde
    st.floats(-1e3, 1e3),                                  # Omega
    st.floats(-3.0, 3.0),                                  # g
), min_size=1, max_size=30)


@settings(max_examples=200, deadline=None)
@given(_grid_rows)
def test_grid_checks_equal_scalar_checks_row_by_row(rows):
    grid = CoefficientSet(*np.array([(float(i), *row) for i, row in enumerate(rows)]).T)
    conds, choi = cp_paper(grid, tol=1e-9), cp_choi(grid, tol=1e-9)
    margins = ("margin_i", "margin_ii", "margin_iii", "margin_iv")
    for i, row in enumerate(rows):
        c = _coeffs(*row, t=float(i))
        one, one_choi = cp_paper(c, tol=1e-9), cp_choi(c, tol=1e-9)
        # numpy's and libm's exp may differ in the last bit, which the
        # margins carry at the scale of the terms they are made of
        scale = 1e-14 * (1.0 + abs(c.g) + c.attenuation ** 2)
        for name in margins:
            assert abs(getattr(conds, name)[i] - getattr(one, name)) <= scale
        assert abs(choi.min_eigenvalue[i] - one_choi.min_eigenvalue) <= scale
        assert conds.verdict[i] == one.verdict
        assert choi.is_cp[i] == one_choi.is_cp


@pytest.mark.parametrize("rates", [(0.3, 0.5, 0.2, 1.7), (0.0, 0.4, -0.3, 2.0),
                                   (0.6, 0.0, -0.05, -1.1)])
def test_grid_report_equals_the_report_row_by_row(rates):
    # pqwy used math.cos on the grid's Omega, and the report raised TypeError
    grid = markovian_coefficients(*rates, np.linspace(0.0, 4.0, 41))
    report = cp_report(grid)
    # the grids with gamma3 < 0 leave CP
    assert report.choi_verdict.all() == (rates[2] > 0.0)
    for i, t in enumerate(grid.t.tolist()):
        one = cp_report(_coeffs(grid.Gamma[i].item(), grid.GammaTilde[i].item(),
                                grid.Omega[i].item(), grid.g[i].item(), t))
        assert report.t[i] == one.t
        # numpy's and libm's exp and cos may differ in the last bit
        for name in ("p", "q", "w", "y", "choi_min_eig"):
            assert getattr(report, name)[i] == pytest.approx(getattr(one, name), abs=1e-15)
        for name in ("margin_i", "margin_ii", "margin_iii", "margin_iv"):
            assert getattr(report.conditions, name)[i] == pytest.approx(
                getattr(one.conditions, name), abs=1e-15)
        for name in ("paper_verdict", "choi_verdict", "agreement"):
            assert getattr(report, name)[i] == getattr(one, name)


def test_float_choi_minimum_equals_the_grid_minimum_bit_for_bit():
    # one map's minimum is taken with math as np.min takes it on a grid:
    # NaN if any eigenvalue is NaN, and of 0.0 and -0.0 the last
    values = [0.0, -0.0, 0.5, 1.0, -1.0, math.nan, math.inf]
    maps = [(lambda3, t3, complex(re, im)) for lambda3 in values for t3 in values
            for re in values for im in values[:4]]
    with np.errstate(all="ignore"):
        grid = cp_choi(AffineBlochMap(*(np.array(x) for x in zip(*maps))))
    for i, m in enumerate(maps):
        one = cp_choi(AffineBlochMap(*m))
        assert type(one.min_eigenvalue) is float and type(one.is_cp) is bool
        assert one.min_eigenvalue.hex() == float(grid.min_eigenvalue[i]).hex()
        assert one.is_cp == grid.is_cp[i]


def test_sufficiency_positive_dephasing():
    # i), ii) plus GammaTilde >= 0 guarantee complete positivity
    for _ in range(10_000):
        qbar = RNG.uniform(0.0, 1.0)
        pbar = RNG.uniform(qbar, 1.0)
        lam3 = pbar - qbar
        gamma = math.inf if lam3 == 0.0 else -math.log(lam3)
        c = _coeffs(gamma, RNG.uniform(0.0, 3.0), RNG.uniform(0, 2 * math.pi), qbar)
        assert cp_choi(c).is_cp


def test_verdicts_agree_at_zero_phase():
    for _ in range(10_000):
        omega = RNG.choice([0.0, math.pi, -math.pi, 2 * math.pi])
        c = _coeffs(RNG.uniform(-1.0, 5.0), RNG.uniform(-2.0, 5.0),
                    float(omega), RNG.uniform(-0.3, 1.3))
        assert cp_paper(c).verdict == cp_choi(c).is_cp


def test_known_discrepancy_tuple():
    # negative accumulated dephasing hidden by cos^2(Omega) at Omega = pi/2:
    # the inequality conditions pass while the Choi operator is not PSD
    c = _coeffs(0.5, -0.5, math.pi / 2, 0.3)
    report = cp_report(c)
    assert report.paper_verdict
    assert not report.choi_verdict
    assert not report.agreement


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_tolerance_outside_zero_to_inf_is_refused(tol):
    # cp_choi used to take tol = -1, and every checker gave a verdict at NaN
    checks = (lambda: cp_paper(CoefficientSet.identity(), tol),
              lambda: cp_choi(CoefficientSet.identity(), tol),
              lambda: cp_report(CoefficientSet.identity(), tol),
              lambda: short_time_check(constant_profile(gamma3=1.0), tol))
    for check in checks:
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            check()


class TestShortTime:
    def test_thermal_rates_start_at_zero(self):
        for R, N in ((0.25, 0.0), (0.25, 2.0), (10.0, 1.0)):
            rep = short_time_check(thermal_profile(ThermalParams(R=R, N=N)))
            assert rep.all_ok
            assert max(abs(v) for v in rep.values) <= 1e-10

    def test_ohmic_rate_starts_at_zero(self):
        rep = short_time_check(ohmic_profile(OhmicParams(alpha=0.3, s=2.0)))
        assert rep.all_ok and rep.values[2] == 0.0

    def test_negative_initial_rate_fails(self):
        rep = short_time_check(constant_profile(gamma3=-0.1))
        assert rep.ok == (True, True, False)
        assert not rep.all_ok

    def test_rate_unreadable_at_zero_is_indeterminate(self):
        # a rate that raises at t = 0, and one that reads NaN there
        rep = short_time_check(RateProfile(gamma1=lambda t: math.log(t)))
        assert rep.indeterminate == (True, False, False) and math.isnan(rep.values[0])
        assert rep.ok == (False, True, True) and not rep.all_ok
        rep = short_time_check(constant_profile(gamma3=math.nan))
        assert rep.indeterminate == (False, False, True) and math.isnan(rep.values[2])
        assert rep.ok == (True, True, False) and not rep.all_ok

    def test_singular_origin_is_indeterminate(self):
        prof = RateProfile(poles=listed_poles(0.0))
        rep = short_time_check(prof)
        assert rep.indeterminate == (True, True, True)
        assert not rep.all_ok
