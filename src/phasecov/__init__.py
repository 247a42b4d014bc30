"""Phase-covariant time-local qubit master equations.

Closed-form solution of the general qubit master equation with
time-dependent heating, dissipation and pure-dephasing rates, concrete
finite-temperature rate models with analytic oracles, complete
positivity verification (inequality conditions and Choi spectrum),
detection of non-Markovianity as rate negativity, and a direct ODE
integrator for cross-checks.
"""

from .coeffs import (CoefficientSet, QuadratureConfig, RateProfile,
                     ToleranceError, combine_profiles, constant_profile,
                     integrate_profile, markovian_coefficients,
                     piecewise_linear_coefficients)
from .cptp import (ChoiResult, CpConditions, CpReport, ShortTimeReport,
                   choi_spectrum, cp_choi, cp_paper, cp_report, pqwy,
                   short_time_check)
from .dynamics import (AdditivityReport, AffineBlochMap, QubitState,
                       additivity_report, bloch_map, evolve_state)
from .mesolve import IntegrationError, integrate_me, liouvillian
from .models import (MemorySample, OhmicParams, OhmicSeries, ThermalParams,
                     amplitude_memory, markov_rate_limit, ohmic_closed_form,
                     ohmic_gamma_tilde, ohmic_profile, ohmic_rate,
                     thermal_closed_form, thermal_profile, thermal_zeros)
from .nonmarkov import (CrossoverResult, NmReport, Verdict, crossover_scan,
                        negative_intervals)

__version__ = "0.1.0"

__all__ = [
    "AdditivityReport", "AffineBlochMap", "ChoiResult", "CoefficientSet",
    "CpConditions", "CpReport", "CrossoverResult", "IntegrationError",
    "MemorySample", "NmReport", "OhmicParams", "OhmicSeries", "QuadratureConfig",
    "QubitState", "RateProfile", "ShortTimeReport", "ThermalParams",
    "ToleranceError", "Verdict", "additivity_report", "amplitude_memory",
    "bloch_map", "choi_spectrum", "cp_choi",
    "cp_paper", "cp_report", "pqwy", "combine_profiles",
    "constant_profile", "crossover_scan", "evolve_state", "integrate_me",
    "integrate_profile", "liouvillian", "markov_rate_limit",
    "markovian_coefficients", "negative_intervals", "ohmic_closed_form",
    "ohmic_gamma_tilde", "ohmic_profile", "ohmic_rate",
    "piecewise_linear_coefficients", "short_time_check",
    "thermal_closed_form", "thermal_profile", "thermal_zeros",
]
