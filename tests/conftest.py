"""Hypothesis profiles for the suite, and the composition rule of maps.

The three-route property (``test_three_routes.py``) and the sign-scan
property (``test_nonmarkov.py``) take their example count from the
active profile: 15 by default, and 150 under
``--hypothesis-profile=deep`` for a deeper search after a change to
either ODE route or to the refinement.  Properties that set
``max_examples`` themselves keep it.

``intermediate_map`` gives the coefficients of the map between two
times from the sets at each, as the tests of CP-divisibility need them.
``listed_poles`` makes the ``RateProfile.poles`` of a fixed list.
"""

import numpy as np
from hypothesis import settings

from phasecov import CoefficientSet

settings.register_profile("default", max_examples=15, deadline=None)
settings.register_profile("deep", max_examples=150, deadline=None)


def intermediate_map(early: CoefficientSet, late: CoefficientSet) -> CoefficientSet:
    """The coefficients of the map from early.t to late.t, the Lambda(t2, t1)
    with Lambda(t2, 0) = Lambda(t2, t1) Lambda(t1, 0): every integral over
    [t1, t2], and g(t2) less what of g(t1) survives the decay between."""
    rise = late.Gamma - early.Gamma
    return CoefficientSet(t=late.t, Gamma=rise, GammaTilde=late.GammaTilde - early.GammaTilde,
                          Omega=late.Omega - early.Omega, g=late.g - np.exp(-rise) * early.g)


def listed_poles(*points: float):
    """``RateProfile.poles`` for the fixed times ``points``: those in the
    window asked for, sorted."""
    return lambda t0, t1: tuple(sorted(p for p in points if t0 <= p <= t1))
