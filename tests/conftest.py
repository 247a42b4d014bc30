"""Hypothesis profiles for the suite.

The three-route property (``test_three_routes.py``) and the sign-scan
property (``test_nonmarkov.py``) take their example count from the
active profile: 15 by default, and 150 under
``--hypothesis-profile=deep`` for a deeper search after a change to
either ODE route or to the refinement.  Properties that set
``max_examples`` themselves keep it.
"""

from hypothesis import settings

settings.register_profile("default", max_examples=15, deadline=None)
settings.register_profile("deep", max_examples=150, deadline=None)
