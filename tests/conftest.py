"""Hypothesis profiles for the property tests.

``HYPOTHESIS_PROFILE=ci`` replays the same examples on every run and prints
the reproduction blob of a failure; without it, runs explore at random.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, print_blob=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
