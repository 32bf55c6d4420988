"""Test-suite configuration: one deterministic Hypothesis profile.

Every ``@given`` test draws the same examples on every run (derandomized,
no example database) and has no deadline, so a Tier-1 result does not depend
on the run or on the machine's speed.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")
