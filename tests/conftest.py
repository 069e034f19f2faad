"""Settings shared by every test module."""

from hypothesis import settings

# A fixed seed per test, no deadline and no example database: every run of
# the suite draws the same examples and cannot fail on a slow machine.
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
