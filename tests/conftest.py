"""Test-suite settings.

Hypothesis runs without its example database and with derandomized draws, so
the suite gives the same result on a fresh checkout as on one that has run
before.  Each test's own ``max_examples`` still applies.
"""

from hypothesis import settings

settings.register_profile("fraclv", database=None, derandomize=True)
settings.load_profile("fraclv")
