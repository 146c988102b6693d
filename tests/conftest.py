"""Hypothesis settings for the whole suite.

No example database: a failure found once is not replayed silently from a
local `.hypothesis/` directory by later runs; it prints its reproducer
(`@reproduce_failure` blob) instead, to be pinned with `@example`.
"""

from hypothesis import settings

settings.register_profile("sdemoments", database=None, print_blob=True)
settings.load_profile("sdemoments")
