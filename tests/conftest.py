"""Test-wide hypothesis settings: the same examples on every run, no deadline.

Property tests then draw identical examples from run to run, and slow or
loaded machines do not fail them on per-example timing.
"""

from hypothesis import settings

settings.register_profile("repeatable", deadline=None, derandomize=True)
settings.load_profile("repeatable")
