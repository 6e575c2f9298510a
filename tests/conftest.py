"""Test-wide settings shared by every module.

Hypothesis runs under a derandomized profile, so each property test draws
the same examples on every run and a tier-1 result is reproducible like
every other output of the project.  Per-test ``@settings`` still set
``max_examples`` and ``deadline``; they inherit ``derandomize`` from here.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True)
settings.load_profile("deterministic")
