"""Hypothesis profiles for the property tests.

The default profile, ``tier1``, is derandomized: every run of the suite
checks the same draws (fixed by each test's source and the hypothesis
version), plus each test's pinned ``@example``s, and keeps no example
database. ``pytest --hypothesis-profile=explore`` draws fresh examples
on every run and saves failures in ``.hypothesis/``. A test's own
``@settings`` still sets its example count under either profile.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("tier1", derandomize=True)
    settings.register_profile("explore", derandomize=False)
    settings.load_profile("tier1")
