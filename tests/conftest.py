"""Shared test settings: one deterministic hypothesis profile for every property test."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    # Derandomized, so every run draws the same examples, and with no example
    # database to replay. Hypothesis still caches the constants it reads from
    # the source under .hypothesis/, which .gitignore lists.
    settings.register_profile("rpattn", derandomize=True, database=None, max_examples=50,
                              deadline=None)
    settings.load_profile("rpattn")
