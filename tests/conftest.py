"""Shared test settings: one deterministic hypothesis profile for every property test,
and the package source on the path of every subprocess a test starts."""

import os
from pathlib import Path

# pytest's pythonpath setting puts src/ on sys.path for the tests themselves;
# the Python subprocesses they start find rpattn through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)

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
