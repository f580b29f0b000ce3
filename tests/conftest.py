"""Shared test settings: one deterministic hypothesis profile for every property test,
and, for every subprocess a test starts, the package source on its path and
RuntimeWarnings raised as errors."""

import os
from pathlib import Path

# pytest's pythonpath setting puts src/ on sys.path for the tests themselves;
# the Python subprocesses they start find rpattn through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
# pyproject's filterwarnings rule reaches only the pytest process; subprocesses
# take the same rule from PYTHONWARNINGS, whose last entry wins.
os.environ["PYTHONWARNINGS"] = ",".join(
    w for w in (os.environ.get("PYTHONWARNINGS"), "error::RuntimeWarning") if w)

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
