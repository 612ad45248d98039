"""Test-suite settings shared by every module.

Hypothesis runs derandomized: its examples are drawn from a seed derived
from each test, and no example database is read or written, so a run of
the suite on a clean checkout tests exactly the same inputs every time.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
