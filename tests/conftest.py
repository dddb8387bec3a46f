"""Shared test settings.

Every hypothesis property draws the same examples on every run: a fixed
derandomized profile, with no example database carried between runs.
"""

from hypothesis import settings

settings.register_profile("setmeans", max_examples=100, deadline=2000, database=None,
                          derandomize=True)
settings.load_profile("setmeans")
