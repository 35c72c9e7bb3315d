"""Hypothesis runs derandomized, so a failing example reproduces on every
run; ``deadline=None`` because example times vary with machine load."""
from hypothesis import settings

settings.register_profile("csfm", derandomize=True, deadline=None)
settings.load_profile("csfm")
