"""Shared test settings.

Property tests draw their examples from one derandomized hypothesis profile
with no deadline: every run checks the same cases, and slow cases (dense
finite-difference Jacobians, evolve runs) are not cut off.
"""

from hypothesis import settings

settings.register_profile("stericpnp", derandomize=True, deadline=None)
settings.load_profile("stericpnp")
