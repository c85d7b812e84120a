"""Shared pytest set-up: a deterministic, bounded hypothesis profile.

Property tests draw from a fixed derandomized sequence with no per-example
deadline, so a run is reproducible and its cost does not depend on the
load of the machine.
"""

try:
    from hypothesis import settings
except ImportError:  # hypothesis is in the test extra; its tests skip without it
    pass
else:
    settings.register_profile(
        "riggedframes", deadline=None, derandomize=True, max_examples=40, database=None
    )
    settings.load_profile("riggedframes")
