"""Shared pytest set-up: a deterministic, bounded hypothesis profile, and
an empty custom-kernel parse slot for every test.

Property tests draw from a fixed derandomized sequence with no per-example
deadline, so a run is reproducible and its cost does not depend on the
load of the machine.  load_custom_kernel keeps the rows of its last parse
for reuse; each test starts without them, so a test that measures a load
measures a parse, whatever ran before it.
"""

import pytest

from riggedframes import kernels

try:
    from hypothesis import settings
except ImportError:  # hypothesis is in the test extra; its tests skip without it
    pass
else:
    settings.register_profile(
        "riggedframes", deadline=None, derandomize=True, max_examples=40, database=None
    )
    settings.load_profile("riggedframes")


@pytest.fixture(autouse=True)
def _empty_parse_slot(monkeypatch):
    monkeypatch.setattr(kernels, "_last_parse", None)
