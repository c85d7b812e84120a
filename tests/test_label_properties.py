"""Property tests on classify's labels.

The paper's implications between the labels hold on every built-in family
of tools/report_bodies.py, on default and hand-written ladders; and no
ladder whose last step spans less than a doubling of N certifies a bounded
B or a frame for a map whose B grows (dirac_derivative, x, 1+x^2) or whose
A decays (1/(1+x^2)), nor a lower semi-frame for dirac_derivative, whose A
decays too.
"""

import importlib.util
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from riggedframes import classify  # noqa: E402
from riggedframes.reporting import config_from_dict  # noqa: E402

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "report_bodies.py"
_SPEC = importlib.util.spec_from_file_location("report_bodies", _TOOL)
report_bodies = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_bodies)

# B grows like N (dirac_derivative, x) or N^2 (1+x^2); A of 1/(1+x^2) falls
# about 4x per doubling
GROWING_B = ("dirac_derivative", "x", "1+x^2")
DECAYING_A = ("1/(1+x^2)",)
FAMILIES = {**report_bodies.BUILTIN_MAPS, "1/(1+x^2)": {"kind": "weighted_dirac", "weight": "1/(1+x^2)"}}


def _labels(family, ladder):
    """classify's labels for a family of FAMILIES on a config ladder."""
    config = config_from_dict({"map": FAMILIES[family], "ladder": ladder})
    return set(classify(config.map_spec, config.ladder).labels)


# (label, what it implies): Christensen, An Introduction to Frames and Riesz
# Bases, chs. 3 and 5; Antoine & Balazs, Numer. Funct. Anal. Optim. 33
# (2012) for the semi-frames
IMPLICATIONS = (
    ("riesz_basis", ("frame", "mu_independent")),
    ("frame", ("bounded_bessel",)),
    ("bounded_bessel", ("bessel",)),
    ("gelfand_basis", ("parseval", "mu_independent")),
    ("parseval", ("tight",)),
    ("tight", ("frame",)),
    ("upper_semi_frame", ("total", "bounded_bessel")),
)

DEFAULT_LADDERS = st.sampled_from((8, 16, 32, 64, 128, 256)).map(lambda n: {"n_max": n})
HAND_WRITTEN_LADDERS = st.lists(st.integers(2, 256), min_size=1, max_size=5, unique=True).map(
    lambda stages: {"stages": sorted(stages)}
)


@given(
    family=st.sampled_from(sorted(report_bodies.BUILTIN_MAPS)),
    ladder=st.one_of(DEFAULT_LADDERS, HAND_WRITTEN_LADDERS),
)
def test_labels_keep_the_papers_implications(family, ladder):
    labels = _labels(family, ladder)
    for label, implied in IMPLICATIONS:
        if label in labels:
            assert labels >= set(implied), (label, labels)
    if "frame" in labels:
        assert not labels & {"upper_semi_frame", "lower_semi_frame"}


@st.composite
def close_ladders(draw):
    """Increasing stages up to N = 256 whose last step N -> N' has N' < 2N."""
    last = draw(st.integers(3, 256))
    before = draw(st.integers(last // 2 + 1, last - 1))
    earlier = draw(st.lists(st.integers(2, before - 1), max_size=3, unique=True)) if before > 2 else []
    return sorted(earlier) + [before, last]


@given(family=st.sampled_from(GROWING_B + DECAYING_A), stages=close_ladders())
def test_a_step_shorter_than_a_doubling_certifies_no_bound(family, stages):
    labels = _labels(family, {"stages": stages})
    assert "frame" not in labels
    if family in GROWING_B:
        assert "bounded_bessel" not in labels
    if family == "dirac_derivative":
        assert "lower_semi_frame" not in labels


@pytest.mark.parametrize(
    "family, stages",
    [
        (family, stages)
        for family in ("dirac_derivative", "x")
        for stages in ((60, 62, 64), (250, 256), (1000, 1024), (8, 16, 1000, 1024))
    ]
    + [("1+x^2", (1000, 1024)), ("1/(1+x^2)", (250, 256)), ("1/(1+x^2)", (1000, 1024))]
    + [("dirac_derivative", (n - 1, n)) for n in (128, 256, 512, 1024)]
    + [(family, (1023, 1024)) for family in ("dirac", "fourier", "2+sin(x)")],
    ids=lambda value: value if isinstance(value, str) else ",".join(map(str, value)),
)
def test_close_stages_get_the_default_ladders_labels(family, stages):
    """Trends are read per doubling of N, so a ladder of close stages gives
    the labels of the default ladder to the same N: dirac_derivative and x
    get neither frame nor bounded_bessel, 1+x^2 lower_semi_frame and
    1/(1+x^2) upper_semi_frame where each once got frame, and the frames
    keep frame on a step of one.  A step of one from odd N grows only the
    odd parity block of a split S: dirac_derivative's A, held in the even
    block, stays flat there, and the step reads no lower_semi_frame."""
    assert _labels(family, {"stages": list(stages)}) == _labels(family, {"n_max": stages[-1]})
