"""Property test: the parity split of the stage factor.

A polynomial weight with even magnitude (even coefficients only, or x times
such a polynomial) gives rows whose magnitudes agree bit for bit at mirrored
nodes of the stage grid, so the walk factors the even and odd coefficients
apart from the nodes x >= 0; its singular values and Bessel constants are
those of the one-block factor of the full rows.  A weight with a generic odd
term is factored in one block.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from riggedframes import default_stage, sample_kernel, stage_grid, weighted_dirac_map  # noqa: E402
from riggedframes.operators import StageFactorization, _stage_rows, _weighted_rows  # noqa: E402

TRUNCATIONS = (8, 16, 32, 64, 128)
COEFFICIENT = st.floats(0.1, 3.0).map(lambda c: round(c, 3))
SIGN = st.sampled_from("+-")


def _polynomial(terms):
    """Weight expression sum of sign * c * x^power over (sign, c, power)."""
    return "".join(f"{sign}{c:.3f}*x^{power}" for sign, c, power in terms).lstrip("+")


def _singular_values(factor):
    values = np.concatenate([np.linalg.svd(r, compute_uv=False) for r, _ in factor.blocks])
    return np.sort(values)[::-1]


def _terms(powers):
    return st.tuples(*(st.tuples(SIGN, COEFFICIENT, st.just(p)) for p in powers))


@given(
    terms=_terms((0, 2, 4)),
    odd_sign=st.booleans(),
    truncation=st.sampled_from(TRUNCATIONS),
)
def test_even_magnitude_weights_split_with_the_one_block_spectrum(terms, odd_sign, truncation):
    even = _polynomial(terms)
    spec = weighted_dirac_map(f"x*({even})" if odd_sign else even)
    grid = stage_grid(default_stage(truncation))
    split = StageFactorization(*_stage_rows(spec, grid, truncation))
    assert len(split.blocks) == 2
    one = StageFactorization(_weighted_rows(sample_kernel(spec, grid, truncation)))
    reference = _singular_values(one)
    tolerance = 1e-13 * reference[0]
    assert np.abs(_singular_values(split) - reference).max() <= tolerance
    for k in range(4):
        assert abs(split.bessel_constant(k) - one.bessel_constant(k)) <= tolerance


@given(
    even=_terms((0, 2)),
    odd=_terms((1, 3)),
    truncation=st.sampled_from(TRUNCATIONS),
)
def test_weights_with_a_generic_odd_term_take_one_block(even, odd, truncation):
    spec = weighted_dirac_map(_polynomial(even + odd))
    factor = StageFactorization(*_stage_rows(spec, stage_grid(default_stage(truncation)), truncation))
    ((r, _),) = factor.blocks
    assert r.shape == (truncation, truncation)
