"""Property test: the closed-form coarse values of a random polynomial
weight of degree <= 3 (operators._coarse_values, |w(x_j)| on the
Gauss-Hermite nodes) are the singular values _CoarseSVD takes off the
weighted coarse kernel, to 1e-13 of the largest, at every even N <= 128;
and _coarse_rf scores it as rf_diagnostic does."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from riggedframes import rf_diagnostic, weighted_dirac_map  # noqa: E402
from riggedframes import operators  # noqa: E402
from riggedframes.moments import _coarse_rf  # noqa: E402
from riggedframes.operators import RANK_CUTOFF  # noqa: E402

COEFFICIENT = st.floats(-3.0, 3.0).map(lambda c: round(c, 3))


@given(
    coeffs=st.lists(COEFFICIENT, min_size=1, max_size=4).filter(any),
    half=st.integers(1, 64),
)
def test_closed_form_matches_the_coarse_svd_for_polynomial_weights(coeffs, half):
    n = 2 * half
    spec = weighted_dirac_map("+".join(f"({c!r})*x^{power}" for power, c in enumerate(coeffs)))
    kernel = operators._coarse_kernel(spec, n)
    svals = operators._CoarseSVD(kernel, RANK_CUTOFF).svals
    closed = np.sort(operators._coarse_values(spec, n))[::-1]
    assert np.abs(closed - svals).max() <= 1e-13 * svals[0]
    score, worst = _coarse_rf(spec, n)
    reference_score, reference_worst = rf_diagnostic(kernel)
    assert score == reference_score and abs(worst - reference_worst) <= 1e-12
