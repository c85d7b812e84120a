"""Property tests: the parity split of the stage factor and of the passes.

A polynomial weight with even magnitude (even coefficients only, or x times
such a polynomial) gives rows whose magnitudes agree bit for bit at mirrored
nodes of the stage grid, so the walk factors the even and odd coefficients
apart from the nodes x >= 0; its singular values and Bessel constants are
those of the one-block factor of the full rows.  A weight with a generic odd
term is factored in one block.

A kernel sample_kernel splits runs analysis, synthesis, verify_duality and
reconstruct per parity class on its x > 0 rows; each agrees with the
one-block route on the same rows (a KernelMatrix built from them, which
never splits) for any parity-block-diagonal inverse X.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from riggedframes import (  # noqa: E402
    DualPair,
    KernelMatrix,
    TestFunction,
    analysis,
    bump_dirac_map,
    default_stage,
    dirac_derivative_map,
    dirac_map,
    fourier_map,
    reconstruct,
    sample_kernel,
    stage_grid,
    synthesis,
    verify_duality,
    weighted_dirac_map,
)
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


MIRRORED_MAPS = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "x": weighted_dirac_map("x"),
    "1+x^2": weighted_dirac_map("1+x^2"),
    "exp(-x^2)": weighted_dirac_map("exp(-x^2)"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}


def _close(mine, theirs):
    """Equal to 1e-13 relative to the largest entry of the one-block result."""
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    return np.abs(mine - theirs).max() <= 1e-13 * np.abs(theirs).max()


@given(
    half=st.integers(1, 64),
    family=st.sampled_from(list(MIRRORED_MAPS)),
    columns=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_passes_match_the_one_block_route(half, family, columns, seed):
    truncation = 2 * half
    kernel = sample_kernel(MIRRORED_MAPS[family], stage_grid(default_stage(truncation)), truncation)
    one = KernelMatrix(kernel.rows, kernel.grid, kernel.map_spec, phase=kernel.phase)
    assert kernel.signs is not None and one.signs is None
    rng = np.random.default_rng(seed)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    functions = [TestFunction(complex_normal(truncation)) for _ in range(columns)]
    for f in functions:
        assert _close(analysis(kernel, f), analysis(one, f))
        xi = complex_normal(kernel.node_count)
        assert _close(synthesis(kernel, xi).pairings, synthesis(one, xi).pairings)
    # any inverse with exact zeros between the parity blocks, as canonical_dual's
    inverse = np.zeros((truncation, truncation))
    for c in (slice(0, None, 2), slice(1, None, 2)):
        size = len(range(truncation)[c])
        inverse[c, c] = rng.standard_normal((size, size))
    pairs = [DualPair(omega, None, inverse=inverse) for omega in (kernel, one)]
    mine, theirs = (verify_duality(pair, columns, seed) for pair in pairs)
    assert abs(mine - theirs) <= 1e-13 * theirs
    mine, theirs = (verify_duality(DualPair(omega, omega), columns, seed) for omega in (kernel, one))
    assert abs(mine - theirs) <= 1e-13 * max(theirs, 1.0)
    for mine, theirs in zip(*(reconstruct(pair, functions) for pair in pairs)):
        assert _close([g.coeffs for g, _ in mine], [g.coeffs for g, _ in theirs])
        assert _close([err for _, err in mine], [err for _, err in theirs])
