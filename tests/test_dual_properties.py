"""Property test: canonical_dual applies theta as rows @ (X @ block) without
forming it, and every request agrees with the same request on the explicit
pair built from the formed theta."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from riggedframes import (  # noqa: E402
    DualPair,
    KernelMatrix,
    canonical_dual,
    default_stage,
    dirac_map,
    fourier_map,
    random_test_function,
    reconstruct,
    sample_kernel,
    stage_grid,
    verify_duality,
    weighted_dirac_map,
)

FAMILIES = ("dirac", "fourier", "2+sin(x)", "complex", "complex-gram")


def _kernel(family, truncation):
    grid = stage_grid(default_stage(truncation))
    if family == "dirac":
        return sample_kernel(dirac_map(), grid, truncation)
    if family == "fourier":
        return sample_kernel(fourier_map(), grid, truncation)
    kernel = sample_kernel(weighted_dirac_map("2+sin(x)"), grid, truncation)
    if family == "2+sin(x)":
        return kernel
    # the 2+sin(x) rows times a unimodular row factor: truly complex rows,
    # though the factor cancels from the Gram, so S and X stay real
    rows = kernel.rows * np.exp(1j * grid.nodes)[:, None]
    if family == "complex-gram":
        # a factor that also varies along the row makes S, and X, complex, so
        # that applying X^T or X instead of X^H shows
        rows = rows * np.exp(1j * np.outer(grid.nodes, np.arange(truncation)) / truncation)
    rows.setflags(write=False)
    return KernelMatrix(rows, grid)


@given(
    truncation=st.integers(8, 64),
    family=st.sampled_from(FAMILIES),
    seed=st.integers(0, 2**32 - 1),
)
def test_lazy_dual_matches_the_explicit_pair(truncation, family, seed):
    pair = canonical_dual(_kernel(family, truncation))
    explicit = DualPair(pair.omega, pair.theta)
    lower, upper = pair.omega_bounds
    tol = 1e-12 + 1e-15 * upper / lower
    # defects and round-trip errors are already relative
    assert abs(verify_duality(pair, 5, seed) - verify_duality(explicit, 5, seed)) <= tol
    rng = np.random.default_rng(seed)
    functions = [random_test_function(truncation, rng) for _ in range(5)]
    for lazy_order, eager_order in zip(reconstruct(pair, functions), reconstruct(explicit, functions)):
        for (lazy, lazy_err), (eager, eager_err), f in zip(lazy_order, eager_order, functions):
            scale = np.linalg.norm(f.coeffs)
            assert np.linalg.norm(lazy.coeffs - eager.coeffs) <= tol * scale
            assert abs(lazy_err - eager_err) <= tol
