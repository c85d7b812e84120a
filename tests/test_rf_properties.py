"""Property test: rf_diagnostic on wide real kernels whose weighted rows have
a planted rank r < nodes, some of whose panel probes lie in their range,
gives the score and worst residual of a thin-SVD projection reference."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from riggedframes import KernelMatrix, build_grid, rf_diagnostic, weighted_analysis_matrix  # noqa: E402


def _reference(kernel):
    grid = kernel.grid
    u, svals, _ = np.linalg.svd(weighted_analysis_matrix(kernel), full_matrices=False)
    basis = u[:, svals > 1e-10 * svals[0]]
    residuals = []
    for panel in range(grid.panels):
        probe = np.zeros(grid.node_count)
        cells = slice(panel * grid.order, (panel + 1) * grid.order)
        probe[cells] = np.sqrt(grid.weights[cells])
        probe /= np.linalg.norm(probe)
        residuals.append(np.linalg.norm(probe - basis @ (basis.T @ probe)))
    return np.array(residuals)


@given(
    panels=st.integers(1, 8),
    order=st.integers(2, 5),
    extra=st.integers(0, 6),
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
)
def test_planted_rank_matches_projection_reference(panels, order, extra, data, seed):
    grid = build_grid(3.0, panels, order)
    nodes = grid.node_count
    planted = data.draw(st.lists(st.booleans(), min_size=panels, max_size=panels))
    # weighted rows L R: L holds the unit weighted probes of the planted panels
    # plus `random` Gaussian columns, so rank r = planted + random < nodes
    random = data.draw(st.integers(0, nodes - 1 - sum(planted)))
    rng = np.random.default_rng(seed)
    left = [rng.standard_normal((nodes, random))]
    for panel in np.flatnonzero(planted):
        column = np.zeros((nodes, 1))
        cells = slice(panel * order, (panel + 1) * order)
        column[cells, 0] = np.sqrt(grid.weights[cells])
        left.append(column / np.linalg.norm(column))
    left = np.hstack(left)
    rank = left.shape[1]
    rows = left @ rng.standard_normal((rank, nodes + extra)) / np.sqrt(grid.weights)[:, None]
    kernel = KernelMatrix(rows, grid)
    residuals = _reference(kernel)
    score, worst = rf_diagnostic(kernel)
    assert np.all(residuals[np.asarray(planted)] <= 1e-6)
    assert score == np.mean(residuals <= 1e-6)
    assert abs(worst - residuals.max()) <= 1e-10
