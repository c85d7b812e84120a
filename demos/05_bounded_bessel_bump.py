"""A bounded Bessel map that is not total: bump-weighted point masses.

The smooth bump vanishes outside (-1, 1) and peaks at 1, so the analysis
norm is bounded by the plain L2 norm (B <= 1).  But any function supported
outside the bump is invisible to the map: the totality test fails and its
witness concentrates all of its mass outside the support.
"""

import numpy as np

from riggedframes import (
    bump_dirac_map,
    canonical_dual,
    classify,
    default_ladder,
    default_stage,
    frame_bounds,
    frame_operator,
    NotAFrameError,
    sample_kernel,
    stage_grid,
    totality_test,
)

spec = bump_dirac_map(-1.0, 1.0)

print(f"{'N':>4} {'B_N':>10} {'sigma_min/sigma_max':>20}")
for n in (8, 16, 32):
    kernel = sample_kernel(spec, stage_grid(default_stage(n)), n)
    _, upper = frame_bounds(frame_operator(kernel))
    t = totality_test(kernel)
    print(f"{n:>4} {upper:>10.6f} {t.sigma_min / t.sigma_max:>20.3e}")

# ---------------------------------------------------------------------------
# The near-annihilated direction at N = 32 lives outside the bump.
kernel = sample_kernel(spec, stage_grid(default_stage(32)), 32)
result = totality_test(kernel)
grid = kernel.grid
values = result.witness(grid.nodes)
outside = np.abs(grid.nodes) >= 1.0
mass = np.sum(grid.weights[outside] * np.abs(values[outside]) ** 2) / np.sum(
    grid.weights * np.abs(values) ** 2
)
print(f"\ntotal: {result.total};  witness mass outside (-1,1): {mass:.6f}")

# Ladder verdict: bounded Bessel, nothing more.
report = classify(spec, default_ladder(64))
print(f"labels: {report.labels}")

# And since the frame operator is singular, there is no canonical dual.
try:
    canonical_dual(kernel)
except NotAFrameError as err:
    print(f"canonical dual rejected: lambda_min = {err.lambda_min:.3e}")
