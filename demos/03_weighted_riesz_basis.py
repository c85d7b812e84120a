"""A Riesz distribution basis: weighted point masses with weight 2 + sin(x).

The weight stays inside [1, 3], so the frame bounds land in [1, 9], the
canonical dual frame has bounds inside [1/9, 1], and reconstruction through
the dual is exact to conditioning in both operator orders.
"""

import numpy as np

from riggedframes import (
    canonical_dual,
    default_stage,
    dual_bounds,
    dual_semiframe_check,
    frame_bounds,
    frame_operator,
    random_test_function,
    reconstruct,
    riesz_check,
    sample_kernel,
    stage_grid,
    verify_duality,
    weighted_dirac_map,
)

N = 32
spec = weighted_dirac_map("2+sin(x)")
kernel = sample_kernel(spec, stage_grid(default_stage(N)), N)

lower, upper = frame_bounds(frame_operator(kernel))
print(f"frame bounds: A={lower:.6f}, B={upper:.6f}  (inside [1, 9])")

result = riesz_check(kernel)
print(f"riesz basis: {result.riesz}; synthesis singular values "
      f"[{result.sigma_min:.4f}, {result.sigma_max:.4f}]")

# ---------------------------------------------------------------------------
# The canonical dual: Theta = Omega S^{-1}.
pair = canonical_dual(kernel)
print(f"\nduality defect (20 random pairs): {verify_duality(pair, 20):.2e}")
print(f"re-verified over 200 pairs:        {verify_duality(pair, 200):.2e}")

dl, du = dual_bounds(pair)
print(f"dual bounds: [{dl:.6f}, {du:.6f}]  (inside [1/9, 1])")

# Reconstruction works in both displayed orders.
rng = np.random.default_rng(42)
f = random_test_function(N, rng)
(_, err1), (_, err2) = reconstruct(pair, f)
print(f"\nreconstruction errors: dual-synthesis {err1:.2e}, omega-synthesis {err2:.2e}")

# A frame is in particular an upper semi-frame, so its dual clears the
# reciprocal lower bound at every ladder stage.
check = dual_semiframe_check(kernel)
print(f"dual lower bounds clear 1/B at all stages: {check.holds}, "
      f"margins {[f'{m:.1e}' for m in check.margins]}")
