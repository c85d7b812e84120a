"""Moment problems: when does <f, omega_x> = h(x) have a solution?

On the Gauss-Hermite coarse grid, with as many nodes as coefficients, the
weighted dirac rows are orthogonal: every target is exactly solvable and
the least-norm representative is recovered.
The solvability envelope gives the constructive necessary condition, and
the continuity constants quantify how strongly solutions are controlled by
their data -- or fail to be, for the derivative map.
"""

import numpy as np

from riggedframes import (
    analysis,
    bump_dirac_map,
    coarse_synthesis_grid,
    continuity_constant,
    default_stage,
    dirac_derivative_map,
    dirac_map,
    envelope,
    envelope_condition_check,
    rf_diagnostic,
    sample_kernel,
    seminorm,
    solve_moment,
    stage_grid,
    weighted_analysis_matrix,
    weighted_dirac_map,
    TestFunction,
)

N = 32
kernel = sample_kernel(dirac_map(), coarse_synthesis_grid(N), N)
print(f"coarse dirac kernel: {kernel.node_count} nodes, {N} coefficients")

# ---------------------------------------------------------------------------
# Consistent data recovers its least-norm generator exactly.
rng = np.random.default_rng(1)
projector = np.linalg.pinv(weighted_analysis_matrix(kernel)) @ weighted_analysis_matrix(kernel)
f0 = TestFunction(projector @ (rng.standard_normal(N) + 1j * rng.standard_normal(N)))
target = analysis(kernel, f0)
solution = solve_moment(kernel, target)
print(f"residual {solution.residual:.2e}, recovery error "
      f"{np.linalg.norm(solution.f.coeffs - f0.coeffs) / f0.norm():.2e}, "
      f"null dimension {solution.null_dim}")

# Envelope necessity: the data is dominated by the reachability profile.
for k in (0, 1, 2):
    ok, radius = envelope_condition_check(kernel, target, k)
    print(f"envelope k={k}: satisfied={ok}, r={radius:.4f} <= p_k(f0)={seminorm(f0, k):.4f}")

# ---------------------------------------------------------------------------
# Panel-probe solvability scores: 1.0 for point masses, < 1 for the bump
# (its off-support probes are unreachable).  The coarse dirac kernel has full
# row rank, so its range holds every grid function: the score is read off
# the singular values and every probe's residual is exactly 0.
score, worst = rf_diagnostic(kernel)
print(f"\ndirac probe score: {score:.2f} (worst residual {worst:.1e})")
bump = sample_kernel(bump_dirac_map(-1.0, 1.0), coarse_synthesis_grid(N), N)
score, worst = rf_diagnostic(bump)
print(f"bump  probe score: {score:.2f} (worst residual {worst:.1e})")

# ---------------------------------------------------------------------------
# Continuity constants p_k(solution) <= C |data|.
full = lambda spec, n: sample_kernel(spec, stage_grid(default_stage(n)), n)
print(f"\ndirac   C(k=0) = {continuity_constant(full(dirac_map(), 32), 0):.9f}")
print(f"2+sin   C(k=0) = {continuity_constant(full(weighted_dirac_map('2+sin(x)'), 32), 0):.6f}")
row = [continuity_constant(full(dirac_derivative_map(), n), 0) for n in (8, 16, 32, 64)]
print(f"deriv   C(k=0) along ladder: {[f'{c:.2f}' for c in row]}  (grows: no L2 control)")
row = [continuity_constant(full(dirac_derivative_map(), n), 1) for n in (8, 16, 32, 64)]
print(f"deriv   C(k=1) along ladder: {[f'{c:.2f}' for c in row]}  (finite at every stage)")
