"""End-to-end verification of the built-in map families.

Each check pins the tolerance it asserts and returns its entry of a demo
report's ``checks`` section, ``{"name", "passed", "detail"}`` with a one-line
detail string.  The registry backs both the ``demo`` CLI subcommand and the
acceptance test suite, so the criteria live in exactly one place.

Oracles used here are deliberately independent of the code paths they
check: the derivative-map frame operator is compared against the exact
one formed from the Hermite-basis matrices of x and d/dx
(_exact_frame_operator), and moment recovery draws its reference solutions
from an explicit row-space projection.
"""

from __future__ import annotations

import numpy as np

from .duality import DEFAULT_SEED, canonical_dual, dual_bounds, reconstruct, riesz_check
from .hermite import TestFunction, hermite_eval, random_test_function, seminorm
from .kernels import (
    bump_dirac_map,
    dirac_derivative_map,
    dirac_map,
    fourier_map,
    sample_kernel,
    weighted_dirac_map,
)
from .moments import continuity_constant, envelope_condition_check, solve_moment
from .operators import (
    _ladder_grid,
    analysis,
    classify,
    coarse_synthesis_grid,
    frame_bounds,
    frame_operator,
    synthesis,
    totality_test,
    weighted_analysis_matrix,
)
from .hermite import pair as dual_pairing
from .quadrature import default_ladder, default_stage, l2x_inner, l2x_norm

__all__ = ["ALL_CHECKS", "run_all"]


def _result(name, passed, detail):
    return {"name": name, "passed": bool(passed), "detail": detail}


def _stage_kernel(map_spec, truncation):
    """The map's kernel at a default stage, on the grid classify sums it on."""
    return sample_kernel(map_spec, _ladder_grid(map_spec, default_stage(truncation)), truncation)


def check_dirac_gelfand_basis():
    """Point evaluations form a Parseval frame with identity frame operator."""
    kernel = _stage_kernel(dirac_map(), 32)
    defect = float(np.abs(frame_operator(kernel).matrix - np.eye(32)).max())
    report = classify(dirac_map(), default_ladder(32))
    wanted = {"parseval", "gelfand_basis", "riesz_basis"}
    ok = defect <= 1e-10 and wanted.issubset(report.labels)
    return _result(
        "dirac_gelfand_basis",
        ok,
        f"|S-I|max={defect:.3e} (<=1e-10), labels={list(report.labels)}",
    )


def check_fourier_gelfand_basis():
    """The Fourier kernel is Parseval and diagonalizes over the basis."""
    kernel = _stage_kernel(fourier_map(), 32)
    defect = float(np.abs(frame_operator(kernel).matrix - np.eye(32)).max())
    worst = 0.0
    phases = (-1j) ** np.arange(32)
    for n in range(32):
        sampled = analysis(kernel, TestFunction.basis(n, 32))
        expected = phases[n] * hermite_eval(n, kernel.grid.nodes)
        worst = max(worst, float(np.abs(sampled - expected).max()))
    ok = defect <= 1e-8 and worst <= 1e-10
    return _result(
        "fourier_gelfand_basis",
        ok,
        f"|S-I|max={defect:.3e} (<=1e-8), eigenrelation defect={worst:.3e} (<=1e-10)",
    )


def check_weighted_riesz_basis():
    """Weight 2+sin(x): spectrum inside [1, 9], Riesz basis, dual bounds in [1/9, 1]."""
    spec = weighted_dirac_map("2+sin(x)")
    kernel = _stage_kernel(spec, 32)
    pair = canonical_dual(kernel)
    lower, upper = pair.omega_bounds
    spectrum_ok = lower >= 1.0 - 1e-9 and upper <= 9.0 + 1e-9
    riesz = riesz_check(kernel)
    dual_lower, dual_upper = dual_bounds(pair)
    dual_ok = dual_lower >= 1.0 / 9.0 - 1e-8 and dual_upper <= 1.0 + 1e-8
    ok = spectrum_ok and riesz.riesz and dual_ok
    return _result(
        "weighted_riesz_basis",
        ok,
        f"spectrum=[{lower:.6f},{upper:.6f}] in [1,9], riesz={riesz.riesz}, "
        f"dual=[{dual_lower:.6f},{dual_upper:.6f}] in [1/9,1]",
    )


def check_dual_reconstruction():
    """Both reconstruction orders through the canonical dual recover f."""
    spec = weighted_dirac_map("2+sin(x)")
    kernel = _stage_kernel(spec, 16)
    pair = canonical_dual(kernel)
    rng = np.random.default_rng(DEFAULT_SEED)
    functions = [random_test_function(16, rng) for _ in range(20)]
    worst = max(err for order in reconstruct(pair, functions) for _, err in order)
    return _result(
        "dual_reconstruction",
        worst <= 1e-8,
        f"worst relative error={worst:.3e} (<=1e-8, 20 draws, both orders)",
    )


def _exact_frame_operator(poly_coeffs, derivative_order, truncation):
    """S_N of omega_x = p(x) delta_x^(d) with no quadrature and no Hermite
    values: the leading N x N block of (p(J) D^d)^T (p(J) D^d).  In the
    Hermite-function basis x acts as the Jacobi matrix J, J[n, n+1] =
    sqrt((n+1)/2), and d/dx as D, D[n-1, n] = sqrt(n/2) and D[n+1, n] =
    -sqrt((n+1)/2).  Both are formed at size N + d + deg p, where cutting
    them off changes no entry of the block.  ``poly_coeffs`` lists p's
    coefficients from the constant term up."""
    size = truncation + derivative_order + len(poly_coeffs) - 1
    ladder = np.diag(np.sqrt(np.arange(1, size) / 2.0), 1)
    jacobi, derivative = ladder + ladder.T, ladder - ladder.T
    images = np.linalg.matrix_power(derivative, derivative_order)[:, :truncation]
    mapped = poly_coeffs[-1] * images
    for coeff in reversed(poly_coeffs[:-1]):
        mapped = jacobi @ mapped + coeff * images
    return mapped.T @ mapped


def check_derivative_deltas_unbounded():
    """Derivative deltas: Bessel with seminorm witness k=1, upper bound grows."""
    spec = dirac_derivative_map()
    uppers = []
    oracle_defect = 0.0
    for truncation in (8, 16, 32, 64):
        kernel = _stage_kernel(spec, truncation)
        op = frame_operator(kernel)
        oracle_defect = max(
            oracle_defect,
            float(np.abs(op.matrix - _exact_frame_operator((1.0,), 1, truncation)).max()),
        )
        uppers.append(frame_bounds(op)[1])
    ratios = [b / a for a, b in zip(uppers, uppers[1:])]
    growth_ok = all(b > a for a, b in zip(uppers, uppers[1:])) and all(
        r >= 1.5 for r in ratios
    )
    report = classify(spec, default_ladder(64))
    ok = growth_ok and report.bessel_index == 1 and oracle_defect <= 1e-8
    return _result(
        "derivative_deltas_unbounded",
        ok,
        f"B ratios={[f'{r:.2f}' for r in ratios]} (>=1.5), bessel witness "
        f"k={report.bessel_index} (==1), |S-oracle|max={oracle_defect:.3e} (<=1e-8)",
    )


def check_polynomial_lower_semiframe():
    """Weight 1+x^2: lower bound pinned at 1, upper bound grows >= 3x per stage."""
    report = classify(weighted_dirac_map("1+x^2"), default_ladder(64))
    lowers = [s.lower for s in report.stages]
    uppers = [s.upper for s in report.stages]
    ratios = [b / a for a, b in zip(uppers, uppers[1:])]
    ok = all(a >= 1.0 - 1e-9 for a in lowers) and all(r >= 3.0 for r in ratios)
    return _result(
        "polynomial_lower_semiframe",
        ok,
        f"A min={min(lowers):.9f} (>=1-1e-9), B ratios={[f'{r:.2f}' for r in ratios]} (>=3)",
    )


def check_bump_bounded_bessel():
    """The unit bump is a bounded Bessel map that fails totality, with the
    annihilated direction living outside the support."""
    spec = bump_dirac_map(-1.0, 1.0)
    uppers = []
    for truncation in (8, 16, 32):
        kernel = _stage_kernel(spec, truncation)
        uppers.append(frame_bounds(frame_operator(kernel))[1])
    bound_ok = all(b <= 1.0 + 1e-9 for b in uppers)
    kernel = _stage_kernel(spec, 32)
    totality = totality_test(kernel)
    grid = kernel.grid
    values = totality.witness(grid.nodes) if totality.witness is not None else None
    if values is not None:
        outside = np.abs(grid.nodes) >= 1.0
        mass = float(
            np.sum(grid.weights[outside] * np.abs(values[outside]) ** 2)
            / np.sum(grid.weights * np.abs(values) ** 2)
        )
    else:
        mass = 0.0
    ok = bound_ok and not totality.total and mass >= 0.99
    return _result(
        "bump_bounded_bessel",
        ok,
        f"B max={max(uppers):.9f} (<=1+1e-9), total={totality.total} (False), "
        f"witness mass outside support={mass:.4f} (>=0.99)",
    )


def check_moment_recovery():
    """Coarse-grid moment problems: consistent targets recover their
    least-norm generator, and every instance passes envelope necessity."""
    kernel = sample_kernel(dirac_map(), coarse_synthesis_grid(32), 32)
    weighted = weighted_analysis_matrix(kernel)
    row_space = np.linalg.pinv(weighted) @ weighted
    rng = np.random.default_rng(DEFAULT_SEED)
    worst_err = worst_res = worst_margin = 0.0
    for _ in range(50):
        raw = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        reference = TestFunction(row_space @ raw)
        target = analysis(kernel, reference)
        solution = solve_moment(kernel, target)
        worst_res = max(worst_res, solution.residual)
        err = np.linalg.norm(solution.f.coeffs - reference.coeffs) / reference.norm()
        worst_err = max(worst_err, float(err))
        for k in (0, 1, 2):
            satisfied, radius = envelope_condition_check(kernel, target, k)
            bound = seminorm(reference, k) * (1.0 + 1e-6)
            if not satisfied:
                worst_margin = np.inf
            else:
                worst_margin = max(worst_margin, radius - bound)
    ok = worst_err <= 1e-8 and worst_res <= 1e-10 and worst_margin <= 0.0
    return _result(
        "moment_recovery",
        ok,
        f"recovery={worst_err:.3e} (<=1e-8), residual={worst_res:.3e} (<=1e-10), "
        f"envelope margin={worst_margin:.3e} (<=0)",
    )


def _builtin_specs():
    return (
        dirac_map(),
        fourier_map(),
        dirac_derivative_map(),
        weighted_dirac_map("2+sin(x)"),
        weighted_dirac_map("1+x^2"),
        bump_dirac_map(-1.0, 1.0),
    )


def check_adjoint_factorization():
    """Synthesis is the adjoint of analysis and S = T T^x at matrix level."""
    rng = np.random.default_rng(DEFAULT_SEED)
    worst_adjoint = worst_factor = 0.0
    for spec in _builtin_specs():
        kernel = _stage_kernel(spec, 32)
        grid = kernel.grid
        for _ in range(100):
            xi = rng.standard_normal(grid.node_count) + 1j * rng.standard_normal(grid.node_count)
            g = random_test_function(32, rng)
            action = np.conj(dual_pairing(g, synthesis(kernel, xi)))
            through = l2x_inner(xi, analysis(kernel, g), grid)
            scale = 1.0 + l2x_norm(xi, grid) * g.norm()
            worst_adjoint = max(worst_adjoint, abs(action - through) / scale)
        matrix = frame_operator(kernel).matrix
        composed = np.column_stack(
            [
                synthesis(kernel, analysis(kernel, TestFunction.basis(n, 32))).pairings
                for n in range(32)
            ]
        )
        worst_factor = max(worst_factor, float(np.abs(matrix - composed).max()))
    ok = worst_adjoint <= 1e-10 and worst_factor <= 1e-12
    return _result(
        "adjoint_factorization",
        ok,
        f"adjoint defect={worst_adjoint:.3e} (<=1e-10), "
        f"|S - T T^x|max={worst_factor:.3e} (<=1e-12)",
    )


def check_continuity_constants():
    """Moment-solution bounds: isometric for dirac, below 1 for 2+sin(x),
    finite at k=1 but growing at k=0 for the derivative map."""
    dirac_c = continuity_constant(_stage_kernel(dirac_map(), 32), 0)
    weighted_c = continuity_constant(_stage_kernel(weighted_dirac_map("2+sin(x)"), 32), 0)
    deriv_c0, deriv_c1 = [], []
    for truncation in (8, 16, 32, 64):
        kernel = _stage_kernel(dirac_derivative_map(), truncation)
        deriv_c0.append(continuity_constant(kernel, 0))
        deriv_c1.append(continuity_constant(kernel, 1))
    ratios = [b / a for a, b in zip(deriv_c0, deriv_c0[1:])]
    ok = (
        abs(dirac_c - 1.0) <= 1e-8
        and weighted_c <= 1.0 + 1e-8
        and all(np.isfinite(c) for c in deriv_c1)
        and all(r >= 1.3 for r in ratios)
    )
    return _result(
        "continuity_constants",
        ok,
        f"dirac C={dirac_c:.9f} (1+-1e-8), 2+sin C={weighted_c:.9f} (<=1+1e-8), "
        f"derivative k=1 finite, k=0 ratios={[f'{r:.2f}' for r in ratios]} (>=1.3)",
    )


ALL_CHECKS = (
    check_dirac_gelfand_basis,
    check_fourier_gelfand_basis,
    check_weighted_riesz_basis,
    check_dual_reconstruction,
    check_derivative_deltas_unbounded,
    check_polynomial_lower_semiframe,
    check_bump_bounded_bessel,
    check_moment_recovery,
    check_adjoint_factorization,
    check_continuity_constants,
)


def run_all():
    """Run every check, print one PASS/FAIL line each, return their entries."""
    results = []
    for check in ALL_CHECKS:
        result = check()
        results.append(result)
        status = "PASS" if result["passed"] else "FAIL"
        print(f"{status}  {result['name']}: {result['detail']}")
    return results
