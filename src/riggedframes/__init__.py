"""Distribution frames, semi-frames, and bases over a rigged Hilbert space,
discretized by truncated Hermite expansions and composite quadrature grids.

Everything downstream of the sampled kernel Omega[j][n] = <h_n, omega_{x_j}>
is dense numerical linear algebra: analysis and synthesis operators, frame
bounds from the operator spectrum, totality and mu-independence from
singular values, canonical duals and reconstruction, and moment-problem
solvers with their solvability envelopes.  Classification of continuum
properties is read off refinement-ladder trends, never a single stage.
"""

from .errors import (
    DimensionMismatchError,
    InvalidConfigError,
    NotAFrameError,
    NumericError,
    WeightEvalError,
    WeightSyntaxError,
)
from .hermite import (
    DistributionSample,
    TestFunction,
    derivative_coeffs,
    dirac_sample,
    embed,
    fourier_coeffs,
    hermite_eval,
    hermite_table,
    inner_product,
    pair,
    random_test_function,
    seminorm,
)
from .quadrature import (
    LadderStage,
    QuadratureGrid,
    RefinementLadder,
    build_grid,
    bulk_half_width,
    default_ladder,
    default_stage,
    hermite_grid,
    l2x_inner,
    l2x_norm,
    stage_grid,
)
from .weights import eval_weight, expr_to_string, parse_weight, polynomial_degree
from .kernels import (
    KernelMatrix,
    MapSpec,
    bump_dirac_map,
    bump_profile,
    custom_map,
    dirac_derivative_map,
    dirac_map,
    fourier_map,
    load_custom_kernel,
    sample_kernel,
    save_kernel_csv,
    weighted_dirac_map,
)
from .operators import (
    ClassifyThresholds,
    FrameOperatorMatrix,
    FrameReport,
    MuIndependenceResult,
    StageDiagnostics,
    TotalityResult,
    analysis,
    classify,
    coarse_synthesis_grid,
    frame_bounds,
    frame_operator,
    mu_independence_test,
    synthesis,
    totality_test,
    weighted_analysis_matrix,
)
from .duality import (
    DualPair,
    DualSemiframeResult,
    GelfandResult,
    RieszResult,
    canonical_dual,
    dual_bounds,
    dual_semiframe_check,
    gelfand_check,
    parseval_check,
    reconstruct,
    riesz_check,
    verify_duality,
)
from .moments import (
    DualBesselResult,
    MomentSolution,
    continuity_constant,
    dual_bessel_check,
    envelope,
    envelope_condition_check,
    rf_diagnostic,
    solve_moment,
)

__version__ = "0.1.0"
