"""Canonical dual frames, reconstruction, and the basis characterizations.

For a frame the canonical dual kernel is Theta = Omega S^{-1}, so that
analysis through theta equals analysis through omega of S^{-1} f, the dual
frame operator is S^{-1} exactly at matrix level, and both reconstruction
orders

    f = synthesis_theta(analysis_omega(f)) = synthesis_omega(analysis_theta(f))

recover f up to conditioning.  Inversion goes through the
eigendecomposition with a relative cutoff so that near-singular frame
operators surface as NotAFrameError instead of amplified noise.

That eigendecomposition is the only one of S_omega: the pair keeps its
extreme eigenvalues (A, B) for dual_bounds.  Theta's own frame operator is
formed in N x N arithmetic, with no tall Gram of theta: with X the computed
inverse and S = L L^H (Cholesky), S_theta = X^H S X = G^H G for G = L^H X,
exactly Hermitian, and the pair keeps it.  Its eigenvalues measure X against
S, so dual_bounds checks them against [1/B, 1/A] as the postcondition on
the inverse; they are never read off 1/lambda, which would be a tautology.

Everything runs on the kernel's rows in their own dtype.  A kernel with a
column phase P (fourier; see KernelMatrix) has S = P^H S_rows P, so
S^{-1} = P^H S_rows^{-1} P and Theta = rows X P with X = S_rows^{-1}: the
dual is built from the real Gram, a real eigendecomposition and a real
inverse, and keeps omega's phase.

Theta is never formed as a second kernel.  The pair keeps X, and analysis
through theta is rows @ (X @ (P block)), synthesis P^H X^H (rows^H W xi):
N x N work on blocks of at most a few dozen columns besides the passes over
omega's rows.  X^H, not X: the computed inverse is not exactly Hermitian.
``pair.theta`` forms rows @ X when read (not cached).  Randomized checks
draw all their trial functions first, in the order a per-trial loop would,
and apply them as one block of columns: one pass over each kernel per
direction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, NotAFrameError, NumericError
from .hermite import TestFunction, random_test_function
from .kernels import KernelMatrix, sample_kernel
from .operators import (
    ClassifyThresholds,
    FrameOperatorMatrix,
    StageFactorization,
    _analyze,
    _hermitian_gram,
    _synthesize,
    classify,
    coarse_synthesis_grid,
    frame_bounds,
    frame_operator,
    hermitian_eigenpairs,
    mu_independence_test,
    weighted_analysis_matrix,
)
from .quadrature import default_ladder, stage_grid

__all__ = [
    "INVERSION_CUTOFF",
    "DEFAULT_SEED",
    "DualPair",
    "GelfandResult",
    "RieszResult",
    "DualSemiframeResult",
    "canonical_dual",
    "verify_duality",
    "dual_bounds",
    "reconstruct",
    "parseval_check",
    "gelfand_check",
    "riesz_check",
    "dual_semiframe_check",
]

INVERSION_CUTOFF = 1e-12
DEFAULT_SEED = 20240409


@dataclass(frozen=True)
class DualPair:
    """A map and its candidate dual on the same grid and truncation.

    A hand-built pair, DualPair(omega, theta, defect), holds its theta
    explicitly.  canonical_dual holds none: it keeps the computed inverse X
    of omega's row Gram, so that theta = omega.rows @ X with omega's column
    phase, applied as rows @ (X @ block) and formed only when ``theta`` is
    read (read-only, not cached).  It also carries omega's (A, B), the
    extremes of the S it inverted, and ``theta_operator``, theta's frame
    operator X^H S X formed in N x N arithmetic from that S and X (theta's
    column phase kept apart as for any kernel).
    """

    omega: KernelMatrix
    explicit_theta: KernelMatrix
    duality_defect: float
    omega_bounds: tuple = None
    theta_operator: FrameOperatorMatrix = None
    inverse: np.ndarray = field(default=None, kw_only=True)

    def __post_init__(self):
        if (self.explicit_theta is None) == (self.inverse is None):
            raise InvalidConfigError("a dual pair needs exactly one of an explicit theta and an inverse")

    @property
    def theta(self):
        """The dual kernel: the explicit theta, or omega.rows @ X formed now."""
        if self.inverse is None:
            return self.explicit_theta
        rows = self.omega.rows @ self.inverse
        rows.setflags(write=False)
        return KernelMatrix(rows, self.omega.grid, None, phase=self.omega.phase)


def _theta_side(pair):
    """(kernel, inner) with theta = kernel.rows @ inner @ P, for _analyze
    and _synthesize: (omega, X) for a canonical pair, (theta, None) for an
    explicit one."""
    if pair.inverse is None:
        return pair.explicit_theta, None
    return pair.omega, pair.inverse


def canonical_dual(kernel, trials=20, seed=DEFAULT_SEED):
    """Canonical dual pair (omega, Omega S^{-1}) with its measured defect.

    Raises NotAFrameError when the frame operator is singular at the
    relative cutoff, carrying the offending smallest eigenvalue, and
    NumericError when S has no Cholesky factor.
    """
    op = frame_operator(kernel)
    values, vectors = hermitian_eigenpairs(op.gram)
    lam_min, lam_max = float(values[0]), float(values[-1])
    _require_frame(lam_min, lam_max)
    inverse = (vectors / values[None, :]) @ vectors.conj().T
    try:
        factor = np.linalg.cholesky(op.gram)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"frame operator has no Cholesky factor: {exc}") from exc
    theta_operator = FrameOperatorMatrix(
        _hermitian_gram(factor.conj().T @ inverse), f"dual of {op.provenance}", phase=kernel.phase
    )
    inverse.setflags(write=False)
    pair = DualPair(kernel, None, 0.0, inverse=inverse)
    defect = verify_duality(pair, trials, seed)
    return DualPair(kernel, None, defect, (lam_min, lam_max), theta_operator, inverse=inverse)


def _require_frame(lam_min, lam_max):
    """NotAFrameError unless lambda_min > INVERSION_CUTOFF * lambda_max > 0."""
    if lam_max <= 0.0 or lam_min <= INVERSION_CUTOFF * lam_max:
        raise NotAFrameError(
            f"frame operator singular at cutoff {INVERSION_CUTOFF:g}: "
            f"lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e}",
            lam_min,
        )


def verify_duality(pair, trials, seed=DEFAULT_SEED):
    """Worst normalized defect of <f, g> = int <f, theta_x><omega_x, g> dmu
    over seeded random pairs.

    The pairs are drawn in turn (f, g, f, g, ...) and applied as one block,
    one pass over each kernel.
    """
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    n = pair.omega.truncation
    draws = np.stack([random_test_function(n, rng).coeffs for _ in range(2 * trials)], axis=1)
    f, g = draws[:, 0::2], draws[:, 1::2]
    direct = np.sum(f * g.conj(), axis=0)
    theta, inner = _theta_side(pair)
    through = pair.omega.grid.weights @ (
        _analyze(theta, f, inner) * _analyze(pair.omega, g).conj()
    )
    scale = np.linalg.norm(f, axis=0) * np.linalg.norm(g, axis=0)
    return float(np.max(np.abs(direct - through) / scale))


def dual_bounds(pair):
    """Frame bounds of a canonical dual, the extreme eigenvalues of the pair's
    theta_operator (X^H S X for the computed inverse X; a column phase changes
    no eigenvalue).  They must sit inside [1/B, 1/A] of omega's bounds, which
    is checked here as the postcondition on the inverse: NumericError when
    they escape.  Pairs canonical_dual did not build carry neither: rejected."""
    if pair.omega_bounds is None or pair.theta_operator is None:
        raise InvalidConfigError("dual_bounds needs a pair built by canonical_dual")
    # canonical_dual guarantees 0 < A <= B
    lower_o, upper_o = pair.omega_bounds
    lower_t, upper_t = frame_bounds(pair.theta_operator)
    tol = 1e-8 / lower_o
    if lower_t < 1.0 / upper_o - tol or upper_t > 1.0 / lower_o + tol:
        raise NumericError(
            f"dual bounds ({lower_t:.6e}, {upper_t:.6e}) escaped "
            f"[1/B, 1/A] = ({1.0 / upper_o:.6e}, {1.0 / lower_o:.6e})"
        )
    return lower_t, upper_t


def reconstruct(pair, f, swap_roles=False):
    """Round-trip f through analysis and the dual synthesis.

    ``swap_roles`` uses the other displayed order (analyze through theta,
    synthesize through omega).  Returns (reconstruction, relative error).
    ``f`` may also be a sequence of test functions, which round-trip as one
    block (one pass over each kernel per direction); the result is then a
    list of such pairs.
    """
    single = isinstance(f, TestFunction)
    functions = [f] if single else list(f)
    coeffs = np.stack([g.coeffs for g in functions], axis=1)
    theta, inner = _theta_side(pair)
    if swap_roles:
        rebuilt = _synthesize(pair.omega, _analyze(theta, coeffs, inner))
    else:
        rebuilt = _synthesize(theta, _analyze(pair.omega, coeffs), inner)
    scale = np.linalg.norm(coeffs, axis=0)
    err = np.linalg.norm(rebuilt - coeffs, axis=0)
    rel = err / np.where(scale > 0, scale, 1.0)
    results = [(TestFunction(rebuilt[:, k]), float(rel[k])) for k in range(len(functions))]
    return results[0] if single else results


def parseval_check(kernel, trials=20, seed=DEFAULT_SEED, tolerance=1e-6):
    """(flag, defect) with defect = max |S - I|.

    Cross-checks the equivalent random-pair identity
    <f, g> = sum_j w_j xi_f conj(xi_g); a disagreement between the two
    routes is a numerical fault and raises.
    """
    op = frame_operator(kernel)
    n = op.truncation
    defect = float(np.abs(op.matrix - np.eye(n)).max())
    flag = defect <= tolerance
    # the random-pair identity is the duality defect of (omega, omega)
    worst_pair = verify_duality(DualPair(kernel, kernel, 0.0), trials, seed)
    # worst_pair <= n * defect always holds; a gross mismatch between the two
    # routes signals a wiring bug (e.g. mismatched grids), not a borderline map
    inconsistent = (flag and worst_pair > n * tolerance) or (
        not flag and defect > 10 * n * tolerance and worst_pair < tolerance
    )
    if inconsistent:
        raise NumericError(
            f"Parseval routes disagree: |S-I|={defect:.3e} but random-pair "
            f"defect is {worst_pair:.3e}"
        )
    return flag, defect


@dataclass(frozen=True)
class GelfandResult:
    gelfand: bool
    parseval: bool
    mu_independent: bool
    parseval_defect: float
    isometry_defect: float

    def __bool__(self):
        return self.gelfand


def _coarse_resample(kernel):
    """Kernel on the coarse bulk grid (node count <= truncation)."""
    if kernel.map_spec is not None and kernel.map_spec.kind != "custom":
        return sample_kernel(
            kernel.map_spec, coarse_synthesis_grid(kernel.truncation), kernel.truncation
        )
    if kernel.node_count <= kernel.truncation:
        return kernel
    raise InvalidConfigError(
        "kernel has more nodes than coefficients and no resamplable map spec; "
        "supply a coarse kernel for the synthesis-side diagnostics"
    )


def gelfand_check(kernel, threshold=1e-6):
    """Gel'fand basis test: Parseval and mu-independent.

    Also reports how far the weighted synthesis map on the coarse grid is
    from an isometry (its column Gram against the identity).  That defect is
    a rough diagnostic: it measures the quadrature's ability to resolve
    products of distribution rows, not the continuum isometry itself.
    """
    parseval, parseval_defect = parseval_check(kernel)
    coarse = _coarse_resample(kernel)
    mu = mu_independence_test(coarse, threshold)
    weighted = weighted_analysis_matrix(coarse)
    gram = weighted @ weighted.conj().T
    isometry_defect = float(np.abs(gram - np.eye(coarse.node_count)).max())
    return GelfandResult(
        gelfand=bool(parseval and mu),
        parseval=parseval,
        mu_independent=bool(mu),
        parseval_defect=parseval_defect,
        isometry_defect=isometry_defect,
    )


@dataclass(frozen=True)
class RieszResult:
    riesz: bool
    sigma_min: float
    sigma_max: float
    report: object

    def __bool__(self):
        return self.riesz


def riesz_check(kernel, ladder=None, thresholds=ClassifyThresholds()):
    """Riesz basis test: frame classification plus mu-independence.

    The singular-value interval of the weighted kernel certifies the
    synthesis map as bounded with bounded inverse at the truncated level.
    """
    ladder = _walkable_ladder(kernel, ladder, "riesz_check")
    report = classify(kernel.map_spec, ladder, thresholds)
    # real rows: fourier's column phase changes no singular value
    factor = StageFactorization(np.sqrt(kernel.grid.weights)[:, None] * kernel.rows)
    flag = report.has("frame") and report.has("mu_independent")
    return RieszResult(bool(flag), factor.sigma_min, factor.sigma_max, report)


def _walkable_ladder(kernel, ladder, check):
    """``ladder``, or the doubling one to 8 * 2^j <= N; needs a resamplable spec."""
    if kernel.map_spec is None or kernel.map_spec.kind == "custom":
        raise InvalidConfigError(f"{check} walks a ladder and needs a resamplable map spec")
    n_max = 8 << ((max(kernel.truncation, 8) // 8).bit_length() - 1)
    return default_ladder(n_max) if ladder is None else ladder


@dataclass(frozen=True)
class DualSemiframeResult:
    holds: bool
    margins: tuple

    def __bool__(self):
        return self.holds


def dual_semiframe_check(pair, ladder=None, thresholds=ClassifyThresholds()):
    """Dual of an upper semi-frame is a lower semi-frame with bound 1/B.

    Requires omega to classify as an upper semi-frame (or better, a frame)
    with a stable upper bound; verifies lower_theta >= 1/upper_omega - tol
    at every ladder stage.
    """
    kernel = pair.omega
    ladder = _walkable_ladder(kernel, ladder, "dual_semiframe_check")
    report = classify(kernel.map_spec, ladder, thresholds)
    if report.upper_trend != "bounded" or not report.has("total"):
        raise InvalidConfigError(
            f"map is not an upper semi-frame: upper trend {report.upper_trend!r}, "
            f"total={report.has('total')}"
        )
    # the upper bound of each stage is already in the report
    margins = []
    for stage, diag in zip(ladder.stages, report.stages):
        stage_kernel = sample_kernel(kernel.map_spec, stage_grid(stage), stage.truncation)
        margins.append(dual_bounds(canonical_dual(stage_kernel))[0] - 1.0 / diag.upper)
    holds = all(m >= -1e-8 / d.upper for m, d in zip(margins, report.stages))
    return DualSemiframeResult(holds, tuple(margins))
