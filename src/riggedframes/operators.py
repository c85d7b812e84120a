"""Analysis, synthesis, and frame operators, plus the ladder classifier.

All operators come from one sampled kernel.  With W = diag(quadrature
weights) and Omega the kernel matrix:

  analysis(f)     = Omega @ c_f                      (grid samples of <f, omega_x>)
  synthesis(xi)   = Omega^H @ (W xi)                 (distribution pairings)
  frame operator  S = Omega^H W Omega, so S = T T^x  holds at matrix level

Frame bounds at truncation N are the extreme eigenvalues of S, equivalently
the squared extreme singular values of the weighted kernel sqrt(W) Omega.
One ladder walk, shared by classify and dual_bessel_check, samples and
factors each stage once (a thin QR of the ~15N x N weighted real rows to R;
Chan, ACM TOMS 8, 1982).  Bounds and totality are R's singular values; the
p_k Bessel constant is the top one of R D_k (R^-T D_k for the dual), formed
after the walk up to the first bounded k (k = 0 is sigma_max: no damped SVD).
Continuum statements (bounded versus growing bounds, totality) are read off
trends along a refinement ladder; a single stage can never decide them.

Every operator works on the kernel's rows in their own dtype.  Every
built-in kind has real rows; fourier's (-i)^n column phase P is kept apart
(see KernelMatrix), so Omega = rows P and S = P^H S_rows P.  Analysis and
synthesis apply P to the N-vector or N x k block on the coefficient side and
meet real rows through the complex block's float view, S_rows is the real
Gram A^T A of A = sqrt(W) rows formed over row blocks (copied in the rows'
own memory order), and nothing kernel-sized is promoted or copied to
complex.  A diagonal unitary changes no eigenvalue, so frame_bounds reads a
phased S off S_rows, values only.  Only a complex custom kernel has complex
rows; its S_rows is read off the real Gram of their stacked real and
imaginary parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError, NumericError
from .hermite import DistributionSample, TestFunction
from .kernels import _real_rows, sample_kernel  # noqa: F401 (bench/ patches this name)
from .quadrature import build_grid, bulk_half_width, stage_grid

__all__ = [
    "FrameOperatorMatrix",
    "StageFactorization",
    "TotalityResult",
    "MuIndependenceResult",
    "ClassifyThresholds",
    "StageDiagnostics",
    "FrameReport",
    "LABEL_ORDER",
    "analysis",
    "synthesis",
    "weighted_analysis_matrix",
    "frame_operator",
    "hermitian_eigenpairs",
    "frame_bounds",
    "totality_test",
    "coarse_synthesis_grid",
    "mu_independence_test",
    "bessel_seminorm_constant",
    "classify",
]


def analysis(kernel, f):
    """Grid samples of <f, omega_x_j>; for the dirac map these are f(x_j)."""
    if f.truncation != kernel.truncation:
        raise DimensionMismatchError(
            f"function truncation {f.truncation} != kernel truncation {kernel.truncation}"
        )
    return _analyze(kernel, f.coeffs)


def synthesis(kernel, xi):
    """Weak integral of xi(x) omega_x d(mu) as a distribution sample.

    Adjoint to analysis by construction: the pairing of the result with any
    g equals l2x_inner(xi, analysis(kernel, g)).
    """
    xi = np.asarray(xi)
    if xi.shape != (kernel.node_count,):
        raise DimensionMismatchError(
            f"grid function has shape {xi.shape}, expected ({kernel.node_count},)"
        )
    return DistributionSample(_synthesize(kernel, xi))


def _apply(matrix, block):
    """matrix @ block for a vector or a block of columns.  A complex block
    meets a real matrix through its float view, so the matrix is never
    promoted or copied to complex."""
    if np.iscomplexobj(matrix) or not np.iscomplexobj(block):
        return matrix @ block
    columns = np.ascontiguousarray(block, dtype=complex).reshape(block.shape[0], -1)
    out = (matrix @ columns.view(float)).view(complex)
    return out.reshape(matrix.shape[:1] + block.shape[1:])


def _scale_rows(scale, block):
    """diag(scale) @ block for a vector or a block of columns."""
    return (scale if block.ndim == 1 else scale[:, None]) * block


def _analyze(kernel, block, inner=None):
    """Omega @ block = rows @ (P block) for a coefficient vector or a block of
    columns: the phase P touches only the block.  An N x N ``inner`` factor
    analyzes through rows @ inner @ P instead, applied as rows @ (inner @ (P
    block)), so that kernel is never formed."""
    if kernel.phase is not None:
        block = _scale_rows(kernel.phase, block)
    if inner is not None:
        block = _apply(inner, block)
    return _apply(kernel.rows, block)


def _synthesize(kernel, xi, inner=None):
    """Omega^H (W xi) = P^H conj(rows^T conj(W xi)) for a grid function or a
    block of them (one column each): no conjugate copy of the kernel.  With an
    ``inner`` factor it is (rows @ inner @ P)^H (W xi), with inner^H applied
    as conj(inner^T conj(.)) on the N-row block."""
    weighted = _scale_rows(kernel.grid.weights, xi)
    out = _apply(kernel.rows.T, weighted.conj())
    if inner is not None:
        out = _apply(inner.T, out)
    out = out.conj()
    return out if kernel.phase is None else _scale_rows(kernel.phase.conj(), out)


def weighted_analysis_matrix(kernel):
    """sqrt(W) Omega: the analysis operator as an isometry into plain l2."""
    return np.sqrt(kernel.grid.weights)[:, None] * kernel.entries


@dataclass(frozen=True)
class FrameOperatorMatrix:
    """S[m][n] = sum_j w_j conj(Omega[j][m]) Omega[j][n]; Hermitian PSD.

    Stored as ``gram``, the S of the kernel's rows (real whenever they are),
    and the kernel's column phase P if it has one: S = P^H gram P, which
    ``matrix`` forms when read (read-only, not cached).  Both have the same
    eigenvalues.
    """

    gram: np.ndarray
    provenance: str
    phase: np.ndarray = field(default=None, kw_only=True)

    def __post_init__(self):
        arr = np.array(self.gram, dtype=complex if np.iscomplexobj(self.gram) else float)
        arr.setflags(write=False)
        object.__setattr__(self, "gram", arr)

    @property
    def matrix(self):
        if self.phase is None:
            return self.gram
        matrix = self.phase.conj()[:, None] * self.gram * self.phase[None, :]
        matrix.setflags(write=False)
        return matrix

    @property
    def truncation(self):
        return self.gram.shape[0]


# frame_operator forms S from this many row blocks of the weighted kernel, so
# its working memory is a fraction of the kernel's.
_ROW_BLOCKS = 8


def frame_operator(kernel):
    """S = P^H S_rows P, with S_rows the Gram A^T A of the weighted rows
    A = sqrt(W) rows summed over row blocks and P the kernel's column phase
    (kept apart: S.matrix forms P^H S_rows P when read).  The block buffer
    has the rows' own memory order, so filling it is a contiguous copy.
    Complex rows (a custom kernel) stack their real and imaginary parts,
    [Re A, Im A], and S_rows is read off that real Gram (see
    _hermitian_from_stacked).  Either way S comes out exactly Hermitian."""
    rows = kernel.rows
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    m, n = rows.shape
    step = max(1, -(-m // _ROW_BLOCKS))
    sqrt_w = np.sqrt(kernel.grid.weights)[:, None]
    block = np.empty((min(step, m), len(parts) * n), order="F" if rows.flags.f_contiguous else "C")
    gram = np.zeros((len(parts) * n,) * 2)
    for start in range(0, m, step):
        a = block[: min(step, m - start)]
        for i, part in enumerate(parts):
            out = a[:, i * n : (i + 1) * n]
            np.multiply(sqrt_w[start : start + step], part[start : start + step], out=out)
        gram += a.T @ a
    if len(parts) == 2:
        gram = _hermitian_from_stacked(gram)
    return FrameOperatorMatrix(gram, kernel.fingerprint, phase=kernel.phase)


def _hermitian_from_stacked(gram):
    """G^H G from the real Gram of the stacked [Re G, Im G]: the diagonal
    blocks sum to the real part and the off-diagonal ones give the imaginary
    part, so a symmetric input gives an exactly Hermitian result."""
    n = gram.shape[0] // 2
    return gram[:n, :n] + gram[n:, n:] + 1j * (gram[:n, n:] - gram[n:, :n])


def _hermitian_gram(matrix):
    """G^H G of a matrix, exactly Hermitian: the real Gram of G itself, or of
    [Re G, Im G] for a complex G."""
    if not np.iscomplexobj(matrix):
        return matrix.T @ matrix
    stacked = np.concatenate([matrix.real, matrix.imag], axis=1)
    return _hermitian_from_stacked(stacked.T @ stacked)


def _decompose_hermitian(decompose, op):
    """decompose(matrix) for the matrix of a Hermitian operator.  Visibly
    non-Hermitian input is rejected rather than silently symmetrized, and
    failure to converge surfaces as NumericError."""
    matrix = op.matrix if isinstance(op, FrameOperatorMatrix) else np.asarray(op)
    scale = np.abs(matrix).max()
    if scale > 0 and np.abs(matrix - matrix.conj().T).max() > 1e-12 * scale:
        raise NumericError(
            f"matrix is not Hermitian: deviation {np.abs(matrix - matrix.conj().T).max():.3e} "
            f"against scale {scale:.3e}"
        )
    try:
        return decompose(matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc


def hermitian_eigenpairs(op):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a Hermitian
    operator matrix.

    Rejects visibly non-Hermitian input rather than silently symmetrizing;
    failure to converge surfaces as NumericError.
    """
    return _decompose_hermitian(np.linalg.eigh, op)


def frame_bounds(op):
    """(lower, upper) = extreme eigenvalues of the frame operator, from a
    values-only eigendecomposition; a FrameOperatorMatrix gives them from its
    unphased ``gram``, since a diagonal unitary changes no eigenvalue.
    Input is checked as by hermitian_eigenpairs.

    Inner approximations: the lower bound is nonincreasing and the upper
    nondecreasing as the truncation grows over a fixed map.
    """
    gram = op.gram if isinstance(op, FrameOperatorMatrix) else op
    values = _decompose_hermitian(np.linalg.eigvalsh, gram)
    return float(values[0]), float(values[-1])


class StageFactorization:
    """Triangular factor R of a weighted kernel sqrt(W) Omega, from one thin QR.

    R D has the singular values of sqrt(W) Omega D for every column scaling
    D; the Gram route would square the condition number at the rank cutoff.
    """

    def __init__(self, weighted):
        self.r = np.linalg.qr(weighted, mode="r")
        svals = np.linalg.svd(self.r, compute_uv=False)
        self.sigma_max = float(svals[0])
        # fewer rows than columns leave a null space whatever R's spectrum
        self.sigma_min = float(svals[-1]) if weighted.shape[0] >= weighted.shape[1] else 0.0

    def bessel_constant(self, k):
        """Top singular value of the kernel damped by (1+n)^(-k/2)."""
        if k == 0:
            return self.sigma_max
        damping = (1.0 + np.arange(self.r.shape[1])) ** (-k / 2.0)
        return float(np.linalg.svd(self.r * damping[None, :], compute_uv=False)[0])


def _full_rank(sigma_min, sigma_max, threshold):
    return bool(sigma_max > 0.0 and sigma_min > threshold * sigma_max)


@dataclass(frozen=True)
class TotalityResult:
    total: bool
    sigma_min: float
    sigma_max: float
    witness: TestFunction = None

    def __bool__(self):
        return self.total


def totality_test(kernel, threshold=1e-6):
    """Total iff analysis is injective at the truncation: smallest singular
    value of the weighted kernel above threshold * largest.

    When not total, the witness is the near-annihilated coefficient
    direction.
    """
    if threshold <= 0:
        raise InvalidConfigError(f"threshold must be positive, got {threshold}")
    factor = StageFactorization(weighted_analysis_matrix(kernel))
    sigma_min, sigma_max = factor.sigma_min, factor.sigma_max
    if sigma_max == 0.0:
        return TotalityResult(False, 0.0, 0.0, TestFunction.basis(0, kernel.truncation))
    if _full_rank(sigma_min, sigma_max, threshold):
        return TotalityResult(True, sigma_min, sigma_max)
    # right singular vectors of R are those of sqrt(W) Omega; the full set
    # also spans the null space when there are fewer rows than columns
    _, _, vh = np.linalg.svd(factor.r)
    return TotalityResult(False, sigma_min, sigma_max, TestFunction(vh[-1].conj()))


@dataclass(frozen=True)
class MuIndependenceResult:
    mu_independent: bool
    sigma_min: float
    sigma_max: float
    witness: np.ndarray = None

    def __bool__(self):
        return self.mu_independent


def coarse_synthesis_grid(truncation, order=4):
    """Grid with ~N/2 nodes covering only the Hermite bulk [-sqrt(2N+1), ...].

    Nodes past the turning point pair to numerically zero with every basis
    function, which would fake a synthesis kernel; restricting the test grid
    to the bulk removes that discretization artifact.
    """
    panels = max(1, truncation // (2 * order))
    return build_grid(bulk_half_width(truncation), panels, order)


def mu_independence_test(kernel, threshold=1e-6):
    """Mu-independent iff synthesis is injective on grid functions.

    Requires node count <= truncation: with more nodes than coefficients the
    discretized synthesis map always has a null space, which is an artifact
    of discretization rather than a property of the map.  The witness, when
    dependence is found, is a near-null grid function of unit L2(X) norm.
    """
    if threshold <= 0:
        raise InvalidConfigError(f"threshold must be positive, got {threshold}")
    _check_coarse(kernel.node_count, kernel.truncation)
    weighted = weighted_analysis_matrix(kernel)
    u, svals, _ = np.linalg.svd(weighted, full_matrices=False)
    sigma_max = float(svals[0])
    sigma_min = float(svals[-1])
    if _full_rank(sigma_min, sigma_max, threshold):
        return MuIndependenceResult(True, sigma_min, sigma_max)
    scaled = u[:, -1] / np.sqrt(kernel.grid.weights)
    return MuIndependenceResult(False, sigma_min, sigma_max, scaled)


def _check_coarse(node_count, truncation):
    if node_count > truncation:
        raise InvalidConfigError(
            f"mu-independence test needs node count <= truncation, got "
            f"{node_count} nodes > {truncation}; sample the map "
            f"on coarse_synthesis_grid(truncation) instead"
        )


def bessel_seminorm_constant(kernel, k):
    """Smallest C with l2x_norm(analysis(f)) <= C * p_k(f) at this truncation."""
    if k < 0:
        raise ValueError(f"seminorm index must be nonnegative, got {k}")
    return StageFactorization(np.sqrt(kernel.grid.weights)[:, None] * kernel.rows).bessel_constant(k)


@dataclass(frozen=True)
class ClassifyThresholds:
    """Classifier knobs; the defaults match the reporting conventions.

    stability: last-two relative change below which a bound series counts as
    bounded.  growth: per-stage ratio at or above which it counts as
    growing.  rank: relative singular-value cutoff for totality and
    mu-independence.  tight/parseval: relative windows on |A - B| and
    |B - 1|.  bessel_k_max: largest seminorm index tried for the Bessel
    witness.
    """

    stability: float = 0.05
    growth: float = 1.3
    rank: float = 1e-6
    tight: float = 1e-6
    parseval: float = 1e-6
    bessel_k_max: int = 6


@dataclass(frozen=True)
class StageDiagnostics:
    truncation: int
    half_width: float
    node_count: int
    lower: float
    upper: float
    sigma_min: float
    sigma_max: float
    total: bool
    mu_independent: bool


LABEL_ORDER = (
    "bessel",
    "bounded_bessel",
    "total",
    "mu_independent",
    "upper_semi_frame",
    "lower_semi_frame",
    "frame",
    "tight",
    "parseval",
    "gelfand_basis",
    "riesz_basis",
)


@dataclass(frozen=True)
class FrameReport:
    """Per-stage spectra, ladder trends, and the final taxonomy labels.

    ``bessel_constants`` holds the per-stage series of each seminorm index
    examined: k = 0..bessel_index, or 0..bessel_k_max when none is bounded.
    """

    stages: tuple
    lower_trend: str
    upper_trend: str
    lower_ratios: tuple
    upper_ratios: tuple
    labels: tuple
    bessel_index: int = None
    bessel_constant: float = None
    bessel_constants: dict = field(default_factory=dict)

    def has(self, label):
        return label in self.labels


def _series_trend(values, thresholds, vanish_floor):
    """Classify a positive series observed along the ladder.

    "growing" needs every consecutive ratio at or above the growth factor;
    "bounded" needs the last step to move by at most the stability
    tolerance; "vanishing" is a decreasing series that has dropped below the
    floor; anything else is still "drifting" at this ladder depth.  A
    single value has no trend: it is "undetermined".
    """
    if len(values) < 2:
        return "undetermined"
    ratios = _consecutive_ratios(values)
    if all(r >= thresholds.growth for r in ratios):
        return "growing"
    prev, last = values[-2], values[-1]
    change = abs(last - prev) / prev if prev > 0 else (0.0 if last == 0.0 else math.inf)
    if change <= thresholds.stability:
        return "bounded"
    if all(r <= 1.0 for r in ratios) and last <= vanish_floor:
        return "vanishing"
    return "drifting"


def _consecutive_ratios(values):
    return tuple(
        (1.0 if curr == 0.0 else math.inf) if prev == 0.0 else curr / prev
        for prev, curr in zip(values, values[1:])
    )


def _bessel_search(factors, thresholds):
    """First k <= bessel_k_max whose Bessel series over the stage factors is
    bounded: (k, its last constant, {k: series examined}), or (None, None,
    every series); the series for k is formed only when no smaller k was."""
    series = {}
    for k in range(thresholds.bessel_k_max + 1):
        series[k] = tuple(factor.bessel_constant(k) for factor in factors)
        if _series_trend(series[k], thresholds, 0.0) == "bounded":
            return k, series[k][-1], series
    return None, None, series


def _ladder_walk(map_spec, ladder):
    """Yield (stage, StageFactorization of its weighted real rows) per stage.  A
    generator frees a stage's rows as a plain loop does, after the next stage's
    are sampled: freeing them earlier, on a helper's return, raised peak RSS."""
    for stage in ladder.stages:
        grid = stage_grid(stage)
        rows = _real_rows(map_spec, grid.nodes, stage.truncation)
        rows *= np.sqrt(grid.weights)[:, None]
        yield stage, StageFactorization(rows)


def classify(map_spec, ladder, thresholds=ClassifyThresholds()):
    """Run the full diagnostic ladder and assemble taxonomy labels.

    Labels follow the sharpest-class convention: the semi-frame labels are
    reported only when the map is not a frame outright.
    """
    if map_spec.kind == "custom":
        raise InvalidConfigError(
            "classification needs per-stage resampling; custom kernels support "
            "the stage-level diagnostics directly"
        )
    stages, factors = [], []
    for stage, factor in _ladder_walk(map_spec, ladder):
        coarse = coarse_synthesis_grid(stage.truncation)
        _check_coarse(coarse.node_count, stage.truncation)
        coarse_rows = _real_rows(map_spec, coarse.nodes, stage.truncation)
        coarse_rows *= np.sqrt(coarse.weights)[:, None]
        coarse_svals = np.linalg.svd(coarse_rows, compute_uv=False)
        stages.append(
            StageDiagnostics(
                truncation=stage.truncation,
                half_width=stage.half_width,
                node_count=stage.node_count,
                lower=factor.sigma_min**2,
                upper=factor.sigma_max**2,
                sigma_min=factor.sigma_min,
                sigma_max=factor.sigma_max,
                total=_full_rank(factor.sigma_min, factor.sigma_max, thresholds.rank),
                mu_independent=_full_rank(coarse_svals[-1], coarse_svals[0], thresholds.rank),
            )
        )
        factors.append(factor)

    lowers = [s.lower for s in stages]
    uppers = [s.upper for s in stages]
    vanish_floor = thresholds.rank**2 * max(uppers[-1], 0.0)
    lower_trend = _series_trend(lowers, thresholds, vanish_floor)
    upper_trend = _series_trend(uppers, thresholds, vanish_floor)

    bessel_index, bessel_constant, bessel_series = _bessel_search(factors, thresholds)

    final = stages[-1]
    bounded_upper = upper_trend == "bounded"
    lower_positive = final.lower > 0.0 and final.lower > thresholds.rank**2 * final.upper
    stable_lower = lower_trend == "bounded" and lower_positive
    is_frame = bounded_upper and stable_lower
    labels = []
    if bessel_index is not None:
        labels.append("bessel")
    if bounded_upper:
        labels.append("bounded_bessel")
    if final.total:
        labels.append("total")
    if final.mu_independent:
        labels.append("mu_independent")
    if bounded_upper and final.total and not is_frame:
        labels.append("upper_semi_frame")
    if stable_lower and not is_frame:
        labels.append("lower_semi_frame")
    if is_frame:
        labels.append("frame")
        if abs(final.lower - final.upper) <= thresholds.tight * final.upper:
            labels.append("tight")
            if abs(final.upper - 1.0) <= thresholds.parseval:
                labels.append("parseval")
                if final.mu_independent:
                    labels.append("gelfand_basis")
        if final.mu_independent:
            labels.append("riesz_basis")

    return FrameReport(
        stages=tuple(stages),
        lower_trend=lower_trend,
        upper_trend=upper_trend,
        lower_ratios=_consecutive_ratios(lowers),
        upper_ratios=_consecutive_ratios(uppers),
        labels=tuple(label for label in LABEL_ORDER if label in labels),
        bessel_index=bessel_index,
        bessel_constant=bessel_constant,
        bessel_constants=bessel_series,
    )
