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
Stage grids are mirror-symmetric bit for bit, and h_n(-x) = (-1)^n h_n(x):
when the map's row weight has magnitudes that agree bit for bit at mirrored
nodes (dirac, fourier and dirac_derivative always, a weight or bump when
|w(x)| == |w(-x)|), S is block diagonal in the even and odd indices, so the
walk samples only the nodes x >= 0 and StageFactorization holds one R per
parity block (see _stage_rows); every read is taken over the blocks.
The synthesis side (mu-independence, moment solves, the Gel'fand isometry
defect) reads one coarse kernel per call, from _coarse_kernel: a built-in map
sampled on the bulk grid coarse_synthesis_grid(N), or a given kernel, with
node count <= N either way.  Its one rank rule, _coarse_svd, takes the
values-only SVD of the weighted real rows and forms U only for rank-deficient
rows; mu_independence_test (classify calls it per stage) and the moment
probes of rf_diagnostic read it.
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
phased S off S_rows, values only; totality_test and the moment solvers
factor A itself and apply P to their N-side results (_unphase).  Only a
complex custom kernel has complex rows; its S_rows is read off the real Gram
of their stacked real and imaginary parts.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError, NumericError
from .hermite import DistributionSample, TestFunction
from .kernels import _real_rows, _row_weight, sample_kernel
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
    "RANK_CUTOFF",
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


def _analyze(kernel, block):
    """Omega @ block = rows @ (P block) for a coefficient vector or a block of
    columns: the phase P touches only the block."""
    if kernel.phase is not None:
        block = _scale_rows(kernel.phase, block)
    return _apply(kernel.rows, block)


def _synthesize(kernel, xi):
    """Omega^H (W xi) = P^H conj(rows^T conj(W xi)) for a grid function or a
    block of them (one column each): no conjugate copy of the kernel."""
    weighted = _scale_rows(kernel.grid.weights, xi)
    return _unphase(kernel, _apply(kernel.rows.T, weighted.conj()).conj())


def weighted_analysis_matrix(kernel):
    """sqrt(W) Omega: the analysis operator as an isometry into plain l2."""
    return np.sqrt(kernel.grid.weights)[:, None] * kernel.entries


def _weighted_rows(kernel):
    """sqrt(W) rows: sqrt(W) Omega without the column phase, real for every
    built-in kind.  Omega = rows P, so the two share singular values and left
    singular vectors, and the right ones of Omega are P^H times those of rows."""
    return np.sqrt(kernel.grid.weights)[:, None] * kernel.rows


def _unphase(kernel, block):
    """P^H block for a coefficient vector or block of columns: maps a
    coefficient-side result for the rows to the one for Omega = rows P."""
    return block if kernel.phase is None else _scale_rows(kernel.phase.conj(), block)


@dataclass(frozen=True)
class FrameOperatorMatrix:
    """S[m][n] = sum_j w_j conj(Omega[j][m]) Omega[j][n]; Hermitian PSD.

    Stored as ``gram``, the S of the kernel's rows (real whenever they are),
    and the kernel's column phase P if it has one: S = P^H gram P, which
    ``matrix`` forms when read (read-only, not cached).  Both have the same
    eigenvalues.
    """

    gram: np.ndarray
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
    return FrameOperatorMatrix(gram, phase=kernel.phase)


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
    """Triangular factors R of a weighted kernel sqrt(W) Omega, one thin QR per
    diagonal block of its frame operator.

    ``blocks`` holds (R, columns) pairs, ``columns`` the slice of coefficient
    indices the block's R stands for.  One block holds every column; a
    parity split (see _stage_rows) holds the even and the odd ones.  R D
    has the singular values of sqrt(W) Omega D for every column scaling D
    that keeps the blocks, diagonal D among them; the Gram route would square
    the condition number at the rank cutoff.

    ``weighted`` is one matrix, or with ``columns`` one matrix per block,
    ``weighted[i]`` holding the kernel's columns ``columns[i]``.
    """

    def __init__(self, weighted, columns=None):
        if columns is None:
            weighted, columns = (weighted,), (slice(None),)
        self.blocks = tuple((np.linalg.qr(a, mode="r"), c) for a, c in zip(weighted, columns))
        self.sigma_min, self.sigma_max = math.inf, 0.0
        for a, (r, _) in zip(weighted, self.blocks):
            svals = np.linalg.svd(r, compute_uv=False)
            self.sigma_max = max(self.sigma_max, float(svals[0]))
            # fewer rows than columns leave a null space whatever R's spectrum
            self.sigma_min = min(self.sigma_min, float(svals[-1]) if a.shape[0] >= a.shape[1] else 0.0)

    def bessel_constant(self, k):
        """Top singular value of the kernel damped by (1+n)^(-k/2): the
        largest over the blocks."""
        if k == 0:
            return self.sigma_max
        truncation = sum(r.shape[1] for r, _ in self.blocks)
        damping = (1.0 + np.arange(truncation)) ** (-k / 2.0)
        return max(
            float(np.linalg.svd(r * damping[columns][None, :], compute_uv=False)[0])
            for r, columns in self.blocks
        )


# The relative singular-value cutoff of every rank decision, and the default
# of ClassifyThresholds.rank, which classify applies to all of its own.
RANK_CUTOFF = 1e-6


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


def totality_test(kernel):
    """Total iff analysis is injective at the truncation: smallest singular
    value of the weighted kernel above RANK_CUTOFF * largest.

    When not total, the witness is the near-annihilated coefficient
    direction.
    """
    factor = StageFactorization(_weighted_rows(kernel))
    sigma_min, sigma_max = factor.sigma_min, factor.sigma_max
    if sigma_max == 0.0:
        return TotalityResult(False, 0.0, 0.0, TestFunction.basis(0, kernel.truncation))
    if _full_rank(sigma_min, sigma_max, RANK_CUTOFF):
        return TotalityResult(True, sigma_min, sigma_max)
    # right singular vectors of R are those of sqrt(W) rows; the full set
    # also spans the null space when there are fewer rows than columns.  The
    # rows annihilate v, so Omega = rows P annihilates conj(P) v.
    ((r, _),) = factor.blocks
    _, _, vh = np.linalg.svd(r)
    return TotalityResult(False, sigma_min, sigma_max, TestFunction(_unphase(kernel, vh[-1].conj())))


@dataclass(frozen=True)
class MuIndependenceResult:
    mu_independent: bool
    sigma_min: float
    sigma_max: float
    witness: np.ndarray = None

    def __bool__(self):
        return self.mu_independent


def coarse_synthesis_grid(truncation):
    """Grid with ~N/2 nodes covering only the Hermite bulk [-sqrt(2N+1), ...].

    Nodes past the turning point pair to numerically zero with every basis
    function, which would fake a synthesis kernel; restricting the test grid
    to the bulk removes that discretization artifact.
    """
    order = 4
    panels = max(1, truncation // (2 * order))
    return build_grid(bulk_half_width(truncation), panels, order)


def mu_independence_test(kernel, threshold=RANK_CUTOFF):
    """Mu-independent iff synthesis is injective on grid functions.

    Requires node count <= truncation: with more nodes than coefficients the
    discretized synthesis map always has a null space, which is an artifact
    of discretization rather than a property of the map.  The witness, when
    dependence is found, is a near-null grid function of unit L2(X) norm.
    The singular values come from _coarse_svd, the one coarse rank rule.
    """
    if threshold <= 0:
        raise InvalidConfigError(f"threshold must be positive, got {threshold}")
    svals, u = _coarse_svd(kernel, threshold)
    sigma_max = float(svals[0])
    sigma_min = float(svals[-1])
    if u is None:
        return MuIndependenceResult(True, sigma_min, sigma_max)
    scaled = u[:, -1] / np.sqrt(kernel.grid.weights)
    return MuIndependenceResult(False, sigma_min, sigma_max, scaled)


def _coarse_svd(kernel, threshold):
    """The coarse rank rule: (singular values, U) of the weighted rows of a
    kernel with node count <= truncation (InvalidConfigError otherwise).

    The values come from a values-only SVD; U, the thin left singular
    vectors, only when the rows are rank-deficient at ``threshold`` (None at
    full row rank).  The rows are factored without the column phase, which
    changes neither the singular values nor the left singular vectors.
    """
    _check_coarse(kernel.node_count, kernel.truncation)
    weighted = _weighted_rows(kernel)
    svals = np.linalg.svd(weighted, compute_uv=False)
    if _full_rank(svals[-1], svals[0], threshold):
        return svals, None
    return svals, np.linalg.svd(weighted, full_matrices=False)[0]


def _check_coarse(node_count, truncation):
    if node_count > truncation:
        raise InvalidConfigError(
            f"synthesis-side diagnostics need node count <= truncation, got "
            f"{node_count} nodes > {truncation}: with more nodes than coefficients "
            f"the discretized synthesis map always has a null space"
        )


def _coarse_kernel(map_spec, truncation, kernel=None):
    """The kernel every synthesis-side diagnostic reads: a built-in map
    sampled on coarse_synthesis_grid(truncation), or else ``kernel`` as it
    is.  Either must have node count <= truncation (InvalidConfigError)."""
    if map_spec is not None and map_spec.kind != "custom":
        kernel = sample_kernel(map_spec, coarse_synthesis_grid(truncation), truncation)
    _check_coarse(kernel.node_count, truncation)
    return kernel


def bessel_seminorm_constant(kernel, k):
    """Smallest C with l2x_norm(analysis(f)) <= C * p_k(f) at this truncation."""
    if k < 0:
        raise ValueError(f"seminorm index must be nonnegative, got {k}")
    return StageFactorization(_weighted_rows(kernel)).bessel_constant(k)


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
    rank: float = RANK_CUTOFF
    tight: float = 1e-6
    parseval: float = 1e-6
    bessel_k_max: int = 6

    def __post_init__(self):
        # at growth <= 1 a flat series would count as growing
        if not self.growth > 1.0:
            raise InvalidConfigError(f"thresholds.growth: must be > 1, got {self.growth!r}")


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
    single value has no trend: it is "undetermined".  A series that is 0
    throughout is bounded, but one that has fallen to exactly 0 from
    positive values has vanished rather than settled.
    """
    if len(values) < 2:
        return "undetermined"
    ratios = _consecutive_ratios(values)
    if all(r >= thresholds.growth for r in ratios):
        return "growing"
    prev, last = values[-2], values[-1]
    change = abs(last - prev) / prev if prev > 0 else (0.0 if not any(values) else math.inf)
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
        rows, columns = _stage_rows(map_spec, stage_grid(stage), stage.truncation)
        yield stage, StageFactorization(rows, columns)


# The parity classes of the Hermite functions, h_n(-x) = (-1)^n h_n(x).
_PARITY = (slice(0, None, 2), slice(1, None, 2))


def _stage_rows(map_spec, grid, truncation):
    """A built-in map's weighted real rows on ``grid`` (a build_grid grid, so
    mirror-symmetric bit for bit) as (weighted, columns) for
    StageFactorization: one matrix and None, or one matrix per parity block
    and _PARITY.

    When the row weight's magnitudes agree bit for bit at mirrored nodes
    (always for dirac, fourier and dirac_derivative), the row at -x is the
    row at x times +-(-1)^n, so S is block diagonal in the even and odd
    indices: S = 2 A+^T A+ on each class, A+ the weighted rows at x > 0,
    plus the row at x = 0 once.  Then only the nodes x >= 0 are sampled,
    weighted by sqrt(2 W) (sqrt(W) at 0), and each parity class is factored
    on its own: half the rows and a quarter of a single QR's flops.  Any
    other map, and N = 1, is factored in one block.
    """
    nodes, weights = grid.nodes, grid.weights
    weight = _row_weight(map_spec, nodes)
    mirrored = weight is None or np.array_equal(np.abs(weight), np.abs(weight[::-1]))
    if truncation == 1 or not mirrored:
        rows = _real_rows(map_spec, nodes, truncation, weight)
        rows *= np.sqrt(weights)[:, None]
        return rows, None
    start = nodes.size // 2
    scale = 2.0 * weights[start:]
    if nodes.size % 2:
        scale[0] = weights[start]
    rows = _real_rows(map_spec, nodes[start:], truncation, None if weight is None else weight[start:])
    rows *= np.sqrt(scale)[:, None]
    return tuple(rows[:, c] for c in _PARITY), _PARITY


# The largest sigma_max whose square, the upper frame bound, is a finite float.
_SIGMA_CEILING = math.sqrt(sys.float_info.max)


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
        if factor.sigma_max > _SIGMA_CEILING:
            raise NumericError(
                f"stage N={stage.truncation}: the upper frame bound sigma_max^2 = "
                f"({factor.sigma_max:.3e})^2 is past float64 range"
            )
        coarse = _coarse_kernel(map_spec, stage.truncation)
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
                mu_independent=mu_independence_test(coarse, thresholds.rank).mu_independent,
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
    stable_lower = lower_trend == "bounded" and final.total
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
