"""Analysis, synthesis, and frame operators, plus the ladder classifier.

All operators come from one sampled kernel.  With W = diag(quadrature
weights) and Omega the kernel matrix:

  analysis(f)     = Omega @ c_f                      (grid samples of <f, omega_x>)
  synthesis(xi)   = Omega^H @ (W xi)                 (distribution pairings)
  frame operator  S = Omega^H W Omega, so S = T T^x  holds at matrix level

Frame bounds at truncation N are the extreme eigenvalues of S, equivalently
the squared extreme singular values of the weighted kernel sqrt(W) Omega.
_ladder_stages is the one ladder walk.  It sums one Gram S per ladder, on the
grid _ladder_grid picks from the map and the final N alone, streamed from
the rows by _stage_operator.  For an exact map (dirac and fourier,
dirac_derivative, a weighted dirac whose weight is a polynomial of degree d)
that grid is the Gauss-Hermite rule of K = N + d nodes rounded up to even,
on which every entry of S is summed exactly; any other weighted dirac is
summed on the Gauss-Hermite rule whose K _searched_node_count finds a
posteriori, from S's last columns on two rules; a bump, and a weight past
the search's ceiling, on default_stage(N)'s composite grid, stage_grid.
Stage N is the Galerkin truncation P_N S P_N, the leading N x N block of that S, read
as a view (per parity class, the leading ceil(N/2) and floor(N/2) columns),
so the stage bounds interlace by construction (Cauchy; Horn & Johnson,
Matrix Analysis, 4.3).  Every stage diagnostic comes off its block: A and
B per diagonal block by eigvalsh, sigma = sqrt(lambda), and the p_k Bessel
constant sqrt(lambda_max(D_k S D_k)), formed after the walk up to the first
bounded k.  Each stage keeps its block, which the ladder checks read.  A
Gram squares the condition number, so A is resolved only down to
GRAM_RESOLUTION * B (Higham, Accuracy and Stability of Numerical
Algorithms, ch. 20).
One block loop, _summed_operator, sums every S from a row source: a held
kernel's rows (frame_operator) or a ladder's, sampled a block at a time
(_stage_operator).  The parity rule is kernels._pair_split.  Every ladder
grid is mirrored with an even node count, so _stage_operator always splits:
it samples every built-in map at the nodes x > 0 only, with 2 W, and S
has an even-odd cross block only where the map's rows do not mirror.
A held kernel whose rows mirror (KernelMatrix.signs) runs every
pass over its rows per class on the x > 0 half (_gram_rows): its S has two
parity blocks with exact zeros between them (FrameOperatorMatrix reads the
classes off it); analysis and synthesis take the even and odd parts of their
pass (_row_pass, _fold), mirrored only at the public boundary.  A held
kernel of any other weight, or one built from rows a caller hands over, is
one block, whatever spec it carries.
The synthesis side (mu-independence, moment solves, the Gel'fand isometry
defect) is read on the Gauss-Hermite grid coarse_synthesis_grid(N): K = N
nodes for even N and N - 1 for odd N (N = 1 is refused), on which the K x K
matrix Q = [sqrt(lambda_j) h_n(x_j)] is orthogonal.  So a built-in map's
coarse singular values have a closed form, _coarse_values, and classify, the
moment-solve report and dual_bessel_check's precondition sample no coarse
kernel and take no SVD for it.  _coarse_kernel (a built-in map sampled on
that grid, or a given kernel, with node count <= N either way) serves
gelfand_check's isometry defect, and _CoarseSVD is the rank rule of a
kernel a caller hands over: one values-only SVD of its weighted rows, in
one block whatever the kernel, and a vectors step forming their thin U,
which mu_independence_test and the moment probes of rf_diagnostic run only
for rank-deficient rows.
Continuum statements (bounded versus growing bounds, totality) are read off
trends along a refinement ladder; a single stage can never decide them.
Each trend reads its ratios per doubling of N, so stages closer than a
doubling certify no more than a doubling would.  classify is the walk
(_ladder_stages), the trends, the Bessel search and then _LABEL_RULES,
one row per label, which decides every label.

Every operator works on the kernel's rows in their own dtype.  Every
built-in kind has real rows; fourier's (-i)^n column phase P is kept apart
(see KernelMatrix), so Omega = rows P and S = P^H S_rows P.  P touches only
N-vectors, N x k blocks and N x N matrices (_unphase), and nothing
kernel-sized is promoted or copied to complex; a diagonal unitary changes
no eigenvalue, so frame_bounds reads a phased S off S_rows.  Only a complex
custom kernel has complex rows; its S_rows is read off the real Gram of
their stacked real and imaginary parts.
"""

from __future__ import annotations

import collections
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError, NumericError, WeightEvalError
from .hermite import DistributionSample, TestFunction
from .kernels import _column_phase, _fill_rows, _pair_split, _row_weight, sample_kernel
from .quadrature import bulk_half_width, default_stage, hermite_grid, stage_grid
from .weights import polynomial_degree

__all__ = [
    "FrameOperatorMatrix",
    "TotalityResult",
    "MuIndependenceResult",
    "ClassifyThresholds",
    "StageDiagnostics",
    "FrameReport",
    "LABEL_ORDER",
    "RANK_CUTOFF",
    "GRAM_RESOLUTION",
    "analysis",
    "synthesis",
    "weighted_analysis_matrix",
    "frame_operator",
    "frame_bounds",
    "totality_test",
    "coarse_synthesis_grid",
    "mu_independence_test",
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
    columns, on the full grid: the phase P touches only the block.  A split
    kernel's pass runs per parity class on the x > 0 rows (_row_pass) and is
    mirrored onto the nodes x < 0 here."""
    if kernel.phase is not None:
        block = _scale_rows(kernel.phase, block)
    parts = _row_pass(kernel, block)
    return parts[0] if kernel.signs is None else _unfold(kernel.signs, *parts)


def _synthesize(kernel, xi):
    """Omega^H (W xi) = P^H conj(rows^T conj(W xi)) for a grid function or a
    block of them (one column each): no conjugate copy of the kernel.  A
    split kernel folds xi onto its x > 0 rows first: with xi' = s xi(-x),
    the even class meets W (xi + xi') and the odd class W (xi - xi')."""
    weights, signs = kernel.grid.weights, kernel.signs
    if signs is None:
        parts = [_scale_rows(weights, xi)]
    else:
        start = xi.shape[0] - signs.size
        positive, mirrored = xi[start:], _scale_rows(signs, xi[:start][::-1])
        parts = [_scale_rows(weights[start:], part) for part in (positive + mirrored, positive - mirrored)]
    parts = [np.conjugate(part, out=part) for part in parts]
    return _unphase(kernel, _fold(kernel, parts).conj())


def _row_pass(kernel, block):
    """rows[:, c] @ block[c] for each column class c of _gram_rows: for a
    split kernel the even and the odd parts of the pass at the nodes x > 0
    (half the rows, half the columns each), else the one product rows @
    block.  Every analysis pass over a kernel's rows is this one."""
    rows, _, columns = _gram_rows(kernel)
    return [_apply(rows[:, c], block[c]) for c in columns]


def _unfold(signs, even, odd):
    """The full-grid values of a pass from its even and odd parts at x > 0:
    even + odd there, s (even - odd) at the mirrored node -x."""
    start = even.shape[0]
    out = np.empty((2 * start,) + even.shape[1:], np.result_type(even, odd))
    np.add(even, odd, out=out[start:])
    negative = np.subtract(even, odd, out=out[:start][::-1])
    negative *= signs if negative.ndim == 1 else signs[:, None]
    return out


def _fold(kernel, parts):
    """rows[:, c]^T @ parts[i] for each column class c of _gram_rows,
    assembled on the coefficient side: the synthesis pass over a kernel's
    rows, one product rows^T @ part for an unsplit kernel.  Each part is a
    grid function (or block) on that class's rows, already weighted."""
    rows, _, columns = _gram_rows(kernel)
    outs = [_apply(rows[:, c].T, part) for c, part in zip(columns, parts)]
    if len(outs) == 1:
        return outs[0]
    out = np.empty((kernel.truncation,) + outs[0].shape[1:], np.result_type(*outs))
    for c, part in zip(columns, outs):
        out[c] = part
    return out


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


# The parity classes of the Hermite functions, h_n(-x) = (-1)^n h_n(x).
_PARITY = (slice(0, None, 2), slice(1, None, 2))


@dataclass(frozen=True)
class FrameOperatorMatrix:
    """S[m][n] = sum_j w_j conj(Omega[j][m]) Omega[j][n]; Hermitian PSD.

    Stored as ``gram``, the S of the kernel's rows (real whenever they are),
    and the kernel's column phase P if it has one: S = P^H gram P, which
    ``matrix`` forms when read (read-only, not cached).  Both have the same
    eigenvalues.  ``columns`` holds the column classes of gram's diagonal
    blocks, read off gram itself: _PARITY when every entry coupling an even
    and an odd index is exactly 0 (_summed_operator summed the parity
    classes apart and added no cross block), else one class of all the
    columns.  Every reader of S works per block.  An S this package formed
    comes from _exact_operator, exactly Hermitian by construction, and
    frame_bounds takes it without a scan; one a caller wraps is scanned.
    """

    gram: np.ndarray
    phase: np.ndarray = field(default=None, kw_only=True)
    columns: tuple = field(init=False, repr=False, compare=False)
    _exact: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self):
        # a read-only array of the right dtype is adopted as it is
        # (frame_operator and canonical_dual hand over arrays they just made);
        # anything a caller can still write to is copied
        arr = np.asarray(self.gram)
        dtype = complex if np.iscomplexobj(arr) else float
        if arr.flags.writeable or arr.dtype != dtype:
            arr = np.array(arr, dtype=dtype)
            arr.setflags(write=False)
        object.__setattr__(self, "gram", arr)
        split = arr.shape[0] > 1 and not arr[_PARITY[0], _PARITY[1]].any()
        object.__setattr__(self, "columns", _PARITY if split else (slice(None),))

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


def _exact_operator(gram, phase=None):
    """FrameOperatorMatrix of an S formed exactly Hermitian: a sum of class
    Grams a^T a (numpy's syrk) with cross blocks set from their exact
    transposes, _from_stacked of such a Gram, or a leading block of either.
    frame_bounds reads its spectrum with no Hermitian scan."""
    op = FrameOperatorMatrix(gram, phase=phase)
    object.__setattr__(op, "_exact", True)
    return op


# The two row sources of _summed_operator keep their own measured block
# rules.  frame_operator sums rows it already holds in blocks of at most
# _ROW_BYTES of weighted rows, the top of the 2-4 MB of working memory
# measured at N = 512 (against 16 MB for one 4096-row block): a held
# Gauss-Hermite kernel up to N = 512 is one block, and a 3840-row composite
# one at N = 256 two.
_ROW_BYTES = 4 * 2**20
# _stage_operator samples rows held nowhere else at most this many nodes at a
# time (a split stage up to N = 512 is one block).  ceil(m/8) nodes per block
# cut classify-ladder's peak RSS from 57.3 to 45.6 MB but its requests per
# second from 24.1 to 16.8 (medians of 3 runs): eight calls per small stage.
_NODE_BLOCK = 4096


def _summed_operator(fill, count, step, order, n, columns, *, stacked=False, q=None, phase, where, rows_any):
    """_exact_operator of the Gram A^T A of ``count`` real weighted rows A
    (S = 0 for none), summed ``step`` rows at a time: ``fill(block, part)``
    writes the rows ``part`` (a slice) into ``block``, the leading rows of one reused buffer
    in memory ``order``, N = ``n`` columns wide, or 2N for ``stacked`` rows,
    [Re A, Im A] of complex rows, whose real Gram is read as S_rows.  Each
    column class c of ``columns`` adds the Gram of a = block[:, c] through
    one product: a class of a Fortran-ordered block is a strided view BLAS
    takes without a copy, and a^T a is a symmetric rank-k update, so each
    sum is exactly symmetric.  With ``q`` (one factor per row), the block's
    odd columns are then scaled by q in place and one product adds the
    even-odd cross block, set with its exact transpose in S.  The class
    Grams stay apart until the buffer is freed; then S is assembled.  An S
    past float64 range, or one whose largest |entry| (on the diagonal, S
    being PSD) is below the normal range, subnormal or 0, so that A keeps
    only a few digits or none, while the rows summed are not all zero
    (``rows_any()``), is a NumericError naming ``where``."""
    width = 2 * n if stacked else n
    buffer = np.empty((min(step, count), width), order=order)
    grams = [np.zeros((len(range(width)[c]),) * 2) for c in columns]
    products = [np.empty_like(gram) for gram in grams]
    cross = None if q is None else np.zeros(((n + 1) // 2, n // 2))
    cross_product = None if q is None else np.empty_like(cross)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, count, step):
            block, part = buffer[: min(step, count - lo)], slice(lo, lo + step)
            fill(block, part)
            for c, gram, product in zip(columns, grams, products):
                gram += np.matmul(block[:, c].T, block[:, c], out=product)
            if q is not None:
                np.multiply(block[:, 1::2], q[part, None], out=block[:, 1::2])
                cross += np.matmul(block[:, 0::2].T, block[:, 1::2], out=cross_product)
        # any view of the buffer left alive keeps it
        buffer = block = products = cross_product = None
        gram = _from_stacked(grams[0]) if stacked else _block_diagonal(grams, columns)
    if cross is not None:
        gram[_PARITY[0], _PARITY[1]] = cross
        gram[_PARITY[1], _PARITY[0]] = cross.T
    if not np.isfinite(gram).all():
        raise NumericError(f"{where}: the frame operator is past float64 range")
    if gram.diagonal().real.max() < np.finfo(float).tiny and rows_any():
        raise NumericError(f"{where}: the frame operator is below float64's normal range")
    gram.setflags(write=False)
    return _exact_operator(gram, phase)


def frame_operator(kernel):
    """S = P^H S_rows P, with S_rows the Gram A^H A of the weighted rows
    A = sqrt(W) rows and P the kernel's column phase (kept apart: S.matrix
    forms P^H S_rows P when read).  The row source of _summed_operator over
    rows it holds: A is written in the rows' own memory order, per parity
    class from the x > 0 rows with 2 W for a split kernel, and for complex
    rows as [Re A, Im A], as many rows at a time as fit in _ROW_BYTES.  An S
    out of float64 range is a NumericError naming N."""
    rows, scale, columns = _gram_rows(kernel)
    (m, n), stacked = rows.shape, np.iscomplexobj(rows)
    sqrt_w = np.sqrt(scale)[:, None]
    step = max(1, _ROW_BYTES // ((2 * n if stacked else n) * 8))

    def fill(block, part):
        for j, values in enumerate((rows[part].real, rows[part].imag) if stacked else (rows[part],)):
            np.multiply(sqrt_w[part], values, out=block[:, j * n : (j + 1) * n])

    order = "F" if kernel.rows.flags.f_contiguous else "C"
    return _summed_operator(
        fill, m, step, order, n, columns,
        stacked=stacked, phase=kernel.phase, where=f"N={n}", rows_any=rows.any,
    )


def _stage_operator(map_spec, grid, truncation):
    """frame_operator of sample_kernel's kernel on a ladder's grid, to rounding,
    without holding the rows: the row source of _summed_operator that
    samples them _NODE_BLOCK nodes at a time into its Fortran-ordered
    buffer, weighted in place, the negligible floor carrying its peak from
    block to block.  Every ladder grid is mirrored with an even node count
    (_ladder_grid), and the walk refuses N = 1 before it sums S, so
    kernels._pair_split always splits: every built-in map is sampled at the
    nodes x > 0 only, with 2 W and its rho, whatever its weight, and its q
    (if any) adds the even-odd cross block.  A pair with w(x) = w(-x) = 0
    (rho = 0) adds exactly nothing to S, so only the nodes with rho != 0 are
    sampled: most of a bump's grid, and every node of the weight 0, whose S
    is 0.  An S out of float64 range is a NumericError naming the ladder's
    final stage."""
    n, start = truncation, grid.node_count // 2
    weight, q, _ = _pair_split(map_spec, grid, n, _row_weight(map_spec, grid.nodes))
    nodes, sqrt_w = grid.nodes[start:], np.sqrt(2.0 * grid.weights[start:])
    if weight is not None:
        keep = np.flatnonzero(weight)
        nodes, sqrt_w, weight = nodes[keep], sqrt_w[keep], weight[keep]
        q = None if q is None else q[keep]
    peak = 0.0

    def fill(block, part):
        nonlocal peak
        peak = _fill_rows(map_spec, nodes[part], None if weight is None else weight[part], block, peak)
        block *= sqrt_w[part, None]

    return _summed_operator(
        fill, nodes.size, _NODE_BLOCK, "F", n, _PARITY,
        q=q, phase=_column_phase(map_spec, n), where=f"stage N={n}", rows_any=lambda: peak > 0,
    )


def _gram_rows(kernel):
    """(rows, quadrature scale, column classes) that every pass over a
    kernel's rows runs on: for a kernel sample_kernel split (its ``signs``;
    see kernels._pair_split), the x > 0 half of its rows, 2 W on it and
    _PARITY; for any other kernel all of its rows, W and one class.  With
    s^2 = 1 a sum over the grid of a product of two passes is 2 W times the
    sum of the products of their even parts and of their odd parts at x > 0."""
    rows, weights, signs = kernel.rows, kernel.grid.weights, kernel.signs
    if signs is None:
        return rows, weights, (slice(None),)
    start = rows.shape[0] - signs.size
    return rows[start:], 2.0 * weights[start:], _PARITY


def _block_diagonal(blocks, columns):
    """The N x N matrix holding ``blocks[i]`` on the rows and columns
    ``columns[i]`` and exact zeros elsewhere; a single block as it is."""
    if len(blocks) == 1:
        return blocks[0]
    n = sum(block.shape[0] for block in blocks)
    out = np.zeros((n, n), dtype=np.result_type(*blocks))
    for c, block in zip(columns, blocks):
        out[c, c] = block
    return out


def _hermitian_gram(matrix):
    """G^H G of a matrix, exactly Hermitian: the real Gram of G itself, or
    for a complex G read off the real Gram of the stacked [Re G, Im G]."""
    if not np.iscomplexobj(matrix):
        return matrix.T @ matrix
    stacked = np.concatenate([matrix.real, matrix.imag], axis=1)
    return _from_stacked(stacked.T @ stacked)


def _from_stacked(gram):
    """G^H G from the real Gram of [Re G, Im G], exactly Hermitian."""
    n = gram.shape[0] // 2
    return gram[:n, :n] + gram[n:, n:] + 1j * (gram[:n, n:] - gram[n:, :n])


def frame_bounds(op):
    """(lower, upper) = extreme eigenvalues of the frame operator, from a
    values-only eigendecomposition; a FrameOperatorMatrix gives them from its
    unphased ``gram``, since a diagonal unitary changes no eigenvalue, one
    diagonal block at a time (its ``columns``).  A caller's matrix, raw or
    wrapped, that is visibly non-Hermitian is rejected rather than silently
    symmetrized; an S this package formed (_exact_operator) is Hermitian by
    construction and is not scanned.  Failure to converge surfaces as
    NumericError.

    Inner approximations: the lower bound is nonincreasing and the upper
    nondecreasing as the truncation grows over a fixed map.
    """
    if isinstance(op, FrameOperatorMatrix):
        matrix, columns, exact = op.gram, op.columns, op._exact
    else:
        matrix, columns, exact = np.asarray(op), (slice(None),), False
    if not exact:
        scale, deviation = _max_abs(matrix), _max_abs(matrix - matrix.conj().T)
        if scale > 0 and deviation > 1e-12 * scale:
            raise NumericError(
                f"matrix is not Hermitian: deviation {deviation:.3e} against scale {scale:.3e}"
            )
    try:
        values = [np.linalg.eigvalsh(matrix[c, c]) for c in columns]
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigendecomposition failed: {exc}") from exc
    return float(min(v[0] for v in values)), float(max(v[-1] for v in values))


def _max_abs(matrix):
    """max |matrix|; for a real matrix read off its extremes, with no copy."""
    if np.iscomplexobj(matrix):
        return np.abs(matrix).max()
    return max(matrix.max(), -matrix.min())


# The relative singular-value cutoff of every rank decision, and the default
# of ClassifyThresholds.rank, which classify applies to all of its own.
RANK_CUTOFF = 1e-6
# A within this fraction of B reads as 0: a rank-deficient stage's Gram puts
# it anywhere in +-2.6 eps B (measured, N <= 2048), 70x under RANK_CUTOFF**2.
GRAM_RESOLUTION = 64 * np.finfo(float).eps


def _resolved_bounds(op):
    """frame_bounds of ``op``, A read as 0 within GRAM_RESOLUTION * B."""
    lower, upper = frame_bounds(op)
    return (lower if lower > GRAM_RESOLUTION * upper else 0.0), upper


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
    value of the weighted kernel, sqrt(lambda) off the frame operator
    (_resolved_bounds; 0 with fewer rows than columns), above RANK_CUTOFF *
    largest.  When not total, the witness is the near-annihilated
    coefficient direction: the eigenvector of S's smallest eigenvalue (e_0
    for a zero kernel).
    """
    op = frame_operator(kernel)
    lower, upper = _resolved_bounds(op)
    short = kernel.node_count < kernel.truncation
    sigma_min, sigma_max = 0.0 if short else math.sqrt(lower), math.sqrt(upper)
    if _full_rank(sigma_min, sigma_max, RANK_CUTOFF):
        return TotalityResult(True, sigma_min, sigma_max)
    # the rows annihilate v, so Omega = rows P annihilates conj(P) v
    return TotalityResult(False, sigma_min, sigma_max, TestFunction(_unphase(kernel, _null_direction(op))))


def _null_direction(op):
    """The unit eigenvector of op.gram for its smallest eigenvalue, from an
    eigh of each diagonal block (its ``columns``), on all N coefficients."""
    pairs = [np.linalg.eigh(op.gram[c, c]) for c in op.columns]
    i = min(range(len(pairs)), key=lambda i: pairs[i][0][0])
    out = np.zeros(op.truncation, dtype=op.gram.dtype)
    out[op.columns[i]] = pairs[i][1][:, 0]
    return out


@dataclass(frozen=True)
class MuIndependenceResult:
    mu_independent: bool
    sigma_min: float
    sigma_max: float
    witness: np.ndarray = None

    def __bool__(self):
        return self.mu_independent


def coarse_synthesis_grid(truncation):
    """The synthesis-side grid at truncation N: quadrature.hermite_grid(K)
    with K = 2 floor(N/2) nodes, never more nodes than coefficients.  On
    K = N nodes sqrt(W) H_N is orthogonal, so every built-in map's coarse
    kernel has its singular values in closed form (_coarse_values): dirac's
    is an isometry.  An odd K would put a node at 0, where dirac_derivative's
    rows read a null direction of the grid, not of the map: so an odd N
    takes the N - 1 zeros of h_(N-1), at which the column h_(N-1) vanishes,
    and N = 1, whose one node would be 0, is an InvalidConfigError."""
    if truncation < 2:
        raise InvalidConfigError(
            f"synthesis-side diagnostics need N >= 2, got N={truncation}: "
            f"a single coarse node sits at x = 0, a null direction of dirac_derivative's grid"
        )
    return hermite_grid(truncation - truncation % 2)


def mu_independence_test(kernel, threshold=RANK_CUTOFF):
    """Mu-independent iff synthesis is injective on grid functions.

    Requires node count <= truncation: with more nodes than coefficients the
    discretized synthesis map always has a null space, which is an artifact
    of discretization rather than a property of the map.  The witness, when
    dependence is found, is a near-null grid function of unit L2(X) norm.
    The singular values come from _CoarseSVD, the one coarse rank rule, and
    its vectors step runs only for dependent rows.
    """
    rule = _CoarseSVD(kernel, threshold)
    sigma_max = float(rule.svals[0])
    sigma_min = float(rule.svals[-1])
    if rule.full_rank:
        return MuIndependenceResult(True, sigma_min, sigma_max)
    scaled = rule.left_vectors()[:, -1] / np.sqrt(kernel.grid.weights)
    return MuIndependenceResult(False, sigma_min, sigma_max, scaled)


class _CoarseSVD:
    """The coarse rank rule on the weighted rows sqrt(W) rows of a kernel with
    node count <= truncation (InvalidConfigError otherwise, or for a
    threshold <= 0), one block whatever the kernel.

    The values step runs on construction: ``svals``, the singular values in
    descending order from one values-only SVD, and ``full_rank``, full row
    rank at ``threshold``.  The vectors step, left_vectors, forms U only when
    a caller asks, which mu_independence_test and rf_diagnostic do only for
    rank-deficient rows.  The rows are factored without the column phase,
    which changes neither the singular values nor the left singular vectors.
    """

    def __init__(self, kernel, threshold):
        _check_threshold(threshold)
        if kernel.node_count > kernel.truncation:
            raise InvalidConfigError(
                f"synthesis-side diagnostics need node count <= truncation, got "
                f"{kernel.node_count} nodes > {kernel.truncation}: with more nodes than "
                f"coefficients the discretized synthesis map always has a null space"
            )
        self.weighted = _weighted_rows(kernel)
        self.svals = np.linalg.svd(self.weighted, compute_uv=False)
        self.full_rank = _full_rank(self.svals[-1], self.svals[0], threshold)

    def left_vectors(self):
        """U, the thin left singular vectors of the weighted rows, orthonormal,
        one column per entry of ``svals`` in its order."""
        return np.linalg.svd(self.weighted, full_matrices=False)[0]


def _check_threshold(threshold):
    if threshold <= 0:
        raise InvalidConfigError(f"threshold must be positive, got {threshold}")


def _builtin(map_spec):
    return map_spec is not None and map_spec.kind != "custom"


def _coarse_kernel(map_spec, truncation, kernel=None):
    """The kernel every synthesis-side diagnostic reads: a built-in map
    sampled on coarse_synthesis_grid(truncation), or else ``kernel`` as it
    is.  _CoarseSVD refuses either with node count > truncation."""
    if _builtin(map_spec):
        return sample_kernel(map_spec, coarse_synthesis_grid(truncation), truncation)
    return kernel


def _coarse_values(map_spec, truncation):
    """The singular values of a built-in map's weighted coarse kernel,
    sqrt(W) Omega on coarse_synthesis_grid(N), in closed form: no kernel is
    sampled and no SVD is taken, save two small ones for dirac_derivative at
    odd N.  One value per node; for every kind but dirac_derivative the j-th
    is node j's, with the left singular vector e_j.

    With K nodes x_j (the zeros of h_K) and Q = [sqrt(lambda_j) h_n(x_j)]
    (n < K) orthogonal, and h_K(x_j) = 0, the weighted dirac rows are Q,
    padded at odd N by the column h_(N-1) = h_K, which is 0 at the nodes:
      dirac, fourier          all 1 (fourier's column phase is unitary);
      weighted_dirac, bump    |w(x_j)|, the rows being diag(w(x_j)) Q;
      dirac_derivative        |x_j| at even N.  The rows -h_n'(x_j)
                              = sqrt((n+1)/2) h_(n+1) - sqrt(n/2) h_(n-1)
                              are Q D_N, the h_N term vanishing at the
                              nodes, with D_N skew-symmetric tridiagonal;
                              diag(i^n) takes D_N to -i J_N, J_N the Jacobi
                              matrix of the Hermite recurrence, whose
                              eigenvalues are the x_j.
    At odd N dirac_derivative's rows are Q M with M = [D_K | c] (K x N,
    K = N - 1): at the zeros of h_(N-1) the recurrence gives h_N = -sqrt((N
    - 1)/N) h_(N-2), so the last column c is -sqrt(2K) e_(K-1).  Its values
    come from values-only SVDs of M's two parity blocks, since each column
    couples only to rows of the other parity."""
    grid = coarse_synthesis_grid(truncation)
    if map_spec.kind == "dirac_derivative":
        if grid.node_count == truncation:
            return np.abs(grid.nodes)
        k = grid.node_count
        coupling = np.sqrt(np.arange(1, k) / 2.0)
        m = np.zeros((k, truncation))
        m[np.arange(1, k), np.arange(k - 1)] = coupling
        m[np.arange(k - 1), np.arange(1, k)] = -coupling
        m[k - 1, k] = -math.sqrt(2.0 * k)
        blocks = zip(_PARITY, _PARITY[::-1])
        return np.concatenate([np.linalg.svd(m[rows, columns], compute_uv=False) for rows, columns in blocks])
    weight = _row_weight(map_spec, grid.nodes)
    return np.ones(grid.node_count) if weight is None else np.abs(weight)


# Why a built-in map's ladder sets no grid: _ladder_grid's refusal, and
# reporting's of L, panels and order on such a map's config stages.
BUILTIN_GRID = "a built-in map's grid is chosen from the map and N"


def _ladder_grid(map_spec, stage):
    """The grid a ladder whose final stage is ``stage`` is summed on: the
    Gauss-Hermite rule hermite_grid(K) where _hermite_node_count gives a K,
    else stage_grid(stage).  Only a custom map's stage may set its own grid:
    a built-in map's is a function of the map and N, so a final stage other
    than default_stage(N) is an InvalidConfigError, the one refusal point of
    every ladder request on a built-in map."""
    if _builtin(map_spec) and stage != default_stage(stage.truncation):
        raise InvalidConfigError(f"ladder.final_stage: {BUILTIN_GRID}, not {stage}")
    count = _hermite_node_count(map_spec, stage.truncation)
    return stage_grid(stage) if count is None else hermite_grid(count)


def _hermite_node_count(map_spec, truncation):
    """The K of the Gauss-Hermite rule a ladder of final N = ``truncation``
    is summed on, or None for the composite grid: _exact_node_count's K for
    an exact map, _searched_node_count's for any other weight, None for a
    bump or a custom kernel.  The report's ``grid`` reads it."""
    count = _exact_node_count(map_spec, truncation)
    if count is None and map_spec.kind == "weighted_dirac" and truncation > 1:
        count = _searched_node_count(map_spec, truncation)
    return count


# d for the exact kinds without a row weight: their column n is a polynomial
# of degree n + d times e^(-x^2/2), d the derivative order.
_EXACT_KINDS = {"dirac": 0, "fourier": 0, "dirac_derivative": 1}


def _exact_node_count(map_spec, truncation):
    """K = N + d rounded up to even for an exact map at N = ``truncation``;
    else None.

    An exact map's column n at x is a polynomial of degree <= n + d times
    e^(-x^2/2): h_n for dirac and fourier (d = 0), -h_n' for
    dirac_derivative (d = 1), and w h_n for a weight w of degree <= d
    (weights.polynomial_degree).  So each entry of S, a sum over the nodes of
    lambda_j times the product of two columns, sums a polynomial of degree
    <= 2(N - 1 + d) times e^(-x^2): the K-node Gauss-Hermite rule
    sums it exactly once K >= N + d (Golub & Welsch, Math. Comp. 23, 1969),
    the size of acceptance._exact_frame_operator's oracle.  An even K puts
    no node at 0, so kernels._pair_split applies.  A weight that is no
    polynomial (2+sin(x), exp(-x^2)) is not exact, and _searched_node_count
    finds its K; a bump and a custom kernel are not exact either."""
    degree = _EXACT_KINDS.get(map_spec.kind)
    if map_spec.kind == "weighted_dirac":
        degree = polynomial_degree(map_spec.weight)
    if degree is None:
        return None
    return _even(truncation + degree)


def _even(count):
    return count + count % 2


# The Gauss-Hermite search of _searched_node_count.  It starts at K = N + 64,
# which resolves 2+sin(x) at N = 256 and 512.  Each step grows K
# by 1.25, so the rule a step checks against is the next step's candidate
# and each step builds one new rule.  K stops at 4N + 64 (+64 so that small N
# get a search): 1/(1+x^2) at N = 64 still reads 1.4e-10 B at K = 4N, and a
# rule of 4N nodes costs a quarter of the composite grid's S at N >= 512.
_SEARCH_START = 64
_SEARCH_GROWTH = 1.25
_SEARCH_CEILING = 4
# The columns of S compared between two rules: the error of a Gauss-Hermite
# S peaks in its last four columns (16 cases, N = 256 and 512), where the
# difference between K and 1.25K nodes equals the true error.
_TAIL_COLUMNS = 4


@functools.lru_cache(maxsize=64)
def _searched_node_count(map_spec, truncation):
    """The K of the first Gauss-Hermite rule, from N + _SEARCH_START up by
    _SEARCH_GROWTH, on which S's last _TAIL_COLUMNS columns agree with the
    next rule's within GRAM_RESOLUTION B; None once K passes _SEARCH_CEILING
    N + _SEARCH_START, or where a rule's nodes take the weight or the tail
    out of float64 range, so that the composite grid decides (and reports
    any such error as it always has).  B is read as the largest w(x_j)^2
    at the nodes inside the turning point sqrt(2N + 1): S = Q^T diag(w^2) Q
    with Q's N columns orthonormal, so B <= max w^2, and the top of the
    spectrum fills out to the sup of w^2 over the bulk as N grows.  Cached
    per map and N: the report's ``grid`` and the stage both ask.

    Every grammar weight is analytic wherever it is finite (weights.
    polynomial_degree's grammar), and Gauss quadrature converges fast on
    analytic integrands (Trefethen, "Is Gauss quadrature better than
    Clenshaw-Curtis?", SIAM Rev. 50, 2008)."""
    ceiling = _SEARCH_CEILING * truncation + _SEARCH_START
    count = _even(truncation + _SEARCH_START)
    try:
        tail, bound = _tail_columns(map_spec, count, truncation)
        while count <= ceiling and math.isfinite(bound):
            check = _even(math.ceil(_SEARCH_GROWTH * count))
            check_tail, check_bound = _tail_columns(map_spec, check, truncation)
            if math.isfinite(check_bound) and np.abs(tail - check_tail).max() <= GRAM_RESOLUTION * bound:
                return count
            count, tail, bound = check, check_tail, check_bound
    except WeightEvalError:
        pass
    return None


def _tail_columns(map_spec, count, truncation):
    """(S[:, N - _TAIL_COLUMNS:] of a weighted dirac summed on hermite_grid(
    ``count``), B's reading of _searched_node_count), summed as
    _stage_operator sums S: the rows sqrt(2 W) rho h_n at the nodes x > 0,
    _NODE_BLOCK at a time, with q scaling the entries that couple an even
    and an odd index.  A tail or a B past float64 range reads B = inf."""
    grid, n = hermite_grid(count), truncation
    start, tail_width = count // 2, min(_TAIL_COLUMNS, n)
    weight = _row_weight(map_spec, grid.nodes)
    rho, q, _ = _pair_split(map_spec, grid, n, weight)
    nodes, sqrt_w = grid.nodes[start:], np.sqrt(2.0 * grid.weights[start:])
    mixed = (np.arange(n)[:, None] + np.arange(n - tail_width, n)) % 2 == 1
    tail = np.zeros((n, tail_width))
    block = np.empty((min(_NODE_BLOCK, start), n), order="F")
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, start, _NODE_BLOCK):
            part = slice(lo, lo + _NODE_BLOCK)
            rows = block[: len(nodes[part])]
            _fill_rows(map_spec, nodes[part], rho[part], rows)
            rows *= sqrt_w[part, None]
            last = rows[:, n - tail_width :]
            same = rows.T @ last
            same[mixed] = 0.0 if q is None else (rows.T @ (q[part, None] * last))[mixed]
            tail += same
        bulk = np.abs(grid.nodes) <= bulk_half_width(n)
        bound = float(np.square(weight[bulk]).max(initial=0.0))
    return tail, (bound if np.isfinite(tail).all() else math.inf)


def _coarse_full_rank(map_spec, truncation, threshold, kernel=None):
    """Full row rank at ``threshold`` of _coarse_kernel's kernel: read off
    _coarse_values for a built-in map, else off _CoarseSVD of ``kernel``."""
    if not _builtin(map_spec):
        return _CoarseSVD(kernel, threshold).full_rank
    _check_threshold(threshold)
    values = _coarse_values(map_spec, truncation)
    return _full_rank(values.min(), values.max(), threshold)


@dataclass(frozen=True)
class ClassifyThresholds:
    """Classifier knobs; the defaults match the reporting conventions.

    stability: the largest |r - 1| of a series' last ratio r per doubling of
    N (_consecutive_ratios) at which it counts as bounded.  growth: the
    ratio per doubling that every step must reach for it to count as
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
    """One ladder stage's numbers, read off its S, ``operator``: the leading
    N x N block of the final stage's S, as a read-only view.  The stage
    table, ``==`` and ``repr`` ignore it."""

    truncation: int
    lower: float
    upper: float
    sigma_min: float
    sigma_max: float
    total: bool
    mu_independent: bool
    operator: FrameOperatorMatrix = field(repr=False, compare=False)


@dataclass(frozen=True)
class FrameReport:
    """Per-stage spectra, ladder trends, and the final taxonomy labels.

    ``lower_ratios`` and ``upper_ratios`` hold one ratio per ladder step of
    A and of B, read per doubling of N: (X' / X) ** (1 / log2(N' / N)) from
    stage N to N', the plain ratio on a doubling ladder; the trends are
    read off them.  ``labels`` are those rows of _LABEL_RULES that hold, in
    LABEL_ORDER.  ``bessel_constants`` holds the per-stage series of each
    seminorm index examined: k = 0..bessel_index, or 0..bessel_k_max when
    none is bounded.
    A stage's A (``lower``) and sigma_min read exactly 0 below the Gram's
    resolution, GRAM_RESOLUTION (64 eps) times its B.  The stages hold views
    of one S, the final stage's, and no copy: n_max^2 * 8 bytes, 32 MiB at
    n_max = 2048.
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


def _series_trend(values, truncations, thresholds, vanish_floor):
    """Classify a positive series observed along the ladder at the stages
    ``truncations``, from its ratios per doubling of N (_consecutive_ratios).

    "growing" needs every ratio at or above the growth factor; "bounded"
    needs the last one within the stability tolerance of 1; "vanishing" is
    a decreasing series that has dropped below the floor; anything else is
    still "drifting" at this ladder depth.  A single value has no trend: it
    is "undetermined".  A series that is 0 throughout is bounded, but one
    that has fallen to exactly 0 from positive values has vanished rather
    than settled.
    """
    if len(values) < 2:
        return "undetermined"
    ratios = _consecutive_ratios(values, truncations)
    if all(r >= thresholds.growth for r in ratios):
        return "growing"
    change = abs(ratios[-1] - 1.0) if values[-2] > 0 else (0.0 if not any(values) else math.inf)
    if change <= thresholds.stability:
        return "bounded"
    if all(r <= 1.0 for r in ratios) and values[-1] <= vanish_floor:
        return "vanishing"
    return "drifting"


def _consecutive_ratios(values, truncations):
    """Each step's ratio per doubling of N, (X' / X) ** (1 / log2(N' / N))
    from stage N to N': the ratio itself on a doubling ladder.  A step from
    0 reads 1 to 0 and inf to anything else.  The stages are leading blocks
    of one S, so A never rises and B never falls, and the exponent cannot
    move a ratio across 1."""
    return tuple(
        ((1.0 if curr == 0.0 else math.inf) if prev == 0.0 else curr / prev) ** (1.0 / math.log2(m / n))
        for prev, curr, n, m in zip(values, values[1:], truncations, truncations[1:])
    )


def _bessel_constant(op, k):
    """Top singular value of the weighted kernel damped by D_k =
    diag((1+n)^(-k/2)): sqrt(lambda_max(D_k S D_k)) over the diagonal blocks
    of the frame operator ``op`` (a column phase commutes with D_k)."""
    damping = (1.0 + np.arange(op.truncation)) ** (-k / 2.0)
    top = max(np.linalg.eigvalsh(damping[c, None] * op.gram[c, c] * damping[c])[-1] for c in op.columns)
    return math.sqrt(max(float(top), 0.0))


def _bessel_search(grams, tops, thresholds):
    """First k <= bessel_k_max whose Bessel series over the stages' frame
    operators ``grams`` (sigma_max per stage, ``tops``, for k = 0) is
    bounded, read per doubling of each operator's N: (k, its last constant,
    {k: series examined}), or (None, None, every series); the series for k
    is formed only when no smaller k was."""
    truncations = [op.truncation for op in grams]
    series = {}
    for k in range(thresholds.bessel_k_max + 1):
        series[k] = tuple(tops) if k == 0 else tuple(_bessel_constant(op, k) for op in grams)
        if _series_trend(series[k], truncations, thresholds, 0.0) == "bounded":
            return k, series[k][-1], series
    return None, None, series


def _ladder_stages(map_spec, ladder, rank):
    """The ladder walk: one StageDiagnostics per stage, read off the leading
    N x N block of one _stage_operator S summed on the final stage's
    _ladder_grid, with totality and the coarse mu-independence decided at
    the relative singular-value cutoff ``rank``.  A custom kernel, which has
    no map to sample, is an InvalidConfigError."""
    if map_spec.kind == "custom":
        raise InvalidConfigError(
            "classification samples the map on its ladder's grid, and a custom kernel "
            "has no map to sample, only the CSV rows of one stage; custom kernels support "
            "the stage-level diagnostics directly"
        )
    # the coarse ranks come first: their grid refuses N = 1, which no split S has
    mu_independent = [_coarse_full_rank(map_spec, n, rank) for n in ladder.truncations]
    grid_stage = ladder.final_stage
    whole = _stage_operator(map_spec, _ladder_grid(map_spec, grid_stage), grid_stage.truncation)
    stages = []
    for n, mu in zip(ladder.truncations, mu_independent):
        op = _exact_operator(whole.gram[:n, :n], None if whole.phase is None else whole.phase[:n])
        lower, upper = _resolved_bounds(op)
        sigma_min, sigma_max = math.sqrt(lower), math.sqrt(upper)
        stages.append(
            StageDiagnostics(
                truncation=n,
                lower=lower,
                upper=upper,
                sigma_min=sigma_min,
                sigma_max=sigma_max,
                total=_full_rank(sigma_min, sigma_max, rank),
                mu_independent=mu,
                operator=op,
            )
        )
    return tuple(stages)


# What the label rules read, built once per classify: the final stage, the
# first bounded Bessel index (None if none), the verdicts on B (its trend
# bounded) and on A (its trend bounded and the final stage total), and
# whether the final A and B fall in the tight and Parseval windows.
_Evidence = collections.namedtuple("_Evidence", "final bessel_index bounded_upper stable_lower tight parseval")


def _frame(e):
    """The frame row's rule, which the rows that refine or exclude a frame
    read too."""
    return e.bounded_upper and e.stable_lower


# One (label, rule) row per label, in report order; a rule reads the
# evidence and returns whether the label holds.  The semi-frame rows hold
# only when the map is not a frame outright (the sharpest-class convention).
_LABEL_RULES = (
    ("bessel", lambda e: e.bessel_index is not None),
    ("bounded_bessel", lambda e: e.bounded_upper),
    ("total", lambda e: e.final.total),
    ("mu_independent", lambda e: e.final.mu_independent),
    ("upper_semi_frame", lambda e: e.bounded_upper and e.final.total and not _frame(e)),
    ("lower_semi_frame", lambda e: e.stable_lower and not _frame(e)),
    ("frame", _frame),
    ("tight", lambda e: _frame(e) and e.tight),
    ("parseval", lambda e: _frame(e) and e.tight and e.parseval),
    ("gelfand_basis", lambda e: _frame(e) and e.tight and e.parseval and e.final.mu_independent),
    ("riesz_basis", lambda e: _frame(e) and e.final.mu_independent),
)
LABEL_ORDER = tuple(label for label, _ in _LABEL_RULES)


def classify(map_spec, ladder, thresholds=ClassifyThresholds()):
    """Walk the ladder (_ladder_stages), read the trends of A and B per
    doubling of N, search for the first bounded Bessel index, and give every
    label of _LABEL_RULES whose rule holds, in LABEL_ORDER.

    Labels follow the sharpest-class convention: the semi-frame labels are
    reported only when the map is not a frame outright.
    """
    stages = _ladder_stages(map_spec, ladder, thresholds.rank)
    truncations = ladder.truncations
    lowers = [s.lower for s in stages]
    uppers = [s.upper for s in stages]
    vanish_floor = thresholds.rank**2 * max(uppers[-1], 0.0)
    lower_trend = _series_trend(lowers, truncations, thresholds, vanish_floor)
    upper_trend = _series_trend(uppers, truncations, thresholds, vanish_floor)

    tops = [s.sigma_max for s in stages]
    grams = [s.operator for s in stages]
    bessel_index, bessel_constant, bessel_series = _bessel_search(grams, tops, thresholds)

    final = stages[-1]
    evidence = _Evidence(
        final=final,
        bessel_index=bessel_index,
        bounded_upper=upper_trend == "bounded",
        stable_lower=lower_trend == "bounded" and final.total,
        tight=abs(final.lower - final.upper) <= thresholds.tight * final.upper,
        parseval=abs(final.upper - 1.0) <= thresholds.parseval,
    )
    return FrameReport(
        stages=stages,
        lower_trend=lower_trend,
        upper_trend=upper_trend,
        lower_ratios=_consecutive_ratios(lowers, truncations),
        upper_ratios=_consecutive_ratios(uppers, truncations),
        labels=tuple(label for label, rule in _LABEL_RULES if rule(evidence)),
        bessel_index=bessel_index,
        bessel_constant=bessel_constant,
        bessel_constants=bessel_series,
    )
