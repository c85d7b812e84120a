"""Canonical dual frames, reconstruction, and the basis characterizations.

For a frame the canonical dual kernel is Theta = Omega S^{-1}, so that
analysis through theta equals analysis through omega of S^{-1} f, the dual
frame operator is S^{-1} exactly at matrix level, and both reconstruction
orders

    f = synthesis_theta(analysis_omega(f)) = synthesis_omega(analysis_theta(f))

recover f up to conditioning.  S is factored once, S = R^H R with R the
upper Cholesky factor, and inverted through it: X = R^{-1} R^{-H}, with
R^{-1} from a blocked triangular inverse (_cholesky_inverse and
_triangular_inverse, shared with moments.dual_bessel_check; Higham,
Accuracy and Stability of Numerical Algorithms, ch. 10 and 14).  Omega's
bounds (A, B) come from frame_bounds, values only, as for every other
bounds reader, and a relative cutoff on them turns a near-singular frame
operator into NotAFrameError instead of amplified noise.  One builder,
_canonical_dual, makes every canonical pair from an S and measures
nothing: the duality identity
<f, g> = int <f, theta_x><omega_x, g> dmu is measured by verify_duality, on
whatever pair a caller hands it.

The pair keeps (A, B) for dual_bounds.  Theta's own frame operator is
formed in N x N arithmetic, with no tall Gram of theta: S_theta = X^H S X =
G^H G for G = R X, exactly Hermitian, and the pair keeps it.  Its
eigenvalues measure X against S, so dual_bounds checks them against
[1/B, 1/A] as the postcondition on the inverse; they are never read off
1/lambda, which would be a tautology.

When S is block diagonal in the even and odd indices (a mirrored map, by
the parity rule kernels._pair_split; see FrameOperatorMatrix.columns),
each step runs per N/2 x N/2 block, placed in the N x N X and S_theta with
exact zeros between them.  For a kernel sample_kernel split the passes over omega's rows run per parity class on
the x > 0 rows too (operators._gram_rows): with a(x) = u + v and a(-x) =
s (u - v) for the even and odd parts u, v of an analysis pass,
verify_duality sums 2 w (u_f conj(u_g) + v_f conj(v_g)) over x > 0, and
reconstruct synthesizes each class from 2 W u and 2 W v.

Everything runs on the kernel's rows in their own dtype.  A kernel with a
column phase P (fourier; see KernelMatrix) has S = P^H S_rows P, so
S^{-1} = P^H S_rows^{-1} P and Theta = rows X P with X = S_rows^{-1}: the
dual is built from the real Gram, its real Cholesky factor and a real
inverse, and keeps omega's phase.

Theta is never formed as a second kernel.  The pair keeps X, and analysis
through theta is rows @ (X @ (P block)), synthesis P^H X^H (rows^H W xi):
N x N work on blocks of at most a few dozen columns besides the passes over
omega's rows.  X^H, not X: the computed inverse need not be exactly Hermitian.
``pair.theta`` forms rows @ X when read (not cached).  Randomized checks
draw all their trial functions first, in the order a per-trial loop would,
and apply them as one block of columns.  Since theta shares omega's rows,
work through both maps stacks its blocks and takes one pass over the rows
per direction (one per parity class for a split kernel): verify_duality one
analysis pass, reconstruct (which returns both orders) one analysis and one
synthesis pass.  A hand-built pair takes one full-grid pass per kernel and
direction.

The ladder checks (riesz_check, dual_semiframe_check and
moments.dual_bessel_check) take only the kernel they check and classify
the ladder _walkable_ladder derives from it, N = 8, 16, ... up to the
largest 8 * 2^j <= N, at classify's default thresholds: each stage's
numbers come from the S classify formed, the kernel's from its own S.
gelfand_check reads mu-independence at operators.RANK_CUTOFF.
"""

from __future__ import annotations

from dataclasses import KW_ONLY, dataclass, field

import numpy as np

from .errors import InvalidConfigError, NotAFrameError, NumericError
from .hermite import TestFunction, random_test_function
from .kernels import KernelMatrix
from .operators import (
    RANK_CUTOFF,
    FrameOperatorMatrix,
    _analyze,
    _apply,
    _block_diagonal,
    _coarse_full_rank,
    _coarse_kernel,
    _fold,
    _full_rank,
    _gram_rows,
    _hermitian_gram,
    _row_pass,
    _scale_rows,
    _synthesize,
    _unphase,
    _weighted_rows,
    classify,
    frame_bounds,
    frame_operator,
    totality_test,
)
from .quadrature import default_ladder

__all__ = [
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

DEFAULT_SEED = 20240409


@dataclass(frozen=True)
class DualPair:
    """A map and its candidate dual on the same grid and truncation.

    A hand-built pair, DualPair(omega, theta), holds its theta explicitly.
    canonical_dual holds none: it keeps the inverse X = R^{-1} R^{-H} of
    omega's row Gram S = R^H R, so that theta = omega.rows @ X with omega's
    column phase, applied as rows @ (X @ block) and formed only when
    ``theta`` is read (read-only, not cached).  It also carries omega's
    (A, B), frame_bounds of the S it inverted, and ``theta_operator``,
    theta's frame operator X^H S X = G^H G for G = R X, formed in N x N
    arithmetic (theta's column phase kept apart as for any kernel), one
    parity block at a time for a mirrored map; only the builder sets these
    two.  A pair carries no measurement: verify_duality measures it.
    """

    omega: KernelMatrix
    explicit_theta: KernelMatrix
    _: KW_ONLY
    omega_bounds: tuple = field(default=None, init=False)
    theta_operator: FrameOperatorMatrix = field(default=None, init=False)
    inverse: np.ndarray = None

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


def canonical_dual(kernel):
    """Canonical dual pair (omega, Omega S^{-1}), unmeasured (see
    verify_duality), with X = R^{-1} R^{-H} from S = R^H R (Cholesky),
    factored per diagonal block of S (its ``columns``).

    Raises NotAFrameError when the frame operator is singular at the
    relative cutoff, carrying the offending smallest eigenvalue, and
    NumericError when S is past float64 range or has no Cholesky factor.
    """
    return _canonical_dual(frame_operator(kernel), kernel)


def _canonical_dual(op, omega=None):
    """canonical_dual's pair from omega's frame operator ``op``; a stage's S
    from classify comes without omega, for dual_bounds only."""
    lam_min, lam_max = frame_bounds(op)
    _require_frame(lam_min, lam_max)
    # one factor, inverse and theta Gram per diagonal block of S (its
    # columns), placed in N x N arrays that are exactly 0 between blocks;
    # R is freed once R X is formed, and R X once its Gram is
    inverses, grams = [], []
    for c in op.columns:
        factor, inverse = _cholesky_inverse(op.gram[c, c])
        product = factor @ inverse
        del factor
        grams.append(_hermitian_gram(product))
        del product
        inverses.append(inverse)
    inverse = _block_diagonal(inverses, op.columns)
    theta_gram = _block_diagonal(grams, op.columns)
    inverse.setflags(write=False)
    theta_gram.setflags(write=False)
    pair = DualPair(omega, None, inverse=inverse)
    object.__setattr__(pair, "omega_bounds", (lam_min, lam_max))
    object.__setattr__(pair, "theta_operator", FrameOperatorMatrix(theta_gram, phase=op.phase))
    return pair


def _cholesky_inverse(block):
    """(R, X = R^-1 R^-H) of one diagonal block of S (one of its
    ``columns``), R the block's upper Cholesky factor (NumericError when it
    has none); R^-1 is freed once X is formed."""
    try:
        factor = np.linalg.cholesky(block).conj().T
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"frame operator has no Cholesky factor: {exc}") from exc
    factor_inverse = _triangular_inverse(factor)
    return factor, factor_inverse @ factor_inverse.conj().T


def _triangular_inverse(r):
    """R^-1 of an upper triangular R, exactly 0 below the diagonal.  With
    R = [[A, B], [0, C]], R^-1 = [[A^-1, -A^-1 B C^-1], [0, C^-1]]; each
    diagonal block is inverted the same way, down to order 64, where one
    np.linalg.inv takes it (LU of a triangular matrix pivots nowhere, so
    its zeros below the diagonal come out exact).  Two half-size products
    per level, written into the one output: about 2n^3/3 flops against
    LU's 2n^3 (Higham, Accuracy and Stability of Numerical Algorithms,
    14.2)."""
    out = np.zeros_like(r)
    _invert_into(r, out)
    return out


def _invert_into(r, out):
    n = r.shape[0]
    if n <= 64:
        out[...] = np.linalg.inv(r)
        return
    half = n // 2
    _invert_into(r[:half, :half], out[:half, :half])
    _invert_into(r[half:, half:], out[half:, half:])
    corner = out[:half, half:]
    np.matmul(out[:half, :half] @ r[:half, half:], out[half:, half:], out=corner)
    np.negative(corner, out=corner)


def _require_frame(lam_min, lam_max):
    """NotAFrameError unless S has full rank: its eigenvalues are squared
    singular values, so the cutoff is RANK_CUTOFF squared."""
    if not _full_rank(lam_min, lam_max, RANK_CUTOFF**2):
        raise NotAFrameError(
            f"frame operator singular at cutoff {RANK_CUTOFF**2:g}: "
            f"lambda_min={lam_min:.3e}, lambda_max={lam_max:.3e}",
            lam_min,
        )


def verify_duality(pair, trials, seed=DEFAULT_SEED):
    """Worst normalized defect of <f, g> = int <f, theta_x><omega_x, g> dmu
    over seeded random pairs.

    The pairs are drawn in turn (f, g, f, g, ...) and applied as one block
    through each map (_analyze_pair).
    """
    if trials < 1:
        raise InvalidConfigError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    omega = pair.omega
    n = omega.truncation
    draws = np.stack([random_test_function(n, rng).coeffs for _ in range(2 * trials)], axis=1)
    f, g = draws[:, 0::2], draws[:, 1::2]
    direct = np.sum(f * g.conj(), axis=0)
    parts, weights = _analyze_pair(pair, f, g)
    through = 0.0
    for part in parts:
        # in place on the pass's own output: no further kernel-height arrays
        analyzed_f, analyzed_g = np.hsplit(part, 2)
        analyzed_f *= np.conjugate(analyzed_g, out=analyzed_g)
        through = through + weights @ analyzed_f
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


def _analyze_pair(pair, theta_block, omega_block):
    """[Theta @ theta_block | Omega @ omega_block] as (parts, weights): the
    pass's parts on the rows of each column class of omega's _gram_rows and
    the quadrature weights on those rows.  A canonical pair's theta = rows X P
    shares omega's rows, so both take one pass over them, on the stacked
    block [X P theta_block | P omega_block]: for a split omega one per
    parity class over the x > 0 rows, with 2 W.  A hand-built pair takes
    one full-grid pass per kernel: one part, with W."""
    omega = pair.omega
    if pair.inverse is None:
        parts = [_analyze(pair.explicit_theta, theta_block), _analyze(omega, omega_block)]
        return [np.concatenate(parts, axis=1)], omega.grid.weights
    if omega.phase is not None:
        theta_block, omega_block = (_scale_rows(omega.phase, b) for b in (theta_block, omega_block))
    block = np.concatenate([_apply(pair.inverse, theta_block), omega_block], axis=1)
    return _row_pass(omega, block), _gram_rows(omega)[1]


def reconstruct(pair, f):
    """Round-trip f through both displayed orders of the dual pair.

    Returns (forward, backward): forward synthesizes through theta what
    omega analyzed, backward synthesizes through omega what theta analyzed.
    Each is a (reconstruction, relative error) pair, or a list of them when
    ``f`` is a sequence of test functions, which round-trip as one block.  A
    canonical pair takes one pass over omega's rows per direction for both
    orders; a hand-built pair one per kernel and direction.
    """
    single = isinstance(f, TestFunction)
    functions = [f] if single else list(f)
    count = len(functions)
    coeffs = np.stack([g.coeffs for g in functions], axis=1)
    omega = pair.omega
    parts, weights = _analyze_pair(pair, coeffs, coeffs)
    if pair.inverse is None:
        (analyzed,) = parts
        forward = _synthesize(pair.explicit_theta, analyzed[:, count:])
        backward = _synthesize(omega, analyzed[:, :count])
    else:
        # Theta^H (W xi) = P^H conj(X^T rows^T conj(W xi)): both orders in one
        # pass per class, with its weights and conj applied in place to the
        # class's stacked block
        for part in parts:
            part *= weights[:, None]
            np.conjugate(part, out=part)
        backward, forward = np.hsplit(_fold(omega, parts), [count])
        forward = _unphase(omega, _apply(pair.inverse.T, forward).conj())
        backward = _unphase(omega, backward.conj())
    scale = np.linalg.norm(coeffs, axis=0)
    orders = []
    for rebuilt in (forward, backward):
        err = np.linalg.norm(rebuilt - coeffs, axis=0)
        rel = err / np.where(scale > 0, scale, 1.0)
        results = [(TestFunction(rebuilt[:, k]), float(rel[k])) for k in range(count)]
        orders.append(results[0] if single else results)
    return tuple(orders)


def parseval_check(kernel):
    """(flag, defect) with defect = max |S - I| and flag = defect <= 1e-6.

    Cross-checks the equivalent random-pair identity
    <f, g> = sum_j w_j xi_f conj(xi_g) over 20 seeded pairs; a disagreement
    between the two routes is a numerical fault and raises.
    """
    tolerance = 1e-6
    op = frame_operator(kernel)
    n = op.truncation
    defect = float(np.abs(op.matrix - np.eye(n)).max())
    flag = defect <= tolerance
    # the random-pair identity is the duality defect of (omega, omega)
    worst_pair = verify_duality(DualPair(kernel, kernel), 20)
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


def gelfand_check(kernel):
    """Gel'fand basis test: Parseval and mu-independent at RANK_CUTOFF.

    Also reports how far the weighted synthesis map on the coarse grid is
    from an isometry (its column Gram against the identity).  On the
    Gauss-Hermite coarse grid the weighted rows of dirac and fourier are
    orthogonal, so theirs is rounding: at most 1e-12 up to N = 1024.  A
    built-in map reads mu-independence off its closed-form coarse values
    (operators._coarse_full_rank).
    """
    parseval, parseval_defect = parseval_check(kernel)
    coarse = _coarse_kernel(kernel.map_spec, kernel.truncation, kernel)
    mu_independent = _coarse_full_rank(kernel.map_spec, kernel.truncation, RANK_CUTOFF, coarse)
    # Omega = rows P with P unitary diagonal: Omega Omega^H = rows rows^H
    weighted = _weighted_rows(coarse)
    gram = weighted @ weighted.conj().T
    isometry_defect = float(np.abs(gram - np.eye(coarse.node_count)).max())
    return GelfandResult(
        gelfand=bool(parseval and mu_independent),
        parseval=parseval,
        mu_independent=mu_independent,
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


def riesz_check(kernel):
    """Riesz basis test: classify's riesz_basis label (a mu-independent frame)
    on the kernel's ladder.

    The singular-value interval of the weighted kernel certifies the
    synthesis map as bounded with bounded inverse at the truncated level.
    It is the kernel's own, totality_test's, read off its frame operator.
    """
    report = classify(kernel.map_spec, _walkable_ladder(kernel, "riesz_check"))
    own = totality_test(kernel)
    return RieszResult(report.has("riesz_basis"), own.sigma_min, own.sigma_max, report)


def _walkable_ladder(kernel, check):
    """The doubling ladder to the largest 8 * 2^j <= N, walked by every ladder
    check; refused without a resamplable spec or below N = 8 (InvalidConfigError)."""
    if kernel.map_spec is None or kernel.map_spec.kind == "custom":
        raise InvalidConfigError(f"{check} walks a ladder and needs a resamplable map spec")
    if kernel.truncation < 8:
        raise InvalidConfigError(f"{check} walks a ladder from N=8, got N={kernel.truncation}")
    return default_ladder(8 << ((kernel.truncation // 8).bit_length() - 1))


@dataclass(frozen=True)
class DualSemiframeResult:
    holds: bool
    margins: tuple

    def __bool__(self):
        return self.holds


def dual_semiframe_check(kernel):
    """Dual of an upper semi-frame is a lower semi-frame with bound 1/B.

    Requires the map to classify as an upper semi-frame (or better, a frame)
    with a stable upper bound on the kernel's ladder; verifies lower_theta >=
    1/upper_omega - tol at every ladder stage, on the dual of its S.
    """
    report = classify(kernel.map_spec, _walkable_ladder(kernel, "dual_semiframe_check"))
    if report.upper_trend != "bounded" or not report.has("total"):
        raise InvalidConfigError(
            f"map is not an upper semi-frame: upper trend {report.upper_trend!r}, "
            f"total={report.has('total')}"
        )
    margins = [dual_bounds(_canonical_dual(s.operator))[0] - 1.0 / s.upper for s in report.stages]
    holds = all(m >= -1e-8 / s.upper for m, s in zip(margins, report.stages))
    return DualSemiframeResult(holds, tuple(margins))
