"""Moment problems <f, omega_x> = h(x): solvers and solvability diagnostics.

The discrete moment problem asks for coefficients matching prescribed
analysis values on the grid.  Solutions form a coset f + null(analysis);
the least-norm representative is the canonical computable element, and all
residuals are measured in the weighted grid norm, relative to |h| when h is
nonzero.

The solvability envelope realizes the necessary condition for the
continuum problem: a target h reachable from the p_k unit ball must satisfy
|h(x)| <= r * e_k(x) pointwise, where e_k is the dual-seminorm profile of
the kernel rows.  Only necessity is constructive; the sufficiency direction
of the continuum statement has no algorithm, so it is reported, never
asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .duality import _coarse_resample, _require_frame, _walkable_ladder
from .errors import InvalidConfigError
from .hermite import TestFunction
from .operators import (
    ClassifyThresholds,
    StageFactorization,
    _bessel_search,
    _ladder_walk,
    weighted_analysis_matrix,
)
from .quadrature import l2x_norm

__all__ = [
    "MomentSolution",
    "DualBesselResult",
    "weighted_least_squares",
    "solve_moment",
    "rf_diagnostic",
    "continuity_constant",
    "envelope",
    "envelope_condition_check",
    "dual_bessel_check",
]

NULL_SPACE_CUTOFF = 1e-10


def weighted_least_squares(matrix, rhs, weights):
    """Minimum-norm minimizer of sum_j w_j |(A x - b)_j|^2.

    Returns (x, attained weighted residual norm).
    """
    matrix = np.asarray(matrix)
    rhs = np.asarray(rhs)
    weights = np.asarray(weights, dtype=float)
    for name, arr in (("matrix", matrix), ("rhs", rhs), ("weights", weights)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite entries")
    scale = np.sqrt(weights)
    solution, _, _, _ = np.linalg.lstsq(scale[:, None] * matrix, scale * rhs, rcond=None)
    residual = float(np.linalg.norm(scale * (matrix @ solution - rhs)))
    return solution, residual


@dataclass(frozen=True)
class MomentSolution:
    """Least-norm solution of a discrete moment problem.

    ``residual`` is relative to the weighted norm of the target (absolute
    when the target vanishes); ``null_dim`` counts the numerical dimension
    of the solution coset's direction space.
    """

    f: TestFunction
    residual: float
    least_norm: bool
    null_dim: int


def solve_moment(kernel, h):
    """Solve <f, omega_{x_j}> = h_j in the weighted least-squares sense.

    Inconsistent targets yield a positive residual, never an error; the
    returned representative is orthogonal to the numerical null space.
    """
    h = np.asarray(h)
    if h.shape != (kernel.node_count,):
        raise InvalidConfigError(
            f"target has shape {h.shape}, expected ({kernel.node_count},)"
        )
    coeffs, residuals, rank = _least_norm(kernel, h[:, None])
    return MomentSolution(
        f=TestFunction(coeffs[:, 0]),
        residual=float(residuals[0]),
        least_norm=True,
        null_dim=kernel.truncation - rank,
    )


def _least_norm(kernel, targets):
    """Least-norm solutions for every target column from one SVD: returns
    (coefficient columns, residuals as in MomentSolution, rank)."""
    weighted = weighted_analysis_matrix(kernel)
    scaled = np.sqrt(kernel.grid.weights)[:, None] * targets
    u, svals, vh = np.linalg.svd(weighted, full_matrices=False)
    keep = svals > NULL_SPACE_CUTOFF * (svals[0] if svals.size else 0.0)
    coeffs = vh[keep].conj().T @ ((u[:, keep].conj().T @ scaled) / svals[keep][:, None])
    residuals = np.linalg.norm(weighted @ coeffs - scaled, axis=0)
    norms = np.array([l2x_norm(column, kernel.grid) for column in targets.T])
    residuals = np.divide(residuals, norms, out=residuals, where=norms > 0)
    return coeffs, residuals, int(np.count_nonzero(keep))


def rf_diagnostic(kernel, probes):
    """Moment-solvability score over panel-indicator probes.

    The probes are normalized indicators of distinct quadrature panels
    (orthonormal by disjoint support); the score is the fraction solved to
    residual <= 1e-6 and the worst residual is reported alongside.
    """
    if probes < 1:
        raise InvalidConfigError(f"probes must be >= 1, got {probes}")
    grid = kernel.grid
    panel_count = grid.panels
    used = min(probes, panel_count)
    picks = sorted(set(np.linspace(0, panel_count - 1, used).round().astype(int)))
    targets = np.zeros((grid.node_count, len(picks)))
    for column, panel in enumerate(picks):
        targets[panel * grid.order : (panel + 1) * grid.order, column] = 1.0
        targets[:, column] /= l2x_norm(targets[:, column], grid)
    residuals = _least_norm(kernel, targets)[1]
    score = np.count_nonzero(residuals <= 1e-6) / residuals.size
    return float(score), float(residuals.max())


def continuity_constant(kernel, k):
    """Smallest C with p_k(least-norm solution) <= C * |h| over all targets.

    Computed as the top singular value of the seminorm-weighted coefficient
    map composed with the pseudo-inverse of the weighted analysis matrix,
    read off the triangular factor R of a thin QR of sqrt(W) Omega, which has
    the same singular values and right singular vectors.  For total maps this
    realizes the solution bound p_k(f) <= C |<f, omega>|; in general it
    bounds the least-norm coset representative.  A zero kernel has no finite
    constant and returns inf.
    """
    if k < 0:
        raise ValueError(f"seminorm index must be nonnegative, got {k}")
    r = np.linalg.qr(weighted_analysis_matrix(kernel), mode="r")
    _, svals, vh = np.linalg.svd(r, full_matrices=False)
    if svals.size == 0 or svals[0] == 0.0:
        return math.inf
    keep = svals > NULL_SPACE_CUTOFF * svals[0]
    growth = (1.0 + np.arange(kernel.truncation)) ** (k / 2.0)
    # P_k @ pinv(A_w) = (growth * V_r) diag(1/s_r) U_r^H has the top singular
    # value of the wide r x N adjoint factor diag(1/s_r) V_r^H P_k
    scaled = (vh[keep] * growth[None, :]) / svals[keep][:, None]
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


def envelope(kernel, k):
    """Reachability profile e_k(x_j) = sup { |<f, omega_{x_j}>| : p_k(f) <= 1 }.

    Closed form: the (1+n)^(-k)-weighted Euclidean norm of each kernel row.
    """
    if k < 0:
        raise ValueError(f"seminorm index must be nonnegative, got {k}")
    damping = (1.0 + np.arange(kernel.truncation)) ** (-float(k))
    return np.sqrt(np.abs(kernel.entries) ** 2 @ damping)


def envelope_condition_check(kernel, h, k):
    """Necessary solvability condition: |h_j| <= r * e_k(x_j) for finite r.

    Returns (satisfied, r) with r = max |h_j| / e_k(x_j) over e_k(x_j) > 0,
    infinite when h is nonzero where the envelope vanishes; a non-finite h is
    a config error.  If some f solves the moment problem to negligible
    residual, the condition holds with r <= p_k(f) up to roundoff.
    """
    h = np.asarray(h)
    if h.shape != (kernel.node_count,):
        raise InvalidConfigError(
            f"target has shape {h.shape}, expected ({kernel.node_count},)"
        )
    if not np.all(np.isfinite(h)):
        raise InvalidConfigError("target has non-finite entries")
    h = np.abs(h)
    profile = envelope(kernel, k)
    if np.any(h[profile == 0.0] != 0.0):
        return False, math.inf
    reached = profile > 0.0
    return True, float(np.max(h[reached] / profile[reached], initial=0.0))


@dataclass(frozen=True)
class DualBesselResult:
    bessel: bool
    seminorm_index: int
    constant: float

    def __bool__(self):
        return self.bessel


def dual_bessel_check(pair, ladder=None):
    """A dual of a moment-solvable map is itself norm-bounded by a seminorm.

    Precondition (config error if unmet): the original map solves every
    coarse-grid panel probe, rf score 1.  It walks the ladder as classify does
    and reads each stage's canonical dual off omega's R (S = R^T R, so sqrt(W)
    Theta = Q R^-T; NotAFrameError for a singular S), certifying the smallest
    seminorm index up to the classifier's default ``bessel_k_max`` whose
    constant, the top singular value of R^-T D_k, is bounded by its trend rule.
    """
    kernel = pair.omega
    ladder = _walkable_ladder(kernel, ladder, "dual_bessel_check")
    coarse = _coarse_resample(kernel)
    score, worst = rf_diagnostic(coarse, coarse.grid.panels)
    if score < 1.0:
        raise InvalidConfigError(
            f"moment-solvability precondition unmet: rf score {score:.3f}, "
            f"worst residual {worst:.3e}"
        )
    factors = []
    for _, factor in _ladder_walk(kernel.map_spec, ladder):
        _require_frame(factor.sigma_min**2, factor.sigma_max**2)
        # the N x N QR of R^-T is theta's factor; fourier's column phase
        # commutes with every D_k, so fourier reads the real R dirac does
        factors.append(StageFactorization(np.linalg.inv(factor.r).T))
    index, constant, _ = _bessel_search(factors, ClassifyThresholds())
    if index is None:
        return DualBesselResult(False, -1, math.inf)
    return DualBesselResult(True, index, float(constant))
