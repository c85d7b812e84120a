"""Moment problems <f, omega_x> = h(x): solvers and solvability diagnostics.

The discrete moment problem asks for coefficients matching prescribed
analysis values on the grid.  Solutions form a coset f + null(analysis);
the least-norm representative is the canonical computable element, and all
residuals are measured in the weighted grid norm, relative to |h| when h is
nonzero.  Every solver works on the weighted rows sqrt(W) rows; a column
phase P (fourier) touches the solution only, as P^H c.

At one truncation, omega is Riesz-Fischer (every target has a solution)
exactly when the weighted coarse kernel has full row rank.  rf_diagnostic
reads that off the coarse rank rule's singular values (operators._CoarseSVD,
one values-only SVD of the weighted rows); only a rank-deficient kernel
forms U and has its panel probes measured against its numerical range,
and its ``worst_residual`` is the largest distance from a unit probe to
that range (exactly 0 at full row rank).  A built-in map on
its Gauss-Hermite coarse grid needs neither kernel nor SVD (_coarse_rf):
its range is spanned by the nodes whose closed-form singular value
(operators._coarse_values) clears the cutoff.

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

from .duality import _canonical_dual, _walkable_ladder
from .errors import InvalidConfigError
from .hermite import TestFunction
from .operators import (
    ClassifyThresholds,
    _apply,
    _bessel_constant,
    _bessel_search,
    _builtin,
    _CoarseSVD,
    _coarse_values,
    _full_rank,
    _ladder_stages,
    _unphase,
    _weighted_rows,
    coarse_synthesis_grid,
)
from .quadrature import l2x_norm

__all__ = [
    "MomentSolution",
    "DualBesselResult",
    "solve_moment",
    "rf_diagnostic",
    "continuity_constant",
    "envelope",
    "envelope_condition_check",
    "dual_bessel_check",
]

NULL_SPACE_CUTOFF = 1e-10


@dataclass(frozen=True)
class MomentSolution:
    """Least-norm solution of a discrete moment problem.

    ``residual`` is relative to the weighted norm of the target (absolute
    when the target vanishes); ``null_dim`` counts the numerical dimension
    of the solution coset's direction space.
    """

    f: TestFunction
    residual: float
    null_dim: int


def solve_moment(kernel, h):
    """Solve <f, omega_{x_j}> = h_j in the weighted least-squares sense.

    Inconsistent targets yield a positive residual, never an error; the
    returned representative is orthogonal to the numerical null space.  One
    SVD of the weighted rows gives it; real rows meet a complex target
    through its float view, and a column phase P touches the solution only.
    """
    h = np.asarray(h)
    if h.shape != (kernel.node_count,):
        raise InvalidConfigError(
            f"target has shape {h.shape}, expected ({kernel.node_count},)"
        )
    weighted = _weighted_rows(kernel)
    scaled = np.sqrt(kernel.grid.weights) * h
    u, svals, vh = np.linalg.svd(weighted, full_matrices=False)
    keep = svals > NULL_SPACE_CUTOFF * (svals[0] if svals.size else 0.0)
    coeffs = _apply(vh[keep].conj().T, _apply(u[:, keep].conj().T, scaled) / svals[keep])
    residual = float(np.linalg.norm(_apply(weighted, coeffs) - scaled))
    norm = l2x_norm(h, kernel.grid)
    return MomentSolution(
        f=TestFunction(_unphase(kernel, coeffs)),
        residual=residual / norm if norm > 0 else residual,
        null_dim=kernel.truncation - int(np.count_nonzero(keep)),
    )


def rf_diagnostic(kernel):
    """Moment-solvability score over panel-indicator probes of a coarse kernel.

    The probes are the normalized indicators of every quadrature panel
    (orthonormal by disjoint support).  A probe's residual is its distance
    to the kernel's numerical range, the span of the left singular vectors
    of sqrt(W) Omega with sigma > NULL_SPACE_CUTOFF * sigma_max: the relative
    residual of its least-norm moment solution.  The score is the fraction of
    probes with residual <= 1e-6, and ``worst_residual``, the largest
    distance, is reported alongside.

    The rank is read off _CoarseSVD's values step, the coarse rank rule: a
    kernel of full row rank reaches every grid function, so it scores (1.0,
    0.0) with no singular vectors and no solve.  Only a rank-deficient one
    runs the vectors step, the thin U of the same weighted rows.  A kernel
    with more nodes than coefficients is refused (InvalidConfigError), as by
    mu_independence_test.
    """
    rule = _CoarseSVD(kernel, NULL_SPACE_CUTOFF)
    if rule.full_rank:
        return 1.0, 0.0
    svals, u = rule.svals, rule.left_vectors()
    grid = kernel.grid
    sqrt_w = np.sqrt(grid.weights).reshape(grid.panels, grid.order)
    # column j, b_j, is the indicator of panel j scaled by sqrt(W), unit in l2
    probes = np.zeros((grid.node_count, grid.panels))
    panel_of_node = np.repeat(np.arange(grid.panels), grid.order)
    probes[np.arange(grid.node_count), panel_of_node] = (
        sqrt_w / np.linalg.norm(sqrt_w, axis=1, keepdims=True)
    ).ravel()
    basis = u[:, svals > NULL_SPACE_CUTOFF * svals[0]]
    return _scored(np.linalg.norm(probes - basis @ (basis.conj().T @ probes), axis=0))


def _scored(residuals):
    """(score, worst residual) of the probes' residuals."""
    return float(np.count_nonzero(residuals <= 1e-6) / residuals.size), float(residuals.max())


def _coarse_rf(map_spec, truncation, kernel=None):
    """rf_diagnostic of operators._coarse_kernel's kernel, with no kernel
    sampled and no SVD for a built-in map; rf_diagnostic of ``kernel``
    otherwise.  A built-in's weighted coarse rows have the left singular
    vector e_j for the closed-form value sigma_j at node j (_coarse_values),
    so their numerical range is the span of the e_j with sigma_j >
    NULL_SPACE_CUTOFF * sigma_max, and a probe's residual is its norm on the
    other nodes: sqrt(sum of W there / sum of W on its cell).
    dirac_derivative's left vectors are not the e_j, but it drops no node:
    its smallest value over its largest exceeds 1/(2K) (measured for
    K <= 2048, odd N included), far above the cutoff."""
    if not _builtin(map_spec):
        return rf_diagnostic(kernel)
    values = _coarse_values(map_spec, truncation)
    if _full_rank(values.min(), values.max(), NULL_SPACE_CUTOFF):
        return 1.0, 0.0
    grid = coarse_synthesis_grid(truncation)
    cells = grid.weights.reshape(grid.panels, grid.order)
    dropped = np.where(values > NULL_SPACE_CUTOFF * values.max(), 0.0, grid.weights)
    return _scored(np.sqrt(dropped.reshape(cells.shape).sum(axis=1) / cells.sum(axis=1)))


def continuity_constant(kernel, k):
    """Smallest C with p_k(least-norm solution) <= C * |h| over all targets.

    Computed as the top singular value of the seminorm-weighted coefficient
    map composed with the pseudo-inverse of the weighted analysis matrix,
    read off the triangular factor R of a thin QR of the weighted rows, which
    has their singular values and right singular vectors.  A column phase P
    commutes with the seminorm weights, so pinv(sqrt(W) Omega) = P^H
    pinv(sqrt(W) rows) gives the same constant.  For total maps this
    realizes the solution bound p_k(f) <= C |<f, omega>|; in general it
    bounds the least-norm coset representative.  A zero kernel has no finite
    constant and returns inf.
    """
    if k < 0:
        raise ValueError(f"seminorm index must be nonnegative, got {k}")
    r = np.linalg.qr(_weighted_rows(kernel), mode="r")
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

    Closed form: the (1+n)^(-k)-weighted Euclidean norm of each kernel row,
    read off |rows| (a unit-modulus column phase leaves it alone).
    """
    if k < 0:
        raise ValueError(f"seminorm index must be nonnegative, got {k}")
    damping = (1.0 + np.arange(kernel.truncation)) ** (-float(k))
    return np.sqrt(np.abs(kernel.rows) ** 2 @ damping)


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


def dual_bessel_check(kernel):
    """A dual of a moment-solvable map is itself norm-bounded by a seminorm.

    Precondition (config error if unmet): the kernel's map solves every
    coarse-grid panel probe, rf score 1 (_coarse_rf).  It walks the
    kernel's ladder (duality._walkable_ladder) with classify's walk,
    operators._ladder_stages, at the classifier's default rank cutoff, and
    runs no label rule and no Bessel search of omega.  It reads theta's
    frame operator S^-1 off each stage's canonical dual, built from the
    stage's S and the bounds the walk read (duality._canonical_dual;
    NotAFrameError for a singular S), certifying the smallest seminorm
    index up to the classifier's default ``bessel_k_max`` whose constant,
    sqrt(lambda_max(D_k S^-1 D_k)) over the blocks, is bounded by its trend
    rule, read per doubling of N.
    """
    ladder = _walkable_ladder(kernel, "dual_bessel_check")
    score, worst = _coarse_rf(kernel.map_spec, kernel.truncation)
    if score < 1.0:
        raise InvalidConfigError(
            f"moment-solvability precondition unmet: rf score {score:.3f}, "
            f"worst residual {worst:.3e}"
        )
    # fourier reads dirac's real inverse: its column phase commutes with D_k
    inverses = [
        _canonical_dual(stage.operator, bounds=(stage.lower, stage.upper)).theta_operator
        for stage in _ladder_stages(kernel.map_spec, ladder, ClassifyThresholds().rank)
    ]
    tops = [_bessel_constant(inverse, 0) for inverse in inverses]
    index, constant, _ = _bessel_search(inverses, tops, ClassifyThresholds())
    if index is None:
        return DualBesselResult(False, -1, math.inf)
    return DualBesselResult(True, index, float(constant))
