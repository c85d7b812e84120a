"""Quadrature rules for the measure space: composite Gauss-Legendre stage
grids and the Gauss-Hermite rule, which sums the stage frame operators of
the exact maps and serves the synthesis side.

The measure space is the interval [-L, L] with Lebesgue measure.  L is tied
to the Hermite turning point sqrt(2N+1) plus a fixed margin: past the
turning point the basis functions decay super-exponentially, so the
truncated interval carries the whole computation to working precision.
hermite_grid is the K-node Gauss-Hermite rule for Lebesgue measure on the
line, whose K x K matrix sqrt(lambda_j) h_n(x_j) is orthogonal
(operators.coarse_synthesis_grid).

A refinement ladder is a list of growing truncations N plus one grid, set
by its final stage: every stage's S is summed on that grid, so stage N's S
is the leading N x N block of the final stage's.  For a built-in map that
grid is a function of the map and the final N alone (operators._ladder_grid,
which refuses any final stage but default_stage(N)): an exact map (dirac,
fourier, dirac_derivative, a polynomial weight) is summed exactly on
hermite_grid(K), K = N + d rounded up to even, every other built-in map on
stage_grid(default_stage(N)).  Both are mirrored with an even node count.
Only a custom kernel's final stage may set L, panels and order.
Classification of continuum properties (bounded versus growing frame
bounds, totality) is read off trends along the ladder, never off a single
stage.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidConfigError
from .hermite import _hermite_recurrence, hermite_table

__all__ = [
    "QuadratureGrid",
    "LadderStage",
    "RefinementLadder",
    "build_grid",
    "hermite_grid",
    "l2x_inner",
    "l2x_norm",
    "bulk_half_width",
    "default_half_width",
    "default_panels",
    "default_stage",
    "stage_grid",
    "default_ladder",
]

TURNING_MARGIN = 8.0
DEFAULT_ORDER = 10
MIN_STAGE_MARGIN = 4.0


@dataclass(frozen=True)
class QuadratureGrid:
    """Nodes and weights of a quadrature rule on [-L, L], in ascending node
    order: composite Gauss-Legendre (build_grid) or Gauss-Hermite
    (hermite_grid).  The nodes fall into ``panels`` cells of ``order``
    consecutive nodes each: the rule's panels, or hermite_grid's cells."""

    nodes: np.ndarray
    weights: np.ndarray
    half_width: float
    panels: int
    order: int

    def __post_init__(self):
        for name in ("nodes", "weights"):
            arr = np.array(getattr(self, name), dtype=float, copy=True)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def node_count(self):
        return self.nodes.size


def build_grid(half_width, panels, order):
    """Composite Gauss-Legendre grid: ``panels`` panels of ``order`` points
    each on [-half_width, half_width].

    Exact for polynomials of degree <= 2*order - 1 on each panel.  The grid
    is mirror-symmetric bit for bit: the non-negative half is built and the
    negative half is its mirror image, so ``nodes == -nodes[::-1]`` and
    ``weights == weights[::-1]`` exactly (an odd node count puts a node at
    exactly 0).
    """
    if not (half_width > 0 and math.isfinite(half_width)):
        raise InvalidConfigError(f"half_width must be positive, got {half_width}")
    if panels < 1:
        raise InvalidConfigError(f"panels must be >= 1, got {panels}")
    if order < 2:
        raise InvalidConfigError(f"order must be >= 2, got {order}")
    ref_nodes, ref_weights = _reference_rule(operator.index(order))
    half = half_width / panels
    centers = (2.0 * np.arange(panels) + 1.0 - panels) * half
    nodes = (centers[:, None] + half * ref_nodes[None, :]).ravel()
    weights = np.tile(half * ref_weights, panels)
    mirrored = nodes.size // 2
    nodes[:mirrored] = -nodes[::-1][:mirrored]
    weights[:mirrored] = weights[::-1][:mirrored]
    return QuadratureGrid(nodes, weights, float(half_width), int(panels), int(order))


@functools.lru_cache(maxsize=64)
def _reference_rule(order):
    """leggauss's rule on [-1, 1], read-only and computed once per order.
    It is itself exactly symmetric, with a 0.0 middle node."""
    rule = np.polynomial.legendre.leggauss(order)
    for arr in rule:
        arr.setflags(write=False)
    return rule


@functools.lru_cache(maxsize=64)
def hermite_grid(count):
    """The K = ``count`` node Gauss-Hermite rule for Lebesgue measure: the
    zeros x_j of h_K and the Christoffel weights lambda_j = 1 / sum_{n<K}
    h_n(x_j)^2, so that sum_j lambda_j h_m(x_j) h_n(x_j) = delta_mn for
    m, n < K (the matrix sqrt(lambda_j) h_n(x_j) is orthogonal).  Cached per
    K, read-only; numpy's hermgauss is not used, since its nodes come out NaN
    at K = 1024.

    The positive zeros of h_K are the square roots of the zeros of the
    generalized Laguerre polynomial L_{K//2}^(a), a = -1/2 for even K and
    +1/2 for odd K (Szego, Orthogonal Polynomials, 5.6), the eigenvalues of
    its K//2 x K//2 Jacobi matrix, diagonal 2k + a + 1 and off-diagonal
    sqrt(k (k + a)) (Golub & Welsch, Math. Comp. 23, 1969).  One Newton step
    on h_K, with h_K' = sqrt(2K) h_{K-1} - x h_K from the recurrence (scaled
    where the seed underflows, so the ratio is exact), polishes them; the
    negative half is their exact mirror and an odd K adds the node 0.  The
    weights come from the Hermite table, with no e^(x^2) formed, a block of
    nodes at a time.  The cells are gcd(K, 4) nodes each, and L is the
    turning point sqrt(2K + 1), past every zero of h_K."""
    count = operator.index(count)
    if count < 1:
        raise InvalidConfigError(f"node count must be >= 1, got {count}")
    half, shift = count // 2, 0.5 if count % 2 else -0.5
    k = np.arange(half)
    jacobi = np.diag(2.0 * k + shift + 1.0)
    coupling = np.sqrt(k[1:] * (k[1:] + shift))
    jacobi[k[1:], k[1:] - 1] = jacobi[k[1:] - 1, k[1:]] = coupling
    positive = np.sqrt(np.linalg.eigvalsh(jacobi))
    last = np.empty((3, half))
    _hermite_recurrence(count + 1, positive, last)
    h_k, h_before = last[count % 3], last[(count - 1) % 3]
    positive -= h_k / (math.sqrt(2.0 * count) * h_before - positive * h_k)
    right = np.concatenate([[0.0], positive]) if count % 2 else positive
    sums = [np.square(hermite_table(count, right[i : i + _WEIGHT_NODES])).sum(axis=1)
            for i in range(0, right.size, _WEIGHT_NODES)]
    weights = 1.0 / np.concatenate(sums)
    order = math.gcd(count, 4)
    return QuadratureGrid(
        np.concatenate([-positive[::-1], right]),
        np.concatenate([weights[count % 2 :][::-1], weights]),
        bulk_half_width(count), count // order, order,
    )


# hermite_grid sums the Hermite table over this many nodes at a time:
# 2 MB of table at K = 1024.
_WEIGHT_NODES = 256


def _check_grid_length(values, grid):
    arr = np.asarray(values)
    if arr.shape != (grid.node_count,):
        raise DimensionMismatchError(
            f"grid function has shape {arr.shape}, expected ({grid.node_count},)"
        )
    return arr


def l2x_inner(xi, eta, grid):
    """L2(X, mu) inner product of two grid functions: sum w_j xi_j conj(eta_j)."""
    xi = _check_grid_length(xi, grid)
    eta = _check_grid_length(eta, grid)
    return complex(np.sum(grid.weights * xi * np.conj(eta)))


def l2x_norm(xi, grid):
    xi = _check_grid_length(xi, grid)
    return float(np.sqrt(np.sum(grid.weights * np.abs(xi) ** 2)))


def bulk_half_width(truncation):
    """Hermite turning point sqrt(2N+1): the half-width of the region where
    the first N basis functions carry their mass."""
    return math.sqrt(2.0 * truncation + 1.0)


def default_half_width(truncation):
    return bulk_half_width(truncation) + TURNING_MARGIN


def default_panels(truncation, half_width):
    """Panel count keeping each panel under ~1.3 oscillation wavelengths of
    h_{N-1}, so order-10 panels resolve all integrands to ~1e-14."""
    return int(math.ceil(max(1.5 * truncation, half_width * bulk_half_width(truncation) / 2.0)))


@dataclass(frozen=True)
class LadderStage:
    """A truncation N with the grid its S is summed on."""

    truncation: int
    half_width: float
    panels: int
    order: int

    def __post_init__(self):
        if self.truncation < 1:
            raise InvalidConfigError(f"stage truncation must be >= 1, got {self.truncation}")
        if self.half_width < bulk_half_width(self.truncation) + MIN_STAGE_MARGIN:
            raise InvalidConfigError(
                f"stage half_width {self.half_width:.3f} is below the Hermite bulk "
                f"{bulk_half_width(self.truncation):.3f} plus margin {MIN_STAGE_MARGIN}"
            )


def default_stage(truncation):
    """The stage at N = ``truncation`` that sets no grid of its own, the
    only final stage a built-in map's ladder takes (its composite grid has
    an even node count, order 10); N must be an integer (TypeError
    otherwise)."""
    truncation = operator.index(truncation)
    half_width = default_half_width(truncation)
    return LadderStage(
        truncation=truncation,
        half_width=half_width,
        panels=default_panels(truncation, half_width),
        order=DEFAULT_ORDER,
    )


def stage_grid(stage):
    return build_grid(stage.half_width, stage.panels, stage.order)


@dataclass(frozen=True)
class RefinementLadder:
    """Increasing truncations N, every one summed on one grid, set by
    ``final_stage``, the stage at the last N: operators._ladder_grid gives
    the Gauss-Hermite rule of N + d nodes for an exact map, else
    stage_grid(final_stage).  A built-in map's ``final_stage`` must be
    default_stage(N), which _ladder_grid checks; a custom kernel's may set
    its own grid.  A grid exact, or wide and fine enough, for the last N
    resolves every smaller one."""

    truncations: tuple
    final_stage: LadderStage

    def __post_init__(self):
        truncations, final = tuple(self.truncations), self.final_stage.truncation
        steps = zip(truncations, truncations[1:])
        if truncations[-1:] != (final,) or truncations[0] < 1 or any(b <= a for a, b in steps):
            raise InvalidConfigError(
                f"stage truncations must increase from N >= 1 to the final stage's N={final}, "
                f"got {list(truncations)}"
            )
        object.__setattr__(self, "truncations", truncations)


def default_ladder(n_max):
    """Stages N = 8, 16, ..., n_max with final stage default_stage(n_max),
    which sets no grid: an exact map is summed on the Gauss-Hermite rule of
    n_max + d nodes, any other built-in map on that stage's composite grid
    (>= 10 n_max nodes; operators._ladder_grid).

    ``n_max`` must be 8 times a power of two so the ladder is a clean
    doubling sequence, and an integer (TypeError otherwise).
    """
    n = n_max = operator.index(n_max)
    while n > 8 and n % 2 == 0:
        n //= 2
    if n != 8:
        raise InvalidConfigError(f"n_max must be 8 * 2^k, got {n_max}")
    return RefinementLadder(tuple(8 << j for j in range((n_max // 8).bit_length())), default_stage(n_max))
