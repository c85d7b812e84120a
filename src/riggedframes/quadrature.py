"""Quadrature rules for the measure space: composite Gauss-Legendre stage
grids and the Gauss-Hermite rule, which sums the stage frame operators of
the exact maps and serves the synthesis side.

The measure space is the interval [-L, L] with Lebesgue measure.  L is tied
to the Hermite turning point sqrt(2N+1) plus a fixed margin: past the
turning point the basis functions decay super-exponentially, so the
truncated interval carries the whole computation to working precision.
hermite_grid is the K-node Gauss-Hermite rule for Lebesgue measure on the
line, whose K x K matrix sqrt(lambda_j) h_n(x_j) is orthogonal
(operators.coarse_synthesis_grid), built in O(K^2) work from asymptotic
seeds polished by Newton on the Hermite recurrence.

A refinement ladder is a list of growing truncations N plus one grid, set
by its final stage: every stage's S is summed on that grid, so stage N's S
is the leading N x N block of the final stage's.  For a built-in map that
grid is a function of the map and the final N alone (operators._ladder_grid,
which refuses any final stage but default_stage(N)): an exact map (dirac,
fourier, dirac_derivative, a polynomial weight) is summed exactly on
hermite_grid(K), K = N + d rounded up to even; any other weight on the
hermite_grid(K) whose K a search finds a posteriori
(operators._searched_node_count), or, past the search's ceiling, on
stage_grid(default_stage(N)), as a bump always is.  Both kinds of grid are
mirrored with an even node count.  Only a custom kernel's final stage may
set L, panels and order.
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

from .errors import DimensionMismatchError, InvalidConfigError, NumericError
from .hermite import _hermite_recurrence

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
    at K = 1024.  O(K^2) work and O(K) memory, with no eigensolver: 0.12 s
    at K = 6144, against 2.9 s for a dense Jacobi eigensolver.

    The positive zeros of h_K are seeded from asymptotic expansions
    (_zero_seeds) and polished by Newton on h_K, with h_K' = sqrt(2K) h_{K-1}
    - x h_K from the recurrence (scaled where the seed underflows, so the
    ratio is exact), one vectorized pass over every node at a time, until a
    pass moves no node's phase sqrt(2K) x by more than _PHASE_STEP; the
    negative half is their exact mirror and an odd K adds the node 0, which
    Newton leaves exactly in place.  One more pass at the polished nodes
    gives the weights by Christoffel-Darboux, sum_{n<K} h_n(x)^2 =
    K h_{K-1}(x)^2 - sqrt(K (K-1)) h_K(x) h_{K-2}(x), which holds at every x:
    at a float node h_K is not exactly 0, and its term keeps lambda_j within
    6e-14 of the sum of squares at K = 2112, where K h_{K-1}^2 alone is off
    by up to 1e-7.  No e^(x^2) is formed (Townsend, Trogdon & Olver, "Fast
    computation of Gauss quadrature nodes and weights on the whole real
    line", IMA J. Numer. Anal. 36, 2016).  The cells are gcd(K, 4) nodes
    each, and L is the turning point sqrt(2K + 1), past every zero of h_K."""
    count = operator.index(count)
    if count < 1:
        raise InvalidConfigError(f"node count must be >= 1, got {count}")
    right = _zero_seeds(count)
    if count % 2:
        right = np.concatenate([[0.0], right])
    last, scale = np.zeros((3, right.size)), math.sqrt(2.0 * count)
    for _ in range(_NEWTON_PASSES):
        h_k, h_before, _ = _top_rows(count, right, last)
        step = h_k / (scale * h_before - right * h_k)
        right = right - step
        if scale * np.abs(step).max() <= _PHASE_STEP:
            break
    else:
        raise NumericError(f"hermite_grid({count}): Newton did not converge")
    h_k, h_before, h_older = _top_rows(count, right, last)
    weights = 1.0 / (count * np.square(h_before) - math.sqrt(count * (count - 1.0)) * h_k * h_older)
    positive = right[count % 2 :]
    order = math.gcd(count, 4)
    return QuadratureGrid(
        np.concatenate([-positive[::-1], right]),
        np.concatenate([weights[count % 2 :][::-1], weights]),
        bulk_half_width(count), count // order, order,
    )


def _top_rows(count, nodes, last):
    """(h_K, h_{K-1}, h_{K-2}) at ``nodes``, K = ``count``, from the recurrence
    run into the three-row buffer ``last`` (h_{-1} = 0 at K = 1)."""
    _hermite_recurrence(count + 1, nodes, last)
    return last[count % 3], last[(count - 1) % 3], last[(count - 2) % 3]


# Newton stops after a pass whose largest step moves the phase sqrt(2K) x of
# h_K by at most this: the error left is of its square, below rounding.  From
# the seeds it takes 2 passes at every K >= 3 measured (3 at K = 2); every K
# up to 700 and at 1024-8192 lands within a few ulp of the earlier
# eigensolver's nodes (the cap is never reached).
_PHASE_STEP = 1e-8
_NEWTON_PASSES = 8

# The ten zeros of the Airy function Ai of least modulus (DLMF Table 9.9.1);
# past them the asymptotic series of DLMF 9.9.6 agrees with mpmath's
# airyaizero to 7e-15 (k = 11 to 30).
_AIRY_ZEROS = (
    -2.338107410459767, -4.087949444130971, -5.520559828095551, -6.786708090071759,
    -7.944133587120853, -9.022650853340980, -10.04017434155809, -11.00852430373326,
    -11.93601556323626, -12.82877675286576,
)


def _zero_seeds(count):
    """The K//2 positive zeros of h_K in ascending order, to 1.1e-9
    relative at K = 1024, 1.7e-11 at 8192 and 7.7e-7 at 64 (measured
    against the polished zeros).  They are the square roots of the zeros of
    the Laguerre polynomial L_m^(a), m = K//2, a = -1/2 for even K and +1/2
    for odd K (Szego, Orthogonal Polynomials, 5.6), with nu = 4m + 2a + 2.
    Every zero but the largest ceil(0.4 sqrt(K)) takes Tricomi's interior
    expansion, in which T_k solves T - sin T = (4m - 4k + 3) pi / nu; those
    take Gatteschi's edge expansion in the Airy zeros a_k (both as surveyed
    by Gatteschi, "Asymptotics and bounds for the zeros of Laguerre
    polynomials: a survey", J. Comput. Appl. Math. 144, 2002).  Near the
    largest zero the Tricomi seed errs by 1e-5 and the Airy seed by 4e-10
    (K = 1024) to 8e-14 (K = 8192), and the two cross about 0.37 sqrt(K)
    zeros from the top at every K from 64 to 8192."""
    m, a = count // 2, 0.5 if count % 2 else -0.5
    nu, k = 4.0 * m + 2.0 * a + 2.0, np.arange(1, m + 1)
    t = np.full(m, 0.5 * math.pi)
    rhs = (4.0 * m - 4.0 * k + 3.0) * math.pi / nu
    for _ in range(7):
        t -= (t - np.sin(t) - rhs) / (1.0 - np.cos(t))
    c = np.cos(0.5 * t) ** 2
    seeds = np.sqrt(nu * c - (1.25 / (1.0 - c) ** 2 - 1.0 / (1.0 - c) - 1.0 + 3.0 * a * a) / (3.0 * nu))
    top = min(m, math.ceil(0.4 * math.sqrt(count)))
    z = 0.375 * math.pi * (4.0 * np.arange(1, top + 1) - 1.0)
    airy = -z ** (2.0 / 3.0) * (
        1.0 + 5.0 / 48.0 * z**-2 - 5.0 / 36.0 * z**-4 + 77125.0 / 82944.0 * z**-6
        - 108056875.0 / 6967296.0 * z**-8 + 162375596875.0 / 334430208.0 * z**-10
    )
    airy[:10] = _AIRY_ZEROS[:top]
    seeds[m - top :] = np.sqrt(
        nu + 2.0 ** (2.0 / 3.0) * airy * nu ** (1.0 / 3.0)
        + 0.2 * 2.0 ** (4.0 / 3.0) * airy**2 * nu ** (-1.0 / 3.0)
        + (11.0 / 35.0 - a * a - 12.0 / 175.0 * airy**3) / nu
        + (16.0 / 1575.0 * airy + 92.0 / 7875.0 * airy**4) * 2.0 ** (2.0 / 3.0) * nu ** (-5.0 / 3.0)
        - (15152.0 / 3031875.0 * airy**5 + 1088.0 / 121275.0 * airy**2) * 2.0 ** (1.0 / 3.0) * nu ** (-7.0 / 3.0)
    )[::-1]
    return seeds


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
    the Gauss-Hermite rule of N + d nodes for an exact map, the one its
    search accepts for any other weight, else stage_grid(final_stage) (a
    bump, a custom kernel, a weight past the search's ceiling).  A built-in
    map's ``final_stage`` must be
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
    n_max + d nodes, any other weight on the Gauss-Hermite rule its search
    accepts (n_max + 64 to 4 n_max + 64 nodes), a bump, or a weight past the
    search's ceiling, on that stage's composite grid (>= 10 n_max nodes;
    operators._ladder_grid).

    ``n_max`` must be 8 times a power of two so the ladder is a clean
    doubling sequence, and an integer (TypeError otherwise).
    """
    n = n_max = operator.index(n_max)
    while n > 8 and n % 2 == 0:
        n //= 2
    if n != 8:
        raise InvalidConfigError(f"n_max must be 8 * 2^k, got {n_max}")
    return RefinementLadder(tuple(8 << j for j in range((n_max // 8).bit_length())), default_stage(n_max))
