"""Property tests: the parity split of the stage Gram and of the passes,
and the stage bounds against the exact frame operator.

A polynomial weight with even magnitude (even coefficients only, or x times
such a polynomial) gives rows whose magnitudes agree bit for bit at mirrored
nodes of the stage grid, so the stage Gram sums the even and odd blocks of
S apart from the nodes x > 0; it is the one-block S of the full rows to
1e-14 B, so it has its spectrum and Bessel constants.  A weight with a
generic odd term, or one that vanishes on one side of a node pair only, is
summed from the nodes x > 0 too, with one even-odd cross block: its S is
one class, the one-block S to 1e-14 B.  For any polynomial weight of
degree <= 3, classify's final-stage A and B are those of the exact S, on
its Gauss-Hermite ladder grid and on the composite default stage alike.

A kernel sample_kernel splits runs analysis, synthesis, verify_duality and
reconstruct per parity class on its x > 0 rows; each agrees with the
one-block route on the same rows (a KernelMatrix built from them, which
never splits) for any parity-block-diagonal inverse X.
"""

from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from riggedframes import (  # noqa: E402
    DualPair,
    KernelMatrix,
    TestFunction,
    analysis,
    bump_dirac_map,
    classify,
    default_ladder,
    default_stage,
    dirac_derivative_map,
    dirac_map,
    fourier_map,
    frame_bounds,
    frame_operator,
    hermite_grid,
    reconstruct,
    sample_kernel,
    stage_grid,
    synthesis,
    verify_duality,
    weighted_dirac_map,
)
from riggedframes.acceptance import _exact_frame_operator  # noqa: E402
from riggedframes import operators  # noqa: E402
from riggedframes.kernels import _pair_split, _row_weight  # noqa: E402
from riggedframes.operators import _PARITY, _bessel_constant, _stage_operator  # noqa: E402

TRUNCATIONS = (8, 16, 32, 64, 128)
COEFFICIENT = st.floats(0.1, 3.0).map(lambda c: round(c, 3))
SIGN = st.sampled_from("+-")


def _polynomial(terms):
    """Weight expression sum of sign * c * x^power over (sign, c, power)."""
    return "".join(f"{sign}{c:.3f}*x^{power}" for sign, c, power in terms).lstrip("+")


def _terms(powers):
    return st.tuples(*(st.tuples(SIGN, COEFFICIENT, st.just(p)) for p in powers))


@given(
    terms=_terms((0, 2, 4)),
    odd_sign=st.booleans(),
    truncation=st.sampled_from(TRUNCATIONS),
)
def test_even_magnitude_weights_split_with_the_one_block_spectrum(terms, odd_sign, truncation):
    even = _polynomial(terms)
    spec = weighted_dirac_map(f"x*({even})" if odd_sign else even)
    grid = stage_grid(default_stage(truncation))
    split = _stage_operator(spec, grid, truncation)
    assert split.columns == _PARITY
    rows = sample_kernel(spec, grid, truncation).rows
    one = frame_operator(KernelMatrix(rows, grid))
    assert one.columns == (slice(None),)
    upper = frame_bounds(one)[1]
    assert np.abs(split.gram - one.gram).max() <= 1e-14 * upper
    for mine, theirs in zip(frame_bounds(split), frame_bounds(one)):
        assert abs(mine - theirs) <= 1e-14 * upper
    for k in range(4):
        assert abs(_bessel_constant(split, k) - _bessel_constant(one, k)) <= 1e-13 * np.sqrt(upper)


@given(
    even=_terms((0, 2)),
    odd=_terms((1, 3)),
    truncation=st.sampled_from(TRUNCATIONS),
)
def test_weights_with_a_generic_odd_term_take_one_block(even, odd, truncation):
    """The stage is sampled at the nodes x > 0 only, and its S, with its
    even-odd cross block, is one class: the one-block S of the held rows to
    1e-14 B."""
    spec = weighted_dirac_map(_polynomial(even + odd))
    grid = stage_grid(default_stage(truncation))
    op, sampled = _sampled_stage(spec, grid, truncation)
    assert op.columns == (slice(None),)
    assert sampled.size == grid.node_count // 2 and (sampled > 0).all()
    one = _one_block(spec, grid, truncation)
    assert np.abs(op.gram - one.gram).max() <= 1e-14 * frame_bounds(one)[1]


def _sampled_stage(spec, grid, truncation):
    """_stage_operator's S and every node it sampled, through _fill_rows."""
    sampled, fill_rows = [], operators._fill_rows

    def recording(spec, nodes, *args):
        sampled.append(nodes.copy())
        return fill_rows(spec, nodes, *args)

    with mock.patch.object(operators, "_fill_rows", recording):
        op = _stage_operator(spec, grid, truncation)
    return op, np.concatenate(sampled)


def _one_block(spec, grid, truncation):
    """frame_operator of sample_kernel's rows in one block (a KernelMatrix
    built from them never splits)."""
    kernel = sample_kernel(spec, grid, truncation)
    return frame_operator(KernelMatrix(kernel.rows, kernel.grid, phase=kernel.phase))


def _rho_q(spec, grid):
    """_pair_split's rho and q for a map on a stage grid at N = 64."""
    rho, q, _ = _pair_split(spec, grid, 64, _row_weight(spec, grid.nodes))
    return rho, q


@pytest.mark.parametrize("weight", ["x", "1-x^2"])
def test_pair_split_of_a_weight_even_in_magnitude(weight):
    """rho is |w| exactly and q is None; the held rows' sign s is -1
    exactly where the sign bits of w(x) and w(-x) differ."""
    spec, grid = weighted_dirac_map(weight), stage_grid(default_stage(64))
    w = _row_weight(spec, grid.nodes)
    rho, q, signs = _pair_split(spec, grid, 64, w)
    plus, minus = w[w.size // 2 :], w[: w.size // 2][::-1]
    assert (np.minimum(plus, minus) < 0).any()
    assert np.array_equal(rho, np.abs(plus)) and q is None
    flips = np.signbit(plus) != np.signbit(minus)
    assert np.array_equal(signs, np.where(flips, -1.0, 1.0))


@pytest.mark.parametrize(
    "weight", ["x", "1-x^2", "exp(-x^2)", "2+sin(x)", "10^-160*(2+sin(x))", "x^3-x+1"]
)
def test_sampled_signs_are_the_split_signs(weight):
    """sample_kernel reads its signs off the one parity rule: the stage
    rule's signs, and None (one block) where q is set."""
    spec, grid = weighted_dirac_map(weight), stage_grid(default_stage(64))
    _, q, signs = _pair_split(spec, grid, 64, _row_weight(spec, grid.nodes))
    sampled = sample_kernel(spec, grid, 64).signs
    if q is not None:
        assert signs is None and sampled is None
    else:
        assert np.array_equal(sampled, signs)


@pytest.mark.parametrize("scale", ["10^-160", "10^160"])
def test_pair_weights_scale_with_the_weight(scale):
    """rho and q are formed from the ratios to the larger magnitude: a weight
    scaled by c gives rho scaled by c and the same q, where squaring c w
    would underflow (1e-160) or overflow (1e160)."""
    grid = stage_grid(default_stage(64))
    rho, q = _rho_q(weighted_dirac_map(f"{scale}*(2+sin(x))"), grid)
    plain_rho, plain_q = _rho_q(weighted_dirac_map("2+sin(x)"), grid)
    c = float(scale.replace("10^", "1e"))
    assert np.abs(rho / c - plain_rho).max() <= 1e-15 * plain_rho.max()
    assert np.abs(q - plain_q).max() <= 1e-15


@pytest.mark.parametrize("support", [(-2.0, 1.0), (-1.0, 2.0)], ids=["bump[-2,1]", "bump[-1,2]"])
def test_pair_weights_of_a_weight_zero_on_one_side(support):
    """Where the weight vanishes at one node of a pair only, q is -1 or 1
    exactly and rho is the other magnitude over sqrt(2); where both vanish
    rho and q are 0."""
    spec, grid = bump_dirac_map(*support), stage_grid(default_stage(64))
    nodes = grid.nodes
    weight = _row_weight(spec, nodes)
    rho, q = _rho_q(spec, grid)
    plus, minus = weight[nodes.size // 2 :], weight[: nodes.size // 2][::-1]
    one_sided, neither = (plus == 0) != (minus == 0), (plus == 0) & (minus == 0)
    assert one_sided.any() and neither.any()
    assert np.array_equal(q[one_sided], np.where(plus[one_sided] == 0, -1.0, 1.0))
    assert np.array_equal(rho[one_sided], np.maximum(plus, minus)[one_sided] * np.sqrt(0.5))
    assert not rho[neither].any() and not q[neither].any()


@given(
    terms=_terms((0, 1, 2, 3)),
    degree=st.integers(0, 3),
    parity=st.sampled_from((0, 1, None)),
    n_max=st.sampled_from((8, 16, 32, 64)),
)
def test_final_stage_bounds_match_the_exact_frame_operator(terms, degree, parity, n_max):
    """classify's final-stage A and B for a random polynomial weight of
    degree <= 3, even (parity 0), odd (1) or neither, against eigvalsh of
    the exact S of p(x) delta_x, to 1e-12 B: the Gram route, its parity
    split and the resolution clamp add nothing above rounding.  The default
    ladder sums its S on the Gauss-Hermite rule of N + deg p nodes rounded
    up to even; the final stage's composite grid is held to the same."""
    kept = [t for t in terms if t[2] <= degree and parity in (None, t[2] % 2)] or [terms[parity or 0]]
    coeffs = [0.0] * (max(power for _, _, power in kept) + 1)
    for sign, c, power in kept:
        coeffs[power] = -c if sign == "-" else c
    spec, stage = weighted_dirac_map(_polynomial(kept)), default_stage(n_max)
    count = n_max + len(coeffs) - 1
    assert operators._ladder_grid(spec, stage) is hermite_grid(count + count % 2)
    final = classify(spec, default_ladder(n_max)).stages[-1]
    composite = operators._resolved_bounds(_stage_operator(spec, stage_grid(stage), n_max))
    exact = np.linalg.eigvalsh(_exact_frame_operator(coeffs, 0, n_max))
    for lower, upper in ((final.lower, final.upper), composite):
        assert abs(upper - exact[-1]) <= 1e-12 * exact[-1]
        assert abs(lower - exact[0]) <= 1e-12 * exact[-1]


MIRRORED_MAPS = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "x": weighted_dirac_map("x"),
    "1+x^2": weighted_dirac_map("1+x^2"),
    "exp(-x^2)": weighted_dirac_map("exp(-x^2)"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}


def _close(mine, theirs):
    """Equal to 1e-13 relative to the largest entry of the one-block result."""
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    return np.abs(mine - theirs).max() <= 1e-13 * np.abs(theirs).max()


@given(
    half=st.integers(1, 64),
    family=st.sampled_from(list(MIRRORED_MAPS)),
    columns=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_passes_match_the_one_block_route(half, family, columns, seed):
    truncation = 2 * half
    kernel = sample_kernel(MIRRORED_MAPS[family], stage_grid(default_stage(truncation)), truncation)
    one = KernelMatrix(kernel.rows, kernel.grid, kernel.map_spec, phase=kernel.phase)
    assert kernel.signs is not None and one.signs is None
    rng = np.random.default_rng(seed)

    def complex_normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    functions = [TestFunction(complex_normal(truncation)) for _ in range(columns)]
    for f in functions:
        assert _close(analysis(kernel, f), analysis(one, f))
        xi = complex_normal(kernel.node_count)
        assert _close(synthesis(kernel, xi).pairings, synthesis(one, xi).pairings)
    # any inverse with exact zeros between the parity blocks, as canonical_dual's
    inverse = np.zeros((truncation, truncation))
    for c in (slice(0, None, 2), slice(1, None, 2)):
        size = len(range(truncation)[c])
        inverse[c, c] = rng.standard_normal((size, size))
    pairs = [DualPair(omega, None, inverse=inverse) for omega in (kernel, one)]
    mine, theirs = (verify_duality(pair, columns, seed) for pair in pairs)
    assert abs(mine - theirs) <= 1e-13 * theirs
    mine, theirs = (verify_duality(DualPair(omega, omega), columns, seed) for omega in (kernel, one))
    assert abs(mine - theirs) <= 1e-13 * max(theirs, 1.0)
    for mine, theirs in zip(*(reconstruct(pair, functions) for pair in pairs)):
        assert _close([g.coeffs for g, _ in mine], [g.coeffs for g, _ in theirs])
        assert _close([err for _, err in mine], [err for _, err in theirs])
