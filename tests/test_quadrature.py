import math

import numpy as np
import pytest

from riggedframes import (
    DimensionMismatchError,
    InvalidConfigError,
    build_grid,
    bulk_half_width,
    default_ladder,
    default_stage,
    hermite_eval,
    hermite_grid,
    hermite_table,
    l2x_inner,
    l2x_norm,
    stage_grid,
)
from riggedframes.hermite import _hermite_recurrence
from riggedframes.quadrature import LadderStage, RefinementLadder


class TestBuildGrid:
    def test_polynomial_exactness(self):
        grid = build_grid(1.0, 1, 2)
        assert np.sum(grid.weights * grid.nodes**2) == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_total_weight_is_interval_length(self):
        grid = build_grid(5.0, 10, 8)
        assert np.sum(grid.weights) == pytest.approx(10.0, rel=1e-12)

    def test_gaussian_normalization(self):
        grid = build_grid(16.0, 60, 10)
        values = hermite_eval(0, grid.nodes)
        assert np.sum(grid.weights * values**2) == pytest.approx(1.0, abs=1e-12)

    def test_nodes_sorted_inside_interval_weights_positive(self):
        grid = build_grid(3.0, 7, 4)
        assert np.all(np.diff(grid.nodes) > 0)
        assert grid.nodes[0] > -3.0 and grid.nodes[-1] < 3.0
        assert np.all(grid.weights > 0)

    def test_symmetry(self):
        grid = build_grid(4.0, 9, 6)
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert np.array_equal(grid.weights, grid.weights[::-1])

    @pytest.mark.parametrize("panels, order", [(9, 5), (8, 5), (1, 3), (1, 2), (25, 10)])
    def test_mirror_symmetric_bit_for_bit(self, panels, order):
        grid = build_grid(4.0, panels, order)
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert np.array_equal(grid.weights, grid.weights[::-1])
        if grid.node_count % 2:
            assert grid.nodes[grid.node_count // 2] == 0.0

    @pytest.mark.parametrize("n", [8, 64, 512, 2048])
    def test_default_stage_grids_are_mirror_symmetric(self, n):
        grid = stage_grid(default_stage(n))
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert np.array_equal(grid.weights, grid.weights[::-1])

    def test_refinement_keeps_polynomial_integrals(self):
        poly = lambda x: 3 * x**4 - x**2 + 0.5
        coarse = build_grid(2.0, 3, 5)
        fine = build_grid(2.0, 12, 8)
        a = np.sum(coarse.weights * poly(coarse.nodes))
        b = np.sum(fine.weights * poly(fine.nodes))
        assert a == pytest.approx(b, rel=1e-13)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"half_width": -1.0, "panels": 2, "order": 4},
            {"half_width": 0.0, "panels": 2, "order": 4},
            {"half_width": 1.0, "panels": 0, "order": 4},
            {"half_width": 1.0, "panels": 2, "order": 1},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(InvalidConfigError):
            build_grid(**kwargs)


class TestHermiteGrid:
    @pytest.mark.parametrize("count", [8, 16, 20])
    def test_nodes_and_weights_match_mpmath(self, count):
        """mpmath's Gauss-Hermite rule for e^(-x^2) at 40 digits: the same
        nodes, and weights w_j with lambda_j = w_j e^(x_j^2)."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            nodes, weights = mpmath.mp.gauss_quadrature(count, "hermite")
            expected = [(float(x), float(w * mpmath.exp(x * x))) for x, w in zip(nodes, weights)]
        grid = hermite_grid(count)
        assert np.abs(grid.nodes - [x for x, _ in expected]).max() <= 1e-14
        assert np.abs(grid.weights / [w for _, w in expected] - 1.0).max() <= 1e-14

    @pytest.mark.parametrize("count", [64, 1024])
    def test_weighted_table_is_orthogonal(self, count):
        grid = hermite_grid(count)
        q = np.sqrt(grid.weights)[:, None] * hermite_table(count, grid.nodes)
        assert np.abs(q.T @ q - np.eye(count)).max() <= 1e-13

    @pytest.mark.parametrize("count", [64, 1024, 4096])
    def test_nodes_match_mpmath_zeros(self, count):
        """Zeros of h_K refined by Newton on its polynomial part at 40 digits
        from each node: the smallest four, the largest four and every
        (K/32)-th positive zero, against the rule to 2 ulp of max(x, 1).
        Newton on a float recurrence leaves an absolute error of order eps,
        so the smallest zeros read up to 10 ulp of x (3e-17) at K = 4096."""
        mpmath = pytest.importorskip("mpmath")
        positive = hermite_grid(count).nodes[count // 2 :]
        picks = sorted({*range(4), *range(0, positive.size, count // 32), *range(positive.size - 4, positive.size)})
        with mpmath.workdps(40):
            steps = [(mpmath.sqrt(mpmath.mpf(2) / (n + 1)), mpmath.sqrt(mpmath.mpf(n) / (n + 1))) for n in range(count)]
            zeros = []
            for x in (mpmath.mpf(float(positive[j])) for j in picks):
                for _ in range(2):
                    before, current = mpmath.mpf(1), mpmath.sqrt(2) * x
                    for up, down in steps[1:]:
                        before, current = current, x * up * current - down * before
                    x -= current / (mpmath.sqrt(2 * count) * before)
                zeros.append(float(x))
        error = np.abs(positive[picks] - zeros)
        assert np.all(error <= 2 * np.spacing(np.maximum(positive[picks], 1.0)))

    @pytest.mark.parametrize("count", [64, 1025, 4096, 8192])
    def test_first_and_last_columns_are_orthonormal(self, count):
        """The first and last four columns of sqrt(lambda_j) h_n(x_j), the
        ones that meet the smallest and the largest zeros hardest, are
        orthonormal to 1e-13 up to K = 8192 (the last four read off a
        four-row recurrence buffer)."""
        grid = hermite_grid(count)
        last = np.empty((4, count))
        _hermite_recurrence(count, grid.nodes, last)
        columns = np.concatenate([hermite_table(4, grid.nodes), last[[(count - 4 + i) % 4 for i in range(4)]].T], axis=1)
        q = np.sqrt(grid.weights)[:, None] * columns
        assert np.abs(q.T @ q - np.eye(8)).max() <= 1e-13

    def test_cached_and_read_only(self):
        grid = hermite_grid(16)
        assert hermite_grid(16) is grid
        for arr in (grid.nodes, grid.weights):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("count, order", [(1, 1), (2, 2), (3, 1), (6, 2), (8, 4), (9, 1), (64, 4)])
    def test_mirrored_in_cells_inside_the_turning_point(self, count, order):
        """Nodes and weights mirror bit for bit (an odd count puts a node at
        exactly 0), in cells of gcd(K, 4) nodes, inside sqrt(2K + 1)."""
        grid = hermite_grid(count)
        assert np.array_equal(grid.nodes, -grid.nodes[::-1])
        assert np.array_equal(grid.weights, grid.weights[::-1])
        assert (grid.order, grid.panels * grid.order) == (order, count)
        assert np.all(np.diff(grid.nodes) > 0) and np.all(grid.weights > 0)
        assert grid.half_width == bulk_half_width(count) > grid.nodes[-1]

    @pytest.mark.parametrize("count", [0, -2])
    def test_refuses_an_empty_rule(self, count):
        with pytest.raises(InvalidConfigError, match="node count must be >= 1"):
            hermite_grid(count)


class TestL2X:
    def test_constant_functions(self):
        grid = build_grid(3.0, 5, 4)
        ones = np.ones(grid.node_count)
        assert l2x_inner(ones, ones, grid) == pytest.approx(6.0, rel=1e-13)

    def test_sampled_hermites_orthogonal(self):
        grid = build_grid(12.0, 40, 8)
        h0 = hermite_eval(0, grid.nodes)
        h1 = hermite_eval(1, grid.nodes)
        assert abs(l2x_inner(h0, h1, grid)) <= 1e-12

    def test_cauchy_schwarz(self):
        grid = build_grid(2.0, 4, 5)
        rng = np.random.default_rng(0)
        for _ in range(25):
            xi = rng.standard_normal(grid.node_count) + 1j * rng.standard_normal(grid.node_count)
            eta = rng.standard_normal(grid.node_count) + 1j * rng.standard_normal(grid.node_count)
            bound = l2x_norm(xi, grid) * l2x_norm(eta, grid)
            assert abs(l2x_inner(xi, eta, grid)) <= bound * (1 + 1e-12)

    def test_length_mismatch(self):
        grid = build_grid(2.0, 4, 5)
        with pytest.raises(DimensionMismatchError):
            l2x_norm(np.ones(grid.node_count + 1), grid)


class TestLadder:
    def test_single_stage(self):
        ladder = default_ladder(8)
        assert ladder.truncations == (8,)
        stage = ladder.final_stage
        assert stage.truncation == 8
        assert stage.half_width == pytest.approx(math.sqrt(17) + 8, rel=1e-12)
        assert stage_grid(stage).node_count >= 80

    def test_three_stages_widths_increase(self):
        """default_stage widens with N; the ladder sums every stage on one
        grid, its final stage's default one."""
        ladder = default_ladder(32)
        assert ladder.truncations == (8, 16, 32)
        assert ladder.final_stage == default_stage(32)
        widths = [default_stage(n).half_width for n in ladder.truncations]
        assert all(a < b for a, b in zip(widths, widths[1:]))
        assert all(stage_grid(default_stage(n)).node_count >= 10 * n for n in ladder.truncations)

    def test_every_stage_normalizes_top_mode(self):
        ladder = default_ladder(32)
        grid = stage_grid(ladder.final_stage)
        for n in ladder.truncations:
            values = hermite_eval(n - 1, grid.nodes)
            assert np.sum(grid.weights * values**2) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bad", [7, 12, 24, 0])
    def test_rejects_non_doubling_sizes(self, bad):
        with pytest.raises(InvalidConfigError):
            default_ladder(bad)

    @pytest.mark.parametrize("build, value", [(default_ladder, 16.0), (default_stage, 8.5), (default_stage, 8.0)])
    def test_rejects_a_non_integer_truncation(self, build, value):
        """default_stage(8.5) would build an N = 8 stage on N = 8.5's width,
        which is not default_stage(8); an integer of any type is taken."""
        with pytest.raises(TypeError):
            build(value)
        assert build(np.int64(16)) == build(16)

    def test_rejects_nonincreasing_stages(self):
        with pytest.raises(InvalidConfigError, match="must increase"):
            RefinementLadder((16, 8), default_stage(8))

    @pytest.mark.parametrize("truncations", [(), (0, 8), (8, 8), (8, 16)])
    def test_rejects_truncations_the_final_stage_does_not_close(self, truncations):
        with pytest.raises(InvalidConfigError, match="to the final stage's N=8"):
            RefinementLadder(truncations, default_stage(8))

    def test_rejects_half_width_inside_bulk(self):
        with pytest.raises(InvalidConfigError):
            LadderStage(truncation=32, half_width=bulk_half_width(32), panels=48, order=10)
