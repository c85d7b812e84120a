import math

import numpy as np
import pytest

from riggedframes import (
    InvalidConfigError,
    KernelMatrix,
    TestFunction,
    analysis,
    bump_dirac_map,
    canonical_dual,
    coarse_synthesis_grid,
    continuity_constant,
    default_ladder,
    default_stage,
    dirac_derivative_map,
    dirac_map,
    dual_bessel_check,
    envelope,
    envelope_condition_check,
    fourier_map,
    gelfand_check,
    hermite_grid,
    l2x_norm,
    random_test_function,
    rf_diagnostic,
    sample_kernel,
    seminorm,
    solve_moment,
    stage_grid,
    totality_test,
    weighted_analysis_matrix,
    weighted_dirac_map,
)
from riggedframes.operators import ClassifyThresholds, _series_trend

SEED = 20240409


def make_kernel(spec, truncation):
    return sample_kernel(spec, stage_grid(default_stage(truncation)), truncation)


def coarse_kernel(spec, truncation):
    return sample_kernel(spec, coarse_synthesis_grid(truncation), truncation)


def wide_kernel(spec, truncation):
    """The map on N/2 Gauss-Hermite nodes: fewer rows than columns, so the
    weighted rows have a null space of dimension N/2."""
    return sample_kernel(spec, hermite_grid(truncation // 2), truncation)


class TestSolveMoment:
    def test_full_grid_recovery_unique(self):
        # on the dense grid the dirac analysis matrix has full column rank,
        # so consistent targets pin the solution uniquely
        kernel = make_kernel(dirac_map(), 16)
        rng = np.random.default_rng(SEED)
        f0 = random_test_function(16, rng)
        target = analysis(kernel, f0)
        solution = solve_moment(kernel, target)
        assert solution.residual <= 1e-10
        assert np.abs(solution.f.coeffs - f0.coeffs).max() <= 1e-8
        assert solution.null_dim == 0

    def test_zero_target(self):
        kernel = make_kernel(dirac_map(), 8)
        solution = solve_moment(kernel, np.zeros(kernel.node_count))
        assert solution.f.norm() == 0.0
        assert solution.residual == 0.0

    def test_bump_unreachable_target(self):
        kernel = coarse_kernel(bump_dirac_map(-1.0, 1.0), 32)
        grid = kernel.grid
        target = np.where(np.abs(grid.nodes) > 1.5, 1.0, 0.0)
        target /= l2x_norm(target, grid)
        solution = solve_moment(kernel, target)
        assert solution.residual == pytest.approx(1.0, abs=1e-10)

    def test_coset_shift_invariance(self):
        kernel = wide_kernel(dirac_map(), 32)
        weighted = weighted_analysis_matrix(kernel)
        _, _, vh = np.linalg.svd(weighted)
        null_vec = vh[-1].conj()  # exact null direction (M < N)
        rng = np.random.default_rng(SEED)
        f0 = random_test_function(32, rng)
        target = analysis(kernel, f0)
        base = solve_moment(kernel, target)
        shifted = solve_moment(
            kernel, analysis(kernel, TestFunction(f0.coeffs + 3.0 * null_vec))
        )
        assert abs(base.residual - shifted.residual) <= 1e-10
        assert base.null_dim == 16
        # the least-norm representative is orthogonal to the null space
        assert abs(np.vdot(null_vec, base.f.coeffs)) <= 1e-8 * base.f.norm()


class TestRfDiagnostic:
    def test_dirac_coarse_score_one(self):
        kernel = coarse_kernel(dirac_map(), 32)
        score, worst = rf_diagnostic(kernel)
        assert score == 1.0
        assert worst <= 1e-6

    def test_bump_misses_offsupport_probes(self):
        kernel = coarse_kernel(bump_dirac_map(-1.0, 1.0), 32)
        score, worst = rf_diagnostic(kernel)
        assert score < 1.0
        assert worst == pytest.approx(1.0, abs=1e-8)

    def test_zero_kernel_scores_zero(self):
        base = coarse_kernel(dirac_map(), 32)
        zero = KernelMatrix(np.zeros_like(base.entries), base.grid, None)
        score, worst = rf_diagnostic(zero)
        assert score == 0.0
        assert worst == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [dirac_map(), bump_dirac_map(-1.0, 1.0)], ids=["dirac", "bump"])
    def test_block_solve_matches_per_probe_solves(self, spec):
        kernel = coarse_kernel(spec, 32)
        grid = kernel.grid
        targets = np.zeros((grid.node_count, grid.panels))
        for panel in range(grid.panels):
            targets[panel * grid.order : (panel + 1) * grid.order, panel] = 1.0
            targets[:, panel] /= l2x_norm(targets[:, panel], grid)
        single = np.array([solve_moment(kernel, t).residual for t in targets.T])
        score, worst = rf_diagnostic(kernel)
        assert worst == pytest.approx(single.max(), abs=1e-12)
        assert score == np.mean(single <= 1e-6)


class TestContinuityConstant:
    def test_dirac_isometry(self):
        assert continuity_constant(make_kernel(dirac_map(), 32), 0) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_weighted_bounded_by_inverse_lower_weight(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 32)
        constant = continuity_constant(kernel, 0)
        assert 1.0 / 3.0 - 1e-8 <= constant <= 1.0 + 1e-8
        # oracle: the constant is exactly the reciprocal smallest singular value
        svals = np.linalg.svd(weighted_analysis_matrix(kernel), compute_uv=False)
        assert constant == pytest.approx(1.0 / svals[-1], rel=1e-8)

    def test_derivative_growth_profile(self):
        c0, c1 = [], []
        for truncation in (8, 16, 32, 64):
            kernel = make_kernel(dirac_derivative_map(), truncation)
            c0.append(continuity_constant(kernel, 0))
            c1.append(continuity_constant(kernel, 1))
        assert all(np.isfinite(c) for c in c1)
        ratios = [b / a for a, b in zip(c0, c0[1:])]
        assert all(r >= 1.3 for r in ratios)

    def test_zero_kernel_signals_infinity(self):
        base = make_kernel(dirac_map(), 8)
        zero = KernelMatrix(np.zeros_like(base.entries), base.grid, None)
        assert continuity_constant(zero, 0) == math.inf

    def test_solution_bound_realized(self):
        # p_0(solution) <= C * |analysis(solution)| over random functions
        kernel = make_kernel(dirac_map(), 16)
        constant = continuity_constant(kernel, 0)
        rng = np.random.default_rng(SEED)
        for _ in range(100):
            f = random_test_function(16, rng)
            target = analysis(kernel, f)
            solution = solve_moment(kernel, target).f
            lhs = seminorm(solution, 0)
            rhs = constant * l2x_norm(analysis(kernel, solution), kernel.grid)
            assert lhs <= rhs * (1 + 1e-8)


class TestEnvelope:
    def test_dirac_closed_form(self):
        kernel = make_kernel(dirac_map(), 12)
        profile = envelope(kernel, 0)
        expected = np.sqrt(np.sum(np.abs(kernel.entries) ** 2, axis=1))
        assert profile == pytest.approx(expected, rel=1e-14)

    def test_zero_row_gives_zero(self):
        kernel = coarse_kernel(bump_dirac_map(-1.0, 1.0), 32)
        outside = np.abs(kernel.grid.nodes) >= 1.0
        assert np.all(envelope(kernel, 0)[outside] == 0.0)

    def test_scaling_homogeneity(self):
        kernel = make_kernel(dirac_map(), 8)
        scaled = KernelMatrix(2.5j * kernel.entries, kernel.grid, None)
        assert envelope(scaled, 1) == pytest.approx(2.5 * envelope(kernel, 1), rel=1e-14)

    def test_necessity_with_witness(self):
        kernel = make_kernel(dirac_map(), 16)
        rng = np.random.default_rng(SEED)
        f0 = random_test_function(16, rng)
        target = analysis(kernel, f0)
        for k in (0, 1, 3):
            satisfied, radius = envelope_condition_check(kernel, target, k)
            assert satisfied
            assert radius <= seminorm(f0, k) * (1 + 1e-6)

    def test_unreachable_target_detected(self):
        kernel = coarse_kernel(bump_dirac_map(-1.0, 1.0), 32)
        target = np.where(np.abs(kernel.grid.nodes) > 1.5, 1.0, 0.0)
        satisfied, radius = envelope_condition_check(kernel, target, 0)
        assert not satisfied
        assert radius == math.inf

    def test_zero_target(self):
        kernel = make_kernel(dirac_map(), 8)
        satisfied, radius = envelope_condition_check(
            kernel, np.zeros(kernel.node_count), 2
        )
        assert satisfied
        assert radius == 0.0

    def test_every_solved_instance_passes_for_all_k(self):
        kernel = coarse_kernel(dirac_map(), 16)
        rng = np.random.default_rng(SEED)
        for _ in range(20):
            f0 = random_test_function(16, rng)
            target = analysis(kernel, f0)
            solution = solve_moment(kernel, target)
            assert solution.residual <= 1e-10
            for k in range(5):
                satisfied, radius = envelope_condition_check(kernel, target, k)
                assert satisfied
                assert radius <= seminorm(f0, k) * (1 + 1e-6)


class TestDualBessel:
    def test_dirac_witness_zero(self):
        result = dual_bessel_check(make_kernel(dirac_map(), 16))
        assert result.bessel
        assert result.seminorm_index == 0
        assert result.constant == pytest.approx(1.0, abs=1e-8)

    def test_weighted_witness_zero(self):
        result = dual_bessel_check(make_kernel(weighted_dirac_map("2+sin(x)"), 16))
        assert result.bessel
        assert result.seminorm_index == 0
        # dual analysis is bounded by the reciprocal lower weight
        assert result.constant <= 1.0 + 1e-8

    @pytest.mark.parametrize(
        "spec",
        [dirac_map(), weighted_dirac_map("2+sin(x)"), fourier_map(), weighted_dirac_map("1+x^2"),
         dirac_derivative_map()],
    )
    def test_matches_eager_reference(self, spec):
        """Same index as forming every seminorm index's series of constants of
        a per-stage canonical dual, on the ladder's one grid, and picking the
        first bounded one, and the
        same constant to 1e-14 + 1e-15 cond(S) relative, cond(S) of the last
        stage's frame operator."""
        thresholds = ClassifyThresholds()
        for n_max in (32, 128):
            ladder = default_ladder(n_max)
            series = {k: [] for k in range(thresholds.bessel_k_max + 1)}
            for n in ladder.truncations:
                pair = canonical_dual(sample_kernel(spec, stage_grid(ladder.final_stage), n))
                weighted = weighted_analysis_matrix(pair.theta)
                damping = 1.0 + np.arange(n)
                for k in series:
                    damped = weighted * (damping ** (-k / 2.0))[None, :]
                    series[k].append(np.linalg.svd(damped, compute_uv=False)[0])
            lower, upper = pair.omega_bounds
            trends = {k: _series_trend(v, ladder.truncations, thresholds, 0.0) for k, v in series.items()}
            bounded = [k for k, trend in trends.items() if trend == "bounded"]
            result = dual_bessel_check(make_kernel(spec, n_max))
            # dirac_derivative's dual series are bounded for no k <= bessel_k_max
            assert result.seminorm_index == (bounded[0] if bounded else -1)
            if bounded:
                expected = series[bounded[0]][-1]
                tol = 1e-14 + 1e-15 * upper / lower
                assert abs(result.constant - expected) <= tol * expected

    @pytest.mark.parametrize(
        "spec",
        [dirac_map(), weighted_dirac_map("2+sin(x)"), fourier_map(), weighted_dirac_map("1+x^2"),
         dirac_derivative_map()],
    )
    def test_constants_match_the_block_loop_bit_for_bit(self, monkeypatch, spec):
        """Each stage's theta operator is its canonical dual's inverse X, the
        same array, bit for bit, as a loop that factors each diagonal block
        of the stage's S, inverts R and forms R^-1 R^-H, and so is every
        constant read off it."""
        from riggedframes import moments, operators
        from riggedframes.duality import _triangular_inverse

        expected = []
        for stage in operators.classify(spec, default_ladder(128)).stages:
            op = stage.operator
            blocks = []
            for c in op.columns:
                inverse = _triangular_inverse(np.linalg.cholesky(op.gram[c, c]).conj().T)
                blocks.append(inverse @ inverse.conj().T)
            expected.append(operators.FrameOperatorMatrix(operators._block_diagonal(blocks, op.columns)))
        tops = [operators._bessel_constant(x, 0) for x in expected]
        index, constant, _ = operators._bessel_search(expected, tops, ClassifyThresholds())
        searched, search = [], moments._bessel_search

        def recording(grams, *args):
            searched.append(grams)
            return search(grams, *args)

        monkeypatch.setattr(moments, "_bessel_search", recording)
        result = dual_bessel_check(make_kernel(spec, 128))
        (grams,) = searched
        assert len(grams) == len(expected)
        assert all(np.array_equal(mine.gram, theirs.gram) for mine, theirs in zip(grams, expected))
        assert result.seminorm_index == (-1 if index is None else index)
        assert result.constant == (math.inf if constant is None else constant)

    def test_reads_the_dual_off_the_walk_factor(self, monkeypatch):
        """The dual is read off each stage's S, not built as a canonical dual:
        no QR, no eigh and no frame_operator of a sampled kernel, and one
        Cholesky factor per diagonal block of each stage's S, split as the
        stage is (2+sin(x) in one block, dirac in its two parity blocks).
        (The grids' Gauss-Legendre nodes come from numpy's own eigvalsh.)"""
        from riggedframes import duality, operators

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"dual_bessel_check called {name}")

            return call

        for family, blocks in ((weighted_dirac_map("2+sin(x)"), 1), (dirac_map(), 2)):
            shapes = []
            cholesky = np.linalg.cholesky

            def recording_cholesky(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return cholesky(a, *args, **kwargs)

            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "cholesky", recording_cholesky)
                for name in ("eigh", "qr"):
                    patch.setattr(np.linalg, name, refused(name))
                patch.setattr(operators, "frame_operator", refused("frame_operator"))
                patch.setattr(duality, "frame_operator", refused("frame_operator"))
                assert dual_bessel_check(make_kernel(family, 64)).bessel
            truncations = default_ladder(64).truncations
            assert shapes == [(n // blocks,) * 2 for n in truncations for _ in range(blocks)]

    def test_walks_the_ladder_once(self, monkeypatch):
        """classify's walk is the one walk: one Gram for the ladder, at its
        final stage."""
        from riggedframes import operators

        built, stage_operator = [], operators._stage_operator

        def recording(*args):
            built.append(stage_operator(*args))
            return built[-1]

        monkeypatch.setattr(operators, "_stage_operator", recording)
        for spec in (weighted_dirac_map("2+sin(x)"), dirac_map()):
            built.clear()
            assert dual_bessel_check(make_kernel(spec, 64)).bessel
            assert [op.truncation for op in built] == [64]

    def test_runs_no_bessel_search_of_omega(self, monkeypatch):
        """dual_bessel_check reads no label of omega, so it runs the walk
        without classify's Bessel search of omega's stages: the one search
        it runs is theta's, through its own binding."""
        from riggedframes import moments, operators

        searched, search = [], moments._bessel_search

        def refused(*args):
            raise AssertionError("omega's Bessel series was searched")

        def recording(grams, *args):
            searched.append(grams)
            return search(grams, *args)

        monkeypatch.setattr(operators, "_bessel_search", refused)
        monkeypatch.setattr(moments, "_bessel_search", recording)
        assert dual_bessel_check(make_kernel(weighted_dirac_map("1+x^2"), 64)).bessel
        assert len(searched) == 1

    def test_refuses_in_order_before_the_walk(self, monkeypatch):
        """_walkable_ladder refuses first, then the rf precondition, each
        with its own message and before any stage Gram is formed."""
        from riggedframes import operators

        def refused(*args):
            raise AssertionError("a stage Gram was formed")

        monkeypatch.setattr(operators, "_stage_operator", refused)
        bump = bump_dirac_map(-1.0, 1.0)
        kernel = make_kernel(bump, 16)
        with pytest.raises(InvalidConfigError, match="^dual_bessel_check walks a ladder from N=8, got N=4$"):
            dual_bessel_check(make_kernel(bump, 4))
        message = "^dual_bessel_check walks a ladder and needs a resamplable map spec$"
        with pytest.raises(InvalidConfigError, match=message):
            dual_bessel_check(KernelMatrix(kernel.rows, kernel.grid))
        message = r"^moment-solvability precondition unmet: rf score 0\.\d{3}, worst residual \d\.\d{3}e[+-]\d\d$"
        with pytest.raises(InvalidConfigError, match=message):
            dual_bessel_check(kernel)

    def test_fourier_equals_dirac_to_the_bit(self):
        """fourier's dual rows are dirac's; its column phase leaves every
        singular value alone and is not factored."""
        fourier = dual_bessel_check(make_kernel(fourier_map(), 128))
        dirac = dual_bessel_check(make_kernel(dirac_map(), 128))
        assert fourier == dirac

    def test_single_stage_certifies_nothing(self):
        # an N = 8 kernel walks the one-stage ladder (8,)
        result = dual_bessel_check(make_kernel(dirac_map(), 8))
        assert not result.bessel
        assert result.seminorm_index == -1

    def test_spec_less_kernel_with_more_nodes_than_coefficients_rejected(self):
        """A kernel with no map spec has no ladder to walk: that refusal comes
        first, before its node count is read."""
        kernel = make_kernel(dirac_map(), 8)
        message = "^dual_bessel_check walks a ladder and needs a resamplable map spec$"
        with pytest.raises(InvalidConfigError, match=message):
            dual_bessel_check(KernelMatrix(kernel.rows, kernel.grid))

    def test_bump_precondition_rejected(self):
        kernel = make_kernel(bump_dirac_map(-1.0, 1.0), 16)
        with pytest.raises(InvalidConfigError, match="moment-solvability precondition unmet"):
            dual_bessel_check(kernel)


CONTINUITY_FAMILIES = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "2+sin(x)": weighted_dirac_map("2+sin(x)"),
    "1+x^2": weighted_dirac_map("1+x^2"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}


def _tall_svd_continuity(kernel, k):
    """Reference continuity constant from a direct SVD of sqrt(W) Omega."""
    _, svals, vh = np.linalg.svd(weighted_analysis_matrix(kernel), full_matrices=False)
    keep = svals > 1e-10 * svals[0]
    growth = (1.0 + np.arange(kernel.truncation)) ** (k / 2.0)
    scaled = (growth[:, None] * vh[keep].conj().T) / svals[keep][None, :]
    return float(np.linalg.svd(scaled, compute_uv=False)[0])


@pytest.mark.parametrize("truncation", [16, 64])
@pytest.mark.parametrize("family", list(CONTINUITY_FAMILIES))
def test_continuity_constant_from_r_matches_tall_svd(monkeypatch, family, truncation):
    spec = CONTINUITY_FAMILIES[family]
    kernels = (make_kernel(spec, truncation), wide_kernel(spec, truncation))
    expected = [[_tall_svd_continuity(kernel, k) for k in range(3)] for kernel in kernels]
    shapes = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    for kernel, reference in zip(kernels, expected):
        for k in range(3):
            assert continuity_constant(kernel, k) == pytest.approx(reference[k], rel=1e-12)
    assert shapes and all(rows <= cols for rows, cols in shapes)


def _looped_envelope_condition(kernel, h, k):
    """Reference per-node loop for envelope_condition_check."""
    ratio = 0.0
    for hj, ej in zip(np.abs(h), envelope(kernel, k)):
        if ej == 0.0:
            if hj != 0.0:
                return False, math.inf
        else:
            ratio = max(ratio, hj / ej)
    return True, float(ratio)


@pytest.mark.parametrize("k", [0, 1, 3])
def test_envelope_condition_check_matches_per_node_loop(k):
    kernel = coarse_kernel(bump_dirac_map(-1.0, 1.0), 32)
    profile = envelope(kernel, k)
    rng = np.random.default_rng(SEED)
    inside = np.where(profile > 0.0, rng.standard_normal(kernel.node_count), 0.0)
    outside = inside + np.where(profile == 0.0, 1e-300, 0.0)
    assert np.any(profile == 0.0)
    for target in (inside, 1j * inside, outside, np.zeros(kernel.node_count)):
        assert envelope_condition_check(kernel, target, k) == _looped_envelope_condition(
            kernel, target, k
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_envelope_condition_check_rejects_non_finite_target(bad):
    kernel = make_kernel(dirac_map(), 8)
    target = np.ones(kernel.node_count)
    target[3] = bad
    with pytest.raises(InvalidConfigError):
        envelope_condition_check(kernel, target, 0)


def _projection_reference(kernel):
    """rf_diagnostic's probes projected onto the range of a thin SVD of
    sqrt(W) Omega (same cutoff), one l2x-normalized panel indicator at a
    time: (score, residual per probe)."""
    grid = kernel.grid
    u, svals, _ = np.linalg.svd(weighted_analysis_matrix(kernel), full_matrices=False)
    basis = u[:, svals > 1e-10 * svals[0]]
    residuals = []
    for panel in range(grid.panels):
        target = np.zeros(grid.node_count)
        target[panel * grid.order : (panel + 1) * grid.order] = 1.0
        target /= l2x_norm(target, grid)
        probe = np.sqrt(grid.weights) * target
        residuals.append(np.linalg.norm(probe - basis @ (basis.conj().T @ probe)) / l2x_norm(target, grid))
    residuals = np.array(residuals)
    return float(np.mean(residuals <= 1e-6)), residuals


class TestRfRankRule:
    @pytest.mark.parametrize(
        "spec",
        [dirac_map(), weighted_dirac_map("2+sin(x)"), dirac_derivative_map()],
        ids=["dirac", "2+sin(x)", "dirac_derivative"],
    )
    def test_full_row_rank_reads_off_singular_values_only(self, monkeypatch, spec):
        """A coarse kernel of full row rank reaches every probe: exactly
        (1.0, 0.0), from one values-only SVD of its (node count, N)
        weighted rows, with no singular vectors formed."""
        kernel = coarse_kernel(spec, 64)
        seen = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            seen.append((kwargs.get("compute_uv", args[1] if len(args) > 1 else True), np.shape(a)))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        assert rf_diagnostic(kernel) == (1.0, 0.0)
        assert seen == [(False, (kernel.node_count, 64))]

    def test_bump_and_zero_kernel_match_the_projection_reference(self):
        bump = coarse_kernel(bump_dirac_map(-1.0, 1.0), 64)
        zero = KernelMatrix(np.zeros(bump.rows.shape), bump.grid)
        for kernel in (bump, zero):
            expected_score, residuals = _projection_reference(kernel)
            score, worst = rf_diagnostic(kernel)
            assert 0.0 <= score < 1.0
            assert score == expected_score
            assert abs(worst - residuals.max()) <= 1e-12

    def test_fourier_equals_dirac_to_the_bit(self):
        assert rf_diagnostic(coarse_kernel(fourier_map(), 64)) == rf_diagnostic(
            coarse_kernel(dirac_map(), 64)
        )
        # rank-deficient rows under fourier's phase: the phase is not factored
        bump = coarse_kernel(bump_dirac_map(-1.0, 1.0), 64)
        phased = KernelMatrix(bump.rows, bump.grid, phase=(-1j) ** np.arange(64))
        assert rf_diagnostic(phased) == rf_diagnostic(bump)

    def test_tall_kernel_rejected(self):
        kernel = make_kernel(dirac_map(), 16)
        with pytest.raises(InvalidConfigError, match=r"node count <= truncation, got \d+ nodes > 16"):
            rf_diagnostic(kernel)


class TestFourierRealRows:
    """fourier's moment and totality diagnostics run on dirac's real rows:
    its column phase P touches only N-vectors."""

    N = 64

    def kernels(self, sampler=make_kernel):
        return sampler(fourier_map(), self.N), sampler(dirac_map(), self.N)

    def test_spectral_readings_equal_dirac_to_the_bit(self):
        fourier, dirac = self.kernels()
        for fourier_kernel, dirac_kernel in (self.kernels(), self.kernels(coarse_kernel)):
            f, d = totality_test(fourier_kernel), totality_test(dirac_kernel)
            assert (f.sigma_min, f.sigma_max) == (d.sigma_min, d.sigma_max)
        for k in range(3):
            assert continuity_constant(fourier, k) == continuity_constant(dirac, k)
            assert np.array_equal(envelope(fourier, k), envelope(dirac, k))
        assert gelfand_check(fourier).isometry_defect == gelfand_check(dirac).isometry_defect

    def test_witness_and_solution_carry_the_conjugate_phase(self):
        phase = (-1j) ** np.arange(self.N)
        fourier, dirac = self.kernels(wide_kernel)
        witness_f, witness_d = totality_test(fourier).witness, totality_test(dirac).witness
        assert witness_d is not None
        assert np.abs(witness_f.coeffs - phase.conj() * witness_d.coeffs).max() <= 1e-12
        fourier, dirac = self.kernels()
        rng = np.random.default_rng(SEED)
        g = random_test_function(self.N, rng)
        noise = rng.standard_normal(dirac.node_count)
        for h in (analysis(dirac, g), analysis(dirac, g).real + noise):
            f_sol, d_sol = solve_moment(fourier, h), solve_moment(dirac, h)
            assert np.abs(f_sol.f.coeffs - phase.conj() * d_sol.f.coeffs).max() <= 1e-12
            assert (f_sol.residual, f_sol.null_dim) == (d_sol.residual, d_sol.null_dim)

    def test_no_complex_matrix_is_factored(self, monkeypatch):
        fourier, coarse = make_kernel(fourier_map(), self.N), coarse_kernel(fourier_map(), self.N)
        seen = []

        def recording(fn):
            def call(a, *args, **kwargs):
                seen.append(np.iscomplexobj(a))
                return fn(a, *args, **kwargs)

            return call

        for name in ("svd", "qr", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, recording(getattr(np.linalg, name)))
        h = analysis(fourier, random_test_function(self.N, np.random.default_rng(SEED)))
        totality_test(fourier)
        totality_test(coarse)
        continuity_constant(fourier, 1)
        solve_moment(fourier, h)
        gelfand_check(fourier)
        envelope(fourier, 1)
        rf_diagnostic(coarse)
        assert seen and not any(seen)
