import math

import numpy as np
import pytest

from riggedframes import (
    InvalidConfigError,
    KernelMatrix,
    RefinementLadder,
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
    l2x_norm,
    random_test_function,
    rf_diagnostic,
    sample_kernel,
    seminorm,
    solve_moment,
    stage_grid,
    weighted_analysis_matrix,
    weighted_dirac_map,
    weighted_least_squares,
)
from riggedframes.operators import ClassifyThresholds, StageFactorization, _series_trend

SEED = 20240409


def make_kernel(spec, truncation):
    return sample_kernel(spec, stage_grid(default_stage(truncation)), truncation)


def coarse_kernel(spec, truncation):
    return sample_kernel(spec, coarse_synthesis_grid(truncation), truncation)


class TestWeightedLeastSquares:
    def test_identity_system(self):
        b = np.array([1.0, -2.0, 3.0])
        x, residual = weighted_least_squares(np.eye(3), b, np.ones(3))
        assert x == pytest.approx(b)
        assert residual == pytest.approx(0.0, abs=1e-14)

    def test_inconsistent_system_matches_normal_equations(self):
        rng = np.random.default_rng(SEED)
        matrix = rng.standard_normal((12, 5))
        rhs = rng.standard_normal(12)
        weights = rng.uniform(0.5, 2.0, 12)
        x, residual = weighted_least_squares(matrix, rhs, weights)
        # independent oracle: solve the weighted normal equations directly
        gram = matrix.T @ (weights[:, None] * matrix)
        oracle = np.linalg.solve(gram, matrix.T @ (weights * rhs))
        assert x == pytest.approx(oracle, rel=1e-10)
        oracle_residual = math.sqrt(np.sum(weights * (matrix @ oracle - rhs) ** 2))
        assert residual == pytest.approx(oracle_residual, rel=1e-10)
        assert residual > 0

    def test_rank_deficient_minimum_norm(self):
        matrix = np.array([[1.0, 1.0], [2.0, 2.0]])
        rhs = np.array([1.0, 2.0])
        x, residual = weighted_least_squares(matrix, rhs, np.ones(2))
        assert residual == pytest.approx(0.0, abs=1e-12)
        # minimum-norm solution is orthogonal to the null direction (1, -1)
        assert x @ np.array([1.0, -1.0]) == pytest.approx(0.0, abs=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            weighted_least_squares(np.array([[np.inf]]), np.array([1.0]), np.array([1.0]))


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
        assert solution.least_norm

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
        kernel = coarse_kernel(dirac_map(), 32)
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
        score, worst = rf_diagnostic(kernel, probes=kernel.grid.panels)
        assert score == 1.0
        assert worst <= 1e-6

    def test_bump_misses_offsupport_probes(self):
        kernel = coarse_kernel(bump_dirac_map(-1.0, 1.0), 32)
        score, worst = rf_diagnostic(kernel, probes=kernel.grid.panels)
        assert score < 1.0
        assert worst == pytest.approx(1.0, abs=1e-8)

    def test_zero_kernel_scores_zero(self):
        base = coarse_kernel(dirac_map(), 32)
        zero = KernelMatrix(np.zeros_like(base.entries), base.grid, None)
        score, worst = rf_diagnostic(zero, probes=4)
        assert score == 0.0
        assert worst == pytest.approx(1.0, abs=1e-12)

    def test_probes_validated(self):
        with pytest.raises(InvalidConfigError):
            rf_diagnostic(coarse_kernel(dirac_map(), 16), probes=0)

    @pytest.mark.parametrize("spec", [dirac_map(), bump_dirac_map(-1.0, 1.0)], ids=["dirac", "bump"])
    def test_block_solve_matches_per_probe_solves(self, spec):
        from riggedframes.moments import _least_norm

        kernel = coarse_kernel(spec, 32)
        grid = kernel.grid
        targets = np.zeros((grid.node_count, grid.panels))
        for panel in range(grid.panels):
            targets[panel * grid.order : (panel + 1) * grid.order, panel] = 1.0
            targets[:, panel] /= l2x_norm(targets[:, panel], grid)
        single = np.array([solve_moment(kernel, t).residual for t in targets.T])
        block = _least_norm(kernel, targets)[1]
        assert np.abs(block - single).max() <= 1e-12
        score, worst = rf_diagnostic(kernel, probes=grid.panels)
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
        pair = canonical_dual(make_kernel(dirac_map(), 16))
        result = dual_bessel_check(pair)
        assert result.bessel
        assert result.seminorm_index == 0
        assert result.constant == pytest.approx(1.0, abs=1e-8)

    def test_weighted_witness_zero(self):
        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 16))
        result = dual_bessel_check(pair)
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
        a per-stage canonical dual and picking the first bounded one, and the
        same constant to 1e-14 + 1e-15 cond(S) relative, cond(S) of the last
        stage's frame operator."""
        thresholds = ClassifyThresholds()
        for n_max in (32, 128):
            ladder = default_ladder(n_max)
            series = {k: [] for k in range(thresholds.bessel_k_max + 1)}
            for stage in ladder.stages:
                pair = canonical_dual(sample_kernel(spec, stage_grid(stage), stage.truncation))
                factor = StageFactorization(weighted_analysis_matrix(pair.theta))
                for k in series:
                    series[k].append(factor.bessel_constant(k))
            lower, upper = pair.omega_bounds
            bounded = [k for k, v in series.items() if _series_trend(v, thresholds, 0.0) == "bounded"]
            result = dual_bessel_check(canonical_dual(make_kernel(spec, n_max)), ladder)
            # dirac_derivative's dual series are bounded for no k <= bessel_k_max
            assert result.seminorm_index == (bounded[0] if bounded else -1)
            if bounded:
                expected = series[bounded[0]][-1]
                tol = 1e-14 + 1e-15 * upper / lower
                assert abs(result.constant - expected) <= tol * expected

    def test_reads_the_dual_off_the_walk_factor(self, monkeypatch):
        """No eigh and no Cholesky, and one QR with more rows than columns per
        stage: the dual is read off R, not built as a canonical dual.  (The
        grids' Gauss-Legendre nodes come from eigvalsh, which is allowed.)"""
        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 64))
        ladder = default_ladder(64)
        shapes = []
        qr = np.linalg.qr

        def recording_qr(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        def refused(name):
            def call(*args, **kwargs):
                raise AssertionError(f"dual_bessel_check called {name}")

            return call

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        for name in ("eigh", "cholesky"):
            monkeypatch.setattr(np.linalg, name, refused(name))
        assert dual_bessel_check(pair, ladder).bessel
        assert len([s for s in shapes if s[0] > s[1]]) == len(ladder.stages)

    def test_fourier_equals_dirac_to_the_bit(self):
        """fourier's dual rows are dirac's; its column phase leaves every
        singular value alone and is not factored."""
        fourier = dual_bessel_check(canonical_dual(make_kernel(fourier_map(), 128)))
        dirac = dual_bessel_check(canonical_dual(make_kernel(dirac_map(), 128)))
        assert fourier == dirac

    def test_single_stage_certifies_nothing(self):
        pair = canonical_dual(make_kernel(dirac_map(), 16))
        result = dual_bessel_check(pair, ladder=RefinementLadder((default_stage(16),)))
        assert not result.bessel
        assert result.seminorm_index == -1

    def test_bump_precondition_rejected(self):
        kernel = make_kernel(bump_dirac_map(-1.0, 1.0), 16)
        pair_like = type("P", (), {"omega": kernel})()
        with pytest.raises(InvalidConfigError):
            dual_bessel_check(pair_like)


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
    kernels = (make_kernel(spec, truncation), coarse_kernel(spec, truncation))
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
