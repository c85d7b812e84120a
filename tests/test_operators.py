import numpy as np
import pytest

from riggedframes import operators
from riggedframes import (
    ClassifyThresholds,
    InvalidConfigError,
    RefinementLadder,
    KernelMatrix,
    NumericError,
    TestFunction,
    analysis,
    bessel_seminorm_constant,
    build_grid,
    bump_dirac_map,
    classify,
    coarse_synthesis_grid,
    default_ladder,
    default_stage,
    dirac_derivative_map,
    dirac_map,
    embed,
    fourier_map,
    frame_bounds,
    frame_operator,
    hermite_eval,
    hermitian_eigenpairs,
    l2x_inner,
    l2x_norm,
    mu_independence_test,
    pair,
    random_test_function,
    sample_kernel,
    seminorm,
    stage_grid,
    synthesis,
    totality_test,
    weighted_analysis_matrix,
    weighted_dirac_map,
)

RNG_SEED = 1234

BUILTIN_FAMILIES = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "2+sin(x)": weighted_dirac_map("2+sin(x)"),
    "1+x^2": weighted_dirac_map("1+x^2"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}

# (spec, coefficients of p from the constant term up, d) for omega_x = p(x) delta_x^(d)
EXACT_OPERATORS = {
    "dirac": (dirac_map(), (1.0,), 0),
    "dirac_derivative": (dirac_derivative_map(), (1.0,), 1),
    "1+x^2": (weighted_dirac_map("1+x^2"), (1.0, 0.0, 1.0), 0),
    "x": (weighted_dirac_map("x"), (0.0, 1.0), 0),
    "fourier": (fourier_map(), (1.0,), 0),
}


def make_kernel(spec, truncation):
    return sample_kernel(spec, stage_grid(default_stage(truncation)), truncation)


class TestAnalysisSynthesis:
    def test_dirac_analysis_is_point_evaluation(self):
        kernel = make_kernel(dirac_map(), 8)
        sampled = analysis(kernel, TestFunction.basis(0, 8))
        assert sampled == pytest.approx(hermite_eval(0, kernel.grid.nodes), abs=1e-14)

    def test_weighted_analysis(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 8)
        sampled = analysis(kernel, TestFunction.basis(0, 8))
        expected = (2 + np.sin(kernel.grid.nodes)) * hermite_eval(0, kernel.grid.nodes)
        assert sampled == pytest.approx(expected, abs=1e-13)

    def test_dirac_synthesis_embeds_sampled_functions(self):
        kernel = make_kernel(dirac_map(), 16)
        xi = hermite_eval(2, kernel.grid.nodes)
        sample = synthesis(kernel, xi)
        expected = embed(TestFunction.basis(2, 16))
        assert np.abs(sample.pairings - expected.pairings).max() <= 1e-10

    def test_zero_synthesis(self):
        kernel = make_kernel(dirac_map(), 8)
        sample = synthesis(kernel, np.zeros(kernel.node_count))
        assert np.all(sample.pairings == 0)

    def test_adjoint_identity_random(self):
        rng = np.random.default_rng(RNG_SEED)
        for spec in (dirac_map(), weighted_dirac_map("1+x^2"), dirac_derivative_map()):
            kernel = make_kernel(spec, 12)
            grid = kernel.grid
            for _ in range(100):
                xi = rng.standard_normal(grid.node_count) + 1j * rng.standard_normal(
                    grid.node_count
                )
                g = random_test_function(12, rng)
                lhs = np.conj(pair(g, synthesis(kernel, xi)))
                rhs = l2x_inner(xi, analysis(kernel, g), grid)
                assert abs(lhs - rhs) <= 1e-10 * (1 + l2x_norm(xi, grid) * g.norm())


class TestFrameOperator:
    def test_dirac_is_identity(self):
        kernel = make_kernel(dirac_map(), 32)
        op = frame_operator(kernel)
        assert np.abs(op.matrix - np.eye(32)).max() <= 1e-10

    def test_hermitian_and_psd(self):
        for spec in (weighted_dirac_map("2+sin(x)"), dirac_derivative_map()):
            op = frame_operator(make_kernel(spec, 16))
            scale = np.abs(op.matrix).max()
            assert np.abs(op.matrix - op.matrix.conj().T).max() <= 1e-12 * scale
            values, _ = hermitian_eigenpairs(op)
            assert values[0] >= -1e-10 * values[-1]

    def test_weighted_matches_independent_quadrature_oracle(self):
        # same integrand assembled on a 3x finer independent grid
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 12)
        op = frame_operator(kernel)
        stage = default_stage(12)
        fine = build_grid(stage.half_width, 3 * stage.panels, 12)
        from riggedframes import hermite_table

        table = hermite_table(12, fine.nodes)
        weight = (2 + np.sin(fine.nodes)) ** 2
        oracle = (table * (weight * fine.weights)[:, None]).T @ table
        assert np.abs(op.matrix - oracle).max() <= 1e-10

    def test_factorization_synthesis_compose_analysis(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 10)
        op = frame_operator(kernel)
        composed = np.column_stack(
            [
                synthesis(kernel, analysis(kernel, TestFunction.basis(n, 10))).pairings
                for n in range(10)
            ]
        )
        assert np.abs(op.matrix - composed).max() <= 1e-12

    def test_sandwich_inequality(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 12)
        op = frame_operator(kernel)
        lower, upper = frame_bounds(op)
        rng = np.random.default_rng(RNG_SEED)
        for _ in range(50):
            f = random_test_function(12, rng)
            quad = np.real(np.vdot(f.coeffs, op.matrix @ f.coeffs))
            eps = 1e-9 * upper * f.norm() ** 2
            assert lower * f.norm() ** 2 - eps <= quad <= upper * f.norm() ** 2 + eps

    def test_scaling_covariance(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 8)
        scaled = KernelMatrix(2j * kernel.entries, kernel.grid, kernel.map_spec)
        a, b = frame_bounds(frame_operator(kernel))
        a2, b2 = frame_bounds(frame_operator(scaled))
        assert a2 == pytest.approx(4 * a, rel=1e-12)
        assert b2 == pytest.approx(4 * b, rel=1e-12)

    def test_monotone_truncation_on_fixed_grid(self):
        grid = stage_grid(default_stage(24))
        bounds = []
        for truncation in (8, 12, 16, 20, 24):
            kernel = sample_kernel(weighted_dirac_map("1+x^2"), grid, truncation)
            bounds.append(frame_bounds(frame_operator(kernel)))
        lowers = [b[0] for b in bounds]
        uppers = [b[1] for b in bounds]
        assert all(a >= b - 1e-12 for a, b in zip(lowers, lowers[1:]))
        assert all(a <= b + 1e-12 for a, b in zip(uppers, uppers[1:]))

    @pytest.mark.parametrize("truncation", [64, 1024])
    @pytest.mark.parametrize("family", list(EXACT_OPERATORS))
    def test_stage_operator_matches_the_exact_oracle(self, family, truncation):
        """The quadrature S on the default stage against the exact S of
        omega_x = p(x) delta_x^(d), formed from the Hermite-basis matrices of
        x and d/dx with no quadrature.  Fourier's S is dirac's up to its
        column phase, so its gram is the one compared."""
        from riggedframes.acceptance import _exact_frame_operator

        spec, poly_coeffs, derivative_order = EXACT_OPERATORS[family]
        op = frame_operator(make_kernel(spec, truncation))
        stage_s = op.gram if family == "fourier" else op.matrix
        exact = _exact_frame_operator(poly_coeffs, derivative_order, truncation)
        assert np.abs(stage_s - exact).max() <= 1e-12 * np.abs(stage_s).max()


    @pytest.mark.parametrize("family", ["1+x^2", "dirac_derivative"])
    def test_classify_final_bounds_match_the_exact_oracle(self, family):
        """classify's final-stage A and B at n_max 1024, read off the parity
        split's blocks, against eigvalsh of the exact S."""
        from riggedframes.acceptance import _exact_frame_operator

        spec, poly_coeffs, derivative_order = EXACT_OPERATORS[family]
        final = classify(spec, default_ladder(1024)).stages[-1]
        exact = np.linalg.eigvalsh(_exact_frame_operator(poly_coeffs, derivative_order, 1024))
        assert abs(final.lower - exact[0]) <= 1e-9 * exact[0]
        assert abs(final.upper - exact[-1]) <= 1e-9 * exact[-1]


class TestEigenpairs:
    def test_identity(self):
        from riggedframes.operators import FrameOperatorMatrix

        op = FrameOperatorMatrix(np.eye(6))
        values, vectors = hermitian_eigenpairs(op)
        assert values == pytest.approx(np.ones(6))
        assert np.abs(vectors.conj().T @ vectors - np.eye(6)).max() <= 1e-12

    def test_diagonal(self):
        from riggedframes.operators import FrameOperatorMatrix

        op = FrameOperatorMatrix(np.diag(np.arange(1.0, 9.0)))
        values, _ = hermitian_eigenpairs(op)
        assert values == pytest.approx(np.arange(1.0, 9.0))

    def test_random_hermitian_reconstruction(self):
        rng = np.random.default_rng(RNG_SEED)
        raw = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        matrix = raw + raw.conj().T
        values, vectors = hermitian_eigenpairs(matrix)
        rebuilt = (vectors * values[None, :]) @ vectors.conj().T
        scale = np.abs(values).max()
        assert np.abs(rebuilt - matrix).max() <= 1e-10 * scale
        for i in range(12):
            residual = np.linalg.norm(matrix @ vectors[:, i] - values[i] * vectors[:, i])
            assert residual <= 1e-10 * scale
        assert np.abs(vectors.conj().T @ vectors - np.eye(12)).max() <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericError):
            hermitian_eigenpairs(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestTotality:
    def test_dirac_total(self):
        result = totality_test(make_kernel(dirac_map(), 16))
        assert result.total
        assert result.sigma_min / result.sigma_max > 0.9

    def test_bump_not_total_with_outside_witness(self):
        kernel = make_kernel(bump_dirac_map(-1.0, 1.0), 32)
        result = totality_test(kernel)
        assert not result.total
        values = result.witness(kernel.grid.nodes)
        outside = np.abs(kernel.grid.nodes) >= 1.0
        w = kernel.grid.weights
        mass = np.sum(w[outside] * np.abs(values[outside]) ** 2) / np.sum(
            w * np.abs(values) ** 2
        )
        assert mass >= 0.99

    def test_zero_kernel(self):
        base = make_kernel(dirac_map(), 8)
        zero = KernelMatrix(np.zeros_like(base.entries), base.grid, None)
        result = totality_test(zero)
        assert not result.total
        assert result.witness.coeffs == pytest.approx(TestFunction.basis(0, 8).coeffs)


class TestMuIndependence:
    def test_dirac_on_coarse_grid(self):
        kernel = sample_kernel(dirac_map(), coarse_synthesis_grid(32), 32)
        assert kernel.node_count == 16
        assert mu_independence_test(kernel).mu_independent

    def test_weighted_on_coarse_grid(self):
        kernel = sample_kernel(weighted_dirac_map("2+sin(x)"), coarse_synthesis_grid(32), 32)
        assert mu_independence_test(kernel).mu_independent

    def test_duplicated_row_dependence(self):
        kernel = sample_kernel(dirac_map(), coarse_synthesis_grid(32), 32)
        entries = np.array(kernel.entries)
        entries[7] = entries[6]
        doctored = KernelMatrix(entries, kernel.grid, None)
        result = mu_independence_test(doctored)
        assert not result.mu_independent
        witness = np.abs(result.witness)
        support = np.argsort(witness)[-2:]
        assert set(support) == {6, 7}
        assert witness[support].min() > 10 * np.delete(witness, support).max()

    def test_rejects_overdetermined_grid(self):
        kernel = make_kernel(dirac_map(), 8)
        with pytest.raises(InvalidConfigError):
            mu_independence_test(kernel)

    @pytest.mark.parametrize("truncation", [32, 64])
    def test_fourier_equals_dirac_to_the_bit(self, truncation):
        """The real rows are factored; fourier's column phase is not."""
        grid = coarse_synthesis_grid(truncation)
        fourier = mu_independence_test(sample_kernel(fourier_map(), grid, truncation))
        dirac = mu_independence_test(sample_kernel(dirac_map(), grid, truncation))
        assert fourier == dirac

    @pytest.mark.parametrize("family, with_u", [("dirac", [False]), ("bump[-1,1]", [False, True])])
    def test_vectors_only_when_dependent(self, monkeypatch, family, with_u):
        kernel = sample_kernel(BUILTIN_FAMILIES[family], coarse_synthesis_grid(32), 32)
        computes_uv = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            computes_uv.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        result = mu_independence_test(kernel)
        assert computes_uv == with_u
        assert result.mu_independent == (len(with_u) == 1)


class TestBesselConstant:
    def test_prop_bound_realized_over_random_functions(self):
        rng = np.random.default_rng(RNG_SEED)
        for spec, k in [
            (dirac_map(), 0),
            (weighted_dirac_map("2+sin(x)"), 0),
            (weighted_dirac_map("1+x^2"), 2),
            (dirac_derivative_map(), 1),
            (bump_dirac_map(-1.0, 1.0), 0),
        ]:
            kernel = make_kernel(spec, 16)
            constant = bessel_seminorm_constant(kernel, k)
            for _ in range(100):
                f = random_test_function(16, rng)
                lhs = l2x_norm(analysis(kernel, f), kernel.grid)
                assert lhs <= constant * seminorm(f, k) * (1 + 1e-12)

    @pytest.mark.parametrize("family", list(BUILTIN_FAMILIES))
    def test_every_index_matches_direct_svd_of_damped_kernel(self, family):
        kernel = make_kernel(BUILTIN_FAMILIES[family], 64)
        weighted = weighted_analysis_matrix(kernel)
        sigma_max = np.linalg.svd(weighted, compute_uv=False)[0]
        damping_base = 1.0 + np.arange(64)
        for k in range(ClassifyThresholds().bessel_k_max + 1):
            damped = weighted * (damping_base ** (-k / 2.0))[None, :]
            direct = np.linalg.svd(damped, compute_uv=False)[0]
            assert abs(bessel_seminorm_constant(kernel, k) - direct) <= 1e-12 * sigma_max


class TestClassify:
    def test_dirac_label_set(self):
        report = classify(dirac_map(), default_ladder(32))
        assert report.labels == (
            "bessel",
            "bounded_bessel",
            "total",
            "mu_independent",
            "frame",
            "tight",
            "parseval",
            "gelfand_basis",
            "riesz_basis",
        )
        assert report.bessel_index == 0

    def test_derivative_deltas(self):
        report = classify(dirac_derivative_map(), default_ladder(64))
        assert report.has("bessel") and report.has("total")
        for label in ("bounded_bessel", "upper_semi_frame", "lower_semi_frame", "frame"):
            assert not report.has(label)
        assert report.upper_trend == "growing"
        assert all(r >= 1.5 for r in report.upper_ratios)
        assert report.bessel_index == 1

    def test_polynomial_weight_lower_semiframe(self):
        report = classify(weighted_dirac_map("1+x^2"), default_ladder(64))
        assert report.has("bessel") and report.has("total") and report.has("lower_semi_frame")
        for label in ("bounded_bessel", "frame", "upper_semi_frame"):
            assert not report.has(label)
        assert report.upper_trend == "growing"
        assert all(s.lower >= 1.0 - 1e-9 for s in report.stages)

    def test_bump_bounded_bessel_not_total(self):
        report = classify(bump_dirac_map(-1.0, 1.0), default_ladder(64))
        assert report.labels == ("bessel", "bounded_bessel")
        assert report.upper_trend == "bounded"
        # the shallow ladder has not stabilized to 5% yet and says so
        shallow = classify(bump_dirac_map(-1.0, 1.0), default_ladder(32))
        assert shallow.upper_trend == "drifting"
        assert not shallow.has("total")

    def test_zero_weight_degenerate(self):
        report = classify(weighted_dirac_map("0"), default_ladder(16))
        assert report.has("bounded_bessel")
        assert not report.has("total")
        assert report.stages[-1].lower == 0.0
        assert report.stages[-1].upper == 0.0

    def test_label_implications(self):
        for spec in (
            dirac_map(),
            weighted_dirac_map("2+sin(x)"),
            weighted_dirac_map("1+x^2"),
            dirac_derivative_map(),
            bump_dirac_map(-1.0, 1.0),
        ):
            report = classify(spec, default_ladder(32))
            if report.has("parseval"):
                assert report.has("tight") and report.has("frame")
            if report.has("gelfand_basis"):
                assert report.has("parseval") and report.has("mu_independent")
            if report.has("riesz_basis"):
                assert report.has("frame") and report.has("mu_independent")
            if report.has("frame"):
                assert not report.has("upper_semi_frame")
                assert not report.has("lower_semi_frame")

    def test_unit_scaling_leaves_labels_invariant(self):
        thresholds = ClassifyThresholds()
        base = classify(weighted_dirac_map("2+sin(x)"), default_ladder(16), thresholds)
        # |c| = 1 rescale realized by a unimodular weight sign flip
        flipped = classify(weighted_dirac_map("-(2+sin(x))"), default_ladder(16), thresholds)
        assert base.labels == flipped.labels

    def test_rank_threshold_must_be_positive(self):
        """classify reads mu-independence through the public test, which
        refuses a nonpositive cutoff."""
        with pytest.raises(InvalidConfigError, match="threshold must be positive"):
            classify(dirac_map(), default_ladder(16), ClassifyThresholds(rank=0.0))

    def test_frame_bound_past_float64_range_names_the_stage(self):
        """exp(x^2) at N=128 has sigma_max ~ 7e208, whose square overflows;
        the check warns of nothing (warnings are errors here)."""
        with pytest.raises(NumericError, match=r"stage N=128: .* past float64 range"):
            classify(weighted_dirac_map("exp(x^2)"), default_ladder(128))

    def test_custom_kind_rejected(self):
        from riggedframes import custom_map

        with pytest.raises(InvalidConfigError):
            classify(custom_map("nope.csv"), default_ladder(8))

    def test_single_stage_certifies_no_trend_label(self):
        single = RefinementLadder((default_stage(32),))
        for spec in (dirac_derivative_map(), weighted_dirac_map("1+x^2"), dirac_map()):
            report = classify(spec, single)
            assert report.lower_trend == report.upper_trend == "undetermined"
            assert set(report.labels) <= {"total", "mu_independent"}


class TestStageFactorization:
    """Classify's R-factor diagnostics against direct SVDs of the complex
    weighted kernel, and a guard on what classify factors."""

    @pytest.mark.parametrize("n_max", [64, 128])
    @pytest.mark.parametrize("family", list(BUILTIN_FAMILIES))
    def test_matches_direct_complex_svd(self, family, n_max):
        spec = BUILTIN_FAMILIES[family]
        ladder = default_ladder(n_max)
        report = classify(spec, ladder)
        for i, (stage, diag) in enumerate(zip(ladder.stages, report.stages)):
            weighted = weighted_analysis_matrix(
                sample_kernel(spec, stage_grid(stage), stage.truncation)
            )
            svals = np.linalg.svd(weighted, compute_uv=False)
            sigma_max, sigma_min = svals[0], svals[-1]
            upper = sigma_max**2
            assert abs(diag.upper - upper) <= 1e-12 * upper
            assert abs(diag.lower - sigma_min**2) <= 1e-12 * upper
            assert abs(diag.sigma_max - sigma_max) <= 1e-12 * sigma_max
            assert abs(diag.sigma_min - sigma_min) <= 1e-12 * sigma_max
            damping_base = 1.0 + np.arange(stage.truncation)
            for k, series in report.bessel_constants.items():
                damped = weighted * (damping_base ** (-k / 2.0))[None, :]
                direct = np.linalg.svd(damped, compute_uv=False)[0]
                assert abs(series[i] - direct) <= 1e-12 * sigma_max

    def test_fourier_equals_dirac_with_identity_frame_operator(self):
        ladder = default_ladder(128)
        dirac = classify(dirac_map(), ladder)
        fourier = classify(fourier_map(), ladder)
        assert fourier.stages == dirac.stages
        assert fourier.bessel_constants == dirac.bessel_constants
        for s in dirac.stages:
            assert abs(s.lower - 1.0) <= 1e-12 and abs(s.upper - 1.0) <= 1e-12

    def test_classify_factors_only_small_matrices(self, monkeypatch):
        svd_shapes, qr_shapes = [], []
        svd, qr = np.linalg.svd, np.linalg.qr

        def recording_svd(a, *args, **kwargs):
            svd_shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        def recording_qr(a, *args, **kwargs):
            qr_shapes.append(np.shape(a))
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        ladder = default_ladder(64)
        truncations = [s.truncation for s in ladder.stages]
        # 2+sin(x) factors one block per stage, 1+x^2 its two parity blocks
        for family, blocks in (("2+sin(x)", 1), ("1+x^2", 2)):
            svd_shapes.clear()
            qr_shapes.clear()
            classify(BUILTIN_FAMILIES[family], ladder)
            # one QR per block, on its share of the stage's rows and columns
            width = {n: n // blocks for n in truncations}
            assert qr_shapes == [
                (-(-s.node_count // blocks), width[s.truncation]) for s in ladder.stages for _ in range(blocks)
            ]
            # every SVD is of a block's R or of the stage's wide coarse
            # kernel: at most one of R per block and seminorm index, and one
            # coarse
            accounted = 0
            for n in truncations:
                stage_svds = [s for s in svd_shapes if s == (width[n],) * 2 or (s[1] == n and s[0] < n)]
                assert len(stage_svds) <= blocks * (1 + ClassifyThresholds().bessel_k_max) + 1
                accounted += len(stage_svds)
            assert accounted == len(svd_shapes)


EVEN_FAMILIES = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "1+x^2": weighted_dirac_map("1+x^2"),
    "exp(-x^2)": weighted_dirac_map("exp(-x^2)"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}


def _walk_factor(spec, grid, truncation):
    """The StageFactorization the ladder walk forms on a grid."""
    return operators.StageFactorization(*operators._stage_rows(spec, grid, truncation))


def _block_singular_values(factor):
    """Every singular value a StageFactorization's blocks hold, descending."""
    values = np.concatenate([np.linalg.svd(r, compute_uv=False) for r, _ in factor.blocks])
    return np.sort(values)[::-1]


class TestParitySplit:
    """Maps whose row magnitudes are even on the mirror-symmetric stage grid
    factor the even and odd coefficients apart, from the nodes x >= 0."""

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("family", list(EVEN_FAMILIES))
    def test_even_maps_split_with_the_one_block_spectrum(self, family, n):
        spec, grid = EVEN_FAMILIES[family], stage_grid(default_stage(n))
        split = _walk_factor(spec, grid, n)
        assert [columns for _, columns in split.blocks] == list(operators._PARITY)
        assert [r.shape for r, _ in split.blocks] == [(n // 2, n // 2)] * 2
        one = operators.StageFactorization(operators._weighted_rows(sample_kernel(spec, grid, n)))
        reference = _block_singular_values(one)
        assert np.abs(_block_singular_values(split) - reference).max() <= 1e-13 * reference[0]
        assert abs(split.sigma_max - one.sigma_max) <= 1e-13 * reference[0]
        assert abs(split.sigma_min - one.sigma_min) <= 1e-13 * reference[0]

    @pytest.mark.parametrize(
        "spec", [weighted_dirac_map("2+sin(x)"), bump_dirac_map(-1.0, 2.0)], ids=["2+sin(x)", "bump[-1,2]"]
    )
    @pytest.mark.parametrize("n", [8, 64])
    def test_maps_without_even_magnitude_take_one_block(self, spec, n):
        factor = _walk_factor(spec, stage_grid(default_stage(n)), n)
        ((r, columns),) = factor.blocks
        assert columns == slice(None) and r.shape == (n, n)

    def test_a_node_at_zero_counts_once(self):
        """An odd node count puts a node at 0, whose row is sampled once, with
        its own weight, in both blocks."""
        grid = build_grid(12.0, 25, 9)
        assert grid.node_count % 2 and grid.nodes[grid.node_count // 2] == 0.0
        spec = weighted_dirac_map("1+x^2")
        split = _walk_factor(spec, grid, 16)
        assert [r.shape for r, _ in split.blocks] == [(8, 8)] * 2
        one = operators.StageFactorization(operators._weighted_rows(sample_kernel(spec, grid, 16)))
        reference = _block_singular_values(one)
        assert np.abs(_block_singular_values(split) - reference).max() <= 1e-13 * reference[0]


def _eager_bessel_search(factors, thresholds):
    """Reference: form every seminorm index's series, then pick the first
    bounded one."""
    series = {
        k: tuple(factor.bessel_constant(k) for factor in factors)
        for k in range(thresholds.bessel_k_max + 1)
    }
    bounded = [k for k, v in series.items() if operators._series_trend(v, thresholds, 0.0) == "bounded"]
    index = bounded[0] if bounded else None
    return index, series[index][-1] if bounded else None, series


class TestBesselSearch:
    """classify forms the damped Bessel series only up to the first bounded
    seminorm index, and picks what forming every series would pick."""

    @pytest.mark.parametrize(
        "family, blocks, per_block", [("dirac", 2, 1), ("dirac_derivative", 2, 2), ("2+sin(x)", 1, 1)]
    )
    def test_values_only_svds_per_stage(self, monkeypatch, family, blocks, per_block):
        """Per stage, each block's R once plus one damped R per block and
        seminorm index up to the bounded one (dirac and 2+sin(x) are bounded
        at k = 0, dirac_derivative at k = 1), and the coarse rank rule's one."""
        computes_uv = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            computes_uv.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        ladder = default_ladder(64)
        classify(BUILTIN_FAMILIES[family], ladder)
        assert len(computes_uv) == (blocks * per_block + 1) * len(ladder.stages)
        assert not any(computes_uv)

    @pytest.mark.parametrize("family", list(BUILTIN_FAMILIES))
    def test_examines_indices_up_to_the_bounded_one(self, family):
        report = classify(BUILTIN_FAMILIES[family], default_ladder(64))
        assert report.bessel_index is not None
        assert set(report.bessel_constants) == set(range(report.bessel_index + 1))

    def test_no_bounded_index_examines_every_index(self):
        thresholds = ClassifyThresholds(bessel_k_max=0)
        report = classify(dirac_derivative_map(), default_ladder(64), thresholds)
        assert report.bessel_index is None and report.bessel_constant is None
        assert set(report.bessel_constants) == {0}
        assert not report.has("bessel")

    @pytest.mark.parametrize("n_max", [64, 128])
    @pytest.mark.parametrize("family", list(BUILTIN_FAMILIES))
    def test_matches_eager_reference(self, monkeypatch, family, n_max):
        ladder = default_ladder(n_max)
        lazy = classify(BUILTIN_FAMILIES[family], ladder)
        monkeypatch.setattr(operators, "_bessel_search", _eager_bessel_search)
        eager = classify(BUILTIN_FAMILIES[family], ladder)
        assert lazy.labels == eager.labels
        assert lazy.bessel_index == eager.bessel_index
        assert lazy.bessel_constant == eager.bessel_constant
        for k, series in lazy.bessel_constants.items():
            assert series == eager.bessel_constants[k]


def test_real_kernel_operators_allocate_less_than_the_kernel():
    """analysis, synthesis and frame_operator never promote or copy a real
    kernel to complex."""
    import tracemalloc

    kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 256)
    assert kernel.entries.dtype == np.float64
    f = random_test_function(256, np.random.default_rng(RNG_SEED))
    xi = analysis(kernel, f)
    for call in (lambda: analysis(kernel, f), lambda: synthesis(kernel, xi),
                 lambda: frame_operator(kernel)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kernel.entries.nbytes
    assert frame_operator(kernel).matrix.dtype == np.float64


def test_fourier_operators_allocate_less_than_the_real_rows():
    """fourier's column phase is applied to N-vectors and N x N matrices only:
    analysis, synthesis and frame_operator never form its complex kernel."""
    import tracemalloc

    kernel = make_kernel(fourier_map(), 256)
    assert kernel.rows.dtype == np.float64
    f = random_test_function(256, np.random.default_rng(RNG_SEED))
    xi = analysis(kernel, f)
    for call in (lambda: analysis(kernel, f), lambda: synthesis(kernel, xi),
                 lambda: frame_operator(kernel)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kernel.rows.nbytes
    op = frame_operator(kernel)
    assert op.gram.dtype == np.float64
    omega = kernel.entries
    assert np.allclose(analysis(kernel, f), omega @ f.coeffs, rtol=0, atol=1e-12)
    weighted = kernel.grid.weights * xi
    assert np.allclose(synthesis(kernel, xi).pairings, omega.conj().T @ weighted, rtol=0, atol=1e-12)
    assert np.allclose(op.matrix, omega.conj().T @ (kernel.grid.weights[:, None] * omega),
                       rtol=0, atol=1e-12)
    assert frame_bounds(op) == frame_bounds(frame_operator(make_kernel(dirac_map(), 256)))


def test_classify_scales_with_the_map():
    """The negligible-entry floor is relative: a map scaled by e^-330 gives the
    same labels, bounds scaled by e^-660 and singular values by e^-330."""
    ladder = default_ladder(512)
    plain = classify(weighted_dirac_map("2+sin(x)"), ladder)
    scaled = classify(weighted_dirac_map("exp(-330)*(2+sin(x))"), ladder)
    assert scaled.labels == plain.labels
    for mine, ref in zip(scaled.stages, plain.stages):
        for name, power in (("lower", 2), ("upper", 2), ("sigma_min", 1), ("sigma_max", 1)):
            expected = getattr(ref, name) * np.exp(-330.0 * power)
            assert getattr(mine, name) == pytest.approx(expected, rel=1e-12, abs=0.0), name


def test_frame_operator_is_the_same_for_either_row_order():
    """The row-block buffer follows the rows' memory order; a C-ordered copy
    of the rows gives the same S to rounding."""
    from riggedframes import KernelMatrix

    kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 64)
    assert kernel.rows.flags.f_contiguous
    rows = np.ascontiguousarray(kernel.rows)
    rows.setflags(write=False)
    other = frame_operator(KernelMatrix(rows, kernel.grid, kernel.map_spec))
    gram = frame_operator(kernel).gram
    assert np.array_equal(gram, gram.T) and np.array_equal(other.gram, other.gram.T)
    assert np.abs(gram - other.gram).max() <= 1e-14 * np.abs(gram).max()


def test_frame_bounds_takes_eigenvalues_only(monkeypatch):
    """frame_bounds runs a values-only eigendecomposition and still rejects a
    visibly non-Hermitian matrix."""
    kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 32)
    op = frame_operator(kernel)
    expected = hermitian_eigenpairs(op)[0]

    def no_vectors(*args, **kwargs):
        raise AssertionError("frame_bounds computed eigenvectors")

    monkeypatch.setattr(np.linalg, "eigh", no_vectors)
    lower, upper = frame_bounds(op)
    assert lower == pytest.approx(expected[0], rel=0, abs=4 * np.spacing(expected[-1]))
    assert upper == pytest.approx(expected[-1], rel=0, abs=4 * np.spacing(expected[-1]))
    skewed = np.array(op.gram)
    skewed[0, 1] += 1e-6 * np.abs(skewed).max()
    with pytest.raises(NumericError):
        frame_bounds(skewed)
