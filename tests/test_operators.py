import math

import numpy as np
import pytest

from riggedframes import operators
from riggedframes import (
    ClassifyThresholds,
    InvalidConfigError,
    RefinementLadder,
    KernelMatrix,
    LadderStage,
    NumericError,
    TestFunction,
    analysis,
    build_grid,
    bulk_half_width,
    bump_dirac_map,
    canonical_dual,
    classify,
    coarse_synthesis_grid,
    default_ladder,
    default_stage,
    dirac_derivative_map,
    dirac_map,
    dual_bounds,
    embed,
    fourier_map,
    frame_bounds,
    frame_operator,
    hermite_eval,
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
from riggedframes.moments import NULL_SPACE_CUTOFF
from riggedframes.operators import RANK_CUTOFF

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

    def test_past_float64_range_names_the_truncation(self):
        """exp(x^2) at N=128 overflows the Gram: a NumericError naming N,
        with no overflow warning (warnings are errors here) and not a
        singular or non-Cholesky operator downstream.  Its rows mirror, so
        the overflow is caught on the parity-split route."""
        kernel = make_kernel(weighted_dirac_map("exp(x^2)"), 128)
        assert operators._gram_rows(kernel)[2] == operators._PARITY
        with pytest.raises(NumericError, match=r"^N=128: the frame operator is past float64 range$"):
            frame_operator(kernel)

    def test_complex_rows_past_float64_range_name_the_truncation(self):
        """1e160 (2+sin(x)) exp(i x) at N=16 overflows the stacked Gram of
        [Re A, Im A]: the same NumericError, with no invalid-value warning
        from inf - inf where S_rows is read off it."""
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 16)
        rows = 1e160 * kernel.rows * np.exp(1j * kernel.grid.nodes)[:, None]
        with pytest.raises(NumericError, match=r"^N=16: the frame operator is past float64 range$"):
            frame_operator(KernelMatrix(rows, kernel.grid))

    def test_complex_custom_kernel_matches_the_weighted_gram(self, tmp_path, monkeypatch):
        """A complex custom kernel (the 2+sin(x) rows times exp(i x), through
        the CSV interchange) has S = the Gram of weighted_analysis_matrix to
        1e-13 max|S|, exactly Hermitian, summed over several row blocks (the
        byte budget set to 64 stacked rows of 2N = 64 reals)."""
        from riggedframes import load_custom_kernel, save_kernel_csv

        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 32)
        modulated = KernelMatrix(kernel.rows * np.exp(1j * kernel.grid.nodes)[:, None], kernel.grid)
        path = tmp_path / "complex.csv"
        save_kernel_csv(modulated, path)
        custom = load_custom_kernel(path, kernel.grid, 32)
        monkeypatch.setattr(operators, "_ROW_BYTES", 64 * 64 * 8)
        assert custom.rows.dtype == complex and custom.node_count > 2 * 64
        gram = frame_operator(custom).gram
        weighted = weighted_analysis_matrix(custom)
        reference = weighted.conj().T @ weighted
        assert np.array_equal(gram, gram.conj().T)
        assert np.abs(gram - reference).max() <= 1e-13 * np.abs(gram).max()

    def test_hermitian_and_psd(self):
        for spec in (weighted_dirac_map("2+sin(x)"), dirac_derivative_map()):
            op = frame_operator(make_kernel(spec, 16))
            scale = np.abs(op.matrix).max()
            assert np.abs(op.matrix - op.matrix.conj().T).max() <= 1e-12 * scale
            lower, upper = frame_bounds(op)
            assert lower >= -1e-10 * upper

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

    @pytest.mark.parametrize("truncation", [64, 512])
    @pytest.mark.parametrize("family", list(EXACT_OPERATORS))
    def test_canonical_dual_matches_the_exact_oracle(self, family, truncation):
        """canonical_dual's omega_bounds and inverse, and dual_bounds, against
        the extreme eigenvalues, the inverse and their reciprocals of the
        exact S, and against the one-block route on the same rows (a kernel
        without a spec), all to 1e-13 cond(S) relative.  Fourier's inverse
        is that of its rows' S, dirac's."""
        from riggedframes.acceptance import _exact_frame_operator

        spec, poly_coeffs, derivative_order = EXACT_OPERATORS[family]
        exact = _exact_frame_operator(poly_coeffs, derivative_order, truncation)
        values = np.linalg.eigvalsh(exact)
        tol = 1e-13 * values[-1] / values[0]
        kernel = make_kernel(spec, truncation)
        pair = canonical_dual(kernel)
        assert frame_operator(kernel).columns == pair.theta_operator.columns == operators._PARITY
        lower, upper = pair.omega_bounds
        assert abs(lower - values[0]) <= tol * values[0]
        assert abs(upper - values[-1]) <= tol * values[-1]
        inverse = np.linalg.inv(exact)
        assert np.abs(pair.inverse - inverse).max() <= tol * np.abs(inverse).max()
        dual_lower, dual_upper = dual_bounds(pair)
        assert abs(dual_lower * values[-1] - 1.0) <= tol
        assert abs(dual_upper * values[0] - 1.0) <= tol
        one_block = canonical_dual(KernelMatrix(kernel.rows, kernel.grid, phase=kernel.phase))
        assert one_block.theta_operator.columns == (slice(None),)
        for mine, theirs in zip(pair.omega_bounds + dual_bounds(pair),
                                one_block.omega_bounds + dual_bounds(one_block)):
            assert abs(mine - theirs) <= tol * theirs

    @pytest.mark.parametrize("family", ["dirac", "fourier", "dirac_derivative", "1+x^2", "x", "bump[-1,1]"])
    def test_mirrored_rows_give_an_exactly_split_operator(self, family):
        """A mirrored map's S is formed per parity block from the x > 0 half
        of its rows: every entry coupling an even and an odd index is exactly
        0, and S is the Gram of all the weighted rows to rounding.  The odd
        grid puts a node at 0 and takes one block.  Rows a caller hands
        over (here negated at some nodes, so they still mirror) take one
        block whatever spec they carry: only sample_kernel splits."""
        spec = BUILTIN_FAMILIES.get(family) or EXACT_OPERATORS[family][0]
        for grid in (stage_grid(default_stage(64)), build_grid(12.0, 45, 9)):
            kernel = sample_kernel(spec, grid, 64)
            negated = kernel.rows * np.where(grid.nodes < -3.0, -1.0, 1.0)[:, None]
            for omega in (kernel, KernelMatrix(negated, grid, spec)):
                op = frame_operator(omega)
                if grid.node_count % 2 or omega is not kernel:
                    assert op.columns == operators._gram_rows(omega)[2] == (slice(None),)
                else:
                    assert op.columns == operators._PARITY
                    assert not op.gram[0::2, 1::2].any() and not op.gram[1::2, 0::2].any()
                reference = operators._hermitian_gram(operators._weighted_rows(omega))
                assert np.abs(op.gram - reference).max() <= 1e-14 * np.abs(reference).max()

    def test_rows_that_do_not_mirror_get_one_block(self):
        """A KernelMatrix may carry dirac's spec with rows of its own, or lie on
        a grid that is not mirror-symmetric: unless rows and grid mirror bit
        for bit, S is the one-block Gram of all the rows, never a split one
        that drops their coupling."""
        from riggedframes import QuadratureGrid

        kernel = make_kernel(dirac_map(), 64)
        grid = kernel.grid
        nudged = np.array(kernel.rows)
        row = grid.node_count // 4
        nudged[row, 5] = np.nextafter(nudged[row, 5], np.inf)
        # |h_n| is even in x for every n: magnitudes mirror, parities do not
        cases = [(nudged, grid), (np.abs(kernel.rows), grid)]
        shifted = QuadratureGrid(
            grid.nodes + 1e-3, grid.weights, grid.half_width, grid.panels, grid.order
        )
        cases.append((sample_kernel(dirac_map(), shifted, 64).rows, shifted))
        for rows, on in cases:
            op = frame_operator(KernelMatrix(rows, on, dirac_map()))
            assert op.columns == (slice(None),)
            reference = operators._hermitian_gram(np.sqrt(on.weights)[:, None] * rows)
            assert np.abs(op.gram - reference).max() <= 1e-14 * np.abs(reference).max()
        # the |h_n| rows couple h_0 and h_1 at order 1: a split would drop it
        coupled = frame_operator(KernelMatrix(np.abs(kernel.rows), grid, dirac_map()))
        assert abs(coupled.gram[0, 1]) > 0.1

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
        # the eigenvector of S's smallest eigenvalue is annihilated within
        # the Gram's resolution
        image = operators.weighted_analysis_matrix(kernel) @ result.witness.coeffs
        assert np.linalg.norm(result.witness.coeffs) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(image) <= np.sqrt(operators.GRAM_RESOLUTION) * result.sigma_max

    def test_zero_kernel(self):
        base = make_kernel(dirac_map(), 8)
        zero = KernelMatrix(np.zeros_like(base.entries), base.grid, None)
        result = totality_test(zero)
        assert not result.total
        assert result.witness.coeffs == pytest.approx(TestFunction.basis(0, 8).coeffs)


class TestMuIndependence:
    def test_dirac_on_coarse_grid(self):
        kernel = sample_kernel(dirac_map(), coarse_synthesis_grid(32), 32)
        assert kernel.node_count == 32
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
        """One values-only SVD of the weighted rows, of shape (node count, N),
        and one thin SVD for U only when the rows are dependent."""
        kernel = sample_kernel(BUILTIN_FAMILIES[family], coarse_synthesis_grid(32), 32)
        computes_uv, shapes = [], []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            computes_uv.append(kwargs.get("compute_uv", True))
            shapes.append(np.shape(a))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        result = mu_independence_test(kernel)
        assert computes_uv == with_u
        assert shapes == [(kernel.node_count, 32)] * len(with_u)
        assert result.mu_independent == (True not in with_u)


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
            constant = operators._bessel_constant(frame_operator(kernel), k)
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
        op = frame_operator(kernel)
        for k in range(ClassifyThresholds().bessel_k_max + 1):
            damped = weighted * (damping_base ** (-k / 2.0))[None, :]
            direct = np.linalg.svd(damped, compute_uv=False)[0]
            assert abs(operators._bessel_constant(op, k) - direct) <= 1e-12 * sigma_max


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
        assert report.labels == ("bessel", "bounded_bessel")
        assert report.stages[-1].lower == 0.0
        assert report.stages[-1].upper == 0.0

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

    @pytest.mark.parametrize("scale", ["10^-155", "10^-160", "10^-162"])
    def test_frame_operator_below_the_normal_range_names_the_stage(self, scale):
        """w^2 under the smallest normal float leaves S subnormal (A off by
        3e-3 at 1e-160) or exactly 0 (1e-162, which would read as a zero
        map): a NumericError naming the stage, and N for a held kernel."""
        spec = weighted_dirac_map(f"{scale}*(2+sin(x))")
        with pytest.raises(NumericError, match=r"^stage N=8: the frame operator is below float64's normal range$"):
            classify(spec, default_ladder(8))
        with pytest.raises(NumericError, match=r"^N=8: the frame operator is below float64's normal range$"):
            frame_operator(make_kernel(spec, 8))

    def test_a_bump_off_every_stage_grid_keeps_its_zero_frame_operator(self):
        """bump(100, 101) is 0 at every stage node: S = 0 is no underflow,
        and the map is Bessel with nothing else."""
        assert classify(bump_dirac_map(100.0, 101.0), default_ladder(32)).labels == ("bessel", "bounded_bessel")

    @pytest.mark.parametrize(
        "spec", [weighted_dirac_map("exp(-x^2)"), bump_dirac_map(-1.0, 2.0)], ids=["exp(-x^2)", "bump[-1,2]"]
    )
    def test_unresolved_lower_bounds_read_exactly_zero(self, spec):
        """At n_max 512 these stages lose rank: their A is Gram rounding
        noise of either sign, reported as exactly 0, never negative and
        never inside (0, GRAM_RESOLUTION * B)."""
        report = classify(spec, default_ladder(512))
        for stage in report.stages:
            assert stage.lower == 0.0 or stage.lower > operators.GRAM_RESOLUTION * stage.upper
            assert stage.sigma_min == np.sqrt(stage.lower)
        assert report.stages[-1].lower == 0.0 and not report.has("total")

    def test_small_resolved_lower_bound_keeps_totality(self):
        """1/(1+x^2)^2 at n_max 512 has A/B ~ 1.1e-12: above the resolution,
        so it stays total and an upper semi-frame."""
        report = classify(weighted_dirac_map("1/(1+x^2)^2"), default_ladder(512))
        final = report.stages[-1]
        assert operators.GRAM_RESOLUTION * final.upper < final.lower < 1e-11 * final.upper
        assert report.has("total") and report.has("upper_semi_frame")

    @pytest.mark.parametrize(
        "spec, blocks", [(dirac_map(), 2), (weighted_dirac_map("2+sin(x)"), 1)], ids=["dirac", "2+sin(x)"]
    )
    def test_each_stage_keeps_the_operator_it_was_read_off(self, spec, blocks):
        """Every stage holds its S, the leading block of the ladder's one S,
        split as that S is, and its reported (A, B) are that block's
        _resolved_bounds exactly.  The report's == and repr ignore the
        operator."""
        from dataclasses import replace

        report = classify(spec, default_ladder(64))
        for stage in report.stages:
            assert stage.operator.truncation == stage.truncation
            assert len(stage.operator.columns) == blocks
            assert operators._resolved_bounds(stage.operator) == (stage.lower, stage.upper)
        first = report.stages[0]
        other = operators.FrameOperatorMatrix(2.0 * first.operator.gram)
        assert replace(first, operator=other) == first
        assert replace(report, stages=(replace(first, operator=other),) + report.stages[1:]) == report
        assert "operator" not in repr(report) and "gram" not in repr(report)

    def test_custom_kind_rejected(self):
        from riggedframes import custom_map

        with pytest.raises(InvalidConfigError, match="a custom kernel has no map to sample"):
            classify(custom_map("nope.csv"), default_ladder(8))

    def test_single_stage_certifies_no_trend_label(self):
        single = RefinementLadder((32,), default_stage(32))
        for spec in (dirac_derivative_map(), weighted_dirac_map("1+x^2"), dirac_map()):
            report = classify(spec, single)
            assert report.lower_trend == report.upper_trend == "undetermined"
            assert set(report.labels) <= {"total", "mu_independent"}


def _record_linalg(monkeypatch, *names):
    """{name: [shape, ...]} of the np.linalg calls riggedframes makes from
    now on, in call order (the grids' nodes are not recorded: Gauss-Legendre
    from numpy's own eigvalsh calls, Gauss-Hermite from quadrature's, once
    per node count); a ``qr`` call fails."""
    import sys

    calls = {name: [] for name in names}

    def recording(name, fn):
        def call(a, *args, **kwargs):
            module = sys._getframe(1).f_globals["__name__"]
            if module.startswith("riggedframes") and module != "riggedframes.quadrature":
                calls[name].append((np.shape(a), kwargs.get("compute_uv", True)))
            return fn(a, *args, **kwargs)

        return call

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.qr was called")

    for name in names:
        monkeypatch.setattr(np.linalg, name, recording(name, getattr(np.linalg, name)))
    monkeypatch.setattr(np.linalg, "qr", refused)
    return calls


class TestStageFactorization:
    """Classify's stage diagnostics, read off one Gram per stage, against
    direct SVDs of the complex weighted kernel, and a guard on what classify
    factors."""

    @pytest.mark.parametrize("n_max", [64, 128])
    @pytest.mark.parametrize("family", list(BUILTIN_FAMILIES))
    def test_matches_direct_complex_svd(self, family, n_max):
        """A, B, sigma_max and every Bessel constant to 1e-12, and sigma_min
        to 1e-12 where the Gram resolves it.  A stage whose A is within
        GRAM_RESOLUTION * B (bump's: rank-deficient) reports A = sigma_min
        = 0 exactly, and there the direct sigma_min^2 is within it too.
        Every stage's kernel is sampled on the ladder's one grid."""
        spec = BUILTIN_FAMILIES[family]
        ladder = default_ladder(n_max)
        report = classify(spec, ladder)
        for i, (n, diag) in enumerate(zip(ladder.truncations, report.stages)):
            weighted = weighted_analysis_matrix(sample_kernel(spec, stage_grid(ladder.final_stage), n))
            svals = np.linalg.svd(weighted, compute_uv=False)
            sigma_max, sigma_min = svals[0], svals[-1]
            upper = sigma_max**2
            assert abs(diag.upper - upper) <= 1e-12 * upper
            assert abs(diag.lower - sigma_min**2) <= 1e-12 * upper
            assert abs(diag.sigma_max - sigma_max) <= 1e-12 * sigma_max
            if diag.lower == 0.0:
                assert diag.sigma_min == 0.0
                assert sigma_min**2 <= operators.GRAM_RESOLUTION * upper
            else:
                assert abs(diag.sigma_min - sigma_min) <= 1e-12 * sigma_max
            damping_base = 1.0 + np.arange(n)
            for k, series in report.bessel_constants.items():
                damped = weighted * (damping_base ** (-k / 2.0))[None, :]
                direct = np.linalg.svd(damped, compute_uv=False)[0]
                assert abs(series[i] - direct) <= 1e-12 * sigma_max
        assert (family == "bump[-1,1]") == any(d.lower == 0.0 for d in report.stages)

    def test_fourier_equals_dirac_with_identity_frame_operator(self):
        ladder = default_ladder(128)
        dirac = classify(dirac_map(), ladder)
        fourier = classify(fourier_map(), ladder)
        assert fourier.stages == dirac.stages
        assert fourier.bessel_constants == dirac.bessel_constants
        for s in dirac.stages:
            assert abs(s.lower - 1.0) <= 1e-12 and abs(s.upper - 1.0) <= 1e-12

    def test_classify_factors_only_small_matrices(self, monkeypatch):
        """No QR and no SVD: the coarse values are closed-form.  Every
        eigvalsh works on one diagonal block of a stage's S, one per block
        for the bounds and one per block and damped seminorm index
        examined."""
        calls = _record_linalg(monkeypatch, "svd", "eigvalsh", "cholesky")
        ladder = default_ladder(64)
        # 2+sin(x) takes one block per stage, 1+x^2 its two parity blocks
        for family, blocks in (("2+sin(x)", 1), ("1+x^2", 2)):
            for recorded in calls.values():
                recorded.clear()
            report = classify(BUILTIN_FAMILIES[family], ladder)
            assert calls["svd"] == []
            examined = len(report.bessel_constants)
            assert sorted(shape for shape, _ in calls["eigvalsh"]) == sorted(
                (n // blocks,) * 2 for n in ladder.truncations for _ in range(blocks * examined)
            )
            assert calls["cholesky"] == []


# tools/report_bodies.py's ten maps, plus two narrow bumps that a grid per
# stage under-resolved at its small N
ONE_GRID_FAMILIES = BUILTIN_FAMILIES | {
    "x": weighted_dirac_map("x"),
    "1-x^2": weighted_dirac_map("1-x^2"),
    "exp(-x^2)": weighted_dirac_map("exp(-x^2)"),
    "bump[-1,2]": bump_dirac_map(-1.0, 2.0),
    "bump[0,0.05]": bump_dirac_map(0.0, 0.05),
    "bump[-1,-0.9]": bump_dirac_map(-1.0, -0.9),
}


@pytest.mark.parametrize("n_max", [64, 1024])
@pytest.mark.parametrize("family", list(ONE_GRID_FAMILIES))
def test_stages_are_leading_blocks_of_one_s_and_interlace(monkeypatch, family, n_max):
    """classify sums one S, on the ladder's grid, and every stage's S
    is a view of its leading N x N block.  So by Cauchy interlacing A never
    rises, and B and each Bessel constant never fall, from one stage to the
    next, to 1e-14 of the larger stage's value."""
    built, stage_operator = [], operators._stage_operator

    def recording(*args):
        built.append(stage_operator(*args))
        return built[-1]

    monkeypatch.setattr(operators, "_stage_operator", recording)
    report = classify(ONE_GRID_FAMILIES[family], default_ladder(n_max))
    assert [op.truncation for op in built] == [n_max]
    assert all(np.shares_memory(stage.operator.gram, built[0].gram) for stage in report.stages)
    for before, after in zip(report.stages, report.stages[1:]):
        assert after.lower <= before.lower + 1e-14 * after.upper
        assert after.upper >= before.upper - 1e-14 * after.upper
    for series in report.bessel_constants.values():
        assert all(after >= before - 1e-14 * after for before, after in zip(series, series[1:]))


# EXACT_OPERATORS plus 1-x^2, whose weight is negative for |x| > 1
EXACT_GRID_MAPS = EXACT_OPERATORS | {"1-x^2": (weighted_dirac_map("1-x^2"), (1.0, 0.0, -1.0), 0)}


def _displacement_moduli(a, n):
    """g[m, d] with <h_m, e^(iax) h_(m+d)> = i^d g[m, d] for m + d < n: the
    displacement-operator matrix element e^(-t/2) t^(d/2) sqrt(m!/(m+d)!)
    L_m^(d)(t), t = a^2/2 (Cahill & Glauber, Phys. Rev. 177, 1857, 1969).
    The normalized Laguerre recurrence runs in m for every d at once, on a
    mantissa with a per-d log scale, so neither the start t^(d/2)/sqrt(d!)
    nor its growth leaves float64 range."""
    t, d = 0.5 * a * a, np.arange(n)
    log_scale = -0.5 * t + 0.5 * d * np.log(t) - 0.5 * np.array([math.lgamma(k + 1.0) for k in d])
    before, current = np.zeros(n), np.ones(n)
    g = np.empty((n, n))
    g[0] = np.exp(log_scale)
    for m in range(n - 1):
        step = ((2 * m + 1 + d - t) * current - np.sqrt(m * (m + d)) * before) / np.sqrt((m + 1) * (m + 1 + d))
        before, current = current, step
        big = np.abs(current) > 1e100
        current[big] *= 1e-100
        before[big] *= 1e-100
        log_scale[big] += 100 * math.log(10.0)
        g[m + 1] = current * np.exp(log_scale)
    return g


def _trigonometric_frame_operator(constant, waves, n):
    """The exact S of a weighted dirac with |w|^2 = constant + sum over
    ``waves`` {a: (c, s)} of c cos(a x) + s sin(a x): cos and sin are the
    real and imaginary parts of e^(iax), whose elements are symmetric in m
    and k."""
    exact = constant * np.eye(n)
    for a, (c, s) in waves.items():
        g = _displacement_moduli(a, n)
        for d in range(n):
            factor = c * (1, 0, -1, 0)[d % 4] + s * (0, 1, 0, -1)[d % 4]
            rows = np.arange(n - d)
            exact[rows, rows + d] += factor * g[: n - d, d]
            if d:
                exact[rows + d, rows] += factor * g[: n - d, d]
    return exact


# |w|^2 of trigonometric weights as (constant, {a: (cos coefficient, sin
# coefficient)}), with sup |w|^2
TRIGONOMETRIC_WEIGHTS = {
    "2+sin(x)": ((4.5, {1.0: (0.0, 4.0), 2.0: (-0.5, 0.0)}), 9.0),
    "sin(5*x)+2": ((4.5, {5.0: (0.0, 4.0), 10.0: (-0.5, 0.0)}), 9.0),
    "cos(x)^2+1": ((19.0 / 8.0, {2.0: (1.5, 0.0), 4.0: (0.125, 0.0)}), 4.0),
}


class TestLadderGrid:
    """operators._ladder_grid: an exact map (dirac, fourier, dirac_derivative,
    a polynomial weight) on a stage that sets no grid is summed on the
    Gauss-Hermite rule of N + d nodes rounded up to even, exactly; any other
    weight on the Gauss-Hermite rule its search accepts, or past the search's
    ceiling on the composite grid; bumps and custom kernels on the final
    stage's composite grid."""

    @pytest.mark.parametrize("truncation", [64, 512, 2048])
    @pytest.mark.parametrize("weight", list(TRIGONOMETRIC_WEIGHTS))
    def test_trigonometric_weights_match_the_closed_form_on_their_grid(self, weight, truncation):
        """S summed on the Gauss-Hermite rule _ladder_grid picks against the
        displacement-operator closed form, to 1e-13 B (B <= sup |w|^2); the
        closed form itself carries about 3e-14 B of rounding at N = 2048."""
        (constant, waves), sup = TRIGONOMETRIC_WEIGHTS[weight]
        spec = weighted_dirac_map(weight)
        grid = operators._ladder_grid(spec, default_stage(truncation))
        assert grid.order == 4 and grid.node_count < stage_grid(default_stage(truncation)).node_count
        stage_s = operators._stage_operator(spec, grid, truncation).gram
        exact = _trigonometric_frame_operator(constant, waves, truncation)
        assert np.abs(stage_s - exact).max() <= 1e-13 * sup

    @pytest.mark.parametrize("truncation", [8, 64, 512, 1024])
    @pytest.mark.parametrize("family", list(EXACT_GRID_MAPS))
    def test_exact_maps_sum_the_exact_operator_on_their_grid(self, family, truncation):
        """The S summed on the grid _ladder_grid picks against the exact S
        of omega_x = p(x) delta_x^(d), to 1e-13 B.  Fourier's S is dirac's
        up to its column phase, so its gram is the one compared."""
        from riggedframes import hermite_grid
        from riggedframes.acceptance import _exact_frame_operator

        spec, poly_coeffs, derivative_order = EXACT_GRID_MAPS[family]
        grid = operators._ladder_grid(spec, default_stage(truncation))
        count = truncation + derivative_order + len(poly_coeffs) - 1
        assert grid is hermite_grid(count + count % 2)
        op = operators._stage_operator(spec, grid, truncation)
        stage_s = op.gram if family == "fourier" else op.matrix
        exact = _exact_frame_operator(poly_coeffs, derivative_order, truncation)
        upper = np.linalg.eigvalsh(exact)[-1]
        assert np.abs(stage_s - exact).max() <= 1e-13 * upper

    @staticmethod
    def _sampled_nodes(monkeypatch, spec, ladder):
        """The nodes classify samples its map at, summed over its blocks."""
        sampled, fill_rows = [], operators._fill_rows

        def counting(spec, nodes, *args):
            sampled.append(nodes.size)
            return fill_rows(spec, nodes, *args)

        monkeypatch.setattr(operators, "_fill_rows", counting)
        classify(spec, ladder)
        return sum(sampled)

    @staticmethod
    def _live_pairs(spec, grid):
        """The nodes x > 0 of a mirrored grid where w(x) or w(-x) is not 0:
        the only ones _stage_operator samples a weighted map at."""
        weight, start = np.abs(operators._row_weight(spec, grid.nodes)), grid.node_count // 2
        return np.count_nonzero(weight[start:] + weight[:start][::-1])

    def test_dirac_samples_the_positive_gauss_hermite_nodes(self, monkeypatch):
        """dirac at n_max 256 sums its S on K = 256 Gauss-Hermite nodes,
        sampling the K/2 = 128 at x > 0."""
        assert self._sampled_nodes(monkeypatch, dirac_map(), default_ladder(256)) == 128

    @pytest.mark.parametrize("weight, count", [("2+sin(x)", 320), ("exp(-x^2)", 500), ("1/(1+x^2)", 784)])
    def test_grammar_weights_sample_the_searched_gauss_hermite_rule(self, monkeypatch, weight, count):
        """A weight that is no polynomial is summed on the Gauss-Hermite rule
        the search accepts, a fraction of the composite grid's 3840 nodes at
        N = 256: half its nodes, those at x > 0, are sampled, less the pairs
        where the weight is 0 (exp(-x^2) underflows past |x| ~ 27.3)."""
        from riggedframes import hermite_grid

        spec = weighted_dirac_map(weight)
        grid = operators._ladder_grid(spec, default_stage(256))
        assert grid is hermite_grid(count)
        live = self._live_pairs(spec, grid)
        assert live == (count // 2 - 15 if weight == "exp(-x^2)" else count // 2)
        assert self._sampled_nodes(monkeypatch, spec, default_ladder(256)) == live

    @pytest.mark.parametrize("truncation", [512, 2048])
    @pytest.mark.parametrize("weight", ["2+sin(x)", "exp(-x^2)", "x*exp(-x^2)", "1/(1+x^2)", "1/(1+x^2)^2"])
    def test_decaying_and_periodic_weights_take_a_gauss_hermite_rule(self, weight, truncation):
        """The non-polynomial weights of the report bodies and the decaying
        upper semi-frames are all accepted below the ceiling, at under 3N
        nodes."""
        count = operators._hermite_node_count(weighted_dirac_map(weight), truncation)
        assert count is not None and count < 3 * truncation

    @staticmethod
    def _assert_the_search_reads_the_stage(spec, count, truncation):
        """_tail_columns on hermite_grid(count) against the last columns of
        _stage_operator's S on the same rule, within 4 eps B: one sampler,
        the class Grams summed by syrk and the tail by a product."""
        from riggedframes import hermite_grid

        op = operators._stage_operator(spec, hermite_grid(count), truncation)
        tail, _ = operators._tail_columns(spec, count, truncation)
        upper = frame_bounds(op)[1]
        assert np.abs(tail - op.gram[:, truncation - 4 :]).max() <= 4 * np.finfo(float).eps * upper

    @pytest.mark.parametrize("truncation", [64, 256, 512])
    @pytest.mark.parametrize("weight", ["2+sin(x)", "exp(-x^2)", "1/(1+x^2)"])
    def test_the_search_reads_the_stages_own_rows(self, weight, truncation):
        """The search's tail on its first rule, K = N + 64, is the tail of
        the S the stage sums on that rule."""
        self._assert_the_search_reads_the_stage(weighted_dirac_map(weight), truncation + 64, truncation)

    def test_the_search_and_the_stage_share_their_node_blocks(self, monkeypatch):
        """With _NODE_BLOCK below K/2, both read the rule's 160 nodes x > 0
        in two blocks, the negligible floor carrying its peak across them."""
        blocks, stage_rows = [], operators._stage_rows

        def recording(*args):
            for rows, q in stage_rows(*args):
                blocks.append(rows.shape[0])
                yield rows, q

        monkeypatch.setattr(operators, "_NODE_BLOCK", 100)
        monkeypatch.setattr(operators, "_stage_rows", recording)
        self._assert_the_search_reads_the_stage(weighted_dirac_map("2+sin(x)"), 320, 256)
        assert blocks == [100, 60, 100, 60]

    def test_bumps_and_custom_kernels_stay_composite(self, monkeypatch):
        """A bump is C-infinity but not analytic, and a custom kernel has no
        map to sample: both are summed on the default composite grid.  The
        bump is sampled at its 63 nodes x > 0 inside (-1, 1) alone: at the
        other 1857 of the grid's 1920, w(x) = w(-x) = 0."""
        from riggedframes.kernels import MapSpec

        composite, bump = stage_grid(default_stage(256)), bump_dirac_map(-1.0, 1.0)
        assert np.array_equal(operators._ladder_grid(bump, default_stage(256)).nodes, composite.nodes)
        assert self._live_pairs(bump, composite) == 63
        assert self._sampled_nodes(monkeypatch, bump, default_ladder(256)) == 63
        custom = MapSpec("custom", custom_kernel="kernel.csv")
        assert np.array_equal(operators._ladder_grid(custom, default_stage(256)).nodes, composite.nodes)

    def test_a_weight_at_the_search_ceiling_keeps_the_composite_s_bit_for_bit(self):
        """1/(1+x^2) at N = 64 still reads 1.4e-10 B at K = 4N: the search
        passes its ceiling, and classify's S is the composite grid's."""
        spec, stage = weighted_dirac_map("1/(1+x^2)"), default_stage(64)
        assert operators._hermite_node_count(spec, 64) is None
        whole = classify(spec, default_ladder(64)).stages[-1].operator.gram
        assert np.array_equal(whole, operators._stage_operator(spec, stage_grid(stage), 64).gram)

    def test_the_search_leaves_an_overflowing_weight_to_the_composite_grid(self):
        """exp(x^2) at N = 512 overflows at the first rule's outer nodes: the
        search stops there, and the stage takes the composite grid, which
        raises the weight's error at one of its own nodes, as without the
        search (test_cli's map.weight and float64-range cases)."""
        spec, stage = weighted_dirac_map("exp(x^2)"), default_stage(512)
        assert operators._hermite_node_count(spec, 512) is None
        assert np.array_equal(operators._ladder_grid(spec, stage).nodes, stage_grid(stage).nodes)

    @pytest.mark.parametrize("family", ["dirac", "2+sin(x)"])
    def test_a_final_stage_grid_is_refused_on_a_built_in_map(self, family):
        """A built-in map's grid is chosen from the map and N: a final stage
        other than default_stage(N), built past the config parser, is
        refused by _ladder_grid on every ladder request.  2+sin(x) on 120
        panels (768 by default) read B = 10.58, above the continuum's 9.  A
        custom map's final stage keeps its own grid."""
        from dataclasses import replace

        from riggedframes.kernels import MapSpec
        from riggedframes.reporting import RunConfig, run

        spec, stage = BUILTIN_FAMILIES[family], replace(default_stage(512), panels=120)
        ladder = RefinementLadder((128, 256, 512), stage)
        match = r"^ladder\.final_stage: a built-in map's grid is chosen from the map and N, not LadderStage\("
        with pytest.raises(InvalidConfigError, match=match):
            classify(spec, ladder)
        config = RunConfig(spec, ladder, ClassifyThresholds(), 7, None, "json")
        for command in ("bounds", "sweep", "dual", "reconstruct"):
            with pytest.raises(InvalidConfigError, match=match):
                run(command, config)
        custom = MapSpec("custom", custom_kernel="kernel.csv")
        assert np.array_equal(operators._ladder_grid(custom, stage).nodes, stage_grid(stage).nodes)


EVEN_FAMILIES = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "1+x^2": weighted_dirac_map("1+x^2"),
    # even in magnitude and negative for |x| > 1: the stage rows carry |w|
    "1-x^2": weighted_dirac_map("1-x^2"),
    "exp(-x^2)": weighted_dirac_map("exp(-x^2)"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}


def _one_block(spec, grid, truncation):
    """S of the map's rows on a grid in one block: a kernel built from
    sample_kernel's rows, which never splits."""
    kernel = sample_kernel(spec, grid, truncation)
    return frame_operator(KernelMatrix(kernel.rows, kernel.grid, phase=kernel.phase))


class TestParitySplit:
    """Maps whose row magnitudes are even on the mirror-symmetric stage grid
    sum the even and odd blocks of a stage's S apart, from the nodes x > 0."""

    @pytest.mark.parametrize("n", [64, 1024])
    @pytest.mark.parametrize("family", list(EVEN_FAMILIES))
    def test_even_maps_split_with_the_one_block_spectrum(self, family, n):
        """The split stage's S is the one-block S to 1e-14 B, exactly 0
        between the blocks, and so has its spectrum."""
        spec, grid = EVEN_FAMILIES[family], stage_grid(default_stage(n))
        split = operators._stage_operator(spec, grid, n)
        assert split.columns == operators._PARITY
        assert not split.gram[0::2, 1::2].any()
        one = _one_block(spec, grid, n)
        assert one.columns == (slice(None),)
        upper = frame_bounds(one)[1]
        assert np.abs(split.gram - one.gram).max() <= 1e-14 * upper
        for mine, theirs in zip(frame_bounds(split), frame_bounds(one)):
            assert abs(mine - theirs) <= 1e-14 * upper

    @pytest.mark.parametrize(
        "spec",
        [
            weighted_dirac_map("2+sin(x)"),
            weighted_dirac_map("10^150*(2+sin(x))"),
            bump_dirac_map(-1.0, 2.0),
            bump_dirac_map(-2.0, 1.0),
        ],
        ids=["2+sin(x)", "1e150*(2+sin(x))", "bump[-1,2]", "bump[-2,1]"],
    )
    @pytest.mark.parametrize(
        "stage",
        [default_stage(8), default_stage(64), LadderStage(16, 10.0, 1500, 10)],
        ids=["8", "64", "16-two-node-blocks"],
    )
    def test_maps_without_even_magnitude_take_one_block(self, spec, stage):
        """The stage sums S from the nodes x > 0 with one even-odd cross
        block, so S is one class: the one-block S to 1e-14 B, for a weight
        near the top of float64 range, for bumps that vanish on one side
        of a node pair only, and with the cross block summed over a second,
        shorter node block: 7,500 nodes at x > 0, the second block holding
        x > 5.46, across the turning point sqrt(33) = 5.74."""
        grid, n = stage_grid(stage), stage.truncation
        op = operators._stage_operator(spec, grid, n)
        assert op.columns == (slice(None),)
        one = _one_block(spec, grid, n)
        assert np.abs(op.gram - one.gram).max() <= 1e-14 * frame_bounds(one)[1]

    def test_stage_frees_its_row_buffer_before_s_is_assembled(self):
        """2+sin(x) at N = 1024 samples two node blocks into one 4096 x N
        buffer (32 MiB).  The traced peak stays below that buffer plus two
        N x N matrices: S is assembled from the class Grams only once the
        buffer is freed."""
        import tracemalloc

        n, spec = 1024, weighted_dirac_map("2+sin(x)")
        grid = stage_grid(default_stage(n))
        assert grid.node_count // 2 > operators._NODE_BLOCK
        tracemalloc.start()
        try:
            operators._stage_operator(spec, grid, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < operators._NODE_BLOCK * n * 8 + 2 * n * n * 8

    def test_a_node_at_zero_counts_once(self):
        """An odd node count puts a node at 0, which no ladder grid has: a
        held kernel on such a grid is one block, and its S sums all the
        rows, that node's once."""
        grid = build_grid(12.0, 25, 9)
        assert grid.node_count % 2 and grid.nodes[grid.node_count // 2] == 0.0
        kernel = sample_kernel(weighted_dirac_map("1+x^2"), grid, 16)
        assert kernel.signs is None and operators._gram_rows(kernel)[2] == (slice(None),)
        op = frame_operator(kernel)
        assert op.columns == (slice(None),)
        rows = (1.0 + grid.nodes**2)[:, None] * np.column_stack([hermite_eval(n, grid.nodes) for n in range(16)])
        reference = rows.T @ (grid.weights[:, None] * rows)
        assert np.abs(op.gram - reference).max() <= 1e-14 * np.abs(reference).max()


# rank-deficient coarse kernels: exp(-x^2) has values crossing the cutoff,
# bump[-1,1] zero rows
DEFICIENT_COARSE = {"exp(-x^2)": weighted_dirac_map("exp(-x^2)"), "bump[-1,1]": bump_dirac_map(-1.0, 1.0)}
# the coarse kernels the rule is checked on: the exact maps, one with a
# node pair sign s = -1 (dirac_derivative, x), and the deficient ones
RULE_COARSE = {name: spec for name, (spec, _, _) in EXACT_OPERATORS.items()} | DEFICIENT_COARSE


def _coarse(spec, n):
    return sample_kernel(spec, coarse_synthesis_grid(n), n)


class TestCoarseRankRule:
    """The coarse rank rule on a kernel it is handed: its two steps, its
    witness and its verdict where a node sits at 0."""

    @pytest.mark.parametrize("n", [64, 256, 512])
    @pytest.mark.parametrize("family", list(RULE_COARSE))
    def test_vectors_step_pairs_with_the_values_step(self, family, n):
        """svals descend and set full_rank; left_vectors is orthonormal on
        the full grid and its column j is a left singular vector for
        svals[j]: U^T A A^T U = diag(svals^2)."""
        kernel = _coarse(RULE_COARSE[family], n)
        rule = operators._CoarseSVD(kernel, RANK_CUTOFF)
        assert rule.svals.shape == (kernel.node_count,) and np.all(np.diff(rule.svals) <= 0)
        scale = rule.svals[0]
        assert rule.full_rank == operators._full_rank(rule.svals[-1], scale, RANK_CUTOFF)
        u = rule.left_vectors()
        assert np.abs(u.T @ u - np.eye(kernel.node_count)).max() <= 1e-13
        image = operators._weighted_rows(kernel).T @ u
        assert np.abs(image.T @ image - np.diag(rule.svals**2)).max() <= 1e-13 * scale**2

    @pytest.mark.parametrize("n", [64, 256, 512])
    @pytest.mark.parametrize("family", list(DEFICIENT_COARSE))
    def test_deficient_range_leaves_the_cut_values(self, family, n):
        """rf_diagnostic's numerical range, the columns of U above the
        cutoff, is an orthogonal projector P of that rank, and what it
        leaves of the weighted rows has norm ||(I - P) A|| = svals[rank],
        the largest value cut."""
        kernel = _coarse(DEFICIENT_COARSE[family], n)
        rule = operators._CoarseSVD(kernel, NULL_SPACE_CUTOFF)
        assert not rule.full_rank
        keep = rule.svals > NULL_SPACE_CUTOFF * rule.svals[0]
        rank = np.count_nonzero(keep)
        assert 0 < rank < kernel.node_count and keep[:rank].all()
        basis = rule.left_vectors()[:, keep]
        projector = basis @ basis.T
        assert np.abs(projector @ projector - projector).max() <= 1e-13
        assert abs(np.trace(projector) - rank) <= 1e-12
        weighted = operators._weighted_rows(kernel)
        left = np.linalg.norm(weighted - projector @ weighted, 2)
        assert abs(left - rule.svals[rank]) <= 1e-13 * rule.svals[0]

    @pytest.mark.parametrize("family", list(DEFICIENT_COARSE))
    def test_witness_is_a_unit_near_null_grid_function(self, family):
        kernel = _coarse(DEFICIENT_COARSE[family], 256)
        result = mu_independence_test(kernel)
        assert not result.mu_independent
        assert abs(l2x_norm(result.witness, kernel.grid) - 1.0) <= 1e-13
        # its synthesis has the weighted l2 norm sigma_min, below the cutoff
        image = operators._weighted_rows(kernel).T @ (np.sqrt(kernel.grid.weights) * result.witness)
        assert abs(np.linalg.norm(image) - result.sigma_min) <= 1e-13 * result.sigma_max
        assert result.sigma_min <= RANK_CUTOFF * result.sigma_max

    @pytest.mark.parametrize("family", ["dirac", "bump[-1,1]"])
    def test_a_node_at_zero_gives_the_same_verdict(self, family):
        """An odd node count puts a node at 0; the verdict is that of the
        even grid of the same width."""
        spec, n = BUILTIN_FAMILIES[family], 32
        grid = build_grid(bulk_half_width(n), 5, 5)
        assert grid.node_count % 2 and grid.nodes[grid.node_count // 2] == 0.0
        kernel = sample_kernel(spec, grid, n)
        even = sample_kernel(spec, build_grid(bulk_half_width(n), 6, 4), n)
        assert mu_independence_test(kernel).mu_independent == mu_independence_test(even).mu_independent
        assert operators._CoarseSVD(kernel, RANK_CUTOFF).full_rank == (family == "dirac")


def _eager_bessel_search(grams, tops, thresholds):
    """Reference: form every seminorm index's series, then pick the first
    bounded one."""
    series = {
        k: tuple(tops) if k == 0 else tuple(operators._bessel_constant(op, k) for op in grams)
        for k in range(thresholds.bessel_k_max + 1)
    }
    truncations = [op.truncation for op in grams]
    trends = {k: operators._series_trend(v, truncations, thresholds, 0.0) for k, v in series.items()}
    bounded = [k for k, trend in trends.items() if trend == "bounded"]
    index = bounded[0] if bounded else None
    return index, series[index][-1] if bounded else None, series


class TestBesselSearch:
    """classify forms the damped Bessel series only up to the first bounded
    seminorm index, and picks what forming every series would pick."""

    @pytest.mark.parametrize(
        "family, blocks, per_block", [("dirac", 2, 1), ("dirac_derivative", 2, 2), ("2+sin(x)", 1, 1)]
    )
    def test_eigvalsh_per_stage_block_and_no_svd(self, monkeypatch, family, blocks, per_block):
        """Per stage, classify takes no SVD (its coarse values are
        closed-form), and each block of S takes one eigvalsh for the bounds
        plus one per damped seminorm index up to the bounded one (dirac and
        2+sin(x) are bounded at k = 0, dirac_derivative at k = 1):
        ``per_block`` in all."""
        calls = _record_linalg(monkeypatch, "svd", "eigvalsh")
        ladder = default_ladder(64)
        classify(BUILTIN_FAMILIES[family], ladder)
        assert calls["svd"] == []
        assert sorted(shape for shape, _ in calls["eigvalsh"]) == sorted(
            (n // blocks,) * 2 for n in ladder.truncations for _ in range(blocks * per_block)
        )

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


def test_frame_operator_is_the_same_for_either_row_order(monkeypatch):
    """The row-block buffer follows the rows' memory order; a C-ordered copy
    of the rows gives the same S to rounding, and S is exactly Hermitian for
    real rows and for complex ones (the 2+sin(x) rows times exp(i x)).  With
    the byte budget set to 128 real rows of N = 64 (64 stacked complex ones),
    the stage's 1100 nodes leave a short last row block."""
    from riggedframes import KernelMatrix

    kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 64)
    monkeypatch.setattr(operators, "_ROW_BYTES", 128 * 64 * 8)
    assert kernel.node_count % 128 and kernel.node_count % 64
    modulated = np.asfortranarray(kernel.rows * np.exp(1j * kernel.grid.nodes)[:, None])
    modulated.setflags(write=False)
    for omega in (kernel, KernelMatrix(modulated, kernel.grid)):
        assert omega.rows.flags.f_contiguous
        rows = np.ascontiguousarray(omega.rows)
        rows.setflags(write=False)
        other = frame_operator(KernelMatrix(rows, omega.grid, omega.map_spec))
        gram = frame_operator(omega).gram
        assert gram.dtype == omega.rows.dtype
        assert np.array_equal(gram, gram.conj().T) and np.array_equal(other.gram, other.gram.conj().T)
        assert np.abs(gram - other.gram).max() <= 1e-14 * np.abs(gram).max()


def test_frame_bounds_takes_eigenvalues_only(monkeypatch):
    """frame_bounds runs a values-only eigendecomposition and still rejects a
    visibly non-Hermitian matrix."""
    kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 32)
    op = frame_operator(kernel)
    expected = np.linalg.eigh(op.gram)[0]

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


@pytest.mark.parametrize("family", ["dirac", "fourier", "dirac_derivative", "2+sin(x)", "1+x^2"])
def test_a_held_gauss_hermite_kernel_is_summed_in_one_block(monkeypatch, family):
    """Every held Gauss-Hermite kernel up to N = 512 fits the row-block byte
    budget: frame_operator sums its S in one block."""
    spec = BUILTIN_FAMILIES[family]
    kernel = sample_kernel(spec, operators._ladder_grid(spec, default_stage(512)), 512)
    blocks, summed = [], operators._summed_operator

    def recording(source, *args, **kwargs):
        def recorded():
            for rows, q in source:
                blocks.append(rows.shape[0])
                yield rows, q

        return summed(recorded(), *args, **kwargs)

    monkeypatch.setattr(operators, "_summed_operator", recording)
    frame_operator(kernel)
    (count,) = blocks
    assert 256 <= count


@pytest.mark.parametrize(
    ("family", "truncation"),
    [(family, n) for family in BUILTIN_FAMILIES for n in (8, 64, 512)]
    + [("complex custom", 64), ("complex custom", 256)],
)
def test_every_s_the_package_forms_is_exactly_hermitian(family, truncation, tmp_path):
    """frame_bounds takes the package's own S without a Hermitian scan: the
    held and the stage S, classify's stage views and the canonical dual's
    theta operator, its inverse X, are all exactly Hermitian, X of a complex
    custom kernel (the 2+sin(x) rows times exp(i x), through the CSV
    interchange) included.  The bump's S at N >= 64 is no frame operator:
    no dual."""
    from riggedframes import load_custom_kernel, save_kernel_csv
    from riggedframes.duality import _canonical_dual

    spec = weighted_dirac_map("2+sin(x)") if family == "complex custom" else BUILTIN_FAMILIES[family]
    grid = operators._ladder_grid(spec, default_stage(truncation))
    kernel = sample_kernel(spec, grid, truncation)
    stages = []
    if family == "complex custom":
        path = tmp_path / "complex.csv"
        save_kernel_csv(KernelMatrix(kernel.rows * np.exp(1j * grid.nodes)[:, None], grid), path)
        kernel = load_custom_kernel(path, grid, truncation)
        assert kernel.rows.dtype == complex
    else:
        stage = operators._stage_operator(spec, grid, truncation)
        stages = [stage, *(s.operator for s in classify(spec, default_ladder(truncation)).stages)]
    formed = [frame_operator(kernel), *stages]
    if family != "bump[-1,1]" or truncation == 8:
        formed.append(canonical_dual(kernel).theta_operator)
        if stages:
            # the stage's dual, as the ladder checks form it
            formed.append(_canonical_dual(stage).theta_operator)
    assert all(op._exact for op in formed)
    for op in formed:
        assert np.array_equal(op.gram, op.gram.conj().T)


@pytest.mark.parametrize("complex_rows", [False, True])
def test_a_callers_non_hermitian_matrix_is_refused_raw_or_wrapped(complex_rows):
    """The Hermitian scan stays for every matrix a caller hands over: a raw
    array or a FrameOperatorMatrix of one, writable or read-only, with or
    without a phase.  The same matrix made Hermitian passes."""
    kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 32)
    if complex_rows:
        kernel = KernelMatrix(kernel.rows * np.exp(1j * kernel.grid.nodes)[:, None], kernel.grid)
    gram = frame_operator(kernel).gram
    skewed = np.array(gram)
    skewed[0, 1] += 1e-6 * np.abs(skewed).max()
    frozen = skewed.copy()
    frozen.setflags(write=False)
    phase = np.exp(1j * np.arange(32))
    for matrix in (skewed, frozen):
        for op in (matrix, operators.FrameOperatorMatrix(matrix), operators.FrameOperatorMatrix(matrix, phase=phase)):
            with pytest.raises(NumericError, match=r"^matrix is not Hermitian: deviation "):
                frame_bounds(op)
    assert frame_bounds(operators.FrameOperatorMatrix(np.array(gram))) == frame_bounds(gram)


@pytest.mark.parametrize("truncation", [64, 256])
@pytest.mark.parametrize("support", [(-1.0, 1.0), (-1.0, 2.0)])
def test_the_stage_s_skips_zero_weight_pairs(support, truncation):
    """_stage_operator samples a bump only where w(x) or w(-x) is not 0; its
    S is the held kernel's, summed over every node, within 4 eps B."""
    spec = bump_dirac_map(*support)
    grid = stage_grid(default_stage(truncation))
    stage = operators._stage_operator(spec, grid, truncation).gram
    every_node = frame_operator(sample_kernel(spec, grid, truncation)).gram
    upper = np.linalg.eigvalsh(stage)[-1]
    assert np.abs(stage - every_node).max() <= 4 * np.finfo(float).eps * upper
