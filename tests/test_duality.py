import numpy as np
import pytest

from riggedframes import (
    DualPair,
    InvalidConfigError,
    KernelMatrix,
    NotAFrameError,
    TestFunction,
    build_grid,
    bump_dirac_map,
    canonical_dual,
    classify,
    default_ladder,
    default_stage,
    dirac_derivative_map,
    dirac_map,
    dual_bessel_check,
    dual_bounds,
    dual_semiframe_check,
    fourier_map,
    frame_bounds,
    frame_operator,
    gelfand_check,
    hermite_table,
    load_custom_kernel,
    parseval_check,
    random_test_function,
    reconstruct,
    riesz_check,
    sample_kernel,
    save_kernel_csv,
    stage_grid,
    totality_test,
    verify_duality,
    weighted_analysis_matrix,
    weighted_dirac_map,
)
from riggedframes import duality, operators
from riggedframes.operators import RANK_CUTOFF

SEED = 20240409


def make_kernel(spec, truncation):
    return sample_kernel(spec, stage_grid(default_stage(truncation)), truncation)


class TestCanonicalDual:
    def test_dirac_self_dual(self):
        kernel = make_kernel(dirac_map(), 16)
        pair = canonical_dual(kernel)
        assert np.abs(pair.theta.entries - pair.omega.entries).max() <= 1e-10
        assert verify_duality(pair, 20) <= 1e-10

    def test_weighted_defect_small(self):
        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 16))
        assert verify_duality(pair, 20) <= 1e-8

    def test_weighted_dual_approaches_inverse_weight_kernel(self):
        # the canonical dual converges to the 1/(2+sin x) weighted kernel in
        # the weak sense on fixed low modes; at desk-scale truncations the
        # agreement is spectral in N but far from roundoff, so the assertion
        # tracks the measured decay (1.6e-2 / 9.6e-4 / 1.7e-5 at N=16/32/64)
        defects = []
        for truncation in (16, 32, 64):
            kernel = make_kernel(weighted_dirac_map("2+sin(x)"), truncation)
            pair = canonical_dual(kernel)
            grid = kernel.grid
            oracle = (1.0 / (2 + np.sin(grid.nodes)))[:, None] * hermite_table(
                truncation, grid.nodes
            )
            defects.append(np.abs(pair.theta.entries[:, :4] - oracle[:, :4]).max())
        assert defects[0] > defects[1] > defects[2]
        assert defects[2] <= 1e-4

    def test_bump_is_not_a_frame(self):
        with pytest.raises(NotAFrameError) as err:
            canonical_dual(make_kernel(bump_dirac_map(-1.0, 1.0), 32))
        assert err.value.lambda_min < 1e-12

    @pytest.mark.parametrize("n", [64, 65, 256, 511])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_triangular_inverse_matches_lu(self, n, dtype):
        """The blocked inverse of a Cholesky factor against np.linalg.inv, to
        1e-13 relative, with exact zeros below the diagonal; at n <= 64 it
        is np.linalg.inv's, bit for bit."""
        from riggedframes.duality import _triangular_inverse

        rng = np.random.default_rng(SEED + n)
        g = rng.standard_normal((n, n))
        if dtype is complex:
            g = g + 1j * rng.standard_normal((n, n))
        factor = np.linalg.cholesky(g.conj().T @ g / n + np.eye(n)).conj().T
        inverse = _triangular_inverse(factor)
        reference = np.linalg.inv(factor)
        assert inverse.dtype == factor.dtype
        assert not np.tril(inverse, -1).any()
        assert np.abs(inverse - reference).max() <= 1e-13 * np.abs(reference).max()
        assert np.abs(factor @ inverse - np.eye(n)).max() <= 1e-13
        if n <= 64:
            assert np.array_equal(inverse, reference)

    def test_dual_frame_operator_is_inverse(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 12)
        pair = canonical_dual(kernel)
        s_omega = frame_operator(pair.omega).matrix
        s_theta = frame_operator(pair.theta).matrix
        assert np.abs(s_theta @ s_omega - np.eye(12)).max() <= 1e-9

    def test_dual_of_dual_returns_original(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 12)
        once = canonical_dual(kernel)
        twice = canonical_dual(once.theta)
        assert np.abs(twice.theta.entries - kernel.entries).max() <= 1e-8


class TestVerifyDuality:
    def test_detects_scaled_non_dual(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 16)
        pair = canonical_dual(kernel)
        doctored = DualPair(
            pair.omega,
            KernelMatrix(2.0 * pair.theta.entries, pair.theta.grid, None),
        )
        defect = verify_duality(doctored, trials=100, seed=SEED)
        assert defect > 0.1
        assert verify_duality(pair, trials=100, seed=SEED) <= 1e-8

    def test_trials_validated(self):
        pair = canonical_dual(make_kernel(dirac_map(), 8))
        with pytest.raises(InvalidConfigError):
            verify_duality(pair, trials=0)

    def test_pair_holds_an_explicit_theta_or_an_inverse(self):
        pair = canonical_dual(make_kernel(dirac_map(), 8))
        with pytest.raises(InvalidConfigError):
            DualPair(pair.omega, None)
        with pytest.raises(InvalidConfigError):
            DualPair(pair.omega, pair.theta, inverse=pair.inverse)

    def test_pair_carries_no_measurement(self):
        """The fields after theta are keyword-only, so a stale positional
        defect, DualPair(omega, theta, 0.0), is refused instead of landing in
        omega_bounds."""
        pair = canonical_dual(make_kernel(dirac_map(), 8))
        assert not hasattr(pair, "duality_defect")
        with pytest.raises(TypeError):
            DualPair(pair.omega, pair.theta, 0.0)

    @pytest.mark.parametrize("spec", [weighted_dirac_map("2+sin(x)"), fourier_map()], ids=["2+sin(x)", "fourier"])
    def test_canonical_pair_takes_one_pass_over_the_rows(self, monkeypatch, spec):
        """theta shares omega's rows, so a canonical pair is measured with one
        pass over them (on [X P f | P g]), one per parity block over the
        x > 0 rows for fourier's split kernel; an explicit pair takes one per
        kernel (theta = rows X is one block), and both give the same defect."""
        from riggedframes import duality, operators

        pair = canonical_dual(make_kernel(spec, 32))
        explicit = DualPair(pair.omega, pair.theta)
        m, split = pair.omega.node_count, pair.omega.signs is not None
        assert split == (spec.kind == "fourier")
        passes = []
        apply = operators._apply

        def recording(matrix, block):
            if matrix.shape[0] in (m, m // 2):
                passes.append((matrix.shape[0],) + block.shape)
            return apply(matrix, block)

        def omega_passes(columns):
            return [(m // 2, 16, columns)] * 2 if split else [(m, 32, columns)]

        monkeypatch.setattr(operators, "_apply", recording)
        monkeypatch.setattr(duality, "_apply", recording)
        lazy = verify_duality(pair, 20, SEED)
        assert passes == omega_passes(40)
        passes.clear()
        assert abs(verify_duality(explicit, 20, SEED) - lazy) <= 1e-12
        assert passes == [(m, 32, 20)] + omega_passes(20)


class TestDualBounds:
    def test_dirac(self):
        pair = canonical_dual(make_kernel(dirac_map(), 16))
        lower, upper = dual_bounds(pair)
        assert lower == pytest.approx(1.0, abs=1e-9)
        assert upper == pytest.approx(1.0, abs=1e-9)

    def test_weighted_inside_reciprocal_interval(self):
        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 32))
        lower, upper = dual_bounds(pair)
        assert lower >= 1.0 / 9.0 - 1e-8
        assert upper <= 1.0 + 1e-8

    def test_scaling_covariance(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 12)
        scaled = KernelMatrix(3.0 * kernel.entries, kernel.grid, kernel.map_spec)
        base = dual_bounds(canonical_dual(kernel))
        after = dual_bounds(canonical_dual(scaled))
        assert after[0] == pytest.approx(base[0] / 9.0, rel=1e-10)
        assert after[1] == pytest.approx(base[1] / 9.0, rel=1e-10)


class TestReconstruct:
    def test_dirac_any_function(self):
        pair = canonical_dual(make_kernel(dirac_map(), 16))
        rng = np.random.default_rng(SEED)
        f = random_test_function(16, rng)
        (_, err), _ = reconstruct(pair, f)
        assert err <= 1e-9

    def test_weighted_both_orders(self):
        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 16))
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            f = random_test_function(16, rng)
            forward, backward = reconstruct(pair, f)
            assert forward[1] <= 1e-8
            assert backward[1] <= 1e-8

    @pytest.mark.parametrize("spec", [weighted_dirac_map("2+sin(x)"), fourier_map()], ids=["2+sin(x)", "fourier"])
    def test_canonical_pair_takes_one_pass_over_the_rows_per_direction(self, monkeypatch, spec):
        """Both orders of a canonical pair come from one product with
        omega.rows (on [X P c | P c]) and one with omega.rows.T, one per
        parity block over the x > 0 rows for fourier's split kernel; an
        explicit pair takes one per kernel and direction (theta = rows X is
        one block), and both agree."""
        from riggedframes import duality, operators

        pair = canonical_dual(make_kernel(spec, 32))
        explicit = DualPair(pair.omega, pair.theta)
        m, split = pair.omega.node_count, pair.omega.signs is not None
        assert split == (spec.kind == "fourier")
        passes = []
        apply = operators._apply

        def recording(matrix, block):
            for height in (m, m // 2):
                if height in matrix.shape:
                    side = "rows" if matrix.shape[0] == height else "rows.T"
                    passes.append((side, height, block.shape[1]))
            return apply(matrix, block)

        def omega_passes(side, columns):
            return [(side, m // 2, columns)] * 2 if split else [(side, m, columns)]

        monkeypatch.setattr(operators, "_apply", recording)
        monkeypatch.setattr(duality, "_apply", recording)
        rng = np.random.default_rng(SEED)
        functions = [random_test_function(32, rng) for _ in range(20)]
        lazy = reconstruct(pair, functions)
        assert passes == omega_passes("rows", 40) + omega_passes("rows.T", 40)
        passes.clear()
        eager = reconstruct(explicit, functions)
        theta_passes = [("rows", m, 20), ("rows.T", m, 20)]
        assert sorted(passes) == sorted(theta_passes + omega_passes("rows", 20) + omega_passes("rows.T", 20))
        for lazy_order, eager_order in zip(lazy, eager):
            for (_, lazy_err), (_, eager_err) in zip(lazy_order, eager_order):
                assert abs(lazy_err - eager_err) <= 1e-12

    def test_zero_function(self):
        pair = canonical_dual(make_kernel(dirac_map(), 8))
        (rebuilt, err), _ = reconstruct(pair, TestFunction.zero(8))
        assert rebuilt.norm() == pytest.approx(0.0, abs=1e-14)
        assert err <= 1e-14


class TestParseval:
    def test_dirac_and_fourier(self):
        for spec in (dirac_map(), fourier_map()):
            flag, defect = parseval_check(make_kernel(spec, 32))
            assert flag
            assert defect <= 1e-10

    def test_weighted_fails_with_multiplication_sized_defect(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 32)
        flag, defect = parseval_check(kernel)
        assert not flag
        # |S - I|max tracks the projected (2+sin)^2 - 1, whose diagonal sits
        # near the 4.5 - 1 = 3.5 mean of the multiplier
        assert 2.0 <= defect <= 8.0

    def test_both_routes_agree_on_every_builtin(self):
        for spec, expected in [
            (dirac_map(), True),
            (fourier_map(), True),
            (weighted_dirac_map("2+sin(x)"), False),
            (weighted_dirac_map("1+x^2"), False),
            (dirac_derivative_map(), False),
            (bump_dirac_map(-1.0, 1.0), False),
        ]:
            flag, _ = parseval_check(make_kernel(spec, 16))
            assert flag is expected


class TestGelfand:
    def test_dirac_and_fourier(self):
        for spec in (dirac_map(), fourier_map()):
            result = gelfand_check(make_kernel(spec, 32))
            assert result.gelfand
            assert result.parseval and result.mu_independent

    def test_bump_rejected(self):
        result = gelfand_check(make_kernel(bump_dirac_map(-1.0, 1.0), 32))
        assert not result.gelfand

    def test_weighted_rejected_despite_mu_independence(self):
        result = gelfand_check(make_kernel(weighted_dirac_map("2+sin(x)"), 32))
        assert not result.gelfand
        assert result.mu_independent and not result.parseval

    def test_spec_less_kernel_with_more_nodes_than_coefficients_rejected(self):
        kernel = make_kernel(dirac_map(), 8)
        with pytest.raises(InvalidConfigError, match=r"node count <= truncation, got \d+ nodes > 8"):
            gelfand_check(KernelMatrix(kernel.rows, kernel.grid))

    def test_reads_only_the_values_step(self, monkeypatch):
        """gelfand_check needs only the mu-independence verdict, which a
        built-in map reads off its closed-form coarse values: a
        rank-deficient coarse kernel (bump) takes no SVD at all."""
        computes_uv = []
        svd = np.linalg.svd

        def recording_svd(a, *args, **kwargs):
            computes_uv.append(kwargs.get("compute_uv", args[1] if len(args) > 1 else True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording_svd)
        result = gelfand_check(make_kernel(bump_dirac_map(-1.0, 1.0), 64))
        assert not result.mu_independent
        assert computes_uv == []


def _count_operators(monkeypatch):
    """{"stage": [...], "kernel": [...]}: the FrameOperatorMatrix of every
    stage Gram and every kernel frame_operator formed from now on, and a
    refusal of np.linalg.qr."""
    built = {"stage": [], "kernel": []}

    def recording(name, fn):
        def call(*args, **kwargs):
            built[name].append(fn(*args, **kwargs))
            return built[name][-1]

        return call

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.qr was called")

    monkeypatch.setattr(operators, "_stage_operator", recording("stage", operators._stage_operator))
    kernel_operator = recording("kernel", operators.frame_operator)
    monkeypatch.setattr(operators, "frame_operator", kernel_operator)
    monkeypatch.setattr(duality, "frame_operator", kernel_operator)
    monkeypatch.setattr(np.linalg, "qr", refused)
    return built


def _sigma_interval(kernel):
    """(sigma_min, sigma_max) of the complex weighted kernel, by direct SVD."""
    svals = np.linalg.svd(weighted_analysis_matrix(kernel), compute_uv=False)
    return svals[-1], svals[0]


class TestRiesz:
    def test_weighted_with_certificate_interval(self):
        result = riesz_check(make_kernel(weighted_dirac_map("2+sin(x)"), 32))
        assert result.riesz
        assert result.sigma_min >= 1.0 - 1e-9
        assert result.sigma_max <= 3.0 + 1e-9

    def test_dirac(self):
        assert riesz_check(make_kernel(dirac_map(), 32)).riesz

    def test_derivative_deltas_rejected(self):
        result = riesz_check(make_kernel(dirac_derivative_map(), 32))
        assert not result.riesz
        assert not result.report.has("frame")

    @pytest.mark.parametrize(
        "spec, blocks", [(weighted_dirac_map("2+sin(x)"), 1), (dirac_map(), 2), (dirac_derivative_map(), 2)]
    )
    def test_reads_the_interval_off_the_final_stage(self, monkeypatch, spec, blocks):
        """A kernel on the final stage's grid is walked once by classify, one
        Gram for the ladder with ``blocks`` diagonal blocks, and factored once
        more on its own frame operator: its interval is totality_test's to the
        bit, and the final stage's and the direct SVD's to 1e-12 sigma_max."""
        kernel = make_kernel(spec, 32)
        own = totality_test(kernel)
        reference_min, reference_max = _sigma_interval(kernel)
        built = _count_operators(monkeypatch)
        result = riesz_check(kernel)
        assert [len(op.columns) for op in built["stage"]] == [blocks]
        assert len(built["kernel"]) == 1
        assert (result.sigma_min, result.sigma_max) == (own.sigma_min, own.sigma_max)
        final = result.report.stages[-1]
        assert final.truncation == kernel.truncation
        tolerance = 1e-12 * reference_max
        for lo, hi in [(final.sigma_min, final.sigma_max), (reference_min, reference_max)]:
            assert abs(result.sigma_min - lo) <= tolerance
            assert abs(result.sigma_max - hi) <= tolerance

    def test_kernel_off_the_final_stage_is_factored_once_more(self, monkeypatch):
        """Any other kernel's interval is its own too: classify forms one
        two-block Gram for the ladder, the kernel one frame operator
        of its own, and (sigma_min, sigma_max) are totality_test's to the bit
        and the direct SVD's to 1e-12 sigma_max."""
        kernel = sample_kernel(weighted_dirac_map("1+x^2"), build_grid(16.0, 80, 8), 32)
        own = totality_test(kernel)
        reference_min, reference_max = _sigma_interval(kernel)
        built = _count_operators(monkeypatch)
        result = riesz_check(kernel)
        assert [len(op.columns) for op in built["stage"]] == [2]
        assert len(built["kernel"]) == 1
        assert (result.sigma_min, result.sigma_max) == (own.sigma_min, own.sigma_max)
        assert abs(result.sigma_min - reference_min) <= 1e-12 * reference_max
        assert abs(result.sigma_max - reference_max) <= 1e-12 * reference_max

    @pytest.mark.parametrize("truncation", [32, 64])
    def test_fourier_sigma_equals_dirac_to_the_bit(self, truncation):
        """fourier's stage Grams are those of the real rows dirac has: its
        unit-modulus column phase moves no eigenvalue and is not formed."""
        fourier = riesz_check(make_kernel(fourier_map(), truncation))
        dirac = riesz_check(make_kernel(dirac_map(), truncation))
        assert (fourier.sigma_min, fourier.sigma_max) == (dirac.sigma_min, dirac.sigma_max)


class TestDualSemiframe:
    def test_dirac(self):
        result = dual_semiframe_check(make_kernel(dirac_map(), 16))
        assert result.holds
        assert all(m >= -1e-9 for m in result.margins)

    def test_weighted(self):
        result = dual_semiframe_check(make_kernel(weighted_dirac_map("2+sin(x)"), 32))
        assert result.holds
        # lower dual bound clears 1/9 at every stage
        assert all(m >= -1e-8 for m in result.margins)

    def test_non_upper_semiframe_rejected(self):
        kernel = make_kernel(dirac_derivative_map(), 16)
        with pytest.raises(InvalidConfigError):
            dual_semiframe_check(kernel)

    @pytest.mark.parametrize("spec", [dirac_map(), weighted_dirac_map("2+sin(x)")], ids=["dirac", "2+sin(x)"])
    def test_reads_each_stage_dual_off_the_walk(self, monkeypatch, spec):
        """Each stage's dual is built from the block of the one S classify
        formed: one Gram for the ladder, no frame operator of a kernel, and
        no kernel sampled, classify's coarse values being closed-form.  The
        margins are those of the canonical dual of the stage's kernel
        sampled on the ladder's grid to 1e-12 / A."""
        ladder = default_ladder(32)
        expected = []
        for n in ladder.truncations:
            stage_kernel = sample_kernel(spec, stage_grid(ladder.final_stage), n)
            lower, upper = frame_bounds(frame_operator(stage_kernel))
            expected.append((dual_bounds(canonical_dual(stage_kernel))[0] - 1.0 / upper, lower))
        built = _count_operators(monkeypatch)
        sampled, sample = [], operators.sample_kernel

        def recording(map_spec, grid, truncation):
            sampled.append(grid.node_count)
            return sample(map_spec, grid, truncation)

        monkeypatch.setattr(operators, "sample_kernel", recording)
        monkeypatch.setattr(duality, "sample_kernel", recording, raising=False)
        result = dual_semiframe_check(make_kernel(spec, 32))
        assert len(built["stage"]) == 1 and built["kernel"] == []
        assert sampled == []
        assert result.holds and len(result.margins) == len(expected)
        for margin, (reference, lower) in zip(result.margins, expected):
            assert abs(margin - reference) <= 1e-12 / lower

    @pytest.mark.parametrize("spec", [dirac_map(), weighted_dirac_map("2+sin(x)")], ids=["dirac", "2+sin(x)"])
    def test_one_eigen_solve_per_stage_block_beyond_classify(self, monkeypatch, spec):
        """Each stage's dual takes omega's bounds from classify's stage: the
        only values-only eigen-solves beyond classify's are dual_bounds', one
        per diagonal block of each stage's S."""
        kernel = make_kernel(spec, 32)
        ladder = default_ladder(32)
        dual_semiframe_check(kernel)
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        report = classify(spec, ladder)
        walk = len(calls)
        calls.clear()
        dual_semiframe_check(kernel)
        blocks = [len(s.operator.columns) for s in report.stages]
        assert len(calls) - walk == sum(blocks)


@pytest.mark.parametrize("check", [dual_semiframe_check, dual_bessel_check], ids=lambda check: check.__name__)
def test_a_singular_stage_is_not_a_frame(monkeypatch, check):
    """A stage whose S is singular at the cutoff is refused with its own
    lambda_min before any Cholesky factor: dirac's ladder to N = 32 with
    its first stage's S set to diag(1, ..., 1, 1e-13), the stage read as
    classify reads one, hooked into classify for dual_semiframe_check and
    into the walk, operators._ladder_stages, for dual_bessel_check."""
    from dataclasses import replace

    from riggedframes import moments

    def doctored_stages(stages):
        first = stages[0]
        op = operators._exact_operator(np.diag(np.r_[np.ones(first.truncation - 1), 1e-13]))
        lower, upper = operators._resolved_bounds(op)
        return (replace(first, lower=lower, upper=upper, operator=op), *stages[1:])

    def doctored(map_spec, ladder):
        report = classify(map_spec, ladder)
        return replace(report, stages=doctored_stages(report.stages))

    def doctored_walk(map_spec, ladder, rank):
        return doctored_stages(operators._ladder_stages(map_spec, ladder, rank))

    def refused(*args, **kwargs):
        raise AssertionError("np.linalg.cholesky was called")

    monkeypatch.setattr(duality, "classify", doctored)
    monkeypatch.setattr(moments, "_ladder_stages", doctored_walk)
    monkeypatch.setattr(np.linalg, "cholesky", refused)
    with pytest.raises(NotAFrameError, match="^frame operator singular at cutoff") as caught:
        check(make_kernel(dirac_map(), 32))
    assert caught.value.lambda_min == 1e-13


@pytest.mark.parametrize(
    "check", [riesz_check, dual_semiframe_check, dual_bessel_check], ids=lambda check: check.__name__
)
def test_ladder_checks_refuse_kernels_below_n8(check):
    """Every ladder starts at N = 8: a smaller kernel is refused, not judged
    off a stage above its own truncation."""
    with pytest.raises(InvalidConfigError, match=f"^{check.__name__} walks a ladder from N=8, got N=4$"):
        check(make_kernel(dirac_map(), 4))


@pytest.mark.parametrize(
    "check", [riesz_check, dual_semiframe_check, dual_bessel_check], ids=lambda check: check.__name__
)
def test_ladder_checks_refuse_custom_kernels(check, tmp_path):
    """A CSV kernel has no map to sample at the ladder's other stages."""
    kernel = make_kernel(dirac_map(), 16)
    path = str(tmp_path / "kernel.csv")
    save_kernel_csv(kernel, path)
    custom = load_custom_kernel(path, kernel.grid, 16)
    message = f"^{check.__name__} walks a ladder and needs a resamplable map spec$"
    with pytest.raises(InvalidConfigError, match=message):
        check(custom)


ORACLE_FAMILIES = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "2+sin(x)": weighted_dirac_map("2+sin(x)"),
    "1+x^2": weighted_dirac_map("1+x^2"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}


@pytest.mark.parametrize("family", list(ORACLE_FAMILIES))
def test_riesz_check_reads_the_classify_label(family):
    """riesz_check's flag is classify's riesz_basis label on the same ladder."""
    spec = ORACLE_FAMILIES[family]
    expected = classify(spec, default_ladder(32)).has("riesz_basis")
    assert riesz_check(make_kernel(spec, 32)).riesz == expected


def _complex_dual_reference(kernel, trials, seed):
    """The dual path in complex arithmetic with per-trial matvecs, from the
    entries cast to complex: theta, dual bounds, duality defect, and the
    reconstruction errors of both orders for each draw."""
    omega = kernel.entries.astype(complex)
    w = kernel.grid.weights
    values, vectors = np.linalg.eigh(omega.conj().T @ (w[:, None] * omega))
    if values[-1] <= 0.0 or values[0] <= RANK_CUTOFF**2 * values[-1]:
        raise NotAFrameError("reference frame operator singular", values[0])
    theta = omega @ ((vectors / values[None, :]) @ vectors.conj().T)
    dual = np.linalg.eigvalsh(theta.conj().T @ (w[:, None] * theta))
    rng = np.random.default_rng(seed)
    defect = 0.0
    for _ in range(trials):
        f = random_test_function(kernel.truncation, rng).coeffs
        g = random_test_function(kernel.truncation, rng).coeffs
        through = np.sum(w * (theta @ f) * np.conj(omega @ g))
        defect = max(defect, abs(np.vdot(g, f) - through) / (np.linalg.norm(f) * np.linalg.norm(g)))
    rng = np.random.default_rng(seed)
    errors = []
    for _ in range(trials):
        f = random_test_function(kernel.truncation, rng).coeffs
        for first, second in ((omega, theta), (theta, omega)):
            rebuilt = second.conj().T @ (w * (first @ f))
            errors.append(np.linalg.norm(rebuilt - f) / np.linalg.norm(f))
    cond = values[-1] / values[0]
    return theta, (dual[0], dual[-1]), defect, np.array(errors), cond


class TestRealDualPathOracle:
    """The dual path in the kernel's own dtype against a complex reference.

    Two roundings of S differ by a few ulps, which inverting S amplifies by
    its condition number, so the 1e-12 relative tolerance is widened by
    1e-15 * cond(S): that matters only for the ill-conditioned 1+x^2 and
    dirac_derivative frames (cond up to ~6e4 at N=128).
    """

    @pytest.mark.parametrize("truncation", [64, 128])
    @pytest.mark.parametrize("family", list(ORACLE_FAMILIES))
    def test_matches_complex_reference(self, family, truncation):
        kernel = make_kernel(ORACLE_FAMILIES[family], truncation)
        if family == "bump[-1,1]":
            with pytest.raises(NotAFrameError):
                _complex_dual_reference(kernel, 20, SEED)
            with pytest.raises(NotAFrameError):
                canonical_dual(kernel)
            return
        theta, (lower, upper), defect, errors, cond = _complex_dual_reference(kernel, 20, SEED)
        tol = 1e-12 + 1e-15 * cond
        pair = canonical_dual(kernel)
        assert pair.theta.entries.dtype == kernel.entries.dtype
        assert np.abs(pair.theta.entries - theta).max() <= tol * np.abs(theta).max()
        dual_lower, dual_upper = dual_bounds(pair)
        assert abs(dual_lower - lower) <= tol * upper
        assert abs(dual_upper - upper) <= tol * upper
        # defects and round-trip errors are already relative
        assert abs(verify_duality(pair, 20, SEED) - defect) <= tol
        rng = np.random.default_rng(SEED)
        functions = [random_test_function(truncation, rng) for _ in range(20)]
        forward, backward = ([err for _, err in order] for order in reconstruct(pair, functions))
        mine = np.array([e for both in zip(forward, backward) for e in both])
        assert np.abs(mine - errors).max() <= tol
        single = reconstruct(pair, functions[3])[1]
        assert isinstance(single[0], TestFunction) and abs(single[1] - backward[3]) <= tol


class TestOmegaBoundsReuse:
    def test_canonical_dual_keeps_the_bounds_it_inverted(self):
        """canonical_dual reads omega's bounds with frame_bounds, the one
        values-only route every bounds reader takes, so they agree exactly."""
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 32)
        assert canonical_dual(kernel).omega_bounds == frame_bounds(frame_operator(kernel))

    def test_dual_bounds_rejects_a_pair_canonical_dual_did_not_build(self):
        pair = canonical_dual(make_kernel(dirac_map(), 8))
        with pytest.raises(InvalidConfigError):
            dual_bounds(DualPair(pair.omega, pair.theta))

    def test_measured_fields_are_set_only_by_the_builder(self):
        """No constructor argument takes omega's bounds or theta's operator,
        so a caller cannot hand dual_bounds forged ones; a pair built from an
        inverse carries neither."""
        pair = canonical_dual(make_kernel(dirac_map(), 8))
        for name in ("omega_bounds", "theta_operator"):
            with pytest.raises(TypeError):
                DualPair(pair.omega, None, inverse=pair.inverse, **{name: getattr(pair, name)})
        lazy = DualPair(pair.omega, None, inverse=pair.inverse)
        assert lazy.omega_bounds is None and lazy.theta_operator is None
        with pytest.raises(InvalidConfigError):
            dual_bounds(lazy)


class TestFourierDual:
    """fourier is dirac times the unitary column phase P = diag((-i)^n), so
    its canonical dual is dirac's times P and has dirac's bounds."""

    @pytest.mark.parametrize("truncation", [64, 128])
    def test_dual_is_the_dirac_dual_times_the_phase(self, truncation):
        fourier = canonical_dual(make_kernel(fourier_map(), truncation))
        dirac = canonical_dual(make_kernel(dirac_map(), truncation))
        expected = dirac.theta.entries * (-1j) ** np.arange(truncation)
        assert np.abs(fourier.theta.entries - expected).max() <= 1e-12
        assert dual_bounds(fourier) == dual_bounds(dirac)
        assert fourier.theta.rows.dtype == np.float64
        assert verify_duality(fourier, 20) <= 1e-12


class TestThetaOperator:
    """canonical_dual's theta operator is the inverse X the pair holds, S^-1
    at matrix level (theta's column phase kept apart); dual_bounds reads
    theta's bounds off it."""

    def _modulated(self, truncation):
        """A complex kernel: the 2+sin(x) rows times a unimodular row factor."""
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), truncation)
        rows = kernel.rows * np.exp(1j * kernel.grid.nodes)[:, None]
        rows.setflags(write=False)
        return KernelMatrix(rows, kernel.grid)

    def _kernel(self, family):
        if family == "complex":
            kernel = self._modulated(64)
            assert np.iscomplexobj(kernel.rows)
            return kernel
        return make_kernel(ORACLE_FAMILIES[family], 64)

    @pytest.mark.parametrize("family", ["2+sin(x)", "fourier", "complex"])
    def test_is_the_gram_of_theta_and_exactly_hermitian(self, family):
        pair = canonical_dual(self._kernel(family))
        mine = pair.theta_operator.matrix
        assert np.array_equal(mine, mine.conj().T)
        tall = frame_operator(pair.theta).matrix
        lower, upper = pair.omega_bounds
        assert np.abs(mine - tall).max() <= (1e-12 + 1e-15 * upper / lower) / lower

    @pytest.mark.parametrize("family", ["2+sin(x)", "fourier", "complex"])
    def test_is_the_inverse_the_pair_holds(self, family):
        """No second N x N array: theta's operator adopts the pair's read-only
        inverse, with omega's column phase."""
        pair = canonical_dual(self._kernel(family))
        gram = pair.theta_operator.gram
        assert np.shares_memory(gram, pair.inverse) and np.array_equal(gram, pair.inverse)
        assert not gram.flags.writeable
        assert pair.theta_operator.phase is pair.omega.phase
        assert (pair.omega.phase is not None) == (family == "fourier")

    def test_postcondition_rejects_a_scaled_theta_operator(self):
        """No constructor argument takes a measured field, so the doctored
        theta operator is set on a copy of the pair, as the builder sets it."""
        from copy import copy

        from riggedframes import FrameOperatorMatrix, NumericError

        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 64))
        dual_bounds(pair)
        doctored = copy(pair)
        object.__setattr__(doctored, "theta_operator", FrameOperatorMatrix(2.0 * pair.theta_operator.gram))
        with pytest.raises(NumericError, match="escaped"):
            dual_bounds(doctored)
        dual_bounds(pair)

    def test_cholesky_failure_is_a_numeric_error(self, monkeypatch):
        from riggedframes import NumericError

        def failing(matrix):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        with pytest.raises(NumericError, match="Cholesky"):
            canonical_dual(make_kernel(dirac_map(), 16))


@pytest.mark.parametrize("spec", [weighted_dirac_map("2+sin(x)"), fourier_map()])
def test_dual_requests_allocate_less_than_the_kernel(spec):
    """canonical_dual keeps the inverse X and theta is applied as
    rows @ (X @ block): neither building the pair nor verifying it nor
    reconstructing in both orders forms a second kernel-sized matrix."""
    import tracemalloc

    kernel = make_kernel(spec, 256)
    assert kernel.rows.dtype == np.float64
    pair = canonical_dual(kernel)
    rng = np.random.default_rng(SEED)
    functions = [random_test_function(256, rng) for _ in range(20)]
    for call in (lambda: canonical_dual(kernel), lambda: verify_duality(pair, 20, SEED),
                 lambda: reconstruct(pair, functions)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kernel.rows.nbytes
