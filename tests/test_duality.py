import numpy as np
import pytest

from riggedframes import (
    DualPair,
    InvalidConfigError,
    KernelMatrix,
    NotAFrameError,
    TestFunction,
    bump_dirac_map,
    canonical_dual,
    default_ladder,
    default_stage,
    dirac_derivative_map,
    dirac_map,
    dual_bounds,
    dual_semiframe_check,
    fourier_map,
    frame_bounds,
    frame_operator,
    gelfand_check,
    hermite_table,
    parseval_check,
    random_test_function,
    reconstruct,
    riesz_check,
    sample_kernel,
    stage_grid,
    verify_duality,
    weighted_dirac_map,
)
from riggedframes.duality import INVERSION_CUTOFF

SEED = 20240409


def make_kernel(spec, truncation):
    return sample_kernel(spec, stage_grid(default_stage(truncation)), truncation)


class TestCanonicalDual:
    def test_dirac_self_dual(self):
        kernel = make_kernel(dirac_map(), 16)
        pair = canonical_dual(kernel)
        assert np.abs(pair.theta.entries - pair.omega.entries).max() <= 1e-10
        assert pair.duality_defect <= 1e-10

    def test_weighted_defect_small(self):
        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 16))
        assert pair.duality_defect <= 1e-8

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
            0.0,
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
            DualPair(pair.omega, None, 0.0)
        with pytest.raises(InvalidConfigError):
            DualPair(pair.omega, pair.theta, 0.0, inverse=pair.inverse)


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
        _, err = reconstruct(pair, f)
        assert err <= 1e-9

    def test_weighted_both_orders(self):
        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 16))
        rng = np.random.default_rng(SEED)
        for _ in range(10):
            f = random_test_function(16, rng)
            assert reconstruct(pair, f)[1] <= 1e-8
            assert reconstruct(pair, f, swap_roles=True)[1] <= 1e-8

    def test_zero_function(self):
        pair = canonical_dual(make_kernel(dirac_map(), 8))
        rebuilt, err = reconstruct(pair, TestFunction.zero(8))
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

    @pytest.mark.parametrize("truncation", [32, 64])
    def test_fourier_sigma_equals_dirac_to_the_bit(self, truncation):
        """fourier factors the real rows dirac does: its unit-modulus column
        phase moves no singular value and is not factored."""
        fourier = riesz_check(make_kernel(fourier_map(), truncation))
        dirac = riesz_check(make_kernel(dirac_map(), truncation))
        assert (fourier.sigma_min, fourier.sigma_max) == (dirac.sigma_min, dirac.sigma_max)


class TestDualSemiframe:
    def test_dirac(self):
        pair = canonical_dual(make_kernel(dirac_map(), 16))
        result = dual_semiframe_check(pair)
        assert result.holds
        assert all(m >= -1e-9 for m in result.margins)

    def test_weighted(self):
        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 32))
        result = dual_semiframe_check(pair)
        assert result.holds
        # lower dual bound clears 1/9 at every stage
        assert all(m >= -1e-8 for m in result.margins)

    def test_non_upper_semiframe_rejected(self):
        pair = canonical_dual(make_kernel(dirac_derivative_map(), 16))
        with pytest.raises(InvalidConfigError):
            dual_semiframe_check(pair)


ORACLE_FAMILIES = {
    "dirac": dirac_map(),
    "fourier": fourier_map(),
    "dirac_derivative": dirac_derivative_map(),
    "2+sin(x)": weighted_dirac_map("2+sin(x)"),
    "1+x^2": weighted_dirac_map("1+x^2"),
    "bump[-1,1]": bump_dirac_map(-1.0, 1.0),
}


def _complex_dual_reference(kernel, trials, seed):
    """The dual path in complex arithmetic with per-trial matvecs, from the
    entries cast to complex: theta, dual bounds, duality defect, and the
    reconstruction errors of both orders for each draw."""
    omega = kernel.entries.astype(complex)
    w = kernel.grid.weights
    values, vectors = np.linalg.eigh(omega.conj().T @ (w[:, None] * omega))
    if values[-1] <= 0.0 or values[0] <= INVERSION_CUTOFF * values[-1]:
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
                canonical_dual(kernel, 20, SEED)
            return
        theta, (lower, upper), defect, errors, cond = _complex_dual_reference(kernel, 20, SEED)
        tol = 1e-12 + 1e-15 * cond
        pair = canonical_dual(kernel, 20, SEED)
        assert pair.theta.entries.dtype == kernel.entries.dtype
        assert np.abs(pair.theta.entries - theta).max() <= tol * np.abs(theta).max()
        dual_lower, dual_upper = dual_bounds(pair)
        assert abs(dual_lower - lower) <= tol * upper
        assert abs(dual_upper - upper) <= tol * upper
        # defects and round-trip errors are already relative
        assert abs(pair.duality_defect - defect) <= tol
        assert abs(verify_duality(pair, 20, SEED) - pair.duality_defect) == 0.0
        rng = np.random.default_rng(SEED)
        functions = [random_test_function(truncation, rng) for _ in range(20)]
        forward = [err for _, err in reconstruct(pair, functions)]
        backward = [err for _, err in reconstruct(pair, functions, swap_roles=True)]
        mine = np.array([e for both in zip(forward, backward) for e in both])
        assert np.abs(mine - errors).max() <= tol
        single = reconstruct(pair, functions[3], swap_roles=True)
        assert isinstance(single[0], TestFunction) and abs(single[1] - backward[3]) <= tol


class TestOmegaBoundsReuse:
    def test_canonical_dual_keeps_the_bounds_it_inverted(self):
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), 32)
        # Same Gram code, but eigh (dstedc) and the values-only eigvalsh
        # (dsterf) round differently.  Both are backward stable in |S| = B, so
        # compare in ulps of B: they differ by 1.25 and 2 here.
        kept = canonical_dual(kernel).omega_bounds
        gap = np.abs(np.subtract(kept, frame_bounds(frame_operator(kernel))))
        assert np.all(gap <= 4 * np.spacing(kept[1]))

    def test_dual_bounds_rejects_a_pair_canonical_dual_did_not_build(self):
        pair = canonical_dual(make_kernel(dirac_map(), 8))
        with pytest.raises(InvalidConfigError):
            dual_bounds(DualPair(pair.omega, pair.theta, 0.0))


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
        assert fourier.duality_defect <= 1e-12


class TestThetaOperator:
    """canonical_dual forms theta's S = X^H S X in N x N arithmetic (X the
    computed inverse); dual_bounds reads theta's bounds off it."""

    def _modulated(self, truncation):
        """A complex kernel: the 2+sin(x) rows times a unimodular row factor."""
        kernel = make_kernel(weighted_dirac_map("2+sin(x)"), truncation)
        rows = kernel.rows * np.exp(1j * kernel.grid.nodes)[:, None]
        rows.setflags(write=False)
        return KernelMatrix(rows, kernel.grid)

    @pytest.mark.parametrize("family", ["2+sin(x)", "fourier", "complex"])
    def test_is_the_gram_of_theta_and_exactly_hermitian(self, family):
        if family == "complex":
            kernel = self._modulated(64)
            assert np.iscomplexobj(kernel.rows)
        else:
            kernel = make_kernel(ORACLE_FAMILIES[family], 64)
        pair = canonical_dual(kernel)
        mine = pair.theta_operator.matrix
        assert np.array_equal(mine, mine.conj().T)
        tall = frame_operator(pair.theta).matrix
        lower, upper = pair.omega_bounds
        assert np.abs(mine - tall).max() <= (1e-12 + 1e-15 * upper / lower) / lower

    def test_postcondition_rejects_a_scaled_theta_operator(self):
        from dataclasses import replace

        from riggedframes import FrameOperatorMatrix, NumericError

        pair = canonical_dual(make_kernel(weighted_dirac_map("2+sin(x)"), 64))
        dual_bounds(pair)
        doubled = FrameOperatorMatrix(2.0 * pair.theta_operator.gram, "doubled")
        with pytest.raises(NumericError, match="escaped"):
            dual_bounds(replace(pair, theta_operator=doubled))

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
    rows @ (X @ block): neither building the pair nor verifying it nor either
    reconstruction order forms a second kernel-sized matrix."""
    import tracemalloc

    kernel = make_kernel(spec, 256)
    assert kernel.rows.dtype == np.float64
    pair = canonical_dual(kernel)
    rng = np.random.default_rng(SEED)
    functions = [random_test_function(256, rng) for _ in range(20)]
    for call in (lambda: canonical_dual(kernel), lambda: verify_duality(pair, 20, SEED),
                 lambda: reconstruct(pair, functions),
                 lambda: reconstruct(pair, functions, swap_roles=True)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < kernel.rows.nbytes
