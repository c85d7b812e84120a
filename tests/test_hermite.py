import math

import numpy as np
import pytest

from riggedframes import (
    DimensionMismatchError,
    TestFunction,
    derivative_coeffs,
    dirac_sample,
    embed,
    fourier_coeffs,
    hermite_eval,
    hermite_table,
    inner_product,
    pair,
    random_test_function,
    seminorm,
    build_grid,
)


def hermite_oracle(n, x):
    """Independent route: physicists' polynomial formula times the Gaussian."""
    coeff = np.zeros(n + 1)
    coeff[n] = 1.0
    poly = np.polynomial.hermite.hermval(x, coeff)
    norm = math.sqrt(float(2.0**n) * math.factorial(n) * math.sqrt(math.pi))
    return poly * np.exp(-np.asarray(x, dtype=float) ** 2 / 2.0) / norm


def test_hermite_eval_ground_state():
    assert hermite_eval(0, 0.0) == pytest.approx(0.7511255444649425, abs=1e-15)


def test_hermite_eval_odd_vanishes_at_origin():
    assert hermite_eval(1, 0.0) == 0.0


def test_hermite_eval_degree_five():
    # frozen from the explicit H_5(x) = 32x^5 - 160x^3 + 120x formula
    assert hermite_eval(5, 1.3) == pytest.approx(-0.3993914628137507, rel=1e-12)


@pytest.mark.parametrize("n", [0, 1, 2, 5, 17, 33, 64])
def test_recurrence_matches_polynomial_oracle(n):
    x = np.linspace(-20.0, 20.0, 161)
    mine = hermite_eval(n, x)
    ref = hermite_oracle(n, x)
    assert np.all(np.isfinite(mine))
    scale = np.abs(ref).max()
    assert np.abs(mine - ref).max() <= 1e-10 * scale


def test_table_agrees_with_scalar_eval():
    x = np.array([-3.2, 0.0, 0.5, 7.1])
    table = hermite_table(6, x)
    for n in range(6):
        assert table[:, n] == pytest.approx(hermite_eval(n, x), abs=1e-15)


def test_table_columns_equal_scalar_recurrence_bitwise():
    from riggedframes import default_stage, stage_grid

    x = stage_grid(default_stage(40)).nodes
    table = hermite_table(40, x)
    assert table.shape == (x.size, 40)
    for n in range(40):
        assert np.array_equal(table[:, n], hermite_eval(n, x))


@pytest.mark.parametrize("truncation", [1, 2, 3, 64, 513, 2048])
def test_the_recurrence_is_the_per_step_scalar_one_bit_for_bit(truncation):
    """The recurrence's coefficient sequences are formed once per call; the
    table equals the plain recurrence with the scalars sqrt(2/(n+1)) and
    sqrt(n/(n+1)) formed at each step, bit for bit, at every node where the
    seed exp(-x^2/2) is a normal float."""
    from riggedframes import hermite_grid

    x = np.concatenate([np.linspace(-37.5, 37.5, 301), hermite_grid(2048).nodes])
    x = x[np.abs(x) < 37.5]
    rows = np.empty((truncation, x.size))
    rows[0] = np.pi**-0.25 * np.exp(-0.5 * x**2)
    if truncation > 1:
        rows[1] = np.sqrt(2.0) * x * rows[0]
    for n in range(1, truncation - 1):
        rows[n + 1] = np.multiply(x, np.sqrt(2.0 / (n + 1))) * rows[n] - np.sqrt(n / (n + 1.0)) * rows[n - 1]
    assert np.array_equal(hermite_table(truncation, x), rows.T)


def test_orthonormality_under_default_grid():
    from riggedframes import default_stage, stage_grid

    grid = stage_grid(default_stage(32))
    table = hermite_table(32, grid.nodes)
    gram = (table * grid.weights[:, None]).T @ table
    assert np.abs(gram - np.eye(32)).max() <= 1e-10


class TestDerivative:
    def test_ground_state(self):
        df, spill = derivative_coeffs(TestFunction.basis(0, 6))
        expected = np.zeros(6, dtype=complex)
        expected[1] = -math.sqrt(0.5)
        assert df.coeffs == pytest.approx(expected, abs=1e-15)
        assert spill == 0.0

    def test_zero(self):
        df, spill = derivative_coeffs(TestFunction.zero(5))
        assert df.norm() == 0.0
        assert spill == 0.0

    def test_spill_reported(self):
        f = TestFunction.basis(7, 8)
        _, spill = derivative_coeffs(f)
        assert spill == pytest.approx(math.sqrt(8 / 2.0), rel=1e-14)

    def test_norm_matches_quadrature(self):
        # quadrature oracle for |f'|^2 with f = h_3, N >= 8
        f = TestFunction.basis(3, 8)
        df, _ = derivative_coeffs(f)
        grid = build_grid(14.0, 60, 10)
        dh = math.sqrt(3 / 2.0) * hermite_eval(2, grid.nodes) - math.sqrt(2.0) * hermite_eval(
            4, grid.nodes
        )
        quad = np.sum(grid.weights * dh**2)
        assert df.norm() ** 2 == pytest.approx(quad, abs=1e-9)


class TestFourier:
    def test_eigenrelation_h3(self):
        f = TestFunction.basis(3, 8)
        out = fourier_coeffs(f)
        assert out.coeffs[3] == pytest.approx(1j, abs=1e-15)
        assert np.abs(np.delete(out.coeffs, 3)).max() == 0.0

    def test_gaussian_invariant(self):
        f = TestFunction.basis(0, 4)
        assert fourier_coeffs(f).coeffs == pytest.approx(f.coeffs, abs=1e-15)

    def test_unitary_and_inverse(self):
        rng = np.random.default_rng(11)
        f = random_test_function(12, rng)
        out = fourier_coeffs(f)
        assert out.norm() == pytest.approx(f.norm(), rel=1e-14)
        back = fourier_coeffs(out, inverse=True)
        assert back.coeffs == pytest.approx(f.coeffs, abs=1e-14)

    def test_matches_quadrature_fourier_integral(self):
        # oracle: windowed Fourier integral of h_3 evaluated by quadrature
        grid = build_grid(14.0, 80, 10)
        xi = np.array([-1.7, 0.3, 2.1])
        h3 = hermite_eval(3, grid.nodes)
        integral = np.array(
            [
                np.sum(grid.weights * h3 * np.exp(-1j * x * grid.nodes))
                / math.sqrt(2 * math.pi)
                for x in xi
            ]
        )
        assert integral == pytest.approx(1j * hermite_eval(3, xi), abs=1e-10)


class TestInnerProductAndPair:
    def test_orthonormal_basis(self):
        assert inner_product(TestFunction.basis(2, 6), TestFunction.basis(2, 6)) == 1
        assert inner_product(TestFunction.basis(1, 6), TestFunction.basis(4, 6)) == 0

    def test_self_inner_product_is_norm_squared(self):
        rng = np.random.default_rng(3)
        f = random_test_function(9, rng)
        value = inner_product(f, f)
        assert value.imag == pytest.approx(0.0, abs=1e-14)
        assert value.real == pytest.approx(f.norm() ** 2, rel=1e-14)

    def test_truncation_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            inner_product(TestFunction.basis(0, 4), TestFunction.basis(0, 5))

    def test_pair_embedding_consistency(self):
        rng = np.random.default_rng(5)
        f = random_test_function(10, rng)
        g = random_test_function(10, rng)
        assert pair(f, embed(g)) == pytest.approx(inner_product(f, g), abs=1e-12)
        assert pair(TestFunction.basis(4, 10), embed(TestFunction.basis(4, 10))) == 1

    def test_pair_with_point_mass_is_point_evaluation(self):
        sample = dirac_sample(0.7, 16)
        value = pair(TestFunction.basis(2, 16), sample)
        assert value == pytest.approx(-0.008314294079538848, rel=1e-12)


class TestSeminorm:
    def test_ground_state_any_index(self):
        assert seminorm(TestFunction.basis(0, 4), 5) == 1.0

    def test_h3_quadratic_index(self):
        assert seminorm(TestFunction.basis(3, 8), 2) == pytest.approx(4.0, rel=1e-14)

    def test_index_zero_is_norm(self):
        rng = np.random.default_rng(13)
        f = random_test_function(11, rng)
        assert seminorm(f, 0) == pytest.approx(f.norm(), rel=1e-14)

    def test_monotone_in_index(self):
        rng = np.random.default_rng(14)
        f = random_test_function(11, rng)
        values = [seminorm(f, k) for k in range(6)]
        assert all(a <= b * (1 + 1e-15) for a, b in zip(values, values[1:]))

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            seminorm(TestFunction.basis(0, 4), -1)


def test_pointwise_evaluation_matches_expansion():
    rng = np.random.default_rng(21)
    f = random_test_function(6, rng)
    x = 0.83
    direct = sum(f.coeffs[n] * hermite_eval(n, x) for n in range(6))
    assert f(x) == pytest.approx(direct, rel=1e-13)


def test_coefficients_are_read_only():
    f = TestFunction.basis(0, 4)
    with pytest.raises(ValueError):
        f.coeffs[0] = 2.0


# Past |x| ~ 37.6 the Gaussian seed of the recurrence underflows; from there
# on the recurrence runs on a scaled mantissa.  Points cover the bulk past
# 37.6, the turning point sqrt(2n+1) and the tails beyond it (down to 1e-35).
@pytest.mark.parametrize(
    "n, x",
    [(1000, 38.0), (1023, 40.0), (1000, -39.5), (1000, 44.7), (1000, 46.0), (1000, 50.0),
     (1500, 50.0), (2047, 60.0), (2047, 66.0), (2047, -70.0)],
)
def test_hermite_eval_matches_mpmath_past_the_gaussian_underflow(n, x):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        xm = mp.mpf(x)
        norm = mp.sqrt(mp.mpf(2) ** n * mp.factorial(n) * mp.sqrt(mp.pi))
        ref = mp.hermite(n, xm) * mp.exp(-xm * xm / 2) / norm
    mine = hermite_eval(n, x)
    assert ref != 0 and mine != 0.0
    # x^2 / 2 ~ 1e3 carries an absolute rounding of ~1e-13 into exp(-x^2/2)
    assert abs(mine - ref) <= 1e-12 * abs(ref)
    assert np.array_equal(hermite_table(n + 1, [x])[0, n], mine)


@pytest.mark.parametrize("truncation", [1024, 2048])
def test_top_columns_stay_normalized_on_large_default_grids(truncation):
    """max |sum_j w_j h_n(x_j)^2 - 1| over the top 4 columns: the default grid
    reaches past the underflow point once N > ~700."""
    from riggedframes import default_stage, stage_grid

    grid = stage_grid(default_stage(truncation))
    assert np.abs(grid.nodes).max() > 40.0
    defect = max(
        abs(np.sum(grid.weights * hermite_eval(n, grid.nodes) ** 2) - 1.0)
        for n in range(truncation - 4, truncation)
    )
    assert defect <= 1e-12


def test_scaled_tail_leaves_the_other_nodes_bit_for_bit():
    x = np.array([-45.0, -3.0, 0.5, 12.0, 36.0, 41.0])
    inner = hermite_table(600, x[1:5])
    table = hermite_table(600, x)
    assert np.array_equal(table[1:5], inner)
    assert np.all(np.isfinite(table)) and table[0, 599] != 0.0 and table[-1, 599] != 0.0
