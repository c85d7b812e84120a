import numpy as np
import pytest

from riggedframes import (
    WeightEvalError,
    WeightSyntaxError,
    eval_weight,
    expr_to_string,
    parse_weight,
    polynomial_degree,
)
from riggedframes.weights import Binary, Call, Negate, Number, Power, Variable


class TestParsing:
    def test_sum_with_function(self):
        tree = parse_weight("2+sin(x)")
        assert tree == Binary("+", Number(2.0), Call("sin", Variable()))

    def test_power(self):
        assert parse_weight("1+x^2") == Binary("+", Number(1.0), Power(Variable(), 2))

    def test_syntax_error_position(self):
        with pytest.raises(WeightSyntaxError) as err:
            parse_weight("2+*x")
        assert err.value.offset == 2

    def test_unclosed_call(self):
        with pytest.raises(WeightSyntaxError) as err:
            parse_weight("sin(")
        assert err.value.offset == 4

    def test_unknown_identifier(self):
        with pytest.raises(WeightSyntaxError) as err:
            parse_weight("2+tan(x)")
        assert err.value.offset == 2

    def test_unary_minus_binds_below_power(self):
        assert parse_weight("-x^2") == Negate(Power(Variable(), 2))

    def test_left_associativity(self):
        assert parse_weight("1-2-3") == Binary(
            "-", Binary("-", Number(1.0), Number(2.0)), Number(3.0)
        )
        assert parse_weight("8/4/2") == Binary(
            "/", Binary("/", Number(8.0), Number(4.0)), Number(2.0)
        )

    def test_parentheses_override(self):
        assert parse_weight("1-(2-3)") == Binary(
            "-", Number(1.0), Binary("-", Number(2.0), Number(3.0))
        )

    def test_precedence_mul_over_add(self):
        assert parse_weight("1+2*x") == Binary(
            "+", Number(1.0), Binary("*", Number(2.0), Variable())
        )

    def test_fractional_exponent_rejected(self):
        with pytest.raises(WeightSyntaxError):
            parse_weight("x^1.5")

    def test_literal_past_float64_range_rejected(self):
        """A literal that rounds to inf would print as no literal at all."""
        with pytest.raises(WeightSyntaxError, match="out of float64 range") as err:
            parse_weight("x+1" + "0" * 400)
        assert err.value.offset == 2

    def test_trailing_garbage(self):
        with pytest.raises(WeightSyntaxError) as err:
            parse_weight("1+x )")
        assert err.value.offset == 4

    def test_whitespace_insensitive(self):
        assert parse_weight(" 1 + x ^ 2 ") == parse_weight("1+x^2")


class TestEvaluation:
    def test_simple(self):
        assert eval_weight(parse_weight("2+sin(x)"), 0.0) == 2.0

    def test_polynomial(self):
        assert eval_weight(parse_weight("1+x^2"), 3.0) == 10.0

    def test_division_by_zero(self):
        with pytest.raises(WeightEvalError):
            eval_weight(parse_weight("1/x"), 0.0)

    def test_overflow(self):
        with pytest.raises(WeightEvalError):
            eval_weight(parse_weight("exp(x^2)"), 1e6)

    def test_vectorized(self):
        x = np.array([-1.0, 0.0, 2.0])
        assert eval_weight(parse_weight("x^2-x"), x) == pytest.approx([2.0, 0.0, 2.0])

    def test_negative_exponent(self):
        assert eval_weight(parse_weight("x^-2"), 2.0) == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "text,x,expected",
        [
            ("cos(x)", 0.0, 1.0),
            ("exp(1)-exp(1)", 5.0, 0.0),
            ("-x^2+3*x", 2.0, 2.0),
            ("(1+x)*(1-x)", 0.5, 0.75),
            ("2^3", 0.0, 8.0),
        ],
    )
    def test_table(self, text, x, expected):
        assert eval_weight(parse_weight(text), x) == pytest.approx(expected, abs=1e-14)


class TestPrinting:
    @pytest.mark.parametrize(
        "text",
        [
            "2+sin(x)",
            "1+x^2",
            "-x^2",
            "1-2-3",
            "1-(2-3)",
            "8/4/2",
            "8/(4/2)",
            "(1+x)^3",
            "-(1+x)",
            "cos(x*x)-exp(-x)",
            "x^-2",
            "--x",
            "2*x/(1+x^2)",
            "0.00001*x",
            "10000000000000000+x",
            pytest.param("0.1+0." + "0" * 299 + "15", id="0.1+1.5e-300"),
        ],
    )
    def test_parse_print_parse_identity(self, text):
        tree = parse_weight(text)
        assert parse_weight(expr_to_string(tree)) == tree

    def test_random_trees_round_trip(self):
        rng = np.random.default_rng(77)

        def build(depth):
            pick = rng.integers(0, 6 if depth < 4 else 2)
            if pick == 0:
                return Number(float(rng.integers(0, 10)))
            if pick == 1:
                return Variable()
            if pick == 2:
                return Negate(build(depth + 1))
            if pick == 3:
                return Binary(str(rng.choice(["+", "-", "*", "/"])), build(depth + 1), build(depth + 1))
            if pick == 4:
                return Power(build(depth + 1), int(rng.integers(0, 4)))
            return Call(str(rng.choice(["sin", "cos", "exp"])), build(depth + 1))

        for _ in range(200):
            tree = build(0)
            assert parse_weight(expr_to_string(tree)) == tree


class TestPolynomialDegree:
    @pytest.mark.parametrize(
        "text, degree",
        [("x/2", 1), ("sin(1)*x", 1), ("0", 0), ("-x^3+x", 3), ("(1+x^2)^2/4", 4), ("exp(2)-cos(0)*x^2", 2)],
    )
    def test_polynomials_read_their_degree(self, text, degree):
        assert polynomial_degree(parse_weight(text)) == degree

    def test_cancellation_is_an_upper_bound(self):
        """(x-x)^3 is 0, read as degree <= 3: a larger rule is still exact."""
        assert 0 <= polynomial_degree(parse_weight("(x-x)^3")) <= 3

    @pytest.mark.parametrize("text", ["x^-1", "1/x", "exp(x)", "2+sin(x)", "1/(1+x^2)", "exp(-x^2)"])
    def test_other_weights_are_not_polynomials(self, text):
        assert polynomial_degree(parse_weight(text)) is None

    def test_random_polynomials_bound_their_sampled_degree(self):
        """A degree d read off the tree leaves the (d+1)-th finite difference
        of the weight at d + 2 integer points 0, to rounding."""
        rng = np.random.default_rng(5)

        def build(depth):
            pick = rng.integers(0, 5 if depth < 3 else 2)
            if pick == 0:
                return Number(float(rng.integers(1, 4)))
            if pick == 1:
                return Variable()
            if pick == 2:
                return Negate(build(depth + 1))
            if pick == 3:
                return Binary(str(rng.choice(["+", "-", "*"])), build(depth + 1), build(depth + 1))
            return Power(build(depth + 1), int(rng.integers(0, 3)))

        for _ in range(100):
            tree = build(0)
            degree = polynomial_degree(tree)
            values = eval_weight(tree, np.arange(degree + 2, dtype=float))
            difference = np.diff(values, degree + 1)[0]
            assert abs(difference) <= 1e-9 * max(1.0, np.abs(values).max())
