"""Arithmetic expressions for map weights.

Grammar (whitespace-insensitive):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' integer)?
    atom   := number | 'x' | ('sin' | 'cos' | 'exp') '(' expr ')' | '(' expr ')'

'^' binds tighter than unary minus (so ``-x^2`` is ``-(x^2)``), binary
operators of equal precedence associate to the left, and exponents are
integer literals.  Printing a parsed tree and reparsing it reproduces the
tree exactly.  polynomial_degree reads off the tree whether the grammar
makes a weight a polynomial in x, and bounds its degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import WeightEvalError, WeightSyntaxError

__all__ = [
    "Number",
    "Variable",
    "Negate",
    "Binary",
    "Power",
    "Call",
    "parse_weight",
    "eval_weight",
    "polynomial_degree",
    "expr_to_string",
]

_FUNCTIONS = {"sin": np.sin, "cos": np.cos, "exp": np.exp}


@dataclass(frozen=True)
class Number:
    value: float


@dataclass(frozen=True)
class Variable:
    pass


@dataclass(frozen=True)
class Negate:
    operand: object


@dataclass(frozen=True)
class Binary:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Power:
    base: object
    exponent: int


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


class _Tokenizer:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_space(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take_number(self):
        start = self.pos
        seen_dot = False
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch.isdigit():
                self.pos += 1
            elif ch == "." and not seen_dot:
                seen_dot = True
                self.pos += 1
            else:
                break
        lexeme = self.text[start : self.pos]
        if lexeme in ("", "."):
            raise WeightSyntaxError(f"expected a number, found {lexeme!r}", start)
        value = float(lexeme)
        if value == float("inf"):
            raise WeightSyntaxError(f"number out of float64 range: {lexeme!r}", start)
        return value, start

    def take_name(self):
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start : self.pos], start


def parse_weight(text):
    """Parse a weight expression, or raise WeightSyntaxError with the byte
    offset of the first offending character."""
    tok = _Tokenizer(text)
    tree = _parse_expr(tok)
    ch = tok.peek()
    if ch is not None:
        raise WeightSyntaxError(f"unexpected {ch!r} after expression", tok.pos)
    return tree


def _parse_expr(tok):
    node = _parse_term(tok)
    while tok.peek() in ("+", "-"):
        op = tok.peek()
        tok.pos += 1
        node = Binary(op, node, _parse_term(tok))
    return node


def _parse_term(tok):
    node = _parse_unary(tok)
    while tok.peek() in ("*", "/"):
        op = tok.peek()
        tok.pos += 1
        node = Binary(op, node, _parse_unary(tok))
    return node


def _parse_unary(tok):
    if tok.peek() == "-":
        tok.pos += 1
        return Negate(_parse_unary(tok))
    return _parse_power(tok)


def _parse_power(tok):
    base = _parse_atom(tok)
    if tok.peek() == "^":
        tok.pos += 1
        negative = False
        if tok.peek() == "-":
            negative = True
            tok.pos += 1
        ch = tok.peek()
        if ch is None or not ch.isdigit():
            raise WeightSyntaxError("exponent must be an integer", tok.pos)
        start = tok.pos
        while tok.pos < len(tok.text) and tok.text[tok.pos].isdigit():
            tok.pos += 1
        exponent = int(tok.text[start : tok.pos])
        return Power(base, -exponent if negative else exponent)
    return base


def _parse_atom(tok):
    ch = tok.peek()
    if ch is None:
        raise WeightSyntaxError("unexpected end of expression", tok.pos)
    if ch.isdigit() or ch == ".":
        value, _ = tok.take_number()
        return Number(value)
    if ch == "(":
        tok.pos += 1
        node = _parse_expr(tok)
        if tok.peek() != ")":
            raise WeightSyntaxError("expected ')'", tok.pos)
        tok.pos += 1
        return node
    if ch.isalpha():
        name, start = tok.take_name()
        if name == "x":
            return Variable()
        if name in _FUNCTIONS:
            if tok.peek() != "(":
                raise WeightSyntaxError(f"expected '(' after {name!r}", tok.pos)
            tok.pos += 1
            arg = _parse_expr(tok)
            if tok.peek() != ")":
                raise WeightSyntaxError("expected ')'", tok.pos)
            tok.pos += 1
            return Call(name, arg)
        raise WeightSyntaxError(f"unknown identifier {name!r}", start)
    raise WeightSyntaxError(f"unexpected {ch!r}", tok.pos)


def _eval(node, x):
    if isinstance(node, Number):
        return np.full_like(x, node.value)
    if isinstance(node, Variable):
        return x
    if isinstance(node, Negate):
        return -_eval(node.operand, x)
    if isinstance(node, Binary):
        left = _eval(node.left, x)
        right = _eval(node.right, x)
        if node.op == "+":
            return left + right
        if node.op == "-":
            return left - right
        if node.op == "*":
            return left * right
        with np.errstate(divide="ignore", invalid="ignore"):
            return left / right
    if isinstance(node, Power):
        # a power of |base| with the sign put back for odd exponents: numpy's
        # power of a negative base can differ from the positive one's in the
        # last bit, and this way x^n is even or odd bit for bit
        base = _eval(node.base, x)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            magnitude = np.power(np.abs(base), float(node.exponent))
        return np.copysign(magnitude, base) if node.exponent % 2 else magnitude
    if isinstance(node, Call):
        with np.errstate(over="ignore"):
            return _FUNCTIONS[node.func](_eval(node.arg, x))
    raise TypeError(f"not a weight expression node: {node!r}")


def eval_weight(expr, x):
    """Evaluate a weight expression at scalar or array x.

    Division by zero and overflow to non-finite values raise
    WeightEvalError rather than propagating inf/nan into kernels.
    """
    xa = np.asarray(x, dtype=float)
    values = _eval(expr, np.atleast_1d(xa))
    if not np.all(np.isfinite(values)):
        bad = np.atleast_1d(xa)[~np.isfinite(values)][:1]
        raise WeightEvalError(
            f"expression '{expr_to_string(expr)}' is non-finite at x={float(bad[0])!r}"
        )
    return float(values[0]) if xa.ndim == 0 else values


def polynomial_degree(node):
    """An upper bound on the degree of a weight expression as a polynomial
    in x, or None when the grammar does not make it one.  A number is of
    degree 0 and x of degree 1; + and - take the larger degree and * the
    sum; a quotient is a polynomial only over a divisor of degree 0, a
    power only for an exponent >= 0, and sin, cos or exp only of an argument
    of degree 0 (a constant).  Cancellation is not seen, so (x-x)^3 reads
    3: a bound is all the exact Gauss-Hermite stage grids need
    (operators._exact_node_count), since a larger rule is still exact.  A
    weight that is no polynomial is still analytic wherever it is finite,
    and operators._searched_node_count finds its Gauss-Hermite rule."""
    if isinstance(node, Number):
        return 0
    if isinstance(node, Variable):
        return 1
    if isinstance(node, Negate):
        return polynomial_degree(node.operand)
    if isinstance(node, Binary):
        left, right = polynomial_degree(node.left), polynomial_degree(node.right)
        if left is None or right is None:
            return None
        if node.op in ("+", "-"):
            return max(left, right)
        if node.op == "*":
            return left + right
        return left if right == 0 else None
    if isinstance(node, Power):
        base = polynomial_degree(node.base)
        return None if base is None or node.exponent < 0 else base * node.exponent
    if isinstance(node, Call):
        return 0 if polynomial_degree(node.arg) == 0 else None
    raise TypeError(f"not a weight expression node: {node!r}")


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}
_UNARY_PREC = 3
_POWER_PREC = 4
_ATOM_PREC = 5


def _prec(node):
    if isinstance(node, Binary):
        return _PRECEDENCE[node.op]
    if isinstance(node, Negate):
        return _UNARY_PREC
    if isinstance(node, Power):
        return _POWER_PREC
    return _ATOM_PREC


def expr_to_string(node):
    """Render a tree so that parsing the output reproduces the tree."""
    if isinstance(node, Number):
        # positional, since the tokenizer reads no exponent: 1e-05 prints as
        # 0.00001, and the shortest repr's digits make it round-trip exactly
        return f"{Decimal(repr(node.value)):f}"
    if isinstance(node, Variable):
        return "x"
    if isinstance(node, Negate):
        inner = expr_to_string(node.operand)
        if _prec(node.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Binary):
        left = expr_to_string(node.left)
        if _prec(node.left) < _PRECEDENCE[node.op]:
            left = f"({left})"
        right = expr_to_string(node.right)
        if _prec(node.right) <= _PRECEDENCE[node.op]:
            right = f"({right})"
        return f"{left}{node.op}{right}"
    if isinstance(node, Power):
        base = expr_to_string(node.base)
        if _prec(node.base) < _ATOM_PREC:
            base = f"({base})"
        return f"{base}^{node.exponent}"
    if isinstance(node, Call):
        return f"{node.func}({expr_to_string(node.arg)})"
    raise TypeError(f"not a weight expression node: {node!r}")
