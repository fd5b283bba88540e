"""Tiny arithmetic-expression language for coefficient functions.

Grammar (one variable, six functions, no user definitions):

    expr   := ['+'|'-'] term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?
    base   := number | variable | ident '(' expr ')' | '(' expr ')'
    ident  in {exp, log, sin, cos, sqrt, abs}

Numbers are decimal with an optional exponent. A single leading sign is
accepted so forms like ``exp(-2*x)`` parse. Parsing reports syntax errors
with the byte offset of the offending token; evaluation reports the first
abscissa at which a division by zero or non-finite value occurs.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import EvaluationError, ExpressionError

FUNCTIONS = {
    "exp": np.exp,
    "log": np.log,
    "sin": np.sin,
    "cos": np.cos,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

Node = Union["Num", "Var", "Neg", "Bin", "Call"]


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    pass


@dataclass(frozen=True)
class Neg:
    operand: Node


@dataclass(frozen=True)
class Bin:
    op: str
    left: Node
    right: Node


@dataclass(frozen=True)
class Call:
    name: str
    arg: Node


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup == "num":
            tokens.append(("num", float(m.group("num")), m.start("num")))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group("ident"), m.start("ident")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, variable: str):
        self.text = text
        self.variable = variable
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op: str):
        kind, val, off = self.next()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r}", off)

    def parse(self) -> Node:
        node = self.expr()
        kind, val, off = self.peek()
        if kind != "end":
            raise ExpressionError(f"unexpected trailing {val!r}", off)
        return node

    def expr(self) -> Node:
        kind, val, _ = self.peek()
        negate = False
        if kind == "op" and val in "+-":
            self.next()
            negate = val == "-"
        node = self.term()
        if negate:
            node = Neg(node)
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                node = Bin(val, node, self.term())
            else:
                return node

    def term(self) -> Node:
        node = self.factor()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = Bin(val, node, self.factor())
            else:
                return node

    def factor(self) -> Node:
        node = self.base()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            node = Bin("^", node, self.factor())
        return node

    def base(self) -> Node:
        kind, val, off = self.next()
        if kind == "num":
            return Num(val)
        if kind == "ident":
            if val == self.variable:
                return Var()
            if val in FUNCTIONS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise ExpressionError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"expected number, {self.variable!r}, or '('", off)


def _first_bad_x(x, mask) -> float:
    xa = np.asarray(x, dtype=float)
    if np.ndim(mask) == 0:  # a constant part is bad at every x
        return float(xa.flat[0])
    return float(np.broadcast_to(xa, np.shape(mask))[mask][0])


def _power(left, right):
    with np.errstate(all="ignore"):
        return np.power(left, right)


_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,  # by a nonzero constant; other divisors are checked
    "^": _power,
}


def _compile(node: Node):
    """``node`` as a closure of x, or as a number where no x occurs below
    it. Constants are folded with the operations the closure would apply,
    so both give bit-identical values; a division by a constant zero is
    left to raise when called."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return lambda x: x
    if isinstance(node, Neg):
        f = _compile(node.operand)
        return (lambda x: -f(x)) if callable(f) else -f
    if isinstance(node, Call):
        fn, f = FUNCTIONS[node.name], _compile(node.arg)

        def call(x):
            with np.errstate(all="ignore"):
                return fn(f(x) if callable(f) else f)

        return call if callable(f) else call(None)
    left, right = _compile(node.left), _compile(node.right)
    if node.op == "/" and (callable(right) or right == 0):

        def divide(x):
            a = left(x) if callable(left) else left
            b = right(x) if callable(right) else right
            bad = np.asarray(b) == 0
            if np.any(bad):
                raise EvaluationError("division by zero", _first_bad_x(x, bad))
            return a / b

        return divide
    rule = _BINARY[node.op]
    if callable(left) and callable(right):
        return lambda x: rule(left(x), right(x))
    if callable(left):
        return lambda x: rule(left(x), right)
    if callable(right):
        return lambda x: rule(left, right(x))
    return rule(left, right)


def _canonical(node: Node, variable: str) -> str:
    # Fully parenthesized so a reparse reproduces the tree (and therefore
    # bit-identical floating point evaluation).
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return variable
    if isinstance(node, Neg):
        return f"(-{_canonical(node.operand, variable)})"
    if isinstance(node, Call):
        return f"{node.name}({_canonical(node.arg, variable)})"
    return (
        f"({_canonical(node.left, variable)}{node.op}"
        f"{_canonical(node.right, variable)})"
    )


@dataclass(frozen=True)
class Expression:
    """A parsed expression: evaluable, printable, hashable.

    The tree is compiled once, at construction, to a numpy closure (or to
    a number when the expression does not depend on its variable).
    """

    text: str
    root: Node
    variable: str = "x"
    _compiled: object = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_compiled", _compile(self.root))

    @property
    def constant(self) -> Optional[float]:
        """The value of an expression free of its variable when it is
        finite; None otherwise."""
        c = self._compiled
        return None if callable(c) or not math.isfinite(c) else float(c)

    def __call__(self, x):
        scalar = np.isscalar(x) or np.ndim(x) == 0
        xv = float(x) if scalar else np.asarray(x, dtype=float)
        f = self._compiled
        out = np.asarray(f(xv) if callable(f) else f, dtype=float)
        if not np.isfinite(out).all():
            raise EvaluationError("non-finite value", _first_bad_x(x, ~np.isfinite(out)))
        if scalar:
            return float(out)
        # a fresh array of x's shape: never x itself
        return out if out.shape == xv.shape and out is not xv else out + np.zeros(xv.shape)

    def canonical(self) -> str:
        return _canonical(self.root, self.variable)


def parse_expression(text: str, variable: str = "x") -> Expression:
    """Parse ``text`` into an :class:`Expression` over one variable.

    Raises :class:`ExpressionError` (with byte offset) on bad syntax and
    unknown identifiers.
    """
    if not text.strip():
        raise ExpressionError("empty expression", 0)
    root = _Parser(text, variable).parse()
    return Expression(text=text, root=root, variable=variable)
