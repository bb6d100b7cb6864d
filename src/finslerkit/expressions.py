"""Parser/printer for the coefficient expressions stored in model documents.

Grammar (infix, case-sensitive):

    expr   := term  (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative, binds tightest
    atom   := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

Names are coordinate variables (``x1..xn``, ``y1..yn``) or one of the
function names ``sin cos exp log sqrt abs``.  Evaluation is generic over the
scalar type: plain floats or Taylor jets both work, which is what lets a
parsed model feed the derivative engine directly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from . import jets
from .errors import ExpressionError, NonFiniteField

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)

# the jets shims dispatch on the argument's type: float or Taylor jet
FUNCTIONS = {
    "sin": jets.sin,
    "cos": jets.cos,
    "exp": jets.exp,
    "log": jets.log,
    "sqrt": jets.sqrt,
    "abs": jets.absolute,
}


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object


@dataclass(frozen=True)
class Call:
    func: str
    arg: object


def tokenize(text: str):
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise ExpressionError(f"unexpected character {text[pos]!r} at position {pos}")
        if m.group("num") is not None:
            out.append(("num", float(m.group("num"))))
        elif m.group("name") is not None:
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    out.append(("end", None))
    return out


class _Parser:
    def __init__(self, tokens, text):
        self.tokens = tokens
        self.pos = 0
        self.text = text

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ExpressionError(f"expected {op!r} in {self.text!r}, found {val!r}")

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.take()
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            _, op = self.take()
            node = BinOp(op, node, self.unary())
        return node

    def unary(self):
        if self.peek() == ("op", "-"):
            self.take()
            return Neg(self.unary())
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == ("op", "^"):
            self.take()
            return BinOp("^", base, self.unary())
        return base

    def atom(self):
        kind, val = self.take()
        if kind == "num":
            return Num(val)
        if kind == "name":
            if self.peek() == ("op", "("):
                if val not in FUNCTIONS:
                    raise ExpressionError(f"unknown function {val!r} in {self.text!r}")
                self.take()
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            return Var(val)
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExpressionError(f"unexpected token {val!r} in {self.text!r}")


def parse(text: str):
    """Parse ``text`` into an AST; raises :class:`ExpressionError` on bad input."""
    if not isinstance(text, str) or not text.strip():
        raise ExpressionError("empty expression")
    parser = _Parser(tokenize(text), text)
    node = parser.expr()
    if parser.peek()[0] != "end":
        raise ExpressionError(f"trailing input in {text!r}")
    return node


def evaluate(node, env: dict):
    """Evaluate an AST over any scalar type present in ``env``."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        try:
            return env[node.name]
        except KeyError:
            raise ExpressionError(f"unknown variable {node.name!r}") from None
    if isinstance(node, Neg):
        return -evaluate(node.operand, env)
    if isinstance(node, Call):
        return FUNCTIONS[node.func](evaluate(node.arg, env))
    left = evaluate(node.left, env)
    right = evaluate(node.right, env)
    if node.op == "+":
        return left + right
    if node.op == "-":
        return left - right
    if node.op == "*":
        return left * right
    if node.op == "/":
        if not isinstance(right, jets.TaylorJet) and right == 0.0:
            raise NonFiniteField(f"division by zero in {to_string(node)!r}")
        return left / right
    if node.op == "^":
        if isinstance(right, jets.TaylorJet):
            raise ExpressionError("exponent must be a constant")
        return jets.power(left, right)
    raise ExpressionError(f"unknown operator {node.op!r}")


def variables_of(node) -> set:
    """Names of all variables referenced by an AST."""
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables_of(node.operand)
    if isinstance(node, Call):
        return variables_of(node.arg)
    if isinstance(node, BinOp):
        return variables_of(node.left) | variables_of(node.right)
    return set()


_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def to_string(node) -> str:
    """Render an AST with minimal parentheses; parses back to the same tree."""

    def render(n, parent_prec, is_right):
        if isinstance(n, Num):
            if n.value == int(n.value) and abs(n.value) < 1e15:
                return str(int(n.value))
            return repr(n.value)
        if isinstance(n, Var):
            return n.name
        if isinstance(n, Call):
            return f"{n.func}({render(n.arg, 0, False)})"
        if isinstance(n, Neg):
            inner = render(n.operand, _PRECEDENCE["neg"], False)
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PRECEDENCE["neg"] else text
        prec = _PRECEDENCE[n.op]
        if n.op == "^":
            # right-associative: the right child re-enters at unary level
            left = render(n.left, prec + 1, False)
            right = render(n.right, prec, True)
        else:
            left = render(n.left, prec, False)
            right = render(n.right, prec + 1, True)
        text = f"{left} {n.op} {right}" if n.op in "+-" else f"{left}{n.op}{right}"
        if prec < parent_prec or (prec == parent_prec and is_right and n.op in "+-*/"):
            return f"({text})"
        return text

    return render(node, 0, False)


def coordinate_env(n: int, x, y) -> dict:
    """Variable bindings x1..xn, y1..yn for scalar sequences x and y."""
    env = {}
    for i in range(n):
        env[f"x{i + 1}"] = x[i]
        env[f"y{i + 1}"] = y[i]
    return env
