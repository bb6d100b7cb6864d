"""Parser/printer for the coefficient expressions stored in model documents.

Grammar (infix, case-sensitive):

    expr   := term  (("+" | "-") term)*
    term   := unary (("*" | "/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" unary)?          # right-associative, binds tightest
    atom   := NUMBER | NAME | NAME "(" expr ")" | "(" expr ")"

Names are coordinate variables (``x1..xn``, ``y1..yn``) or one of the
function names ``sin cos exp log sqrt abs``.  :func:`evaluate` walks a tree
over any scalar type: plain floats, or Taylor jets one operation at a time.
A model's jets come instead from a :class:`Tape`, the tree compiled once per
jet space into a straight-line program that replays the jet operations of
that walk bit for bit (see "the compiled tape" below).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ExpressionError, FinslerKitError, NonFiniteField

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
            if abs(n.value) < 1e15 and n.value == int(n.value):
                return str(int(n.value))
            return repr(n.value).replace("inf", "1e999")  # 1e999 parses to inf
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


# -- the compiled tape ---------------------------------------------------------
#
# A tape replays over jets exactly the operations evaluate() applies to
# TaylorJets, as a straight-line program on one flat file of cells.  Every
# input, and so every register, is a jet valid to the space's order.  A
# register maps the space's slots to cells: a block for the slots its support
# allows (the others read a constant 0), or a view of other cells (a seeded
# variable is its value cell, a 1 and 0s; _compose's centred jet and the
# reciprocal's start are views).  An elementwise operation makes one cell per
# distinct pair of input cells, so it costs what its operands' supports hold.
# Operations are hash-consed (y1*y1 in y1^2 and y1^4 runs once), and
# evaluate() folds the constant subtrees.  Each operation runs in the first
# round its inputs allow.  A product, plus constants or other such sums, is a
# list of bincount terms in its round's wave (jets.wave_products): products
# are never -0.0 and are 0 off their support, so summing their terms from
# +0.0 in TaylorJet's order is bit-identical.  Scalar steps (series, checks)
# keep the walk's order, so an error is the one evaluate() raises first.

_TAPES: dict = {}
# a round: scalar and elementwise steps alternate, so a short chain of them
# (x1 * 0.4 + x4 * 0.2, its exp series, Horner's first step) fits in one
# round, which ends with its wave of products
_ROUND = ("scalar", "ufunc") * 4 + ("wave",)


def compiled(tree, key: str, space, inputs) -> "Tape":
    """The tape of ``tree`` (named by ``key``) on ``space``, compiled once per
    process; ``inputs`` is None for the space's variables seeded at a point,
    else the support of each input jet."""
    tape = _TAPES.get((key, space, inputs))
    if tape is None:
        tape = _TAPES[key, space, inputs] = Tape(tree, space, inputs)
    return tape


def _when(ready: int, kind: str) -> int:
    """The first time after ``ready`` at which a step of ``kind`` runs."""
    time = ready + 1
    while _ROUND[time % len(_ROUND)] != kind:
        time += 1
    return time


def _hashconsed(op):
    """A compiler operation run once per distinct arguments."""
    def memo(compiler, *args):
        key = (op.__name__, *args)
        if key not in compiler.memo:
            compiler.memo[key] = op(compiler, *args)
        return compiler.memo[key]

    return memo


class _Reg:
    """A register while compiling: its slot -> cell map, or None while it is a
    pending sum of ``terms``; a sum keeps its terms once it has cells."""

    __slots__ = ("cells", "support", "ready", "terms")

    def __init__(self, cells, support, ready, terms):
        self.cells, self.support, self.ready, self.terms = cells, support, ready, terms


class Tape:
    """One expression tree compiled for one jet space and one kind of input.
    It keeps only its steps; the compiler's registers are dropped."""

    def __init__(self, tree, space, inputs):
        c = _Compiler(space, inputs)
        root = c.compile(tree)
        if isinstance(root, _Reg):
            c.materialize(root)
        # number the cells in the order they are written (constants, seed,
        # then each step's outputs), so that every write is one slice
        batches = sorted(c.batches.items())
        fixed = np.array(list(c.fixed), np.intp)
        new = np.empty(c.ncells, np.intp)
        new[np.concatenate([fixed, c.seed] + [e[0] for _, es in batches for e in es])] = np.arange(
            c.ncells
        )
        self.space, self.ncells, self.nfixed = space, c.ncells, fixed.size
        self.fixed_values = np.array(list(c.fixed.values()))
        self.steps, at = [], fixed.size + c.seed.size
        for (_, kind, _), entries in batches:
            if kind == "scalar":  # out, cell, fn
                out, cell, fn = entries[0]
                self.steps.append((0, fn, slice(at, at + out.size), int(new[cell]), None))
            else:
                out, a, b, *bins = (np.concatenate(column) for column in zip(*entries))
                if kind == "wave":  # out, left, right, bins: one gather of both factors
                    factors = new[np.append(a, b)]
                    self.steps.append((2, bins[0], slice(at, at + out.size), factors, None))
                else:  # out, a, b of one ufunc; a b that is one cell is a scalar
                    b = new[b]
                    b = int(b[0]) if (b == b[0]).all() else b
                    self.steps.append((1, getattr(np, kind), slice(at, at + out.size), new[a], b))
            at += out.size
        self.root = root  # a float for a constant tree
        if isinstance(root, _Reg):
            self.root, self.support = None, root.support
            self.out = new[root.cells]

    def run(self, *seed):
        """The tree's jet for the ``seed`` arrays: the point's x and y, or the
        input jets' coefficients.  A constant tree gives its float, as
        evaluate() does."""
        flat = np.empty(self.ncells)
        flat[: self.nfixed] = self.fixed_values
        at = self.nfixed
        for values in seed:
            flat[at : at + values.size] = values
            at += values.size
        for kind, fn, out, a, b in self.steps:
            if kind == 2:
                jets.wave_products(flat, out, a, fn)
            elif kind == 1:
                fn(flat[a], flat[b], out=flat[out])
            else:
                flat[out] = fn(flat[a])
        if self.root is not None:
            return self.root
        return jets.TaylorJet(self.space, flat[self.out], self.support)


class _Compiler:
    """The registers and batched steps of a tape being compiled."""

    def __init__(self, space, inputs):
        self.space, size = space, space.size
        self.ncells, self.last, self.memo, self.batches, self.ready = 0, -1, {}, {}, {}
        self.consts, self.fixed, self.inside = {}, {}, {}
        self.zero, self.one = self.const(0.0), self.const(1.0)
        if inputs is None:  # variable v: its value cell, and 1 at its unit slot
            self.seed, regs = self._block(space.nvars), []
            units = space.slots(np.eye(space.nvars, dtype=np.int64))
            for v, cell in enumerate(self.seed):
                cells = np.full(size, self.zero)
                cells[max(units[v], 0)] = self.one  # no unit slot at order 0 or cap 0
                cells[0] = cell
                regs.append(_Reg(cells, 1 << v, -1, None))
        else:
            regs = [_Reg(self._block(size), support, -1, None) for support in inputs]
            self.seed = np.concatenate([r.cells for r in regs])
        self.env = coordinate_env(len(regs) // 2, regs[: len(regs) // 2], regs[len(regs) // 2:])

    # -- compiling: evaluate()'s walk, one TaylorJet operation at a time -------

    def compile(self, node):
        if isinstance(node, Var):
            if node.name not in self.env:
                return self._fail(ExpressionError(f"unknown variable {node.name!r}"))
            return self.env[node.name]
        kids = [self.compile(kid) for kid in (
            (node.left, node.right) if isinstance(node, BinOp)
            else (node.operand,) if isinstance(node, Neg)
            else (node.arg,) if isinstance(node, Call) else ()
        )]
        if not any(isinstance(kid, _Reg) for kid in kids):
            try:
                return evaluate(node, {})
            except (FinslerKitError, ArithmeticError, ValueError) as err:
                return self._fail(err)  # raised again where evaluate() raises it
        if isinstance(node, Neg):
            return self.scale(kids[0], self.const(-1.0))
        if isinstance(node, Call):
            if node.func == "abs":
                return self.absolute(kids[0])
            sqrt = node.func == "sqrt"
            return self.compose(kids[0], "power" if sqrt else node.func, 0.5 if sqrt else None)
        (a, b), op = kids, node.op
        if op == "^":
            if isinstance(b, _Reg):
                return self._fail(ExpressionError("exponent must be a constant"))
            return self.power(a, b)
        # TaylorJet's a - b is a + (-b), a / b is a * b.reciprocal() or a / float
        if op == "-":
            b, op = (self.scale(b, self.const(-1.0)) if isinstance(b, _Reg) else -b), "+"
        if op == "/" and isinstance(b, _Reg):
            b, op = self.recip(b), "*"
        if op == "/":
            if b == 0.0:
                return self._fail(NonFiniteField(f"division by zero in {to_string(node)!r}"))
            return self._ew(np.divide, a, self.const(b))
        if isinstance(a, _Reg) and isinstance(b, _Reg):
            return self.add(a, b) if op == "+" else self.mul(a, b)
        jet, value = (a, b) if isinstance(a, _Reg) else (b, a)
        return (self.addc if op == "+" else self.scale)(jet, self.const(value))

    def power(self, a, p):
        """TaylorJet ** p: square-and-multiply, the reciprocal's, or a series."""
        if not float(p).is_integer():
            return self.compose(a, "power", float(p))
        k = int(p)
        if k < 0:
            return self.power(self.recip(a), -k)
        if k == 0:
            return self._constant(a, self.one)
        result, base = None, a
        while k:
            if k & 1:
                result = base if result is None else self.mul(result, base)
            k >>= 1
            if k:
                base = self.mul(base, base)
        return result

    @_hashconsed
    def compose(self, a, name, p):
        """TaylorJet._compose of the series ``name`` at a's value."""
        m = self.space.order
        s = self._py(lambda u0: jets.SERIES[name](u0, m, p), a, m + 1)
        w = self._view(a, self.zero)
        if m == 0:
            return self._view(a, s[0])
        r = self.addc(self.scale(w, s[m]), s[m - 1])
        for k in range(m - 2, -1, -1):
            r = self.addc(self.mul(r, w), s[k])
        return r

    @_hashconsed
    def absolute(self, a):
        return self.scale(a, self._py(lambda u0: [jets.abs_sign(u0)], a, 1)[0])

    @_hashconsed
    def recip(self, a):
        """TaylorJet.reciprocal: Newton sweeps from 1 / a's value."""
        start = self._py(lambda c0: [jets.reciprocal_start(c0)], a, 1)[0]
        inv = self._constant(a, start)
        for _ in range(jets.newton_sweeps(self.space.order)):
            minus = self.scale(self.mul(a, inv), self.const(-1.0))
            inv = self.mul(inv, self.addc(minus, self.const(2.0)))
        return inv

    @_hashconsed
    def mul(self, a, b):
        """A pending sum of the pairs of TaylorJet's product."""
        self.materialize(a)
        self.materialize(b)
        ia, ib, ic = self.space.pairs(a.support, b.support)
        term = (a.cells[ia], b.cells[ib], ic)
        return _Reg(None, a.support | b.support, max(a.ready, b.ready), [term])

    @_hashconsed
    def add(self, a, b):
        """TaylorJet + TaylorJet."""
        if a.terms and b.terms:  # a sum of sums
            # b + a is a + b bit for bit: the pending sum ready last leads
            if b.cells is None and (a.cells is not None or b.ready > a.ready):
                a, b = b, a
            self.materialize(b)
            inside = self._inside(b.support)
            term = (b.cells[inside], np.full(inside.size, self.one), inside)
            return self._sum(a, term, b.ready, a.support | b.support)
        return self._ew(np.add, a, b)

    @_hashconsed
    def addc(self, a, s):
        """TaylorJet + float (the float in cell ``s``)."""
        if a.terms:  # one more term: a's slot 0 is never -0.0
            term = (np.array([s]), np.array([self.one]), np.zeros(1, np.intp))
            return self._sum(a, term, self.ready.get(s, -1), a.support)
        self.materialize(a)
        c0 = self._ew(np.add, _Reg(a.cells[:1], 0, a.ready, None), s)
        self.ready[int(c0.cells[0])] = c0.ready
        return self._view(a, c0.cells[0])

    @_hashconsed
    def scale(self, a, s):
        """TaylorJet * float (the float in cell ``s``); times 1 is a, bit for bit."""
        return a if s == self.one else self._ew(np.multiply, a, s)

    # -- registers, cells and steps ----------------------------------------------

    def _ew(self, ufunc, a, b):
        """ufunc(a, b) slot by slot, b a register or a cell, one new cell per
        distinct pair of input cells."""
        self.materialize(a)
        if isinstance(b, _Reg):
            self.materialize(b)
            cells, ready, support = b.cells, b.ready, a.support | b.support
        else:
            cells, ready, support = b, self.ready.get(b, -1), a.support
        base = self.ncells  # above every cell so far: pair (i, j) is i * base + j
        keys, back = np.unique(a.cells * base + cells, return_inverse=True)
        out, time = self._block(keys.size), _when(max(a.ready, ready), "ufunc")
        entry = (out, keys // base, keys % base)
        self.batches.setdefault((time, ufunc.__name__, 0), []).append(entry)
        return _Reg(out[back.reshape(-1)], support, time, None)

    def _sum(self, a, term, ready, support):
        """A pending sum: a's own terms if it is pending, else its cells, then ``term``."""
        lead = a.terms
        if a.cells is not None:
            inside = self._inside(a.support)
            lead = [(a.cells[inside], np.full(inside.size, self.one), inside)]
        return _Reg(None, support, max(a.ready, ready), lead + [term])

    def _view(self, a, cell):
        """a with slot 0 read from ``cell``."""
        self.materialize(a)
        cells = a.cells.copy()
        cells[0] = cell
        return _Reg(cells, a.support, max(a.ready, self.ready.get(cell, -1)), None)

    def _constant(self, a, cell):
        """The constant jet ``cell`` with a's support."""
        cells = np.full(self.space.size, self.zero)
        cells[0] = cell
        return _Reg(cells, a.support, self.ready.get(cell, -1), None)

    def materialize(self, r):
        """Give a pending sum a block for its support's slots (its other slots
        read the constant 0), in the first wave after its inputs."""
        if r.cells is None:
            inside = self._inside(r.support)
            block, r.ready = self._block(inside.size), _when(r.ready, "wave")
            r.cells = np.full(self.space.size, self.zero)
            r.cells[inside] = block
            wave = self.batches.setdefault((r.ready, "wave", 0), [])
            position = np.zeros(self.space.size, np.intp)
            position[inside] = np.arange(inside.size) + sum(e[0].size for e in wave)
            left, right, bins = (np.concatenate(column) for column in zip(*r.terms))
            wave.append((block, left, right, position[bins]))

    def _py(self, fn, a, count):
        """A scalar step ``fn(value of a)`` into ``count`` new cells, after the
        previous one, so the first that raises is the first evaluate() meets."""
        cell, ready = self.zero, -1
        if a is not None:
            self.materialize(a)
            cell, ready = a.cells[0], a.ready
        out = self._block(count)
        self.last = max(_when(ready, "scalar"), self.last)
        self.batches[self.last, "scalar", len(self.batches)] = [(out, cell, fn)]
        self.ready.update(dict.fromkeys(out.tolist(), self.last))
        return out

    def _fail(self, err):
        def fail(_):
            raise type(err)(*err.args)

        self._py(fail, None, 0)
        return math.nan

    def const(self, value) -> int:
        key = float(value).hex()
        if key not in self.consts:
            self.consts[key] = int(self._block(1)[0])
            self.fixed[self.consts[key]] = value
        return self.consts[key]

    def _inside(self, support):
        """The slots whose multi-index involves only variables in ``support``."""
        if support not in self.inside:
            self.inside[support] = np.flatnonzero(self.space.within(support))
        return self.inside[support]

    def _block(self, count):
        self.ncells += count
        return np.arange(self.ncells - count, self.ncells)
