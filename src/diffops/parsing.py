"""Expression language for elements, operators and polynomial operators.

Grammar (standard precedence, ^ > * = / > additive; * is noncommutative
and keeps the written order):

    expr   := ['-'] term (('+' | '-') term)*
    term   := factor (('*' | '/') factor)*
    factor := atom ['^' INT]
    atom   := INT | NAME | NAME '[' INT ']' | 'd' '[' NAME ']' ['^' '[' INT ']']
            | '(' expr ')' | '-' atom

Symbols by context: elements use h, x<i>, y<i>; operators additionally
dh, dx<i>, dy<i> (optionally with a divided-power order in brackets) and
Dh for the reversed h-derivative; polynomial operators use the ring
variables and d[var]^[k].  Division is by scalars only.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import MathError, ParseError, ValidationError
from .heisenberg import AlgebraContext, HElement, h as gen_h, x as gen_x, y as gen_y
from .operators import DOperator, dh, dh_reversed, dx, dy, lambda_of, op_compose
from .polydiff import PDOp, p_compose
from .polyring import Poly, PolyRing

#: deepest nesting of parentheses and unary minuses; the parser recurses
#: about four frames per level and must stay inside Python's stack limit
MAX_NESTING = 200
#: largest exponent after ^; each power is that many products
MAX_EXPONENT = 10_000
#: longest number literal: Python's default cap on int/str conversion
MAX_DIGITS = 4_300

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*/^()\[\]])")


@dataclass(frozen=True)
class Token:
    kind: str  # int | name | op | end
    text: str
    line: int
    column: int


@dataclass(frozen=True)
class Num:
    value: int
    line: int
    column: int


@dataclass(frozen=True)
class Sym:
    name: str
    order: int | None  # bracketed divided-power order, if any
    line: int
    column: int


@dataclass(frozen=True)
class Partial:
    var: str
    order: int
    line: int
    column: int


@dataclass(frozen=True)
class Neg:
    operand: object


@dataclass(frozen=True)
class Pow:
    base: object
    exponent: int


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: object
    right: object


def tokenize(text: str) -> list[Token]:
    tokens = []
    lines = text.split("\n")
    for line_no, line in enumerate(lines, start=1):
        pos = 0
        while pos < len(line):
            if line[pos].isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if not m:
                raise ParseError(f"unexpected character {line[pos]!r}", line_no, pos)
            if m.group(1):
                if len(m.group(1)) > MAX_DIGITS:
                    raise ParseError(f"number longer than {MAX_DIGITS} digits", line_no, pos)
                tokens.append(Token("int", m.group(1), line_no, pos))
            elif m.group(2):
                tokens.append(Token("name", m.group(2), line_no, pos))
            else:
                tokens.append(Token("op", m.group(3), line_no, pos))
            pos = m.end()
    tokens.append(Token("end", "", len(lines), len(lines[-1])))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        self.depth = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind == "op" and tok.text == text:
            return self.advance()
        raise ParseError(f"expected {text!r}", tok.line, tok.column)

    def parse(self):
        expr = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.column)
        return expr

    def parse_expr(self):
        tok = self.peek()
        negate = False
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            negate = True
        node = self.parse_term()
        if negate:
            node = Neg(node)
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "+-":
                self.advance()
                rhs = self.parse_term()
                node = BinOp(tok.text, node, rhs)
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            tok = self.peek()
            if tok.kind == "op" and tok.text in "*/":
                self.advance()
                rhs = self.parse_factor()
                node = BinOp(tok.text, node, rhs)
            else:
                return node

    def parse_factor(self):
        node = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            if isinstance(node, Partial):
                return node  # its exponent was consumed by the atom
            self.advance()
            exp = self.peek()
            if exp.kind != "int":
                raise ParseError("exponent must be a nonnegative integer", exp.line, exp.column)
            self.advance()
            return Pow(node, int(exp.text))
        return node

    def parse_atom(self):
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Num(int(tok.text), tok.line, tok.column)
        if tok.kind == "op" and tok.text in "(-":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"nested deeper than {MAX_NESTING} levels", tok.line, tok.column)
            self.advance()
            if tok.text == "(":
                node = self.parse_expr()
                self.expect(")")
            else:
                node = Neg(self.parse_atom())
            self.depth -= 1
            return node
        if tok.kind == "name":
            self.advance()
            if tok.text == "d" and self._at("["):
                self.expect("[")
                var = self.peek()
                if var.kind != "name":
                    raise ParseError("expected a variable name", var.line, var.column)
                self.advance()
                self.expect("]")
                order = 1
                if self._at("^"):
                    self.advance()
                    order = self._order()
                return Partial(var.text, order, tok.line, tok.column)
            order = self._order() if self._at("[") else None
            return Sym(tok.text, order, tok.line, tok.column)
        raise ParseError(f"unexpected {tok.text or 'end of input'!r}", tok.line, tok.column)

    def _order(self) -> int:
        """A bracketed divided-power order [INT]."""
        self.expect("[")
        num = self.peek()
        if num.kind != "int":
            raise ParseError("divided-power order must be an integer", num.line, num.column)
        self.advance()
        self.expect("]")
        return int(num.text)

    def _at(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == text


def parse(text: str):
    """Parse an expression to its AST; raises ParseError with position."""
    return _Parser(text).parse()


# -- evaluation -----------------------------------------------------------------

_GEN_RE = re.compile(r"^([xy])(\d+)$")
_DGEN_RE = re.compile(r"^(d[xy])(\d+)$")


class _Evaluator:
    """Shared arithmetic over one value type; subclasses provide atoms.

    ``kind`` builds a value from ``parent`` and a term dict, and ``unit``
    is the key of the unit monomial, whose multiples are the scalars.
    """

    def __init__(self, kind, parent, unit):
        self.kind = kind
        self.parent = parent
        self.field = parent.field
        self.unit = unit

    def eval(self, node):
        if isinstance(node, BinOp):
            return self.sum(node) if node.op in "+-" else self.product(node)
        if isinstance(node, Num):
            return self.scalar_value(node.value)
        if isinstance(node, Neg):
            return -self.eval(node.operand)
        if isinstance(node, Pow):
            if node.exponent < 0:
                raise ValidationError("negative exponent")
            if node.exponent > MAX_EXPONENT:
                e = str(node.exponent)  # a long one is named by its length
                e = e if len(e) <= 20 else f"of {len(e)} digits"
                raise MathError(f"exponent {e} above the cap of {MAX_EXPONENT}")
            return self.power(self.eval(node.base), node.exponent)
        if isinstance(node, Sym):
            return self.symbol(node)
        if isinstance(node, Partial):
            return self.partial(node)
        raise AssertionError(f"unknown node {node!r}")

    def sum(self, node):
        """Fold a chain of + and - into one term dict.

        The parser builds the chain left-deep, so its left spine is walked
        in a loop: a sum of any length neither recurses nor copies the
        terms gathered so far.
        """
        summands = []
        while isinstance(node, BinOp) and node.op in "+-":
            summands.append((node.op == "-", node.right))
            node = node.left
        f = self.field
        out = dict(self.eval(node).terms)
        for negate, right in reversed(summands):
            for k, c in self.eval(right).terms.items():
                f.acc(out, k, f.neg(c) if negate else c)
        return self.kind(self.parent, out)

    def product(self, node):
        """Fold a chain of * and / in the written order, walking its
        left-deep spine in a loop as sum does."""
        factors = []
        while isinstance(node, BinOp) and node.op in "*/":
            factors.append((node.op, node.right))
            node = node.left
        out = self.eval(node)
        for op, right in reversed(factors):
            r = self.eval(right)
            out = self.multiply(out, r) if op == "*" else self.divide(out, r)
        return out

    def scalar_value(self, v):
        return self.kind(self.parent, {self.unit: self.field.coerce(v)})

    def as_scalar(self, a):
        """The scalar c with a = c * 1, or None if a is not a scalar."""
        if a.terms.keys() <= {self.unit}:
            return a.terms.get(self.unit, self.field.zero)
        return None

    def divide(self, left, right):
        c = self.as_scalar(right)
        if c is None or c == 0:
            raise ValidationError("division is only defined by nonzero scalars")
        return left.scale(self.field.inv(c))

    def multiply(self, a, b):
        return a * b

    def power(self, a, k):
        out = self.scalar_value(1)
        for _ in range(k):
            out = self.multiply(out, a)
        return out

    def partial(self, node):
        raise ParseError("partial symbols are not valid here", node.line, node.column)


class _ElementEvaluator(_Evaluator):
    def __init__(self, ctx: AlgebraContext):
        z = ctx.zero_index()
        super().__init__(HElement, ctx, (0, z, z))

    def symbol(self, node):
        name = node.name
        ctx = self.parent
        if node.order is not None:
            raise ParseError(
                f"{name} does not take a bracket order here", node.line, node.column
            )
        if name == "h":
            return gen_h(ctx)
        m = _GEN_RE.match(name)
        if m:
            idx = int(m.group(2))
            if not 1 <= idx <= ctx.n:
                raise ParseError(
                    f"index {idx} out of range for rank {ctx.n}",
                    node.line,
                    node.column,
                )
            return (gen_x if m.group(1) == "x" else gen_y)(ctx, idx)
        raise ParseError(f"unknown symbol {name!r}", node.line, node.column)


class _OperatorEvaluator(_Evaluator):
    def __init__(self, ctx: AlgebraContext):
        z = ctx.zero_index()
        super().__init__(DOperator, ctx, (0, z, z, 0, z, z))
        self._elems = _ElementEvaluator(ctx)

    def multiply(self, a, b):
        return op_compose(a, b)

    def symbol(self, node):
        name = node.name
        order = node.order
        ctx = self.parent
        if name == "Dh":
            if order is not None:
                raise ParseError("Dh does not take a bracket order", node.line, node.column)
            if ctx.is_weyl:
                raise ParseError("Dh is not available in Weyl mode", node.line, node.column)
            return dh_reversed(ctx)
        if name == "dh":
            if ctx.is_weyl:
                raise ParseError("dh is not available in Weyl mode", node.line, node.column)
            return dh(ctx, order if order is not None else 1)
        m = _DGEN_RE.match(name)
        if m:
            idx = int(m.group(2))
            if not 1 <= idx <= ctx.n:
                raise ParseError(
                    f"index {idx} out of range for rank {ctx.n}",
                    node.line,
                    node.column,
                )
            builder = dx if m.group(1) == "dx" else dy
            return builder(ctx, idx, order if order is not None else 1)
        return lambda_of(self._elems.symbol(node))


class _PolyEvaluator(_Evaluator):
    def __init__(self, ring: PolyRing):
        super().__init__(Poly, ring, (0,) * ring.nvars)

    def symbol(self, node):
        if node.order is not None:
            raise ParseError(
                "polynomial variables take ^ powers, not bracket orders",
                node.line,
                node.column,
            )
        try:
            i = self.parent.variables.index(node.name)
        except ValueError:
            raise ParseError(
                f"unknown variable {node.name!r}", node.line, node.column
            ) from None
        return self.parent.gen(i)


class _PDOpEvaluator(_Evaluator):
    def __init__(self, ring: PolyRing):
        z = (0,) * ring.nvars
        super().__init__(PDOp, ring, (z, z))
        self._polys = _PolyEvaluator(ring)

    def multiply(self, a, b):
        return p_compose(a, b)

    def symbol(self, node):
        return PDOp.mult(self._polys.symbol(node))

    def partial(self, node):
        try:
            i = self.parent.variables.index(node.var)
        except ValueError:
            raise ParseError(
                f"unknown variable {node.var!r}", node.line, node.column
            ) from None
        return PDOp.partial(self.parent, i, node.order)


def element_from_text(ctx: AlgebraContext, text: str) -> HElement:
    return _ElementEvaluator(ctx).eval(parse(text))


def operator_from_text(ctx: AlgebraContext, text: str) -> DOperator:
    return _OperatorEvaluator(ctx).eval(parse(text))


def pdop_from_text(ring: PolyRing, text: str) -> PDOp:
    return _PDOpEvaluator(ring).eval(parse(text))


def poly_from_text(ring: PolyRing, text: str) -> Poly:
    return _PolyEvaluator(ring).eval(parse(text))


def infer_ring_variables(text: str) -> tuple[str, ...]:
    """Variable names appearing in a polynomial-operator expression, sorted."""
    names = set()
    stack = [parse(text)]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            names.add(node.name)
        elif isinstance(node, Partial):
            names.add(node.var)
        elif isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, BinOp):
            stack += (node.left, node.right)
    return tuple(sorted(names))
