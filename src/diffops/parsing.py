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

Evaluation works on plain term dicts and multiplies them with the value
type's own pair kernel (fields.bilinear), so each normal-order rule has one
owner.  A product of monomials already in normal order against each other
(as in every printed normal form) takes the kernels' shortcut: one key and
an integer weight, with no contraction enumerated.
"""

from __future__ import annotations

import re
from operator import add
from typing import NamedTuple

from .errors import MathError, ParseError, ValidationError
from .fields import bilinear
from .heisenberg import AlgebraContext, HElement, _mul_mono
from .operators import DOperator, _compose_mono, dh_reversed
from .polydiff import PDOp, _p_compose_mono
from .polyring import Poly, PolyRing

#: deepest nesting of parentheses and unary minuses; the parser recurses
#: about four frames per level and must stay inside Python's stack limit
MAX_NESTING = 200
#: largest exponent after ^; each power is that many products
MAX_EXPONENT = 10_000
#: most monomial products (terms of the running product times terms of
#: the base, summed over its steps) that one power may take
MAX_POWER_PRODUCTS = 50_000
#: longest number literal: Python's default cap on int/str conversion
MAX_DIGITS = 4_300

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9]*)|([+\-*/^()\[\]])|(\S)|\Z)")
_TOKEN_KINDS = (None, "int", "name", "op", "bad")  # by the group that matched


class Token(NamedTuple):
    kind: str  # int | name | op | end
    text: str
    line: int
    column: int


class Num(NamedTuple):
    value: int
    line: int
    column: int


class Sym(NamedTuple):
    name: str
    order: int | None  # bracketed divided-power order, if any
    line: int
    column: int


class Partial(NamedTuple):
    var: str
    order: int
    line: int
    column: int


class Neg(NamedTuple):
    operand: object


class Pow(NamedTuple):
    base: object
    exponent: int


class BinOp(NamedTuple):
    op: str  # + - * /
    left: object
    right: object


def tokenize(text: str) -> list[Token]:
    """One scan of the text: each match takes the whitespace before a
    token, then the token, the one character that starts none, or the end."""
    tokens = []
    line, start = 1, 0  # the current line's number and its offset in text
    for m in _TOKEN_RE.finditer(text):
        if m.lastindex is None:
            break
        pos = m.start(m.lastindex)
        if pos > m.start() and (nl := text.rfind("\n", m.start(), pos)) >= 0:
            line += text.count("\n", m.start(), pos)
            start = nl + 1
        kind, tok = _TOKEN_KINDS[m.lastindex], m.group(m.lastindex)
        if kind == "bad":
            raise ParseError(f"unexpected character {tok!r}", line, pos - start)
        if kind == "int" and len(tok) > MAX_DIGITS:
            raise ParseError(f"number longer than {MAX_DIGITS} digits", line, pos - start)
        tokens.append(Token(kind, tok, line, pos - start))
    tokens.append(Token("end", "", text.count("\n") + 1, len(text) - text.rfind("\n") - 1))
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
    """Shared arithmetic over one value type, on plain term dicts that
    become a value once, at the end; subclasses provide atoms.

    ``kind`` builds a value from ``parent`` and a term dict, ``unit`` is
    the key of the unit monomial, whose multiples are the scalars, and
    ``mono`` is the value type's pair kernel, which products hand to
    fields.bilinear.
    """

    def __init__(self, kind, parent, unit, mono):
        self.kind, self.parent, self.unit, self.mono = kind, parent, unit, mono
        self.field, self.one = parent.field, parent.field.one

    def eval(self, node):
        return self.kind(self.parent, self.terms(node))

    def terms(self, node) -> dict:
        if isinstance(node, Sym):
            return self.symbol(node)
        if isinstance(node, BinOp):
            return self.sum(node) if node.op in "+-" else self.product(node)
        if isinstance(node, Num):
            c = self.field.coerce(node.value)
            return {self.unit: c} if c else {}
        if isinstance(node, Neg):
            f = self.field
            return {k: f.neg(c) for k, c in self.terms(node.operand).items()}
        if isinstance(node, Pow):
            if node.exponent > MAX_EXPONENT:
                e = str(node.exponent)  # a long one is named by its length
                e = e if len(e) <= 20 else f"of {len(e)} digits"
                raise MathError(f"exponent {e} above the cap of {MAX_EXPONENT}")
            return self.power(self.terms(node.base), node.exponent)
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
        out = dict(self.terms(node))
        for negate, right in reversed(summands):
            for k, c in self.terms(right).items():
                f.acc(out, k, f.neg(c) if negate else c)
        return out

    def product(self, node):
        """Fold a chain of * and / in the written order, walking its
        left-deep spine in a loop as sum does."""
        factors = []
        while isinstance(node, BinOp) and node.op in "*/":
            factors.append((node.op, node.right))
            node = node.left
        out = self.terms(node)
        for op, right in reversed(factors):
            r = self.terms(right)
            out = bilinear(self.parent, self.mono, out, r) if op == "*" else self.divide(out, r)
        return out

    def divide(self, left, right):
        c = right.get(self.unit) if right.keys() <= {self.unit} else None
        if not c:
            raise ValidationError("division is only defined by nonzero scalars")
        f = self.field
        c = f.inv(c)
        return {k: f.mul(v, c) for k, v in left.items()}

    def power(self, a, k):
        """a^k as a product chain; a chain of monomials costs one product
        a step, and the products of all steps together are capped."""
        out, work = {self.unit: self.one}, 0
        for _ in range(k):
            work += len(out) * len(a)
            if work > MAX_POWER_PRODUCTS:
                raise MathError(f"power needs more than {MAX_POWER_PRODUCTS} monomial products")
            out = bilinear(self.parent, self.mono, out, a)
        return out

    def partial(self, node):
        raise ParseError("partial symbols are not valid here", node.line, node.column)

    def index(self, node, idx):
        if not 1 <= idx <= self.parent.n:
            raise ParseError(
                f"index {idx} out of range for rank {self.parent.n}", node.line, node.column
            )
        return tuple(int(i == idx) for i in range(1, self.parent.n + 1))


class _ElementEvaluator(_Evaluator):
    def __init__(self, ctx: AlgebraContext):
        z = ctx.zero_index()
        super().__init__(HElement, ctx, (0, z, z), _mul_mono)

    def symbol(self, node):
        name = node.name
        ctx = self.parent
        z = self.unit[1]
        if node.order is not None:
            raise ParseError(
                f"{name} does not take a bracket order here", node.line, node.column
            )
        if name == "h":
            return {(0 if ctx.is_weyl else 1, z, z): self.one}
        m = _GEN_RE.match(name)
        if m:
            e = self.index(node, int(m.group(2)))
            return {(0, e, z) if m.group(1) == "x" else (0, z, e): self.one}
        raise ParseError(f"unknown symbol {name!r}", node.line, node.column)


class _OperatorEvaluator(_Evaluator):
    def __init__(self, ctx: AlgebraContext):
        z = ctx.zero_index()
        super().__init__(DOperator, ctx, (0, z, z, 0, z, z), _compose_mono)
        self._elems = _ElementEvaluator(ctx)

    def symbol(self, node):
        name = node.name
        order = 1 if node.order is None else node.order
        ctx = self.parent
        z = self.unit[1]
        if name == "Dh" and node.order is not None:
            raise ParseError("Dh does not take a bracket order", node.line, node.column)
        if name in ("Dh", "dh"):
            if ctx.is_weyl:
                raise ParseError(f"{name} is not available in Weyl mode", node.line, node.column)
            return dh_reversed(ctx).terms if name == "Dh" else {(0, z, z, order, z, z): self.one}
        m = _DGEN_RE.match(name)
        if m:
            e = tuple(order * i for i in self.index(node, int(m.group(2))))
            return {(0, z, z, 0, e, z) if m.group(1) == "dx" else (0, z, z, 0, z, e): self.one}
        return {k + (0, z, z): self.one for k in self._elems.symbol(node)}


def _poly_mono(ring, k1, k2, c, out):
    ring.field.acc(out, tuple(map(add, k1, k2)), c)


class _PolyEvaluator(_Evaluator):
    def __init__(self, ring: PolyRing):
        super().__init__(Poly, ring, (0,) * ring.nvars, _poly_mono)

    def symbol(self, node):
        if node.order is not None:
            raise ParseError(
                "polynomial variables take ^ powers, not bracket orders",
                node.line,
                node.column,
            )
        return {self.gen(node.name, node): self.one}

    def gen(self, name, node):
        """The exponent vector of one ring variable."""
        try:
            i = self.parent.variables.index(name)
        except ValueError:
            raise ParseError(f"unknown variable {name!r}", node.line, node.column) from None
        return tuple(int(j == i) for j in range(self.parent.nvars))


class _PDOpEvaluator(_Evaluator):
    def __init__(self, ring: PolyRing):
        z = (0,) * ring.nvars
        super().__init__(PDOp, ring, (z, z), _p_compose_mono)
        self._polys = _PolyEvaluator(ring)

    def symbol(self, node):
        return {(b, self.unit[1]): self.one for b in self._polys.symbol(node)}

    def partial(self, node):
        a = tuple(node.order * e for e in self._polys.gen(node.var, node))
        return {(self.unit[1], a): self.one}


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
    parser = _Parser(text)
    parser.parse()  # syntax errors come first
    toks = parser.tokens  # every name but the d of each d[t]
    names = {a.text for a, b in zip(toks, toks[1:]) if a.kind == "name" and a.text + b.text != "d["}
    return tuple(sorted(names))
