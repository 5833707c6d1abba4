"""Expression language: grammar, diagnostics, canonical round trips."""

import random
from fractions import Fraction

import pytest

from diffops import AlgebraContext, DOperator, FieldSpec, HElement, PolyRing, commutator, h, x, y
from diffops import heisenberg, operators, polydiff
from diffops.errors import ParseError
from diffops.parsing import (
    BinOp,
    Sym,
    element_from_text,
    infer_ring_variables,
    operator_from_text,
    parse,
    pdop_from_text,
    poly_from_text,
)
from diffops.printing import (
    element_records,
    format_element,
    format_operator,
    format_pdop,
    format_poly,
    operator_records,
    pdop_records,
)

from oracles import random_element, random_operator, random_pdop, random_poly

Q1 = AlgebraContext(1)
Q2 = AlgebraContext(2)
W2 = AlgebraContext(2, mode="weyl")


def test_parse_commutator_expression():
    expr = parse("x1*y1 - y1*x1")
    assert isinstance(expr, BinOp) and expr.op == "-"
    got = element_from_text(Q2, "x1*y1 - y1*x1")
    assert got == commutator(x(Q2, 1), y(Q2, 1))
    assert got == h(Q2)


def test_parse_operator_monomial():
    expr = parse("dh[3]*h^2")
    assert isinstance(expr, BinOp) and expr.op == "*"
    assert isinstance(expr.left, Sym) and expr.left.name == "dh" and expr.left.order == 3
    d = operator_from_text(Q1, "dh[3]*h^2")
    # normal ordering of dh^[3] o lambda_{h^2}
    assert format_operator(d) == "h^2*dh[3] + 2*h*dh[2] + dh"


def test_index_out_of_range_diagnostic():
    with pytest.raises(ParseError) as exc:
        element_from_text(Q2, "x3")
    assert "out of range" in str(exc.value)
    assert exc.value.line == 1 and exc.value.column == 0


def test_unknown_symbol_diagnostic():
    with pytest.raises(ParseError) as exc:
        element_from_text(Q2, "x1 + foo")
    assert "unknown symbol" in str(exc.value)
    assert exc.value.column == 5


def test_syntax_error_positions():
    with pytest.raises(ParseError) as exc:
        parse("x1 + + y1")
    assert exc.value.column == 5
    with pytest.raises(ParseError) as exc:
        parse("(x1")
    assert "expected" in str(exc.value)


def test_weyl_mode_rejects_h_derivatives():
    with pytest.raises(ParseError):
        operator_from_text(W2, "dh")
    with pytest.raises(ParseError):
        operator_from_text(W2, "Dh")
    assert operator_from_text(W2, "dx1").is_zero() is False


def test_fraction_literals():
    e = element_from_text(Q1, "1/2*x1 - 3/4")
    assert e == HElement.monomial(Q1, 0, (1,), (0,), Fraction(1, 2)) - HElement.scalar(
        Q1, Fraction(3, 4)
    )
    ctx5 = AlgebraContext(1, FieldSpec(5))
    e5 = element_from_text(ctx5, "1/2")
    assert e5 == HElement.scalar(ctx5, 3)  # inverse of 2 mod 5


def test_zero_prints_as_zero():
    assert format_element(HElement.zero(Q1)) == "0"
    assert element_from_text(Q1, "0").is_zero()


def test_canonical_examples():
    assert format_element(y(Q1, 1) * x(Q1, 1)) == "x1*y1 - h"
    e = element_from_text(Q2, "3*h^2*x1*y1^3 - 1/2*x2")
    assert format_element(e) == "3*h^2*x1*y1^3 - 1/2*x2"


@pytest.mark.parametrize("char", [0, 5])
@pytest.mark.parametrize("mode", ["heisenberg", "weyl"])
def test_element_round_trip(char, mode):
    ctx = AlgebraContext(2, FieldSpec(char), mode)
    rng = random.Random(char + len(mode))
    for _ in range(50):
        a = random_element(rng, ctx)
        assert element_from_text(ctx, format_element(a)) == a


@pytest.mark.parametrize("char", [0, 5])
def test_operator_round_trip(char):
    ctx = AlgebraContext(2, FieldSpec(char))
    rng = random.Random(char + 31)
    for _ in range(50):
        d = random_operator(rng, ctx)
        assert operator_from_text(ctx, format_operator(d)) == d


def test_weyl_operator_round_trip():
    rng = random.Random(77)
    for _ in range(30):
        d = random_operator(rng, W2)
        assert operator_from_text(W2, format_operator(d)) == d


@pytest.mark.parametrize("char", [0, 3])
def test_pdop_round_trip(char):
    ring = PolyRing(("t", "u"), FieldSpec(char))
    rng = random.Random(char + 41)
    for _ in range(50):
        d = random_pdop(rng, ring)
        assert pdop_from_text(ring, format_pdop(d)) == d


def test_poly_round_trip():
    ring = PolyRing(("h", "X1", "Y1"), FieldSpec(3))
    rng = random.Random(43)
    for _ in range(30):
        f = random_poly(rng, ring)
        assert poly_from_text(ring, format_poly(f)) == f


def test_long_sums_round_trip():
    # 1,500 printed terms: a sum this long once exhausted the recursion limit
    grid = [
        (m, (i, j), (k, l))
        for m in range(3)
        for i in range(5)
        for j in range(5)
        for k in range(5)
        for l in range(4)
    ]
    a = HElement(Q2, {key: Fraction(t % 7 - 3 or 5, 1 + t % 4) for t, key in enumerate(grid)})
    assert len(a.terms) == 1500
    assert element_from_text(Q2, format_element(a)) == a
    z = (0, 0)
    d = DOperator(
        Q2,
        {
            (m, I, J, t % 3, z, (t % 2, 0)): Fraction(t % 5 + 1)
            for t, (m, I, J) in enumerate(grid)
        },
    )
    assert len(d.terms) == 1500
    assert operator_from_text(Q2, format_operator(d)) == d


def test_long_product_chains():
    # 1,200 factors fold in a loop, in the written order: y1 stays in front
    ctx = AlgebraContext(n=1)
    chain = "*".join(["y1"] + ["x1"] * 1199)
    assert element_from_text(ctx, chain) == element_from_text(ctx, "y1*x1^1199")
    assert element_from_text(ctx, chain) != element_from_text(ctx, "x1^1199*y1")
    assert format_element(element_from_text(ctx, "*".join(["x1"] * 1200))) == "x1^1200"
    ops = "*".join(["x1"] * 1199 + ["dx1"]) + "/2"
    assert operator_from_text(ctx, ops) == operator_from_text(ctx, "1/2*x1^1199*dx1")


@pytest.mark.parametrize("char", [0, 2, 5])
@pytest.mark.parametrize("mode", ["heisenberg", "weyl"])
def test_normal_forms_read_without_the_kernels(char, mode, monkeypatch):
    # a printed normal form is a sum of products in normal order, so reading
    # it takes the kernels' shortcut for each product and never enumerates
    # a contraction or a push
    def kernel(*args):
        raise AssertionError("a kernel enumerated contractions")

    for module in (heisenberg, operators, polydiff):
        monkeypatch.setattr(module, "contractions", kernel)
    ctx = AlgebraContext(2, FieldSpec(char), mode)
    ring = PolyRing(("t", "u"), FieldSpec(char))
    rng = random.Random(char + len(mode))
    for _ in range(30):
        a = random_element(rng, ctx, max_exp=4, terms=6)
        assert element_from_text(ctx, format_element(a)) == a
        d = random_operator(rng, ctx, max_exp=4, max_h=3, terms=6)
        assert operator_from_text(ctx, format_operator(d)) == d
        e = random_pdop(rng, ring, max_exp=4, terms=6)
        assert pdop_from_text(ring, format_pdop(e)) == e
        assert operator_from_text(ctx, "x2*3*dx1^3*dy1*dy1[2]") == operator_from_text(
            ctx, "54*x2*dx1[3]*dy1[3]"
        )
    with pytest.raises(AssertionError, match="kernel"):
        operator_from_text(ctx, "dx1*x1")


def test_pdop_text_examples():
    ring = PolyRing(("t",), FieldSpec(0))
    d = pdop_from_text(ring, "t^3*d[t]^[2]")
    assert format_pdop(d) == "t^3*d[t]^[2]"
    assert pdop_from_text(ring, "d[t]") == pdop_from_text(ring, "d[t]^[1]")


def test_infer_ring_variables():
    assert infer_ring_variables("t^2*d[t] - u") == ("t", "u")
    assert infer_ring_variables("d[h]^[3]") == ("h",)


def test_records_have_canonical_order_and_content():
    a = y(Q1, 1) * x(Q1, 1)
    recs = element_records(a)
    assert recs == [
        {"coeff": "1", "m": 0, "I": [1], "J": [1]},
        {"coeff": "-1", "m": 1, "I": [0], "J": [0]},
    ]
    d = operator_from_text(Q1, "dh - dx1")
    recs = operator_records(d)
    assert recs[0]["s"] == 1 and recs[0]["coeff"] == "1"
    assert recs[1]["K"] == [1] and recs[1]["coeff"] == "-1"
    ring = PolyRing(("t",), FieldSpec(0))
    recs = pdop_records(pdop_from_text(ring, "2*t*d[t]^[2]"))
    assert recs == [{"coeff": "2", "beta": [1], "alpha": [2]}]
