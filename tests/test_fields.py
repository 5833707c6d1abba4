"""The scalar layer and the linear-combination core shared by all value types."""

from fractions import Fraction

import pytest

import diffops
from diffops import (
    AlgebraContext,
    DOperator,
    FieldSpec,
    HElement,
    PDOp,
    Poly,
    PolyRing,
)
from diffops.errors import IncompatibleContextError
from diffops.parsing import element_from_text, operator_from_text, pdop_from_text, poly_from_text

Q2 = AlgebraContext(2)
F5 = AlgebraContext(2, FieldSpec(5))
RQ = PolyRing(("t", "u"), FieldSpec(0))
R3 = PolyRing(("t", "u"), FieldSpec(3))


def test_package_exports_resolve():
    for name in diffops.__all__:
        assert getattr(diffops, name) is not None, name


@pytest.mark.parametrize(
    "field, a, b",
    [(FieldSpec(0), Fraction(1, 2), Fraction(-1, 2)), (FieldSpec(5), 2, 3)],
)
def test_acc_drops_a_sum_that_reaches_zero(field, a, b):
    out = {"k": a}
    field.acc(out, "k", b)
    assert out == {}


@pytest.mark.parametrize("field", [FieldSpec(0), FieldSpec(5)])
def test_acc_adding_zero_to_an_absent_key(field):
    out = {"k": field.one}
    field.acc(out, "j", field.zero)
    assert out == {"k": field.one}


@pytest.mark.parametrize("field", [FieldSpec(0), FieldSpec(5)])
def test_acc_inserts_and_adds(field):
    out = {}
    field.acc(out, "k", field.coerce(3))
    assert out == {"k": field.coerce(3)}
    field.acc(out, "k", field.coerce(4))
    assert out == {"k": field.coerce(7)}


# each case: reader, parent, a parent of the same kind that differs, an
# expression, and the same value written in another term order
CASES = [
    (element_from_text, Q2, F5, "x1*y2 + 2*h - y1", "-y1 + 2*h + y2*x1"),
    (operator_from_text, Q2, F5, "dx1*x2 + h*dy2 - 3", "-3 + h*dy2 + x2*dx1"),
    (poly_from_text, RQ, R3, "t^2*u - 3*u + 1", "1 + u*t^2 - 3*u"),
    (pdop_from_text, RQ, R3, "t*d[u] - u^2 + 2", "2 - u^2 + t*d[u]"),
]


@pytest.mark.parametrize("read, parent, other, text, reordered", CASES)
def test_combination_core(read, parent, other, text, reordered):
    a = read(parent, text)
    assert (a - a).terms == {}
    assert (a - a).is_zero() and not a.is_zero()
    assert not (a - a) and a
    for b in (read(parent, reordered), type(a)(parent, dict(reversed(a.terms.items())))):
        assert list(b.terms) != list(a.terms)
        assert b == a and hash(b) == hash(a)
    assert -a + a == read(parent, "0")
    assert 2 * a == a.scale(2) == a + a
    c = read(other, text)
    with pytest.raises(IncompatibleContextError):
        a + c
    with pytest.raises(IncompatibleContextError):
        a - c


def test_value_types_never_compare_equal():
    zeros = [HElement(Q2), DOperator(Q2), Poly(RQ, {}), PDOp(RQ)]
    for i, u in enumerate(zeros):
        for j, v in enumerate(zeros):
            assert (u == v) == (i == j)
    assert element_from_text(Q2, "1") != operator_from_text(Q2, "1")
