"""The divided-power kernels against oracles that share no code with them.

Exponents reach 2p+1 and partial orders p+1, so the integer weights
(binomials and factorials) carry across base-p digits and their reduction
mod p is the Lucas product; Q uses the bounds of F_2.  The word-rewriting oracle
branches at every y_i x_i swap, so each case lets either the x or the y
exponents reach 2p+1 and keeps the other side at most 1, or keeps both
at most 3.
"""

from fractions import Fraction

from hypothesis import HealthCheck, given, settings, strategies as st

from diffops import (
    AlgebraContext,
    DOperator,
    FieldSpec,
    HElement,
    PDOp,
    Poly,
    PolyRing,
    op_apply,
    op_compose,
    p_apply,
    p_compose,
)

from oracles import naive_apply, naive_mul

CASES = settings(
    derandomize=True,
    database=None,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


#: Weyl mode once in three: dh and the h block are Heisenberg-only
MODES = ["heisenberg", "weyl", "heisenberg"]


@st.composite
def shapes(draw):
    """(ctx, big, x_cap, y_cap): a context over Q, F_2, F_3 or F_5, and the
    exponent caps; big = 2p+1 caps the h exponents."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    ctx = AlgebraContext(draw(st.integers(1, 2)), FieldSpec(p), draw(st.sampled_from(MODES)))
    big = 2 * max(p, 2) + 1
    return (ctx, big) + draw(st.sampled_from([(big, 1), (1, big), (3, 3)]))


def coefficients(field):
    if field.characteristic:
        return st.integers(1, field.characteristic - 1)
    return st.builds(Fraction, st.integers(-3, 3).filter(bool), st.integers(1, 3))


def exponents(n, cap, floor=0):
    return st.tuples(*[st.integers(floor, cap)] * n)


def combos(cls, parent, keys, size=2):
    """Nonzero combinations of 1..size terms whose keys are drawn from keys."""
    f = parent.field
    return st.dictionaries(keys, coefficients(f), min_size=1, max_size=size).map(
        lambda terms: cls(parent, {k: f.coerce(c) for k, c in terms.items()})
    )


def elements(shape, high=False):
    """With high, every exponent is in the upper half of its range."""
    ctx, big, x_cap, y_cap = shape
    h = st.just(0) if ctx.is_weyl else st.integers(high * ((big + 1) // 2), big)
    x, y = (exponents(ctx.n, cap, high * ((cap + 1) // 2)) for cap in (x_cap, y_cap))
    return combos(HElement, ctx, st.tuples(h, x, y))


def operators(shape):
    """Partial orders reach just past half a cap (p+1 on the 2p+1 side, past
    the first base-p digit), so that most actions on high elements are not zero."""
    ctx, big, x_cap, y_cap = shape
    h, s = (st.just(0),) * 2 if ctx.is_weyl else (st.integers(0, big), st.integers(0, big // 2 + 1))
    x, y = exponents(ctx.n, x_cap), exponents(ctx.n, y_cap)
    dx, dy = (exponents(ctx.n, cap // 2 + 1) for cap in (x_cap, y_cap))
    return combos(DOperator, ctx, st.tuples(h, x, y, s, dx, dy))


@CASES
@given(st.data())
def test_product_matches_word_rewriting(data):
    shape = data.draw(shapes())
    a, b = data.draw(elements(shape)), data.draw(elements(shape))
    assert a * b == naive_mul(a, b)


@CASES
@given(st.data())
def test_compose_then_apply_matches_naive_action(data):
    shape = data.draw(shapes())
    d1, d2 = data.draw(operators(shape)), data.draw(operators(shape))
    a = data.draw(elements(shape, high=True))
    assert op_apply(op_compose(d1, d2), a) == naive_apply(d1, naive_apply(d2, a))


@CASES
@given(st.data())
def test_polynomial_compose_then_apply(data):
    p = data.draw(st.sampled_from([0, 2, 3, 5]))
    ring = PolyRing(("u", "v")[: data.draw(st.integers(1, 2))], FieldSpec(p))
    big = 2 * max(p, 2) + 1
    exps = exponents(ring.nvars, big)
    ops = combos(PDOp, ring, st.tuples(exps, exps))
    d1, d2, f = data.draw(ops), data.draw(ops), data.draw(combos(Poly, ring, exps, size=3))
    assert p_apply(p_compose(d1, d2), f) == p_apply(d1, p_apply(d2, f))
