"""Products in text against the key maps they name.

A product of monomials that are already in normal order takes the pair
kernels' shortcut (_mul_mono, _compose_mono, _p_compose_mono): one key
times an integer weight, with no contraction enumerated.  The normal-order
cases here are the differential test of those shortcuts.  They write
random key maps as text with a writer of their own: scalar factors go
anywhere in a product, powers are split into repeated factors (x1^3 as
x1*x1^2, dx1[3] as dx1[2]*dx1 or dx1^3 = 6*dx1[3]), and the expected
coefficients come from math.comb and math.factorial here.  The same
products are also read factor by factor and multiplied as values, with
HElement *, op_compose and p_compose.  Products out of normal order (y1*x1,
dx1*x1, dh*y1, d[u]*u) take the kernels' contractions; they are checked
against the word-rewriting oracle and actions taken from the definition,
never against a kernel.
"""

from fractions import Fraction
from functools import reduce
from math import comb, factorial, prod
from operator import mul

from hypothesis import HealthCheck, given, settings, strategies as st

from diffops import AlgebraContext, DOperator, FieldSpec, HElement, PolyRing, op_compose, p_compose
from diffops.parsing import element_from_text, operator_from_text, pdop_from_text, poly_from_text

from oracles import naive_apply, naive_mul

CASES = settings(
    derandomize=True,
    database=None,
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Weyl mode once in three: h and dh are Heisenberg-only
MODES = ["heisenberg", "weyl", "heisenberg"]


class Writer:
    """Writes monomials as product text and tracks the value the text names.

    ``value(c)`` is a scalar of the field: a Fraction over Q, an int in
    [0, p) over F_p.
    """

    def __init__(self, rnd, p):
        self.rnd, self.p = rnd, p

    def value(self, c):
        return c % self.p if self.p else Fraction(c)

    def scalar(self):
        """(text, value) of a nonzero scalar factor such as 3, -2 or 1/2."""
        while True:
            num = self.rnd.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            den = self.rnd.choice([1, 1, 2, 3])
            if not self.p or (num % self.p and den % self.p):
                break
        text = str(num) if den == 1 else f"{num}/{den}"
        return text, (num * pow(den, -1, self.p) % self.p if self.p else Fraction(num, den))

    def parts(self, e):
        """e as a list of positive parts in random order."""
        out = []
        while e:
            out.append(self.rnd.randint(1, e))
            e -= out[-1]
        return out

    def power(self, name, e):
        """Factors of name^e, each part written name^k or name*...*name."""
        return [
            f"{name}^{k}" if self.rnd.random() < 0.5 else "*".join([name] * k)
            for k in self.parts(e)
        ]

    def divided(self, name, e, order="{}[{}]", powers=True):
        """(factors, weight) of the divided power name[e]: a part k is
        name[k] (weight 1; ``order`` writes it), name^k or k repeated
        factors (weight k!); the parts merge with the multinomial weight."""
        factors, weight, seen = [], 1, 0
        for k in self.parts(e):
            seen += k
            weight *= comb(seen, k)
            form = self.rnd.choice(["[]", "^", "*"] if powers else ["[]", "*"])
            if form == "[]":
                factors.append(name if k == 1 else order.format(name, k))
            else:
                weight *= factorial(k)
                factors.append(f"{name}^{k}" if form == "^" else "*".join([name] * k))
        return factors, weight

    def interleave(self, groups):
        """Shuffle the factor groups together; a group keeps its own order.

        ``groups`` is a list of factor lists that must keep their relative
        order (x_i before y_i, multiplications before partials)."""
        tags = [g for g, group in enumerate(groups) for _ in group]
        self.rnd.shuffle(tags)
        its = [iter(group) for group in groups]
        return [next(its[g]) for g in tags]

    def term(self, groups, weight=1):
        """(text, value) of a product of the groups' factors with 0 to 3
        scalar factors anywhere in it."""
        factors, value = self.interleave(groups), self.value(weight)
        for _ in range(self.rnd.randint(0, 3)):
            text, c = self.scalar()
            factors.insert(self.rnd.randint(0, len(factors)), text)
            value = value * c % self.p if self.p else value * c
        return "*".join(factors) or "1", value


def element_groups(w, ctx, key):
    """Factor groups of h^m x^I y^J; x_i and y_i share a group."""
    m, I, J = key
    groups = [w.power("h", m)]
    for i, (a, b) in enumerate(zip(I, J), start=1):
        groups.append(w.power(f"x{i}", a) + w.power(f"y{i}", b))
    return groups


def operator_groups(w, ctx, key):
    """(groups, weight) of a normal operator monomial: the multiplication
    part as for elements, then every partial in one shuffled group."""
    m, I, J, s, K, L = key
    partials, weight = [], 1
    for name, e in [("dh", s)] + [(f"d{v}{i}", e) for v, E in (("x", K), ("y", L))
                                   for i, e in enumerate(E, start=1)]:
        factors, wt = w.divided(name, e)
        partials += factors
        weight *= wt
    w.rnd.shuffle(partials)
    mult = w.interleave(element_groups(w, ctx, (m, I, J)))
    return [mult + partials], weight


def pdop_groups(w, ring, key):
    """(groups, weight) of t^beta d^[alpha]: t_i before d[t_i]."""
    beta, alpha = key
    groups, weight = [], 1
    for name, b, a in zip(ring.variables, beta, alpha):
        factors, wt = w.divided(f"d[{name}]", a, "{}^[{}]", powers=False)
        groups.append(w.power(name, b) + factors)
        weight *= wt
    return groups, weight


def write(w, terms_of, parent, keys):
    """(text, expected key map) of a sum of one written term per key."""
    texts, expected = [], {}
    for key in keys:
        groups, weight = terms_of(w, parent, key)
        text, c = w.term(groups, weight)
        texts.append(text)
        if c:
            expected[key] = c
    return " + ".join(texts), expected


def with_weight(groups_of):
    return lambda w, parent, key: (groups_of(w, parent, key), 1)


@st.composite
def contexts(draw):
    """(ctx, cap): a rank-1 or rank-2 context over Q, F_2, F_3 or F_5, and an
    exponent cap of 2p+1, so that weights carry across base-p digits."""
    p = draw(st.sampled_from([0, 2, 3, 5]))
    ctx = AlgebraContext(draw(st.integers(1, 2)), FieldSpec(p), draw(st.sampled_from(MODES)))
    return ctx, 2 * max(p, 2) + 1


def exps(n, cap):
    return st.tuples(*[st.integers(0, cap)] * n)


def element_keys(ctx, cap):
    h = st.just(0) if ctx.is_weyl else st.integers(0, cap)
    return st.tuples(h, exps(ctx.n, cap), exps(ctx.n, cap))


def operator_keys(ctx, cap):
    h = st.just(0) if ctx.is_weyl else st.integers(0, cap)
    return st.tuples(h, exps(ctx.n, cap), exps(ctx.n, cap), h, exps(ctx.n, cap), exps(ctx.n, cap))


def rings(p, nvars):
    return PolyRing(("u", "v")[:nvars], FieldSpec(p))


@CASES
@given(st.data())
def test_normal_products_read_as_their_key_maps(data):
    ctx, cap = data.draw(contexts())
    w = Writer(data.draw(st.randoms(use_true_random=False)), ctx.field.characteristic)
    keys = data.draw(st.lists(element_keys(ctx, cap), min_size=1, max_size=3, unique=True))
    text, expected = write(w, with_weight(element_groups), ctx, keys)
    assert element_from_text(ctx, text).terms == expected, text
    keys = data.draw(st.lists(operator_keys(ctx, cap), min_size=1, max_size=3, unique=True))
    text, expected = write(w, operator_groups, ctx, keys)
    assert operator_from_text(ctx, text).terms == expected, text


@CASES
@given(st.data())
def test_polynomial_products_read_as_their_key_maps(data):
    p = data.draw(st.sampled_from([0, 2, 3, 5]))
    ring = rings(p, data.draw(st.integers(1, 2)))
    cap = 2 * max(p, 2) + 1
    w = Writer(data.draw(st.randoms(use_true_random=False)), p)
    keys = data.draw(st.lists(exps(ring.nvars, cap), min_size=1, max_size=3, unique=True))
    poly_groups = lambda w, ring, key: [w.power(v, e) for v, e in zip(ring.variables, key)]
    text, expected = write(w, with_weight(poly_groups), ring, keys)
    assert poly_from_text(ring, text).terms == expected, text
    pairs = st.tuples(exps(ring.nvars, cap), exps(ring.nvars, cap))
    keys = data.draw(st.lists(pairs, min_size=1, max_size=3, unique=True))
    text, expected = write(w, pdop_groups, ring, keys)
    assert pdop_from_text(ring, text).terms == expected, text


@CASES
@given(st.data())
def test_normal_products_multiply_as_values(data):
    # one product per value type, its factors read one by one and multiplied
    # as values, so that the shortcut runs in HElement *, op_compose and p_compose
    ctx, cap = data.draw(contexts())
    ring = rings(ctx.field.characteristic, ctx.n)
    w = Writer(data.draw(st.randoms(use_true_random=False)), ctx.field.characteristic)
    for keys, groups_of, parent, from_text, times in [
        (element_keys(ctx, cap), with_weight(element_groups), ctx, element_from_text, mul),
        (operator_keys(ctx, cap), operator_groups, ctx, operator_from_text, op_compose),
        (st.tuples(exps(ring.nvars, cap), exps(ring.nvars, cap)), pdop_groups, ring,
         pdop_from_text, p_compose),
    ]:
        text, expected = write(w, groups_of, parent, [data.draw(keys)])
        got = reduce(times, [from_text(parent, factor) for factor in text.split("*")])
        assert got.terms == expected, text


def two_factors(data, w, keys, groups_of, parent):
    """(text, e1, e2): the product of two written sums of one or two terms
    and the key maps of the sums."""
    (t1, e1), (t2, e2) = [
        write(w, groups_of, parent, data.draw(st.lists(keys, min_size=1, max_size=2, unique=True)))
        for _ in range(2)
    ]
    return (f"{t1}*{t2}" if "+" not in t1 + t2 else f"({t1})*({t2})"), e1, e2


@CASES
@given(st.data())
def test_element_products_out_of_order_match_word_rewriting(data):
    ctx, cap = data.draw(contexts())
    w = Writer(data.draw(st.randoms(use_true_random=False)), ctx.field.characteristic)
    text, e1, e2 = two_factors(data, w, element_keys(ctx, cap), with_weight(element_groups), ctx)
    want = naive_mul(HElement(ctx, e1), HElement(ctx, e2))
    assert element_from_text(ctx, text) == want, text


def high_elements(ctx, cap):
    """Elements whose exponents are in the upper half of their range, so
    that few actions vanish."""
    h = st.just(0) if ctx.is_weyl else st.integers((cap + 1) // 2, cap)
    e = exps(ctx.n, cap).map(lambda t: tuple(max(v, (cap + 1) // 2) for v in t))
    return st.tuples(h, e, e)


@CASES
@given(st.data())
def test_operator_products_out_of_order_match_naive_action(data):
    ctx, cap = data.draw(contexts())
    w = Writer(data.draw(st.randoms(use_true_random=False)), ctx.field.characteristic)
    text, e1, e2 = two_factors(data, w, operator_keys(ctx, cap // 2 + 1), operator_groups, ctx)
    got = operator_from_text(ctx, text)
    a = HElement(ctx, {data.draw(high_elements(ctx, cap)): w.value(1)})
    want = naive_apply(DOperator(ctx, e1), naive_apply(DOperator(ctx, e2), a))
    assert naive_apply(got, a) == want, text


def act(terms, f, p):
    """A polynomial operator {(beta, alpha): c} on {gamma: v} from the
    definition d^[alpha] t^gamma = prod C(gamma_i, alpha_i) t^(gamma - alpha)."""
    out = {}
    for (beta, alpha), c in terms.items():
        for gamma, v in f.items():
            w = c * v * prod(map(comb, gamma, alpha))
            key = tuple(g - a + b for g, a, b in zip(gamma, alpha, beta))
            out[key] = (out.get(key, 0) + w) % p if p else out.get(key, 0) + w
    return {k: c for k, c in out.items() if c}


@CASES
@given(st.data())
def test_polynomial_operator_products_out_of_order_match_their_action(data):
    p = data.draw(st.sampled_from([0, 2, 3, 5]))
    ring = rings(p, data.draw(st.integers(1, 2)))
    cap = 2 * max(p, 2) + 1
    w = Writer(data.draw(st.randoms(use_true_random=False)), p)
    pairs = st.tuples(exps(ring.nvars, cap), exps(ring.nvars, cap // 2 + 1))
    text, e1, e2 = two_factors(data, w, pairs, pdop_groups, ring)
    got = pdop_from_text(ring, text)
    f = {tuple(max(v, (cap + 1) // 2) for v in data.draw(exps(ring.nvars, cap))): w.value(1)}
    assert act(got.terms, f, p) == act(e1, act(e2, f, p), p), text
