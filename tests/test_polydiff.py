"""Divided-power operators on commutative polynomial rings."""

import math
import random

import pytest

from diffops import (
    FieldSpec,
    MINUS_INF,
    PDOp,
    Poly,
    PolyRing,
    bareiss_determinant,
    grothendieck_order_check,
    p_apply,
    p_compose,
    p_order,
)
from diffops.errors import IncompatibleContextError

import oracles

RQ = PolyRing(("t",), FieldSpec(0))
R5 = PolyRing(("t",), FieldSpec(5))


def random_poly(rng, ring, max_exp=3, terms=3):
    out = ring.zero()
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        c = rng.randint(-4, 4) if ring.field.characteristic == 0 else rng.randrange(
            ring.field.characteristic
        )
        out = out + ring.monomial(exps, c)
    return out


def random_pdop(rng, ring, max_exp=2, terms=3):
    out = PDOp.zero(ring)
    for _ in range(terms):
        beta = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        alpha = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        c = rng.randint(-4, 4) if ring.field.characteristic == 0 else rng.randrange(
            ring.field.characteristic
        )
        out = out + PDOp.term(ring, beta, alpha, c)
    return out


def test_apply_basics():
    t = RQ.gen(0)
    d1 = PDOp.partial(RQ, 0, 1)
    assert p_apply(d1, t * t) == 2 * t


def test_apply_divided_power_char_p():
    dp = PDOp.partial(R5, 0, 5)
    t5 = R5.monomial((5,))
    assert p_apply(dp, t5) == R5.one()  # C(5,5) = 1
    d2 = PDOp.partial(R5, 0, 2)
    t3 = R5.monomial((3,))
    assert p_apply(d2, t3) == 3 * R5.gen(0)  # C(3,2) = 3


def test_ring_mismatch():
    with pytest.raises(IncompatibleContextError):
        p_apply(PDOp.partial(RQ, 0), R5.one())


def test_compose_product_rule():
    d = PDOp.partial(RQ, 0)
    lt = PDOp.mult(RQ.gen(0))
    assert p_compose(d, lt) == p_compose(lt, d) + PDOp.identity(RQ)


@pytest.mark.parametrize("ring", [RQ, R5])
def test_compose_divided_merge(ring):
    # d^[a] d^[b] = C(a+b, a) d^[a+b], checked per Vandermonde on monomials
    for a in range(4):
        for b in range(4):
            lhs = p_compose(PDOp.partial(ring, 0, a), PDOp.partial(ring, 0, b))
            rhs = PDOp.partial(ring, 0, a + b).scale(math.comb(a + b, a))
            assert lhs == rhs


@pytest.mark.parametrize("char", [0, 5])
def test_compose_consistent_with_apply(char):
    ring = PolyRing(("u", "v"), FieldSpec(char))
    rng = random.Random(char + 3)
    for _ in range(60):
        d1 = random_pdop(rng, ring)
        d2 = random_pdop(rng, ring)
        f = random_poly(rng, ring)
        assert p_apply(p_compose(d1, d2), f) == p_apply(d1, p_apply(d2, f))


def test_order():
    assert p_order(PDOp.mult(RQ.gen(0) ** 3)) == 0
    assert p_order(PDOp.partial(RQ, 0, 4)) == 4
    assert p_order(PDOp.term(RQ, (3,), (2,))) == 2
    assert p_order(PDOp.zero(RQ)) == MINUS_INF


def test_order_iterated_commutator_contract():
    rng = random.Random(7)
    ring = PolyRing(("u", "v"), FieldSpec(0))
    for _ in range(20):
        d = random_pdop(rng, ring, max_exp=2)
        if d.is_zero():
            continue
        m = p_order(d)
        assert grothendieck_order_check(d, m)
        if m > 0:
            assert not grothendieck_order_check(d, m - 1)


def test_grothendieck_examples():
    d1 = PDOp.partial(RQ, 0, 1)
    assert not grothendieck_order_check(d1, 0)
    assert grothendieck_order_check(d1, 1)
    dp = PDOp.partial(R5, 0, 5)
    assert grothendieck_order_check(dp, 5)
    assert not grothendieck_order_check(dp, 4)
    assert grothendieck_order_check(PDOp.mult(RQ.gen(0)), 0)


def test_order_subadditive():
    rng = random.Random(11)
    for _ in range(40):
        d1 = random_pdop(rng, RQ)
        d2 = random_pdop(rng, RQ)
        p = p_compose(d1, d2)
        if not p.is_zero():
            assert p_order(p) <= p_order(d1) + p_order(d2)


def test_char0_weyl_presentation_vs_char_p():
    # in char 0 iterating d^[1] reaches every order: d^k = k! d^[k];
    # in char p the p-th divided power is not a polynomial in d^[1]
    d1 = PDOp.partial(RQ, 0)
    power = PDOp.identity(RQ)
    for _ in range(3):
        power = p_compose(power, d1)
    assert power == PDOp.partial(RQ, 0, 3).scale(6)

    d1p = PDOp.partial(R5, 0)
    power = PDOp.identity(R5)
    for _ in range(5):
        power = p_compose(power, d1p)
    assert power.is_zero()  # (d^[1])^p = p! d^[p] = 0 mod p


def test_bareiss_determinant():
    ring = RQ
    t = ring.gen(0)
    one = ring.one()
    entries = [[t, one], [one, t]]
    det = bareiss_determinant(entries, ring)
    assert det == t * t - one
    # singular matrix
    entries = [[t, t], [t, t]]
    assert bareiss_determinant(entries, ring).is_zero()
    # permutation needing a row swap
    z = ring.zero()
    entries = [[z, one], [one, z]]
    assert bareiss_determinant(entries, ring) == -one


def test_bareiss_matches_fraction_expansion():
    from itertools import permutations

    rng = random.Random(13)
    ring = PolyRing(("u",), FieldSpec(5))
    for _ in range(10):
        n = 3
        m = [[random_poly(rng, ring, max_exp=1, terms=2) for _ in range(n)] for _ in range(n)]
        det = bareiss_determinant([row[:] for row in m], ring)
        # Leibniz expansion oracle
        ref = ring.zero()
        for perm in permutations(range(n)):
            sign = 1
            for i in range(n):
                for j in range(i + 1, n):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = ring.one()
            for i in range(n):
                term = term * m[i][perm[i]]
            ref = ref + (term if sign > 0 else -term)
        assert det == ref


def _plain_entry(rng, p, kind):
    """A plain {exponent: coeff} entry over F_p (Q when p = 0) in t, u:
    zero, a nonzero constant, or a polynomial with a term of positive degree."""
    def coeff():
        return rng.choice([-3, -2, -1, 1, 2, 3]) if p == 0 else rng.randrange(1, p)

    if kind == "zero":
        return {}
    if kind == "const":
        return {(0, 0): coeff()}
    # one term of positive degree in u (or, reversed, in t), then up to two more
    out = {(rng.randint(0, 2), rng.randint(1, 2))[:: rng.choice([1, -1])]: coeff()}
    for _ in range(rng.randint(0, 2)):
        out[(rng.randint(0, 2), rng.randint(0, 2))] = coeff()
    return out


def _plain_matrix(rng, p, n, case):
    kinds = {
        "zero_pivots": ["zero", "zero", "const", "poly"],
        "nonconstant": ["zero", "poly", "poly"],
        "mixed": ["zero", "const", "poly"],
        "singular": ["zero", "const", "poly"],
    }
    if case == "scattered_units":  # constants on a random permutation only,
        # zeros on the diagonal: pivoting must reorder rows and columns
        perm = rng.sample(range(n), n)
        return [
            [_plain_entry(rng, p, "const" if j == perm[i] else "zero" if i == j
                          else rng.choice(["zero", "poly"])) for j in range(n)]
            for i in range(n)
        ]
    m = [[_plain_entry(rng, p, rng.choice(kinds[case])) for _ in range(n)] for _ in range(n)]
    if case == "zero_pivots":
        m[0][0] = {}
    if case == "singular" and n >= 2:  # last row = t * row 0 + c * row 1, c = 0 if n = 2
        c = _plain_entry(rng, p, "const" if n > 2 else "zero")
        m[-1] = [oracles.plain_add(oracles.plain_mul({(1, 0): 1}, a, p), oracles.plain_mul(c, b, p), p)
                 for a, b in zip(m[0], m[1])]
    return m


@pytest.mark.parametrize("p", [0, 2, 5])
def test_bareiss_matches_cofactor_oracle(p):
    rng = random.Random(8000 + p)
    ring = PolyRing(("t", "u"), FieldSpec(p))
    cases = ["zero_pivots", "scattered_units", "nonconstant", "mixed", "singular"]
    for case in cases:
        for n in range(1, 6):
            for _ in range(3):
                m = _plain_matrix(rng, p, n, case)
                ref = oracles.cofactor_determinant(m, 2, p)
                if case == "singular" and n >= 2:
                    assert ref == {}
                entries = [[Poly(ring, {e: ring.field.coerce(c) for e, c in x.items()}) for x in row]
                           for row in m]
                det = bareiss_determinant(entries, ring)
                assert det.terms == ref, (case, n, m)
    assert bareiss_determinant([], ring) == ring.one()
