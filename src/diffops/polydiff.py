"""Differential operators on commutative polynomial rings, in divided powers.

A PDOp over k[t_1..t_k] is a finite combination of terms t^beta d^[alpha],
where d^[alpha] is the divided-power partial acting by

    d^[alpha](t^gamma) = prod_i C(gamma_i, alpha_i) * t^(gamma - alpha).

Divided powers make the same operator calculus work in characteristic 0
and characteristic p (where d^[p] is not a polynomial in d^[1]).
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from math import comb, prod
from operator import add, sub

from .errors import IncompatibleContextError, ValidationError
from .fields import Combination, bilinear, contractions
from .heisenberg import MINUS_INF
from .polyring import Poly, PolyRing


class PDOp(Combination):
    """Differential operator with polynomial coefficients, canonical sparse form."""

    __slots__ = ()
    ring = Combination.parent

    def __init__(self, ring: PolyRing, terms: dict | None = None):
        self.ring = ring
        clean = {}
        if terms:
            for (beta, alpha), c in terms.items():
                if c == 0:
                    continue
                if len(beta) != ring.nvars or len(alpha) != ring.nvars:
                    raise ValidationError("operator key does not match ring arity")
                clean[(tuple(beta), tuple(alpha))] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ring) -> "PDOp":
        return cls(ring, {})

    @classmethod
    def identity(cls, ring) -> "PDOp":
        z = (0,) * ring.nvars
        return cls(ring, {(z, z): ring.field.one})

    @classmethod
    def mult(cls, f: Poly) -> "PDOp":
        """Multiplication operator by the polynomial f."""
        z = (0,) * f.ring.nvars
        return cls(f.ring, {(e, z): c for e, c in f.terms.items()})

    @classmethod
    def partial(cls, ring, var: int, order: int = 1) -> "PDOp":
        """Divided-power partial d^[order] in variable number var (0-based)."""
        if not 0 <= var < ring.nvars:
            raise ValidationError(f"variable index {var} out of range")
        if order < 0:
            raise ValidationError("negative partial order")
        z = (0,) * ring.nvars
        alpha = tuple(order if i == var else 0 for i in range(ring.nvars))
        return cls(ring, {(z, alpha): ring.field.one})

    @classmethod
    def term(cls, ring, beta, alpha, coeff=1) -> "PDOp":
        return cls(ring, {(tuple(beta), tuple(alpha)): ring.field.coerce(coeff)})

    def __repr__(self):
        from .printing import format_pdop

        return format_pdop(self)


def p_apply(d: PDOp, f: Poly) -> Poly:
    """Action of the operator on a polynomial, exactly."""
    if d.ring != f.ring:
        raise IncompatibleContextError("operator and polynomial rings differ")
    return Poly(d.ring, bilinear(d.ring, _p_apply_mono, d.terms, f.terms))


def _p_apply_mono(ring, dkey, gamma, c, out):
    """Accumulate c * (dkey applied to t^gamma) into out."""
    beta, alpha = dkey
    w = ring.field.mul(c, prod(map(comb, gamma, alpha)))
    if w:
        ring.field.acc(out, tuple(g - a + b for g, a, b in zip(gamma, alpha, beta)), w)


def p_compose(d1: PDOp, d2: PDOp) -> PDOp:
    """Normal-ordered composition d1 o d2."""
    d1._check(d2)
    return PDOp(d1.ring, bilinear(d1.ring, _p_compose_mono, d1.terms, d2.terms))


def _p_compose_mono(ring, key1, key2, c, out):
    """Accumulate the normal form of c * (key1 o key2) into out.

    Uses the divided-power Leibniz rule per variable,
    d^[a] t^b = sum_tau C(b,tau) t^(b-tau) d^[a-tau], and the merge
    d^[a] d^[b] = C(a+b, a) d^[a+b]; with no d^[a1] meeting its t^b2,
    the only term is tau = 0.
    """
    fld = ring.field
    (b1, a1), (b2, a2) = key1, key2
    if not any(map(min, a1, b2)):
        a = tuple(map(add, a1, a2))
        w = prod(map(comb, a, a1))
        fld.acc(out, (tuple(map(add, b1, b2)), a), c if w == 1 else fld.mul(c, w))
        return
    # push d^[a1] through t^b2 and merge the rest with d^[a2], per variable
    choices = [
        [(tau, comb(e, tau) * comb(k - tau + k2, k2)) for tau in range(min(k, e) + 1)]
        for k, e, k2 in zip(a1, b2, a2)
    ]
    for tau, coef in contractions(fld.characteristic, choices):
        beta = tuple(map(sub, map(add, b1, b2), tau))
        alpha = tuple(map(add, map(sub, a1, tau), a2))
        fld.acc(out, (beta, alpha), fld.mul(c, coef))


def p_commutator(d1: PDOp, d2: PDOp) -> PDOp:
    return p_compose(d1, d2) - p_compose(d2, d1)


def p_order(d: PDOp):
    """max |alpha| over stored terms; MINUS_INF for the zero operator."""
    if not d.terms:
        return MINUS_INF
    return max(sum(alpha) for (_, alpha) in d.terms)


def grothendieck_order_check(d: PDOp, m: int) -> bool:
    """True iff every commutator chain of length m+1 with ring variables vanishes.

    Chains with the generating variables suffice by the Leibniz rule, and
    bracket maps with commuting multipliers commute, so chains are
    enumerated as multisets.
    """
    if m < 0:
        return d.is_zero()
    mults = [PDOp.mult(d.ring.gen(i)) for i in range(d.ring.nvars)]
    for combo in combinations_with_replacement(range(d.ring.nvars), m + 1):
        cur = d
        for i in combo:
            cur = p_commutator(cur, mults[i])
            if cur.is_zero():
                break
        if not cur.is_zero():
            return False
    return True
