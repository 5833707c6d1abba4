"""The operator algebra D(H_n) in normal form.

Operators are finite combinations of normal monomials

    lambda_{h^m x^I y^J} o dh^[s] dx^[K] dy^[L]

stored as maps from (m, I, J, s, K, L) keys to nonzero scalars.  The
partials are divided powers acting on PBW coordinates by
d^[k]: t^a -> C(a,k) t^(a-k); in characteristic 0 an integer power d^k
equals k! d^[k].  Weyl mode forces m = 0 and s = 0.

Composition pushes partials rightward past multiplications with the
bracket table

    dh^[s] h    = h dh^[s] + dh^[s-1]
    dx^[k] x_l  = x_l dx^[k] + dx^[k-1]          (same for y)
    dh^[s] y_l  = y_l dh^[s] - (K_l+1 merge) dx_l dh^[s-1]
    dh^[s] x_l  = x_l dh^[s]

with all partials mutually commuting and merging by
d^[a] d^[b] = C(a+b, a) d^[a+b]; multiplication parts multiply through
the PBW kernel.  Each rule is an exact identity of actions on the PBW
basis, valid in every characteristic.  Iterated, the rules close to

    dh^[s] h^m  = sum_j C(m,j) h^(m-j) dh^[s-j]
    dx^[k] x^a  = sum_T C(a,T) x^(a-T) dx^[k-T]        (same for y)
    dh^[s] y^b  = sum_t (-1)^t t! C(b,t) y^(b-t) dx^[t] dh^[s-t]

so one push picks j, and per index T, k (by dy) and t (by dh) with
j + |t| <= s; every weight is an integer, reduced mod p once.  The pair
kernel _compose_mono composes two monomials so, and fields.bilinear runs it
over the term pairs of op_compose (and _apply_mono over those of op_apply).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, factorial, prod
from operator import add, sub

from .errors import (
    IncompatibleContextError,
    UnsupportedCharacteristicError,
    UnsupportedModeError,
    ValidationError,
    ZeroOperatorError,
)
from .fields import Combination, bilinear, contractions
from .heisenberg import (
    MINUS_INF,
    AlgebraContext,
    HElement,
    _mul_mono,
    h as gen_h,
    x as gen_x,
    y as gen_y,
)


class DOperator(Combination):
    """Differential operator on H_n (or A_n) in normal form."""

    __slots__ = ()
    ctx = Combination.parent

    def __init__(self, ctx: AlgebraContext, terms: dict | None = None):
        self.ctx = ctx
        clean = {}
        if terms:
            for key, c in terms.items():
                if c == 0:
                    continue
                m, I, J, s, K, L = key
                if any(len(v) != ctx.n for v in (I, J, K, L)):
                    raise ValidationError("operator key rank does not match context")
                if ctx.is_weyl and (m != 0 or s != 0):
                    raise ValidationError("Weyl-mode operators must have m = s = 0")
                clean[key] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, ctx) -> "DOperator":
        return cls(ctx, {})

    @classmethod
    def term(cls, ctx, m, I, J, s, K, L, coeff=1) -> "DOperator":
        key = (int(m), tuple(I), tuple(J), int(s), tuple(K), tuple(L))
        return cls(ctx, {key: ctx.field.coerce(coeff)})

    def __repr__(self):
        from .printing import format_operator

        return format_operator(self)


# -- basic operators -----------------------------------------------------------


def identity_op(ctx: AlgebraContext) -> DOperator:
    z = ctx.zero_index()
    return DOperator.term(ctx, 0, z, z, 0, z, z)


def lambda_of(a: HElement) -> DOperator:
    """Left multiplication by a."""
    z = a.ctx.zero_index()
    return DOperator(
        a.ctx, {(m, I, J, 0, z, z): c for (m, I, J), c in a.terms.items()}
    )


def dh(ctx: AlgebraContext, order: int = 1) -> DOperator:
    """Divided power dh^[order] of the derivative in the h coordinate."""
    if ctx.is_weyl:
        raise UnsupportedModeError("dh does not exist in Weyl mode")
    z = ctx.zero_index()
    return DOperator.term(ctx, 0, z, z, order, z, z)


def dx(ctx: AlgebraContext, l: int, order: int = 1) -> DOperator:
    z = ctx.zero_index()
    K = tuple(order if i == l - 1 else 0 for i in range(ctx.n))
    return DOperator.term(ctx, 0, z, z, 0, K, z)


def dy(ctx: AlgebraContext, l: int, order: int = 1) -> DOperator:
    z = ctx.zero_index()
    L = tuple(order if i == l - 1 else 0 for i in range(ctx.n))
    return DOperator.term(ctx, 0, z, z, 0, z, L)


def dh_reversed(ctx: AlgebraContext) -> DOperator:
    """The h-derivative taken in the reversed monomial order (y's before x's).

    Equals dh + sum_l dx_l dy_l as a normal-form operator.
    """
    if ctx.is_weyl:
        raise UnsupportedModeError("the reversed h-derivative needs Heisenberg mode")
    out = dh(ctx)
    for l in range(1, ctx.n + 1):
        out = out + op_compose(dx(ctx, l), dy(ctx, l))
    return out


# -- action and composition ----------------------------------------------------


def op_apply(d: DOperator, a: HElement) -> HElement:
    """Act on an element: partials on PBW coordinates, then left multiplication."""
    if d.ctx != a.ctx:
        raise IncompatibleContextError("operator and element contexts differ")
    return HElement(d.ctx, bilinear(d.ctx, _apply_mono, d.terms, a.terms))


def _apply_mono(ctx, dkey, ekey, c, out):
    """Accumulate c * (dkey applied to ekey) into out."""
    (m, I, J, s, K, L), (em, eI, eJ) = dkey, ekey
    w = ctx.field.mul(c, comb(em, s) * prod(map(comb, eI, K)) * prod(map(comb, eJ, L)))
    if w:
        shifted = (em - s, tuple(map(sub, eI, K)), tuple(map(sub, eJ, L)))
        _mul_mono(ctx, (m, I, J), shifted, w, out)


def _push_partials(ctx, s, K, L, m2, I2, J2):
    """Normal-order dh^[s] dx^[K] dy^[L] o lambda_{h^m2 x^I2 y^J2}.

    Yields (coeff, lam_key, (s', K', L')) with the surviving multiplication
    part lam_key a PBW subword of the input monomial.  In closed form, dh
    takes j factors of h^m2, and each index takes T factors of x^I2 for dx,
    k factors of y^J2 for dy and t of the rest for dh, with j + |t| <= s.
    When no partial meets a factor it acts on, the one pick is j = T = k = t = 0.
    """
    if not (min(s, m2) or any(map(min, K, I2)) or any(map(min, L, J2)) or s and any(J2)):
        yield 1, (m2, I2, J2), (s, K, L)
        return
    choices = [[(j, comb(m2, j)) for j in range(min(s, m2) + 1)]]
    choices += [_index_options(s, *e) for e in zip(K, L, I2, J2)]
    for (j, *picks), coef in contractions(ctx.field.characteristic, choices):
        T, k, t = zip(*picks)
        r = s - j - sum(t)
        if r >= 0:
            lam = (m2 - j, tuple(map(sub, I2, T)), tuple(map(sub, map(sub, J2, k), t)))
            yield coef, lam, (r, tuple(map(add, map(sub, K, T), t)), tuple(map(sub, L, k)))


def _index_options(s, kx, ly, a, b):
    """The (T, k, t) options of one index of a push, generated so that
    contractions refuses a huge one before it is built."""
    for T in range(min(kx, a) + 1):
        for k in range(min(ly, b) + 1):
            for t in range(min(s, b - k) + 1):
                w = comb(a, T) * comb(b, k) * comb(kx - T + t, t)
                yield (T, k, t), w * (-1) ** t * factorial(t) * comb(b - k, t)


def op_compose(d1: DOperator, d2: DOperator) -> DOperator:
    """Normal-ordered composition d1 o d2."""
    d1._check(d2)
    return DOperator(d1.ctx, bilinear(d1.ctx, _compose_mono, d1.terms, d2.terms))


def _compose_mono(ctx, key1, key2, c, out):
    """Accumulate the normal form of c * (key1 o key2) into out."""
    f = ctx.field
    m1, I1, J1, s1, K1, L1 = key1
    m2, I2, J2, s2, K2, L2 = key2
    for coef, lam_key, (cs, cK, cL) in _push_partials(ctx, s1, K1, L1, m2, I2, J2):
        # merge the pushed partials with the partials of key2
        dkey = (cs + s2, tuple(map(add, cK, K2)), tuple(map(add, cL, L2)))
        w = coef * comb(dkey[0], s2) * prod(map(comb, dkey[1], K2)) * prod(map(comb, dkey[2], L2))
        w = c if w == 1 else f.mul(c, w)
        if w:
            lam_terms: dict = {}
            _mul_mono(ctx, (m1, I1, J1), lam_key, w, lam_terms)
            for lam, cc in lam_terms.items():
                f.acc(out, lam + dkey, cc)


def op_commutator(d1: DOperator, d2: DOperator) -> DOperator:
    """[d1, d2] = d1 o d2 - d2 o d1."""
    return op_compose(d1, d2) - op_compose(d2, d1)


# -- right multiplications -----------------------------------------------------


def rho_of(a: HElement) -> DOperator:
    """Right multiplication by a, as a normal-form operator.

    Built from rho_h = lambda_h, rho_x = lambda_x - lambda_h dy,
    rho_y = lambda_y + lambda_h dx, extended anti-multiplicatively.
    """
    ctx = a.ctx
    lam_h = lambda_of(gen_h(ctx))
    idx = range(1, ctx.n + 1)
    rho_gens = [lambda_of(gen_x(ctx, l)) - op_compose(lam_h, dy(ctx, l)) for l in idx]
    rho_gens += [lambda_of(gen_y(ctx, l)) + op_compose(lam_h, dx(ctx, l)) for l in idx]
    out = DOperator.zero(ctx)
    for (m, I, J), c in a.terms.items():
        cur = lambda_of(gen_h(ctx) ** m) if m else identity_op(ctx)
        for rho, e in zip(rho_gens, I + J):
            for _ in range(e):
                cur = op_compose(rho, cur)
        out = out + cur.scale(c)
    return out


# -- filtration degree ----------------------------------------------------------


def mdeg(d: DOperator):
    """max 2s + |K| + |L| over stored monomials; MINUS_INF for 0."""
    if not d.terms:
        return MINUS_INF
    return max(2 * s + sum(K) + sum(L) for (_, _, _, s, K, L) in d.terms)


def partner_operator(ctx: AlgebraContext, sym: str) -> DOperator:
    """The operator named by a bracket-partner symbol.

    Plain generator names (h, x<l>, y<l>) mean left multiplication;
    dh, dx<l>, dy<l> mean the order-one partials.
    """
    if sym == "h":
        return lambda_of(gen_h(ctx))
    if sym == "dh":
        return dh(ctx)
    kind = sym[:2] if sym[:2] in ("dx", "dy") else sym[0]
    try:
        l = int(sym[len(kind):])
    except ValueError:
        raise ValidationError(f"unknown bracket partner {sym!r}") from None
    if kind == "x":
        return lambda_of(gen_x(ctx, l))
    if kind == "y":
        return lambda_of(gen_y(ctx, l))
    if kind == "dx":
        return dx(ctx, l)
    if kind == "dy":
        return dy(ctx, l)
    raise ValidationError(f"unknown bracket partner {sym!r}")


def bracket_with_gen(d: DOperator, sym: str) -> DOperator:
    """[d, lambda_g] for a generator symbol g."""
    return op_commutator(d, partner_operator(d.ctx, sym))


# -- the simplicity reduction ----------------------------------------------------


@dataclass(frozen=True)
class ReductionWitness:
    """Bracket schedule that collapses a nonzero operator to a nonzero scalar.

    Each partner names either a multiplication by a generator (h, x<l>,
    y<l>) or a partial (dh, dx<l>, dy<l>); replaying the commutators in
    order on the input yields the multiplication by ``scalar``.
    """

    partners: tuple[str, ...]
    scalar: object


def _content(d, picker) -> int:
    return max((picker(key) for key in d.terms), default=0)


def reduce_to_scalar(d: DOperator) -> ReductionWitness:
    """Collapse a nonzero char-0 operator to a nonzero scalar by brackets.

    Phases follow the ideal-reduction schedule: kill dh content by
    bracketing with h; per index kill x_l/dy_l content with y_l and
    y_l/dx_l content with x_l; finally kill h powers with dh.  When a
    multiplication-bracket lands in its kernel (right multiplications do
    commute with everything on the left), a coordinate partial (dx_l or
    dy_l) is used instead; each such step is injective on normal
    monomials, so the chain never dies before reaching a scalar.
    """
    ctx = d.ctx
    if ctx.field.characteristic != 0:
        raise UnsupportedCharacteristicError(
            "the scalar reduction needs characteristic 0"
        )
    if ctx.is_weyl:
        raise UnsupportedModeError("the scalar reduction needs Heisenberg mode")
    if d.is_zero():
        raise ZeroOperatorError("cannot reduce the zero operator")

    partners: list[str] = []
    cur = d

    def take(sym):
        nonlocal cur
        cur = op_commutator(cur, partner_operator(ctx, sym))
        partners.append(sym)

    while _content(cur, lambda k: k[3]) > 0:
        take("h")
    # key slots 1 and 5 hold the x_l/dy_l content, slots 2 and 4 the y_l/dx_l content
    for (a, b), mult, fallback in (((1, 5), "y", "dx"), ((2, 4), "x", "dy")):
        for l in range(1, ctx.n + 1):
            i = l - 1
            while _content(cur, lambda k: k[a][i] + k[b][i]) > 0:
                nxt = op_commutator(cur, partner_operator(ctx, f"{mult}{l}"))
                if nxt.is_zero():
                    take(f"{fallback}{l}")
                else:
                    cur = nxt
                    partners.append(f"{mult}{l}")
    while _content(cur, lambda k: k[0]) > 0:
        take("dh")

    z = ctx.zero_index()
    scalar = cur.terms.get((0, z, z, 0, z, z), ctx.field.zero)
    if scalar == 0 or len(cur.terms) != 1:
        raise AssertionError("reduction did not end in a nonzero scalar")
    return ReductionWitness(tuple(partners), scalar)


def replay_witness(d: DOperator, witness: ReductionWitness):
    """Re-run the witness brackets; returns the final scalar."""
    ctx = d.ctx
    cur = d
    for sym in witness.partners:
        cur = op_commutator(cur, partner_operator(ctx, sym))
    z = ctx.zero_index()
    if set(cur.terms) != {(0, z, z, 0, z, z)}:
        raise AssertionError("witness replay did not end in a scalar")
    return cur.terms[(0, z, z, 0, z, z)]


# -- Weyl-mode inner decomposition ----------------------------------------------


def inner_decompose(d: DOperator) -> list[tuple[HElement, HElement]]:
    """Write a Weyl-mode operator as sum lambda_{a_i} rho_{b_i}.

    Substitutes dx_l -> rho_{y_l} - lambda_{y_l} and
    dy_l -> lambda_{x_l} - rho_{x_l} (h = 1) and collects the result in
    A_n (x) A_n^o coordinates; pairs are sorted by the right factor.
    """
    ctx = d.ctx
    if not ctx.is_weyl:
        raise UnsupportedModeError("the inner decomposition needs Weyl mode (h = 1)")
    f = ctx.field
    n = ctx.n
    z = ctx.zero_index()
    unit = (0, z, z)

    def tensor_mul(t, a_key, b_key, sign):
        # multiply the tensor t on the right by sign * (a_key (x) b_key)
        out: dict = {}
        for (u, v), c in t.items():
            c = c if sign > 0 else f.neg(c)
            left: dict = {}
            _mul_mono(ctx, u, a_key, c, left)
            right: dict = {}
            _mul_mono(ctx, b_key, v, f.one, right)
            for lk, lc in left.items():
                for rk, rc in right.items():
                    f.acc(out, (lk, rk), f.mul(lc, rc))
        return out

    total: dict = {}
    for (m, I, J, s, K, L), c in d.terms.items():
        t = {((m, I, J), unit): c}
        for l in range(n):
            xk = (0, ctx.unit_index(l + 1), z)
            yk = (0, z, ctx.unit_index(l + 1))
            # dx_l -> rho_y - lambda_y, K[l] times; dy_l -> lambda_x - rho_x, L[l] times
            for e, a_key, b_key in ((K[l], unit, yk), (L[l], xk, unit)):
                for _ in range(e):
                    pos, neg = tensor_mul(t, a_key, b_key, 1), tensor_mul(t, b_key, a_key, -1)
                    t = _tensor_add(f, pos, neg)
            fact = f.coerce(factorial(K[l]) * factorial(L[l]))
            if fact == 0:
                raise UnsupportedCharacteristicError(
                    "divided power too large for the field characteristic"
                )
            if fact != f.one:
                inv = f.inv(fact)
                t = {k: f.mul(v, inv) for k, v in t.items()}
        total = _tensor_add(f, total, t)

    grouped: dict = {}
    for (u, v), c in total.items():
        grouped.setdefault(v, {})[u] = c

    def pair_key(v):
        m, I, J = v
        return (2 * m + sum(I) + sum(J), m, tuple(-i for i in I), tuple(-j for j in J))

    pairs = []
    for v in sorted(grouped, key=pair_key):
        a = HElement(ctx, grouped[v])
        b = HElement(ctx, {v: f.one})
        pairs.append((a, b))
    return pairs


def _tensor_add(f, t1, t2):
    out = dict(t1)
    for k, c in t2.items():
        f.acc(out, k, c)
    return out
