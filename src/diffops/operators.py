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
basis, valid in every characteristic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    IncompatibleContextError,
    UnsupportedCharacteristicError,
    UnsupportedModeError,
    ValidationError,
    ZeroOperatorError,
)
from .fields import Combination
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
    ctx = d.ctx
    f = ctx.field
    n = ctx.n
    out: dict = {}
    for (m, I, J, s, K, L), c in d.terms.items():
        for (em, eI, eJ), v in a.terms.items():
            w = f.mul(c, f.mul(v, f.binom(em, s)))
            for i in range(n):
                if w == 0:
                    break
                w = f.mul(w, f.mul(f.binom(eI[i], K[i]), f.binom(eJ[i], L[i])))
            if w == 0:
                continue
            shifted = (
                em - s,
                tuple(eI[i] - K[i] for i in range(n)),
                tuple(eJ[i] - L[i] for i in range(n)),
            )
            _mul_mono(ctx, (m, I, J), shifted, w, out)
    return HElement(ctx, out)


def _push_partials(ctx, s, K, L, m2, I2, J2):
    """Normal-order dh^[s] dx^[K] dy^[L] o lambda_{h^m2 x^I2 y^J2}.

    Yields (coeff, lam_key, (s', K', L')) with the surviving multiplication
    part lam_key a PBW subword of the input monomial.
    """
    f = ctx.field
    n = ctx.n
    # stage 1: through the h block (only dh interacts)
    stage1 = []
    for j in range(min(s, m2) + 1):
        w = f.binom(m2, j)
        if w != 0:
            stage1.append((w, m2 - j, s - j))
    for w1, hm, s1 in stage1:
        # stage 2: through the x block (only dx interacts)
        stack = [((), w1)]
        for i in range(n):
            nxt = []
            for prefix, coef in stack:
                for t in range(min(K[i], I2[i]) + 1):
                    w = f.mul(coef, f.binom(I2[i], t))
                    if w != 0:
                        nxt.append((prefix + (t,), w))
            stack = nxt
        for T, w2 in stack:
            xI = tuple(I2[i] - T[i] for i in range(n))
            K2r = tuple(K[i] - T[i] for i in range(n))
            # stage 3: through the y block, one y power at a time;
            # dh^[s] y_l = y_l dh^[s] - dx_l dh^[s-1] and dy^[k] y_l
            # interact, dx passes through.
            states = {( (0,) * n, s1, K2r, L): w2}
            for l in range(n):
                for _ in range(J2[l]):
                    nxt_states: dict = {}
                    for (yexp, cs, cK, cL), coef in states.items():
                        # y_l survives to the multiplication part
                        key = (
                            tuple(yexp[i] + (1 if i == l else 0) for i in range(n)),
                            cs,
                            cK,
                            cL,
                        )
                        f.acc(nxt_states, key, coef)
                        # bracket of dh with y_l produces -dx_l dh^[s-1]
                        if cs >= 1:
                            w = f.neg(f.mul(coef, f.coerce(cK[l] + 1)))
                            if w != 0:
                                key = (
                                    yexp,
                                    cs - 1,
                                    tuple(
                                        cK[i] + (1 if i == l else 0) for i in range(n)
                                    ),
                                    cL,
                                )
                                f.acc(nxt_states, key, w)
                        # bracket of dy_l with y_l lowers the dy order
                        if cL[l] >= 1:
                            key = (
                                yexp,
                                cs,
                                cK,
                                tuple(cL[i] - (1 if i == l else 0) for i in range(n)),
                            )
                            f.acc(nxt_states, key, coef)
                    states = nxt_states
            for (yexp, cs, cK, cL), coef in states.items():
                yield coef, (hm, xI, yexp), (cs, cK, cL)


def op_compose(d1: DOperator, d2: DOperator) -> DOperator:
    """Normal-ordered composition d1 o d2."""
    d1._check(d2)
    ctx = d1.ctx
    f = ctx.field
    n = ctx.n
    out: dict = {}
    for (m1, I1, J1, s1, K1, L1), c1 in d1.terms.items():
        for (m2, I2, J2, s2, K2, L2), c2 in d2.terms.items():
            base = f.mul(c1, c2)
            for coef, lam_key, (cs, cK, cL) in _push_partials(
                ctx, s1, K1, L1, m2, I2, J2
            ):
                w = f.mul(base, coef)
                # merge the pushed partials with the partials of d2
                w = f.mul(w, f.binom(cs + s2, s2))
                for i in range(n):
                    if w == 0:
                        break
                    w = f.mul(w, f.binom(cK[i] + K2[i], K2[i]))
                    w = f.mul(w, f.binom(cL[i] + L2[i], L2[i]))
                if w == 0:
                    continue
                dkey = (
                    cs + s2,
                    tuple(cK[i] + K2[i] for i in range(n)),
                    tuple(cL[i] + L2[i] for i in range(n)),
                )
                lam_terms: dict = {}
                _mul_mono(ctx, (m1, I1, J1), lam_key, w, lam_terms)
                for lam, cc in lam_terms.items():
                    f.acc(out, lam + dkey, cc)
    return DOperator(ctx, out)


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
            fact = f.mul(f.factorial(K[l]), f.factorial(L[l]))
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
