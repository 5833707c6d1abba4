"""Operator-calculus requests on H_n / A_n, shared by `calculus-q` and `charp`.

A request is a tuple (kind, ctx, inputs...) whose inputs are
(key map, text) pairs from ``gen``; only the text reaches the library.
Every check is exact and runs outside the timed span without calling the
timed function again on the same input:

* every printed result reads back to the result, through a reader of
  the printed form in ``gen`` that shares no code with the library;
* every parsed input equals the generator's key map;
* products, apply, compose and commutators equal what the coordinate
  oracle below computes from the generator's key maps, as whole
  operators, not on sample elements;
* a reduction witness replays to its nonzero scalar;
* inner-decomposition pairs, as the operator sum of lambda_a rho_b, equal
  the operator in the coordinate oracle, which is the same as agreeing
  on every monomial, as criterion 5 checks on a basis;
* a central decomposition recomposes to its input.
"""

from __future__ import annotations

from itertools import product as cartesian
from math import comb, factorial

from diffops import (
    HElement,
    DOperator,
    central_decompose,
    central_recompose,
    inner_decompose,
    op_apply,
    op_commutator,
    op_compose,
    reduce_to_scalar,
    replay_witness,
)
from diffops.parsing import element_from_text, operator_from_text
from diffops.printing import format_element, format_operator, format_poly

import gen


def _mul(a, b):
    return a * b


def _elem(ctx, keys):
    f = ctx.field
    return HElement(ctx, {k: f.coerce(c) for k, c in keys.items()})


def _op(ctx, keys):
    f = ctx.field
    return DOperator(ctx, {k: f.coerce(c) for k, c in keys.items()})


def _format_pairs(pairs):
    return "; ".join(f"({format_element(a)}) ({format_element(b)})" for a, b in pairs)


def _format_parts(parts):
    return "; ".join(
        f"{gen.element_mono_text(*key) or '1'}: {format_poly(poly)}"
        for key, poly in sorted(parts.items())
    )


def _parse_elem(ctx, item, tr):
    tr.count("parsing.chars_in", len(item[1]))
    return tr.call("parsing.element", element_from_text, ctx, item[1])


def _parse_op(ctx, item, tr):
    tr.count("parsing.chars_in", len(item[1]))
    return tr.call("parsing.operator", operator_from_text, ctx, item[1])


def emit(tr, name, fn, value):
    """Print `value` with `fn` inside a span named `name`."""
    text = tr.call(name, fn, value)
    tr.count("printing.chars_out", len(text))
    return text


def execute(env, req, tr):
    """parse -> compute -> print; returns (printed text, values for the check)."""
    kind, ctx = req[0], req[1]
    if kind == "mul":
        a, b = _parse_elem(ctx, req[2], tr), _parse_elem(ctx, req[3], tr)
        r = tr.call("heisenberg.mul", _mul, a, b)
        tr.count("heisenberg.terms_out", len(r.terms))
        return emit(tr, "printing.element", format_element, r), (r, a, b)
    if kind in ("compose", "comm"):
        d1, d2 = _parse_op(ctx, req[2], tr), _parse_op(ctx, req[3], tr)
        if kind == "compose":
            r = tr.call("operators.compose", op_compose, d1, d2)
        else:
            r = tr.call("operators.commutator", op_commutator, d1, d2)
        tr.count("operators.terms_out", len(r.terms))
        return emit(tr, "printing.operator", format_operator, r), (r, d1, d2)
    if kind == "apply":
        d, a = _parse_op(ctx, req[2], tr), _parse_elem(ctx, req[3], tr)
        r = tr.call("operators.apply", op_apply, d, a)
        tr.count("operators.terms_out", len(r.terms))
        return emit(tr, "printing.element", format_element, r), (r, d, a)
    if kind == "reduce":
        d = _parse_op(ctx, req[2], tr)
        w = tr.call("operators.reduce", reduce_to_scalar, d)
        tr.count("operators.reduce.brackets", len(w.partners))
        text = ctx.field.format(w.scalar) + " via " + " ".join(w.partners)
        tr.count("printing.chars_out", len(text))
        return text, (w, d)
    if kind == "inner":
        d = _parse_op(ctx, req[2], tr)
        pairs = tr.call("operators.inner_decompose", inner_decompose, d)
        return emit(tr, "printing.pairs", _format_pairs, pairs), (pairs, d)
    if kind == "central":
        a = _parse_elem(ctx, req[2], tr)
        parts = tr.call("heisenberg.central_decompose", central_decompose, a)
        return emit(tr, "printing.poly", _format_parts, parts), (parts, a)
    raise ValueError(f"unknown calculus request {kind!r}")


# -- the oracle: operators in PBW coordinates ------------------------------------
#
# h^m x^I y^J is the exponent vector (m, I, J) of a commutative polynomial
# ring.  An operator is a sum of c t^b D^[a], a coordinate monomial times a
# divided-power partial, kept as {(b, a): c}.  That form is unique, so two
# operators are equal exactly when they act alike on every monomial.  The
# closed form y^a x^b = sum_k (-1)^k k! C(a,k) C(b,k) h^k x^(b-k) y^(a-k)
# gives, per index and with h = 1 in Weyl mode,
#     lambda_u = sum_k (-1)^k k! h^k (dy^[k] u) dx^[k],
#     rho_u    = sum_k (-1)^k k! h^k (dx^[k] u) dy^[k],
# and a normal-form term c u dh^[s] dx^[K] dy^[L] is c lambda_u o D^[(s, K, L)].
# None of this calls the library.


def _add(out, key, c):
    c += out.get(key, 0)
    if c:
        out[key] = c
    else:
        out.pop(key, None)


def coord_compose(A, B):
    """(t^b1 D^[a1]) o (t^b2 D^[a2]) = sum_g C(b2, g) C(a1 - g + a2, a2) t^(b1+b2-g) D^[a1-g+a2].

    Also the composition of polynomial differential operators, whose
    (t exponents, d exponents) keys have the same layout."""
    out = {}
    for (b1, a1), c1 in A.items():
        for (b2, a2), c2 in B.items():
            c = c1 * c2
            for g in cartesian(*(range(min(u, v) + 1) for u, v in zip(a1, b2))):
                w = 1  # integer factors first: one multiplication by c per term
                for gi, u, v, e in zip(g, a1, b2, a2):
                    w *= comb(v, gi) * comb(u - gi + e, e)
                b = tuple(x + y - gi for x, y, gi in zip(b1, b2, g))
                _add(out, (b, tuple(u - gi + e for u, gi, e in zip(a1, g, a2))), c * w)
    return out


def _coord_mult(weyl, keys, side):
    """lambda (side 0) or rho (side 1) of the element with these keys."""
    out = {}
    for (m, I, J), c in keys.items():
        zero = (0,) * len(I)
        src = J if side == 0 else I
        for k in cartesian(*(range(e + 1) for e in src)):
            w = (-1) ** sum(k)
            for ki, e in zip(k, src):
                w *= factorial(ki) * comb(e, ki)
            w *= c
            rest = tuple(e - ki for e, ki in zip(src, k))
            h = 0 if weyl else m + sum(k)
            if side == 0:
                _add(out, ((h,) + I + rest, (0,) + k + zero), w)
            else:
                _add(out, ((h,) + rest + J, (0,) + zero + k), w)
    return out


def _coord_op(weyl, keys):
    out = {}
    for (m, I, J, s, K, L), c in keys.items():
        a2 = (s,) + K + L
        # lambda_u o D^[a2]: D^[a1] D^[a2] = C(a1 + a2, a2) D^[a1 + a2]
        for (b, a1), w in _coord_mult(weyl, {(m, I, J): c}, 0).items():
            f = 1
            for u, e in zip(a1, a2):
                f *= comb(u + e, e)
            _add(out, (b, tuple(u + e for u, e in zip(a1, a2))), w * f)
    return out


def _coord_apply(A, keys):
    """The operator A on the element with these keys; element keys out."""
    n = len(next(iter(keys))[1]) if keys else 0
    out = {}
    for (b, a), c in A.items():
        for (m, I, J), c2 in keys.items():
            e = (m,) + I + J
            if all(x >= y for x, y in zip(e, a)):
                w = 1
                for x, y in zip(e, a):
                    w *= comb(x, y)
                w *= c * c2
                t = tuple(p + x - y for p, x, y in zip(b, e, a))
                _add(out, (t[0], t[1:n + 1], t[n + 1:]), w)
    return out


def reduced(keys, p):
    """Coefficients reduced mod p (p > 0), zero terms dropped."""
    if not p:
        return keys
    return {k: c % p for k, c in keys.items() if c % p}


def _read_pairs(text, n):
    out = []
    for piece in text.split("; ") if text else []:
        left, right = piece[1:-1].split(") (")
        out.append((gen.read_keys(left, n), gen.read_keys(right, n)))
    return out


def _read_parts(text, names, n):
    out = {}
    for piece in text.split("; ") if text else []:
        mono, poly = piece.split(": ")
        (key,) = gen.read_keys("1" if mono == "1" else mono, n)
        out[key] = gen.read_poly_keys(poly, names)
    return out


def check(env, req, text, value, state):
    kind, ctx = req[0], req[1]
    n, p, weyl = ctx.n, ctx.field.characteristic, ctx.is_weyl
    if kind == "mul":
        r, a, b = value
        got = gen.read_keys(text, n)
        want = _coord_apply(_coord_mult(weyl, req[2][0], 0), req[3][0])
        return (
            a == _elem(ctx, req[2][0])
            and b == _elem(ctx, req[3][0])
            and got == r.terms
            and reduced(got, p) == reduced(want, p)
        )
    if kind in ("compose", "comm"):
        r, d1, d2 = value
        got = gen.read_keys(text, n, operator=True)
        c1, c2 = _coord_op(weyl, req[2][0]), _coord_op(weyl, req[3][0])
        want = coord_compose(c1, c2)
        if kind == "comm":
            for key, c in coord_compose(c2, c1).items():
                _add(want, key, -c)
        return (
            d1 == _op(ctx, req[2][0])
            and d2 == _op(ctx, req[3][0])
            and got == r.terms
            and reduced(_coord_op(weyl, got), p) == reduced(want, p)
        )
    if kind == "apply":
        r, d, a = value
        got = gen.read_keys(text, n)
        want = _coord_apply(_coord_op(weyl, req[2][0]), req[3][0])
        return (
            d == _op(ctx, req[2][0])
            and a == _elem(ctx, req[3][0])
            and got == r.terms
            and reduced(got, p) == reduced(want, p)
        )
    if kind == "reduce":
        w, d = value
        return (
            d == _op(ctx, req[2][0])
            and text == f"{w.scalar} via {' '.join(w.partners)}"
            and w.scalar != 0
            and replay_witness(d, w) == w.scalar
        )
    if kind == "inner":
        pairs, d = value
        got = _read_pairs(text, n)
        total = {}
        for left, right in got:
            lam, rho = _coord_mult(weyl, left, 0), _coord_mult(weyl, right, 1)
            for key, c in coord_compose(lam, rho).items():
                _add(total, key, c)
        return (
            d == _op(ctx, req[2][0])
            and got == [(a.terms, b.terms) for a, b in pairs]
            and reduced(total, p) == reduced(_coord_op(weyl, req[2][0]), p)
        )
    if kind == "central":
        parts, a = value
        names = ("h",) + tuple(f"{v}{i}" for v in "XY" for i in range(1, n + 1))
        return (
            a == _elem(ctx, req[2][0])
            and _read_parts(text, names, n) == {k: poly.terms for k, poly in parts.items()}
            and central_recompose(ctx, parts) == a
        )
    return False
