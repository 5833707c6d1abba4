"""Canonical text form and structured records for all value types.

The term order in printed output is graded (total degree, with deg2 used
for algebra elements and 2s+|K|+|L| added for operators), highest first,
ties broken by ascending lexicographic key.  Identical values always print
identically, and parsing a printed form recovers the value exactly.
"""

from __future__ import annotations


def _coeff_prefix(field, c, factors: list[str]) -> str:
    """Render coefficient c times a (possibly empty) monomial factor list."""
    body = "*".join(factors)
    s = field.format(c)
    if not body:
        return s
    if s == "1":
        return body
    if s == "-1" and field.characteristic == 0:
        return f"-{body}"
    return f"{s}*{body}"


def _split_sign(field, c):
    """Return (is_negative, absolute value) for display purposes."""
    if field.characteristic == 0 and c < 0:
        return True, -c
    return False, c


def _render(parent, terms, sort_key, factors) -> str:
    """Print a combination: signed terms in sort_key order, or 0."""
    field = parent.field
    parts = []
    for key in sorted(terms, key=sort_key):
        neg, c = _split_sign(field, terms[key])
        text = _coeff_prefix(field, c, factors(parent, key))
        if not parts:
            parts.append(f"-{text}" if neg else text)
        else:
            parts.append(f"- {text}" if neg else f"+ {text}")
    return " ".join(parts) if parts else "0"


def _records(parent, terms, sort_key, names) -> list[dict]:
    """One record per term in printed order: the coefficient's text and
    each part of the key under its name, tuples as lists."""
    field = parent.field
    out = []
    for key in sorted(terms, key=sort_key):
        rec = {"coeff": field.format(terms[key])}
        for name, part in zip(names, key):
            rec[name] = list(part) if isinstance(part, tuple) else part
        out.append(rec)
    return out


def _power(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _dsym(name: str, e: int) -> str:
    return name if e == 1 else f"{name}[{e}]"


# -- algebra elements ---------------------------------------------------------


def _element_factors(ctx, key) -> list[str]:
    m, I, J = key
    out = []
    if m:
        out.append(_power("h", m))
    for i, e in enumerate(I, start=1):
        if e:
            out.append(_power(f"x{i}", e))
    for i, e in enumerate(J, start=1):
        if e:
            out.append(_power(f"y{i}", e))
    return out


def _neg(t):
    return tuple(-e for e in t)


def _element_sort_key(key):
    m, I, J = key
    return (-(2 * m + sum(I) + sum(J)), m, _neg(I), _neg(J))


def format_element(a) -> str:
    return _render(a.ctx, a.terms, _element_sort_key, _element_factors)


def element_records(a) -> list[dict]:
    return _records(a.ctx, a.terms, _element_sort_key, ("m", "I", "J"))


# -- differential operators on H_n -------------------------------------------


def _operator_factors(ctx, key) -> list[str]:
    m, I, J, s, K, L = key
    out = _element_factors(ctx, (m, I, J))
    if s:
        out.append(_dsym("dh", s))
    for i, e in enumerate(K, start=1):
        if e:
            out.append(_dsym(f"dx{i}", e))
    for i, e in enumerate(L, start=1):
        if e:
            out.append(_dsym(f"dy{i}", e))
    return out


def _operator_sort_key(key):
    m, I, J, s, K, L = key
    grade = 2 * m + sum(I) + sum(J) + 2 * s + sum(K) + sum(L)
    return (-grade, m, _neg(I), _neg(J), s, _neg(K), _neg(L))


def format_operator(d) -> str:
    return _render(d.ctx, d.terms, _operator_sort_key, _operator_factors)


def operator_records(d) -> list[dict]:
    return _records(d.ctx, d.terms, _operator_sort_key, ("m", "I", "J", "s", "K", "L"))


# -- polynomials and polynomial differential operators ------------------------


def _poly_factors(ring, exps) -> list[str]:
    return [
        _power(name, e) for name, e in zip(ring.variables, exps) if e
    ]


def _poly_sort_key(exps):
    return (-sum(exps), _neg(exps))


def format_poly(f) -> str:
    return _render(f.ring, f.terms, _poly_sort_key, _poly_factors)


def _pdop_factors(ring, key) -> list[str]:
    beta, alpha = key
    out = _poly_factors(ring, beta)
    for name, e in zip(ring.variables, alpha):
        if e:
            base = f"d[{name}]"
            out.append(base if e == 1 else f"{base}^[{e}]")
    return out


def _pdop_sort_key(key):
    beta, alpha = key
    return (-(sum(beta) + sum(alpha)), _neg(beta), alpha)


def format_pdop(d) -> str:
    return _render(d.ring, d.terms, _pdop_sort_key, _pdop_factors)


def pdop_records(d) -> list[dict]:
    return _records(d.ring, d.terms, _pdop_sort_key, ("beta", "alpha"))
